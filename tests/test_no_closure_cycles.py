"""Static guard: no nested function under ``engine/`` refers to itself.

A nested function that calls itself by name reads its own name from a
closure cell of the enclosing call, so the function object and that cell
form a reference cycle. Everything else the closure captures (a DOM tree,
a PDF object table, an accumulator list) then outlives the call until the
cycle collector runs, which the extraction kernel defers on purpose
(``gc.set_threshold`` in engine/extract.py). Nested functions that reach
each other (mutual recursion) close the same loop through two cells.

The behavioural tests (``test_extract_row_leaves_no_cyclic_garbage``,
``test_tables_from_batch_leaves_no_cyclic_garbage``) only see the code the
fixture corpus runs; this one sees every module.
"""

from __future__ import annotations

import ast
from pathlib import Path

ENGINE = Path(__file__).resolve().parent.parent / "engine"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _child_funcs(scope: ast.AST) -> list[ast.AST]:
    """Function definitions whose enclosing scope is ``scope``."""
    out, todo = [], list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, _FUNCS):
            out.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return out


def _loaded_names(func: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(func)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def closure_cycles(source: str) -> list[tuple[int, str]]:
    """(line, name) of every nested function that can reach itself through
    the names of its sibling nested functions (itself included)."""
    sites = []
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, _FUNCS):
            continue
        nested = {f.name: f for f in _child_funcs(scope)}
        refs = {name: _loaded_names(f) & nested.keys()
                for name, f in nested.items()}
        for name, f in nested.items():
            seen, todo = set(), list(refs[name])
            while todo:
                cur = todo.pop()
                if cur not in seen:
                    seen.add(cur)
                    todo.extend(refs[cur])
            if name in seen:
                sites.append((f.lineno, name))
    return sites


def test_guard_flags_self_and_mutual_recursion():
    src = (
        "def top(x):\n"
        "    def walk(n):\n"
        "        return walk(n - 1) if n else x\n"
        "    def even(n):\n"
        "        return odd(n - 1) if n else True\n"
        "    def odd(n):\n"
        "        return even(n - 1) if n else False\n"
        "    def leaf(n):\n"
        "        return n\n"
        "    return walk(3), even(2), leaf(1)\n"
        "def module_level(n):\n"
        "    return module_level(n - 1) if n else 0\n"
    )
    assert sorted(closure_cycles(src)) == [(2, "walk"), (4, "even"),
                                           (6, "odd")]


def test_engine_has_no_closure_cycles():
    found = [f"{path.relative_to(ENGINE.parent)}:{line} {name}"
             for path in sorted(ENGINE.rglob("*.py"))
             for line, name in closure_cycles(path.read_text())]
    assert not found, ("nested functions that reference themselves form a "
                       "closure-cell reference cycle; make them module-level "
                       "helpers that take their accumulator as an argument: "
                       + ", ".join(found))
