"""Static guard: the extraction path never imports ``engine.fixtures``.

``engine.fixtures`` is the seeded test-data generator (pages, PDFs, DOCX,
codecs' encoders). The modules a production extraction worker runs —
``engine/extract.py``, ``pipeline.py``, ``checkpoint.py`` and the ``htmlx``,
``pdfx`` and ``docxx`` packages — and every engine module they import,
at module level or inside a function, must not load it. ``queries.py``
builds its planted oracle inputs from it lazily and is not on this path.

A second guard covers all of ``engine/``: no module imports a private
``ray.*._internal`` module, whose names and layout change between Ray
releases without notice.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENGINE = ROOT / "engine"
EXTRACTION_PATH = ("engine.extract", "engine.pipeline", "engine.checkpoint",
                   "engine.htmlx", "engine.pdfx", "engine.docxx")


def _module_file(name: str) -> Path | None:
    path = ROOT.joinpath(*name.split("."))
    if (path / "__init__.py").is_file():
        return path / "__init__.py"
    if path.with_suffix(".py").is_file():
        return path.with_suffix(".py")
    return None


def _package_modules(name: str) -> list[str]:
    """``name`` and, for a package, every module under it."""
    path = ROOT.joinpath(*name.split("."))
    if not path.is_dir():
        return [name]
    return [".".join(p.with_suffix("").relative_to(ROOT).parts)
            .removesuffix(".__init__") for p in sorted(path.rglob("*.py"))]


def engine_imports(name: str, source: str) -> set[str]:
    """Every ``engine`` module that ``source`` (the module ``name``) imports,
    wherever the import statement sits; ``from engine import x`` counts as
    importing ``engine.x`` when that is a module."""
    is_pkg = _module_file(name).name == "__init__.py"
    package = name if is_pkg else name.rpartition(".")[0]
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            bases = [alias.name for alias in node.names]
            names = []
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                parts = parts[:len(parts) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            bases = [base]
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for mod in bases + names:
            if mod.startswith("engine.") and _module_file(mod):
                out.add(mod)
    return out


def reachable(roots: list[str]) -> dict[str, str]:
    """module → the module that first imports it, over engine imports."""
    seen = {root: "" for root in roots}
    todo = list(roots)
    while todo:
        name = todo.pop()
        for mod in engine_imports(name, _module_file(name).read_text()):
            # importing engine.a.b runs engine/a/__init__.py too
            parts = mod.split(".")
            for i in range(2, len(parts) + 1):
                parent = ".".join(parts[:i])
                if parent not in seen:
                    seen[parent] = name
                    todo.append(parent)
    return seen


def test_guard_resolves_absolute_relative_and_lazy_imports():
    src = ("from engine import fixtures\n"
           "from .objects import parse_objects\n"
           "def f():\n"
           "    import engine.htmlx.parser\n")
    assert engine_imports("engine.pdfx.extract", src) == {
        "engine.fixtures", "engine.pdfx.objects", "engine.htmlx.parser"}


def test_extraction_path_never_imports_fixtures():
    roots = [m for name in EXTRACTION_PATH for m in _package_modules(name)]
    seen = reachable(roots)
    assert "engine.fixtures" not in seen, (
        f"engine.fixtures is imported by {seen.get('engine.fixtures')}, "
        "a module on the extraction path")


def private_ray_imports(source: str) -> set[str]:
    """Every ``ray`` module under an ``_internal`` package that ``source``
    imports, wherever the import statement sits."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            mods = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            mods = [node.module or ""]
            mods += [f"{mods[0]}.{alias.name}" for alias in node.names]
        else:
            continue
        out.update(m for m in mods if m.split(".")[0] == "ray"
                   and "_internal" in m.split("."))
    return out


def test_private_ray_guard_sees_lazy_and_from_imports():
    src = ("import ray.data\n"
           "from ray.data import DataContext\n"
           "def f():\n"
           "    from ray.data._internal.execution.interfaces.task_context "
           "import TaskContext\n"
           "    import ray._private.worker\n"
           "    from ray.data import _internal\n")
    assert private_ray_imports(src) == {
        "ray.data._internal.execution.interfaces.task_context",
        "ray.data._internal.execution.interfaces.task_context.TaskContext",
        "ray.data._internal"}


def test_engine_never_imports_private_ray_modules():
    found = {str(p.relative_to(ROOT)): mods
             for p in sorted(ENGINE.rglob("*.py"))
             if (mods := private_ray_imports(p.read_text()))}
    assert not found, found
