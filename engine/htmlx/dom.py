"""Lightweight DOM: a Node tree whose children are Node | str.

Small on purpose — one row's tree lives only for the duration of one kernel
call inside an extract_batch task; millions are built per task, so no parent
pointers (O(1) GC), __slots__, and plain strings for text.
"""

from __future__ import annotations


_EMPTY_ATTRS: dict = {}  # shared: no code path mutates node.attrs in place


class Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs = attrs or _EMPTY_ATTRS
        self.children: list[Node | str] = []

    def __repr__(self) -> str:  # debug only
        return f"<{self.tag} n={len(self.children)}>"

    def find_first(self, *tags: str) -> "Node | None":
        """Depth-first search for the first element with one of ``tags``."""
        for child in self.children:
            if isinstance(child, Node):
                if child.tag in tags:
                    return child
                found = child.find_first(*tags)
                if found is not None:
                    return found
        return None

    def iter_text(self):
        for child in self.children:
            if isinstance(child, str):
                yield child
            else:
                yield from child.iter_text()


def is_node(x) -> bool:
    return isinstance(x, Node)


def text_len(node: Node | str) -> int:
    """Total non-whitespace text chars in the subtree."""
    if isinstance(node, str):
        return sum(1 for c in node if not c.isspace())
    return sum(text_len(c) for c in node.children)


def link_text_len(node: Node | str) -> int:
    """Non-whitespace text chars inside <a> subtrees."""
    if isinstance(node, str):
        return 0
    if node.tag == "a":
        return text_len(node)
    return sum(link_text_len(c) for c in node.children)
