"""H2 — readability-style boilerplate strip over the Node tree.

The reference (via MarkItDown's HtmlConverter) only drops <script>/<style>;
the north_star upgrades this to text-density heuristics that strip nav/footer/
ads/link-farms (SURVEY.md §2.2 H2). All thresholds are frozen named constants
so goldens stay byte-stable (SURVEY.md §7 "hard parts" #3).

Deterministic pipeline (applied in this exact order):
  1. DROP_ALWAYS tags removed everywhere (incl. <head> minus nothing — title is
     extracted separately before stripping).
  2. Elements whose class/id matches UNLIKELY_RE (and not MAYBE_RE) removed.
  3. Content root selected: first <main>, else first <article>, else <body>,
     else the whole tree.
  4. Bottom-up link-density prune of PRUNABLE containers: a container whose
     link density exceeds LINK_DENSITY_MAX is dropped (link farms, nav bars,
     "related posts" blocks), as is a container with no text and no media.
"""

from __future__ import annotations

import re

from engine.htmlx.dom import Node, link_text_len, text_len

DROP_ALWAYS = frozenset(
    "script style noscript template iframe svg canvas object embed applet "
    "form button select option textarea label nav footer aside".split()
)

UNLIKELY_RE = re.compile(
    r"(^|[-_ ])(nav|navbar|menu|sidebar|side-bar|footer|banner|ads?|advert\w*|"
    r"cookie\w*|popup|modal|social|share|sharing|comment\w*|breadcrumbs?|"
    r"related|promo\w*|sponsor\w*|widget|pagination|masthead)([-_ ]|$)",
    re.IGNORECASE,
)
MAYBE_RE = re.compile(
    r"(^|[-_ ])(article|body|main|content|column|post|text|entry)([-_ ]|$)",
    re.IGNORECASE,
)

# density pruning applies to containers only (readability cleanConditionally
# analog); <p>/<span>/<header> are pruned only when empty.
DENSITY_PRUNABLE = frozenset("div section ul ol table dl".split())
EMPTY_PRUNABLE = DENSITY_PRUNABLE | frozenset("p span header".split())
MEDIA = frozenset("img picture video audio".split())

LINK_DENSITY_MAX = 0.55  # frozen: > this fraction of link text → boilerplate
MIN_KEEP_TEXT = 0  # containers with text_len == 0 and no media are dropped


def _class_id(node: Node) -> str:
    return (node.attrs.get("class", "") + " " + node.attrs.get("id", "")).strip()


def _has_media(node: Node) -> bool:
    if node.tag in MEDIA:
        return True
    return any(isinstance(c, Node) and _has_media(c) for c in node.children)


def _drop_pass(node: Node) -> None:
    # lazy kept-list: most nodes drop nothing, so no replacement list (and
    # its per-child appends) is allocated until the first actual drop —
    # this pass runs over every node of every page (bytes/page matters at
    # the 32-proc memory-bandwidth ceiling, BASELINE.md)
    kept: list | None = None
    children = node.children
    for i, child in enumerate(children):
        drop = False
        if isinstance(child, Node):
            if child.tag in DROP_ALWAYS:
                drop = True
            elif child.attrs:  # most nodes carry no attrs — skip the concat
                cid = _class_id(child)
                if cid and UNLIKELY_RE.search(cid) \
                        and not MAYBE_RE.search(cid):
                    drop = True
            if not drop:
                _drop_pass(child)
        if drop:
            if kept is None:
                kept = children[:i]
        elif kept is not None:
            kept.append(child)
    if kept is not None:
        node.children = kept


def _nonws_len(s: str) -> int:
    """Non-whitespace char count (C-speed via str.split)."""
    return sum(map(len, s.split()))


def _prune_pass(node: Node) -> tuple[bool, int, int]:
    """Bottom-up link-density prune in ONE pass.

    Returns (keep, text_len, link_text_len) for the subtree — computing the
    densities incrementally instead of re-walking subtrees keeps the strip
    O(n) on giant pages (the 20 MiB skew rows of FIXTURES.md F1d).
    """
    tlen = 0
    llen = 0
    kept: list | None = None  # lazy: see _drop_pass
    children = node.children
    for i, child in enumerate(children):
        if isinstance(child, str):
            tlen += _nonws_len(child)
            if kept is not None:
                kept.append(child)
            continue
        keep, ct, cl = _prune_pass(child)
        if not keep:
            if kept is None:
                kept = children[:i]
            continue
        if kept is not None:
            kept.append(child)
        tlen += ct
        llen += ct if child.tag == "a" else cl
    if kept is not None:
        node.children = kept

    if node.tag in EMPTY_PRUNABLE and tlen <= MIN_KEEP_TEXT and not _has_media(node):
        return False, 0, 0
    if node.tag in DENSITY_PRUNABLE and tlen > 0 and (llen / tlen) > LINK_DENSITY_MAX:
        return False, 0, 0
    return True, tlen, llen


_ROOT_TAGS = ("main", "article", "body")


def _first_roots(node: Node, first: dict[str, Node]) -> bool:
    """Record in ``first`` the first document-order descendant of ``node``
    with each _ROOT_TAGS tag; True → <main> found, stop early."""
    for c in node.children:
        if isinstance(c, Node):
            t = c.tag
            if t in _ROOT_TAGS and t not in first:
                first[t] = c
                if t == "main":
                    return True
            if _first_roots(c, first):
                return True
    return False


def select_content_root(root: Node) -> Node:
    """First <main>, else first <article>, else <body>, else the tree root.
    ONE DFS records the first document-order occurrence of each candidate
    (three find_first calls walked the whole tree per absent tag)."""
    first: dict[str, Node] = {}
    if root.tag in _ROOT_TAGS:
        first[root.tag] = root
    if "main" not in first:
        _first_roots(root, first)
    for tag in _ROOT_TAGS:
        if tag in first:
            return first[tag]
    return root


def strip_boilerplate(root: Node) -> Node:
    """Run the full strip pipeline in place; returns the content root."""
    _drop_pass(root)
    content = select_content_root(root)
    _prune_pass(content)
    return content
