"""H3 — deterministic Markdown serializer with span records (SURVEY.md §2.2 H3).

Reproduces in spirit what MarkItDown's _CustomMarkdownify emits for the
reference (ATX headings, **bold**, *italic*, [text](href), fenced code, '- '
lists with 2-space nesting, pipe tables, blank-line paragraph separation,
whitespace collapse) — rebuilt from scratch with a fully specified, frozen
rule set so golden fixtures are byte-stable (SURVEY.md §7 hard-parts #2).

Spec (frozen):
- Output is blocks joined by exactly one blank line ("\\n\\n").
- Inline whitespace: every run of Unicode whitespace collapses to one space;
  block edges are stripped. <br> becomes a real newline within its block.
- <strong>/<b> → **text**, <em>/<i> → *text* (edge whitespace moved outside
  the markers), <code> → `text`, <a href> → [text](href) (no-href or empty
  text → bare text), <img> → ![alt](src).
- Markdown special characters in text are NOT escaped (frozen decision: the
  goldens own the byte-level truth; escaping would add un-specifiable cases).
- <pre> → ``` fenced block, inner whitespace preserved verbatim.
- <h1>..<h6> → '#'*n + ' ' + inline text on one line.
- <ul>/<ol> → '- ' / '1. ' items, nested lists indented 2 spaces per level.
- <table> → pipe table; first row is the header; '|' in cells → '\\|'.
- <blockquote> → nested blocks each line-prefixed '> '.
- <hr> → '---'.
- Unknown tags are inline-transparent; known containers (div/section/...) are
  block boundaries.

Spans: one record per top-level block: (kind, start, end) — BYTE offsets into
the UTF-8 encoding of markdown_text (SURVEY.md §1.2 "extracted").
"""

from __future__ import annotations

import re

from engine.htmlx.dom import Node

_WS = re.compile(r"\s+")
_NEEDS_COLLAPSE = re.compile(r"[^\S ]|  ")
_BR = "\x00"  # placeholder survives whitespace collapse, then → newline
_BR_RE = re.compile(r" ?\x00+ ?")

HEADINGS = {"h1": 1, "h2": 2, "h3": 3, "h4": 4, "h5": 5, "h6": 6}
BLOCK_CONTAINERS = frozenset(
    "div section article main body header hgroup figure details summary "
    "address center fieldset dl dt dd #root html".split()
)
LIST_TAGS = frozenset({"ul", "ol"})


def _collapse(s: str) -> str:
    # Fast path: if the string contains no whitespace other than single
    # plain spaces, strip() alone suffices — one allocation-free regex
    # search instead of an always-allocating sub. The pattern covers every
    # char \s matches except ' ' itself (incl. \xa0, \x1c-\x1f and the
    # other Unicode spaces), plus double spaces.
    if _NEEDS_COLLAPSE.search(s) is None:
        return s.strip()
    return _WS.sub(" ", s).strip()


def _finalize_inline(s: str) -> str:
    """Collapse whitespace, then turn <br> placeholders into newlines.
    Most blocks carry no <br> placeholder — skip the regex sub (and its
    fresh string) entirely for them; _collapse already stripped."""
    out = _collapse(s)
    if _BR not in out:
        return out
    return _BR_RE.sub("\n", out).strip()


def _wrap(marker: str, inner: str) -> str:
    stripped = inner.strip()
    if not stripped:
        return ""
    lead = " " if inner[:1].isspace() else ""
    trail = " " if inner[-1:].isspace() else ""
    return f"{lead}{marker}{stripped}{marker}{trail}"


def render_inline(item: Node | str) -> str:
    if isinstance(item, str):
        return item
    tag = item.tag
    if tag == "br":
        return _BR
    if tag == "img":
        src = item.attrs.get("src", "")
        alt = item.attrs.get("alt", "")
        return f"![{alt}]({src})" if src else alt
    inner = "".join([render_inline(c) for c in item.children])
    if tag in ("strong", "b"):
        return _wrap("**", inner)
    if tag in ("em", "i"):
        return _wrap("*", inner)
    if tag == "code":
        stripped = _collapse(inner)
        return f"`{stripped}`" if stripped else ""
    if tag == "a":
        text = _collapse(inner)
        href = item.attrs.get("href", "")
        if not text:
            return ""
        return f"[{text}]({href})" if href else text
    return inner


def _raw_text(node: Node | str) -> str:
    if isinstance(node, str):
        return node
    return "".join(_raw_text(c) for c in node.children)


def _render_list(node: Node, depth: int) -> list[str]:
    ordered = node.tag == "ol"
    lines: list[str] = []
    indent = "  " * depth
    index = 0
    for child in node.children:
        if not isinstance(child, Node):
            continue
        if child.tag == "li":
            index += 1
            inline_parts: list[str] = []
            nested: list[str] = []
            for sub in child.children:
                if isinstance(sub, Node) and sub.tag in LIST_TAGS:
                    nested.extend(_render_list(sub, depth + 1))
                else:
                    inline_parts.append(render_inline(sub))
            text = _finalize_inline("".join(inline_parts)).replace("\n", " ")
            marker = f"{index}. " if ordered else "- "
            lines.append(f"{indent}{marker}{text}")
            lines.extend(nested)
        elif child.tag in LIST_TAGS:  # malformed: list directly inside list
            lines.extend(_render_list(child, depth + 1))
    return lines


def _table_rows(node: Node, rows: list[list[str]]) -> list[list[str]]:
    """Append the cell texts of every <tr> below ``node`` to ``rows``."""
    for child in node.children:
        if not isinstance(child, Node):
            continue
        if child.tag == "tr":
            cells = [
                _finalize_inline(
                    "".join(render_inline(c) for c in cell.children)
                ).replace("\n", " ").replace("|", "\\|")
                for cell in child.children
                if isinstance(cell, Node) and cell.tag in ("td", "th")
            ]
            rows.append(cells)
        else:
            _table_rows(child, rows)
    return rows


def _render_table(node: Node) -> str:
    rows = _table_rows(node, [])
    rows = [r for r in rows if r]
    if not rows:
        return ""
    width = max(len(r) for r in rows)
    rows = [r + [""] * (width - len(r)) for r in rows]
    out = ["| " + " | ".join(rows[0]) + " |"]
    out.append("| " + " | ".join(["---"] * width) + " |")
    for r in rows[1:]:
        out.append("| " + " | ".join(r) + " |")
    return "\n".join(out)


class _BlockBuilder:
    def __init__(self):
        self.blocks: list[tuple[str, str]] = []
        self._inline: list[str] = []

    def add_inline(self, s: str) -> None:
        self._inline.append(s)

    def flush(self) -> None:
        if not self._inline:
            return
        text = _finalize_inline("".join(self._inline))
        self._inline.clear()
        if text:
            self.blocks.append(("para", text))

    def add_block(self, kind: str, text: str) -> None:
        self.flush()
        if text:
            self.blocks.append((kind, text))


def _walk(node: Node, out: _BlockBuilder) -> None:
    for child in node.children:
        if isinstance(child, str):
            out.add_inline(child)
            continue
        tag = child.tag
        if tag in HEADINGS:
            level = HEADINGS[tag]
            text = _finalize_inline(
                "".join(render_inline(c) for c in child.children)
            ).replace("\n", " ")
            out.add_block("heading", f"{'#' * level} {text}" if text else "")
        elif tag == "p":
            text = _finalize_inline("".join(render_inline(c) for c in child.children))
            out.add_block("para", text)
        elif tag == "pre":
            code = _raw_text(child).strip("\n")
            out.add_block("code", f"```\n{code}\n```" if code else "")
        elif tag in LIST_TAGS:
            lines = _render_list(child, 0)
            out.add_block("list", "\n".join(lines))
        elif tag == "table":
            out.add_block("table", _render_table(child))
        elif tag == "blockquote":
            inner = _BlockBuilder()
            _walk(child, inner)
            inner.flush()
            body = "\n\n".join(t for _, t in inner.blocks)
            quoted = "\n".join(
                ("> " + line).rstrip() for line in body.split("\n")
            )
            out.add_block("quote", quoted if body else "")
        elif tag == "hr":
            out.add_block("hr", "---")
        elif tag in BLOCK_CONTAINERS or tag in ("li", "tr", "td", "th"):
            out.flush()
            _walk(child, out)
            out.flush()
        else:
            # inline or unknown tag: transparent
            out.add_inline(render_inline(child))


def serialize(content_root: Node) -> tuple[str, list[dict]]:
    """Node tree → (markdown_text, spans). Spans are UTF-8 byte offsets."""
    builder = _BlockBuilder()
    _walk(content_root, builder)
    builder.flush()
    texts = [t for _, t in builder.blocks]
    markdown = "\n\n".join(texts)
    spans: list[dict] = []
    offset = 0
    for kind, text in builder.blocks:
        nbytes = len(text.encode("utf-8"))
        spans.append({"kind": kind, "start": offset, "end": offset + nbytes})
        offset += nbytes + 2  # "\n\n"
    return markdown, spans
