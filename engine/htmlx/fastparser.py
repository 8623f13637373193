"""H1 (fast path) — regex-scanner HTML tokenizer producing the same Node tree
as engine.htmlx.parser (the stdlib html.parser build), ~2× faster.

Same tolerance contract: unclosed tags auto-close, stray end tags are
ignored, unquoted attributes parse, character references decode in text and
attribute values (html.unescape — the same html5 table html.parser uses),
script/style bodies are raw text, a lone '<' that opens no tag is literal
text. Equivalence with the stdlib build is enforced by
tests/test_fastparser.py over the golden corpus + the htmlx unit cases.

Why not stdlib: html.parser's goahead() pays per-chunk regex scans,
updatepos bookkeeping and per-callback dispatch that dominate the extraction
kernel profile; this scanner does one find('<') + one match per tag.
"""

from __future__ import annotations

import re
from html import unescape

from engine.htmlx.charset import decode_html
from engine.htmlx.dom import Node
from engine.htmlx.parser import VOID_ELEMENTS, _IMPLICIT_CLOSE, _P_CLOSERS

_STARTTAG_RE = re.compile(
    r"<([a-zA-Z][a-zA-Z0-9:_.-]*)"  # tag name
    r"((?:\s+[^\s/>=]+(?:\s*=\s*(?:\"[^\"]*\"|'[^']*'|[^\s>]*))?)*)"  # attrs
    r"\s*(/?)\s*>"
)
_ENDTAG_RE = re.compile(r"</([a-zA-Z][a-zA-Z0-9:_.-]*)\s*>")
_ATTR_RE = re.compile(
    r"([^\s/>=]+)(?:\s*=\s*(\"[^\"]*\"|'[^']*'|[^\s>]*))?"
)
_RAWTEXT_CLOSE = {
    "script": re.compile(r"</script\s*>", re.IGNORECASE),
    "style": re.compile(r"</style\s*>", re.IGNORECASE),
}
_P_ONLY = frozenset({"p"})
_NO_BARRIER: frozenset = frozenset()


def _parse_attrs(attr_str: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for m in _ATTR_RE.finditer(attr_str):
        name = m.group(1).lower()
        val = m.group(2)
        if val is None:
            val = ""
        elif val[:1] in ("'", '"'):
            val = val[1:-1]
        if "&" in val:
            val = unescape(val)
        attrs.setdefault(name, val)
    return attrs


def parse_html_fast(payload: bytes | str) -> Node:
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = decode_html(payload)  # BOM → meta prescan → utf-8
    if "\x00" in payload:  # HTML spec: NUL → U+FFFD (and keeps the <br>
        payload = payload.replace("\x00", "�")  # placeholder byte safe)

    s = payload
    n = len(s)
    root = Node("#root")
    stack: list[Node] = [root]

    def close_implicit(closers: frozenset, barriers: frozenset) -> None:
        for i in range(len(stack) - 1, 0, -1):
            tag = stack[i].tag
            if tag in barriers:
                return
            if tag in closers:
                del stack[i:]
                return

    def add_text(text: str) -> None:
        if text:
            if "&" in text:
                text = unescape(text)
            stack[-1].children.append(text)

    pos = 0
    while pos < n:
        lt = s.find("<", pos)
        if lt < 0:
            add_text(s[pos:])
            break
        if lt > pos:
            add_text(s[pos:lt])
        nxt = s[lt + 1 : lt + 2]
        # Incomplete-construct rule (frozen): when a construct cannot
        # complete (no closing delimiter), emit a literal '<' and rescan from
        # the next char — identical to html.parser for every construct
        # truncated at EOF; deviates (deliberately, documented) from
        # html.parser's consume-through-'>' heuristics only on degenerate
        # inputs like '<a href="x<b>'.
        if nxt == "/":
            m = _ENDTAG_RE.match(s, lt)
            if m:
                tag = m.group(1).lower()
                if tag not in VOID_ELEMENTS:
                    for i in range(len(stack) - 1, 0, -1):
                        if stack[i].tag == tag:
                            del stack[i:]
                            break
                pos = m.end()
            else:
                gt = s.find(">", lt)
                if gt < 0:
                    add_text("<")
                    pos = lt + 1
                else:  # bogus end tag (e.g. '</ x>'): discarded like stdlib
                    pos = gt + 1
        elif nxt == "!":
            if s.startswith("<!--", lt):
                end = s.find("-->", lt + 4)
                if end < 0:
                    add_text("<")
                    pos = lt + 1
                else:
                    pos = end + 3
            else:  # doctype / declaration
                gt = s.find(">", lt)
                if gt < 0:
                    add_text("<")
                    pos = lt + 1
                else:
                    pos = gt + 1
        elif nxt == "?":
            gt = s.find(">", lt)
            if gt < 0:
                add_text("<")
                pos = lt + 1
            else:
                pos = gt + 1
        elif nxt.isalpha():
            m = _STARTTAG_RE.match(s, lt)
            if not m:  # malformed/unterminated open tag: literal '<'
                add_text("<")
                pos = lt + 1
                continue
            tag = m.group(1)
            if not tag.islower():  # avoid the unconditional .lower() alloc
                tag = tag.lower()
            attr_str = m.group(2)
            self_closing = m.group(3) == "/"
            pos = m.end()

            if tag in _P_CLOSERS:
                close_implicit(_P_ONLY, _NO_BARRIER)
            rule = _IMPLICIT_CLOSE.get(tag)
            if rule:
                close_implicit(*rule)

            node = Node(tag, _parse_attrs(attr_str)
                        if attr_str and not attr_str.isspace() else {})
            stack[-1].children.append(node)
            if self_closing or tag in VOID_ELEMENTS:
                continue
            raw = _RAWTEXT_CLOSE.get(tag)
            if raw is not None:
                mm = raw.search(s, pos)
                if mm:
                    if mm.start() > pos:
                        node.children.append(s[pos : mm.start()])  # no unescape
                    pos = mm.end()
                else:
                    if pos < n:
                        node.children.append(s[pos:])
                    pos = n
                continue
            stack.append(node)
        else:  # '<' followed by non-tag char: literal text
            add_text("<")
            pos = lt + 1
    return root
