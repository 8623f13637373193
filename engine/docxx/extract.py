"""D1 — DOCX → Node tree (SURVEY.md §2.2 D1).

Parses ``word/document.xml`` from the zip container with xml.etree:
- ``w:p`` paragraphs; ``w:pStyle w:val="HeadingN"`` → <hN>; ``w:numPr`` →
  list items at ``w:ilvl`` depth. Bullet vs ordered is resolved through
  ``word/numbering.xml`` (numId → abstractNum → per-level ``w:numFmt``;
  'bullet' → <ul>, any counted format → <ol>, whose markdown rendering
  emits real ``1.`` counters); when numbering.xml is absent the legacy
  numId-parity heuristic applies (1=bullet, 2=ordered);
- ``w:r`` runs with ``w:b``/``w:i`` → <strong>/<em>;
- ``w:footnoteReference`` → inline ``[^N]`` marker; referenced footnote
  bodies from ``word/footnotes.xml`` are appended as ``[^N]: …``
  paragraphs in first-reference order (markdown footnote convention —
  what mammoth/MarkItDown surface as end-of-document notes);
- headers/footers (word/headerN.xml / footerN.xml) are SKIPPED by policy:
  page furniture repeats per page and would pollute the training text —
  the members are simply never read (pinned by test);
- ``w:tbl``/``w:tr``/``w:tc`` → <table>/<tr>/<td>;
- ``w:br`` → <br>, ``w:tab`` → a space.

The output tree reuses the HTML serializer (engine.mdserialize) unchanged.
"""

from __future__ import annotations

import io
import re
import zipfile
import xml.etree.ElementTree as ET

from engine.htmlx.dom import Node

W = "{http://schemas.openxmlformats.org/wordprocessingml/2006/main}"
WP = "{http://schemas.openxmlformats.org/drawingml/2006/wordprocessingDrawing}"
_CP = "{http://schemas.openxmlformats.org/package/2006/metadata/core-properties}"
_DC = "{http://purl.org/dc/elements/1.1/}"
_HEADING_RE = re.compile(r"^(?:Heading|heading)\s*([1-6])$")


class DocxError(ValueError):
    pass


def _run_to_nodes(run: ET.Element) -> list[Node | str]:
    rpr = run.find(f"{W}rPr")
    bold = italic = False
    if rpr is not None:
        b = rpr.find(f"{W}b")
        i = rpr.find(f"{W}i")
        bold = b is not None and b.get(f"{W}val", "true") not in ("false", "0")
        italic = i is not None and i.get(f"{W}val", "true") not in ("false", "0")
    parts: list[Node | str] = []
    for el in run:
        tag = el.tag
        if tag == f"{W}t":
            parts.append(el.text or "")
        elif tag == f"{W}br":
            parts.append(Node("br"))
        elif tag == f"{W}tab":
            parts.append(" ")
        elif tag == f"{W}footnoteReference":
            fid = el.get(f"{W}id")
            if fid is not None:
                parts.append(f"[^{fid}]")
        elif tag == f"{W}drawing":
            # embedded image → alt text (what mammoth/MarkItDown surfaces,
            # requirements.txt:6 via app/main.py:383): wp:docPr descr, else
            # its name; binary payloads are not decoded (no media libs)
            for docpr in el.iter(f"{WP}docPr"):
                alt = docpr.get("descr") or docpr.get("name") or ""
                if alt:
                    img = Node("img", {"alt": alt})
                    parts.append(img)
                break
    if not parts:
        return []
    if bold or italic:
        inner = parts
        if italic:
            em = Node("em")
            em.children = inner
            inner = [em]
        if bold:
            strong = Node("strong")
            strong.children = inner
            inner = [strong]
        return inner
    return parts


def _para_inline(p: ET.Element) -> list[Node | str]:
    out: list[Node | str] = []
    for child in p:
        if child.tag == f"{W}r":
            out.extend(_run_to_nodes(child))
        elif child.tag == f"{W}hyperlink":
            a = Node("a")  # relationship targets not resolved in the subset
            for run in child.findall(f"{W}r"):
                a.children.extend(_run_to_nodes(run))
            out.append(a)
    return out


def _para_style(p: ET.Element) -> tuple[str | None, int | None, int | None]:
    """Returns (heading_tag, list_ilvl, list_numid)."""
    ppr = p.find(f"{W}pPr")
    if ppr is None:
        return None, None, None
    heading = None
    style = ppr.find(f"{W}pStyle")
    if style is not None:
        m = _HEADING_RE.match(style.get(f"{W}val", ""))
        if m:
            heading = f"h{m.group(1)}"
    numpr = ppr.find(f"{W}numPr")
    ilvl = numid = None
    if numpr is not None:
        lvl = numpr.find(f"{W}ilvl")
        nid = numpr.find(f"{W}numId")
        ilvl = _to_int(lvl.get(f"{W}val", "0")) if lvl is not None else 0
        numid = _to_int(nid.get(f"{W}val", "1")) if nid is not None else 1
        if ilvl is None:  # junk level attr → treat as top level
            ilvl = 0
    return heading, ilvl, numid


def _to_int(s: str | None) -> int | None:
    """Tolerant id parse — the optional-parts contract is 'damage degrades
    to empty, never an error', so junk ids skip their entry instead of
    raising ValueError out of the extraction kernel."""
    try:
        return int(s)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _parse_numbering(xml_bytes: bytes) -> dict[int, dict[int, str]]:
    """word/numbering.xml → {numId: {ilvl: numFmt}}: w:num resolves its
    w:abstractNumId, whose w:lvl entries carry per-level w:numFmt values
    ('bullet' vs counted formats like 'decimal'/'lowerLetter')."""
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError:
        return {}
    abstract: dict[int, dict[int, str]] = {}
    for an in root.findall(f"{W}abstractNum"):
        aid = _to_int(an.get(f"{W}abstractNumId"))
        if aid is None:
            continue
        lvls: dict[int, str] = {}
        for lvl in an.findall(f"{W}lvl"):
            il = _to_int(lvl.get(f"{W}ilvl"))
            fmt = lvl.find(f"{W}numFmt")
            if il is not None and fmt is not None:
                lvls[il] = fmt.get(f"{W}val", "decimal")
        abstract[aid] = lvls
    out: dict[int, dict[int, str]] = {}
    for num in root.findall(f"{W}num"):
        nid = _to_int(num.get(f"{W}numId"))
        ref = num.find(f"{W}abstractNumId")
        if nid is None or ref is None:
            continue
        aid = _to_int(ref.get(f"{W}val"))
        lvls = abstract.get(aid) if aid is not None else None
        if lvls is not None:
            out[nid] = lvls
    return out


def _parse_footnotes(xml_bytes: bytes) -> dict[int, list]:
    """word/footnotes.xml → {id: inline nodes}; the separator /
    continuation pseudo-footnotes (w:type set) are skipped."""
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError:
        return {}
    out: dict[int, list] = {}
    for fn in root.findall(f"{W}footnote"):
        if fn.get(f"{W}type"):
            continue
        fid = _to_int(fn.get(f"{W}id"))
        if fid is None:
            continue
        inline: list = []
        for p in fn.findall(f"{W}p"):
            if inline:
                inline.append(" ")
            inline.extend(_para_inline(p))
        out[fid] = inline
    return out


# Zip-bomb / entity-expansion guards: a tiny payload can declare a multi-GB
# document.xml (checked against ZipInfo.file_size BEFORE reading), and
# xml.etree is documented vulnerable to billion-laughs DTD expansion — OOXML
# never legitimately carries a DTD, so any <!DOCTYPE is rejected outright.
from engine.schema import MAX_FILE_SIZE as _MAX_FILE_SIZE

MAX_DOCUMENT_XML = 4 * _MAX_FILE_SIZE


def _read_member_guarded(zf: zipfile.ZipFile, name: str) -> bytes:
    """Read one zip member with the size-declaration + actual-size guards;
    raises DocxError on violation, KeyError when absent."""
    info = zf.getinfo(name)
    if info.file_size > MAX_DOCUMENT_XML:
        raise DocxError(
            f"{name} declares {info.file_size} bytes (cap {MAX_DOCUMENT_XML})")
    with zf.open(info) as f:
        xml_bytes = f.read(MAX_DOCUMENT_XML + 1)
    if len(xml_bytes) > MAX_DOCUMENT_XML:  # lying zip header
        raise DocxError(f"{name} exceeds size cap")
    if b"<!DOCTYPE" in xml_bytes[:4096]:
        raise DocxError(f"{name} carries a DTD (rejected)")
    return xml_bytes


def _props_from_xml(xml_bytes: bytes) -> dict:
    out = {"title": "", "author": "", "modified_by": ""}
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError:
        return out
    title = root.find(f"{_DC}title")
    creator = root.find(f"{_DC}creator")
    modby = root.find(f"{_CP}lastModifiedBy")
    out["title"] = (title.text or "") if title is not None else ""
    out["author"] = (creator.text or "") if creator is not None else ""
    out["modified_by"] = (modby.text or "") if modby is not None else ""
    return out


def docx_core_properties(data: bytes) -> dict:
    """docProps/core.xml → {'title', 'author', 'modified_by'} (the
    document_metadata surface of the reference architecture doc §6.2; absent
    file or fields → empty strings, never an error)."""
    empty = {"title": "", "author": "", "modified_by": ""}
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            xml_bytes = _read_member_guarded(zf, "docProps/core.xml")
    except (zipfile.BadZipFile, KeyError, OSError, DocxError):
        return empty
    return _props_from_xml(xml_bytes)


def docx_document(data: bytes) -> tuple[Node, dict]:
    """One-pass DOCX read: (body tree, core properties) from a single zip
    open — the hot extraction kernel must not parse the container twice.
    Raises DocxError when document.xml is unreadable; missing/bad core.xml
    degrades to empty properties."""
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            doc_xml = _read_member_guarded(zf, "word/document.xml")
            try:
                core_xml = _read_member_guarded(zf, "docProps/core.xml")
            except (KeyError, DocxError):
                core_xml = None
            numbering, footnotes = _read_optional_parts(zf)
    except (zipfile.BadZipFile, KeyError, OSError) as exc:
        raise DocxError(f"not a DOCX container: {exc}") from exc
    props = _props_from_xml(core_xml) if core_xml is not None else {
        "title": "", "author": "", "modified_by": ""}
    return _tree_from_xml(doc_xml, numbering, footnotes), props


def _read_optional_parts(zf: zipfile.ZipFile):
    """(numbering map, footnote map) from their optional members; any
    absence/damage degrades to empty — never an error. Headers/footers are
    deliberately NOT on this list (skip policy, module docstring)."""
    numbering: dict = {}
    footnotes: dict = {}
    try:
        numbering = _parse_numbering(
            _read_member_guarded(zf, "word/numbering.xml"))
    except (KeyError, DocxError):
        pass
    try:
        footnotes = _parse_footnotes(
            _read_member_guarded(zf, "word/footnotes.xml"))
    except (KeyError, DocxError):
        pass
    return numbering, footnotes


def docx_to_tree(data: bytes) -> Node:
    """DOCX bytes → Node tree rooted at <body>. Raises DocxError when the zip
    or document.xml is unreadable (per-row failed status for the caller)."""
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            xml_bytes = _read_member_guarded(zf, "word/document.xml")
            numbering, footnotes = _read_optional_parts(zf)
    except (zipfile.BadZipFile, KeyError, OSError) as exc:
        raise DocxError(f"not a DOCX container: {exc}") from exc
    return _tree_from_xml(xml_bytes, numbering, footnotes)


def _tree_from_xml(xml_bytes: bytes,
                   numbering: dict[int, dict[int, str]] | None = None,
                   footnotes: dict[int, list] | None = None) -> Node:
    try:
        root = ET.fromstring(xml_bytes)
    except ET.ParseError as exc:
        raise DocxError(f"bad document.xml: {exc}") from exc

    body_el = root.find(f"{W}body")
    body = Node("body")
    if body_el is None:
        return body

    # open list containers: [(ul/ol Node, ilvl)]
    list_stack: list[tuple[Node, int]] = []

    def append_block(node: Node) -> None:
        list_stack.clear()
        body.children.append(node)

    for el in body_el:
        if el.tag == f"{W}p":
            heading, ilvl, numid = _para_style(el)
            inline = _para_inline(el)
            if heading:
                h = Node(heading)
                h.children = inline
                append_block(h)
            elif ilvl is not None:
                fmts = numbering.get(numid) if numbering and \
                    numid is not None else None
                if fmts is not None:
                    fmt = fmts.get(ilvl)
                    if fmt is None and fmts:
                        # deeper level than defined → nearest shallower
                        lower = [k for k in fmts if k <= ilvl]
                        fmt = fmts[max(lower)] if lower else "decimal"
                    tag = "ul" if fmt == "bullet" else "ol"
                else:  # no numbering.xml: legacy parity heuristic
                    tag = "ol" if (numid is not None and numid % 2 == 0) \
                        else "ul"
                # find/open the list container at this level
                while list_stack and list_stack[-1][1] > ilvl:
                    list_stack.pop()
                if not list_stack or list_stack[-1][1] < ilvl or list_stack[-1][0].tag != tag:
                    new_list = Node(tag)
                    if list_stack and list_stack[-1][1] < ilvl:
                        # nest under the last <li> of the parent list
                        parent_list = list_stack[-1][0]
                        if parent_list.children and isinstance(parent_list.children[-1], Node):
                            parent_list.children[-1].children.append(new_list)
                        else:
                            body.children.append(new_list)
                    else:
                        if list_stack and list_stack[-1][0].tag != tag and list_stack[-1][1] == ilvl:
                            list_stack.pop()
                        body.children.append(new_list)
                    list_stack.append((new_list, ilvl))
                li = Node("li")
                li.children = inline
                list_stack[-1][0].children.append(li)
            else:
                p = Node("p")
                p.children = inline
                append_block(p)
        elif el.tag == f"{W}tbl":
            table = Node("table")
            for tr_el in el.findall(f"{W}tr"):
                tr = Node("tr")
                for tc_el in tr_el.findall(f"{W}tc"):
                    td = Node("td")
                    for p_el in tc_el.findall(f"{W}p"):
                        td.children.extend(_para_inline(p_el))
                        td.children.append(" ")
                    if td.children and td.children[-1] == " ":
                        td.children.pop()
                    tr.children.append(td)
                table.children.append(tr)
            append_block(table)

    if footnotes:
        # referenced footnotes only, in first-reference order, as
        # markdown-convention "[^N]: …" paragraphs at the document end
        seen: list[int] = []
        for ref in body_el.iter(f"{W}footnoteReference"):
            fid = _to_int(ref.get(f"{W}id"))
            if fid is not None and fid in footnotes and fid not in seen:
                seen.append(fid)
        for fid in seen:
            p = Node("p")
            p.children = [f"[^{fid}]: "] + list(footnotes[fid])
            body.children.append(p)
    return body
