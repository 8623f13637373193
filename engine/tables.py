"""Structured HTML-table extraction: pages -> (url, table, row, col, cell).

The reference serializes ``<table>`` into a markdown grid per document
(reference app/main.py via MarkItDown's table converter; our serializer twin
at engine/mdserialize.py:139-240) — a rendering that throws away the grid
coordinates and span structure. At corpus scale the table DATA is the
product: long-format (url, table_idx, row_idx, col_idx, text) rows feed
table-QA corpus mining, entity extraction and table-to-text training sets.

Design (100 TB shape):
- Map-side only, ZERO shuffle: every table of a document lives in that
  document's html, so parse, grid placement and text assembly happen inside
  one ``map_batches`` pass; only the narrow long-format cell rows leave the
  stage. This is a parse kernel like the extraction kernel itself
  (engine/extract.py): per-document DOM walk on the warm fastparser, NOT a
  per-row anti-pattern — the document is the unit of work.
- Grid semantics (HTML5 table-processing subset):
  * tables are emitted in pre-order document order (``table_idx``); a
    nested table gets its OWN ordinal and its content is EXCLUDED from the
    enclosing cell's text.
  * rows are the ``tr`` descendants of the table (through thead/tbody/
    tfoot or any non-table wrapper), in document order; cells are their
    direct ``td``/``th`` children.
  * each cell is placed at the first column of its row not occupied by a
    span from an earlier cell; ``colspan``/``rowspan`` reserve the covered
    grid slots (invalid / zero / missing span attrs -> 1; spans clamped to
    1000, the HTML5 cap, so a hostile attr can't allocate an unbounded
    occupancy grid).
  * one output row per ORIGIN cell (spans recorded, covered slots not
    duplicated); ``is_header`` is ``tag == 'th'``.
  * cell text is the subtree text (minus nested tables) with runs of
    whitespace collapsed to single spaces and stripped — Python
    ``' '.join(text.split())`` semantics.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data

from engine.htmlx import parse_html
from engine.htmlx.dom import Node

_CELL_SCHEMA = pa.schema([
    ("url", pa.string()),
    ("table_idx", pa.int64()),
    ("row_idx", pa.int64()),
    ("col_idx", pa.int64()),
    ("rowspan", pa.int64()),
    ("colspan", pa.int64()),
    ("is_header", pa.bool_()),
    ("text", pa.string()),
])

_SPAN_CAP = 1000  # HTML5 clamps colspan/rowspan to 1000


def _span(attrs: dict, key: str) -> int:
    raw = attrs.get(key)
    if raw is None:
        return 1
    try:
        v = int(raw.strip())
    except (ValueError, AttributeError):
        return 1
    if v < 1:
        return 1
    return min(v, _SPAN_CAP)


def _text_parts(node: Node, parts: list[str]) -> list[str]:
    """Append the subtree's text to ``parts``, excluding nested tables
    (they are their own table_idx)."""
    for child in node.children:
        if isinstance(child, str):
            parts.append(child)
        elif child.tag != "table":
            _text_parts(child, parts)
    return parts


def _cell_text(node: Node) -> str:
    return " ".join("".join(_text_parts(node, [])).split())


def _table_trs(node: Node, rows: list[Node]) -> list[Node]:
    """Append the tr descendants of ``node`` to ``rows`` in document order,
    stopping at nested tables (their rows belong to their own ordinal)."""
    for child in node.children:
        if not isinstance(child, Node) or child.tag == "table":
            continue
        if child.tag == "tr":
            rows.append(child)
        else:
            _table_trs(child, rows)
    return rows


def _find_tables(node: Node, found: list[Node]) -> list[Node]:
    """Append all table nodes below ``node`` to ``found`` in pre-order
    (nested tables AFTER their ancestor)."""
    for child in node.children:
        if isinstance(child, Node):
            if child.tag == "table":
                found.append(child)
            _find_tables(child, found)
    return found


def _emit_table(url: str, t_idx: int, table: Node, out: dict) -> None:
    # occupied[r] = set of columns reserved by rowspans from earlier rows
    occupied: dict[int, set[int]] = {}
    for r_idx, tr in enumerate(_table_trs(table, [])):
        row_occ = occupied.pop(r_idx, set())
        col = 0
        for cell in tr.children:
            if not isinstance(cell, Node) or cell.tag not in ("td", "th"):
                continue
            while col in row_occ:
                col += 1
            cs, rs = _span(cell.attrs, "colspan"), _span(cell.attrs, "rowspan")
            for dr in range(rs):
                tgt = row_occ if dr == 0 else occupied.setdefault(
                    r_idx + dr, set())
                tgt.update(range(col, col + cs))
            out["url"].append(url)
            out["table_idx"].append(t_idx)
            out["row_idx"].append(r_idx)
            out["col_idx"].append(col)
            out["rowspan"].append(rs)
            out["colspan"].append(cs)
            out["is_header"].append(cell.tag == "th")
            out["text"].append(_cell_text(cell))
            col += cs


def _tables_from_batch(t: pa.Table, url_col: str, html_col: str) -> pa.Table:
    urls = t[url_col].to_pylist()
    htmls = t[html_col].to_pylist()
    out: dict[str, list] = {f.name: [] for f in _CELL_SCHEMA}
    for url, html in zip(urls, htmls):
        if html is None:
            continue
        try:
            root = parse_html(html)
        except Exception:
            continue  # unparseable page contributes no cells (error channel
            # for page-level failures lives in engine/extract.py)
        for t_idx, table in enumerate(_find_tables(root, [])):
            _emit_table(url, t_idx, table, out)
    return pa.table(
        {name: pa.array(vals, type=_CELL_SCHEMA.field(name).type)
         for name, vals in out.items()})


def extract_tables(ds: "ray.data.Dataset", url_col: str = "url",
                   html_col: str = "html", *,
                   batch_size: int = 256) -> "ray.data.Dataset":
    """Long-format table cells for every page. Stateless-task map_batches
    (no actor pool: the parser holds no per-actor state and stateless tasks
    are ~3x faster here, see CLAUDE.md)."""
    return ds.map_batches(
        lambda t: _tables_from_batch(t, url_col, html_col),
        batch_format="pyarrow", batch_size=batch_size)
