"""Structured table extraction tests (engine/tables.py).

Pins the grid-placement algorithm (colspan/rowspan reservation, first-free-
column cursor), nested-table exclusion/ordinals, header flags, whitespace
collapse, hostile span attrs, and Ray parallelism invariance.
"""

from __future__ import annotations

import gc

import pyarrow as pa
import ray.data as rd

from engine.fixtures import gen_pages_table
from engine.tables import _tables_from_batch, extract_tables


def _cells(html: str, url: str = "u"):
    t = pa.table({"url": [url], "html": [html]})
    out = _tables_from_batch(t, "url", "html")
    return [
        (r["table_idx"], r["row_idx"], r["col_idx"], r["rowspan"],
         r["colspan"], r["is_header"], r["text"])
        for r in out.to_pylist()
    ]


def test_simple_grid_with_thead():
    html = ("<table><thead><tr><th>A</th><th>B</th></tr></thead>"
            "<tbody><tr><td>1</td><td>2</td></tr>"
            "<tr><td>3</td><td>4</td></tr></tbody></table>")
    assert _cells(html) == [
        (0, 0, 0, 1, 1, True, "A"), (0, 0, 1, 1, 1, True, "B"),
        (0, 1, 0, 1, 1, False, "1"), (0, 1, 1, 1, 1, False, "2"),
        (0, 2, 0, 1, 1, False, "3"), (0, 2, 1, 1, 1, False, "4"),
    ]


def test_colspan_advances_cursor():
    html = ('<table><tr><td colspan="2">wide</td><td>c</td></tr>'
            "<tr><td>x</td><td>y</td><td>z</td></tr></table>")
    assert _cells(html) == [
        (0, 0, 0, 1, 2, False, "wide"), (0, 0, 2, 1, 1, False, "c"),
        (0, 1, 0, 1, 1, False, "x"), (0, 1, 1, 1, 1, False, "y"),
        (0, 1, 2, 1, 1, False, "z"),
    ]


def test_rowspan_reserves_slot_in_later_rows():
    # cell(0,0) spans 2 rows: row 1's first td must land at col 1
    html = ('<table><tr><td rowspan="2">tall</td><td>b</td></tr>'
            "<tr><td>c</td></tr><tr><td>d</td></tr></table>")
    assert _cells(html) == [
        (0, 0, 0, 2, 1, False, "tall"), (0, 0, 1, 1, 1, False, "b"),
        (0, 1, 1, 1, 1, False, "c"),
        (0, 2, 0, 1, 1, False, "d"),
    ]


def test_rowspan_and_colspan_block():
    # 2x2 block at (0,1): row 1's cells go to col 0 then col 3
    html = ('<table><tr><td>a</td><td rowspan="2" colspan="2">blk</td>'
            "<td>b</td></tr>"
            "<tr><td>c</td><td>d</td></tr></table>")
    assert _cells(html) == [
        (0, 0, 0, 1, 1, False, "a"), (0, 0, 1, 2, 2, False, "blk"),
        (0, 0, 3, 1, 1, False, "b"),
        (0, 1, 0, 1, 1, False, "c"), (0, 1, 3, 1, 1, False, "d"),
    ]


def test_nested_table_own_ordinal_text_excluded():
    html = ("<table><tr><td>outer "
            "<table><tr><td>inner</td></tr></table>"
            " tail</td></tr></table>"
            "<table><tr><td>second</td></tr></table>")
    assert _cells(html) == [
        (0, 0, 0, 1, 1, False, "outer tail"),
        (1, 0, 0, 1, 1, False, "inner"),
        (2, 0, 0, 1, 1, False, "second"),
    ]


def test_hostile_and_invalid_spans():
    html = ('<table><tr><td colspan="0">z</td><td colspan="nan">n</td>'
            '<td rowspan="999999">big</td></tr></table>')
    got = _cells(html)
    assert got[0][4] == 1 and got[1][4] == 1  # 0 / non-numeric -> 1
    assert got[2][3] == 1000  # clamped to the HTML5 cap


def test_whitespace_collapse_and_markup_in_cells():
    html = ("<table><tr><td>  a\n\t<b>bold</b>   c </td></tr></table>")
    assert _cells(html)[0][6] == "a bold c"


def test_no_tables_and_null_html():
    t = pa.table({"url": ["a", "b"],
                  "html": ["<p>plain</p>", None]})
    assert _tables_from_batch(t, "url", "html").num_rows == 0


def test_tables_from_batch_leaves_no_cyclic_garbage():
    """Refcounting frees each page's tree and table list (the premise of
    the raised gen-0 GC threshold, see engine/extract.py)."""
    nested = ("<table><tr><td>outer <table><tr><td>inner</td></tr></table>"
              "</td></tr></table><table><tr><th>second</th></tr></table>")
    assert len(_cells(nested)) == 3  # warm-up
    gc.collect()
    pages = gen_pages_table(200, seed=42)
    htmls = [nested] + pages["html"].to_pylist()
    n_cells = 0
    for i, html in enumerate(htmls):
        out = _tables_from_batch(pa.table({"url": ["u"], "html": [html]}),
                                 "url", "html")
        n_cells += out.num_rows
        assert gc.collect() == 0, i
    assert n_cells > 3


def test_ray_parallelism_invariance(ray_session):
    pages = []
    for i in range(60):
        pages.append({
            "url": f"https://t.ex/{i}",
            "html": (f'<table><tr><th>H</th></tr><tr><td rowspan="2">s{i}'
                     f"</td><td>v{i}</td></tr><tr><td>w{i}</td></tr>"
                     "</table>")})
    expected = None
    for par in (1, 7):
        ds = rd.from_items(pages, override_num_blocks=par)
        got = (extract_tables(ds, batch_size=13).to_pandas()
               .sort_values(["url", "table_idx", "row_idx", "col_idx"])
               .reset_index(drop=True))
        if expected is None:
            expected = got
        else:
            assert got.equals(expected)
    assert len(expected) == 60 * 4
