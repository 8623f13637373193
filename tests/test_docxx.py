"""DOCX path tests (D1): headings, runs, lists, tables, failure modes."""

from __future__ import annotations

import random

import pytest

from engine.docxx import DocxError, docx_to_tree
from engine.fixtures import build_docx, make_docx, make_pathological, _w_p
from engine.mdserialize import serialize


def md_of_docx(data: bytes) -> str:
    return serialize(docx_to_tree(data))[0]


def test_heading_styles():
    doc = build_docx(_w_p([("Title", False, False)], style="Heading1")
                     + _w_p([("Sub", False, False)], style="Heading3"))
    assert md_of_docx(doc) == "# Title\n\n### Sub"


def test_bold_italic_runs():
    doc = build_docx(_w_p([("plain ", False, False), ("bold", True, False),
                           (" mix", False, True)]))
    assert md_of_docx(doc) == "plain **bold** *mix*"


def test_bullet_list_with_nesting():
    doc = build_docx(
        _w_p([("top", False, False)], numpr=(0, 1))
        + _w_p([("nested", False, False)], numpr=(1, 1))
        + _w_p([("top2", False, False)], numpr=(0, 1))
    )
    assert md_of_docx(doc) == "- top\n  - nested\n- top2"


def test_ordered_list():
    doc = build_docx(_w_p([("a", False, False)], numpr=(0, 2))
                     + _w_p([("b", False, False)], numpr=(0, 2)))
    assert md_of_docx(doc) == "1. a\n2. b"


def test_table():
    rows = "".join(
        "<w:tr>" + "".join(
            f"<w:tc>{_w_p([(f'r{r}c{c}', False, False)])}</w:tc>" for c in range(2)
        ) + "</w:tr>"
        for r in range(2)
    )
    doc = build_docx(f"<w:tbl>{rows}</w:tbl>")
    assert md_of_docx(doc) == "| r0c0 | r0c1 |\n| --- | --- |\n| r1c0 | r1c1 |"


def test_xml_escaping_roundtrip():
    doc = build_docx(_w_p([("a < b & c > d", False, False)]))
    assert md_of_docx(doc) == "a < b & c > d"


def test_not_a_docx_zip_raises():
    with pytest.raises(DocxError):
        docx_to_tree(make_pathological(random.Random(0), 4)[0])


def test_corrupt_zip_raises():
    with pytest.raises(DocxError):
        docx_to_tree(b"PK\x03\x04 not really a zip")


def test_generator_variants_roundtrip():
    for v in range(3):
        doc, _src = make_docx(random.Random(v), v)
        md = md_of_docx(doc)
        assert md.startswith("# ")


def test_docx_zip_bomb_and_dtd_rejected():
    """Oversized document.xml and DTD-carrying payloads raise DocxError
    (ADVICE: zip-bomb / billion-laughs guards)."""
    import io
    import zipfile

    import pytest

    from engine.docxx import extract as dx

    def make(xml_bytes):
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("word/document.xml", xml_bytes)
        return buf.getvalue()

    big = make(b"<w:document>" + b" " * (dx.MAX_DOCUMENT_XML + 1))
    with pytest.raises(dx.DocxError):
        dx.docx_to_tree(big)

    dtd = make(b'<?xml version="1.0"?><!DOCTYPE x [<!ENTITY a "b">]>'
               b"<doc>&a;</doc>")
    with pytest.raises(dx.DocxError):
        dx.docx_to_tree(dtd)


def test_docx_core_properties_and_image_alt():
    import random as _random

    from engine.docxx import docx_core_properties
    from engine.extract import extract_row
    from engine.fixtures import build_docx, make_docx, _w_p, _w_drawing

    payload = build_docx(
        _w_p([("body text ", False, False)])[:-6] + _w_drawing("a chart") + "</w:p>",
        core_title="Core Title", core_creator="An Author")
    props = docx_core_properties(payload)
    assert props == {"title": "Core Title", "author": "An Author",
                     "modified_by": ""}
    row = extract_row(payload)
    assert row["status"] == "ok"
    assert row["title"] == "Core Title"  # core.xml wins over headings
    assert "a chart" in row["markdown_text"]  # image surfaced as alt text

    # no core.xml → unchanged legacy behavior (first heading)
    pdf, _ = make_docx(_random.Random(0), 0)
    r2 = extract_row(pdf)
    assert r2["status"] == "ok" and r2["title"] != ""

    # generator variant 3 round-trips
    payload3, text3 = make_docx(_random.Random(3), 3)
    r3 = extract_row(payload3)
    assert r3["status"] == "ok"
    for word in text3.split()[:4]:
        assert word in r3["markdown_text"] or word in r3["title"]


def test_numbering_xml_resolution():
    """numbering.xml decides bullet vs ordered regardless of numId parity:
    numId 7 (odd — parity would say bullet) maps to decimal → '1.' items;
    numId 4 (even — parity would say ordered) maps to bullet → '-' items."""
    from engine.fixtures import build_docx, _w_numbering, _w_p

    body = (
        _w_p([("first ordered", False, False)], numpr=(0, 7))
        + _w_p([("second ordered", False, False)], numpr=(0, 7))
        + _w_p([("a bullet", False, False)], numpr=(0, 4))
    )
    payload = build_docx(body, numbering_xml=_w_numbering(
        {7: "decimal", 4: "bullet"}))
    md = md_of_docx(payload)
    assert "1. first ordered" in md
    assert "2. second ordered" in md
    assert "- a bullet" in md
    # without numbering.xml the parity heuristic still applies
    md2 = md_of_docx(build_docx(body))
    assert "- first ordered" in md2  # numId 7 odd → bullet under parity


def test_footnotes_extracted_in_reference_order():
    from engine.fixtures import (build_docx, _w_footnote_ref, _w_footnotes,
                                 _w_p)

    body = (
        _w_p([("alpha ", False, False)])[:-6] + _w_footnote_ref(2) + "</w:p>"
        + _w_p([("beta ", False, False)])[:-6] + _w_footnote_ref(1) + "</w:p>"
    )
    payload = build_docx(body, footnotes_xml=_w_footnotes(
        {1: "note one text", 2: "note two text"}))
    md = md_of_docx(payload)
    assert "alpha [^2]" in md and "beta [^1]" in md
    # definitions appended in FIRST-REFERENCE order (2 before 1)
    assert md.index("[^2]: note two text") < md.index("[^1]: note one text")
    # unreferenced footnotes and pseudo-footnotes never appear
    payload2 = build_docx(_w_p([("plain", False, False)]),
                          footnotes_xml=_w_footnotes({9: "orphan note"}))
    assert "orphan" not in md_of_docx(payload2)


def test_header_footer_members_skipped():
    import random as _random

    payload, expected = make_docx(_random.Random(2), 2)
    md = md_of_docx(payload)
    assert "CONFIDENTIAL-DRAFT-HEADER" not in md
    assert "r1c1" in md  # body table still extracts


def test_docx_junk_ids_degrade_not_raise():
    """Non-numeric ids in numbering/footnotes must degrade (parity
    heuristic / skipped entry), never raise out of the kernel."""
    from engine.fixtures import build_docx, _w_p

    bad_numbering = (
        '<?xml version="1.0"?><w:numbering xmlns:w="http://schemas.'
        'openxmlformats.org/wordprocessingml/2006/main">'
        '<w:abstractNum w:abstractNumId="x7"><w:lvl w:ilvl="zero">'
        '<w:numFmt w:val="decimal"/></w:lvl></w:abstractNum>'
        '<w:num w:numId="junk"><w:abstractNumId w:val="x7"/></w:num>'
        "</w:numbering>")
    bad_footnotes = (
        '<?xml version="1.0"?><w:footnotes xmlns:w="http://schemas.'
        'openxmlformats.org/wordprocessingml/2006/main">'
        '<w:footnote w:id="NaN">' + _w_p([("orphan", False, False)])
        + "</w:footnote></w:footnotes>")
    payload = build_docx(_w_p([("list item", False, False)], numpr=(0, 1)),
                         numbering_xml=bad_numbering,
                         footnotes_xml=bad_footnotes)
    md = md_of_docx(payload)
    assert "- list item" in md  # parity fallback (numId 1 odd → bullet)


def test_generated_pages_do_not_depend_on_the_clock(tmp_path, monkeypatch):
    """A seed writes the same Parquet bytes at any wall-clock time: every
    zip entry of the DOCX and non-DOCX zip fixtures has a fixed timestamp.
    100 rows: DOCX pages start at row 90 (gen_page_row's slots)."""
    import time

    import pyarrow.parquet as pq

    from engine.fixtures import write_pages_parquet

    first = write_pages_parquet(str(tmp_path / "a"), 100, seed=7, num_files=2)
    later = time.time() + 86_400
    monkeypatch.setattr(time, "time", lambda: later)
    second = write_pages_parquet(str(tmp_path / "b"), 100, seed=7, num_files=2)
    html = pq.read_table(tmp_path / "a", columns=["html"])["html"].to_pylist()
    assert sum(page.startswith(b"PK") for page in html) >= 5  # zips present
    assert len(first) == len(second) == 2
    for a, b in zip(first, second):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()
