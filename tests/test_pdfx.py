"""PDF path tests (P1-P3): object parse, layout order, decode, separators."""

from __future__ import annotations

import pytest

from engine.fixtures import build_pdf, make_pdf, make_pathological
from engine.pdfx import PdfError, extract_pdf, extract_pdf_text
import random


def test_simple_page_lines_and_blocks():
    pdf = build_pdf([[(72, 720, ["line one", "line two"]), (72, 600, ["block two"])]])
    text, spans = extract_pdf(pdf)
    assert text == "line one\nline two\n\nblock two"
    assert [s["kind"] for s in spans] == ["para", "para"]
    assert text.encode()[spans[1]["start"]:spans[1]["end"]] == b"block two"


def test_flate_compressed_stream():
    pdf = build_pdf([[(72, 720, ["compressed text"])]], compress=True)
    assert extract_pdf_text(pdf) == "compressed text"


@pytest.mark.parametrize("style", ["tm", "td", "tj", "quote"])
def test_all_emission_styles_equivalent(style):
    blocks = [[(72, 720, ["alpha beta", "gamma delta"]), (72, 560, ["second block"])]]
    text = extract_pdf_text(build_pdf(blocks, style=style))
    assert text == "alpha beta\ngamma delta\n\nsecond block"


def test_multipage_formfeed_separator():
    pdf = build_pdf([[(72, 720, ["page one"])], [(72, 720, ["page two"])]])
    assert extract_pdf_text(pdf) == "page one\x0cpage two"


def test_two_column_reading_order():
    # same top y: left column block sorts before right (policy: (-y, x))
    page = [(400, 720, ["right top"]), (72, 720, ["left top"]),
            (72, 560, ["left low"]), (400, 560, ["right low"])]
    text = extract_pdf_text(build_pdf([page]))
    assert text == "left top\n\nright top\n\nleft low\n\nright low"


def test_winansi_decoding():
    pdf = build_pdf([[(72, 720, ["café naïve ©"])]])
    assert extract_pdf_text(pdf) == "café naïve ©"


def test_escapes_in_literal_strings():
    pdf = build_pdf([[(72, 720, ["paren (x) and \\ back"])]])
    assert extract_pdf_text(pdf) == "paren (x) and \\ back"


def test_truncated_pdf_raises():
    with pytest.raises(PdfError):
        extract_pdf(make_pathological(random.Random(0), 2)[0])


def test_garbage_after_header_raises_or_empty():
    with pytest.raises(PdfError):
        extract_pdf(b"%PDF-1.4\ntotal garbage here")


def test_generator_roundtrip_all_variants():
    for v in range(8):
        pdf, _src = make_pdf(random.Random(v), v)
        text = extract_pdf_text(pdf)
        assert len(text) > 50


def test_flate_bomb_rejected():
    """A small FlateDecode stream expanding past the cap raises PdfError
    instead of ballooning worker memory (ADVICE: decompression bound)."""
    import zlib

    import pytest

    from engine.pdfx import objects as ob

    bomb = zlib.compress(b"\x00" * (16 * 1024 * 1024))  # 16 MiB of zeros
    s = ob.Stream({"Filter": ob.Name("FlateDecode")}, bomb)
    with pytest.raises(ob.PdfError):
        ob._bounded_inflate(bomb, limit=1024 * 1024)
    # under the default cap it still round-trips
    assert s.data() == b"\x00" * (16 * 1024 * 1024)


def test_pdf_info_title():
    from engine.extract import extract_row
    from engine.fixtures import build_pdf
    from engine.pdfx import extract_pdf_doc

    pdf = build_pdf([[(72.0, 720.0, ["hello world"])]],
                    title="My (Quarterly) Report")
    title, text, spans = extract_pdf_doc(pdf)
    assert title == "My (Quarterly) Report"
    assert text == "hello world"
    row = extract_row(pdf)
    assert row["status"] == "ok"
    assert row["title"] == "My (Quarterly) Report"
    # no /Info -> empty title, unchanged text
    pdf2 = build_pdf([[(72.0, 720.0, ["hello world"])]])
    t2, x2, _ = extract_pdf_doc(pdf2)
    assert t2 == "" and x2 == "hello world"


def test_lzw_roundtrip():
    import random as _random

    from engine.fixtures import lzw_encode
    from engine.pdfx.objects import _lzw_decode

    rng = _random.Random(3)
    cases = [
        b"",
        b"a",
        b"aaaaaaaaaaaaaaaaaaaaaaa",
        b"abcabcabcabcabc" * 100,
        bytes(rng.randrange(256) for _ in range(5000)),
        (b"the quick brown fox " * 400),  # grows table past 9->10->11 bits
    ]
    for data in cases:
        assert _lzw_decode(lzw_encode(data)) == data


def test_filter_variants_extract_identically():
    """LZW / ASCIIHex / Flate / raw streams all decode to the same text."""
    from engine.fixtures import build_pdf
    from engine.pdfx import extract_pdf_text

    pages = [[(72.0, 720.0, ["line one here", "line two here"]),
              (72.0, 600.0, ["second block"])]]
    expected = extract_pdf_text(build_pdf(pages))
    for flt in ("FlateDecode", "LZWDecode", "ASCIIHexDecode"):
        assert extract_pdf_text(build_pdf(pages, stream_filter=flt)) == expected


def test_objstm_xref_stream_layout():
    """PDF 1.5: dicts inside a compressed /ObjStm, trailer keys in the xref
    STREAM dict (no trailer keyword) — parses identically to the classic
    layout, including /Info /Title resolved out of the ObjStm."""
    from engine.fixtures import build_pdf, build_pdf_objstm
    from engine.pdfx import extract_pdf_doc, extract_pdf_text

    pages = [[(72.0, 720.0, ["alpha beta", "gamma delta"])],
             [(72.0, 720.0, ["page two"])]]
    classic = extract_pdf_text(build_pdf(pages))
    modern = build_pdf_objstm(pages, title="Modern Layout")
    assert b"trailer" not in modern
    title, text, spans = extract_pdf_doc(modern)
    assert text == classic
    assert title == "Modern Layout"
    assert len(spans) == 2


def test_cid_tounicode_decode():
    from engine.fixtures import build_pdf_cid
    from engine.pdfx import extract_pdf_doc

    lines = ["Héllo wörld", "数据 处理 — ΣΔ", "plain ascii line"]
    title, text, _ = extract_pdf_doc(build_pdf_cid(lines, title="CID Doc"))
    assert text == "\n".join(lines)
    assert title == "CID Doc"


def test_content_tokenizer_nested_and_escaped_strings():
    """The single-pass tokenizer must fall back to the lexer for nested
    literal strings (incl. inside TJ arrays) and decode escapes exactly."""
    from engine.pdfx.content import interpret

    stream = (
        b"BT\n/F1 12 Tf\n14 TL\n1 0 0 1 72 720 Tm\n"
        b"(outer (nested) tail) Tj\n"
        b"T*\n"
        b"[(array (deep (deeper)) part ) -120 (and \\(escaped\\))] TJ\n"
        b"T*\n"
        b"(octal \\101 newline\\n) Tj\n"
        b"ET"
    )
    runs = interpret(stream)
    texts = [r.text for r in runs]
    assert texts[0] == "outer (nested) tail"
    assert texts[1] == "array (deep (deeper)) part and (escaped)"
    assert texts[2] == "octal A newline\n"
    # positions advanced by T* (leading 14) per line
    assert [round(r.y) for r in runs] == [720, 706, 692]


def test_png_predictor_roundtrip_all_filters():
    """Every PNG row filter (None/Sub/Up/Average/Paeth) and TIFF predictor 2
    must un-filter byte-identically (fixture encoder ↔ engine decoder)."""
    import random as _random

    import numpy as np

    from engine.fixtures import png_predict_encode
    from engine.pdfx.objects import _png_unpredict, _tiff_unpredict

    rng = _random.Random(7)
    data = bytes(rng.randrange(256) for _ in range(16 * 40))
    for filters in ("none", "sub", "up", "average", "paeth",
                    "none,sub,up,average,paeth"):
        enc = png_predict_encode(data, 16, filters)
        assert _png_unpredict(enc, 16, 1, 8) == data
    # TIFF predictor 2: forward-difference per channel, engine undoes it
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, 16, 2)
    diff = np.diff(arr, axis=1, prepend=np.zeros((arr.shape[0], 1, 2),
                                                 dtype=np.uint8))
    assert _tiff_unpredict(diff.astype(np.uint8).tobytes(), 16, 2, 8) == data


def test_runlength_decode():
    from engine.fixtures import _apply_stream_filter
    from engine.pdfx.objects import _runlength_decode

    data = b"abcabc" * 100 + b"zzz"
    enc, frag = _apply_stream_filter(data, "RunLengthDecode")
    assert frag == b" /Filter /RunLengthDecode"
    assert _runlength_decode(enc) == data
    # repeat form: 257-l copies of the next byte
    assert _runlength_decode(bytes([254]) + b"x" + bytes([128])) == b"xxx"


def test_predictor_content_stream_extracts():
    """A content stream compressed Flate + PNG Predictor 12 (/DecodeParms)
    extracts identically to the plain version."""
    from engine.fixtures import build_pdf
    from engine.pdfx import extract_pdf_text

    pages = [[(72.0, 720.0, ["predictor line one", "line two"]),
              (72.0, 600.0, ["second block"])]]
    plain = extract_pdf_text(build_pdf(pages))
    for flt in ("FlatePredictor", "RunLengthDecode"):
        assert extract_pdf_text(build_pdf(pages, stream_filter=flt)) == plain


def test_objstm_predictor_xref_stream_real_offsets():
    """The PDF 1.5 fixture now carries a REAL predictor-12 xref stream:
    decoding it must yield the true byte offsets of every top-level object
    (the wild-file layout: W [1 4 2], Up-filtered rows)."""
    import re as _re

    from engine.fixtures import build_pdf_objstm
    from engine.pdfx.objects import Stream, parse_objects, resolve

    pages = [[(72.0, 720.0, ["alpha beta", "gamma delta"])],
             [(72.0, 720.0, ["page two"])]]
    pdf = build_pdf_objstm(pages, title="Pred XRef")
    objects, trailer = parse_objects(pdf)
    xref = next(o for o in objects.values()
                if isinstance(o, Stream) and o.dict.get("Type") == "XRef")
    rows = xref.data()
    assert len(rows) % 7 == 0
    # cross-check decoded type-1 offsets against the actual file bytes
    checked = 0
    for num in range(len(rows) // 7):
        row = rows[num * 7 : num * 7 + 7]
        if row[0] != 1:
            continue
        off = int.from_bytes(row[1:5], "big")
        m = _re.match(rb"(\d+) 0 obj", pdf[off : off + 32])
        assert m and int(m.group(1)) == num
        checked += 1
    assert checked >= 4
    assert resolve(objects, trailer["Root"])["Type"] == "Catalog"


def test_encrypted_pdf_rejected_clearly():
    """/Encrypt in the trailer → a clear PdfError (detection, not garbage),
    and the extraction kernel surfaces it as a rejected row."""
    from engine.fixtures import build_pdf
    from engine.pdfx import PdfError, extract_pdf_text

    pdf = build_pdf([[(72.0, 720.0, ["secret text"])]])
    enc = pdf.replace(b"/Root 1 0 R", b"/Root 1 0 R /Encrypt 99 0 R")
    assert enc != pdf
    with pytest.raises(PdfError, match="encrypted"):
        extract_pdf_text(enc)


def test_scalar_decodeparms_applies_to_first_filter_only():
    """A non-array /DecodeParms pairs with the FIRST filter of a chain —
    replicating it would re-apply the predictor after every stage."""
    import zlib as _zlib

    from engine.fixtures import png_predict_encode
    from engine.pdfx.objects import PdfError, Stream

    data = b"0123456789abcdef" * 8
    inner = _zlib.compress(png_predict_encode(data, 16, "up"))
    outer = _zlib.compress(inner)
    st = Stream({"Filter": ["FlateDecode", "FlateDecode"],
                 "DecodeParms": {"Predictor": 12, "Columns": 16}},
                outer)
    # scalar parms → predictor after stage 1 only... but stage order means
    # the predictor must undo AFTER the LAST inflate of the payload it was
    # applied to; here the correct pairing is [parms, None] per spec and
    # the inner payload is still Flate-compressed at stage 1 — so stage-1
    # un-prediction of compressed bytes must FAIL loudly or mis-decode,
    # never silently double-apply. The well-formed array form works:
    st2 = Stream({"Filter": ["FlateDecode", "FlateDecode"],
                  "DecodeParms": [None, {"Predictor": 12, "Columns": 16}]},
                 outer)
    assert st2.data() == data
    try:
        st.data()
    except PdfError:
        pass  # acceptable: strict failure on the malformed scalar form


def test_runlength_truncated_literal_raises():
    from engine.pdfx.objects import PdfError, _runlength_decode

    with pytest.raises(PdfError, match="truncated"):
        _runlength_decode(bytes([10]) + b"abc")  # promises 11, has 3


@pytest.mark.parametrize("data, value, end", [
    (b"/Type /Page", "Type", 5),
    (b"/F1 12 Tf", "F1", 3),
    (b"/Name(str)", "Name", 5),
    (b"/A/B", "A", 2),
    (b"/", "", 1),
    (b"/caf\xe9>>", "caf\xe9", 5),
    (b"/A#20B C", "A B", 6),
    (b"/Lime#20Green/X", "Lime Green", 13),
    (b"/A#2", "A#2", 4),  # a '#' too close to the end is kept literally
])
def test_name_token(data, value, end):
    """Plain names take the one-regex path, names with #xx escapes the
    byte loop; both stop at whitespace or a delimiter."""
    from engine.pdfx.objects import Name, _Lexer

    lex = _Lexer(data)
    name = lex._parse_name()
    assert type(name) is Name
    assert (name, lex.pos) == (value, end)


def test_name_token_bad_escape_raises():
    from engine.pdfx.objects import _Lexer

    with pytest.raises(ValueError):
        _Lexer(b"/A#zz ")._parse_name()
