"""Deterministic fixture generator for the ``pages`` table (FIXTURES.md F1).

Everything is seeded stdlib ``random.Random`` — no external data, no network.
The generator and the parsers agree on the supported PDF/DOCX subset by
construction (SURVEY.md §7 hard-parts #1): we emit only what we parse.

Payload mix by row index (FIXTURES.md F1): ~80 % HTML, ~10 % PDF, ~5 % DOCX,
~5 % pathological. The ``text`` column holds the human-readable source
sentences used to build the payload — a cross-check aid, NOT the byte-identity
oracle (that is the golden fixture suite, SURVEY.md §2.2 "byte-identity note").
"""

from __future__ import annotations

import datetime
import io
import random
import zipfile
import zlib

import pyarrow as pa
import pyarrow.parquet as pq

from engine.schema import PAGES

_WORDS = (
    "data ray arrow stream batch block shuffle actor page crawl markdown "
    "extract parse token column schema parquet vector index graph node edge "
    "query plan filter sort merge join hash scan read write spill memory"
).split()
_WORDS_I18N = ["café", "naïve", "über", "niño", "façade", "crème"]


def _sentence(rng: random.Random, n: int) -> str:
    words = [rng.choice(_WORDS) for _ in range(n)]
    if rng.random() < 0.15:
        words[rng.randrange(n)] = rng.choice(_WORDS_I18N)
    s = " ".join(words)
    return s[0].upper() + s[1:] + "."


def _paragraph(rng: random.Random, sentences: int = 3) -> str:
    return " ".join(_sentence(rng, rng.randint(5, 12)) for _ in range(sentences))


# ---------------------------------------------------------------------------
# HTML payloads (F1a)
# ---------------------------------------------------------------------------

_NAV = (
    '<nav class="navbar"><a href="/">Home</a> <a href="/news">News</a> '
    '<a href="/about">About</a> <a href="/contact">Contact</a></nav>'
)
_FOOTER = (
    '<footer><p>Copyright 2024 Example Corp. <a href="/tos">Terms</a> '
    '<a href="/privacy">Privacy</a></p></footer>'
)
_SIDEBAR = (
    '<div class="sidebar-ads"><a href="/buy1">Buy now!</a><a href="/buy2">'
    "Great deals</a><a href=\"/buy3\">Click here</a></div>"
)
_COOKIE = '<div id="cookie-banner">We use cookies. <a href="/accept">Accept</a></div>'


def make_html(rng: random.Random, variant: int,
              weight: int = 1) -> tuple[bytes, str]:
    """Returns (payload_bytes, source_text). ``weight`` multiplies the number
    of content sections (bench realism: Common-Crawl pages are tens of KiB,
    the unit-test default weight=1 is ~1 KiB)."""
    title = _sentence(rng, 4)[:-1]
    paras = [_paragraph(rng) for _ in range(rng.randint(2, 6))]
    body_parts: list[str] = [f"<h1>{title}</h1>"]
    v = variant % 10
    if v == 0:  # headings ladder + paragraphs
        for lvl, p in zip((2, 3, 4, 5, 6, 2), paras):
            body_parts.append(f"<h{lvl}>{_sentence(rng, 3)[:-1]}</h{lvl}><p>{p}</p>")
    elif v == 1:  # inline markup + links + code
        body_parts.append(
            f"<p>{paras[0]} <strong>{_sentence(rng, 2)[:-1]}</strong> and "
            f"<em>{_sentence(rng, 2)[:-1]}</em> see "
            f'<a href="https://example.com/{rng.randint(1, 99)}">this link</a> '
            f"plus <code>x = {rng.randint(0, 999)}</code>.</p>"
        )
        body_parts.append(f"<pre>def f():\n    return {rng.randint(0, 99)}</pre>")
    elif v == 2:  # nested lists
        items = "".join(
            f"<li>{_sentence(rng, 3)}"
            + (
                "<ul>" + "".join(f"<li>{_sentence(rng, 2)}</li>" for _ in range(2)) + "</ul>"
                if rng.random() < 0.5
                else ""
            )
            + "</li>"
            for _ in range(3)
        )
        body_parts.append(f"<ul>{items}</ul>")
        body_parts.append(
            "<ol>" + "".join(f"<li>{_sentence(rng, 3)}</li>" for _ in range(3)) + "</ol>"
        )
    elif v == 3:  # tables
        header = "".join(f"<th>col{j}</th>" for j in range(3))
        rows = "".join(
            "<tr>" + "".join(f"<td>{rng.randint(0, 999)}</td>" for _ in range(3)) + "</tr>"
            for _ in range(3)
        )
        body_parts.append(
            f"<table><thead><tr>{header}</tr></thead><tbody>{rows}</tbody></table>"
        )
        body_parts.append(f"<p>{paras[0]}</p>")
    elif v == 4:  # malformed markup
        body_parts.append(f"<p>{paras[0]} <b>unclosed bold")
        body_parts.append(f"<p>{paras[1] if len(paras) > 1 else ''}</div></div>")
        body_parts.append(f"<p class=noquotes id=x7>{_sentence(rng, 4)}")
    elif v == 5:  # entities + non-ASCII
        body_parts.append(
            f"<p>Fish &amp; chips &nbsp;cost &#x27;less&#x27; at caf&eacute;s. {paras[0]}</p>"
        )
        body_parts.append("<p>中文段落：数据处理引擎。 Grüße und ¡hola señor!</p>")
    elif v == 6:  # blockquote + hr + br
        body_parts.append(f"<blockquote><p>{paras[0]}</p></blockquote><hr>")
        body_parts.append(f"<p>line one<br>line two of {_sentence(rng, 2)}</p>")
    elif v == 7:  # script/style heavy
        body_parts.append(f"<script>var x = {rng.randint(0, 9)}; alert('hi');</script>")
        body_parts.append("<style>.cls { color: red; }</style>")
        body_parts.append(f"<p>{paras[0]}</p>")
    elif v == 8:  # all-boilerplate body (expected extraction: empty)
        body_parts = [_NAV, _SIDEBAR, _COOKIE, _FOOTER.replace("<footer>", '<div class="footer">').replace("</footer>", "</div>")]
        paras = []
        title = ""
    else:  # article wrapper + full boilerplate chrome
        inner = "".join(f"<p>{p}</p>" for p in paras)
        body_parts = [
            _NAV,
            _COOKIE,
            f"<article><h1>{title}</h1>{inner}</article>",
            _SIDEBAR,
            _FOOTER,
        ]
    if weight > 1 and v != 8:
        extra = []
        for w in range(weight - 1):
            extra.append(f"<h2>{_sentence(rng, 3)[:-1]}</h2>")
            extra.extend(f"<p>{_paragraph(rng, 4)}</p>" for _ in range(3))
        body_parts.append("<div class=\"content-extra\">" + "".join(extra) + "</div>")
    head_title = f"<title>{title}</title>" if (title and rng.random() < 0.8) else ""
    html = (
        f"<!DOCTYPE html><html><head>{head_title}"
        '<meta charset="utf-8"></head><body>'
        + ("".join(body_parts) if v in (8, 9) else _NAV + "".join(body_parts) + _FOOTER)
        + "</body></html>"
    )
    return html.encode("utf-8"), " ".join([title] + paras).strip()


# ---------------------------------------------------------------------------
# PDF payloads (F1b)
# ---------------------------------------------------------------------------


def _pdf_escape(s: str) -> bytes:
    raw = s.encode("cp1252", errors="replace")
    return raw.replace(b"\\", b"\\\\").replace(b"(", b"\\(").replace(b")", b"\\)")


def _page_stream(blocks: list[tuple[float, float, list[str]]], style: str) -> bytes:
    """blocks: (x, y_top, lines). Emission styles exercise different operators."""
    out = [b"BT", b"/F1 12 Tf", b"14 TL"]
    if style == "td":
        px, py = 0.0, 0.0
        for x, y, lines in blocks:
            out.append(b"%.1f %.1f Td" % (x - px, y - py))
            px, py = x, y
            for li, line in enumerate(lines):
                if li > 0:
                    out.append(b"T*")
                    py -= 14
                out.append(b"(" + _pdf_escape(line) + b") Tj")
    elif style == "quote":
        px, py = 0.0, 0.0
        for x, y, lines in blocks:
            out.append(b"%.1f %.1f Td" % (x - px, y - py + 14))
            px, py = x, y + 14
            for line in lines:
                out.append(b"(" + _pdf_escape(line) + b") '")
                py -= 14
    else:  # "tm" (+ TJ arrays)
        for x, y, lines in blocks:
            for li, line in enumerate(lines):
                out.append(b"1 0 0 1 %.1f %.1f Tm" % (x, y - 14 * li))
                if style == "tj" and " " in line:
                    a, b = line.split(" ", 1)
                    out.append(
                        b"[(" + _pdf_escape(a + " ") + b") -120 (" + _pdf_escape(b) + b")] TJ"
                    )
                else:
                    out.append(b"(" + _pdf_escape(line) + b") Tj")
    out.append(b"ET")
    return b"\n".join(out)


def lzw_encode(data: bytes) -> bytes:
    """PDF/TIFF-variant LZW encoder (PDF fixtures and imagecodec.encode_tiff):
    9→12-bit codes MSB-first, 256=clear, 257=EOD, EarlyChange=1. Round-trips
    with engine.pdfx.objects._lzw_decode (pinned by test)."""
    table = {bytes([i]): i for i in range(256)}
    next_code = 258
    width = 9
    buf = 0
    nbits = 0
    out = bytearray()

    def put(code: int) -> None:
        nonlocal buf, nbits
        buf = (buf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((buf >> (nbits - 8)) & 0xFF)
            nbits -= 8
        buf &= (1 << nbits) - 1

    put(256)
    w = b""
    for ch in data:
        c = bytes([ch])
        if w + c in table:
            w += c
            continue
        put(table[w])
        if next_code >= 4095:
            # table nearly full: emit a clear code and restart (codes must
            # stay representable in 12 bits)
            put(256)
            table = {bytes([i]): i for i in range(256)}
            next_code, width = 258, 9
        else:
            table[w + c] = next_code
            next_code += 1
            # the encoder's next_code runs ONE AHEAD of the decoder's (the
            # decoder adds no entry for the first code after a clear), so it
            # bumps at (1<<w) where the early-change decoder bumps at
            # (1<<w)-1
            if next_code >= (1 << width) and width < 12:
                width += 1
        w = c
    if w:
        put(table[w])
    put(257)
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out)


_PNG_FILTER_IDS = {"none": 0, "sub": 1, "up": 2, "average": 3, "paeth": 4}


def png_predict_encode(data: bytes, columns: int,
                       filters: str = "up") -> bytes:
    """Forward PNG row filtering (fixtures only; colors=1, bpc=8 → bpp=1):
    ``filters`` is a comma list cycled per row ("up" or
    "none,sub,up,average,paeth"). Round-trips with
    engine.pdfx.objects._png_unpredict (pinned by test)."""
    if len(data) % columns:
        raise ValueError("data must be a whole number of rows")
    cycle = [_PNG_FILTER_IDS[f] for f in filters.split(",")]
    prev = bytes(columns)
    out = bytearray()
    for ri, start in enumerate(range(0, len(data), columns)):
        row = data[start : start + columns]
        ft = cycle[ri % len(cycle)]
        out.append(ft)
        for i in range(columns):
            a = row[i - 1] if i >= 1 else 0
            b = prev[i]
            c = prev[i - 1] if i >= 1 else 0
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
            out.append((row[i] - pred) & 0xFF)
        prev = row
    return bytes(out)


_PRED_COLUMNS = 16


def _flate_predict(stream: bytes, columns: int = _PRED_COLUMNS,
                   filters: str = "none,sub,up,average,paeth"
                   ) -> tuple[bytes, bytes]:
    """Flate + PNG Predictor 12 encoding (newline-padded to whole rows) with
    the matching /Filter + /DecodeParms dict fragment."""
    pad = (-len(stream)) % columns
    enc = zlib.compress(png_predict_encode(stream + b"\n" * pad, columns,
                                           filters))
    return enc, (b" /Filter /FlateDecode /DecodeParms "
                 b"<< /Predictor 12 /Columns %d >>" % columns)


def _apply_stream_filter(stream: bytes, flt: str | None) -> tuple[bytes, bytes]:
    """Encode a content stream with a named PDF filter; returns
    (encoded bytes, ' /Filter /Name' dict fragment)."""
    if flt is None:
        return stream, b""
    if flt == "FlateDecode":
        return zlib.compress(stream), b" /Filter /FlateDecode"
    if flt == "LZWDecode":
        return lzw_encode(stream), b" /Filter /LZWDecode"
    if flt == "ASCIIHexDecode":
        return stream.hex().encode() + b">", b" /Filter /ASCIIHexDecode"
    if flt == "FlatePredictor":
        return _flate_predict(stream)
    if flt == "RunLengthDecode":
        out = bytearray()
        for start in range(0, len(stream), 120):
            chunk = stream[start : start + 120]
            out.append(len(chunk) - 1)
            out += chunk
        out.append(128)
        return bytes(out), b" /Filter /RunLengthDecode"
    raise ValueError(f"unknown fixture filter {flt}")


def build_pdf(
    pages: list[list[tuple[float, float, list[str]]]],
    compress: bool = False,
    style: str = "tm",
    title: str | None = None,
    stream_filter: str | None = None,
) -> bytes:
    objs: dict[int, bytes] = {}
    n_pages = len(pages)
    kids = " ".join(f"{4 + 2 * i} 0 R" for i in range(n_pages))
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[2] = f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode()
    objs[3] = (
        b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
        b"/Encoding /WinAnsiEncoding >>"
    )
    if stream_filter is None and compress:
        stream_filter = "FlateDecode"
    for i, blocks in enumerate(pages):
        stream, filt = _apply_stream_filter(_page_stream(blocks, style),
                                            stream_filter)
        objs[4 + 2 * i] = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 3 0 R >> >> /Contents "
            + f"{5 + 2 * i} 0 R >>".encode()
        )
        objs[5 + 2 * i] = (
            b"<< /Length %d%s >>\nstream\n" % (len(stream), filt) + stream + b"\nendstream"
        )
    info_num = None
    if title is not None:
        info_num = max(objs) + 1
        esc = title.encode("cp1252", "replace")
        esc = esc.replace(b"\\", rb"\\").replace(b"(", rb"\(").replace(b")", rb"\)")
        objs[info_num] = b"<< /Title (" + esc + b") >>"
    buf = io.BytesIO()
    buf.write(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    for num in sorted(objs):
        offsets[num] = buf.tell()
        buf.write(b"%d 0 obj\n" % num)
        buf.write(objs[num])
        buf.write(b"\nendobj\n")
    xref_pos = buf.tell()
    n = max(objs) + 1
    buf.write(b"xref\n0 %d\n" % n)
    buf.write(b"0000000000 65535 f \n")
    for num in range(1, n):
        buf.write(b"%010d 00000 n \n" % offsets.get(num, 0))
    info = b" /Info %d 0 R" % info_num if info_num is not None else b""
    buf.write(
        b"trailer\n<< /Size %d /Root 1 0 R%s >>\nstartxref\n%d\n%%%%EOF\n"
        % (n, info, xref_pos)
    )
    return buf.getvalue()


def build_pdf_objstm(
    pages: list[list[tuple[float, float, list[str]]]],
    title: str | None = None,
) -> bytes:
    """PDF 1.5 layout: catalog/pages/font/page dicts (and /Info) packed into
    a compressed /ObjStm whose Flate stream is PNG-Predictor-12 filtered
    (/DecodeParms — the real-world PDF 1.5 norm), plus a REAL cross-reference
    STREAM (W [1 4 2], Up-filtered predictor rows carrying true byte offsets;
    no ``trailer`` keyword at all) — the modern layout pdfminer handles and
    round 1 could not."""
    n_pages = len(pages)
    kids = " ".join(f"{10 + i} 0 R" for i in range(n_pages))
    inner: dict[int, bytes] = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode(),
        3: (b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica "
            b"/Encoding /WinAnsiEncoding >>"),
    }
    if title is not None:
        esc = title.encode("cp1252", "replace")
        esc = esc.replace(b"\\", rb"\\").replace(b"(", rb"\(").replace(b")", rb"\)")
        inner[4] = b"<< /Title (" + esc + b") >>"
    objs: dict[int, bytes] = {}
    for i, blocks in enumerate(pages):
        stream = _page_stream(blocks, "tm")
        inner[10 + i] = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 3 0 R >> >> /Contents "
            + f"{100 + i} 0 R >>".encode()
        )
        objs[100 + i] = (
            b"<< /Length %d >>\nstream\n" % len(stream) + stream
            + b"\nendstream"
        )
    pairs: list[tuple[int, int]] = []
    body = bytearray()
    for num in sorted(inner):
        pairs.append((num, len(body)))
        body += inner[num] + b"\n"
    header = " ".join(f"{n} {o}" for n, o in pairs).encode() + b"\n"
    payload = header + bytes(body)
    comp, filt = _flate_predict(payload)
    objs[5] = (
        b"<< /Type /ObjStm /N %d /First %d /Length %d%s "
        b">>\nstream\n" % (len(inner), len(header), len(comp), filt)
        + comp + b"\nendstream"
    )
    info = b" /Info 4 0 R" if title is not None else b""
    buf = io.BytesIO()
    buf.write(b"%PDF-1.5\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    for num in sorted(objs):
        offsets[num] = buf.tell()
        buf.write(b"%d 0 obj\n" % num)
        buf.write(objs[num])
        buf.write(b"\nendobj\n")
    # real cross-reference stream, written last so offsets are known:
    # W [1 4 2] rows (type, offset, gen), Up-filtered PNG predictor 12 —
    # the near-universal encoding of wild PDF 1.5 xref streams
    xref_num = 6
    xref_pos = buf.tell()
    offsets[xref_num] = xref_pos
    size = max(max(offsets), max(inner)) + 1
    rows = bytearray()
    for num in range(size):
        if num == 0:
            typ, off, gen = 0, 0, 0xFFFF
        elif num in offsets:
            typ, off, gen = 1, offsets[num], 0
        elif num in inner:
            typ, off, gen = 2, 5, sorted(inner).index(num)  # in ObjStm 5
        else:
            typ, off, gen = 0, 0, 0
        rows += bytes([typ]) + off.to_bytes(4, "big") + gen.to_bytes(2, "big")
    xdata = zlib.compress(png_predict_encode(bytes(rows), 7, "up"))
    buf.write(b"%d 0 obj\n" % xref_num)
    buf.write(
        b"<< /Type /XRef /Size %d /W [1 4 2] /Root 1 0 R%s /Length %d "
        b"/Filter /FlateDecode /DecodeParms << /Predictor 12 /Columns 7 >> "
        b">>\nstream\n" % (size, info, len(xdata))
    )
    buf.write(xdata)
    buf.write(b"\nendstream\nendobj\n")
    buf.write(b"startxref\n%d\n%%%%EOF\n" % xref_pos)
    return buf.getvalue()


def build_pdf_cid(lines: list[str], title: str | None = None) -> bytes:
    """Composite-font PDF: a Type0/Identity-H font whose 2-byte codes map to
    arbitrary unicode via an embedded /ToUnicode CMap (bfchar entries);
    content strings are hex-encoded code sequences. Exercises the CMap
    decode path (P3 breadth)."""
    charset = sorted({ch for line in lines for ch in line})
    code_of = {ch: i + 1 for i, ch in enumerate(charset)}
    bfchars = "\n".join(
        f"<{code:04x}> <{''.join(f'{u:02x}' for u in ch.encode('utf-16-be'))}>"
        for ch, code in code_of.items()
    )
    cmap = (
        "/CIDInit /ProcSet findresource begin\n"
        "begincodespacerange\n<0000> <ffff>\nendcodespacerange\n"
        f"{len(code_of)} beginbfchar\n{bfchars}\nendbfchar\n"
        "endcmap end\n"
    ).encode()
    ops = [b"BT", b"/F1 12 Tf", b"14 TL", b"1 0 0 1 72 720 Tm"]
    for li, line in enumerate(lines):
        hexstr = "".join(f"{code_of[ch]:04x}" for ch in line).encode()
        if li > 0:
            ops.append(b"T*")
        ops.append(b"<" + hexstr + b"> Tj")
    ops.append(b"ET")
    stream = b"\n".join(ops)

    objs: dict[int, bytes] = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [4 0 R] /Count 1 >>",
        3: (b"<< /Type /Font /Subtype /Type0 /BaseFont /Fixture-CID "
            b"/Encoding /Identity-H /ToUnicode 6 0 R >>"),
        4: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Resources << /Font << /F1 3 0 R >> >> /Contents 5 0 R >>"),
        5: (b"<< /Length %d >>\nstream\n" % len(stream) + stream
            + b"\nendstream"),
        6: (b"<< /Length %d >>\nstream\n" % len(cmap) + cmap
            + b"\nendstream"),
    }
    if title is not None:
        esc = title.encode("cp1252", "replace")
        esc = esc.replace(b"\\", rb"\\").replace(b"(", rb"\(").replace(b")", rb"\)")
        objs[7] = b"<< /Title (" + esc + b") >>"
    buf = io.BytesIO()
    buf.write(b"%PDF-1.6\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    for num in sorted(objs):
        offsets[num] = buf.tell()
        buf.write(b"%d 0 obj\n" % num)
        buf.write(objs[num])
        buf.write(b"\nendobj\n")
    xref_pos = buf.tell()
    n = max(objs) + 1
    buf.write(b"xref\n0 %d\n" % n)
    buf.write(b"0000000000 65535 f \n")
    for num in range(1, n):
        buf.write(b"%010d 00000 n \n" % offsets.get(num, 0))
    info = b" /Info 7 0 R" if title is not None else b""
    buf.write(
        b"trailer\n<< /Size %d /Root 1 0 R%s >>\nstartxref\n%d\n%%%%EOF\n"
        % (n, info, xref_pos)
    )
    return buf.getvalue()


def make_pdf(rng: random.Random, variant: int, weight: int = 1) -> tuple[bytes, str]:
    v8 = variant % 8
    v = variant % 4
    style = ("tm", "td", "tj", "quote")[variant % 4]
    compress = variant % 2 == 1
    all_lines: list[str] = []

    def block(x: float, y: float, n_lines: int) -> tuple[float, float, list[str]]:
        lines = [_sentence(rng, rng.randint(4, 8)) for _ in range(n_lines)]
        all_lines.extend(lines)
        return (x, y, lines)

    if v == 2:  # two-column page
        page = [block(72, 720, 4), block(400, 720, 4), block(72, 560, 3), block(400, 560, 3)]
        pages = [page]
    elif v == 3:  # 3-page document
        pages = [[block(72, 720, 3), block(72, 600, 2)] for _ in range(3)]
    else:  # single page, multiple blocks
        pages = [[block(72, 720, 3), block(72, 620, 4), block(72, 480, 2)]]
    for _ in range(weight - 1):
        pages.append([block(72, 720, 4), block(72, 580, 4), block(72, 440, 3)])
    expected = " ".join(all_lines)
    if v8 == 4:  # LZW-filtered content streams
        return build_pdf(pages, style=style,
                         stream_filter="LZWDecode"), expected
    if v8 == 5:  # ASCIIHex-filtered content streams
        return build_pdf(pages, style=style,
                         stream_filter="ASCIIHexDecode"), expected
    if v8 == 6:  # PDF 1.5: ObjStm-packed dicts + xref-stream trailer
        return build_pdf_objstm(pages), expected
    if v8 == 7:  # Type0/CID font with ToUnicode CMap (unicode text)
        lines = [
            _sentence(rng, rng.randint(4, 8)) + " — αβγ 世界 ümlaut"
            for _ in range(3 + 2 * (weight - 1))
        ]
        return build_pdf_cid(lines), " ".join(lines)
    return build_pdf(pages, compress=compress, style=style), expected


# ---------------------------------------------------------------------------
# DOCX payloads (F1c)
# ---------------------------------------------------------------------------

_CONTENT_TYPES = b"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">
<Default Extension="rels" ContentType="application/vnd.openxmlformats-package.relationships+xml"/>
<Default Extension="xml" ContentType="application/xml"/>
<Override PartName="/word/document.xml" ContentType="application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>
</Types>"""

_RELS = b"""<?xml version="1.0" encoding="UTF-8" standalone="yes"?>
<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">
<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/officeDocument/2006/relationships/officeDocument" Target="word/document.xml"/>
</Relationships>"""


def _xml_escape(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _w_p(text_runs: list[tuple[str, bool, bool]], style: str | None = None,
         numpr: tuple[int, int] | None = None) -> str:
    ppr = ""
    if style or numpr:
        parts = []
        if style:
            parts.append(f'<w:pStyle w:val="{style}"/>')
        if numpr:
            ilvl, numid = numpr
            parts.append(
                f'<w:numPr><w:ilvl w:val="{ilvl}"/><w:numId w:val="{numid}"/></w:numPr>'
            )
        ppr = "<w:pPr>" + "".join(parts) + "</w:pPr>"
    runs = []
    for text, bold, italic in text_runs:
        rpr = ""
        if bold or italic:
            rpr = "<w:rPr>" + ("<w:b/>" if bold else "") + ("<w:i/>" if italic else "") + "</w:rPr>"
        runs.append(f'<w:r>{rpr}<w:t xml:space="preserve">{_xml_escape(text)}</w:t></w:r>')
    return f"<w:p>{ppr}{''.join(runs)}</w:p>"


def _w_drawing(alt: str) -> str:
    """An inline image run whose wp:docPr carries the alt text."""
    return (
        '<w:r><w:drawing xmlns:wp="http://schemas.openxmlformats.org/'
        'drawingml/2006/wordprocessingDrawing">'
        f'<wp:inline><wp:docPr id="1" name="pic1" descr="{_xml_escape(alt)}"/>'
        "</wp:inline></w:drawing></w:r>"
    )


_W_NS = 'xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main"'


def _w_numbering(fmt_of_numid: dict[int, str]) -> str:
    """word/numbering.xml with one abstractNum per numId: every level gets
    the given numFmt ('bullet', 'decimal', 'lowerLetter', …)."""
    parts = [f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
             f"<w:numbering {_W_NS}>"]
    for nid, fmt in fmt_of_numid.items():
        lvls = "".join(
            f'<w:lvl w:ilvl="{lv}"><w:numFmt w:val="{fmt}"/></w:lvl>'
            for lv in range(4))
        parts.append(
            f'<w:abstractNum w:abstractNumId="{100 + nid}">{lvls}'
            f"</w:abstractNum>")
    for nid in fmt_of_numid:
        parts.append(
            f'<w:num w:numId="{nid}">'
            f'<w:abstractNumId w:val="{100 + nid}"/></w:num>')
    parts.append("</w:numbering>")
    return "".join(parts)


def _w_footnotes(texts: dict[int, str]) -> str:
    """word/footnotes.xml: the two pseudo-footnotes (separator /
    continuation) real files carry, plus one footnote per id."""
    parts = [f'<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
             f"<w:footnotes {_W_NS}>",
             '<w:footnote w:type="separator" w:id="-1"><w:p/></w:footnote>',
             '<w:footnote w:type="continuationSeparator" w:id="0">'
             "<w:p/></w:footnote>"]
    for fid, text in texts.items():
        parts.append(f'<w:footnote w:id="{fid}">'
                     + _w_p([(text, False, False)]) + "</w:footnote>")
    parts.append("</w:footnotes>")
    return "".join(parts)


def _w_footnote_ref(fid: int) -> str:
    return (f'<w:r><w:rPr><w:vertAlign w:val="superscript"/></w:rPr>'
            f'<w:footnoteReference w:id="{fid}"/></w:r>')


def build_docx(body_xml: str, core_title: str | None = None,
               core_creator: str | None = None,
               numbering_xml: str | None = None,
               footnotes_xml: str | None = None,
               header_xml: str | None = None) -> bytes:
    doc = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        '<w:document xmlns:w="http://schemas.openxmlformats.org/wordprocessingml/2006/main">'
        f"<w:body>{body_xml}</w:body></w:document>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("[Content_Types].xml", _CONTENT_TYPES)
        zf.writestr("_rels/.rels", _RELS)
        zf.writestr("word/document.xml", doc.encode("utf-8"))
        if numbering_xml is not None:
            zf.writestr("word/numbering.xml", numbering_xml.encode("utf-8"))
        if footnotes_xml is not None:
            zf.writestr("word/footnotes.xml", footnotes_xml.encode("utf-8"))
        if header_xml is not None:
            zf.writestr("word/header1.xml", header_xml.encode("utf-8"))
        if core_title is not None or core_creator is not None:
            core = (
                '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
                '<cp:coreProperties xmlns:cp="http://schemas.openxmlformats.'
                'org/package/2006/metadata/core-properties" '
                'xmlns:dc="http://purl.org/dc/elements/1.1/">'
                + (f"<dc:title>{_xml_escape(core_title)}</dc:title>"
                   if core_title is not None else "")
                + (f"<dc:creator>{_xml_escape(core_creator)}</dc:creator>"
                   if core_creator is not None else "")
                + "</cp:coreProperties>"
            )
            zf.writestr("docProps/core.xml", core.encode("utf-8"))
    return buf.getvalue()


def make_docx(rng: random.Random, variant: int, weight: int = 1) -> tuple[bytes, str]:
    title = _sentence(rng, 4)[:-1]
    texts = [title]
    parts = [_w_p([(title, False, False)], style="Heading1")]
    v = variant % 4
    if v == 3:  # core properties + inline image alt text
        alt = _sentence(rng, 3)[:-1]
        p1 = _sentence(rng, 5)
        texts += [p1, alt]
        parts.append(
            "<w:p>" + _w_p([(p1 + " ", False, False)])[5:-6]
            + _w_drawing(alt) + "</w:p>"
        )
        return (
            build_docx("".join(parts), core_title=title,
                       core_creator="Fixture Author"),
            " ".join(texts),
        )
    numbering_xml = footnotes_xml = header_xml = None
    if v == 0:  # headings + styled runs + a footnote
        sub = _sentence(rng, 3)[:-1]
        texts.append(sub)
        parts.append(_w_p([(sub, False, False)], style="Heading2"))
        p1, p2, p3 = _sentence(rng, 6), _sentence(rng, 4), _sentence(rng, 5)
        note = _sentence(rng, 4)
        texts += [p1, p2, p3, note]
        parts.append(
            _w_p([(p1 + " ", False, False), (p2, True, False),
                  (" " + p3, False, True)])[:-6]
            + _w_footnote_ref(1) + "</w:p>")
        footnotes_xml = _w_footnotes({1: note})
    elif v == 1:  # lists resolved through a REAL numbering.xml:
        # numId 1 → bullet, numId 2 → decimal (counted)
        for lvl in (0, 1, 1, 0):
            s = _sentence(rng, 3)
            texts.append(s)
            parts.append(_w_p([(s, False, False)], numpr=(lvl, 1)))
        for _ in range(3):
            s = _sentence(rng, 3)
            texts.append(s)
            parts.append(_w_p([(s, False, False)], numpr=(0, 2)))
        numbering_xml = _w_numbering({1: "bullet", 2: "decimal"})
    else:  # 3x3 table + paragraphs (+ a header/footer member, skipped)
        rows = []
        for r in range(3):
            cells = []
            for c in range(3):
                val = f"r{r}c{c}"
                texts.append(val)
                cells.append(f"<w:tc>{_w_p([(val, False, False)])}</w:tc>")
            rows.append("<w:tr>" + "".join(cells) + "</w:tr>")
        parts.append("<w:tbl>" + "".join(rows) + "</w:tbl>")
        p = _paragraph(rng, 2)
        texts.append(p)
        parts.append(_w_p([(p, False, False)]))
        # page furniture: must NOT appear in the extracted text
        header_xml = (
            f'<?xml version="1.0"?><w:hdr {_W_NS}>'
            + _w_p([("CONFIDENTIAL-DRAFT-HEADER", False, False)])
            + "</w:hdr>")
    for _ in range(weight - 1):
        p = _paragraph(rng, 3)
        texts.append(p)
        parts.append(_w_p([(p, False, False)]))
    return build_docx("".join(parts), numbering_xml=numbering_xml,
                      footnotes_xml=footnotes_xml,
                      header_xml=header_xml), " ".join(texts)


# ---------------------------------------------------------------------------
# Pathological payloads (F1d)
# ---------------------------------------------------------------------------


def make_pathological(rng: random.Random, variant: int,
                      giant_scale: int = 1) -> tuple[bytes, str]:
    v = variant % 6
    if v == 0:  # giant HTML (~512 KiB * giant_scale): repeated sections
        section = f"<h2>{_sentence(rng, 3)[:-1]}</h2><p>{_paragraph(rng, 4)}</p>"
        reps = max(1, (512 * 1024 * giant_scale) // max(1, len(section)))
        html = f"<html><body><h1>Giant</h1>{section * reps}</body></html>"
        return html.encode(), "giant repeated sections"
    if v == 1:  # empty payload
        return b"", ""
    if v == 2:  # truncated PDF (header only)
        return b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog", ""
    if v == 3:  # binary garbage, no magic
        return bytes(rng.randrange(256) for _ in range(256)), ""
    if v == 4:  # zip that is not a DOCX
        buf = io.BytesIO()
        with zipfile.ZipFile(buf, "w") as zf:
            zf.writestr("readme.txt", "not a docx")
        return buf.getvalue(), ""
    # plain .txt-style payload (reference's unsupported test_document.txt analog)
    return (
        "CONVERSION TEST\n\nEste es un documento de prueba.\n- item uno\n- item dos\n"
    ).encode(), "plain text file"


# ---------------------------------------------------------------------------
# pages table assembly (F1)
# ---------------------------------------------------------------------------

_LANGS = ["en", "es", "de", "fr", "zh"]
_EPOCH = datetime.datetime(2024, 1, 1)


def gen_page_row(i: int, seed: int = 42, giant_scale: int = 1,
                 dup_fraction: float = 0.02, weight: int = 1) -> dict:
    rng = random.Random((seed << 20) ^ i)
    lang = _LANGS[i % len(_LANGS)]
    slot = i % 100
    if slot < 80:
        payload, text = make_html(rng, i, weight=weight)
        kind = "html"
    elif slot < 90:
        payload, text = make_pdf(rng, i, weight=weight)
        kind = "pdf"
    elif slot < 95:
        payload, text = make_docx(rng, i, weight=weight)
        kind = "docx"
    else:
        payload, text = make_pathological(rng, i, giant_scale=giant_scale)
        kind = "path"
    # a small fraction of rows duplicate an earlier url verbatim (dedup coverage)
    if i > 10 and rng.random() < dup_fraction:
        j = rng.randrange(max(1, i - 10))
        return gen_page_row(j, seed=seed, giant_scale=giant_scale,
                            dup_fraction=0.0, weight=weight)
    url = f"https://site{i % 97}.example/{lang}/doc{i}"
    return {
        "url": url,
        "warc_ts": _EPOCH + datetime.timedelta(seconds=37 * i),
        "html": payload,
        "text": text,
        "lang": lang,
        "_kind": kind,
    }


def gen_pages_table(n_rows: int, seed: int = 42, giant_scale: int = 1,
                    dup_fraction: float = 0.02, weight: int = 1) -> pa.Table:
    rows = [
        gen_page_row(i, seed=seed, giant_scale=giant_scale,
                     dup_fraction=dup_fraction, weight=weight)
        for i in range(n_rows)
    ]
    cols = {
        "url": [r["url"] for r in rows],
        "warc_ts": [r["warc_ts"] for r in rows],
        "html": [r["html"] for r in rows],
        "text": [r["text"] for r in rows],
        "lang": [r["lang"] for r in rows],
    }
    return pa.table(cols, schema=PAGES)


def write_pages_parquet(out_dir: str, n_rows: int, seed: int = 42,
                        num_files: int = 4, giant_scale: int = 1,
                        dup_fraction: float = 0.02, weight: int = 1) -> list[str]:
    """Write the pages table as ``num_files`` parquet shards (the multi-file
    layout is what file-granular checkpoint partitioning keys on).

    Generation is chunked per shard to keep memory flat at bench sizes."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    per = (n_rows + num_files - 1) // num_files
    for f in range(num_files):
        lo, hi = f * per, min((f + 1) * per, n_rows)
        if lo >= hi:
            continue
        rows = [
            gen_page_row(i, seed=seed, giant_scale=giant_scale,
                         dup_fraction=dup_fraction, weight=weight)
            for i in range(lo, hi)
        ]
        shard = pa.table(
            {
                "url": [r["url"] for r in rows],
                "warc_ts": [r["warc_ts"] for r in rows],
                "html": [r["html"] for r in rows],
                "text": [r["text"] for r in rows],
                "lang": [r["lang"] for r in rows],
            },
            schema=PAGES,
        )
        path = os.path.join(out_dir, f"pages-{f:05d}.parquet")
        pq.write_table(shard, path)
        paths.append(path)
    return paths
