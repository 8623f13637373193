"""PDF extraction entry: bytes → (text, spans) with the frozen separator
policy. For PDFs, ``markdown_text`` IS the extracted text (the reference's
MarkItDown does the same: pdfminer output is returned as text_content —
SURVEY.md §2.2 C2/P3), so spans index blocks directly.
"""

from __future__ import annotations

from engine.pdfx.content import decode_pdf_string, interpret
from engine.pdfx.layout import page_blocks
from engine.pdfx.objects import (PdfError, PdfNeedsOcr, Stream, get_pages,
                                 page_content, parse_objects, resolve)


def _has_image_xobjects(objects: dict, pages: list[dict]) -> bool:
    for page in pages:
        res = resolve(objects, page.get("Resources"))
        if not isinstance(res, dict):
            continue
        xobjs = resolve(objects, res.get("XObject"))
        if not isinstance(xobjs, dict):
            continue
        for ref in xobjs.values():
            st = resolve(objects, ref)
            if isinstance(st, Stream) and st.dict.get("Subtype") == "Image":
                return True
    return False


def pdf_title(objects: dict, trailer: dict) -> str:
    """H4 analog for PDFs: /Info → /Title (the metadata pdfminer surfaces as
    the document title); '' when absent or non-string."""
    info = resolve(objects, trailer.get("Info"))
    if not isinstance(info, dict):
        return ""
    title = resolve(objects, info.get("Title"))
    if isinstance(title, bytes):
        if title[:2] in (b"\xfe\xff", b"\xff\xfe"):  # UTF-16 text string
            try:
                return title.decode("utf-16")
            except UnicodeDecodeError:
                return ""
        return decode_pdf_string(title)
    return ""


def extract_pdf_doc(data: bytes, password: "bytes | str" = b""
                    ) -> tuple[str, str, list[dict]]:
    """PDF bytes → (title, text, block spans). Raises PdfError on malformed
    input (caller maps that to a per-row status='failed',
    app/main.py:438-441 analog). ``password``: optional user password for
    encrypted documents (RC4/AESV2/AESV3 — same key-derivation paths the
    empty-password fast path uses)."""
    objects, trailer = parse_objects(data, password)
    title = pdf_title(objects, trailer)
    text, spans = _pages_text(objects, trailer)
    return title, text, spans


def extract_pdf(data: bytes, password: "bytes | str" = b""
                ) -> tuple[str, list[dict]]:
    """PDF bytes → (text, block spans); see extract_pdf_doc for the titled
    variant."""
    objects, trailer = parse_objects(data, password)
    return _pages_text(objects, trailer)


def _pages_text(objects: dict, trailer: dict) -> tuple[str, list[dict]]:
    from engine.pdfx.cmap import build_page_fonts

    pages = get_pages(objects, trailer)
    parts: list[str] = []
    spans: list[dict] = []
    offset = 0
    for pi, page in enumerate(pages):
        if pi > 0:
            parts.append("\x0c")
            offset += 1
        runs = interpret(page_content(objects, page),
                         build_page_fonts(objects, page))
        blocks = page_blocks(runs)
        for bi, (_y, _x, lines) in enumerate(blocks):
            if bi > 0:
                parts.append("\n\n")
                offset += 2
            text = "\n".join(lines)
            nbytes = len(text.encode("utf-8"))
            spans.append({"kind": "para", "start": offset, "end": offset + nbytes})
            parts.append(text)
            offset += nbytes
    text = "".join(parts)
    if not text.strip() and _has_image_xobjects(objects, pages):
        # scanned/image-only PDF: no text operators produced output but the
        # pages carry image XObjects — signal the OCR channel instead of
        # silently emitting an empty document (VERDICT r3 missing #1)
        raise PdfNeedsOcr("image-only PDF: no text operators, "
                          f"{len(pages)} page(s) with image XObjects")
    return text, spans


def extract_pdf_text(data: bytes) -> str:
    return extract_pdf(data)[0]
