"""The extraction kernel (C2) and its stateful actor stage (C1/ST1).

Per-row semantics mirror the reference's conversion path (SURVEY.md §3.1):
magic-byte sniff replaces the extension dispatch (app/main.py:224); the
50 MiB gate (app/main.py:644-648) becomes a per-row 'rejected' status; per-row
failure becomes status='failed' + error, never poisoning the batch
(app/main.py:438-441 analog; SURVEY.md §4.3).

A payload with no recognizable structure at all (no magic bytes AND no HTML
elements — e.g. the reference's own test_document.txt) is 'rejected',
mirroring validate_file's extension gate (app/main.py:221-236). Documented
deviation: we sniff content, the reference sniffs filenames.

``plain_text`` applies the reference's markdown→plain strip chain
(app/main.py:262-269) because its *actual* default output format is "text"
(app/main.py:632, M11 quirk).
"""

from __future__ import annotations

import gc

import pyarrow as pa

# The kernel allocates millions of short-lived, ACYCLIC objects per task
# (DOM nodes carry no parent pointers — see engine/htmlx/dom.py — so
# refcounting frees every tree immediately). CPython's generational cycle
# collector only adds cache-thrashing heap scans here, which is exactly the
# shared-L3 pressure behind the measured 16→32-proc scaling knee
# (BASELINE.md). Raise the gen-0 threshold in every process that imports
# the kernel (Ray workers re-import per process, so this lands once per
# worker, not per batch).
gc.set_threshold(200_000, 50, 50)

from engine.docxx import DocxError
from engine.htmlx import parse_html, strip_boilerplate, extract_title
from engine.htmlx.dom import Node
from engine.mdserialize import serialize
from engine.pdfx import PdfError
from engine.pdfx.objects import PdfNeedsOcr
from engine.schema import EXTRACTED, MAX_FILE_SIZE
from engine.textops import markdown_to_plain

_EMPTY = {"title": "", "markdown_text": "", "plain_text": "", "spans": [],
          "n_chars": 0}

# Per-row wall-clock budget. The reference DECLARES a 300 s conversion
# timeout but never enforces it (app/main.py:208, SURVEY.md §2.12); we do
# enforce it — a 10^12-row run cannot hang on one row — via SIGALRM when the
# kernel runs on a main thread (Ray task/actor UDFs do), else best-effort
# no-op. Documented deviation, same default value.
ROW_TIMEOUT_S = 300.0


class _RowTimeout(Exception):
    pass


def _run_with_timeout(fn, payload: bytes, timeout_s: float):
    import signal
    import threading

    if timeout_s <= 0 or threading.current_thread() is not threading.main_thread():
        return fn(payload)

    def _raise(signum, frame):
        raise _RowTimeout(f"row exceeded {timeout_s}s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        return fn(payload)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def sniff_format(payload: bytes) -> str:
    for magic, fmt in _MAGIC:
        if payload[: len(magic)] == magic:
            return fmt
    return "html"


def _extract_html(payload: bytes) -> tuple[str, str, list[dict]] | dict:
    root = parse_html(payload)
    if not _has_element(root):
        return {**_EMPTY, "format": "html", "status": "rejected",
                "error": "unsupported format: no document structure"}
    title = extract_title(root)
    content = strip_boilerplate(root)
    markdown, spans = serialize(content)
    return title, markdown, spans


def _extract_pdf(payload: bytes) -> tuple[str, str, list[dict]]:
    from engine.pdfx.extract import extract_pdf_doc

    return extract_pdf_doc(payload)  # title from /Info /Title (H4 analog)


def _extract_docx(payload: bytes) -> tuple[str, str, list[dict]]:
    from engine.docxx import docx_document

    # one zip open for both document.xml and core properties; the core
    # title wins when present (mammoth's document metadata surface), else
    # first heading, as before
    tree, props = docx_document(payload)
    title = props["title"] or extract_title(tree)
    markdown, spans = serialize(tree)
    return title, markdown, spans


# The user-extension surface (SURVEY.md §2.11): per-format extractor registry
# keyed on magic-byte sniff — the rebuild of MarkItDown's register_converter.
# An extractor takes payload bytes and returns (title, markdown, spans), or a
# complete row dict to short-circuit (e.g. a rejection).
_MAGIC: list[tuple[bytes, str]] = [(b"%PDF-", "pdf"), (b"PK\x03\x04", "docx")]
EXTRACTORS: dict[str, object] = {
    "html": _extract_html,
    "pdf": _extract_pdf,
    "docx": _extract_docx,
}


def register_extractor(fmt: str, fn, magic: bytes | None = None) -> None:
    """Register a new payload format: ``fn(payload) -> (title, md, spans)``.

    NOTE: registration is per-process; in a Ray pipeline, call this at module
    import time (workers re-import modules) or wrap the stage in an actor
    whose __init__ registers the format."""
    EXTRACTORS[fmt] = fn
    if magic is not None:
        _MAGIC.insert(0, (magic, fmt))


def _has_element(node: Node) -> bool:
    return any(isinstance(c, Node) for c in node.children)


def extract_row(payload: bytes, max_file_size: int = MAX_FILE_SIZE,
                row_timeout_s: float = ROW_TIMEOUT_S) -> dict:
    """One payload → the extracted-column dict (everything but url)."""
    size = len(payload)
    if size > max_file_size:
        return {**_EMPTY, "format": "", "status": "rejected",
                "error": f"file too large: {size} > {max_file_size}"}
    if size == 0:
        return {**_EMPTY, "format": "", "status": "failed",
                "error": "empty payload"}
    fmt = sniff_format(payload)
    try:
        result = _run_with_timeout(EXTRACTORS[fmt], payload, row_timeout_s)
        if isinstance(result, dict):  # extractor short-circuited a full row
            return result
        title, markdown, spans = result
    except PdfNeedsOcr as exc:
        # scanned/image-only PDF: not a failure — a routable work channel
        # (an OCR-equipped deployment re-drives this partition; the OCR
        # kernel itself is a clearly-marked stub, engine/pdfx/extract.py)
        return {**_EMPTY, "format": fmt, "status": "needs_ocr",
                "error": str(exc)}
    except (PdfError, DocxError, _RowTimeout) as exc:
        return {**_EMPTY, "format": fmt, "status": "failed", "error": str(exc)}
    except Exception as exc:  # any residual parser bug: fail the row, not the task
        return {**_EMPTY, "format": fmt, "status": "failed",
                "error": f"{type(exc).__name__}: {exc}"}
    return {
        "title": title,
        "markdown_text": markdown,
        "plain_text": markdown_to_plain(markdown),
        "spans": spans,
        "n_chars": len(markdown),
        "format": fmt,
        "status": "ok",
        "error": "",
    }


class ExtractActor:
    """Stateful map_batches stage (C1 analog of the once-per-process
    MarkItDown() at app/main.py:201).

    All parser state that is buildable ahead of time — compiled regexes,
    entity tables, tag-policy sets — is module-level in the engine submodules
    and therefore warmed on first import in ``__init__``; per-batch work is
    pure compute. Arrow in / Arrow out (zero-copy from the object store).
    """

    def __init__(self, max_file_size: int = MAX_FILE_SIZE,
                 row_timeout_s: float = ROW_TIMEOUT_S,
                 carry: tuple[str, ...] = ()):
        self.max_file_size = max_file_size
        self.row_timeout_s = row_timeout_s
        # input columns passed through unchanged after the EXTRACTED ones
        # (e.g. the read's ``path`` tag that routes checkpointed rows)
        self.carry = carry
        # Warm every parser path once so per-batch latency is flat.
        extract_row(b"<html><body><p>warm</p></body></html>")
        import engine.fixtures  # noqa: F401  (zlib/zipfile import warm-up)

    def __call__(self, batch: pa.Table) -> pa.Table:
        # one bulk conversion per column beats per-element .as_py() calls
        urls = batch["url"].to_pylist()
        payloads = batch["html"].to_pylist()
        out: dict[str, list] = {name: [] for name in EXTRACTED.names}
        out["url"] = urls
        for payload in payloads:
            row = extract_row(payload or b"", self.max_file_size,
                              self.row_timeout_s)
            for key, val in row.items():
                out[key].append(val)
        table = pa.table(out, schema=EXTRACTED)
        for name in self.carry:
            table = table.append_column(batch.schema.field(name), batch[name])
        return table


def extract_batch(batch: pa.Table, max_file_size: int = MAX_FILE_SIZE,
                  row_timeout_s: float = ROW_TIMEOUT_S,
                  carry: tuple[str, ...] = ()) -> pa.Table:
    """Stateless-task form of the same transform (the default pipeline stage)."""
    return ExtractActor(max_file_size, row_timeout_s, carry)(batch)
