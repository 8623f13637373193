"""Kernel tests: sniffing, gates, per-row failure semantics, golden equality.

Golden test = SURVEY.md §5.2 item 1: the committed single-threaded oracle
output over the tiny corpus must match byte-for-byte.
"""

from __future__ import annotations

import gc
import signal
import time
from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from engine.extract import extract_row, sniff_format, extract_batch
from engine.fixtures import gen_pages_table
from engine.schema import EXTRACTED

FIXTURES = Path(__file__).parent / "fixtures"


def test_sniff():
    assert sniff_format(b"%PDF-1.4 ...") == "pdf"
    assert sniff_format(b"PK\x03\x04zipdata") == "docx"
    assert sniff_format(b"<html>") == "html"
    assert sniff_format(b"plain text") == "html"


def test_oversize_rejected():
    row = extract_row(b"x" * 100, max_file_size=50)
    assert row["status"] == "rejected"
    assert "file too large" in row["error"]


def test_empty_failed():
    row = extract_row(b"")
    assert row["status"] == "failed"
    assert row["error"] == "empty payload"


def test_plain_text_payload_rejected():
    # the reference's test_document.txt analog: no structure → rejected
    # (mirrors the extension gate app/main.py:221-236)
    row = extract_row("CONVERSION TEST\n\nEste es un documento.\n".encode())
    assert row["status"] == "rejected"


def test_truncated_pdf_failed_not_raised():
    row = extract_row(b"%PDF-1.4\n1 0 obj\n<< /Type /Catalog")
    assert row["status"] == "failed"
    assert row["format"] == "pdf"


def test_html_ok_row_shape():
    row = extract_row(b"<html><head><title>T</title></head><body><h1>H</h1><p>p</p></body></html>")
    assert row["status"] == "ok"
    assert row["title"] == "T"
    assert row["markdown_text"] == "# H\n\np"
    assert row["plain_text"] == "H\n\np"
    assert row["n_chars"] == len(row["markdown_text"])
    assert [s["kind"] for s in row["spans"]] == ["heading", "para"]


def test_extract_batch_schema():
    pages = gen_pages_table(20, seed=7)
    out = extract_batch(pages)
    assert out.schema.equals(EXTRACTED)
    assert out.num_rows == 20


def test_golden_byte_identity():
    """Sequential oracle over the tiny corpus == committed golden, byte for byte."""
    from tests.gen_fixtures import oracle_extract, TINY_ROWS, SEED

    golden = pq.read_table(FIXTURES / "golden_extracted.parquet")
    fresh = oracle_extract(gen_pages_table(TINY_ROWS, seed=SEED))
    assert fresh.num_rows == golden.num_rows
    for col in ("url", "title", "markdown_text", "plain_text", "status", "error"):
        assert fresh[col].to_pylist() == golden[col].to_pylist(), f"column {col} diverged"
    assert fresh["spans"].to_pylist() == golden["spans"].to_pylist()


def test_extractor_registry_roundtrip():
    from engine import extract as ex

    def tsv_extractor(payload: bytes):
        rows = payload[4:].decode().strip().split("\n")  # strip own magic
        md = "\n".join("| " + " | ".join(r.split("\t")) + " |" for r in rows)
        return "", md, [{"kind": "table", "start": 0,
                         "end": len(md.encode())}]

    ex.register_extractor("tsv", tsv_extractor, magic=b"TSV\x00")
    try:
        assert ex.sniff_format(b"TSV\x00a\tb") == "tsv"
        row = ex.extract_row(b"TSV\x00a\tb\nc\td")
        assert row["status"] == "ok"
        assert row["format"] == "tsv"
        assert row["markdown_text"] == "| a | b |\n| c | d |"
    finally:
        del ex.EXTRACTORS["tsv"]
        ex._MAGIC.remove((b"TSV\x00", "tsv"))
    # registry restored: magic now falls through to html
    assert ex.sniff_format(b"TSV\x00a\tb") == "html"


def test_extract_row_leaves_no_cyclic_garbage():
    """Refcounting frees everything a row allocates: no row leaves objects
    that only the cycle collector can reclaim. engine/extract.py raises the
    gen-0 GC threshold on this premise; a self-recursive nested function on
    the kernel path (its closure cell refers back to it) breaks it."""
    extract_row(b"<html><body><p>warm</p></body></html>")
    gc.collect()
    seen = set()
    for payload in gen_pages_table(200, seed=42)["html"].to_pylist():
        row = extract_row(payload or b"")
        seen.add((row["format"], row["status"]))
        assert gc.collect() == 0, (row["format"], row["status"])
    # every kernel path ran: the three formats, a rejection, failures
    assert {("html", "ok"), ("pdf", "ok"), ("docx", "ok"),
            ("html", "rejected"), ("pdf", "failed"),
            ("docx", "failed")} <= seen


def test_row_timeout_in_batch_fails_only_that_row():
    from engine import extract as ex

    def slow_extractor(payload: bytes):
        time.sleep(5)  # the row timer interrupts this
        return "", "never", []

    def previous_handler(signum, frame):
        raise AssertionError("the batch's own handler should have run")

    ex.register_extractor("slow", slow_extractor, magic=b"SLOW")
    old = signal.signal(signal.SIGALRM, previous_handler)
    try:
        batch = pa.table({"url": ["a", "b", "c"],
                          "html": [b"<p>first</p>", b"SLOW", b"<p>third</p>"]})
        out = ex.extract_batch(batch, row_timeout_s=0.05)
        assert out["status"].to_pylist() == ["ok", "failed", "ok"]
        assert out["error"].to_pylist() == ["", "row exceeded 0.05s", ""]
        assert out["markdown_text"].to_pylist()[2] == "third"
        assert signal.getsignal(signal.SIGALRM) is previous_handler
    finally:
        signal.signal(signal.SIGALRM, old)
        del ex.EXTRACTORS["slow"]
        ex._MAGIC.remove((b"SLOW", "slow"))
