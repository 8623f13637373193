"""Pinned Arrow schemas for every logical table (SURVEY.md §1.2).

Schemas are declared, not inferred: the ``html`` binary column carries skewed
payloads up to 50 MiB (reference cap, ``app/main.py:205``), so block sizing and
batch formats must be able to rely on exact types.
"""

from __future__ import annotations

import pyarrow as pa

# ---- input: Common-Crawl-style pages (authoritative shape: BASELINE.json input_hint)
PAGES = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

SPAN = pa.struct(
    [
        pa.field("kind", pa.string()),
        pa.field("start", pa.int64()),
        pa.field("end", pa.int64()),
    ]
)

# ---- output: one row per input row (replaces the reference's job store +
# result envelopes, app/main.py:79-97, :401-418, :702-719)
EXTRACTED = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("title", pa.string()),
        pa.field("markdown_text", pa.string()),
        pa.field("plain_text", pa.string()),
        pa.field("spans", pa.list_(SPAN)),
        pa.field("n_chars", pa.int64()),
        pa.field("format", pa.string()),  # sniffed: html|pdf|docx
        pa.field("status", pa.string()),  # ok | rejected | failed
        pa.field("error", pa.string()),
    ]
)

# ---- derived: exploded line-chunks (reference chunk_text, app/main.py:243-250)
CHUNKS = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("chunk_index", pa.int32()),
        pa.field("content", pa.string()),
        pa.field("char_count", pa.int64()),
    ]
)

# ---- checkpoint manifest: per-partition lineage + metrics (no reference
# equivalent; its job store is in-memory and lost on restart, app/main.py:97)
MANIFEST = pa.schema(
    [
        pa.field("partition_id", pa.int32()),
        pa.field("rows_in", pa.int64()),
        pa.field("rows_ok", pa.int64()),
        pa.field("rows_err", pa.int64()),
        pa.field("bytes_in", pa.int64()),
        pa.field("wall_s", pa.float64()),
        pa.field("output_path", pa.string()),
        pa.field("done", pa.bool_()),
    ]
)

# Reference config values carried forward (app/main.py:205-215). These are the
# semantics-bearing constants; dead knobs (SURVEY.md §2.12) are not carried.
MAX_FILE_SIZE = 50 * 1024 * 1024  # app/main.py:205 — larger rows → status='rejected'
CHUNK_SIZE = 1000  # lines per chunk, app/main.py:209
CHUNK_MIN_CHARS = 10_000  # chunk only when output exceeds this, app/main.py:394
PREVIEW_CHARS = 500  # content preview slice, app/main.py:547
