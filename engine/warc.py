"""WARC ingestion — raw Common-Crawl-style web archives → the (url, html)
pages-table shape the extraction pipeline consumes (SURVEY §2.1 S1: the
reference accepts raw uploads; at web scale the upload IS a crawl archive).

Stdlib-only WARC/1.0 parser (ISO 28500): records are
``WARC/1.0\\r\\n<headers>\\r\\n\\r\\n<Content-Length payload>\\r\\n\\r\\n``;
``.warc.gz`` files are per-record gzip members (the Common Crawl layout),
handled by a multi-member zlib loop. Only ``WARC-Type: response`` records
yield rows; the HTTP envelope inside the payload is stripped.

Scale plan: ``read_warc`` maps ``ray.data.read_binary_files`` with
``batch_size=1`` (one archive per task — archives are the natural work
unit and record explosion is CPU-light vs the downstream parse), emitting
(url, html, warc_date) rows that flow straight into
``engine.pipeline.extract_pages``. The fixture writer lives here too so
tests and benchmarks synthesize archives deterministically (no external
data).
"""

from __future__ import annotations

import gzip
import zlib

import pyarrow as pa

import ray.data


def _gunzip_members(data: bytes) -> bytes:
    """Concatenated-member gzip decode (the .warc.gz record-per-member
    layout); plain passthrough for uncompressed archives."""
    if not data.startswith(b"\x1f\x8b"):
        return data
    out = bytearray()
    while data.startswith(b"\x1f\x8b"):  # tolerate trailing pad/garbage
        d = zlib.decompressobj(wbits=31)
        out += d.decompress(data)
        out += d.flush()
        data = d.unused_data
    return bytes(out)


def iter_warc_records(data: bytes):
    """Yield (headers: dict[lower,str], payload: bytes) per WARC record.
    Tolerant scan: records are located by their version line, payloads
    sliced by Content-Length (the spec's framing — no guessing)."""
    data = _gunzip_members(data)
    pos = 0
    n = len(data)
    while pos < n:
        idx = data.find(b"WARC/", pos)
        if idx < 0:
            return
        hdr_end = data.find(b"\r\n\r\n", idx)
        if hdr_end < 0:
            return
        fields: dict[str, str] = {}
        for ln in data[idx:hdr_end].split(b"\r\n")[1:]:
            k, _, v = ln.partition(b":")
            fields[k.strip().lower().decode("ascii", "replace")] = \
                v.strip().decode("utf-8", "replace")
        try:
            clen = int(fields.get("content-length", "0"))
        except ValueError:
            clen = 0
        payload = data[hdr_end + 4:hdr_end + 4 + clen]
        yield fields, payload
        pos = hdr_end + 4 + clen


def _http_body(payload: bytes) -> bytes:
    """Strip the HTTP response envelope of a ``response`` record payload."""
    if payload[:5] in (b"HTTP/",):
        sep = payload.find(b"\r\n\r\n")
        if sep >= 0:
            return payload[sep + 4:]
    return payload


def warc_rows(data: bytes) -> pa.Table:
    """One archive's ``response`` records as a (url, html, warc_date)
    Arrow table — skips warcinfo/request/metadata records. ``html`` is
    BINARY (the pages-table shape: payloads may be PDF/DOCX bytes; the
    extraction registry dispatches on magic bytes, engine/extract.py)."""
    urls: list[str] = []
    htmls: list[bytes] = []
    dates: list[str] = []
    for fields, payload in iter_warc_records(data):
        if fields.get("warc-type") != "response":
            continue
        urls.append(fields.get("warc-target-uri", ""))
        htmls.append(_http_body(payload))
        dates.append(fields.get("warc-date", ""))
    return pa.table({
        "url": pa.array(urls, type=pa.string()),
        "html": pa.array(htmls, type=pa.binary()),
        "warc_date": pa.array(dates, type=pa.string()),
    })


def read_warc(paths: "str | list[str]") -> "ray.data.Dataset":
    """Dataset of (url, html, warc_date) rows from WARC / .warc.gz
    archives. One archive per task (``batch_size=1``): archives are the
    resume/retry unit, and per-record work is trivial next to the
    downstream DOM parse — the extraction stage re-batches anyway."""
    files = ray.data.read_binary_files(paths)

    def explode(t: pa.Table) -> pa.Table:
        parts = [warc_rows(buf) for buf in t["bytes"].to_pylist()]
        if not parts:
            return warc_rows(b"")
        return pa.concat_tables(parts)

    return files.map_batches(explode, batch_format="pyarrow", batch_size=1)


def write_warc(path: str, rows: "list[tuple[str, str | bytes]]",
               gzip_members: bool = False,
               date: str = "2026-01-01T00:00:00Z") -> None:
    """Deterministic WARC fixture writer (tests/bench synthesis only):
    one warcinfo record + one HTTP-enveloped response record per (url,
    payload) pair; ``gzip_members=True`` writes the .warc.gz
    member-per-record layout."""
    def record(rtype: str, payload: bytes, extra: str = "") -> bytes:
        hdr = (f"WARC/1.0\r\nWARC-Type: {rtype}\r\nWARC-Date: {date}\r\n"
               f"{extra}Content-Length: {len(payload)}\r\n\r\n")
        rec = hdr.encode("ascii") + payload + b"\r\n\r\n"
        if gzip_members:
            rec = gzip.compress(rec, mtime=0)
        return rec

    out = bytearray()
    out += record("warcinfo", b"software: engine-fixture\r\n")
    for url, html in rows:
        body = html.encode("utf-8") if isinstance(html, str) else html
        http = (b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n\r\n"
                + body)
        out += record("response", http,
                      extra=f"WARC-Target-URI: {url}\r\n")
    with open(path, "wb") as f:
        f.write(bytes(out))
