"""Distributed == sequential (SURVEY.md §5.2 item 3): the Ray pipeline output,
sorted by url, must be byte-identical to the single-threaded oracle at any
parallelism — the invariant that matters at 10^12 rows (determinism under
reordering, retries, repartitioning)."""

from __future__ import annotations

import pyarrow as pa

from engine.fixtures import write_pages_parquet, gen_pages_table
from engine.pipeline import PipelineConfig, extract_from_parquet, extract_pages
from tests.gen_fixtures import oracle_extract


def _sorted_rows(table: pa.Table) -> list[dict]:
    rows = table.to_pylist()
    # duplicate urls exist by design (dedup fixtures): sort by full content
    return sorted(rows, key=lambda r: (r["url"], r["markdown_text"]))


def test_distributed_equals_sequential(ray_session, tmp_path):
    n = 120
    src = str(tmp_path / "pages")
    write_pages_parquet(src, n, seed=11, num_files=3)

    expected = _sorted_rows(oracle_extract(gen_pages_table(n, seed=11)))

    got = extract_from_parquet(src, PipelineConfig(batch_size=16))
    got_rows = _sorted_rows(pa.Table.from_pylist(got.take_all()))

    assert len(got_rows) == len(expected)
    for g, e in zip(got_rows, expected):
        assert g["url"] == e["url"]
        assert g["markdown_text"] == e["markdown_text"]
        assert g["plain_text"] == e["plain_text"]
        assert g["spans"] == e["spans"]
        assert g["status"] == e["status"]


def test_oversize_row_rejected_in_pipeline(ray_session, tmp_path):
    import ray.data as rd

    pages = gen_pages_table(10, seed=3)
    ds = rd.from_arrow(pages)
    out = extract_pages(ds, PipelineConfig(batch_size=4, max_file_size=700))
    statuses = [r["status"] for r in out.take_all()]
    assert "rejected" in statuses  # big HTML rows tripped the gate


def test_row_timeout_in_pipeline(ray_session):
    """The enforced per-row wall clock (SURVEY §2.12 deviation): a stuck row
    becomes status='failed' without poisoning the batch or the task."""
    import ray.data as rd

    import engine.extract  # noqa: F401 — keep module warm on driver

    def to_batch(t):
        # register a pathologically slow format INSIDE the worker process so
        # the stateless task sees it (per register_extractor's caveat)
        from engine import extract as ex

        if "hang" not in ex.EXTRACTORS:
            def hang(payload):
                import time as _t

                _t.sleep(30)
                return "", "late", []

            ex.register_extractor("hang", hang, magic=b"HANG")
        return ex.extract_batch(t, row_timeout_s=0.5)

    ds = rd.from_arrow(
        pa.Table.from_pydict({"url": ["slow", "ok"],
                              "html": [b"HANGxxxx", b"<p>fine</p>"]})
    )
    rows = {r["url"]: r for r in
            ds.map_batches(to_batch, batch_format="pyarrow").take_all()}
    assert rows["slow"]["status"] == "failed"
    assert "exceeded" in rows["slow"]["error"]
    assert rows["ok"]["status"] == "ok"
