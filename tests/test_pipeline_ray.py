"""Distributed == sequential (SURVEY.md §5.2 item 3): the Ray pipeline output,
sorted by url, must be byte-identical to the single-threaded oracle at any
parallelism — the invariant that matters at 10^12 rows (determinism under
reordering, retries, repartitioning)."""

from __future__ import annotations

from pathlib import Path

import pyarrow as pa
import pyarrow.parquet as pq

from engine.fixtures import write_pages_parquet, gen_pages_table
from engine.pipeline import (PipelineConfig, extract_from_parquet,
                             extract_pages, parquet_inputs, plan_morsels)
from tests.gen_fixtures import oracle_extract

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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


def test_file_morsels_equal_sequential(ray_session, tmp_path, monkeypatch):
    """Consecutive files share a task until their pages reach one small Ray
    block, with at least one task per CPU; files in nested directories are
    read; the output still equals the sequential oracle."""
    from ray.data import DataContext

    from engine.pipeline import _page_bytes

    pages = gen_pages_table(60, seed=17)
    src = tmp_path / "pages"
    for i in range(6):  # a/ and b/c/, three files each
        sub = src / ("a" if i < 3 else "b/c")
        sub.mkdir(parents=True, exist_ok=True)
        pq.write_table(pages.slice(10 * i, 10), sub / f"{i}.parquet")
    files = parquet_inputs(str(src))
    assert [Path(f).name for f in files] == [f"{i}.parquet" for i in range(6)]
    assert plan_morsels(files, cpus=1) == [files]  # 60 small pages
    assert plan_morsels(files, cpus=8) == [[f] for f in files]

    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size",
                        _page_bytes(files[0]) + _page_bytes(files[1]))
    morsels = plan_morsels(files, cpus=2)  # two even runs of three files
    assert morsels[:2] == [files[:2], files[2:3]]  # cut at the block size
    assert [f for m in morsels for f in m] == files

    got = extract_from_parquet(str(src), PipelineConfig(batch_size=4))
    got_rows = _sorted_rows(pa.Table.from_pylist(got.take_all()))
    assert got_rows == _sorted_rows(oracle_extract(pages))


def test_parquet_inputs(tmp_path):
    """A list may mix files and directories; no input file is an error."""
    import pytest

    write_pages_parquet(str(tmp_path / "d"), 4, seed=3, num_files=2)
    one = str(tmp_path / "one.parquet")
    pq.write_table(gen_pages_table(2, seed=3), one)
    assert parquet_inputs([one, str(tmp_path / "d")]) == [
        one, *(str(tmp_path / "d" / f"pages-{i:05d}.parquet") for i in (0, 1))]
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError, match="no Parquet files"):
        parquet_inputs(str(tmp_path / "empty"))


def _perfbench_udf_cpu_s():
    """``udf_cpu_s`` of perfbench/run.py, compiled from its source so that
    nothing is written next to it."""
    namespace = {"__name__": "perfbench_run", "__file__": str(RUN_PY)}
    exec(compile(RUN_PY.read_text(), str(RUN_PY), "exec"), namespace)
    return namespace["udf_cpu_s"]


def test_benchmark_finds_the_extract_operator(ray_session, tmp_path):
    """perfbench's per-page CPU metric reads the ``Dataset.stats()`` operator
    whose name holds ``extract_batch`` and never looks at operator 0. The
    plain plan keeps both true: ``FromItems`` is operator 0, the extract
    task reads its own pages (no ``ReadParquet``), and its operator name
    keeps ``extract_batch``."""
    src = str(tmp_path / "pages")
    write_pages_parquet(src, 20, seed=5, num_files=2)
    ds = extract_from_parquet(src)
    ds.write_parquet(str(tmp_path / "out"))
    stats = ds.stats()
    assert "ReadParquet" not in stats
    assert _perfbench_udf_cpu_s()(stats) > 0


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


def test_readme_plain_write_line_runs(ray_session, tmp_path):
    """README.md's plain-write example line runs as written (its output path
    swapped for a temporary one) and writes every row with EXTRACTED's
    columns."""
    import os

    import pyarrow.parquet as pq

    from engine.schema import EXTRACTED

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as f:
        [line] = [ln for ln in f if ln.startswith("extracted.write_parquet(")]
    out = str(tmp_path / "plain")
    code = line.split("#")[0].replace('"/out/plain"', repr(out))
    src = str(tmp_path / "pages")
    write_pages_parquet(src, 20, seed=13, num_files=2)
    exec(code, {"extracted": extract_from_parquet(src)})
    written = pq.read_table(out)
    assert written.num_rows == 20
    assert written.schema.names == EXTRACTED.names
