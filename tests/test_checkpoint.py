"""Checkpoint/resume tests (SURVEY.md §5.2 item 5) + stats layer."""

from __future__ import annotations

import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from engine import checkpoint as cp
from engine import stats
from engine.fixtures import write_pages_parquet
from engine.pipeline import PipelineConfig

CFG = PipelineConfig(batch_size=16)


def test_plan_partitions():
    files = [f"f{i}" for i in range(10)]
    parts = cp.plan_partitions(files, 4)
    assert sum(len(p) for p in parts) == 10
    assert [f for p in parts for f in p] == sorted(files)
    assert cp.plan_partitions(["a"], 8) == [["a"]]


def test_run_and_resume(ray_session, tmp_path):
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 80, seed=21, num_files=4)

    manifest = cp.run_extraction(src, out, CFG, num_partitions=4)
    assert manifest.num_rows == 4
    assert all(manifest["done"].to_pylist())
    assert sum(manifest["rows_in"].to_pylist()) == 80

    # capture manifest mtimes, then resume: nothing should recompute
    mtimes = {
        f: os.path.getmtime(os.path.join(out, "_manifest", f))
        for f in os.listdir(os.path.join(out, "_manifest"))
    }
    time.sleep(0.05)
    manifest2 = cp.run_extraction(src, out, CFG, num_partitions=4)
    mtimes2 = {
        f: os.path.getmtime(os.path.join(out, "_manifest", f))
        for f in os.listdir(os.path.join(out, "_manifest"))
    }
    assert mtimes == mtimes2  # completed partitions untouched
    assert manifest2.num_rows == 4


def _sorted_rows(out: str) -> list[dict]:
    return sorted(cp.read_extracted(out).take_all(),
                  key=lambda r: (r["url"], r["markdown_text"]))


def _committed_counts(out: str, pid: int) -> tuple[int, int]:
    """(rows, rows_ok) re-read from a committed partition's status column."""
    rows = ok = 0
    for path in cp._parquet_files(cp.part_dir(out, pid)):
        status = pq.read_table(path, columns=["status"])["status"]
        rows += len(status)
        ok += pc.sum(pc.equal(status, "ok")).as_py() or 0
    return rows, ok


@pytest.mark.parametrize("buckets", [0, 8])
def test_partial_run_resumes_only_missing(ray_session, tmp_path, buckets):
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 60, seed=22, num_files=3)

    # clean full run → reference output
    ref_out = str(tmp_path / "ref")
    cp.run_extraction(src, ref_out, CFG, num_partitions=3,
                      url_hash_buckets=buckets)
    ref = _sorted_rows(ref_out)

    # simulate a killed run: run all, then delete partition 1's manifest AND data
    cp.run_extraction(src, out, CFG, num_partitions=3,
                      url_hash_buckets=buckets)
    os.remove(os.path.join(out, "_manifest", "part-00001.json"))
    import shutil

    shutil.rmtree(cp.part_dir(out, 1))
    assert cp.done_partitions(out) == {0, 2}

    cp.run_extraction(src, out, CFG, num_partitions=3,
                      url_hash_buckets=buckets)
    assert cp.done_partitions(out) == {0, 1, 2}
    assert _sorted_rows(out) == ref  # equals a clean run


@pytest.mark.parametrize("buckets", [0, 8])
def test_manifest_counts_match_committed_status(ray_session, tmp_path,
                                                buckets):
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 80, seed=25, num_files=4)
    manifest = cp.run_extraction(src, out, CFG, num_partitions=4,
                                 url_hash_buckets=buckets)
    assert manifest.num_rows == 4
    for m in manifest.to_pylist():
        rows, ok = _committed_counts(out, m["partition_id"])
        assert (m["rows_in"], m["rows_ok"], m["rows_err"]) == (
            rows, ok, rows - ok)
        assert m["wall_s"] > 0


@pytest.mark.parametrize("skew", [-1, 1])
def test_row_count_guard_blocks_commit(ray_session, tmp_path, monkeypatch,
                                       skew):
    """A partition whose written rows overshoot its input's footer count, or
    end short of it, raises and leaves no committed partition behind."""
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=26, num_files=2)
    bad = sorted(os.listdir(src))[1]  # partition 1's only file
    footer_rows = cp._footer_rows
    monkeypatch.setattr(
        cp, "_footer_rows",
        lambda files: footer_rows(files)
        + (skew if os.path.basename(files[0]) == bad else 0))
    with pytest.raises(RuntimeError, match="partition"):
        cp.run_extraction(src, out, CFG, num_partitions=2)
    assert 1 not in cp.done_partitions(out)
    assert not os.path.exists(cp.part_dir(out, 1))


def test_wrong_schema_shard_fails_and_resume_heals(ray_session, tmp_path):
    """The last sorted shard carries ``html`` as int64: the run raises,
    every manifest it did write describes a complete partition, and once
    the shard is fixed a resume equals a clean run."""
    import shutil

    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 60, seed=27, num_files=3)
    ref_out = str(tmp_path / "ref")
    cp.run_extraction(src, ref_out, CFG, num_partitions=3)

    last = os.path.join(src, sorted(os.listdir(src))[-1])
    good = str(tmp_path / "good.parquet")
    shutil.copy(last, good)
    t = pq.read_table(last)
    pq.write_table(t.set_column(t.schema.get_field_index("html"), "html",
                                pa.array(range(t.num_rows), pa.int64())),
                   last)
    with pytest.raises(Exception):
        cp.run_extraction(src, out, CFG, num_partitions=3)
    parts = cp.plan_partitions(
        [os.path.join(src, n) for n in os.listdir(src)], 3)
    for m in cp.load_manifest(out):
        pid = m["partition_id"]
        footer = sum(pq.read_metadata(f).num_rows for f in parts[pid])
        assert m["rows_in"] == _committed_counts(out, pid)[0] == footer

    shutil.copy(good, last)
    cp.run_extraction(src, out, CFG, num_partitions=3)
    assert cp.done_partitions(out) == {0, 1, 2}
    assert _sorted_rows(out) == _sorted_rows(ref_out)


def test_extract_and_write_run_as_one_fused_operator(ray_session, tmp_path,
                                                     monkeypatch):
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=28, num_files=2)
    built = []
    build = cp._extract_and_write

    def record(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(cp, "_extract_and_write", record)
    cp.run_extraction(src, out, CFG, num_partitions=2, url_hash_buckets=8)
    assert len(built) == 1  # one execution for every partition
    operators = [line.split(":")[0] for line in built[0].stats().splitlines()
                 if line.startswith("Operator ")]
    assert any("MapBatches(extract_batch)->MapBatches(_write_block)" in op
               for op in operators), operators


def test_tmp_dir_from_dead_run_is_cleaned(ray_session, tmp_path):
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 20, seed=23, num_files=1)
    os.makedirs(cp.part_dir(out, 0) + ".tmp")  # orphaned tmp from a crash
    cp.run_extraction(src, out, CFG, num_partitions=1)
    assert not os.path.exists(cp.part_dir(out, 0) + ".tmp")
    assert cp.done_partitions(out) == {0}


def test_gc_runs(tmp_path):
    root = str(tmp_path / "runs")
    old = os.path.join(root, "run_old", "_manifest")
    new = os.path.join(root, "run_new", "_manifest")
    os.makedirs(old)
    os.makedirs(new)
    with open(os.path.join(old, "part-00000.json"), "w") as f:
        f.write("{}")
    with open(os.path.join(new, "part-00000.json"), "w") as f:
        f.write("{}")
    past = time.time() - 48 * 3600
    os.utime(os.path.join(old, "part-00000.json"), (past, past))
    assert cp.gc_runs(root, retention_hours=24) == 1
    assert not os.path.exists(os.path.join(root, "run_old"))
    assert os.path.exists(os.path.join(root, "run_new"))


def test_stats_layer(ray_session, tmp_path):
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 60, seed=24, num_files=2)
    manifest = cp.run_extraction(src, out, CFG, num_partitions=2)

    extracted = cp.read_extracted(out)
    by_status = {r["status"]: r["count"] for r in stats.job_stats(extracted).take_all()}
    assert by_status.get("ok", 0) > 40

    roll = stats.run_rollup(manifest)
    assert roll["partitions"] == 2
    assert roll["rows_in"] == 60
    assert roll["rows_ok"] == by_status.get("ok", 0)

    top = stats.list_rows(extracted, "n_chars", status="ok", limit=5,
                          tiebreak="url").take_all()
    assert len(top) == 5
    assert top[0]["n_chars"] >= top[-1]["n_chars"]

    chunks = stats.explode_chunks(extracted)
    assert chunks.count() >= extracted.count()  # giant rows explode into >1

    roll2 = stats.content_length_rollup(extracted)
    assert roll2["rows"] == 60


def test_url_hash_bucketed_output(ray_session, tmp_path):
    import glob

    from engine.partition import url_bucket

    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=31, num_files=2)
    manifest = cp.run_extraction(src, out, CFG, num_partitions=2,
                                 url_hash_buckets=8)
    assert manifest.num_rows == 2
    files = glob.glob(f"{out}/part-*/bucket=*/*.parquet")
    assert files
    for f in files[:4]:
        b = int(f.split("bucket=")[1].split("/")[0])
        t = pq.read_table(f, columns=["url"])
        assert all(url_bucket(u, 8) == b for u in t["url"].to_pylist())
    # read_extracted handles the nested layout; rows complete
    assert cp.read_extracted(out).count() == 40
