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


def _committed_bytes(out: str, pid: int) -> int:
    return sum(os.path.getsize(f)
               for f in cp._parquet_files(cp.part_dir(out, pid)))


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
        assert m["bytes_out"] == _committed_bytes(out, m["partition_id"])
        assert m["wall_s"] > 0


def _leaf_paths(schema: pa.Schema) -> set[str]:
    """Parquet leaf column paths (``spans.list.element.kind``) of a schema."""
    import io

    buf = io.BytesIO()
    pq.write_table(schema.empty_table(), buf)
    meta = pq.read_metadata(io.BytesIO(buf.getvalue()))
    return {meta.schema.column(i).path for i in range(meta.num_columns)}


def test_parquet_policy_names_real_columns():
    """pyarrow ignores unknown names in use_dictionary, write_statistics and
    column_encoding, so a renamed column would drop out of the policy
    silently."""
    from engine.schema import EXTRACTED, EXTRACTED_PARQUET

    leaves = _leaf_paths(EXTRACTED) | {"url_hash"}
    for key in ("use_dictionary", "write_statistics", "column_encoding"):
        assert set(EXTRACTED_PARQUET[key]) <= leaves, key


@pytest.mark.parametrize("buckets", [0, 8])
def test_committed_files_follow_parquet_policy(ray_session, tmp_path,
                                               buckets):
    """Every committed column chunk is zstd, carries statistics exactly when
    its column is in write_statistics, a dictionary page exactly when it is
    in use_dictionary and delta-encoded pages when column_encoding says so;
    no footer carries a copy of the Arrow schema."""
    from engine.schema import EXTRACTED_PARQUET

    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=29, num_files=2)
    cp.run_extraction(src, out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)
    stats_cols = set(EXTRACTED_PARQUET["write_statistics"])
    dict_cols = set(EXTRACTED_PARQUET["use_dictionary"])
    delta_cols = {"spans.list.element.start", "spans.list.element.end",
                  "n_chars"}
    assert EXTRACTED_PARQUET["column_encoding"] == dict.fromkeys(
        delta_cols, "DELTA_BINARY_PACKED")
    files = [f for pid in (0, 1)
             for f in cp._parquet_files(cp.part_dir(out, pid))]
    assert files
    for path in files:
        meta = pq.read_metadata(path)
        assert b"ARROW:schema" not in (meta.metadata or {}), path
        for rg in range(meta.num_row_groups):
            for i in range(meta.num_columns):
                col = meta.row_group(rg).column(i)
                name = col.path_in_schema
                assert col.compression == "ZSTD", (path, name)
                assert col.is_stats_set == (name in stats_cols), (path, name)
                assert col.has_dictionary_page == (name in dict_cols), (
                    path, name)
                assert ("DELTA_BINARY_PACKED" in col.encodings) == (
                    name in delta_cols), (path, name, col.encodings)


# The policy checkpoint files were written with before it dropped the
# ARROW:schema footer key, delta-encoded the integer columns and raised the
# zstd level: files an earlier run committed carry it.
_EARLIER_PARQUET = {
    "compression": "zstd",
    "use_dictionary": ["format", "status", "error", "spans.list.element.kind"],
    "write_statistics": ["url", "url_hash", "n_chars", "format", "status"],
}


@pytest.mark.parametrize("buckets", [0, 8])
def test_resume_over_files_of_the_earlier_policy(ray_session, tmp_path,
                                                 buckets):
    """A run committed under the earlier policy, resumed under the current
    one, reads back equal to a clean run: same schema, same rows."""
    from engine.schema import EXTRACTED

    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=30, num_files=2)
    ref_out = str(tmp_path / "ref")
    cp.run_extraction(src, ref_out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)

    cp.run_extraction(src, out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)
    for path in cp._parquet_files(out):  # both partitions, earlier policy
        pq.write_table(pq.read_table(path), path, **_EARLIER_PARQUET)
    os.remove(os.path.join(out, "_manifest", "part-00001.json"))
    cp.run_extraction(src, out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)

    def has_arrow_schema(pid):
        return {b"ARROW:schema" in (pq.read_metadata(f).metadata or {})
                for f in cp._parquet_files(cp.part_dir(out, pid))}

    assert has_arrow_schema(0) == {True}  # the mix really happened
    assert has_arrow_schema(1) == {False}
    for path in cp._parquet_files(out):
        assert pq.read_table(path, columns=EXTRACTED.names).schema.equals(
            EXTRACTED), path
    assert cp.read_extracted(out).schema().base_schema.equals(EXTRACTED)
    assert _sorted_rows(out) == _sorted_rows(ref_out)


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


def test_plan_tasks_fill_the_cpus_with_file_runs():
    """One task per pending partition, split into runs of its files only
    while CPUs would sit idle; every file is in exactly one task, in order."""
    files = [f"f{i:02d}" for i in range(64)]
    parts = dict(enumerate(cp.plan_partitions(files, 16)))

    def shape(todo, cpus):
        tasks = cp._plan_tasks(todo, cpus)
        for pid, pfiles in todo.items():
            mine = [t for t in tasks if t["partition"] == pid]
            assert [f for t in mine for f in t["files"]] == pfiles
            assert all(pfiles[t["first"]] == t["files"][0] for t in mine)
        return len(tasks)

    assert shape(parts, 1) == 16  # never fewer tasks than partitions
    assert shape(parts, 32) == 32  # 16 partitions of 4 files: 2 runs each
    assert shape(parts, 128) == 64  # at most one task per file
    assert shape({3: parts[3], 9: parts[9]}, 32) == 8  # a resume of 2
    assert shape({0: ["a", "b"], 1: ["c", "d"], 2: ["e", "f"],
                  3: ["g", "h"]}, 1) == 4


def test_tasks_per_pending_partition_fill_the_cpus(ray_session, tmp_path,
                                                   monkeypatch):
    """The run is one map operator over task rows, with no Parquet read
    stage. On the 4-CPU test cluster, partitions of one file run one task
    each; partitions of two files split into a task per file, fresh and on
    resume."""
    import re

    built = []
    build = cp._extraction

    def record(*args):
        built.append(build(*args))
        return built[-1]

    def tasks_run() -> int:
        stats = built[-1].stats()
        operators = [line for line in stats.splitlines()
                     if line.startswith("Operator ")]
        assert not any("ReadParquet" in op for op in operators), operators
        maps = [op for op in operators if "MapBatches" in op]
        assert len(maps) == 1, operators
        assert "_extract_files" in maps[0], operators
        return int(re.search(r"(\d+) tasks executed", maps[0]).group(1))

    def file_names(out: str) -> set[str]:
        return {os.path.basename(f) for pid in (0, 1)
                for f in cp._parquet_files(cp.part_dir(out, pid))}

    monkeypatch.setattr(cp, "_extraction", record)
    for num_files, tasks, names in [
            (2, 2, {"00000.parquet"}),
            (4, 4, {"00000.parquet", "00001.parquet"})]:
        src = str(tmp_path / f"pages{num_files}")
        out = str(tmp_path / f"out{num_files}")
        write_pages_parquet(src, 40, seed=28, num_files=num_files)
        cp.run_extraction(src, out, CFG, num_partitions=2, url_hash_buckets=8)
        assert tasks_run() == tasks
        assert file_names(out) == names
    os.remove(os.path.join(out, "_manifest", "part-00000.json"))
    cp.run_extraction(src, out, CFG, num_partitions=2, url_hash_buckets=8)
    assert len(built) == 3  # one execution per run
    assert tasks_run() == 2
    assert cp.done_partitions(out) == {0, 1}


def test_retried_task_overwrites_its_files(tmp_path):
    """A task called again over the same files overwrites the files its
    first attempt wrote, and writes beside its sibling's; one row group per
    file. Called in this process, no Ray involved."""
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=32, num_files=2)
    files = sorted(os.path.join(src, n) for n in os.listdir(src))
    tmp_dir = cp.part_dir(out, 0) + ".tmp"
    tasks = cp._plan_tasks({0: files}, cpus=2)
    assert [t["first"] for t in tasks] == [0, 1]
    for attempt in range(2):
        for task in tasks:
            counts = cp._extract_files(pa.Table.from_pylist([task]), out, CFG,
                                       url_hash_buckets=8)
            assert counts.to_pylist() == [
                {"partition": 0, "rows": 20,
                 "rows_ok": counts["rows_ok"][0].as_py()}], attempt
        buckets = sorted(os.listdir(tmp_dir))
        assert buckets and all(b.startswith("bucket=") for b in buckets)
        for bucket in buckets:
            names = os.listdir(os.path.join(tmp_dir, bucket))
            assert set(names) <= {"00000.parquet", "00001.parquet"}, names
            for name in names:
                meta = pq.read_metadata(os.path.join(tmp_dir, bucket, name))
                assert meta.num_row_groups == 1, (bucket, name)
        assert sum(pq.read_metadata(f).num_rows
                   for f in cp._parquet_files(tmp_dir)) == 40, attempt
    with pytest.raises(ValueError):  # one task row per Ray task, no more
        cp._extract_files(pa.Table.from_pylist(tasks), out, CFG, 8)


def test_row_count_guard_waits_for_every_task(ray_session, tmp_path,
                                              monkeypatch):
    """A partition split into two tasks commits only once both report: its
    first task alone matching the (skewed) footer count commits nothing."""
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=35, num_files=4)  # 10 rows a file
    second = sorted(os.listdir(src))[2]  # partition 1's first file
    footer_rows = cp._footer_rows
    monkeypatch.setattr(
        cp, "_footer_rows",
        lambda files: footer_rows(files)
        - (10 if os.path.basename(files[0]) == second else 0))
    with pytest.raises(RuntimeError, match="20/10"):
        cp.run_extraction(src, out, CFG, num_partitions=2)
    assert cp.done_partitions(out) == {0}
    assert not os.path.exists(cp.part_dir(out, 1))


def test_stale_tmp_files_are_wiped_before_the_run(ray_session, tmp_path):
    """A file a dead run left in a pending partition's ``part-P.tmp`` is
    gone after the run, and the committed rows equal a clean run's."""
    src = str(tmp_path / "pages")
    write_pages_parquet(src, 40, seed=36, num_files=2)
    ref_out = str(tmp_path / "ref")
    cp.run_extraction(src, ref_out, CFG, num_partitions=1, url_hash_buckets=8)
    out = str(tmp_path / "out")
    stale = os.path.join(cp.part_dir(out, 0) + ".tmp", "bucket=9",
                         "stale.parquet")
    os.makedirs(os.path.dirname(stale))
    pq.write_table(pa.table({"url": ["stale"]}), stale)
    cp.run_extraction(src, out, CFG, num_partitions=1, url_hash_buckets=8)
    assert not os.path.exists(os.path.join(cp.part_dir(out, 0), "bucket=9"))
    assert _sorted_rows(out) == _sorted_rows(ref_out)


def test_small_block_size_adds_row_groups(ray_session, tmp_path, monkeypatch):
    """Below Ray's target block size a task starts a new row group each time
    its buffered output passes the limit; the rows read back unchanged."""
    from ray.data import DataContext

    src = str(tmp_path / "pages")
    write_pages_parquet(src, 60, seed=33, num_files=2)
    ref_out = str(tmp_path / "ref")
    cp.run_extraction(src, ref_out, CFG, num_partitions=2, url_hash_buckets=4)

    def row_groups(out):
        return [pq.read_metadata(f).num_row_groups
                for f in cp._parquet_files(out)]

    assert set(row_groups(ref_out)) == {1}
    out = str(tmp_path / "out")
    monkeypatch.setattr(DataContext.get_current(), "target_max_block_size",
                        1024)
    cp.run_extraction(src, out, CFG, num_partitions=2, url_hash_buckets=4)
    assert max(row_groups(out)) > 1
    assert len(row_groups(out)) == len(row_groups(ref_out))
    assert _sorted_rows(out) == _sorted_rows(ref_out)


@pytest.mark.parametrize("buckets", [0, 8])
def test_resume_over_the_per_block_file_layout(ray_session, tmp_path,
                                               buckets):
    """Partitions committed as several ``<task>-<seq>.parquet`` files per
    directory, the naming of runs whose write stage wrote one file per Ray
    block, resume into a run that equals a clean one."""
    src = str(tmp_path / "pages")
    out = str(tmp_path / "out")
    write_pages_parquet(src, 40, seed=34, num_files=2)
    ref_out = str(tmp_path / "ref")
    cp.run_extraction(src, ref_out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)

    cp.run_extraction(src, out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)
    for path in cp._parquet_files(out):  # both partitions, earlier naming
        table = pq.read_table(path)
        half = table.num_rows // 2
        for seq, part in enumerate((table.slice(0, half), table.slice(half))):
            pq.write_table(part, os.path.join(os.path.dirname(path),
                                              f"00003-{seq:05d}.parquet"))
        os.remove(path)
    os.remove(os.path.join(out, "_manifest", "part-00001.json"))
    cp.run_extraction(src, out, CFG, num_partitions=2,
                      url_hash_buckets=buckets)

    names = {pid: {os.path.basename(f)
                   for f in cp._parquet_files(cp.part_dir(out, pid))}
             for pid in (0, 1)}
    assert names[0] == {"00003-00000.parquet", "00003-00001.parquet"}
    assert names[1] == {"00000.parquet"}
    assert cp.done_partitions(out) == {0, 1}
    assert _sorted_rows(out) == _sorted_rows(ref_out)


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
    assert roll["bytes_out"] == sum(os.path.getsize(f)
                                    for f in cp._parquet_files(out)) > 0

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
