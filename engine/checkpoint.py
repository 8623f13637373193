"""Checkpoint store: partition manifests, atomic commit, resume, GC.

Replaces the reference's nothing (its in-memory jobs_store dies on restart,
app/main.py:97; temp files are GC'd blind after 24 h, app/main.py:301-343).
SURVEY.md §4.2 items 4-5.

Layout (resumable output — one directory per partition, never one giant file):

    out_dir/
      part-00007/[bucket=K/]00000.parquet  extracted rows of partition 7
      _manifest/part-00007.json            lineage + metrics, written AFTER data

Partitions are **file-granular**: the input parquet files are split into
``num_partitions`` contiguous groups, so a resume re-reads only the files of
the partitions it still owes. A partition is the unit that commits and
resumes; the cluster, not ``num_partitions``, sets how many tasks run.

Execution is ONE Ray Data stage of stateless tasks, one per pending
partition, or, while that would leave CPUs idle, one per contiguous run of
its files (``_plan_tasks``):

    from_items(one row per task: partition, first file index, files)
      → map_batches(_extract_files, batch_size=None): a task streams its
        files through ``pipeline.read_extract`` (the plain pipeline's
        read+extract core: ``url`` and ``html`` only, ``extract_batch``
        per batch) and writes one
        ``part-P.tmp/[bucket=K/]<first>.parquet`` per url-hash bucket with
        the per-column policy ``schema.EXTRACTED_PARQUET``; it returns one
        (partition, rows, rows_ok) row, so pages and extracted rows never
        enter the object store
      → driver: sums the counts per partition; once P's last task has
        reported, renames ``part-P.tmp`` to ``part-P``, then writes P's
        manifest. Readers take every ``*.parquet`` file under ``part-P``.

Memory bound: a task starts a new row group only when its buffered output
passes Ray's ``DataContext.target_max_block_size``, so it holds about one
Ray block, and a task of ordinary size writes one row group per file.

Atomicity: the driver wipes each pending ``part-P.tmp/`` before the stage.
A task's file names depend only on its files (a row's bucket is a hash of
its url), so a retried task overwrites its failed attempt's files instead
of duplicating rows. A crash at any point leaves each partition either
committed (data dir + manifest) or not done (a ``.tmp`` dir, or a data dir
with no manifest), which the next run wipes before it writes.

Row-count guard: a partition whose tasks report more or fewer rows than its
input's footer count is never committed, and the run raises once every
other partition has reported.

Manifest: ``rows_in``/``rows_ok``/``rows_err`` sum the partition's task
counts (no re-read of the committed ``status`` column). ``bytes_in`` sums the
sizes of the partition's input files and ``bytes_out`` those of its
committed Parquet files, read at commit time — exact under Ray task
retries, which overwrite their own files. ``wall_s`` is the seconds from the
start of the run to that partition's commit — partitions share one
execution, so their walls overlap rather than add up.

On resume, completed partitions are skipped via the manifest 'done' set — the
§2.5 anti-join, implemented as a driver-side broadcast set because the
manifest is tiny (one row per partition).
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data
from ray.data import DataContext

from engine.pipeline import PipelineConfig, parquet_inputs, read_extract
from engine.pipeline import parquet_files as _parquet_files
from engine.schema import EXTRACTED_PARQUET, MANIFEST


def plan_partitions(input_paths: list[str], num_partitions: int) -> list[list[str]]:
    """Split input files into ≤ num_partitions contiguous, sorted groups."""
    paths = sorted(input_paths)
    num_partitions = min(num_partitions, len(paths))
    per = (len(paths) + num_partitions - 1) // num_partitions
    return [paths[i : i + per] for i in range(0, len(paths), per)]


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _manifest_path(out_dir: str, pid: int) -> str:
    return os.path.join(_manifest_dir(out_dir), f"part-{pid:05d}.json")


def part_dir(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, f"part-{pid:05d}")


def load_manifest(out_dir: str) -> list[dict]:
    mdir = _manifest_dir(out_dir)
    if not os.path.isdir(mdir):
        return []
    rows = []
    for name in sorted(os.listdir(mdir)):
        if name.startswith("part-") and name.endswith(".json"):
            with open(os.path.join(mdir, name)) as f:
                rows.append(json.load(f))
    return rows


def manifest_table(out_dir: str) -> pa.Table:
    rows = load_manifest(out_dir)
    if not rows:
        return MANIFEST.empty_table()
    return pa.Table.from_pylist(rows, schema=MANIFEST)


def done_partitions(out_dir: str) -> set[int]:
    return {m["partition_id"] for m in load_manifest(out_dir) if m.get("done")}


def _atomic_write_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(payload, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


# what a task returns: the rows it wrote for its partition
_COUNTS = pa.schema([
    pa.field("partition", pa.int32()),
    pa.field("rows", pa.int64()),
    pa.field("rows_ok", pa.int64()),
])


def _footer_rows(files: list[str]) -> int:
    return sum(pq.read_metadata(f).num_rows for f in files)


def _plan_tasks(todo: dict[int, list[str]], cpus: int) -> list[dict]:
    """One task per pending partition, or, while that leaves CPUs idle, per
    run of its files (at most ``ceil(cpus / partitions)`` runs): partition,
    index of the first file in it (names the output files), files."""
    split = -(-cpus // len(todo))
    tasks = []
    for pid, files in todo.items():
        runs = min(split, len(files))
        for i in range(runs):
            lo, hi = i * len(files) // runs, (i + 1) * len(files) // runs
            tasks.append({"partition": pid, "first": lo,
                          "files": files[lo:hi]})
    return tasks


def _extract_files(batch: pa.Table, out_dir: str, cfg: PipelineConfig,
                   url_hash_buckets: int) -> pa.Table:
    """The task: extracts the files of the one task row in ``batch`` into
    ``part-P.tmp/[bucket=K/]<first>.parquet`` and returns its _COUNTS row."""
    from engine.partition import add_url_hash_batch

    (task,) = batch.to_pylist()
    tmp_dir = part_dir(out_dir, task["partition"]) + ".tmp"
    name = f"{task['first']:05d}.parquet"
    limit = DataContext.get_current().target_max_block_size
    buffered: dict[str, list[pa.Table]] = {}  # group dir → extracted rows
    buffered_bytes = rows = ok = 0
    with contextlib.ExitStack() as open_files:
        writers: dict[str, pq.ParquetWriter] = {}

        def flush() -> None:  # one row group per group file
            for group_dir, tables in buffered.items():
                if group_dir not in writers:
                    os.makedirs(group_dir, exist_ok=True)
                    writers[group_dir] = open_files.enter_context(
                        pq.ParquetWriter(os.path.join(group_dir, name),
                                         tables[0].schema,
                                         **EXTRACTED_PARQUET))
                writers[group_dir].write_table(pa.concat_tables(tables))
            buffered.clear()

        for path in task["files"]:
            for out in read_extract(path, cfg):
                rows += out.num_rows
                ok += out["status"].to_pylist().count("ok")
                buffered_bytes += out.nbytes
                groups = [(tmp_dir, out)]
                if url_hash_buckets:
                    out = add_url_hash_batch(out, num_buckets=url_hash_buckets)
                    groups = [(os.path.join(tmp_dir, f"bucket={b}"),
                               out.filter(pc.equal(out["bucket"], b))
                                  .drop_columns(["bucket"]))
                              for b in pc.unique(out["bucket"]).to_pylist()]
                for group_dir, group in groups:
                    buffered.setdefault(group_dir, []).append(group)
                if buffered_bytes > limit:  # about one Ray block held
                    flush()
                    buffered_bytes = 0
        flush()
    return pa.table({"partition": [task["partition"]], "rows": [rows],
                     "rows_ok": [ok]}, schema=_COUNTS)


def _extraction(tasks: list[dict], out_dir: str, cfg: PipelineConfig,
                url_hash_buckets: int) -> "ray.data.Dataset":
    """One _extract_files Ray task per task row; the Dataset's rows are
    their _COUNTS rows."""
    tasks_ds = ray.data.from_items(tasks, override_num_blocks=len(tasks))
    return tasks_ds.map_batches(
        _extract_files,
        fn_kwargs={"out_dir": out_dir, "cfg": cfg,
                   "url_hash_buckets": url_hash_buckets},
        batch_format="pyarrow",
        batch_size=None,
    )


def run_extraction(
    input_paths: list[str] | str,
    out_dir: str,
    cfg: PipelineConfig = PipelineConfig(),
    num_partitions: int = 16,
    resume: bool = True,
    url_hash_buckets: int = 0,
) -> pa.Table:
    """Checkpointed extraction over parquet shards; returns the manifest table.

    Every pending partition runs in one Dataset and is committed on its own
    once its last task reports (module docstring: tasks, commit protocol,
    row-count guard, manifest fields); partitions an earlier run committed
    are skipped when ``resume`` is true. ``url_hash_buckets > 0`` lays each
    partition out as ``bucket=K/`` directories by url hash
    (engine.partition, §4.2 item 1) with no shuffle. A failed run raises
    after committing what finished; a rerun resumes.
    """
    t0 = time.time()
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = done_partitions(out_dir) if resume else set()
    todo = {pid: files
            for pid, files in enumerate(plan_partitions(
                parquet_inputs(input_paths), num_partitions))
            if pid not in done}
    if not todo:
        return manifest_table(out_dir)
    for pid in todo:  # leftovers of a dead run
        shutil.rmtree(part_dir(out_dir, pid) + ".tmp", ignore_errors=True)
        shutil.rmtree(part_dir(out_dir, pid), ignore_errors=True)
    expected = {pid: _footer_rows(files) for pid, files in todo.items()}
    tasks = _plan_tasks(todo, int(ray.cluster_resources().get("CPU", 1)))
    left = collections.Counter(task["partition"] for task in tasks)
    written = {pid: [0, 0] for pid in todo}  # rows, rows_ok

    def commit(pid: int) -> None:
        pdir = part_dir(out_dir, pid)
        os.makedirs(pdir + ".tmp", exist_ok=True)  # an empty input wrote none
        os.replace(pdir + ".tmp", pdir)
        rows, ok = written[pid]
        _atomic_write_json(
            _manifest_path(out_dir, pid),
            {
                "partition_id": pid,
                "rows_in": rows,
                "rows_ok": ok,
                "rows_err": rows - ok,
                "bytes_in": sum(os.path.getsize(f) for f in todo[pid]),
                "bytes_out": sum(os.path.getsize(f)
                                 for f in _parquet_files(pdir)),
                "wall_s": time.time() - t0,
                "output_path": pdir,
                "done": True,
            },
        )

    counts = _extraction(tasks, out_dir, cfg, url_hash_buckets)
    for batch in counts.iter_batches(batch_format="pyarrow", batch_size=None):
        columns = (batch[name].to_pylist() for name in _COUNTS.names)
        for pid, rows, ok in zip(*columns):
            written[pid][0] += rows
            written[pid][1] += ok
            left[pid] -= 1
            if not left[pid] and written[pid][0] == expected[pid]:
                commit(pid)
    wrong = {pid: f"{written[pid][0]}/{expected[pid]}" for pid in todo
             if written[pid][0] != expected[pid]}
    if wrong:
        raise RuntimeError(f"partitions whose written rows differ from their "
                           f"input rows (written/input): {wrong}")
    return manifest_table(out_dir)


def read_extracted(out_dir: str) -> "ray.data.Dataset":
    """S4 analog — results are queryable, not re-served (SURVEY.md §2.1 S4).

    Projects to exactly the EXTRACTED schema columns: bucketed runs
    (url_hash_buckets > 0) write hive ``bucket=N/`` dirs and keep the helper
    ``url_hash`` column, which would otherwise leak schema differences into
    downstream consumers depending on how the run was written."""
    from engine.schema import EXTRACTED

    files = sorted(
        f
        for d in os.listdir(out_dir)
        if d.startswith("part-") and d != "_manifest" and not d.endswith(".tmp")
        for f in _parquet_files(os.path.join(out_dir, d))
    )
    return ray.data.read_parquet(files).select_columns(list(EXTRACTED.names))


def gc_runs(root_dir: str, retention_hours: float = 24.0) -> int:
    """S5 analog of cleanup_old_temp_files (app/main.py:301-343): drop whole
    run directories whose newest manifest is older than the retention window.
    Returns the number of runs deleted (A4 cleanup count)."""
    if not os.path.isdir(root_dir):
        return 0
    cutoff = time.time() - retention_hours * 3600
    deleted = 0
    for name in os.listdir(root_dir):
        run_dir = os.path.join(root_dir, name)
        mdir = _manifest_dir(run_dir)
        if not os.path.isdir(mdir):
            continue
        newest = max(
            (os.path.getmtime(os.path.join(mdir, f)) for f in os.listdir(mdir)),
            default=0,
        )
        if newest < cutoff:
            shutil.rmtree(run_dir, ignore_errors=True)
            deleted += 1
    return deleted
