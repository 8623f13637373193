"""Checkpoint store: partition manifests, atomic commit, resume, GC.

Replaces the reference's nothing (its in-memory jobs_store dies on restart,
app/main.py:97; temp files are GC'd blind after 24 h, app/main.py:301-343).
SURVEY.md §4.2 items 4-5.

Layout (resumable output — one directory per partition, never one giant file):

    out_dir/
      part-00007/[bucket=K/]*.parquet  extracted rows of partition 7
      _manifest/part-00007.json        lineage + metrics, written AFTER data

Partitions are **file-granular**: the input parquet files are split into
``num_partitions`` contiguous groups, so a resume re-reads only the files of
the partitions it still owes.

Execution is ONE streaming Dataset over every pending partition, so the fixed
cost of a Ray execution (planning, read and write task start-up, stats round
trips) is paid once per run, not once per partition:

    read_parquet(every pending file, include_paths=True)
      → extract stage (carries the ``path`` column through)
      → write stage, fused into the same task: splits each block by
        (partition, url-hash bucket), writes each group to
        ``part-P.tmp/[bucket=K/]<task>-<seq>.parquet`` and returns only a
        small (partition, rows, rows_ok) count table — extracted rows never
        enter the object store. Every file is written by ``pq.write_table``
        with one per-column policy, ``schema.EXTRACTED_PARQUET`` (zstd at
        level 3; dictionaries only for the closed-vocabulary columns; delta
        encoding for span offsets and ``n_chars``; min/max statistics only
        for the columns a reader prunes by; no ARROW:schema footer key), and
        reads back as EXTRACTED like any Parquet file — also next to files
        an earlier run wrote under an older policy
      → driver: sums the count table as it streams; when partition P's rows
        reach its input's Parquet-footer row count, renames ``part-P.tmp`` to
        ``part-P``, then writes P's manifest.

Atomicity: a crash at any point leaves each partition either committed (data
dir + manifest) or not done (a ``.tmp`` dir, or a data dir with no manifest),
which the next run wipes before it writes. Output file names are
deterministic per (task, block), so a retried Ray task overwrites its own
files instead of duplicating rows.

Row-count guard: a partition whose streamed rows exceed its footer count, or
fall short of it when the stream ends, raises and is never committed (one
already committed is retracted, manifest first).

Manifest: ``rows_in``/``rows_ok``/``rows_err`` are the write stage's counts
(no re-read of the committed ``status`` column). ``bytes_in`` sums the sizes
of the partition's input files and ``bytes_out`` those of its committed
Parquet files, read at commit time — exact under Ray task retries, which
overwrite their own files. ``wall_s`` is the seconds from the start of the
run to that partition's commit — partitions share one execution, so their
walls overlap rather than add up.

On resume, completed partitions are skipped via the manifest 'done' set — the
§2.5 anti-join, implemented as a driver-side broadcast set because the
manifest is tiny (one row per partition).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray.data

from engine.pipeline import PipelineConfig, extract_pages
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


def _parquet_files(root: str) -> list[str]:
    out = []
    for dirpath, _dirs, names in os.walk(root):
        out.extend(os.path.join(dirpath, n) for n in names if n.endswith(".parquet"))
    return sorted(out)


# what the write stage returns per block: rows written per partition
_COUNTS = pa.schema([
    pa.field("partition", pa.int32()),
    pa.field("rows", pa.int64()),
    pa.field("rows_ok", pa.int64()),
])


def _footer_rows(files: list[str]) -> int:
    return sum(pq.read_metadata(f).num_rows for f in files)


def _write_block(block: pa.Table, out_dir: str, part_of: dict[str, int],
                 url_hash_buckets: int) -> pa.Table:
    """The write stage: one Parquet file per (block, partition, bucket) under
    ``part-P.tmp/``, named by the task index and the block's sequence number
    within the task — deterministic, so a retried task overwrites its own
    files. Returns only the block's per-partition counts (_COUNTS)."""
    from ray.data._internal.execution.interfaces.task_context import \
        TaskContext

    from engine.partition import add_url_hash_batch

    ctx = TaskContext.get_current()  # fresh per task attempt
    seq = ctx.kwargs.get("checkpoint_block_seq", 0)
    ctx.kwargs["checkpoint_block_seq"] = seq + 1
    fname = f"{ctx.task_idx:05d}-{seq:05d}.parquet"

    paths = block["path"].combine_chunks().dictionary_encode()
    pid_of_path = np.array([part_of[p] for p in paths.dictionary.to_pylist()],
                           dtype=np.int32)
    pids = pid_of_path[paths.indices.to_numpy()]
    data = block.drop_columns(["path"])
    if url_hash_buckets:
        data = add_url_hash_batch(data, num_buckets=url_hash_buckets)
    ok = pc.equal(data["status"], "ok").to_numpy()

    counts = {name: [] for name in _COUNTS.names}
    for pid in np.unique(pids):
        mask = pids == pid
        part = data.filter(mask)
        tmp_dir = part_dir(out_dir, int(pid)) + ".tmp"
        groups = [(tmp_dir, part)]
        if url_hash_buckets:
            groups = [(os.path.join(tmp_dir, f"bucket={b}"),
                       part.filter(pc.equal(part["bucket"], b))
                           .drop_columns(["bucket"]))
                      for b in pc.unique(part["bucket"]).to_pylist()]
        for group_dir, group in groups:
            os.makedirs(group_dir, exist_ok=True)
            pq.write_table(group, os.path.join(group_dir, fname),
                           **EXTRACTED_PARQUET)
        counts["partition"].append(int(pid))
        counts["rows"].append(part.num_rows)
        counts["rows_ok"].append(int(ok[mask].sum()))
    return pa.table(counts, schema=_COUNTS)


def _extract_and_write(part_of: dict[str, int], out_dir: str,
                       cfg: PipelineConfig,
                       url_hash_buckets: int) -> "ray.data.Dataset":
    """read → extract → write over every file in ``part_of``; the extract
    and write stages fuse into one task, whose output is _COUNTS rows."""
    pages = ray.data.read_parquet(sorted(part_of), columns=["url", "html"],
                                  include_paths=True)
    return extract_pages(pages, cfg, carry=("path",)).map_batches(
        _write_block,
        fn_kwargs={"out_dir": out_dir, "part_of": part_of,
                   "url_hash_buckets": url_hash_buckets},
        batch_format="pyarrow",
        batch_size=None,
    )


def _retract(out_dir: str, pid: int) -> None:
    """Un-commit a partition: manifest first, so no manifest ever describes
    missing data."""
    try:
        os.remove(_manifest_path(out_dir, pid))
    except FileNotFoundError:
        pass
    shutil.rmtree(part_dir(out_dir, pid), ignore_errors=True)


def run_extraction(
    input_paths: list[str] | str,
    out_dir: str,
    cfg: PipelineConfig = PipelineConfig(),
    num_partitions: int = 16,
    resume: bool = True,
    url_hash_buckets: int = 0,
) -> pa.Table:
    """Checkpointed extraction over parquet shards; returns the manifest table.

    Every pending partition runs in one streaming Dataset and is committed on
    its own the moment its last row is written (module docstring: commit
    protocol, row-count guard, manifest fields); partitions an earlier run
    committed are skipped when ``resume`` is true. ``url_hash_buckets > 0``
    lays each partition out as ``bucket=K/`` directories by url hash
    (engine.partition, §4.2 item 1) with no shuffle. A failed run raises
    after committing whatever finished; rerunning it resumes from there.
    """
    t0 = time.time()
    if isinstance(input_paths, str):
        input_paths = [
            os.path.join(input_paths, n)
            for n in os.listdir(input_paths)
            if n.endswith(".parquet")
        ]
    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done = done_partitions(out_dir) if resume else set()
    todo = {pid: files
            for pid, files in enumerate(plan_partitions(input_paths,
                                                        num_partitions))
            if pid not in done}
    for pid in todo:  # leftovers of a dead run
        shutil.rmtree(part_dir(out_dir, pid) + ".tmp", ignore_errors=True)
        shutil.rmtree(part_dir(out_dir, pid), ignore_errors=True)
    expected = {pid: _footer_rows(files) for pid, files in todo.items()}
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

    for pid in todo:
        if not expected[pid]:
            commit(pid)
    part_of = {os.path.abspath(f): pid for pid, files in todo.items()
               if expected[pid] for f in files}
    if not part_of:
        return manifest_table(out_dir)

    counts = _extract_and_write(part_of, out_dir, cfg, url_hash_buckets)
    for batch in counts.iter_batches(batch_format="pyarrow", batch_size=None):
        columns = (batch[name].to_pylist() for name in _COUNTS.names)
        for pid, rows, ok in zip(*columns):
            written[pid][0] += rows
            written[pid][1] += ok
            if written[pid][0] > expected[pid]:
                _retract(out_dir, pid)
                raise RuntimeError(
                    f"partition {pid}: {written[pid][0]} rows written for "
                    f"{expected[pid]} input rows")
            if written[pid][0] == expected[pid]:
                commit(pid)
    short = {pid: f"{written[pid][0]}/{expected[pid]}" for pid in todo
             if written[pid][0] < expected[pid]}
    if short:
        raise RuntimeError(f"partitions ended short of their input rows "
                           f"(written/input): {short}")
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
