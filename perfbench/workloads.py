"""Workload inputs: generated from the seed, cached per (workload, seed).

Each workload is a directory of Parquet shards in the ``pages`` schema plus a
``meta.json`` holding what the checks need: row count, input bytes, the
format x status mix of the single-process ``extract_batch`` reference, and
the indexes of the rows re-extracted with ``extract_row`` on every check.
Generation and the reference run happen before any timing starts; a second
run with the same (workload, seed) reads both from the cache.
"""

from __future__ import annotations

import json
import os
import shutil
from collections import Counter
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.parquet as pq

FILES = 8  # Parquet shards per input: two per checkpoint partition
SAMPLE_PER_GROUP = 4  # rows per (format, status) group re-extracted by the checks


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    checkpointed: bool  # True: the timed run is run_extraction


WORKLOADS = {
    w.name: w
    for w in (
        # Common-Crawl-like mix at weight 16 (~14 KiB mean HTML page),
        # giant 512 KiB rows included
        Workload("cc_mix", rows=256, checkpointed=False),
        # weight-1 pages without giants through run_extraction
        Workload("ckpt_small", rows=1200, checkpointed=True),
    )
}


def _generate(dest: str, w: Workload, seed: int) -> None:
    from engine.fixtures import write_pages_parquet

    os.makedirs(dest)
    if w.name == "cc_mix":
        write_pages_parquet(dest, w.rows, seed=seed, num_files=FILES,
                            weight=16, dup_fraction=0.0)
    else:
        # giant_scale=0 shrinks the 512 KiB giant rows to one section
        write_pages_parquet(dest, w.rows, seed=seed, num_files=FILES,
                            weight=1, giant_scale=0, dup_fraction=0.0)


def input_files(data_dir: str) -> list[str]:
    return sorted(os.path.join(data_dir, n) for n in os.listdir(data_dir)
                  if n.endswith(".parquet"))


def read_input(data_dir: str) -> pa.Table:
    return pa.concat_tables(pq.read_table(p, columns=["url", "html"])
                            for p in input_files(data_dir))


def batches(table: pa.Table) -> list[pa.Table]:
    """The table in batches of the pipeline's map_batches size."""
    from engine.pipeline import PipelineConfig

    size = PipelineConfig().batch_size
    return [table.slice(i, size) for i in range(0, table.num_rows, size)]


def _reference(table: pa.Table) -> dict:
    """Single-process extract_batch over the input: the (format, status)
    counts every output must reproduce, and the sample row indexes."""
    from engine.extract import extract_batch

    out = pa.concat_tables(extract_batch(b) for b in batches(table))
    keys = [f"{f}/{s}" for f, s in zip(out["format"].to_pylist(),
                                       out["status"].to_pylist())]
    seen: Counter = Counter()
    sample = []
    for i, key in enumerate(keys):
        if seen[key] < SAMPLE_PER_GROUP:
            sample.append(i)
        seen[key] += 1
    return {"status_by_format": dict(sorted(seen.items())), "sample": sample}


def ensure_input(work_root: str, w: Workload, seed: int) -> tuple[str, dict]:
    """Return (data_dir, meta) for (workload, seed), generating on a miss.

    The directory is built under a temporary name and renamed into place,
    so an interrupted generation is never mistaken for a cached one."""
    data_dir = os.path.join(work_root, "inputs",
                            f"{w.name}-r{w.rows}-s{seed}")
    meta_path = os.path.join(data_dir, "meta.json")
    if not os.path.exists(meta_path):
        tmp = f"{data_dir}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        _generate(tmp, w, seed)
        table = read_input(tmp)
        payload_bytes = sum(len(p or b"") for p in table["html"].to_pylist())
        meta = {
            "workload": w.name,
            "seed": seed,
            "rows": table.num_rows,
            "input_bytes": sum(os.path.getsize(p) for p in input_files(tmp)),
            "payload_bytes": payload_bytes,
            **_reference(table),
        }
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f, indent=1, sort_keys=True)
        shutil.rmtree(data_dir, ignore_errors=True)
        os.replace(tmp, data_dir)
    with open(meta_path) as f:
        return data_dir, json.load(f)
