"""Extraction benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cc_mix --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The workload's input is generated from the
seed with ``engine.fixtures`` and cached under ``.pbw/inputs``; the engine
sees only the Parquet files. Ray runs locally at this machine's CPU count.

``--trace 0`` measures the end-to-end metrics: set-up time (the median of
several ``ray.init`` + warm-up pipeline cycles), then, after one untimed
repetition, ``--seconds`` of repetitions of the workload's pipeline and of
a checkpoint resume, each timed and each output checked. The run keeps
itself and every process it starts on the CPUs ``nproc`` reports. ``--trace 1`` measures the per-layer ledger
instead (see layers.py and README.md). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the input and the raw samples. A wrong output exits
with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")
SETUPS = 3  # set-up cycles per timed run; setup_s is their median
# untimed repetitions before the clock starts: the first pipeline after
# set-up still starts workers and fills caches
WARM_REPS = 1
CKPT = {"num_partitions": 4, "url_hash_buckets": 8}
DEADLINE_S = 165  # a run that has not finished by then is interrupted


def _warm(files, cfg) -> None:
    from engine.pipeline import extract_from_parquet

    extract_from_parquet(files[:1], cfg).count()


def _drop_every_other(ckpt_dir: str) -> tuple[set[int], int]:
    """Remove the manifests of the odd partitions, as a crash after the
    even ones committed would leave them; return (partitions, rows)."""
    from engine.checkpoint import load_manifest

    dropped, rows = set(), 0
    for m in load_manifest(ckpt_dir):
        if m["partition_id"] % 2:
            os.remove(os.path.join(ckpt_dir, "_manifest",
                                   f"part-{m['partition_id']:05d}.json"))
            dropped.add(m["partition_id"])
            rows += m["rows_in"]
    return dropped, rows


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def timed_run(w, files, meta, checker, session, run_dir, seconds) -> dict:
    from checks import output_bytes, read_output
    from engine.checkpoint import run_extraction
    from engine.pipeline import PipelineConfig, extract_from_parquet

    cfg = PipelineConfig()
    setup = []
    for i in range(SETUPS):
        t0 = time.perf_counter()
        session.start()
        _warm(files, cfg)
        setup.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            session.stop()

    ckpt_dir = os.path.join(run_dir, "ckpt")

    def checkpointed():
        run_extraction(files, ckpt_dir, cfg, **CKPT)

    if not w.checkpointed:  # the checkpoint every resume starts from
        checkpointed()
        whole = read_output(ckpt_dir)
        checker.check(whole, "checkpoint")
    rates, resumes, out_ratio = [], [], []
    resumed_rows = 0
    end = None
    rep = 0
    while end is None or time.monotonic() < end:
        if rep == WARM_REPS:  # the clock starts after the warm repetitions
            del rates[:], resumes[:]
            end = time.monotonic() + seconds
        if w.checkpointed:
            shutil.rmtree(ckpt_dir, ignore_errors=True)
            out = ckpt_dir
            rates.append(meta["rows"] / _timed(checkpointed))
            whole = read_output(ckpt_dir)
            checker.check(whole, f"run {rep}")
        else:
            out = os.path.join(run_dir, f"out{rep}")
            ds = extract_from_parquet(files, cfg)
            rates.append(meta["rows"] / _timed(lambda: ds.write_parquet(out)))
            checker.check(read_output(out), f"run {rep}")
        out_ratio.append(output_bytes(out) / meta["input_bytes"])
        if out != ckpt_dir:
            shutil.rmtree(out)
        rows = _drop_every_other(ckpt_dir)[1]
        resumes.append(_timed(checkpointed))
        resumed_rows += rows
        checker.check_same(read_output(ckpt_dir), whole, f"resume {rep}")
        rep += 1
    rss = session.worker_peak_rss_mib()
    session.stop()
    checker.attempted += resumed_rows
    return {
        "metrics": {
            "pages_per_s": (statistics.median(rates), "1/s"),
            "resume_s": (statistics.median(resumes), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "failed_share": (checker.failed_share, "ratio"),
            "worker_peak_rss_mib": (rss, "MiB"),
            "out_bytes_per_in_byte": (statistics.median(out_ratio), "ratio"),
        },
        "samples": {"pages_per_s": rates, "resume_s": resumes,
                    "setup_s": setup},
    }


_UNIT_S = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def udf_cpu_s(stats: str) -> float:
    """Remote CPU seconds of the operator running extract_batch, from the
    text of ``Dataset.stats()``."""
    for block in stats.split("\nOperator ")[1:]:
        if "extract_batch" in block.split("\n", 1)[0]:
            m = re.search(r"Remote cpu time:.*?([\d.]+)(us|ms|s) total", block)
            if m:
                return float(m.group(1)) * _UNIT_S[m.group(2)]
    raise ValueError("no extract_batch operator in Dataset.stats()")


def _bucket_rows(ckpt_dir: str) -> list[int]:
    import pyarrow.parquet as pq

    from checks import parquet_files

    rows: dict[str, int] = {}
    for path in parquet_files(ckpt_dir):
        bucket = os.path.basename(os.path.dirname(path))
        rows[bucket] = rows.get(bucket, 0) + pq.read_metadata(path).num_rows
    return list(rows.values())


def traced_run(files, table, checker, session, run_dir) -> dict:
    import pyarrow as pa

    import layers
    from checks import read_output
    from engine.checkpoint import load_manifest, run_extraction
    from engine.extract import extract_batch
    from engine.fixtures import gen_pages_table
    from engine.pipeline import PipelineConfig, extract_from_parquet, read_pages
    from workloads import batches

    # the 300-row single-thread yardstick, before and after the run
    calib_table = gen_pages_table(300, seed=42, weight=16)
    calib_before = _timed(lambda: extract_batch(calib_table))

    bs = batches(table)
    layers.kernel_pass(bs[:1])
    untraced_a, outs = layers.kernel_pass(bs)
    checker.check(pa.concat_tables(outs), "in-process")
    tracer = layers.Tracer()
    traced, _ = layers.kernel_pass(bs, tracer.patches())
    untraced_b, _ = layers.kernel_pass(bs)
    alloc = layers.alloc_pass(table["html"].to_pylist())
    metrics = layers.kernel_metrics(tracer, traced,
                                    (untraced_a + untraced_b) / 2, len(bs),
                                    alloc)

    cfg = PipelineConfig()
    session.start()
    _warm(files, cfg)
    # the plain pipeline and the checkpointed run, twice each and
    # interleaved; the commit overhead is the difference of their minimums
    ckpt_dir = os.path.join(run_dir, "ckpt")
    plain_s, ckpt_s = [], []
    for i in range(2):
        plain_dir = os.path.join(run_dir, f"plain{i}")
        ds = extract_from_parquet(files, cfg)
        plain_s.append(_timed(lambda: ds.write_parquet(plain_dir)))
        plain = read_output(plain_dir)
        checker.check(plain, f"pipeline {i}")
        shutil.rmtree(ckpt_dir, ignore_errors=True)
        ckpt_s.append(_timed(
            lambda: run_extraction(files, ckpt_dir, cfg, **CKPT)))
        whole = read_output(ckpt_dir)
        checker.check(whole, f"checkpoint {i}")
    floor = read_pages(files, columns=["url", "html"]).map_batches(
        lambda batch: batch, batch_format="pyarrow",
        batch_size=cfg.batch_size)
    floor_s = _timed(lambda: floor.write_parquet(
        os.path.join(run_dir, "floor")))
    walls = [m["wall_s"] for m in load_manifest(ckpt_dir)]
    buckets = _bucket_rows(ckpt_dir)
    dropped, dropped_rows = _drop_every_other(ckpt_dir)
    run_extraction(files, ckpt_dir, cfg, **CKPT)
    resumed_rows = sum(m["rows_in"] for m in load_manifest(ckpt_dir)
                       if m["partition_id"] in dropped)
    checker.check_same(read_output(ckpt_dir), whole, "resume")
    session.stop()
    checker.attempted += resumed_rows
    calib_after = _timed(lambda: extract_batch(calib_table))

    status = plain["status"].to_pylist()
    rows = len(status)
    metrics.update({
        "extract.rows_ok": (status.count("ok"), "count"),
        "extract.rows_failed": (status.count("failed"), "count"),
        "extract.rows_rejected": (status.count("rejected"), "count"),
        "extract.rows_needs_ocr": (status.count("needs_ocr"), "count"),
        "pipeline.floor_s": (floor_s, "s"),
        "pipeline.floor_share": (floor_s / min(plain_s), "ratio"),
        "pipeline.udf_cpu_s_per_page": (udf_cpu_s(ds.stats()) / rows, "s"),
        "checkpoint.partition_wall_p50_s": (statistics.median(walls), "s"),
        "checkpoint.partition_wall_max_s": (max(walls), "s"),
        "checkpoint.commit_overhead_s": (min(ckpt_s) - min(plain_s), "s"),
        "checkpoint.resume_rows": (resumed_rows, "count"),
        "checkpoint.resume_useful_share": (dropped_rows / resumed_rows,
                                           "ratio"),
        "partition.bucket_rows_max_over_mean": (
            max(buckets) / statistics.mean(buckets), "ratio"),
        "box.calib_1t_s": (calib_before, "s"),
        "box.calib_1t_s_after": (calib_after, "s"),
    })
    return {"metrics": metrics,
            "samples": {"kernel_s": [untraced_a, traced, untraced_b],
                        "pipeline_s": plain_s, "checkpoint_s": ckpt_s}}


def main() -> int:
    from raysession import RaySession, num_cpus, pin_to_cpus

    pin_to_cpus()  # before any library can start a thread or a process
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "engine", "__init__.py")):
        print(f"no engine package under {ROOT}: run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(1, ROOT)

    from checks import Checker
    from workloads import ensure_input, input_files, read_input

    # a stuck run is interrupted, so the finally below still stops Ray
    watchdog = threading.Timer(DEADLINE_S,
                               lambda: os.kill(os.getpid(), signal.SIGINT))
    watchdog.daemon = True
    watchdog.start()
    w = WORKLOADS[args.workload]
    data_dir, meta = ensure_input(WORK, w, args.seed)
    files = input_files(data_dir)
    table = read_input(data_dir)
    checker = Checker(table, meta)
    run_dir = os.path.join(WORK, str(os.getpid()))
    session = RaySession(ROOT, os.path.join(run_dir, "r"))
    try:
        if args.trace:
            result = traced_run(files, table, checker, session, run_dir)
        else:
            result = timed_run(w, files, meta, checker, session, run_dir,
                               args.seconds)
    finally:
        session.stop()
        watchdog.cancel()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "workload": w.name, "seed": args.seed, "cpus": num_cpus(),
        "input": {k: meta[k] for k in ("rows", "input_bytes",
                                       "payload_bytes")},
        "format_status_mix": meta["status_by_format"],
        "samples": result["samples"], "problems": checker.problems,
        "wall_s": time.perf_counter() - started,
    }))
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }), flush=True)
    return 0 if not checker.problems else 1


if __name__ == "__main__":
    sys.exit(main())
