"""Bench harness (driver contract + scaling evidence, BASELINE.md protocol).

Default mode: one fresh Ray session at ``RAY_GRAFT_CPUS`` (default 32) CPUs,
runs the headline extraction pipeline over a deterministic generated pages
table sized by the sf of ``GRAFT_SF_DIR`` (default /root/testdata/sf0.1),
plus every driver query over the testdata tables. Prints ONE JSON line:

  {"metric": "headline_extract_sec", "value": N, "unit": "sec",
   "queries": {...}, "sf": 0.1, "num_cpus": 32, "pages": P,
   "pages_per_sec": R, ...}

``--scaling``: runs this script twice in fresh subprocesses at two
parallelism levels (default 4 and 16 CPUs — env RAY_GRAFT_SCALING_LO/HI to
override) on the same input and reports both throughputs + efficiency
(= rate_hi / ((hi/lo) * rate_lo)); target >= 0.8 (BASELINE.json north_rule).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
PAGES_PER_SF = 1_000_000  # sf0.1 → 100k pages (~1.4 GiB at weight 16)
PAGE_WEIGHT = 16  # ~14 KiB mean page (Common-Crawl-realistic)


def sf_of(sf_dir: str) -> float:
    base = os.path.basename(sf_dir.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return 0.1


def ensure_bench_pages(sf: float) -> str:
    """Deterministic pages fixture, generated once per sf and cached in /tmp."""
    n_rows = max(500, int(PAGES_PER_SF * sf))
    out = f"/tmp/graft_bench_pages_{n_rows}_w{PAGE_WEIGHT}"
    marker = os.path.join(out, "_COMPLETE")
    if os.path.exists(marker):
        return out
    from engine.fixtures import write_pages_parquet

    shutil.rmtree(out, ignore_errors=True)
    write_pages_parquet(out, n_rows, seed=42, num_files=64,
                        weight=PAGE_WEIGHT)
    with open(marker, "w") as f:
        f.write(str(n_rows))
    return out


def calibrate_single_thread() -> float:
    """Single-threaded kernel seconds over 300 deterministic fixture rows —
    the ambient-noise yardstick (BASELINE.md): this number depends only on
    the box's current CPU weather, never on Ray or the pipeline, so the
    verdict can divide it out to separate noise from regression."""
    from engine.extract import extract_batch
    from engine.fixtures import gen_pages_table

    t = gen_pages_table(300, seed=42, weight=PAGE_WEIGHT)
    t0 = time.time()
    extract_batch(t)
    return round(time.time() - t0, 3)


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    sf = sf_of(SF_DIR)
    pages_dir = ensure_bench_pages(sf)

    import pyarrow.parquet as pq

    n_pages = sum(
        pq.read_metadata(os.path.join(pages_dir, f)).num_rows
        for f in os.listdir(pages_dir)
        if f.endswith(".parquet")
    )

    from engine.pipeline import (PipelineConfig, extract_from_parquet,
                                 parquet_inputs)

    cfg = PipelineConfig(batch_size=64)
    # warm-up, untimed: one file per CPU, one task each, so every worker
    # process pays its import cost and the OS page cache is hot; the timed
    # run then measures steady-state throughput (what a multi-hour 100 TB
    # job looks like). It runs to the end: a ``limit`` would end it by
    # cancelling tasks.
    extract_from_parquet(parquet_inputs(pages_dir)[:NUM_CPUS], cfg).count()

    if os.environ.get("RAY_GRAFT_SKIP_HEADLINE"):
        # query-iteration mode (dev loop only): skip the headline extract
        headline = float("nan")
    else:
        # best-of-2: the box shows ±20-40 % ambient noise on single samples;
        # the min of two timed passes is the steady-state figure (same
        # policy as the --scaling legs). BOTH samples are reported so a
        # verdict can see the spread, and the final pass's ds.stats() goes
        # to BENCH_STATS_last.md for stage-level attribution.
        samples: list[float] = []
        stats_text = ""
        for _ in range(2):
            out_dir = f"/tmp/graft_bench_out_{NUM_CPUS}"
            shutil.rmtree(out_dir, ignore_errors=True)
            ds = extract_from_parquet(pages_dir, cfg)
            t0 = time.time()
            ds.write_parquet(out_dir)
            samples.append(round(time.time() - t0, 3))
            try:
                stats_text = ds.stats()
            except Exception:
                pass
        headline = min(samples)
        if stats_text and not os.environ.get("RAY_GRAFT_SKIP_QUERIES"):
            with open(os.path.join(REPO, "BENCH_STATS_last.md"), "w") as f:
                f.write(
                    "# ds.stats() of the last headline pass "
                    f"({NUM_CPUS} CPUs, samples {samples})\n\n```\n"
                    + stats_text + "\n```\n")

    # Crash-resilience (round-4 lesson: BENCH_r04 lost to a mid-run Ray
    # core-worker crash because the one JSON line was emitted only at the
    # very end of a long single session). Three layers:
    #  1. the headline-only JSON line is printed + flushed IMMEDIATELY, so
    #     a process death during the query sweep still leaves a parsable
    #     last line on stdout for the driver;
    #  2. per-query timings are flushed to BENCH_QUERIES_last.json after
    #     EVERY query (partial artifact survives any kill);
    #  3. a Ray *system* error inside one query (worker/raylet death)
    #     records {"err": ...} for that query and restarts the local Ray
    #     session once so the sweep continues.
    partial = {
        "metric": "headline_extract_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "pages": n_pages,
        "pages_per_sec": round(n_pages / headline, 1),
        "partial": True,
    }
    if not os.environ.get("RAY_GRAFT_SKIP_HEADLINE"):
        partial["headline_samples"] = samples
    if not os.environ.get("RAY_GRAFT_SKIP_QUERIES"):
        print(json.dumps(partial, separators=(",", ":")), flush=True)

    # per-query timings over the driver testdata tables (skipped during
    # scaling legs: they add minutes of unrelated variance per leg)
    import __ray_entry__ as e

    qtimes: dict[str, float] = {}
    qerrs: dict[str, str] = {}
    query_items = (
        {} if os.environ.get("RAY_GRAFT_SKIP_QUERIES") else e.queries()
    )
    only = os.environ.get("RAY_GRAFT_ONLY_QUERIES")
    if only:
        wanted = set(only.split(","))
        query_items = {k: v for k, v in query_items.items() if k in wanted}

    def flush_partial() -> None:
        with open(os.path.join(REPO, "BENCH_QUERIES_last.json"), "w") as f:
            json.dump({"num_cpus": NUM_CPUS, "sf": sf, "queries": qtimes,
                       "errors": qerrs,
                       "done": len(qtimes), "total": len(query_items)},
                      f, indent=1, sort_keys=True)

    ray_restarted = False
    for name, fn in query_items.items():
        t0 = time.time()
        try:
            res = fn(SF_DIR)
            if hasattr(res, "materialize"):
                res.materialize()
            qtimes[name] = round(time.time() - t0, 3)
        except Exception as exc:  # a broken query should not kill the bench
            qtimes[name] = -1.0
            qerrs[name] = f"{type(exc).__name__}: {exc}"[:300]
            print(f"query {name} failed: {exc}", file=sys.stderr)
            # a system-level Ray failure poisons the session — restart once
            # so the remaining queries aren't forfeited with it
            try:
                import ray.exceptions as rex
                is_system = isinstance(exc, (rex.RaySystemError,
                                             rex.RayActorError,
                                             rex.ObjectLostError,
                                             rex.GetTimeoutError)) \
                    or not ray.is_initialized()
            except Exception:
                is_system = not ray.is_initialized()
            if is_system and not ray_restarted:
                ray_restarted = True
                print("restarting local Ray session after system error",
                      file=sys.stderr)
                try:
                    ray.shutdown()
                except Exception:
                    pass
                ray.init(address="local", num_cpus=NUM_CPUS,
                         include_dashboard=False, logging_level="ERROR")
        if query_items:
            flush_partial()

    ray.shutdown()
    out = {
        "metric": "headline_extract_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "pages": n_pages,
        "pages_per_sec": round(n_pages / headline, 1),
        "calib_1t_sec": calibrate_single_thread(),
    }
    if not os.environ.get("RAY_GRAFT_SKIP_HEADLINE"):
        out["headline_samples"] = samples
    # The driver records only the LAST ~2000 chars of stdout; with 100
    # queries the full per-query dict alone exceeds that and the JSON line
    # becomes unparseable (BENCH_r03 `parsed: null`). Keep the printed line
    # bounded: full timings go to BENCH_QUERIES_last.json, the line carries
    # the slowest 25 plus aggregates.
    if qtimes:
        # BENCH_QUERIES_last.json was already flushed incrementally after
        # every query (crash resilience); only the stdout line remains.
        out["queries_total_sec"] = round(sum(t for t in qtimes.values()
                                             if t > 0), 1)
        out["queries_n"] = len(qtimes)
        out["queries_full_file"] = "BENCH_QUERIES_last.json"
        # failures (-1.0 markers) must survive the line bounding — a driver
        # reading only stdout must not see an all-green bench
        out["queries_failed"] = sorted(
            k for k, t in qtimes.items() if t < 0)
        if ray_restarted:
            out["ray_restarted"] = True
        slowest = sorted(qtimes.items(), key=lambda kv: -kv[1])[:25]
        out["queries"] = dict(sorted(slowest))
    return out


def run_scaling() -> dict:
    def run_once(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   RAY_GRAFT_SKIP_QUERIES="1")
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    def run(ncpu: int) -> dict:
        # best of 2: steady-state throughput, not OS-noise of one sample
        a, b = run_once(ncpu), run_once(ncpu)
        return a if a["value"] <= b["value"] else b

    # Default legs 4 → 16: a true 4× pair with both legs inside the box's
    # linear-scaling region. 8 → 32 (override via env) hits a single-box
    # shared-L3/memory-bandwidth knee between 16 and 32 procs that a real
    # N→4N *node* scale-out does not share (per-node caches); both pairs are
    # recorded in BASELINE.md with the measured matrix.
    lo = int(os.environ.get("RAY_GRAFT_SCALING_LO", "4"))
    hi = int(os.environ.get("RAY_GRAFT_SCALING_HI", "16"))
    r_lo = run(lo)
    r_hi = run(hi)
    rate_lo = r_lo["pages_per_sec"]
    rate_hi = r_hi["pages_per_sec"]
    eff = rate_hi / ((hi / lo) * rate_lo)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": r_lo["value"],
        "sec_hi": r_hi["value"],
        "pages_per_sec_lo": rate_lo,
        "pages_per_sec_hi": rate_hi,
        # single-thread yardsticks per leg: a leg whose calib is inflated
        # was measured during ambient noise — read efficiency accordingly
        "calib_1t_sec_lo": r_lo.get("calib_1t_sec"),
        "calib_1t_sec_hi": r_hi.get("calib_1t_sec"),
        "pages": r_hi["pages"],
        "sf": r_hi["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(), separators=(",", ":")))
    else:
        print(json.dumps(run_bench(), separators=(",", ":")))
