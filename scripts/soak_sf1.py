"""10× soak (VERDICT r4 #3): the headline extraction at sf1 — 1M pages,
~14 GiB decoded — once, plus the checkpointed run_extraction variant, with
peak object-store usage sampled throughout. Converts the repo's
design-reasoned scale arguments into one order-of-magnitude datapoint.

Usage: python scripts/soak_sf1.py [pages_dir]
Prints one JSON line; record the result in BASELINE.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

PAGES_DIR = sys.argv[1] if len(sys.argv) > 1 else \
    "/tmp/graft_bench_pages_1000000_w16"
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def main() -> None:
    import pyarrow.parquet as pq

    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    store_total = ray.cluster_resources().get("object_store_memory", 0.0)
    peak = {"used": 0.0}
    stop = threading.Event()

    def monitor() -> None:
        while not stop.is_set():
            avail = ray.available_resources().get("object_store_memory",
                                                  store_total)
            peak["used"] = max(peak["used"], store_total - avail)
            stop.wait(0.5)

    mt = threading.Thread(target=monitor, daemon=True)
    mt.start()

    n_pages = sum(
        pq.read_metadata(os.path.join(PAGES_DIR, f)).num_rows
        for f in os.listdir(PAGES_DIR) if f.endswith(".parquet"))

    from engine.pipeline import PipelineConfig, extract_from_parquet

    cfg = PipelineConfig(batch_size=64)
    # warm the worker pool (import cost) before timing
    extract_from_parquet(PAGES_DIR, cfg).limit(NUM_CPUS * 64).count()

    out_dir = "/tmp/graft_soak_headline"
    shutil.rmtree(out_dir, ignore_errors=True)
    t0 = time.time()
    extract_from_parquet(PAGES_DIR, cfg).write_parquet(out_dir)
    headline = round(time.time() - t0, 2)
    peak_headline = peak["used"]

    # checkpointed variant: 16 partitions over the 64 shards, one execution
    from engine.checkpoint import run_extraction

    ck_dir = "/tmp/graft_soak_ckpt"
    shutil.rmtree(ck_dir, ignore_errors=True)
    peak["used"] = 0.0
    t0 = time.time()
    manifest = run_extraction(PAGES_DIR, ck_dir, cfg, num_partitions=16)
    ckpt = round(time.time() - t0, 2)
    stop.set()
    mt.join(timeout=2)

    out = {
        "metric": "soak_sf1",
        "pages": n_pages,
        "num_cpus": NUM_CPUS,
        "headline_sec": headline,
        "pages_per_sec": round(n_pages / headline, 1),
        "peak_object_store_gib_headline": round(peak_headline / 2**30, 2),
        "checkpointed_sec": ckpt,
        "ckpt_pages_per_sec": round(n_pages / ckpt, 1),
        "peak_object_store_gib_ckpt": round(peak["used"] / 2**30, 2),
        "manifest_rows": manifest.num_rows,
        "out_rows_headline": sum(
            pq.read_metadata(os.path.join(out_dir, f)).num_rows
            for f in os.listdir(out_dir) if f.endswith(".parquet")),
    }
    ray.shutdown()
    print(json.dumps(out, separators=(",", ":")))


if __name__ == "__main__":
    main()
