"""The four kernel-backed queries finish on a one-CPU Ray and still match
their DuckDB oracles. Their extract stage is a stateless task, so nothing
holds the only CPU ahead of the read; an ExtractActor pool at
``concurrency=(1, 4)`` there never finished.

The queries run in a subprocess with its own one-CPU cluster, so the test
is independent of the session fixture's width."""

from __future__ import annotations

import os
import signal
import subprocess
import sys

from tests.conftest import REPO_ROOT

SF_DIR = "/root/testdata/sf0.001"
KERNEL_QUERIES = ("extract_roundtrip", "pdf_roundtrip", "docx_roundtrip",
                  "charset_decode")
TIMEOUT_S = 120

_CHILD = """
import os, sys
import duckdb, ray

ray.init(address="local", num_cpus=1, object_store_memory=256 * 1024 ** 2,
         include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

import __ray_entry__ as entry_mod
from scripts.check_oracle import canon, to_pandas

sf_dir, names = sys.argv[1], sys.argv[2:]
con = duckdb.connect()
con.execute("CREATE VIEW documents AS SELECT * FROM read_parquet("
            f"'{os.path.join(sf_dir, 'documents.parquet')}')")
for name in names:
    got = canon(to_pandas(entry_mod.queries()[name](sf_dir)))
    exp = canon(con.execute(entry_mod.oracle_sql()[name]).fetchdf())
    assert got.astype(str).equals(exp.astype(str)), name
    print("OK", name, len(got), flush=True)
ray.shutdown()
"""


def test_kernel_queries_finish_on_one_cpu():
    proc = subprocess.Popen(
        [sys.executable, "-c", _CHILD, SF_DIR, *KERNEL_QUERIES],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child's Ray processes too
        out, _ = proc.communicate()
        raise AssertionError(f"no result in {TIMEOUT_S} s:\n{out[-2000:]}")
    assert proc.returncode == 0, out[-2000:]
    done = [line.split()[1] for line in out.splitlines()
            if line.startswith("OK ")]
    assert done == list(KERNEL_QUERIES), out[-2000:]
