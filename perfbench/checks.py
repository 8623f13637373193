"""Output checks run on every output the benchmark produces.

- Output rows equal input rows, and each input url appears exactly once.
- The (format, status) counts equal the single-process ``extract_batch``
  reference computed once per seed (workloads.py).
- A fixed sample of rows equals ``extract_row`` run here in the driver,
  field by field.
- A resumed checkpoint run equals the uninterrupted run it resumed.
"""

from __future__ import annotations

import os
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def parquet_files(root: str) -> list[str]:
    out = []
    for dirpath, dirs, names in os.walk(root):
        dirs[:] = [d for d in dirs if not d.endswith(".tmp")]
        out.extend(os.path.join(dirpath, n) for n in names
                   if n.endswith(".parquet"))
    return sorted(out)


def output_bytes(root: str) -> int:
    return sum(os.path.getsize(p) for p in parquet_files(root))


def read_output(root: str) -> pa.Table:
    from engine.schema import EXTRACTED

    tables = [pq.read_table(p, columns=EXTRACTED.names)
              for p in parquet_files(root)]
    return pa.concat_tables(tables) if tables else EXTRACTED.empty_table()


class Checker:
    """Checks outputs of one input and tallies attempted, not-ok and wrong
    rows over every output it has seen."""

    def __init__(self, table_in: pa.Table, meta: dict):
        from engine.extract import extract_row

        urls = table_in["url"].to_pylist()
        self.urls = set(urls)
        if len(self.urls) != len(urls):
            raise ValueError("generated input repeats a url")
        self.status_by_format = meta["status_by_format"]
        payloads = table_in["html"].to_pylist()
        self.expected = {urls[i]: {"url": urls[i],
                                   **extract_row(payloads[i] or b"")}
                         for i in meta["sample"]}
        self.attempted = 0
        self.not_ok = 0
        self.wrong = 0
        self.problems: list[str] = []

    def check(self, out: pa.Table, label: str) -> None:
        urls = out["url"].to_pylist()
        seen = set(urls)
        bad = (len(self.urls - seen) + len(seen - self.urls)
               + (len(urls) - len(seen)))
        if bad:
            self.problems.append(
                f"{label}: {out.num_rows} rows for {len(self.urls)} input "
                f"urls ({len(self.urls - seen)} missing, "
                f"{len(seen - self.urls)} unknown, "
                f"{len(urls) - len(seen)} repeated)")
        got = Counter(f"{f}/{s}" for f, s in zip(out["format"].to_pylist(),
                                                 out["status"].to_pylist()))
        moved = sum(max(0, n - got.get(k, 0))
                    for k, n in self.status_by_format.items())
        if moved:
            self.problems.append(f"{label}: status mix {dict(got)} != "
                                 f"reference {self.status_by_format}")
        in_sample = pc.is_in(out["url"],
                             value_set=pa.array(list(self.expected)))
        by_url = {r["url"]: r for r in out.filter(in_sample).to_pylist()}
        differ = [u for u, row in self.expected.items() if by_url.get(u) != row]
        if differ:
            self.problems.append(f"{label}: {len(differ)} sample rows differ "
                                 f"from extract_row, first {differ[0]}")
        self.attempted += len(self.urls)
        self.not_ok += sum(n for k, n in got.items() if not k.endswith("/ok"))
        self.wrong += min(len(self.urls), bad + moved + len(differ))

    def check_same(self, resumed: pa.Table, whole: pa.Table,
                   label: str) -> None:
        """The resumed checkpoint output must equal the uninterrupted one."""
        if not resumed.sort_by("url").equals(whole.sort_by("url")):
            self.problems.append(f"{label}: resumed output differs from the "
                                 "uninterrupted run")
            self.wrong += len(self.urls)

    @property
    def failed_share(self) -> float:
        return (self.not_ok + self.wrong) / max(1, self.attempted)
