"""The Dataset graph: read → gate → extract → sink.

Ray rebuild of the reference's POST /convert spine (SURVEY.md §3.1): the job
store dissolves into columns; validation/size gating is vectorized; the
conversion kernel runs in map_batches.

One extraction stage, a stateless task (measured, Ray 2.49 local): the
extraction kernel's warm state — compiled regexes, entity tables, tag
policies — is module-level, so it is built ONCE per Ray worker *process* and
reused across tasks exactly like actor state (worker processes persist across
pipelines). Benchmarked on the 10k-page fixture at 8 CPUs, the stateless-task
form ran ~3× faster than an ActorPoolMapOperator over the same transform
(8.1 s vs 26 s) because the task pool uses every CPU and skips pool
scheduling, so this stage has no actor layout.

Scale notes (the 100 TB design, tested single-node):
- a SINGLE scan: per-row skew is absorbed by small row-batches and Ray's
  dynamic block splitting, not by static lanes chosen up front.
- ``columns=["url", "html"]`` pruning at the read: extraction needs nothing else.
- checkpointed output (engine.checkpoint.run_extraction) is ONE streaming
  pass over every pending partition, never one execution per partition:
  ``carry=("path",)`` threads the read's file path through the extract
  stage, and a write stage fused into the same task routes each row to its
  partition's directory, so extracted rows never enter the object store
  and each partition still commits (and resumes) on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import ray.data

from engine.extract import ROW_TIMEOUT_S, extract_batch
from engine.schema import MAX_FILE_SIZE


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen config (replaces the reference env-var surface, app/main.py:205-215)."""

    max_file_size: int = MAX_FILE_SIZE  # app/main.py:205
    # enforced per-row wall clock (reference declares-but-never-enforces the
    # same 300 s default, app/main.py:208 — SURVEY.md §2.12 deviation)
    row_timeout_s: float = ROW_TIMEOUT_S
    batch_size: int = 64  # rows per extract batch


def read_pages(source: str | list[str], columns: list[str] | None = None,
               **kwargs) -> "ray.data.Dataset":
    """S1 — Parquet ingress (replaces multipart HTTP, app/main.py:641)."""
    return ray.data.read_parquet(source, columns=columns, **kwargs)


def extract_pages(pages: "ray.data.Dataset",
                  cfg: PipelineConfig = PipelineConfig(),
                  carry: tuple[str, ...] = ()) -> "ray.data.Dataset":
    """pages(url, html, ...) → extracted table (EXTRACTED schema, then the
    ``carry`` input columns unchanged)."""
    return pages.map_batches(
        extract_batch,
        fn_kwargs={"max_file_size": cfg.max_file_size,
                   "row_timeout_s": cfg.row_timeout_s, "carry": carry},
        batch_format="pyarrow",
        batch_size=cfg.batch_size,
    )


def extract_from_parquet(source: str | list[str],
                         cfg: PipelineConfig = PipelineConfig(),
                         **read_kwargs) -> "ray.data.Dataset":
    """Flagship read→extract pipeline with column pruning at the read."""
    pages = read_pages(source, columns=["url", "html"], **read_kwargs)
    return extract_pages(pages, cfg)
