"""The Dataset graph: read → gate → (skew split) → extract → sink.

Ray rebuild of the reference's POST /convert spine (SURVEY.md §3.1): the job
store dissolves into columns; validation/size gating is vectorized; the
conversion kernel runs in map_batches.

Stateless tasks vs actor pool (measured, Ray 2.49 local): the extraction
kernel's warm state — compiled regexes, entity tables, tag policies — is
module-level, so it is built ONCE per Ray worker *process* and reused across
tasks exactly like actor state (worker processes persist across pipelines).
Benchmarked on the 10k-page fixture at 8 CPUs, the stateless-task form ran
~3× faster than ActorPoolMapOperator (8.1 s vs 26 s) because the task pool
uses every CPU and skips pool scheduling; ``use_actor_pool=True`` keeps the
actor layout for stages whose state is genuinely per-actor (loaded models,
broadcast indexes fetched in ``__init__`` — e.g. engine.queries.AttachSegment,
engine.similarity.LocalTopK).

Scale notes (the 100 TB design, tested single-node):
- default is a SINGLE scan: per-row skew is absorbed by small row-batches and
  Ray's dynamic block splitting; ``skew_split=True`` switches to the
  two-branch M3 layout (large rows → batch_size=1 lane) at the cost of a
  second scan — use it when giant-row stragglers dominate a partition.
- ``columns=["url", "html"]`` pruning at the read: extraction needs nothing else.
- when sizing actor pools, leave CPU headroom for the read/write task
  operators — a pool that reserves every CPU starves the input stage and the
  pipeline deadlocks (observed, not hypothetical).
- checkpointed output (engine.checkpoint.run_extraction) is ONE streaming
  pass over every pending partition, never one execution per partition:
  ``carry=("path",)`` threads the read's file path through the extract
  stage, and a write stage fused into the same task routes each row to its
  partition's directory, so extracted rows never enter the object store
  and each partition still commits (and resumes) on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from engine.extract import ROW_TIMEOUT_S, ExtractActor, extract_batch
from engine.schema import LARGE_FILE_THRESHOLD, MAX_FILE_SIZE


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen config (replaces the reference env-var surface, app/main.py:205-215)."""

    max_file_size: int = MAX_FILE_SIZE  # app/main.py:205
    large_threshold: int = LARGE_FILE_THRESHOLD  # app/main.py:206
    # enforced per-row wall clock (reference declares-but-never-enforces the
    # same 300 s default, app/main.py:208 — SURVEY.md §2.12 deviation)
    row_timeout_s: float = ROW_TIMEOUT_S
    batch_size: int = 64  # rows/batch on the small branch
    large_batch_size: int = 1  # rows/batch on the large branch (M3)
    min_actors: int = 1
    max_actors: int = 16
    num_cpus: float = 1.0
    skew_split: bool = False
    use_actor_pool: bool = False  # see module docstring for the measured tradeoff


def read_pages(source: str | list[str], columns: list[str] | None = None,
               **kwargs) -> "ray.data.Dataset":
    """S1 — Parquet ingress (replaces multipart HTTP, app/main.py:641)."""
    return ray.data.read_parquet(source, columns=columns, **kwargs)


def _extract_stage(ds: "ray.data.Dataset", cfg: "PipelineConfig",
                   batch_size: int, pool_cap: int | None = None,
                   carry: tuple[str, ...] = ()) -> "ray.data.Dataset":
    if cfg.use_actor_pool:
        cap = pool_cap or cfg.max_actors
        return ds.map_batches(
            ExtractActor,
            fn_constructor_kwargs={"max_file_size": cfg.max_file_size,
                                   "row_timeout_s": cfg.row_timeout_s,
                                   "carry": carry},
            batch_format="pyarrow",
            batch_size=batch_size,
            concurrency=(min(cfg.min_actors, cap), cap),
            num_cpus=cfg.num_cpus,
        )
    return ds.map_batches(
        extract_batch,
        fn_kwargs={"max_file_size": cfg.max_file_size,
                   "row_timeout_s": cfg.row_timeout_s, "carry": carry},
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=cfg.num_cpus,
    )


def extract_pages(pages: "ray.data.Dataset",
                  cfg: PipelineConfig = PipelineConfig(),
                  carry: tuple[str, ...] = ()) -> "ray.data.Dataset":
    """pages(url, html, ...) → extracted table (EXTRACTED schema, then the
    ``carry`` input columns unchanged)."""
    if not cfg.skew_split:
        return _extract_stage(pages, cfg, cfg.batch_size, carry=carry)

    thresh = cfg.large_threshold

    def keep_small(t: pa.Table) -> pa.Table:
        return t.filter(pc.less_equal(pc.binary_length(t["html"]), thresh))

    def keep_large(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(pc.binary_length(t["html"]), thresh))

    small = _extract_stage(
        pages.map_batches(keep_small, batch_format="pyarrow"), cfg,
        cfg.batch_size, carry=carry,
    )
    large = _extract_stage(
        pages.map_batches(keep_large, batch_format="pyarrow"), cfg,
        cfg.large_batch_size, pool_cap=max(2, cfg.max_actors // 4),
        carry=carry,
    )
    return small.union(large)


def extract_from_parquet(source: str | list[str],
                         cfg: PipelineConfig = PipelineConfig(),
                         **read_kwargs) -> "ray.data.Dataset":
    """Flagship read→extract pipeline with column pruning at the read."""
    pages = read_pages(source, columns=["url", "html"], **read_kwargs)
    return extract_pages(pages, cfg)
