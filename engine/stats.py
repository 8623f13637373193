"""Query layer over the output tables (SURVEY.md §2.6 A1-A5, §2.7 K1-K2).

The reference's job-inspection endpoints (app/main.py:750-903) become Dataset
queries: the mutable jobs_store dissolves into the extracted/chunks/manifest
tables (ST2), so every 'endpoint' is a groupby / filter→sort→limit pipeline.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Mean, Sum

from engine.textops import explode_chunks_batch


def job_stats(extracted: "ray.data.Dataset") -> "ray.data.Dataset":
    """A1 — jobs-by-status counts (replaces 4 linear scans, app/main.py:882-888).
    Single pass: Ray Data runs partial counts per block + a tiny final groupby."""
    return extracted.groupby("status").aggregate(Count(alias_name="count"))


def run_rollup(manifest: pa.Table) -> dict:
    """A2 — system-stats analog over the manifest (app/main.py:890-903)."""
    if manifest.num_rows == 0:
        return {"partitions": 0, "rows_in": 0, "rows_ok": 0, "rows_err": 0,
                "bytes_in": 0, "bytes_out": 0, "mean_wall_s": 0.0}
    return {
        "partitions": manifest.num_rows,
        "rows_in": pc.sum(manifest["rows_in"]).as_py(),
        "rows_ok": pc.sum(manifest["rows_ok"]).as_py(),
        "rows_err": pc.sum(manifest["rows_err"]).as_py(),
        "bytes_in": pc.sum(manifest["bytes_in"]).as_py(),
        "bytes_out": pc.sum(manifest["bytes_out"]).as_py(),
        "mean_wall_s": pc.mean(manifest["wall_s"]).as_py(),
    }


def list_rows(ds: "ray.data.Dataset", sort_key: str, *, status: str | None = None,
              limit: int = 50, descending: bool = True,
              tiebreak: str | None = None) -> "ray.data.Dataset":
    """K1 — filter → sort → top-k listing (app/main.py:829-862).

    ``tiebreak`` should be a unique column so the top-k SET is deterministic
    (the reference's created_at sort has the same latent tie issue)."""
    if status is not None:
        ds = ds.map_batches(
            lambda t, s=status: t.filter(pc.equal(t["status"], s)),
            batch_format="pyarrow",
        )
    keys = [sort_key] if tiebreak is None else [sort_key, tiebreak]
    return ds.sort(keys, descending=[descending] * len(keys)).limit(limit)


def explode_chunks(extracted: "ray.data.Dataset", *, gated: bool = True
                   ) -> "ray.data.Dataset":
    """M4 as a Dataset op: extracted → chunks table (url, chunk_index, content,
    char_count), preserving the >10k-chars gate (app/main.py:394)."""
    return extracted.map_batches(
        lambda t, g=gated: explode_chunks_batch(t, gated=g),
        batch_format="pyarrow",
    )


def chunk_page(chunks: "ray.data.Dataset", url: str, index: int
               ) -> "ray.data.Dataset":
    """K2 — chunk pagination (app/main.py:810-824) as a predicate."""
    return chunks.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t["url"], url), pc.equal(t["chunk_index"], index))
        ),
        batch_format="pyarrow",
    )


def content_length_rollup(extracted: "ray.data.Dataset") -> dict:
    """A5 — content_length metadata rollup (app/main.py:414, :551, :716)."""
    res = extracted.aggregate(Sum("n_chars", alias_name="total_chars"),
                              Mean("n_chars", alias_name="mean_chars"),
                              Count(alias_name="rows"))
    return dict(res)


def top_k_per_group(ds: "ray.data.Dataset", key_col: str, sort_col: str,
                    k: int, *, descending: bool = True,
                    tiebreak_col: str | None = None) -> "ray.data.Dataset":
    """Top-k rows PER KEY (the per-group selection of SURVEY.md §2.7 K1,
    group-wise — e.g. "3 priciest parts per brand"), an operator Ray Data
    has no primitive for.

    Plan: ONE hash exchange on a key-hash bucket, then a vectorized pandas
    pass per bucket that ranks EVERY key in the bucket at once (sort +
    groupby(key).cumcount() < k) — the bucket discipline of
    engine/windows.py: Python-call count is capped at the exchange width, never
    the key cardinality. A local per-batch prune (same rank test per input
    block) runs BEFORE the exchange, so at most k rows per (key, block) —
    not the full table — cross the wire.

    Determinism: ties on ``sort_col`` break by ``tiebreak_col`` (default:
    the key column — pass an id column when keys repeat).
    """
    from engine.joins import _bucket_of_column, _coalesced, exchange_width

    width = exchange_width()
    tb = tiebreak_col or key_col
    by = [key_col, sort_col, tb]
    asc = [True, not descending, True]

    def rank_prune(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(by, ascending=asc, kind="mergesort")
        return df[df.groupby(key_col, sort=False).cumcount() < k]

    def local_prune(t: pa.Table) -> pa.Table:
        df = rank_prune(t.to_pandas())
        out = pa.Table.from_pandas(df, preserve_index=False)
        return out.append_column(
            "__bucket", _bucket_of_column(out[key_col], width))

    pruned = ds.map_batches(local_prune, batch_format="pyarrow")

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        return rank_prune(g.drop(columns="__bucket"))

    return _coalesced(pruned, width) \
        .groupby("__bucket").map_groups(per_bucket, batch_format="pandas")


def value_histogram(ds: "ray.data.Dataset", col: str, width: float
                    ) -> "ray.data.Dataset":
    """Fixed-width histogram: (bin, count) with bin = floor(col/width) —
    the distribution-profiling primitive. One vectorized binning pass +
    one Count groupby whose partials combine map-side; exchange volume is
    O(bins × blocks), never the raw rows."""
    from ray.data.aggregate import Count

    def binned(t: pa.Table) -> pa.Table:
        b = pc.cast(pc.floor(pc.divide(pc.cast(t[col], pa.float64()),
                                       width)), pa.int64())
        return pa.table({"bin": b})

    return (ds.map_batches(binned, batch_format="pyarrow")
            .groupby("bin").aggregate(Count(alias_name="n")))


def distinct_count_per_key(ds: "ray.data.Dataset", key_col: str,
                           value_col: str) -> "ray.data.Dataset":
    """Exact count(DISTINCT value) per key. Plan: per-batch (key, value)
    de-dup (vectorized Acero group_by — drops within-block repeats before
    the wire), ONE exchange to distinct (key, value), then a tiny second
    groupby counts per key. Exchange volume is O(distinct pairs), not rows."""
    from ray.data.aggregate import Count

    def local_distinct(t: pa.Table) -> pa.Table:
        return t.select([key_col, value_col]).group_by(
            [key_col, value_col]).aggregate([])

    pairs = ds.map_batches(local_distinct, batch_format="pyarrow")
    return (pairs.groupby([key_col, value_col]).aggregate(Count(alias_name="__c"))
            .map_batches(lambda t: t.select([key_col]), batch_format="pyarrow")
            .groupby(key_col).aggregate(Count(alias_name="n_distinct")))


def pivot_counts(ds: "ray.data.Dataset", key_col: str, cat_col: str,
                 categories: list[str], prefix: str = "n_"
                 ) -> "ray.data.Dataset":
    """Pivot a categorical column into one count column per category
    (the reshape step of per-entity feature tables — e.g. events/user by
    event_type), an operator Ray Data has no primitive for.

    Plan: per-batch 0/1 indicator columns (vectorized ``pc.equal`` — no
    Python per row), then ONE ``groupby(key)`` with a ``Sum`` per category.
    Ray combines the Sum partials map-side, so the exchange carries one
    (key, k small ints) row per key per block — never the raw events.
    ``categories`` is an explicit closed list (the schema must be static;
    discovering it would need a separate distinct pass)."""
    from ray.data.aggregate import Sum

    cats = list(categories)

    def indicators(t: pa.Table) -> pa.Table:
        cols = {key_col: t[key_col]}
        for c in cats:
            cols[f"{prefix}{c}"] = pc.cast(
                pc.equal(t[cat_col], c), pa.int64())
        return pa.table(cols)

    aggs = [Sum(f"{prefix}{c}", alias_name=f"{prefix}{c}") for c in cats]
    return (ds.map_batches(indicators, batch_format="pyarrow")
            .groupby(key_col).aggregate(*aggs))


def grouping_rollup(ds: "ray.data.Dataset", keys: list[str], value_col: str,
                    all_label: str = "ALL") -> pa.Table:
    """ROLLUP aggregate (count + sum at every prefix level of ``keys``,
    coarser levels labeled ``all_label`` — the OLAP subtotal primitive,
    GROUP BY ROLLUP in SQL).

    Plan: ONE distributed groupby at the finest level (partial-agg
    exchange); every coarser level then re-aggregates the finest RESULT
    (count→sum, sum→sum are decomposable), which is O(distinct key
    combinations) — driver state matches any aggregate terminal, and the
    raw table is scanned exactly once. Returns a pa.Table (terminal)."""
    from ray.data.aggregate import Count, Sum
    import pandas as pd

    keys = list(keys)
    finest = ds.groupby(keys).aggregate(
        Count(alias_name="n"), Sum(value_col, alias_name="sum_value")
    ).to_pandas()
    out_cols = keys + ["n", "sum_value"]
    frames = [finest[out_cols].copy()]
    for lvl in range(len(keys) - 1, -1, -1):
        gb = keys[:lvl]
        if gb:
            agg = finest.groupby(gb, as_index=False).agg(
                n=("n", "sum"), sum_value=("sum_value", "sum"))
        else:
            agg = pd.DataFrame({"n": [int(finest["n"].sum())],
                                "sum_value": [float(finest["sum_value"].sum())]})
        for k in keys[lvl:]:
            agg[k] = all_label
        frames.append(agg[out_cols])
    merged = pd.concat(frames, ignore_index=True)
    return pa.Table.from_pandas(merged, preserve_index=False)


def group_percentiles(ds: "ray.data.Dataset", key_col: str, col: str,
                      qs: tuple = (0.25, 0.5, 0.75)) -> pa.Table:
    """Per-key EXACT percentiles (percentile_disc semantics, same rank rule
    as :func:`exact_percentiles`) via the grouped counting-sort pattern: one
    narrow (key, value)->Count groupby — Ray combines partials map-side
    before the exchange — then per-key cumulative ranks on the driver.

    Scale contract: driver state is O(keys x distinct values per key) —
    right for bounded-cardinality value columns (quantized amounts, sizes,
    codes); for unbounded doubles quantize first (the caller's floor/1000
    pattern) or use a sketch. Returns a pa.Table (key, q, value)."""
    from ray.data.aggregate import Sum
    import numpy as np

    from engine.joins import _coalesced, exchange_width

    def local_counts(t: pa.Table) -> pa.Table:
        # Acero pre-agg: within-block repeats collapse before the wire
        g = t.select([key_col, col]).group_by([key_col, col]) \
            .aggregate([([], "count_all")])
        return g.rename_columns([key_col, col, "n"])

    counts = (
        _coalesced(ds.map_batches(local_counts, batch_format="pyarrow"),
                   exchange_width())  # shuffle cost scales with block count
        .groupby([key_col, col])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    if len(counts) == 0 or col not in counts.columns:
        return pa.table({key_col: pa.array([], type=pa.string()),
                         "q": pa.array([], type=pa.float64()),
                         "value": pa.array([], type=pa.float64())})
    counts = counts.sort_values([key_col, col], kind="mergesort")
    out_k, out_q, out_v = [], [], []
    for key, g in counts.groupby(key_col, sort=False):
        cum = g["n"].cumsum().to_numpy()
        vals = g[col].to_numpy()
        total = int(cum[-1])
        for q in qs:
            rank = max(1, int(np.ceil(q * total)))
            out_k.append(key)
            out_q.append(float(q))
            out_v.append(vals[int(np.searchsorted(cum, rank))])
    return pa.table({key_col: pa.array(out_k),
                     "q": pa.array(out_q, type=pa.float64()),
                     "value": pa.array(out_v)})


def exact_percentiles(ds: "ray.data.Dataset", col: str,
                      qs: tuple = (0.25, 0.5, 0.75)) -> pa.Table:
    """EXACT percentiles (percentile_disc semantics: the smallest value whose
    cumulative count reaches ceil(q*n)) for a BOUNDED-CARDINALITY column,
    via the counting-sort pattern: one narrow (value)->Count groupby (Ray
    combines partials map-side before the exchange) and the tiny
    distinct-value table sorts on the driver. Scale contract: driver state is O(distinct
    values) — right for quantities/sizes/categorical codes; for unbounded
    doubles use a histogram sketch instead (documented non-goal here).

    Returns a pa.Table (q, value) — a terminal aggregate, not a Dataset.
    """
    from ray.data.aggregate import Count

    counts = (
        ds.select_columns([col])
        .groupby(col)
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    import numpy as np

    # empty input → typed empty result (an empty aggregate's frame has no
    # columns at all, so guard before the sort)
    if len(counts) == 0 or col not in counts.columns:
        return pa.table({"q": pa.array([], type=pa.float64()),
                         "value": pa.array([], type=pa.float64())})
    counts = counts.sort_values(col)
    cum = counts["n"].cumsum().to_numpy()
    out_q, out_v = [], []
    for q in qs:
        rank = max(1, int(np.ceil(q * int(cum[-1]))))
        idx = int(np.searchsorted(cum, rank))
        out_q.append(float(q))
        out_v.append(counts[col].iloc[idx])
    return pa.table({"q": pa.array(out_q, type=pa.float64()),
                     "value": pa.array(out_v)})


def iqr_outliers(ds: "ray.data.Dataset", key_col: str, col: str,
                 mult_num: int = 3, mult_den: int = 2) -> "ray.data.Dataset":
    """Per-group Tukey-fence outlier rows — the distribution-aware quality
    filter of a training-data pipeline (drop/flag records whose metric is
    extreme FOR ITS GROUP, not globally): keep rows where
    ``value > q3 + (mult_num * (q3 - q1)) // mult_den`` with q1/q3 the
    exact per-key percentile_disc quartiles. The fence is INTEGER
    arithmetic (floor division, default 3//2 = Tukey 1.5) so the SQL twin
    needs no float rounding convention — ``col`` must be an integer column
    (quantize first, the caller's floor(value*1000) pattern).

    Plan: two passes over the input, both narrow. Pass 1 is
    :func:`group_percentiles`' counting-sort exchange (partial-agg
    map-side; driver state O(keys × distinct values)); the resulting
    per-key fence table is TINY (one int per key) and is broadcast via
    ``ray.put`` + the worker-cached get of engine/broadcast.py. Pass 2 is
    one vectorized ``pc.index_in`` lookup-filter over the stream — no
    second exchange, no per-row Python.
    """
    import numpy as np

    import ray

    from engine.broadcast import get_broadcast

    qt = group_percentiles(ds, key_col, col, qs=(0.25, 0.75)).to_pandas()
    piv = qt.pivot(index=key_col, columns="q", values="value")
    hi = piv[0.75] + (mult_num * (piv[0.75] - piv[0.25])) // mult_den
    keys = pa.array(hi.index.to_numpy())
    fences = pa.array(hi.to_numpy().astype(np.int64), type=pa.int64())
    ref = ray.put((keys, fences))

    def flag(t: pa.Table) -> pa.Table:
        k_arr, f_arr = get_broadcast(ref)
        idx = pc.index_in(t[key_col], value_set=k_arr)
        fence = pc.take(f_arr, idx)
        return t.filter(pc.greater(t[col], fence))

    return ds.map_batches(flag, batch_format="pyarrow")


def snapshot_diff(ds_a: "ray.data.Dataset", ds_b: "ray.data.Dataset",
                  key_col: str, value_col: str) -> "ray.data.Dataset":
    """Per-key drift between two dataset snapshots — the
    dataset-versioning / CDC-audit primitive: for every key present in
    EITHER snapshot, its row count and integer value sum in each, plus the
    deltas (missing side → 0). The training-data use case: diffing two
    crawls / two pipeline runs to see what a filter change did per slice.

    Plan: each side collapses to O(keys) rows FIRST (map-side partial
    Count/Sum groupby — the full snapshots never meet), then ONE
    distributed full-outer ``engine.joins.hash_join`` on the key aligns
    the two aggregate tables; the null-fill + delta arithmetic is one
    vectorized Arrow pass. Aggregation sides are materialized before the
    join (hash_join reads schemas up front; a lazy side would re-execute
    — CLAUDE.md).

    Output: (key, n_a, n_b, sum_a, sum_b, n_delta, sum_delta), int64.
    """
    from engine.joins import hash_join

    def agg_side(ds, n_name, s_name):
        out = (ds.select_columns([key_col, value_col])
               .groupby(key_col)
               .aggregate(Count(alias_name=n_name),
                          Sum(value_col, alias_name=s_name)))
        return out.materialize()

    a = agg_side(ds_a, "n_a", "sum_a")
    b = agg_side(ds_b, "n_b", "sum_b")
    joined = hash_join(a, b, on=key_col, how="outer")

    def finish(t: pa.Table) -> pa.Table:
        def fill(name):
            return pc.coalesce(pc.cast(t[name], pa.int64()),
                               pa.scalar(0, pa.int64()))
        n_a, n_b = fill("n_a"), fill("n_b")
        s_a, s_b = fill("sum_a"), fill("sum_b")
        return pa.table({
            key_col: t[key_col], "n_a": n_a, "n_b": n_b,
            "sum_a": s_a, "sum_b": s_b,
            "n_delta": pc.subtract(n_b, n_a),
            "sum_delta": pc.subtract(s_b, s_a),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def mode_per_key(ds: "ray.data.Dataset", key_col: str,
                 val_col: str) -> "ray.data.Dataset":
    """Per-key modal value — each key's most frequent ``val_col`` (ties →
    the smallest value), the categorical-summary primitive (dominant
    language per domain, top event per user, majority label per cluster).

    Plan: one narrow (key, value)->Count exchange with per-block Acero
    pre-agg (repeats collapse map-side — the wire carries distinct pairs
    per block, not rows), then :func:`top_k_per_group` k=1 over the count
    table ranks every key in a bucket with ONE vectorized pandas pass.
    Output: (key, value, n).
    """
    from engine.joins import _coalesced, exchange_width

    counts = (
        _coalesced(ds.map_batches(
            lambda t: acero_counts(t, [key_col, val_col]),
            batch_format="pyarrow"), exchange_width())
        .groupby([key_col, val_col])
        .aggregate(Sum("n", alias_name="n"))
    )
    return top_k_per_group(counts, key_col, "n", 1, descending=True,
                           tiebreak_col=val_col)


# ---------------------------------------------------------------------------
# HyperLogLog registers — approximate distinct-count sketch
# ---------------------------------------------------------------------------

HLL_HASH_BITS = 60  # md5 hex[:15] — the SQL-checkable 60-bit hash family


def _hll_hash60(col: pa.ChunkedArray | pa.Array, method: str) -> "np.ndarray":
    """60-bit hash per row. 'md5' = the SQL-checkable definition
    (md5(str(v)) hex[:15] == DuckDB CAST('0x'||substr(md5(CAST(v AS
    VARCHAR)),1,15) AS BIGINT)); 'fast' = polars xxhash masked to 60 bits
    (one vectorized C pass, not SQL-reproducible — the 100-TB path)."""
    import numpy as np

    if method == "md5":
        import hashlib
        md5 = hashlib.md5  # local binds: this loop runs per corpus row
        return np.fromiter(
            (int(md5(str(v).encode()).hexdigest()[:15], 16)
             for v in col.to_pylist()),
            dtype=np.int64, count=len(col))
    if method == "fast":
        try:
            import polars as pl
        except ImportError as exc:  # same steering as partition._hash_array
            raise RuntimeError(
                "hash method 'fast' requires polars; use method='md5' "
                "instead") from exc

        if isinstance(col, pa.Array):
            col = pa.chunked_array([col])
        h = pl.from_arrow(col).hash(seed=0).to_numpy()
        return (h & np.uint64((1 << HLL_HASH_BITS) - 1)).astype(np.int64)
    raise ValueError(f"unknown hash method: {method}")


def acero_counts(t: pa.Table, key_cols: "list[str]", out_col: str = "n"
                 ) -> pa.Table:
    """Per-block Acero count pre-agg — the map-side combiner every narrow
    count exchange here starts with: repeats collapse before the wire, the
    block leaves as distinct (keys..., n:int64) rows. pyarrow group_by
    returns key columns first, count last (pinned by the callers' tests)."""
    g = t.select(key_cols).group_by(key_cols).aggregate([([], "count_all")])
    return g.rename_columns([*key_cols, out_col]).set_column(
        len(key_cols), out_col, pc.cast(g.column(len(key_cols)), pa.int64()))


def profile_columns(ds: "ray.data.Dataset", cols: "list[str]",
                    approx: str = "auto",
                    distinct_cap: int = 10_000, hll_m: int = 256,
                    hll_method: str = "fast") -> pa.Table:
    """Column profiler (SUMMARIZE): one narrow (column, n, n_null) stats
    pass, one multi-column HLL probe pass, and an exact-distinct exchange
    ONLY for columns the probe proves are low-cardinality — the "what is
    in this table" first step of onboarding a new corpus drop. Returns one
    row per profiled column: (col, n, n_null, n_distinct, distinct_exact).

    The scale path is the DEFAULT (VERDICT r4 #4): with ``approx="auto"``
    every column first gets an integer-exact HLL estimate from a single
    probe pass whose exchange carries at most ``hll_m`` integers per
    (block, column) no matter how many rows flow in. Columns whose
    estimate is <= ``distinct_cap`` take the exact path — a per-block
    Acero pre-agg so only the (bounded, <= ~cap) value domain crosses the
    wire — and report ``distinct_exact=True``; columns above the cap (the
    unique-key probe that made the old default O(rows)) report the HLL
    estimate itself with ``distinct_exact=False`` and never pay a domain
    exchange. ``approx="never"`` forces the exact path for every column
    (the pre-round-5 behavior); ``approx="always"`` reports HLL for all.

    The gate compares a partitioning-independent quantity (the merged-HLL
    estimate), so the output is identical at any parallelism / block
    layout — and :func:`hll_estimate_int` is integer-exact, so a DuckDB
    twin can replicate the gate decision bit-for-bit. ``distinct_cap``
    must stay >= 2.5*hll_m so the HLL small-range region (where the
    estimator would need its linear-counting correction) is always routed
    to the exact path (see hll_estimate_int).
    """
    import numpy as np
    import pandas as pd
    from ray.data.aggregate import Max

    from engine.joins import _coalesced, exchange_width

    width = exchange_width()
    if approx not in ("auto", "never", "always"):
        raise ValueError(f"unknown approx mode: {approx}")
    if approx == "auto" and distinct_cap < 2.5 * hll_m:
        raise ValueError("distinct_cap must be >= 2.5*hll_m (the HLL "
                         "small-range region must gate to the exact path)")

    # consumed up to 2 + len(cols) times below: pass a RE-READABLE input
    # (read_parquet → cheap maps — the filter_by_quantile contract) or
    # materialize() an expensive upstream yourself. An unconditional
    # materialize here would pin O(corpus) bytes in the object store for
    # exactly the "fresh corpus drop" case this profiler exists for.

    def stats_pass(t: pa.Table) -> pa.Table:
        return pa.table({
            "col": pa.array(list(cols), type=pa.string()),
            "n": pa.array([t.num_rows] * len(cols), type=pa.int64()),
            "n_null": pa.array([t[c].null_count for c in cols],
                               type=pa.int64()),
        })

    base = {r["col"]: (r["n"], r["n_null"]) for r in
            (ds.map_batches(stats_pass, batch_format="pyarrow")
             .groupby("col")
             .aggregate(Sum("n", alias_name="n"),
                        Sum("n_null", alias_name="n_null"))
             .take_all())}

    estimates: dict[str, int] = {}
    if approx != "never":
        r_bits = hll_m.bit_length() - 1
        if 1 << r_bits != hll_m:
            raise ValueError("hll_m must be a power of two")
        low_bits = HLL_HASH_BITS - r_bits
        low_mask = (1 << low_bits) - 1

        def hll_probe(t: pa.Table) -> pa.Table:
            # one partial per column per block, all in one pass: the same
            # bincount register-fold as hll_registers, keyed by col name
            names: list = []
            regs: list = []
            rhos: list = []
            for c in cols:
                vals = t[c].drop_null()          # count(DISTINCT): no nulls
                if len(vals) == 0:
                    continue
                h = _hll_hash60(vals, hll_method)
                reg = (h >> low_bits).astype(np.int64)
                low = (h & low_mask).astype(np.float64)  # < 2^53: exact
                _, exp = np.frexp(low)
                rho = (low_bits - exp + 1).astype(np.int64)
                seen = np.bincount(reg * 64 + rho, minlength=hll_m * 64) \
                    .reshape(hll_m, 64) > 0
                best = np.where(seen.any(axis=1),
                                (seen * np.arange(64)).max(axis=1), -1)
                hit = np.nonzero(best >= 0)[0]
                names.extend([c] * len(hit))
                regs.append(hit.astype(np.int64))
                rhos.append(best[hit].astype(np.int64))
            if not names:
                return pa.table({"col": pa.array([], type=pa.string()),
                                 "register": pa.array([], type=pa.int64()),
                                 "rho_max": pa.array([], type=pa.int64())})
            return pa.table({"col": pa.array(names, type=pa.string()),
                             "register": np.concatenate(regs),
                             "rho_max": np.concatenate(rhos)})

        merged = (_coalesced(ds.map_batches(hll_probe,
                                            batch_format="pyarrow"),
                             width)
                  .groupby(["col", "register"])
                  .aggregate(Max("rho_max", alias_name="rho_max"))
                  .take_all())                   # <= len(cols)*hll_m rows
        for c in cols:
            rows = [r for r in merged if r["col"] == c]
            estimates[c] = hll_estimate_int(
                pd.DataFrame(rows, columns=["col", "register", "rho_max"]),
                hll_m)

    def takes_exact(c: str) -> bool:
        if approx == "never":
            return True
        if approx == "always":
            return False
        return estimates[c] <= distinct_cap

    distinct: dict[str, int] = {}
    exact: dict[str, bool] = {}
    for c in cols:
        exact[c] = takes_exact(c)
        if not exact[c]:
            distinct[c] = estimates[c]
            continue
        # count(DISTINCT x) semantics: nulls excluded
        dom = _coalesced(ds.map_batches(
            lambda t, c=c: acero_counts(t.filter(pc.is_valid(t[c])), [c]),
            batch_format="pyarrow"), width) \
            .groupby(c).aggregate(Count(alias_name="__g"))
        distinct[c] = dom.count()

    return pa.table({
        "col": pa.array(list(cols), type=pa.string()),
        "n": pa.array([base[c][0] for c in cols], type=pa.int64()),
        "n_null": pa.array([base[c][1] for c in cols], type=pa.int64()),
        "n_distinct": pa.array([distinct[c] for c in cols],
                               type=pa.int64()),
        "distinct_exact": pa.array([exact[c] for c in cols],
                                   type=pa.bool_()),
    })


def hll_registers(ds: "ray.data.Dataset", col: str, m: int = 256,
                  method: str = "md5") -> "ray.data.Dataset":
    """HyperLogLog register table — the approximate-distinct sketch that
    replaces an all-to-all `unique` at 100 TB: the exchange carries at most
    ``m`` integers PER BLOCK no matter how many rows flow in.

    Per block (vectorized): hash → top log2(m) bits pick the register, the
    low bits' leading-zero run gives rho (np.frexp exponent — exact, the
    same integer ladder the tfidf idf uses), np.maximum.at collapses the
    block to ≤ m (register, rho_max) rows map-side. One coalesced
    groupby(register).Max merges blocks. Output: (register, rho_max) for
    every register hit by ≥1 row (absent register ≡ rho 0 — the estimator
    supplies them); feed to :func:`hll_estimate`.
    """
    import numpy as np

    from engine.joins import _coalesced, exchange_width

    r_bits = m.bit_length() - 1
    if 1 << r_bits != m:
        raise ValueError("m must be a power of two")
    low_bits = HLL_HASH_BITS - r_bits
    if low_bits > 52:
        # rho comes from np.frexp over float64(low); exactness needs
        # low < 2^53. m >= 256 keeps low_bits <= 52 (and m < 256 is a
        # >6.5%-error sketch nobody should want).
        raise ValueError("m must be >= 256 (60-bit hash, float64-exact rho)")
    low_mask = (1 << low_bits) - 1

    def partial(t: pa.Table) -> pa.Table:
        h = _hll_hash60(t[col], method)
        reg = (h >> low_bits).astype(np.int64)
        low = (h & low_mask).astype(np.float64)  # < 2^53: float64-exact
        _, exp = np.frexp(low)                   # bit length; frexp(0) -> 0
        rho = (low_bits - exp + 1).astype(np.int64)
        # per-register max WITHOUT np.maximum.at (scalar-dispatch, ~0.7 s/M):
        # rho <= low_bits+1 < 64, so bincount over (reg, rho) cells + a
        # row-wise argmax over the n-independent (m, 64) grid is pure C.
        seen = np.bincount(reg * 64 + rho, minlength=m * 64) \
            .reshape(m, 64) > 0
        best = np.where(seen.any(axis=1),
                        (seen * np.arange(64)).max(axis=1), -1)
        hit = np.nonzero(best >= 0)[0]
        return pa.table({"register": hit.astype(np.int64),
                         "rho_max": best[hit].astype(np.int64)})

    from ray.data.aggregate import Max

    return (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow"),
                   exchange_width())
        .groupby("register")
        .aggregate(Max("rho_max", alias_name="rho_max"))
    )


def hll_estimate(registers, m: int = 256) -> float:
    """Distinct-count estimate from an :func:`hll_registers` table (driver
    side — the table is ≤ m rows). Standard HLL with the small-range
    (linear-counting) correction; ~1.04/sqrt(m) relative error."""
    import math

    import numpy as np

    if hasattr(registers, "to_pandas"):        # Dataset or pa.Table
        registers = registers.to_pandas()
    rho = np.zeros(m, dtype=np.int64)
    rho[registers["register"].to_numpy()] = registers["rho_max"].to_numpy()
    alpha = {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-rho.astype(np.float64)))
    zeros = int(np.count_nonzero(rho == 0))
    if est <= 2.5 * m and zeros:
        est = m * math.log(m / zeros)          # linear counting
    return float(est)


def hll_estimate_int(registers, m: int = 256) -> int:
    """Integer-exact HLL floor estimate — the SQL-twin-checkable form of
    :func:`hll_estimate`. alpha_m = 0.7213/(1 + 1.079/m) rewritten as the
    rational 7213*m/(10000*m + 10790); S = sum over all m registers of
    2^(53 - rho) (absent register ≡ rho 0 → 2^53; every term and the sum
    are exact integers, <= m*2^53); estimate =
    floor(7213 * m^3 * 2^53 / ((10000*m + 10790) * S)) — one
    arbitrary-precision integer division, no float anywhere, so DuckDB
    (HUGEINT arithmetic) and Python (int) agree bit-for-bit at any
    summation order.

    Deliberately NO small-range linear-counting correction (it needs a
    transcendental ln both sides would round differently): callers must
    route columns whose raw estimate falls in the small-range region
    (<= 2.5*m) to an exact distinct count instead — profile_columns'
    ``distinct_cap >= 2.5*hll_m`` guard guarantees exactly that, so the
    uncorrected region is never reported.
    """
    import numpy as np

    if hasattr(registers, "to_pandas"):        # Dataset or pa.Table
        registers = registers.to_pandas()
    rho = np.zeros(m, dtype=np.int64)
    if len(registers):
        rho[registers["register"].to_numpy().astype(np.int64)] = \
            registers["rho_max"].to_numpy().astype(np.int64)
    s = sum(1 << (53 - int(r)) for r in rho)   # python int: never overflows
    return (7213 * m ** 3 * (1 << 53)) // ((10000 * m + 10790) * s)


# ---------------------------------------------------------------------------
# global rank — rank() OVER (ORDER BY value) without a global sort
# ---------------------------------------------------------------------------


def global_rank(ds: "ray.data.Dataset", val_col: str,
                rank_col: str = "rnk",
                lo_hi: "tuple[float, float] | None" = None,
                dense: bool = False) -> "ray.data.Dataset":
    """Attach ``rank_col`` = SQL rank() OVER (ORDER BY val_col) — or
    dense_rank() with ``dense=True`` (consecutive ranks, ties collapse:
    the value-to-ordinal encoding step) — to every row — global order WITHOUT a full-table sort: only the compressed
    (value, count) domain is exchanged; the wide rows take one
    co-partitioned join.

    Plan: (1) distinct-value counts — per-block Acero count pre-agg, one
    narrow exchange, groupby sum; (2) uniform value-range buckets over
    [min, max] (deterministic — a quantile sketch would replace the uniform
    cut at heavy skew), per-bucket totals exclusive-prefix-summed on the
    driver (one scalar per bucket); (3) per bucket ONE vectorized pandas pass:
    sorted cumulative counts + bucket offset → (value, rank); (4) one
    hash_join re-attaches ranks to the full rows — integer columns join on
    the value itself (bitcast would collide above 2^53), float columns on
    the float64 BIT PATTERN (int64 view; -0.0 normalized to +0.0 so the
    key family matches float equality). Precondition: no null/NaN values.

    ``lo_hi``: optional (min, max) hint — e.g. from parquet row-group
    statistics (the embedding_near_dup n/dim-hint discipline). Any values
    that COVER the true range are correct (bucket cuts only move); passing
    it folds bucket assignment into the counts pass and removes two
    pipeline barriers (a lo/hi aggregate + a re-bucketing materialize).
    """
    import numpy as np
    import pandas as pd

    from engine.joins import _coalesced, exchange_width, hash_join
    from ray.data.aggregate import Max, Min

    width = exchange_width()

    def _key(arr: "np.ndarray") -> "np.ndarray":
        if arr.dtype.kind in "iu":             # exact: no float round-trip
            return arr.astype(np.int64, copy=False)
        arr = arr.astype(np.float64, copy=False)
        return (arr + 0.0).view(np.int64)      # -0.0 -> +0.0, then bitcast

    def _bucket_fn(lo: float, hi: float):
        span = (hi - lo) or 1.0

        def add_bucket(t: pa.Table) -> pa.Table:
            v = t[val_col].to_numpy(zero_copy_only=False).astype(np.float64)
            b = np.clip(((v - lo) / span * width).astype(np.int64),
                        0, width - 1)
            return t.append_column("__bucket", pa.array(b, type=pa.int32()))

        return add_bucket

    if lo_hi is not None:
        add_bucket = _bucket_fn(float(lo_hi[0]), float(lo_hi[1]))
        bucketed = (
            _coalesced(ds.map_batches(
                lambda t: add_bucket(acero_counts(t, [val_col])),
                batch_format="pyarrow"), width)
            .groupby([val_col])                # __bucket is val-determined
            .aggregate(Sum("n", alias_name="n"), Max("__bucket",
                                                     alias_name="__bucket"))
            .materialize()
        )
    else:
        counts = (
            _coalesced(ds.map_batches(
                lambda t: acero_counts(t, [val_col]),
                batch_format="pyarrow"), width)
            .groupby(val_col)
            .aggregate(Sum("n", alias_name="n"))
            .materialize()                      # used by 2 consumers below
        )
        lohi = counts.aggregate(Min(val_col, alias_name="lo"),
                                Max(val_col, alias_name="hi"))
        add_bucket = _bucket_fn(float(lohi["lo"]), float(lohi["hi"]))
        bucketed = counts.map_batches(add_bucket,
                                      batch_format="pyarrow").materialize()
    # rank(): offsets count ROWS below the bucket; dense_rank(): they
    # count DISTINCT VALUES below it (Count over the same value table)
    agg = (Count(alias_name="__t") if dense
           else Sum("n", alias_name="__t"))
    totals = {r["__bucket"]: r["__t"] for r in
              bucketed.groupby("__bucket").aggregate(agg).take_all()}
    offsets, acc = {}, 0
    for b in range(width):  # exclusive prefix sum
        offsets[b] = acc
        acc += totals.get(b, 0)

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values(val_col, kind="mergesort")
        start = offsets[int(g["__bucket"].iloc[0])]
        if dense:
            rnk = start + np.arange(1, len(g) + 1)
        else:
            n = g["n"].to_numpy()
            rnk = start + np.concatenate(([0], np.cumsum(n[:-1]))) + 1
        out = pd.DataFrame({val_col: g[val_col].to_numpy(), rank_col: rnk})
        out["__rk"] = _key(out[val_col].to_numpy())
        return out.drop(columns=[val_col])

    ranks = bucketed.groupby("__bucket") \
        .map_groups(per_bucket, batch_format="pandas") \
        .materialize()  # hash_join reads schemas up front — without this
    # the rank shuffle runs twice (schema probe + join union, CLAUDE.md)

    def add_key(t: pa.Table) -> pa.Table:
        v = t[val_col].to_numpy(zero_copy_only=False)
        return t.append_column("__rk", pa.array(_key(v), type=pa.int64()))

    joined = hash_join(ds.map_batches(add_key, batch_format="pyarrow"),
                       ranks, on="__rk")
    return joined.map_batches(lambda t: t.drop_columns(["__rk"]),
                              batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Count-min sketch — bounded-size frequency summary / heavy hitters
# ---------------------------------------------------------------------------


def _seeded_cells(col: "pa.ChunkedArray | pa.Array", seed: int, mod: int,
                  method: str) -> "np.ndarray":
    """Per-row cell index for the seeded sketch family (CMS rows, Bloom
    bits): 60-bit md5 of f"{seed}:{v}" mod ``mod`` ('md5', the
    SQL-checkable definition) or polars xxhash(seed) mod ``mod``
    ('fast'). ONE definition shared by build and probe sides."""
    import numpy as np

    if method == "md5":
        import hashlib
        md5 = hashlib.md5
        pre = f"{seed}:"
        return np.fromiter(
            (int(md5((pre + str(v)).encode()).hexdigest()[:15], 16) % mod
             for v in col.to_pylist()),
            dtype=np.int64, count=len(col))
    if method == "fast":
        try:
            import polars as pl
        except ImportError as exc:
            raise RuntimeError(
                "hash method 'fast' requires polars; use method='md5' "
                "instead") from exc
        if isinstance(col, pa.Array):
            col = pa.chunked_array([col])
        return (pl.from_arrow(col).hash(seed=seed).to_numpy()
                % np.uint64(mod)).astype(np.int64)
    raise ValueError(f"unknown hash method: {method}")


def _seeded_probe(value, seed: int, mod: int, method: str) -> int:
    """Single-value cell index — the driver-side probe twin of
    :func:`_seeded_cells`."""
    if method == "md5":
        import hashlib
        return int(hashlib.md5(f"{seed}:{value}".encode())
                   .hexdigest()[:15], 16) % mod
    if method == "fast":
        import polars as pl
        return int(pl.Series([value]).hash(seed=seed)[0] % mod)
    raise ValueError(f"unknown hash method: {method}")


def cms_counts(ds: "ray.data.Dataset", col: str, d: int = 4, w: int = 1024,
               method: str = "md5") -> "ray.data.Dataset":
    """Count-min sketch of ``col``'s value frequencies — like
    :func:`hll_registers`, a sketch whose exchange carries at most d×w
    integers per block regardless of row count: the heavy-hitter /
    frequency-estimation primitive when the value domain is too large to
    groupby (url hosts, n-grams, user ids at 10^12 events).

    Per block (one np.add.at pass per hash row): row j's cell for value v
    is a 60-bit md5 of ``f"{j}:{v}"`` mod w — SQL-checkable ('md5') — or a
    seeded polars xxhash ('fast', the 100-TB path). Blocks collapse to
    present cells map-side; one coalesced groupby sums partials. Output:
    (r, cell, n) for every non-zero cell; feed to :func:`cms_query`.
    Sketches merge by cell-wise addition (the groupby already is that
    merge), so shards/days can be sketched independently and combined.
    """
    import numpy as np

    from engine.joins import _coalesced, exchange_width

    def partial(t: pa.Table) -> pa.Table:
        arr = np.zeros(d * w, dtype=np.int64)
        for j in range(d):
            idx = _seeded_cells(t[col], j, w, method)
            arr[j * w:(j + 1) * w] += np.bincount(idx, minlength=w)
        hit = np.nonzero(arr)[0]
        return pa.table({"r": (hit // w).astype(np.int64),
                         "cell": (hit % w).astype(np.int64),
                         "n": arr[hit]})

    return (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow"),
                   exchange_width())
        .groupby(["r", "cell"])
        .aggregate(Sum("n", alias_name="n"))
    )


def cms_query(cms, value, d: int = 4, w: int = 1024,
              method: str = "md5") -> int:
    """Frequency upper-bound estimate for ``value`` from a
    :func:`cms_counts` table (driver side — the table is ≤ d×w rows).
    Never under-counts; over-counts by at most the collision mass
    (≤ e·N/w with probability 1−e^−d)."""
    import numpy as np

    if hasattr(cms, "to_pandas"):
        cms = cms.to_pandas()
    grid = np.zeros((d, w), dtype=np.int64)
    grid[cms["r"].to_numpy(), cms["cell"].to_numpy()] = cms["n"].to_numpy()
    cells = [_seeded_probe(value, j, w, method) for j in range(d)]
    return int(min(grid[j, c] for j, c in enumerate(cells)))


def bloom_bits(ds: "ray.data.Dataset", col: str, m: int = 4096, k: int = 3,
               method: str = "md5") -> "ray.data.Dataset":
    """Bloom filter of ``col``'s value set as a SET-BIT table — the
    membership sketch completing the trio (:func:`hll_registers`
    cardinality, :func:`cms_counts` frequency): build once over a huge key
    set, persist ≤ m rows, use for cheap "definitely absent" pruning
    (the broadcast side of engine.joins bloom_semi_join, but buildable
    DISTRIBUTED and mergeable — shard filters union by bit-set union,
    which the distinct groupby already is).

    Bit j(v) = 60-bit md5 of ``f"{j}:{v}"`` mod m per seed j < k ('md5',
    SQL-checkable) or seeded polars xxhash ('fast'). Per block one
    bincount collapses to ≤ m distinct bits map-side. Output: (bit) rows,
    sorted semantics-free; feed to :func:`bloom_contains`.
    """
    import numpy as np

    from engine.joins import _coalesced, exchange_width

    def partial(t: pa.Table) -> pa.Table:
        hit = np.zeros(m, dtype=bool)
        for j in range(k):
            idx = _seeded_cells(t[col], j, m, method)
            hit |= np.bincount(idx, minlength=m) > 0
        return pa.table({"bit": np.nonzero(hit)[0].astype(np.int64)})

    return (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow"),
                   exchange_width())
        .groupby("bit").aggregate(Count(alias_name="__c"))
        .map_batches(lambda t: t.select(["bit"]), batch_format="pyarrow")
    )


def bloom_contains(bits, value, m: int = 4096, k: int = 3,
                   method: str = "md5") -> bool:
    """Membership probe against a :func:`bloom_bits` table (driver side —
    ≤ m rows). False = DEFINITELY absent; True = present or a false
    positive (rate ≈ (1 - e^{-kn/m})^k)."""
    import numpy as np

    if hasattr(bits, "to_pandas"):
        bits = bits.to_pandas()
    have = set(int(b) for b in np.asarray(bits["bit"]))
    probes = [_seeded_probe(value, j, m, method) for j in range(k)]
    return all(p in have for p in probes)


def hll_registers_by_key(ds: "ray.data.Dataset", key_col: str, col: str,
                         m: int = 256,
                         method: str = "md5") -> "ray.data.Dataset":
    """PER-KEY HyperLogLog registers — approximate count(DISTINCT col)
    GROUP BY key whose exchange is bounded by m integers PER KEY per
    block, regardless of row count: the scale path where
    :func:`distinct_count_per_key`'s exact (key, value) distinct exchange
    (O(distinct pairs)) outgrows the wire — distinct URLs per domain at
    10^12 rows.

    Per block: one hash pass + one vectorized pandas (key, register) max
    fold; one narrow groupby(key, register).Max merges blocks. Output:
    (key, register, rho_max); estimate per key by feeding each key's
    slice to :func:`hll_estimate` (absent registers ≡ rho 0, as there).
    """
    import numpy as np
    import pandas as pd

    from engine.joins import _coalesced, exchange_width
    from ray.data.aggregate import Max

    r_bits = m.bit_length() - 1
    if 1 << r_bits != m:
        raise ValueError("m must be a power of two")
    low_bits = HLL_HASH_BITS - r_bits
    if low_bits > 52:
        raise ValueError("m must be >= 256 (60-bit hash, float64-exact rho)")
    low_mask = (1 << low_bits) - 1

    def partial(t: pa.Table) -> pa.Table:
        h = _hll_hash60(t[col], method)
        reg = (h >> low_bits).astype(np.int64)
        low = (h & low_mask).astype(np.float64)
        _, exp = np.frexp(low)
        rho = (low_bits - exp + 1).astype(np.int64)
        df = pd.DataFrame({
            key_col: t[key_col].to_numpy(zero_copy_only=False),
            "register": reg, "rho_max": rho,
        })
        out = df.groupby([key_col, "register"], sort=False,
                         dropna=False)["rho_max"].max().reset_index()
        # dropna=False: a null key keeps its group (SQL GROUP BY
        # semantics — the stated twin), instead of silently vanishing
        return pa.Table.from_pandas(out, preserve_index=False)

    return (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow"),
                   exchange_width())
        .groupby([key_col, "register"])
        .aggregate(Max("rho_max", alias_name="rho_max"))
    )


# ---------------------------------------------------------------------------
# KLL-style mergeable quantile sketch — the missing sibling of the
# HLL/CMS/Bloom trio for UNBOUNDED-cardinality numeric columns, where
# exact_percentiles' O(distinct) counting-sort state breaks (per-doc loss,
# lengths, scores at 10^12 rows).
#
# Deterministic variant (no RNG): each compaction sorts a level and promotes
# the odd-indexed half of the even prefix one level up (weight doubles); the
# leftover stays. Total weight is EXACTLY preserved, and every compaction at
# level l adds at most 2^l rank error, so
#     |est_rank - true_rank| <= sum_l C_l * 2^l,  C_l <= ceil(N / (k 2^l)),
# i.e. ~ L*N/k with L = log2(N/k) levels (the classic KLL shape; Karnin,
# Lang, Liberty 2016 — deterministic compaction trades the sqrt factor for
# merge-order-independent REPRODUCIBILITY of the bound). With runs of equal
# values wider than the bound, the answered VALUE is exact — that is the
# oracle trick (the HLL md5-family discipline): plant integer runs, pin the
# sketch answer to quantile_disc.
#
# Merge = concatenate per-level buffers, re-compact: associative and
# weight-preserving, so the Ray plan is the hll_registers shape — per-block
# partial sketches (<= k*L narrow (level, value) rows per block cross the
# wire), one bucket-merge round bounds the driver's final merge at
# KLL_MERGE_FANIN * k * L rows, never O(rows).
# ---------------------------------------------------------------------------

KLL_DEFAULT_K = 512
KLL_MERGE_FANIN = 32  # buckets of kll_partials' merge round, on any cluster


def _kll_compact(levels: "list[np.ndarray]", k: int) -> "list[np.ndarray]":
    """Compact until every level holds <= k items (in place, returns it)."""
    import numpy as np

    lvl = 0
    while lvl < len(levels):
        buf = levels[lvl]
        if len(buf) <= k:
            lvl += 1
            continue
        buf = np.sort(buf, kind="stable")
        m = (len(buf) // 2) * 2
        promoted = buf[1:m:2]          # odd indices of the even prefix
        levels[lvl] = buf[m:]          # leftover (0 or 1 item)
        if lvl + 1 == len(levels):
            levels.append(promoted)
        else:
            levels[lvl + 1] = np.concatenate([levels[lvl + 1], promoted])
        lvl += 1
    return levels


def kll_build(values: "np.ndarray", k: int = KLL_DEFAULT_K,
              ) -> "list[np.ndarray]":
    """Sketch of one value array: level l holds items of weight 2^l."""
    import numpy as np

    return _kll_compact([np.asarray(values, dtype=np.float64)], k)


def kll_merge(sketches: "list[list[np.ndarray]]", k: int = KLL_DEFAULT_K,
              ) -> "list[np.ndarray]":
    """Merge per-level buffers then re-compact (associative)."""
    import numpy as np

    depth = max((len(s) for s in sketches), default=0)
    levels = [
        np.concatenate([s[i] for s in sketches if len(s) > i] or
                       [np.empty(0, dtype=np.float64)])
        for i in range(depth)
    ]
    return _kll_compact(levels, k)


def kll_total_weight(levels: "list[np.ndarray]") -> int:
    return sum(len(buf) << lvl for lvl, buf in enumerate(levels))


def kll_rank_error_bound(n: int, k: int) -> int:
    """Worst-case |est_rank - true_rank| for this deterministic variant.

    A level-l compaction adds <= 2^l rank error; an op fires only when the
    level exceeds k items and removes all but <=1 of them, so ops at level l
    <= ceil(A_l/k)+1 with A_l <= N/2^l items ever arriving there, and levels
    with A_l <= k never compact. Sum: ~ N*log2(N/k)/k."""
    bound, lvl = 0, 0
    while (n >> lvl) > k:
        ops = -(-(n >> lvl) // k) + 1
        bound += ops << lvl
        lvl += 1
    return bound


def kll_quantile_values(levels: "list[np.ndarray]", qs: "list[float]",
                        ) -> "list[float]":
    """quantile_disc semantics: smallest stored value whose estimated rank
    (total weight of stored items <= v) reaches ceil(q*n)."""
    import numpy as np

    vals = np.concatenate([b for b in levels if len(b)] or
                          [np.empty(0, dtype=np.float64)])
    wts = np.concatenate(
        [np.full(len(b), 1 << l, dtype=np.int64)
         for l, b in enumerate(levels) if len(b)] or
        [np.empty(0, dtype=np.int64)])
    order = np.argsort(vals, kind="stable")
    vals, wts = vals[order], np.cumsum(wts[order])
    n = int(wts[-1]) if len(wts) else 0
    out = []
    for q in qs:
        target = int(np.ceil(q * n)) or 1  # quantile_disc's ceil(q*n) rank
        i = int(np.searchsorted(wts, target, side="left"))
        out.append(float(vals[min(i, len(vals) - 1)]) if n else float("nan"))
    return out


def _kll_rows(levels: "list[np.ndarray]") -> pa.Table:
    import numpy as np

    lvls = [np.full(len(b), l, dtype=np.int32)
            for l, b in enumerate(levels) if len(b)]
    bufs = [b for b in levels if len(b)]
    return pa.table({
        "level": pa.array(np.concatenate(lvls) if lvls else
                          np.empty(0, np.int32), type=pa.int32()),
        "value": pa.array(np.concatenate(bufs) if bufs else
                          np.empty(0, np.float64), type=pa.float64()),
    })


def _rows_to_kll(t: pa.Table, k: int) -> "list[np.ndarray]":
    import numpy as np

    lv = t["level"].to_numpy(zero_copy_only=False)
    va = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
    depth = int(lv.max()) + 1 if len(lv) else 0
    return _kll_compact([va[lv == i] for i in range(depth)], k)


def kll_partials(ds: "ray.data.Dataset", col: str,
                 k: int = KLL_DEFAULT_K) -> "ray.data.Dataset":
    """Distributed sketch build: per-block partial sketches emitted as
    narrow (level, value) rows, one bucket-merge round (deterministic
    content-hash bucket per block, out of KLL_MERGE_FANIN) so the
    downstream consumer sees at most KLL_MERGE_FANIN * k * log(N/k) rows.

    The merge tree is fixed: which blocks share a bucket depends only on
    their values, never on the exchange width, and each bucket's merge is
    a function of its blocks' multiset (``_kll_compact`` sorts every level
    it compacts). So the quantiles do not depend on the cluster size; only
    the exchange that carries the rows runs at ``exchange_width()``."""
    import zlib

    import numpy as np

    from engine.joins import _coalesced, exchange_width

    width = exchange_width()

    def partial(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        rows = _kll_rows(kll_build(v, k))
        b = zlib.crc32(v.tobytes()) % KLL_MERGE_FANIN  # deterministic spread
        return rows.append_column(
            "__bucket", pa.array(np.full(rows.num_rows, b, dtype=np.int32)))

    def merge_bucket(g: pa.Table) -> pa.Table:
        return _kll_rows(_rows_to_kll(g, k))

    return (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow"),
                   width)
        .groupby("__bucket")
        .map_groups(merge_bucket, batch_format="pyarrow")
    )


def kll_quantiles(ds: "ray.data.Dataset", col: str, qs: "list[float]",
                  k: int = KLL_DEFAULT_K) -> "list[tuple[float, float]]":
    """(q, value) pairs from the merged corpus sketch. The driver holds
    only the bucket-merged partials (bounded above), never the rows."""
    rows = pa.Table.from_pylist(
        kll_partials(ds, col, k).take_all(),
        schema=pa.schema([("level", pa.int32()), ("value", pa.float64()),
                          ]))
    levels = _rows_to_kll(rows, k)
    return list(zip(qs, kll_quantile_values(levels, qs)))


def range_partition(ds: "ray.data.Dataset", col: str, num_parts: int,
                    k: int = KLL_DEFAULT_K,
                    part_col: str = "part") -> "ray.data.Dataset":
    """Sketch-driven balanced RANGE partitioner — assign every row the
    range partition it belongs to when cut points are the corpus
    i/num_parts quantiles, WITHOUT the sampling sort Ray's sort runs: one
    mergeable-KLL pass yields the cuts (driver holds num_parts-1 floats),
    one vectorized searchsorted map attaches ``part_col`` =
    #{cuts < value}. The "equal-rows range layout" step before a ranged
    write or merge join; equal values always co-locate (they compare to
    the cuts identically). Two streaming passes — pass a re-readable or
    materialized input (the filter_by_quantile contract).
    """
    import numpy as np

    qs = [i / num_parts for i in range(1, num_parts)]
    cuts = np.array([v for _, v in kll_quantiles(ds, col, qs, k=k)],
                    dtype=np.float64)

    def assign(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        part = np.searchsorted(cuts, v, side="left")
        return t.append_column(part_col,
                               pa.array(part.astype(np.int64)))

    return ds.map_batches(assign, batch_format="pyarrow")


def filter_by_quantile(ds: "ray.data.Dataset", col: str, q: float,
                       k: int = KLL_DEFAULT_K,
                       keep: str = "ge") -> "ray.data.Dataset":
    """Quantile-threshold filter driven by the KLL sketch — the "keep only
    docs above the p75 quality score" gate of a corpus pipeline, where the
    threshold is a GLOBAL corpus statistic no single worker can see. Two
    inherent streaming passes: (1) the mergeable sketch pass computes the
    q-quantile (driver holds one bounded summary, never rows), (2) the
    scalar threshold rides the filter pass's task closure (no broadcast
    machinery needed for 8 bytes). ``keep`` ∈ ge|le.

    Pass a RE-READABLE input (read_parquet → cheap maps): a Dataset is
    lazy, so both passes re-execute its upstream — materialize() it first
    if that upstream is expensive (CLAUDE.md lazy-re-execution trap).
    """
    if keep not in ("ge", "le"):
        raise ValueError(f"keep must be 'ge' or 'le', got {keep!r}")
    thr = kll_quantiles(ds, col, [q], k=k)[0][1]
    op = pc.greater_equal if keep == "ge" else pc.less_equal

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(op(t[col], pa.scalar(thr, type=pa.float64())))

    return ds.map_batches(flt, batch_format="pyarrow")


def kll_partials_by_key(ds: "ray.data.Dataset", key_col: str, col: str,
                        k: int = KLL_DEFAULT_K) -> "ray.data.Dataset":
    """Per-key quantile sketches — approximate percentile GROUP BY key at a
    bounded exchange (the scale path where group_percentiles' O(distinct)
    per-key counting state breaks): per block one sketch per present key,
    emitted as narrow (key, level, value) rows; one key-hash bucket-merge
    round re-compacts, so each key's summary is ≤ k·log(N_key/k) rows no
    matter its row count."""
    import numpy as np

    from engine.joins import _bucket_of_column, _coalesced, exchange_width

    width = exchange_width()

    def partial(t: pa.Table) -> pa.Table:
        keys = t[key_col].to_numpy(zero_copy_only=False)
        vals = t[col].to_numpy(zero_copy_only=False).astype(np.float64)
        order = np.argsort(keys, kind="stable")
        ks, vs = keys[order], vals[order]
        uniq, first = np.unique(ks, return_index=True)
        bounds = np.append(first, len(ks))
        parts = []
        for i, key in enumerate(uniq):
            rows = _kll_rows(kll_build(vs[bounds[i]:bounds[i + 1]], k))
            parts.append(rows.add_column(
                0, key_col, pa.array([key] * rows.num_rows)))
        if not parts:
            return pa.table({key_col: t[key_col].slice(0, 0),
                             "level": pa.array([], type=pa.int32()),
                             "value": pa.array([], type=pa.float64())})
        return pa.concat_tables(parts)

    def add_bucket(t: pa.Table) -> pa.Table:
        return t.append_column(
            "__bucket", _bucket_of_column(t[key_col], width))

    def merge_bucket(g: pa.Table) -> pa.Table:
        keys = g[key_col].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        g = g.take(pa.array(order))
        keys = keys[order]
        uniq, first = np.unique(keys, return_index=True)
        bounds = np.append(first, len(keys))
        parts = []
        for i, key in enumerate(uniq):
            seg = g.slice(int(bounds[i]), int(bounds[i + 1] - bounds[i]))
            rows = _kll_rows(_rows_to_kll(seg, k))
            parts.append(rows.add_column(
                0, key_col, pa.array([key] * rows.num_rows)))
        return pa.concat_tables(parts)

    return (
        _coalesced(ds.map_batches(partial, batch_format="pyarrow")
                   .map_batches(add_bucket, batch_format="pyarrow"), width)
        .groupby("__bucket")
        .map_groups(merge_bucket, batch_format="pyarrow")
    )


def kll_quantiles_by_key(ds: "ray.data.Dataset", key_col: str, col: str,
                         qs: "list[float]",
                         k: int = KLL_DEFAULT_K) -> pa.Table:
    """(key, q, value) from the per-key merged sketches; the driver holds
    only bucket-merged summaries (≤ keys · k · log(N/k) rows)."""
    import pandas as pd

    rows = kll_partials_by_key(ds, key_col, col, k).to_pandas()
    out_key, out_q, out_v = [], [], []
    for key, g in rows.groupby(key_col, sort=True):
        seg = pa.table({"level": pa.array(g["level"].to_numpy(),
                                          type=pa.int32()),
                        "value": pa.array(g["value"].to_numpy(),
                                          type=pa.float64())})
        levels = _rows_to_kll(seg, k)
        for q, v in zip(qs, kll_quantile_values(levels, qs)):
            out_key.append(key)
            out_q.append(q)
            out_v.append(v)
    return pa.table({key_col: pa.array(out_key),
                     "q": pa.array(out_q, type=pa.float64()),
                     "value": pa.array(out_v, type=pa.float64())})


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters — mergeable frequency summary + exact second pass
# ---------------------------------------------------------------------------

MG_DEFAULT_K = 256


def mg_partials(ds: "ray.data.Dataset", col: str,
                k: int = MG_DEFAULT_K) -> "ray.data.Dataset":
    """Per-block Misra-Gries(k) summaries, merged with a groupby-Sum.

    Each block's value counts are trimmed by the (k+1)-th largest count
    (the classic MG decrement, applied in one vectorized step): at most k
    survivors per block, each undercounted by at most n_block/(k+1).
    Summing the surviving (value, est) rows across blocks therefore
    undercounts any value's true frequency by at most N/(k+1) — the
    mergeability argument of Agarwal et al. (mergeable summaries). Only
    ≤ k narrow rows leave each block; the merge is an ordinary
    distributed groupby + Sum, never the raw column.
    """
    import numpy as np

    def partial(t: pa.Table) -> pa.Table:
        v = t[col].to_numpy(zero_copy_only=False)
        vals, counts = np.unique(v, return_counts=True)
        if len(vals) > k:
            cut = np.partition(counts, len(counts) - (k + 1))[
                len(counts) - (k + 1)]
            counts = counts - cut
            keep = counts > 0
            vals, counts = vals[keep], counts[keep]
        return pa.table({col: pa.array(vals),
                         "est": pa.array(counts.astype(np.int64))})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby(col)
            .aggregate(Sum("est", alias_name="est")))


def heavy_hitters(ds: "ray.data.Dataset", col: str,
                  min_fraction: float = 0.01, k: int = MG_DEFAULT_K,
                  n: int | None = None) -> "ray.data.Dataset":
    """EXACT counts of every value with frequency ≥ ceil(min_fraction·N),
    found at a bounded exchange (the missing heavy-hitter sibling of the
    HLL/CMS/Bloom sketch trio).

    Two passes. Pass 1: merged MG(k) estimates (mg_partials); every true
    heavy hitter survives with est ≥ threshold − N/(k+1), PROVIDED
    min_fraction > 1/(k+1) (asserted). Candidates = merged rows above that
    slack bound — at most ~1/(min_fraction − 1/(k+1)) values, a CONSTANT,
    so broadcasting them is safe at any corpus size. Pass 2: exact counts
    of the candidate set only (broadcast ``is_in`` filter + groupby Sum),
    filtered to the real threshold. Driver state: the candidate list.

    ``n`` is the row count; pass it from parquet metadata when ``ds`` is a
    transformed pipeline (a None triggers ``ds.count()``, which executes
    the upstream pipeline once — the global_rank lo_hi hint discipline).
    """
    import math

    import numpy as np

    import ray

    from engine.broadcast import get_broadcast

    if n is None:
        n = ds.count()
    if min_fraction <= 1.0 / (k + 1):
        raise ValueError(
            f"min_fraction={min_fraction} <= 1/(k+1)={1/(k+1):.5f}: the "
            "MG superset guarantee needs min_fraction > 1/(k+1); raise k")
    threshold = int(math.ceil(min_fraction * n))
    slack = n // (k + 1)

    merged = mg_partials(ds, col, k)
    cand_rows = merged.map_batches(
        lambda t: t.filter(pc.greater_equal(t["est"], threshold - slack)),
        batch_format="pyarrow").take_all()
    cand = np.sort(np.array([r[col] for r in cand_rows]))
    cand_ref = ray.put(cand)

    def exact_partial(t: pa.Table) -> pa.Table:
        c = get_broadcast(cand_ref)
        v = t[col].to_numpy(zero_copy_only=False)
        v = v[np.isin(v, c)]
        vals, counts = np.unique(v, return_counts=True)
        return pa.table({col: pa.array(vals),
                         "n": pa.array(counts.astype(np.int64))})

    return (ds.map_batches(exact_partial, batch_format="pyarrow")
            .groupby(col)
            .aggregate(Sum("n", alias_name="n"))
            .map_batches(
                lambda t: t.filter(pc.greater_equal(t["n"], threshold)),
                batch_format="pyarrow"))


GROUP_STAT_BROADCAST_MAX = 2_000_000  # distinct-key cap for the zero-shuffle plan


def attach_group_stat(ds: "ray.data.Dataset", key_col: str, value_col: str,
                      sum_name: "str | None" = None,
                      n_name: "str | None" = None,
                      broadcast_max: int = GROUP_STAT_BROADCAST_MAX
                      ) -> "ray.data.Dataset":
    """Attach each row's group SUM and COUNT of ``value_col`` over
    ``key_col`` as new int64 columns — the domain-prior pattern of a web
    corpus pipeline (score a document partly by its host's aggregate
    behavior: mean length, spam rate, dup rate) without re-keying the
    documents themselves.

    Plan (size-gated like the dedup family): per-block Acero (key, sum,
    n) pre-agg → ONE narrow groupby — only distinct (key, s, n) rows
    cross the wire. Key cardinality ≤ ``broadcast_max``: the stat table
    broadcasts (ray.put once, worker-cached get — engine/broadcast.py)
    and rows NEVER move; larger key domains fall back to a partitioned
    LEFT hash_join (rows cross once). Both plans are test-pinned equal.
    ``n`` counts the key's rows; ``s`` sums its non-null values.
    """
    import numpy as np
    import pandas as pd

    import ray

    from engine.broadcast import get_broadcast

    sum_name = sum_name or f"{key_col}_sum"
    n_name = n_name or f"{key_col}_n"

    def partial(t: pa.Table) -> pa.Table:
        g = t.select([key_col, value_col]).group_by([key_col]).aggregate(
            [(value_col, "sum"), ([], "count_all")])
        g = g.rename_columns([key_col, "__s", "__n"])
        return pa.table({key_col: g[key_col],
                         "__s": pc.cast(g["__s"], pa.int64()),
                         "__n": pc.cast(g["__n"], pa.int64())})

    stats = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(key_col)
             .aggregate(Sum("__s", alias_name=sum_name),
                        Sum("__n", alias_name=n_name))
             .materialize())  # consumed by count() + either plan

    if stats.count() > broadcast_max:
        from engine.joins import hash_join

        return hash_join(ds, stats, on=key_col, how="left")

    # empty aggregate blocks can carry a divergent schema — drop them and
    # project before concat
    blocks = [b.select([key_col, sum_name, n_name])
              for b in ray.get(stats.to_arrow_refs()) if b.num_rows]
    if blocks:
        lookup = pa.concat_tables(blocks).to_pandas()
    else:
        lookup = pd.DataFrame({key_col: [], sum_name: pd.Series([], dtype="int64"),
                               n_name: pd.Series([], dtype="int64")})
    lookup = lookup.set_index(key_col)
    ref = ray.put(lookup)

    def attach(t: pa.Table) -> pa.Table:
        lk: "pd.DataFrame" = get_broadcast(ref)
        idx = lk.index.get_indexer(
            t[key_col].to_numpy(zero_copy_only=False))
        found = idx >= 0
        s = np.where(found, lk[sum_name].to_numpy()[idx], 0)
        n = np.where(found, lk[n_name].to_numpy()[idx], 0)
        t = t.append_column(
            sum_name, pa.array(s.astype(np.int64), type=pa.int64(),
                               mask=~found))
        return t.append_column(
            n_name, pa.array(n.astype(np.int64), type=pa.int64(),
                             mask=~found))

    return ds.map_batches(attach, batch_format="pyarrow")
