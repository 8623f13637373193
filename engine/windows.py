"""Session windows — a streaming-shaped operator Ray Data lacks (SURVEY.md
§2.10 family; the reference has no windows at all).

``sessionize`` groups a keyed event stream into gap-based sessions: a new
session starts when the time since the key's previous event exceeds ``gap``.
This is the canonical user-sessionization step of a training-data pipeline
(conversation/episode assembly, per-session aggregates).

Plan: ONE hash exchange on a key-hash bucket (not the key itself), then a
fully vectorized pandas pass per bucket that handles every key in the bucket
at once (sort → key-change/gap mask → cumsum → groupby agg). Grouping by
bucket instead of key matters at scale: ``groupby(key).map_groups`` pays one
Python call per key (~0.5 ms each — millions of users would serialize into
minutes), while buckets cap the Python-call count at the exchange width
(``engine.joins.exchange_width``) regardless of key cardinality.

Partitioning assumption (custom-operator rule): one BUCKET's rows fit in a
worker's heap; keys hash uniformly (same md5-free integer/fixed-key
discipline as engine/joins.py).

Determinism: events are ordered by (key, ts, id), and a session break
requires STRICTLY more than ``gap`` between consecutive events — both
reproduced verbatim by the DuckDB gaps-and-islands oracle twin.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data


def sessionize(ds: "ray.data.Dataset", key_col: str = "user_id",
               ts_col: str = "ts", id_col: str = "event_id",
               value_col: str | None = "value",
               gap_s: float = 3600.0) -> "ray.data.Dataset":
    """(key, ts, id[, value]) rows → one row per session:
    (key, session_start, session_end, n_events[, sum_value])."""
    cols = [key_col, ts_col, id_col] + ([value_col] if value_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across every key in the bucket: a session starts at a
        # key change OR a strict gap within the key. The gap comparand
        # matches the ts dtype — Timedelta for datetime64 columns, raw
        # float seconds for numeric (epoch) columns.
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        gap = (pd.Timedelta(seconds=gap_s)
               if pd.api.types.is_datetime64_any_dtype(g[ts_col])
               else gap_s)
        new_session = (g[key_col] != g[key_col].shift()) | \
            (g[ts_col].diff() > gap)
        sid = new_session.cumsum()
        grouped = g.groupby(sid)
        out = pd.DataFrame({
            key_col: grouped[key_col].first(),
            "session_start": grouped[ts_col].min(),
            "session_end": grouped[ts_col].max(),
            "n_events": grouped[id_col].count(),
        })
        if value_col is not None:
            out["sum_value"] = grouped[value_col].sum()
        return out.reset_index(drop=True)

    from engine.joins import bucketed_map_groups

    return bucketed_map_groups(ds, key_col, per_bucket, cols=cols)


def rolling_agg(ds: "ray.data.Dataset", key_col: str = "user_id",
                ts_col: str = "ts", id_col: str = "event_id",
                value_col: str = "value", window: int = 3,
                agg: str = "mean") -> "ray.data.Dataset":
    """Per-key rolling-window aggregate over an ordered event stream — the
    "windowed aggregate" custom operator: for every event, ``agg`` of the
    last ``window`` rows (including itself) of the SAME key, ordered by
    (ts, id). The training-data use case: trailing-behavior features
    (activity rate, rolling spend) without future leakage.

    Plan: the same ONE key-hash-bucket exchange as :func:`sessionize`; each
    bucket sorts once and runs pandas' C-implemented
    ``groupby(key).rolling(window)`` across EVERY key in the bucket — the
    Python-call count is the exchange width, never the key cardinality.

    Output: (key, id, ts, value, roll) — ``roll`` named by the aggregate.
    Determinism: total order (key, ts, id); row-count frames (not time
    ranges) so ties are resolved by id exactly as the SQL window twin's
    ROWS BETWEEN frame does. ``window=None`` = the EXPANDING (cumulative /
    running-total) frame — SQL's ROWS UNBOUNDED PRECEDING.
    """
    if agg not in ("mean", "sum", "min", "max"):
        raise ValueError(f"unsupported rolling agg: {agg}")
    cols = [key_col, ts_col, id_col, value_col]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        gb = g.groupby(key_col, sort=False)[value_col]
        r = gb.expanding(min_periods=1) if window is None \
            else gb.rolling(window, min_periods=1)
        g[f"roll_{agg}"] = getattr(r, agg)().to_numpy()
        return g

    from engine.joins import bucketed_map_groups

    return bucketed_map_groups(ds, key_col, per_bucket, cols=cols)


def lag_delta(ds: "ray.data.Dataset", key_col: str = "user_id",
              ts_col: str = "ts", id_col: str = "event_id",
              missing: int = -1) -> "ray.data.Dataset":
    """Per-key inter-event gap — for every event, microseconds since the
    SAME key's previous event in (ts, id) order (``missing`` for the key's
    first event). The lag/lead window primitive of a training-data pipeline
    (burst detection, bot filtering, session features) without a per-key
    Python call.

    Plan: the same ONE key-hash-bucket exchange as :func:`sessionize`; each
    bucket sorts once and computes one vectorized diff across EVERY key in
    the bucket, with the key-change mask resetting the first row per key.
    Output: (key, id, ts, gap_us) — gap in integer microseconds (exact;
    datetime64[us] difference, no float seconds round-trip).
    """
    cols = [key_col, ts_col, id_col]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, ts_col, id_col], kind="mergesort")
        ts = g[ts_col]
        if pd.api.types.is_datetime64_any_dtype(ts):
            delta = ts.diff().dt.total_seconds() * 1_000_000
        else:  # numeric epoch-seconds column
            delta = ts.diff() * 1_000_000
        first = g[key_col] != g[key_col].shift()
        g["gap_us"] = delta.round().where(~first, missing).astype("int64")
        return g

    from engine.joins import bucketed_map_groups

    return bucketed_map_groups(ds, key_col, per_bucket, cols=cols)


def hopping_window(ds: "ray.data.Dataset", key_col: str = "event_type",
                   ts_col: str = "ts", value_col: str = "value",
                   size_s: int = 3600, hop_s: int = 900,
                   ) -> "ray.data.Dataset":
    """Hopping (overlapping sliding) window aggregate — the streaming
    window family's second member next to the tumbling window of
    engine/queries.py: every event lands in ``size_s / hop_s`` consecutive
    windows whose starts are multiples of ``hop_s`` (trailing-rate
    features, burst detection at finer grain than the window span).

    Plan: the k-fold window expansion is fully vectorized inside
    ``map_batches`` (numpy broadcast of the k window starts + one
    ``np.repeat`` of keys/values — no per-row Python) and is IMMEDIATELY
    collapsed by a per-block Acero pre-agg, so what crosses the wire is
    O(keys × windows) partial rows per block — the k× row expansion never
    leaves the worker. Global combine is one groupby Sum over the
    coalesced partials.

    Output: (key, window_start_s, n, sum_value) — epoch-second window
    starts, floor(ts / hop) * hop - i * hop arithmetic reproduced exactly
    by the DuckDB generate_series twin.
    """
    if size_s % hop_s:
        raise ValueError("size_s must be a multiple of hop_s")
    k = size_s // hop_s
    import numpy as np
    from ray.data.aggregate import Sum

    from engine.joins import _coalesced, exchange_width

    def expand(t: pa.Table) -> pa.Table:
        n = len(t)
        e = pc.cast(pc.cast(t[ts_col], pa.timestamp("us")),
                    pa.int64()).to_numpy() // 1_000_000
        smax = (e // hop_s) * hop_s
        starts = (smax[:, None]
                  - hop_s * np.arange(k, dtype=np.int64)[None, :]).ravel()
        rep = np.repeat(np.arange(n, dtype=np.int64), k)
        g = pa.table({
            key_col: t[key_col].take(pa.array(rep)),
            "window_start_s": pa.array(starts, type=pa.int64()),
            value_col: pa.array(np.repeat(
                t[value_col].to_numpy(zero_copy_only=False), k)),
        }).group_by([key_col, "window_start_s"]).aggregate(
            [(value_col, "sum"), ([], "count_all")])
        return pa.table({
            key_col: g[key_col],
            "window_start_s": g["window_start_s"],
            "sum_value": g[f"{value_col}_sum"],
            "n": pc.cast(g["count_all"], pa.int64()),
        })

    return (
        _coalesced(ds.map_batches(expand, batch_format="pyarrow"),
                   exchange_width())
        .groupby([key_col, "window_start_s"])
        .aggregate(Sum("n", alias_name="n"),
                   Sum("sum_value", alias_name="sum_value"))
    )


def collect_per_key(ds: "ray.data.Dataset", key_col: str = "user_id",
                    order_cols: tuple = ("ts", "event_id"),
                    value_col: str = "event_id",
                    sep: str = ",") -> "ray.data.Dataset":
    """Ordered per-key sequence assembly — the conversation/episode-assembly
    primitive of a training-data pipeline: one row per key with its values
    concatenated in (order_cols) order.

    Output: (key, n_events, seq) where ``seq`` joins str(value) with
    ``sep`` — a string rather than list<...> so the result is directly
    string_agg-comparable; a production pipeline would emit the list column
    instead (same plan, skip the join).

    Plan: one key-hash bucket exchange; per bucket, one sort over all keys
    then a groupby agg whose per-key cost is a single C-level str.join —
    the one bucketed operator here whose Python-call count is O(keys), not
    O(buckets), kept because join-per-group has no vectorized form; each
    call is ~µs and the exchange (the scale limit) is still one.
    """
    from engine.joins import bucketed_map_groups

    cols = list(dict.fromkeys([key_col, *order_cols, value_col]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        vals = g[value_col].astype(str)
        grouped = vals.groupby(g[key_col], sort=False)
        out = grouped.agg(sep.join).reset_index()
        out.columns = [key_col, "seq"]
        out.insert(1, "n_events", grouped.size().to_numpy())
        return out

    return bucketed_map_groups(ds, key_col, per_bucket, cols=cols)


def ntile_per_key(ds: "ray.data.Dataset", key_col: str = "user_id",
                  order_cols: tuple = ("ts", "event_id"),
                  k: int = 4) -> "ray.data.Dataset":
    """Per-key NTILE(k) — each key's rows, ordered by ``order_cols``, split
    into k near-equal rank buckets (SQL-standard semantics: with n = rows
    and r = n % k, the FIRST r buckets get one extra row). The
    feature-bucketing / curriculum-phase primitive of a training-data
    pipeline (e.g. "which quarter of this user's history is this event
    from"), exactly matching DuckDB's ``ntile(k) OVER (PARTITION BY key
    ORDER BY ...)``.

    Plan: the one key-hash-bucket exchange of :func:`sessionize`; per
    bucket one sort + vectorized rank arithmetic across EVERY key at once
    (groupby sizes via transform, cumcount ranks, closed-form bucket
    index) — Python calls capped at the exchange width.

    Output: input columns + ``ntile`` (int64, 1-based).
    """
    import numpy as np

    from engine.joins import bucketed_map_groups

    cols = list(dict.fromkeys([key_col, *order_cols]))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        n = g.groupby(key_col, sort=False)[key_col].transform("size") \
            .to_numpy(np.int64)
        r0 = g.groupby(key_col, sort=False).cumcount().to_numpy(np.int64)
        q, r = n // k, n % k
        thr = r * (q + 1)            # rows covered by the fat buckets
        q_safe = np.maximum(q, 1)    # q == 0 rows all take the fat branch
        g["ntile"] = np.where(r0 < thr, r0 // (q + 1),
                              r + (r0 - thr) // q_safe) + 1
        return g

    return bucketed_map_groups(ds, key_col, per_bucket, cols=cols)


def funnel(ds: "ray.data.Dataset", key_col: str = "user_id",
           ts_col: str = "ts", type_col: str = "event_type",
           steps: tuple = ("view", "click", "purchase"),
           ) -> "ray.data.Dataset":
    """Ordered funnel completion — per key, the earliest chain
    t_1 ≤ t_2 ≤ … through ``steps``: t_1 is the key's first step-1 event,
    t_i the first step-i event AT OR AFTER t_{i-1} (a step missing →
    null, and every later step is null too). The product-analytics /
    curriculum-progression primitive, per-key sequential logic Ray Data
    has no primitive for.

    Plan: one key-hash-bucket exchange; per bucket the chain is computed
    for EVERY key at once — len(steps) vectorized passes (filter to the
    step's rows, attach the key's previous-step time via a C-level map,
    drop too-early rows, groupby min). Python-call count is
    exchange width × len(steps), never the key cardinality.

    Output: (key, t_<step> per step, n_steps) — n_steps = completed
    prefix length; every key in the input appears exactly once.
    """
    cols = [key_col, ts_col, type_col]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        keys = pd.Index(g[key_col].unique(), name=key_col)
        out = pd.DataFrame(index=keys)
        prev = None  # Series key -> time of previous step (NaT = dead)
        for step in steps:
            rows = g[g[type_col] == step]
            if prev is not None:
                gate = rows[key_col].map(prev)
                rows = rows[rows[ts_col] >= gate]  # NaT gate drops the row
            t_step = rows.groupby(key_col, sort=False)[ts_col].min() \
                .reindex(keys)
            out[f"t_{step}"] = t_step
            prev = t_step
        out["n_steps"] = out.notna().cumprod(axis=1).sum(axis=1) \
            .astype("int64")
        return out.reset_index()

    from engine.joins import bucketed_map_groups

    return bucketed_map_groups(ds, key_col, per_bucket, cols=cols)


def transition_counts(ds: "ray.data.Dataset", key_col: str = "user_id",
                      val_col: str = "event_type",
                      order_cols: tuple = ("ts", "event_id"),
                      ) -> "ray.data.Dataset":
    """Per-key transition (Markov bigram) counts — (prev, curr, n) over each
    key's event sequence ordered by ``order_cols``: the sequence-model /
    next-event-prediction primitive (state-transition matrices, curriculum
    graphs). Keys' first events have no prev and are dropped.

    Plan: one key-hash-bucket exchange, per bucket ONE vectorized pandas
    pass for every key at once (sort → groupby shift → pair value_counts),
    emitting a ≤ |states|² partial per bucket; a final tiny groupby sums
    partials. Exchange volume is the (key, order, value) rows once; the
    second exchange carries only per-bucket state-pair partials.
    """
    cols = [key_col, val_col, *order_cols]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key_col, *order_cols], kind="mergesort")
        prev = g.groupby(key_col, sort=False)[val_col].shift(1)
        mask = prev.notna()
        pairs = pd.DataFrame({"prev": prev[mask],
                              "curr": g.loc[mask, val_col]})
        return pairs.value_counts(["prev", "curr"]).reset_index(name="n")

    from engine.joins import bucketed_map_groups
    from ray.data.aggregate import Sum

    partials = bucketed_map_groups(ds, key_col, per_bucket, cols=cols)
    return partials.groupby(["prev", "curr"]) \
        .aggregate(Sum("n", alias_name="n"))
