"""Explicit partitioned hash join — both sides large (SURVEY.md §2.5).

The reference has no relational joins (its only lookup is the job_id point
lookup); this is the scale primitive for when BOTH sides are too big to
broadcast: tag + bucket each side by ``hash(key) % width``, union the
two NARROW streams (each side ships only its own columns plus the 5-byte
side/bucket tag — no null padding crosses the wire), hash-partition once on
the bucket column, and merge matching buckets pairwise with pyarrow's Acero
hash join inside ``map_groups``. One all-to-all exchange total; the merge is
C++ end-to-end, so integer columns survive without a pandas float64 detour.

Measured at sf0.1 / 32 CPUs (warm, best-of-2): 3.6-4.4 s for
lineitem ⋈ orders → rollup vs 12.9 s for the round-1 pandas-merge version and
4.7-6.4 s for Ray 2.49's native ``Dataset.join`` at its best partition count
(16); the native join also materializes both inputs up front, which the
streaming custom path avoids.

Partitioning assumptions (documented per the custom-operator rule):
- the join key hashes uniformly (int keys use a Fibonacci multiplier over the
  two's-complement bit pattern — negative keys wrap, never raise; strings use
  pandas' fixed-key siphash — never Python ``hash()``, which is per-process
  salted);
- a single bucket's rows fit in one worker's heap; salt hot keys into
  sub-buckets before calling this if one key alone exceeds that (key skew
  is the caller's knowledge).

Exchange width: every key-hash exchange in the query layer has
``exchange_width()`` buckets — the cluster's CPU count, capped at 32 — read
once on the driver while the operator builds its plan. More buckets than
CPUs only add per-group overhead: on one vCPU the ten slowest registry
entries at sf0.001 ran 149 s at 32 buckets and 10 s at 1. The width never
changes an operator's output.

Broadcast joins (small side) live in engine/queries.py (AttachSegment); use
those whenever one side fits in the object store — no shuffle at all.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

_FIB = 0x9E3779B97F4A7C15

_ACERO_HOW = {
    "inner": "inner",
    "left": "left outer",
    "right": "right outer",
    "outer": "full outer",
    # filtering joins: left rows with (semi) / without (anti) a right match;
    # output carries LEFT columns only — the right side ships nothing but
    # its key column through the exchange (see hash_join right_keys_only)
    "semi": "left semi",
    "anti": "left anti",
}


def exchange_width() -> int:
    """Bucket count of every key-hash exchange: the connected cluster's CPU
    count, capped at 32. Read on the driver while a plan is built, never in
    a worker, and never cached (a process may re-init Ray at another
    width)."""
    return max(1, min(32, int(ray.cluster_resources().get("CPU", 1))))


def _bucket_of_column(col: pa.ChunkedArray | pa.Array, num_buckets: int) -> pa.Array:
    """Deterministic bucket id per key value (vectorized, process-independent).

    Null keys bucket to 0 — they never match in the Acero merge anyway, so
    their placement only has to be deterministic, not uniform.
    """
    typ = col.type
    if pa.types.is_integer(typ):
        if col.null_count:
            col = pc.fill_null(col, 0)
        np_arr = col.to_numpy(zero_copy_only=False)
        if np_arr.dtype.kind == "i":
            arr = np_arr.astype(np.int64, copy=False).view(np.uint64)
        else:
            arr = np_arr.astype(np.uint64, copy=False)
        v = arr ^ (arr >> np.uint64(33))
        v = v * np.uint64(_FIB)  # wraps mod 2^64 (numpy semantics)
        v ^= v >> np.uint64(29)
        return pa.array((v % np.uint64(num_buckets)).astype(np.int32))
    # strings / binary: pandas' fixed-key siphash (vectorized C loop,
    # deterministic across processes — unlike Python hash())
    vals = np.asarray(col.to_pylist(), dtype=object)
    h = pd.util.hash_array(vals, categorize=False)
    return pa.array((h % np.uint64(num_buckets)).astype(np.int32))


def _ensure_columns(tbl: pa.Table, names: list[str], types: dict) -> pa.Table:
    """Project ``tbl`` to exactly ``names``, typed-null-filling any column the
    post-shuffle schema promotion didn't materialize (a bucket whose rows all
    came from one side lacks the other side's columns entirely)."""
    cols = {}
    for n in names:
        if n in tbl.column_names:
            cols[n] = tbl[n]
        else:
            cols[n] = pa.nulls(tbl.num_rows, type=types[n])
    return pa.table(cols)


def _coalesced(tagged: "ray.data.Dataset", width: int) -> "ray.data.Dataset":
    """Coalesce the tagged union to ~2×width blocks before the bucket
    groupby. Ray's sort-shuffle cost scales with INPUT BLOCK COUNT (map
    tasks + reduce partitions), so a fragmented input (many small files ×
    SplitBlocks) pays per-block Python/scheduling overhead that dwarfs the
    data: measured 9.4 s → 2.2 s on a 384-block 11.5k-row join. repartition
    without shuffle is a streaming split/coalesce, not an exchange; the
    reduce side only ever produces ``width`` groups, so blocks beyond
    ~2× that count buy nothing."""
    return tagged.repartition(2 * width)


def hash_join(left: "ray.data.Dataset", right: "ray.data.Dataset", on: str,
              how: str = "inner",
              suffixes: tuple[str, str] = ("", "_r")) -> "ray.data.Dataset":
    """Partitioned hash join of two Datasets on column ``on``.

    Returns a Dataset with pandas-merge column semantics (shared non-key
    columns get ``suffixes``). ``how`` ∈ inner|left|right|outer|semi|anti —
    semi/anti are the filtering joins (left rows with / without a match);
    their output carries left columns only, and the right side is projected
    to ITS KEY COLUMN before the exchange, so the only right bytes that
    cross the wire are the key values being tested.
    """
    join_type = _ACERO_HOW[how]
    filtering = how in ("semi", "anti")
    if filtering:
        right = right.map_batches(lambda t: t.select([on]),
                                  batch_format="pyarrow")
    width = exchange_width()
    l_schema = left.schema()
    r_schema = right.schema()
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    def _prep(side: int):
        def f(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {name: t[name] for name in t.column_names}
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            cols["__bucket"] = _bucket_of_column(t[on], width)
            return pa.table(cols)

        return f

    # Narrow union: each stream carries only its own columns + the two tags.
    # Ray's sort-shuffle promotes the schemas AFTER the exchange (worker-side
    # concat fills the other side's columns with nulls), so padding bytes
    # never cross the wire.
    tagged = _coalesced(
        left.map_batches(_prep(0), batch_format="pyarrow").union(
            right.map_batches(_prep(1), batch_format="pyarrow")
        ), width)

    def merge_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"]
        lg = _ensure_columns(g.filter(pc.equal(side, 0)), l_names, l_types)
        rg = _ensure_columns(g.filter(pc.equal(side, 1)), r_names, r_types)
        return lg.join(rg, keys=[on], join_type=join_type,
                       left_suffix=suffixes[0], right_suffix=suffixes[1])

    return tagged.groupby("__bucket").map_groups(merge_bucket,
                                                 batch_format="pyarrow")


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset", by: str,
              on: str, right_on: str | None = None) -> "ray.data.Dataset":
    """Backward as-of join (point-in-time lookup) — an operator Ray Data
    lacks: for every left row, attach the LAST right row of the same ``by``
    key whose ``right_on`` ≤ the left row's ``on`` (left-join semantics; no
    match → nulls). The training-data use case is point-in-time feature
    attachment without future leakage.

    Plan: same narrow side-tagged single exchange as hash_join, bucketed by
    hash(``by``); each bucket runs pandas ``merge_asof`` (C-speed galloping
    merge) over NARROW key frames only — (by, time, row-position) — and the
    resulting left→right row-index mapping drives Arrow ``take`` to assemble
    the output. Payload columns never round-trip through pandas, so integer
    (and every other Arrow) type survives verbatim and the per-bucket
    constant is proportional to the key columns, not the row width.

    Partitioning assumptions (custom-operator rule): ``by`` hashes uniformly
    and one key's rows fit in a bucket; RIGHT ROWS MUST BE UNIQUE per
    (by, right_on) — pre-aggregate ties away, else the winner is
    sort-order-dependent.
    """
    right_on = right_on or on
    width = exchange_width()
    l_schema = left.schema()
    r_schema = right.schema()
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))

    def _prep(side: int):
        def f(t: pa.Table) -> pa.Table:
            cols = {name: t[name] for name in t.column_names}
            cols["__side"] = pa.array(np.full(t.num_rows, side, dtype=np.int8))
            cols["__bucket"] = _bucket_of_column(t[by], width)
            return pa.table(cols)

        return f

    tagged = _coalesced(
        left.map_batches(_prep(0), batch_format="pyarrow").union(
            right.map_batches(_prep(1), batch_format="pyarrow")
        ), width)

    # output columns, pandas-merge_asof naming semantics: every left column
    # (left order), then every right column except ``by`` (appears once) and
    # except ``right_on`` when it shares the left ``on`` name; right names
    # colliding with a left name get the "_r" suffix
    attached = []  # (right source name, output name)
    for name in r_names:
        if name == by or (name == right_on and right_on == on):
            continue
        attached.append((name, f"{name}_r" if name in l_names else name))

    def _empty_out() -> pa.Table:
        cols = {n: pa.nulls(0, type=l_types[n]) for n in l_names}
        for src, dst in attached:
            cols[dst] = pa.nulls(0, type=r_types[src])
        return pa.table(cols)

    def merge_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"]
        lg = _ensure_columns(g.filter(pc.equal(side, 0)), l_names, l_types)
        rg = _ensure_columns(g.filter(pc.equal(side, 1)), r_names, r_types)
        if lg.num_rows == 0:
            # full output schema even for a right-only bucket — downstream
            # consumers index right columns without schema-promotion luck
            return _empty_out()
        # narrow key frames: (by, time, row position) only
        ln = pd.DataFrame({by: lg[by].to_pandas(), on: lg[on].to_pandas(),
                           "__li": np.arange(lg.num_rows, dtype=np.int64)})
        ln = ln.sort_values([on, by], kind="mergesort")
        if rg.num_rows == 0:
            m_li = ln["__li"].to_numpy()
            ri = pa.nulls(lg.num_rows, type=pa.int64())
        else:
            rn = pd.DataFrame({by: rg[by].to_pandas(),
                               right_on: rg[right_on].to_pandas(),
                               "__ri": np.arange(rg.num_rows,
                                                 dtype=np.int64)})
            rn = rn.sort_values([right_on, by], kind="mergesort")
            m = pd.merge_asof(ln, rn, left_on=on, right_on=right_on, by=by,
                              direction="backward")
            m_li = m["__li"].to_numpy()
            ri_raw = m["__ri"].to_numpy()  # float64 + NaN when unmatched
            if ri_raw.dtype.kind == "f":
                miss = np.isnan(ri_raw)
                ri = pa.array(np.where(miss, 0, ri_raw).astype(np.int64),
                              mask=miss)
            else:
                ri = pa.array(ri_raw)
        ordered = lg.take(pa.array(m_li))
        cols = {n: ordered[n] for n in l_names}
        for src, dst in attached:
            cols[dst] = rg[src].take(ri) if rg.num_rows else \
                pa.nulls(lg.num_rows, type=r_types[src])
        return pa.table(cols)

    return tagged.groupby("__bucket").map_groups(merge_bucket,
                                                 batch_format="pyarrow")


def interval_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                  by: str, on: str, start_col: str,
                  end_col: str) -> "ray.data.Dataset":
    """Range/interval join — attach, per ``by`` key, the right interval
    [start_col, end_col) that CONTAINS the left row's ``on`` value
    (left-join semantics; no containing interval → attached columns null).
    The training-data use case: campaign/session/experiment attribution
    windows.

    Plan: rides :func:`asof_join`'s single narrow exchange (backward as-of
    on ``start_col``: the latest-starting interval with start ≤ t is the
    ONLY candidate when per-key intervals don't overlap), then one
    vectorized containment verify that nulls the attached columns where
    end ≤ t. Partitioning assumption (custom-operator rule): per-key
    intervals are non-overlapping — overlapping inputs deterministically
    resolve to the latest-starting candidate, never an error.
    """
    l_names = list(left.schema().names)
    r_names = list(right.schema().names)
    attached = []
    for name in r_names:
        if name == by or (name == start_col and start_col == on):
            continue
        attached.append(f"{name}_r" if name in l_names else name)
    end_out = f"{end_col}_r" if end_col in l_names else end_col

    j = asof_join(left, right, by=by, on=on, right_on=start_col)

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        contains = pc.fill_null(
            pc.and_kleene(pc.is_valid(t[end_out]),
                          pc.greater(t[end_out], t[on])),
            False)
        cols = {n: t[n] for n in t.column_names}
        for name in attached:
            cols[name] = pc.if_else(
                contains, t[name], pa.scalar(None, type=t[name].type))
        return pa.table(cols)

    return j.map_batches(verify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Bloom-pruned semi join: the shuffle-volume reducer for selective filtering
# joins. EXACT output (the bloom only prunes; survivors go through the real
# semi join to kill false positives) — at a 1% match rate the all-to-all
# exchange carries ~1% of probe rows + false positives instead of the full
# probe table.
# ---------------------------------------------------------------------------

_BLOOM_MIX1 = 0xFF51AFD7ED558CCD  # murmur3 fmix64 constants
_BLOOM_MIX2 = 0xC4CEB9FE1A85EC53


def _bloom_hashes(keys: np.ndarray, num_bits: int, num_hashes: int
                  ) -> np.ndarray:
    """(n, num_hashes) bit positions via double hashing of a 64-bit mix.
    uint64 arithmetic wraps (mod 2^64) by construction — that IS the mix."""
    with np.errstate(over="ignore"):
        x = keys.astype(np.uint64, copy=True)
        x ^= x >> np.uint64(33)
        x *= np.uint64(_BLOOM_MIX1)
        x ^= x >> np.uint64(33)
        h2 = x * np.uint64(_BLOOM_MIX2)
        h2 ^= h2 >> np.uint64(29)
        idx = np.empty((len(keys), num_hashes), dtype=np.uint64)
        for i in range(num_hashes):
            idx[:, i] = (x + np.uint64(i) * h2) % np.uint64(num_bits)
    return idx


def _key_codes(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """int64 key codes for hashing: integers pass through; strings take
    pandas' fixed-key siphash (process-stable, like _bucket_of_column)."""
    if pa.types.is_integer(col.type):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        return arr.to_numpy(zero_copy_only=False).astype(np.int64)
    import pandas as pd
    from pandas.util import hash_array
    return hash_array(pd.array(col.to_pylist(), dtype=object).to_numpy(),
                      categorize=False).astype(np.int64)


def bloom_semi_join(probe: "ray.data.Dataset", build: "ray.data.Dataset",
                    on: str, *, num_bits: int = 1 << 23,
                    num_hashes: int = 2) -> "ray.data.Dataset":
    """Semi join ``probe ⋉ build`` with a broadcast Bloom-filter prefilter.

    Plan: (1) the build side's KEY COLUMN streams through ``map_batches``
    producing one fixed-size bitmap per block (num_bits/8 bytes, 1 MiB at
    the default — independent of build row count); the driver ORs the block
    bitmaps and ``ray.put``s the result ONCE. (2) the probe side filters
    vectorized against the worker-cached bitmap (engine/broadcast.py) —
    rows failing any of the ``num_hashes`` bit tests are dropped BEFORE the
    exchange. (3) survivors run the exact :func:`hash_join` semi join, so
    false positives never reach the output.

    Scale contract: driver/broadcast state is O(num_bits), NOT O(build
    rows); size num_bits ≈ 10× the expected distinct build keys for ~1%
    false-positive rate at num_hashes=2. The build side is scanned twice
    (bitmap + exact verify) — it is the SMALL side by contract."""
    import ray
    from engine.broadcast import get_broadcast

    nbytes = num_bits // 8

    def block_bitmap(t: pa.Table) -> pa.Table:
        bm = np.zeros(nbytes, dtype=np.uint8)
        if t.num_rows:
            idx = _bloom_hashes(_key_codes(t[on]), num_bits, num_hashes)
            flat = idx.reshape(-1)
            np.bitwise_or.at(bm, (flat >> np.uint64(3)).astype(np.int64),
                             (1 << (flat & np.uint64(7))).astype(np.uint8))
        return pa.table({"bm": pa.array([bm.tobytes()], type=pa.binary())})

    parts = (build.select_columns([on])
             .map_batches(block_bitmap, batch_format="pyarrow")
             .take_all())
    bitmap = np.zeros(nbytes, dtype=np.uint8)
    for row in parts:
        bitmap |= np.frombuffer(row["bm"], dtype=np.uint8)
    bm_ref = ray.put(bitmap)

    def prefilter(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        bm = get_broadcast(bm_ref)
        idx = _bloom_hashes(_key_codes(t[on]), num_bits, num_hashes)
        bits = (bm[(idx >> np.uint64(3)).astype(np.int64)]
                >> (idx & np.uint64(7)).astype(np.uint8)) & 1
        return t.filter(pa.array(bits.all(axis=1)))

    survivors = probe.map_batches(prefilter, batch_format="pyarrow")
    return hash_join(survivors, build, on=on, how="semi")


def snapshot_delta(old: "ray.data.Dataset", new: "ray.data.Dataset",
                   on: str = "url", fingerprint: str = "fp",
                   status_col: str = "status") -> "ray.data.Dataset":
    """Incremental-crawl diff of two corpus snapshots — classify every key
    as ``new`` / ``deleted`` / ``changed`` / ``unchanged`` by comparing a
    precomputed content fingerprint, so a recrawl pipeline reprocesses only
    the changed slice instead of the full corpus.

    Plan: project both sides to the NARROW (key, fingerprint) pair, one
    partitioned FULL OUTER :func:`hash_join` (side-tagged single exchange —
    document payloads never cross the wire), then a vectorized status CASE.
    Contract: ``on`` is unique per side and ``fingerprint`` is non-null
    (null fingerprints would read as missing-side).

    Returns (``on``, fp_old, fp_new, ``status_col``) rows.
    """
    o = old.map_batches(
        lambda t: pa.table({on: t[on], "fp_old": t[fingerprint]}),
        batch_format="pyarrow")
    n = new.map_batches(
        lambda t: pa.table({on: t[on], "fp_new": t[fingerprint]}),
        batch_format="pyarrow")
    joined = hash_join(o, n, on=on, how="outer")

    def classify(t: pa.Table) -> pa.Table:
        fo, fn = t["fp_old"], t["fp_new"]
        status = pc.if_else(
            pc.is_null(fo), pa.scalar("new"),
            pc.if_else(pc.is_null(fn), pa.scalar("deleted"),
                       pc.if_else(pc.equal(fo, fn),
                                  pa.scalar("unchanged"),
                                  pa.scalar("changed"))))
        return t.append_column(status_col, status)

    return joined.map_batches(classify, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Salted join: the hot-key survival kit. hash_join's documented partitioning
# assumption is "a single bucket's rows fit in one worker's heap"; a key
# holding 30% of a 100 TB fact table breaks it — every row of that key lands
# in ONE bucket on ONE worker. Salting splits each hot key's left rows
# across `salt` sub-buckets and replicates the (by contract much smaller)
# right rows of that key into all of them, restoring bounded buckets at the
# cost of salt× replication of ONLY the hot right rows.
# ---------------------------------------------------------------------------


def detect_hot_keys(ds: "ray.data.Dataset", on: str,
                    frac: float = 0.01) -> set:
    """Keys holding more than ``frac`` of all rows — the salting candidates.

    One narrow (key)->Count partial-agg exchange (per-block Acero pre-agg,
    map-side combine); driver state is O(distinct keys) — the same scale
    contract as every counting aggregate here. At open-key-cardinality
    scale, sample the input first (hot keys by definition survive
    sampling)."""
    from ray.data.aggregate import Sum

    def local(t: pa.Table) -> pa.Table:
        g = t.select([on]).group_by([on]).aggregate([([], "count_all")])
        return g.rename_columns([on, "n"])

    counts = (
        _coalesced(ds.map_batches(local, batch_format="pyarrow"),
                   exchange_width())
        .groupby(on).aggregate(Sum("n", alias_name="n")).to_pandas()
    )
    total = counts["n"].sum()
    return set(counts.loc[counts["n"] > frac * total, on])


def salted_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                on: str, hot_keys, salt: int = 8, how: str = "inner",
                suffixes: tuple[str, str] = ("", "_r")) -> "ray.data.Dataset":
    """:func:`hash_join` for skewed keys: rows whose key is in ``hot_keys``
    are spread across ``salt`` sub-buckets (left side) / replicated into
    all of them (right side), so no single worker ever holds a hot key's
    full row set. Cold keys pay nothing (salt 0, one copy, same plan as
    hash_join). Output is the exact join multiset — the Acero merge joins
    on (key, salt), so a replica only ever meets its own sub-bucket.

    ``how`` ∈ inner|left|semi|anti (left-side semantics only: right/outer
    would emit one row per unmatched REPLICA — a correctness error, so
    they raise). ``hot_keys`` is the caller's knowledge or
    :func:`detect_hot_keys`. Scale contract: right-side hot rows are
    replicated salt× — the right side is the smaller-per-key side by
    contract (dimension rows, aggregates); left hot sub-buckets hold
    ~|hot key| / salt rows, so pick salt ≈ hot-key share × exchange width.
    """
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"salted_join supports inner|left|semi|anti, "
                         f"got {how!r}")
    join_type = _ACERO_HOW[how]
    filtering = how in ("semi", "anti")
    if filtering:
        right = right.map_batches(lambda t: t.select([on]),
                                  batch_format="pyarrow")
    l_schema = left.schema()
    r_schema = right.schema()
    l_names = list(l_schema.names)
    r_names = list(r_schema.names)
    l_types = dict(zip(l_schema.names, l_schema.types))
    r_types = dict(zip(r_schema.names, r_schema.types))
    hot_arr = pa.array(sorted(hot_keys), type=l_types[on])
    width = exchange_width()

    def _bucket_mix(key_col, s: np.ndarray) -> pa.Array:
        base = _bucket_of_column(key_col, width).to_numpy()
        return pa.array(((base.astype(np.int64) + s.astype(np.int64) * 40503)
                         % width).astype(np.int32))

    def prep_left(t: pa.Table) -> pa.Table:
        n = t.num_rows
        hot = pc.is_in(t[on], value_set=hot_arr) \
            .to_numpy(zero_copy_only=False)
        s = np.zeros(n, dtype=np.int8)
        # any spread works (join output is salt-assignment-independent);
        # block-local round-robin is free and even
        s[hot] = np.arange(int(hot.sum()), dtype=np.int64) % salt
        cols = {name: t[name] for name in t.column_names}
        cols["__salt"] = pa.array(s)
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        cols["__bucket"] = _bucket_mix(t[on], s)
        return pa.table(cols)

    def prep_right(t: pa.Table) -> pa.Table:
        hot = pc.is_in(t[on], value_set=hot_arr) \
            .to_numpy(zero_copy_only=False)
        idx_cold = np.nonzero(~hot)[0]
        idx_hot = np.nonzero(hot)[0]
        take = np.concatenate([idx_cold, np.repeat(idx_hot, salt)])
        s = np.concatenate([
            np.zeros(len(idx_cold), dtype=np.int8),
            np.tile(np.arange(salt, dtype=np.int8), len(idx_hot)),
        ])
        tt = t.take(pa.array(take))
        cols = {name: tt[name] for name in tt.column_names}
        cols["__salt"] = pa.array(s)
        cols["__side"] = pa.array(np.ones(len(take), dtype=np.int8))
        cols["__bucket"] = _bucket_mix(tt[on], s)
        return pa.table(cols)

    tagged = _coalesced(
        left.map_batches(prep_left, batch_format="pyarrow").union(
            right.map_batches(prep_right, batch_format="pyarrow")
        ), width)

    le = l_names + ["__salt"]
    re_ = r_names + ["__salt"]
    lt = {**l_types, "__salt": pa.int8()}
    rt = {**r_types, "__salt": pa.int8()}

    def merge_bucket(g: pa.Table) -> pa.Table:
        side = g["__side"]
        lg = _ensure_columns(g.filter(pc.equal(side, 0)), le, lt)
        rg = _ensure_columns(g.filter(pc.equal(side, 1)), re_, rt)
        out = lg.join(rg, keys=[on, "__salt"], join_type=join_type,
                      left_suffix=suffixes[0], right_suffix=suffixes[1])
        return out.drop_columns(["__salt"])

    return tagged.groupby("__bucket").map_groups(merge_bucket,
                                                 batch_format="pyarrow")


def bucketed_map_groups(ds: "ray.data.Dataset", key_col: str, fn,
                        cols: "list[str] | None" = None,
                        batch_format: str = "pandas") -> "ray.data.Dataset":
    """The bucket discipline as a public operator: run ``fn`` once per
    KEY-HASH BUCKET (not per key) with every row of every key in that
    bucket co-located — the building block behind sessionize / funnel /
    transitions / ntile / top-k here. ``fn`` must handle ALL keys in its
    frame vectorized; Python-call count is capped at the exchange width
    regardless of key cardinality (groupby(key).map_groups pays one call
    per key — minutes at web-scale key counts, CLAUDE.md).

    ``cols``: optional projection before the exchange (ship only what fn
    needs). The ``__bucket`` column is added for the exchange and dropped
    from ``fn``'s view. Partitioning assumption: one bucket's rows fit a
    worker's heap.
    """
    width = exchange_width()

    def add_bucket(t: pa.Table) -> pa.Table:
        if cols is not None:
            t = t.select(cols)
        return t.append_column("__bucket",
                               _bucket_of_column(t[key_col], width))

    if batch_format == "pandas":
        def run(g):
            return fn(g.drop(columns="__bucket"))
    else:
        def run(g):
            return fn(g.drop_columns(["__bucket"]))

    return (
        _coalesced(ds.map_batches(add_bucket, batch_format="pyarrow"), width)
        .groupby("__bucket")
        .map_groups(run, batch_format=batch_format)
    )
