"""Explicit url-hash partitioning (north_rule: "explicit repartitioning by
url-hash"; SURVEY.md §4.2 item 1).

The hash is md5-based (process- and engine-independent — Python's ``hash()``
is salted per process and MUST NOT be used for partitioning):

    bucket(url) = int(md5(url)[:8 hex], 16) % num_buckets

md5 rather than a faster hash because the DuckDB oracle can compute the
identical bucket (``strtol(substr(md5(url),1,8),16) % B``), making the
partitioner itself correctness-checkable. For runs where SQL checkability
is not needed (the 10^12-row production path), ``method="fast"`` switches
to pandas' fixed-key siphash — one vectorized C pass over the column
instead of a Python md5 call per row (~20× on the flagship partitioner);
both methods are deterministic across processes and engines.

Two layouts:
- ``with_url_hash``: adds ``url_hash``/``bucket`` columns vectorized (the
  partitioning key reused across stages — ONE key for dedup, checkpointing
  and output layout, per the shuffle-minimization rule).
- ``write_partitioned``: hash-partitioned Parquet output via
  ``partition_cols`` — each task appends to its buckets' directories, so
  co-location needs NO all-to-all shuffle; a bucket directory is the
  resume/retry unit. url-hash (not crawl order) decorrelates giant-page
  clusters from single partitions.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

DEFAULT_BUCKETS = 64


def url_bucket(url: str, num_buckets: int = DEFAULT_BUCKETS) -> int:
    return int(hashlib.md5(url.encode()).hexdigest()[:8], 16) % num_buckets


def _hash_array(col: pa.ChunkedArray | pa.Array, method: str) -> np.ndarray:
    """32-bit url hash per row. 'md5' = the SQL-checkable definition (first
    4 digest bytes big-endian == first 8 hex digits); 'fast' = pandas'
    fixed-key siphash, one vectorized C pass (not SQL-reproducible)."""
    if method == "md5":
        md5 = hashlib.md5  # local binds: this loop runs per corpus row
        frombytes = int.from_bytes
        return np.fromiter(
            (frombytes(md5(u.encode()).digest()[:4], "big")
             for u in col.to_pylist()),
            dtype=np.int64, count=len(col))
    if method == "fast":
        if isinstance(col, pa.Array):
            col = pa.chunked_array([col])
        try:
            # zero-copy from Arrow + one vectorized xxhash pass (~25× the
            # md5 loop). Deterministic across processes within a PINNED
            # polars version — pin polars wherever a fast-partitioned
            # layout outlives one run. NO silent fallback to a different
            # hash family: a reader hashing with pandas while the writer
            # used polars would silently route rows to wrong buckets, so
            # an absent polars is a hard error steering back to 'md5'.
            import polars as pl
        except ImportError as exc:
            raise RuntimeError(
                "hash method 'fast' requires polars (the only stable "
                "implementation); use method='md5' instead") from exc
        h = pl.from_arrow(col).hash(seed=0).to_numpy()
        return (h & np.uint64(0xFFFFFFFF)).astype(np.int64)
    raise ValueError(f"unknown hash method: {method}")


def add_url_hash_batch(t: pa.Table, url_col: str = "url",
                       num_buckets: int = DEFAULT_BUCKETS,
                       method: str = "md5") -> pa.Table:
    hashes = _hash_array(t[url_col], method)
    return t.append_column(
        "url_hash", pa.array(hashes)
    ).append_column(
        "bucket", pa.array((hashes % num_buckets).astype(np.int32))
    )


def with_url_hash(ds: "ray.data.Dataset", url_col: str = "url",
                  num_buckets: int = DEFAULT_BUCKETS,
                  method: str = "md5") -> "ray.data.Dataset":
    return ds.map_batches(
        lambda t: add_url_hash_batch(t, url_col, num_buckets, method),
        batch_format="pyarrow",
    )


def write_partitioned(ds: "ray.data.Dataset", out_dir: str,
                      url_col: str = "url",
                      num_buckets: int = DEFAULT_BUCKETS,
                      method: str = "md5") -> None:
    """Hash-partitioned output layout: out_dir/bucket=K/*.parquet.

    No shuffle: every task writes rows into the directories of the buckets it
    holds. Readers prune with read_parquet(out_dir, filter=bucket == k)."""
    with_url_hash(ds, url_col, num_buckets, method).write_parquet(
        out_dir, partition_cols=["bucket"]
    )


def bucket_filter(ds: "ray.data.Dataset", bucket: int, url_col: str = "url",
                  num_buckets: int = DEFAULT_BUCKETS,
                  method: str = "md5") -> "ray.data.Dataset":
    """Row-level bucket selection for hash-granular resume (costs a scan —
    prefer file-granular checkpoint partitions when the input is many files,
    engine/checkpoint.py)."""

    def keep(t: pa.Table) -> pa.Table:
        buckets = _hash_array(t[url_col], method) % num_buckets
        return t.filter(pa.array(buckets == bucket))

    return ds.map_batches(keep, batch_format="pyarrow")


def stable_split_batch(t: pa.Table, id_col: str = "doc_id",
                      train_pct: int = 80, val_pct: int = 10,
                      salt: str = "split") -> pa.Table:
    """Deterministic train/val/test assignment — the stable-split primitive
    of a training-data pipeline: membership depends only on (salt, id), so
    it is reproducible across runs/engines and shards never migrate when the
    corpus grows. Same md5 discipline as the url partitioner (SQL-checkable:
    ``CAST('0x'||substr(md5(salt||':'||id),1,8) AS BIGINT) % 100``)."""
    md5 = hashlib.md5
    frombytes = int.from_bytes
    pcts = np.fromiter(
        (frombytes(md5(f"{salt}:{i}".encode()).digest()[:4], "big") % 100
         for i in t[id_col].to_pylist()),
        dtype=np.int64, count=t.num_rows)
    split = np.where(pcts < train_pct, "train",
                     np.where(pcts < train_pct + val_pct, "val", "test"))
    return t.append_column("split", pa.array(split, type=pa.string()))


def hash_sample(ds: "ray.data.Dataset", id_col: str = "doc_id",
                pct: int = 10, salt: str = "sample") -> "ray.data.Dataset":
    """Deterministic hash sampling (SURVEY §2.7): keep ~pct % of rows by
    salted-md5 of the id — reproducible across runs/engines (unlike
    random_sample), stable under corpus growth (a kept id stays kept), and
    SQL-checkable with the same md5 expression as stable_split. Change
    ``salt`` to draw an independent sample."""
    md5 = hashlib.md5
    frombytes = int.from_bytes

    def keep(t: pa.Table) -> pa.Table:
        pcts = np.fromiter(
            (frombytes(md5(f"{salt}:{i}".encode()).digest()[:4], "big") % 100
             for i in t[id_col].to_pylist()),
            dtype=np.int64, count=t.num_rows)
        return t.filter(pa.array(pcts < pct))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds: "ray.data.Dataset", strata_col: str,
                      id_col: str, rates: dict[str, int],
                      default_pct: int = 0,
                      salt: str = "strat") -> "ray.data.Dataset":
    """Deterministic per-stratum hash sampling — the domain/language
    rebalancing primitive of a training-data pipeline: each stratum value
    gets its own keep-percentage (e.g. downsample boilerplate-heavy domains,
    keep all rare-language docs), with the same salted-md5 membership rule
    as :func:`hash_sample` so draws are reproducible and stable under
    corpus growth. Hash input is ``salt:stratum:id`` — strata draw
    INDEPENDENT samples (the same id can be kept in one stratum and dropped
    in another). Strata absent from ``rates`` keep ``default_pct`` %.

    No shuffle: one vectorized-filter map_batches pass; the rates dict rides
    the task closure (tiny — it is per-stratum config, not per-row state).
    """
    md5 = hashlib.md5
    frombytes = int.from_bytes

    def keep(t: pa.Table) -> pa.Table:
        strata = t[strata_col].to_pylist()
        ids = t[id_col].to_pylist()
        pcts = np.fromiter(
            (frombytes(md5(f"{salt}:{s}:{i}".encode()).digest()[:4],
                       "big") % 100
             for s, i in zip(strata, ids)),
            dtype=np.int64, count=t.num_rows)
        limits = np.fromiter(
            (rates.get(s, default_pct) for s in strata),
            dtype=np.int64, count=t.num_rows)
        return t.filter(pa.array(pcts < limits))

    return ds.map_batches(keep, batch_format="pyarrow")


def stable_split(ds: "ray.data.Dataset", id_col: str = "doc_id",
                 train_pct: int = 80, val_pct: int = 10,
                 salt: str = "split") -> "ray.data.Dataset":
    return ds.map_batches(
        lambda t: stable_split_batch(t, id_col, train_pct, val_pct, salt),
        batch_format="pyarrow",
    )


def cluster_split(docs: "ray.data.Dataset", edges: "ray.data.Dataset",
                  id_col: str = "doc_id", src: str = "src",
                  dst: str = "dst", train_pct: int = 80, val_pct: int = 10,
                  salt: str = "split") -> "ray.data.Dataset":
    """Leakage-safe train/val/test split: every near-duplicate cluster
    (a connected component of the pair graph ``edges`` — MinHash/SemDeDup
    candidate output) lands in ONE split, so held-out data never contains
    a near-copy of a training row. This is the dedup-aware split step a
    training pipeline runs after candidate mining; splitting by raw
    doc_id (:func:`stable_split`) leaks n-gram overlap across the fence.

    Plan: :func:`engine.graph.connected_components` labels the pair graph
    (size-gated driver union-find / distributed min-label propagation);
    labels LEFT-join onto the id column of the corpus via the narrow
    partitioned hash_join (edge-touched docs are usually a minority, but
    no broadcast-size assumption); unlabeled docs are their own cluster
    (component = own id); then the :func:`stable_split_batch` md5
    discipline keyed on the CLUSTER id — membership is a pure function of
    (salt, cluster), so reruns never migrate a cluster and corpus growth
    never moves an existing one. Output: (doc_id, cluster, split).
    """
    from engine.graph import connected_components
    from engine.joins import hash_join

    labels = connected_components(edges, src=src, dst=dst) \
        .map_batches(
            lambda t: pa.table({id_col: t["node"], "cluster": t["component"]}),
            batch_format="pyarrow") \
        .materialize()  # hash_join reads schemas up front (CLAUDE.md)

    ids = docs.map_batches(lambda t: t.select([id_col]),
                           batch_format="pyarrow")
    joined = hash_join(ids, labels, on=id_col, how="left")

    def assign(t: pa.Table) -> pa.Table:
        cluster = pc.coalesce(t["cluster"], pc.cast(t[id_col], pa.int64()))
        keyed = pa.table({id_col: t[id_col], "cluster": cluster})
        out = stable_split_batch(keyed, id_col="cluster",
                                 train_pct=train_pct, val_pct=val_pct,
                                 salt=salt)
        return out.select([id_col, "cluster", "split"])

    return joined.map_batches(assign, batch_format="pyarrow")


def cap_per_key(ds: "ray.data.Dataset", key_col: str, k: int,
                id_col: str = "doc_id",
                salt: str = "cap") -> "ray.data.Dataset":
    """Deterministic per-key downsampling cap — keep at most ``k`` rows per
    key, chosen by salted-md5 rank of the id: the "cap documents per
    domain/source" primitive of a web-corpus pipeline. Membership depends
    only on (salt, id, the key's id set), so reruns reproduce the sample
    and adding rows to OTHER keys never changes a key's picks.

    Plan: one vectorized md5-rank column per batch, then
    :func:`engine.stats.top_k_per_group` ascending on the rank (per-batch
    rank prune before the exchange, Python calls capped at the exchange
    width).
    SQL twin: row_number() OVER (PARTITION BY key ORDER BY
    md5(salt||':'||id), id) <= k.
    """
    from engine.stats import top_k_per_group

    md5 = hashlib.md5

    def add_rank(t: pa.Table) -> pa.Table:
        h = [md5(f"{salt}:{i}".encode()).hexdigest()
             for i in t[id_col].to_pylist()]
        return t.append_column("__h", pa.array(h, type=pa.string()))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow")
    kept = top_k_per_group(ranked, key_col, "__h", k, descending=False,
                           tiebreak_col=id_col)
    return kept.map_batches(lambda t: t.drop_columns(["__h"]),
                            batch_format="pyarrow")


def global_shuffle(ds: "ray.data.Dataset", id_col: str = "doc_id",
                   salt: str = "shuf",
                   pos_col: str = "shuffle_pos") -> "ray.data.Dataset":
    """Reproducible global random shuffle for training order: attach
    ``pos_col`` = rank of md5(salt:id) — the corpus in ``pos_col`` order is
    a uniform permutation that is identical across runs/engines (unlike
    ``Dataset.random_shuffle``), and RELATIVE order is stable under corpus
    growth (existing keys never change). Change ``salt`` for an independent
    epoch permutation.

    Plan: one vectorized-batch key pass (same md5 discipline as
    ``stable_split_batch``; 60-bit hex slice — the engine.stats sketch
    keying) + :func:`_attach_rank_unique` — shuffle keys are unique and
    uniform, so rank = bucketed prefix COUNT (driver prefix over one
    scalar per bucket + one bucketed exchange), never a full-table sort
    and no rank join. SQL twin: rank() OVER (ORDER BY CAST('0x' ||
    substr(md5(salt||':'||id),1,15) AS BIGINT)).
    """
    md5 = hashlib.md5

    def add_key(t: pa.Table) -> pa.Table:
        keys = np.fromiter(
            (int(md5(f"{salt}:{i}".encode()).hexdigest()[:15], 16)
             for i in t[id_col].to_pylist()),
            dtype=np.int64, count=t.num_rows)
        return t.append_column("__shufkey", pa.array(keys, type=pa.int64()))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    ranked = _attach_rank_unique(keyed, "__shufkey", pos_col)
    return ranked.map_batches(lambda t: t.drop_columns(["__shufkey"]),
                              batch_format="pyarrow")


def _attach_rank_unique(keyed: "ray.data.Dataset", key_col: str,
                        pos_col: str) -> "ray.data.Dataset":
    """Attach ``pos_col`` = 1-based rank of ``key_col`` for UNIQUE uniform
    60-bit keys (salted-md5 shuffle/mix keys) — the cheap path where
    global_rank's generic machinery (distinct-count exchange + rank
    hash_join) is overkill. Rank = the unit-weight case of
    :func:`_keyed_prefix`. Precondition: keys unique in [0, 2^60) —
    a 60-bit md5 collision is ~n²/2^61 and the SQL oracle would catch it.
    """
    return _keyed_prefix(keyed, key_col, None, pos_col, lambda p: p + 1)


def _keyed_prefix(keyed: "ray.data.Dataset", key_col: str,
                  weight_col: "str | None", out_col: str, finish,
                  domain: int = 1 << 60) -> "ray.data.Dataset":
    """Attach ``out_col`` = finish(exclusive prefix sum of ``weight_col``
    in ``key_col`` order) WITHOUT a global sort — the one prefix machine
    under global_shuffle / mix_corpora (unit weights → rank) and
    pack_shards (token weights → greedy shard): range-bucket the rows over
    the uniform [0, 2^60) key domain (monotone float bucketing keeps the
    range property), per-bucket totals → driver exclusive prefix over one
    scalar per bucket, ONE bucketed exchange with a per-bucket
    vectorized argsort + cumsum. ``weight_col=None`` means unit weights
    (the totals pass ships a Count instead of a Sum)."""
    from ray.data.aggregate import Count, Sum

    from engine.joins import _coalesced, exchange_width

    width = exchange_width()

    def add_bucket(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False)
        b = np.minimum((k.astype(np.float64) / float(domain)
                        * width).astype(np.int64), width - 1)
        return t.append_column("__bucket", pa.array(b, type=pa.int32()))

    # consumed by the totals pass AND the assign exchange (lazy-re-exec)
    bucketed = keyed.map_batches(add_bucket,
                                 batch_format="pyarrow").materialize()
    if weight_col is None:
        agg = (bucketed.map_batches(
            lambda t: t.select(["__bucket"]), batch_format="pyarrow")
            .groupby("__bucket").aggregate(Count(alias_name="n")))
    else:
        agg = (bucketed.map_batches(
            lambda t: pa.table({
                "__bucket": t["__bucket"],
                "w": pc.cast(t[weight_col], pa.int64())}),
            batch_format="pyarrow")
            .groupby("__bucket").aggregate(Sum("w", alias_name="n")))
    totals = np.zeros(width, dtype=np.int64)
    for r in agg.take_all():
        totals[r["__bucket"]] = r["n"]
    offsets = np.concatenate([[0], np.cumsum(totals)[:-1]])

    def assign(g: pa.Table) -> pa.Table:
        if g.num_rows == 0:
            return g.append_column(out_col, pa.array([], type=pa.int64()))
        off = int(offsets[g["__bucket"][0].as_py()])
        order = np.argsort(g[key_col].to_numpy(zero_copy_only=False),
                           kind="stable")
        g = g.take(pa.array(order))
        if weight_col is None:
            prefix = off + np.arange(g.num_rows, dtype=np.int64)
        else:
            w = g[weight_col].to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            prefix = off + np.cumsum(w) - w
        return g.append_column(
            out_col, pa.array(finish(prefix), type=pa.int64()))

    out = (_coalesced(bucketed, width)
           .groupby("__bucket").map_groups(assign, batch_format="pyarrow"))
    return out.map_batches(lambda t: t.drop_columns(["__bucket"]),
                           batch_format="pyarrow")


def mix_corpora(sources: "dict[str, ray.data.Dataset]",
                rates: dict[str, int], id_col: str = "doc_id",
                salt: str = "mix", pos_col: str = "mix_pos",
                source_col: str = "source") -> "ray.data.Dataset":
    """Deterministic weighted corpus mixing — the "blend web/books/code at
    target proportions" step that precedes tokenization in a training-data
    pipeline. Each named source keeps ``rates[name]`` % of its rows by
    salted-md5 of the id (an independent draw per source: hash input
    ``salt:name:id``), gets a ``source_col`` tag, and the union is assigned
    a reproducible interleaved training order ``pos_col`` = rank of
    md5(``salt:order:name:id``) — so the blend, like
    :func:`global_shuffle`, is identical across runs/engines and stable
    under corpus growth.

    Plan: per-source vectorized filter (:func:`hash_sample` discipline, no
    shuffle) + union; the only exchange is :func:`_attach_rank_unique`'s
    bucketed prefix count over the unique order keys — never a full-table
    sort, no rank join. Sources may overlap in ids — the order key
    includes the source name, so the mix position is still a permutation.
    """
    md5 = hashlib.md5

    def prep(name: str, pct: int):
        def f(t: pa.Table) -> pa.Table:
            ids = t[id_col].to_pylist()
            pcts = np.fromiter(
                (int.from_bytes(
                    md5(f"{salt}:{name}:{i}".encode()).digest()[:4],
                    "big") % 100 for i in ids),
                dtype=np.int64, count=t.num_rows)
            kept = t.filter(pa.array(pcts < pct))
            keys = np.fromiter(
                (int(md5(f"{salt}:order:{name}:{i}".encode())
                     .hexdigest()[:15], 16)
                 for i in kept[id_col].to_pylist()),
                dtype=np.int64, count=kept.num_rows)
            return (kept.append_column(
                source_col, pa.array([name] * kept.num_rows,
                                     type=pa.string()))
                    .append_column("__mixkey",
                                   pa.array(keys, type=pa.int64())))

        return f

    parts = [ds.map_batches(prep(name, rates[name]),
                            batch_format="pyarrow")
             for name, ds in sources.items()]
    unioned = parts[0]
    for p in parts[1:]:
        unioned = unioned.union(p)
    ranked = _attach_rank_unique(unioned, "__mixkey", pos_col)
    return ranked.map_batches(lambda t: t.drop_columns(["__mixkey"]),
                              batch_format="pyarrow")


def curriculum_order(ds: "ray.data.Dataset", tier_col: str,
                     num_tiers: int, id_col: str = "doc_id",
                     salt: str = "cur",
                     pos_col: str = "cur_pos") -> "ray.data.Dataset":
    """Curriculum training order: position = rank over (tier DESC, salted
    md5(id)) — highest-quality tier first, reproducibly shuffled within
    each tier (easy→hard or quality-first schedules over a bucketed
    quality score). Composite key = (num_tiers-1-tier)·2^60 + 60-bit hash
    (exact in int64 for num_tiers ≤ 8), ranked by the shared
    :func:`_keyed_prefix` machine over the widened domain — one bucketed
    exchange, no global sort. ``tier_col`` must hold ints in
    [0, num_tiers)."""
    if not 1 <= num_tiers <= 8:
        raise ValueError("num_tiers must be in 1..8 (int64 key headroom)")
    md5 = hashlib.md5

    def add_key(t: pa.Table) -> pa.Table:
        h = np.fromiter(
            (int(md5(f"{salt}:{i}".encode()).hexdigest()[:15], 16)
             for i in t[id_col].to_pylist()),
            dtype=np.int64, count=t.num_rows)
        tier = t[tier_col].to_numpy(zero_copy_only=False).astype(np.int64)
        key = (num_tiers - 1 - tier) * (1 << 60) + h
        return t.append_column("__curkey", pa.array(key, type=pa.int64()))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    ranked = _keyed_prefix(keyed, "__curkey", None, pos_col,
                           lambda p: p + 1,
                           domain=num_tiers * (1 << 60))
    return ranked.map_batches(lambda t: t.drop_columns(["__curkey"]),
                              batch_format="pyarrow")


def repeat_weighted(ds: "ray.data.Dataset", times_num: int, times_den: int,
                    id_col: str = "doc_id", salt: str = "rep",
                    copy_col: str = "copy") -> "ray.data.Dataset":
    """Deterministic fractional upsampling — repeat every row
    ``times_num/times_den`` times in expectation (the complement of
    :func:`mix_corpora`'s downsampling: low-resource sources get weight
    > 1 in a training blend). Each row emits ``times_num // times_den``
    full copies plus one extra copy iff md5(salt:id) % times_den <
    times_num % times_den — so the draw is reproducible, stable under
    corpus growth, and exact in expectation. Copies are tagged
    0..k-1 in ``copy_col`` (distinct downstream shuffle positions: salt
    the shuffle with the copy index).

    No shuffle: one vectorized-batch Arrow ``take`` pass; expansion
    happens inside each block, so block sizes grow by the multiplier —
    size upstream blocks accordingly.
    """
    base, rem = divmod(times_num, times_den)
    md5 = hashlib.md5

    def expand(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            return t.append_column(copy_col,
                                   pa.array([], type=pa.int64()))
        extra = np.fromiter(
            (int.from_bytes(md5(f"{salt}:{i}".encode()).digest()[:4],
                            "big") % times_den < rem
             for i in t[id_col].to_pylist()),
            dtype=np.bool_, count=n)
        copies = np.full(n, base, dtype=np.int64) + extra
        idx = np.repeat(np.arange(n, dtype=np.int64), copies)
        out = t.take(pa.array(idx))
        ends = np.cumsum(copies)
        copy_ix = np.arange(len(idx), dtype=np.int64) - np.repeat(
            ends - copies, copies)
        return out.append_column(copy_col, pa.array(copy_ix))

    return ds.map_batches(expand, batch_format="pyarrow")


def pack_shards(ds: "ray.data.Dataset", weight_col: str,
                id_col: str = "doc_id", shard_weight: int = 1 << 24,
                salt: str = "shard",
                shard_col: str = "shard_id") -> "ray.data.Dataset":
    """Equal-weight output sharding — assign every row the training shard
    it starts in when the corpus is laid out in reproducible shuffle order
    and filled greedily to ``shard_weight`` (token) units per shard: the
    "write ~equal-token files" endgame after corpus-prep, so no output
    shard is 100× another and loaders stream uniformly.

    shard_id = (exclusive prefix sum of ``weight_col`` in md5(salt:id)
    order) // shard_weight — i.e. SQL ``(sum(w) OVER (ORDER BY key) - w)
    // S``, computed by :func:`_keyed_prefix` (the shared no-global-sort
    prefix machine: bucket totals → driver prefix of one scalar per
    bucket → one bucketed exchange). Rows cross the wire once — inherent,
    the assignment IS an output re-layout; at scale write shards directly
    from the bucketed pass.
    """
    md5 = hashlib.md5

    def add_key(t: pa.Table) -> pa.Table:
        keys = np.fromiter(
            (int(md5(f"{salt}:{i}".encode()).hexdigest()[:15], 16)
             for i in t[id_col].to_pylist()),
            dtype=np.int64, count=t.num_rows)
        return t.append_column("__key", pa.array(keys, type=pa.int64()))

    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    out = _keyed_prefix(keyed, "__key", weight_col, shard_col,
                        lambda p: p // shard_weight)
    return out.map_batches(lambda t: t.drop_columns(["__key"]),
                           batch_format="pyarrow")
