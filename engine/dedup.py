"""Deduplication operators (scale additions; SURVEY.md §2.6 A6 + §2.8).

The reference has no dedup at all (every upload is a fresh uuid, SURVEY.md
§2.8); at 100 TB dedup is a first-class pipeline stage. All operators follow
the same shuffle discipline: heavy text never moves twice — signatures are
computed vectorized inside ``map_batches``, only (key, id) projections are
shuffled, and NO stage materializes O(corpus) state on the driver:

- candidate discovery uses a ``groupby(bucket).aggregate(Count, Min, Max)``
  over narrow (bucket, id) rows: size-2 buckets (the overwhelming majority of
  non-singleton LSH buckets) yield their pair directly from the aggregate —
  zero per-group Python calls — and only the rare ≥3 buckets take a
  ``map_groups`` expansion, reached via a broadcast filter whose driver
  footprint is bounded by the candidate-bucket count (small by the LSH
  premise), never by the corpus;
- pair verification joins the candidate pairs back to the signature table
  with two ``engine.joins.hash_join`` passes (signatures cross the wire once
  per endpoint — 0.5 KiB/doc, ~30× less than re-shuffling text) and computes
  similarity vectorized per batch;
- clustering defaults to distributed min-label propagation over (node, label)
  rows; the driver union-find remains for provably-small pair sets.

Return contracts: verified pairs are O(corpus) at a fixed duplicate rate
(a 10 %-dup corpus of 10^9 docs yields ~10^8 pairs), so the SCALE contract is
the ``*_pairs_ds`` functions, which return a streaming Dataset the caller can
``write_parquet`` without any driver materialization. The suffix-less
``*_pairs`` functions are driver-bounded conveniences (tests, small corpora,
interactive use) that collect + sort that Dataset's rows.

Operators:
- exact_dedup             content-hash winners + distributed id semi-join
- first_per_key           hash-partitioned first-wins by key
- minhash_signatures      k-shingle → 64-perm MinHash per row (numpy)
- minhash_lsh_pairs_ds    band-bucket aggregate → candidate pairs → signature-
                          similarity verification, as a Dataset (the scale
                          contract; minhash_lsh_pairs collects it)
- minhash_dedup_clusters  pairs → connected components → (id, cluster_id);
                          plan gated on pairs.count() BEFORE any collect
- simhash_signatures      64-bit SimHash per row
- simhash_pairs_ds        16-bit-band bucketing → Hamming-verified pairs
- ngram_jaccard_pairs_ds  exact n-gram Jaccard over candidate pairs (texts
                          co-located per pair via hash_join, not a driver
                          dict)

Partitioning assumption (documented per the custom-operator rule): LSH bucket
keys are uniformly distributed by construction (hashes), so the band groupby
has no inherent skew; pathological buckets (same boilerplate shingled by
thousands of docs) are capped at ``MAX_BUCKET`` docs per bucket with a
deterministic keep-lowest-id policy.
"""

from __future__ import annotations

import hashlib
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min

from engine.broadcast import get_broadcast

# MinHash parameters (frozen)
NUM_PERM = 64
NUM_BANDS = 16
ROWS_PER_BAND = NUM_PERM // NUM_BANDS  # 4
SHINGLE_K = 5  # character shingles
MAX_BUCKET = 64  # cap on docs considered per LSH bucket (skew guard)

# One-permutation hashing constants (signature kernel; see minhash_of)
_BIN_SHIFT = np.uint64(64 - 6)  # top 6 bits → 64 bins
_EMPTY_BIN = np.uint64(0xFFFFFFFFFFFFFFFF)
_MIX1 = np.uint64(0x9E3779B97F4A7C15)
_MIX2 = np.uint64(0xBF58476D1CE4E5B9)
_PACK_SHIFTS = (np.arange(SHINGLE_K - 1, -1, -1, dtype=np.uint64) * np.uint64(8))


def content_hash64(s: str) -> int:
    """Deterministic 64-bit content hash (process-independent, unlike
    hash()). SIGNED int64 (bytes read signed-big-endian) so the value
    rides Arrow int64 columns and Ray groupby blocks natively — an
    unsigned top-bit-set hash overflows C long in the aggregate reduce
    and silently degrades keeper blocks to pickled Python objects."""
    return int.from_bytes(
        hashlib.blake2b(s.encode(), digest_size=8).digest(), "big",
        signed=True)


def add_content_hash(batch: pa.Table, text_col: str = "text",
                     out_col: str = "content_hash") -> pa.Table:
    hashes = [content_hash64(s or "") for s in batch[text_col].to_pylist()]
    return batch.append_column(out_col, pa.array(hashes, type=pa.int64()))


def exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                id_col: str = "doc_id") -> "ray.data.Dataset":
    """Exact dedup via a distributed semi-join — no O(unique docs) driver set.

    1. hash text per batch (C-speed blake2b)
    2. groupby(content_hash).min(id) over the NARROW (hash, id) projection —
       the keeper set (tiny shuffle; heavy text does not move)
    3. semi-join the full table against the keeper ids with hash_join (one
       all-to-all of the corpus — the textbook dedup exchange; keeper ids are
       unique so the inner join never duplicates rows)
    """
    from engine.joins import _coalesced, exchange_width, hash_join

    hashed = ds.map_batches(
        lambda t: add_content_hash(t, text_col), batch_format="pyarrow"
    )
    keepers = (
        _coalesced(hashed.select_columns(["content_hash", id_col]),
                   exchange_width())  # narrow rows: no shuffle per tiny block
        .groupby("content_hash")
        .aggregate(Min(id_col, alias_name=id_col))
        .select_columns([id_col])
        # materialize: hash_join reads the right schema up front, which
        # executes a lazy pipeline once — without this the whole
        # read+hash+aggregate ran AGAIN inside the join's union
        .materialize()
    )
    joined = hash_join(ds, keepers, on=id_col, how="inner")
    return joined


def first_per_key(ds: "ray.data.Dataset", key_col: str = "url",
                  order_col: str | None = None,
                  keep: str = "first") -> "ray.data.Dataset":
    """A6 — exact dedup by key: one deterministic winner per key value
    ('first' = min ``order_col``, else min of the remaining columns' tuple,
    so the result is stable under any parallelism). ``keep='last'`` picks
    the MAX of the order tuple instead — the latest-state-per-key primitive
    (CDC compaction / last-event snapshot); same single exchange.

    One hash exchange on a KEY-HASH BUCKET, then a vectorized
    sort + drop_duplicates per bucket — grouping by the key itself would pay
    one Python map_groups call per key (millions at scale; see
    engine/windows.py for the same argument).

    This is the per-url dedup the byte-identity invariant implies (SURVEY.md
    §2.6 A6): downstream of extraction, one output row per url.
    """
    from engine.joins import bucketed_map_groups

    if keep not in ("first", "last"):
        raise ValueError(f"keep must be 'first' or 'last', got {keep!r}")

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        cols = [order_col] if order_col else \
            [c for c in g.columns if c != key_col]
        g = g.sort_values([key_col] + cols, kind="mergesort")
        return g.drop_duplicates(key_col, keep=keep)

    return bucketed_map_groups(ds, key_col, pick)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _shingle_hashes(text: str, k: int = SHINGLE_K) -> np.ndarray:
    """Byte k-shingles → mixed uint64 hash array, fully vectorized: pack the
    k window bytes into an integer (sliding_window_view, exact shingle
    identity for k ≤ 8) and spread its bits with a splitmix64-style mixer —
    no Python loop, no per-shingle C call."""
    data = text.encode("utf-8", "replace")
    if len(data) < k:
        data = data + b"\x01" * (k - len(data))
    arr = np.frombuffer(data, dtype=np.uint8)
    w = np.lib.stride_tricks.sliding_window_view(arr, k).astype(np.uint64)
    ids = (w << _PACK_SHIFTS).sum(axis=1)
    x = ids ^ (ids >> np.uint64(33))
    x = x * _MIX1  # wraps mod 2^64 (numpy semantics)
    x ^= x >> np.uint64(29)
    x = x * _MIX2
    x ^= x >> np.uint64(32)
    return x


def minhash_of(text: str) -> np.ndarray:
    """MinHash signature (uint64[NUM_PERM]) via one-permutation hashing
    (Li, Owen, Zhang 2012): hash every shingle ONCE, split the hash space
    into NUM_PERM bins by the top bits, take the min per bin, and densify
    empty bins by borrowing (bin-salted) from the next occupied bin. O(n)
    per document vs the classic 64-permutation O(64·n) — measured ~20× on
    14 KiB web pages — with the same fraction-of-equal-slots Jaccard
    estimator; duplicates need no dedup (they cannot change a min)."""
    x = _shingle_hashes(text)
    bins = (x >> _BIN_SHIFT).astype(np.int64)
    sig = np.full(NUM_PERM, _EMPTY_BIN, dtype=np.uint64)
    np.minimum.at(sig, bins, x)
    empty = sig == _EMPTY_BIN
    if empty.any():
        filled_pos = np.flatnonzero(~empty)
        if len(filled_pos) == 0:
            return np.zeros(NUM_PERM, dtype=np.uint64)
        idx = np.arange(NUM_PERM)
        nxt = np.searchsorted(filled_pos, idx)  # next occupied bin (cyclic)
        nxt[nxt == len(filled_pos)] = 0
        borrowed = sig[filled_pos[nxt]] ^ (idx.astype(np.uint64) * _MIX1)
        sig = np.where(empty, borrowed, sig)
    return sig


def minhash_signatures(ds: "ray.data.Dataset", text_col: str = "text",
                       id_col: str = "doc_id") -> "ray.data.Dataset":
    """(id, sig: list<uint64>[64]) per row (stateless tasks; module perms warm
    per reused worker process)."""

    def minhash_batch(t: pa.Table) -> pa.Table:
        sigs = [minhash_of(s or "") for s in t[text_col].to_pylist()]
        return pa.table({
            id_col: t[id_col],
            "sig": pa.array([s.tolist() for s in sigs],
                            type=pa.list_(pa.uint64())),
        })

    # batch_size sized for parallelism, not just amortization: 1024 over a
    # 5k-row table yields 5 tasks on 32 CPUs (measured 3.2 s wall); 256
    # keeps every core busy
    return ds.map_batches(minhash_batch, batch_format="pyarrow",
                          batch_size=256)


def _band_rows(sig_table: pa.Table, id_col: str,
               num_bands: int = NUM_BANDS) -> pa.Table:
    """Explode signatures into narrow (bkey, id) rows — signatures themselves
    stay behind (verified later via a join). bkey is a band-salted 64-bit
    fold-mix of the band's r signature slots, computed as ``rows_per_band``
    whole-matrix numpy passes (no per-doc Python loop, no per-band crc call).

    ``num_bands`` tunes the recall/candidate-volume tradeoff: b bands of
    r = NUM_PERM/b rows collide with probability s^r per band — r=4
    (default) is recall-friendly down to s≈0.5; corpora with a shared
    finite vocabulary (heavy boilerplate) flood r=4 with candidates and
    should use num_bands=8 (r=8)."""
    rows_per_band = NUM_PERM // num_bands
    n = sig_table.num_rows
    if n == 0:
        return pa.table({"bkey": pa.array([], type=pa.int64()),
                         id_col: sig_table[id_col]})
    mat = _sig_matrix(sig_table["sig"], NUM_PERM)  # (n, NUM_PERM) uint64
    bands = mat.reshape(n, num_bands, rows_per_band)
    # band-index salt: band b of doc X only buckets with band b of doc Y
    salt = np.arange(num_bands, dtype=np.uint64) * _MIX2
    h = np.broadcast_to(salt, (n, num_bands)).copy()
    for j in range(rows_per_band):  # r vectorized passes over the matrix
        h ^= bands[:, :, j]
        h = (h ^ (h >> np.uint64(33))) * _MIX1
        h ^= h >> np.uint64(29)
    ids = sig_table[id_col].to_numpy(zero_copy_only=False)
    return pa.table({
        "bkey": pa.array(h.view(np.int64).ravel()),
        id_col: pa.array(np.repeat(ids, num_bands)),
    })


def _sig_matrix(col: pa.ChunkedArray | pa.Array, width: int) -> np.ndarray:
    """list<uint64>[width] column → (n, width) uint64 matrix, zero-copy-ish."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = col.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(-1, width)


def _list_u64_to_binary(col: pa.ChunkedArray | pa.Array,
                        width: int) -> pa.Array:
    """list<uint64>[width] → binary (width*8 bytes/row, one memcpy) — Acero
    hash joins do not support list-typed payload columns, binary they do."""
    flat = _sig_matrix(col, width)
    n = len(flat)
    data = pa.py_buffer(flat.tobytes())
    offsets = pa.py_buffer(
        (np.arange(n + 1, dtype=np.int32) * (width * 8)).tobytes())
    return pa.Array.from_buffers(pa.binary(), n, [None, offsets, data])


def _binary_to_u64_matrix(col: pa.ChunkedArray | pa.Array,
                          width: int) -> np.ndarray:
    """binary(width*8) column → (n, width) uint64 matrix."""
    vals = col.to_pylist()
    if not vals:
        return np.empty((0, width), dtype=np.uint64)
    return np.frombuffer(b"".join(vals), dtype=np.uint64).reshape(-1, width)


# Plan-choice caps (size-based, like broadcast-vs-shuffle join selection):
# above VERIFY_DRIVER_MAX candidate-pair rows, or FETCH_DRIVER_MAX distinct
# endpoint ids, the verification/clustering stages switch from the
# candidate-bounded driver plan to the fully-distributed join plan.
VERIFY_DRIVER_MAX = 2_000_000
FETCH_DRIVER_MAX = 500_000


def _candidate_pairs(rows: "ray.data.Dataset", id_col: str,
                     key_col: str = "bkey",
                     max_bucket: int = MAX_BUCKET):
    """DISTINCT candidate pairs from bucketed (key, id) rows.

    groupby(key).aggregate(Count, Min, Max) yields size-2 buckets' pairs
    straight from the aggregate (no per-group Python — almost every
    non-singleton LSH bucket has exactly 2 docs); buckets ≥3 have their rows
    recovered by a broadcast key filter (driver footprint = hot-bucket
    count, bounded by the candidate set, never the corpus) and expanded by a
    vectorized self-merge under the ``max_bucket`` cap.

    Returns a pandas DataFrame (already distinct — band duplicates dropped
    driver-side, ~16× smaller than the raw expansion) when the candidate row
    counts fit VERIFY_DRIVER_MAX; a Dataset (distinct via groupby) on the
    distributed scale plan; None when there are no candidates at all.
    """
    rows = rows.materialize()  # band rows are consumed 1-2×; never recompute
    agg = (
        rows.groupby(key_col)
        .aggregate(Count(alias_name="n"),
                   Min(id_col, alias_name="min_id"),
                   Max(id_col, alias_name="max_id"))
        .materialize()
    )

    def pair2_batch(t: pa.Table) -> pa.Table:
        # size-2 buckets; a duplicate id appearing twice in one bucket would
        # emit a degenerate self-pair (min == max) — exclude it, matching the
        # id_a < id_b rule of the ≥3 expansion paths
        two = t.filter(pc.and_(pc.equal(t["n"], 2),
                               pc.not_equal(t["min_id"], t["max_id"])))
        return pa.table({"id_a": two["min_id"], "id_b": two["max_id"]})

    pair2 = agg.map_batches(pair2_batch, batch_format="pyarrow").materialize()

    hot_stats = agg.map_batches(
        lambda t: t.filter(pc.greater(t["n"], 2)).select([key_col, "n"]),
        batch_format="pyarrow",
    ).take_all()
    hot_keys = [r[key_col] for r in hot_stats]  # bounded: hot buckets
    hot_row_count = sum(r["n"] for r in hot_stats)
    n_pair2 = pair2.count()
    if not hot_keys and n_pair2 == 0:
        return None

    def hot_rows_ds():
        # vectorized membership: broadcast the hot-key array ONCE as a
        # ready-typed Arrow array (building/casting it per batch would
        # re-pay the allocation on every block of a full-corpus scan);
        # pc.is_in per batch replaces the per-row `k in set` comprehension
        hot_ref = ray.put(pa.array(np.asarray(hot_keys, dtype=np.int64)))

        def hot_filter(t: pa.Table) -> pa.Table:
            value_set = get_broadcast(hot_ref)
            if value_set.type != t[key_col].type:  # pathological schemas
                value_set = value_set.cast(t[key_col].type)
            return t.filter(pc.is_in(t[key_col], value_set=value_set))

        return rows.map_batches(hot_filter, batch_format="pyarrow")

    # the expansion is capped at max_bucket per bucket, so the worst-case
    # pair volume is known before generating anything
    max_expand = sum(min(r["n"], max_bucket) ** 2 // 2 for r in hot_stats)
    if n_pair2 + hot_row_count <= VERIFY_DRIVER_MAX \
            and n_pair2 + max_expand <= VERIFY_DRIVER_MAX:
        # candidate-bounded driver plan: vectorized self-merge + ONE
        # drop_duplicates kills the ~16× band duplication before anything
        # is turned back into a Dataset (one Python pass total — the old
        # per-bucket map_groups paid ~0.5 ms per bucket)
        frames = []
        if n_pair2:
            frames.append(pair2.to_pandas())
        if hot_keys:
            df = hot_rows_ds().to_pandas().sort_values(
                [key_col, id_col], kind="mergesort")
            # duplicate ids inside one bucket (duplicate-id inputs) must
            # not consume cap slots or yield self-pairs — both expansion
            # paths dedupe (key, id) BEFORE capping, keeping the plans
            # identical on that edge
            df = df.drop_duplicates([key_col, id_col])
            df = df[df.groupby(key_col).cumcount() < max_bucket]
            m = df.merge(df, on=key_col)
            a, b = f"{id_col}_x", f"{id_col}_y"
            frames.append(m.loc[m[a] < m[b], [a, b]].rename(
                columns={a: "id_a", b: "id_b"}))
        if not frames:
            return None
        out = pd.concat(frames, ignore_index=True).drop_duplicates() \
            .reset_index(drop=True)
        return out if len(out) else None  # all-self-pair buckets → nothing

    # distributed scale plan: per-bucket expansion + distinct via groupby
    import ray.data as rd  # noqa: F401

    parts = [pair2] if n_pair2 else []
    if hot_keys:

        def expand(g: pd.DataFrame) -> pd.DataFrame:
            # set(): duplicate ids in a bucket would emit (x, x) self-pairs
            # from distinct positions — the driver plan's strict < merge
            # filters those, so dedupe here to keep the plans identical
            ids = sorted(set(g[id_col].tolist()))[:max_bucket]
            out_a, out_b = [], []
            for i, va in enumerate(ids):
                for vb in ids[i + 1 :]:
                    out_a.append(va)
                    out_b.append(vb)
            return pd.DataFrame({"id_a": out_a, "id_b": out_b})

        parts.append(
            hot_rows_ds().groupby(key_col)
            .map_groups(expand, batch_format="pandas")
            .map_batches(lambda t: t, batch_format="pyarrow")
        )

    cand = parts[0] if len(parts) == 1 else parts[0].union(parts[1])
    out = (
        cand.groupby(["id_a", "id_b"])
        .aggregate(Count(alias_name="__n"))
        .select_columns(["id_a", "id_b"])
        # materialize: the caller feeds this into hash_join, whose schema
        # read would otherwise EXECUTE this shuffle (incl. the full-corpus
        # hot-bucket scan) and the join's union would execute it AGAIN —
        # the lazy-re-execution cost CLAUDE.md documents
        .materialize()
    )
    # all candidates may have been degenerate self-pairs (duplicate-id
    # inputs); an empty Dataset has no schema for the verify join to read
    return out if out.count() else None


def _fetch_for_ids(ds: "ray.data.Dataset", id_col: str,
                   wanted: set) -> pd.DataFrame:
    """Streaming broadcast semi-join: rows of ``ds`` whose id ∈ wanted, as a
    DataFrame bounded by |wanted| (callers guarantee wanted is
    candidate-bounded — the corpus itself is never collected)."""
    ref = ray.put(pa.array(list(wanted)))

    def keep(t: pa.Table) -> pa.Table:
        value_set = get_broadcast(ref).cast(t[id_col].type)
        return t.filter(pc.is_in(t[id_col], value_set=value_set))

    return ds.map_batches(keep, batch_format="pyarrow").to_pandas()


def _unique_by_id(ds: "ray.data.Dataset", id_col: str) -> "ray.data.Dataset":
    """Defensive unique-id enforcement for pair-attach side tables:
    duplicate ids (duplicate input rows) would FAN OUT the verify join,
    duplicating output pairs — the join-plan twin of the driver plan's
    ``drop_duplicates``. One deterministic winner per id (first_per_key's
    bucketed exchange; Python-call count stays O(buckets))."""
    return first_per_key(ds, key_col=id_col)


def _attach_pair_columns(pairs: "ray.data.Dataset", side_ds: "ray.data.Dataset",
                         id_col: str, endpoint: str,
                         renames: dict[str, str]) -> "ray.data.Dataset":
    """hash_join ``pairs`` with ``side_ds`` on pair endpoint ``endpoint``
    (id_a / id_b), renaming side columns per ``renames`` (id_col → endpoint
    implied)."""
    from engine.joins import hash_join

    mapping = {id_col: endpoint, **renames}

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({mapping.get(n, n): t[n] for n in t.column_names})

    side = side_ds.map_batches(rename, batch_format="pyarrow")
    # materialize: callers chain two attaches; hash_join's schema read of a
    # lazy left side would EXECUTE the first join and the union would
    # execute it again (lazy-re-execution, CLAUDE.md). Pair+payload volume
    # is candidate-bounded, so the object store (with spill) is the right
    # place for it.
    return hash_join(pairs, side, on=endpoint).materialize()


def _empty_pairs_table(value_col: str,
                       value_type: pa.DataType) -> pa.Table:
    return pa.table({"id_a": pa.array([], type=pa.int64()),
                     "id_b": pa.array([], type=pa.int64()),
                     value_col: pa.array([], type=value_type)})


def _plan_to_ds(plan, value_col: str, value_type: pa.DataType):
    """Normalize a verified-pairs plan result (None | bounded DataFrame |
    Dataset) into a Dataset — the write_parquet-able scale contract."""
    import ray.data as rd

    if plan is None:
        return rd.from_arrow(_empty_pairs_table(value_col, value_type))
    if isinstance(plan, pd.DataFrame):
        if len(plan) == 0:
            return rd.from_arrow(_empty_pairs_table(value_col, value_type))
        return rd.from_arrow(pa.Table.from_pandas(plan, preserve_index=False))
    return plan


def _plan_to_pandas(plan, value_col: str) -> pd.DataFrame:
    """Collect a verified-pairs plan into the sorted driver DataFrame
    (bounded-convenience contract; scale callers use the _ds variant)."""
    empty = pd.DataFrame({"id_a": [], "id_b": [], value_col: []})
    if plan is None:
        return empty
    out = plan if isinstance(plan, pd.DataFrame) else plan.to_pandas()
    if len(out) == 0:
        return empty
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _minhash_pairs_plan(ds: "ray.data.Dataset", text_col: str,
                        id_col: str, threshold: float,
                        num_bands: int):
    """Verified MinHash near-dup pairs: candidate-bounded driver DataFrame
    when the candidate set fits VERIFY_DRIVER_MAX / FETCH_DRIVER_MAX, else a
    fully-distributed Dataset (never an O(corpus) driver object)."""
    sigs = minhash_signatures(ds, text_col, id_col).materialize()

    bands = sigs.map_batches(lambda t: _band_rows(t, id_col, num_bands),
                             batch_format="pyarrow")
    pairs = _candidate_pairs(bands, id_col)
    if pairs is None:
        return None

    if isinstance(pairs, pd.DataFrame):
        wanted = set(pairs["id_a"]) | set(pairs["id_b"])
        if len(wanted) > FETCH_DRIVER_MAX:  # too many sigs to fetch: joins
            import ray.data as rd

            pairs = rd.from_arrow(pa.Table.from_pandas(
                pairs, preserve_index=False))
        else:
            # candidate-bounded driver plan: semi-join the signatures down
            # to the candidate ids (streaming filter; |wanted| =
            # O(candidates)), verify vectorized on the driver
            # drop_duplicates: a duplicate id in the input (same doc under
            # two rows) would otherwise explode the index alignment below
            sigdf = _fetch_for_ids(sigs, id_col, wanted) \
                .drop_duplicates(id_col)
            mat = np.asarray(sigdf["sig"].tolist(), dtype=np.uint64)
            pos = pd.Series(np.arange(len(sigdf)), index=sigdf[id_col])
            a = mat[pos[pairs["id_a"]].to_numpy()]
            b = mat[pos[pairs["id_b"]].to_numpy()]
            out = pairs.copy()
            out["similarity"] = (a == b).mean(axis=1)
            return out[out["similarity"] >= threshold]

    # distributed join plan (candidate set too large for the driver): join
    # each endpoint's signature to the pair rows — signatures cross the wire
    # once per endpoint, never a driver dict
    sigs_bin = sigs.map_batches(
        lambda t: pa.table({id_col: t[id_col],
                            "sig": _list_u64_to_binary(t["sig"], NUM_PERM)}),
        batch_format="pyarrow",
    )
    sigs_bin = _unique_by_id(sigs_bin, id_col).materialize()
    with_a = _attach_pair_columns(pairs, sigs_bin, id_col, "id_a",
                                  {"sig": "sig_a"})
    with_ab = _attach_pair_columns(with_a, sigs_bin, id_col, "id_b",
                                   {"sig": "sig_b"})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_pairs_table("similarity", pa.float64())
        a = _binary_to_u64_matrix(t["sig_a"], NUM_PERM)
        b = _binary_to_u64_matrix(t["sig_b"], NUM_PERM)
        sim = (a == b).mean(axis=1)
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "similarity": pa.array(sim, type=pa.float64())})
        return out.filter(pc.greater_equal(out["similarity"], threshold))

    return with_ab.map_batches(verify, batch_format="pyarrow")


def minhash_lsh_pairs_ds(ds: "ray.data.Dataset", text_col: str = "text",
                         id_col: str = "doc_id", threshold: float = 0.7,
                         num_bands: int = NUM_BANDS) -> "ray.data.Dataset":
    """Verified near-dup pairs as a DATASET (id_a, id_b, similarity) — the
    scale contract: verified pairs are O(corpus) at a fixed duplicate rate,
    so callers ``write_parquet`` (or aggregate) this; nothing O(pairs) ever
    materializes on the driver."""
    return _plan_to_ds(
        _minhash_pairs_plan(ds, text_col, id_col, threshold, num_bands),
        "similarity", pa.float64())


def minhash_lsh_pairs(ds: "ray.data.Dataset", text_col: str = "text",
                      id_col: str = "doc_id",
                      threshold: float = 0.7,
                      num_bands: int = NUM_BANDS) -> pd.DataFrame:
    """Driver-bounded convenience over :func:`minhash_lsh_pairs_ds`: collects
    the verified pairs into a sorted DataFrame. Fine for tests and
    interactive corpora; at scale the pair volume is O(corpus), so pipeline
    code uses the ``_ds`` variant and writes parquet instead."""
    return _plan_to_pandas(
        _minhash_pairs_plan(ds, text_col, id_col, threshold, num_bands),
        "similarity")


def connected_components(pairs: pd.DataFrame, ids: list) -> pd.DataFrame:
    """Union-find over the verified pair set → (id, cluster_id = min member).

    Driver-side on the candidate set (provably small after LSH verification);
    the distributed default is min-label propagation — see
    connected_components_distributed.
    """
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if str(ra) <= str(rb) else (rb, ra)
            parent[hi] = lo

    for a, b in zip(pairs.get("id_a", []), pairs.get("id_b", [])):
        union(a, b)
    # path-compress to the minimum member per component
    comp: dict = {}
    for i in ids:
        comp.setdefault(find(i), []).append(i)
    rows = []
    for members in comp.values():
        cid = min(members)
        for m in members:
            rows.append({"doc_id": m, "cluster_id": cid})
    return pd.DataFrame(rows).sort_values("doc_id").reset_index(drop=True)


def _pair_cluster_map(pairs: pd.DataFrame) -> dict:
    """Union-find over the verified pair set (candidate-bounded) →
    {paired node: min member of its component}. Nodes in no pair are absent
    (they implicitly keep their own id as cluster)."""
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in zip(pairs.get("id_a", []), pairs.get("id_b", [])):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if str(ra) <= str(rb) else (rb, ra)
            parent[hi] = lo
    comp: dict = {}
    for node in parent:
        comp.setdefault(find(node), []).append(node)
    mapping: dict = {}
    for root, members in comp.items():
        members.append(root)
        cid = min(members)
        for m in members:
            mapping[m] = cid
    return mapping


def _edges_batch(t: pa.Table) -> pa.Table:
    """(id_a, id_b) rows → symmetric (node, peer) int64 edge rows."""
    a = pc.cast(t["id_a"], pa.int64())
    b = pc.cast(t["id_b"], pa.int64())
    a = a.combine_chunks() if isinstance(a, pa.ChunkedArray) else a
    b = b.combine_chunks() if isinstance(b, pa.ChunkedArray) else b
    return pa.table({
        "node": pa.concat_arrays([a, b]),
        "peer": pa.concat_arrays([b, a]),
    })


def _propagate_labels(edges_ds: "ray.data.Dataset", ids_ds: "ray.data.Dataset",
                      max_iters: int = 25) -> "ray.data.Dataset":
    """Distributed min-label propagation (the huge-pair-set scale path).

    ``edges_ds``: symmetric (node, peer) rows; ``ids_ds``: (node) rows.
    Each round carries every node's current label to its neighbors via one
    vectorized hash_join (never a per-node Python call) and takes the
    per-node min; labels only decrease, so the label sum is a fixpoint
    detector. Each round shuffles only (node, label/peer) rows — never the
    documents. Returns (doc_id, cluster_id = min member id)."""
    from engine.joins import hash_join

    labels = ids_ds.map_batches(
        lambda t: pa.table({"node": t["node"], "label": t["node"]}),
        batch_format="pyarrow",
    ).materialize()
    edges_ds = edges_ds.materialize()
    old_sum = labels.sum("label")

    for _ in range(max_iters):
        carried = hash_join(edges_ds, labels, on="node").map_batches(
            lambda t: pa.table({"node": t["peer"], "label": t["label"]}),
            batch_format="pyarrow",
        )
        new_labels = (
            labels.union(carried)
            .groupby("node")
            .aggregate(Min("label", alias_name="label"))
            .materialize()
        )
        new_sum = new_labels.sum("label")
        labels = new_labels
        if new_sum == old_sum:  # labels only ever decrease; fixpoint reached
            break
        old_sum = new_sum
    return labels.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "cluster_id": t["label"]}),
        batch_format="pyarrow",
    )


def connected_components_distributed(pairs, ids,
                                     max_iters: int = 25) -> pd.DataFrame:
    """Distributed min-label propagation over integer ids (``ids`` may be a
    Dataset of one id column or a Python list). Same output contract as
    connected_components: (doc_id, cluster_id = min member id)."""
    import ray.data as rd

    if isinstance(ids, list):
        ids_ds = rd.from_arrow(pa.table({
            "node": pa.array([int(i) for i in ids], type=pa.int64())}))
    else:
        id_name = ids.schema().names[0]
        ids_ds = ids.map_batches(
            lambda t: pa.table({"node": pc.cast(t[id_name], pa.int64())}),
            batch_format="pyarrow",
        )

    if isinstance(pairs, pd.DataFrame):
        if len(pairs) == 0:
            out = ids_ds.map_batches(
                lambda t: pa.table({"doc_id": t["node"],
                                    "cluster_id": t["node"]}),
                batch_format="pyarrow",
            ).to_pandas()
            return out.sort_values("doc_id").reset_index(drop=True)
        pairs = rd.from_arrow(pa.Table.from_pandas(
            pairs[["id_a", "id_b"]].astype("int64"), preserve_index=False))

    edges_ds = pairs.map_batches(_edges_batch, batch_format="pyarrow")
    out = _propagate_labels(edges_ds, ids_ds, max_iters).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def minhash_dedup_clusters(ds: "ray.data.Dataset", text_col: str = "text",
                           id_col: str = "doc_id", threshold: float = 0.7,
                           distributed: bool = True) -> "ray.data.Dataset":
    """Near-dup clusters as a Dataset (doc_id, cluster_id = min member id).

    Default plan: union-find over the VERIFIED pair set (candidate-bounded —
    never O(corpus)), broadcast the paired-node→cluster map, and attach the
    cluster id distributed over the id column; pair sets above
    VERIFY_DRIVER_MAX take the min-label-propagation scale path instead.
    ``distributed=False`` is the legacy all-driver union-find (testing only).
    """
    import ray.data as rd

    plan = _minhash_pairs_plan(ds, text_col, id_col, threshold, NUM_BANDS)
    ids_ds = ds.select_columns([id_col])

    if not distributed:
        pairs = _plan_to_pandas(plan, "similarity")
        ids = [r[id_col] for r in ids_ds.take_all()]
        return rd.from_arrow(pa.Table.from_pandas(
            connected_components(pairs, ids), preserve_index=False))

    if isinstance(plan, rd.Dataset):
        # size-gate BEFORE collecting: count() streams the verified pairs
        # without materializing them on the driver
        plan = plan.materialize()
        if plan.count() > VERIFY_DRIVER_MAX:
            nodes = ids_ds.map_batches(
                lambda t: pa.table({"node": pc.cast(t[id_col], pa.int64())}),
                batch_format="pyarrow",
            )
            return _propagate_labels(
                plan.map_batches(_edges_batch, batch_format="pyarrow"),
                nodes)

    pairs = _plan_to_pandas(plan, "similarity")
    mapping = _pair_cluster_map(pairs)
    ref = ray.put(mapping)

    def attach(t: pa.Table) -> pa.Table:
        m = get_broadcast(ref)
        ids = t[id_col].to_pylist()
        return pa.table({
            "doc_id": t[id_col],
            "cluster_id": pa.array([m.get(i, i) for i in ids]),
        })

    return ids_ds.map_batches(attach, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_BIT_IDX = np.arange(64, dtype=np.uint64)


def simhash64(text: str) -> int:
    """64-bit SimHash over whitespace tokens.

    Token hash = crc32 (low word) + blake2b (high word): the high word must be
    INDEPENDENT of the low one — crc32 with a different seed is linear in the
    seed (crc32(b, s) == crc32(b) XOR f(len(b), s)), which would leave only
    ~32 bits of real entropy and degrade Hamming discrimination.

    Vectorized: one (tokens × 64) bit matrix per document instead of a
    per-token numpy round trip (~20× on long documents)."""
    tokens = text.split()
    if not tokens:
        return 0
    encoded = [t.encode("utf-8", "replace") for t in tokens]
    hs = np.fromiter(
        (
            zlib.crc32(b)
            | (int.from_bytes(hashlib.blake2b(b, digest_size=4).digest(),
                              "big") << 32)
            for b in encoded
        ),
        dtype=np.uint64,
        count=len(encoded),
    )
    bits = (hs[:, None] >> _BIT_IDX[None, :]) & 1
    acc = (2 * bits.astype(np.int64) - 1).sum(axis=0)
    return int(((acc > 0).astype(np.uint64) << _BIT_IDX).sum())


def simhash_signatures(ds: "ray.data.Dataset", text_col: str = "text",
                       id_col: str = "doc_id") -> "ray.data.Dataset":
    def simhash_batch(t: pa.Table) -> pa.Table:
        vals = [simhash64(s or "") for s in t[text_col].to_pylist()]
        return pa.table({id_col: t[id_col],
                         "simhash": pa.array(vals, type=pa.uint64())})

    return ds.map_batches(simhash_batch, batch_format="pyarrow",
                          batch_size=256)


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def _popcount64_np(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (per-byte unpackbits sum)."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 8 * 8).sum(axis=1)


def _simhash_pairs_plan(ds: "ray.data.Dataset", text_col: str,
                        id_col: str, max_hamming: int):
    """Verified SimHash pairs plan (None | bounded DataFrame | Dataset):
    bucket on each of the four 16-bit bands (any pair within Hamming ≤ 3 of
    64 bits shares at least one exact band by pigeonhole when distance < 4),
    verify exact Hamming distance. Same plan discipline as MinHash."""
    sigs = simhash_signatures(ds, text_col, id_col).materialize()

    def band_rows(t: pa.Table) -> pa.Table:
        h = pc.cast(t["simhash"], pa.uint64()).to_numpy(zero_copy_only=False)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        keys, out_ids = [], []
        for b in range(4):
            band_val = (h >> np.uint64(16 * b)) & np.uint64(0xFFFF)
            keys.append((np.int64(b) << np.int64(32))
                        | band_val.astype(np.int64))
            out_ids.append(ids)
        return pa.table({
            "bkey": pa.array(np.concatenate(keys)),
            id_col: pa.array(np.concatenate(out_ids)),
        })

    bands = sigs.map_batches(band_rows, batch_format="pyarrow")
    pairs = _candidate_pairs(bands, id_col)
    if pairs is None:
        return None

    if isinstance(pairs, pd.DataFrame):
        wanted = set(pairs["id_a"]) | set(pairs["id_b"])
        if len(wanted) > FETCH_DRIVER_MAX:
            import ray.data as rd

            pairs = rd.from_arrow(pa.Table.from_pandas(
                pairs, preserve_index=False))
        else:
            sigdf = _fetch_for_ids(sigs, id_col, wanted) \
                .drop_duplicates(id_col)
            vals = sigdf["simhash"].to_numpy().astype(np.uint64)
            pos = pd.Series(np.arange(len(sigdf)), index=sigdf[id_col])
            a = vals[pos[pairs["id_a"]].to_numpy()]
            b = vals[pos[pairs["id_b"]].to_numpy()]
            out = pairs.copy()
            out["hamming"] = _popcount64_np(
                np.bitwise_xor(a, b)).astype(np.int64)
            return out[out["hamming"] <= max_hamming]

    sig_side = _unique_by_id(sigs.select_columns([id_col, "simhash"]),
                             id_col).materialize()
    with_a = _attach_pair_columns(pairs, sig_side, id_col, "id_a",
                                  {"simhash": "sim_a"})
    with_ab = _attach_pair_columns(with_a, sig_side, id_col, "id_b",
                                   {"simhash": "sim_b"})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_pairs_table("hamming", pa.int64())
        a = pc.cast(t["sim_a"], pa.uint64()).to_numpy(zero_copy_only=False)
        b = pc.cast(t["sim_b"], pa.uint64()).to_numpy(zero_copy_only=False)
        ham = _popcount64_np(np.bitwise_xor(a, b))
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "hamming": pa.array(ham.astype(np.int64))})
        return out.filter(pc.less_equal(out["hamming"], max_hamming))

    return with_ab.map_batches(verify, batch_format="pyarrow")


def simhash_pairs_ds(ds: "ray.data.Dataset", text_col: str = "text",
                     id_col: str = "doc_id",
                     max_hamming: int = 3) -> "ray.data.Dataset":
    """Verified SimHash pairs as a DATASET (id_a, id_b, hamming) — the scale
    contract (see minhash_lsh_pairs_ds)."""
    return _plan_to_ds(
        _simhash_pairs_plan(ds, text_col, id_col, max_hamming),
        "hamming", pa.int64())


def simhash_pairs(ds: "ray.data.Dataset", text_col: str = "text",
                  id_col: str = "doc_id", max_hamming: int = 3) -> pd.DataFrame:
    """Driver-bounded convenience over :func:`simhash_pairs_ds` (sorted
    DataFrame; scale callers use the _ds variant + write_parquet)."""
    return _plan_to_pandas(
        _simhash_pairs_plan(ds, text_col, id_col, max_hamming), "hamming")


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard verification (for candidate pairs)
# ---------------------------------------------------------------------------


def ngram_set(text: str, n: int = 3) -> set:
    toks = text.split()
    if len(toks) < n:
        return {tuple(toks)} if toks else set()
    return {tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)}


def ngram_jaccard(a: str, b: str, n: int = 3) -> float:
    sa, sb = ngram_set(a, n), ngram_set(b, n)
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


def _ngram_pairs_plan(ds: "ray.data.Dataset", candidate_pairs,
                      text_col: str, id_col: str, n: int, threshold: float):
    """Exact word-n-gram Jaccard over an LSH candidate set. Texts are
    co-located per pair via two hash_joins (each endpoint's text crosses the
    wire once) — never a driver-side id→text dict."""
    import ray.data as rd

    texts = ds.select_columns([id_col, text_col])

    if isinstance(candidate_pairs, pd.DataFrame):
        if len(candidate_pairs) == 0:
            return None
        if len(candidate_pairs) <= VERIFY_DRIVER_MAX:
            # candidate-bounded driver plan (streaming semi-join fetch)
            pairs = candidate_pairs[["id_a", "id_b"]].reset_index(drop=True)
            wanted = set(pairs["id_a"]) | set(pairs["id_b"])
            tdf = _fetch_for_ids(texts, id_col, wanted)
            lookup = dict(zip(tdf[id_col], tdf[text_col]))
            out = pairs.copy()
            out["jaccard"] = [
                ngram_jaccard(lookup.get(a, ""), lookup.get(b, ""), n)
                for a, b in zip(pairs["id_a"], pairs["id_b"])
            ]
            return out[out["jaccard"] >= threshold]
        candidate_pairs = rd.from_arrow(pa.Table.from_pandas(
            candidate_pairs[["id_a", "id_b"]], preserve_index=False))
    else:
        # materialize before the schema peek — on a lazy external Dataset
        # schema() would execute the pipeline once and the join again
        candidate_pairs = candidate_pairs.materialize()
        if set(candidate_pairs.schema().names) - {"id_a", "id_b"}:
            candidate_pairs = candidate_pairs.select_columns(
                ["id_a", "id_b"])

    texts = _unique_by_id(texts, id_col).materialize()
    with_a = _attach_pair_columns(candidate_pairs, texts, id_col, "id_a",
                                  {text_col: "text_a"})
    with_ab = _attach_pair_columns(with_a, texts, id_col, "id_b",
                                   {text_col: "text_b"})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_pairs_table("jaccard", pa.float64())
        jac = [
            ngram_jaccard(a or "", b or "", n)
            for a, b in zip(t["text_a"].to_pylist(), t["text_b"].to_pylist())
        ]
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "jaccard": pa.array(jac, type=pa.float64())})
        return out.filter(pc.greater_equal(out["jaccard"], threshold))

    return with_ab.map_batches(verify, batch_format="pyarrow")


def ngram_jaccard_pairs_ds(ds: "ray.data.Dataset", candidate_pairs,
                           text_col: str = "text", id_col: str = "doc_id",
                           n: int = 3,
                           threshold: float = 0.8) -> "ray.data.Dataset":
    """Jaccard-verified pairs as a DATASET (id_a, id_b, jaccard) — the scale
    contract (see minhash_lsh_pairs_ds). ``candidate_pairs`` may itself be a
    Dataset (e.g. minhash_lsh_pairs_ds output), keeping the whole chain
    driver-free."""
    return _plan_to_ds(
        _ngram_pairs_plan(ds, candidate_pairs, text_col, id_col, n, threshold),
        "jaccard", pa.float64())


def ngram_jaccard_pairs(ds: "ray.data.Dataset", candidate_pairs,
                        text_col: str = "text", id_col: str = "doc_id",
                        n: int = 3, threshold: float = 0.8) -> pd.DataFrame:
    """Driver-bounded convenience over :func:`ngram_jaccard_pairs_ds`
    (sorted DataFrame; scale callers use the _ds variant + write_parquet)."""
    out = _plan_to_pandas(
        _ngram_pairs_plan(ds, candidate_pairs, text_col, id_col, n, threshold),
        "jaccard")
    return out[["id_a", "id_b", "jaccard"]]


# ---------------------------------------------------------------------------
# Benchmark decontamination: flag corpus documents that contain any snippet
# of a (small) evaluation/benchmark set — the standard pre-training hygiene
# pass (e.g. GPT-3 §C / PaLM-style 13-gram overlap, here as exact substring
# containment so the oracle is a correlated EXISTS).
# ---------------------------------------------------------------------------

_CONTAM_CHUNK = 512  # snippets per compiled alternation (bounds RE2 size)


def mark_contaminated(ds: "ray.data.Dataset", snippets: list[str],
                      text_col: str = "text", id_col: str = "doc_id",
                      out_col: str = "contaminated") -> "ray.data.Dataset":
    """Add ``out_col`` (int64 0/1): 1 iff the document contains ANY snippet
    as a substring.

    Plan: the benchmark side is SMALL by contract (it is an eval set, not a
    corpus) — its snippets compile into escaped RE2 alternations of at most
    _CONTAM_CHUNK literals each, and the corpus streams through ONE
    vectorized ``pc.match_substring_regex`` pass per chunk (RE2 builds a
    single DFA per alternation; a per-snippet scan would be m passes).
    The pattern strings ride the task closure (a few KiB); no shuffle, no
    driver materialization of the corpus."""
    import re as _re

    snips = [s for s in snippets if s]
    patterns = [
        "|".join(_re.escape(s) for s in snips[i:i + _CONTAM_CHUNK])
        for i in range(0, len(snips), _CONTAM_CHUNK)
    ]

    def flag(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or not patterns:
            hit = pa.array(np.zeros(t.num_rows, dtype=bool))
        else:
            acc = np.zeros(t.num_rows, dtype=bool)
            for p in patterns:
                m = pc.match_substring_regex(t[text_col], p)
                acc |= pc.fill_null(m, False).combine_chunks() \
                    .to_numpy(zero_copy_only=False)
            hit = pa.array(acc)
        return pa.table({
            id_col: t[id_col],
            out_col: pc.cast(hit, pa.int64()),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


CROSS_TAG = 1 << 40  # id offset tagging the benchmark side in cross pairs


def minhash_cross_pairs_ds(corpus: "ray.data.Dataset",
                           bench: "ray.data.Dataset",
                           text_col: str = "text", id_col: str = "doc_id",
                           threshold: float = 0.7,
                           num_bands: int = NUM_BANDS
                           ) -> "ray.data.Dataset":
    """Fuzzy cross-corpus decontamination — near-dup pairs BETWEEN two
    corpora (training docs vs benchmark items): the MinHash complement of
    the exact-snippet pass (mark_contaminated), catching paraphrased /
    lightly-edited benchmark leakage.

    Plan: tag benchmark ids by CROSS_TAG (ids must be < 2^40 — asserted
    map-side), union the two narrow (id, text) streams, run the standard
    LSH pairs plan once over the union, and keep only pairs whose sides
    differ — same-side dups are the intra-corpus dedup problem, not
    contamination. Output Dataset: (doc_id, bench_id, similarity),
    streaming like :func:`minhash_lsh_pairs_ds`.
    """
    def tag(offset: int):
        def f(t: pa.Table) -> pa.Table:
            ids = pc.cast(t[id_col], pa.int64())
            if len(ids) and (pc.max(ids).as_py() >= CROSS_TAG
                             or pc.min(ids).as_py() < 0):
                raise ValueError(
                    "ids must be in [0, 2^40) for cross tagging")
            return pa.table({id_col: pc.add(ids, offset),
                             text_col: t[text_col]})
        return f

    union = corpus.map_batches(tag(0), batch_format="pyarrow").union(
        bench.map_batches(tag(CROSS_TAG), batch_format="pyarrow"))
    pairs = _plan_to_ds(
        _minhash_pairs_plan(union, text_col, id_col, threshold, num_bands),
        "similarity", pa.float64())

    def cross_only(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False)
        b = t["id_b"].to_numpy(zero_copy_only=False)
        a_tag, b_tag = a >= CROSS_TAG, b >= CROSS_TAG
        keep = a_tag != b_tag
        a, b = a[keep], b[keep]
        doc = np.where(a < CROSS_TAG, a, b)
        ben = np.where(a >= CROSS_TAG, a, b) - CROSS_TAG
        return pa.table({"doc_id": doc.astype(np.int64),
                         "bench_id": ben.astype(np.int64),
                         "similarity": t["similarity"].to_numpy(
                             zero_copy_only=False)[keep]})

    return pairs.map_batches(cross_only, batch_format="pyarrow")


def select_cluster_representatives(
        docs: "ray.data.Dataset", edges: "ray.data.Dataset",
        id_col: str = "doc_id", score_col: str = "score",
        src: str = "src", dst: str = "dst") -> "ray.data.Dataset":
    """Keep-BEST near-dup policy: per connected component of the candidate
    pair graph keep the row with the HIGHEST integer quality score (ties →
    lowest id) — the representative-selection step a corpus pipeline runs
    after MinHash/SemDeDup mining when "first occurrence" is the wrong
    keeper (D4 / RefinedWeb keep the best-quality member, not the
    earliest). Docs untouched by any edge are their own cluster and
    survive unconditionally.

    Plan — zero per-cluster Python (the dedup_paragraphs composite-key
    discipline): :func:`engine.graph.connected_components` labels the pair
    graph; labels LEFT-hash_join onto the narrow (id, score) projection
    (cluster = coalesce(component, id)); winner-per-cluster is ONE
    ``groupby(cluster).Max(k)`` over the composite
    ``k = score * 2^33 + (2^33 - 1 - id)`` with a per-block Acero max
    pre-agg before the wire, and the winning key DECODES to (score, id)
    with no join back. Bounds guarded: 0 <= score < 2^30, 0 <= id < 2^33.
    Output: one (cluster, id_col, score_col) row per cluster.

    SQL twin: QUALIFY row_number() OVER (PARTITION BY cluster
    ORDER BY score DESC, id) = 1.
    """
    from ray.data.aggregate import Max as RayMax

    from engine.graph import connected_components
    from engine.joins import hash_join

    _ID_SPAN = 1 << 33

    labels = connected_components(edges, src=src, dst=dst) \
        .map_batches(
            lambda t: pa.table({id_col: t["node"],
                                "cluster": t["component"]}),
            batch_format="pyarrow") \
        .materialize()  # hash_join reads schemas up front (CLAUDE.md)

    scored = docs.map_batches(lambda t: t.select([id_col, score_col]),
                              batch_format="pyarrow")
    joined = hash_join(scored, labels, on=id_col, how="left")

    def keyed(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sc = t[score_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids):
            if ids.max() >= _ID_SPAN or ids.min() < 0:
                raise ValueError(
                    "ids must be in [0, 2^33) for representative selection")
            if sc.max() >= (1 << 30) or sc.min() < 0:
                raise ValueError(
                    "scores must be in [0, 2^30) for representative "
                    "selection")
        cluster = pc.coalesce(t["cluster"],
                              pc.cast(t[id_col], pa.int64()))
        k = sc * _ID_SPAN + (_ID_SPAN - 1 - ids)
        local = pa.table({"cluster": cluster, "k": k}) \
            .group_by(["cluster"]).aggregate([("k", "max")])
        return local.rename_columns(["cluster", "k"])

    winners = joined.map_batches(keyed, batch_format="pyarrow") \
        .groupby("cluster").aggregate(RayMax("k", alias_name="k"))

    def decode(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "cluster": t["cluster"],
            id_col: (_ID_SPAN - 1 - (k % _ID_SPAN)).astype(np.int64),
            score_col: (k // _ID_SPAN).astype(np.int64)})

    return winners.map_batches(decode, batch_format="pyarrow")
