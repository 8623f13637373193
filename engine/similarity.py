"""Similarity search over an embedding column (scale addition).

Brute-force cosine top-k is the exactness baseline: the query matrix is
broadcast ONCE via ray.put and each batch does one numpy matmul against it —
per-batch work is a (batch × dim) @ (dim × q) GEMM, the canonical Ray Data
pattern for embedding scoring. The scale path is LSH bucketing (random
hyperplane signatures) so each query only scans its bucket neighborhood.

Determinism: ties broken by ascending vec_id everywhere.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data


def _to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """list<float> column → float64 matrix.

    Fast path: flatten the Arrow list values buffer straight into numpy
    (one vectorized copy) when the lists are null-free and uniform-length —
    the embedding-column norm. to_pylist() boxed every float through a
    Python object (6.4M boxes per 100k×64 full scan) and was the hidden
    constant of every ANN batch. Ragged/null columns fall back."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count == 0 and pa.types.is_list(col.type):
        lens = pc.unique(pc.list_value_length(col))
        if len(lens) == 1:
            dim = lens[0].as_py()
            flat = col.flatten().to_numpy(zero_copy_only=False)
            return np.ascontiguousarray(flat, dtype=np.float64) \
                .reshape(len(col), dim)
    return np.asarray(col.to_pylist(), dtype=np.float64)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return m / norms


def knn_brute(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
              id_col: str = "vec_id", vec_col: str = "embedding",
              query_ids: list | None = None) -> pd.DataFrame:
    """Exact cosine top-k: per-batch local top-k, driver-side merge of the
    (num_queries × k)-sized partials. Returns (query_id, rank, vec_id, cosine).
    """
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qm)
    if query_ids is None:
        query_ids = list(range(len(qm)))

    def local_topk(t: pa.Table) -> pa.Table:
        from engine.broadcast import get_broadcast

        q = get_broadcast(q_ref)  # one plasma fetch per worker process
        vecs = _normalize(_to_matrix(t[vec_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        cos = vecs @ q.T  # (batch, q)
        kk = min(k, len(ids))
        out_q, out_id, out_cos = [], [], []
        for qi in range(cos.shape[1]):
            col = cos[:, qi]
            # top-k by (-cosine, vec_id): lexsort for deterministic ties
            order = np.lexsort((ids, -col))[:kk]
            out_q.extend([qi] * len(order))
            out_id.extend(ids[order].tolist())
            out_cos.extend(col[order].tolist())
        return pa.table({
            "qi": pa.array(out_q, type=pa.int32()),
            id_col: pa.array(out_id),
            "cosine": pa.array(out_cos, type=pa.float64()),
        })

    partials = ds.map_batches(
        local_topk, batch_format="pyarrow", batch_size=4096
    ).to_pandas()

    # vectorized merge of the O(blocks*k*queries) partials: one lexsort by
    # (qi, -cosine, id), head-k per query via cumcount — no Python row loop
    order = np.lexsort((partials[id_col].to_numpy(),
                        -partials["cosine"].to_numpy(),
                        partials["qi"].to_numpy()))
    top = partials.iloc[order]
    rank = top.groupby("qi", sort=False).cumcount() + 1
    keep = rank <= k
    top, rank = top[keep], rank[keep]
    out = pd.DataFrame({
        "query_id": np.asarray(query_ids)[top["qi"].to_numpy()],
        "rank": rank.to_numpy(),
        "vec_id": top[id_col].to_numpy().astype(np.int64),
        "cosine": top["cosine"].to_numpy().astype(np.float64),
    })
    return out.sort_values(["query_id", "rank"]).reset_index(drop=True)


# ---------------------------------------------------------------------------
# LSH-bucketed ANN (the scale path)
# ---------------------------------------------------------------------------

NUM_PLANES = 8  # 2^8 = 256 buckets (query-probing default)
MAX_BUCKET_EMB = 256  # cap on vectors all-paired within one near-dup bucket


def _hyperplanes(dim: int, seed: int = 42,
                 num_planes: int = NUM_PLANES) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.normal(size=(num_planes, dim))


def lsh_bucket_of(vecs: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (vecs @ planes.T) > 0
    weights = np.left_shift(np.uint64(1),
                            np.arange(planes.shape[0], dtype=np.uint64))
    return (bits * weights).sum(axis=1).astype(np.int64)


def knn_lsh(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
            id_col: str = "vec_id", vec_col: str = "embedding",
            query_ids: list | None = None, probe_hamming: int = 1,
            dim: int | None = None) -> pd.DataFrame:
    """Approximate top-k: scan only rows whose hyperplane signature is within
    ``probe_hamming`` of the query's (multi-probe). Same output schema as
    knn_brute; recall < 1 by design — the bench compares recall vs brute."""
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    if dim is None:
        dim = qm.shape[1]
    planes = _hyperplanes(dim)
    q_buckets = lsh_bucket_of(qm, planes)

    # probe set: all buckets within hamming distance of any query bucket
    probe: set[int] = set()
    for b in q_buckets.tolist():
        probe.add(b)
        if probe_hamming >= 1:
            for i in range(NUM_PLANES):
                probe.add(b ^ (1 << i))
    probe_arr = np.sort(np.fromiter(probe, dtype=np.int64, count=len(probe)))
    probe_ref = ray.put((probe_arr, planes))

    def bucket_filter(t: pa.Table) -> pa.Table:
        from engine.broadcast import get_broadcast

        probe_set, pl = get_broadcast(probe_ref)
        vecs = _normalize(_to_matrix(t[vec_col]))
        buckets = lsh_bucket_of(vecs, pl)
        # vectorized membership — this runs inside a full-corpus scan
        return t.filter(pa.array(np.isin(buckets, probe_set)))

    candidates = ds.map_batches(bucket_filter, batch_format="pyarrow",
                                batch_size=4096)
    return knn_brute(candidates, queries, k, id_col, vec_col, query_ids)


def train_ivf_centroids(ds: "ray.data.Dataset", num_cells: int = 16,
                        sample_size: int = 2048, iters: int = 8,
                        vec_col: str = "embedding", seed: int = 42) -> np.ndarray:
    """IVF coarse quantizer: k-means (Lloyd, seeded, fixed iterations) on a
    driver-side sample. The sample is small by design — training is O(sample),
    not O(corpus); assignment is distributed."""
    frac = None
    total = ds.count()
    frac = min(1.0, sample_size / max(1, total))
    sample = ds.random_sample(frac, seed=seed).take(sample_size)
    vecs = _normalize(np.asarray([r[vec_col] for r in sample], dtype=np.float64))
    rng = np.random.RandomState(seed)
    centroids = vecs[rng.choice(len(vecs), size=min(num_cells, len(vecs)),
                                replace=False)]
    for _ in range(iters):
        assign = (vecs @ centroids.T).argmax(axis=1)
        for c in range(len(centroids)):
            members = vecs[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        centroids = _normalize(centroids)
    return centroids


def train_ivf_centroids_full(ds: "ray.data.Dataset", num_cells: int = 16,
                             iters: int = 8, vec_col: str = "embedding",
                             seed: int = 42, dim: int | None = None,
                             ) -> np.ndarray:
    """FULL-CORPUS IVF training via distributed Lloyd
    (engine.cluster.kmeans_iterate): the scale path of
    train_ivf_centroids' driver-side sample when the corpus is too skewed
    for a 2k-row sample to see every mode — each iteration is one
    streaming pass, only k*d partial-sum rows cross the wire. Init is the
    data-independent spherical codebook (seeded), so training is
    reproducible without a sampling pass; pass ``dim`` (e.g. from parquet
    metadata) to skip the schema probe."""
    from engine.cluster import kmeans_iterate

    if dim is None:
        dim = len(ds.take(1)[0][vec_col])
    init = fixed_codebook(dim, num_cells, seed=seed)
    cents, _ = kmeans_iterate(ds, init, vec_col=vec_col, iters=iters,
                              tol=1e-9, spherical=True)
    return cents


def fixed_codebook(dim: int, num_cells: int = 16, seed: int = 7) -> np.ndarray:
    """Data-INdependent spherical codebook (normalized seeded Gaussian rows)
    — a random-projection quantizer usable as IVF centroids. Slightly worse
    cell balance than k-means, but reproducible without seeing the data,
    which makes the IVF pipeline SQL-oracle-checkable (the knn_lsh
    literal-plane trick); k-means training (train_ivf_centroids) remains
    the default quality path."""
    rng = np.random.RandomState(seed)
    return _normalize(rng.normal(size=(num_cells, dim)))


def knn_ivf(ds: "ray.data.Dataset", queries: np.ndarray, k: int = 10,
            id_col: str = "vec_id", vec_col: str = "embedding",
            query_ids: list | None = None, num_cells: int = 16,
            nprobe: int = 4, centroids: np.ndarray | None = None) -> pd.DataFrame:
    """IVF ANN: scan only rows whose nearest centroid is among each query's
    ``nprobe`` closest cells. Same output schema as knn_brute; recall < 1 by
    design (rises with nprobe). Centroids may be precomputed/broadcast."""
    if centroids is None:
        centroids = train_ivf_centroids(ds, num_cells, vec_col=vec_col)
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    q_cells = np.argsort(-(qm @ centroids.T), axis=1)[:, :nprobe]
    probe = np.unique(q_cells.ravel()).astype(np.int64)
    cell_ref = ray.put((centroids, probe))

    def cell_filter(t: pa.Table) -> pa.Table:
        from engine.broadcast import get_broadcast

        cents, probe_set = get_broadcast(cell_ref)
        vecs = _normalize(_to_matrix(t[vec_col]))
        cells = (vecs @ cents.T).argmax(axis=1)
        # vectorized membership — this runs inside a full-corpus scan
        return t.filter(pa.array(np.isin(cells, probe_set)))

    candidates = ds.map_batches(cell_filter, batch_format="pyarrow",
                                batch_size=4096)
    return knn_brute(candidates, queries, k, id_col, vec_col, query_ids)


def build_ivf_index(ds: "ray.data.Dataset", out_dir: str,
                    num_cells: int = 16, id_col: str = "vec_id",
                    vec_col: str = "embedding", seed: int = 42) -> np.ndarray:
    """Persist the embedding table partitioned by IVF cell (one ``cell=N/``
    parquet directory per coarse cell + the centroid matrix), so queries read
    ONLY their probed cells from storage — the read-side prune that turns IVF
    from a compute-side filter (knn_ivf scans all bytes) into an actual I/O
    reduction at 100 TB. Returns the trained centroids."""
    import os

    centroids = train_ivf_centroids(ds, num_cells, vec_col=vec_col, seed=seed)
    cent_ref = ray.put(centroids)

    def assign(t: pa.Table) -> pa.Table:
        from engine.broadcast import get_broadcast

        c = get_broadcast(cent_ref)
        vecs = _normalize(_to_matrix(t[vec_col]))
        cells = (vecs @ c.T).argmax(axis=1).astype(np.int32)
        return t.append_column("cell", pa.array(cells))

    ds.map_batches(assign, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["cell"])
    np.save(os.path.join(out_dir, "_centroids.npy"), centroids)
    return centroids


def knn_ivf_indexed(index_dir: str, queries: np.ndarray, k: int = 10,
                    id_col: str = "vec_id", vec_col: str = "embedding",
                    query_ids: list | None = None,
                    nprobe: int = 4) -> pd.DataFrame:
    """ANN over a build_ivf_index directory: reads ONLY the ``cell=N/``
    partitions the queries probe (storage-level prune; the non-probed cells'
    bytes never leave disk), then exact top-k within the candidate union.
    Same output schema as knn_brute."""
    import os

    import ray.data as rd

    centroids = np.load(os.path.join(index_dir, "_centroids.npy"))
    qm = _normalize(np.asarray(queries, dtype=np.float64))
    q_cells = np.argsort(-(qm @ centroids.T), axis=1)[:, :nprobe]
    probe = sorted({int(c) for row in q_cells for c in row})
    paths = [
        os.path.join(index_dir, f"cell={c}", name)
        for c in probe
        if os.path.isdir(os.path.join(index_dir, f"cell={c}"))
        for name in sorted(os.listdir(os.path.join(index_dir, f"cell={c}")))
        if name.endswith(".parquet")
    ]
    if not paths:  # every probed cell is empty on disk → no candidates
        return pd.DataFrame({"query_id": [], "rank": [], "vec_id": [],
                             "cosine": []})
    candidates = rd.read_parquet(paths, columns=[id_col, vec_col])
    return knn_brute(candidates, queries, k, id_col, vec_col, query_ids)


def _f64_rows_to_binary(mat: np.ndarray) -> pa.Array:
    """(n, dim) float64 matrix → binary column (dim*8 bytes/row, one memcpy)
    — Acero hash joins reject list-typed payloads, binary they accept (same
    trick as engine.dedup._list_u64_to_binary)."""
    n, dim = mat.shape
    data = pa.py_buffer(np.ascontiguousarray(mat).tobytes())
    offsets = pa.py_buffer(
        (np.arange(n + 1, dtype=np.int32) * (dim * 8)).tobytes())
    return pa.Array.from_buffers(pa.binary(), n, [None, offsets, data])


def _binary_to_f64_matrix(col: pa.ChunkedArray | pa.Array,
                          dim: int) -> np.ndarray:
    vals = col.to_pylist()
    if not vals:
        return np.empty((0, dim), dtype=np.float64)
    return np.frombuffer(b"".join(vals), dtype=np.float64).reshape(-1, dim)


def _embedding_pairs_plan(ds: "ray.data.Dataset", threshold: float,
                          id_col: str, vec_col: str,
                          num_planes: int | None, max_bucket: int,
                          n: int | None = None, dim: int | None = None):
    """Verified embedding near-dup pairs, same plan machinery as
    engine.dedup: NARROW (bucket, id) rows → aggregate candidate discovery
    (zero per-bucket Python for size-2 buckets — the dominant case) →
    cosine verification on co-located vector pairs. Returns None / bounded
    DataFrame / fully-distributed Dataset.

    ``n``/``dim`` hints skip the count()/take(1) pre-passes — each is a
    full pipeline execution when ``ds`` carries transforms; callers that
    know the corpus size (parquet metadata) should pass them."""
    import ray.data as rd

    from engine.dedup import (FETCH_DRIVER_MAX, _attach_pair_columns,
                              _candidate_pairs, _fetch_for_ids)

    if n is None:
        n = ds.count()
    if n == 0:
        return None
    if dim is None:
        first = ds.take(1)
        if not first:
            return None
        dim = len(first[0][vec_col])
    if num_planes is None:
        num_planes = max(NUM_PLANES,
                         int(np.ceil(np.log2(max(2.0, n / 64.0)))))
    planes = _hyperplanes(dim, num_planes=num_planes)
    planes_ref = ray.put(planes)

    def bucket_rows(t: pa.Table) -> pa.Table:
        from engine.broadcast import get_broadcast

        pl = get_broadcast(planes_ref)
        vecs = _normalize(_to_matrix(t[vec_col]))
        buckets = lsh_bucket_of(vecs, pl)
        return pa.table({"bucket": pa.array(buckets, type=pa.int64()),
                         id_col: t[id_col]})

    rows = ds.map_batches(bucket_rows, batch_format="pyarrow")
    pairs = _candidate_pairs(rows, id_col, key_col="bucket",
                             max_bucket=max_bucket)
    if pairs is None:
        return None

    if isinstance(pairs, pd.DataFrame):
        wanted = set(pairs["id_a"]) | set(pairs["id_b"])
        if len(wanted) <= FETCH_DRIVER_MAX:
            # candidate-bounded driver plan: streaming semi-join fetch of the
            # endpoint vectors, one vectorized row-wise dot
            vdf = _fetch_for_ids(ds.select_columns([id_col, vec_col]),
                                 id_col, wanted).drop_duplicates(id_col)
            mat = _normalize(np.asarray(vdf[vec_col].tolist(),
                                        dtype=np.float64))
            pos = pd.Series(np.arange(len(vdf)), index=vdf[id_col])
            a = mat[pos[pairs["id_a"]].to_numpy()]
            b = mat[pos[pairs["id_b"]].to_numpy()]
            out = pairs.copy()
            out["cosine"] = (a * b).sum(axis=1)
            return out[out["cosine"] >= threshold]
        pairs = rd.from_arrow(pa.Table.from_pandas(
            pairs, preserve_index=False))

    # distributed join plan: pre-normalized vectors ride the pair join as
    # binary blobs (once per endpoint), cosine is a per-batch row-wise dot
    from engine.dedup import _unique_by_id

    vecs_bin = _unique_by_id(ds.map_batches(
        lambda t: pa.table({
            id_col: t[id_col],
            "vec": _f64_rows_to_binary(_normalize(_to_matrix(t[vec_col]))),
        }),
        batch_format="pyarrow",
    ), id_col).materialize()
    with_a = _attach_pair_columns(pairs, vecs_bin, id_col, "id_a",
                                  {"vec": "vec_a"})
    with_ab = _attach_pair_columns(with_a, vecs_bin, id_col, "id_b",
                                   {"vec": "vec_b"})

    def verify(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"id_a": pa.array([], type=pa.int64()),
                             "id_b": pa.array([], type=pa.int64()),
                             "cosine": pa.array([], type=pa.float64())})
        a = _binary_to_f64_matrix(t["vec_a"], dim)
        b = _binary_to_f64_matrix(t["vec_b"], dim)
        cos = (a * b).sum(axis=1)
        out = pa.table({"id_a": t["id_a"], "id_b": t["id_b"],
                        "cosine": pa.array(cos, type=pa.float64())})
        import pyarrow.compute as pc

        return out.filter(pc.greater_equal(out["cosine"], threshold))

    return with_ab.map_batches(verify, batch_format="pyarrow")


def embedding_near_dup_pairs_ds(ds: "ray.data.Dataset",
                                threshold: float = 0.95,
                                id_col: str = "vec_id",
                                vec_col: str = "embedding",
                                num_planes: int | None = None,
                                max_bucket: int = MAX_BUCKET_EMB,
                                n: int | None = None,
                                dim: int | None = None
                                ) -> "ray.data.Dataset":
    """Verified near-dup pairs as a DATASET (id_a, id_b, cosine) — the
    write_parquet-able scale contract (see engine.dedup)."""
    from engine.dedup import _plan_to_ds

    return _plan_to_ds(
        _embedding_pairs_plan(ds, threshold, id_col, vec_col, num_planes,
                              max_bucket, n, dim),
        "cosine", pa.float64())


def embedding_near_dup_pairs(ds: "ray.data.Dataset", threshold: float = 0.95,
                             id_col: str = "vec_id",
                             vec_col: str = "embedding",
                             num_planes: int | None = None,
                             max_bucket: int = MAX_BUCKET_EMB,
                             n: int | None = None,
                             dim: int | None = None) -> pd.DataFrame:
    """Embedding-cosine near-dup: bucket by LSH signature, compare within
    buckets only, keep pairs with cosine >= threshold.

    Candidate discovery is engine.dedup's aggregate pattern: size-2 buckets
    (the dominant case at the ~64-expected-population default) yield their
    pair straight from a Count/Min/Max groupby with ZERO per-bucket Python
    calls; only rare hot buckets take a bounded self-merge — the old
    ``groupby(bucket).map_groups`` paid one Python call per bucket with
    bucket count scaled to n/64.

    Scale guards: ``num_planes`` defaults to log2(corpus / 64) (≥8), keeping
    the EXPECTED bucket population ~64 as the corpus grows; a degenerate
    bucket (near-dup-heavy or all-zero vectors) is capped at ``max_bucket``
    members (keep-lowest-id, same policy as engine.dedup.MAX_BUCKET) before
    the O(k²) pair expansion. This convenience wrapper collects a sorted
    DataFrame; scale callers use :func:`embedding_near_dup_pairs_ds`.
    """
    from engine.dedup import _plan_to_pandas

    return _plan_to_pandas(
        _embedding_pairs_plan(ds, threshold, id_col, vec_col, num_planes,
                              max_bucket, n, dim),
        "cosine")


# ---------------------------------------------------------------------------
# SemDeDup — semantic dedup inside k-means cells (Abbas et al. 2023,
# arXiv:2303.09540): cluster with k-means, compare pairwise cosine only
# WITHIN a cell, greedily drop near-duplicates of already-kept docs.
# ---------------------------------------------------------------------------

SEMDEDUP_CHUNK = 1024  # greedy matmul tile (kept x chunk), bounds peak mem


def _greedy_dups(ids: np.ndarray, V: np.ndarray, tau: float,
                 chunk: int | None = None):
    """Greedy-by-ascending-id semantic dedup of one cell.

    A doc is DROPPED iff some already-KEPT doc (lower id) has cosine >=
    tau with it; its keeper is the lowest-id such doc. Deliberately NOT
    transitive closure (SemDeDup semantics): in a chain a~b, b~c, a!~c,
    b drops against a but c survives — pinned by test.

    V must be unit-normalized. Vectorized in (kept x chunk) tiles; the
    per-row Python step only indexes precomputed similarity tiles.
    """
    if chunk is None:
        chunk = SEMDEDUP_CHUNK  # read at call time so tests can override
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    V = V[order]
    kept_rows: list[int] = []  # global row indices, ascending id
    dup_ids: list[int] = []
    keeper_ids: list[int] = []
    n = len(ids)
    for s in range(0, n, chunk):
        e = min(s + chunk, n)
        C = V[s:e]
        prev = (V[kept_rows] @ C.T) if kept_rows else None  # (K, c)
        inner = C @ C.T
        base_kept = len(kept_rows)
        for j in range(e - s):
            keeper_row = -1
            if prev is not None:
                hits = np.nonzero(prev[:, j] >= tau)[0]
                if hits.size:
                    keeper_row = kept_rows[int(hits[0])]
            if keeper_row < 0 and len(kept_rows) > base_kept:
                local = np.asarray(kept_rows[base_kept:],
                                   dtype=np.int64) - s
                hits = np.nonzero(inner[local, j] >= tau)[0]
                if hits.size:
                    keeper_row = kept_rows[base_kept + int(hits[0])]
            if keeper_row >= 0:
                dup_ids.append(int(ids[s + j]))
                keeper_ids.append(int(ids[keeper_row]))
            else:
                kept_rows.append(s + j)
    return dup_ids, keeper_ids


def semdedup(ds: "ray.data.Dataset", centroids: np.ndarray,
             threshold: float = 0.9, id_col: str = "doc_id",
             vec_col: str = "embedding",
             chunk: int | None = None) -> "ray.data.Dataset":
    """SemDeDup over a corpus with an embedding column: returns the
    (cluster, dup_id, keeper_id) rows — every doc NOT listed is kept.

    100 TB shape: centroids broadcast once (``ray.put``); assignment +
    unit-normalization are one streaming map_batches pass emitting only
    (cluster, id, vec-as-binary) — vectors ride the ONE cell exchange as
    binary blobs (Acero/list caveat, CLAUDE.md). Cells are co-located by
    ``bucketed_map_groups`` (Python-call count capped at the exchange
    width, not cell count); pairwise work is O(sum cell_size^2) by
    construction — the whole point of clustering first — tiled in
    SEMDEDUP_CHUNK blocks.
    Partitioning assumption: one bucket's cells fit a worker heap; size
    k (number of centroids) so cells stay bounded, exactly as the paper
    prescribes (k grows with corpus).
    """
    from engine.broadcast import get_broadcast
    from engine.cluster import _assign
    from engine.joins import bucketed_map_groups

    cents = np.ascontiguousarray(np.asarray(centroids, dtype=np.float64))
    dim = cents.shape[1]
    ref = ray.put(cents)

    def prep(t: pa.Table) -> pa.Table:
        c = get_broadcast(ref)
        V = _to_matrix(t[vec_col])
        a = (_assign(V, c) if len(V) else np.array([], dtype=np.int64))
        return pa.table({
            "cluster": pa.array(a.astype(np.int64)),
            id_col: pc.cast(t[id_col], pa.int64()),
            "__vec": _f64_rows_to_binary(_normalize(V)),
        })

    def cell_dedup(g: pa.Table) -> pa.Table:
        out_c: list[int] = []
        out_d: list[int] = []
        out_k: list[int] = []
        for cl in pc.unique(g["cluster"]).to_pylist():
            sub = g.filter(pc.equal(g["cluster"], cl))
            ids = np.asarray(sub[id_col].to_numpy(zero_copy_only=False),
                             dtype=np.int64)
            V = _binary_to_f64_matrix(sub["__vec"], dim)
            d, k = _greedy_dups(ids, V, threshold, chunk)
            out_c.extend([int(cl)] * len(d))
            out_d.extend(d)
            out_k.extend(k)
        return pa.table({
            "cluster": pa.array(out_c, type=pa.int64()),
            "dup_id": pa.array(out_d, type=pa.int64()),
            "keeper_id": pa.array(out_k, type=pa.int64()),
        })

    prepped = ds.map_batches(prep, batch_format="pyarrow")
    return bucketed_map_groups(prepped, "cluster", cell_dedup,
                               batch_format="pyarrow")
