"""Round-4b operator tests: corpus mixing, sketch-threshold filter,
snapshot delta, integer PageRank."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

import ray.data as rd

from engine.graph import pagerank_int
from engine.joins import snapshot_delta
from engine.partition import mix_corpora
from engine.stats import filter_by_quantile


def _ids_ds(ids, col="doc_id", parts=1):
    ds = rd.from_arrow(pa.table({col: pa.array(ids, type=pa.int64())}))
    return ds.repartition(parts) if parts > 1 else ds


# ---------------------------------------------------------------- mixing

def _mix_ref(ids_by_source, rates, salt="mix"):
    """Driver reference of the mix_corpora membership + order rule."""
    kept = []
    for name, ids in ids_by_source.items():
        for i in ids:
            pct = int.from_bytes(
                hashlib.md5(f"{salt}:{name}:{i}".encode()).digest()[:4],
                "big") % 100
            if pct < rates[name]:
                key = int(hashlib.md5(
                    f"{salt}:order:{name}:{i}".encode()).hexdigest()[:15],
                    16)
                kept.append((key, name, i))
    kept.sort()
    return {(name, i): pos + 1 for pos, (_, name, i) in enumerate(kept)}


def test_mix_corpora_matches_reference(ray_session):
    ids = {"a": range(0, 300), "b": range(100, 500), "c": range(0, 50)}
    rates = {"a": 70, "b": 30, "c": 100}
    ref = _mix_ref({k: list(v) for k, v in ids.items()}, rates)
    mixed = mix_corpora(
        {k: _ids_ds(list(v), parts=4) for k, v in ids.items()}, rates)
    got = {(r["source"], r["doc_id"]): r["mix_pos"]
           for r in mixed.take_all()}
    assert got == ref
    # positions are a 1..N permutation
    assert sorted(got.values()) == list(range(1, len(ref) + 1))


def test_mix_corpora_growth_stable(ray_session):
    rates = {"a": 50, "b": 50}
    small = mix_corpora({"a": _ids_ds(range(100)),
                         "b": _ids_ds(range(100))}, rates)
    big = mix_corpora({"a": _ids_ds(range(150)),
                       "b": _ids_ds(range(150))}, rates)
    pos_s = {(r["source"], r["doc_id"]): r["mix_pos"]
             for r in small.take_all()}
    pos_b = {(r["source"], r["doc_id"]): r["mix_pos"]
             for r in big.take_all()}
    # every kept id stays kept and relative order of shared ids is stable
    assert set(pos_s) <= set(pos_b)
    shared = sorted(pos_s, key=pos_s.get)
    assert shared == sorted(shared, key=pos_b.get)


# ------------------------------------------------------- quantile filter

def test_filter_by_quantile_exact_on_runs(ray_session):
    vals = np.repeat(np.arange(10), 100)
    rng = np.random.RandomState(7)
    rng.shuffle(vals)
    ds = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(1000, dtype=np.int64)),
        "v": pa.array(vals.astype(np.int64))})).repartition(6)
    kept = filter_by_quantile(ds, "v", 0.75, k=1024)
    got = kept.take_all()
    # ceil(0.75*1000)=750 → value 7; keep >= 7 → 300 rows
    assert len(got) == 300
    assert all(r["v"] >= 7 for r in got)
    low = filter_by_quantile(ds, "v", 0.25, k=1024, keep="le")
    got_low = low.take_all()
    assert len(got_low) == 300 and all(r["v"] <= 2 for r in got_low)


# --------------------------------------------------------- snapshot delta

def test_snapshot_delta_statuses(ray_session):
    old = rd.from_arrow(pa.table({
        "url": ["u1", "u2", "u3", "u4"],
        "fp": pa.array([11, 22, 33, 44], type=pa.int64())})).repartition(2)
    new = rd.from_arrow(pa.table({
        "url": ["u2", "u3", "u5"],
        "fp": pa.array([22, 99, 55], type=pa.int64())})).repartition(2)
    got = {r["url"]: r["status"]
           for r in snapshot_delta(old, new).take_all()}
    assert got == {"u1": "deleted", "u2": "unchanged", "u3": "changed",
                   "u4": "deleted", "u5": "new"}


# --------------------------------------------------------------- pagerank

def _pagerank_ref(edges, n, iters=3, base=1_000_000):
    outdeg = np.zeros(n, dtype=np.int64)
    for s, _ in edges:
        outdeg[s] += 1
    m = np.full(n, base, dtype=np.int64)
    for _ in range(iters):
        inm = np.zeros(n, dtype=np.int64)
        for s, d in edges:
            inm[d] += m[s] // outdeg[s]
        m = 15 * base // 100 + 85 * inm // 100
    return m


def _edges_ds(edges, n, parts=4):
    outdeg = np.zeros(n, dtype=np.int64)
    for s, _ in edges:
        outdeg[s] += 1
    t = pa.table({
        "src": pa.array([s for s, _ in edges], type=pa.int64()),
        "dst": pa.array([d for _, d in edges], type=pa.int64()),
        "outdeg": pa.array([outdeg[s] for s, _ in edges], type=pa.int64()),
    })
    return rd.from_arrow(t).repartition(parts)


def test_pagerank_matches_integer_reference(ray_session):
    rng = np.random.RandomState(5)
    n = 200
    edges = []
    for i in range(n):
        for _ in range(int(rng.randint(1, 4))):
            edges.append((i, int(rng.randint(0, n))))
    ref = _pagerank_ref(edges, n)
    # broadcast plan (default gate) AND forced distributed join plan must
    # both equal the integer reference (the size-gate discipline)
    for kw in ({}, {"driver_node_max": 0}):
        nodes = _ids_ds(range(n), col="node", parts=3)
        got = pagerank_int(_edges_ds(edges, n), nodes, iters=3, **kw)
        rows = {r["node"]: r["m"] for r in got.take_all()}
        assert len(rows) == n
        assert all(rows[i] == ref[i] for i in range(n)), kw


def test_pagerank_no_inlinks_gets_teleport(ray_session):
    # node 2 has no in-edges → after one round its mass is the teleport term
    edges = [(0, 1), (1, 0), (2, 0)]
    nodes = _ids_ds(range(3), col="node")
    got = {r["node"]: r["m"]
           for r in pagerank_int(_edges_ds(edges, 3, parts=1), nodes,
                                 iters=1).take_all()}
    assert got[2] == 150_000
    # node 0 receives from 1 (1e6/1) and 2 (1e6/1)
    assert got[0] == 150_000 + 85 * 2_000_000 // 100


# -------------------------------------------------------------- pack_shards

def test_pack_shards_matches_window_cumsum(ray_session):
    from engine.partition import pack_shards

    rng = np.random.RandomState(9)
    n = 2000
    w = rng.randint(1, 400, n).astype(np.int64)
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "w": pa.array(w)})).repartition(7)
    got = {r["doc_id"]: r["shard_id"]
           for r in pack_shards(ds, "w", shard_weight=1500).take_all()}

    # driver reference: exclusive prefix sum in md5('shard:'||id) order
    keys = np.array([int(hashlib.md5(f"shard:{i}".encode())
                         .hexdigest()[:15], 16) for i in range(n)])
    order = np.argsort(keys)
    start = np.cumsum(w[order]) - w[order]
    ref = dict(zip(np.arange(n)[order].tolist(),
                   (start // 1500).tolist()))
    assert got == ref
    # shards are contiguous 0..max and every shard except maybe the last
    # holds >= shard_weight - max(w) weight (greedy fill property)
    sizes = {}
    for i, s in got.items():
        sizes[s] = sizes.get(s, 0) + int(w[i])
    assert set(sizes) == set(range(max(sizes) + 1))
    for s, tot in sizes.items():
        if s != max(sizes):
            assert tot >= 1500 - 400


def test_pack_shards_parallelism_invariant(ray_session, monkeypatch):
    import engine.joins
    from engine.partition import pack_shards

    w = np.arange(1, 301, dtype=np.int64)
    t = pa.table({"doc_id": pa.array(np.arange(300, dtype=np.int64)),
                  "w": pa.array(w)})
    a = {r["doc_id"]: r["shard_id"] for r in pack_shards(
        rd.from_arrow(t), "w", shard_weight=900).take_all()}
    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 5)
    b = {r["doc_id"]: r["shard_id"] for r in pack_shards(
        rd.from_arrow(t).repartition(11), "w", shard_weight=900).take_all()}
    assert a == b


# ---------------------------------------------------------- range_partition

def test_range_partition_balanced_and_colocated(ray_session):
    from engine.stats import range_partition

    rng = np.random.RandomState(13)
    vals = np.repeat(np.arange(7), 1000)
    rng.shuffle(vals)
    ds = rd.from_arrow(pa.table({
        "id": pa.array(np.arange(7000, dtype=np.int64)),
        "v": pa.array(vals.astype(np.int64))})).repartition(5)
    out = range_partition(ds, "v", num_parts=4, k=1024).take_all()
    parts = {r["v"]: set() for r in out}
    for r in out:
        parts[r["v"]].add(r["part"])
    # equal values co-locate in exactly one partition
    assert all(len(s) == 1 for s in parts.values())
    # cuts are the exact quartiles of the planted runs (sketch exact):
    # quantile_disc ranks 1750/3500/5250 -> values 1, 3, 5 -> parts
    # {0,1}->0, {2,3}->1, {4,5}->2, {6}->3
    want = {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3}
    assert {v: s.pop() for v, s in parts.items()} == want


# ------------------------------------------------------------ repeat_weighted

def test_repeat_weighted_reference_and_growth(ray_session):
    from engine.partition import repeat_weighted

    ds = _ids_ds(range(400), parts=6)
    got = {}
    for r in repeat_weighted(ds, 7, 3).take_all():
        got.setdefault(r["doc_id"], []).append(r["copy"])
    # reference: 2 copies + extra iff md5 32-bit prefix % 3 < 1
    for i in range(400):
        h = int.from_bytes(hashlib.md5(f"rep:{i}".encode()).digest()[:4],
                           "big")
        k = 2 + (1 if h % 3 < 1 else 0)
        assert sorted(got[i]) == list(range(k)), i
    # expectation: total within a few percent of 400 * 7/3
    total = sum(len(v) for v in got.values())
    assert abs(total - 400 * 7 / 3) < 0.1 * 400
    # growth stability: same ids keep the same copy counts in a larger ds
    big = {}
    for r in repeat_weighted(_ids_ds(range(600)), 7, 3).take_all():
        big.setdefault(r["doc_id"], []).append(r["copy"])
    assert all(len(big[i]) == len(got[i]) for i in range(400))


# ----------------------------------------------------------- curriculum

def test_curriculum_order_tiers_then_hash(ray_session):
    from engine.partition import curriculum_order

    n = 300
    t = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "tier": pa.array((np.arange(n) % 3).astype(np.int64))})
    out = curriculum_order(rd.from_arrow(t).repartition(5), "tier",
                           num_tiers=3).take_all()
    by_pos = sorted(out, key=lambda r: r["cur_pos"])
    # positions are a permutation; tiers appear in descending blocks
    assert [r["cur_pos"] for r in by_pos] == list(range(1, n + 1))
    tiers = [r["tier"] for r in by_pos]
    assert tiers == sorted(tiers, reverse=True)
    # within a tier, order is the salted-md5 shuffle order
    for tier in (0, 1, 2):
        ids = [r["doc_id"] for r in by_pos if r["tier"] == tier]
        keys = [int(hashlib.md5(f"cur:{i}".encode()).hexdigest()[:15], 16)
                for i in ids]
        assert keys == sorted(keys)
