"""Graph primitives over edge Datasets.

The dedup family already runs distributed min-label propagation internally
(engine/dedup._propagate_labels — the cluster-assembly scale path); this
module exposes it as a first-class operator over an arbitrary integer edge
table: co-citation graphs, url link graphs, user-interaction graphs — the
"cluster the corpus by relation" step of a training-data pipeline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count


DRIVER_EDGE_MAX = 2_000_000  # distinct-edge cap for the driver union-find


def connected_components(edges: "ray.data.Dataset", src: str = "src",
                         dst: str = "dst", max_iters: int = 25,
                         driver_edge_max: int = DRIVER_EDGE_MAX
                         ) -> "ray.data.Dataset":
    """Connected components of an undirected graph given as (src, dst)
    integer edge rows (direction ignored; duplicates allowed). Returns a
    Dataset (node, component) — component = min node id of the component,
    one row per distinct endpoint.

    Plan (size-gated, the dedup-family discipline): symmetrize per block
    (narrow (node, peer) stream), ONE groupby distinct on the pair
    (repeated edges collapse before any component work). Distinct edge
    sets ≤ ``driver_edge_max`` take a driver union-find (numeric-min,
    O(E α(E)) — node count is bounded by 2×cap); larger graphs take
    min-label propagation: each round one vectorized hash_join carries
    every node's current label to its neighbors + a per-node Min groupby —
    labels only decrease, the label sum detects the fixpoint, rounds ≲
    graph diameter, and only (node, label) rows ever cross the wire.
    Isolated nodes: not visible in an edge list — union their ids into
    ``edges`` as self-loops if needed.
    """
    import ray.data as rd

    from engine.dedup import _propagate_labels

    def symmetrize(t: pa.Table) -> pa.Table:
        a = pc.cast(t[src], pa.int64())
        b = pc.cast(t[dst], pa.int64())
        return pa.table({
            "node": pa.chunked_array([*a.chunks, *b.chunks], type=pa.int64()),
            "peer": pa.chunked_array([*b.chunks, *a.chunks], type=pa.int64()),
        })

    from engine.joins import _coalesced, exchange_width

    sym = (
        _coalesced(edges.map_batches(symmetrize, batch_format="pyarrow"),
                   exchange_width())     # shuffle cost scales with block
        .groupby(["node", "peer"])       # count, not bytes (CLAUDE.md)
        .aggregate(Count(alias_name="__n"))
        .map_batches(lambda t: t.drop_columns(["__n"]),
                     batch_format="pyarrow")
        .materialize()  # consumed twice below on either plan
    )

    if sym.count() <= driver_edge_max:
        df = sym.to_pandas()
        parent: dict = {}

        def find(x: int) -> int:
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for a, b in zip(df["node"].tolist(), df["peer"].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                lo, hi = (ra, rb) if ra < rb else (rb, ra)
                parent[hi] = lo
        nodes = sorted(set(df["node"].tolist()))
        return rd.from_arrow(pa.table({
            "node": pa.array(nodes, type=pa.int64()),
            "component": pa.array([find(n) for n in nodes],
                                  type=pa.int64()),
        }))

    nodes_ds = sym.map_batches(lambda t: t.select(["node"]),
                               batch_format="pyarrow") \
        .groupby("node").aggregate(Count(alias_name="__n")) \
        .map_batches(lambda t: t.drop_columns(["__n"]),
                     batch_format="pyarrow")

    labeled = _propagate_labels(sym, nodes_ds, max_iters)
    return labeled.map_batches(
        lambda t: pa.table({"node": t["doc_id"], "component": t["cluster_id"]}),
        batch_format="pyarrow",
    )


DRIVER_NODE_MAX = 1 << 22  # broadcast-plan gate: 4M nodes = 64 MiB arrays


def pagerank_int(edges: "ray.data.Dataset", nodes: "ray.data.Dataset",
                 iters: int = 3, base_mass: int = 1_000_000,
                 damp_num: int = 85, damp_den: int = 100,
                 src: str = "src", dst: str = "dst", node: str = "node",
                 n_nodes: int | None = None,
                 driver_node_max: int = DRIVER_NODE_MAX
                 ) -> "ray.data.Dataset":
    """Integer-exact PageRank over a directed edge table — link-graph
    authority scoring (the page-quality prior of a web corpus) as an
    iterative distributed computation whose every step is reproducible in
    SQL (floor division only, no float drift; same discipline as
    q_kmeans' integer sums).

    Per node v: m_0 = ``base_mass``; m_{t+1}(v) =
    ((1-d)·base_mass) + d·Σ_{u→v} floor(m_t(u) / outdeg(u)), with
    d = damp_num/damp_den applied as ``damp_num·x // damp_den`` and the
    teleport term ``(damp_den-damp_num)·base_mass // damp_den``. Dangling
    nodes (outdeg 0) leak their damped mass — the standard simplification,
    documented so the SQL twin matches.

    Size-gated plans (the connected_components discipline; both pinned
    row-identical by tests):

    - ``n_nodes ≤ driver_node_max`` → BROADCAST plan: the mass vector is
      ray.put once per iteration (worker-cached), each edge block computes
      contributions vectorized (searchsorted lookup, np.add.at in-block
      pre-agg by dst) and returns ≤ distinct-dst narrow partials merged on
      the driver — per iteration ONE streaming map pass, ZERO shuffles,
      the kmeans loop shape. At 3 iterations over a 5k-node fixture this
      is ~4× faster than the join plan (Ray fixed cost per exchange).
    - larger graphs → DISTRIBUTED plan, per iteration: (1) edges ⋈ masses
      on ``src`` — one partitioned hash_join where the mass side is the
      NARROW (node, m) pair; (2) vectorized m // outdeg; (3) one
      union-with-zero-rows groupby(node).Sum (= LEFT JOIN fill for
      no-in-link nodes); (4) materialize() the new masses (consumed by
      the next round's join — CLAUDE.md lazy-re-execution trap). Driver
      holds NO per-node state; each round ships only (node, int64) pairs.

    ``edges`` must carry an ``outdeg`` column (join a groupby(src).Count
    once, or supply it from the generator); ``nodes`` is one row per node
    and every edge endpoint MUST appear in it. Pass ``n_nodes`` (e.g.
    from parquet metadata) to skip the count() plan probe.
    """
    from ray.data.aggregate import Sum

    from engine.joins import hash_join

    teleport = (damp_den - damp_num) * base_mass // damp_den

    if n_nodes is None:
        n_nodes = nodes.count()
    if n_nodes <= driver_node_max:
        return _pagerank_broadcast(edges, nodes, iters, base_mass, teleport,
                                   damp_num, damp_den, src, dst, node)

    def init_mass(t: pa.Table) -> pa.Table:
        return pa.table({
            node: pc.cast(t[node], pa.int64()),
            "m": pa.array(np.full(t.num_rows, base_mass, dtype=np.int64)),
        })

    zeros = nodes.map_batches(
        lambda t: pa.table({
            node: pc.cast(t[node], pa.int64()),
            "in_m": pa.array(np.zeros(t.num_rows, dtype=np.int64)),
        }),
        batch_format="pyarrow").materialize()
    masses = nodes.map_batches(init_mass, batch_format="pyarrow") \
        .materialize()

    for _ in range(max(1, iters)):
        srcm = masses.map_batches(
            lambda t: pa.table({src: t[node], "m": t["m"]}),
            batch_format="pyarrow")
        contrib = hash_join(edges, srcm, on=src).map_batches(
            lambda t: pa.table({
                node: pc.cast(t[dst], pa.int64()),
                # if_else evaluates BOTH branches → clamp the divisor, zero
                # the result (checked int division would raise on outdeg=0)
                "in_m": pc.if_else(
                    pc.greater(t["outdeg"], 0),
                    pc.divide(t["m"], pc.max_element_wise(
                        pc.cast(t["outdeg"], pa.int64()),
                        pa.scalar(1, type=pa.int64()))),
                    pa.scalar(0, type=pa.int64())),
            }),
            batch_format="pyarrow")
        summed = (contrib.union(zeros)
                  .groupby(node).aggregate(Sum("in_m", alias_name="in_m")))
        masses = summed.map_batches(
            lambda t: pa.table({
                node: t[node],
                "m": pc.add(
                    pa.scalar(teleport, type=pa.int64()),
                    pc.divide(pc.multiply(pc.cast(t["in_m"], pa.int64()),
                                          pa.scalar(damp_num,
                                                    type=pa.int64())),
                              pa.scalar(damp_den, type=pa.int64()))),
            }),
            batch_format="pyarrow").materialize()
    return masses


def _pagerank_broadcast(edges, nodes, iters, base_mass, teleport,
                        damp_num, damp_den, src, dst, node):
    """Broadcast-plan body of :func:`pagerank_int` (size-gated there)."""
    import ray
    import ray.data as rd

    from engine.broadcast import get_broadcast

    id_chunks = [b[node].to_numpy(zero_copy_only=False).astype(np.int64)
                 for b in nodes.select_columns([node])
                 .iter_batches(batch_format="pyarrow")]
    ids = np.sort(np.concatenate(id_chunks)
                  if id_chunks else np.empty(0, dtype=np.int64))
    m = np.full(len(ids), base_mass, dtype=np.int64)

    for _ in range(max(1, iters)):
        ref = ray.put((ids, m))

        def partial(t: pa.Table) -> pa.Table:
            bids, bm = get_broadcast(ref)
            s = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
            d = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
            deg = t["outdeg"].to_numpy(zero_copy_only=False).astype(np.int64)
            contrib = bm[np.searchsorted(bids, s)] // np.maximum(deg, 1)
            contrib[deg <= 0] = 0
            uniq, inv = np.unique(d, return_inverse=True)
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inv, contrib)
            return pa.table({node: pa.array(uniq),
                             "in_m": pa.array(sums)})

        # stream the per-block partials to the driver batch-wise (never a
        # take_all of Python row dicts — partial count scales with edge
        # blocks × distinct dst, not n_nodes) and merge vectorized
        in_m = np.zeros(len(ids), dtype=np.int64)
        for b in edges.map_batches(partial, batch_format="pyarrow") \
                .iter_batches(batch_format="pyarrow"):
            rn = b[node].to_numpy(zero_copy_only=False).astype(np.int64)
            rv = b["in_m"].to_numpy(zero_copy_only=False).astype(np.int64)
            np.add.at(in_m, np.searchsorted(ids, rn), rv)
        m = teleport + damp_num * in_m // damp_den

    return rd.from_arrow(pa.table({node: pa.array(ids),
                                   "m": pa.array(m)}))


def resolve_redirects(edges: "ray.data.Dataset", src: str = "src",
                      dst: str = "dst",
                      max_hops: int = 16) -> "ray.data.Dataset":
    """Follow HTTP-redirect chains to their terminal target — the crawl
    canonicalization step (a 301 map is (src, dst) with ONE dst per src;
    duplicate srcs are undefined input). Returns one row per input src:
    (src, final, hops, resolved:int64) — ``final``/``hops`` are null and
    resolved = 0 for chains that do not reach a terminal within
    ``max_hops`` (cycles, or deeper than the bound).

    Plan: POINTER DOUBLING — ceil(log2(max_hops)) + 1 rounds, each ONE
    partitioned hash_join of the current map against itself
    (m'(x) = m(m(x)), hops add), so a 10^9-row redirect map resolves
    64-deep chains in 7 exchanges instead of 64. Each round's map is
    materialized (hash_join reads schemas up front — the lazy-re-execution
    rule); only (node, node, int) triples ever cross the wire. Terminal
    rows (dst not itself a src) stop participating as join probes resolve
    to nulls — no driver state at any point.
    """
    from engine.joins import hash_join

    def prep(t: pa.Table) -> pa.Table:
        return pa.table({
            "src": pc.cast(t[src], pa.int64()),
            "nxt": pc.cast(t[dst], pa.int64()),
            "hops": pa.array(np.ones(t.num_rows, dtype=np.int64)),
        })

    cur = edges.map_batches(prep, batch_format="pyarrow").materialize()

    rounds = max(1, int(np.ceil(np.log2(max(max_hops, 2)))) + 1)
    for _ in range(rounds):
        # m'(x) = m(m(x)): left-join cur.nxt against the map's src
        hop = cur.map_batches(
            lambda t: pa.table({"nxt": t["src"], "nxt2": t["nxt"],
                                "hops2": t["hops"]}),
            batch_format="pyarrow")
        joined = hash_join(cur, hop, on="nxt", how="left")

        def jump(t: pa.Table) -> pa.Table:
            hit = pc.is_valid(t["nxt2"])
            return pa.table({
                "src": t["src"],
                "nxt": pc.if_else(hit, t["nxt2"], t["nxt"]),
                "hops": pc.if_else(
                    hit, pc.add(t["hops"], pc.fill_null(t["hops2"], 0)),
                    t["hops"]),
            })

        cur = joined.map_batches(jump, batch_format="pyarrow").materialize()

    # terminal test: nxt still present as a src => unresolved (cycle or
    # deeper than 2^rounds); hops > max_hops => unresolved by contract
    srcs = cur.map_batches(lambda t: t.select(["src"]),
                           batch_format="pyarrow").materialize()
    tagged = hash_join(
        cur.map_batches(
            lambda t: t.rename_columns(["src", "nxt", "hops"]),
            batch_format="pyarrow"),
        srcs.map_batches(
            lambda t: pa.table({"nxt": t["src"],
                                "__hit": pa.array(
                                    np.ones(t.num_rows, dtype=np.int8))}),
            batch_format="pyarrow"),
        on="nxt", how="left")

    def finish(t: pa.Table) -> pa.Table:
        ok = pc.and_(pc.is_null(t["__hit"]),
                     pc.less_equal(t["hops"], max_hops))
        null_i = pa.scalar(None, type=pa.int64())
        return pa.table({
            "src": t["src"],
            "final": pc.if_else(ok, t["nxt"], null_i),
            "hops": pc.if_else(ok, t["hops"], null_i),
            "resolved": pc.cast(ok, pa.int64()),
        })

    return tagged.map_batches(finish, batch_format="pyarrow")
