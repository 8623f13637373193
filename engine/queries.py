"""Driver-contract queries: one Ray Data pipeline per implemented operator
(SURVEY.md §2), each with a DuckDB-oracle SQL twin in ``__ray_entry__.py``.

Every callable takes ``sf_dir`` (a /root/testdata/sf* directory) and returns a
Dataset / pandas DataFrame / pyarrow Table whose column NAMES match the oracle
SQL exactly (the driver hash-compares values after sorting columns by name).

Floating-point aggregates are rounded on BOTH sides (round 6 for means, 2-4
for sums) so summation-order differences between Ray partial aggregation and
DuckDB never flip the value hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data
from ray.data.aggregate import Count, Max, Mean, Min, Sum

from engine import textops
from engine.extract import extract_batch


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns
    )


# ---------------------------------------------------------------------------
# M4 — chunk explode (app/main.py:243-250) over documents
# ---------------------------------------------------------------------------

CHUNK_LINES = 20


def q_chunk_explode(sf_dir: str):
    """documents.text → newline-per-word text → 20-line chunks (ungated)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def explode(t: pa.Table) -> pa.Table:
        lined = pc.replace_substring(t["text"], pattern=" ", replacement="\n")
        t2 = pa.table({"doc_id": t["doc_id"], "text": lined})
        return textops.explode_chunks_batch(
            t2, text_col="text", key_col="doc_id", gated=False,
            chunk_size=CHUNK_LINES,
        )

    return docs.map_batches(explode, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# M4-M9 composite — ONE multi-column gate query exercising all six r1
# textops kernels per doc (VERDICT r4 #2: one driver-gate slot instead of
# the five individual M5-M9 entries, which are deleted; each kernel stays
# green in r1-r3 CORRECTNESS artifacts and tests/test_textops.py).
# ---------------------------------------------------------------------------


def _synth_markdown(t: pa.Table) -> pa.Array | pa.ChunkedArray:
    """Deterministic markdown assembled from documents columns; the oracle SQL
    builds the identical string, so the strip chains are exercised end-to-end."""
    did = pc.cast(t["doc_id"], pa.string())
    return pc.binary_join_element_wise(
        "# Title ", t["source"], "\n**", t["lang"], "** *", t["source"],
        "* [link](http://x/", did, ") `", t["lang"], "`\n", t["text"], "",
    )


def q_textops_composite(sf_dir: str):
    """Per-document composite of the six r1 textops: sanitize_filename (on a
    synthesized '<source> #<id>.txt' name), plain/gdocs strip chains on the
    synthesized markdown, preview(200), estimated minutes, and the chunk
    explode collapsed to per-doc (n_chunks, chunk_chars) — all inside one
    map_batches (the chunk rollup groups WITHIN the batch: chunks of a row
    stay in its batch, so no exchange is needed)."""
    docs = _read(sf_dir, "documents",
                 ["doc_id", "text", "lang", "source", "n_chars"])

    def compose(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.string())
        fname = pc.binary_join_element_wise(
            t["source"], " #", did, ".txt", "")
        md = _synth_markdown(t)
        lined = pc.replace_substring(t["text"], pattern=" ", replacement="\n")
        chunks = textops.explode_chunks_batch(
            pa.table({"doc_id": t["doc_id"], "text": lined}),
            text_col="text", key_col="doc_id", gated=False,
            chunk_size=CHUNK_LINES)
        agg = chunks.group_by("doc_id").aggregate(
            [("chunk_index", "count"), ("char_count", "sum")])
        per_doc = pa.table({"doc_id": agg["doc_id"],
                            "n_chunks": agg["chunk_index_count"],
                            "chunk_chars": agg["char_count_sum"]})
        base = pa.table({
            "doc_id": t["doc_id"],
            "safe_name": textops.sanitize_batch(fname),
            "plain_text": textops.markdown_to_plain_batch(md),
            "gdocs_text": textops.markdown_to_gdocs_batch(md),
            "preview": textops.content_preview_batch(t["text"], limit=200),
            "est_minutes": textops.estimated_time_batch(
                pc.multiply(t["n_chars"], 4096)),
        })
        return base.join(per_doc, keys="doc_id", join_type="inner")

    return docs.map_batches(compose, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# A1/A2 — grouped counts + rollups (app/main.py:882-903) over events
# ---------------------------------------------------------------------------


def q_status_counts(sf_dir: str):
    events = _read(sf_dir, "events", ["event_type"])
    return events.groupby("event_type").aggregate(Count(alias_name="n"))


def q_value_rollup(sf_dir: str):
    events = _read(sf_dir, "events", ["value"])
    res = events.aggregate(
        Sum("value", alias_name="sum_value"),
        Mean("value", alias_name="mean_value"),
        Count(alias_name="n"),
    )
    return pd.DataFrame(
        [{"sum_value": round(res["sum_value"], 6),
          "mean_value": round(res["mean_value"], 6),
          "n": res["n"]}]
    )


def q_user_value_stats(sf_dir: str):
    """Per-user grouped aggregate with partial aggregation under the hood."""
    events = _read(sf_dir, "events", ["user_id", "value"])
    agg = events.groupby("user_id").aggregate(
        Sum("value", alias_name="sum_value"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"),
        Count(alias_name="n"),
    )
    df = agg.to_pandas()
    df["sum_value"] = df["sum_value"].round(6)
    return df


# ---------------------------------------------------------------------------
# K1 — filter → sort → top-k listing (app/main.py:829-862) over events
# ---------------------------------------------------------------------------


def q_recent_events(sf_dir: str):
    events = _read(sf_dir, "events",
                   ["event_id", "ts", "user_id", "event_type", "value"])
    clicks = events.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click")),
        batch_format="pyarrow",
    )
    top = clicks.sort(["ts", "event_id"], descending=[True, True]).limit(50)
    return top.select_columns(["event_id", "ts", "user_id", "value"])


def q_top_parts(sf_dir: str):
    parts = _read(sf_dir, "part", ["p_partkey", "p_name", "p_retailprice"])
    return parts.sort(
        ["p_retailprice", "p_partkey"], descending=[True, False]
    ).limit(20)


# ---------------------------------------------------------------------------
# A6 — exact dedup (SURVEY.md §2.6 A6) over documents by text
# ---------------------------------------------------------------------------


def q_exact_dedup(sf_dir: str):
    """Exact dedup with hash-key shuffle discipline: the groupby key is the
    FULL 128-bit md5 of the text (hex string — reproducible in DuckDB), so
    the all-to-all moves 32 bytes per row instead of the document text and
    there is no birthday-bound truncation hazard at large corpus scale."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def h(t: pa.Table) -> pa.Table:
        hashes = [hashlib.md5(s.encode()).hexdigest()
                  for s in t["text"].to_pylist()]
        return pa.table({"content_hash": pa.array(hashes, type=pa.string()),
                         "doc_id": t["doc_id"]})

    return docs.map_batches(h, batch_format="pyarrow").groupby(
        "content_hash"
    ).aggregate(
        Min("doc_id", alias_name="doc_id"), Count(alias_name="n_copies")
    )


# ---------------------------------------------------------------------------
# Join — broadcast hash join (SURVEY.md §2.5): orders ⋈ customer (small side)
# ---------------------------------------------------------------------------


def q_orders_join(sf_dir: str):
    import pyarrow.parquet as pq

    from engine.broadcast import get_broadcast

    # small side read driver-side directly (one file, two columns — no Ray
    # job needed), broadcast ONCE via ray.put
    customer = pq.read_table(os.path.join(sf_dir, "customer.parquet"),
                             columns=["c_custkey", "c_mktsegment"])
    lookup_ref = ray.put((customer["c_custkey"].combine_chunks(),
                          customer["c_mktsegment"].combine_chunks()))

    def attach_segment(t: pa.Table) -> pa.Table:
        # vectorized dictionary-index join: position of each o_custkey in the
        # broadcast key array, then a take from the value array (stateless
        # task + worker-cached broadcast — see engine/broadcast.py)
        keys, vals = get_broadcast(lookup_ref)
        idx = pc.index_in(t["o_custkey"], value_set=keys)
        return pa.table({
            "c_mktsegment": pc.take(vals, idx),
            "o_totalprice": t["o_totalprice"],
        })

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    joined = orders.map_batches(attach_segment, batch_format="pyarrow")
    agg = joined.groupby("c_mktsegment").aggregate(
        Count(alias_name="n_orders"), Sum("o_totalprice", alias_name="total_price")
    )
    df = agg.to_pandas()
    df["total_price"] = df["total_price"].round(2)
    return df


def q_large_join(sf_dir: str):
    """Both-sides-large partitioned hash join (engine.joins.hash_join):
    lineitem ⋈ orders on orderkey → per-priority rollup (one all-to-all)."""
    from engine.joins import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"]).map_batches(
        lambda t: pa.table({"okey": t["l_orderkey"],
                            "l_quantity": t["l_quantity"]}),
        batch_format="pyarrow",
    )
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({"okey": t["o_orderkey"],
                            "o_orderpriority": t["o_orderpriority"]}),
        batch_format="pyarrow",
    )
    joined = hash_join(li, orders, on="okey")
    agg = joined.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_items"), Sum("l_quantity", alias_name="sum_qty")
    )
    df = agg.to_pandas()
    df["sum_qty"] = df["sum_qty"].round(2)
    return df


# ---------------------------------------------------------------------------
# TPC-H Q1-style pricing summary over lineitem (partial agg + tiny groupby)
# ---------------------------------------------------------------------------


def q_lineitem_pricing(sf_dir: str):
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
                "l_discount"])

    def add_disc_price(t: pa.Table) -> pa.Table:
        disc = pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"]))
        return t.append_column("disc_price", disc)

    agg = (
        li.map_batches(add_disc_price, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("l_quantity", alias_name="sum_qty"),
            Sum("l_extendedprice", alias_name="sum_base_price"),
            Sum("disc_price", alias_name="sum_disc_price"),
            Mean("l_quantity", alias_name="avg_qty"),
            Count(alias_name="count_order"),
        )
    )
    df = agg.to_pandas()
    for col in ("sum_qty", "sum_base_price", "sum_disc_price"):
        df[col] = df[col].round(2)
    df["avg_qty"] = df["avg_qty"].round(6)
    return df


# ---------------------------------------------------------------------------
# Text analysis: token counts + fingerprints (scale additions) over documents
# ---------------------------------------------------------------------------


def q_token_count(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        # \S+ match count == len(str.split()) == DuckDB regexp_extract_all len
        n = pc.count_substring_regex(t["text"], pattern=r"\S+")
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pc.cast(n, pa.int64())})

    return docs.map_batches(count_tokens, batch_format="pyarrow")


def q_fingerprint(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        digests = [hashlib.md5(s.encode()).hexdigest() for s in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "fingerprint": pa.array(digests, type=pa.string())})

    return docs.map_batches(fp, batch_format="pyarrow")


def q_json_props(sf_dir: str):
    """JSON scalar op over events.props (SURVEY.md §2.9): sum of $.k per user."""
    events = _read(sf_dir, "events", ["user_id", "props"])

    def extract_k(t: pa.Table) -> pa.Table:
        ks = [json.loads(p)["k"] for p in t["props"].to_pylist()]
        return pa.table({"user_id": t["user_id"],
                         "k": pa.array(ks, type=pa.int64())})

    return (
        events.map_batches(extract_k, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("k", alias_name="sum_k"))
    )


# ---------------------------------------------------------------------------
# The extraction engine end-to-end with a SQL oracle: wrap documents.text in
# real HTML, run the REAL kernel (parse → strip → serialize), compare against
# the whitespace-collapse the serializer spec guarantees for a pure paragraph.
# ---------------------------------------------------------------------------


def q_extract_roundtrip(sf_dir: str):
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_pages(t: pa.Table) -> pa.Table:
        payloads = [
            ("<html><body><p>"
             + s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
             + "</p></body></html>").encode()
            for s in t["text"].to_pylist()
        ]
        return pa.table({"url": pc.cast(t["doc_id"], pa.string()),
                         "html": pa.array(payloads, type=pa.binary())})

    pages = docs.map_batches(to_pages, batch_format="pyarrow")
    extracted = pages.map_batches(
        extract_batch, batch_format="pyarrow", batch_size=128)
    return extracted.map_batches(
        lambda t: pa.table({
            "doc_id": pc.cast(t["url"], pa.int64()),
            "markdown_text": t["markdown_text"],
        }),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# Dedup family (engine.dedup) over documents — scale additions
# ---------------------------------------------------------------------------


def q_pdf_roundtrip(sf_dir: str):
    """P1-P3 end-to-end with a SQL oracle: build a deterministic one-line PDF
    per document (WinAnsi, uncompressed), run the REAL PDF kernel; extracted
    text must equal the source text byte-for-byte (ASCII corpus)."""
    from engine.fixtures import build_pdf

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_pdf_pages(t: pa.Table) -> pa.Table:
        payloads = [
            build_pdf([[(72.0, 720.0, [s])]], compress=(i % 2 == 1))
            for i, s in enumerate(t["text"].to_pylist())
        ]
        return pa.table({"url": pc.cast(t["doc_id"], pa.string()),
                         "html": pa.array(payloads, type=pa.binary())})

    extracted = docs.map_batches(to_pdf_pages, batch_format="pyarrow").map_batches(
        extract_batch, batch_format="pyarrow", batch_size=256)
    return extracted.map_batches(
        lambda t: pa.table({"doc_id": pc.cast(t["url"], pa.int64()),
                            "pdf_text": t["markdown_text"],
                            "status": t["status"]}),
        batch_format="pyarrow",
    )


def q_docx_roundtrip(sf_dir: str):
    """D1 end-to-end with a SQL oracle: one-paragraph DOCX per document; the
    markdown paragraph is the whitespace-collapsed source text."""
    from engine.fixtures import build_docx, _w_p

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def to_docx_pages(t: pa.Table) -> pa.Table:
        payloads = [
            build_docx(_w_p([(s, False, False)]))
            for s in t["text"].to_pylist()
        ]
        return pa.table({"url": pc.cast(t["doc_id"], pa.string()),
                         "html": pa.array(payloads, type=pa.binary())})

    extracted = docs.map_batches(to_docx_pages, batch_format="pyarrow").map_batches(
        extract_batch, batch_format="pyarrow", batch_size=256)
    return extracted.map_batches(
        lambda t: pa.table({"doc_id": pc.cast(t["url"], pa.int64()),
                            "docx_text": t["markdown_text"]}),
        batch_format="pyarrow",
    )


# --- planted-dup corpora: texts built deterministically from doc_id only,
# so the near-dup truth (groups of 3 consecutive ids) is SQL-derivable and
# the sketch pipelines run against a REAL oracle (the pdf_roundtrip trick).
# Group gid shares 80 crc32-hex tokens; the "variant" corpus appends one
# member-specific token (word-3-gram Jaccard = 78/80 = 0.975 exactly), the
# "exact" corpus makes all members byte-identical (Hamming 0 / Jaccard 1).

PLANT_GROUP = 3
_PLANT_TOKENS = 80


def _planted_base(gid: int) -> str:
    return " ".join(
        format(zlib.crc32(f"{gid}:{j}".encode()), "08x")
        for j in range(_PLANT_TOKENS)
    )


def _planted_docs(sf_dir: str, exact: bool = False):
    docs = _read(sf_dir, "documents", ["doc_id"])

    def build(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        if exact:
            texts = [_planted_base(i // PLANT_GROUP) for i in ids]
        else:
            texts = [
                _planted_base(i // PLANT_GROUP) + f" v{i % PLANT_GROUP}"
                for i in ids
            ]
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(texts, type=pa.string())})

    return docs.map_batches(build, batch_format="pyarrow")


def q_minhash_clusters(sf_dir: str):
    """Full MinHash-LSH near-dup clustering over the planted-variant corpus;
    the oracle knows cluster_id = (doc_id // 3) * 3 by construction."""
    from engine.dedup import minhash_dedup_clusters

    return minhash_dedup_clusters(_planted_docs(sf_dir), threshold=0.7)


def q_simhash(sf_dir: str):
    """SimHash signatures → 16-bit-band LSH → Hamming-verified pairs over the
    planted-exact corpus (identical members ⇒ Hamming 0; distinct groups'
    64-bit hashes are ≫ 3 apart)."""
    from engine.dedup import simhash_pairs

    out = simhash_pairs(_planted_docs(sf_dir, exact=True), max_hamming=3)
    out["hamming"] = out["hamming"].astype("int64")
    return out


def q_ngram_dedup_pairs(sf_dir: str):
    """LSH candidates → exact 3-gram Jaccard verification over the planted-
    variant corpus (each intra-group pair differs in exactly one trailing
    token ⇒ Jaccard = 78/80 = 0.975)."""
    from engine.dedup import minhash_lsh_pairs, ngram_jaccard_pairs

    docs = _planted_docs(sf_dir)
    cand = minhash_lsh_pairs(docs, threshold=0.5)
    out = ngram_jaccard_pairs(docs, cand[["id_a", "id_b"]], threshold=0.5)
    out["jaccard"] = out["jaccard"].round(6)
    return out


# ---------------------------------------------------------------------------
# Similarity search (engine.similarity) over embeddings
# ---------------------------------------------------------------------------


def _load_query_vecs(sf_dir: str, n: int = 5) -> np.ndarray:
    import pyarrow.parquet as pq
    import os as _os

    # row-group/predicate pushdown: only the n query vectors leave storage
    t = pq.read_table(
        _os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    by_id = dict(zip(t["vec_id"].to_pylist(), t["embedding"].to_pylist()))
    return np.asarray([by_id[i] for i in range(n)], dtype=np.float64)


def q_knn_cosine(sf_dir: str):
    """Exact cosine top-10 for query vectors vec_id 0..4 (SQL oracle via
    list_cosine_similarity; scores dropped — DuckDB computes in float32)."""
    from engine.similarity import knn_brute

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_brute(emb, _load_query_vecs(sf_dir), k=10)
    return out[["query_id", "rank", "vec_id"]]


def q_knn_lsh(sf_dir: str):
    """LSH-bucketed approximate top-10 (rows-only; recall measured in bench)."""
    from engine.similarity import knn_lsh

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_lsh(emb, _load_query_vecs(sf_dir), k=10)
    return out[["query_id", "rank", "vec_id"]]


def q_knn_ivf(sf_dir: str):
    """IVF-bucketed approximate top-10 with the data-independent spherical
    codebook as centroids, so the SQL twin reproduces cell assignment,
    probing and ranking exactly (the knn_lsh literal-constant trick); the
    k-means-trained quantizer stays the default operator path, pinned by
    recall + indexed-equivalence tests."""
    from engine.similarity import fixed_codebook, knn_ivf

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = knn_ivf(emb, _load_query_vecs(sf_dir), k=10, num_cells=16, nprobe=4,
                  centroids=fixed_codebook(64, 16))
    return out[["query_id", "rank", "vec_id"]]


PLANT_N = 20  # planted near-dup copies (vec_id + PLANT_OFFSET)
PLANT_OFFSET = 1_000_000


def q_embedding_near_dup(sf_dir: str):
    """Embedding-cosine near-dup pairs within LSH buckets, on the embeddings
    table plus PLANT_N planted exact copies (vec_id + PLANT_OFFSET) — the
    planted truth is SQL-derivable, so this runs against a real oracle; the
    base table itself has no pairs ≥ 0.95 (verified), so the output is
    exactly the planted pairs at cosine 1.0."""
    from engine.similarity import embedding_near_dup_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def plant(t: pa.Table) -> pa.Table:
        sel = t.filter(pc.less(t["vec_id"], PLANT_N))
        return pa.table({
            "vec_id": pc.add(sel["vec_id"], PLANT_OFFSET),
            "embedding": sel["embedding"],
        })

    # (n, dim) from parquet metadata — no Ray pre-passes: count()/take(1)
    # over the union pipeline would each execute the full plant stage
    import pyarrow.parquet as pq

    path = os.path.join(sf_dir, "embeddings.parquet")
    n_base = pq.read_metadata(path).num_rows
    first = next(pq.ParquetFile(path).iter_batches(
        batch_size=1, columns=["embedding"]))
    dim = len(first["embedding"][0])

    full = emb.union(emb.map_batches(plant, batch_format="pyarrow"))
    out = embedding_near_dup_pairs(full, threshold=0.95,
                                   n=n_base + min(n_base, PLANT_N), dim=dim)
    out["cosine"] = out["cosine"].round(6)
    out["id_a"] = out["id_a"].astype("int64")
    out["id_b"] = out["id_b"].astype("int64")
    return out


# ---------------------------------------------------------------------------
# Text analysis (engine.textstats) over documents
# ---------------------------------------------------------------------------


# one pure-profile sample per language family: each classifies to its own
# language with score 1.0 (cross-profile stopword overlap ≤ 0.3 — margins
# checked in tests), so lang_pred is derivable from doc_id % 5 in SQL
_LANG_SAMPLES = {
    0: "the and of to a in is that for it",              # en
    1: "el la de que y en los del se las",               # es
    2: "der die und das in von zu mit den ist",          # de
    3: "le la de et les des en un une du",               # fr
    4: "文本 数据 处理 系统 分析 模型 训练 语料",              # zh (CJK ratio)
}
_LANG_OF = {0: "en", 1: "es", 2: "de", 3: "fr", 4: "zh"}


def q_lang_id(sf_dir: str):
    """Language-ID over a constructed corpus whose true language is
    doc_id % 5 by construction (pure stopword-profile texts) — turns the
    heuristic classifier into an oracle-checked operator; behavior on free
    text is pinned separately in tests/test_textstats.py."""
    from engine.textstats import LangIdStage

    stage = LangIdStage()
    docs = _read(sf_dir, "documents", ["doc_id"])

    def build_and_classify(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = pa.array([_LANG_SAMPLES[i % 5] for i in ids],
                         type=pa.string())
        out = stage(pa.table({"doc_id": t["doc_id"], "text": texts}))
        return out.select(["doc_id", "lang_pred"])

    return docs.map_batches(build_and_classify, batch_format="pyarrow")


def q_quality(sf_dir: str):
    """Quality scoring over the real documents table; outputs integer signal
    counts (n_uniq / n_stop instead of ratios — ratios hit the Python-vs-SQL
    banker's-rounding mismatch at exactly-representable fractions) plus the
    frozen quality score, all reproducible in DuckDB."""
    from engine.textstats import QualityStage

    stage = QualityStage()
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(lambda t: stage(t), batch_format="pyarrow")
    return out.select_columns(["doc_id", "n_tokens", "n_uniq", "n_stop",
                               "quality"])


def q_chunk_page(sf_dir: str):
    """K2 — chunk pagination (app/main.py:810-824): fetch chunk #1 per doc."""
    chunks = q_chunk_explode(sf_dir)
    return chunks.map_batches(
        lambda t: t.filter(pc.equal(t["chunk_index"], 1)),
        batch_format="pyarrow",
    )


def q_event_dates(sf_dir: str):
    """§2.9 date/time scalars: isoformat-style parts + elapsed seconds from
    the epoch-start of the stream (datetime.now()/isoformat analogs,
    app/main.py:767-776)."""
    events = _read(sf_dir, "events", ["event_id", "ts"])

    def dates(t: pa.Table) -> pa.Table:
        day = pc.strftime(t["ts"], format="%Y-%m-%d")
        hour = pc.cast(pc.hour(t["ts"]), pa.int64())
        epoch_us = pc.cast(t["ts"], pa.int64())
        elapsed_s = pc.cast(
            pc.divide(pc.subtract(epoch_us, 1704067200000000), 1_000_000),
            pa.int64(),
        )  # integer seconds since 2024-01-01T00:00:00
        return pa.table({"event_id": t["event_id"], "day": day,
                         "hour": hour, "elapsed_s": elapsed_s})

    return events.map_batches(dates, batch_format="pyarrow")


def q_tumbling_window(sf_dir: str):
    """Streaming-shaped tumbling window (guide pattern; the reference has no
    windows, SURVEY.md §2.10): 1-hour buckets per event_type → count + sum."""
    events = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def bucket(t: pa.Table) -> pa.Table:
        epoch_s = pc.divide(pc.cast(t["ts"], pa.int64()), 1_000_000)
        win = pc.cast(pc.multiply(pc.floor(
            pc.divide(pc.cast(epoch_s, pa.float64()), 3600.0)), 3600), pa.int64())
        return pa.table({"event_type": t["event_type"],
                         "window_start_s": win, "value": t["value"]})

    agg = (
        events.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "window_start_s"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )
    df = agg.to_pandas()
    df["sum_value"] = df["sum_value"].round(6)
    return df


def q_first_per_user(sf_dir: str):
    """A6 first-per-key dedup (engine.dedup.first_per_key) with SQL oracle:
    each user's earliest event (deterministic ties via event_id)."""
    from engine.dedup import first_per_key

    events = _read(sf_dir, "events", ["user_id", "event_id", "ts"])
    out = first_per_key(events, key_col="user_id", order_col="event_id")
    return out.select_columns(["user_id", "event_id", "ts"])


def q_url_buckets(sf_dir: str):
    """Explicit url-hash partitioning (engine.partition): bucket counts over
    synthesized urls — proves the partitioner against the SQL oracle (both
    sides compute int(md5(url)[:8], 16) % 64)."""
    from engine.partition import add_url_hash_batch

    docs = _read(sf_dir, "documents", ["doc_id"])

    def to_urls(t: pa.Table) -> pa.Table:
        urls = pc.binary_join_element_wise(
            "https://docs.example/", pc.cast(t["doc_id"], pa.string()), ""
        )
        return add_url_hash_batch(pa.table({"url": urls}))

    return (
        docs.map_batches(to_urls, batch_format="pyarrow")
        .groupby("bucket")
        .aggregate(Count(alias_name="n_docs"))
        .map_batches(
            lambda t: pa.table({"bucket": pc.cast(t["bucket"], pa.int64()),
                                "n_docs": t["n_docs"]}),
            batch_format="pyarrow",
        )
    )


def q_media_features(sf_dir: str):
    """Multimodal feature stage with a REAL SQL oracle: the media table is
    derived row-for-row from ``documents`` (payload = UTF-8 text bytes,
    empty every 17th id for error-channel coverage; kind cycles by id), so
    (media_id, kind, sha256, status) are all SQL-computable facts about the
    fixture even though the decode kernels are stubbed
    (engine/multimodal.py). Features stay rows-only, pinned by pytest."""
    from engine.multimodal import media_features

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    kinds = pa.array(["image", "audio", "video"])

    def to_media(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].cast(pa.int64())
        idn = ids.to_numpy(zero_copy_only=False)
        # string→binary cast is zero-copy; empty every 17th id vectorized
        payload = pc.if_else(pa.array(idn % 17 == 0),
                             pa.scalar(b"", type=pa.binary()),
                             t["text"].cast(pa.binary()))
        return pa.table({
            "media_id": ids,
            "kind": kinds.take(pa.array(idn % 3)),
            "payload": payload,
        })

    media = docs.map_batches(to_media, batch_format="pyarrow")
    out = media_features(media, batch_size=256)
    return out.select_columns(["media_id", "kind", "sha256", "status"])


def q_asof_join(sf_dir: str):
    """Point-in-time as-of join (engine.joins.asof_join): every 'click'
    event attaches the user's latest prior-or-simultaneous 'view' event
    (pre-aggregated per (user, ts) so the match is unique). DuckDB twin uses
    its native ASOF LEFT JOIN."""
    from engine.joins import asof_join

    events = _read(sf_dir, "events",
                   ["event_id", "ts", "user_id", "event_type"])
    clicks = events.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click"))
        .select(["event_id", "ts", "user_id"]),
        batch_format="pyarrow",
    )
    views = (
        events.map_batches(
            lambda t: t.filter(pc.equal(t["event_type"], "view"))
            .select(["user_id", "ts", "event_id"]),
            batch_format="pyarrow",
        )
        .groupby(["user_id", "ts"])
        .aggregate(Count(alias_name="n_view"),
                   Max("event_id", alias_name="view_event"))
        .map_batches(
            lambda t: pa.table({"user_id": t["user_id"], "vts": t["ts"],
                                "n_view": t["n_view"],
                                "view_event": t["view_event"]}),
            batch_format="pyarrow",
        )
        # materialize the POST-AGGREGATION side: asof_join needs its schema
        # up front, and schema() on a pipeline containing a groupby executes
        # the shuffle — without this the aggregate ran twice (≈4 s of the
        # query was that hidden re-execution). Post-agg size is bounded by
        # distinct (user, ts), not the event stream.
        .materialize()
    )
    joined = asof_join(clicks, views, by="user_id", on="ts", right_on="vts")

    def finish(t: pa.Table) -> pa.Table:
        # sentinel-fill the no-match rows: pandas fetchdf floatifies
        # nullable BIGINTs on the oracle side, so nulls can't hash-compare
        epoch = pa.scalar(0, type=pa.timestamp("us"))
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "vts": pc.fill_null(pc.cast(t["vts"], pa.timestamp("us")), epoch),
            "view_event": pc.fill_null(pc.cast(t["view_event"], pa.int64()),
                                       -1),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def q_customers_without_orders(sf_dir: str):
    """Distributed ANTI join (engine.joins.hash_join how='anti'): customers
    with no URGENT order — the filtering-join primitive; only the right KEY
    column crosses the exchange (the priority filter runs read-side).
    DuckDB twin: NOT EXISTS."""
    from engine.joins import hash_join

    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_acctbal"])
    okeys = _read(sf_dir, "orders",
                  ["o_custkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({
            "c_custkey": t.filter(
                pc.equal(t["o_orderpriority"], "1-URGENT"))["o_custkey"],
        }),
        batch_format="pyarrow",
    )
    out = hash_join(cust, okeys, on="c_custkey", how="anti")
    return out.map_batches(
        lambda t: pa.table({
            "c_custkey": t["c_custkey"], "c_name": t["c_name"],
            "c_acctbal": pc.round(t["c_acctbal"], ndigits=2),
        }),
        batch_format="pyarrow",
    )


def q_top_parts_per_brand(sf_dir: str):
    """Group-wise top-k (engine.stats.top_k_per_group): the 3 priciest
    parts per brand, ties broken by part key. DuckDB twin: row_number()
    OVER (PARTITION BY ...)."""
    from engine.stats import top_k_per_group

    parts = _read(sf_dir, "part", ["p_partkey", "p_brand", "p_retailprice"])
    out = top_k_per_group(parts, "p_brand", "p_retailprice", 3,
                          descending=True, tiebreak_col="p_partkey")
    return out.map_batches(
        lambda t: pa.table({
            "p_brand": t["p_brand"], "p_partkey": t["p_partkey"],
            "p_retailprice": pc.round(t["p_retailprice"], ndigits=2),
        }),
        batch_format="pyarrow",
    )


def q_token_df(sf_dir: str):
    """Corpus document frequency (engine.textstats.doc_frequency — the
    partial-aggregation pattern: per-batch distinct-token Counters combine
    BEFORE the shuffle): top 50 tokens by (df desc, token)."""
    from engine.textstats import doc_frequency

    docs = _read(sf_dir, "documents", ["text"])
    return doc_frequency(docs).sort(
        ["df", "token"], descending=[True, False]
    ).limit(50)


def q_interval_attribution(sf_dir: str):
    """Range/interval join (engine.joins.interval_join): each 'click' event
    attributed to the 30-minute window opened by the user's latest 'view'
    at-or-before it (window = [view_ts, view_ts + 30 min); latest-start rule
    on overlap). DuckDB twin: LEFT JOIN LATERAL ... ORDER BY s DESC LIMIT 1."""
    from engine.joins import interval_join

    events = _read(sf_dir, "events",
                   ["event_id", "ts", "user_id", "event_type"])
    clicks = events.map_batches(
        lambda t: t.filter(pc.equal(t["event_type"], "click"))
        .select(["event_id", "ts", "user_id"]),
        batch_format="pyarrow",
    )

    def windows(t: pa.Table) -> pa.Table:
        v = t.filter(pc.equal(t["event_type"], "view"))
        starts = pc.cast(v["ts"], pa.timestamp("us"))
        return pa.table({
            "user_id": v["user_id"],
            "wstart": starts,
            "wend": pc.add(starts, pa.scalar(1_800_000_000, pa.duration("us"))),
            "view_event": v["event_id"],
        })

    # dedupe ties: one window per (user, start) — latest view event wins
    views = (
        events.map_batches(windows, batch_format="pyarrow")
        .groupby(["user_id", "wstart"])
        .aggregate(Max("wend", alias_name="wend"),
                   Max("view_event", alias_name="view_event"))
        .materialize()  # post-agg side; see q_asof_join
    )
    joined = interval_join(clicks, views, by="user_id", on="ts",
                           start_col="wstart", end_col="wend")

    def finish(t: pa.Table) -> pa.Table:
        epoch = pa.scalar(0, type=pa.timestamp("us"))
        return pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "wstart": pc.fill_null(pc.cast(t["wstart"], pa.timestamp("us")),
                                   epoch),
            "view_event": pc.fill_null(pc.cast(t["view_event"], pa.int64()),
                                       -1),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def q_rolling_spend(sf_dir: str):
    """Per-user rolling-window aggregate (engine.windows.rolling_agg):
    trailing 3-event sum of value per user, ordered by (ts, event_id).
    Values are floored to integer milli-units FIRST so the rolling sum is
    exact integer arithmetic in both engines (pandas' sliding-sum and SQL's
    frame sum can drift in the last float ulp — CLAUDE.md rounding rule).
    DuckDB twin: sum() OVER (... ROWS BETWEEN 2 PRECEDING AND CURRENT ROW).
    """
    from engine.windows import rolling_agg

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    milli = events.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"], "ts": t["ts"],
            "user_id": t["user_id"],
            "value": pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)),
                             pa.int64()),
        }),
        batch_format="pyarrow",
    )
    out = rolling_agg(milli, key_col="user_id", ts_col="ts",
                      id_col="event_id", value_col="value",
                      window=3, agg="sum")
    return out.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "value_milli": t["value"],
            "roll3_sum": pc.cast(t["roll_sum"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


def q_quantity_percentiles(sf_dir: str):
    """Exact distributed percentiles (engine.stats.exact_percentiles,
    counting-sort pattern over the bounded l_quantity domain). DuckDB twin:
    quantile_disc — verified to share the ceil(q*n) rank convention."""
    from engine.stats import exact_percentiles

    li = _read(sf_dir, "lineitem", ["l_quantity"])
    out = exact_percentiles(li, "l_quantity", qs=(0.1, 0.25, 0.5, 0.75, 0.9))
    return pa.table({"q": out["q"],
                     "value": pc.cast(out["value"], pa.int64())})


def q_doc_sample(sf_dir: str):
    """Deterministic hash sample (engine.partition.hash_sample): ~10 % of
    documents by salted md5 of doc_id — reproducible across engines, stable
    under corpus growth. DuckDB twin shares the md5 expression."""
    from engine.partition import hash_sample

    docs = _read(sf_dir, "documents", ["doc_id"])
    return hash_sample(docs, id_col="doc_id", pct=10, salt="sample")


def q_user_event_sequences(sf_dir: str):
    """Ordered per-user event-sequence assembly (engine.windows.
    collect_per_key — the conversation/episode primitive). DuckDB twin:
    string_agg(... ORDER BY ts, event_id)."""
    from engine.windows import collect_per_key

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id"])
    return collect_per_key(events, key_col="user_id",
                           order_cols=("ts", "event_id"),
                           value_col="event_id")


def q_normalize_text(sf_dir: str):
    """Unicode NFC + control-strip normalization (engine.textops.
    normalize_text_batch — the standard web-text cleaning stage). DuckDB
    twin: regexp_replace(nfc_normalize(text), ...)."""
    from engine.textops import normalize_text_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(t: pa.Table) -> pa.Table:
        out = normalize_text_batch(t)
        return pa.table({
            "doc_id": out["doc_id"],
            "text_norm": out["text_norm"],
            "n_chars": pc.cast(pc.utf8_length(out["text_norm"]), pa.int64()),
        })

    return docs.map_batches(f, batch_format="pyarrow")


def q_dedup_canonical(sf_dir: str):
    """END-TO-END near-dup kill path: MinHash-LSH clustering over the
    planted-variant corpus, then keep ONE canonical doc per cluster
    (cluster_id is the min member id by construction, so the survivor set
    is SQL-derivable: doc_id % 3 == 0 under the groups-of-3 plant)."""
    from engine.dedup import minhash_dedup_clusters

    clustered = minhash_dedup_clusters(_planted_docs(sf_dir), threshold=0.7)
    return clustered.map_batches(
        lambda t: pa.table({
            "doc_id": t.filter(
                pc.equal(t["doc_id"], t["cluster_id"]))["doc_id"],
        }),
        batch_format="pyarrow",
    )


def q_value_histogram(sf_dir: str):
    """Fixed-width distribution histogram (engine.stats.value_histogram):
    events.value in width-25 bins. DuckDB twin: floor(value/25) GROUP BY."""
    from engine.stats import value_histogram

    events = _read(sf_dir, "events", ["value"])
    return value_histogram(events, "value", 25.0)


def q_distinct_users(sf_dir: str):
    """Exact count(DISTINCT) per key (engine.stats.distinct_count_per_key):
    distinct users per event type, via local (key,value) de-dup before the
    exchange. DuckDB twin: count(DISTINCT user_id)."""
    from engine.stats import distinct_count_per_key

    events = _read(sf_dir, "events", ["event_type", "user_id"])
    return distinct_count_per_key(events, "event_type", "user_id")


def q_token_freq_score(sf_dir: str):
    """Unigram-LM scoring shape (engine.textstats.token_freq_score):
    corpus term frequencies broadcast once, per-doc vectorized lookup-sum.
    DuckDB twin: tokens JOIN tf GROUP BY doc."""
    from engine.textstats import token_freq_score

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return token_freq_score(docs)


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination (engine.dedup.mark_contaminated): flag
    documents containing any 'benchmark' snippet — snippets are chars
    10..40 of every 50th document, so the set is SQL-derivable. The corpus
    streams through one vectorized RE2 alternation pass; only the tiny
    benchmark side is collected. DuckDB twin: correlated EXISTS(contains)."""
    from engine.dedup import mark_contaminated

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def bench_side(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(pc.subtract(
                t["doc_id"],
                pc.multiply(pc.divide(t["doc_id"], 50), 50)), 0),
            pc.greater_equal(pc.utf8_length(t["text"]), 40))
        return pa.table({
            "snip": pc.utf8_slice_codeunits(
                t.filter(keep)["text"], start=10, stop=40),
        })

    snippets = [r["snip"] for r in
                docs.map_batches(bench_side, batch_format="pyarrow")
                .take_all()]
    return mark_contaminated(docs, snippets)


def q_bloom_semi_join(sf_dir: str):
    """Bloom-pruned EXACT semi join (engine.joins.bloom_semi_join):
    lineitems of URGENT orders — probe rows failing the broadcast bitmap
    test never reach the exchange; survivors are exactly verified. DuckDB
    twin: IN subquery."""
    from engine.joins import bloom_semi_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity"])
    urgent = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority"]).map_batches(
        lambda t: pa.table({
            "l_orderkey": t.filter(
                pc.equal(t["o_orderpriority"], "1-URGENT"))["o_orderkey"],
        }),
        batch_format="pyarrow",
    )
    out = bloom_semi_join(li, urgent, on="l_orderkey")
    return out.map_batches(
        lambda t: pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "l_quantity": pc.cast(t["l_quantity"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


def q_doc_repetition(sf_dir: str):
    """Gopher-style within-document repetition signals
    (engine.textstats.repetition_stats_batch): token/2-gram mode counts as
    integers. DuckDB twin: list_aggregate(toks, 'mode') + list_filter."""
    from engine.textstats import repetition_stats_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return docs.map_batches(repetition_stats_batch, batch_format="pyarrow")


def q_domain_counts(sf_dir: str):
    """URL-domain extraction + count rollup (engine.textops.url_domain,
    vectorized RE2 extract) over a planted URL column derived from doc_id
    (testdata documents carry no URL; the derivation is SQL-reproducible,
    the pdf_roundtrip trick). DuckDB twin: regexp_extract + GROUP BY."""
    from ray.data.aggregate import Count
    from engine.textops import url_domain

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant_and_extract(t: pa.Table) -> pa.Table:
        urls = pc.binary_join_element_wise(
            "https://site",
            # doc_id % 97 via integer divide (Arrow int division truncates;
            # doc_id >= 0 so trunc == floor)
            pc.cast(pc.subtract(
                t["doc_id"],
                pc.multiply(pc.divide(t["doc_id"], 97), 97)), pa.string()),
            ".example.com/page/",
            pc.cast(t["doc_id"], pa.string()),
            "",
        )
        return pa.table({"domain": url_domain(urls)})

    return (docs.map_batches(plant_and_extract, batch_format="pyarrow")
            .groupby("domain").aggregate(Count(alias_name="n")))


EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def q_event_type_pivot(sf_dir: str):
    """Categorical pivot (engine.stats.pivot_counts): per-user event-type
    count columns via vectorized 0/1 indicators + map-side-combined Sums.
    DuckDB twin: count(*) FILTER (WHERE ...) per category."""
    from engine.stats import pivot_counts

    events = _read(sf_dir, "events", ["user_id", "event_type"])
    return pivot_counts(events, "user_id", "event_type", EVENT_TYPES)


def q_orders_rollup(sf_dir: str):
    """ROLLUP subtotals (engine.stats.grouping_rollup): order count and
    total price by (status, priority), by status, and grand total — one
    distributed groupby, coarser levels re-aggregated from its result.
    DuckDB twin: GROUP BY ROLLUP."""
    from engine.stats import grouping_rollup

    orders = _read(sf_dir, "orders",
                   ["o_orderstatus", "o_orderpriority", "o_totalprice"])
    out = grouping_rollup(orders, ["o_orderstatus", "o_orderpriority"],
                          "o_totalprice")
    return pa.table({
        "o_orderstatus": out["o_orderstatus"],
        "o_orderpriority": out["o_orderpriority"],
        "n": out["n"],
        # 2-decimal prices sum to exact-cent boundaries, where half-even
        # (Arrow) and half-away (DuckDB) rounding disagree — emit integer
        # cents (sum*100 is ~integer, never near .5; see CLAUDE.md)
        "sum_cents": pc.cast(
            pc.round(pc.multiply(out["sum_value"], 100.0), ndigits=0),
            pa.int64()),
    })


def q_session_windows(sf_dir: str):
    """Gap-based session windows per user (engine.windows.sessionize;
    1-hour gap). DuckDB twin is the gaps-and-islands window idiom."""
    from engine.windows import sessionize

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    out = sessionize(events, key_col="user_id", ts_col="ts",
                     id_col="event_id", value_col="value", gap_s=3600.0)

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": t["user_id"],
            "session_start": t["session_start"],
            "session_end": t["session_end"],
            "n_events": t["n_events"],
            "sum_value": pc.round(t["sum_value"], ndigits=6),
        })

    return out.map_batches(finish, batch_format="pyarrow")


def q_stable_split(sf_dir: str):
    """Deterministic hash-based train/val/test split over documents
    (engine.partition.stable_split): membership is a pure function of the
    id, reproduced verbatim in SQL."""
    from engine.partition import stable_split

    docs = _read(sf_dir, "documents", ["doc_id"])
    return stable_split(docs).select_columns(["doc_id", "split"])


def _mod_i64(arr, m: int):
    """Arrow int modulo (no pc.mod kernel): a - (a // m) * m; inputs >= 0 so
    truncating divide == floor divide."""
    return pc.subtract(arr, pc.multiply(pc.divide(arr, m), m))


def q_pii_redact(sf_dir: str):
    """PII scrubbing (engine.textops.redact_pii_batch — vectorized RE2
    mask + count, no Python per row) over documents with a deterministic
    doc_id-derived email+phone planted per row (testdata carries no natural
    PII; the plant is SQL-reproducible, the pdf_roundtrip trick).
    Output: (doc_id, n_email, n_phone, text_clean)."""
    from engine.textops import redact_pii_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def plant_and_redact(t: pa.Table) -> pa.Table:
        sid = pc.cast(t["doc_id"], pa.string())
        mail = pc.binary_join_element_wise(
            "user", sid, "@mail",
            pc.cast(_mod_i64(t["doc_id"], 7), pa.string()),
            ".example.com", "")
        phone = pc.binary_join_element_wise(
            "+1-",
            pc.utf8_lpad(pc.cast(_mod_i64(t["doc_id"], 1000), pa.string()),
                         width=3, padding="0"),
            "-555-",
            pc.utf8_lpad(pc.cast(_mod_i64(t["doc_id"], 10000), pa.string()),
                         width=4, padding="0"),
            "")
        planted = pc.binary_join_element_wise(
            t["text"], " Contact ", mail, " or ", phone, ".", "")
        out = redact_pii_batch(
            pa.table({"doc_id": t["doc_id"], "text": planted}))
        return out.select(["doc_id", "n_email", "n_phone", "text_clean"])

    return docs.map_batches(plant_and_redact, batch_format="pyarrow")


def q_value_percentiles_by_type(sf_dir: str):
    """Per-group exact percentiles (engine.stats.group_percentiles — one
    (key, value)->Count partial-agg exchange, counting-sort ranks): p25/50/75
    of integer-milli event value per event_type. DuckDB twin: grouped
    quantile_disc (list form — quantile params must be constants)."""
    from engine.stats import group_percentiles

    events = _read(sf_dir, "events", ["event_type", "value"])
    milli = events.map_batches(
        lambda t: pa.table({
            "event_type": t["event_type"],
            "v": pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)),
                         pa.int64()),
        }),
        batch_format="pyarrow",
    )
    return group_percentiles(milli, "event_type", "v", qs=(0.25, 0.5, 0.75))


def q_latest_event_per_user(sf_dir: str):
    """Latest-state-per-key snapshot (engine.dedup.first_per_key with
    keep='last' — the CDC-compaction primitive, same single key-hash-bucket
    exchange): each user's max-(ts, event_id) event. DuckDB twin:
    row_number() OVER (... ORDER BY ts DESC, event_id DESC) = 1."""
    from engine.dedup import first_per_key

    events = _read(sf_dir, "events", ["user_id", "ts", "event_id", "value"])
    milli = events.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "ts": t["ts"],
            "event_id": t["event_id"],
            "value_milli": pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)),
                                   pa.int64()),
        }),
        batch_format="pyarrow",
    )
    return first_per_key(milli, key_col="user_id", keep="last")


def q_top_bigrams(sf_dir: str):
    """Corpus bigram counts (engine.textstats.bigram_counts — vectorized
    Arrow pair construction + in-batch count, partials combined map-side):
    top 50 by (n desc, bigram). DuckDB twin: list_transform adjacent pairs
    from regexp_extract_all('\\S+')."""
    from engine.textstats import bigram_counts

    docs = _read(sf_dir, "documents", ["text"])
    return bigram_counts(docs).sort(
        ["n", "bigram"], descending=[True, False]).limit(50)


def q_event_gaps(sf_dir: str):
    """Per-user inter-event gap in integer microseconds
    (engine.windows.lag_delta — one key-hash-bucket exchange, one
    vectorized diff per bucket; -1 marks each user's first event).
    DuckDB twin: epoch_us(ts) - lag(epoch_us(ts)) OVER (...)."""
    from engine.windows import lag_delta

    events = _read(sf_dir, "events", ["user_id", "ts", "event_id"])
    return lag_delta(events, key_col="user_id", ts_col="ts",
                     id_col="event_id")


def q_region_revenue(sf_dir: str):
    """Star-schema join chain orders ⋈ customer ⋈ nation ⋈ region → revenue
    per region: the dimension chain (region→nation, 5 x 25 rows) folds
    driver-side into one custkey→region broadcast attach (zero shuffles for
    the small sides), then ONE narrow all-to-all joins orders against the
    tagged customers (engine.joins.hash_join) and a partial-agg groupby
    finishes. Integer cents sidestep the half-even/half-away divergence."""
    import pyarrow.parquet as pq

    from engine.broadcast import get_broadcast
    from engine.joins import hash_join

    nation = pq.read_table(os.path.join(sf_dir, "nation.parquet"),
                           columns=["n_nationkey", "n_regionkey"])
    region = pq.read_table(os.path.join(sf_dir, "region.parquet"),
                           columns=["r_regionkey", "r_name"])
    idx = pc.index_in(nation["n_regionkey"], value_set=region["r_regionkey"])
    nat_region = pa.table({
        "n_nationkey": nation["n_nationkey"].combine_chunks(),
        "r_name": pc.take(region["r_name"].combine_chunks(), idx),
    })
    lookup_ref = ray.put((nat_region["n_nationkey"].combine_chunks(),
                          nat_region["r_name"].combine_chunks()))

    def attach_region(t: pa.Table) -> pa.Table:
        keys, names = get_broadcast(lookup_ref)
        i = pc.index_in(t["c_nationkey"], value_set=keys)
        return pa.table({"ckey": t["c_custkey"],
                         "r_name": pc.take(names, i)})

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]) \
        .map_batches(attach_region, batch_format="pyarrow")
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]) \
        .map_batches(
            lambda t: pa.table({"ckey": t["o_custkey"],
                                "o_totalprice": t["o_totalprice"]}),
            batch_format="pyarrow")
    joined = hash_join(orders, cust, on="ckey")
    agg = joined.groupby("r_name").aggregate(
        Count(alias_name="n_orders"),
        Sum("o_totalprice", alias_name="sum_price"))
    t = agg.to_pandas()
    out = pa.table({
        "r_name": t["r_name"],
        "n_orders": t["n_orders"].astype("int64"),
        "sum_cents": (t["sum_price"] * 100.0).round(0).astype("int64"),
    })
    return out


STRAT_RATES = {"click": 50, "view": 10}


def q_stratified_sample(sf_dir: str):
    """Per-stratum deterministic sampling (engine.partition.
    stratified_sample — domain/language rebalancing, no shuffle): keep 50%
    of clicks, 10% of views, 25% of everything else by salted md5 of
    (stratum, id). SQL twin: the same md5 expression + CASE rate."""
    from engine.partition import stratified_sample

    events = _read(sf_dir, "events", ["event_id", "user_id", "event_type"])
    return stratified_sample(events, strata_col="event_type",
                             id_col="event_id", rates=STRAT_RATES,
                             default_pct=25) \
        .select_columns(["event_id", "user_id", "event_type"])


def q_hopping_window(sf_dir: str):
    """Hopping-window aggregate (engine.windows.hopping_window): 1-hour
    windows every 15 min per event_type — each event in 4 overlapping
    windows, expansion collapsed by per-block Acero pre-agg before the
    exchange. DuckDB twin: generate_series(0, 3) cross join."""
    from engine.windows import hopping_window

    events = _read(sf_dir, "events", ["event_type", "ts", "value"])
    out = hopping_window(events, key_col="event_type", ts_col="ts",
                         value_col="value", size_s=3600, hop_s=900)
    df = out.to_pandas()
    df["sum_value"] = df["sum_value"].round(6)
    return df


def q_tfidf_terms(sf_dir: str):
    """Integer-scored tf-idf keyword extraction
    (engine.textstats.tfidf_top_terms): top-3 terms per document by
    tf * (bitlen(n_docs) - bitlen(df) + 1), ties by token. DuckDB twin:
    the same tf/df CTEs with length(bin(x)) as the exact bit length."""
    import pyarrow.parquet as pq

    from engine.textstats import tfidf_top_terms

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    return tfidf_top_terms(docs, n_docs=n_docs, k=3) \
        .select_columns(["doc_id", "token", "tf", "df", "score"])


def q_value_outliers(sf_dir: str):
    """Per-group Tukey-fence outlier filter (engine.stats.iqr_outliers):
    events whose integer-milli value exceeds q3 + (3*(q3-q1))//2 for their
    event_type. DuckDB twin: grouped quantile_disc + integer fence join."""
    from engine.stats import iqr_outliers

    events = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    milli = events.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"],
            "event_type": t["event_type"],
            "v": pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)),
                         pa.int64()),
        }),
        batch_format="pyarrow",
    )
    return iqr_outliers(milli, "event_type", "v") \
        .select_columns(["event_id", "event_type", "v"])


def q_event_ntile(sf_dir: str):
    """Per-key NTILE(4) rank bucketing (engine.windows.ntile_per_key):
    which quarter of the user's event history each event falls in —
    SQL-standard fat-buckets-first semantics, vectorized across all keys
    per hash bucket. DuckDB twin: ntile(4) OVER (PARTITION BY user_id)."""
    from engine.windows import ntile_per_key

    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    out = ntile_per_key(events, key_col="user_id",
                        order_cols=("ts", "event_id"), k=4)
    return out.select_columns(["event_id", "user_id", "ntile"])


def q_inverted_index(sf_dir: str):
    """Posting-list assembly (engine.textstats.inverted_index): per token,
    document frequency + first-10 ascending doc ids as a ',' string —
    truncated BEFORE string assembly so hot tokens stay bounded. DuckDB
    twin: list(doc_id ORDER BY doc_id)[1:10]."""
    from engine.textstats import inverted_index

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return inverted_index(docs, max_postings=10) \
        .select_columns(["token", "df", "posting"])


def q_user_drift(sf_dir: str):
    """Two-snapshot per-key drift audit (engine.stats.snapshot_diff): the
    even-event_id half of events vs the odd half, per-user row counts and
    integer-milli value sums with deltas — each side collapses to O(keys)
    map-side before ONE full-outer hash_join. DuckDB twin: FULL JOIN of
    two filtered aggregates with COALESCE."""
    from engine.stats import snapshot_diff

    events = _read(sf_dir, "events", ["event_id", "user_id", "value"])
    milli = events.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "v": pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)),
                         pa.int64()),
        }),
        batch_format="pyarrow",
    ).materialize()  # feeds BOTH snapshot filters — avoid double read

    def parity(p):
        return lambda t: t.filter(
            pc.equal(_mod_i64(t["event_id"], 2), p))

    even = milli.map_batches(parity(0), batch_format="pyarrow")
    odd = milli.map_batches(parity(1), batch_format="pyarrow")
    return snapshot_diff(even, odd, "user_id", "v")


def q_skew_join(sf_dir: str):
    """Hot-key salted join (engine.joins.salted_join): lineitem with a
    deliberately skewed supplier key — every l_orderkey%3==0 row remaps to
    supplier 1, putting ~1/3 of the fact table on ONE key — joined to
    supplier. The hot key's fact rows spread across 8 sub-buckets; the one
    hot supplier row is replicated into each. DuckDB twin: the plain join
    (salting is plan-only — the output multiset is identical)."""
    from engine.joins import salted_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_suppkey", "l_quantity"])

    def skew(t: pa.Table) -> pa.Table:
        k = pc.if_else(pc.equal(_mod_i64(t["l_orderkey"], 3), 0),
                       pa.scalar(1, pa.int64()),
                       pc.cast(t["l_suppkey"], pa.int64()))
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "l_linenumber": t["l_linenumber"],
            "k": k,
            "l_quantity": pc.cast(t["l_quantity"], pa.int64()),
        })

    fact = li.map_batches(skew, batch_format="pyarrow")
    sup = _read(sf_dir, "supplier", ["s_suppkey", "s_name"]).map_batches(
        lambda t: pa.table({"k": pc.cast(t["s_suppkey"], pa.int64()),
                            "s_name": t["s_name"]}),
        batch_format="pyarrow")
    out = salted_join(fact, sup, on="k", hot_keys={1}, salt=8)
    return out.select_columns(
        ["l_orderkey", "l_linenumber", "k", "l_quantity", "s_name"])


def q_user_top_event(sf_dir: str):
    """Per-key modal value (engine.stats.mode_per_key): each user's most
    frequent event_type, ties to the lexicographically smallest. DuckDB
    twin: row_number() OVER (ORDER BY count(*) DESC, event_type) = 1."""
    from engine.stats import mode_per_key

    events = _read(sf_dir, "events", ["user_id", "event_type"])
    return mode_per_key(events, "user_id", "event_type") \
        .select_columns(["user_id", "event_type", "n"])


def q_funnel(sf_dir: str):
    """Ordered funnel completion (engine.windows.funnel): per user the
    earliest view → click → purchase chain (each step at-or-after the
    previous; missing step nulls the rest). DuckDB twin: chained
    filtered-min CTEs; nulls sentinel to epoch for hashability."""
    from engine.windows import funnel

    events = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    out = funnel(events, steps=("view", "click", "purchase"))

    epoch = pa.scalar(0, pa.timestamp("us"))

    def finish(t: pa.Table) -> pa.Table:
        cols = {"user_id": t["user_id"]}
        for s in ("view", "click", "purchase"):
            cols[f"t_{s}"] = pc.coalesce(
                pc.cast(t[f"t_{s}"], pa.timestamp("us")), epoch)
        cols["n_steps"] = pc.cast(t["n_steps"], pa.int64())
        return pa.table(cols)

    return out.map_batches(finish, batch_format="pyarrow")


def q_hll_events(sf_dir: str):
    """HyperLogLog register table (engine.stats.hll_registers) over
    event_id — the approximate-distinct sketch whose exchange carries ≤ m
    integers per block. Integer-exact DuckDB twin: 60-bit md5 slice, top 8
    bits = register, rho via length(bin(low)) (both sides exact)."""
    from engine.stats import hll_registers

    events = _read(sf_dir, "events", ["event_id"])
    return hll_registers(events, "event_id", m=256)


def q_components(sf_dir: str):
    """Connected components (engine.graph.connected_components) over a
    deterministic user graph: edges (u, u+1) for u % 10 != 9 chain users
    into blocks of ten — propagation must walk diameter ~9, a real
    multi-round fixpoint. DuckDB twin: WITH RECURSIVE reachability + min
    label."""
    from engine.graph import connected_components

    events = _read(sf_dir, "events", ["user_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        import numpy as np

        u = t["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        u = u[u % 10 != 9]
        return pa.table({"src": u, "dst": u + 1})

    edges = events.map_batches(mk_edges, batch_format="pyarrow")
    return connected_components(edges)


def q_strip_lines(sf_dir: str):
    """C4-style repeated-line removal (engine.textstats.
    strip_repeated_lines) over planted multi-line docs derived from doc_id:
    a corpus-wide header/footer and hot 'sec k' lines (> 2 occurrences)
    are dropped; the unique and exactly-paired lines survive, reassembled
    in order. DuckDB twin: the same explode → HAVING > 2 → NOT IN →
    ordered string_agg chain."""
    from engine.textstats import strip_repeated_lines

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())
        m7 = pc.cast(pc.subtract(d, pc.multiply(pc.divide(d, 7), 7)),
                     pa.string())
        half = pc.cast(pc.divide(d, 2), pa.string())
        text = pc.binary_join_element_wise(
            "shared header",
            pc.binary_join_element_wise("sec ", m7, ""),
            pc.binary_join_element_wise("uniq ", ds_, ""),
            pc.binary_join_element_wise("pair ", half, ""),
            "shared footer",
            "\n")
        return pa.table({"doc_id": d, "text": text})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return strip_repeated_lines(planted, max_occurrences=2)


def q_dedup_paragraphs(sf_dir: str):
    """Keep-first exact paragraph dedup (engine.textstats.
    dedup_paragraphs — RefinedWeb §4.2 semantics) over the same planted
    multi-line docs as strip_lines: the corpus-wide header/footer survive
    only in the minimum doc, each 'sec k' line only in the first doc of
    its residue class, each 'pair k' line only in the even doc of its
    pair, 'uniq d' everywhere. DuckDB twin: min composite key per
    paragraph, decoded back to (doc_id, pos) and re-agged in order."""
    from engine.textstats import dedup_paragraphs

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())
        m7 = pc.cast(pc.subtract(d, pc.multiply(pc.divide(d, 7), 7)),
                     pa.string())
        half = pc.cast(pc.divide(d, 2), pa.string())
        text = pc.binary_join_element_wise(
            "shared header",
            pc.binary_join_element_wise("sec ", m7, ""),
            pc.binary_join_element_wise("uniq ", ds_, ""),
            pc.binary_join_element_wise("pair ", half, ""),
            "shared footer",
            "\n")
        return pa.table({"doc_id": d, "text": text})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return dedup_paragraphs(planted)


def q_cluster_split(sf_dir: str):
    """Leakage-safe train/val/test split (engine.partition.cluster_split):
    planted near-dup chains (d, d+1) for d % 10 != 9 group documents into
    ten-blocks; each block shares ONE split drawn from
    md5('split:'||cluster). DuckDB twin: cluster = min(doc_id) OVER
    (PARTITION BY doc_id // 10) — the chain structure in closed form
    (propagation itself is pinned by q_components' recursive twin) — plus
    the stable_split md5 bucket expression on the cluster id."""
    from engine.partition import cluster_split

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = d[d % 10 != 9]
        return pa.table({"src": d, "dst": d + 1})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return cluster_split(docs, edges)


def q_meta_refresh(sf_dir: str):
    """Meta-refresh soft-redirect extraction (engine.links.
    extract_meta_refresh) over planted pages: d%4 = 0 absolute target,
    1 root-relative with uppercase URL=, 2 directory-relative with a
    fragment to strip, 3 a delay-only timer (d%8==3) or no directive —
    both dropped. DuckDB twin: the same RE2 extraction + CASE resolver
    as the outlinks oracle."""
    from engine.links import extract_meta_refresh

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        sd = pc.cast(d, pa.string())
        m7 = pc.cast(_mod_i64(d, 7), pa.string())
        m3 = pc.cast(_mod_i64(d, 3), pa.string())
        url = pc.binary_join_element_wise(
            "https://ex", m7, ".com/d", m3, "/p", sd, "")
        j7 = pc.cast(_mod_i64(pc.add(d, 1), 7), pa.string())
        c0 = pc.binary_join_element_wise(
            '<meta http-equiv="refresh" content="0; url=https://ex',
            j7, '.com/home">', "")
        c1 = pc.binary_join_element_wise(
            '<meta http-equiv="refresh" content="5;URL=/next', sd, '">',
            "")
        c2 = pc.binary_join_element_wise(
            '<meta http-equiv="refresh" content="2; url=go', sd,
            '.html#frag">', "")
        c3 = pc.if_else(
            pc.equal(_mod_i64(d, 8), 3),
            pa.scalar('<meta http-equiv="refresh" content="300">'),
            pa.scalar(""))
        m4 = _mod_i64(d, 4)
        meta = pc.if_else(
            pc.equal(m4, 0), c0,
            pc.if_else(pc.equal(m4, 1), c1,
                       pc.if_else(pc.equal(m4, 2), c2, c3)))
        html = pc.binary_join_element_wise(
            "<html><head><title>t</title>", meta,
            "</head><body>x</body></html>", "")
        return pa.table({"url": url, "html": html})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return extract_meta_refresh(planted)


def q_feed(sf_dir: str):
    """RSS/Atom feed extraction (engine.links.extract_feed) over planted
    feeds: d%3==0 an RSS channel (one full item, one linkless item that
    drops, one empty-title item), d%3==1 an Atom feed (one full entry,
    one link-only entry), d%3==2 not a feed. DuckDB twin: the sitemap
    oracle's block regexp_extract_all + LATERAL renumbering."""
    from engine.links import extract_feed

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        sd = pc.cast(d, pa.string())
        m = pc.cast(_mod_i64(d, 10), pa.string())
        day = pc.cast(pc.add(_mod_i64(d, 9), 1), pa.string())
        url = pc.binary_join_element_wise(
            "https://h", m, "/feed", sd, ".xml", "")
        rss = pc.binary_join_element_wise(
            "<rss><channel><title>chan</title><link>https://h", m,
            "/</link>",
            "<item><title>T", sd, "a</title><link> https://h", m, "/a", sd,
            " </link><pubDate>2024-01-", day, "</pubDate></item>",
            "<item><title>orphan</title></item>",
            "<item><title></title><link>https://h", m, "/b", sd,
            "</link></item>",
            "</channel></rss>", "")
        atom = pc.binary_join_element_wise(
            "<feed><title>f</title><entry><title>A", sd,
            '</title><link rel="alternate" href="https://h', m, "/e", sd,
            '"/><updated>2024-02-', day, "</updated></entry>",
            '<entry><link href="https://h', m, "/f", sd, '"/></entry>',
            "</feed>", "")
        m3 = _mod_i64(d, 3)
        xml = pc.if_else(
            pc.equal(m3, 0), rss,
            pc.if_else(pc.equal(m3, 1), atom,
                       pa.scalar("<html><body>not a feed</body></html>")))
        return pa.table({"url": url, "xml": xml})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return extract_feed(planted)


def q_hreflang(sf_dir: str):
    """Language-alternate extraction (engine.links.extract_hreflang) over
    planted pages: d%4 = 0 two alternates (es absolute + fr root-relative,
    attribute orders swapped), 1 one alternate (de, directory-relative),
    2 a stylesheet link (wrong rel — dropped), 3 no links. DuckDB twin:
    link-tag regexp_extract_all + LIKE rel test + the CASE resolver."""
    from engine.links import extract_hreflang

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        sd = pc.cast(d, pa.string())
        m7 = pc.cast(_mod_i64(d, 7), pa.string())
        m3 = pc.cast(_mod_i64(d, 3), pa.string())
        url = pc.binary_join_element_wise(
            "https://ex", m7, ".com/d", m3, "/p", sd, "")
        l0 = pc.binary_join_element_wise(
            '<link rel="alternate" hreflang="es" href="https://es.ex',
            m7, '.com/p', sd, '">',
            '<link hreflang="fr" href="/fr/p', sd, '" rel="alternate">',
            "")
        l1 = pc.binary_join_element_wise(
            '<link rel="alternate" href="de/p', sd, '" hreflang="de">',
            "")
        m4 = _mod_i64(d, 4)
        links = pc.if_else(
            pc.equal(m4, 0), l0,
            pc.if_else(pc.equal(m4, 1), l1,
                       pc.if_else(pc.equal(m4, 2),
                                  pa.scalar('<link rel="stylesheet" '
                                            'href="/s.css">'),
                                  pa.scalar(""))))
        html = pc.binary_join_element_wise(
            "<html><head>", links, "</head><body>x</body></html>", "")
        return pa.table({"url": url, "html": html})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return extract_hreflang(planted)


def q_domain_prior(sf_dir: str):
    """Per-domain prior attach (engine.stats.attach_group_stat): documents
    keyed into 20 planted domains; each row gains its domain's total
    char count and row count — the host-level quality-prior join of a
    web pipeline, zero row movement on the broadcast plan. DuckDB twin:
    SUM/COUNT OVER (PARTITION BY domain)."""
    from engine.stats import attach_group_stat

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def prep(t: pa.Table) -> pa.Table:
        dom = pc.binary_join_element_wise(
            "d", pc.cast(_mod_i64(t["doc_id"], 20), pa.string()), "")
        return pa.table({
            "doc_id": t["doc_id"],
            "domain": dom,
            "nchars": pc.cast(pc.utf8_length(t["text"]), pa.int64()),
        })

    rows = docs.map_batches(prep, batch_format="pyarrow")
    return attach_group_stat(rows, "domain", "nchars",
                             sum_name="domain_sum", n_name="domain_n")


def q_anchor_corpus(sf_dir: str):
    """Inbound anchor-text corpus (engine.links.anchor_corpus) over the
    anchor_texts planted pages: '/a/i' targets collect one anchor each,
    'b(i%9).html' targets collect one per (i%4, i%9) class — a real
    multi-source aggregation; '#f' anchors drop. DuckDB twin: the
    anchor_texts extraction + CASE resolver + ordered string_agg per
    target."""
    from engine.links import anchor_corpus

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_pages(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://an{i % 4}.ex.com/p/{i}")
            htmls.append(
                f'<html><p>intro</p><a href="/a/{i}">first {i}</a> mid '
                f'<a href="b{i % 9}.html" class="x">second-{i % 5}</a>'
                '<a href="#f">frag anchor</a></html>')
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    pages = docs.map_batches(mk_pages, batch_format="pyarrow")
    return anchor_corpus(pages)


def q_outline(sf_dir: str):
    """Heading-outline extraction (engine.links.extract_outline) over
    planted pages: an attributed h1, an h2 with inline markup to strip,
    a whitespace-only h2 (drops), a second real h2, an h3 on even docs,
    and an unclosed h4 (drops). DuckDB twin: per-level non-greedy
    regexp_extract_all + tag-strip + trim + ordinal renumbering."""
    from engine.links import extract_outline

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        sd = pc.cast(d, pa.string())
        m7 = pc.cast(_mod_i64(d, 7), pa.string())
        m3 = pc.cast(_mod_i64(d, 3), pa.string())
        url = pc.binary_join_element_wise("https://o", m7, ".ex/p", sd, "")
        h3 = pc.if_else(
            pc.equal(_mod_i64(d, 2), 0),
            pc.binary_join_element_wise("<h3>Deep ", sd, "</h3>", ""),
            pa.scalar(""))
        html = pc.binary_join_element_wise(
            '<html><body><h1 class="t">Title ', sd, "</h1>",
            "<p>x</p><h2>Sec <em>", m7, "</em></h2>",
            "<h2>  </h2>",
            "<h2>More ", m3, "</h2>",
            h3,
            "<h4>oops</body></html>", "")
        return pa.table({"url": url, "html": html})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return extract_outline(planted)


def q_compression(sf_dir: str):
    """Per-doc zlib compressibility signal (engine.textstats.
    compression_signal) over the real documents table — the Gopher/Dolma
    repetitiveness filter input. No SQL twin (DuckDB has no zlib):
    driver rows-only check; exact values pytest-pinned against direct
    zlib calls."""
    from engine.textstats import compression_signal

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return compression_signal(docs)


def q_video_stats(sf_dir: str):
    """REAL video decode path (engine.multimodal.video_stats over
    engine.videocodec.decode_avi): planted uncompressed-DIB AVIs with
    doc_id-derived frame counts, dimensions and constant colors, so
    first-frame channel sums are closed-form. DuckDB twin: pure
    arithmetic."""
    from engine.multimodal import video_stats
    from engine.videocodec import encode_avi

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        ids, payloads = [], []
        for d in t["doc_id"].to_pylist():
            w, h, nf = 4 + d % 3, 3 + d % 2, 2 + d % 3
            col = np.array([d % 256, (2 * d) % 256, (3 * d) % 256],
                           np.uint8)
            frames = [np.broadcast_to(col, (h, w, 3)).copy()
                      for _ in range(nf)]
            ids.append(d)
            payloads.append(encode_avi(frames))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    return video_stats(docs.map_batches(plant, batch_format="pyarrow"))


def q_mjpeg_video(sf_dir: str):
    """COMPRESSED video decode path: planted Motion-JPEG AVIs
    (engine.videocodec MJPG lane over engine.jpegcodec) with
    doc_id-derived frame counts, multiple-of-8 dimensions and constant
    GRAY frames (exact through the all-ones-quantization JPEG codec).
    Every even doc_id is written in the OpenDML "AVI1" stripped-DHT form,
    so the T.81 Annex K table-injection path
    (jpegcodec.inject_std_huffman) is driver-gated too. DuckDB twin:
    pure arithmetic."""
    from engine.multimodal import video_stats
    from engine.videocodec import encode_avi

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        ids, payloads = [], []
        for d in t["doc_id"].to_pylist():
            w, h, nf = 8 * (1 + d % 2), 8 * (1 + d % 3), 2 + d % 3
            gray = np.full((h, w, 3), d % 256, np.uint8)
            ids.append(d)
            payloads.append(encode_avi([gray] * nf, codec="MJPG",
                                       avi1=(d % 2 == 0)))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    return video_stats(docs.map_batches(plant, batch_format="pyarrow"))


def q_jsonl_roundtrip(sf_dir: str):
    """JSONL source/sink lane (Dolma-style text-corpus shards): documents
    → ``Dataset.write_json`` shards under /tmp → ``ray.data.read_json``
    back — the registry's newline-delimited-JSON ingest path, pinned by a
    full write→read value roundtrip. DuckDB twin: the direct table (the
    roundtrip must be lossless)."""
    import shutil
    import tempfile

    import ray.data as rd

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # fixed, reused scratch path (keyed by sf dir): repeated bench/gate
    # invocations must not grow /tmp without bound
    out_dir = os.path.join(
        tempfile.gettempdir(),
        "graft_jsonl_" + os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)
    docs.write_json(out_dir)
    back = rd.read_json(out_dir)
    return back.map_batches(
        lambda t: t.select(["doc_id", "text"]), batch_format="pyarrow")


def q_robots_sitemaps(sf_dir: str):
    """Sitemap discovery from robots.txt (engine.filters.robots_sitemaps)
    over planted per-host files: h%3==0 two directives (one behind a
    comment tail, one lowercase key), h%3==1 one indented uppercase-key
    directive, h%3==2 none. DuckDB twin: line explode + comment strip +
    the same RE2 extraction + ordinal renumbering."""
    from engine.filters import robots_sitemaps

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        sd = pc.cast(d, pa.string())
        m = _mod_i64(d, 3)
        host = pc.binary_join_element_wise("h", sd, ".ex", "")
        r0 = pc.binary_join_element_wise(
            "User-agent: *\nDisallow: /tmp\n",
            "Sitemap: https://h", sd, ".ex/sm1.xml # main\n",
            "sitemap: https://h", sd, ".ex/sm2.xml\n", "")
        r1 = pc.binary_join_element_wise(
            "# header\n  SITEMAP:https://h", sd, ".ex/only.xml\n",
            "User-agent: *\nAllow: /\n", "")
        robots = pc.if_else(
            pc.equal(m, 0), r0,
            pc.if_else(pc.equal(m, 1), r1,
                       pa.scalar("User-agent: *\nDisallow:\n")))
        return pa.table({"host": host, "robots_txt": robots})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return robots_sitemaps(planted)


def q_frontier(sf_dir: str):
    """Crawl-frontier assembly — the discover→dedup→schedule capstone:
    outlink targets (even docs carry html) UNION sitemap locs (odd docs
    carry xml), counted per target with a map-side Acero pre-agg + one
    narrow groupby, then ANTI hash_join against the corpus's own URLs;
    output = the next crawl wave (url, n_refs). The extractions
    themselves are value-pinned by the outlinks/sitemap oracles, so the
    DuckDB twin builds the planted targets directly and pins the
    union + count + anti-join composition."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from engine.joins import hash_join
    from engine.links import extract_outlinks, extract_sitemap
    from engine.stats import acero_counts

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        urls, htmls, xmls = [], [], []
        for d in t["doc_id"].to_pylist():
            urls.append(f"https://c{d % 5}.ex/p{d}")
            if d % 2 == 0:
                j = (d + 2) % n
                htmls.append(
                    f'<a href="https://c{j % 5}.ex/p{j}">'
                    f'<a href="https://new{d % 7}.ex/x{d % 50}">')
                xmls.append("")
            else:
                j = (d + 3) % n
                htmls.append("")
                xmls.append(
                    f"<urlset><url><loc>https://c{j % 5}.ex/p{j}</loc>"
                    f"</url><url><loc>https://new{d % 7}.ex/y{d % 50}"
                    f"</loc></url></urlset>")
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "html": pa.array(htmls, type=pa.string()),
            "xml": pa.array(xmls, type=pa.string()),
        })

    pages = docs.map_batches(plant, batch_format="pyarrow") \
        .materialize()  # 3 consumers (lazy-re-execution rule)

    out_edges = extract_outlinks(pages).map_batches(
        lambda t: pa.table({"url": t["dst"]}), batch_format="pyarrow")
    sm_locs = extract_sitemap(pages).map_batches(
        lambda t: pa.table(
            {"url": t.filter(pc.equal(t["kind"], "url"))["loc"]}),
        batch_format="pyarrow")
    counts = (out_edges.union(sm_locs)
              .map_batches(lambda t: acero_counts(t, ["url"]),
                           batch_format="pyarrow")
              .groupby("url").aggregate(Sum("n", alias_name="n_refs"))
              .materialize())  # hash_join reads schemas up front
    corpus = pages.map_batches(lambda t: t.select(["url"]),
                               batch_format="pyarrow")
    return hash_join(counts, corpus, on="url", how="anti")


def q_term_search(sf_dir: str):
    """Conjunctive term search (engine.textstats.term_search) over the
    real documents table: docs containing ALL of (hash, merge, window),
    ranked by total query-term frequency then doc_id. DuckDB twin:
    token explode + IN filter + HAVING-all-terms + row_number rank."""
    from engine.textstats import term_search

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return term_search(docs, ("hash", "merge", "window"))


def q_phrase_search(sf_dir: str):
    """Exact phrase search (engine.phrase.phrase_search) for the 2-gram
    'batch batch' over the real documents table — overlapping occurrences
    count (a 'batch batch batch' run yields 2 hits). DuckDB twin:
    positional token explode + adjacency self-joins + row_number rank."""
    from engine.phrase import phrase_search

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return phrase_search(docs, ("batch", "batch"))


def q_url_features(sf_dir: str):
    """URL-shape features (engine.links.url_features) over planted URLs
    covering deep paths with query+fragment, shallow pages, bare roots
    and empty-query downloads. DuckDB twin: the same RE2 extractions
    (host / path / query) + regexp_extract_all counts. Convention pinned
    by the twin: a present-but-empty query counts as 1 parameter."""
    from engine.links import url_features

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        sd = pc.cast(d, pa.string())
        m9 = pc.cast(_mod_i64(d, 9), pa.string())
        u0 = pc.binary_join_element_wise(
            "https://w", m9, ".ex/a", sd, "/b/c?x=1&y=", sd, "#frag", "")
        u1 = pc.binary_join_element_wise(
            "https://w", m9, ".ex/p", sd, "")
        u2 = pc.binary_join_element_wise("https://w", m9, ".ex/", "")
        u3 = pc.binary_join_element_wise(
            "http://w", m9, ".ex/dl/f", sd, ".pdf?", "")
        m4 = _mod_i64(d, 4)
        url = pc.if_else(
            pc.equal(m4, 0), u0,
            pc.if_else(pc.equal(m4, 1), u1,
                       pc.if_else(pc.equal(m4, 2), u2, u3)))
        return pa.table({"url": url})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return url_features(planted)


def q_corpus_prep2(sf_dir: str):
    """Round-4 corpus-prep capstone — keep-first paragraph dedup
    (RefinedWeb) → token gate → LEAKAGE-SAFE cluster split (near-dup
    chains share one split) → n_tokens joined back → per-split rollup.
    Every stage is an oracle-green operator; the DuckDB twin chains the
    dedup_paragraphs and cluster_split twins into one CTE pipeline."""
    from ray.data.aggregate import Count, Sum

    from engine.joins import hash_join
    from engine.partition import cluster_split
    from engine.textstats import dedup_paragraphs

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())
        m7 = pc.cast(_mod_i64(d, 7), pa.string())
        half = pc.cast(pc.divide(d, 2), pa.string())
        text = pc.binary_join_element_wise(
            "shared header",
            pc.binary_join_element_wise("sec ", m7, ""),
            pc.binary_join_element_wise("uniq ", ds_, ""),
            pc.binary_join_element_wise("pair ", half, ""),
            "shared footer",
            "\n")
        return pa.table({"doc_id": d, "text": text})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    deduped = dedup_paragraphs(planted)

    def gate(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(t["text"], pattern=r"\S+"),
                    pa.int64())
        t = t.append_column("n_tokens", n)
        return t.filter(pc.greater_equal(t["n_tokens"], 2)) \
            .select(["doc_id", "n_tokens"])

    gated = deduped.map_batches(gate, batch_format="pyarrow") \
        .materialize()  # feeds cluster_split AND the n_tokens join

    def mk_edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = d[d % 10 != 9]
        return pa.table({"src": d, "dst": d + 1})

    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    split = cluster_split(gated, edges).materialize()  # join reads schema
    joined = hash_join(split, gated, on="doc_id")
    return joined.groupby("split").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_tokens", alias_name="total_tokens"))


def q_lang_hits(sf_dir: str):
    """Per-language stopword hit counts + routing margin
    (engine.textstats.lang_hits) over the real documents table — the
    integer evidence behind the lang-ID argmax. DuckDB twin: the same
    RE2 token split, per-profile FILTER counts, margin via sorted-list
    arithmetic."""
    from engine.textstats import lang_hits

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return lang_hits(docs)


def q_window_dedup(sf_dir: str):
    """Exact 3-token-window duplicate stats (engine.textstats.
    window_dup_stats — the window-hash form of Lee et al. 2022 exact
    substring dedup) over a planted corpus mixing intra-doc repeats
    ('c0 c1 c2 c3' twice per doc), corpus-wide hot windows and d%4
    cross-doc tails around per-doc-unique middles. DuckDB twin: the same
    explode → HAVING >= 2 → IN → interval-union chain, coverage =
    count(DISTINCT covered token position)."""
    from engine.textstats import window_dup_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())
        m4 = pc.cast(pc.subtract(d, pc.multiply(pc.divide(d, 4), 4)),
                     pa.string())
        text = pc.binary_join_element_wise(
            "c0 c1 c2 c3",
            pc.binary_join_element_wise("u", ds_, ""),
            "c0 c1 c2 c3",
            pc.binary_join_element_wise("z", m4, ""),
            " ")
        return pa.table({"doc_id": d, "text": text})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return window_dup_stats(planted, k=3)


def q_cut_dup_windows(sf_dir: str):
    """Lee et al. 2022 removal policy (engine.textstats.cut_dup_windows):
    rewrite each planted doc with every token covered by a duplicated
    3-window cut out. Corpus mixes hot heads/tails around a per-doc-unique
    middle (only 'u<id>' survives) with all-unique docs (doc_id%5==0,
    nothing removed). DuckDB twin: explode -> HAVING >= 2 -> coverage
    anti-join -> string_agg(ORDER BY pos)."""
    from engine.textstats import cut_dup_windows

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())
        m4 = pc.cast(pc.subtract(d, pc.multiply(pc.divide(d, 4), 4)),
                     pa.string())
        hot = pc.binary_join_element_wise(
            "c0 c1 c2 c3",
            pc.binary_join_element_wise("u", ds_, ""),
            "c0 c1 c2 c3",
            pc.binary_join_element_wise("z", m4, ""),
            " ")
        uniq = pc.binary_join_element_wise(
            *[pc.binary_join_element_wise(p, ds_, "") for p in "abcde"],
            " ")
        clean = pc.equal(pc.subtract(d, pc.multiply(pc.divide(d, 5), 5)), 0)
        return pa.table({"doc_id": d,
                         "text": pc.if_else(clean, uniq, hot)})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return cut_dup_windows(planted, k=3)


def q_fim_split(sf_dir: str):
    """Fill-in-the-middle transform (engine.tokenize.fim_transform) over
    the real documents table: salted-md5 gate at 60%, hash-derived char
    split points. DuckDB twin: the same md5 hex-slice arithmetic +
    substr() (both sides count CHARACTERS)."""
    from engine.tokenize import fim_transform

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return fim_transform(docs, fim_pct=60)


def q_robots_gate(sf_dir: str):
    """robots.txt compliance gate (engine.filters.parse_robots_rules +
    robots_gate): RFC 9309 group parsing (specific-agent groups override
    star groups; comments; multi-UA headers; empty Disallow ignored;
    trailing-* stripped; mid-pattern wildcards dropped by contract) and
    longest-match / Allow-wins-ties verdicts. Planted: 10 hosts with
    varied group structure from doc_id%10, urls over 8 path patterns.
    DuckDB twin: the full parse in SQL — line explode, window-function
    group ids, bool_or group flags, prefix-match QUALIFY winner."""
    from engine.filters import parse_robots_rules, robots_gate

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mod(x, k):
        return pc.subtract(x, pc.multiply(pc.divide(x, k), k))

    def hosts_of(t: pa.Table) -> pa.Table:
        return pa.table({"m": mod(t["doc_id"], 10)})

    def mk_robots(t: pa.Table) -> pa.Table:
        m = t["m"]
        ms = pc.cast(m, pa.string())
        robots = pc.binary_join_element_wise(
            "# robots for h", ms,
            "\nUser-agent: otherbot\nDisallow: /\n\n",
            pc.if_else(pc.equal(mod(m, 4), 1),
                       "User-agent: mybot\nDisallow: /only\n"
                       "Allow: /only/ok\n", ""),
            "User-agent: helper\nUser-agent: *\nDisallow: /private\n"
            "Allow: /private/pub\n",
            pc.if_else(pc.equal(mod(m, 2), 0), "Disallow: /tmp*\n", ""),
            "Disallow:\n",
            pc.if_else(pc.equal(mod(m, 5), 2), "Disallow: /bad$path\n", ""),
            "")
        return pa.table({
            "host": pc.binary_join_element_wise("h", ms, ""),
            "robots_txt": robots,
        })

    from ray.data.aggregate import Count
    robots_tbl = (docs.map_batches(hosts_of, batch_format="pyarrow")
                  .groupby("m").aggregate(Count())
                  .map_batches(mk_robots, batch_format="pyarrow"))

    _PATHS = ["", "/private/x", "/private/pub/ok", "/tmp/file",
              "/only/ok/deep", "/only/no", "/pub", "/private"]

    def mk_urls(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ms = pc.cast(mod(d, 10), pa.string())
        pat = pc.cast(mod(d, 8), pa.int32())
        base = pa.array(_PATHS, type=pa.string()).take(pat)
        url = pc.binary_join_element_wise(
            "https://h", ms, base, "?d=", pc.cast(d, pa.string()),
            pc.if_else(pc.equal(pat, 6), "#f", ""), "")
        return pa.table({"url": url})

    urls = docs.map_batches(mk_urls, batch_format="pyarrow")
    rules = parse_robots_rules(robots_tbl, "mybot").materialize()
    return robots_gate(urls, rules)


def q_sitemap(sf_dir: str):
    """Sitemap XML extraction (engine.links.extract_sitemap): planted
    sitemaps with 1-3 <url> entries (alternating lastmod, whitespace
    around the first loc), loc-less entries (dropped) and <sitemap> index
    entries on every 7th doc. DuckDB twin: regexp_extract_all non-greedy
    blocks + per-block loc/lastmod extraction + row_number ordinals."""
    from engine.links import extract_sitemap

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mod(x, k):
        return pc.subtract(x, pc.multiply(pc.divide(x, k), k))

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())
        ms = pc.cast(mod(d, 10), pa.string())
        n = mod(d, 3)  # 0..2 -> entries 1..3

        def entry(j: int, spaced: bool) -> pa.Array:
            pad = " " if spaced else ""
            loc = pc.binary_join_element_wise(
                "<url><loc>", pad, "https://s", ms, "/p", ds_, "_",
                str(j), pad, "</loc>", "")
            lm = pc.if_else(
                pc.equal(mod(pc.add(d, j), 2), 0),
                pc.binary_join_element_wise(
                    "<lastmod>2024-01-0", str(j), "</lastmod>", ""),
                "")
            return pc.binary_join_element_wise(loc, lm, "</url>\n", "")

        xml = pc.binary_join_element_wise(
            '<?xml version="1.0"?><urlset>\n',
            entry(1, True),
            pc.if_else(pc.greater_equal(n, 1), entry(2, False), ""),
            pc.if_else(pc.greater_equal(n, 2), entry(3, False), ""),
            pc.if_else(pc.equal(mod(d, 11), 0),
                       "<url><lastmod>2020-01-01</lastmod></url>\n", ""),
            pc.if_else(pc.equal(mod(d, 7), 0),
                       pc.binary_join_element_wise(
                           "<sitemap><loc>https://s", ms,
                           "/sub.xml</loc></sitemap>\n", ""),
                       ""),
            "</urlset>", "")
        src = pc.binary_join_element_wise(
            "https://s", ms, "/sitemap", ds_, ".xml", "")
        return pa.table({"url": src, "xml": xml})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return extract_sitemap(planted)


def q_redirects(sf_dir: str):
    """Redirect-chain resolution (engine.graph.resolve_redirects, pointer
    doubling — log2(max_hops) exchanges, not max_hops): planted 5-node
    chains (doc_id groups of 5) with every 10th group closed into a
    5-cycle; max_hops=3 so heads of clean chains exceed the bound.
    DuckDB twin: WITH RECURSIVE walk bounded at 3 hops + terminal test."""
    from engine.graph import resolve_redirects

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mod(x, k):
        return pc.subtract(x, pc.multiply(pc.divide(x, k), k))

    def plant(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.int64())
        p = mod(d, 5)
        gm = mod(pc.divide(d, 5), 10)
        chain = pc.less(p, 4)
        cyc = pc.and_(pc.equal(p, 4), pc.equal(gm, 0))
        c_src = d.filter(chain)
        y_src = d.filter(cyc)
        return pa.concat_tables([
            pa.table({"src": c_src, "dst": pc.add(c_src, 1)}),
            pa.table({"src": y_src, "dst": pc.subtract(y_src, 4)}),
        ])

    edges = docs.map_batches(plant, batch_format="pyarrow")
    return resolve_redirects(edges, max_hops=3)


def q_bigram_lm(sf_dir: str):
    """Corpus bigram-LM surprisal (engine.textstats.bigram_lm_score) over
    the REAL documents table: integer bit-length ladder, counts derived
    from the same pair stream inside ONE w1-keyed bucket exchange
    (bigram → w1 is a function, so one partition co-locates both model
    counts), per-doc Sum. DuckDB twin: pair explode + the two count
    joins + length(bin(n)) ladder."""
    from engine.textstats import bigram_lm_score

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return bigram_lm_score(docs)


def q_normalize_urls(sf_dir: str):
    """URL canonicalization (engine.textops.normalize_url): fragment strip,
    utm_* removal, default-port strip, scheme+host lowercase — over a
    planted messy-URL column derived from doc_id (testdata carries no URL;
    the pdf_roundtrip/domain_counts derivation trick). DuckDB twin: the
    same RE2 replace chain, pass for pass."""
    from engine.textops import normalize_url

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        ds_ = pc.cast(d, pa.string())

        def mod(k: int):
            return pc.subtract(d, pc.multiply(pc.divide(d, k), k))

        m5 = pc.cast(mod(5), pa.string())
        v0 = pc.binary_join_element_wise(
            "HTTPS://WWW.Ex", m5, ".COM:443/a/", ds_,
            "?utm_source=x&id=", ds_, "#top", "")
        v1 = pc.binary_join_element_wise(
            "http://ex", m5, ".org:80/b/", ds_,
            "?utm_a=1&utm_b=2&utm_c=3&q=", ds_, "")
        v2 = pc.binary_join_element_wise(
            "https://Sub.Ex", m5, ".net/c/", ds_, "")
        m3 = mod(3)
        url = pc.if_else(pc.equal(m3, 0), v0,
                         pc.if_else(pc.equal(m3, 1), v1, v2))
        return pa.table({"doc_id": d, "url": normalize_url(url)})

    return docs.map_batches(plant, batch_format="pyarrow")


def q_cap_per_source(sf_dir: str):
    """Per-key downsampling cap (engine.partition.cap_per_key): at most 10
    docs per source, picked by salted-md5 rank of doc_id — deterministic,
    growth-stable. DuckDB twin: row_number() OVER (PARTITION BY source
    ORDER BY md5, id) <= k."""
    from engine.partition import cap_per_key

    docs = _read(sf_dir, "documents", ["doc_id", "source"])
    return cap_per_key(docs, "source", 10) \
        .select_columns(["doc_id", "source"])


def q_corpus_prep(sf_dir: str):
    """End-to-end training-corpus prep — the flagship composition:
    token-count → quality gate (n_tokens ≥ 5) → exact dedup (keep min
    doc_id per content hash, distributed semi-join) → stable train/val/
    test split (salted md5) → per-split rollup. Every stage is an
    existing oracle-green operator; the chain stays one lazy streaming
    pipeline (the semi-join's keeper side is the only materialize).
    DuckDB twin: the same CTE chain."""
    from engine.dedup import exact_dedup
    from engine.partition import stable_split_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def tokens_and_gate(t: pa.Table) -> pa.Table:
        n = pc.cast(pc.count_substring_regex(t["text"], pattern=r"\S+"),
                    pa.int64())
        t = t.append_column("n_tokens", n)
        return t.filter(pc.greater_equal(t["n_tokens"], 5))

    gated = docs.map_batches(tokens_and_gate, batch_format="pyarrow")
    deduped = exact_dedup(gated)
    tagged = deduped.map_batches(stable_split_batch, batch_format="pyarrow")
    return tagged.groupby("split").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_tokens", alias_name="total_tokens"))


def q_vocab(sf_dir: str):
    """Vocabulary construction (engine.textstats.build_vocab): contiguous
    ids 1..V by (count DESC, token ASC) with no global sort — per-count
    enumeration over driver-prefix-summed count-of-counts. DuckDB twin:
    row_number() OVER the same two-key order."""
    from engine.textstats import build_vocab

    docs = _read(sf_dir, "documents", ["text"])
    return build_vocab(docs)


def q_transitions(sf_dir: str):
    """Per-user Markov transition counts (engine.windows.transition_counts):
    (prev, curr, n) over each user's (ts, event_id)-ordered event stream.
    DuckDB twin: lag() OVER (PARTITION BY user ORDER BY ts, event_id)."""
    from engine.windows import transition_counts

    events = _read(sf_dir, "events",
                   ["user_id", "ts", "event_id", "event_type"])
    return transition_counts(events)


def q_cms_users(sf_dir: str):
    """Count-min sketch (engine.stats.cms_counts) of user_id frequencies —
    the bounded-exchange frequency sketch (d=4 rows × w=1024 cells).
    Integer-exact DuckDB twin: row j's cell is md5(j || ':' || user_id)
    60-bit slice mod w, counted per (row, cell)."""
    from engine.stats import cms_counts

    events = _read(sf_dir, "events", ["user_id"])
    return cms_counts(events, "user_id", d=4, w=1024)


def q_global_rank(sf_dir: str):
    """Global rank (engine.stats.global_rank): rank() OVER (ORDER BY value)
    attached to every event WITHOUT a full-table sort — only the compressed
    (value, count) domain is exchanged. DuckDB twin: the window function
    itself."""
    import pyarrow.parquet as pq

    from engine.stats import global_rank

    # (min, max) from parquet row-group statistics — no Ray pre-pass
    # (the embedding_near_dup metadata-hint discipline); covering values
    # only move bucket cuts, never correctness.
    md = pq.read_metadata(os.path.join(sf_dir, "events.parquet"))
    idx = md.schema.names.index("value")
    stats = [md.row_group(i).column(idx).statistics
             for i in range(md.num_row_groups)]
    lo_hi = ((min(s.min for s in stats), max(s.max for s in stats))
             if all(s is not None for s in stats) else None)

    events = _read(sf_dir, "events", ["event_id", "value"])
    return global_rank(events, "value", lo_hi=lo_hi) \
        .select_columns(["event_id", "value", "rnk"])


def q_url_dedup(sf_dir: str):
    """Canonical-URL dedup — the composition normalize_url feeds: doc
    pairs carry the SAME url in two messy spellings (uppercase scheme/host
    + default port + fragment vs clean); canonicalization collapses them,
    keep min doc_id per canonical. The DuckDB twin constructs the expected
    CANONICAL form directly from ids — any normalization bug breaks the
    hash match."""
    from engine.textops import normalize_url

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant_and_normalize(t: pa.Table) -> pa.Table:
        d = t["doc_id"]
        base = pc.divide(d, 2)
        b7 = pc.cast(pc.subtract(base, pc.multiply(pc.divide(base, 7), 7)),
                     pa.string())
        bs = pc.cast(base, pa.string())
        messy = pc.binary_join_element_wise(
            "HTTPS://Ex", b7, ".COM:443/p/", bs, "#frag", "")
        clean = pc.binary_join_element_wise(
            "https://ex", b7, ".com/p/", bs, "")
        odd = pc.equal(pc.subtract(d, pc.multiply(pc.divide(d, 2), 2)), 1)
        return pa.table({"doc_id": d,
                         "url": normalize_url(pc.if_else(odd, clean,
                                                         messy))})

    return (
        docs.map_batches(plant_and_normalize, batch_format="pyarrow")
        .groupby("url")
        .aggregate(Min("doc_id", alias_name="doc_id"),
                   Count(alias_name="n_copies"))
    )


def q_audience_overlap(sf_dir: str):
    """Pairwise audience-overlap matrix: |users(A) ∩ users(B)| for every
    event-type pair A < B — the co-occurrence / audience-intersection
    primitive, composed from existing operators: per-block Acero distinct
    (type, user) + groupby, one self hash_join on user (m:n per user —
    Acero cartesian within key), vectorized pair filter, Count groupby.
    DuckDB twin: DISTINCT self-join."""
    from engine.joins import hash_join
    from engine.stats import acero_counts

    events = _read(sf_dir, "events", ["event_type", "user_id"])
    distinct = (
        events.map_batches(
            lambda t: acero_counts(t, ["event_type", "user_id"])
            .select(["event_type", "user_id"]),
            batch_format="pyarrow")
        .groupby(["event_type", "user_id"])
        .aggregate(Count(alias_name="__c"))
        .map_batches(lambda t: t.select(["event_type", "user_id"]),
                     batch_format="pyarrow")
        .materialize()  # joined against itself: avoid double execution
    )
    joined = hash_join(distinct, distinct, on="user_id",
                       suffixes=("", "_r"))
    pairs = joined.map_batches(
        lambda t: t.filter(pc.less(t["event_type"], t["event_type_r"])),
        batch_format="pyarrow")
    return (
        pairs.map_batches(
            lambda t: pa.table({"type_a": t["event_type"],
                                "type_b": t["event_type_r"]}),
            batch_format="pyarrow")
        .groupby(["type_a", "type_b"])
        .aggregate(Count(alias_name="n_shared"))
    )


def q_running_total(sf_dir: str):
    """Per-user cumulative running total (engine.windows.rolling_agg with
    window=None — the expanding frame): integer milli-unit cumsum per user
    ordered by (ts, event_id). DuckDB twin: sum() OVER (... ROWS UNBOUNDED
    PRECEDING), CAST BIGINT (HUGEINT floatify rule)."""
    from engine.windows import rolling_agg

    events = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])
    milli = events.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"], "ts": t["ts"],
            "user_id": t["user_id"],
            "value": pc.cast(pc.floor(pc.multiply(t["value"], 1000.0)),
                             pa.int64()),
        }),
        batch_format="pyarrow",
    )
    out = rolling_agg(milli, key_col="user_id", ts_col="ts",
                      id_col="event_id", value_col="value",
                      window=None, agg="sum")
    return out.map_batches(
        lambda t: pa.table({
            "user_id": t["user_id"], "event_id": t["event_id"],
            "running_sum": pc.cast(t["roll_sum"], pa.int64()),
        }),
        batch_format="pyarrow",
    )


def q_hll_by_type(sf_dir: str):
    """Per-key HLL registers (engine.stats.hll_registers_by_key): distinct
    users per event_type at an exchange bounded by m integers per key —
    the scale path of distinct_count_per_key. Same integer md5/bin twin
    as hll_events, GROUP BY (key, register)."""
    from engine.stats import hll_registers_by_key

    events = _read(sf_dir, "events", ["event_type", "user_id"])
    return hll_registers_by_key(events, "event_type", "user_id", m=256)


def q_strip_spans(sf_dir: str):
    """C4 three-sentence-span dedup (engine.textstats.strip_repeated_spans)
    over planted docs: a corpus-wide boilerplate 3-sentence block (hot
    span, position-shifted in every 5th doc) is dropped everywhere;
    unique and pair-shared sentences (no repeated 3-run) survive.
    DuckDB twin: lead() spans → HAVING > 1 → position-window NOT EXISTS →
    ordered string_agg."""
    from engine.textstats import strip_repeated_spans

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        texts = []
        for d in ids:
            sents = (["extra %d" % d] if d % 5 == 0 else []) + \
                ["b zero", "b one", "b two", "uniq %d" % d,
                 "pair%d a" % (d // 2), "pair%d b" % (d // 2)]
            texts.append(". ".join(sents))
        return pa.table({"doc_id": t["doc_id"],
                         "text": pa.array(texts, type=pa.string())})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return strip_repeated_spans(planted, span=3, max_occurrences=1)


def q_fuzzy_decontam(sf_dir: str):
    """Fuzzy cross-corpus decontamination (engine.dedup.
    minhash_cross_pairs_ds): MinHash near-dup pairs between the planted-
    variant corpus and a benchmark of every 25th group base — catches
    paraphrased benchmark leakage the exact-snippet pass misses. The
    oracle knows the pairs by construction: (doc, bench) iff
    doc_id // 3 == bench_id // 3 (group variants vs their base are
    far above threshold; cross-group sims far below — the
    minhash_clusters planting argument)."""
    from engine.dedup import minhash_cross_pairs_ds

    corpus = _planted_docs(sf_dir)
    docs = _read(sf_dir, "documents", ["doc_id"])

    def build_bench(t: pa.Table) -> pa.Table:
        ids = [i for i in t["doc_id"].to_pylist() if i % 25 == 0]
        return pa.table({
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array([_planted_base(i // PLANT_GROUP)
                              for i in ids], type=pa.string()),
        })

    bench = docs.map_batches(build_bench, batch_format="pyarrow")
    pairs = minhash_cross_pairs_ds(corpus, bench, threshold=0.7)
    return pairs.map_batches(lambda t: t.select(["doc_id", "bench_id"]),
                             batch_format="pyarrow")


def q_bloom_users(sf_dir: str):
    """Distributed Bloom-filter build (engine.stats.bloom_bits) over
    user_id — the membership sketch of the trio (HLL cardinality, CMS
    frequency). Integer-exact DuckDB twin: DISTINCT md5-slice bit
    positions over CROSS JOIN seeds."""
    from engine.stats import bloom_bits

    events = _read(sf_dir, "events", ["user_id"])
    return bloom_bits(events, "user_id", m=4096, k=3)


def q_dense_rank(sf_dir: str):
    """dense_rank() OVER (ORDER BY value) — global_rank's dense mode:
    offsets count distinct values below the bucket instead of rows.
    DuckDB twin: the window function itself."""
    from engine.stats import global_rank

    events = _read(sf_dir, "events", ["event_id", "value"])
    return global_rank(events, "value", dense=True) \
        .select_columns(["event_id", "value", "rnk"])


def q_encode_tokens(sf_dir: str):
    """Tokenizer-apply (engine.tokenize.encode_tokens): build_vocab ids
    broadcast once, documents → per-doc token-id lists (emitted as the
    comma-joined string so the result is string_agg-comparable). DuckDB
    twin: vocab row_number join on the position-exploded token stream."""
    from engine.textstats import build_vocab
    from engine.tokenize import encode_tokens

    vocab = build_vocab(_read(sf_dir, "documents", ["text"])).to_pandas()
    enc = encode_tokens(_read(sf_dir, "documents", ["doc_id", "text"]),
                        vocab)

    def to_str(t: pa.Table) -> pa.Table:
        lst = t["ids"]
        if isinstance(lst, pa.ChunkedArray):
            lst = lst.combine_chunks()
        strs = pa.ListArray.from_arrays(
            lst.offsets, pc.cast(lst.values, pa.string()))
        return pa.table({"doc_id": t["doc_id"], "n_tokens": t["n_tokens"],
                         "token_ids": pc.binary_join(strs, ",")})

    return enc.map_batches(to_str, batch_format="pyarrow")


PACK_SEQ_LEN = 64


def q_pack_sequences(sf_dir: str):
    """Sequence packing (engine.tokenize.pack_sequences): the encoded corpus
    in doc_id order sliced into PACK_SEQ_LEN-token training rows, partial
    tail dropped — the corpus-prep endgame (documents → consumable training
    rows, the reference's document→output purpose at LLM scale). doc_id
    lo_hi from parquet row-group statistics (the global_rank hint
    discipline). DuckDB twin: string_agg over a global row_number stream."""
    import pyarrow.parquet as pq

    from engine.textstats import build_vocab
    from engine.tokenize import pack_sequences

    md = pq.read_metadata(os.path.join(sf_dir, "documents.parquet"))
    idx = md.schema.names.index("doc_id")
    stats = [md.row_group(i).column(idx).statistics
             for i in range(md.num_row_groups)]
    lo_hi = ((min(s.min for s in stats), max(s.max for s in stats))
             if all(s is not None for s in stats) else None)

    vocab = build_vocab(_read(sf_dir, "documents", ["text"])).to_pandas()
    return pack_sequences(_read(sf_dir, "documents", ["doc_id", "text"]),
                          vocab, PACK_SEQ_LEN, lo_hi=lo_hi)


KLL_QS = [0.05, 0.13, 0.25, 0.37, 0.45, 0.55, 0.67, 0.75, 0.87, 0.95]


def q_quantile_sketch(sf_dir: str):
    """Mergeable KLL quantile sketch (engine.stats.kll_quantiles) — the
    unbounded-cardinality sibling of exact_percentiles. Oracle trick (the
    HLL md5-family discipline): planted integer runs (event_id % 10, each
    run n/10 wide) with every target rank >= 0.03*n from a run boundary,
    while the sketch's deterministic error bound at k=1024 is < 0.01*n —
    so the answered VALUE is pinned to quantile_disc exactly, regardless
    of block partitioning or merge order (tests/test_round4_ops.py pins
    the bound itself)."""
    from engine.stats import kll_quantiles

    events = _read(sf_dir, "events", ["event_id"])
    planted = events.map_batches(
        lambda t: pa.table({"val": pc.cast(
            pc.subtract(t["event_id"],
                        pc.multiply(pc.divide(t["event_id"], 10), 10)),
            pa.int64())}),
        batch_format="pyarrow")
    pairs = kll_quantiles(planted, "val", KLL_QS, k=1024)
    return pa.table({
        "q": pa.array([p[0] for p in pairs], type=pa.float64()),
        "value": pa.array([int(p[1]) for p in pairs], type=pa.int64()),
    })


def q_group_quantile_sketch(sf_dir: str):
    """Per-key KLL sketches (engine.stats.kll_quantiles_by_key) — the
    GROUP BY sibling of quantile_sketch, the scale path of
    group_percentiles. Planting is jitter-free: key = event_id % 5, val =
    event_id % 10, so each key holds EXACTLY two equal runs (k0, k0+5) and
    every target is ≥0.13·n_key from the one run boundary while the k=1024
    bound stays ~0.3% — the answered values equal per-key quantile_disc
    regardless of partitioning."""
    from engine.stats import kll_quantiles_by_key

    qs = [0.13, 0.25, 0.37, 0.63, 0.75, 0.87]
    events = _read(sf_dir, "events", ["event_id"])
    planted = events.map_batches(
        lambda t: pa.table({
            "key": pc.cast(pc.subtract(
                t["event_id"],
                pc.multiply(pc.divide(t["event_id"], 5), 5)), pa.int64()),
            "val": pc.cast(pc.subtract(
                t["event_id"],
                pc.multiply(pc.divide(t["event_id"], 10), 10)), pa.int64()),
        }),
        batch_format="pyarrow")
    out = kll_quantiles_by_key(planted, "key", "val", qs, k=1024)
    return pa.table({
        "key": out["key"].cast(pa.int64()),
        "q": out["q"],
        "value": out["value"].cast(pa.int64()),
    })


def q_global_shuffle(sf_dir: str):
    """Reproducible global shuffle (engine.partition.global_shuffle):
    training-order permutation by rank of md5('shuf:'||doc_id) — stable
    relative order under corpus growth. DuckDB twin: rank() over the same
    md5 60-bit slice."""
    from engine.partition import global_shuffle

    docs = _read(sf_dir, "documents", ["doc_id"])
    return global_shuffle(docs, "doc_id").select_columns(
        ["doc_id", "shuffle_pos"])


def q_heavy_hitters(sf_dir: str):
    """Misra-Gries heavy hitters (engine.stats.heavy_hitters): EXACT
    counts of every key with frequency >= 1% of rows, via a merged MG(256)
    candidate pass + an exact broadcast second pass — the frequency-MINING
    sibling of CMS (which answers point queries, not 'which keys are
    hot'). Planted skew: events ending 0-4 hash onto 7 hot keys (~7%
    each), the rest stay singletons; min_fraction > 1/(k+1) makes the MG
    candidate set a proven superset, so the output equals the plain SQL
    HAVING-count set exactly."""
    import pyarrow.parquet as pq

    from engine.stats import heavy_hitters

    n = pq.read_metadata(
        os.path.join(sf_dir, "events.parquet")).num_rows
    events = _read(sf_dir, "events", ["event_id"])

    def plant(t: pa.Table) -> pa.Table:
        e = t["event_id"]

        def mod(k: int):
            return pc.subtract(e, pc.multiply(pc.divide(e, k), k))

        key = pc.if_else(pc.less(mod(10), 5), mod(7), e)
        return pa.table({"key": key})

    keyed = events.map_batches(plant, batch_format="pyarrow")
    return heavy_hitters(keyed, "key", min_fraction=0.01, k=256, n=n)


def q_kmeans(sf_dir: str):
    """Distributed k-means (engine.cluster.kmeans_iterate): Lloyd over
    planted integer-jitter vectors (dim c = doc_id%4 spikes at 12, other
    dims jitter in {-1,0,1} from doc_id) starting from unit-axis init
    centroids (NOT the planted means — iteration 1 must really move
    them). Output = the FINAL iteration's per-(cluster, dim) vector sums
    and cluster sizes, integer-exact in float64, so the DuckDB twin (CASE
    planting + SUM GROUP BY) pins every pass of the loop: broadcast
    centroids, per-block partial sums, groupby-Sum merge, driver
    update."""
    from engine.cluster import kmeans_iterate

    docs = _read(sf_dir, "documents", ["doc_id"])
    kk, dd = 4, 8

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        vecs = np.empty((len(d), dd), dtype=np.float64)
        for i in range(dd):
            jit = (d // (i + 1)) % 3 - 1
            vecs[:, i] = np.where(d % kk == i, 12, jit)
        offsets = pa.array(np.arange(len(d) + 1, dtype=np.int32) * dd)
        emb = pa.ListArray.from_arrays(offsets, pa.array(vecs.ravel()))
        return pa.table({"doc_id": t["doc_id"], "embedding": emb})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    cents, stats = kmeans_iterate(planted, np.eye(kk, dd), iters=3,
                                  tol=1e-12)
    return pa.table({
        "cluster": stats["cluster"],
        "dim": stats["dim"],
        "centroid_sum": pc.cast(stats["s"], pa.int64()),
        "n": stats["n"],
    })


def q_hll_merged(sf_dir: str):
    """HLL mergeability as a query (subsumes the hll_events/hll_by_type
    pair in the driver window): per-event_type register tables
    (engine.stats.hll_registers_by_key) PLUS the corpus-wide register
    table derived by MERGING the per-type sketches (groupby register,
    Max rho) without re-scanning the rows — the property that lets
    10^12-row distinct counts roll up from per-partition sketches.
    DuckDB twin: the md5/bin rho ladder, UNION ALL of the per-type
    GROUP BY and its Max rollup."""
    from engine.stats import hll_registers_by_key

    events = _read(sf_dir, "events", ["event_type", "user_id"])
    # materialize: the union would re-execute the lazy per-key
    # aggregation for each consumer (CLAUDE.md lazy-re-execution trap)
    per_key = hll_registers_by_key(
        events, "event_type", "user_id", m=256).materialize()

    def tag_all(t: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": pa.array(["__all__"] * t.num_rows),
            "register": t["register"],
            "rho_max": t["rho_max"],
        })

    merged = (per_key.groupby("register")
              .aggregate(Max("rho_max", alias_name="rho_max"))
              .map_batches(tag_all, batch_format="pyarrow"))
    return per_key.union(merged)


def q_mix_corpora(sf_dir: str):
    """Deterministic weighted corpus mixing (engine.partition.mix_corpora):
    three pseudo-sources planted from documents (doc_id % 3 → web/books/
    code) blended at 80/50/25 % with a reproducible interleaved training
    order. DuckDB twin: the same salted-md5 keep rule per source + rank()
    over the 60-bit order hash."""
    from engine.partition import mix_corpora

    docs = _read(sf_dir, "documents", ["doc_id"])

    def part(r: int):
        def f(t: pa.Table) -> pa.Table:
            d = t["doc_id"]
            mod3 = pc.subtract(d, pc.multiply(pc.divide(d, 3), 3))
            return t.filter(pc.equal(mod3, r))

        return f

    sources = {
        "web": docs.map_batches(part(0), batch_format="pyarrow"),
        "books": docs.map_batches(part(1), batch_format="pyarrow"),
        "code": docs.map_batches(part(2), batch_format="pyarrow"),
    }
    mixed = mix_corpora(sources, {"web": 80, "books": 50, "code": 25})
    return mixed.select_columns(["doc_id", "source", "mix_pos"])


def q_quantile_filter(sf_dir: str):
    """Sketch-driven quantile-threshold filter
    (engine.stats.filter_by_quantile): keep docs whose planted score
    (doc_id % 10 — equal runs of n/10) is ≥ the KLL p75. The target rank
    ceil(0.75·n) sits 0.05·n inside the value-7 run while the k=1024
    sketch bound is <0.01·n, so the threshold equals quantile_disc exactly
    (the quantile_sketch planting discipline) and the kept set is the
    plain SQL scalar-subquery filter."""
    from engine.stats import filter_by_quantile

    docs = _read(sf_dir, "documents", ["doc_id"])
    scored = docs.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "score": pc.cast(pc.subtract(
                t["doc_id"],
                pc.multiply(pc.divide(t["doc_id"], 10), 10)), pa.int64()),
        }),
        batch_format="pyarrow")
    return filter_by_quantile(scored, "score", 0.75, k=1024)


def q_crawl_delta(sf_dir: str):
    """Incremental-crawl snapshot diff (engine.joins.snapshot_delta): old
    snapshot = every doc (url from doc_id, fp = 60-bit md5 of text); new
    snapshot drops doc_id%10==0 (deleted), appends ' v2' to text where
    doc_id%7==0 (changed), and adds fresh /n/ urls where doc_id%13==0
    (new). One narrow full-outer hash_join + vectorized status CASE.
    DuckDB twin: the same two planted CTEs FULL OUTER JOINed."""
    from engine.joins import snapshot_delta

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    md5 = hashlib.md5

    def fp_of(texts: list[str]) -> pa.Array:
        return pa.array(
            [int(md5(s.encode()).hexdigest()[:15], 16) for s in texts],
            type=pa.int64())

    def mk_old(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        return pa.table({
            "url": pa.array([f"https://ex.com/p/{i}" for i in ids]),
            "fp": fp_of(t["text"].to_pylist()),
        })

    def mk_new(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_pylist(), dtype=np.int64)
        texts = t["text"].to_pylist()
        keep = ids % 10 != 0
        cur = [txt + " v2" if i % 7 == 0 else txt
               for i, txt, k in zip(ids, texts, keep) if k]
        urls = [f"https://ex.com/p/{i}" for i in ids[keep]]
        fresh_ids = ids[ids % 13 == 0]
        urls += [f"https://ex.com/n/{i}" for i in fresh_ids]
        fps = fp_of(cur).to_pylist() + [
            int(md5(f"fresh:{i}".encode()).hexdigest()[:15], 16)
            for i in fresh_ids]
        return pa.table({"url": pa.array(urls),
                         "fp": pa.array(fps, type=pa.int64())})

    old = docs.map_batches(mk_old, batch_format="pyarrow")
    new = docs.map_batches(mk_new, batch_format="pyarrow")
    delta = snapshot_delta(old, new, on="url", fingerprint="fp")
    return delta.select_columns(["url", "status"])


def q_shard_pack(sf_dir: str):
    """Equal-weight output sharding (engine.partition.pack_shards):
    documents' real token counts, greedy 2000-token shards in md5-shuffle
    order, computed with NO global sort (bucket totals → driver prefix of
    one scalar per bucket → one bucketed exchange). DuckDB twin: the window
    cumsum (sum OVER (ORDER BY the 60-bit md5 key) - w) // 2000, CAST
    AS BIGINT per the HUGEINT rule."""
    from engine.partition import pack_shards

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def count_tokens(t: pa.Table) -> pa.Table:
        n = pc.count_substring_regex(t["text"], pattern=r"\S+")
        return pa.table({"doc_id": t["doc_id"],
                         "n_tokens": pc.cast(n, pa.int64())})

    scored = docs.map_batches(count_tokens, batch_format="pyarrow")
    return pack_shards(scored, "n_tokens", shard_weight=2000, salt="shard")


def q_curriculum(sf_dir: str):
    """Curriculum training order (engine.partition.curriculum_order):
    planted quality tier = doc_id % 4, position = rank over (tier DESC,
    md5('cur:'||id)) via the composite-key prefix machine. DuckDB twin:
    rank() over the identical (3-tier)·2^60 + hash BIGINT key."""
    from engine.partition import curriculum_order

    docs = _read(sf_dir, "documents", ["doc_id"])
    tiered = docs.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "tier": pc.cast(pc.subtract(
                t["doc_id"],
                pc.multiply(pc.divide(t["doc_id"], 4), 4)), pa.int64()),
        }),
        batch_format="pyarrow")
    out = curriculum_order(tiered, "tier", num_tiers=4)
    return out.select_columns(["doc_id", "tier", "cur_pos"])


def q_upsample(sf_dir: str):
    """Deterministic fractional upsampling
    (engine.partition.repeat_weighted): every doc 5/2× in expectation —
    2 full copies + a third iff md5('rep:'||id) 32-bit prefix is even.
    DuckDB twin: per-doc copy count via the same md5 test, exploded with
    generate_series."""
    from engine.partition import repeat_weighted

    docs = _read(sf_dir, "documents", ["doc_id"])
    return repeat_weighted(docs, 5, 2).select_columns(["doc_id", "copy"])


def _planted_page_url(i: int) -> str:
    return f"https://ex{i % 7}.com/d{i % 3}/p{i}"


def _planted_pages(sf_dir: str, with_id: bool = False):
    """Deterministic HTML corpus for the link-graph oracles: 7 href shapes
    per page (absolute, root-relative, relative+fragment, fragment-only,
    mailto, protocol-relative, duplicate-after-fragment-strip). The DuckDB
    twins rebuild the identical html string with string concatenation."""
    import pyarrow.parquet as pq

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_pages(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        urls, htmls = [], []
        for i in ids:
            j, k, m = (3 * i + 1) % n, (7 * i + 2) % n, (5 * i + 3) % n
            urls.append(_planted_page_url(i))
            tj = _planted_page_url(j)
            htmls.append(
                f'<html><body><a href="{tj}">'
                f'<a href="/d{k % 3}/p{k}">'
                f'<a href="q{m}.html#sec">'
                '<a href="#top"><a href="mailto:a@b.c">'
                f'<a href="//cdn{i % 5}.ex.com/lib.js">'
                f'<a href="{tj}#frag"></body></html>')
        cols = {"url": pa.array(urls, type=pa.string()),
                "html": pa.array(htmls, type=pa.string())}
        if with_id:
            cols["doc_id"] = t["doc_id"]
        return pa.table(cols)

    return docs.map_batches(mk_pages, batch_format="pyarrow")


def q_outlinks(sf_dir: str):
    """Link-graph extraction (engine.links.extract_outlinks) over the
    planted HTML corpus (see :func:`_planted_pages`) -> exactly the
    resolved edges. The DuckDB twin builds the SAME html string and parses
    it with regexp_extract_all + a CASE resolver, so extraction, URL
    resolution, fragment stripping and first-occurrence dedup are all
    value-pinned."""
    from engine.links import extract_outlinks

    return extract_outlinks(_planted_pages(sf_dir))


def q_link_graph(sf_dir: str):
    """HTML -> integer edge list, the full pagerank feeder chain:
    extract_outlinks over the planted pages, then BOTH endpoints resolved
    to corpus doc_ids via partitioned hash joins against the (url, doc_id)
    node table (inner joins — dangling/off-corpus links drop, the crawl
    reality). Narrow all the way: only (src, dst) url pairs and (url, id)
    pairs cross the wire, never pages. DuckDB twin: the outlinks CTEs plus
    two JOINs on the same node table."""
    from engine.joins import hash_join
    from engine.links import extract_outlinks

    pages = _planted_pages(sf_dir, with_id=True)
    # lazy-re-execution rule: pages feeds three consumers below
    pages = pages.materialize()
    edges = extract_outlinks(
        pages.map_batches(lambda t: t.select(["url", "html"]),
                          batch_format="pyarrow"))
    edges = edges.map_batches(lambda t: t.select(["src", "dst"]),
                              batch_format="pyarrow")
    src_nodes = pages.map_batches(
        lambda t: pa.table({"src": t["url"], "src_id": t["doc_id"]}),
        batch_format="pyarrow")
    dst_nodes = pages.map_batches(
        lambda t: pa.table({"dst": t["url"], "dst_id": t["doc_id"]}),
        batch_format="pyarrow")
    # narrow + materialize between the two joins: hash_join reads its
    # inputs' schema() up front, which would otherwise re-execute the
    # inner exchange (lazy-re-execution rule); only (src, dst_id) pairs
    # are held.
    inner = hash_join(edges, dst_nodes, on="dst").map_batches(
        lambda t: t.select(["src", "dst_id"]),
        batch_format="pyarrow").materialize()
    resolved = hash_join(inner, src_nodes, on="src")
    return resolved.map_batches(
        lambda t: t.select(["src_id", "dst_id"]), batch_format="pyarrow")


def q_anchor_texts(sf_dir: str):
    """Anchor-text corpus extraction (engine.links.extract_anchor_texts)
    over a planted HTML corpus distinct from the outlinks one (anchors
    carry text nodes; extra attributes after href exercise the
    ``[^>]*>`` tag-close scan). DuckDB twin: TWO aligned
    regexp_extract_all lists (href values and first-text-node runs)
    zipped by ordinal."""
    from engine.links import extract_anchor_texts

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_pages(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://an{i % 4}.ex.com/p/{i}")
            htmls.append(
                f'<html><p>intro</p><a href="/a/{i}">first {i}</a> mid '
                f'<a href="b{i % 9}.html" class="x">second-{i % 5}</a>'
                '<a href="#f">frag anchor</a></html>')
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    pages = docs.map_batches(mk_pages, batch_format="pyarrow")
    return extract_anchor_texts(pages)


def q_link_density(sf_dir: str):
    """Link-density quality gate (Gopher-family boilerplate rule: too many
    links per char = nav/spam page). Composition: extract_outlinks →
    per-src Count (map-side-combined aggregate, narrow (src, n) exchange)
    → LEFT hash_join back onto the (url, n_chars) page metadata (docs with
    ZERO links must survive with n_links=0) → integer keep rule
    n_links * 40 <= n_chars (no float ratio — the banker's-rounding
    oracle trap). Counts materialized before the join: hash_join reads
    schema() up front, which would re-execute the groupby exchange."""
    from ray.data.aggregate import Count

    from engine.joins import hash_join
    from engine.links import extract_outlinks

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_pages(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://ld{i % 5}.ex.com/p/{i}")
            body = "<p>" + "w " * ((i % 13) * 10) + "</p>"
            links = "".join(f'<a href="https://x{t}.ex/l{i}-{t}">'
                            for t in range(i % 11))
            htmls.append(f"<html>{body}{links}</html>")
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    pages = docs.map_batches(mk_pages, batch_format="pyarrow").materialize()
    counts = (extract_outlinks(pages).groupby("src")
              .aggregate(Count(alias_name="n_links"))).materialize()
    meta = pages.map_batches(
        lambda t: pa.table({
            "src": t["url"],
            "n_chars": pc.cast(pc.utf8_length(t["html"]), pa.int64())}),
        batch_format="pyarrow")
    joined = hash_join(meta, counts, on="src", how="left")

    def finish(t: pa.Table) -> pa.Table:
        n = pc.fill_null(pc.cast(t["n_links"], pa.int64()), 0)
        keep = pc.cast(pc.less_equal(
            pc.multiply(n, pa.scalar(40, type=pa.int64())),
            t["n_chars"]), pa.int64())
        return pa.table({"src": t["src"], "n_links": n,
                         "n_chars": t["n_chars"], "keep": keep})

    return joined.map_batches(finish, batch_format="pyarrow")


def q_range_partition(sf_dir: str):
    """Sketch-driven balanced range partitioner
    (engine.stats.range_partition): cuts = KLL quartiles of the planted
    val = event_id % 7 (runs keep every target rank ≥3 % from a boundary
    while the k=1024 bound is <1 % — the quantile_sketch discipline), one
    searchsorted map attaches part = #{cuts < val}. DuckDB twin: count of
    quantile_disc cuts below the value."""
    from engine.stats import range_partition

    events = _read(sf_dir, "events", ["event_id"])
    planted = events.map_batches(
        lambda t: pa.table({
            "event_id": t["event_id"],
            "val": pc.cast(pc.subtract(
                t["event_id"],
                pc.multiply(pc.divide(t["event_id"], 7), 7)), pa.int64()),
        }),
        batch_format="pyarrow")
    out = range_partition(planted, "val", num_parts=4, k=1024)
    return out.select_columns(["event_id", "val", "part"])


PROFILE_CAP = 2000  # q_profile gate: event_id trips it, the rest stay exact


def q_profile(sf_dir: str):
    """Column profiler (engine.stats.profile_columns — SUMMARIZE) with the
    round-5 cardinality gate as the DEFAULT path: per column
    (n, n_null, n_distinct, distinct_exact) over a planted events
    projection — value_k = floor(value*10) %% 50 as int64, NULLed where
    event_id %% 11 == 0 (low-cardinality, null-bearing), plus event_id
    itself as the unique-key probe whose integer-exact HLL estimate
    exceeds PROFILE_CAP and therefore NEVER pays the O(rows) exact-domain
    exchange (VERDICT r4 #4). hll_method='md5' so the DuckDB twin
    replicates registers, the hll_estimate_int HUGEINT ladder, and the
    gate decision bit-for-bit; production callers keep the default
    vectorized 'fast' hash."""
    from engine.stats import profile_columns

    events = _read(sf_dir, "events",
                   ["event_id", "user_id", "event_type", "value"])

    def plant(t: pa.Table) -> pa.Table:
        e = t["event_id"]
        mod11 = pc.subtract(e, pc.multiply(pc.divide(e, 11), 11))
        vk_raw = pc.cast(pc.floor(pc.multiply(t["value"], 10.0)),
                         pa.int64())
        vk = pc.if_else(pc.equal(mod11, 0),
                        pa.scalar(None, type=pa.int64()),
                        pc.subtract(vk_raw,
                                    pc.multiply(pc.divide(vk_raw, 50), 50)))
        return pa.table({"user_id": t["user_id"],
                         "event_type": t["event_type"],
                         "value_k": vk,
                         "event_id": e})

    planted = events.map_batches(plant, batch_format="pyarrow")
    return profile_columns(
        planted, ["user_id", "event_type", "value_k", "event_id"],
        approx="auto", distinct_cap=PROFILE_CAP, hll_m=256,
        hll_method="md5")


def q_pagerank(sf_dir: str):
    """Integer-exact PageRank (engine.graph.pagerank_int) over a planted
    link graph: node = doc_id (0..n-1 contiguous), every node links to
    (3i+1)%n and (7i+2)%n (outdeg 2; n coprime to 3 and 7 in the fixtures
    → in-degree exactly 2, masses stay bounded). 3 Lloyd-shaped rounds of
    edges⋈masses + groupby-Sum, floor arithmetic only — the DuckDB twin
    unrolls the same three rounds with BIGINT // math, so every join and
    exchange is value-pinned."""
    import pyarrow.parquet as pq

    from engine.graph import pagerank_int

    n = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk_edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        src = np.concatenate([d, d])
        dst = np.concatenate([(3 * d + 1) % n, (7 * d + 2) % n])
        return pa.table({
            "src": pa.array(src), "dst": pa.array(dst),
            "outdeg": pa.array(np.full(len(src), 2, dtype=np.int64)),
        })

    # edges feed every iteration's join — materialize once (lazy-re-exec)
    edges = docs.map_batches(mk_edges, batch_format="pyarrow").materialize()
    nodes = docs.map_batches(
        lambda t: pa.table({"node": t["doc_id"]}), batch_format="pyarrow")
    masses = pagerank_int(edges, nodes, iters=3, n_nodes=n)
    return masses.map_batches(
        lambda t: pa.table({"doc_id": t["node"], "mass": t["m"]}),
        batch_format="pyarrow")


def q_charset_decode(sf_dir: str):
    """Charset-sniffed byte decode (engine/htmlx/charset.py: BOM → WHATWG
    meta prescan → utf-8) through the FULL extraction kernel. The planted
    corpus encodes a known page per doc_id in one of six on-the-wire
    encodings (utf-8, windows-1251, shift_jis/cp932, iso-8859-1→cp1252,
    utf-8+BOM, gb2312/gbk — the Common-Crawl head). DuckDB cannot decode
    legacy codepages, so the oracle side rebuilds the EXPECTED title/text
    as a pure function of doc_id (UTF-8 SQL literals): any mojibake on the
    Ray side flips the value hash."""
    docs = _read(sf_dir, "documents", ["doc_id"])

    _CLASSES = [
        ("utf-8", "", "plain ascii "),
        ("cp1251", '<meta charset="windows-1251">', "Привет мир "),
        ("cp932", '<meta charset="shift_jis">', "日本語テキスト "),
        ("cp1252", '<meta charset="iso-8859-1">', "café déjà vu "),
        ("utf-8-sig", "", "bom text "),
        ("gbk", '<meta charset="gb2312">', "中文文本 "),
    ]

    def mk_pages(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        payloads = []
        for i in ids:
            enc, meta, stem = _CLASSES[i % 6]
            payloads.append(
                (f"<html><head>{meta}<title>T{i % 6}</title></head>"
                 f"<body><p>{stem}{i}</p></body></html>").encode(enc))
        return pa.table({"url": pc.cast(t["doc_id"], pa.string()),
                         "html": pa.array(payloads, type=pa.binary())})

    pages = docs.map_batches(mk_pages, batch_format="pyarrow")
    extracted = pages.map_batches(
        extract_batch, batch_format="pyarrow", batch_size=128)
    return extracted.map_batches(
        lambda t: pa.table({"doc_id": pc.cast(t["url"], pa.int64()),
                            "title": t["title"],
                            "text": t["plain_text"]}),
        batch_format="pyarrow")


def q_quality_classifier(sf_dir: str):
    """Model-based quality gate (engine/classify.py): fastText-style hashed
    bag-of-tokens linear scorer with BROADCAST weights (ray.put once,
    plasma-cached per worker — never re-shipped per batch), map-side only.
    Planted integer weights w[b] = (b % 1001) - 500 over md5-slice buckets
    make every weight re-derivable in SQL; keep = score > 0."""
    from engine.classify import DEFAULT_DIM, hashed_linear_scores, planted_weights

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    w_ref = ray.put(planted_weights())
    scored = hashed_linear_scores(docs, w_ref, dim=DEFAULT_DIM)
    return scored.map_batches(
        lambda t: pa.table({"doc_id": t["doc_id"], "score": t["score"],
                            "keep": pc.greater(t["score"], 0)}),
        batch_format="pyarrow")


def q_url_filter(sf_dir: str):
    """Rule-based URL gate (engine.filters.url_rule_filter — the
    RefinedWeb/CCNet URL-blocklist stage): planted urls hit every rule
    class (banned TLD, banned word, path depth, query spam, over-length,
    first-match-wins precedence incl. a tld-beats-word probe). Map-side
    only, one RE2 kernel call per rule per batch. DuckDB twin: identical
    RE2 patterns in a CASE chain."""
    from engine.filters import url_rule_filter

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls = []
        for i in t["doc_id"].to_pylist():
            c = i % 8
            if c == 0:
                u = f"https://ok{i % 7}.example.com/a/p{i}"
            elif c == 1:
                u = f"https://bad{i % 5}.xxx/p{i}"
            elif c == 2:
                u = f"https://w{i % 5}.example.com/casino/p{i}"
            elif c == 3:
                u = f"https://d{i % 5}.example.com/a/b/c/d/e/f/g/p{i}"
            elif c == 4:
                u = f"https://q{i % 5}.example.com/p?a=1&b=2&c=3&d=4&e=5&f={i}"
            elif c == 5:
                u = "https://long.example.com/" + "x" * 160 + str(i)
            elif c == 6:
                u = f"https://mix.xxx/casino/{i}"  # tld wins over word
            else:
                u = f"https://ok.example.com/p{i}?a=1&b=2"
            urls.append(u)
        return pa.table({"url": pa.array(urls, type=pa.string())})

    return url_rule_filter(docs.map_batches(mk, batch_format="pyarrow"))


BANNED_WORDS = ("slow", "scan", "merge")
BANNED_PER_1000 = 100


def q_banned_words(sf_dir: str):
    """C4-badwords-style document gate (engine.filters.banned_word_gate):
    integer rule keep ⇔ n_banned·1000 ≤ n_tokens·100 over whole-word RE2
    counts — the corpus median banned rate sits exactly ON the threshold,
    so the ≤ boundary is value-pinned too. DuckDB twin: the same two
    regexp_extract_all lengths."""
    from engine.filters import banned_word_gate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return banned_word_gate(docs, BANNED_WORDS, BANNED_PER_1000)


def q_image_decode(sf_dir: str):
    """REAL image decode through the distributed stage
    (engine/imagecodec.py + multimodal.image_stats): per doc_id a planted
    image — red channel an x-gradient (rbase+x, no mod wrap by
    construction), green/blue constant — is ENCODED into a rotating
    container (PNG with row filter None/Sub/Up by id%3; BMP and PPM every
    7th/11th id), decoded by the stateless task stage, reduced to exact integer
    channel sums. The DuckDB twin computes the same sums in closed form
    (arithmetic series), so container parsing, zlib inflate, scanline
    unfiltering, bottom-up BMP order and BGR→RGB swizzle are all
    value-pinned."""
    import numpy as np

    from engine.imagecodec import encode_bmp, encode_png, encode_ppm
    from engine.multimodal import image_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            w = 8 + (i % 5) * 4
            h = 8 + (i % 3) * 4
            rbase = (7 * i) % 200           # rbase + w - 1 <= 222 < 256
            img = np.empty((h, w, 3), dtype=np.uint8)
            img[:, :, 0] = (rbase + np.arange(w, dtype=np.int64))[None, :]
            img[:, :, 1] = (13 * i) % 256
            img[:, :, 2] = (29 * i) % 256
            if i % 7 == 0:
                payloads.append(encode_bmp(img))
            elif i % 11 == 0:
                payloads.append(encode_ppm(img))
            else:
                payloads.append(encode_png(img, row_filter=i % 3))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = image_stats(media, batch_size=128)
    return out.select_columns(
        ["media_id", "width", "height", "sum_r", "sum_g", "sum_b"])


def q_tiff_decode(sf_dir: str):
    """REAL compressed-TIFF decode through the distributed stage
    (engine/imagecodec.py decode_tiff + multimodal.image_stats): the same
    planted gradient image as q_image_decode, ENCODED into a rotating
    TIFF matrix — compression none/LZW/PackBits by id%3, horizontal-
    differencing predictor on compressed ids where id%2==1, big-endian
    (MM) every 5th id, multi-strip (rows_per_strip=5) every 4th —
    decoded to exact integer channel sums. Any byte wrong in the PackBits
    runs, the LZW early-change width schedule, the predictor cumsum or
    the strip assembly moves a sum; the DuckDB twin computes the sums in
    closed form (container-independent)."""
    import numpy as np

    from engine.imagecodec import encode_tiff
    from engine.multimodal import image_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            w = 8 + (i % 5) * 4
            h = 8 + (i % 3) * 4
            rbase = (7 * i) % 200           # rbase + w - 1 <= 222 < 256
            img = np.empty((h, w, 3), dtype=np.uint8)
            img[:, :, 0] = (rbase + np.arange(w, dtype=np.int64))[None, :]
            img[:, :, 1] = (13 * i) % 256
            img[:, :, 2] = (29 * i) % 256
            comp = (1, 5, 32773)[i % 3]
            payloads.append(encode_tiff(
                img,
                big_endian=(i % 5 == 0),
                compression=comp,
                predictor=2 if (comp != 1 and i % 2 == 1) else 1,
                rows_per_strip=5 if i % 4 == 0 else 0))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = image_stats(media, batch_size=128)
    return out.select_columns(
        ["media_id", "width", "height", "sum_r", "sum_g", "sum_b"])


def q_jpeg_decode(sf_dir: str):
    """REAL baseline-JPEG decode through the distributed stage
    (engine/jpegcodec.py + multimodal.image_stats): per doc_id a planted
    constant-8x8-block image — Y/Cb/Cr block values are closed-form in
    doc_id and block coords; even ids are grayscale, every 5th id writes
    restart markers — is ENCODED by the real forward path (FDCT,
    all-ones quant, canonical Huffman, byte stuffing, DRI/RSTn) and
    decoded by the stateless task stage to exact integer channel sums.
    DC-only blocks make Huffman + dequant + IDCT + the JFIF YCbCr→RGB
    floor(x+0.5) conversion all value-pinned; the DuckDB twin computes
    the same sums from the block formulas with identical double
    literals."""
    import numpy as np

    from engine.jpegcodec import encode_jpeg
    from engine.multimodal import image_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            wb, hb = 1 + i % 3, 1 + i % 2
            bx = np.arange(wb, dtype=np.int64)[None, :]
            by = np.arange(hb, dtype=np.int64)[:, None]
            up = (lambda p: np.repeat(np.repeat(p, 8, 0), 8, 1)
                  .astype(np.uint8))
            y = up((5 * i + 11 * bx + 17 * by) % 256)
            ri = 2 if i % 5 == 0 else 0
            if i % 2 == 0:
                payloads.append(encode_jpeg(y, restart_interval=ri))
            else:
                cb = up(np.broadcast_to((7 * i + 13 * bx) % 256, (hb, wb)))
                cr = up(np.broadcast_to((3 * i + 19 * by) % 256, (hb, wb)))
                payloads.append(encode_jpeg(y, cb, cr,
                                            restart_interval=ri))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = image_stats(media, batch_size=128)
    return out.select_columns(
        ["media_id", "width", "height", "sum_r", "sum_g", "sum_b"])


def q_jpeg420(sf_dir: str):
    """REAL 4:2:0 subsampled JPEG decode (engine/jpegcodec.py): planted
    constant-chroma 16x16 macroblocks with per-8x8-cell Y; chroma
    upsampling is pixel replication (the documented convention) so the
    channel sums stay closed-form; every 4th id writes a restart marker
    per MCU (stressing the interleaved 4-Y+Cb+Cr order)."""
    import numpy as np

    from engine.jpegcodec import encode_jpeg
    from engine.multimodal import image_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            wm, hm = 1 + i % 2, 1 + i % 3
            cx = np.arange(2 * wm, dtype=np.int64)[None, :]
            cy = np.arange(2 * hm, dtype=np.int64)[:, None]
            up8 = (lambda p: np.repeat(np.repeat(p, 8, 0), 8, 1)
                   .astype(np.uint8))
            y = up8(np.broadcast_to((5 * i + 11 * cx + 17 * cy) % 256,
                                    (2 * hm, 2 * wm)))
            mx = np.arange(wm, dtype=np.int64)[None, :]
            my = np.arange(hm, dtype=np.int64)[:, None]
            cb = up8(np.broadcast_to((7 * i + 13 * mx) % 256, (hm, wm)))
            cr = up8(np.broadcast_to((3 * i + 19 * my) % 256, (hm, wm)))
            payloads.append(encode_jpeg(
                y, cb, cr, subsample=True,
                restart_interval=1 if i % 4 == 0 else 0))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = image_stats(media, batch_size=128)
    return out.select_columns(
        ["media_id", "width", "height", "sum_r", "sum_g", "sum_b"])


def q_bm25_search(sf_dir: str):
    """Integer-exact BM25 top-10 retrieval (engine.textstats.bm25_search)
    for the query (hash, merge, window) over the real documents table —
    disjunctive, rational k1=6/5 b=3/4 cleared into one integer floor
    division at scale 4096, idf via the length(bin(x)) ladder. DuckDB
    twin: the identical integer expression over tf/df/dl/avgdl CTEs."""
    import pyarrow.parquet as pq

    from engine.textstats import bm25_search

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    n_docs = pq.read_metadata(
        os.path.join(sf_dir, "documents.parquet")).num_rows
    return bm25_search(docs, ("hash", "merge", "window"), n_docs=n_docs,
                       k=10)


def q_cluster_rep(sf_dir: str):
    """Keep-BEST dedup representative selection
    (engine.dedup.select_cluster_representatives): planted near-dup chains
    (d, d+1) for d % 10 != 9 group documents into ten-blocks; per block
    keep the doc with the longest text (integer score = char length),
    ties to the lowest id. DuckDB twin: cluster = min(doc_id) OVER
    (PARTITION BY doc_id // 10) + QUALIFY row_number ORDER BY score DESC,
    doc_id — the keep-best policy in closed form (component propagation
    itself is pinned by q_components' recursive twin)."""
    from engine.dedup import select_cluster_representatives

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def score(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "score": pc.cast(pc.utf8_length(
                pc.coalesce(t["text"], pa.scalar(""))), pa.int64())})

    def mk_edges(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = d[d % 10 != 9]
        return pa.table({"src": d, "dst": d + 1})

    scored = docs.map_batches(score, batch_format="pyarrow")
    edges = docs.map_batches(mk_edges, batch_format="pyarrow")
    return select_cluster_representatives(scored, edges)


def q_webp_decode(sf_dir: str):
    """REAL lossless-WebP (VP8L) decode through the distributed stage
    (engine/webpcodec.py + multimodal.image_stats): per doc_id a planted
    VP8L image with per-pixel channels r = (id%200)+3x+7y,
    g = (id%220)+2x, b = ((13·id)%190)+x+y (all < 256 by construction —
    no wraparound, so channel sums are closed-form arithmetic series);
    odd ids ride the SUBTRACT_GREEN transform. The RIFF walk, bit
    unpacking, canonical prefix decode and inverse transform are all
    value-pinned by the DuckDB twin."""
    import numpy as np

    from engine.webpcodec import encode_webp_lossless

    from engine.multimodal import image_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            w, h = 4 + i % 5, 2 + i % 3
            x = np.arange(w, dtype=np.int64)[None, :]
            y = np.arange(h, dtype=np.int64)[:, None]
            img = np.stack(np.broadcast_arrays(
                (i % 200) + 3 * x + 7 * y,
                (i % 220) + 2 * x + 0 * y,
                ((13 * i) % 190) + x + y), axis=-1).astype(np.uint8)
            payloads.append(encode_webp_lossless(img,
                                                 subtract_green=bool(i % 2)))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = image_stats(media, batch_size=128)
    return out.select_columns(
        ["media_id", "width", "height", "sum_r", "sum_g", "sum_b"])


def q_jpeg_progressive(sf_dir: str):
    """REAL progressive (SOF2) JPEG decode through the distributed stage
    (engine/jpegcodec.py decode + encode_progressive_jpeg fixtures): the
    same planted constant-8x8-block images as `jpeg_decode` (closed-form
    Y/Cb/Cr in doc_id and block coords; even ids grayscale) but encoded
    as multi-scan progressive streams with per-id successive-approximation
    depths (al_dc = id%3, al_ac = (id//3)%3 — id%9==0 is pure spectral
    selection) and restart markers inside every scan for every 5th id.
    DC-only blocks make the whole scan ladder — interleaved DC
    first/refinement, AC-first EOB runs (split by RSTn), AC-refinement
    correction passes — value-pinned to the identical closed-form sums as
    the baseline twin; nonzero-AC progressive paths are pinned in pytest
    against the oracle-verified baseline decoder."""
    import numpy as np

    from engine.jpegcodec import encode_progressive_jpeg
    from engine.multimodal import image_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            wb, hb = 1 + i % 3, 1 + i % 2
            bx = np.arange(wb, dtype=np.int64)[None, :]
            by = np.arange(hb, dtype=np.int64)[:, None]
            up = (lambda p: np.repeat(np.repeat(p, 8, 0), 8, 1)
                  .astype(np.uint8))
            y = up((5 * i + 11 * bx + 17 * by) % 256)
            kw = dict(al_dc=i % 3, al_ac=(i // 3) % 3,
                      restart_interval=2 if i % 5 == 0 else 0)
            if i % 2 == 0:
                payloads.append(encode_progressive_jpeg(y, **kw))
            else:
                cb = up(np.broadcast_to((7 * i + 13 * bx) % 256, (hb, wb)))
                cr = up(np.broadcast_to((3 * i + 19 * by) % 256, (hb, wb)))
                payloads.append(encode_progressive_jpeg(y, cb, cr, **kw))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = image_stats(media, batch_size=128)
    return out.select_columns(
        ["media_id", "width", "height", "sum_r", "sum_g", "sum_b"])


def q_audio_decode(sf_dir: str):
    """REAL WAV decode through the distributed stage (engine/audiocodec.py
    + multimodal.audio_stats): per doc_id a planted 16-bit PCM WAV whose
    samples are the arithmetic series base+k (no wrap by construction) is
    decoded by the stateless task stage and reduced to (n_samples, exact integer
    sample sum); the DuckDB twin computes both in closed form — RIFF
    chunk walk, PCM scaling and sample order all value-pinned."""
    import numpy as np

    from engine.audiocodec import encode_wav
    from engine.multimodal import audio_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            n = 64 + (i % 7) * 16
            base = (37 * i) % 1000          # base + n - 1 <= 1158 << 2^15
            samples = base + np.arange(n, dtype=np.int64)
            payloads.append(encode_wav(samples.astype(np.int16),
                                       rate=8000 + (i % 3) * 4000))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = audio_stats(media, batch_size=128)
    return out.select_columns(["media_id", "n_samples", "sum_s"])


def q_g711_decode(sf_dir: str):
    """REAL G.711 telephony-audio decode (engine/audiocodec.py fmt 6/7)
    through the distributed stage: per doc_id a planted WAV whose data
    bytes ARE the G.711 codewords (µ-law for even ids, A-law for odd),
    byte[k] = (7·doc_id + 13·k) % 256. The CCITT segment/mantissa
    expansion is pure integer math, so the DuckDB twin recomputes every
    decoded sample in closed form (xor/shift/case) and sums — table
    construction, container walk and byte order all value-pinned."""
    import numpy as np

    from engine.audiocodec import encode_wav_g711
    from engine.multimodal import audio_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            n = 48 + (i % 5) * 16
            by = ((7 * i + 13 * np.arange(n, dtype=np.int64)) % 256)
            payloads.append(encode_wav_g711(
                by.astype(np.uint8).tobytes(),
                law="alaw" if i % 2 else "ulaw",
                rate=8000))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = audio_stats(media, batch_size=128)
    return out.select_columns(["media_id", "n_samples", "sum_s"])


ADPCM_NIBBLES = 24  # one mono block: 12 data bytes = 3 words; 25 samples


def q_adpcm_decode(sf_dir: str):
    """REAL IMA/DVI ADPCM decode (engine/audiocodec.py fmt 0x11) through
    the distributed stage: per doc_id one mono block with header
    predictor (31·doc_id) % 2048 − 1024, step index doc_id % 89 and
    nibble[k] = (doc_id + 5k) % 16. The DuckDB twin replays the exact
    quantizer recurrence (89-entry step table as a list literal, clamp,
    index walk) in a recursive CTE — every sample of the sequential
    decode is value-pinned in SQL."""
    import numpy as np

    from engine.audiocodec import encode_wav_adpcm
    from engine.multimodal import audio_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            nib = (i + 5 * np.arange(ADPCM_NIBBLES, dtype=np.int64)) % 16
            payloads.append(encode_wav_adpcm(
                (31 * i) % 2048 - 1024, i % 89,
                nib.astype(np.uint8), rate=8000))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = audio_stats(media, batch_size=128)
    return out.select_columns(["media_id", "n_samples", "sum_s"])


def q_code_blocks(sf_dir: str):
    """Web-code mining (engine.links.extract_code_blocks): planted pages
    carry doc_id%3 <pre> blocks — half wrapped in <code class="language-X">,
    half untagged, bodies with escaped entities and newlines. The
    vectorized split/extract pass (one RE2 scan per page batch, narrow
    rows out) is value-pinned: ordinals, language-class routing, entity
    unescape and line/char accounting all recomputed in closed form by
    the DuckDB twin."""
    from engine.links import extract_code_blocks

    docs = _read(sf_dir, "documents", ["doc_id"])
    langs = ("py", "js", "cpp")

    def mk(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        htmls = []
        for i in ids:
            parts = ["<html><body><h1>t</h1>"]
            for j in range(i % 3):
                body = f"line{i}_{j}&lt;x\nret {i * j}"
                if (i + j) % 2 == 0:
                    lang = langs[(i + j) % 3]
                    parts.append(f'<pre><code class="language-{lang}">'
                                 f"{body}</code></pre>")
                else:
                    parts.append(f"<pre>{body}</pre>")
            parts.append("</body></html>")
            htmls.append("".join(parts))
        return pa.table({"url": pa.array([str(i) for i in ids]),
                         "html": pa.array(htmls)})

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(t["url"], pa.int64()),
            "pos": t["pos"], "lang": t["lang"],
            "n_lines": t["n_lines"], "n_chars": t["n_chars"],
            "text": t["text"]})

    pages = docs.map_batches(mk, batch_format="pyarrow")
    return extract_code_blocks(pages).map_batches(
        finish, batch_format="pyarrow")


def q_flac_decode(sf_dir: str):
    """REAL FLAC decode (engine/flaccodec.py) through the distributed
    stage: per doc_id a planted stream over the linear ramp base+k —
    mode rotates by id (fixed order-2 whose residuals are exactly zero
    on a ramp, verbatim, and mid/side stereo with identical channels so
    the downmix stays integer); 192-sample blocks make n > 192 ids
    multi-frame. Frame sync, CRC-8/CRC-16, UTF-8 frame numbers, Rice
    residuals and the subframe predictors are all value-pinned by the
    closed-form DuckDB twin."""
    import numpy as np

    from engine.flaccodec import encode_flac
    from engine.multimodal import audio_stats

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        payloads = []
        ids = t["doc_id"].to_pylist()
        for i in ids:
            n = 160 + (i % 5) * 48          # up to 352 → 1-2 frames @192
            base = (29 * i) % 500
            s = base + np.arange(n, dtype=np.int64)
            rate = 8000 + (i % 3) * 4000
            m = i % 3
            if m == 0:
                payloads.append(encode_flac([s], rate=rate, blocksize=192,
                                            mode="fixed", order=2))
            elif m == 1:
                payloads.append(encode_flac([s], rate=rate, blocksize=192,
                                            mode="verbatim"))
            else:
                payloads.append(encode_flac([s, s], rate=rate,
                                            blocksize=192, mode="fixed",
                                            order=1,
                                            stereo_mode="mid_side"))
        return pa.table({"media_id": pa.array(ids, type=pa.int64()),
                         "payload": pa.array(payloads, type=pa.binary())})

    media = docs.map_batches(mk, batch_format="pyarrow")
    out = audio_stats(media, batch_size=128)
    return out.select_columns(["media_id", "n_samples", "sum_s"])


BPE_MERGES = 6


def q_bpe_merges(sf_dir: str):
    """BPE tokenizer TRAINING (engine.tokenize.bpe_train): distributed word
    counting (Counter partials → groupby Sum, exchange O(vocab×batches)),
    then the merge loop over the word-TYPE table — O(vocabulary) driver
    state, the Sennrich/HF-trainer shape. Deterministic tie-break
    (count DESC, pair ASC). DuckDB twin: 6 unrolled merge rounds over
    double-wrapped symbol strings ('|a||b|'), where SQL replace()'s
    left-to-right non-overlapping scan IS the BPE merge rule."""
    from engine.tokenize import bpe_train, word_counts

    wc = word_counts(_read(sf_dir, "documents", ["text"]))
    return bpe_train(wc, BPE_MERGES)


def q_bpe_segments(sf_dir: str):
    """Tokenizer-apply for the TRAINED BPE (engine.tokenize
    .bpe_segment_counts): per-document symbol count after the 6 learned
    merges — the compression-ratio / token-budget accounting pass. Merges
    apply per UNIQUE word per batch (factorize), lengths scatter back.
    DuckDB twin recomputes the merge table, then applies the same 6
    replaces per word occurrence and sums per doc."""
    from engine.tokenize import bpe_segment_counts, bpe_train, word_counts

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    merges_tbl = bpe_train(word_counts(docs), BPE_MERGES)
    merges = list(zip(merges_tbl["lhs"].to_pylist(),
                      merges_tbl["rhs"].to_pylist()))
    return bpe_segment_counts(docs, merges)


def q_token_windows(sf_dir: str):
    """Sliding token-window chunker (engine.tokenize.chunk_token_windows):
    size-32 windows at stride 24 (8-token overlap) — the embedding-prep /
    RAG chunking unit, complementing the line-based non-overlapping M4
    chunker. DuckDB twin: generate_series window ordinals + 1-based
    inclusive list slices over the \\S+ token list."""
    from engine.tokenize import chunk_token_windows

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return chunk_token_windows(docs, size=32, stride=24)


def q_image_refs(sf_dir: str):
    """Image-text pair mining (engine.links.extract_image_refs): planted
    pages exercise every rule — root-relative / dir-relative /
    protocol-relative resolution, alt captions present-empty-and-absent,
    data:-URI and src-less tags dropped. DuckDB twin: regexp_extract_all
    of '<img[^>]*>' tags + per-tag src/alt extraction + the CASE resolver
    + row_number pos ordinals."""
    from engine.links import extract_image_refs

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://im{i % 5}.ex.com/g/{i}")
            htmls.append(
                f'<html><img src="/img/{i}.png" alt="cap {i}"><p>t</p>'
                f'<img src="th{i % 7}.jpg">'
                '<img src="data:image/gif;base64,x" alt="skip">'
                '<img alt="nosrc">'
                f'<img src="//cdn{i % 3}.ex.net/l{i}.webp" alt="">'
                '</html>')
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    return extract_image_refs(docs.map_batches(mk, batch_format="pyarrow"))


def q_head_meta(sf_dir: str):
    """Head-metadata extraction (engine.links.extract_head_meta): planted
    pages vary og:title presence, og:image absolute/relative/missing, and
    canonical relative/absolute — null handling and the shared URL
    resolver are all pinned. DuckDB twin computes the expected values
    directly from doc_id (the planted html is a pure function of it)."""
    from engine.links import extract_head_meta

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://hm{i % 4}.ex.com/a/{i}")
            parts = ["<html><head>"]
            if i % 5 != 0:
                parts.append(f'<meta property="og:title" '
                             f'content="Title {i}">')
            if i % 7 != 0:
                img = (f"https://cdn.ex/img{i}.png" if i % 3 == 0
                       else f"/im/{i}.png")
                parts.append(f'<meta property="og:image" content="{img}">')
            parts.append(f'<meta name="description" content="Desc {i}">')
            canon = f"c{i}" if i % 2 == 0 else f"https://can.ex/{i}"
            parts.append(f'<link rel="canonical" href="{canon}">')
            parts.append("</head><body><p>b</p></body></html>")
            htmls.append("".join(parts))
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    return extract_head_meta(docs.map_batches(mk, batch_format="pyarrow"))


def q_canonical_dedup(sf_dir: str):
    """Crawl dedup by rel=canonical (the head_meta consumer): pages in
    groups of 3 consecutive ids share a canonical target; pages without a
    canonical tag (every 5th) stand alone under their own url
    (coalesce(canonical, url) key). extract_head_meta → narrow (key, url)
    → groupby Min/Count — the keeper-per-duplicate-set plan with only keys
    and urls crossing the wire. DuckDB twin: the same CASE key + GROUP
    BY."""
    from ray.data.aggregate import Count, Min

    from engine.links import extract_head_meta

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://cd{i % 6}.ex.com/p/{i}")
            if i % 5 == 0:
                htmls.append("<html><head></head><body>solo</body></html>")
            else:
                htmls.append(f'<html><head><link rel="canonical" '
                             f'href="https://canon.ex/c/{i // 3}">'
                             "</head></html>")
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    meta = extract_head_meta(docs.map_batches(mk, batch_format="pyarrow"))
    keyed = meta.map_batches(
        lambda t: pa.table({
            "key": pc.coalesce(t["canonical"], t["url"]),
            "url": t["url"]}),
        batch_format="pyarrow")
    return (keyed.groupby("key")
            .aggregate(Min("url", alias_name="keeper"),
                       Count(alias_name="n_pages")))


def q_robots_meta(sf_dir: str):
    """Robots-meta crawl-compliance flags (engine.links
    .extract_robots_meta): planted pages cycle through index/noindex/
    nofollow/both/none/absent (incl. an uppercase probe); 'none' implies
    both directives, absent tag implies neither. DuckDB twin: same RE2
    content extraction + directive-token matches."""
    from engine.links import extract_robots_meta

    docs = _read(sf_dir, "documents", ["doc_id"])
    _VARIANTS = ['content="index, follow"', 'content="noindex"',
                 'content="nofollow,noarchive"',
                 'content="NOINDEX, NOFOLLOW"', 'content="none"', None]

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://rb{i % 3}.ex.com/p/{i}")
            v = _VARIANTS[i % 6]
            htmls.append("<html><head></head><body>solo</body></html>"
                         if v is None else
                         f'<html><head><meta name="robots" {v}>'
                         "</head></html>")
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    return extract_robots_meta(docs.map_batches(mk, batch_format="pyarrow"))


def q_jsonld(sf_dir: str):
    """Schema.org JSON-LD extraction (engine.links.extract_jsonld):
    planted pages cycle Article-with-name / Product-no-name / malformed
    JSON / absent block / array root — null handling is the contract.
    DuckDB twin: the same RE2 block extraction + json_valid-guarded
    json_extract_string."""
    from engine.links import extract_jsonld

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://jl{i % 3}.ex.com/p/{i}")
            c = i % 5
            if c == 3:  # no block at all
                htmls.append("<html><p>plain</p></html>")
                continue
            body = {0: '{"@type": "Article", "name": "Story %d"}' % i,
                    1: '{"@type": "Product"}',
                    2: "{broken json %d" % i,
                    4: "[1, 2, %d]" % i}[c]
            htmls.append('<html><script type="application/ld+json">'
                         f"{body}</script></html>")
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    return extract_jsonld(docs.map_batches(mk, batch_format="pyarrow"))


def q_extract_tables(sf_dir: str):
    """Structured table extraction (engine.tables.extract_tables): planted
    pages carry a header+body grid table (1 + doc_id%3 body rows) and, on
    every 4th doc, a rowspan table whose second row's cell must be pushed
    to col 1 by the reservation — grid placement, th flags, whitespace
    collapse and per-doc table ordinals are all pinned. DuckDB twin
    derives the expected long-format cells from doc_id arithmetic (the
    planted html is a pure function of it)."""
    from engine.tables import extract_tables

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            urls.append(f"https://tb{i % 5}.ex.com/t/{i}")
            body = "".join(
                f"<tr><td>  k{i}-{r} </td><td>v{(i * 7 + r) % 100}</td></tr>"
                for r in range(1 + i % 3))
            parts = ["<html><body><table><thead><tr><th>Name</th>"
                     f"<th>Val</th></tr></thead><tbody>{body}"
                     "</tbody></table>"]
            if i % 4 == 0:
                parts.append(
                    f'<table><tr><td rowspan="2">s{i}</td><td>a{i}</td>'
                    f"</tr><tr><td>b{i}</td></tr></table>")
            parts.append("</body></html>")
            htmls.append("".join(parts))
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    return extract_tables(docs.map_batches(mk, batch_format="pyarrow"))


def q_pub_dates(sf_dir: str):
    """Published-date extraction (engine.links.extract_pub_dates): planted
    pages cycle through meta/time/jsonld/url-path signals plus an
    invalid-meta fall-through and a no-signal class; every class also
    plants a LOWER-priority distractor date so the priority order is
    pinned, not just presence. DuckDB twin derives (pub_date, pub_source)
    from doc_id arithmetic."""
    from engine.links import extract_pub_dates

    docs = _read(sf_dir, "documents", ["doc_id"])

    def mk(t: pa.Table) -> pa.Table:
        urls, htmls = [], []
        for i in t["doc_id"].to_pylist():
            y, m, d = 2000 + i % 25, 1 + i % 12, 1 + i % 28
            m2, d2 = 1 + (i + 5) % 12, 1 + (i + 7) % 28
            date = f"{y}-{m:02d}-{d:02d}"
            alt = f"{y}-{m2:02d}-{d2:02d}"
            c = i % 6
            if c == 1:
                url = f"https://pd{i % 3}.ex.com/{y}/{m2:02d}/{d2:02d}/p{i}"
            elif c in (3, 4):
                url = f"https://pd{i % 3}.ex.com/{y}/{m:02d}/{d:02d}/p{i}"
            else:
                url = f"https://pd{i % 3}.ex.com/post/{i}"
            urls.append(url)
            if c == 0:  # meta beats the planted <time> distractor
                htmls.append(
                    '<html><meta property="article:published_time" '
                    f'content="{date}T08:30:00Z">'
                    f'<time datetime="{alt}">x</time></html>')
            elif c == 1:  # <time> beats the dated URL
                htmls.append(f'<html><time datetime="{date}">x</time>'
                             "</html>")
            elif c == 2:
                htmls.append(
                    '<html><script type="application/ld+json">'
                    f'{{"@type": "Article", "datePublished": "{date}"}}'
                    "</script></html>")
            elif c == 4:  # implausible meta value falls through to url
                htmls.append(
                    '<html><meta property="article:published_time" '
                    'content="last tuesday"></html>')
            else:  # c == 3 (url only) / c == 5 (no signal)
                htmls.append("<html><p>plain</p></html>")
        return pa.table({"url": pa.array(urls, type=pa.string()),
                         "html": pa.array(htmls, type=pa.string())})

    return extract_pub_dates(docs.map_batches(mk, batch_format="pyarrow"))


def q_semdedup(sf_dir: str):
    """SemDeDup (engine.similarity.semdedup): planted 8-dim vectors carry a
    12-spike on cluster dim (r%4, r = (doc_id//3)%16) and a 9-spike on an
    identity dim (4 + r//4) — all docs sharing r are exact duplicates
    (cos 1.0), different r in the SAME cell sit at cos 0.64 < 0.9, so the
    expected output is exactly 'every non-min doc of each r maps to the
    r-minimum'. Pins assignment (unit-axis centroids), within-cell greedy
    and keeper choice. DuckDB twin: GROUP BY r + min(doc_id)."""
    from engine.similarity import semdedup

    docs = _read(sf_dir, "documents", ["doc_id"])

    def plant(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        r = (d // 3) % 16
        vecs = np.zeros((len(d), 8), dtype=np.float64)
        rows = np.arange(len(d))
        vecs[rows, r % 4] = 12.0
        vecs[rows, 4 + r // 4] = 9.0
        offsets = pa.array(np.arange(len(d) + 1, dtype=np.int32) * 8)
        emb = pa.ListArray.from_arrays(offsets, pa.array(vecs.ravel()))
        return pa.table({"doc_id": t["doc_id"], "embedding": emb})

    planted = docs.map_batches(plant, batch_format="pyarrow")
    return semdedup(planted, np.eye(4, 8), threshold=0.9)


def q_dsir_weights(sf_dir: str):
    """DSIR importance weights (engine.dsir.dsir_weights): target = every
    7th document, raw = all documents; per-doc weight = sum over token
    occurrences of the integer bit-length ladder of the token's md5
    bucket's target/raw counts. DuckDB twin recomputes the ladder with
    the '0x'||md5-prefix bucket hash and length(bin(x))."""
    from engine.dsir import dsir_weights

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def tgt(t: pa.Table) -> pa.Table:
        d = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(d % 7 == 0))

    target = docs.map_batches(tgt, batch_format="pyarrow")
    return dsir_weights(docs, target)


# ---------------------------------------------------------------------------
# registry
#
# ORDER MATTERS: the grading driver's correctness gate checks only the FIRST
# 50 entries. Policy (VERDICT r3 #1, r4 #2): the gate window holds, in
# priority order, (a) operators that have NEVER had a driver CORRECTNESS
# row — this round the 18 round-4 ops past the r4 window plus the round-3
# ops no gate ever reached, (b) brand-new round-5 queries, and (c) queries
# whose engine kernels changed this round (extraction/PDF/image/media/
# bigram paths). Everything below slot 50 is driver-green in a checked-in
# CORRECTNESS_r0*.json or explicitly judge-verified (the allowlist in
# tests/test_round4d_ops.py::test_no_orphan_registry_entries pins the
# discipline); scripts/check_oracle.py still verifies ALL entries (run it
# after any change here).
# ---------------------------------------------------------------------------

QUERIES = {
    # (b) new round-5 queries
    "textops_composite": q_textops_composite,
    "tiff_decode": q_tiff_decode,
    "jpeg_progressive": q_jpeg_progressive,
    "cluster_rep": q_cluster_rep,
    "bm25_search": q_bm25_search,
    "mjpeg_video": q_mjpeg_video,
    "g711_decode": q_g711_decode,
    "adpcm_decode": q_adpcm_decode,
    "webp_decode": q_webp_decode,
    "flac_decode": q_flac_decode,
    "code_blocks": q_code_blocks,
    # (a) the 18 round-4 ops past the r4 window (judge-verified r4, never
    # driver-gated)
    "link_density": q_link_density,
    "mix_corpora": q_mix_corpora,
    "quantile_filter": q_quantile_filter,
    "crawl_delta": q_crawl_delta,
    "pagerank": q_pagerank,
    "shard_pack": q_shard_pack,
    "profile": q_profile,
    "range_partition": q_range_partition,
    "upsample": q_upsample,
    "curriculum": q_curriculum,
    "heavy_hitters": q_heavy_hitters,
    "kmeans": q_kmeans,
    "hll_merged": q_hll_merged,
    "encode_tokens": q_encode_tokens,
    "pack_sequences": q_pack_sequences,
    "global_shuffle": q_global_shuffle,
    "quantile_sketch": q_quantile_sketch,
    "group_quantile_sketch": q_group_quantile_sketch,
    # (c) kernels changed in round 5: extraction scaling work, PDF password
    # plumbing, TIFF codec additions, media single-pass hashing, the
    # bigram_lm exchange cut
    "extract_roundtrip": q_extract_roundtrip,
    "pdf_roundtrip": q_pdf_roundtrip,
    "image_decode": q_image_decode,
    "media_features": q_media_features,
    "bigram_lm": q_bigram_lm,
    # (a) round-3 ops no driver gate ever reached (judge-verified r3,
    # pytest-pinned at sf0.001)
    "doc_repetition": q_doc_repetition,
    "domain_counts": q_domain_counts,
    "bloom_semi_join": q_bloom_semi_join,
    "decontaminate": q_decontaminate,
    "value_histogram": q_value_histogram,
    "dedup_canonical": q_dedup_canonical,
    "distinct_users": q_distinct_users,
    "token_freq_score": q_token_freq_score,
    "pii_redact": q_pii_redact,
    "value_percentiles_by_type": q_value_percentiles_by_type,
    "latest_event_per_user": q_latest_event_per_user,
    "top_bigrams": q_top_bigrams,
    "event_gaps": q_event_gaps,
    "region_revenue": q_region_revenue,
    "stratified_sample": q_stratified_sample,
    "hopping_window": q_hopping_window,
    "tfidf_terms": q_tfidf_terms,
    "value_outliers": q_value_outliers,
    "event_ntile": q_event_ntile,
    "inverted_index": q_inverted_index,
    "user_drift": q_user_drift,
    "skew_join": q_skew_join,
    "user_top_event": q_user_top_event,
    "funnel": q_funnel,
    "components": q_components,
    "global_rank": q_global_rank,
    # --- below this line (slot 51+): driver-green in a checked-in
    # CORRECTNESS_r0*.json, or judge-verified in r3/r4 and pinned at
    # sf0.001 in tests/test_queries_oracle.py (see the no-orphan test);
    # scripts/check_oracle.py still verifies every entry ---
    "transitions": q_transitions,
    "cms_users": q_cms_users,
    "vocab": q_vocab,
    "corpus_prep": q_corpus_prep,
    "cap_per_source": q_cap_per_source,
    "normalize_urls": q_normalize_urls,
    "strip_lines": q_strip_lines,
    "dense_rank": q_dense_rank,
    "bloom_users": q_bloom_users,
    "fuzzy_decontam": q_fuzzy_decontam,
    "strip_spans": q_strip_spans,
    "running_total": q_running_total,
    "audience_overlap": q_audience_overlap,
    "url_dedup": q_url_dedup,
    "minhash_clusters": q_minhash_clusters,
    "hll_events": q_hll_events,
    "hll_by_type": q_hll_by_type,
    "docx_roundtrip": q_docx_roundtrip,
    "dedup_paragraphs": q_dedup_paragraphs,
    "cluster_split": q_cluster_split,
    "meta_refresh": q_meta_refresh,
    "feed": q_feed,
    "hreflang": q_hreflang,
    "domain_prior": q_domain_prior,
    "anchor_corpus": q_anchor_corpus,
    "outline": q_outline,
    "compression": q_compression,
    "video_stats": q_video_stats,
    "jsonl_roundtrip": q_jsonl_roundtrip,
    "robots_sitemaps": q_robots_sitemaps,
    "frontier": q_frontier,
    "term_search": q_term_search,
    "phrase_search": q_phrase_search,
    "url_features": q_url_features,
    "corpus_prep2": q_corpus_prep2,
    "lang_hits": q_lang_hits,
    "window_dedup": q_window_dedup,
    "cut_dup_windows": q_cut_dup_windows,
    "fim_split": q_fim_split,
    "robots_gate": q_robots_gate,
    "sitemap": q_sitemap,
    "redirects": q_redirects,
    "jpeg_decode": q_jpeg_decode,
    "jpeg420": q_jpeg420,
    "extract_tables": q_extract_tables,
    "pub_dates": q_pub_dates,
    "semdedup": q_semdedup,
    "dsir_weights": q_dsir_weights,
    "charset_decode": q_charset_decode,
    "quality_classifier": q_quality_classifier,
    "url_filter": q_url_filter,
    "banned_words": q_banned_words,
    "audio_decode": q_audio_decode,
    "bpe_merges": q_bpe_merges,
    "bpe_segments": q_bpe_segments,
    "token_windows": q_token_windows,
    "image_refs": q_image_refs,
    "head_meta": q_head_meta,
    "canonical_dedup": q_canonical_dedup,
    "robots_meta": q_robots_meta,
    "jsonld": q_jsonld,
    "outlinks": q_outlinks,
    "link_graph": q_link_graph,
    "anchor_texts": q_anchor_texts,
    "status_counts": q_status_counts,
    "value_rollup": q_value_rollup,
    "user_value_stats": q_user_value_stats,
    "recent_events": q_recent_events,
    "top_parts": q_top_parts,
    "exact_dedup": q_exact_dedup,
    "orders_join": q_orders_join,
    "large_join": q_large_join,
    "lineitem_pricing": q_lineitem_pricing,
    "token_count": q_token_count,
    "fingerprint": q_fingerprint,
    "json_props": q_json_props,
    "simhash": q_simhash,
    "ngram_dedup_pairs": q_ngram_dedup_pairs,
    "knn_cosine": q_knn_cosine,
    "knn_lsh": q_knn_lsh,
    "knn_ivf": q_knn_ivf,
    "embedding_near_dup": q_embedding_near_dup,
    "lang_id": q_lang_id,
    "quality": q_quality,
    "url_buckets": q_url_buckets,
    "chunk_page": q_chunk_page,
    "event_dates": q_event_dates,
    "tumbling_window": q_tumbling_window,
    "first_per_user": q_first_per_user,
    "asof_join": q_asof_join,
    "session_windows": q_session_windows,
    "stable_split": q_stable_split,
    "customers_without_orders": q_customers_without_orders,
    "top_parts_per_brand": q_top_parts_per_brand,
    "token_df": q_token_df,
    "interval_attribution": q_interval_attribution,
    "rolling_spend": q_rolling_spend,
    "quantity_percentiles": q_quantity_percentiles,
    "doc_sample": q_doc_sample,
    "normalize_text": q_normalize_text,
    "user_event_sequences": q_user_event_sequences,
    "event_type_pivot": q_event_type_pivot,
    "orders_rollup": q_orders_rollup,
}
