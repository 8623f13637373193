"""Tokenizer-apply + sequence packing — the corpus-prep endgame: cleaned
documents → fixed-length training rows.

The reference converts documents into consumable text (app/main.py chunking);
at LLM scale the consumable unit is a PACKED TOKEN SEQUENCE. Two operators:

- :func:`encode_tokens` — broadcast vocab (``build_vocab``'s contiguous ids)
  → per-document int32 token-id lists. Vocab is broadcast by contract
  (``ray.put`` once, worker-cached via engine/broadcast.py): real tokenizer
  vocabularies are 10^4-10^6 entries — megabytes — while the corpus is TBs;
  the corpus must never shuffle to meet the vocab.
- :func:`pack_sequences` — the global token stream in doc_id order, sliced
  into consecutive ``seq_len``-token rows (GPT-style packing, partial tail
  dropped). Deterministic given (doc order, seq_len), so it has an exact SQL
  twin (string_agg over a global row_number).

Scale shape of pack_sequences (the 100 TB audit):
- pass 1 is NARROW: (doc_id, n_tokens) only — token counts come from one
  Arrow regex scan over the raw text, no vocab lookup; per-doc global
  offsets use the global_rank discipline (engine/stats.py): doc_id-range
  buckets, per-bucket totals exclusive-prefix-summed on the driver
  (one scalar per bucket), one vectorized cumsum per bucket.
- pass 2 ships each token id exactly ONCE as 4 bytes: encoded docs carry
  their ids as a packed int32 BINARY blob (Acero joins reject list columns —
  the dedup._list_u64_to_binary discipline), the offset join is the
  partitioned hash_join, boundary-straddling docs split into per-sequence
  segments ZERO-COPY (new offsets into the same Arrow values buffer), and
  reassembly is one seq_id-bucket exchange + a per-bucket vectorized
  sort/concat. No stage holds more than a block; nothing is O(corpus) on
  the driver.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray

UNK_ID = 0  # tokens absent from the vocab (closed-vocab corpora have none)


def _binary_parts(col: "pa.ChunkedArray | pa.Array"):
    """(byte_offsets int64 view, values buffer) of a binary column —
    Arrow's offsets vector is gap-free by format spec, so element i spans
    [off[i], off[i+1]) of the shared values buffer."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    off = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1].astype(np.int64)
    return arr, off, arr.buffers()[2]


def _ids_list_to_blob(lst: pa.ListArray) -> pa.Array:
    """list<int32> → packed little-endian binary, zero Python loop: the list
    values buffer IS the payload; the blob offsets are 4× the list offsets."""
    values = lst.values
    if values.type != pa.int32():
        values = values.cast(pa.int32())
    loff = lst.offsets.to_numpy().astype(np.int64)
    base = loff[0]
    boff = ((loff - base) * 4).astype(np.int32)
    vbuf = values.slice(base, loff[-1] - base)
    data = pa.py_buffer(vbuf.to_numpy(zero_copy_only=False)
                        .astype("<i4", copy=False).tobytes())
    return pa.Array.from_buffers(pa.binary(), len(lst),
                                 [None, pa.py_buffer(boff.tobytes()), data])


def _blob_to_ids_string(blobs: "list[bytes]", seq_len: int) -> pa.Array:
    """Packed int32 blobs (all exactly seq_len ids) → 'a,b,c' strings in one
    vectorized pass: one frombuffer, one Arrow int→string cast, one
    binary_join."""
    if not blobs:
        return pa.array([], type=pa.string())
    flat = np.frombuffer(b"".join(blobs), dtype="<i4").astype(np.int64)
    strs = pc.cast(pa.array(flat), pa.string())
    offsets = np.arange(0, len(flat) + 1, seq_len, dtype=np.int32)
    lst = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), strs)
    return pc.binary_join(lst, ",")


def vocab_series(vocab) -> pd.Series:
    """(token → vocab_id) lookup from build_vocab output (Dataset / Arrow
    table / pandas frame)."""
    if hasattr(vocab, "to_pandas"):
        vocab = vocab.to_pandas()
    return pd.Series(vocab["vocab_id"].to_numpy(np.int64),
                     index=vocab["token"].to_numpy())


def encode_tokens(ds: "ray.data.Dataset", vocab, text_col: str = "text",
                  id_col: str = "doc_id", unk_id: int = UNK_ID,
                  ) -> "ray.data.Dataset":
    """(id, n_tokens, ids list<int32>) — apply a vocabulary to a corpus.

    Tokenization is RE2 ``\\s+`` split with empty edge tokens dropped (the
    doc_terms twin: DuckDB ``regexp_extract_all(text, '\\S+')``). Per batch:
    one Arrow split → one pandas hash reindex of the FLAT token stream
    (C-speed; the token_freq_score transport pattern) → one zero-copy list
    rebuild. Unknown tokens encode to ``unk_id`` and keep their position.
    """
    from engine.broadcast import get_broadcast

    vs = vocab_series(vocab)
    vocab_ref = ray.put(vs)

    def encode(t: pa.Table) -> pa.Table:
        # one tokenization kernel across the engine: textstats'
        # empty-edge-token handling + per-row prefix sums, shared with the
        # doc_frequency/quality family and their SQL twins
        from engine.textstats import _flat_tokens, _text_column

        v: pd.Series = get_broadcast(vocab_ref)
        toks, row_lens = _flat_tokens(_text_column(t, text_col), r"\s+")
        ids = v.reindex(toks.to_numpy(zero_copy_only=False)) \
            .fillna(unk_id).to_numpy(np.int32)
        new_off = np.concatenate(([0], np.cumsum(row_lens))).astype(np.int32)
        id_lists = pa.ListArray.from_arrays(
            pa.array(new_off, type=pa.int32()), pa.array(ids, type=pa.int32()))
        return pa.table({
            id_col: t[id_col],
            "n_tokens": pa.array(row_lens, type=pa.int64()),
            "ids": id_lists,
        })

    return ds.map_batches(encode, batch_format="pyarrow")


def _doc_token_offsets(ds: "ray.data.Dataset", text_col: str, id_col: str,
                       lo_hi: "tuple[int, int] | None" = None,
                       ) -> tuple["ray.data.Dataset", int]:
    """(doc_id, tok_off) — exclusive prefix sum of per-doc token counts in
    doc_id order, plus the global total. The global_rank discipline: doc_id
    RANGE buckets → per-bucket token totals prefix-summed on the driver
    (one scalar per bucket) → one vectorized cumsum per bucket. The exchange
    carries 2 ints per document."""
    from ray.data.aggregate import Max, Min, Sum

    from engine.joins import _coalesced, exchange_width

    width = exchange_width()

    def counts(t: pa.Table) -> pa.Table:
        col = pc.fill_null(t[text_col], "")
        n = pc.cast(pc.count_substring_regex(col, pattern=r"\S+"), pa.int64())
        return pa.table({id_col: t[id_col], "n_tokens": n})

    narrow = ds.map_batches(counts, batch_format="pyarrow").materialize()
    if lo_hi is None:
        mm = narrow.aggregate(Min(id_col, alias_name="lo"),
                              Max(id_col, alias_name="hi"))
        lo, hi = int(mm["lo"]), int(mm["hi"])
    else:
        lo, hi = int(lo_hi[0]), int(lo_hi[1])
    span = (hi - lo + 1) or 1

    def add_bucket(t: pa.Table) -> pa.Table:
        d = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.clip((d - lo) * width // span, 0, width - 1)
        return t.append_column("__bucket", pa.array(b.astype(np.int32)))

    bucketed = _coalesced(
        narrow.map_batches(add_bucket, batch_format="pyarrow"),
        width).materialize()  # feeds totals AND the cumsum pass
    totals = {r["__bucket"]: r["t"] for r in
              bucketed.groupby("__bucket")
              .aggregate(Sum("n_tokens", alias_name="t")).take_all()}
    bases, acc = {}, 0
    for b in range(width):
        bases[b] = acc
        acc += totals.get(b, 0)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="mergesort")
        n = g["n_tokens"].to_numpy(np.int64)
        off = bases[int(g["__bucket"].iloc[0])] + np.concatenate(
            ([0], np.cumsum(n[:-1])))
        return pd.DataFrame({id_col: g[id_col].to_numpy(),
                             "tok_off": off})

    offsets = bucketed.groupby("__bucket").map_groups(
        per_bucket, batch_format="pandas").materialize()  # feeds hash_join
    return offsets, acc


def pack_sequences(ds: "ray.data.Dataset", vocab, seq_len: int,
                   text_col: str = "text", id_col: str = "doc_id",
                   lo_hi: "tuple[int, int] | None" = None,
                   ) -> "ray.data.Dataset":
    """(seq_id, token_ids) — pack the encoded corpus, in doc_id order, into
    consecutive ``seq_len``-token training rows; the partial tail sequence
    is dropped (standard GPT-style packing). ``token_ids`` is the
    comma-joined id string (string_agg-comparable; a production pipeline
    would keep the int32 list — same plan, skip the join).

    ``lo_hi``: optional (min_doc_id, max_doc_id) hint — parquet row-group
    statistics make this free at the call site and remove one narrow
    aggregate pass.
    """
    from engine.joins import bucketed_map_groups, hash_join

    offsets, total = _doc_token_offsets(ds, text_col, id_col, lo_hi)
    cut = (total // seq_len) * seq_len  # first token index NOT packed

    encoded = encode_tokens(ds, vocab, text_col, id_col).map_batches(
        lambda t: pa.table({id_col: t[id_col],
                            "n_tokens": t["n_tokens"],
                            "blob": _ids_list_to_blob(
                                t["ids"].combine_chunks()
                                if isinstance(t["ids"], pa.ChunkedArray)
                                else t["ids"])}),
        batch_format="pyarrow")
    joined = hash_join(encoded, offsets, on=id_col)

    def segments(t: pa.Table) -> pa.Table:
        empty = pa.table({
            "seq_id": pa.array([], type=pa.int64()),
            "start": pa.array([], type=pa.int64()),
            "blob": pa.array([], type=pa.binary()),
        })
        if t.num_rows == 0:
            return empty
        arr, boff, vbuf = _binary_parts(t["blob"])
        n = t["n_tokens"].to_numpy(zero_copy_only=False).astype(np.int64)
        off = t["tok_off"].to_numpy(zero_copy_only=False).astype(np.int64)
        live = n > 0
        if not live.any():
            return empty
        idx = np.flatnonzero(live)
        s0 = off[idx] // seq_len
        s1 = (off[idx] + n[idx] - 1) // seq_len
        n_seg = s1 - s0 + 1
        total_segs = int(n_seg.sum())
        seg_row = np.repeat(idx, n_seg)                  # source row per seg
        seg_pos = np.arange(total_segs) - np.repeat(
            np.concatenate(([0], np.cumsum(n_seg[:-1]))), n_seg)
        seq = np.repeat(s0, n_seg) + seg_pos
        g_start = np.maximum(off[seg_row], seq * seq_len)
        g_end = np.minimum(off[seg_row] + n[seg_row], (seq + 1) * seq_len)
        # zero-copy: new byte offsets into the SAME values buffer — a row's
        # segments tile it in order, and the Arrow offsets vector is gap-free,
        # so consecutive segment boundaries coincide
        b_start = boff[seg_row] + (g_start - off[seg_row]) * 4
        b_last_end = boff[seg_row[-1]] + (g_end[-1] - off[seg_row[-1]]) * 4
        new_off = np.concatenate((b_start, [b_last_end])).astype(np.int32)
        blobs = pa.Array.from_buffers(
            pa.binary(), total_segs,
            [None, pa.py_buffer(new_off.tobytes()), vbuf])
        out = pa.table({
            "seq_id": pa.array(seq, type=pa.int64()),
            "start": pa.array(g_start, type=pa.int64()),
            "blob": blobs,
        })
        return out.filter(pa.array(g_start < cut))  # drop the partial tail

    segs = joined.map_batches(segments, batch_format="pyarrow")

    def assemble(g: pa.Table) -> pa.Table:
        order = pc.sort_indices(g, sort_keys=[("seq_id", "ascending"),
                                              ("start", "ascending")])
        g = g.take(order)
        seq_ids = g["seq_id"].to_numpy(zero_copy_only=False)
        arr, boff, vbuf = _binary_parts(g["blob"])
        # after take, blob values are packed in sort order: per-seq blobs are
        # consecutive slices; seq boundaries from run-length over seq_id
        uniq, first = np.unique(seq_ids, return_index=True)
        bounds = np.concatenate((boff[first], [boff[-1]]))
        whole = np.frombuffer(vbuf, dtype=np.uint8)[
            int(boff[0]): int(boff[-1])]
        parts = [whole[int(a - boff[0]): int(b - boff[0])].tobytes()
                 for a, b in zip(bounds[:-1], bounds[1:])]
        token_ids = _blob_to_ids_string(parts, seq_len)
        return pa.table({"seq_id": pa.array(uniq, type=pa.int64()),
                         "token_ids": token_ids})

    return bucketed_map_groups(segs, "seq_id", assemble,
                               batch_format="pyarrow")


# ---------------------------------------------------------------------------
# BPE tokenizer TRAINING (the step before encode_tokens/pack_sequences)
# ---------------------------------------------------------------------------

# The merge loop runs on the word-TYPE table — O(vocabulary), not O(corpus):
# the shape every production BPE trainer uses (Sennrich 2016; HF tokenizers
# collects word counts into memory the same way). The distributed part is
# the word COUNT pass; the driver holds one (word, count) row per distinct
# word, gated here.
DRIVER_WORD_TYPES_MAX = 2_000_000


def word_counts(ds: "ray.data.Dataset", text_col: str = "text",
                ) -> "ray.data.Dataset":
    """(word, n) — corpus-wide whitespace-token occurrence counts.

    Partial Counter per batch (the doc_frequency discipline: exchange is
    O(vocabulary × batches), never O(token occurrences)), groupby-Sum merge.
    """
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s in t[text_col].to_pylist():
            c.update((s or "").split())
        words = list(c.keys())
        return pa.table({"word": pa.array(words, type=pa.string()),
                         "n": pa.array([c[w] for w in words],
                                       type=pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("word").aggregate(Sum("n", alias_name="n")))


def _count_pairs(syms: list, n: int, acc, idx, wid: int) -> None:
    for a, b in zip(syms, syms[1:]):
        acc[(a, b)] = acc.get((a, b), 0) + n
        idx.setdefault((a, b), set()).add(wid)


def _merge_word(syms: list, pair: tuple) -> list:
    """Left-to-right non-overlapping merge of ``pair`` (BPE semantics)."""
    out, i, m = [], 0, len(syms)
    a, b = pair
    while i < m:
        if i + 1 < m and syms[i] == a and syms[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(syms[i])
            i += 1
    return out


def bpe_train(word_count_table, num_merges: int) -> pa.Table:
    """(rank, lhs, rhs, pair_count) — BPE merge table from (word, n) counts.

    Deterministic tie-break: highest count, then lexicographically smallest
    (lhs, rhs) — the SQL twin's ``ORDER BY c DESC, l, r LIMIT 1``.
    Incremental: each merge recounts only the words that contain the merged
    pair (a pair→words index), so a K-merge run is O(K · affected), not
    O(K · vocabulary).

    Symbols must not contain ``'|'`` (the SQL twin's separator); offending
    words are dropped with the same rule on both sides.
    """
    if hasattr(word_count_table, "to_pandas"):
        word_count_table = word_count_table.to_pandas()
    words_in = word_count_table["word"].tolist()
    counts_in = word_count_table["n"].tolist()
    if len(words_in) > DRIVER_WORD_TYPES_MAX:
        raise ValueError(
            f"word-type table ({len(words_in)}) exceeds "
            f"DRIVER_WORD_TYPES_MAX ({DRIVER_WORD_TYPES_MAX}); raise the "
            "cap or pre-prune rare words (min_count) upstream")
    words: list[list[str]] = []
    cnt: list[int] = []
    for w, n in zip(words_in, counts_in):
        if "|" in w or len(w) < 2:
            continue
        words.append(list(w))
        cnt.append(int(n))

    pair_counts: dict = {}
    pair_words: dict = {}
    for wid, (syms, n) in enumerate(zip(words, cnt)):
        _count_pairs(syms, n, pair_counts, pair_words, wid)

    out = {"rank": [], "lhs": [], "rhs": [], "pair_count": []}
    for rank in range(1, num_merges + 1):
        live = [(p, c) for p, c in pair_counts.items() if c > 0]
        if not live:
            break
        best, best_c = min(live, key=lambda pc_: (-pc_[1], pc_[0]))
        out["rank"].append(rank)
        out["lhs"].append(best[0])
        out["rhs"].append(best[1])
        out["pair_count"].append(best_c)
        for wid in sorted(pair_words.get(best, ())):
            syms = words[wid]
            n = cnt[wid]
            for a, b in zip(syms, syms[1:]):  # retract old pair counts
                pair_counts[(a, b)] -= n
                s = pair_words.get((a, b))
                if s is not None:
                    s.discard(wid)
            merged = _merge_word(syms, best)
            words[wid] = merged
            _count_pairs(merged, n, pair_counts, pair_words, wid)
    return pa.table({
        "rank": pa.array(out["rank"], type=pa.int64()),
        "lhs": pa.array(out["lhs"], type=pa.string()),
        "rhs": pa.array(out["rhs"], type=pa.string()),
        "pair_count": pa.array(out["pair_count"], type=pa.int64()),
    })


def bpe_apply(word: str, merges: "list[tuple[str, str]]") -> list[str]:
    """Apply a trained merge list to one word, in rank order (equivalent to
    lowest-rank-first priority encoding: a later merge's symbols cannot
    create an earlier merge's pair, since that pair's symbols predate it).
    """
    syms = list(word)
    for pair in merges:
        if len(syms) < 2:
            break
        syms = _merge_word(syms, pair)
    return syms


def bpe_segment_counts(ds: "ray.data.Dataset",
                       merges: "list[tuple[str, str]]",
                       text_col: str = "text", id_col: str = "doc_id",
                       ) -> "ray.data.Dataset":
    """(id, n_symbols) — per-document symbol count after applying the merge
    table: the compression-ratio / token-budget accounting pass. Map-side
    only; per batch the merges run over UNIQUE words (pandas factorize),
    then lengths scatter back per occurrence. Words containing ``'|'``
    are skipped on BOTH sides (the bpe_train drop rule — the SQL twin's
    separator cannot represent them)."""

    def seg(t: pa.Table) -> pa.Table:
        texts = t[text_col].to_pylist()
        # factorize over word occurrences across the batch
        occ_words: list[str] = []
        doc_of: list[int] = []
        for d, s in enumerate(texts):
            ws = [w for w in (s or "").split() if "|" not in w]
            occ_words.extend(ws)
            doc_of.extend([d] * len(ws))
        n_docs = len(texts)
        totals = np.zeros(n_docs, dtype=np.int64)
        if occ_words:
            codes, uniques = pd.factorize(np.asarray(occ_words, dtype=object))
            lens = np.fromiter(
                (len(bpe_apply(w, merges)) for w in uniques),
                dtype=np.int64, count=len(uniques))
            np.add.at(totals, np.asarray(doc_of), lens[codes])
        return pa.table({id_col: t[id_col],
                         "n_symbols": pa.array(totals, type=pa.int64())})

    return ds.map_batches(seg, batch_format="pyarrow")


def chunk_token_windows(ds: "ray.data.Dataset", size: int, stride: int,
                        text_col: str = "text", id_col: str = "doc_id",
                        ) -> "ray.data.Dataset":
    """(id, chunk_idx, chunk) — overlapping token windows: window k covers
    tokens [k·stride, k·stride+size); windows = ceil(max(n−size,0)/stride)+1
    for non-empty docs (so every doc yields ≥1 chunk and every token is in
    ≥1 window), zero for empty docs. The embedding-prep chunker (RAG /
    retrieval pipelines) — `size` tokens per unit with `size−stride`
    tokens of overlap. Map-side only; tokenization is the RE2 ``\\S+``
    twin used across textstats."""
    if not (0 < stride <= size):
        raise ValueError("need 0 < stride <= size")

    def windows(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.fill_null(pc.cast(t[text_col], pa.string()), ""),
            pattern=r"\s+")
        ids_out, idx_out, chunk_out = [], [], []
        for rid, lst in zip(t[id_col].to_pylist(), toks.to_pylist()):
            words = [w for w in (lst or []) if w]
            n = len(words)
            if n == 0:
                continue
            m = (max(n - size, 0) + stride - 1) // stride
            for k in range(m + 1):
                ids_out.append(rid)
                idx_out.append(k)
                chunk_out.append(" ".join(words[k * stride:
                                                k * stride + size]))
        return pa.table({
            id_col: pa.array(ids_out, type=pa.int64()),
            "chunk_idx": pa.array(idx_out, type=pa.int64()),
            "chunk": pa.array(chunk_out, type=pa.string()),
        })

    return ds.map_batches(windows, batch_format="pyarrow")


def fim_transform(ds: "ray.data.Dataset", text_col: str = "text",
                  id_col: str = "doc_id", fim_pct: int = 50,
                  salt: str = "fim") -> "ray.data.Dataset":
    """Fill-in-the-middle document transform (Bavarian et al. 2022,
    "Efficient Training of Language Models to Fill in the Middle"): a
    deterministic salted-md5 gate selects ~``fim_pct``% of docs; for those,
    two hash-derived character positions split the text into
    (prefix, middle, suffix) — the PSM/SPM token reordering is the packing
    stage's concern, the engine emits the spans plus the gate flag.
    Membership and split points depend only on (salt, id): reproducible
    across runs/engines and stable under corpus growth (the stable_split
    discipline, engine/partition.py). Ungated docs pass through as
    (text, '', '').

        gate = md5(salt:id)[hex 1-8]  % 100 < fim_pct
        p1   = md5(salt:id)[hex 9-16] % (n_chars + 1)
        p2   = p1 + md5(salt:id)[hex 17-24] % (n_chars - p1 + 1)

    Per-row work: ONE md5 per doc (the SQL-checkable hash family — swap in
    partition._hash_array's polars 'fast' path at deployment); the slicing
    itself is vectorized char-based ``polars str.slice`` with expression
    offsets. No shuffle — one map_batches pass.

    Output: (id, prefix, middle, suffix, is_fim:int64).
    """
    import hashlib

    def fim(t: pa.Table) -> pa.Table:
        import polars as pl

        md5 = hashlib.md5
        frombytes = int.from_bytes
        ids = t[id_col].to_pylist()
        digs = [md5(f"{salt}:{i}".encode()).digest() for i in ids]
        m = len(ids)
        gate = np.fromiter(
            (frombytes(d[:4], "big") % 100 < fim_pct for d in digs),
            dtype=bool, count=m)
        h1 = np.fromiter((frombytes(d[4:8], "big") for d in digs),
                         dtype=np.int64, count=m)
        h2 = np.fromiter((frombytes(d[8:12], "big") for d in digs),
                         dtype=np.int64, count=m)
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        col = pc.fill_null(col, "")
        n = pc.utf8_length(col).to_numpy().astype(np.int64)
        p1 = np.where(gate, h1 % (n + 1), n)
        p2 = np.where(gate, p1 + h2 % (n - p1 + 1), n)
        df = pl.DataFrame({
            "t": pl.from_arrow(col), "p1": p1, "p2": p2,
        })
        out = df.select(
            prefix=pl.col("t").str.slice(0, pl.col("p1")),
            middle=pl.col("t").str.slice(pl.col("p1"),
                                         pl.col("p2") - pl.col("p1")),
            suffix=pl.col("t").str.slice(pl.col("p2")),
        ).to_arrow()
        return pa.table({
            id_col: t[id_col],
            "prefix": pc.cast(out["prefix"], pa.string()),
            "middle": pc.cast(out["middle"], pa.string()),
            "suffix": pc.cast(out["suffix"], pa.string()),
            "is_fim": pa.array(gate.astype(np.int64), type=pa.int64()),
        })

    return ds.map_batches(fim, batch_format="pyarrow")
