"""Text analysis for training-data pipelines: language-ID, quality scoring,
token counting, document fingerprinting (scale additions).

All stages are vectorized-or-C-speed per batch and stateless-or-actor per the
usual rule; profiles and regexes are module-level (warm per worker process).
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


# ---------------------------------------------------------------------------
# Language ID: tiny char-trigram + stopword profiles (n-gram heuristic).
# Profiles are hand-built from the fixture languages; unknown → 'und'.
# ---------------------------------------------------------------------------

_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "that", "for", "it"},
    "es": {"el", "la", "de", "que", "y", "en", "los", "del", "se", "las"},
    "de": {"der", "die", "und", "das", "in", "von", "zu", "mit", "den", "ist"},
    "fr": {"le", "la", "de", "et", "les", "des", "en", "un", "une", "du"},
}
_CJK_RE = re.compile(r"[一-鿿]")
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


def detect_lang(text: str) -> str:
    """Deterministic heuristic language-ID.

    CJK chars dominate → 'zh'; else the stopword profile with the highest hit
    rate (ties broken by profile name); no hits → 'und'.
    """
    if not text:
        return "und"
    cjk = len(_CJK_RE.findall(text))
    if cjk and cjk / max(1, len(text)) > 0.05:
        return "zh"
    words = [w.lower() for w in _WORD_RE.findall(text)]
    if not words:
        return "und"
    scores = {
        lang: sum(w in sw for w in words) / len(words)
        for lang, sw in _STOPWORDS.items()
    }
    best = max(sorted(scores), key=lambda k: scores[k])
    return best if scores[best] > 0.0 else "und"


def _text_column(t: pa.Table, name: str) -> pa.Array:
    col = t[name]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.fill_null(col, "")


def _flat_tokens(col: pa.Array, pattern: str) -> tuple[pa.Array, np.ndarray]:
    """RE2 split on ``pattern`` with empty edge tokens dropped, flattened:
    (token values, per-row nonempty-token counts). One Arrow scan + numpy
    prefix sums — the bigram_counts discipline, shared by the lang-ID and
    quality kernels below."""
    lists = pc.split_pattern_regex(col, pattern=pattern)
    off = lists.offsets.to_numpy().astype(np.int64)
    vals = lists.values
    if len(vals) == 0:
        return vals, np.zeros(len(col), dtype=np.int64)
    nonempty = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
    cum = np.concatenate(([0], np.cumsum(nonempty.astype(np.int64))))
    row_lens = cum[off[1:]] - cum[off[:-1]]
    return vals.filter(pa.array(nonempty)), row_lens


def _seg_sum(values: np.ndarray, row_lens: np.ndarray) -> np.ndarray:
    """Per-row sums of a flat per-token array (cumsum trick: safe with
    empty segments, unlike np.add.reduceat)."""
    c = np.concatenate(([0], np.cumsum(values, dtype=np.int64)))
    ends = np.cumsum(row_lens)
    return c[ends] - c[ends - row_lens]


class LangIdStage:
    """Batch stage: (id, text) → + lang_pred column.

    Vectorized twin of ``detect_lang``: one Arrow regex scan for CJK/length,
    one RE2 split into letter runs, ``pc.is_in`` per stopword profile, and a
    numpy argmax (first-max == the scalar's sorted-name tie-break). RE2's
    ``\\w`` is ASCII while Python's ``_WORD_RE`` is Unicode, so the batch
    kernel matches the scalar exactly on ASCII/CJK corpora (tests pin this);
    exotic-script token boundaries may differ — the engine/textops.py
    RE2-vs-Python note applies."""

    _LANGS = sorted(_STOPWORDS)  # de en es fr — the scalar's tie-break order

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self._value_sets = [
            pa.array(sorted(_STOPWORDS[lang])) for lang in self._LANGS
        ]

    def __call__(self, t: pa.Table) -> pa.Table:
        col = _text_column(t, self.text_col)
        n_chars = pc.utf8_length(col).to_numpy().astype(np.int64)
        cjk = pc.count_substring_regex(col, pattern="[一-鿿]") \
            .to_numpy().astype(np.int64)
        toks, row_lens = _flat_tokens(col, r"[\W\d_]+")
        low = pc.utf8_lower(toks)
        hits = np.stack([
            _seg_sum(
                pc.is_in(low, value_set=vs)
                .to_numpy(zero_copy_only=False).astype(np.int64),
                row_lens)
            for vs in self._value_sets
        ]) if len(toks) else np.zeros((len(self._LANGS), len(col)), np.int64)
        # hit-rate comparison == hit-count comparison (same denominator);
        # argmax returns the FIRST max → the scalar's alphabetical tie-break
        pred = np.array(self._LANGS)[hits.argmax(axis=0)]
        pred = np.where(hits.max(axis=0) > 0, pred, "und")
        pred = np.where(row_lens == 0, "und", pred)
        is_zh = (cjk > 0) & (cjk / np.maximum(1, n_chars) > 0.05)
        pred = np.where(is_zh, "zh", pred)
        pred = np.where(n_chars == 0, "und", pred)
        return t.append_column("lang_pred", pa.array(pred, type=pa.string()))


# ---------------------------------------------------------------------------
# Quality scoring: length / punctuation / stopword / repetition signals
# ---------------------------------------------------------------------------

_PUNCT_RE = re.compile(r"[.,;:!?]")
_ALL_STOP = set().union(*_STOPWORDS.values())


def quality_features(text: str) -> dict:
    n_chars = len(text)
    tokens = text.split()
    n_tokens = len(tokens)
    uniq = len(set(tokens))
    n_punct = len(_PUNCT_RE.findall(text))
    lowers = [t.lower() for t in tokens]
    n_stop = sum(t in _ALL_STOP for t in lowers)
    mean_tok = (sum(len(t) for t in tokens) / n_tokens) if n_tokens else 0.0
    return {
        "n_chars": n_chars,
        "n_tokens": n_tokens,
        "n_uniq": uniq,
        "n_stop": n_stop,
        "uniq_ratio": (uniq / n_tokens) if n_tokens else 0.0,
        "punct_ratio": (n_punct / n_chars) if n_chars else 0.0,
        "stopword_ratio": (n_stop / n_tokens) if n_tokens else 0.0,
        "mean_token_len": mean_tok,
    }


def quality_score(f: dict) -> float:
    """Frozen heuristic in [0, 1]: rewards mid-length docs with sane token
    stats; penalizes no-stopword or hyper-repetitive text."""
    score = 1.0
    if f["n_tokens"] < 5:
        score *= 0.2
    elif f["n_tokens"] < 20:
        score *= 0.7
    if f["uniq_ratio"] < 0.3:
        score *= 0.5
    if f["stopword_ratio"] == 0.0:
        score *= 0.7
    if f["mean_token_len"] > 15 or (0 < f["mean_token_len"] < 2):
        score *= 0.5
    return round(score, 4)


def _quality_score_lut() -> np.ndarray:
    """24-entry lookup of every reachable quality_score value, indexed by
    (length-tier, low-uniq, no-stopword, bad-mean-len). Built BY CALLING the
    scalar (same float ops, same Python banker's round) so the vectorized
    stage is bit-identical to it by construction."""
    reps_ntok = {0: 0, 1: 10, 2: 100}
    lut = np.empty(24, dtype=np.float64)
    for i1 in range(3):
        for b2 in range(2):
            for b3 in range(2):
                for b4 in range(2):
                    f = {
                        "n_tokens": reps_ntok[i1],
                        "uniq_ratio": 0.1 if b2 else 0.9,
                        "stopword_ratio": 0.0 if b3 else 0.5,
                        "mean_token_len": 20.0 if b4 else 5.0,
                    }
                    lut[i1 * 8 + b2 * 4 + b3 * 2 + b4] = quality_score(f)
    return lut


_QSCORE_LUT = _quality_score_lut()


class QualityStage:
    """Batch stage: + token/punct/stopword quality signals + frozen score.

    Vectorized twin of ``quality_features``/``quality_score``: one RE2
    whitespace split (ASCII ``\\s`` — matches Python str.split() on ASCII
    corpora, the engine/textops.py note), per-row distinct-token counts via
    one Arrow hash-group over the flat (row, token) stream, ``pc.is_in``
    stopword hits, and a score LUT built from the scalar (bit-identical
    floats). No per-row Python."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self._stop_set = pa.array(sorted(_ALL_STOP))

    def __call__(self, t: pa.Table) -> pa.Table:
        col = _text_column(t, self.text_col)
        n = len(col)
        n_chars = pc.utf8_length(col).to_numpy().astype(np.int64)
        n_punct = pc.count_substring_regex(col, pattern=r"[.,;:!?]") \
            .to_numpy().astype(np.int64)
        toks, row_lens = _flat_tokens(col, r"\s+")
        n_tokens = row_lens
        if len(toks):
            rows = np.repeat(np.arange(n, dtype=np.int64), row_lens)
            distinct = pa.table({"r": rows, "tok": toks}) \
                .group_by(["r", "tok"]).aggregate([])
            n_uniq = np.bincount(distinct["r"].to_numpy(), minlength=n) \
                .astype(np.int64)
            stop_hits = pc.is_in(pc.utf8_lower(toks),
                                 value_set=self._stop_set) \
                .to_numpy(zero_copy_only=False).astype(np.int64)
            n_stop = _seg_sum(stop_hits, row_lens)
            sum_len = _seg_sum(
                pc.utf8_length(toks).to_numpy().astype(np.int64), row_lens)
        else:
            n_uniq = np.zeros(n, dtype=np.int64)
            n_stop = np.zeros(n, dtype=np.int64)
            sum_len = np.zeros(n, dtype=np.int64)
        safe_tok = np.maximum(n_tokens, 1).astype(np.float64)
        has_tok = n_tokens > 0
        uniq_ratio = np.where(has_tok, n_uniq / safe_tok, 0.0)
        stop_ratio = np.where(has_tok, n_stop / safe_tok, 0.0)
        mean_tok = np.where(has_tok, sum_len / safe_tok, 0.0)
        punct_ratio = np.where(n_chars > 0,
                               n_punct / np.maximum(n_chars, 1), 0.0)
        tier = np.where(n_tokens < 5, 0, np.where(n_tokens < 20, 1, 2))
        idx = (tier * 8
               + (uniq_ratio < 0.3) * 4
               + (stop_ratio == 0.0) * 2
               + ((mean_tok > 15) | ((mean_tok > 0) & (mean_tok < 2))))
        quality = _QSCORE_LUT[idx]
        out = t
        for key, arr, typ in (
            ("n_tokens", n_tokens, pa.int64()),
            ("n_uniq", n_uniq, pa.int64()),
            ("n_stop", n_stop, pa.int64()),
            ("uniq_ratio", uniq_ratio, pa.float64()),
            ("punct_ratio", punct_ratio, pa.float64()),
            ("stopword_ratio", stop_ratio, pa.float64()),
            ("mean_token_len", mean_tok, pa.float64()),
        ):
            out = out.append_column(key, pa.array(arr, type=typ))
        return out.append_column(
            "quality", pa.array(quality, type=pa.float64()))


# ---------------------------------------------------------------------------
# Token counting: whitespace + BPE-ish regex (GPT-2-style pretokenizer shape)
# ---------------------------------------------------------------------------

_BPEISH_RE = re.compile(
    r"'(?:s|t|re|ve|m|ll|d)| ?[^\W\d_]+| ?\d+| ?[^\s\w]+|\s+(?!\S)|\s+",
    re.UNICODE,
)


def count_tokens_ws(text: str) -> int:
    return len(text.split())


def count_tokens_bpeish(text: str) -> int:
    return len(_BPEISH_RE.findall(text))


def token_count_batch(t: pa.Table, text_col: str = "text") -> pa.Table:
    # count_substring_regex(\S+) == len(str.split()) exactly; Arrow's
    # utf8_split_whitespace emits empty edge tokens and would over-count.
    ws = pc.cast(pc.count_substring_regex(t[text_col], pattern=r"\S+"),
                 pa.int64())
    bp = pa.array([count_tokens_bpeish(s or "") for s in t[text_col].to_pylist()],
                  type=pa.int64())
    return t.append_column("n_tokens_ws", ws).append_column("n_tokens_bpe", bp)


# ---------------------------------------------------------------------------
# Repetition signals (Gopher-style, Rae et al. 2021 §A1.1): within-document
# token/2-gram repetition — the "most common word fraction" family, emitted
# as integer counts so the SQL twin needs no float rounding convention.
# ---------------------------------------------------------------------------


def repetition_stats_batch(t: pa.Table, text_col: str = "text",
                           id_col: str = "doc_id") -> pa.Table:
    """Per-document repetition counts over whitespace tokens:
    n_tokens, n_uniq, top_token_count (occurrences of the most frequent
    token), top_bigram_count (most frequent adjacent pair). Counting runs
    through np.unique per row (C-speed sort-and-count); the quality-filter
    ratios (top_token_count/n_tokens > θ ⇒ drop) are left to the caller so
    the thresholds stay policy, not kernel."""
    n_tok, n_uniq, top_tok, top_bi = [], [], [], []
    for s in t[text_col].to_pylist():
        toks = (s or "").split()
        if not toks:
            n_tok.append(0); n_uniq.append(0)
            top_tok.append(0); top_bi.append(0)
            continue
        arr = np.asarray(toks, dtype=object)
        _, counts = np.unique(arr, return_counts=True)
        n_tok.append(len(toks))
        n_uniq.append(len(counts))
        top_tok.append(int(counts.max()))
        if len(toks) < 2:
            top_bi.append(0)
        else:
            bi = np.char.add(np.char.add(arr[:-1].astype(str), " "),
                             arr[1:].astype(str))
            _, bc = np.unique(bi, return_counts=True)
            top_bi.append(int(bc.max()))
    return pa.table({
        id_col: t[id_col],
        "n_tokens": pa.array(n_tok, type=pa.int64()),
        "n_uniq": pa.array(n_uniq, type=pa.int64()),
        "top_token_count": pa.array(top_tok, type=pa.int64()),
        "top_bigram_count": pa.array(top_bi, type=pa.int64()),
    })


# ---------------------------------------------------------------------------
# Fingerprinting: md5 (exact) + winnowed rolling-hash fingerprints
# ---------------------------------------------------------------------------

WINNOW_K = 8  # rolling window (chars)
WINNOW_W = 16  # winnowing window (hashes)
_ROLL_BASE = 257
_ROLL_MOD = (1 << 31) - 1


def md5_fingerprint(text: str) -> str:
    return hashlib.md5(text.encode()).hexdigest()


def winnow_fingerprints(text: str, k: int = WINNOW_K, w: int = WINNOW_W) -> list[int]:
    """Winnowing (Schleimer et al. 2003): min rolling hash per window, deduped
    consecutively — a compact, alignment-robust document signature."""
    data = text.encode("utf-8", "replace")
    n = len(data)
    if n < k:
        return [zlib.crc32(data)] if n else []
    # vectorized polynomial hash: h_i = Σ_j data[i+j]·BASE^(k-1-j) mod M.
    # Powers are reduced mod M first, so each term < 256·2^31 and the k-term
    # sum stays far inside int64 — no Python per-byte loop.
    arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
    powers = np.array(
        [pow(_ROLL_BASE, k - 1 - j, _ROLL_MOD) for j in range(k)],
        dtype=np.int64,
    )
    windows = np.lib.stride_tricks.sliding_window_view(arr, k)
    hashes = (windows * powers).sum(axis=1) % _ROLL_MOD
    if len(hashes) <= w:
        return [int(hashes.min())]
    sw = np.lib.stride_tricks.sliding_window_view(hashes, w)
    mins = sw.min(axis=1)
    out: list[int] = []
    prev = None
    for m in mins.tolist():
        if m != prev:
            out.append(m)
            prev = m
    return out


# ---------------------------------------------------------------------------
# Corpus document frequency (inverted-index term statistics) — the partial-
# aggregation pattern: combine INSIDE map_batches, then shuffle only the
# per-batch distinct (token, df) rows, never one row per occurrence.
# ---------------------------------------------------------------------------


def doc_frequency(ds: "ray.data.Dataset", text_col: str = "text",
                  ) -> "ray.data.Dataset":
    """(token, df) — number of documents containing each whitespace token.

    Per batch: one Counter over per-document DISTINCT tokens (a token
    repeated inside a document counts once), emitting one narrow row per
    distinct token per batch. The groupby Sum then combines partials — the
    exchange volume is O(vocabulary x batches), not O(token occurrences),
    which at web scale is the difference between shuffling gigabytes and
    shuffling the corpus. Tokenization is str.split() (matches the DuckDB
    twin's \\s+ regex split on ASCII corpora; engine/textops.py documents
    the RE2-vs-Python Unicode \\s divergence).
    """
    import ray.data  # noqa: F401
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        from collections import Counter

        c: Counter = Counter()
        for s in t[text_col].to_pylist():
            c.update(set((s or "").split()))
        if not c:
            return pa.table({"token": pa.array([], type=pa.string()),
                             "df": pa.array([], type=pa.int64())})
        toks = list(c.keys())
        return pa.table({"token": pa.array(toks, type=pa.string()),
                         "df": pa.array([c[t_] for t_ in toks],
                                        type=pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("df", alias_name="df"))
    )


def bigram_counts(ds: "ray.data.Dataset", text_col: str = "text",
                  ) -> "ray.data.Dataset":
    """(bigram, n) — corpus-wide adjacent-token-pair occurrence counts, the
    n-gram statistics stage of a training-data pipeline (contamination
    n-grams, collocation mining, LM vocab prep).

    Tokenization is RE2 ``\\s+`` split with empty edge tokens dropped —
    exactly DuckDB's ``regexp_extract_all(text, '\\S+')`` (the twin), and
    deliberately NOT Python str.split (Unicode \\s divergence; see
    engine/textops.py).

    Per batch the pair construction is fully vectorized: one Arrow regex
    split → flat token values + list offsets → a numpy row-boundary mask
    kills cross-document pairs → one ``binary_join_element_wise`` builds all
    bigram strings → an in-batch Arrow group_by counts them. The groupby Sum
    then combines partials map-side, so the exchange is O(bigram vocab x
    blocks), never O(token occurrences).
    """
    from ray.data.aggregate import Sum

    empty = pa.table({"bigram": pa.array([], type=pa.string()),
                      "n": pa.array([], type=pa.int64())})

    def partial(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(col, pattern=r"\s+")
        off = lists.offsets.to_numpy().astype(np.int64)
        vals = lists.values
        if len(vals) == 0:
            return empty
        nonempty = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        cum = np.concatenate(([0], np.cumsum(nonempty.astype(np.int64))))
        new_lens = cum[off[1:]] - cum[off[:-1]]  # nonempty tokens per row
        toks = vals.filter(pa.array(nonempty))
        n = len(toks)
        if n < 2:
            return empty
        ends = np.cumsum(new_lens)          # row end positions in token space
        pair_ok = np.ones(n - 1, dtype=bool)
        inner = ends[:-1]                   # every row boundary except the last
        inner = inner[(inner >= 1) & (inner <= n - 1)]
        pair_ok[inner - 1] = False          # pair (j, j+1) straddles two rows
        sel = pa.array(pair_ok)
        bigrams = pc.binary_join_element_wise(
            toks.slice(0, n - 1).filter(sel),
            toks.slice(1, n - 1).filter(sel), " ")
        counted = pa.table({"bigram": bigrams}).group_by("bigram") \
            .aggregate([("bigram", "count")])
        return pa.table({"bigram": counted["bigram"],
                         "n": pc.cast(counted["bigram_count"], pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("bigram").aggregate(Sum("n", alias_name="n")))


# ---------------------------------------------------------------------------
# Unigram-LM scoring shape: corpus term frequencies (the "model") broadcast
# once, then a vectorized per-document lookup-sum (the "scorer"). The score
# here is Σ_occurrences tf(token) — integer, so the SQL twin needs no float
# or log rounding convention; a real LM score swaps the broadcast values
# for log-probs without touching the plan.
# ---------------------------------------------------------------------------


def term_frequencies(ds: "ray.data.Dataset", text_col: str = "text",
                     ) -> "ray.data.Dataset":
    """(token, tf) — corpus-wide OCCURRENCE counts (cf. doc_frequency's
    distinct-per-doc df). Same partial-aggregation discipline: one Counter
    per batch, Sum combine map-side; exchange is O(vocab × blocks)."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        c: Counter = Counter()
        for s in t[text_col].to_pylist():
            c.update((s or "").split())
        toks = list(c.keys())
        return pa.table({"token": pa.array(toks, type=pa.string()),
                         "tf": pa.array([c[t_] for t_ in toks],
                                        type=pa.int64())})

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby("token").aggregate(Sum("tf", alias_name="tf")))


def token_freq_score(ds: "ray.data.Dataset", text_col: str = "text",
                     id_col: str = "doc_id", min_count: int = 1,
                     ) -> "ray.data.Dataset":
    """Per-document frequency score: (id, n_tokens, freq_score) where
    freq_score = Σ over token occurrences of the corpus tf of that token
    (tokens below ``min_count`` contribute 0 — the broadcast-size bound at
    open-vocabulary scale; the long tail is exactly what a real LM prunes).

    Plan: term_frequencies (partial-agg exchange) → the vocab dict is
    ``ray.put`` ONCE and worker-cached (engine/broadcast.py); scoring is a
    flat reindex + segmented reduce per batch (np.add.reduceat), no Python
    per token."""
    import pandas as pd
    import ray

    from engine.broadcast import get_broadcast

    tf = term_frequencies(ds, text_col).to_pandas()
    if min_count > 1:
        tf = tf[tf["tf"] >= min_count]
    vocab = pd.Series(tf["tf"].to_numpy(np.int64),
                      index=tf["token"].to_numpy())
    vocab_ref = ray.put(vocab)

    def score(t: pa.Table) -> pa.Table:
        v: pd.Series = get_broadcast(vocab_ref)
        tok_lists = [(s or "").split() for s in t[text_col].to_pylist()]
        lens = np.fromiter((len(x) for x in tok_lists), dtype=np.int64,
                           count=len(tok_lists))
        flat = [tok for toks in tok_lists for tok in toks]
        if flat:
            vals = v.reindex(flat).fillna(0).to_numpy(np.int64)
            offsets = np.zeros(len(lens), dtype=np.int64)
            np.cumsum(lens[:-1], out=offsets[1:])
            # reduceat yields wrong values at empty segments — patch them to 0
            sums = np.add.reduceat(np.append(vals, 0), offsets)
            sums[lens == 0] = 0
        else:
            sums = np.zeros(len(lens), dtype=np.int64)
        return pa.table({
            id_col: t[id_col],
            "n_tokens": pa.array(lens, type=pa.int64()),
            "freq_score": pa.array(sums, type=pa.int64()),
        })

    return ds.map_batches(score, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# TF-IDF: per-document term frequencies, corpus document frequencies, and an
# integer-scored top-k term ranking — the keyword/feature-extraction stage of
# a training-data pipeline, hash-checkable in SQL because the idf ladder is
# an exact integer (bit length), not a float log.
# ---------------------------------------------------------------------------


def doc_terms(ds: "ray.data.Dataset", text_col: str = "text",
              id_col: str = "doc_id") -> "ray.data.Dataset":
    """(doc_id, token, tf) — per-document term occurrence counts.

    Tokenization is RE2 ``\\s+`` split with empty edge tokens dropped —
    exactly DuckDB's ``regexp_extract_all(text, '\\S+')`` (same engine,
    same char classes; see engine/textops.py on the RE2-vs-Python
    divergence). Fully vectorized per batch: one Arrow regex split → flat
    values + list offsets → ``np.repeat`` of doc ids over token counts →
    one in-batch Acero (doc, token) count. Each input row is a whole
    document, so per-batch counts are exact global tf — no combine needed.
    """
    def partial(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(col, pattern=r"\s+")
        off = lists.offsets.to_numpy().astype(np.int64)
        vals = lists.values
        ids = t[id_col].to_numpy(zero_copy_only=False)
        doc_of = np.repeat(ids, np.diff(off))
        nonempty = pc.not_equal(vals, "").to_numpy(zero_copy_only=False)
        toks = vals.filter(pa.array(nonempty))
        if len(toks) == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "token": pa.array([], type=pa.string()),
                             "tf": pa.array([], type=pa.int64())})
        g = pa.table({id_col: pa.array(doc_of[nonempty]), "token": toks}) \
            .group_by([id_col, "token"]).aggregate([([], "count_all")])
        return pa.table({id_col: g[id_col], "token": g["token"],
                         "tf": pc.cast(g["count_all"], pa.int64())})

    return ds.map_batches(partial, batch_format="pyarrow")


def tfidf_top_terms(ds: "ray.data.Dataset", n_docs: int,
                    text_col: str = "text", id_col: str = "doc_id",
                    k: int = 3) -> "ray.data.Dataset":
    """Top-k terms per document by an INTEGER tf-idf rank:
    ``score = tf * (bitlen(n_docs) - bitlen(df) + 1)``, ties broken by
    token asc. ``bitlen(x) = floor(log2(x)) + 1`` is computed exactly
    (``np.frexp`` — no libm rounding; DuckDB twin: ``length(bin(x))``), so
    the ranking needs no float-log equality convention.

    Plan: :func:`doc_terms` (vectorized tf) is materialized ONCE — it feeds
    both the df aggregate and the join probe, and Ray re-executes lazy
    inputs consumed twice (CLAUDE.md); df is a narrow O(vocab) groupby with
    map-side partial combine; tf⋈df is the distributed
    ``engine.joins.hash_join`` on token (web-scale vocab can exceed any one
    heap — no broadcast); top-k-per-doc is the bucketed rank prune of
    ``engine.stats.top_k_per_group`` (Python calls capped at the exchange
    width).
    ``n_docs`` comes from parquet metadata at the call site — a count()
    here would re-execute the input pipeline.
    """
    from ray.data.aggregate import Count

    from engine.joins import hash_join
    from engine.stats import top_k_per_group

    tf = doc_terms(ds, text_col=text_col, id_col=id_col).materialize()
    df = tf.groupby("token").aggregate(Count(alias_name="df")).materialize()
    joined = hash_join(tf, df, on="token")

    n_bits = int(n_docs).bit_length()

    def score(t: pa.Table) -> pa.Table:
        dfv = t["df"].to_numpy(zero_copy_only=False).astype(np.float64)
        _, exp = np.frexp(dfv)  # exp == bit_length(df), exactly
        idf = n_bits - exp.astype(np.int64) + 1
        sc = t["tf"].to_numpy(zero_copy_only=False) * idf
        return t.append_column("score", pa.array(sc, type=pa.int64()))

    scored = joined.map_batches(score, batch_format="pyarrow")
    return top_k_per_group(scored, id_col, "score", k, descending=True,
                           tiebreak_col="token")


def bm25_search(ds: "ray.data.Dataset", terms, n_docs: int, k: int = 10,
                text_col: str = "text",
                id_col: str = "doc_id") -> "ray.data.Dataset":
    """Integer-exact BM25 top-k retrieval (Robertson/Sparck-Jones ranking,
    the corpus-inspection / decontamination-query sibling of
    :func:`term_search`'s boolean rank): disjunctive query — any document
    containing at least one query term scores.

    Engine-exact convention (the SQL-twin discipline): k1 = 6/5 and
    b = 3/4 enter as RATIONALS, the per-term contribution is one integer
    floor division at fixed-point scale 4096::

        idf     = bitlen(n_docs) - bitlen(df) + 1      (the tfidf ladder)
        avgdl   = max(1, total_tokens // n_docs)
        contrib = (idf * 22 * tf * avgdl * 4096)
                  // (10 * tf * avgdl + 3 * avgdl + 9 * dl)

    (22/10·avgdl, 3·avgdl, 9·dl clear k1, b's denominators exactly), so
    scores are engine-independent integers — no float-log or float-divide
    convention anywhere. Bounds guarded: dl, avgdl < 2^18 keeps the
    numerator under 2^59. Robertson's log-idf is replaced by the integer
    bit-length ladder exactly like :func:`tfidf_top_terms`.

    Plan: per-doc token counts ``dl`` are map-side only
    (``count_substring_regex(r"\\S+")`` == DuckDB ``len(regexp_extract_all
    '\\S+')``), materialized once to feed both the avgdl scalar aggregate
    and the join; :func:`doc_terms` tf rows filter to the query terms
    map-side (only matching (doc, term, tf) rows leave the block); df is a
    bounded O(|terms|) driver dict; one narrow doc-keyed
    ``engine.joins.hash_join`` attaches dl; per-doc Sum, then a per-block
    top-k prune caps the final sort's input at k rows per block.
    ``n_docs`` comes from parquet metadata at the call site (a count()
    would re-execute the pipeline)."""
    from ray.data.aggregate import Count, Sum

    from engine.joins import hash_join

    terms = tuple(dict.fromkeys(terms))  # stable order, de-duplicated

    def dl_batch(t: pa.Table) -> pa.Table:
        dl = pc.count_substring_regex(
            pc.coalesce(t[text_col], pa.scalar("")), r"\S+")
        return pa.table({id_col: t[id_col],
                         "dl": pc.cast(dl, pa.int64())})

    dl_ds = ds.map_batches(dl_batch, batch_format="pyarrow").materialize()
    total_tokens = int(dl_ds.sum("dl") or 0)
    avgdl = max(1, total_tokens // int(n_docs))
    if avgdl >= (1 << 18):
        raise ValueError("bm25: avgdl beyond 2^18 tokens")

    tset = pa.array(terms, type=pa.string())

    def only_query_terms(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["token"], value_set=tset))

    qtf = doc_terms(ds, text_col=text_col, id_col=id_col) \
        .map_batches(only_query_terms, batch_format="pyarrow") \
        .materialize()  # feeds the df aggregate AND the join (CLAUDE.md)

    df_rows = qtf.groupby("token").aggregate(Count(alias_name="df")) \
        .take_all()  # bounded by |terms|
    n_bits = int(n_docs).bit_length()
    idf_by_term = {r["token"]: n_bits - int(r["df"]).bit_length() + 1
                   for r in df_rows}
    idf_arr = np.array([idf_by_term.get(x, 0) for x in terms],
                       dtype=np.int64)

    joined = hash_join(qtf, dl_ds, on=id_col)

    def contrib(t: pa.Table) -> pa.Table:
        tf = t["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        dl = t["dl"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(dl) and dl.max() >= (1 << 18):
            raise ValueError("bm25: doc length beyond 2^18 tokens")
        ti = pc.index_in(t["token"], value_set=tset) \
            .to_numpy(zero_copy_only=False)
        iv = idf_arr[ti]
        num = iv * 22 * tf * avgdl * 4096
        den = 10 * tf * avgdl + 3 * avgdl + 9 * dl
        return pa.table({id_col: t[id_col],
                         "contrib": pa.array(num // den, type=pa.int64())})

    scored = joined.map_batches(contrib, batch_format="pyarrow") \
        .groupby(id_col).aggregate(Sum("contrib", alias_name="score"))

    def prune(t: pa.Table) -> pa.Table:  # block-local top-k before the sort
        idx = pc.sort_indices(t, sort_keys=[("score", "descending"),
                                            (id_col, "ascending")])
        return t.take(idx[:k])

    return scored.map_batches(prune, batch_format="pyarrow") \
        .sort(["score", id_col], descending=[True, False]).limit(k)


def inverted_index(ds: "ray.data.Dataset", text_col: str = "text",
                   id_col: str = "doc_id",
                   max_postings: int = 10) -> "ray.data.Dataset":
    """(token, df, posting) — search-index build: per token, its document
    frequency and the FIRST ``max_postings`` doc ids (ascending) joined
    with ','. The retrieval-side sibling of :func:`doc_frequency` — the
    posting-list assembly a corpus search / citation-lookup stage needs.

    Plan: :func:`doc_terms` emits (doc, token) pairs already
    de-duplicated per document; ONE token-hash-bucket exchange co-locates
    each token's postings; per bucket one sort + groupby whose per-token
    cost is a C-level size count + one str.join over an ALREADY-TRUNCATED
    head slice (``collect_per_key``'s documented O(keys) µs-call shape).
    The truncation happens before string assembly, so a hot token's
    posting string is bounded no matter its df.
    """
    import pandas as pd

    from engine.joins import bucketed_map_groups

    pairs = doc_terms(ds, text_col=text_col, id_col=id_col)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["token", id_col], kind="mergesort")
        grouped = g.groupby("token", sort=False)
        df_counts = grouped.size()
        heads = g[g.groupby("token", sort=False).cumcount() < max_postings]
        posting = heads[id_col].astype(str).groupby(
            heads["token"], sort=False).agg(",".join)
        return pd.DataFrame({
            "token": df_counts.index,
            "df": df_counts.to_numpy(np.int64),
            "posting": posting.reindex(df_counts.index).to_numpy(),
        })

    return bucketed_map_groups(pairs, "token", per_bucket,
                               cols=["token", id_col])


def build_vocab(ds: "ray.data.Dataset",
                text_col: str = "text") -> "ray.data.Dataset":
    """(token, n, vocab_id) — vocabulary construction: contiguous ids
    1..V ordered by (occurrence count DESC, token ASC), the id-assignment
    step of a tokenizer / embedding-table build.

    A global two-key enumeration with NO global sort. Plan: (1) map-side
    token occurrence counts (one Arrow regex split + in-batch Acero count
    per block — the wire carries O(block vocab) rows), groupby-summed into
    (token, n); (2) count-of-counts — a SECOND map-side pre-agg over n
    whose exchange is O(distinct counts × blocks) — exclusive-prefix-
    summed on the driver over distinct counts descending (Zipf makes that
    table ~O(√N): thousands of scalars at web scale); (3) per distinct
    count value, ONE vectorized pandas sort+arange pass assigns
    offset + position (ties of a given n can't straddle groups, so ids
    are exact). Python-call count = distinct count values; the fattest
    group (n=1, roughly half the vocab under Zipf) is one task's sort —
    bounded by |vocab|, never by corpus rows.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern_regex(col, pattern=r"\s+")
        vals = lists.values
        nonempty = pc.not_equal(vals, "")
        toks = vals.filter(nonempty)
        if len(toks) == 0:
            return pa.table({"token": pa.array([], type=pa.string()),
                             "n": pa.array([], type=pa.int64())})
        from engine.stats import acero_counts
        return acero_counts(pa.table({"token": toks}), ["token"])

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .materialize()  # feeds count-of-counts AND the enumeration pass
    )

    from engine.stats import acero_counts as _ac

    cc = counts.map_batches(lambda t: _ac(t, ["n"], "c"),
                            batch_format="pyarrow") \
        .groupby("n").aggregate(Sum("c", alias_name="c")).take_all()
    offsets, acc = {}, 0
    for row in sorted(cc, key=lambda r: -r["n"]):  # counts descending
        offsets[row["n"]] = acc
        acc += row["c"]

    def per_count(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values("token", kind="mergesort")
        start = offsets[int(g["n"].iloc[0])]
        g["vocab_id"] = start + np.arange(1, len(g) + 1)
        return g

    return counts.groupby("n").map_groups(per_count, batch_format="pandas")


def _explode_table(t: pa.Table, text_col: str, id_col: str, pattern: str,
                   out_pos: str = "line_no", out_val: str = "line",
                   max_positions: "int | None" = None) -> pa.Table:
    """Table-level split-explode shared by line and sentence dedup: one
    Arrow literal split → flat values + list offsets → np.repeat ids + a
    single arange for the per-doc 1-based positions."""
    col = t[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    lists = pc.split_pattern(col, pattern=pattern)
    off = lists.offsets.to_numpy().astype(np.int64)
    counts = np.diff(off)
    if max_positions is not None and counts.max(initial=0) >= max_positions:
        raise ValueError(
            f"document exceeds {max_positions} split segments")
    ids = np.repeat(t[id_col].to_numpy(zero_copy_only=False), counts)
    pos = np.arange(off[-1] - off[0]) - np.repeat(
        off[:-1] - off[0], counts) + 1
    return pa.table({id_col: ids,
                     out_pos: pos.astype(np.int64),
                     out_val: lists.values})


def explode_lines(ds: "ray.data.Dataset", text_col: str = "text",
                  id_col: str = "doc_id") -> "ray.data.Dataset":
    """(doc_id, line_no, line) — one row per newline-split line, order
    preserved via line_no (1-based); see :func:`_explode_table`."""
    return ds.map_batches(
        lambda t: _explode_table(t, text_col, id_col, "\n"),
        batch_format="pyarrow")


def strip_repeated_lines(ds: "ray.data.Dataset", text_col: str = "text",
                         id_col: str = "doc_id",
                         max_occurrences: int = 2) -> "ray.data.Dataset":
    """Corpus-wide repeated-line removal — the C4/RefinedWeb boilerplate
    pass: drop every line whose EXACT text occurs more than
    ``max_occurrences`` times across the corpus (nav menus, cookie
    banners, footers), reassemble each document from its surviving lines
    in order. Documents left with zero lines are dropped (boilerplate-only
    pages).

    Plan: vectorized line explode; line counts via per-block Acero
    pre-agg + one narrow (line, n) groupby; frequent lines filtered and
    ANTI-joined against the line table (distributed — no broadcast-set
    size assumption on the blocklist); reassembly is the
    :func:`engine.windows.collect_per_key` bucket discipline (one
    exchange, per-doc cost one C-level str.join). Output: (doc_id, text).
    """
    from ray.data.aggregate import Sum

    from engine.joins import bucketed_map_groups, hash_join

    lines = explode_lines(ds, text_col, id_col).materialize()  # 2 consumers

    from engine.stats import acero_counts

    frequent = (
        lines.map_batches(lambda t: acero_counts(t, ["line"]),
                          batch_format="pyarrow")
        .groupby("line").aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: t.filter(pc.greater(t["n"], max_occurrences))
            .select(["line"]),
            batch_format="pyarrow")
        .materialize()  # hash_join reads schemas up front (CLAUDE.md)
    )
    kept = hash_join(lines, frequent, on="line", how="anti")

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([id_col, "line_no"], kind="mergesort")
        agg = g.groupby(id_col, sort=False)["line"].agg("\n".join)
        return agg.rename(text_col).reset_index()

    return bucketed_map_groups(kept, id_col, per_bucket)


MAX_SENT_POS = 1 << 20  # composite (doc, pos) key bound for span dedup


def strip_repeated_spans(ds: "ray.data.Dataset", text_col: str = "text",
                         id_col: str = "doc_id", span: int = 3,
                         sep: str = ". ",
                         max_occurrences: int = 1) -> "ray.data.Dataset":
    """C4's repeated-span removal: drop every sentence that falls inside
    any ``span``-sentence window whose exact text occurs more than
    ``max_occurrences`` times corpus-wide (the three-sentence dedup of
    Raffel et al. 2020 §2.2, applied symmetrically — all occurrences go),
    then reassemble documents from surviving sentences in order. Docs
    left empty are dropped.

    Plan: sentences explode WITH spans built in the same map partial
    (consecutive-position windows via shifted object arrays — doc
    locality is guaranteed inside the partial, before any exchange);
    narrow (span, n) count exchange; hot-span occurrences located by a
    distributed semi hash_join; their position windows expand vectorized
    to a distinct (doc, pos) drop set; sentences ANTI-join the drop set
    on a composite int64 key (pos < 2^20 asserted); bucketed ordered
    reassembly. Exchange volume: sentences once, spans once, drop keys
    once — never the documents.
    """
    from ray.data.aggregate import Count, Sum

    from engine.joins import bucketed_map_groups, hash_join
    from engine.stats import acero_counts

    def with_spans(t: pa.Table) -> pa.Table:
        t = _explode_table(t, text_col, id_col, sep, out_pos="pos",
                           out_val="sent", max_positions=MAX_SENT_POS)
        s = t["sent"].to_numpy(zero_copy_only=False).astype(object)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = len(s)
        if n < span:
            return t.append_column(
                "span", pa.array([None] * n, type=pa.string()))
        win = s.copy()
        ok = np.ones(n, dtype=bool)
        for k in range(1, span):
            shifted = np.roll(s, -k)
            win = win + sep + shifted
            ok &= np.roll(ids, -k) == ids  # window stays inside one doc
        ok[n - span + 1:] = False
        win = np.where(ok, win, None)
        return t.append_column("span", pa.array(win, type=pa.string()))

    sents = ds.map_batches(with_spans, batch_format="pyarrow") \
        .materialize()  # consumed by counts, locate AND reassembly

    spans_only = sents.map_batches(
        lambda t: t.filter(pc.is_valid(t["span"])).select(
            [id_col, "pos", "span"]), batch_format="pyarrow")
    hot = (
        spans_only.map_batches(lambda t: acero_counts(t, ["span"]),
                               batch_format="pyarrow")
        .groupby("span").aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: t.filter(pc.greater(t["n"], max_occurrences))
            .select(["span"]), batch_format="pyarrow")
        .materialize()
    )
    occurrences = hash_join(spans_only, hot, on="span", how="semi")

    def _ckey(ids: "np.ndarray", pos: "np.ndarray") -> "np.ndarray":
        # composite int64 key: int64 math FIRST (an int32 id column would
        # wrap mod 2^32 under value-based promotion), and the id range is
        # guarded like pos — ids >= 2^43 would overflow int64
        ids = ids.astype(np.int64, copy=False)
        if len(ids) and (ids.max() >= (1 << 43) or ids.min() < 0):
            raise ValueError("doc ids must be in [0, 2^43) for span dedup")
        return ids * MAX_SENT_POS + pos.astype(np.int64, copy=False)

    def expand_drops(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        pos = t["pos"].to_numpy(zero_copy_only=False)
        base = _ckey(ids, pos)
        keys = np.concatenate([base + k for k in range(span)]) \
            if len(ids) else np.array([], dtype=np.int64)
        return pa.table({"__dk": np.unique(keys).astype(np.int64)})

    drops = occurrences.map_batches(expand_drops, batch_format="pyarrow") \
        .groupby("__dk").aggregate(Count(alias_name="__c")) \
        .map_batches(lambda t: t.select(["__dk"]), batch_format="pyarrow") \
        .materialize()

    def add_key(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        pos = t["pos"].to_numpy(zero_copy_only=False)
        return pa.table({id_col: ids, "pos": pos,
                         "sent": t["sent"],
                         "__dk": _ckey(ids, pos)})

    kept = hash_join(sents.map_batches(add_key, batch_format="pyarrow"),
                     drops, on="__dk", how="anti")

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        agg = g.groupby(id_col, sort=False)["sent"].agg(sep.join)
        return agg.rename(text_col).reset_index()

    return bucketed_map_groups(kept, id_col, per_bucket,
                               cols=[id_col, "pos", "sent"])


def dedup_paragraphs(ds: "ray.data.Dataset", text_col: str = "text",
                     id_col: str = "doc_id",
                     sep: str = "\n") -> "ray.data.Dataset":
    """RefinedWeb-style exact paragraph dedup with KEEP-FIRST semantics
    (Penedo et al. 2023 §4.2, "exact substring/paragraph deduplication"):
    every distinct paragraph survives only at its globally FIRST
    occurrence in (doc_id, position) order; later copies are dropped and
    documents reassemble from their surviving paragraphs in order.
    Documents whose every paragraph appeared earlier vanish. Differs from
    :func:`strip_repeated_lines` (C4): a hot line is not removed
    everywhere — its first copy stays, so corpus content is preserved
    exactly once.

    Plan: ONE narrow exchange total. Paragraphs explode map-side with the
    composite int64 key ``doc_id * 2^20 + pos`` (a strict global order; id
    and pos ranges guarded like span dedup); a per-block Acero min
    pre-agg collapses same-block repeats before the wire; one
    ``groupby(para).Min(key)`` picks each paragraph's winner — and since
    the winning key ENCODES the surviving row, (doc_id, pos) is decoded
    straight off the aggregate with no join back against the exploded
    table. Reassembly is the :func:`engine.joins.bucketed_map_groups`
    bucket discipline (ordered C-level join per doc). Exchange volume:
    one (para, key) row per distinct paragraph per block; documents never
    cross the wire.
    """
    from ray.data.aggregate import Min

    from engine.joins import bucketed_map_groups

    def explode_keyed(t: pa.Table) -> pa.Table:
        t = _explode_table(t, text_col, id_col, sep, out_pos="pos",
                           out_val="para", max_positions=MAX_SENT_POS)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) and (ids.max() >= (1 << 43) or ids.min() < 0):
            raise ValueError(
                "doc ids must be in [0, 2^43) for paragraph dedup")
        key = ids * MAX_SENT_POS + \
            t["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        local = pa.table({"para": t["para"], "k": key}) \
            .group_by(["para"]).aggregate([("k", "min")])
        return local.rename_columns(["para", "k"])

    winners = ds.map_batches(explode_keyed, batch_format="pyarrow") \
        .groupby("para").aggregate(Min("k", alias_name="k"))

    def decode(t: pa.Table) -> pa.Table:
        k = t["k"].to_numpy(zero_copy_only=False)
        return pa.table({id_col: (k // MAX_SENT_POS).astype(np.int64),
                         "pos": (k % MAX_SENT_POS).astype(np.int64),
                         "para": t["para"]})

    kept = winners.map_batches(decode, batch_format="pyarrow")

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        g = g.sort_values([id_col, "pos"], kind="mergesort")
        agg = g.groupby(id_col, sort=False)["para"].agg(sep.join)
        return agg.rename(text_col).reset_index()

    return bucketed_map_groups(kept, id_col, per_bucket)


def _dup_window_occ(ds: "ray.data.Dataset", k: int, text_col: str,
                    id_col: str, min_count: int) -> "ray.data.Dataset":
    """Shared corpus pass behind ``window_dup_stats`` / ``cut_dup_windows``:
    (id_col, pos:int64 1-based) rows for every k-token window whose hash
    occurs >= min_count times anywhere in the corpus. Window build is one
    Arrow kernel over k shifted slices of the flat token stream; only
    (wh:i64, doc_id, pos) triples cross the wire."""
    import polars as pl
    from ray.data.aggregate import Sum

    from engine.joins import hash_join
    from engine.stats import acero_counts

    def windows(t: pa.Table) -> pa.Table:
        toks, lens = _flat_tokens(_text_column(t, text_col), r"\s+")
        n = len(toks)
        ids_in = t[id_col].to_numpy(zero_copy_only=False)
        empty = pa.table({
            "wh": pa.array([], type=pa.int64()),
            id_col: pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int64()),
        })
        if n < k:
            return empty
        nwin = np.maximum(lens - k + 1, 0)
        parts = [toks.slice(j, n - k + 1) for j in range(k)]
        wins = pc.binary_join_element_wise(*parts, " ")
        row_start = np.concatenate(([0], np.cumsum(lens)[:-1]))
        srow = np.repeat(np.arange(len(lens)), lens)[: n - k + 1]
        lpos = np.arange(n - k + 1) - row_start[srow]
        keep = lpos < nwin[srow]
        if not keep.any():
            return empty
        # reinterpret u64 as i64 (all 64 bits kept) — Ray's groupby block
        # rebuild round-trips through Python ints and overflows on u64.
        wh = pl.from_arrow(wins.filter(pa.array(keep))).hash(seed=0) \
            .to_numpy().view(np.int64)
        return pa.table({
            "wh": wh,
            id_col: ids_in[srow[keep]].astype(np.int64),
            "pos": (lpos[keep] + 1).astype(np.int64),  # 1-based, SQL twin
        })

    triples = ds.map_batches(windows, batch_format="pyarrow") \
        .materialize()  # 2 consumers (counts + semi-join left); CLAUDE.md

    frequent = (
        triples.map_batches(lambda t: acero_counts(t.select(["wh"]), ["wh"]),
                            batch_format="pyarrow")
        .groupby("wh").aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["n"], min_count))
            .select(["wh"]),
            batch_format="pyarrow")
        .materialize()  # hash_join reads schemas up front (CLAUDE.md)
    )
    return hash_join(triples, frequent, on="wh", how="semi")


def window_dup_stats(ds: "ray.data.Dataset", k: int = 5,
                     text_col: str = "text", id_col: str = "doc_id",
                     min_count: int = 2) -> "ray.data.Dataset":
    """Exact k-token-window duplicate statistics — the window-hash form of
    Lee et al. 2022 exact-substring dedup ("Deduplicating Training Data
    Makes Language Models Better"): a k-token window occurring >=
    ``min_count`` times ANYWHERE in the corpus (same doc or not) is
    duplicated; report, per document, how many of its windows are
    duplicated and how many of its token positions the duplicated windows
    cover (the interval-union of their [pos, pos+k) spans). Downstream
    policy (drop doc above a coverage fraction, or cut the spans) is the
    caller's; the stats are the corpus pass.

    Plan (all exchanges narrow):
    - window build is fully vectorized: k shifted slices of the flat token
      stream joined element-wise (``binary_join_element_wise``) — one Arrow
      kernel, no per-row Python; windows crossing a document boundary are
      masked out with numpy index arithmetic.
    - only (wh:u64, doc_id, pos) triples cross the wire — the window TEXT
      never leaves the map task (seeded 64-bit xxhash keys, the
      partition.py hash family).
    - occurrence counts: per-block Acero pre-agg -> one (wh, n) groupby;
      >= min_count survivors semi-join back against the triples
      (distributed — no broadcast-size assumption on the hot-window set).
    - per-doc interval union: sorted-positions overlap trick
      (sum(min(next_pos - pos, k)) + k per run) vectorized inside
      one pandas call per bucket via bucketed_map_groups.

    Output: one row per input doc —
    (doc_id, n_windows, n_dup_windows, n_covered_tokens), int64, zeros for
    clean docs. n_windows = max(n_tokens - k + 1, 0).
    """
    from engine.joins import bucketed_map_groups, hash_join

    dup_occ = _dup_window_occ(ds, k, text_col, id_col, min_count)

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        g = g.sort_values([id_col, "pos"], kind="mergesort")
        ids = g[id_col].to_numpy()
        pos = g["pos"].to_numpy()
        m = len(g)
        same = np.zeros(m, dtype=bool)
        if m > 1:
            same[:-1] = ids[1:] == ids[:-1]
        nxt = np.zeros(m, dtype=np.int64)
        if m > 1:
            nxt[:-1] = pos[1:]
        cov = np.where(same, np.minimum(nxt - pos, k), k)
        out = pd.DataFrame({id_col: ids, "cov": cov}) \
            .groupby(id_col, sort=False) \
            .agg(n_dup_windows=("cov", "size"),
                 n_covered_tokens=("cov", "sum")) \
            .reset_index()
        return out

    cov = bucketed_map_groups(dup_occ, id_col, per_bucket,
                              cols=[id_col, "pos"]).materialize()

    def base(t: pa.Table) -> pa.Table:
        _, lens = _flat_tokens(_text_column(t, text_col), r"\s+")
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            "n_windows": pa.array(np.maximum(lens - k + 1, 0),
                                  type=pa.int64()),
        })

    joined = hash_join(ds.map_batches(base, batch_format="pyarrow"), cov,
                       on=id_col, how="left")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t[id_col],
            "n_windows": t["n_windows"],
            "n_dup_windows": pc.cast(
                pc.fill_null(t["n_dup_windows"], 0), pa.int64()),
            "n_covered_tokens": pc.cast(
                pc.fill_null(t["n_covered_tokens"], 0), pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def cut_dup_windows(ds: "ray.data.Dataset", k: int = 5,
                    text_col: str = "text", id_col: str = "doc_id",
                    min_count: int = 2) -> "ray.data.Dataset":
    """The Lee et al. 2022 REMOVAL policy over ``window_dup_stats``'s
    corpus pass: rewrite each document with every token position covered
    by a duplicated k-window (interval union of the [pos, pos+k) spans)
    cut out, remaining tokens re-joined with single spaces (whitespace is
    normalized by the rewrite — runs of whitespace collapse; this is the
    operator's contract, documented not accidental).

    Plan: the duplicated-window spans per doc are packed into ONE binary
    blob per doc map-side inside the bucket exchange (int64-LE positions —
    Acero rejects list payloads, the dedup._list_u64_to_binary discipline),
    left-joined onto the docs, then one vectorized cut kernel per batch:
    span diff-array -> coverage cumsum over the flat token stream, Arrow
    filter + LargeListArray reassembly + ``pc.binary_join``. No per-row
    Python anywhere.

    Output: (id_col, text, n_removed_tokens:int64) — one row per input
    doc; clean docs pass through with n_removed_tokens = 0 (their text
    still whitespace-normalized, see above).
    """
    from engine.joins import bucketed_map_groups, hash_join

    dup_occ = _dup_window_occ(ds, k, text_col, id_col, min_count)

    def spans_blob(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = t["pos"].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table({
                id_col: pa.array([], type=pa.int64()),
                "spans": pa.array([], type=pa.large_binary()),
            })
        order = np.lexsort((pos, ids))
        ids, pos = ids[order], pos[order]
        starts = np.flatnonzero(
            np.concatenate(([True], ids[1:] != ids[:-1])))
        bounds = np.append(starts, len(ids)).astype(np.int64)
        spans = pa.LargeBinaryArray.from_buffers(
            pa.large_binary(), len(starts),
            [None, pa.py_buffer((bounds * 8).tobytes()),
             pa.py_buffer(pos.tobytes())])
        return pa.table({id_col: pa.array(ids[starts]), "spans": spans})

    spans = bucketed_map_groups(dup_occ, id_col, spans_blob,
                                cols=[id_col, "pos"],
                                batch_format="pyarrow").materialize()

    def docs(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: pc.cast(t[id_col], pa.int64()),
            text_col: _text_column(t, text_col),
        })

    joined = hash_join(ds.map_batches(docs, batch_format="pyarrow"), spans,
                       on=id_col, how="left")

    def cut(t: pa.Table) -> pa.Table:
        toks, lens = _flat_tokens(_text_column(t, text_col), r"\s+")
        n = len(toks)
        rows = len(lens)
        blob = t["spans"]
        if isinstance(blob, pa.ChunkedArray):
            blob = blob.combine_chunks()
        blob = pc.fill_null(blob, b"")
        # LargeBinaryArray exposes no .offsets in this pyarrow — read the
        # int64 offsets buffer directly, honoring the array's slice offset.
        offs = np.frombuffer(blob.buffers()[1], dtype=np.int64)[
            blob.offset: blob.offset + len(blob) + 1]
        nspans = (offs[1:] - offs[:-1]) // 8
        flat = np.frombuffer(bytes(blob.buffers()[2] or b""),
                             dtype=np.int64,
                             count=int(nspans.sum()),
                             offset=int(offs[0]))
        row_start = np.concatenate(([0], np.cumsum(lens)))
        gstart = row_start[np.repeat(np.arange(rows), nspans)] + flat - 1
        diff = np.zeros(n + 1, dtype=np.int64)
        np.add.at(diff, gstart, 1)
        np.add.at(diff, gstart + k, -1)
        keep = np.cumsum(diff[:n]) == 0
        kept_per_row = np.bincount(
            np.repeat(np.arange(rows), lens)[keep], minlength=rows) \
            if n else np.zeros(rows, dtype=np.int64)
        kept = toks.filter(pa.array(keep))
        if isinstance(kept, pa.ChunkedArray):
            kept = kept.combine_chunks()
        lst = pa.LargeListArray.from_arrays(
            pa.array(np.concatenate(([0], np.cumsum(kept_per_row))),
                     type=pa.int64()),
            pc.cast(kept, pa.large_string()))
        return pa.table({
            id_col: t[id_col],
            text_col: pc.cast(
                pc.binary_join(lst, pa.scalar(" ", type=pa.large_string())),
                pa.string()),
            "n_removed_tokens": pa.array(lens - kept_per_row,
                                         type=pa.int64()),
        })

    return joined.map_batches(cut, batch_format="pyarrow")


def bigram_lm_score(ds: "ray.data.Dataset", text_col: str = "text",
                    id_col: str = "doc_id") -> "ray.data.Dataset":
    """Corpus-trained bigram-LM surprisal — the CCNet/KenLM-family
    "perplexity filter" signal with an ENGINE-EXACT integer convention:
    per bigram occurrence (w1, w2) the contribution is
    ``bitlen(c1(w1)) - bitlen(c2(w1 w2))`` where c2 = corpus bigram
    occurrence counts, c1(w1) = Σ_w2 c2(w1, w2) (w1's count as a LEFT
    context), and ``bitlen(x) = floor(log2 x) + 1`` computed exactly
    (np.frexp == DuckDB ``length(bin(x))`` — the tfidf ladder). High
    lm_bits/n_pairs ≈ high per-token surprisal under the corpus's own
    bigram model (the CCNet head/middle/tail signal); a real KenLM swaps
    the integer ladder for log-probs without touching the plan.

    Plan (round 5 — ONE wide exchange, was three): the doc pair stream is
    pre-agged per block to (doc_id, bigram, k) rows (Acero — repeats
    collapse before the wire) and bucketed by hash(w1). Because bigram →
    w1 is a function, ONE hash-partition on w1 co-locates every
    occurrence of a bigram (all its rows share its w1) AND every
    occurrence of its left context — so n2(bigram), n1(w1), the per-row
    contribution, and a per-doc partial sum all happen in a single
    vectorized per-bucket pass (dictionary-encode + weighted bincount;
    one Python call per bucket, not per group). The pair stream
    crosses the wire ONCE; only O(docs-per-bucket) partials follow (one
    narrow per-doc Sum — a doc's w1s span buckets). NO broadcast — the
    bigram vocabulary at web scale outgrows any worker heap. Skew note: a
    stopword w1 lands its whole context family in one bucket; buckets
    hold many w1s and the pass is O(bucket) vectorized, so imbalance
    costs wall-time, not correctness. Docs with < 2 tokens score (0, 0).

    Output: (doc_id, lm_bits:int64, n_pairs:int64).
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    from engine.joins import (_bucket_of_column, _coalesced, exchange_width,
                              hash_join)
    from engine.stats import acero_counts

    width = exchange_width()

    def pairs(t: pa.Table) -> pa.Table:
        toks, lens = _flat_tokens(_text_column(t, text_col), r"\s+")
        n = len(toks)
        ids_in = t[id_col].to_numpy(zero_copy_only=False)
        empty = pa.table({
            id_col: pa.array([], type=pa.int64()),
            "bigram": pa.array([], type=pa.string()),
            "k": pa.array([], type=pa.int64()),
            "__bucket": pa.array([], type=pa.int32()),
        })
        if n < 2:
            return empty
        ends = np.cumsum(lens)
        pair_ok = np.ones(n - 1, dtype=bool)
        inner = ends[:-1]
        inner = inner[(inner >= 1) & (inner <= n - 1)]
        pair_ok[inner - 1] = False
        if not pair_ok.any():
            return empty
        sel = pa.array(pair_ok)
        w1_toks = toks.slice(0, n - 1).filter(sel)
        bigrams = pc.binary_join_element_wise(
            w1_toks, toks.slice(1, n - 1).filter(sel), " ")
        rows = np.repeat(np.arange(len(lens)), lens)[: n - 1][pair_ok]
        raw = pa.table({
            id_col: ids_in[rows].astype(np.int64),
            "bigram": pc.cast(bigrams, pa.string()),
        })
        out = acero_counts(raw, [id_col, "bigram"], out_col="k")
        w1 = pc.replace_substring_regex(out["bigram"], r"\s.*$", "")
        return out.append_column(
            "__bucket", _bucket_of_column(w1, width))

    dp = ds.map_batches(pairs, batch_format="pyarrow")

    def bucket_pass(t: pa.Table) -> pa.Table:
        # one vectorized pass over a whole w1-hash bucket: model counts,
        # contributions, and per-doc partials — no per-group Python beyond
        # this call (one per bucket)
        if t.num_rows == 0:
            return pa.table({id_col: pa.array([], type=pa.int64()),
                             "v": pa.array([], type=pa.int64()),
                             "np_": pa.array([], type=pa.int64())})
        # single contiguous Array: dictionary_encode over a ChunkedArray
        # would give each chunk its OWN dictionary
        big = t["bigram"].combine_chunks()
        k = t["k"].to_numpy(zero_copy_only=False).astype(np.int64)
        enc2 = pc.dictionary_encode(big)
        bi_idx = enc2.indices.to_numpy(zero_copy_only=False)
        n2 = np.bincount(bi_idx, weights=k).astype(np.int64)  # < 2^53
        w1 = pc.replace_substring_regex(enc2.dictionary, r"\s.*$", "")
        enc1 = pc.dictionary_encode(w1)
        w1_of_big = enc1.indices.to_numpy(zero_copy_only=False)
        n1 = np.bincount(w1_of_big[bi_idx], weights=k).astype(np.int64)

        def bitlen(v: np.ndarray) -> np.ndarray:
            _, e = np.frexp(v.astype(np.float64))  # exact: counts < 2^53
            return e.astype(np.int64)

        v = k * (bitlen(n1[w1_of_big[bi_idx]]) - bitlen(n2[bi_idx]))
        docs = t[id_col].to_numpy(zero_copy_only=False)
        dcodes, duniq = pd.factorize(docs)
        return pa.table({
            id_col: pa.array(np.asarray(duniq, dtype=np.int64)),
            "v": pa.array(np.bincount(dcodes, weights=v)
                          .astype(np.int64)),
            "np_": pa.array(np.bincount(dcodes, weights=k)
                            .astype(np.int64)),
        })

    contrib = (_coalesced(dp, width)
               .groupby("__bucket")
               .map_groups(bucket_pass, batch_format="pyarrow")
               .groupby(id_col)
               .aggregate(Sum("v", alias_name="lm_bits"),
                          Sum("np_", alias_name="n_pairs"))
               .materialize())

    def base(t: pa.Table) -> pa.Table:
        return pa.table({id_col: pc.cast(t[id_col], pa.int64())})

    joined = hash_join(ds.map_batches(base, batch_format="pyarrow"),
                       contrib, on=id_col, how="left")

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t[id_col],
            "lm_bits": pc.cast(pc.fill_null(t["lm_bits"], 0), pa.int64()),
            "n_pairs": pc.cast(pc.fill_null(t["n_pairs"], 0), pa.int64()),
        })

    return joined.map_batches(finish, batch_format="pyarrow")


def compression_ratio_batch(t: pa.Table, text_col: str = "text",
                            id_col: str = "doc_id",
                            level: int = 6) -> pa.Table:
    """Per-document zlib compressibility — the repetitiveness signal of
    the Gopher/Dolma quality-filter family that SQL cannot express (no
    zlib in the oracle: driver rows-only check, values pytest-pinned).
    Boilerplate/templated text compresses far below ~0.4×; prose sits
    around 0.4-0.7; random/encrypted payloads near 1.0. Output integers
    (raw_len, zip_len) so consumers form exact ratios; one C zlib call
    per row (the hashlib-per-row discipline), fixed level for
    determinism across runs and engines."""
    texts = pc.fill_null(t[text_col], "")
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    compress = zlib.compress
    binary = pc.cast(texts, pa.binary())
    raw_lens = pc.binary_length(binary) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    zip_lens = np.fromiter(
        (len(compress(s.as_buffer(), level)) for s in binary),
        dtype=np.int64, count=len(texts))
    return pa.table({id_col: t[id_col],
                     "raw_len": pa.array(raw_lens),
                     "zip_len": pa.array(zip_lens)})


def compression_signal(ds: "ray.data.Dataset", text_col: str = "text",
                       id_col: str = "doc_id",
                       level: int = 6) -> "ray.data.Dataset":
    """(doc_id, raw_len, zip_len) per document — see
    :func:`compression_ratio_batch`. Map-side only."""
    return ds.map_batches(
        lambda t: compression_ratio_batch(t, text_col, id_col, level),
        batch_format="pyarrow")


def term_search(ds: "ray.data.Dataset", terms: "tuple[str, ...]",
                text_col: str = "text", id_col: str = "doc_id",
                ) -> "ray.data.Dataset":
    """Conjunctive (AND) term search with term-frequency ranking — the
    retrieval consumer of the token machinery: documents containing
    EVERY query term, scored by total occurrences of the query terms,
    ranked dense by (-tf_total, doc_id). The inverted-index read path of
    a corpus-inspection / targeted-decontamination workflow (find every
    document mentioning this benchmark).

    Plan: map-side only until the final tiny rank — per block, one flat
    token stream (:func:`_flat_tokens`) + ``pc.is_in`` against the query
    set, a segment-sum per (doc, term) via np.bincount; only matching
    (doc, tf_total, n_distinct_terms) rows leave the block, docs missing
    a term are filtered map-side. The global rank is a sort on the
    (usually tiny) hit set. Output: (doc_id, tf_total, rank)."""
    nq = len(terms)
    term_arr = pa.array(list(terms), type=pa.string())

    def score(t: pa.Table) -> pa.Table:
        toks, lens = _flat_tokens(_text_column(t, text_col), r"\s+")
        n = len(toks)
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        empty = pa.table({id_col: pa.array([], type=pa.int64()),
                          "tf_total": pa.array([], type=pa.int64())})
        if n == 0:
            return empty
        # ONE scan: index_in gives the term id per token, null for
        # non-matches — its validity IS the match mask
        tid_arr = pc.index_in(toks, value_set=term_arr)
        tid = tid_arr.to_numpy(zero_copy_only=False)
        row = np.repeat(np.arange(len(lens)), lens)
        m = np.asarray(pc.is_valid(tid_arr).to_numpy(zero_copy_only=False),
                       dtype=bool)
        if not m.any():
            return empty
        rowm = row[m]
        tidm = tid[m].astype(np.int64)
        # per (row, term) presence and per-row totals via bincount
        key = rowm * nq + tidm
        cnt = np.bincount(key, minlength=len(lens) * nq) \
            .reshape(len(lens), nq)
        full = (cnt > 0).all(axis=1)
        if not full.any():
            return empty
        sel = np.flatnonzero(full)
        return pa.table({
            id_col: pa.array(ids[sel], type=pa.int64()),
            "tf_total": pa.array(cnt[sel].sum(axis=1).astype(np.int64)),
        })

    hits = ds.map_batches(score, batch_format="pyarrow")

    def rank(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        tf = t["tf_total"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -tf))
        rnk = np.empty(len(ids), dtype=np.int64)
        rnk[order] = np.arange(1, len(ids) + 1)
        return t.append_column("rank", pa.array(rnk, type=pa.int64()))

    # the hit set is tiny relative to the corpus (that is the point of a
    # conjunctive query); one coalesced pass ranks it. Zero-hit guard:
    # a 0-row exchange loses its schema in Ray 2.49, so a sentinel row
    # (tf_total=0, sorts last — ranks unaffected) rides the exchange and
    # the final filter drops it.
    import ray.data as _rd

    sentinel = _rd.from_arrow(pa.table({
        id_col: pa.array([-1], type=pa.int64()),
        "tf_total": pa.array([0], type=pa.int64()),
    }))
    ranked = hits.union(sentinel).repartition(1) \
        .map_batches(rank, batch_format="pyarrow")
    return ranked.map_batches(
        lambda t: t.filter(pc.greater_equal(t[id_col], 0)),
        batch_format="pyarrow")


def lang_hits(ds: "ray.data.Dataset", text_col: str = "text",
              id_col: str = "doc_id") -> "ray.data.Dataset":
    """Per-language stopword hit COUNTS + routing confidence — the
    integer evidence behind :class:`LangIdStage`'s argmax, exposed so a
    routing pipeline can gate on the margin (top1 − top2 hits; small
    margins → 'und'/manual lanes) instead of trusting a bare label.
    Output: (doc_id, hits_de, hits_en, hits_es, hits_fr, n_tokens,
    margin) — all int64, SQL-twin exact. Same vectorized kernel as the
    lang-ID stage (ONE flat token scan, pc.is_in per profile)."""
    langs = LangIdStage._LANGS
    value_sets = [pa.array(sorted(_STOPWORDS[lang])) for lang in langs]

    def score(t: pa.Table) -> pa.Table:
        col = _text_column(t, text_col)
        toks, row_lens = _flat_tokens(col, r"[\W\d_]+")
        low = pc.utf8_lower(toks)
        if len(toks):
            hits = np.stack([
                _seg_sum(
                    pc.is_in(low, value_set=vs)
                    .to_numpy(zero_copy_only=False).astype(np.int64),
                    row_lens)
                for vs in value_sets
            ])
        else:
            hits = np.zeros((len(langs), len(col)), np.int64)
        srt = np.sort(hits, axis=0)
        margin = srt[-1] - (srt[-2] if len(langs) > 1 else 0)
        cols = {id_col: t[id_col]}
        for i, lang in enumerate(langs):
            cols[f"hits_{lang}"] = pa.array(hits[i], type=pa.int64())
        cols["n_tokens"] = pa.array(row_lens.astype(np.int64))
        cols["margin"] = pa.array(margin.astype(np.int64))
        return pa.table(cols)

    return ds.map_batches(score, batch_format="pyarrow")
