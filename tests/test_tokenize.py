"""Tokenizer-apply + sequence-packing tests (engine/tokenize.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from engine import tokenize as tz

TEXTS = ["the cat sat", "on the mat and the cat slept", "",
         "dog ran far away", "the dog and the cat", "mat cat dog",
         "one", "two three four five six seven"]


def _table():
    return pa.table({"doc_id": list(range(len(TEXTS))), "text": TEXTS})


def _vocab(ray_session):
    import ray.data as rd

    from engine.textstats import build_vocab

    return build_vocab(rd.from_arrow(_table())).to_pandas()


def test_blob_roundtrip():
    lst = pa.array([[1, 2, 3], [], [7]], type=pa.list_(pa.int32()))
    blobs = tz._ids_list_to_blob(lst)
    assert [np.frombuffer(b.as_py(), dtype="<i4").tolist() for b in blobs] \
        == [[1, 2, 3], [], [7]]
    # sliced list arrays must keep element alignment
    blobs2 = tz._ids_list_to_blob(lst.slice(1, 2))
    assert [np.frombuffer(b.as_py(), dtype="<i4").tolist() for b in blobs2] \
        == [[], [7]]


def test_encode_tokens(ray_session):
    import ray.data as rd

    vocab = _vocab(ray_session)
    vmap = dict(zip(vocab["token"], vocab["vocab_id"]))
    enc = tz.encode_tokens(rd.from_arrow(_table()).repartition(3),
                           vocab).take_all()
    for r in sorted(enc, key=lambda r: r["doc_id"]):
        assert list(r["ids"]) == [vmap[w] for w in TEXTS[r["doc_id"]].split()]
        assert r["n_tokens"] == len(TEXTS[r["doc_id"]].split())


def test_encode_unknown_tokens(ray_session):
    import ray.data as rd

    vocab = _vocab(ray_session)
    t = pa.table({"doc_id": [0], "text": ["the UNSEEN cat"]})
    (row,) = tz.encode_tokens(rd.from_arrow(t), vocab).take_all()
    vmap = dict(zip(vocab["token"], vocab["vocab_id"]))
    assert list(row["ids"]) == [vmap["the"], tz.UNK_ID, vmap["cat"]]


def test_pack_sequences_matches_reference(ray_session):
    import ray.data as rd

    vocab = _vocab(ray_session)
    vmap = dict(zip(vocab["token"], vocab["vocab_id"]))
    stream = [vmap[w] for s in TEXTS for w in s.split()]
    for L in (3, 5, 7, 100):
        packed = tz.pack_sequences(rd.from_arrow(_table()).repartition(3),
                                   vocab, L).take_all()
        got = {r["seq_id"]: r["token_ids"] for r in packed}
        nfull = len(stream) // L
        ref = {i: ",".join(map(str, stream[i * L:(i + 1) * L]))
               for i in range(nfull)}
        assert got == ref, L


def test_pack_sequences_parallelism_invariant(ray_session, monkeypatch):
    import ray.data as rd

    import engine.joins

    vocab = _vocab(ray_session)
    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 2)
    a = tz.pack_sequences(rd.from_arrow(_table()), vocab, 4).take_all()
    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 8)
    b = tz.pack_sequences(rd.from_arrow(_table()).repartition(5), vocab,
                          4).take_all()
    key = lambda rows: sorted((r["seq_id"], r["token_ids"]) for r in rows)
    assert key(a) == key(b)


def test_global_shuffle_stable_under_growth(ray_session):
    import ray.data as rd

    from engine.partition import global_shuffle

    small = pa.table({"doc_id": list(range(40))})
    big = pa.table({"doc_id": list(range(60))})
    pos_s = {r["doc_id"]: r["shuffle_pos"] for r in
             global_shuffle(rd.from_arrow(small)).take_all()}
    pos_b = {r["doc_id"]: r["shuffle_pos"] for r in
             global_shuffle(rd.from_arrow(big)).take_all()}
    assert sorted(pos_s.values()) == list(range(1, 41))  # a permutation
    # relative order of surviving ids is growth-stable (keys never change)
    order_s = sorted(range(40), key=lambda d: pos_s[d])
    order_b = [d for d in sorted(range(60), key=lambda d: pos_b[d]) if d < 40]
    assert order_s == order_b
    # salt changes the permutation
    pos_e = {r["doc_id"]: r["shuffle_pos"] for r in
             global_shuffle(rd.from_arrow(small), salt="epoch1").take_all()}
    assert pos_e != pos_s


def test_fim_transform(ray_session):
    import hashlib

    import ray.data as rd

    from engine.tokenize import fim_transform

    ds = rd.from_arrow(pa.table({
        "doc_id": list(range(20)),
        "text": [f"doc {i} body text with wörds αβγ {i}" for i in range(20)],
    })).repartition(2)
    out = fim_transform(ds, fim_pct=50, salt="s").to_pandas() \
        .set_index("doc_id").sort_index()
    for i in range(20):
        d = hashlib.md5(f"s:{i}".encode()).digest()
        text = f"doc {i} body text with wörds αβγ {i}"
        n = len(text)
        row = out.loc[i]
        assert row["prefix"] + row["middle"] + row["suffix"] == text
        if int.from_bytes(d[:4], "big") % 100 < 50:
            p1 = int.from_bytes(d[4:8], "big") % (n + 1)
            p2 = p1 + int.from_bytes(d[8:12], "big") % (n - p1 + 1)
            assert row["is_fim"] == 1
            assert row["prefix"] == text[:p1]
            assert row["middle"] == text[p1:p2]
            assert row["suffix"] == text[p2:]
        else:
            assert row["is_fim"] == 0
            assert (row["prefix"], row["middle"], row["suffix"]) == \
                (text, "", "")
