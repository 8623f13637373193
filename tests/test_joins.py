"""Partitioned hash join tests (engine/joins.py — both sides large)."""

from __future__ import annotations

import pyarrow as pa
import pytest


@pytest.fixture()
def sides(ray_session):
    import ray.data as rd

    left = rd.from_arrow(pa.table({
        "k": [1, 2, 3, 4, 2], "lv": ["a", "b", "c", "d", "b2"],
    }))
    right = rd.from_arrow(pa.table({
        "k": [2, 3, 3, 5], "rv": [20, 30, 31, 50],
    }))
    return left, right


def test_inner_join(sides):
    from engine.joins import hash_join

    left, right = sides
    out = hash_join(left, right, on="k").to_pandas()
    got = sorted(map(tuple, out[["k", "lv", "rv"]].values.tolist()))
    assert got == [(2, "b", 20), (2, "b2", 20), (3, "c", 30), (3, "c", 31)]
    assert out["k"].dtype == "int64"  # int dtype survives the bucket merge


def test_outer_join(sides):
    from engine.joins import hash_join

    left, right = sides
    out = hash_join(left, right, on="k", how="outer").to_pandas()
    assert len(out) == 7  # 4 matches + k=1,4 left-only + k=5 right-only
    assert set(out["k"]) == {1, 2, 3, 4, 5}


def test_string_keys(ray_session):
    import ray.data as rd

    from engine.joins import hash_join

    ls = rd.from_arrow(pa.table({"s": ["x", "y"], "a": [1, 2]}))
    rs = rd.from_arrow(pa.table({"s": ["y", "z"], "b": [9, 8]}))
    out = hash_join(ls, rs, on="s").to_pandas()
    assert out[["s"]].values.tolist() == [["y"]]


def test_bucket_count_invariance(sides, monkeypatch):
    import engine.joins
    from engine.joins import hash_join

    left, right = sides
    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 2)
    a = hash_join(left, right, on="k").to_pandas()
    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 16)
    b = hash_join(left, right, on="k").to_pandas()
    key = lambda df: sorted(map(tuple, df[["k", "lv", "rv"]].values.tolist()))
    assert key(a) == key(b)


def test_matches_duckdb_on_testdata(ray_session):
    import duckdb

    import __ray_entry__ as e
    from scripts.check_oracle import canon, to_pandas

    sf = "/root/testdata/sf0.001"
    got = canon(to_pandas(e.queries()["large_join"](sf)))
    con = duckdb.connect()
    for t in ("lineitem", "orders"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    exp = canon(con.execute(e.oracle_sql()["large_join"]).fetchdf())
    assert got.astype(str).equals(exp.astype(str))


def test_asof_join_semantics(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from engine.joins import asof_join

    ts = lambda s: pd.Timestamp(s)
    left = rd.from_arrow(pa.table({
        "k": [1, 1, 1, 2, 3],
        "t": [ts("2024-01-01 10:00"), ts("2024-01-01 11:00"),
              ts("2024-01-01 09:00"), ts("2024-01-01 10:30"),
              ts("2024-01-01 10:00")],
        "lid": [1, 2, 3, 4, 5],
    }))
    right = rd.from_arrow(pa.table({
        "k": [1, 1, 2],
        "rt": [ts("2024-01-01 09:30"), ts("2024-01-01 10:30"),
               ts("2024-01-01 10:30")],
        "rv": [100, 200, 300],
    }))
    out_ds = asof_join(left, right, by="k", on="t", right_on="rt")
    # int stays ARROW int64 end-to-end (payloads never visit pandas)
    sch = out_ds.schema()
    assert dict(zip(sch.names, sch.types))["rv"] == pa.int64()
    out = out_ds.to_pandas()
    got = {r.lid: (None if pd.isna(r.rv) else int(r.rv))
           for r in out.itertuples()}
    assert got == {
        1: 100,   # 10:00 → last right ≤ 10:00 is 09:30
        2: 200,   # 11:00 → 10:30
        3: None,  # 09:00 → nothing before
        4: 300,   # equal timestamps match (backward includes ties)
        5: None,  # key 3 has no right rows
    }


def test_asof_join_right_only_bucket_schema(ray_session, monkeypatch):
    """A bucket whose rows ALL come from the right side must emit the full
    output schema (typed, zero rows), so a pyarrow consumer indexing a right
    column never KeyErrors on a left-only-schema block."""
    import pandas as pd
    import ray.data as rd

    import engine.joins
    from engine.joins import asof_join

    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 8)
    # many distinct right-only keys → some bucket is right-only w.h.p.
    left = rd.from_arrow(pa.table({"k": [1], "t": [10], "lid": [1]}))
    right = rd.from_arrow(pa.table({
        "k": [1] + list(range(100, 140)),
        "rt": [5] + [1] * 40,
        "rv": [7] + list(range(40)),
    }))
    out_ds = asof_join(left, right, by="k", on="t", right_on="rt")

    def touch_right_col(t: pa.Table) -> pa.Table:
        # raises KeyError on any block lacking the right columns
        return t.select(["lid", "rt", "rv"])

    out = out_ds.map_batches(touch_right_col,
                             batch_format="pyarrow").to_pandas()
    assert out[["lid", "rv"]].values.tolist() == [[1, 7]]


def test_sessionize_numeric_ts(ray_session):
    """Epoch-seconds (numeric) timestamp columns sessionize with gap_s
    compared directly — no Timedelta/number TypeError."""
    import ray.data as rd

    from engine.windows import sessionize

    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2],
        "ts": [0.0, 1800.0, 7200.0, 50.0],   # gap 5400 s > 3600 → break
        "event_id": [1, 2, 3, 4],
        "value": [1.0, 2.0, 4.0, 8.0],
    }))
    out = sessionize(ds, gap_s=3600.0).to_pandas().sort_values(
        ["user_id", "session_start"]).reset_index(drop=True)
    assert out["n_events"].tolist() == [2, 1, 1]
    assert out["sum_value"].tolist() == [3.0, 4.0, 8.0]
    assert out["session_end"].tolist() == [1800.0, 7200.0, 50.0]


def test_session_windows_operator(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from engine.windows import sessionize

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = [
        # user 1: two sessions (gap of 2h between event 2 and 3)
        (1, base, 1, 1.0),
        (1, base + pd.Timedelta("30min"), 2, 2.0),
        (1, base + pd.Timedelta("2h31min"), 3, 4.0),
        # user 2: exactly 1h gap → SAME session (strict >)
        (2, base, 4, 1.0),
        (2, base + pd.Timedelta("1h"), 5, 1.0),
    ]
    ds = rd.from_arrow(pa.table({
        "user_id": [r[0] for r in rows],
        "ts": [r[1] for r in rows],
        "event_id": [r[2] for r in rows],
        "value": [r[3] for r in rows],
    }))
    out = sessionize(ds, gap_s=3600.0).to_pandas().sort_values(
        ["user_id", "session_start"]).reset_index(drop=True)
    assert out["n_events"].tolist() == [2, 1, 2]
    assert out["sum_value"].tolist() == [3.0, 4.0, 2.0]
    assert out.loc[0, "session_end"] == base + pd.Timedelta("30min")


def test_semi_anti_join(sides):
    from engine.joins import hash_join

    left, right = sides
    semi = hash_join(left, right, on="k", how="semi").to_pandas()
    anti = hash_join(left, right, on="k", how="anti").to_pandas()
    # left columns only, each left row at most once (dup right keys collapse)
    assert list(semi.columns) == ["k", "lv"]
    assert sorted(semi["lv"]) == ["b", "b2", "c"]
    assert sorted(anti["lv"]) == ["a", "d"]
    # semi + anti partition the left side
    assert len(semi) + len(anti) == 5


def test_bloom_semi_join_exact(ray_session):
    """Bloom prune + exact verify == plain semi join, even with a bitmap
    sized to force heavy false positives (num_bits=64), and on string keys."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from engine.joins import bloom_semi_join, hash_join

    rng = np.random.RandomState(7)
    left = pd.DataFrame({"k": rng.randint(0, 500, 2000),
                         "lid": np.arange(2000)})
    right = pd.DataFrame({"k": rng.choice(500, 40, replace=False)})
    lds = rd.from_pandas(left).repartition(5)
    rds = rd.from_pandas(right)

    got = bloom_semi_join(lds, rds, on="k", num_bits=64).to_pandas()
    exp = hash_join(lds, rds, on="k", how="semi").to_pandas()
    assert sorted(got["lid"]) == sorted(exp["lid"])

    sleft = pd.DataFrame({"k": [f"u{i % 37}" for i in range(300)],
                          "lid": np.arange(300)})
    sright = pd.DataFrame({"k": [f"u{i}" for i in range(0, 37, 3)]})
    sgot = bloom_semi_join(rd.from_pandas(sleft), rd.from_pandas(sright),
                           on="k", num_bits=128).to_pandas()
    sexp = sleft[sleft["k"].isin(set(sright["k"]))]
    assert sorted(sgot["lid"]) == sorted(sexp["lid"])


def test_bloom_prefilter_prunes(ray_session):
    """The bitmap actually drops non-matching probe rows before the
    exchange (selectivity evidence, not just end-result equality)."""
    import numpy as np
    import pandas as pd
    import ray
    import ray.data as rd

    from engine.joins import _bloom_hashes, _key_codes

    keys = np.arange(0, 10_000, dtype=np.int64)
    build = keys[:100]  # 1% match rate
    num_bits, k = 1 << 16, 2
    bm = np.zeros(num_bits // 8, dtype=np.uint8)
    idx = _bloom_hashes(build.astype(np.uint64), num_bits, k).reshape(-1)
    np.bitwise_or.at(bm, (idx >> np.uint64(3)).astype(np.int64),
                     (1 << (idx & np.uint64(7))).astype(np.uint8))
    pidx = _bloom_hashes(keys.astype(np.uint64), num_bits, k)
    bits = (bm[(pidx >> np.uint64(3)).astype(np.int64)]
            >> (pidx & np.uint64(7)).astype(np.uint8)) & 1
    survivors = int(bits.all(axis=1).sum())
    assert survivors >= 100                # no false negatives, ever
    assert survivors < 500                 # ≥95% of non-matches pruned


def test_interval_join_semantics(ray_session):
    import pandas as pd
    import ray.data as rd

    from engine.joins import interval_join

    left = rd.from_arrow(pa.table({
        "k": [1, 1, 1, 2, 3],
        "t": [5, 15, 25, 7, 9],
        "lid": [1, 2, 3, 4, 5],
    }))
    right = rd.from_arrow(pa.table({
        "k": [1, 1, 2],
        "s": [0, 20, 7],
        "e": [10, 30, 8],
        "label": ["w1", "w2", "w3"],
    }))
    out = interval_join(left, right, by="k", on="t",
                        start_col="s", end_col="e").to_pandas()
    got = {r.lid: (None if pd.isna(r.label) else r.label)
           for r in out.itertuples()}
    assert got == {
        1: "w1",   # t=5 ∈ [0,10)
        2: None,   # t=15 in the gap between windows
        3: "w2",   # t=25 ∈ [20,30)
        4: "w3",   # t=7 ∈ [7,8) — start inclusive
        5: None,   # key 3 has no windows
    }
    # end exclusive: t=8 not in [7,8)
    left2 = rd.from_arrow(pa.table({"k": [2], "t": [8], "lid": [9]}))
    out2 = interval_join(left2, right, by="k", on="t",
                         start_col="s", end_col="e").to_pandas()
    assert pd.isna(out2["label"]).all()


def test_top_k_per_group(ray_session):
    import ray.data as rd

    from engine.stats import top_k_per_group

    t = pa.table({
        "g": ["a", "a", "a", "a", "b", "b", "c"],
        "v": [10, 30, 20, 30, 5, 7, 1],
        "id": [1, 2, 3, 4, 5, 6, 7],
    })
    out = top_k_per_group(rd.from_arrow(t).repartition(3), "g", "v", 2,
                          tiebreak_col="id").to_pandas()
    got = sorted(map(tuple, out[["g", "id"]].values.tolist()))
    # a: v=30 ties -> ids 2,4 (lowest-id tiebreak); b: both; c: its one row
    assert got == [("a", 2), ("a", 4), ("b", 5), ("b", 6), ("c", 7)]
    # ascending variant
    out2 = top_k_per_group(rd.from_arrow(t), "g", "v", 1, descending=False,
                           tiebreak_col="id").to_pandas()
    assert sorted(map(tuple, out2[["g", "id"]].values.tolist())) == \
        [("a", 1), ("b", 5), ("c", 7)]


def test_rolling_agg(ray_session):
    import ray.data as rd

    from engine.windows import rolling_agg

    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 1, 2, 2],
        "ts": [10, 20, 30, 40, 5, 6],
        "event_id": [1, 2, 3, 4, 5, 6],
        "value": [1.0, 2.0, 4.0, 8.0, 10.0, 20.0],
    })).repartition(3)
    out = rolling_agg(ds, window=3, agg="sum").to_pandas().sort_values(
        ["user_id", "ts"]).reset_index(drop=True)
    # trailing 3-row sums: [1, 3, 7, 14] for user 1, [10, 30] for user 2 —
    # and alignment survives the groupby(key).rolling MultiIndex round-trip
    assert out["roll_sum"].tolist() == [1.0, 3.0, 7.0, 14.0, 10.0, 30.0]
    out2 = rolling_agg(ds, window=2, agg="max").to_pandas().sort_values(
        ["user_id", "ts"]).reset_index(drop=True)
    assert out2["roll_max"].tolist() == [1.0, 2.0, 4.0, 8.0, 10.0, 20.0]


def test_collect_per_key(ray_session):
    import ray.data as rd

    from engine.windows import collect_per_key

    ds = rd.from_arrow(pa.table({
        "user_id": [2, 1, 1, 1, 2],
        "ts": [7, 30, 10, 20, 5],
        "event_id": [50, 13, 11, 12, 51],
    })).repartition(3)
    out = collect_per_key(ds).to_pandas().sort_values("user_id") \
        .reset_index(drop=True)
    assert out["seq"].tolist() == ["11,12,13", "51,50"]
    assert out["n_events"].tolist() == [3, 2]


def test_new_operators_match_pandas_reference_randomized(ray_session):
    """Randomized (seeded) equivalence of the round-3 operators against
    independent pandas references, across parallelism: semi/anti partition
    the left side; top-k, rolling and collect match groupby references."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from engine.joins import hash_join
    from engine.stats import top_k_per_group
    from engine.windows import collect_per_key, rolling_agg

    rng = np.random.RandomState(11)
    for case in range(3):
        n = int(rng.randint(50, 400))
        left = pd.DataFrame({
            "k": rng.randint(0, 20, n),
            "v": rng.randint(0, 50, n),
            "lid": np.arange(n),
        })
        right = pd.DataFrame({"k": rng.choice(20, rng.randint(1, 15),
                                              replace=False)})
        lds = rd.from_pandas(left).repartition(int(rng.randint(1, 6)))
        rds = rd.from_pandas(right)

        semi = hash_join(lds, rds, on="k", how="semi").to_pandas()
        anti = hash_join(lds, rds, on="k", how="anti").to_pandas()
        in_r = left["k"].isin(set(right["k"]))
        assert sorted(semi["lid"]) == sorted(left.loc[in_r, "lid"])
        assert sorted(anti["lid"]) == sorted(left.loc[~in_r, "lid"])

        k = int(rng.randint(1, 4))
        top = top_k_per_group(lds, "k", "v", k, tiebreak_col="lid").to_pandas()
        ref = (left.sort_values(["k", "v", "lid"],
                                ascending=[True, False, True])
               .groupby("k").head(k))
        assert sorted(map(tuple, top[["k", "lid"]].values.tolist())) == \
            sorted(map(tuple, ref[["k", "lid"]].values.tolist()))

        ev = pd.DataFrame({
            "user_id": rng.randint(0, 10, n),
            "ts": rng.randint(0, 1000, n),
            "event_id": np.arange(n),
            "value": rng.randint(0, 9, n).astype(float),
        })
        eds = rd.from_pandas(ev).repartition(int(rng.randint(1, 6)))
        w = int(rng.randint(1, 5))
        roll = rolling_agg(eds, window=w, agg="sum").to_pandas() \
            .sort_values(["user_id", "ts", "event_id"])
        ref_r = ev.sort_values(["user_id", "ts", "event_id"])
        ref_roll = ref_r.groupby("user_id")["value"].transform(
            lambda s: s.rolling(w, min_periods=1).sum())
        assert np.allclose(roll["roll_sum"].to_numpy(), ref_roll.to_numpy())

        seq = collect_per_key(eds).to_pandas().set_index("user_id")["seq"]
        ref_seq = ref_r.groupby("user_id")["event_id"].agg(
            lambda s: ",".join(s.astype(str)))
        assert seq.sort_index().tolist() == ref_seq.sort_index().tolist()


def test_salted_join_equivalence_all_hows(ray_session, monkeypatch):
    """salted_join == hash_join (multiset) with a dominant hot key, for
    every supported join type, at several salt values."""
    import numpy as np
    import ray.data as rd

    import engine.joins
    from engine.joins import hash_join, salted_join

    monkeypatch.setattr(engine.joins, "exchange_width", lambda: 8)
    rng = np.random.RandomState(17)
    n = 2000
    # key 7 holds ~40% of the left side
    keys = np.where(rng.rand(n) < 0.4, 7, rng.randint(0, 50, n)).astype(
        np.int64)
    left = rd.from_arrow(pa.table({
        "k": keys, "lv": np.arange(n, dtype=np.int64)})).repartition(6)
    right = rd.from_arrow(pa.table({
        "k": np.arange(0, 40, dtype=np.int64),
        "rv": np.arange(100, 140, dtype=np.int64)})).repartition(3)

    for how in ("inner", "left", "semi", "anti"):
        ref = hash_join(left, right, on="k", how=how).to_pandas()
        ref_rows = sorted(map(tuple, ref.fillna(-1).values.tolist()))
        for salt in (2, 5):
            got = salted_join(left, right, on="k", hot_keys={7},
                              salt=salt, how=how).to_pandas()
            got_rows = sorted(map(tuple, got[ref.columns].fillna(-1)
                                  .values.tolist()))
            assert got_rows == ref_rows, (how, salt)


def test_salted_join_spreads_hot_key_buckets():
    """The plan property salting exists for: a hot key's left rows land in
    `salt` DISTINCT buckets, not one."""
    import numpy as np

    from engine.joins import _bucket_of_column

    key_col = pa.array(np.full(100, 7, dtype=np.int64))
    base = _bucket_of_column(key_col, 16).to_numpy()
    assert len(set(base)) == 1  # unsalted: all in one bucket
    s = (np.arange(100) % 4).astype(np.int8)
    mixed = (base.astype(np.int64) + s.astype(np.int64) * 40503) % 16
    assert len(set(mixed)) == 4  # salted: spread across `salt` buckets


def test_detect_hot_keys(ray_session):
    import numpy as np
    import ray.data as rd

    from engine.joins import detect_hot_keys

    keys = np.concatenate([np.full(500, 3), np.arange(100)]).astype(np.int64)
    ds = rd.from_arrow(pa.table({"k": keys})).repartition(4)
    assert detect_hot_keys(ds, "k", frac=0.1) == {3}
