"""Exchange width is read from the cluster, and no output depends on it.

``engine.joins.exchange_width`` is the one place a key-hash exchange gets
its bucket count. These tests pin its value on the session cluster and run
five exchange-heavy registry entries at widths 1 and 8 through the seam
(a width is read on the driver while the plan is built, so patching the
function reaches every operator), and the KLL quantile sketches, whose
answers depend on their merge tree, at the same two widths."""

from __future__ import annotations

import pytest

import __ray_entry__ as entry_mod
import engine.joins
from scripts.check_oracle import canon, to_pandas

SF_DIR = "/root/testdata/sf0.001"
WIDTH_QUERIES = ("redirects", "window_dedup", "global_rank", "cap_per_source",
                 "pack_sequences")


def test_exchange_width_is_cluster_cpus(ray_session):
    cpus = int(ray_session.cluster_resources()["CPU"])
    assert engine.joins.exchange_width() == max(1, min(32, cpus))


@pytest.mark.parametrize("name", WIDTH_QUERIES)
def test_query_output_is_width_invariant(name, ray_session, monkeypatch):
    fn = entry_mod.queries()[name]
    out = {}
    for width in (1, 8):
        monkeypatch.setattr(engine.joins, "exchange_width", lambda: width)
        out[width] = canon(to_pandas(fn(SF_DIR))).astype(str)
    assert len(out[1]) > 0
    assert out[1].equals(out[8]), name


def _normal_blocks(with_key: bool):
    """200,000 normal values in 40 blocks: far more than the sketch's k=64,
    so every bucket merge compacts."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(7)
    blocks = []
    for i in range(40):
        cols = {"val": rng.normal(size=5000)}
        if with_key:
            cols["key"] = (np.arange(5000) + i) % 3
        blocks.append(pa.table(cols))
    return rd.from_arrow(blocks)


def test_kll_quantiles_are_width_invariant(ray_session, monkeypatch):
    from engine.stats import kll_quantiles

    ds = _normal_blocks(with_key=False)
    out = {}
    for width in (1, 8):
        monkeypatch.setattr(engine.joins, "exchange_width", lambda: width)
        out[width] = kll_quantiles(ds, "val", [0.1, 0.5, 0.9], k=64)
    assert out[1] == out[8]


def test_kll_quantiles_by_key_are_width_invariant(ray_session, monkeypatch):
    from engine.stats import kll_quantiles_by_key

    ds = _normal_blocks(with_key=True)
    out = {}
    for width in (1, 8):
        monkeypatch.setattr(engine.joins, "exchange_width", lambda: width)
        out[width] = kll_quantiles_by_key(ds, "key", "val", [0.1, 0.5, 0.9],
                                          k=64).to_pylist()
    assert len(out[1]) == 9
    assert out[1] == out[8]
