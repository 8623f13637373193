"""Exchange width is read from the cluster, and no output depends on it.

``engine.joins.exchange_width`` is the one place a key-hash exchange gets
its bucket count. These tests pin its value on the session cluster and run
five exchange-heavy registry entries at widths 1 and 8 through the seam
(a width is read on the driver while the plan is built, so patching the
function reaches every operator)."""

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
