"""Multimodal plumbing tests: schema, error channel.

Decode is stubbed (no codec libs in the container — engine/multimodal.py);
the Ray-side plumbing is real and exercised here.
"""

from __future__ import annotations

import numpy as np

from engine import multimodal as mm


def test_decode_stubs_deterministic():
    img = mm._decode_image(b"payload-bytes")
    img2 = mm._decode_image(b"payload-bytes")
    assert (img == img2).all()
    assert img.ndim == 3 and img.shape[2] == 3 and img.dtype == np.uint8


def test_feature_kernels_shape():
    img = mm._decode_image(b"x" * 100)
    f = mm.image_features(img)
    assert f.shape == (mm.FEATURE_DIM,)
    pcm = mm._decode_audio(b"y" * 100)
    fa = mm.audio_features(pcm)
    assert fa.shape == (mm.FEATURE_DIM,)


def test_media_features_batch_is_batch_size_independent():
    """The stage is a plain batch function: called without Ray, its
    output must not depend on how the table is cut into batches."""
    import pyarrow as pa

    table = mm.gen_media_table(20, seed=8)
    whole = mm.media_features_batch(table)
    parts = pa.concat_tables([
        mm.media_features_batch(table.slice(0, 7), num_video_frames=4),
        mm.media_features_batch(table.slice(7)),
    ])
    assert whole.equals(parts)
    assert whole["media_id"].to_pylist() == list(range(20))
    status = whole["status"].to_pylist()
    assert status[0] == "failed" and status[17] == "failed"
    assert whole["features"][0].as_py() == [0.0] * mm.FEATURE_DIM
    assert status.count("ok") == 18


def test_media_pipeline(ray_session):
    import ray.data as rd

    table = mm.gen_media_table(30, seed=5)
    ds = rd.from_arrow(table)
    out = mm.media_features(ds, batch_size=8).take_all()
    assert len(out) == 30
    by_id = {r["media_id"]: r for r in out}
    # empty payloads (every 17th row) land in the error channel, others ok
    assert by_id[0]["status"] == "failed"
    assert "empty" in by_id[0]["error"]
    assert by_id[1]["status"] == "ok"
    assert len(by_id[1]["features"]) == mm.FEATURE_DIM
    # determinism: same payload → same features
    out2 = mm.media_features(rd.from_arrow(table), batch_size=4).take_all()
    by_id2 = {r["media_id"]: r for r in out2}
    for i in (1, 2, 3):
        assert by_id[i]["features"] == by_id2[i]["features"]
        assert by_id[i]["sha256"] == by_id2[i]["sha256"]


def test_features_compose_with_similarity(ray_session):
    import ray.data as rd
    from engine import similarity

    table = mm.gen_media_table(31, seed=6)
    feats = mm.media_features(rd.from_arrow(table), batch_size=8)
    ok = feats.map_batches(
        lambda t: t.filter(
            __import__("pyarrow").compute.equal(t["status"], "ok")
        ),
        batch_format="pyarrow",
    ).materialize()
    row = ok.take(1)[0]
    out = similarity.knn_brute(ok, np.array([row["features"]]), k=3,
                               id_col="media_id", vec_col="features")
    assert out["vec_id"].iloc[0] == row["media_id"]  # self-match first


def test_video_frames_real_avi():
    import numpy as np

    from engine.multimodal import _sample_video_frames
    from engine.videocodec import encode_avi

    rng = np.random.RandomState(11)
    frames = [rng.randint(0, 256, (8, 6, 3)).astype(np.uint8)
              for _ in range(10)]
    payload = encode_avi(frames)
    got = _sample_video_frames(payload, num_frames=4)
    # evenly sampled: indices 0, 2, 5, 7
    for g, idx in zip(got, [0, 2, 5, 7]):
        assert (g == frames[idx]).all()
