"""Property-based fuzz for the round-5 codecs (WebP-VP8L, FLAC, G.711,
IMA-ADPCM): random inputs roundtrip sample/pixel-exact through the real
encoders/decoders, and corrupt payloads raise rather than mis-decode."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2 ** 32 - 1),
       st.booleans())
def test_vp8l_roundtrip_random(h, w, seed, subtract_green):
    from engine.webpcodec import decode_webp, encode_webp_lossless

    img = np.random.RandomState(seed % (2 ** 31)).randint(
        0, 256, (h, w, 3)).astype(np.uint8)
    out = decode_webp(encode_webp_lossless(img, subtract_green))
    assert out.shape == img.shape and (out == img).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 1200), st.integers(0, 2 ** 31 - 1),
       st.sampled_from(["constant", "verbatim", "fixed"]),
       st.integers(0, 4), st.integers(0, 10))
# a trailing block (257 % 256 = 1 sample) shorter than the fixed order
@example(n=257, seed=0, mode="fixed", order=4, rice_param=3)
def test_flac_roundtrip_random(n, seed, mode, order, rice_param):
    from engine.flaccodec import decode_flac, encode_flac

    rng = np.random.RandomState(seed)
    s = rng.randint(-(2 ** 14), 2 ** 14, n).astype(np.int64)
    if mode == "constant":
        s[:] = s[0]
    pcm, _ = decode_flac(encode_flac(
        [s], blocksize=max(16, min(n, 256)), mode=mode, order=order,
        rice_param=rice_param))
    got = np.round(pcm.astype(np.float64) * 32768).astype(np.int64)
    assert len(got) == n and (got == s).all()


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=1, max_size=400),
       st.sampled_from(["ulaw", "alaw"]))
def test_g711_roundtrip_random(enc, law):
    from engine.audiocodec import _ALAW, _ULAW, decode_wav, encode_wav_g711

    table = _ALAW if law == "alaw" else _ULAW
    pcm, _ = decode_wav(encode_wav_g711(enc, law))
    got = np.round(pcm.astype(np.float64) * 32768).astype(int)
    assert (got == table[np.frombuffer(enc, np.uint8)]).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(-32768, 32767), st.integers(0, 88),
       st.lists(st.integers(0, 15), min_size=8, max_size=64)
       .filter(lambda l: len(l) % 8 == 0))
def test_adpcm_roundtrip_random(pred, idx, nibs):
    from engine.audiocodec import (_IMA_INDEX, _IMA_STEPS, decode_wav,
                                   encode_wav_adpcm)

    pcm, _ = decode_wav(encode_wav_adpcm(
        pred, idx, np.array(nibs, dtype=np.uint8)))
    got = list(np.round(pcm.astype(np.float64) * 32768).astype(int))
    want, p, ix = [pred], pred, idx
    for d in nibs:
        step = int(_IMA_STEPS[ix])
        diff = (step >> 3) + (step >> 2 if d & 1 else 0) \
            + (step >> 1 if d & 2 else 0) + (step if d & 4 else 0)
        p = max(-32768, min(32767, p - diff if d & 8 else p + diff))
        ix = max(0, min(88, ix + int(_IMA_INDEX[d & 7])))
        want.append(p)
    assert got == want


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_codecs_garbage_is_valueerror_or_clean(junk):
    """Garbage behind each magic either raises ValueError (the media
    stages' error-channel contract) or decodes cleanly — never an
    IndexError/struct.error/OverflowError escape."""
    from engine.audiocodec import decode_wav
    from engine.flaccodec import decode_flac
    from engine.webpcodec import decode_webp

    for fn, magic in ((decode_webp, b"RIFF\x80\x00\x00\x00WEBPVP8L"),
                      (decode_flac, b"fLaC"),
                      (decode_wav, b"RIFF\x80\x00\x00\x00WAVE")):
        try:
            fn(magic + junk)
        except ValueError:
            pass
