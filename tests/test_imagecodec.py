"""Real stdlib image codecs (engine/imagecodec.py) + the decode stage."""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from engine.imagecodec import (PNG_SIG, _chunk, decode_bmp, decode_png,
                               decode_ppm, encode_bmp, encode_png, encode_ppm)
from engine.multimodal import _decode_image


RNG = np.random.RandomState(7)


@pytest.mark.parametrize("shape", [(1, 1, 3), (5, 7, 3), (16, 16, 3),
                                   (9, 3, 1), (8, 8, 4), (2, 300, 3)])
@pytest.mark.parametrize("row_filter", [0, 1, 2])
def test_png_roundtrip(shape, row_filter):
    img = RNG.randint(0, 256, shape, dtype=np.uint8)
    c = shape[2]
    want = (img if c == 3 else
            np.repeat(img, 3, axis=2) if c == 1 else img[:, :, :3])
    got = decode_png(encode_png(img, row_filter=row_filter))
    assert got.shape == want.shape and (got == want).all()


def _ref_filtered_png(img: np.ndarray, ftype: int) -> bytes:
    """Scalar reference PNG writer for filters 3 (Average) / 4 (Paeth)."""
    h, w, c = img.shape
    flat = img.reshape(h, w * c).astype(np.int16)
    body = np.zeros((h, w * c + 1), np.uint8)
    prev = np.zeros(w * c, np.int16)

    def paeth(a, b, cc):
        p = a + b - cc
        pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - cc)
        return a if pa_ <= pb and pa_ <= pc_ else (b if pb <= pc_ else cc)

    for y in range(h):
        body[y, 0] = ftype
        for i in range(w * c):
            left = flat[y, i - c] if i >= c else 0
            ul = prev[i - c] if i >= c else 0
            pred = ((left + prev[i]) >> 1) if ftype == 3 else \
                paeth(left, prev[i], ul)
            body[y, i + 1] = (flat[y, i] - pred) & 0xFF
        prev = flat[y]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (PNG_SIG + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(body.tobytes()))
            + _chunk(b"IEND", b""))


@pytest.mark.parametrize("ftype", [3, 4])
def test_png_average_and_paeth_filters(ftype):
    img = RNG.randint(0, 256, (6, 5, 3), dtype=np.uint8)
    assert (decode_png(_ref_filtered_png(img, ftype)) == img).all()


def test_png_crc_is_verified():
    png = bytearray(encode_png(np.zeros((4, 4, 3), np.uint8)))
    png[20] ^= 0xFF  # corrupt IHDR payload, CRC now mismatches
    with pytest.raises(ValueError, match="CRC"):
        decode_png(bytes(png))


@pytest.mark.parametrize("shape", [(1, 1), (5, 7), (16, 16), (3, 13)])
def test_bmp_ppm_roundtrip(shape):
    img = RNG.randint(0, 256, (*shape, 3), dtype=np.uint8)
    assert (decode_bmp(encode_bmp(img)) == img).all()
    assert (decode_ppm(encode_ppm(img)) == img).all()


def test_bmp_row_padding():
    # w=5 → 15-byte rows padded to 16; padding must not leak into pixels
    img = RNG.randint(0, 256, (3, 5, 3), dtype=np.uint8)
    assert (decode_bmp(encode_bmp(img)) == img).all()


@pytest.mark.parametrize("bad,decoder", [
    (b"", decode_png),
    (b"\x89PNG\r\n\x1a\nxx", decode_png),
    (b"BMxx", decode_bmp),
    (b"P6\n1 1\n255", decode_ppm),      # header only, no raster
    (b"P6\n0 4\n255\n", decode_ppm),
])
def test_error_paths_raise(bad, decoder):
    with pytest.raises(ValueError):
        decoder(bad)


def _bomb_idat() -> bytes:
    """A deflate stream of 64 MiB of zeros, about 65 KB long."""
    deflate = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    return b"".join(deflate.compress(zeros) for _ in range(64)) + \
        deflate.flush()


def _png_16x16(idat: bytes) -> bytes:
    ihdr = struct.pack(">IIBBBBB", 16, 16, 8, 2, 0, 0, 0)
    return (PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat)
            + _chunk(b"IEND", b""))


def test_png_bomb_inflates_no_further_than_declared():
    import tracemalloc

    idat = _bomb_idat()
    bomb = _png_16x16(idat)
    assert len(bomb) < 70_000
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="scanline payload size mismatch"):
            decode_png(bomb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    # the same stream cut short is still a truncated one, not an oversize,
    # in zlib's own words
    cut = idat[:len(idat) // 2]
    with pytest.raises(zlib.error) as want:
        zlib.decompress(cut)
    with pytest.raises(ValueError) as got:
        decode_png(_png_16x16(cut))
    assert str(got.value) == f"PNG IDAT inflate failed: {want.value}"


def test_decode_image_magic_routing():
    from engine.multimodal import MediaDecodeError

    img = RNG.randint(0, 256, (4, 6, 3), dtype=np.uint8)
    for enc in (encode_png(img), encode_bmp(img), encode_ppm(img)):
        assert (_decode_image(enc) == img).all()
    # a corrupt payload WITH a real magic raises (no silent stub fallback)
    with pytest.raises(MediaDecodeError):
        _decode_image(b"BM" + b"\x00" * 100)


def test_image_stats_stage(ray_session):
    import ray.data as rd

    from engine.imagecodec import encode_png
    from engine.multimodal import image_stats

    rows = []
    for i in range(30):
        img = RNG.randint(0, 256, (4 + i % 3, 5 + i % 4, 3), dtype=np.uint8)
        rows.append({"media_id": i, "payload": encode_png(img, i % 3),
                     "want": [int(img[:, :, c].sum()) for c in range(3)],
                     "w": img.shape[1], "h": img.shape[0]})
    ds = rd.from_items([{"media_id": r["media_id"], "payload": r["payload"]}
                        for r in rows])
    out = image_stats(ds, batch_size=7).to_pandas().set_index("media_id")
    for r in rows:
        row = out.loc[r["media_id"]]
        assert (row["width"], row["height"]) == (r["w"], r["h"])
        assert [row["sum_r"], row["sum_g"], row["sum_b"]] == r["want"]
        assert row["status"] == "ok"


def test_truncated_png_raises_valueerror_not_struct_error():
    png = encode_png(np.zeros((4, 4, 3), np.uint8))
    for cut in (12, 20, 29, len(png) - 2):
        with pytest.raises(ValueError):
            decode_png(png[:cut])


def test_gif_roundtrip():
    from engine.imagecodec import decode_gif, encode_gif

    for shape in [(1, 1), (7, 5), (16, 16), (13, 31)]:
        img = (RNG.randint(0, 6, (*shape, 3)) * 43).astype(np.uint8)
        out = decode_gif(encode_gif(img))
        assert out.shape == img.shape and (out == img).all()


def test_gif_256_color_roundtrip():
    from engine.imagecodec import decode_gif, encode_gif

    # exactly 256 distinct gray levels -> full 8-bit palette
    v = np.arange(256, dtype=np.uint8).reshape(16, 16)
    img = np.stack([v, v, v], axis=2)
    assert (decode_gif(encode_gif(img)) == img).all()
    with pytest.raises(ValueError):
        i = np.arange(289)
        img2 = np.stack([(i % 256).astype(np.uint8),
                         (i // 256).astype(np.uint8),
                         np.zeros(289, np.uint8)], axis=1).reshape(17, 17, 3)
        encode_gif(img2)  # 289 distinct colors


def test_gif_lzw_dictionary_codes():
    from engine.imagecodec import decode_gif

    # hand-built stream exercising the code==len(table) LZW branch:
    # m=2, codes [clear=4, 0, 6, end=5] at 3 bits -> pixels [0, 0, 0]
    data = bytes([4 | (0 << 3) | (6 << 6) & 0xFF, (6 << 6 | 5 << 9) >> 8])
    gif = (b"GIF89a"
           + b"\x03\x00\x01\x00"       # 3x1 screen
           + bytes([0x80, 0, 0])       # GCT, 2 entries
           + bytes([10, 20, 30, 40, 50, 60])
           + b"\x2c" + b"\x00\x00\x00\x00" + b"\x03\x00\x01\x00" + b"\x00"
           + bytes([2])                # LZW min code size
           + bytes([len(data)]) + data + b"\x00\x3b")
    out = decode_gif(gif)
    assert out.shape == (1, 3, 3)
    assert (out == np.array([[[10, 20, 30]] * 3], np.uint8)).all()


def test_gif_error_paths():
    from engine.imagecodec import decode_gif, encode_gif

    with pytest.raises(ValueError):
        decode_gif(b"GIF89a")                    # truncated
    with pytest.raises(ValueError):
        decode_gif(b"NOTGIF" + b"\x00" * 20)     # bad signature
    good = encode_gif(np.zeros((4, 4, 3), np.uint8))
    with pytest.raises(ValueError):
        decode_gif(good[:len(good) - 6])         # LZW stream cut short


def test_gif_interlaced_decode():
    from engine.imagecodec import (_gif_interlace_order, decode_gif,
                                   encode_gif)

    rng = np.random.RandomState(3)
    for h in (1, 2, 5, 11, 16):
        img = (rng.randint(0, 5, (h, 7, 3)) * 60).astype(np.uint8)
        order = _gif_interlace_order(h)
        assert sorted(order.tolist()) == list(range(h))
        b = bytearray(encode_gif(img[order]))  # rows in interlace order
        i = bytes(b).index(0x2C, 6)
        b[i + 9] |= 0x40                       # set the interlace flag
        assert (decode_gif(bytes(b)) == img).all()


def test_decode_image_routes_gif():
    from engine.imagecodec import encode_gif
    from engine.multimodal import _decode_image

    img = (RNG.randint(0, 4, (6, 6, 3)) * 80).astype(np.uint8)
    assert (_decode_image(encode_gif(img)) == img).all()


def test_tiff_roundtrip_and_routing():
    from engine.imagecodec import decode_tiff, encode_tiff
    from engine.multimodal import _decode_image

    for be in (False, True):
        img = RNG.randint(0, 256, (7, 5, 3)).astype(np.uint8)
        assert (decode_tiff(encode_tiff(img, big_endian=be)) == img).all()
        assert (_decode_image(encode_tiff(img, big_endian=be)) == img).all()


def test_tiff_error_paths():
    from engine.imagecodec import decode_tiff, encode_tiff

    with pytest.raises(ValueError):
        decode_tiff(b"II*\x00")                      # truncated
    with pytest.raises(ValueError):
        decode_tiff(b"ABCD" + b"\x00" * 20)          # bad signature
    good = encode_tiff(np.zeros((3, 3, 3), np.uint8))
    with pytest.raises(ValueError):
        decode_tiff(good[:60])                        # IFD cut short


def test_tiff_compressed_matrix():
    """Round-5 codecs: PackBits (32773) and TIFF-LZW (5), predictor 1/2,
    single- and multi-strip, both byte orders — full matrix roundtrip."""
    from engine.imagecodec import decode_tiff, encode_tiff
    from engine.multimodal import _decode_image

    for be in (False, True):
        for comp in (5, 32773):
            for pred in (1, 2):
                for rps in (0, 3):
                    img = RNG.randint(0, 256, (11, 13, 3)).astype(np.uint8)
                    enc = encode_tiff(img, big_endian=be, compression=comp,
                                      predictor=pred, rows_per_strip=rps)
                    assert (decode_tiff(enc) == img).all(), \
                        (be, comp, pred, rps)
    # magic routing covers the compressed variants too
    img = RNG.randint(0, 256, (8, 9, 3)).astype(np.uint8)
    assert (_decode_image(encode_tiff(img, compression=32773)) == img).all()
    assert (_decode_image(encode_tiff(
        img, big_endian=True, compression=5, predictor=2)) == img).all()


def test_tiff_lzw_long_strip_roundtrip():
    """Strips long enough to fill the 12-bit LZW table (one clear code or
    more per strip) still roundtrip through encode_tiff/decode_tiff, for
    both byte orders, both predictors, one strip and many."""
    from engine.imagecodec import decode_tiff, encode_tiff

    img = RNG.randint(0, 256, (96, 96, 3)).astype(np.uint8)  # 27 KiB
    for be in (False, True):
        for pred in (1, 2):
            for rps in (0, 40):
                enc = encode_tiff(img, big_endian=be, compression=5,
                                  predictor=pred, rows_per_strip=rps)
                assert (decode_tiff(enc) == img).all(), (be, pred, rps)
    assert (_decode_image(encode_tiff(img, compression=5)) == img).all()


def test_packbits_spec_vector():
    """The classic PackBits example from the TIFF 6.0 spec (Apple variant):
    FE AA | 02 80 00 2A | FD AA | 03 80 00 2A 22 | F7 AA."""
    from engine.imagecodec import _packbits_decode, _packbits_encode

    spec = bytes.fromhex("FEAA0280002AFDAA0380002A22F7AA")
    expect = bytes.fromhex(
        "AAAAAA80002AAAAAAAAA80002A22AAAAAAAAAAAAAAAAAAAA")
    assert _packbits_decode(spec, limit=1000) == expect
    # no-op byte (0x80) is skipped
    assert _packbits_decode(b"\x80\x00A", limit=10) == b"A"
    with pytest.raises(ValueError):
        _packbits_decode(b"\x05AB", limit=100)       # truncated literal
    with pytest.raises(ValueError):
        _packbits_decode(b"\xfe", limit=100)         # truncated repeat
    with pytest.raises(ValueError):
        _packbits_decode(b"\xc0" + b"A", limit=10)   # output over cap
    # encoder twin roundtrips structured and random data
    for n in (0, 1, 7, 1000, 40000):
        for data in (RNG.randint(0, 4, n).astype(np.uint8).tobytes(),
                     RNG.randint(0, 256, n).astype(np.uint8).tobytes()):
            assert _packbits_decode(_packbits_encode(data), limit=10**8) \
                == data


def test_tiff_lzw_encoder_vs_pdf_decoder():
    """The LZW encoder behind encode_tiff(compression=5) must drive the
    shared pdfx LZW decoder (same MSB-first early-change variant) through
    width changes (>256 distinct sequences), table clears (>4093 entries ->
    long random input), and the KwKwK case (runs)."""
    from engine.fixtures import lzw_encode
    from engine.pdfx.objects import _lzw_decode

    for n in (0, 1, 5, 300, 5000, 70000):
        for data in (RNG.randint(0, 256, n).astype(np.uint8).tobytes(),
                     (b"abc" * (n // 3 + 1))[:n],
                     bytes(n)):
            assert _lzw_decode(lzw_encode(data), limit=10**8) == data
