"""REAL FLAC decode on the stdlib + numpy.

FLAC (xiph.org, RFC 9639) is the one widely-crawled lossless audio format
whose bitstream is implementable exactly with stdlib integer math: MSB-first
bit packing, UTF-8-style frame numbers, CRC-8/CRC-16 framing, fixed and LPC
integer predictors, and Rice-coded residuals. mp3/ogg/aac stay behind the
soundfile deployment gate in engine/multimodal.py.

Supported decode matrix:
- STREAMINFO + skipped metadata blocks (padding, vorbis comment, seektable);
- frame headers: all block-size and sample-rate codes, fixed and variable
  blocking, CRC-8 verified; frame CRC-16 verified;
- subframes: CONSTANT, VERBATIM, FIXED orders 0-4, LPC orders 1-32,
  wasted-bits shift;
- residuals: RICE (4-bit params) and RICE2 (5-bit), escape partitions,
  any partition order;
- channels: 1-8 independent, left/side, right/side, mid/side (decoded
  sample-exact, downmixed to mono by the same exact integer sum as WAV).

The fixture ENCODER writes real streams through the same framing (choose
constant / verbatim / fixed / LPC per block, mono or any stereo mode), so
every decode path is exercised end-to-end in-sandbox.
"""

from __future__ import annotations

import struct

import numpy as np

# --------------------------------------------------------------------------
# MSB-first bit I/O


class BitReaderMSB:
    def __init__(self, data: bytes, bitpos: int = 0) -> None:
        self.data = data
        self.bitpos = bitpos

    def read(self, n: int) -> int:
        v = 0
        pos = self.bitpos
        data = self.data
        for i in range(n):
            byte_i = (pos + i) >> 3
            if byte_i >= len(data):
                raise ValueError("FLAC bitstream truncated")
            v = (v << 1) | ((data[byte_i] >> (7 - ((pos + i) & 7))) & 1)
        self.bitpos = pos + n
        return v

    def read_signed(self, n: int) -> int:
        v = self.read(n)
        return v - (1 << n) if v >> (n - 1) else v

    def read_unary(self) -> int:
        q = 0
        while self.read(1) == 0:
            q += 1
        return q

    def align(self) -> None:
        self.bitpos = (self.bitpos + 7) & ~7


class BitWriterMSB:
    def __init__(self) -> None:
        self.bits: list[int] = []

    def write(self, value: int, n: int) -> None:
        for i in range(n - 1, -1, -1):
            self.bits.append((value >> i) & 1)

    def write_signed(self, value: int, n: int) -> None:
        self.write(value & ((1 << n) - 1), n)

    def write_unary(self, q: int) -> None:
        self.bits.extend([0] * q)
        self.bits.append(1)

    def align(self) -> None:
        while len(self.bits) & 7:
            self.bits.append(0)

    def tobytes(self) -> bytes:
        assert len(self.bits) % 8 == 0
        out = bytearray(len(self.bits) // 8)
        for i, b in enumerate(self.bits):
            out[i >> 3] |= b << (7 - (i & 7))
        return bytes(out)


# --------------------------------------------------------------------------
# CRCs (FLAC framing: CRC-8 poly 0x07, CRC-16 poly 0x8005, both init 0)

def _crc_table(poly: int, width: int) -> "list[int]":
    top = 1 << (width - 1)
    mask = (1 << width) - 1
    table = []
    for byte in range(256):
        crc = byte << (width - 8)
        for _ in range(8):
            crc = ((crc << 1) ^ poly) if crc & top else (crc << 1)
        table.append(crc & mask)
    return table


_CRC8_TABLE = _crc_table(0x07, 8)
_CRC16_TABLE = _crc_table(0x8005, 16)


def crc8(data: bytes) -> int:
    crc = 0
    for b in data:
        crc = _CRC8_TABLE[crc ^ b]
    return crc


def crc16(data: bytes) -> int:
    crc = 0
    for b in data:
        crc = _CRC16_TABLE[((crc >> 8) ^ b) & 0xFF] ^ ((crc << 8) & 0xFFFF)
    return crc


# --------------------------------------------------------------------------
# frame-header coded values

_BLOCK_SIZE_CODES = {1: 192, 2: 576, 3: 1152, 4: 2304, 5: 4608,
                     8: 256, 9: 512, 10: 1024, 11: 2048, 12: 4096,
                     13: 8192, 14: 16384, 15: 32768}
_SAMPLE_RATES = {1: 88200, 2: 176400, 3: 192000, 4: 8000, 5: 16000,
                 6: 22050, 7: 24000, 8: 32000, 9: 44100, 10: 48000,
                 11: 96000}
_FIXED_COEFS = {0: [], 1: [1], 2: [2, -1], 3: [3, -3, 1], 4: [4, -6, 4, -1]}


def _read_utf8_number(br: BitReaderMSB) -> int:
    first = br.read(8)
    if first < 0x80:
        return first
    n = 0
    probe = first
    while probe & 0x40:
        n += 1
        probe <<= 1
    if n < 1 or n > 6:
        raise ValueError("FLAC: bad UTF-8 coded number")
    v = first & (0x3F >> n)
    for _ in range(n):
        cont = br.read(8)
        if cont & 0xC0 != 0x80:
            raise ValueError("FLAC: bad UTF-8 continuation")
        v = (v << 6) | (cont & 0x3F)
    return v


def _write_utf8_number(bw: BitWriterMSB, v: int) -> None:
    if v < 0x80:
        bw.write(v, 8)
        return
    payload = []
    nbits = v.bit_length()
    n = 1
    while nbits > 6 - n + 6 * n:  # capacity of an n-continuation sequence
        n += 1
    for i in range(n):
        payload.append(0x80 | ((v >> (6 * (n - 1 - i))) & 0x3F))
    lead_mask = (0xFF << (7 - n)) & 0xFF
    bw.write(lead_mask | (v >> (6 * n)), 8)
    for b in payload:
        bw.write(b, 8)


# --------------------------------------------------------------------------
# residual coding

def _read_residual(br: BitReaderMSB, blocksize: int,
                   predictor_order: int) -> "list[int]":
    method = br.read(2)
    if method > 1:
        raise ValueError("FLAC: reserved residual method")
    param_bits = 4 + method
    escape = (1 << param_bits) - 1
    porder = br.read(4)
    if blocksize % (1 << porder):
        raise ValueError("FLAC: bad partition order")
    out: "list[int]" = []
    psize = blocksize >> porder
    for part in range(1 << porder):
        n = psize - (predictor_order if part == 0 else 0)
        if n < 0:
            raise ValueError("FLAC: partition smaller than order")
        param = br.read(param_bits)
        if param == escape:
            raw_bits = br.read(5)
            for _ in range(n):
                out.append(br.read_signed(raw_bits) if raw_bits else 0)
        else:
            for _ in range(n):
                q = br.read_unary()
                u = (q << param) | (br.read(param) if param else 0)
                out.append((u >> 1) ^ -(u & 1))
    return out


def _write_residual(bw: BitWriterMSB, res: "list[int]", blocksize: int,
                    predictor_order: int, param: int = 3,
                    porder: int = 0, rice2: bool = False,
                    escape_raw_bits: int = 0) -> None:
    method = 1 if rice2 else 0
    param_bits = 4 + method
    bw.write(method, 2)
    bw.write(porder, 4)
    psize = blocksize >> porder
    idx = 0
    for part in range(1 << porder):
        n = psize - (predictor_order if part == 0 else 0)
        if escape_raw_bits:
            bw.write((1 << param_bits) - 1, param_bits)
            bw.write(escape_raw_bits, 5)
            for v in res[idx:idx + n]:
                bw.write_signed(v, escape_raw_bits)
        else:
            bw.write(param, param_bits)
            for v in res[idx:idx + n]:
                u = (v << 1) if v >= 0 else ((-v << 1) - 1)
                bw.write_unary(u >> param)
                if param:
                    bw.write(u & ((1 << param) - 1), param)
        idx += n


# --------------------------------------------------------------------------
# decode

def decode_flac(payload: bytes) -> "tuple[np.ndarray, int]":
    """FLAC bytes → (float32 mono PCM in [-1, 1), sample_rate); multi
    channel downmixed by exact integer sum like decode_wav."""
    if payload[:4] != b"fLaC":
        raise ValueError("not a FLAC stream")
    pos = 4
    info = None
    while True:
        if pos + 4 > len(payload):
            raise ValueError("FLAC: truncated metadata")
        last = payload[pos] >> 7
        btype = payload[pos] & 0x7F
        (size,) = struct.unpack(">I", b"\x00" + payload[pos + 1:pos + 4])
        body = payload[pos + 4:pos + 4 + size]
        if len(body) != size:
            raise ValueError("FLAC: truncated metadata block")
        if btype == 0:
            br = BitReaderMSB(body)
            br.read(80)  # min/max blocksize (16+16), min/max framesize (24+24)
            rate = br.read(20)
            channels = br.read(3) + 1
            bps = br.read(5) + 1
            total = br.read(36)
            info = (rate, channels, bps, total)
        elif btype == 127:
            raise ValueError("FLAC: invalid metadata type")
        pos += 4 + size
        if last:
            break
    if info is None:
        raise ValueError("FLAC: missing STREAMINFO")
    rate, channels, bps, total = info

    chans_acc: "list[np.ndarray]" = []
    n_done = 0
    while pos < len(payload) and (total == 0 or n_done < total):
        frame, pos, got = _decode_frame(payload, pos, info)
        chans_acc.append(frame)
        n_done += got
    if not chans_acc:
        raise ValueError("FLAC: no frames")
    pcm = np.concatenate(chans_acc, axis=1)  # (channels, samples)
    if total:
        pcm = pcm[:, :total]
    mono = pcm.astype(np.float64).sum(axis=0)
    # normalize like decode_wav: exact integer sum / (channels * 2^(bps-1))
    mono /= pcm.shape[0] * float(1 << (bps - 1))
    return mono.astype(np.float32), rate


def _decode_frame(payload: bytes, pos: int,
                  info: tuple) -> "tuple[np.ndarray, int, int]":
    rate_si, channels_si, bps_si, _ = info
    hdr_start = pos
    br = BitReaderMSB(payload, pos * 8)
    if br.read(14) != 0b11111111111110:
        raise ValueError("FLAC: lost frame sync")
    br.read(1)  # reserved
    br.read(1)  # blocking strategy
    bs_code = br.read(4)
    sr_code = br.read(4)
    chan_code = br.read(4)
    ss_code = br.read(3)
    br.read(1)  # reserved
    _read_utf8_number(br)
    if bs_code == 0:
        raise ValueError("FLAC: reserved block size")
    if bs_code == 6:
        blocksize = br.read(8) + 1
    elif bs_code == 7:
        blocksize = br.read(16) + 1
    else:
        blocksize = _BLOCK_SIZE_CODES[bs_code]
    if sr_code == 12:
        br.read(8)
    elif sr_code in (13, 14):
        br.read(16)
    elif sr_code == 15:
        raise ValueError("FLAC: invalid sample-rate code")
    bps = {0: bps_si, 1: 8, 2: 12, 4: 16, 5: 20, 6: 24,
           7: 32}.get(ss_code)
    if bps is None:
        raise ValueError("FLAC: reserved sample size")
    br.align()
    hdr_bytes = payload[hdr_start:br.bitpos // 8]
    if crc8(hdr_bytes) != br.read(8):
        raise ValueError("FLAC: frame header CRC-8 mismatch")

    if chan_code < 8:
        n_chan = chan_code + 1
        side = None
    else:
        n_chan = 2
        side = chan_code  # 8 l/s, 9 r/s, 10 m/s
        if chan_code > 10:
            raise ValueError("FLAC: reserved channel assignment")
    subframes = []
    for c in range(n_chan):
        sub_bps = bps
        if side == 8 and c == 1 or side == 9 and c == 0 \
                or side == 10 and c == 1:
            sub_bps += 1  # the side channel carries one extra bit
        subframes.append(_decode_subframe(br, blocksize, sub_bps))
    br.align()
    frame_bytes = payload[hdr_start:br.bitpos // 8]
    if crc16(frame_bytes) != br.read(16):
        raise ValueError("FLAC: frame CRC-16 mismatch")

    if side is None:
        chans = np.array(subframes, dtype=np.int64)
    else:
        a = np.asarray(subframes[0], dtype=np.int64)
        b = np.asarray(subframes[1], dtype=np.int64)
        if side == 8:      # left/side: right = left - side
            chans = np.stack([a, a - b])
        elif side == 9:    # right/side: left = right + side
            chans = np.stack([b + a, b])
        else:              # mid/side
            mid = (a << 1) | (b & 1)
            chans = np.stack([(mid + b) >> 1, (mid - b) >> 1])
    return chans, br.bitpos // 8, blocksize


def _decode_subframe(br: BitReaderMSB, blocksize: int,
                     bps: int) -> "list[int]":
    if br.read(1):
        raise ValueError("FLAC: subframe padding bit set")
    stype = br.read(6)
    wasted = 0
    if br.read(1):
        wasted = 1 + br.read_unary()
    eff_bps = bps - wasted
    if stype == 0:        # CONSTANT
        v = br.read_signed(eff_bps)
        out = [v] * blocksize
    elif stype == 1:      # VERBATIM
        out = [br.read_signed(eff_bps) for _ in range(blocksize)]
    elif 8 <= stype <= 12:  # FIXED
        order = stype - 8
        out = [br.read_signed(eff_bps) for _ in range(order)]
        res = _read_residual(br, blocksize, order)
        coefs = _FIXED_COEFS[order]
        for i, r in enumerate(res):
            pred = sum(c * out[order + i - 1 - j]
                       for j, c in enumerate(coefs))
            out.append(pred + r)
    elif stype >= 32:     # LPC
        order = (stype & 0x1F) + 1
        out = [br.read_signed(eff_bps) for _ in range(order)]
        precision = br.read(4) + 1
        if precision == 16:
            raise ValueError("FLAC: invalid LPC precision")
        shift = br.read_signed(5)
        if shift < 0:
            raise ValueError("FLAC: negative LPC shift")
        coefs = [br.read_signed(precision) for _ in range(order)]
        res = _read_residual(br, blocksize, order)
        for i, r in enumerate(res):
            pred = sum(c * out[order + i - 1 - j]
                       for j, c in enumerate(coefs)) >> shift
            out.append(pred + r)
    else:
        raise ValueError(f"FLAC: reserved subframe type {stype}")
    if wasted:
        out = [v << wasted for v in out]
    return out


# --------------------------------------------------------------------------
# fixture encoder

def _write_wasted(bw: BitWriterMSB, wasted: int) -> None:
    if wasted:
        bw.write(1, 1)
        bw.write(1, wasted)  # unary(wasted - 1): zeros then the 1 bit
    else:
        bw.write(0, 1)


def _encode_subframe(bw: BitWriterMSB, samples: "list[int]", bps: int,
                     mode: str, order: int = 2, rice_param: int = 3,
                     porder: int = 0, lpc_coefs: "list[int] | None" = None,
                     lpc_shift: int = 0, rice2: bool = False,
                     escape_raw_bits: int = 0, wasted: int = 0) -> None:
    bw.write(0, 1)  # padding
    if wasted:
        if any(v & ((1 << wasted) - 1) for v in samples):
            raise ValueError("samples not divisible by 2^wasted")
        samples = [v >> wasted for v in samples]
        bps -= wasted
    n = len(samples)
    if mode == "constant":
        bw.write(0, 6)
        _write_wasted(bw, wasted)
        bw.write_signed(samples[0], bps)
        return
    if mode == "verbatim":
        bw.write(1, 6)
        _write_wasted(bw, wasted)
        for v in samples:
            bw.write_signed(v, bps)
        return
    if mode == "fixed":
        order = min(order, n)  # a short trailing block holds n warm-up samples
        bw.write(8 + order, 6)
        _write_wasted(bw, wasted)
        for v in samples[:order]:
            bw.write_signed(v, bps)
        coefs = _FIXED_COEFS[order]
        res = [samples[i] - sum(c * samples[i - 1 - j]
                                for j, c in enumerate(coefs))
               for i in range(order, n)]
        _write_residual(bw, res, n, order, rice_param, porder, rice2,
                        escape_raw_bits)
        return
    if mode == "lpc":
        coefs = lpc_coefs
        order = len(coefs)
        bw.write(32 + order - 1, 6)
        _write_wasted(bw, wasted)
        for v in samples[:order]:
            bw.write_signed(v, bps)
        precision = max(max(abs(c) for c in coefs).bit_length() + 1, 2)
        bw.write(precision - 1, 4)
        bw.write_signed(lpc_shift, 5)
        for c in coefs:
            bw.write_signed(c, precision)
        res = [samples[i] - (sum(c * samples[i - 1 - j]
                                 for j, c in enumerate(coefs)) >> lpc_shift)
               for i in range(order, n)]
        _write_residual(bw, res, n, order, rice_param, porder, rice2,
                        escape_raw_bits)
        return
    raise ValueError(f"unknown subframe mode {mode}")


def encode_flac(channels: "list[np.ndarray]", rate: int = 16000,
                bps: int = 16, blocksize: int = 256, mode: str = "fixed",
                stereo_mode: "str | None" = None,
                **sub_kwargs) -> bytes:
    """Channel sample arrays → FLAC bytes (fixture/test writer).

    mode: constant | verbatim | fixed | lpc (per-subframe coding);
    stereo_mode: None (independent) | left_side | right_side | mid_side.
    """
    chans = [np.asarray(c, dtype=np.int64) for c in channels]
    total = len(chans[0])
    # STREAMINFO
    si = BitWriterMSB()
    si.write(blocksize, 16)
    si.write(blocksize, 16)
    si.write(0, 24)
    si.write(0, 24)
    si.write(rate, 20)
    si.write(len(chans) - 1, 3)
    si.write(bps - 1, 5)
    si.write(total, 36)
    body = si.tobytes() + b"\x00" * 16  # zero MD5 (unset)
    out = bytearray(b"fLaC")
    out += bytes([0x80]) + struct.pack(">I", len(body))[1:] + body

    frame_no = 0
    for start in range(0, total, blocksize):
        n = min(blocksize, total - start)
        hdr = BitWriterMSB()
        hdr.write(0b11111111111110, 14)
        hdr.write(0, 1)
        hdr.write(0, 1)  # fixed blocking
        hdr.write(7, 4)  # 16-bit blocksize-1 at end
        hdr.write(13, 4)  # 16-bit Hz rate at end
        if stereo_mode is None:
            hdr.write(len(chans) - 1, 4)
        else:
            hdr.write({"left_side": 8, "right_side": 9,
                       "mid_side": 10}[stereo_mode], 4)
        hdr.write({8: 1, 12: 2, 16: 4, 20: 5, 24: 6}[bps], 3)
        hdr.write(0, 1)
        _write_utf8_number(hdr, frame_no)
        hdr.write(n - 1, 16)
        hdr.write(rate, 16)
        hdr_bytes = hdr.tobytes()
        frame = BitWriterMSB()
        blocks = [c[start:start + n] for c in chans]
        if stereo_mode is not None:
            l, r = blocks
            if stereo_mode == "left_side":
                subs = [(list(l), bps), (list(l - r), bps + 1)]
            elif stereo_mode == "right_side":
                subs = [(list(l - r), bps + 1), (list(r), bps)]
            else:
                subs = [(list((l + r) >> 1), bps), (list(l - r), bps + 1)]
        else:
            subs = [(list(b), bps) for b in blocks]
        for samples, sub_bps in subs:
            _encode_subframe(frame, samples, sub_bps, mode, **sub_kwargs)
        frame.align()
        # CRC-8 covers the header bytes and sits right after them
        frame_bytes = (hdr_bytes + bytes([crc8(hdr_bytes)])
                       + frame.tobytes())
        frame_bytes += struct.pack(">H", crc16(frame_bytes))
        out += frame_bytes
        frame_no += 1
    return bytes(out)
