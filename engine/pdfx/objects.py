"""P1 — PDF object/stream parser (SURVEY.md §2.2 P1).

A small recursive-descent parser over the COS object syntax: dictionaries,
arrays, names, numbers, literal/hex strings, indirect references, streams.
No xref processing: objects are discovered by scanning for ``N G obj`` —
simpler, and robust to the truncated/garbage fixtures (FIXTURES.md F1d),
while equivalent for the well-formed subset our generator emits.
"""

from __future__ import annotations

import re
import zlib

import numpy as np


class PdfError(ValueError):
    pass


class PdfNeedsOcr(PdfError):
    """Image-only PDF: no text operators, but image XObjects present — the
    scanned-document shape the reference handles by installing tesseract
    (reference Dockerfile OCR deps). The engine routes these to a
    status='needs_ocr' channel instead of silently emitting empty text."""


class Ref:
    __slots__ = ("num",)

    def __init__(self, num: int):
        self.num = num

    def __repr__(self):
        return f"Ref({self.num})"


class Name(str):
    """A /Name token (subclass of str so dict keys compare naturally)."""


# Decompression bound: a crafted ≤50 MiB FlateDecode stream can expand
# ~1000× and OOM the worker, poisoning the whole batch — the SIGALRM row
# timeout bounds time, not memory. 4× MAX_FILE_SIZE is far above any
# legitimate page content stream.
from engine.schema import MAX_FILE_SIZE as _MAX_FILE_SIZE

MAX_DECOMPRESSED = 4 * _MAX_FILE_SIZE


def _bounded_inflate(data: bytes, limit: int = MAX_DECOMPRESSED) -> bytes:
    """zlib.decompress with an output-size cap (incremental max_length reads;
    raises PdfError instead of ballooning to gigabytes)."""
    d = zlib.decompressobj()
    chunks = []
    total = 0
    buf = data
    try:
        while buf:
            chunk = d.decompress(buf, 1 << 20)
            total += len(chunk)
            if total > limit:
                raise PdfError("FlateDecode output exceeds size cap")
            chunks.append(chunk)
            buf = d.unconsumed_tail
        tail = d.flush()
    except zlib.error as exc:
        raise PdfError(f"bad FlateDecode stream: {exc}") from exc
    total += len(tail)
    if total > limit:
        raise PdfError("FlateDecode output exceeds size cap")
    chunks.append(tail)
    return b"".join(chunks)


def _asciihex_decode(data: bytes) -> bytes:
    """ASCIIHexDecode: hex digits, whitespace ignored, '>' terminates, odd
    final digit padded with 0."""
    end = data.find(b">")
    if end >= 0:
        data = data[:end]
    hexstr = re.sub(rb"\s", b"", data)
    if len(hexstr) % 2:
        hexstr += b"0"
    try:
        return bytes.fromhex(hexstr.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise PdfError(f"bad ASCIIHex stream: {exc}") from exc


def _lzw_decode(data: bytes, limit: int = MAX_DECOMPRESSED,
                early: int = 1) -> bytes:
    """LZWDecode (PDF variant: 9→12-bit codes MSB-first, 256=clear, 257=EOD,
    EarlyChange default 1), with the same output-size cap as Flate."""
    out = bytearray()
    table: dict[int, bytes] = {}
    next_code = width = 0
    prev = b""

    def reset():
        nonlocal table, next_code, width, prev
        table = {i: bytes([i]) for i in range(256)}
        next_code = 258
        width = 9
        prev = b""

    reset()
    bitbuf = 0
    nbits = 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:
                reset()
                continue
            if code == 257:
                return bytes(out)
            if prev == b"":
                entry = table.get(code)
                if entry is None:
                    raise PdfError("bad first LZW code")
            elif code in table:
                entry = table[code]
                table[next_code] = prev + entry[:1]
                next_code += 1
            elif code == next_code:
                entry = prev + prev[:1]
                table[next_code] = entry
                next_code += 1
            else:
                raise PdfError("bad LZW code")
            if next_code >= (1 << width) - early and width < 12:
                width += 1
            out += entry
            if len(out) > limit:
                raise PdfError("LZW output exceeds size cap")
            prev = entry
    return bytes(out)


def _runlength_decode(data: bytes, limit: int = MAX_DECOMPRESSED) -> bytes:
    """RunLengthDecode: length byte L<128 → copy next L+1 bytes literally;
    L>128 → repeat next byte 257−L times; L=128 → EOD."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        length = data[i]
        if length == 128:
            break
        if length < 128:
            if i + 2 + length > n:  # same damage policy as the repeat run
                raise PdfError("truncated RunLength stream")
            out += data[i + 1 : i + 2 + length]
            i += 2 + length
        else:
            if i + 1 >= n:
                raise PdfError("truncated RunLength stream")
            out += data[i + 1 : i + 2] * (257 - length)
            i += 2
        if len(out) > limit:
            raise PdfError("RunLength output exceeds size cap")
    return bytes(out)


def _tiff_unpredict(data: bytes, columns: int, colors: int,
                    bpc: int) -> bytes:
    """TIFF Predictor 2: horizontal differencing — each sample is stored as
    the delta from the previous sample of the same color channel."""
    if bpc != 8:
        raise PdfError("TIFF predictor: only 8-bit components supported")
    rowlen = colors * columns
    if rowlen <= 0 or len(data) % rowlen:
        raise PdfError("TIFF predictor: data not a whole number of rows")
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, columns, colors)
    # wrapped per-channel cumulative sum undoes the differencing (mod 256)
    return np.cumsum(arr, axis=1, dtype=np.uint8).tobytes()


def _png_unpredict(data: bytes, columns: int, colors: int,
                   bpc: int) -> bytes:
    """PNG Predictors 10-15: each row is (filter byte, filtered row) per the
    PNG spec — None/Sub/Up/Average/Paeth. /Predictor ≥10 only selects PNG
    framing; the actual algorithm is the per-row filter byte. Up (the xref-
    stream workhorse) is vectorized; the byte-serial filters run per row,
    which is fine for the short rows they appear on."""
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (colors * bpc * columns + 7) // 8
    stride = rowlen + 1
    if rowlen <= 0 or len(data) % stride:
        raise PdfError("PNG predictor: data not a whole number of rows")
    prev = np.zeros(rowlen, dtype=np.uint8)
    rows = []
    for r in range(0, len(data), stride):
        ft = data[r]
        row = np.frombuffer(data[r + 1 : r + stride], dtype=np.uint8).copy()
        if ft == 0:
            pass
        elif ft == 2:  # Up — vectorized (the common case in the wild)
            row += prev
        elif ft == 1:  # Sub
            for i in range(bpp, rowlen):
                row[i] = (int(row[i]) + int(row[i - bpp])) & 0xFF
        elif ft == 3:  # Average
            for i in range(rowlen):
                left = int(row[i - bpp]) if i >= bpp else 0
                row[i] = (int(row[i]) + ((left + int(prev[i])) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for i in range(rowlen):
                a = int(row[i - bpp]) if i >= bpp else 0
                b = int(prev[i])
                c = int(prev[i - bpp]) if i >= bpp else 0
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pr = a if (pa_ <= pb and pa_ <= pc_) else \
                    (b if pb <= pc_ else c)
                row[i] = (int(row[i]) + pr) & 0xFF
        else:
            raise PdfError(f"bad PNG predictor filter byte: {ft}")
        rows.append(row)
        prev = row
    return b"".join(r.tobytes() for r in rows)


def _apply_predictor(data: bytes, parms: dict) -> bytes:
    pred = parms.get("Predictor", 1)
    if not isinstance(pred, int) or pred <= 1:
        return data
    colors = parms.get("Colors", 1)
    bpc = parms.get("BitsPerComponent", 8)
    columns = parms.get("Columns", 1)
    if pred == 2:
        return _tiff_unpredict(data, columns, colors, bpc)
    if 10 <= pred <= 15:
        return _png_unpredict(data, columns, colors, bpc)
    raise PdfError(f"unsupported predictor: {pred}")


class Stream:
    __slots__ = ("dict", "raw")

    def __init__(self, d: dict, raw: bytes):
        self.dict = d
        self.raw = raw

    def data(self) -> bytes:
        filt = self.dict.get("Filter")
        if filt is None:
            return self.raw
        filters = filt if isinstance(filt, list) else [filt]
        parms = self.dict.get("DecodeParms", self.dict.get("DP"))
        if isinstance(parms, list):
            plist = list(parms)
        else:
            # a SCALAR DecodeParms pairs with the first filter only (per
            # spec it is only valid for a single filter; replicating it
            # would re-apply the predictor after every stage of a chain)
            plist = [parms]
        if len(plist) < len(filters):
            plist = plist + [None] * (len(filters) - len(plist))
        data = self.raw
        for f, p in zip(filters, plist):
            p = p if isinstance(p, dict) else {}
            if f == "FlateDecode":
                data = _bounded_inflate(data)
            elif f == "ASCIIHexDecode":
                data = _asciihex_decode(data)
            elif f == "LZWDecode":
                data = _lzw_decode(data, early=p.get("EarlyChange", 1))
            elif f == "RunLengthDecode":
                data = _runlength_decode(data)
            else:
                raise PdfError(f"unsupported filter: {f}")
            if f in ("FlateDecode", "LZWDecode") and p:
                data = _apply_predictor(data, p)
        return data


_WS = b"\x00\t\n\x0c\r "
_DELIM = b"()<>[]{}/%"
_NUM_RE = re.compile(rb"[+-]?(\d+\.?\d*|\.\d+)")
_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_REF_RE = re.compile(rb"(\d+)\s+(\d+)\s+R\b")
# whitespace + %-comments in one regex step (the per-char loop was the
# hottest line of the content-stream lexer)
_WS_SKIP_RE = re.compile(rb"(?:[\x00\t\n\x0c\r ]+|%[^\n]*)+")
_LIT_SPECIAL_RE = re.compile(rb"[()\\]")
# a whole /Name token up to the next whitespace or delimiter; a token with
# no #xx escape is its own value (checked by membership on the match: a
# negative lookahead here backtracks past the '#' instead of failing)
_NAME_RE = re.compile(rb"/[^\x00\t\n\x0c\r ()<>\[\]{}/%]*")


class _Lexer:
    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def skip_ws(self) -> None:
        m = _WS_SKIP_RE.match(self.data, self.pos)
        if m:
            self.pos = m.end()

    def parse_value(self):
        self.skip_ws()
        d = self.data
        p = self.pos
        if p >= len(d):
            raise PdfError("unexpected EOF")
        c = d[p : p + 1]
        if c == b"<":
            if d[p : p + 2] == b"<<":
                return self._parse_dict()
            return self._parse_hex_string()
        if c == b"(":
            return self._parse_literal_string()
        if c == b"[":
            return self._parse_array()
        if c == b"/":
            return self._parse_name()
        if d[p : p + 4] == b"true":
            self.pos = p + 4
            return True
        if d[p : p + 5] == b"false":
            self.pos = p + 5
            return False
        if d[p : p + 4] == b"null":
            self.pos = p + 4
            return None
        m = _NUM_RE.match(d, p)
        if m:
            # lookahead for "G R" → indirect reference
            ref_m = _REF_RE.match(d, p)
            if ref_m:
                self.pos = ref_m.end()
                return Ref(int(ref_m.group(1)))
            self.pos = m.end()
            tok = m.group(0)
            return float(tok) if b"." in tok else int(tok)
        raise PdfError(f"bad token at {p}: {d[p:p+16]!r}")

    def _parse_name(self) -> Name:
        m = _NAME_RE.match(self.data, self.pos)
        raw = m.group(0)
        if b"#" not in raw:
            self.pos = m.end()
            return Name(raw[1:].decode("latin-1"))
        d = self.data
        p = self.pos + 1
        start = p
        n = len(d)
        out = bytearray()
        while p < n:
            b = d[p : p + 1]
            if b in _WS or (b in _DELIM):
                break
            if b == b"#" and p + 2 < n:
                out += bytes.fromhex(d[p + 1 : p + 3].decode("ascii", "replace"))
                p += 3
            else:
                out += b
                p += 1
        self.pos = p
        return Name(out.decode("latin-1"))

    def _parse_dict(self) -> dict:
        self.pos += 2
        out: dict = {}
        while True:
            self.skip_ws()
            if self.data[self.pos : self.pos + 2] == b">>":
                self.pos += 2
                return out
            key = self.parse_value()
            if not isinstance(key, Name):
                raise PdfError("dict key is not a name")
            out[str(key)] = self.parse_value()

    def _parse_array(self) -> list:
        self.pos += 1
        out = []
        while True:
            self.skip_ws()
            if self.data[self.pos : self.pos + 1] == b"]":
                self.pos += 1
                return out
            out.append(self.parse_value())

    def _parse_hex_string(self) -> bytes:
        end = self.data.find(b">", self.pos + 1)
        if end < 0:
            raise PdfError("unterminated hex string")
        hexstr = re.sub(rb"\s", b"", self.data[self.pos + 1 : end])
        if len(hexstr) % 2:
            hexstr += b"0"
        self.pos = end + 1
        return bytes.fromhex(hexstr.decode("ascii", "replace"))

    def _parse_literal_string(self) -> bytes:
        d = self.data
        p = self.pos + 1
        # fast path: no escape and no nesting before the closing paren
        # (the overwhelmingly common case) — one regex scan, one slice
        m = _LIT_SPECIAL_RE.search(d, p)
        if m is not None and d[m.start()] == 0x29:  # ')'
            self.pos = m.start() + 1
            return d[p : m.start()]
        depth = 1
        out = bytearray()
        n = len(d)
        while p < n:
            b = d[p]
            if b == 0x5C:  # backslash
                p += 1
                if p >= n:
                    break
                e = d[p]
                if e == 0x6E:
                    out.append(0x0A)
                elif e == 0x72:
                    out.append(0x0D)
                elif e == 0x74:
                    out.append(0x09)
                elif e == 0x62:
                    out.append(0x08)
                elif e == 0x66:
                    out.append(0x0C)
                elif e in (0x28, 0x29, 0x5C):
                    out.append(e)
                elif 0x30 <= e <= 0x37:  # octal, up to 3 digits
                    oct_digits = chr(e)
                    for _ in range(2):
                        if p + 1 < n and 0x30 <= d[p + 1] <= 0x37:
                            p += 1
                            oct_digits += chr(d[p])
                        else:
                            break
                    out.append(int(oct_digits, 8) & 0xFF)
                elif e in (0x0A, 0x0D):  # line continuation
                    if e == 0x0D and p + 1 < n and d[p + 1] == 0x0A:
                        p += 1
                else:
                    out.append(e)
                p += 1
            elif b == 0x28:
                depth += 1
                out.append(b)
                p += 1
            elif b == 0x29:
                depth -= 1
                if depth == 0:
                    self.pos = p + 1
                    return bytes(out)
                out.append(b)
                p += 1
            else:
                out.append(b)
                p += 1
        raise PdfError("unterminated literal string")


# ---------------------------------------------------------------------------
# Standard security handler — EMPTY-user-password RC4 (V 1/2, R 2/3), the
# overwhelmingly common "encrypted but readable" web PDF. The reference's
# engine (pdfminer via markitdown) transparently decrypts these; parity
# demands we do too. Real-password documents still raise a clear PdfError.
# Algorithms are PDF 1.7 spec §7.6.3 (public). RC4 is inherently sequential —
# a per-stream Python loop, bounded by stream size, paid only on the
# encrypted minority of rows.
# ---------------------------------------------------------------------------

_PW_PAD = bytes([
    0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41, 0x64, 0x00, 0x4E, 0x56,
    0xFF, 0xFA, 0x01, 0x08, 0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
    0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
])


def _rc4(key: bytes, data: bytes) -> bytes:
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for n, b in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out[n] = b ^ s[(s[i] + s[j]) & 0xFF]
    return bytes(out)


def _pad_password(password: bytes) -> bytes:
    """Algorithm 2 step a: pad/truncate the user password to 32 bytes."""
    return (password + _PW_PAD)[:32]


def _std_file_key(enc: dict, first_id: bytes,
                  password: bytes = b"") -> bytes:
    """Algorithm 2: file key from the (default empty) user password."""
    import hashlib
    import struct

    r = enc.get("R", 2)
    n = int(enc.get("Length", 40)) // 8
    h = hashlib.md5()
    h.update(_pad_password(password))
    h.update(enc["O"][:32])
    h.update(struct.pack("<I", int(enc.get("P", 0)) & 0xFFFFFFFF))
    h.update(first_id)
    if r >= 4 and enc.get("EncryptMetadata") is False:
        h.update(b"\xff\xff\xff\xff")
    key = h.digest()
    if r >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:n]).digest()
    return key[:n]


def _check_user_pw(enc: dict, key: bytes, first_id: bytes) -> bool:
    """Algorithms 4/5 + 6: recompute U from the candidate file key,
    compare. The password itself enters only through ``key`` (Algorithm
    2); U is always built from the PAD constant."""
    import hashlib

    u = enc.get("U", b"")
    if enc.get("R", 2) == 2:
        return _rc4(key, _PW_PAD) == u[:32]
    x = _rc4(key, hashlib.md5(_PW_PAD + first_id).digest())
    for i in range(1, 20):
        x = _rc4(bytes(b ^ i for b in key), x)
    return x[:16] == u[:16]


def _object_key(file_key: bytes, num: int, gen: int,
                aes: bool = False) -> bytes:
    """Algorithm 1: per-object key (AESV2 appends the spec's 'sAlT').

    V5 (AESV3, 32-byte file key) uses the file key directly for every
    object — ISO 32000-2 drops the per-object derivation at 256 bits."""
    import hashlib
    import struct

    if len(file_key) == 32:
        return file_key
    ext = (file_key + struct.pack("<I", num)[:3] + struct.pack("<I", gen)[:2]
           + (b"sAlT" if aes else b""))
    return hashlib.md5(ext).digest()[: min(len(file_key) + 5, 16)]


def _v5_file_key(enc: dict, password: bytes = b"") -> bytes:
    """ISO 32000-2 Algorithms 2.A/8: verify the (default empty) USER
    password against /U and unwrap the 32-byte file key from /UE (V=5,
    R=5 or 6). V5 passwords are UTF-8 (callers encode), truncated to 127
    bytes per the spec."""
    import hashlib

    from engine.pdfx.aes import aes_cbc_decrypt_raw, hash_r6

    pw = password[:127]
    u, ue = enc.get("U", b""), enc.get("UE", b"")
    if not (isinstance(u, bytes) and len(u) >= 48 and
            isinstance(ue, bytes) and len(ue) == 32):
        raise PdfError("encrypted PDF: malformed V5 /U or /UE")
    vsalt, ksalt = u[32:40], u[40:48]
    if enc.get("R", 6) == 5:
        # deprecated Adobe R5 extension: single SHA-256, no ladder
        digest = hashlib.sha256(pw + vsalt).digest()
        inter = hashlib.sha256(pw + ksalt).digest()
    else:
        digest = hash_r6(pw, vsalt)
        inter = hash_r6(pw, ksalt)
    if digest != u[:32]:
        raise PdfError("encrypted PDF: password required"
                       if not pw else "encrypted PDF: wrong password")
    return aes_cbc_decrypt_raw(inter, bytes(16), ue)


def _aes_decrypt(obj_key: bytes, data: bytes) -> bytes:
    from engine.pdfx.aes import aes_cbc_decrypt as aes128_cbc_decrypt

    if not data:
        # empty strings pass through un-wrapped in the wild (the RC4 path
        # tolerated them too: _rc4(key, b'') == b'')
        return b""
    try:
        return aes128_cbc_decrypt(obj_key, data)
    except ValueError as exc:
        raise PdfError(f"encrypted PDF: AES payload invalid ({exc})") from exc


# CFM name → (decrypt_fn(obj_key, data), uses_aes_object_key)
_CRYPT_FILTERS = {
    "V2": (_rc4, False),
    "AESV2": (_aes_decrypt, True),
    "AESV3": (_aes_decrypt, True),  # 32-byte file key used directly
    "Identity": (lambda _k, d: d, False),
}


def _resolve_crypt_filters(objects: "dict[int, object]", enc: dict):
    """V=4: map the /StmF and /StrF crypt-filter names through /CF."""
    cf = resolve(objects, enc.get("CF", {})) or {}

    def pick(which: str):
        name = str(enc.get(which, "Identity"))
        if name == "Identity":
            return _CRYPT_FILTERS["Identity"]
        spec = resolve(objects, cf.get(name))
        cfm = str(spec.get("CFM", "")) if isinstance(spec, dict) else ""
        if cfm not in _CRYPT_FILTERS or cfm == "Identity":
            if cfm == "Identity":
                return _CRYPT_FILTERS["Identity"]
            raise PdfError(f"encrypted PDF: unsupported crypt filter "
                           f"CFM={cfm!r}")
        return _CRYPT_FILTERS[cfm]

    return pick("StmF"), pick("StrF")


def _decrypt_value(value, obj_key: bytes, fn=_rc4):
    """Recursively decrypt every string (bytes) inside an object body."""
    if isinstance(value, bytes):
        return fn(obj_key, value)
    if isinstance(value, list):
        return [_decrypt_value(v, obj_key, fn) for v in value]
    if isinstance(value, dict):
        return {k: _decrypt_value(v, obj_key, fn) for k, v in value.items()}
    return value


def _decrypt_objects(objects: "dict[int, object]", gens: "dict[int, int]",
                     trailer: dict, password: bytes = b"") -> None:
    """Verify the (default empty) USER password and decrypt every
    stream/string in place; raises PdfError for unsupported handlers, a
    required password, or a wrong supplied password. Owner passwords are
    not attempted (Algorithm 7) — crawl practice opens with the user
    password or not at all."""
    enc_ref = trailer.get("Encrypt")
    enc = resolve(objects, enc_ref)
    if not isinstance(enc, dict):
        raise PdfError("encrypted PDF: malformed /Encrypt")
    v, r = enc.get("V", 0), enc.get("R", 2)
    if enc.get("Filter") != "Standard" or (v, r) not in \
            {(1, 2), (1, 3), (2, 2), (2, 3), (4, 4), (5, 5), (5, 6)}:
        raise PdfError("encrypted PDF: unsupported security handler "
                       f"(Filter={enc.get('Filter')}, V={v}, R={r})")
    if v >= 4:
        (stm_fn, stm_aes), (str_fn, str_aes) = \
            _resolve_crypt_filters(objects, enc)
        if "Length" not in enc:
            enc = {**enc, "Length": 256 if v == 5 else 128}
    else:
        (stm_fn, stm_aes) = (str_fn, str_aes) = (_rc4, False)
    if v == 5:
        key = _v5_file_key(enc, password)  # raises on mismatch
    else:
        ids = trailer.get("ID")
        first_id = ids[0] if isinstance(ids, list) and ids and \
            isinstance(ids[0], bytes) else b""
        key = _std_file_key(enc, first_id, password)
        if not _check_user_pw(enc, key, first_id):
            raise PdfError("encrypted PDF: password required"
                           if not password
                           else "encrypted PDF: wrong password")
    enc_num = enc_ref.num if isinstance(enc_ref, Ref) else None
    for num, obj in objects.items():
        if num == enc_num:
            continue  # the /Encrypt dict's own strings are never encrypted
        gen = gens.get(num, 0)
        if isinstance(obj, Stream):
            if obj.dict.get("Type") == "XRef":
                continue  # cross-reference streams are never encrypted
            obj.raw = stm_fn(_object_key(key, num, gen, stm_aes), obj.raw)
            obj.dict = _decrypt_value(
                obj.dict, _object_key(key, num, gen, str_aes), str_fn)
        else:
            objects[num] = _decrypt_value(
                obj, _object_key(key, num, gen, str_aes), str_fn)


def parse_objects(data: bytes, password: "bytes | str" = b""
                  ) -> tuple[dict[int, object], dict]:
    """Scan for all ``N G obj`` bodies; return (objects, trailer_dict).

    The trailer is found by scanning for the last ``trailer`` keyword; if
    absent (our generator always emits one), falls back to locating the
    /Catalog object directly. ``password`` is the optional USER password
    for encrypted documents (str is encoded UTF-8 — exact for V5; V<=4
    strictly wants PDFDocEncoding, identical for ASCII passwords).
    """
    if isinstance(password, str):
        password = password.encode("utf-8")
    objects: dict[int, object] = {}
    gens: dict[int, int] = {}
    pos = 0
    while True:
        m = _OBJ_RE.search(data, pos)
        if not m:
            break
        num = int(m.group(1))
        gens[num] = int(m.group(2))
        lex = _Lexer(data, m.end())
        try:
            value = lex.parse_value()
        except PdfError:
            pos = m.end()
            continue
        lex.skip_ws()
        if isinstance(value, dict) and data[lex.pos : lex.pos + 6] == b"stream":
            sp = lex.pos + 6
            if data[sp : sp + 2] == b"\r\n":
                sp += 2
            elif data[sp : sp + 1] == b"\n":
                sp += 1
            length = value.get("Length")
            if isinstance(length, Ref):
                length = None  # resolved below if possible; generator uses direct
            if isinstance(length, int):
                raw = data[sp : sp + length]
                end = sp + length
            else:
                end_idx = data.find(b"endstream", sp)
                if end_idx < 0:
                    raise PdfError("unterminated stream")
                raw = data[sp:end_idx].rstrip(b"\r\n")
                end = end_idx
            objects[num] = Stream(value, raw)
            pos = end
        else:
            objects[num] = value
            pos = lex.pos
    # trailer FIRST (decryption needs /Encrypt before ObjStm payloads are
    # expanded — an encrypted ObjStm is ciphertext until then)
    t_idx = data.rfind(b"trailer")
    trailer: dict = {}
    if t_idx >= 0:
        lex = _Lexer(data, t_idx + len(b"trailer"))
        try:
            trailer = lex.parse_value()
            if not isinstance(trailer, dict):
                trailer = {}
        except PdfError:
            trailer = {}
    if "Root" not in trailer:
        # PDF 1.5 without a trailer keyword: the cross-reference STREAM dict
        # carries /Root and /Info (we never need the xref table itself — the
        # object scan already found every top-level object). ID lives in the
        # same dict for encrypted files.
        for num, obj in objects.items():
            if isinstance(obj, Stream) and obj.dict.get("Type") == "XRef":
                trailer = {k: v for k, v in obj.dict.items()
                           if k in ("Root", "Info", "Size", "Encrypt", "ID")}
                break

    if "Encrypt" in trailer:
        # decrypts in place with the supplied (default empty) user
        # password; a missing/wrong password or an unsupported handler
        # raises a clear PdfError — never silently emit ciphertext
        _decrypt_objects(objects, gens, trailer, password)

    # PDF 1.5 object streams: objects packed inside /ObjStm streams are
    # invisible to the top-level scan — expand them now (header is N pairs of
    # "objnum offset", bodies start at /First)
    for num in list(objects):
        st = objects[num]
        if not (isinstance(st, Stream) and st.dict.get("Type") == "ObjStm"):
            continue
        n_objs = st.dict.get("N")
        first = st.dict.get("First")
        if not isinstance(n_objs, int) or not isinstance(first, int):
            continue
        try:
            payload = st.data()
            header = _Lexer(payload, 0)
            pairs = []
            for _ in range(n_objs):
                onum = header.parse_value()
                off = header.parse_value()
                if isinstance(onum, int) and isinstance(off, int):
                    pairs.append((onum, off))
            for onum, off in pairs:
                lex = _Lexer(payload, first + off)
                objects.setdefault(onum, lex.parse_value())
        except PdfError:
            continue  # tolerant: a bad ObjStm degrades, never poisons

    if "Root" not in trailer:
        for num, obj in objects.items():
            if isinstance(obj, dict) and obj.get("Type") == "Catalog":
                trailer = {"Root": Ref(num)}
                break
    if not objects:
        raise PdfError("no PDF objects found")
    return objects, trailer


def resolve(objects: dict[int, object], value):
    seen = 0
    while isinstance(value, Ref):
        value = objects.get(value.num)
        seen += 1
        if seen > 32:
            raise PdfError("reference cycle")
    return value


_INHERITABLE = ("Resources", "MediaBox", "CropBox", "Rotate")


def _collect_pages(objects: dict[int, object], node, inherited: dict,
                   depth: int, out: list[dict]) -> None:
    """Append the page dicts under ``node`` to ``out`` in document order,
    each merged with the inheritable attributes of its ancestors."""
    if depth > 64 or not isinstance(node, dict):
        return
    if node.get("Type") == "Page":
        missing = {k: v for k, v in inherited.items() if k not in node}
        out.append({**node, **missing} if missing else node)
        return
    inh = inherited
    if any(k in node for k in _INHERITABLE):
        inh = dict(inherited)
        for k in _INHERITABLE:
            if k in node:
                inh[k] = node[k]
    for kid in node.get("Kids", []) or []:
        _collect_pages(objects, resolve(objects, kid), inh, depth + 1, out)


def get_pages(objects: dict[int, object], trailer: dict) -> list[dict]:
    """Walk Catalog → Pages → Kids recursively; return page dicts in order.

    Inheritable attributes (ISO 32000 §7.7.3.4: /Resources /MediaBox
    /CropBox /Rotate) placed on /Pages tree nodes are merged down onto
    pages that lack them — scanner/producer tools commonly hoist
    /Resources (fonts, image XObjects) to the tree node, and without the
    merge those pages would extract empty and miss the needs_ocr gate."""
    root = resolve(objects, trailer.get("Root"))
    if not isinstance(root, dict):
        raise PdfError("no /Root catalog")
    pages_node = resolve(objects, root.get("Pages"))
    out: list[dict] = []
    _collect_pages(objects, pages_node, {}, 0, out)
    if not out:
        raise PdfError("no pages")
    return out


def page_content(objects: dict[int, object], page: dict) -> bytes:
    contents = resolve(objects, page.get("Contents"))
    if contents is None:
        return b""
    if isinstance(contents, Stream):
        return contents.data()
    if isinstance(contents, list):
        parts = []
        for ref in contents:
            st = resolve(objects, ref)
            if isinstance(st, Stream):
                parts.append(st.data())
        return b"\n".join(parts)
    return b""
