"""Baseline JFIF (JPEG) codec in pure numpy/Python — no imaging libraries.

Replaces the round-2 "deterministic lossy stand-in" with a REAL codec
(reference driver: ``frmts/jpeg/jpgdataset.cpp``): 2-D DCT on 8x8 blocks,
Annex-K quantization tables scaled with libjpeg's quality curve, canonical
Huffman coding with the ITU T.81 Annex-K typical tables, JFIF container
(SOI/APP0/DQT/SOF0/DHT/SOS/EOI) with byte stuffing.

- ``encode_jpeg``: baseline sequential, 8-bit, grayscale or YCbCr 4:4:4 /
  4:2:0, interleaved single scan. Output decodes in any standard viewer.
- ``decode_jpeg``: baseline sequential decoder (SOF0), arbitrary Huffman /
  quant tables from the stream, sampling factors 1-2, restart markers.

The DCT/IDCT and dequantization are fully vectorized over all blocks; the
entropy coder is the only sequential loop (LUT-driven, ~1 µs/symbol).
"""

from __future__ import annotations

import struct

import numpy as np

from gdal_ray.ops.runtime import memo

__all__ = ["encode_jpeg", "decode_jpeg"]

# --- constants (ITU T.81 / JFIF, public spec) ------------------------------

_Q_LUMA = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)

_Q_CHROMA = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)

_DC_LUMA_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUMA_VALS = list(range(12))
_DC_CHROMA_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHROMA_VALS = list(range(12))

_AC_LUMA_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0A, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3,
    0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9,
    0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF1, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]
_AC_CHROMA_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0, 0x15, 0x62, 0x72, 0xD1,
    0x0A, 0x16, 0x24, 0x34, 0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3A, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6A, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9A,
    0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
    0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA, 0xF2, 0xF3, 0xF4,
    0xF5, 0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
]


def _zigzag():
    """Zigzag scan order: flat index zz[k] = row*8 + col of the k-th coeff."""
    order = []
    for s in range(15):
        rng = range(max(0, s - 7), min(7, s) + 1)
        for r in (rng if s % 2 == 1 else reversed(rng)):
            order.append(r * 8 + (s - r))
    return np.array(order, dtype=np.int64)


_ZZ = _zigzag()

_DCT = None


def _dct_matrix():
    global _DCT
    if _DCT is None:
        u = np.arange(8).reshape(8, 1)
        x = np.arange(8).reshape(1, 8)
        m = np.cos((2 * x + 1) * u * np.pi / 16) * 0.5
        m[0, :] = 1.0 / np.sqrt(8.0)
        _DCT = m
    return _DCT


def _quality_tables(quality: int):
    """libjpeg jpeg_quality_scaling curve."""
    quality = max(1, min(100, int(quality)))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    out = []
    for base in (_Q_LUMA, _Q_CHROMA):
        t = (base * scale + 50) // 100
        out.append(np.clip(t, 1, 255).astype(np.int32))
    return out


# --- canonical Huffman helpers --------------------------------------------

def _canonical_codes(bits, vals):
    """(bits[16], vals) -> {symbol: (code, length)}."""
    codes = {}
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            codes[vals[k]] = (code, ln)
            code += 1
            k += 1
        code <<= 1
    return codes


_LUT_CACHE: dict = {}


def _decode_lut(bits, vals):
    """16-bit-peek LUT: (sym[65536], len[65536]) as Python lists.

    Cached on the table definition — rebuilding costs ~5 ms and every
    standard-table stream hits the cache."""
    return memo(_LUT_CACHE, (tuple(bits), tuple(vals)), lambda: _build_lut(bits, vals), 32)


def _build_lut(bits, vals):
    sym = np.zeros(65536, dtype=np.int32)
    length = np.zeros(65536, dtype=np.int32)
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            v = vals[k]
            base = code << (16 - ln)
            span = 1 << (16 - ln)
            sym[base : base + span] = v
            length[base : base + span] = ln
            code += 1
            k += 1
        code <<= 1
    return sym.tolist(), length.tolist()


# --- forward path ----------------------------------------------------------

def _blockify(plane: np.ndarray) -> np.ndarray:
    """(H, W) multiple-of-8 plane -> (N, 8, 8) blocks in raster order."""
    h, w = plane.shape
    return (
        plane.reshape(h // 8, 8, w // 8, 8).transpose(0, 2, 1, 3).reshape(-1, 8, 8)
    )


def _pad8(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    ph, pw = -h % 8, -w % 8
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


class _BitWriter:
    __slots__ = ("out", "acc", "nbits")

    def __init__(self):
        self.out = bytearray()
        self.acc = 0
        self.nbits = 0

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | code
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:
                self.out.append(0x00)  # byte stuffing
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # 1-fill per spec


def _magnitude(v: int):
    """(size, extend-bits) of a coefficient value."""
    if v == 0:
        return 0, 0
    a = abs(v)
    size = a.bit_length()
    bits = v if v > 0 else v + (1 << size) - 1
    return size, bits


def _encode_blocks(writer, qblocks, order, dc_codes_per, ac_codes_per, comp_of):
    """Interleaved MCU entropy coding. ``order``: list of (comp_idx, block_idx)
    per MCU in scan order; dc/ac codes indexed by component."""
    pred = [0] * (max(comp_of) + 1 if comp_of else 1)
    for comp, bi in order:
        blk = qblocks[comp][bi]
        zz = blk.reshape(64)[_ZZ]
        dc_codes = dc_codes_per[comp]
        ac_codes = ac_codes_per[comp]
        diff = int(zz[0]) - pred[comp]
        pred[comp] = int(zz[0])
        size, bits = _magnitude(diff)
        code, ln = dc_codes[size]
        writer.write(code, ln)
        if size:
            writer.write(bits, size)
        run = 0
        nz = np.nonzero(zz[1:])[0]
        last = nz[-1] + 1 if len(nz) else 0
        for k in range(1, last + 1):
            v = int(zz[k])
            if v == 0:
                run += 1
                continue
            while run > 15:
                code, ln = ac_codes[0xF0]  # ZRL
                writer.write(code, ln)
                run -= 16
            size, bits = _magnitude(v)
            code, ln = ac_codes[(run << 4) | size]
            writer.write(code, ln)
            writer.write(bits, size)
            run = 0
        if last < 63:
            code, ln = ac_codes[0x00]  # EOB
            writer.write(code, ln)


def _rgb_to_ycbcr(img: np.ndarray):
    f = img.astype(np.float64)
    r, g, b = f[:, :, 0], f[:, :, 1], f[:, :, 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = -0.168735892 * r - 0.331264108 * g + 0.5 * b + 128.0
    cr = 0.5 * r - 0.418687589 * g - 0.081312411 * b + 128.0
    return y, cb, cr


def encode_jpeg(img: np.ndarray, quality: int = 90, subsample: bool = True) -> bytes:
    """uint8 (H, W) / (H, W, 1) grayscale or (H, W, 3) RGB -> JFIF bytes."""
    img = np.asarray(img, dtype=np.uint8)
    if img.ndim == 3 and img.shape[2] == 1:
        img = img[:, :, 0]
    gray = img.ndim == 2
    h, w = img.shape[:2]
    qt_l, qt_c = _quality_tables(quality)
    dct = _dct_matrix()

    if gray:
        planes = [img.astype(np.float64) - 128.0]
        samp = [(1, 1)]
        qts = [qt_l]
    else:
        y, cb, cr = _rgb_to_ycbcr(img)
        if subsample:  # 4:2:0 box average
            cb = _pad8(cb) if cb.shape[0] % 2 or cb.shape[1] % 2 else cb
            ph, pw = -h % 2, -w % 2
            if ph or pw:
                y2 = np.pad(cb[:h, :w], ((0, ph), (0, pw)), mode="edge")
                cb2 = np.pad(cb[:h, :w], ((0, ph), (0, pw)), mode="edge")
                cr2 = np.pad(cr[:h, :w], ((0, ph), (0, pw)), mode="edge")
            else:
                cb2, cr2 = cb[:h, :w], cr[:h, :w]
            cb = cb2.reshape(cb2.shape[0] // 2, 2, cb2.shape[1] // 2, 2).mean(axis=(1, 3))
            cr = cr2.reshape(cr2.shape[0] // 2, 2, cr2.shape[1] // 2, 2).mean(axis=(1, 3))
            samp = [(2, 2), (1, 1), (1, 1)]
        else:
            samp = [(1, 1), (1, 1), (1, 1)]
        planes = [y - 128.0, cb - 128.0, cr - 128.0]
        qts = [qt_l, qt_c, qt_c]

    hmax = max(s[0] for s in samp)
    vmax = max(s[1] for s in samp)
    # pad each plane so the MCU grid is complete
    mcu_w = 8 * hmax
    mcu_h = 8 * vmax
    mcus_x = -(-w // mcu_w)
    mcus_y = -(-h // mcu_h)
    qblocks = []
    nblk_x = []
    for (sh, sv), plane, qt in zip(samp, planes, qts):
        tw = mcus_x * 8 * sh
        th = mcus_y * 8 * sv
        p = np.pad(
            plane,
            ((0, th - plane.shape[0]), (0, tw - plane.shape[1])),
            mode="edge",
        )
        blocks = _blockify(p)
        coef = np.einsum("ux,nxy,vy->nuv", dct, blocks, dct, optimize=True)
        q = np.round(coef / qt[None, :, :]).astype(np.int32)
        qblocks.append(q)
        nblk_x.append(tw // 8)

    # interleaved MCU order
    order = []
    for my in range(mcus_y):
        for mx in range(mcus_x):
            for ci, (sh, sv) in enumerate(samp):
                for by in range(sv):
                    for bx in range(sh):
                        order.append((ci, (my * sv + by) * nblk_x[ci] + mx * sh + bx))

    dc_l = _canonical_codes(_DC_LUMA_BITS, _DC_LUMA_VALS)
    ac_l = _canonical_codes(_AC_LUMA_BITS, _AC_LUMA_VALS)
    dc_c = _canonical_codes(_DC_CHROMA_BITS, _DC_CHROMA_VALS)
    ac_c = _canonical_codes(_AC_CHROMA_BITS, _AC_CHROMA_VALS)
    dc_per = [dc_l] + [dc_c] * (len(planes) - 1)
    ac_per = [ac_l] + [ac_c] * (len(planes) - 1)

    writer = _BitWriter()
    _encode_blocks(writer, qblocks, order, dc_per, ac_per, list(range(len(planes))))
    writer.flush()

    # --- container ---
    out = bytearray(b"\xff\xd8")  # SOI
    out += b"\xff\xe0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    for tq, qt in enumerate((qt_l,) if gray else (qt_l, qt_c)):
        zzq = qt.reshape(64)[_ZZ].astype(np.uint8).tobytes()
        out += b"\xff\xdb" + struct.pack(">HB", 67, tq) + zzq
    ncomp = 1 if gray else 3
    out += b"\xff\xc0" + struct.pack(">HBHHB", 8 + 3 * ncomp, 8, h, w, ncomp)
    for ci in range(ncomp):
        sh, sv = samp[ci]
        out += struct.pack("BBB", ci + 1, (sh << 4) | sv, 0 if ci == 0 else 1)
    hts = [(0x00, _DC_LUMA_BITS, _DC_LUMA_VALS), (0x10, _AC_LUMA_BITS, _AC_LUMA_VALS)]
    if not gray:
        hts += [(0x01, _DC_CHROMA_BITS, _DC_CHROMA_VALS), (0x11, _AC_CHROMA_BITS, _AC_CHROMA_VALS)]
    for tc, bits, vals in hts:
        out += b"\xff\xc4" + struct.pack(">HB", 19 + len(vals), tc)
        out += bytes(bits) + bytes(vals)
    out += b"\xff\xda" + struct.pack(">HB", 6 + 2 * ncomp, ncomp)
    for ci in range(ncomp):
        out += struct.pack("BB", ci + 1, 0x00 if ci == 0 else 0x11)
    out += b"\x00\x3f\x00"
    out += writer.out
    out += b"\xff\xd9"  # EOI
    return bytes(out)


def _upsample2(p: np.ndarray, axis: int) -> np.ndarray:
    """2x triangle-filter upsample along one axis (libjpeg fancy upsampling:
    nearer sample weight 3/4, farther 1/4, edges clamped)."""
    if axis == 1:
        return _upsample2(p.T, 0).T
    lo = np.vstack([p[:1], p[:-1]])   # sample above
    hi = np.vstack([p[1:], p[-1:]])   # sample below
    out = np.empty((p.shape[0] * 2, p.shape[1]), dtype=p.dtype)
    out[0::2] = 0.75 * p + 0.25 * lo
    out[1::2] = 0.75 * p + 0.25 * hi
    return out


# --- decoder ----------------------------------------------------------------

def _extend(v: int, size: int) -> int:
    return v - (1 << size) + 1 if v < (1 << (size - 1)) else v


def decode_jpeg(buf: bytes) -> np.ndarray:
    """JFIF bytes -> uint8 (H, W, C). Baseline sequential (SOF0) only."""
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], tuple[list, list]] = {}
    comps = None
    h = w = 0
    restart_interval = 0
    scan_comps = None
    data_start = None
    n = len(buf)
    while pos < n:
        if buf[pos] != 0xFF:
            pos += 1
            continue
        marker = buf[pos + 1]
        pos += 2
        if marker in (0xD8, 0x01) or 0xD0 <= marker <= 0xD7:
            continue
        if marker == 0xD9:
            break
        (seglen,) = struct.unpack_from(">H", buf, pos)
        seg = buf[pos + 2 : pos + seglen]
        if marker == 0xDB:  # DQT
            off = 0
            while off < len(seg):
                pq, tq = seg[off] >> 4, seg[off] & 0x0F
                off += 1
                if pq:
                    vals = np.frombuffer(seg[off : off + 128], dtype=">u2").astype(np.int32)
                    off += 128
                else:
                    vals = np.frombuffer(seg[off : off + 64], dtype=np.uint8).astype(np.int32)
                    off += 64
                t = np.zeros(64, dtype=np.int32)
                t[_ZZ] = vals
                qtabs[tq] = t.reshape(8, 8)
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(seg):
                tc, th = seg[off] >> 4, seg[off] & 0x0F
                bits = list(seg[off + 1 : off + 17])
                nv = sum(bits)
                vals = list(seg[off + 17 : off + 17 + nv])
                huff[(tc, th)] = _decode_lut(bits, vals)
                off += 17 + nv
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 (baseline/ext seq)
            prec, h, w, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise NotImplementedError("only 8-bit JPEG supported")
            comps = []
            for ci in range(nc):
                cid, sampling, tq = struct.unpack_from("BBB", seg, 6 + 3 * ci)
                comps.append({"id": cid, "h": sampling >> 4, "v": sampling & 0x0F, "tq": tq})
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError("only baseline sequential JPEG supported")
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS
            ns = seg[0]
            scan_comps = []
            for ci in range(ns):
                cid, tt = seg[1 + 2 * ci], seg[2 + 2 * ci]
                scan_comps.append({"id": cid, "dc": tt >> 4, "ac": tt & 0x0F})
            data_start = pos + seglen
            break
        pos += seglen
    if comps is None or scan_comps is None:
        raise ValueError("truncated JPEG (no SOF/SOS)")

    # entropy segment: unstuff FF00 -> FF, note restart markers
    raw = buf[data_start:]
    arr = np.frombuffer(raw, dtype=np.uint8)
    ffpos = np.nonzero(arr[:-1] == 0xFF)[0]
    end = len(arr)
    for p in ffpos:
        nxt = arr[p + 1]
        if nxt != 0x00 and not (0xD0 <= nxt <= 0xD7):
            end = p
            break
    seg_arr = arr[:end]
    # vectorized unstuff/split: drop the 0x00 after each 0xFF, cut at RSTn
    ff = np.nonzero(seg_arr[:-1] == 0xFF)[0]
    nxt = seg_arr[ff + 1]
    drop = ff[nxt == 0x00] + 1          # stuffed zeros to delete
    rst = ff[(nxt >= 0xD0) & (nxt <= 0xD7)]  # restart marker starts
    keep = np.ones(len(seg_arr), dtype=bool)
    keep[drop] = False
    keep[rst] = False
    keep[rst + 1] = False
    # map restart positions into the compacted stream to split
    if len(rst):
        newpos = np.cumsum(keep)
        cuts = newpos[rst] - 1 + 1  # count of kept bytes before the marker
        clean = seg_arr[keep].tobytes()
        parts = []
        prev = 0
        for cpos in cuts:
            parts.append(clean[prev:cpos])
            prev = cpos
        parts.append(clean[prev:])
    else:
        parts = [seg_arr[keep].tobytes()]

    hmax = max(c["h"] for c in comps)
    vmax = max(c["v"] for c in comps)
    mcus_x = -(-w // (8 * hmax))
    mcus_y = -(-h // (8 * vmax))
    by_id = {c["id"]: c for c in comps}
    for sc in scan_comps:
        c = by_id[sc["id"]]
        c["dc_lut"] = huff[(0, sc["dc"])]
        c["ac_lut"] = huff[(1, sc["ac"])]
    for c in comps:
        c["bw"] = mcus_x * c["h"]
        c["bh"] = mcus_y * c["v"]
        # coefficients collected in ZIGZAG order as flat (block*64 + k)
        # index/value lists; de-zigzagged vectorized after the scan loop
        c["idx"] = []
        c["val"] = []

    n_mcu = mcus_x * mcus_y
    mcu_per_part = restart_interval if restart_interval else n_mcu
    mcu_idx = 0
    for part in parts:
        # inlined bit reader (locals, no method-call overhead in the hot
        # loop); zero-padding keeps the 4-byte bulk refills in bounds
        part = part + b"\x00" * 64
        dpos = 0
        acc = 0
        bits = 0
        pred = {c["id"]: 0 for c in comps}
        limit = min(n_mcu, mcu_idx + mcu_per_part)
        while mcu_idx < limit:
            my, mx = divmod(mcu_idx, mcus_x)
            for c in comps:
                dc_sym, dc_len = c["dc_lut"]
                ac_sym, ac_len = c["ac_lut"]
                cidx = c["idx"]
                cval = c["val"]
                cbw = c["bw"]
                ch = c["h"]
                cv = c["v"]
                cid = c["id"]
                for by in range(cv):
                    for bx in range(ch):
                        bi64 = ((my * cv + by) * cbw + mx * ch + bx) << 6
                        if bits < 16:
                            acc = (acc << 32) | int.from_bytes(
                                part[dpos : dpos + 4], "big"
                            )
                            dpos += 4
                            bits += 32
                            acc &= 0xFFFFFFFFFFFF
                        p16 = (acc >> (bits - 16)) & 0xFFFF
                        s = dc_sym[p16]
                        bits -= dc_len[p16]
                        if s:
                            if bits < s:
                                acc = (acc << 32) | int.from_bytes(
                                    part[dpos : dpos + 4], "big"
                                )
                                dpos += 4
                                bits += 32
                                acc &= 0xFFFFFFFFFFFF
                            v = (acc >> (bits - s)) & ((1 << s) - 1)
                            bits -= s
                            diff = v - (1 << s) + 1 if v < (1 << (s - 1)) else v
                        else:
                            diff = 0
                        pred[cid] += diff
                        cidx.append(bi64)
                        cval.append(pred[cid])
                        k = 1
                        while k < 64:
                            if bits < 16:
                                acc = (acc << 32) | int.from_bytes(
                                    part[dpos : dpos + 4], "big"
                                )
                                dpos += 4
                                bits += 32
                                acc &= 0xFFFFFFFFFFFF
                            p16 = (acc >> (bits - 16)) & 0xFFFF
                            rs = ac_sym[p16]
                            bits -= ac_len[p16]
                            if rs == 0x00:  # EOB
                                break
                            if rs == 0xF0:  # ZRL
                                k += 16
                                continue
                            k += rs >> 4
                            size = rs & 0x0F
                            if k > 63:
                                break
                            if bits < size:
                                acc = (acc << 32) | int.from_bytes(
                                    part[dpos : dpos + 4], "big"
                                )
                                dpos += 4
                                bits += 32
                                acc &= 0xFFFFFFFFFFFF
                            v = (acc >> (bits - size)) & ((1 << size) - 1)
                            bits -= size
                            cidx.append(bi64 + k)
                            cval.append(
                                v - (1 << size) + 1 if v < (1 << (size - 1)) else v
                            )
                            k += 1
                        acc &= (1 << bits) - 1
            mcu_idx += 1
        if mcu_idx >= n_mcu:
            break

    dct = _dct_matrix()
    planes = []
    inv_zz = np.empty(64, dtype=np.int64)
    inv_zz[_ZZ] = np.arange(64)
    for c in comps:
        coef_zz = np.zeros((c["bh"] * c["bw"], 64), dtype=np.int32)
        if c["idx"]:
            flat = np.asarray(c["idx"], dtype=np.int64)
            coef_zz[flat >> 6, flat & 63] = np.asarray(c["val"], dtype=np.int32)
        coef_nat = coef_zz[:, inv_zz]
        qt = qtabs[c["tq"]].reshape(64).astype(np.float64)
        coef = coef_nat.astype(np.float64) * qt[None, :]
        blocks = coef.reshape(-1, 8, 8)
        pix = np.einsum("xu,nuv,yv->nxy", dct.T, blocks, dct.T, optimize=True)
        bw, bh = c["bw"], c["bh"]
        plane = (
            pix.reshape(bh, bw, 8, 8).transpose(0, 2, 1, 3).reshape(bh * 8, bw * 8)
        )
        plane += 128.0
        # upsample to full MCU-grid resolution: triangle filter for 2x
        # (libjpeg "fancy upsampling", weights 3/4 + 1/4), repeat otherwise
        if c["v"] != vmax:
            f = vmax // c["v"]
            if f == 2:
                plane = _upsample2(plane, axis=0)
            else:
                plane = np.repeat(plane, f, axis=0)
        if c["h"] != hmax:
            f = hmax // c["h"]
            if f == 2:
                plane = _upsample2(plane, axis=1)
            else:
                plane = np.repeat(plane, f, axis=1)
        planes.append(plane[: mcus_y * 8 * vmax, : mcus_x * 8 * hmax])

    if len(planes) == 1:
        out = planes[0][:h, :w]
        return np.clip(np.round(out), 0, 255).astype(np.uint8)[:, :, None]
    y, cb, cr = (p[:h, :w] for p in planes)
    r = y + 1.402 * (cr - 128.0)
    g = y - 0.344136286 * (cb - 128.0) - 0.714136286 * (cr - 128.0)
    b = y + 1.772 * (cb - 128.0)
    out = np.stack([r, g, b], axis=2)
    return np.clip(np.round(out), 0, 255).astype(np.uint8)
