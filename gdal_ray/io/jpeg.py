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

The decoder's only Python loop is the entropy walk: a 16-bit peek and two
table lookups per step of one or two symbols, 0.2-0.35 µs a step on a
1-vCPU Xeon VM (about 2,700 steps for a 114x114 4:4:4 image at q92).
Symbol values, DC prediction, dequantization, IDCT and colour conversion
run as numpy over every block of the stream.
"""

from __future__ import annotations

import re
import struct
from array import array

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
#
# Entropy decode is split in two. The walk (``_walk``) is the only Python
# loop: at the current bit offset it takes the next 16 bits (one numpy pass
# computes them for every offset of the stream), looks up the bits the next
# step consumes and how far it advances the coefficient index, and records
# where the step starts. A step is one symbol, or two when both codes lie in
# the 16 bits. Everything after the walk (symbol and magnitude lookup, sign
# extension, zigzag index, DC prediction, dequantization, IDCT, colour) runs
# as numpy over every symbol of the stream at once.

_END = re.compile(rb"\xff[^\x00\xd0-\xd7]")  # first marker past the scan data
_RST = re.compile(rb"\xff[\xd0-\xd7]")
_PAD = bytes(4)  # after every segment: peeks past its end read zero bits
_SHIFTS = np.arange(8, 0, -1, dtype=np.uint32)
_HALF = (1 << np.arange(16)) >> 1  # EXTEND: a value below 2^(s-1) is negative ...
_SPAN = (1 << np.arange(16)) - 1  # ... and is shifted down by 2^s - 1
_EOB = 128  # step advance of EOB: a block that ends on EOB leaves k in 129..191
# a block ends with k == 64 (filled) or on an EOB; any other k is a paired
# step that ran past the block end (``_unpair``) or a corrupt run
_BAD_END = bytes(64 < k <= 128 or k >= 192 for k in range(256))
_BAD_AC = np.array([(rs & 15) == 0 and rs not in (0x00, 0xF0) for rs in range(256)])

_LUT_CACHE: dict = {}


class _Huff:
    """One Huffman table as tables indexed by the next 16 bits of the
    stream. An unassigned code has length 0 and symbol 0 (an AC one ends the
    block).

    ``code`` (uint16): symbol | code length << 8 | pair << 13. The walk
    tables are bytes: ``adv`` = bits one step consumes, ``dk`` (AC) = the
    step's coefficient index advance (run+1, 16 for ZRL, ``_EOB`` for EOB).
    An AC step takes two symbols (``pair``) when the first is a coefficient
    and the second's code lies inside the same 16 bits; ``adv1``/``dk1``
    are the first symbol's alone."""

    __slots__ = ("key", "code", "adv", "dk", "adv1", "dk1")


def _decode_lut(tc: int, spec: bytes) -> _Huff:
    """The ``_Huff`` of class ``tc`` (0 DC, 1 AC) from its DHT bytes (16
    code counts, then the symbols), cached on them: standard-table streams
    all hit."""
    return memo(_LUT_CACHE, (tc, spec), lambda: _build_lut(tc, spec), 32)


def _build_lut(tc: int, spec: bytes) -> _Huff:
    bits, vals = spec[:16], spec[16:]
    sym = np.zeros(65536, dtype=np.uint8)
    length = np.zeros(65536, dtype=np.uint8)
    code = 0
    k = 0
    for ln in range(1, 17):
        for _ in range(bits[ln - 1]):
            base = code << (16 - ln)
            sym[base : base + (1 << (16 - ln))] = vals[k]
            length[base : base + (1 << (16 - ln))] = ln
            code += 1
            k += 1
        code <<= 1
    t = _Huff()
    t.key = (tc, spec)
    t.code = sym | length.astype(np.uint16) << 8
    if tc == 0:
        if (sym > 15).any():  # libjpeg rejects these tables too
            raise ValueError("corrupt JPEG: DC Huffman value above 15")
        t.adv = (length + sym).tobytes()
        return t
    adv1 = length + (sym & 15)
    dk1 = np.where(sym == 0, _EOB, (sym >> 4) + 1).astype(np.uint8)
    after = (np.arange(65536, dtype=np.uint32) << adv1) & 0xFFFF  # the bits after symbol 1
    len2, sym2 = length[after], sym[after]
    pair = ((sym & 15) > 0) & (len2 > 0) & (adv1 + len2.astype(np.intp) <= 16)
    dk2 = np.where(sym2 == 0, _EOB, (sym2 >> 4) + 1)
    t.adv = np.where(pair, adv1 + len2 + (sym2 & 15), adv1).astype(np.uint8).tobytes()
    t.dk = np.where(pair, dk1 + dk2, dk1).astype(np.uint8).tobytes()
    t.code |= pair.astype(np.uint16) << 13
    t.adv1, t.dk1 = adv1.tobytes(), dk1.tobytes()
    return t


def _dequant(spec: bytes) -> np.ndarray:
    """Natural-order float64 quant table from its DQT bytes (zigzag order;
    1 byte per entry, or 2 big-endian), cached on them."""
    def build():
        t = np.zeros(64)
        t[_ZZ] = np.frombuffer(spec, dtype=">u2" if len(spec) == 128 else np.uint8)
        return t

    return memo(_LUT_CACHE, spec, build, 32)


def _bank(huffs) -> np.ndarray:
    """The ``code`` tables of ``huffs`` end to end (table i at i * 65536)."""
    key = ("bank",) + tuple(h.key for h in huffs)
    return memo(_LUT_CACHE, key, lambda: np.concatenate([h.code for h in huffs]), 32)


class _Frame:
    """One stream's header: size, MCU grid, components
    ``(h, v, natural-order quant table, dc _Huff, ac _Huff)`` in frame
    order, restart interval, and the entropy-coded segments (unstuffed,
    split at RSTn)."""

    __slots__ = ("h", "w", "comps", "ri", "parts", "mx", "my")


def _parse(buf: bytes) -> _Frame:
    if buf[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG (missing SOI)")
    pos = 2
    qtabs: dict[int, np.ndarray] = {}
    huff: dict[tuple[int, int], _Huff] = {}
    sof = None
    h = w = 0
    restart_interval = 0
    scan = None
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
                size = 128 if seg[off] >> 4 else 64
                qtabs[seg[off] & 0x0F] = _dequant(seg[off + 1 : off + 1 + size])
                off += 1 + size
        elif marker == 0xC4:  # DHT
            off = 0
            while off < len(seg):
                nv = sum(seg[off + 1 : off + 17])
                huff[(seg[off] >> 4, seg[off] & 0x0F)] = _decode_lut(seg[off] >> 4, seg[off + 1 : off + 17 + nv])
                off += 17 + nv
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 (baseline/ext seq)
            prec, h, w, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise NotImplementedError("only 8-bit JPEG supported")
            if nc not in (1, 3):
                raise NotImplementedError("only 1- or 3-component JPEG supported")
            sof = [struct.unpack_from("BBB", seg, 6 + 3 * ci) for ci in range(nc)]
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise NotImplementedError("only baseline sequential JPEG supported")
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xDA:  # SOS
            scan = {seg[1 + 2 * ci]: seg[2 + 2 * ci] for ci in range(seg[0])}
            data_start = pos + seglen
            break
        pos += seglen
    if sof is None or scan is None:
        raise ValueError("truncated JPEG (no SOF/SOS)")

    f = _Frame()
    f.h, f.w, f.ri = h, w, restart_interval
    f.comps = [
        (s >> 4, s & 0x0F, qtabs[tq], huff[(0, scan[cid] >> 4)], huff[(1, scan[cid] & 0x0F)])
        for cid, s, tq in sof
    ]
    hmax = max(c[0] for c in f.comps)
    vmax = max(c[1] for c in f.comps)
    f.mx = -(-w // (8 * hmax))
    f.my = -(-h // (8 * vmax))
    m = _END.search(buf, data_start)
    scan_data = buf[data_start : m.start() if m else n]
    f.parts = [p.replace(b"\xff\x00", b"\xff") for p in _RST.split(scan_data)]
    return f


def _walk(peek, q: int, n_mcu: int, spec, dstarts, astarts, unpaired) -> int:
    """Follow ``n_mcu`` MCUs of symbols from bit ``q``, appending where each
    DC symbol and each AC step starts. ``peek[q]`` is the 16 bits at bit
    ``q``; ``spec`` has one ``(dc adv, ac dk, ac adv, ac _Huff)`` per block
    of the MCU. Returns the bit offset after the last block."""
    dput, aput, bad_end = dstarts.append, astarts.append, _BAD_END
    for _ in range(n_mcu):
        for dadv, dk, aadv, ac in spec:
            dput(q)
            q += dadv[peek[q]]
            k = 1
            while k < 64:
                aput(q)
                p = peek[q]
                k += dk[p]
                q += aadv[p]
            if bad_end[k]:
                q = _unpair(peek, astarts, unpaired, ac, k)
    return q


def _unpair(peek, astarts, unpaired, ac: _Huff, k: int) -> int:
    """The block's last step took two symbols but the first already filled
    the block (a coefficient at zigzag 63, so no EOB): the second is the
    next block's. Records the step as one symbol; returns the bit offset
    after it."""
    q = astarts[-1]
    p = peek[q]
    if k - ac.dk[p] + ac.dk1[p] != 64:
        raise ValueError("corrupt JPEG: AC run past the block end")
    unpaired.append(len(astarts) - 1)
    return q + ac.adv1[p]


def _symbols(peek, starts, bank, toff):
    """(symbol, signed value) of the symbols starting at bits ``starts``,
    each decoded by the bank table at offset ``toff``. The low nibble of a
    symbol is its magnitude size: for DC symbols (<= 15) that is the symbol."""
    e = bank[peek[starts] + toff]
    ln = (e >> 8) & 31
    if not ln.all():
        raise ValueError("corrupt JPEG: invalid Huffman code")
    rs = (e & 0xFF).astype(np.intp)
    s = rs & 15
    v = peek[starts + ln] >> (16 - s)
    return rs, v - (v < _HALF[s]) * _SPAN[s]  # T.81 EXTEND


def _idct(coef: np.ndarray) -> np.ndarray:
    """(n, 64) dequantized natural-order coefficients -> (n, 8, 8) samples."""
    d = _dct_matrix()
    return d.T @ coef.reshape(-1, 8, 8) @ d


def decode_jpeg(buf: bytes) -> np.ndarray:
    """JFIF bytes -> uint8 (H, W, C). Baseline sequential (SOF0/1) only;
    raises ValueError on a truncated or corrupt scan."""
    f = _parse(buf)
    comps = f.comps
    ncomp = len(comps)
    # component of each block of an MCU, in decode order
    slot = [ci for ci, c in enumerate(comps) for _ in range(c[0] * c[1])]
    bpm = len(slot)
    n_mcu = f.mx * f.my
    ri = f.ri or n_mcu

    # the entropy-coded segments end to end, peeked at every bit offset
    pieces, segs, off = [], [], 0
    for p in f.parts:
        pieces += (p, _PAD)
        segs.append((off * 8, (off + len(p)) * 8))
        off += len(p) + len(_PAD)
    a = np.frombuffer(b"".join(pieces), dtype=np.uint8).astype(np.uint32)
    peek = (((a[:-2] << 16) | (a[1:-1] << 8) | a[2:])[:, None] >> _SHIFTS).astype(np.uint16).ravel()

    dstarts, astarts, unpaired = array("q"), array("q"), []
    spec = [(comps[ci][3].adv, comps[ci][4].dk, comps[ci][4].adv, comps[ci][4]) for ci in slot]
    peek_at = memoryview(peek)
    done = 0
    for s0, s1 in segs:
        if done == n_mcu:
            break
        n = min(ri, n_mcu - done)
        try:
            q = _walk(peek_at, s0, n, spec, dstarts, astarts, unpaired)
        except IndexError:
            q = s1 + 1
        if q > s1:
            raise ValueError("corrupt JPEG: entropy-coded segment overruns its data")
        done += n
    if done < n_mcu:
        raise ValueError("truncated JPEG: entropy-coded data ends early")
    dpos = np.frombuffer(dstarts, dtype=np.int64)
    steps = np.frombuffer(astarts, dtype=np.int64)
    nblk = len(dpos)

    # every symbol decodes through its block's tables, which sit in the bank
    # at an offset per MCU column; a paired AC step's second symbol starts
    # where its first ends
    huffs = list({id(h): h for c in comps for h in c[3:]}.values())
    tid = {id(h): i * 65536 for i, h in enumerate(huffs)}
    bank = _bank(huffs)
    col = np.arange(nblk) % bpm
    dc_off, ac_off = np.array([[tid[id(comps[ci][3])], tid[id(comps[ci][4])]] for ci in slot]).T
    sblk = dpos.searchsorted(steps) - 1
    ac_off = ac_off[col[sblk]]
    e = bank[peek[steps] + ac_off]
    paired = (e >> 13).astype(bool)
    paired[unpaired] = False
    e = e[paired]
    second = steps[paired] + ((e >> 8) & 31) + (e & 15)
    nsteps = len(steps)
    rs, val = _symbols(peek, np.concatenate([dpos, steps, second]), bank,
                       np.concatenate([dc_off[col], ac_off, ac_off[paired]]))
    diff, rs, val = val[:nblk], rs[nblk:], val[nblk:]

    # DC: running sum of each component's differences in decode order,
    # restarting at every restart interval
    comp, rows = np.array(slot)[col], np.arange(nblk)
    onehot = np.zeros((nblk, ncomp), dtype=np.int64)
    onehot[rows, comp] = diff
    run = onehot.cumsum(axis=0)
    if ri < n_mcu:
        first = np.arange(0, nblk, ri * bpm)
        run -= (run[first] - onehot[first]).repeat(np.diff(first, append=nblk), axis=0)
    dc = run[rows, comp]

    # AC: a symbol's zigzag index is its block's running sum of index
    # advances (run + 1) through it; a coefficient is a symbol with a
    # magnitude (its value is never 0)
    if _BAD_AC[rs].any():
        raise ValueError("corrupt JPEG: AC symbol with no magnitude")
    adv = (rs >> 4) + 1
    step = adv[:nsteps].copy()
    step[paired] += adv[nsteps:]
    zz = step.cumsum()
    zz -= (zz - step)[steps.searchsorted(dpos)][sblk]
    zz = np.concatenate([zz - step + adv[:nsteps], zz[paired]])
    blk = np.concatenate([sblk, sblk[paired]])
    nz = val != 0
    blk, zz, val = blk[nz], zz[nz], val[nz]
    if len(zz) and zz.max() > 63:
        raise ValueError("corrupt JPEG: AC coefficient past the block end")
    nat = _ZZ[zz]

    # dequantize (each MCU column has its component's table) into one plane
    # of blocks per MCU column, and transform
    qt = np.array([comps[ci][2] for ci in slot])
    coef = np.zeros((bpm, n_mcu, 64))
    coef[:, :, 0] = (dc * qt[col, 0]).reshape(n_mcu, bpm).T
    bcol = col[blk]
    coef.ravel()[(bcol * n_mcu + blk // bpm) * 64 + nat] = val * qt.ravel()[bcol * 64 + nat]
    pix = _idct(coef)
    pix += 128.0
    return _assemble(f, pix.reshape(bpm, f.my, f.mx, 8, 8), slot)


def _to_u8(x: np.ndarray) -> np.ndarray:
    """Round half to even, clip to 0..255, cast (``x`` is overwritten)."""
    np.rint(x, out=x)
    np.maximum(x, 0.0, out=x)
    np.minimum(x, 255.0, out=x)
    return x.astype(np.uint8)


def _ycc_u8(planes) -> np.ndarray:
    """Y, or Y Cb Cr, sample planes -> uint8 gray or R G B planes, stacked on
    a new first axis (the planes may be overwritten)."""
    if len(planes) == 1:
        return _to_u8(planes[0][None])
    y, cb, cr = planes
    cb = cb - 128.0
    cr = cr - 128.0
    rgb = np.empty((3,) + y.shape)
    np.add(y, 1.402 * cr, out=rgb[0])
    np.subtract(y, 0.344136286 * cb, out=rgb[1])
    rgb[1] -= 0.714136286 * cr
    np.add(y, 1.772 * cb, out=rgb[2])
    return _to_u8(rgb)


def _assemble(f: _Frame, pix: np.ndarray, slot) -> np.ndarray:
    """``pix`` (block of the MCU, MCU row, MCU column, 8, 8) samples -> the
    uint8 image: lay each component's blocks out as a plane, upsample a
    subsampled one to the MCU grid (triangle filter for 2x, libjpeg "fancy
    upsampling"; repeat otherwise), crop and colour-convert."""
    hmax = max(c[0] for c in f.comps)
    vmax = max(c[1] for c in f.comps)
    planes = []
    for ci, (ch, cv, *_) in enumerate(f.comps):
        j = slot.index(ci)
        plane = pix[j : j + ch * cv].reshape(cv, ch, f.my, f.mx, 8, 8)
        plane = plane.transpose(2, 0, 4, 3, 1, 5).reshape(f.my * cv * 8, f.mx * ch * 8)
        for axis, fac in ((0, vmax // cv), (1, hmax // ch)):
            if fac == 2:
                plane = _upsample2(plane, axis=axis)
            elif fac > 1:
                plane = np.repeat(plane, fac, axis=axis)
        planes.append(plane[: f.h, : f.w])
    px = _ycc_u8(planes)
    img = np.empty(px.shape[1:] + (len(px),), dtype=np.uint8)
    for c in range(len(px)):
        img[..., c] = px[c]
    return img
