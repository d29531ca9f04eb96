"""Image codecs for the binary payload column.

The container has no imaging libraries (no PIL / libjpeg / GDAL drivers), so:

- ``png``: a real, self-contained PNG codec (numpy + zlib streams). Writes
  filter-0 scanlines; reads any of the five standard filters, 8-bit
  grayscale / RGB / RGBA. Lossless — decoded pixels are compared with
  exact ``allclose`` in tests.
- ``jpeg``: a REAL baseline JFIF codec (gdal_ray.io.jpeg: 8x8 DCT, Annex-K
  tables, canonical Huffman, byte-stuffed entropy stream) — the pure-numpy
  replacement for the reference's libjpeg driver
  (``frmts/jpeg/jpgdataset.cpp``). The corpus encodes at quality 92 4:4:4
  so decode-vs-reference PSNR clears the 40 dB oracle gate with margin.
  The legacy round-2 "qlossy" stand-in blobs still decode (magic-sniffed)
  so cached corpora remain readable.

Every zlib stream whose inflated size the caller knows (PNG IDAT, qlossy,
TIFF deflate strips and tiles, the tile pyramid's partials) goes through
``inflate``. It binds the system libdeflate once per process through
ctypes, as GDAL's ``CPLZLibInflateEx`` does when built with it
(``port/cpl_vsil_gzip.cpp``), and falls back to ``zlib.decompress`` when
the library or its symbols cannot be loaded. Both backends inflate
byte-identical output; ``inflate_backend()`` names the one in use.
Encoding stays on zlib, so written bytes do not depend on the host.

This replaces GDAL's raster driver layer for the image payload (the
reference registers ~153 codecs, ``frmts/gdalallregister.cpp:111``); our
corpus carries encoded bytes + ``fmt`` per row instead of driver-dispatched
files.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import functools
import struct
import threading
import zlib

import numpy as np

__all__ = [
    "encode_png",
    "decode_png",
    "encode_jpeg",
    "encode_qlossy",
    "decode_qlossy",
    "decode_image",
    "psnr",
    "inflate",
    "inflate_backend",
]

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_QL_MAGIC = b"QLS1"


@functools.cache
def _libdeflate():
    """The system libdeflate with its inflate symbols typed, or None when
    the library or a symbol cannot be loaded."""
    name = ctypes.util.find_library("deflate")
    if name is None:
        return None
    try:
        lib = ctypes.CDLL(name)
        lib.libdeflate_alloc_decompressor.argtypes = []
        lib.libdeflate_alloc_decompressor.restype = ctypes.c_void_p
        lib.libdeflate_free_decompressor.argtypes = [ctypes.c_void_p]
        lib.libdeflate_free_decompressor.restype = None
        lib.libdeflate_zlib_decompress.argtypes = [
            ctypes.c_void_p, ctypes.c_char_p, ctypes.c_size_t,
            ctypes.c_void_p, ctypes.c_size_t, ctypes.POINTER(ctypes.c_size_t)]
        lib.libdeflate_zlib_decompress.restype = ctypes.c_int
    except (OSError, AttributeError):
        return None
    return lib


class _Decompressor:
    """One thread's libdeflate decompressor. Each call builds its Huffman
    tables inside the decompressor, so one must never be shared between
    threads."""

    def __init__(self, lib):
        self.ptr = lib.libdeflate_alloc_decompressor()
        if not self.ptr:
            raise MemoryError("libdeflate_alloc_decompressor")
        self._free = lib.libdeflate_free_decompressor

    def __del__(self):
        self._free(self.ptr)


_THREAD = threading.local()


def inflate_backend() -> str:
    """Name of the library ``inflate`` runs on: ``libdeflate`` or, where
    it cannot be loaded, ``zlib <version>``."""
    return "libdeflate" if _libdeflate() is not None else f"zlib {zlib.ZLIB_RUNTIME_VERSION}"


def inflate(data: bytes, size: int) -> np.ndarray:
    """Inflate the zlib stream ``data`` into a writable uint8 array of
    exactly ``size`` bytes. Bytes after the stream are ignored. Raises
    ``zlib.error`` on a corrupt or truncated stream and ``ValueError``
    when a valid stream inflates to more or fewer than ``size`` bytes.

    libdeflate inflates into the array in one call. Any stream it does not
    inflate to exactly ``size`` bytes is handed to zlib, which raises: on
    a truncated stream libdeflate may report either bad data or a full
    output buffer, so zlib alone decides which error a stream gets."""
    lib = _libdeflate()
    if not isinstance(data, bytes):
        data = bytes(data)
    if lib is not None:
        d = getattr(_THREAD, "decompressor", None)
        if d is None:
            d = _THREAD.decompressor = _Decompressor(lib)
        out = np.empty(size, dtype=np.uint8)
        got = ctypes.c_size_t()
        if (lib.libdeflate_zlib_decompress(d.ptr, data, len(data), out.ctypes.data, size,
                                           ctypes.byref(got)) == 0 and got.value == size):
            return out
    raw = zlib.decompress(data, bufsize=size)
    if len(raw) != size:
        raise ValueError(f"zlib stream inflates to {len(raw)} bytes, expected {size}")
    return np.frombuffer(bytearray(raw), dtype=np.uint8)


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def encode_png(img: np.ndarray, level: int = 6) -> bytes:
    """(H,W) or (H,W,C in {1,3,4}) image -> PNG bytes (filter 0).
    uint16 input writes a 16-bit PNG (big-endian samples per the spec);
    anything else is written as 8-bit."""
    depth = 16 if img.dtype == np.uint16 else 8
    img = np.ascontiguousarray(img, dtype=np.uint16 if depth == 16 else np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    color_type = {1: 0, 3: 2, 4: 6}[c]
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color_type, 0, 0, 0)
    # prepend filter byte 0 to each scanline
    bpr = w * c * (depth // 8)
    body = (img.astype(">u2").view(np.uint8).reshape(h, bpr)
            if depth == 16 else img.reshape(h, bpr))
    raw = np.empty((h, bpr + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = body
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def encode_png_palette(indexes: np.ndarray, palette: np.ndarray,
                       level: int = 6) -> bytes:
    """(H,W) uint8 index image + (n<=256, 3) uint8 palette -> color-type-3
    PNG (PLTE chunk). The decoder side (decode_png) expands palettes, so
    a round trip returns the RGB expansion."""
    idx = np.ascontiguousarray(indexes, dtype=np.uint8)
    if idx.ndim != 2:
        raise ValueError("palette PNG takes a 2-D index image")
    pal = np.ascontiguousarray(palette, dtype=np.uint8)
    if pal.ndim != 2 or pal.shape[1] != 3 or pal.shape[0] > 256:
        raise ValueError("palette must be (n<=256, 3) uint8")
    h, w = idx.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
    raw = np.empty((h, w + 1), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = idx
    idat = zlib.compress(raw.tobytes(), level)
    return (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"PLTE", pal.tobytes())
            + _chunk(b"IDAT", idat) + _chunk(b"IEND", b""))


def _paeth(a, b, c):
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def decode_png(buf: bytes) -> np.ndarray:
    """PNG bytes -> (H, W, C) uint8 (or uint16 for 16-bit files).
    Supports 8/16-bit gray/RGB/RGBA, 8-bit palette (PLTE + optional tRNS
    -> expanded RGB/RGBA like the reference PNG driver), all filters
    (defiltering runs on bytes with the spec's bpp left-neighbor)."""
    if buf[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    off = 8
    idat = []
    w = h = c = None
    depth = 8
    plte = trns = None
    paletted = False
    while off < len(buf):
        (length,) = struct.unpack_from(">I", buf, off)
        tag = buf[off + 4 : off + 8]
        payload = buf[off + 8 : off + 8 + length]
        off += 12 + length
        if tag == b"IHDR":
            w, h, depth, color_type, comp, filt, interlace = struct.unpack(">IIBBBBB", payload)
            if interlace != 0:
                raise ValueError("interlaced PNG not supported")
            if color_type == 3:
                if depth != 8:
                    raise ValueError("only 8-bit palette PNG supported")
                paletted = True
                c = 1
            else:
                if depth not in (8, 16):
                    raise ValueError("only 8/16-bit PNG supported")
                c = {0: 1, 2: 3, 4: 2, 6: 4}[color_type]
        elif tag == b"PLTE":
            plte = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3)
        elif tag == b"tRNS":
            trns = np.frombuffer(payload, dtype=np.uint8)
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    bpp = c * (depth // 8)  # filter left-neighbor offset, in BYTES
    stride = w * bpp + 1
    raw = inflate(b"".join(idat), h * stride).reshape(h, stride)
    filters = raw[:, 0]
    data = raw[:, 1:].copy()
    if not (filters == 0).all():  # our own writer's fast path is all-0
        prev = np.zeros(w * bpp, dtype=np.uint8)
        for y in range(h):
            f = filters[y]
            line = data[y]
            if f == 0:
                pass
            elif f == 2:  # Up
                line += prev
            else:
                # Sub/Average/Paeth need the sequential left neighbor; the
                # filter sums wrap mod 256 by design (uint8 scalars warn)
                with np.errstate(over="ignore"):
                    for x in range(w * bpp):
                        a = line[x - bpp] if x >= bpp else np.uint8(0)
                        b = prev[x]
                        if f == 1:
                            line[x] = line[x] + a
                        elif f == 3:
                            line[x] = line[x] + np.uint8((int(a) + int(b)) // 2)
                        elif f == 4:
                            cc = prev[x - bpp] if x >= bpp else np.uint8(0)
                            line[x] = line[x] + _paeth(
                                np.asarray(a), np.asarray(b), np.asarray(cc)
                            )
            prev = line
    if paletted:
        idx = data.reshape(h, w)
        if plte is None:
            raise ValueError("palette PNG without PLTE")
        if trns is not None:
            alpha = np.full(len(plte), 255, dtype=np.uint8)
            alpha[: len(trns)] = trns
            table = np.concatenate([plte, alpha[:, None]], axis=1)
        else:
            table = plte
        return table[idx]
    if depth == 16:
        arr = data.reshape(h, w * c * 2).view(">u2").astype(np.uint16)
        return arr.reshape(h, w, c)
    return data.reshape(h, w, c)


def encode_qlossy(img: np.ndarray, step: int = 6, level: int = 6) -> bytes:
    """Deterministic lossy stand-in for JPEG (see module docstring).

    Uniform quantization q = round(v/step); decode reconstructs
    min(q*step, 255) so max error is step/2 everywhere including the
    saturated top bucket (no 255 -> 248 collapse). step=6 keeps worst-case
    PSNR comfortably above the 40 dB oracle gate.
    """
    img = np.ascontiguousarray(img, dtype=np.uint8)
    if img.ndim == 2:
        img = img[:, :, None]
    h, w, c = img.shape
    q = ((img.astype(np.uint16) + step // 2) // step).astype(np.uint8)
    payload = zlib.compress(q.tobytes(), level)
    return _QL_MAGIC + struct.pack("<IIBB", w, h, c, step) + payload


def decode_qlossy(buf: bytes) -> np.ndarray:
    if buf[:4] != _QL_MAGIC:
        raise ValueError("not a qlossy blob")
    w, h, c, step = struct.unpack_from("<IIBB", buf, 4)
    q = inflate(buf[14:], w * h * c)
    img = np.minimum(q.astype(np.uint16) * step, 255).astype(np.uint8)
    return img.reshape(h, w, c)


def encode_jpeg(img: np.ndarray, quality: int = 92, subsample: bool = False) -> bytes:
    """Real baseline JFIF encode (gdal_ray.io.jpeg)."""
    from gdal_ray.io.jpeg import encode_jpeg as _enc

    return _enc(img, quality=quality, subsample=subsample)


def decode_image(buf: bytes, fmt: str) -> np.ndarray:
    """Dispatch on the ``fmt`` column; jpeg payloads are sniffed so legacy
    'qlossy' stand-in blobs (round-2 corpora) still decode."""
    if fmt == "png":
        return decode_png(buf)
    if fmt in ("jpeg", "qlossy"):
        if buf[:2] == b"\xff\xd8":
            from gdal_ray.io.jpeg import decode_jpeg

            return decode_jpeg(buf)
        return decode_qlossy(buf)
    raise NotImplementedError(
        f"fmt={fmt!r}: TIFF/WebP decode needs an imaging library not present "
        "in this environment; plug a decoder into gdal_ray.io.codec.decode_image"
    )


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    a = a.astype(np.float64)
    b = b.astype(np.float64)
    mse = np.mean((a - b) ** 2)
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
