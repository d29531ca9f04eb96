"""Codec + hash + checksum kernel tests."""

import numpy as np
import pytest

from gdal_ray.fixtures import oracle as O
from gdal_ray.io import codec as C
from gdal_ray.io import phash as PH
from gdal_ray.raster.checksum import checksum_image


def test_png_roundtrip_rgb_gray_rgba(inflate_backends):
    for backend in inflate_backends():
        rng = np.random.default_rng(5)
        for shape in [(33, 47, 3), (64, 64, 1), (17, 9, 4), (128, 256, 3)]:
            img = rng.integers(0, 256, shape, dtype=np.uint8)
            out = C.decode_png(C.encode_png(img))
            assert (out == img).all(), backend


def test_png_decoder_handles_up_filter(inflate_backends):
    # hand-build a PNG with filter type 2 (Up) rows
    import struct
    import zlib

    img = np.arange(24, dtype=np.uint8).reshape(3, 8)
    raw = bytearray()
    prev = np.zeros(8, np.uint8)
    for y in range(3):
        raw.append(2)
        raw.extend((img[y] - prev).astype(np.uint8).tobytes())
        prev = img[y]
    ihdr = struct.pack(">IIBBBBB", 8, 3, 8, 0, 0, 0, 0)
    blob = (
        b"\x89PNG\r\n\x1a\n"
        + C._chunk(b"IHDR", ihdr)
        + C._chunk(b"IDAT", zlib.compress(bytes(raw)))
        + C._chunk(b"IEND", b"")
    )
    for backend in inflate_backends():
        assert (C.decode_png(blob)[:, :, 0] == img).all(), backend


def test_qlossy_psnr_above_40db(inflate_backends):
    # legacy round-2 stand-in blobs must stay decodable (cached corpora)
    rng = np.random.default_rng(6)
    img = rng.integers(0, 256, (96, 80, 3), dtype=np.uint8)
    blob = C.encode_qlossy(img)
    decoded = [C.decode_qlossy(blob) for _ in inflate_backends()]
    assert all(np.array_equal(d, decoded[0]) for d in decoded)
    assert C.psnr(img, decoded[0]) >= 40.0


def test_jpeg_container_structure():
    """The encoder emits REAL JFIF: marker walk finds SOI/APP0/DQT/SOF0/
    DHT/SOS/EOI with spec-conformant lengths (frmts/jpeg/jpgdataset.cpp
    would accept this stream)."""
    import struct

    from gdal_ray.fixtures.generate import make_image

    buf = C.encode_jpeg(make_image(42, 3, 48, 32))
    assert buf[:2] == b"\xff\xd8" and buf[-2:] == b"\xff\xd9"
    pos = 2
    seen = []
    while pos < len(buf) - 2:
        assert buf[pos] == 0xFF
        marker = buf[pos + 1]
        seen.append(marker)
        (ln,) = struct.unpack_from(">H", buf, pos + 2)
        if marker == 0xDA:  # SOS: entropy data follows
            break
        pos += 2 + ln
    assert seen[:2] == [0xE0, 0xDB] and 0xC0 in seen and 0xC4 in seen and seen[-1] == 0xDA
    # SOF0 dims
    sof = buf.index(b"\xff\xc0")
    prec, h, w, nc = struct.unpack_from(">BHHB", buf, sof + 4)
    assert (prec, h, w, nc) == (8, 32, 48, 3)


def test_jpeg_roundtrip_psnr_above_40db():
    """Decode-vs-source PSNR >= 40 dB (the BASELINE.json lossy gate) on
    corpus-statistics images, q92 4:4:4 as the fixture generator encodes."""
    from gdal_ray.fixtures.generate import make_image

    for i, (h, w) in ((1, (64, 64)), (9, (128, 96)), (13, (256, 128))):
        img = make_image(42, i, w, h)
        out = C.decode_image(C.encode_jpeg(img), "jpeg")
        assert out.shape == img.shape
        assert C.psnr(img, out) >= 40.0


def test_jpeg_gray_and_subsampled_paths():
    from gdal_ray.fixtures.generate import make_image
    from gdal_ray.io.jpeg import decode_jpeg, encode_jpeg

    # constant gray: DC-only blocks reconstruct exactly
    g = np.full((24, 40), 131, np.uint8)
    out = decode_jpeg(encode_jpeg(g, quality=90))
    assert out.shape == (24, 40, 1) and int(np.abs(out[:, :, 0].astype(int) - 131).max()) == 0
    # 4:2:0 with odd dimensions decodes at the right size and decent fidelity
    img = make_image(42, 21, 99, 67)
    out = decode_jpeg(encode_jpeg(img, quality=92, subsample=True))
    assert out.shape == img.shape
    assert C.psnr(img, out) >= 33.0


def test_decode_image_dispatch_and_unknown_fmt():
    img = np.zeros((8, 8, 3), np.uint8)
    assert C.decode_image(C.encode_png(img), "png").shape == (8, 8, 3)
    # sniffing: both legacy qlossy and real JFIF blobs dispatch under "jpeg"
    assert C.decode_image(C.encode_qlossy(img), "jpeg").shape == (8, 8, 3)
    assert C.decode_image(C.encode_jpeg(img), "jpeg").shape == (8, 8, 3)
    with pytest.raises(NotImplementedError):
        C.decode_image(b"xxxx", "tiff")


def test_phash_stability_and_sensitivity():
    rng = np.random.default_rng(7)
    img = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    near = np.clip(img.astype(np.int16) + rng.integers(-1, 2, img.shape), 0, 255).astype(np.uint8)
    other = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
    h, hn, ho = PH.phash64(img), PH.phash64(near), PH.phash64(other)
    assert PH.hamming64(h, hn) <= 2
    assert PH.hamming64(h, ho) > 10


def test_checksum_matches_scalar_oracle():
    rng = np.random.default_rng(8)
    arr = rng.integers(-5, 300, (37, 53)).astype(np.int32)
    assert checksum_image(arr) == O.checksum_scalar(arr.ravel().tolist())
    # float path: +0.5-floor conversion
    f = arr.astype(np.float64) + 0.25
    conv = np.floor(f + 0.5).astype(np.int64)
    assert checksum_image(f) == O.checksum_scalar(conv.ravel().tolist())


def test_png_16bit_roundtrip(inflate_backends):
    """16-bit gray + RGB PNGs round-trip exactly (big-endian samples)."""
    from gdal_ray.io.codec import decode_png, encode_png

    for backend in inflate_backends():
        rng = np.random.default_rng(81)
        g = rng.integers(0, 65536, (33, 47)).astype(np.uint16)
        out = decode_png(encode_png(g))
        assert out.dtype == np.uint16 and out.shape == (33, 47, 1), backend
        assert np.array_equal(out[:, :, 0], g), backend
        rgb = rng.integers(0, 65536, (20, 21, 3)).astype(np.uint16)
        out = decode_png(encode_png(rgb))
        assert out.dtype == np.uint16 and np.array_equal(out, rgb), backend


def test_png_16bit_sub_filter(inflate_backends):
    """Hand-built 16-bit PNG with the Sub filter: the byte-wise bpp=2
    left-neighbor defilter reconstructs the samples exactly."""
    import struct
    import zlib

    from gdal_ray.io.codec import _PNG_SIG, _chunk, decode_png

    vals = np.array([[1000, 1500, 2000, 64000],
                     [0, 65535, 300, 301]], dtype=np.uint16)
    h, w = vals.shape
    be = vals.astype(">u2").view(np.uint8).reshape(h, w * 2)
    rows = []
    for y in range(h):
        line = be[y].astype(np.int32)
        filt = line.copy()
        for x in range(len(line) - 1, 1, -1):
            filt[x] = (line[x] - line[x - 2]) % 256
        rows.append(bytes([1]) + bytes(filt.astype(np.uint8)))
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)
    buf = (_PNG_SIG + _chunk(b"IHDR", ihdr)
           + _chunk(b"IDAT", zlib.compress(b"".join(rows)))
           + _chunk(b"IEND", b""))
    for backend in inflate_backends():
        assert np.array_equal(decode_png(buf)[:, :, 0], vals), backend


def test_png_palette_with_trns(inflate_backends):
    """8-bit palette PNG expands through PLTE (+tRNS alpha) to RGBA."""
    import struct
    import zlib

    from gdal_ray.io.codec import _PNG_SIG, _chunk, decode_png

    idx = np.array([[0, 1, 2], [2, 1, 0]], dtype=np.uint8)
    plte = bytes([255, 0, 0, 0, 255, 0, 0, 0, 255])
    trns = bytes([10, 200])  # entry 2 defaults to opaque
    h, w = idx.shape
    raw = b"".join(bytes([0]) + bytes(idx[y]) for y in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 3, 0, 0, 0)
    buf = (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"PLTE", plte)
           + _chunk(b"tRNS", trns)
           + _chunk(b"IDAT", zlib.compress(raw)) + _chunk(b"IEND", b""))
    # without tRNS: plain RGB
    buf_rgb = (_PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"PLTE", plte)
               + _chunk(b"IDAT", zlib.compress(raw)) + _chunk(b"IEND", b""))
    for backend in inflate_backends():
        out = decode_png(buf)
        assert out.shape == (2, 3, 4), backend
        assert tuple(out[0, 0]) == (255, 0, 0, 10)
        assert tuple(out[0, 1]) == (0, 255, 0, 200)
        assert tuple(out[0, 2]) == (0, 0, 255, 255)
        out2 = decode_png(buf_rgb)
        assert out2.shape == (2, 3, 3) and tuple(out2[1, 0]) == (0, 0, 255)


def _jpeg_cases():
    """(kind, buf) for a seeded set of encoder outputs: gray, 4:4:4 and
    4:2:0, odd sizes, qualities 20..99, smooth and noisy content."""
    from gdal_ray.fixtures.generate import make_image
    from gdal_ray.io.jpeg import encode_jpeg

    rng = np.random.default_rng(2024)
    out = []
    for i in range(36):
        kind = ("gray", "444", "420")[i % 3]
        w, h = (int(v) for v in rng.integers(1, 90, 2))
        q = int(rng.choice([20, 50, 75, 92, 99]))
        if i % 4 == 3:  # noise: dense blocks, coefficients up to zigzag 63
            img = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        else:
            img = make_image(7, i, w, h)
        if kind == "gray":
            img = img[:, :, 0]
        out.append((kind, encode_jpeg(img, quality=q, subsample=(kind == "420"))))
    return out


# sha256 over (shape, pixels) of each kind's decodes, as decoded by the
# per-symbol reference decoder this codec had before its table-driven walk
_JPEG_DIGESTS = {
    "gray": "dcf0313fc04d4c8e2c8fe5d42c2fa161ae7945f97123f9ffc7b598b2543e1586",
    "444": "af988dbaa32ef5b77a4958913cdf61aa06fbefb65f4637dde5fbec1abc965acb",
    "420": "d3aaf4d9f6ee03eddd29bd36882bd353746eeaf9d6a94787f360fe4f3b465e7d",
}


def test_jpeg_decode_pinned_digests():
    """Decoded pixels are bit-identical to the pinned reference."""
    import hashlib

    from gdal_ray.io.jpeg import decode_jpeg

    got = {}
    for kind, buf in _jpeg_cases():
        one = decode_jpeg(buf)
        assert one.dtype == np.uint8
        h = got.setdefault(kind, hashlib.sha256())
        h.update(repr(one.shape).encode())
        h.update(one.tobytes())
    assert {k: h.hexdigest() for k, h in got.items()} == _JPEG_DIGESTS


def _markers(buf):
    """{marker: offset} of the JFIF header segments up to SOS."""
    import struct

    pos, seen = 2, {}
    while True:
        seen[buf[pos + 1]] = pos
        if buf[pos + 1] == 0xDA:
            return seen
        pos += 2 + struct.unpack_from(">H", buf, pos + 2)[0]


def _restart_stream(img, quality):
    """A 4:4:4 JPEG of ``img`` with one restart interval per MCU row: each
    8-pixel row is encoded on its own (same tables), and their entropy
    segments are joined with RST0..7 under DRI = MCUs per row."""
    import struct

    from gdal_ray.io.jpeg import encode_jpeg

    h, w = img.shape[:2]
    strips = [encode_jpeg(img[y : y + 8], quality=quality, subsample=False) for y in range(0, h, 8)]

    def scan(buf):
        sos = _markers(buf)[0xDA]
        return buf[sos + 2 + struct.unpack_from(">H", buf, sos + 2)[0] : -2]  # EOI dropped

    head = strips[0][: _markers(strips[0])[0xDA]]
    sof = _markers(strips[0])[0xC0]
    head = head[: sof + 5] + struct.pack(">H", h) + head[sof + 7 :]
    dri = b"\xff\xdd" + struct.pack(">HH", 4, -(-w // 8))
    sos_seg = strips[0][_markers(strips[0])[0xDA] : len(strips[0]) - len(scan(strips[0])) - 2]
    data = b"".join(
        (bytes([0xFF, 0xD0 + (i - 1) % 8]) if i else b"") + scan(s) for i, s in enumerate(strips)
    )
    return head + dri + sos_seg + data + b"\xff\xd9", strips


def test_jpeg_restart_intervals():
    """RSTn markers split the scan into restart intervals, each starting
    its DC predictions from 0: the stream decodes to its strips stacked."""
    from gdal_ray.fixtures.generate import make_image
    from gdal_ray.io.jpeg import decode_jpeg

    img = make_image(42, 5, 37, 77)  # 10 MCU rows: RST0..7 wrap around
    buf, strips = _restart_stream(img, quality=85)
    assert buf.count(b"\xff\xd0") == 2 and b"\xff\xdd" in buf
    want = np.vstack([decode_jpeg(s) for s in strips])
    got = decode_jpeg(buf)
    assert got.shape == img.shape and np.array_equal(got, want)


def test_jpeg_truncated_scan_raises():
    from gdal_ray.fixtures.generate import make_image
    from gdal_ray.io.jpeg import decode_jpeg, encode_jpeg

    buf = encode_jpeg(make_image(42, 3, 40, 40))
    for cut in (len(buf) // 2, len(buf) - 40, 30):
        with pytest.raises(ValueError):
            decode_jpeg(buf[:cut])


def test_inflate_contract(inflate_backends):
    """Exact-size writable output, trailing bytes ignored, and the backend
    named by ``inflate_backend``."""
    import zlib

    raw = bytes(range(256)) * 40
    stream = zlib.compress(raw)
    for backend in inflate_backends():
        assert C.inflate_backend().split()[0] == backend
        for data in (stream, stream + b"trailing bytes", bytearray(stream)):
            out = C.inflate(data, len(raw))
            assert out.dtype == np.uint8 and out.flags.writeable, backend
            assert out.tobytes() == raw, backend
        assert C.inflate(zlib.compress(b""), 0).size == 0


def _png_parts(buf):
    """[(tag, payload)] of a PNG's chunks."""
    import struct

    off, parts = 8, []
    while off < len(buf):
        (n,) = struct.unpack_from(">I", buf, off)
        parts.append((buf[off + 4 : off + 8], buf[off + 8 : off + 8 + n]))
        off += 12 + n
    return parts


def _png_from_parts(parts):
    return C._PNG_SIG + b"".join(C._chunk(tag, payload) for tag, payload in parts)


def _error_type(fn, *args):
    try:
        fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is what is compared
        return type(e)
    return None


def test_inflate_errors_match_across_backends(inflate_backends):
    """A bad checksum, every truncation of a stream and an IHDR whose size
    disagrees with the data raise the same type on both backends: zlib.error
    for a broken stream, ValueError for a valid one of the wrong size."""
    import struct
    import zlib

    rng = np.random.default_rng(11)
    img = (rng.integers(0, 8, (40, 50, 3)) * (rng.random((40, 50, 3)) < 0.3)).astype(np.uint8)
    parts = _png_parts(C.encode_png(img))
    ihdr, idat = parts[0][1], parts[1][1]
    w, h = struct.unpack_from(">II", ihdr)

    def with_idat(data):
        return _png_from_parts([parts[0], (b"IDAT", data), parts[2]])

    def with_height(rows):
        return _png_from_parts([(b"IHDR", struct.pack(">II", w, rows) + ihdr[8:])] + parts[1:])

    cases = {"adler32": with_idat(idat[:-1] + bytes([idat[-1] ^ 1])),
             "more rows": with_height(h + 1), "fewer rows": with_height(h - 1)}
    cases.update({f"cut {k}": with_idat(idat[:-k]) for k in range(1, len(idat) - 2)})
    got = {b: {name: _error_type(C.decode_png, buf) for name, buf in cases.items()}
           for b in inflate_backends()}
    want = {name: zlib.error for name in cases}
    want["more rows"] = want["fewer rows"] = ValueError
    for backend, errors in got.items():
        assert errors == want, backend


def test_corpus_png_payloads_decode_identically(inflate_backends):
    """Every PNG payload of the seed-1 1,000-image corpus decodes to the
    same array on both backends."""
    import os

    import pyarrow.parquet as pq

    from gdal_ray.fixtures.generate import generate_corpus

    images = os.path.join(generate_corpus(1000, seed=1), "images.parquet")
    t = pq.read_table(images, columns=["fmt", "bytes"])
    blobs = [b for f, b in zip(t["fmt"].to_pylist(), t["bytes"].to_pylist()) if f == "png"]
    assert len(blobs) > 500
    decoded = [[C.decode_png(b) for b in blobs] for _ in inflate_backends()]
    for arrs in decoded[1:]:
        for a, b in zip(decoded[0], arrs):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_inflate_threads_use_their_own_decompressor():
    """Two threads decoding PNGs at once through libdeflate both return
    correct arrays (a shared decompressor would corrupt them)."""
    import sys
    import threading

    if C._libdeflate() is None:
        pytest.skip("libdeflate is not installed")
    rng = np.random.default_rng(12)
    imgs = [rng.integers(0, 256, (64 + i, 48, 3), dtype=np.uint8) for i in range(8)]
    blobs = [C.encode_png(im) for im in imgs]
    start = threading.Barrier(2)
    bad, used = [], set()

    def work():
        start.wait()
        for _ in range(50):
            for im, blob in zip(imgs, blobs):
                if not np.array_equal(C.decode_png(blob), im):
                    bad.append(threading.get_ident())
        used.add(C._THREAD.decompressor.ptr)

    threads = [threading.Thread(target=work) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad
    assert len(used) == 2
