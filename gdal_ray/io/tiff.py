"""GeoTIFF codec — pure struct/zlib, no libtiff (the reference's GTiff
driver, ``frmts/gtiff/``, is its most-used raster format; this module
speaks the baseline-TIFF 6.0 + GeoTIFF-1.1 subset that covers
single-band analytic rasters).

Reader: classic TIFF (little- or big-endian), striped or tiled, single
band, compression none(1) / LZW(5) / Deflate(8,32946; ``codec.inflate``)
/ PackBits(32773), horizontal predictor(2), sample formats uint/int/float
at 8/16/32/64 bits. Georeferencing from ModelPixelScale+ModelTiepoint or
ModelTransformation; CRS from the GeoKeyDirectory's
Projected/GeographicTypeGeoKey.

Writer: little-endian, tiled (default 256), Deflate or none, single
band, ModelPixelScale+ModelTiepoint + a minimal GeoKeyDirectory — the
output opens in the reference (gdalinfo/QGIS).

The header exposes per-tile offsets/bytecounts, so a DISTRIBUTED read
shards by tile ranges: each Ray task reads only its tiles' byte ranges
(sources/geotiff.py).
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np

from gdal_ray.io.codec import inflate

__all__ = ["read_tiff_header", "read_tiff_ifds", "read_tile",
           "write_geotiff", "write_geotiff_multi",
           "read_world_file", "write_world_file"]


def _world_paths(path: str):
    base, ext = os.path.splitext(path)
    cands = [base + ".wld"]
    if len(ext) == 4:  # .tif -> .tfw (first+last letter + w, the GDAL rule)
        cands.insert(0, base + "." + ext[1] + ext[3] + "w")
    return cands


def read_world_file(path: str):
    """ESRI world-file sidecar (gcore/gdal_misc.cpp GDALReadWorldFile):
    six lines A D B E C F where (C, F) is the CENTER of the upper-left
    pixel; returns a geotransform or None when no sidecar exists."""
    for wf in _world_paths(path):
        if os.path.exists(wf):
            with open(wf) as fh:
                vals = [float(v) for v in fh.read().split()[:6]]
            if len(vals) != 6:
                return None
            a, d, b, e, c, f = vals
            return [c - a / 2.0 - b / 2.0, a, b,
                    f - d / 2.0 - e / 2.0, d, e]
    return None


def write_world_file(path: str, gt) -> str:
    """Write the sidecar (GDALWriteWorldFile layout) next to ``path``."""
    wf = _world_paths(path)[0]
    cx = gt[0] + gt[1] / 2.0 + gt[2] / 2.0
    cy = gt[3] + gt[4] / 2.0 + gt[5] / 2.0
    with open(wf, "w") as fh:
        fh.write("\n".join(repr(float(v))
                           for v in (gt[1], gt[4], gt[2], gt[5], cx, cy)))
        fh.write("\n")
    return wf

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
              10: 8, 11: 4, 12: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 6: "b", 8: "h", 9: "i", 11: "f",
             12: "d"}


def _read_ifd(buf: bytes, bo: str, ifd_off: int | None = None):
    """Parse one IFD. Returns (tags, next_ifd_offset); ``ifd_off=None``
    starts at the header's first-IFD pointer."""
    if ifd_off is None:
        (ifd_off,) = struct.unpack_from(bo + "I", buf, 4)
    (n,) = struct.unpack_from(bo + "H", buf, ifd_off)
    tags = {}
    for i in range(n):
        e = ifd_off + 2 + 12 * i
        tag, typ, cnt = struct.unpack_from(bo + "HHI", buf, e)
        size = _TYPE_SIZE.get(typ, 1) * cnt
        off = e + 8 if size <= 4 else struct.unpack_from(bo + "I", buf, e + 8)[0]
        if typ == 2:
            tags[tag] = buf[off:off + cnt].split(b"\x00")[0].decode("latin-1")
        elif typ == 5:  # RATIONAL
            vals = struct.unpack_from(bo + "II" * cnt, buf, off)
            tags[tag] = [vals[2 * i] / max(1, vals[2 * i + 1])
                         for i in range(cnt)]
        else:
            fmt = _TYPE_FMT.get(typ)
            if fmt is None:
                continue
            tags[tag] = list(struct.unpack_from(bo + fmt * cnt, buf, off))
    (next_off,) = struct.unpack_from(bo + "I", buf, ifd_off + 2 + 12 * n)
    return tags, next_off


def _read_head_buf(path: str):
    with open(path, "rb") as fh:
        head = fh.read(8)
        if head[:2] == b"II" and head[2] == 42:
            bo = "<"
        elif head[:2] == b"MM" and head[3] == 42:
            bo = ">"
        else:
            raise ValueError("not a classic TIFF (bad magic)")
        # IFD + out-of-line values can sit anywhere; read the file head
        # generously (headers are tiny vs raster payload)
        fh.seek(0)
        buf = fh.read(1 << 20)
        (ifd_off,) = struct.unpack_from(bo + "I", buf, 4)
        if ifd_off + 6 > len(buf):
            fh.seek(0)
            buf = fh.read()
    return buf, bo


def read_tiff_header(path: str) -> dict:
    """Parse the first IFD + geo tags. Returns {w, h, dtype, tile_w,
    tile_h, offsets, bytecounts, compression, predictor, gt, epsg, bo,
    tiled, n_tiles_x, n_tiles_y, nodata}."""
    buf, bo = _read_head_buf(path)
    t, _ = _read_ifd(buf, bo)
    return _hdr_from_tags(t, bo, path)


def read_tiff_ifds(path: str) -> list:
    """Every IFD in the chain as a header dict — multi-image TIFFs are
    how the reference stores external overviews (``.ovr``,
    gcore/gdaldefaultoverviews.cpp): IFD k = overview level k."""
    buf, bo = _read_head_buf(path)
    out = []
    off = None
    while True:
        t, nxt = _read_ifd(buf, bo, off)
        out.append(_hdr_from_tags(t, bo, path))
        if not nxt:
            return out
        if nxt + 6 > len(buf):  # chain ran past the sniffed head
            with open(path, "rb") as fh:
                buf = fh.read()
        off = nxt


def _hdr_from_tags(t: dict, bo: str, path: str) -> dict:
    w, h = t[256][0], t[257][0]
    spp = int(t.get(277, [1])[0])
    if spp > 1 and t.get(284, [1])[0] != 1:
        raise ValueError("multi-band TIFF requires chunky PlanarConfig=1")
    if len(set(t.get(258, [8]))) > 1:
        raise ValueError("per-band BitsPerSample must be uniform")
    bits = t.get(258, [8])[0]
    sfmt = t.get(339, [1])[0]
    kind = {1: "u", 2: "i", 3: "f"}.get(sfmt, "u")
    dtype = np.dtype(f"{bo}{kind}{bits // 8}")
    comp = t.get(259, [1])[0]
    pred = t.get(317, [1])[0]
    if 322 in t:
        tile_w, tile_h = t[322][0], t[323][0]
        offsets, counts = t[324], t[325]
        tiled = True
    else:
        tile_w = w
        tile_h = t.get(278, [h])[0]
        offsets, counts = t[273], t[279]
        tiled = False
    gt = None
    if 34264 in t:
        m = t[34264]
        gt = [m[3], m[0], m[1], m[7], m[4], m[5]]
    elif 33550 in t and 33922 in t:
        sx, sy = t[33550][0], t[33550][1]
        px, py, _, gx, gy, _ = t[33922][:6]
        gt = [gx - px * sx, sx, 0.0, gy + py * sy, 0.0, -sy]
    else:
        gt = read_world_file(path)
    epsg = None
    if 34735 in t:
        gk = t[34735]
        for i in range(4, len(gk), 4):
            key, loc, cnt, val = gk[i:i + 4]
            if key in (3072, 2048) and loc == 0:
                epsg = int(val)
                break
    nodata = None
    if 42113 in t:  # GDAL_NODATA ASCII tag (frmts/gtiff/geotiff.cpp)
        try:
            nodata = float(str(t[42113]).strip())
        except ValueError:
            pass
    colormap = None
    if 320 in t:  # palette image: 3 * 2^bits SHORTs, R block then G then B
        cm = np.asarray(t[320], dtype=np.uint16).reshape(3, -1).T
        colormap = (cm // 257).astype(np.uint8)
    return {
        "colormap": colormap,
        "w": int(w), "h": int(h), "dtype": dtype, "tile_w": int(tile_w),
        "tile_h": int(tile_h), "offsets": [int(o) for o in offsets],
        "bytecounts": [int(c) for c in counts], "compression": int(comp),
        "predictor": int(pred), "gt": gt, "epsg": epsg, "bo": bo,
        "tiled": tiled, "spp": spp, "nodata": nodata,
        "n_tiles_x": (int(w) + int(tile_w) - 1) // int(tile_w),
        "n_tiles_y": (int(h) + int(tile_h) - 1) // int(tile_h),
    }


def _lzw_decode(data: bytes) -> bytes:
    """TIFF-variant LZW (MSB-first codes, ClearCode 256, EOI 257, early
    code-size change — libtiff tif_lzw.c semantics)."""
    out = bytearray()
    dict_ = {}
    next_code, width = 258, 9
    prev = None
    bitbuf, nbits = 0, 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:  # clear
                dict_.clear()
                next_code, width = 258, 9
                prev = None
                continue
            if code == 257:  # EOI
                return bytes(out)
            if prev is None:
                entry = bytes([code])
            elif code < 256:
                entry = bytes([code])
            elif code in dict_:
                entry = dict_[code]
            elif code == next_code:
                entry = prev + prev[:1]
            else:
                raise ValueError("corrupt LZW stream")
            out += entry
            if prev is not None:
                dict_[next_code] = prev + entry[:1]
                next_code += 1
                # early change, decoder side: the decode table lags the
                # encoder's by one entry, so widen at (1<<width)-2
                # (libtiff tif_lzw.c's maxcode convention)
                if next_code >= (1 << width) - 2 and width < 12:
                    width += 1
            prev = entry
    return bytes(out)


def _lzw_encode(data: bytes) -> bytes:
    """TIFF-variant LZW encoder (mirror of _lzw_decode: MSB-first,
    Clear=256, EOI=257, early code-size change)."""
    out = bytearray()
    bitbuf, nbits = 0, 0

    def emit(code, width):
        nonlocal bitbuf, nbits
        bitbuf = (bitbuf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((bitbuf >> (nbits - 8)) & 0xFF)
            nbits -= 8

    table = {bytes([i]): i for i in range(256)}
    next_code, width = 258, 9
    emit(256, width)
    run = b""
    for b in data:
        cand = run + bytes([b])
        if cand in table:
            run = cand
            continue
        emit(table[run], width)
        table[cand] = next_code
        next_code += 1
        if next_code == (1 << width) - 1 and width < 12:
            width += 1
        if next_code >= 4094:
            emit(256, width)
            table = {bytes([i]): i for i in range(256)}
            next_code, width = 258, 9
        run = bytes([b])
    if run:
        emit(table[run], width)
    emit(257, width)
    if nbits:
        out.append((bitbuf << (8 - nbits)) & 0xFF)
    return bytes(out)


def _packbits_encode(data: bytes) -> bytes:
    """Literal-only PackBits (valid, not maximal — runs of <=128
    literals)."""
    out = bytearray()
    for i in range(0, len(data), 128):
        chunk = data[i:i + 128]
        out.append(len(chunk) - 1)
        out += chunk
    return bytes(out)


def _packbits_decode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        n = data[i]
        i += 1
        if n < 128:
            out += data[i:i + n + 1]
            i += n + 1
        elif n > 128:
            out += data[i:i + 1] * (257 - n)
            i += 1
    return bytes(out)


def read_tile(path_or_bytes, hdr: dict, idx: int) -> np.ndarray:
    """Decode tile/strip ``idx`` -> (tile_h, tile_w) array, or
    (tile_h, tile_w, spp) for chunky multi-band files (edge tiles padded
    by the format; strips may be short on the last one)."""
    off, cnt = hdr["offsets"][idx], hdr["bytecounts"][idx]
    if isinstance(path_or_bytes, (bytes, bytearray)):
        raw = bytes(path_or_bytes[off:off + cnt])
    else:
        with open(path_or_bytes, "rb") as fh:
            fh.seek(off)
            raw = fh.read(cnt)
    comp = hdr["compression"]
    dt = hdr["dtype"]
    tw = hdr["tile_w"]
    spp = hdr.get("spp", 1)
    if comp == 1:
        data = raw
    elif comp in (8, 32946):
        # a strip holds rows-per-strip rows, the last one only the rest
        rows = (hdr["tile_h"] if hdr["tiled"]
                else min(hdr["tile_h"], hdr["h"] - idx * hdr["tile_h"]))
        data = inflate(raw, rows * tw * spp * dt.itemsize)
    elif comp == 5:
        data = _lzw_decode(raw)
    elif comp == 32773:
        data = _packbits_decode(raw)
    else:
        raise ValueError(f"unsupported TIFF compression {comp}")
    th = (len(data) // (tw * spp * dt.itemsize)
          if not hdr["tiled"] else hdr["tile_h"])
    arr = np.frombuffer(data, dtype=dt, count=tw * th * spp)
    arr = arr.reshape(th, tw, spp) if spp > 1 else arr.reshape(th, tw)
    if hdr["predictor"] == 2:
        # horizontal differencing runs between SAME-sample values of
        # adjacent pixels (tif_predict.c), which in the chunky (th,tw,spp)
        # layout is exactly a cumsum along the pixel axis
        arr = np.cumsum(
            arr.astype({"u": "u8", "i": "i8", "f": arr.dtype}[arr.dtype.kind]),
            axis=1,
        ).astype(dt)
    return arr


def _pack_tags(entries, data_start, next_off: int = 0):
    """entries: [(tag, type, values|bytes)] sorted -> (ifd bytes, out-of
    line data bytes). ``next_off`` chains multi-image files (.ovr)."""
    ifd = struct.pack("<H", len(entries))
    blob = b""
    for tag, typ, vals in sorted(entries):
        if typ == 2:
            payload = vals + b"\x00"
            cnt = len(payload)
        else:
            fmt = _TYPE_FMT[typ]
            cnt = len(vals)
            payload = struct.pack("<" + fmt * cnt, *vals)
        if len(payload) <= 4:
            ifd += struct.pack("<HHI", tag, typ, cnt) + payload.ljust(4, b"\x00")
        else:
            ifd += struct.pack("<HHI", tag, typ, cnt) + struct.pack(
                "<I", data_start + len(blob)
            )
            blob += payload
    ifd += struct.pack("<I", next_off)
    return ifd, blob


def _image_segment(arr: np.ndarray, gt, epsg, tile: int, compress: str,
                   seg_start: int, next_off: int, nodata=None,
                   colormap=None) -> bytes:
    """One image's [IFD][out-of-line data][tiles] bytes, laid out at
    absolute file offset ``seg_start`` with the next-IFD pointer set."""
    arr = np.ascontiguousarray(arr)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != 3:
        raise ValueError("write_geotiff takes (H, W) or (H, W, bands)")
    h, w, spp = arr.shape
    dt = arr.dtype.newbyteorder("<")
    arr = arr.astype(dt)
    sfmt = {"u": 1, "i": 2, "f": 3}[dt.kind]
    ntx = (w + tile - 1) // tile
    nty = (h + tile - 1) // tile
    tiles = []
    for ty in range(nty):
        for tx in range(ntx):
            block = np.zeros((tile, tile, spp), dtype=dt)
            sub = arr[ty * tile:(ty + 1) * tile, tx * tile:(tx + 1) * tile]
            block[:sub.shape[0], :sub.shape[1]] = sub
            raw = block.tobytes()
            if compress == "deflate":
                tiles.append(zlib.compress(raw, 6))
            elif compress == "lzw":
                tiles.append(_lzw_encode(raw))
            elif compress == "packbits":
                tiles.append(_packbits_encode(raw))
            elif compress == "none":
                tiles.append(raw)
            else:
                raise ValueError(f"unsupported compress={compress!r}")
    comp_tag = {"deflate": 8, "lzw": 5, "packbits": 32773, "none": 1}[compress]
    # GeoKeyDirectory: version header + GTModelType (1 projected /
    # 2 geographic, keyed off the EPSG 4xxx block) + the CS-type key
    is_geographic = epsg is not None and 4000 <= epsg < 5000
    gkd = [1, 1, 0, 2,
           1024, 0, 1, 2 if is_geographic else 1,
           2048 if is_geographic else 3072, 0, 1, int(epsg or 32767)]
    photometric = 2 if spp >= 3 else 1
    if colormap is not None:
        if spp != 1 or dt.itemsize != 1:
            raise ValueError("palette TIFF needs a single uint8 band")
        photometric = 3  # palette color
    entries = [
        (256, 3, [w]), (257, 3, [h]), (258, 3, [dt.itemsize * 8] * spp),
        (259, 3, [comp_tag]), (262, 3, [photometric]),
        (277, 3, [spp]), (284, 3, [1]),
        (322, 3, [tile]), (323, 3, [tile]),
        (339, 3, [sfmt] * spp),
    ]
    if colormap is not None:
        # TIFF ColorMap: 3 * 2^bits SHORTs, 8-bit values scaled by 257
        pal = np.zeros((256, 3), dtype=np.uint16)
        cm = np.asarray(colormap, dtype=np.uint16)
        pal[: cm.shape[0]] = cm * 257
        entries.append((320, 3, [int(v) for v in pal.T.ravel()]))
    if spp > 3:
        # unassociated alpha / extra channels (TIFF tag ExtraSamples)
        entries.append((338, 3, [2] * (spp - 3)))
    entries += [
        (33550, 12, [abs(gt[1]), abs(gt[5]), 0.0]),
        (33922, 12, [0.0, 0.0, 0.0, gt[0], gt[3], 0.0]),
        (34735, 3, gkd),
    ]
    if nodata is not None:
        # GDAL_NODATA ASCII tag (frmts/gtiff/geotiff.cpp)
        entries.append((42113, 2, repr(float(nodata)).encode("ascii")))
    # two passes: sizes first (offsets depend on IFD size), then final
    n_entries = len(entries) + 2  # + tile offsets/bytecounts tags
    ifd_size = 2 + 12 * n_entries + 4
    data_start = seg_start + ifd_size
    probe_entries = entries + [
        (324, 4, [0] * len(tiles)), (325, 4, [len(t) for t in tiles]),
    ]
    _, blob = _pack_tags(probe_entries, data_start)
    tiles_start = data_start + len(blob)
    offs, o = [], tiles_start
    for t in tiles:
        offs.append(o)
        o += len(t)
    final_entries = entries + [
        (324, 4, offs), (325, 4, [len(t) for t in tiles]),
    ]
    ifd, blob = _pack_tags(final_entries, data_start, next_off)
    assert len(ifd) == ifd_size
    return ifd + blob + b"".join(tiles)


def write_geotiff(path: str, arr: np.ndarray, gt, epsg: int | None = None,
                  tile: int = 256, compress: str = "deflate",
                  nodata=None, colormap=None) -> None:
    """(H, W) or chunky (H, W, bands) array -> tiled GeoTIFF
    (little-endian, Deflate or uncompressed; multi-band uses
    PlanarConfig=1 with RGB photometric for >=3 bands; ``colormap``
    (n<=256, 3) uint8 writes a palette image)."""
    with open(path, "wb") as fh:
        fh.write(b"II*\x00" + struct.pack("<I", 8))
        fh.write(_image_segment(arr, gt, epsg, tile, compress, 8, 0,
                                nodata=nodata, colormap=colormap))


def write_geotiff_multi(path: str, images, epsg: int | None = None,
                        tile: int = 256, compress: str = "deflate",
                        nodata=None) -> None:
    """Multi-image TIFF: ``images`` = [(arr, gt), ...], one chained IFD
    per image — the layout of the reference's external overview files
    (``.ovr``, gcore/gdaldefaultoverviews.cpp builds a TIFF whose IFD k
    holds overview level k)."""
    if not images:
        raise ValueError("write_geotiff_multi needs at least one image")
    segs = []
    seg_start = 8
    for arr, gt in images:
        # next_off value doesn't change the segment SIZE; probe with 0
        probe = _image_segment(arr, gt, epsg, tile, compress, seg_start, 0,
                               nodata=nodata)
        segs.append((arr, gt, seg_start, len(probe)))
        seg_start += len(probe)
    with open(path, "wb") as fh:
        fh.write(b"II*\x00" + struct.pack("<I", 8))
        for i, (arr, gt, start, size) in enumerate(segs):
            nxt = segs[i + 1][2] if i + 1 < len(segs) else 0
            fh.write(_image_segment(arr, gt, epsg, tile, compress, start,
                                    nxt, nodata=nodata))
