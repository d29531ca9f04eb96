"""DuckDB-checkable oracles for the RASTER kernels, via derived grids.

Third wave of the ``derived_geo`` / ``lattice_oracles`` pattern: the
driver's correctness gate only sees the TPC-H-ish views, so each query here
derives a deterministic pixel grid from supplier keys — ``V(k, r, c) =
(k*7 + r*13 + c*5) % 251`` on a ``(12 + k%5) x (16 + k%7)`` grid — and
routes it through the REAL raster kernels (``gdal_ray.raster.kernels``,
``checksum``, ``contour``, ``polygonize``) with an ANSI-SQL twin whose
integers are exact and whose floats follow the identical operation order:

- sums / sumsq / histogram counts are integers < 2^53 (order-independent,
  so Ray's distributed aggregate and DuckDB's SUM agree bit-for-bit);
- the GDALChecksumImage twin replays ``sum(v % prime[i mod 11]) % 65536``
  (alg/gdalchecksum.cpp:48) with a list literal — values are non-negative
  so C-truncated fmod equals SQL ``%``;
- DEM derivatives run on an affine plane ``z = a*r + b*c`` whose Horn
  window sums (apps/gdaldem_lib.cpp:1345) are exact small floats; the
  engine's trailing float32 casts are mirrored with ``CAST(.. AS REAL)``
  (a 1-ulp libm difference in double cannot flip a float32 rounding);
- marching-squares crossings (alg/contour.cpp:568) land strictly inside a
  cell, and the interpolation ``(L - v0) / (v1 - v0)`` is replayed with the
  same operand order.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd  # noqa: F401
from gdal_ray.fixtures.generate import FIXTURE_ROOT
from gdal_ray.sources.corpus import read_parquet_tight as _rpt

__all__ = [
    "q_hillshade_lattice",
    "q_band_stats_lattice",
    "q_histogram_lattice",
    "q_checksum_lattice",
    "q_translate_lattice",
    "q_pixelfn_lattice",
    "q_dem_lattice",
    "q_contour_lattice",
    "q_footprint_lattice",
    "q_polygonize_lattice",
    "q_proximity_lattice",
    "q_cleanup_lattice",
    "q_fillnodata_lattice",
    "q_zonal_lattice",
    "q_point_query_lattice",
    "q_vrt_lattice",
    "q_warp_area_lattice",
    "q_color_relief_lattice",
    "q_overview_rms_lattice",
    "q_bspline_lattice",
    "q_gauss_lattice",
    "grid_for_key",
    "GRID_SQL",
]

import os

_TWO16 = 1 << 16


def _suppliers(sf_dir: str):
    return _rpt(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])


def grid_dims(k: int):
    return 16 + k % 7, 12 + k % 5  # (w, h)


def grid_for_key(k: int) -> np.ndarray:
    """The shared closed-form test grid: V = (k*7 + r*13 + c*5) % 251."""
    w, h = grid_dims(k)
    rr, cc = np.mgrid[0:h, 0:w]
    return (k * 7 + rr * 13 + cc * 5) % 251


# The SQL twin of grid_for_key: one row per (s_suppkey, r, c, v).
GRID_SQL = """
    SELECT s_suppkey AS k, r, c,
           16 + s_suppkey % 7 AS w, 12 + s_suppkey % 5 AS h,
           (s_suppkey*7 + r*13 + c*5) % 251 AS v
    FROM supplier,
         generate_series(0, 16) t1(r), generate_series(0, 22) t2(c)
    WHERE r < 12 + s_suppkey % 5 AND c < 16 + s_suppkey % 7
"""


# --------------------------------------------------------------------------
# Global band statistics (two-phase distributed aggregate, int partials)
# --------------------------------------------------------------------------

def q_band_stats_lattice(sf_dir: str):
    """Exact global band statistics (gcore/gdalrasterband.cpp:5157
    ComputeStatistics) over all derived grids through Ray's distributed
    partial+final aggregate. Partials are INTEGER (n, sum, sumsq) so the
    tree reduction is order-independent; mean/std derive from the int sums
    in one fixed driver-side step — same op order as the SQL twin."""
    from ray.data.aggregate import Max, Min, Sum

    def partials(batch: pa.Table) -> pa.Table:
        n = s = ss = 0
        mn, mx = 1 << 30, -(1 << 30)
        for k in batch["s_suppkey"].to_pylist():
            g = grid_for_key(int(k))
            n += g.size
            s += int(g.sum())
            ss += int((g.astype(np.int64) ** 2).sum())
            mn = min(mn, int(g.min()))
            mx = max(mx, int(g.max()))
        return pa.table(
            {
                "n": pa.array([n], pa.int64()),
                "sum": pa.array([s], pa.int64()),
                "sumsq": pa.array([ss], pa.int64()),
                "min": pa.array([mn], pa.int64()),
                "max": pa.array([mx], pa.int64()),
            }
        )

    parts = _suppliers(sf_dir).map_batches(partials, batch_format="pyarrow", batch_size=64)
    agg = parts.aggregate(
        Sum("n", alias_name="n"),
        Sum("sum", alias_name="sum"),
        Sum("sumsq", alias_name="sumsq"),
        Min("min", alias_name="min"),
        Max("max", alias_name="max"),
    )
    n = int(agg["n"])
    mean = float(agg["sum"]) / n
    std = float(np.sqrt(float(agg["sumsq"]) / n - mean * mean))
    return pd.DataFrame(
        {
            "n_pixels": [n],
            "sum_val": [int(agg["sum"])],
            "sumsq_val": [int(agg["sumsq"])],
            "min_val": [int(agg["min"])],
            "max_val": [int(agg["max"])],
            "mean": [round(mean, 6)],
            "std": [round(std, 6)],
        }
    )


def q_histogram_lattice(sf_dir: str):
    """Exact global histogram (gcore/gdalrasterband.cpp:4176 GetHistogram):
    per-batch ``np.bincount`` partials -> distributed groupby-sum on the
    bin id (the keyed form of the partial+reduce histogram plan)."""
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        acc = np.zeros(251, dtype=np.int64)
        for k in batch["s_suppkey"].to_pylist():
            acc += np.bincount(grid_for_key(int(k)).ravel(), minlength=251)
        bins = np.flatnonzero(acc)
        return pa.table(
            {
                "bin": pa.array(bins.astype(np.int64)),
                "n": pa.array(acc[bins]),
            }
        )

    return (
        _suppliers(sf_dir)
        .map_batches(partials, batch_format="pyarrow", batch_size=64)
        .groupby("bin")
        .aggregate(Sum("n", alias_name="n_pixels"))
    )


# --------------------------------------------------------------------------
# GDALChecksumImage / translate chain / pixel functions
# --------------------------------------------------------------------------

def q_checksum_lattice(sf_dir: str):
    """GDALChecksumImage (alg/gdalchecksum.cpp:48) of every derived grid
    through the real vectorized kernel; the SQL twin replays the
    prime-modulo sum."""
    from gdal_ray.raster.checksum import checksum_image

    def per_key(batch: pa.Table) -> pa.Table:
        keys = batch["s_suppkey"].to_pylist()
        return pa.table(
            {
                "img_id": pa.array([f"g{int(k):06d}" for k in keys], pa.string()),
                "cksum": pa.array(
                    [checksum_image(grid_for_key(int(k))) for k in keys], pa.int32()
                ),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


def q_translate_lattice(sf_dir: str):
    """The gdal_translate chain (apps/gdal_translate_lib.cpp:591): window
    subset -> a*x+b rescale with uint8 clamp -> checksum, through the real
    kernels; the twin replays floor(v*2 + 3 + 0.5) with LEAST/GREATEST."""
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import rescale_linear, translate_window

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "win_w": [], "win_h": [], "cksum": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            g = grid_for_key(k)
            w, h = grid_dims(k)
            x0, y0 = k % 3, k % 2
            ww, hh = w - 4, h - 4
            win = translate_window(g, x0, y0, ww, hh)
            scaled = rescale_linear(win, 2.0, 3.0, np.uint8)
            out["img_id"].append(f"g{k:06d}")
            out["win_w"].append(ww)
            out["win_h"].append(hh)
            out["cksum"].append(checksum_image(scaled))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "win_w": pa.array(out["win_w"], pa.int32()),
                "win_h": pa.array(out["win_h"], pa.int32()),
                "cksum": pa.array(out["cksum"], pa.int32()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


def q_pixelfn_lattice(sf_dir: str):
    """VRT pixel function norm_diff (frmts/vrt/pixelfunctions.cpp:4006) on
    two derived bands: positive/negative pixel counts (exact ints) + the
    value at pixel (1, 2) rounded to 6 decimals."""
    from gdal_ray.raster.kernels import PIXEL_FUNCTIONS

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "n_pos": [], "n_neg": [], "val_12": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            b1 = grid_for_key(k)
            w, h = grid_dims(k)
            rr, cc = np.mgrid[0:h, 0:w]
            b2 = (k * 11 + rr * 3 + cc * 17) % 239
            nd = PIXEL_FUNCTIONS["norm_diff"]([b1, b2])
            out["img_id"].append(f"g{k:06d}")
            out["n_pos"].append(int((nd > 0).sum()))
            out["n_neg"].append(int((nd < 0).sum()))
            out["val_12"].append(round(float(nd[1, 2]), 6))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "n_pos": pa.array(out["n_pos"], pa.int64()),
                "n_neg": pa.array(out["n_neg"], pa.int64()),
                "val_12": pa.array(out["val_12"], pa.float64()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# DEM derivatives on an affine plane (Horn window sums exact)
# --------------------------------------------------------------------------

def q_dem_lattice(sf_dir: str):
    """gdaldem derivatives (apps/gdaldem_lib.cpp Horn kernels) on the plane
    z = a*r + b*c, probed at interior pixel (3, 3) of an 8x8 grid where the
    edge-clamped pad is irrelevant: slope/aspect/TRI carry the engine's
    trailing float32 cast (SQL mirrors with CAST(.. AS REAL)); hillshade is
    the real uint8 output byte; TPI is exactly 0 and roughness exactly
    2(a+b) on a plane."""
    from gdal_ray.raster import kernels as K

    def per_key(batch: pa.Table) -> pa.Table:
        out = {
            "img_id": [], "slope_deg": [], "aspect_deg": [], "hillshade_b": [],
            "tri": [], "tpi": [], "roughness": [],
        }
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            a = float(1 + k % 5)
            b = float(2 + k % 7)
            rr, cc = np.mgrid[0:8, 0:8]
            dem = a * rr + b * cc
            out["img_id"].append(f"d{k:06d}")
            out["slope_deg"].append(round(float(K.slope_horn(dem)[3, 3]), 4))
            out["aspect_deg"].append(round(float(K.aspect(dem)[3, 3]), 4))
            out["hillshade_b"].append(int(K.hillshade(dem)[3, 3]))
            out["tri"].append(round(float(K.tri(dem)[3, 3]), 4))
            out["tpi"].append(float(K.tpi(dem)[3, 3]))
            out["roughness"].append(float(K.roughness(dem)[3, 3]))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "slope_deg": pa.array(out["slope_deg"], pa.float64()),
                "aspect_deg": pa.array(out["aspect_deg"], pa.float64()),
                "hillshade_b": pa.array(out["hillshade_b"], pa.int32()),
                "tri": pa.array(out["tri"], pa.float64()),
                "tpi": pa.array(out["tpi"], pa.float64()),
                "roughness": pa.array(out["roughness"], pa.float64()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


def _round4(x: float) -> float:
    """Round a non-negative value to 4 decimals half away from zero, as
    DuckDB's ROUND(x, 4) does (Python's ``round`` takes a tie to even)."""
    return math.floor(x * 1e4 + 0.5) / 1e4


def q_hillshade_lattice(sf_dir: str):
    """The three gdaldem hillshade SHADING variants (-multidirectional /
    -combined / -igor; apps/gdaldem_lib.cpp:1238,1139,943) on the same
    z = a*r + b*c plane as q_dem_lattice, probed at interior pixel (3,3):
    the interior Horn gradient of the plane is exactly (x, y) = (-b, -a),
    so every variant has a closed-form DuckDB twin (md/combined carry the
    engine's uint8 floor; igor the trailing float32 cast)."""
    from gdal_ray.raster import kernels as K

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "hs_md": [], "hs_comb": [], "hs_igor": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            a = float(1 + k % 5)
            b = float(2 + k % 7)
            rr, cc = np.mgrid[0:8, 0:8]
            dem = a * rr + b * cc
            out["img_id"].append(f"h{k:06d}")
            out["hs_md"].append(int(K.hillshade_multidirectional(dem)[3, 3]))
            out["hs_comb"].append(int(K.hillshade_combined(dem)[3, 3]))
            out["hs_igor"].append(_round4(float(K.hillshade_igor(dem)[3, 3])))
        return pa.table({
            "img_id": pa.array(out["img_id"], pa.string()),
            "hs_md": pa.array(out["hs_md"], pa.int32()),
            "hs_comb": pa.array(out["hs_comb"], pa.int32()),
            "hs_igor": pa.array(out["hs_igor"], pa.float64()),
        })

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Contour (marching squares) on a column ramp
# --------------------------------------------------------------------------

def q_contour_lattice(sf_dir: str):
    """Marching-squares contour (alg/contour.cpp:568) of the ramp
    v = m*c at level m*((w-1)/2) + 0.25*m: exactly one vertical polyline
    whose crossing x replays the engine's (L - v0)/(v1 - v0) interpolation.
    Round-5 polygon arm (alg/contour.cpp:568 polygonize branch +
    marching_squares/polygon_ring_appender.h): iso-BANDS at [level,
    level + m] — on the ramp the three band areas are (x1-0.5)*(h-1),
    (h-1) and (w-0.5-x2)*(h-1), all dyadic-exact."""
    from gdal_ray.raster.contour import contour_lines, contour_polygons

    def per_key(batch: pa.Table) -> pa.Table:
        out = {
            "img_id": [], "level": [], "n_lines": [], "n_points": [],
            "x0": [], "ymin": [], "ymax": [],
            "area_lo": [], "area_mid": [], "area_hi": [], "n_band_rings": [],
        }
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            w = 8 + k % 5
            h = 6 + k % 7
            m = float(1 + k % 3)
            rr, cc = np.mgrid[0:h, 0:w]
            arr = m * cc
            level = m * ((w - 1) / 2.0) + 0.25 * m
            lines = contour_lines(arr, [level])
            coords = np.concatenate([ln["coords"] for ln in lines], axis=0)
            bands = contour_polygons(arr, [level, level + m])
            assert len(bands) == 3, "ramp must yield 3 iso-bands"
            out["img_id"].append(f"c{k:06d}")
            out["level"].append(float(level))
            out["n_lines"].append(len(lines))
            out["n_points"].append(sum(len(ln["coords"]) for ln in lines))
            out["x0"].append(round(float(coords[0, 0]), 6))
            out["ymin"].append(float(coords[:, 1].min()))
            out["ymax"].append(float(coords[:, 1].max()))
            out["area_lo"].append(round(bands[0]["area"], 6))
            out["area_mid"].append(round(bands[1]["area"], 6))
            out["area_hi"].append(round(bands[2]["area"], 6))
            out["n_band_rings"].append(sum(len(b["rings"]) for b in bands))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "level": pa.array(out["level"], pa.float64()),
                "n_lines": pa.array(out["n_lines"], pa.int32()),
                "n_points": pa.array(out["n_points"], pa.int64()),
                "x0": pa.array(out["x0"], pa.float64()),
                "ymin": pa.array(out["ymin"], pa.float64()),
                "ymax": pa.array(out["ymax"], pa.float64()),
                "area_lo": pa.array(out["area_lo"], pa.float64()),
                "area_mid": pa.array(out["area_mid"], pa.float64()),
                "area_hi": pa.array(out["area_hi"], pa.float64()),
                "n_band_rings": pa.array(out["n_band_rings"], pa.int32()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Footprint / polygonize with a hole
# --------------------------------------------------------------------------

def q_footprint_lattice(sf_dir: str):
    """Footprint (apps/gdal_footprint_lib.cpp:1268) of a grid whose only
    nodata is an interior rectangle: the real polygonize tracer must emit
    ONE polygon with one hole and area w*h - hole_w*hole_h."""
    from gdal_ray.geo import geomops as GO
    from gdal_ray.raster.polygonize import polygonize_array

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "n_parts": [], "n_rings": [], "area_px": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            w, h = grid_dims(k)
            x0, y0 = 2 + k % 3, 2 + k % 2
            hw, hh = 3 + k % 4, 3 + k % 3
            arr = np.ones((h, w), dtype=np.int32)
            arr[y0 : y0 + hh, x0 : x0 + hw] = -1
            mask = (arr != -1).astype(np.int32)
            polys = polygonize_array(mask, nodata=0)
            out["img_id"].append(f"f{k:06d}")
            out["n_parts"].append(len(polys))
            out["n_rings"].append(sum(len(p["rings"]) for p in polys))
            out["area_px"].append(float(sum(GO.polygon_area(p["rings"]) for p in polys)))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "n_parts": pa.array(out["n_parts"], pa.int32()),
                "n_rings": pa.array(out["n_rings"], pa.int32()),
                "area_px": pa.array(out["area_px"], pa.float64()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Polygonize (value-image region tracing, alg/polygonize.cpp:73-488)
# --------------------------------------------------------------------------

def q_geotiff_lattice(sf_dir: str):
    """GeoTIFF driver identity round-trip with a closed-form twin: every
    derived grid writes as a REAL tiled LZW GeoTIFF (io/tiff.py — IFD,
    GeoKeyDirectory, ModelPixelScale/Tiepoint), the tile-sharded reader
    (sources/geotiff.py) reads the tiles back distributed, and per-tile
    pixel aggregates compare against GRID_SQL grouped by (r//8, c//8).
    Exercises: tag pack/parse, LZW encode+decode, tile padding/cropping,
    per-tile geotransforms. Ref: frmts/gtiff/geotiff.cpp."""
    import pandas as pd

    from gdal_ray.sources.geotiff import read_geotiff_tiles

    from ray.data.aggregate import Count, Max, Min, Sum

    out_dir = os.path.join(FIXTURE_ROOT, "gt_lattice")
    os.makedirs(out_dir, exist_ok=True)

    def write_key(batch: pa.Table) -> pa.Table:
        from gdal_ray.io.tiff import write_geotiff

        paths = []
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            p = os.path.join(out_dir, f"g{k:06d}.tif")
            if not os.path.exists(p):
                gt = [100.0 * k, 10.0, 0.0, -100.0 * k, 0.0, -10.0]
                write_geotiff(p + ".tmp", grid_for_key(k).astype(np.int32),
                              gt, epsg=3857, tile=8, compress="lzw")
                os.replace(p + ".tmp", p)
            paths.append(p)
        return pa.table({"path": pa.array(paths, pa.string())})

    paths = sorted(
        _suppliers(sf_dir).map_batches(
            write_key, batch_format="pyarrow"
        ).to_pandas()["path"]
    )

    def per_tile(batch: pd.DataFrame) -> pd.DataFrame:
        stem = batch["raster_id"].str.split("#")
        tyx = stem.str[1].str.split("_")
        v = batch["pixels"]
        return pd.DataFrame({
            "img_key": stem.str[0].str[1:].astype(np.int64),
            "ty": tyx.str[0].astype(np.int64),
            "tx": tyx.str[1].astype(np.int64),
            "n_px": (batch["w"].astype(np.int64)
                     * batch["h"].astype(np.int64)),
            "sum_v": v.map(lambda p: int(np.sum(p))),
            "min_v": v.map(lambda p: int(np.min(p))),
            "max_v": v.map(lambda p: int(np.max(p))),
        })

    return (
        read_geotiff_tiles(list(paths), tiles_per_shard=64)
        .map_batches(per_tile, batch_format="pandas")
        .groupby(["img_key", "ty", "tx"])
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("sum_v", alias_name="sum_v"),
            Min("min_v", alias_name="min_v"),
            Max("max_v", alias_name="max_v"),
        )
        .sort(["img_key", "ty", "tx"])
    )


def q_vrt_lattice(sf_dir: str):
    """VRT driver round-trip with a closed-form twin: the first 32
    supplier grids write as real tiled GeoTIFFs on one shared 10 m grid,
    ONE gdalbuildvrt-style .vrt unites them (sources/vrt.py — union
    extent, SimpleSource SrcRect/DstRect), the distributed per-source
    reader pulls every source back through the VRT placement, and per-
    source pixel aggregates compare against GRID_SQL. The source key is
    recovered from the DstRect-placed geotransform (origin = 100*k), so
    the check fails if placement math drifts. Ref:
    frmts/vrt/vrtdataset.cpp, apps/gdalbuildvrt_lib.cpp:1946."""
    import pandas as pd

    from gdal_ray.sources.vrt import build_vrt, read_vrt_tiles

    from ray.data.aggregate import Count, Max, Min, Sum

    out_dir = os.path.join(FIXTURE_ROOT, "vrt_lattice")
    os.makedirs(out_dir, exist_ok=True)

    def write_key(batch: pa.Table) -> pa.Table:
        from gdal_ray.io.tiff import write_geotiff

        paths = []
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            if k > 32:
                continue
            p = os.path.join(out_dir, f"v{k:06d}.tif")
            if not os.path.exists(p):
                gt = [100.0 * k, 10.0, 0.0, 0.0, 0.0, -10.0]
                write_geotiff(p + ".tmp", grid_for_key(k).astype(np.int32),
                              gt, epsg=3857, tile=8, compress="deflate")
                os.replace(p + ".tmp", p)
            paths.append(p)
        return pa.table({"path": pa.array(paths, pa.string())})

    paths = sorted(
        _suppliers(sf_dir).map_batches(
            write_key, batch_format="pyarrow"
        ).to_pandas()["path"]
    )
    vrt = os.path.join(out_dir, f"union_{len(paths)}.vrt")
    build_vrt(list(paths), vrt)

    def per_source(batch: pd.DataFrame) -> pd.DataFrame:
        v = batch["pixels"]
        return pd.DataFrame({
            # origin x = 100*k by construction (placement-sensitive)
            "img_key": batch["gt"].map(
                lambda g: int(round(g[0] / 100.0))
            ).astype(np.int64),
            "n_px": (batch["w"].astype(np.int64)
                     * batch["h"].astype(np.int64)),
            "sum_v": v.map(lambda p: int(np.sum(p))),
            "min_v": v.map(lambda p: int(np.min(p))),
            "max_v": v.map(lambda p: int(np.max(p))),
        })

    return (
        read_vrt_tiles(vrt)
        .map_batches(per_source, batch_format="pandas")
        .groupby("img_key")
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("sum_v", alias_name="sum_v"),
            Min("min_v", alias_name="min_v"),
            Max("max_v", alias_name="max_v"),
        )
        .sort("img_key")
    )


def q_warp_area_lattice(sf_dir: str):
    """Area-statistics warp (gdalwarp -r average/med/min/max;
    raster/warp.py warp_image_area) on the closed-form grids with a SQL
    twin: an aligned identity-SRS 2x downsample makes every destination
    pixel exactly one 2x2 source block, so 4*average is the block sum,
    and the reference's quantile rule sorted[ceil(0.5*4 - 1)] picks the
    block's SECOND-SMALLEST value — both integer-exact. Per-image sums
    over the blocks compare against window functions in DuckDB. A window
    or weighting bug shifts the sums immediately."""
    import pandas as pd

    from gdal_ray.raster.warp import warp_image_area

    from ray.data.aggregate import Sum

    def per_key(batch: pa.Table) -> pa.Table:
        rows = {"img_key": [], "n_blocks": [], "sum_avg4": [],
                "sum_med": [], "sum_min": [], "sum_max": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            g = grid_for_key(k).astype(np.float64)
            h2, w2 = g.shape[0] // 2, g.shape[1] // 2
            g = g[: 2 * h2, : 2 * w2]
            src_gt = (0.0, 10.0, 0.0, 0.0, 0.0, -10.0)
            dst_gt = (0.0, 20.0, 0.0, 0.0, 0.0, -20.0)
            outs = {}
            for op in ("average", "med", "min", "max"):
                arr, _ = warp_image_area(g, src_gt, "EPSG:3857",
                                         "EPSG:3857", dst_gt=dst_gt,
                                         dst_w=w2, dst_h=h2, op=op)
                outs[op] = arr
            rows["img_key"].append(k)
            rows["n_blocks"].append(h2 * w2)
            rows["sum_avg4"].append(int(np.round(4.0 * outs["average"]).sum()))
            rows["sum_med"].append(int(outs["med"].sum()))
            rows["sum_min"].append(int(outs["min"].sum()))
            rows["sum_max"].append(int(outs["max"].sum()))
        return pa.table({
            "img_key": pa.array(rows["img_key"], pa.int64()),
            "n_blocks": pa.array(rows["n_blocks"], pa.int64()),
            "sum_avg4": pa.array(rows["sum_avg4"], pa.int64()),
            "sum_med": pa.array(rows["sum_med"], pa.int64()),
            "sum_min": pa.array(rows["sum_min"], pa.int64()),
            "sum_max": pa.array(rows["sum_max"], pa.int64()),
        })

    return (
        _suppliers(sf_dir)
        .map_batches(per_key, batch_format="pyarrow")
        .groupby("img_key")
        .aggregate(
            Sum("n_blocks", alias_name="n_blocks"),
            Sum("sum_avg4", alias_name="sum_avg4"),
            Sum("sum_med", alias_name="sum_med"),
            Sum("sum_min", alias_name="sum_min"),
            Sum("sum_max", alias_name="sum_max"),
        )
        .sort("img_key")
    )


def q_color_relief_lattice(sf_dir: str):
    """gdaldem color-relief (raster/color.py color_relief) on the
    closed-form grids with a SQL twin: a fixed 3-entry ramp at
    0 / 128 / 256 (v spans 0..250) makes every interpolation ratio a
    /128 dyadic, and the reference's channel rule
    clamp(trunc(0.5 + c0 + ratio*(c1-c0))) is replayed in DuckDB with
    the identical operation order, so per-image channel sums are
    bit-exact. The 128 breakpoint value itself must hit the EXACT entry
    color (the bracketing rule), which the twin encodes as a CASE."""
    import pandas as pd

    from gdal_ray.raster.color import color_relief

    from ray.data.aggregate import Sum

    RAMP = [(0.0, 10, 250, 30, 255), (128.0, 200, 120, 60, 255),
            (256.0, 20, 40, 240, 255)]

    def per_key(batch: pa.Table) -> pa.Table:
        rows = {"img_key": [], "n_px": [], "sum_r": [], "sum_g": [],
                "sum_b": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            g = grid_for_key(k).astype(np.float64)
            rgba = color_relief(g, RAMP)
            rows["img_key"].append(k)
            rows["n_px"].append(g.size)
            rows["sum_r"].append(int(rgba[..., 0].astype(np.int64).sum()))
            rows["sum_g"].append(int(rgba[..., 1].astype(np.int64).sum()))
            rows["sum_b"].append(int(rgba[..., 2].astype(np.int64).sum()))
        return pa.table({
            "img_key": pa.array(rows["img_key"], pa.int64()),
            "n_px": pa.array(rows["n_px"], pa.int64()),
            "sum_r": pa.array(rows["sum_r"], pa.int64()),
            "sum_g": pa.array(rows["sum_g"], pa.int64()),
            "sum_b": pa.array(rows["sum_b"], pa.int64()),
        })

    return (
        _suppliers(sf_dir)
        .map_batches(per_key, batch_format="pyarrow")
        .groupby("img_key")
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("sum_r", alias_name="sum_r"),
            Sum("sum_g", alias_name="sum_g"),
            Sum("sum_b", alias_name="sum_b"),
        )
        .sort("img_key")
    )


def q_overview_rms_lattice(sf_dir: str):
    """RMS + NEAREST overview kernels (raster/kernels.py resample_rms /
    resample_nearest_factor) on the closed-form grids with a SQL twin:
    per 2x2 block the integer-RMS rule (r minimizing |r^2 - sumSq/4|,
    gcore/overview.cpp ComputeIntegerRMS) and the top-left NEAREST pick
    are both integer-exact; per-image sums compare against the replayed
    rule in DuckDB."""
    from gdal_ray.raster.kernels import resample_nearest_factor, resample_rms

    from ray.data.aggregate import Sum

    def per_key(batch: pa.Table) -> pa.Table:
        rows = {"img_key": [], "n_blocks": [], "sum_rms": [],
                "sum_near": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            g = grid_for_key(k).astype(np.int32)
            rms = resample_rms(g, 2)
            near = resample_nearest_factor(g, 2)
            rows["img_key"].append(k)
            rows["n_blocks"].append(rms.size)
            rows["sum_rms"].append(int(rms.astype(np.int64).sum()))
            rows["sum_near"].append(int(near.astype(np.int64).sum()))
        return pa.table({
            "img_key": pa.array(rows["img_key"], pa.int64()),
            "n_blocks": pa.array(rows["n_blocks"], pa.int64()),
            "sum_rms": pa.array(rows["sum_rms"], pa.int64()),
            "sum_near": pa.array(rows["sum_near"], pa.int64()),
        })

    return (
        _suppliers(sf_dir)
        .map_batches(per_key, batch_format="pyarrow")
        .groupby("img_key")
        .aggregate(
            Sum("n_blocks", alias_name="n_blocks"),
            Sum("sum_rms", alias_name="sum_rms"),
            Sum("sum_near", alias_name="sum_near"),
        )
        .sort("img_key")
    )


def q_bspline_lattice(sf_dir: str):
    """Cubic B-spline point read (kernels.interpolate_at_point_
    cubicspline) with a SQL twin: sampling every PIXEL CENTER collapses
    the 4x4 tap window to the 3x3 binomial [1,4,1]x[1,4,1]/36 over
    edge-clamped neighbors, and the grid value is a closed form, so
    36*value is an exact integer the twin computes directly (the float
    kernel lands within ulps; round(36*v) bridges them). Exercises the
    smoothing-spline weights, normalization, and edge clamping."""
    from gdal_ray.raster.kernels import interpolate_at_point_cubicspline

    from ray.data.aggregate import Sum

    def per_key(batch: pa.Table) -> pa.Table:
        rows = {"img_key": [], "n_px": [], "sum_36v": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            g = grid_for_key(k).astype(np.float64)
            h, w = g.shape
            cc, rr = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
            vals = interpolate_at_point_cubicspline(g, cc.ravel(), rr.ravel())
            rows["img_key"].append(k)
            rows["n_px"].append(vals.size)
            rows["sum_36v"].append(int(np.round(36.0 * vals).sum()))
        return pa.table({
            "img_key": pa.array(rows["img_key"], pa.int64()),
            "n_px": pa.array(rows["n_px"], pa.int64()),
            "sum_36v": pa.array(rows["sum_36v"], pa.int64()),
        })

    return (
        _suppliers(sf_dir)
        .map_batches(per_key, batch_format="pyarrow")
        .groupby("img_key")
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("sum_36v", alias_name="sum_36v"),
        )
        .sort("img_key")
    )


def q_gauss_lattice(sf_dir: str):
    """GAUSS overview kernel (raster/kernels.resample_gauss, factor 2)
    with a SQL twin: the 3x3 binomial numerator and the edge-truncated
    weight sum are both integers, and every possible truncated weight sum
    (16 interior, 12 edge, 9 corner) divides 144 — so 144*value is an
    exact integer the twin computes directly; round() bridges the float
    kernel's ulps. Covers the window placement, truncation, and
    renormalization rules of GDALResampleChunk_Gauss."""
    from gdal_ray.raster.kernels import resample_gauss

    from ray.data.aggregate import Sum

    def per_key(batch: pa.Table) -> pa.Table:
        rows = {"img_key": [], "n_px": [], "sum_144v": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            g = grid_for_key(k).astype(np.float64)
            out = resample_gauss(g, 2)
            rows["img_key"].append(k)
            rows["n_px"].append(out.size)
            rows["sum_144v"].append(int(np.round(144.0 * out).sum()))
        return pa.table({
            "img_key": pa.array(rows["img_key"], pa.int64()),
            "n_px": pa.array(rows["n_px"], pa.int64()),
            "sum_144v": pa.array(rows["sum_144v"], pa.int64()),
        })

    return (
        _suppliers(sf_dir)
        .map_batches(per_key, batch_format="pyarrow")
        .groupby("img_key")
        .aggregate(
            Sum("n_px", alias_name="n_px"),
            Sum("sum_144v", alias_name="sum_144v"),
        )
        .sort("img_key")
    )


def q_polygonize_lattice(sf_dir: str):
    """GDALPolygonize (alg/polygonize.cpp + polygonize_polygonizer.cpp
    two-arm tracer) on a striped value image with an interior hole: value
    = (c // sw) % 3 + 1 in vertical stripes of width sw, plus a value-7
    rectangle strictly inside stripe 0. Closed forms: ceil(w/sw) stripe
    regions + the rectangle; stripe 0 carries the one interior ring; the
    value-weighted pixel area and the ring-traced area of the first
    scan-order polygon (outer minus hole) are exact integers."""
    from gdal_ray.geo import geomops as GO
    from gdal_ray.raster.polygonize import polygonize_array

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "n_polys": [], "n_rings": [], "wsum": [],
               "area_first": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            w, h = grid_dims(k)
            sw = 3 + k % 3
            cc = np.arange(w)
            arr = np.broadcast_to((cc // sw) % 3 + 1, (h, w)).astype(np.int32).copy()
            arr[2:5, 1:sw - 1] = 7  # strictly interior to stripe 0
            polys = polygonize_array(arr)
            out["img_id"].append(f"z{k:06d}")
            out["n_polys"].append(len(polys))
            out["n_rings"].append(sum(len(p["rings"]) for p in polys))
            out["wsum"].append(
                int(sum(int(p["value"]) * p["pixel_count"] for p in polys))
            )
            out["area_first"].append(
                int(round(GO.polygon_area(polys[0]["rings"])))
            )
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "n_polys": pa.array(out["n_polys"], pa.int32()),
                "n_rings": pa.array(out["n_rings"], pa.int32()),
                "wsum": pa.array(out["wsum"], pa.int64()),
                "area_first": pa.array(out["area_first"], pa.int64()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Proximity (exact euclidean distance raster)
# --------------------------------------------------------------------------

def q_proximity_lattice(sf_dir: str):
    """Proximity (alg/gdalproximity.cpp:94) to a single target pixel:
    distances are exact sqrt of integers, so the within-radius count and
    the corner distance agree bit-for-bit with the closed form."""
    from gdal_ray.raster.kernels import proximity

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "n_within": [], "corner_dist": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            w, h = grid_dims(k)
            r0, c0 = 3 + k % 5, 4 + k % 7
            mask = np.zeros((h, w), dtype=bool)
            mask[r0, c0] = True
            d = proximity(mask)
            out["img_id"].append(f"p{k:06d}")
            out["n_within"].append(int((d <= 6.0).sum()))
            out["corner_dist"].append(round(float(d[0, 0]), 6))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "n_within": pa.array(out["n_within"], pa.int64()),
                "corner_dist": pa.array(out["corner_dist"], pa.float64()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Sieve + FillNodata cleanup chain
# --------------------------------------------------------------------------

def q_cleanup_lattice(sf_dir: str):
    """gdal_sieve + gdal_fillnodata chain (alg/gdalsievefilter.cpp:178,
    alg/rasterfill.cpp:394): a small 2x2 patch merges into the background,
    the nodata hole fills from uniform neighbors, the large region stays —
    the post-clean checksum has a closed form."""
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import cast_clip, fillnodata, sieve

    def per_key(batch: pa.Table) -> pa.Table:
        out = {"img_id": [], "cksum": []}
        for k in batch["s_suppkey"].to_pylist():
            k = int(k)
            w, h = grid_dims(k)
            arr = np.full((h, w), 5, dtype=np.int32)
            arr[1:7, 1:7] = 9                      # big region: stays
            arr[h - 4 : h - 2, 2:4] = 3            # 2x2 patch: sieved away
            arr[2:5, w - 5 : w - 2] = -1           # nodata hole: filled
            cleaned = sieve(arr, threshold=6, nodata=-1)
            filled = cast_clip(fillnodata(cleaned, nodata=-1), np.int32)
            out["img_id"].append(f"s{k:06d}")
            out["cksum"].append(checksum_image(filled))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "cksum": pa.array(out["cksum"], pa.int32()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Point query through the co-partitioned shuffle machinery
# --------------------------------------------------------------------------

def q_point_query_lattice(sf_dir: str):
    """gdallocationinfo (apps/gdallocationinfo.cpp:373) through the REAL
    two-stage co-partitioned plan (stages/pointquery.py): customer lattice
    points vs supplier-derived image footprints (gt = (x0, 2, 0, y0, 0, -2),
    40x30 px), pixel value closed-form (k + 3*iy + 5*ix) % 251. All
    coordinates are dyadic integers, so the inverse-affine floor matches
    the SQL twin exactly."""
    from gdal_ray.geo import affine as A
    from gdal_ray.pipelines.derived_geo import LATTICE_A, LATTICE_B
    from gdal_ray.stages.pointquery import point_footprint_candidates, sample_at_points

    def qp(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        return pa.table(
            {
                "query_id": pa.array([f"q{int(x):09d}" for x in keys], pa.string()),
                "cx": pa.array(((keys * LATTICE_A) % _TWO16).astype(np.float64)),
                "cy": pa.array(((keys * LATTICE_B) % _TWO16).astype(np.float64)),
            }
        )

    def fp(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        x0 = ((keys * LATTICE_A) % _TWO16 - 40).astype(np.float64)
        y0 = ((keys * LATTICE_B) % _TWO16 + 30).astype(np.float64)
        return pa.table(
            {
                "image_id": pa.array([f"i{int(x):06d}" for x in keys], pa.string()),
                "minx": pa.array(x0),
                "miny": pa.array(y0 - 60.0),
                "maxx": pa.array(x0 + 80.0),
                "maxy": pa.array(y0),
            }
        )

    def pay(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        return pa.table(
            {
                "image_id": pa.array([f"i{int(x):06d}" for x in keys], pa.string()),
                "k": pa.array(keys),
            }
        )

    import os

    import ray.data as rd

    points = _rpt(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    ).map_batches(qp, batch_format="pyarrow")
    foots = _suppliers(sf_dir).map_batches(fp, batch_format="pyarrow")
    payload = _suppliers(sf_dir).map_batches(pay, batch_format="pyarrow")

    # level 16 (~611 m cells) spreads the 2^16-meter lattice over ~100x100
    # cells so the co-partition exercise is non-degenerate
    cand = point_footprint_candidates(points, foots, level=16)

    def sampler(row: dict, qx: np.ndarray, qy: np.ndarray):
        from gdal_ray.raster.kernels import (
            interpolate_at_point_bilinear,
            interpolate_at_point_cubic,
        )

        k = int(row["k"])
        sx = (k * LATTICE_A) % _TWO16
        sy = (k * LATTICE_B) % _TWO16
        gt = (float(sx - 40), 2.0, 0.0, float(sy + 30), 0.0, -2.0)
        inv = A.invert_geotransform(gt)
        px, py = A.apply_geotransform(inv, qx, qy)
        ix = np.floor(px).astype(np.int64)
        iy = np.floor(py).astype(np.int64)
        ok = (ix >= 0) & (ix < 40) & (iy >= 0) & (iy < 30)
        if not ok.any():
            return None, None
        nearest = ((k + 3 * iy[ok] + 5 * ix[ok]) % 251).astype(np.int32)
        # interpolated reads (gdallocationinfo -r bilinear / -r cubic,
        # alg/gdal_interpolateatpoint.h:37) through the REAL kernels on the
        # materialized 30x40 closed-form band: lattice pixel coords are
        # dyadic (steps of 0.5), so weights are exactly {0,1} / {0.5625,
        # -0.0625} and the SQL twin replays the identical arithmetic
        rr, cc = np.mgrid[0:30, 0:40]
        band = (k + 3 * rr + 5 * cc) % 251
        bi = interpolate_at_point_bilinear(band, px[ok], py[ok])
        cu = interpolate_at_point_cubic(band, px[ok], py[ok])
        return ok, {
            "value": nearest,
            "value_bi": np.round(bi, 6),
            "value_cu": np.round(cu, 6),
        }

    out_schema = pa.schema(
        [
            ("query_id", pa.string()),
            ("image_id", pa.string()),
            ("value", pa.int32()),
            ("value_bi", pa.float64()),
            ("value_cu", pa.float64()),
        ]
    )
    return sample_at_points(cand, payload, sampler, out_schema)


# --------------------------------------------------------------------------
# FillNodata (alg/rasterfill.cpp:394 GDALFillNodata, simplified ring fill)
# --------------------------------------------------------------------------

def q_fillnodata_lattice(sf_dir: str):
    """FillNodata through the REAL iterative-ring kernel
    (``raster/kernels.py fillnodata``; ref ``alg/rasterfill.cpp:394``).
    Holes are punched into the shared closed-form grid at stride-4 interior
    positions (r%4==1, c%4==2), so every hole has 4 VALID 4-neighbors and
    the fill closes in exactly one ring — the filled value is the plain
    4-neighbor average, which the SQL twin replays in closed form. Values
    quantize x1e4 (quarters are exact) for an order-independent checksum."""
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import fillnodata

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        out = {"img_id": [], "n_holes": [], "sum_fill4": [], "cksum": []}
        for k in keys:
            k = int(k)
            g = grid_for_key(k).astype(np.int64)
            h_, w_ = g.shape
            rr, cc = np.mgrid[0:h_, 0:w_]
            hole = (rr % 4 == 1) & (cc % 4 == 2) & (rr > 0) & (rr < h_ - 1) & (cc > 0) & (cc < w_ - 1)
            arr = g.copy()
            arr[hole] = -1
            filled = fillnodata(arr, nodata=-1)
            v4 = np.floor(filled * 10000.0 + 0.5).astype(np.int64)
            out["img_id"].append(f"n{k:06d}")
            out["n_holes"].append(int(hole.sum()))
            out["sum_fill4"].append(int(v4.sum()))
            out["cksum"].append(checksum_image(v4))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "n_holes": pa.array(out["n_holes"], pa.int64()),
                "sum_fill4": pa.array(out["sum_fill4"], pa.int64()),
                "cksum": pa.array(out["cksum"], pa.int32()),
            }
        )

    return _suppliers(sf_dir).map_batches(per_key, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Zonal statistics over the PIP-lattice join
# --------------------------------------------------------------------------

def q_zonal_lattice(sf_dir: str):
    """Zonal/RAT aggregate (SURVEY §2.5) over the real ray-cast PIP join:
    polygon category = s_suppkey % 8, per-category hit count + custkey sum
    through Ray's distributed groupby aggregate."""
    from ray.data.aggregate import Count, Sum

    from gdal_ray.pipelines.lattice_oracles import q_pip_lattice

    joined = q_pip_lattice(sf_dir)

    def add_cat(batch: pa.Table) -> pa.Table:
        sk = np.asarray(batch["s_suppkey"], dtype=np.int64)
        return batch.append_column("category", pa.array(sk % 8, pa.int64()))

    return (
        joined.map_batches(add_cat, batch_format="pyarrow")
        .groupby("category")
        .aggregate(
            Count(alias_name="n_hits"),
            Sum("c_custkey", alias_name="sum_custkey"),
        )
    )
