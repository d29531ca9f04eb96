"""DuckDB-checkable oracles for the geospatial kernels, via derived lattices.

Second wave of the ``derived_geo`` pattern: the driver's correctness gate
can only see the TPC-H-ish views, so each query here derives deterministic
geometry from integer keys (Knuth multiplicative hash onto a power-of-two
lattice) and routes it through the REAL engine kernels — the distributed
kNN shuffle, the GDAL-rule ray-cast PIP join (``ogr/ogrlinearring.cpp:462``),
the Hilbert xy->d kernel (``packedrtree.h:93``), the constructive-geometry
ops (area/centroid/hull/clip) and the scanline rasterizer
(``alg/llrasterize.cpp:58-225``) — with an ANSI-SQL twin whose floats are
bit-identical by construction:

- kNN lattice is 2^24 so squared distances stay < 2^49 (exact in float64 and
  in BIGINT); dist = sqrt(exact int) is correctly rounded on both sides;
- geometry/rasterize lattices are 2^16 so shoelace/centroid cross-sums stay
  < 2^53 (fully exact);
- PIP triangles exclude points collinear with any edge line on BOTH sides
  (a zero integer cross-product), so GDAL's boundary ray rules and SQL's
  strict half-plane tests agree on every remaining row;
- rasterize triangles use power-of-two heights and width multiples of the
  height so every scanline-intersection x is an exact dyadic rational.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd  # noqa: F401
from gdal_ray.fixtures.generate import FIXTURE_ROOT
from gdal_ray.sources.corpus import read_parquet_tight as _rpt

from gdal_ray.pipelines.derived_geo import LATTICE_A, LATTICE_B

__all__ = [
    "q_knn_lattice",
    "q_pip_lattice",
    "q_hilbert_lattice",
    "q_geom_lattice",
    "q_rasterize_lattice",
    "q_clip_pairs_lattice",
    "q_lshape_clip_lattice",
    "q_grid_lattice",
    "q_invdist_lattice",
    "q_relate_lattice",
    "q_buffer_lattice",
    "q_tin_lattice",
    "q_conic_lattice",
    "q_line_lattice",
    "q_union_lattice",
    "q_symdiff_lattice",
    "q_stereo_lattice",
    "q_gcp_lattice",
    "q_ntv2_lattice",
    "q_lineref_lattice",
    "q_simplify_cov_lattice",
]

_TWO24 = 1 << 24
_TWO16 = 1 << 16


def _read(sf_dir: str, table: str, columns):
    return _rpt(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


# --------------------------------------------------------------------------
# kNN (distributed shuffle path)
# --------------------------------------------------------------------------

def q_knn_lattice(sf_dir: str, k: int = 5):
    """Exact kNN through the co-partitioned shuffle path (``knn_shuffle``):
    supplier lattice points are the data side, customers c_custkey <= 16 the
    query side. Oracle: cross join + ROW_NUMBER() OVER (ORDER BY d2, id)."""
    import pyarrow.compute as pc

    from gdal_ray.stages.knn import knn_shuffle

    def sup_points(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        return pa.table(
            {
                "image_id": pa.array([f"s{int(x):06d}" for x in keys], pa.string()),
                "cx": pa.array(((keys * LATTICE_A) % _TWO24).astype(np.float64)),
                "cy": pa.array(((keys * LATTICE_B) % _TWO24).astype(np.float64)),
            }
        )

    def cust_queries(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.less_equal(batch["c_custkey"], 16))
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        return pa.table(
            {
                "query_id": pa.array([f"q{int(x):06d}" for x in keys], pa.string()),
                "cx": pa.array(((keys * LATTICE_A) % _TWO24).astype(np.float64)),
                "cy": pa.array(((keys * LATTICE_B) % _TWO24).astype(np.float64)),
            }
        )

    points = _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        sup_points, batch_format="pyarrow"
    )
    queries = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        cust_queries, batch_format="pyarrow"
    )
    return knn_shuffle(points, queries, k=k)


# --------------------------------------------------------------------------
# PIP join (broadcast ray-cast path) on derived triangles
# --------------------------------------------------------------------------

def _triangles(skeys: np.ndarray):
    """CCW integer triangles on the 2^24 lattice: apex up, horizontal base."""
    sx = (skeys * LATTICE_A) % _TWO24
    sy = (skeys * LATTICE_B) % _TWO24
    hw = (1 << 20) + (skeys % 7) * (1 << 18)
    ax, ay = sx - hw, sy - hw
    bx, by = sx + hw, sy - hw
    cx, cy = sx, sy + hw
    return ax, ay, bx, by, cx, cy


def q_pip_lattice(sf_dir: str):
    """Ray-cast PIP join (real broadcast cell-index machinery) of customer
    lattice points against supplier-derived triangles; rows collinear with
    any edge line are excluded identically on both sides, so the GDAL ray
    rule and the SQL strict half-plane test agree exactly."""
    from gdal_ray.config import CELL_LEVEL
    from gdal_ray.geo import cells as CL
    from gdal_ray.geo import wkb as W
    from gdal_ray.stages.pipjoin import build_polygon_cell_index, pip_join_batch

    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])
    skeys = np.asarray(sup["s_suppkey"], dtype=np.int64)
    ax, ay, bx, by, cx, cy = _triangles(skeys)
    blobs = [
        W.encode_polygon(
            [np.array([[ax[i], ay[i]], [bx[i], by[i]], [cx[i], cy[i]], [ax[i], ay[i]]], dtype=np.float64)]
        )
        for i in range(len(skeys))
    ]
    polys = pa.table(
        {
            "poly_id": pa.array([f"t{int(x):06d}" for x in skeys], pa.string()),
            "wkb": pa.array(blobs, pa.binary()),
        }
    )
    index_ref = ray.put(build_polygon_cell_index(polys))

    def cust_points(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        px = ((keys * LATTICE_A) % _TWO24).astype(np.float64)
        py = ((keys * LATTICE_B) % _TWO24).astype(np.float64)
        return pa.table(
            {
                "src_id": pa.array([f"c{int(x):09d}" for x in keys], pa.string()),
                "cx": pa.array(px),
                "cy": pa.array(py),
                "cell": pa.array(CL.cell_of_meters(px, py, CELL_LEVEL)),
            }
        )

    pts = _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        cust_points, batch_format="pyarrow"
    )
    joined = pts.map_batches(
        pip_join_batch, fn_kwargs={"index_ref": index_ref}, batch_format="pyarrow"
    )

    def finish(batch: pa.Table) -> pa.Table:
        ck = np.asarray([int(s[1:]) for s in batch["src_id"].to_pylist()], dtype=np.int64)
        sk = np.asarray([int(s[1:]) for s in batch["poly_id"].to_pylist()], dtype=np.int64)
        px = (ck * LATTICE_A) % _TWO24
        py = (ck * LATTICE_B) % _TWO24
        ax, ay, bx, by, cx, cy = _triangles(sk)
        c1 = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
        c2 = (cx - bx) * (py - by) - (cy - by) * (px - bx)
        c3 = (ax - cx) * (py - cy) - (ay - cy) * (px - cx)
        keep = (c1 != 0) & (c2 != 0) & (c3 != 0)
        return pa.table(
            {
                "c_custkey": pa.array(ck[keep], pa.int64()),
                "s_suppkey": pa.array(sk[keep], pa.int64()),
            }
        )

    return joined.map_batches(finish, batch_format="pyarrow")


# --------------------------------------------------------------------------
# Hilbert key ordering (xy2d recurrence vs recursive-CTE oracle)
# --------------------------------------------------------------------------

def q_hilbert_lattice(sf_dir: str, order: int = 16, limit: int = 512):
    """Hilbert xy->d keys of customer lattice points, sorted ascending (the
    FlatGeobuf packed-R-tree write order); oracle is the same recurrence as
    a recursive CTE."""
    from gdal_ray.geo.hilbert import hilbert_xy2d

    def add_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        ix = (keys * LATTICE_A) % _TWO16
        iy = (keys * LATTICE_B) % _TWO16
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "hilbert": pa.array(hilbert_xy2d(order, ix, iy)),
            }
        )

    return (
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(add_key, batch_format="pyarrow")
        .sort(["hilbert", "c_custkey"])
        .limit(limit)
    )


# --------------------------------------------------------------------------
# Constructive geometry ops on derived diamonds (closed-form oracle)
# --------------------------------------------------------------------------

def q_geom_lattice(sf_dir: str):
    """Measurement + constructive ops through the real WKB/geomops kernels
    on integer diamonds (half-diagonals p, q even): area = 2pq, centroid =
    center, hull = the diamond itself, rect-clip by the half-size bbox = the
    p x q rectangle — all exact in float64 at 2^16 scale."""
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo import wkb as W

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        sx = (keys * LATTICE_A) % _TWO16
        sy = (keys * LATTICE_B) % _TWO16
        p = 2 * (8 + keys % 29)
        q = 2 * (8 + keys % 31)
        rows = {
            "poly_id": [], "area": [], "perimeter": [], "centroid_x": [],
            "centroid_y": [], "hull_area": [], "clipped_area": [],
        }
        for i in range(len(keys)):
            ring = np.array(
                [
                    [sx[i] + p[i], sy[i]],
                    [sx[i], sy[i] + q[i]],
                    [sx[i] - p[i], sy[i]],
                    [sx[i], sy[i] - q[i]],
                    [sx[i] + p[i], sy[i]],
                ],
                dtype=np.float64,
            )
            blob = W.encode_polygon([ring])
            rings = W.decode_polygons(blob)[0]
            area = GO.polygon_area(rings)
            gx, gy = GO.polygon_centroid(rings)
            hull = GO.convex_hull(rings[0][:-1])
            clipped = GO.clip_ring_rect(
                rings[0],
                sx[i] - p[i] / 2, sy[i] - q[i] / 2, sx[i] + p[i] / 2, sy[i] + q[i] / 2,
            )
            rows["poly_id"].append(f"d{int(keys[i]):06d}")
            rows["area"].append(area)
            rows["perimeter"].append(round(GO.ring_length(rings[0]), 2))
            rows["centroid_x"].append(gx)
            rows["centroid_y"].append(gy)
            rows["hull_area"].append(abs(GO.ring_area(hull)))
            rows["clipped_area"].append(abs(GO.ring_area(clipped)) if clipped.size else 0.0)
        return pa.table(
            {
                "poly_id": pa.array(rows["poly_id"], pa.string()),
                "area": pa.array(rows["area"], pa.float64()),
                "perimeter": pa.array(rows["perimeter"], pa.float64()),
                "centroid_x": pa.array(rows["centroid_x"], pa.float64()),
                "centroid_y": pa.array(rows["centroid_y"], pa.float64()),
                "hull_area": pa.array(rows["hull_area"], pa.float64()),
                "clipped_area": pa.array(rows["clipped_area"], pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Scanline rasterize burn-count (dyadic-exact oracle)
# --------------------------------------------------------------------------

def q_rasterize_lattice(sf_dir: str):
    """gdal_rasterize scanline semantics on right triangles with dyadic
    coordinates: h in {4, 8}, w a multiple of h, corner at (+0.25, +0.25),
    so every intersection x = x0 + w - (w/h)*(m+0.25) is exact and the
    per-scanline fill width floor(0.75 + w - (w/h)*(m+0.25)) matches the
    SQL generate_series sum bit-for-bit."""
    from gdal_ray.geo import wkb as W
    from gdal_ray.raster.rasterize import rasterize_wkb

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        hs = 4 * (1 + keys % 2)           # 4 or 8
        ws = hs * (1 + keys % 5)          # multiple of h, <= 48
        rows = {"poly_id": [], "burned": []}
        for i in range(len(keys)):
            w = int(ws[i])
            h = int(hs[i])
            x0, y0 = 0.25, 0.25
            ring = np.array(
                [[x0, y0], [x0 + w, y0], [x0, y0 + h], [x0, y0]], dtype=np.float64
            )
            blob = W.encode_polygon([ring])
            out = np.zeros((h + 2, w + 2), dtype=np.int32)
            rasterize_wkb(out, blob, (0.0, 1.0, 0.0, 0.0, 0.0, 1.0), 1)
            rows["poly_id"].append(f"r{int(keys[i]):06d}")
            rows["burned"].append(int(out.sum()))
        return pa.table(
            {
                "poly_id": pa.array(rows["poly_id"], pa.string()),
                "burned": pa.array(rows["burned"], pa.int64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# TIN / linear gridding (Delaunay + barycentric) with an affine-field oracle
# --------------------------------------------------------------------------

def q_tin_lattice(sf_dir: str, gsize: int = 16):
    """GDALGridLinear through the real Delaunay+barycentric kernel
    (raster/grid.grid_linear): supplier lattice points plus the four extent
    corners carry the affine field v = 2x + 3y, so EVERY valid
    triangulation must reproduce v = 2*gx + 3*gy at every node — kernel
    bugs (wrong barycentric weights, hull gaps) break equality. The SQL
    twin is the plain affine formula. (Delaunay-ness itself is enforced by
    the empty-circumcircle pytest.)"""
    from gdal_ray.raster.grid import grid_linear

    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])
    keys = np.asarray(sup["s_suppkey"], dtype=np.int64)
    px = ((keys * LATTICE_A) % _TWO16).astype(np.float64)
    py = ((keys * LATTICE_B) % _TWO16).astype(np.float64)
    corners = np.array(
        [[0.0, 0.0], [65535.0, 0.0], [0.0, 65535.0], [65535.0, 65535.0]]
    )
    px = np.concatenate([px, corners[:, 0]])
    py = np.concatenate([py, corners[:, 1]])
    pv = 2.0 * px + 3.0 * py
    pts_ref = ray.put({"px": px, "py": py, "pv": pv})
    cell = float(_TWO16) / gsize

    rows_ds = rd.from_items([{"row": r} for r in range(gsize)], override_num_blocks=gsize)

    def per_row(batch: pa.Table) -> pa.Table:
        pts = ray.get(pts_ref)
        out = {"row_": [], "col_": [], "val": []}
        for r in batch["row"].to_pylist():
            gt = (0.0, cell, 0.0, float(_TWO16) - r * cell, 0.0, -cell)
            vals = grid_linear(pts["px"], pts["py"], pts["pv"], gsize, 1, gt,
                               nodata=np.nan)[0]
            for c in range(gsize):
                out["row_"].append(r)
                out["col_"].append(c)
                out["val"].append(round(float(vals[c]), 4))
        return pa.table(
            {
                "row_": pa.array(out["row_"], pa.int64()),
                "col_": pa.array(out["col_"], pa.int64()),
                "val": pa.array(out["val"], pa.float64()),
            }
        )

    return rows_ds.map_batches(per_row, batch_format="pyarrow")


# --------------------------------------------------------------------------
# OGC predicates (relate family) on engineered rect pairs
# --------------------------------------------------------------------------

def _rect_ring(cx, cy, hw, hh):
    return np.array(
        [
            [cx - hw, cy - hh],
            [cx + hw, cy - hh],
            [cx + hw, cy + hh],
            [cx - hw, cy + hh],
            [cx - hw, cy - hh],
        ],
        dtype=np.float64,
    )


def q_relate_lattice(sf_dir: str):
    """OGC predicate classification (contains/overlaps/touches/disjoint)
    through the real predicate stack (boolean-op areas + exact boundary
    contact, geo/predicates.py): rect pairs ENGINEERED per supplier key to
    hit each relation class, incl. exact edge contact. The SQL twin is
    interval arithmetic on the same rects."""
    from gdal_ray.geo.predicates import relate_areal

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        sx = (keys * LATTICE_A) % _TWO16
        sy = (keys * LATTICE_B) % _TWO16
        aw = 64 + keys % 37
        ah = 64 + keys % 41
        bw = 16 + keys % 11
        bh = 16 + keys % 13
        mode = keys % 4
        dx = np.select(
            [mode == 0, mode == 1, mode == 2],
            [0, aw, aw + bw],
            default=aw + bw + 32,
        )
        rows = {"pair_id": [], "relation": []}
        for i in range(len(keys)):
            a = _rect_ring(sx[i], sy[i], aw[i], ah[i])
            b = _rect_ring(sx[i] + dx[i], sy[i], bw[i], bh[i])
            rows["pair_id"].append(f"rel{int(keys[i]):06d}")
            rows["relation"].append(relate_areal(a, b))
        return pa.table(
            {
                "pair_id": pa.array(rows["pair_id"], pa.string()),
                "relation": pa.array(rows["relation"], pa.string()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


def q_buffer_lattice(sf_dir: str, r: float = 16.0, quadsegs: int = 8):
    """Convex buffer (Minkowski disk sum, geomops.buffer_convex) of derived
    rects: buffered area has the closed form
    4*hw*hh + 4*(hw+hh)*r + 4*quadsegs*0.5*r^2*sin(pi/(2*quadsegs))
    (arc fans are equally-spaced chord sectors); centers on a 2^12 lattice
    keep shoelace float noise ~1e-8, absorbed by ROUND(..., 3)."""
    from gdal_ray.geo.geomops import buffer_convex, ring_area

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        sx = (keys * LATTICE_A) % 4096
        sy = (keys * LATTICE_B) % 4096
        hw = 48 + keys % 17
        hh = 48 + keys % 19
        rows = {"poly_id": [], "buf_area": []}
        for i in range(len(keys)):
            ring = _rect_ring(sx[i], sy[i], hw[i], hh[i])
            buf = buffer_convex(ring, r, quadsegs=quadsegs)
            rows["poly_id"].append(f"b{int(keys[i]):06d}")
            rows["buf_area"].append(round(abs(ring_area(buf)), 3))
        return pa.table(
            {
                "poly_id": pa.array(rows["poly_id"], pa.string()),
                "buf_area": pa.array(rows["buf_area"], pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# gdal_grid kernels (count / average / nearest) on lattice points
# --------------------------------------------------------------------------

def q_grid_lattice(sf_dir: str, gsize: int = 16, radius: float = 8192.0):
    """gdal_grid metrics through the REAL ``grid_points`` kernels
    (alg/gdalgrid.cpp moving-window count/average + nearest with a radius):
    supplier lattice points (value = key) gridded onto a 16x16 node grid
    over the 2^16 extent, one task per grid ROW (points broadcast once).
    Exact in float64: node centers and d2 are exact dyadics, value sums are
    integers < 2^53 (order-independent), nearest ties break to the lowest
    key (points pre-sorted by key; argmin picks the first)."""
    from gdal_ray.raster.grid import grid_points

    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])
    skeys = np.sort(np.asarray(sup["s_suppkey"], dtype=np.int64))
    px = ((skeys * LATTICE_A) % _TWO16).astype(np.float64)
    py = ((skeys * LATTICE_B) % _TWO16).astype(np.float64)
    pts_ref = ray.put({"px": px, "py": py, "pv": skeys.astype(np.float64)})
    cell = float(_TWO16) / gsize
    gt_full = (0.0, cell, 0.0, float(_TWO16), 0.0, -cell)

    rows_ds = rd.from_items([{"row": r} for r in range(gsize)], override_num_blocks=gsize)

    def per_row(batch: pa.Table) -> pa.Table:
        pts = ray.get(pts_ref)
        out = {"row_": [], "col_": [], "n_points": [], "avg_val": [], "nearest_key": []}
        for r in batch["row"].to_pylist():
            # this row's 1 x gsize slice of the full grid
            gt = (0.0, cell, 0.0, float(_TWO16) - r * cell, 0.0, -cell)
            cnt = grid_points(pts["px"], pts["py"], pts["pv"], gsize, 1, gt,
                              algorithm="count", radius=radius, nodata=0.0)[0]
            avg = grid_points(pts["px"], pts["py"], pts["pv"], gsize, 1, gt,
                              algorithm="average", radius=radius, nodata=0.0)[0]
            near = grid_points(pts["px"], pts["py"], pts["pv"], gsize, 1, gt,
                               algorithm="nearest", radius=radius, nodata=0.0)[0]
            for c in range(gsize):
                out["row_"].append(r)
                out["col_"].append(c)
                out["n_points"].append(int(cnt[c]))
                out["avg_val"].append(float(avg[c]))
                out["nearest_key"].append(int(near[c]))
        return pa.table(
            {
                "row_": pa.array(out["row_"], pa.int64()),
                "col_": pa.array(out["col_"], pa.int64()),
                "n_points": pa.array(out["n_points"], pa.int64()),
                "avg_val": pa.array(out["avg_val"], pa.float64()),
                "nearest_key": pa.array(out["nearest_key"], pa.int64()),
            }
        )

    return rows_ds.map_batches(per_row, batch_format="pyarrow")


def q_invdist_lattice(sf_dir: str, gsize: int = 16, radius: float = 8192.0):
    """gdal_grid invdist (Shepard inverse-distance^2, alg/gdalgrid.h:50)
    through the REAL ``grid_points`` kernel on the supplier lattice.
    Each 1/d2 term is one correctly-rounded division on both sides (power=2
    makes ``r2 ** (power/2)`` the identity); only the summation order
    differs, so values are ROUNDed to 6dp on both sides. Audited at
    sf 0.001/0.01/0.1: max engine-vs-SQL diff < 4e-13 while the closest
    unrounded value sits 2.8e-9 from a rounding boundary (margin ~1e4)."""
    from gdal_ray.raster.grid import grid_points

    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])
    skeys = np.sort(np.asarray(sup["s_suppkey"], dtype=np.int64))
    px = ((skeys * LATTICE_A) % _TWO16).astype(np.float64)
    py = ((skeys * LATTICE_B) % _TWO16).astype(np.float64)
    pts_ref = ray.put({"px": px, "py": py, "pv": skeys.astype(np.float64)})
    cell = float(_TWO16) / gsize

    rows_ds = rd.from_items([{"row": r} for r in range(gsize)], override_num_blocks=gsize)

    def per_row(batch: pa.Table) -> pa.Table:
        pts = ray.get(pts_ref)
        out = {"row_": [], "col_": [], "idw_val": []}
        for r in batch["row"].to_pylist():
            gt = (0.0, cell, 0.0, float(_TWO16) - r * cell, 0.0, -cell)
            idw = grid_points(pts["px"], pts["py"], pts["pv"], gsize, 1, gt,
                              algorithm="invdist", power=2.0, radius=radius,
                              nodata=0.0)[0]
            for c in range(gsize):
                out["row_"].append(r)
                out["col_"].append(c)
                out["idw_val"].append(round(float(idw[c]), 6))
        return pa.table(
            {
                "row_": pa.array(out["row_"], pa.int64()),
                "col_": pa.array(out["col_"], pa.int64()),
                "idw_val": pa.array(out["idw_val"], pa.float64()),
            }
        )

    return rows_ds.map_batches(per_row, batch_format="pyarrow")


# --------------------------------------------------------------------------
# General (CONCAVE) boolean-op oracle: L-shape pairs
# --------------------------------------------------------------------------

def _lshape(sx, sy, w1, h1, w2, h2):
    """Concave L ring: vertical bar [sx, sx+w1] x [sy, sy+h1+h2] plus foot
    [sx+w1, sx+w1+w2] x [sy, sy+h2] — interior-disjoint rect decomposition
    (R1 | R2) used verbatim by the SQL twin."""
    return np.array(
        [
            [sx, sy],
            [sx + w1 + w2, sy],
            [sx + w1 + w2, sy + h2],
            [sx + w1, sy + h2],
            [sx + w1, sy + h1 + h2],
            [sx, sy + h1 + h2],
            [sx, sy],
        ],
        dtype=np.float64,
    )


def q_lshape_clip_lattice(sf_dir: str):
    """General polygon Intersection (booleanops: ear-clip triangulation +
    convex clipping) on CONCAVE L-shape pairs; the SQL twin sums the four
    closed-form overlaps of the interior-disjoint rect decompositions.
    Engine areas round to 4 decimals to absorb triangulation float dust."""
    from gdal_ray.geo.booleanops import pieces_area, polygon_intersection

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        sx = (keys * LATTICE_A) % _TWO16
        sy = (keys * LATTICE_B) % _TWO16
        w1 = 24 + keys % 17
        h1 = 40 + keys % 19
        w2 = 40 + keys % 23
        h2 = 24 + keys % 13
        dx = (keys * 40503) % 81 - 40
        dy = (keys * 65521) % 73 - 36
        rows = {"pair_id": [], "inter_area": []}
        for i in range(len(keys)):
            a = _lshape(sx[i], sy[i], w1[i], h1[i], w2[i], h2[i])
            b = _lshape(sx[i] + dx[i], sy[i] + dy[i], w2[i], h2[i], w1[i], h1[i])
            area = pieces_area(polygon_intersection(a, b))
            rows["pair_id"].append(f"l{int(keys[i]):06d}")
            rows["inter_area"].append(round(area, 4))
        return pa.table(
            {
                "pair_id": pa.array(rows["pair_id"], pa.string()),
                "inter_area": pa.array(rows["inter_area"], pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Layer-algebra intersection (convex clip) on derived rectangle pairs
# --------------------------------------------------------------------------

def q_clip_pairs_lattice(sf_dir: str):
    """Pairwise Intersection areas (ogrlayer.cpp:3345 layer algebra) through
    the general Sutherland-Hodgman convex clip: rect A at the lattice point,
    rect B offset by a key-derived shift — integer corners, so the clip
    vertices and shoelace area are exact; SQL twin is the closed-form
    axis-aligned overlap."""
    from gdal_ray.geo import geomops as GO

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        sx = (keys * LATTICE_A) % _TWO16
        sy = (keys * LATTICE_B) % _TWO16
        aw = 64 + (keys % 37)
        ah = 64 + (keys % 41)
        dx = (keys * 40503) % 97 - 48
        dy = (keys * 65521) % 89 - 44
        bw = 64 + (keys % 43)
        bh = 64 + (keys % 47)
        rows = {"pair_id": [], "inter_area": []}
        for i in range(len(keys)):
            a = np.array(
                [
                    [sx[i] - aw[i], sy[i] - ah[i]],
                    [sx[i] + aw[i], sy[i] - ah[i]],
                    [sx[i] + aw[i], sy[i] + ah[i]],
                    [sx[i] - aw[i], sy[i] + ah[i]],
                    [sx[i] - aw[i], sy[i] - ah[i]],
                ],
                dtype=np.float64,
            )
            bx, by = sx[i] + dx[i], sy[i] + dy[i]
            b = np.array(
                [
                    [bx - bw[i], by - bh[i]],
                    [bx + bw[i], by - bh[i]],
                    [bx + bw[i], by + bh[i]],
                    [bx - bw[i], by + bh[i]],
                    [bx - bw[i], by - bh[i]],
                ],
                dtype=np.float64,
            )
            inter = GO.clip_ring_convex(a, b)
            area = abs(GO.ring_area(inter)) if inter.size else 0.0
            rows["pair_id"].append(f"p{int(keys[i]):06d}")
            rows["inter_area"].append(area)
        return pa.table(
            {
                "pair_id": pa.array(rows["pair_id"], pa.string()),
                "inter_area": pa.array(rows["inter_area"], pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Conic reprojection (LCC 2SP + Albers) forward oracle
# --------------------------------------------------------------------------

def q_conic_lattice(sf_dir: str):
    """Lambert Conformal Conic (EPSG 9802) + Albers Equal-Area (EPSG 9822)
    forward projection of customer lattice lat/lons through the real
    ellipsoidal kernels (geo/conic.py, the PROJ-replacement seam used by
    warp_image). The SQL twin replays Snyder's closed forms with identical
    operation order; mm-level rounding absorbs libm 1-ulp drift. Inverse
    (iterative) is covered by the pytest round-trip property tests."""
    from gdal_ray.geo import conic as CN

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        lat = -80.0 + ((keys * LATTICE_A) % 160000) / 1000.0
        lon = -179.0 + ((keys * LATTICE_B) % 358000) / 1000.0
        lx, ly = CN.lcc_forward(lat, lon, 33.0, 45.0, 23.0, -96.0)
        ax, ay = CN.albers_forward(lat, lon, 29.5, 45.5, 23.0, -96.0)
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "lcc_x": pa.array(np.round(lx, 3)),
                "lcc_y": pa.array(np.round(ly, 3)),
                "alb_x": pa.array(np.round(ax, 3)),
                "alb_y": pa.array(np.round(ay, 3)),
            }
        )

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# LineString ops (length / segmentize / interpolate / rect clip)
# --------------------------------------------------------------------------

def q_line_lattice(sf_dir: str):
    """LineString kernels (geo/lineops.py: OGRCurve get_Length/Value,
    segmentize, layer-algebra Clip via Liang-Barsky) on a 2-segment zigzag
    with integer geometry, through a WKB LineString round-trip. Every
    emitted float replays exactly in the SQL twin: segment lengths are
    sqrt of exact ints, the interpolation distance 0.25*length always
    lands in segment 1, and the clip rect offsets are exact ints so the
    Liang-Barsky parameters are identical divisions."""
    from gdal_ray.geo import lineops as LN
    from gdal_ray.geo import wkb as W

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        sx = ((keys * LATTICE_A) % _TWO16).astype(np.float64)
        sy = ((keys * LATTICE_B) % _TWO16).astype(np.float64)
        dx = (32 + keys % 17).astype(np.float64)
        dy = (24 + keys % 13).astype(np.float64)
        dx2 = (16 + keys % 11).astype(np.float64)
        out = {
            "line_id": [], "length": [], "n_seg_pts": [],
            "interp_x": [], "interp_y": [], "n_clip_parts": [], "clip_len": [],
        }
        for i in range(len(keys)):
            pts = np.array(
                [
                    [sx[i], sy[i]],
                    [sx[i] + dx[i], sy[i] + dy[i]],
                    [sx[i] + dx[i] + dx2[i], sy[i]],
                ]
            )
            pts = W.decode_lines(W.encode_linestring(pts))[0]
            total = LN.line_length(pts)
            ix, iy = LN.line_interpolate(pts, 0.25 * total)
            segd = LN.segmentize(pts, 10.0)
            parts = LN.clip_line_rect(
                pts, sx[i] + 8.0, sy[i] + 6.0, sx[i] + 24.0, sy[i] + 18.0
            )
            clen = sum(
                float(np.sum(np.sqrt(np.sum(np.diff(p, axis=0) ** 2, axis=1))))
                for p in parts
            )
            out["line_id"].append(f"ln{int(keys[i]):06d}")
            out["length"].append(round(total, 6))
            out["n_seg_pts"].append(len(segd))
            out["interp_x"].append(round(ix, 6))
            out["interp_y"].append(round(iy, 6))
            out["n_clip_parts"].append(len(parts))
            out["clip_len"].append(round(clen, 6))
        return pa.table(
            {
                "line_id": pa.array(out["line_id"], pa.string()),
                "length": pa.array(out["length"], pa.float64()),
                "n_seg_pts": pa.array(out["n_seg_pts"], pa.int64()),
                "interp_x": pa.array(out["interp_x"], pa.float64()),
                "interp_y": pa.array(out["interp_y"], pa.float64()),
                "n_clip_parts": pa.array(out["n_clip_parts"], pa.int32()),
                "clip_len": pa.array(out["clip_len"], pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# Layer algebra Union / SymDifference through the REAL cell-partitioned
# layer op (geo/layerops.py; ref ogrlayer.cpp:3763 Union, :4300 SymDiff)
# --------------------------------------------------------------------------

def _rect_wkb(cx, cy, hx, hy):
    from gdal_ray.geo import wkb as W

    ring = np.array(
        [
            [cx - hx, cy - hy],
            [cx + hx, cy - hy],
            [cx + hx, cy + hy],
            [cx - hx, cy + hy],
            [cx - hx, cy - hy],
        ],
        dtype=np.float64,
    )
    return W.encode_polygon([ring])


def _boolean_layers(sf_dir: str):
    """Two supplier-keyed rectangle layers on a 300 m tile lattice.

    Tile (k%256, k//256) isolates each key's geometry: A_k is centered
    130 m into its tile with half-extents <= 96 m, B_k (EVEN keys only —
    odd keys exercise the intersects-nothing passthrough) is A_k's center
    shifted by <=48 m with half-extents <= 106 m, so A and B of the same
    key ALWAYS overlap while nothing crosses a tile boundary into another
    key's A (B-B contact is irrelevant to the op). The SQL twin is the
    closed-form axis-aligned rectangle algebra."""

    def mk_a(batch: pa.Table) -> pa.Table:
        ks = np.asarray(batch["s_suppkey"], dtype=np.int64)
        fids, wkbs = [], []
        for k in ks:
            k = int(k)
            ox, oy = (k % 256) * 300 + 130, (k // 256) * 300 + 130
            fids.append(f"a{k:06d}")
            wkbs.append(_rect_wkb(ox, oy, 60 + k % 37, 60 + k % 41))
        return pa.table({"fid": pa.array(fids, pa.string()), "wkb": pa.array(wkbs, pa.binary())})

    def mk_b(batch: pa.Table) -> pa.Table:
        ks = np.asarray(batch["s_suppkey"], dtype=np.int64)
        ks = ks[ks % 2 == 0]
        fids, wkbs = [], []
        for k in ks:
            k = int(k)
            ox, oy = (k % 256) * 300 + 130, (k // 256) * 300 + 130
            dx = (k * 40503) % 97 - 48
            dy = (k * 65521) % 89 - 44
            fids.append(f"b{k:06d}")
            wkbs.append(_rect_wkb(ox + dx, oy + dy, 60 + k % 43, 60 + k % 47))
        return pa.table({"fid": pa.array(fids, pa.string()), "wkb": pa.array(wkbs, pa.binary())})

    sup = _read(sf_dir, "supplier", ["s_suppkey"])
    return (
        sup.map_batches(mk_a, batch_format="pyarrow"),
        sup.map_batches(mk_b, batch_format="pyarrow"),
    )


def q_union_lattice(sf_dir: str):
    """Layer Union (ogrlayer.cpp:3763): A∩B pair features + both reduced
    sides, through the cell-partitioned layer op."""
    from gdal_ray.geo.layerops import layer_boolean_areas

    a, b = _boolean_layers(sf_dir)
    return layer_boolean_areas(a, b, "union", level=16)


def q_symdiff_lattice(sf_dir: str):
    """Layer SymDifference (ogrlayer.cpp:4300): each side minus all its
    intersecting partners, through the cell-partitioned layer op."""
    from gdal_ray.geo.layerops import layer_boolean_areas

    a, b = _boolean_layers(sf_dir)
    return layer_boolean_areas(a, b, "symdifference", level=16)


# --------------------------------------------------------------------------
# Stereographic projections (EPSG 9810 variant B + 9809) forward oracle
# --------------------------------------------------------------------------

def q_stereo_lattice(sf_dir: str):
    """Polar Stereographic variant B (EPSG:3413 sea-ice-north parameters)
    and Oblique Stereographic (EPSG:28992 Amersfoort parameters, Bessel
    1841) forward projection of customer lattice lat/lons through the REAL
    kernels (geo/stereo.py — the PROJ-replacement seam used by warp_image).
    The SQL twin replays the EPSG Guidance Note closed forms with identical
    operation order; mm rounding absorbs libm 1-ulp drift. Inverses are
    covered by pytest round-trip properties + EPSG worked examples
    (tests/test_stereo.py)."""
    from gdal_ray.geo import stereo as ST

    dms = lambda d, m, s: d + m / 60.0 + s / 3600.0  # noqa: E731
    oste = (dms(52, 9, 22.178), dms(5, 23, 15.5), 0.9999079, 155000.0,
            463000.0, 6377397.155, 299.1528128)

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        # polar cap lattice (EPSG:3413 domain)
        plat = 60.0 + ((keys * LATTICE_A) % 29000) / 1000.0
        plon = -179.0 + ((keys * LATTICE_B) % 358000) / 1000.0
        k0 = ST.polar_stereo_k0_from_lat_ts(70.0)
        px, py = ST.polar_stereo_forward(plat, plon, 90.0, -45.0, k0)
        # Netherlands lattice (EPSG:28992 domain)
        olat = 50.0 + ((keys * LATTICE_A) % 4000) / 1000.0
        olon = 3.0 + ((keys * LATTICE_B) % 5000) / 1000.0
        ox, oy = ST.oblique_stereo_forward(olat, olon, *oste)
        return pa.table(
            {
                "c_custkey": batch["c_custkey"],
                "ps_x": pa.array(np.round(px, 3)),
                "ps_y": pa.array(np.round(py, 3)),
                "os_x": pa.array(np.round(ox, 3)),
                "os_y": pa.array(np.round(oy, 3)),
            }
        )

    return _read(sf_dir, "customer", ["c_custkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# GCP polynomial + TPS transforms (alg/gdal_crs.c, alg/gdal_tps.cpp)
# --------------------------------------------------------------------------

def q_gcp_lattice(sf_dir: str):
    """GCP transforms through the REAL fit/solve kernels (geo/gcp.py):
    per supplier key, 6 GCPs sampled from an INTEGER affine map feed an
    order-1 polynomial least-squares fit and an exact thin-plate-spline
    solve; both transforms evaluate two integer probe points. Because the
    underlying map is affine with integer outputs, the fitted transforms
    reproduce integers to ~1e-7 and mm rounding makes the SQL twin (the
    closed-form affine) exact."""
    from gdal_ray.geo.gcp import GCPPolynomial, ThinPlateSpline

    gcp_px = np.array([0.0, 40.0, 0.0, 40.0, 20.0, 7.0])
    gcp_py = np.array([0.0, 0.0, 30.0, 30.0, 10.0, 23.0])
    probes = np.array([[10.0, 5.0], [33.0, 27.0]])

    def per_key(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        out = {"img_id": [], "p1x": [], "p1y": [], "p2x": [], "p2y": [],
               "t1x": [], "t1y": []}
        for k in keys:
            k = int(k)
            a0, a1, a2 = 1000 + k, 2 + k % 3, -(1 + k % 2)
            b0, b1, b2 = 2000 - k, 1 + k % 5, 3 + k % 7
            gx = a0 + a1 * gcp_px + a2 * gcp_py
            gy = b0 + b1 * gcp_px + b2 * gcp_py
            g = np.stack([gcp_px, gcp_py, gx, gy], axis=1)
            poly = GCPPolynomial(g, order=1)
            tps = ThinPlateSpline(g)
            fx, fy = poly.forward(probes[:, 0], probes[:, 1])
            tx, ty = tps.forward(probes[:1, 0], probes[:1, 1])
            out["img_id"].append(f"g{k:06d}")
            out["p1x"].append(round(float(fx[0]), 3))
            out["p1y"].append(round(float(fy[0]), 3))
            out["p2x"].append(round(float(fx[1]), 3))
            out["p2y"].append(round(float(fy[1]), 3))
            out["t1x"].append(round(float(tx[0]), 3))
            out["t1y"].append(round(float(ty[0]), 3))
        return pa.table(
            {
                "img_id": pa.array(out["img_id"], pa.string()),
                "p1x": pa.array(out["p1x"], pa.float64()),
                "p1y": pa.array(out["p1y"], pa.float64()),
                "p2x": pa.array(out["p2x"], pa.float64()),
                "p2y": pa.array(out["p2y"], pa.float64()),
                "t1x": pa.array(out["t1x"], pa.float64()),
                "t1y": pa.array(out["t1y"], pa.float64()),
            }
        )

    return _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        per_key, batch_format="pyarrow"
    )


# --------------------------------------------------------------------------
# NTv2 datum grid shift through the real .gsb file path (exact-dyadic twin)
# --------------------------------------------------------------------------

def q_ntv2_lattice(sf_dir: str):
    """NTv2 bilinear grid shift on customer lattice points through the
    REAL file path: a deterministic 21x21 .gsb is written once (float32,
    ntv2dataset.cpp layout), parsed back by ``read_gsb``, broadcast via
    ``ray.put``, and ``SubGrid.interpolate`` runs per batch.

    Exactness by construction: the 0.1-deg grid over 50..52N/74..76W with
    2^16-lattice points makes every cell fraction a dyadic rational with
    denominator 2^14, node shifts are integers/256 (exact in float32),
    so each bilinear term has denominator 2^36 and every float64 product,
    sum and the final x*2^36 quantization is EXACT — the SQL twin
    recomputes node values and weights in closed form with zero rounding
    ambiguity (no banker's-vs-half-away hazard). Refs:
    frmts/raw/ntv2dataset.cpp (format), ogr/ogrct.cpp (datum-shift use)."""
    from gdal_ray.geo.ntv2 import read_gsb, write_gsb

    path = os.path.join(FIXTURE_ROOT, "ntv2_lattice_v1.gsb")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        r = np.arange(21, dtype=np.float64)[:, None]
        c = np.arange(21, dtype=np.float64)[None, :]
        write_gsb(path, [dict(
            name="LATTICE", parent="NONE",
            s_lat=180000.0, n_lat=187200.0,       # 50..52 N (arcsec)
            e_long=266400.0, w_long=273600.0,     # 74..76 W (positive west)
            lat_inc=360.0, long_inc=360.0,
            shift_lat=(7.0 * r + 3.0 * c - 100.0) / 256.0 + 0.0 * c,
            shift_lon=(5.0 * r - 11.0 * c + 60.0) / 256.0 + 0.0 * c,
        )])
    grid_ref = ray.put(read_gsb(path))

    def shift(batch: pa.Table) -> pa.Table:
        grid = ray.get(grid_ref)
        sg = grid.subgrids[0]
        keys = np.asarray(batch["c_custkey"], dtype=np.int64)
        ix = (keys * LATTICE_A) % _TWO16
        iy = (keys * LATTICE_B) % _TWO16
        lat = 50.0 + ix * (2.0 / 65536.0)
        lon = -(74.0 + iy * (2.0 / 65536.0))
        # same frame conversion as Ntv2Grid.shift
        sl, so = sg.interpolate(-lon * 3600.0, lat * 3600.0)
        two36 = float(1 << 36)
        return pa.table({
            "c_custkey": batch["c_custkey"],
            "slat_q": pa.array((sl * two36).astype(np.int64)),
            "slon_q": pa.array((so * two36).astype(np.int64)),
        })

    return (
        _read(sf_dir, "customer", ["c_custkey"])
        .map_batches(shift, batch_format="pyarrow")
        .sort("c_custkey")
    )


def q_lineref_lattice(sf_dir: str):
    """Linear referencing (apps/ogrlineref.cpp get_pos) on closed-form
    L-lines: supplier key k gets the polyline (0,0)->(a,0)->(a,b) with
    a = 4 + k%7, b = 3 + k%5 and the query point
    (k%13 - 3 + 0.25, k%9 - 1 + 0.125); the result is the measure of the
    nearest point (geo/lineops.line_locate) plus the total length.

    Exactness by construction: integer line geometry + dyadic query
    points make both candidate squared distances exact multiples of
    2^-6, so the engine's <=1e-13 projection rounding can never flip the
    CASE comparison, and the tie loci (py = a - px and the outer-corner
    parabola) are fraction-impossible for .25/.125 offsets against
    integer a — the twin recomputes both segment projections in closed
    form (clamp = LEAST/GREATEST, chooser = CASE) and the 1e4-quantized
    measures match bit-exactly."""
    from gdal_ray.geo.lineops import line_length, line_locate

    def locate(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        meas = np.empty(len(keys))
        total = np.empty(len(keys))
        for j, k in enumerate(keys):
            a = float(4 + k % 7)
            b = float(3 + k % 5)
            pts = np.array([[0.0, 0.0], [a, 0.0], [a, b]])
            px = float(k % 13) - 3 + 0.25
            py = float(k % 9) - 1 + 0.125
            meas[j] = line_locate(pts, px, py)
            total[j] = line_length(pts)
        return pa.table({
            "s_suppkey": batch["s_suppkey"],
            "measure_q": pa.array(np.round(meas * 10000).astype(np.int64)),
            "len_q": pa.array(np.round(total * 10000).astype(np.int64)),
        })

    return (
        _read(sf_dir, "supplier", ["s_suppkey"])
        .map_batches(locate, batch_format="pyarrow")
        .sort("s_suppkey")
    )


def q_simplify_cov_lattice(sf_dir: str):
    """Coverage-preserving simplification (apps/
    gdalalg_vector_simplify_coverage.cpp; GEOS CoverageSimplifier VW
    semantics) through the REAL distributed plan — node-detection
    shuffle, shared-arc VW shuffle, feature co-shuffle
    (geo/coverage.simplify_coverage_ds) — on closed-form zigzag pairs.

    Per supplier key k: two 16x8 rectangles share a 7-vertex zigzag edge
    of height h = 1 or 6 (bit 5 of k*LATTICE_A), the pair offset to cell
    (64*(k%256), 64*(k//256)) so coverages never touch across keys. With
    tolerance^2 ~ 17: h=1 collapses fully (every intermediate effective
    area <= 16h = 16 < 17; VW floor rule keeps the chain below 17), h=6
    keeps every vertex (min initial area = 3h = 18 >= 17). The twin is a
    pure CASE on the same bit: vertex counts 5 vs 12, areas 128 vs
    128 +/- 2h (the zigzag's trapezoid integral), exact integers
    throughout (coords <= ~250k, shoelace sums << 2^53)."""
    from gdal_ray.geo.coverage import simplify_coverage_ds
    from gdal_ray.geo.wkb import decode_polygons, encode_polygon

    def build(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        h = np.where((((keys * LATTICE_A) >> 5) & 1) == 0, 1.0, 6.0)
        dx = (64 * (keys % 256)).astype(np.float64)
        dy = (64 * (keys // 256)).astype(np.float64)
        rows = {"fid": [], "s_suppkey": [], "role": [], "geometry": []}
        for j, k in enumerate(keys):
            shared = [(dx[j], dy[j])]
            for i, x in enumerate(np.arange(2.0, 16.0, 2.0)):
                shared.append((dx[j] + x, dy[j] + (-h[j] if i % 2 == 0 else h[j])))
            shared.append((dx[j] + 16.0, dy[j]))
            top = shared + [(dx[j] + 16.0, dy[j] + 8.0), (dx[j], dy[j] + 8.0)]
            bot = shared[::-1] + [(dx[j], dy[j] - 8.0), (dx[j] + 16.0, dy[j] - 8.0)]
            for role, pts in (("t", top), ("b", bot)):
                ring = np.asarray(pts + pts[:1], dtype=np.float64)
                rows["fid"].append(f"s{int(k):07d}{role}")
                rows["s_suppkey"].append(int(k))
                rows["role"].append(role)
                rows["geometry"].append(encode_polygon([ring]))
        return pa.table(
            {
                "fid": pa.array(rows["fid"], pa.string()),
                "s_suppkey": pa.array(rows["s_suppkey"], pa.int64()),
                "role": pa.array(rows["role"], pa.string()),
                "geometry": pa.array(rows["geometry"], pa.binary()),
            }
        )

    layer = _read(sf_dir, "supplier", ["s_suppkey"]).map_batches(
        build, batch_format="pyarrow"
    )
    simplified = simplify_coverage_ds(
        layer, tolerance=float(np.sqrt(17.0)), id_col="fid", num_buckets=16
    )

    def metrics(batch: pa.Table) -> pa.Table:
        n_pts = np.empty(len(batch), dtype=np.int64)
        area_q = np.empty(len(batch), dtype=np.int64)
        for j, buf in enumerate(batch["geometry"]):
            ring = decode_polygons(bytes(buf.as_py()))[0][0][:-1]
            x, y = ring[:, 0], ring[:, 1]
            a2 = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
            n_pts[j] = len(ring) + 1
            area_q[j] = np.int64(round(abs(a2) * 0.5 * 10000.0))
        return pa.table(
            {
                "s_suppkey": batch["s_suppkey"],
                "role": batch["role"],
                "n_pts": pa.array(n_pts),
                "area_q": pa.array(area_q),
            }
        )

    return simplified.map_batches(metrics, batch_format="pyarrow").sort(
        ["s_suppkey", "role"]
    )
