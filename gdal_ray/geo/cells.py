"""Spatial cell ids (quadkey grid over WebMercator) — the engine's partition key.

Role analogous to GDAL's quadtree structures (``port/cpl_quad_tree.h:48-65``;
FlatGeobuf packed Hilbert R-tree ``packedrtree.h:78-105``): in a distributed
engine the *global* index is not a tree object but a partitioning of the table
by cell id — points and polygon covers that share a cell land in the same
shuffle partition.

A cell is an XYZ tile (z, x, y) at a fixed level packed into one int64:
``cell = (z << 58) | (x << 29) | y`` (works up to z=28). Packing is pure
integer arithmetic, so the same cell id is computable in ANSI SQL for the
DuckDB oracle.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geo import mercator

__all__ = ["cell_id", "cell_to_xyz", "cell_of_meters", "k_ring", "bbox_cover"]

_Y_BITS = 29
_X_SHIFT = 29
_Z_SHIFT = 58


def cell_id(z, x, y):
    """Pack XYZ tile coords into one int64 cell id (vectorized)."""
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return (z << _Z_SHIFT) | (x << _X_SHIFT) | y


def cell_to_xyz(cell):
    cell = np.asarray(cell, dtype=np.int64)
    z = cell >> _Z_SHIFT
    x = (cell >> _X_SHIFT) & ((np.int64(1) << _Y_BITS) - 1)
    y = cell & ((np.int64(1) << _Y_BITS) - 1)
    return z, x, y


def cell_of_meters(mx, my, level):
    """EPSG:3857 meters -> cell id at `level` (XYZ y convention)."""
    tx, ty = mercator.meters_to_tile(mx, my, level)
    n = np.int64(1) << np.int64(level)
    tx = np.clip(tx, 0, n - 1)
    ty = np.clip(ty, 0, n - 1)
    y_xyz = mercator.tms_to_xyz(ty, level)
    return cell_id(level, tx, y_xyz)


def k_ring(cell, k=1):
    """Neighbor cells within Chebyshev distance k (incl. center).

    x wraps around the antimeridian; y is clamped at the poles. Mirrors the
    expanding-neighborhood search of GDAL's gridding quadtree
    (``alg/gdalgrid.cpp:896-923``) expressed as cell expansion.
    Scalar cell -> 1-D array of unique cells.
    """
    z, x, y = cell_to_xyz(np.asarray([cell], dtype=np.int64))
    z, x, y = int(z[0]), int(x[0]), int(y[0])
    n = 1 << z
    out = []
    for dy in range(-k, k + 1):
        yy = y + dy
        if yy < 0 or yy >= n:
            continue
        for dx in range(-k, k + 1):
            xx = (x + dx) % n
            out.append((z << _Z_SHIFT) | (xx << _X_SHIFT) | yy)
    return np.unique(np.asarray(out, dtype=np.int64))


def bbox_cover(minx, miny, maxx, maxy, level):
    """All cells at `level` intersecting an EPSG:3857 bbox.

    Vectorized range computation; per-row expansion returns a list of
    (row_index, cell) suitable for building an exploded cover table. This is
    the distributed analog of inserting a bbox into CPLQuadTree.
    """
    minx = np.asarray(minx, dtype=np.float64)
    miny = np.asarray(miny, dtype=np.float64)
    maxx = np.asarray(maxx, dtype=np.float64)
    maxy = np.asarray(maxy, dtype=np.float64)
    n = np.int64(1) << np.int64(level)
    tx0, ty0 = mercator.meters_to_tile(minx, miny, level)  # TMS
    tx1, ty1 = mercator.meters_to_tile(maxx, maxy, level)
    tx0 = np.clip(tx0, 0, n - 1)
    tx1 = np.clip(tx1, 0, n - 1)
    ty0 = np.clip(ty0, 0, n - 1)
    ty1 = np.clip(ty1, 0, n - 1)
    # XYZ y decreases as TMS y increases
    y0 = mercator.tms_to_xyz(ty1, level)
    y1 = mercator.tms_to_xyz(ty0, level)

    rows = []
    cells = []
    lvl = np.int64(level)
    for i in range(len(tx0)):
        xs = np.arange(tx0[i], tx1[i] + 1, dtype=np.int64)
        ys = np.arange(y0[i], y1[i] + 1, dtype=np.int64)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        c = (lvl << _Z_SHIFT) | (gx.ravel() << _X_SHIFT) | gy.ravel()
        cells.append(c)
        rows.append(np.full(c.shape, i, dtype=np.int64))
    if not cells:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate(rows), np.concatenate(cells)
