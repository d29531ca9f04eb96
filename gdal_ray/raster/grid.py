"""Gridding: scattered points -> raster (GDALGrid algorithms).

Kernels mirror ``alg/gdalgrid.h:50-98`` / ``alg/gdalgrid.cpp``:
- invdist: Shepard inverse-distance-to-a-power with smoothing
  (``GDALGridInverseDistanceToAPower``), power=2, smoothing=0 defaults;
  a point exactly on a node short-circuits to its value;
- nearest: value of the nearest point (ties: first in input order, the
  quadtree-iteration order GDAL uses);
- invdistnn: ``GDALGridInverseDistanceToAPowerNearestNeighbor`` — invdist
  restricted to the ``max_points`` nearest points (by smoothed distance)
  inside ``radius``, nodata when fewer than ``min_points`` found;
- average / minimum / maximum / range / count: moving-window metrics over
  points within ``radius`` (circular window), nodata where empty;
- average_distance: mean node-to-point distance in the window
  (``GDALGridDataMetricAverageDistance``);
- average_distance_pts: mean pairwise distance between the window's
  points (``GDALGridDataMetricAverageDistancePts``; unordered pairs,
  nodata with fewer than two points).

The distributed form: output tiles keyed by cell id, input points routed to
tiles via k-ring replication (groupby(cell).map_groups with these kernels);
per-image/per-tile grids here are brute-force numpy (the in-cell kernel).
"""

from __future__ import annotations

import numpy as np

__all__ = ["grid_points", "delaunay_triangulate", "grid_linear"]


def grid_points(
    px,
    py,
    pv,
    w,
    h,
    gt,
    algorithm="invdist",
    power=2.0,
    smoothing=0.0,
    radius=np.inf,
    nodata=0.0,
    max_points=12,
    min_points=0,
):
    """Compute an (h, w) grid from points; node centers via the
    geotransform (node value sampled at pixel centers, gdal_grid layout)."""
    from gdal_ray.geo.affine import apply_geotransform

    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    cols, rows = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    gx, gy = apply_geotransform(gt, cols.ravel(), rows.ravel())
    # (nodes, points) distances, chunked over nodes
    out = np.full(w * h, np.float64(nodata))
    chunk = max(1, 2_000_000 // max(1, len(px)))
    pair_d = None
    if algorithm == "average_distance_pts":
        # point-to-point distances don't depend on the node — compute once
        ddx = px[:, None] - px[None, :]
        ddy = py[:, None] - py[None, :]
        pair_d = np.sqrt(ddx * ddx + ddy * ddy)
    for s in range(0, len(gx), chunk):
        dx = gx[s : s + chunk, None] - px[None, :]
        dy = gy[s : s + chunk, None] - py[None, :]
        d2 = dx * dx + dy * dy
        if algorithm == "invdist":
            r2 = d2 + smoothing * smoothing
            exact = r2 == 0.0
            wgt = 1.0 / np.maximum(r2, 1e-300) ** (power / 2.0)
            if np.isfinite(radius):
                wgt = np.where(d2 <= radius * radius, wgt, 0.0)
            num = (wgt * pv[None, :]).sum(axis=1)
            den = wgt.sum(axis=1)
            vals = np.where(den > 0, num / np.where(den == 0, 1, den), nodata)
            hit = exact.any(axis=1)
            if hit.any():
                first = exact.argmax(axis=1)
                vals[hit] = pv[first[hit]]
            out[s : s + chunk] = vals
        elif algorithm == "invdistnn":
            # alg/gdalgrid.cpp:241: candidates within TRUE radius, ranked
            # by SMOOTHED squared distance, capped at max_points nearest;
            # a smoothed distance under 1e-13 short-circuits to the value
            r2 = d2 + smoothing * smoothing
            exact = r2 < 1e-13
            r2m = np.where(d2 <= radius * radius, r2, np.inf)
            npts = r2m.shape[1]
            k = npts if max_points <= 0 else min(max_points, npts)
            if k < npts:
                idx = np.argpartition(r2m, k - 1, axis=1)[:, :k]
                rsel = np.take_along_axis(r2m, idx, axis=1)
                vsel = pv[idx]
            else:
                rsel, vsel = r2m, np.broadcast_to(pv, r2m.shape)
            ok = np.isfinite(rsel)
            wgt = np.where(ok, 1.0 / np.maximum(rsel, 1e-300) ** (power / 2.0), 0.0)
            num = (wgt * vsel).sum(axis=1)
            den = wgt.sum(axis=1)
            cnt = ok.sum(axis=1)
            vals = np.where(
                (den > 0) & (cnt >= min_points),
                num / np.where(den == 0, 1, den), nodata,
            )
            hit = exact.any(axis=1)
            if hit.any():
                vals[hit] = pv[exact.argmax(axis=1)[hit]]
            out[s : s + chunk] = vals
        elif algorithm == "average_distance":
            inside = d2 <= radius * radius
            cnt = inside.sum(axis=1)
            acc = np.where(inside, np.sqrt(d2), 0.0).sum(axis=1)
            vals = np.where(
                (cnt > 0) & (cnt >= min_points),
                acc / np.maximum(cnt, 1), nodata,
            )
            out[s : s + chunk] = vals
        elif algorithm == "average_distance_pts":
            inside = (d2 <= radius * radius).astype(np.float64)
            cnt = inside.sum(axis=1)
            # sum over unordered point pairs both inside this node's
            # window: diag(inside @ D @ inside.T) / 2, D symmetric, diag 0
            tot = ((inside @ pair_d) * inside).sum(axis=1) / 2.0
            n_pairs = cnt * (cnt - 1.0) / 2.0
            vals = np.where(n_pairs > 0, tot / np.maximum(n_pairs, 1.0), nodata)
            out[s : s + chunk] = vals
        elif algorithm == "nearest":
            if np.isfinite(radius):
                masked = np.where(d2 <= radius * radius, d2, np.inf)
            else:
                masked = d2
            idx = masked.argmin(axis=1)
            vals = pv[idx]
            empty = ~np.isfinite(masked.min(axis=1))
            vals[empty] = nodata
            out[s : s + chunk] = vals
        else:
            inside = d2 <= radius * radius
            cnt = inside.sum(axis=1)
            if algorithm == "count":
                out[s : s + chunk] = cnt
                continue
            vv = np.where(inside, pv[None, :], np.nan)
            with np.errstate(invalid="ignore", divide="ignore"):
                if algorithm == "average":
                    # nanmean without its "Mean of empty slice" warning on
                    # rows with no point inside (cnt 0 maps to nodata below)
                    ok = ~np.isnan(vv)
                    vals = np.where(ok, vv, 0.0).sum(axis=1) / ok.sum(axis=1)
                elif algorithm == "minimum":
                    vals = np.nanmin(np.where(inside, vv, np.inf), axis=1)
                    vals[~np.isfinite(vals)] = np.nan
                elif algorithm == "maximum":
                    vals = np.nanmax(np.where(inside, vv, -np.inf), axis=1)
                    vals[~np.isfinite(vals)] = np.nan
                elif algorithm == "range":
                    lo = np.nanmin(np.where(inside, vv, np.inf), axis=1)
                    hi = np.nanmax(np.where(inside, vv, -np.inf), axis=1)
                    vals = hi - lo
                    vals[~np.isfinite(vals)] = np.nan
                else:
                    raise ValueError(algorithm)
            vals = np.where(cnt > 0, vals, nodata)
            out[s : s + chunk] = vals
    return out.reshape(h, w)


def delaunay_triangulate(pts: np.ndarray):
    """Bowyer-Watson Delaunay triangulation -> list of (i, j, k) index
    triples. Pure numpy/python O(n^2) — the per-cell point sets this engine
    grids are small (the reference links qhull for the same role,
    ``alg/delaunay.c:107``). Collinear/duplicate inputs yield fewer
    triangles; ties are perturbation-free (exact circumcircle determinant).
    """
    pts = np.asarray(pts, dtype=np.float64)
    n = len(pts)
    if n < 3:
        return []
    # super-triangle enclosing everything
    cx, cy = pts[:, 0].mean(), pts[:, 1].mean()
    span = 4.0 * max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1]), 1.0)
    sp = np.array(
        [[cx - 20 * span, cy - span], [cx + 20 * span, cy - span], [cx, cy + 20 * span]]
    )
    allp = np.vstack([pts, sp])
    S0, S1, S2 = n, n + 1, n + 2
    tris = [(S0, S1, S2)]

    def circum_contains(tri, p):
        a, b, c = (allp[tri[0]], allp[tri[1]], allp[tri[2]])
        # in-circumcircle determinant (orientation-normalized)
        m = np.array(
            [
                [a[0] - p[0], a[1] - p[1], (a[0] - p[0]) ** 2 + (a[1] - p[1]) ** 2],
                [b[0] - p[0], b[1] - p[1], (b[0] - p[0]) ** 2 + (b[1] - p[1]) ** 2],
                [c[0] - p[0], c[1] - p[1], (c[0] - p[0]) ** 2 + (c[1] - p[1]) ** 2],
            ]
        )
        det = np.linalg.det(m)
        orient = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return det * np.sign(orient) > 0

    for ip in range(n):
        p = allp[ip]
        bad = [t for t in tris if circum_contains(t, p)]
        if not bad:
            continue
        # polygonal hole boundary = edges appearing in exactly one bad tri
        edge_count: dict = {}
        for t in bad:
            for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
                k = (min(e), max(e))
                edge_count[k] = edge_count.get(k, 0) + 1
        tris = [t for t in tris if t not in bad]
        for (u, v), cnt in edge_count.items():
            if cnt == 1:
                tris.append((u, v, ip))
    return [t for t in tris if S0 not in t and S1 not in t and S2 not in t]


def grid_linear(px, py, pv, w, h, gt, nodata=0.0):
    """GDALGridLinear (alg/gdalgrid.cpp GDALGridLinear): Delaunay TIN +
    barycentric interpolation at each node; nodes outside the hull get
    ``nodata``. Exact for affine fields by construction."""
    from gdal_ray.geo.affine import apply_geotransform

    px = np.asarray(px, dtype=np.float64)
    py = np.asarray(py, dtype=np.float64)
    pv = np.asarray(pv, dtype=np.float64)
    cols, rows = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    gx, gy = apply_geotransform(gt, cols.ravel(), rows.ravel())
    out = np.full(w * h, np.float64(nodata))
    pts = np.stack([px, py], axis=1)
    for i0, i1, i2 in delaunay_triangulate(pts):
        ax, ay = px[i0], py[i0]
        bx, by = px[i1], py[i1]
        cx, cy = px[i2], py[i2]
        den = (by - cy) * (ax - cx) + (cx - bx) * (ay - cy)
        if den == 0:
            continue
        l1 = ((by - cy) * (gx - cx) + (cx - bx) * (gy - cy)) / den
        l2 = ((cy - ay) * (gx - cx) + (ax - cx) * (gy - cy)) / den
        l3 = 1.0 - l1 - l2
        inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l3 >= -1e-12)
        out[inside] = l1[inside] * pv[i0] + l2[inside] * pv[i1] + l3[inside] * pv[i2]
    return out.reshape(h, w)
