"""Point-in-polygon spatial join.

Replaces GDAL's spatial-filter scan (``ogrlayer.cpp:2136-2300``: envelope
reject -> prepared Intersects per feature) with the distributed shape from
SURVEY.md section 2.4:

- polygons are exploded to their cell covers at CELL_LEVEL and packed into a
  ``cell -> [candidate polygons]`` index;
- when the polygon side is small (the common case: polygon count ~ 1% of
  image count) the index is **broadcast** (`ray.put` once, fetched once per
  actor) and the join is a stateless-looking actor-pool `map_batches` over
  the point side — NO shuffle at all;
- the exact test is the vectorized ray-cast kernel with GDAL's strict
  crossing rules (``ogr/ogrlinearring.cpp:462-531``), preceded by the same
  envelope prefilter GDAL applies.

For a polygon side too large to broadcast, use ``pip_join_shuffle`` —
both sides keyed by cell, hot cells salted (round-2 path; the broadcast
path is the 100 TB design for dimension-sized polygon layers).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_ray.config import CELL_LEVEL
from gdal_ray.geo import cells as CL
from gdal_ray.geo import pip as P
from gdal_ray.geo import wkb as W
from gdal_ray.ops.runtime import memo

__all__ = ["build_polygon_cell_index", "PipJoinStage", "pip_join_batch"]


def build_polygon_cell_index(polygons_table: pa.Table, level: int = CELL_LEVEL):
    """Arrow polygons table (poly_id, wkb[, ...]) -> dict for broadcast.

    Returns {"cells": {cell: np.array(poly_idx)}, "polys": [decoded rings],
    "env": (N,4) envelopes, "ids": poly_id list}.
    """
    ids = polygons_table["poly_id"].to_pylist()
    blobs = polygons_table["wkb"].to_pylist()
    polys = []
    envs = np.empty((len(ids), 4), dtype=np.float64)
    for i, blob in enumerate(blobs):
        decoded = W.decode_polygons(blob)
        polys.append(decoded)
        envs[i] = W.wkb_envelope(blob)
    row, cell = CL.bbox_cover(envs[:, 0], envs[:, 1], envs[:, 2], envs[:, 3], level)
    index: dict[int, np.ndarray] = {}
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    row = row[order]
    bounds = np.flatnonzero(np.diff(cell)) + 1
    for c, idxs in zip(cell[np.concatenate([[0], bounds])], np.split(row, bounds)):
        index[int(c)] = idxs
    return {"cells": index, "polys": polys, "env": envs, "ids": np.asarray(ids)}


class PipJoinStage:
    """Actor-pool `map_batches` stage: point batches -> (src_id, poly_id) rows.

    ``index_ref`` is a `ray.put` handle to a broadcast polygon cell index —
    fetched ONCE per actor in ``__init__`` (never per batch).
    Input batches need columns (id_col, cx, cy, cell).
    """

    def __init__(self, index_ref, id_col: str = "src_id"):
        self.index = ray.get(index_ref) if not isinstance(index_ref, dict) else index_ref
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        px = np.asarray(batch["cx"], dtype=np.float64)
        py = np.asarray(batch["cy"], dtype=np.float64)
        cell = np.asarray(batch["cell"], dtype=np.int64)
        ids = batch[self.id_col]
        cells = self.index["cells"]
        polys = self.index["polys"]
        env = self.index["env"]
        pids = self.index["ids"]

        out_src: list[np.ndarray] = []
        out_poly: list[str] = []
        # group points of the batch by cell, then test each candidate polygon
        # against the whole point group at once (vectorized over points)
        order = np.argsort(cell, kind="stable")
        sorted_cells = cell[order]
        bounds = np.flatnonzero(np.diff(sorted_cells)) + 1
        groups = np.split(order, bounds)
        for grp in groups:
            c = int(cell[grp[0]])
            cand = cells.get(c)
            if cand is None:
                continue
            gx = px[grp]
            gy = py[grp]
            for poly_idx in cand:
                e = env[poly_idx]
                msk = (gx >= e[0]) & (gx <= e[2]) & (gy >= e[1]) & (gy <= e[3])
                if not msk.any():
                    continue
                sub = grp[msk]
                hit = np.zeros(sub.shape[0], dtype=bool)
                sx = px[sub]
                sy = py[sub]
                for rings in polys[poly_idx]:
                    inside = P.points_in_ring(sx, sy, rings[0])
                    for hole in rings[1:]:
                        if inside.any():
                            inside &= ~P.points_in_ring(sx, sy, hole)
                    hit |= inside
                if hit.any():
                    out_src.append(sub[hit])
                    out_poly.extend([pids[poly_idx]] * int(hit.sum()))
        if not out_src:
            return pa.table(
                {"src_id": pa.array([], pa.string()), "poly_id": pa.array([], pa.string())}
            )
        src_idx = np.concatenate(out_src)
        return pa.table(
            {
                "src_id": ids.take(pa.array(src_idx)),
                "poly_id": pa.array(out_poly, pa.string()),
            }
        )


# per-worker-process cache: the broadcast index is fetched/deserialized once
# per worker even under a stateless TASK pool (no actor spin-up latency);
# keyed by object ref so a new index invalidates naturally
_STAGE_CACHE: dict = {}


def pip_join_batch(batch: pa.Table, index_ref, id_col: str = "src_id") -> pa.Table:
    key = index_ref.hex() if hasattr(index_ref, "hex") else id(index_ref)
    return memo(_STAGE_CACHE, (key, id_col), lambda: PipJoinStage(index_ref, id_col), 1)(batch)


def explode_polygon_covers(batch: pa.Table, level: int = CELL_LEVEL) -> pa.Table:
    """polygons -> one row per (cell, polygon) cover entry: the shuffle-side
    representation of the polygon layer (cell-keyed equi-join plan)."""
    ids = batch["poly_id"].to_pylist()
    blobs = batch["wkb"].to_pylist()
    envs = np.empty((len(ids), 4), dtype=np.float64)
    for i, b in enumerate(blobs):
        envs[i] = W.wkb_envelope(b)
    row, cell = CL.bbox_cover(envs[:, 0], envs[:, 1], envs[:, 2], envs[:, 3], level)
    return pa.table(
        {
            "cell": pa.array(cell),
            "poly_id": pa.array([ids[r] for r in row], pa.string()),
            "wkb": pa.array([blobs[r] for r in row], pa.binary()),
            "minx": pa.array(envs[row, 0]),
            "miny": pa.array(envs[row, 1]),
            "maxx": pa.array(envs[row, 2]),
            "maxy": pa.array(envs[row, 3]),
        }
    )


def pip_join_shuffle(points_ds, polygons_ds, level: int = CELL_LEVEL, num_buckets: int = 64,
                     hot_cells: set | None = None, num_salts: int = 8):
    """Cell-partitioned PIP join for polygon sides too large to broadcast.

    Both sides are keyed by cell id and co-shuffled with
    ``bucketed_group_apply``; inside each partition the exact ray-cast test
    runs per cell group. Hot cells (from the manifest's cell histogram or a
    count pass) are SALTED: their points split into ``cell#salt`` sub-keys
    and the polygon cover rows are REPLICATED to every salt (small side of
    the skew), so no single task sees a whole hot cell.

    points_ds columns: (src_id, cx, cy, cell); polygons_ds: (poly_id, wkb).
    Returns (src_id, poly_id) rows, identical to the broadcast path.
    """
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply

    covers = polygons_ds.map_batches(
        explode_polygon_covers, fn_kwargs={"level": level}, batch_format="pyarrow"
    )

    hot = hot_cells or set()

    def salt_points(batch: pa.Table) -> pa.Table:
        cells = batch["cell"].to_pylist()
        salted = [
            f"{c}#{i % num_salts}" if c in hot else str(c) for i, c in enumerate(cells)
        ]
        return batch.append_column("skey", pa.array(salted, pa.string()))

    def salt_covers(batch: pa.Table) -> pa.Table:
        if not hot:
            return batch.append_column(
                "skey", pa.array([str(c) for c in batch["cell"].to_pylist()], pa.string())
            )
        tables = []
        cells = batch["cell"].to_pylist()
        plain_idx = [i for i, c in enumerate(cells) if c not in hot]
        if plain_idx:
            t = batch.take(pa.array(plain_idx))
            tables.append(t.append_column(
                "skey", pa.array([str(cells[i]) for i in plain_idx], pa.string())))
        hot_idx = [i for i, c in enumerate(cells) if c in hot]
        for s in range(num_salts if hot_idx else 0):
            t = batch.take(pa.array(hot_idx))
            tables.append(t.append_column(
                "skey", pa.array([f"{cells[i]}#{s}" for i in hot_idx], pa.string())))
        return pa.concat_tables(tables, promote_options="default") if tables else batch.append_column("skey", pa.array([], pa.string()))

    pts = points_ds.map_batches(salt_points, batch_format="pyarrow")
    cvs = covers.map_batches(salt_covers, batch_format="pyarrow")
    # tag sides and union into one keyed shuffle
    pts = pts.map_batches(
        lambda b: b.append_column("side", pa.array(["p"] * len(b), pa.string())),
        batch_format="pyarrow",
    )
    cvs = cvs.map_batches(
        lambda b: b.append_column("side", pa.array(["g"] * len(b), pa.string())),
        batch_format="pyarrow",
    )
    both = pts.union(cvs)

    def join_partition(part: pd.DataFrame) -> pd.DataFrame:
        out_src, out_poly = [], []
        for _, g in part.groupby("skey", sort=False):
            p = g[g["side"] == "p"]
            q = g[g["side"] == "g"]
            if len(p) == 0 or len(q) == 0:
                continue
            px = p["cx"].to_numpy(dtype=np.float64)
            py = p["cy"].to_numpy(dtype=np.float64)
            sid = p["src_id"].to_numpy()
            # pull plain arrays out of the frame ONCE (no iterrows over a
            # frame of binary blobs in the hot loop)
            q_minx = q["minx"].to_numpy(dtype=np.float64)
            q_miny = q["miny"].to_numpy(dtype=np.float64)
            q_maxx = q["maxx"].to_numpy(dtype=np.float64)
            q_maxy = q["maxy"].to_numpy(dtype=np.float64)
            q_wkb = q["wkb"].to_numpy()
            q_pid = q["poly_id"].to_numpy()
            for j in range(len(q_pid)):
                m = (
                    (px >= q_minx[j]) & (px <= q_maxx[j])
                    & (py >= q_miny[j]) & (py <= q_maxy[j])
                )
                if not m.any():
                    continue
                hit = np.zeros(int(m.sum()), dtype=bool)
                sx = px[m]
                sy = py[m]
                for rings in W.decode_polygons(q_wkb[j]):
                    inside = P.points_in_ring(sx, sy, rings[0])
                    for hole in rings[1:]:
                        if inside.any():
                            inside &= ~P.points_in_ring(sx, sy, hole)
                    hit |= inside
                if hit.any():
                    out_src.extend(sid[m][hit])
                    out_poly.extend([q_pid[j]] * int(hit.sum()))
        return pd.DataFrame({"src_id": pd.Series(out_src, dtype=str),
                             "poly_id": pd.Series(out_poly, dtype=str)})

    return bucketed_group_apply(
        both, ["skey"], join_partition, num_buckets,
        schema=pa.schema([("src_id", pa.string()), ("poly_id", pa.string())]),
    )
