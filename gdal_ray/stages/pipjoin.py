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

For a polygon side too large to broadcast, ``pip_join_shuffle`` moves the
data the other way: both sides are co-shuffled on (cell, salt), and each
partition builds the same cell index from its own cover rows and runs the
same ``PipJoinStage`` kernel. One exact test, two plans.
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
    order = np.argsort(cell, kind="stable")
    ucell, starts = np.unique(cell[order], return_index=True)
    index = dict(zip(ucell.tolist(), np.split(row[order], starts[1:])))
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
        ucell, starts = np.unique(cell[order], return_index=True)
        for c, grp in zip(ucell.tolist(), np.split(order, starts[1:])):
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

    Both sides are keyed by (cell, salt) and co-shuffled with
    ``bucketed_group_apply``. Each partition builds the broadcast plan's
    structure from its own cover rows (``build_polygon_cell_index`` over
    its distinct polygons) and runs ``PipJoinStage`` over its points, so
    the exact test is the broadcast kernel. Hot cells (from the manifest's
    cell histogram or a count pass) are SALTED: their points take salts
    ``0..num_salts-1`` round-robin and their cover rows are REPLICATED to
    every salt (small side of the skew), so no single task sees a whole
    hot cell. A point lands in one partition, and each partition indexes a
    polygon once, so every match is emitted once.

    points_ds columns: (src_id, cx, cy, cell); polygons_ds: (poly_id, wkb).
    Returns (src_id, poly_id) rows, identical to the broadcast path.
    """
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply, co_union

    hot = np.fromiter(hot_cells or (), dtype=np.int64)

    def key_points(batch: pa.Table) -> pa.Table:
        cell = np.asarray(batch["cell"], dtype=np.int64)
        salt = np.where(np.isin(cell, hot), np.arange(len(batch)) % num_salts, 0)
        return batch.append_column("salt", pa.array(salt, pa.int64()))

    def key_covers(batch: pa.Table) -> pa.Table:
        covers = explode_polygon_covers(batch, level).select(["cell", "poly_id", "wkb"])
        n = len(covers)
        hot_rows = np.flatnonzero(np.isin(np.asarray(covers["cell"]), hot))
        rows = np.concatenate([np.arange(n), np.repeat(hot_rows, num_salts - 1)])
        salt = np.concatenate([np.zeros(n, np.int64),
                               np.tile(np.arange(1, num_salts), len(hot_rows))])
        return (covers.take(pa.array(rows, pa.int64()))
                .append_column("salt", pa.array(salt, pa.int64())))

    both = co_union(
        points_ds.map_batches(key_points, batch_format="pyarrow"),
        polygons_ds.map_batches(key_covers, batch_format="pyarrow"),
        pa.schema([("src_id", pa.string()), ("cx", pa.float64()), ("cy", pa.float64()),
                   ("cell", pa.int64()), ("salt", pa.int64()), ("poly_id", pa.string()),
                   ("wkb", pa.binary())]),
    )

    def join_partition(part: pd.DataFrame) -> pa.Table:
        side = part["__side"].to_numpy()
        polys = part[side == 1][["poly_id", "wkb"]].drop_duplicates("poly_id")
        points = part[side == 0][["src_id", "cx", "cy", "cell"]]
        index = build_polygon_cell_index(pa.Table.from_pandas(polys, preserve_index=False), level)
        return PipJoinStage(index)(pa.Table.from_pandas(points, preserve_index=False))

    return bucketed_group_apply(
        both, ["cell", "salt"], join_partition, num_buckets,
        schema=pa.schema([("src_id", pa.string()), ("poly_id", pa.string())]),
    )
