"""kNN lookup of query points against image centroids.

Mirrors GDAL's gridding nearest-neighbor search (quadtree + expanding
radius, ``alg/gdalgrid.cpp:896-923``) as a Ray task stage (``knn_batch``):

- reference points (image centroids) are bucketed by cell at CELL_LEVEL
  into a dict index, broadcast once via `ray.put`, and fetched once per
  worker process into a one-entry memo (never per batch);
- per query, candidates come from an expanding Chebyshev k-ring of cells;
  results are EXACT: points outside ring r are at Euclidean distance
  >= r * cell_edge from anywhere in the query's cell, so once the k-th
  candidate distance is <= that bound the search stops (otherwise the ring
  jumps straight to ceil(kth/cell_edge));
- distances are Euclidean in EPSG:3857 meters; ties broken by image_id,
  matching the fixture oracle. ``topk_rows`` is the one place that rule
  lives.

At 10^12-image scale the broadcast index is replaced by co-partitioning
both sides on cell (``knn_shuffle``: k-ring replication of queries, one
cell-keyed shuffle, a query-keyed merge). Both of its top-k steps and
``KnnStage`` select through ``topk_rows`` — same kernel, different data
movement.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray

from gdal_ray.config import CELL_LEVEL
from gdal_ray.geo import cells as CL
from gdal_ray.geo import mercator as M
from gdal_ray.ops.runtime import memo
from gdal_ray.stages.geo import add_cell

__all__ = ["build_centroid_cell_index", "KnnStage", "knn_batch", "knn_shuffle", "topk_rows"]


def topk_rows(group, d2, rank, k) -> np.ndarray:
    """Row indices of the first ``k`` rows of each ``group`` under the total
    order (d2, id rank), sorted by (group, d2, rank).

    ``group`` and ``rank`` are integer arrays; ``k`` is a scalar or a
    per-row array (constant within a group).
    """
    order = np.lexsort((rank, d2, group))
    return order[_pos_in_group(group[order]) < (k[order] if np.ndim(k) else k)]


def _pos_in_group(sorted_group: np.ndarray) -> np.ndarray:
    """0-based position of each row within its run of a sorted key."""
    return np.arange(len(sorted_group)) - np.searchsorted(sorted_group, sorted_group)


def build_centroid_cell_index(ids, cx, cy, level: int = CELL_LEVEL):
    """(ids, cx, cy) arrays -> broadcastable {cell: (ids, ranks, xy)} index.

    ``ranks`` is the global lexicographic rank of each id — integer
    tie-breaking in the query loop (string lexsort per query is the
    dominant cost in dense cells otherwise).
    """
    ids = np.asarray(ids)
    cx = np.asarray(cx, dtype=np.float64)
    cy = np.asarray(cy, dtype=np.float64)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[np.argsort(ids, kind="stable")] = np.arange(len(ids))
    cell = CL.cell_of_meters(cx, cy, level)
    order = np.argsort(cell, kind="stable")
    cell_s = cell[order]
    bounds = np.flatnonzero(np.diff(cell_s)) + 1
    starts = np.concatenate([[0], bounds])
    index = {}
    for s, grp in zip(starts, np.split(order, bounds)):
        index[int(cell_s[s])] = (ids[grp], rank[grp], np.stack([cx[grp], cy[grp]], axis=1))
    return {"cells": index, "level": level}


class KnnStage:
    """Query-point batches -> (query_id, rank, image_id, dist) rows.

    Input batch columns: (query_id, cx, cy, k).
    """

    def __init__(self, index_ref):
        self.index = ray.get(index_ref) if not isinstance(index_ref, dict) else index_ref
        self.level = self.index["level"]
        self.cell_edge = M.INITIAL_RESOLUTION / (2**self.level) * M.TILE_SIZE
        # (cell, ring) -> candidate arrays; hotspot cells host many queries,
        # so the expensive ring-gather amortizes across a batch
        self._gather_cache: dict = {}

    def _gather(self, cell: int, ring: int):
        return memo(self._gather_cache, (cell, ring), lambda: self._build_gather(cell, ring), 4096)

    def _build_gather(self, cell: int, ring: int):
        ids_list, rank_list, xy_list = [], [], []
        for c in CL.k_ring(cell, ring):
            ent = self.index["cells"].get(int(c))
            if ent is not None:
                ids_list.append(ent[0])
                rank_list.append(ent[1])
                xy_list.append(ent[2])
        if not ids_list:
            return np.empty(0, dtype="U16"), np.empty(0, dtype=np.int64), np.empty((0, 2))
        return np.concatenate(ids_list), np.concatenate(rank_list), np.concatenate(xy_list)

    def _query_one(self, cell: int, qx: float, qy: float, k: int):
        ring = 1
        world = 1 << self.level
        while True:
            cand_ids, cand_rank, cand_xy = self._gather(cell, ring)
            exhausted = ring >= world
            if len(cand_ids) < k and not exhausted:
                ring *= 2
                continue
            d2 = (cand_xy[:, 0] - qx) ** 2 + (cand_xy[:, 1] - qy) ** 2
            sel = topk_rows(np.zeros_like(cand_rank), d2, cand_rank, k)
            if exhausted or len(sel) == 0:
                return cand_ids[sel], np.sqrt(d2[sel])
            kth = float(np.sqrt(d2[sel[-1]]))
            if kth <= ring * self.cell_edge:
                return cand_ids[sel], np.sqrt(d2[sel])
            ring = max(ring + 1, int(np.ceil(kth / self.cell_edge)))

    def __call__(self, batch: pa.Table) -> pa.Table:
        qx = np.asarray(batch["cx"], dtype=np.float64)
        qy = np.asarray(batch["cy"], dtype=np.float64)
        ks = np.asarray(batch["k"], dtype=np.int64)
        qids = batch["query_id"].to_pylist()
        qcell = CL.cell_of_meters(qx, qy, self.level)

        out_q, out_rank, out_id, out_d = [], [], [], []
        for i in range(len(qids)):
            ids, dists = self._query_one(int(qcell[i]), float(qx[i]), float(qy[i]), int(ks[i]))
            for rank in range(len(ids)):
                out_q.append(qids[i])
                out_rank.append(rank)
                out_id.append(str(ids[rank]))
                out_d.append(float(dists[rank]))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.string()),
                "rank": pa.array(out_rank, pa.int32()),
                "image_id": pa.array(out_id, pa.string()),
                "dist": pa.array(out_d, pa.float64()),
            }
        )


def knn_shuffle(points_ds, queries_ds, k: int, level: int = CELL_LEVEL, num_buckets: int = 64):
    """Co-partitioned exact kNN — the 10^12-scale path (no broadcast of the
    point side, no driver-built index). Mirrors ``pip_join_shuffle``'s plan;
    reference semantics ``alg/gdalgrid.cpp:896-923`` (expanding-radius
    nearest search) expressed as shuffle stages:

    1. per-cell point counts: a small ``groupby(cell).count()`` (bounded by
       4^level entries, NOT by point count) broadcast via ``ray.put``;
    2. each query picks ring ``r`` = smallest Chebyshev radius whose k-ring
       holds >= k points, then is REPLICATED to every cell within the
       guarantee radius ``R = ceil((r+1)*sqrt(2)) + 1``: any k points within
       ring r sit at Euclidean distance <= (r+1)*sqrt(2)*cell_edge of the
       query, and a ring-R' cell is at least (R'-1)*cell_edge away, so the
       true k nearest all lie inside ring R;
    3. points and replicated queries co-shuffle on cell (bucketed); each
       partition pairs every replicated query with its cell's points and
       keeps each query's partial top-k (``topk_rows``);
    4. a query-keyed ``bucketed_group_apply`` merges the partials with
       ``topk_rows`` again: a head under the same total order (d2, id) per
       partition is sufficient for global exactness.

    points_ds columns: (image_id, cx, cy); queries_ds: (query_id, cx, cy)
    plus an optional per-row ``k`` column (values must be <= the stage-level
    ``k``, which is the replication/partial-top-k cap).
    Output: (query_id, rank, image_id, dist) — identical to ``KnnStage``.
    """
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply, co_union

    # The keyed point table is NOT materialized: only the per-cell
    # histogram (<= 4^level rows, tiny) persists, and the point stream
    # re-executes for the candidate shuffle. At 10^12 rows a materialize
    # here would pin ~30 TB of metadata in the object store just to save
    # one column-pruned re-scan of the source — re-streaming is the
    # scale-correct trade (callers with an expensive upstream can
    # .materialize() their input themselves before passing it in).
    pts = points_ds.map_batches(add_cell, fn_kwargs={"level": level}, batch_format="pyarrow")
    # phase 1: per-cell histogram (small: <= 4^level rows)
    cnt = pts.groupby("cell").count().to_pandas()
    counts = dict(zip(cnt["cell"].astype(np.int64), cnt["count()"].astype(np.int64)))
    total = int(sum(counts.values()))
    counts_ref = ray.put(counts)
    world = 1 << level

    def replicate(batch: pa.Table) -> pa.Table:
        # Fully vectorized ring-size selection (no per-query Python loop):
        # queries sharing a cell share ring counts, so Chebyshev distances
        # to the OCCUPIED cells (<= 4^level) are computed once per unique
        # query cell; a cumsum over the distance-sorted counts yields the
        # minimal radius h with >= k points, and the doubling search's
        # answer is exactly the next power of two >= h. Replications are
        # emitted with numpy repeat/tile per unique (cell, R) group.
        cmap = ray.get(counts_ref)
        qx = np.asarray(batch["cx"], dtype=np.float64)
        qy = np.asarray(batch["cy"], dtype=np.float64)
        qid = np.asarray(batch["query_id"])
        nq = len(qid)
        qk = (
            np.asarray(batch["k"], dtype=np.int64)
            if "k" in batch.column_names
            else np.full(nq, k, dtype=np.int64)
        )
        empty = pa.table(
            {
                "query_id": pa.array([], pa.string()),
                "cx": pa.array([], pa.float64()),
                "cy": pa.array([], pa.float64()),
                "cell": pa.array([], pa.int64()),
                "kq": pa.array([], pa.int64()),
            }
        )
        if nq == 0 or not cmap:
            return empty
        qcell = CL.cell_of_meters(qx, qy, level)
        occ = np.fromiter(cmap.keys(), dtype=np.int64, count=len(cmap))
        occ_cnt = np.fromiter(cmap.values(), dtype=np.int64, count=len(cmap))
        _, ox, oy = CL.cell_to_xyz(occ)
        ucell, uinv = np.unique(qcell, return_inverse=True)
        zs, ux, uy = CL.cell_to_xyz(ucell)
        n = world
        kk = np.minimum(qk, total)
        hmin = np.empty(nq, dtype=np.int64)
        # chunk unique cells so the (chunk x occupied) distance matrix
        # stays bounded regardless of batch/corpus shape
        chunk = max(1, 4_000_000 // max(len(occ), 1))
        for s in range(0, len(ucell), chunk):
            e = min(s + chunk, len(ucell))
            dx = np.abs(ox[None, :] - ux[s:e, None])
            dx = np.minimum(dx, n - dx)  # x wraps at the antimeridian
            cheb = np.maximum(dx, np.abs(oy[None, :] - uy[s:e, None]))
            order = np.argsort(cheb, axis=1, kind="stable")
            cheb_s = np.take_along_axis(cheb, order, axis=1)
            csum = np.cumsum(
                np.take_along_axis(
                    np.broadcast_to(occ_cnt, cheb.shape), order, axis=1
                ),
                axis=1,
            )
            for u in range(s, e):
                sel = uinv == u
                if not sel.any():
                    continue
                idx = np.minimum(
                    np.searchsorted(csum[u - s], kk[sel]), len(occ) - 1
                )
                hmin[sel] = cheb_s[u - s][idx]
        # doubling search equivalent: first power of two >= max(hmin, 1)
        r = (1 << np.ceil(np.log2(np.maximum(hmin, 1))).astype(np.int64))
        R = np.minimum(world, np.ceil((r + 1) * np.sqrt(2.0)).astype(np.int64) + 1)
        # emit replications grouped by identical (query cell, R): every
        # query in a group shares the exact same ring
        z0 = int(zs[0]) if len(zs) else level
        gkey = uinv.astype(np.int64) * (4 * world + 8) + R
        ukey, ginv = np.unique(gkey, return_inverse=True)
        parts_idx, parts_cell = [], []
        for g in range(len(ukey)):
            members = np.flatnonzero(ginv == g)
            u = int(uinv[members[0]])
            Rg = int(R[members[0]])
            xs = (int(ux[u]) + np.arange(-Rg, Rg + 1, dtype=np.int64)) % n
            yy = int(uy[u]) + np.arange(-Rg, Rg + 1, dtype=np.int64)
            yy = yy[(yy >= 0) & (yy < n)]
            gx, gy = np.meshgrid(xs, yy)
            ring = np.unique(CL.cell_id(z0, gx.ravel(), gy.ravel()))
            parts_idx.append(np.repeat(members, len(ring)))
            parts_cell.append(np.tile(ring, len(members)))
        idx = np.concatenate(parts_idx)
        cells = np.concatenate(parts_cell)
        return pa.table(
            {
                "query_id": pa.array(qid[idx].astype(str), pa.string()),
                "cx": pa.array(qx[idx], pa.float64()),
                "cy": pa.array(qy[idx], pa.float64()),
                "cell": pa.array(cells, pa.int64()),
                "kq": pa.array(qk[idx], pa.int64()),
            }
        )

    reps = queries_ds.map_batches(replicate, batch_format="pyarrow")

    both = co_union(
        pts,
        reps,
        pa.schema([("image_id", pa.string()), ("query_id", pa.string()), ("cx", pa.float64()),
                   ("cy", pa.float64()), ("cell", pa.int64()), ("kq", pa.int64())]),
    )

    def partial_topk(part: pd.DataFrame) -> pa.Table:
        side = part["__side"].to_numpy()
        p = part[side == 0]
        q = part[side == 1]
        pcell = p["cell"].to_numpy(dtype=np.int64)
        qcell = q["cell"].to_numpy(dtype=np.int64)
        # pair each replicated query with every point of its cell
        porder = np.argsort(pcell, kind="stable")
        lo = np.searchsorted(pcell[porder], qcell, "left")
        n = np.searchsorted(pcell[porder], qcell, "right") - lo
        qrow = np.repeat(np.arange(len(q)), n)
        prow = porder[np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(len(qrow))]
        qx, qy = (q[c].to_numpy(dtype=np.float64)[qrow] for c in ("cx", "cy"))
        px, py = (p[c].to_numpy(dtype=np.float64)[prow] for c in ("cx", "cy"))
        d2 = (qx - px) ** 2 + (qy - py) ** 2
        pid = p["image_id"].to_numpy()
        qid = q["query_id"].to_numpy()
        kq = q["kq"].to_numpy(dtype=np.int64)
        _, prank = np.unique(pid, return_inverse=True)
        _, qgroup = np.unique(qid, return_inverse=True)
        sel = topk_rows(qgroup[qrow], d2, prank[prow], kq[qrow])
        return pa.table({
            "query_id": pa.array(qid[qrow[sel]], pa.string()),
            "image_id": pa.array(pid[prow[sel]], pa.string()),
            "d2": pa.array(d2[sel], pa.float64()),
            "kq": pa.array(kq[qrow[sel]], pa.int64()),
        })

    partials = bucketed_group_apply(
        both, ["cell"], partial_topk, num_buckets,
        schema=pa.schema(
            [("query_id", pa.string()), ("image_id", pa.string()),
             ("d2", pa.float64()), ("kq", pa.int64())]
        ),
    )

    def merge(part: pd.DataFrame) -> pa.Table:
        qid = part["query_id"].to_numpy()
        iid = part["image_id"].to_numpy()
        d2 = part["d2"].to_numpy(dtype=np.float64)
        _, qgroup = np.unique(qid, return_inverse=True)
        _, irank = np.unique(iid, return_inverse=True)
        sel = topk_rows(qgroup, d2, irank, part["kq"].to_numpy(dtype=np.int64))
        return pa.table({
            "query_id": pa.array(qid[sel], pa.string()),
            "rank": pa.array(_pos_in_group(qgroup[sel]), pa.int32()),
            "image_id": pa.array(iid[sel], pa.string()),
            "dist": pa.array(np.sqrt(d2[sel]), pa.float64()),
        })

    return bucketed_group_apply(
        partials, ["query_id"], merge, num_buckets,
        schema=pa.schema([("query_id", pa.string()), ("rank", pa.int32()),
                          ("image_id", pa.string()), ("dist", pa.float64())]),
    )


_STAGE_CACHE: dict = {}


def knn_batch(batch: pa.Table, index_ref) -> pa.Table:
    """Task-pool form of KnnStage with a per-worker-process index cache."""
    key = index_ref.hex() if hasattr(index_ref, "hex") else id(index_ref)
    return memo(_STAGE_CACHE, key, lambda: KnnStage(index_ref), 1)(batch)
