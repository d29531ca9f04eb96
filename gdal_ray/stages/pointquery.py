"""Distributed point query (gdallocationinfo, apps/gdallocationinfo.cpp:373).

The scale-correct plan (replaces the round-2 broadcast of the whole point
table): two cell-keyed co-partitioned shuffles, neither of which ever holds
more than one partition of either side in memory —

  stage A  points keyed by their cell  ×  image footprints exploded to
           their bbox cell covers  →  (image_id, query_id, qx, qy)
           candidate rows (bbox-filtered);
  stage B  candidates hash-co-partitioned with the image payload on
           image_id  →  each image decodes ONCE and samples all of its
           candidate points via the inverse geotransform.

Compute is O(candidates), not O(images × points); the only data that moves
twice is the candidate metadata. Hot cells can be salted exactly like
``pip_join_shuffle`` (same key space).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.config import CELL_LEVEL
from gdal_ray.geo import cells as CL
from gdal_ray.ops.shuffle import bucketed_group_apply, co_union

__all__ = ["point_footprint_candidates", "sample_at_points", "CAND_SCHEMA"]

CAND_SCHEMA = pa.schema(
    [
        ("image_id", pa.string()),
        ("query_id", pa.string()),
        ("qx", pa.float64()),
        ("qy", pa.float64()),
    ]
)


# stage A's two sides in one schema: the points (cell, query_id, qx, qy)
# and the footprint covers (cell, image_id, minx, miny, maxx, maxy)
_TAGGED_SCHEMA = pa.schema(
    [("cell", pa.int64()), ("query_id", pa.string()), ("qx", pa.float64()),
     ("qy", pa.float64()), ("image_id", pa.string())]
    + [(c, pa.float64()) for c in ("minx", "miny", "maxx", "maxy")]
)


def point_footprint_candidates(
    points_ds, footprints_ds, level: int = CELL_LEVEL, num_buckets: int = 64
):
    """Stage A: cell-co-partitioned (point × image-footprint) candidates.

    ``points_ds`` columns: (query_id, cx, cy) in EPSG:3857 meters;
    ``footprints_ds`` columns: (image_id, minx, miny, maxx, maxy) meters.
    Cell assignment of a point and bbox cover of a footprint share the
    quadkey boundary convention of the PIP join, so every point inside a
    bbox meets that footprint in exactly one partition.
    """

    def pts_prep(batch: pa.Table) -> pa.Table:
        cx = np.asarray(batch["cx"], dtype=np.float64)
        cy = np.asarray(batch["cy"], dtype=np.float64)
        return pa.table(
            {
                "cell": pa.array(CL.cell_of_meters(cx, cy, level)),
                "query_id": batch["query_id"],
                "qx": pa.array(cx),
                "qy": pa.array(cy),
            }
        )

    def fp_prep(batch: pa.Table) -> pa.Table:
        minx = np.asarray(batch["minx"], dtype=np.float64)
        miny = np.asarray(batch["miny"], dtype=np.float64)
        maxx = np.asarray(batch["maxx"], dtype=np.float64)
        maxy = np.asarray(batch["maxy"], dtype=np.float64)
        row, cell = CL.bbox_cover(minx, miny, maxx, maxy, level)
        take = pa.array(row)
        return pa.table(
            {
                "cell": pa.array(cell),
                "image_id": batch["image_id"].take(take),
                "minx": pa.array(minx[row]),
                "miny": pa.array(miny[row]),
                "maxx": pa.array(maxx[row]),
                "maxy": pa.array(maxy[row]),
            }
        )

    both = co_union(
        points_ds.map_batches(pts_prep, batch_format="pyarrow"),
        footprints_ds.map_batches(fp_prep, batch_format="pyarrow"),
        _TAGGED_SCHEMA,
    )

    def join(part: pd.DataFrame) -> pd.DataFrame:
        out_img, out_q, out_x, out_y = [], [], [], []
        for _, g in part.groupby("cell", sort=False):
            p = g[g["__side"] == 0]
            f = g[g["__side"] == 1]
            if len(p) == 0 or len(f) == 0:
                continue
            qx = p["qx"].to_numpy(dtype=np.float64)
            qy = p["qy"].to_numpy(dtype=np.float64)
            qid = p["query_id"].to_numpy()
            fx0 = f["minx"].to_numpy(dtype=np.float64)
            fy0 = f["miny"].to_numpy(dtype=np.float64)
            fx1 = f["maxx"].to_numpy(dtype=np.float64)
            fy1 = f["maxy"].to_numpy(dtype=np.float64)
            fid = f["image_id"].to_numpy()
            for j in range(len(fid)):
                m = (qx >= fx0[j]) & (qx <= fx1[j]) & (qy >= fy0[j]) & (qy <= fy1[j])
                if not m.any():
                    continue
                n = int(m.sum())
                out_img.extend([fid[j]] * n)
                out_q.extend(qid[m])
                out_x.append(qx[m])
                out_y.append(qy[m])
        if not out_q:
            return pd.DataFrame(
                {
                    "image_id": pd.Series([], dtype=str),
                    "query_id": pd.Series([], dtype=str),
                    "qx": pd.Series([], dtype=np.float64),
                    "qy": pd.Series([], dtype=np.float64),
                }
            )
        return pd.DataFrame(
            {
                "image_id": pd.Series(out_img, dtype=str),
                "query_id": pd.Series(out_q, dtype=str),
                "qx": np.concatenate(out_x),
                "qy": np.concatenate(out_y),
            }
        )

    return bucketed_group_apply(both, ["cell"], join, num_buckets, schema=CAND_SCHEMA)


def sample_at_points(candidates, payload_ds, sampler, out_schema, num_buckets: int = 32):
    """Stage B: candidates ⋈ image payload, hash-co-partitioned on image_id.

    ``sampler(payload_row: dict, qx, qy) -> (ok_mask, values)`` runs once
    per image with ALL of its candidate points (decode happens inside the
    sampler, once). Images without candidates never decode. ``values`` is
    either a single array (emitted as the one non-id column of
    ``out_schema``) or a dict of column -> array for multi-valued samplers
    (e.g. nearest + interpolated reads side by side)."""

    def tag_c(batch: pa.Table) -> pa.Table:
        return batch.append_column("side", pa.array(["c"] * len(batch), pa.string()))

    def tag_i(batch: pa.Table) -> pa.Table:
        return batch.append_column("side", pa.array(["i"] * len(batch), pa.string()))

    both = candidates.map_batches(tag_c, batch_format="pyarrow").union(
        payload_ds.map_batches(tag_i, batch_format="pyarrow")
    )
    val_cols = [n for n in out_schema.names if n not in ("query_id", "image_id")]

    def run(part: pd.DataFrame) -> pd.DataFrame:
        out_q, out_img = [], []
        out_val: dict[str, list] = {n: [] for n in val_cols}
        for image_id, g in part.groupby("image_id", sort=False):
            c = g[g["side"] == "c"]
            i = g[g["side"] == "i"]
            if len(c) == 0 or len(i) == 0:
                continue
            row = i.iloc[0].to_dict()
            qx = c["qx"].to_numpy(dtype=np.float64)
            qy = c["qy"].to_numpy(dtype=np.float64)
            ok, vals = sampler(row, qx, qy)
            if ok is None or not ok.any():
                continue
            if not isinstance(vals, dict):
                vals = {val_cols[0]: vals}
            out_q.extend(c["query_id"].to_numpy()[ok])
            out_img.extend([image_id] * int(ok.sum()))
            for n in val_cols:
                out_val[n].extend(np.asarray(vals[n]).tolist())
        data = {
            "query_id": pd.Series(out_q, dtype=str),
            "image_id": pd.Series(out_img, dtype=str),
        }
        for n in val_cols:
            data[n] = pd.Series(out_val[n], dtype=object)
        return pd.DataFrame(data)

    return bucketed_group_apply(both, ["image_id"], run, num_buckets, schema=out_schema)
