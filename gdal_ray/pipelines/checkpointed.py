"""Checkpointed flagship run: resumable partitioned output with metrics.

The north-rule contract: "checkpoints per-partition with lineage +
row-count/cell-histogram metrics so a killed run resumes without
recomputing completed cells".

Partition key = the image centroid's cell at COARSE_LEVEL (a spatial range
of CELL_LEVEL cells). Per run:

1. metadata-only pass assigns partitions (no decode);
2. partitions already in the manifest under the current input lineage are
   dropped BEFORE the expensive decode+render stages;
3. each pending partition's flagship rows (tile assignments + PIP pairs)
   are written atomically to ``<out>/cellpart=<pid>/`` and the manifest
   records (lineage, n_rows, cell histogram at CELL_LEVEL);
4. the accumulated histograms expose the hot cells
   (``Manifest.hot_cells``) that the next run feeds to
   ``pip_join_shuffle(hot_cells=...)`` when the polygon side outgrows
   broadcast.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.config import CELL_LEVEL
from gdal_ray.geo import cells as CL
from gdal_ray.state.manifest import Manifest, fragment_lineage

__all__ = ["flagship_checkpointed", "pip_join_salted_from_manifest", "COARSE_LEVEL"]

COARSE_LEVEL = 3


def _coarse_pid(cell: np.ndarray) -> np.ndarray:
    z, x, y = CL.cell_to_xyz(cell)
    shift = (z - COARSE_LEVEL).astype(np.int64)
    return CL.cell_id(np.full_like(z, COARSE_LEVEL), x >> shift, y >> shift)


def flagship_checkpointed(corpus_dir: str, out_dir: str):
    """Run (or resume) the flagship into partitioned parquet. Returns
    {written_partitions, skipped_partitions, n_rows, hot_cells}."""
    import pyarrow.parquet as pq

    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.pipelines import flagship as F

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir)
    lineage = fragment_lineage(
        [
            os.path.join(corpus_dir, "images.parquet"),
            os.path.join(corpus_dir, "placements.parquet"),
            os.path.join(corpus_dir, "polygons.parquet"),
        ]
    )
    done = {r["partition_id"] for r in manifest.records() if r.get("lineage") == lineage}

    def add_pid(batch: pa.Table) -> pa.Table:
        pid = _coarse_pid(np.asarray(batch["cell"], dtype=np.int64))
        return batch.append_column("pid", pa.array([str(p) for p in pid], pa.string()))

    # resume filter BEFORE decode: metadata-only pass knows each image's pid
    meta = F.placed_images(corpus_dir, decode=False).map_batches(
        add_pid, batch_format="pyarrow", batch_size=None
    )
    if done:
        def flt(batch: pa.Table) -> pa.Table:
            keep = [p not in done for p in batch["pid"].to_pylist()]
            return batch.filter(pa.array(keep, pa.bool_()))

        meta = meta.map_batches(flt, batch_format="pyarrow", batch_size=None)
        if meta.count() == 0:
            hist_hot = manifest.hot_cells(cap=max(1, _hot_cap(manifest)))
            return {
                "written_partitions": 0,
                "skipped_partitions": len(done),
                "n_rows": 0,
                "hot_cells": len(hist_hot),
            }

    pending_ids = set(meta.unique("pid"))

    # full pipeline only for pending partitions' images
    placed = F.decoded_places(corpus_dir).map_batches(
        add_pid, batch_format="pyarrow", batch_size=None
    )
    if done:
        placed = placed.map_batches(
            lambda b: b.filter(
                pa.array([p in pending_ids for p in b["pid"].to_pylist()], pa.bool_())
            ),
            batch_format="pyarrow",
            batch_size=None,
        )

    index_ref = F._polygon_index_ref(corpus_dir)
    from gdal_ray.stages import geo as G
    from gdal_ray.stages.pipjoin import pip_join_batch

    def rows(batch: pa.Table) -> pa.Table:
        tiles = G.explode_tiles(batch)
        pts = pa.table(
            {
                "src_id": batch["image_id"],
                "cx": batch["cx"],
                "cy": batch["cy"],
                "cell": batch["cell"],
            }
        )
        pip = pip_join_batch(pts, index_ref)
        # pid + fine cell per row (for the histogram metric)
        id2 = dict(zip(batch["image_id"].to_pylist(), batch["pid"].to_pylist()))
        cellof = dict(zip(batch["image_id"].to_pylist(), batch["cell"].to_pylist()))
        n_t, n_p = tiles.num_rows, pip.num_rows
        sids = tiles["image_id"].to_pylist() + pip["src_id"].to_pylist()
        return pa.table(
            {
                "pid": pa.array([id2[s] for s in sids], pa.string()),
                "cell": pa.array([cellof[s] for s in sids], pa.int64()),
                "kind": pa.array(["tile"] * n_t + ["pip"] * n_p, pa.string()),
                "src_id": pa.array(sids, pa.string()),
                "z": pa.concat_arrays([tiles["z"].combine_chunks(), pa.nulls(n_p, pa.int32())]),
                "x": pa.concat_arrays([tiles["x"].combine_chunks(), pa.nulls(n_p, pa.int64())]),
                "y": pa.concat_arrays([tiles["y"].combine_chunks(), pa.nulls(n_p, pa.int64())]),
                "poly_id": pa.concat_arrays(
                    [pa.nulls(n_t, pa.string()), pip["poly_id"].combine_chunks()]
                ),
            }
        )

    results = placed.map_batches(rows, batch_format="pyarrow", batch_size=None)

    def write_partition(part: pd.DataFrame) -> pd.DataFrame:
        summary = {"pid": [], "n_rows": [], "hist": []}
        for pid, g in part.groupby("pid", sort=False):
            pdir = out / f"cellpart={pid}"
            tmp = out / f"cellpart={pid}.tmp"
            if tmp.exists():
                shutil.rmtree(tmp)
            tmp.mkdir(parents=True)
            t = pa.Table.from_pandas(
                g.drop(columns=["pid"]).sort_values(["kind", "src_id", "z", "x", "y"],
                                                    na_position="first"),
                preserve_index=False,
            )
            pq.write_table(t, tmp / "rows.parquet")
            if pdir.exists():
                shutil.rmtree(pdir)
            tmp.rename(pdir)
            hist = g["cell"].value_counts().to_dict()
            summary["pid"].append(pid)
            summary["n_rows"].append(len(g))
            # JSON string, not a dict column: a dict-typed object column has
            # no stable Arrow schema (Ray logs unhashable-schema warnings)
            summary["hist"].append(json.dumps({str(k): int(v) for k, v in hist.items()}))
        return pd.DataFrame(summary)

    summaries = bucketed_group_apply(
        results, ["pid"], write_partition, 32,
        schema=pa.schema(
            [("pid", pa.string()), ("n_rows", pa.int64()), ("hist", pa.string())]
        ),
    ).to_pandas()
    n_rows = 0
    for _, row in summaries.iterrows():
        hist = {int(k): int(v) for k, v in json.loads(row["hist"]).items()}
        manifest.mark(row["pid"], lineage, int(row["n_rows"]), cell_hist=hist)
        n_rows += int(row["n_rows"])
    hot = manifest.hot_cells(cap=max(1, _hot_cap(manifest)))
    return {
        "written_partitions": len(summaries),
        "skipped_partitions": len(done),
        "n_rows": n_rows,
        "hot_cells": len(hot),
    }


def _hot_cap(manifest: Manifest) -> int:
    """Hot-cell threshold: 8x the mean per-cell row count seen so far."""
    total = 0
    ncells = 0
    for rec in manifest.records():
        total += sum(rec.get("cell_hist", {}).values())
        ncells += len(rec.get("cell_hist", {}))
    return int(8 * total / ncells) if ncells else 1 << 30


def pip_join_salted_from_manifest(corpus_dir: str, out_dir: str):
    """Run-N+1 shape of the shuffle PIP join: hot cells learned from run N's
    manifest histograms (``Manifest.hot_cells``) drive the salting, so the
    skew treatment needs NO extra counting pass over the data. Falls back
    to unsalted when no manifest exists yet."""
    from gdal_ray.pipelines import flagship as F
    from gdal_ray.sources import corpus as SRC
    from gdal_ray.stages.pipjoin import pip_join_shuffle

    manifest = Manifest(out_dir)
    hot = manifest.hot_cells(cap=max(1, _hot_cap(manifest)))
    pts = (
        F.placed_images(corpus_dir, decode=False)
        .select_columns(["image_id", "cx", "cy", "cell"])
        .rename_columns({"image_id": "src_id"})
    )
    polys = SRC.read_polygons(corpus_dir, columns=["poly_id", "wkb"])
    return pip_join_shuffle(pts, polys, hot_cells=hot)
