"""Per-raster vector<->raster stages (stateless `map_batches`).

Embarrassingly parallel per-image kernels (SURVEY.md section 2.8): each row
of the ``rasters`` table is one small grid; polygonize and re-rasterize run
entirely inside the batch UDF — no shuffle. Cross-image regions don't exist
in a per-image corpus, so no cross-tile stitching is needed.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.raster.polygonize import polygonize_array
from gdal_ray.raster.rasterize import rasterize_polygon_px
from gdal_ray.raster.checksum import checksum_image

__all__ = ["roundtrip_batch"]


def _rows(batch: pa.Table):
    pix = batch["pixels"].to_pylist()
    ws = batch["w"].to_pylist()
    hs = batch["h"].to_pylist()
    col = batch["gt"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    gts = np.asarray(col.flatten(), dtype=np.float64).reshape(-1, 6)
    return pix, ws, hs, gts


def roundtrip_batch(batch: pa.Table, nodata=-1) -> pa.Table:
    """polygonize -> rasterize-back round trip per raster.

    Emits (raster_id, n_regions, checksum, roundtrip_exact, pixel_counts):
    ``checksum`` is the GDAL checksum of the ORIGINAL grid;
    ``roundtrip_exact`` is True iff burning every traced polygon back (with
    its region value, nodata background) reproduces the grid bit-for-bit —
    the autotest-style oracle (autotest/pyscripts/test_gdal_polygonize.py
    feature counts + autotest/alg/rasterize.py checksums).
    """
    pix, ws, hs, gts = _rows(batch)
    rid, nreg, cks, exact, counts = [], [], [], [], []
    for i in range(len(pix)):
        arr = np.asarray(pix[i], dtype=np.int32).reshape(hs[i], ws[i])
        polys = polygonize_array(arr, nodata=nodata)  # pixel-space rings (identity gt)
        back = np.full_like(arr, nodata)
        pc = []
        for poly in polys:
            rasterize_polygon_px(back, poly["rings"], int(poly["value"]))
            pc.append(poly["pixel_count"])
        # distinct labels (a pinched 8-connected region may emit >1 polygon;
        # count regions the way the oracle does: by labeling)
        from gdal_ray.raster.polygonize import label_regions

        n = int(label_regions(arr, nodata=nodata).max()) + 1
        rid.append(batch["raster_id"][i].as_py())
        nreg.append(n)
        cks.append(checksum_image(arr))
        exact.append(bool((back == arr).all()))
        counts.append(sorted(pc))
    return pa.table(
        {
            "raster_id": pa.array(rid, pa.string()),
            "n_regions": pa.array(nreg, pa.int32()),
            "checksum": pa.array(cks, pa.int32()),
            "roundtrip_exact": pa.array(exact, pa.bool_()),
            "pixel_counts": pa.array(counts, pa.list_(pa.int32())),
        }
    )
