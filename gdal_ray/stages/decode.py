"""Image decode + per-image raster metrics (task-pool ``map_batches`` stage).

The distributed replacement for GDAL's raster driver + band statistics path
(``gcore/gdalrasterband.cpp:5157`` ComputeStatistics, ``alg/gdalchecksum.cpp``)
— per-image partial metrics computed at decode time, global stats via a later
tiny aggregate. Batches are small (IMAGE_BATCH) because rows are wide; the
decoded pixels are not carried forward — shuffles should only ever move
keys + metadata (SURVEY.md "wide rows" hard part).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from gdal_ray.io import codec as C
from gdal_ray.io import phash as PH

__all__ = ["decode_stats"]


def decode_stats(batch: pa.Table) -> pa.Table:
    """bytes+fmt -> per-image metrics, ``bytes`` dropped.

    Emitted columns: mean, std, minv, maxv, checksum (GDAL parity),
    phash_check (recomputed pHash — equals the stored ``phash`` column for
    intact payloads, a cheap end-to-end decode invariant). Decode holds no
    per-worker state (codecs are pure functions), so this runs in an
    elastic task pool.
    """
    from gdal_ray.raster.checksum import checksum_image

    n = batch.num_rows
    mean = np.empty(n)
    std = np.empty(n)
    minv = np.empty(n, np.int32)
    maxv = np.empty(n, np.int32)
    cksum = np.empty(n, np.int32)
    ph = np.empty(n, np.int64)
    vals = np.arange(256, dtype=np.int64)
    vals2 = vals * vals
    for i, img in enumerate(map(C.decode_image, batch["bytes"].to_pylist(), batch["fmt"].to_pylist())):
        # one-pass exact stats from the value histogram (no float64
        # copy of the pixel array): integer sums are exact, so
        # mean/min/max are identical to the two-pass form
        counts = np.bincount(img.ravel(), minlength=256)
        npix = img.size
        s = int(counts @ vals)
        ss = int(counts @ vals2)
        mean[i] = s / npix
        std[i] = np.sqrt(max(0.0, ss / npix - (s / npix) ** 2))
        nz = np.flatnonzero(counts)
        minv[i] = int(nz[0])
        maxv[i] = int(nz[-1])
        cksum[i] = checksum_image(img[:, :, 0])
        ph[i] = PH.phash64(img)
    return (
        batch.drop_columns(["bytes"])
        .append_column("mean", pa.array(mean))
        .append_column("std", pa.array(std))
        .append_column("minv", pa.array(minv, pa.int32()))
        .append_column("maxv", pa.array(maxv, pa.int32()))
        .append_column("checksum", pa.array(cksum, pa.int32()))
        .append_column("phash_check", pa.array(ph, pa.int64()))
    )
