"""Raster-operator pipelines exposed as queries (rows-only gate; exact
semantics covered by tests/test_raster_kernels.py scalar checks)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from gdal_ray.pipelines.corpus_queries import corpus_for_sf
from gdal_ray.sources import corpus as SRC
from gdal_ray.sources.corpus import read_parquet_tight as _rpt

__all__ = [
    "q_dem_metrics",
    "q_resample_roundtrip",
    "q_global_band_stats",
    "q_global_histogram",
    "q_point_query",
    "q_zonal_category_stats",
    "q_hilbert_order",
    "q_contour",
    "q_grid_invdist",
    "q_footprint",
    "q_vector_ops",
    "q_sim_ivf",
    "q_warp_4326_images",
    "q_warp_utm",
    "q_warp_lcc",
    "q_embed_near_dup",
    "q_embed_near_dup_lsh",
    "q_simhash_docs",
    "q_jaccard_near_dup",
    "q_poly_intersect_pairs",
    "q_poly_intersection_area",
    "q_nearblack",
    "q_pansharpen",
    "q_mosaic",
    "q_viewshed",
    "q_rat",
    "q_stack_median",
    "q_mdim_cube",
    "q_sim_pq",
    "q_semdedup",
]


def q_dem_metrics(sf_dir: str):
    from gdal_ray.stages.rasterops import dem_metrics_batch

    d = corpus_for_sf(sf_dir)
    return SRC.read_rasters(d).map_batches(dem_metrics_batch, batch_format="pyarrow")


def q_resample_roundtrip(sf_dir: str):
    from gdal_ray.stages.rasterops import resample_roundtrip_batch

    d = corpus_for_sf(sf_dir)
    return SRC.read_rasters(d).map_batches(resample_roundtrip_batch, batch_format="pyarrow")


def q_global_band_stats(sf_dir: str):
    """Two-phase exact global pixel statistics over ALL decoded images:
    per-batch partials reduce through Ray's distributed aggregate (tree
    combine), so the driver sees ONE row regardless of corpus size."""
    from ray.data.aggregate import Max, Min, Sum

    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.stages.rasterops import global_stats_partials

    d = corpus_for_sf(sf_dir)
    # fused: decode+partial-reduce inside the read task; one tiny partial
    # row per row group reaches the distributed aggregate
    partials = fused_image_apply(
        d, global_stats_partials, columns=["bytes", "fmt"], with_placements=False
    )
    agg = partials.aggregate(
        Sum("n", alias_name="n"),
        Sum("sum", alias_name="sum"),
        Sum("sumsq", alias_name="sumsq"),
        Min("min", alias_name="min"),
        Max("max", alias_name="max"),
    )
    n = int(agg["n"])
    mean = float(agg["sum"]) / n
    return pd.DataFrame(
        {
            "n_pixels": [n],
            "mean": [round(mean, 6)],
            "std": [round(float(np.sqrt(float(agg["sumsq"]) / n - mean * mean)), 6)],
            "min": [agg["min"]],
            "max": [agg["max"]],
        }
    )


def q_global_histogram(sf_dir: str):
    """Exact global 256-bin pixel histogram: per-batch partial histograms,
    then a distributed block-level vector combine — the driver sums only
    one row per block, not one per batch."""
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.stages.rasterops import histogram_partials

    d = corpus_for_sf(sf_dir)
    parts = fused_image_apply(
        d, histogram_partials, columns=["bytes", "fmt"], with_placements=False
    )

    def combine(batch: pa.Table) -> pa.Table:
        acc = np.zeros(256, dtype=np.int64)
        for row in batch["hist"].to_pylist():
            acc += np.asarray(row, dtype=np.int64)
        return pa.table({"hist": pa.array([acc.tolist()], pa.list_(pa.int64()))})

    acc = np.zeros(256, dtype=np.int64)
    for b in parts.map_batches(combine, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow"
    ):
        for row in b["hist"].to_pylist():
            acc += np.asarray(row, dtype=np.int64)
    return pd.DataFrame({"bin": np.arange(256, dtype=np.int32), "count": acc})


def _image_pixel_sampler(row: dict, qx: np.ndarray, qy: np.ndarray, mode: str = "nearest"):
    """Per-image sampler for the co-partitioned point query: inverse
    geotransform -> band-0 pixel (apps/gdallocationinfo.cpp:373). Decode
    runs ONCE per image, only when at least one point is in bounds.
    ``mode="bilinear"`` adds the interpolated read (gdallocationinfo -r
    bilinear, alg/gdal_interpolateatpoint.h:37) as a second column."""
    from gdal_ray.geo import affine as A
    from gdal_ray.geo import mercator as M
    from gdal_ray.io import codec as C
    from gdal_ray.raster.kernels import interpolate_at_point_bilinear

    gt = tuple(float(row[f"gt{i}"]) for i in range(6))
    inv = A.invert_geotransform(gt)
    if inv is None:
        return None, None
    gx, gy = qx, qy
    if row["srs"] == "EPSG:4326":
        lat, lon = M.meters_to_latlon(gx, gy)
        gx, gy = lon, lat
    px, py = A.apply_geotransform(inv, gx, gy)
    ix = np.floor(px).astype(np.int64)
    iy = np.floor(py).astype(np.int64)
    ok = (ix >= 0) & (ix < int(row["w"])) & (iy >= 0) & (iy < int(row["h"]))
    if not ok.any():
        return None, None
    img = C.decode_image(row["bytes"], row["fmt"])
    nearest = img[iy[ok], ix[ok], 0].astype(np.int32)
    if mode == "nearest":
        return ok, nearest
    bi = interpolate_at_point_bilinear(img[:, :, 0], px[ok], py[ok])
    return ok, {"value": nearest, "value_bi": np.round(bi, 6)}


def q_point_query(sf_dir: str):
    """gdallocationinfo as a DISTRIBUTED pipeline (the scale-safe plan):
    stage A cell-co-partitions the query points with the image footprint
    covers (same key space as the PIP join), stage B hash-co-partitions the
    candidates with the image payload on image_id — no broadcast of the
    point table, no O(images x points) scan; see stages/pointquery.py."""
    from gdal_ray.pipelines.flagship import _query_points, fused_image_apply, placed_images
    from gdal_ray.stages.pointquery import point_footprint_candidates, sample_at_points

    d = corpus_for_sf(sf_dir)
    points = _query_points(d, ["query_id"])

    footprints = placed_images(d, decode=False).map_batches(
        lambda b: b.select(["image_id", "minx", "miny", "maxx", "maxy"]),
        batch_format="pyarrow",
        batch_size=None,
    )
    cand = point_footprint_candidates(points, footprints)

    payload = fused_image_apply(
        d,
        lambda t: t.select(["image_id", "bytes", "fmt", "w", "h", "srs"]
                           + [f"gt{i}" for i in range(6)]),
        columns=["image_id", "bytes", "fmt", "w", "h"],
    )

    out_schema = pa.schema(
        [("query_id", pa.string()), ("image_id", pa.string()), ("value", pa.int32())]
    )
    return sample_at_points(cand, payload, _image_pixel_sampler, out_schema)


def q_zonal_category_stats(sf_dir: str):
    """Zonal aggregate: PIP join rows x polygon categories -> per-category
    image counts (the RAT/zonal-stats shape, SURVEY §2.5)."""
    import pyarrow.parquet as pq

    from ray.data.aggregate import Count
    from gdal_ray.pipelines import flagship as F

    d = corpus_for_sf(sf_dir)
    cat = pq.read_table(f"{d}/polygons.parquet", columns=["poly_id", "category"]).to_pandas()
    cat_ref = ray.put(dict(zip(cat["poly_id"], cat["category"])))
    pip = F.pip_join_images(F.placed_images(d, decode=False), d)

    def add_cat(batch: pd.DataFrame) -> pd.DataFrame:
        lut = ray.get(cat_ref)
        batch["category"] = batch["poly_id"].map(lut)
        return batch

    return (
        pip.map_batches(add_cat, batch_format="pandas")
        .groupby("category")
        .aggregate(Count(alias_name="n_hits"))
    )


def q_hilbert_order(sf_dir: str):
    """Hilbert spatial-locality sort of image centroids (FlatGeobuf packed
    R-tree write order, packedrtree.h:93): returns the first 200 ids in
    Hilbert order."""
    from gdal_ray.geo.hilbert import hilbert_key_meters
    from gdal_ray.pipelines.flagship import placed_images

    placed = placed_images(corpus_for_sf(sf_dir), decode=False)

    def add_key(batch: pa.Table) -> pa.Table:
        key = hilbert_key_meters(np.asarray(batch["cx"]), np.asarray(batch["cy"]))
        return pa.table({"image_id": batch["image_id"], "hilbert": pa.array(key)})

    return placed.map_batches(add_key, batch_format="pyarrow", batch_size=None).sort(
        "hilbert"
    ).limit(200)


def q_contour(sf_dir: str):
    """Iso-lines AND iso-band polygons per raster at fixed levels
    (marching squares line tracer + the round-5 polygon mode,
    alg/contour.cpp:568 both branches). Per (raster, level) the line rows
    carry point counts; the band rows carry ring counts and the exact
    fragment-sum area — a self-checking invariant: band areas sum to the
    full pixel-center domain (w-1)*(h-1) per raster."""
    from gdal_ray.raster.contour import contour_lines, contour_polygons

    d = corpus_for_sf(sf_dir)
    levels = [0.5, 2.5]

    def per_raster(batch: pa.Table) -> pa.Table:
        rows = {"raster_id": [], "kind": [], "level": [], "n_points": [],
                "n_rings": [], "area": []}
        pix = batch["pixels"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        for i in range(len(pix)):
            rid = batch["raster_id"][i].as_py()
            arr = np.asarray(pix[i], dtype=np.float64).reshape(hs[i], ws[i])
            for line in contour_lines(arr, levels):
                rows["raster_id"].append(rid)
                rows["kind"].append("line")
                rows["level"].append(line["level"])
                rows["n_points"].append(len(line["coords"]))
                rows["n_rings"].append(0)
                rows["area"].append(0.0)
            for band in contour_polygons(arr, levels):
                rows["raster_id"].append(rid)
                rows["kind"].append("band")
                rows["level"].append(
                    band["elev_min"] if np.isfinite(band["elev_min"]) else
                    band["elev_max"] - 1.0
                )
                rows["n_points"].append(0)
                rows["n_rings"].append(len(band["rings"]))
                rows["area"].append(round(band["area"], 6))
        return pa.table(
            {
                "raster_id": pa.array(rows["raster_id"], pa.string()),
                "kind": pa.array(rows["kind"], pa.string()),
                "level": pa.array(rows["level"], pa.float64()),
                "n_points": pa.array(rows["n_points"], pa.int32()),
                "n_rings": pa.array(rows["n_rings"], pa.int32()),
                "area": pa.array(rows["area"], pa.float64()),
            }
        )

    return SRC.read_rasters(d).map_batches(per_raster, batch_format="pyarrow")


def q_grid_invdist(sf_dir: str):
    """gdal_grid invdist: per-cell gridding of image centroids (value =
    decoded mean is expensive; use phash-derived value as the scalar)."""
    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.raster.grid import grid_points
    from gdal_ray.pipelines.flagship import placed_images
    from gdal_ray.geo import cells as CL

    placed = placed_images(corpus_for_sf(sf_dir), decode=False)

    def prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "cell": batch["cell"],
                "cx": batch["cx"],
                "cy": batch["cy"],
                "val": pa.array(np.asarray(batch["w"], dtype=np.float64)),
            }
        )

    pts = placed.map_batches(prep, batch_format="pyarrow", batch_size=None)

    def per_cell(part: pd.DataFrame) -> pd.DataFrame:
        rows = {"cell": [], "n_points": [], "grid_cksum": []}
        for cell, g in part.groupby("cell", sort=False):
            z, x, y = CL.cell_to_xyz(int(cell))
            from gdal_ray.geo import mercator as M

            ty_tms = M.tms_to_xyz(np.int64(y), int(z))
            minx, miny, maxx, maxy = M.tile_bounds(int(x), int(ty_tms), int(z))
            gt = (float(minx), (float(maxx) - float(minx)) / 16, 0.0, float(maxy), 0.0, -(float(maxy) - float(miny)) / 16)
            grid = grid_points(
                g["cx"].to_numpy(), g["cy"].to_numpy(), g["val"].to_numpy(), 16, 16, gt
            )
            from gdal_ray.raster.checksum import checksum_image

            rows["cell"].append(int(cell))
            rows["n_points"].append(len(g))
            rows["grid_cksum"].append(checksum_image(grid))
        return pd.DataFrame(rows)

    return bucketed_group_apply(
        pts, ["cell"], per_cell, 32,
        schema=pa.schema(
            [("cell", pa.int64()), ("n_points", pa.int64()), ("grid_cksum", pa.int64())]
        ),
    )


def q_footprint(sf_dir: str):
    """Raster footprint (apps/gdal_footprint_lib.cpp:1268): valid-data mask
    (pixels != nodata) -> boundary polygons -> WKB + area per raster."""
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo import wkb as W
    from gdal_ray.raster.polygonize import polygonize_array

    d = corpus_for_sf(sf_dir)

    def per_raster(batch: pa.Table) -> pa.Table:
        rows = {"raster_id": [], "n_parts": [], "area_px": []}
        pix = batch["pixels"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        for i in range(len(pix)):
            arr = np.asarray(pix[i], dtype=np.int32).reshape(hs[i], ws[i])
            mask = (arr != -1).astype(np.int32)  # footprint = not-nodata
            polys = polygonize_array(mask, nodata=0)
            area = sum(GO.polygon_area(p["rings"]) for p in polys)
            rows["raster_id"].append(batch["raster_id"][i].as_py())
            rows["n_parts"].append(len(polys))
            rows["area_px"].append(float(area))
        return pa.table(
            {
                "raster_id": pa.array(rows["raster_id"], pa.string()),
                "n_parts": pa.array(rows["n_parts"], pa.int32()),
                "area_px": pa.array(rows["area_px"]),
            }
        )

    return SRC.read_rasters(d).map_batches(per_raster, batch_format="pyarrow")


def q_vector_ops(sf_dir: str):
    """Vector pipeline steps over the polygon layer (ogr2ogr/gdal vector
    steps: simplify, segmentize, centroid, area, convex-hull, rect clip)."""
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo import wkb as W

    d = corpus_for_sf(sf_dir)

    def per_poly(batch: pa.Table) -> pa.Table:
        rows = {
            "poly_id": [],
            "area": [],
            "perimeter": [],
            "centroid_x": [],
            "centroid_y": [],
            "n_pts": [],
            "n_pts_simplified": [],
            "hull_area": [],
            "clipped_area": [],
        }
        ids = batch["poly_id"].to_pylist()
        blobs = batch["wkb"].to_pylist()
        for i in range(len(ids)):
            polys = W.decode_polygons(blobs[i])
            area = sum(GO.polygon_area(p) for p in polys)
            outer = polys[0][0]
            cx, cy = GO.polygon_centroid(polys[0])
            simp = GO.simplify_dp(outer, tolerance=100.0)
            hull = GO.convex_hull(np.vstack([p[0][:-1] for p in polys]))
            e = W.wkb_envelope(blobs[i])
            midx, midy = (e[0] + e[2]) / 2, (e[1] + e[3]) / 2
            clipped = GO.clip_ring_rect(outer, e[0], e[1], midx, midy)
            rows["poly_id"].append(ids[i])
            rows["area"].append(round(area, 4))
            rows["perimeter"].append(round(sum(GO.ring_length(p[0]) for p in polys), 4))
            rows["centroid_x"].append(round(cx, 4))
            rows["centroid_y"].append(round(cy, 4))
            rows["n_pts"].append(len(outer))
            rows["n_pts_simplified"].append(len(simp))
            rows["hull_area"].append(round(abs(GO.ring_area(hull)), 4))
            rows["clipped_area"].append(
                round(abs(GO.ring_area(clipped)) if clipped.size else 0.0, 4)
            )
        import pandas as pd

        return pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)

    return SRC.read_polygons(d).map_batches(per_poly, batch_format="pyarrow")


def q_sim_ivf(sf_dir: str):
    """IVF approximate cosine top-5 over embeddings through the
    bucket-routed plan (scale path of q_sim_topk). Centroids are the first
    16 table vectors, so the assignment/probe/search chain is fully
    deterministic and the DuckDB oracle replays the identical algorithm."""
    import os

    import pyarrow.parquet as pq
    import pyarrow.compute as pc
    import ray.data as rd

    from gdal_ray.stages.simsearch import topk_cosine_ivf

    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    cent_t = qt.filter(pc.less(qt["vec_id"], 16)).sort_by("vec_id")
    cents = np.stack([np.asarray(v, dtype=np.float64) for v in cent_t["embedding"].to_pylist()])
    qt = qt.filter(pc.less(qt["vec_id"], 8)).sort_by("vec_id")
    queries = np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()])
    qids = np.asarray(qt["vec_id"])
    ds = _rpt(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    top = topk_cosine_ivf(ds, queries, k=5, n_clusters=16, n_probe=4, centroids=cents)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch["query_id"] = qids[batch["query_idx"].to_numpy()]
        return batch[["query_id", "rank", "vec_id"]]

    return top.map_batches(finish, batch_format="pandas")


def q_warp_4326_images(sf_dir: str):
    """gdalwarp as a pipeline: the EPSG:4326 slice of the corpus warped to
    EPSG:3857 (dst-driven nearest), reporting dst grid + checksum."""
    import os

    import ray.data as rd

    from gdal_ray.io import codec as C
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.warp import warp_image
    from gdal_ray.stages.geo import _gt_matrix

    d = corpus_for_sf(sf_dir)

    def per_image(batch: pa.Table) -> pa.Table:
        keep = [i for i, s in enumerate(batch["srs"].to_pylist()) if s == "EPSG:4326"]
        rows = {"image_id": [], "dst_w": [], "dst_h": [], "warp_cksum": []}
        if keep:
            batch2 = batch.take(pa.array(keep))
            gts = _gt_matrix(batch2)
            blobs = batch2["bytes"].to_pylist()
            fmts = batch2["fmt"].to_pylist()
            ids = batch2["image_id"].to_pylist()
            for i in range(len(ids)):
                img = C.decode_image(blobs[i], fmts[i])
                out, ogt = warp_image(img, tuple(gts[i]), "EPSG:4326", "EPSG:3857")
                rows["image_id"].append(ids[i])
                rows["dst_w"].append(out.shape[1])
                rows["dst_h"].append(out.shape[0])
                rows["warp_cksum"].append(checksum_image(out[:, :, 0]))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "dst_w": pa.array(rows["dst_w"], pa.int32()),
                "dst_h": pa.array(rows["dst_h"], pa.int32()),
                "warp_cksum": pa.array(rows["warp_cksum"], pa.int32()),
            }
        )

    # fused: decode+warp run inside the read task; only the tiny result
    # rows (id, grid, checksum) ever enter the object store
    return fused_image_apply(
        d, per_image, columns=["image_id", "bytes", "fmt"], with_placements=True
    )


def q_warp_utm(sf_dir: str):
    """The gdalwarp benchmark pair (autotest/benchmark/test_gdalwarp.py:29):
    EPSG:32631 -> EPSG:4326, nearest, dst grid from the suggested extent.
    The corpus stores 4326/3857 placements, so a deterministic 10 m/px UTM
    zone-31 placement is derived per image (near the central meridian,
    offset keyed by stored phash) — the ellipsoidal Karney chain runs
    without PROJ (gdal_ray/geo/tmerc.py). Emits checksums for BOTH the
    bench's resampling arms (-r near / -r cubic,
    autotest/benchmark/test_gdalwarp.py:38)."""
    import os

    import ray.data as rd

    from gdal_ray.io import codec as C
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.warp import warp_image

    d = corpus_for_sf(sf_dir)

    def per_image(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        ws = np.asarray(batch["w"])
        hs = np.asarray(batch["h"])
        ph = np.asarray(batch["phash"], dtype=np.int64)
        rows = {"image_id": [], "dst_w": [], "dst_h": [], "warp_cksum": [],
                "warp_cksum_cubic": []}
        for i in range(len(ids)):
            # deterministic UTM placement: 10 m pixels, centered near the
            # zone-31 central meridian, jittered by the stored phash
            e0 = 480000.0 + float(np.abs(ph[i]) % 40000)
            n0 = 4400000.0 + float(np.abs(ph[i] >> 16) % 200000)
            gt = (e0, 10.0, 0.0, n0, 0.0, -10.0)
            img = C.decode_image(blobs[i], fmts[i])
            out, ogt = warp_image(img, gt, "EPSG:32631", "EPSG:4326")
            outc, _ = warp_image(
                img, gt, "EPSG:32631", "EPSG:4326",
                dst_gt=ogt, dst_w=out.shape[1], dst_h=out.shape[0],
                resampling="cubic",
            )
            rows["image_id"].append(ids[i])
            rows["dst_w"].append(out.shape[1])
            rows["dst_h"].append(out.shape[0])
            rows["warp_cksum"].append(checksum_image(out[:, :, 0]))
            rows["warp_cksum_cubic"].append(checksum_image(outc[:, :, 0]))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "dst_w": pa.array(rows["dst_w"], pa.int32()),
                "dst_h": pa.array(rows["dst_h"], pa.int32()),
                "warp_cksum": pa.array(rows["warp_cksum"], pa.int32()),
                "warp_cksum_cubic": pa.array(rows["warp_cksum_cubic"], pa.int32()),
            }
        )

    return fused_image_apply(
        d,
        per_image,
        columns=["image_id", "bytes", "fmt", "w", "h", "phash"],
        with_placements=False,
    )


def q_warp_area(sf_dir: str):
    """gdalwarp -r average / -r med as a pipeline: the EPSG:4326 slice
    warped to EPSG:3857 at HALF resolution through the area-statistics
    kernel (warp_image_area: footprint windows + fractional border
    weights), reporting both checksums per image. Fused like the other
    warp queries — only tiny result rows leave the read task."""
    from gdal_ray.io import codec as C
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.warp import suggest_output_grid, warp_image_area
    from gdal_ray.stages.geo import _gt_matrix

    d = corpus_for_sf(sf_dir)

    def per_image(batch: pa.Table) -> pa.Table:
        keep = [i for i, s in enumerate(batch["srs"].to_pylist()) if s == "EPSG:4326"]
        rows = {"image_id": [], "dst_w": [], "dst_h": [],
                "avg_cksum": [], "med_cksum": []}
        if keep:
            batch2 = batch.take(pa.array(keep))
            gts = _gt_matrix(batch2)
            blobs = batch2["bytes"].to_pylist()
            fmts = batch2["fmt"].to_pylist()
            ids = batch2["image_id"].to_pylist()
            for i in range(len(ids)):
                img = C.decode_image(blobs[i], fmts[i])
                h, w = img.shape[:2]
                gt, dw, dh = suggest_output_grid(
                    tuple(gts[i]), w, h, "EPSG:4326", "EPSG:3857")
                # half-resolution dst grid -> every dst pixel aggregates
                # a ~2x2 source footprint (the op's actual use case)
                gt2 = (gt[0], gt[1] * 2, gt[2], gt[3], gt[4], gt[5] * 2)
                dw2, dh2 = max(1, dw // 2), max(1, dh // 2)
                avg, _ = warp_image_area(
                    img[:, :, 0], tuple(gts[i]), "EPSG:4326", "EPSG:3857",
                    dst_gt=gt2, dst_w=dw2, dst_h=dh2, op="average")
                med, _ = warp_image_area(
                    img[:, :, 0], tuple(gts[i]), "EPSG:4326", "EPSG:3857",
                    dst_gt=gt2, dst_w=dw2, dst_h=dh2, op="med")
                rows["image_id"].append(ids[i])
                rows["dst_w"].append(dw2)
                rows["dst_h"].append(dh2)
                rows["avg_cksum"].append(checksum_image(avg))
                rows["med_cksum"].append(checksum_image(med))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "dst_w": pa.array(rows["dst_w"], pa.int32()),
                "dst_h": pa.array(rows["dst_h"], pa.int32()),
                "avg_cksum": pa.array(rows["avg_cksum"], pa.int32()),
                "med_cksum": pa.array(rows["med_cksum"], pa.int32()),
            }
        )

    return fused_image_apply(
        d, per_image, columns=["image_id", "bytes", "fmt"], with_placements=True
    )


def q_warp_lcc(sf_dir: str):
    """gdalwarp to Lambert Conformal Conic (geo/conic.py seam): the 3857
    slice of the corpus warped to LCC:33,45,23,-96, reporting dst grid +
    checksum (rows-only gate; the conic kernels have a SQL-checked forward
    twin in q_conic_lattice and round-trip property tests)."""
    import os

    import ray.data as rd

    from gdal_ray.io import codec as C
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.warp import warp_image
    from gdal_ray.stages.geo import _gt_matrix

    d = corpus_for_sf(sf_dir)

    def per_image(batch: pa.Table) -> pa.Table:
        keep = [i for i, s in enumerate(batch["srs"].to_pylist()) if s == "EPSG:3857"]
        rows = {"image_id": [], "dst_w": [], "dst_h": [], "warp_cksum": []}
        if keep:
            batch2 = batch.take(pa.array(keep))
            gts = _gt_matrix(batch2)
            blobs = batch2["bytes"].to_pylist()
            fmts = batch2["fmt"].to_pylist()
            ids = batch2["image_id"].to_pylist()
            for i in range(len(ids)):
                img = C.decode_image(blobs[i], fmts[i])
                out, _ = warp_image(img, tuple(gts[i]), "EPSG:3857", "LCC:33,45,23,-96")
                rows["image_id"].append(ids[i])
                rows["dst_w"].append(out.shape[1])
                rows["dst_h"].append(out.shape[0])
                rows["warp_cksum"].append(checksum_image(out[:, :, 0]))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "dst_w": pa.array(rows["dst_w"], pa.int32()),
                "dst_h": pa.array(rows["dst_h"], pa.int32()),
                "warp_cksum": pa.array(rows["warp_cksum"], pa.int32()),
            }
        )

    return fused_image_apply(
        d, per_image, columns=["image_id", "bytes", "fmt"], with_placements=True
    )


def q_embed_near_dup(sf_dir: str):
    """EXACT all-pairs embedding-cosine near-dup join (threshold 0.45,
    chosen so the nearest pair sits 5e-4 from the boundary — float-safe
    against the DuckDB oracle's cross join)."""
    import os

    import ray.data as rd

    from gdal_ray.stages.simsearch import embedding_near_dup

    ds = _rpt(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return embedding_near_dup(ds, threshold=0.45)


def q_simhash_docs(sf_dir: str):
    """SimHash sketch per document (hyperplane-sign near-dup key)."""
    import os

    import ray.data as rd

    from gdal_ray.stages.dedup import SimHasher

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return ds.map_batches(
        SimHasher, batch_format="pandas", batch_size=2048, concurrency=(1, 4), num_cpus=1
    )


def q_jaccard_near_dup(sf_dir: str):
    """MinHash-LSH candidates verified with exact n-gram Jaccard >= 0.8."""
    import os

    import ray.data as rd

    from gdal_ray.stages.dedup import verified_text_near_dups

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    return verified_text_near_dups(ds, jaccard_threshold=0.8)


def _poly_candidate_pairs(d: str):
    """Distributed layer-algebra candidate generation (ogrlayer.cpp:3345
    plan, cell-partitioned): polygons explode to their cell covers, each
    cell partition emits its envelope-overlapping pairs WITH both WKBs, a
    second keyed pass dedups pairs that co-occur in multiple cells. No
    driver-side pair loop; scales with cells, not polygon-count^2."""
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.stages.pipjoin import explode_polygon_covers

    covers = SRC.read_polygons(d).map_batches(
        explode_polygon_covers, batch_format="pyarrow"
    )

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        rows = {"poly_a": [], "poly_b": [], "wkb_a": [], "wkb_b": []}
        for _, g in part.groupby("cell", sort=False):
            if len(g) < 2:
                continue
            ids = g["poly_id"].to_numpy()
            wkbs = g["wkb"].to_numpy()
            env = g[["minx", "miny", "maxx", "maxy"]].to_numpy()
            order = np.argsort(ids)
            ids, wkbs, env = ids[order], wkbs[order], env[order]
            ia, ib = np.triu_indices(len(ids), k=1)
            overlap = (
                (env[ia, 0] <= env[ib, 2]) & (env[ib, 0] <= env[ia, 2])
                & (env[ia, 1] <= env[ib, 3]) & (env[ib, 1] <= env[ia, 3])
            )
            for x, y in zip(ia[overlap], ib[overlap]):
                rows["poly_a"].append(ids[x])
                rows["poly_b"].append(ids[y])
                rows["wkb_a"].append(wkbs[x])
                rows["wkb_b"].append(wkbs[y])
        return pd.DataFrame(rows)

    pair_schema = pa.schema(
        [("poly_a", pa.string()), ("poly_b", pa.string()),
         ("wkb_a", pa.binary()), ("wkb_b", pa.binary())]
    )
    cand = bucketed_group_apply(covers, ["cell"], pairs, 32, schema=pair_schema)
    return bucketed_group_apply(
        cand, ["poly_a", "poly_b"],
        lambda p: p.drop_duplicates(["poly_a", "poly_b"]), 8, schema=pair_schema,
    )


def q_poly_intersect_pairs(sf_dir: str):
    """Layer-algebra Intersects pairs: distributed cell-cover candidates ->
    exact boundary/containment test per pair (polygons_intersect)."""
    import pandas as pd

    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo import wkb as W

    cand = _poly_candidate_pairs(corpus_for_sf(sf_dir))

    def verify(batch: pd.DataFrame) -> pd.DataFrame:
        keep = [
            GO.polygons_intersect(W.decode_polygons(wa), W.decode_polygons(wb))
            for wa, wb in zip(batch["wkb_a"], batch["wkb_b"])
        ]
        out = batch.loc[keep, ["poly_a", "poly_b"]].reset_index(drop=True)
        return out.astype(str)

    return cand.map_batches(verify, batch_format="pandas", batch_size=256)


def q_poly_intersection_area(sf_dir: str):
    """Layer-algebra Intersection WITH output geometry (ogrlayer.cpp:3345):
    per intersecting pair, the intersection polygon's area via the general
    boolean-op kernel (ear-clip triangulation + convex clipping,
    geo/booleanops.py) on the outer rings."""
    import pandas as pd

    from gdal_ray.geo import wkb as W
    from gdal_ray.geo.booleanops import pieces_area, polygon_intersection

    cand = _poly_candidate_pairs(corpus_for_sf(sf_dir))

    def areas(batch: pd.DataFrame) -> pd.DataFrame:
        rows = {"poly_a": [], "poly_b": [], "inter_area": []}
        for pa_, pb_, wa, wb in zip(
            batch["poly_a"], batch["poly_b"], batch["wkb_a"], batch["wkb_b"]
        ):
            a = W.decode_polygons(wa)[0][0]
            b = W.decode_polygons(wb)[0][0]
            area = pieces_area(polygon_intersection(a, b))
            if area > 1e-9:
                rows["poly_a"].append(str(pa_))
                rows["poly_b"].append(str(pb_))
                rows["inter_area"].append(round(area, 4))
        return pd.DataFrame(
            {
                "poly_a": pd.Series(rows["poly_a"], dtype=str),
                "poly_b": pd.Series(rows["poly_b"], dtype=str),
                "inter_area": pd.Series(rows["inter_area"], dtype=np.float64),
            }
        )

    return cand.map_batches(areas, batch_format="pandas", batch_size=256)


def q_nearblack(sf_dir: str):
    """nearblack as a pipeline (apps/nearblack_lib.cpp:76): per-image
    collar-pixel count + post-clean checksum (rows-only gate; kernel
    exactness in tests/test_raster_kernels.py)."""
    import os

    import ray.data as rd

    from gdal_ray.io import codec as C
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import nearblack

    from gdal_ray.pipelines.flagship import fused_image_apply

    d = corpus_for_sf(sf_dir)

    def per_image(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        rows = {"image_id": [], "n_collar": [], "cksum": []}
        for i in range(len(ids)):
            img = C.decode_image(blobs[i], fmts[i])
            out, changed = nearblack(img, threshold=15)
            rows["image_id"].append(ids[i])
            rows["n_collar"].append(changed)
            rows["cksum"].append(checksum_image(out[:, :, 0]))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "n_collar": pa.array(rows["n_collar"], pa.int64()),
                "cksum": pa.array(rows["cksum"], pa.int32()),
            }
        )

    return fused_image_apply(
        d, per_image, columns=["image_id", "bytes", "fmt"], with_placements=False
    )


def q_pansharpen(sf_dir: str):
    """Weighted-Brovey pansharpen (alg/gdalpansharpen.cpp:1166): each image
    is its own multispectral side; the pan band is a synthetic 2x-resolution
    luminance. Reports output grid + band-0 checksum (rows-only gate)."""
    import os

    import ray.data as rd

    from gdal_ray.io import codec as C
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import pansharpen_brovey, resample_bilinear

    from gdal_ray.pipelines.flagship import fused_image_apply

    d = corpus_for_sf(sf_dir)

    def per_image(batch: pa.Table) -> pa.Table:
        ids = batch["image_id"].to_pylist()
        blobs = batch["bytes"].to_pylist()
        fmts = batch["fmt"].to_pylist()
        rows = {"image_id": [], "out_w": [], "out_h": [], "cksum": []}
        for i in range(len(ids)):
            img = C.decode_image(blobs[i], fmts[i])
            h, w = img.shape[:2]
            pan = resample_bilinear(img, 2 * h, 2 * w).astype(np.float64).mean(axis=2)
            out = pansharpen_brovey(img, pan)
            rows["image_id"].append(ids[i])
            rows["out_w"].append(out.shape[1])
            rows["out_h"].append(out.shape[0])
            rows["cksum"].append(checksum_image(out[:, :, 0]))
        return pa.table(
            {
                "image_id": pa.array(rows["image_id"], pa.string()),
                "out_w": pa.array(rows["out_w"], pa.int32()),
                "out_h": pa.array(rows["out_h"], pa.int32()),
                "cksum": pa.array(rows["cksum"], pa.int32()),
            }
        )

    return fused_image_apply(
        d, per_image, columns=["image_id", "bytes", "fmt"], with_placements=False
    )


def q_embed_near_dup_lsh(sf_dir: str):
    """Scale path of q_embed_near_dup: hyperplane-LSH candidates + exact
    cosine verify via co-partitioned joins (no all-pairs, no driver-side
    block collection). Rows-only gate; precision/recall asserted in tests."""
    import os

    import ray.data as rd

    from gdal_ray.stages.simsearch import embedding_near_dup_lsh

    ds = _rpt(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return embedding_near_dup_lsh(ds, threshold=0.45)


def q_viewshed(sf_dir: str):
    """Viewshed per raster (alg/viewshed/viewshed.cpp semantics) from the
    center cell, radius-limited: emits visible-cell count + mask checksum
    (rows-only gate; occlusion semantics scalar-tested)."""
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.viewshed import viewshed

    d = corpus_for_sf(sf_dir)

    def per_raster(batch: pa.Table) -> pa.Table:
        rows = {"raster_id": [], "n_visible": [], "mask_cksum": []}
        pix = batch["pixels"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        for i in range(len(pix)):
            arr = np.asarray(pix[i], dtype=np.float64).reshape(hs[i], ws[i])
            v = viewshed(arr, hs[i] // 2, ws[i] // 2, observer_height=2.0, max_dist=16.0)
            rows["raster_id"].append(batch["raster_id"][i].as_py())
            rows["n_visible"].append(int(v.sum()))
            rows["mask_cksum"].append(checksum_image(v.astype(np.int32)))
        return pa.table(
            {
                "raster_id": pa.array(rows["raster_id"], pa.string()),
                "n_visible": pa.array(rows["n_visible"], pa.int64()),
                "mask_cksum": pa.array(rows["mask_cksum"], pa.int32()),
            }
        )

    return SRC.read_rasters(d).map_batches(per_raster, batch_format="pyarrow", batch_size=8)


def q_mdim_cube(sf_dir: str):
    """Corpus-scale multidim pipeline through the REAL MDArray API
    (raster/mdim.py; reference gcore/gdalmultidim.cpp GDALMDArray
    view/transpose/reduce + GetResampled): each raster becomes a
    (1, 32, 32) resampled MDArray slice inside the map stage, stacks of 4
    combine per group into a (t, 32, 32) cube, and the reduce emits the
    mean-over-t checksum, a transposed-slice checksum (axis order
    (y, t, x)) and a windowed-view sum — the datacube shapes users run
    against the reference's multidim core, distributed (rows-only gate;
    MDArray op exactness is pinned by tests/test_mdim_mosaic.py)."""
    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.mdim import MDArray

    d = corpus_for_sf(sf_dir)

    def prep(batch: pa.Table) -> pa.Table:
        out = {"stack_id": [], "raster_id": [], "grid": []}
        pix = batch["pixels"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        for i in range(len(pix)):
            rid = batch["raster_id"][i].as_py()
            arr = np.asarray(pix[i], dtype=np.int32).reshape(hs[i], ws[i])
            # GetResampled on the 2-D slice (nearest, pixel-center rules)
            g = MDArray(arr).resampled(32, 32).read()
            out["stack_id"].append(int(rid[3:]) // 4 if rid[3:].isdigit() else 0)
            out["raster_id"].append(rid)
            out["grid"].append(g.astype(np.int32).tobytes())
        return pa.table(
            {
                "stack_id": pa.array(out["stack_id"], pa.int64()),
                "raster_id": pa.array(out["raster_id"], pa.string()),
                "grid": pa.array(out["grid"], pa.binary()),
            }
        )

    prepped = SRC.read_rasters(d).map_batches(prep, batch_format="pyarrow")

    def reduce_cube(part: pd.DataFrame) -> pd.DataFrame:
        rows = {"stack_id": [], "n_layers": [], "mean_cksum": [],
                "txpose_cksum": [], "win_sum": []}
        for sid, g in part.groupby("stack_id", sort=False):
            g = g.sort_values("raster_id")
            cube = MDArray(np.stack(
                [np.frombuffer(b, dtype=np.int32).reshape(32, 32)
                 for b in g["grid"]]
            ))
            mean_t = cube.reduce("mean", axis=0)
            tx = cube.transpose((1, 0, 2))          # (y, t, x)
            mid = tx.view(slice(16, 17)).read()[0]  # y=16 plane -> (t, x)
            win = cube.view(slice(None), slice(8, 24), slice(8, 24))
            rows["stack_id"].append(int(sid))
            rows["n_layers"].append(len(g))
            rows["mean_cksum"].append(checksum_image(mean_t))
            rows["txpose_cksum"].append(checksum_image(mid))
            rows["win_sum"].append(int(win.reduce("sum", axis=0).sum()))
        return pd.DataFrame(
            {
                "stack_id": pd.Series(rows["stack_id"], dtype=np.int64),
                "n_layers": pd.Series(rows["n_layers"], dtype=np.int64),
                "mean_cksum": pd.Series(rows["mean_cksum"], dtype=np.int32),
                "txpose_cksum": pd.Series(rows["txpose_cksum"], dtype=np.int32),
                "win_sum": pd.Series(rows["win_sum"], dtype=np.int64),
            }
        )

    import os

    import pyarrow.parquet as pq_

    n_rasters = pq_.read_metadata(
        os.path.join(d, "rasters.parquet")
    ).num_rows if os.path.isfile(os.path.join(d, "rasters.parquet")) else 64
    buckets = max(1, min(8, n_rasters // 8))
    return bucketed_group_apply(
        prepped, ["stack_id"], reduce_cube, buckets,
        schema=pa.schema(
            [("stack_id", pa.int64()), ("n_layers", pa.int64()),
             ("mean_cksum", pa.int32()), ("txpose_cksum", pa.int32()),
             ("win_sum", pa.int64())]
        ),
    )


def q_mosaic(sf_dir: str, level: int = 8, canvas: int = 64):
    """Corpus-scale VRT mosaic (gdalbuildvrt / frmts/vrt/vrtsources.cpp
    paint order) as a PRODUCTION fused pipeline — the scale-shaped sibling
    of the gate's q_mosaic_lattice: per-image partial canvases are built
    INSIDE the fused read task (decode + nearest-sample onto the target
    tile grid; the payload never enters the object store), then ONE
    bucketed shuffle on the target tile paints partials in image_id order
    with last-wins-on-valid (kernels.mosaic_arrays semantics). Emits one
    row per non-empty target tile: (z, x, y, n_sources, filled_px, cksum).
    Uses the EPSG:3857 placement slice (the 4326 slice is exercised by
    q_warp_4326_images)."""
    import ray.data as rd

    from gdal_ray.geo import mercator as M
    from gdal_ray.io import codec as C
    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.pipelines.corpus_queries import corpus_for_sf
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.stages.geo import _gt_matrix

    d = corpus_for_sf(sf_dir)
    n = 1 << level
    span = 2 * M.ORIGIN_SHIFT / n
    res = span / canvas

    def per_image(batch: pa.Table) -> pa.Table:
        rows = {"tile": [], "image_id": [], "part": []}
        keep = [i for i, s in enumerate(batch["srs"].to_pylist())
                if s == "EPSG:3857"]
        if keep:
            batch2 = batch.take(pa.array(keep))
            gts = _gt_matrix(batch2)
            blobs = batch2["bytes"].to_pylist()
            fmts = batch2["fmt"].to_pylist()
            ids = batch2["image_id"].to_pylist()
            for i in range(len(ids)):
                img = C.decode_image(blobs[i], fmts[i])
                band = img[:, :, 0] if img.ndim == 3 else img
                h, w = band.shape
                x0, px, _, y0, _, npy = gts[i]
                py = -npy
                minx, maxx = x0, x0 + px * w
                miny, maxy = y0 - py * h, y0
                tx0 = int(np.floor((minx + M.ORIGIN_SHIFT) / span))
                tx1 = int(np.floor((maxx + M.ORIGIN_SHIFT) / span))
                ty0 = int(np.floor((miny + M.ORIGIN_SHIFT) / span))
                ty1 = int(np.floor((maxy + M.ORIGIN_SHIFT) / span))
                for ty in range(max(ty0, 0), min(ty1, n - 1) + 1):
                    for tx in range(max(tx0, 0), min(tx1, n - 1) + 1):
                        bx0 = tx * span - M.ORIGIN_SHIFT
                        by0 = ty * span - M.ORIGIN_SHIFT
                        # target pixel centers inside this tile
                        gx = bx0 + (np.arange(canvas) + 0.5) * res
                        gy = by0 + (np.arange(canvas) + 0.5) * res
                        sx = np.floor((gx - x0) / px).astype(np.int64)
                        sy = np.floor((y0 - gy) / py).astype(np.int64)
                        okx = (sx >= 0) & (sx < w)
                        oky = (sy >= 0) & (sy < h)
                        if not (okx.any() and oky.any()):
                            continue
                        part = np.zeros((canvas, canvas), dtype=np.int32)
                        iy = np.flatnonzero(oky)
                        ix = np.flatnonzero(okx)
                        part[np.ix_(iy, ix)] = band[
                            np.ix_(sy[iy], sx[ix])
                        ].astype(np.int32)
                        if not part.any():
                            continue
                        rows["tile"].append((ty << 32) | tx)
                        rows["image_id"].append(ids[i])
                        rows["part"].append(part.tobytes())
        return pa.table(
            {
                "tile": pa.array(rows["tile"], pa.int64()),
                "image_id": pa.array(rows["image_id"], pa.string()),
                "part": pa.array(rows["part"], pa.binary()),
            }
        )

    partials = fused_image_apply(
        d, per_image, columns=["image_id", "bytes", "fmt"], with_placements=True
    )

    def paint(part_df: pd.DataFrame) -> pd.DataFrame:
        rows = {"z": [], "x": [], "y": [], "n_sources": [], "filled_px": [],
                "cksum": []}
        for tile, g in part_df.groupby("tile", sort=False):
            g = g.sort_values("image_id", kind="mergesort")
            out = np.zeros((canvas, canvas), dtype=np.int32)
            for b in g["part"]:
                src = np.frombuffer(b, dtype=np.int32).reshape(canvas, canvas)
                m = src != 0
                out[m] = src[m]
            rows["z"].append(level)
            rows["x"].append(int(tile) & 0xFFFFFFFF)
            rows["y"].append(int(tile) >> 32)
            rows["n_sources"].append(len(g))
            rows["filled_px"].append(int((out != 0).sum()))
            rows["cksum"].append(checksum_image(out))
        return pd.DataFrame(
            {
                "z": pd.Series(rows["z"], dtype=np.int32),
                "x": pd.Series(rows["x"], dtype=np.int64),
                "y": pd.Series(rows["y"], dtype=np.int64),
                "n_sources": pd.Series(rows["n_sources"], dtype=np.int64),
                "filled_px": pd.Series(rows["filled_px"], dtype=np.int64),
                "cksum": pd.Series(rows["cksum"], dtype=np.int32),
            }
        )

    return bucketed_group_apply(
        partials, ["tile"], paint, 16,
        schema=pa.schema(
            [("z", pa.int32()), ("x", pa.int64()), ("y", pa.int64()),
             ("n_sources", pa.int64()), ("filled_px", pa.int64()),
             ("cksum", pa.int32())]
        ),
    )


def q_rat(sf_dir: str):
    """Raster attribute table (gcore/gdal_rat.cpp semantics): one row per
    (raster, pixel value) with count + share — the categorical-raster
    attribute table as a distributed aggregate (rows-only gate)."""
    d = corpus_for_sf(sf_dir)

    def per_raster(batch: pa.Table) -> pa.Table:
        rows = {"raster_id": [], "value": [], "n_pixels": [], "share": []}
        pix = batch["pixels"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        for i in range(len(pix)):
            arr = np.asarray(pix[i], dtype=np.int64)
            vals, counts = np.unique(arr, return_counts=True)
            n = arr.size
            for v, c in zip(vals, counts):
                rows["raster_id"].append(batch["raster_id"][i].as_py())
                rows["value"].append(int(v))
                rows["n_pixels"].append(int(c))
                rows["share"].append(round(float(c) / n, 6))
        return pa.table(
            {
                "raster_id": pa.array(rows["raster_id"], pa.string()),
                "value": pa.array(rows["value"], pa.int64()),
                "n_pixels": pa.array(rows["n_pixels"], pa.int64()),
                "share": pa.array(rows["share"], pa.float64()),
            }
        )

    return SRC.read_rasters(d).map_batches(per_raster, batch_format="pyarrow")


def q_stack_median(sf_dir: str):
    """Minimal multidim/datacube op (gcore/gdal_priv.h MDArray shape):
    rasters resample to a common 32x32 grid, stack in groups of 4 (sorted
    raster_id order) and reduce per-pixel MEDIAN across the stack — the
    temporal-composite pattern; emits per-group checksum (rows-only)."""
    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import resample_nearest

    d = corpus_for_sf(sf_dir)

    def hashlib_stable(s: str) -> int:
        import zlib

        return zlib.crc32(s.encode()) % 64

    def prep(batch: pa.Table) -> pa.Table:
        out = {"stack_id": [], "raster_id": [], "grid": []}
        pix = batch["pixels"].to_pylist()
        ws = batch["w"].to_pylist()
        hs = batch["h"].to_pylist()
        for i in range(len(pix)):
            rid = batch["raster_id"][i].as_py()
            arr = np.asarray(pix[i], dtype=np.int32).reshape(hs[i], ws[i])
            g = resample_nearest(arr, 32, 32)
            out["stack_id"].append(
                int(rid[3:]) // 4 if rid[3:].isdigit() else int(hashlib_stable(rid))
            )
            out["raster_id"].append(rid)
            out["grid"].append(g.astype(np.int32).tobytes())
        return pa.table(
            {
                "stack_id": pa.array(out["stack_id"], pa.int64()),
                "raster_id": pa.array(out["raster_id"], pa.string()),
                "grid": pa.array(out["grid"], pa.binary()),
            }
        )

    prepped = SRC.read_rasters(d).map_batches(prep, batch_format="pyarrow")

    def reduce_stack(part: pd.DataFrame) -> pd.DataFrame:
        rows = {"stack_id": [], "n_layers": [], "median_cksum": []}
        for sid, g in part.groupby("stack_id", sort=False):
            g = g.sort_values("raster_id")
            stack = np.stack(
                [np.frombuffer(b, dtype=np.int32).reshape(32, 32) for b in g["grid"]]
            )
            med = np.median(stack, axis=0)
            rows["stack_id"].append(int(sid))
            rows["n_layers"].append(len(g))
            rows["median_cksum"].append(checksum_image(med))
        return pd.DataFrame(rows)

    # bucket count scaled to the stack count so no sort range is empty at
    # tiny SF (an empty range's 0-row output block is DROPPED by Ray's
    # BlockOutputBuffer, leaving a schema-less bundle the executor warns
    # about — no output schema= can reach a block that never exists)
    import os

    import pyarrow.parquet as pq_

    n_rasters = pq_.read_metadata(
        os.path.join(d, "rasters.parquet")
    ).num_rows if os.path.isfile(os.path.join(d, "rasters.parquet")) else 64
    buckets = max(1, min(8, n_rasters // 8))
    return bucketed_group_apply(
        prepped, ["stack_id"], reduce_stack, buckets,
        schema=pa.schema([("stack_id", pa.int64()), ("n_layers", pa.int64()),
                          ("median_cksum", pa.int64())]),
    )


def q_sim_pq(sf_dir: str):
    """Product-quantization approximate cosine top-5 over embeddings
    (stages/simsearch.topk_cosine_pq, Jegou et al. 2011): uint8 codes +
    broadcast ADC lookup tables shortlist per batch, exact-cosine refine
    before the global reduce. Rows-only under the gate; recall + exact-
    refine bounds pinned in tests/test_simsearch_pq.py."""
    import os

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from gdal_ray.stages.simsearch import topk_cosine_pq

    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    qt = qt.filter(pc.less(qt["vec_id"], 8)).sort_by("vec_id")
    queries = np.stack(
        [np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()]
    )
    qids = np.asarray(qt["vec_id"])
    ds = _rpt(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    top = topk_cosine_pq(ds, queries, k=5, m_sub=8, shortlist=8)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch["query_id"] = qids[batch["query_idx"].to_numpy()]
        return batch[["query_id", "rank", "vec_id"]]

    return top.map_batches(finish, batch_format="pandas")


def q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) over the embeddings table: k-means
    clusters (seeded driver fit), ONE bucketed cluster shuffle, duplicate
    components at cosine > 0.45 (the table's established near-dup
    threshold), keep per component the lowest-centroid-sim item. Rows-only
    under the gate (k-means is not SQL-expressible); the exact
    single-process replica is pinned in tests/test_semdedup.py."""
    import os

    from gdal_ray.stages.simsearch import semdedup

    ds = _rpt(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    return semdedup(ds, threshold=0.45).sort("vec_id")
