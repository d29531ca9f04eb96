"""Tile-pyramid pipeline: render base tiles, build overviews, resume.

The Ray-Data shape of gdal2tiles (reference
``swig/python/gdal-utils/osgeo_utils/gdal2tiles.py``):

- base zoom (``generate_base_tiles:2795``): each image renders its PARTIAL
  view of every tile it covers (per-image `map_batches`, nearest-neighbor
  inverse-affine sampling — the GRIORA_NearestNeighbour default), then a
  ``groupby(z, x, y)`` composes partials in image_id order (deterministic
  under any parallelism — SURVEY.md §2.10);
- overview zooms (``create_overview_tile:1471``): iterative
  ``groupby(parent)`` composing <=4 children with 2x2 average downsampling
  (``gcore/overview.cpp`` average kernel);
- resume: instead of per-file ``isfile()`` probes (gdal2tiles.py:2846-2848)
  a partition manifest records (lineage, rows, cell histogram) per tile
  GROUP; rerunning with the same inputs anti-joins the plan against the
  manifest and renders only missing groups. Output partitions are written
  atomically (temp dir + rename).

Tile payloads are PNG bytes in parquet rows keyed (z, x, y) — the tabular
equivalent of the z/x/y.png directory tree (a filesystem exporter is a
trivial `iter_batches` consumer).
"""

from __future__ import annotations

import os
import pathlib
import shutil
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.config import IMAGE_BATCH
from gdal_ray.geo.mercator import TILE_SIZE
from gdal_ray.geo import affine as A
from gdal_ray.geo import mercator as M
from gdal_ray.io import codec as C
from gdal_ray.state.manifest import Manifest, fragment_lineage

__all__ = ["render_partial_tiles", "compose_tiles", "build_overview", "tile_pyramid", "export_tile_tree"]

GROUP = 16  # tile-group edge (in tiles) = resume partition granularity

# composed-tile row schema (also the typed-empty form for idle partitions)
TILE_SCHEMA = pa.schema(
    [("z", pa.int64()), ("x", pa.int64()), ("y", pa.int64()),
     ("png", pa.binary()), ("n_sources", pa.int64())]
)


def _render_one(img: np.ndarray, gt, srs: str, z: int, tx: int, ty_tms: int):
    """Nearest-neighbor sample of one image into one 256x256 tile.

    Returns (tile_rgb uint8, mask bool) or None if no pixel lands inside.
    """
    inv = A.invert_geotransform(gt)
    if inv is None:
        return None
    minx, miny, maxx, maxy = M.tile_bounds(tx, ty_tms, z)
    res = (maxx - minx) / TILE_SIZE
    # pixel-center sample grid in meters (row 0 = north/top of tile)
    xs = minx + (np.arange(TILE_SIZE) + 0.5) * res
    ys = maxy - (np.arange(TILE_SIZE) + 0.5) * res
    gx, gy = np.meshgrid(xs, ys)
    if srs == "EPSG:4326":
        lat, lon = M.meters_to_latlon(gx, gy)
        gx, gy = lon, lat
    px, py = A.apply_geotransform(inv, gx, gy)
    ix = np.floor(px).astype(np.int64)
    iy = np.floor(py).astype(np.int64)
    h, w = img.shape[:2]
    ok = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
    if not ok.any():
        return None
    tile = np.zeros((TILE_SIZE, TILE_SIZE, 3), dtype=np.uint8)
    tile[ok] = img[iy[ok], ix[ok], :3]
    return tile, ok


def render_partial_tiles(batch: pa.Table, z: int) -> pa.Table:
    """images⋈placements batch -> per-(image, tile) partial renders.

    Emits (z, x, y, image_id, partial, mask) rows; ``partial``/``mask`` are
    raw little buffers (256*256*3 u8 / packed bits) composed downstream.
    """
    from gdal_ray.stages.geo import _gt_matrix

    gts = _gt_matrix(batch)
    blobs = batch["bytes"].to_pylist()
    fmts = batch["fmt"].to_pylist()
    srss = batch["srs"].to_pylist()
    ids = batch["image_id"].to_pylist()
    minx = np.asarray(batch["minx"])
    miny = np.asarray(batch["miny"])
    maxx = np.asarray(batch["maxx"])
    maxy = np.asarray(batch["maxy"])

    n = np.int64(1) << np.int64(z)
    out = {"z": [], "x": [], "y": [], "image_id": [], "partial": [], "mask": []}
    for i in range(len(ids)):
        img = C.decode_image(blobs[i], fmts[i])
        tx0, ty0 = M.meters_to_tile(minx[i], miny[i], z)
        tx1, ty1 = M.meters_to_tile(maxx[i], maxy[i], z)
        tx0 = int(np.clip(tx0, 0, n - 1))
        tx1 = int(np.clip(tx1, 0, n - 1))
        ty0 = int(np.clip(ty0, 0, n - 1))
        ty1 = int(np.clip(ty1, 0, n - 1))
        for tx in range(tx0, tx1 + 1):
            for ty in range(ty0, ty1 + 1):
                r = _render_one(img, gts[i], srss[i], z, tx, ty)
                if r is None:
                    continue
                tile, ok = r
                out["z"].append(z)
                out["x"].append(tx)
                out["y"].append(int(M.tms_to_xyz(np.int64(ty), z)))
                out["image_id"].append(ids[i])
                # zlib-1 before the compose shuffle: partials are mostly
                # zeros (sparse coverage), so this cuts the sort's payload
                # ~10x for ~2 ms/partial (the only all-to-all in the
                # pyramid moves compressed bytes, not raw 196 KB buffers)
                out["partial"].append(zlib.compress(tile.tobytes(), 1))
                out["mask"].append(zlib.compress(np.packbits(ok).tobytes(), 1))
    return pa.table(
        {
            "z": pa.array(out["z"], pa.int32()),
            "x": pa.array(out["x"], pa.int64()),
            "y": pa.array(out["y"], pa.int64()),
            "image_id": pa.array(out["image_id"], pa.string()),
            "partial": pa.array(out["partial"], pa.binary()),
            "mask": pa.array(out["mask"], pa.binary()),
        }
    )


def _compose_group(part: pd.DataFrame) -> pd.DataFrame:
    """All partials of a hash-bucket of tiles -> composed PNG tile rows."""
    rows = {"z": [], "x": [], "y": [], "png": [], "n_sources": []}
    for (z, x, y), g in part.groupby(["z", "x", "y"], sort=False):
        g = g.sort_values("image_id")  # deterministic paint order
        partials = g["partial"].to_numpy()
        masks = g["mask"].to_numpy()
        tile = np.zeros((TILE_SIZE, TILE_SIZE, 3), dtype=np.uint8)
        for i in range(len(partials)):
            partial = np.frombuffer(zlib.decompress(partials[i]), dtype=np.uint8).reshape(
                TILE_SIZE, TILE_SIZE, 3
            )
            ok = np.unpackbits(np.frombuffer(zlib.decompress(masks[i]), dtype=np.uint8))[
                : TILE_SIZE * TILE_SIZE
            ]
            ok = ok.reshape(TILE_SIZE, TILE_SIZE).astype(bool)
            tile[ok] = partial[ok]
        rows["z"].append(int(z))
        rows["x"].append(int(x))
        rows["y"].append(int(y))
        rows["png"].append(C.encode_png(tile))
        rows["n_sources"].append(len(g))
    return pd.DataFrame(rows)


def compose_tiles(partials_ds):
    from gdal_ray.ops.shuffle import bucketed_group_apply

    return bucketed_group_apply(partials_ds, ["z", "x", "y"], _compose_group, 64, schema=TILE_SCHEMA)


def _downsample_group(part: pd.DataFrame) -> pd.DataFrame:
    """Children tiles (z) -> parent tiles (z-1); 2x2 average (overview.cpp
    average kernel on the 2x-decimated grid)."""
    rows = {"z": [], "x": [], "y": [], "png": [], "n_sources": []}
    for (pz, px_, py_), g in part.groupby(["pz", "px", "py"], sort=False):
        canvas = np.zeros((2 * TILE_SIZE, 2 * TILE_SIZE, 3), dtype=np.uint8)
        pngs = g["png"].to_numpy()
        xs = g["x"].to_numpy()
        ys = g["y"].to_numpy()
        for i in range(len(pngs)):
            child = C.decode_png(pngs[i])[:, :, :3]
            dx = (int(xs[i]) - 2 * int(px_)) * TILE_SIZE
            dy = (int(ys[i]) - 2 * int(py_)) * TILE_SIZE
            canvas[dy : dy + TILE_SIZE, dx : dx + TILE_SIZE] = child
        # 2x2 average via four strided adds (uint16 cannot overflow: 4*255);
        # ~9x faster than reshape+sum(axis=(1,3)), bit-identical result
        c16 = canvas.astype(np.uint16)
        small = (
            (c16[0::2, 0::2] + c16[1::2, 0::2] + c16[0::2, 1::2] + c16[1::2, 1::2]) // 4
        ).astype(np.uint8)
        rows["z"].append(int(pz))
        rows["x"].append(int(px_))
        rows["y"].append(int(py_))
        rows["png"].append(C.encode_png(small))
        rows["n_sources"].append(len(g))
    return pd.DataFrame(rows)


def build_overview(tiles_ds):
    """One zoom step: tiles at z -> composed tiles at z-1."""
    from gdal_ray.ops.shuffle import bucketed_group_apply

    def parent_cols(batch: pa.Table) -> pa.Table:
        z = np.asarray(batch["z"])
        return (
            batch.append_column("pz", pa.array((z - 1).astype(np.int32)))
            .append_column("px", pa.array(np.asarray(batch["x"]) // 2))
            .append_column("py", pa.array(np.asarray(batch["y"]) // 2))
        )

    withp = tiles_ds.map_batches(parent_cols, batch_format="pyarrow")
    return bucketed_group_apply(withp, ["pz", "px", "py"], _downsample_group, 32, schema=TILE_SCHEMA)


def tile_pyramid(corpus_dir: str, out_dir: str, z_base: int = 6, z_min: int = 4):
    """Resumable pyramid build. Returns summary dict.

    Resume granularity = GROUP x GROUP tile blocks at z_base (partition id
    ``z{z}_gx{gx}_gy{gy}``). On rerun with unchanged inputs, images whose
    ENTIRE tile-group cover is already in the manifest are dropped before
    decode/render (the expensive stages); stragglers overlapping both done
    and pending groups are re-rendered but only pending groups are written.
    Every group parquet is written atomically (temp dir + rename).
    """
    import pyarrow.parquet as pq
    import ray.data as rd

    from gdal_ray.pipelines.flagship import placed_images
    from gdal_ray.ops.shuffle import bucketed_group_apply

    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(out_dir)
    lineage = fragment_lineage(
        [os.path.join(corpus_dir, "images.parquet"), os.path.join(corpus_dir, "placements.parquet")]
    )
    done = {r["partition_id"] for r in manifest.records() if r.get("lineage") == lineage}

    placed = placed_images(corpus_dir, decode=False)

    def groups_of_bbox(batch: pa.Table) -> pa.Table:
        """Per-image pending flag: any covered tile group not yet done?"""
        n = np.int64(1) << np.int64(z_base)
        tx0, ty0 = M.meters_to_tile(np.asarray(batch["minx"]), np.asarray(batch["miny"]), z_base)
        tx1, ty1 = M.meters_to_tile(np.asarray(batch["maxx"]), np.asarray(batch["maxy"]), z_base)
        tx0 = np.clip(tx0, 0, n - 1); tx1 = np.clip(tx1, 0, n - 1)
        ty0 = np.clip(ty0, 0, n - 1); ty1 = np.clip(ty1, 0, n - 1)
        keep = []
        for i in range(len(tx0)):
            pending = False
            for tx in range(int(tx0[i]) // GROUP, int(tx1[i]) // GROUP + 1):
                if pending:
                    break
                y_hi = int(M.tms_to_xyz(ty0[i], z_base))
                y_lo = int(M.tms_to_xyz(ty1[i], z_base))
                for gy in range(y_lo // GROUP, y_hi // GROUP + 1):
                    if f"z{z_base}_gx{tx}_gy{gy}" not in done:
                        pending = True
                        break
            keep.append(pending)
        return batch.filter(pa.array(keep, pa.bool_()))

    pending_placed = placed.map_batches(groups_of_bbox, batch_format="pyarrow") if done else placed
    n_pending_images = pending_placed.count() if done else None
    composed = None
    if n_pending_images != 0:
        # the payload is read inside the fused source's tasks (it never
        # shuffles); the pending filter drops done-group images BEFORE the
        # expensive render
        from gdal_ray.pipelines.flagship import fused_image_apply
        from gdal_ray.stages import geo as G

        def payload(t: pa.Table) -> pa.Table:
            t = G.add_bbox_meters(t)
            return groups_of_bbox(t) if done else t

        placed_b = fused_image_apply(corpus_dir, payload)
        partials = placed_b.map_batches(
            render_partial_tiles, fn_kwargs={"z": z_base}, batch_format="pyarrow", batch_size=IMAGE_BATCH
        )
        composed = compose_tiles(partials)

    def add_pid(batch: pa.Table) -> pa.Table:
        z = np.asarray(batch["z"])
        gx = np.asarray(batch["x"]) // GROUP
        gy = np.asarray(batch["y"]) // GROUP
        pid = [f"z{z[i]}_gx{gx[i]}_gy{gy[i]}" for i in range(len(z))]
        return batch.append_column("pid", pa.array(pid, pa.string()))

    LEVEL_SCHEMA = TILE_SCHEMA.append(pa.field("pid", pa.string()))

    def make_writer(done_set):
        def write_partition(part: pd.DataFrame) -> pd.DataFrame:
            # bucketed on pid -> every pid wholly inside ONE call (no race).
            # Returns the written tile ROWS (pid kept) so the level can be
            # handed to the next zoom without a per-level disk re-read.
            keep = []
            if len(part) == 0:
                return part
            for pid, g in part.groupby("pid", sort=False):
                if pid in done_set:
                    continue  # straggler overlap: group already complete
                g = g.sort_values(["z", "x", "y"])
                pdir = out / pid
                tmp = out / (pid + ".tmp")
                if tmp.exists():
                    shutil.rmtree(tmp)
                tmp.mkdir(parents=True)
                t = pa.Table.from_pandas(g.drop(columns=["pid"]), preserve_index=False)
                pq.write_table(t, tmp / "tiles.parquet")
                if pdir.exists():
                    shutil.rmtree(pdir)
                tmp.rename(pdir)
                keep.append(g)
            return pd.concat(keep, ignore_index=True) if keep else part.iloc[0:0]

        return write_partition

    def mark_level(mat) -> int:
        """Manifest-mark every pid in a materialized written level; returns
        total rows. Pulls ONLY the pid column to the driver."""
        counts = mat.select_columns(["pid"]).to_pandas()["pid"].value_counts()
        for pid, n in counts.items():
            manifest.mark(pid, lineage, int(n))
        return int(counts.sum())

    def write_level(tiles_ds, done_set):
        """Bucketed, manifest-tracked, atomic group writes for ONE zoom
        level. Returns the MATERIALIZED level (tiles + pid): the blocks stay
        in the object store (spill-backed) and feed the next zoom directly —
        the parquet files exist purely as the resume checkpoint."""
        withpid = tiles_ds.map_batches(add_pid, batch_format="pyarrow")
        mat = bucketed_group_apply(
            withpid, ["pid"], make_writer(done_set), 32, schema=LEVEL_SCHEMA
        ).materialize()
        return mat, mark_level(mat)

    n_written = 0
    cur = None  # materialized tiles of the level just written (incl. pid)
    if composed is not None:
        cur, wrote = write_level(composed, done)
        n_written += wrote

    # overview zooms: 2x2-average composition of child tiles
    # (gdal2tiles.py:1471 create_overview_tile). Downsample + atomic group
    # write fuse into ONE bucketed pass keyed by the PARENT tile group;
    # already-done parent groups are skipped before any decode. Fresh runs
    # chain level-to-level in the object store (no disk re-read, no
    # per-level glob); the disk path is read only on RESUME, and only for
    # groups the in-memory chain is missing.
    def overview_writer(done_set):
        def fn(part: pd.DataFrame) -> pd.DataFrame:
            keep = []
            for pid, g in part.groupby("ppid", sort=False):
                if pid in done_set:
                    continue
                parents = _downsample_group(g).sort_values(["z", "x", "y"])
                pdir = out / pid
                tmp = out / (pid + ".tmp")
                if tmp.exists():
                    shutil.rmtree(tmp)
                tmp.mkdir(parents=True)
                pq.write_table(pa.Table.from_pandas(parents, preserve_index=False), tmp / "tiles.parquet")
                if pdir.exists():
                    shutil.rmtree(pdir)
                tmp.rename(pdir)
                parents["pid"] = pid
                keep.append(parents)
            if keep:
                return pd.concat(keep, ignore_index=True)
            return pd.DataFrame({f.name: pd.Series(dtype=object) for f in LEVEL_SCHEMA})

        return fn

    for z in range(z_base, z_min, -1):
        done_now = {
            r["partition_id"] for r in manifest.records() if r.get("lineage") == lineage
        }
        disk_pids = sorted(p for p in done_now if p.startswith(f"z{z}_"))
        if not disk_pids:
            break
        mem_pids = set()
        if cur is not None:
            mem_pids = set(cur.select_columns(["pid"]).to_pandas()["pid"].unique())
        missing = set(disk_pids) - mem_pids
        # all parent groups already done (same lineage)? skip without reading
        parent_pids = {
            f"z{z - 1}_gx{int(p.split('_gx')[1].split('_gy')[0]) // 2}"
            f"_gy{int(p.split('_gy')[1]) // 2}"
            for p in disk_pids
        }
        if parent_pids <= done_now:
            cur = None  # tiles for z-1 live on disk; reload there if needed
            continue
        if cur is None or missing:
            # resume path: the in-memory chain lacks previously-done groups
            child_files = [str(out / p / "tiles.parquet") for p in disk_pids]
            children = rd.read_parquet(child_files)
        else:
            children = cur.drop_columns(["pid"])

        def add_parent_keys(batch: pa.Table, zz=z) -> pa.Table:
            px = np.asarray(batch["x"]) // 2
            py = np.asarray(batch["y"]) // 2
            ppid = [
                f"z{zz - 1}_gx{px[i] // GROUP}_gy{py[i] // GROUP}"
                for i in range(len(px))
            ]
            return (
                batch.append_column("pz", pa.array(np.full(len(px), zz - 1, dtype=np.int64)))
                .append_column("px", pa.array(px))
                .append_column("py", pa.array(py))
                .append_column("ppid", pa.array(ppid, pa.string()))
            )

        withp = children.map_batches(add_parent_keys, batch_format="pyarrow")
        cur = bucketed_group_apply(
            withp, ["ppid"], overview_writer(done_now), 8, schema=LEVEL_SCHEMA
        ).materialize()
        n_written += mark_level(cur)

    n_tiles = {}
    for r in manifest.records():
        if r.get("lineage") != lineage:
            continue
        zz = int(r["partition_id"].split("_")[0][1:])
        n_tiles[zz] = n_tiles.get(zz, 0) + int(r["n_rows"])
    return {
        "n_tiles": n_tiles,
        "n_written": n_written,
        "skipped_partitions": len(done),
        "lineage": lineage,
    }


def export_tile_tree(pyramid_dir: str, out_dir: str, xyz: bool = True) -> dict:
    """Materialize the parquet tile pyramid as a z/x/y.png directory tree.

    The filesystem sink of gdal2tiles (``gdal2tiles.py:2795`` base-tile
    writes + ``generate_metadata:2670``): one PNG per (z, x, y) row plus a
    ``tilemapresource.xml``. ``xyz=True`` writes the XYZ y convention (the
    table's native keying, gdal2tiles --xyz); ``xyz=False`` flips to TMS
    (``getYTile`` y-flip). Files are written by parallel map_batches tasks
    (each task owns its rows, paths are unique per (z, x, y), writes are
    tmp+rename atomic), so the export streams at any scale; existing files
    are skipped (gdal2tiles --resume semantics).
    """
    import ray.data as rd

    src_files = sorted(str(p) for p in pathlib.Path(pyramid_dir).glob("z*/tiles.parquet"))
    if not src_files:
        raise ValueError(f"no tile groups under {pyramid_dir!r}")
    root = pathlib.Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    def write_files(batch: pa.Table) -> pa.Table:
        zs = np.asarray(batch["z"])
        xs = np.asarray(batch["x"])
        ys = np.asarray(batch["y"])
        blobs = batch["png"].to_pylist()
        n_written = 0
        n_skipped = 0
        for i in range(len(zs)):
            z, x, y = int(zs[i]), int(xs[i]), int(ys[i])
            if not xyz:
                y = (1 << z) - 1 - y
            d = root / str(z) / str(x)
            d.mkdir(parents=True, exist_ok=True)
            f = d / f"{y}.png"
            if f.exists():
                n_skipped += 1
                continue
            tmp = d / f".{y}.png.tmp"
            tmp.write_bytes(blobs[i])
            tmp.rename(f)
            n_written += 1
        return pa.table(
            {
                "z": pa.array([int(zs.min()) if len(zs) else 0], pa.int64()),
                "n_written": pa.array([n_written], pa.int64()),
                "n_skipped": pa.array([n_skipped], pa.int64()),
            }
        )

    summ = (
        rd.read_parquet(src_files)
        .map_batches(write_files, batch_format="pyarrow", batch_size=256)
        .to_pandas()
    )
    n_written = int(summ["n_written"].sum())
    n_skipped = int(summ["n_skipped"].sum())

    # TMS metadata (gdal2tiles generate_metadata:2670 layout)
    zooms = sorted(
        int(p.name) for p in root.iterdir() if p.is_dir() and p.name.isdigit()
    )
    units_pp = [2 * np.pi * 6378137 / TILE_SIZE / (1 << z) for z in zooms]
    tilesets = "\n".join(
        f'      <TileSet href="{z}" units-per-pixel="{u:.8f}" order="{z}"/>'
        for z, u in zip(zooms, units_pp)
    )
    osh = np.pi * 6378137
    (root / "tilemapresource.xml").write_text(
        f"""<?xml version="1.0" encoding="utf-8"?>
<TileMap version="1.0.0" tilemapservice="http://tms.osgeo.org/1.0.0">
  <Title>gdal_ray tile pyramid</Title>
  <SRS>EPSG:3857</SRS>
  <BoundingBox minx="{-osh}" miny="{-osh}" maxx="{osh}" maxy="{osh}"/>
  <Origin x="{-osh}" y="{-osh}"/>
  <TileFormat width="{TILE_SIZE}" height="{TILE_SIZE}" mime-type="image/png" extension="png"/>
  <TileSets profile="mercator">
{tilesets}
  </TileSets>
</TileMap>
"""
    )
    return {"n_written": n_written, "n_skipped": n_skipped, "zooms": zooms, "xyz": xyz}
