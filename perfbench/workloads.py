"""The benchmark's workloads: one job each, its output check and the
reference the check compares against.

Jobs call the engine's public pipeline functions and return their output
to the driver. References come from the corpus generator's independent
scalar oracles (``oracle_tiles``, ``oracle_pip``, ``oracle_knn``), read
once per seed outside any timed region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Base zoom and lowest zoom of the tile pyramid that decode_flagship's traced
# run builds (too slow at 2 Ray CPUs to be a timed workload of its own).
TILE_Z_BASE = 5
TILE_Z_MIN = 4


@dataclass
class Reference:
    """Expected outputs for one corpus, from the generator's oracles."""

    tiles: set
    pip_images: set
    pip_all: set
    knn: dict  # (query_id, rank) -> (image_id, dist)
    tile_cover_base: set  # (x, y) oracle tiles at TILE_Z_BASE


def load_reference(corpus: str) -> Reference:
    tiles = pq.read_table(os.path.join(corpus, "oracle_tiles.parquet")).to_pydict()
    tile_rows = set(zip(tiles["image_id"], tiles["z"], tiles["x"], tiles["y"]))
    pip = pq.read_table(os.path.join(corpus, "oracle_pip.parquet")).to_pydict()
    pip_all = set(zip(pip["src_id"], pip["poly_id"]))
    knn = pq.read_table(os.path.join(corpus, "oracle_knn.parquet")).to_pydict()
    return Reference(
        tiles=tile_rows,
        pip_images={r for r in pip_all if r[0].startswith("img")},
        pip_all=pip_all,
        knn={(q, r): (i, d) for q, r, i, d in zip(knn["query_id"], knn["rank"], knn["image_id"], knn["dist"])},
        tile_cover_base={(x, y) for _, z, x, y in tile_rows if z == TILE_Z_BASE},
    )


def collect(ds) -> pa.Table:
    """Stream a Dataset's output to the driver as one Arrow table."""
    parts = [b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None) if b.num_rows]
    if not parts:
        return pa.table({})
    return pa.concat_tables(parts, promote_options="default")


def _rows(table: pa.Table, cols) -> list:
    if table.num_rows == 0:
        return []
    return list(zip(*(table[c].to_pylist() for c in cols)))


def _compare(what: str, got_rows: list, want: set) -> str | None:
    got = set(got_rows)
    if len(got_rows) != len(got):
        return f"{what}: {len(got_rows) - len(got)} duplicate rows"
    if got != want:
        return f"{what}: {len(got - want)} unexpected and {len(want - got)} missing rows"
    return None


def check_tiles(table: pa.Table, ref: Reference, id_col: str = "image_id") -> str | None:
    return _compare("tile rows", _rows(table, [id_col, "z", "x", "y"]), ref.tiles)


def check_pip(table: pa.Table, want: set) -> str | None:
    return _compare("pip rows", _rows(table, ["src_id", "poly_id"]), want)


def check_knn(table: pa.Table, ref: Reference) -> str | None:
    rows = _rows(table, ["query_id", "rank", "image_id", "dist"])
    got = {(q, r): (i, d) for q, r, i, d in rows}
    if len(got) != len(rows) or got.keys() != ref.knn.keys():
        return f"knn rows: {len(rows)} rows for {len(ref.knn)} expected (query, rank) pairs"
    for key, (image_id, dist) in got.items():
        want_id, want_dist = ref.knn[key]
        if image_id != want_id or not np.isclose(dist, want_dist, rtol=1e-9, atol=0.0):
            return f"knn row {key}: got ({image_id}, {dist}), want ({want_id}, {want_dist})"
    return None


def first_problem(*problems) -> str | None:
    return next((p for p in problems if p is not None), None)


# ---------------------------------------------------------------- workloads


def job_decode_flagship(corpus: str):
    from gdal_ray.pipelines import flagship as F

    return collect(F.flagship_single_pass(corpus))


def check_decode_flagship(out: pa.Table, ref: Reference) -> str | None:
    import pyarrow.compute as pc

    return first_problem(
        check_tiles(out.filter(pc.equal(out["kind"], "tile")), ref, id_col="src_id"),
        check_pip(out.filter(pc.equal(out["kind"], "pip")), ref.pip_images),
    )


def job_spatial_broadcast(corpus: str):
    from gdal_ray.pipelines import flagship as F

    return {
        "tiles": collect(F.tile_assignments(F.placed_images(corpus, decode=False))),
        "pip_images": collect(F.pip_join_images(F.placed_images(corpus, decode=False), corpus)),
        "pip_points": collect(F.pip_join_query_points(corpus)),
        "knn": collect(F.knn_images(corpus)),
    }


def check_spatial_broadcast(out: dict, ref: Reference) -> str | None:
    pip = pa.concat_tables([out["pip_images"], out["pip_points"]], promote_options="default")
    return first_problem(
        check_tiles(out["tiles"], ref), check_pip(pip, ref.pip_all), check_knn(out["knn"], ref)
    )


def shuffle_points(corpus: str):
    """Image centroids keyed by cell: the point side of the shuffle plans."""
    from gdal_ray.pipelines import flagship as F

    placed = F.placed_images(corpus, decode=False)
    return placed.select_columns(["image_id", "cx", "cy", "cell"]).rename_columns({"image_id": "src_id"})


# The shuffle plans answer the broadcast plans' questions for inputs too
# large to broadcast. Their job times spread too much between runs at 2 Ray
# CPUs for a timed workload, so spatial_broadcast's traced run times them.


def pip_join_shuffle_job(corpus: str) -> pa.Table:
    """Image centroids against polygons through the cell-keyed shuffle."""
    from gdal_ray.sources import corpus as SRC
    from gdal_ray.stages.pipjoin import pip_join_shuffle

    polys = SRC.read_polygons(corpus, columns=["poly_id", "wkb"])
    return collect(pip_join_shuffle(shuffle_points(corpus), polys))


def knn_shuffle_job(corpus: str) -> pa.Table:
    from gdal_ray.pipelines import flagship as F

    return collect(F.knn_images_shuffle(corpus))


def build_pyramid(corpus: str, scratch: str):
    """One ``tile_pyramid`` build into a fresh directory; (dir, summary)."""
    import tempfile

    from gdal_ray.pipelines.tiling import tile_pyramid

    out_dir = tempfile.mkdtemp(prefix="pyramid-", dir=scratch)
    summary = tile_pyramid(corpus, out_dir, z_base=TILE_Z_BASE, z_min=TILE_Z_MIN)
    return out_dir, summary


def read_pyramid(out_dir: str) -> pa.Table:
    """All tiles of a written pyramid, sorted by (z, x, y)."""
    parts = []
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name, "tiles.parquet")
        if os.path.isfile(path):
            parts.append(pq.read_table(path, columns=["z", "x", "y", "png"]))
    if not parts:
        return pa.table({"z": [], "x": [], "y": [], "png": []})
    t = pa.concat_tables(parts)
    return t.sort_by([("z", "ascending"), ("x", "ascending"), ("y", "ascending")])


_PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


def check_pyramid(out_dir: str, summary: dict, ref: Reference) -> str | None:
    t = read_pyramid(out_dir)
    z = t["z"].to_pylist()
    x = t["x"].to_pylist()
    y = t["y"].to_pylist()
    pngs = t["png"].to_pylist()
    base = {(xx, yy) for zz, xx, yy in zip(z, x, y) if zz == TILE_Z_BASE}
    top = {(xx, yy) for zz, xx, yy in zip(z, x, y) if zz == TILE_Z_MIN}
    if not base:
        return "pyramid has no base tiles"
    if not base <= ref.tile_cover_base:
        return f"{len(base - ref.tile_cover_base)} base tiles outside the oracle tile cover"
    if top != {(xx // 2, yy // 2) for xx, yy in base}:
        return "overview tiles are not the parents of the base tiles"
    if len(base) + len(top) != len(z):
        return "duplicate or unexpected-zoom tiles"
    if summary.get("n_written") != len(z):
        return f"summary says {summary.get('n_written')} tiles written, found {len(z)}"
    for png in pngs:
        # signature, then IHDR width and height (big-endian) must be 256
        if png[:8] != _PNG_MAGIC or png[16:24] != b"\x00\x00\x01\x00\x00\x00\x01\x00":
            return "a tile is not a 256x256 PNG"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    job: Callable[[str], Any]
    check: Callable[[Any, Reference], str | None]
    min_jobs: int  # per run, so the job median has enough samples


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decode_flagship",
            "the paper's headline pipeline; codecs do most of the CPU work, spatial stages under 1%",
            job_decode_flagship,
            check_decode_flagship,
            min_jobs=9,
        ),
        Workload(
            "spatial_broadcast",
            "tile assignment, broadcast PIP and kNN with no decode: geo kernels and metadata reads only",
            job_spatial_broadcast,
            check_spatial_broadcast,
            min_jobs=12,
        ),
    )
}
