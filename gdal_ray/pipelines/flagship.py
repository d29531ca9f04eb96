"""Flagship end-to-end pipeline: decode + cell encode + PIP join + tile assign.

This is the BASELINE.json headline metric pipeline (images/sec end-to-end)
re-expressed Ray-Data-first. The images and query_points tables are read
through ONE fused source, ``fused_table_apply(path, kernel)``: each read
task reads a run of consecutive row groups and runs ``kernel`` on each, so
a query runs ``FromItems -> one fused map`` and only kernel output enters
the object store. ``fused_image_apply(corpus, kernel)`` is that source over
the images, each row group first given the placement columns of its
like-named placements shard (``_take_placements``, worker-cached), so the
raw image payload never leaves the task. ``_query_points(corpus, columns,
kernel)`` is it over query_points: the projection to EPSG:3857 and the
broadcast PIP or kNN kernel run in the read task. Every read runs one task
per Ray CPU (``min(row groups, cluster_cpus())`` groups, ``_task_bounds``),
so no task waits for a second scheduling round: Ray Data 2.49's loop wakes
only when every active task is ready or after 100 ms
(``ray/data/_internal/execution/streaming_executor_state.py:499-504``).
Each task yields its row groups' kernel outputs, which Ray merges into
blocks of up to the source's own ``target_max_block_size``, the largest row
group's read bytes (``ray/data/_internal/output_buffer.py:77-91``; see
``fused_table_apply``). The broadcast indexes (polygon cells, kNN
centroids) are put once per Ray session and corpus (``_broadcast_ref``).
``placed_images`` is ``fused_image_apply`` with the decode-stats + geo kernel
(``decode=True``) or the geo kernel alone over (image_id, w, h).
``decoded_places`` is the headline's source: its kernel decodes every
payload (the decode is part of the measured job and fails it on a corrupt
payload) but computes none of the per-image stats the headline drops. The
headline path (``flagship_single_pass``) adds no shuffle and no
mid-pipeline materialization:

    row-group read ─▶ placements merge ─▶ kernel (decode payloads, geo columns,
      explode_tiles  +  pip_join_batch(broadcast polygon index))
      ─▶ tagged (tile | pip) rows, streamed to the consumer

all in one ``MapBatches(load)`` task per Ray CPU.

The corpus must be co-sharded: its images and placements tables are
like-named part files (``fixtures/generate.py`` writes them so), and
``fused_image_apply`` rejects any other layout. For inputs too large to
broadcast, the spatial questions have a second plan with the same kernels:
stages/pipjoin.pip_join_shuffle (hot cells salted) runs ``PipJoinStage``
per (cell, salt) partition, and ``knn_images_shuffle`` selects through the
same ``topk_rows`` as ``KnnStage``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from gdal_ray.config import CELL_LEVEL, IMAGE_BATCH, TILE_ZOOMS
from gdal_ray.ops.runtime import cluster_cpus, memo
from gdal_ray.sources import corpus as SRC
from gdal_ray.stages import geo as G
from gdal_ray.stages.pipjoin import build_polygon_cell_index, pip_join_batch
from gdal_ray.stages.knn import build_centroid_cell_index, knn_batch

__all__ = [
    "decoded_meta",
    "decoded_places",
    "placed_images",
    "tile_assignments",
    "pip_join_images",
    "knn_images",
]


def decoded_meta(corpus_dir: str) -> rd.Dataset:
    """images -> decoded per-image metrics (bytes dropped), without the
    placements. Decode is stateless, so it runs in a plain task pool."""
    from gdal_ray.stages.decode import decode_stats

    images = SRC.read_images(corpus_dir)
    return images.map_batches(decode_stats, batch_format="pyarrow", batch_size=IMAGE_BATCH)


def _cosharded(corpus_dir: str) -> bool:
    """True when images and placements are like-named part files."""
    import os

    ip = os.path.join(corpus_dir, "images.parquet")
    pp = os.path.join(corpus_dir, "placements.parquet")
    if not (os.path.isdir(ip) and os.path.isdir(pp)):
        return False
    return sorted(os.listdir(ip)) == sorted(os.listdir(pp))


# per-worker cache of placements shards (path -> table + {image_id: row_idx})
_PLC_CACHE: dict = {}


def _read_plc_shard(path: str):
    import pyarrow.parquet as pq

    t = SRC._split_gt(pq.read_table(path))
    return t, {v: i for i, v in enumerate(t["image_id"].to_pylist())}


def _take_placements(table: pa.Table, plc_path: str) -> pa.Table:
    """Append the placement columns of ``table``'s rows, looked up by
    image_id in the placements shard at ``plc_path`` (worker-cached)."""
    plc, idx = memo(_PLC_CACHE, plc_path, lambda: _read_plc_shard(plc_path), 64)
    take = pa.array([idx[v] for v in table["image_id"].to_pylist()], pa.int64())
    for name in plc.column_names:
        if name != "image_id":
            table = table.append_column(name, plc[name].take(take))
    return table


def _merge_placements(batch: pa.Table, plc_dir: str) -> pa.Table:
    """Co-partitioned merge of a batch read with a ``path`` column: each run
    of rows from one images shard takes its placement columns from the
    like-named placements shard. Engine reads go through
    ``fused_image_apply``; perfbench's traced replay times this merge."""
    import itertools
    import os

    paths = batch["path"].to_pylist()
    batch = batch.drop_columns(["path"])
    parts = []
    pos = 0
    for path, run in itertools.groupby(paths):
        n = sum(1 for _ in run)
        plc_path = os.path.join(plc_dir, os.path.basename(path))
        parts.append(_take_placements(batch.slice(pos, n), plc_path))
        pos += n
    return pa.concat_tables(parts, promote_options="default")


def _table_units(path: str, columns: list | None = None) -> list:
    """(path, rg, num_rows, read_bytes) work units of the parquet file
    ``path`` or of the part files of the directory ``path``, one per row
    group, in file order. ``num_rows`` and ``read_bytes`` (the uncompressed
    size of the row group's ``columns``, all columns when None) come from
    the footers. Driver cost is a metadata scan of the part list (bounded by
    the part count, not the row count — at 100 TB this comes from the table
    manifest the same way)."""
    import os

    import pyarrow.parquet as pq

    parts = [path]
    if os.path.isdir(path):
        parts = [os.path.join(path, f) for f in sorted(os.listdir(path))]
    units = []
    for part in parts:
        md = pq.ParquetFile(part).metadata
        for rg in range(md.num_row_groups):
            g = md.row_group(rg)
            read_bytes = sum(
                g.column(i).total_uncompressed_size
                for i in range(g.num_columns)
                if columns is None or g.column(i).path_in_schema.split(".")[0] in columns
            )
            units.append({"path": part, "rg": rg, "num_rows": g.num_rows, "read_bytes": read_bytes})
    return units


def _task_bounds(sizes: list, cpus: int) -> list:
    """[start, stop) bounds that cut consecutive units of ``sizes`` bytes
    into one group per read task: ``min(units, cpus)`` contiguous, non-empty
    groups of about equal bytes, in order. Group ``g`` closes at the unit
    edge nearest its mark, ``(g + 1) / n`` of the bytes, unless every later
    unit must open a group of its own. A unit (row group) is never split.
    No units, no groups."""
    if not sizes:
        return []
    total = sum(sizes)
    n = min(len(sizes), cpus)
    bounds, start, acc = [], 0, 0
    for i, size in enumerate(sizes[:-1]):
        if len(bounds) == n - 1:
            break
        acc += size
        # close after unit i when its edge is no farther from the group's
        # mark than the edge after unit i + 1 (mark - acc <= acc +
        # sizes[i + 1] - mark), or when every later unit must open a group
        nearest = (2 * acc + sizes[i + 1]) * n >= 2 * total * (len(bounds) + 1)
        if nearest or len(sizes) - i - 1 == n - 1 - len(bounds):
            bounds.append((start, i + 1))
            start = i + 1
    bounds.append((start, len(sizes)))
    return bounds


def _session_key() -> tuple:
    """Identifies the current Ray session, for caches of object refs. The
    job id alone restarts at the same value after ``ray.shutdown()`` /
    ``ray.init()`` in one process; the node id is new on every
    local ``ray.init``, and the job id is new on every reconnect to a
    running cluster."""
    try:
        ctx = ray.get_runtime_context()
        return ctx.get_job_id(), ctx.get_node_id()
    except Exception:
        return ("nosession",)


def fused_table_apply(path: str, kernel, *, columns: list | None = None, merge=None) -> rd.Dataset:
    """Run ``kernel(table) -> table`` INSIDE the read tasks, once per row
    group of the parquet file or part-file directory ``path``: the one
    fused source. Only the kernel's output rows enter the object store, and
    the plan is ``FromItems -> one fused map`` (no ``ReadParquet``, so no
    ``SplitBlocks`` fusion barrier and no sampling task at build time).

    One task per Ray CPU: ``_task_bounds`` cuts the row groups into
    ``min(row groups, cluster_cpus())`` contiguous groups of about equal
    bytes of ``columns``. Each task yields its row groups' kernel outputs
    one by one, in file order, so the output is the same whatever the task
    count. A directory with no part files is an empty Dataset.

    Why one task per CPU: Ray Data 2.49 starts a second wave of tasks late.
    Its scheduling loop waits in ``ray.wait(active, num_returns=len(active),
    timeout=0.1)`` (``streaming_executor_state.py:499-504``), so it wakes
    only when every active task is ready or after 100 ms, and a finished
    task needs one more wake-up for its end of stream. A task queued behind
    a full first wave started up to 100 ms after its slot went idle.

    Block size: Ray merges a task's yielded tables into blocks of up to
    ``target_max_block_size`` (``output_buffer.py:77-91``). Until one task
    of the operator has returned, it also prices each task's pending output
    at 2 x that target (``op_runtime_metrics.py:585-604``,
    ``task_pool_map_operator.py:134-141``) and admits a task only while the
    price fits the operator's object-store budget, about 0.375 x the store
    (``resource_manager.py:49, 508-560``). The source sets its plan's own
    context (``Dataset.context``, the copy ``from_items`` makes; the global
    ``DataContext`` is untouched) to ``max(target_min_block_size, largest
    row group's read bytes)``. So a small output (metadata, the flagship's
    rows) is one block per task, a payload output about one block per row
    group, and every task starts at once under a small object store.
    Datasets derived from this one share the setting.

    Each row group is read without pyarrow threads and with its schema
    metadata stripped (as ``read_parquet_tight`` does); ``merge(table,
    part_path) -> table``, when given, runs on it before ``kernel``.

    ``kernel`` must return a correctly-TYPED table for empty input (it is
    called even when a filter inside leaves zero rows, so every block
    carries the output schema)."""
    units = _table_units(path, columns)
    sizes = [u["read_bytes"] for u in units]
    # one item (so one block, so one task) per group of units
    items = [{"units": units[a:b]} for a, b in _task_bounds(sizes, cluster_cpus())]
    ds = rd.from_items(items, override_num_blocks=len(items)) if items else rd.from_items([])
    # the plan's own context (from_items copies the global one)
    ds.context.target_max_block_size = max([ds.context.target_min_block_size] + sizes)

    def load(batch: pa.Table):
        import pyarrow.parquet as pq

        for group in batch["units"].to_pylist():
            for u in group:
                # use_threads=False: each task owns ONE CPU slot; pyarrow's
                # internal thread pool would oversubscribe against the other
                # concurrent tasks on the box
                t = pq.ParquetFile(u["path"]).read_row_group(
                    u["rg"], columns=columns, use_threads=False
                ).replace_schema_metadata(None)
                if merge is not None:
                    t = merge(t, u["path"])
                out = kernel(t)
                # a payload read is not held across the yield
                del t
                yield out

    return ds.map_batches(load, batch_format="pyarrow", batch_size=None)


def fused_image_apply(
    corpus_dir: str,
    kernel,
    *,
    columns: list | None = None,
    with_placements: bool = True,
) -> rd.Dataset:
    """``fused_table_apply`` over the images table, each row group merged
    with its like-named placements shard when ``with_placements``. The raw
    image payload never enters the object store. ``placed_images`` and the
    per-image raster queries (warp, global stats, histogram, …) all read
    the corpus through it. The corpus must be co-sharded (like-named
    images/placements part files); any other layout is a ValueError.
    """
    import os

    cols = columns
    if with_placements and cols is not None and "image_id" not in cols:
        cols = ["image_id"] + list(cols)
    if not _cosharded(corpus_dir):
        raise ValueError(f"{corpus_dir}: images.parquet and placements.parquet must be "
                         "directories of like-named part files (the co-sharded layout)")
    merge = None
    if with_placements:
        plc_dir = os.path.join(corpus_dir, "placements.parquet")

        def merge(t: pa.Table, part: str) -> pa.Table:
            return _take_placements(t, os.path.join(plc_dir, os.path.basename(part)))

    return fused_table_apply(
        os.path.join(corpus_dir, "images.parquet"), kernel, columns=cols, merge=merge
    )


def _add_geo(t: pa.Table) -> pa.Table:
    """Centroid, bbox (EPSG:3857 meters) and cell columns."""
    return G.add_cell(G.add_bbox_meters(G.add_centroid_meters(t)))


def _decode_geo(t: pa.Table) -> pa.Table:
    from gdal_ray.stages.decode import decode_stats

    return _add_geo(decode_stats(t))


# what the flagship's decode reads of the images table
_DECODE_COLUMNS = ["image_id", "bytes", "fmt", "w", "h"]


def _decoded_geo(t: pa.Table) -> pa.Table:
    """Decode every payload, so a corrupt one fails the task, then keep only
    what the flagship reads: payload dropped, geo columns added. No pHash,
    checksum or histogram."""
    from gdal_ray.io.codec import decode_image

    for buf, fmt in zip(t["bytes"].to_pylist(), t["fmt"].to_pylist()):
        decode_image(buf, fmt)
    return _add_geo(t.drop_columns(["bytes"]))


def decoded_places(corpus_dir: str) -> rd.Dataset:
    """Every image placed (centroid, bbox, cell) with its payload decoded
    and dropped: the flagship's source."""
    return fused_image_apply(corpus_dir, _decoded_geo, columns=_DECODE_COLUMNS)


def placed_images(corpus_dir: str, decode: bool = True) -> rd.Dataset:
    """(decoded) images ⋈ placements with centroid/bbox/cell columns added:
    ``fused_image_apply`` with the decode + geo kernel, or the geo kernel
    alone over (image_id, w, h) when ``decode`` is False. No shuffle."""
    if decode:
        return fused_image_apply(corpus_dir, _decode_geo)
    return fused_image_apply(corpus_dir, _add_geo, columns=["image_id", "w", "h"])


def tile_assignments(placed: rd.Dataset, zooms=TILE_ZOOMS) -> rd.Dataset:
    return placed.map_batches(
        lambda b: G.explode_tiles(b, zooms), batch_format="pyarrow", batch_size=None
    )


_BROADCAST_CACHE: dict = {}


def _broadcast_ref(kind: str, corpus_dir: str, build):
    """Object ref of ``build()``, put ONCE per (kind, Ray session, corpus).

    A broadcast small side (polygon index, kNN centroid index) is built on
    the driver with plain pyarrow (no Ray job) and kept while the session
    lives: a new ref per query call would re-ship it and make every worker
    rebuild the stage it caches under the ref."""
    return memo(
        _BROADCAST_CACHE, (kind, _session_key(), corpus_dir), lambda: ray.put(build()), 8
    )


def _polygon_index_ref(corpus_dir: str):
    import pyarrow.parquet as pq

    def build():
        table = pq.read_table(f"{corpus_dir}/polygons.parquet", columns=["poly_id", "wkb"])
        return build_polygon_cell_index(table, CELL_LEVEL)

    return _broadcast_ref("polygons", corpus_dir, build)


def pip_join_images(placed: rd.Dataset, corpus_dir: str) -> rd.Dataset:
    """Image centroids vs polygon layer -> (src_id, poly_id) rows. The
    projection and rename run in the joining map: one operator, no
    ``Project``."""
    index_ref = _polygon_index_ref(corpus_dir)

    def join(batch: pa.Table) -> pa.Table:
        pts = batch.select(["image_id", "cx", "cy", "cell"])
        return pip_join_batch(pts.rename_columns(["src_id", "cx", "cy", "cell"]), index_ref)

    return placed.map_batches(join, batch_format="pyarrow", batch_size=None)


def _project_queries(batch: pa.Table) -> pa.Table:
    from gdal_ray.geo import mercator as M

    mx, my = M.latlon_to_meters(np.asarray(batch["lat"]), np.asarray(batch["lon"]))
    return (
        batch.drop_columns(["lon", "lat"])
        .append_column("cx", pa.array(mx))
        .append_column("cy", pa.array(my))
    )


def _query_points(corpus_dir: str, columns: list, kernel=None) -> rd.Dataset:
    """query_points ``columns`` plus the point in EPSG:3857 meters
    (cx, cy): the query side of the PIP, kNN and point-sample joins. One
    fused source; ``kernel``, when given, runs on the projected rows inside
    the read task."""
    import os

    def project(t: pa.Table) -> pa.Table:
        t = _project_queries(t)
        return t if kernel is None else kernel(t)

    return fused_table_apply(
        os.path.join(corpus_dir, "query_points.parquet"), project, columns=columns + ["lon", "lat"]
    )


def pip_join_query_points(corpus_dir: str) -> rd.Dataset:
    """query_points vs polygon layer (same broadcast join, no decode)."""
    index_ref = _polygon_index_ref(corpus_dir)

    def join(t: pa.Table) -> pa.Table:
        pts = t.rename_columns(["src_id" if c == "query_id" else c for c in t.column_names])
        return pip_join_batch(G.add_cell(pts), index_ref)

    return _query_points(corpus_dir, ["query_id"], join)


def knn_images(corpus_dir: str) -> rd.Dataset:
    """query_points kNN against image centroids -> (query_id, rank, image_id, dist).

    Broadcast fast path for reference sides up to KNN_BROADCAST_MAX rows:
    the index is metadata-only (id + centroid), built on the driver and
    broadcast once per session. Above the cap this routes to
    ``knn_images_shuffle`` automatically (same output through the
    co-partitioned plan) — the driver-side centroid read is a deliberate
    small-side-only step, never applied to a corpus-scale table."""
    import os

    import pyarrow.parquet as pq

    from gdal_ray.config import KNN_BROADCAST_MAX

    units = _table_units(os.path.join(corpus_dir, "images.parquet"))
    if sum(u["num_rows"] for u in units) > KNN_BROADCAST_MAX:
        return knn_images_shuffle(corpus_dir)

    def build():
        # the one centroid kernel, over images (image_id, w, h) joined with
        # the placements
        imgs = pq.read_table(f"{corpus_dir}/images.parquet", columns=["image_id", "w", "h"])
        plc = SRC._split_gt(pq.read_table(f"{corpus_dir}/placements.parquet"))
        t = G.add_centroid_meters(imgs.join(plc, "image_id"))
        return build_centroid_cell_index(
            t["image_id"].to_numpy(), t["cx"].to_numpy(), t["cy"].to_numpy()
        )

    index_ref = _broadcast_ref("knn_centroids", corpus_dir, build)
    return _query_points(corpus_dir, ["query_id", "k"], lambda t: knn_batch(t, index_ref))


def knn_images_shuffle(corpus_dir: str) -> rd.Dataset:
    """kNN through the co-partitioned shuffle path (``knn_shuffle``): no
    driver-built index, no broadcast of the point side — the 10^12-image
    plan. Output identical to ``knn_images``."""
    import pyarrow.parquet as pq

    from gdal_ray.stages.knn import knn_shuffle

    points = placed_images(corpus_dir, decode=False).map_batches(
        lambda b: b.select(["image_id", "cx", "cy"]), batch_format="pyarrow"
    )
    queries = _query_points(corpus_dir, ["query_id", "k"])
    kmax = int(
        pq.read_table(f"{corpus_dir}/query_points.parquet", columns=["k"])["k"]
        .to_pandas()
        .max()
    )
    return knn_shuffle(points, queries, k=kmax)


def flagship_single_pass(corpus_dir: str, zooms=TILE_ZOOMS) -> rd.Dataset:
    """The headline pipeline as ONE streaming Dataset (no mid-pipeline
    materialization, one execution): every placed+decoded batch emits its
    tile-assignment rows AND its PIP join rows, tagged by ``kind``.

    Output schema: (kind: 'tile'|'pip', src_id, z, x, y, poly_id) with
    nulls in the columns the row kind doesn't use.
    """
    index_ref = _polygon_index_ref(corpus_dir)

    def both(batch: pa.Table) -> pa.Table:
        tiles = G.explode_tiles(batch, zooms)
        pts = pa.table(
            {
                "src_id": batch["image_id"],
                "cx": batch["cx"],
                "cy": batch["cy"],
                "cell": batch["cell"],
            }
        )
        pip = pip_join_batch(pts, index_ref)
        n_t = tiles.num_rows
        n_p = pip.num_rows
        return pa.table(
            {
                "kind": pa.array(["tile"] * n_t + ["pip"] * n_p, pa.string()),
                "src_id": pa.concat_arrays(
                    [tiles["image_id"].combine_chunks(), pip["src_id"].combine_chunks()]
                ),
                "z": pa.concat_arrays(
                    [tiles["z"].combine_chunks(), pa.nulls(n_p, pa.int32())]
                ),
                "x": pa.concat_arrays(
                    [tiles["x"].combine_chunks(), pa.nulls(n_p, pa.int64())]
                ),
                "y": pa.concat_arrays(
                    [tiles["y"].combine_chunks(), pa.nulls(n_p, pa.int64())]
                ),
                "poly_id": pa.concat_arrays(
                    [pa.nulls(n_t, pa.string()), pip["poly_id"].combine_chunks()]
                ),
            }
        )

    # one map: decode, geo columns, tiles and PIP all run in the read task
    return fused_image_apply(corpus_dir, lambda t: both(_decoded_geo(t)), columns=_DECODE_COLUMNS)
