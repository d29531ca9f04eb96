"""The traced run: per-layer metrics for one workload.

End-to-end numbers never come from here. The traced run adds, after an
untraced closed loop that gives the job's median wall time:

1. one traced job, with every Ray Data execution's operator statistics
   captured through an execution callback (``ray.<op>`` numbers);
2. a layer replay in the driver, with no Ray: the workload's layers are
   called directly on the same generated row groups, with a span around
   every call (name, start, end, parent);
3. counts taken from public outputs (PIP candidates from the returned
   index, shuffle bucket sizes from ``bucketed_group_apply``), and checked
   single runs of the shuffle plans and of the tile pyramid;
4. derived numbers: ``trace.layer_coverage`` (replayed layer seconds over
   the traced job's Ray CPU-seconds) and ``trace.overhead_frac``.

The replay is also the single-threaded baseline of the job's layers.
Spans and the full per-operator table are written to
``.perfbench_cache/traces/<workload>-s<seed>.json``.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import time
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

# Layers each workload's job runs; the replay covers exactly these.
JOB_LAYERS = {
    "decode_flagship": ("sources", "decode", "geo", "explode", "pip"),
    "spatial_broadcast": ("sources", "geo", "explode", "pip", "pip_points", "knn"),
}
# Plans too slow or too noisy at 2 Ray CPUs to be timed workloads run once,
# checked, in one workload's traced run: the tile pyramid (codec encode
# direction and writes) beside the decode-heavy flagship, and the shuffle
# plans beside the broadcast plans that answer the same questions.
TILING_WORKLOAD = "decode_flagship"
SHUFFLE_WORKLOAD = "spatial_broadcast"
SKEW_BUCKETS = 64  # pip_join_shuffle's and knn_shuffle's default bucket count

# name -> (unit, better); every traced run prints all of them, 0 where the
# workload does not touch the layer
PER_LAYER = {
    "sources.read_ms_per_image": ("ms", "lower"),
    "sources.placements_merge_ms_per_image": ("ms", "lower"),
    "io.decode_jpeg_ms_per_image": ("ms", "lower"),
    "io.decode_png_ms_per_image": ("ms", "lower"),
    "io.phash_ms_per_image": ("ms", "lower"),
    "io.jpeg_images": ("count", "lower"),
    "io.png_images": ("count", "lower"),
    "io.pixels_decoded": ("count", "lower"),
    "raster.checksum_ms_per_image": ("ms", "lower"),
    "decode.stats_ms_per_image": ("ms", "lower"),
    "geo.place_ms_per_1k_images": ("ms", "lower"),
    "geo.explode_tiles_ms_per_1k_images": ("ms", "lower"),
    "geo.tiles_emitted": ("count", "lower"),
    "pipjoin.index_build_ms": ("ms", "lower"),
    "pipjoin.ms_per_1k_points": ("ms", "lower"),
    "pipjoin.candidates": ("count", "lower"),
    "pipjoin.matches": ("count", "higher"),
    "pipjoin.match_ratio": ("ratio", "higher"),
    "knn.index_build_ms": ("ms", "lower"),
    "knn.ms_per_1k_queries": ("ms", "lower"),
    "knn.results": ("count", "higher"),
    "shuffle.rows": ("count", "lower"),
    "shuffle.buckets_nonempty": ("count", "higher"),
    "shuffle.bucket_rows_max_over_median": ("ratio", "lower"),
    "shuffle.wall_s": ("s", "lower"),
    "shuffle.pip_join_s": ("s", "lower"),
    "shuffle.knn_s": ("s", "lower"),
    "shuffle.plan_cpu_s": ("s", "lower"),
    "shuffle.sort_cpu_s": ("s", "lower"),
    "tiling.pyramid_s": ("s", "lower"),
    "tiling.tiles_written": ("count", "higher"),
    "tiling.bytes_written": ("bytes", "lower"),
    "io.encode_png_ms_per_tile": ("ms", "lower"),
    "ray.job_wall_s": ("s", "lower"),
    "ray.job_cpu_s": ("s", "lower"),
    "ray.job_rows_out": ("count", "lower"),
    "ray.executions": ("count", "lower"),
    "ray.operators": ("count", "lower"),
    "trace.replay_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.layer_coverage": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """In-memory spans: name, start, end and the id of the enclosing span."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


# ------------------------------------------------------------ Ray statistics


def _op_name(name: str) -> str:
    """Operator name in the metric-name charset, at most 48 characters."""
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", name.replace("->", ".")).strip("_.")
    return name[:48]


def _stat(d) -> float:
    return float(d.get("sum", 0.0)) if d else 0.0


class OperatorStats:
    """Ray Data execution callback that, inside ``recording()``, keeps the
    per-operator statistics of every execution that finishes.

    Install it before the first Dataset is built: the engine caches lazy
    plans across jobs, and a plan keeps the callbacks of the context it was
    built under.
    """

    def __init__(self):
        self._sink = None  # list of executions (lists of operators) while recording

    def __deepcopy__(self, memo):
        # every Dataset deep-copies the DataContext that holds the callbacks;
        # all copies must report into this one collector
        return self

    def before_execution_starts(self, executor):
        pass

    def on_execution_step(self, executor):
        pass

    def after_execution_fails(self, executor, error):
        pass

    def after_execution_succeeds(self, executor):
        if self._sink is None:
            return
        ops = []
        todo = [executor.get_stats().to_summary()]
        while todo:  # the last operator's summary links its inputs as parents
            summary = todo.pop()
            todo.extend(summary.parents)
            for op in summary.operators_stats:
                ops.append({
                    "op": _op_name(op.operator_name),
                    "wall_s": _stat(op.wall_time),
                    "cpu_s": _stat(op.cpu_time),
                    "rows_out": _stat(op.output_num_rows),
                })
        self._sink.append(ops)

    def install(self) -> "OperatorStats":
        from ray.data import DataContext
        from ray.data._internal.execution import execution_callback as ec

        ctx = DataContext.get_current()
        callbacks = list(ec.get_execution_callbacks(ctx))
        ctx.set_config(ec.EXECUTION_CALLBACKS_CONFIG_KEY, callbacks + [self])
        return self

    @contextmanager
    def recording(self):
        self._sink = executions = []
        try:
            yield executions
        finally:
            self._sink = None


def _ops(executions) -> list:
    return [op for ops in executions for op in ops]


def per_operator(executions) -> dict:
    """``ray.<op>.<stat>`` for every operator, summed over executions."""
    out: dict = {}
    for op in _ops(executions):
        for w in ("wall_s", "cpu_s", "rows_out"):
            key = f"ray.{op['op']}.{w}"
            out[key] = out.get(key, 0.0) + op[w]
    return out


# ------------------------------------------------------------- layer replay


def _shards(corpus: str):
    """(images part file, row group) pairs in corpus order."""
    img_dir = os.path.join(corpus, "images.parquet")
    for name in sorted(os.listdir(img_dir)):
        img = os.path.join(img_dir, name)
        for rg in range(pq.ParquetFile(img).metadata.num_row_groups):
            yield img, rg


def replay(workload: str, corpus: str, tr: Tracer) -> dict:
    """Call the workload's layers directly, one row group at a time.

    Spans directly under ``replay`` are the job's layers and add up to the
    replayed layer time. ``detail`` spans re-run single functions of the
    decode layer per image to split it by format and function.
    """
    from gdal_ray.config import CELL_LEVEL
    from gdal_ray.geo import cells as CL
    from gdal_ray.geo import mercator as M
    from gdal_ray.io import codec as C
    from gdal_ray.io import phash as PH
    from gdal_ray.pipelines.flagship import _merge_placements
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.stages import geo as G
    from gdal_ray.stages.decode import decode_stats
    from gdal_ray.stages.knn import KnnStage, build_centroid_cell_index
    from gdal_ray.stages.pipjoin import PipJoinStage, build_polygon_cell_index

    layers = JOB_LAYERS[workload]
    decode = "decode" in layers
    plc_dir = os.path.join(corpus, "placements.parquet")
    c = {"images": 0, "jpeg": 0, "png": 0, "pixels": 0, "tiles": 0, "points": 0,
         "candidates": 0, "matches": 0, "queries": 0, "knn_results": 0}
    centroids = []
    with tr.span("replay") as root:
        if "pip" in layers:
            polygons = pq.read_table(os.path.join(corpus, "polygons.parquet"), columns=["poly_id", "wkb"])
            with tr.span("pipjoin.index_build"):
                index = build_polygon_cell_index(polygons)
                pip = PipJoinStage(index)
        for img_path, rg in _shards(corpus):
            cols = None if decode else ["image_id", "w", "h"]
            with tr.span("sources.read"):
                t = pq.ParquetFile(img_path).read_row_group(rg, columns=cols, use_threads=False)
            with tr.span("sources.placements_merge"):
                t = _merge_placements(
                    t.append_column("path", pa.array([img_path] * t.num_rows, pa.string())), plc_dir
                )
            c["images"] += t.num_rows
            if decode:
                with tr.span("detail"):
                    for blob, fmt in zip(t["bytes"].to_pylist(), t["fmt"].to_pylist()):
                        with tr.span(f"io.decode_{fmt}"):
                            img = C.decode_image(blob, fmt)
                        with tr.span("io.phash"):
                            PH.phash64(img)
                        with tr.span("raster.checksum"):
                            checksum_image(img[:, :, 0])
                        c[fmt] += 1
                        c["pixels"] += img.size
                with tr.span("decode.decode_stats"):
                    t = decode_stats(t)
            with tr.span("geo.place"):
                t = G.add_cell(G.add_bbox_meters(G.add_centroid_meters(t)))
            if "explode" in layers:
                with tr.span("geo.explode_tiles"):
                    c["tiles"] += G.explode_tiles(t).num_rows
            if "knn" in layers:
                centroids.append(t.select(["image_id", "cx", "cy"]))
            if "pip" in layers:
                pts = pa.table({"src_id": t["image_id"], "cx": t["cx"], "cy": t["cy"], "cell": t["cell"]})
                c.update(_pip(tr, pip, index, pts, c))
        if "pip_points" in layers or "knn" in layers:
            q = pq.read_table(os.path.join(corpus, "query_points.parquet"))
            with tr.span("geo.place_points"):
                mx, my = M.latlon_to_meters(np.asarray(q["lat"]), np.asarray(q["lon"]))
                qcell = CL.cell_of_meters(mx, my, CELL_LEVEL)
            c["queries"] = q.num_rows
        if "pip_points" in layers:
            pts = pa.table({"src_id": q["query_id"], "cx": pa.array(mx), "cy": pa.array(my),
                            "cell": pa.array(qcell)})
            c.update(_pip(tr, pip, index, pts, c))
        if "knn" in layers:
            cent = pa.concat_tables(centroids)
            with tr.span("knn.index_build"):
                kindex = build_centroid_cell_index(
                    np.asarray(cent["image_id"]), np.asarray(cent["cx"]), np.asarray(cent["cy"])
                )
                knn = KnnStage(kindex)
            queries = pa.table({"query_id": q["query_id"], "cx": pa.array(mx), "cy": pa.array(my),
                                "k": q["k"]})
            with tr.span("knn.query"):
                c["knn_results"] = knn(queries).num_rows
    c["replay_s"] = root["end"] - root["start"]
    c["layer_s"] = sum(
        s["end"] - s["start"] for s in tr.spans if s["parent"] == root["id"] and s["name"] != "detail"
    )
    return c


def _pip(tr: Tracer, stage, index: dict, pts: pa.Table, c: dict) -> dict:
    cells = index["cells"]
    candidates = sum(len(cells.get(int(cell), ())) for cell in np.asarray(pts["cell"]))
    with tr.span("pipjoin.join"):
        matches = stage(pts).num_rows
    return {
        "points": c["points"] + pts.num_rows,
        "candidates": c["candidates"] + candidates,
        "matches": c["matches"] + matches,
    }


# ------------------------------------------------- Ray-side layer probes


def bucket_rows(part: pd.DataFrame) -> pd.DataFrame:
    """Benchmark-owned group function: the row count of one bucket."""
    return pd.DataFrame({"rows": [len(part)]})


def shuffle_probe(corpus: str, ref, stats: OperatorStats, timeout_s: float) -> dict:
    """Bucket sizes of the cell-keyed shuffle that ``pip_join_shuffle`` runs,
    then one checked run each of ``pip_join_shuffle`` and
    ``knn_images_shuffle`` with their Ray operator statistics."""
    from gdal_ray.ops.shuffle import bucketed_group_apply

    from perfbench import workloads as W
    from perfbench.loop import run_job

    t0 = time.perf_counter()
    out = W.collect(bucketed_group_apply(
        W.shuffle_points(corpus), ["cell"], bucket_rows, SKEW_BUCKETS,
        schema=pa.schema([("rows", pa.int64())]),
    ))
    wall = time.perf_counter() - t0
    rows = [r for r in out["rows"].to_pylist() if r > 0]
    with stats.recording() as executions:
        pip, pip_s = run_job(lambda: W.pip_join_shuffle_job(corpus), timeout_s)
        knn, knn_s = run_job(lambda: W.knn_shuffle_job(corpus), timeout_s)
    problem = W.first_problem(W.check_pip(pip, ref.pip_images), W.check_knn(knn, ref))
    if problem is not None:
        raise RuntimeError(f"shuffle plan failed its check: {problem}")
    print("# shuffle_ops", json.dumps(per_operator(executions)), flush=True)
    ops = _ops(executions)
    return {
        "shuffle.rows": float(sum(rows)),
        "shuffle.buckets_nonempty": float(len(rows)),
        "shuffle.bucket_rows_max_over_median": max(rows) / statistics.median(rows),
        "shuffle.wall_s": wall,
        "shuffle.pip_join_s": pip_s,
        "shuffle.knn_s": knn_s,
        "shuffle.plan_cpu_s": sum(op["cpu_s"] for op in ops),
        "shuffle.sort_cpu_s": sum(op["cpu_s"] for op in ops if "Sort" in op["op"]),
    }


def tiling_probe(corpus: str, scratch: str, ref, tr: Tracer) -> dict:
    """One checked tile pyramid build (z5 base, z4 overview), its output
    size, and a replay of PNG encoding over the tiles it wrote."""
    import shutil

    from gdal_ray.io import codec as C

    from perfbench.workloads import build_pyramid, check_pyramid, read_pyramid

    t0 = time.perf_counter()
    out_dir, summary = build_pyramid(corpus, scratch)
    wall = time.perf_counter() - t0
    try:
        problem = check_pyramid(out_dir, summary, ref)
        if problem is not None:
            raise RuntimeError(f"tile pyramid failed its check: {problem}")
        nbytes = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out_dir) for f in files
        )
        pngs = read_pyramid(out_dir)["png"].to_pylist()
        tiles = [C.decode_png(p) for p in pngs]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with tr.span("io.encode_png"):
        for img in tiles:
            C.encode_png(img)
    return {
        "tiling.pyramid_s": wall,
        "tiling.tiles_written": float(summary["n_written"]),
        "tiling.bytes_written": float(nbytes),
        "io.encode_png_ms_per_tile": 1000 * tr.total("io.encode_png") / max(1, len(tiles)),
    }


# ------------------------------------------------------------- the run


def _per(total_s: float, count: float, scale: float = 1.0) -> float:
    return 1000.0 * total_s / (count / scale) if count else 0.0


def traced_run(workload, corpus: str, scratch: str, ref, stats: OperatorStats, job_s_p50: float,
               timeout_s: float, trace_path: str) -> dict:
    from perfbench.loop import run_job

    name = workload.name
    with stats.recording() as executions:
        out, traced_s = run_job(lambda: workload.job(corpus), timeout_s)
    problem = workload.check(out, ref)
    if problem is not None:
        raise RuntimeError(f"traced job failed its check: {problem}")
    print("# ray_ops", json.dumps(per_operator(executions)), flush=True)

    ops = _ops(executions)
    m = {k: 0.0 for k in PER_LAYER}
    m.update({
        "ray.job_wall_s": sum(op["wall_s"] for op in ops),
        "ray.job_cpu_s": sum(op["cpu_s"] for op in ops),
        "ray.job_rows_out": sum(op["rows_out"] for op in ops),
        "ray.executions": float(len(executions)),
        "ray.operators": float(len(ops)),
    })
    if name == SHUFFLE_WORKLOAD:
        m.update(shuffle_probe(corpus, ref, stats, timeout_s))

    tr = Tracer(f"{name}-{os.path.basename(corpus)}")
    if name == TILING_WORKLOAD:
        m.update(tiling_probe(corpus, scratch, ref, tr))
    c = replay(name, corpus, tr)
    dec = sum(tr.total(s) for s in ("io.decode_jpeg", "io.decode_png", "io.phash", "raster.checksum"))
    m.update({
        "sources.read_ms_per_image": _per(tr.total("sources.read"), c["images"]),
        "sources.placements_merge_ms_per_image": _per(tr.total("sources.placements_merge"), c["images"]),
        "io.decode_jpeg_ms_per_image": _per(tr.total("io.decode_jpeg"), c["jpeg"]),
        "io.decode_png_ms_per_image": _per(tr.total("io.decode_png"), c["png"]),
        "io.phash_ms_per_image": _per(tr.total("io.phash"), c["jpeg"] + c["png"]),
        "io.jpeg_images": float(c["jpeg"]),
        "io.png_images": float(c["png"]),
        "io.pixels_decoded": float(c["pixels"]),
        "raster.checksum_ms_per_image": _per(tr.total("raster.checksum"), c["jpeg"] + c["png"]),
        # decode_stats minus the functions it shares with the detail spans
        "decode.stats_ms_per_image": max(0.0, _per(tr.total("decode.decode_stats") - dec, c["jpeg"] + c["png"])),
        "geo.place_ms_per_1k_images": _per(tr.total("geo.place"), c["images"], 1000),
        "geo.explode_tiles_ms_per_1k_images": (
            _per(tr.total("geo.explode_tiles"), c["images"], 1000) if c["tiles"] else 0.0
        ),
        "geo.tiles_emitted": float(c["tiles"]),
        "pipjoin.index_build_ms": 1000 * tr.total("pipjoin.index_build"),
        "pipjoin.ms_per_1k_points": _per(tr.total("pipjoin.join"), c["points"], 1000),
        "pipjoin.candidates": float(c["candidates"]),
        "pipjoin.matches": float(c["matches"]),
        "pipjoin.match_ratio": c["matches"] / c["candidates"] if c["candidates"] else 0.0,
        "knn.index_build_ms": 1000 * tr.total("knn.index_build"),
        "knn.ms_per_1k_queries": _per(tr.total("knn.query"), c["queries"], 1000) if c["knn_results"] else 0.0,
        "knn.results": float(c["knn_results"]),
        "trace.replay_s": c["replay_s"],
        "trace.spans": float(len(tr.spans)),
        "trace.layer_coverage": c["layer_s"] / m["ray.job_cpu_s"] if m["ray.job_cpu_s"] else 0.0,
        "trace.overhead_frac": (traced_s - job_s_p50) / job_s_p50 if job_s_p50 else 0.0,
    })

    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({"spans": tr.spans, "operators": ops, "traced_job_s": traced_s,
                   "untraced_job_s_p50": job_s_p50}, f)
    return {k: {"value": float(m[k]), "unit": PER_LAYER[k][0]} for k in PER_LAYER}
