"""Headline benchmark: images/sec end-to-end flagship pipeline.

Usage:
    python bench.py              # one timed run, prints ONE JSON line
    python bench.py --scaling    # same job at 8 and 32 CPUs in fresh
                                 # processes; prints throughputs + efficiency

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1) sizes the synthetic corpus;
RAY_GRAFT_CPUS (default 32) sets ray.init(num_cpus=...).
"""

from __future__ import annotations

import json
import os
import sys
import time


def _tile_render(corpus: str) -> int:
    """Timed slice of the tile pyramid: base-tile render+compose at z=5
    into a throwaway dir (fresh manifest each run)."""
    import shutil
    import tempfile

    from gdal_ray.pipelines.tiling import tile_pyramid

    out = tempfile.mkdtemp(prefix="bench_tiles_")
    try:
        s = tile_pyramid(corpus, out, z_base=5, z_min=4)
        return s["n_written"]
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _memtouch_mbps(mb: int = 32) -> float:
    """Host-condition probe: first-touch page-fault throughput of a FRESH
    process allocating ``mb`` MB (no Ray, no engine code). On this sandbox
    it oscillates between ~300 MB/s (calm) and ~4 MB/s (hypervisor memory
    reclaim windows) on minute timescales — measured 2026-08-17: the same
    64 MB touch took 0.22 s, then 16 s, 20 s apart. A degraded window
    inflates ANY query that allocates fresh memory (every new worker's
    first batch, every shuffle buffer) by 10-100x, which is the mechanism
    behind the round-3 \"per-query fixed cost growth\". Recorded at bench
    start AND end so each run's numbers can be read against host state."""
    import subprocess

    code = (
        "import time,numpy as np;t=time.time();"
        f"a=np.ones({mb}*131072,dtype=np.float64);"
        "print(time.time()-t)"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        return round(mb / float(out.stdout.strip()), 1)
    except Exception:
        return -1.0


def _run_bench() -> dict:
    import ray

    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    mem_mbps_start = _memtouch_mbps()

    init_kw = {}
    if os.environ.get("GRAFT_OBJSTORE_BYTES"):
        init_kw["object_store_memory"] = int(os.environ["GRAFT_OBJSTORE_BYTES"])
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        **init_kw,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from gdal_ray.ops.runtime import drop_schema_noise

    drop_schema_noise()

    from gdal_ray.pipelines import corpus_queries as CQ
    from gdal_ray.pipelines import flagship as F
    from gdal_ray.pipelines import relational as R

    corpus = os.environ.get("GRAFT_CORPUS_DIR") or CQ.corpus_for_sf(sf_dir)
    import pyarrow.dataset as pads

    n_images = pads.dataset(os.path.join(corpus, "images.parquet")).count_rows()

    # warm-up: one untimed full pass (page cache, worker-process imports,
    # task-pool spin-up) so the timed run measures compute + shuffle
    _ = F.placed_images(corpus, decode=False).count()

    queries: dict[str, float] = {}

    def timed(name, fn):
        t0 = time.time()
        out = fn()
        queries[name] = round(time.time() - t0, 3)
        return out

    # headline: decode + cell encode + tile assign + PIP join as ONE
    # streaming execution (no mid-pipeline materialization)
    def run_flagship():
        return F.flagship_single_pass(corpus).count()

    run_flagship()  # untimed warm-up pass
    timed("flagship", run_flagship)
    if os.environ.get("GRAFT_BENCH_FLAGSHIP_ONLY"):
        headline_sec = queries["flagship"]
        result = {
            "metric": "images/sec end-to-end (decode + cell encode + PIP join + tile assign)",
            "value": headline_sec,
            "unit": "sec",
            "images_per_sec": round(n_images / headline_sec, 1),
            "n_images": n_images,
            "queries": queries,
            "sf": sf_dir,
            "num_cpus": num_cpus,
            "memtouch_mbps_start": mem_mbps_start,
            "memtouch_mbps_end": _memtouch_mbps(),
        }
        ray.shutdown()
        return result
    timed("knn", lambda: F.knn_images(corpus).count())
    timed("near_dup", lambda: CQ.q_near_dup_images(sf_dir).count())
    timed("raster_roundtrip", lambda: CQ.q_raster_roundtrip(sf_dir).count())
    timed("q1_pricing", lambda: R.q1_pricing_summary(sf_dir).count())
    timed("join_segment", lambda: len(R.q_join_segment_revenue(sf_dir)))
    timed("sim_topk", lambda: R.q_sim_topk(sf_dir).count())

    from gdal_ray.pipelines import rasterq as RQ

    timed("dem_metrics", lambda: RQ.q_dem_metrics(sf_dir).count())
    timed("warp_4326", lambda: RQ.q_warp_4326_images(sf_dir).count())
    timed("embed_near_dup", lambda: len(RQ.q_embed_near_dup(sf_dir)))
    # tile render is per-image-heavy (decode + 256^2 resample + PNG per
    # partial); benchmark the operator on a bounded corpus
    render_corpus = corpus
    if n_images > 10000:
        from gdal_ray.fixtures.generate import generate_corpus

        render_corpus = generate_corpus(3000)
    timed("tile_render_z5_3k", lambda: _tile_render(render_corpus))

    headline_sec = queries["flagship"]
    result = {
        "metric": "images/sec end-to-end (decode + cell encode + PIP join + tile assign)",
        "value": headline_sec,
        "unit": "sec",
        "images_per_sec": round(n_images / headline_sec, 1),
        "n_images": n_images,
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "memtouch_mbps_start": mem_mbps_start,
        "memtouch_mbps_end": _memtouch_mbps(),
    }
    ray.shutdown()
    return result


def _burn(seconds: float) -> int:
    import time as _t

    t0 = _t.time()
    x = 0
    while _t.time() - t0 < seconds:
        x += 1
    return x


def _hw_envelope(levels=(8, 32), seconds: float = 2.0) -> dict:
    """Hardware calibration: pure busy-loop process scaling (NO Ray, no I/O,
    no engine code). The per-process throughput on this box DROPS as more
    cores go busy (frequency scaling / host sharing), so no framework can
    show a CPU-count proxy efficiency above this envelope. Reported so the
    engine number can be read against the machine's own ceiling."""
    import multiprocessing as mp

    out = {}
    for n in levels:
        with mp.get_context("spawn").Pool(n) as p:
            total = sum(p.map(_burn, [seconds] * n))
        out[n] = total / seconds
    lo, hi = levels
    out["efficiency"] = round((out[hi] / out[lo]) / (hi / lo), 3)
    return out


def _scaling(repeats: int = 3):
    """Median-of-N fresh-process runs per level (single-box wall times are
    noisy at seconds scale; median absorbs page-cache / scheduler jitter).
    Also reports the machine's busy-loop scaling envelope and the engine
    efficiency normalized by it."""
    import statistics
    import subprocess

    runs = {8: [], 32: []}
    all_runs = {8: [], 32: []}
    last = {}
    for _ in range(repeats):
        for ncpu in (8, 32):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_FLAGSHIP_ONLY="1")
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__)], env=env,
                capture_output=True, text=True,
            )
            line = [l for l in proc.stdout.strip().splitlines() if l.startswith("{")][-1]
            d = json.loads(line)
            runs[ncpu].append(d["value"])
            all_runs[ncpu].append(d)
            last[ncpu] = d
    t8 = statistics.median(runs[8])
    t32 = statistics.median(runs[32])
    eff = (t8 / t32) / (32 / 8)
    hw = _hw_envelope()
    n = last[32]["n_images"]
    print(
        json.dumps(
            {
                "metric": "scaling efficiency (8 -> 32 CPUs, fresh sessions, same input, median of %d)" % repeats,
                "sec_8": t8,
                "sec_32": t32,
                "all_sec_8": runs[8],
                "all_sec_32": runs[32],
                "images_per_sec_8": round(n / t8, 1),
                "images_per_sec_32": round(n / t32, 1),
                "scaling_efficiency": round(eff, 3),
                "hw_busyloop_efficiency": hw["efficiency"],
                "scaling_efficiency_vs_hw_envelope": round(eff / hw["efficiency"], 3),
                "memtouch_mbps_per_run_8": [r.get("memtouch_mbps_start") for r in all_runs[8]],
                "memtouch_mbps_per_run_32": [r.get("memtouch_mbps_start") for r in all_runs[32]],
                "n_images": n,
            }
        )
    )


def _scaling_nodes(n_nodes: int = 4, cpus_per_node: int = 8):
    """Node-scaling proxy (WEAK scaling): one 8-CPU Ray instance running the
    headline job vs ``n_nodes`` CONCURRENT 8-CPU Ray instances each running
    the IDENTICAL job — separate object stores, shared box. A 4N-node
    cluster processes 4x the data in the same wall time when per-node work
    is fixed; the headline path has no cross-node exchange (broadcast index
    + co-partitioned merge), so concurrent independent instances are the
    faithful in-sandbox stand-in."""
    import subprocess
    import time as _time

    from gdal_ray.pipelines import corpus_queries as CQ

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    corpus = CQ.corpus_for_sf(sf_dir)
    quarters = [corpus] * n_nodes  # identical job per node (weak scaling)

    objstore = str(4 * 1024**3)

    def run_one(corpus_dir, ncpu):
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_CORPUS_DIR=corpus_dir,
            GRAFT_BENCH_FLAGSHIP_ONLY="1",
            GRAFT_OBJSTORE_BYTES=objstore,
        )
        return subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )

    def harvest(proc):
        out, _ = proc.communicate()
        line = [l for l in out.strip().splitlines() if l.startswith("{")][-1]
        return json.loads(line)

    # N = 1 node
    one = harvest(run_one(corpus, cpus_per_node))
    n_total = one["n_images"]
    ips_1 = one["images_per_sec"]

    # 4N = n_nodes concurrent identical jobs (aggregate 4x data processed)
    procs = [run_one(q, cpus_per_node) for q in quarters]
    results = [harvest(p) for p in procs]
    ips_4 = sum(r["images_per_sec"] for r in results)
    eff = ips_4 / (n_nodes * ips_1)
    print(
        json.dumps(
            {
                "metric": f"node-scaling proxy (weak): 1 vs {n_nodes} concurrent "
                f"{cpus_per_node}-CPU Ray instances, identical per-node job",
                "images_per_sec_1node": ips_1,
                "aggregate_images_per_sec_%dnodes" % n_nodes: round(ips_4, 1),
                "per_node_sec": [r["value"] for r in results],
                "scaling_efficiency": round(eff, 3),
                "n_images_per_node": n_total,
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        _scaling()
    elif "--scaling-nodes" in sys.argv:
        _scaling_nodes()
    else:
        print(json.dumps(_run_bench()))
