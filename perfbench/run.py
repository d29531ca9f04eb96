"""Closed-loop benchmark of the gdal_ray engine.

    python3 perfbench/run.py --workload decode_flagship --seed 1 --seconds 10 --trace 0

Generates a seeded corpus with ``gdal_ray.fixtures.generate`` (cached under
``.perfbench_cache/`` by size and seed), starts Ray with a fixed 2 logical
CPUs, and runs the workload's job in a closed loop: one client sends the
next job only after the previous one returned and its output passed its
check.

``--trace 0`` prints the end-to-end metrics. The run is split over 3
sessions, each a fresh process that sets up (imports, Ray init, first
untimed job) and then loops for a third of ``--seconds``; jobs are pooled
and ``setup_s`` is the median of the 3 set-ups. ``--trace 1`` prints the
per-layer metrics of a separate traced run in one session (``tracing.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it carry the host
block and context (generation time, job count, errors).
"""

from __future__ import annotations

import time

T_PROCESS = time.perf_counter()  # first statement: set-up is timed from here

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(ROOT, ".perfbench_cache")

RAY_CPUS = 2  # at 1 CPU the hash-join aggregator actors starve the task pools
OBJECT_STORE_BYTES = 768 * 1024 * 1024  # the flagship never puts payloads in it
N_IMAGES = 1000  # one corpus size for every workload, so a seed is generated once
SESSIONS = 3  # fresh processes per untimed run; setup_s is the median of their set-ups
JOB_TIMEOUT_S = 40.0
KEEP_CORPORA = 12
# end-to-end metric -> unit; every untraced run prints all of them
END_TO_END = {
    "items_per_s": "images/s",
    "job_s_p50": "s",
    "setup_s": "s",
    "driver_peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}
EXIT_TIMEOUT = 3
EXIT_FAILED = 4


def _parse(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run one session of the untimed run in this child process
    p.add_argument("--session", metavar="CORPUS", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _log(*parts) -> None:
    print("#", *parts, flush=True)


def _engine_env() -> None:
    """Workers import gdal_ray through PYTHONPATH, whatever their working
    directory; the fixture root is read once at import, so it is set before
    the first gdal_ray import. Child processes inherit both."""
    env = os.environ
    env["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, env.get("PYTHONPATH", "")) if p)
    env["GDAL_RAY_FIXTURE_DIR"] = os.path.join(CACHE, "fixtures")


def ensure_corpus(n: int, seed: int) -> tuple[str, float]:
    """Generate (or reuse) the (n, seed) corpus in a child process, so the
    generator's memory never counts in the driver's peak RSS."""
    code = (
        "import sys\n"
        "from gdal_ray.fixtures.generate import generate_corpus\n"
        "print(generate_corpus(int(sys.argv[1]), int(sys.argv[2]), pixel_refs=False))\n"
    )
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", code, str(n), str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise RuntimeError(f"corpus generation failed: {out.stderr.strip()[-800:]}")
    corpus = out.stdout.strip().splitlines()[-1]
    _prune_corpora(keep=corpus)
    return corpus, time.perf_counter() - t0


def _prune_corpora(keep: str) -> None:
    root = os.path.dirname(keep)
    dirs = [os.path.join(root, d) for d in os.listdir(root) if d.startswith("n")]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[KEEP_CORPORA:]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)
    os.utime(keep)


def start_ray() -> None:
    import ray
    from ray.data import DataContext

    kw = {}
    tmp = os.path.join(CACHE, "ray")
    # Ray's socket paths (<tmp>/session_<time>_<pid>/sockets/...) must stay
    # below 108 bytes; under a deeper checkout Ray keeps its default temp dir
    if len(tmp) <= 40:
        kw["_temp_dir"] = tmp
    ray.init(
        address="local",
        num_cpus=RAY_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,  # worker prints and raylet warnings stay off our stdout
        **kw,
    )
    DataContext.get_current().enable_progress_bars = False


def _finish(result: dict, code: int = 0) -> None:
    print(json.dumps(result), flush=True)
    if code:
        os._exit(code)  # a timed-out job's thread is still blocked inside Ray


def _fail(msg: str, code: int) -> None:
    import ray

    print(msg, file=sys.stderr, flush=True)
    ray.shutdown()
    sys.stderr.flush()
    os._exit(code)


def setup_session(workload, corpus: str, ref, t_start: float, excluded_s: float,
                  before_jobs=None) -> float:
    """Start Ray and run the first, untimed job; return seconds of set-up."""
    from perfbench.loop import JobTimeout, run_job

    start_ray()
    if before_jobs is not None:
        before_jobs()
    try:
        out, _ = run_job(lambda: workload.job(corpus), JOB_TIMEOUT_S)
    except JobTimeout as exc:
        _fail(f"JobTimeout: warm-up job of {workload.name}: {exc}", EXIT_TIMEOUT)
    except Exception as exc:
        _fail(f"warm-up job of {workload.name} raised {type(exc).__name__}: {exc}", EXIT_FAILED)
    problem = workload.check(out, ref)
    if problem is not None:
        _fail(f"warm-up job of {workload.name} failed its check: {problem}", EXIT_FAILED)
    return time.perf_counter() - t_start - excluded_s


def run_session(workload, corpus: str, ref, t_start: float, excluded_s: float,
                seconds: float, min_jobs: int, before_jobs=None) -> dict:
    """One Ray session: set-up, then the closed loop. Ray stays up."""
    from perfbench import host
    from perfbench.loop import closed_loop

    setup_s = setup_session(workload, corpus, ref, t_start, excluded_s, before_jobs)
    res = closed_loop(
        lambda: workload.job(corpus),
        lambda out: workload.check(out, ref),
        seconds=seconds,
        timeout_s=JOB_TIMEOUT_S,
        items_per_job=N_IMAGES,
        min_jobs=min_jobs,
    )
    return {
        "setup_s": setup_s,
        "loop": res,
        "driver_peak_rss_mb": host.driver_peak_rss_mb(),
        "worker_peak_rss_mb": host.worker_peak_rss_mb(),
    }


def _session_in_child(args, corpus: str) -> dict:
    from perfbench.loop import LoopResult

    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--session", corpus]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=args.seconds + 3 * JOB_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, EXIT_TIMEOUT) or not lines:
        print(out.stderr[-2000:], file=sys.stderr)
        raise SystemExit(out.returncode or EXIT_FAILED)
    rec = json.loads(lines[-1])
    rec["loop"] = LoopResult(**rec["loop"])
    return rec


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "gdal_ray", "__init__.py")):
        print(f"error: the gdal_ray engine is not next to perfbench/ in {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    args = _parse(argv)
    _engine_env()

    from perfbench import host
    from perfbench.loop import LoopResult
    from perfbench.workloads import WORKLOADS, load_reference

    workload = WORKLOADS[args.workload]
    child = args.session is not None
    t_excl = time.perf_counter()
    if not child:
        info = host.host_block(ROOT, args.seed, RAY_CPUS)
        info["memtouch_mbps_start"] = host.memtouch_mbps()
    corpus, gen_s = (args.session, 0.0) if child else ensure_corpus(N_IMAGES, args.seed)
    ref = load_reference(corpus)  # outside any timed region
    excluded_s = time.perf_counter() - t_excl

    import ray

    # The untimed run splits its loop over SESSIONS fresh processes, which
    # also gives SESSIONS set-up samples. In-process restarts would fail:
    # the engine caches broadcast refs per Ray job id, and a second
    # ray.init() in one process reuses the first session's job id.
    sessions = 1 if args.trace else SESSIONS
    seconds = args.seconds / sessions
    min_jobs = -(-workload.min_jobs // sessions)
    if child:
        rec = run_session(workload, corpus, ref, T_PROCESS, excluded_s, seconds, min_jobs)
        ray.shutdown()
        rec["loop"] = dataclasses.asdict(rec["loop"])
        print(json.dumps(rec), flush=True)
        return EXIT_TIMEOUT if rec["loop"]["timed_out"] else 0

    info.update(corpus_images=N_IMAGES, generation_s=round(gen_s, 3))
    _log("host", json.dumps(info))
    shutil.rmtree(os.path.join(CACHE, "ray"), ignore_errors=True)  # old Ray session logs
    t_children = time.perf_counter()
    records = []
    for _ in range(sessions - 1):
        records.append(_session_in_child(args, corpus))
        if records[-1]["loop"].timed_out:
            break
    excluded_s += time.perf_counter() - t_children
    op_stats = None
    if args.trace:
        from perfbench import tracing

        op_stats = tracing.OperatorStats()
    if not any(r["loop"].timed_out for r in records):
        records.append(run_session(workload, corpus, ref, T_PROCESS, excluded_s,
                                   seconds, min_jobs, op_stats.install if op_stats else None))
    res = LoopResult.merged(r["loop"] for r in records)
    setups = [r["setup_s"] for r in records]
    _log("loop", json.dumps({"jobs": len(res.job_s), "failed_frac": res.failed / res.attempted,
                             "job_s": [round(s, 4) for s in res.job_s],
                             "setups_s": [round(s, 4) for s in setups], "errors": res.errors[:5]}))

    if args.trace and not res.timed_out and res.failed == 0:
        scratch = os.path.join(CACHE, "scratch")
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        trace_path = os.path.join(CACHE, "traces", f"{workload.name}-s{args.seed}.json")
        metrics = tracing.traced_run(
            workload, corpus, scratch, ref, op_stats, res.job_s_p50, JOB_TIMEOUT_S, trace_path
        )
        shutil.rmtree(scratch, ignore_errors=True)
    else:
        values = {
            "items_per_s": res.items_per_s,
            "job_s_p50": res.job_s_p50,
            "setup_s": statistics.median(setups),
            "driver_peak_rss_mb": max(r["driver_peak_rss_mb"] for r in records),
            "worker_peak_rss_mb": max(r["worker_peak_rss_mb"] for r in records),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    result = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": metrics,
    }
    if res.timed_out:
        print(f"JobTimeout: {workload.name}: {res.errors[-1]}", file=sys.stderr, flush=True)
        ray.shutdown()
        _finish(result, EXIT_TIMEOUT)
    ray.shutdown()
    _log("host_end", json.dumps({"memtouch_mbps_end": host.memtouch_mbps(),
                                 "loadavg": list(os.getloadavg())}))
    _finish(result)
    return 0 if res.failed == 0 else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
