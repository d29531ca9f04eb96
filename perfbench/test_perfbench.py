"""Self-tests of the benchmark's own checks (no Ray needed).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading

import pyarrow as pa
import pytest

from perfbench import workloads as W
from perfbench.loop import closed_loop

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A tiny seeded corpus with its generator oracles."""
    from gdal_ray.fixtures import generate

    root = tmp_path_factory.mktemp("fixtures")
    old = generate.FIXTURE_ROOT
    generate.FIXTURE_ROOT = str(root)
    try:
        yield generate.generate_corpus(120, seed=5, pixel_refs=False)
    finally:
        generate.FIXTURE_ROOT = old


def _flagship_like(ref: W.Reference) -> pa.Table:
    """The flagship's output shape, filled with exactly the expected rows."""
    tiles = sorted(ref.tiles)
    pip = sorted(ref.pip_images)
    n_t, n_p = len(tiles), len(pip)
    return pa.table({
        "kind": ["tile"] * n_t + ["pip"] * n_p,
        "src_id": [t[0] for t in tiles] + [p[0] for p in pip],
        "z": pa.array([t[1] for t in tiles] + [None] * n_p, pa.int32()),
        "x": pa.array([t[2] for t in tiles] + [None] * n_p, pa.int64()),
        "y": pa.array([t[3] for t in tiles] + [None] * n_p, pa.int64()),
        "poly_id": [None] * n_t + [p[1] for p in pip],
    })


def _replace(table: pa.Table, col: str, row: int, value) -> pa.Table:
    vals = table[col].to_pylist()
    vals[row] = value
    return table.set_column(table.column_names.index(col), col, pa.array(vals, table[col].type))


def test_expected_rows_pass(corpus):
    ref = W.load_reference(corpus)
    assert ref.tiles and ref.pip_images and ref.knn
    assert W.check_decode_flagship(_flagship_like(ref), ref) is None


def test_corrupted_tile_row_fails_the_job(corpus):
    ref = W.load_reference(corpus)
    bad = _replace(_flagship_like(ref), "x", 0, 10**6)
    assert "tile rows" in W.check_decode_flagship(bad, ref)

    res = closed_loop(lambda: bad, lambda out: W.check_decode_flagship(out, ref),
                      seconds=0, timeout_s=5, items_per_job=120)
    assert (res.attempted, res.failed, res.items, res.job_s) == (1, 1, 0, [])
    assert res.errors[0].startswith("check failed: tile rows")


def test_missing_and_duplicate_pip_rows_fail(corpus):
    ref = W.load_reference(corpus)
    good = _flagship_like(ref)
    n_tiles = len(ref.tiles)
    assert "pip rows" in W.check_decode_flagship(good.slice(0, good.num_rows - 1), ref)
    dup = pa.concat_tables([good, good.slice(n_tiles, 1)])
    assert "duplicate" in W.check_decode_flagship(dup, ref)


def test_corrupted_knn_distance_fails(corpus):
    ref = W.load_reference(corpus)
    rows = sorted(ref.knn.items())
    knn = pa.table({
        "query_id": [k[0] for k, _ in rows],
        "rank": pa.array([k[1] for k, _ in rows], pa.int32()),
        "image_id": [v[0] for _, v in rows],
        "dist": [v[1] for _, v in rows],
    })
    assert W.check_knn(knn, ref) is None
    bad = _replace(knn, "dist", 0, knn["dist"][0].as_py() * (1 + 1e-6))
    assert "knn row" in W.check_knn(bad, ref)


def test_timeout_counts_a_failure_and_ends_the_loop():
    release = threading.Event()
    try:
        res = closed_loop(lambda: release.wait(30), lambda out: None,
                          seconds=60, timeout_s=0.2, items_per_job=1, min_jobs=5)
    finally:
        release.set()
    assert res.timed_out
    assert (res.attempted, res.failed, res.items) == (1, 1, 0)
    assert res.errors[0].startswith("JobTimeout")


def test_raising_job_counts_a_failure_and_the_loop_goes_on():
    calls = []

    def job():
        calls.append(1)
        if len(calls) == 1:
            raise ValueError("boom")
        return "ok"

    res = closed_loop(job, lambda out: None, seconds=0, timeout_s=5, items_per_job=3, min_jobs=2)
    assert (res.attempted, res.failed, res.items, len(res.job_s)) == (2, 1, 3, 1)
    assert not res.timed_out


def test_run_fails_without_the_engine(tmp_path):
    """With only BENCHMARK.json and perfbench/, the command exits non-zero
    and prints no result."""
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_flagship", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_benchmark_json_matches_the_code():
    import json

    from perfbench import run
    from perfbench.tracing import PER_LAYER

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER


def _write_pyramid(out_dir, tiles):
    import numpy as np
    import pyarrow.parquet as pq

    from gdal_ray.io import codec as C

    png = C.encode_png(np.zeros((256, 256, 3), np.uint8))
    part = out_dir / "z_all"
    part.mkdir(parents=True)
    pq.write_table(pa.table({
        "z": pa.array([t[0] for t in tiles], pa.int64()),
        "x": pa.array([t[1] for t in tiles], pa.int64()),
        "y": pa.array([t[2] for t in tiles], pa.int64()),
        "png": pa.array([png] * len(tiles), pa.binary()),
    }), part / "tiles.parquet")


def test_pyramid_check_catches_a_missing_overview_tile(corpus, tmp_path):
    ref = W.load_reference(corpus)
    base = sorted(ref.tile_cover_base)[:3]
    tiles = [(W.TILE_Z_BASE, x, y) for x, y in base]
    tops = sorted({(W.TILE_Z_MIN, x // 2, y // 2) for x, y in base})
    _write_pyramid(tmp_path / "good", tiles + tops)
    summary = {"n_written": len(tiles) + len(tops)}
    assert W.check_pyramid(str(tmp_path / "good"), summary, ref) is None

    _write_pyramid(tmp_path / "bad", tiles + tops[1:])
    summary = {"n_written": len(tiles) + len(tops) - 1}
    assert "parents" in W.check_pyramid(str(tmp_path / "bad"), summary, ref)
