"""End-to-end flagship pipeline vs precomputed scalar oracles (FIXTURES.md
invariants 1-2): exact tile assignment, exact PIP join rows, exact kNN,
decode invariants (PSNR/allclose + caption byte-equality + phash check)."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _setof(df, cols):
    return set(map(tuple, df[cols].itertuples(index=False)))


@pytest.fixture(scope="module")
def placed(ray_session, corpus):
    from gdal_ray.pipelines import flagship as F

    return F.placed_images(corpus, decode=True).materialize()


def test_tile_assignments_exact(ray_session, corpus, placed):
    from gdal_ray.pipelines import flagship as F

    tiles = F.tile_assignments(placed).to_pandas()
    want = pq.read_table(f"{corpus}/oracle_tiles.parquet").to_pandas()
    assert _setof(tiles, ["image_id", "z", "x", "y"]) == _setof(want, ["image_id", "z", "x", "y"])
    assert len(tiles) == len(want)  # no duplicate rows either


def test_pip_join_exact(ray_session, corpus, placed):
    from gdal_ray.pipelines import flagship as F

    got = F.pip_join_images(placed, corpus).to_pandas()
    qgot = F.pip_join_query_points(corpus).to_pandas()
    want = pq.read_table(f"{corpus}/oracle_pip.parquet").to_pandas()
    all_got = _setof(got, ["src_id", "poly_id"]) | _setof(qgot, ["src_id", "poly_id"])
    assert all_got == _setof(want, ["src_id", "poly_id"])


_TWO_SESSIONS = """
import sys

import ray
from ray.data import DataContext

from gdal_ray.pipelines import flagship as F

builds = []
build_index = F.build_centroid_cell_index
F.build_centroid_cell_index = lambda *a: builds.append(1) or build_index(*a)
for _ in range(2):
    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    DataContext.get_current().enable_progress_bars = False
    print("COUNT", F.pip_join_query_points(sys.argv[1]).count())
    knn = [F.knn_images(sys.argv[1]).count() for _ in range(2)]
    print("KNN", *knn, len(builds))
    ray.shutdown()
"""


def test_broadcast_pip_after_ray_restart(ray_session, corpus):
    """The cached broadcast refs (polygon index, kNN centroid index) belong
    to one Ray session: after ray.shutdown(); ray.init() in the same
    process the broadcast PIP and kNN must build fresh refs, not reuse the
    dead session's ("owner is unknown"), and within a session two kNN calls
    build the centroid index once. Runs in a subprocess so the shared test
    session is left alone."""
    import os
    import subprocess
    import sys

    from gdal_ray.pipelines import flagship as F

    want = F.pip_join_query_points(corpus).count()
    want_knn = F.knn_images(corpus).count()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run([sys.executable, "-c", _TWO_SESSIONS, corpus], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = [ln.split()[1] for ln in proc.stdout.splitlines() if ln.startswith("COUNT ")]
    assert counts == [str(want), str(want)]
    knn = [ln.split()[1:] for ln in proc.stdout.splitlines() if ln.startswith("KNN ")]
    assert knn == [[str(want_knn), str(want_knn), "1"], [str(want_knn), str(want_knn), "2"]]


def test_knn_exact(ray_session, corpus):
    from gdal_ray.pipelines import flagship as F

    got = F.knn_images(corpus).to_pandas()
    want = pq.read_table(f"{corpus}/oracle_knn.parquet").to_pandas()
    assert _setof(got, ["query_id", "rank", "image_id"]) == _setof(
        want, ["query_id", "rank", "image_id"]
    )
    # distances agree
    g = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    w = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_allclose(g["dist"], w["dist"], rtol=1e-9)


def test_knn_exact_shuffle_path(ray_session, corpus):
    """The co-partitioned shuffle kNN (no broadcast index) matches the same
    precomputed oracle as the broadcast path."""
    from gdal_ray.pipelines import flagship as F

    got = F.knn_images_shuffle(corpus).to_pandas()
    want = pq.read_table(f"{corpus}/oracle_knn.parquet").to_pandas()
    assert _setof(got, ["query_id", "rank", "image_id"]) == _setof(
        want, ["query_id", "rank", "image_id"]
    )
    g = got.sort_values(["query_id", "rank"]).reset_index(drop=True)
    w = want.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_allclose(g["dist"], w["dist"], rtol=1e-9)


def test_task_bounds_pack_consecutive_units():
    """Read tasks: min(units, max(cpus, ceil(bytes / target))) contiguous,
    non-empty, in-order groups of whole units, about equal in bytes."""
    from gdal_ray.pipelines import flagship as F

    mib = 1 << 20
    meta = [4466, 4466, 4466, 4071]  # (image_id, w, h) of the 1k-image corpus
    payload = [6606294, 7563279, 7592375, 6216488]  # + (bytes, fmt)
    singles = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert F._task_bounds(meta, 1, mib) == [(0, 4)]
    assert F._task_bounds(meta, 2, mib) == [(0, 2), (2, 4)]
    assert F._task_bounds(meta, 32, mib) == singles
    for cpus in (1, 2, 32):
        assert F._task_bounds(payload, cpus, mib) == singles

    rng = np.random.default_rng(0)
    sizes = rng.integers(0, 3 * mib, 40).tolist()
    for cpus in (1, 2, 32):
        bounds = F._task_bounds(sizes, cpus, 8 * mib)
        want_n = min(len(sizes), max(cpus, -(-sum(sizes) // (8 * mib))))
        assert len(bounds) == want_n
        assert bounds[0][0] == 0 and bounds[-1][1] == len(sizes)
        assert all(a < b for a, b in bounds)
        assert all(b == a2 for (_, b), (a2, _) in zip(bounds, bounds[1:]))
        share = sum(sizes) / want_n
        assert all(sum(sizes[a:b]) <= share + max(sizes[a:b]) for a, b in bounds)


def test_fused_source_rejects_non_cosharded_corpus(tmp_path):
    """Images and placements must be like-named part files: any other
    layout is an input error, not a slower plan."""
    from gdal_ray.pipelines import flagship as F

    for table, part in (("images", "part-00000"), ("placements", "other-00000")):
        (tmp_path / f"{table}.parquet").mkdir()
        pq.write_table(pa.table({"image_id": ["a"]}), tmp_path / f"{table}.parquet" / part)
    with pytest.raises(ValueError, match="like-named part files"):
        F.placed_images(str(tmp_path), decode=False)


def test_fused_source_sized_by_read_bytes(ray_session, corpus, monkeypatch):
    """At 2 Ray CPUs the metadata-only source packs the corpus' 4 row
    groups into 2 read tasks, the payload source keeps one task per row
    group, and the packed output equals the one-task-per-row-group output
    row for row, order included."""
    import ray
    from ray.data import DataContext

    from gdal_ray.pipelines import flagship as F

    monkeypatch.setattr(DataContext.get_current().execution_options, "preserve_order", True)

    def run(ds):
        # one output block per read task
        mat = ds.materialize()
        return mat.num_blocks(), pa.concat_tables(ray.get(mat.to_arrow_refs()))

    monkeypatch.setattr(F, "cluster_cpus", lambda: 2)
    n_meta, packed = run(F.placed_images(corpus, decode=False))
    n_payload, _ = run(F.decoded_places(corpus))
    assert (n_meta, n_payload) == (2, 4)
    monkeypatch.setattr(F, "cluster_cpus", lambda: 32)
    n_one, per_row_group = run(F.placed_images(corpus, decode=False))
    assert n_one == 4
    assert packed.equals(per_row_group)


def test_decode_invariants(ray_session, corpus, placed):
    df = placed.to_pandas()
    # phash recomputed from decoded pixels equals the stored column
    assert (df["phash_check"] == df["phash"]).all()
    # captions intact and keyed by image_id
    assert df.apply(lambda r: r["image_id"] in r["caption"], axis=1).all()


def test_decode_pixels_match_reference(ray_session, corpus):
    """allclose (png) / PSNR>=40dB (lossy) against stored reference pixels."""
    import pandas as pd

    from gdal_ray.io import codec as C
    from gdal_ray.sources import corpus as SRC

    sample = SRC.read_images(corpus).limit(64).to_pandas()
    for _, row in sample.iterrows():
        ref = np.load(f"{corpus}/pixels_ref/{row['image_id']}.npy")
        dec = C.decode_image(row["bytes"], row["fmt"])
        if row["fmt"] == "png":
            assert (dec == ref).all(), row["image_id"]
        else:
            assert C.psnr(ref, dec) >= 40.0, row["image_id"]


def test_cell_histogram_matches_oracle(ray_session, corpus, placed):
    from ray.data.aggregate import Count

    hist = (
        placed.groupby("cell")
        .aggregate(Count(alias_name="n_images"))
        .to_pandas()
        .sort_values("cell")
        .reset_index(drop=True)
    )
    want = (
        pq.read_table(f"{corpus}/oracle_cell_hist.parquet")
        .to_pandas()
        .sort_values("cell")
        .reset_index(drop=True)
    )
    assert (hist["cell"].to_numpy() == want["cell"].to_numpy()).all()
    assert (hist["n_images"].to_numpy() == want["n_images"].to_numpy()).all()


def test_near_dup_contains_planted_duplicates(ray_session, corpus):
    """FIXTURES invariant 3: every planted near-duplicate (img i-1, i for
    i % 100 == 99) is found by the banded-LSH + hamming<=2 pipeline."""
    from gdal_ray.sources import corpus as SRC
    from gdal_ray.stages.dedup import near_dup_image_pairs

    imgs = SRC.read_images(corpus, columns=["image_id", "phash"])
    pairs = near_dup_image_pairs(imgs).to_pandas()
    found = set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    n = SRC.read_images(corpus, columns=["image_id"]).count()
    planted = {(f"img{i-1:08d}", f"img{i:08d}") for i in range(99, n, 100)}
    assert planted <= found, f"missing {sorted(planted - found)[:5]}"


def test_degenerate_band_group_bounded_memory(ray_session):
    """10k identical phashes (one shared band key — the pathological corpus
    of constant-color thumbnails): pair expansion must complete in bounded
    tiles (no O(n^2) single allocation) and still emit EXACTLY the full
    n*(n-1)/2 pair set, each pair once (first-matching-band rule)."""
    import ray.data as rd

    from gdal_ray.stages.dedup import _GROUP_CAP, _pair_tiles, near_dup_image_pairs

    n = 3_000  # > _GROUP_CAP so the tiled path runs; 4.5M pairs keeps the
    # 4-CPU test session fast (10k was verified once: 50M pairs, ~6 min)
    assert n > _GROUP_CAP  # the test must actually exercise the tiled path
    ds = rd.from_items(
        [{"image_id": f"dup{i:05d}", "phash": 0x1234_5678_9ABC_DEF0} for i in range(n)]
    )
    pairs = near_dup_image_pairs(ds)
    assert pairs.count() == n * (n - 1) // 2

    # tile generator covers the strict upper triangle exactly once
    m = 2 * _GROUP_CAP + 17
    got = np.zeros((m, m), dtype=np.int32)
    for ia, ib in _pair_tiles(m):
        assert len(ia) <= _GROUP_CAP * _GROUP_CAP
        assert (ia < ib).all()
        got[ia, ib] += 1
    assert (got == np.triu(np.ones((m, m), dtype=np.int32), k=1)).all()


def _row_group():
    """Row group 0 of the test corpus with its placements, as the fused
    source hands it to the flagship's decode kernel (read in-process)."""
    import glob

    from gdal_ray.fixtures.generate import generate_corpus
    from gdal_ray.pipelines import flagship as F

    corpus = generate_corpus(1000)
    img = sorted(glob.glob(f"{corpus}/images.parquet/*.parquet"))[0]
    plc = img.replace("images.parquet", "placements.parquet")
    t = pq.ParquetFile(img).read_row_group(0, columns=["image_id", "bytes", "fmt", "w", "h"])
    return F._take_placements(t, plc)


def _with_payload(t, i, blob, fmt):
    """``t`` with row ``i``'s payload replaced."""
    import pyarrow as pa

    blobs, fmts = t["bytes"].to_pylist(), t["fmt"].to_pylist()
    blobs[i], fmts[i] = blob, fmt
    t = t.set_column(t.schema.get_field_index("bytes"), "bytes", pa.array(blobs, pa.binary()))
    return t.set_column(t.schema.get_field_index("fmt"), "fmt", pa.array(fmts, pa.string()))


def test_flagship_kernel_raises_on_corrupt_payload():
    """The headline drops the decoded pixels but still decodes every
    payload: a truncated JPEG or a 'png' without the PNG signature fails."""
    from gdal_ray.pipelines import flagship as F

    t = _row_group()
    fmts = t["fmt"].to_pylist()
    j = fmts.index("jpeg")
    jpeg = t["bytes"][j].as_py()
    png = t["bytes"][fmts.index("png")].as_py()
    F._decoded_geo(t)  # intact row group decodes
    with pytest.raises(ValueError):
        F._decoded_geo(_with_payload(t, j, jpeg[: len(jpeg) // 2], "jpeg"))
    with pytest.raises(ValueError):
        F._decoded_geo(_with_payload(t, j, b"\x00" + png[1:], "png"))


def test_flagship_kernel_skips_dropped_stats(monkeypatch):
    """The flagship kernel's rows are the stats kernel's rows minus the
    stats, and it computes no pHash or checksum to get them."""
    from gdal_ray.io import phash as PH
    from gdal_ray.pipelines import flagship as F
    from gdal_ray.raster import checksum as CK

    t = _row_group()
    stats = ["mean", "std", "minv", "maxv", "checksum", "phash_check"]
    want = F._decode_geo(t).drop_columns(stats)
    assert F._decoded_geo(t).equals(want)

    def boom(*a, **k):
        raise AssertionError("dropped stat computed")

    monkeypatch.setattr(PH, "phash64", boom)
    monkeypatch.setattr(CK, "checksum_image", boom)
    assert F._decoded_geo(t).equals(want)
    with pytest.raises(AssertionError):
        F._decode_geo(t)
