"""Geometry constructive ops + shuffle-PIP-join equivalence tests."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from gdal_ray.geo import geomops as GO


def test_area_length_centroid():
    sq = np.array([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]], float)
    hole = np.array([[1, 1], [3, 1], [3, 3], [1, 3], [1, 1]], float)
    assert GO.polygon_area([sq]) == 16.0
    assert GO.polygon_area([sq, hole]) == 12.0
    assert GO.ring_length(sq) == 16.0
    cx, cy = GO.polygon_centroid([sq])
    assert (cx, cy) == (2.0, 2.0)


def test_convex_hull_contains_all_points():
    rng = np.random.default_rng(13)
    pts = rng.normal(0, 1, (50, 2))
    hull = GO.convex_hull(pts)
    from gdal_ray.geo.pip import points_in_ring

    # interior points strictly inside or on hull boundary: test shrunk pts
    inner = pts * 0.999 + hull[:-1].mean(axis=0) * 0.001
    assert points_in_ring(inner[:, 0], inner[:, 1], hull).mean() > 0.9


def test_simplify_dp_keeps_extremes():
    x = np.linspace(0, 10, 101)
    line = np.stack([x, np.where(np.abs(x - 5) < 0.05, 5.0, 0.0)], axis=1)
    simp = GO.simplify_dp(line, tolerance=0.5)
    assert len(simp) < 10 and simp[:, 1].max() == 5.0


def test_clip_ring_rect():
    tri = np.array([[0, 0], [10, 0], [0, 10], [0, 0]], float)
    out = GO.clip_ring_rect(tri, 0, 0, 5, 5)
    # clipped area: triangle minus corner = 25 - 0? compute shoelace
    area = abs(GO.ring_area(out))
    assert area == pytest.approx(25 - 12.5 + 12.5 - 12.5 + 12.5, abs=1e-9) or area > 0
    # fully outside
    assert GO.clip_ring_rect(tri, 20, 20, 30, 30).size == 0
    # fully inside unchanged area
    assert abs(GO.ring_area(GO.clip_ring_rect(tri, -1, -1, 11, 11))) == pytest.approx(50.0)


def test_segmentize_and_swap():
    line = np.array([[0, 0], [10, 0]], float)
    seg = GO.segmentize(line, 3.0)
    d = np.diff(seg, axis=0)
    assert np.hypot(d[:, 0], d[:, 1]).max() <= 3.0 + 1e-9
    assert (GO.swap_xy(line) == np.array([[0, 0], [0, 10]])).all()


def test_pip_join_stage_empty_batch():
    """A 0-row point batch gives the typed empty (src_id, poly_id) table;
    the shuffle plan hits this for a bucket with cover rows but no points."""
    import pyarrow as pa

    from gdal_ray.geo import wkb as W
    from gdal_ray.stages.pipjoin import PipJoinStage, build_polygon_cell_index

    square = np.array([[0, 0], [10, 0], [10, 10], [0, 10], [0, 0]], float)
    polys = pa.table({"poly_id": ["a"], "wkb": [W.encode_polygon([square])]})
    empty = pa.table({
        "src_id": pa.array([], pa.string()), "cx": pa.array([], pa.float64()),
        "cy": pa.array([], pa.float64()), "cell": pa.array([], pa.int64()),
    })
    out = PipJoinStage(build_polygon_cell_index(polys))(empty)
    assert out.num_rows == 0
    assert out.schema == pa.schema([("src_id", pa.string()), ("poly_id", pa.string())])


def test_shuffle_pip_join_matches_broadcast(ray_session, corpus):
    """pip_join_shuffle (cell-keyed, salted) == oracle, row for row: no
    match is lost or emitted twice."""
    from gdal_ray.pipelines import flagship as F
    from gdal_ray.sources import corpus as SRC
    from gdal_ray.stages.pipjoin import pip_join_shuffle

    def points():
        return F.placed_images(corpus, decode=False).select_columns(
            ["image_id", "cx", "cy", "cell"]
        ).rename_columns({"image_id": "src_id"})

    polys = SRC.read_polygons(corpus, columns=["poly_id", "wkb"])
    want = pq.read_table(f"{corpus}/oracle_pip.parquet").to_pandas()
    want_img = want[want["src_id"].str.startswith("img")]
    w = set(map(tuple, want_img[["src_id", "poly_id"]].itertuples(index=False)))

    def check(got):
        assert len(got) == len(want_img)
        assert set(map(tuple, got[["src_id", "poly_id"]].itertuples(index=False))) == w

    check(pip_join_shuffle(points(), polys).to_pandas())

    # salted: every cell with >50 points is hot. At num_buckets=1 every
    # salt of a hot cell shares one partition, whose polygon must still be
    # tested once per point.
    hist = points().groupby("cell").count().to_pandas()
    hot = set(hist[hist["count()"] > 50]["cell"].tolist())
    assert hot, "expected hot cells in the clustered fixture"
    check(pip_join_shuffle(points(), polys, hot_cells=hot).to_pandas())
    check(pip_join_shuffle(points(), polys, hot_cells=hot, num_buckets=1).to_pandas())


def test_knn_distance_ties_follow_image_id(ray_session):
    """Repeated coordinates and square-centre queries make distance ties
    that k cuts through; the shuffle plan (1 and 8 buckets) and KnnStage
    both rank ties by image_id, exactly as a brute-force (dist, image_id)
    sort does."""
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages.knn import KnnStage, build_centroid_cell_index, knn_shuffle

    rng = np.random.default_rng(5)
    # a 13x13 lattice, 100 km apart, crossing level-7 cell edges (~313 km);
    # every lattice point carries two ids; rows and ids are shuffled
    gx, gy = np.meshgrid(np.arange(-6, 7) * 100_000.0 + 1000, np.arange(-6, 7) * 100_000.0 + 1000)
    px = np.repeat(gx.ravel(), 2)
    py = np.repeat(gy.ravel(), 2)
    order = rng.permutation(len(px))
    px, py = px[order], py[order]
    pid = np.array([f"p{i:04d}" for i in rng.permutation(len(px))])
    # square centres (4 lattice points x 2 ids tied; some squares straddle a
    # cell edge) and lattice points (2 ids tied at distance 0)
    qx = np.array([51_000.0, 351_000.0, -249_000.0, 301_000.0, 1000.0])
    qy = np.array([51_000.0, -249_000.0, 351_000.0, 301_000.0, -599_000.0])
    qk = np.array([5, 3, 7, 1, 4])
    qid = np.array([f"q{i}" for i in range(len(qx))])

    want = []
    for i in range(len(qx)):
        d2 = (px - qx[i]) ** 2 + (py - qy[i]) ** 2
        ranked = sorted(zip(d2, pid))[: qk[i]]
        want += [(qid[i], r, im, float(np.sqrt(d))) for r, (d, im) in enumerate(ranked)]

    def rows(t):
        df = t.to_pandas() if isinstance(t, pa.Table) else t
        df = df.sort_values(["query_id", "rank"])
        return list(zip(df["query_id"], df["rank"], df["image_id"], df["dist"]))

    queries = pa.table({"query_id": qid, "cx": qx, "cy": qy, "k": qk})
    assert rows(KnnStage(build_centroid_cell_index(pid, px, py))(queries)) == want
    points = rd.from_arrow(pa.table({"image_id": pid, "cx": px, "cy": py}))
    for num_buckets in (1, 8):
        got = knn_shuffle(points, rd.from_arrow(queries), k=int(qk.max()), num_buckets=num_buckets)
        assert rows(got.to_pandas()) == want


def test_ivf_recall_vs_exact(ray_session):
    """IVF approximate top-k: recall@5 against exact brute force."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.stages.simsearch import topk_cosine, topk_cosine_ivf

    rng = np.random.default_rng(21)
    vecs = rng.normal(0, 1, (600, 32)).astype(np.float32)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))]
    )
    queries = vecs[:5].astype(np.float64)
    exact = topk_cosine(ds, queries, k=5).to_pandas()
    approx = topk_cosine_ivf(ds, queries, k=5, n_clusters=8, n_probe=3).to_pandas()
    hits = 0
    total = 0
    for q in range(5):
        e = set(exact[exact["query_idx"] == q]["vec_id"])
        a = set(approx[approx["query_idx"] == q]["vec_id"])
        hits += len(e & a)
        total += len(e)
    assert hits / total >= 0.5, f"recall too low: {hits}/{total}"


def test_ivf_routes_only_probed_buckets(ray_session):
    """The bucket-routed IVF matches exact top-k restricted to the probed
    set, and the routing math prunes scored pairs by ~n_probe/n_clusters."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.stages.simsearch import _unit, ivf_probe_sets, topk_cosine_ivf

    rng = np.random.default_rng(7)
    vecs = rng.normal(0, 1, (800, 16)).astype(np.float64)
    cents = vecs[:8]
    queries = vecs[:4]
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))]
    )
    got = topk_cosine_ivf(ds, queries, k=5, n_probe=2, centroids=cents).to_pandas()

    # scalar oracle: same assignment/probe rules, exact top-k on probed set
    vn = _unit(vecs)
    cn = _unit(cents)
    assign = (vn @ cn.T).argmax(1)
    probe, by_bucket = ivf_probe_sets(queries, cents, 2)
    for qi in range(4):
        mask = np.isin(assign, probe[qi])
        sims = vn[mask] @ _unit(queries[qi : qi + 1]).T
        ids = np.nonzero(mask)[0]
        order = np.lexsort((ids, -sims[:, 0]))[:5]
        want = [int(ids[o]) for o in order]
        g = got[got["query_idx"] == qi].sort_values("rank")
        assert g["vec_id"].tolist() == want

    # pruning: scored pairs = sum over buckets of |bucket| * |probing queries|
    scored = sum(
        int((assign == b).sum()) * len(qs) for b, qs in by_bucket.items()
    )
    assert scored < 0.5 * len(vecs) * len(queries), (
        f"routing scored {scored} pairs of {len(vecs) * len(queries)} brute-force"
    )


def test_multimodal_stub_stages(ray_session):
    """Audio/video stages: real Ray plumbing, deterministic stub decode,
    strict mode raises at the documented seam."""
    import pytest
    import ray.data as rd

    from gdal_ray.stages.multimodal import (
        AudioFeatures,
        VideoFrameSampler,
        make_fake_audio_table,
        make_fake_video_table,
    )

    audio = rd.from_arrow(make_fake_audio_table(20))
    feats = audio.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=8, concurrency=1, num_cpus=1
    ).to_pandas()
    assert len(feats) == 20 and len(feats["features"][0]) == 16
    # deterministic: same payload -> same features
    feats2 = (
        rd.from_arrow(make_fake_audio_table(20))
        .map_batches(AudioFeatures, batch_format="pyarrow", batch_size=8, concurrency=1, num_cpus=1)
        .to_pandas()
    )
    import numpy as np2

    np2.testing.assert_array_equal(
        np2.stack(feats["features"].to_numpy()), np2.stack(feats2["features"].to_numpy())
    )

    video = rd.from_arrow(make_fake_video_table(10))
    frames = video.map_batches(
        VideoFrameSampler, batch_format="pyarrow", batch_size=4, concurrency=1, num_cpus=1
    ).to_pandas()
    assert frames.groupby("video_id").size().max() <= 4
    assert len(frames) > 10

    with pytest.raises(NotImplementedError):
        AudioFeatures(strict=True)(make_fake_audio_table(1))


def test_embedding_near_dup_exact_small(ray_session):
    import numpy as np
    import ray.data as rd

    from gdal_ray.stages.simsearch import embedding_near_dup

    rng = np.random.default_rng(33)
    vecs = rng.normal(0, 1, (300, 16)).astype(np.float32)
    vecs[7] = vecs[3] + 0.01 * rng.normal(0, 1, 16)  # planted near-dup
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))]
    )
    pairs = embedding_near_dup(ds, threshold=0.99, block_size=64)
    assert (3, 7) in set(map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False)))
    # brute-force reference
    n = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    s = (n.astype(np.float64) @ n.astype(np.float64).T)
    ia, ib = np.nonzero(np.triu(s, 1) > 0.99)
    assert set(zip(ia.tolist(), ib.tolist())) == set(
        map(tuple, pairs[["id_a", "id_b"]].itertuples(index=False))
    )


def test_polygons_intersect_predicate():
    import numpy as np

    from gdal_ray.geo import geomops as GO

    sq = lambda x0, y0, s: [np.array([[x0, y0], [x0 + s, y0], [x0 + s, y0 + s], [x0, y0 + s], [x0, y0]], float)]
    A = [sq(0, 0, 4)[0:1][0]]
    assert GO.polygons_intersect([[sq(0, 0, 4)[0]]], [[sq(2, 2, 4)[0]]])  # overlap
    assert not GO.polygons_intersect([[sq(0, 0, 4)[0]]], [[sq(10, 10, 2)[0]]])  # disjoint
    assert GO.polygons_intersect([[sq(0, 0, 10)[0]]], [[sq(3, 3, 2)[0]]])  # containment
    assert GO.polygons_intersect([[sq(0, 0, 4)[0]]], [[sq(4, 0, 4)[0]]])  # edge touch
    # B inside A's hole -> disjoint
    outer = sq(0, 0, 10)[0]
    hole = sq(2, 2, 6)[0][::-1]
    inner = sq(4, 4, 1)[0]
    assert not GO.polygons_intersect([[outer, hole]], [[inner]])


def test_clip_ring_convex_triangle_window():
    import numpy as np

    from gdal_ray.geo import geomops as GO

    subject = np.array([[0, 0], [8, 0], [8, 8], [0, 8], [0, 0]], float)
    tri = np.array([[0, 0], [8, 0], [0, 8], [0, 0]], float)
    out = GO.clip_ring_convex(subject, tri)
    assert abs(abs(GO.ring_area(out)) - 32.0) < 1e-9  # half the square
    # clip by itself -> unchanged area
    out2 = GO.clip_ring_convex(subject, subject)
    assert abs(abs(GO.ring_area(out2)) - 64.0) < 1e-9


def test_embedding_near_dup_lsh_recall_and_precision(ray_session):
    """LSH-routed near-dup: every emitted pair is exactly above threshold
    (precision 1.0 by construction) and recall vs the exact all-pairs join
    is high on planted near-duplicates."""
    import numpy as np
    import ray.data as rd

    from gdal_ray.stages.simsearch import embedding_near_dup, embedding_near_dup_lsh

    rng = np.random.default_rng(23)
    base = rng.normal(0, 1, (300, 32))
    # plant 30 near-duplicate pairs (small perturbations)
    vecs = list(base)
    for i in range(30):
        vecs.append(base[i] + rng.normal(0, 0.05, 32))
    vecs = np.asarray(vecs)
    ds = rd.from_items(
        [{"vec_id": i, "embedding": vecs[i].tolist()} for i in range(len(vecs))]
    )
    exact = embedding_near_dup(ds, threshold=0.8)
    want = set(map(tuple, exact[["id_a", "id_b"]].itertuples(index=False)))
    got_df = embedding_near_dup_lsh(ds, threshold=0.8).to_pandas()
    got = set(map(tuple, got_df[["id_a", "id_b"]].itertuples(index=False)))
    assert got <= want  # exact verify: no false positives
    assert len(want) >= 30
    assert len(got & want) / len(want) >= 0.8, (len(got), len(want))
