"""Tile pyramid: determinism, overview parity, manifest resume."""

import json
import pathlib
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def small_corpus(ray_session):
    from gdal_ray.fixtures.generate import generate_corpus

    return generate_corpus(300)


@pytest.fixture(scope="module")
def pyramid(ray_session, small_corpus, tmp_path_factory):
    from gdal_ray.pipelines.tiling import tile_pyramid

    out = str(tmp_path_factory.mktemp("tiles"))
    summary = tile_pyramid(small_corpus, out, z_base=5, z_min=3)
    return out, summary


def _read_level(out, z):
    files = sorted(str(p) for p in pathlib.Path(out).glob(f"z{z}_*/tiles.parquet"))
    import pyarrow as pa

    return pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()


def test_base_tiles_cover_every_oracle_tile(pyramid, small_corpus):
    # every z5 (image, tile) oracle assignment must be painted by >=1 source
    base = _read_level(pyramid[0], 5)
    want = pq.read_table(f"{small_corpus}/oracle_tiles.parquet").to_pandas()
    want5 = want[want["z"] == 5]
    got_tiles = set(map(tuple, base[["x", "y"]].itertuples(index=False)))
    # oracle covers bbox tiles; rendered tiles are those where >=1 pixel
    # lands, a subset — but every rendered tile must be in the oracle cover
    assert got_tiles <= set(map(tuple, want5[["x", "y"]].itertuples(index=False)))
    # and the bulk of covered tiles get pixels (sanity against empty output)
    assert len(got_tiles) >= 0.5 * len(set(map(tuple, want5[["x", "y"]].itertuples(index=False))))


def test_overview_parents_match_children(pyramid):
    base = _read_level(pyramid[0], 5)
    ov = _read_level(pyramid[0], 4)
    want_parents = set(zip(base["x"] // 2, base["y"] // 2))
    assert set(zip(ov["x"], ov["y"])) == want_parents
    assert (ov["z"] == 4).all()


def test_overview_downsample_average(pyramid):
    # pick one parent, recompute 2x2 average from children, compare pixels
    from gdal_ray.io import codec as C

    base = _read_level(pyramid[0], 5)
    ov = _read_level(pyramid[0], 4)
    row = ov.iloc[0]
    px, py = int(row["x"]), int(row["y"])
    canvas = np.zeros((512, 512, 3), dtype=np.uint8)
    kids = base[(base["x"] // 2 == px) & (base["y"] // 2 == py)]
    for _, k in kids.iterrows():
        img = C.decode_png(k["png"])[:, :, :3]
        canvas[
            (int(k["y"]) - 2 * py) * 256 : (int(k["y"]) - 2 * py) * 256 + 256,
            (int(k["x"]) - 2 * px) * 256 : (int(k["x"]) - 2 * px) * 256 + 256,
        ] = img
    want = (canvas.reshape(256, 2, 256, 2, 3).astype(np.uint32).sum(axis=(1, 3)) // 4).astype(
        np.uint8
    )
    got = C.decode_png(row["png"])[:, :, :3]
    assert (got == want).all()


def test_compose_inflates_identically_on_both_backends(small_corpus, pyramid, inflate_backends):
    """Composing inflates every partial and mask: run in this process on
    each backend over the base zoom's partials, it makes the PNG tiles the
    pyramid wrote."""
    from gdal_ray.pipelines.flagship import fused_image_apply
    from gdal_ray.pipelines.tiling import _compose_group, render_partial_tiles
    from gdal_ray.stages import geo as G

    partials = fused_image_apply(small_corpus, G.add_bbox_meters).map_batches(
        render_partial_tiles, fn_kwargs={"z": 5}, batch_format="pyarrow").to_pandas()
    base = _read_level(pyramid[0], 5).set_index(["x", "y"])["png"]
    keys = sorted(set(zip(partials["x"], partials["y"])))[:40]
    part = partials[[k in set(keys) for k in zip(partials["x"], partials["y"])]]
    for backend in inflate_backends():
        got = _compose_group(part).set_index(["x", "y"])["png"]
        assert sorted(got.index) == keys, backend
        assert all(got[k] == base[k] for k in keys), backend


def test_resume_skips_and_recomputes_exactly(ray_session, small_corpus, pyramid):
    from gdal_ray.pipelines.tiling import tile_pyramid

    out, _ = pyramid
    s2 = tile_pyramid(small_corpus, out, z_base=5, z_min=3)
    assert s2["n_written"] == 0 and s2["skipped_partitions"] > 0

    recs = sorted(pathlib.Path(out, "_manifest").glob("z5_*.json"))
    rec = json.loads(recs[0].read_text())
    before = _read_level(out, 5)
    recs[0].unlink()
    s3 = tile_pyramid(small_corpus, out, z_base=5, z_min=3)
    assert s3["n_written"] == rec["n_rows"]
    after = _read_level(out, 5)
    # recomputed partition is byte-identical (deterministic compose order)
    b = before.sort_values(["z", "x", "y"]).reset_index(drop=True)
    a = after.sort_values(["z", "x", "y"]).reset_index(drop=True)
    assert (a["png"] == b["png"]).all()


def test_resume_after_overview_level_kill(ray_session, small_corpus, pyramid):
    """A run killed mid-OVERVIEW (one z4 parent group + its manifest record
    gone) resumes by recomputing exactly that group — base zoom untouched."""
    from gdal_ray.pipelines.tiling import tile_pyramid

    out, _ = pyramid
    tile_pyramid(small_corpus, out, z_base=5, z_min=3)  # ensure complete
    recs = sorted(pathlib.Path(out, "_manifest").glob("z4_*.json"))
    assert recs, "overview partitions must be manifest-tracked"
    rec = json.loads(recs[0].read_text())
    before = _read_level(out, 4)
    recs[0].unlink()
    shutil.rmtree(pathlib.Path(out) / rec["partition_id"])
    s = tile_pyramid(small_corpus, out, z_base=5, z_min=3)
    assert s["n_written"] == rec["n_rows"]
    after = _read_level(out, 4)
    b = before.sort_values(["z", "x", "y"]).reset_index(drop=True)
    a = after.sort_values(["z", "x", "y"]).reset_index(drop=True)
    assert len(a) == len(b) and (a["png"] == b["png"]).all()


def test_flagship_checkpointed_resume(ray_session, corpus, tmp_path):
    """Checkpointed flagship: partitioned output + cell-histogram manifest,
    killed-run resume recomputes only the missing partition."""
    import json

    import pyarrow.parquet as pq2

    from gdal_ray.pipelines.checkpointed import flagship_checkpointed

    out = str(tmp_path / "ckpt")
    s1 = flagship_checkpointed(corpus, out)
    assert s1["written_partitions"] > 1 and s1["n_rows"] > 0
    # output rows = oracle tiles + oracle pip(img) rows
    parts = sorted(pathlib.Path(out).glob("cellpart=*/rows.parquet"))
    rows = sum(pq2.read_metadata(str(p)).num_rows for p in parts)
    want_tiles = pq2.read_metadata(f"{corpus}/oracle_tiles.parquet").num_rows
    pipdf = pq2.read_table(f"{corpus}/oracle_pip.parquet").to_pandas()
    want_pip = int(pipdf["src_id"].str.startswith("img").sum())
    assert rows == want_tiles + want_pip == s1["n_rows"]
    # manifest carries cell histograms
    recs = json.loads(next(pathlib.Path(out, "_manifest").glob("*.json")).read_text())
    assert recs["cell_hist"] and sum(recs["cell_hist"].values()) == recs["n_rows"]

    s2 = flagship_checkpointed(corpus, out)
    assert s2["written_partitions"] == 0 and s2["skipped_partitions"] == s1["written_partitions"]

    # simulate a killed run: drop one manifest record + its partition dir
    victim = sorted(pathlib.Path(out, "_manifest").glob("*.json"))[0]
    vrec = json.loads(victim.read_text())
    victim.unlink()
    shutil.rmtree(pathlib.Path(out) / f"cellpart={vrec['partition_id']}")
    s3 = flagship_checkpointed(corpus, out)
    assert s3["written_partitions"] == 1 and s3["n_rows"] == vrec["n_rows"]
    rows_after = sum(
        pq2.read_metadata(str(p)).num_rows
        for p in sorted(pathlib.Path(out).glob("cellpart=*/rows.parquet"))
    )
    assert rows_after == rows


def test_manifest_driven_salting(ray_session, corpus, tmp_path):
    """Run N writes histograms; run N+1's shuffle PIP join salts from them
    and still produces exactly the oracle rows."""
    from gdal_ray.pipelines.checkpointed import (
        flagship_checkpointed,
        pip_join_salted_from_manifest,
    )
    from gdal_ray.state.manifest import Manifest

    out = str(tmp_path / "ckpt2")
    flagship_checkpointed(corpus, out)
    m = Manifest(out)
    assert m.hot_cells(cap=1), "fixture histograms must expose hot cells"

    got = pip_join_salted_from_manifest(corpus, out).to_pandas()
    want = pq.read_table(f"{corpus}/oracle_pip.parquet").to_pandas()
    want_img = want[want["src_id"].str.startswith("img")]
    g = set(map(tuple, got[["src_id", "poly_id"]].itertuples(index=False)))
    w = set(map(tuple, want_img[["src_id", "poly_id"]].itertuples(index=False)))
    assert g == w


def test_export_tile_tree_matches_parquet(pyramid, tmp_path):
    """The z/x/y.png directory tree is byte-identical to the parquet tiles
    (gdal2tiles sink layout), XYZ and TMS conventions both correct, and a
    re-export skips every existing file (resume semantics)."""
    from gdal_ray.pipelines.tiling import export_tile_tree

    out, _ = pyramid
    tree = tmp_path / "tree"
    s = export_tile_tree(out, str(tree), xyz=True)
    rows = 0
    for z in (5, 4, 3):
        df = _read_level(out, z)
        rows += len(df)
        for _, r in df.iterrows():
            f = tree / str(int(r["z"])) / str(int(r["x"])) / f"{int(r['y'])}.png"
            assert f.exists()
            assert f.read_bytes() == r["png"]
    assert s["n_written"] == rows and s["n_skipped"] == 0
    assert (tree / "tilemapresource.xml").exists()
    assert "EPSG:3857" in (tree / "tilemapresource.xml").read_text()
    # idempotent rerun: everything skipped
    s2 = export_tile_tree(out, str(tree), xyz=True)
    assert s2["n_written"] == 0 and s2["n_skipped"] == rows
    # TMS flips y
    tms = tmp_path / "tms"
    export_tile_tree(out, str(tms), xyz=False)
    df5 = _read_level(out, 5)
    r0 = df5.iloc[0]
    yflip = (1 << int(r0["z"])) - 1 - int(r0["y"])
    assert (tms / str(int(r0["z"])) / str(int(r0["x"])) / f"{yflip}.png").exists()
