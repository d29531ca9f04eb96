"""Raster kernel semantics (translate/resample/DEM/proximity/sieve/fill/
contour/grid) vs straightforward scalar references."""

import numpy as np
import pytest

from gdal_ray.raster import kernels as K
from gdal_ray.raster.contour import contour_lines, contour_segments
from gdal_ray.raster.grid import grid_points


def test_translate_rescale_cast():
    img = np.arange(64, dtype=np.uint8).reshape(8, 8)
    assert (K.translate_window(img, 2, 1, 4, 3) == img[1:4, 2:6]).all()
    out = K.rescale_linear(img, 2.0, 10.0)
    assert out.dtype == np.uint8 and out[0, 5] == 20 and out.max() == 136
    assert K.cast_clip(np.array([-3.2, 310.7]), np.uint8).tolist() == [0, 255]
    assert K.cast_clip(np.array([1.5, 2.49]), np.int32).tolist() == [2, 2]


def test_resample_nearest_identity_and_decimate():
    img = np.arange(16, dtype=np.uint8).reshape(4, 4)
    assert (K.resample_nearest(img, 4, 4) == img).all()
    half = K.resample_nearest(img, 2, 2)
    assert half.shape == (2, 2)
    avg = K.resample_average(img, 2)
    want = img.reshape(2, 2, 2, 2).mean(axis=(1, 3))
    assert np.allclose(avg, np.floor(want + 0.5))


def test_resample_bilinear_constant_preserved():
    img = np.full((5, 7), 42.0)
    out = K.resample_bilinear(img, 10, 14)
    assert np.allclose(out, 42.0)


def test_reclassify():
    img = np.array([[1, 2], [3, 1]])
    out = K.reclassify(img, {1: 9})
    assert out.tolist() == [[9, 2], [3, 9]]
    out = K.reclassify(img, {1: 9}, default=0)
    assert out.tolist() == [[9, 0], [0, 9]]


def _scalar_win(dem, i, j):
    """Edge-clamped 3x3 window, row-major, row0=north (kernels._windows)."""
    h, w = dem.shape
    out = []
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            y = min(max(i + dy, 0), h - 1)
            x = min(max(j + dx, 0), w - 1)
            out.append(float(dem[y, x]))
    return out


def test_dem_kernels_match_scalar_formulas():
    rng = np.random.default_rng(9)
    dem = rng.uniform(0, 100, (12, 15))
    hs = K.hillshade(dem, ewres=1.0, nsres=-1.0)
    sl = K.slope_horn(dem)
    tp = K.tpi(dem)
    tr = K.tri(dem, "riley")
    tw = K.tri(dem, "wilson")
    ro = K.roughness(dem)
    for i, j in [(0, 0), (3, 4), (11, 14), (5, 0)]:
        w = _scalar_win(dem, i, j)
        x = ((w[0] + w[3] + w[3] + w[6]) - (w[2] + w[5] + w[5] + w[8])) / (8.0 * 1.0)
        y = ((w[6] + w[7] + w[7] + w[8]) - (w[0] + w[1] + w[1] + w[2])) / (8.0 * -1.0)
        slope = np.arctan(np.sqrt(x * x + y * y))
        asp = np.arctan2(y, x)
        az, alt = np.radians(315.0), np.radians(45.0)
        cang = np.sin(alt) * np.cos(slope) + np.cos(alt) * np.sin(slope) * np.cos(
            az - np.pi / 2 - asp
        )
        want_hs = 1.0 if cang <= 0 else 1.0 + 254.0 * cang
        assert hs[i, j] == np.uint8(want_hs)
        dx = ((w[0] + w[3] + w[3] + w[6]) - (w[2] + w[5] + w[5] + w[8])) / 1.0
        dy = ((w[6] + w[7] + w[7] + w[8]) - (w[0] + w[1] + w[1] + w[2])) / 1.0
        assert sl[i, j] == pytest.approx(
            np.arctan(np.sqrt(dx * dx + dy * dy) / 8.0) * 180 / np.pi, rel=1e-6
        )
        c = w[4]
        others = [w[k] for k in (0, 1, 2, 3, 5, 6, 7, 8)]
        assert tp[i, j] == pytest.approx(c - sum(others) / 8.0, rel=1e-5, abs=1e-5)
        assert tr[i, j] == pytest.approx(np.sqrt(sum((o - c) ** 2 for o in others)), rel=1e-6)
        assert tw[i, j] == pytest.approx(sum(abs(o - c) for o in others) / 8.0, rel=1e-5)
        assert ro[i, j] == pytest.approx(max(w) - min(w), rel=1e-6)


def test_proximity_exact_euclidean():
    mask = np.zeros((9, 11), dtype=bool)
    mask[2, 3] = True
    mask[7, 9] = True
    d = K.proximity(mask)
    ys, xs = np.mgrid[0:9, 0:11]
    want = np.minimum(np.hypot(ys - 2, xs - 3), np.hypot(ys - 7, xs - 9))
    assert np.allclose(d, want)


def test_sieve_removes_small_regions():
    a = np.zeros((8, 8), np.int32)
    a[0:4, 0:4] = 1
    a[6, 6] = 5  # 1-pixel speck
    out = K.sieve(a, threshold=2)
    assert (out[6, 6] == 0) and (out[0:4, 0:4] == 1).all()


def test_fillnodata():
    a = np.full((5, 5), 10.0)
    a[2, 2] = -1
    out = K.fillnodata(a, nodata=-1)
    assert out[2, 2] == pytest.approx(10.0)


def test_histogram_partials_sum_to_global():
    rng = np.random.default_rng(10)
    imgs = [rng.integers(0, 256, (16, 16)).astype(np.uint8) for _ in range(5)]
    partials = [K.histogram(im) for im in imgs]
    total = np.sum(partials, axis=0)
    want = np.bincount(np.concatenate([im.ravel() for im in imgs]), minlength=256)
    assert (total == want).all()


def test_pixel_functions():
    a = np.array([[4.0, 9.0]])
    b = np.array([[2.0, 3.0]])
    F = K.PIXEL_FUNCTIONS
    assert (F["sum"]([a, b]) == [[6, 12]]).all()
    assert (F["diff"]([a, b]) == [[2, 6]]).all()
    assert (F["mul"]([a, b]) == [[8, 27]]).all()
    assert (F["div"]([a, b]) == [[2, 3]]).all()
    assert np.allclose(F["norm_diff"]([a, b]), [[2 / 6, 6 / 12]])
    assert np.allclose(F["sqrt"]([a]), [[2, 3]])
    assert np.allclose(F["geometric_mean"]([a, b]), [[np.sqrt(8), np.sqrt(27)]])


def test_contour_circle_levels():
    ys, xs = np.mgrid[0:40, 0:40]
    arr = np.hypot(ys - 20, xs - 20)
    lines = contour_lines(arr, [10.0])
    assert lines, "no contours found"
    pts = np.concatenate([l["coords"] for l in lines])
    # all contour points lie near radius 10 around (20.5, 20.5) pixel centers
    r = np.hypot(pts[:, 0] - 20.5, pts[:, 1] - 20.5)
    assert abs(r.mean() - 10.0) < 0.2 and r.std() < 0.2


def test_contour_segment_endpoints_interpolate_to_level():
    rng = np.random.default_rng(12)
    arr = rng.uniform(0, 1, (10, 10))
    segs = contour_segments(arr, 0.5)
    assert len(segs) > 0


def test_grid_invdist_and_nearest():
    px = np.array([0.5, 3.5])
    py = np.array([0.5, 3.5])
    pv = np.array([10.0, 30.0])
    gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    g = grid_points(px, py, pv, 4, 4, gt, algorithm="invdist")
    # node exactly on a point -> exact value
    assert g[0, 0] == 10.0 and g[3, 3] == 30.0
    assert 10.0 < g[1, 1] < 30.0
    n = grid_points(px, py, pv, 4, 4, gt, algorithm="nearest")
    assert n[0, 0] == 10.0 and n[3, 3] == 30.0 and n[0, 3] in (10.0, 30.0)
    c = grid_points(px, py, pv, 4, 4, gt, algorithm="count", radius=1.0)
    assert c[0, 0] == 1 and c[1, 2] == 0
    a = grid_points(px, py, pv, 4, 4, gt, algorithm="average", radius=10.0)
    assert np.allclose(a, 20.0)


def test_grid_average_empty_nodes_warn_nothing():
    """Nodes with no point inside the radius get nodata without numpy's
    "Mean of empty slice" warning; the others equal nanmean bit for bit."""
    import warnings

    rng = np.random.default_rng(3)
    px, py = rng.uniform(0, 30, 40), rng.uniform(0, 20, 40)
    pv = rng.normal(50.0, 20.0, 40)
    gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = grid_points(px, py, pv, 30, 20, gt, algorithm="average", radius=2.0, nodata=-9.0)
    cols, rows = np.meshgrid(np.arange(30) + 0.5, np.arange(20) + 0.5)
    d2 = (cols.ravel()[:, None] - px) ** 2 + (rows.ravel()[:, None] - py) ** 2
    inside = d2 <= 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = np.nanmean(np.where(inside, pv, np.nan), axis=1)
    want = np.where(inside.any(axis=1), want, -9.0).reshape(20, 30)
    assert (~inside.any(axis=1)).sum() > 0 and inside.any(axis=1).sum() > 0
    assert np.array_equal(got, want)


def test_warp_identity_same_srs():
    from gdal_ray.raster.warp import warp_image

    rng = np.random.default_rng(14)
    img = rng.integers(0, 256, (20, 30, 3), dtype=np.uint8)
    gt = (1000.0, 10.0, 0.0, 2000.0, 0.0, -10.0)
    out, ogt = warp_image(img, gt, "EPSG:3857", "EPSG:3857")
    assert out.shape == img.shape
    assert (out == img).all()  # same grid -> nearest hits each src pixel


def test_warp_roundtrip_4326_3857():
    from gdal_ray.raster.warp import warp_image

    rng = np.random.default_rng(15)
    img = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    # 0.01-degree pixels near Paris
    gt = (2.0, 0.01, 0.0, 49.0, 0.0, -0.01)
    merc, mgt = warp_image(img, gt, "EPSG:4326", "EPSG:3857")
    back, bgt = warp_image(merc, mgt, "EPSG:3857", "EPSG:4326")
    assert merc.shape == img.shape and back.shape == img.shape
    # nearest-neighbor round trip: interior mostly identical
    interior = (slice(2, -2), slice(2, -2))
    agree = (back[interior] == img[interior]).mean()
    assert agree > 0.7, agree


def test_warp_bilinear_smooth_field():
    from gdal_ray.raster.warp import warp_image

    ys, xs = np.mgrid[0:40, 0:40]
    img = (xs * 3 + ys * 2).astype(np.float64)
    gt = (0.0, 1.0, 0.0, 40.0, 0.0, -1.0)
    out, ogt = warp_image(img, gt, "EPSG:3857", "EPSG:3857", resampling="bilinear")
    # linear field is reproduced exactly by bilinear sampling on same grid
    assert np.allclose(out[1:-1, 1:-1], img[1:-1, 1:-1])


def test_nearblack_collar_only():
    from gdal_ray.raster.kernels import nearblack

    img = np.full((6, 10, 3), 128, dtype=np.uint8)
    img[:, :2] = 3          # left collar (near black)
    img[2, 7:] = 10         # right collar on one row
    img[3, 5] = 0           # interior black pixel: must be untouched
    out, changed = nearblack(img, threshold=15)
    assert (out[:, :2] == 0).all()
    assert (out[2, 7:] == 0).all()
    assert out[3, 5, 0] == 0 or img[3, 5, 0] == 0  # unchanged (already 0 in input? no: stays 0 value but untouched)
    # interior pixel not zeroed by the scan: neighbors at (3,4) still 128
    assert out[3, 4, 0] == 128 and out[3, 6, 0] == 128
    assert changed == 6 * 2 + 3

    # white collar variant
    img2 = np.full((4, 6, 3), 100, dtype=np.uint8)
    img2[:, -1] = 250
    out2, ch2 = nearblack(img2, threshold=10, white=True, set_value=255)
    assert (out2[:, -1] == 255).all() and ch2 == 4


def test_pansharpen_brovey_identity_and_ratio():
    from gdal_ray.raster.kernels import pansharpen_brovey, resample_bilinear

    rng = np.random.default_rng(9)
    ms = rng.integers(40, 200, (8, 8, 3)).astype(np.uint8)
    up = resample_bilinear(ms, 16, 16).astype(np.float64)
    # pan equal to the pseudo-pan -> output equals the upsampled ms exactly
    pan = up.mean(axis=2)
    out = pansharpen_brovey(ms, pan)
    assert np.abs(out.astype(int) - np.clip(up + 0.5, 0, 255).astype(int)).max() <= 1
    # doubling pan doubles every band (up to clipping)
    out2 = pansharpen_brovey(ms, np.minimum(pan * 2, 255))
    mask = (up.max(axis=2) * 2 < 250)
    ratio = out2[mask].astype(float) / np.maximum(out[mask].astype(float), 1)
    assert (np.abs(ratio - 2.0) < 0.15).mean() > 0.9


def test_resample_cubic_lanczos_properties():
    from gdal_ray.raster.kernels import resample_cubic, resample_lanczos

    # constant image invariance
    const = np.full((16, 16), 77.0)
    for fn in (resample_cubic, resample_lanczos):
        out = fn(const, 32, 32)
        np.testing.assert_allclose(out, 77.0, atol=1e-9)
        out = fn(const, 8, 8)
        np.testing.assert_allclose(out, 77.0, atol=1e-9)

    # cubic convolution reproduces linear ramps exactly in the interior
    ramp = np.add.outer(np.arange(32, dtype=np.float64), 2 * np.arange(32, dtype=np.float64))
    up = resample_cubic(ramp, 64, 64)
    ys = (np.arange(64) + 0.5) * 0.5 - 0.5
    want = np.add.outer(ys, 2 * ys)
    inner = slice(4, -4)
    np.testing.assert_allclose(up[inner, inner], want[inner, inner], atol=1e-9)

    # lanczos approximates the ramp closely in the interior
    upl = resample_lanczos(ramp, 64, 64)
    assert np.abs(upl[inner, inner] - want[inner, inner]).max() < 0.15


def test_resample_mode_majority_and_ties():
    from gdal_ray.raster.kernels import resample_mode

    img = np.array(
        [
            [1, 1, 2, 3],
            [1, 9, 2, 2],
            [5, 5, 7, 7],
            [5, 6, 8, 8],
        ],
        dtype=np.uint8,
    )
    out = resample_mode(img, 2)
    assert out[0, 0] == 1      # clear majority 3x '1'
    assert out[0, 1] == 2      # majority 3x '2'
    assert out[1, 0] == 5      # majority 3x '5'
    assert out[1, 1] == 7      # tie 2x7 / 2x8 -> smallest value wins


def test_delaunay_empty_circumcircle_property():
    from gdal_ray.raster.grid import delaunay_triangulate

    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 100, (40, 2))
    tris = delaunay_triangulate(pts)
    assert len(tris) >= 40  # ~2n triangles for random points
    # every triangle's circumcircle must be empty of other points
    for (i, j, k) in tris:
        a, b, c = pts[i], pts[j], pts[k]
        d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
        ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
        uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
        r2 = (a[0] - ux) ** 2 + (a[1] - uy) ** 2
        dist2 = (pts[:, 0] - ux) ** 2 + (pts[:, 1] - uy) ** 2
        others = np.ones(len(pts), dtype=bool)
        others[[i, j, k]] = False
        assert (dist2[others] > r2 * (1 - 1e-9)).all()


def test_grid_linear_reproduces_affine_field():
    from gdal_ray.raster.grid import grid_linear

    rng = np.random.default_rng(41)
    px = rng.uniform(0, 64, 60)
    py = rng.uniform(0, 64, 60)
    pv = 3.0 + 0.5 * px - 0.25 * py  # affine field
    gt = (0.0, 4.0, 0.0, 64.0, 0.0, -4.0)
    out = grid_linear(px, py, pv, 16, 16, gt, nodata=np.nan)
    cols, rows = np.meshgrid(np.arange(16) + 0.5, np.arange(16) + 0.5)
    gx = cols * 4.0
    gy = 64.0 - rows * 4.0
    want = 3.0 + 0.5 * gx - 0.25 * gy
    m = ~np.isnan(out)
    assert m.mean() > 0.5  # most nodes inside the hull
    np.testing.assert_allclose(out[m], want[m], atol=1e-8)


def test_viewshed_flat_and_wall():
    from gdal_ray.raster.viewshed import viewshed

    # flat terrain: everything visible
    flat = np.zeros((15, 15))
    v = viewshed(flat, 7, 7, observer_height=2.0)
    assert v.all()

    # a wall east of the observer shadows the cells behind it
    wall = np.zeros((9, 17))
    wall[:, 10] = 50.0
    v = viewshed(wall, 4, 2, observer_height=2.0)
    assert v[4, 10]          # the wall itself is visible
    assert not v[4, 12] and not v[4, 16]   # strictly behind the wall
    assert v[4, 8]           # in front of the wall

    # a single peak occludes only along its ray
    peak = np.zeros((21, 21))
    peak[10, 15] = 100.0
    v = viewshed(peak, 10, 10, observer_height=2.0)
    assert v[10, 15] and not v[10, 18]
    assert v[5, 15] and v[15, 15]  # off-ray cells stay visible

    # observer at z=200: the ray through the wall top (50 @ col 10) hits
    # the ground at x = 2 + 200*8/150 = 12.67 -> cols 11-12 shadowed,
    # col 13+ visible again on the axis row
    v2 = viewshed(wall, 4, 2, observer_height=200.0)
    assert not v2[4, 11] and not v2[4, 12]
    assert v2[4, 13:].all()

    # max_dist limits the radius
    v3 = viewshed(flat, 7, 7, max_dist=3.0)
    ys, xs = np.mgrid[0:15, 0:15]
    assert (v3 == ((ys - 7) ** 2 + (xs - 7) ** 2 <= 9.0)).all()


def test_warp_src_nodata_masking():
    """gdalwarp srcnodata semantics (alg/gdalwarpkernel.cpp masking):
    nodata never bleeds into neighbors; all-invalid windows emit fill."""
    import numpy as np

    from gdal_ray.raster.warp import warp_image

    img = np.full((16, 16), 100, dtype=np.uint8)
    img[4:8, 4:8] = 7  # nodata patch
    gt = (0.0, 1.0, 0.0, 16.0, 0.0, -1.0)
    # identity-grid warp: nearest must map nodata -> fill, others unchanged
    out, _ = warp_image(img, gt, "EPSG:3857", "EPSG:3857",
                        dst_gt=gt, dst_w=16, dst_h=16,
                        resampling="nearest", fill=0, src_nodata=7)
    assert (out[4:8, 4:8] == 0).all()
    assert (out[0:4, :] == 100).all()
    # 2x bilinear upsample: valid neighbors renormalize, no 7s leak in
    gt2 = (0.0, 0.5, 0.0, 16.0, 0.0, -0.5)
    out2, _ = warp_image(img, gt, "EPSG:3857", "EPSG:3857",
                         dst_gt=gt2, dst_w=32, dst_h=32,
                         resampling="bilinear", fill=0, src_nodata=7)
    vals = set(np.unique(out2).tolist())
    assert vals <= {0, 100}  # only fill or the true value, never blends with 7
    # cubic: same guarantee through the weight-renormalized path
    out3, _ = warp_image(img, gt, "EPSG:3857", "EPSG:3857",
                         dst_gt=gt2, dst_w=32, dst_h=32,
                         resampling="cubic", fill=0, src_nodata=7)
    assert out3[14, 14] in (0, 100)
    assert (out3[2:6, 2:6] == 100).all()


def test_warp_cutline_checksum_parity():
    """Cutline masking: dst pixels outside the polygon become fill; parity
    with a hand-built scanline mask oracle (checksum equality)."""
    import numpy as np

    from gdal_ray.geo import wkb as W
    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.warp import warp_image

    rng = np.random.default_rng(11)
    img = rng.integers(1, 255, (20, 20), dtype=np.uint8)
    gt = (0.0, 1.0, 0.0, 20.0, 0.0, -1.0)
    # axis-aligned rect cutline in dst coords: x in [4, 12], y in [6, 15]
    ring = np.array([[4.0, 6.0], [12.0, 6.0], [12.0, 15.0], [4.0, 15.0], [4.0, 6.0]])
    cut = W.encode_polygon([ring])
    out, _ = warp_image(img, gt, "EPSG:3857", "EPSG:3857",
                        dst_gt=gt, dst_w=20, dst_h=20, cutline_wkb=cut)
    # oracle: pixel centers inside the rect keep their value
    expect = np.zeros_like(img)
    for r in range(20):
        for c in range(20):
            x, y = c + 0.5, 20.0 - (r + 0.5)
            if 4.0 <= x <= 12.0 and 6.0 <= y <= 15.0:
                expect[r, c] = img[r, c]
    assert checksum_image(out) == checksum_image(expect)
    assert (out == expect).all()


def test_pansharpen_f32_fast_path_checksum_parity():
    """The float32 upsample fast path (power-of-two factors, uint8) must be
    BIT-IDENTICAL to the all-float64 reference across 100 seeded images:
    dyadic bilinear weights are exact in float32 and the result is rounded
    back to uint8 before the float64 division (kernels.pansharpen_brovey)."""
    import numpy as np

    from gdal_ray.raster.checksum import checksum_image
    from gdal_ray.raster.kernels import pansharpen_brovey, resample_bilinear

    def brovey_f64_reference(ms, pan, bit_depth=8):
        H, W = pan.shape[:2]
        b = ms.shape[2]
        weights = np.full(b, 1.0 / b)
        up = resample_bilinear(ms, H, W).astype(np.float64)
        pseudo = (up * weights[None, None, :]).sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(pseudo > 0, pan.astype(np.float64) / pseudo, 0.0)
        out = up * ratio[:, :, None]
        return np.clip(out + 0.5, 0, (1 << bit_depth) - 1).astype(ms.dtype)

    rng = np.random.default_rng(20260818)
    for i in range(100):
        h = int(rng.integers(8, 40))
        w = int(rng.integers(8, 40))
        ms = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        pan = rng.integers(0, 256, (2 * h, 2 * w), dtype=np.uint8)
        got = pansharpen_brovey(ms, pan)
        want = brovey_f64_reference(ms, pan)
        assert np.array_equal(got, want), f"image {i}"
        assert checksum_image(got[:, :, 0]) == checksum_image(want[:, :, 0])


def test_resample_bilinear_f32_exact_for_pow2_factors():
    import numpy as np

    from gdal_ray.raster.kernels import resample_bilinear

    rng = np.random.default_rng(7)
    for factor in (2, 4):
        img = rng.integers(0, 65536, (12, 17), dtype=np.uint16)
        a = resample_bilinear(img, 12 * factor, 17 * factor)
        b = resample_bilinear(img, 12 * factor, 17 * factor,
                              compute_dtype=np.float32)
        assert np.array_equal(a, b)


def test_nearblack_vectorized_matches_scan_reference():
    """The vectorized collar runs must equal the per-row scan semantics of
    apps/nearblack_lib.cpp:76 (stop at the first non-near pixel; never
    touch interior near-black pixels) on 100 seeded images."""
    import numpy as np

    from gdal_ray.raster.kernels import nearblack

    def scan_reference(img, threshold=15, set_value=0, white=False):
        out = img.copy()
        ref = 255 if white else 0
        near = (np.abs(img.astype(np.int32) - ref) <= threshold).all(axis=2)
        h, w = near.shape
        changed = 0
        for y in range(h):
            row = near[y]
            x = 0
            while x < w and row[x]:
                x += 1
            if x:
                out[y, :x] = set_value
                changed += x
            r = w - 1
            stop = max(x, 0)
            while r >= stop and row[r]:
                r -= 1
            if r < w - 1:
                out[y, r + 1:] = set_value
                changed += w - 1 - r
        return out, changed

    rng = np.random.default_rng(20260818)
    for i in range(100):
        h = int(rng.integers(3, 24))
        w = int(rng.integers(3, 24))
        # bias toward dark collars so runs actually occur
        img = rng.integers(0, 40, (h, w, 3), dtype=np.uint8)
        img[rng.random((h, w)) < 0.5] = rng.integers(50, 255)
        got, ng = nearblack(img)
        want, nw = scan_reference(img)
        assert ng == nw, f"image {i}"
        assert np.array_equal(got, want), f"image {i}"
        gw, ngw = nearblack(img, white=True, threshold=200, set_value=1)
        ww, nww = scan_reference(img, white=True, threshold=200, set_value=1)
        assert ngw == nww and np.array_equal(gw, ww), f"white image {i}"


def test_contour_polygons_bands_tile_domain():
    """Iso-bands must PARTITION the pixel-center domain exactly — including
    saddle cells (the center-vertex triangle decomposition guarantees it);
    ramp band areas match the closed forms the gate twin uses; an interior
    bump yields a hole ring."""
    import numpy as np

    from gdal_ray.raster.contour import contour_polygons

    # ramp: closed-form band areas (the q_contour_lattice polygon arm)
    m, h, w = 2.0, 6, 10
    arr = m * np.mgrid[0:h, 0:w][1]
    lvl = m * ((w - 1) / 2.0) + 0.25 * m
    bands = contour_polygons(arr, [lvl, lvl + m])
    x1 = (w / 2 - 1) + 0.5 + 0.75
    assert [round(b["area"], 6) for b in bands] == [
        round((x1 - 0.5) * (h - 1), 6),
        float(h - 1),
        round((w - 0.5 - (x1 + 1.0)) * (h - 1), 6),
    ]
    assert sum(len(b["rings"]) for b in bands) == 3

    # saddle-heavy random fields: bands tile (w-1)*(h-1) exactly
    rng = np.random.default_rng(0)
    for _ in range(30):
        hh, ww = int(rng.integers(3, 12)), int(rng.integers(3, 12))
        a = rng.integers(0, 4, (hh, ww)).astype(float)
        tot = sum(b["area"] for b in contour_polygons(a, [0.5, 2.5]))
        assert abs(tot - (ww - 1) * (hh - 1)) < 1e-9

    # interior bump: the below-band carries the hole as a second ring
    a2 = np.zeros((8, 8))
    a2[3:5, 3:5] = 10.0
    below, above = contour_polygons(a2, [5.0])
    assert len(below["rings"]) == 2 and len(above["rings"]) == 1
    assert abs(below["area"] + above["area"] - 49.0) < 1e-9


def test_grid_invdistnn_matches_scalar_oracle():
    """invdistnn vs a per-node scalar replica of
    GDALGridInverseDistanceToAPowerNearestNeighbor (alg/gdalgrid.cpp:241):
    candidates within the TRUE radius ranked by smoothed squared distance,
    capped at max_points, weight 1/r_smoothed^power."""
    rng = np.random.default_rng(31)
    px = rng.uniform(0, 8, 40)
    py = rng.uniform(0, 8, 40)
    pv = rng.uniform(-5, 5, 40)
    gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    radius, smoothing, power, max_points, min_points = 3.0, 0.5, 2.0, 6, 2
    got = grid_points(px, py, pv, 8, 8, gt, algorithm="invdistnn",
                      power=power, smoothing=smoothing, radius=radius,
                      nodata=-999.0, max_points=max_points,
                      min_points=min_points)
    for r in range(8):
        for c in range(8):
            nx, ny = c + 0.5, r + 0.5
            d2 = (px - nx) ** 2 + (py - ny) ** 2
            r2 = d2 + smoothing * smoothing
            cand = sorted(r2[d2 <= radius * radius])[:max_points]
            idx_sorted = np.argsort(r2, kind="stable")
            sel = [i for i in idx_sorted if d2[i] <= radius * radius][:max_points]
            if len(sel) < min_points:
                want = -999.0
            else:
                wgt = 1.0 / r2[sel] ** (power / 2.0)
                want = float((wgt * pv[sel]).sum() / wgt.sum())
            assert got[r, c] == pytest.approx(want, rel=1e-12, abs=1e-12), (r, c)


def test_grid_distance_metrics_match_scalar_oracle():
    """average_distance / average_distance_pts vs per-node scalar replicas
    of GDALGridDataMetricAverageDistance[Pts] (alg/gdalgrid.cpp:1977,2283)."""
    rng = np.random.default_rng(33)
    px = rng.uniform(0, 6, 25)
    py = rng.uniform(0, 6, 25)
    pv = np.zeros(25)
    gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    radius = 2.0
    ad = grid_points(px, py, pv, 6, 6, gt, algorithm="average_distance",
                     radius=radius, nodata=-1.0)
    adp = grid_points(px, py, pv, 6, 6, gt,
                      algorithm="average_distance_pts",
                      radius=radius, nodata=-1.0)
    for r in range(6):
        for c in range(6):
            nx, ny = c + 0.5, r + 0.5
            d = np.sqrt((px - nx) ** 2 + (py - ny) ** 2)
            sel = np.nonzero(d <= radius)[0]
            want_ad = float(d[sel].mean()) if len(sel) else -1.0
            assert ad[r, c] == pytest.approx(want_ad, rel=1e-12), (r, c)
            if len(sel) < 2:
                want_adp = -1.0
            else:
                tot, n_pairs = 0.0, 0
                for a in range(len(sel)):
                    for b in range(a + 1, len(sel)):
                        i, j = sel[a], sel[b]
                        tot += float(np.hypot(px[i] - px[j], py[i] - py[j]))
                        n_pairs += 1
                want_adp = tot / n_pairs
            assert adp[r, c] == pytest.approx(want_adp, rel=1e-12), (r, c)


def test_grid_invdistnn_exact_hit_and_cap():
    # node sitting on a point short-circuits regardless of neighbors
    px = np.array([0.5, 0.6, 2.0])
    py = np.array([0.5, 0.5, 2.0])
    pv = np.array([7.0, 100.0, -3.0])
    gt = (0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
    g = grid_points(px, py, pv, 3, 3, gt, algorithm="invdistnn",
                    radius=10.0, smoothing=0.0, max_points=1)
    assert g[0, 0] == 7.0
    # max_points=1 makes every other node take its single nearest value
    assert g[2, 2] == -3.0


def test_interpolate_cubicspline_matches_scalar_oracle():
    """Vectorized B-spline point read vs a scalar replica of the reference
    tap loop (alg/gdal_interpolateatpoint.cpp:315-331: fPoint = kernel
    index - delta, CubicSplineKernel weights, dfSumH/dfSumWeight)."""
    from gdal_ray.raster.kernels import interpolate_at_point_cubicspline

    def k(t):
        if t > 2.0:
            return 0.0
        a = (t + 2.0) ** 3 if t + 2.0 > 0 else 0.0
        b = (t + 1.0) ** 3 if t + 1.0 > 0 else 0.0
        c = t**3 if t > 0 else 0.0
        d = (t - 1.0) ** 3 if t - 1.0 > 0 else 0.0
        return (a - 4.0 * b + 6.0 * c - 4.0 * d) / 6.0

    rng = np.random.default_rng(17)
    band = rng.uniform(0, 100, (12, 15))
    px = rng.uniform(0.0, 15.0, 40)
    py = rng.uniform(0.0, 12.0, 40)
    got = interpolate_at_point_cubicspline(band, px, py)
    for i in range(len(px)):
        fx = min(max(px[i] - 0.5, 0.0), 14.0)
        fy = min(max(py[i] - 0.5, 0.0), 11.0)
        x0, y0 = int(np.floor(fx)), int(np.floor(fy))
        dx_f, dy_f = fx - x0, fy - y0
        num = den = 0.0
        for kj in range(4):
            for ki in range(4):
                # reference: fPoint = (kernel index - 1) - delta (signed)
                wgt = k((kj - 1) - dx_f) * k((ki - 1) - dy_f)
                yy = min(max(y0 + ki - 1, 0), 11)
                xx = min(max(x0 + kj - 1, 0), 14)
                num += band[yy, xx] * wgt
                den += wgt
        assert got[i] == pytest.approx(num / den, rel=1e-12), i
    # smoothing spline: flat fields reproduce exactly
    flat = np.full((8, 8), 7.25)
    assert np.allclose(
        interpolate_at_point_cubicspline(flat, px % 8, py % 8), 7.25
    )


def test_resample_rms_matches_scalar_oracle():
    """RMS overview vs the reference's ComputeIntegerRMS rule
    (gcore/overview.cpp:289): integer r minimizing |r^2 - mean(v^2)|."""
    from gdal_ray.raster.kernels import resample_rms

    rng = np.random.default_rng(51)
    a = rng.integers(0, 256, (10, 12)).astype(np.uint8)
    got = resample_rms(a, 2)
    for i in range(5):
        for j in range(6):
            blk = a[2 * i:2 * i + 2, 2 * j:2 * j + 2].astype(np.float64)
            mean_sq = (blk**2).mean()
            r = int(np.floor(np.sqrt(mean_sq)))
            if 2 * r * (r + 1) + 1 < 2 * mean_sq:
                r += 1
            assert got[i, j] == r, (i, j)
    # float path: plain quadratic mean
    f = rng.uniform(0, 10, (6, 6)).astype(np.float64)
    gotf = resample_rms(f, 3)
    blk = f[:3, :3]
    assert gotf[0, 0] == pytest.approx(np.sqrt((blk**2).mean()), rel=1e-12)


def test_resample_gauss_matches_scalar_oracle():
    """GAUSS overview vs a scalar replica of GDALResampleChunk_Gauss
    (gcore/overview.cpp:1824): 3x3 binomial at factor 2, window start
    2i + 1 - 1, edge truncation renormalizes the weight sum."""
    from gdal_ray.raster.kernels import resample_gauss

    rng = np.random.default_rng(53)
    a = rng.uniform(0, 100, (9, 11))
    got = resample_gauss(a, 2)
    ker = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=np.float64)
    for i in range(4):
        for j in range(5):
            num = den = 0.0
            for dy in range(3):
                for dx in range(3):
                    y, x = 2 * i + dy, 2 * j + dx
                    if y < 9 and x < 11:
                        num += ker[dy, dx] * a[y, x]
                        den += ker[dy, dx]
            assert got[i, j] == pytest.approx(num / den, rel=1e-12), (i, j)
    # factor-4 path picks the 5x5 binomial, window start 4i+2-2
    got4 = resample_gauss(a[:8, :8], 4)
    assert got4.shape == (2, 2)


def test_resample_nearest_factor():
    from gdal_ray.raster.kernels import resample_nearest_factor

    a = np.arange(30).reshape(5, 6)
    got = resample_nearest_factor(a, 2)
    assert np.array_equal(got, a[:4:2, :6:2])


def _area_oracle(img, src_gt, dst_gt, dst_w, dst_h, op, nodata=None):
    """Scalar replica of GWKAverageOrModeThread's per-pixel loop
    (alg/gdalwarpkernel.cpp:6763-7610) for an identity SRS chain."""
    import math

    from gdal_ray.geo import affine as A

    inv = A.invert_geotransform(src_gt)
    h, w = img.shape
    out = np.full((dst_h, dst_w), np.nan)
    EPS = 1e-10
    for i in range(dst_h):
        for j in range(dst_w):
            gx0, gy0 = A.apply_geotransform(dst_gt, float(j), float(i))
            gx1, gy1 = A.apply_geotransform(dst_gt, float(j + 1), float(i + 1))
            x0, y0 = A.apply_geotransform(inv, gx0, gy0)
            x1, y1 = A.apply_geotransform(inv, gx1, gy1)
            xmin, xmax = min(x0, x1), max(x0, x1)
            ymin, ymax = min(y0, y1), max(y0, y1)
            if not (xmax > -EPS and xmin < w + EPS
                    and ymax > -EPS and ymin < h + EPS):
                continue
            sxmin = int(max(math.floor(xmin + EPS), 0))
            sxmax = int(min(math.ceil(xmax - EPS), w))
            if sxmin == sxmax and sxmax < w:
                sxmax += 1
            symin = int(max(math.floor(ymin + EPS), 0))
            symax = int(min(math.ceil(ymax - EPS), h))
            if symin == symax and symax < h:
                symax += 1
            vals, wgts = [], []
            for sy in range(symin, symax):
                wy = (1.0 if symin + 1 == symax else 1.0 - (ymin - symin)) \
                    if sy == symin else (
                    1.0 - (symax - ymax) if sy + 1 == symax else 1.0)
                for sx in range(sxmin, sxmax):
                    wx = (wy if sxmin + 1 == sxmax
                          else wy * (1.0 - (xmin - sxmin))) \
                        if sx == sxmin else (
                        wy * (1.0 - (sxmax - xmax)) if sx + 1 == sxmax else wy)
                    if wx <= 0:
                        continue
                    v = float(img[sy, sx])
                    if nodata is not None and v == nodata:
                        continue
                    vals.append(v)
                    wgts.append(wx)
            if not vals:
                continue
            v = np.array(vals)
            g = np.array(wgts)
            if op == "average":
                out[i, j] = (v * g).sum() / g.sum()
            elif op == "rms":
                out[i, j] = np.sqrt((v * v * g).sum() / g.sum())
            elif op == "sum":
                out[i, j] = (v * g).sum()
            elif op == "min":
                out[i, j] = v.min()
            elif op == "max":
                out[i, j] = v.max()
            elif op in ("med", "q1", "q3"):
                q = {"med": 0.5, "q1": 0.25, "q3": 0.75}[op]
                s = np.sort(v)
                out[i, j] = s[max(int(np.ceil(q * len(s) - 1)), 0)]
            elif op == "mode":
                uq, cnt = np.unique(v, return_counts=True)
                out[i, j] = uq[np.argmax(cnt)]  # smallest tied value
    return out


@pytest.mark.parametrize("op", ["average", "rms", "sum", "min", "max",
                                "med", "q1", "q3", "mode"])
def test_warp_area_matches_scalar_oracle(op):
    """warp_image_area vs the scalar window/weight replica on a
    half-pixel-offset 2.5x downsample (fractional border weights) with
    nodata holes."""
    from gdal_ray.raster.warp import warp_image_area

    rng = np.random.default_rng(61)
    img = rng.integers(0, 40, (20, 24)).astype(np.float64)
    img[rng.uniform(size=img.shape) < 0.1] = -1.0  # nodata holes
    src_gt = (1000.0, 10.0, 0.0, 2000.0, 0.0, -10.0)
    dst_gt = (1005.0, 25.0, 0.0, 1995.0, 0.0, -25.0)
    dst_w, dst_h = 9, 8
    got, _ = warp_image_area(img, src_gt, "EPSG:3857", "EPSG:3857",
                             dst_gt=dst_gt, dst_w=dst_w, dst_h=dst_h,
                             op=op, fill=np.nan, src_nodata=-1.0)
    want = _area_oracle(img, src_gt, dst_gt, dst_w, dst_h, op, nodata=-1.0)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True), op


def test_warp_area_exact_2x2_average():
    """Aligned 2x downsample: average equals the box mean exactly and
    sum preserves total mass."""
    from gdal_ray.raster.warp import warp_image_area

    rng = np.random.default_rng(63)
    img = rng.integers(0, 256, (16, 16)).astype(np.uint8)
    src_gt = (0.0, 1.0, 0.0, 16.0, 0.0, -1.0)
    dst_gt = (0.0, 2.0, 0.0, 16.0, 0.0, -2.0)
    got, _ = warp_image_area(img, src_gt, "EPSG:3857", "EPSG:3857",
                             dst_gt=dst_gt, dst_w=8, dst_h=8, op="average")
    blocks = img.reshape(8, 2, 8, 2).astype(np.float64).mean(axis=(1, 3))
    assert np.array_equal(got, np.clip(np.floor(blocks + 0.5), 0, 255)
                          .astype(np.uint8))
    s, _ = warp_image_area(img, src_gt, "EPSG:3857", "EPSG:3857",
                           dst_gt=dst_gt, dst_w=8, dst_h=8, op="sum")
    assert s.sum() == pytest.approx(img.astype(np.float64).sum())


def test_nearblack_floodfill_matches_bfs_oracle():
    """Flood-fill collar vs a scalar BFS from the border; wrap-around
    collars are removed while interior near-black islands survive."""
    from collections import deque

    from gdal_ray.raster.kernels import nearblack, nearblack_floodfill

    rng = np.random.default_rng(71)
    img = rng.integers(60, 256, (30, 40, 3)).astype(np.uint8)
    # L-shaped collar along top edge and down the right side + a corner
    # wrap, plus an interior island that must survive
    img[:3, :, :] = 2
    img[:, -4:, :] = 3
    img[10:14, 0:2, :] = 1
    img[15:18, 15:18, :] = 4  # island
    got, n = nearblack_floodfill(img, threshold=15, set_value=255)

    near = (np.abs(img.astype(np.int32)) <= 15).all(axis=2)
    h, w = near.shape
    seen = np.zeros_like(near)
    dq = deque()
    for y in range(h):
        for x in range(w):
            if (y in (0, h - 1) or x in (0, w - 1)) and near[y, x]:
                seen[y, x] = True
                dq.append((y, x))
    while dq:
        y, x = dq.popleft()
        for yy, xx in ((y - 1, x), (y + 1, x), (y, x - 1), (y, x + 1)):
            if 0 <= yy < h and 0 <= xx < w and near[yy, xx] and not seen[yy, xx]:
                seen[yy, xx] = True
                dq.append((yy, xx))
    want = img.copy()
    want[seen] = 255
    assert np.array_equal(got, want)
    assert n == int(seen.sum())
    # island untouched by floodfill; row-scan nearblack also leaves it
    assert (got[15:18, 15:18] == 4).all()
    # the wrap-around side collar is caught (row-scan would catch only
    # rows touching the edge runs)
    assert (got[:3, :] == 255).all() and (got[:, -4:] == 255).all()
