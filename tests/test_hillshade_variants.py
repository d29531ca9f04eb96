"""Hillshade variants (raster/kernels.py): per-pixel scalar replicas of
the reference algorithms (apps/gdaldem_lib.cpp GDALHillshadeMultiDirectionalAlg
:1238 / GDALHillshadeCombinedAlg :1139 / GDALHillshadeIgorAlg :943),
translated with the C code's own factorization (raw gradients x z_factor
constants) — independent of the vectorized kernels' algebra."""

import math

import numpy as np

from gdal_ray.raster.kernels import (hillshade, hillshade_combined,
                                     hillshade_igor,
                                     hillshade_multidirectional)

RNG = np.random.default_rng(11)
DEM = (RNG.uniform(0, 100, (9, 11))).round(2)
EW, NS, Z, SC, AZ, ALT = 2.0, -2.0, 1.3, 1.0, 315.0, 45.0


def _win(dem, r, c):
    h, w = dem.shape
    return [dem[min(max(r + dr, 0), h - 1), min(max(c + dc, 0), w - 1)]
            for dr in (-1, 0, 1) for dc in (-1, 0, 1)]


def _grad_raw(a, inv_ew, inv_ns):
    x = ((a[0] + a[3] + a[3] + a[6]) - (a[2] + a[5] + a[5] + a[8])) * inv_ew
    y = ((a[6] + a[7] + a[7] + a[8]) - (a[0] + a[1] + a[1] + a[2])) * inv_ns
    return x, y


def _md_ref(a):
    inv_ew, inv_ns = 1.0 / (EW * SC), 1.0 / (NS * SC)
    zf = Z / 8.0
    x, y = _grad_raw(a, inv_ew, inv_ns)
    sin_alt = math.sin(math.radians(ALT))
    cos_alt_z = math.cos(math.radians(ALT)) * zf
    c225 = math.cos(math.radians(225.0)) * cos_alt_z
    xx, yy = x * x, y * y
    s = xx + yy
    if s == 0.0:
        return 1.0 + 254.0 * sin_alt
    v225 = max(0.0, sin_alt + (x - y) * c225) * 127.0
    v270 = max(0.0, sin_alt - x * cos_alt_z) * 127.0
    v315 = max(0.0, sin_alt + (x + y) * c225) * 127.0
    v360 = max(0.0, sin_alt - y * cos_alt_z) * 127.0
    w225 = 0.5 * s - x * y
    w315 = s - w225
    num = (w225 * v225 + xx * v270 + w315 * v315 + yy * v360) / s
    return 1.0 + num / math.sqrt(1.0 + zf * zf * s)


def _combined_ref(a):
    inv_ew, inv_ns = 1.0 / (EW * SC), 1.0 / (NS * SC)
    zf = Z / 8.0
    x, y = _grad_raw(a, inv_ew, inv_ns)
    s = (x * x + y * y) * zf * zf
    sin_alt = math.sin(math.radians(ALT))
    caz = math.cos(math.radians(AZ)) * math.cos(math.radians(ALT)) * zf
    saz = math.sin(math.radians(AZ)) * math.cos(math.radians(ALT)) * zf
    cang = math.acos((sin_alt - (y * caz - x * saz)) / math.sqrt(1 + s))
    cang = 1 - cang * math.atan(math.sqrt(s)) / ((math.pi ** 2) / 4)
    return 1.0 if cang <= 0 else 1.0 + 254.0 * cang


def _igor_ref(a):
    inv_ew, inv_ns = 1.0 / (EW * SC), 1.0 / (NS * SC)
    zf = Z / 8.0
    x, y = _grad_raw(a, inv_ew, inv_ns)
    slope_deg = math.degrees(math.atan(math.sqrt(x * x + y * y) * zf))
    dxa = (a[2] + a[5] + a[5] + a[8]) - (a[0] + a[3] + a[3] + a[6])
    dya = (a[6] + a[7] + a[7] + a[8]) - (a[0] + a[1] + a[1] + a[2])
    aspect = math.atan2(dya, -dxa)
    two_pi = 2 * math.pi

    def norm(v):
        v = math.fmod(v, two_pi)
        return v + two_pi if v < 0 else v

    diff = abs(norm(aspect) - norm(1.5 * math.pi - math.radians(AZ)))
    if diff > math.pi:
        diff = two_pi - diff
    return 255.0 * (1.0 - (slope_deg / 90.0) * (1.0 - diff / math.pi))


def test_multidirectional_matches_reference_replica():
    got = hillshade_multidirectional(DEM, EW, NS, Z, SC, ALT)
    want = np.array([[_md_ref(_win(DEM, r, c)) for c in range(DEM.shape[1])]
                     for r in range(DEM.shape[0])])
    assert np.allclose(got.astype(np.float64), np.floor(want), atol=0)
    # flat DEM -> the classic flat value everywhere
    flat = hillshade_multidirectional(np.full((5, 5), 7.0), EW, NS, Z)
    assert (flat == int(1 + 254 * math.sin(math.radians(45.0)))).all()


def test_combined_matches_reference_replica():
    got = hillshade_combined(DEM, EW, NS, Z, SC, AZ, ALT)
    want = np.array([[_combined_ref(_win(DEM, r, c))
                      for c in range(DEM.shape[1])]
                     for r in range(DEM.shape[0])])
    assert np.allclose(got.astype(np.float64), np.floor(want), atol=0)


def test_igor_matches_reference_replica():
    got = hillshade_igor(DEM, EW, NS, Z, SC, AZ)
    want = np.array([[_igor_ref(_win(DEM, r, c)) for c in range(DEM.shape[1])]
                     for r in range(DEM.shape[0])], dtype=np.float32)
    assert np.allclose(got, want, rtol=1e-6)
    # flat DEM: slope 0 -> shadowness 1 -> 255 everywhere
    assert (hillshade_igor(np.zeros((4, 4)), EW, NS, Z) == 255.0).all()


def test_zt_variant_runs_and_differs():
    a = hillshade_multidirectional(DEM, EW, NS, Z, alg="horn")
    b = hillshade_multidirectional(DEM, EW, NS, Z, alg="zt")
    assert a.shape == b.shape and (a != b).any()
    c = hillshade(DEM, EW, NS, Z)
    assert c.shape == a.shape  # classic still intact


def test_igor_lattice_rounds_ties_away_from_zero():
    """q_hillshade_lattice rounds hs_igor as its DuckDB twin's ROUND(x, 4)
    does: a float32-exact tie goes away from zero, where Python's round
    would take it to the even digit."""
    from gdal_ray.pipelines.raster_lattices import _round4

    tie = float(np.float32(100.03125))
    assert tie == 100.03125
    assert _round4(tie) == 100.0313
    assert round(tie, 4) == 100.0312  # the rounding it replaces
    assert _round4(87.5) == 87.5 and _round4(0.00004) == 0.0
