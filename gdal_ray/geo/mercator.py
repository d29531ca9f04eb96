"""Spherical WebMercator (EPSG:3857) pyramid math, vectorized.

Formulas and edge rules mirror the GlobalMercator class of the GDAL
reference (``swig/python/gdal-utils/osgeo_utils/gdal2tiles.py:414-520``):

- ``initialResolution = 2*pi*6378137 / tile_size`` (156543.03392804062 @256)
- ``originShift = 2*pi*6378137 / 2`` (20037508.342789244)
- ``Resolution(z) = initialResolution / 2**z``
- ``PixelsToTile = ceil(px / tile_size) - 1``  (the seam-ownership rule:
  a pixel coordinate exactly on a tile boundary belongs to the tile on the
  lower side)
- TMS y origin is bottom-left; XYZ ("Google") flips: ``y_xyz = 2**z - 1 - ty``.

Everything accepts scalars or numpy arrays and stays in float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "EARTH_RADIUS",
    "ORIGIN_SHIFT",
    "TILE_SIZE",
    "INITIAL_RESOLUTION",
    "latlon_to_meters",
    "meters_to_latlon",
    "resolution",
    "meters_to_pixels",
    "pixels_to_meters",
    "pixels_to_tile",
    "meters_to_tile",
    "tile_bounds",
    "tms_to_xyz",
]

EARTH_RADIUS = 6378137.0
TILE_SIZE = 256
INITIAL_RESOLUTION = 2 * np.pi * EARTH_RADIUS / TILE_SIZE  # 156543.03392804062
ORIGIN_SHIFT = 2 * np.pi * EARTH_RADIUS / 2.0  # 20037508.342789244


def latlon_to_meters(lat, lon):
    """WGS84 lat/lon -> EPSG:3857 meters (gdal2tiles.py:422-430)."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    mx = lon * ORIGIN_SHIFT / 180.0
    my = np.log(np.tan((90.0 + lat) * np.pi / 360.0)) / (np.pi / 180.0)
    my = my * ORIGIN_SHIFT / 180.0
    return mx, my


def meters_to_latlon(mx, my):
    """EPSG:3857 meters -> WGS84 lat/lon (gdal2tiles.py:432-443)."""
    mx = np.asarray(mx, dtype=np.float64)
    my = np.asarray(my, dtype=np.float64)
    lon = (mx / ORIGIN_SHIFT) * 180.0
    lat = (my / ORIGIN_SHIFT) * 180.0
    lat = 180.0 / np.pi * (2.0 * np.arctan(np.exp(lat * np.pi / 180.0)) - np.pi / 2.0)
    return lat, lon


def resolution(zoom):
    """Meters per pixel at the equator for a zoom level."""
    return INITIAL_RESOLUTION / (2.0 ** np.asarray(zoom, dtype=np.float64))


def meters_to_pixels(mx, my, zoom):
    res = resolution(zoom)
    px = (np.asarray(mx, dtype=np.float64) + ORIGIN_SHIFT) / res
    py = (np.asarray(my, dtype=np.float64) + ORIGIN_SHIFT) / res
    return px, py


def pixels_to_meters(px, py, zoom):
    res = resolution(zoom)
    mx = np.asarray(px, dtype=np.float64) * res - ORIGIN_SHIFT
    my = np.asarray(py, dtype=np.float64) * res - ORIGIN_SHIFT
    return mx, my


def pixels_to_tile(px, py):
    """ceil(px/256)-1 rule — gdal2tiles.py:460-464. Returns int64 TMS tiles."""
    tx = np.ceil(np.asarray(px, dtype=np.float64) / float(TILE_SIZE)).astype(np.int64) - 1
    ty = np.ceil(np.asarray(py, dtype=np.float64) / float(TILE_SIZE)).astype(np.int64) - 1
    return tx, ty


def meters_to_tile(mx, my, zoom):
    """EPSG:3857 meters -> TMS tile coordinates (gdal2tiles.py:473-477)."""
    px, py = meters_to_pixels(mx, my, zoom)
    return pixels_to_tile(px, py)


def tile_bounds(tx, ty, zoom):
    """TMS tile -> (minx, miny, maxx, maxy) in meters (gdal2tiles.py:479-486)."""
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    minx, miny = pixels_to_meters(tx * TILE_SIZE, ty * TILE_SIZE, zoom)
    maxx, maxy = pixels_to_meters((tx + 1) * TILE_SIZE, (ty + 1) * TILE_SIZE, zoom)
    return minx, miny, maxx, maxy


def tms_to_xyz(ty, zoom):
    """TMS y (bottom-left origin) -> XYZ/Google y (top-left origin).

    gdal2tiles GoogleTile / getYTile: ``y = 2**z - 1 - ty``. The flip is an
    involution, so the same function converts XYZ -> TMS.
    """
    return (np.int64(1) << np.asarray(zoom, dtype=np.int64)) - 1 - np.asarray(ty, dtype=np.int64)
