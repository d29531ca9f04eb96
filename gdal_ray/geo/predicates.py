"""Areal geometry predicates (OGC named predicates for simple polygons).

The reference gets Equals/Within/Contains/Touches/Overlaps/Disjoint from
GEOS (``ogr/ogr_geometry.h:540-560``). Here ``relate_areal`` names the one
that holds for a pair of rings, from two exact primitives this engine
already has:

- ``polygons_intersect`` (boundary crossing + hole-aware containment) for
  the zero-area contact ("touches") test;
- ``polygon_intersection``/``pieces_area`` (geo/booleanops.py) for the
  interior-overlap area, which separates contains/within/overlaps.

Integer-coordinate inputs classify EXACTLY (clip vertices stay integral);
float inputs use a relative area tolerance.
"""

from __future__ import annotations

import numpy as np

from gdal_ray.geo.booleanops import pieces_area, polygon_intersection
from gdal_ray.geo.geomops import polygons_intersect, ring_area

__all__ = ["relate_areal"]

_REL_TOL = 1e-9


def relate_areal(ring_a: np.ndarray, ring_b: np.ndarray) -> str:
    """'equals' | 'contains' | 'within' | 'overlaps' | 'touches' | 'disjoint'."""
    area_a = abs(ring_area(ring_a))
    area_b = abs(ring_area(ring_b))
    ai = pieces_area(polygon_intersection(ring_a, ring_b))
    tol = _REL_TOL * max(1.0, area_a, area_b)
    full_b = abs(ai - area_b) <= tol and area_b > 0
    full_a = abs(ai - area_a) <= tol and area_a > 0
    if full_a and full_b:
        return "equals"
    if full_b:
        return "contains"
    if full_a:
        return "within"
    if ai > tol:
        return "overlaps"
    if polygons_intersect([[ring_a]], [[ring_b]]):
        return "touches"
    return "disjoint"
