"""User-extension surface: a named-step pipeline registry.

Mirrors the reference's algorithm-pipeline registration
(``apps/gdalalg_abstract_pipeline.h:333-410``: named steps chained as
``gdal raster pipeline read ... ! reproject ... ! write ...``) in Ray Data
terms: each step is a registered callable ``fn(ds, **params) -> ds``;
``Pipeline([(name, params), ...])`` chains them lazily over a Dataset.
Users extend the engine by registering their own steps — no engine code
changes needed.

Built-in generic steps (the ogr2ogr/gdal-pipeline workhorses): filter,
derive, select, rename, sort, limit, sample, distinct.
"""

from __future__ import annotations

from collections.abc import Callable

import pandas as pd
import pyarrow as pa

__all__ = ["register_step", "get_step", "list_steps", "Pipeline"]

_REGISTRY: dict[str, Callable] = {}


def register_step(name: str):
    """Decorator: register ``fn(ds, **params) -> ds`` under ``name``."""

    def deco(fn):
        _REGISTRY[name] = fn
        return fn

    return deco


def get_step(name: str) -> Callable:
    if name not in _REGISTRY:
        raise KeyError(f"unknown pipeline step {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[name]


def list_steps() -> list[str]:
    return sorted(_REGISTRY)


class Pipeline:
    """A declarative chain of registered steps over a Dataset (lazy)."""

    def __init__(self, steps: list[tuple[str, dict]]):
        self.steps = [(name, dict(params)) for name, params in steps]
        for name, _ in self.steps:
            get_step(name)  # fail fast on unknown names

    def run(self, ds):
        for name, params in self.steps:
            ds = get_step(name)(ds, **params)
        return ds

    def describe(self) -> str:
        return " ! ".join(
            name + ("" if not p else "(" + ", ".join(f"{k}={v}" for k, v in p.items()) + ")")
            for name, p in self.steps
        )


# ---- built-in steps ------------------------------------------------------

@register_step("filter")
def _step_filter(ds, expr: str):
    """Row filter via a pandas query expression (vectorized per batch)."""

    def flt(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.query(expr)

    return ds.map_batches(flt, batch_format="pandas")


@register_step("derive")
def _step_derive(ds, col: str, expr: str):
    """New column from a pandas eval expression over existing columns."""

    def drv(batch: pd.DataFrame) -> pd.DataFrame:
        batch[col] = batch.eval(expr)
        return batch

    return ds.map_batches(drv, batch_format="pandas")


@register_step("select")
def _step_select(ds, columns: list):
    return ds.select_columns(list(columns))


@register_step("rename")
def _step_rename(ds, mapping: dict):
    def rn(batch: pa.Table) -> pa.Table:
        return batch.rename_columns([mapping.get(c, c) for c in batch.column_names])

    return ds.map_batches(rn, batch_format="pyarrow")


@register_step("sort")
def _step_sort(ds, keys: list, descending=False):
    return ds.sort(list(keys), descending=descending)


@register_step("limit")
def _step_limit(ds, n: int):
    return ds.limit(int(n))


@register_step("sample")
def _step_sample(ds, key_col: str, pct: int):
    from gdal_ray.stages.sampling import deterministic_sample

    return deterministic_sample(ds, key_col, pct)


@register_step("distinct")
def _step_distinct(ds, keys: list):
    from ray.data.aggregate import Count

    return (
        ds.groupby(list(keys)).aggregate(Count(alias_name="_n")).drop_columns(["_n"])
    )


# ---- geometry steps (the gdalalg_vector_* step family,
# apps/gdalalg_vector_pipeline.cpp:123-164) over the canonical WKB
# ``geometry`` column; each is a vectorized per-batch map --------------------

def _geom_map(ds, fn, geom_col: str = "geometry"):
    def gm(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch.copy()
        out[geom_col] = [None if b is None else fn(bytes(b))
                         for b in batch[geom_col]]
        return out

    return ds.map_batches(gm, batch_format="pandas")


@register_step("swap-xy")
def _step_swap_xy(ds, geom_col: str = "geometry"):
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.wkb import map_coords

    return _geom_map(ds, lambda b: map_coords(b, GO.swap_xy), geom_col)


@register_step("segmentize")
def _step_segmentize(ds, max_length: float, geom_col: str = "geometry"):
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.wkb import map_coords

    def seg(b):
        return map_coords(b, lambda pts: GO.segmentize(pts, float(max_length)))

    return _geom_map(ds, seg, geom_col)


@register_step("simplify")
def _step_simplify(ds, tolerance: float, geom_col: str = "geometry"):
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.wkb import map_coords

    def simp(b):
        return map_coords(b, lambda pts: GO.simplify_dp(pts, float(tolerance)))

    return _geom_map(ds, simp, geom_col)


@register_step("reproject")
def _step_reproject(ds, src_srs: str, dst_srs: str,
                    geom_col: str = "geometry"):
    from gdal_ray.geo.wkb import map_coords
    from gdal_ray.raster.warp import _fwd

    def rp(b):
        def coords(pts):
            import numpy as np

            x, y = _fwd(pts[:, 0], pts[:, 1], src_srs, dst_srs)
            return np.stack([x, y], axis=1)

        return map_coords(b, coords)

    return _geom_map(ds, rp, geom_col)


@register_step("centroid")
def _step_centroid(ds, geom_col: str = "geometry"):
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.wkb import decode_polygons, encode_point

    def cen(b):
        cx, cy = GO.polygon_centroid(decode_polygons(b)[0])
        return encode_point(cx, cy)

    return _geom_map(ds, cen, geom_col)


@register_step("make-valid")
def _step_make_valid(ds, geom_col: str = "geometry"):
    from gdal_ray.geo.booleanops import make_valid_ring
    from gdal_ray.geo.wkb import decode_polygons, encode_multipolygon

    def mv(b):
        fixed = []
        for rings in decode_polygons(b):
            fixed.extend([[r2] for r2 in make_valid_ring(rings[0])]
                         if len(rings) == 1 else [rings])
        return encode_multipolygon(fixed)

    return _geom_map(ds, mv, geom_col)


@register_step("quantiles")
def _step_quantiles(ds, col: str, q, key: str | None = None):
    """Exact distributed percentiles (stages/quantile.py) as a step:
    ``q`` is a comma-separated percent list; with ``key`` the result is
    per-group. Emits the small (``[key,] q_pct, value``) table."""
    import ray.data as rd

    from gdal_ray.stages.quantile import exact_int_quantiles, grouped_int_quantiles

    pcts = [int(v) for v in str(q).split(",")]
    if key:
        return grouped_int_quantiles(ds, key, col, pcts)
    return rd.from_pandas(exact_int_quantiles(ds, col, pcts))


@register_step("heavy-hitters")
def _step_heavy_hitters(ds, col: str, denom: int = 128):
    """Exact items with count >= ceil(n/denom) via the Misra-Gries
    two-pass plan (stages/heavyhitters.py)."""
    import ray.data as rd

    from gdal_ray.stages.heavyhitters import heavy_hitters

    return rd.from_pandas(heavy_hitters(ds, col, denom=int(denom)))


@register_step("stratified-sample")
def _step_stratified_sample(ds, key: str, id_col: str, n: int):
    """Balanced per-group sample: smallest-Knuth-hash ``n`` rows per
    ``key`` (stages/sampling.stratified_sample)."""
    from gdal_ray.stages.sampling import stratified_sample

    return stratified_sample(ds, key, id_col, int(n))


@register_step("connected-components")
def _step_connected_components(ds, a: str = "a", b: str = "b"):
    """Distributed connected components over a pair layer
    (stages/cc.py filtering scheme) -> (node, comp)."""
    from gdal_ray.stages.cc import connected_components

    return connected_components(ds, a_col=a, b_col=b)


@register_step("dup-clusters")
def _step_dup_clusters(ds, a: str = "a", b: str = "b"):
    """Near-dup pair layer -> (comp, size, keeper) duplicate clusters."""
    from gdal_ray.stages.cc import dup_clusters

    return dup_clusters(ds, a_col=a, b_col=b)


@register_step("pii-redact")
def _step_pii_redact(ds, text_col: str = "text"):
    """PII scrub (stages/text.PIIRedact): emails/phones/IPv4 replaced by
    <EMAIL>/<PHONE>/<IP> tokens; adds per-row match counts and the
    redacted text + its md5. The stage runs as tasks over a mapped
    ``PIIRedact()`` instance."""
    from gdal_ray.stages.text import PIIRedact

    if text_col != "text":
        ds = ds.rename_columns({text_col: "text"})
    out = ds.map_batches(PIIRedact(), batch_format="pandas", batch_size=2048)
    if text_col != "text":
        out = out.rename_columns({"text": text_col})
    return out


@register_step("c4-filter")
def _step_c4_filter(ds, min_words: int = 5, min_kept_lines: int = 3):
    """C4 line-level quality filter (stages/text.C4LineFilter): keeps
    docs with >= min_kept_lines surviving lines, adds filtered text +
    per-doc counts."""
    from gdal_ray.stages.text import C4LineFilter

    out = ds.map_batches(
        C4LineFilter, fn_constructor_kwargs={
            "min_words": int(min_words),
            "min_kept_lines": int(min_kept_lines)},
        batch_format="pandas", concurrency=(1, 8), batch_size=2048)
    return out.filter(expr="keep_doc == 1")


@register_step("dsir-select")
def _step_dsir_select(ds, target_col: str, target_val, k: int,
                      num_feats: int = 1024):
    """DSIR importance resampling (stages/dsir.py): top-k docs whose
    hashed-ngram distribution best matches the target subset."""
    from gdal_ray.stages.dsir import dsir_select

    return dsir_select(ds, target_col, target_val, int(k),
                       num_feats=int(num_feats))


@register_step("bpe-encode")
def _step_bpe_encode(ds, num_merges: int = 64, max_words=None):
    """BPE tokenizer loop (stages/bpe.py): train on the piped corpus,
    encode it -> per-doc n_words / n_subtokens / segmentation signature."""
    from gdal_ray.stages.bpe import bpe_token_stats

    return bpe_token_stats(
        ds, num_merges=int(num_merges),
        max_words=int(max_words) if max_words is not None else None)


@register_step("mix-select")
def _step_mix_select(ds, weights: dict, target_units: int,
                     source_col: str = "source", id_col: str = "doc_id",
                     unit_col: str = "n_chars"):
    """Data-mixture selection (stages/mixing.py): keep each source's
    deterministic doc-id-ordered prefix within its weighted budget."""
    from gdal_ray.stages.mixing import mix_select_docs

    return mix_select_docs(ds, {k: int(v) for k, v in dict(weights).items()},
                           int(target_units), source_col=source_col,
                           id_col=id_col, unit_col=unit_col)


@register_step("sql")
def _step_sql(ds, statement: str):
    """gdalalg_vector_sql: run the parsed OGR SQL engine with the piped
    layer bound as table ``input`` (``SELECT ... FROM input ...``)."""
    from gdal_ray.sql import execute_sql

    return execute_sql(statement, {"input": ds})


@register_step("concat")
def _step_concat(ds, src: str):
    """gdalalg_vector_concat: append another layer's features (columns
    match by name; missing columns null-fill, Arrow union semantics)."""
    from gdal_ray.cli import _vector_read

    return ds.union(_vector_read(src))


@register_step("buffer")
def _step_buffer(ds, distance: float, quadsegs: int = 8,
                 geom_col: str = "geometry"):
    """gdalalg_vector_buffer (OGRGeometry::Buffer): positive disc buffer.
    Points buffer to ``4*quadsegs``-gon discs; polygons buffer their
    convex hull (the engine's documented convex-buffer kernel,
    geo/geomops.buffer_convex — same semantics as q_buffer_lattice)."""
    import struct

    import numpy as np

    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.wkb import decode_polygons, encode_polygon

    d = float(distance)
    qs = int(quadsegs)

    def buf_one(b: bytes) -> bytes:
        geom_type = struct.unpack_from("<I", b, 1)[0] & 0xFF
        if geom_type == 1:  # point -> disc
            x, y = struct.unpack_from("<2d", b, 5)
            ang = np.linspace(0.0, 2.0 * np.pi, 4 * qs + 1)
            ring = np.stack(
                [x + d * np.cos(ang), y + d * np.sin(ang)], axis=1
            )
            ring[-1] = ring[0]
            return encode_polygon([ring])
        rings = decode_polygons(b)[0]
        hull = GO.convex_hull(rings[0][:-1])
        return encode_polygon([GO.buffer_convex(hull, d, qs)])

    return _geom_map(ds, buf_one, geom_col)


@register_step("simplify-coverage")
def _step_simplify_coverage(ds, tolerance: float, preserve_boundary: bool = False,
                            geom_col: str = "geometry"):
    """gdalalg_vector_simplify_coverage: simplify WITHOUT breaking shared
    boundaries (GEOS CoverageSimplifier semantics — Visvalingam-Whyatt over
    the shared-arc graph, geo/coverage.py). Non-streaming by contract, like
    the reference ("requires loading the entire dataset into memory at
    once", gdal_vector_simplify_coverage.rst); for id-keyed layers the
    distributed plan is ``geo.coverage.simplify_coverage_ds``."""
    import pandas as pd
    import ray.data as rd

    from gdal_ray.geo.coverage import simplify_coverage
    from gdal_ray.geo.wkb import (decode_polygons, encode_multipolygon,
                                  encode_polygon)

    df = ds.to_pandas()
    polys, spans = [], []
    for buf in df[geom_col]:
        if buf is None:
            raise ValueError("simplify-coverage needs polygonal geometries "
                             "on every feature")
        parts = decode_polygons(bytes(buf))
        spans.append(len(parts))
        polys.extend(parts)
    simplified = simplify_coverage(polys, float(tolerance),
                                   preserve_boundary=bool(preserve_boundary))
    out, i = [], 0
    for n in spans:
        parts = simplified[i : i + n]
        i += n
        out.append(encode_polygon(parts[0]) if n == 1
                   else encode_multipolygon(parts))
    df = df.copy()
    df[geom_col] = pd.Series(out, dtype=object, index=df.index)
    return rd.from_pandas(df)


@register_step("set-geom-type")
def _step_set_geom_type(ds, to: str = "multi", geom_col: str = "geometry"):
    """gdalalg_vector_set_geom_type: promote single-part geometries to
    their Multi class (``to=multi``, the common normalization before a
    mixed-layer write) or demote single-element Multis to singles
    (``to=single``; multi-element geometries pass through unchanged)."""
    import struct

    from gdal_ray.geo.wkb import (decode_lines, decode_points,
                                  decode_polygons,
                                  encode_multilinestring,
                                  encode_multipolygon, encode_point,
                                  explode)

    if to not in ("multi", "single"):
        raise ValueError("set-geom-type: to= must be multi or single")

    def conv(b):
        buf = bytes(b)
        little = buf[0] == 1
        t = struct.unpack_from("<I" if little else ">I", buf, 1)[0]
        base = t % 1000 if t < 3000 else t
        if to == "multi":
            if base == 1:
                x, y = decode_points([buf])
                return (struct.pack("<BII", 1, 4, 1)
                        + encode_point(float(x[0]), float(y[0])))
            if base == 2:
                return encode_multilinestring([decode_lines(buf)[0]])
            if base == 3:
                return encode_multipolygon(decode_polygons(buf))
            return buf  # already multi (or a curve class)
        # to == "single": unwrap one-element multis
        if base in (4, 5, 6):
            parts = explode(buf)
            if len(parts) == 1:
                return parts[0]
        return buf

    return _geom_map(ds, conv, geom_col)


@register_step("explode-collections")
def _step_explode(ds, geom_col: str = "geometry"):
    from gdal_ray.geo.wkb import explode

    def ex(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in batch.iterrows():
            for part in explode(bytes(r[geom_col])):
                r2 = r.copy()
                r2[geom_col] = part
                rows.append(r2)
        return pd.DataFrame(rows).reset_index(drop=True) if rows else batch.iloc[:0]

    return ds.map_batches(ex, batch_format="pandas")


@register_step("clip")
def _step_clip(ds, bbox: list = None, wkb_hex: str = None,
               geom_col: str = "geometry"):
    """Clip step (gdalalg_vector_clip): polygon geometries clip against a
    bbox [minx, miny, maxx, maxy] or an arbitrary clip polygon passed as
    hex WKB; pieces that survive re-emit as a (Multi)Polygon, rows whose
    geometry vanishes are dropped. Clipping runs through the engine's
    exact constructive kernels (geo/booleanops.polygon_intersection)."""
    import numpy as np

    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.booleanops import polygon_intersection
    from gdal_ray.geo.wkb import (decode_polygons, encode_multipolygon,
                                  encode_polygon)

    if (bbox is None) == (wkb_hex is None):
        raise ValueError("clip needs exactly one of bbox= or wkb_hex=")
    if bbox is not None:
        minx, miny, maxx, maxy = (float(v) for v in bbox)
        clip_ring = np.array([[minx, miny], [maxx, miny],
                              [maxx, maxy], [minx, maxy]])
    else:
        clip_ring = decode_polygons(bytes.fromhex(wkb_hex))[0][0]

    def cl(batch: pd.DataFrame) -> pd.DataFrame:
        geoms, keep = [], []
        for i, b in enumerate(batch[geom_col]):
            if b is None:
                continue
            pieces = []
            for rings in decode_polygons(bytes(b)):
                pieces.extend(polygon_intersection(rings[0], clip_ring))
            pieces = [p for p in pieces if abs(GO.ring_area(p)) > 1e-12]
            if not pieces:
                continue
            keep.append(i)
            geoms.append(encode_polygon([pieces[0]]) if len(pieces) == 1
                         else encode_multipolygon([[p] for p in pieces]))
        out = batch.iloc[keep].copy()
        out[geom_col] = geoms
        return out

    return ds.map_batches(cl, batch_format="pandas")
