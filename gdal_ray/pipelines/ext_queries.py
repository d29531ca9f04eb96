"""Queries for the sampling operator and the user-extension Pipeline
registry — both DuckDB-checkable."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import ray.data as rd  # noqa: F401
from gdal_ray.fixtures.generate import FIXTURE_ROOT
from gdal_ray.sources.corpus import read_parquet_tight as _rpt
from ray.data.aggregate import Count, Min

__all__ = [
    "q_sample_lattice", "q_pipeline_chain", "q_audio_features",
    "q_ogrsql", "q_ogrsql2", "OGRSQL2_TEXT", "q_doc_fingerprint",
    "q_hll_distinct", "q_cms_custkey", "q_geojson_roundtrip",
    "q_gpkg_roundtrip",
    "q_shp_roundtrip", "q_csv_roundtrip", "q_mbtiles_roundtrip",
    "q_pipeline_geo",
    "q_quantile_chars", "q_quantile_sketch_price", "q_quantile_by_lang",
    "q_stratified_docs", "q_heavy_users", "q_repetition_docs", "q_pii_redact",
    "q_dsir_select", "q_bpe_fertility", "q_gpx_roundtrip", "q_c4_filter", "q_kml_roundtrip",
    "q_arrow_roundtrip", "q_gopher_ngrams", "q_repetition_paras",
    "q_geodetic_tiles", "q_data_mixture", "q_asof_purchase", "q_range_join",
    "q_gml_roundtrip", "q_dolma_signals",
    "q_cc_lattice", "q_dup_clusters", "q_rare_tokens", "q_tfidf_topk",
    "q_curation_sql",
]


def q_sample_lattice(sf_dir: str):
    """Deterministic 10% key-hash sample of customers -> per-segment counts
    (the reproducible, SQL-parity form of the sampling operator)."""
    from gdal_ray.stages.sampling import deterministic_sample

    ds = _rpt(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    return (
        deterministic_sample(ds, "c_custkey", 10)
        .groupby("c_mktsegment")
        .aggregate(Count(alias_name="n_sampled"), Min("c_custkey", alias_name="min_key"))
    )


def q_pipeline_chain(sf_dir: str):
    """A user-composed named-step chain (the gdalalg pipeline surface:
    filter ! derive ! select ! sort ! limit) over the part table."""
    from gdal_ray.pipelines.registry import Pipeline

    ds = _rpt(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_size"]
    )
    pipe = Pipeline(
        [
            ("filter", {"expr": "p_size > 20"}),
            ("derive", {"col": "vol", "expr": "p_size * p_partkey"}),
            ("select", {"columns": ["p_partkey", "p_size", "vol"]}),
            ("sort", {"keys": ["vol", "p_partkey"], "descending": [True, False]}),
            ("limit", {"n": 50}),
        ]
    )
    return pipe.run(ds)


def q_audio_features(sf_dir: str):
    """Audio modality end-to-end on REAL WAV payloads: a deterministic
    tone corpus (seeded per scale from the documents row count) is encoded
    as RIFF PCM, decoded by the real codec and featurized by the actor-pool
    DSP stage. Emits (clip_id, hot_band, centroid_err) — centroid_err is
    |spectral_centroid - tone/nyquist|, a self-checking residual that
    should stay small for every clip (rows-only gate; exactness tests in
    tests/test_audio.py)."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq

    from gdal_ray.stages.multimodal import AudioFeatures, make_wav_audio_table

    n_docs = pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows
    n = max(32, min(512, n_docs // 4))
    t = make_wav_audio_table(n, seed=42, sr=16000)
    ds = rd.from_arrow(t)
    feats = ds.map_batches(
        AudioFeatures, batch_format="pyarrow", batch_size=64,
        concurrency=(1, 4), num_cpus=1,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        bands = np.stack(batch["features"].to_numpy())
        batch["hot_band"] = bands.argmax(axis=1).astype("int32")
        batch["centroid_err"] = (
            batch["spectral_centroid"] - batch["tone_hz"] / 8000.0
        ).abs().round(4)
        return batch[["clip_id", "hot_band", "centroid_err"]]

    return feats.map_batches(finish, batch_format="pandas")


def q_ogrsql(sf_dir: str):
    """Parsed OGR-SQL entry point (GDALDataset::ExecuteSQL analogue,
    ogr/swq.cpp + ogr_gensql.cpp): the SQL text below goes through the
    engine's own tokenizer/parser/compiler (gdal_ray/sql.py) into a Ray
    plan — filter+stage fused with the read, distributed groupby
    aggregate, sort, a NON-EQUALITY correlated EXISTS compiled to the
    bounded broadcast nested loop, and a CASE/NULLIF column (the
    SQLite-dialect escape-hatch surface) aggregated per group. The
    driver twin is the same logical query (with the DuckDB BIGINT cast
    on SUM)."""
    from gdal_ray.sql import execute_sql

    return execute_sql(
        "SELECT p_brand, COUNT(*) AS n_parts, SUM(p_size) AS sum_size, "
        "MIN(p_size) AS min_size, MAX(p_size) AS max_size, "
        "SUM(CASE WHEN p_size > 20 THEN 1 ELSE 0 END) AS n_big, "
        "COUNT(NULLIF(p_size, 15)) AS n_not15 "
        "FROM part WHERE p_type LIKE '%DAR%' AND p_size BETWEEN 4 AND 44 "
        "AND EXISTS (SELECT 1 FROM supplier s "
        "WHERE s.s_suppkey < part.p_size AND s.s_suppkey < 20 AND s.s_acctbal > 5000) "
        "GROUP BY p_brand ORDER BY SUM(p_size) DESC, p_brand",
        sf_dir,
    )


#: SQL text shared verbatim between the engine run and the DuckDB twin
#: (LEFT JOIN is explicit so both dialects agree; the OGR dialect's bare
#: JOIN is also a left join). Exercises the round-5 parser surface in one
#: driver-hashed statement: chained secondary-table joins, IN (subquery)
#: resolved to a broadcast value set, a correlated EXISTS compiled to a
#: broadcast semi-filter, an integer scalar subquery folded to a literal,
#: HAVING over an aggregate, COUNT(DISTINCT), and a UNION ALL arm whose
#: trailing ORDER BY + LIMIT/OFFSET apply to the combined result
#: (ogr_gensql.cpp:1497 join machinery; swq HAVING + distinct_flag +
#: limit/offset surfaces, ogr_swq.h:480; SQLite-dialect UNION/EXISTS
#: surface via ogrsqliteexecutesql.cpp).
OGRSQL2_TEXT = (
    "SELECT n.n_name AS n_name, COUNT(*) AS n_cust, "
    "CAST(SUM(c.c_custkey) AS BIGINT) AS sum_key, "
    "COUNT(DISTINCT c.c_mktsegment) AS n_seg "
    "FROM customer c "
    "LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "LEFT JOIN region r ON n.n_regionkey = r.r_regionkey "
    "WHERE r.r_name IN (SELECT r_name FROM region WHERE r_regionkey <= 2) "
    "AND c.c_custkey IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 100000) "
    "AND EXISTS (SELECT 1 FROM supplier s "
    "WHERE s.s_nationkey = c.c_nationkey) "
    "AND c.c_custkey > (SELECT MIN(o_custkey) FROM orders) "
    "GROUP BY n.n_name HAVING COUNT(*) > 2 "
    "UNION all "
    "SELECT p_brand, COUNT(*) AS n, CAST(SUM(p_partkey) AS BIGINT), "
    "COUNT(DISTINCT p_size) "
    "FROM part WHERE p_size BETWEEN 10 AND 30 "
    "GROUP BY p_brand HAVING COUNT(*) > 1 "
    "UNION all "
    "SELECT CONCAT('pair_', CAST(a.n_regionkey AS VARCHAR)) AS nm, "
    "COUNT(*) AS np, CAST(SUM(b.n_nationkey) AS BIGINT), "
    "COUNT(DISTINCT a.n_nationkey) "
    "FROM nation a LEFT JOIN nation b ON a.n_regionkey = b.n_regionkey "
    "WHERE a.n_nationkey < b.n_nationkey "
    "GROUP BY CONCAT('pair_', CAST(a.n_regionkey AS VARCHAR)) "
    "ORDER BY n_name LIMIT 1000 OFFSET 1"
)


def q_ogrsql2(sf_dir: str):
    """Round-5 OGR-SQL breadth through the engine's own parser
    (gdal_ray/sql.py): aliased chained LEFT JOINs, two IN-subqueries (one
    on a joined column, one a semi-join against orders), a correlated
    EXISTS semi-filter with aliased inner AND outer instances, an integer
    scalar subquery, a HAVING filter, COUNT(DISTINCT), a UNION ALL arm, a
    SELF-JOIN arm (nation pairs sharing a region) grouped by a computed
    expression, and a trailing LIMIT/OFFSET. The twin is the identical
    SQL text run by DuckDB."""
    from gdal_ray.sql import execute_sql

    return execute_sql(OGRSQL2_TEXT, sf_dir)


def q_geojson_roundtrip(sf_dir: str):
    """GeoJSONSeq driver identity round-trip, SQL-twinnable: customer rows
    become WKB Points with exactly-representable coordinates (halves /
    quarters of c_custkey residues), write one .geojsonl shard per block,
    read the shards back through the distributed text reader, decode and
    aggregate per segment. JSON float serialization is shortest-round-trip
    (repr), so the identity holds bit-exact and the DuckDB twin computes
    the same sums straight from the parquet table. Exercises: vectorized
    WKB point encode, GeoJSON feature write, sharded text read, JSON
    parse, WKB decode (sources/geojson.py; reference driver
    ogr/ogrsf_frmts/geojson/). Refs: ogrgeojsonreader.cpp,
    ogrgeojsonseqdriver.cpp."""
    import struct

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from gdal_ray.geo.wkb import decode_points
    from gdal_ray.sources.geojson import read_geojsonseq, write_geojsonseq

    ds = _rpt(os.path.join(sf_dir, "customer.parquet"),
              columns=["c_custkey", "c_mktsegment"])
    n_rows = ds.count()
    out = os.path.join(FIXTURE_ROOT, f"gj_cust_{n_rows}")
    shutil.rmtree(out, ignore_errors=True)

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["c_custkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        n = len(k)
        buf = np.empty((n, 21), dtype=np.uint8)
        buf[:, 0] = 1
        buf[:, 1:5] = np.frombuffer(struct.pack("<I", 1), dtype=np.uint8)
        buf[:, 5:13] = x.astype("<f8").view(np.uint8).reshape(n, 8)
        buf[:, 13:21] = y.astype("<f8").view(np.uint8).reshape(n, 8)
        return pa.table({
            "fid": pa.array(k, pa.int64()),
            "geometry": pa.array([r.tobytes() for r in buf], pa.binary()),
            "segment": t["c_mktsegment"],
        })

    feats = ds.map_batches(to_features, batch_format="pyarrow")
    write_geojsonseq(feats, out).materialize()  # tiny shard summary

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "segment": df["segment"],
            "n": np.ones(len(df), dtype=np.int64),
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "fid": df["fid"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Min, Sum

    return (
        read_geojsonseq(out, fields=["segment"])
        .map_batches(finish, batch_format="pandas")
        .groupby("segment")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            Min("fid", alias_name="min_fid"),
            Max("fid", alias_name="max_fid"),
        )
        .sort("segment")
    )


def q_gpkg_roundtrip(sf_dir: str):
    """GeoPackage driver identity round-trip, SQL-twinnable (the
    q_geojson_roundtrip pattern over a different driver): supplier rows
    become WKB Points wrapped in GP blobs, written through the
    single-writer GeoPackage sink, read back by the ROWID-sharded
    distributed reader, decoded and aggregated per nation. Exercises:
    GP header wrap/unwrap, spec-table write, sqlite rowid-range sharding
    (sources/gpkg.py; reference ogr/ogrsf_frmts/gpkg/)."""
    import struct

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from gdal_ray.geo.wkb import decode_points
    from gdal_ray.sources.gpkg import read_gpkg, write_gpkg

    ds = _rpt(os.path.join(sf_dir, "supplier.parquet"),
              columns=["s_suppkey", "s_nationkey"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["s_suppkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        n = len(k)
        buf = np.empty((n, 21), dtype=np.uint8)
        buf[:, 0] = 1
        buf[:, 1:5] = np.frombuffer(struct.pack("<I", 1), dtype=np.uint8)
        buf[:, 5:13] = x.astype("<f8").view(np.uint8).reshape(n, 8)
        buf[:, 13:21] = y.astype("<f8").view(np.uint8).reshape(n, 8)
        return pa.table({
            "fid": pa.array(k, pa.int64()),
            "geometry": pa.array([r.tobytes() for r in buf], pa.binary()),
            "nationkey": pa.array(
                np.asarray(t["s_nationkey"], dtype=np.int64), pa.int64()
            ),
        })

    n_rows = ds.count()
    path = os.path.join(FIXTURE_ROOT, f"gpkg_sup_{n_rows}.gpkg")
    write_gpkg(ds.map_batches(to_features, batch_format="pyarrow"),
               path, "suppliers", srs_id=4326, geometry_type="POINT")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "nationkey": df["nationkey"].astype(np.int64),
            "n": np.ones(len(df), dtype=np.int64),
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "fid": df["fid"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Min, Sum

    return (
        read_gpkg(path, layer="suppliers", shard_rows=4096)
        .map_batches(finish, batch_format="pandas")
        .groupby("nationkey")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            Min("fid", alias_name="min_fid"),
            Max("fid", alias_name="max_fid"),
        )
        .sort("nationkey")
    )


def q_shp_roundtrip(sf_dir: str):
    """ESRI Shapefile driver identity round-trip, SQL-twinnable (the
    q_gpkg_roundtrip pattern over the third vector driver): part rows
    become .shp Point records with exactly-representable coordinates plus
    .dbf attributes (numeric key, text brand), written through the
    bounded single-writer sink, read back by the .shx record-range-sharded
    distributed reader, decoded and aggregated per brand. Exercises:
    WKB<->shape-record conversion, DBF fixed-width encode/parse, .shx
    sharding (sources/shapefile.py; reference
    ogr/ogrsf_frmts/shape/shape2ogr.cpp, shapefil.h)."""
    import struct

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from gdal_ray.geo.wkb import decode_points
    from gdal_ray.sources.shapefile import read_shapefile, write_shapefile

    ds = _rpt(os.path.join(sf_dir, "part.parquet"),
              columns=["p_partkey", "p_brand"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["p_partkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        n = len(k)
        buf = np.empty((n, 21), dtype=np.uint8)
        buf[:, 0] = 1
        buf[:, 1:5] = np.frombuffer(struct.pack("<I", 1), dtype=np.uint8)
        buf[:, 5:13] = x.astype("<f8").view(np.uint8).reshape(n, 8)
        buf[:, 13:21] = y.astype("<f8").view(np.uint8).reshape(n, 8)
        return pa.table({
            "geometry": pa.array([r.tobytes() for r in buf], pa.binary()),
            "key": pa.array(k, pa.int64()),
            "brand": t["p_brand"],
        })

    n_rows = ds.count()
    base = os.path.join(FIXTURE_ROOT, f"shp_part_{n_rows}")
    write_shapefile(ds.map_batches(to_features, batch_format="pyarrow"),
                    base)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "brand": df["brand"],
            "n": np.ones(len(df), dtype=np.int64),
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "key": df["key"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Sum
    from ray.data.aggregate import Min as AMin

    return (
        read_shapefile(base, shard_records=512)
        .map_batches(finish, batch_format="pandas")
        .groupby("brand")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            AMin("key", alias_name="min_key"),
            Max("key", alias_name="max_key"),
        )
        .sort("brand")
    )


def q_csv_roundtrip(sf_dir: str):
    """CSV layer driver identity round-trip, SQL-twinnable (completes the
    vector-driver set: GeoJSON, GeoPackage, Shapefile, CSV). Order rows
    become WKB Points exported as a WKT column (AS_WKT mode), one atomic
    .csv shard per block, read back through ray.data.read_csv + WKT->WKB
    conversion, aggregated per priority. WKT serialization is
    shortest-round-trip (repr), so coordinates survive bit-exact
    (property-tested in tests/test_codecs_property.py). Exercises:
    WKB->WKT->WKB codec, sharded CSV write/read (sources/csvlayer.py;
    reference ogr/ogrsf_frmts/csv/ogrcsvlayer.cpp)."""
    import struct

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from gdal_ray.geo.wkb import decode_points
    from gdal_ray.sources.csvlayer import read_csv_layer, write_csv_layer

    ds = _rpt(os.path.join(sf_dir, "orders.parquet"),
              columns=["o_orderkey", "o_orderpriority"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["o_orderkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        n = len(k)
        buf = np.empty((n, 21), dtype=np.uint8)
        buf[:, 0] = 1
        buf[:, 1:5] = np.frombuffer(struct.pack("<I", 1), dtype=np.uint8)
        buf[:, 5:13] = x.astype("<f8").view(np.uint8).reshape(n, 8)
        buf[:, 13:21] = y.astype("<f8").view(np.uint8).reshape(n, 8)
        return pa.table({
            "geometry": pa.array([r.tobytes() for r in buf], pa.binary()),
            "key": pa.array(k, pa.int64()),
            "priority": t["o_orderpriority"],
        })

    n_rows = ds.count()
    out = os.path.join(FIXTURE_ROOT, f"csv_orders_{n_rows}")
    shutil.rmtree(out, ignore_errors=True)
    write_csv_layer(ds.map_batches(to_features, batch_format="pyarrow"),
                    out).materialize()  # tiny shard summary

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "priority": df["priority"],
            "n": np.ones(len(df), dtype=np.int64),
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "key": df["key"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Sum
    from ray.data.aggregate import Min as AMin

    return (
        read_csv_layer(out, wkt_col="wkt")
        .map_batches(finish, batch_format="pandas")
        .groupby("priority")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            AMin("key", alias_name="min_key"),
            Max("key", alias_name="max_key"),
        )
        .sort("priority")
    )


def q_mbtiles_roundtrip(sf_dir: str):
    """MBTiles driver identity round-trip, SQL-twinnable (the
    q_gpkg_roundtrip pattern over the raster tileset driver): part keys
    become unique valid (z, x, y) XYZ tiles at z=12..14 with the key's
    ASCII digits as the tile blob, written through the single-writer
    MBTiles sink (TMS rows on disk), read back by the ROWID-sharded
    distributed reader (XYZ restored), blobs parsed and aggregated per
    zoom. Exercises: TMS<->XYZ flip, metadata/extent computation, sqlite
    rowid-range sharding (sources/mbtiles.py; reference
    frmts/mbtiles/mbtilesdataset.cpp)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from gdal_ray.sources.mbtiles import read_mbtiles, write_mbtiles

    ds = _rpt(os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"])

    def to_tiles(t: pa.Table) -> pa.Table:
        k = np.asarray(t["p_partkey"], dtype=np.int64)
        z = 12 + k % 3
        j = k // 3
        return pa.table({
            "z": pa.array(z), "x": pa.array(j % 4096),
            "y": pa.array(j // 4096),
            "png": pa.array([str(int(v)).encode() for v in k], pa.binary()),
        })

    n_rows = ds.count()
    path = os.path.join(FIXTURE_ROOT, f"mbt_part_{n_rows}.mbtiles")
    write_mbtiles(ds.map_batches(to_tiles, batch_format="pyarrow"), path,
                  name="part_tiles")

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "z": df["z"].astype(np.int64),
            "key": [int(bytes(b).decode()) for b in df["png"]],
            "x": df["x"].astype(np.int64),
            "y": df["y"].astype(np.int64),
            "blob_len": [len(bytes(b)) for b in df["png"]],
        })

    from ray.data.aggregate import Count, Max, Sum

    return (
        read_mbtiles(path, shard_rows=2048)
        .map_batches(finish, batch_format="pandas")
        .groupby("z")
        .aggregate(
            Count(alias_name="n"),
            Sum("key", alias_name="sum_key"),
            Sum("x", alias_name="sum_x"),
            Sum("y", alias_name="sum_y"),
            Max("y", alias_name="max_y"),
            Sum("blob_len", alias_name="sum_len"),
        )
        .sort("z")
    )


def q_pipeline_geo(sf_dir: str):
    """The gdalalg_vector GEOMETRY step family end-to-end with a SQL
    twin: customer rows become WKB lon/lat Points, a registered step
    chain reprojects them 4326->3857 (geo/mercator.py spherical
    formulas) and swaps the axes (map_coords), and floored coordinates
    aggregate per segment. The DuckDB twin replays the mercator math in
    the engine's exact operation order (numpy pi == DuckDB pi()), so the
    floors are bit-identical. Exercises: Pipeline(reproject, swap-xy),
    WKB map_coords, point codec. Ref: apps/gdalalg_vector_pipeline.cpp
    step registry."""
    import struct

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from gdal_ray.geo.wkb import decode_points
    from gdal_ray.pipelines.registry import Pipeline

    ds = _rpt(os.path.join(sf_dir, "customer.parquet"),
              columns=["c_custkey", "c_mktsegment"])

    def to_points(t: pa.Table) -> pa.Table:
        k = np.asarray(t["c_custkey"], dtype=np.int64)
        lon = (k % 360 - 180).astype(np.float64) + 0.5
        lat = (k % 140 - 70).astype(np.float64) + 0.25
        n = len(k)
        buf = np.empty((n, 21), dtype=np.uint8)
        buf[:, 0] = 1
        buf[:, 1:5] = np.frombuffer(struct.pack("<I", 1), dtype=np.uint8)
        buf[:, 5:13] = lon.astype("<f8").view(np.uint8).reshape(n, 8)
        buf[:, 13:21] = lat.astype("<f8").view(np.uint8).reshape(n, 8)
        return pa.table({
            "geometry": pa.array([r.tobytes() for r in buf], pa.binary()),
            "segment": t["c_mktsegment"],
        })

    chained = Pipeline([
        ("reproject", {"src_srs": "EPSG:4326", "dst_srs": "EPSG:3857"}),
        ("swap-xy", {}),
    ]).run(ds.map_batches(to_points, batch_format="pyarrow"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "segment": df["segment"],
            "n": np.ones(len(df), dtype=np.int64),
            # after swap-xy, x carries the mercator NORTHING
            "fx": np.floor(x).astype(np.int64),
            "fy": np.floor(y).astype(np.int64),
        })

    from ray.data.aggregate import Count, Sum

    return (
        chained.map_batches(finish, batch_format="pandas")
        .groupby("segment")
        .aggregate(
            Count(alias_name="n"),
            Sum("fx", alias_name="sum_fx"),
            Sum("fy", alias_name="sum_fy"),
        )
        .sort("segment")
    )


def q_doc_fingerprint(sf_dir: str):
    """Rolling-hash document fingerprinting (FNV-1a 64-bit over utf-8
    bytes, stages/text.py Fingerprint — batch-vectorized byte-column
    recurrence). The DuckDB twin replays the identical recurrence via
    hex(encode(text)) byte extraction + list_reduce with mod-2^64
    UHUGEINT arithmetic, bit-exact including the two's-complement view."""
    from gdal_ray.stages.text import Fingerprint

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    fp = ds.map_batches(Fingerprint(), batch_format="pandas")
    return fp.map_batches(
        lambda df: df[["doc_id", "fingerprint"]], batch_format="pandas"
    )


def q_hll_distinct(sf_dir: str):
    """HyperLogLog distinct-count sketch over orders.o_custkey (engine
    addition, stages/sketch.py): per-block register partials, associative
    max-combine, final register TABLE (integer-exact — the DuckDB twin
    replays splitmix64 + the leading-zero rank via length(bin(x))). The
    ESTIMATE (bias-corrected + linear-counting) is pinned by pytest
    against the true distinct count."""
    import os

    from gdal_ray.sources.corpus import read_parquet_tight as _rpt
    from gdal_ray.stages.sketch import hll_registers

    ds = _rpt(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    table, _ = hll_registers(ds, "o_custkey")
    return table


def q_cms_custkey(sf_dir: str):
    """CountMin frequency sketch over orders.o_custkey (engine addition,
    stages/sketch.py): per-block (4 x 1024) register partials, associative
    sum-combine, final register TABLE (integer-exact — the DuckDB twin
    replays splitmix64 and the bit-slice slots). Point-query accuracy
    (estimate >= true count, equality without collisions) is pinned by
    pytest."""
    import os

    from gdal_ray.sources.corpus import read_parquet_tight as _rpt
    from gdal_ray.stages.sketch import cms_registers

    ds = _rpt(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    table, _ = cms_registers(ds, "o_custkey")
    return table


def q_quantile_chars(sf_dir: str):
    """Exact distributed percentiles over documents.n_chars (engine
    addition, stages/quantile.py exact_int_quantiles): per-block
    (value,count) partial histograms, ONE small merge group-by, driver
    cumsum over the <= distinct-count rows — the shape that keeps exact
    p50/p90/p99 one-pass at 10^12 rows. Rank rule (smallest v with
    cum >= ceil(q*n/100)) is replayed by the DuckDB twin with window
    functions in exact integer math."""
    from gdal_ray.stages.quantile import exact_int_quantiles

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"), columns=["n_chars"])
    return exact_int_quantiles(ds, "n_chars", [10, 25, 50, 75, 90, 99, 100])


def q_quantile_sketch_price(sf_dir: str):
    """KLL sketch percentiles (Karnin-Lang-Liberty 2016) over
    orders.o_totalprice: one few-KB mergeable sketch per block, driver
    merge — the unbounded-column scale path next to q_quantile_chars'
    exact histogram. Rows-only under the gate; the ~1.65/k rank-error
    bound is pinned by tests/test_quantile.py across distributions,
    merges and the distributed path."""
    import numpy as np

    from gdal_ray.stages.quantile import kll_quantiles

    ds = _rpt(os.path.join(sf_dir, "orders.parquet"), columns=["o_totalprice"])
    df = kll_quantiles(ds, "o_totalprice", [0.5, 0.9, 0.99], k=256)
    df["q_pct"] = (df["q"] * 100).astype(np.int64)
    return df[["q_pct", "value", "n"]]


def q_quantile_by_lang(sf_dir: str):
    """Exact per-group percentiles (stages/quantile.grouped_int_quantiles):
    documents.n_chars p50/p90/p99 PER LANGUAGE. The shuffle carries
    (lang, value, count) partial-histogram rows — distinct pairs, not
    data rows. Twin: the same rank rule replayed with PARTITION BY
    window functions."""
    from gdal_ray.stages.quantile import grouped_int_quantiles

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["lang", "n_chars"])
    # num_buckets sized to the handful of distinct languages (empty
    # hash buckets only add 0-row blocks and executor noise)
    return grouped_int_quantiles(ds, "lang", "n_chars", [50, 90, 99],
                                 num_buckets=8).sort(["lang", "q_pct"])


def q_stratified_docs(sf_dir: str):
    """Balanced per-group sampling (stages/sampling.stratified_sample):
    the 40 documents with the smallest Knuth id-hash PER LANGUAGE —
    reproducible curation sampling whose one keyed shuffle carries only
    per-block top-n pre-reductions. Twin: ROW_NUMBER() OVER
    (PARTITION BY lang ORDER BY hash, id) <= 40 with the identical
    uint32 hash."""
    from gdal_ray.stages.sampling import stratified_sample

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["lang", "doc_id"])
    return stratified_sample(ds, "lang", "doc_id", 40, num_buckets=8).sort(
        ["lang", "doc_id"]
    )


def q_heavy_users(sf_dir: str):
    """Exact heavy hitters over events.user_id (stages/heavyhitters):
    Misra-Gries candidate pass (O(k) state per block, no shuffle) + an
    exact broadcast-verify count — the output EQUALS the exact
    HAVING COUNT(*) >= ceil(n/128) answer, which is the twin."""
    from gdal_ray.stages.heavyhitters import heavy_hitters

    ds = _rpt(os.path.join(sf_dir, "events.parquet"), columns=["user_id"])
    return heavy_hitters(ds, "user_id", denom=128)


def q_repetition_docs(sf_dir: str):
    """Gopher-style repetition quality metrics (stages/text.RepetitionStats,
    Rae et al. 2021): per-document duplicate-line count and duplicate-line
    character fraction, quantized in EXACT integer math
    (dup_chars*10000 // chars) so the DuckDB twin (string_split(chr(10))
    + GROUP BY + integer division) matches bit-for-bit."""
    import pandas as pd  # noqa: F401

    from gdal_ray.stages.text import RepetitionStats

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    return (
        ds.map_batches(RepetitionStats(), batch_format="pandas")
        .select_columns(["doc_id", "n_dup_lines", "dup_line_char_frac_q"])
        .sort("doc_id")
    )


def q_pii_redact(sf_dir: str):
    """PII redaction (stages/text.PIIRedact): emails / phones / IPv4
    scrubbed with RE2-compatible patterns. The synthetic corpus carries
    no PII, so the query first injects deterministic doc_id-derived PII
    (same concatenation expression as the SQL twin) into a fraction of
    the docs; counts are taken on the pre-redaction text and
    ``redacted_md5`` value-checks the full string transform."""
    import pandas as pd

    from gdal_ray.stages.text import PIIRedact

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])

    def inject(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].astype("int64")
        s = d.astype(str)
        email = (" mail user" + s + "@ex" + (d % 7).astype(str) + ".org"
                 ).where(d % 3 == 0, "")
        phone = (" call 555-" + (100 + d % 900).astype(str) + "-"
                 + (1000 + d % 9000).astype(str)).where(d % 4 == 0, "")
        ip = (" ip 10." + (d % 256).astype(str) + "."
              + ((d * 7) % 256).astype(str) + "." + (d % 100).astype(str)
              ).where(d % 5 == 0, "")
        batch["text"] = batch["text"].fillna("") + email + phone + ip
        return batch

    return (
        ds.map_batches(inject, batch_format="pandas")
        .map_batches(PIIRedact(), batch_format="pandas", batch_size=2048)
        .select_columns(["doc_id", "n_emails", "n_phones", "n_ips",
                         "redacted_md5"])
        .sort("doc_id")
    )


def q_dsir_select(sf_dir: str):
    """DSIR data selection (stages/dsir.py, Xie et al. 2023): hashed
    uni+bigram importance weights with lang='en' as the target domain,
    deterministic top-150 by (logw_q DESC, doc_id). Integer-exact: the
    per-bucket log-ratio is quantized to 1e-6 BEFORE the per-doc sum, so
    the DuckDB twin recomputes the whole chain verbatim (md5 bucket ids
    included)."""
    import pandas as pd

    from gdal_ray.stages.dsir import dsir_select

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text", "lang"])
    sel = dsir_select(ds, "lang", "en", k=150, num_feats=1024)

    def attach_lang(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[["doc_id", "n_grams", "logw_q"]]

    return sel.map_batches(attach_lang, batch_format="pandas")


def q_c4_filter(sf_dir: str):
    """C4 line-level quality filter (stages/text.C4LineFilter, Raffel et
    al. 2020 §2.2). The corpus has no newlines, so the query first derives
    a line-structured text deterministically (5 tokens per line; line li
    of doc d gets a terminal '.' iff (d + li) % 3 != 0 — the same
    expression as the SQL twin), then filters: terminal punctuation +
    >=5 words per line, >=3 surviving lines per doc."""
    import pandas as pd

    from gdal_ray.stages.text import C4LineFilter

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])

    def inject(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        d = batch["doc_id"].astype("int64")
        ex = batch["text"].fillna("").str.split(" ").explode()
        rows = ex.index.to_numpy()
        pos = pd.Series(rows).groupby(rows).cumcount().to_numpy()
        df = pd.DataFrame({"row": rows, "li": pos // 5,
                           "w": ex.to_numpy(object)})
        lines = df.groupby(["row", "li"])["w"].agg(" ".join).reset_index()
        term = ((d.to_numpy()[lines["row"]] + lines["li"]) % 3 != 0)
        lines["line"] = lines["w"] + np.where(term, ".", "")
        txt = lines.groupby("row")["line"].agg("\n".join)
        batch["text"] = txt.reindex(range(len(batch))).fillna("")
        return batch

    return (
        ds.map_batches(inject, batch_format="pandas")
        .map_batches(C4LineFilter, batch_format="pandas",
                     concurrency=(1, 4), batch_size=2048)
        .select_columns(["doc_id", "n_lines", "n_kept", "kept_chars",
                         "keep_doc"])
        .sort("doc_id")
    )


def q_gpx_roundtrip(sf_dir: str):
    """GPX driver identity round-trip, SQL-twinnable (the shp/gpkg
    pattern over the fifth vector driver): part rows become <wpt>
    waypoints with exactly-representable lon/lat (repr serialization is
    shortest-round-trip, so the XML text parses back bit-exact), written
    as one .gpx shard per block, read back by the per-file distributed
    reader and aggregated per brand (sources/gpx.py; reference
    ogr/ogrsf_frmts/gpx/ogrgpxlayer.cpp)."""
    import pandas as pd

    from gdal_ray.geo.wkb import decode_points, encode_point
    from gdal_ray.sources.gpx import read_gpx, write_gpx_dir

    ds = _rpt(os.path.join(sf_dir, "part.parquet"),
              columns=["p_partkey", "p_brand"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["p_partkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        return pa.table({
            "fid": pa.array(k, pa.int64()),
            "geometry": pa.array(
                [encode_point(float(a), float(b)) for a, b in zip(x, y)],
                pa.binary()),
            "name": pa.array(t["p_brand"].to_pylist(), pa.string()),
            "desc": pa.array([None] * len(k), pa.string()),
            "ele": pa.array((k % 1000).astype(np.float64)),
        })

    n_rows = ds.count()
    base = os.path.join(FIXTURE_ROOT, f"gpx_part_{n_rows}")
    shutil.rmtree(base, ignore_errors=True)  # stale shards would be read back
    write_gpx_dir(ds.map_batches(to_features, batch_format="pyarrow"),
                  base, "waypoints").materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "brand": df["name"],
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "ele": df["ele"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Sum

    return (
        read_gpx(base, "waypoints")
        .map_batches(finish, batch_format="pandas")
        .groupby("brand")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            Sum("ele", alias_name="sum_ele"),
        )
        .sort("brand")
    )


def q_kml_roundtrip(sf_dir: str):
    """KML driver identity round-trip, SQL-twinnable (sixth vector
    driver): customer rows become Placemark Points with
    exactly-representable lon/lat, one .kml shard per block, read back
    distributed and aggregated per segment (sources/kml.py; reference
    ogr/ogrsf_frmts/kml/)."""
    import pandas as pd

    from gdal_ray.geo.wkb import decode_points, encode_point
    from gdal_ray.sources.kml import read_kml, write_kml_dir

    ds = _rpt(os.path.join(sf_dir, "customer.parquet"),
              columns=["c_custkey", "c_mktsegment"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["c_custkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        return pa.table({
            "fid": pa.array(k, pa.int64()),
            "geometry": pa.array(
                [encode_point(float(a), float(b)) for a, b in zip(x, y)],
                pa.binary()),
            "name": pa.array([f"c{int(v)}" for v in k], pa.string()),
            "description": pa.array(t["c_mktsegment"].to_pylist(),
                                    pa.string()),
        })

    n_rows = ds.count()
    base = os.path.join(FIXTURE_ROOT, f"kml_cust_{n_rows}")
    shutil.rmtree(base, ignore_errors=True)  # stale shards would be read back
    write_kml_dir(ds.map_batches(to_features, batch_format="pyarrow"),
                  base).materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "segment": df["description"],
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "key": df["name"].str.slice(1).astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Sum

    return (
        read_kml(base)
        .map_batches(finish, batch_format="pandas")
        .groupby("segment")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            Max("key", alias_name="max_key"),
        )
        .sort("segment")
    )


def q_asof_purchase(sf_dir: str):
    """Distributed AS-OF join (stages/asof.py): for every click event,
    the user's most recent purchase at or before it — ONE co-shuffle
    keyed on user, per-group vectorized merge_asof. Purchases are
    pre-deduped per (user, ts) keeping the max event_id so tie handling
    is engine-independent; the twin is a literal DuckDB ASOF LEFT JOIN."""
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.stages.asof import asof_join

    ev = _rpt(os.path.join(sf_dir, "events.parquet"),
              columns=["event_id", "ts", "user_id", "event_type", "value"])

    def norm(t: pa.Table) -> pa.Table:
        v = np.asarray(t["value"], dtype=np.float64)
        return pa.table({
            "event_id": t["event_id"].cast(pa.int64()),
            "user_id": t["user_id"].cast(pa.int64()),
            "us": t["ts"].cast(pa.int64()),
            "event_type": t["event_type"],
            "v2": pa.array(np.floor(v * 100.0 + 0.5).astype(np.int64)),
        })

    e = ev.map_batches(norm, batch_format="pyarrow")
    left = e.filter(expr="event_type == 'click'").select_columns(
        ["event_id", "user_id", "us"])
    pur = e.filter(expr="event_type == 'purchase'").select_columns(
        ["user_id", "us", "event_id", "v2"])

    def dedup(part: pd.DataFrame) -> pd.DataFrame:
        g = (part.sort_values(["user_id", "us", "event_id"])
             .groupby(["user_id", "us"], sort=False).tail(1))
        g = g.rename(columns={"event_id": "pid"})
        g["rus"] = g["us"]
        return g[["user_id", "us", "pid", "v2", "rus"]]

    rschema = pa.schema([("user_id", pa.int64()), ("us", pa.int64()),
                         ("pid", pa.int64()), ("v2", pa.int64()),
                         ("rus", pa.int64())])
    right = bucketed_group_apply(pur, ["user_id", "us"], dedup, 8,
                                 schema=rschema)
    lschema = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                         ("us", pa.int64())])
    joined = asof_join(left, right, "user_id", "us", lschema, rschema,
                       num_buckets=8)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "user_id": df["user_id"].astype("int64"),
            "us": df["us"].astype("int64"),
            "purchase_id": df["r_pid"].fillna(-1).astype("int64"),
            "gap_us": (df["us"] - df["r_rus"]).fillna(-1).astype("int64"),
            "purchase_v2": df["r_v2"].fillna(-1).astype("int64"),
        })

    return joined.map_batches(finish, batch_format="pandas").sort("event_id")


def q_range_join(sf_dir: str):
    """Distributed RANGE join (stages/rangejoin.py): event values against
    supplier-derived [lo, hi] intervals via interval binning — each pair
    meets exactly once in the left value's bin. Twin: a plain DuckDB
    inequality join."""
    import pandas as pd

    from gdal_ray.stages.rangejoin import range_join

    ev = _rpt(os.path.join(sf_dir, "events.parquet"),
              columns=["event_id", "value"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table({"event_id": t["event_id"].cast(pa.int64()),
                         "value": t["value"].cast(pa.float64())})

    left = ev.map_batches(norm, batch_format="pyarrow")
    sup = _rpt(os.path.join(sf_dir, "supplier.parquet"),
               columns=["s_suppkey"])

    def intervals(t: pa.Table) -> pa.Table:
        k = np.asarray(t["s_suppkey"], dtype=np.int64)
        lo = ((k * 7919) % 19000) / 100.0
        hi = lo + (1 + k % 5)
        return pa.table({"s_suppkey": pa.array(k), "lo": pa.array(lo),
                         "hi": pa.array(hi)})

    right = sup.map_batches(intervals, batch_format="pyarrow")
    lschema = pa.schema([("event_id", pa.int64()), ("value", pa.float64())])
    rschema = pa.schema([("s_suppkey", pa.int64()), ("lo", pa.float64()),
                         ("hi", pa.float64())])
    joined = range_join(left, right, "value", "lo", "hi", 5.0,
                        lschema, rschema, num_buckets=8)

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_id": df["event_id"].astype("int64"),
            "s_suppkey": df["s_suppkey"].astype("int64"),
            "lo2": np.floor(df["lo"].to_numpy(np.float64) * 100.0
                            + 0.5).astype(np.int64),
        })

    return (joined.map_batches(finish, batch_format="pandas")
            .sort(["event_id", "s_suppkey"]))


def q_data_mixture(sf_dir: str):
    """Data-mixture construction (stages/mixing.py): per-source weights
    w = 1 + (source index % 3), total budget = 2/5 of the corpus char
    mass (all integer math), deterministic per-source doc-id-ordered
    prefix selection. The twin recomputes budgets + the window cumsum."""
    from gdal_ray.stages.mixing import mix_select_summary

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "source", "n_chars"])
    sources = sorted(ds.unique("source"))
    weights = {s: 1 + int(s[3:]) % 3 for s in sources}
    target = int(ds.sum("n_chars")) * 2 // 5
    return mix_select_summary(ds, weights, target).sort("source")


def q_geodetic_tiles(sf_dir: str):
    """gdal2tiles GEODETIC profile tile assignment (geo/geodetic.py;
    gdal2tiles.py:534 GlobalGeodetic, tmscompatible): key-derived lon/lat
    points assigned at zoom 6, reporting both TMS and XYZ rows — the
    ceil(px/256)-1 seam rule and the 2x1 level-0 pyramid are bit-exact
    against the closed-form SQL twin."""
    import pandas as pd

    from gdal_ray.geo.geodetic import lonlat_to_tile_geodetic

    ds = _rpt(os.path.join(sf_dir, "customer.parquet"),
              columns=["c_custkey"])

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        k = batch["c_custkey"].astype("int64").to_numpy()
        lon = ((k * 2654435761) % 360000) / 1000.0 - 180.0
        lat = ((k * 2246822519) % 180000) / 1000.0 - 90.0
        tx, ty = lonlat_to_tile_geodetic(lon, lat, 6, tms_compatible=True)
        return pd.DataFrame({
            "c_custkey": k,
            "tx": tx, "ty_tms": ty,
            "ty_xyz": (2**6 - 1) - ty,
        })

    return ds.map_batches(assign, batch_format="pandas").sort("c_custkey")


def q_repetition_paras(sf_dir: str):
    """Gopher duplicate-PARAGRAPH metrics (the sep='\\n\\n' form of
    stages/text.RepetitionStats). The corpus has no paragraph breaks, so
    the query derives one deterministically — 8 tokens per paragraph,
    with the first (doc_id % 3) paragraphs repeated — the same multiset
    the SQL twin builds with a UNION ALL."""
    import pandas as pd

    from gdal_ray.stages.text import RepetitionStats

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])

    def inject(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.reset_index(drop=True)
        d = batch["doc_id"].astype("int64").to_numpy()
        ex = batch["text"].fillna("").str.split(" ").explode()
        rows = ex.index.to_numpy()
        pos = pd.Series(rows).groupby(rows).cumcount().to_numpy()
        df = pd.DataFrame({"row": rows, "pid": pos // 8,
                           "w": ex.to_numpy(object)})
        paras = df.groupby(["row", "pid"])["w"].agg(" ".join).reset_index()
        k = d[paras["row"]] % 3
        rep = paras[paras["pid"] < k]
        allp = pd.concat([paras, rep], ignore_index=True)
        txt = allp.groupby("row")["para" if "para" in allp else "w"].agg(
            "\n\n".join)
        batch["text"] = txt.reindex(range(len(batch))).fillna("")
        return batch

    return (
        ds.map_batches(inject, batch_format="pandas")
        .map_batches(RepetitionStats(sep="\n\n", unit="para"),
                     batch_format="pandas")
        .select_columns(["doc_id", "n_dup_paras", "dup_para_char_frac_q"])
        .sort("doc_id")
    )


def q_gopher_ngrams(sf_dir: str):
    """Full Gopher n-gram repetition rule set (stages/text.
    GopherNgramStats, Rae et al. 2021 Table A1): top 2/3/4-gram char
    fraction + duplicate 5..10-gram char fraction (overlap counted once
    via interval union), all exact integers (x10000 // total_chars) so
    the lead()-window DuckDB twin matches bit-for-bit."""
    from gdal_ray.stages.text import GopherNgramStats

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    cols = (["doc_id"]
            + [f"top_frac_q_{n}" for n in GopherNgramStats.TOP_NS]
            + [f"dup_frac_q_{n}" for n in GopherNgramStats.DUP_NS])
    return (
        ds.map_batches(GopherNgramStats, batch_format="pandas",
                       concurrency=(1, 8), batch_size=1024)
        .select_columns(cols)
        .sort("doc_id")
    )


def q_arrow_roundtrip(sf_dir: str):
    """Arrow IPC driver identity round-trip, SQL-twinnable (seventh
    vector driver; the reference's ogr/ogrsf_frmts/arrow is the same
    WKB-in-Arrow layer contract this engine uses natively). Orders rows
    + derived point WKB written as one .arrow shard per block, read back
    zero-copy, aggregated per priority."""
    import pandas as pd

    from gdal_ray.geo.wkb import decode_points, encode_point
    from gdal_ray.sources.arrowipc import read_arrow_ipc, write_arrow_ipc

    ds = _rpt(os.path.join(sf_dir, "orders.parquet"),
              columns=["o_orderkey", "o_orderpriority"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["o_orderkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        return pa.table({
            "fid": pa.array(k, pa.int64()),
            "geometry": pa.array(
                [encode_point(float(a), float(b)) for a, b in zip(x, y)],
                pa.binary()),
            "priority": t["o_orderpriority"],
        })

    n_rows = ds.count()
    base = os.path.join(FIXTURE_ROOT, f"arrow_orders_{n_rows}")
    shutil.rmtree(base, ignore_errors=True)  # stale shards would be read back
    write_arrow_ipc(ds.map_batches(to_features, batch_format="pyarrow"),
                    base).materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "priority": df["priority"],
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "key": df["fid"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Sum

    return (
        read_arrow_ipc(base)
        .map_batches(finish, batch_format="pandas")
        .groupby("priority")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            Max("key", alias_name="max_key"),
        )
        .sort("priority")
    )


def q_dolma_signals(sf_dir: str):
    """Dolma-style quality-signal taggers (stages/text.DolmaSignals,
    Soldaini et al. 2024): mean word length, ALL-CAPS word fraction,
    symbol ratio, ellipsis/bullet line fractions — all integer-exact.
    The corpus carries none of the decorations, so the query injects
    deterministic doc_id-derived ones (the same concatenation as the
    twin)."""
    import pandas as pd

    from gdal_ray.stages.text import DolmaSignals

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])

    def inject(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch["doc_id"].astype("int64")
        pre_b = pd.Series("• item\n", index=batch.index).where(
            d % 4 == 0, "")
        pre_c = pd.Series("LOUD NOISE ", index=batch.index).where(
            d % 5 == 0, "")
        suf_e = pd.Series(" more… ## x", index=batch.index).where(
            d % 3 == 0, "")
        suf_t = pd.Series("\nend...", index=batch.index).where(
            d % 7 == 0, "")
        batch["text"] = pre_b + pre_c + batch["text"].fillna("") \
            + suf_e + suf_t
        return batch

    return (
        ds.map_batches(inject, batch_format="pandas")
        .map_batches(DolmaSignals, batch_format="pandas",
                     concurrency=(1, 4), batch_size=2048)
        .select_columns(["doc_id", "mean_wlen_q", "caps_word_frac_q",
                         "symbol_ratio_q", "ellipsis_line_frac_q",
                         "bullet_line_frac_q"])
        .sort("doc_id")
    )


def q_gml_roundtrip(sf_dir: str):
    """GML driver identity round-trip, SQL-twinnable (ninth vector
    driver): nation rows become gml:featureMember Points with
    exactly-representable pos ordinates, written as per-block .gml
    shards, read back distributed and aggregated per region
    (sources/gml.py; reference ogr/ogrsf_frmts/gml/)."""
    import pandas as pd

    from gdal_ray.geo.wkb import decode_points, encode_point
    from gdal_ray.sources.gml import read_gml, write_gml_dir

    ds = _rpt(os.path.join(sf_dir, "nation.parquet"),
              columns=["n_nationkey", "n_name", "n_regionkey"])

    def to_features(t: pa.Table) -> pa.Table:
        k = np.asarray(t["n_nationkey"], dtype=np.int64)
        x = (k % 360 - 180).astype(np.float64) + 0.5
        y = (k % 140 - 70).astype(np.float64) + 0.25
        return pa.table({
            "fid": pa.array(k, pa.int64()),
            "geometry": pa.array(
                [encode_point(float(a), float(b)) for a, b in zip(x, y)],
                pa.binary()),
            "name": t["n_name"],
            "rkey": pa.array([str(int(v)) for v in
                              np.asarray(t["n_regionkey"], np.int64)],
                             pa.string()),
        })

    base = os.path.join(FIXTURE_ROOT, "gml_nation")
    shutil.rmtree(base, ignore_errors=True)  # stale shards would be read back
    write_gml_dir(ds.map_batches(to_features, batch_format="pyarrow"),
                  base).materialize()

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        x, y = decode_points(df["geometry"].tolist())
        return pd.DataFrame({
            "rkey": df["rkey"].astype("int64"),
            "x2": np.round(x * 2.0).astype(np.int64),
            "y4": np.round(y * 4.0).astype(np.int64),
            "key": df["fid"].astype(np.int64),
        })

    from ray.data.aggregate import Count, Max, Sum

    return (
        read_gml(base)
        .map_batches(finish, batch_format="pandas")
        .groupby("rkey")
        .aggregate(
            Count(alias_name="n"),
            Sum("x2", alias_name="sum_x2"),
            Sum("y4", alias_name="sum_y4"),
            Max("key", alias_name="max_key"),
        )
        .sort("rkey")
    )


def q_bpe_fertility(sf_dir: str):
    """BPE tokenizer loop (stages/bpe.py): train 48 merges on the corpus
    word-count table (one bounded shuffle), broadcast the merges, encode
    every doc — per-doc word/subtoken counts + a segmentation signature.
    Iterative trainer => rows-only gate; merge selection and encoding are
    pinned by hand-derived oracles in tests/test_bpe.py."""
    from gdal_ray.stages.bpe import bpe_token_stats

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    return bpe_token_stats(ds, num_merges=48).sort("doc_id")


def q_cc_lattice(sf_dir: str):
    """Distributed connected components (stages/cc.py filtering scheme:
    per-block union-find -> spanning-forest contraction -> fan-in
    repartition rounds) on closed-form chains: supplier key k owns the
    chain k*16+0 .. k*16+(k%7+1). Edges are scatter-sorted first so
    chains straddle blocks and the multi-round forest merging actually
    runs. Twin: the component id is the chain head by construction."""
    from gdal_ray.stages.cc import connected_components

    def build(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch["s_suppkey"], dtype=np.int64)
        a_all, b_all = [], []
        for k in keys:
            m = int(k % 7) + 2  # nodes per chain: 2..8
            base = int(k) * 16
            a_all.extend(range(base, base + m - 1))
            b_all.extend(range(base + 1, base + m))
        a = np.asarray(a_all, dtype=np.int64)
        b = np.asarray(b_all, dtype=np.int64)
        with np.errstate(over="ignore"):
            scatter = ((a * 2654435761) % (1 << 32)).astype(np.int64)
        return pa.table({"a": pa.array(a), "b": pa.array(b),
                         "scatter": pa.array(scatter)})

    edges = (
        _rpt(os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey"])
        .map_batches(build, batch_format="pyarrow")
        .sort("scatter")
    )
    return connected_components(edges).sort("node")


def q_dup_clusters(sf_dir: str):
    """Near-dup pairs -> duplicate clusters (the dedup family's missing
    last stage): the REAL MinHash-LSH verified pair set feeds
    stages/cc.dup_clusters; output = one row per cluster (keeper, size).
    Rows-only under the gate; exactness pinned by the union-find oracle
    in tests/test_cc.py and the pair set's own green twins."""
    from gdal_ray.stages.cc import dup_clusters
    from gdal_ray.stages.dedup import verified_text_near_dups

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    pairs = verified_text_near_dups(ds, jaccard_threshold=0.8)
    def norm(batch: pa.Table) -> pa.Table:
        names = batch.column_names
        a = "id_a" if "id_a" in names else names[0]
        b = "id_b" if "id_b" in names else names[1]
        return pa.table({"a": batch[a].cast(pa.int64()),
                         "b": batch[b].cast(pa.int64())})

    return dup_clusters(pairs.map_batches(norm, batch_format="pyarrow"),
                        num_buckets=8)


def q_rare_tokens(sf_dir: str):
    """Rare-vocabulary counts (stages/tfidf.rare_token_counts): per doc,
    its distinct tokens that are globally rare. DF partials pre-combine
    per batch; doc-token rows co-shuffle against the df table on the
    token (no join operator, no rare-vocab broadcast). The threshold is
    FRACTIONAL (df <= 775 permille of N, exact integer math) because the
    synthetic corpus draws from a 31-token vocabulary where every token
    appears in ~78% of documents — an absolute cutoff is degenerate.
    Twin: regexp_extract_all + GROUP BY replay in DuckDB (the corpus is
    pure ASCII, so lower()/\\w+ tokenization agrees byte-for-byte)."""
    from gdal_ray.stages.tfidf import rare_token_counts

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    return rare_token_counts(ds, max_df_frac=0.775,
                             num_buckets=16).sort("doc_id")


def q_tfidf_topk(sf_dir: str):
    """Per-document top-3 TF-IDF terms (stages/tfidf.tf_idf_topk) —
    rows-only under the gate; the scalar-replica oracle in
    tests/test_tfidf.py pins scores to 1e-12."""
    from gdal_ray.stages.tfidf import tf_idf_topk

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "text"])
    return tf_idf_topk(ds, k=3, num_buckets=16)


def q_curation_sql(sf_dir: str):
    """End-to-end curation where EVERY stage is twin-checked in one SQL
    statement: exact dedup (min doc per md5) -> length gate at the exact
    p10..p90 rank-rule percentiles of the deduped set -> rare-vocabulary
    gate (n_rare <= 9 at the 775-permille df threshold over the gated
    set) -> balanced 30-per-language stratified sample. Composes
    stages/dedup.exact_dedup, stages/quantile.exact_int_quantiles,
    stages/tfidf.rare_token_counts and stages/sampling.stratified_sample
    over four keyed shuffles plus two driver-side scalar reductions (the
    2-row percentile table and the threshold count)."""
    import pyarrow.compute as pc

    from gdal_ray.ops.shuffle import bucketed_group_apply
    from gdal_ray.stages.dedup import add_md5, exact_dedup
    from gdal_ray.stages.quantile import exact_int_quantiles
    from gdal_ray.stages.sampling import stratified_sample
    from gdal_ray.stages.tfidf import rare_token_counts

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"),
              columns=["doc_id", "lang", "text", "n_chars"])
    dedup = exact_dedup(
        ds.map_batches(add_md5, batch_format="pyarrow"), "md5", "doc_id"
    )
    qb = exact_int_quantiles(dedup, "n_chars", [10, 90]).set_index("q_pct")
    lo, hi = int(qb.loc[10, "value"]), int(qb.loc[90, "value"])

    def length_gate(batch: pa.Table) -> pa.Table:
        v = batch["n_chars"]
        return batch.filter(
            pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))
        )

    gated = dedup.map_batches(length_gate, batch_format="pyarrow")
    rare = rare_token_counts(gated, max_df_frac=0.775, num_buckets=16)

    mix_schema = pa.schema(
        [pa.field("doc_id", pa.int64()), pa.field("lang", pa.string()),
         pa.field("n_rare", pa.int64())]
    )

    def doc_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {"doc_id": batch["doc_id"].cast(pa.int64()),
             "lang": batch["lang"],
             "n_rare": pa.array(np.full(n, -1, np.int64))}
        )

    def rare_rows(batch: pa.Table) -> pa.Table:
        n = len(batch)
        return pa.table(
            {"doc_id": batch["doc_id"], "lang": pa.array([""] * n),
             "n_rare": batch["n_rare"]}
        )

    mixed = gated.map_batches(doc_rows, batch_format="pyarrow").union(
        rare.map_batches(rare_rows, batch_format="pyarrow")
    )

    def rare_gate(df):
        import pandas as pd

        counts = df[df["n_rare"] >= 0]
        docs = df[df["n_rare"] < 0]
        m = dict(zip(counts["doc_id"], counts["n_rare"]))
        keep = docs[docs["doc_id"].map(lambda d: m.get(d, 10**9)) <= 9]
        return keep[["doc_id", "lang"]]

    passed = bucketed_group_apply(
        mixed, ["doc_id"], rare_gate, 16,
        schema=pa.schema([pa.field("doc_id", pa.int64()),
                          pa.field("lang", pa.string())]),
    )
    return (
        stratified_sample(passed, "lang", "doc_id", 30, num_buckets=8)
        .select_columns(["lang", "doc_id"])
        .sort(["lang", "doc_id"])
    )
