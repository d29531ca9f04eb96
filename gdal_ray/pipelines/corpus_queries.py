"""Rows-only queries over the synthetic image corpus, sized by sf_dir.

The DuckDB gate can't see the image corpus (it registers only the TPC-H-ish
views), so these entries get the driver's weaker rows-only check; their
EXACT correctness is enforced by the pytest oracles
(tests/test_flagship.py, tests/test_raster_ops.py) against the independent
scalar-formula tables.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.fixtures.generate import FIXTURE_ROOT, generate_corpus
from gdal_ray.sources.corpus import read_parquet_tight as _rpt

__all__ = [
    "corpus_for_sf",
    "q_flagship_tiles",
    "q_pip_join",
    "q_knn",
    "q_raster_roundtrip",
    "q_near_dup_images",
    "q_decode_stats",
    "q_text_analysis",
    "q_minhash_pairs",
    "q_curation_pipeline",
    "q_image_embed_topk",
    "q_datum_shift",
    "q_substr_dup",
    "q_substr_dup_winnow",
    "q_decontam",
    "q_decontam_bloom",
    "q_lm_score",
    "q_ccnet_buckets",
]

_SF_IMAGES = {"sf0.001": 500, "sf0.01": 3000, "sf0.1": 50000}


def corpus_for_sf(sf_dir: str) -> str:
    name = os.path.basename(os.path.normpath(sf_dir))
    n = _SF_IMAGES.get(name, 1000)
    return generate_corpus(n)


def q_flagship_tiles(sf_dir: str):
    from gdal_ray.pipelines import flagship as F

    d = corpus_for_sf(sf_dir)
    return F.tile_assignments(F.placed_images(d, decode=False))


def q_pip_join(sf_dir: str):
    from gdal_ray.pipelines import flagship as F

    d = corpus_for_sf(sf_dir)
    return F.pip_join_images(F.placed_images(d, decode=False), d)


def q_knn(sf_dir: str):
    from gdal_ray.pipelines import flagship as F

    return F.knn_images(corpus_for_sf(sf_dir))


def q_raster_roundtrip(sf_dir: str):
    from gdal_ray.sources import corpus as SRC
    from gdal_ray.stages.raster import roundtrip_batch

    d = corpus_for_sf(sf_dir)
    return SRC.read_rasters(d).map_batches(roundtrip_batch, batch_format="pyarrow").drop_columns(
        ["pixel_counts"]
    )


def q_near_dup_images(sf_dir: str):
    from gdal_ray.sources import corpus as SRC
    from gdal_ray.stages.dedup import near_dup_image_pairs

    d = corpus_for_sf(sf_dir)
    imgs = SRC.read_images(d, columns=["image_id", "phash"])
    return near_dup_image_pairs(imgs, max_hamming=2)


def q_decode_stats(sf_dir: str):
    from gdal_ray.pipelines.flagship import decoded_meta

    d = corpus_for_sf(sf_dir)
    ds = decoded_meta(d)

    def check(batch: pd.DataFrame) -> pd.DataFrame:
        batch["phash_ok"] = batch["phash_check"] == batch["phash"]
        return batch[["image_id", "mean", "std", "minv", "maxv", "checksum", "phash_ok"]]

    return ds.map_batches(check, batch_format="pandas")


def q_text_analysis(sf_dir: str):
    """Language-ID + quality scoring over the documents table (heuristics,
    not SQL-expressible -> rows-only)."""
    import ray.data as rd  # noqa: F401

    from gdal_ray.stages.text import LangId, TextStats

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"))
    return (
        ds.map_batches(TextStats, batch_format="pandas", batch_size=4096, concurrency=(1, 4))
        .map_batches(LangId, batch_format="pandas", batch_size=4096, concurrency=(1, 4))
        .select_columns(["doc_id", "lang", "lang_pred", "n_tokens", "quality", "stopword_ratio"])
    )


def q_minhash_pairs(sf_dir: str):
    """MinHash-LSH near-dup candidate buckets over documents (rows-only)."""
    import ray.data as rd

    from gdal_ray.stages.dedup import minhash_bands

    from gdal_ray.ops.shuffle import bucketed_group_apply

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
    bands = minhash_bands(ds)

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part.duplicated(["band_id", "band_key"], keep=False)]
        out_a, out_b = [], []
        for _, g in part.groupby(["band_id", "band_key"], sort=False):
            ids = np.unique(g["doc_id"].to_numpy())
            if len(ids) < 2:
                continue
            # tiled expansion bounds degenerate buckets (see dedup._pair_tiles)
            from gdal_ray.stages.dedup import _pair_tiles

            for ia, ib in _pair_tiles(len(ids)):
                out_a.append(ids[ia])
                out_b.append(ids[ib])
        if not out_a:
            return pd.DataFrame(
                {"id_a": pd.Series([], dtype="int64"), "id_b": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        ).drop_duplicates()

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64())])
    cand = bucketed_group_apply(
        bands, ["band_id", "band_key"], pairs, 32, schema=pair_schema
    )
    return bucketed_group_apply(
        cand, ["id_a", "id_b"], lambda p: p.drop_duplicates(["id_a", "id_b"]), 8,
        schema=pair_schema,
    )


def q_curation_pipeline(sf_dir: str):
    """END-TO-END training-data curation composition (the 100-TB shape):
    exact dedup (md5 -> min doc_id) -> language-ID + quality scoring
    (actor-pool stages) -> quality gate (on the QUANTIZED int, so the SQL
    twin has no float-boundary fragility) -> per-language survivor stats.
    Every stage is the same kernel its standalone query uses, so the twin
    composes the proven q_dedup_docs + q_text_analysis SQL bodies."""
    from gdal_ray.stages.dedup import add_md5, exact_dedup
    from gdal_ray.stages.text import LangId, TextStats

    ds = _rpt(os.path.join(sf_dir, "documents.parquet"))
    ds = ds.map_batches(add_md5, batch_format="pyarrow")
    ds = exact_dedup(ds, "md5", "doc_id")
    ds = ds.map_batches(TextStats, batch_format="pandas", batch_size=4096,
                        concurrency=(1, 4))
    ds = ds.map_batches(LangId, batch_format="pandas", batch_size=4096,
                        concurrency=(1, 4))

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["q4"] = np.floor(df["quality"].to_numpy() * 10000.0 + 0.5).astype(np.int64)
        df = df[df["q4"] >= 5000]
        return df[["doc_id", "lang_pred", "n_tokens", "q4"]]

    from ray.data.aggregate import Count, Sum

    return (
        ds.map_batches(gate, batch_format="pandas")
        .groupby("lang_pred")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_tokens", alias_name="sum_tokens"),
            Sum("q4", alias_name="sum_q4"),
        )
    )


def q_image_embed_topk(sf_dir: str):
    """Image -> deterministic feature embedding -> exact cosine top-k
    (the multimodal-to-ANN bridge: decode fused into the read, embeddings
    feed the same simsearch operators the embeddings table uses). Query
    vectors are the embeddings of the first 4 images, so each query's
    rank-0 hit is itself with score 1 (pinned in pytest)."""
    import numpy as np
    import pyarrow.dataset as pads

    from gdal_ray.io import codec as C
    from gdal_ray.stages.imgfeat import image_embeddings, image_features
    from gdal_ray.stages.simsearch import topk_cosine

    d = corpus_for_sf(sf_dir)
    qids = [f"img{i:08d}" for i in range(4)]
    # query vectors: 4 images read via a parquet row filter and embedded
    # driver-side (the broadcast-query-matrix pattern of topk_cosine)
    tbl = pads.dataset(os.path.join(d, "images.parquet")).to_table(
        columns=["image_id", "bytes", "fmt"],
        filter=pads.field("image_id").isin(qids),
    )
    order = np.argsort(np.asarray(tbl["image_id"]))
    queries = np.stack(
        [
            image_features(C.decode_image(tbl["bytes"][int(i)].as_py(), tbl["fmt"][int(i)].as_py()))
            for i in order
        ]
    )
    return topk_cosine(image_embeddings(d), queries, k=5, id_col="image_id")


def _datum_grid_path() -> str:
    """Deterministic wide-area NTv2 grid for the corpus (lat -55..55,
    lon global, 1-deg increments): node shifts are closed-form in the
    node indices so the pytest oracle can recompute them."""
    from gdal_ray.geo.ntv2 import write_gsb

    path = os.path.join(FIXTURE_ROOT, "ntv2_corpus_v1.gsb")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        r = np.arange(111, dtype=np.float64)[:, None]   # -55..55 N
        c = np.arange(361, dtype=np.float64)[None, :]   # 180E..180W (pos-west)
        write_gsb(path, [dict(
            name="CORPUS", parent="NONE",
            s_lat=-55 * 3600.0, n_lat=55 * 3600.0,
            e_long=-180 * 3600.0, w_long=180 * 3600.0,
            lat_inc=3600.0, long_inc=3600.0,
            shift_lat=((7.0 * r + 3.0 * c) % 97.0) / 64.0 - 0.75 + 0.0 * c,
            shift_lon=((5.0 * r + 11.0 * c) % 89.0) / 64.0 - 0.70 + 0.0 * c,
        )])
    return path


def q_datum_shift(sf_dir: str):
    """Corpus-scale NTv2 datum shift: image centroids (EPSG:3857 meters)
    -> lon/lat -> bilinear .gsb shift with the parsed grid broadcast ONCE
    via ray.put -> per-latitude-band aggregate. Latitudes beyond the grid
    (|lat| > 55; corpus placements reach 60) pass through uncovered, so
    the no-coverage path is exercised at scale. Quantized int64 shift
    sums are order-independent; the gate is rows-only, exactness is the
    pytest oracle (tests/test_ntv2.py). Refs: ogr/ogrct.cpp (datum-shift
    use), frmts/raw/ntv2dataset.cpp (grid format)."""
    import ray

    from gdal_ray.geo.mercator import meters_to_latlon
    from gdal_ray.geo.ntv2 import read_gsb
    from gdal_ray.pipelines import flagship as F

    d = corpus_for_sf(sf_dir)
    grid_ref = ray.put(read_gsb(_datum_grid_path()))

    def band_partials(batch: pa.Table) -> pa.Table:
        grid = ray.get(grid_ref)
        cx = np.asarray(batch["cx"], dtype=np.float64)
        cy = np.asarray(batch["cy"], dtype=np.float64)
        lat, lon = meters_to_latlon(cx, cy)
        dlon, dlat, cov = grid.shift(lon, lat)
        band = np.floor(lat).astype(np.int64)
        dlat_q = np.round(dlat * 3600.0 * 1e6).astype(np.int64)
        dlon_q = np.round(dlon * 3600.0 * 1e6).astype(np.int64)
        # per-batch pre-combine: one row per band before the tiny shuffle
        df = pd.DataFrame({
            "band": band, "n": 1, "n_cov": cov.astype(np.int64),
            "dlat_q": dlat_q, "dlon_q": dlon_q,
        })
        agg = df.groupby("band", as_index=False).sum()
        # no pandas metadata: the Aggregate -> Sort after this dedups
        # schemas through a set, and a dict-valued entry cannot hash
        return pa.Table.from_pandas(agg, preserve_index=False).replace_schema_metadata(None)

    from ray.data.aggregate import Sum

    return (
        F.placed_images(d, decode=False)
        .map_batches(band_partials, batch_format="pyarrow")
        .groupby("band")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("n_cov", alias_name="n_cov"),
            Sum("dlat_q", alias_name="sum_dlat_q"),
            Sum("dlon_q", alias_name="sum_dlon_q"),
        )
        .sort("band")
    )


def q_substr_dup(sf_dir: str):
    """Span-level exact-substring dedup (Lee et al., 2022) over the
    documents table: every 8-token window (stride 4) duplicated verbatim
    across >=2 distinct documents, with document and occurrence counts.
    Fully SQL-twinnable — tokenization is split(' ') so DuckDB
    recomputes identical windows (string grouping, no float hazard).
    Ref: the suffix-array dedup the paper builds single-node; here
    stage shapes are stages/substrdup.py's hash-shuffle + join-back."""
    from gdal_ray.stages.substrdup import duplicated_spans

    docs = _rpt(os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])
    return duplicated_spans(docs, span=8, stride=4).sort("win")


def q_substr_dup_winnow(sf_dir: str):
    """The scale-path variant of q_substr_dup: winnowing fingerprint
    selection (Schleimer et al. 2003) instead of a stride grid, so ANY
    duplicated passage of >= span + w - 1 tokens is caught regardless of
    its offsets in the two documents (tests/test_substrdup.py proves the
    guarantee at every alignment). Rows-only under the driver gate —
    winnowing selection is not practical to twin in SQL; the strided
    sibling q_substr_dup carries the exact DuckDB twin."""
    from gdal_ray.stages.substrdup import duplicated_spans

    docs = _rpt(os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])
    return duplicated_spans(docs, span=8, winnow=4).sort("win")


def _doc_halves(sf_dir: str):
    """documents split into (corpus, benchmark) on doc_id % 17 — the
    deterministic stand-in for a held-out eval set."""
    docs = _rpt(os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])

    def keep(bench: bool):
        def f(b: pa.Table) -> pa.Table:
            ids = np.asarray(b["doc_id"], dtype=np.int64)
            m = (ids % 17 == 0) if bench else (ids % 17 != 0)
            return b.filter(pa.array(m))
        return f

    return (docs.map_batches(keep(False), batch_format="pyarrow"),
            docs.map_batches(keep(True), batch_format="pyarrow"))


def q_decontam(sf_dir: str):
    """Benchmark decontamination (the GPT-3 appendix-C / PaLM n-gram
    overlap rule): a corpus document is contaminated when any 8-token
    window appears VERBATIM in any benchmark document (benchmark =
    doc_id % 17 == 0 here). Exact arm — integer output, full DuckDB twin
    recomputing the same split(' ') windows."""
    from gdal_ray.stages.decontam import contaminated_docs

    corpus, bench = _doc_halves(sf_dir)
    return contaminated_docs(corpus, bench, span=8).sort("doc_id")


def q_decontam_bloom(sf_dir: str):
    """Scale-path decontamination: the benchmark side folds into a Bloom
    filter (OR-able per-block partials, ~2 bytes/n-gram at 1% FPR)
    broadcast once via ray.put; the corpus probes it vectorized and only
    FLAGGED window rows shuffle. No benchmark shuffle, no text shuffle —
    the right shape at 10^12 corpus docs. Superset guarantee vs q_decontam
    (no false negatives) is pytest-enforced; rows-only under the gate."""
    from gdal_ray.stages.decontam import contaminated_docs_bloom

    corpus, bench = _doc_halves(sf_dir)
    return contaminated_docs_bloom(corpus, bench, span=8).sort("doc_id")


def q_lm_score(sf_dir: str):
    """N-gram LM quality scoring (CCNet's perplexity filter, stupid
    backoff per Brants et al. 2007): train a bigram model on the documents
    table (distributed pre-combined counts, ONE gram shuffle), broadcast
    it, score every document. Output is integer-exact (per-token log-probs
    quantized to 1e-6 before the per-doc sum) so the DuckDB twin
    recomputes it verbatim; quantization-boundary margin is pinned in
    tests/test_lm.py."""
    from gdal_ray.stages.lm import lm_scored_docs

    docs = _rpt(os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])
    return lm_scored_docs(docs).sort("doc_id")


def q_ccnet_buckets(sf_dir: str):
    """CCNet perplexity bucketing over the LM scores (Wenzek et al. 2020
    §3.3): exact quartiles of the per-doc mean quantized log-prob, then a
    4-row per-bucket aggregate. Fully twin-checked: the DuckDB twin
    recomputes the LM, the floor-divided mean, the ceil-rank quartile
    thresholds and the bucket CASE verbatim."""
    from gdal_ray.stages.lm import ccnet_buckets

    docs = _rpt(os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"])
    return ccnet_buckets(docs).sort("ppl_bucket")
