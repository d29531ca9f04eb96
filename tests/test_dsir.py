"""DSIR importance resampling (stages/dsir.py): scalar-replica oracle.

The oracle re-derives the whole chain one doc at a time with plain
re/hashlib/math — tokenize, hash, count, smooth, quantize, sum — fully
independent of the vectorized pandas/numpy kernels and of the shuffle.
"""

import hashlib
import math
import re

import numpy as np
import pytest
import ray.data as rd

from gdal_ray.stages.dsir import (dsir_gumbel_topk, dsir_select,
                                  fit_importance_weights, md5_bucket,
                                  score_importance)

DOCS = [
    (0, "the cat sat on the mat", "en"),
    (1, "the dog ate the cat food", "en"),
    (2, "der hund und die katze", "de"),
    (3, "los gatos y los perros", "es"),
    (4, "cat cat cat dog dog", "en"),
    (5, "une grande maison verte", "fr"),
    (6, "", "en"),
    (7, "the the the", "de"),
    (8, "mat on sat cat the", "es"),
]
B = 64


def _grams(text):
    toks = re.findall(r"[a-z0-9_]+", text.lower(), re.ASCII)
    return toks + [a + " " + b for a, b in zip(toks, toks[1:])]


def _oracle():
    c_raw = [0] * B
    c_tgt = [0] * B
    for _, text, lang in DOCS:
        for g in _grams(text):
            b = md5_bucket(g, B)
            c_raw[b] += 1
            if lang == "en":
                c_tgt[b] += 1
    sr, st = sum(c_raw), sum(c_tgt)
    lam_q = [0] * B
    for b in range(B):
        if c_raw[b]:
            lam = (math.log((c_tgt[b] + 0.5) / (st + 0.5 * B))
                   - math.log((c_raw[b] + 0.5) / (sr + 0.5 * B)))
            lam_q[b] = math.floor(lam * 1e6 + 0.5)
    scores = {}
    for did, text, _ in DOCS:
        gs = _grams(text)
        if gs:
            scores[did] = (len(gs),
                           sum(lam_q[md5_bucket(g, B)] for g in gs))
    return lam_q, scores


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    return rd.from_items(
        [{"doc_id": d, "text": t, "lang": lg} for d, t, lg in DOCS]
    ).repartition(3)


def test_fit_matches_scalar_oracle(docs_ds):
    lam_q, _ = _oracle()
    got = fit_importance_weights(docs_ds, "lang", "en", num_feats=B)
    assert got.tolist() == lam_q


def test_scores_match_scalar_oracle(docs_ds):
    lam_q, scores = _oracle()
    out = score_importance(
        docs_ds, np.asarray(lam_q, np.int64)).to_pandas()
    got = {int(r.doc_id): (int(r.n_grams), int(r.logw_q))
           for r in out.itertuples()}
    assert got == scores  # doc 6 (empty) absent on both sides
    # en docs should outscore non-en docs made of non-en grams
    assert got[0][1] > got[2][1] and got[0][1] > got[3][1]


def test_select_deterministic_topk(docs_ds):
    _, scores = _oracle()
    want = sorted(scores, key=lambda d: (-scores[d][1], d))[:3]
    out = dsir_select(docs_ds, "lang", "en", k=3, num_feats=B).to_pandas()
    assert out["doc_id"].tolist() == want


def test_gumbel_topk_seeded(docs_ds):
    lam_q, _ = _oracle()
    scored = score_importance(docs_ds, np.asarray(lam_q, np.int64))
    a = dsir_gumbel_topk(scored, k=4, seed=7).to_pandas()
    b = dsir_gumbel_topk(scored, k=4, seed=7).to_pandas()
    assert a["doc_id"].tolist() == b["doc_id"].tolist()
    c = dsir_gumbel_topk(scored, k=4, seed=8).to_pandas()
    assert set(c["doc_id"]) <= {d for d, t, _ in DOCS if _grams(t)}


def test_quantization_boundary_margin(docs_ds):
    """No lam*1e6 value sits within 1e-6 of a +0.5 boundary, so the
    floor(x*1e6+0.5) quantization is ulp-robust on this corpus."""
    lam_q, _ = _oracle()
    # re-derive the unquantized values and check distances
    c_raw = [0] * B
    c_tgt = [0] * B
    for _, text, lang in DOCS:
        for g in _grams(text):
            b = md5_bucket(g, B)
            c_raw[b] += 1
            if lang == "en":
                c_tgt[b] += 1
    sr, st = sum(c_raw), sum(c_tgt)
    for b in range(B):
        if c_raw[b]:
            lam = (math.log((c_tgt[b] + 0.5) / (st + 0.5 * B))
                   - math.log((c_raw[b] + 0.5) / (sr + 0.5 * B)))
            frac = abs((lam * 1e6 + 0.5) % 1.0)
            assert min(frac, 1.0 - frac) > 1e-6


def test_gram_buckets_with_capped_cache(monkeypatch):
    """A gram cache at its cap is evicted between lookups, never under a
    batch: grams already cached before the batch keep their buckets."""
    import pyarrow as pa

    from gdal_ray.stages import dsir

    batch = pa.table({"doc_id": [d for d, _, _ in DOCS],
                      "text": [t for _, t, _ in DOCS]})
    want_ids, want = dsir._doc_gram_buckets(batch, {}, B, "doc_id", "text")
    monkeypatch.setattr(dsir, "_CACHE_CAP", 2)
    cache = {g: md5_bucket(g, B) for g in ("the", "cat")}
    got_ids, got = dsir._doc_gram_buckets(batch, cache, B, "doc_id", "text")
    np.testing.assert_array_equal(got_ids, want_ids)
    np.testing.assert_array_equal(got, want)
    assert len(cache) <= 2
