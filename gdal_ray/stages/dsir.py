"""DSIR — Data Selection via Importance Resampling (Xie et al., 2023).

Selects raw-corpus documents whose hashed-n-gram distribution resembles a
TARGET domain: fit two bag-of-hashed-ngrams multinomials (target, raw),
score each doc with the importance log-weight
``log w = sum_b c_b * (log p_t[b] - log p_r[b])`` and resample the top-k
(deterministic rank, or seeded Gumbel-top-k for true without-replacement
sampling proportional to w).

Ray-Data-first plan (no reference counterpart; engine addition):

1. ONE ``map_batches`` pass emits pre-combined per-batch
   ``(bucket, c_raw, c_tgt)`` partials; one bucketed shuffle over at most
   ``num_feats`` keys (default 1024) sums them — the partial-aggregate
   discipline: the shuffle moves distinct buckets, never tokens.
2. The per-bucket log-ratio ``lam_q`` is quantized to 1e-6 integers
   (``floor(x*1e6 + 0.5)`` — identical semantics in numpy and DuckDB, no
   banker's-rounding divergence) and broadcast ONCE via ``ray.put``
   (8 KB at B=1024).
3. One scoring pass computes integer-exact per-doc weights
   ``logw_q = sum(lam_q[bucket])`` — order-independent, so the registry
   twin (q_dsir_select) recomputes it verbatim in DuckDB.

Features are unigrams + bigrams of ``[a-z0-9_]+`` tokens of
``lower(text)`` (ASCII classes, RE2-compatible), hashed with
``int(md5(gram)[:8], 16) % B`` so the SQL twin reproduces bucket ids
exactly. Per-unique-gram md5 is cached (bounded),
so steady-state hashing cost is one dict lookup per DISTINCT gram per
batch, not per occurrence.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.ops.runtime import memo
from gdal_ray.ops.shuffle import bucketed_group_apply

__all__ = ["fit_importance_weights", "score_importance", "dsir_select",
           "dsir_gumbel_topk", "md5_bucket", "bucket_sql"]

_TOKEN_RE = re.compile(r"[a-z0-9_]+", re.ASCII)
_CACHE_CAP = 1_000_000  # unique grams held per cache


def md5_bucket(gram: str, num_feats: int) -> int:
    """The hash contract shared with the SQL twin: first 8 hex digits of
    md5(utf-8 gram) as an integer, mod num_feats."""
    return int(hashlib.md5(gram.encode("utf-8")).hexdigest()[:8], 16) % num_feats


def bucket_sql(g: str, num_feats: int) -> str:
    """DuckDB expression computing md5_bucket(g, num_feats): hex -> int
    via per-digit positional values (no hex-cast builtin needed)."""
    return (
        "(CAST(list_sum(list_transform(range(8), i -> "
        f"(position(substr(md5({g}), CAST(i + 1 AS BIGINT), 1) IN "
        "'0123456789abcdef') - 1) * CAST(power(16, 7 - i) AS BIGINT))) "
        f"AS BIGINT) % {num_feats})"
    )


def _doc_gram_buckets(batch, cache: dict, num_feats: int,
                      id_col: str, text_col: str):
    """batch -> (doc_ids, buckets) flat int64 arrays: one entry per
    unigram and per bigram occurrence, vectorized through pandas with the
    caller's gram->bucket cache."""
    texts = pd.Series(batch[text_col].to_pylist(), dtype="object")
    ids = pd.Series(batch[id_col].to_pylist())
    toks = texts.fillna("").str.lower().str.findall(_TOKEN_RE)
    ex = toks.explode().dropna()
    if ex.empty:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    rows = pd.Series(ex.index.to_numpy())
    s = pd.Series(ex.to_numpy(object))
    bi = (s.shift(1) + " " + s)[rows.eq(rows.shift(1))]
    grams = pd.concat([s, bi], ignore_index=False)
    gram_rows = np.concatenate([rows.to_numpy(), rows.to_numpy()[bi.index]])
    local = {g: cache[g] if g in cache
             else memo(cache, g, lambda: md5_bucket(g, num_feats), _CACHE_CAP)
             for g in pd.unique(grams.to_numpy(object))}
    buckets = grams.map(local).to_numpy(np.int64)
    doc_ids = ids.to_numpy(np.int64)[gram_rows]
    return doc_ids, buckets


class _CountPartials:
    """Per-batch (bucket, c_raw, c_tgt) partial count vectors."""

    def __init__(self, num_feats: int, target_col: str, target_val):
        self.num_feats = num_feats
        self.target_col = target_col
        self.target_val = target_val
        self.cache: dict = {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, buckets = _doc_gram_buckets(
            batch, self.cache, self.num_feats, "doc_id", "text")
        # re-derive the per-gram target mask from the per-doc column
        doc_ids = np.asarray(batch["doc_id"], dtype=np.int64)
        mask = np.asarray(batch[self.target_col]) == self.target_val
        is_tgt = pd.Series(ids).map(
            pd.Series(mask, index=doc_ids)).to_numpy(bool)
        c_raw = np.bincount(buckets, minlength=self.num_feats)
        c_tgt = np.bincount(buckets[is_tgt], minlength=self.num_feats)
        nz = np.flatnonzero(c_raw)
        return pa.table({
            "b": pa.array(nz.astype(np.int64)),
            "c_raw": pa.array(c_raw[nz].astype(np.int64)),
            "c_tgt": pa.array(c_tgt[nz].astype(np.int64)),
        })


def fit_importance_weights(docs_ds, target_col: str, target_val,
                           num_feats: int = 1024, alpha: float = 0.5,
                           num_buckets: int = 8):
    """-> np.int64[num_feats] quantized per-bucket log-ratios lam_q.

    lam[b] = ln((c_t[b]+a)/(S_t+a*B)) - ln((c_r[b]+a)/(S_r+a*B)),
    lam_q = floor(lam*1e6 + 0.5); buckets never observed keep lam_q = 0
    (no document references them)."""

    def combine(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("b", sort=False)[["c_raw", "c_tgt"]].sum()
        return g.reset_index().astype("int64")

    schema = pa.schema([("b", pa.int64()), ("c_raw", pa.int64()),
                        ("c_tgt", pa.int64())])
    counts = bucketed_group_apply(
        docs_ds.map_batches(_CountPartials(num_feats, target_col, target_val),
                            batch_format="pyarrow"),
        ["b"], combine, num_buckets, schema=schema)

    c_raw = np.zeros(num_feats, np.float64)
    c_tgt = np.zeros(num_feats, np.float64)
    for t in counts.iter_batches(batch_format="pyarrow"):
        b = np.asarray(t["b"], dtype=np.int64)
        c_raw[b] += np.asarray(t["c_raw"], dtype=np.float64)
        c_tgt[b] += np.asarray(t["c_tgt"], dtype=np.float64)
    sr, st = c_raw.sum(), c_tgt.sum()
    seen = c_raw > 0
    lam = np.zeros(num_feats, np.float64)
    lam[seen] = (
        np.log((c_tgt[seen] + alpha) / (st + alpha * num_feats))
        - np.log((c_raw[seen] + alpha) / (sr + alpha * num_feats))
    )
    return np.floor(lam * 1e6 + 0.5).astype(np.int64)


_SCORE_STATE: dict = {}


def _score(batch: pa.Table, lam_ref, num_feats: int) -> pa.Table:
    """Per-doc weights of one batch. Each worker process fetches
    ``lam_ref`` once and keeps it, with its gram->bucket cache, in a
    one-entry memo."""
    import ray

    lam, cache = memo(_SCORE_STATE, (lam_ref.hex(), num_feats),
                      lambda: (ray.get(lam_ref), {}), 1)
    ids, buckets = _doc_gram_buckets(batch, cache, num_feats, "doc_id", "text")
    if not len(ids):
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "n_grams": pa.array([], pa.int64()),
                         "logw_q": pa.array([], pa.int64())})
    df = pd.DataFrame({"doc_id": ids, "lq": lam[buckets]})
    g = df.groupby("doc_id", sort=False)["lq"].agg(["size", "sum"])
    return pa.table({
        "doc_id": pa.array(g.index.to_numpy(np.int64)),
        "n_grams": pa.array(g["size"].to_numpy(np.int64)),
        "logw_q": pa.array(g["sum"].to_numpy(np.int64)),
    })


def score_importance(docs_ds, lam_q: np.ndarray):
    """-> (doc_id, n_grams, logw_q): integer-exact importance log-weights.
    ``lam_q`` is broadcast once; scoring is one streaming pass."""
    import ray

    ref = ray.put(np.asarray(lam_q, np.int64))
    nf = int(len(lam_q))
    return docs_ds.map_batches(lambda t: _score(t, ref, nf), batch_format="pyarrow")


def dsir_select(docs_ds, target_col: str, target_val, k: int,
                num_feats: int = 1024, alpha: float = 0.5):
    """Deterministic DSIR selection: top-k docs by (logw_q DESC, doc_id).
    Docs with zero grams are excluded (they have no defined weight)."""
    lam_q = fit_importance_weights(docs_ds, target_col, target_val,
                                   num_feats=num_feats, alpha=alpha)
    scored = score_importance(docs_ds, lam_q)
    return scored.sort(["logw_q", "doc_id"],
                       descending=[True, False]).limit(k)


def dsir_gumbel_topk(scored_ds, k: int, seed: int = 0):
    """Gumbel-top-k resampling (the paper's sampling-without-replacement
    form): key = logw + Gumbel(0,1) with the noise seeded per doc_id via
    splitmix64, so the sample is deterministic under any parallelism."""

    def add_key(batch: pa.Table) -> pa.Table:
        from gdal_ray.stages.sketch import _splitmix64

        ids = np.asarray(batch["doc_id"], dtype=np.int64)
        h = _splitmix64(ids.astype(np.uint64) ^ np.uint64(seed))
        u = (h >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        gumbel = -np.log(-np.log(u))
        key = np.asarray(batch["logw_q"], dtype=np.float64) * 1e-6 + gumbel
        return batch.append_column("gumbel_key", pa.array(key))

    return (scored_ds.map_batches(add_key, batch_format="pyarrow")
            .sort("gumbel_key", descending=True).limit(k))
