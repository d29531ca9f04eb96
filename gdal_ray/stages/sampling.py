"""Sampling operators (SURVEY §2: GDAL's bApproxOK / overview-sampled
statistics, ``gcore/gdalrasterband.cpp:4194`` ComputeStatistics approx path).

- ``random_sample``: thin exposure of Ray Data's bernoulli sampler — the
  generic row-sampling operator;
- ``deterministic_sample``: key-hash bernoulli (keep iff
  ``(key * KNUTH) % 100 < pct``) — reproducible across runs AND expressible
  in ANSI SQL, so sampled pipelines stay oracle-checkable;
- ``stratified_sample``: a fixed number of rows per key group.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

KNUTH = 2654435761

__all__ = ["random_sample", "deterministic_sample", "stratified_sample"]


def random_sample(ds, fraction: float, seed: int | None = None):
    """Bernoulli row sample (ds.random_sample passthrough)."""
    return ds.random_sample(fraction, seed=seed)


def deterministic_sample(ds, key_col: str, pct: int):
    """Keep rows whose Knuth-hashed integer key lands in [0, pct) mod 100.

    The key is reduced mod 2^32 BEFORE the multiply and the product taken
    in uint64, so the hash is well-defined for any int64 key (a plain
    int64 ``key * KNUTH`` silently wraps above ~3.4e9) and the SQL twin
    ``(CAST(k AS UBIGINT) % 4294967296) * 2654435761 % 100`` matches it
    exactly without UBIGINT overflow."""

    def flt(batch: pa.Table) -> pa.Table:
        keys = np.asarray(batch[key_col], dtype=np.int64).astype(np.uint64)
        h = ((keys % np.uint64(1 << 32)) * np.uint64(KNUTH)) % np.uint64(100)
        return batch.filter(pa.array(h < np.uint64(pct)))

    return ds.map_batches(flt, batch_format="pyarrow")


def stratified_sample(ds, key_col: str, id_col: str, n_per_key: int,
                      num_buckets: int = 32):
    """Fixed-size per-group sample: the ``n_per_key`` rows with the
    smallest deterministic Knuth hash of ``id_col`` inside each
    ``key_col`` group (ties broken by id) — the balanced-curation shape
    (same N docs per language/source), reproducible across runs and
    SQL-expressible as ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY
    hash, id) <= n``.

    Scale path: every block pre-reduces to its LOCAL per-key top-n (the
    global top-n is a subset of the union of block top-ns), so the one
    keyed shuffle carries at most n * keys * blocks rows, not the table.
    """
    import pandas as pd

    from gdal_ray.ops.shuffle import bucketed_group_apply

    n = int(n_per_key)

    def add_hash_and_prereduce(batch: pa.Table) -> pd.DataFrame:
        df = batch.to_pandas()
        ids = np.asarray(batch[id_col], dtype=np.int64).astype(np.uint64)
        df["__h"] = (
            ((ids % np.uint64(1 << 32)) * np.uint64(KNUTH))
            % np.uint64(1 << 32)
        ).astype(np.int64)
        df = df.sort_values(["__h", id_col], kind="mergesort")
        return df.groupby(key_col, sort=False).head(n)

    def exact_top(df: "pd.DataFrame") -> "pd.DataFrame":
        df = df.sort_values(["__h", id_col], kind="mergesort")
        return df.groupby(key_col, sort=False).head(n).drop(columns="__h")

    return bucketed_group_apply(
        ds.map_batches(add_hash_and_prereduce, batch_format="pyarrow"),
        [key_col],
        exact_top,
        num_buckets,
    )
