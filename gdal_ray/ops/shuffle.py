"""Shuffle helpers: bucketed group-apply and hot-key salting.

``Dataset.groupby(...).map_groups(fn)`` invokes ``fn`` once per GROUP — fine
for thousands of rows per group, pathological for millions of tiny groups
(per-call Python overhead dominates). ``bucketed_group_apply`` shuffles on a
HASH BUCKET of the keys instead (B buckets ~ a small multiple of the
cluster CPU count), so the per-call unit is a whole partition and the
caller's function handles all of its key-groups vectorized (pandas groupby
inside the partition).

Salting (``salt_hot_keys``) splits keys whose row count exceeds a cap into
``key#i`` sub-keys before a keyed shuffle — the skew treatment SURVEY.md §4
calls out for dense urban cells; callers re-merge sub-key results with a
second (tiny) aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["bucketed_group_apply", "salt_hot_keys"]

_HASH_SEED = np.uint64(0x9E3779B97F4A7C15)


def _hash_cols(batch: pa.Table, keys, num_buckets: int) -> np.ndarray:
    h = np.zeros(len(batch), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = batch[k]
            if pa.types.is_integer(col.type):
                v = np.asarray(col, dtype=np.int64).view(np.uint64)
            else:
                # process-independent string hash (Python's hash() is salted
                # per process — workers would disagree on buckets)
                import zlib

                v = np.asarray(
                    [np.uint64(zlib.crc32(str(x).encode())) for x in col.to_pylist()],
                    dtype=np.uint64,
                )
            h = (h ^ v) * _HASH_SEED
    return (h % np.uint64(num_buckets)).astype(np.int64)


def bucketed_group_apply(ds, keys, fn, num_buckets: int = 64, schema: pa.Schema | None = None):
    """Apply ``fn(partition_df) -> df`` to hash-bucketed partitions.

    ``fn`` receives ALL rows whose key-hash lands in one bucket (possibly
    many distinct key-groups) WITHOUT the helper column; it must do its own
    within-partition grouping. Equivalent result to groupby(keys).map_groups
    for group-local computations, at partition-call granularity.

    ``schema``: optional explicit Arrow schema for ``fn``'s output. Pass it
    whenever ``fn`` can return EMPTY frames — an empty pandas object column
    otherwise degrades to a null-typed (or schema-less) block and the
    streaming executor logs schema-mismatch warnings on every such block.

    Residual warning note: even with ``schema=``, a task whose output has
    ZERO rows still triggers one "RefBundle with a different schema …
    new schema: (empty)" line — Ray's BlockOutputBuffer drops 0-row output
    blocks entirely, so the bundle carries no schema for the executor to
    see. It is cosmetic. Avoid it by not creating empty partitions: size
    ``num_buckets`` at or below the expected distinct-key count (surplus
    sort ranges are the other common source, alongside surplus read tasks
    on single-row-group files).
    """

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("__bucket", pa.array(_hash_cols(batch, keys, num_buckets)))

    def _typed(out):
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, schema=schema, preserve_index=False)
        else:
            out = out.cast(schema)
        return out.replace_schema_metadata(None)

    def run_block(block: pd.DataFrame):
        # One call to ``fn`` per bucket present in this sorted block — the
        # same partition-call granularity groupby().map_groups gave, but an
        # EMPTY sort-range block now yields a TYPED empty table instead of
        # the schema-less block map_groups emits (which made the streaming
        # executor log a schema-mismatch warning per empty block).
        if len(block) == 0:
            if schema is not None:
                return schema.empty_table()
            return block.drop(columns="__bucket", errors="ignore")
        parts = [
            fn(g.drop(columns="__bucket"))
            for _, g in block.groupby("__bucket", sort=False)
        ]
        if schema is not None:
            return pa.concat_tables([_typed(p) for p in parts])
        pdf = [p.to_pandas() if isinstance(p, pa.Table) else p for p in parts]
        return pd.concat(pdf, ignore_index=True) if len(pdf) > 1 else pdf[0]

    # Mirrors GroupedData.map_groups' plan (sort on the key, then whole-block
    # map with in-block grouping) but keeps control of the empty-block path.
    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .sort("__bucket")
        .map_batches(run_block, batch_size=None, batch_format="pandas")
    )


def salt_hot_keys(ds, key: str, cap: int, num_salts: int = 16, counts: dict | None = None):
    """Split keys whose row count exceeds ``cap`` into ``num_salts`` sub-keys.

    ``counts``: optional precomputed {key: n} (e.g. from a cheap first-pass
    aggregate or the partition manifest's cell histogram); if None it is
    computed with a count aggregate (one extra pass).
    Adds a ``__salted`` string column = f"{key}#{i}" for hot keys, str(key)
    otherwise.
    """
    if counts is None:
        cdf = ds.groupby(key).count().to_pandas()
        counts = dict(zip(cdf[key], cdf["count()"]))
    hot = {k for k, n in counts.items() if n > cap}
    hot_ref = hot  # captured; small

    def add(batch: pa.Table) -> pa.Table:
        kv = batch[key].to_pylist()
        # round-robin within the batch: even spread, no cross-process state
        out = [
            f"{v}#{i % num_salts}" if v in hot_ref else str(v)
            for i, v in enumerate(kv)
        ]
        return batch.append_column("__salted", pa.array(out, pa.string()))

    return ds.map_batches(add, batch_format="pyarrow"), hot


def adaptive_partitions(cap: int = 16, divisor: int = 4) -> int:
    """Hash-join/shuffle partition count sized to the cluster: Ray's hash
    aggregators are CPU-holding actors, so requesting more of them than
    available cores deadlocks small sessions (and starves upstream task
    pools on big ones — see flagship._default_partitions measurements)."""
    from gdal_ray.ops.runtime import cluster_cpus

    return max(2, min(cap, cluster_cpus() // divisor))
