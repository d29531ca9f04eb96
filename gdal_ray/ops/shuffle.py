"""Shuffle helpers: bucketed group-apply, the co-bucketed equi-join and
hot-key salting.

``Dataset.groupby(...).map_groups(fn)`` invokes ``fn`` once per GROUP — fine
for thousands of rows per group, pathological for millions of tiny groups
(per-call Python overhead dominates). ``bucketed_group_apply`` shuffles on a
HASH BUCKET of the keys instead (B buckets ~ a small multiple of the
cluster CPU count), so the per-call unit is a whole partition and the
caller's function handles all of its key-groups vectorized (pandas groupby
inside the partition).

``cobucket_join`` is the engine's one equi-join: both sides, tagged into one
schema (``co_union``), sort on one hash bucket of their keys, and each sorted
block joins its whole buckets with one ``pa.Table.join``. No actors hold CPUs.

Salting (``salt_hot_keys``) splits keys whose row count exceeds a cap into
``key#i`` sub-keys before a keyed shuffle — the skew treatment SURVEY.md §4
calls out for dense urban cells; callers re-merge sub-key results with a
second (tiny) aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["bucketed_group_apply", "cobucket_join", "co_union", "salt_hot_keys"]

_HASH_SEED = np.uint64(0x9E3779B97F4A7C15)


def _hash_cols(batch: pa.Table, keys, num_buckets: int) -> np.ndarray:
    h = np.zeros(len(batch), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = batch[k]
            if pa.types.is_integer(col.type):
                # null keys never match; any bucket will do for them
                v = np.asarray(pc.fill_null(col, 0), dtype=np.int64).view(np.uint64)
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


def _bucket_of(keys, num_buckets: int):
    """Batch fn appending ``__bucket``, the hash bucket of ``keys``."""

    def add(batch: pa.Table) -> pa.Table:
        # no schema metadata (a pandas block converts with a dict-valued
        # entry): the sort's merge dedups schemas through a set
        return batch.replace_schema_metadata(None).append_column(
            "__bucket", pa.array(_hash_cols(batch, keys, num_buckets)))

    return add


def _per_sorted_block(ds, run_block, batch_format: str):
    """Sort on ``__bucket`` and run ``run_block`` once per sorted block,
    which holds whole buckets (a sort range never splits a key):
    GroupedData.map_groups' plan, the empty-block path left to ``run_block``."""
    return ds.sort("__bucket").map_batches(run_block, batch_size=None, batch_format=batch_format)


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

    return _per_sorted_block(
        ds.map_batches(_bucket_of(keys, num_buckets), batch_format="pyarrow"), run_block, "pandas")


def co_union(left, right, schema: pa.Schema):
    """Both sides' rows as one Dataset in ``schema`` plus an int8 ``__side``
    column (0 left, 1 right). Each side casts the ``schema`` columns it has
    and fills the others with typed nulls, so every block a later shuffle
    builds carries both sides' typed columns, even with one side's rows."""
    out = schema.append(pa.field("__side", pa.int8()))

    def project(side: int):
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = [
                t[f.name].cast(f.type) if f.name in t.column_names else pa.nulls(n, f.type)
                for f in schema
            ]
            return pa.Table.from_arrays(cols + [pa.array(np.full(n, side, np.int8))], schema=out)

        return fn

    return left.map_batches(project(0), batch_format="pyarrow").union(
        right.map_batches(project(1), batch_format="pyarrow")
    )


_JOIN_BUCKETS = 64
_JOIN_VERBS = {"inner": "inner", "left_outer": "left outer"}


def cobucket_join(left, right, on, right_on=None, how: str = "inner", *,
                  left_schema: pa.Schema, right_schema: pa.Schema):
    """Equi-join (``how`` "inner" or "left_outer") of ``left.on`` =
    ``right.right_on`` in one sort-based exchange. Columns, types and rows
    are ``pa.Table.join``'s (so Ray ``Dataset.join``'s): null keys never
    match, an empty side gives a typed result. ``*_schema`` are the sides'
    schemas: Ray infers no ``map_batches`` output schema without running it."""
    on = list(on)
    right_on = list(right_on or on)
    verb = _JOIN_VERBS[how]
    out_schema = left_schema.empty_table().join(
        right_schema.empty_table(), keys=on, right_keys=right_on, join_type=verb
    ).schema
    # the right keys travel in the left key columns (so both sides hash
    # alike), the other right columns under internal names (so a name both
    # sides carry stays two columns)
    rpay = [n for n in right_schema.names if n not in right_on]
    rtmp = [f"__r{i}" for i in range(len(rpay))]
    combined = pa.schema(
        list(left_schema)
        + [pa.field(t, right_schema.field(n).type) for t, n in zip(rtmp, rpay)]
        + [pa.field("__bucket", pa.int64())]
    )
    tagged = combined.append(pa.field("__side", pa.int8()))
    bucket = _bucket_of(on, _JOIN_BUCKETS)

    def join_block(block: pa.Table) -> pa.Table:
        if block.num_rows == 0:
            return out_schema.empty_table()
        # Ray passes a 0-row block through map_batches untouched, so an
        # input's 0-row pandas block reaches the sort untagged, and a sort
        # range of mostly pandas partitions merges in pandas (an all-null
        # column comes back null-typed)
        block = block.select(tagged.names).cast(tagged)
        side = block["__side"]
        lt = block.filter(pc.equal(side, 0)).select(left_schema.names)
        rt = block.filter(pc.equal(side, 1)).select(on + rtmp).rename_columns(right_on + rpay)
        # use_threads=False: the task owns one CPU slot
        joined = lt.join(rt, keys=on, right_keys=right_on, join_type=verb, use_threads=False)
        return joined.select(out_schema.names).cast(out_schema)

    # each side is bucketed before the union: a map after it does not fuse
    both = co_union(
        left.map_batches(bucket, batch_format="pyarrow"),
        right.map_batches(
            lambda t: bucket(t.select(right_on + rpay).rename_columns(on + rtmp)),
            batch_format="pyarrow",
        ),
        combined,
    )
    return _per_sorted_block(both, join_block, "pyarrow")


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
