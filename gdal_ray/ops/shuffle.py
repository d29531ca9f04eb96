"""Shuffle helpers: bucketed group-apply and the co-bucketed equi-join.

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

Both run the engine's one exchange, ``_per_sorted_block``: a sort on the
bucket column over fixed ranges of the known bucket domain ``[0, B)``
(``max(2, min(B, cluster CPUs))`` equal ranges, ``_bucket_boundaries``; Ray
samples no boundaries). A marker row per range makes every range, an empty
one too, run the block function, and every block it emits is Arrow.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["bucketed_group_apply", "cobucket_join", "co_union"]

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


def _bucket_boundaries(num_buckets: int, cpus: int) -> list:
    """Sort boundaries cutting the bucket domain ``[0, num_buckets)`` into
    ``n = max(2, min(num_buckets, cpus))`` ranges of equal width (up to one
    bucket). ``n`` is never 1: Ray 2.49 samples boundaries when the list
    is empty."""
    n = max(2, min(num_buckets, cpus))
    return [num_buckets * i // n for i in range(1, n)]


def _per_sorted_block(ds, num_buckets: int, run_block):
    """Sort on ``__bucket`` over the fixed ranges of ``_bucket_boundaries``
    and run ``run_block(rows)`` once per sorted block, which holds whole
    buckets (a range never splits a key): GroupedData.map_groups' plan
    without its sampling pass.

    Each range also gets one marker row, with ``__bucket`` -1 in the first
    range and each boundary in the others (a single bucket leaves the first
    range no bucket), so no range is empty: Ray would pass a 0-row range
    through ``run_block`` untouched, as a block with no schema. ``rows`` is
    the block without its marker (Arrow, 0 rows for a range of no data)."""
    import ray.data as rd

    from gdal_ray.ops.runtime import cluster_cpus

    bounds = _bucket_boundaries(num_buckets, cluster_cpus())
    markers = rd.from_arrow(pa.table({
        "__bucket": pa.array([-1] + bounds, pa.int64()),
        "__marker": pa.array([True] * (len(bounds) + 1)),
    }))

    def run(block: pa.Table) -> pa.Table:
        # the range's one marker row, cut out without a copy (the sort's
        # merge gave it nulls in the data columns, and the data rows a null
        # ``__marker``)
        i = pc.index(block["__marker"], True).as_py()
        rows = pa.concat_tables([block.slice(0, i), block.slice(i + 1)])
        return run_block(rows.drop_columns(["__marker"]))

    return ds.union(markers).sort("__bucket", boundaries=bounds).map_batches(
        run, batch_size=None, batch_format="pyarrow")


def bucketed_group_apply(ds, keys, fn, num_buckets: int = 64, schema: pa.Schema | None = None):
    """Apply ``fn(partition_df) -> df`` to hash-bucketed partitions.

    ``fn`` receives ALL rows whose key-hash lands in one bucket (possibly
    many distinct key-groups) WITHOUT the helper column; it must do its own
    within-partition grouping. Equivalent result to groupby(keys).map_groups
    for group-local computations, at partition-call granularity.

    The exchange sorts the ``num_buckets`` buckets over
    ``max(2, min(num_buckets, cluster CPUs))`` fixed, equal ranges
    (``_bucket_boundaries``), one output block per range.

    Every output block is Arrow. ``fn``'s frame converts once: cast to
    ``schema`` when one is given, otherwise by Arrow's inference, without
    the pandas metadata either way. Pass ``schema`` whenever the caller
    knows it: a frame that is empty, or holds only nulls in a column,
    infers a null-typed column, and a range with no rows gives a 0-row
    block with no columns.
    """

    def arrow(out) -> pa.Table:
        if isinstance(out, pd.DataFrame):
            out = pa.Table.from_pandas(out, schema=schema, preserve_index=False)
        elif schema is not None:
            out = out.cast(schema)
        return out.replace_schema_metadata(None)

    def run_block(rows: pa.Table) -> pa.Table:
        if rows.num_rows == 0:
            return schema.empty_table() if schema is not None else pa.table({})
        # one call to ``fn`` per bucket present in this sorted block
        parts = [arrow(fn(g.drop(columns="__bucket")))
                 for _, g in rows.to_pandas().groupby("__bucket", sort=False)]
        return pa.concat_tables(parts, promote_options="permissive")

    return _per_sorted_block(
        ds.map_batches(_bucket_of(keys, num_buckets), batch_format="pyarrow"),
        num_buckets, run_block)


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
    return _per_sorted_block(both, _JOIN_BUCKETS, join_block)
