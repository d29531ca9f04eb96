"""ops/shuffle's one exchange: every bucket sort runs on the fixed ranges
of its known bucket domain (Ray samples no boundaries), and every block a
``bucketed_group_apply`` emits is Arrow."""

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from gdal_ray.ops.shuffle import _bucket_boundaries

TABLE = pa.table({
    "k": pa.array([1, 2, 2, 5, 7, 7, 9, 11], pa.int64()),
    "v": pa.array([10, 20, 21, 50, 70, 71, 90, 110], pa.int64()),
})


@pytest.mark.parametrize("buckets", [1, 2, 16, 64])
@pytest.mark.parametrize("cpus", [1, 2, 32])
def test_boundaries_cut_the_domain_into_equal_ranges(buckets, cpus):
    """``max(2, min(B, cpus))`` ranges: never one, which would leave an
    empty list (Ray then samples); each range is a whole number of
    buckets, and widths differ by at most one bucket."""
    bounds = _bucket_boundaries(buckets, cpus)
    n = max(2, min(buckets, cpus))
    assert len(bounds) == n - 1 >= 1
    edges = [0] + bounds + [buckets]
    widths = [b - a for a, b in zip(edges, edges[1:])]
    assert all(w >= 0 for w in widths)
    assert max(widths) - min(widths) <= 1


def test_boundaries_examples():
    assert _bucket_boundaries(64, 32) == list(range(2, 64, 2))
    assert _bucket_boundaries(16, 1) == [8]
    assert _bucket_boundaries(16, 3) == [5, 10]


def _group_apply(rd):
    from gdal_ray.ops.shuffle import bucketed_group_apply

    return bucketed_group_apply(
        rd.from_arrow(TABLE), ["k"], lambda p: p, 64, schema=TABLE.schema)


def _join(rd):
    from gdal_ray.ops.shuffle import _JOIN_BUCKETS, cobucket_join

    assert _JOIN_BUCKETS == 64
    right = TABLE.rename_columns(["k", "w"])
    return cobucket_join(rd.from_arrow(TABLE), rd.from_arrow(right), ("k",),
                         left_schema=TABLE.schema, right_schema=right.schema)


@pytest.mark.parametrize("plan", [_group_apply, _join])
@pytest.mark.parametrize("cpus", [1, 2, 32])
def test_every_bucket_sort_has_fixed_boundaries(ray_session, bucket_sorts, plan, cpus):
    """Planning (not running) each exchange records one ``__bucket`` sort
    whose boundaries are the rule's for 64 buckets at ``cpus``."""
    import ray.data as rd

    calls = bucket_sorts(cpus)
    plan(rd)
    assert calls == [_bucket_boundaries(64, cpus)]


def test_schemaless_output_is_arrow_across_an_empty_range(ray_session, bucket_sorts):
    """One key fills one of four one-bucket ranges; the other three pass
    give 0-row blocks. Every block is Arrow, so a (sampled) sort of
    the output with more Arrow rows runs: a pandas block among Arrow ones
    failed there with ``AssertionError: (BlockType.ARROW, BlockType.PANDAS)``."""
    import ray
    import ray.data as rd

    from gdal_ray.ops.shuffle import bucketed_group_apply

    bucket_sorts(4)
    t = pa.table({"k": pa.array([7] * 6, pa.int64()), "v": pa.array(range(6), pa.int64())})
    out = bucketed_group_apply(
        rd.from_arrow(t).repartition(2), ["k"], lambda p: p.assign(n=len(p)), 4).materialize()
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref in b.block_refs]
    assert all(isinstance(b, pa.Table) for b in blocks)
    assert sorted(b.num_rows for b in blocks) == [0, 0, 0, 6]
    more = rd.from_arrow(pa.table({"k": [8], "v": [6], "n": [1]}))
    got = out.union(more).sort("v").to_pandas()
    pd.testing.assert_frame_equal(
        got, pd.DataFrame({"k": [7] * 6 + [8], "v": list(range(7)), "n": [6] * 6 + [1]}))


def test_empty_ranges_carry_the_schema(ray_session, bucket_sorts):
    """A range with no data still runs the block function (its marker row
    keeps it from being empty), so with ``schema=`` every block, the three
    0-row ones too, has that schema; Ray passed an empty range through as a
    block with no columns."""
    import ray
    import ray.data as rd

    from gdal_ray.ops.shuffle import bucketed_group_apply

    bucket_sorts(4)
    out = bucketed_group_apply(
        rd.from_arrow(TABLE.filter(pc.equal(TABLE["k"], 7))), ["k"],
        lambda p: p, 4, schema=TABLE.schema).materialize()
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref in b.block_refs]
    assert sorted(b.num_rows for b in blocks) == [0, 0, 0, 2]
    assert all(b.schema == TABLE.schema for b in blocks)
