"""ops/shuffle.cobucket_join, the engine's one equi-join, against Ray's
hash join (``Dataset.join``) as the reference: column names, types and
the multiset of rows must agree."""

import collections

import pyarrow as pa
import pytest

LEFT = pa.table({
    "k": pa.array([1, 2, 2, None, 5, 7, 7, 9], pa.int64()),
    "s": pa.array(["a", "b", "b", "n", "e", "g", "h", None], pa.string()),
    "v": pa.array([10, 20, 21, 30, 50, 70, 71, None], pa.int64()),
})
RIGHT = pa.table({
    "k2": pa.array([1, 2, 2, None, 7, 11], pa.int64()),
    "s2": pa.array(["a", "b", "x", "n", "g", "z"], pa.string()),
    "w": pa.array([1.5, 2.5, 3.5, None, 7.5, 11.5], pa.float64()),
})


def _rows(t: pa.Table) -> collections.Counter:
    return collections.Counter(zip(*(t[c].to_pylist() for c in t.column_names)))


def _collect(ds) -> pa.Table:
    import ray

    return pa.concat_tables([ray.get(r) for r in ds.to_arrow_refs()])


def _sides(key: str):
    """(left, right, on, right_on): the int keys ``k``/``k2`` or the string
    keys ``s``/``s2``; ``same`` names the right key like the left one."""
    if key == "int":
        return LEFT, RIGHT, "k", "k2"
    if key == "str":
        return LEFT, RIGHT, "s", "s2"
    return LEFT, RIGHT.rename_columns(["k", "s2", "w"]), "k", "k"


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("key", ["int", "str", "same"])
def test_cobucket_join_matches_ray_join(ray_session, how, key):
    """Null keys never match (left_outer keeps their rows with nulls);
    duplicate keys on both sides give every pair."""
    import ray.data as rd

    from gdal_ray.ops.shuffle import cobucket_join

    left, right, on, right_on = _sides(key)
    want = _collect(rd.from_arrow(left).join(
        rd.from_arrow(right), join_type=how, num_partitions=2, on=(on,), right_on=(right_on,)))
    got = _collect(cobucket_join(
        rd.from_arrow(left).repartition(3), rd.from_arrow(right), (on,), (right_on,), how,
        left_schema=left.schema, right_schema=right.schema))
    assert got.schema == want.schema
    assert _rows(got) == _rows(want)


@pytest.mark.parametrize("how", ["inner", "left_outer"])
@pytest.mark.parametrize("empty", ["left", "right"])
def test_cobucket_join_empty_side(ray_session, how, empty):
    """An empty side gives a typed result. Ray's join fails here (a
    partition fed no blocks has no key column), so the reference is the
    pyarrow join its partitions run, over the whole tables."""
    import ray.data as rd

    from gdal_ray.ops.shuffle import cobucket_join

    left = LEFT.slice(0, 0) if empty == "left" else LEFT
    right = RIGHT.slice(0, 0) if empty == "right" else RIGHT
    want = left.join(right, keys="k", right_keys="k2",
                     join_type={"inner": "inner", "left_outer": "left outer"}[how])
    got = _collect(cobucket_join(
        rd.from_arrow(LEFT).filter(lambda r: empty != "left"),
        rd.from_arrow(RIGHT).filter(lambda r: empty != "right"),
        ("k",), ("k2",), how, left_schema=LEFT.schema, right_schema=RIGHT.schema))
    assert got.schema == want.schema
    assert _rows(got) == _rows(want)
