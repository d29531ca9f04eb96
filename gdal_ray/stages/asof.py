"""Distributed AS-OF join (the canonical temporal join Ray Data lacks;
SURVEY.md's custom-operator case (a): map_batches + keyed shuffle +
per-group merge).

For each left row, attach the right row with the greatest ``ts_col`` not
exceeding (``direction="backward"``; ``"forward"`` = smallest not below)
the left row's, within the same ``key_col`` — pandas ``merge_asof`` /
DuckDB ``ASOF JOIN`` semantics, LEFT-joined (unmatched left rows keep
nulls).

Plan: both sides are tagged and co-shuffled in ONE bucketed exchange
keyed on ``key_col`` (the partitioning assumption: a key's rows fit one
group — keys here are users/sensors, not the corpus); each group runs a
single vectorized ``pd.merge_asof`` over its ts-sorted rows. Right rows
should be unique per (key, ts) — with duplicates, which of the tied rows
wins is engine-defined (document or pre-dedup, as q_asof_purchase does).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from gdal_ray.ops.shuffle import bucketed_group_apply, co_union

__all__ = ["asof_join"]


def asof_join(left_ds, right_ds, key_col: str, ts_col: str,
              left_schema: pa.Schema, right_schema: pa.Schema,
              direction: str = "backward", suffix: str = "r_",
              num_buckets: int = 16):
    """-> left rows + ``suffix``-prefixed right payload columns (null
    where no match). ``*_schema`` list each side's columns (key/ts must
    share names); arrow types drive the null columns of the union."""
    rpay = [f for f in right_schema if f.name not in (key_col, ts_col)]
    rout = [suffix + f.name for f in rpay]
    out_fields = list(left_schema) + [
        pa.field(name, f.type) for name, f in zip(rout, rpay)]

    def rename_payload(t: pa.Table) -> pa.Table:
        return t.select([key_col, ts_col] + [f.name for f in rpay]).rename_columns(
            [key_col, ts_col] + rout)

    both = co_union(
        left_ds, right_ds.map_batches(rename_payload, batch_format="pyarrow"),
        pa.schema(out_fields))

    lcols = [f.name for f in left_schema]
    rcols = [key_col, ts_col] + rout

    def join_part(part: pd.DataFrame) -> pd.DataFrame:
        l = part[part["__side"] == 0][lcols]
        r = part[part["__side"] == 1][rcols]
        # merge_asof needs a global ts sort; stable so equal-ts order is
        # the input order (pre-dedup ties for cross-engine determinism)
        l = l.sort_values(ts_col, kind="mergesort")
        r = r.sort_values(ts_col, kind="mergesort")
        if l.empty:
            return l.assign(**{suffix + f.name: pd.Series(dtype="object")
                               for f in rpay})[lcols + rcols[2:]]
        merged = pd.merge_asof(l, r, on=ts_col, by=key_col,
                               direction=direction)
        return merged[lcols + rcols[2:]]

    return bucketed_group_apply(both, [key_col], join_part, num_buckets,
                                schema=pa.schema(out_fields))
