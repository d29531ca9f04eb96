"""Distributed RANGE join (``l.value BETWEEN r.lo AND r.hi``) — with the
as-of join, the second classic join Ray Data lacks (SURVEY.md custom-
operator case (a)).

Plan: pick a bin width; each LEFT value goes to exactly ONE bin
(``floor(v / w)``), each RIGHT interval replicates to every bin it
overlaps. A matching pair meets in exactly the left value's bin, so the
single keyed shuffle produces each pair ONCE — no dedup pass. Within a
group the exact containment test is a vectorized outer comparison,
bounded by bin occupancy (choose ``bin_width`` near the median interval
length; very wide intervals replicate across many bins — the documented
trade-off of interval binning).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from gdal_ray.ops.shuffle import bucketed_group_apply, co_union

__all__ = ["range_join"]


def range_join(left_ds, right_ds, value_col: str, lo_col: str, hi_col: str,
               bin_width: float, left_schema: pa.Schema,
               right_schema: pa.Schema, num_buckets: int = 16):
    """-> inner-join rows: all left columns + all right columns, one row
    per (left, right) pair with lo <= value <= hi (inclusive ends)."""
    lnames = [f.name for f in left_schema]
    rnames = [f.name for f in right_schema]

    def bin_left(t: pa.Table) -> pa.Table:
        v = np.asarray(t[value_col], dtype=np.float64)
        return t.append_column("__bin", pa.array(np.floor(v / bin_width).astype(np.int64)))

    def bin_right(t: pa.Table) -> pa.Table:
        lo = np.asarray(t[lo_col], dtype=np.float64)
        hi = np.asarray(t[hi_col], dtype=np.float64)
        b0 = np.floor(lo / bin_width).astype(np.int64)
        b1 = np.floor(hi / bin_width).astype(np.int64)
        reps = (b1 - b0 + 1).clip(min=0)
        idx = np.repeat(np.arange(len(t)), reps)
        bins = np.concatenate([np.arange(a, c + 1)
                               for a, c in zip(b0, b1)]) if len(t) else \
            np.empty(0, np.int64)
        return t.take(pa.array(idx)).append_column("__bin", pa.array(bins, pa.int64()))

    both = co_union(
        left_ds.map_batches(bin_left, batch_format="pyarrow"),
        right_ds.map_batches(bin_right, batch_format="pyarrow"),
        pa.schema(list(left_schema) + list(right_schema) + [pa.field("__bin", pa.int64())]))

    def join_part(part: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, g in part.groupby("__bin", sort=False):
            l = g[g["__side"] == 0]
            r = g[g["__side"] == 1]
            if l.empty or r.empty:
                continue
            v = l[value_col].to_numpy(np.float64)
            lo = r[lo_col].to_numpy(np.float64)
            hi = r[hi_col].to_numpy(np.float64)
            li, ri = np.nonzero((v[:, None] >= lo[None, :])
                                & (v[:, None] <= hi[None, :]))
            if not len(li):
                continue
            lf = l[lnames].iloc[li].reset_index(drop=True)
            rf = r[rnames].iloc[ri].reset_index(drop=True)
            out.append(pd.concat([lf, rf], axis=1))
        if not out:
            return pd.DataFrame(
                {f.name: pd.Series(dtype="object")
                 for f in list(left_schema) + list(right_schema)})
        return pd.concat(out, ignore_index=True)

    return bucketed_group_apply(
        both, ["__bin"], join_part, num_buckets,
        schema=pa.schema(list(left_schema) + list(right_schema)))
