"""Local replica of the driver's correctness gate: run each queries() entry
and its oracle_sql() in DuckDB over the same parquet views; compare row
count, column names, and order-insensitive values (exact for ints/strings,
reporting max abs diff for floats)."""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


def to_pandas(res):
    import pyarrow as pa
    import ray.data as rd

    if isinstance(res, rd.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name, got: pd.DataFrame, want: pd.DataFrame):
    problems = []
    if sorted(got.columns) != sorted(want.columns):
        problems.append(f"schema: {sorted(got.columns)} vs {sorted(want.columns)}")
        return problems
    if len(got) != len(want):
        problems.append(f"rows: {len(got)} vs {len(want)}")
        return problems
    g, w = canon(got), canon(want)
    for c in g.columns:
        # Dtype-strict like the driver's hash: DuckDB SUM(BIGINT) returns
        # HUGEINT (pandas object/float), which hash-mismatches an int64
        # engine column even when values are equal. Require identical
        # post-canon dtypes.
        if g[c].dtype != w[c].dtype:
            problems.append(f"col {c}: dtype {g[c].dtype} vs {w[c].dtype}")
            continue
        gv, wv = g[c].to_numpy(), w[c].to_numpy()
        if np.issubdtype(g[c].dtype, np.floating) or np.issubdtype(w[c].dtype, np.floating):
            gv = gv.astype(np.float64)
            wv = wv.astype(np.float64)
            if not np.array_equal(gv, wv):
                d = np.nanmax(np.abs(gv - wv))
                problems.append(f"col {c}: float mismatch max abs diff {d:.3e}")
        else:
            if not (gv.astype(str) == wv.astype(str)).all():
                bad = np.nonzero(gv.astype(str) != wv.astype(str))[0][:3]
                problems.append(f"col {c}: mismatch rows {bad.tolist()} {gv[bad]} vs {wv[bad]}")
    return problems


def main(sf_dir: str, only=None, cpus: int = 8):
    # the checkout this script belongs to, not whichever one is on the path
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import __ray_entry__ as E
    from gdal_ray.io.codec import inflate_backend

    # PNG, qlossy and deflate-TIFF decode run ~1.6x slower on the zlib fallback
    print(f"inflate backend: {inflate_backend()}", flush=True)
    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from gdal_ray.ops.runtime import drop_schema_noise

    drop_schema_noise()

    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = E.queries()
    oracles = E.oracle_sql()
    results = {}
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as ex:
            results[name] = f"ENGINE ERROR: {ex!r}"
            print(name, results[name])
            continue
        dt = time.time() - t0
        if name in oracles:
            want = con.sql(oracles[name]).df()
            probs = compare(name, got, want)
            results[name] = "OK" if not probs else "; ".join(probs)
        else:
            results[name] = f"rows-only: {len(got)} rows"
        print(f"{name:28s} {dt:6.1f}s  {results[name]}")
    ray.shutdown()
    bad = {k: v for k, v in results.items() if v != "OK" and not v.startswith("rows-only")}
    print("\nFAILURES:" if bad else "\nALL SQL-CHECKED QUERIES OK")
    for k, v in bad.items():
        print(" ", k, "->", v)


if __name__ == "__main__":
    import argparse

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sf_dir", help="an sf* table directory")
    p.add_argument("queries", nargs="*", help="run only these queries() entries")
    p.add_argument("--cpus", type=int, default=8, help="Ray CPUs (default 8)")
    args = p.parse_args()
    main(args.sf_dir, set(args.queries) or None, args.cpus)
