"""SQL-checkable relational pipelines over the TPC-H-ish testdata tables.

These exercise the engine's generic operator surface (the OGR SQL engine
equivalents — ``ogr/ogr_swq.h`` aggregates/filters, ``ogr_gensql.cpp``
ORDER BY / DISTINCT / JOIN) re-expressed as Ray Data pipelines. Every
function here has a matching ANSI-SQL oracle in ``__ray_entry__.oracle_sql``
with IDENTICAL output column names; aggregate floats are rounded on both
sides to absorb summation-order differences.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd  # noqa: F401
from gdal_ray.sources.corpus import read_parquet_tight as _rpt
from ray.data.aggregate import Count, Min, Sum

__all__ = [
    "q1_pricing_summary",
    "q_filter_parts",
    "q_join_segment_revenue",
    "q_topk_orders",
    "q_distinct_flags",
    "q_window_events_hourly",
    "q_hopping_windows",
    "q_dedup_docs",
    "q_token_stats",
    "q_sim_topk",
]


def _t(sf_dir: str, name: str, columns=None) -> rd.Dataset:
    return _rpt(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def _q4(x):
    """Quantize to integer ten-thousandths with floor(x*1e4 + 0.5): the
    per-row doubles are identical in the engine and in DuckDB, so the
    quantized int64s agree exactly and their SUM is order-independent —
    float aggregates become bit-deterministic with NO final rounding
    (a round-after-sum lands on .xx5 boundaries at some scales)."""
    return np.floor(np.asarray(x, dtype=np.float64) * 10000.0 + 0.5).astype(np.int64)


def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-style grouped aggregate with per-batch partial pre-aggregation
    (combiner before the shuffle — SURVEY.md §2.5 mapping of OGR SQL
    aggregates, ogr_gensql.cpp:642). Money columns sum as quantized int64
    (see _q4) so the result is identical under ANY summation order."""
    ds = _t(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    cutoff = pd.Timestamp("1998-09-02")

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch[batch["l_shipdate"] <= cutoff]
        batch = batch.assign(
            qty4=_q4(batch["l_quantity"]),
            base4=_q4(batch["l_extendedprice"]),
            disc4=_q4(batch["l_extendedprice"] * (1 - batch["l_discount"])),
        )
        g = batch.groupby(["l_returnflag", "l_linestatus"], as_index=False).agg(
            qty4=("qty4", "sum"),
            base4=("base4", "sum"),
            disc4=("disc4", "sum"),
            count_order=("qty4", "size"),
        )
        return g

    partials = ds.map_batches(partial, batch_format="pandas", batch_size=65536)
    final = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty4", alias_name="qty4"),
        Sum("base4", alias_name="base4"),
        Sum("disc4", alias_name="disc4"),
        Sum("count_order", alias_name="count_order"),
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch["sum_qty"] = batch["qty4"] / 10000.0
        batch["sum_base_price"] = batch["base4"] / 10000.0
        batch["sum_disc_price"] = batch["disc4"] / 10000.0
        batch["avg_qty"] = batch["qty4"] / (batch["count_order"] * 10000.0)
        return batch[
            ["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
             "sum_disc_price", "avg_qty", "count_order"]
        ]

    return final.map_batches(finish, batch_format="pandas")


def q_filter_parts(sf_dir: str):
    """Attribute filter (LIKE + BETWEEN, ogr_swq.h:53-57) + grouped count."""
    ds = _t(sf_dir, "part", columns=["p_brand", "p_type", "p_size"])

    def flt(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.match_substring(batch["p_type"], "DAR"),
            pc.and_(pc.greater_equal(batch["p_size"], 10), pc.less_equal(batch["p_size"], 30)),
        )
        return batch.filter(m)

    return (
        ds.map_batches(flt, batch_format="pyarrow")
        .groupby("p_brand")
        .aggregate(Count(alias_name="n_parts"), Sum("p_size", alias_name="sum_size"))
    )


def q_join_segment_revenue(sf_dir: str):
    """Equi-join (OGR SQL JOIN, ogr_gensql.cpp:1497) + aggregate.

    orders:customer is N:1, so each batch pre-combines per o_custkey
    (quantized revenue sum + order count) BEFORE the join — the shuffle
    ships at most one row per (batch, custkey) instead of every order.
    """
    from gdal_ray.ops.shuffle import cobucket_join

    orders = _t(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    customer = _t(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def combine(batch: pa.Table) -> pa.Table:
        # quantize + partial per-batch combine (fuses with the read)
        q = pa.table(
            {"o_custkey": batch["o_custkey"], "rev4": pa.array(_q4(batch["o_totalprice"]))}
        )
        g = q.group_by("o_custkey").aggregate([("rev4", "sum"), ("rev4", "count")])
        return g.rename_columns(["o_custkey", "rev4", "n"])

    joined = cobucket_join(
        orders.map_batches(combine, batch_format="pyarrow"),
        customer,
        on=("o_custkey",),
        right_on=("c_custkey",),
        left_schema=pa.schema([orders.schema().base_schema.field("o_custkey"),
                               ("rev4", pa.int64()), ("n", pa.int64())]),
        right_schema=customer.schema().base_schema,
    )

    # per-block partial combine: the join output collapses to <= 5 segment
    # rows per block, so the global aggregate is a driver-side sum of a
    # few dozen partial rows — no second shuffle, no aggregator actors
    # (the Aggregate operator alone cost ~8 s of actor spin-up for 5
    # groups; at any scale the partial row count is blocks x segments)
    def partial(batch: pa.Table) -> pa.Table:
        g = batch.group_by("c_mktsegment").aggregate([("n", "sum"), ("rev4", "sum")])
        return g.rename_columns(["c_mktsegment", "n", "rev4"])

    parts = joined.map_batches(partial, batch_format="pyarrow", batch_size=None).to_pandas()
    out = parts.groupby("c_mktsegment", as_index=False).agg(
        n_orders=("n", "sum"), rev4=("rev4", "sum")
    )
    out["revenue"] = out["rev4"] / 10000.0
    return out[["c_mktsegment", "n_orders", "revenue"]]


def q_topk_orders(sf_dir: str):
    """ORDER BY + LIMIT (CreateOrderByIndex / swq LIMIT, ogr_gensql.cpp:634)."""
    ds = _t(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)


def q_distinct_flags(sf_dir: str):
    """DISTINCT over two columns (SWQM_DISTINCT_LIST, ogr_gensql.cpp:642)."""
    ds = _t(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus"])
    return (
        ds.groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Count(alias_name="_n"))
        .drop_columns(["_n"])
    )


def q_window_events_hourly(sf_dir: str):
    """Tumbling-window aggregate over the events log (ordered-log treatment
    of stream-shaped data; window = integer hour bucket of epoch micros)."""
    ds = _t(sf_dir, "events", columns=["event_type", "ts", "value"])

    def bucket(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()))
        hour = us // 3_600_000_000
        return pa.table(
            {
                "event_type": batch["event_type"],
                "hour": pa.array(hour),
                "val4": pa.array(_q4(np.asarray(batch["value"]))),
            }
        )

    agg = (
        ds.map_batches(bucket, batch_format="pyarrow")
        .groupby(["event_type", "hour"])
        .aggregate(Count(alias_name="n"), Sum("val4", alias_name="val4"))
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch["sum_value"] = batch["val4"] / 10000.0
        return batch[["event_type", "hour", "n", "sum_value"]]

    return agg.map_batches(finish, batch_format="pandas")


def q_hopping_windows(sf_dir: str):
    """HOPPING (sliding) window aggregate — size 1800 s, hop 900 s, so
    every event lands in exactly two overlapping windows (the streaming
    shape tumbling windows can't express): per-batch the event explodes
    to its window starts with a vectorized repeat and pre-combines, then
    one distributed groupby sums the partials. Integer math throughout
    (epoch micros // hop; value quantized 1e-2), twin = UNNEST(range)."""
    hop = 900_000_000
    size = 1_800_000_000
    ds = _t(sf_dir, "events", columns=["event_type", "ts", "value"])

    def explode(batch: pa.Table) -> pa.Table:
        us = np.asarray(batch["ts"].cast(pa.int64()))
        v2 = np.floor(np.asarray(batch["value"], dtype=np.float64)
                      * 100.0 + 0.5).astype(np.int64)
        et = np.asarray(batch["event_type"], dtype=object)
        k0 = (us - size) // hop + 1
        k1 = us // hop
        reps = (k1 - k0 + 1).astype(np.int64)
        idx = np.repeat(np.arange(len(us)), reps)
        ks = np.concatenate([np.arange(a, b + 1)
                             for a, b in zip(k0, k1)]) if len(us) else \
            np.empty(0, np.int64)
        df = pd.DataFrame({"wstart": ks * hop, "event_type": et[idx],
                           "v2": v2[idx]})
        g = df.groupby(["wstart", "event_type"], sort=False).agg(
            n=("v2", "size"), sum_v2=("v2", "sum")).reset_index()
        return pa.table({
            "wstart": pa.array(g["wstart"].to_numpy(np.int64)),
            "event_type": pa.array(g["event_type"].to_numpy(object),
                                   pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "sum_v2": pa.array(g["sum_v2"].to_numpy(np.int64)),
        })

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["wstart", "event_type"])
        .aggregate(Sum("n", alias_name="n"),
                   Sum("sum_v2", alias_name="sum_v2"))
        .sort(["wstart", "event_type"])
    )


def q_dedup_docs(sf_dir: str):
    """Exact dedup: md5 content hash -> min doc_id per group (md5 chosen so
    the oracle is plain ANSI SQL; same pattern as phash-keyed image dedup)."""
    from gdal_ray.stages.dedup import add_md5

    ds = _t(sf_dir, "documents", columns=["doc_id", "text"])
    hashed = ds.map_batches(add_md5, batch_format="pyarrow").drop_columns(["text"])
    return hashed.groupby("md5").aggregate(Min("doc_id", alias_name="doc_id_keep"))


def q_token_stats(sf_dir: str):
    """Whitespace token counting + per-language doc stats (SQL-parity
    definition: count of maximal [^ \\t\\n\\r]+ runs)."""
    ds = _t(sf_dir, "documents", columns=["doc_id", "text", "lang", "n_chars"])

    def stats(batch: pd.DataFrame) -> pd.DataFrame:
        batch["n_tokens"] = batch["text"].fillna("").str.count(r"[^ \t\n\r]+").astype("int64")
        return batch[["lang", "n_chars", "n_tokens"]]

    return (
        ds.map_batches(stats, batch_format="pandas")
        .groupby("lang")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
            Sum("n_tokens", alias_name="sum_tokens"),
        )
    )


def q_sim_topk(sf_dir: str):
    """Brute-force cosine top-5 for the first 8 vectors against the whole
    embeddings table (broadcast query matrix; exact baseline of the
    similarity-search operator)."""
    import pyarrow.parquet as pq

    from gdal_ray.stages.simsearch import topk_cosine

    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    mask = pc.less(qt["vec_id"], 8)
    qt = qt.filter(mask).sort_by("vec_id")
    queries = np.stack([np.asarray(v, dtype=np.float64) for v in qt["embedding"].to_pylist()])
    qids = np.asarray(qt["vec_id"])

    ds = _t(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    top = topk_cosine(ds, queries, k=5)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        batch["query_id"] = qids[batch["query_idx"].to_numpy()]
        return batch[["query_id", "rank", "vec_id"]]

    return top.map_batches(finish, batch_format="pandas")


def q_semi_anti_customers(sf_dir: str):
    """Semi/anti join via broadcast key set (SURVEY §2.4: Clip ≈ semi,
    Erase ≈ anti, ogrlayer.cpp:5497/5806): per market segment, customers
    WITH orders and customers WITHOUT orders."""
    import pyarrow.parquet as pq
    import ray

    keys = pq.read_table(os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey"])
    keyset_ref = ray.put(set(keys["o_custkey"].to_pylist()))

    ds = _t(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(keyset_ref)
        batch["has_orders"] = batch["c_custkey"].isin(ks)
        return batch

    tagged = ds.map_batches(tag, batch_format="pandas")
    return tagged.groupby(["c_mktsegment", "has_orders"]).aggregate(
        Count(alias_name="n_customers")
    )


def q_sessionize_events(sf_dir: str):
    """Sessionization over the events log (stream-shaped data as an ordered
    partitioned log): per user, a new session starts when the gap to the
    previous event exceeds 1800 s; returns (user_id, n_sessions, n_events)."""
    from gdal_ray.ops.shuffle import bucketed_group_apply

    ds = _t(sf_dir, "events", columns=["user_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {"user_id": batch["user_id"], "us": batch["ts"].cast(pa.int64())}
        )

    def sessions(part: pd.DataFrame) -> pd.DataFrame:
        rows = {"user_id": [], "n_sessions": [], "n_events": []}
        for uid, g in part.groupby("user_id", sort=False):
            us = np.sort(g["us"].to_numpy())
            gaps = np.diff(us) > 1_800_000_000
            rows["user_id"].append(int(uid))
            rows["n_sessions"].append(int(gaps.sum()) + 1)
            rows["n_events"].append(len(us))
        return pd.DataFrame(rows)

    return bucketed_group_apply(
        ds.map_batches(to_us, batch_format="pyarrow"), ["user_id"], sessions, 16,
        schema=pa.schema(
            [("user_id", pa.int64()), ("n_sessions", pa.int64()), ("n_events", pa.int64())]
        ),
    )


def q_string_expr(sf_dir: str):
    """OGR SQL scalar string functions (CONCAT/SUBSTR/UPPER, ogr_swq.h:63-65)
    as pyarrow.compute expressions."""
    ds = _t(sf_dir, "part", columns=["p_partkey", "p_name", "p_brand"])

    def expr(batch: pa.Table) -> pa.Table:
        name8 = pc.utf8_upper(pc.utf8_slice_codeunits(batch["p_name"], 0, 8))
        label = pc.binary_join_element_wise(batch["p_brand"], name8, "-")
        return pa.table(
            {
                "p_partkey": batch["p_partkey"],
                "name8": name8,
                "label": label,
                "name_len": pc.cast(pc.utf8_length(batch["p_name"]), pa.int64()),
            }
        )

    return ds.map_batches(expr, batch_format="pyarrow")
