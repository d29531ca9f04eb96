"""Parsed OGR-SQL entry point (gdal_ray/sql.py) vs DuckDB on the testdata."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem".split()


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


def _run_both(sql, con, ray_session):
    from gdal_ray.sql import execute_sql

    got = execute_sql(sql, SF).to_pandas().reset_index(drop=True)
    want = con.sql(sql).df().reset_index(drop=True)
    if len(got) == 0 and len(want) == 0:
        # an empty Dataset loses its schema through sort; rows agree (0=0)
        return got
    assert [c.lower() for c in got.columns] == [c.lower() for c in want.columns]
    assert len(got) == len(want)
    for c in got.columns:
        g, w = got[c].to_numpy(), want[c].to_numpy()
        if np.issubdtype(np.asarray(w).dtype, np.number):
            assert np.allclose(np.asarray(g, dtype=np.float64),
                               np.asarray(w, dtype=np.float64), rtol=1e-12,
                               equal_nan=True), c
        else:
            assert (g.astype(str) == w.astype(str)).all(), c
    return got


QUERIES = [
    "SELECT p_brand, COUNT(*) AS n, AVG(p_size) AS a FROM part "
    "WHERE p_type LIKE '%DAR%' AND p_size BETWEEN 5 AND 40 "
    "GROUP BY p_brand ORDER BY p_brand",
    "SELECT o_orderkey, o_totalprice * 2 + 1 AS dbl FROM orders "
    "WHERE o_totalprice > 100000 ORDER BY dbl DESC, o_orderkey ASC LIMIT 7",
    "SELECT DISTINCT l_returnflag, l_linestatus FROM lineitem "
    "ORDER BY l_returnflag, l_linestatus",
    "SELECT COUNT(*) AS n, AVG(c_acctbal) AS avg_bal, MIN(c_custkey) AS mn "
    "FROM customer WHERE c_mktsegment IN ('BUILDING', 'MACHINERY')",
    "SELECT n_name FROM nation WHERE n_regionkey = 2 AND NOT n_name LIKE 'A%' "
    "ORDER BY n_name",
    "SELECT s_suppkey FROM supplier WHERE s_suppkey % 10 = 3 "
    "ORDER BY s_suppkey LIMIT 5",
    "SELECT r_name FROM region WHERE r_name IS NOT NULL ORDER BY r_name",
    # hidden ORDER BY column (not in the select list)
    "SELECT c_name FROM customer WHERE c_custkey <= 20 ORDER BY c_acctbal DESC",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_sql_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


STRFN_QUERIES = [
    "SELECT UPPER(n_name) AS u, LENGTH(n_name) AS l FROM nation ORDER BY u",
    "SELECT CONCAT(r_name, '-', CAST(r_regionkey AS VARCHAR)) AS tag "
    "FROM region ORDER BY tag",
    "SELECT SUBSTR(c_name, 1, 8) AS pre FROM customer "
    "WHERE c_custkey <= 10 ORDER BY pre",
    "SELECT CAST(o_orderkey AS FLOAT) AS p FROM orders "
    "WHERE o_orderkey <= 32 ORDER BY p",
]


@pytest.mark.parametrize("sql", STRFN_QUERIES)
def test_sql_string_functions(sql, con, ray_session):
    _run_both(sql, con, ray_session)


def test_select_star(con, ray_session):
    got = _run_both("SELECT * FROM region ORDER BY r_regionkey", con, ray_session)
    assert list(got.columns) == ["r_regionkey", "r_name"]


JOIN_QUERIES = [
    "SELECT n_name, r_name FROM nation LEFT JOIN region "
    "ON nation.n_regionkey = region.r_regionkey ORDER BY n_name",
    "SELECT r_name, COUNT(*) AS n FROM nation LEFT JOIN region "
    "ON nation.n_regionkey = region.r_regionkey GROUP BY r_name ORDER BY r_name",
    "SELECT c_name, n_name FROM customer LEFT JOIN nation "
    "ON customer.c_nationkey = nation.n_nationkey "
    "WHERE customer.c_custkey <= 25 ORDER BY c_name",
]


@pytest.mark.parametrize("sql", JOIN_QUERIES)
def test_sql_join_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


def test_parser_rejects_unsupported(ray_session):
    from gdal_ray.sql import SQLError, execute_sql

    for bad, msg in [
        ("SELECT a FROM nowhere", "unknown table"),
        ("SELECT n_name FROM nation JOIN region ON bad", "JOIN condition"),
        ("SELECT COUNT(*) FROM nation HAVING 1", "HAVING requires GROUP BY"),
        ("SELECT missing_col FROM nation", "unknown column"),
        ("SELECT r_name FROM region ORDER BY r_name "
         "UNION SELECT n_name FROM nation", "inside a UNION member"),
        ("SELECT r_name, r_regionkey FROM region "
         "UNION SELECT n_name FROM nation", "same column count"),
        ("SELECT c_custkey FROM customer WHERE c_custkey IN "
         "(SELECT o_custkey, o_orderkey FROM orders)", "exactly one column"),
    ]:
        with pytest.raises(SQLError, match=msg):
            execute_sql(bad, SF).to_pandas()


# round-5 surface: HAVING, chained joins, IN-subquery, column-operand
# SUBSTR / IN (ogr_gensql.cpp:1497 join machinery; swq HAVING surface)
R5_QUERIES = [
    "SELECT p_brand, COUNT(*) AS n, CAST(SUM(p_size) AS BIGINT) AS s "
    "FROM part GROUP BY p_brand HAVING COUNT(*) >= 10 AND MIN(p_size) < 5 "
    "ORDER BY p_brand",
    # HAVING over an aggregate not in the SELECT list
    "SELECT p_brand, COUNT(*) AS n FROM part GROUP BY p_brand "
    "HAVING CAST(SUM(p_size) AS BIGINT) > 250 ORDER BY p_brand",
    # two chained LEFT JOINs (customer -> nation -> region)
    "SELECT r_name, COUNT(*) AS n FROM customer "
    "LEFT JOIN nation ON customer.c_nationkey = nation.n_nationkey "
    "LEFT JOIN region ON nation.n_regionkey = region.r_regionkey "
    "GROUP BY r_name ORDER BY r_name",
    # IN-subquery on the primary table (pushed below any joins)
    "SELECT c_custkey FROM customer WHERE c_custkey IN "
    "(SELECT o_custkey FROM orders WHERE o_totalprice > 250000) "
    "ORDER BY c_custkey",
    # NOT IN-subquery
    "SELECT n_name FROM nation WHERE n_regionkey NOT IN "
    "(SELECT r_regionkey FROM region WHERE r_name LIKE 'A%') "
    "ORDER BY n_name",
    # SUBSTR with a column start position (per-row bounds)
    "SELECT SUBSTR(n_name, n_regionkey + 1, 3) AS frag FROM nation "
    "ORDER BY frag, n_name",
    # IN-list with a column operand
    "SELECT n_name FROM nation WHERE n_regionkey IN (0, n_nationkey % 3) "
    "ORDER BY n_name",
]


@pytest.mark.parametrize("sql", R5_QUERIES)
def test_sql_round5_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


# late-round-5 surface: ORDER BY expressions/ordinals, HAVING aliases,
# LIMIT/OFFSET (ogr_swq.h:480), scalar subqueries, [NOT] EXISTS
# (ogrsqliteexecutesql.cpp SQLite-dialect surface)
R5B_QUERIES = [
    # ORDER BY a computed expression (hidden sort key)
    "SELECT c_name, c_acctbal FROM customer WHERE c_custkey <= 50 "
    "ORDER BY c_acctbal + c_custkey DESC LIMIT 5",
    # ORDER BY ordinal
    "SELECT r_name FROM region ORDER BY 1 DESC",
    # ORDER BY expression over string functions, alias usable
    "SELECT UPPER(n_name) AS u FROM nation ORDER BY LENGTH(n_name) DESC, u "
    "LIMIT 6",
    # ORDER BY an aggregate expression under GROUP BY
    "SELECT l_returnflag, CAST(SUM(l_quantity) AS BIGINT) AS s FROM lineitem "
    "GROUP BY l_returnflag ORDER BY SUM(l_quantity) DESC",
    # LIMIT ... OFFSET
    "SELECT o_orderkey FROM orders WHERE o_orderkey < 100 "
    "ORDER BY o_orderkey LIMIT 5 OFFSET 3",
    # HAVING via the select alias + OFFSET after a grouped sort
    "SELECT p_brand, COUNT(*) AS n FROM part GROUP BY p_brand "
    "HAVING n >= 3 ORDER BY n DESC, p_brand LIMIT 4 OFFSET 2",
    # scalar subquery as a comparison operand
    "SELECT c_name FROM customer WHERE c_acctbal > "
    "(SELECT AVG(c_acctbal) FROM customer) AND c_custkey <= 30 "
    "ORDER BY c_name",
    # correlated EXISTS (equality on the nation key + a local predicate)
    "SELECT s_name FROM supplier WHERE EXISTS "
    "(SELECT 1 FROM customer WHERE customer.c_nationkey = "
    "supplier.s_nationkey AND customer.c_acctbal > 9000) ORDER BY s_name",
    # correlated NOT EXISTS (anti-join shape)
    "SELECT n_name FROM nation WHERE NOT EXISTS "
    "(SELECT 1 FROM supplier WHERE supplier.s_nationkey = nation.n_nationkey) "
    "ORDER BY n_name",
    # non-correlated EXISTS folding to TRUE
    "SELECT r_name FROM region WHERE EXISTS "
    "(SELECT 1 FROM nation WHERE n_regionkey = 0) ORDER BY r_name",
    # correlated IN-subquery (tuple-membership semi-filter)
    "SELECT s_name FROM supplier WHERE s_nationkey IN "
    "(SELECT c_nationkey FROM customer "
    "WHERE customer.c_custkey = supplier.s_suppkey) ORDER BY s_name",
    # correlated NOT IN-subquery
    "SELECT s_name FROM supplier WHERE s_nationkey NOT IN "
    "(SELECT c_nationkey FROM customer "
    "WHERE customer.c_custkey = supplier.s_suppkey AND c_acctbal > 0) "
    "ORDER BY s_name",
]


@pytest.mark.parametrize("sql", R5B_QUERIES)
def test_sql_round5b_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


# round-5 final surface: table aliases (swq table_def as_clause),
# SELF-JOINS under distinct aliases (later instance's colliding columns
# rename to <alias>_<col> internally), GROUP BY expressions/aliases
# (hidden staged group keys substituted back into select/HAVING/sort)
R5C_QUERIES = [
    # bare and AS table aliases on a join
    "SELECT c.c_name, n.n_name FROM customer c LEFT JOIN nation n "
    "ON c.c_nationkey = n.n_nationkey WHERE c.c_custkey <= 25 ORDER BY c_name",
    "SELECT o.o_orderkey, c.c_name FROM orders AS o LEFT JOIN customer AS c "
    "ON o.o_custkey = c.c_custkey WHERE o.o_orderkey <= 100 ORDER BY o_orderkey",
    # self-join: nation pairs sharing a region
    "SELECT a.n_name AS na, b.n_name AS nb FROM nation a LEFT JOIN nation b "
    "ON a.n_regionkey = b.n_regionkey WHERE a.n_nationkey < b.n_nationkey "
    "ORDER BY na, nb",
    # 3-instance chain incl. a self-join leg; WHERE touches the renamed col
    "SELECT a.n_name AS na, b.n_name AS nb, r.r_name AS rn FROM nation a "
    "LEFT JOIN nation b ON a.n_regionkey = b.n_regionkey "
    "LEFT JOIN region r ON a.n_regionkey = r.r_regionkey "
    "WHERE b.n_nationkey > a.n_nationkey ORDER BY na, nb",
    # self-join + aggregate over the left instance's key
    "SELECT a.n_regionkey AS rk, COUNT(*) AS pairs FROM nation a "
    "LEFT JOIN nation b ON a.n_regionkey = b.n_regionkey "
    "GROUP BY a.n_regionkey ORDER BY rk",
    # correlated EXISTS with aliased inner AND outer instances
    "SELECT c.c_name FROM customer c WHERE EXISTS (SELECT 1 FROM orders o "
    "WHERE o.o_custkey = c.c_custkey AND o.o_totalprice > 200000) "
    "ORDER BY c_name LIMIT 15",
    # GROUP BY an expression repeated in the select list
    "SELECT SUBSTR(c_name, 1, 12) AS pre, COUNT(*) AS n FROM customer "
    "GROUP BY SUBSTR(c_name, 1, 12) ORDER BY n DESC, pre LIMIT 10",
    # GROUP BY a select alias
    "SELECT c_nationkey % 5 AS bucket, SUM(c_acctbal) AS s FROM customer "
    "GROUP BY bucket ORDER BY bucket",
    # GROUP BY expr + HAVING + ORDER BY the same expr (all substitute)
    "SELECT c_nationkey % 3 AS b, COUNT(*) AS n FROM customer "
    "GROUP BY c_nationkey % 3 HAVING COUNT(*) > 10 ORDER BY c_nationkey % 3",
    # two grouped expressions
    "SELECT c_nationkey % 2 AS a, c_nationkey % 3 AS b, COUNT(*) AS n "
    "FROM customer GROUP BY c_nationkey % 2, c_nationkey % 3 ORDER BY a, b",
    # grouped expression over a joined alias column
    "SELECT SUBSTR(n.n_name, 1, 1) AS ini, COUNT(*) AS n FROM customer c "
    "LEFT JOIN nation n ON c.c_nationkey = n.n_nationkey "
    "GROUP BY SUBSTR(n.n_name, 1, 1) ORDER BY ini",
]


@pytest.mark.parametrize("sql", R5C_QUERIES)
def test_sql_round5c_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


# non-equality correlated EXISTS: bounded broadcast nested loop — one
# vectorized disjunct per distinct inner row (the reference's per-row
# nested-loop executor shape, batched; ogr_gensql.cpp)
NL_QUERIES = [
    # pure non-equality correlation
    "SELECT c_name FROM customer c WHERE EXISTS (SELECT 1 FROM orders o "
    "WHERE o.o_custkey < c.c_custkey AND o.o_totalprice > 450000) "
    "ORDER BY c_name",
    # equality + non-equality mixed correlation
    "SELECT s_name FROM supplier s WHERE EXISTS (SELECT 1 FROM customer c "
    "WHERE c.c_nationkey = s.s_nationkey AND c.c_acctbal > s.s_acctbal + 800) "
    "ORDER BY s_name",
    # NOT EXISTS with non-equality correlation
    "SELECT n_name FROM nation n WHERE NOT EXISTS (SELECT 1 FROM supplier s "
    "WHERE s.s_nationkey = n.n_nationkey AND s.s_acctbal > n.n_nationkey * 300) "
    "ORDER BY n_name",
    # arithmetic on both sides of the correlation
    "SELECT r_name FROM region r WHERE EXISTS (SELECT 1 FROM nation n "
    "WHERE n.n_regionkey + 1 > r.r_regionkey AND n.n_nationkey < 3) "
    "ORDER BY r_name",
]


@pytest.mark.parametrize("sql", NL_QUERIES)
def test_sql_nested_loop_exists_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


# correlated scalar subqueries (broadcast {key -> scalar} lookup with
# empty-group defaults) + GROUP BY ordinals
CSS_QUERIES = [
    # in a WHERE predicate (per-nation average)
    "SELECT c_name FROM customer c WHERE c_acctbal > "
    "(SELECT AVG(c2.c_acctbal) FROM customer c2 "
    "WHERE c2.c_nationkey = c.c_nationkey) AND c_custkey <= 60 "
    "ORDER BY c_name",
    # in the SELECT list; empty correlated groups must yield COUNT = 0
    "SELECT n_name, (SELECT CAST(COUNT(*) AS BIGINT) FROM supplier s "
    "WHERE s.s_nationkey = n.n_nationkey) AS n_sup FROM nation n "
    "ORDER BY n_name",
    # per-key MAX as an equality probe (argmax-per-group idiom)
    "SELECT s_name FROM supplier s WHERE s_acctbal = "
    "(SELECT MAX(s2.s_acctbal) FROM supplier s2 "
    "WHERE s2.s_nationkey = s.s_nationkey) ORDER BY s_name",
    # non-correlated scalar subquery in the SELECT list
    "SELECT r_name, (SELECT CAST(MIN(n_nationkey) AS BIGINT) FROM nation) "
    "AS mn FROM region ORDER BY r_name",
    # GROUP BY ordinal on a plain column and on an expression select item
    "SELECT c_mktsegment, COUNT(*) AS n FROM customer GROUP BY 1 ORDER BY 1",
    "SELECT CAST(c_nationkey % 4 AS BIGINT) AS b, "
    "CAST(SUM(c_acctbal) AS DOUBLE) AS s FROM customer GROUP BY 1 ORDER BY 1",
]


@pytest.mark.parametrize("sql", CSS_QUERIES)
def test_sql_correlated_scalar_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


def test_nested_loop_cap(ray_session, monkeypatch):
    import gdal_ray.sql as S

    monkeypatch.setattr(S, "_NL_CAP", 3)
    with pytest.raises(S.SQLError, match="> cap 3"):
        S.execute_sql(
            "SELECT c_name FROM customer c WHERE EXISTS (SELECT 1 FROM "
            "orders o WHERE o.o_totalprice > c.c_acctbal)", SF
        ).to_pandas()


def test_alias_and_groupby_guards(ray_session):
    from gdal_ray.sql import SQLError, execute_sql

    # self-join without distinct aliases is ambiguous
    with pytest.raises(SQLError, match="duplicate table alias"):
        execute_sql(
            "SELECT 1 AS x FROM nation JOIN nation "
            "ON nation.n_regionkey = nation.n_regionkey", SF)
    # an aliased table's name is no longer a valid qualifier
    with pytest.raises(SQLError, match="unknown table qualifier"):
        execute_sql(
            "SELECT nation.n_name AS x FROM nation a "
            "LEFT JOIN region r ON a.n_regionkey = r.r_regionkey", SF)
    # aggregates cannot appear inside a GROUP BY key
    with pytest.raises(SQLError, match="may not contain aggregates"):
        execute_sql(
            "SELECT COUNT(*) AS n FROM nation GROUP BY COUNT(*)", SF)


def test_exists_empty_and_offset_guard(ray_session):
    from gdal_ray.sql import SQLError, execute_sql

    # non-correlated EXISTS folding to FALSE drops every row
    got = execute_sql(
        "SELECT r_name FROM region WHERE EXISTS "
        "(SELECT 1 FROM nation WHERE n_regionkey = 99)", SF
    ).to_pandas()
    assert len(got) == 0
    # OFFSET without LIMIT would need an unbounded head: rejected
    with pytest.raises(SQLError, match="OFFSET requires LIMIT"):
        execute_sql("SELECT r_name FROM region OFFSET 2", SF)
    # scalar subquery with >1 row: rejected
    with pytest.raises(SQLError, match="more than one row"):
        execute_sql(
            "SELECT r_name FROM region WHERE r_regionkey > "
            "(SELECT n_regionkey FROM nation)", SF
        ).to_pandas()


def test_ogrsql2_gate_text(con, ray_session):
    from gdal_ray.pipelines.ext_queries import OGRSQL2_TEXT

    _run_both(OGRSQL2_TEXT, con, ray_session)


UNION_QUERIES = [
    # UNION ALL keeps duplicates; first member's names win
    "SELECT r_name AS nm FROM region UNION all SELECT n_name FROM nation "
    "ORDER BY nm",
    # plain UNION dedups (regionkeys 0-4 overlap nation regionkeys)
    "SELECT r_regionkey AS k FROM region UNION "
    "SELECT n_regionkey FROM nation ORDER BY k",
    # mixed chain is left-associative; trailing LIMIT applies to the union
    "SELECT n_regionkey AS k FROM nation UNION "
    "SELECT r_regionkey FROM region UNION all "
    "SELECT r_regionkey FROM region ORDER BY k LIMIT 9",
    # unioned aggregates
    "SELECT c_mktsegment AS g, COUNT(*) AS n FROM customer GROUP BY "
    "c_mktsegment UNION all SELECT p_brand, COUNT(*) FROM part "
    "GROUP BY p_brand ORDER BY g, n",
]


@pytest.mark.parametrize("sql", UNION_QUERIES)
def test_union_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


COUNT_DISTINCT_QUERIES = [
    "SELECT c_mktsegment, COUNT(DISTINCT c_nationkey) AS n_nat, "
    "COUNT(*) AS n FROM customer GROUP BY c_mktsegment ORDER BY c_mktsegment",
    "SELECT COUNT(DISTINCT o_custkey) AS n_cust FROM orders",
    "SELECT l_returnflag, COUNT(DISTINCT l_linestatus) AS n_ls, "
    "CAST(SUM(l_quantity) AS BIGINT) AS q FROM lineitem "
    "GROUP BY l_returnflag ORDER BY l_returnflag",
]


@pytest.mark.parametrize("sql", COUNT_DISTINCT_QUERIES)
def test_count_distinct_matches_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


def test_distinct_only_in_count(ray_session):
    from gdal_ray.sql import SQLError, execute_sql

    with pytest.raises(SQLError, match="only supported in COUNT"):
        execute_sql("SELECT SUM(DISTINCT p_size) AS s FROM part", SF)


def test_having_filters_everything(ray_session):
    """A HAVING that rejects every group yields an empty result."""
    from gdal_ray.sql import execute_sql

    got = execute_sql(
        "SELECT p_brand, COUNT(*) AS n FROM part GROUP BY p_brand "
        "HAVING COUNT(*) > 1000000", SF
    ).to_pandas()
    assert len(got) == 0


def test_count_col_skips_nulls(tmp_path, con, ray_session):
    """COUNT(col) must skip NULLs (swq + DuckDB); COUNT(*) must not."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/part.parquet")
    keys = t["p_partkey"].to_numpy()
    mask = pa.array((keys % 3) == 0)
    nulled = pa.compute.if_else(mask, pa.nulls(len(t), pa.string()),
                                t["p_type"].cast(pa.string()))
    t = t.set_column(t.schema.get_field_index("p_type"), "p_type", nulled)
    pq.write_table(t, str(tmp_path / "part.parquet"))

    from gdal_ray.sql import execute_sql

    sql = ("SELECT p_brand, COUNT(p_type) AS n_typed, COUNT(*) AS n_all "
           "FROM part GROUP BY p_brand ORDER BY p_brand")
    got = execute_sql(sql, str(tmp_path)).to_pandas().reset_index(drop=True)
    c = duckdb.connect()
    c.sql(f"CREATE VIEW part AS SELECT * FROM "
          f"read_parquet('{tmp_path}/part.parquet')")
    want = c.sql(sql).df().reset_index(drop=True)
    assert got["n_typed"].tolist() == want["n_typed"].tolist()
    assert got["n_all"].tolist() == want["n_all"].tolist()
    assert (got["n_typed"] < got["n_all"]).any()


def _rand_expr(rng, depth=0):
    """Random numeric/boolean predicate over part columns, valid in both
    dialects (no / or %, no CAST — those deviate by design)."""
    num_cols = ["p_size", "p_partkey"]
    if depth >= 3 or rng.random() < 0.3:
        c = rng.choice(num_cols)
        op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
        if rng.random() < 0.5:
            return f"{c} {op} {rng.randint(0, 60)}"
        k1, k2 = rng.randint(1, 5), rng.randint(0, 50)
        return f"{c} * {k1} + {k2} {op} {rng.choice(num_cols)} + {rng.randint(0, 99)}"
    kind = rng.choice(["and", "or", "not", "between", "in", "like"])
    if kind == "and":
        return f"({_rand_expr(rng, depth+1)}) AND ({_rand_expr(rng, depth+1)})"
    if kind == "or":
        return f"({_rand_expr(rng, depth+1)}) OR ({_rand_expr(rng, depth+1)})"
    if kind == "not":
        return f"NOT ({_rand_expr(rng, depth+1)})"
    if kind == "between":
        lo = rng.randint(0, 25)
        return f"p_size BETWEEN {lo} AND {lo + rng.randint(0, 30)}"
    if kind == "in":
        vals = ", ".join(str(rng.randint(1, 50)) for _ in range(rng.randint(1, 5)))
        return f"p_size IN ({vals})"
    pat = rng.choice(["%a%", "%ol%", "s%", "%e", "%an%ed%"])
    return f"p_name LIKE '{pat}'"


def test_sql_fuzz_where_vs_duckdb(con, ray_session):
    """Seeded random WHERE expressions through the engine's parser must
    match DuckDB row-for-row (the parser property test)."""
    import random

    rng = random.Random(20260818)
    for _ in range(12):
        sql = (
            "SELECT p_partkey, p_size FROM part "
            f"WHERE {_rand_expr(rng)} ORDER BY p_partkey"
        )
        _run_both(sql, con, ray_session)


def test_sql_fuzz_orderby_offset_vs_duckdb(con, ray_session):
    """Random WHERE + ORDER BY expression + LIMIT/OFFSET combinations
    (the late-round-5 grammar) vs DuckDB. The ORDER BY key includes
    p_partkey as the final tiebreak so row order is total."""
    import random

    rng = random.Random(20260819)
    for _ in range(8):
        ob = rng.choice([
            "p_size * 3 - p_partkey",
            "p_size + p_partkey",
            "2",
            "p_size - 2 * p_size",
        ])
        desc = rng.choice(["ASC", "DESC"])
        lim = rng.randint(3, 12)
        off = rng.choice([0, rng.randint(1, 6)])
        tail = f"LIMIT {lim}" + (f" OFFSET {off}" if off else "")
        sql = (
            "SELECT p_partkey, p_size FROM part "
            f"WHERE {_rand_expr(rng)} "
            f"ORDER BY {ob} {desc}, p_partkey {tail}"
        )
        _run_both(sql, con, ray_session)


def test_cast_float_to_int_truncates_like_ogr(ray_session):
    """OGR's swq CAST(float AS integer) is a C truncation, not a round
    (unlike DuckDB, which rounds) — pin the OGR semantics."""
    from gdal_ray.sql import execute_sql

    got = execute_sql(
        "SELECT CAST(o_totalprice AS INTEGER) AS p FROM orders "
        "WHERE o_orderkey <= 6 ORDER BY p", SF
    ).to_pandas()
    import pyarrow.parquet as pq
    df = pq.read_table(f"{SF}/orders.parquet", columns=["o_orderkey", "o_totalprice"]).to_pandas()
    want = sorted(int(v) for v in df[df["o_orderkey"] <= 6]["o_totalprice"])
    assert got["p"].tolist() == want


STDDEV_QUERIES = [
    "SELECT c_mktsegment, STDDEV_POP(c_acctbal) AS sp, "
    "STDDEV_SAMP(c_acctbal) AS ss, COUNT(*) AS n FROM customer "
    "GROUP BY c_mktsegment ORDER BY c_mktsegment",
    "SELECT STDDEV_SAMP(p_size) AS s FROM part",
]


@pytest.mark.parametrize("sql", STDDEV_QUERIES)
def test_stddev_matches_duckdb(sql, con, ray_session):
    """swq's STDDEV_POP/STDDEV_SAMP aggregates (ogr/ogr_swq.h:67-75)."""
    _run_both(sql, con, ray_session)


ILIKE_QUERIES = [
    "SELECT n_name FROM nation WHERE n_name ILIKE 'a%' ORDER BY n_name",
    "SELECT c_name FROM customer WHERE c_name ILIKE '%0002_' "
    "AND c_custkey <= 60 ORDER BY c_name",
    "SELECT n_name FROM nation WHERE n_name NOT ILIKE '%a%' ORDER BY n_name",
]


@pytest.mark.parametrize("sql", ILIKE_QUERIES)
def test_ilike_matches_duckdb(sql, con, ray_session):
    """ILIKE: case-insensitive LIKE (swq_op_general.cpp ILIKE)."""
    _run_both(sql, con, ray_session)


def test_hstore_get_value_scalar():
    """OGRHStoreGetValue parity (swq_op_general.cpp:291): bare + quoted
    tokens, backslash escapes, first-match-wins, malformed -> NULL."""
    from gdal_ray.sql import hstore_get_value as h

    assert h("a=>b", "a") == "b"
    assert h("a=>b, c=>d", "c") == "d"
    assert h('"a b"=>"c,d"', "a b") == "c,d"
    assert h("  a  =>  b  ", "a") == "b"
    assert h("a=>b", "x") is None
    assert h('"k\\"q"=>v', 'k"q') == "v"
    assert h("a=>", "a") is None          # no value -> malformed
    assert h("a=>b,a=>c", "a") == "b"     # first match wins
    assert h('tag=>1, "multi word"=>"x => y"', "multi word") == "x => y"
    assert h(None, "a") is None


def test_hstore_get_value_in_sql(ray_session):
    """HSTORE_GET_VALUE as a vectorized SQL scalar (DuckDB has no such
    function, so the oracle is the scalar port applied per row)."""
    import pandas as pd

    from gdal_ray.sql import execute_sql, hstore_get_value

    sql = ("SELECT r_name, HSTORE_GET_VALUE("
           "CONCAT('name=>', r_name, ', id=>', CAST(r_regionkey AS "
           "character)), 'id') AS rid FROM region ORDER BY r_name")
    got = execute_sql(sql, SF).to_pandas().reset_index(drop=True)
    region = pd.read_parquet(f"{SF}/region.parquet").sort_values(
        "r_name").reset_index(drop=True)
    want = [hstore_get_value(f"name=>{n}, id=>{k}", "id")
            for n, k in zip(region["r_name"], region["r_regionkey"])]
    assert list(got["rid"]) == want
    assert list(got["r_name"]) == list(region["r_name"])
    # unknown key -> all NULL
    sql2 = ("SELECT HSTORE_GET_VALUE(CONCAT('a=>', r_name), 'zz') AS v "
            "FROM region")
    got2 = execute_sql(sql2, SF).to_pandas()
    assert got2["v"].isna().all()


CASE_QUERIES = [
    # searched CASE in the select list + under an aggregate
    "SELECT l_returnflag, SUM(CASE WHEN l_quantity > 25 THEN 1 ELSE 0 END) "
    "AS big, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag "
    "ORDER BY l_returnflag",
    # simple CASE over a column, string results, no ELSE -> NULL
    "SELECT n_name, CASE n_regionkey WHEN 0 THEN 'africa' WHEN 1 "
    "THEN 'america' END AS region0 FROM nation ORDER BY n_name",
    # CASE in WHERE + nested expression arms
    "SELECT o_orderkey FROM orders WHERE CASE WHEN o_totalprice > 200000 "
    "THEN 1 ELSE 0 END = 1 ORDER BY o_orderkey LIMIT 9",
    # first-matching-arm precedence
    "SELECT p_partkey, CASE WHEN p_size > 10 THEN 'big' WHEN p_size > 5 "
    "THEN 'mid' ELSE 'small' END AS bucket FROM part "
    "ORDER BY p_partkey LIMIT 20",
]


@pytest.mark.parametrize("sql", CASE_QUERIES)
def test_case_matches_duckdb(sql, con, ray_session):
    """CASE: the SQLite-dialect escape-hatch surface
    (ogrsqliteexecutesql.cpp) — swq has no CASE, DuckDB is the oracle."""
    _run_both(sql, con, ray_session)


COALESCE_QUERIES = [
    "SELECT COALESCE(NULL, n_name, 'x') AS a, NULLIF(n_regionkey, 2) AS b "
    "FROM nation ORDER BY n_name",
    "SELECT COALESCE(NULLIF(l_linestatus, 'O'), 'closed') AS st, "
    "COUNT(*) AS n FROM lineitem GROUP BY st ORDER BY st",
]


@pytest.mark.parametrize("sql", COALESCE_QUERIES)
def test_coalesce_nullif_match_duckdb(sql, con, ray_session):
    _run_both(sql, con, ray_session)


def test_ogr_special_fields(tmp_path, ray_session):
    """OGR_GEOMETRY / OGR_GEOM_WKT / OGR_GEOM_AREA special fields
    (ogr/ogrfeaturequery.cpp:37-38) over a geometry-bearing layer."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from gdal_ray.geo.wkb import encode_point, encode_polygon
    from gdal_ray.sql import execute_sql

    sq = encode_polygon([np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 3.0],
                                   [0.0, 3.0], [0.0, 0.0]])])
    pt = encode_point(7.0, 8.0)
    t = pa.table({
        "r_regionkey": pa.array([0, 1, 2], pa.int64()),
        "r_name": pa.array(["sqr", "pnt", "non"], pa.string()),
        "geometry": pa.array([sq, pt, None], pa.binary()),
    })
    pq.write_table(t, str(tmp_path / "region.parquet"))
    got = execute_sql(
        "SELECT r_name, OGR_GEOMETRY AS gtype, OGR_GEOM_AREA AS area, "
        "OGR_GEOM_WKT AS wkt FROM region ORDER BY r_regionkey",
        str(tmp_path),
    ).to_pandas()
    assert list(got["gtype"]) == ["POLYGON", "POINT", None]
    assert list(got["area"]) == [12.0, 0.0, 0.0]
    assert got["wkt"][0].startswith("POLYGON")
    assert got["wkt"][1] == "POINT (7 8)"
    # usable in WHERE and under aggregates
    got2 = execute_sql(
        "SELECT COUNT(*) AS n, SUM(OGR_GEOM_AREA) AS a FROM region "
        "WHERE OGR_GEOMETRY = 'POLYGON'", str(tmp_path)).to_pandas()
    assert got2["n"][0] == 1 and got2["a"][0] == 12.0
    # a real column shadows the special name
    t2 = t.append_column("ogr_geometry",
                         pa.array(["x", "y", "z"], pa.string()))
    pq.write_table(t2, str(tmp_path / "region.parquet"))
    got3 = execute_sql(
        "SELECT OGR_GEOMETRY AS g FROM region ORDER BY r_regionkey",
        str(tmp_path)).to_pandas()
    assert list(got3["g"]) == ["x", "y", "z"]


ESCAPE_QUERIES = [
    # escaped '#' is a plain literal (ESCAPE char + any char -> literal)
    "SELECT c_name FROM customer WHERE c_name LIKE 'Customer!#%' "
    "ESCAPE '!' AND c_custkey <= 12 ORDER BY c_name",
    # escaped '%' must match a literal percent -> no rows (both engines)
    "SELECT n_name FROM nation WHERE n_name LIKE '%!%%' ESCAPE '!' "
    "ORDER BY n_name",
    # escaped '_' stops the single-char wildcard
    "SELECT p_type FROM part WHERE p_type LIKE '%TIN' AND NOT "
    "p_type LIKE '%!_TIN' ESCAPE '!' ORDER BY p_type LIMIT 5",
]


@pytest.mark.parametrize("sql", ESCAPE_QUERIES)
def test_like_escape_matches_duckdb(sql, con, ray_session):
    """LIKE ... ESCAPE (swq_parser.y optional escape clause)."""
    _run_both(sql, con, ray_session)


def _rand_case(rng, depth=0):
    """Random searched/simple CASE over part columns, valid in both
    dialects; results are always numeric so select-list typing is
    stable."""
    if rng.random() < 0.4:  # simple form over a small modulus
        m = rng.randint(2, 4)
        arms = " ".join(
            f"WHEN {v} THEN {rng.randint(0, 9)}" for v in range(m - 1)
        )
        tail = f" ELSE {rng.randint(10, 19)}" if rng.random() < 0.7 else ""
        return f"CASE p_size % {m} {arms}{tail} END"
    n_arms = rng.randint(1, 3)
    arms = " ".join(
        f"WHEN ({_rand_expr(rng, depth + 2)}) THEN "
        f"{rng.choice(['p_size', 'p_partkey'])} + {rng.randint(0, 9)}"
        for _ in range(n_arms)
    )
    tail = f" ELSE {rng.randint(0, 5)}" if rng.random() < 0.7 else ""
    return f"CASE {arms}{tail} END"


def test_sql_fuzz_case_vs_duckdb(con, ray_session):
    """Seeded random CASE expressions (select list + WHERE + under SUM)
    vs DuckDB — the searched/simple forms, first-matching-arm rule, and
    the missing-ELSE NULL path."""
    import random

    rng = random.Random(20260820)
    for _ in range(10):
        sql = (
            f"SELECT p_partkey, {_rand_case(rng)} AS c FROM part "
            f"WHERE p_partkey <= 120 AND ({_rand_case(rng)}) >= 3 "
            "ORDER BY p_partkey"
        )
        _run_both(sql, con, ray_session)
    for _ in range(4):
        sql = (
            f"SELECT p_brand, CAST(SUM({_rand_case(rng)}) AS BIGINT) AS s, "
            "COUNT(*) AS n FROM part GROUP BY p_brand ORDER BY p_brand"
        )
        _run_both(sql, con, ray_session)


def test_two_level_correlation(con, ray_session):
    """Nested correlated EXISTS: the inner subquery may correlate to its
    IMMEDIATELY enclosing query (s), arbitrarily deep; skipping a level
    (innermost referencing the outermost alias) raises the documented
    limitation instead of a cryptic qualifier error."""
    sql = ("SELECT n_name FROM nation WHERE EXISTS ("
           " SELECT 1 FROM supplier s WHERE s.s_nationkey = nation.n_nationkey"
           " AND EXISTS (SELECT 1 FROM customer c"
           "  WHERE c.c_nationkey = s.s_nationkey AND c.c_acctbal > 9000))"
           " ORDER BY n_name")
    _run_both(sql, con, ray_session)

    from gdal_ray.sql import SQLError, execute_sql

    deep = ("SELECT n_name FROM nation WHERE EXISTS ("
            " SELECT 1 FROM supplier s WHERE s.s_nationkey = nation.n_nationkey"
            " AND EXISTS (SELECT 1 FROM customer c"
            "  WHERE c.c_nationkey = nation.n_nationkey))")
    with pytest.raises(SQLError, match="IMMEDIATELY enclosing"):
        execute_sql(deep, SF).to_pandas()


@pytest.mark.parametrize("cpus", [1, 2, 32])
def test_union_plans_fixed_bucket_ranges(ray_session, bucket_sorts, cpus):
    """A plain UNION's DISTINCT exchange sorts its 16 buckets on the fixed
    ranges of ``ops/shuffle._bucket_boundaries``; Ray samples none."""
    from gdal_ray.ops.shuffle import _bucket_boundaries
    from gdal_ray.sql import execute_sql

    calls = bucket_sorts(cpus)
    execute_sql("SELECT r_regionkey AS k FROM region UNION "
                "SELECT n_regionkey FROM nation", SF)
    assert calls == [_bucket_boundaries(16, cpus)]


@pytest.mark.parametrize("query", ["q_join_segment_revenue", "q_union_lattice"])
def test_join_segment_revenue_at_one_cpu(query):
    """At 1 Ray CPU (two sort ranges) the co-bucketed join finishes (Ray's
    hash join never did: its aggregator actors each hold a CPU), and so
    does the layer union's exchange; each query matches its DuckDB twin at
    sf0.01, dtype-strict, within 40 s of engine time. Runs the gate script
    in a subprocess with its own Ray."""
    import os
    import re
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "check_oracle.py"),
         os.path.join(os.path.dirname(SF), "sf0.01"), query, "--cpus", "1"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = re.search(rf"^{query}\s+([\d.]+)s\s+(.*)$", proc.stdout, re.M)
    assert line, proc.stdout[-2000:]
    assert line.group(2) == "OK"
    assert float(line.group(1)) < 40.0
