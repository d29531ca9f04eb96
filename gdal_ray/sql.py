"""Parsed OGR-SQL entry point: ``execute_sql(sql, sf_dir)`` -> Dataset.

The reference's ``GDALDataset::ExecuteSQL`` OGR SQL dialect
(``ogr/swq.cpp`` expression compiler + ``ogr/ogrsf_frmts/generic/
ogr_gensql.cpp`` executor). Supported subset — the dialect's documented
core (single input layer):

  SELECT [DISTINCT] <expr [AS alias], ... | aggregates>
  FROM <table> [[AS] t1]
  [[LEFT] JOIN <table2> [[AS] t2] ON t1.a = t2.b]...
  [WHERE <expr>] [GROUP BY <col | alias | expr>, ...] [HAVING <expr>]
  [ORDER BY <col | ordinal | expr> [ASC|DESC], ...] [LIMIT n [OFFSET m]]

Expressions: column refs (optionally table-qualified), numeric/string
literals, + - * / % and unary -, comparisons (= != <> < <= > >=),
AND / OR / NOT, LIKE / ILIKE (OGR's %/_ wildcards, optional
ESCAPE '<ch>' per swq_parser.y), IN (values or a single-column
subquery), BETWEEN a AND b, IS [NOT] NULL, parentheses,
CAST(x AS integer/float/character) — float->integer TRUNCATES like swq's
C cast (DuckDB rounds) — and the swq string functions CONCAT / SUBSTR
(1-based) / UPPER / LOWER / LENGTH / TRIM / HSTORE_GET_VALUE (the
PostgreSQL-hstore tag lookup, swq_op_general.cpp:291 — quoted tokens,
backslash escapes, first matching key). From the SQLite-dialect
escape-hatch surface (ogrsqliteexecutesql.cpp; swq itself lacks these):
CASE (searched and simple forms, first-matching-arm), COALESCE, NULLIF.
OGR special fields (ogr/ogrfeaturequery.cpp:37-38) OGR_GEOMETRY /
OGR_GEOM_WKT / OGR_GEOM_AREA compute from the scanned table's WKB
``geometry`` column unless a real column shadows the name.
Aggregates: COUNT(*) /
COUNT(x) (NULLs skipped, like swq/DuckDB), COUNT(DISTINCT x) (swq's
distinct_flag, ogr/ogr_swq.h — compiled to a two-stage distinct count
joined back onto the group aggregate), SUM, AVG, MIN, MAX (swq_op
registry, ogr/swq_parser.y). Any number of secondary-table [LEFT] JOIN
... ON t1.a = t2.b clauses (the dialect's JOIN is a left join —
ogr_gensql.cpp join machinery at ogr_gensql.cpp:1497); HAVING filters
the aggregated rows and may use aggregates; IN (SELECT one_col FROM ...)
runs the subquery first and broadcasts its value set to every filter
task (the bounded-small-side pattern — the subquery result must fit on
the driver, which matches OGR's executor materializing the secondary
side); UNION [ALL] chains concatenate positionally with the first
member's column names (plain UNION dedups left-associatively through
one bucketed shuffle per step — the SQLite-dialect surface the
reference reaches via ogrsqliteexecutesql.cpp). Further breadth:
HAVING may reference select aliases; ORDER BY accepts 1-based
ordinals and full expressions (computed as hidden sort keys, aliases
usable, aggregates allowed under GROUP BY); LIMIT n OFFSET m (swq's
LIMIT/OFFSET, ogr/ogr_swq.h:480 — OFFSET requires LIMIT so the head
stays bounded); scalar subqueries ``(SELECT one_agg FROM ...)``
resolve eagerly to a literal (must return <=1 row); [NOT] EXISTS
(SELECT ...) — non-correlated folds to a boolean via a LIMIT-1 probe,
correlated-by-equality (outer refs must be table-qualified, e.g.
``EXISTS (SELECT 1 FROM s WHERE s.k = t.k AND s.x > 5)``) compiles to
a distinct inner-key scan broadcast as a semi-filter on the outer
keys — the same bounded-small-side pattern as IN-subqueries; IN
(SELECT ...) subqueries may be correlated the same way (the filter
becomes tuple membership over value + correlation keys); NON-EQUALITY
correlated EXISTS conjuncts (``o.price > t.price``) fall back to a
bounded broadcast nested loop — the inner side (distinct referenced
columns, local predicates applied, <=10k rows) binds one disjunct per
inner row, each evaluated vectorized over the outer batch; CORRELATED
scalar subqueries (``(SELECT agg(..) FROM t2 WHERE t2.k = t.k)``, in the
SELECT list or predicates) group the inner by the correlation keys and
broadcast a {key -> scalar} lookup map — missing keys evaluate the
scalar over an empty group (COUNT-family 0, other aggregates NULL);
GROUP BY also accepts 1-based select ordinals; table aliases
(swq table_def as_clause) allow SELF-JOINS — the same table twice under
distinct aliases, qualifiers naming the alias (an aliased table's name
stops being a valid qualifier, standard SQL); a later instance's column
that collides with one already in scope is renamed <alias>_<col>
internally, so unqualified refs stay unambiguous; GROUP BY accepts full
expressions and select aliases — non-column keys are staged as hidden
group columns per batch and substituted back into structurally-equal
select/HAVING/ORDER-BY expressions.

Documented deviation: string comparisons (=, <, IN, BETWEEN) are
CASE-SENSITIVE here, matching DuckDB (the twin oracle) and this
module's LIKE; the reference's swq_op_general.cpp:955ff uses strcasecmp
for them. CAST(float AS integer) keeps OGR's truncation instead of
DuckDB's rounding (pinned by tests/test_sql.py).

Compilation is Ray-Data-native: WHERE/projections become ONE vectorized
pandas ``map_batches`` (fused with the parquet read; conjuncts that only
touch primary-table columns are pushed BELOW the joins), aggregates go
through ``Dataset.groupby().aggregate()`` (distributed partial+final),
ORDER BY is ``Dataset.sort`` and LIMIT streams. Nothing materializes on
the driver except IN-subquery value sets.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa

__all__ = ["execute_sql", "parse", "SQLError"]

class SQLError(ValueError):
    pass


# --------------------------------------------------------------------------
# tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)"
    r"|(?P<str>'(?:[^']|'')*')"
    r"|(?P<id>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op><>|<=|>=|!=|[(),.*+\-/%<>=]))"
)

_KEYWORDS = {
    "select", "distinct", "from", "where", "group", "by", "order", "limit",
    "as", "and", "or", "not", "like", "ilike", "in", "between", "is", "null", "asc",
    "desc", "count", "sum", "avg", "min", "max", "having", "join", "union",
    "left", "on", "cast", "exists", "offset",
    "case", "when", "then", "else", "end",
}

# OGR SQL scalar string functions (swq_op_registrar, ogr/swq_op_general.cpp)
_STR_FUNCS = {"concat", "substr", "upper", "lower", "length", "trim",
              "hstore_get_value", "coalesce", "nullif"}


def _hstore_next_string(s: str, i: int, is_key: bool):
    """One hstore token starting at ``i`` -> (token, next_index) or
    (None, None) on malformed input. Matches the reference scanner's
    observable semantics (swq_op_general.cpp OGRHStoreGetNextString /
    OGRHStoreCheckEnd): tokens are bare words or double-quoted strings
    with backslash escapes; after the token only spaces may precede
    '=>' (keys) / ',' (values) / end-of-string."""
    n = len(s)

    def check_end(j):
        while j < n:
            if s[j] == " ":
                j += 1
            elif is_key and s[j:j + 2] == "=>":
                return j + 2
            elif not is_key and s[j] == ",":
                return j + 1
            else:
                return None
        return j

    buf: list = []
    started = in_string = False
    while i < n:
        ch = s[i]
        if in_string:
            if ch == '"':
                nxt = check_end(i + 1)
                return (None, None) if nxt is None else ("".join(buf), nxt)
            if ch == "\\":
                i += 1
                if i >= n:
                    return None, None
                ch = s[i]
            buf.append(ch)
            i += 1
        elif ch == " ":
            if started:
                nxt = check_end(i + 1)
                return (None, None) if nxt is None else ("".join(buf), nxt)
            i += 1
        elif is_key and s[i:i + 2] == "=>":
            if started:
                return "".join(buf), i + 2
            i += 1
        elif not is_key and ch == ",":
            if started:
                return "".join(buf), i + 1
            i += 1
        elif ch == '"':
            in_string = started = True
            i += 1
        else:
            started = True
            buf.append(ch)
            i += 1
    if not in_string and started:
        return "".join(buf), n
    return None, None


def hstore_get_value(hstore, key):
    """OGRHStoreGetValue (swq_op_general.cpp:291): first matching key's
    value in a PostgreSQL-hstore-formatted string, else None."""
    if hstore is None or key is None:
        return None
    i, n = 0, len(hstore)
    while i < n:
        k, i2 = _hstore_next_string(hstore, i, True)
        if k is None or i2 >= n:
            return None
        v, i3 = _hstore_next_string(hstore, i2, False)
        if v is None:
            return None
        if k == key:
            return v
        i = i3
    return None


def _tokenize(sql: str):
    out, pos = [], 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            rest = sql[pos:].strip()
            if not rest:
                break
            raise SQLError(f"unexpected character at: {rest[:20]!r}")
        pos = m.end()
        if m.group("num") is not None:
            v = m.group("num")
            out.append(("num", float(v) if "." in v else int(v)))
        elif m.group("str") is not None:
            out.append(("str", m.group("str")[1:-1].replace("''", "'")))
        elif m.group("id") is not None:
            w = m.group("id")
            out.append(("kw", w.lower()) if w.lower() in _KEYWORDS else ("id", w.lower()))
        else:
            out.append(("op", m.group("op")))
    return out


# --------------------------------------------------------------------------
# recursive-descent parser -> expression trees (tuples)
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens):
        self.t = tokens
        self.i = 0

    def peek(self, k=0):
        return self.t[self.i + k] if self.i + k < len(self.t) else ("eof", None)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, kind, val=None):
        tok = self.next()
        if tok[0] != kind or (val is not None and tok[1] != val):
            raise SQLError(f"expected {val or kind}, got {tok}")
        return tok

    def accept(self, kind, val=None):
        tok = self.peek()
        if tok[0] == kind and (val is None or tok[1] == val):
            self.i += 1
            return True
        return False

    def table_alias(self):
        """Optional table alias after a FROM/JOIN table name: ``t alias``
        or ``t AS alias`` (swq table_def as_clause). Keywords never parse
        as aliases, so bare-identifier aliases are unambiguous."""
        if self.accept("kw", "as"):
            return self.expect("id")[1]
        if self.peek()[0] == "id":
            return self.next()[1]
        return None

    # expression grammar: or_expr
    def expr(self):
        return self._or()

    def _or(self):
        node = self._and()
        while self.accept("kw", "or"):
            node = ("or", node, self._and())
        return node

    def _and(self):
        node = self._not()
        while self.accept("kw", "and"):
            node = ("and", node, self._not())
        return node

    def _not(self):
        if self.accept("kw", "not"):
            return ("not", self._not())
        return self._predicate()

    def _predicate(self):
        if self.peek() == ("kw", "exists"):
            # [NOT] EXISTS (SELECT ...) — the SQLite-dialect surface the
            # reference reaches via ogrsqliteexecutesql.cpp; correlated
            # equality form compiles to a broadcast semi-filter
            self.next()
            self.expect("op", "(")
            sub = self.select_stmt()
            self.expect("op", ")")
            return ("exists", sub)
        node = self._arith()
        tok = self.peek()
        if tok == ("kw", "is"):
            self.next()
            neg = self.accept("kw", "not")
            self.expect("kw", "null")
            node = ("isnull", node)
            return ("not", node) if neg else node
        neg = False
        if tok == ("kw", "not"):
            if self.peek(1)[1] in ("like", "ilike", "in", "between"):
                self.next()
                neg = True
                tok = self.peek()
        if tok == ("kw", "like") or tok == ("kw", "ilike"):
            # ILIKE: case-insensitive LIKE (swq_op_general.cpp ILIKE);
            # optional ESCAPE '<ch>' (swq_parser.y LIKE ... ESCAPE)
            self.next()
            node = (tok[1], node, self._arith())
            if self.peek() == ("id", "escape"):
                self.next()
                esc = self.expect("str")[1]
                if len(esc) != 1:
                    raise SQLError("ESCAPE needs a single character")
                node = node + (esc,)
        elif tok == ("kw", "in"):
            self.next()
            self.expect("op", "(")
            if self.peek() == ("kw", "select"):
                sub = self.select_stmt()
                self.expect("op", ")")
                node = ("insub", node, sub)
            else:
                vals = [self._arith()]
                while self.accept("op", ","):
                    vals.append(self._arith())
                self.expect("op", ")")
                node = ("in", node, vals)
        elif tok == ("kw", "between"):
            self.next()
            lo = self._arith()
            self.expect("kw", "and")
            hi = self._arith()
            node = ("between", node, lo, hi)
        elif tok[0] == "op" and tok[1] in ("=", "!=", "<>", "<", "<=", ">", ">="):
            op = self.next()[1]
            node = ("cmp", "!=" if op == "<>" else op, node, self._arith())
        else:
            return node
        return ("not", node) if neg else node

    def _arith(self):
        node = self._term()
        while self.peek()[0] == "op" and self.peek()[1] in ("+", "-"):
            op = self.next()[1]
            node = ("bin", op, node, self._term())
        return node

    def _term(self):
        node = self._factor()
        while self.peek()[0] == "op" and self.peek()[1] in ("*", "/", "%"):
            op = self.next()[1]
            node = ("bin", op, node, self._factor())
        return node

    def _factor(self):
        tok = self.next()
        if tok[0] == "num":
            return ("lit", tok[1])
        if tok[0] == "str":
            return ("lit", tok[1])
        if tok == ("kw", "null"):
            return ("lit", None)
        if tok == ("op", "-"):
            return ("neg", self._factor())
        if tok == ("op", "("):
            if self.peek() == ("kw", "select"):
                # scalar subquery: resolved eagerly to a literal (must
                # return exactly one column and at most one row)
                sub = self.select_stmt()
                self.expect("op", ")")
                return ("scalarsub", sub)
            node = self.expr()
            self.expect("op", ")")
            return node
        if tok == ("kw", "case"):
            # CASE — the SQLite-dialect escape-hatch surface the reference
            # reaches via ogrsqliteexecutesql.cpp (swq itself has no CASE).
            # Searched form: CASE WHEN cond THEN v ... [ELSE e] END;
            # simple form: CASE base WHEN x THEN v ... [ELSE e] END.
            base = None
            if self.peek() != ("kw", "when"):
                base = self.expr()
            arms = []
            while self.accept("kw", "when"):
                cond = self.expr()
                self.expect("kw", "then")
                # ("when", cond, val) so the generic tree walkers
                # (_columns_of/_find_aggs/_substitute_*) recurse into BOTH
                arms.append(("when", cond, self.expr()))
            if not arms:
                raise SQLError("CASE needs at least one WHEN arm")
            default = self.expr() if self.accept("kw", "else") else None
            self.expect("kw", "end")
            return ("case", base, arms, default)
        if tok[0] == "kw" and tok[1] in ("count", "sum", "avg", "min", "max"):
            self.expect("op", "(")
            if tok[1] == "count" and self.accept("op", "*"):
                self.expect("op", ")")
                return ("agg", "count", ("lit", 1))
            if self.accept("kw", "distinct"):
                # swq's distinct_flag (ogr/ogr_swq.h) is COUNT-only
                if tok[1] != "count":
                    raise SQLError("DISTINCT is only supported in COUNT()")
                arg = self.expr()
                self.expect("op", ")")
                return ("agg", "count_distinct", arg)
            arg = self.expr()
            self.expect("op", ")")
            return ("agg", tok[1], arg)
        if tok == ("kw", "cast"):
            # CAST(expr AS type[(n)]) — swq CAST (ogr/swq_op_general.cpp)
            self.expect("op", "(")
            arg = self.expr()
            self.expect("kw", "as")
            ty = self.next()
            if ty[0] not in ("id", "kw"):
                raise SQLError(f"bad CAST type {ty}")
            if self.accept("op", "("):  # character(n) width — parsed, ignored
                self.expect("num")
                self.expect("op", ")")
            self.expect("op", ")")
            return ("cast", arg, ty[1])
        if tok[0] == "id":
            if tok[1] in ("stddev_pop", "stddev_samp") and self.peek() == ("op", "("):
                # swq's STDDEV_POP/STDDEV_SAMP aggregates (ogr/ogr_swq.h:67-75)
                self.next()
                arg = self.expr()
                self.expect("op", ")")
                return ("agg", tok[1], arg)
            if tok[1] in _STR_FUNCS and self.peek() == ("op", "("):
                self.next()
                args = []
                if self.peek() != ("op", ")"):
                    args.append(self.expr())
                    while self.accept("op", ","):
                        args.append(self.expr())
                self.expect("op", ")")
                return ("fn", tok[1], args)
            if self.peek() == ("op", ".") and self.peek(1)[0] == "id":
                self.next()
                col = self.next()[1]
                return ("qcol", tok[1], col)
            return ("col", tok[1])
        if tok == ("kw", "union"):
            raise SQLError("OGR SQL subset: UNION is not supported")
        raise SQLError(f"unexpected token {tok}")

    def select_stmt(self) -> dict:
        """SELECT ... [joins] [WHERE] [GROUP BY] [HAVING] [ORDER BY]
        [LIMIT] — stops at the first token it does not own (so it can be
        used for parenthesized IN-subqueries)."""
        p = self
        p.expect("kw", "select")
        distinct = p.accept("kw", "distinct")
        select = []
        star = False
        if p.peek() == ("op", "*") and p.peek(1) == ("kw", "from"):
            p.next()
            star = True
        else:
            while True:
                e = p.expr()
                alias = None
                if p.accept("kw", "as"):
                    alias = p.expect("id")[1]
                select.append((e, alias))
                if not p.accept("op", ","):
                    break
        p.expect("kw", "from")
        table = p.expect("id")[1]
        alias = p.table_alias() or table
        # OGR SQL secondary-table joins: each is ON a1.f1 = a2.f2 where one
        # side names the NEW instance's alias and the other any instance
        # joined so far (the dialect's JOIN is a left join — ogr_sql.html,
        # ogr_gensql.cpp). Table aliases (swq table_def as_clause) allow
        # SELF-JOINS: the same table may appear twice under distinct
        # aliases; qualifiers always name the ALIAS (standard SQL — an
        # aliased table's name is no longer a valid qualifier).
        joins = []
        seen_aliases = {alias}
        while True:
            if p.accept("kw", "left"):
                p.expect("kw", "join")
            elif not p.accept("kw", "join"):
                break
            jtable = p.expect("id")[1]
            jalias = p.table_alias() or jtable
            if jalias in seen_aliases:
                raise SQLError(
                    f"duplicate table alias {jalias!r} (self-joins need "
                    "distinct aliases)"
                )
            p.expect("kw", "on")
            lhs = p.expr()
            if lhs[0] != "cmp" or lhs[1] != "=" \
                    or lhs[2][0] != "qcol" or lhs[3][0] != "qcol":
                raise SQLError("JOIN condition must be <t1>.<col> = <t2>.<col>")
            sides = {lhs[2][1]: lhs[2][2], lhs[3][1]: lhs[3][2]}
            if len(sides) != 2 or jalias not in sides \
                    or not (set(sides) - {jalias}) <= seen_aliases:
                raise SQLError(
                    f"JOIN condition must reference {jalias} and an "
                    f"already-joined table ({sorted(seen_aliases)})"
                )
            left_al = next(t for t in sides if t != jalias)
            joins.append({
                "table": jtable,
                "alias": jalias,
                "left_alias": left_al,
                "left_col": sides[left_al],
                "right_col": sides[jalias],
            })
            seen_aliases.add(jalias)
        where = group_by = having = None
        order_by = []
        limit = None
        if p.accept("kw", "where"):
            where = p.expr()
        if p.accept("kw", "group"):
            # GROUP BY accepts full expressions (and select aliases):
            # non-column keys become hidden staged group columns
            p.expect("kw", "by")
            group_by = [p.expr()]
            while p.accept("op", ","):
                group_by.append(p.expr())
        if p.accept("kw", "having"):
            if group_by is None:
                raise SQLError("HAVING requires GROUP BY")
            having = p.expr()
        if p.accept("kw", "order"):
            p.expect("kw", "by")
            while True:
                # ORDER BY accepts a column/alias name, a 1-based ordinal
                # (ORDER BY 2), or a full expression (computed as a hidden
                # sort key and dropped after the sort)
                e = p.expr()
                if e[0] == "col":
                    key = e[1]
                elif e[0] == "lit" and isinstance(e[1], int):
                    key = ("ord", e[1])
                else:
                    key = e
                desc = False
                if p.accept("kw", "desc"):
                    desc = True
                else:
                    p.accept("kw", "asc")
                order_by.append((key, desc))
                if not p.accept("op", ","):
                    break
        offset = None
        if p.accept("kw", "limit"):
            limit = int(p.expect("num")[1])
            if p.accept("kw", "offset"):
                # swq_select carries LIMIT/OFFSET (ogr/ogr_swq.h:480);
                # OFFSET without LIMIT is rejected at plan time
                offset = int(p.expect("num")[1])
        elif p.accept("kw", "offset"):
            offset = int(p.expect("num")[1])
        return {
            "select": select, "star": star, "distinct": distinct,
            "table": table, "alias": alias, "joins": joins, "where": where,
            "group_by": group_by, "having": having,
            "order_by": order_by, "limit": limit, "offset": offset,
        }


def parse(sql: str) -> dict:
    """Parse a SELECT into {select, distinct, table, joins, where,
    group_by, having, order_by, limit}; a UNION [ALL] chain parses into
    {"union": [stmt, ...], "union_all": [bool, ...], "order_by", "limit"}
    where the trailing ORDER BY / LIMIT (written inside the last member,
    as in standard SQL) applies to the combined result."""
    p = _Parser(_tokenize(sql))
    q = p.select_stmt()
    members, alls = [q], []
    while p.accept("kw", "union"):
        alls.append(p.accept("id", "all"))
        members.append(p.select_stmt())
    if p.peek()[0] != "eof":
        raise SQLError(f"trailing tokens at {p.peek()}")
    if len(members) == 1:
        return q
    for m in members[:-1]:
        if m["order_by"] or m["limit"] is not None:
            raise SQLError("ORDER BY/LIMIT inside a UNION member "
                           "(only the trailing one applies to the union)")
    tail = members[-1]
    order_by, limit, offset = tail["order_by"], tail["limit"], tail["offset"]
    tail["order_by"], tail["limit"], tail["offset"] = [], None, None
    return {
        "union": members,
        "union_all": [bool(a) for a in alls],
        "order_by": order_by,
        "limit": limit,
        "offset": offset,
    }


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def _like_to_re(pattern: str, ci: bool = False,
                esc: str | None = None) -> re.Pattern:
    out = []
    pending_escape = False
    for ch in pattern:
        if pending_escape:
            out.append(re.escape(ch))
            pending_escape = False
        elif esc is not None and ch == esc:
            pending_escape = True
        elif ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    flags = re.DOTALL | (re.IGNORECASE if ci else 0)
    return re.compile("^" + "".join(out) + "$", flags)


def _static_numeric(node, df) -> bool:
    """True when the expression can only produce numbers or NULL, decided
    from the AST plus the (batch-stable) column schema — never from row
    values, so every batch of a query agrees on the dtype."""
    if not isinstance(node, tuple):
        return False
    k = node[0]
    if k == "lit":
        return node[1] is None or isinstance(node[1], (int, float))
    if k == "col":
        return (node[1] in df.columns
                and np.issubdtype(df[node[1]].dtype, np.number))
    if k == "pre":
        return np.issubdtype(np.asarray(node[1]).dtype, np.number)
    if k == "neg":
        return _static_numeric(node[1], df)
    if k == "bin":
        return (_static_numeric(node[2], df)
                and _static_numeric(node[3], df))
    if k == "cast":
        return node[2] in ("integer", "int", "bigint", "float", "double",
                           "numeric", "real")
    if k == "agg":
        if node[1] in ("min", "max"):
            return _static_numeric(node[2], df)
        return True  # count/sum/avg/stddev are numeric by construction
    if k == "case":
        return (all(_static_numeric(v, df) for _, _, v in node[2])
                and (node[3] is None or _static_numeric(node[3], df)))
    if k == "fn":
        if node[1] == "length":
            return True
        if node[1] == "nullif":
            return _static_numeric(node[2][0], df)
        if node[1] == "coalesce":
            return all(_static_numeric(a, df) for a in node[2])
    return False


#: OGR SQL special fields (ogr/ogrfeaturequery.cpp:37-38) — computed from
#: the layer's WKB geometry column when no real column shadows the name.
_SPECIAL_FIELDS = {"ogr_geometry", "ogr_geom_wkt", "ogr_geom_area"}

_WKB_TYPE_NAMES = {
    1: "POINT", 2: "LINESTRING", 3: "POLYGON", 4: "MULTIPOINT",
    5: "MULTILINESTRING", 6: "MULTIPOLYGON", 7: "GEOMETRYCOLLECTION",
    8: "CIRCULARSTRING", 9: "COMPOUNDCURVE", 10: "CURVEPOLYGON",
    11: "MULTICURVE", 12: "MULTISURFACE",
}


def _ogr_special(name: str, df: pd.DataFrame) -> pd.Series:
    """OGR_GEOMETRY (type name), OGR_GEOM_WKT, OGR_GEOM_AREA (0.0 for
    non-areal geometries, like OGR's specialFieldsGetter)."""
    import struct as _struct

    geoms = df["geometry"]
    if name == "ogr_geometry":
        def tname(g):
            if g is None:
                return None
            b = bytes(g)
            t = _struct.unpack_from("<I" if b[0] == 1 else ">I", b, 1)[0]
            return _WKB_TYPE_NAMES.get(t % 1000 if t < 3000 else t,
                                       f"TYPE{t}")

        return pd.Series([tname(g) for g in geoms], index=df.index)
    if name == "ogr_geom_wkt":
        from gdal_ray.geo.wkt import wkb_to_wkt

        return pd.Series(
            [wkb_to_wkt(bytes(g)) if g is not None else None
             for g in geoms],
            index=df.index,
        )
    # ogr_geom_area
    from gdal_ray.geo import geomops as GO
    from gdal_ray.geo.wkb import decode_polygons

    def area(g):
        if g is None:
            return 0.0
        b = bytes(g)
        t = _struct.unpack_from("<I" if b[0] == 1 else ">I", b, 1)[0]
        base = t % 1000 if t < 3000 else t
        if base not in (3, 6, 10, 12):
            return 0.0
        return float(sum(GO.polygon_area(rings)
                         for rings in decode_polygons(b)))

    return pd.Series([area(g) for g in geoms], index=df.index,
                     dtype=np.float64)


def _eval(node, df: pd.DataFrame):
    kind = node[0]
    if kind == "lit":
        return node[1]
    if kind == "col":
        if node[1] not in df.columns:
            if node[1] in _SPECIAL_FIELDS and "geometry" in df.columns:
                return _ogr_special(node[1], df)
            raise SQLError(f"unknown column {node[1]!r}")
        return df[node[1]]
    if kind == "neg":
        return -_eval(node[1], df)
    if kind == "bin":
        a, b = _eval(node[2], df), _eval(node[3], df)
        op = node[1]
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return a / b
        return a % b
    if kind == "cmp":
        a, b = _eval(node[2], df), _eval(node[3], df)
        return {"=": lambda: a == b, "!=": lambda: a != b, "<": lambda: a < b,
                "<=": lambda: a <= b, ">": lambda: a > b, ">=": lambda: a >= b}[node[1]]()
    if kind == "and":
        return _eval(node[1], df) & _eval(node[2], df)
    if kind == "or":
        return _eval(node[1], df) | _eval(node[2], df)
    if kind == "not":
        return ~_eval(node[1], df)
    if kind in ("like", "ilike"):
        pat = _eval(node[2], df)
        if not isinstance(pat, str):
            raise SQLError("LIKE pattern must be a string literal")
        rx = _like_to_re(pat, ci=kind == "ilike",
                         esc=node[3] if len(node) > 3 else None)
        return _eval(node[1], df).astype(str).str.match(rx)
    if kind == "in":
        target = _eval(node[1], df)
        vals = [_eval(v, df) for v in node[2]]
        if not any(isinstance(v, pd.Series) for v in vals):
            return target.isin(vals)
        # IN-list with column operands: OR of per-element equality
        mask = target == vals[0]
        for v in vals[1:]:
            mask = mask | (target == v)
        return mask
    if kind == "inset":
        # IN (SELECT ...) after subquery resolution: node[2] is either the
        # value set itself or a ray.ObjectRef to it (broadcast once via
        # ray.put; plasma-local ray.get per task)
        vals = node[2]
        if not isinstance(vals, (set, frozenset)):
            import ray

            vals = ray.get(vals)
        return _eval(node[1], df).isin(vals)
    if kind == "insettuple":
        # multi-key membership (correlated EXISTS on >1 equality): zip the
        # outer key columns into row tuples and test against the broadcast
        # set of inner key tuples
        vals = node[2]
        if not isinstance(vals, (set, frozenset)):
            import ray

            vals = ray.get(vals)
        cols = [np.asarray(_eval(e, df)) for e in node[1]]
        s = pd.Series(list(zip(*cols)) if len(df) else [], index=df.index)
        return s.isin(vals)
    if kind == "pre":
        return node[1]
    if kind == "lookup":
        # correlated scalar subquery after resolution: broadcast
        # {correlation key -> scalar} map; missing keys are NULL (the
        # empty-scalar semantics)
        mapping = node[2]
        if not isinstance(mapping, dict):
            import ray

            mapping = ray.get(mapping)
        cols = [np.asarray(_eval(e, df)) for e in node[1]]
        if len(cols) == 1:
            keys = pd.Series(cols[0], index=df.index)
        else:
            keys = pd.Series(list(zip(*cols)) if len(df) else [], index=df.index)
        out = keys.map(mapping)
        default = node[3]
        if default is not None:
            miss = ~keys.isin(mapping)
            if miss.any():
                out = out.copy()
                out[miss] = default
            if not out.isna().any():
                vals = np.asarray(list(mapping.values()) or [default])
                if np.issubdtype(vals.dtype, np.integer):
                    out = out.astype(vals.dtype)
        return out
    if kind == "anyof":
        # nested-loop EXISTS (non-equality correlation): one disjunct per
        # materialized inner row, each evaluated vectorized over the outer
        # batch; iterative OR-fold keeps recursion depth flat
        m = np.zeros(len(df), dtype=bool)
        for t in node[1]:
            v = _eval(t, df)
            if isinstance(v, pd.Series):
                v = v.fillna(False).to_numpy(dtype=bool)
            else:
                v = np.full(len(df), bool(v))
            m |= v
            if m.all():
                break
        return pd.Series(m, index=df.index)
    if kind == "between":
        v = _eval(node[1], df)
        return (v >= _eval(node[2], df)) & (v <= _eval(node[3], df))
    if kind == "isnull":
        return _eval(node[1], df).isna()
    if kind == "cast":
        v = _eval(node[1], df)
        ty = node[2]
        if not isinstance(v, pd.Series):
            v = pd.Series(np.repeat(v, len(df)), index=df.index)
        if ty in ("integer", "int", "bigint"):
            return v.astype(np.int64)
        if ty in ("float", "double", "numeric", "real"):
            return v.astype(np.float64)
        if ty in ("character", "varchar", "string", "text"):
            return v.astype(str)
        raise SQLError(f"unsupported CAST type {ty!r}")
    if kind == "case":
        base, arms, default = node[1], node[2], node[3]

        def as_series(v):
            if isinstance(v, pd.Series):
                return v
            return pd.Series([v] * len(df), index=df.index, dtype=object)

        base_v = _eval(base, df) if base is not None else None
        out = (as_series(_eval(default, df)) if default is not None
               else pd.Series([None] * len(df), index=df.index,
                              dtype=object))
        taken = pd.Series(False, index=df.index)
        for _, cond, val in arms:
            if base_v is not None:
                m = base_v == _eval(cond, df)
            else:
                m = _eval(cond, df)
            m = np.asarray(m)
            if m.ndim == 0:
                m = np.full(len(df), bool(m))
            mask = pd.Series(m, index=df.index, dtype=bool) & ~taken
            if mask.any():
                out = out.astype(object)
                out[mask] = as_series(_eval(val, df))[mask]
            taken |= mask
        # The output dtype must be decided STATICALLY (AST + schema), not
        # from batch data: an all-NULL batch has nothing to sniff, and a
        # per-batch lift would give different blocks different dtypes.
        if _static_numeric(node, df):
            return pd.to_numeric(out)
        return out
    if kind == "fn":
        name, args = node[1], [_eval(a, df) for a in node[2]]

        def _s(v):
            return v.astype(str) if isinstance(v, pd.Series) else str(v)

        if name == "concat":
            out = _s(args[0])
            for a in args[1:]:
                out = out + _s(a)
            return out
        if name == "upper":
            return _s(args[0]).str.upper()
        if name == "lower":
            return _s(args[0]).str.lower()
        if name == "length":
            return _s(args[0]).str.len().astype(np.int64)
        if name == "trim":
            return _s(args[0]).str.strip()
        if name == "substr":
            # OGR SUBSTR is 1-based (swq_op_general.cpp SUBSTR); start and
            # length may themselves be column expressions (per-row bounds)
            s = _s(args[0])
            start = args[1] - 1
            ln = args[2] if len(node[2]) >= 3 else None
            if isinstance(start, pd.Series) or isinstance(ln, pd.Series):
                st = start if isinstance(start, pd.Series) else pd.Series(
                    np.full(len(s), start), index=s.index
                )
                if ln is None:
                    return pd.Series(
                        [v[int(b):] for v, b in zip(s, st)], index=s.index
                    )
                lns = ln if isinstance(ln, pd.Series) else pd.Series(
                    np.full(len(s), ln), index=s.index
                )
                return pd.Series(
                    [v[int(b):int(b) + int(n)] for v, b, n in zip(s, st, lns)],
                    index=s.index,
                )
            if ln is not None:
                return s.str.slice(int(start), int(start) + int(ln))
            return s.str.slice(int(start))
        if name == "coalesce":
            # first non-NULL argument per row (SQLite-dialect surface)
            out = args[0]
            if not isinstance(out, pd.Series):
                out = pd.Series([out] * len(df), index=df.index)
            for a in args[1:]:
                miss = out.isna()
                if not miss.any():
                    break
                fill = (a[miss] if isinstance(a, pd.Series)
                        else pd.Series([a] * int(miss.sum()),
                                       index=out.index[miss]))
                out = out.copy()
                out[miss] = fill
            if out.dtype == object and _static_numeric(node, df):
                return pd.to_numeric(out)
            return out
        if name == "nullif":
            # NULL where a == b, else a (SQLite-dialect surface)
            a, b = args[0], args[1]
            if not isinstance(a, pd.Series):
                a = pd.Series([a] * len(df), index=df.index)
            eq = a == b
            out = a.astype(object).copy()
            out[np.asarray(eq, dtype=bool)] = None
            if _static_numeric(node[2][0], df):
                return pd.to_numeric(out)
            return out
        if name == "hstore_get_value":
            # HSTORE_GET_VALUE(col, 'key') — swq's third string function
            # (ogr/ogr_swq.h SWQ_HSTORE_GET_VALUE). Unique hstore strings
            # parse once per batch (memoized), so repeated tag blobs cost
            # one scan each.
            hs, key = args[0], args[1]
            if isinstance(hs, pd.Series):
                kf = (key if not isinstance(key, pd.Series) else None)
                if kf is not None:
                    cache = {u: hstore_get_value(u, kf)
                             for u in pd.unique(hs.dropna())}
                    return hs.map(cache)
                return pd.Series(
                    [hstore_get_value(h, k) for h, k in zip(hs, key)],
                    index=hs.index)
            return hstore_get_value(
                hs, key if not isinstance(key, pd.Series) else None)
        raise SQLError(f"unknown function {name!r}")
    if kind == "agg":
        raise SQLError("aggregate used outside the SELECT list")
    raise SQLError(f"bad node {node!r}")


def _mask(df: pd.DataFrame, node) -> np.ndarray:
    """A WHERE/HAVING predicate's row mask; a scalar (e.g. a folded
    non-correlated EXISTS) keeps or drops the whole batch."""
    return np.broadcast_to(np.asarray(_eval(node, df), dtype=bool), (len(df),))


def _columns_of(node, acc: set):
    if not isinstance(node, tuple):
        return acc
    if node[0] == "col":
        acc.add(node[1])
    if node[0] == "qcol":
        acc.add(node[2])
        return acc
    for ch in node[1:]:
        if isinstance(ch, tuple):
            _columns_of(ch, acc)
        elif isinstance(ch, list):
            for c in ch:
                _columns_of(c, acc)
    return acc


def _dequalify(node, imaps: dict):
    """Rewrite ("qcol", alias, c) -> ("col", internal_name), validating the
    alias and the column against that instance's schema. ``imaps`` maps
    each FROM/JOIN instance alias to its {original column -> internal
    name} map (internal names differ from the original only when a joined
    instance's column collides with one already in scope — the self-join
    case, where the later instance's column becomes ``<alias>_<col>``)."""
    if not isinstance(node, tuple):
        return node
    if node[0] == "qcol":
        if node[1] not in imaps:
            raise SQLError(
                f"unknown table qualifier {node[1]!r} (if this is an "
                "outer table: correlated subqueries may reference the "
                "IMMEDIATELY enclosing query only — re-correlate through "
                "the middle query's columns, e.g. bind the outer key to "
                "a middle-table column first)")
        if node[2] not in imaps[node[1]]:
            raise SQLError(f"unknown column {node[1]}.{node[2]}")
        return ("col", imaps[node[1]][node[2]])
    out = [node[0]]
    for ch in node[1:]:
        if isinstance(ch, tuple):
            out.append(_dequalify(ch, imaps))
        elif isinstance(ch, list):
            out.append([_dequalify(c, imaps) for c in ch])
        else:
            out.append(ch)
    return tuple(out)


def _find_aggs(node, acc: list):
    if not isinstance(node, tuple):
        return acc
    if node[0] == "agg":
        acc.append(node)
        return acc
    for ch in node[1:]:
        if isinstance(ch, tuple):
            _find_aggs(ch, acc)
        elif isinstance(ch, list):
            for c in ch:
                _find_aggs(c, acc)
    return acc


def _substitute_aggs(node, sub: dict):
    """Replace each ("agg", ...) node by ("pre", series) from ``sub``
    (keyed by id), so the full _eval grammar works over aggregated rows
    (HAVING predicates, CAST/compare over aggregates, ...)."""
    if not isinstance(node, tuple):
        return node
    if node[0] == "agg":
        return ("pre", sub[id(node)])
    out = [node[0]]
    for ch in node[1:]:
        if isinstance(ch, tuple):
            out.append(_substitute_aggs(ch, sub))
        elif isinstance(ch, list):
            out.append([_substitute_aggs(c, sub) for c in ch])
        else:
            out.append(ch)
    return tuple(out)


def _replace_subtree(node, target, repl):
    """Replace every subtree structurally equal to ``target`` with
    ``repl`` (GROUP BY expression keys substituted back into select /
    HAVING / hidden-sort expressions)."""
    if node == target:
        return repl
    if not isinstance(node, tuple):
        return node
    out = [node[0]]
    for ch in node[1:]:
        if isinstance(ch, tuple):
            out.append(_replace_subtree(ch, target, repl))
        elif isinstance(ch, list):
            out.append([_replace_subtree(c, target, repl) for c in ch])
        else:
            out.append(ch)
    return tuple(out)


def _conjuncts(node) -> list:
    """Split an expression into its top-level AND terms."""
    if isinstance(node, tuple) and node[0] == "and":
        return _conjuncts(node[1]) + _conjuncts(node[2])
    return [node]


def _and_all(terms: list):
    node = terms[0]
    for t in terms[1:]:
        node = ("and", node, t)
    return node


def _substitute_aliases(node, amap: dict, real_cols: set):
    """Replace ("col", alias) with the aliased select expression (HAVING /
    ORDER-BY-expression alias references). A real table column of the same
    name wins over the alias, per standard SQL."""
    if not isinstance(node, tuple):
        return node
    if node[0] == "col" and node[1] in amap and node[1] not in real_cols:
        return amap[node[1]]
    out = [node[0]]
    for ch in node[1:]:
        if isinstance(ch, tuple):
            out.append(_substitute_aliases(ch, amap, real_cols))
        elif isinstance(ch, list):
            out.append([_substitute_aliases(c, amap, real_cols) for c in ch])
        else:
            out.append(ch)
    return tuple(out)


def _has_outer_ref(node, sub_tables: set) -> bool:
    """True if the expression references a table qualifier outside the
    subquery's own FROM/JOIN tables (i.e. a correlated outer column)."""
    if not isinstance(node, tuple):
        return False
    if node[0] == "qcol":
        return node[1] not in sub_tables
    for ch in node[1:]:
        if isinstance(ch, tuple) and _has_outer_ref(ch, sub_tables):
            return True
        if isinstance(ch, list) and any(
            _has_outer_ref(c, sub_tables) for c in ch if isinstance(c, tuple)
        ):
            return True
    return False


def _split_correlation(sub: dict, outer_imaps: dict, what: str,
                       allow_extra: bool = False):
    """Split a subquery's WHERE into correlation pairs, local terms and
    (when ``allow_extra``) non-equality correlated terms. A correlation
    pair is a top-level equality conjunct ``<outer_alias>.<col> =
    <inner expr>`` (outer refs must be alias-qualified); any other form
    of outer reference raises unless ``allow_extra`` collects it. Outer
    refs resolve through the OUTER query's instance maps, so they land on
    the right column even when the outer side renamed it (self-join)."""
    sub_tables = {sub.get("alias", sub["table"])} | {
        j.get("alias", j["table"]) for j in sub["joins"]
    }
    corr, local, extra = [], [], []
    for term in (_conjuncts(sub["where"]) if sub["where"] is not None else []):
        if term[0] == "cmp" and term[1] == "=":
            a, b = term[2], term[3]
            hit = False
            for outer, inner in ((a, b), (b, a)):
                if (
                    isinstance(outer, tuple) and outer[0] == "qcol"
                    and outer[1] not in sub_tables
                    and not _has_outer_ref(inner, sub_tables)
                ):
                    corr.append((_dequalify(outer, outer_imaps), inner))
                    hit = True
                    break
            if hit:
                continue
        if _has_outer_ref(term, sub_tables):
            if allow_extra:
                extra.append(term)
                continue
            raise SQLError(
                f"correlated {what} supports only top-level "
                "<outer>.<col> = <inner expr> equality conjuncts"
            )
        local.append(term)
    return corr, local, extra, sub_tables


# inner-row cap for the nested-loop fallback (non-equality correlation):
# the inner side is materialized on the driver and re-evaluated per outer
# batch, so it must stay a bounded small side (OGR's executor shape)
_NL_CAP = 10_000


def _inner_refs(node, sub_tables: set, acc: list):
    """Collect inner column references of a correlated extra term: bare
    ("col", c) nodes and ("qcol", inner_alias, c) nodes (in AST order,
    deduplicated by the caller). Outer-qualified refs are skipped."""
    if not isinstance(node, tuple):
        return acc
    if node[0] == "col":
        acc.append(node)
        return acc
    if node[0] == "qcol":
        if node[1] in sub_tables:
            acc.append(node)
        return acc
    for ch in node[1:]:
        if isinstance(ch, tuple):
            _inner_refs(ch, sub_tables, acc)
        elif isinstance(ch, list):
            for c in ch:
                _inner_refs(c, sub_tables, acc)
    return acc


def _bind_inner(node, binding: dict, outer_imaps: dict):
    """Rewrite a correlated extra term for one inner row: inner refs
    become literals from ``binding`` (keyed by the ref node), outer
    qcols dequalify through the outer instance maps."""
    if not isinstance(node, tuple):
        return node
    if node in binding:
        return ("lit", binding[node])
    if node[0] == "qcol":
        return _dequalify(node, outer_imaps)
    out = [node[0]]
    for ch in node[1:]:
        if isinstance(ch, tuple):
            out.append(_bind_inner(ch, binding, outer_imaps))
        elif isinstance(ch, list):
            out.append([_bind_inner(c, binding, outer_imaps) for c in ch])
        else:
            out.append(ch)
    return tuple(out)


def _resolve_exists(sub: dict, sf_dir: str, outer_imaps: dict):
    """Compile [NOT] EXISTS (SELECT ...). Non-correlated: run with LIMIT 1
    and fold to a boolean. Correlated via top-level equality conjuncts
    ``<outer_t>.<col> = <inner expr>`` (outer refs must be table-qualified):
    run the subquery projected to its inner key exprs under the remaining
    local predicates, materialize the distinct key set on the driver
    (bounded small side, like OGR's executor) and broadcast it as a
    semi-filter on the outer keys. NON-EQUALITY correlated conjuncts
    (``o.price > t.price`` etc.) fall back to a bounded broadcast
    nested loop: the inner side (local predicates applied, projected to
    the referenced columns, deduplicated, capped at 10k rows) binds one
    ("anyof", ...) disjunct per inner row, each evaluated VECTORIZED over
    the outer batch — the reference's per-row nested-loop executor shape,
    batched."""
    corr, local, extra, sub_tables = _split_correlation(
        sub, outer_imaps, "EXISTS", allow_extra=True
    )
    if not corr and not extra:
        n = _plan(sub, sf_dir).limit(1).count()
        return ("pre", np.bool_(n > 0))
    if extra:
        refs = []
        for t in extra:
            _inner_refs(t, sub_tables, refs)
        for _, inner in corr:
            _inner_refs(inner, sub_tables, refs)
        refs = list(dict.fromkeys(refs))  # dedup, keep order
        sub2 = dict(
            sub,
            select=[(r, f"__e{i}") for i, r in enumerate(refs)],
            star=False, distinct=True,
            where=_and_all(local) if local else None,
            group_by=None, having=None, order_by=[], limit=None, offset=None,
        )
        rows = _plan(sub2, sf_dir).to_pandas()
        if len(rows) > _NL_CAP:
            raise SQLError(
                "correlated EXISTS with non-equality terms materializes "
                f"the inner side; it returned {len(rows)} distinct rows "
                f"(> cap {_NL_CAP})"
            )
        disjuncts = []
        for tup in rows.itertuples(index=False, name=None):
            binding = dict(zip(refs, tup))
            conj = [
                ("cmp", "=", o, _bind_inner(inner, binding, outer_imaps))
                for o, inner in corr
            ] + [_bind_inner(t, binding, outer_imaps) for t in extra]
            disjuncts.append(_and_all(conj))
        return ("anyof", disjuncts)
    sub2 = dict(
        sub,
        select=[(inner, f"__k{i}") for i, (_, inner) in enumerate(corr)],
        star=False,
        distinct=False,
        where=_and_all(local) if local else None,
        group_by=None, having=None, order_by=[], limit=None, offset=None,
    )
    keys_df = _plan(sub2, sf_dir).to_pandas().dropna()
    if len(corr) == 1:
        vals = frozenset(keys_df.iloc[:, 0].tolist())
        return ("inset", corr[0][0], vals)
    vals = frozenset(map(tuple, keys_df.itertuples(index=False, name=None)))
    return ("insettuple", [o for o, _ in corr], vals)


def _resolve_subqueries(node, sf_dir: str, outer_imaps: dict):
    """Run each ("insub", expr, subquery) / ("scalarsub", subquery) /
    ("exists", subquery) eagerly and replace it with a broadcastable
    filter or literal. Subquery results are materialized on the driver
    (bounded small sides, like OGR's executor) and broadcast via ray.put
    when large."""
    if not isinstance(node, tuple):
        return node
    if node[0] == "insub":
        sub = node[2]
        if len(sub["select"]) != 1 or sub["star"]:
            raise SQLError("IN-subquery must select exactly one column")
        expr = _resolve_subqueries(node[1], sf_dir, outer_imaps)
        corr, local, _, _ = _split_correlation(sub, outer_imaps, "IN-subquery")
        if corr:
            # correlated IN: membership of (value, outer keys...) tuples
            # against the subquery's (select col, inner keys...) rows —
            # the same broadcast semi-filter shape as correlated EXISTS
            sub2 = dict(
                sub,
                select=[sub["select"][0]] + [
                    (inner, f"__k{i}") for i, (_, inner) in enumerate(corr)
                ],
                star=False, distinct=False,
                where=_and_all(local) if local else None,
                group_by=None, having=None, order_by=[], limit=None,
                offset=None,
            )
            keys_df = _plan(sub2, sf_dir).to_pandas().dropna()
            vals = frozenset(
                map(tuple, keys_df.itertuples(index=False, name=None))
            )
            return ("insettuple", [expr] + [o for o, _ in corr], vals)
        vals_df = _plan(sub, sf_dir).to_pandas()
        vals = frozenset(vals_df.iloc[:, 0].dropna().tolist())
        if len(vals) > 50_000:
            import ray

            return ("inset", expr, ray.put(vals))
        return ("inset", expr, vals)
    if node[0] == "scalarsub":
        sub = node[1]
        if len(sub["select"]) != 1 or sub["star"]:
            raise SQLError("scalar subquery must select exactly one column")
        corr, local, _, _ = _split_correlation(
            sub, outer_imaps, "scalar subquery"
        )
        if corr:
            # correlated scalar subquery ``(SELECT agg(...) FROM t2 WHERE
            # t2.k = t.k ...)``: group the inner by its correlation keys,
            # evaluate the scalar select per group, broadcast the
            # {key tuple -> value} map and look outer keys up per batch
            # (missing keys yield NULL — empty scalar semantics)
            sel, _ = sub["select"][0]
            has_agg = bool(_find_aggs(sel, []))
            sub2 = dict(
                sub,
                select=[(sel, "__v")] + [
                    (inner, f"__k{i}") for i, (_, inner) in enumerate(corr)
                ],
                star=False, distinct=False,
                where=_and_all(local) if local else None,
                group_by=[inner for _, inner in corr] if has_agg else None,
                having=None, order_by=[], limit=None, offset=None,
            )
            kv = _plan(sub2, sf_dir).to_pandas()
            if not has_agg:
                dup = kv.duplicated(subset=[f"__k{i}" for i in range(len(corr))])
                if dup.any():
                    raise SQLError(
                        "correlated scalar subquery returned more than one "
                        "row for some outer key"
                    )
            mapping = {
                (tup[1:] if len(corr) > 1 else tup[1]): tup[0]
                for tup in kv.itertuples(index=False, name=None)
            }
            # outer keys with NO inner rows evaluate the scalar over an
            # empty group: COUNT-family -> 0, other aggregates -> NULL,
            # the enclosing expression applied on top (CAST etc.)
            default = None
            if has_agg:
                subst = {
                    id(a): pd.Series(
                        [0 if a[1] in ("count", "count_distinct") else None]
                    )
                    for a in _find_aggs(sel, [])
                }
                try:
                    d = _eval(_substitute_aggs(sel, subst),
                              pd.DataFrame(index=[0]))
                    d = d.iloc[0] if isinstance(d, pd.Series) else d
                    default = None if pd.isna(d) else d
                except Exception:
                    default = None
            if len(mapping) > 50_000:
                import ray

                return ("lookup", [o for o, _ in corr], ray.put(mapping),
                        default)
            return ("lookup", [o for o, _ in corr], mapping, default)
        df = _plan(sub, sf_dir).limit(2).to_pandas()
        if len(df) > 1:
            raise SQLError("scalar subquery returned more than one row")
        if len(df) == 0:
            return ("lit", None)
        v = df.iloc[0, 0]
        return ("lit", v.item() if hasattr(v, "item") else v)
    if node[0] == "exists":
        return _resolve_exists(node[1], sf_dir, outer_imaps)
    out = [node[0]]
    for ch in node[1:]:
        if isinstance(ch, tuple):
            out.append(_resolve_subqueries(ch, sf_dir, outer_imaps))
        elif isinstance(ch, list):
            out.append(
                [_resolve_subqueries(c, sf_dir, outer_imaps) for c in ch]
            )
        else:
            out.append(ch)
    return tuple(out)


def _limit_offset(ds, limit, offset):
    """LIMIT [OFFSET]: LIMIT streams; OFFSET slices the (bounded)
    limit+offset head on the driver — OFFSET without LIMIT is rejected
    because it would otherwise force an unbounded materialization."""
    if offset:
        if limit is None:
            raise SQLError("OFFSET requires LIMIT in this subset")
        import ray.data as rd

        df = (
            ds.limit(limit + offset)
            .to_pandas()
            .iloc[offset:]
            .reset_index(drop=True)
        )
        return rd.from_pandas(df)
    if limit is not None:
        return ds.limit(limit)
    return ds


def _load_table(source, name: str):
    """Resolve a FROM/JOIN table: ``source`` is either a directory of
    parquet tables (the ExecuteSQL-on-datasource case) or a
    ``{name: Dataset}`` dict (the ``vector sql`` pipeline-step case, where
    the piped layer is table ``input``)."""
    from gdal_ray.sources.corpus import read_parquet_tight as _rpt

    if isinstance(source, dict):
        if name not in source:
            raise SQLError(
                f"unknown table {name!r}; known: {sorted(source)}"
            )
        return source[name]
    path = os.path.join(source, f"{name}.parquet")
    if not os.path.exists(path):
        import glob

        have = sorted(
            os.path.basename(f)[:-8]
            for f in glob.glob(os.path.join(source, "*.parquet"))
        )
        raise SQLError(f"unknown table {name!r}; available: {have}")
    return _rpt(path)


def execute_sql(sql: str, sf_dir):
    """Run an OGR-SQL SELECT against the parquet tables under ``sf_dir``
    (a directory path, or a ``{name: Dataset}`` dict for in-memory
    layers). Returns a ray.data.Dataset (lazy until consumed, except
    IN-subquery value sets which resolve eagerly)."""
    q = parse(sql)
    if "union" in q:
        return _plan_union(q, sf_dir)
    return _plan(q, sf_dir)


def _distinct(ds, names: list):
    """Distinct rows over ``names`` in one bucketed shuffle, as Arrow blocks
    like its 0-row ones (a sort fails over mixed block types)."""
    from gdal_ray.ops.shuffle import bucketed_group_apply

    return bucketed_group_apply(
        ds, names, lambda p: p.drop_duplicates(names), 16
    ).map_batches(lambda t: t.replace_schema_metadata(None), batch_format="pyarrow")


def _plan_union(q: dict, sf_dir: str):
    """UNION [ALL] chain: members plan independently and concatenate with
    Dataset.union (no shuffle); each plain UNION step dedups the
    accumulated result (left-associative, like DuckDB/standard SQL) with
    one bucketed drop-duplicates shuffle. Columns match by POSITION; the
    first member's names win (standard SQL)."""
    parts = [_plan(m, sf_dir) for m in q["union"]]
    names = list(parts[0].schema().names)

    out = parts[0]
    for ds2, is_all in zip(parts[1:], q["union_all"]):
        names2 = list(ds2.schema().names)
        if len(names2) != len(names):
            raise SQLError("UNION members must have the same column count")
        if names2 != names:
            ds2 = ds2.map_batches(
                lambda t: t.rename_columns(names), batch_format="pyarrow"
            )
        out = out.union(ds2)
        if not is_all:
            out = _distinct(out, names)
    for c, _ in q["order_by"]:
        if not isinstance(c, str) or c not in names:
            raise SQLError(f"unknown ORDER BY column {c!r} "
                           "(UNION tails sort by output column name)")
    if q["order_by"]:
        out = out.sort([c for c, _ in q["order_by"]],
                       descending=[d for _, d in q["order_by"]])
    return _limit_offset(out, q["limit"], q.get("offset"))


def _arrow_table(out: dict, passed: dict, schema):
    """``out`` (pandas Series) as an Arrow block; a column passed through
    from input column ``passed[name]`` keeps its ``schema`` type. (A 0-row
    pandas block's object columns have none: Ray's size estimate fails.)"""
    return pa.table({
        n: pa.array(v, type=schema.field(passed[n]).type
                    if passed.get(n) in schema.names else None, from_pandas=True)
        for n, v in out.items()
    })


def _arrow_schema(ds):
    """Arrow schema of a scan (Ray infers it for a parquet read; a
    Dataset of pandas blocks is converted from its first row)."""
    s = ds.schema().base_schema
    if isinstance(s, pa.Schema):
        return s
    return pa.Schema.from_pandas(ds.limit(1).to_pandas(), preserve_index=False)


def _plan(q: dict, sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    from gdal_ray.sources.corpus import read_parquet_tight as _rpt

    ds = _load_table(sf_dir, q["table"])
    primary_cols = list(ds.schema().names)
    # instance maps: one per FROM/JOIN instance alias, {original column ->
    # internal name}. The primary instance keeps natural names; a joined
    # instance's column that collides with one already in scope (the
    # self-join case) is renamed to <alias>_<col> so every internal name
    # is unique across the join result.
    imaps = {q.get("alias", q["table"]): {c: c for c in primary_cols}}
    avail = list(primary_cols)
    taken = set(primary_cols)
    join_scans = []  # (join spec, dataset, {orig -> internal})
    for j in q["joins"]:
        ds2 = _load_table(sf_dir, j["table"])
        al = j.get("alias", j["table"])
        if al in imaps:
            raise SQLError(f"duplicate table alias {al!r}")
        im = {}
        for c in ds2.schema().names:
            ic = c if c not in taken else f"{al}_{c}"
            if ic in taken:
                raise SQLError(f"cannot disambiguate column {c!r} of {al!r}")
            im[c] = ic
            taken.add(ic)
            avail.append(ic)
        imaps[al] = im
        join_scans.append((j, ds2, im))
    q["select"] = [(_dequalify(e, imaps), a) for e, a in q["select"]]
    for key in ("where", "having"):
        if q[key] is not None:
            q[key] = _dequalify(q[key], imaps)
    # HAVING may reference select aliases (substituted before column
    # validation; a real column of the same name wins)
    amap = {a: e for e, a in q["select"] if a}
    if q["having"] is not None:
        q["having"] = _substitute_aliases(q["having"], amap, set(avail))
    for key in ("where", "having"):
        if q[key] is not None:
            q[key] = _resolve_subqueries(q[key], sf_dir, imaps)
    q["select"] = [
        (_resolve_subqueries(e, sf_dir, imaps), a) for e, a in q["select"]
    ]
    if q["star"]:
        q["select"] = [(("col", c), None) for c in avail]
    # data columns (select expressions, WHERE/HAVING, GROUP BY, join keys)
    # must exist in some scanned table; ORDER BY may also name an alias
    data_cols: set = set()
    for e, _ in q["select"]:
        _columns_of(e, data_cols)
    for key in ("where", "having"):
        if q[key] is not None:
            _columns_of(q[key], data_cols)
    out_names = [
        alias or (e[1] if e[0] == "col" else f"expr_{i}")
        for i, (e, alias) in enumerate(q["select"])
    ]
    # normalize ORDER BY: names stay; ordinals resolve to select positions;
    # expressions become hidden __ordN sort keys computed in the projection
    ob_norm, sort_exprs = [], []
    for spec, desc in q["order_by"]:
        if isinstance(spec, str):
            ob_norm.append((spec, desc))
        elif spec[0] == "ord":
            n = spec[1]
            if not 1 <= n <= len(out_names):
                raise SQLError(f"ORDER BY position {n} out of range")
            ob_norm.append((out_names[n - 1], desc))
        else:
            e = _substitute_aliases(
                _dequalify(spec, imaps), amap, set(avail)
            )
            e = _resolve_subqueries(e, sf_dir, imaps)
            name = f"__ord{len(sort_exprs)}"
            sort_exprs.append((name, e))
            ob_norm.append((name, desc))
    q["order_by"] = ob_norm
    # normalize GROUP BY: a plain column groups directly; a select alias
    # substitutes first (DuckDB-style GROUP BY alias); any other
    # expression becomes a hidden __grpN staging column computed per
    # batch, grouped on, and substituted back into structurally-equal
    # select / HAVING / hidden-sort expressions
    grp_exprs = []
    if q["group_by"] is not None:
        group_keys = []
        for k, g in enumerate(q["group_by"]):
            if g[0] == "lit" and isinstance(g[1], int):
                # GROUP BY <ordinal>: the 1-based select position
                if not 1 <= g[1] <= len(q["select"]):
                    raise SQLError(f"GROUP BY position {g[1]} out of range")
                g = q["select"][g[1] - 1][0]
            g = _substitute_aliases(_dequalify(g, imaps), amap, set(avail))
            if _find_aggs(g, []):
                raise SQLError("GROUP BY expression may not contain aggregates")
            g = _resolve_subqueries(g, sf_dir, imaps)
            if g[0] == "col":
                group_keys.append(g[1])
                data_cols.add(g[1])
                continue
            name = f"__grp{k}"
            grp_exprs.append((name, g))
            group_keys.append(name)
            _columns_of(g, data_cols)
            q["select"] = [
                (_replace_subtree(e, g, ("col", name)), a)
                for e, a in q["select"]
            ]
            if q["having"] is not None:
                q["having"] = _replace_subtree(q["having"], g, ("col", name))
            sort_exprs = [
                (n2, _replace_subtree(e2, g, ("col", name)))
                for n2, e2 in sort_exprs
            ]
        q["group_by"] = group_keys
    for _, e in sort_exprs:
        _columns_of(e, data_cols)
    # hidden __grpN group keys are computed in the staging step, not scanned
    data_cols -= {name for name, _ in grp_exprs}
    # OGR special fields compute from the geometry column at eval time
    # unless a real column shadows the name (ogr/ogrfeaturequery.cpp)
    specials = (data_cols & _SPECIAL_FIELDS) - set(avail)
    if specials:
        if "geometry" not in set(avail):
            raise SQLError(
                f"special field(s) {sorted(specials)} need a geometry "
                "column in the scanned table")
        data_cols = (data_cols - specials) | {"geometry"}
    if data_cols - set(avail):
        raise SQLError(f"unknown column(s) {sorted(data_cols - set(avail))}")
    needed = set(data_cols)
    for c, _ in q["order_by"]:
        if c in set(avail):
            needed.add(c)
        elif c not in out_names and not c.startswith("__ord"):
            raise SQLError(f"unknown ORDER BY column {c!r}")
    for j, _, im in join_scans:
        la = j.get("left_alias", q.get("alias", q["table"]))
        if la not in imaps or j["left_col"] not in imaps[la]:
            raise SQLError(f"unknown JOIN key {la}.{j['left_col']}")
        if j["right_col"] not in im:
            raise SQLError(
                f"unknown JOIN key {j.get('alias', j['table'])}.{j['right_col']}"
            )
        needed.add(imaps[la][j["left_col"]])
        needed.add(im[j["right_col"]])

    # push WHERE conjuncts that only touch primary-table columns below the
    # joins (left join keeps every primary row, so this is lossless)
    where = q["where"]
    pre_where = None
    if where is not None and join_scans:
        pre, post = [], []
        for term in _conjuncts(where):
            cols: set = set()
            _columns_of(term, cols)
            (pre if cols <= set(primary_cols) else post).append(term)
        if pre:
            pre_where = _and_all(pre)
            where = _and_all(post) if post else None

    if join_scans:
        from gdal_ray.ops.shuffle import cobucket_join

        lcols = sorted(needed & set(primary_cols))
        pschema = _arrow_schema(ds)
        lschema = pa.schema([pschema.field(c) for c in lcols])
        ds = ds.select_columns(lcols)
        if pre_where is not None:
            pw = pre_where

            def prefilter(batch: pa.Table) -> pa.Table:
                return batch.filter(pa.array(_mask(batch.to_pandas(), pw)))

            ds = ds.map_batches(prefilter, batch_format="pyarrow")
        have = set(lcols)
        for j, ds2, im in join_scans:
            la = j.get("left_alias", q.get("alias", q["table"]))
            lkey = imaps[la][j["left_col"]]
            rkey = im[j["right_col"]]
            if lkey not in have:
                raise SQLError(
                    f"JOIN key {lkey!r} not available before joining "
                    f"{j['table']!r}"
                )
            # needed columns of THIS instance, in internal names; select
            # the original columns and rename (zero-copy) to internal
            rcols = sorted(((needed | {rkey}) & set(im.values())) - have)
            if rkey not in rcols:
                rcols = sorted(set(rcols) | {rkey})
            inv = {ic: c for c, ic in im.items()}
            side = ds2.select_columns([inv[ic] for ic in rcols])
            ren = {inv[ic]: ic for ic in rcols if inv[ic] != ic}
            if ren:
                side = side.rename_columns(ren)
            s2 = _arrow_schema(ds2)
            rschema = pa.schema([s2.field(inv[ic]).with_name(ic) for ic in rcols])
            ds = cobucket_join(
                ds, side, on=(lkey,), right_on=(rkey,), how="left_outer",
                left_schema=lschema, right_schema=rschema,
            )
            # the join keeps the left key and drops the right one
            lschema = pa.schema(list(lschema) + [f for f in rschema if f.name != rkey])
            have |= set(rcols)
    else:
        cols = sorted(needed & set(avail))
        if cols:
            ds = ds.select_columns(cols)
    # ORDER BY columns that are real table columns but not selected ride
    # along hidden through the projection and drop after the sort
    hidden = [
        c for c, _ in q["order_by"] if c in set(avail) and c not in out_names
    ]

    aggs = []
    for e, _ in q["select"]:
        _find_aggs(e, aggs)
    having = q["having"]
    if having is not None:
        _find_aggs(having, aggs)
    for _, e in sort_exprs:
        _find_aggs(e, aggs)
    is_agg = bool(aggs) or q["group_by"] is not None

    select = q["select"]

    if not is_agg:
        def project(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            if where is not None:
                df = df[_mask(df, where)]
            out = {}
            for name, (e, _) in zip(out_names, select):
                v = _eval(e, df)
                out[name] = v if isinstance(v, pd.Series) else pd.Series(
                    [v] * len(df), index=df.index
                )
            for hcol in hidden:
                out[hcol] = df[hcol]
            for sname, se in sort_exprs:
                v = _eval(se, df)
                out[sname] = v if isinstance(v, pd.Series) else pd.Series(
                    np.full(len(df), v), index=df.index
                )
            passed = {n: e[1] for n, (e, _) in zip(out_names, select) if e[0] == "col"}
            passed.update({h: h for h in hidden})
            return _arrow_table(out, passed, batch.schema)

        ds = ds.map_batches(project, batch_format="pyarrow")
        if q["distinct"]:
            ds = _distinct(ds, out_names)
    else:
        group_by = q["group_by"] or []
        # per-select-item plan: each aggregate lands in a staging column.
        # COUNT(col) skips NULLs (swq + DuckDB): stage a notna int and SUM
        # it; only COUNT(*) uses the plain row Count.
        agg_specs = []  # (staging_col, kind, argexpr, count_star)
        for i, a in enumerate(aggs):
            star = a[1] == "count" and a[2] == ("lit", 1)
            agg_specs.append((f"__agg{i}", a[1], a[2], star))

        ge_map = dict(grp_exprs)

        passed = {g: g for g in group_by if g not in ge_map}
        passed.update({cname: arg[1] for cname, kind, arg, star in agg_specs
                       if arg[0] == "col" and not (kind == "count" and not star)})

        def stage(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            if where is not None:
                df = df[_mask(df, where)]
            out = {}
            for g in group_by:
                if g in ge_map:
                    v = _eval(ge_map[g], df)
                    out[g] = v if isinstance(v, pd.Series) else pd.Series(
                        np.full(len(df), v), index=df.index
                    )
                else:
                    out[g] = df[g]
            for cname, kind, arg, star in agg_specs:
                v = _eval(arg, df)
                if not isinstance(v, pd.Series):
                    v = pd.Series(np.full(len(df), v), index=df.index)
                if kind == "count" and not star:
                    v = v.notna().astype(np.int64)
                out[cname] = v
            return _arrow_table(out, passed, batch.schema)

        staged = ds.map_batches(stage, batch_format="pyarrow")
        cd_specs = [s for s in agg_specs if s[1] == "count_distinct"]
        if cd_specs and group_by:
            # COUNT(DISTINCT) under GROUP BY: ONE bucketed shuffle computes
            # every aggregate — hash-bucketing on the group keys puts each
            # group entirely inside one partition, so per-partition pandas
            # aggregation (incl. nunique) is EXACT. This replaces the old
            # aggregate + distinct-groupby + join chain (3 shuffles + a
            # join whose inputs carried schema-less 0-row blocks per
            # surplus hash partition — pyarrow's join rejects a partition
            # fed only those: "No match ... FieldRef").
            from gdal_ray.ops.shuffle import bucketed_group_apply

            def per_bucket(p: pd.DataFrame, specs=tuple(agg_specs),
                           keys=tuple(group_by)) -> pd.DataFrame:
                g = p.groupby(list(keys), sort=False, dropna=False)
                res = g.size().reset_index(name="__sz")[list(keys)]
                for cname, kind, _, star in specs:
                    if kind == "count_distinct":
                        v = g[cname].nunique(dropna=True)
                    elif kind == "count" and star:
                        v = g.size()
                    elif kind in ("count", "sum"):
                        v = g[cname].sum()
                    elif kind == "avg":
                        v = g[cname].mean()
                    elif kind == "min":
                        v = g[cname].min()
                    elif kind == "max":
                        v = g[cname].max()
                    else:  # stddev_pop / stddev_samp
                        v = g[cname].std(ddof=0 if kind == "stddev_pop" else 1)
                    res[cname + "_r"] = v.to_numpy()
                return res

            agged = bucketed_group_apply(
                staged, group_by, per_bucket,
                num_buckets=32,
            )
        else:
            ray_aggs = []
            for cname, kind, _, star in agg_specs:
                if kind == "count_distinct":
                    continue
                if kind == "count" and star:
                    ray_aggs.append(Count(alias_name=cname + "_r"))
                elif kind == "count":
                    ray_aggs.append(Sum(cname, alias_name=cname + "_r"))
                elif kind in ("stddev_pop", "stddev_samp"):
                    from ray.data.aggregate import Std

                    ray_aggs.append(
                        Std(cname, ddof=0 if kind == "stddev_pop" else 1,
                            alias_name=cname + "_r")
                    )
                else:
                    ray_aggs.append(
                        {"sum": Sum, "avg": Mean, "min": Min, "max": Max}[kind](
                            cname, alias_name=cname + "_r"
                        )
                    )
            if not ray_aggs and group_by:
                # aggregate-less GROUP BY still needs every group key row
                ray_aggs.append(Count(alias_name="__base_r"))
            agged = (
                staged.groupby(group_by or None).aggregate(*ray_aggs)
                if group_by
                else (staged.aggregate(*ray_aggs) if ray_aggs else {})
            )
            if not group_by:
                # global aggregate returns a dict; lift back into a Dataset
                row = agged
                agged = rd.from_arrow(
                    pa.table({k: [v] for k, v in row.items()} or {"__base_r": [0]})
                )
            # global COUNT(DISTINCT col): two-stage distinct count, the
            # final (tiny, one row per distinct value count) combine on the
            # driver — no join involved
            for cname, _, _, _ in cd_specs:
                nn = staged.map_batches(
                    lambda df, c=cname: df[df[c].notna()], batch_format="pandas"
                )
                v = nn.groupby(cname).count().count()
                agged = agged.map_batches(
                    lambda df, c=cname, vv=v: df.assign(**{c + "_r": vv}),
                    batch_format="pandas",
                )

        # final projection (and HAVING filter): replace each agg node with
        # its staged result, then evaluate with the full expression grammar
        def finish(df: pd.DataFrame) -> pd.DataFrame:
            # surplus shuffle partitions emit 0-row blocks that may carry
            # the PRE-aggregate schema (or none at all); drop them rather
            # than KeyError on the missing staging columns
            if len(df) == 0 and not {
                c + "_r" for c, _, _, _ in agg_specs
            } <= set(df.columns):
                return pa.table({})
            sub = {}
            for i, (cname, kind, _, _) in enumerate(agg_specs):
                col = df[cname + "_r"]
                if kind == "count_distinct":
                    # left-join misses (all-NULL groups) count as 0
                    col = col.fillna(0).astype(np.int64)
                sub[id(aggs[i])] = col
            if having is not None:
                mask = _eval(_substitute_aggs(having, sub), df)
                df = df[np.asarray(mask, dtype=bool)]
                sub = {k: v[df.index] for k, v in sub.items()}
            out = {}
            for name, (e, _) in zip(out_names, select):
                v = _eval(_substitute_aggs(e, sub), df)
                out[name] = v if isinstance(v, pd.Series) else pd.Series(
                    np.full(len(df), v), index=df.index
                )
            for sname, se in sort_exprs:
                v = _eval(_substitute_aggs(se, sub), df)
                out[sname] = v if isinstance(v, pd.Series) else pd.Series(
                    np.full(len(df), v), index=df.index
                )
            res = pd.DataFrame(out)
            if len(res) == 0:
                # a 0-row object column has no type; pin it to string
                for c in res.columns:
                    if res[c].dtype == object:
                        res[c] = res[c].astype("string")
            # an Arrow block, like the 0-row blocks the shuffles above pass
            # through untouched: a sort fails over mixed block types
            return pa.Table.from_pandas(res, preserve_index=False).replace_schema_metadata(None)

        ds = agged.map_batches(finish, batch_format="pandas")

    if q["order_by"]:
        ds = ds.sort([c for c, _ in q["order_by"]],
                     descending=[d for _, d in q["order_by"]])
    if sort_exprs or (hidden and not is_agg):
        ds = ds.select_columns(out_names)
    return _limit_offset(ds, q["limit"], q.get("offset"))
