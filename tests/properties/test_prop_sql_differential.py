"""Differential test: the SQL engine against stdlib ``sqlite3``.

A seeded hypothesis grammar over the supported subset — WHERE with
NULLs, ``BETWEEN``, ``IN`` and ``LIKE``; inner hash and nested-loop
joins, a hash join's key with a ``BETWEEN`` range the optimizer carries
to its other side; GROUP BY with every aggregate, ``DISTINCT``
included; ORDER BY, DISTINCT and LIMIT — runs each query on both
engines over the same generated tables, with and without the optimizer
and indexes.  Results are compared as multisets, or as sequences when
the ORDER BY is total (it names every output column).

Where the dialects differ the grammar stays inside the common part:

========================  =========================  ==========================
construct                 this engine                SQLite
========================  =========================  ==========================
``NOT`` over a NULL test  two-valued: ``NOT (NULL =  three-valued: NULL, the
                          1)`` is TRUE, row kept     row is dropped
``NULL`` in an ``IN``     never equal: ``1 NOT IN    ``1 NOT IN (2, NULL)`` is
list                      (2, NULL)`` is TRUE        NULL
``/`` on integers         true division              integer division
``LIKE``                  case-sensitive             ASCII case-insensitive
``||`` with a NULL        NULL reads as ``''``       NULL
ints compared with text   Python comparison (may     type-affinity ordering
                          raise)
========================  =========================  ==========================

So ``NOT`` wraps only ``IS NULL``, ``IN`` lists hold no NULL, there is
no ``/`` or ``||``, strings are lower-case, and every column holds one
type.
"""

import sqlite3
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.rdb import ColumnType, Database

TABLES = {
    "t": (("a", ColumnType.INT), ("b", ColumnType.INT), ("c", ColumnType.VARCHAR)),
    "u": (("a", ColumnType.INT), ("e", ColumnType.INT), ("f", ColumnType.VARCHAR)),
}
SMALL_INTS = st.integers(-3, 3)
TEXTS = ["", "a", "ab", "abc", "b", "ba", "cab"]
PATTERNS = ["a%", "%b", "_b%", "ab", "%", "a_c", "%a%", "_"]
CELL = {
    ColumnType.INT: st.one_of(st.none(), SMALL_INTS),
    ColumnType.VARCHAR: st.one_of(st.none(), st.sampled_from(TEXTS)),
}


def table_rows(name):
    return st.lists(
        st.tuples(*(CELL[kind] for _, kind in TABLES[name])), min_size=1, max_size=8
    )


@st.composite
def predicates(draw, ints, texts, depth=0):
    kind = draw(st.sampled_from(
        ["compare", "column", "null", "between", "in", "like", "text"]
        + (["or"] if depth == 0 else [])
    ))
    column = draw(st.sampled_from(ints))
    if kind == "compare":
        op = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        return f"{column} {op} {draw(SMALL_INTS)}"
    if kind == "column":
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        return f"{column} {op} {draw(st.sampled_from(ints))}"
    if kind == "null":
        test = draw(st.sampled_from(["IS NULL", "IS NOT NULL"]))
        negate = "NOT " if draw(st.booleans()) else ""
        return f"{negate}{draw(st.sampled_from(ints + texts))} {test}"
    negate = "NOT " if draw(st.booleans()) else ""
    if kind == "between":
        low, high = draw(SMALL_INTS), draw(SMALL_INTS)
        return f"{column} {negate}BETWEEN {low} AND {high}"
    if kind == "in":
        items = draw(st.lists(SMALL_INTS, min_size=1, max_size=3))
        return f"{column} {negate}IN ({', '.join(map(str, items))})"
    text = draw(st.sampled_from(texts))
    if kind == "like":
        return f"{text} {negate}LIKE '{draw(st.sampled_from(PATTERNS))}'"
    if kind == "text":
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        return f"{text} {op} '{draw(st.sampled_from(TEXTS))}'"
    left = draw(predicates(ints, texts, depth + 1))
    right = draw(predicates(ints, texts, depth + 1))
    return f"({left} OR {right})"


def row_expressions(ints, texts):
    return st.one_of(
        st.sampled_from(ints + texts),
        st.builds("{} + {}".format, st.sampled_from(ints), SMALL_INTS),
        st.builds("{} * {}".format, st.sampled_from(ints), st.sampled_from(ints)),
        st.builds("-{}".format, st.sampled_from(ints)),
    )


def aggregates(ints, texts):
    numeric = st.builds(
        "{}({}{})".format,
        st.sampled_from(["count", "sum", "avg", "min", "max"]),
        st.sampled_from(["", "DISTINCT "]),
        st.sampled_from(ints),
    )
    text = st.builds(
        "{}({})".format, st.sampled_from(["count", "min", "max"]),
        st.sampled_from(texts),
    )
    return st.one_of(st.just("count(*)"), numeric, text)


@st.composite
def queries(draw):
    """``(sql, total_order)``: total when ORDER BY names every output."""
    join = draw(st.sampled_from(["single", "hash", "nested"]))
    ints, texts = ["t.a", "t.b"], ["t.c"]
    conjuncts = []
    if join != "single":
        ints, texts = ints + ["u.a", "u.e"], texts + ["u.f"]
        conjuncts.append("t.a = u.a" if join == "hash" else draw(
            st.sampled_from(["t.b < u.e", "t.b <> u.a", "t.a >= u.e"])
        ))
        if join == "hash" and draw(st.booleans()):
            # a range on one side of the key: the optimizer derives it
            # for the other side, and SQLite checks the answer
            low, high = draw(SMALL_INTS), draw(SMALL_INTS)
            key = draw(st.sampled_from(["t.a", "u.a"]))
            conjuncts.append(f"{key} BETWEEN {low} AND {high}")
    conjuncts += draw(st.lists(predicates(ints, texts), min_size=1, max_size=2))
    sources = "t" if join == "single" else "t, u"
    where = f" WHERE {' AND '.join(conjuncts)}" if conjuncts else ""
    shape = draw(st.sampled_from(["rows", "aggregate", "grouped"]))
    distinct = ""
    if shape == "rows":
        outputs = draw(st.lists(row_expressions(ints, texts), min_size=1, max_size=3))
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        group = ""
    elif shape == "aggregate":
        outputs = draw(st.lists(aggregates(ints, texts), min_size=1, max_size=3))
        group = ""
    else:
        keys = draw(st.lists(st.sampled_from(ints + texts), min_size=1, max_size=2,
                             unique=True))
        outputs = keys + draw(
            st.lists(aggregates(ints, texts), min_size=1, max_size=2)
        )
        group = f" GROUP BY {', '.join(keys)}"
    sql = f"SELECT {distinct}{', '.join(outputs)} FROM {sources}{where}{group}"
    if shape == "aggregate" or not draw(st.booleans()):
        return sql, False
    order = [
        f"{expr}{draw(st.sampled_from(['', ' DESC']))}"
        for expr in draw(st.permutations(outputs))
    ]
    sql += f" ORDER BY {', '.join(order)}"
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 4))}"
    return sql, True


def normalized(rows, ordered):
    rows = [
        tuple(round(v, 9) if isinstance(v, float) else v for v in row)
        for row in rows
    ]
    return rows if ordered else Counter(rows)


def load(t_rows, u_rows, optimizer, indexed):
    db = Database()
    db.optimizer_enabled = optimizer
    lite = sqlite3.connect(":memory:")
    for name, rows in (("t", t_rows), ("u", u_rows)):
        columns = TABLES[name]
        db.create_table(name, list(columns))
        kinds = ", ".join(
            f"{column} {'INTEGER' if kind is ColumnType.INT else 'TEXT'}"
            for column, kind in columns
        )
        lite.execute(f"CREATE TABLE {name} ({kinds})")
        for row in rows:
            db.table(name).insert(row)
        lite.executemany(f"INSERT INTO {name} VALUES (?, ?, ?)", rows)
        if indexed:
            db.sql(f"CREATE INDEX {name}_a ON {name} (a)")
    return db, lite


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    table_rows("t"), table_rows("u"), queries(), st.booleans(), st.booleans()
)
def test_engine_agrees_with_sqlite(t_rows, u_rows, query, optimizer, indexed):
    sql, ordered = query
    db, lite = load(t_rows, u_rows, optimizer, indexed)
    expected = lite.execute(sql).fetchall()
    got = db.sql(sql).rows
    assert normalized(got, ordered) == normalized(expected, ordered), sql
