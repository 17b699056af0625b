"""Property test: the optimizer never changes a query's answer.

For random tables, indexes and WHERE clauses, the optimized plan (index
scans, hash joins, folded constants) must return exactly the rows the
naive logical plan returns.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.rdb import Database

COLUMNS = ["a", "b", "c"]

rows_strategy = st.lists(
    st.tuples(
        st.integers(0, 20),
        st.integers(0, 20),
        st.one_of(st.none(), st.integers(0, 20)),
    ),
    max_size=40,
)

predicate_strategy = st.lists(
    st.tuples(
        st.sampled_from(COLUMNS),
        st.sampled_from(["=", "<", "<=", ">", ">=", "<>"]),
        st.integers(0, 20),
    ),
    min_size=0,
    max_size=3,
)

index_strategy = st.sampled_from(
    [None, ("a",), ("b",), ("a", "b"), ("b", "c")]
)


def build_db(rows, index_columns):
    db = Database()
    db.sql("CREATE TABLE t (a INT, b INT, c INT)")
    table = db.table("t")
    for row in rows:
        table.insert(row)
    if index_columns is not None:
        table.create_index("t_ix", index_columns)
    return db


def where_clause(predicates):
    if not predicates:
        return ""
    conjuncts = [f"{col} {op} {value}" for col, op, value in predicates]
    return " WHERE " + " AND ".join(conjuncts)


def run_both(db, sql, params=None):
    optimized = sorted(db.sql(sql, params).rows, key=repr)
    db.optimizer_enabled = False
    try:
        naive = sorted(db.sql(sql, params).rows, key=repr)
    finally:
        db.optimizer_enabled = True
    return optimized, naive


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, predicates=predicate_strategy, index=index_strategy)
def test_single_table_select_equivalence(rows, predicates, index):
    db = build_db(rows, index)
    sql = f"SELECT a, b, c FROM t{where_clause(predicates)}"
    optimized, naive = run_both(db, sql)
    assert optimized == naive


@settings(max_examples=40, deadline=None)
@given(
    left=rows_strategy,
    right=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=20
    ),
    predicates=predicate_strategy,
    index=index_strategy,
)
def test_join_equivalence(left, right, predicates, index):
    db = build_db(left, index)
    db.sql("CREATE TABLE s (x INT, y INT)")
    table = db.table("s")
    for row in right:
        table.insert(row)
    conjuncts = [f"t.{col} {op} {value}" for col, op, value in predicates]
    where = " AND ".join(["t.a = s.x", *conjuncts])
    sql = f"SELECT t.a, t.b, s.y FROM t, s WHERE {where}"
    optimized, naive = run_both(db, sql)
    assert optimized == naive


@settings(max_examples=40, deadline=None)
@given(
    rows=rows_strategy,
    value=st.integers(-5, 25),
    factor=st.integers(0, 4),
)
def test_constant_folding_equivalence(rows, value, factor):
    db = build_db(rows, None)
    sql = f"SELECT a FROM t WHERE a >= {value} - {factor} * 2"
    optimized, naive = run_both(db, sql)
    assert optimized == naive


small_or_null = st.one_of(st.none(), st.integers(0, 5))


@seed(32)
@settings(max_examples=80, deadline=None)
@given(
    left=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), small_or_null),
        max_size=25,
    ),
    right=st.lists(st.tuples(small_or_null, small_or_null), max_size=25),
    join=st.sampled_from([("t.a", "s.x"), ("t.c", "s.x"), ("s.y", "t.c")]),
    constants=st.lists(
        st.tuples(
            st.sampled_from(["t.a", "t.c", "s.x", "s.y"]),
            small_or_null,
            st.sampled_from(["column first", "constant first", "param"]),
        ),
        min_size=1,
        max_size=2,
    ),
    index=index_strategy,
)
def test_equi_join_with_constant_equalities(left, right, join, constants, index):
    """Equalities inferred across the join (``t.a = s.x AND t.a = 3``
    implies ``s.x = 3``) never change the answer, NULLs included."""
    db = build_db(left, index)
    db.sql("CREATE TABLE s (x INT, y INT)")
    table = db.table("s")
    for row in right:
        table.insert(row)
    conjuncts = [f"{join[0]} = {join[1]}"]
    params = {}
    for number, (column, value, shape) in enumerate(constants):
        if shape == "param":
            params[f"k{number}"] = value
            conjuncts.append(f"{column} = :k{number}")
            continue
        literal = "NULL" if value is None else str(value)
        if shape == "column first":
            conjuncts.append(f"{column} = {literal}")
        else:
            conjuncts.append(f"{literal} = {column}")
    sql = (
        "SELECT t.a, t.b, t.c, s.x, s.y FROM t, s WHERE "
        + " AND ".join(conjuncts)
    )
    optimized, naive = run_both(db, sql, params)
    assert optimized == naive


int_or_text = st.one_of(
    st.none(), st.integers(0, 3), st.sampled_from(["0", "1", "bob"])
)


@seed(32)
@settings(max_examples=60, deadline=None)
@given(
    left=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), small_or_null),
        max_size=15,
    ),
    names=st.lists(
        st.one_of(st.none(), st.sampled_from(["0", "1", "bob"])), max_size=15
    ),
    join=st.sampled_from([("t.a", "s.n"), ("s.n", "t.b")]),
    column=st.sampled_from(["t.a", "t.b", "s.n"]),
    value=int_or_text,
    as_param=st.booleans(),
    index=index_strategy,
    name_index=st.booleans(),
)
def test_mixed_type_equi_join(
    left, names, join, column, value, as_param, index, name_index
):
    """An equi-join of an INT and a VARCHAR column carries a constant of
    either type across (``t.a = s.n AND s.n = 'bob'`` implies
    ``t.a = 'bob'``); an index probe with a value of another type than
    its column matches no row, as the naive comparison does."""
    db = build_db(left, index)
    db.sql("CREATE TABLE s (n VARCHAR)")
    table = db.table("s")
    for name in names:
        table.insert((name,))
    if name_index:
        table.create_index("s_ix", ("n",))
    params = {}
    if as_param:
        params["k"] = value
        constant = ":k"
    elif value is None:
        constant = "NULL"
    else:
        constant = repr(value) if isinstance(value, str) else str(value)
    sql = (
        "SELECT t.a, t.b, s.n FROM t, s "
        f"WHERE {join[0]} = {join[1]} AND {column} = {constant}"
    )
    optimized, naive = run_both(db, sql, params)
    assert optimized == naive
