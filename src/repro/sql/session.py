"""SQL statement execution against a Database."""

from __future__ import annotations

from time import perf_counter
from typing import Mapping

from repro.errors import SqlPlanError
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.rdb.database import Database
from repro.rdb.types import ColumnType
from repro.sql import ast
from repro.sql.cache import Bound
from repro.sql.expr import Scope, compile_expr
from repro.sql.planner import function_registry
from repro.sql.result import ResultSet

_STATEMENTS = get_registry().counter("sql.statements")
_ROWS_RETURNED = get_registry().counter("sql.rows_returned")
_STMT_SECONDS = get_registry().histogram("sql.statement.seconds")

_TYPE_MAP = {
    "int": ColumnType.INT,
    "integer": ColumnType.INT,
    "float": ColumnType.FLOAT,
    "double": ColumnType.FLOAT,
    "varchar": ColumnType.VARCHAR,
    "char": ColumnType.VARCHAR,
    "text": ColumnType.VARCHAR,
    "date": ColumnType.DATE,
    "blob": ColumnType.BLOB,
}


def execute_sql(db: Database, text: str, params: Mapping | None = None):
    """Prepare (through ``db.statements``) and execute one SQL statement.

    SELECT returns a :class:`ResultSet`; DML returns the affected row
    count; DDL returns 0.  Every statement is counted and timed
    (``sql.statements`` / ``sql.statement.seconds``) and emits a
    ``sql.statement`` span when tracing is enabled.
    """
    return execute_prepared(db, db.statements.prepare(text), params, text=text)


def execute_prepared(
    db: Database, bound: Bound, params: Mapping | None = None, *, text: str = ""
):
    """Execute a prepared statement (same contract as :func:`execute_sql`).

    The transaction layer prepares first — it needs the statement to
    compute the lock set — then executes through here, so a statement is
    never prepared twice.  Prepare on the thread and under the pinned
    day (or none) the statement executes in: the plan depends on both.
    """
    params = bound.params(params)
    kind = type(bound.statement).__name__
    _STATEMENTS.inc()
    started = perf_counter()
    with get_tracer().span("sql.statement", kind=kind, sql=text) as span:
        result = _dispatch(db, bound, params)
        if isinstance(result, ResultSet):
            _ROWS_RETURNED.inc(len(result.rows))
            span.set("rows_returned", len(result.rows))
        else:
            span.set("rows_affected", result)
    _STMT_SECONDS.observe(perf_counter() - started)
    return result


def _dispatch(db: Database, bound: Bound, params: dict):
    statement, plan = bound.statement, bound.plan
    if isinstance(statement, ast.Select):
        db.last_plan = bound
        return plan.execute(params)
    if isinstance(statement, ast.Insert):
        return _execute_insert(db, statement, params)
    if isinstance(statement, ast.InsertSelect):
        return _execute_insert_select(db, statement, plan, params)
    if isinstance(statement, ast.Update):
        return _execute_update(db, statement, plan, params)
    if isinstance(statement, ast.Delete):
        return _execute_delete(db, plan, params)
    if isinstance(statement, ast.CreateTable):
        return _execute_create_table(db, statement)
    if isinstance(statement, ast.CreateIndex):
        table = db.table(statement.table)
        table.create_index(statement.name, statement.columns, statement.unique)
        return 0
    if isinstance(statement, ast.DropTable):
        db.drop_table(statement.name)
        return 0
    raise SqlPlanError(f"cannot execute {type(statement).__name__}")


def _execute_create_table(db: Database, statement: ast.CreateTable) -> int:
    columns = []
    for col in statement.columns:
        ctype = _TYPE_MAP.get(col.type_name)
        if ctype is None:
            raise SqlPlanError(f"unknown column type {col.type_name!r}")
        columns.append((col.name, ctype))
    db.create_table(statement.name, columns, statement.primary_key)
    return 0


def _scalar_functions(db: Database) -> dict:
    return function_registry(db)


def _execute_insert(db: Database, statement: ast.Insert, params) -> int:
    table = db.table(statement.table)
    schema = table.schema
    functions = _scalar_functions(db)
    empty_scope = Scope({}, db)
    count = 0
    for row_exprs in statement.rows:
        values = [
            compile_expr(e, empty_scope, functions)(None, params)
            for e in row_exprs
        ]
        if statement.columns:
            if len(values) != len(statement.columns):
                raise SqlPlanError("INSERT arity mismatch")
            full = [None] * len(schema.columns)
            for column, value in zip(statement.columns, values):
                full[schema.position(column)] = value
            values = full
        table.insert(tuple(values))
        count += 1
    return count


def _execute_insert_select(
    db: Database, statement: ast.InsertSelect, plan, params
) -> int:
    result = plan.execute(params)
    table = db.table(statement.table)
    schema = table.schema
    count = 0
    for row in result.rows:
        values = list(row)
        if statement.columns:
            full = [None] * len(schema.columns)
            for column, value in zip(statement.columns, values):
                full[schema.position(column)] = value
            values = full
        table.insert(tuple(values))
        count += 1
    return count


def _execute_update(db: Database, statement: ast.Update, plan, params) -> int:
    table = db.table(statement.table)
    scope = plan.scope.at(plan.layout)
    assignments = [
        (table.schema.position(column), compile_expr(expr, scope, plan.functions))
        for column, expr in statement.assignments
    ]
    victims = list(plan.matches(params))
    for rid, row in victims:
        new_row = list(row)
        for position, value_fn in assignments:
            new_row[position] = value_fn(row, params)
        table.update_rid(rid, tuple(new_row))
    return len(victims)


def _execute_delete(db: Database, plan, params) -> int:
    table = db.table(plan.table_name)
    victims = [rid for rid, _ in plan.matches(params)]
    table.delete_many(victims)
    return len(victims)
