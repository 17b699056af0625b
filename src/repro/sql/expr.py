"""SQL expression compilation.

Expressions compile to Python closures over an environment dict keyed by
``(alias, column)``.  Compilation resolves unqualified column references
against the visible sources, so typos fail at plan time rather than on the
millionth row.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import SqlPlanError
from repro.sql import ast
from repro.sql.sqlxml import build_xml_element

Env = dict
CompiledExpr = Callable[[Env, Mapping[str, object]], object]

AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max"}


class Scope:
    """Column visibility for one query: alias -> ordered column names.

    Carries the database handle so (uncorrelated) subqueries can be
    planned during expression compilation.
    """

    def __init__(
        self, columns_by_alias: Mapping[str, list[str]], db=None
    ) -> None:
        self.columns_by_alias = dict(columns_by_alias)
        self.db = db

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, str]:
        if ref.table is not None:
            columns = self.columns_by_alias.get(ref.table)
            if columns is None:
                raise SqlPlanError(f"unknown table alias {ref.table!r}")
            if ref.column not in columns:
                raise SqlPlanError(
                    f"table {ref.table!r} has no column {ref.column!r}"
                )
            return (ref.table, ref.column)
        owners = [
            alias
            for alias, columns in self.columns_by_alias.items()
            if ref.column in columns
        ]
        if not owners:
            raise SqlPlanError(f"unknown column {ref.column!r}")
        if len(owners) > 1:
            raise SqlPlanError(
                f"ambiguous column {ref.column!r} (in {sorted(owners)})"
            )
        return (owners[0], ref.column)

    def all_pairs(self) -> list[tuple[str, str]]:
        out = []
        for alias, columns in self.columns_by_alias.items():
            out.extend((alias, column) for column in columns)
        return out


def contains_aggregate(node: object) -> bool:
    """True when the expression contains an aggregate or XMLAgg call."""
    if isinstance(node, ast.FunctionCall):
        if node.name in AGGREGATE_NAMES:
            return True
        return any(contains_aggregate(a) for a in node.args)
    if isinstance(node, ast.XmlAggExpr):
        return True
    if isinstance(node, ast.BinaryOp):
        return contains_aggregate(node.left) or contains_aggregate(node.right)
    if isinstance(node, ast.UnaryOp):
        return contains_aggregate(node.operand)
    if isinstance(node, ast.XmlElementExpr):
        return any(contains_aggregate(a.value) for a in node.attributes) or any(
            contains_aggregate(c) for c in node.content
        )
    if isinstance(node, ast.CaseExpr):
        branches = [c for pair in node.whens for c in pair]
        if node.else_result is not None:
            branches.append(node.else_result)
        return any(contains_aggregate(b) for b in branches)
    if isinstance(node, (ast.InList, ast.Between, ast.IsNull, ast.LikeOp)):
        return contains_aggregate(node.operand)
    return False


def compile_expr(node: object, scope: Scope, functions: Mapping) -> CompiledExpr:
    """Compile an expression AST into a closure ``(env, params) -> value``.

    ``functions`` maps lower-case names to Python callables for scalar
    functions (including the registered temporal UDFs).  A slotted
    literal reads ``params[slot]``: the statement cache binds each
    execution's literal values there, beside its ``:name`` parameters.
    """
    if isinstance(node, (ast.Literal, ast.DateLiteral)):
        slot = node.slot
        if slot is not None:
            # a lifted literal: bound per execution (statement cache)
            return lambda env, params: params[slot]
        value = node.days if isinstance(node, ast.DateLiteral) else node.value
        return lambda env, params: value
    if isinstance(node, ast.Param):
        name = node.name
        def run_param(env, params):
            if name not in params:
                raise SqlPlanError(f"missing query parameter :{name}")
            return params[name]
        return run_param
    if isinstance(node, ast.ColumnRef):
        key = scope.resolve(node)
        return lambda env, params: env.get(key)
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, scope, functions)
    if isinstance(node, ast.UnaryOp):
        inner = compile_expr(node.operand, scope, functions)
        if node.op == "not":
            return lambda env, params: _not(inner(env, params))
        if node.op == "-":
            return lambda env, params: _neg(inner(env, params))
        raise SqlPlanError(f"unknown unary operator {node.op}")
    if isinstance(node, ast.InList):
        operand = compile_expr(node.operand, scope, functions)
        items = [compile_expr(i, scope, functions) for i in node.items]
        negated = node.negated
        def run_in(env, params):
            value = operand(env, params)
            if value is None:
                return False
            hit = any(value == item(env, params) for item in items)
            return hit != negated
        return run_in
    if isinstance(node, ast.Between):
        operand = compile_expr(node.operand, scope, functions)
        low = compile_expr(node.low, scope, functions)
        high = compile_expr(node.high, scope, functions)
        negated = node.negated
        def run_between(env, params):
            value = operand(env, params)
            if value is None:
                return False
            hit = low(env, params) <= value <= high(env, params)
            return hit != negated
        return run_between
    if isinstance(node, ast.IsNull):
        operand = compile_expr(node.operand, scope, functions)
        negated = node.negated
        return lambda env, params: (operand(env, params) is None) != negated
    if isinstance(node, ast.LikeOp):
        operand = compile_expr(node.operand, scope, functions)
        pattern = compile_expr(node.pattern, scope, functions)
        negated = node.negated
        def run_like(env, params):
            value = operand(env, params)
            if value is None:
                return False
            hit = _like(str(value), str(pattern(env, params)))
            return hit != negated
        return run_like
    if isinstance(node, ast.CaseExpr):
        whens = [
            (compile_expr(c, scope, functions), compile_expr(r, scope, functions))
            for c, r in node.whens
        ]
        else_fn = (
            compile_expr(node.else_result, scope, functions)
            if node.else_result is not None
            else None
        )
        def run_case(env, params):
            for condition, result in whens:
                if condition(env, params):
                    return result(env, params)
            return else_fn(env, params) if else_fn else None
        return run_case
    if isinstance(node, ast.FunctionCall):
        if node.name in AGGREGATE_NAMES:
            raise SqlPlanError(
                f"aggregate {node.name}() in a row-level expression"
            )
        fn = functions.get(node.name)
        if fn is None:
            raise SqlPlanError(f"unknown SQL function {node.name}()")
        args = [compile_expr(a, scope, functions) for a in node.args]
        return lambda env, params: fn(*(a(env, params) for a in args))
    if isinstance(node, ast.XmlElementExpr):
        attrs = [
            (a.name, compile_expr(a.value, scope, functions))
            for a in node.attributes
        ]
        content = [compile_expr(c, scope, functions) for c in node.content]
        tag = node.tag
        def run_xmlelement(env, params):
            return build_xml_element(
                tag,
                [(name, value(env, params)) for name, value in attrs],
                [c(env, params) for c in content],
            )
        return run_xmlelement
    if isinstance(node, ast.Subquery):
        rows_fn = _compile_subquery(node, scope)
        def run_scalar_subquery(env, params):
            rows = rows_fn(params)
            if not rows:
                return None
            if len(rows) > 1:
                raise SqlPlanError("scalar subquery returned multiple rows")
            if len(rows[0]) != 1:
                raise SqlPlanError("scalar subquery must have one column")
            return rows[0][0]
        return run_scalar_subquery
    if isinstance(node, ast.InSubquery):
        operand = compile_expr(node.operand, scope, functions)
        rows_fn = _compile_subquery(node.subquery, scope)
        negated = node.negated
        def run_in_subquery(env, params):
            value = operand(env, params)
            if value is None:
                return False
            hit = any(row[0] == value for row in rows_fn(params))
            return hit != negated
        return run_in_subquery
    if isinstance(node, ast.ExistsSubquery):
        rows_fn = _compile_subquery(node.subquery, scope)
        negated = node.negated
        return lambda env, params: bool(rows_fn(params)) != negated
    if isinstance(node, ast.XmlAggExpr):
        raise SqlPlanError("XMLAgg outside an aggregate query")
    if isinstance(node, ast.Star):
        raise SqlPlanError("'*' is only allowed in COUNT(*) or SELECT *")
    raise SqlPlanError(f"cannot compile {type(node).__name__}")


def _compile_subquery(node: ast.Subquery, scope: Scope):
    """Plan an uncorrelated subquery; returns ``rows_fn(params)``.

    The subquery sees only its own sources (no outer-row correlation) and
    its result is cached per ``params`` object, so an IN-subquery executes
    once per statement, not once per outer row.
    """
    if scope.db is None:
        raise SqlPlanError("subqueries are not available in this context")
    from repro.sql.planner import SelectPlan

    plan = SelectPlan(scope.db, node.select)
    cache: dict = {}

    def rows_fn(params):
        key = id(params)
        hit = cache.get(key)
        if hit is not None and hit[0] is params:
            return hit[1]
        rows = plan.execute(params).rows
        cache.clear()
        cache[key] = (params, rows)
        return rows

    return rows_fn


def _compile_binary(node: ast.BinaryOp, scope: Scope, functions) -> CompiledExpr:
    op = node.op
    left = compile_expr(node.left, scope, functions)
    right = compile_expr(node.right, scope, functions)
    if op == "and":
        return lambda env, params: bool(left(env, params)) and bool(
            right(env, params)
        )
    if op == "or":
        return lambda env, params: bool(left(env, params)) or bool(
            right(env, params)
        )
    if op in ("=", "<>", "<", "<=", ">", ">="):
        def run_cmp(env, params):
            lv = left(env, params)
            rv = right(env, params)
            if lv is None or rv is None:
                return False
            if op == "=":
                return lv == rv
            if op == "<>":
                return lv != rv
            if op == "<":
                return lv < rv
            if op == "<=":
                return lv <= rv
            if op == ">":
                return lv > rv
            return lv >= rv
        return run_cmp
    if op == "||":
        def run_concat(env, params):
            lv = left(env, params)
            rv = right(env, params)
            return _as_text(lv) + _as_text(rv)
        return run_concat
    if op in ("+", "-", "*", "/"):
        def run_arith(env, params):
            lv = left(env, params)
            rv = right(env, params)
            if lv is None or rv is None:
                return None
            if op == "+":
                return lv + rv
            if op == "-":
                return lv - rv
            if op == "*":
                return lv * rv
            if rv == 0:
                raise SqlPlanError("division by zero")
            return lv / rv
        return run_arith
    raise SqlPlanError(f"unknown operator {op}")


def _not(value: object) -> bool:
    return not bool(value)


def _neg(value: object):
    return None if value is None else -value


def _as_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def _like(value: str, pattern: str) -> bool:
    import re

    regex = re.escape(pattern).replace("%", ".*").replace("_", ".")
    return re.fullmatch(regex, value) is not None
