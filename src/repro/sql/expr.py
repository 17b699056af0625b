"""SQL expression compilation.

Expressions compile to Python closures ``(row, params) -> value`` over a
flat row tuple.  Compilation resolves every column reference against the
visible sources (so typos fail at plan time rather than on the millionth
row) and then to its position in the *layout* of the operator the
expression is compiled for — the ``(alias, column)`` pair each row
position holds — so a column read is ``row[i]``.  Operators are chosen
once, at compile time, not tested per row.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from typing import Callable, Mapping

from repro.errors import SqlPlanError
from repro.sql import ast
from repro.sql.sqlxml import build_xml_element

CompiledExpr = Callable[[tuple, Mapping[str, object]], object]

AGGREGATE_NAMES = {"count", "sum", "avg", "min", "max"}


class Scope:
    """Column visibility for one query: alias -> ordered column names.

    Carries the database handle so (uncorrelated) subqueries can be
    planned during expression compilation, and the row layout that
    column references compile to positions in (see :meth:`at`).

    A source read from other sources (a tracked current table under a
    pinned day, see :mod:`repro.plan.build`) keeps its own columns for
    name resolution; ``lowered`` sends each to the ``(alias, column)``
    that holds it, and only qualified references reach those aliases.
    """

    def __init__(
        self, columns_by_alias: Mapping[str, list[str]], db=None, layout=(),
        lowered=None,
    ) -> None:
        self.columns_by_alias = dict(columns_by_alias)
        self.db = db
        self.layout = tuple(layout)
        self.lowered = {} if lowered is None else lowered

    def at(self, layout) -> "Scope":
        """This scope, compiling column references against ``layout``."""
        return Scope(self.columns_by_alias, self.db, layout, self.lowered)

    def slot(self, ref: ast.ColumnRef) -> int:
        """The position of a column reference in this scope's layout."""
        key = self.resolve(ref)
        if key not in self.layout:
            raise SqlPlanError(f"column {key[0]}.{key[1]} is not in scope here")
        return self.layout.index(key)

    def resolve(self, ref: ast.ColumnRef) -> tuple[str, str]:
        if ref.table is not None:
            columns = self.columns_by_alias.get(ref.table)
            if columns is None:
                raise SqlPlanError(f"unknown table alias {ref.table!r}")
            if ref.column not in columns:
                raise SqlPlanError(
                    f"table {ref.table!r} has no column {ref.column!r}"
                )
            key = (ref.table, ref.column)
        else:
            hidden = {alias for alias, _ in self.lowered.values()}
            owners = [
                alias
                for alias, columns in self.columns_by_alias.items()
                if ref.column in columns and alias not in hidden
            ]
            if not owners:
                raise SqlPlanError(f"unknown column {ref.column!r}")
            if len(owners) > 1:
                raise SqlPlanError(
                    f"ambiguous column {ref.column!r} (in {sorted(owners)})"
                )
            key = (owners[0], ref.column)
        return self.lowered.get(key, key)


def contains_aggregate(node: object) -> bool:
    """True when the expression contains an aggregate or XMLAgg call."""
    return any(
        isinstance(sub, ast.XmlAggExpr)
        or (isinstance(sub, ast.FunctionCall) and sub.name in AGGREGATE_NAMES)
        for sub in ast.walk_exprs(node)
    )


def compile_expr(node: object, scope: Scope, functions: Mapping) -> CompiledExpr:
    """Compile an expression AST into a closure ``(row, params) -> value``.

    ``functions`` maps lower-case names to Python callables for scalar
    functions (including the registered temporal UDFs).  A slotted
    literal reads ``params[slot]``: the statement cache binds each
    execution's literal values there, beside its ``:name`` parameters.
    """
    if isinstance(node, (ast.Literal, ast.DateLiteral)):
        slot = node.slot
        if slot is not None:
            # a lifted literal: bound per execution (statement cache)
            return lambda row, params: params[slot]
        value = node.days if isinstance(node, ast.DateLiteral) else node.value
        return lambda row, params: value
    if isinstance(node, ast.Param):
        name = node.name
        def run_param(row, params):
            if name not in params:
                raise SqlPlanError(f"missing query parameter :{name}")
            return params[name]
        return run_param
    if isinstance(node, ast.ColumnRef):
        index = scope.slot(node)
        return lambda row, params: row[index]
    if isinstance(node, ast.BinaryOp):
        return _compile_binary(node, scope, functions)
    if isinstance(node, ast.UnaryOp):
        inner = compile_expr(node.operand, scope, functions)
        if node.op == "not":
            return lambda row, params: not inner(row, params)
        if node.op == "-":
            return lambda row, params: _neg(inner(row, params))
        raise SqlPlanError(f"unknown unary operator {node.op}")
    if isinstance(node, ast.InList):
        operand = compile_expr(node.operand, scope, functions)
        items = [compile_expr(i, scope, functions) for i in node.items]
        negated = node.negated
        def run_in(row, params):
            value = operand(row, params)
            if value is None:
                return False
            hit = any(value == item(row, params) for item in items)
            return hit != negated
        return run_in
    if isinstance(node, ast.Between):
        operand = compile_expr(node.operand, scope, functions)
        low = compile_expr(node.low, scope, functions)
        high = compile_expr(node.high, scope, functions)
        negated = node.negated
        keys = (_lifted(node.low), _lifted(node.high))
        if isinstance(node.operand, ast.ColumnRef) and None not in keys:
            # a key range: the column and both bounds read inline
            i, (lo, hi) = scope.slot(node.operand), keys
            def between_slot(row, params):
                value = row[i]
                if value is None:
                    return False
                try:
                    return (params[lo] <= value <= params[hi]) != negated
                except TypeError:
                    return _between(value, params[lo], params[hi], negated)
            return between_slot
        def run_between(row, params):
            value = operand(row, params)
            if value is None:
                return False
            return _between(value, low(row, params), high(row, params), negated)
        return run_between
    if isinstance(node, ast.IsNull):
        operand = compile_expr(node.operand, scope, functions)
        negated = node.negated
        return lambda row, params: (operand(row, params) is None) != negated
    if isinstance(node, ast.LikeOp):
        operand = compile_expr(node.operand, scope, functions)
        pattern = compile_expr(node.pattern, scope, functions)
        negated = node.negated
        def run_like(row, params):
            value = operand(row, params)
            if value is None:
                return False
            regex = _like_regex(str(pattern(row, params)))
            hit = regex.fullmatch(str(value)) is not None
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
        def run_case(row, params):
            for condition, result in whens:
                if condition(row, params):
                    return result(row, params)
            return else_fn(row, params) if else_fn else None
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
        return lambda row, params: fn(*[a(row, params) for a in args])
    if isinstance(node, ast.XmlElementExpr):
        attrs = [
            (a.name, compile_expr(a.value, scope, functions))
            for a in node.attributes
        ]
        content = [compile_expr(c, scope, functions) for c in node.content]
        tag = node.tag
        def run_xmlelement(row, params):
            return build_xml_element(
                tag,
                [(name, value(row, params)) for name, value in attrs],
                [c(row, params) for c in content],
            )
        return run_xmlelement
    if isinstance(node, ast.Subquery):
        rows_fn = _compile_subquery(node, scope)
        def run_scalar_subquery(row, params):
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
        members_fn = _compile_subquery(node.subquery, scope, _members)
        negated = node.negated
        def run_in_subquery(row, params):
            value = operand(row, params)
            if value is None:
                return False
            return (value in members_fn(params)) != negated
        return run_in_subquery
    if isinstance(node, ast.ExistsSubquery):
        rows_fn = _compile_subquery(node.subquery, scope)
        negated = node.negated
        return lambda row, params: bool(rows_fn(params)) != negated
    if isinstance(node, ast.XmlAggExpr):
        raise SqlPlanError("XMLAgg outside an aggregate query")
    if isinstance(node, ast.Star):
        raise SqlPlanError("'*' is only allowed in COUNT(*) or SELECT *")
    raise SqlPlanError(f"cannot compile {type(node).__name__}")


def _compile_subquery(node: ast.Subquery, scope: Scope, shape=None):
    """Plan an uncorrelated subquery; returns ``rows_fn(params)`` (its
    rows, or ``shape(rows)``).

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
        if shape is not None:
            rows = shape(rows)
        cache.clear()
        cache[key] = (params, rows)
        return rows

    return rows_fn


def _members(rows):
    """The first column of ``rows`` for an IN test: a set when its
    values hash (``in`` then compares as ``==`` does), else a list."""
    values = [row[0] for row in rows]
    try:
        return frozenset(values)
    except TypeError:
        return values


_COMPARE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def _divide(left, right):
    if right == 0:
        raise SqlPlanError("division by zero")
    return left / right


#: the binary arithmetic operators; the optimizer folds constants with
#: these too, so a folded value is the one execution would compute
ARITHMETIC = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide,
}


def concat(left: object, right: object) -> str:
    """``left || right``: NULL reads as the empty string."""
    return _as_text(left) + _as_text(right)


def _compile_binary(node: ast.BinaryOp, scope: Scope, functions) -> CompiledExpr:
    op = node.op
    left = compile_expr(node.left, scope, functions)
    right = compile_expr(node.right, scope, functions)
    if op == "and":
        return lambda row, params: bool(left(row, params) and right(row, params))
    if op == "or":
        return lambda row, params: bool(left(row, params) or right(row, params))
    if op == "||":
        return lambda row, params: concat(left(row, params), right(row, params))
    compare = _COMPARE.get(op)
    if compare is not None:
        # a column against a lifted literal or another column — windows,
        # keys and join conditions — reads both sides inline
        key = _lifted(node.right)
        if isinstance(node.left, ast.ColumnRef) and key is not None:
            i = scope.slot(node.left)
            def compare_literal(row, params):
                lv = row[i]
                rv = params[key]
                return lv is not None and rv is not None and compare(lv, rv)
            return compare_literal
        if isinstance(node.left, ast.ColumnRef) and isinstance(
            node.right, ast.ColumnRef
        ):
            i, j = scope.slot(node.left), scope.slot(node.right)
            def compare_columns(row, params):
                lv = row[i]
                rv = row[j]
                return lv is not None and rv is not None and compare(lv, rv)
            return compare_columns
        def run_compare(row, params):
            lv = left(row, params)
            rv = right(row, params)
            return lv is not None and rv is not None and compare(lv, rv)
        return run_compare
    arithmetic = ARITHMETIC.get(op)
    if arithmetic is not None:
        def run_arithmetic(row, params):
            lv = left(row, params)
            rv = right(row, params)
            if lv is None or rv is None:
                return None
            return arithmetic(lv, rv)
        return run_arithmetic
    raise SqlPlanError(f"unknown operator {op}")


def _between(value, low, high, negated: bool) -> bool:
    """``value [NOT] BETWEEN low AND high`` read as a filter: ``low <=
    value AND value <= high`` (``value < low OR value > high`` when
    negated), where a side with a NULL bound, or one that does not
    compare with the value, is unknown — so a NULL or non-numeric bound
    of a numeric range matches nothing, as ``history_<t>``'s key range
    does."""
    def holds(compare, left, right):
        try:
            return compare(left, right)
        except TypeError:  # NULL, or a value of another kind
            return False

    if negated:
        return holds(operator.lt, value, low) or holds(operator.gt, value, high)
    return holds(operator.le, low, value) and holds(operator.le, value, high)


def _lifted(node: object):
    """The parameter key of a literal the statement cache lifted, else None."""
    if isinstance(node, (ast.Literal, ast.DateLiteral)):
        return node.slot
    return None


def _neg(value: object):
    return None if value is None else -value


def _as_text(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@lru_cache(maxsize=256)
def _like_regex(pattern: str):
    return re.compile(re.escape(pattern).replace("%", ".*").replace("_", "."))
