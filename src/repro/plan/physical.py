"""Volcano-style physical operators compiled from an optimized plan.

``compile_plan`` walks the logical tree bottom-up and builds one operator
per node.  Expressions are compiled to closures once, at construction;
``rows(params)`` then pulls lazily through the pipeline.

Row flow matches :mod:`repro.plan.nodes`.  Below ``Project``/``Aggregate``
a row is a flat tuple, and every operator there exposes its *layout*: the
``(alias, column)`` pair each position holds.  A leaf's layout is its
columns, so scans pass storage tuples through unchanged; a join's layout
is the left layout followed by the right, and it joins by concatenating
tuples.  Expressions compile against the layout of the operator that
evaluates them, so a column reference reads ``row[i]``.  Above
``Project``/``Aggregate`` rows are output tuples.

Leaf operators (and ``FilterOp`` above them) additionally expose
``rid_rows(params)`` yielding ``(rid, row)`` pairs so UPDATE/DELETE can
reuse the same access paths the optimizer picked for SELECT.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass, replace
from functools import total_ordering
from itertools import islice
from operator import itemgetter
from typing import Iterator, Mapping

from repro.errors import SqlPlanError
from repro.obs.metrics import get_registry
from repro.plan import nodes
from repro.rdb.types import ColumnType
from repro.sql import ast
from repro.sql.expr import AGGREGATE_NAMES, Scope, compile_expr
from repro.sql.sqlxml import xml_agg

#: Rows pulled from base tables / table functions before filtering.  The
#: count accumulates in a local and is flushed once per scan (in a
#: ``finally``), so the per-row cost is a plain integer increment.
_ROWS_SCANNED = get_registry().counter("sql.rows_scanned")

@total_ordering
class _Top:
    """Sorts after every real value: pads composite-index range bounds.

    A bound ``(2,)`` compares *less* than key ``(2, x)`` under tuple
    ordering, so an inclusive high bound on an index prefix must be padded
    to ``(2, _TOP)`` to admit all keys sharing the prefix.
    """

    __slots__ = ()

    def __lt__(self, other) -> bool:
        return False

    def __eq__(self, other) -> bool:
        return other is self

    def __hash__(self) -> int:
        return 0x70FF


_TOP = _Top()


class ExecContext:
    """Shared compilation context: database, name scope, scalar functions."""

    def __init__(self, db, scope: Scope, functions: Mapping) -> None:
        self.db = db
        self.scope = scope
        self.functions = functions

    def compile(self, node, layout: tuple = ()):
        """Compile an expression over rows of ``layout`` (none: a value)."""
        return compile_expr(node, self.scope.at(layout), self.functions)


def compile_plan(plan, ctx: ExecContext):
    """Compile a logical plan node into its physical operator."""
    from repro.plan import temporal

    if isinstance(plan, nodes.Scan):
        return SeqScanOp(plan, ctx)
    if isinstance(plan, nodes.IndexScan):
        return IndexScanOp(plan, ctx)
    if isinstance(plan, nodes.FunctionScan):
        return FunctionScanOp(plan, ctx)
    if isinstance(plan, (nodes.Join, nodes.TemporalJoin)):
        left = compile_plan(plan.left, ctx)
        right = compile_plan(plan.right, ctx)
        if isinstance(plan, nodes.TemporalJoin):
            return temporal.TemporalJoinOp(left, right, plan)
        if plan.strategy == "hash":
            return HashJoinOp(left, right, plan.pairs)
        return NestedLoopOp(left, right)
    if not isinstance(plan, _ONE_CHILD):
        raise SqlPlanError(f"cannot compile plan node {type(plan).__name__}")
    child = compile_plan(plan.child, ctx)
    if isinstance(plan, nodes.Filter):
        return FilterOp(child, plan.predicates, ctx)
    if isinstance(plan, nodes.Sort):
        return SortOp(child, plan.keys, ctx)
    if isinstance(plan, nodes.Project):
        return ProjectOp(child, plan.items, ctx)
    if isinstance(plan, nodes.Aggregate):
        return AggregateOp(child, plan, ctx)
    if isinstance(plan, nodes.Distinct):
        return DistinctOp(child)
    if isinstance(plan, nodes.Limit):
        return LimitOp(child, plan.count)
    if isinstance(plan, nodes.Coalesce):
        return temporal.CoalesceOp(child, plan)
    return temporal.SequencedAggregateOp(child, plan, ctx)


_ONE_CHILD = (
    nodes.Filter, nodes.Sort, nodes.Project, nodes.Aggregate, nodes.Distinct,
    nodes.Limit, nodes.Coalesce, nodes.SequencedAggregate,
)


def key_getter(layout: tuple, keys) -> "itemgetter":
    """``row -> key`` for join keys: the positions of ``keys`` in
    ``layout``, read as one value for one key and a tuple for several."""
    return itemgetter(*[layout.index(key) for key in keys])


def has_null(key) -> bool:
    """Whether a join key (a value, or a tuple of them) holds a NULL."""
    return key is None or (type(key) is tuple and None in key)


def values_getter(exprs: list):
    """``(row, params) -> tuple`` of the compiled ``exprs``."""
    return lambda row, params: tuple([e(row, params) for e in exprs])


# -- leaf scans ---------------------------------------------------------------


def _conjunction(filters: list):
    """One ``(row, params) -> truthy`` test for compiled conjuncts, or
    ``None`` when there are none."""
    if not filters:
        return None
    if len(filters) == 1:
        return filters[0]
    if len(filters) == 2:  # the common temporal window: tstart <= t AND t <= tend
        first, second = filters
        return lambda row, params: first(row, params) and second(row, params)
    return lambda row, params: all(f(row, params) for f in filters)


class _Leaf:
    """A scan: its layout is its alias's columns, its rows the stored
    tuples that pass its pushed-down predicates."""

    def __init__(self, plan, ctx: ExecContext) -> None:
        self.plan = plan
        self.ctx = ctx
        columns = ctx.scope.columns_by_alias[plan.alias]
        self.layout = tuple((plan.alias, name) for name in columns)
        self.test = _conjunction(
            [ctx.compile(p, self.layout) for p in plan.predicates]
        )

    def rows(self, params: Mapping) -> Iterator[tuple]:
        return map(itemgetter(1), self.rid_rows(params))

    def rid_rows(self, params: Mapping):
        test = self.test
        scanned = 0
        try:
            for item in self._stored(params):
                scanned += 1
                if test is None or test(item[1], params):
                    yield item
        finally:
            _ROWS_SCANNED.inc(scanned)


class SeqScanOp(_Leaf):
    name = "SeqScan"

    def _stored(self, params: Mapping):
        return self.ctx.db.table(self.plan.table).scan()


#: the Python types an index probe value must have to equal a stored
#: key of each column type (INT, FLOAT and DATE all store numbers)
_NUMBERS = (int, float)
_KEY_KINDS = {ColumnType.VARCHAR: str, ColumnType.BLOB: (bytes, bytearray)}


class IndexScanOp(_Leaf):
    name = "IndexScan"

    def __init__(self, plan: nodes.IndexScan, ctx: ExecContext) -> None:
        super().__init__(plan, ctx)
        self.eq_values = [ctx.compile(v) for _, v in plan.eq]
        schema = ctx.db.table(plan.table).schema

        def kind(column):
            return _KEY_KINDS.get(
                schema.columns[schema.position(column)].type, _NUMBERS
            )

        self.eq_kinds = [kind(c) for c, _ in plan.eq]
        self.range_kind = plan.range_column and kind(plan.range_column)
        self.low, self.high = (
            None if bound is None else ctx.compile(bound)
            for bound in (plan.low, plan.high)
        )

    def _stored(self, params: Mapping):
        plan = self.plan
        table = self.ctx.db.table(plan.table)
        prefix = tuple(v(None, params) for v in self.eq_values)
        if not all(map(isinstance, prefix, self.eq_kinds)):
            # NULL, or a value of another kind than the column's (a str
            # probe of an INT index), equals no key — and would not
            # compare with the stored ones
            return ()
        low_val = self.low(None, params) if self.low is not None else None
        high_val = self.high(None, params) if self.high is not None else None
        for bound, value in ((self.low, low_val), (self.high, high_val)):
            if bound is not None and not isinstance(value, self.range_kind):
                return ()  # likewise a range bound
        if plan.range_column is None or (high_val is None and prefix):
            if not prefix:
                return table.index_scan(plan.index_name)
            # every key extending the prefix: (p,) <= key <= (p, _TOP)
            return table.index_scan(plan.index_name, prefix, prefix + (_TOP,))
        # pad bounds so keys extending the bound tuple compare correctly
        if low_val is None:
            low_key = prefix or None
        elif plan.low_inclusive:
            low_key = prefix + (low_val,)
        else:
            low_key = prefix + (low_val, _TOP)
        if high_val is None:
            high_key = None
        elif plan.high_inclusive:
            high_key = prefix + (high_val, _TOP)
        else:
            high_key = prefix + (high_val,)
        return table.index_scan(
            plan.index_name, low_key, high_key, low_inclusive=True, high_inclusive=False
        )


class FunctionScanOp(_Leaf):
    name = "FunctionScan"

    def __init__(self, plan: nodes.FunctionScan, ctx: ExecContext) -> None:
        super().__init__(plan, ctx)
        self.args = [ctx.compile(a) for a in plan.args]

    def rows(self, params: Mapping) -> Iterator[tuple]:
        fn = self.ctx.db.table_function(self.plan.function)
        if fn is None:
            raise SqlPlanError(f"unknown table function {self.plan.function}()")
        args = [a(None, params) for a in self.args]
        width, pad = len(self.layout), (None,) * len(self.layout)
        test = self.test
        scanned = 0
        try:
            for row in fn(*args):
                scanned += 1
                if len(row) != width or type(row) is not tuple:
                    # fit the declared AS alias(columns)
                    row = (tuple(row) + pad)[:width]
                if test is None or test(row, params):
                    yield row
        finally:
            _ROWS_SCANNED.inc(scanned)


# -- joins and filters --------------------------------------------------------


class HashJoinOp:
    name = "HashJoin"

    def __init__(self, left, right, pairs: tuple) -> None:
        self.left = left
        self.right = right
        self.pairs = pairs
        self.layout = left.layout + right.layout
        self.left_key = key_getter(left.layout, [pair[0] for pair in pairs])
        self.right_key = key_getter(right.layout, [pair[1] for pair in pairs])

    def rows(self, params: Mapping) -> Iterator[tuple]:
        build: dict = {}
        right_key = self.right_key
        for row in self.right.rows(params):
            key = right_key(row)
            if not has_null(key):
                build.setdefault(key, []).append(row)
        left_key = self.left_key
        for row in self.left.rows(params):
            for match in build.get(left_key(row), ()):  # inner join
                yield row + match


class NestedLoopOp:
    name = "NestedLoop"

    def __init__(self, left, right) -> None:
        self.left = left
        self.right = right
        self.layout = left.layout + right.layout

    def rows(self, params: Mapping) -> Iterator[tuple]:
        inner = list(self.right.rows(params))
        for row in self.left.rows(params):
            for match in inner:
                yield row + match


class FilterOp:
    name = "Filter"

    def __init__(self, child, predicates: tuple, ctx: ExecContext) -> None:
        self.child = child
        self.predicates = predicates
        self.layout = child.layout
        self.test = _conjunction(
            [ctx.compile(p, self.layout) for p in predicates]
        ) or (lambda row, params: True)

    def rows(self, params: Mapping) -> Iterator[tuple]:
        test = self.test
        for row in self.child.rows(params):
            if test(row, params):
                yield row

    def rid_rows(self, params: Mapping):
        test = self.test
        for item in self.child.rid_rows(params):
            if test(item[1], params):
                yield item


# -- sorting, projection, aggregation ----------------------------------------


class SortOp:
    name = "Sort"

    def __init__(self, child, keys: tuple, ctx: ExecContext) -> None:
        self.child = child
        self.layout = child.layout
        self.keys = [
            (ctx.compile(expr, self.layout), descending)
            for expr, descending in keys
        ]

    def rows(self, params: Mapping) -> Iterator[tuple]:
        materialized = list(self.child.rows(params))
        for key, descending in reversed(self.keys):
            materialized.sort(
                key=lambda row: null_safe_key(key(row, params)),
                reverse=descending,
            )
        return iter(materialized)


class ProjectOp:
    name = "Project"

    def __init__(self, child, items: tuple, ctx: ExecContext) -> None:
        self.child = child
        self.items = items
        layout = child.layout
        self.output = values_getter(
            [ctx.compile(item.expr, layout) for item in items]
        )
        self.getter = None
        if all(isinstance(item.expr, ast.ColumnRef) for item in items):
            # a plain column list: the row itself, or one C-level getter
            slots = [ctx.scope.at(layout).slot(item.expr) for item in items]
            if slots == list(range(len(layout))):
                self.output = None
            elif len(slots) > 1:
                self.getter = itemgetter(*slots)

    def rows(self, params: Mapping) -> Iterator[tuple]:
        rows = self.child.rows(params)
        if self.output is None:
            return rows
        if self.getter is not None:
            return map(self.getter, rows)
        output = self.output
        return (output(row, params) for row in rows)


class AggregateOp:
    """Hash grouping that folds each row into per-group accumulators as
    it arrives: only ``XMLAgg`` and ``DISTINCT`` aggregates keep member
    lists, and each group keeps its first row as its representative."""

    name = "Aggregate"

    def __init__(self, child, plan: nodes.Aggregate, ctx: ExecContext) -> None:
        self.child = child
        self.plan = plan
        layout = child.layout
        self.width = len(layout)
        self.group_key = values_getter(
            [ctx.compile(g, layout) for g in plan.group_by]
        ) if plan.group_by else None
        scope = ctx.scope.at(layout)
        self.agg_specs: list[_AggSpec] = []
        self.item_exprs = []
        for item in plan.items:
            rewritten = _rewrite_aggregates(
                item.expr, self.agg_specs, scope, ctx.functions
            )
            self.item_exprs.append(ctx.compile(rewritten, layout))
        self.order_keys = []
        for expr, descending in plan.order_by:
            rewritten = _rewrite_aggregates(
                expr, self.agg_specs, scope, ctx.functions
            )
            self.order_keys.append((ctx.compile(rewritten, layout), descending))

    def rows(self, params: Mapping) -> Iterator[tuple]:
        specs = self.agg_specs
        steps = [(index, spec.step) for index, spec in enumerate(specs, 1)]
        group_key = self.group_key
        groups: dict[tuple, list] = {}
        for row in self.child.rows(params):
            key = group_key(row, params) if group_key is not None else ()
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = [row] + [spec.start() for spec in specs]
            for index, step in steps:
                acc[index] = step(acc[index], row, params)
        if not groups and group_key is None:
            groups[()] = [(None,) * self.width] + [s.start() for s in specs]
        out = []
        for first, *states in groups.values():
            agg_params = dict(params)
            for spec, state in zip(specs, states):
                agg_params[spec.placeholder] = spec.finish(state)
            row = tuple(item(first, agg_params) for item in self.item_exprs)
            order_key = tuple(
                null_safe_key(k(first, agg_params)) for k, _ in self.order_keys
            )
            out.append((order_key, row))
        if self.order_keys:
            descending = [d for _, d in self.order_keys]
            # sort per key direction (stable, last key first)
            for index in reversed(range(len(descending))):
                out.sort(
                    key=lambda pair: pair[0][index], reverse=descending[index]
                )
        for _, row in out:
            yield row


class DistinctOp:
    name = "Distinct"

    def __init__(self, child) -> None:
        self.child = child

    def rows(self, params: Mapping) -> Iterator[tuple]:
        seen = set()
        for row in self.child.rows(params):
            key = tuple(map(hashable, row))
            if key not in seen:
                seen.add(key)
                yield row


class LimitOp:
    name = "Limit"

    def __init__(self, child, count: int) -> None:
        self.child = child
        self.count = count

    def rows(self, params: Mapping) -> Iterator[tuple]:
        return islice(self.child.rows(params), self.count)


# -- aggregate machinery ------------------------------------------------------


class _AggSpec:
    """One aggregate occurrence, rewritten to a synthetic parameter.

    ``step(state, row, params)`` folds one row into a group's state,
    which ``start()`` makes and ``finish`` reduces to the aggregate's
    value.  ``count``/``sum``/``avg``/``min``/``max`` fold into scalars;
    only ``XMLAgg`` and ``DISTINCT`` keep their values until the end.
    """

    def __init__(self, placeholder: str, node, scope: Scope, functions) -> None:
        self.placeholder = placeholder
        self.node = node
        self.distinct = getattr(node, "distinct", False)
        if isinstance(node, ast.XmlAggExpr):
            self.kind = "xmlagg"
            value = compile_expr(node.operand, scope, functions)
            order = [
                (compile_expr(spec.expr, scope, functions), spec.descending)
                for spec in node.order_by
            ]

            def collect(state, row, params):  # (sort key, value) pairs
                key = tuple(
                    (-k(row, params) if desc else k(row, params))
                    for k, desc in order
                )
                state.append((key, value(row, params)))
                return state

            self.step = collect
            return
        self.kind = node.name
        if len(node.args) != 1:
            raise SqlPlanError(f"aggregate {node.name}() takes one argument")
        if isinstance(node.args[0], ast.Star):
            if self.kind != "count":
                raise SqlPlanError(f"{node.name}(*) is not an aggregate")
            self.distinct = False
            self.step = lambda state, row, params: state + 1
            return
        operand = compile_expr(node.args[0], scope, functions)
        fold = _collect if self.distinct else _FOLDS[self.kind]

        def step(state, row, params):
            value = operand(row, params)
            return state if value is None else fold(state, value)

        self.step = step

    def start(self):
        return [] if self.kind == "xmlagg" or self.distinct else _initial(self.kind)

    def finish(self, state):
        if self.kind == "xmlagg":
            return xml_agg([v for _, v in sorted(state, key=itemgetter(0))])
        if self.distinct:
            values, state = dict.fromkeys(state), _initial(self.kind)
            for value in values:
                state = _FOLDS[self.kind](state, value)
        if self.kind == "avg":
            return state[0] / state[1] if state[1] else None
        return state


def _initial(kind: str):
    return 0 if kind == "count" else [0, 0] if kind == "avg" else None


def _collect(state: list, value) -> list:
    state.append(value)
    return state


def _fold_avg(state: list, value) -> list:
    state[0] += value
    state[1] += 1
    return state


_FOLDS = {
    "count": lambda state, value: state + 1,
    "sum": lambda state, value: 0 + value if state is None else state + value,
    "avg": _fold_avg,
    "min": lambda state, value: value if state is None or value < state else state,
    "max": lambda state, value: value if state is None or value > state else state,
}


def _rewrite_aggregates(node, specs: list, scope: Scope, functions):
    """Replace aggregate sub-expressions with synthetic Param nodes."""
    if isinstance(node, ast.XmlAggExpr) or (
        isinstance(node, ast.FunctionCall) and node.name in AGGREGATE_NAMES
    ):
        placeholder = f"__agg{len(specs)}"
        specs.append(_AggSpec(placeholder, node, scope, functions))
        return ast.Param(placeholder)
    if isinstance(node, tuple):
        return tuple(_rewrite_aggregates(n, specs, scope, functions) for n in node)
    if not is_dataclass(node) or isinstance(node, _OPAQUE):
        return node
    return replace(node, **{
        f.name: _rewrite_aggregates(getattr(node, f.name), specs, scope, functions)
        for f in fields(node)
    })


#: expression nodes whose parts are not rewritten: subqueries aggregate
#: on their own
_OPAQUE = (ast.Subquery, ast.InSubquery, ast.ExistsSubquery)


def hashable(value):
    if isinstance(value, (int, float, str, type(None))):
        return value
    return str(value)


def null_safe_key(value):
    if value is None:
        return (0, 0)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return (1, value)
    return (2, str(value))
