"""Volcano operators for the sequenced temporal plan nodes.

These are the physical implementations of
:class:`~repro.plan.nodes.TemporalJoin`,
:class:`~repro.plan.nodes.Coalesce` and
:class:`~repro.plan.nodes.SequencedAggregate` — the temporal SQL surface
(``TEMPORAL JOIN``, ``SELECT NORMALIZE``, ``tavg``/``tcount``/...) runs
entirely in the plan layer, over the closed day-granularity
``[tstart, tend]`` intervals of H-table rows.  No XQuery translation is
involved; the interval algebra lives in :mod:`repro.util.intervals`.

Rows follow :mod:`repro.plan.physical`: ``TemporalJoinOp`` takes and
emits flat tuples laid out as its left input followed by its right, and
``SequencedAggregateOp`` reads its input by position; ``CoalesceOp``
sits above the projection, on output tuples.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Mapping

from repro.obs.metrics import get_registry
from repro.plan import nodes
from repro.plan.physical import has_null, hashable, key_getter, null_safe_key
from repro.util.intervals import Interval, coalesce, sweep_aggregate

_JOIN_ROWS = get_registry().counter("temporal.join.rows")
_JOIN_DROPPED = get_registry().counter("temporal.join.dropped")
_COALESCE_MERGED = get_registry().counter("temporal.coalesce.rows_merged")
_AGG_PERIODS = get_registry().counter("temporal.aggregate.periods")


class TemporalJoinOp:
    """Hash equi-join that intersects validity intervals.

    Matched row pairs whose ``[tstart, tend]`` intervals overlap are
    emitted with the intersection written back under *every* alias of
    both sides (so downstream expressions read the sequenced interval no
    matter which alias they qualify it with); non-overlapping pairs are
    dropped.
    """

    name = "TemporalJoin"

    def __init__(self, left, right, plan: nodes.TemporalJoin) -> None:
        self.left = left
        self.right = right
        self.plan = plan
        self.pairs = plan.pairs
        self.layout = left.layout + right.layout
        self.left_key = key_getter(left.layout, [p[0] for p in plan.pairs])
        self.right_key = key_getter(right.layout, [p[1] for p in plan.pairs])
        left_alias = min(nodes.node_aliases(plan.left))
        right_alias = min(nodes.node_aliases(plan.right))
        self.left_interval = key_getter(
            left.layout, [(left_alias, "tstart"), (left_alias, "tend")]
        )
        self.right_interval = key_getter(
            right.layout, [(right_alias, "tstart"), (right_alias, "tend")]
        )
        # the output row: the joined row, with the tstart/tend slot of
        # every alias, both sides, read from the intersection appended
        width = len(self.layout)
        self.output = itemgetter(*[
            width if column == "tstart" else width + 1 if column == "tend" else i
            for i, (_, column) in enumerate(self.layout)
        ])

    def rows(self, params: Mapping) -> Iterator[tuple]:
        build: dict = {}
        right_key, right_interval = self.right_key, self.right_interval
        for row in self.right.rows(params):
            key = right_key(row)
            if not has_null(key):
                build.setdefault(key, []).append((right_interval(row), row))
        left_key, left_interval, output = (
            self.left_key, self.left_interval, self.output
        )
        emitted = dropped = 0
        try:
            for row in self.left.rows(params):
                matches = build.get(left_key(row))
                if not matches:
                    continue
                lstart, lend = left_interval(row)
                if lstart is None or lend is None:
                    dropped += len(matches)
                    continue
                for (rstart, rend), match in matches:
                    if rstart is None or rend is None:
                        dropped += 1
                        continue
                    low = max(lstart, rstart)
                    high = min(lend, rend)
                    if low > high:
                        dropped += 1
                        continue
                    emitted += 1
                    yield output(row + match + (low, high))
        finally:
            _JOIN_ROWS.inc(emitted)
            _JOIN_DROPPED.inc(dropped)


class CoalesceOp:
    """NORMALIZE: merge adjacent-or-overlapping periods per value group.

    Operates on output tuples (above Project/Aggregate): rows identical
    in every column but the period columns are collapsed into maximal
    periods.  Output is sorted by the non-period columns, then period
    start, so results are deterministic.
    """

    name = "Coalesce"

    def __init__(self, child, plan: nodes.Coalesce) -> None:
        self.child = child
        self.plan = plan

    def rows(self, params: Mapping) -> Iterator[tuple]:
        start_index = self.plan.start_index
        end_index = self.plan.end_index
        groups: dict[tuple, tuple] = {}
        for row in self.child.rows(params):
            rest = tuple(
                value
                for index, value in enumerate(row)
                if index not in (start_index, end_index)
            )
            key = tuple(hashable(value) for value in rest)
            _, intervals = groups.setdefault(key, (row, []))
            start = row[start_index]
            end = row[end_index]
            if start is None or end is None:
                continue
            intervals.append(Interval(int(start), int(end)))
        out = []
        for representative, intervals in groups.values():
            merged = coalesce(intervals)
            _COALESCE_MERGED.inc(max(0, len(intervals) - len(merged)))
            for interval in merged:
                row = list(representative)
                row[start_index] = interval.start
                row[end_index] = interval.end
                out.append(tuple(row))
        out.sort(
            key=lambda row: tuple(
                null_safe_key(value)
                for index, value in enumerate(row)
                if index not in (start_index, end_index)
            )
            + (null_safe_key(row[start_index]),)
        )
        yield from out


class SequencedAggregateOp:
    """Time-weighted aggregate over ``(value, [tstart, tend])`` streams.

    Groups child rows, sweeps each group's ``(value, tstart, tend)``
    rows into constant-value periods
    (:func:`repro.util.intervals.sweep_aggregate`)
    and emits one tuple per (group, period).  Output order is group key,
    then period start.
    """

    name = "SequencedAggregate"

    @property
    def render_detail(self) -> str:
        return f" [{self.plan.kind}]"

    def __init__(self, child, plan: nodes.SequencedAggregate, ctx) -> None:
        self.child = child
        self.plan = plan
        layout = child.layout
        self.group_keys = [ctx.compile(g, layout) for g in plan.group_by]
        operand = plan.operand
        self.operand = None if operand is None else ctx.compile(operand, layout)
        scope = ctx.scope.at(layout)  # start and end are column references
        self.period = itemgetter(scope.slot(plan.start), scope.slot(plan.end))
        # the last two items are the synthesized period bounds; the item
        # at value_index is the aggregate call itself (filled per period)
        self.item_exprs = []
        for index, item in enumerate(plan.items[:-2]):
            if index == plan.value_index:
                self.item_exprs.append(None)
            else:
                self.item_exprs.append(ctx.compile(item.expr, layout))

    def rows(self, params: Mapping) -> Iterator[tuple]:
        groups: dict[tuple, tuple] = {}
        group_keys, operand, period = self.group_keys, self.operand, self.period
        for row in self.child.rows(params):
            key = (
                tuple([null_safe_key(k(row, params)) for k in group_keys])
                if group_keys else ()
            )
            group = groups.get(key)
            if group is None:
                group = groups[key] = (row, [])
            start, end = period(row)
            if start is None or end is None:
                continue
            value = 1.0 if operand is None else operand(row, params)
            if value is not None:
                group[1].append((value, int(start), int(end)))
        kind = self.plan.kind
        for key in sorted(groups):
            representative, triples = groups[key]
            periods = sweep_aggregate(triples, kind)
            _AGG_PERIODS.inc(len(periods))
            for value, start, end in periods:
                if kind == "count":
                    value = int(value)
                row = [
                    value if expr is None else expr(representative, params)
                    for expr in self.item_exprs
                ]
                row.append(start)
                row.append(end)
                yield tuple(row)
