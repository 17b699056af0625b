"""The temporal user-defined function library (paper Section 4.2).

These are the functions the paper defines for querying H-documents:
``tstart``/``tend`` (interval accessors with *now* substitution),
Allen-relation predicates (``toverlaps``, ``tprecedes``, ``tcontains``,
``tequals``, ``tmeets``), constructors (``telement``,
``overlapinterval``, ``tinterval``), restructuring (``coalesce``,
``restructure``), duration (``timespan``), *now* rewriting (``rtend``,
``externalnow``) and the temporal aggregates (``tavg`` and friends).

They delegate interval mathematics to :mod:`repro.util.intervals`, the same
code the SQL UDFs use — which is what keeps the two query paths consistent.
"""

from __future__ import annotations

from repro.errors import XQueryTypeError
from repro.util.intervals import (
    Interval,
    coalesce as coalesce_intervals,
    restructure as restructure_intervals,
    sweep_aggregate,
)
from repro.util.timeutil import (
    FOREVER,
    FOREVER_STR,
    NOW_LABEL,
    format_date,
    parse_date,
)
from repro.xmlkit.dom import Element, Text
from repro.xquery.values import DateValue, numeric_value, string_value


def node_interval(item: object) -> Interval:
    """The ``[tstart, tend]`` interval of an element."""
    return Interval(*_node_days(item))


def _node_days(item: object) -> tuple[int, int]:
    """The ``tstart`` and ``tend`` days of an element."""
    if not isinstance(item, Element):
        raise XQueryTypeError(
            f"temporal functions need timestamped elements, got "
            f"{type(item).__name__}"
        )
    tstart = item.get("tstart")
    tend = item.get("tend")
    if tstart is None or tend is None:
        raise XQueryTypeError(
            f"element <{item.name}> carries no tstart/tend attributes"
        )
    return parse_date(tstart), parse_date(tend)


def _single_node(seq: list, fn: str) -> Element | None:
    """One node, or None for the empty sequence (which propagates:
    temporal functions on () return (), reading as false in predicates)."""
    if not seq:
        return None
    if len(seq) != 1:
        raise XQueryTypeError(f"{fn}() expects one node, got {len(seq)}")
    return seq[0]


def interval_element(interval: Interval) -> Element:
    """Build ``<interval tstart=".." tend=".."/>``."""
    element = Element("interval")
    element.set("tstart", format_date(interval.start))
    element.set("tend", format_date(interval.end))
    return element


# -- accessors ----------------------------------------------------------------


def fn_tstart(ctx, seq):
    node = _single_node(seq, "tstart")
    if node is None:
        return []
    return [DateValue(node_interval(node).start)]


def fn_tend(ctx, seq):
    """End of the interval; *now* is reported as the current date.

    Paper Section 4.3: ``tend`` returns the interval end "if this is
    different from 9999-12-31 and current_date otherwise".
    """
    node = _single_node(seq, "tend")
    if node is None:
        return []
    end = node_interval(node).end
    if end == FOREVER:
        return [DateValue(ctx.current_date)]
    return [DateValue(end)]


def fn_tinterval(ctx, seq):
    node = _single_node(seq, "tinterval")
    if node is None:
        return []
    return [interval_element(node_interval(node))]


def fn_timespan(ctx, seq):
    """Days covered by the node's interval (clamped to the current date)."""
    node = _single_node(seq, "timespan")
    if node is None:
        return []
    interval = node_interval(node)
    end = ctx.current_date if interval.end == FOREVER else interval.end
    return [end - interval.start + 1]


def fn_telement(ctx, start_seq, end_seq):
    start = _as_days(start_seq, "telement")
    end = _as_days(end_seq, "telement")
    element = Element("telement")
    element.set("tstart", format_date(start))
    element.set("tend", format_date(end))
    return [element]


def _as_days(seq: list, fn: str) -> int:
    if len(seq) != 1:
        raise XQueryTypeError(f"{fn}() expects one value")
    item = seq[0]
    if isinstance(item, DateValue):
        return item.days
    if isinstance(item, Element):
        return node_interval(item).start
    if isinstance(item, str):
        from repro.util.timeutil import parse_date

        return parse_date(item)
    return int(numeric_value(item))


# -- Allen predicates ---------------------------------------------------------------


def _binary_relation(name: str, relation):
    def fn(ctx, left_seq, right_seq):
        left_node = _single_node(left_seq, name)
        right_node = _single_node(right_seq, name)
        if left_node is None or right_node is None:
            return []
        return [relation(node_interval(left_node), node_interval(right_node))]

    fn.__name__ = f"fn_{name}"
    fn.__doc__ = f"Allen relation ``{name}`` over two timestamped nodes."
    return fn


fn_toverlaps = _binary_relation("toverlaps", Interval.overlaps)
fn_tprecedes = _binary_relation("tprecedes", Interval.precedes)
fn_tcontains = _binary_relation("tcontains", Interval.contains)
fn_tequals = _binary_relation("tequals", Interval.equals)
fn_tmeets = _binary_relation("tmeets", Interval.meets)


def fn_overlapinterval(ctx, left_seq, right_seq):
    """The overlapped interval of two nodes, or empty when disjoint."""
    left_node = _single_node(left_seq, "overlapinterval")
    right_node = _single_node(right_seq, "overlapinterval")
    if left_node is None or right_node is None:
        return []
    shared = node_interval(left_node).intersect(node_interval(right_node))
    if shared is None:
        return []
    return [interval_element(shared)]


# -- restructuring -----------------------------------------------------------------------


def fn_coalesce(ctx, seq):
    """Coalesce a list of timestamped nodes into interval elements."""
    intervals = [node_interval(item) for item in seq]
    return [interval_element(iv) for iv in coalesce_intervals(intervals)]


def fn_restructure(ctx, left_seq, right_seq):
    """All overlapped periods between two node lists (QUERY 6)."""
    left = [node_interval(item) for item in left_seq]
    right = [node_interval(item) for item in right_seq]
    return [
        interval_element(iv) for iv in restructure_intervals(left, right)
    ]


# -- now rewriting ----------------------------------------------------------------------------


def _rewrite_now(node: Element, replacement: str) -> Element:
    clone = node.copy()
    stack = [clone]
    while stack:
        current = stack.pop()
        for attr, value in list(current.attrs.items()):
            if value == FOREVER_STR:
                current.attrs[attr] = replacement
        for child in current.children:
            if isinstance(child, Element):
                stack.append(child)
            elif isinstance(child, Text) and child.value == FOREVER_STR:
                child.value = replacement
    return clone


def fn_rtend(ctx, seq):
    """Replace every ``9999-12-31`` with the current date, recursively."""
    return [
        _rewrite_now(_require_element(item), format_date(ctx.current_date))
        for item in seq
    ]


def fn_externalnow(ctx, seq):
    """Replace every ``9999-12-31`` with the string ``now``, recursively."""
    return [
        _rewrite_now(_require_element(item), NOW_LABEL) for item in seq
    ]


def _require_element(item: object) -> Element:
    if not isinstance(item, Element):
        raise XQueryTypeError("rtend/externalnow need element arguments")
    return item


# -- temporal aggregates ----------------------------------------------------------------------------


def _temporal_aggregate(name: str, kind: str):
    def fn(ctx, seq):
        rows = []
        for item in seq:
            start, end = _node_days(item)
            rows.append((numeric_value(item), start, end))
        out = []
        for value, start, end in sweep_aggregate(rows, kind=kind):
            element = interval_element(Interval(start, end))
            element.name = name
            element.append(Text(string_value(value)))
            out.append(element)
        return out

    fn.__name__ = f"fn_{name}"
    fn.__doc__ = (
        f"Temporal aggregate ``{name}``: constant-{kind} periods over the "
        f"input nodes' value histories (paper QUERY 5 strategy)."
    )
    return fn


fn_tavg = _temporal_aggregate("tavg", "avg")
fn_tsum = _temporal_aggregate("tsum", "sum")
fn_tcount = _temporal_aggregate("tcount", "count")
fn_tmin = _temporal_aggregate("tmin", "min")
fn_tmax = _temporal_aggregate("tmax", "max")


def fn_rising(ctx, seq):
    """RISING: the longest period during which the value never decreased.

    Returns an interval element for the longest rising run (paper
    Section 4: "other temporal aggregates such as RISING").
    """
    timed = sorted(
        ((node_interval(item), numeric_value(item)) for item in seq),
        key=lambda pair: pair[0].start,
    )
    if not timed:
        return []
    best: Interval | None = None
    run_start = timed[0][0].start
    prev_value = timed[0][1]
    prev_end = timed[0][0].end
    for interval, value in timed[1:]:
        if value >= prev_value:
            prev_end = interval.end
        else:
            candidate = Interval(run_start, prev_end)
            if best is None or candidate.timespan() > best.timespan():
                best = candidate
            run_start = interval.start
            prev_end = interval.end
        prev_value = value
    candidate = Interval(run_start, prev_end)
    if best is None or candidate.timespan() > best.timespan():
        best = candidate
    return [interval_element(best)]


TEMPORAL_FUNCTIONS = {
    "tstart": fn_tstart,
    "tend": fn_tend,
    "tinterval": fn_tinterval,
    "timespan": fn_timespan,
    "telement": fn_telement,
    "toverlaps": fn_toverlaps,
    "tprecedes": fn_tprecedes,
    "tcontains": fn_tcontains,
    "tequals": fn_tequals,
    "tmeets": fn_tmeets,
    "overlapinterval": fn_overlapinterval,
    "coalesce": fn_coalesce,
    "restructure": fn_restructure,
    "rtend": fn_rtend,
    "externalnow": fn_externalnow,
    "tavg": fn_tavg,
    "tsum": fn_tsum,
    "tcount": fn_tcount,
    "tmin": fn_tmin,
    "tmax": fn_tmax,
    "rising": fn_rising,
}
