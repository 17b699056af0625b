"""Logical-plan IR nodes.

Plans are immutable trees of frozen dataclasses.  Expressions inside the
nodes are plain SQL AST nodes (:mod:`repro.sql.ast`); nothing is compiled
until the physical layer, so rules can rewrite freely.

Row flow: the leaves and ``Join``/``Filter``/``Sort`` stages operate on
flat row tuples whose positions follow each operator's ``(alias,
column)`` layout (see :mod:`repro.plan.physical`); ``Project`` and
``Aggregate`` turn those rows into output tuples; ``Distinct`` and
``Limit`` operate on the output tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Output:
    """One SELECT-list item: expression, output name, explicit AS flag."""

    expr: object
    name: str
    aliased: bool = False


@dataclass(frozen=True)
class Scan:
    """Heap scan of a base table with pushed-down filters."""

    table: str
    alias: str
    predicates: tuple = ()


@dataclass(frozen=True)
class IndexScan:
    """B+ tree range scan: equality prefix plus at most one range column.

    ``eq`` holds ``(column, value_node)`` pairs in index-column order;
    ``low``/``high`` are value AST nodes bounding ``range_column``.  Range
    conjuncts are *also* kept in ``predicates`` (NULL keys sort below all
    values in the index, so a scan unbounded from below would otherwise
    admit NULL rows).
    """

    table: str
    alias: str
    index_name: str
    eq: tuple = ()
    range_column: str | None = None
    low: object = None
    low_inclusive: bool = True
    high: object = None
    high_inclusive: bool = True
    predicates: tuple = ()


@dataclass(frozen=True)
class FunctionScan:
    """``TABLE(fn(args)) AS alias(columns)`` with pushed-down filters."""

    function: str
    args: tuple
    alias: str
    columns: tuple
    predicates: tuple = ()


@dataclass(frozen=True)
class Join:
    """Inner join; ``pairs`` are ``((lalias, lcol), (ralias, rcol))`` keys.

    ``strategy`` is ``"hash"`` when equi-join keys were found (build side
    is the right child) and ``"nested"`` for the filtered cross product.
    """

    left: object
    right: object
    pairs: tuple = ()
    strategy: str = "nested"


@dataclass(frozen=True)
class Filter:
    child: object
    predicates: tuple = ()


@dataclass(frozen=True)
class Project:
    child: object
    items: tuple = ()  # of Output


@dataclass(frozen=True)
class Aggregate:
    """Hash grouping; handles its own ordering since ORDER BY keys may
    contain aggregates."""

    child: object
    group_by: tuple = ()  # of expression nodes
    items: tuple = ()  # of Output
    order_by: tuple = ()  # of (expr, descending)


@dataclass(frozen=True)
class TemporalJoin:
    """Sequenced (interval-intersecting) equi-join.

    Matches rows on ``pairs`` like a hash :class:`Join`, then intersects
    the two sides' ``[tstart, tend]`` validity intervals: pairs whose
    intervals do not overlap are dropped, surviving pairs carry the
    intersection as their interval (every alias on both sides sees the
    intersected ``tstart``/``tend``).
    """

    left: object
    right: object
    pairs: tuple = ()  # of ((lalias, lcol), (ralias, rcol))


@dataclass(frozen=True)
class Coalesce:
    """NORMALIZE-style period coalescing over output tuples.

    Groups rows by every output column except the period columns at
    ``start_index``/``end_index``, merges adjacent-or-overlapping
    ``[tstart, tend]`` intervals per group, and emits one row per merged
    period.  Sits above :class:`Project`/:class:`Aggregate` (tuple flow),
    like :class:`Distinct`.
    """

    child: object
    start_index: int
    end_index: int


@dataclass(frozen=True)
class SequencedAggregate:
    """Time-weighted aggregate (``tavg``/``tsum``/``tcount``/...).

    Sweeps each group's ``(value, [tstart, tend])`` pairs into
    constant-value periods and emits one tuple per (group, period).
    ``items`` are the SELECT outputs; the aggregate call itself appears
    at ``value_index`` and the last two items are the synthesized
    ``tstart``/``tend`` period bounds.
    """

    child: object
    kind: str  # avg | sum | count | min | max
    operand: object | None  # value expression; None for tcount(*)
    start: object  # ColumnRef reading the interval start
    end: object  # ColumnRef reading the interval end
    value_index: int = 0
    group_by: tuple = ()  # of expression nodes
    items: tuple = ()  # of Output (incl. trailing tstart/tend)


@dataclass(frozen=True)
class Sort:
    child: object
    keys: tuple = ()  # of (expr, descending)


@dataclass(frozen=True)
class Distinct:
    child: object


@dataclass(frozen=True)
class Limit:
    child: object
    count: int = 0


LEAVES = (Scan, IndexScan, FunctionScan)
_CHILD_FIELDS = {
    Join: ("left", "right"),
    TemporalJoin: ("left", "right"),
    Filter: ("child",),
    Project: ("child",),
    Aggregate: ("child",),
    SequencedAggregate: ("child",),
    Sort: ("child",),
    Distinct: ("child",),
    Coalesce: ("child",),
    Limit: ("child",),
}


def children(node) -> tuple:
    names = _CHILD_FIELDS.get(type(node), ())
    return tuple(getattr(node, name) for name in names)


def map_children(node, fn):
    """Rebuild ``node`` with ``fn`` applied to each child plan."""
    names = _CHILD_FIELDS.get(type(node), ())
    if not names:
        return node
    updates = {}
    for name in names:
        child = getattr(node, name)
        new_child = fn(child)
        if new_child is not child:
            updates[name] = new_child
    return replace(node, **updates) if updates else node


def leaves(node):
    """Yield every leaf (scan) node of the plan, left to right."""
    if isinstance(node, LEAVES):
        yield node
        return
    for child in children(node):
        yield from leaves(child)


def node_aliases(node) -> set[str]:
    """The set of source aliases bound below (or at) ``node``."""
    return {leaf.alias for leaf in leaves(node)}


def contains_join(node) -> bool:
    if isinstance(node, Join):
        return True
    return any(contains_join(child) for child in children(node))


def output_node(node):
    """The node that defines the plan's output columns (Project,
    Aggregate or SequencedAggregate)."""
    while isinstance(node, (Limit, Distinct, Coalesce)):
        node = node.child
    if not isinstance(node, (Project, Aggregate, SequencedAggregate)):
        raise TypeError(f"plan has no output node: {type(node).__name__}")
    return node
