"""The rule-based optimizer: a fixed pipeline of plan rewrites.

Rules run in a deliberate order — each one's output is the next one's
input:

1. ``constant-folding``   — evaluate constant arithmetic, drop vacuous
   conjuncts;
2. ``predicate-pushdown`` — move single-alias conjuncts from the Filter
   into their leaf scans, plus the equalities implied across joins
   (``a.x = b.y AND a.x = 4`` also pushes ``b.y = 4`` into ``b``);
3. ``segment-restriction``— the paper's Section 6.4 rewrite: snapshot /
   slicing windows over a clustered archive replace the full
   ``history_<t>()`` read with segment-restricted access, and a pinned
   ``id = k`` becomes the function's ``(k, k)`` key arguments, so the
   read probes one key (needs the windows and keys pushed down first);
4. ``index-selection``    — turn Scans with indexable predicates into
   B+ tree range scans (after segment restriction so a ``segno = k``
   equality can anchor the ``(segno, ...)`` indexes);
5. ``join-selection``     — consume equi-join conjuncts as hash-join
   keys.

Every firing is recorded (for EXPLAIN) and counted in the
``plan.rules_fired`` labeled metric.

A rule that decides on the *value* of a literal the statement cache
lifted (``ast.Literal.slot``) records that decision in ``ctx.guards``
(:class:`Guards`): the cached plan is reused for another binding of the
same statement shape only when every recorded check still holds.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

from repro.obs.metrics import get_registry

_RULES_FIRED = get_registry().labeled_counter("plan.rules_fired")


@dataclass(frozen=True)
class SegmentHints:
    """What the optimizer needs to know about one H-table's clustering.

    Provided per table by ``ArchIS`` through ``Database.segment_provider``
    so the SQL layer stays ignorant of the archive: ``compressed`` says
    whether the frozen segments live in BlockZIP BLOBs, and
    ``segments_overlapping(start, end)`` maps a date window to segment
    numbers (live segment included).
    """

    compressed: bool
    segments_overlapping: Callable[[int, int], list]


@dataclass(frozen=True)
class RuleFiring:
    """One rule application, e.g. ``segment-restriction: t1 -> segno 2``.

    ``detail`` is a string, or a :class:`LazyDetail` when it shows a
    lifted literal: that one renders when the report is made, so a
    shared plan shows the literals of the statement being explained.
    """

    rule: str
    detail: object


class LazyDetail:
    """A firing detail rendered on ``str()`` (and compared as rendered)."""

    __slots__ = ("render",)

    def __init__(self, render: Callable[[], str]) -> None:
        self.render = render

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return repr(self.render())

    def __eq__(self, other) -> bool:
        if isinstance(other, (str, LazyDetail)):
            return str(self) == str(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.render())


def literal_value(node):
    """A literal node's value (``DateLiteral``: its day number)."""
    return node.days if hasattr(node, "days") else node.value


def _same(left, right) -> bool:
    return type(left) is type(right) and left == right


class Guards:
    """The checks under which one plan serves another binding.

    Each check is ``values -> bool`` over the statement's lifted literal
    values, indexed by slot.  Unslotted nodes (values the rules made,
    or statements planned without the cache) need no check and are
    ignored.
    """

    def __init__(self) -> None:
        self.checks: list[Callable] = []
        self._seen: set = set()

    def _add(self, key, check: Callable) -> None:
        if key not in self._seen:
            self._seen.add(key)
            self.checks.append(check)

    def exact(self, node) -> None:
        """The plan depends on this literal's exact value."""
        slot = getattr(node, "slot", None)
        if slot is not None:
            value = literal_value(node)
            self._add(("exact", slot), lambda values: _same(values[slot], value))

    def typed(self, node) -> None:
        """The plan depends on this literal's type."""
        slot = getattr(node, "slot", None)
        if slot is not None:
            kind = type(literal_value(node))
            self._add(("type", slot), lambda values: type(values[slot]) is kind)

    def equal_pattern(self, value_nodes) -> None:
        """The plan depends on which of these values equal each other."""
        value_nodes = tuple(value_nodes)
        if not any(getattr(n, "slot", None) is not None for n in value_nodes):
            return
        recorded = _pattern(value_nodes, None)
        self.checks.append(
            lambda values: _pattern(value_nodes, values) == recorded
        )

    def check(self, check: Callable) -> None:
        """A decision no simpler check describes, e.g. a segment range."""
        self.checks.append(check)

    def admits(self, values) -> bool:
        return all(check(values) for check in self.checks)


def bound_value(node, values):
    """``node``'s value under ``values``: the bound value of a slotted
    literal, the node's own otherwise (``None`` binds the parse's)."""
    slot = getattr(node, "slot", None)
    if slot is not None and values is not None:
        return values[slot]
    return literal_value(node)


def _pattern(value_nodes, values) -> tuple:
    """For each node, the index of the first node equal to it as the
    rules compare nodes (a literal by its class and bound value)."""
    items = [
        (type(node), bound_value(node, values))
        if hasattr(node, "slot") else node
        for node in value_nodes
    ]
    return tuple(items.index(item) for item in items)


_ACTIVE_GUARDS: ContextVar[Guards | None] = ContextVar(
    "plan_guards", default=None
)


@contextmanager
def collecting_guards() -> Iterator[Guards]:
    """Collect the guards of every plan built on this thread inside the
    block (a statement's subquery plans included)."""
    guards = Guards()
    token = _ACTIVE_GUARDS.set(guards)
    try:
        yield guards
    finally:
        _ACTIVE_GUARDS.reset(token)


def active_guards() -> Guards:
    """The collector of the enclosing :func:`collecting_guards` block;
    planning outside one records into a collector nobody reads."""
    return _ACTIVE_GUARDS.get() or Guards()


@dataclass
class PlanContext:
    """Everything rules need: catalog access, name resolution, functions,
    and where to record value decisions."""

    db: object
    scope: object
    functions: Mapping = field(default_factory=dict)
    guards: Guards = field(default_factory=active_guards)

    def segment_hints(self, table_name: str) -> SegmentHints | None:
        provider = getattr(self.db, "segment_provider", None)
        if provider is None:
            return None
        return provider(table_name)


def run_rules(plan, ctx: PlanContext):
    """Apply the rule pipeline; returns ``(plan, tuple_of_firings)``."""
    from repro.plan import rules

    pipeline = (
        ("constant-folding", rules.fold_constants),
        ("predicate-pushdown", rules.push_down_predicates),
        ("segment-restriction", rules.restrict_segments),
        ("index-selection", rules.select_indexes),
        ("join-selection", rules.select_joins),
    )
    firings: list[RuleFiring] = []
    for name, rule in pipeline:
        plan, details = rule(plan, ctx)
        for detail in details:
            firings.append(RuleFiring(name, detail))
            _RULES_FIRED.inc(name)
    return plan, tuple(firings)
