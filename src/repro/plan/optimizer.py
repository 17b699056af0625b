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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

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
    """One rule application, e.g. ``segment-restriction: t1 -> segno 2``."""

    rule: str
    detail: str


@dataclass
class PlanContext:
    """Everything rules need: catalog access, name resolution, functions."""

    db: object
    scope: object
    functions: Mapping = field(default_factory=dict)

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
