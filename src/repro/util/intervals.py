"""Closed temporal intervals and the Allen-style relations the paper uses.

ArchIS timestamps every element and tuple with an inclusive interval
``[tstart, tend]`` at day granularity.  This module is the single source of
truth for interval semantics: the XQuery temporal function library, the SQL
UDFs the translator emits, the clustering code and the publisher all call
into it, which is what guarantees the two query paths agree.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.util.timeutil import FOREVER, format_date, parse_date


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[start, end]`` in days since the epoch."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(
                f"interval start {self.start} after end {self.end}"
            )

    @classmethod
    def from_strings(cls, start: str, end: str) -> "Interval":
        """Build an interval from ``YYYY-MM-DD`` strings (``now`` allowed)."""
        return cls(parse_date(start), parse_date(end))

    @classmethod
    def point(cls, instant: int) -> "Interval":
        """The degenerate interval containing a single day."""
        return cls(instant, instant)

    # -- Allen-style relations (paper Section 4.2) ---------------------

    def overlaps(self, other: "Interval") -> bool:
        """True when the two closed intervals share at least one day."""
        return self.start <= other.end and other.start <= self.end

    def contains(self, other: "Interval") -> bool:
        """True when ``other`` lies entirely within this interval."""
        return self.start <= other.start and other.end <= self.end

    def contains_point(self, instant: int) -> bool:
        """True when the instant falls inside the interval."""
        return self.start <= instant <= self.end

    def precedes(self, other: "Interval") -> bool:
        """True when this interval ends strictly before ``other`` starts."""
        return self.end < other.start

    def meets(self, other: "Interval") -> bool:
        """True when ``other`` starts on the day after this interval ends.

        With closed day-granularity intervals, adjacency means
        ``self.end + 1 == other.start``.
        """
        return self.end + 1 == other.start

    def equals(self, other: "Interval") -> bool:
        """True when both endpoints coincide."""
        return self.start == other.start and self.end == other.end

    def intersect(self, other: "Interval") -> "Interval | None":
        """The overlapped interval, or ``None`` when disjoint.

        This is the paper's ``overlapinterval`` primitive.
        """
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def adjacent_or_overlapping(self, other: "Interval") -> bool:
        """True when the union of the two intervals is itself an interval."""
        return (
            self.overlaps(other)
            or self.meets(other)
            or other.meets(self)
        )

    def merge(self, other: "Interval") -> "Interval":
        """The covering interval; only meaningful for coalescable pairs."""
        return Interval(min(self.start, other.start), max(self.end, other.end))

    # -- derived quantities --------------------------------------------

    def timespan(self) -> int:
        """Number of days in the interval (inclusive of both ends).

        An interval ending at *now* has an open-ended span; we report the
        span up to the end-of-time marker, which callers compare rather
        than display.
        """
        return self.end - self.start + 1

    def is_current(self) -> bool:
        """True when the interval extends to ``now`` (until-changed)."""
        return self.end == FOREVER

    def __str__(self) -> str:
        return f"[{format_date(self.start)}, {format_date(self.end)}]"


def coalesce(intervals: Iterable[Interval]) -> list[Interval]:
    """Coalesce intervals whose union is connected.

    Value-equivalent attribute histories are grouped by the publisher when
    their intervals are *adjacent or overlapping* (paper Section 3).  The
    result is sorted and maximal: no two returned intervals can be merged.
    """
    ordered = sorted(intervals)
    merged: list[Interval] = []
    for interval in ordered:
        if merged and merged[-1].adjacent_or_overlapping(interval):
            merged[-1] = merged[-1].merge(interval)
        else:
            merged.append(interval)
    return merged


def coalesce_valued(
    pairs: Iterable[tuple[object, Interval]],
) -> list[tuple[object, Interval]]:
    """Coalesce ``(value, interval)`` pairs per distinct value.

    The output preserves chronological order of the coalesced periods and is
    exactly the temporally grouped representation of an attribute history.
    """
    by_value: dict[object, list[Interval]] = {}
    for value, interval in pairs:
        by_value.setdefault(value, []).append(interval)
    out: list[tuple[object, Interval]] = []
    for value, ivs in by_value.items():
        for merged in coalesce(ivs):
            out.append((value, merged))
    out.sort(key=lambda item: (item[1].start, item[1].end))
    return out


def restructure(
    left: Sequence[Interval], right: Sequence[Interval]
) -> list[Interval]:
    """All pairwise overlapped intervals between two interval lists.

    Used by QUERY 6 (paper Section 4) to find periods during which two
    attribute histories held simultaneously.  The result is coalesced.
    """
    overlaps = []
    for a in left:
        for b in right:
            shared = a.intersect(b)
            if shared is not None:
                overlaps.append(shared)
    return coalesce(overlaps)


def sweep_aggregate(
    rows: Iterable[tuple[float, int, int]], kind: str = "avg"
) -> list[tuple[float, int, int]]:
    """Temporal aggregate over weighted intervals in a single sweep.

    Implements the paper's ``tavg`` strategy (QUERY 5): each ``(value,
    start, end)`` row adds its value on day ``start`` and drops it on
    day ``end + 1``.  The rows are collected into per-day add and drop
    lists, the distinct days are sorted once, and the walk over them
    keeps a running sum and count: whenever the aggregate value
    changes, the previous constant period is closed and a new one
    opened.  Returns the ``(value, start, end)`` periods in order.

    A day's adds are applied before its drops, each in input order — the
    order a stable sort of ``(day, -sign)`` events gives — so float
    results do not depend on how the days were collected.

    ``kind`` selects ``avg``, ``sum``, ``count``, ``min`` or ``max``.  The
    min/max variants recompute from the live multiset at each change day,
    which is still a single chronological pass.  A row whose start lies
    after its end raises :class:`ValueError`, as an :class:`Interval`
    would.
    """
    if kind not in _SWEEP_KINDS:
        raise ValueError(f"unknown temporal aggregate kind: {kind}")
    adds: defaultdict[int, list[float]] = defaultdict(list)
    drops: defaultdict[int, list[float]] = defaultdict(list)
    for value, start, end in rows:
        if start > end:
            raise ValueError(f"interval start {start} after end {end}")
        value = float(value)
        adds[start].append(value)
        drops[end + 1].append(value)
    extreme = {"min": min, "max": max}.get(kind)
    live: dict[float, int] = {}
    total = 0.0
    count = 0
    periods: list[tuple[float, int, int]] = []
    open_value: float | None = None
    open_start = 0
    for day in sorted(adds.keys() | drops.keys()):
        added = adds.get(day, ())
        dropped = drops.get(day, ())
        for value in added:
            total += value
        for value in dropped:
            total -= value
        count += len(added) - len(dropped)
        if extreme is not None:
            for value in added:
                live[value] = live.get(value, 0) + 1
            for value in dropped:
                if live[value] == 1:
                    del live[value]
                else:
                    live[value] -= 1
        if count == 0:
            value = None
        elif kind == "avg":
            value = total / count
        elif kind == "sum":
            value = total
        elif kind == "count":
            value = float(count)
        else:
            value = extreme(live)
        if open_value is not None and value != open_value:
            # a period running through the end-of-time sentinel ends now
            periods.append((open_value, open_start, min(day - 1, FOREVER)))
            open_value = None
        if value is not None and open_value is None:
            open_value = value
            open_start = day
    # every add has its drop, so the walk ends with no period open
    return periods


_SWEEP_KINDS = ("avg", "sum", "count", "min", "max")
