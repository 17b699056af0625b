"""Seeded employee history and the in-memory oracle that mirrors it.

The generator is the paper's evaluation schema, ``employee(id, name,
salary, title, deptno)``: ``population`` employees hired on day 0, then
seeded random raises / title changes / department moves (70/15/15)
spread evenly over 17 years.  Every update changes the value, so the
number of H-table rows, the freeze points (U_min is a pure function of
the update count when nobody leaves) and hence the stored bytes depend
on the sizes only, never on the seed.

The oracle is built from the same event stream and defines every query
class pointwise on closed intervals; nothing in it reads the system
under test.
"""

from __future__ import annotations

import random
from bisect import bisect_right

from repro import FOREVER, parse_date

DAY0 = parse_date("1985-01-01")
SPAN_DAYS = 17 * 365
COLUMNS = ("id", "name", "salary", "title", "deptno")
ATTRIBUTES = COLUMNS[1:]
TITLES = (
    "Assistant Engineer",
    "Engineer",
    "Sr Engineer",
    "TechLeader",
    "Manager",
    "Sr Manager",
)
DEPARTMENTS = tuple(f"d{n:03d}" for n in range(1, 21))


def user_bytes(values) -> int:
    """UTF-8 bytes of the values a client wrote."""
    return sum(len(str(value).encode("utf-8")) for value in values)


class History:
    """One generated event stream: hires, then ``updates`` changes.

    ``hires`` is a list of full rows (all on ``DAY0``); ``changes`` is a
    list of ``(day, key, column, value)`` in transaction order.
    """

    def __init__(self, seed: int, population: int, updates: int) -> None:
        rng = random.Random(seed)
        self.population = population
        self.keys = range(1, population + 1)
        self.hires = [
            (
                key,
                f"emp{key}",
                rng.randrange(30000, 70000, 500),
                rng.choice(TITLES),
                rng.choice(DEPARTMENTS),
            )
            for key in self.keys
        ]
        current = {row[0]: list(row) for row in self.hires}
        self.changes = []
        for number in range(updates):
            day = DAY0 + 1 + number * (SPAN_DAYS - 1) // max(updates, 1)
            key = rng.randint(1, population)
            pick = rng.random()
            row = current[key]
            if pick < 0.70:
                column, value = "salary", row[2] + rng.randint(1, 2000)
            elif pick < 0.85:
                column = "title"
                value = rng.choice([t for t in TITLES if t != row[3]])
            else:
                column = "deptno"
                value = rng.choice([d for d in DEPARTMENTS if d != row[4]])
            row[COLUMNS.index(column)] = value
            self.changes.append((day, key, column, value))
        self.last_day = self.changes[-1][0] if self.changes else DAY0
        self.user_bytes = sum(user_bytes(row) for row in self.hires) + sum(
            user_bytes([change[3]]) for change in self.changes
        )

    @property
    def entries(self) -> int:
        """Update-log entries this history produces (one per DML)."""
        return len(self.hires) + len(self.changes)


class Oracle:
    """key -> attribute -> closed ``[start, end, value]`` intervals.

    Transaction time is day-granular: a second change to the same
    attribute on the same day replaces the day's version (only the
    day's final state is history).
    """

    def __init__(self, history: History | None = None) -> None:
        self.chains = {attr: {} for attr in ATTRIBUTES}
        if history is not None:
            for row in history.hires:
                self.insert(DAY0, row)
            for day, key, column, value in history.changes:
                self.update(day, key, column, value)

    def insert(self, day: int, row: tuple) -> None:
        for attr, value in zip(ATTRIBUTES, row[1:]):
            self.chains[attr][row[0]] = [[day, FOREVER, value]]

    def update(self, day: int, key: int, attr: str, value) -> None:
        chain = self.chains[attr][key]
        if chain[-1][0] == day:
            chain[-1][2] = value
        else:
            chain[-1][1] = day - 1
            chain.append([day, FOREVER, value])

    # -- pointwise definitions ---------------------------------------------

    def history(self, attr: str, key: int) -> list:
        return self.chains[attr][key]

    def at(self, attr: str, key: int, day: int):
        """The version of ``key`` valid on ``day`` (None before hire)."""
        chain = self.chains[attr][key]
        index = bisect_right(chain, day, key=lambda v: v[0]) - 1
        return chain[index] if index >= 0 else None

    def snapshot(self, attr: str, day: int, keys=None) -> dict:
        """key -> value on ``day``."""
        out = {}
        for key in keys if keys is not None else self.chains[attr]:
            version = self.at(attr, key, day)
            if version is not None:
                out[key] = version[2]
        return out

    def slice(self, attr: str, key: int, lo: int, hi: int) -> list:
        """Versions of ``key`` overlapping the closed window [lo, hi]."""
        return [
            v for v in self.chains[attr][key] if v[0] <= hi and v[1] >= lo
        ]

    def versions(self, attr: str, keys=None):
        chains = self.chains[attr]
        for key in keys if keys is not None else chains:
            for version in chains[key]:
                yield key, version

    def temporal_join(self, left: str, right: str, keys=None) -> list:
        """(key, left value, right value, start, end) per overlap."""
        out = []
        for key in keys if keys is not None else self.chains[left]:
            for a in self.chains[left][key]:
                for b in self.slice(right, key, a[0], a[1]):
                    out.append(
                        (key, a[2], b[2], max(a[0], b[0]), min(a[1], b[1]))
                    )
        return out

    def average(self, attr: str, day: int, keys=None) -> float:
        """The sequenced (time-weighted) average, sampled on ``day``."""
        values = self.snapshot(attr, day, keys).values()
        return sum(values) / len(values)

    def change_days(self, attr: str, keys=None) -> set:
        """Days on which the set of valid versions changes."""
        return {version[0] for _, version in self.versions(attr, keys)}

    def max_increase(self, attr: str, after: int, window: int):
        """Table 3 Q6: the largest rise between two versions of one key
        that start at or after ``after`` and at most ``window`` days
        apart (None when no such pair exists)."""
        best = None
        for chain in self.chains[attr].values():
            recent = [v for v in chain if v[0] >= after]
            for i, a in enumerate(recent):
                for b in recent[i + 1:]:
                    if b[0] - a[0] > window:
                        break
                    if best is None or b[2] - a[2] > best:
                        best = b[2] - a[2]
        return best
