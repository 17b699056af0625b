"""A pointwise model of an archived relation's history.

The model is built from the change stream a client issued — inserts,
attribute updates and deletes, each stamped with its day — and defines
every version pointwise on closed intervals.  It shares no code with
the archiver (``HTableWriter``, ``BatchArchiver``), so an archive that
agrees with it is right for a reason other than "the writer agrees with
itself".

Transaction time is day-granular, as in the archive:

* an attribute that changes on day T closes its old version at T - 1
  and opens the new one at T; a second change on the same day replaces
  the day's version (only the day's final state is history);
* a delete on day T closes every version at T - 1, except that a
  version opened on T itself keeps the one-day interval [T, T];
* re-inserting a deleted key opens fresh versions at the re-insert day
  — or, on the day of the delete, reopens that day's versions with the
  new values.
"""

from __future__ import annotations

from bisect import bisect_right

from repro import FOREVER

#: the chain of the key table (the tuple's own lifetime, no value)
KEY = None


class Oracle:
    """key -> attribute -> closed ``[start, end, value]`` intervals.

    ``attributes`` names the relation's non-key columns in row order;
    rows passed to :meth:`insert` are ``(key, *values)``.  The key
    table's chain lives under :data:`KEY` with ``None`` values.
    """

    def __init__(self, attributes) -> None:
        self.attributes = tuple(attributes)
        self.chains = {attr: {} for attr in (KEY, *self.attributes)}

    def insert(self, day: int, row: tuple) -> None:
        key = row[0]
        for attr, value in zip((KEY, *self.attributes), (None, *row[1:])):
            chain = self.chains[attr].setdefault(key, [])
            if chain and chain[-1][0] == day:
                # deleted and re-inserted the same day: the day's version
                # is live again, with the re-inserted value
                chain[-1][1:] = [FOREVER, value]
            else:
                chain.append([day, FOREVER, value])

    def update(self, day: int, key: int, attr: str, value) -> None:
        chain = self.chains[attr][key]
        if chain[-1][0] == day:
            chain[-1][2] = value
        else:
            chain[-1][1] = day - 1
            chain.append([day, FOREVER, value])

    def delete(self, day: int, key: int) -> None:
        for chains in self.chains.values():
            version = chains[key][-1]
            version[1] = max(version[0], day - 1)

    # -- pointwise definitions ---------------------------------------------

    def history(self, attr: str | None = KEY) -> list[tuple]:
        """Every version of ``attr`` as the archive's history rows:
        ``(id, value, start, end)``, or ``(id, start, end)`` for the key
        table, sorted by ``(id, start)``."""
        out = []
        for key in sorted(self.chains[attr]):
            for start, end, value in self.chains[attr][key]:
                if attr is KEY:
                    out.append((key, start, end))
                else:
                    out.append((key, value, start, end))
        return out

    def at(self, attr: str, key: int, day: int):
        """The version of ``key`` valid on ``day`` (None when it was not
        alive then)."""
        chain = self.chains[attr].get(key, [])
        index = bisect_right(chain, day, key=lambda v: v[0]) - 1
        if index < 0 or chain[index][1] < day:
            return None
        return chain[index]

    def snapshot(self, attr: str, day: int) -> dict:
        """key -> value on ``day``."""
        out = {}
        for key in self.chains[attr]:
            version = self.at(attr, key, day)
            if version is not None:
                out[key] = version[2]
        return out

    def days(self) -> list[int]:
        """Every day on which some version starts or ends."""
        out = set()
        for chains in self.chains.values():
            for chain in chains.values():
                for start, end, _ in chain:
                    out.add(start)
                    if end != FOREVER:
                        out.add(end)
        return sorted(out)


__all__ = ["KEY", "Oracle"]
