"""H-document publisher: H-tables → temporally grouped XML views.

Produces the XML view of a relation's history (paper Figures 3-4): one
child element per key value, carrying the entity's interval, with an ``id``
child and the coalesced, timestamped history of every attribute nested
under it.

Segmented archives store redundant copies of tuples that were live at a
freeze (Section 6.1).  The publisher does not see them: it reads each
H-table through ``history_of``, which the ArchIS facade backs with the
deduplicating ``history_<t>()`` table function
(:mod:`repro.archis.tablefuncs`).  It then coalesces value-equivalent
adjacent periods, so the published view is identical whatever the
storage layout — the property the equivalence tests pin down.
"""

from __future__ import annotations

from repro.rdb.database import Database
from repro.util.intervals import Interval, coalesce_valued
from repro.util.timeutil import FOREVER, format_date
from repro.xmlkit.dom import Element, Text
from repro.archis.htables import RELATIONS_TABLE, TrackedRelation


def _timestamped(name: str, value: object, interval: Interval) -> Element:
    element = Element(name)
    element.set("tstart", format_date(interval.start))
    element.set("tend", format_date(interval.end))
    if value is not None:  # a NULL version is an element with no text
        element.append(Text(_render(value)))
    return element


def _render(value: object) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


def publish_relation(
    db: Database, relation: TrackedRelation, history_of
) -> Element:
    """Build the H-document for one tracked relation.

    ``history_of(table_name)`` returns an H-table's deduplicated
    ``(id, value..., tstart, tend)`` rows ordered by ``(id, tstart)``.
    """
    root = Element(f"{relation.name}s")
    root_interval = _relation_interval(db, relation.name)
    if root_interval is not None:
        root.set("tstart", format_date(root_interval[0]))
        root.set("tend", format_date(root_interval[1]))

    key_history: dict[object, list[Interval]] = {}
    for row in history_of(relation.key_table):
        key, tstart, tend = row[0], row[1], row[2]
        key_history.setdefault(key, []).append(Interval(tstart, tend))

    attr_history: dict[str, dict[object, list[tuple[object, Interval]]]] = {}
    for attribute in relation.attributes:
        per_key: dict[object, list[tuple[object, Interval]]] = {}
        for row in history_of(relation.attribute_table(attribute)):
            key, value, tstart, tend = row
            per_key.setdefault(key, []).append((value, Interval(tstart, tend)))
        attr_history[attribute] = per_key

    for key, intervals in key_history.items():  # (id, tstart) order
        entity_interval = Interval(
            intervals[0].start, max(iv.end for iv in intervals)
        )
        entity = Element(relation.name)
        entity.set("tstart", format_date(entity_interval.start))
        entity.set("tend", format_date(entity_interval.end))
        for interval in intervals:
            entity.append(_timestamped("id", key, interval))
        for attribute in relation.attributes:
            pairs = attr_history[attribute].get(key, [])
            for value, interval in coalesce_valued(pairs):
                entity.append(_timestamped(attribute, value, interval))
        root.append(entity)
    return root


def _relation_interval(db: Database, name: str) -> tuple[int, int] | None:
    if not db.has_table(RELATIONS_TABLE):
        return None
    for rel_name, tstart, tend in db.table(RELATIONS_TABLE).rows():
        if rel_name == name:
            return (tstart, tend if tend is not None else FOREVER)
    return None
