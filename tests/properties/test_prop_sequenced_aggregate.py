"""Property tests: the per-day sweep behind ``tavg`` and its siblings.

``sweep_aggregate`` collects each day's added and dropped values and
walks the distinct days once.  Through SQL (``SequencedAggregate``, so
NULL operands and ``GROUP BY`` are in play) its periods must equal a
pointwise model that evaluates every change day from scratch, for every
kind, with versions ending at ``FOREVER`` and versions opened and
closed on the same day.  On float inputs it must also be bit-identical
to the sorted-event sweep it replaced (kept below as the reference).
"""

from hypothesis import given, settings, strategies as st

from repro.rdb import ColumnType, Database
from repro.util.intervals import sweep_aggregate
from repro.util.timeutil import FOREVER

KINDS = ("avg", "sum", "count", "min", "max")


@st.composite
def versions(draw):
    """``(group, value, tstart, tend)`` rows: small integer values (so
    running sums are exact), NULLs, same-day versions and open ends."""
    start = draw(st.integers(0, 40))
    end = draw(st.one_of(
        st.just(start), st.integers(start, 60), st.just(FOREVER)
    ))
    value = draw(st.one_of(st.none(), st.integers(-50, 50)))
    return draw(st.integers(0, 2)), value, start, end


def pointwise(triples, kind):
    """The periods of one group, each change day evaluated directly."""
    days = sorted({s for _, s, _ in triples} | {e + 1 for _, _, e in triples})
    periods = []
    for day, next_day in zip(days, days[1:]):
        live = [v for v, s, e in triples if s <= day <= e]
        if not live:
            continue
        value = {
            "avg": lambda: float(sum(live)) / len(live),
            "sum": lambda: float(sum(live)),
            "count": lambda: len(live),
            "min": lambda: float(min(live)),
            "max": lambda: float(max(live)),
        }[kind]()
        last = periods[-1] if periods else None
        if last is not None and last[0] == value and last[2] == day - 1:
            periods[-1] = (value, last[1], next_day - 1)
        else:
            periods.append((value, day, next_day - 1))
    return [(value, s, min(e, FOREVER)) for value, s, e in periods]


def load(rows):
    db = Database()
    db.create_table(
        "h",
        [
            ("g", ColumnType.INT),
            ("v", ColumnType.INT),
            ("tstart", ColumnType.INT),
            ("tend", ColumnType.INT),
        ],
    )
    db.table("h").insert_many(rows)
    return db


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(versions(), max_size=14))
def test_sql_sweep_matches_the_pointwise_model(rows):
    db = load(rows)
    for kind in KINDS:
        for value_sql in ("*", "t.v") if kind == "count" else ("t.v",):
            counted = [
                (g, 1 if value_sql == "*" else v, s, e)
                for g, v, s, e in rows
                if value_sql == "*" or v is not None
            ]
            got = db.sql(f"SELECT t{kind}({value_sql}) FROM h t").rows
            assert got == pointwise([r[1:] for r in counted], kind), (
                kind, value_sql
            )
            got = db.sql(
                f"SELECT t.g, t{kind}({value_sql}) FROM h t GROUP BY t.g"
            ).rows
            expected = [
                (g, *period)
                for g in sorted({r[0] for r in rows})
                for period in pointwise(
                    [r[1:] for r in counted if r[0] == g], kind
                )
            ]
            assert got == expected, (kind, value_sql)


def sorted_events_reference(triples, kind):
    """The sweep before per-day collection: two events per row, one
    stable sort by ``(day, -sign)``, then the same walk."""
    events = []
    for value, start, end in triples:
        events.append((start, +1, float(value)))
        events.append((end + 1, -1, float(value)))
    events.sort(key=lambda e: (e[0], -e[1]))
    results, live = [], {}
    total, count = 0.0, 0
    open_value = open_start = None
    index = 0
    while index < len(events):
        point = events[index][0]
        while index < len(events) and events[index][0] == point:
            _, sign, value = events[index]
            if sign > 0:
                live[value] = live.get(value, 0) + 1
                total += value
                count += 1
            else:
                live[value] -= 1
                total -= value
                count -= 1
            index += 1
        if count == 0:
            new_value = None
        elif kind == "avg":
            new_value = total / count
        elif kind == "sum":
            new_value = total
        elif kind == "count":
            new_value = float(count)
        else:
            alive = [v for v, n in live.items() if n > 0]
            new_value = min(alive) if kind == "min" else max(alive)
        if open_value is not None and new_value != open_value:
            results.append((open_value, open_start, min(point - 1, FOREVER)))
            open_value = None
        if new_value is not None and open_value is None:
            open_value, open_start = new_value, point
    return results


FLOATS = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(
    st.tuples(
        FLOATS,
        st.integers(0, 30),
        st.one_of(st.integers(0, 30), st.just(FOREVER - 30)),
    ).map(lambda t: (t[0], t[1], t[1] + t[2])),
    max_size=25,
))
def test_bit_identical_to_the_sorted_event_sweep(triples):
    for kind in KINDS:
        got = sweep_aggregate(triples, kind)
        want = sorted_events_reference(triples, kind)
        assert [(v.hex(), s, e) for v, s, e in got] == [
            (v.hex(), s, e) for v, s, e in want
        ], kind
