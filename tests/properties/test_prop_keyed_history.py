"""Property tests: keyed history reads answer exactly like the naive plan.

The optimizer carries ``id = k`` into the ``history_<t>`` table
function's key arguments, so the read probes the ``(segno, id)`` index
per heap segment and inflates only the BlockZIP blocks that can hold the
key.  For random employee histories with at least two freezes — keys
deleted and re-inserted, keys that never existed — in four layouts (uncompressed;
compressed; compressed and then frozen again; mid-maintenance, where
each freeze ran only its logical switch and a first bounded step of the
sorted rewrite), every keyed read must answer exactly as the unoptimized
plan over the full history does:

- ``FOR SYSTEM_TIME AS OF d ... WHERE t.id = k``;
- ``FOR SYSTEM_TIME FROM lo TO hi ... WHERE t.id = k``, and the same
  window without a key;
- XQuery Q1 (a key's salary on a day) and Q3 (a key's salary history);
- and a ``:param`` key exactly as the literal one.

The read itself, ``history_<t>(lo, hi[, k, k])`` called for every
segment window with and without a key, yields its rows ordered by
``(id, tstart)`` with no version twice; each is a version of the naive
plan's full history, true end included, and the versions overlapping
the window's days are exactly the naive plan's.

Each query runs twice, as two bindings of one statement shape (another
key and day first), so the second binds the plan the statement cache
kept for the first — or re-plans where a guard refuses it — and both
must answer like the naive plan.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.util.timeutil import FOREVER, format_date, parse_date
from repro.xmlkit import serialize

START = parse_date("1990-01-01")
#: keys inserted on day one; 7 never exists
KEYS = (1, 2, 3, 4, 5)
ABSENT = 7
LAYOUTS = ("uncompressed", "compressed", "refrozen", "mid-maintenance")
DOC = 'doc("employees.xml")/employees/employee'


@st.composite
def histories(draw):
    """Rounds of (days to advance, one action per key) and the rounds
    after which the archive freezes (at least three: two before the
    ``refrozen`` layout compresses, one after).  A ``flash`` opens and
    closes a version on the same day (update or re-insert, then delete),
    so some versions end on a freeze boundary day without being live at
    the freeze."""
    count = draw(st.integers(6, 10))
    rounds = draw(
        st.lists(
            st.tuples(
                st.integers(1, 40),
                st.lists(
                    st.sampled_from(
                        ("update", "update", "delete", "flash", "keep")
                    ),
                    min_size=len(KEYS),
                    max_size=len(KEYS),
                ),
            ),
            min_size=count,
            max_size=count,
        )
    )
    freezes = draw(
        st.lists(
            st.integers(0, count - 1), min_size=3, max_size=4, unique=True
        )
    )
    # key 1 is always deleted and later re-inserted
    rounds[0][1][0] = "delete"
    rounds[-1][1][0] = "update"
    return rounds, sorted(freezes)


def build(layout: str, history) -> ArchIS:
    rounds, freezes = history
    db = Database()
    db.set_date(START)
    db.create_table(
        "employee",
        [("id", ColumnType.INT), ("salary", ColumnType.INT)],
        primary_key=("id",),
    )
    # U_min is low enough that only the drawn freezes happen
    archis = ArchIS(db, config=ArchISConfig(
        profile="atlas", umin=0.01, min_segment_rows=4,
        maintenance=(
            "background" if layout == "mid-maintenance" else "inline"
        ),
    ))
    archis.track_table("employee", document_name="employees.xml")
    table = db.table("employee")
    for key in KEYS:
        table.insert((key, 1000 * key))
    live = set(KEYS)
    for number, (advance, actions) in enumerate(rounds):
        db.advance_days(advance)
        for key, action in zip(KEYS, actions):
            salary = 1000 * key + 10 * number
            if action == "flash":
                if key in live:
                    table.update_where(
                        lambda r, k=key: r["id"] == k, {"salary": salary}
                    )
                else:
                    table.insert((key, salary))
                table.delete_where(lambda r, k=key: r["id"] == k)
                live.discard(key)
            elif action == "delete" and key in live:
                table.delete_where(lambda r, k=key: r["id"] == k)
                live.discard(key)
            elif action == "update" and key not in live:
                table.insert((key, salary))  # re-insert a deleted key
                live.add(key)
            elif action == "update":
                table.update_where(
                    lambda r, k=key: r["id"] == k, {"salary": salary}
                )
        archis.apply_pending()
        if number in freezes and layout == "mid-maintenance":
            segno = archis.segments.freeze_switch()
            for name in archis.segments.registered_tables():
                archis.segments.rewrite_step(name, segno, None, 2)
        elif number in freezes:
            archis.segments.freeze()
            if layout == "refrozen" and number == freezes[1]:
                archis.compress_archive()
    if layout == "compressed":
        archis.compress_archive()
    return archis


def both_ways(archis: ArchIS, *runs) -> tuple:
    """Each of ``runs`` in order with the optimizer on, then off, as two
    lists of answers.  Caches are dropped in between, so each way plans
    afresh; within a way, a run binds what the earlier runs cached."""
    optimized = [run() for run in runs]
    archis.reset_caches()
    archis.db.optimizer_enabled = False
    try:
        naive = [run() for run in runs]
    finally:
        archis.db.optimizer_enabled = True
        archis.reset_caches()
    return optimized, naive


def sql_rows(archis, text, params=None):
    return sorted(archis.sql(text, params).rows)


def xquery_rows(archis, text):
    rows = archis.xquery(text, allow_fallback=False).rows
    return sorted(serialize(row) for row in rows)


def check_read_contract(archis, keys) -> None:
    history = archis.db.table_function("history_employee_salary")
    segments = archis.segments
    periods = segments.archived_segments() + [
        (segments.live_segno, segments.live_start, FOREVER)
    ]
    archis.db.optimizer_enabled = False
    try:
        full = sql_rows(
            archis,
            "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
            f"FOR SYSTEM_TIME FROM 0 TO {FOREVER}",
        )
    finally:
        archis.db.optimizer_enabled = True
    for low, (lo, start, _) in enumerate(periods):
        for hi, _, end in periods[low:]:
            for key in (None, *keys):
                args = (lo, hi) if key is None else (lo, hi, key, key)
                # as every reader does: a background rewrite step (a
                # freeze the history itself triggers) must not interleave
                with archis.history_lock.read():
                    rows = [row[:4] for row in history(*args)]
                versions = [(row[0], row[2]) for row in rows]
                assert versions == sorted(set(versions)), args
                assert set(rows) <= set(full), args
                assert sorted(
                    row for row in rows if row[2] <= end and row[3] >= start
                ) == [
                    row for row in full
                    if key in (None, row[0])
                    and row[2] <= end and row[3] >= start
                ], args


@seed(32)
@settings(max_examples=25, deadline=None)
@given(
    history=histories(),
    keys=st.lists(st.sampled_from(KEYS), min_size=1, max_size=2),
    offsets=st.lists(st.integers(0, 400), min_size=2, max_size=2),
    width=st.integers(1, 200),
)
def test_keyed_reads_match_the_naive_plan(history, keys, offsets, width):
    for layout in LAYOUTS:
        archis = build(layout, history)
        assert archis.segments.freeze_count >= 3
        check_read_contract(archis, (*keys, ABSENT))
        end = archis.db.current_date
        span = max(end - START, 1)
        day = START + offsets[0] % span
        low = START + offsets[1] % span
        high = low + width
        for key in (*keys, 1, ABSENT):
            # the first binding of each shape: another key and day
            other_key = KEYS[key % len(KEYS)]
            other_day = START + (day - START + width) % span

            def as_of(on):
                return (
                    "SELECT t.id, t.salary FROM employee_salary t "
                    f"FOR SYSTEM_TIME AS OF DATE '{format_date(on)}' "
                    "WHERE t.id = "
                )

            window = (
                "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
                f"FOR SYSTEM_TIME FROM DATE '{format_date(low)}' "
                f"TO DATE '{format_date(high)}' WHERE t.id = "
            )
            for first, text in (
                (as_of(other_day), as_of(day)), (window, window),
            ):
                literal, naive = both_ways(
                    archis,
                    lambda t=first: sql_rows(archis, t + str(other_key)),
                    lambda t=text: sql_rows(archis, t + str(key)),
                )
                assert literal == naive, (layout, text, key)
                param = sql_rows(archis, text + ":k", {"k": key})
                assert param == literal[1], (layout, text, key)

            def q1(on, k):
                on = format_date(on)
                return (
                    f'for $s in {DOC}[id="{k}"]/salary'
                    f'[tstart(.) <= xs:date("{on}") '
                    f'and tend(.) >= xs:date("{on}")] return $s'
                )

            def q3(on, k):
                return f'for $s in {DOC}[id="{k}"]/salary return $s'

            for query in (q1, q3):
                optimized, naive = both_ways(
                    archis,
                    lambda q=query: xquery_rows(archis, q(other_day, other_key)),
                    lambda q=query: xquery_rows(archis, q(day, key)),
                )
                assert optimized == naive, (layout, query(day, key))
        whole = (
            "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
            f"FOR SYSTEM_TIME FROM DATE '{format_date(low)}' "
            f"TO DATE '{format_date(high)}'"
        )
        optimized, naive = both_ways(archis, lambda: sql_rows(archis, whole))
        assert optimized == naive, (layout, whole)
