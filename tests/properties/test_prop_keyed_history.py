"""Property tests: keyed history reads answer exactly like the naive plan.

The optimizer carries ``id = k`` into the ``history_``/``seg_``/``slice_``
table functions, which then probe the ``(segno, id)`` index per heap
segment and inflate only the BlockZIP blocks that can hold the key.  For
random employee histories with at least two freezes — keys deleted and
re-inserted, keys that never existed — in three layouts (uncompressed;
compressed; compressed and then frozen again), every keyed read must
answer exactly as the unoptimized plan over the full history does:

- ``FOR SYSTEM_TIME AS OF d ... WHERE t.id = k``;
- ``FOR SYSTEM_TIME FROM lo TO hi ... WHERE t.id = k``, and the same
  window without a key;
- XQuery Q1 (a key's salary on a day) and Q3 (a key's salary history);
- and a ``:param`` key exactly as the literal one.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.archis import ArchIS, ArchISConfig
from repro.rdb import ColumnType, Database
from repro.util.timeutil import format_date, parse_date
from repro.xmlkit import serialize

START = parse_date("1990-01-01")
#: keys inserted on day one; 7 never exists
KEYS = (1, 2, 3, 4, 5)
ABSENT = 7
LAYOUTS = ("uncompressed", "compressed", "refrozen")
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
        profile="atlas", umin=0.01, min_segment_rows=4
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
        if number in freezes:
            archis.segments.freeze()
            if layout == "refrozen" and number == freezes[1]:
                archis.compress_archive()
    if layout == "compressed":
        archis.compress_archive()
    return archis


def both_ways(archis: ArchIS, run) -> tuple:
    """``run()`` with the optimizer on, then off (translations are
    dropped in between, so XQuery is planned afresh each way)."""
    optimized = run()
    archis.reset_caches()
    archis.db.optimizer_enabled = False
    try:
        naive = run()
    finally:
        archis.db.optimizer_enabled = True
        archis.reset_caches()
    return optimized, naive


def sql_rows(archis, text, params=None):
    return sorted(archis.sql(text, params).rows)


def xquery_rows(archis, text):
    rows = archis.xquery(text, allow_fallback=False).rows
    return sorted(serialize(row) for row in rows)


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
        end = archis.db.current_date
        span = max(end - START, 1)
        day = START + offsets[0] % span
        low = START + offsets[1] % span
        high = low + width
        for key in (*keys, 1, ABSENT):
            as_of = (
                "SELECT t.id, t.salary FROM employee_salary t "
                f"FOR SYSTEM_TIME AS OF DATE '{format_date(day)}' WHERE t.id = "
            )
            window = (
                "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
                f"FOR SYSTEM_TIME FROM DATE '{format_date(low)}' "
                f"TO DATE '{format_date(high)}' WHERE t.id = "
            )
            for text in (as_of, window):
                literal, naive = both_ways(
                    archis, lambda t=text: sql_rows(archis, t + str(key))
                )
                assert literal == naive, (layout, text, key)
                param = sql_rows(archis, text + ":k", {"k": key})
                assert param == literal, (layout, text, key)
            on = format_date(day)
            q1 = (
                f'for $s in {DOC}[id="{key}"]/salary'
                f'[tstart(.) <= xs:date("{on}") and tend(.) >= xs:date("{on}")]'
                " return $s"
            )
            q3 = f'for $s in {DOC}[id="{key}"]/salary return $s'
            for query in (q1, q3):
                optimized, naive = both_ways(
                    archis, lambda q=query: xquery_rows(archis, q)
                )
                assert optimized == naive, (layout, query)
        whole = (
            "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
            f"FOR SYSTEM_TIME FROM DATE '{format_date(low)}' "
            f"TO DATE '{format_date(high)}'"
        )
        optimized, naive = both_ways(archis, lambda: sql_rows(archis, whole))
        assert optimized == naive, (layout, whole)
