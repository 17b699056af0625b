"""``id`` ranges reach ``history_<t>``: ``id BETWEEN lo AND hi`` becomes
the read's ``id_lo, id_hi`` arguments, and the range crosses equi-join
keys to the other side of a ``JOIN`` or ``TEMPORAL JOIN``.

Every answer is checked against the unoptimized plan over the full
history, on an uncompressed and a BlockZIP-compressed archive, and with
one cached statement shape re-bound to int, NULL, string and inverted
bounds.
"""

import pytest

from repro.bench.harness import build_archis
from repro.plan import nodes
from repro.plan.render import expr_to_sql

#: the generator's employee ids are ID + 1, ID + 2, ...
ID = 100000

#: the deduplicated whole-history reads, as ``alias`` (a plain ``FROM
#: employee_salary`` reads the same once the archive has two segments)
SALARY_HISTORY = (
    "TABLE(history_employee_salary()) AS {}(id, salary, tstart, tend, segno)"
)
TITLE_HISTORY = (
    "TABLE(history_employee_title()) AS {}(id, title, tstart, tend, segno)"
)
SALARY = (
    f"SELECT t.id, t.salary, t.tstart, t.tend FROM {SALARY_HISTORY.format('t')} "
)
WINDOW = "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
TAVG = "SELECT tavg(t.salary) FROM employee_salary t "
TEMPORAL_JOIN = (
    "SELECT a.id, a.salary, b.title, a.tstart, a.tend "
    "FROM employee_salary a TEMPORAL JOIN employee_title b ON a.id = b.id "
)
JOIN = (
    f"SELECT a.id, a.salary, b.title FROM {SALARY_HISTORY.format('a')}, "
    f"{TITLE_HISTORY.format('b')} WHERE a.id = b.id AND a.tstart = b.tstart "
)


def between(alias, low, high, negated=False):
    nots = "NOT " if negated else ""
    return f"{alias}.id {nots}BETWEEN {ID + low} AND {ID + high}"


@pytest.fixture(scope="module", params=[False, True], ids=["plain", "zip"])
def archis(request):
    _, archis, _ = build_archis(
        employees=24, years=8, min_segment_rows=32, compress=request.param
    )
    assert archis.segments.freeze_count > 0
    return archis


def answer(archis, text, params=None):
    return sorted(archis.sql(text, params).rows, key=repr)


def naive_answers(archis, texts):
    """The answers of the unoptimized plan (caches dropped around it)."""
    archis.reset_caches()
    archis.db.optimizer_enabled = False
    try:
        return [answer(archis, text, params) for text, params in texts]
    finally:
        archis.db.optimizer_enabled = True
        archis.reset_caches()


def both_ways(archis, text, params=None):
    """The answer with the optimizer on and off, and the optimized plan."""
    optimized = answer(archis, text, params)
    plan = archis.db.last_plan.plan.optimized
    [naive] = naive_answers(archis, [(text, params)])
    return optimized, naive, plan


def history_args(plan) -> dict:
    """alias -> the arguments of its ``history_<t>`` read, as SQL text."""
    return {
        leaf.alias: tuple(expr_to_sql(arg) for arg in leaf.args)
        for leaf in nodes.leaves(plan)
        if isinstance(leaf, nodes.FunctionScan)
    }


def key_args(low, high):
    return ("NULL", "NULL", str(ID + low), str(ID + high))


class TestRangeAnswersMatchTheNaivePlan:
    @pytest.mark.parametrize(
        "text",
        [
            SALARY + "WHERE " + between("t", 3, 9),
            SALARY + "WHERE " + between("t", 3, 9) + " AND t.salary > 40000",
            WINDOW + "FOR SYSTEM_TIME AS OF 7000 WHERE " + between("t", 5, 20),
            WINDOW + "FOR SYSTEM_TIME FROM 6000 TO 7800 WHERE "
            + between("t", 1, 12),
            TAVG + "WHERE " + between("t", 2, 17),
            "SELECT t.id, tavg(t.salary) FROM employee_salary t WHERE "
            + between("t", 2, 6) + " GROUP BY t.id",
            TEMPORAL_JOIN + "WHERE " + between("a", 4, 15),
            TEMPORAL_JOIN + "WHERE " + between("b", 4, 15),
            JOIN + "AND " + between("b", 1, 10),
        ],
    )
    def test_literal_bounds(self, archis, text):
        optimized, naive, _ = both_ways(archis, text)
        assert optimized == naive
        assert naive

    @pytest.mark.parametrize(
        "low, high",
        [
            (ID + 3, ID + 9), (ID + 9, ID + 3), (None, ID + 9), (ID + 3, None),
            (str(ID + 3), str(ID + 9)), (ID + 2.5, ID + 7.5), (0, 2 * ID),
        ],
    )
    def test_param_bounds(self, archis, low, high):
        for text in (
            SALARY + "WHERE t.id BETWEEN :lo AND :hi",
            TEMPORAL_JOIN + "WHERE a.id BETWEEN :lo AND :hi",
        ):
            params = {"lo": low, "hi": high}
            optimized, naive, plan = both_ways(archis, text, params)
            assert optimized == naive, (text, low, high)
            assert all(
                args[-2:] == (":lo", ":hi")
                for args in history_args(plan).values()
            )

    def test_one_cached_shape_rebound(self, archis):
        """The shape is planned for int bounds; NULL, string and inverted
        bounds bind that plan (or re-plan, where a type guard refuses
        it) and still answer like the naive plan."""
        bounds = [
            (ID + 3, ID + 9), ("NULL", ID + 9), (ID + 3, "NULL"),
            (f"'{ID + 3}'", f"'{ID + 9}'"), (ID + 9, ID + 3),
            (ID + 1, ID + 24), (ID + 4, ID + 4),
        ]
        texts = [
            (SALARY + f"WHERE t.id BETWEEN {low} AND {high}", None)
            for low, high in bounds
        ]
        optimized = [answer(archis, text) for text, _ in texts]
        naive = naive_answers(archis, texts)
        assert optimized == naive
        assert [bool(rows) for rows in naive] == [
            True, False, False, False, False, True, True
        ]


class TestWhereTheRangeLands:
    def test_range_becomes_history_arguments(self, archis):
        _, _, plan = both_ways(archis, TAVG + "WHERE " + between("t", 2, 17))
        assert history_args(plan) == {"t": key_args(2, 17)}

    def test_not_between_is_never_pushed(self, archis):
        _, _, plan = both_ways(
            archis, SALARY + "WHERE " + between("t", 2, 17, negated=True)
        )
        assert history_args(plan) == {"t": ()}
        _, _, plan = both_ways(
            archis,
            TEMPORAL_JOIN + "WHERE " + between("a", 2, 17, negated=True),
        )
        assert history_args(plan) == {"a": (), "b": ()}

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_temporal_join_range_reaches_both_sides(self, archis, side):
        _, _, plan = both_ways(
            archis, TEMPORAL_JOIN + "WHERE " + between(side, 4, 15)
        )
        assert history_args(plan) == {
            "a": key_args(4, 15), "b": key_args(4, 15)
        }

    def test_join_range_reaches_both_sides(self, archis):
        _, _, plan = both_ways(archis, JOIN + "AND " + between("b", 1, 10))
        assert history_args(plan) == {
            "a": key_args(1, 10), "b": key_args(1, 10)
        }

    def test_equality_wins_over_a_range(self, archis):
        text = SALARY + "WHERE " + between("t", 1, 10) + f" AND t.id = {ID + 4}"
        _, _, plan = both_ways(archis, text)
        assert history_args(plan) == {"t": key_args(4, 4)}
        rules = archis.explain_sql(text).plan.rules
        assert any(rule.endswith(f"for id = {ID + 4}") for rule in rules)
