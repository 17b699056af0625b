"""Tests: change tracking into H-tables and H-document publication.

Replays the paper's Table 1 history and checks the published H-document
matches Figure 1/3 (temporally grouped, coalesced).
"""

import pytest

from repro.errors import ArchisError
from repro.util.timeutil import FOREVER, parse_date
from repro.xmlkit import serialize

from tests.archis.conftest import load_bob_history, make_archis


def titles_of(doc, key=1001):
    emp = [e for e in doc.elements() if e.first("id").text() == str(key)][0]
    return [
        (t.text(), t.get("tstart"), t.get("tend"))
        for t in emp.elements("title")
    ]


class TestTracking:
    def test_insert_creates_history_rows(self, archis):
        archis.db.table("employee").insert((1, "Ann", 50000, "QA", "d01"))
        archis.apply_pending()
        rows = archis.history("employee", "salary")
        assert rows == [(1, 50000, parse_date("1995-01-01"), FOREVER)]

    def test_update_closes_and_opens(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        archis.db.set_date("1995-06-01")
        emp.update_where(lambda r: r["id"] == 1, {"salary": 55000})
        archis.apply_pending()
        rows = archis.history("employee", "salary")
        assert rows == [
            (1, 50000, parse_date("1995-01-01"), parse_date("1995-05-31")),
            (1, 55000, parse_date("1995-06-01"), FOREVER),
        ]

    def test_unchanged_attributes_keep_single_row(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        archis.db.set_date("1995-06-01")
        emp.update_where(lambda r: r["id"] == 1, {"salary": 55000})
        archis.apply_pending()
        assert len(archis.history("employee", "name")) == 1

    def test_delete_closes_everything(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        archis.db.set_date("1996-01-01")
        emp.delete_where(lambda r: r["id"] == 1)
        archis.apply_pending()
        for attr in (None, "name", "salary"):
            for row in archis.history("employee", attr):
                assert row[-1] == parse_date("1995-12-31")

    def test_same_day_insert_delete_keeps_one_day_interval(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        emp.delete_where(lambda r: r["id"] == 1)
        archis.apply_pending()
        (row,) = archis.history("employee")
        assert row[1] == row[2]  # tstart == tend

    def test_key_change_rejected(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        with pytest.raises(ArchisError):
            emp.update_where(lambda r: r["id"] == 1, {"id": 2})
            archis.apply_pending()

    def test_reinsert_after_delete(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        archis.db.set_date("1996-01-01")
        emp.delete_where(lambda r: r["id"] == 1)
        archis.db.set_date("1997-01-01")
        emp.insert((1, "Ann", 60000, "QA", "d01"))
        archis.apply_pending()
        rows = archis.history("employee")
        assert len(rows) == 2
        assert rows[1][2] == FOREVER

    @pytest.mark.parametrize("profile", ["db2", "atlas"])
    def test_null_attribute_is_a_version(self, profile):
        archis = make_archis(profile=profile)
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 100, None, "d01"))
        archis.db.set_date("1996-01-01")
        emp.update_where(lambda r: r["id"] == 1, {"salary": None, "title": "QA"})
        archis.apply_pending()
        start, change = parse_date("1995-01-01"), parse_date("1996-01-01")
        assert archis.history("employee", "title") == [
            (1, None, start, change - 1), (1, "QA", change, FOREVER),
        ]
        assert archis.history("employee", "salary") == [
            (1, 100, start, change - 1), (1, None, change, FOREVER),
        ]
        employee = archis.publish("employee").first("employee")
        titles = employee.elements("title")
        assert [t.text() for t in titles] == ["", "QA"]
        assert titles[0].children == []  # no text node, never "None"

    def test_track_existing_rows(self):
        archis = make_archis()
        archis.db.table("employee").insert((7, "Pre", 1, "T", "d"))
        # a second relation tracked after data exists
        from repro.rdb import ColumnType

        archis.db.create_table(
            "dept", [("deptno", ColumnType.INT), ("name", ColumnType.VARCHAR)],
            primary_key=("deptno",),
        )
        archis.db.table("dept").insert((1, "QA"))
        archis.track_table("dept", key="deptno")
        assert len(archis.history("dept", "name")) == 1

    def test_atlas_defers_until_apply(self, archis_atlas):
        emp = archis_atlas.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        assert archis_atlas.history("employee", "salary") == []
        applied = archis_atlas.apply_pending()
        assert applied == 1
        assert len(archis_atlas.history("employee", "salary")) == 1

    def test_db2_archives_synchronously(self, archis):
        archis.db.table("employee").insert((1, "Ann", 50000, "QA", "d01"))
        assert len(archis.history("employee", "salary")) == 1

    def test_double_track_rejected(self, archis):
        with pytest.raises(ArchisError):
            archis.track_table("employee")


class TestPublication:
    def test_bob_h_document_matches_figure_1(self, archis):
        load_bob_history(archis)
        doc = archis.publish("employee")
        assert doc.name == "employees"
        assert titles_of(doc) == [
            ("Engineer", "1995-01-01", "1995-09-30"),
            ("Sr Engineer", "1995-10-01", "1996-01-31"),
            ("TechLeader", "1996-02-01", "1996-12-31"),
        ]

    def test_salary_history_grouped(self, archis):
        load_bob_history(archis)
        doc = archis.publish("employee")
        emp = doc.elements()[0]
        salaries = [
            (s.text(), s.get("tstart"), s.get("tend"))
            for s in emp.elements("salary")
        ]
        assert salaries == [
            ("60000", "1995-01-01", "1995-05-31"),
            ("70000", "1995-06-01", "1996-12-31"),
        ]

    def test_entity_interval_covers_children(self, archis):
        load_bob_history(archis)
        emp = archis.publish("employee").elements()[0]
        assert emp.get("tstart") == "1995-01-01"
        assert emp.get("tend") == "1996-12-31"

    def test_value_equivalent_adjacent_periods_coalesced(self, archis):
        emp = archis.db.table("employee")
        emp.insert((1, "Ann", 50000, "QA", "d01"))
        archis.db.set_date("1995-06-01")
        emp.update_where(lambda r: r["id"] == 1, {"salary": 55000})
        archis.db.set_date("1995-09-01")
        emp.update_where(lambda r: r["id"] == 1, {"salary": 50000})
        archis.apply_pending()
        doc = archis.publish("employee")
        salaries = [s.text() for s in doc.elements()[0].elements("salary")]
        # 50000 periods are disjoint: must NOT merge
        assert salaries == ["50000", "55000", "50000"]

    def test_published_doc_parses_as_valid_xml(self, archis):
        load_bob_history(archis)
        from repro.xmlkit import parse_xml

        doc = archis.publish("employee")
        again = parse_xml(serialize(doc))
        assert again.deep_equal(doc)

    def test_publication_identical_across_profiles_and_segmentation(self):
        docs = []
        for kwargs in (
            {"profile": "db2", "umin": 0.4},
            {"profile": "atlas", "umin": 0.4},
            {"profile": "db2", "umin": None},
            {"profile": "db2", "umin": 0.2, "min_segment_rows": 4},
        ):
            archis = make_archis(**kwargs)
            load_bob_history(archis)
            docs.append(archis.publish("employee"))
        for doc in docs[1:]:
            assert doc.deep_equal(docs[0]), serialize(doc)
