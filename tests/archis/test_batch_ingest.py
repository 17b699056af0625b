"""Batched ingest equivalence matrix and durable-batch crash recovery.

The contract under test (DESIGN.md §4f): draining the update log through
``BatchArchiver(archis, N).apply()`` must be *observably identical* to
the ``db2`` profile's triggers fed the same changes — same H-table
bytes, same segment boundaries, same segment-manager counters — for
every batch size, every workload shape, and every crash point a durable
batch can die at.  Triggers archive each change as it happens, with no
version cache and no freeze clearance, so they are an independent
reference for the drain.  The archived history is also checked against
the pointwise model in ``tests/model``, which shares no code with the
archiver.
"""

import pytest

from repro.archis import ArchIS, ArchISConfig, BatchArchiver
from repro.archis.batch import DEFAULT_BATCH_SIZE
from repro.archis.validation import check_archive, check_index_consistency
from repro.obs import get_registry
from repro.rdb import ColumnType, Database
from repro.storage import InjectedCrash, get_crash_points

from tests.model.oracle import KEY, Oracle

BATCH_SIZES = (1, 7, 256)


# -- deterministic workloads as explicit op lists ---------------------------
#
# Each op is one update-log entry, generated with non-decreasing days, so
# ``drain_ordered`` preserves generation order and "the first k entries"
# is a well-defined prefix for crash-recovery checks.


def employee_ops(count=120, population=9, per_round=4):
    """insert/update/delete mix over a small hot population.

    Ops come in same-day rounds (exercising the in-place same-day
    rewrite) separated by two-day gaps, the cadence the engine's
    deferred-freeze boundary assumes (a freeze draws its boundary at the
    last archived day; the next close must land at least one day past
    it)."""
    ops = []
    day = 0
    alive = []
    departed = []
    emitted = 0
    step = 0
    while emitted < count:
        day += 2
        ops.append(("advance", day))
        for _ in range(per_round):
            if emitted >= count:
                break
            if step < population:
                ops.append(("insert", step, f"n{step}", 1000 + step))
                alive.append(step)
            elif step % 29 == 0:
                # late hires keep the population topped up; the latest
                # departed key comes back when there is one (a delete
                # and re-insert, sometimes on the same day)
                key = departed.pop() if departed else 1000 + step
                ops.append(("insert", key, f"n{step}", 1000 + step))
                alive.append(key)
            elif step % 17 == 0 and len(alive) > 4:
                departed.append(alive.pop(0))
                ops.append(("delete", departed[-1]))
            else:
                key = alive[step % len(alive)]
                ops.append(("update", key, 1000 + step))
            emitted += 1
            step += 1
    return ops


def build_db(path=None):
    db = Database(path) if path else Database()
    db.set_date("1995-01-01")
    db.create_table(
        "employee",
        [
            ("id", ColumnType.INT),
            ("name", ColumnType.VARCHAR),
            ("salary", ColumnType.INT),
        ],
        primary_key=("id",),
    )
    return db


def replay(db, ops, upto=None):
    """Apply ``ops`` (each non-advance op = one update-log entry)."""
    table = db.table("employee")
    epoch = db.current_date
    rids = {}
    names = {}
    applied = 0
    for op in ops:
        if op[0] == "advance":
            db.advance_to(epoch + op[1])
            continue
        if upto is not None and applied >= upto:
            break
        if op[0] == "insert":
            _, key, name, salary = op
            rids[key] = table.insert((key, name, salary))
            names[key] = name
        elif op[0] == "update":
            _, key, salary = op
            rids[key] = table.update_rid(rids[key], (key, names[key], salary))
        else:
            _, key = op
            table.delete_rid(rids.pop(key))
            names.pop(key)
        applied += 1
    return applied


def model(ops, epoch):
    """The :class:`Oracle` of the employee changes in ``ops``."""
    oracle = Oracle(("name", "salary"))
    current = {}
    day = epoch
    for op in ops:
        if op[0] == "advance":
            day = epoch + op[1]
        elif op[0] == "insert":
            _, key, name, salary = op
            oracle.insert(day, (key, name, salary))
            current[key] = salary
        elif op[0] == "update":
            _, key, salary = op
            if salary != current[key]:
                oracle.update(day, key, "salary", salary)
            current[key] = salary
        else:
            oracle.delete(day, op[1])
            current.pop(op[1])
    return oracle


def assert_matches_model(archis, ops, epoch):
    """Every archived history row of ``employee`` is the model's."""
    oracle = model(ops, epoch)
    for attr in (KEY, "name", "salary"):
        assert archis.history("employee", attr) == oracle.history(attr), attr


def make_tracked(umin, min_segment_rows=8, path=None, profile="atlas"):
    db = build_db(path)
    archis = ArchIS(
        db,
        config=ArchISConfig(
            profile=profile, umin=umin, min_segment_rows=min_segment_rows
        ),
    )
    archis.track_table("employee")
    return archis


def trigger_reference(umin, ops, upto=None):
    """The ``db2`` profile fed ``ops``: its triggers archive every
    change as it happens, the reference every drain must reproduce."""
    reference = make_tracked(umin, profile="db2")
    replay(reference.db, ops, upto=upto)
    return reference


def archive_state(archis, with_rids=True):
    """Everything observable: H-table scans (rids included), segment
    table, and the segment manager's counters."""
    state = {}
    for relation in archis.relations.values():
        for name in relation.all_tables():
            table = archis.db.table(name)
            state[name] = (
                list(table.scan()) if with_rids else sorted(table.rows())
            )
    state["__segments"] = sorted(archis.db.table("segment").rows())
    segments = archis.segments
    state["__counters"] = (
        segments.live_segno,
        segments.live_start,
        segments.last_change,
        segments.stats.live,
        segments.stats.total,
        segments.freeze_count,
    )
    return state


class TestEquivalenceMatrix:
    """Batch apply == trigger archival, byte for byte."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize("umin", [None, 0.5], ids=["unsegmented", "segmented"])
    def test_identical_state_for_every_batch_size(self, batch_size, umin):
        reference = trigger_reference(umin, employee_ops())
        expected = archive_state(reference)

        batched = make_tracked(umin)
        epoch = batched.db.current_date
        replay(batched.db, employee_ops())
        applied = BatchArchiver(batched, batch_size).apply()
        assert applied > 0
        assert archive_state(batched) == expected
        assert check_archive(batched) == []
        assert check_index_consistency(batched) == []
        assert check_index_consistency(reference) == []
        assert_matches_model(batched, employee_ops(), epoch)
        assert_matches_model(reference, employee_ops(), epoch)

    @pytest.mark.parametrize("umin", [None, 0.5], ids=["unsegmented", "segmented"])
    def test_segment_boundaries_match(self, umin):
        reference = trigger_reference(umin, employee_ops(count=300))

        batched = make_tracked(umin)
        replay(batched.db, employee_ops(count=300))
        BatchArchiver(batched, 13).apply()
        assert batched.segments.freeze_count == reference.segments.freeze_count
        assert sorted(batched.db.table("segment").rows()) == sorted(
            reference.db.table("segment").rows()
        )

    def test_multi_relation_batches(self):
        def build(profile):
            archis = make_tracked(0.5, profile=profile)
            db = archis.db
            db.create_table(
                "dept",
                [("id", ColumnType.INT), ("name", ColumnType.VARCHAR)],
                primary_key=("id",),
            )
            archis.track_table("dept")
            dept = db.table("dept")
            drids = {n: dept.insert((n, f"d{n}")) for n in range(3)}
            replay(db, employee_ops(count=60))
            for n in range(3):
                db.advance_days(1)
                drids[n] = dept.update_rid(drids[n], (n, f"dept-{n}"))
            dept.delete_rid(drids.pop(0))
            return archis

        reference = build("db2")
        batched = build("atlas")
        BatchArchiver(batched, 7).apply()
        assert archive_state(batched) == archive_state(reference)
        assert check_archive(batched) == []

    def test_batch_of_one_equals_row_at_a_time(self):
        """batch_size=1 is the degenerate case: per-entry batches must
        still match the per-change triggers exactly (clearance checks
        run per entry)."""
        reference = trigger_reference(0.5, employee_ops())
        batched = make_tracked(0.5)
        replay(batched.db, employee_ops())
        BatchArchiver(batched, 1).apply()
        assert archive_state(batched) == archive_state(reference)

    def test_untracked_entries_are_dropped_like_row_apply(self):
        archis = make_tracked(None)
        db = archis.db
        replay(db, employee_ops(count=20))
        # a stray entry for a never-tracked table (e.g. tracked in a past
        # run) has no H-tables: the drain consumes and drops it
        db.update_log.append(db.current_date, "scratch", "insert", (1,), None)
        applied = BatchArchiver(archis, 4).apply()
        assert applied == 20
        assert db.update_log.pending() == []


class TestBatchArchiverApi:
    def test_batch_size_validation(self):
        archis = make_tracked(None)
        with pytest.raises(ValueError):
            BatchArchiver(archis, batch_size=0)

    def test_apply_empty_log_is_a_noop(self):
        archis = make_tracked(None)
        assert BatchArchiver(archis).apply() == 0

    def test_metrics_and_stats_surface(self):
        registry = get_registry()
        batches_before = registry.counter("ingest.batches").value
        archis = make_tracked(None)
        replay(archis.db, employee_ops(count=40))
        BatchArchiver(archis, 16).apply()
        stats = archis.stats()["ingest"]
        assert stats["batches"] - batches_before >= 3
        assert stats["clearance_granted"] >= 1
        assert stats["batch_size"] == DEFAULT_BATCH_SIZE
        assert "batch_size" not in archis.stats()["config"]

    def test_apply_pending_drains_in_default_batches(self):
        archis = make_tracked(None)
        replay(archis.db, employee_ops(count=DEFAULT_BATCH_SIZE + 20))
        before = get_registry().counter("ingest.batches").value
        assert archis.apply_pending() == DEFAULT_BATCH_SIZE + 20
        assert get_registry().counter("ingest.batches").value - before == 2

    def test_drain_holds_the_history_write_lock(self, monkeypatch):
        """A reader never sees half a drain: every batch of one apply
        runs inside a single hold of the history write lock."""
        archis = make_tracked(None)
        replay(archis.db, employee_ops(count=40))
        held = []
        archiver = BatchArchiver(archis, 4)
        real = archiver._archive_batch

        def spy(batch):
            held.append(archis.history_lock.held_write())
            return real(batch)

        monkeypatch.setattr(archiver, "_archive_batch", spy)
        acquisitions = []
        acquire = archis.history_lock.acquire_write

        def counting():
            acquisitions.append(archis.history_lock.held_write())
            return acquire()

        monkeypatch.setattr(archis.history_lock, "acquire_write", counting)
        archiver.apply()
        assert held == [True] * 10
        assert acquisitions == [False]

    def test_clearance_denied_falls_back_to_per_entry_checks(self):
        registry = get_registry()
        denied_before = registry.counter("ingest.clearance_denied").value
        archis = make_tracked(0.5, min_segment_rows=4)
        replay(archis.db, employee_ops(count=300))
        BatchArchiver(archis, 64).apply()
        assert archis.segments.freeze_count > 0
        assert registry.counter("ingest.clearance_denied").value > denied_before


class TestDurableBatches:
    """durable=True commits once per batch, logging each dirty page once;
    a crash mid-apply or mid-commit recovers to a whole-batch boundary,
    never a torn one."""

    BATCH = 16

    @pytest.fixture(autouse=True)
    def disarm_crash_points(self):
        yield
        get_crash_points().reset()

    def build_saved(self, path):
        archis = make_tracked(0.5, path=str(path))
        archis.save()
        return archis

    def prefix_states(self):
        """Trigger-reference replays of every whole-batch prefix
        (rid-free: the file-backed run's physical layout may differ)."""
        ops = employee_ops()
        total = sum(1 for op in ops if op[0] != "advance")
        states = []
        boundaries = list(range(0, total, self.BATCH)) + [total]
        for upto in boundaries:
            reference = trigger_reference(0.5, ops, upto=upto)
            states.append(archive_state(reference, with_rids=False))
        return states

    def durable_apply(self, archis):
        return BatchArchiver(archis, self.BATCH, durable=True).apply()

    def test_one_commit_frame_per_batch(self, tmp_path):
        registry = get_registry()
        archis = self.build_saved(tmp_path / "durable.db")
        replay(archis.db, employee_ops())
        causes = registry.labeled_counter("wal.commits.cause")
        before = dict(causes.values).get("ingest", 0)
        applied = self.durable_apply(archis)
        batches = -(-applied // self.BATCH)
        assert dict(causes.values)["ingest"] - before == batches
        archis.db.close()

    def test_durable_needs_a_wal_backed_database(self):
        archis = make_tracked(0.5)  # in-memory
        replay(archis.db, employee_ops(count=20))
        archiver = BatchArchiver(archis, batch_size=4, durable=True)
        assert archiver.durable is False
        archiver.apply()  # still applies, just without per-batch commits

    @pytest.mark.parametrize("occurrence", [1, 2, 4])
    def test_crash_between_batches_recovers_to_batch_boundary(
        self, tmp_path, occurrence
    ):
        expected_states = self.prefix_states()
        archis = self.build_saved(tmp_path / f"crash{occurrence}.db")
        replay(archis.db, employee_ops())
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.commit.begin", occurrence):
                self.durable_apply(archis)
        again = ArchIS.open(str(tmp_path / f"crash{occurrence}.db"))
        recovered = archive_state(again, with_rids=False)
        assert recovered in expected_states, (
            f"recovery after crash at commit #{occurrence} is not a "
            "whole-batch boundary"
        )
        # The update log is volatile: after a mid-ingest crash the
        # current table (committed with the first batch) is ahead of the
        # partially-applied archive, so live-consistency is expectedly
        # violated.
        # Every *archive-internal* invariant must still hold.
        violations = [
            v for v in check_archive(again) if v.check != "live-consistency"
        ]
        assert violations == []
        again.db.close()

    def commit_page_frames(self, path, batch):
        """Occurrences of ``wal.frame.torn`` that write the PAGE frames of
        durable batch number ``batch``'s commit, in log order."""
        archis = self.build_saved(path)
        replay(archis.db, employee_ops())
        with get_crash_points().recording() as fired:
            self.durable_apply(archis)
        archis.db.close()
        commits = torn = 0
        frames = []
        for name in fired:
            if name == "wal.commit.begin":
                commits += 1
            elif name == "wal.frame.torn":
                torn += 1
                if commits == batch:
                    frames.append(torn)
            elif name == "wal.commit.synced" and commits == batch:
                break
        return frames[:-1]  # the commit's last frame is the COMMIT itself

    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_crash_inside_batch_commit_recovers_to_previous_boundary(
        self, tmp_path, position
    ):
        batch = 2
        frames = self.commit_page_frames(tmp_path / "probe.db", batch)
        assert len(frames) >= 3, f"batch commit logged {len(frames)} pages"
        occurrence = {
            "first": frames[0],
            "middle": frames[len(frames) // 2],
            "last": frames[-1],
        }[position]
        expected = self.prefix_states()[batch - 1]
        archis = self.build_saved(tmp_path / "torn.db")
        replay(archis.db, employee_ops())
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.frame.torn", occurrence):
                self.durable_apply(archis)
        again = ArchIS.open(str(tmp_path / "torn.db"))
        assert archive_state(again, with_rids=False) == expected
        violations = [
            v for v in check_archive(again) if v.check != "live-consistency"
        ]
        assert violations == []
        again.db.close()

    def test_crash_after_last_sync_keeps_every_batch(self, tmp_path):
        expected_states = self.prefix_states()
        archis = self.build_saved(tmp_path / "synced.db")
        replay(archis.db, employee_ops())
        with get_crash_points().recording() as fired:
            self.durable_apply(archis)
        archis.db.close()
        syncs = sum(1 for name in fired if name == "wal.commit.synced")
        assert syncs >= 2

        archis = self.build_saved(tmp_path / "synced2.db")
        replay(archis.db, employee_ops())
        with pytest.raises(InjectedCrash):
            with get_crash_points().crash_at("wal.commit.synced", syncs):
                self.durable_apply(archis)
        again = ArchIS.open(str(tmp_path / "synced2.db"))
        assert archive_state(again, with_rids=False) == expected_states[-1]
        assert check_archive(again) == []
        again.db.close()
