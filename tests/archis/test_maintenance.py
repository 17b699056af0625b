"""Background segment maintenance: equivalence, crash recovery, requeue.

The contract under test (DESIGN.md §4h): inline and background freezes
run the same steps at different times, so ``maintenance="background"``
must be *observably identical* to inline freezes — same H-table content
(rid-free: the deferred rewrite relocates rows), same segment
boundaries, same ``clustering.*`` counters — once the worker has
drained; an inline freeze leaves every H-table compact; a crash
mid-rewrite recovers to a clean step boundary and the resumed worker
converges; and an archiver that dies mid-batch hands the unapplied
suffix back to the update log instead of losing it.
"""

import time

import pytest

from repro.archis import ArchIS, ArchISConfig, BatchArchiver
from repro.archis.batch import DEFAULT_BATCH_SIZE
from repro.archis.validation import check_archive, check_index_consistency
from repro.errors import ArchisError
from repro.obs import get_registry
from repro.storage import InjectedCrash, get_crash_points
from repro.xmlkit import serialize

from tests.archis.test_batch_ingest import (
    archive_state,
    build_db,
    employee_ops,
    replay,
    trigger_reference,
)

BATCH_SIZES = (1, 7, 256)

#: the freeze-path counters that must move identically across modes
CLUSTERING_COUNTERS = (
    "clustering.segments_frozen",
    "clustering.rows_rewritten",
    "clustering.live_rows_copied",
)


def make_tracked(umin, min_segment_rows=8, path=None, **overrides):
    db = build_db(path)
    archis = ArchIS(
        db,
        config=ArchISConfig(
            umin=umin, min_segment_rows=min_segment_rows, **overrides
        ),
    )
    archis.track_table("employee")
    return archis


def counter_values():
    registry = get_registry()
    return {
        name: registry.counter(name).value for name in CLUSTERING_COUNTERS
    }


def run_mode(
    maintenance, umin, batch_size=DEFAULT_BATCH_SIZE, count=240, **overrides
):
    """Build, replay, apply and drain one archive; returns it plus the
    ``clustering.*`` counter deltas its apply produced."""
    archis = make_tracked(umin, maintenance=maintenance, **overrides)
    replay(archis.db, employee_ops(count=count))
    before = counter_values()
    BatchArchiver(archis, batch_size).apply()
    archis.drain_maintenance()
    deltas = {
        name: value - before[name]
        for name, value in counter_values().items()
    }
    return archis, deltas


class TestBackgroundEquivalence:
    """background drain == inline freeze, for content and counters."""

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    @pytest.mark.parametrize(
        "umin", [None, 0.5], ids=["unsegmented", "segmented"]
    )
    def test_matches_inline_state_and_counters(self, umin, batch_size):
        reference, inline_deltas = run_mode("inline", umin, batch_size)
        expected = archive_state(reference, with_rids=False)

        background, bg_deltas = run_mode("background", umin, batch_size)
        assert archive_state(background, with_rids=False) == expected
        assert bg_deltas == inline_deltas
        assert background.segments.pending_rewrites == []
        if umin is not None:
            assert background.segments.freeze_count > 0
            assert (
                background.segments.rewrites
                == background.segments.freeze_count
            )
        assert check_archive(background) == []
        assert check_index_consistency(background) == []
        assert check_index_consistency(reference) == []
        background.close()

    def test_tiny_step_budget_converges_to_the_same_state(self):
        """A 3-row step budget forces many incremental steps per segment;
        the result must still be the inline state."""
        reference, _ = run_mode("inline", 0.5)
        expected = archive_state(reference, with_rids=False)
        registry = get_registry()
        steps_before = registry.counter("maintenance.steps").value

        background, _ = run_mode("background", 0.5, maintenance_step_rows=3)
        assert archive_state(background, with_rids=False) == expected
        steps = registry.counter("maintenance.steps").value - steps_before
        assert steps > background.segments.freeze_count
        assert check_index_consistency(background) == []
        background.close()

    def test_queries_stay_correct_while_rewrites_are_outstanding(self):
        """The logical switch alone must already answer queries exactly:
        park the queue (no worker wakeup) and compare publications."""
        reference, _ = run_mode("inline", 0.5)

        archis = make_tracked(0.5, maintenance="background")
        archis.segments.on_freeze_request = lambda segno: None  # park
        replay(archis.db, employee_ops(count=240))
        archis.apply_pending()
        assert archis.segments.pending_rewrites, (
            "workload produced no outstanding rewrites"
        )
        assert serialize(archis.publish("employee")) == serialize(
            reference.publish("employee")
        )
        # un-park: the drained state converges to the inline one
        archis.segments.on_freeze_request = archis.maintenance.request
        archis.drain_maintenance()
        assert archive_state(archis, with_rids=False) == archive_state(
            reference, with_rids=False
        )
        archis.close()

    def test_off_mode_never_freezes(self):
        archis = make_tracked(0.5, maintenance="off")
        replay(archis.db, employee_ops(count=240))
        archis.apply_pending()
        assert archis.segments.freeze_count == 0
        assert list(archis.db.table("segment").rows()) == []
        assert archis.segments.live_segno == 1
        assert check_archive(archis) == []

    def test_stats_surface(self):
        archis, _ = run_mode("background", 0.5, batch_size=16)
        section = archis.stats()["maintenance"]
        assert section["mode"] == "background"
        assert section["pending_rewrites"] == []
        assert section["rewrites_completed"] == archis.segments.freeze_count
        assert section["worker"]["busy"] is False
        assert section["worker"]["error"] is None
        assert section["freezes_completed"] >= archis.segments.freeze_count
        archis.close()

    def test_config_rejects_bad_modes_and_budgets(self):
        with pytest.raises(ArchisError):
            ArchISConfig(maintenance="sometimes")
        with pytest.raises(ArchisError):
            ArchISConfig(maintenance_step_rows=0)


class TestInlineFreeze:
    def test_compact_after_an_inline_freeze_frees_no_page(self, monkeypatch):
        """An inline freeze leaves every H-table dense: compacting again
        right after it frees no page.  A freeze that only released the
        pages its moves emptied would leave half-full pages behind, and
        the archive would grow freeze after freeze."""
        archis = make_tracked(0.5)
        segments = archis.segments
        freeze = segments.freeze
        freed = []

        def freeze_then_recompact():
            freeze()
            for name in segments.registered_tables():
                table = archis.db.table(name)
                before = table.size_bytes(include_indexes=False)
                table.compact()
                freed.append(before - table.size_bytes(include_indexes=False))

        monkeypatch.setattr(segments, "freeze", freeze_then_recompact)
        replay(archis.db, employee_ops(count=600))
        archis.apply_pending()
        assert segments.freeze_count > 0
        assert freed and not any(freed)


class TestCrashRecovery:
    """A crash at a step-commit boundary loses no history and resumes."""

    @pytest.fixture(autouse=True)
    def disarm_crash_points(self):
        yield
        get_crash_points().reset()

    def test_crash_mid_rewrite_recovers_and_resumes(self, tmp_path):
        reference, _ = run_mode("inline", 0.5)
        expected = archive_state(reference, with_rids=False)

        path = str(tmp_path / "bg.db")
        archis = make_tracked(0.5, path=path, maintenance="background")
        archis.save()
        replay(archis.db, employee_ops(count=240))
        # crash_from, not crash_at: after drain() re-raises (and clears)
        # the first error, the worker may retry — every retry must also
        # die before committing, as a real process death would
        with get_crash_points().crash_from("maintenance.step.commit", 1):
            BatchArchiver(archis, 16, durable=True).apply()
            with pytest.raises(InjectedCrash):
                archis.drain_maintenance()
            archis.maintenance.stop()

        # reopen from disk: WAL recovery replays every committed batch
        # and every committed step, nothing of the torn one
        again = ArchIS.open(
            path, config=ArchISConfig(maintenance="background")
        )
        assert again.segments.pending_rewrites, (
            "the interrupted rewrite queue did not survive the reopen"
        )
        assert archive_state(again, with_rids=False) == expected
        # the resumed worker converges to the settled inline state
        again.drain_maintenance()
        assert again.segments.pending_rewrites == []
        assert archive_state(again, with_rids=False) == expected
        assert check_archive(again) == []
        again.close()

    def test_completed_rewrite_survives_a_reopen(self, tmp_path):
        reference, _ = run_mode("inline", 0.5)
        expected = archive_state(reference, with_rids=False)

        path = str(tmp_path / "settled.db")
        archis = make_tracked(0.5, path=path, maintenance="background")
        archis.save()
        replay(archis.db, employee_ops(count=240))
        BatchArchiver(archis, 16, durable=True).apply()
        archis.drain_maintenance()
        archis.save()
        archis.close()

        again = ArchIS.open(path)
        assert again.segments.pending_rewrites == []
        assert archive_state(again, with_rids=False) == expected
        assert check_archive(again) == []
        again.close()


class TestWorkerLifecycle:
    def test_drain_reraises_and_clears_a_worker_error(self):
        archis = make_tracked(0.5, maintenance="background")
        replay(archis.db, employee_ops(count=240))

        original = archis.segments.rewrite_step
        tripped = {"n": 0}

        def failing(*args, **kwargs):
            tripped["n"] += 1
            raise RuntimeError("injected rewrite failure")

        archis.segments.rewrite_step = failing
        archis.apply_pending()
        with pytest.raises(RuntimeError):
            archis.drain_maintenance(timeout=10.0)
        assert tripped["n"] >= 1
        # the cause fixed, a second drain resumes and converges
        archis.segments.rewrite_step = original
        archis.drain_maintenance()
        assert archis.segments.pending_rewrites == []
        assert check_archive(archis) == []
        archis.close()

    def test_close_stops_the_worker_thread(self):
        import threading

        archis, _ = run_mode("background", 0.5)
        archis.close()
        deadline = time.time() + 5.0
        while time.time() < deadline and any(
            t.name == "repro-maintenance" and t.is_alive()
            for t in threading.enumerate()
        ):
            time.sleep(0.01)
        assert not any(
            t.name == "repro-maintenance" and t.is_alive()
            for t in threading.enumerate()
        )


class TestMidBatchFailureRequeue:
    """A dispatch failure mid-batch loses no update-log entries."""

    def test_unapplied_suffix_returns_to_the_log(self, monkeypatch):
        reference = trigger_reference(0.5, employee_ops(count=60))
        expected = archive_state(reference, with_rids=False)

        archis = make_tracked(0.5)
        replay(archis.db, employee_ops(count=60))
        import repro.archis.batch as batch_module

        real = batch_module.dispatch_entry
        calls = {"n": 0}

        def flaky(writer, entry):
            calls["n"] += 1
            if calls["n"] == 25:
                raise RuntimeError("injected dispatch failure")
            return real(writer, entry)

        monkeypatch.setattr(batch_module, "dispatch_entry", flaky)
        with pytest.raises(RuntimeError):
            BatchArchiver(archis, 16).apply()
        # 24 entries were dispatched (one full batch + 8 of the second);
        # everything from the failed entry on is pending again, in order
        pending = archis.db.update_log.pending()
        assert [entry.sequence for entry in pending] == list(range(25, 61))

        monkeypatch.setattr(batch_module, "dispatch_entry", real)
        applied = BatchArchiver(archis, 16).apply()
        assert applied == 36
        assert archive_state(archis, with_rids=False) == expected
        assert check_archive(archis) == []
