"""WAL + recovery tests: frame codec, pager transactions, crash matrix."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BlobStore, BufferPool, InjectedCrash, get_crash_points
from repro.storage.page import PAGE_SIZE
from repro.storage.pager import Pager
from repro.storage.wal import (
    _HEADER,
    FRAME_COMMIT,
    FRAME_PAGE,
    PAGE_KEY_BITS,
    WriteAheadLog,
)


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "data.db")


@pytest.fixture(autouse=True)
def disarm_crash_points():
    yield
    get_crash_points().reset()


def page(fill: bytes) -> bytes:
    return fill * PAGE_SIZE


def logged_frames(wal_path):
    """``(frame type, txn id, page number or None)`` for every frame."""
    with open(wal_path, "rb") as handle:
        data = handle.read()
    frames = []
    offset = 0
    while offset < len(data):
        _, kind, key, length, _ = _HEADER.unpack_from(data, offset)
        offset += _HEADER.size + length
        if kind == FRAME_PAGE:
            page_no = key & ((1 << PAGE_KEY_BITS) - 1)
            frames.append((kind, key >> PAGE_KEY_BITS, page_no))
        else:
            frames.append((kind, key, None))
    return frames


class TestWalFrames:
    def test_committed_frames_roundtrip(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append_page(0, page(b"a"))
        wal.append_page(3, page(b"b"))
        wal.append_meta(".catalog.json", b'{"x": 1}')
        wal.append_commit()
        wal.close()
        pages, metas, report = WriteAheadLog(wal.path).scan()
        assert pages == {0: page(b"a"), 3: page(b"b")}
        assert metas == {".catalog.json": b'{"x": 1}'}
        assert report.replayed and report.commits == 1
        assert report.torn_bytes == 0

    def test_uncommitted_frames_discarded(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append_page(0, page(b"a"))
        wal.close()
        pages, metas, report = WriteAheadLog(wal.path).scan()
        assert pages == {} and metas == {}
        assert not report.replayed
        assert report.uncommitted_frames == 1

    def test_torn_tail_detected_after_commit(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.append_page(0, page(b"a"))
        wal.append_commit()
        wal.append_page(1, page(b"b"))
        wal.close()
        # tear the last frame mid-payload
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - PAGE_SIZE // 2)
        pages, _, report = WriteAheadLog(path).scan()
        assert pages == {0: page(b"a")}  # first transaction survives
        assert report.torn_bytes > 0

    def test_bitflip_invalidates_frame(self, tmp_path):
        path = str(tmp_path / "t.wal")
        wal = WriteAheadLog(path)
        wal.append_page(0, page(b"a"))
        wal.append_commit()
        wal.close()
        with open(path, "r+b") as handle:
            data = bytearray(handle.read())
            data[40] ^= 0xFF  # inside the first frame's payload
            handle.seek(0)
            handle.write(data)
        pages, _, report = WriteAheadLog(path).scan()
        assert pages == {}
        assert not report.replayed
        assert report.torn_bytes > 0

    def test_later_uncommitted_transaction_dropped(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "t.wal"))
        wal.append_page(0, page(b"a"))
        wal.append_commit()
        wal.append_page(0, page(b"z"))  # never committed
        wal.close()
        pages, _, report = WriteAheadLog(wal.path).scan()
        assert pages == {0: page(b"a")}
        assert report.uncommitted_frames == 1


class TestPagerWal:
    def test_committed_writes_survive_a_crash(self, db_path):
        pager = Pager(db_path)
        no = pager.allocate()
        pager.write_page(no, page(b"a"))
        pager.commit()
        # simulate a crash: abandon without close/checkpoint
        again = Pager(db_path)
        assert again.recovery_report.replayed
        assert again.read_page(no) == page(b"a")
        again.close()

    def test_uncommitted_writes_roll_back(self, db_path):
        pager = Pager(db_path)
        no = pager.allocate()
        pager.write_page(no, page(b"a"))
        pager.checkpoint()
        pager.write_page(no, page(b"b"))  # never committed
        again = Pager(db_path)
        assert not again.recovery_report.replayed
        assert again.read_page(no) == page(b"a")
        again.close()

    def test_checkpoint_truncates_the_log(self, db_path):
        pager = Pager(db_path)
        no = pager.allocate()
        pager.write_page(no, page(b"a"))
        pager.checkpoint()
        assert os.path.getsize(db_path + ".wal") == 0
        assert os.path.getsize(db_path) == PAGE_SIZE
        pager.close()

    def test_sidecar_staged_until_checkpoint(self, db_path):
        pager = Pager(db_path)
        pager.write_sidecar(".meta.json", b'{"v": 1}')
        assert not os.path.exists(db_path + ".meta.json")
        pager.checkpoint()
        with open(db_path + ".meta.json", "rb") as handle:
            assert handle.read() == b'{"v": 1}'
        pager.close()

    def test_close_checkpoints(self, db_path):
        with Pager(db_path) as pager:
            no = pager.allocate()
            pager.write_page(no, page(b"q"))
        with Pager(db_path, durability="none") as raw:
            assert raw.read_page(no) == page(b"q")

    def test_recovery_is_idempotent(self, db_path):
        pager = Pager(db_path)
        pager.allocate()
        pager.write_page(0, page(b"a"))
        pager.commit()
        first = Pager(db_path)
        assert first.recovery_report.replayed
        second = Pager(db_path)
        assert not second.recovery_report.replayed  # already applied
        assert second.read_page(0) == page(b"a")
        second.close()

    def test_stale_tmp_files_removed_on_open(self, db_path):
        Pager(db_path).close()
        stale = db_path + ".meta.json.tmp"
        with open(stale, "w") as handle:
            handle.write("{")
        pager = Pager(db_path)
        assert not os.path.exists(stale)
        assert stale in pager.recovery_report.stale_tmp_files
        pager.close()

    def test_reads_see_overlay_before_checkpoint(self, db_path):
        pager = Pager(db_path)
        pool = BufferPool(pager, capacity=2)
        no = pool.allocate()
        pool.put(no, page(b"x"))
        pool.reset()
        assert pool.get(no) == page(b"x")  # served from the WAL overlay
        pager.close()


def run_schedule(pager, schedule):
    """Replay ``(op, txn, ...)`` steps against ``pager``."""
    for step in schedule:
        kind, txn = step[0], step[1]
        if kind == "abort":
            pager.discard_wal_txn(txn)
            continue
        pager.set_wal_txn(txn)
        try:
            if kind == "write":
                pager.write_page(step[2], page(bytes([step[3]])))
            else:
                pager.commit()
        finally:
            pager.clear_wal_txn()


def model_pages(schedule, commits):
    """Page images after the first ``commits`` effective commits.

    At each commit, publish that transaction's last image of each page
    it wrote; an abort forgets the transaction's images, and a commit
    with nothing written is not a commit at all.
    """
    pending: dict[int, dict[int, int]] = {}
    published: dict[int, int] = {}
    done = 0
    for step in schedule:
        if done == commits:
            break
        kind, txn = step[0], step[1]
        if kind == "write":
            pending.setdefault(txn, {})[step[2]] = step[3]
        elif kind == "abort":
            pending.pop(txn, None)
        elif txn in pending:
            published.update(pending.pop(txn))
            done += 1
    return published


def retire_aborted_ids(schedule, slots=3):
    """Give each transaction slot a fresh id after it aborts: like the
    transaction manager, a schedule never reuses an aborted txn id."""
    generation = [0] * slots
    renamed = []
    for step in schedule:
        slot = step[1]
        renamed.append((step[0], slot + slots * generation[slot]) + step[2:])
        if step[0] == "abort":
            generation[slot] += 1
    return renamed


# few pages, so a transaction often rewrites a page before it commits
MODEL_PAGES = 4
schedule_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.integers(0, 2),
            st.integers(0, MODEL_PAGES - 1),
            st.integers(1, 255),
        ),
        st.tuples(st.just("commit"), st.integers(0, 2)),
        st.tuples(st.just("abort"), st.integers(0, 2)),
    ),
    max_size=40,
)


class TestCommitTimeLogging:
    """Pages are logged at commit: one frame per dirty page, nothing
    for an aborted transaction, and recovery publishes exactly what a
    commit-by-commit model of the schedule says."""

    def test_each_dirty_page_is_logged_once(self, db_path):
        pager = Pager(db_path)
        p, q = pager.allocate(), pager.allocate()
        pager.checkpoint()
        for i in range(10):
            pager.write_page(p, page(bytes([0x10 + i])))
        for i in range(3):
            pager.write_page(q, page(bytes([0x30 + i])))
        r = pager.allocate()
        pager.commit()
        frames = logged_frames(db_path + ".wal")
        assert sorted(frames) == [
            (FRAME_PAGE, 0, p), (FRAME_PAGE, 0, q), (FRAME_PAGE, 0, r),
            (FRAME_COMMIT, 0, None),
        ]
        assert frames[-1][0] == FRAME_COMMIT
        with WriteAheadLog(db_path + ".wal") as wal:
            pages, _, report = wal.scan()
        assert report.commits == 1 and report.pages_replayed == 3
        assert pages == {p: page(b"\x19"), q: page(b"\x32"), r: page(b"\x00")}
        recovered = Pager(db_path)  # crash: reopen without close
        assert [recovered.read_page(no) for no in (p, q, r)] == [
            page(b"\x19"), page(b"\x32"), page(b"\x00"),
        ]
        recovered.close()
        pager.close()

    def test_commit_counts_one_write_per_logged_page(self, db_path):
        from repro.obs.metrics import get_registry

        pager = Pager(db_path)
        no = pager.allocate()
        global_writes = get_registry().counter("pager.writes")
        before_stats = pager.io_stats()
        before_global = global_writes.value
        for fill in b"abc":
            pager.write_page(no, page(bytes([fill])))
        assert pager.io_stats().delta(before_stats).writes == 0
        pager.commit()
        assert pager.io_stats().delta(before_stats).writes == 1
        assert global_writes.value == before_global + 1
        pager.close()

    def test_aborted_transaction_leaves_nothing_in_the_log(self, db_path):
        pager = Pager(db_path)
        a, b = pager.allocate(), pager.allocate()
        pager.checkpoint()
        pager.set_wal_txn(7)
        pager.write_page(a, page(b"x"))
        pager.clear_wal_txn()
        pager.discard_wal_txn(7)
        pager.write_page(b, page(b"y"))
        pager.commit()
        # nothing keyed with txn 7: only txn 0's page and COMMIT
        assert logged_frames(db_path + ".wal") == [
            (FRAME_PAGE, 0, b), (FRAME_COMMIT, 0, None),
        ]
        pager.close()

    @settings(max_examples=100, deadline=None)
    @given(schedule_steps, st.integers(0, 12))
    def test_recovery_matches_the_commit_model(self, schedule, commits):
        schedule = retire_aborted_ids(schedule)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "model.db")
            pager = Pager(path)
            for _ in range(MODEL_PAGES):
                pager.allocate()
            pager.checkpoint()
            try:
                # crash as the commit after the first ``commits`` begins
                with get_crash_points().crash_at(
                    "wal.commit.begin", commits + 1
                ):
                    run_schedule(pager, schedule)
            except InjectedCrash:
                pass
            expected = model_pages(schedule, commits)
            recovered = Pager(path)  # abandon the crashed pager, reopen
            images = [recovered.read_page(no) for no in range(MODEL_PAGES)]
            recovered.close()
            pager.close()  # only releases handles: the files are discarded
        assert images == [
            page(bytes([expected.get(no, 0)])) for no in range(MODEL_PAGES)
        ]


class TestPagerCrashMatrix:
    """Crash at every point of a full two-version save; reopen; assert
    the pre- or post-save state — pages and sidecar always in step."""

    PAGES = 3

    def save_version(self, pager, fill, version):
        for no in range(self.PAGES):
            pager.write_page(no, page(fill))
        pager.write_sidecar(".meta.json", json.dumps({"v": version}).encode())
        pager.checkpoint()

    def build_v1(self, db_path):
        pager = Pager(db_path)
        for _ in range(self.PAGES):
            pager.allocate()
        self.save_version(pager, b"a", 1)
        return pager

    def state_of(self, db_path):
        with open(db_path + ".meta.json", encoding="utf-8") as handle:
            version = json.load(handle)["v"]
        with Pager(db_path, durability="none") as raw:
            images = {raw.read_page(no)[:1] for no in range(self.PAGES)}
        return version, images

    def test_every_crash_point_leaves_v1_or_v2(self, tmp_path):
        crash_points = get_crash_points()
        with crash_points.recording() as fired:
            pager = self.build_v1(str(tmp_path / "probe.db"))
            fired.clear()  # enumerate only the v2 save
            self.save_version(pager, b"b", 2)
            pager.close()
        matrix = []
        counts = {}
        for name in fired:
            counts[name] = counts.get(name, 0) + 1
            matrix.append((name, counts[name]))
        assert matrix, "no crash points fired during the save"
        for index, (point, occurrence) in enumerate(matrix):
            db_path = str(tmp_path / f"m{index}.db")
            pager = self.build_v1(db_path)
            with pytest.raises(InjectedCrash):
                with crash_points.crash_at(point, occurrence):
                    self.save_version(pager, b"b", 2)
            recovered = Pager(db_path)  # replay/discard, then close
            recovered.close()
            version, images = self.state_of(db_path)
            expected = {1: {b"a"}, 2: {b"b"}}[version]
            assert images == expected, (
                f"mixed page/sidecar state after crash at {point}#{occurrence}: "
                f"sidecar v{version}, pages {images}"
            )
            assert os.path.getsize(db_path + ".wal") == 0
            assert not any(
                name.endswith(".tmp") for name in os.listdir(tmp_path)
            )


class TestConcurrentCrashMatrix:
    """N writer threads committing tagged transactions while a crash
    point is armed with process-death semantics (``crash_from`` kills
    every thread that crosses the point from the N-th firing on).  On
    reopen the durable state must be prefix-consistent: each writer's
    committed transactions form a prefix of its sequence, every
    acknowledged commit is durable, and no transaction is half-applied.
    """

    WRITERS = 4
    TXNS_PER_WRITER = 3
    PAGES_PER_TXN = 2

    MATRIX = [
        ("wal.commit.begin", 2),
        ("wal.commit.begin", 5),
        ("wal.frame.torn", 3),
        ("wal.frame.torn", 9),
        ("wal.frame.appended", 4),
        ("wal.commit.synced", 2),
    ]

    def txn_id(self, writer, step):
        return writer * self.TXNS_PER_WRITER + step + 1

    def txn_pages(self, writer, step):
        base = (self.txn_id(writer, step) - 1) * self.PAGES_PER_TXN
        return range(base, base + self.PAGES_PER_TXN)

    def fill(self, writer, step):
        return bytes([0x10 + self.txn_id(writer, step)])

    @pytest.mark.parametrize("point,occurrence", MATRIX)
    def test_reopen_state_is_prefix_consistent(
        self, tmp_path, point, occurrence
    ):
        import threading

        db_path = str(tmp_path / "conc.db")
        pager = Pager(db_path, group_commit=True, group_window=0.002)
        total = self.WRITERS * self.TXNS_PER_WRITER * self.PAGES_PER_TXN
        for _ in range(total):
            pager.allocate()
        pager.commit()
        pager.checkpoint()  # baseline: all pages zeroed, empty log

        acknowledged = []
        ack_lock = threading.Lock()
        failures = []

        def writer(writer_id):
            try:
                for step in range(self.TXNS_PER_WRITER):
                    txn = self.txn_id(writer_id, step)
                    pager.set_wal_txn(txn)
                    for no in self.txn_pages(writer_id, step):
                        pager.write_page(no, page(self.fill(writer_id, step)))
                    pager.commit()
                    pager.clear_wal_txn()
                    with ack_lock:
                        acknowledged.append((writer_id, step))
            except InjectedCrash:
                return  # this thread's "process" died here
            except Exception as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=writer, args=(w,))
            for w in range(self.WRITERS)
        ]
        with get_crash_points().crash_from(point, occurrence):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        assert not failures, failures
        assert not any(thread.is_alive() for thread in threads)

        # crash: abandon the pager without close/checkpoint and reopen
        recovered = Pager(db_path)
        durable = set()
        for writer_id in range(self.WRITERS):
            for step in range(self.TXNS_PER_WRITER):
                images = {
                    recovered.read_page(no)[:1]
                    for no in self.txn_pages(writer_id, step)
                }
                expected = self.fill(writer_id, step)
                assert images in ({b"\x00"}, {expected}), (
                    f"half-applied txn writer={writer_id} step={step}: "
                    f"{images}"
                )
                if images == {expected}:
                    durable.add((writer_id, step))
        recovered.close()

        # every acknowledged commit survived the crash
        missing = set(acknowledged) - durable
        assert not missing, f"acknowledged but lost: {sorted(missing)}"
        # each writer commits sequentially, so its durable transactions
        # must form a prefix of its sequence
        for writer_id in range(self.WRITERS):
            steps = sorted(s for w, s in durable if w == writer_id)
            assert steps == list(range(len(steps))), (
                f"non-prefix durable state for writer {writer_id}: {steps}"
            )


class TestDurabilitySatellites:
    def test_sync_fsyncs_file_backed_pager(self, db_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        pager = Pager(db_path, durability="none")
        pager.allocate()
        synced.clear()
        pager.sync()
        assert synced, "sync() must fsync a file-backed pager"
        synced.clear()
        pager.close()
        assert synced, "close() must fsync a file-backed pager"

    def test_wal_sync_commits_durably(self, db_path, monkeypatch):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(fd) or real_fsync(fd))
        pager = Pager(db_path)
        pager.allocate()
        synced.clear()
        pager.sync()
        assert synced, "sync() in WAL mode must fsync the log"
        pager.close()

    def test_memory_pager_sync_and_close_are_safe(self):
        pager = Pager()
        pager.allocate()
        pager.sync()  # BytesIO has no fileno: must not raise
        pager.close()

    def test_truncate_counts_a_physical_write(self):
        from repro.obs.metrics import get_registry

        pager = Pager()
        pager.allocate()
        global_writes = get_registry().counter("pager.writes")
        before_stats = pager.io_stats()
        before_global = global_writes.value
        pager.truncate()
        assert pager.io_stats().delta(before_stats).writes == 1
        assert global_writes.value == before_global + 1

    def test_unknown_durability_mode_rejected(self, db_path):
        with pytest.raises(StorageError):
            Pager(db_path, durability="paranoid")

    def test_memory_pager_forces_durability_none(self):
        assert Pager(None).durability == "none"

    def test_database_exposes_durability(self, db_path):
        from repro.rdb import Database

        assert Database().durability == "none"
        with Database(db_path) as db:
            assert db.durability == "wal"
        with Database(db_path, durability="none") as db:
            assert db.durability == "none"


class TestBlobSnapshot:
    def test_snapshot_restore_roundtrip(self):
        pool = BufferPool(Pager(), capacity=8)
        blobs = BlobStore(pool)
        first = blobs.put(b"alpha" * 100)
        second = blobs.put(b"beta")
        blobs.delete(first)
        snap = blobs.snapshot()

        clone = BlobStore(pool)
        clone.restore(snap)
        assert clone.get(second) == b"beta"
        assert first not in clone
        assert clone.put(b"gamma") > second  # next_id restored

    def test_snapshot_is_json_ready(self):
        pool = BufferPool(Pager(), capacity=8)
        blobs = BlobStore(pool)
        blobs.put(b"payload")
        restored = json.loads(json.dumps(blobs.snapshot()))
        clone = BlobStore(pool)
        clone.restore(restored)
        assert clone.get(1) == b"payload"

    def test_malformed_snapshot_rejected(self):
        blobs = BlobStore(BufferPool(Pager(), capacity=8))
        with pytest.raises(StorageError):
            blobs.restore({"entries": [{"id": 1}]})
