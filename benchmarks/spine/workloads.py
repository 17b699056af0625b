"""The four macro workloads of the measurement spine.

Every workload builds its archive through the public API from a seeded
:class:`~history.History`, runs a closed loop for the measuring time,
and checks every answer against the :class:`~history.Oracle`.  See
README.md for what an *op* is in each and why each exists.
"""

from __future__ import annotations

import dataclasses
import glob
import math
import os
import random
import threading
from time import perf_counter
from typing import Callable, NamedTuple

from repro import (
    ArchIS,
    ArchISConfig,
    Client,
    ColumnType,
    Database,
    Server,
    TxnManager,
    format_date,
)
from repro.errors import ReproError

from history import ATTRIBUTES, COLUMNS, DAY0, History, Oracle, user_bytes
from spans import Trace, counter_delta, ratio, read_counters

try:  # measured from outside when present; a layer reads null when gone
    from repro.sql.parser import parse_sql
except ImportError:
    parse_sql = None
try:
    from repro.server.encoding import decode_result, encode_result
except ImportError:
    encode_result = decode_result = None

CHUNK = 256  # DML statements fed between two apply_pending() calls
UMIN = 0.4
MIN_SEGMENT_ROWS = 1024
DOC = 'doc("employees.xml")/employees/employee'


def make_config(**wanted) -> ArchISConfig:
    """The one place an ``ArchISConfig`` is built: fields the dataclass
    no longer has are dropped, so deleting an option cannot break the
    benchmark."""
    known = {field.name for field in dataclasses.fields(ArchISConfig)}
    return ArchISConfig(
        **{name: value for name, value in wanted.items() if name in known}
    )


def spine_config() -> ArchISConfig:
    return make_config(
        umin=UMIN,
        min_segment_rows=MIN_SEGMENT_ROWS,
        batch_size=CHUNK,
        maintenance="background",
        durability="wal",
    )


def same(left, right) -> bool:
    """Equality with a relative tolerance on floats, through tuples."""
    if isinstance(left, (tuple, list)) and isinstance(right, (tuple, list)):
        return len(left) == len(right) and all(map(same, left, right))
    if isinstance(left, float) or isinstance(right, float):
        return (
            left is not None
            and right is not None
            and math.isclose(left, right, rel_tol=1e-9)
        )
    return left == right


def summarize(latencies: list[float]) -> dict:
    """Median and the highest percentile with >= 10 samples beyond it
    (p95 from 200 samples up), in milliseconds."""
    ordered = sorted(latencies)
    count = len(ordered)
    tail = max(count // 2, min(math.ceil(0.95 * count) - 1, count - 11))
    return {
        "samples": count,
        "p50_ms": 1000 * ordered[count // 2],
        "tail_ms": 1000 * ordered[tail],
        "tail_percentile": round(100 * (tail + 1) / count, 1),
        "max_ms": 1000 * ordered[-1],
    }


class Archive:
    """A tracked ``employee`` table fed from a History by plain DML."""

    def __init__(
        self, history: History, trace: Trace, path: str | None = None
    ) -> None:
        self.history = history
        self.trace = trace
        self.path = path
        self.config = spine_config()
        self.db = Database(
            path,
            buffer_pages=self.config.buffer_pages,
            durability=self.config.durability,
        )
        self.db.set_date(DAY0)
        self.db.create_table(
            "employee",
            [
                ("id", ColumnType.INT),
                ("name", ColumnType.VARCHAR),
                ("salary", ColumnType.INT),
                ("title", ColumnType.VARCHAR),
                ("deptno", ColumnType.VARCHAR),
            ],
            primary_key=("id",),
        )
        self.archis = ArchIS(self.db, config=self.config)
        self.archis.track_table("employee", document_name="employees.xml")

    def feed(self, durable: bool = False):
        """Write the history one DML per log entry, archiving every
        ``CHUNK`` statements; yields each ``apply_pending`` latency."""
        table = self.db.table("employee")
        rids, rows = {}, {}
        history = self.history
        statements = [(DAY0, row[0], None, row) for row in history.hires]
        statements += history.changes
        for start in range(0, len(statements), CHUNK):
            with self.trace.span("rdb.dml"):
                for day, key, column, value in statements[start:start + CHUNK]:
                    if column is None:
                        rows[key] = value
                        rids[key] = table.insert(value)
                    else:
                        self.db.advance_to(day)
                        at = COLUMNS.index(column)
                        row = rows[key] = (
                            rows[key][:at] + (value,) + rows[key][at + 1:]
                        )
                        rids[key] = table.update_rid(rids[key], row)
            began = perf_counter()
            with self.trace.span("archis.ingest"):
                self.archis.apply_pending(durable=durable)
            yield perf_counter() - began

    def settle(self, compress: bool = False, save: bool = False) -> None:
        with self.trace.span("archis.maintenance"):
            self.archis.drain_maintenance()
        if compress:
            with self.trace.span("blockzip.compress"):
                self.archis.compress_archive()
        if save:
            with self.trace.span("storage.save"):
                self.archis.save()

    def stored_rows(self) -> int:
        """Rows physically in the H-tables (frozen-segment copies of
        still-live versions included)."""
        names = ["employee_id"] + [f"employee_{a}" for a in ATTRIBUTES]
        return sum(self.db.table(name).row_count for name in names)

    def stored_bytes(self) -> int:
        """``storage_bytes()`` plus, when file-backed, every file of the
        database (pages, WAL, sidecars) as it is on disk now."""
        total = self.archis.storage_bytes()
        if self.path is not None:
            total += sum(map(os.path.getsize, glob.glob(self.path + "*")))
        return total


class Op(NamedTuple):
    cls: str
    kind: str  # "sql" | "xquery"
    text: str
    digest: Callable  # result rows -> comparable summary
    expect: Callable  # () -> the oracle's summary


def _as_of(day: int) -> str:
    return f"FOR SYSTEM_TIME AS OF DATE '{format_date(day)}'"


def _valid_on(day: int) -> str:
    date = format_date(day)
    return f'[tstart(.) <= xs:date("{date}") and tend(.) >= xs:date("{date}")]'


def _interval_sums(versions) -> tuple:
    versions = list(versions)
    return (
        len(versions),
        sum(v[2] for v in versions),
        sum(v[0] for v in versions),
    )


class Queries:
    """The query classes, each paired with its pointwise definition."""

    def __init__(self, history: History, oracle: Oracle) -> None:
        self.oracle = oracle
        self.population = history.population
        self.last_day = history.last_day
        # with nobody leaving, a segment freezes once it holds live/UMIN
        # rows (and MIN_SEGMENT_ROWS), live of them copied in at its
        # start; the last freeze is where the live segment starts
        live_rows = 5 * history.population
        per_freeze = max(int(live_rows / UMIN), MIN_SEGMENT_ROWS) - live_rows
        frozen = len(history.changes) // per_freeze * per_freeze
        self.live_start = history.changes[frozen - 1][0] if frozen else DAY0

    def key(self, rng) -> int:
        """80% of picks fall on the hottest 20% of keys."""
        hot = max(1, self.population // 5)
        if rng.random() < 0.8:
            return rng.randint(1, hot)
        return rng.randint(hot + 1, self.population)

    def day(self, rng, where: str) -> int:
        if where == "live":
            return rng.randint(self.live_start, self.last_day)
        if where == "frozen":
            return rng.randint(DAY0, max(DAY0, self.live_start - 1))
        return rng.randint(DAY0, self.last_day)

    # -- keyed (point) classes ---------------------------------------------

    def q1(self, rng, where: str) -> Op:
        key, day = self.key(rng), self.day(rng, where)
        return Op(
            f"Q1.{where}",
            "xquery",
            f'for $s in {DOC}[id="{key}"]/salary{_valid_on(day)} return $s',
            lambda rows: (len(rows), int(rows[0].text())),
            lambda: (1, self.oracle.at("salary", key, day)[2]),
        )

    def q3(self, rng, where: str = "") -> Op:
        key = self.key(rng)
        return Op(
            "Q3",
            "xquery",
            f'for $s in {DOC}[id="{key}"]/salary return $s',
            lambda rows: (len(rows), sum(int(e.text()) for e in rows)),
            lambda: _interval_sums(self.oracle.history("salary", key))[:2],
        )

    def as_of_key(self, rng, where: str) -> Op:
        key, day = self.key(rng), self.day(rng, where)
        return Op(
            f"asof_key.{where}",
            "sql",
            "SELECT t.id, t.salary FROM employee_salary t "
            f"{_as_of(day)} WHERE t.id = {key}",
            lambda rows: [tuple(row) for row in rows],
            lambda: [(key, self.oracle.at("salary", key, day)[2])],
        )

    def slice_key(self, rng, where: str) -> Op:
        key, low = self.key(rng), self.day(rng, where)
        high = low + rng.randint(200, 1500)
        return Op(
            f"slice_key.{where}",
            "sql",
            "SELECT t.id, t.salary, t.tstart, t.tend FROM employee_salary t "
            f"FOR SYSTEM_TIME FROM DATE '{format_date(low)}' "
            f"TO DATE '{format_date(high)}' WHERE t.id = {key}",
            lambda rows: _interval_sums((r[2], r[3], r[1]) for r in rows),
            # FROM..TO is closed-open
            lambda: _interval_sums(
                self.oracle.slice("salary", key, low, high - 1)
            ),
        )

    # -- analytic (scan) classes -------------------------------------------

    def q2(self, rng, where: str = "any") -> Op:
        day = self.day(rng, where)
        return Op(
            "Q2",
            "xquery",
            f"avg({DOC}/salary{_valid_on(day)})",
            lambda rows: float(rows[0]),
            lambda: self.oracle.average("salary", day),
        )

    def q4(self, rng, where: str = "") -> Op:
        return Op(
            "Q4",
            "xquery",
            f"count({DOC}/salary)",
            lambda rows: int(rows[0]),
            lambda: sum(1 for _ in self.oracle.versions("salary")),
        )

    def q5(self, rng, where: str = "") -> Op:
        # The window stays inside the first segment: one that spans a
        # freeze double-counts versions closed on the freeze day (see
        # README.md, "Defects the oracle found").
        width = rng.randint(200, 1500)
        low = rng.randint(DAY0, max(DAY0, self.live_start - 60 - width))
        high = low + width
        floor = rng.randrange(40000, 90000, 1000)
        return Op(
            "Q5",
            "xquery",
            f"count({DOC}/salary[toverlaps(., telement("
            f'xs:date("{format_date(low)}"), xs:date("{format_date(high)}")))'
            f" and . > {floor}])",
            lambda rows: int(rows[0]),
            lambda: sum(
                1
                for _, v in self.oracle.versions("salary")
                if v[0] <= high and v[1] >= low and v[2] > floor
            ),
        )

    def q6(self, rng, where: str = "any") -> Op:
        after = self.day(rng, where)
        window = rng.choice((365, 730, 1095))
        return Op(
            "Q6",
            "xquery",
            f"max(for $e in {DOC} for $a in $e/salary for $b in $e/salary "
            f'where tstart($a) >= xs:date("{format_date(after)}") '
            "and tstart($b) > tstart($a) "
            f"and tstart($b) - tstart($a) <= {window} return $b - $a)",
            # max() of no pair at all answers with a null
            lambda rows: [int(v) for v in rows if v is not None],
            lambda: [
                value
                for value in [self.oracle.max_increase("salary", after, window)]
                if value is not None
            ],
        )

    def _key_range(self, rng, share: float) -> range:
        width = max(1, int(self.population * share))
        first = rng.randint(1, self.population - width + 1)
        return range(first, first + width)

    def temporal_join(self, rng, where: str = "") -> Op:
        keys = self._key_range(rng, 0.5)
        # either partner: with both in play a round's working set
        # (salary, id, title, deptno) is larger than the buffer pool
        partner = rng.choice(("title", "deptno"))
        return Op(
            "temporal_join",
            "sql",
            f"SELECT a.id, a.salary, b.{partner}, a.tstart, a.tend "
            f"FROM employee_salary a TEMPORAL JOIN employee_{partner} b "
            f"ON a.id = b.id WHERE a.id BETWEEN {keys[0]} AND {keys[-1]}",
            lambda rows: _interval_sums((r[3], r[4], r[1]) for r in rows),
            lambda: _interval_sums(
                (start, end, salary)
                for _, salary, _, start, end in self.oracle.temporal_join(
                    "salary", partner, keys
                )
            ),
        )

    def tavg(self, rng, where: str = "") -> Op:
        """Checked pointwise: the period count, and the average on the
        first day of the first, middle and last period."""
        keys = self._key_range(rng, 0.5)

        def picks(ordered: list) -> list:
            return [ordered[0], ordered[len(ordered) // 2], ordered[-1]]

        def expected() -> tuple:
            days = sorted(self.oracle.change_days("salary", keys))
            return len(days), [
                (day, self.oracle.average("salary", day, keys))
                for day in picks(days)
            ]

        return Op(
            "tavg",
            "sql",
            "SELECT tavg(t.salary) FROM employee_salary t "
            f"WHERE t.id BETWEEN {keys[0]} AND {keys[-1]}",
            lambda rows: (
                len(rows), picks(sorted((r[1], r[0]) for r in rows)),
            ),
            expected,
        )

    def as_of_all(self, rng, where: str = "any") -> Op:
        day = self.day(rng, where)
        return Op(
            "asof_all",
            "sql",
            "SELECT t.id, t.salary FROM employee_salary t "
            f"{_as_of(day)} ORDER BY t.id",
            lambda rows: (len(rows), sum(row[1] for row in rows)),
            lambda: (
                self.population,
                sum(self.oracle.snapshot("salary", day).values()),
            ),
        )


def answer(archis: ArchIS, op: Op) -> list:
    if op.kind == "sql":
        return archis.sql(op.text).rows
    return archis.xquery(op.text, allow_fallback=False).rows


class Outcome:
    """What one pass of one workload measured."""

    def __init__(self) -> None:
        self.samples: list[tuple[str, float]] = []  # (class, seconds)
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.wall = 0.0
        self.work = 0  # what ops_per_s counts
        #: counters before/after the counted ops (traced pass only)
        self.counted: tuple[dict, dict] | None = None
        self.counted_ops = 0
        self.counted_rows = 0
        self.counted_wall = 0.0
        self.info: dict = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = what


class Workload:
    """Base: sizes, set-up, the timed pass, and what must hold after."""

    name = ""  # the one-line why of each is in BENCHMARK.json
    op_unit = "op"
    single_client = True
    set_up_repeats = 1
    #: one round of reads: (Queries method name, where) per slot, in order
    slots: tuple = ()
    #: program counters that must stay zero / move in the traced pass
    idle_counters: tuple = ()
    busy_counters: tuple = ()

    def __init__(
        self, seed: int, seconds: float, smoke: bool, trace: Trace,
        work_dir: str,
    ) -> None:
        self.seed = seed
        self.trace = trace
        self.work_dir = work_dir
        population, updates = self.sizes(seconds, smoke)
        self.history = History(seed, population, updates)
        self.oracle = Oracle(self.history)
        self.queries = Queries(self.history, self.oracle)
        self.archive: Archive | None = None

    def sizes(self, seconds: float, smoke: bool) -> tuple[int, int]:
        """(population, updates)."""
        raise NotImplementedError

    def set_up(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def round(self, index: int) -> list[Op]:
        rng = random.Random(f"{self.seed}:{self.name}:{index}")
        return [
            getattr(self.queries, method)(rng, where)
            for method, where in self.slots
        ]

    def check_before_timing(self, op: Op, digest) -> None:
        if not same(digest, op.expect()):
            raise SystemExit(
                f"{self.name}: {op.cls} disagrees with the oracle before "
                f"timing: got {digest!r}, want {op.expect()!r}"
            )

    def close(self) -> None:
        if self.archive is not None:
            self.archive.archis.close()


class ReadWorkload(Workload):
    """Single client, in-memory archive, rounds of a fixed class mix."""

    size = (6000, 46500)
    smoke_size = (40, 1200)
    compress = False
    #: rounds (from the first) over which program counters are read, so
    #: that counts repeat exactly however many rounds the time fits
    counted_rounds = 2
    idle_counters = ("wal.fsyncs",)

    def sizes(self, seconds, smoke):
        return self.smoke_size if smoke else self.size

    def set_up(self) -> None:
        self.archive = Archive(self.history, self.trace)
        for _ in self.archive.feed():
            pass
        self.archive.settle()
        self.history_rows = self.archive.stored_rows()
        if self.compress:
            self.archive.settle(compress=True)

    def execute(self, op: Op, number: int) -> tuple:
        """One op as a client sees it; the traced pass first times the
        front end alone (parse, or a cold translate) from outside."""
        archis, trace = self.archive.archis, self.trace
        with trace.span("op", number):
            if trace.enabled:
                if op.kind == "xquery":
                    with trace.span("translate"):
                        archis.translate(op.text)
                elif parse_sql is not None:
                    with trace.span("sql.parse"):
                        parse_sql(op.text)
            with trace.span("plan"):
                rows = answer(archis, op)
            return op.digest(rows), len(rows)

    def warm_up(self) -> None:
        """One untimed round, each answer checked before any timing."""
        for op in self.round(-1):
            self.check_before_timing(op, self.execute(op, -1)[0])

    def run(self, seconds: float) -> Outcome:
        self.warm_up()
        self.trace.spans.clear()
        out = Outcome()
        done = []
        before = read_counters() if self.trace.enabled else None
        began = perf_counter()
        index = 0
        while index < self.counted_rounds or perf_counter() - began < seconds:
            for op in self.round(index):
                out.attempted += 1
                started = perf_counter()
                try:
                    digest, rows = self.execute(op, out.attempted)
                except ReproError as exc:
                    out.fail(f"{op.cls}: {exc!r}")
                    continue
                out.samples.append((op.cls, perf_counter() - started))
                done.append((op, digest))
                if out.counted is None:
                    out.counted_rows += rows
            index += 1
            if before is not None and index == self.counted_rounds:
                out.counted = (before, read_counters())
                out.counted_ops = out.attempted
                out.counted_wall = perf_counter() - began
        out.wall = perf_counter() - began
        out.work = len(out.samples)
        for op, digest in done:
            if not same(digest, op.expect()):
                out.fail(f"{op.cls}: got {digest!r}, want {op.expect()!r}")
        out.info = {
            "rounds": index,
            "history_rows": self.history_rows,
            "stored_bytes": self.archive.stored_bytes(),
            "user_bytes": self.history.user_bytes,
        }
        return out


class PointZip(ReadWorkload):
    """Keyed reads on a compressed archive; the class mix is exact:
    each keyed class once on a live and once on a frozen date, Q3 twice."""

    name = "point-zip"
    compress = True
    slots = (
        ("q1", "frozen"),
        ("as_of_key", "live"),
        ("slice_key", "frozen"),
        ("q3", ""),
        ("as_of_key", "frozen"),
        ("q1", "live"),
        ("slice_key", "live"),
        ("q3", ""),
    )
    busy_counters = ("blockzip.blocks_decompressed",)


class ScanPlain(ReadWorkload):
    """Analytic reads on the plain segmented archive, each class once."""

    name = "scan-plain"
    slots = (
        ("q2", "any"),
        ("q4", ""),
        ("q5", ""),
        ("q6", "any"),
        ("temporal_join", ""),
        ("tavg", ""),
        ("as_of_all", "any"),
    )
    idle_counters = ("wal.fsyncs", "blockzip.blocks_decompressed")


class IngestHotkey(Workload):
    """The write path, file-backed: the timed window is the ingest itself,
    through compress and save, then a reopen that re-checks the answers."""

    name = "ingest-hotkey"
    op_unit = "entry"
    #: log entries per measuring second.  The entry count is fixed by
    #: --seconds, not by the clock, so that the freezes, the stored bytes
    #: and every program count repeat exactly.
    entries_per_second = 1792
    updates_per_key = 50
    set_up_repeats = 5  # set-up is a fraction of a second: take a median
    busy_counters = ("wal.fsyncs", "clustering.segments_frozen")

    def sizes(self, seconds, smoke):
        rate = 6 * CHUNK if smoke else self.entries_per_second
        entries = max(CHUNK, int(seconds * rate) // CHUNK * CHUNK)
        population = max(8, entries // self.updates_per_key)
        return population, entries - population

    def set_up(self) -> None:
        path = os.path.join(self.work_dir, "ingest.db")
        self.archive = Archive(self.history, self.trace, path)

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        archive = self.archive
        before = read_counters() if self.trace.enabled else None
        began = perf_counter()
        for latency in archive.feed(durable=True):
            out.samples.append(("apply_chunk", latency))
        archive.settle()
        history_rows = archive.stored_rows()
        archive.settle(compress=True, save=True)
        out.wall = perf_counter() - began
        out.attempted = len(out.samples)
        out.work = self.history.entries
        if before is not None:
            out.counted = (before, read_counters())
            out.counted_ops = out.attempted
            out.counted_wall = out.wall
        out.info = {
            "history_rows": history_rows,
            "stored_bytes": archive.stored_bytes(),
            "user_bytes": self.history.user_bytes,
        }
        self.reopen_and_check(out)
        return out

    def reopen_and_check(self, out: Outcome) -> None:
        """Acknowledged writes must be readable after a restart."""
        self.archive.archis.close()
        archis = ArchIS.open(self.archive.path, config=self.archive.config)
        self.archive.archis = archis
        rng = random.Random(f"{self.seed}:reopen")
        ops = [self.queries.as_of_all(rng, w) for w in ("frozen", "any", "live")]
        ops.append(self.queries.q4(rng))
        for op in ops:
            digest = op.digest(answer(archis, op))
            if not same(digest, op.expect()):
                out.fail(f"after reopen, {op.cls}: got {digest!r}")


class ServeMixed(Workload):
    """A reader and a writer over the wire, beside each other."""

    name = "serve-mixed"
    single_client = False
    #: the reader's round: nine keyed AS OF, then one full snapshot
    slots = (("as_of_key", "any"),) * 9 + (("as_of_all", "any"),)
    idle_counters = ("blockzip.blocks_decompressed",)
    busy_counters = ("wal.fsyncs",)
    server: Server | None = None

    def sizes(self, seconds, smoke):
        # 150 updates short of the first freeze: the writer triggers a
        # freeze switch and its background rewrite early in the window
        return (40, 400) if smoke else (1000, 7350)

    def set_up(self) -> None:
        path = os.path.join(self.work_dir, "serve.db")
        self.archive = Archive(self.history, self.trace, path)
        for _ in self.archive.feed():
            pass
        self.archive.settle(save=True)
        self.manager = TxnManager(self.archive.db, self.archive.archis)
        self.server = Server(
            self.manager, self.archive.archis, workers=2
        ).start()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
        super().close()

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        lock = threading.Lock()
        acked: list[tuple[int, int, int]] = []  # (commit day, key, salary)
        host, port = self.server.address
        trace = self.trace
        with Client(host, port, encoding="binary") as client:
            for op in self.round(-1):  # untimed, checked before timing
                rows = client.sql(op.text)["rows"]
                self.check_before_timing(op, op.digest(rows))
        before = read_counters() if trace.enabled else None
        codec = {"rows": 0, "bytes": 0}
        deadline = perf_counter() + seconds

        def guarded(loop):
            def run_loop():
                try:
                    with Client(host, port, encoding="binary") as client:
                        loop(client)
                except Exception as exc:  # a dead client is a failed run
                    with lock:
                        out.fail(f"{loop.__name__} crashed: {exc!r}")
            return run_loop

        def reader(client):
            index = 0
            snapshot = self.manager.snapshot() if trace.enabled else None
            while perf_counter() < deadline:
                index += 1
                for op in self.round(index):
                    started = perf_counter()
                    try:
                        with trace.span("client.read"):
                            reply = client.sql(op.text)
                    except ReproError as exc:
                        with lock:
                            out.attempted += 1
                            out.fail(f"{op.cls}: {exc!r}")
                        continue
                    rows = reply["rows"]
                    digest = op.digest(rows)
                    elapsed = perf_counter() - started
                    if trace.enabled:
                        with trace.span("inprocess.read"):
                            snapshot.sql(op.text)
                        if encode_result is not None:
                            with trace.span("server.codec"):
                                frame = encode_result(rows, reply["columns"])
                                decode_result(frame)
                            codec["rows"] += len(rows)
                            codec["bytes"] += len(frame)
                    with lock:
                        out.attempted += 1
                        out.samples.append((op.cls, elapsed))
                        if not same(digest, op.expect()):
                            out.fail(f"{op.cls}: got {digest!r}")

        def writer(client):
            rng = random.Random(f"{self.seed}:writer")
            salary = 200000
            while perf_counter() < deadline:
                key = rng.randint(1, self.history.population)
                salary += rng.randint(1, 2000)
                started = perf_counter()
                try:
                    with trace.span("txn.begin"):
                        client.begin()
                    with trace.span("txn.sql"):
                        client.sql(
                            f"UPDATE employee SET salary = {salary} "
                            f"WHERE id = {key}"
                        )
                    with trace.span("txn.commit"):
                        day = client.commit()
                except ReproError as exc:
                    with lock:
                        out.attempted += 1
                        out.fail(f"write_commit: {exc!r}")
                    continue
                elapsed = perf_counter() - started
                acked.append((day, key, salary))
                with lock:
                    out.attempted += 1
                    out.samples.append(("write_commit", elapsed))

        threads = [
            threading.Thread(target=guarded(loop), name=loop.__name__)
            for loop in (reader, writer)
        ]
        began = perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120)
            if thread.is_alive():
                out.fail(f"{thread.name} did not stop")
        out.wall = perf_counter() - began
        out.work = len(out.samples)
        if before is not None:
            out.counted = (before, read_counters())
            out.counted_ops = out.attempted
            out.counted_wall = out.wall
            out.info["codec"] = codec
        self.check_commits_visible(out, acked)
        self.archive.settle(save=True)  # checkpoint, then measure on disk
        written = user_bytes(salary for _, _, salary in acked)
        out.info.update(
            history_rows=self.archive.stored_rows(),
            stored_bytes=self.archive.stored_bytes(),
            user_bytes=self.history.user_bytes + written,
            commits=len(acked),
        )
        return out

    def check_commits_visible(self, out: Outcome, acked: list) -> None:
        """Every acknowledged commit is in the current table and in the
        history as of its commit day, seen from a fresh connection."""
        for day, key, salary in acked:
            self.oracle.update(day, key, "salary", salary)
        final = max((day for day, _, _ in acked), default=self.history.last_day)
        want = self.oracle.snapshot("salary", final)
        host, port = self.server.address
        with Client(host, port, encoding="binary") as client:
            current = client.sql("SELECT id, salary FROM employee")["rows"]
            if dict(map(tuple, current)) != want:
                out.fail("current table differs from the acknowledged writes")
            archived = client.sql(
                f"SELECT t.id, t.salary FROM employee_salary t {_as_of(final)}"
            )["rows"]
            if dict(map(tuple, archived)) != want:
                out.fail("archive AS OF the last commit differs")
            for day, key, salary in acked[:: max(1, len(acked) // 20)]:
                rows = client.sql(
                    "SELECT t.salary FROM employee_salary t "
                    f"{_as_of(day)} WHERE t.id = {key}"
                )["rows"]
                if [tuple(row) for row in rows] != [(salary,)]:
                    out.fail(f"commit of day {day} is not in the history")


WORKLOADS = {
    cls.name: cls for cls in (IngestHotkey, PointZip, ScanPlain, ServeMixed)
}

#: the spans that are a layer's busy time on the single-client workloads
LAYER_SPANS = (
    "rdb.dml", "archis.ingest", "archis.maintenance", "blockzip.compress",
    "storage.save", "sql.parse", "translate", "plan",
)


def layers(workload: Workload, out: Outcome) -> dict:
    """The traced pass as ``{layer: {metric: {value, unit, source}}}``.

    ``bench`` values come from the benchmark's own spans over the whole
    window, ``program`` values are deltas of counters the program
    publishes over the counted ops, ``derived`` values are computed from
    those.  Times are shares of the wall time they were taken over (a
    two-client window can sum past 1); the record carries ``wall_s``.
    A counter the program no longer has is None.
    """
    busy = workload.trace.self_seconds()
    before, after = out.counted
    ops = out.counted_ops

    def count(name):
        return counter_delta(before, after, name)

    def spent(*names):
        """Share of the window the benchmark's spans ``names`` were busy."""
        return sum(busy.get(name, 0.0) for name in names) / out.wall

    def program_spent(name):
        return ratio(count(name + ".seconds.sum"), out.counted_wall)

    def total(first, second):
        return None if None in (first, second) else first + second

    entries = workload.history.entries
    unzipped = count("blockzip.blocks_decompressed")
    rewritten = count("clustering.rows_rewritten")
    hits, misses = count("buffer.hits"), count("buffer.misses")
    cached, translated = (
        count("translator.cache_hits"), count("translator.cache_misses"),
    )
    codec = out.info.get("codec", {"rows": 0, "bytes": 0})
    rows = {
        "repro.rdb": [
            ("rdb.dml_share", "ratio", "bench", spent("rdb.dml")),
            ("rdb.log_entries", "count", "derived", entries),
        ],
        "repro.archis.ingest": [
            ("archis.apply_share", "ratio", "bench", spent("archis.ingest")),
            ("ingest.entries", "count", "program", count("ingest.entries")),
            ("tracker.changes_applied", "count", "program",
             count("tracker.changes_applied")),
        ],
        "repro.archis.maintenance": [
            ("maintenance.drain_share", "ratio", "bench",
             spent("archis.maintenance")),
            ("clustering.segments_frozen", "count", "program",
             count("clustering.segments_frozen")),
            ("clustering.rows_rewritten", "count", "program", rewritten),
            ("clustering.rewritten_per_entry", "ratio", "derived",
             ratio(rewritten, entries)),
            ("maintenance.steps", "count", "program",
             count("maintenance.steps")),
            ("ingest.freeze_stall_share", "ratio", "program",
             program_spent("ingest.freeze_stall")),
        ],
        "repro.archis.compression": [
            ("blockzip.compress_share", "ratio", "bench",
             spent("blockzip.compress")),
            ("blockzip.bytes_in", "B", "program", count("blockzip.bytes_in")),
            ("blockzip.bytes_out", "B", "program",
             count("blockzip.bytes_out")),
            ("blockzip.blocks_decompressed", "count", "program", unzipped),
            ("blockzip.blocks_per_op", "ratio", "derived",
             ratio(unzipped, ops)),
            ("blockzip.blocks_per_row", "ratio", "derived",
             ratio(unzipped, out.counted_rows or None)),
        ],
        "repro.sql+xquery+translator": [
            ("sql.parse_share", "ratio", "bench",
             spent("sql.parse") if parse_sql else None),
            ("translator.translate_share", "ratio", "bench",
             spent("translate")),
            ("translator.cache_hit_ratio", "ratio", "derived",
             ratio(cached, total(cached, translated))),
        ],
        "repro.plan": [
            # sql()/xquery() as a whole, less the front end timed alone
            ("plan.execute_share", "ratio", "derived",
             spent("plan") - spent("sql.parse")),
            ("plan.scanned_per_returned", "ratio", "derived",
             ratio(count("sql.rows_scanned"), count("sql.rows_returned"))),
            ("plan.rules_fired", "count", "program",
             count("plan.rules_fired")),
        ],
        "repro.storage": [
            ("buffer.hit_rate", "ratio", "derived",
             ratio(hits, total(hits, misses))),
            ("pager.reads_per_op", "ratio", "derived",
             ratio(count("pager.reads"), ops)),
            ("pager.writes_per_op", "ratio", "derived",
             ratio(count("pager.writes"), ops)),
        ],
        "repro.storage.wal": [
            ("wal.save_share", "ratio", "bench", spent("storage.save")),
            ("wal.fsyncs", "count", "program", count("wal.fsyncs")),
            ("wal.fsyncs_per_commit", "ratio", "derived",
             ratio(count("wal.fsyncs"), count("wal.commits"))),
            ("wal.bytes_per_user_byte", "ratio", "derived",
             ratio(count("wal.bytes"), out.info["user_bytes"])),
            ("wal.fsync_share", "ratio", "program",
             program_spent("wal.fsync")),
            ("wal.group_commit.batched", "count", "program",
             count("wal.group_commit.batched")),
        ],
        "repro.txn": [
            ("txn.begin_share", "ratio", "bench", spent("txn.begin")),
            ("txn.sql_share", "ratio", "bench", spent("txn.sql")),
            ("txn.commit_share", "ratio", "bench", spent("txn.commit")),
            ("txn.locks.waits", "count", "program", count("txn.locks.waits")),
            ("txn.lock_wait_share", "ratio", "program",
             program_spent("txn.lock_wait")),
        ],
        "repro.server": [
            ("server.read_roundtrip_share", "ratio", "bench",
             spent("client.read")),
            # the same statements over the wire, less in-process
            ("server.wire_overhead_share", "ratio", "derived",
             spent("client.read") - spent("inprocess.read")),
            ("server.codec_share", "ratio", "bench",
             spent("server.codec") if encode_result else None),
            ("server.codec_bytes_per_row", "B/row", "derived",
             ratio(codec["bytes"], codec["rows"] or None)),
        ],
        "trace": [
            ("trace.layer_coverage", "ratio", "derived", spent(*LAYER_SPANS)),
            ("trace.ops_per_s", "1/s", "bench", out.work / out.wall),
        ],
    }
    return {
        layer: {
            metric: {"value": value, "unit": unit, "source": source}
            for metric, unit, source, value in metrics
        }
        for layer, metrics in rows.items()
    }


def gates(workload: Workload, out: Outcome, layer_map: dict) -> dict:
    """What the traced pass must show for the attribution to be
    trusted: idle layers stayed idle, busy ones moved, and (single
    client) the timed layers account for the traced wall time."""
    before, after = out.counted
    checks = {}
    for names, sign, holds in (
        (workload.idle_counters, "== 0", lambda moved: moved == 0),
        (workload.busy_counters, "> 0", lambda moved: moved > 0),
    ):
        for name in names:
            moved = counter_delta(before, after, name)
            if moved is not None:
                checks[f"{name} {sign}"] = holds(moved)
    if workload.single_client:
        coverage = layer_map["trace"]["trace.layer_coverage"]["value"]
        checks["layer coverage >= 0.9"] = coverage >= 0.9
    return checks
