"""Command-line interface.

Self-contained commands over a generated employee history:

    python -m repro.tools generate --employees 50 --years 17 -o hdoc.xml
    python -m repro.tools query "for \\$e in doc(\\"employees.xml\\")..."
    python -m repro.tools sql "for ..."          # show the SQL/XML only
    python -m repro.tools plan "select ..."      # show the optimizer's plans
    python -m repro.tools bench                  # quick Table 3 comparison

All commands build a deterministic dataset in memory (same seed ⇒ same
answers), so they are reproducible without a persistent store.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench import (
    build_setup,
    compare_engines,
    default_queries,
    print_comparison,
)
from repro.xmlkit import serialize


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--employees", type=int, default=30)
    parser.add_argument("--years", type=int, default=10)
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument(
        "--profile", choices=["db2", "atlas"], default="atlas"
    )
    parser.add_argument(
        "--umin", type=float, default=0.4,
        help="usefulness threshold; 0 disables segmentation",
    )
    parser.add_argument(
        "--compress", action="store_true",
        help="BlockZIP the frozen segments before querying",
    )
    parser.add_argument(
        "--maintenance", choices=["inline", "background"],
        default="inline",
        help="how segment freezes run: synchronously on the apply path "
             "(inline) or via the background maintenance worker",
    )
    parser.add_argument(
        "--maintenance-step-rows", type=int, default=1024,
        help="row budget per background rewrite step",
    )


def _build(args) -> "object":
    umin = None if args.umin == 0 else args.umin
    return build_setup(
        employees=args.employees,
        years=args.years,
        scale=args.scale,
        profile=args.profile,
        umin=umin,
        compress=args.compress,
        maintenance=args.maintenance,
        maintenance_step_rows=args.maintenance_step_rows,
    )


def cmd_generate(args) -> int:
    setup = _build(args)
    text = serialize(setup.archis.publish("employee"), indent=2)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(
            f"wrote {len(text):,} chars of H-document to {args.output} "
            f"({setup.events_applied} events archived)",
            file=sys.stderr,
        )
    return 0


def cmd_query(args) -> int:
    setup = _build(args)
    query = args.xquery
    if query == "-":
        query = sys.stdin.read()
    results = setup.archis.xquery(query, allow_fallback=not args.no_fallback)
    for item in results.rows:
        if hasattr(item, "name"):
            print(serialize(item))
        else:
            print(item)
    return 0


def cmd_sql(args) -> int:
    setup = _build(args)
    query = args.xquery
    if query == "-":
        query = sys.stdin.read()
    print(setup.archis.translate(query))
    return 0


def cmd_plan(args) -> int:
    """Show the three plan stages (logical / optimized / physical) of a
    query.  Accepts SQL directly, or an XQuery which is translated first."""
    from repro.errors import SqlPlanError
    from repro.plan.render import bound_literals, to_sql
    from repro.sql import ast as sql_ast

    setup = _build(args)
    query = args.query
    if query == "-":
        query = sys.stdin.read()
    if query.lstrip().lower().startswith("select"):
        bound = setup.archis.db.statements.prepare(query)
    else:
        bound = setup.archis.prepare(query)
        print(f"sql: {bound.translation.sql}\n")
    if not isinstance(bound.statement, sql_ast.Select):
        print("plan: only SELECT statements have plans", file=sys.stderr)
        return 1
    print(bound.report().format())
    try:
        with bound_literals(bound.values):
            print(f"\noptimized sql: {to_sql(bound.plan.optimized)}")
    except (SqlPlanError, TypeError) as exc:
        print(f"\noptimized sql: (not renderable: {exc})")
    return 0


def cmd_bench(args) -> int:
    setup = _build(args)
    queries = default_queries(setup.generator)
    results = compare_engines(setup, queries, repeats=args.repeats)
    print_comparison(
        f"Table 3 queries: ArchIS-{args.profile} vs native XML DB", results
    )
    return 0


def cmd_check(args) -> int:
    from repro.archis.validation import check_archive

    setup = _build(args)
    violations = check_archive(setup.archis)
    if not violations:
        print("archive is consistent (0 violations; "
              f"{setup.archis.segments.rewrites} segment rewrites audited)")
        return 0
    for violation in violations:
        print(violation)
    return 1


def cmd_report(args) -> int:
    from repro.bench.fullreport import generate_report

    text = generate_report(args.employees, args.years, args.repeats)
    if args.output == "-":
        print(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.output}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    setup = _build(args)
    archis = setup.archis
    print(f"events archived:  {setup.events_applied}")
    print(f"segments:         {archis.segments.segment_count()} "
          f"(freezes: {archis.segments.freeze_count})")
    for name, size in sorted(archis.db.storage_report().items()):
        print(f"  {name:30s} {size:>12,} bytes")
    print(f"archive total:    {archis.storage_bytes():,} bytes")
    print(f"native XML store: {setup.native.storage_bytes():,} bytes")
    return 0


def cmd_explain(args) -> int:
    setup = _build(args)
    query = args.xquery
    if query == "-":
        query = sys.stdin.read()
    if args.cold:
        setup.archis.reset_caches()
    result = setup.archis.explain(
        query, allow_fallback=not args.no_fallback
    )
    print(result.format())
    return 0


def cmd_obs(args) -> int:
    from repro.bench import default_queries, run_archis_cold
    from repro.obs import format_metrics, format_traces, get_registry, get_tracer

    setup = _build(args)
    tracer = get_tracer()
    tracer.enable()
    try:
        for query in default_queries(setup.generator):
            run_archis_cold(setup.archis, query)
    finally:
        tracer.disable()
    print(format_traces(tracer, limit=args.traces))
    print()
    print(format_metrics(get_registry()))
    slow = setup.archis.slow_query_log
    if len(slow):
        print("\nslow queries:")
        for entry in slow:
            print(f"  {entry.seconds * 1000:8.1f} ms  {entry.query[:70]!r}")
    return 0


def cmd_serve(args) -> int:
    """Serve a generated history over the JSON socket protocol.

    Shuts down cleanly on SIGINT *or* SIGTERM (process managers and
    containers send the latter): the listener stops accepting, in-flight
    sessions close, maintenance workers drain and stop, and the span exporter is flushed — never a killed
    process with a half-written span log.
    """
    import signal
    import threading

    from repro.server import Server
    from repro.txn import TxnManager

    setup = _build(args)
    manager = TxnManager(
        setup.archis.db, setup.archis, lock_timeout=args.lock_timeout
    )
    exporter = None
    if args.span_log:
        from repro.obs import JsonlSpanExporter, get_tracer

        exporter = JsonlSpanExporter(args.span_log)
        get_tracer().enable()
        get_tracer().add_exporter(exporter)
        print(f"exporting request traces to {args.span_log}", file=sys.stderr)
    server = Server(
        manager,
        setup.archis,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_in_flight=args.max_in_flight,
        queue_size=args.queue_size,
        job_workers=args.job_workers,
        job_result_ttl=args.job_ttl,
    )
    server.start()
    host, port = server.address
    print(
        f"serving on {host}:{port} ({args.workers} workers); "
        "SIGINT/SIGTERM stops"
    )
    stop = threading.Event()

    def _request_stop(signum, frame):
        print(f"received {signal.Signals(signum).name}; stopping",
              file=sys.stderr)
        stop.set()

    previous = {
        sig: signal.signal(sig, _request_stop)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        stop.wait()
    except KeyboardInterrupt:
        # a second Ctrl-C while shutting down, or a platform where the
        # handler did not install — same clean path
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        server.stop()
        # drain queued background rewrites, then stop the maintenance
        # worker before the database goes away
        try:
            setup.archis.drain_maintenance()
        except Exception as exc:
            print(f"maintenance drain failed: {exc}", file=sys.stderr)
        setup.archis.close()
        if exporter is not None:
            from repro.obs import get_tracer

            get_tracer().remove_exporter(exporter)
            get_tracer().disable()
            exporter.close()
    return 0


def cmd_jobs(args) -> int:
    """Drive the async-job ops of a running server from the shell.

    ``submit`` prints the shareable job id (add ``--wait`` to block
    until it finishes and print the result); ``status`` / ``result`` /
    ``cancel`` / ``list`` do what they say.  Results print as
    tab-separated rows after a header line.
    """
    from repro.server.client import Client

    def show_status(status: dict) -> None:
        progress = status.get("progress") or {}
        line = f"{status['job']}  {status['kind']:<6s} {status['state']}"
        if "elapsed_seconds" in progress:
            line += f"  {progress['elapsed_seconds']:.3f}s"
        if "rows" in status:
            line += f"  {status['rows']} rows"
        if "message" in status:
            line += f"  {status['message']}"
        print(line)

    def show_result(result) -> None:
        if result.columns:
            print("\t".join(str(c) for c in result.columns))
        for row in result.rows:
            print("\t".join(str(cell) for cell in row))

    with Client(args.host, args.port, encoding="binary") as client:
        if args.action == "submit":
            job_id = client.submit(args.text, kind=args.kind)
            print(job_id)
            if args.wait:
                status = client.job_wait(job_id, timeout=None)
                if status["state"] != "COMPLETED":
                    show_status(status)
                    return 1
                show_result(client.job_result(job_id))
        elif args.action == "status":
            show_status(client.job_status(args.job))
        elif args.action == "result":
            show_result(client.job_result(args.job))
        elif args.action == "cancel":
            show_status(client.job_cancel(args.job))
        else:
            for status in client.job_list():
                show_status(status)
    return 0


def cmd_top(args) -> int:
    """Live monitor: poll a running server's gauges and tail latencies.

    Each refresh issues one ``health`` and one ``metrics`` request and
    prints the load gauges, the statement cache's hit/miss/replan
    counters and the quantile series of the key latency histograms.
    ``--iterations`` bounds the loop (default: forever).
    """
    import time

    from repro.server.client import Client

    watch = (
        "repro_plan_cache_",
        "repro_server_request_seconds_quantile",
        "repro_txn_commit_seconds_quantile",
        "repro_txn_lock_wait_seconds_quantile",
        "repro_wal_fsync_seconds_quantile",
        "repro_ingest_seconds_quantile",
        "repro_ingest_freeze_stall_seconds_quantile",
    )
    remaining = args.iterations
    while True:
        with Client(args.host, args.port) as client:
            health = client.health()
            exposition = client.metrics()
        print(
            f"== repro top @ {args.host}:{args.port} "
            f"(status: {health['status']}) =="
        )
        gauges = health["gauges"]
        for name in sorted(gauges):
            print(f"  {name:<24s} {gauges[name]:g}")
        for line in exposition.splitlines():
            if line.startswith(watch):
                print(f"  {line}")
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_recover(args) -> int:
    import os

    from repro.storage.pager import Pager

    if not os.path.exists(args.path):
        print(f"no database file at {args.path}", file=sys.stderr)
        return 1
    pager = Pager(args.path, durability="wal")  # opening runs recovery
    report = pager.recovery_report
    pager.close()
    for line in report.lines():
        print(line)
    print(f"pages:          {pager.page_count}")

    # verify what can now be loaded from the recovered state
    from repro.archis.persistence import sidecar_path as archive_sidecar
    from repro.rdb.database import Database
    from repro.rdb.persistence import sidecar_path as catalog_sidecar

    status = 0
    if os.path.exists(catalog_sidecar(args.path)):
        try:
            db = Database.open(args.path, args.buffer_pages)
            print(f"catalog:        ok ({len(db.tables())} tables)")
            db.close()
        except Exception as exc:  # surface, don't crash the report
            print(f"catalog:        FAILED ({exc})")
            status = 1
    else:
        print("catalog:        no sidecar")
    if os.path.exists(archive_sidecar(args.path)):
        from repro.archis.config import ArchISConfig
        from repro.archis.system import ArchIS
        from repro.archis.validation import check_archive

        try:
            archis = ArchIS.open(
                args.path,
                config=ArchISConfig(buffer_pages=args.buffer_pages),
            )
            violations = check_archive(archis)
            if violations:
                print(f"archive:        {len(violations)} invariant violations")
                status = 1
            else:
                print(
                    "archive:        ok "
                    f"({len(archis.relations)} tracked relations, "
                    f"0 violations)"
                )
            archis.db.close()
        except Exception as exc:
            print(f"archive:        FAILED ({exc})")
            status = 1
    else:
        print("archive:        no sidecar")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools",
        description="ArchIS reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="publish the H-document of a generated history"
    )
    _add_dataset_args(generate)
    generate.add_argument("-o", "--output", default="-")
    generate.set_defaults(fn=cmd_generate)

    query = commands.add_parser("query", help="run XQuery over the H-views")
    _add_dataset_args(query)
    query.add_argument("xquery", help="query text, or '-' for stdin")
    query.add_argument(
        "--no-fallback", action="store_true",
        help="fail instead of falling back to native evaluation",
    )
    query.set_defaults(fn=cmd_query)

    sql = commands.add_parser(
        "sql", help="show the SQL/XML translation of an XQuery"
    )
    _add_dataset_args(sql)
    sql.add_argument("xquery")
    sql.set_defaults(fn=cmd_sql)

    plan = commands.add_parser(
        "plan",
        help="show the logical/optimized/physical plan of a SQL or XQuery",
    )
    _add_dataset_args(plan)
    plan.add_argument("query", help="SQL or XQuery text, or '-' for stdin")
    plan.set_defaults(fn=cmd_plan)

    bench = commands.add_parser(
        "bench", help="run the Table 3 comparison at a small scale"
    )
    _add_dataset_args(bench)
    bench.add_argument("--repeats", type=int, default=2)
    bench.set_defaults(fn=cmd_bench)

    stats = commands.add_parser("stats", help="archive storage statistics")
    _add_dataset_args(stats)
    stats.set_defaults(fn=cmd_stats)

    explain = commands.add_parser(
        "explain", help="trace one XQuery: stages, SQL, physical reads"
    )
    _add_dataset_args(explain)
    explain.add_argument("xquery", help="query text, or '-' for stdin")
    explain.add_argument(
        "--no-fallback", action="store_true",
        help="fail instead of falling back to native evaluation",
    )
    explain.add_argument(
        "--cold", action="store_true",
        help="reset buffer-pool caches before the traced run",
    )
    explain.set_defaults(fn=cmd_explain)

    obs = commands.add_parser(
        "obs", help="run the bench queries traced and dump metrics/traces"
    )
    _add_dataset_args(obs)
    obs.add_argument(
        "--traces", type=int, default=10,
        help="number of trace trees to print",
    )
    obs.set_defaults(fn=cmd_obs)

    check = commands.add_parser(
        "check", help="audit archive invariants (consistency checker)"
    )
    _add_dataset_args(check)
    check.set_defaults(fn=cmd_check)

    serve = commands.add_parser(
        "serve",
        help="serve a generated history to concurrent sessions over TCP",
    )
    _add_dataset_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7171)
    serve.add_argument("--workers", type=int, default=4)
    serve.add_argument(
        "--max-in-flight", type=int, default=None,
        help="cap on concurrently executing statements (default: workers)",
    )
    serve.add_argument(
        "--queue-size", type=int, default=16,
        help="accepted connections waiting for a worker before BUSY",
    )
    serve.add_argument("--lock-timeout", type=float, default=5.0)
    serve.add_argument(
        "--job-workers", type=int, default=2,
        help="threads for async analytics jobs (separate from --workers)",
    )
    serve.add_argument(
        "--job-ttl", type=float, default=300.0,
        help="seconds a finished job's result stays fetchable",
    )
    serve.add_argument(
        "--span-log", default=None, metavar="PATH",
        help="enable tracing and append finished request traces "
             "to PATH as JSONL",
    )
    serve.set_defaults(fn=cmd_serve)

    jobs = commands.add_parser(
        "jobs",
        help="submit, watch and fetch async analytics jobs on a "
             "running server",
    )
    jobs.add_argument("--host", default="127.0.0.1")
    jobs.add_argument("--port", type=int, default=7171)
    jobs_actions = jobs.add_subparsers(dest="action", required=True)
    jobs_submit = jobs_actions.add_parser(
        "submit", help="submit a read-only query as an async job"
    )
    jobs_submit.add_argument("text", help="the SELECT or XQuery text")
    jobs_submit.add_argument(
        "--kind", choices=("sql", "xquery"), default="sql"
    )
    jobs_submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job finishes and print its result",
    )
    jobs_status = jobs_actions.add_parser(
        "status", help="print one job's lifecycle status"
    )
    jobs_status.add_argument("job")
    jobs_result = jobs_actions.add_parser(
        "result", help="fetch a completed job's result"
    )
    jobs_result.add_argument("job")
    jobs_cancel = jobs_actions.add_parser(
        "cancel", help="request cooperative cancellation"
    )
    jobs_cancel.add_argument("job")
    jobs_actions.add_parser("list", help="list live jobs on the server")
    jobs.set_defaults(fn=cmd_jobs)

    top = commands.add_parser(
        "top",
        help="live-monitor a running server (health gauges + latency "
             "quantiles)",
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7171)
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after this many refreshes (default: run until Ctrl-C)",
    )
    top.set_defaults(fn=cmd_top)

    recover = commands.add_parser(
        "recover",
        help="replay the WAL of a saved archive and verify its sidecars",
    )
    recover.add_argument("path", help="path to the database file")
    recover.add_argument("--buffer-pages", type=int, default=1024)
    recover.set_defaults(fn=cmd_recover)

    report = commands.add_parser(
        "report", help="regenerate the full paper-vs-measured report"
    )
    report.add_argument("--employees", type=int, default=50)
    report.add_argument("--years", type=int, default=17)
    report.add_argument("--repeats", type=int, default=2)
    report.add_argument("-o", "--output", default="-")
    report.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
