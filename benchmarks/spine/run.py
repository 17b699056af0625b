"""The measurement spine: one command, four workloads, every metric.

    python3 benchmarks/spine/run.py                       # all four, both passes
    python3 benchmarks/spine/run.py --smoke               # same paths, ~1k entries
    python3 benchmarks/spine/run.py --workload point-zip --seed 7 --trace 0
    python3 benchmarks/spine/run.py repeat --runs 10 --out A.json
    python3 benchmarks/spine/run.py diff A.json B.json

With ``--workload`` it runs one pass of one workload and prints, as the
last line of standard output, the result object the root
``BENCHMARK.json`` describes; without, it runs every workload untraced
and then traced (each pass in a process of its own, so that peak RSS is
the pass's own) and prints every metric by name and unit.  README.md
explains the workloads, the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 20060403


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# -- one pass of one workload ------------------------------------------------


def run_pass(
    name: str, seed: int, seconds: float, traced: bool, smoke: bool,
    spans_path: str | None = None,
) -> dict:
    """Set up, measure and check one workload; returns its record."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        from repro.obs import get_tracer

        from spans import Trace
        from workloads import WORKLOADS, gates, layers, summarize
    except ImportError as exc:
        raise SystemExit(f"spine: the program under test is missing: {exc}")

    work_dir = os.path.join(HERE, ".work", str(os.getpid()))
    cls = WORKLOADS[name]
    trace = Trace(traced)
    tracer_was_on = get_tracer().enabled
    set_ups = []
    workload = None
    try:
        for _ in range(cls.set_up_repeats):
            if workload is not None:
                workload.close()
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            began = perf_counter()
            workload = cls(seed, seconds, smoke, trace, work_dir)
            workload.set_up()
            set_ups.append(perf_counter() - began)
        trace.spans.clear()  # set-up is not part of the measured window
        out = workload.run(seconds)
        latency = summarize([seconds_ for _, seconds_ in out.samples])
        by_class: dict[str, list] = {}
        for cls_name, seconds_ in out.samples:
            by_class.setdefault(cls_name, []).append(seconds_)
        record = {
            "workload": name,
            "traced": traced,
            "seed": seed,
            "seconds": seconds,
            "smoke": smoke,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "config": workload.archive.config.as_dict(),
            "population": workload.history.population,
            "log_entries": workload.history.entries,
            "op_unit": cls.op_unit,
            "samples": latency["samples"],
            "ops_attempted": out.attempted,
            "ops_failed": out.failed,
            "first_failure": out.first_failure,
            "tail_percentile": latency["tail_percentile"],
            "max_ms": latency["max_ms"],
            "wall_s": out.wall,
            "info": {k: v for k, v in out.info.items() if k != "codec"},
            "tracer_enabled": tracer_was_on or get_tracer().enabled,
            "metrics": {
                "setup_s": statistics.median(set_ups),
                "ops_per_s": out.work / out.wall,
                "p50_ms": latency["p50_ms"],
                "tail_ms": latency["tail_ms"],
                "stored_bytes_per_user_byte": (
                    out.info["stored_bytes"] / out.info["user_bytes"]
                ),
                "peak_rss_mb": (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                ),
            },
            "classes": {
                cls_name: {
                    "samples": len(values),
                    "p50_ms": 1000 * statistics.median(values),
                }
                for cls_name, values in sorted(by_class.items())
            },
        }
        if traced:
            record["layers"] = layers(workload, out)
            record["gates"] = gates(workload, out, record["layers"])
            if spans_path:
                trace.write(spans_path)
        record["correct"] = (
            out.failed == 0
            and out.attempted > 0
            and not record["tracer_enabled"]
            and all(record.get("gates", {}).values())
        )
        return record
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)


def result_line(record: dict, contract: dict) -> dict:
    """The object BENCHMARK.json promises on the last line of stdout."""
    if record["traced"]:
        flat = {
            metric: entry["value"]
            for layer in record["layers"].values()
            for metric, entry in layer.items()
        }
        # -1 marks a counter the program no longer publishes
        values = {
            m["name"]: -1 if flat[m["name"]] is None else flat[m["name"]]
            for m in contract["per_layer"]
        }
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        values = record["metrics"]
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    return {
        "correct": record["correct"],
        "attempted": record["ops_attempted"],
        "failed": record["ops_failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def print_record(record: dict, contract: dict) -> None:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    mode = "traced" if record["traced"] else "untraced"
    print(
        f"== {record['workload']} ({mode}, seed {record['seed']}, "
        f"{record['log_entries']} log entries, {record['samples']} samples, "
        f"{record['ops_failed']}/{record['ops_attempted']} failed) =="
    )
    if record["first_failure"]:
        print(f"  FAILED: {record['first_failure']}")
    if not record["traced"]:
        for name, value in record["metrics"].items():
            print(f"  {name:<28} {value:>14.4f} {units[name]}")
        print(f"  (tail_ms is p{record['tail_percentile']}; op = "
              f"{record['op_unit']})")
        for name, entry in record["classes"].items():
            print(f"  class.{name + '.p50_ms':<22} {entry['p50_ms']:>14.4f} ms"
                  f"  ({entry['samples']} samples)")
        return
    for layer, metrics in record["layers"].items():
        print(f"  [{layer}]")
        for name, entry in metrics.items():
            value = entry["value"]
            shown = "null" if value is None else f"{value:.6g}"
            print(f"    {name:<32} {shown:>14} {entry['unit']:<6} "
                  f"({entry['source']})")
    for gate, holds in record["gates"].items():
        print(f"  gate: {gate:<40} {'ok' if holds else 'VIOLATED'}")


# -- every workload, both passes ---------------------------------------------


def child(args: list[str], record_path: str) -> dict | None:
    """One pass in its own process; None when it failed to report."""
    command = [sys.executable, os.path.abspath(__file__), *args,
               "--out", record_path]
    done = subprocess.run(command, stdout=subprocess.DEVNULL, timeout=900)
    if not os.path.exists(record_path):
        print(f"spine: {' '.join(args)} exited {done.returncode} "
              "without a record", file=sys.stderr)
        return None
    with open(record_path, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(record_path)
    return record


def run_all(options, contract: dict) -> int:
    """Untraced then traced pass of each workload; 0 when all correct."""
    scratch = os.path.join(HERE, ".work", f"all-{os.getpid()}")
    os.makedirs(scratch)
    names = [w["name"] for w in contract["workloads"]]
    records, ok = [], True
    try:
        for name in names:
            pair = []
            for traced in (0, 1):
                args = ["--workload", name, "--seed", str(options.seed),
                        "--seconds", str(options.seconds),
                        "--trace", str(traced)]
                if options.smoke:
                    args.append("--smoke")
                record = child(args, os.path.join(scratch, "record.json"))
                if record is None:
                    ok = False
                    continue
                print_record(record, contract)
                ok = ok and record["correct"]
                pair.append(record)
            if len(pair) == 2:
                plain, traced = (r["metrics"]["ops_per_s"] for r in pair)
                print(f"  trace_overhead: traced/untraced ops_per_s = "
                      f"{traced / plain:.3f} (untraced {plain:.3f} "
                      f"{pair[0]['op_unit']}/s)")
                pair[1]["trace_overhead"] = traced / plain
            records += pair
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump({"records": records}, handle, indent=1)
    print("ALL CORRECT" if ok else "FAILED")
    return 0 if ok else 1


# -- repeated runs, their spread, and the comparison of two sets ---------------


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def run_set(seed: int, options, contract: dict, scratch: str) -> dict | None:
    """``--runs`` untraced runs of each workload, a new seed each, then
    one traced run: medians, quartiles and spreads (None on a failure)."""
    summary, traced = {}, {}
    began = perf_counter()
    for workload in (w["name"] for w in contract["workloads"]):
        runs = []
        for number in range(options.runs + 1):
            is_traced = number == options.runs
            record = child(
                ["--workload", workload,
                 "--seed", str(seed + (0 if is_traced else number)),
                 "--seconds", str(options.seconds),
                 "--trace", str(int(is_traced))],
                os.path.join(scratch, "record.json"),
            )
            if record is None or not record["correct"]:
                print(f"spine: {workload} run {number} of the set seeded "
                      f"{seed} failed", file=sys.stderr)
                return None
            if is_traced:
                traced[workload] = {
                    "layers": record["layers"], "gates": record["gates"],
                }
            else:
                runs.append(record)
        metrics = {
            m["name"]: quartiles([r["metrics"][m["name"]] for r in runs])
            for m in contract["end_to_end"]
        }
        trace_ops = traced[workload]["layers"]["trace"]["trace.ops_per_s"]
        summary[workload] = {
            "samples": [r["samples"] for r in runs],
            "tail_percentile": [r["tail_percentile"] for r in runs],
            "metrics": metrics,
            "trace_overhead": (
                trace_ops["value"] / metrics["ops_per_s"]["median"]
            ),
        }
        print(f"{workload}: " + ", ".join(
            f"{name} {q['median']:.4g} (spread {100 * q['spread']:.1f}%)"
            for name, q in metrics.items()
        ), flush=True)
    return {
        "seed": seed, "runs": options.runs, "seconds": options.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "elapsed_s": perf_counter() - began,
        "summary": summary, "traced": traced,
    }


def repeat(options, contract: dict) -> int:
    """``--sets`` sets of runs (``BASELINE.json`` is two), each from its
    own base seed, written to ``--out`` with the bounds they are judged
    by."""
    scratch = os.path.join(HERE, ".work", f"repeat-{os.getpid()}")
    os.makedirs(scratch)
    sets = []
    try:
        for number in range(options.sets):
            done = run_set(
                options.seed + 1000 * number, options, contract, scratch
            )
            if done is None:
                return 1
            sets.append(done)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(options.out, "w", encoding="utf-8") as handle:
        json.dump({
            "bounds": {m["name"]: m["bound"] for m in contract["end_to_end"]},
            "sets": sets,
        }, handle, indent=1)
    return 0


def diff(paths: list[str], contract: dict) -> int:
    """One row per workload x end-to-end metric: both medians, the ratio
    with its base, and a verdict.  Exit 1 on any ``worse``/``unresolved``.

    The sets are those of the files named, in order: two files of one
    set each, or one file of two (BASELINE.json)."""
    sets = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            sets += json.load(handle)["sets"]
    if len(sets) != 2:
        raise SystemExit("diff: name two sets (two files, or BASELINE.json)")
    base, other = (s["summary"] for s in sets)
    bad = 0
    print(f"{'workload':<14} {'metric':<27} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'spread A/B %':>13} {'bound %':>8}  verdict")
    for workload in base:
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = base[workload]["metrics"][name]
            b = other[workload]["metrics"][name]
            change = b["median"] / a["median"]
            worse_by = change - 1 if metric["better"] == "lower" else 1 - change
            noise = max(a["spread"], b["spread"])
            # set-up time is judged on its median alone (see README)
            if noise > bound and name != "setup_s":
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -max(noise, 0.01):
                verdict = "better"
            else:
                verdict = "within bound"
            bad += verdict in ("worse", "unresolved")
            print(f"{workload:<14} {name:<27} {a['median']:>12.4f} "
                  f"{b['median']:>12.4f} {change:>6.3f}x "
                  f"{100 * a['spread']:>6.1f}/{100 * b['spread']:<6.1f} "
                  f"{100 * bound:>7.0f}   {verdict} "
                  f"(base A = {a['median']:.4g} {metric['unit']})")
    return 1 if bad else 0


# -- command line ----------------------------------------------------------------


def main(argv: list[str]) -> int:
    contract = load_contract()
    if argv[:1] == ["diff"]:
        return diff(argv[1:], contract)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=["repeat"])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds of "
                             "BENCHMARK.json; 1 under --smoke)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="~1k entries, a second per pass, all checks on")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--out", help="write the full record(s) as JSON here")
    parser.add_argument("--spans", help="traced pass: write its spans here")
    options = parser.parse_args(argv)
    if options.seconds is None:
        options.seconds = 1.0 if options.smoke else contract["run_seconds"]
    if options.command == "repeat":
        if not options.out:
            parser.error("repeat needs --out")
        return repeat(options, contract)
    if options.workload is None:
        return run_all(options, contract)
    record = run_pass(
        options.workload, options.seed, options.seconds, bool(options.trace),
        options.smoke, options.spans,
    )
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print_record(record, contract)
    print(json.dumps(result_line(record, contract)))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
