#!/usr/bin/env python
"""The reach map: which functions under ``src/repro`` does each run execute?

    python scripts/reach.py                    # record both sets, ~5 min
    python scripts/reach.py --save map.json    # also keep the raw map
    python scripts/reach.py --load map.json    # reprint a saved map

Two sets of runs are recorded:

* **tier-1** — ``pytest tests``, each function noted with the test files
  that reach it;
* **the needed set** — what a workload, the paper's evaluation or a
  documented user surface runs: the four spine ``--smoke`` passes,
  every ``examples/*.py``, ``python -m repro.tools check`` and
  ``pytest benchmarks --benchmark-disable``.

The report gives, per module, the function-lines that no needed run
reaches and that tier-1 never reaches, then the modules no needed run
reaches, the functions only one test file reaches, and the functions no
run reaches at all.  A function is an outermost ``def`` (a method
counts; a function nested in another is counted inside its parent);
module and class bodies are left out, since they run at import.

Only the stdlib is used.  Each run is a child process whose
``PYTHONPATH`` starts with a generated ``sitecustomize.py``; it loads
this file and installs a ``sys.setprofile`` / ``threading.setprofile``
hook that records every executed code object, in every thread and in
every Python process the run starts (they inherit the environment), and
writes one JSON file per process id at exit.  A process that leaves
through ``os._exit`` writes nothing.  Under the hook everything runs
about twice as slow, so a timing assertion may fail; the map is still
recorded, and the failing runs are named.  ``pytest benchmarks``
rewrites ``benchmarks/BENCH_concurrency.json`` as it always does;
``git checkout`` it afterwards.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

#: the hook's environment: where the per-process files go, which
#: source tree is recorded, and the label reaches are filed under
ENV_OUT = "REPRO_REACH_OUT"
ENV_ROOT = "REPRO_REACH_ROOT"
ENV_LABEL = "REPRO_REACH_LABEL"

SPINE_WORKLOADS = ("ingest-hotkey", "point-zip", "scan-plain", "serve-mixed")


# -- the enumerator -----------------------------------------------------------


@dataclass(frozen=True)
class Function:
    module: str  #: path relative to the package's parent: ``repro/tools.py``
    name: str  #: ``Class.method`` or ``function``
    first: int  #: the first decorator's line, as ``co_firstlineno`` has it
    last: int

    @property
    def key(self) -> tuple[str, int]:
        return (self.module, self.first)

    @property
    def lines(self) -> int:
        return self.last - self.first + 1


def enumerate_functions(root: Path) -> list[Function]:
    """Every outermost function of every module under ``root``."""
    found: list[Function] = []

    def visit(node, module: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found.append(
                    Function(module, prefix + child.name, first, child.end_lineno)
                )
            elif isinstance(child, ast.ClassDef):
                visit(child, module, prefix + child.name + ".")
            elif isinstance(child, ast.stmt):
                visit(child, module, prefix)

    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root.parent).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "")
    return found


# -- the hook (runs inside every recorded process) ----------------------------

#: label -> {id(code): code}; the code object is kept so its id is not reused
_buckets: dict[str, dict[int, object]] = {}
_bucket: dict[int, object] = {}


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _bucket[id(code)] = code


def use_label(label: str) -> None:
    """File every later call under ``label``; child processes inherit it."""
    global _bucket
    _bucket = _buckets.setdefault(label, {})
    os.environ[ENV_LABEL] = label


def install_from_env() -> None:
    """Start recording when the environment asks for it (``sitecustomize``)."""
    out = os.environ.get(ENV_OUT)
    if not out:
        return
    use_label(os.environ.get(ENV_LABEL, "main"))
    atexit.register(_dump, out, os.environ[ENV_ROOT])
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def _dump(out: str, root: str) -> None:
    sys.setprofile(None)
    threading.setprofile(None)
    base = os.path.dirname(os.path.abspath(root))
    inside = os.path.join(os.path.abspath(root), "")
    record = {}
    for label, codes in dict(_buckets).items():
        record[label] = sorted({
            (os.path.relpath(code.co_filename, base).replace(os.sep, "/"),
             code.co_firstlineno)
            for code in dict(codes).values()
            if code.co_filename.startswith(inside)
        })
    path = os.path.join(out, f"{os.getpid()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(path + ".tmp", path)


def pytest_runtest_protocol(item, nextitem):
    """As a pytest plugin (``-p _repro_reach``): file reaches by test file."""
    use_label(item.nodeid.split("::")[0])


_SITECUSTOMIZE = """\
import importlib.util, sys
spec = importlib.util.spec_from_file_location("_repro_reach", {path!r})
module = importlib.util.module_from_spec(spec)
sys.modules["_repro_reach"] = module
spec.loader.exec_module(module)
module.install_from_env()
"""


# -- running and reading ------------------------------------------------------


def run(
    label: str,
    command: list[str],
    out_dir: Path,
    *,
    root: Path = PACKAGE,
    path: tuple[Path, ...] = (SRC,),
    cwd: Path = ROOT,
    timeout: float | None = None,
) -> int:
    """Run ``command`` under the hook; its reaches land in ``out_dir``.

    Returns the exit status; the output goes to ``out_dir/<label>.log``.
    """
    hook = out_dir / "hook"
    hook.mkdir(parents=True, exist_ok=True)
    (hook / "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(path=str(Path(__file__).resolve())),
        encoding="utf-8",
    )
    env = dict(os.environ)
    env[ENV_OUT] = str(out_dir)
    env[ENV_ROOT] = str(root.resolve())
    env[ENV_LABEL] = label
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook)] + [str(p.resolve()) for p in path]
    )
    with open(log_path(out_dir, label), "w", encoding="utf-8") as handle:
        try:
            return subprocess.run(
                command, cwd=cwd, env=env, stdout=handle,
                stderr=subprocess.STDOUT, timeout=timeout,
            ).returncode
        except subprocess.TimeoutExpired:
            handle.write(f"\ntimed out after {timeout} s\n")
            return -1


def log_path(out_dir: Path, label: str) -> Path:
    return out_dir / (label.replace("/", "_").replace(" ", "_") + ".log")


def load(out_dir: Path) -> dict[str, set[tuple[str, int]]]:
    """Label -> the ``(module, first line)`` keys reached, over every process."""
    reached: dict[str, set[tuple[str, int]]] = {}
    for path in sorted(out_dir.glob("*.json")):
        for label, keys in json.loads(path.read_text(encoding="utf-8")).items():
            reached.setdefault(label, set()).update(map(tuple, keys))
    return reached


def _pytest(*args: str) -> list[str]:
    return [
        sys.executable, "-m", "pytest", "-q", "-p", "_repro_reach",
        "-p", "no:cacheprovider", *args,
    ]


def tier1_runs() -> list[tuple[str, list[str]]]:
    return [("tier-1", _pytest("tests"))]


def needed_runs() -> list[tuple[str, list[str]]]:
    runs = [
        (f"spine {name}", [
            sys.executable, "benchmarks/spine/run.py", "--smoke",
            "--workload", name,
        ])
        for name in SPINE_WORKLOADS
    ]
    runs += [
        (f"example {path.name}", [sys.executable, str(path.relative_to(ROOT))])
        for path in sorted((ROOT / "examples").glob("*.py"))
    ]
    runs.append(("tools check", [sys.executable, "-m", "repro.tools", "check"]))
    runs.append(("benchmarks", _pytest("benchmarks", "--benchmark-disable")))
    return runs


def record(runs, scratch: Path) -> tuple[dict, list[str]]:
    """Run each of ``runs`` under the hook; returns its reaches and the
    labels of the runs that exited non-zero."""
    failed = []
    for label, command in runs:
        started = time.perf_counter()
        status = run(label, command, scratch)
        seconds = time.perf_counter() - started
        verdict = "ok" if status == 0 else f"exit {status}"
        print(f"  {verdict:>8}  {seconds:7.1f} s  {label}", file=sys.stderr)
        if status != 0:
            failed.append(label)
            log = log_path(scratch, label).read_text(encoding="utf-8")
            for line in log.splitlines()[-3:]:
                print(f"            {line}", file=sys.stderr)
    return load(scratch), failed


# -- the report ---------------------------------------------------------------


def _union(reach: dict) -> set:
    return set().union(*reach.values())


def report(
    functions: list[Function],
    tier1: dict[str, set],
    needed: dict[str, set],
) -> str:
    """The map as text; ``tier1`` and ``needed`` map a run label (a test
    file, for tier-1) to the ``(module, first line)`` keys it reached."""
    tier1_all, needed_all = _union(tier1), _union(needed)

    def missed(reached):
        return [f for f in functions if f.key not in reached]

    def tally(fs):
        return f"{len(fs):,} functions, {sum(f.lines for f in fs):,} lines"

    nothing = missed(tier1_all | needed_all)
    test_only = [f for f in functions if f.key in tier1_all - needed_all]
    out = [
        f"{len(functions):,} functions, "
        f"{sum(f.lines for f in functions):,} function-lines",
        f"  tier-1 never reaches:         {tally(missed(tier1_all))}",
        f"  the needed set never reaches: {tally(missed(needed_all))}",
        f"  only tests reach:             {tally(test_only)}",
        f"  no run reaches:               {tally(nothing)}",
        "",
        f"{'module':40s} {'lines':>6s} {'needed misses':>15s} "
        f"{'tier-1 misses':>15s}",
    ]
    by_module: dict[str, list[Function]] = {}
    for f in functions:
        by_module.setdefault(f.module, []).append(f)
    rows = []
    for module, fs in by_module.items():
        counts = [
            sum(f.lines for f in fs if f.key not in reached)
            for reached in (needed_all, tier1_all)
        ]
        if any(counts):
            rows.append((counts, module, sum(f.lines for f in fs)))
    rows.sort(key=lambda row: (-row[0][0], row[1]))
    out.extend(
        f"{module:40s} {lines:6,d} {counts[0]:15,d} {counts[1]:15,d}"
        for counts, module, lines in rows
    )

    out += ["", "modules no needed run reaches:"]
    out.extend(
        f"  {module}" for module, fs in sorted(by_module.items())
        if not any(f.key in needed_all for f in fs)
    )

    files_of: dict[tuple, list[str]] = {}
    for label, keys in tier1.items():
        for key in keys:
            files_of.setdefault(key, []).append(label)
    single = [
        f for f in functions
        if len(files_of.get(f.key, ())) == 1 and f.key not in needed_all
    ]
    out += [
        "",
        f"functions only one test file reaches (and no needed run): "
        f"{tally(single)}",
    ]
    out.extend(
        f"  {f.module}:{f.first} {f.name} ({f.lines}) {files_of[f.key][0]}"
        for f in single
    )
    out += ["", f"functions no run reaches: {tally(nothing)}"]
    out.extend(f"  {f.module}:{f.first} {f.name} ({f.lines})" for f in nothing)
    return "\n".join(out)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", help="write the raw map as JSON here")
    parser.add_argument("--load", help="report a map saved by --save")
    options = parser.parse_args(argv)

    if options.load:
        saved = json.loads(Path(options.load).read_text(encoding="utf-8"))
        functions = [Function(*row) for row in saved["functions"]]
        tier1, needed = (
            {label: set(map(tuple, keys)) for label, keys in saved[name].items()}
            for name in ("tier1", "needed")
        )
        print(report(functions, tier1, needed))
        return 0

    functions = enumerate_functions(PACKAGE)
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        print("recording tier-1:", file=sys.stderr)
        (Path(scratch) / "tier1").mkdir()
        tier1, failed = record(tier1_runs(), Path(scratch) / "tier1")
        print("recording the needed set:", file=sys.stderr)
        (Path(scratch) / "needed").mkdir()
        needed, more = record(needed_runs(), Path(scratch) / "needed")
        failed += more
    if options.save:
        Path(options.save).write_text(json.dumps({
            "functions": [
                [f.module, f.name, f.first, f.last] for f in functions
            ],
            "tier1": {label: sorted(keys) for label, keys in tier1.items()},
            "needed": {label: sorted(keys) for label, keys in needed.items()},
        }), encoding="utf-8")
    print(report(functions, tier1, needed))
    if failed:
        print(
            "\nruns that exited non-zero (their reaches are counted): "
            + ", ".join(failed)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
