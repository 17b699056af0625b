"""Smoke test of the measurement spine (``pytest benchmarks/spine``).

Outside ``testpaths``, so tier-1 time does not change.  Runs the whole
benchmark at ``--smoke`` size and holds its output to the contract in
the root ``BENCHMARK.json``.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_is_well_formed(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert contract["paths"] == ["benchmarks/spine"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)
    set_up = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert set_up and set_up[0]["unit"] == "s"
    assert set_up[0]["better"] == "lower"
    assert set_up[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_smoke_run_meets_the_contract(contract, tmp_path):
    out = tmp_path / "records.json"
    done = subprocess.run(
        [sys.executable, RUN, "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    records = json.loads(out.read_text())["records"]
    workloads = [w["name"] for w in contract["workloads"]]
    assert [(r["workload"], r["traced"]) for r in records] == [
        (name, traced) for name in workloads for traced in (False, True)
    ]
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for record in records:
        assert record["correct"] and record["ops_failed"] == 0
        assert record["ops_attempted"] >= 1 and record["samples"] >= 1
        assert not record["tracer_enabled"]
        for field in ("seed", "nproc", "python", "config", "classes"):
            assert field in record
        assert set(record["metrics"]) == set(end_to_end)
        assert all(value > 0 for value in record["metrics"].values())
        if record["traced"]:
            flat = {
                name: entry
                for layer in record["layers"].values()
                for name, entry in layer.items()
            }
            assert {n: e["unit"] for n, e in flat.items()} == per_layer
            assert all(
                e["source"] in ("bench", "program", "derived")
                for e in flat.values()
            )
            assert all(record["gates"].values()), record["gates"]
            assert "trace_overhead" in record
    # every metric is printed by name with its unit
    for name, unit in end_to_end.items():
        assert re.search(rf"{re.escape(name)}\s+[0-9.]+ {re.escape(unit)}",
                         done.stdout)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(contract, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", "ingest-hotkey", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = contract["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in wanted}
    assert all(
        isinstance(entry["value"], (int, float))
        for entry in result["metrics"].values()
    )


def test_a_wrong_oracle_fails_the_run(monkeypatch):
    """Flip what the oracle expects: the command must not exit 0."""
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import history
    import run

    true_at = history.Oracle.at

    def off_by_one(self, attr, key, day):
        start, end, value = true_at(self, attr, key, day)
        return [start, end, value + 1 if attr == "salary" else value]

    monkeypatch.setattr(history.Oracle, "at", off_by_one)
    with pytest.raises(SystemExit) as failure:
        run.run_pass("scan-plain", 3, 1.0, traced=False, smoke=True)
    assert failure.value.code not in (0, None)
