"""scripts/reach.py: the enumerator and the hook, on a tiny package."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "reach.py"

MODULE = '''\
import functools
import subprocess
import sys
import threading


def used():
    def inner():
        return 1
    return inner()


def unused():
    return 2


class Box:
    @property
    @functools.lru_cache(maxsize=None)
    def value(self):
        return 3

    def never(self):
        return 4

    def in_child(self):
        return 5


def in_thread():
    return 6


def main():
    used()
    Box().value
    worker = threading.Thread(target=in_thread)
    worker.start()
    worker.join()
    subprocess.run(
        [sys.executable, "-c", "import tiny.mod; tiny.mod.Box().in_child()"],
        check=True,
    )
'''


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_under_test", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.fixture
def tiny(tmp_path):
    package = tmp_path / "src" / "tiny"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    return package


def test_enumerator_counts_outermost_functions(reach, tiny):
    found = {f.name: f for f in reach.enumerate_functions(tiny)}
    assert sorted(found) == [
        "Box.in_child", "Box.never", "Box.value", "in_thread", "main",
        "unused", "used",
    ]
    # a nested function is counted inside its parent
    assert (found["used"].first, found["used"].lines) == (7, 4)
    # a decorated function starts at its first decorator, as its code does
    assert found["Box.value"].first == 18
    assert found["Box.value"].module == "tiny/mod.py"


def test_hook_records_threads_and_child_processes(reach, tiny, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    status = reach.run(
        "tiny", [sys.executable, "-c", "import tiny.mod; tiny.mod.main()"],
        out, root=tiny, path=(tiny.parent,), cwd=tmp_path, timeout=60,
    )
    assert status == 0, (out / "tiny.log").read_text()
    # one file per process: the run and the child it started
    assert len(list(out.glob("*.json"))) == 2
    reached = reach.load(out)
    assert list(reached) == ["tiny"]
    functions = reach.enumerate_functions(tiny)
    hit = {f.name for f in functions if f.key in reached["tiny"]}
    assert hit == {"used", "Box.value", "in_thread", "main", "Box.in_child"}

    text = reach.report(functions, reached, {"needed": {("tiny/mod.py", 7)}})
    assert "only tests reach:             4 functions" in text
    assert "  tiny/mod.py:18 Box.value (4) tiny" in text
    assert "  tiny/mod.py:23 Box.never (2)" in text
