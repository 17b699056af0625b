"""Attribution from outside: the benchmark's own spans and counter deltas.

Nothing here reaches into the program.  A span is opened by benchmark
code around a call into a module's public function; a count is the
difference of two ``repro.obs.get_registry().snapshot()`` readings.
Spans stay in memory and are written (``--spans``) once at the end.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter

from repro.obs import get_registry

_NULL = nullcontext()


class Trace:
    """Span recorder; ``enabled=False`` makes ``span`` a shared no-op."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: [name, start, end, parent index or None, op id, thread name]
        self.spans: list[list] = []
        self._stack = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, op: int | None = None):
        return self._record(name, op) if self.enabled else _NULL

    @contextmanager
    def _record(self, name: str, op: int | None):
        stack = getattr(self._stack, "open", None)
        if stack is None:
            stack = self._stack.open = []  # this thread's open spans
        parent = stack[-1] if stack else None
        if op is None and parent is not None:
            op = self.spans[parent][4]
        record = [name, perf_counter(), None, parent, op,
                  threading.current_thread().name]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = perf_counter()
            stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Per span name: duration minus the part its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, *_), inner in zip(self.spans, covered):
            out[name] = out.get(name, 0.0) + (end - start) - inner
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op, thread) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread,
                }) + "\n")


def read_counters() -> dict[str, float]:
    """The registry flattened to numbers: counters as they are, labeled
    counters summed, histograms as ``<name>.count`` / ``<name>.sum``."""
    flat: dict[str, float] = {}
    for name, value in get_registry().snapshot().items():
        if isinstance(value, dict):
            if "buckets" in value:
                flat[name + ".count"] = value["count"]
                flat[name + ".sum"] = value["sum"]
            else:
                flat[name] = sum(value.values())
        else:
            flat[name] = value
    return flat


def counter_delta(before: dict, after: dict, name: str):
    """``after - before`` for one counter; ``None`` (JSON null) when the
    program no longer publishes it."""
    if name not in after:
        return None
    return after[name] - before.get(name, 0)


def ratio(numerator, denominator):
    if numerator is None or denominator is None:
        return None
    return numerator / denominator if denominator else 0.0
