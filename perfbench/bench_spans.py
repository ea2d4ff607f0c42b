"""Spans recorded from the benchmark's own files.

A traced run wraps every public call a job makes, and every structure map
of the ``GeneratorAction`` it passes in, in a span: name, start, end,
parent span and job id.  Spans live in flat arrays until the run ends and
are then written out as CSV.  A span's self time is its duration minus the
durations of its direct children.

An untraced run uses ``NoTracer``, whose ``call`` is a plain call, so the
end-to-end figures pay one extra Python call per public call and nothing
per structure map.
"""
from __future__ import annotations

import time
from array import array
from collections import defaultdict


class NoTracer:
    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n=1):
        pass

    def peak(self, name, n):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self._stack = [-1]
        self.job_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        idx = self.open(name)
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def peak(self, name: str, n) -> None:
        if n > self.peaks[name]:
            self.peaks[name] = n

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds per span name."""
        child = array("d", bytes(8 * len(self.start)))
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = defaultdict(float)
        for i in range(len(self.start)):
            out[self.names[self.name[i]]] += self.end[i] - self.start[i] - child[i]
        return out

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_s,end_s,parent,job\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.job[i]}\n"
                )


def traced_action(action, tracer: Tracer, layer: str, groups: dict, wrap_result=None):
    """A ``GeneratorAction`` whose maps run inside spans.

    ``groups`` names the span of each generator kind (kinds missing from it
    use ``<layer>.other``).  ``wrap_result(kind, value)`` may replace each
    result, which is how composed propagators get a span per step.
    """
    from wiring_operads.algebras.actions import GeneratorAction

    def wrap(kind, fn):
        span = f"{layer}.{groups.get(kind, 'other')}"

        def mapped(gen, *inputs):
            idx = tracer.open(span)
            try:
                value = fn(gen, *inputs)
            finally:
                tracer.close(idx)
            return value if wrap_result is None else wrap_result(kind, value)

        return mapped

    return GeneratorAction({kind: wrap(kind, fn) for kind, fn in action.maps.items()})
