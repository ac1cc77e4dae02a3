"""In-memory span recorder for the benchmark's traced runs.

A span covers one public call the benchmark makes into `dnls` (name,
start, end, parent, task, work) or one task (a criterion or experiment).
Spans are appended to a list and only written out when the run ends.
Span names start with the module they measure (`dynamics.strang`,
`cli.stats`, ...); `work` is the unit count the per-layer rate divides by.

`Untraced` has the same interface and does nothing but make the call, so
that the untraced run executes the identical task code.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter

MODULES = ("lattice", "hopping", "dynamics", "observables", "convergence", "sampling", "cli")


class Untraced:
    traced = False

    def call(self, name, fn, *args, work=0, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, n):
        pass

    def begin_task(self, name):
        pass

    def end_task(self):
        pass


class Tracer:
    """Spans are tuples (name, start, end, parent, task, work); parent is an
    index into `spans` or -1, task is the index of the enclosing task span."""

    traced = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int, float]] = []
        self.counts: Counter = Counter()
        self._task = -1

    def call(self, name, fn, *args, work=0, **kwargs):
        start = perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((name, start, perf_counter(), self._task, self._task, work))
        return out

    def count(self, name, n):
        self.counts[name] += n

    def begin_task(self, name):
        self._task = len(self.spans)
        self.spans.append((name, perf_counter(), 0.0, -1, self._task, 0))

    def end_task(self):
        name, start, _, parent, task, work = self.spans[self._task]
        self.spans[self._task] = (name, start, perf_counter(), parent, task, work)
        self._task = -1


def self_times(spans):
    """Self time per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, task, work in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, task, work) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(i, ())):
            c0 = max(c0, reach)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out
