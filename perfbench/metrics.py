"""The benchmark's own arithmetic: percentiles, span self times, failure
ratio, machine-speed normalization. Pure Python with no dependency on the
analyzer, so it is unit-tested on its own (``python3 -m pytest perfbench``)."""

from __future__ import annotations

import gc
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: a reported percentile must have at least this many samples beyond it
TAIL_SAMPLES = 10


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``pct``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``pct`` percentile (counting ranks, so ties do not matter)."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(samples: list[float], pct: float) -> float:
    """``percentile`` that refuses to report a tail with fewer than
    ``TAIL_SAMPLES`` samples beyond it."""
    beyond = samples_beyond(len(samples), pct)
    if beyond < TAIL_SAMPLES:
        raise ValueError(
            f"p{pct:g} of {len(samples)} samples has only {beyond} beyond it "
            f"(need {TAIL_SAMPLES})"
        )
    return percentile(samples, pct)


def median(samples: list[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def fail_ratio(failed: int, attempted: int) -> float:
    """Failed or wrong operations over operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures out of {attempted} attempts")
    return failed / attempted


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in ``Tracer.spans``; None at top level
    parent: int | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. Spans nest by call order; nothing is
    written out until the caller reads ``spans`` at the end of the run."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @property
    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._open[-1]].name if self._open else None

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self.clock()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name, the summed time its spans did not spend inside a
    child span."""
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.duration
    out: dict[str, float] = {}
    for i, sp in enumerate(spans):
        out[sp.name] = out.get(sp.name, 0.0) + sp.duration - child_time[i]
    return out


def covered_time(spans: list[Span]) -> float:
    """Wall time covered by top-level spans (their children lie inside)."""
    return sum(sp.duration for sp in spans if sp.parent is None)


#: what the reference task takes on a machine of reference speed (seconds)
REFERENCE_S = 0.1


def reference_task() -> int:
    """A fixed pure-Python task exercising what the analyzer spends its
    time on: tuple-keyed dict updates, sorting, string hashing into a set,
    small-object allocation. It never calls the analyzer, and it keeps
    under a megabyte live, so it does not raise any peak RSS the
    benchmark reports."""
    table: dict[tuple[int, int], int] = {}
    for i in range(150_000):
        key = (i % 1013, i % 7)
        table[key] = table.get(key, 0) + i
    total = len(sorted(table.items(), key=lambda kv: kv[1]))
    for _ in range(40):
        names = {str(i) for i in range(2_500)}
        cells = [[i, str(i)] for i in range(2_500)]
        total += len(names) + len(cells)
    return total


class MachineSpeed:
    """Times the reference task in the pauses between a workload's measured
    operations. The shared machine's speed drifts by tens of percent within
    tens of seconds, so an operation's time is scaled by the reference
    times taken just before and just after it: the result is what a
    machine running the reference task in ``REFERENCE_S`` would measure."""

    def __init__(self, clock=time.perf_counter, task=reference_task) -> None:
        self.clock = clock
        self.task = task
        self.samples: list[float] = []
        #: median of the latest ``sample()``
        self.last: float | None = None

    def sample(self, repeat: int = 3) -> float:
        """Time the reference task ``repeat`` times; returns the median.
        The cyclic garbage collector is paused meanwhile: a collection
        would traverse whatever the workload keeps alive, and the sample
        would measure that heap instead of the machine."""
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeat):
                start = self.clock()
                self.task()
                times.append(self.clock() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.extend(times)
        self.last = median(times)
        return self.last

    def measure(self, fn):
        """Run ``fn`` after the latest sample and before a new one; returns
        ``(seconds at reference speed, raw seconds, fn's value)``."""
        before = self.last if self.last is not None else self.sample()
        start = self.clock()
        value = fn()
        raw = self.clock() - start
        return scaled(raw, before, self.sample()), raw, value

    def ref_s(self) -> float:
        """The run's median reference time."""
        return median(self.samples)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between reference samples ``before`` and
    ``after``, at reference machine speed."""
    return seconds * REFERENCE_S * 2 / (before + after)
