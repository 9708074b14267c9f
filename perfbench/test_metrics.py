"""Unit tests of the benchmark's own arithmetic and request stream.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import json
from pathlib import Path

import pytest

from perfbench.metrics import (
    REFERENCE_S,
    MachineSpeed,
    Tracer,
    covered_time,
    fail_ratio,
    percentile,
    samples_beyond,
    scaled,
    self_times,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50) == 3.0
    assert percentile(samples, 100) == 5.0
    assert percentile(samples, 0) == 1.0
    assert percentile(list(range(1, 101)), 90) == 90


def test_tail_needs_ten_samples_beyond():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(108, 90) == 10
    assert tail_percentile([float(i) for i in range(100)], 90) == 89.0
    with pytest.raises(ValueError):
        tail_percentile([float(i) for i in range(99)], 90)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] contains a [1, 4] and b [5, 9]; b contains c [6, 8]
    tracer = Tracer(clock=FakeClock([0, 1, 4, 5, 6, 8, 9, 10]))
    with tracer.span("outer"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    selfs = self_times(tracer.spans)
    assert selfs == {"outer": 3, "a": 3, "b": 2, "c": 2}
    assert sum(selfs.values()) == covered_time(tracer.spans) == 10


def test_self_time_sums_repeated_names():
    tracer = Tracer(clock=FakeClock([0, 2, 3, 7]))
    with tracer.span("x"):
        pass
    with tracer.span("x"):
        pass
    assert self_times(tracer.spans) == {"x": 6}
    assert tracer.current is None


def test_fail_ratio():
    assert fail_ratio(0, 12) == 0.0
    assert fail_ratio(3, 12) == 0.25
    with pytest.raises(ValueError):
        fail_ratio(0, 0)
    with pytest.raises(ValueError):
        fail_ratio(5, 4)


def test_measure_scales_by_the_samples_around_the_operation():
    # reference task: 0.2 s before the operation, 0.3 s after it, on a
    # machine whose reference speed is 0.1 s
    clock = FakeClock([0, 0.2, 1, 3, 10, 10.3, 11, 11.3, 12, 12.3])
    machine = MachineSpeed(clock=clock, task=lambda: None)
    assert machine.sample(repeat=1) == 0.2
    wall, raw, value = machine.measure(lambda: "done")
    assert (raw, value, machine.last) == (2, "done", pytest.approx(0.3))
    assert wall == pytest.approx(2 * REFERENCE_S / 0.25)
    assert scaled(2.0, REFERENCE_S, REFERENCE_S) == 2.0


def test_machine_speed_reports_the_median_sample():
    machine = MachineSpeed(clock=FakeClock([0, 3, 10, 11, 20, 22]), task=lambda: None)
    assert machine.sample(repeat=3) == 2
    assert machine.ref_s() == 2


def test_benchmark_json_matches_the_runner():
    from perfbench.run import END_TO_END, PER_LAYER, WORKLOAD_NAMES

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == WORKLOAD_NAMES


def test_stream_edits_keep_the_program_valid():
    from perfbench.servemix import StreamGenerator
    from repro.bench.codegen import default_suite, generate_source
    from repro.ir.program import build_program

    spec = next(s for s in default_suite() if s.name == "gzip-mini")
    source = generate_source(spec)
    gen = StreamGenerator(source, seed=3)
    block = gen.block()
    roles = [role for _req, _gen, role in block]
    assert roles.count("query") == 18 and roles[-2:] == ["edit", "requery"]
    kinds = [req.get("kind") for req, _g, role in block if role == "query"]
    assert kinds.count("check") == 2
    edit = block[-2][0]["source"]
    changed = [
        (old, new)
        for old, new in zip(source.splitlines(), edit.splitlines())
        if old != new
    ]
    assert len(changed) == 1 and changed[0][1].startswith("  int v0 = ")
    assert gen.texts == [source, edit]
    build_program(edit)  # still parses and lowers
    # the same seed draws the same stream
    assert StreamGenerator(source, seed=3).block() == block
