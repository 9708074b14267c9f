"""The ``analyze-*`` and ``batch-mixed`` workloads, and what every
workload returns."""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import oracles
from perfbench.layers import layer_metrics, traced
from perfbench.metrics import MachineSpeed, Tracer, median, scaled

#: set-up is repeated this many times per run and its median reported
SETUP_REPS = 15
#: in-process passes over the batch job files (median reported)
INPROCESS_REPS = 3
#: a small program analyzed once before any timing, so lazy imports and
#: first-use caches are not charged to the first measured call
WARM_UP = "gzip-mini"
#: the batch workload's worker count (the core count of the 2-core host
#: the workloads were sized on)
BATCH_WORKERS = 2
#: generated batch programs, largest first so the two workers' wall time
#: does not depend on the seeded order of the small corpus files
BATCH_GENERATED = ("make-mini", "less-mini", "tar-mini", "bc-mini", "gzip-mini")


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    #: samples the machine's speed between measured operations
    machine: MachineSpeed = field(default_factory=MachineSpeed)


@dataclass
class Outcome:
    """One workload run: metrics by name, operations attempted and failed,
    and the reason for every failure."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def _median_setup(ctx: Context, make):
    """Time ``make`` ``SETUP_REPS`` times; returns the median at reference
    speed, and the last value."""
    before = ctx.machine.sample()
    times, value = [], None
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        value = make()
        times.append(time.perf_counter() - start)
    return scaled(median(times), before, ctx.machine.sample()), value


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


def spec_named(name: str):
    from repro.bench.codegen import default_suite, octagon_suite

    for spec in default_suite() + octagon_suite():
        if spec.name == name:
            return spec
    raise KeyError(name)


def analyze_once(source: str, domain: str, filename: str, options: dict):
    """One user-visible analysis: ``analyze()`` plus, on the interval
    domain, the overrun checker."""
    from repro.api import analyze

    run = analyze(source, domain=domain, filename=filename, **options)
    reports = run.overrun_reports() if domain == "interval" else None
    return run, reports


def warm_up() -> None:
    from repro.bench.codegen import generate_source

    analyze_once(generate_source(spec_named(WARM_UP)), "interval", f"{WARM_UP}.c", {})


def analyze_workload(ctx: Context, program: str, domain: str) -> Outcome:
    """Repeated ``analyze()`` of one generated program until ``seconds`` of
    analysis have been measured. With ``trace`` the calls alternate between
    untraced and traced, and the per-layer metrics come from the traced
    ones."""
    from repro.bench.codegen import generate_source

    out = Outcome()
    expected = oracles.load_expected()[f"analyze-{domain}"]
    spec = spec_named(program)
    setup_s, source = _median_setup(ctx, lambda: generate_source(spec))
    filename = f"{program}.c"
    warm_up()

    def call():
        return analyze_once(source, domain, filename, {})

    walls: list[float] = []  # at reference speed
    traced_walls: list[float] = []
    layer_runs: list[dict[str, float]] = []
    raw_total = 0.0
    run = None
    ctx.machine.sample()
    while raw_total < ctx.seconds or (ctx.trace and not traced_walls):
        # let the previous result go, and collect it outside the timing
        run = reports = None
        gc.collect()
        if ctx.trace and len(traced_walls) < len(walls):
            tracer = Tracer()
            with traced(tracer):
                wall, raw, (run, reports) = ctx.machine.measure(call)
            traced_walls.append(wall)
            layer_runs.append(layer_metrics(tracer, raw, wall / raw))
        else:
            wall, raw, (run, reports) = ctx.machine.measure(call)
            walls.append(wall)
        raw_total += raw
        out.attempted += 1
        digest = oracles.table_digest(run.result.table)
        if digest != expected["digest"]:
            out.fail(f"table digest {digest[:12]} != recorded {expected['digest'][:12]}")
        elif reports is not None and oracles.verdict_counts(reports) != expected["verdicts"]:
            out.fail(
                f"overrun verdicts {oracles.verdict_counts(reports)} != "
                f"recorded {expected['verdicts']}"
            )
    peak_rss = _peak_rss_mb()

    if domain == "interval":
        checked, bad = oracles.interpreter_violations(run)
        if checked == 0 or bad:
            out.fail(f"interpreter oracle: {checked} values checked, violations {bad}")

    out.put("setup_s", setup_s)
    out.put("analyze_s", median(walls))
    out.put("peak_rss_mb", peak_rss)
    # calls per second at the median call, as steady as analyze_s
    out.put("requests_per_s", 1.0 / median(walls))
    if ctx.trace:
        for key in layer_runs[0]:
            out.put(key, median([m[key] for m in layer_runs]))
        out.put("trace.overhead_s", median(traced_walls) - median(walls))
    return out


def batch_jobs(ctx: Context, src_dir: Path):
    from repro.runtime.pool import BatchJob

    corpus = sorted((ctx.root / "examples" / "corpus").glob("*.c"))
    random.Random(ctx.seed).shuffle(corpus)
    jobs = [BatchJob(path=str(src_dir / f"{name}.c")) for name in BATCH_GENERATED]
    jobs += [
        BatchJob(path=str(path), options={"preprocess_source": True})
        for path in corpus
    ]
    return jobs


def batch_workload(ctx: Context) -> Outcome:
    """``run_batch`` over the corpus and generated programs with the CLI
    defaults (checkpoint every 5 iterations), then in-process ``analyze()``
    passes over the same files for comparison.

    The pool runs two workers at once, and the single-process reference
    task does not track that speed, so the pool's times stay unscaled."""
    from repro.bench.codegen import generate_source
    from repro.runtime.pool import run_batch

    out = Outcome()
    expected = oracles.load_expected()["batch-mixed"]
    src_dir = ctx.work / "batch-src"
    ckpt_dir = ctx.work / "batch-ckpt"
    src_dir.mkdir(parents=True)

    def write_jobs():
        for name in BATCH_GENERATED:
            (src_dir / f"{name}.c").write_text(generate_source(spec_named(name)))

    setup_s, _ = _median_setup(ctx, write_jobs)
    jobs = batch_jobs(ctx, src_dir)

    walls: list[float] = []
    reports = []
    while sum(walls) < ctx.seconds:
        start = time.perf_counter()
        reports.append(
            run_batch(jobs, str(ckpt_dir), max_workers=BATCH_WORKERS, seed=ctx.seed)
        )
        walls.append(time.perf_counter() - start)
    peak_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)

    for report in reports:
        for job in report.outcomes:
            out.attempted += 1
            name = os.path.basename(job.path)
            got = {"status": job.status, "alarms": job.alarms}
            if got != expected.get(name):
                out.fail(f"{name}: {got} != recorded {expected.get(name)}")

    # a fixed order, so the in-process passes do not depend on the draw
    sources = [
        (job, Path(job.path).read_text()) for job in sorted(jobs, key=lambda j: j.path)
    ]

    def in_process():
        for job, text in sources:
            analyze_once(text, job.domain, job.path, job.options)

    warm_up()
    ctx.machine.sample()
    passes = []
    raw_passes = []
    for _ in range(INPROCESS_REPS):
        wall, raw, _ = ctx.machine.measure(in_process)
        passes.append(wall)
        raw_passes.append(raw)
    report = reports[-1]
    job_s = sum(job.wall_s for job in report.outcomes)
    out.put("setup_s", setup_s)
    out.put("analyze_s", median(passes))
    out.put("peak_rss_mb", peak_rss)
    out.put("requests_per_s", len(jobs) * len(walls) / sum(walls))
    out.put("batch_wall_s", median(walls))
    out.put("pool.job_s", job_s)
    out.put("pool.utilization", job_s / (walls[-1] * BATCH_WORKERS))
    out.put("pool.retries", report.counters.get("worker.retries", 0))
    out.put("pool.inprocess_ratio", job_s / median(raw_passes))
    for key in ("checkpoint.writes", "checkpoint.bytes"):
        total = sum(int(job.counters.get(key, 0)) for job in report.outcomes)
        out.put(key, total)
    if ctx.trace:
        tracer = Tracer()
        with traced(tracer):
            wall, raw, _ = ctx.machine.measure(in_process)
        for key, value in layer_metrics(tracer, raw, wall / raw).items():
            out.put(key, value)
        out.put("trace.overhead_s", wall - median(passes))
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    return out
