"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload analyze-interval --seed 1 \\
        --seconds 10 --trace 0

Every metric is printed as ``name = value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). The exit code is non-zero when any
operation failed or answered wrongly, and when the analyzer's sources are
not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_SEED = "0"

#: end-to-end metrics every workload reports (units as in BENCHMARK.json)
END_TO_END = {
    "setup_s": "s",
    "analyze_s": "s",
    "peak_rss_mb": "MB",
    "requests_per_s": "1/s",
}

#: per-layer metrics of the traced run; a layer a workload does not
#: exercise reads 0. Untraced runs print the serve and batch ones too.
PER_LAYER = {
    "frontend.parse_s": "s",
    "ir.lower_s": "s",
    "ir.control_points": "count",
    "preanalysis.run_s": "s",
    "preanalysis.rounds": "count",
    "defuse.compute_s": "s",
    "defuse.avg_d": "count",
    "defuse.avg_u": "count",
    "datadep.chains_s": "s",
    "datadep.bypass_s": "s",
    "datadep.raw_edges": "count",
    "datadep.final_edges": "count",
    "datadep.kept_ratio": "ratio",
    "packs.build_s": "s",
    "packs.count": "count",
    "relational.prepare_s": "s",
    "engine.schedule_s": "s",
    "engine.fixpoint_s": "s",
    "engine.iterations": "count",
    "engine.revisit_ratio": "ratio",
    "checkers.overrun_s": "s",
    "checkers.reports": "count",
    "checkers.alarms": "count",
    "layer.unattributed_s": "s",
    "trace.overhead_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "requery_ms": "ms",
    "edit_ms": "ms",
    "session.query_ms": "ms",
    "supervisor.overhead_ms": "ms",
    "session.resident_ratio": "ratio",
    "session.global": "count",
    "session.cone": "count",
    "session.fallback": "count",
    "session.snapshots": "count",
    "incremental.retained_ratio": "ratio",
    "supervisor.restarts": "count",
    "supervisor.retry_answers": "count",
    "supervisor.shed": "count",
    "batch_wall_s": "s",
    "pool.job_s": "s",
    "pool.utilization": "ratio",
    "pool.retries": "count",
    "pool.inprocess_ratio": "ratio",
    "checkpoint.writes": "count",
    "checkpoint.bytes": "count",
    "fail_ratio": "ratio",
    "machine.ref_s": "s",
    "repo.src_lines": "count",
}


def src_lines(root: Path) -> int:
    """Non-blank lines of Python under ``src/``."""
    total = 0
    for path in sorted((root / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for line in f if line.strip())
    return total


def _workloads():
    from perfbench import servemix, workloads

    return {
        "analyze-interval": lambda ctx: workloads.analyze_workload(
            ctx, "vim-mini", "interval"
        ),
        "analyze-octagon": lambda ctx: workloads.analyze_workload(
            ctx, "sendmail-oct", "octagon"
        ),
        "serve-edit-mix": servemix.serve_workload,
        "batch-mixed": workloads.batch_workload,
    }


WORKLOAD_NAMES = ("analyze-interval", "analyze-octagon", "serve-edit-mix", "batch-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    # Set and dict iteration order follows the string hash seed, and with
    # it the analyzer's work order and run time; pin it so runs differ
    # only by the workload seed (workers fork and inherit it).
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: analyzer sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    # Everything the run writes (job files, checkpoints, serve state,
    # temporary files) stays in this checkout.
    work = ROOT / ".perfbench-work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    tempfile.tempdir = str(work / "tmp")

    from perfbench.workloads import Context

    ctx = Context(ROOT, work, args.seed, args.seconds, bool(args.trace))
    try:
        outcome = _workloads()[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from perfbench.metrics import fail_ratio

    units = {**END_TO_END, **PER_LAYER}
    metrics = dict(outcome.metrics)
    metrics["machine.ref_s"] = ctx.machine.ref_s()
    metrics["fail_ratio"] = fail_ratio(outcome.failed, outcome.attempted)
    metrics["repo.src_lines"] = src_lines(ROOT)
    declared = PER_LAYER if args.trace else END_TO_END
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
