"""Command-line interface.

Analyze a C file and report analysis facts or checker findings::

    python -m repro analyze file.c                      # overrun check
    python -m repro file.c                              # same (shorthand)
    python -m repro analyze file.c --check divzero
    python -m repro analyze file.c --check nullderef
    python -m repro analyze file.c --domain octagon
    python -m repro analyze file.c --mode vanilla --stats
    python -m repro file.c --metrics                    # per-phase report
    python -m repro file.c --trace out.json             # chrome://tracing
    python -m repro file.c --checkpoint run.ckpt        # crash-safe snapshots
    python -m repro file.c --checkpoint run.ckpt --resume
    python -m repro batch a.c b.c --checkpoint-dir ckpt # multi-process driver
    python -m repro tables table2 --quick               # paper tables
    python -m repro serve file.c                        # query server (JSON
                                                        # lines on stdin/stdout)

Exit codes are a stable contract::

    0    analysis completed, no checker alarms
    1    analysis completed, checker alarms reported
    2    anticipated failure (parse error, budget exhaustion, bad
         checkpoint, missing file) — one-line diagnostic on stderr
    3    unexpected internal crash — traceback on stderr
    130  interrupted by SIGINT  (128 + signal number)
    143  interrupted by SIGTERM (128 + signal number); with --checkpoint
         the final snapshot is flushed before exiting
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.api import analyze
from repro.checkers import run_checker
from repro.frontend.errors import FrontendError
from repro.runtime.budget import Budget
from repro.runtime.errors import AnalysisInterrupted, ReproError
from repro.runtime.interrupt import raising_signal_handlers
from repro.telemetry import Telemetry, phase_report, write_chrome_trace

#: exit-code contract (documented in README.md and DESIGN.md §11)
EXIT_OK = 0
EXIT_ALARMS = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _one_line_diagnostic(exc: ReproError) -> str:
    """A ``file:line:col: message`` diagnostic for frontend errors (with a
    caret snippet when the offending source line is known), a labelled
    one-liner for everything else in the :class:`ReproError` hierarchy."""
    if isinstance(exc, FrontendError):
        return str(exc)
    return f"error: {exc}"


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    options = {
        "preprocess_source": args.cpp,
        "inline": args.inline,
        "scheduler": args.scheduler,
        "strict_frontend": args.strict_frontend,
    }
    if args.narrow:
        options["narrowing_passes"] = args.narrow
    if args.budget_seconds is not None or args.max_iterations is not None:
        options["budget"] = Budget(
            max_seconds=args.budget_seconds,
            max_iterations=args.max_iterations,
        )
    if args.checkpoint is not None:
        options["checkpoint_path"] = args.checkpoint
        options["checkpoint_every"] = args.checkpoint_every
        options["resume"] = args.resume
    elif args.resume:
        print("error: --resume requires --checkpoint", file=sys.stderr)
        return EXIT_ERROR
    # One registry serves both reporting flags; memory tracking only for
    # --metrics (tracemalloc slows the analysis severalfold).
    tel = None
    if args.metrics or args.trace:
        tel = Telemetry(enabled=True, track_memory=args.metrics)
    try:
        # SIGINT/SIGTERM become AnalysisInterrupted inside the engine, so
        # the abort path flushes a final checkpoint before we exit 128+n.
        with raising_signal_handlers():
            run = analyze(
                source,
                domain=args.domain,
                mode=args.mode,
                filename=args.file,
                on_budget=args.on_budget,
                telemetry=tel,
                **options,
            )
    except AnalysisInterrupted:
        if tel is not None and args.trace:
            write_chrome_trace(tel, args.trace)
            print(f"trace written to {args.trace}", file=sys.stderr)
        raise

    exit_code = EXIT_OK
    fdiags = run.frontend_diagnostics
    if len(fdiags):
        print(fdiags.render(), file=sys.stderr)
        analyzed, quarantined = run.coverage()
        print(
            f"note: recovered from {fdiags.summary()}: "
            f"{analyzed} analyzed, {quarantined} quarantined",
            file=sys.stderr,
        )
        if fdiags.errors():
            # Recovered-with-diagnostics shares the alarm exit path: the
            # run completed but its input was degraded.
            exit_code = EXIT_ALARMS

    if run.diagnostics.degraded_procs:
        print(
            "note: budget-degraded to the pre-analysis in: "
            + ", ".join(run.diagnostics.degraded_procs),
            file=sys.stderr,
        )
    for event in run.diagnostics.events:
        if event.startswith("resumed from checkpoint"):
            print(f"note: {event}", file=sys.stderr)

    if args.stats:
        program = run.program
        print(f"procedures      : {program.num_functions()}")
        print(f"control points  : {program.num_statements()}")
        stats = run.result.stats
        print(f"iterations      : {stats.iterations}")
        if run.result.deps is not None:
            print(f"dependencies    : {stats.dep_count} "
                  f"(raw {stats.raw_dep_count})")
        if run.result.defuse is not None:
            d, u = run.result.defuse.average_sizes()
            print(f"avg |D̂|/|Û|    : {d:.2f} / {u:.2f}")
        sched = run.scheduler_stats
        if sched is not None:
            print(f"scheduler       : {sched.scheduler}")
            print(f"pops            : {sched.pops} over "
                  f"{sched.unique_nodes} nodes")
            print(f"revisits        : {sched.revisits} "
                  f"(max {sched.max_revisits}, "
                  f"rate {sched.revisit_rate:.2f})")
            print(f"inversions      : {sched.inversions}")
            print(f"widening points : {sched.widening_points}")
            total = sched.join_cache_hits + sched.join_cache_misses
            if total:
                print(f"join cache      : {sched.join_cache_hits}/{total} "
                      f"hits ({100 * sched.join_cache_hit_rate:.0f}%)")

    if args.domain == "interval":
        for name in args.check:
            reports = run_checker(name, run.program, run.result, telemetry=tel)
            printed = set()
            print(f"\n== {name} ({len(reports)} checks) ==")
            for r in reports:
                key = (r.line, str(r))
                if key in printed:
                    continue
                printed.add(key)
                print(f"  {r}")
                if "alarm" in str(r).lower() or "null" in str(r).lower():
                    exit_code = max(exit_code, EXIT_ALARMS)
            if name == "overrun" and args.cluster:
                from repro.checkers.cluster import (
                    cluster_alarms,
                    triage_summary,
                )

                clusters = cluster_alarms(run.program, reports)
                if clusters:
                    print()
                    print(triage_summary(clusters))
    elif args.check and args.check != ["overrun"]:
        print("checkers need --domain interval", file=sys.stderr)
        return EXIT_ERROR

    if args.query:
        for q in args.query:
            proc, _, var = q.partition(":")
            try:
                itv = run.interval_at_exit(proc, var)
                print(f"{proc}:{var} at exit ∈ {itv}")
            except KeyError as exc:
                print(f"query {q!r}: {exc}", file=sys.stderr)

    if tel is not None:
        if args.metrics:
            print()
            print(f"== per-phase metrics ({args.file}) ==")
            print(phase_report(tel).text())
        if args.trace:
            write_chrome_trace(tel, args.trace)
            print(f"trace written to {args.trace}", file=sys.stderr)
        tel.close()
    return exit_code


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.runtime.atomicio import atomic_write_json
    from repro.runtime.faults import FaultPlan
    from repro.runtime.pool import BatchJob, run_batch

    faults = None
    if args.fault_kill_at is not None or args.fault_corrupt_checkpoint:
        faults = FaultPlan(
            kill_worker_at=args.fault_kill_at,
            corrupt_checkpoint=args.fault_corrupt_checkpoint,
        )
    options = {}
    if args.cpp:
        options["preprocess_source"] = True
    if args.strict_frontend:
        options["strict_frontend"] = True
    jobs = [
        BatchJob(path=path, domain=args.domain, mode=args.mode,
                 options=dict(options), faults=faults)
        for path in args.files
    ]
    with raising_signal_handlers():
        report = run_batch(
            jobs,
            args.checkpoint_dir,
            max_workers=args.jobs,
            job_timeout=args.timeout,
            max_retries=args.retries,
            heartbeat_timeout=args.heartbeat_timeout,
            resume=args.resume,
            checkpoint_every=args.checkpoint_every,
            seed=args.seed,
        )
    print(report.text())
    if args.report is not None:
        atomic_write_json(args.report, report.as_dict(), indent=2)
        print(f"report written to {args.report}", file=sys.stderr)
    return report.exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        with open(args.file) as f:
            source = f.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR

    tel = None
    if args.report is not None:
        tel = Telemetry(enabled=True)
    session_options = dict(
        domain=args.domain,
        mode=args.mode,
        strict=not args.exact,
        widen=not args.exact,
        narrowing_passes=args.narrow,
        preprocess_source=args.cpp,
        query_budget_seconds=args.query_budget_seconds,
        query_max_iterations=args.query_max_iterations,
        max_resident_bytes=args.max_resident_bytes,
    )

    if args.supervised:
        return _serve_supervised(args, source, session_options, tel)

    from repro.server.protocol import serve_stdio, serve_unix_socket
    from repro.server.session import ServeSession

    session = ServeSession(source, args.file, telemetry=tel, **session_options)
    if args.preload:
        # Eagerly compute the default combo's global fixpoint so the first
        # query is already a warm read.
        session.resident()
        session._ensure_solved(
            session.resident(),
            frozenset(session.resident().plan.node_ids),
        )
    try:
        # SIGINT/SIGTERM raise AnalysisInterrupted even mid-query; main()
        # maps it to the documented 128+signum exit code.
        with raising_signal_handlers():
            if args.socket is not None:
                serve_unix_socket(
                    session,
                    args.socket,
                    max_request_bytes=args.max_request_bytes,
                )
            else:
                serve_stdio(
                    session,
                    sys.stdin,
                    sys.stdout,
                    max_request_bytes=args.max_request_bytes,
                )
    finally:
        if tel is not None and args.report is not None:
            from repro.telemetry import write_phase_report

            write_phase_report(tel, args.report)
            print(f"phase report written to {args.report}", file=sys.stderr)
    return EXIT_OK


def _serve_supervised(
    args: argparse.Namespace, source: str, session_options: dict, tel
) -> int:
    from repro.server.supervisor import (
        Supervisor,
        SupervisorConfig,
        serve_supervised_stdio,
        serve_supervised_socket,
    )

    config = SupervisorConfig(
        request_deadline=args.request_deadline,
        snapshot_every=args.snapshot_every,
        max_pending=args.max_pending,
        max_restarts=args.max_restarts,
    )
    sup = Supervisor(
        source,
        args.file,
        state_dir=args.state_dir,
        config=config,
        max_request_bytes=args.max_request_bytes,
        preload=args.preload,
        telemetry=tel,
        **session_options,
    )
    sup.start()
    try:
        # SIGINT/SIGTERM raise AnalysisInterrupted in the consumer loop;
        # the handlers below forward the same signal to the worker and
        # reap it before main() exits 128+signum.
        with raising_signal_handlers():
            if args.socket is not None:
                serve_supervised_socket(sup, args.socket)
            else:
                serve_supervised_stdio(sup, sys.stdin, sys.stdout)
    except AnalysisInterrupted as exc:
        sup.stop(exc.signum)
        raise
    finally:
        sup.stop()
        if tel is not None and args.report is not None:
            from repro.telemetry import write_phase_report

            write_phase_report(tel, args.report)
            print(f"phase report written to {args.report}", file=sys.stderr)
    return EXIT_OK


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.bench import harness

    argv = [args.table]
    if args.quick:
        argv.append("--quick")
    if args.json:
        argv.extend(["--json", args.json])
    return harness.main(argv)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sparse global abstract interpretation for C-like "
        "languages (PLDI 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a C file")
    p_analyze.add_argument("file")
    p_analyze.add_argument(
        "--domain", choices=["interval", "octagon"], default="interval"
    )
    p_analyze.add_argument(
        "--mode", choices=["sparse", "base", "vanilla"], default="sparse"
    )
    p_analyze.add_argument(
        "--check",
        action="append",
        choices=["overrun", "divzero", "nullderef"],
        default=None,
        help="client checker to run (repeatable; default: overrun)",
    )
    p_analyze.add_argument(
        "--query",
        action="append",
        metavar="PROC:VAR",
        help="print a variable's interval at a procedure exit (repeatable)",
    )
    p_analyze.add_argument("--stats", action="store_true")
    p_analyze.add_argument(
        "--metrics", action="store_true",
        help="print a Table-2-style per-phase report (frontend, "
        "pre-analysis, dep-gen, fixpoint, narrowing, checkers) with "
        "tracemalloc peak memory",
    )
    p_analyze.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a Chrome trace JSON (chrome://tracing) of the run",
    )
    p_analyze.add_argument(
        "--scheduler", choices=["wto", "fifo"], default="wto",
        help="fixpoint visit order: weak topological order (default) or "
        "the FIFO baseline",
    )
    p_analyze.add_argument(
        "--narrow", type=int, default=2, metavar="N",
        help="narrowing passes after widening (default 2)",
    )
    p_analyze.add_argument(
        "--cpp", action="store_true",
        help="run the mini preprocessor (#define/#if/#include) first",
    )
    p_analyze.add_argument(
        "--strict-frontend", action="store_true",
        help="fail fast on the first frontend error instead of recovering "
        "with diagnostics and per-function quarantine",
    )
    p_analyze.add_argument(
        "--inline", action="store_true",
        help="inline small non-recursive callees before analysis "
        "(bounded context sensitivity)",
    )
    p_analyze.add_argument(
        "--cluster", action="store_true",
        help="group overrun alarms into dominance clusters for triage",
    )
    p_analyze.add_argument(
        "--budget-seconds", type=float, default=None, metavar="S",
        help="wall-clock budget for the fixpoint computation",
    )
    p_analyze.add_argument(
        "--max-iterations", type=int, default=None, metavar="N",
        help="iteration budget for the fixpoint computation",
    )
    p_analyze.add_argument(
        "--on-budget", choices=["fail", "degrade"], default="fail",
        help="on budget exhaustion: fail (exit non-zero) or degrade "
        "affected procedures to the sound pre-analysis result",
    )
    p_analyze.add_argument(
        "--checkpoint", metavar="FILE", default=None,
        help="write crash-safe snapshots of the fixpoint state to FILE "
        "(periodic, plus a final flush on interrupt/budget abort)",
    )
    p_analyze.add_argument(
        "--checkpoint-every", type=int, default=200, metavar="N",
        help="snapshot at most every N fixpoint iterations (default 200); "
        "after the first snapshot, writes are spaced to cost at most about "
        "a tenth of the fixpoint time",
    )
    p_analyze.add_argument(
        "--resume", action="store_true",
        help="resume from the --checkpoint file instead of starting fresh; "
        "converges to the same fixpoint as an uninterrupted run",
    )
    p_analyze.set_defaults(fn=_cmd_analyze)

    p_batch = sub.add_parser(
        "batch",
        help="analyze many files with the fault-tolerant multi-process "
        "driver (timeouts, retry with backoff, resume-from-checkpoint)",
    )
    p_batch.add_argument("files", nargs="+")
    p_batch.add_argument(
        "--domain", choices=["interval", "octagon"], default="interval"
    )
    p_batch.add_argument(
        "--mode", choices=["sparse", "base", "vanilla"], default="sparse"
    )
    p_batch.add_argument(
        "--cpp", action="store_true",
        help="run the mini preprocessor on each file first (needed for "
        "sources that carry #define/#include lines, e.g. examples/corpus)",
    )
    p_batch.add_argument(
        "--strict-frontend", action="store_true",
        help="fail fast on the first frontend error instead of recovering; "
        "poisoned files then count as failed, not degraded",
    )
    p_batch.add_argument(
        "--checkpoint-dir", default=".repro-checkpoints", metavar="DIR",
        help="where per-job checkpoints and results live "
        "(default .repro-checkpoints)",
    )
    p_batch.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="max concurrent workers (default min(4, cpu count))",
    )
    p_batch.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock timeout; timed-out jobs are retried from "
        "their last checkpoint",
    )
    p_batch.add_argument(
        "--retries", type=int, default=2, metavar="N",
        help="max retries per job after a crash/timeout (default 2)",
    )
    p_batch.add_argument(
        "--checkpoint-every", type=int, default=5, metavar="N",
        help="worker snapshots at most every N fixpoint iterations "
        "(default 5); after the first snapshot, writes are spaced to cost "
        "at most about a tenth of the fixpoint time",
    )
    p_batch.add_argument(
        "--heartbeat-timeout", type=float, default=None, metavar="S",
        help="treat a worker as hung when its heartbeat file goes stale "
        "for S seconds",
    )
    p_batch.add_argument(
        "--resume", action="store_true",
        help="let first attempts resume from checkpoints left by a "
        "previous batch run",
    )
    p_batch.add_argument(
        "--seed", type=int, default=0,
        help="PRNG seed for retry backoff jitter (default 0)",
    )
    p_batch.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the per-job outcome report as JSON (atomic write)",
    )
    p_batch.add_argument(
        "--fault-kill-at", type=int, default=None, metavar="N",
        help="testing: SIGKILL each worker at fixpoint iteration N "
        "(first attempt only)",
    )
    p_batch.add_argument(
        "--fault-corrupt-checkpoint", action="store_true",
        help="testing: corrupt each job's checkpoint before its first "
        "retry to exercise the fail-closed restore path",
    )
    p_batch.set_defaults(fn=_cmd_batch)

    p_serve = sub.add_parser(
        "serve",
        help="long-running query server: load once, answer point queries "
        "demand-driven, reanalyze incrementally on edit (line-oriented "
        "JSON on stdin/stdout or a Unix socket)",
    )
    p_serve.add_argument("file")
    p_serve.add_argument(
        "--domain", choices=["interval", "octagon"], default="interval"
    )
    p_serve.add_argument(
        "--mode", choices=["sparse", "base", "vanilla"], default="sparse"
    )
    p_serve.add_argument(
        "--cpp", action="store_true",
        help="run the mini preprocessor (#define/#if/#include) first",
    )
    p_serve.add_argument(
        "--exact", action="store_true",
        help="exact mode (strict=False, widen=False): order-independent "
        "least fixpoints, the setting under which cone-restricted solves "
        "are provably identical to global ones",
    )
    p_serve.add_argument(
        "--narrow", type=int, default=0, metavar="N",
        help="narrowing passes after widening (default 0; narrowing "
        "disables cone solving — every query uses the cached global solve)",
    )
    p_serve.add_argument(
        "--socket", metavar="PATH", default=None,
        help="serve on a Unix domain socket instead of stdin/stdout",
    )
    p_serve.add_argument(
        "--max-request-bytes", type=int, default=1 << 20, metavar="N",
        help="reject request lines larger than N bytes (default 1 MiB)",
    )
    p_serve.add_argument(
        "--query-budget-seconds", type=float, default=None, metavar="S",
        help="per-query wall-clock budget for cone solves; exceeding it "
        "degrades that query to the global-solve fallback",
    )
    p_serve.add_argument(
        "--query-max-iterations", type=int, default=None, metavar="N",
        help="per-query iteration budget for cone solves (same fallback)",
    )
    p_serve.add_argument(
        "--preload", action="store_true",
        help="solve the default combo's global fixpoint at startup so the "
        "first query is already a warm read",
    )
    p_serve.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the served-queries phase report as JSON at shutdown",
    )
    p_serve.add_argument(
        "--supervised", action="store_true",
        help="run the session in a supervised worker child: crashes and "
        "hangs are detected, the worker is respawned with backoff and "
        "restored from its latest snapshot, and the in-flight request is "
        "answered with a one-line retry error instead of the server dying",
    )
    p_serve.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="supervised: where the durable source record and resident "
        "snapshots live (default: a private temporary directory)",
    )
    p_serve.add_argument(
        "--request-deadline", type=float, default=60.0, metavar="S",
        help="supervised: hard per-request wall-clock ceiling; a worker "
        "that exceeds it is killed and respawned (default 60)",
    )
    p_serve.add_argument(
        "--snapshot-every", type=int, default=16, metavar="N",
        help="supervised: auto-snapshot resident state every N requests "
        "(edits always snapshot; default 16)",
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=64, metavar="N",
        help="supervised: admission-control cap; requests beyond N queued "
        "ones are shed immediately with an 'overloaded' error (default 64)",
    )
    p_serve.add_argument(
        "--max-restarts", type=int, default=8, metavar="N",
        help="supervised: consecutive worker startup failures before the "
        "supervisor gives up and answers 'unavailable' (default 8)",
    )
    p_serve.add_argument(
        "--max-resident-bytes", type=int, default=None, metavar="N",
        help="evict least-recently-used per-combo resident analyses when "
        "their estimated footprint exceeds N bytes (queries on evicted "
        "combos fall back to a lazy re-solve)",
    )
    p_serve.set_defaults(fn=_cmd_serve)

    p_tables = sub.add_parser("tables", help="regenerate the paper's tables")
    p_tables.add_argument("table", choices=["table1", "table2", "table3", "all"])
    p_tables.add_argument("--quick", action="store_true")
    p_tables.add_argument(
        "--json", metavar="FILE", default=None,
        help="also write the table rows as JSON (atomic write)",
    )
    p_tables.set_defaults(fn=_cmd_tables)

    if argv is None:
        argv = sys.argv[1:]
    # Shorthand: ``python -m repro file.c …`` == ``python -m repro analyze
    # file.c …`` — anything that is not a subcommand or a flag is a file.
    if argv and not argv[0].startswith("-") and argv[0] not in (
        "analyze", "batch", "tables", "serve"
    ):
        argv = ["analyze", *argv]
    args = parser.parse_args(argv)
    if getattr(args, "check", None) is None and args.command == "analyze":
        args.check = ["overrun"]
    try:
        if os.environ.get("REPRO_INTERNAL_CRASH"):
            raise RuntimeError("injected internal crash (REPRO_INTERNAL_CRASH)")
        return args.fn(args)
    except AnalysisInterrupted as exc:
        # Graceful shutdown: the engine's abort path already flushed a final
        # checkpoint (when --checkpoint is active). Conventional 128+signum.
        print(f"interrupted: {exc}", file=sys.stderr)
        return 128 + exc.signum
    except ReproError as exc:
        # One-line diagnostic instead of a traceback: parse errors point at
        # file:line:col, budget exhaustion and engine failures are labelled.
        print(_one_line_diagnostic(exc), file=sys.stderr)
        return EXIT_ERROR
    except ValueError as exc:
        # Invalid option values (e.g. batch --jobs 0) are user errors, not
        # internal bugs.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception:
        import traceback

        traceback.print_exc()
        print("internal error: this is a bug, please report it",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
