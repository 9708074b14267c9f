"""High-level public API.

One-call entry points for the common workflows::

    from repro import analyze

    result = analyze(source, domain="interval", mode="sparse")
    result.interval_at_exit("main", "x")     # value query
    result.overrun_reports()                 # buffer-overrun checker

``domain`` selects the abstract domain (``"interval"`` non-relational or
``"octagon"`` packed relational); ``mode`` selects the engine
(``"sparse"``, ``"base"`` with access-based localization, or ``"vanilla"``).

Resilience (see :mod:`repro.runtime`): ``budget`` caps the fixpoint work,
``on_budget="degrade"`` trades per-procedure precision for guaranteed
completion (falling back to the pre-analysis state, sound by Lemma 2), and
``fallback=("sparse", "base", "vanilla")`` is a whole-run engine ladder —
each rung gets a slice of the budget, and the terminal pseudo-engine
``"pre"`` always succeeds by answering every query from the pre-analysis.
What actually happened is recorded on ``run.diagnostics``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.analysis.dense import build_interproc_graph, run_dense
from repro.analysis.engine import FixpointResult, FixpointStats
from repro.analysis.preanalysis import PreAnalysis, run_preanalysis
from repro.analysis.relational import (
    PackState,
    RelContext,
    run_rel_dense,
    run_rel_sparse,
)
from repro.analysis.sparse import run_sparse
from repro.checkers.overrun import AccessReport, check_overruns
from repro.domains.absloc import AbsLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.value import AbsValue
from repro.frontend.errors import DiagnosticBag
from repro.ir.program import Program, build_program
from repro.runtime.budget import Budget
from repro.runtime.checkpoint import (
    Checkpointer,
    checked_every,
    config_fingerprint,
    load_checkpoint,
)
from repro.runtime.degrade import Diagnostics, preanalysis_table
from repro.runtime.errors import AnalysisError, BudgetExceeded
from repro.runtime.faults import FaultInjector
from repro.telemetry.core import NULL_TELEMETRY, Telemetry

#: cache sentinel — ``None`` is a legitimate lookup result
_MISS = object()

#: sparse-only engine options that must not reach the dense drivers
_SPARSE_ONLY_OPTIONS = ("method", "bypass")


@dataclass
class AnalysisRun:
    """A completed analysis with convenience queries.

    Sparse results only materialize a location's value where it is
    *defined* (Lemma 1's scope) — queries at arbitrary points therefore
    walk backward to the reaching definitions: the value at ``c`` is the
    join of the nearest ancestor states that carry the location (values
    flow unchanged along definition-free paths).

    ``diagnostics`` records what the resilience runtime did: degraded
    procedures, the fallback engine used (if any), timings and iteration
    counts."""

    program: Program
    pre: PreAnalysis
    domain: str
    mode: str
    result: FixpointResult
    diagnostics: Diagnostics = field(default_factory=Diagnostics)
    #: the telemetry registry the run reported into (the shared no-op
    #: singleton unless ``analyze(..., telemetry=...)`` was given one)
    telemetry: Telemetry = field(default=NULL_TELEMETRY, repr=False)
    #: recovered frontend problems (lex/parse/lowering errors plus
    #: quarantine notes); empty under ``strict_frontend=True`` or when the
    #: input parsed cleanly
    frontend_diagnostics: DiagnosticBag = field(default_factory=DiagnosticBag)
    #: memo for :meth:`_reaching_lookup` — repeated checker queries walk the
    #: same predecessor chains over and over; one entry per (node, key)
    _lookup_cache: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    # -- queries ---------------------------------------------------------------

    @property
    def scheduler_stats(self):
        """The main fixpoint's :class:`~repro.analysis.schedule.SchedulerStats`
        (None for pre-analysis-only results)."""
        return getattr(self.result, "scheduler_stats", None)

    @property
    def quarantined(self) -> dict[str, str]:
        """Functions replaced by havoc stubs, with their soundness notes."""
        return self.program.quarantined

    def coverage(self) -> tuple[int, int]:
        """``(analyzed, quarantined)`` function counts for this run."""
        return (
            len(self.program.analyzed_functions()),
            len(self.program.quarantined),
        )

    def _reaching_lookup(self, nid: int, key) -> object | None:
        """Join of the nearest states (backward over the control graph)
        that carry ``key``; None when no path defines it. Memoized per
        ``(nid, key)`` on the run object."""
        cache_key = (nid, key)
        hit = self._lookup_cache.get(cache_key, _MISS)
        if hit is not _MISS:
            return hit
        preds = self.result.graph.preds
        table = self.result.table
        found = None
        seen = {nid}
        frontier = [nid]
        while frontier:
            new_frontier = []
            for node in frontier:
                state = table.get(node)
                if state is not None and key in state:
                    value = state.get(key)
                    found = value if found is None else found.join(value)
                    continue  # the definition shadows anything above
                for p in preds.get(node, ()):
                    if p not in seen:
                        seen.add(p)
                        new_frontier.append(p)
            frontier = new_frontier
        self._lookup_cache[cache_key] = found
        return found

    def value_at(self, nid: int, loc: AbsLoc) -> AbsValue:
        """Abstract value of ``loc`` at control point ``nid`` (interval
        domain only)."""
        if self.domain != "interval":
            raise ValueError("value_at is an interval-domain query")
        state = self.result.table.get(nid)
        if state is not None and loc in state:
            return state.get(loc)
        found = self._reaching_lookup(nid, loc)
        return found if found is not None else AbsValue.bottom()

    def interval_of(self, nid: int, var: str, proc: str | None = None) -> Interval:
        """The numeric interval of a variable at a control point."""
        loc = VarLoc(var, proc)
        if self.domain == "interval":
            return self.value_at(nid, loc).itv
        ctx = RelContext(self.program, self.pre, self.result.packs)
        out = Interval.top()
        for pack in ctx.packs.packs_of(loc):
            state = self.result.table.get(nid)
            if state is not None and pack in state:
                oct_ = state.get(pack)
            else:
                oct_ = self._reaching_lookup(nid, pack)
            if oct_ is not None:
                out = out.meet(oct_.project(pack.index(loc)))
        return out

    def interval_at_exit(self, proc: str, var: str) -> Interval:
        """The interval of ``proc``'s local ``var`` (or a global when the
        name is not a local) at the procedure's exit."""
        cfg = self.program.cfgs.get(proc)
        if cfg is None or cfg.exit is None:
            raise KeyError(f"no procedure {proc!r}")
        owner: str | None = proc
        info = self.program.proc_infos.get(proc)
        if info is not None and var not in info.var_types:
            owner = None
        return self.interval_of(cfg.exit.nid, var, owner)

    def overrun_reports(self) -> list[AccessReport]:
        """Run the buffer-overrun checker over this result."""
        if self.domain != "interval":
            raise ValueError("the overrun checker needs the interval domain")
        from repro.checkers import run_checker

        return run_checker(
            "overrun", self.program, self.result, telemetry=self.telemetry
        )


@dataclass
class QueryResult:
    """One answer from a :class:`repro.server.ServeSession` point query.

    ``solve`` records how the answer was produced — ``"resident"`` (pure
    table read), ``"cone"`` (demand-driven restricted solve),
    ``"global"`` (whole-program solve, now cached), or
    ``"global-fallback"`` (a cone attempt blew its per-query budget and
    degraded to the global solve). Whatever the path, the value is
    byte-identical to a fresh ``analyze()`` of the current program text.
    """

    kind: str
    domain: str
    mode: str
    solve: str
    generation: int
    proc: str | None = None
    var: str | None = None
    nid: int | None = None
    line: int | None = None
    interval: Interval | None = None
    reports: list[AccessReport] | None = None
    #: control points the engine actually popped for this answer
    visited: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        """A JSON-ready rendering (the serve protocol's response body)."""
        out: dict = {
            "kind": self.kind,
            "domain": self.domain,
            "mode": self.mode,
            "solve": self.solve,
            "generation": self.generation,
            "visited": self.visited,
            "elapsed_ms": round(self.elapsed * 1000.0, 3),
        }
        if self.proc is not None:
            out["proc"] = self.proc
        if self.var is not None:
            out["var"] = self.var
        if self.nid is not None:
            out["nid"] = self.nid
        if self.line is not None:
            out["line"] = self.line
        if self.kind == "interval":
            itv = self.interval if self.interval is not None else Interval.bottom()
            out["interval"] = {
                "lo": itv.lo,
                "hi": itv.hi,
                "bottom": itv.is_bottom(),
                "repr": str(itv),
            }
        if self.reports is not None:
            out["reports"] = [
                {
                    "nid": r.nid,
                    "line": r.line,
                    "proc": r.proc,
                    "access": str(r.access),
                    "verdict": getattr(r.verdict, "value", str(r.verdict)),
                    "offset": str(r.offset),
                    "size": str(r.size),
                }
                for r in self.reports
            ]
        return out


def serve_session(
    source: str,
    filename: str = "<serve>",
    **options,
):
    """Create a :class:`repro.server.ServeSession` — the resident-state
    query/edit server behind ``repro serve``. Options mirror the session
    constructor (``domain``, ``mode``, ``strict``, ``widen``,
    ``narrowing_passes``, ``preprocess_source``, ``query_budget_seconds``,
    ``query_max_iterations``, ``cone_threshold``, ``max_resident_bytes`` —
    the LRU eviction budget for resident per-combo state — and
    ``telemetry``)."""
    from repro.server.session import ServeSession

    return ServeSession(source, filename, **options)


def supervised_session(
    source: str,
    filename: str = "<serve>",
    *,
    config=None,
    state_dir: str | None = None,
    **options,
):
    """Create (without starting) a :class:`repro.server.Supervisor` — the
    crash-recovering runtime behind ``repro serve --supervised``. The
    session lives in a worker child; crashes and hangs past the
    per-request deadline are answered with ``retry`` errors while
    the worker is respawned (with backoff) and restored from its latest
    snapshot. ``options`` are the :func:`serve_session` options; ``config``
    is a :class:`repro.server.SupervisorConfig`. Call ``.start()`` before
    ``.ask()`` and ``.stop()`` when done."""
    from repro.server.supervisor import Supervisor

    return Supervisor(
        source, filename, config=config, state_dir=state_dir, **options
    )


def _run_engine(
    program: Program,
    pre: PreAnalysis,
    domain: str,
    mode: str,
    options: dict,
) -> FixpointResult:
    """Dispatch one engine×domain combination (one rung of the ladder)."""
    if mode == "pre":
        # Terminal fallback: answer everything from the pre-analysis state.
        table = preanalysis_table(program, pre, domain)
        graph = build_interproc_graph(program, pre.site_callees, localized=False)
        diagnostics = Diagnostics(
            degraded_procs=list(program.procedures()),
            events=["whole run answered from the pre-analysis state"],
        )
        if domain == "interval":
            return FixpointResult(
                table,
                FixpointStats(),
                pre=pre,
                graph=graph,
                diagnostics=diagnostics,
            )
        from repro.domains.packs import build_packs

        return FixpointResult(
            table,
            FixpointStats(),
            pre=pre,
            graph=graph,
            packs=build_packs(program),
            diagnostics=diagnostics,
            bottom=PackState,
        )
    if domain == "interval":
        if mode == "sparse":
            return run_sparse(program, pre, **options)
        dense_options = {
            k: v for k, v in options.items() if k not in _SPARSE_ONLY_OPTIONS
        }
        if mode == "base":
            return run_dense(program, pre, localize=True, **dense_options)
        if mode == "vanilla":
            return run_dense(program, pre, **dense_options)
        raise ValueError(f"unknown mode {mode!r}")
    if domain == "octagon":
        if mode == "sparse":
            return run_rel_sparse(program, pre, **options)
        dense_options = {
            k: v for k, v in options.items() if k not in _SPARSE_ONLY_OPTIONS
        }
        if mode == "base":
            return run_rel_dense(program, pre, localize=True, **dense_options)
        if mode == "vanilla":
            return run_rel_dense(program, pre, **dense_options)
        raise ValueError(f"unknown mode {mode!r}")
    raise ValueError(f"unknown domain {domain!r}")


def analyze(
    source: str,
    domain: str = "interval",
    mode: str = "sparse",
    filename: str = "<input>",
    preprocess_source: bool = False,
    inline: bool = False,
    budget: Budget | None = None,
    budget_seconds: float | None = None,
    on_budget: str = "fail",
    fallback: tuple[str, ...] | None = None,
    faults=None,
    watchdog: bool = True,
    telemetry=None,
    checkpoint_path: str | None = None,
    checkpoint_every: int = 200,
    resume: bool = False,
    strict_frontend: bool = False,
    **options,
) -> AnalysisRun:
    """Parse, lower, and analyze C-subset ``source``.

    ``preprocess_source`` runs the mini preprocessor first; ``inline``
    duplicates small non-recursive callees into their call sites (bounded
    context sensitivity). Remaining ``options`` are forwarded to the
    underlying engine (``strict``, ``widen``, ``narrowing_passes``,
    ``widening_thresholds``, ``max_iterations``, ``method``, ``bypass``,
    ``scheduler`` — ``"wto"`` or the ``"fifo"`` baseline).

    Resilience knobs:

    * ``budget`` / ``budget_seconds`` / ``max_iterations`` — a unified
      :class:`repro.runtime.Budget` on the main fixpoint (the pre-analysis,
      being the degradation safety net, is not charged against it);
    * ``on_budget`` — ``"fail"`` raises :class:`BudgetExceeded` (the paper's
      ∞ entries); ``"degrade"`` fills unconverged procedures from the
      pre-analysis state and completes the run;
    * ``fallback`` — an engine ladder, e.g. ``("sparse", "base", "pre")``:
      each rung gets ``budget.split(len(fallback))`` and the first to finish
      wins; the pseudo-engine ``"pre"`` cannot fail;
    * ``faults`` — a :class:`repro.runtime.faults.FaultPlan` for
      deterministic failure injection (testing);
    * ``watchdog`` — verify every degraded state stays ⊑ the pre-analysis
      bound.

    ``telemetry`` attaches a :class:`repro.telemetry.Telemetry` registry
    (or ``True`` for a fresh one, reachable as ``run.telemetry``): every
    phase — frontend, pre-analysis, dep-gen, fixpoint, narrowing — reports
    spans and counters into it, at no cost when omitted.

    Checkpointing (see :mod:`repro.runtime.checkpoint`): with
    ``checkpoint_path`` set, the engine atomically snapshots its in-flight
    state at most every ``checkpoint_every`` iterations (a floor on the
    spacing: periodic writes are further spaced so that they cost at most
    about a tenth of the fixpoint's time; the first one, at iteration
    ``checkpoint_every``, always happens) and once more on any abort
    (budget exhaustion, injected crash, SIGINT/SIGTERM). ``resume=True``
    restores that snapshot — after validating format version, content
    digest, and a configuration fingerprint, failing closed with a
    :class:`~repro.runtime.errors.CheckpointError` otherwise — and the run
    converges to the same fixpoint as an uninterrupted one. Incompatible
    with ``fallback`` (a ladder re-runs stages; a snapshot belongs to
    exactly one engine configuration).

    Frontend fault tolerance (ISSUE 6): by default malformed input is
    *recovered* — lex/parse/lowering errors become positioned caret
    diagnostics on ``run.frontend_diagnostics``, functions whose bodies
    cannot be parsed or lowered are quarantined behind sound havoc stubs
    (``run.quarantined``), and every clean function is still analyzed. A
    file with **zero** recoverable functions raises
    :class:`~repro.frontend.errors.FrontendError` (one hard failure,
    carrying the first diagnostic). ``strict_frontend=True`` opts back
    into historical fail-fast parsing.
    """
    if on_budget not in ("fail", "degrade"):
        raise ValueError(f"on_budget must be 'fail' or 'degrade', not {on_budget!r}")
    checked_every(checkpoint_every)
    tel = Telemetry.coerce(telemetry)
    bag = DiagnosticBag() if not strict_frontend else None
    with tel.span("frontend", file=filename) as front_span:
        if preprocess_source:
            from repro.frontend.preprocessor import preprocess

            source = preprocess(source, filename, diagnostics=bag)
        if inline:
            from repro.frontend import parse
            from repro.frontend.inliner import inline_unit
            from repro.ir.program import ProgramBuilder

            unit, _count = inline_unit(parse(source, filename, bag))
            program = ProgramBuilder(unit, diagnostics=bag).build()
        else:
            program = build_program(
                source, filename, telemetry=tel, diagnostics=bag
            )
        front_span.set(
            procedures=program.num_functions(),
            control_points=program.num_statements(),
        )
    if bag is not None and bag.errors() and not program.analyzed_functions():
        # Recovery found nothing analyzable: this is the one hard-failure
        # case of the recovery contract (everything else degrades).
        raise bag.to_error(f"no recoverable functions in {filename}")
    pre = run_preanalysis(program, telemetry=tel)

    resolved_budget = Budget.coerce(
        budget,
        max_iterations=options.pop("max_iterations", None),
        max_seconds=budget_seconds,
    )
    injector = FaultInjector.coerce(faults)

    checkpointer = None
    resume_payload = None
    if checkpoint_path is not None:
        if fallback:
            raise ValueError(
                "checkpointing is incompatible with a fallback engine ladder"
            )
        fingerprint = config_fingerprint(domain, mode, options, program)
        checkpointer = Checkpointer(
            checkpoint_path,
            every=checkpoint_every,
            fingerprint=fingerprint,
            telemetry=tel,
        )
        if resume:
            resume_payload = load_checkpoint(
                checkpoint_path, expect_fingerprint=fingerprint
            )
    elif resume:
        raise ValueError("resume=True requires checkpoint_path")

    stages = tuple(fallback) if fallback else (mode,)
    stage_budget = (
        resolved_budget.split(len(stages)) if resolved_budget is not None else None
    )
    engine_options = dict(options)
    if stage_budget is not None:
        engine_options["budget"] = stage_budget
    engine_options["on_budget"] = on_budget
    engine_options["watchdog"] = watchdog
    if tel.enabled:
        engine_options["telemetry"] = tel
    if injector is not None:
        engine_options["faults"] = injector
    if checkpointer is not None:
        engine_options["checkpoint"] = checkpointer
    if resume_payload is not None:
        engine_options["resume_from"] = resume_payload

    attempts: list[tuple[str, str, float, str | None]] = []
    last_exc: Exception | None = None
    for stage in stages:
        start = time.perf_counter()
        try:
            stage_options = (
                {} if stage == "pre" else engine_options
            )
            result = _run_engine(program, pre, domain, stage, stage_options)
        except (BudgetExceeded, AnalysisError) as exc:
            outcome = "budget" if isinstance(exc, BudgetExceeded) else "error"
            attempts.append((stage, outcome, time.perf_counter() - start, str(exc)))
            last_exc = exc
            continue
        diagnostics = result.diagnostics
        if diagnostics is None:
            diagnostics = Diagnostics(budget=stage_budget)
        for prior_stage, outcome, seconds, error in attempts:
            diagnostics.record_attempt(prior_stage, outcome, seconds, error=error)
        diagnostics.record_attempt(
            stage, "ok", time.perf_counter() - start, diagnostics.iterations
        )
        if stage != stages[0]:
            diagnostics.fallback_used = stage
        if resume_payload is not None:
            diagnostics.events.append(
                "resumed from checkpoint at iteration "
                f"{resume_payload['iterations']}"
            )
        return AnalysisRun(
            program,
            pre,
            domain,
            mode,
            result,
            diagnostics,
            telemetry=tel,
            frontend_diagnostics=bag if bag is not None else DiagnosticBag(),
        )
    assert last_exc is not None
    raise last_exc
