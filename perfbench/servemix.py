"""The ``serve-edit-mix`` workload: one closed-loop client against the
supervised serve runtime.

The seeded stream is built from blocks of 20 requests: 16 interval
queries and 2 check queries in seeded order, then one edit and the
interval query that re-solves after it (85% interval, 10% check, 5%
edit). Whole blocks
run until ``seconds`` have passed and the tail percentile has enough
samples beyond it.
"""

from __future__ import annotations

import gc
import json
import random
import re
import shutil
import time
from typing import NamedTuple

from perfbench import oracles
from perfbench.metrics import (
    TAIL_SAMPLES,
    median,
    percentile,
    samples_beyond,
    tail_percentile,
)
from perfbench.workloads import Context, Outcome, spec_named, warm_up

PROGRAM = "screen-mini"
#: supervisor start-ups timed per run (each spawns and loads a worker)
SETUP_REPS = 3
BLOCK_INTERVAL = 16
BLOCK_CHECK = 2
#: the only text an edit touches: the literal of a function's first local
_EDIT_LINE = re.compile(r"^(  int v0 = )(\d+)( \+ p0;)$", re.M)
_FUNC_HEAD = re.compile(r"^int (f\d+)\(int p0, int p1\) \{$", re.M)


class StreamGenerator:
    """Seeded requests over a generated program whose every edit keeps it
    valid: an edit only rewrites the integer literal in a function's
    ``int v0 = K + p0;`` line, to a different non-negative value."""

    def __init__(self, source: str, seed: int) -> None:
        self.rng = random.Random(seed)
        self.source = source
        self.generation = 0
        self.texts = [source]
        self.functions: list[str] = []
        self.locals: dict[str, list[str]] = {}
        heads = list(_FUNC_HEAD.finditer(source))
        for i, head in enumerate(heads):
            end = heads[i + 1].start() if i + 1 < len(heads) else len(source)
            body = source[head.end():end]
            if _EDIT_LINE.search(body):
                name = head.group(1)
                self.functions.append(name)
                self.locals[name] = sorted(
                    set(re.findall(r"\bint (v\d+) = ", body)) | {"p0", "p1"}
                )
        self.globals = sorted(set(re.findall(r"^int (g\d+) = ", source, re.M)))
        if not self.functions:
            raise ValueError("program has no editable functions")

    def _interval(self, proc: str | None = None) -> dict:
        proc = proc or self.rng.choice(self.functions)
        if self.rng.random() < 0.2:
            var = self.rng.choice(self.globals)
        else:
            var = self.rng.choice(self.locals[proc])
        return {"op": "query", "kind": "interval", "proc": proc, "var": var}

    def _check(self) -> dict:
        return {"op": "query", "kind": "check", "proc": self.rng.choice(self.functions)}

    def _edit(self) -> tuple[dict, str]:
        proc = self.rng.choice(self.functions)
        start = self.source.index(f"int {proc}(int p0, int p1) {{\n")
        match = _EDIT_LINE.search(self.source, start)
        old = int(match.group(2))
        new = self.rng.choice([k for k in range(100) if k != old])
        self.source = (
            self.source[: match.start(2)] + str(new) + self.source[match.end(2):]
        )
        self.generation += 1
        self.texts.append(self.source)
        return {"op": "edit", "source": self.source}, proc

    def block(self) -> list[tuple[dict, int, str]]:
        """One block as ``(request, generation it is answered at, role)``;
        role is ``query``, ``edit`` or ``requery`` (the first query after
        the edit, which re-solves what the edit invalidated)."""
        rest = [self._interval() for _ in range(BLOCK_INTERVAL)]
        rest += [self._check() for _ in range(BLOCK_CHECK)]
        self.rng.shuffle(rest)
        before = self.generation
        edit, proc = self._edit()
        return [(req, before, "query") for req in rest] + [
            (edit, self.generation, "edit"),
            (self._interval(proc), self.generation, "requery"),
        ]


class Answer(NamedTuple):
    request: dict
    generation: int
    role: str
    response: dict
    #: at reference machine speed
    round_trip_ms: float
    #: reference speed over the machine's speed while the request ran
    scale: float


def _answer_problem(req, generation, resp, run, reports) -> str | None:
    """Why a serve answer is wrong against a fresh analysis ``run`` of
    the same text, or None when it is right."""
    if not resp.get("ok"):
        return f"{req['op']} answered {resp.get('error')}: {resp.get('message')}"
    if resp.get("generation") != generation:
        return f"{req} answered at generation {resp.get('generation')}"
    if req["op"] != "query":
        return None
    if req["kind"] == "interval":
        want = str(run.interval_at_exit(req["proc"], req["var"]))
        if resp["interval"]["repr"] != want:
            return f"{req} answered {resp['interval']['repr']}, fresh {want}"
        return None
    want = oracles.report_rows([r for r in reports if r.proc == req["proc"]])
    if oracles.report_rows(resp["reports"]) != want:
        return f"{req} reports differ from a fresh analysis"
    return None


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def serve_workload(ctx: Context) -> Outcome:
    from repro.api import analyze, supervised_session
    from repro.bench.codegen import generate_source

    out = Outcome()
    spec = spec_named(PROGRAM)
    state_root = ctx.work / "serve-state"
    sup = None
    try:
        # Set-up is timed several times; each earlier supervisor is
        # stopped before the next one starts, outside the timed part.
        setup_times = []
        ctx.machine.sample()
        for rep in range(SETUP_REPS):
            if sup is not None:
                sup.stop()
            state = str(state_root / str(rep))

            def start():
                source = generate_source(spec)
                started = supervised_session(source, f"{PROGRAM}.c", state_dir=state)
                started.start()
                return source, started

            wall, _raw, (source, sup) = ctx.machine.measure(start)
            setup_times.append(wall)
        setup_s = median(setup_times)
        gen = StreamGenerator(source, ctx.seed)

        log: list[Answer] = []
        raw_total = scaled_total = 0.0
        while raw_total < ctx.seconds or samples_beyond(
            sum(1 for a in log if a.role == "query"), 90
        ) < TAIL_SAMPLES:
            block = gen.block()
            answered = []

            def send_block():
                for req, generation, role in block:
                    t0 = time.perf_counter()
                    resp = json.loads(sup.handle_line(json.dumps(req)))
                    answered.append((req, generation, role, resp, time.perf_counter() - t0))

            wall, raw, _ = ctx.machine.measure(send_block)
            scale = wall / raw
            log.extend(
                Answer(req, generation, role, resp, rt * 1000.0 * scale, scale)
                for req, generation, role, resp, rt in answered
            )
            raw_total += raw
            scaled_total += wall
        stats = sup.ask({"op": "stats"})
        peak_rss = _vm_hwm_mb(stats["supervisor"]["worker_pid"])
    finally:
        if sup is not None:
            sup.stop()
        shutil.rmtree(state_root, ignore_errors=True)

    # Oracle: every answer equals a fresh analyze() of the text it was
    # answered at (outside the timed region).
    warm_up()
    fresh_s = []
    ctx.machine.sample()
    for generation in sorted({a.generation for a in log}):
        run = reports = None
        gc.collect()
        text = gen.texts[generation]
        wall, _raw, run = ctx.machine.measure(
            lambda: analyze(text, filename=f"{PROGRAM}.c")
        )
        fresh_s.append(wall)
        reports = run.overrun_reports()
        for a in log:
            if a.generation == generation:
                out.attempted += 1
                problem = _answer_problem(a.request, generation, a.response, run, reports)
                if problem is not None:
                    out.fail(problem)

    def round_trips(role):
        return [a.round_trip_ms for a in log if a.role == role]

    query_ms = round_trips("query")
    solves = [a.response.get("solve") for a in log if a.request["op"] == "query"]
    edits = [a.response for a in log if a.role == "edit" and a.response.get("ok")]
    retained = sum(r["residents"]["interval/sparse"]["retained"] for r in edits)
    nodes = sum(r["residents"]["interval/sparse"]["nodes"] for r in edits)
    plain = [a for a in log if a.role == "query" and a.response.get("ok")]

    out.put("setup_s", setup_s)
    out.put("analyze_s", median(fresh_s))
    out.put("peak_rss_mb", peak_rss)
    out.put("requests_per_s", len(log) / scaled_total)
    out.put("query_p50_ms", percentile(query_ms, 50))
    out.put("query_p90_ms", tail_percentile(query_ms, 90))
    out.put("requery_ms", median(round_trips("requery")))
    out.put("edit_ms", median(round_trips("edit")))
    out.put(
        "session.query_ms", median([a.response["elapsed_ms"] * a.scale for a in plain])
    )
    out.put(
        "supervisor.overhead_ms",
        median([a.round_trip_ms - a.response["elapsed_ms"] * a.scale for a in plain]),
    )
    out.put("session.resident_ratio", solves.count("resident") / len(solves))
    for key in ("global", "cone", "fallback", "snapshots"):
        out.put(f"session.{key}", stats["queries"][key])
    out.put("incremental.retained_ratio", retained / nodes if nodes else 0.0)
    for key in ("restarts", "retry_answers", "shed"):
        out.put(f"supervisor.{key}", stats["supervisor"][key])
    return out
