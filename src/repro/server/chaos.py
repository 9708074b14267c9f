"""Seeded chaos harness for the supervised serve runtime.

Drives a :class:`~repro.server.supervisor.Supervisor` through a seeded
request schedule while injecting one fault scenario, with an uncrashed
reference :class:`~repro.server.session.ServeSession` processing exactly
the acked requests alongside. The property under test is the recovery
invariant:

1. the server never dies — every request eventually gets a one-line JSON
   answer (possibly through bounded ``retry`` rounds);
2. every successful answer is **byte-identical in its semantic fields**
   to the never-crashed reference session's answer (timings and visit
   counts are excluded: recovery legitimately re-solves).

Scenarios: ``kill`` (SIGKILL mid-query), ``hang`` (worker sleeps past the
hard request deadline), ``kill-edit`` (SIGKILL inside the crash-mid-edit
atomicity window), ``corrupt-snapshot`` (crash + snapshot bytes flipped
before the respawn, forcing the fail-closed restore). Every schedule is
derived from a seed, so a failure replays exactly.

CI entry point (the ``serve-chaos`` job)::

    PYTHONPATH=src python -m repro.server.chaos --report serve-chaos.json

runs the scenario matrix against ``examples/corpus`` programs plus a
generated exact-mode workload, adds an overload-burst run against the
real CLI, and exits nonzero when any invariant is violated.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.runtime.faults import FaultPlan
from repro.server.protocol import dispatch_request
from repro.server.session import ServeSession
from repro.server.supervisor import BackoffPolicy, Supervisor, SupervisorConfig

SCENARIOS = ("kill", "hang", "kill-edit", "corrupt-snapshot")

#: response fields that may legitimately differ between a recovered and a
#: never-crashed session: timings, engine work, answer provenance, and the
#: edit response's per-resident retention report (a crash legitimately
#: empties the resident cache; the *answers* must still match)
NONSEMANTIC_FIELDS = ("elapsed_ms", "visited", "solve", "residents")

#: bounded retry budget per request — generous relative to max_restarts
MAX_RETRIES = 20


def semantic(resp: dict) -> dict:
    """A response reduced to its semantic fields (order-stable)."""
    return {k: v for k, v in resp.items() if k not in NONSEMANTIC_FIELDS}


def fault_for(scenario: str, rng: random.Random, n_ops: int) -> FaultPlan:
    """The fault plan for one scenario, positioned by ``rng`` inside the
    schedule (never the very first request, so some state exists)."""
    at = rng.randint(2, max(2, n_ops - 1))
    if scenario == "kill":
        return FaultPlan(kill_request_at=at)
    if scenario == "hang":
        return FaultPlan(hang_request_at=at, hang_seconds=30.0)
    if scenario == "kill-edit":
        return FaultPlan(kill_edit_at=1)
    if scenario == "corrupt-snapshot":
        return FaultPlan(kill_request_at=at, corrupt_snapshot=True)
    raise ValueError(f"unknown scenario {scenario!r}")


def config_for(faults: FaultPlan, seed: int) -> SupervisorConfig:
    return SupervisorConfig(
        request_deadline=2.0,
        snapshot_every=1,
        backoff=BackoffPolicy(base=0.02, factor=2.0, jitter=0.25, max_delay=0.25),
        seed=seed,
        faults=faults,
    )


def build_schedule(
    rng: random.Random,
    n_ops: int,
    queries: list[tuple[str, str]],
    combos: list[tuple[str, str]],
    edits: list[dict] | None,
    scenario: str,
) -> list[dict]:
    """A seeded request schedule: interval queries across combos, pings,
    stats, and (when edit material is available) edits. ``kill-edit``
    schedules an edit early so the fault window is reachable."""
    ops: list[dict] = []
    edits = list(edits or [])
    want_edit_at = 2 if scenario == "kill-edit" and edits else None
    for i in range(n_ops):
        if want_edit_at == i and edits:
            ops.append({"op": "edit", **edits.pop(0)})
            continue
        roll = rng.random()
        if i == 0:
            roll = 1.0  # the first op is always a query: create state
                        # (and a snapshot) before any fault can land
        if roll < 0.08:
            ops.append({"op": "ping"})
        elif roll < 0.16:
            ops.append({"op": "stats"})
        elif roll < 0.28 and edits:
            ops.append({"op": "edit", **edits.pop(0)})
        else:
            proc, var = queries[rng.randrange(len(queries))]
            domain, mode = combos[rng.randrange(len(combos))]
            ops.append(
                {
                    "op": "query",
                    "kind": "interval",
                    "proc": proc,
                    "var": var,
                    "domain": domain,
                    "mode": mode,
                }
            )
    return ops


def send_until_answered(
    sup: Supervisor, request: dict, violations: list[str]
) -> tuple[dict, int]:
    """Send a request, resending on ``retry`` answers, until a terminal
    answer arrives. Returns ``(response, retries)``."""
    retries = 0
    while True:
        resp = sup.ask(request)
        if not isinstance(resp, dict):
            violations.append(f"non-object response for {request}: {resp!r}")
            return {}, retries
        if resp.get("error") == "retry":
            retries += 1
            if retries > MAX_RETRIES:
                violations.append(f"request never recovered: {request}")
                return resp, retries
            time.sleep(min(float(resp.get("retry_after", 0.05)), 0.5))
            continue
        return resp, retries


def run_chaos(
    source: str,
    filename: str,
    *,
    scenario: str,
    seed: int,
    n_ops: int = 14,
    queries: list[tuple[str, str]],
    combos: list[tuple[str, str]] | None = None,
    edits: list[dict] | None = None,
    session_kwargs: dict | None = None,
) -> dict:
    """One seeded chaos run; returns a report dict whose ``violations``
    list is empty iff the recovery invariant held."""
    session_kwargs = dict(session_kwargs or {})
    combos = combos or [
        (
            session_kwargs.get("domain", "interval"),
            session_kwargs.get("mode", "sparse"),
        )
    ]
    rng = random.Random(seed)
    faults = fault_for(scenario, rng, n_ops)
    schedule = build_schedule(rng, n_ops, queries, combos, edits, scenario)

    violations: list[str] = []
    sup = Supervisor(
        source,
        filename,
        config=config_for(faults, seed),
        **session_kwargs,
    )
    reference = ServeSession(source, filename, **session_kwargs)
    total_retries = 0
    answered = 0
    try:
        sup.start()
        for i, request in enumerate(schedule):
            request = {**request, "id": i}
            resp, retries = send_until_answered(sup, request, violations)
            total_retries += retries
            if not resp.get("ok"):
                if resp.get("error") != "retry":
                    violations.append(
                        f"op {i} ({request['op']}) failed terminally: {resp}"
                    )
                continue
            answered += 1
            if resp.get("id") != i:
                violations.append(f"op {i}: id mismatch in {resp}")
            if request["op"] in ("ping", "stats"):
                # the reference tracks generations through its own edits;
                # compare generation only (stats counters legitimately
                # differ: the supervised side re-solves after crashes)
                if resp.get("generation") != reference.generation:
                    violations.append(
                        f"op {i}: generation {resp.get('generation')} != "
                        f"reference {reference.generation}"
                    )
                continue
            ref_resp = dispatch_request(reference, dict(request))
            ref_resp["id"] = i
            got, want = semantic(resp), semantic(ref_resp)
            if got != want:
                violations.append(
                    f"op {i} ({request['op']}) diverged from the uncrashed "
                    f"reference:\n  got  {json.dumps(got, sort_keys=True)}"
                    f"\n  want {json.dumps(want, sort_keys=True)}"
                )
        stats, _ = send_until_answered(sup, {"op": "stats", "id": "final"}, violations)
    finally:
        counters = dict(sup.counters)
        incarnation = sup.incarnation
        sup.stop()

    # scenario-specific expectations: the fault must actually have bitten
    if scenario in ("kill", "kill-edit", "corrupt-snapshot"):
        if counters["restarts"] < 1:
            violations.append(f"{scenario}: expected at least one restart")
    if scenario == "hang" and counters["deadline_kills"] < 1:
        violations.append("hang: expected a deadline kill")
    if scenario == "corrupt-snapshot" and counters["restore_failures"] < 1:
        violations.append(
            "corrupt-snapshot: expected the restore to fail closed"
        )

    return {
        "scenario": scenario,
        "seed": seed,
        "file": filename,
        "ops": len(schedule),
        "answered": answered,
        "retries": total_retries,
        "incarnations": incarnation,
        "supervisor": counters,
        "session_stats": stats.get("queries") if isinstance(stats, dict) else None,
        "violations": violations,
        "ok": not violations,
    }


# --------------------------------------------------------------------------
# CI matrix (python -m repro.server.chaos)
# --------------------------------------------------------------------------


def generated_workload(seed: int = 7, n_versions: int = 3):
    """A loop-free generated program (exact mode converges without
    widening), interval queries over it, and whole-source edit payloads
    (later versions of the same program shape). Shared with the test
    suite's chaos property tests."""
    from repro.bench.codegen import WorkloadSpec, generate_source

    def spec(s: int) -> WorkloadSpec:
        return WorkloadSpec(
            name="chaos",
            n_functions=5,
            n_globals=4,
            n_arrays=1,
            array_len=8,
            stmts_per_function=6,
            loops_per_function=0,
            calls_per_function=2,
            pointer_ops_per_function=1,
            recursion_cycle=0,
            funcptr_sites=0,
            unique_callees=True,
            seed=s,
        )

    versions = [generate_source(spec(seed + 1000 * k)) for k in range(n_versions)]
    queries = [
        (proc, var)
        for proc in ("main", "f0", "f2", "f4")
        for var in ("g0", "g1", "g2", "v0", "acc")
    ]
    edits = [{"source": src} for src in versions[1:]]
    return versions[0], queries, edits


def _overload_burst(
    path: str, *, burst: int = 60, max_pending: int = 4
) -> dict:
    """Overload scenario against the real CLI: the first request is a
    slow cold whole-unit check; a pipelined burst behind it must be shed
    with ``overloaded`` (never dropped, never a crash), and EOF must end
    the supervised server with exit code 0."""
    import os
    import subprocess

    repo = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))))
    lines = ['{"id": "slow", "op": "query", "kind": "check"}']
    lines += [
        json.dumps({"id": i, "op": "ping"}) for i in range(burst)
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            path,
            "--cpp",
            "--supervised",
            "--max-pending",
            str(max_pending),
        ],
        input="\n".join(lines) + "\n",
        capture_output=True,
        text=True,
        env=env,
        cwd=repo,
        timeout=300,
    )
    violations: list[str] = []
    if proc.returncode != 0:
        violations.append(
            f"overload: exit code {proc.returncode}, stderr: {proc.stderr[-500:]}"
        )
    responses = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            responses.append(json.loads(line))
        except ValueError:
            violations.append(f"overload: non-JSON response line {line[:120]!r}")
    if len(responses) != len(lines):
        violations.append(
            f"overload: {len(lines)} requests but {len(responses)} responses"
        )
    shed = sum(1 for r in responses if r.get("error") == "overloaded")
    served = sum(1 for r in responses if r.get("ok"))
    if shed < 1:
        violations.append("overload: expected at least one shed response")
    if served < 1:
        violations.append("overload: expected at least one served response")
    return {
        "scenario": "overload",
        "file": path,
        "ops": len(lines),
        "served": served,
        "shed": shed,
        "violations": violations,
        "ok": not violations,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server.chaos",
        description="supervised-serve chaos matrix (CI)",
    )
    parser.add_argument("--report", default=None, help="write a JSON report")
    parser.add_argument("--seeds", type=int, default=1, help="seeds per cell")
    parser.add_argument(
        "--corpus",
        default="examples/corpus/wc_count.c",
        help="corpus program for the widening-mode cells",
    )
    parser.add_argument(
        "--scenarios", nargs="*", default=list(SCENARIOS), choices=SCENARIOS
    )
    args = parser.parse_args(argv)

    reports: list[dict] = []

    with open(args.corpus, encoding="utf-8") as f:
        corpus_source = f.read()
    corpus_queries = [
        ("main", "lines"),
        ("main", "words"),
        ("count_buffer", "i"),
        ("report_totals", "total"),
    ]
    gen_source, gen_queries, gen_edits = generated_workload()

    for scenario in args.scenarios:
        for seed in range(args.seeds):
            # widening-mode corpus cell (recovery re-solves globally, so
            # answers stay deterministic even with widening)
            if scenario != "kill-edit":
                reports.append(
                    run_chaos(
                        corpus_source,
                        args.corpus,
                        scenario=scenario,
                        seed=seed,
                        queries=corpus_queries,
                        session_kwargs={"preprocess_source": True},
                    )
                )
            # exact-mode generated cell with edits (byte-identity across
            # edits + all six combos is covered by the test suite; CI uses
            # the default combo plus edits for speed)
            reports.append(
                run_chaos(
                    gen_source,
                    "<generated>",
                    scenario=scenario,
                    seed=100 + seed,
                    queries=gen_queries,
                    edits=[dict(e) for e in gen_edits],
                    session_kwargs={"strict": False, "widen": False},
                )
            )
            print(
                f"[chaos] {scenario} seed={seed}: "
                + ("ok" if reports[-1]["ok"] else "VIOLATIONS"),
                flush=True,
            )

    reports.append(_overload_burst(args.corpus))
    print(
        f"[chaos] overload: " + ("ok" if reports[-1]["ok"] else "VIOLATIONS"),
        flush=True,
    )

    failed = [r for r in reports if not r["ok"]]
    summary = {
        "runs": len(reports),
        "failed": len(failed),
        "reports": reports,
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
    for r in failed:
        for v in r["violations"]:
            print(f"[chaos] {r['scenario']}: {v}", file=sys.stderr)
    print(f"[chaos] {len(reports)} runs, {len(failed)} failed", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
