"""Deterministic fault injection for the analysis engines.

The degradation paths of :mod:`repro.runtime.degrade` only matter when
something goes wrong — and nothing goes wrong on the small, healthy programs
a test suite can afford to analyze. This module makes failures *schedulable*:
a :class:`FaultPlan` names the exact point at which a fault fires (the Nth
transfer application, iteration K of the worklist, the Mth dependency push)
and a :class:`FaultInjector` counts events and fires it. Solvers call the
hooks behind a ``None`` guard, so the production fast path is a single
attribute test.

All plans are deterministic: either positions are given explicitly, or
:meth:`FaultPlan.seeded` derives them from a PRNG seed, so a failing test
reproduces with its seed and no assertion ever depends on wall-clock time.
"""

from __future__ import annotations

import os
import random
import signal
from dataclasses import dataclass

from repro.runtime.errors import AnalysisError, BudgetExceeded


class FaultInjected(AnalysisError):
    """Raised by the injector at a scheduled transfer-crash point."""


@dataclass(frozen=True)
class FaultPlan:
    """A schedule of deliberate failures (``None`` = never fire).

    * ``crash_transfer_at`` — raise :class:`FaultInjected` in the Nth
      (1-based) transfer-function application;
    * ``trip_budget_at`` — raise :class:`BudgetExceeded` (kind ``"fault"``)
      at worklist iteration K, independent of any real budget;
    * ``drop_dep_push_at`` — silently drop the Mth dependency-edge push of a
      sparse engine (models a corrupted dependency graph);
    * ``drop_dep_edge`` — drop every push along one specific ``(src, dst)``
      dependency edge;
    * ``kill_worker_at`` — SIGKILL the *current process* at worklist
      iteration K (models a crashed/preempted batch worker; only the
      periodic checkpoints survive, exactly as with a real kill);
    * ``corrupt_checkpoint`` — not fired in-process: the batch driver reads
      this flag and flips bytes in the job's checkpoint file before the
      first retry, exercising the fail-closed restore path.

    Serve-worker faults (read by :mod:`repro.server.supervisor`'s session
    worker; the supervisor applies them to the worker's *first* incarnation
    only, so a respawned worker does not re-fire the same fault forever):

    * ``kill_request_at`` — SIGKILL the serve worker while it is handling
      the Nth (1-based) protocol request, after the request was read but
      before any response is written (kill-mid-query from the client's
      point of view);
    * ``hang_request_at`` — hang the worker (sleep ``hang_seconds``)
      inside the Nth request, exercising the supervisor's hard deadline
      watchdog rather than any cooperative budget;
    * ``kill_edit_at`` — SIGKILL the worker *between* applying the Nth
      edit to the in-memory session and durably recording the new source
      text: the crash-mid-edit atomicity window. After restart the edit
      must be invisible (the client saw no ack and retries);
    * ``corrupt_snapshot`` — supervisor-side: flip bytes in the worker's
      resident-state snapshot before the first respawn, so the restore
      must fail closed and the worker falls back to lazy re-solving.
    """

    crash_transfer_at: int | None = None
    trip_budget_at: int | None = None
    drop_dep_push_at: int | None = None
    drop_dep_edge: tuple[int, int] | None = None
    kill_worker_at: int | None = None
    corrupt_checkpoint: bool = False
    kill_request_at: int | None = None
    hang_request_at: int | None = None
    hang_seconds: float = 600.0
    kill_edit_at: int | None = None
    corrupt_snapshot: bool = False
    seed: int | None = None

    @classmethod
    def seeded(
        cls,
        seed: int,
        crash_transfer: bool = False,
        trip_budget: bool = False,
        drop_dep_push: bool = False,
        horizon: int = 50,
    ) -> "FaultPlan":
        """Derive fault positions in ``[1, horizon]`` from ``seed`` — the same
        seed always yields the same plan."""
        rng = random.Random(seed)
        return cls(
            crash_transfer_at=rng.randint(1, horizon) if crash_transfer else None,
            trip_budget_at=rng.randint(1, horizon) if trip_budget else None,
            drop_dep_push_at=rng.randint(1, horizon) if drop_dep_push else None,
            seed=seed,
        )

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)


class FaultInjector:
    """Counts solver events and fires the plan's faults at their positions."""

    __slots__ = ("plan", "transfers", "dep_pushes", "fired")

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.transfers = 0
        self.dep_pushes = 0
        #: names of faults that actually fired (for test assertions)
        self.fired: list[str] = []

    @staticmethod
    def coerce(faults: "FaultPlan | FaultInjector | None") -> "FaultInjector | None":
        """Accept a plan, a live injector (shared across engine stages), or
        ``None``."""
        if faults is None:
            return None
        if isinstance(faults, FaultPlan):
            return faults.injector()
        return faults

    def before_transfer(self, nid: int) -> None:
        self.transfers += 1
        if self.plan.crash_transfer_at == self.transfers:
            self.fired.append("crash_transfer")
            raise FaultInjected(
                f"injected transfer crash #{self.transfers} at node {nid}",
                node=nid,
            )

    def on_iteration(self, iteration: int) -> None:
        if self.plan.kill_worker_at == iteration:
            self.fired.append("kill_worker")
            os.kill(os.getpid(), signal.SIGKILL)
        if self.plan.trip_budget_at == iteration:
            self.fired.append("trip_budget")
            raise BudgetExceeded(
                f"injected budget trip at iteration {iteration}",
                kind="fault",
                spent=iteration,
                limit=iteration,
            )

    def before_request(self, n: int) -> None:
        """Serve-worker hook: fire kill/hang faults scheduled for the Nth
        protocol request (1-based)."""
        if self.plan.hang_request_at == n:
            self.fired.append("hang_request")
            import time

            time.sleep(self.plan.hang_seconds)
        if self.plan.kill_request_at == n:
            self.fired.append("kill_request")
            os.kill(os.getpid(), signal.SIGKILL)

    def after_edit_applied(self, n: int) -> None:
        """Serve-worker hook: fire between the Nth edit's in-memory
        application and its durable source record (the atomicity window)."""
        if self.plan.kill_edit_at == n:
            self.fired.append("kill_edit")
            os.kill(os.getpid(), signal.SIGKILL)

    def keep_dep_push(self, src: int, dst: int) -> bool:
        """False when the push along ``src → dst`` should be dropped."""
        if self.plan.drop_dep_edge == (src, dst):
            self.fired.append("drop_dep_edge")
            return False
        self.dep_pushes += 1
        if self.plan.drop_dep_push_at == self.dep_pushes:
            self.fired.append("drop_dep_push")
            return False
        return True


def corrupt_file_tail(path: str, nbytes: int = 16) -> None:
    """Flip the last ``nbytes`` of ``path`` (the payload region, past any
    header), so a digest-protected read of it must fail closed. Used by
    the batch driver (``corrupt_checkpoint``) and the serve supervisor
    (``corrupt_snapshot``)."""
    with open(path, "r+b") as f:
        f.seek(0, os.SEEK_END)
        size = f.tell()
        f.seek(max(0, size - nbytes))
        tail = f.read()
        f.seek(max(0, size - nbytes))
        f.write(bytes(b ^ 0xFF for b in tail))
