"""Unified resource budgets for every fixpoint engine.

A :class:`Budget` bundles the three limits the paper's evaluation effectively
imposes by hand (the 24-hour timeout behind the ∞ entries of Tables 2/3, an
iteration cap, and a memory ceiling) into one immutable spec that is threaded
through the dense, sparse, and relational solvers, the narrowing passes, and
the pre-analysis.

A :class:`BudgetMeter` is the mutable run-side tracker: solvers call
:meth:`BudgetMeter.tick` once per worklist iteration. The iteration check is
exact (it preserves the historical ``max_iterations`` semantics bit for bit);
the wall-clock and state-size checks are amortized — probed only every
``Budget.check_every`` ticks — so an unlimited or generous budget costs one
integer increment and two ``None`` tests per iteration. The same probes
report progress to a supervised worker's heartbeat
(:func:`repro.runtime.worker.beat`).

One meter may be shared across phases (main loop then narrowing, or the
stages of an engine ladder) so that *all* work counts against the same pool;
:meth:`Budget.split` derives per-stage budgets for the whole-run fallback
ladder in :func:`repro.api.analyze`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.runtime.errors import BudgetExceeded
from repro.runtime.worker import beat


@dataclass(frozen=True)
class Budget:
    """Resource limits for one analysis run (``None`` = unlimited).

    ``max_seconds`` is a wall-clock deadline measured from the first tick;
    ``max_iterations`` caps worklist iterations (including narrowing);
    ``max_state_entries`` caps the total number of location↦value entries
    across the whole state table.
    """

    max_seconds: float | None = None
    max_iterations: int | None = None
    max_state_entries: int | None = None
    #: amortization stride for the wall-clock / state-size probes
    check_every: int = 64

    def is_unlimited(self) -> bool:
        return (
            self.max_seconds is None
            and self.max_iterations is None
            and self.max_state_entries is None
        )

    def meter(
        self, stage: str = "analysis", clock: Callable[[], float] = time.perf_counter
    ) -> "BudgetMeter":
        return BudgetMeter(self, stage=stage, clock=clock)

    def split(self, stages: int) -> "Budget":
        """A per-stage budget for an ``stages``-deep fallback ladder: divisible
        limits are split evenly, the amortization stride is kept."""
        if stages <= 1:
            return self
        return replace(
            self,
            max_seconds=(
                None if self.max_seconds is None else self.max_seconds / stages
            ),
            max_iterations=(
                None
                if self.max_iterations is None
                else max(1, self.max_iterations // stages)
            ),
        )

    @classmethod
    def coerce(
        cls,
        budget: "Budget | None" = None,
        max_iterations: int | None = None,
        max_seconds: float | None = None,
    ) -> "Budget | None":
        """Unify the modern ``budget=`` spec with the legacy ad-hoc knobs.

        An explicit :class:`Budget` wins; otherwise the legacy arguments are
        wrapped (or ``None`` is returned when no limit was asked for)."""
        if budget is not None:
            return budget
        if max_iterations is None and max_seconds is None:
            return None
        return cls(max_seconds=max_seconds, max_iterations=max_iterations)


#: the meter every solver gets when no budget was configured
UNLIMITED = Budget()


class BudgetMeter:
    """Mutable consumption tracker for one :class:`Budget`.

    The deadline starts at the first :meth:`tick` (or an explicit
    :meth:`start`), so building solvers ahead of time costs nothing.
    """

    __slots__ = ("budget", "stage", "iterations", "_clock", "_deadline", "_started")

    def __init__(
        self,
        budget: Budget | None,
        stage: str = "analysis",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.budget = budget if budget is not None else UNLIMITED
        self.stage = stage
        self.iterations = 0
        self._clock = clock
        self._deadline: float | None = None
        self._started: float | None = None

    def start(self) -> None:
        if self._started is None:
            self._started = self._clock()
            if self.budget.max_seconds is not None:
                self._deadline = self._started + self.budget.max_seconds

    def elapsed(self) -> float:
        if self._started is None:
            return 0.0
        return self._clock() - self._started

    def remaining_seconds(self) -> float | None:
        if self._deadline is None:
            return None
        return self._deadline - self._clock()

    def tick(self, table_entries: Callable[[], int] | None = None) -> None:
        """Charge one worklist iteration; raise :class:`BudgetExceeded` the
        moment any limit is passed. ``table_entries`` is only called on the
        amortized probes and only when a state-size cap is configured."""
        if self._started is None:
            self.start()
        self.iterations += 1
        budget = self.budget
        if (
            budget.max_iterations is not None
            and self.iterations > budget.max_iterations
        ):
            raise BudgetExceeded(
                f"{self.stage} exceeded {budget.max_iterations} iterations",
                kind="iterations",
                spent=self.iterations,
                limit=budget.max_iterations,
                stage=self.stage,
            )
        if self.iterations % budget.check_every:
            return
        beat()
        if self._deadline is not None:
            now = self._clock()
            if now > self._deadline:
                raise BudgetExceeded(
                    f"{self.stage} exceeded the {budget.max_seconds:.3f}s deadline",
                    kind="wall_clock",
                    spent=now - (self._started or now),
                    limit=budget.max_seconds,
                    stage=self.stage,
                )
        if budget.max_state_entries is not None and table_entries is not None:
            size = table_entries()
            if size > budget.max_state_entries:
                raise BudgetExceeded(
                    f"{self.stage} state table grew past "
                    f"{budget.max_state_entries} entries",
                    kind="state_size",
                    spent=size,
                    limit=budget.max_state_entries,
                    stage=self.stage,
                )
