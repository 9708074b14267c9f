"""Seeded exponential backoff with jitter, shared by every supervisor.

Both the batch driver (:mod:`repro.runtime.pool`) and the serve
supervisor (:mod:`repro.server.supervisor`) retry crashed workers on an
exponential schedule with multiplicative jitter::

    delay(k) = base * factor**(k-1) * (1 + jitter * rng.random())

The jitter draw comes from a *caller-owned* seeded PRNG so retry
schedules are reproducible: the same seed always yields the same delays,
and a policy consumes exactly one ``rng.random()`` per delay — property
tests can replay a whole supervision schedule from its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """An exponential-backoff-with-jitter schedule.

    ``base`` is the delay before the first retry, ``factor`` the
    per-retry multiplier, ``jitter`` the fraction of multiplicative
    noise (0 = deterministic), and ``max_delay`` an optional cap applied
    *after* jitter so the schedule stays bounded under many retries.
    """

    base: float = 0.25
    factor: float = 2.0
    jitter: float = 0.5
    max_delay: float | None = None

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry ``attempt`` (1-based: the first retry is
        attempt 1). Consumes exactly one ``rng.random()`` draw."""
        delay = self.nominal(attempt) * (1.0 + self.jitter * rng.random())
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay

    def nominal(self, attempt: int) -> float:
        """The jitter-free delay before retry ``attempt``, capped at
        ``max_delay``. Draws nothing, so it can estimate a delay without
        shifting the seeded schedule."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = self.base * self.factor ** (attempt - 1)
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay

    def schedule(self, attempts: int, seed: int) -> list[float]:
        """The full delay sequence for ``attempts`` retries from one
        seed — a convenience for tests and reports."""
        rng = random.Random(seed)
        return [self.delay(k, rng) for k in range(1, attempts + 1)]
