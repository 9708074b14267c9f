"""Supervised worker processes, shared by ``repro batch`` and supervised serve.

Both supervisors run work in a child process and must decide, on every
poll, whether that child is still healthy. This module is the one place
that knows how a supervised child is

* **started** — one start method (``fork`` where available, else
  ``spawn``), always a daemon so it never outlives its supervisor;
* **heartbeated** — :func:`touch` writes a heartbeat file (only its mtime
  matters) and :func:`heartbeat_age` reads it back; inside the child,
  :func:`install_heartbeat` names the file and :func:`beat`, called
  wherever the analysis makes progress, refreshes it at most every
  :data:`BEAT_INTERVAL` seconds;
* **judged** — :meth:`Worker.verdict` says the child is gone (``crash``,
  with its exit code), past its armed deadline (``deadline``), or has
  let its heartbeat go stale (``heartbeat``), or ``None`` while healthy;
* **stopped** — :meth:`Worker.stop` signals, waits a grace period,
  SIGKILLs, and always reaps;
* **fed its faults** — a :class:`FaultPlan` fires on the first attempt
  only (:func:`faults_for_attempt`), and file corruption lands just
  before the first retry (:func:`corrupt_before_first_retry`).

What the supervisors do with a verdict — read a result file and requeue
(the batch pool), or answer ``retry`` and respawn (serve) — stays theirs.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

from repro.runtime.faults import FaultPlan, corrupt_file_tail

#: seconds between the stop signal and SIGKILL
TERM_GRACE = 3.0
#: least seconds between two heartbeat writes from :func:`beat`
BEAT_INTERVAL = 0.1

_METHODS = multiprocessing.get_all_start_methods()
_CONTEXT = multiprocessing.get_context("fork" if "fork" in _METHODS else "spawn")

CRASH = "crash"
DEADLINE = "deadline"
HEARTBEAT = "heartbeat"


def positive_or_none(name: str, seconds: float | None) -> float | None:
    """Validate a watchdog duration: ``None`` switches it off, anything
    else must be a positive number of seconds."""
    if seconds is not None and not seconds > 0:
        raise ValueError(f"{name} must be > 0 seconds, got {seconds}")
    return seconds


def touch(path: str) -> None:
    """Write a heartbeat file. Plain write: only the mtime matters, so a
    torn heartbeat is harmless."""
    with open(path, "w") as f:
        f.write(str(time.time()))


class _Heartbeat:
    """The process's heartbeat file and when it may next be written."""

    __slots__ = ("path", "due")

    def __init__(self, path: str) -> None:
        self.path = path
        self.due = 0.0

    def beat(self) -> None:
        now = time.monotonic()
        if now >= self.due:
            touch(self.path)
            self.due = now + BEAT_INTERVAL


#: process-wide on purpose: a supervised child runs one job, and the
#: phases that report progress (front end, D̂/Û, dep-gen, budget meters)
#: should not all grow a parameter for the supervisor's sake
_heartbeat: _Heartbeat | None = None


def install_heartbeat(path: str | None) -> None:
    """Make :func:`beat` refresh ``path`` for the rest of this process, and
    write it once now; ``None`` switches the heartbeat off again."""
    global _heartbeat
    _heartbeat = None if path is None else _Heartbeat(path)
    if _heartbeat is not None:
        _heartbeat.beat()


def beat() -> None:
    """Report progress. Phases call this per unit of work (a budget probe,
    a procedure, a phase boundary); without an installed heartbeat it is
    one ``None`` check, so only supervised children pay for liveness."""
    if _heartbeat is not None:
        _heartbeat.beat()


def heartbeat_age(path: str) -> float | None:
    """Seconds since ``path`` was last touched; ``None`` if it is missing."""
    try:
        return time.time() - os.path.getmtime(path)
    except OSError:
        return None


def faults_for_attempt(plan: FaultPlan | None, attempt: int) -> FaultPlan | None:
    """The plan attempt ``attempt`` (1-based) runs with. Faults fire on the
    first attempt only: a kill that also fired on every retry would never
    let the job recover."""
    return plan if attempt == 1 else None


def corrupt_before_first_retry(corrupt: bool, attempt: int, path: str) -> None:
    """Flip bytes of ``path`` just before attempt 2 starts, when the plan
    asks for it and the file exists, so the retry's restore must fail
    closed."""
    if corrupt and attempt == 2 and os.path.exists(path):
        corrupt_file_tail(path)


@dataclass(frozen=True)
class Verdict:
    """Why a supervised child must be replaced."""

    kind: str  # CRASH | DEADLINE | HEARTBEAT
    #: the child's exit code (negative: killed by that signal); CRASH only
    exitcode: int | None = None


class Worker:
    """One supervised child process and the watch on it.

    ``heartbeat`` names a file the child refreshes while it makes
    progress (by :func:`install_heartbeat` and :func:`beat`); it is
    touched at launch so a previous attempt's stale file
    cannot get the fresh child killed. ``heartbeat_timeout`` is how stale
    it may get. The deadline is armed separately (:meth:`arm`): the batch
    pool arms one per job, serve one per request.
    """

    def __init__(
        self,
        target,
        args: tuple,
        *,
        heartbeat: str | None = None,
        heartbeat_timeout: float | None = None,
    ) -> None:
        self.heartbeat = heartbeat
        self.heartbeat_timeout = positive_or_none(
            "heartbeat_timeout", heartbeat_timeout
        )
        self.deadline: float | None = None
        if heartbeat is not None:
            touch(heartbeat)
        self.proc = _CONTEXT.Process(target=target, args=args, daemon=True)
        self.proc.start()
        self.started = time.monotonic()

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def is_alive(self) -> bool:
        return self.proc.is_alive()

    def arm(self, timeout: float | None) -> None:
        """Start a deadline ``timeout`` seconds from now (``None``: none)."""
        timeout = positive_or_none("timeout", timeout)
        self.deadline = None if timeout is None else time.monotonic() + timeout

    def verdict(self) -> Verdict | None:
        """``None`` while the child is healthy, else why it is not."""
        if not self.proc.is_alive():
            self.proc.join()
            return Verdict(CRASH, self.proc.exitcode)
        if self.deadline is not None and time.monotonic() > self.deadline:
            return Verdict(DEADLINE)
        if self.heartbeat_timeout is not None:
            age = heartbeat_age(self.heartbeat)
            if age is not None and age > self.heartbeat_timeout:
                return Verdict(HEARTBEAT)
        return None

    def stop(self, signum: int = signal.SIGTERM, grace: float = TERM_GRACE) -> None:
        """Send ``signum``, give the child ``grace`` seconds, then SIGKILL.
        Always reaps the child before returning."""
        if self.proc.is_alive():
            try:
                os.kill(self.proc.pid, signum)
            except OSError:
                pass
            self.proc.join(grace)
            if self.proc.is_alive():
                self.proc.kill()
        self.proc.join()
