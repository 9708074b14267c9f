"""The supervised-worker primitive, on real child processes.

Both supervisors (the batch pool and supervised serve) judge and stop
their children only through :class:`repro.runtime.worker.Worker`, so each
verdict and the stop escalation are pinned here directly.
"""

from __future__ import annotations

import dataclasses
import os
import random
import signal
import time
from types import SimpleNamespace

import pytest

from repro.runtime import worker as workers
from repro.runtime.backoff import BackoffPolicy
from repro.runtime.faults import FaultPlan


def _exit_with(code: int) -> None:
    os._exit(code)


def _sleep(seconds: float) -> None:
    time.sleep(seconds)


def _ignore_sigterm(ready_path: str) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    workers.touch(ready_path)
    time.sleep(60)


def _wait_for(predicate, timeout: float = 10.0) -> None:
    end = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < end, "timed out waiting for the child"
        time.sleep(0.01)


def test_exit_code_gives_crash_verdict():
    w = workers.Worker(_exit_with, (3,))
    _wait_for(lambda: not w.is_alive())
    assert w.verdict() == workers.Verdict(workers.CRASH, exitcode=3)


def test_healthy_child_has_no_verdict():
    w = workers.Worker(_sleep, (60,))
    try:
        w.arm(30.0)
        assert w.verdict() is None
    finally:
        w.stop(signal.SIGKILL)


def test_child_past_its_deadline_gives_deadline_verdict():
    w = workers.Worker(_sleep, (60,))
    try:
        w.arm(0.2)
        time.sleep(0.3)
        assert w.verdict() == workers.Verdict(workers.DEADLINE)
    finally:
        w.stop(signal.SIGKILL)


def test_stale_heartbeat_gives_heartbeat_verdict(tmp_path):
    hb = str(tmp_path / "child.hb")
    w = workers.Worker(_sleep, (60,), heartbeat=hb, heartbeat_timeout=0.5)
    try:
        assert os.path.exists(hb)  # touched at launch
        assert w.verdict() is None
        stale = time.time() - 10
        os.utime(hb, (stale, stale))
        assert w.verdict() == workers.Verdict(workers.HEARTBEAT)
    finally:
        w.stop(signal.SIGKILL)


def test_beat_writes_the_installed_heartbeat_at_most_every_interval(
    tmp_path, monkeypatch
):
    clock = [100.0]
    touched: list[str] = []
    monkeypatch.setattr(workers, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(workers, "touch", touched.append)
    hb = str(tmp_path / "child.hb")
    workers.beat()  # no heartbeat installed: nothing to write
    assert touched == []
    try:
        workers.install_heartbeat(hb)
        assert touched == [hb]  # installing writes it once
        clock[0] += workers.BEAT_INTERVAL / 2
        workers.beat()
        assert touched == [hb]
        clock[0] += workers.BEAT_INTERVAL / 2
        workers.beat()
        assert touched == [hb, hb]
    finally:
        workers.install_heartbeat(None)
    clock[0] += 10 * workers.BEAT_INTERVAL
    workers.beat()
    assert touched == [hb, hb]


def test_sigterm_ignorer_is_killed_after_grace_and_reaped(tmp_path):
    ready = str(tmp_path / "ready")
    w = workers.Worker(_ignore_sigterm, (ready,))
    _wait_for(lambda: os.path.exists(ready))
    t0 = time.monotonic()
    w.stop(grace=0.3)
    assert time.monotonic() - t0 >= 0.3  # SIGTERM alone did not end it
    assert w.proc.exitcode == -signal.SIGKILL
    with pytest.raises(OSError):
        os.kill(w.pid, 0)  # reaped, not a zombie


@pytest.mark.parametrize("seconds", [0, -1.0])
def test_nonpositive_durations_rejected(seconds):
    with pytest.raises(ValueError, match="timeout must be > 0"):
        workers.positive_or_none("timeout", seconds)
    with pytest.raises(ValueError, match="heartbeat_timeout must be > 0"):
        workers.Worker(_exit_with, (0,), heartbeat_timeout=seconds)
    assert workers.positive_or_none("timeout", None) is None


def test_faults_fire_on_first_attempt_only():
    plan = FaultPlan(kill_worker_at=3)
    assert workers.faults_for_attempt(plan, 1) is plan
    assert workers.faults_for_attempt(plan, 2) is None


def test_corruption_lands_before_the_first_retry_only(tmp_path):
    path = tmp_path / "state.ckpt"
    original = bytes(range(32))
    path.write_bytes(original)
    for attempt in (1, 3):
        workers.corrupt_before_first_retry(True, attempt, str(path))
    workers.corrupt_before_first_retry(False, 2, str(path))
    assert path.read_bytes() == original
    workers.corrupt_before_first_retry(True, 2, str(path))
    assert path.read_bytes() != original
    workers.corrupt_before_first_retry(True, 2, str(tmp_path / "missing"))


@pytest.mark.parametrize("max_delay", [None, 0.5])
def test_jitter_free_backoff_equals_zero_jitter_delay(max_delay):
    policy = BackoffPolicy(base=0.05, factor=2.0, jitter=0.25, max_delay=max_delay)
    flat = dataclasses.replace(policy, jitter=0.0)
    rng = random.Random(0)
    for attempt in range(1, 8):
        assert policy.nominal(attempt) == flat.delay(attempt, rng)
