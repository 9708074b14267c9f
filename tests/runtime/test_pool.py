"""Supervision tests for the multi-process batch driver.

Each test runs a real batch: forked workers, real checkpoints on disk,
real SIGKILLs scheduled through :class:`FaultPlan`. The driver must turn
every injected failure — worker kills, corrupted checkpoints, hangs,
permanent analysis errors — into the documented per-job outcome without
ever losing a job or trusting a poisoned snapshot.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.runtime.faults import FaultPlan
from repro.runtime.pool import BatchJob, run_batch
from repro.telemetry import Telemetry

REPO = Path(__file__).resolve().parents[2]
LOOPS = str(REPO / "examples" / "c" / "loops.c")
CALLCHAIN = str(REPO / "examples" / "c" / "callchain.c")
BUFFERS = str(REPO / "examples" / "c" / "buffers.c")

#: SIGKILL well past the first periodic checkpoint (checkpoint_every=5)
KILL_AT = 20


@pytest.fixture
def ckpt_dir(tmp_path):
    return str(tmp_path / "ckpt")


def _job(path, **kw):
    return BatchJob(path=path, **kw)


class TestHealthyBatch:
    def test_all_ok(self, ckpt_dir):
        report = run_batch(
            [_job(LOOPS), _job(CALLCHAIN)], ckpt_dir, checkpoint_every=5
        )
        assert [o.label for o in report.outcomes] == ["ok", "ok"]
        assert report.exit_code == 0
        assert report.counters.get("checkpoint.writes", 0) > 0
        assert "2/2 jobs completed" in report.text()

    def test_alarms_propagate_to_exit_code(self, ckpt_dir, tmp_path):
        alarming = tmp_path / "alarming.c"
        alarming.write_text(
            "int a[4];\n"
            "int main(void) { int i;\n"
            "  for (i = 0; i < 4; i++) a[i] = i;\n"
            "  return a[9]; }\n"
        )
        report = run_batch([_job(str(alarming))], ckpt_dir)
        (outcome,) = report.outcomes
        assert outcome.status == "ok" and outcome.alarms > 0
        assert report.exit_code == 1

    @pytest.mark.parametrize("workers", [0, -1])
    def test_nonpositive_workers_rejected(self, ckpt_dir, workers):
        # no worker could ever launch, so the poll loop would spin forever
        with pytest.raises(ValueError, match="max_workers must be >= 1"):
            run_batch([_job(LOOPS)], ckpt_dir, max_workers=workers)
        assert not os.path.exists(ckpt_dir)


class TestCrashRecovery:
    def test_killed_workers_resume_from_checkpoint(self, ckpt_dir):
        tel = Telemetry(enabled=True)
        jobs = [
            _job(LOOPS, faults=FaultPlan(kill_worker_at=KILL_AT)),
            _job(CALLCHAIN, faults=FaultPlan(kill_worker_at=KILL_AT)),
        ]
        report = run_batch(
            jobs, ckpt_dir, checkpoint_every=5, max_retries=2, telemetry=tel
        )
        assert report.exit_code == 0
        for outcome in report.outcomes:
            assert outcome.label == "resumed×1"
            assert outcome.attempts == 2
            assert any("crash" in c for c in outcome.causes)
        assert report.counters["worker.retries"] == 2
        assert report.counters["worker.restores"] == 2
        assert report.counters["checkpoint.writes"] > 0
        assert tel.counters["worker.retries"] == 2

    def test_corrupt_checkpoint_fails_closed_then_reruns(self, ckpt_dir):
        jobs = [
            _job(
                LOOPS,
                faults=FaultPlan(
                    kill_worker_at=KILL_AT, corrupt_checkpoint=True
                ),
            )
        ]
        report = run_batch(jobs, ckpt_dir, checkpoint_every=5, max_retries=2)
        (outcome,) = report.outcomes
        assert outcome.status == "ok"
        assert outcome.resumed == 0  # the poisoned snapshot was never used
        assert len(outcome.restore_errors) == 1
        assert "digest" in outcome.restore_errors[0]
        assert report.exit_code == 0

    def test_retry_budget_exhaustion_fails_the_job(self, ckpt_dir):
        job = _job(BUFFERS, faults=FaultPlan(kill_worker_at=1))
        report = run_batch(
            [job], ckpt_dir, checkpoint_every=10_000, max_retries=0
        )
        (outcome,) = report.outcomes
        assert outcome.status == "failed"
        assert "gave up" in outcome.error
        assert report.exit_code == 2


class TestHangsAndTimeouts:
    def test_job_timeout_triggers_retry(self, ckpt_dir):
        job = _job(LOOPS, options={"_hang_attempt": 1})
        report = run_batch(
            [job], ckpt_dir, job_timeout=0.8, max_retries=1, backoff_base=0.01
        )
        (outcome,) = report.outcomes
        assert outcome.status == "ok"
        assert outcome.causes == ["timeout"]
        assert outcome.attempts == 2

    def test_lost_heartbeat_triggers_retry(self, ckpt_dir):
        job = _job(CALLCHAIN, options={"_hang_attempt": 1})
        report = run_batch(
            [job],
            ckpt_dir,
            heartbeat_timeout=0.8,
            max_retries=1,
            backoff_base=0.01,
        )
        (outcome,) = report.outcomes
        assert outcome.status == "ok"
        assert outcome.causes == ["heartbeat"]


class TestPermanentFailures:
    def test_parse_error_is_never_retried(self, ckpt_dir, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int main( {\n")
        report = run_batch([_job(str(broken))], ckpt_dir, max_retries=3)
        (outcome,) = report.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # anticipated failure: no retries
        assert "Error" in outcome.error
        assert report.exit_code == 2

    def test_mixed_batch_reports_each_job(self, ckpt_dir, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int main( {\n")
        report = run_batch(
            [
                _job(LOOPS),
                _job(str(broken)),
                _job(CALLCHAIN, faults=FaultPlan(kill_worker_at=KILL_AT)),
            ],
            ckpt_dir,
            checkpoint_every=5,
        )
        labels = {os.path.basename(o.path): o.label for o in report.outcomes}
        assert labels["loops.c"] == "ok"
        assert labels["broken.c"] == "failed"
        assert labels["callchain.c"] == "resumed×1"
        assert report.exit_code == 2
        data = report.as_dict()
        assert data["exit_code"] == 2
        assert len(data["jobs"]) == 3


class TestFrontendDegradation:
    """Frontend-poisoned files recover as ``degraded``, not ``failed``."""

    def test_poisoned_file_is_degraded_not_failed(self, ckpt_dir, tmp_path):
        poisoned = tmp_path / "poisoned.c"
        poisoned.write_text(
            "int g;\n"
            "int broken(void) { int x = ((; return x; }\n"
            "int main(void) { g = 1; return g; }\n"
        )
        report = run_batch([_job(str(poisoned))], ckpt_dir)
        (outcome,) = report.outcomes
        assert outcome.status == "degraded"
        assert outcome.quarantined == ["broken"]
        assert outcome.diagnostics >= 1
        assert outcome.functions == 1
        assert report.exit_code == 1  # diagnostics share the alarm path
        assert "quarantined: broken" in report.text()

    def test_unrecoverable_file_is_permanent_failure(self, ckpt_dir, tmp_path):
        hopeless = tmp_path / "hopeless.c"
        hopeless.write_text("int $$$;\n@@@\n")
        report = run_batch([_job(str(hopeless))], ckpt_dir, max_retries=2)
        (outcome,) = report.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 1  # ReproError: never retried
        assert "no recoverable functions" in (outcome.error or "")
        assert report.exit_code == 2

    def test_strict_frontend_option_fails_poisoned_file(self, ckpt_dir, tmp_path):
        poisoned = tmp_path / "poisoned.c"
        poisoned.write_text(
            "int broken(void) { int x = ((; return x; }\n"
            "int main(void) { return 0; }\n"
        )
        report = run_batch(
            [_job(str(poisoned), options={"strict_frontend": True})],
            ckpt_dir,
        )
        (outcome,) = report.outcomes
        assert outcome.status == "failed"
        assert report.exit_code == 2

    def test_clean_files_unaffected_by_new_fields(self, ckpt_dir):
        report = run_batch([_job(LOOPS)], ckpt_dir)
        (outcome,) = report.outcomes
        assert outcome.status == "ok"
        assert outcome.quarantined == [] and outcome.diagnostics == 0
        assert outcome.functions >= 1
        data = report.as_dict()
        assert data["jobs"][0]["quarantined"] == []
