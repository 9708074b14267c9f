"""The CLI exit-code contract, exercised through real subprocesses.

Documented in README.md and ``python -m repro``'s docstring::

    0    completed, no alarms          1    completed, alarms reported
    2    anticipated failure           3    unexpected internal crash
    128+signum  interrupted (SIGINT → 130, SIGTERM → 143)

Batch drivers and CI scripts key off these numbers, so each one gets a
subprocess test — in-process ``main()`` calls cannot catch a wrong
``sys.exit`` path or a stray traceback on stdout.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

CLEAN = """
int a[4];
int main(void) {
  int i;
  for (i = 0; i < 4; i++) a[i] = i;
  return a[0];
}
"""

ALARMING = """
int a[4];
int main(void) {
  int i;
  for (i = 0; i < 4; i++) a[i] = i;
  return a[9];
}
"""


def _run(args, env_extra=None, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    env.pop("REPRO_INTERNAL_CRASH", None)
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO),
        timeout=120,
        **kw,
    )


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.c"
    path.write_text(CLEAN)
    return str(path)


@pytest.fixture
def alarming_file(tmp_path):
    path = tmp_path / "alarming.c"
    path.write_text(ALARMING)
    return str(path)


class TestExitCodes:
    def test_clean_run_exits_0(self, clean_file):
        proc = _run([clean_file])
        assert proc.returncode == 0, proc.stderr

    def test_alarms_exit_1(self, alarming_file):
        proc = _run([alarming_file])
        assert proc.returncode == 1
        assert "ALARM" in proc.stdout

    def test_repro_error_exits_2_with_caret_diagnostic(self, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int main( {\n")
        proc = _run([str(broken)])
        assert proc.returncode == 2
        # file:line:col head plus the offending line with a ^ caret
        head = proc.stderr.splitlines()[0]
        assert "broken.c:1:" in head and "error:" in head
        assert "^" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_missing_file_exits_2(self):
        proc = _run(["analyze", "/nonexistent-file.c"])
        assert proc.returncode == 2

    def test_removed_store_flag_is_usage_error(self, clean_file):
        # the interval store has one implementation; --store is not an option
        proc = _run(["analyze", clean_file, "--store", "scalar"])
        assert proc.returncode == 2
        assert "unrecognized arguments: --store scalar" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_internal_crash_exits_3_with_traceback(self, clean_file):
        proc = _run([clean_file], env_extra={"REPRO_INTERNAL_CRASH": "1"})
        assert proc.returncode == 3
        assert "Traceback" in proc.stderr
        assert "internal error" in proc.stderr

    def test_batch_exit_codes(self, clean_file, alarming_file, tmp_path):
        report = tmp_path / "report.json"
        proc = _run(
            [
                "batch", clean_file, alarming_file,
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--report", str(report),
            ]
        )
        assert proc.returncode == 1, proc.stderr  # alarms, nothing failed
        data = json.loads(report.read_text())
        assert data["exit_code"] == 1
        assert {j["label"] for j in data["jobs"]} == {"ok"}

    def test_batch_zero_jobs_exits_2(self, clean_file, tmp_path):
        proc = _run(
            [
                "batch", clean_file, "--jobs", "0",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ]
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: max_workers must be >= 1\n"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--timeout", "0", "error: job_timeout must be > 0 seconds, got 0.0\n"),
            (
                "--heartbeat-timeout",
                "-1",
                "error: heartbeat_timeout must be > 0 seconds, got -1.0\n",
            ),
        ],
    )
    def test_batch_nonpositive_watchdog_exits_2(
        self, clean_file, tmp_path, flag, value, message
    ):
        proc = _run(
            [
                "batch", clean_file, flag, value,
                "--checkpoint-dir", str(tmp_path / "ckpt"),
            ]
        )
        assert proc.returncode == 2
        assert proc.stderr == message

    @pytest.mark.parametrize(
        "command, value",
        [("batch", "-3"), ("analyze", "0")],
    )
    def test_nonpositive_checkpoint_every_exits_2(
        self, clean_file, tmp_path, command, value
    ):
        ckpt = tmp_path / "ckpt"
        where = (
            ["--checkpoint-dir", str(ckpt)]
            if command == "batch"
            else ["--checkpoint", str(ckpt)]
        )
        proc = _run([command, clean_file, *where, "--checkpoint-every", value])
        assert proc.returncode == 2
        assert proc.stderr == f"error: checkpoint_every must be >= 1, got {value}\n"
        assert not ckpt.exists()

    def test_serve_nonpositive_request_deadline_exits_2(self, clean_file):
        proc = _run(
            ["serve", clean_file, "--supervised", "--request-deadline", "0"],
            input="",
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: request_deadline must be > 0 seconds, got 0.0\n"
        )

    def test_removed_serve_heartbeat_flag_is_usage_error(self, clean_file):
        # serve's only request watchdog is --request-deadline
        proc = _run(
            ["serve", clean_file, "--supervised", "--heartbeat-timeout", "1"],
            input="",
        )
        assert proc.returncode == 2
        assert "unrecognized arguments: --heartbeat-timeout 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestSignalExit:
    def _slow_source(self, tmp_path):
        parts = ["int g;"]
        for k in range(60):
            parts.append(
                f"int f{k}(int x) {{ int i; int s = 0;"
                f" for (i = 0; i < 40; i++) {{ s = s + x; g = s; }}"
                f" return s; }}"
            )
        calls = " ".join(f"t = t + f{k}(t);" for k in range(60))
        parts.append(f"int main(void) {{ int t = 1; {calls} return t; }}")
        path = tmp_path / "slow.c"
        path.write_text("\n".join(parts))
        return str(path)

    def test_sigterm_exits_143_and_flushes_checkpoint(self, tmp_path):
        src = self._slow_source(tmp_path)
        ckpt = tmp_path / "slow.ckpt"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "analyze", src,
                "--checkpoint", str(ckpt), "--checkpoint-every", "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=str(REPO),
        )
        # wait for the fixpoint to start writing snapshots, then interrupt
        deadline = time.time() + 60
        while not ckpt.exists() and proc.poll() is None:
            if time.time() > deadline:
                proc.kill()
                pytest.fail("no checkpoint appeared within 60s")
            time.sleep(0.01)
        if proc.poll() is not None:
            pytest.skip("analysis finished before the signal could land")
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
        if proc.returncode in (0, 1):
            pytest.skip("analysis finished before the signal could land")
        assert proc.returncode == 128 + signal.SIGTERM
        assert "interrupted" in proc.stderr.read()

        from repro.runtime.checkpoint import load_checkpoint

        payload = load_checkpoint(ckpt)
        assert payload["iterations"] > 0


class TestRecoveryExitCodes:
    """Frontend recovery (ISSUE 6): recovered-with-diagnostics shares the
    alarm exit path; --strict-frontend restores fail-fast; zero
    recoverable functions stays a hard error."""

    RECOVERABLE = (
        "int g;\n"
        "int broken(void) { int x = ((; return x; }\n"
        "int main(void) { g = 1; return 0; }\n"
    )

    @pytest.fixture
    def recoverable_file(self, tmp_path):
        path = tmp_path / "recoverable.c"
        path.write_text(self.RECOVERABLE)
        return str(path)

    def test_recovered_run_exits_1_with_diagnostics(self, recoverable_file):
        proc = _run([recoverable_file])
        assert proc.returncode == 1, proc.stderr
        assert "^" in proc.stderr  # caret diagnostics on stderr
        assert "quarantined" in proc.stderr
        assert "1 analyzed, 1 quarantined" in proc.stderr

    def test_strict_frontend_exits_2(self, recoverable_file):
        proc = _run([recoverable_file, "--strict-frontend"])
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_zero_recoverable_functions_exits_2(self, tmp_path):
        junk = tmp_path / "junk.c"
        junk.write_text("int $$$;\n@@@\n")
        proc = _run([str(junk)])
        assert proc.returncode == 2
        assert "no recoverable functions" in proc.stderr

    def test_clean_file_still_exits_0(self, clean_file):
        proc = _run([clean_file])
        assert proc.returncode == 0
        assert "quarantined" not in proc.stderr

    def test_batch_marks_poisoned_degraded(self, recoverable_file, tmp_path):
        report = tmp_path / "report.json"
        proc = _run(
            [
                "batch", recoverable_file,
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--report", str(report),
            ]
        )
        assert proc.returncode == 1, proc.stderr
        data = json.loads(report.read_text())
        (job,) = data["jobs"]
        assert job["status"] == "degraded"
        assert job["quarantined"] == ["broken"]
