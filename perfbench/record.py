"""Record the outputs the benchmark checks against (``expected.json``).

Run from the repository root, only when a change is meant to alter the
analyzer's answers::

    PYTHONPATH=src python3 perfbench/record.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import oracles, workloads  # noqa: E402


def main() -> int:
    from repro.bench.codegen import generate_source
    from repro.runtime.pool import run_batch

    expected = {}
    for domain, program in (("interval", "vim-mini"), ("octagon", "sendmail-oct")):
        source = generate_source(workloads.spec_named(program))
        run, reports = workloads.analyze_once(source, domain, f"{program}.c", {})
        entry = {"program": program, "digest": oracles.table_digest(run.result.table)}
        if reports is not None:
            entry["verdicts"] = oracles.verdict_counts(reports)
        expected[f"analyze-{domain}"] = entry

    work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench-record-"))
    try:
        src_dir = work / "batch-src"
        src_dir.mkdir()
        for name in workloads.BATCH_GENERATED:
            (src_dir / f"{name}.c").write_text(
                generate_source(workloads.spec_named(name))
            )
        ctx = workloads.Context(ROOT, work, 0, 0.0, False)
        report = run_batch(
            workloads.batch_jobs(ctx, src_dir),
            str(work / "ckpt"),
            max_workers=workloads.BATCH_WORKERS,
        )
        expected["batch-mixed"] = {
            os.path.basename(job.path): {"status": job.status, "alarms": job.alarms}
            for job in sorted(report.outcomes, key=lambda job: job.path)
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(oracles.EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {oracles.EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
