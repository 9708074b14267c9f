"""Golden digests of the final dependency relation.

``tests/analysis/golden/datadep_digests.json`` was recorded with
``python tests/analysis/record_datadep_digests.py`` before dependency
generation moved to interned integer locations. Every sparse plan (interval
over ``AbsLoc``s, octagon over packs) must still build exactly the same
relation: the same canonical ``(src, dst, str(loc))`` triples, and the same
raw (before bypass) and final edge counts. The tier-1 run replays the
example programs, the corpus and the generated suites up to
screen-mini/screen-oct; CI replays the whole recording with ``--check``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from record_datadep_digests import (  # noqa: E402
    GOLDEN_PATH,
    TEST_UPTO,
    measure,
    programs,
)

GOLDENS: dict[str, dict] = json.loads(GOLDEN_PATH.read_text())
CASES = list(programs(TEST_UPTO))


@pytest.mark.parametrize(
    "key,domain,source,filename,preprocess", CASES, ids=[c[0] for c in CASES]
)
def test_relation_matches_recording(key, domain, source, filename, preprocess):
    assert measure(domain, source, filename, preprocess) == GOLDENS[key]


def test_recording_covers_every_replayed_case():
    assert {c[0] for c in CASES} <= set(GOLDENS)


@pytest.mark.parametrize("hashseed", ["0", "4242"])
def test_digests_independent_of_hash_seed(hashseed):
    """Set iteration order follows ``PYTHONHASHSEED``; the relation (and so
    its digest) must not."""
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(HERE.parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "record_datadep_digests.py"), "--check",
         "--upto", "gzip-mini", "--upto", "gzip-oct"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
