#!/usr/bin/env python3
"""Record (or check) golden digests of the sparse dependency relation.

For every program in the set below and both sparse pipelines (interval
over ``AbsLoc`` locations, octagon over packs), this builds the plan up
to the fixpoint and digests the final dependency relation: a SHA-256 of
the sorted canonical ``(src, dst, str(loc))`` triples, plus the raw
(before bypass) and final edge counts. The digest is independent of
``PYTHONHASHSEED``.

    PYTHONPATH=src python tests/analysis/record_datadep_digests.py          # record
    PYTHONPATH=src python tests/analysis/record_datadep_digests.py --check  # compare

``--check`` exits 1 on any mismatch; ``--upto NAME`` stops each generated
suite at the program named (``test_datadep_digests.py`` replays the
suites up to screen-mini/screen-oct).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

GOLDEN_PATH = HERE / "golden" / "datadep_digests.json"

#: the generated programs the tier-1 test replays (each suite up to and
#: including these); the record script and CI cover the whole suites
TEST_UPTO = ("screen-mini", "screen-oct")


def relation_digest(deps) -> str:
    triples = sorted((src, dst, str(loc)) for src, dst, loc in deps.triples())
    text = "\n".join(f"{src} {dst} {loc}" for src, dst, loc in triples)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def programs(upto: tuple[str, ...] = ()):
    """``(key, domain, source, filename, preprocess)`` for every case."""
    from repro.bench.codegen import default_suite, generate_source, octagon_suite

    files = sorted((ROOT / "examples" / "c").glob("*.c"))
    corpus = sorted((ROOT / "examples" / "corpus").glob("*.c"))
    for domain, suite in (("interval", default_suite()), ("octagon", octagon_suite())):
        for path in files:
            yield f"c/{path.stem}/{domain}", domain, path.read_text(), str(path), False
        for path in corpus:
            yield (f"corpus/{path.stem}/{domain}", domain, path.read_text(),
                   str(path), True)
        for spec in suite:
            yield (f"gen/{spec.name}/{domain}", domain, generate_source(spec),
                   f"{spec.name}.c", False)
            if spec.name in upto:
                break


def measure(domain: str, source: str, filename: str, preprocess: bool) -> dict:
    from repro.analysis.preanalysis import run_preanalysis
    from repro.analysis.relational import prepare_rel_sparse
    from repro.analysis.sparse import prepare_interval_sparse
    from repro.frontend.errors import DiagnosticBag
    from repro.ir.program import build_program

    bag = DiagnosticBag()
    if preprocess:
        from repro.frontend.preprocessor import preprocess as cpp

        source = cpp(source, filename, diagnostics=bag)
    program = build_program(source, filename, diagnostics=bag)
    pre = run_preanalysis(program)
    prepare = prepare_interval_sparse if domain == "interval" else prepare_rel_sparse
    plan = prepare(program, pre)
    return {
        "digest": relation_digest(plan.deps),
        "raw": plan.raw_dep_count,
        "final": len(plan.deps),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare against the recording instead of writing it")
    ap.add_argument("--upto", action="append", default=[],
                    help="stop a generated suite after this program")
    args = ap.parse_args(argv)
    golden = json.loads(GOLDEN_PATH.read_text()) if args.check else {}
    recorded: dict[str, dict] = {}
    bad = 0
    for key, domain, source, filename, preprocess in programs(tuple(args.upto)):
        got = measure(domain, source, filename, preprocess)
        recorded[key] = got
        status = "recorded"
        if args.check:
            status = "ok" if golden.get(key) == got else "MISMATCH"
            bad += status != "ok"
        print(f"  {status} {key}: {got['digest'][:16]}… "
              f"raw={got['raw']} final={got['final']}", flush=True)
    if args.check:
        print(f"{len(recorded) - bad}/{len(recorded)} relation digests match")
        return 1 if bad else 0
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(recorded)} relation digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
