"""Output checks: recorded digests and verdicts, the concrete interpreter,
and fresh re-analysis. Every check runs outside the timed region."""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)


# The rendering follows tests/analysis/golden_tables.py, copied so that
# the recorded digests change only when the analyzer's tables do.
def _canonical_value(value) -> str:
    if hasattr(value, "ptsto"):  # AbsValue
        pts = ",".join(sorted(str(p) for p in value.ptsto))
        arrays = ";".join(str(a) for a in value.arrays)
        return f"itv={value.itv}|pts={{{pts}}}|arr=[{arrays}]"
    if hasattr(value, "matrix"):  # Octagon: raw DBM entries
        if value.empty:
            return f"oct({value.dim})=bottom"
        cells = ",".join(repr(float(x)) for x in value._m().flatten())
        return f"oct({value.dim})=[{cells}]"
    return str(value)


def table_digest(table: dict) -> str:
    """SHA-256 of a fixpoint table rendered in a form that is stable
    across processes and hash seeds (keys sorted by their text). Hashed
    node by node so the rendering never sits in memory whole."""
    digest = hashlib.sha256()
    for nid in sorted(table):
        entries = sorted(
            (str(key), _canonical_value(val)) for key, val in table[nid].items()
        )
        body = "; ".join(f"{k} -> {v}" for k, v in entries)
        digest.update(f"{nid}: {{{body}}}\n".encode("utf-8"))
    return digest.hexdigest()


def verdict_counts(reports) -> dict[str, int]:
    return dict(sorted(Counter(r.verdict.value for r in reports).items()))


def interpreter_violations(run, fuel: int = 5_000_000) -> tuple[int, list[str]]:
    """Soundness oracle: run the concrete interpreter over ``run.program``
    and check every observed integer lies in the sparse table's interval,
    on the locations the node defines (Lemma 1's scope). Values are checked
    as they are observed instead of being recorded. Returns the number of
    checked values and up to ten violations."""
    from repro.ir.interp import Interpreter

    table = run.result.table
    defuse = run.result.defuse
    checked = 0
    bad: list[str] = []

    class CheckingInterpreter(Interpreter):
        def _observe(self, node, frame) -> None:
            nonlocal checked
            state = table.get(node.nid)
            for loc in defuse.d(node.nid):
                # a frame's locals shadow globals, as in Interpreter._observe
                val = frame.locals.get(loc, self.globals.get(loc))
                if not isinstance(val, int):
                    continue
                checked += 1
                av = state.get(loc) if state is not None else None
                if (av is None or not av.itv.contains(val)) and len(bad) < 10:
                    bad.append(f"node {node.nid}: {loc} = {val} not in {av}")

    CheckingInterpreter(run.program, fuel=fuel).run()
    return checked, bad


def report_rows(reports) -> list[tuple]:
    """Overrun reports as comparable tuples (serve wire form or objects)."""
    rows = []
    for r in reports:
        if isinstance(r, dict):
            rows.append(
                (r["nid"], r["line"], r["proc"], r["access"], r["verdict"],
                 r["offset"], r["size"])
            )
        else:
            rows.append(
                (r.nid, r.line, r.proc, str(r.access), r.verdict.value,
                 str(r.offset), str(r.size))
            )
    return sorted(rows)
