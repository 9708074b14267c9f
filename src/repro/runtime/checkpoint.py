"""Durable checkpoint/resume for in-flight fixpoint computations.

A checkpoint is a *complete, self-validating* snapshot of a
:class:`~repro.analysis.engine.FixpointEngine` mid-ascent: the state table,
the pending worklist (in pop order), the widening/iteration counters, the
propagation space's private caches, and the set of already-degraded
procedures. Restoring it and running the engine to completion converges to
the same fixpoint as the uninterrupted run — byte-identical tables, not
just equivalent ones — because every piece of engine state that influences
processing order or join results is captured (see DESIGN.md §11 for the
equivalence argument).

File format (version 1)::

    <header JSON line>\n<payload bytes>

The header carries a magic string, the format version, the payload length,
and a SHA-256 digest of the payload. ``load_checkpoint`` verifies all four
plus an optional *configuration fingerprint* stored inside the payload, and
raises a one-line :class:`CheckpointError` on any mismatch — a truncated,
corrupted, or mismatched checkpoint is never partially applied. Writes go
through :mod:`repro.runtime.atomicio`, so a crash mid-write leaves the
previous checkpoint intact.

Wire codecs cover every value that can appear in an engine table: exact
integer :class:`Interval` bounds, the five :class:`AbsLoc` classes (tagged
lists, recursive for ``FieldLoc``), :class:`AbsValue` points-to/array
payloads, :class:`AbsState`, variable :class:`Pack`\\ s, and float64
:class:`Octagon` DBMs (JSON float repr round-trips IEEE doubles exactly;
``±inf`` is spelled ``null``). Decoding re-interns values, so identity fast
paths keep working after a resume.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any

import numpy as np

from repro.domains.absloc import AbsLoc, AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import AbsValue, ArrayBlock, intern_value
from repro.runtime.atomicio import atomic_write_bytes
from repro.runtime.errors import CheckpointError
from repro.telemetry.core import Telemetry

#: bump whenever the payload layout or any wire codec changes shape
CHECKPOINT_VERSION = 1
_MAGIC = "repro-checkpoint"
#: the largest share of fixpoint time periodic checkpoint writes may take
OVERHEAD = 0.1


# --------------------------------------------------------------------------
# Wire codecs
# --------------------------------------------------------------------------


def interval_to_wire(itv: Interval) -> Any:
    if itv.empty:
        return "bot"
    return [itv.lo, itv.hi]


def interval_from_wire(wire: Any) -> Interval:
    if wire == "bot":
        return Interval.bottom()
    lo, hi = wire
    return Interval(lo, hi)


def loc_to_wire(loc: AbsLoc) -> list:
    if isinstance(loc, VarLoc):
        return ["V", loc.name, loc.proc]
    if isinstance(loc, AllocLoc):
        return ["A", loc.site]
    if isinstance(loc, FieldLoc):
        return ["F", loc_to_wire(loc.base), loc.fieldname]
    if isinstance(loc, RetLoc):
        return ["R", loc.proc]
    if isinstance(loc, FuncLoc):
        return ["X", loc.name]
    raise CheckpointError(f"cannot serialize abstract location {loc!r}")


def loc_from_wire(wire: list) -> AbsLoc:
    tag = wire[0]
    if tag == "V":
        return VarLoc(wire[1], wire[2])
    if tag == "A":
        return AllocLoc(wire[1])
    if tag == "F":
        return FieldLoc(loc_from_wire(wire[1]), wire[2])
    if tag == "R":
        return RetLoc(wire[1])
    if tag == "X":
        return FuncLoc(wire[1])
    raise CheckpointError(f"unknown abstract-location tag {tag!r} in checkpoint")


def value_to_wire(value: AbsValue) -> dict:
    return {
        "i": interval_to_wire(value.itv),
        "p": [loc_to_wire(l) for l in sorted(value.ptsto, key=lambda l: l.sort_key())],
        "a": [
            [
                loc_to_wire(blk.base),
                interval_to_wire(blk.offset),
                interval_to_wire(blk.size),
            ]
            for blk in value.arrays
        ],
    }


def value_from_wire(wire: dict) -> AbsValue:
    return intern_value(
        AbsValue(
            itv=interval_from_wire(wire["i"]),
            ptsto=frozenset(loc_from_wire(w) for w in wire["p"]),
            arrays=tuple(
                ArrayBlock(
                    base=loc_from_wire(b),
                    offset=interval_from_wire(off),
                    size=interval_from_wire(size),
                )
                for b, off, size in wire["a"]
            ),
        )
    )


def pack_to_wire(pack) -> list:
    return [loc_to_wire(member) for member in pack.members]


def pack_from_wire(wire: list):
    from repro.domains.packs import Pack

    # members were recorded in Pack.of's canonical sort order
    return Pack(tuple(loc_from_wire(w) for w in wire))


def octagon_to_wire(oct_) -> dict:
    if oct_.empty:
        return {"d": oct_.dim, "e": True}
    flat = oct_._m().flatten().tolist()
    return {
        "d": oct_.dim,
        "c": bool(oct_.closed_flag),
        "m": [None if x == np.inf else x for x in flat],
    }


def octagon_from_wire(wire: dict):
    from repro.domains.octagon import Octagon

    dim = wire["d"]
    if wire.get("e"):
        return Octagon.bottom(dim)
    n = 2 * dim
    matrix = np.array(
        [np.inf if x is None else x for x in wire["m"]], dtype=np.float64
    ).reshape(n, n)
    return Octagon(dim, matrix, closed_flag=wire.get("c", False))


def state_to_wire(state) -> list:
    """Tagged encoding for either table-state flavour: ``["abs", ...]`` for
    :class:`AbsState`, ``["pack", ...]`` for :class:`PackState`. Entries are
    sorted by location/pack sort key, so the encoding is canonical: it
    depends only on ``items()``, not on whether the store keeps an entry in
    a bound row or in its payload table."""
    if isinstance(state, AbsState):
        return [
            "abs",
            [
                [loc_to_wire(loc), value_to_wire(val)]
                for loc, val in sorted(
                    state.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
        ]
    from repro.analysis.relational import PackState

    if isinstance(state, PackState):
        return [
            "pack",
            [
                [pack_to_wire(pack), octagon_to_wire(oct_)]
                for pack, oct_ in sorted(
                    state.items(), key=lambda kv: kv[0].sort_key()
                )
            ],
        ]
    raise CheckpointError(f"cannot serialize engine state {type(state).__name__}")


def state_from_wire(wire: list):
    kind, entries = wire
    if kind == "abs":
        state = AbsState()
        for loc_w, val_w in entries:
            state.set(loc_from_wire(loc_w), value_from_wire(val_w))
        return state
    if kind == "pack":
        from repro.analysis.relational import PackState

        state = PackState()
        for pack_w, oct_w in entries:
            state.set(pack_from_wire(pack_w), octagon_from_wire(oct_w))
        return state
    raise CheckpointError(f"unknown state kind {kind!r} in checkpoint")


# --------------------------------------------------------------------------
# File format
# --------------------------------------------------------------------------


def encode_checkpoint(payload: dict) -> bytes:
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = json.dumps(
        {
            "magic": _MAGIC,
            "version": CHECKPOINT_VERSION,
            "length": len(body),
            "sha256": hashlib.sha256(body).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return header + b"\n" + body


def save_checkpoint(path: str | os.PathLike, payload: dict) -> int:
    """Atomically write ``payload`` as a versioned, digest-protected
    checkpoint file; returns the number of bytes written."""
    return atomic_write_bytes(path, encode_checkpoint(payload))


def load_checkpoint(
    path: str | os.PathLike, expect_fingerprint: str | None = None
) -> dict:
    """Read and fully validate a checkpoint; raises a one-line
    :class:`CheckpointError` on any integrity failure (fail closed)."""
    path = os.fspath(path)
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    newline = data.find(b"\n")
    if newline < 0:
        raise CheckpointError(f"checkpoint {path} is truncated (no header line)")
    try:
        header = json.loads(data[:newline])
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} has a malformed header") from exc
    if not isinstance(header, dict) or header.get("magic") != _MAGIC:
        raise CheckpointError(f"{path} is not a repro checkpoint (bad magic)")
    version = header.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version!r}, "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    body = data[newline + 1 :]
    if len(body) != header.get("length"):
        raise CheckpointError(
            f"checkpoint {path} is truncated "
            f"({len(body)} of {header.get('length')} payload bytes)"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != header.get("sha256"):
        raise CheckpointError(f"checkpoint {path} failed its content digest check")
    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint {path} payload is not valid JSON") from exc
    if expect_fingerprint is not None:
        found = payload.get("fingerprint")
        if found != expect_fingerprint:
            raise CheckpointError(
                f"checkpoint {path} was written by a different analysis "
                f"configuration (fingerprint mismatch)"
            )
    return payload


def _jsonable(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_fingerprint(
    domain: str, mode: str, options: dict | None = None, program=None
) -> str:
    """A digest of everything that determines the fixpoint a run computes:
    domain, engine mode, the engine options that shape widening/scheduling,
    and the program's coarse shape. A resume whose fingerprint differs would
    silently compute garbage, so ``load_checkpoint`` rejects it."""
    spec: dict[str, Any] = {
        "format": CHECKPOINT_VERSION,
        "domain": domain,
        "mode": mode,
        "options": _jsonable(options or {}),
    }
    if program is not None:
        nodes = sorted(
            (proc, len(cfg.nodes)) for proc, cfg in program.cfgs.items()
        )
        spec["program"] = nodes
    blob = json.dumps(spec, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# --------------------------------------------------------------------------
# Checkpointer
# --------------------------------------------------------------------------


def checked_every(every: int) -> int:
    """Validate a checkpoint spacing: a positive number of iterations."""
    if every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {every}")
    return int(every)


class Checkpointer:
    """Writes periodic + final-abort checkpoints for one engine run.

    The engine calls :meth:`maybe_write` after every completed worklist
    iteration and :meth:`write` from its abort path. ``every`` is the
    least spacing of periodic writes in iterations, not a promise to
    write that often: a write that took ``c`` seconds holds the next
    periodic write back until ``c / OVERHEAD`` more seconds have passed,
    so encoding the table costs at most about ``OVERHEAD`` of the
    fixpoint however large the table grows. The first periodic write,
    at iteration ``every``, is never held back, so an early kill still
    finds a checkpoint; the abort write ignores the wait.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        every: int = 200,
        fingerprint: str = "",
        telemetry: Telemetry | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.every = checked_every(every)
        self.fingerprint = fingerprint
        self.writes = 0
        self.bytes_written = 0
        self._telemetry = Telemetry.coerce(telemetry)
        #: monotonic time before which periodic writes are skipped
        self._due = float("-inf")

    def maybe_write(self, engine) -> None:
        if engine.stats.iterations % self.every or time.monotonic() < self._due:
            return
        start = time.monotonic()
        self.write(engine, reason="periodic")
        end = time.monotonic()
        self._due = end + (end - start) / OVERHEAD

    def write(self, engine, reason: str = "periodic") -> int:
        payload = engine.snapshot()
        payload["fingerprint"] = self.fingerprint
        payload["reason"] = reason
        n = save_checkpoint(self.path, payload)
        self.writes += 1
        self.bytes_written += n
        self._telemetry.count("checkpoint.writes")
        self._telemetry.count("checkpoint.bytes", n)
        return n
