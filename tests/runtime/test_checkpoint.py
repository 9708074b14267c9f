"""Unit tests for the checkpoint wire codecs and file format.

The integration-level guarantee (resume converges to the byte-identical
fixpoint) lives in ``tests/analysis/test_resume_equivalence.py``; this file
covers the layer below: every codec round-trips exactly, and the file
format fails *closed* — wrong magic, wrong version, flipped payload bytes,
truncation, and configuration mismatches all surface as a one-line
:class:`CheckpointError`, never as a silently wrong restore.
"""

import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import analyze

from repro.domains.absloc import AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.octagon import Octagon
from repro.domains.packs import Pack
from repro.domains.state import AbsState
from repro.domains.value import AbsValue, ArrayBlock, intern_value
from repro.runtime import checkpoint
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpointer,
    encode_checkpoint,
    interval_from_wire,
    interval_to_wire,
    load_checkpoint,
    loc_from_wire,
    loc_to_wire,
    octagon_from_wire,
    octagon_to_wire,
    pack_from_wire,
    pack_to_wire,
    save_checkpoint,
    state_from_wire,
    state_to_wire,
    value_from_wire,
    value_to_wire,
)
from repro.runtime.errors import CheckpointError


class TestIntervalCodec:
    @pytest.mark.parametrize(
        "itv",
        [
            Interval.top(),
            Interval.bottom(),
            Interval(0, 10),
            Interval(-5, -5),
            Interval(None, 7),   # (-∞, 7]
            Interval(3, None),   # [3, +∞)
        ],
    )
    def test_round_trip(self, itv):
        assert interval_from_wire(interval_to_wire(itv)) == itv

    def test_wire_is_json(self):
        for itv in (Interval.bottom(), Interval(None, 3), Interval(1, 2)):
            json.dumps(interval_to_wire(itv))


class TestLocCodec:
    @pytest.mark.parametrize(
        "loc",
        [
            VarLoc("x", "main"),
            VarLoc("g", None),
            AllocLoc(17),
            RetLoc("callee"),
            FuncLoc("f"),
            FieldLoc(AllocLoc(3), "next"),
            FieldLoc(FieldLoc(AllocLoc(3), "inner"), "tail"),  # nested
        ],
    )
    def test_round_trip(self, loc):
        assert loc_from_wire(loc_to_wire(loc)) == loc

    def test_unknown_tag_fails_closed(self):
        with pytest.raises(CheckpointError):
            loc_from_wire(["Z", "whatever"])


class TestValueAndStateCodec:
    def _value(self):
        return intern_value(
            AbsValue(
                itv=Interval(0, 8),
                ptsto=frozenset({AllocLoc(1), VarLoc("p", "main")}),
                arrays=(
                    ArrayBlock(
                        base=AllocLoc(1),
                        offset=Interval(0, 3),
                        size=Interval(8, 8),
                    ),
                ),
            )
        )

    def test_value_round_trip(self):
        val = self._value()
        back = value_from_wire(value_to_wire(val))
        assert back == val
        # decoding re-interns, so the identity fast paths keep working
        assert back is intern_value(val)

    def test_abs_state_round_trip(self):
        state = AbsState()
        state.set(VarLoc("x", "main"), self._value())
        state.set(VarLoc("g", None), intern_value(AbsValue(itv=Interval(1, 1))))
        wire = state_to_wire(state)
        assert wire[0] == "abs"
        back = state_from_wire(json.loads(json.dumps(wire)))
        assert dict(back.items()) == dict(state.items())

    def test_unknown_state_kind_fails_closed(self):
        with pytest.raises(CheckpointError):
            state_from_wire(["mystery", []])


class TestOctagonCodec:
    def test_bottom_round_trip(self):
        oct_ = Octagon.bottom(3)
        back = octagon_from_wire(octagon_to_wire(oct_))
        assert back.empty and back.dim == 3

    def test_top_round_trip_preserves_infinities(self):
        oct_ = Octagon.top(2)
        wire = json.loads(json.dumps(octagon_to_wire(oct_)))
        back = octagon_from_wire(wire)
        assert back.dim == 2 and not back.empty
        assert np.array_equal(back._m(), oct_._m())

    def test_constrained_round_trip_is_exact(self):
        oct_ = Octagon.top(2).assign_interval(0, Interval(-3, 11))
        oct_ = oct_.assign_interval(1, Interval(2, 5))
        back = octagon_from_wire(json.loads(json.dumps(octagon_to_wire(oct_))))
        assert np.array_equal(back._m(), oct_._m())
        assert back.closed_flag == oct_.closed_flag

    def test_pack_state_round_trip(self):
        from repro.analysis.relational import PackState

        pack = Pack.of([VarLoc("a", "f"), VarLoc("b", "f")])
        assert pack_from_wire(pack_to_wire(pack)) == pack
        state = PackState()
        state.set(pack, Octagon.top(2).assign_interval(0, Interval(0, 4)))
        wire = state_to_wire(state)
        assert wire[0] == "pack"
        back = state_from_wire(json.loads(json.dumps(wire)))
        (p1, o1), = back.items()
        (p0, o0), = state.items()
        assert p1 == p0 and np.array_equal(o1._m(), o0._m())


class TestFileFormat:
    PAYLOAD = {"fingerprint": "fp", "iterations": 7, "table": []}

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt"
        n = save_checkpoint(path, self.PAYLOAD)
        assert n == path.stat().st_size
        assert load_checkpoint(path, expect_fingerprint="fp") == self.PAYLOAD

    def test_no_temp_file_debris(self, tmp_path):
        path = tmp_path / "run.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        save_checkpoint(path, self.PAYLOAD)  # overwrite goes via os.replace
        assert os.listdir(tmp_path) == ["run.ckpt"]

    def _assert_one_line_error(self, exc_info):
        message = str(exc_info.value)
        assert "\n" not in message
        assert message  # non-empty diagnostic

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError) as exc:
            load_checkpoint(tmp_path / "absent.ckpt")
        self._assert_one_line_error(exc)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b'{"magic": "not-a-checkpoint"}\n{}')
        with pytest.raises(CheckpointError, match="bad magic") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "v99.ckpt"
        data = encode_checkpoint(self.PAYLOAD)
        header = json.loads(data.split(b"\n", 1)[0])
        header["version"] = CHECKPOINT_VERSION + 99
        path.write_bytes(
            json.dumps(header).encode() + b"\n" + data.split(b"\n", 1)[1]
        )
        with pytest.raises(CheckpointError, match="format version") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_corrupt_payload_fails_digest(self, tmp_path):
        path = tmp_path / "corrupt.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        data = bytearray(path.read_bytes())
        data[-3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="digest") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_truncation(self, tmp_path):
        path = tmp_path / "short.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        with pytest.raises(CheckpointError, match="truncated") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "noheader.ckpt"
        path.write_bytes(b"no newline anywhere")
        with pytest.raises(CheckpointError, match="truncated") as exc:
            load_checkpoint(path)
        self._assert_one_line_error(exc)

    def test_fingerprint_mismatch(self, tmp_path):
        path = tmp_path / "other.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        with pytest.raises(CheckpointError, match="fingerprint") as exc:
            load_checkpoint(path, expect_fingerprint="different")
        self._assert_one_line_error(exc)

    def test_fingerprint_not_checked_when_not_requested(self, tmp_path):
        path = tmp_path / "any.ckpt"
        save_checkpoint(path, self.PAYLOAD)
        assert load_checkpoint(path)["iterations"] == 7


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class _FakeEngine:
    """Just enough engine for a :class:`Checkpointer`: an iteration count,
    and a snapshot whose encoding takes ``cost`` seconds on the clock."""

    def __init__(self, clock: _FakeClock, cost: float) -> None:
        self.stats = SimpleNamespace(iterations=0)
        self.clock = clock
        self.cost = cost
        self.snapshots: list[int] = []

    def snapshot(self) -> dict:
        self.clock.now += self.cost
        self.snapshots.append(self.stats.iterations)
        return {"iterations": self.stats.iterations}


class TestCadence:
    """Periodic writes are spaced so that they cost at most ``OVERHEAD``
    of the fixpoint; ``every`` is only the least spacing in iterations.
    Clock values are binary fractions, so the arithmetic is exact."""

    #: fixpoint seconds per iteration on the fake clock
    STEP = 0.125

    def _run(self, tmp_path, monkeypatch, every, cost, iterations):
        clock = _FakeClock()
        monkeypatch.setattr(checkpoint, "time", SimpleNamespace(monotonic=clock))
        engine = _FakeEngine(clock, cost)
        cp = Checkpointer(tmp_path / "run.ckpt", every=every)
        for _ in range(iterations):
            engine.stats.iterations += 1
            clock.now += self.STEP
            cp.maybe_write(engine)
        return cp, engine

    def test_first_write_fires_and_later_ones_wait_cost_over_overhead(
        self, tmp_path, monkeypatch
    ):
        assert checkpoint.OVERHEAD == 0.1
        cp, engine = self._run(tmp_path, monkeypatch, every=5, cost=0.5,
                               iterations=100)
        # iteration 5 always writes (clock 0.625 -> 1.125); the next write
        # waits 0.5 / 0.1 = 5 s, i.e. 40 iterations, and lands on a
        # multiple of 5
        assert engine.snapshots == [5, 45, 85]
        assert cp.writes == 3

    def test_free_writes_keep_the_iteration_spacing(self, tmp_path, monkeypatch):
        _, engine = self._run(tmp_path, monkeypatch, every=5, cost=0.0,
                              iterations=30)
        assert engine.snapshots == [5, 10, 15, 20, 25, 30]

    def test_abort_write_ignores_the_wait(self, tmp_path, monkeypatch):
        cp, engine = self._run(tmp_path, monkeypatch, every=5, cost=0.5,
                               iterations=10)
        assert engine.snapshots == [5]  # iteration 10 was held back
        cp.write(engine, reason="abort")
        assert engine.snapshots == [5, 10]
        assert load_checkpoint(cp.path)["reason"] == "abort"


class TestNonpositiveEvery:
    @pytest.mark.parametrize("every", [0, -3])
    def test_checkpointer_rejects(self, tmp_path, every):
        with pytest.raises(ValueError, match="checkpoint_every must be >= 1"):
            Checkpointer(tmp_path / "run.ckpt", every=every)

    @pytest.mark.parametrize("every", [0, -3])
    def test_analyze_rejects_before_any_work(self, tmp_path, every):
        path = tmp_path / "run.ckpt"
        with pytest.raises(ValueError, match=f"got {every}"):
            analyze("int main(void) { return 0; }", checkpoint_path=str(path),
                    checkpoint_every=every)
        assert not path.exists()
