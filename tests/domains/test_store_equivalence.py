"""Property-based equivalence: the vectorized array-backed store must be
observationally identical to the scalar dict reference.

Every lattice operation, changed-set extraction, restriction and codec
round-trip is exercised on randomized states covering ⊥ entries, ±∞ and
out-of-int64 bounds, pointer payloads and array blocks — the array backend
must agree with :class:`ScalarAbsState` on all of them, including when the
two backends are mixed in one operation (checkpoint resume can do that).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.domains.absloc import AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc
from repro.domains.interval import Interval
from repro.domains.state import (
    AbsState,
    ArrayAbsState,
    ScalarAbsState,
    set_store_backend,
    store_backend,
)
from repro.domains.value import AbsValue, ArrayBlock, intern_value
from repro.runtime.checkpoint import state_from_wire, state_to_wire

# -- payload side-table values -----------------------------------------------


def _block() -> ArrayBlock:
    return ArrayBlock(
        base=AllocLoc("buf@12"),
        offset=Interval.range(0, 7),
        size=Interval.const(32),
    )


def _payload_values() -> dict[str, AbsValue]:
    """Values the array backend's int64 rows cannot represent — each one
    must take the payload side-table path."""
    return {
        "pointers": AbsValue.of_locs(
            frozenset({VarLoc("p", "main"), AllocLoc("node@3"), FuncLoc("cb")})
        ),
        "array_block": AbsValue.of_block(_block()),
        "huge_bound": AbsValue.of_interval(Interval.const(1 << 62)),
        "neg_out_of_range": AbsValue.of_interval(
            Interval.range(-(1 << 70), -(1 << 62))
        ),
        "mixed": AbsValue(
            itv=Interval.range(-3, 1 << 63),
            ptsto=frozenset({FuncLoc("handler")}),
            arrays=(_block(),),
        ),
    }


def _payload_mapping() -> dict:
    mapping = {
        VarLoc(f"v{idx}", "f"): value
        for idx, value in enumerate(_payload_values().values())
    }
    # a plain row-representable entry alongside, so decoding exercises
    # both storage paths in one state
    mapping[VarLoc("plain", "f")] = AbsValue.of_interval(Interval.range(0, 9))
    return mapping


# -- strategies ---------------------------------------------------------------

_LOCS = (
    [VarLoc(f"v{i}", "f") for i in range(12)]
    + [VarLoc(f"g{i}") for i in range(4)]
    + [AllocLoc(f"s{i}") for i in range(3)]
    + [FieldLoc(AllocLoc("s0"), "fld"), RetLoc("f")]
)

_BIG = 1 << 70  # beyond the int64 row encoding — must take the payload path

bounds = st.one_of(
    st.none(),
    st.integers(min_value=-40, max_value=40),
    st.sampled_from([-_BIG, _BIG, (1 << 62), -(1 << 62), (1 << 62) - 1]),
)


@st.composite
def intervals(draw):
    lo = draw(bounds)
    hi = draw(bounds)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


@st.composite
def values(draw):
    kind = draw(st.integers(min_value=0, max_value=9))
    if kind == 0:
        return AbsValue()  # ⊥
    if kind == 1:
        return AbsValue.of_interval(Interval.top())
    if kind <= 7:
        return AbsValue.of_interval(draw(intervals()))
    pts = frozenset(
        draw(st.lists(st.sampled_from(_LOCS[:6]), max_size=2, unique=True))
    )
    return AbsValue(itv=draw(intervals()), ptsto=pts)


@st.composite
def loc_maps(draw):
    locs = draw(st.lists(st.sampled_from(_LOCS), max_size=8, unique=True))
    return {loc: draw(values()) for loc in locs}


loc_sets = st.sets(st.sampled_from(_LOCS), max_size=10)
thresholds = st.one_of(
    st.none(),
    st.builds(
        tuple,
        st.lists(
            st.integers(min_value=-64, max_value=64), max_size=4, unique=True
        ).map(sorted),
    ),
)


def _mk(cls, mapping):
    state = object.__new__(cls)
    state.__init__()
    for loc, value in mapping.items():
        state.set(loc, intern_value(value))
    return state


def _pairs(mapping):
    """The same logical state in both backends."""
    return _mk(ArrayAbsState, mapping), _mk(ScalarAbsState, mapping)


def _table(state):
    return {loc: value for loc, value in state.items()}


def _assert_same(arr, sca):
    assert _table(arr) == _table(sca)
    assert len(arr) == len(sca)
    assert arr == sca and sca == arr
    assert arr.is_bottom() == sca.is_bottom()


# -- structural equivalence ---------------------------------------------------


@given(loc_maps())
def test_construction_items_len_contains(mapping):
    arr, sca = _pairs(mapping)
    _assert_same(arr, sca)
    for loc in _LOCS:
        assert (loc in arr) == (loc in sca)
        assert arr.get(loc) == sca.get(loc)


@given(loc_maps())
def test_copy_is_independent(mapping):
    arr, _ = _pairs(mapping)
    dup = arr.copy()
    _assert_same(dup, _mk(ScalarAbsState, mapping))
    dup.set(VarLoc("fresh", "f"), intern_value(AbsValue.of_interval(Interval(1, 2))))
    assert VarLoc("fresh", "f") not in arr


@given(loc_maps(), loc_sets)
def test_restrict_remove_match(mapping, locs):
    arr, sca = _pairs(mapping)
    _assert_same(arr.restrict(locs), sca.restrict(locs))
    _assert_same(arr.remove(locs), sca.remove(locs))
    _assert_same(arr.restrict(frozenset(locs)), sca.restrict(frozenset(locs)))


@given(loc_maps())
def test_strong_update_and_bottom_removal(mapping):
    arr, sca = _pairs(mapping)
    v = intern_value(AbsValue.of_interval(Interval(-3, 3)))
    for state in (arr, sca):
        state.set(VarLoc("v0", "f"), v)
        state.set(VarLoc("v1", "f"), intern_value(AbsValue()))  # ⊥ deletes
    _assert_same(arr, sca)
    assert VarLoc("v1", "f") not in arr


# -- lattice equivalence ------------------------------------------------------


@given(loc_maps(), loc_maps())
def test_leq_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    expected = sca_a.leq(sca_b)
    assert arr_a.leq(arr_b) == expected
    # mixed backends take the generic path and must agree too
    assert arr_a.leq(sca_b) == expected
    assert sca_a.leq(arr_b) == expected
    assert arr_a.leq(arr_a) and sca_a.leq(sca_a)


@given(loc_maps(), loc_maps())
def test_join_with_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    ch_arr = arr_a.join_with(arr_b)
    ch_sca = sca_a.join_with(sca_b)
    assert ch_arr == ch_sca
    _assert_same(arr_a, sca_a)
    # mixed: array state joined with a scalar argument
    arr_m, _ = _pairs(a)
    assert arr_m.join_with(sca_b) == ch_sca
    _assert_same(arr_m, sca_a)


@given(loc_maps(), loc_maps(), thresholds)
def test_widen_with_matches(a, b, thr):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    ch_arr = arr_a.widen_with(arr_b, thr)
    ch_sca = sca_a.widen_with(sca_b, thr)
    assert ch_arr == ch_sca
    _assert_same(arr_a, sca_a)
    arr_m, _ = _pairs(a)
    assert arr_m.widen_with(sca_b, thr) == ch_sca
    _assert_same(arr_m, sca_a)


@given(loc_maps(), loc_maps())
def test_join_changed_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    assert arr_a.join_changed(arr_b) == sca_a.join_changed(sca_b)
    _assert_same(arr_a, sca_a)


@given(loc_maps(), loc_maps(), thresholds)
def test_widen_changed_matches(a, b, thr):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    assert arr_a.widen_changed(arr_b, thr) == sca_a.widen_changed(sca_b, thr)
    _assert_same(arr_a, sca_a)


@given(loc_maps(), loc_maps(), loc_sets)
def test_join_entries_from_matches(a, b, locs):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    assert arr_a.join_entries_from(arr_b, locs) == sca_a.join_entries_from(
        sca_b, locs
    )
    _assert_same(arr_a, sca_a)


@given(loc_maps(), loc_maps())
def test_delta_items_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    # delta against a derived copy (the pre-analysis's usage pattern)
    arr_d = arr_a.copy()
    sca_d = sca_a.copy()
    arr_d.join_with(arr_b)
    sca_d.join_with(sca_b)
    assert dict(arr_d.delta_items(arr_a)) == dict(sca_d.delta_items(sca_a))


@given(loc_maps(), loc_maps())
def test_weak_set_and_update_locs_match(a, b):
    arr, sca = _pairs(a)
    for loc, value in b.items():
        arr.weak_set(loc, value)
        sca.weak_set(loc, value)
    _assert_same(arr, sca)
    locs = list(b)[:2]
    v = intern_value(AbsValue.of_interval(Interval(0, 1)))
    arr.update_locs(locs, v)
    sca.update_locs(locs, v)
    _assert_same(arr, sca)


# -- codec round-trip ---------------------------------------------------------


@given(loc_maps())
@example(_payload_mapping())
def test_wire_round_trip_is_backend_independent(mapping):
    arr, sca = _pairs(mapping)
    wire_arr = state_to_wire(arr)
    wire_sca = state_to_wire(sca)
    assert wire_arr == wire_sca
    decoded = state_from_wire(wire_arr)
    _assert_same(_mk(ArrayAbsState, _table(decoded)), sca)


def test_values_land_in_payload_table():
    """White-box: the payload values really do take the side-table path
    (otherwise the round-trip example above would not cover it)."""
    previous = set_store_backend("array")
    try:
        state = AbsState()
        assert isinstance(state, ArrayAbsState)
        for idx, value in enumerate(_payload_values().values()):
            state.set(VarLoc(f"v{idx}", "f"), value)
        assert len(state._payload) == len(_payload_values())
    finally:
        set_store_backend(previous)


# -- backend selection --------------------------------------------------------


def test_backend_dispatch_and_knob():
    previous = set_store_backend("scalar")
    try:
        assert store_backend() == "scalar"
        assert type(AbsState()) is ScalarAbsState
        assert set_store_backend("array") == "scalar"
        assert type(AbsState()) is ArrayAbsState
        assert type(AbsState({VarLoc("x"): AbsValue.of_interval(Interval(0, 1))})) is ArrayAbsState
    finally:
        set_store_backend(previous)
    try:
        set_store_backend("nope")
    except ValueError:
        pass
    else:  # pragma: no cover
        raise AssertionError("unknown backend must raise")
    assert isinstance(AbsState(), AbsState)


@settings(max_examples=25)
@given(loc_maps(), loc_maps())
def test_analysis_shaped_sequence(a, b):
    """A join→widen→narrow-shaped sequence keeps both backends in lockstep
    (the exact call pattern the fixpoint engine produces)."""
    arr, sca = _pairs(a)
    arr_b, sca_b = _pairs(b)
    arr.join_changed(arr_b)
    sca.join_changed(sca_b)
    arr.widen_changed(arr_b, (0, 16))
    sca.widen_changed(sca_b, (0, 16))
    _assert_same(arr, sca)
    assert arr.leq(sca) and sca.leq(arr)
    out_a = arr.join(arr_b)
    out_s = sca.join(sca_b)
    _assert_same(out_a, out_s)
