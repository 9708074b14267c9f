"""Property-based equivalence: the vectorized array-backed store must be
observationally identical to the dict reference in :mod:`.dict_state`.

Every lattice operation, changed-set extraction, restriction and codec
round-trip is exercised on randomized states covering ⊥ entries, ±∞ and
out-of-int64 bounds, pointer payloads, array blocks and location ids far
apart enough that insertion order decides whether an entry sits in a bound
row or in the payload table — :class:`AbsState` must agree with
:class:`DictState` on all of them.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.domains.absloc import AllocLoc, FieldLoc, FuncLoc, RetLoc, VarLoc, loc_id
from repro.domains.interval import Interval
from repro.domains.state import AbsState
from repro.domains.value import AbsValue, ArrayBlock, intern_value
from repro.runtime.checkpoint import state_from_wire, state_to_wire

from tests.domains.dict_state import DictState

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

# Two locations interned more than the store's span slack away from the
# cluster above: whichever of a far and a near location a state sees first
# takes a bound row, and the other lands in the payload table.
for _loc in _LOCS:
    loc_id(_loc)
for _k in range(6000):
    loc_id(VarLoc(f"spacer{_k}", "eqv"))
_FAR = [VarLoc(f"far{k}", "eqv") for k in range(2)]
for _loc in _FAR:
    loc_id(_loc)
_POOL = _LOCS + _FAR

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
    """A mapping whose iteration order is the insertion order ``_mk``
    uses; far locations come first, last or in between."""
    locs = draw(st.lists(st.sampled_from(_POOL), max_size=8, unique=True))
    return {loc: draw(values()) for loc in locs}


loc_sets = st.sets(st.sampled_from(_POOL), max_size=10)
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
    state = cls()
    for loc, value in mapping.items():
        state.set(loc, intern_value(value))
    return state


def _pairs(mapping):
    """The same logical state in the store and in the oracle."""
    return _mk(AbsState, mapping), _mk(DictState, mapping)


def _table(state):
    return {loc: value for loc, value in state.items()}


def _assert_same(arr, ref):
    assert _table(arr) == _table(ref)
    assert len(arr) == len(ref)
    assert arr.is_bottom() == ref.is_bottom()
    # equality must not depend on placement: rebuilding in the reverse
    # insertion order can move entries between rows and the payload table
    rebuilt = _mk(AbsState, dict(reversed(list(ref.items()))))
    assert arr == rebuilt and rebuilt == arr


_V1 = AbsValue.of_interval(Interval.range(0, 1))
_V2 = AbsValue.of_interval(Interval.range(2, 3))


# -- structural equivalence ---------------------------------------------------


@given(loc_maps())
@example({_LOCS[0]: _V1, _FAR[0]: _V2})
def test_construction_items_len_contains(mapping):
    arr, sca = _pairs(mapping)
    _assert_same(arr, sca)
    for loc in _POOL:
        assert (loc in arr) == (loc in sca)
        assert arr.get(loc) == sca.get(loc)


@given(loc_maps())
def test_copy_is_independent(mapping):
    arr, _ = _pairs(mapping)
    dup = arr.copy()
    _assert_same(dup, _mk(DictState, mapping))
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
@example({_LOCS[0]: _V1, _FAR[0]: _V2}, {_FAR[0]: _V2, _LOCS[0]: _V2})
def test_leq_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    expected = sca_a.leq(sca_b)
    assert arr_a.leq(arr_b) == expected
    assert arr_a.leq(arr_a) and sca_a.leq(sca_a)
    assert (arr_a == arr_b) == (sca_a == sca_b)


@given(loc_maps(), loc_maps())
def test_join_with_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    ch_arr = arr_a.join_with(arr_b)
    ch_sca = sca_a.join_with(sca_b)
    assert ch_arr == ch_sca
    _assert_same(arr_a, sca_a)


@given(loc_maps(), loc_maps(), thresholds)
def test_widen_with_matches(a, b, thr):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    ch_arr = arr_a.widen_with(arr_b, thr)
    ch_sca = sca_a.widen_with(sca_b, thr)
    assert ch_arr == ch_sca
    _assert_same(arr_a, sca_a)


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
@example({_LOCS[0]: _V1, _FAR[0]: _V2}, {})
def test_delta_items_matches(a, b):
    arr_a, sca_a = _pairs(a)
    arr_b, sca_b = _pairs(b)
    # delta against a derived copy (the pre-analysis's usage pattern)
    arr_d = arr_a.copy()
    sca_d = sca_a.copy()
    arr_d.join_with(arr_b)
    sca_d.join_with(sca_b)
    expected = dict(sca_d.delta_items(sca_a))
    assert dict(arr_d.delta_items(arr_a)) == expected
    # and against the same base built in another order, which may place
    # entries differently
    arr_r = _mk(AbsState, dict(reversed(a.items())))
    assert dict(arr_d.delta_items(arr_r)) == expected


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
    """The wire form is a function of the entries alone, not of insertion
    order or placement, and decoding gives back the oracle's state."""
    arr, sca = _pairs(mapping)
    wire_arr = state_to_wire(arr)
    assert wire_arr == state_to_wire(_mk(AbsState, dict(reversed(mapping.items()))))
    decoded = state_from_wire(wire_arr)
    assert type(decoded) is AbsState
    _assert_same(decoded, sca)


def test_values_land_in_payload_table():
    """White-box: the payload values really do take the side-table path
    (otherwise the round-trip example above would not cover it)."""
    state = AbsState()
    for idx, value in enumerate(_payload_values().values()):
        state.set(VarLoc(f"v{idx}", "f"), value)
    assert len(state._payload) == len(_payload_values())


def test_far_location_placement_follows_insertion_order():
    """White-box: the far/near pair of the ``@example`` above really does
    store one entry in the payload table, a different one per order."""
    near, far = _LOCS[0], _FAR[0]
    a = _mk(AbsState, {near: _V1, far: _V2})
    b = _mk(AbsState, {far: _V2, near: _V1})
    assert a._payload.keys() != b._payload.keys()
    assert len(a._payload) == len(b._payload) == 1
    assert a == b


@settings(max_examples=25)
@given(loc_maps(), loc_maps())
def test_analysis_shaped_sequence(a, b):
    """A join→widen→narrow-shaped sequence keeps the store and the oracle
    in lockstep (the exact call pattern the fixpoint engine produces)."""
    arr, sca = _pairs(a)
    arr_b, sca_b = _pairs(b)
    arr.join_changed(arr_b)
    sca.join_changed(sca_b)
    arr.widen_changed(arr_b, (0, 16))
    sca.widen_changed(sca_b, (0, 16))
    _assert_same(arr, sca)
    assert arr.leq(arr.copy()) and sca.leq(sca.copy())
    out_a = arr.join(arr_b)
    out_s = sca.join(sca_b)
    _assert_same(out_a, out_s)
