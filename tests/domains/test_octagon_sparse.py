"""Sparse-vs-dense octagon identity: the sparsity-preserving closure,
``leq``, ``join`` and ``widen`` fast paths must be byte-identical to the
dense Miné reference on randomized packs of every density."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.domains import octagon as octagon_mod
from repro.domains.interval import Interval
from repro.domains.octagon import Octagon


@st.composite
def octagons(draw, max_dim=8):
    """A raw (unclosed) octagon built through the constraint entry points,
    touching only a random subset of the variables — the support pattern
    pack analyses actually produce."""
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    oct_ = Octagon.top(dim)
    used = draw(
        st.lists(
            st.integers(min_value=0, max_value=dim - 1), max_size=4, unique=True
        )
    )
    consts = st.integers(min_value=-20, max_value=20)
    for k in used:
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            oct_ = oct_.with_upper(k, draw(consts))
        elif kind == 1:
            oct_ = oct_.with_lower(k, draw(consts))
        elif kind == 2:
            other = draw(st.integers(min_value=0, max_value=dim - 1))
            if other != k:
                oct_ = oct_.with_diff(k, other, draw(consts))
        else:
            other = draw(st.integers(min_value=0, max_value=dim - 1))
            if other != k:
                oct_ = oct_.with_sum_upper(k, other, draw(consts))
    return oct_


def _dense(fn):
    """``fn()`` on the dense Miné reference path: the sparse paths are
    module-private and switched off only for this call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(octagon_mod, "_SPARSE_ENABLED", False)
        return fn()


def _same(a: Octagon, b: Octagon) -> None:
    assert a.empty == b.empty
    if not a.empty:
        assert np.array_equal(a._m(), b._m()), (
            f"sparse/dense divergence:\n{a._m()}\nvs\n{b._m()}"
        )


@given(octagons())
def test_sparse_closure_identical_to_dense(oct_):
    sparse = oct_.closed()
    dense = _dense(lambda: Octagon(oct_.dim, oct_.matrix).closed())
    _same(sparse, dense)
    if not sparse.empty:
        assert sparse.closed_flag


@given(octagons(), octagons())
def test_sparse_leq_identical_to_dense(a, b):
    if a.dim != b.dim:
        b = Octagon.top(a.dim)
    ac, bc = a.closed(), b.closed()
    assert ac.leq(bc) == _dense(lambda: ac.leq(bc))
    assert ac.leq(ac)


@given(octagons(), octagons())
def test_sparse_join_widen_identical_to_dense(a, b):
    if a.dim != b.dim:
        b = Octagon.top(a.dim)
    ac, bc = a.closed(), b.closed()
    if ac.empty or bc.empty:
        return
    _same(ac.join(bc), _dense(lambda: ac.join(bc)))
    _same(ac.widen(bc), _dense(lambda: ac.widen(bc)))


@given(octagons())
def test_sparse_project_matches_dense(oct_):
    for k in range(oct_.dim):
        assert oct_.project(k) == _dense(lambda: Octagon(oct_.dim, oct_.matrix).project(k))


def test_infeasible_detected_on_sparse_path():
    # x0 ≤ 1 and x0 ≥ 5 in a 6-dim pack: support {0} ≪ dim, sparse path
    oct_ = Octagon.top(6).with_upper(0, 1).with_lower(0, 5)
    assert oct_.closed().is_bottom()
    assert _dense(lambda: Octagon(6, oct_.matrix).closed()).is_bottom()


def test_all_top_pack_closes_without_cubic_work():
    oct_ = Octagon(4, Octagon.top(4).matrix.copy())  # closed_flag not set
    out = oct_.closed()
    assert out.closed_flag and out.is_top()
    _same(out, _dense(lambda: Octagon(4, oct_.matrix).closed()))


def test_dense_fallback_above_threshold():
    """A pack where every variable is constrained must take the dense path
    (support == dim) and still produce the reference result."""
    oct_ = Octagon.top(3)
    for k in range(3):
        oct_ = oct_.with_upper(k, k + 1).with_lower(k, -k)
    _same(oct_.closed(), _dense(lambda: Octagon(3, oct_.matrix).closed()))


@settings(max_examples=30)
@given(octagons(max_dim=6), st.integers(min_value=0, max_value=5))
def test_transfer_functions_identical(oct_, k):
    """assign/forget/test go through closed() internally — end-to-end the
    sparse machinery must not change any transfer result."""
    k = k % oct_.dim
    itv = Interval(-3, 7)

    def run():
        out = oct_.assign_interval(k, itv)
        out = out.forget((k + 1) % oct_.dim)
        out = out.test_upper(k, 5)
        return out

    _same(run(), _dense(run))


def test_sparse_closure_tightens_through_chain():
    # x0 ≤ 3, x1 − x0 ≤ 2 in a 10-dim pack: closure must derive x1 ≤ 5
    # while only 2 of 10 variables are in support
    oct_ = Octagon.top(10).with_upper(0, 3).with_diff(1, 0, 2)
    out = oct_.closed()
    assert out.project(1) == Interval.range(None, 5)
    assert out.project(0) == Interval.range(None, 3)
    assert np.isinf(out._m()[2 * 5 + 1, 2 * 5])  # untouched var stays ⊤
