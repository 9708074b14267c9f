"""The octagon abstract domain (Miné, HOSC 2006).

Constraints of the form ``±x ± y ≤ c`` over a fixed, ordered tuple of
variables, represented as a difference-bound matrix (DBM) over the doubled
variable set: index ``2k`` stands for ``+x_k`` and ``2k+1`` for ``-x_k``;
entry ``m[i, j]`` bounds ``v_j − v_i ≤ m[i, j]``.

Provides the operations the packed relational analysis of Section 4 needs:

* strong closure (Floyd–Warshall + unary tightening, with integer
  rounding), emptiness test;
* lattice: ``leq``, ``join``, ``meet``, ``widen``, ``narrow``;
* transfer functions: interval assignment, ``x := ±y + [l, u]`` (exact),
  general forget, and comparison tests (``x ⋈ c``, ``x ⋈ y + c``);
* projection of one variable to an :class:`Interval` (the paper's ``π_x``).

Instances are immutable: every operation returns a fresh octagon. Matrices
are small (packs are capped at ~10 variables) so numpy ``float64`` with
``inf`` is precise enough — all constants of the analysis are small ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.domains.interval import Interval

INF = np.inf

# -- sparsity-preserving closure (Jourdan's observation) ----------------------
#
# Pack octagons are mostly ⊤: typically only a few of the pack's variables
# carry any constraint, and a variable with no finite off-diagonal entry
# can never tighten anything — Floyd–Warshall relaxation through it and the
# strong step over its (infinite) unary bounds are both no-ops, and its own
# entries stay at +∞/0. Restricting closure, leq, join and widen to the
# *support* (variables with at least one finite off-diagonal entry) is
# therefore byte-identical to the dense Miné path while cutting the O(n³)
# closure to O(s³). The dense path remains the fallback when density
# crosses the threshold; the differential tests patch ``_SPARSE_ENABLED``
# off to use it as the oracle.

_SPARSE_ENABLED = True
#: fall back to the dense path once support/dim exceeds this fraction —
#: near-dense packs gain nothing from gathering a submatrix
_SPARSE_THRESHOLD = 0.9


def _interleaved_pairs(support: np.ndarray) -> np.ndarray:
    """DBM indices (2v, 2v+1 interleaved) of the support variables; the
    interleaving keeps ``i ^ 1`` the negation within the submatrix."""
    pairs = np.empty(2 * len(support), dtype=np.intp)
    pairs[0::2] = 2 * support
    pairs[1::2] = 2 * support + 1
    return pairs


def _neg_index(i: int) -> int:
    """The index of the negated form: 2k ↔ 2k+1."""
    return i ^ 1


def _tighten_and_strong(m: np.ndarray, n: int, swap: np.ndarray) -> None:
    """Integer tightening of the unary bounds (m[i, ī] is 2·bound(±x))
    followed by Miné's strong step, in place."""
    idx = np.arange(n)
    unary = m[idx, swap]
    finite = np.isfinite(unary)
    unary[finite] = 2 * np.floor(unary[finite] / 2)
    m[idx, swap] = unary
    # m[i,j] ← min(m[i,j], (m[i,ī] + m[j̄,j]) / 2); ∞/2 stays ∞.
    np.minimum(m, (unary[:, None] + unary[swap][None, :]) / 2, out=m)


def _strong_closure_rounds(m: np.ndarray, rounds: int) -> bool:
    """The full strong-closure iteration (Floyd–Warshall relaxation +
    tightening + strong step until stable), in place. Returns False when
    the system is infeasible (negative diagonal); on True the diagonal has
    been reset to 0."""
    n = m.shape[0]
    swap = np.arange(n) ^ 1
    for _round in range(rounds):
        before = m.copy()
        # Floyd–Warshall via vectorized relaxation.
        for k in range(n):
            np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
        _tighten_and_strong(m, n, swap)
        if np.any(np.diag(m) < 0):
            return False
        if np.array_equal(m, before):
            break
    np.fill_diagonal(m, 0.0)
    return True


def _incremental_close(m: np.ndarray, var: int) -> None:
    """Incremental strong closure after modifying only variable ``var`` of
    a strongly-closed matrix (Miné's algorithm): relax through the two
    indices of ``var``, then tighten + strong step. O(n²) instead of the
    full O(n³) closure."""
    _close_touched(m, (var,))


def _close_touched(m: np.ndarray, touched: tuple[int, ...]) -> None:
    """Incremental strong closure when only ``touched`` variables'
    constraints were modified on a strongly-closed matrix."""
    n = m.shape[0]
    swap = np.arange(n) ^ 1
    for _pass in range(2 if len(touched) > 1 else 1):
        for var in touched:
            for k in (2 * var, 2 * var + 1):
                np.minimum(m, m[:, k : k + 1] + m[k : k + 1, :], out=m)
        _tighten_and_strong(m, n, swap)


@dataclass(frozen=True)
class Octagon:
    """An octagon over ``dim`` variables. ``matrix`` is a DBM; ⊥ is the
    distinguished ``empty``. ``closed_flag`` records that the matrix is
    already strongly closed, letting the hot transfer-function paths skip
    redundant O(n³) closures."""

    dim: int
    matrix: np.ndarray | None = None
    empty: bool = False
    closed_flag: bool = field(default=False, compare=False)

    # -- constructors -------------------------------------------------------------

    @staticmethod
    def top(dim: int) -> "Octagon":
        m = np.full((2 * dim, 2 * dim), INF)
        np.fill_diagonal(m, 0.0)
        return Octagon(dim, m, closed_flag=True)

    @staticmethod
    def bottom(dim: int) -> "Octagon":
        return Octagon(dim, None, empty=True, closed_flag=True)

    def _m(self) -> np.ndarray:
        assert self.matrix is not None
        return self.matrix

    def _support(self) -> np.ndarray:
        """Variables with at least one finite off-diagonal entry; every
        other variable is unconstrained (its row/column is all +∞) and
        inert under closure. Cached on the instance — matrices are never
        mutated after construction."""
        cached = getattr(self, "_support_cache", None)
        if cached is not None:
            return cached
        m = self._m()
        finite = np.isfinite(m)
        np.fill_diagonal(finite, False)
        by_index = finite.any(axis=1) | finite.any(axis=0)
        support = np.nonzero(by_index[0::2] | by_index[1::2])[0]
        object.__setattr__(self, "_support_cache", support)
        return support

    # -- closure --------------------------------------------------------------------

    def closed(self) -> "Octagon":
        """Strong closure: shortest paths + unary tightening + integer
        rounding. Returns ⊥ if the constraint system is infeasible.

        When the matrix is sparse (most variables unconstrained), closure
        runs on the support submatrix only — byte-identical to the dense
        result, since unconstrained rows/columns stay at +∞ through every
        relaxation, tightening and strong step of the dense iteration."""
        if self.empty:
            return self
        if self.closed_flag:
            return self
        # DBM entries are finite or +∞ (never −∞), so +∞ arithmetic cannot
        # produce NaN and no scrubbing is needed in the relaxations.
        if _SPARSE_ENABLED and self.dim >= 2:
            support = self._support()
            s = len(support)
            if s == 0:
                m = self._m().copy()
                if np.any(np.diag(m) < 0):
                    return Octagon.bottom(self.dim)
                np.fill_diagonal(m, 0.0)
                return Octagon(self.dim, m, closed_flag=True)
            if s < self.dim and s <= _SPARSE_THRESHOLD * self.dim:
                ix = np.ix_(
                    _interleaved_pairs(support), _interleaved_pairs(support)
                )
                sub = np.ascontiguousarray(self._m()[ix])
                # same round cap as the dense path: identical fixpoint and
                # identical bottom detection on the embedded submatrix
                if not _strong_closure_rounds(sub, 2 * self.dim + 2):
                    return Octagon.bottom(self.dim)
                m = np.full_like(self._m(), INF)
                np.fill_diagonal(m, 0.0)
                m[ix] = sub
                return Octagon(self.dim, m, closed_flag=True)
        m = self._m().copy()
        if not _strong_closure_rounds(m, 2 * self.dim + 2):
            return Octagon.bottom(self.dim)
        return Octagon(self.dim, m, closed_flag=True)

    def is_bottom(self) -> bool:
        return self.empty

    def is_top(self) -> bool:
        if self.empty:
            return False
        # every finite entry is on the (zero) diagonal
        m = self._m()
        return int(np.count_nonzero(np.isfinite(m))) == m.shape[0]

    # -- lattice ---------------------------------------------------------------------

    def leq(self, other: "Octagon") -> bool:
        if self.empty:
            return True
        if other.empty:
            return False
        if self is other:
            return True
        a, b = self._m(), other._m()
        if _SPARSE_ENABLED and self.dim >= 2:
            # b is +∞ off-diagonal outside its support, where a ≤ b holds
            # trivially — only the diagonal and b's support block matter
            support = other._support()
            if 2 * len(support) < a.shape[0]:
                if not np.all(np.diag(a) <= np.diag(b)):
                    return False
                if len(support) == 0:
                    return True
                ix = np.ix_(
                    _interleaved_pairs(support), _interleaved_pairs(support)
                )
                return bool(np.all(a[ix] <= b[ix]))
        return bool(np.all(a <= b))

    def join(self, other: "Octagon") -> "Octagon":
        if self.empty:
            return other
        if other.empty:
            return self
        a, b = self._m(), other._m()
        if _SPARSE_ENABLED and self.dim >= 2:
            # max(a, b) is finite off-diagonal only where both are — the
            # intersection of the supports
            common = np.intersect1d(self._support(), other._support())
            if 2 * len(common) < a.shape[0]:
                out = np.full_like(a, INF)
                n = a.shape[0]
                idx = np.arange(n)
                out[idx, idx] = np.maximum(np.diag(a), np.diag(b))
                if len(common):
                    ix = np.ix_(
                        _interleaved_pairs(common), _interleaved_pairs(common)
                    )
                    out[ix] = np.maximum(a[ix], b[ix])
                return Octagon(
                    self.dim,
                    out,
                    closed_flag=self.closed_flag and other.closed_flag,
                )
        # pointwise max of strongly closed DBMs is strongly closed
        return Octagon(
            self.dim,
            np.maximum(a, b),
            closed_flag=self.closed_flag and other.closed_flag,
        )

    def meet(self, other: "Octagon") -> "Octagon":
        if self.empty or other.empty:
            return Octagon.bottom(self.dim)
        return Octagon(self.dim, np.minimum(self._m(), other._m())).closed()

    def widen(self, other: "Octagon") -> "Octagon":
        """Standard DBM widening: unstable entries go to +∞."""
        if self.empty:
            return other
        if other.empty:
            return self
        a, b = self._m(), other._m()
        if _SPARSE_ENABLED and self.dim >= 2:
            # a's +∞ entries stay +∞ under widening (b ≤ +∞ keeps a), so
            # only a's support block can hold finite results
            support = self._support()
            if 2 * len(support) < a.shape[0]:
                out = np.full_like(a, INF)
                if len(support):
                    ix = np.ix_(
                        _interleaved_pairs(support), _interleaved_pairs(support)
                    )
                    out[ix] = np.where(b[ix] <= a[ix], a[ix], INF)
                np.fill_diagonal(out, 0.0)
                return Octagon(self.dim, out)
        out = np.where(b <= a, a, INF)
        np.fill_diagonal(out, 0.0)
        return Octagon(self.dim, out)

    def narrow(self, other: "Octagon") -> "Octagon":
        if self.empty or other.empty:
            return Octagon.bottom(self.dim)
        a, b = self._m(), other._m()
        out = np.where(np.isinf(a), b, a)
        return Octagon(self.dim, out).closed()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octagon):
            return NotImplemented
        if self.empty or other.empty:
            return self.empty == other.empty
        return self.dim == other.dim and bool(np.array_equal(self._m(), other._m()))

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.dim, self.empty))

    # -- constraint entry points ---------------------------------------------------------

    def with_upper(self, k: int, c: float) -> "Octagon":
        """Add ``x_k ≤ c``."""
        return self._with_entry(2 * k + 1, 2 * k, 2 * c)

    def with_lower(self, k: int, c: float) -> "Octagon":
        """Add ``x_k ≥ c``."""
        return self._with_entry(2 * k, 2 * k + 1, -2 * c)

    def with_diff(self, j: int, i: int, c: float) -> "Octagon":
        """Add ``x_j − x_i ≤ c``."""
        return self._with_entry(2 * i, 2 * j, c)._with_entry_last(
            2 * j + 1, 2 * i + 1, c
        )

    def with_sum_upper(self, i: int, j: int, c: float) -> "Octagon":
        """Add ``x_i + x_j ≤ c``."""
        return self._with_entry(2 * i + 1, 2 * j, c)._with_entry_last(
            2 * j + 1, 2 * i, c
        )

    def _with_entry(self, i: int, j: int, c: float) -> "Octagon":
        if self.empty:
            return self
        m = self._m().copy()
        if c < m[i, j]:
            m[i, j] = c
        return Octagon(self.dim, m)

    def _with_entry_last(self, i: int, j: int, c: float) -> "Octagon":
        return self._with_entry(i, j, c)

    # -- transfer functions -----------------------------------------------------------------

    def forget(self, k: int) -> "Octagon":
        """Drop every constraint mentioning ``x_k`` (havoc). Wiping a
        variable of a strongly closed matrix keeps it strongly closed."""
        if self.empty:
            return self
        m = self.closed()
        if m.empty:
            return m
        out = m._m().copy()
        for idx in (2 * k, 2 * k + 1):
            out[idx, :] = INF
            out[:, idx] = INF
        np.fill_diagonal(out, 0.0)
        return Octagon(self.dim, out, closed_flag=True)

    def assign_interval(self, k: int, itv: Interval) -> "Octagon":
        """``x_k := [l, u]`` — forget then bound, with the O(n²)
        incremental closure (only ``x_k``'s constraints changed)."""
        if self.empty:
            return self
        if itv.is_bottom():
            return Octagon.bottom(self.dim)
        base = self.closed()
        if base.empty:
            return base
        m = base._m().copy()
        for idx in (2 * k, 2 * k + 1):
            m[idx, :] = INF
            m[:, idx] = INF
        np.fill_diagonal(m, 0.0)
        if itv.hi is not None:
            m[2 * k + 1, 2 * k] = 2.0 * itv.hi
        if itv.lo is not None:
            m[2 * k, 2 * k + 1] = -2.0 * itv.lo
        _incremental_close(m, k)
        if np.any(np.diag(m) < 0):
            return Octagon.bottom(self.dim)
        np.fill_diagonal(m, 0.0)
        return Octagon(self.dim, m, closed_flag=True)

    def assign_var_plus(
        self, k: int, src: int, delta: Interval, negate: bool = False
    ) -> "Octagon":
        """``x_k := ±x_src + [l, u]`` — the exact octagonal assignment."""
        if self.empty:
            return self
        if delta.is_bottom():
            return Octagon.bottom(self.dim)
        lo = -INF if delta.lo is None else float(delta.lo)
        hi = INF if delta.hi is None else float(delta.hi)
        if k == src:
            return self._assign_self_shift(k, lo, hi, negate)
        out = self.forget(k)
        if out.empty:
            return out
        m = out._m().copy()
        if not negate:
            # x_k − x_src ≤ hi ; x_src − x_k ≤ −lo
            if np.isfinite(hi):
                m[2 * src, 2 * k] = hi
                m[2 * k + 1, 2 * src + 1] = hi
            if np.isfinite(lo):
                m[2 * k, 2 * src] = -lo
                m[2 * src + 1, 2 * k + 1] = -lo
        else:
            # x_k + x_src ≤ hi ; −x_k − x_src ≤ −lo
            if np.isfinite(hi):
                m[2 * src + 1, 2 * k] = hi
                m[2 * k + 1, 2 * src] = hi
            if np.isfinite(lo):
                m[2 * k, 2 * src + 1] = -lo
                m[2 * src, 2 * k + 1] = -lo
        # the new x_k↔x_src edges compose with x_src's old bounds, so the
        # incremental closure must relax through both variables' indices
        _close_touched(m, (src, k))
        if np.any(np.diag(m) < 0):
            return Octagon.bottom(self.dim)
        np.fill_diagonal(m, 0.0)
        return Octagon(self.dim, m, closed_flag=True)

    def _assign_self_shift(
        self, k: int, lo: float, hi: float, negate: bool
    ) -> "Octagon":
        """``x_k := ±x_k + [lo, hi]`` without forgetting (translation)."""
        base = self.closed()
        if base.empty:
            return base
        m = base._m().copy()
        pos, neg = 2 * k, 2 * k + 1
        if negate:
            m[[pos, neg], :] = m[[neg, pos], :]
            m[:, [pos, neg]] = m[:, [neg, pos]]
        # Translating x by [lo, hi]: constraints x − y get +[lo,hi] etc.
        for idx, sign_row in ((pos, -1), (neg, +1)):
            for j in range(m.shape[0]):
                if j in (pos, neg):
                    continue
                # row idx: v_j − v_idx ≤ c  → v_idx grows by δ ⇒ bound −δ
                if np.isfinite(m[idx, j]):
                    m[idx, j] += -lo if idx == pos else hi
                if np.isfinite(m[j, idx]):
                    m[j, idx] += hi if idx == pos else -lo
        # Unary pair: x ≤ u becomes x ≤ u + hi; −x ≤ −l becomes −x ≤ −l − lo
        if np.isfinite(m[neg, pos]):
            m[neg, pos] += 2 * hi
        if np.isfinite(m[pos, neg]):
            m[pos, neg] += -2 * lo
        out = Octagon(self.dim, m)
        if np.isinf(hi) or np.isinf(lo):
            return out.forget(k)
        return out.closed()

    # -- tests (assume transfer) ----------------------------------------------------------------

    def _test_incremental(self, raw: "Octagon", touched: tuple[int, ...]) -> "Octagon":
        """Close a test result incrementally when the receiver was already
        strongly closed; fall back to the full closure otherwise."""
        if raw.empty:
            return raw
        if not self.closed_flag:
            return raw.closed()
        m = raw._m().copy()
        _close_touched(m, touched)
        if np.any(np.diag(m) < 0):
            return Octagon.bottom(self.dim)
        np.fill_diagonal(m, 0.0)
        return Octagon(self.dim, m, closed_flag=True)

    def test_upper(self, k: int, c: float) -> "Octagon":
        return self._test_incremental(self.with_upper(k, c), (k,))

    def test_lower(self, k: int, c: float) -> "Octagon":
        return self._test_incremental(self.with_lower(k, c), (k,))

    def test_diff_upper(self, j: int, i: int, c: float) -> "Octagon":
        """Assume ``x_j − x_i ≤ c``."""
        return self._test_incremental(self.with_diff(j, i, c), (i, j))

    def test_eq(self, k: int, c: float) -> "Octagon":
        return self._test_incremental(
            self.with_upper(k, c).with_lower(k, c), (k,)
        )

    def test_var_eq(self, j: int, i: int) -> "Octagon":
        """Assume ``x_j == x_i``."""
        return self._test_incremental(
            self.with_diff(j, i, 0).with_diff(i, j, 0), (i, j)
        )

    # -- projection ---------------------------------------------------------------------------------

    def project(self, k: int) -> Interval:
        """π_k: the interval of variable ``x_k`` (the paper's ``p_x``)."""
        if self.empty:
            return Interval.bottom()
        m = self.closed()
        if m.empty:
            return Interval.bottom()
        mm = m._m()
        hi_raw = mm[2 * k + 1, 2 * k] / 2
        lo_raw = -mm[2 * k, 2 * k + 1] / 2
        hi = None if np.isinf(hi_raw) else int(np.floor(hi_raw))
        lo = None if np.isinf(lo_raw) else int(np.ceil(lo_raw))
        return Interval.range(lo, hi)

    def __str__(self) -> str:
        if self.empty:
            return "⊥oct"
        parts = []
        for k in range(self.dim):
            parts.append(f"x{k}∈{self.project(k)}")
        return "Oct(" + ", ".join(parts) + ")"
