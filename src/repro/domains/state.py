"""Abstract states: finite maps ``L̂ → V̂`` with missing entries = ⊥.

:class:`AbsState` is the state the fixpoint engines update in place at one
control point while joining copies across edges. ``join_with``/``widen_with``
return whether anything changed, which drives worklist convergence.

The store is struct-of-arrays (DESIGN.md §13): locations are interned to
dense int ids (:func:`repro.domains.absloc.loc_id`) and the numeric part of
every value lives in two numpy ``int64`` bound vectors covering the state's
id span. Whole-state join/widen/leq and their changed-set variants are
vectorized numpy ops with boolean-mask change extraction; pointer/array-block
values (and intervals whose bounds do not fit the int64 encoding) live in a
per-state payload side table keyed by id and are merged value by value.

Bound encoding: a *present* row stores finite bounds ``|b| < 2**62``
directly, ``lo = -2**62`` means −∞ and ``hi = +2**62`` means +∞; an
*absent* row (⊥) is the inverted sentinel pair ``lo > hi``, which makes ⊥
the identity of the vectorized min/max join with no masking.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from bisect import bisect_left, bisect_right

from repro.domains.absloc import (
    _LOC_IDS,
    AbsLoc,
    loc_id,
    loc_id_count,
    loc_of_id,
    peek_loc_id,
)
from repro.domains.interval import Interval
from repro.domains.value import (
    BOT,
    AbsValue,
    intern_value,
    register_intern_clear_hook,
)

#: sentinel for the single-location fast path in :meth:`AbsState.update_locs`
_NO_MORE = object()

# -- int64 bound encoding ---------------------------------------------------

#: finite bounds must satisfy |b| < _LIM; ±_LIM encode ∓∞ on the lo/hi side
_LIM = 1 << 62
_NEG_INF = -_LIM
_POS_INF = _LIM
#: absent (⊥) rows: lo > hi, and the sentinels are absorbing for min/max
_ABSENT_LO = _LIM
_ABSENT_HI = -_LIM

_EMPTY_I64 = np.empty(0, dtype=np.int64)

#: a single id written this far outside the current span falls back to the
#: payload table instead of growing the arrays (stale-interned locations
#: from earlier programs in the same process would otherwise blow the span)
_SPAN_SLACK = 4096

#: merges over windows at most this wide run a pure-Python int loop — for
#: the small localized states the interprocedural engines carry, numpy's
#: fixed per-op cost exceeds the whole loop (vectorization pays off only
#: on the wide global/pre-analysis states)
_VEC_MIN_WINDOW = 128

_loc_ids_get = _LOC_IDS.get


_MISSING = object()


def _bounds_of_value(value: AbsValue) -> tuple[int, int] | None:
    """The int64 row encoding of ``value``, or None when it must live in
    the payload table (pointers, array blocks, ⊥/out-of-range intervals).
    The encoding is a pure function of the value, so it is cached on the
    instance — values are hash-consed and recur constantly in the engines'
    set() hot path."""
    enc = getattr(value, "_rowenc", _MISSING)
    if enc is not _MISSING:
        return enc
    enc = None
    if not (value.ptsto or value.arrays):
        itv = value.itv
        if not itv.empty:
            lo, hi = itv.lo, itv.hi
            if lo is None:
                elo = _NEG_INF
            elif -_LIM < lo < _LIM:
                elo = lo
            else:
                elo = None
            if hi is None:
                ehi = _POS_INF
            elif -_LIM < hi < _LIM:
                ehi = hi
            else:
                ehi = None
            if elo is not None and ehi is not None:
                enc = (elo, ehi)
    object.__setattr__(value, "_rowenc", enc)  # frozen dataclass, no slots
    return enc


#: (lo, hi) → interned pure-interval AbsValue. Reconstruction returns
#: pointer-equal objects for equal rows, preserving the identity fast paths
#: (``old is value``) and ``delta_items``'s identity-based change detection.
_VALUE_CACHE: dict[tuple[int, int], AbsValue] = {}
_VALUE_CACHE_LIMIT = 1 << 16


def _value_of_bounds(lo: int, hi: int) -> AbsValue:
    key = (lo, hi)
    found = _VALUE_CACHE.get(key)
    if found is not None:
        return found
    if len(_VALUE_CACHE) >= _VALUE_CACHE_LIMIT:
        _VALUE_CACHE.clear()
    value = intern_value(
        AbsValue(
            itv=Interval(
                None if lo == _NEG_INF else lo,
                None if hi == _POS_INF else hi,
            )
        )
    )
    _VALUE_CACHE[key] = value
    return value


#: the cache holds canonical instances — drop it with the intern tables
register_intern_clear_hook(_VALUE_CACHE.clear)


#: id-set cache for the frozensets access-based localization reuses on
#: every call-edge restrict/remove; entries are validated by collection
#: identity and registry size (new ids invalidate)
_LOCSET_CACHE: dict[int, tuple[object, int, set[int]]] = {}
_LOCSET_CACHE_LIMIT = 256


def _ids_of_locs(locs: Iterable[AbsLoc]) -> set[int]:
    """Registered ids of a location collection (unregistered locations are
    in no state, so dropping them is exact)."""
    if isinstance(locs, (set, frozenset)):
        key = id(locs)
        hit = _LOCSET_CACHE.get(key)
        count = loc_id_count()
        if hit is not None and hit[0] is locs and hit[1] == count:
            return hit[2]
        ids = {i for i in map(peek_loc_id, locs) if i is not None}
        if len(_LOCSET_CACHE) >= _LOCSET_CACHE_LIMIT:
            _LOCSET_CACHE.clear()
        _LOCSET_CACHE[key] = (locs, count, ids)
        return ids
    return {i for i in map(peek_loc_id, locs) if i is not None}


class AbsState:
    """A map from abstract locations to abstract values.

    Stored values are hash-consed (see :mod:`repro.domains.value`), so
    structurally-equal values across states are pointer-equal; the lattice
    operations exploit that with ``is`` fast paths before falling back to
    structural comparison.

    ``_lo``/``_hi`` cover the dense-id window ``[_base, _base + len)``;
    ``_payload`` holds values the row encoding cannot represent, keyed by
    global id (a payload id always has an absent row); ``_n_arr`` counts
    present rows so ``len`` stays O(1) for the engine's entry accounting.
    """

    __slots__ = ("_base", "_lo", "_hi", "_payload", "_n_arr")

    def __init__(self, mapping: dict[AbsLoc, AbsValue] | None = None) -> None:
        self._base = 0
        self._lo = _EMPTY_I64
        self._hi = _EMPTY_I64
        self._payload: dict[int, AbsValue] = {}
        self._n_arr = 0
        if mapping:
            for loc, value in mapping.items():
                self.set(loc, value)

    # -- span management ------------------------------------------------------

    def _grow_span(self, lo_id: int, hi_id: int) -> None:
        """Grow the bound arrays (amortized, both directions) to cover the
        id range ``[lo_id, hi_id]``."""
        cur_lo = self._lo
        n = len(cur_lo)
        if n == 0:
            size = max(8, hi_id - lo_id + 1)
            self._base = lo_id
            self._lo = np.full(size, _ABSENT_LO, dtype=np.int64)
            self._hi = np.full(size, _ABSENT_HI, dtype=np.int64)
            return
        base = self._base
        if lo_id >= base and hi_id < base + n:
            return
        new_base = min(base, lo_id)
        new_end = max(base + n, hi_id + 1)
        size = max(new_end - new_base, 2 * n)
        if lo_id < base:
            # growing downward: spend the doubling slack below
            new_base = min(new_base, new_end - size)
        lo_arr = np.full(size, _ABSENT_LO, dtype=np.int64)
        hi_arr = np.full(size, _ABSENT_HI, dtype=np.int64)
        off = base - new_base
        lo_arr[off : off + n] = cur_lo
        hi_arr[off : off + n] = self._hi
        self._base = new_base
        self._lo = lo_arr
        self._hi = hi_arr

    def _row_fits(self, i: int) -> bool:
        """Whether id ``i`` may live in the arrays: inside the span, a
        moderate extension of it, or the very first row. A far outlier
        (a location interned by an unrelated earlier run) goes to the
        payload table instead, capping the span at the state's natural
        id cluster."""
        n = len(self._lo)
        if n == 0:
            return True
        need = max(self._base + n, i + 1) - min(self._base, i)
        return need <= max(4 * n, n + _SPAN_SLACK)

    # -- access ---------------------------------------------------------------

    def get(self, loc: AbsLoc) -> AbsValue:
        i = _loc_ids_get(loc)
        if i is None:
            return BOT
        if self._payload:
            found = self._payload.get(i)
            if found is not None:
                return found
        j = i - self._base
        lo_arr = self._lo
        if 0 <= j < lo_arr.shape[0]:
            lo = lo_arr.item(j)  # .item(): straight to a Python int
            hi = self._hi.item(j)
            if lo <= hi:
                return _value_of_bounds(lo, hi)
        return BOT

    def _get_by_id(self, i: int) -> AbsValue:
        if self._payload:
            found = self._payload.get(i)
            if found is not None:
                return found
        j = i - self._base
        lo_arr = self._lo
        if 0 <= j < lo_arr.shape[0]:
            lo = lo_arr.item(j)
            hi = self._hi.item(j)
            if lo <= hi:
                return _value_of_bounds(lo, hi)
        return BOT

    def _clear_row(self, i: int) -> None:
        j = i - self._base
        if 0 <= j < len(self._lo) and self._lo[j] <= self._hi[j]:
            self._lo[j] = _ABSENT_LO
            self._hi[j] = _ABSENT_HI
            self._n_arr -= 1

    def _set_by_id(self, i: int, value: AbsValue) -> None:
        """Store a non-bottom value under id ``i``, classifying it into a
        bound row or the payload table."""
        bounds = _bounds_of_value(value)
        if bounds is None or not self._row_fits(i):
            self._clear_row(i)
            self._payload[i] = intern_value(value)
            return
        self._payload.pop(i, None)
        self._grow_span(i, i)
        j = i - self._base
        if self._lo[j] > self._hi[j]:
            self._n_arr += 1
        self._lo[j] = bounds[0]
        self._hi[j] = bounds[1]

    def set(self, loc: AbsLoc, value: AbsValue) -> None:
        """Strong update."""
        if value is BOT or value.is_bottom():
            i = peek_loc_id(loc)
            if i is not None:
                if self._payload.pop(i, None) is None:
                    self._clear_row(i)
            return
        i = loc_id(loc)
        # fast path: an in-span bound row (the engines' dominant set shape)
        bounds = _bounds_of_value(value)
        if bounds is not None:
            j = i - self._base
            lo_arr = self._lo
            if 0 <= j < lo_arr.shape[0]:
                if self._payload:
                    self._payload.pop(i, None)
                if lo_arr.item(j) > self._hi.item(j):
                    self._n_arr += 1
                lo_arr[j] = bounds[0]
                self._hi[j] = bounds[1]
                return
        self._set_by_id(i, value)

    # -- derived updates ------------------------------------------------------

    def weak_set(self, loc: AbsLoc, value: AbsValue) -> None:
        """Weak update: join with the existing value (the paper's ``[l ↪w v]``)."""
        self.set(loc, self.get(loc).join(value))

    def update_locs(self, locs: Iterable[AbsLoc], value: AbsValue) -> None:
        """The paper's store semantics: a strong update when the target is a
        single non-summary location, a weak update otherwise. The common
        single-location case is detected without materializing a list."""
        it = iter(locs)
        first = next(it, _NO_MORE)
        if first is _NO_MORE:
            return
        second = next(it, _NO_MORE)
        if second is _NO_MORE:
            if first.is_summary():
                self.weak_set(first, value)
            else:
                self.set(first, value)
            return
        self.weak_set(first, value)
        self.weak_set(second, value)
        for loc in it:
            self.weak_set(loc, value)

    def _present_row_ids(self) -> np.ndarray:
        return self._base + np.nonzero(self._lo <= self._hi)[0]

    def locations(self) -> set[AbsLoc]:
        out = {loc_of_id(i) for i in self._present_row_ids().tolist()}
        out.update(loc_of_id(i) for i in self._payload)
        return out

    def items(self) -> Iterator[tuple[AbsLoc, AbsValue]]:
        ids = np.nonzero(self._lo <= self._hi)[0]
        base = self._base
        if self._payload:
            lo, hi = self._lo, self._hi
            merged = sorted(set(self._payload).union((base + ids).tolist()))
            for i in merged:
                value = self._payload.get(i)
                if value is None:
                    j = i - base
                    value = _value_of_bounds(int(lo[j]), int(hi[j]))
                yield loc_of_id(i), value
        else:
            los = self._lo[ids].tolist()
            his = self._hi[ids].tolist()
            for k, j in enumerate(ids.tolist()):
                yield loc_of_id(base + j), _value_of_bounds(los[k], his[k])

    def __len__(self) -> int:
        return self._n_arr + len(self._payload)

    def __bool__(self) -> bool:
        # An empty state is a real state (everything ⊥), not "no state" —
        # `if state:` must not silently mean `if len(state):`.
        return True

    def __contains__(self, loc: AbsLoc) -> bool:
        i = peek_loc_id(loc)
        if i is None:
            return False
        if i in self._payload:
            return True
        j = i - self._base
        return 0 <= j < len(self._lo) and bool(self._lo[j] <= self._hi[j])

    def copy(self) -> "AbsState":
        out = object.__new__(AbsState)
        out._base = self._base
        out._lo = self._lo.copy()
        out._hi = self._hi.copy()
        out._payload = dict(self._payload)
        out._n_arr = self._n_arr
        return out

    def _aligned_window(self, other: "AbsState") -> tuple[np.ndarray, np.ndarray]:
        """``other``'s bound rows re-based onto this state's span; ids
        outside ``other``'s arrays read as absent. When the two states
        share a layout — the overwhelming copy-then-mutate case — returns
        direct (read-only by convention) views with no allocation."""
        n = len(self._lo)
        if other._base == self._base and len(other._lo) == n:
            return other._lo, other._hi
        wlo = np.full(n, _ABSENT_LO, dtype=np.int64)
        whi = np.full(n, _ABSENT_HI, dtype=np.int64)
        s0 = max(self._base, other._base)
        s1 = min(self._base + n, other._base + len(other._lo))
        if s0 < s1:
            a, b = s0 - self._base, s1 - self._base
            c, d = s0 - other._base, s1 - other._base
            wlo[a:b] = other._lo[c:d]
            whi[a:b] = other._hi[c:d]
        return wlo, whi

    def delta_items(self, base: "AbsState") -> Iterator[tuple[AbsLoc, AbsValue]]:
        """Entries of this state whose value differs from ``base``'s — the
        pre-analysis's change detection. Values are compared by identity;
        bound rows compare by encoded bounds, which is the same relation
        since equal rows reconstruct pointer-equal values."""
        base_payload = base._payload
        for i, value in self._payload.items():
            old = base_payload.get(i)
            if old is value:
                continue
            if old is None and base._get_by_id(i) is value:
                continue  # the same value, held in a base row
            yield loc_of_id(i), value
        if not self._n_arr:
            return
        wlo, whi = self._aligned_window(base)
        present = self._lo <= self._hi
        # a base payload id has an absent base row, so it always differs
        # here; the payload lookup keeps an equal value placed there quiet
        diff = present & ((self._lo != wlo) | (self._hi != whi))
        for j in np.nonzero(diff)[0].tolist():
            i = self._base + j
            value = _value_of_bounds(self._lo.item(j), self._hi.item(j))
            if not base_payload or base_payload.get(i) is not value:
                yield loc_of_id(i), value

    # -- domain restriction (the paper's f|C and f\C) -------------------------

    def restrict(self, locs: Iterable[AbsLoc]) -> "AbsState":
        """``s|locs`` — keep only the given locations."""
        ids = _ids_of_locs(locs)
        out = object.__new__(AbsState)
        out._base = self._base
        n = len(self._lo)
        mask = np.zeros(n, dtype=bool)
        base = self._base
        for i in ids:
            j = i - base
            if 0 <= j < n:
                mask[j] = True
        out._lo = np.where(mask, self._lo, _ABSENT_LO)
        out._hi = np.where(mask, self._hi, _ABSENT_HI)
        out._n_arr = int(np.count_nonzero(out._lo <= out._hi))
        out._payload = {i: v for i, v in self._payload.items() if i in ids}
        return out

    def remove(self, locs: Iterable[AbsLoc]) -> "AbsState":
        """``s\\locs`` — drop the given locations."""
        ids = _ids_of_locs(locs)
        out = object.__new__(AbsState)
        out._base = self._base
        n = len(self._lo)
        mask = np.ones(n, dtype=bool)
        base = self._base
        for i in ids:
            j = i - base
            if 0 <= j < n:
                mask[j] = False
        out._lo = np.where(mask, self._lo, _ABSENT_LO)
        out._hi = np.where(mask, self._hi, _ABSENT_HI)
        out._n_arr = int(np.count_nonzero(out._lo <= out._hi))
        out._payload = {i: v for i, v in self._payload.items() if i not in ids}
        return out

    # -- lattice --------------------------------------------------------------

    def is_bottom(self) -> bool:
        return self._n_arr == 0 and not self._payload

    def leq(self, other: "AbsState") -> bool:
        if self is other:
            return True
        for i, value in self._payload.items():
            ov = other._get_by_id(i)
            if ov is not value and not value.leq(ov):
                return False
        if self._n_arr == 0:
            return True
        n = len(self._lo)
        if n <= _VEC_MIN_WINDOW:
            # int loop with early exit: on small states this beats the
            # vector compare, and failing comparisons stop at the witness
            slo = self._lo.tolist()
            shi = self._hi.tolist()
            base = self._base
            ob = other._base
            olo_arr, ohi_arr = other._lo, other._hi
            on = olo_arr.shape[0]
            other_payload = other._payload
            for j in range(n):
                sl = slo[j]
                sh = shi[j]
                if sl > sh:
                    continue
                oj = base + j - ob
                if 0 <= oj < on:
                    if sl >= olo_arr.item(oj) and sh <= ohi_arr.item(oj):
                        continue
                ov = other_payload.get(base + j)
                if ov is None or not _value_of_bounds(sl, sh).leq(ov):
                    return False
            return True
        wlo, whi = self._aligned_window(other)
        present = self._lo <= self._hi
        bad = present & ~((self._lo >= wlo) & (self._hi <= whi))
        if not bad.any():
            return True
        # a row failing the vector containment may still be covered by a
        # payload value on the other side (absent row there)
        other_payload = other._payload
        if not other_payload:
            return False
        for j in np.nonzero(bad)[0].tolist():
            ov = other_payload.get(self._base + j)
            if ov is None:
                return False
            row = _value_of_bounds(self._lo.item(j), self._hi.item(j))
            if not row.leq(ov):
                return False
        return True

    def _merge_generic(
        self,
        other: "AbsState",
        widen: bool,
        thresholds: tuple[int, ...] | None,
        collect: bool,
    ):
        """Value-by-value reference merge, for widening thresholds the int64
        row encoding cannot hold; returns the changed-location set
        (``collect``) or a changed bool."""
        changed_locs: set[AbsLoc] = set()
        changed = False
        for loc, value in other.items():
            old = self.get(loc)
            if old is value:
                continue
            if old.is_bottom():
                self.set(loc, value)
                changed = True
                if collect:
                    changed_locs.add(loc)
                continue
            new = old.widen(value, thresholds) if widen else old.join(value)
            if new is not old and new != old:
                self.set(loc, new)
                changed = True
                if collect:
                    changed_locs.add(loc)
        return changed_locs if collect else changed

    def _merge_array(
        self,
        other: "AbsState",
        widen: bool,
        thresholds: tuple[int, ...] | None,
        collect: bool,
    ):
        """Vectorized in-place join/widen with another state; returns
        the changed-location set (``collect``) or a changed bool. The bulk
        of the state merges as numpy min/max (join) or masked threshold
        selection (widen); payload entries on either side merge value by
        value first, and their ids are masked out of the bulk."""
        thr = None
        if widen and thresholds:
            if all(-_LIM < t < _LIM for t in thresholds):
                thr = np.asarray(thresholds, dtype=np.int64)
            else:
                # absurd thresholds the encoding cannot express: reference path
                return self._merge_generic(other, widen, thresholds, collect)
        changed_locs: set[AbsLoc] = set()
        changed = False
        # 1. other's payload values (per value; may reclassify self's rows)
        for i, value in other._payload.items():
            old = self._get_by_id(i)
            if old is value:
                continue
            if old.is_bottom():
                new = value
            else:
                new = old.widen(value, thresholds) if widen else old.join(value)
            if new is not old and new != old:
                self._set_by_id(i, new)
                changed = True
                if collect:
                    changed_locs.add(loc_of_id(i))
        # 2. other's bound rows hitting self payload values (per value)
        exclude: list[int] = []
        if self._payload:
            ob = other._base
            olo_full, ohi_full = other._lo, other._hi
            on = len(olo_full)
            for i, old in list(self._payload.items()):
                j = i - ob
                if 0 <= j < on and olo_full[j] <= ohi_full[j]:
                    exclude.append(i)
                    value = _value_of_bounds(int(olo_full[j]), int(ohi_full[j]))
                    new = (
                        old.widen(value, thresholds) if widen else old.join(value)
                    )
                    if new is not old and new != old:
                        self._set_by_id(i, new)
                        changed = True
                        if collect:
                            changed_locs.add(loc_of_id(i))
        # 3. bulk merge over other's present-row window
        o_present = np.nonzero(other._lo <= other._hi)[0]
        if len(o_present) == 0:
            return changed_locs if collect else changed
        lo_id = other._base + int(o_present[0])
        hi_id = other._base + int(o_present[-1])
        self._grow_span(lo_id, hi_id)
        if hi_id - lo_id < _VEC_MIN_WINDOW:
            # 3a. small window: pure-int loop over other's present rows —
            # identical math to the vector path, without numpy's per-op
            # fixed cost (which dominates on the engines' localized states)
            skip = set(exclude)
            ids = (other._base + o_present).tolist()
            olos = other._lo[o_present].tolist()
            ohis = other._hi[o_present].tolist()
            s_lo, s_hi = self._lo, self._hi
            sb = self._base
            for k in range(len(ids)):
                i = ids[k]
                if i in skip:
                    continue
                ol = olos[k]
                oh = ohis[k]
                j = i - sb
                sl = s_lo.item(j)
                sh = s_hi.item(j)
                if not widen:
                    nl = sl if sl <= ol else ol
                    nh = sh if sh >= oh else oh
                elif sl > sh:
                    nl, nh = ol, oh  # ⊥ ∇ v = v
                else:
                    if sl == _NEG_INF or ol >= sl:
                        nl = sl
                    elif thresholds:
                        down = bisect_right(thresholds, ol) - 1
                        nl = thresholds[down] if down >= 0 else _NEG_INF
                    else:
                        nl = _NEG_INF
                    if sh == _POS_INF or oh <= sh:
                        nh = sh
                    elif thresholds:
                        up = bisect_left(thresholds, oh)
                        nh = (
                            thresholds[up]
                            if up < len(thresholds)
                            else _POS_INF
                        )
                    else:
                        nh = _POS_INF
                if nl != sl or nh != sh:
                    if sl > sh:
                        self._n_arr += 1
                    s_lo[j] = nl
                    s_hi[j] = nh
                    changed = True
                    if collect:
                        changed_locs.add(loc_of_id(i))
            return changed_locs if collect else changed
        a0 = lo_id - self._base
        a1 = hi_id + 1 - self._base
        slo = self._lo[a0:a1]
        shi = self._hi[a0:a1]
        c0 = lo_id - other._base
        c1 = hi_id + 1 - other._base
        olo = other._lo[c0:c1]
        ohi = other._hi[c0:c1]
        if exclude:
            olo = olo.copy()
            ohi = ohi.copy()
            for i in exclude:
                if lo_id <= i <= hi_id:
                    olo[i - lo_id] = _ABSENT_LO
                    ohi[i - lo_id] = _ABSENT_HI
        was_present = int(np.count_nonzero(slo <= shi))
        if not widen:
            # absent rows are absorbing sentinels: ⊥ ⊔ v = v for free
            nlo = np.minimum(slo, olo)
            nhi = np.maximum(shi, ohi)
        else:
            keep_lo = (slo == _NEG_INF) | (olo >= slo)
            keep_hi = (shi == _POS_INF) | (ohi <= shi)
            if thr is None:
                nlo = np.where(keep_lo, slo, _NEG_INF)
                nhi = np.where(keep_hi, shi, _POS_INF)
            else:
                # threshold widening: unstable bounds jump to the nearest
                # enclosing threshold (searchsorted = the scalar
                # _threshold_below/_threshold_above on the whole vector)
                down = np.searchsorted(thr, olo, side="right") - 1
                tlo = np.where(down >= 0, thr[np.maximum(down, 0)], _NEG_INF)
                up = np.searchsorted(thr, ohi, side="left")
                thi = np.where(
                    up < len(thr), thr[np.minimum(up, len(thr) - 1)], _POS_INF
                )
                nlo = np.where(keep_lo, slo, tlo)
                nhi = np.where(keep_hi, shi, thi)
            # self-⊥ rows take other's row verbatim (⊥ ∇ v = v)
            sp = slo <= shi
            nlo = np.where(sp, nlo, olo)
            nhi = np.where(sp, nhi, ohi)
        ch = (nlo != slo) | (nhi != shi)
        if ch.any():
            slo[:] = nlo
            shi[:] = nhi
            self._n_arr += int(np.count_nonzero(nlo <= nhi)) - was_present
            changed = True
            if collect:
                for j in np.nonzero(ch)[0].tolist():
                    changed_locs.add(loc_of_id(lo_id + j))
        return changed_locs if collect else changed

    def join(self, other: "AbsState") -> "AbsState":
        out = self.copy()
        out.join_with(other)
        return out

    def join_with(self, other: "AbsState") -> bool:
        """In-place join; returns True when this state grew."""
        if self is other:
            return False
        return self._merge_array(other, False, None, False)

    def widen_with(
        self, other: "AbsState", thresholds: tuple[int, ...] | None = None
    ) -> bool:
        """In-place widening (pointwise); returns True when this state grew."""
        if self is other:
            return False
        return self._merge_array(other, True, thresholds, False)

    def join_changed(self, other: "AbsState") -> set[AbsLoc]:
        """In-place join returning exactly the locations that changed —
        lets the sparse engine propagate per location, not per node."""
        if self is other:
            return set()
        return self._merge_array(other, False, None, True)

    def widen_changed(
        self, other: "AbsState", thresholds: tuple[int, ...] | None = None
    ) -> set[AbsLoc]:
        if self is other:
            return set()
        return self._merge_array(other, True, thresholds, True)

    def join_entries_from(self, other: "AbsState", locs: Iterable[AbsLoc]) -> bool:
        """Per-location push without AbsValue materialization when both
        sides hold plain bound rows (the sparse engines' hottest loop)."""
        grew = False
        other_payload = other._payload
        ob = other._base
        olo, ohi = other._lo, other._hi
        on = olo.shape[0]
        for loc in locs:
            i = _loc_ids_get(loc)
            if i is None:
                continue
            value = other_payload.get(i)
            if value is None:
                j = i - ob
                if not (0 <= j < on):
                    continue
                vlo = olo.item(j)
                vhi = ohi.item(j)
                if vlo > vhi:
                    continue  # ⊥ on the source side: nothing to push
                if i in self._payload:
                    old = self._payload[i]
                    new = old.join(_value_of_bounds(vlo, vhi))
                    if new is not old and new != old:
                        self._set_by_id(i, new)
                        grew = True
                    continue
                sj = i - self._base
                if 0 <= sj < len(self._lo):
                    slo_ = self._lo.item(sj)
                    shi_ = self._hi.item(sj)
                else:
                    slo_, shi_ = _ABSENT_LO, _ABSENT_HI
                nlo = min(slo_, vlo)
                nhi = max(shi_, vhi)
                if nlo != slo_ or nhi != shi_:
                    if self._row_fits(i):
                        self._grow_span(i, i)
                        sj = i - self._base
                        if self._lo[sj] > self._hi[sj]:
                            self._n_arr += 1
                        self._lo[sj] = nlo
                        self._hi[sj] = nhi
                    else:
                        self._payload[i] = _value_of_bounds(nlo, nhi)
                    grew = True
            else:
                old = self._get_by_id(i)
                if old is value:
                    continue
                new = old.join(value)
                if new is not old and new != old:
                    self._set_by_id(i, new)
                    grew = True
        return grew

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, AbsState):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self._payload.keys() != other._payload.keys():
            # the same entry can sit in a row on one side and in the payload
            # table on the other (_row_fits depends on insertion order):
            # compare values, not placement
            return all(other.get(loc) == value for loc, value in self.items())
        if self._payload != other._payload:
            return False
        if self._n_arr == 0:
            return True
        # equal row counts + equality over self's span ⇒ no present row
        # of other lies outside it
        wlo, whi = self._aligned_window(other)
        return bool(
            np.array_equal(self._lo, wlo) and np.array_equal(self._hi, whi)
        )

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{l} ↦ {v}"
            for l, v in sorted(self.items(), key=lambda kv: kv[0].sort_key())
        )
        return "{" + entries + "}"
