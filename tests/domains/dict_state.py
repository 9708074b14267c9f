"""The dict-of-``AbsValue`` reference store: the test oracle for
:class:`repro.domains.state.AbsState`.

Every operation is the textbook pointwise definition over a plain dict, so
the equivalence suite can check the array store's vectorized paths, its
payload side table and its changed-set extraction against it. It is not an
``AbsState`` and never meets one: tests compare the two through ``items()``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.domains.absloc import AbsLoc
from repro.domains.value import BOT, AbsValue, intern_value


class DictState:
    """A map from abstract locations to abstract values over a dict."""

    __slots__ = ("_map",)

    def __init__(self, mapping: dict[AbsLoc, AbsValue] | None = None) -> None:
        self._map: dict[AbsLoc, AbsValue] = dict(mapping) if mapping else {}

    # -- access ---------------------------------------------------------------

    def get(self, loc: AbsLoc) -> AbsValue:
        return self._map.get(loc, BOT)

    def set(self, loc: AbsLoc, value: AbsValue) -> None:
        """Strong update."""
        if value.is_bottom():
            self._map.pop(loc, None)
        else:
            self._map[loc] = intern_value(value)

    def weak_set(self, loc: AbsLoc, value: AbsValue) -> None:
        self.set(loc, self.get(loc).join(value))

    def update_locs(self, locs: Iterable[AbsLoc], value: AbsValue) -> None:
        """Strong update of a single non-summary location, weak otherwise."""
        locs = list(locs)
        if len(locs) == 1 and not locs[0].is_summary():
            self.set(locs[0], value)
        else:
            for loc in locs:
                self.weak_set(loc, value)

    def items(self) -> Iterator[tuple[AbsLoc, AbsValue]]:
        return iter(self._map.items())

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, loc: AbsLoc) -> bool:
        return loc in self._map

    def copy(self) -> "DictState":
        return DictState(self._map)

    def delta_items(self, base: "DictState") -> Iterator[tuple[AbsLoc, AbsValue]]:
        """Entries that are not the *same object* as in ``base``."""
        for loc, value in self._map.items():
            if base._map.get(loc) is not value:
                yield loc, value

    def restrict(self, locs: Iterable[AbsLoc]) -> "DictState":
        keep = set(locs)
        return DictState({l: v for l, v in self._map.items() if l in keep})

    def remove(self, locs: Iterable[AbsLoc]) -> "DictState":
        drop = set(locs)
        return DictState({l: v for l, v in self._map.items() if l not in drop})

    # -- lattice --------------------------------------------------------------

    def is_bottom(self) -> bool:
        return not self._map

    def leq(self, other: "DictState") -> bool:
        return all(value.leq(other.get(loc)) for loc, value in self._map.items())

    def _merge(self, other: "DictState", widen: bool, thresholds) -> set[AbsLoc]:
        changed: set[AbsLoc] = set()
        for loc, value in other._map.items():
            old = self._map.get(loc)
            if old is None:
                new = value
            elif widen:
                new = old.widen(value, thresholds)
            else:
                new = old.join(value)
            if new != old:
                self._map[loc] = intern_value(new)
                changed.add(loc)
        return changed

    def join_changed(self, other: "DictState") -> set[AbsLoc]:
        return self._merge(other, False, None)

    def widen_changed(self, other: "DictState", thresholds=None) -> set[AbsLoc]:
        return self._merge(other, True, thresholds)

    def join_with(self, other: "DictState") -> bool:
        return bool(self.join_changed(other))

    def widen_with(self, other: "DictState", thresholds=None) -> bool:
        return bool(self.widen_changed(other, thresholds))

    def join(self, other: "DictState") -> "DictState":
        out = self.copy()
        out.join_with(other)
        return out

    def join_entries_from(self, other: "DictState", locs: Iterable[AbsLoc]) -> bool:
        grew = False
        for loc in locs:
            value = other.get(loc)
            if value.is_bottom():
                continue
            old = self.get(loc)
            new = old.join(value)
            if new != old:
                self.set(loc, new)
                grew = True
        return grew

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DictState):
            return NotImplemented
        return self._map == other._map
