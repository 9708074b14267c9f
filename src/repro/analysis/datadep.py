"""Data-dependency generation (Sections 2.6, 2.8 and 5).

A data dependency ``c0 —l→ cn`` (Definition 4, over approximated D̂/Û)
means: some path from ``c0`` to ``cn`` carries the value of abstract
location ``l`` from its definition at ``c0`` to its use at ``cn`` with no
intermediate (approximated) definition. The sparse engine propagates values
along these edges only.

Following Section 5, dependencies are generated **per procedure** to avoid
the spurious interprocedural dependencies of the naïve whole-graph approach:

* a call node counts as a *use* of everything its callees (transitively)
  use, a return-site node as a *definition* of everything they define;
* the entry of a procedure counts as a definition of everything the body
  uses; the exit as a use of everything the body defines;
* after per-procedure generation, interprocedural edges connect call sites
  to callee entries (for used locations) and callee exits to return sites
  (for defined locations);
* finally the **bypass optimization** links each real definition straight
  to the real uses it reaches through *pass-through* nodes (neither really
  defining nor using ``l``, and no widening point) — this is what makes
  the analysis *fully* sparse across call chains.

All of it runs on small ints: each generation interns its locations
(``AbsLoc``s, or octagon packs) in a :class:`LocTable`, converts every
D̂/Û set once, and :class:`DataDeps` stores the relation per location id,
converting back only at its API boundary. The bypass is one memoized
closure per location: the real nodes reached through each pass-through
node are computed once. D̂/Û carriers and widening points are its only
split points, as in Tavares et al.'s parameterized sparse representations.

Two intra-procedural chain generators are provided: an SSA-based one
(dominance frontiers for phi placement + a renaming walk; the paper's
choice) and a reaching-definitions one (reference implementation used to
cross-check the SSA generator in tests).
"""

from __future__ import annotations

import functools
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.defuse import DefUseInfo
from repro.analysis.preanalysis import PreAnalysis
from repro.domains.absloc import AbsLoc
from repro.ir.cfg import ProcCFG
from repro.ir.commands import CCall, CRetBind
from repro.ir.dominators import compute_dominators, iterated_frontier
from repro.ir.program import Program
from repro.runtime.worker import beat

_EMPTY: frozenset = frozenset()


class LocTable:
    """Locations interned to small ints, private to one generation (octagon
    dependencies are keyed by packs, which have no global ids)."""

    def __init__(self) -> None:
        #: location → id; ids are insertion positions, so ``list(index)``
        #: maps ids back to locations
        self.index: dict = {}
        #: converted location sets, keyed by the set itself
        self.sets: dict[frozenset, frozenset[int]] = {}

    def intern(self, loc) -> int:
        return self.index.setdefault(loc, len(self.index))

    def ids(self, locs: frozenset) -> frozenset[int]:
        """``locs`` as ids; each distinct set is converted once."""
        out = self.sets.get(locs)
        if out is None:
            out = self.sets[locs] = frozenset(map(self.intern, locs))
        return out


def _link(by_src: dict[int, tuple[int, ...]], src: int, dst: int) -> None:
    dsts = by_src.get(src, ())
    if dst not in dsts:
        by_src[src] = dsts + (dst,)


class DataDeps:
    """The ternary dependency relation ``↝ ⊆ C × L̂ × C``, stored per
    location id as ``src → (dst, ...)`` adjacency (int tuples give the
    garbage collector nothing to trace). The node-pair views the engines
    read (``out_edges``/``in_edges``) are built on first read and dropped
    on ``add``/``remove``."""

    def __init__(self, table: LocTable | None = None) -> None:
        self.table = table if table is not None else LocTable()
        self._adj: defaultdict[int, dict[int, tuple[int, ...]]] = defaultdict(dict)
        self._views: tuple[dict, dict] | None = None

    def add(self, src: int, dst: int, loc: AbsLoc) -> None:
        _link(self._adj[self.table.intern(loc)], src, dst)
        self._views = None

    def remove(self, src: int, dst: int, loc: AbsLoc) -> None:
        if self.has(src, dst, loc):
            by_src = self._adj[self.table.index[loc]]
            by_src[src] = tuple(d for d in by_src[src] if d != dst)
            self._views = None

    def has(self, src: int, dst: int, loc: AbsLoc) -> bool:
        return dst in self._adj.get(self.table.index.get(loc), {}).get(src, ())

    def out_edges(self, src: int) -> Sequence[tuple[int, frozenset[AbsLoc]]]:
        return self._edge_views()[0].get(src, ())

    def in_edges(self, dst: int) -> Sequence[tuple[int, frozenset[AbsLoc]]]:
        return self._edge_views()[1].get(dst, ())

    def _edge_views(self) -> tuple[dict, dict]:
        if self._views is None:
            rows: defaultdict[int, defaultdict[int, list]] = defaultdict(
                lambda: defaultdict(list)
            )
            by_id = list(self.table.index)
            for loc_id, by_src in self._adj.items():
                loc = by_id[loc_id]
                for src, dsts in by_src.items():
                    row = rows[src]
                    for dst in dsts:
                        row[dst].append(loc)
            out: dict[int, list] = {}
            into: defaultdict[int, list] = defaultdict(list)
            for src, row in rows.items():
                out[src] = [(dst, frozenset(locs)) for dst, locs in row.items()]
                for dst, locs in out[src]:
                    into[dst].append((src, locs))
            self._views = (out, dict(into))
        return self._views

    def triples(self) -> Iterator[tuple[int, int, AbsLoc]]:
        by_id = list(self.table.index)
        for loc_id, by_src in self._adj.items():
            loc = by_id[loc_id]
            for src, dsts in by_src.items():
                for dst in dsts:
                    yield src, dst, loc

    def __len__(self) -> int:
        return sum(len(d) for by_src in self._adj.values() for d in by_src.values())

    def node_succs(self) -> dict[int, list[int]]:
        """Projection to a plain node graph (for widening-point detection)."""
        return {
            src: [dst for dst, _ in edges]
            for src, edges in self._edge_views()[0].items()
        }


@dataclass
class AugmentedDefUse:
    """Per-node D̂/Û augmented with the Section 5 procedure summaries, as
    location ids of the generation's :class:`LocTable`."""

    defs: dict[int, frozenset[int]] = field(default_factory=dict)
    uses: dict[int, frozenset[int]] = field(default_factory=dict)
    #: per-node uses satisfied *only* by interprocedural edges (callee
    #: exit → retbind); the intraprocedural chain generators must not
    #: connect a caller-side reaching definition to them, or the sparse
    #: engine would join the stale pre-call value with the callee's
    #: result — the dense engines route the whole state through the
    #: callee, never around it
    routed: dict[int, frozenset[int]] = field(default_factory=dict)


def _grow(sets: dict[int, frozenset[int]], nid: int, extra: frozenset[int]) -> None:
    if extra:
        sets[nid] = sets.get(nid, _EMPTY) | extra


def _callee_summary(defuse: DefUseInfo, ids, callees: tuple[str, ...]):
    """``(uses, defs, bypass_needed, routed)`` of one call site's callees."""
    if not callees:
        return _EMPTY, _EMPTY, _EMPTY, _EMPTY
    uses = [ids(defuse.proc_uses_trans.get(k, _EMPTY)) for k in callees]
    defs = [ids(defuse.proc_defs_trans.get(k, _EMPTY)) for k in callees]
    all_defs = _EMPTY.union(*defs)
    # Locations every callee routes through its body (kills on all paths,
    # or reads so the value travels the callee's own chains). Any other
    # callee definition leaves the pre-call value alive around the call, so
    # the return site must also *use* it. A location every callee defines
    # and routes is carried by the callee-exit edge alone: chaining the
    # caller-side definition too would re-introduce the stale pre-call
    # value (for octagon packs, the call's parameter binding *defines* a
    # pack the callee refines; joining both loses the refinement).
    through = frozenset.intersection(
        *(ids(defuse.proc_must_defs.get(k, _EMPTY)) | u for k, u in zip(callees, uses))
    )
    bypass_needed = all_defs - through
    routed = frozenset.intersection(*defs) & through
    return _EMPTY.union(*uses), all_defs, bypass_needed, routed


def augment_defuse(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
    table: LocTable,
) -> AugmentedDefUse:
    """Fold callee summaries into call/return/entry/exit nodes."""
    ids = table.ids
    aug = AugmentedDefUse(
        defs={nid: ids(s) for nid, s in defuse.defs.items()},
        uses={nid: ids(s) for nid, s in defuse.uses.items()},
    )
    summary = functools.cache(lambda callees: _callee_summary(defuse, ids, callees))

    for proc, cfg in program.cfgs.items():
        beat()
        if cfg.entry is not None:
            _grow(aug.defs, cfg.entry.nid,
                  ids(defuse.proc_uses_trans.get(proc, _EMPTY)))
        if cfg.exit is not None:
            _grow(aug.uses, cfg.exit.nid,
                  ids(defuse.proc_defs_trans.get(proc, _EMPTY)))
        for node in cfg.nodes:
            if isinstance(node.cmd, CCall):
                uses = summary(pre.site_callees.get(node.nid, ()))[0]
                _grow(aug.uses, node.nid, uses)
            elif isinstance(node.cmd, CRetBind):
                _, defs, bypass_needed, routed = summary(
                    pre.site_callees.get(node.cmd.call_node, ())
                )
                _grow(aug.defs, node.nid, defs)
                _grow(aug.uses, node.nid, bypass_needed)
                _grow(aug.routed, node.nid, routed)
    return aug


# --------------------------------------------------------------------------
# Intraprocedural chain generation: SSA renaming walk
# --------------------------------------------------------------------------


def _ssa_chains(
    cfg: ProcCFG, aug: AugmentedDefUse, deps: DataDeps
) -> None:
    """Generate def-use chains within one procedure via SSA construction.

    Phi placement at iterated dominance frontiers adds ``l`` to both the
    definition and use set of the join node (a safe approximation by
    Definition 5), after which every use has a unique reaching definition
    found by a single renaming walk over the dominator tree.
    """
    assert cfg.entry is not None
    dom = compute_dominators(cfg.entry.nid, cfg.succs, cfg.preds)

    defs_of_loc: defaultdict[int, set[int]] = defaultdict(set)
    for nid in dom.rpo:
        for loc in aug.defs.get(nid, ()):
            defs_of_loc[loc].add(nid)

    phis: dict[int, set[int]] = {nid: set() for nid in dom.rpo}
    for loc, def_sites in defs_of_loc.items():
        for site in iterated_frontier(dom, def_sites):
            phis[site].add(loc)

    adj = deps._adj
    stacks: defaultdict[int, list[int]] = defaultdict(list)

    # Iterative preorder walk over the dominator tree with explicit
    # push/pop bookkeeping (Cytron renaming); a visited node's entry
    # carries the definitions to pop.
    work: list[tuple[int, frozenset[int] | None]] = [(cfg.entry.nid, None)]
    while work:
        nid, pushed = work.pop()
        if pushed is not None:
            for loc in pushed:
                stacks[loc].pop()
            continue
        node_phis = phis[nid]
        # uses satisfied by the phi (incoming dep edges) or by the
        # callee-exit edge alone get no intraprocedural chain
        for loc in aug.uses.get(nid, _EMPTY).difference(
            node_phis, aug.routed.get(nid, ())
        ):
            stack = stacks.get(loc)
            if stack:
                _link(adj[loc], stack[-1], nid)
        node_defs = aug.defs.get(nid, _EMPTY).union(node_phis)
        for loc in node_defs:
            stacks[loc].append(nid)
        for succ in cfg.succs.get(nid, ()):
            for loc in phis.get(succ, ()):
                stack = stacks.get(loc)
                if stack:
                    _link(adj[loc], stack[-1], succ)
        work.append((nid, node_defs))
        for child in reversed(dom.children.get(nid, [])):
            work.append((child, None))


# --------------------------------------------------------------------------
# Intraprocedural chain generation: reaching definitions (reference)
# --------------------------------------------------------------------------


def _reaching_chains(
    cfg: ProcCFG, aug: AugmentedDefUse, deps: DataDeps
) -> None:
    """Reference generator: classic reaching-definitions dataflow, one
    location at a time. Used to cross-check the SSA generator."""
    assert cfg.entry is not None
    locs: set[int] = set()
    for nid in cfg.succs:
        locs.update(aug.defs.get(nid, ()))
        locs.update(aug.uses.get(nid, ()))
    for loc in locs:
        _reaching_one(cfg, aug, deps, loc)


def _reaching_one(
    cfg: ProcCFG, aug: AugmentedDefUse, deps: DataDeps, loc: int
) -> None:
    # IN[n] = set of definition nodes of `loc` reaching n.
    in_sets: dict[int, set[int]] = {nid: set() for nid in cfg.succs}
    work = deque(n.nid for n in cfg.nodes)
    queued = set(work)
    while work:
        nid = work.popleft()
        queued.discard(nid)
        out = {nid} if loc in aug.defs.get(nid, ()) else set(in_sets[nid])
        for succ in cfg.succs.get(nid, ()):
            if not out <= in_sets[succ]:
                in_sets[succ] |= out
                if succ not in queued:
                    queued.add(succ)
                    work.append(succ)
    for nid in cfg.succs:
        if loc in aug.uses.get(nid, ()) and loc not in aug.routed.get(nid, ()):
            for d in in_sets[nid]:
                _link(deps._adj[loc], d, nid)


# --------------------------------------------------------------------------
# Interprocedural edges + bypass optimization
# --------------------------------------------------------------------------


def _add_interproc_edges(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
    deps: DataDeps,
) -> None:
    ids, adj = deps.table.ids, deps._adj
    for node in program.nodes():
        if not isinstance(node.cmd, CCall):
            continue
        cfg = program.cfgs[node.proc]
        retbind = next(
            (
                s
                for s in cfg.succs.get(node.nid, ())
                if isinstance(cfg.node(s).cmd, CRetBind)
            ),
            None,
        )
        for callee in pre.site_callees.get(node.nid, ()):
            callee_cfg = program.cfgs[callee]
            if callee_cfg.entry is not None:
                for loc in ids(defuse.proc_uses_trans.get(callee, _EMPTY)):
                    _link(adj[loc], node.nid, callee_cfg.entry.nid)
            if callee_cfg.exit is not None and retbind is not None:
                for loc in ids(defuse.proc_defs_trans.get(callee, _EMPTY)):
                    _link(adj[loc], callee_cfg.exit.nid, retbind)


def bypass_optimization(
    deps: DataDeps, defuse: DefUseInfo, keep: set[int] | None = None
) -> DataDeps:
    """Rewrite ``a—l→b—l→c`` into ``a—l→c`` whenever ``l`` is neither
    really defined nor used at ``b`` (Section 5), to convergence — computed
    per location by :func:`_resolve`. Nodes in ``keep`` (widening points)
    are never bypassed: values must keep flowing through them so the
    sparse engine widens exactly where the dense one does.
    """
    keep = set(keep or ())
    ids = deps.table.ids
    real_at: dict[int, set[int]] = {}
    for nid in defuse.defs.keys() | defuse.uses.keys():
        for loc in ids(defuse.d(nid)) | ids(defuse.u(nid)):
            real_at.setdefault(loc, set()).add(nid)
    out = DataDeps(deps.table)
    for loc, succs in deps._adj.items():
        beat()
        resolved = _resolve(succs, keep.union(real_at.get(loc, ())))
        if resolved:
            out._adj[loc] = resolved
    return out


def _resolve(
    succs: dict[int, tuple[int, ...]], real: set[int]
) -> dict[int, tuple[int, ...]]:
    """One location's bypassed adjacency: every pass-through target of a
    real source is replaced by the real nodes it reaches. ``reach``
    memoizes those per pass-through node; an iterative Tarjan walk fills
    it, so a strongly connected pass-through region shares one set."""
    reach: dict[int, set[int]] = {}
    index: dict[int, int] = {}  # Tarjan preorder numbers
    stack: list[int] = []  # visited nodes whose region is still open

    def through(root: int) -> set[int]:
        # one frame per open node: [node, successor iterator, low, acc]
        index[root] = len(index)
        stack.append(root)
        frames = [[root, iter(succs.get(root, ())), index[root], set()]]
        while frames:
            frame = frames[-1]
            acc = frame[3]
            for dst in frame[1]:
                if dst in real:
                    acc.add(dst)
                elif dst in reach:
                    acc |= reach[dst]
                elif dst in index:  # open, so in the same region
                    if index[dst] < frame[2]:
                        frame[2] = index[dst]
                else:
                    index[dst] = len(index)
                    stack.append(dst)
                    frames.append([dst, iter(succs.get(dst, ())), index[dst], set()])
                    break
            else:
                frames.pop()
                nid, _, low, acc = frame
                if low == index[nid]:  # nid roots its region: close it
                    while True:
                        member = stack.pop()
                        reach[member] = acc
                        if member == nid:
                            break
                if frames:
                    parent = frames[-1]
                    if low < parent[2]:
                        parent[2] = low
                    parent[3] |= acc
        return reach[root]

    out: dict[int, tuple[int, ...]] = {}
    for src, dsts in succs.items():
        if src not in real:
            continue
        if real.issuperset(dsts):
            out[src] = dsts
            continue
        found: set[int] = set()
        for dst in dsts:
            if dst in real:
                found.add(dst)
            else:
                found |= reach[dst] if dst in reach else through(dst)
        if found:
            out[src] = tuple(found)
    return out


def bypass_optimization_naive(
    deps: DataDeps, defuse: DefUseInfo, keep: set[int] | None = None
) -> DataDeps:
    """The paper's pairwise rewriting, saturated: each ``a—l→b—l→c`` with
    ``b`` pass-through adds ``a—l→c`` until nothing changes; then edges
    touching pass-through nodes are dropped. (Removing ``a—l→b`` at each
    step never converges around a pass-through cycle, which recursion
    creates even between widening points.) The reference for the tests
    and ``bench_bypass``."""
    keep = keep or set()

    def is_real(nid: int, loc: AbsLoc) -> bool:
        return nid in keep or loc in defuse.d(nid) or loc in defuse.u(nid)

    succs: dict[tuple[int, AbsLoc], set[int]] = {}
    for src, dst, loc in deps.triples():
        succs.setdefault((src, loc), set()).add(dst)
    changed = True
    while changed:
        changed = False
        for (_src, loc), dsts in succs.items():
            for dst in list(dsts):
                if is_real(dst, loc):
                    continue
                new = succs.get((dst, loc), set()) - dsts
                if new:
                    dsts |= new
                    changed = True
    cleaned = DataDeps()
    for (src, loc), dsts in succs.items():
        for dst in dsts:
            if is_real(src, loc) and is_real(dst, loc):
                cleaned.add(src, dst, loc)
    return cleaned


@dataclass
class DataDepResult:
    """Generated dependencies plus the augmented def/use view (location
    ids of ``deps.table``)."""

    deps: DataDeps
    aug: AugmentedDefUse
    raw_dep_count: int = 0  # before bypass


def generate_datadeps(
    program: Program,
    pre: PreAnalysis,
    defuse: DefUseInfo,
    method: str = "ssa",
    bypass: bool = True,
    widening_points: set[int] | None = None,
    telemetry=None,
) -> DataDepResult:
    """Generate the full interprocedural data-dependency relation.

    ``widening_points`` (loop heads / recursive entries of the control
    graph) become barriers: they count as definition-and-use of every
    location flowing through their procedure, so dependency chains are cut
    there and the sparse engine widens on exactly the same streams as the
    dense engine — preserving precision *including* widening behaviour.
    """
    wps = widening_points or set()
    deps = DataDeps()
    aug = augment_defuse(program, pre, defuse, deps.table)
    for cfg in program.cfgs.values():
        beat()
        if cfg.entry is None:
            continue
        proc_wps = [n.nid for n in cfg.nodes if n.nid in wps]
        if proc_wps:
            proc_locs = _EMPTY.union(*(aug.defs.get(n.nid, ()) for n in cfg.nodes))
            for wp in proc_wps:
                _grow(aug.defs, wp, proc_locs)
                _grow(aug.uses, wp, proc_locs)
        if method == "ssa":
            _ssa_chains(cfg, aug, deps)
        elif method == "reaching":
            _reaching_chains(cfg, aug, deps)
        else:
            raise ValueError(f"unknown chain generator {method!r}")
    _add_interproc_edges(program, pre, defuse, deps)
    raw = len(deps)
    if bypass:
        deps = bypass_optimization(deps, defuse, keep=wps)
    deps.table.sets.clear()  # the converted sets only serve construction
    if telemetry is not None and telemetry.enabled:
        telemetry.count("dep.generated", raw)
        telemetry.count("dep.bypassed", raw - len(deps))
        telemetry.gauge("dep.final", len(deps))
        telemetry.gauge("dep.widening_barriers", len(wps))
    return DataDepResult(deps, aug, raw_dep_count=raw)
