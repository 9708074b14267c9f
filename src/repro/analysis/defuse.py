"""Safe approximation of definition and use sets (Sections 2.5, 3.2).

``D̂(c)``/``Û(c)`` are derived *semantically*: each command's abstract
transfer function runs once over the pre-analysis state ``T̂_pre`` with an
:class:`AccessLog` attached, so every location it may read or write —
including implicit uses of weakly-updated targets — is recorded. This is
exactly the derivation of Section 3.2 and satisfies Definition 5
(Lemma 3): writes against a conservative input over-approximate writes
against any reachable input, and spurious definitions are weak updates,
which the log also marks as uses.

Procedure-level summaries (all locations defined/used by a procedure and
its transitive callees) feed both the interprocedural dependency generation
of Section 5 and the access-based localization of the baseline analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.preanalysis import PreAnalysis
from repro.analysis.semantics import AccessLog, AnalysisContext, transfer
from repro.domains.absloc import AbsLoc, RetLoc, VarLoc
from repro.ir.commands import CCall, CRetBind
from repro.ir.program import Program
from repro.runtime.worker import beat


@dataclass
class DefUseInfo:
    """Per-node and per-procedure def/use sets."""

    defs: dict[int, frozenset[AbsLoc]] = field(default_factory=dict)
    uses: dict[int, frozenset[AbsLoc]] = field(default_factory=dict)
    #: killing (strong) writes per node — seeds of the must-def analysis
    strong_defs: dict[int, frozenset[AbsLoc]] = field(default_factory=dict)
    #: locations strongly defined on *every* path through a procedure
    proc_must_defs: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    #: locations defined by a procedure's own body
    proc_defs: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    proc_uses: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    #: closed under transitive callees
    proc_defs_trans: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    proc_uses_trans: dict[str, frozenset[AbsLoc]] = field(default_factory=dict)
    #: transitive callees of each procedure (including itself)
    proc_callees_trans: dict[str, frozenset[str]] = field(default_factory=dict)

    def d(self, nid: int) -> frozenset[AbsLoc]:
        return self.defs.get(nid, frozenset())

    def u(self, nid: int) -> frozenset[AbsLoc]:
        return self.uses.get(nid, frozenset())

    def accessed_by(self, proc: str) -> frozenset[AbsLoc]:
        """All locations the procedure (with callees) may touch."""
        return self.proc_defs_trans.get(proc, frozenset()) | self.proc_uses_trans.get(
            proc, frozenset()
        )

    def average_sizes(self) -> tuple[float, float]:
        """Average |D̂(c)| and |Û(c)| — the Table 2/3 sparsity columns."""
        n = max(len(self.defs), 1)
        d = sum(len(s) for s in self.defs.values()) / n
        u = sum(len(s) for s in self.uses.values()) / n
        return d, u


def compute_defuse(program: Program, pre: PreAnalysis) -> DefUseInfo:
    """Compute node-level D̂/Û from the pre-analysis, then close
    procedure summaries over the call graph.

    The derivation runs the non-strict transfer functions: an assume that
    looks infeasible under the coarse pre-state must still be recorded as
    defining/using what it refines, or dependency chains would bypass the
    refinement point.
    """
    ctx = AnalysisContext(program, pre.site_callees, strict=False)
    info = DefUseInfo()

    for node in program.nodes():
        beat()
        log = AccessLog()
        transfer(node, pre.state, ctx, log)
        info.defs[node.nid] = frozenset(log.defined)
        info.uses[node.nid] = frozenset(log.used)
        info.strong_defs[node.nid] = frozenset(log.strong_defined)

    by_proc_defs: dict[str, set[AbsLoc]] = {p: set() for p in program.procedures()}
    by_proc_uses: dict[str, set[AbsLoc]] = {p: set() for p in program.procedures()}
    for node in program.nodes():
        by_proc_defs[node.proc].update(info.defs[node.nid])
        by_proc_uses[node.proc].update(info.uses[node.nid])
    info.proc_defs = {p: frozenset(s) for p, s in by_proc_defs.items()}
    info.proc_uses = {p: frozenset(s) for p, s in by_proc_uses.items()}

    # Transitive closure over the (possibly cyclic) call graph by chaotic
    # iteration — cheap because summaries only grow.
    calls: dict[str, set[str]] = {p: set() for p in program.procedures()}
    for node in program.nodes():
        if isinstance(node.cmd, CCall):
            for callee in pre.site_callees.get(node.nid, ()):
                calls[node.proc].add(callee)
    trans_defs = {p: set(s) for p, s in by_proc_defs.items()}
    trans_uses = {p: set(s) for p, s in by_proc_uses.items()}
    trans_callees: dict[str, set[str]] = {
        p: {p} | calls.get(p, set()) for p in program.procedures()
    }
    changed = True
    while changed:
        changed = False
        for caller, callees in calls.items():
            for callee in callees:
                before = (
                    len(trans_defs[caller])
                    + len(trans_uses[caller])
                    + len(trans_callees[caller])
                )
                trans_defs[caller].update(trans_defs.get(callee, ()))
                trans_uses[caller].update(trans_uses.get(callee, ()))
                trans_callees[caller].update(trans_callees.get(callee, ()))
                after = (
                    len(trans_defs[caller])
                    + len(trans_uses[caller])
                    + len(trans_callees[caller])
                )
                if after != before:
                    changed = True
    info.proc_defs_trans = {p: frozenset(s) for p, s in trans_defs.items()}
    info.proc_uses_trans = {p: frozenset(s) for p, s in trans_uses.items()}
    info.proc_callees_trans = {p: frozenset(s) for p, s in trans_callees.items()}
    _compute_must_defs(program, pre, info)
    return info


def _compute_must_defs(
    program: Program, pre: PreAnalysis, info: DefUseInfo
) -> None:
    """Interprocedural must-def analysis.

    ``proc_must_defs[p]`` under-approximates the locations *strongly*
    defined on every entry→exit path of ``p`` (including through callees).
    A call kills exactly these, so a definition before a call that always
    overwrites ``l`` does not spuriously flow past the return site.

    Greatest fixpoint: procedure summaries start at their may-def sets and
    shrink; within a procedure a standard all-paths forward intersection
    runs over the CFG.
    """
    must: dict[str, frozenset[AbsLoc]] = {
        p: info.proc_defs_trans.get(p, frozenset()) for p in program.procedures()
    }
    changed = True
    while changed:
        changed = False
        for proc, cfg in program.cfgs.items():
            beat()
            new = _proc_must(program, pre, info, must, proc)
            if new != must[proc]:
                must[proc] = new
                changed = True
    info.proc_must_defs = must


def _proc_must(
    program: Program,
    pre: PreAnalysis,
    info: DefUseInfo,
    must: dict[str, frozenset[AbsLoc]],
    proc: str,
) -> frozenset[AbsLoc]:
    cfg = program.cfgs[proc]
    if cfg.entry is None or cfg.exit is None:
        return frozenset()
    universe = info.proc_defs_trans.get(proc, frozenset())
    out: dict[int, frozenset[AbsLoc]] = {
        n.nid: universe for n in cfg.nodes
    }
    out[cfg.entry.nid] = info.strong_defs.get(cfg.entry.nid, frozenset())
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            nid = node.nid
            if nid == cfg.entry.nid:
                continue
            preds = cfg.preds.get(nid, [])
            if preds:
                acc: frozenset[AbsLoc] | None = None
                for p in preds:
                    acc = out[p] if acc is None else acc & out[p]
                in_set = acc if acc is not None else frozenset()
            else:
                in_set = frozenset()
            gen = set(info.strong_defs.get(nid, frozenset()))
            if isinstance(node.cmd, CRetBind):
                call_node = program.node(node.cmd.call_node)
                callees = pre.site_callees.get(call_node.nid, ())
                if callees:
                    callee_must: frozenset[AbsLoc] | None = None
                    for k in callees:
                        m = must.get(k, frozenset())
                        callee_must = m if callee_must is None else callee_must & m
                    gen |= callee_must or frozenset()
            new = frozenset(in_set | gen)
            if new != out[nid]:
                out[nid] = new
                changed = True
    return out[cfg.exit.nid]


def localization_set(
    program: Program, info: DefUseInfo, callee: str
) -> frozenset[AbsLoc]:
    """The locations the access-based localization [38] passes into
    ``callee``: everything the callee may (transitively) access, plus the
    formals and return cells of every procedure along the call chain."""
    acc: set[AbsLoc] = set(info.accessed_by(callee))
    for proc in info.proc_callees_trans.get(callee, frozenset({callee})):
        pinfo = program.proc_infos.get(proc)
        if pinfo is not None:
            acc.update(VarLoc(p, proc) for p in pinfo.params)
        acc.add(RetLoc(proc))
    return frozenset(acc)
