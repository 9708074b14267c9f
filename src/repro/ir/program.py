"""Whole-program IR.

:class:`Program` owns every procedure CFG plus the metadata later phases
need: struct layouts, per-procedure variable tables, string-literal sites,
and the synthetic ``__init`` procedure that runs global initializers and
calls ``main``. It is the ⟨C, ↪⟩ of the paper: :meth:`Program.nodes` is the
set of control points and intraprocedural edges live in the per-procedure
CFGs. Interprocedural (call/return) edges are added by the analyses once the
call graph is resolved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.frontend import cast as A
from repro.frontend import parse
from repro.frontend.ctypes import (
    ArrayType,
    CType,
    FuncType,
    IntType,
    StructLayout,
    StructType,
)
from repro.ir.cfg import Node, NodeFactory, ProcCFG
from repro.ir.commands import (
    CAlloc,
    CCall,
    CRetBind,
    CSet,
    EAddrOf,
    ENum,
    EUnknown,
    Expr,
    VarLv,
)
from repro.ir.lowering import (
    FunctionLowerer,
    ProcInfo,
    Scope,
    _array_total_length,
)
from repro.runtime.worker import beat

INIT_PROC = "__init"


@dataclass
class Program:
    """A lowered whole program."""

    cfgs: dict[str, ProcCFG] = field(default_factory=dict)
    proc_infos: dict[str, ProcInfo] = field(default_factory=dict)
    structs: dict[str, StructLayout] = field(default_factory=dict)
    string_literals: dict[str, str] = field(default_factory=dict)
    factory: NodeFactory = field(default_factory=NodeFactory)
    global_types: dict[str, CType] = field(default_factory=dict)
    main: str = "main"
    #: functions whose bodies could not be parsed/lowered under error
    #: recovery, mapped to the soundness note explaining how calls to them
    #: are modelled (an explicit havoc stub: globals ⊤, return ⊤)
    quarantined: dict[str, str] = field(default_factory=dict)

    # -- node access -----------------------------------------------------------

    def nodes(self) -> list[Node]:
        """All control points, in id order."""
        out: list[Node] = []
        for cfg in self.cfgs.values():
            out.extend(cfg.nodes)
        out.sort(key=lambda n: n.nid)
        return out

    def node(self, nid: int) -> Node:
        return self.factory.nodes[nid]

    def cfg_of(self, node: Node) -> ProcCFG:
        return self.cfgs[node.proc]

    def entry_node(self) -> Node:
        entry = self.cfgs[INIT_PROC].entry
        assert entry is not None
        return entry

    def procedures(self) -> list[str]:
        return list(self.cfgs.keys())

    def defined_functions(self) -> set[str]:
        """Procedures that have bodies (excluding the synthetic init)."""
        return {p for p in self.cfgs if p != INIT_PROC}

    def analyzed_functions(self) -> set[str]:
        """Defined functions excluding quarantined havoc stubs — the set
        the analysis produces real (non-stub) tables for."""
        return self.defined_functions() - set(self.quarantined)

    # -- statistics (Table 1 columns) -------------------------------------------

    def num_statements(self) -> int:
        return sum(len(cfg.nodes) for cfg in self.cfgs.values())

    def num_functions(self) -> int:
        return len(self.defined_functions())


class ProgramBuilder:
    """Lowers a :class:`TranslationUnit` into a :class:`Program`.

    With a :class:`~repro.frontend.errors.DiagnosticBag` attached, lowering
    failures are recovered per function: the offending function is
    quarantined behind a havoc stub (like bodies that already failed to
    parse) instead of killing the whole translation unit.
    """

    def __init__(
        self,
        unit: A.TranslationUnit,
        main: str = "main",
        diagnostics=None,
    ) -> None:
        self.unit = unit
        self.main = main
        self.diagnostics = diagnostics

    def build(self, call_orphans: bool = False) -> Program:
        """Lower every function plus the synthetic ``__init`` procedure.

        ``call_orphans`` mirrors the paper's treatment of callbacks:
        procedures unreachable from ``main`` are explicitly called from the
        root so they get analyzed.
        """
        from repro.frontend.errors import FrontendError

        program = Program(main=self.main)
        program.structs = dict(self.unit.structs)
        factory = program.factory

        func_names = {f.name for f in self.unit.functions}
        func_names |= {p.name for p in self.unit.prototypes}

        global_scope = Scope()
        for g in self.unit.globals:
            ctype = g.ctype
            if isinstance(ctype, FuncType):
                continue
            global_scope.bind(g.name, g.name, ctype)
            program.global_types[g.name] = ctype

        for fn in self.unit.functions:
            beat()
            if fn.quarantined:
                self._build_havoc_stub(program, fn, global_scope, func_names)
                continue
            lowerer = FunctionLowerer(
                self.unit,
                fn.name,
                factory,
                global_scope,
                program.structs,
                func_names,
            )
            try:
                cfg, info = lowerer.lower(fn)
            except FrontendError as exc:
                if self.diagnostics is None:
                    raise
                # Partial CFG nodes stay in the factory but in no CFG, so
                # no later phase ever visits them.
                self.diagnostics.record_exception(exc, "lowering")
                self.diagnostics.note(
                    f"function {fn.name!r} quarantined: body failed to "
                    "lower; calls are modelled by a havoc stub "
                    "(globals and return value assumed unknown)",
                    fn.pos,
                )
                self._build_havoc_stub(program, fn, global_scope, func_names)
                continue
            program.cfgs[fn.name] = cfg
            program.proc_infos[fn.name] = info
            program.string_literals.update(lowerer.string_literals)

        self._build_init_proc(program, global_scope, func_names, call_orphans)
        return program

    def _build_havoc_stub(
        self,
        program: Program,
        fn: A.FuncDef,
        global_scope: Scope,
        func_names: set[str],
    ) -> None:
        """Replace a quarantined function with an explicit havoc stub.

        The stub is the sound over-approximation of an arbitrary body over
        the modelled state: every global is assumed unknown (⊤) and so is
        the return value, so calls into the quarantine stay conservative.
        Parameters are registered normally so argument binding at call
        sites keeps working.
        """
        from repro.frontend.ctypes import PointerType
        from repro.ir.commands import CEntry, CExit, CReturn

        lowerer = FunctionLowerer(
            self.unit,
            fn.name,
            program.factory,
            global_scope,
            program.structs,
            func_names,
        )
        cfg, info = lowerer.cfg, lowerer.info
        info.ret_type = fn.ret_type
        info.variadic = fn.variadic
        entry = cfg.add_node(CEntry(fn.name), fn.pos.line)
        cfg.entry = entry
        lowerer._frontier = [entry]
        for p in fn.params:
            slot = p.name or lowerer._fresh_temp("arg").name
            ptype = p.ctype
            if isinstance(ptype, ArrayType):
                ptype = PointerType(ptype.element)
            lowerer.scope.bind(p.name, slot, ptype)
            info.params.append(slot)
            info.var_types[slot] = ptype
        havoc = EUnknown(f"quarantine:{fn.name}")
        for gname in program.global_types:
            lowerer._emit(CSet(VarLv(gname, None), havoc), fn.pos.line)
        lowerer._emit(CReturn(havoc), fn.pos.line)
        exit_node = cfg.add_node(CExit(fn.name), fn.pos.line)
        for f in lowerer._frontier + lowerer._returns:
            cfg.add_edge(f, exit_node)
        cfg.exit = exit_node
        program.cfgs[fn.name] = cfg
        program.proc_infos[fn.name] = info
        program.quarantined[fn.name] = (
            "calls are modelled by a havoc stub: all globals and the "
            "return value are assumed unknown (sound for the modelled "
            "state; unmodelled effects of the real body are lost)"
        )

    def _build_init_proc(
        self,
        program: Program,
        global_scope: Scope,
        func_names: set[str],
        call_orphans: bool,
    ) -> None:
        """Synthesize ``__init``: global initializers, then call main (and
        optionally every orphan procedure)."""
        init_fn = A.FuncDef(
            name=INIT_PROC,
            ret_type=IntType(),
            params=[],
            body=A.Compound([]),
        )
        lowerer = FunctionLowerer(
            self.unit,
            INIT_PROC,
            program.factory,
            global_scope,
            program.structs,
            func_names,
        )
        cfg = lowerer.cfg
        from repro.ir.commands import CEntry, CExit

        entry = cfg.add_node(CEntry(INIT_PROC))
        cfg.entry = entry
        lowerer._frontier = [entry]

        for g in self.unit.globals:
            if isinstance(g.ctype, FuncType):
                continue
            lv = VarLv(g.name, None)
            if isinstance(g.ctype, ArrayType):
                size = _array_total_length(g.ctype)
                site = f"{INIT_PROC}:arr:{g.pos.line}:{g.name}"
                size_expr: Expr = ENum(size) if size is not None else EUnknown("vla")
                lowerer._emit(CAlloc(lv, size_expr, site), g.pos.line)
                if g.init is not None:
                    lowerer._lower_array_init(lv, g.ctype, g.init, g.pos.line)
            elif g.init is not None:
                if isinstance(g.ctype, StructType) and isinstance(
                    g.init, A.CommaExpr
                ):
                    lowerer._lower_struct_init(lv, g.ctype, g.init, g.pos.line)
                else:
                    value = lowerer._lower_expr(g.init, g.pos.line)
                    lowerer._emit(CSet(lv, value), g.pos.line)
            else:
                # Uninitialized globals are zero in C.
                lowerer._emit(CSet(lv, ENum(0)), g.pos.line)

        targets = []
        if self.main in program.cfgs:
            targets.append(self.main)
        if call_orphans:
            reachable = _statically_reachable(program, self.main)
            targets.extend(
                sorted(p for p in program.defined_functions() if p not in reachable)
            )
        for target in targets:
            info = program.proc_infos[target]
            args = tuple(EUnknown(f"arg-{p}") for p in info.params)
            call = lowerer._emit(
                CCall(EAddrOf(VarLv(target, None)), args, target)
            )
            lowerer._emit(CRetBind(None, call.nid))

        exit_node = cfg.add_node(CExit(INIT_PROC))
        for f in lowerer._frontier:
            cfg.add_edge(f, exit_node)
        cfg.exit = exit_node
        program.cfgs[INIT_PROC] = cfg
        program.proc_infos[INIT_PROC] = lowerer.info
        program.string_literals.update(lowerer.string_literals)


def _statically_reachable(program: Program, root: str) -> set[str]:
    """Procedures reachable from ``root`` via direct (named) calls only —
    a cheap pre-callgraph reachability used to find orphan procedures."""
    seen: set[str] = set()
    stack = [root] if root in program.cfgs else []
    while stack:
        proc = stack.pop()
        if proc in seen:
            continue
        seen.add(proc)
        for node in program.cfgs[proc].nodes:
            cmd = node.cmd
            if isinstance(cmd, CCall) and cmd.static_callee in program.cfgs:
                if cmd.static_callee not in seen:
                    stack.append(cmd.static_callee)
    return seen


def build_program(
    source: str,
    filename: str = "<input>",
    main: str = "main",
    call_orphans: bool = False,
    telemetry=None,
    diagnostics=None,
) -> Program:
    """Parse and lower C-subset ``source`` into a whole-program IR.

    With a :class:`repro.telemetry.Telemetry` registry attached, the two
    frontend stages are traced as ``parse``/``lower`` spans (nested under
    the caller's ``frontend`` phase span) with size counters.

    With a :class:`~repro.frontend.errors.DiagnosticBag`, the frontend runs
    in panic-mode recovery: lex/parse/lowering errors are recorded in the
    bag, unparseable or unlowerable functions are quarantined behind havoc
    stubs (named in ``program.quarantined``), and every clean function
    still reaches the analysis.
    """
    from repro.telemetry.core import Telemetry

    tel = Telemetry.coerce(telemetry)
    with tel.span("parse", category="frontend", file=filename) as sp:
        unit = parse(source, filename, diagnostics)
        sp.set(functions=len(unit.functions))
    with tel.span("lower", category="frontend"):
        program = ProgramBuilder(unit, main, diagnostics).build(
            call_orphans=call_orphans
        )
    tel.count("frontend.source_lines", source.count("\n") + 1)
    tel.count("frontend.procedures", program.num_functions())
    tel.count("frontend.control_points", program.num_statements())
    if diagnostics is not None:
        tel.count("frontend.diagnostics", len(diagnostics.errors()))
        tel.count("frontend.quarantined", len(program.quarantined))
    return program
