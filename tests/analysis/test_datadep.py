"""Data-dependency generation: SSA vs reaching-defs, interprocedural edges,
and the bypass optimization."""

import os

import pytest

from repro.analysis.datadep import (
    DataDeps,
    bypass_optimization,
    bypass_optimization_naive,
    generate_datadeps,
)
from repro.analysis.defuse import DefUseInfo, compute_defuse
from repro.analysis.dense import build_interproc_graph
from repro.analysis.preanalysis import run_preanalysis
from repro.analysis.relational import RelContext, compute_rel_defuse
from repro.analysis.schedule import GraphView, widening_points_for
from repro.bench.codegen import WorkloadSpec, generate_source
from repro.domains.absloc import RetLoc, VarLoc
from repro.domains.packs import build_packs
from repro.ir.program import build_program

#: random programs for the closure ≡ naive property (REPRO_FUZZ_SEEDS
#: sets the budget, as for the fuzz suites)
N_SEEDS = int(os.environ.get("REPRO_FUZZ_SEEDS", "10"))


def setup(src):
    program = build_program(src)
    pre = run_preanalysis(program)
    du = compute_defuse(program, pre)
    return program, pre, du


def node(program, fragment, proc=None):
    for n in program.nodes():
        if proc is not None and n.proc != proc:
            continue
        if fragment in str(n.cmd):
            return n
    raise AssertionError(fragment)


class TestDataDepsContainer:
    def test_add_and_has(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        assert d.has(1, 2, VarLoc("x"))
        assert not d.has(2, 1, VarLoc("x"))
        assert len(d) == 1

    def test_duplicate_add_is_idempotent(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.add(1, 2, VarLoc("x"))
        assert len(d) == 1

    def test_remove(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.remove(1, 2, VarLoc("x"))
        assert len(d) == 0 and not d.has(1, 2, VarLoc("x"))

    def test_edges_grouped_by_pair(self):
        d = DataDeps()
        d.add(1, 2, VarLoc("x"))
        d.add(1, 2, VarLoc("y"))
        d.add(1, 3, VarLoc("x"))
        outs = dict(d.out_edges(1))
        assert outs[2] == {VarLoc("x"), VarLoc("y")}
        assert outs[3] == {VarLoc("x")}

    def test_in_edges_mirror(self):
        d = DataDeps()
        d.add(1, 3, VarLoc("x"))
        d.add(2, 3, VarLoc("x"))
        assert {src for src, _ in d.in_edges(3)} == {1, 2}


class TestIntraprocChains:
    SRC = """
    int main(void) {
      int x = 1;
      int y = x + 1;
      int z = x + y;
      return z;
    }
    """

    def test_straight_line_chains(self):
        program, pre, du = setup(self.SRC)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        nx = node(program, "x := 1").nid
        ny = node(program, "y := (main::x + 1)").nid
        nz = node(program, "z := (main::x + main::y)").nid
        x, y = VarLoc("x", "main"), VarLoc("y", "main")
        assert deps.has(nx, ny, x)
        assert deps.has(nx, nz, x)
        assert deps.has(ny, nz, y)

    def test_kill_breaks_chain(self):
        src = """
        int main(void) {
          int x = 1;
          x = 2;
          return x;
        }
        """
        program, pre, du = setup(src)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        n1 = node(program, "x := 1").nid
        n2 = node(program, "x := 2").nid
        ret = node(program, "return main::x").nid
        x = VarLoc("x", "main")
        assert deps.has(n2, ret, x)
        assert not deps.has(n1, ret, x)

    def test_branch_joins_create_multiple_sources(self):
        src = """
        int main(void) {
          int c; int x;
          if (c > 0) x = 1; else x = 2;
          return x;
        }
        """
        program, pre, du = setup(src)
        deps = generate_datadeps(program, pre, du).deps
        ret = node(program, "return main::x").nid
        x = VarLoc("x", "main")
        sources = {
            src_
            for src_, locs in deps.in_edges(ret)
            if x in locs
        }
        assert len(sources) == 2

    @pytest.mark.parametrize("method", ["ssa", "reaching"])
    def test_both_generators_same_endpoints(self, method):
        """SSA and reaching-defs produce the same real-def → real-use
        relation once pass-through (phi) nodes are bypassed."""
        src = """
        int main(void) {
          int i = 0; int s = 0;
          while (i < 5) { s = s + i; i = i + 1; }
          return s;
        }
        """
        program, pre, du = setup(src)
        result = generate_datadeps(program, pre, du, method=method, bypass=True)
        s = VarLoc("s", "main")
        ret = node(program, "return main::s").nid
        sources = {
            src_ for src_, locs in result.deps.in_edges(ret) if s in locs
        }
        assert sources  # the return's s must come from somewhere real

    def test_ssa_reaching_bypassed_equal(self):
        src = """
        int g;
        int f(int a) { g = g + a; return g; }
        int main(void) {
          int t = 0; int i;
          for (i = 0; i < 3; i++) t = f(t);
          return t;
        }
        """
        program, pre, du = setup(src)
        ssa = generate_datadeps(program, pre, du, method="ssa", bypass=True)
        reaching = generate_datadeps(
            program, pre, du, method="reaching", bypass=True
        )
        assert set(ssa.deps.triples()) == set(reaching.deps.triples())


class TestInterprocEdges:
    SRC = """
    int g;
    int callee(int a) { g = g + a; return a; }
    int main(void) { g = 1; int r = callee(2); return r + g; }
    """

    def test_callsite_to_entry_for_used_locations(self):
        program, pre, du = setup(self.SRC)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        call = node(program, "call callee", "main").nid
        entry = program.cfgs["callee"].entry.nid
        assert deps.has(call, entry, VarLoc("g"))
        assert deps.has(call, entry, VarLoc("a", "callee"))

    def test_exit_to_retbind_for_defined_locations(self):
        program, pre, du = setup(self.SRC)
        deps = generate_datadeps(program, pre, du, bypass=False).deps
        exit_nid = program.cfgs["callee"].exit.nid
        retbind = node(program, "retbind main::__ret", "main").nid
        assert deps.has(exit_nid, retbind, VarLoc("g"))
        assert deps.has(exit_nid, retbind, RetLoc("callee"))

    def test_bypass_skips_uninvolved_procedures(self):
        """The Section 5 motivating example: x defined in f, unused in g,
        used in h along the chain f → g → h flows directly after bypass."""
        src = """
        int x;
        int h(void) { return x; }
        int g(void) { return h(); }
        int f(void) { x = 7; return g(); }
        int main(void) { return f(); }
        """
        program, pre, du = setup(src)
        result = generate_datadeps(program, pre, du, bypass=True)
        def_x = node(program, "x := 7", "f").nid
        use_x = node(program, "return x", "h").nid
        assert result.deps.has(def_x, use_x, VarLoc("x"))

    def test_spurious_interproc_deps_avoided(self):
        """The paper's f/h/g example: per-procedure generation must not
        create x-flow between unrelated callers of a shared callee."""
        src = """
        int x;
        int h(void) { return 0; }           /* does not touch x */
        int f(void) { x = 0; h(); return x; }
        int q(void) { x = 1; h(); return x; }
        int main(void) { return f() + q(); }
        """
        program, pre, du = setup(src)
        deps = generate_datadeps(program, pre, du, bypass=True).deps
        def_in_f = node(program, "x := 0", "f").nid
        use_in_q = node(program, "return x", "q").nid
        def_in_q = node(program, "x := 1", "q").nid
        use_in_f = node(program, "return x", "f").nid
        x = VarLoc("x")
        assert deps.has(def_in_f, use_in_f, x)
        assert deps.has(def_in_q, use_in_q, x)
        # no cross-talk through h
        assert not deps.has(def_in_f, use_in_q, x)
        assert not deps.has(def_in_q, use_in_f, x)


class TestBypassOptimization:
    def test_closure_equals_naive_rewriting(self):
        src = """
        int g;
        int inner(void) { return g; }
        int outer(void) { return inner(); }
        int main(void) { g = 3; return outer(); }
        """
        program, pre, du = setup(src)
        raw = generate_datadeps(program, pre, du, bypass=False).deps
        fast = bypass_optimization(raw, du)
        slow = bypass_optimization_naive(raw, du)
        assert set(fast.triples()) == set(slow.triples())

    def test_bypass_reduces_edge_count(self):
        src = """
        int g;
        int c(void) { return g; }
        int b(void) { return c(); }
        int a(void) { return b(); }
        int main(void) { g = 1; return a(); }
        """
        program, pre, du = setup(src)
        result = generate_datadeps(program, pre, du, bypass=True)
        assert len(result.deps) < result.raw_dep_count

    def test_keep_set_prevents_bypassing(self):
        d = DataDeps()
        x = VarLoc("x")
        d.add(1, 2, x)
        d.add(2, 3, x)
        # with an empty defuse, node 2 is pure pass-through
        du = DefUseInfo(defs={1: frozenset({x})}, uses={3: frozenset({x})})
        collapsed = bypass_optimization(d, du)
        assert collapsed.has(1, 3, x) and not collapsed.has(1, 2, x)
        kept = bypass_optimization(d, du, keep={2})
        assert kept.has(1, 2, x) and kept.has(2, 3, x)

    def test_pass_through_cycle_shares_one_reach_set(self):
        """Nodes 2 and 3 relay x around a cycle (recursion produces this
        shape even between widening points); both real sources reach both
        real uses, whichever node of the cycle they enter by."""
        x = VarLoc("x")
        d = DataDeps()
        for src, dst in [(1, 2), (2, 2), (2, 3), (3, 2), (3, 4), (2, 5), (6, 3)]:
            d.add(src, dst, x)
        du = DefUseInfo(
            defs={1: frozenset({x}), 6: frozenset({x})},
            uses={4: frozenset({x}), 5: frozenset({x})},
        )
        out = bypass_optimization(d, du)
        assert set(out.triples()) == {(s, u, x) for s in (1, 6) for u in (4, 5)}


def _loopy_spec(seed: int) -> WorkloadSpec:
    """A small program with loops, shared callees and a recursion cycle,
    so the control graph has real widening points."""
    return WorkloadSpec(
        name=f"bypass{seed}",
        n_functions=5,
        n_globals=3,
        n_arrays=1,
        array_len=8,
        stmts_per_function=5,
        loops_per_function=1,
        calls_per_function=2,
        recursion_cycle=2 + seed % 2,
        funcptr_sites=seed % 2,
        seed=seed,
    )


@pytest.mark.parametrize("domain", ["interval", "octagon"])
@pytest.mark.parametrize("seed", [11 * i + 3 for i in range(N_SEEDS)])
def test_closure_equals_naive_with_widening_points(seed, domain):
    """The memoized closure and the saturated pairwise rewriting build the
    same relation on loopy, recursive programs, with the real widening
    points of the control graph as ``keep``."""
    program = build_program(generate_source(_loopy_spec(seed)))
    pre = run_preanalysis(program)
    graph = build_interproc_graph(program, pre.site_callees, localized=False)
    _wto, wps = widening_points_for(
        GraphView((program.entry_node().nid,), graph.succs)
    )
    assert wps, "the program should have loops or recursion"
    if domain == "interval":
        du = compute_defuse(program, pre)
    else:
        ctx = RelContext(program, pre, build_packs(program))
        du = compute_rel_defuse(program, pre, ctx)
    raw = generate_datadeps(program, pre, du, bypass=False, widening_points=wps).deps
    fast = bypass_optimization(raw, du, keep=wps)
    slow = bypass_optimization_naive(raw, du, keep=wps)
    assert set(fast.triples()) == set(slow.triples())
    assert len(fast) < len(raw)
