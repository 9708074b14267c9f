"""Section 5 ablation — the bypass optimization.

"Even when x is not used inside g, [without the optimization] the value of
x is propagated to h only after it is first propagated to g. … This
optimization makes the analysis more sparse, leading to a significant
speed up."

We measure on call-chain-heavy workloads: dependency counts and sparse
fixpoint times with and without the bypass rewriting, plus the two bypass
implementations (memoized per-location closure vs the paper's pairwise
rewriting, saturated).

    pytest benchmarks/bench_bypass.py --benchmark-only -s
"""

import time

import pytest

from repro.analysis.datadep import (
    bypass_optimization,
    bypass_optimization_naive,
    generate_datadeps,
)
from repro.analysis.defuse import compute_defuse
from repro.analysis.dense import build_interproc_graph
from repro.analysis.schedule import GraphView, widening_points_for
from repro.analysis.sparse import run_sparse


def _pipeline(prep, bypass):
    return run_sparse(prep.program, prep.pre, bypass=bypass)


@pytest.mark.parametrize("bypass", [True, False], ids=["bypass", "no-bypass"])
def test_sparse_fixpoint(benchmark, prepared_interval, bypass):
    prep = prepared_interval["medium"]
    result = benchmark.pedantic(
        lambda: _pipeline(prep, bypass), rounds=1, iterations=1
    )
    print(
        f"\nbypass={bypass}: deps={result.stats.dep_count} "
        f"iterations={result.stats.iterations} "
        f"fix={result.stats.time_fix:.2f}s"
    )


def test_bypass_improves_fix_time(prepared_interval):
    prep = prepared_interval["large"]
    with_bp = _pipeline(prep, True)
    without = _pipeline(prep, False)
    print(
        f"\nfix time: bypass={with_bp.stats.time_fix:.2f}s "
        f"no-bypass={without.stats.time_fix:.2f}s "
        f"iterations {with_bp.stats.iterations} vs {without.stats.iterations}"
    )
    # the optimized fixpoint must not do more propagation work
    assert with_bp.stats.iterations <= without.stats.iterations * 1.2


def test_closure_vs_naive_rewriting(prepared_interval):
    """Same result, very different construction cost — why the per-location
    closure implementation matters in practice. Widening points are the
    WTO heads of the control graph, as in ``prepare_interval_sparse``."""
    prep = prepared_interval["small"]
    defuse = compute_defuse(prep.program, prep.pre)
    graph = build_interproc_graph(
        prep.program, prep.pre.site_callees, localized=False
    )
    _wto, wps = widening_points_for(
        GraphView((prep.program.entry_node().nid,), graph.succs)
    )
    raw = generate_datadeps(
        prep.program, prep.pre, defuse, bypass=False, widening_points=wps
    ).deps

    t0 = time.perf_counter()
    fast = bypass_optimization(raw, defuse, keep=wps)
    closure_t = time.perf_counter() - t0

    t0 = time.perf_counter()
    slow = bypass_optimization_naive(raw, defuse, keep=wps)
    naive_t = time.perf_counter() - t0

    print(f"\nclosure={closure_t * 1e3:.1f}ms naive={naive_t * 1e3:.1f}ms "
          f"edges {len(fast)} (naive {len(slow)})")
    assert set(fast.triples()) == set(slow.triples())
