"""Benchmark-side layer spans for in-process ``analyze()`` calls.

Nothing inside ``src/`` is instrumented. While :func:`traced` is active,
each layer's public function is replaced, in every loaded ``repro`` module
that binds it, by a wrapper that opens a span on the benchmark's
:class:`~perfbench.metrics.Tracer` and reads counts from the returned
object. Leaving the context restores the original bindings, so untraced
calls run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager

from perfbench.metrics import Tracer, covered_time, self_times

#: modules whose bindings the wrappers must reach (imported up front so
#: their ``from ... import`` copies exist before patching)
_MODULES = (
    "repro.api",
    "repro.analysis.sparse",
    "repro.analysis.relational",
    "repro.analysis.dense",
    "repro.checkers",
    "repro.frontend.preprocessor",
)


def _control_points(tracer, program, _args):
    tracer.add("ir.control_points", program.num_statements())


def _rounds(tracer, pre, _args):
    tracer.add("preanalysis.rounds", pre.rounds)


def _defuse_sizes(tracer, info, _args):
    avg_d, avg_u = info.average_sizes()
    tracer.add("defuse.calls", 1)
    tracer.add("defuse.avg_d", avg_d)
    tracer.add("defuse.avg_u", avg_u)


def _edges(tracer, result, _args):
    tracer.add("datadep.raw_edges", result.raw_dep_count)
    tracer.add("datadep.final_edges", len(result.deps))


def _packs(tracer, packs, _args):
    tracer.add("packs.count", len(packs.packs))


def _fixpoint(tracer, _table, args):
    engine = args[0]
    tracer.add("engine.iterations", engine.stats.iterations)
    sched = engine.scheduler_stats
    if sched is not None:
        tracer.add("engine.pops", sched.pops)
        tracer.add("engine.revisits", sched.revisits)


def _reports(tracer, reports, _args):
    tracer.add("checkers.reports", len(reports))
    tracer.add(
        "checkers.alarms", sum(1 for r in reports if r.verdict.value == "alarm")
    )


#: (module, attribute, span name, count reader); ``Class.method`` patches
#: the class attribute
_TARGETS = (
    ("repro.frontend", "parse", "frontend.parse", None),
    ("repro.frontend.preprocessor", "preprocess", "frontend.parse", None),
    ("repro.ir.program", "ProgramBuilder.build", "ir.lower", _control_points),
    ("repro.analysis.preanalysis", "run_preanalysis", "preanalysis.run", _rounds),
    ("repro.analysis.defuse", "compute_defuse", "defuse.compute", _defuse_sizes),
    ("repro.analysis.relational", "compute_rel_defuse", "defuse.compute",
     _defuse_sizes),
    ("repro.analysis.datadep", "generate_datadeps", "datadep.chains", _edges),
    ("repro.analysis.datadep", "bypass_optimization", "datadep.bypass", None),
    ("repro.domains.packs", "build_packs", "packs.build", _packs),
    ("repro.analysis.relational", "prepare_rel_sparse", "relational.prepare",
     None),
    ("repro.analysis.schedule", "widening_points_for", "engine.schedule", None),
    ("repro.analysis.engine", "FixpointEngine.solve", "engine.fixpoint",
     _fixpoint),
    ("repro.checkers", "run_checker", "checkers.overrun", _reports),
)

#: the pre-analysis iterates with the same engine; its solve is part of
#: the pre-analysis layer, not of the main fixpoint
_ENGINE_INSIDE = {"engine.fixpoint": "preanalysis.run"}

#: per-layer self-time metrics, by span name
SPAN_METRICS = {
    "frontend.parse": "frontend.parse_s",
    "ir.lower": "ir.lower_s",
    "preanalysis.run": "preanalysis.run_s",
    "defuse.compute": "defuse.compute_s",
    "datadep.chains": "datadep.chains_s",
    "datadep.bypass": "datadep.bypass_s",
    "packs.build": "packs.build_s",
    "relational.prepare": "relational.prepare_s",
    "engine.schedule": "engine.schedule_s",
    "engine.fixpoint": "engine.fixpoint_s",
    "checkers.overrun": "checkers.overrun_s",
}


def _wrap(fn, tracer: Tracer, name: str, reader):
    skip_under = _ENGINE_INSIDE.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_under is not None and tracer.current == skip_under:
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if reader is not None:
            reader(tracer, result, args)
        return result

    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every layer call through ``tracer`` for the duration."""
    for mod in _MODULES:
        importlib.import_module(mod)
    undo: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr, name, reader in _TARGETS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                undo.append((cls, meth, original))
                setattr(cls, meth, _wrap(original, tracer, name, reader))
                continue
            original = getattr(mod, attr)
            wrapper = _wrap(original, tracer, name, reader)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        undo.append((loaded, key, original))
                        setattr(loaded, key, wrapper)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def layer_metrics(tracer: Tracer, wall: float, scale: float) -> dict[str, float]:
    """Self time per layer, counts (D̂/Û sizes averaged over the traced
    programs), and the part of ``wall`` that no layer span covers. Times
    are multiplied by ``scale`` (to reference machine speed)."""
    selfs = self_times(tracer.spans)
    out = {
        metric: selfs.get(span, 0.0) * scale
        for span, metric in SPAN_METRICS.items()
    }
    counts = dict(tracer.counts)
    for key in ("ir.control_points", "preanalysis.rounds", "defuse.avg_d",
                "defuse.avg_u", "datadep.raw_edges", "datadep.final_edges",
                "packs.count", "engine.iterations", "checkers.reports",
                "checkers.alarms"):
        out[key] = counts.get(key, 0)
    calls = counts.get("defuse.calls", 0)
    for key in ("defuse.avg_d", "defuse.avg_u"):
        out[key] = out[key] / calls if calls else 0.0
    raw = counts.get("datadep.raw_edges", 0)
    out["datadep.kept_ratio"] = counts.get("datadep.final_edges", 0) / raw if raw else 0.0
    pops = counts.get("engine.pops", 0)
    out["engine.revisit_ratio"] = counts.get("engine.revisits", 0) / pops if pops else 0.0
    out["layer.unattributed_s"] = (wall - covered_time(tracer.spans)) * scale
    return out
