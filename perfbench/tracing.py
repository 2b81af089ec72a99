"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` wraps the public entry points of each ``deformcs``
module at runtime, in every module namespace that imported them, and puts
the originals back on exit; nothing under ``src/`` is edited.  A span is
(name, start, end, parent, trace id, attributes); each op gets its own trace
id.  Spans stay in memory until the run ends.  Self times and counts are
derived from them by ``layer_metrics``.

The layers are the modules.  ``PER_LAYER`` lists each metric with its unit,
the workloads where the layer does work (the metric is reported as
``<metric>.<workload>`` for each), and the end-to-end metric it should move.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from deformcs import (algebra_core, cli, closed_forms, continuous_flows, dda_registry,
                      discrete_flows, integrators, reductions)

ALL = ("lax_flow", "lattice_map", "scalar_reduction", "residual_grid")
RK4 = ("scalar_reduction", "lax_flow")
PAIRS = ("lax_flow", "lattice_map", "residual_grid")
GRID = ("residual_grid",)

# (metric, unit, better, workloads, the end-to-end metric it should move)
PER_LAYER = (
    ("cli.parse_s", "s", "lower", ALL, "op_ms_p50 on lax_flow and lattice_map, mainly stride-1 ops"),
    ("cli.self_s", "s", "lower", ALL, "op_ms_p50 on lax_flow and lattice_map, mainly stride-1 ops"),
    ("cli.csv_rows", "count", "higher", ALL, "op_ms_p50 on lax_flow and lattice_map, mainly stride-1 ops"),
    ("cli.csv_bytes", "bytes", "lower", ALL, "op_ms_p50 on lax_flow and lattice_map, mainly stride-1 ops"),
    ("integrators.self_s", "s", "lower", RK4, "units_per_s on scalar_reduction, then lax_flow"),
    ("integrators.steps", "count", "higher", RK4, "units_per_s on scalar_reduction, then lax_flow"),
    ("integrators.rhs_calls", "count", "lower", RK4, "units_per_s on scalar_reduction, then lax_flow"),
    ("integrators.truncated", "count", "lower", ("lax_flow",), "units_per_s on lax_flow"),
    ("continuous_flows.rhs_s", "s", "lower", ("lax_flow",), "units_per_s and peak_rss_mb on lax_flow"),
    ("continuous_flows.post_s", "s", "lower", ("lax_flow",), "units_per_s and peak_rss_mb on lax_flow"),
    ("continuous_flows.eig_s", "s", "lower", ("lax_flow",), "units_per_s and peak_rss_mb on lax_flow"),
    ("continuous_flows.integrals_s", "s", "lower", ("lax_flow",), "units_per_s and peak_rss_mb on lax_flow"),
    ("algebra_core.pair_s", "s", "lower", PAIRS, "units_per_s on lax_flow and lattice_map"),
    ("algebra_core.pairs_built", "count", "lower", PAIRS + ("scalar_reduction",),
     "units_per_s on lax_flow and lattice_map; no change on scalar_reduction"),
    ("algebra_core.pairs_per_unit", "ratio", "lower", PAIRS, "units_per_s on lax_flow and lattice_map"),
    ("reductions.rhs_s", "s", "lower", ("scalar_reduction",), "units_per_s on scalar_reduction"),
    ("reductions.post_s", "s", "lower", ("scalar_reduction",), "units_per_s on scalar_reduction"),
    ("discrete_flows.step_s", "s", "lower", ("lattice_map",), "units_per_s on lattice_map"),
    ("discrete_flows.invariants_s", "s", "lower", ("lattice_map",), "units_per_s on lattice_map"),
    ("discrete_flows.iterations", "count", "higher", ("lattice_map",), "units_per_s on lattice_map"),
    ("discrete_flows.degenerate_flags", "count", "lower", ("lattice_map",), "units_per_s on lattice_map"),
    ("discrete_flows.gauge_s", "s", "lower", GRID, "op_ms_tail on residual_grid"),
    ("dda_registry.field_load_s", "s", "lower", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.cs_residual_s", "s", "lower", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.cs_residual_calls", "count", "higher", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.quantum_s", "s", "lower", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.coisotropic_s", "s", "lower", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.discrete_cs_s", "s", "lower", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.grid_points", "count", "higher", GRID, "op_ms_tail and units_per_s on residual_grid"),
    ("dda_registry.bytes_computed", "bytes", "lower", GRID,
     "op_ms_tail and units_per_s on residual_grid; computed from array shapes, not measured"),
    ("closed_forms.validate_s", "s", "lower", GRID, "op_ms_p50 on residual_grid"),
    ("closed_forms.points", "count", "higher", GRID, "op_ms_p50 on residual_grid"),
    ("trace.overhead_ratio", "ratio", "lower", ALL, "none; bounds how far the spans can be trusted"),
)

COUNTS = tuple(m for m, unit, *_ in PER_LAYER if unit in ("count", "bytes"))

# cProfile shares of a 10k-step L2a_3x3 CLI run, from the ROADMAP baseline.
ROADMAP_SHARES = {"algebra_core.pair": 0.45, "continuous_flows.eig": 0.12,
                  "cli.self (CSV)": 0.11, "integrators.rk4": 0.15}


def per_layer_names() -> list[tuple[str, str, str, str]]:
    """(reported name, unit, better, moves) for every per-layer metric."""
    return [(f"{metric}.{w}", unit, better, moves)
            for metric, unit, better, workloads, moves in PER_LAYER for w in workloads]


# ---------------------------------------------------------------------------
# Span attributes: counts taken from arguments and results.
# ---------------------------------------------------------------------------

def _fixed_attrs(args, kwargs, result):
    ts, _, status, _ = result
    return {"steps": len(ts) - 1, "truncated": int(status == integrators.STATUS_TRUNCATED)}


def _orbit_attrs(args, kwargs, result):
    return {"flags": sum(len(s.flags) for s in result.states)}


def _cs_attrs(args, kwargs, result):
    n = args[1].pairs[args[2]].n
    # three neighbouring pairs read (2 n^2 each), one n x n residual written
    return {"points": 1, "bytes": 8 * 7 * n * n}


def _grid_attrs(kind):
    def attrs(args, kwargs, result):
        tg = args[0]
        n, dims = tg.n, tg.grid_dims
        shape = tg.c.shape[:dims]
        if kind == "discrete":
            points = _prod(s - 1 for s in shape)
            out = points * (n * (n - 1) // 2) * n * n
        else:
            points = _prod(s - 2 for s in shape)
            out = points * n ** 4 * (n + 1 if kind == "coisotropic" else 1)
        # input tensor plus the defect arrays the operator returns per point
        return {"points": points, "bytes": 8 * (tg.c.size + out)}
    return attrs


def _prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def _family_attrs(args, kwargs, result):
    return {"points": len(args[1])}


FUNCTIONS = (
    (cli, "main", "cli.main", None),
    (cli, "load_scenario", "cli.load_scenario", None),
    (continuous_flows, "integrate", "continuous_flows.integrate", None),
    (continuous_flows, "first_integrals", "continuous_flows.integrals", None),
    (continuous_flows, "spectral_invariants", "continuous_flows.eig", None),
    (reductions, "integrate_chazy", "reductions.integrate", None),
    (reductions, "integrate_boussinesq", "reductions.integrate", None),
    (reductions, "integrate_elliptic", "reductions.integrate", None),
    (discrete_flows, "orbit", "discrete_flows.orbit", _orbit_attrs),
    (discrete_flows, "step", "discrete_flows.step", None),
    (discrete_flows, "map_invariants", "discrete_flows.invariants", None),
    (discrete_flows, "discrete_oriented_assoc_residual", "discrete_flows.gauge", None),
    (dda_registry, "cs_residual", "dda_registry.cs_residual", _cs_attrs),
    (dda_registry, "quantum_cs_residual", "dda_registry.quantum", _grid_attrs("quantum")),
    (dda_registry, "coisotropic_cs_residual", "dda_registry.coisotropic",
     _grid_attrs("coisotropic")),
    (dda_registry, "discrete_cs_residual", "dda_registry.discrete_cs", _grid_attrs("discrete")),
    (closed_forms, "validate_family", "closed_forms.validate_family", _family_attrs),
)


class Tracer:
    """Span recorder; ``trace_id`` is set by the caller before each op."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent, trace_id, attrs]
        self._stack: list[int] = []
        self.trace_id = -1

    def wrap(self, name: str, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.trace_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return traced

    def _wrap_integrate_fixed(self, fn):
        traced = self.wrap("integrators.integrate_fixed", fn, _fixed_attrs)

        def integrate_fixed(f, *args, **kwargs):
            # the RHS callback belongs to the layer that called the integrator
            caller = self.spans[self._stack[-1]][0] if self._stack else "unknown.caller"
            return traced(self.wrap(caller.split(".")[0] + ".rhs", f), *args, **kwargs)

        return integrate_fixed

    @contextmanager
    def installed(self):
        """Patch every traced entry point in every ``deformcs`` module namespace."""
        wrappers = [(getattr(m, attr), self.wrap(name, getattr(m, attr), attrs))
                    for m, attr, name, attrs in FUNCTIONS]
        wrappers.append((integrators.integrate_fixed,
                         self._wrap_integrate_fixed(integrators.integrate_fixed)))
        undo = []
        modules = [m for name, m in sys.modules.items()
                   if name == "deformcs" or name.startswith("deformcs.")]
        for original, wrapper in wrappers:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapper)
        pair_init = algebra_core.MatrixPair.__init__
        load = vars(dda_registry.SampledField)["load"]
        algebra_core.MatrixPair.__init__ = self.wrap("algebra_core.pair", pair_init)
        dda_registry.SampledField.load = classmethod(
            self.wrap("dda_registry.field_load", load.__func__))
        try:
            yield self
        finally:
            algebra_core.MatrixPair.__init__ = pair_init
            dda_registry.SampledField.load = load
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)


def _totals(spans, indices) -> dict:
    """Per span name over the selected spans: total and self time, count, summed attributes.

    ``spans`` is the whole list, since parents are indices into it.
    """
    child = defaultdict(int)
    fixed_under = defaultdict(int)
    for i in indices:
        name, start, end, parent, _, _ = spans[i]
        if parent >= 0:
            child[parent] += end - start
            if name == "integrators.integrate_fixed":
                fixed_under[spans[parent][0]] += end - start
    acc = defaultdict(lambda: defaultdict(float))
    for i in indices:
        name, start, end, _, _, attrs = spans[i]
        a = acc[name]
        a["time"] += end - start
        a["self"] += end - start - child[i]
        a["count"] += 1
        for key, value in (attrs or {}).items():
            a[key] += value
    for name, ns in fixed_under.items():
        acc[name]["fixed"] = ns
    return acc


def csv_output(ops) -> dict[str, int]:
    """CSV rows and bytes one round of ops wrote, read after the round.

    The rows are those the gate counted (it fails an op whose count differs
    from ``op.rows``); the bytes come from one ``stat`` per file.
    """
    cli_ops = [op for op in ops if op.argv]
    return {"cli.csv_rows": sum(op.rows or 0 for op in cli_ops),
            "cli.csv_bytes": sum(path.stat().st_size for op in cli_ops
                                 for path in op.out.glob("*.csv"))}


def layer_metrics(spans, first: int, units: int) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one traced round)."""
    t = _totals(spans, range(first, len(spans)))
    s = 1e-9

    def time_of(name, key="time"):
        return t[name][key] * s if name in t else 0.0

    def count(name, key="count"):
        return int(t[name][key]) if name in t else 0

    pairs = count("algebra_core.pair")
    return {
        "cli.parse_s": time_of("cli.load_scenario"),
        "cli.self_s": time_of("cli.main", "self"),
        "integrators.self_s": time_of("integrators.integrate_fixed", "self"),
        "integrators.steps": count("integrators.integrate_fixed", "steps"),
        "integrators.rhs_calls": count("continuous_flows.rhs") + count("reductions.rhs"),
        "integrators.truncated": count("integrators.integrate_fixed", "truncated"),
        "continuous_flows.rhs_s": time_of("continuous_flows.rhs"),
        "continuous_flows.post_s": (time_of("continuous_flows.integrate")
                                    - time_of("continuous_flows.integrate", "fixed")),
        "continuous_flows.eig_s": time_of("continuous_flows.eig"),
        "continuous_flows.integrals_s": time_of("continuous_flows.integrals"),
        "algebra_core.pair_s": time_of("algebra_core.pair"),
        "algebra_core.pairs_built": pairs,
        "algebra_core.pairs_per_unit": pairs / units if units else 0.0,
        "reductions.rhs_s": time_of("reductions.rhs"),
        "reductions.post_s": (time_of("reductions.integrate")
                              - time_of("reductions.integrate", "fixed")),
        "discrete_flows.step_s": time_of("discrete_flows.step"),
        "discrete_flows.invariants_s": time_of("discrete_flows.invariants"),
        "discrete_flows.iterations": count("discrete_flows.step"),
        "discrete_flows.degenerate_flags": count("discrete_flows.orbit", "flags"),
        "discrete_flows.gauge_s": time_of("discrete_flows.gauge"),
        "dda_registry.field_load_s": time_of("dda_registry.field_load"),
        "dda_registry.cs_residual_s": time_of("dda_registry.cs_residual"),
        "dda_registry.cs_residual_calls": count("dda_registry.cs_residual"),
        "dda_registry.quantum_s": time_of("dda_registry.quantum"),
        "dda_registry.coisotropic_s": time_of("dda_registry.coisotropic"),
        "dda_registry.discrete_cs_s": time_of("dda_registry.discrete_cs"),
        "dda_registry.grid_points": sum(count(n, "points") for n in (
            "dda_registry.cs_residual", "dda_registry.quantum", "dda_registry.coisotropic",
            "dda_registry.discrete_cs")),
        "dda_registry.bytes_computed": sum(count(n, "bytes") for n in (
            "dda_registry.cs_residual", "dda_registry.quantum", "dda_registry.coisotropic",
            "dda_registry.discrete_cs")),
        "closed_forms.validate_s": time_of("closed_forms.validate_family"),
        "closed_forms.points": count("closed_forms.validate_family", "points"),
    }


def roadmap_shares(spans, trace_ids: set[int]) -> dict:
    """Shares of traced op time in the given ops, next to the ROADMAP's cProfile figures."""
    t = _totals(spans, [i for i, span in enumerate(spans) if span[4] in trace_ids])
    total = t["cli.main"]["time"] if "cli.main" in t else 0
    if not total:
        return {}
    measured = {
        "algebra_core.pair": t["algebra_core.pair"]["time"] / total,
        "continuous_flows.eig": t["continuous_flows.eig"]["time"] / total,
        "cli.self (CSV)": t["cli.main"]["self"] / total,
        "integrators.rk4": t["integrators.integrate_fixed"]["self"] / total,
    }
    out = {}
    for key, share in measured.items():
        ref = ROADMAP_SHARES[key]
        agree = 0.5 <= share / ref <= 2.0
        out[key] = {"traced": round(share, 4), "roadmap_cprofile": ref,
                    "note": "agrees within 2x" if agree else "disagrees by more than 2x"}
    return out
