"""Which library functions the traced run wraps, and the per-layer metrics.

Span names are ``<module>.<function>``; ``qef_growth_rate`` is split into
``freq.growth_rate_frozen`` and ``freq.growth_rate_adaptive`` by whether a
frozen grid was passed.  Quadrature nodes are read off the grids
themselves, 15 per GK15 panel, not counted as integrand calls, so the
counts do not depend on how the library evaluates the nodes: a frozen
evaluation has the nodes of the grid it was given, and an adaptive one
(cost or gradient) the nodes of the grid ``integrate_half_line`` returns.
Adaptive refinement also evaluates the panels it splits, so
``log_det_delta`` calls exceed the adaptive node count.
"""

import statistics
from collections import defaultdict

import numpy as np

GK_NODES = 15   # nodes per Gauss-Kronrod panel


def _grid_nodes(grid):
    """Nodes of a FrequencyGrid; None for anything else."""
    try:
        return GK_NODES * (len(grid.body_edges) + len(grid.tail_edges) - 2)
    except (AttributeError, TypeError):
        return None


def _grid_arg(args, kwargs):
    return kwargs.get("grid", args[3] if len(args) > 3 else None)


def _growth_rate_name(args, kwargs):
    return ("freq.growth_rate_frozen" if _grid_arg(args, kwargs) is not None
            else "freq.growth_rate_adaptive")


def _returned_grid_nodes(args, kwargs, result):
    grids = (_grid_nodes(r) for r in
             (result if isinstance(result, tuple) else (result,)))
    return next((n for n in grids if n is not None), None)


WRAPPED = (
    ("qefsyn.freq.qef_growth_rate", _growth_rate_name,
     lambda a, kw, r: _grid_nodes(_grid_arg(a, kw))),
    ("qefsyn.freq.integrate_half_line", None, _returned_grid_nodes),
    ("qefsyn.freq.growth_rate_grid", None, None),
    ("qefsyn.freq.log_det_delta", None, None),
    ("qefsyn.freq.check_admissible", None, None),
    ("qefsyn.freq.spec1_value", None, lambda a, kw, r: a[1]),    # theta
    ("qefsyn.freq.theta_for_spec1", None, None),
    ("qefsyn.grad.frechet_derivatives", None, None),
    ("qefsyn.grad.psi_fn", None, None),
    ("qefsyn.grad.phi_fn", None, None),
    ("qefsyn.matfun.gateaux_sin", None, None),
    ("qefsyn.matfun.gateaux_cos", None, None),
    ("qefsyn.model.assemble_closed_loop", None, None),
    ("qefsyn.synth.synthesize", None, None),
    ("qefsyn.synth.lqg_controller", None, None),
    ("qefsyn.oracle.build_operators", None,
     lambda a, kw, r: a[3] * a[0].calC.shape[0]),                 # N * nu
    ("qefsyn.oracle.finite_horizon_qef", None, None),
    ("qefsyn.gramians.solve_lyapunov", None, None),
    ("qefsyn.cli.main", None, None),
    ("qefsyn.cli.load_instance", None, None),
    ("qefsyn.instances.random_admissible_instance", None, None),
    ("qefsyn.instances.random_stable_instance", None, None),
)

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("freq.growth_rate_frozen.calls", "count", "lower"),
    ("freq.growth_rate_frozen.s", "s", "lower"),
    ("freq.growth_rate_frozen.us_per_node", "us", "lower"),
    ("freq.growth_rate_frozen.ms_p90", "ms", "lower"),
    ("freq.growth_rate_adaptive.calls", "count", "lower"),
    ("freq.growth_rate_adaptive.s", "s", "lower"),
    ("freq.growth_rate_adaptive.nodes", "count", "lower"),
    ("freq.growth_rate_adaptive.us_per_node", "us", "lower"),
    ("freq.log_det_delta.calls", "count", "lower"),
    ("freq.check_admissible.calls", "count", "lower"),
    ("freq.check_admissible.s", "s", "lower"),
    ("freq.spec1_value.calls", "count", "lower"),
    ("freq.spec1_value.us", "us", "lower"),
    ("freq.theta_for_spec1.calls", "count", "lower"),
    ("freq.theta_for_spec1.s", "s", "lower"),
    ("freq.theta_for_spec1.sweeps", "count", "lower"),
    ("freq.growth_rate_grid.s", "s", "lower"),
    ("grad.frechet_derivatives.calls", "count", "lower"),
    ("grad.frechet_derivatives.s", "s", "lower"),
    ("grad.chi_nodes", "count", "lower"),
    ("grad.us_per_node", "us", "lower"),
    ("grad.psi_fn.us", "us", "lower"),
    ("grad.phi_fn.us", "us", "lower"),
    ("matfun.gateaux_sin.calls", "count", "lower"),
    ("matfun.gateaux_sin.us", "us", "lower"),
    ("matfun.gateaux_cos.calls", "count", "lower"),
    ("matfun.gateaux_cos.us", "us", "lower"),
    ("model.assemble_closed_loop.calls", "count", "lower"),
    ("model.assemble_closed_loop.us", "us", "lower"),
    ("synth.lqg_controller.ms", "ms", "lower"),
    ("synth.iterations", "count", "lower"),
    ("synth.trials", "count", "lower"),
    ("synth.accept_ratio", "ratio", "higher"),
    ("synth.self_s", "s", "lower"),
    ("synth.term.stationary", "count", "higher"),
    ("synth.term.max_iterations", "count", "lower"),
    ("synth.term.line_search_failure", "count", "lower"),
    ("synth.cost_drop", "ratio", "higher"),
    ("oracle.build_operators.calls", "count", "lower"),
    ("oracle.build_operators.s", "s", "lower"),
    ("oracle.finite_horizon_qef.calls", "count", "lower"),
    ("oracle.finite_horizon_qef.s", "s", "lower"),
    ("oracle.operator_dim", "count", "lower"),
    ("gramians.solve_lyapunov.calls", "count", "lower"),
    ("gramians.solve_lyapunov.ms", "ms", "lower"),
    ("cli.load_instance.ms", "ms", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def instrument(tracer):
    for target, name, note in WRAPPED:
        tracer.wrap(target, name=name, note=note)


def metrics(tracer, plain, spanned):
    """Per-layer metrics of a traced run.

    ``plain`` and ``spanned`` are the outcomes of the same items run
    untraced and traced; their wall-time ratio is the tracing overhead.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    kids = tracer.children()
    by_name = defaultdict(list)
    for idx, sp in enumerate(spans):
        by_name[sp.name].append(idx)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(spans[i].duration for i in by_name[name])

    def self_s(name):
        return sum(selfs[i] for i in by_name[name])

    def per_call(name, scale):
        return scale * busy(name) / calls(name) if calls(name) else 0.0

    def notes(idxs):
        return sum(spans[i].note or 0 for i in idxs)

    def quad_nodes(parent_name):
        """Nodes of the grids integrated directly under ``parent_name``."""
        return notes(c for p in by_name[parent_name] for c in kids[p]
                     if spans[c].name == "freq.integrate_half_line")

    def per_node(busy_s, nodes):
        return 1e6 * busy_s / nodes if nodes else 0.0

    frozen_nodes = notes(by_name["freq.growth_rate_frozen"])
    adaptive_nodes = quad_nodes("freq.growth_rate_adaptive")
    chi_nodes = quad_nodes("grad.frechet_derivatives")
    frozen_ms = [1e3 * spans[i].duration
                 for i in by_name["freq.growth_rate_frozen"]]

    # one sweep = a run of spec1_value calls at one theta
    sweeps = 0
    for p in by_name["freq.theta_for_spec1"]:
        thetas = [spans[c].note for c in kids[p]
                  if spans[c].name == "freq.spec1_value"]
        sweeps += sum(1 for k, th in enumerate(thetas)
                      if k == 0 or th != thetas[k - 1])

    # a trial step is an admissibility check made after the descent's
    # first gradient; iterations are the gradients themselves
    trials = iterations = 0
    for p in by_name["synth.synthesize"]:
        names = [spans[c].name for c in kids[p]]
        grads = [k for k, nm in enumerate(names)
                 if nm == "grad.frechet_derivatives"]
        iterations += len(grads)
        if grads:
            trials += sum(1 for nm in names[grads[0]:]
                          if nm == "freq.check_admissible")
    synth_info = [o.info for o in spanned if "termination" in o.info]
    accepted = sum(i["accepted"] for i in synth_info)
    terms = [i["termination"] for i in synth_info]

    roots = [i for i, sp in enumerate(spans) if sp.parent < 0]
    plain_wall = sum(o.wall_s for o in plain)
    traced_wall = sum(o.wall_s for o in spanned)
    oracle_dims = [spans[i].note for i in by_name["oracle.build_operators"]]

    values = {
        "freq.growth_rate_frozen.calls": calls("freq.growth_rate_frozen"),
        "freq.growth_rate_frozen.s": busy("freq.growth_rate_frozen"),
        "freq.growth_rate_frozen.us_per_node":
            per_node(busy("freq.growth_rate_frozen"), frozen_nodes),
        "freq.growth_rate_frozen.ms_p90":
            float(np.percentile(frozen_ms, 90)) if frozen_ms else 0.0,
        "freq.growth_rate_adaptive.calls": calls("freq.growth_rate_adaptive"),
        "freq.growth_rate_adaptive.s": busy("freq.growth_rate_adaptive"),
        "freq.growth_rate_adaptive.nodes": adaptive_nodes,
        "freq.growth_rate_adaptive.us_per_node":
            per_node(busy("freq.growth_rate_adaptive"), adaptive_nodes),
        "freq.log_det_delta.calls": calls("freq.log_det_delta"),
        "freq.check_admissible.calls": calls("freq.check_admissible"),
        "freq.check_admissible.s": busy("freq.check_admissible"),
        "freq.spec1_value.calls": calls("freq.spec1_value"),
        "freq.spec1_value.us": per_call("freq.spec1_value", 1e6),
        "freq.theta_for_spec1.calls": calls("freq.theta_for_spec1"),
        "freq.theta_for_spec1.s": busy("freq.theta_for_spec1"),
        "freq.theta_for_spec1.sweeps": sweeps,
        "freq.growth_rate_grid.s": busy("freq.growth_rate_grid"),
        "grad.frechet_derivatives.calls": calls("grad.frechet_derivatives"),
        "grad.frechet_derivatives.s": busy("grad.frechet_derivatives"),
        "grad.chi_nodes": chi_nodes,
        "grad.us_per_node": per_node(busy("grad.frechet_derivatives"),
                                     chi_nodes),
        "grad.psi_fn.us": per_call("grad.psi_fn", 1e6),
        "grad.phi_fn.us": per_call("grad.phi_fn", 1e6),
        "matfun.gateaux_sin.calls": calls("matfun.gateaux_sin"),
        "matfun.gateaux_sin.us": per_call("matfun.gateaux_sin", 1e6),
        "matfun.gateaux_cos.calls": calls("matfun.gateaux_cos"),
        "matfun.gateaux_cos.us": per_call("matfun.gateaux_cos", 1e6),
        "model.assemble_closed_loop.calls":
            calls("model.assemble_closed_loop"),
        "model.assemble_closed_loop.us":
            per_call("model.assemble_closed_loop", 1e6),
        "synth.lqg_controller.ms": per_call("synth.lqg_controller", 1e3),
        "synth.iterations": iterations,
        "synth.trials": trials,
        "synth.accept_ratio": accepted / trials if trials else 0.0,
        "synth.self_s": self_s("synth.synthesize"),
        "synth.term.stationary": terms.count("stationary"),
        "synth.term.max_iterations": terms.count("max-iterations"),
        "synth.term.line_search_failure": terms.count("line-search failure"),
        "synth.cost_drop": (statistics.median(i["cost_drop"]
                                              for i in synth_info)
                            if synth_info else 0.0),
        "oracle.build_operators.calls": calls("oracle.build_operators"),
        "oracle.build_operators.s": busy("oracle.build_operators"),
        "oracle.finite_horizon_qef.calls": calls("oracle.finite_horizon_qef"),
        "oracle.finite_horizon_qef.s": busy("oracle.finite_horizon_qef"),
        "oracle.operator_dim": max(oracle_dims, default=0),
        "gramians.solve_lyapunov.calls": calls("gramians.solve_lyapunov"),
        "gramians.solve_lyapunov.ms": per_call("gramians.solve_lyapunov", 1e3),
        "cli.load_instance.ms": per_call("cli.load_instance", 1e3),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": sum(spans[i].duration for i in roots),
        "trace.unattributed_s": sum(selfs[i] for i in roots),
        "trace_overhead_frac":
            traced_wall / plain_wall - 1.0 if plain_wall else 0.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in PER_LAYER}
