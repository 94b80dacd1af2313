"""Per-layer metrics from a traced run: what to wrap and how to add it up.

The modules of stokesmg are the layers.  Each wrapped function becomes a
span; the benchmark adds one "op" span around each timed operation.
Self time is a span's duration minus its children, so the self times of
all spans inside the op spans add up to the traced wall time exactly.
"""

import numpy as np

from stokesmg import closedform, harmonics, mgsolver, smoothing, stencil

import stats

SWEEP = "mgsolver.distributive_two_color_sweep"
RESIDUAL = "mgsolver.assemble_residual"
OP = "op"
_BLANK = {"calls": 0, "sweeps": 0, "self": 0.0, "incl": 0.0, "nodes": 0, "band": 0,
          "points": 0, "entries": 0, "in_sweep": 0.0}

# Per-layer metrics as declared in BENCHMARK.json, in output order.  Counts
# are per operation; "%" shares are of the traced operations' wall time.
PER_LAYER = (
    ("mgsolver.sweep_full.calls", "count/op"),
    ("mgsolver.sweep_full.self_share", "%"),
    ("mgsolver.sweep_full.mnodes_per_s", "Mnode/s"),
    ("mgsolver.sweep_band.calls", "count/op"),
    ("mgsolver.sweep_band.self_share", "%"),
    ("mgsolver.sweep_band.useful_ratio", "ratio"),
    ("mgsolver.coarsest.sweeps", "count/op"),
    ("mgsolver.coarsest.self_share", "%"),
    ("mgsolver.assemble_residual.calls", "count/op"),
    ("mgsolver.assemble_residual.self_share", "%"),
    ("mgsolver.assemble_residual.in_sweep_share", "ratio"),
    ("mgsolver.restrict.calls", "count/op"),
    ("mgsolver.restrict.self_share", "%"),
    ("mgsolver.prolong.calls", "count/op"),
    ("mgsolver.prolong.self_share", "%"),
    ("mgsolver.residual_norm.self_share", "%"),
    ("mgsolver.v_cycle.unattributed_share", "%"),
    ("mgsolver.measure_periodic_smoothing.self_share", "%"),
    ("harmonics.numerical_lfa_oracle.self_share", "%"),
    ("harmonics.two_color_rep.self_share", "%"),
    ("stencil.symbol_grid.calls", "count/op"),
    ("stencil.symbol_grid.self_share", "%"),
    ("stencil.symbol_grid.mentries_per_s", "Mentry/s"),
    ("harmonics.projected_eigenvalue_grid.calls", "count/op"),
    ("harmonics.projected_eigenvalue_grid.self_share", "%"),
    ("smoothing.field_evals_per_c", "count/op"),
    ("smoothing.points_per_c", "count/op"),
    ("smoothing.one_stage_optimum.self_share", "%"),
    ("closedform.rho_opt_closed.calls", "count/op"),
    ("closedform.rho_opt_closed.self_share", "%"),
    ("closedform.omega_opt_closed.calls", "count/op"),
    ("closedform.omega_opt_closed.self_share", "%"),
    ("bench.op.self_share", "%"),
    ("trace.layer_share", "%"),
    ("trace.overhead_share", "%"),
)


def _sweep(args, kwargs):
    mask = kwargs.get("point_mask", args[3] if len(args) > 3 else None)
    return {"n": args[0].n, "band": None if mask is None else int(mask.sum())}


def _prob_n(args, kwargs):
    return {"n": args[0].n}


def _array_n(args, kwargs):
    return {"n": args[0].shape[0] - 2}


def _points(args, kwargs):
    return {"points": int(np.broadcast(args[1], args[2]).size),
            "entries": len(args[0].entries)}


def _samples(args, kwargs):
    cfg = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    return {"n": getattr(cfg, "n_samples_per_axis", None)}


# (module, attribute, span name, describe).  A name is wrapped in every
# namespace its callers use, all under one span name.
WRAPS = (
    (mgsolver, "v_cycle", "mgsolver.v_cycle", _prob_n),
    (mgsolver, "distributive_two_color_sweep", SWEEP, _sweep),
    (mgsolver, "assemble_residual", "mgsolver.assemble_residual", _prob_n),
    (mgsolver, "residual_norm", "mgsolver.residual_norm", _prob_n),
    (mgsolver, "restrict", "mgsolver.restrict", _array_n),
    (mgsolver, "prolong", "mgsolver.prolong", _array_n),
    (mgsolver, "measure_periodic_smoothing", "mgsolver.measure_periodic_smoothing", None),
    (harmonics, "numerical_lfa_oracle", "harmonics.numerical_lfa_oracle", None),
    (harmonics, "two_color_rep", "harmonics.two_color_rep", None),
    (harmonics, "symbol_grid", "stencil.symbol_grid", _points),
    (stencil, "symbol_grid", "stencil.symbol_grid", _points),
    (smoothing, "projected_eigenvalue_grid", "harmonics.projected_eigenvalue_grid", _points),
    (smoothing, "one_stage_optimum", "smoothing.one_stage_optimum", _samples),
    (closedform, "rho_opt_closed", "closedform.rho_opt_closed", None),
    (closedform, "omega_opt_closed", "closedform.omega_opt_closed", None),
)


def install(tracer):
    for module, attr, name, describe in WRAPS:
        tracer.wrap(module, attr, name, describe)


def _layer(span, coarsest_n):
    """Layer of a span; sweeps split into full, band and coarsest-grid ones.

    The coarsest-grid solve is one layer: its sweeps and the residuals
    they evaluate, which an exact coarse solve would replace together.
    """
    name, attrs = span[0], span[5]
    if name in (SWEEP, RESIDUAL) and attrs["n"] <= coarsest_n:
        return "mgsolver.coarsest"
    if name != SWEEP:
        return name
    return "mgsolver.sweep_full" if attrs["band"] is None else "mgsolver.sweep_band"


def layer_metrics(spans, coarsest_n, traced_s, untraced_s):
    """Per-layer metric values from the spans of a traced run.

    traced_s and untraced_s are the summed operation times of the traced
    replay and of the untraced run of the same inputs.
    """
    selfs = stats.self_times([(s[1], s[2], s[3]) for s in spans])
    acc = {}
    for span, self_s in zip(spans, selfs):
        key = _layer(span, coarsest_n)
        a = acc.setdefault(key, dict(_BLANK))
        attrs = span[5] or {}
        a["calls"] += 1
        a["sweeps"] += span[0] == SWEEP
        a["self"] += self_s
        a["incl"] += span[2] - span[1]
        a["nodes"] += (attrs.get("n") or 0) ** 2
        a["band"] += attrs.get("band") or 0
        a["points"] += attrs.get("points", 0)
        a["entries"] += attrs.get("points", 0) * attrs.get("entries", 0)
        parent = span[3]
        if parent is not None and spans[parent][0] == SWEEP:
            a["in_sweep"] += self_s

    def get(key):
        return acc.get(key, _BLANK)

    def ratio(num, den):
        return num / den if den else 0.0

    ops = get(OP)["calls"]
    total = get(OP)["incl"]

    def per_op(key):
        return ratio(get(key)["calls"], ops)

    def share(key):
        return 100.0 * ratio(get(key)["self"], total)

    full, band = get("mgsolver.sweep_full"), get("mgsolver.sweep_band")
    residual = get(RESIDUAL)
    sym = get("stencil.symbol_grid")
    peg = get("harmonics.projected_eigenvalue_grid")
    osos = get("smoothing.one_stage_optimum")["calls"]
    unattributed = share("mgsolver.v_cycle") + share(OP)
    return {
        "mgsolver.sweep_full.calls": per_op("mgsolver.sweep_full"),
        "mgsolver.sweep_full.self_share": share("mgsolver.sweep_full"),
        "mgsolver.sweep_full.mnodes_per_s": ratio(full["nodes"], full["incl"]) / 1e6,
        "mgsolver.sweep_band.calls": per_op("mgsolver.sweep_band"),
        "mgsolver.sweep_band.self_share": share("mgsolver.sweep_band"),
        "mgsolver.sweep_band.useful_ratio": ratio(band["band"], band["nodes"]),
        "mgsolver.coarsest.sweeps": ratio(get("mgsolver.coarsest")["sweeps"], ops),
        "mgsolver.coarsest.self_share": share("mgsolver.coarsest"),
        "mgsolver.assemble_residual.calls": per_op(RESIDUAL),
        "mgsolver.assemble_residual.self_share": share(RESIDUAL),
        "mgsolver.assemble_residual.in_sweep_share": ratio(residual["in_sweep"],
                                                           residual["self"]),
        "mgsolver.restrict.calls": per_op("mgsolver.restrict"),
        "mgsolver.restrict.self_share": share("mgsolver.restrict"),
        "mgsolver.prolong.calls": per_op("mgsolver.prolong"),
        "mgsolver.prolong.self_share": share("mgsolver.prolong"),
        "mgsolver.residual_norm.self_share": share("mgsolver.residual_norm"),
        "mgsolver.v_cycle.unattributed_share": share("mgsolver.v_cycle"),
        "mgsolver.measure_periodic_smoothing.self_share":
            share("mgsolver.measure_periodic_smoothing"),
        "harmonics.numerical_lfa_oracle.self_share": share("harmonics.numerical_lfa_oracle"),
        "harmonics.two_color_rep.self_share": share("harmonics.two_color_rep"),
        "stencil.symbol_grid.calls": per_op("stencil.symbol_grid"),
        "stencil.symbol_grid.self_share": share("stencil.symbol_grid"),
        "stencil.symbol_grid.mentries_per_s": ratio(sym["entries"], sym["self"]) / 1e6,
        "harmonics.projected_eigenvalue_grid.calls":
            per_op("harmonics.projected_eigenvalue_grid"),
        "harmonics.projected_eigenvalue_grid.self_share":
            share("harmonics.projected_eigenvalue_grid"),
        "smoothing.field_evals_per_c": ratio(peg["calls"], osos),
        "smoothing.points_per_c": ratio(peg["points"], osos),
        "smoothing.one_stage_optimum.self_share": share("smoothing.one_stage_optimum"),
        "closedform.rho_opt_closed.calls": per_op("closedform.rho_opt_closed"),
        "closedform.rho_opt_closed.self_share": share("closedform.rho_opt_closed"),
        "closedform.omega_opt_closed.calls": per_op("closedform.omega_opt_closed"),
        "closedform.omega_opt_closed.self_share": share("closedform.omega_opt_closed"),
        "bench.op.self_share": share(OP),
        "trace.layer_share": 100.0 - unattributed if ops else 0.0,
        "trace.overhead_share": 100.0 * (traced_s / untraced_s - 1.0),
    }
