"""Record what the solver and the analysis cost, as BENCH_<tag>.json.

Run from anywhere, on a checkout whose stokesmg it measures:

    python3 tools/bench_record.py --tag <tag>

It writes BENCH_<tag>.json at the root of the checkout, holding:

* env: the CPUs usable to this process and, at each n of the solve
  block, the number of parts the solver splits a full sweep's passes
  into, which is the grid's alone (2 from n = 511 on, else 1); the
  solver's worker thread runs a second part where usable_cpus >= 2, and
  the calling thread runs both parts in turn where it is 1;
* control: ms per call of one fixed numpy pass that no change to
  stokesmg moves, so that its ratio between two records shows how much
  the host itself drifted between them: the median of readings taken
  at the start, between the blocks below and at the end, each after
  warm-up calls, all of which it keeps;
* perfbench: the env line and the final JSON line of `perfbench/run.py`
  for each workload of BENCHMARK.json;
* solve: per n, ms per V(2,2) cycle at c = 1/8 (and of a fresh problem's
  first cycle), ns per unknown and cycle, rho_observed and s per digit,
  and scratch_mb, the MiB of the finest problem's own work buffers after
  its first cycle (the coarse levels' buffers are views of them);
* zone: at n = 255, per c across the convergence zone (1/16, 1/8, 0.5,
  1 and 10), ms per cycle, rho_observed and s per digit of the default
  cycle, measured as the solve block measures them;
* layers: at n = 511, ms per call and calls per cycle of the finest
  grid's full sweep, band sweep, residual, restrict and prolong, and of
  the bottom solve;
* lfa: at c = 1/8, ms per call of symbol_grid, of the field on the
  257x257 lattice (in its row blocks) and of the refine inside
  one_stage_optimum, of one_stage_optimum (with its field evaluations)
  and of the referees;
* criteria and commands: seconds and outcome of each criterion, the
  tier-1 suite, `stokesmg theorems` and `stokesmg curves`.

Library calls are timed by wrapping them with the benchmark's tracer
(perfbench/spans.py), each described as perfbench/layers.py describes it.
It takes one measurement at a time.  BLAS runs on one thread, but the
solver hands the second part of a large grid's passes to one worker
thread of its own where two CPUs are usable (see env).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from stokesmg import closedform, criteria, harmonics, mgsolver, smoothing, stencil  # noqa: E402

sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import layers  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

C = 0.125
SOLVE_NS = (63, 127, 255, 511)
SOLVE_CYCLES = 12
ZONE_N = 255
ZONE_CS = (1 / 16, 0.125, 0.5, 1.0, 10.0)
ZONE_CYCLES = 20  # a fixed fit, from measure_convergence_factor's seed 42
FRESH_PROBLEMS = 5
LAYER_N = 511
LAYER_CYCLES = 3
LFA_REPEATS = 20
ORACLE_GRID = 32
PERFBENCH_SEED = 1
CONTROL_N, CONTROL_CALLS = 513, 200  # np.add over two grids of the n = 511 level
CONTROL_WARMUP = 20  # calls before a control reading, so that its pages are touched
COMMANDS = {
    "tier1": [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "theorems": [sys.executable, "-m", "stokesmg.cli", "theorems"],
    "curves": [sys.executable, "-m", "stokesmg.cli", "curves", "--c-min", "1e-3",
               "--c-max", "1e3", "--n-points", "100", "--scale", "log"],
}
# how the benchmark describes a call of each name it wraps
DESCRIBE = {(module, attr): describe for module, attr, _, describe in layers.WRAPS}


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def env_rows():
    return {"usable_cpus": mgsolver._usable_cpus(),
            "sweep_parts": {str(n): mgsolver._part_count(n) for n in SOLVE_NS}}


def control_row():
    a, b = np.random.default_rng(PERFBENCH_SEED).standard_normal((2, CONTROL_N, CONTROL_N))
    out = np.empty_like(a)

    def add():
        np.add(a, b, out=out)

    _median_ms(add, CONTROL_WARMUP)
    return {"grid": CONTROL_N, "calls": CONTROL_CALLS,
            "ms_per_call": _median_ms(add, CONTROL_CALLS)}


def perfbench_rows():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = {}
    for wl in bench["workloads"]:
        cmd = [sys.executable, *bench["command"][1:], "--workload", wl["name"],
               "--seed", str(PERFBENCH_SEED), "--seconds", str(bench["run_seconds"])]
        out = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                             check=True).stdout.splitlines()
        env_line = next(line for line in out if line.startswith("env "))
        rows[wl["name"]] = {"command": " ".join(cmd[1:]),
                            "env": json.loads(env_line[len("env "):]),
                            "result": json.loads(out[-1])}
    return rows


def _traced(module, attrs, run):
    """run() with module.<attr> traced for each attr; returns its result and spans.

    Each span is named by its attr and holds the benchmark's description
    of the call, if the benchmark wraps that name.
    """
    with spans.Tracer() as tracer:
        for attr in attrs:
            tracer.wrap(module, attr, attr, DESCRIBE.get((module, attr)))
        result = run()
    return result, tracer.spans


def _median_span_ms(traced):
    return 1e3 * statistics.median(span[2] - span[1] for span in traced)


def _cycle_row(prob, cycles):
    """The default cycle on prob, fitted over cycles from seed 42.

    ms per cycle is the median of the traced v_cycle spans, and s per
    digit their sum over the digits of residual reduction.
    """
    spec = mgsolver.CycleSpec()
    report, traced = _traced(mgsolver, ["v_cycle"], lambda: (
        mgsolver.measure_convergence_factor(prob, spec, cycles)))
    cycle_s = [span[2] - span[1] for span in traced]
    digits = stats.digits(report.initial_residual, report.residual_history[-1])
    return {"n": prob.n, "c": prob.c, "levels": mgsolver.max_levels(prob.n),
            "cycles": len(cycle_s), "ms_per_cycle": 1e3 * statistics.median(cycle_s),
            "rho_observed": report.rho_observed,
            "s_per_digit": stats.seconds_per_digit(sum(cycle_s), digits)}


def _scratch_mb(prob):
    """MiB of the work buffers prob holds itself: all its _scratch but the coarse level."""
    held = [value if isinstance(value, tuple) else (value,)
            for name, value in prob._scratch.items() if name != "coarse"]
    return sum(a.nbytes for arrays in held for a in arrays) / 2**20


def solve_rows():
    rows = []
    spec = mgsolver.CycleSpec()
    for n in SOLVE_NS:
        first_s = []
        for _ in range(1 + FRESH_PROBLEMS):  # the first one warms the caches
            prob = mgsolver.homogeneous_problem(n, C)
            st = mgsolver.random_state(prob)
            t = time.perf_counter()
            mgsolver.v_cycle(prob, st, spec)
            first_s.append(time.perf_counter() - t)
        scratch_mb = _scratch_mb(prob)
        row = _cycle_row(prob, SOLVE_CYCLES)
        row.update(first_cycle_ms=1e3 * statistics.median(first_s[1:]),
                   ns_per_unknown_cycle=1e6 * row["ms_per_cycle"] / (3 * n * n),
                   scratch_mb=scratch_mb)
        rows.append(row)
    return rows


def zone_rows():
    rows = []
    for c in ZONE_CS:
        prob = mgsolver.homogeneous_problem(ZONE_N, c)
        # one cycle first builds the hierarchy, as in the solve block
        mgsolver.v_cycle(prob, mgsolver.random_state(prob), mgsolver.CycleSpec())
        rows.append(_cycle_row(prob, ZONE_CYCLES))
    return rows


def layer_rows():
    prob, spec = mgsolver.homogeneous_problem(LAYER_N, C), mgsolver.CycleSpec()
    # layer: (function, whether a call's description is the layer's); the
    # benchmark describes a prolong by the coarse grid's n
    finest = {
        "sweep_full": ("distributive_two_color_sweep",
                       lambda d: d == {"n": LAYER_N, "band": None}),
        "sweep_band": ("distributive_two_color_sweep",
                       lambda d: d["n"] == LAYER_N and d["band"] is not None),
        "assemble_residual": ("assemble_residual", lambda d: d["n"] == LAYER_N),
        "restrict": ("restrict", lambda d: d["n"] == LAYER_N),
        "prolong": ("prolong", lambda d: 2 * d["n"] + 1 == LAYER_N),
        "bottom_solve": ("_bottom_solve", lambda d: True),
    }
    st = mgsolver.v_cycle(prob, mgsolver.random_state(prob), spec)

    def cycles():
        state = st
        for _ in range(LAYER_CYCLES):
            state = mgsolver.v_cycle(prob, state, spec)

    _, calls = _traced(mgsolver, sorted({fn for fn, _ in finest.values()}), cycles)
    rows = {"n": LAYER_N, "bottom_n": 3}  # the deepest hierarchy's, as max_levels says
    for layer, (fn, is_layer) in finest.items():
        mine = [span for span in calls if span[0] == fn and is_layer(span[5])]
        rows[layer] = {"calls_per_cycle": len(mine) / LAYER_CYCLES,
                       "ms_per_call": _median_span_ms(mine)}
    return rows


def _median_ms(fn, repeats=None):
    times = []
    for _ in range(repeats or LFA_REPEATS):  # read at call time, so it can be set
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return 1e3 * statistics.median(times)


def lfa_rows():
    op = stencil.make_operator("pressure_block", c=C)
    cfg = smoothing.SweepConfig()
    window = np.linspace(-0.01, 0.01, smoothing.REFINE_POINTS)
    lattice = np.linspace(-smoothing.HALF_PI, smoothing.HALF_PI, cfg.n_samples_per_axis)
    rows = {"c": C}
    for name, points in (("symbol_grid_window", window), ("symbol_grid_lattice", lattice)):
        rows[name] = {"points": points.size ** 2, "ms_per_call": _median_ms(
            lambda: stencil.symbol_grid(op, points[:, None], points[None, :]))}

    def optima():
        for _ in range(LFA_REPEATS):
            smoothing.one_stage_optimum(op, cfg)

    # the field on the lattice (all its row blocks) and the refine of both
    # extrema, each in the optimum's own calls, with only the timed
    # function wrapped
    _, lattices = _traced(smoothing, ["_lattice"], optima)
    rows["lattice"] = {"points": lattice.size ** 2, "ms_per_call": _median_span_ms(lattices)}
    _, refines = _traced(smoothing, ["_refine"], optima)
    rows["refine"] = {"ms_per_call": _median_span_ms(refines)}
    for n in (65, 257):
        cfg_n = smoothing.SweepConfig(n_samples_per_axis=n)
        _, fields = _traced(smoothing, ["projected_eigenvalue_grid"],
                            lambda: smoothing.one_stage_optimum(op, cfg_n))
        rows[f"one_stage_optimum_{n}"] = {"ms_per_call": _median_ms(
            lambda: smoothing.one_stage_optimum(op, cfg_n), 5),
            "field_evals": len(fields)}
    tracemalloc.start()
    smoothing.one_stage_optimum(op, smoothing.SweepConfig(n_samples_per_axis=257))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rows["one_stage_optimum_257"]["tracemalloc_peak_mb"] = peak / 1e6
    omega = closedform.omega_opt_closed(C)
    rows["periodic_smoothing"] = {"omega": omega, "ms_per_call": _median_ms(
        lambda: harmonics.measure_periodic_smoothing(op, omega))}
    rng = np.random.default_rng(PERFBENCH_SEED)
    grid = rng.standard_normal((ORACLE_GRID, ORACLE_GRID)) + 1j * rng.standard_normal(
        (ORACLE_GRID, ORACLE_GRID))
    rows["periodic_sweep"] = {"n_grid": ORACLE_GRID, "ms_per_call": _median_ms(
        lambda: harmonics.periodic_two_color_sweep(op, grid), 200)}
    step = 2.0 * math.pi / ORACLE_GRID
    pair = harmonics.harmonics_of(stencil.Frequency(step, 3 * step))
    rows["lfa_oracle"] = {"n_grid": ORACLE_GRID, "ms_per_call": _median_ms(
        lambda: harmonics.numerical_lfa_oracle(op, pair, ORACLE_GRID))}
    return rows


def criteria_rows():
    rows = {}
    for criterion in criteria.CRITERIA:
        t = time.perf_counter()
        result = criterion()
        rows[criterion.__name__] = {"seconds": time.perf_counter() - t,
                                    "rows": len(result),
                                    "failing": sum(not row.ok for row in result)}
    return rows


def command_rows():
    rows = {}
    for name, cmd in COMMANDS.items():
        t = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True)
        rows[name] = {"command": " ".join(cmd[1:]), "seconds": time.perf_counter() - t,
                      "exit_code": out.returncode,
                      "last_line": (out.stdout.strip().splitlines() or [""])[-1]}
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    args = ap.parse_args(argv)
    control = control_row()
    readings = [control["ms_per_call"]]
    record = {"tag": args.tag, "env": env_rows(), "control": control}
    for name, rows in (("perfbench", perfbench_rows), ("solve", solve_rows),
                       ("zone", zone_rows), ("layers", layer_rows), ("lfa", lfa_rows),
                       ("criteria", criteria_rows), ("commands", command_rows)):
        record[name] = rows()
        readings.append(control_row()["ms_per_call"])
    control.update(readings_ms=readings, ms_per_call=statistics.median(readings))
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
