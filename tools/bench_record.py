"""Record what the solver and the analysis cost, as BENCH_<tag>.json.

Run from anywhere, on a checkout whose stokesmg it measures:

    python3 tools/bench_record.py --tag <tag>

It writes BENCH_<tag>.json at the root of the checkout, holding:

* perfbench: for each workload of BENCHMARK.json, the env line and the
  final JSON line of `perfbench/run.py --seed 1 --seconds <run_seconds>`,
  run as a subprocess;
* solve: the problem of `stokesmg solve --c 0.125 --n <n>` (deepest
  hierarchy, V(2,2), closed-form omega, seed 42) at n = 63/127/255/511,
  cycled SOLVE_CYCLES times after one warm-up cycle: median ms per cycle,
  ns per unknown (3 n^2) per cycle, rho_observed as the command reports
  it, and seconds of cycling per decimal digit of residual reduction;
  and first_cycle_ms, the median over FRESH_PROBLEMS new problems of
  their first cycle, which builds the problem's work buffers and coarse
  levels (the process-wide caches are warmed on another problem first);
* layers: at n = 511, the median ms per call and the calls per cycle of
  the functions the cycle calls on the finest grid (full sweep, band
  sweep, assemble_residual, restrict, prolong) and of the bottom solve,
  timed by wrapping the module attributes the cycle looks them up from;
* lfa: at c = 1/8, the median ms per call of `symbol_grid` on a 17x17
  refine window and on the 257x257 lattice, of the one `_refine` that
  `one_stage_optimum` runs (both the lattice maximum and the lattice
  minimum of the projected eigenvalue, refined in lockstep) and of
  `one_stage_optimum` at 65 and 257 samples per axis, with the field
  evaluations (calls of `smoothing.projected_eigenvalue_grid`) one such
  call makes and, at 257, its tracemalloc peak in MB; and of the two
  referees that use no symbol:
  `mgsolver.measure_periodic_smoothing` at `omega_opt_closed(1/8)` and
  `harmonics.numerical_lfa_oracle` on one pair of a 32-grid, and of the
  `harmonics.periodic_two_color_sweep` both of them call, on a 32x32
  complex grid;
* criteria: seconds, rows and failing rows of each entry of
  `stokesmg.criteria.CRITERIA` (null on a checkout without that module);
* commands: wall seconds and exit codes of the tier-1 suite, `stokesmg
  theorems` and `stokesmg curves --n-points 100` over c in [1e-3, 1e3].

All of it runs single-threaded (OMP/OpenBLAS/MKL threads set to 1), one
measurement at a time.
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

from stokesmg import closedform, harmonics, mgsolver, smoothing, stencil  # noqa: E402

C = 0.125
SOLVE_NS = (63, 127, 255, 511)
SOLVE_CYCLES = 12
FRESH_PROBLEMS = 5
LAYER_N = 511
LAYER_CYCLES = 3
LFA_REPEATS = 20
ORACLE_GRID = 32
PERFBENCH_SEED = 1
COMMANDS = {
    "tier1": [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
    "theorems": [sys.executable, "-m", "stokesmg.cli", "theorems"],
    "curves": [sys.executable, "-m", "stokesmg.cli", "curves", "--c-min", "1e-3",
               "--c-max", "1e3", "--n-points", "100", "--scale", "log"],
}
# what a call works on, per function timed: its grid size, and for a
# sweep also whether it is a band sweep; the LFA field's calls are counted
SIZES = {
    "v_cycle": lambda a, k: a[0].n,
    "distributive_two_color_sweep": lambda a, k: (a[0].n, k.get("point_mask") is not None),
    "assemble_residual": lambda a, k: a[0].n,
    "restrict": lambda a, k: a[0].shape[0] - 2,
    "prolong": lambda a, k: 2 * a[0].shape[0] - 3,
    "_bottom_solve": lambda a, k: a[0].n,
    "projected_eigenvalue_grid": lambda a, k: None,
}


def _env():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def _spec(n):
    return mgsolver.CycleSpec(levels=mgsolver.max_levels(n),
                              omega=closedform.omega_opt_closed(C))


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


class _Timed:
    """Replaces module attributes by wrappers that time each call."""

    def __init__(self, module, names):
        self.module, self.names, self.calls = module, names, []

    def __enter__(self):
        self.saved = {name: getattr(self.module, name) for name in self.names}
        for name, fn in self.saved.items():
            setattr(self.module, name, self._wrap(name, fn))
        return self

    def _wrap(self, name, fn):
        def timed(*args, **kwargs):
            size = SIZES[name](args, kwargs)
            t = time.perf_counter()
            result = fn(*args, **kwargs)
            self.calls.append((name, size, time.perf_counter() - t))
            return result
        return timed

    def __exit__(self, *exc):
        for name, fn in self.saved.items():
            setattr(self.module, name, fn)
        return False


def solve_rows():
    rows = []
    for n in SOLVE_NS:
        spec = _spec(n)
        first_s = []
        for _ in range(1 + FRESH_PROBLEMS):  # the first one warms the caches
            prob = mgsolver.homogeneous_problem(n, C)
            st = mgsolver.random_state(prob)
            t = time.perf_counter()
            mgsolver.v_cycle(prob, st, spec)
            first_s.append(time.perf_counter() - t)
        with _Timed(mgsolver, ["v_cycle"]) as timed:
            report = mgsolver.measure_convergence_factor(prob, spec, SOLVE_CYCLES)
        cycle_s = [t for _, _, t in timed.calls]
        digits = math.log10(report.initial_residual / report.residual_history[-1])
        rows.append({
            "n": n, "c": C, "levels": spec.levels, "cycles": len(cycle_s),
            "ms_per_cycle": 1e3 * statistics.median(cycle_s),
            "first_cycle_ms": 1e3 * statistics.median(first_s[1:]),
            "ns_per_unknown_cycle": 1e9 * statistics.median(cycle_s) / (3 * n * n),
            "rho_observed": report.rho_observed,
            "s_per_digit": sum(cycle_s) / digits,
        })
    return rows


def layer_rows():
    prob, spec = mgsolver.homogeneous_problem(LAYER_N, C), _spec(LAYER_N)
    bottom_n = (LAYER_N + 1) // 2 ** (spec.levels - 1) - 1
    # layer: (function, what its calls work on)
    layers = {
        "sweep_full": ("distributive_two_color_sweep", (LAYER_N, False)),
        "sweep_band": ("distributive_two_color_sweep", (LAYER_N, True)),
        "assemble_residual": ("assemble_residual", LAYER_N),
        "restrict": ("restrict", LAYER_N),
        "prolong": ("prolong", LAYER_N),
        "bottom_solve": ("_bottom_solve", bottom_n),
    }
    st = mgsolver.v_cycle(prob, mgsolver.random_state(prob), spec)
    with _Timed(mgsolver, sorted({fn for fn, _ in layers.values()})) as timed:
        for _ in range(LAYER_CYCLES):
            st = mgsolver.v_cycle(prob, st, spec)
    rows = {"n": LAYER_N, "bottom_n": bottom_n}
    for layer, (fn, size) in layers.items():
        times = [t for name, s, t in timed.calls if (name, s) == (fn, size)]
        rows[layer] = {"calls_per_cycle": len(times) / LAYER_CYCLES,
                       "ms_per_call": 1e3 * statistics.median(times)}
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
    window = np.linspace(-0.01, 0.01, smoothing.REFINE_POINTS)
    ax = smoothing._axis(smoothing.SweepConfig())

    def field(t1, t2):  # what one_stage_optimum refines on
        return smoothing._real_checked(harmonics.projected_eigenvalue_grid(op, t1, t2),
                                       "projected eigenvalue")

    vals = field(ax[:, None], ax[None, :])
    starts = []
    for sign in (1.0, -1.0):
        i = int(np.argmax(sign * vals))
        starts.append((vals.flat[i], float(ax[i // ax.size]), float(ax[i % ax.size]), sign))
    rows = {"c": C}
    for name, points in (("symbol_grid_window", window), ("symbol_grid_lattice", ax)):
        rows[name] = {"points": points.size ** 2, "ms_per_call": _median_ms(
            lambda: stencil.symbol_grid(op, points[:, None], points[None, :]))}
    rows["refine"] = {"ms_per_call": _median_ms(
        lambda: smoothing._refine(field, starts, float(ax[1] - ax[0])))}
    for n in (65, 257):
        cfg = smoothing.SweepConfig(n_samples_per_axis=n)
        with _Timed(smoothing, ["projected_eigenvalue_grid"]) as timed:
            smoothing.one_stage_optimum(op, cfg)
        rows[f"one_stage_optimum_{n}"] = {"ms_per_call": _median_ms(
            lambda: smoothing.one_stage_optimum(op, cfg), 5),
            "field_evals": len(timed.calls)}
    tracemalloc.start()
    smoothing.one_stage_optimum(op, smoothing.SweepConfig(n_samples_per_axis=257))
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    rows["one_stage_optimum_257"]["tracemalloc_peak_mb"] = peak / 1e6
    omega = closedform.omega_opt_closed(C)
    rows["periodic_smoothing"] = {"omega": omega, "ms_per_call": _median_ms(
        lambda: mgsolver.measure_periodic_smoothing(op, omega))}
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
    try:
        from stokesmg import criteria
    except ImportError:  # a checkout from before the criteria module
        return None
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
    record = {"tag": args.tag, "perfbench": perfbench_rows(), "solve": solve_rows(),
              "layers": layer_rows(), "lfa": lfa_rows(), "criteria": criteria_rows(),
              "commands": command_rows()}
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
