"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 01-10 are defined once, in stokesmg.criteria, which also
prints them as `stokesmg theorems`; each test here asserts that every
row of its criterion passes, and adds the wall-clock gates.  Criteria
11-13 measure the solver.  Each test prints a single pass/fail line
(visible with -s or in captured output on failure).
"""

import time

from stokesmg import closedform as cf, criteria
from stokesmg.mgsolver import (CycleSpec, homogeneous_problem, max_levels,
                               measure_convergence_factor,
                               measure_periodic_smoothing)
from stokesmg.smoothing import one_stage_optimum
from stokesmg.stencil import make_operator


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance {num:02d}] {name}: {tag}{suffix}")


def check(num, name, criterion, seconds=None):
    """Run a criterion, print its line and assert its rows (and time limit)."""
    start = time.perf_counter()
    rows = criterion()
    elapsed = time.perf_counter() - start
    failing = [row.line() for row in rows if not row.ok]
    in_time = seconds is None or elapsed < seconds
    report(num, name, not failing and in_time,
           f"{len(rows)} rows, {len(failing)} failing, t={elapsed:.2f}s")
    assert not failing, "\n".join(failing)
    assert in_time, f"took {elapsed:.1f} s, limit {seconds} s"


def test_01_poisson_one_stage_optimum():
    check(1, "poisson sweep optimum", criteria.poisson_sweep, seconds=5.0)


def test_02_pressure_block_c_eighth_extrema():
    check(2, "pressure block extrema at c=1/8", criteria.pressure_extrema_at_c_eighth)


def test_03_omega_arbitration_at_c_eighth():
    check(3, "omega(1/8) arbitration", criteria.omega_arbitration)


def test_04_closed_form_matches_sweep_on_nine_c():
    check(4, "closed form vs sweep on nine c values", criteria.closed_form_vs_sweep,
          seconds=60.0)


def test_05_limits_and_omega_minimum():
    check(5, "limits and global omega minimum", criteria.limits_and_omega_minimum)


def test_06_root_c0():
    check(6, "root c0 of rho_opt = 11/43", criteria.root_c0)


def test_07_zones():
    check(7, "zone bounds for rho_opt(c)", criteria.zones)


def test_08_oracle_equivalence():
    check(8, "symbolic representation vs concrete-sweep oracle",
          criteria.oracle_equivalence, seconds=10.0)


def test_09_phase_identity():
    check(9, "color-class phase identity", criteria.phase_identity)


def test_10_pressure_block_dominates():
    check(10, "pressure block dominates the poisson block", criteria.pressure_dominates)


def test_11_solver_mesh_independence():
    start = time.perf_counter()
    # the sweep-arbitrated optimum
    omega = one_stage_optimum(make_operator("pressure_block", c=0.125)).omega_opt
    rhos = []
    for n1 in (32, 64, 128):
        prob = homogeneous_problem(n1 - 1, 0.125)
        spec = CycleSpec(pre_sweeps=2, post_sweeps=2, levels=max_levels(n1 - 1),
                         omega=omega)
        rep = measure_convergence_factor(prob, spec, n_cycles=20, seed=42)
        rhos.append(rep.rho_observed)
    elapsed = time.perf_counter() - start
    spread = max(rhos) - min(rhos)
    ok = all(r < 0.35 for r in rhos) and spread < 0.05 and elapsed < 60.0
    report(11, "V(2,2) mesh independence at c=1/8", ok,
           f"rho(32,64,128)={[round(r, 4) for r in rhos]} spread={spread:.4f} "
           f"t={elapsed:.1f}s")
    assert all(r < 0.35 for r in rhos)
    assert spread < 0.05
    assert elapsed < 60.0


def test_12_solver_c_dependence():
    start = time.perf_counter()
    rhos = {}
    for c in (0.005, 0.125):
        prob = homogeneous_problem(63, c)
        spec = CycleSpec(pre_sweeps=2, post_sweeps=2, levels=max_levels(63),
                         omega=cf.omega_opt_closed(c))
        rhos[c] = measure_convergence_factor(prob, spec, n_cycles=20, seed=42).rho_observed
    elapsed = time.perf_counter() - start
    ok = rhos[0.005] > rhos[0.125] and elapsed < 30.0
    report(12, "observed factor degrades for small c", ok,
           f"rho(c=0.005)={rhos[0.005]:.4f} > rho(c=1/8)={rhos[0.125]:.4f} "
           f"t={elapsed:.1f}s")
    assert rhos[0.005] > rhos[0.125]
    assert elapsed < 30.0


def test_13_periodic_smoothing_bounded_by_prediction():
    results = []
    ok = True
    for c in (1 / 16, 1 / 8, 1.0):
        measured, _ = measure_periodic_smoothing(
            make_operator("pressure_block", c=c), cf.omega_opt_closed(c))
        predicted = cf.rho_opt_closed(c)
        results.append((c, measured, predicted))
        # the lower bound keeps the upper one from passing vacuously
        ok = ok and 0.5 * predicted < measured <= predicted + 0.02
    report(13, "periodic smoothing test bounded by prediction", ok,
           "; ".join(f"c={c:g}: {m:.4f} vs {p:.4f}" for c, m, p in results))
    for c, measured, predicted in results:
        assert 0.5 * predicted < measured <= predicted + 0.02, f"c={c}"
