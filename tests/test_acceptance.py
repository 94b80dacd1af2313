"""Acceptance gate: one test per criterion, at the stated tolerances.

Criteria 01-14 are defined once, in stokesmg.criteria, which also
prints them as `stokesmg theorems`; each test here asserts that every
row of its criterion passes, and adds the wall-clock gates.  Each test
prints a single pass/fail line (visible with -s or in captured output
on failure).
"""

import time

from stokesmg import criteria


def check(num, name, criterion, seconds=None):
    """Run a criterion, print its line and assert its rows (and time limit)."""
    start = time.perf_counter()
    rows = criterion()
    elapsed = time.perf_counter() - start
    failing = [row.line() for row in rows if not row.ok]
    in_time = seconds is None or elapsed < seconds
    print(f"[acceptance {num:02d}] {name}: {'FAIL' if failing or not in_time else 'PASS'}"
          f"  ({len(rows)} rows, {len(failing)} failing, t={elapsed:.2f}s)")
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
    check(11, "V(2,2) mesh independence at three c", criteria.solver_mesh_independence,
          seconds=60.0)


def test_12_solver_c_dependence():
    check(12, "observed factor degrades for small c", criteria.solver_c_dependence,
          seconds=30.0)


def test_13_periodic_smoothing_bounded_by_prediction():
    check(13, "periodic smoothing test bounded by prediction",
          criteria.periodic_smoothing_bounded)


def test_14_solver_mesh_dependence():
    check(14, "V(2,2) at c=0.5 and V(1,1) at c=1/8 grow with n",
          criteria.solver_mesh_dependence, seconds=30.0)
