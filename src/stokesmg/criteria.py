"""The verification criteria 01-13, defined once.

Each criterion computes its quantities and returns them as rows.
``stokesmg theorems`` prints every row of ``CRITERIA`` and the
acceptance tests assert them, so the grids, tolerances and expected
values here are the only copy.  Criterion 07 asserts the zone the
analysis gives, with its dip below the tabulated 25/217.  Criteria
11-13 run the solver: its convergence factor is independent of the
mesh size but depends on the stabilization parameter c.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from .harmonics import (harmonics_of, measure_periodic_smoothing, numerical_lfa_oracle,
                        two_color_rep)
from .mgsolver import CycleSpec, homogeneous_problem, max_levels, measure_convergence_factor
from .smoothing import SweepConfig, one_stage_optimum, smoothing_factor
from .stencil import Frequency, make_operator

NINE_C = (0.02, 1.0 / 27.0, cf.C0_REF, 1.0 / 16.0, 0.1, 0.2, 1.0, 10.0, 100.0)
# log-spaced c in (1/27, 1e3] and in (1e-3, 1/27]
ZONE_UPPER = np.geomspace(1.0 / 27.0, 1e3, 201)[1:]
ZONE_LOWER = np.geomspace(1e-3, 1.0 / 27.0, 51)[1:]
ORACLE_GRID = 16
SOLVER_NS = (31, 63, 127)


@dataclass(frozen=True)
class Row:
    """One checked quantity: the expected value or bound as text, and the value found."""

    name: str
    expected: str
    computed: float
    ok: bool
    note: str = ""

    def line(self) -> str:
        text = (f"{self.name:<44s} expected {self.expected:<26s} "
                f"computed {self.computed:<18.10g} {'PASS' if self.ok else 'FAIL'}")
        return f"{text}  ({self.note})" if self.note else text


def _near(name, expected, computed, tol, note=""):
    return Row(name, f"{expected:.10g} +- {tol:g}", float(computed),
               abs(computed - expected) <= tol, note)


def _pressure(c, n_samples=257):
    return one_stage_optimum(make_operator("pressure_block", c=float(c)),
                             SweepConfig(n_samples_per_axis=n_samples))


def _v22_factor(n, c, omega):
    """Observed V(2,2) factor on the deepest hierarchy: 20 cycles, seed 42."""
    spec = CycleSpec(pre_sweeps=2, post_sweeps=2, levels=max_levels(n), omega=omega)
    return measure_convergence_factor(homogeneous_problem(n, c), spec, n_cycles=20,
                                      seed=42).rho_observed


def _random_pairs(rng, count):
    """count low-range harmonic pairs on the ORACLE_GRID periodic lattice."""
    for _ in range(count):
        j1, j2 = (int(rng.integers(1 - ORACLE_GRID // 4, 1 + ORACLE_GRID // 4))
                  for _ in range(2))
        yield harmonics_of(Frequency(2 * math.pi * j1 / ORACLE_GRID,
                                     2 * math.pi * j2 / ORACLE_GRID))


def poisson_sweep():
    """01: the sweep optimum of the Poisson block."""
    res = one_stage_optimum(make_operator("laplacian"))
    return [_near("poisson S_max", 0.0, res.s_max, 1e-9),
            _near("poisson S_min", -0.125, res.s_min, 1e-9),
            _near("poisson omega_opt", cf.POISSON_OMEGA, res.omega_opt, 1e-9),
            _near("poisson rho_opt", cf.POISSON_RHO, res.rho_opt, 1e-9)]


def pressure_extrema_at_c_eighth():
    """02: the pressure block's extrema and factor at c = 1/8."""
    res = _pressure(0.125)
    return [_near("pressure(1/8) S_max", 1.0 / 49.0, res.s_max, 1e-6),
            _near("pressure(1/8) S_min", -23.0 / 98.0, res.s_min, 1e-6),
            _near("pressure(1/8) rho_opt", cf.RHO_AT_C_EIGHTH, res.rho_opt, 1e-6)]


def omega_arbitration():
    """03: which tabulated damping at c = 1/8 the sweep supports."""
    res = _pressure(0.125)
    matches = [name for name, value in (("28/31", cf.OMEGA_AT_C_EIGHTH),
                                        ("98/217", cf.OMEGA_AT_C_EIGHTH_ALT))
               if abs(res.omega_opt - value) <= 1e-6]
    factor = smoothing_factor(make_operator("pressure_block", c=0.125), res.omega_opt)
    return [Row("pressure(1/8) omega_opt arbitration", "28/31 alone +- 1e-06",
                res.omega_opt, matches == ["28/31"],
                f"sweep supports {' and '.join(matches) or 'neither'}"),
            _near("pressure(1/8) factor at omega_opt", res.rho_opt, factor.rho, 1e-9,
                  "smoothing_factor at the sweep's omega_opt vs its rho_opt")]


def closed_form_vs_sweep():
    """04: closed-form rho_opt and omega_opt against the sweep on nine c."""
    rows = []
    for c in NINE_C:
        res = _pressure(c)
        rows += [_near(f"rho closed vs sweep (c={c:.6g})",
                       cf.rho_opt_closed(c), res.rho_opt, 1e-6),
                 _near(f"omega closed vs sweep (c={c:.6g})",
                       cf.omega_opt_closed(c), res.omega_opt, 1e-6)]
    return rows


def limits_and_omega_minimum():
    """05: the limits of the closed forms and the global minimum of omega_opt."""
    rho_zero = cf.rho_opt_closed(1e-6)
    grid = np.logspace(-3.0, 3.0, 20001)
    omega_min = min(cf.omega_opt_closed(float(c)) for c in grid)
    return [_near("rho_opt limit, c = 1e6", cf.RHO_LIMIT_LARGE_C,
                  cf.rho_opt_closed(1e6), 1e-4),
            Row("rho_opt limit, c = 1e-6", ">= 0.99", rho_zero, rho_zero >= 0.99),
            _near("omega_opt limit, c = 1e6", cf.OMEGA_LIMIT_LARGE_C,
                  cf.omega_opt_closed(1e6), 1e-4),
            _near("omega_opt limit, c = 1e-6", 1.0, cf.omega_opt_closed(1e-6), 1e-3),
            _near("min omega_opt over log grid", cf.OMEGA_GLOBAL_MIN_REF, omega_min,
                  1e-3, f"{grid.size} c in [1e-3, 1e3]")]


def root_c0():
    """06: the root c0 of rho_opt(c) = 11/43."""
    c0 = cf.find_c0()
    return [_near("c0 (rho_opt = 11/43)", cf.C0_REF, c0, 1e-5),
            Row("c0 bracket", "in (1/28, 1/27)", c0, 1.0 / 28.0 < c0 < 1.0 / 27.0)]


def zones():
    """07: the zone of rho_opt(c), which dips below 25/217 on (1/8, C_DIP_END)."""
    rhos_u = np.array([cf.rho_opt_closed(float(c)) for c in ZONE_UPPER])
    rhos_l = np.array([cf.rho_opt_closed(float(c)) for c in ZONE_LOWER])
    undercut = ZONE_UPPER[rhos_u < cf.RHO_AT_C_EIGHTH]
    in_dip = ZONE_UPPER[(ZONE_UPPER > 0.125) & (ZONE_UPPER < cf.C_DIP_END)]
    upper = f"{ZONE_UPPER.size} log-spaced c > 1/27"
    return [Row("zone above 1/27: rho <= 11/43", "<= 11/43 + 1e-6", rhos_u.max(),
                bool((rhos_u <= cf.RHO_LIMIT_LARGE_C + 1e-6).all()), upper),
            Row("zone above 1/27: rho >= RHO_MIN", f">= {cf.RHO_MIN:.10g} - 1e-9",
                rhos_u.min(), bool((rhos_u >= cf.RHO_MIN - 1e-9).all()), upper),
            Row("zone below 1/27: rho in (25/217, 1)", "in (25/217, 1)", rhos_l.min(),
                bool(((rhos_l > cf.RHO_AT_C_EIGHTH) & (rhos_l < 1.0)).all()),
                f"{ZONE_LOWER.size} log-spaced c <= 1/27"),
            Row("rho < 25/217 exactly on (1/8, C_DIP_END)",
                f"the {in_dip.size} sampled c in dip", undercut.size,
                undercut.size > 0 and np.array_equal(undercut, in_dip),
                f"undercut at c = {', '.join(f'{c:.5f}' for c in undercut)} by up to "
                f"{cf.RHO_AT_C_EIGHTH - rhos_u.min():.2e}; C_DIP_END = {cf.C_DIP_END:.8f}")]


def oracle_equivalence():
    """08: the symbolic 2x2 representation against a concrete periodic sweep."""
    rng = np.random.default_rng(2024)
    rows = []
    for kind, c in (("laplacian", None), ("pressure_block", 1 / 16),
                    ("pressure_block", 1 / 8), ("pressure_block", 1.0)):
        s = make_operator(kind, c=c)
        worst = max(float(np.abs(two_color_rep(s, pair)
                                 - numerical_lfa_oracle(s, pair, ORACLE_GRID)).max())
                    for pair in _random_pairs(rng, 50))
        rows.append(_near(f"oracle vs rep, {kind}" + (f"(c={c:g})" if c else ""), 0.0,
                          worst, 1e-10, f"50 pairs, {ORACLE_GRID}x{ORACLE_GRID} grid"))
    return rows


def phase_identity():
    """09: each color class sees the high harmonic as +-1 times the base."""
    k1, k2 = np.meshgrid(np.arange(16), np.arange(16), indexing="ij")
    worst = 0.0
    for pair in _random_pairs(np.random.default_rng(77), 20):
        for alpha, theta in ((0, pair.base), (1, pair.high)):
            got = np.exp(1j * (theta.theta1 * k1 + theta.theta2 * k2))
            sign = np.where((k1 + k2) % 2 == 0, 1.0, (-1.0) ** alpha)
            want = sign * np.exp(1j * (pair.base.theta1 * k1 + pair.base.theta2 * k2))
            worst = max(worst, float(np.abs(got - want).max()))
    return [_near("color-class phase identity", 0.0, worst, 1e-12, "20 pairs")]


def pressure_dominates():
    """10: the pressure block's factor exceeds the Poisson block's at every c."""
    cfg = SweepConfig(n_samples_per_axis=65)
    poisson = one_stage_optimum(make_operator("laplacian"), cfg).rho_opt
    cs = np.concatenate([ZONE_UPPER, ZONE_LOWER])
    margin = min(_pressure(c, 65).rho_opt - poisson for c in cs)
    return [Row("pressure block dominates poisson", "margin > 0", margin, margin > 0,
                f"{cs.size} log-spaced c in (1e-3, 1e3]")]


def solver_mesh_independence():
    """11: the V(2,2) factor does not grow with n, at three c.

    At c = 1/8 with the sweep's omega_opt each factor is also bounded;
    at c = 1/16 and 1 the damping is omega_opt_closed(c).
    """
    rows = []
    for c, omega in ((0.125, _pressure(0.125).omega_opt),
                     (1.0 / 16.0, cf.omega_opt_closed(1.0 / 16.0)),
                     (1.0, cf.omega_opt_closed(1.0))):
        rhos = [_v22_factor(n, c, omega) for n in SOLVER_NS]
        if c == 0.125:
            rows += [Row(f"V(2,2) rho (c={c:g}, n={n})", "< 0.35", rho, rho < 0.35)
                     for n, rho in zip(SOLVER_NS, rhos)]
        spread = max(rhos) - min(rhos)
        rows.append(Row(f"V(2,2) rho spread over n (c={c:g})", "< 0.05", spread,
                        spread < 0.05, "n = 31/63/127: "
                        + ", ".join(f"{rho:.4f}" for rho in rhos)))
    return rows


def solver_c_dependence():
    """12: at n = 63 the V(2,2) factor is worse at c = 0.005 than at c = 1/8."""
    small, eighth = (_v22_factor(63, c, cf.omega_opt_closed(c)) for c in (0.005, 0.125))
    return [Row("V(2,2) rho (c=0.005, n=63)", f"> rho(c=0.125) = {eighth:.6g}", small,
                small > eighth)]


def periodic_smoothing_bounded():
    """13: the measured periodic smoothing rate against the predicted rho_opt.

    The lower bound keeps the upper one from passing vacuously.
    """
    rows = []
    for c in (1.0 / 16.0, 0.125, 1.0):
        predicted = cf.rho_opt_closed(c)
        measured, _ = measure_periodic_smoothing(make_operator("pressure_block", c=c),
                                                 cf.omega_opt_closed(c))
        rows.append(Row(f"periodic smoothing rate (c={c:g})",
                        f"in ({0.5 * predicted:.6g}, {predicted + 0.02:.6g}]", measured,
                        0.5 * predicted < measured <= predicted + 0.02))
    return rows


CRITERIA = (poisson_sweep, pressure_extrema_at_c_eighth, omega_arbitration,
            closed_form_vs_sweep, limits_and_omega_minimum, root_c0, zones,
            oracle_equivalence, phase_identity, pressure_dominates,
            solver_mesh_independence, solver_c_dependence, periodic_smoothing_bounded)
