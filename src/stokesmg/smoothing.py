"""Projected eigenvalue sweeps and optimal one-stage damping.

The smoothing quality of the damped two-color sweep is governed by the
nonzero eigenvalue of the projected representation diag(0,1) @ rep over
base frequencies in (-pi/2, pi/2]^2.  With real extreme eigenvalues
s_min <= s_max the optimal single damping parameter and resulting factor
are

    omega_opt = 2 / (2 - s_max - s_min)
    rho_opt   = (s_max - s_min) / (2 - s_max - s_min)

Sweeps sample a uniform closed-box grid (odd sample counts put 0 and
+-pi/2 on the lattice) and then zoom locally around each extremum, since
the extremizers are generally off-lattice; without refinement a 257-point
grid is only accurate to about 1e-5 in the extreme values.
"""

import math
from dataclasses import dataclass

import numpy as np

from .stencil import Frequency, Stencil2D, make_operator
from .harmonics import projected_eigenvalue_grid, rep_grid

PI = math.pi
HALF_PI = 0.5 * math.pi

IMAG_TOL = 1e-10

# Pattern-search refinement: at most REFINE_ROUNDS rounds of
# REFINE_POINTS x REFINE_POINTS windows around each lattice extremum.
REFINE_ROUNDS = 80
REFINE_POINTS = 17


@dataclass(frozen=True)
class SweepConfig:
    """Sampling plan for extrema searches over the low-frequency box.

    refine controls the local zoom stages around each coarse extremum;
    with it the extreme values are resolved to ~1e-12.
    """

    n_samples_per_axis: int = 257
    refine: bool = True

    def __post_init__(self):
        if self.n_samples_per_axis < 2:
            raise ValueError("need at least 2 samples per axis")


@dataclass(frozen=True)
class SweepExtrema:
    s_max: float
    s_min: float
    argmax_freq: Frequency
    argmin_freq: Frequency


@dataclass(frozen=True)
class OneStageResult:
    """Extrema of the projected eigenvalue and the optimal damping."""

    s_max: float
    s_min: float
    omega_opt: float
    rho_opt: float
    argmax_freq: Frequency
    argmin_freq: Frequency


@dataclass(frozen=True)
class SmoothingReport:
    rho: float
    n_sweeps: int
    omega: float
    worst_freq: Frequency


@dataclass(frozen=True)
class StokesSmoothing:
    """Per-block optimal smoothing factors for the transformed system."""

    rho_total: float
    rho_poisson: float
    rho_pressure: float


def optimal_one_stage(s_max: float, s_min: float) -> tuple[float, float]:
    """Optimal damping parameter and factor from real extreme eigenvalues.

    Requires -1 < s_min <= s_max < 1; returns (omega_opt, rho_opt).
    """
    if not (-1.0 < s_min <= s_max < 1.0):
        raise ValueError(f"need -1 < s_min <= s_max < 1, got ({s_max}, {s_min})")
    denom = 2.0 - s_max - s_min
    return 2.0 / denom, (s_max - s_min) / denom


def _axis(cfg: SweepConfig) -> np.ndarray:
    return np.linspace(-HALF_PI, HALF_PI, cfg.n_samples_per_axis)


def _real_checked(values: np.ndarray, what: str) -> np.ndarray:
    worst = float(np.abs(values.imag).max())
    if worst > IMAG_TOL:
        raise ValueError(f"{what} has non-negligible imaginary part {worst:.3e}; "
                         "the operator is outside the real-spectrum family")
    return values.real


def _refine(field, t1: float, t2: float, width: float, best: float,
            sign: float) -> tuple[float, float, float]:
    """Zoom around (t1, t2) maximizing sign*field; returns (value, t1, t2).

    Pattern-search style: the window only shrinks when the round's best
    point is interior to it.  A best point on the window edge means the
    extremum lies further out (the pressure eigenvalue has a nearly
    degenerate valley for large c), so the window recenters at full size
    and slides along the valley instead of locking onto the first local
    lattice winner.  Window edges clipped to the frequency box count as
    interior, since extrema are genuinely attained there.
    """
    pts = REFINE_POINTS
    w = width
    for _ in range(REFINE_ROUNDS):
        lo1, hi1 = max(t1 - w, -HALF_PI), min(t1 + w, HALF_PI)
        lo2, hi2 = max(t2 - w, -HALF_PI), min(t2 + w, HALF_PI)
        xs = np.linspace(lo1, hi1, pts)
        ys = np.linspace(lo2, hi2, pts)
        vals = sign * field(xs[:, None], ys[None, :])
        i = int(np.argmax(vals))
        row, col = i // pts, i % pts
        if vals.flat[i] > sign * best:
            best = sign * vals.flat[i]
            t1, t2 = float(xs[row]), float(ys[col])
        on_window_edge = ((row == 0 and lo1 > -HALF_PI)
                          or (row == pts - 1 and hi1 < HALF_PI)
                          or (col == 0 and lo2 > -HALF_PI)
                          or (col == pts - 1 and hi2 < HALF_PI))
        if not on_window_edge:
            w /= 2.0
            if w < 1e-10:
                break
    return best, t1, t2


def _extremum(field, vals: np.ndarray, ax: np.ndarray, sign: float,
              cfg: SweepConfig) -> tuple[float, float, float]:
    """Lattice point maximizing sign*vals, refined on field if cfg.refine.

    vals is field evaluated on the ax x ax lattice; returns (value, t1, t2).
    """
    i = int(np.argmax(sign * vals))
    best, t1, t2 = vals.flat[i], float(ax[i // len(ax)]), float(ax[i % len(ax)])
    if cfg.refine:
        best, t1, t2 = _refine(field, t1, t2, float(ax[1] - ax[0]), best, sign)
    return best, t1, t2


def sweep_extrema(s: Stencil2D, cfg: SweepConfig = SweepConfig()) -> SweepExtrema:
    """Extrema of the projected eigenvalue over the low-frequency box.

    The eigenvalue must be real up to 1e-10 for the operator family under
    analysis; a larger imaginary part raises ValueError.
    """
    ax = _axis(cfg)

    def field(t1, t2):
        return _real_checked(projected_eigenvalue_grid(s, t1, t2),
                             "projected eigenvalue")

    vals = field(ax[:, None], ax[None, :])
    s_max, tmax1, tmax2 = _extremum(field, vals, ax, +1.0, cfg)
    s_min, tmin1, tmin2 = _extremum(field, vals, ax, -1.0, cfg)
    return SweepExtrema(float(s_max), float(s_min),
                        Frequency(tmax1, tmax2), Frequency(tmin1, tmin2))


def one_stage_optimum(s: Stencil2D, cfg: SweepConfig = SweepConfig()) -> OneStageResult:
    """Sweep the projected eigenvalue and derive the optimal damping."""
    ext = sweep_extrema(s, cfg)
    omega, rho = optimal_one_stage(ext.s_max, ext.s_min)
    return OneStageResult(ext.s_max, ext.s_min, omega, rho,
                          ext.argmax_freq, ext.argmin_freq)


def smoothing_factor(s: Stencil2D, omega: float, n_sweeps: int = 1,
                     cfg: SweepConfig = SweepConfig()) -> SmoothingReport:
    """Projected n-sweep factor sup_theta rho(diag(0,1) @ S_omega^n)^(1/n).

    S_omega = (1 - omega) I + omega * rep is the damped representation.
    Projecting zeroes the first row, so the spectral radius is the
    magnitude of the (1, 1) entry of S_omega^n.
    """
    if n_sweeps < 1:
        raise ValueError(f"n_sweeps must be >= 1, got {n_sweeps}")
    if not (0.0 < omega < 2.0):
        raise ValueError(f"damping parameter must lie in (0, 2), got {omega}")

    eye = np.eye(2, dtype=complex)

    def field(t1, t2):
        damped = (1.0 - omega) * eye + omega * rep_grid(s, t1, t2)
        power = damped
        for _ in range(n_sweeps - 1):
            power = np.einsum("...ij,...jk->...ik", power, damped)
        return np.abs(power[..., 1, 1]) ** (1.0 / n_sweeps)

    ax = _axis(cfg)
    best, t1, t2 = _extremum(field, field(ax[:, None], ax[None, :]), ax, +1.0, cfg)
    return SmoothingReport(float(best), n_sweeps, omega, Frequency(t1, t2))


def stokes_smoothing_factor(c: float, cfg: SweepConfig = SweepConfig()) -> StokesSmoothing:
    """Optimal one-stage factors of the two diagonal blocks.

    The transformed Stokes system decouples into two Poisson blocks and
    the stabilized pressure block; the system factor is their maximum,
    which for every c > 0 is the pressure block's.
    """
    if not 0 < c < math.inf:
        raise ValueError(f"stabilization parameter must be positive and finite, got {c}")
    poisson = one_stage_optimum(make_operator("laplacian"), cfg)
    pressure = one_stage_optimum(make_operator("pressure_block", c=c), cfg)
    return StokesSmoothing(max(poisson.rho_opt, pressure.rho_opt),
                           poisson.rho_opt, pressure.rho_opt)
