"""Projected eigenvalue sweeps and optimal one-stage damping.

The smoothing quality of the damped two-color sweep is governed by the
nonzero eigenvalue of the projected representation diag(0,1) @ rep over
base frequencies in (-pi/2, pi/2]^2.  With real extreme eigenvalues
s_min <= s_max the optimal single damping parameter and resulting factor
are

    omega_opt = 2 / (2 - s_max - s_min)
    rho_opt   = (s_max - s_min) / (2 - s_max - s_min)

one_stage_optimum is the one extremum search: it samples a uniform
closed-box grid (odd sample counts put 0 and +-pi/2 on the lattice) and
then zooms locally around both extrema in lockstep, since the
extremizers are generally off-lattice; the 257-point grid alone is only
accurate to about 1e-5 in the extreme values.  smoothing_factor, the
damped factor at a given omega, referees it by definition.
"""

import math
from dataclasses import dataclass

import numpy as np

from .stencil import Frequency, Stencil2D
from .harmonics import projected_eigenvalue_grid

HALF_PI = 0.5 * math.pi

IMAG_TOL = 1e-10

# Pattern-search refinement: at most REFINE_ROUNDS rounds of
# REFINE_POINTS x REFINE_POINTS windows around each lattice extremum.
REFINE_ROUNDS = 80
REFINE_POINTS = 17


@dataclass(frozen=True)
class SweepConfig:
    """Sampling plan for extrema searches over the low-frequency box.

    Each lattice extremum is refined by local zoom stages, which resolve
    the extreme values to ~1e-12.
    """

    n_samples_per_axis: int = 257

    def __post_init__(self):
        if self.n_samples_per_axis < 2:
            raise ValueError("need at least 2 samples per axis")


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
    omega: float
    worst_freq: Frequency


def optimal_one_stage(s_max: float, s_min: float) -> tuple[float, float]:
    """Optimal damping parameter and factor from real extreme eigenvalues.

    Requires -1 < s_min <= s_max < 1; returns (omega_opt, rho_opt).
    """
    if not (-1.0 < s_min <= s_max < 1.0):
        raise ValueError(f"need -1 < s_min <= s_max < 1, got ({s_min}, {s_max})")
    denom = 2.0 - s_max - s_min
    return 2.0 / denom, (s_max - s_min) / denom


def _axis(cfg: SweepConfig) -> np.ndarray:
    return np.linspace(-HALF_PI, HALF_PI, cfg.n_samples_per_axis)


def _real_checked(values: np.ndarray, what: str) -> np.ndarray:
    worst = float(np.abs(values.imag).max())
    if not worst <= IMAG_TOL:  # NaN too
        size = "non-negligible" if worst < math.inf else "non-finite"
        raise ValueError(f"{what} has {size} imaginary part {worst:.3e}; "
                         "the operator is outside the real-spectrum family")
    return values.real


@dataclass
class _Search:
    """One pattern search of _refine: best value, its point, window half-width."""

    value: float
    t1: float
    t2: float
    w: float
    sign: float


def _refine(field, starts, width: float) -> list:
    """Zoom around each start, maximizing sign*field; returns [(value, t1, t2)].

    starts lists (value, t1, t2, sign) per extremum, with value the field
    at (t1, t2).  The searches run in lockstep: each round stacks the
    live searches' windows along a leading axis and evaluates them in one
    field call, while each search keeps its own center, width and stop
    rule, so it visits the windows it would visit alone.

    Pattern-search style: a window only shrinks when the round's best
    point is interior to it.  A best point on the window edge means the
    extremum lies further out (the pressure eigenvalue has a nearly
    degenerate valley for large c), so the window recenters at full size
    and slides along the valley instead of locking onto the first local
    lattice winner.  Window edges clipped to the frequency box count as
    interior, since extrema are genuinely attained there.

    An edge round that does not improve on the best value leaves the
    center and the width as they were, so every later round would
    repeat it; the search stops there.  Next to an extremum the field is
    flat to rounding and an edge point can tie the best.
    """
    pts = REFINE_POINTS
    searches = [_Search(value, t1, t2, width, sign) for value, t1, t2, sign in starts]
    live = searches
    for _ in range(REFINE_ROUNDS):
        # windows[k] = (lo1, lo2, hi1, hi2) of live search k
        windows = np.array([(max(q.t1 - q.w, -HALF_PI), max(q.t2 - q.w, -HALF_PI),
                             min(q.t1 + q.w, HALF_PI), min(q.t2 + q.w, HALF_PI))
                            for q in live])
        # axes[k] = (xs, ys) of live search k
        axes = np.linspace(windows[:, :2], windows[:, 2:], pts).transpose(1, 2, 0)
        stacked = field(axes[:, 0, :, None], axes[:, 1, None, :])
        still = []
        for q, (xs, ys), (lo1, lo2, hi1, hi2), vals in zip(live, axes, windows, stacked):
            vals = q.sign * vals
            i = int(np.argmax(vals))
            row, col = i // pts, i % pts
            improved = vals.flat[i] > q.sign * q.value
            if improved:
                q.value = q.sign * vals.flat[i]
                q.t1, q.t2 = float(xs[row]), float(ys[col])
            on_window_edge = ((row == 0 and lo1 > -HALF_PI)
                              or (row == pts - 1 and hi1 < HALF_PI)
                              or (col == 0 and lo2 > -HALF_PI)
                              or (col == pts - 1 and hi2 < HALF_PI))
            if not on_window_edge:
                q.w /= 2.0
                if q.w >= 1e-10:
                    still.append(q)
            elif improved:
                still.append(q)
        live = still
        if not live:
            break
    return [(q.value, q.t1, q.t2) for q in searches]


def _extrema(field, ax: np.ndarray, signs) -> list:
    """Maximizers of sign*field over the low box, one per sign.

    Each starts at its lattice point of the ax x ax lattice, and all are
    refined together; returns [(value, t1, t2)] in the order of signs.
    The lattice values are dropped before the refine starts.
    """
    vals = field(ax[:, None], ax[None, :])
    n = ax.size
    starts = []
    for sign in signs:
        i = int(np.argmax(sign * vals))
        starts.append((vals.flat[i], float(ax[i // n]), float(ax[i % n]), sign))
    del vals
    return _refine(field, starts, float(ax[1] - ax[0]))


def one_stage_optimum(s: Stencil2D, cfg: SweepConfig = SweepConfig()) -> OneStageResult:
    """Extrema of the projected eigenvalue and the optimal damping they give.

    Each extremum over the low-frequency box is found on the cfg lattice
    and then refined.  The eigenvalue must be real up to 1e-10 for the
    operator family under analysis; a larger imaginary part raises
    ValueError.
    """
    def field(t1, t2):
        return _real_checked(projected_eigenvalue_grid(s, t1, t2),
                             "projected eigenvalue")

    (s_max, tmax1, tmax2), (s_min, tmin1, tmin2) = _extrema(field, _axis(cfg),
                                                            (+1.0, -1.0))
    s_max, s_min = float(s_max), float(s_min)
    omega, rho = optimal_one_stage(s_max, s_min)
    return OneStageResult(s_max, s_min, omega, rho,
                          Frequency(tmax1, tmax2), Frequency(tmin1, tmin2))


def smoothing_factor(s: Stencil2D, omega: float,
                     cfg: SweepConfig = SweepConfig()) -> SmoothingReport:
    """Projected one-sweep factor sup_theta rho(diag(0,1) @ S_omega).

    S_omega = (1 - omega) I + omega * rep is the damped representation.
    Projecting zeroes the first row, so the spectral radius is the
    magnitude of the (1, 1) entry of S_omega, which is (1 - omega) +
    omega times the projected eigenvalue.
    """
    if not (0.0 < omega < 2.0):
        raise ValueError(f"damping parameter must lie in (0, 2), got {omega}")

    def field(t1, t2):
        return np.abs((1.0 - omega) + omega * projected_eigenvalue_grid(s, t1, t2))

    [(best, t1, t2)] = _extrema(field, _axis(cfg), (+1.0,))
    return SmoothingReport(float(best), omega, Frequency(t1, t2))
