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

The lattice is evaluated in row blocks of at most LATTICE_BLOCK_POINTS
(2^14) base points, written into one real output, so that a block's
complex temporaries stay in cache; at 257 samples the search's
tracemalloc peak is about 1.7 MB.  A window search stops once its
half-width is below REFINE_MIN_WIDTH, where the window's spacing falls
below sqrt(eps): the field is flat to rounding there, and the optimum
meets the closed forms to about 5e-16.  At c = 1/8 the windows take
19/18/17 field evaluations at 65/129/257 samples, and the lattice 1/2/5
blocks; the README's notes on frequency sweeps give the recorded timings.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .closedform import _optimum
from .stencil import Frequency, Stencil2D, _check_damping, _is_count
from .harmonics import projected_eigenvalue_grid

HALF_PI = 0.5 * math.pi

IMAG_TOL = 1e-10

# Pattern-search refinement: at most REFINE_ROUNDS rounds of
# REFINE_POINTS x REFINE_POINTS windows around each lattice extremum.
REFINE_ROUNDS = 80
REFINE_POINTS = 17
# A search stops once its window half-width falls below this, where the
# window's spacing falls below sqrt(eps): a smooth extremum changes by the
# square of that distance, so the field is flat to rounding there.
REFINE_MIN_WIDTH = (REFINE_POINTS - 1) / 2 * math.sqrt(sys.float_info.epsilon)
# The seed lattice is evaluated in row blocks of at most this many base
# points, so that a block's complex temporaries stay cache-sized.
LATTICE_BLOCK_POINTS = 2 ** 14


@dataclass(frozen=True)
class SweepConfig:
    """Sampling plan for extrema searches over the low-frequency box.

    The lattice is evaluated in row blocks of at most LATTICE_BLOCK_POINTS
    base points.  Each lattice extremum is then refined by local zoom
    stages until the window's spacing falls below sqrt(eps), which
    resolves the extreme values to rounding.
    """

    n_samples_per_axis: int = 257

    def __post_init__(self):
        if not _is_count(self.n_samples_per_axis) or self.n_samples_per_axis < 2:
            raise ValueError(f"need an integer number of samples per axis >= 2, "
                             f"got {self.n_samples_per_axis}")


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
    return _optimum(s_max, s_min)


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
        # the bits of np.linspace(lo, hi, pts), without its per-call overhead
        lo, hi = windows[:, :2, None], windows[:, 2:, None]
        axes = np.arange(pts) * ((hi - lo) / (pts - 1)) + lo
        axes[:, :, -1] = hi[:, :, 0]
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
                if q.w >= REFINE_MIN_WIDTH:
                    still.append(q)
            elif improved:
                still.append(q)
        live = still
        if not live:
            break
    return [(q.value, q.t1, q.t2) for q in searches]


def _lattice(field, ax: np.ndarray) -> np.ndarray:
    """field on the ax x ax lattice, in row blocks of near-equal row counts.

    Each block holds at most LATTICE_BLOCK_POINTS base points (or one
    row, if a row holds more) and is written into one real output; each
    value is the one the whole-lattice call gives.
    """
    n = ax.size
    blocks = -(-n // max(1, LATTICE_BLOCK_POINTS // n))  # the fewest that fit
    rows = -(-n // blocks)  # spread evenly over them
    vals = np.empty((n, n))
    for start in range(0, n, rows):
        vals[start:start + rows] = field(ax[start:start + rows, None], ax[None, :])
    return vals


def _extrema(field, ax: np.ndarray, signs) -> list:
    """Maximizers of sign*field over the low box, one per sign.

    Each starts at its lattice point of the ax x ax lattice, and all are
    refined together; returns [(value, t1, t2)] in the order of signs.
    The lattice values are dropped before the refine starts.
    """
    vals = _lattice(field, ax)
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
    _check_damping(omega)

    def field(t1, t2):
        return np.abs((1.0 - omega) + omega * projected_eigenvalue_grid(s, t1, t2))

    [(best, t1, t2)] = _extrema(field, _axis(cfg), (+1.0,))
    return SmoothingReport(float(best), omega, Frequency(t1, t2))
