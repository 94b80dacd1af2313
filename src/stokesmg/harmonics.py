"""Harmonic mode pairs and the two-color Jacobi relaxation in Fourier space.

This module is the periodic half of the analysis: the symbols and pair
representations, the concrete red-black sweep on a periodic grid, and
the two referees that run it, the pair oracle (numerical_lfa_oracle)
and the smoothing measurement (measure_periodic_smoothing).

Under standard coarsening, the modes theta and theta + (pi, pi) alias to
the same coarse-grid mode.  A two-color (red-black) point relaxation
leaves each such pair invariant, so its action is a 2x2 complex matrix
per pair.  Matrices here are plain numpy arrays ordered so that index 0
is the low-frequency member of the pair and index 1 the aliased high
partner; the ideal coarse-grid projector is then literally diag(0, 1).

Red points are those with even index sum k1 + k2 and are relaxed first.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .stencil import Frequency, Stencil2D, _is_count, symbol_grid

PI = math.pi


@dataclass(frozen=True)
class HarmonicPair:
    """A low-frequency base mode and its aliasing high-frequency partner.

    base lies in (-pi/2, pi/2]^2; high is base + (pi, pi) reduced into
    (-pi, pi]^2.
    """

    base: Frequency
    high: Frequency


def harmonics_of(base: Frequency) -> HarmonicPair:
    """Build the aliasing pair for a low-frequency base mode.

    Raises ValueError if base is not in (-pi/2, pi/2]^2.
    """
    if not base.is_low():
        raise ValueError(f"base frequency {base.as_tuple()} is outside (-pi/2, pi/2]^2")
    return HarmonicPair(base, Frequency(base.theta1 + PI, base.theta2 + PI))


def _check_center(s: Stencil2D):
    if s.center == 0:
        raise ValueError(f"stencil {s.name!r} has zero center coefficient")


def jacobi_symbol(s: Stencil2D, t1, t2):
    """Error-propagation symbol 1 - symbol(theta)/center of point Jacobi.

    t1, t2 may be scalars or broadcastable arrays, as for symbol_grid.
    """
    _check_center(s)
    return 1.0 - symbol_grid(s, t1, t2) / s.center


def _pair_symbols(s: Stencil2D, t1, t2):
    """Jacobi symbols (a0, a1) at the base frequencies and their partners.

    One jacobi_symbol call evaluates both: each of t1, t2 is stacked with
    itself plus pi along a new leading axis, at its own shape, so an
    (m, 1) x (1, m) lattice becomes (2, m, 1) x (2, 1, m).
    """
    t1, t2 = np.asarray(t1, dtype=float), np.asarray(t2, dtype=float)
    nd = max(t1.ndim, t2.ndim)

    def with_partner(t):
        t = t.reshape((1,) * (1 + nd - t.ndim) + t.shape)
        return np.concatenate((t, t + PI))

    a = jacobi_symbol(s, with_partner(t1), with_partner(t2))
    return a[0, ...], a[1, ...]


def rep_grid(s: Stencil2D, t1, t2) -> np.ndarray:
    """Two-color representation of one full undamped red-black sweep.

    t1, t2 are broadcastable arrays of base frequencies; the result has
    shape broadcast(t1, t2).shape + (2, 2).  With a0, a1 the Jacobi
    symbols at the two pair members, the red half-sweep (even-sum points)
    and the black half-sweep are

        red   = 1/2 [[a0 + 1, a1 - 1], [a0 - 1, a1 + 1]]
        black = 1/2 [[a0 + 1, 1 - a1], [1 - a0, a1 + 1]]

    and, since the black half-sweep uses fresh red values, the sweep is
    black @ red, expanded entrywise below.
    """
    a0, a1 = _pair_symbols(s, t1, t2)
    out = np.empty(a0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.25 * ((a0 + 1) ** 2 + (1 - a1) * (a0 - 1))
    out[..., 0, 1] = 0.25 * ((a0 + 1) * (a1 - 1) + (1 - a1) * (a1 + 1))
    out[..., 1, 0] = 0.25 * ((1 - a0) * (a0 + 1) + (a1 + 1) * (a0 - 1))
    out[..., 1, 1] = 0.25 * ((1 - a0) * (a1 - 1) + (a1 + 1) ** 2)
    return out


def two_color_rep(s: Stencil2D, pair: HarmonicPair) -> np.ndarray:
    """The 2x2 representation of one undamped red-black sweep on a pair."""
    return rep_grid(s, *pair.base.as_tuple())


def projected_eigenvalue_grid(s: Stencil2D, t1, t2) -> np.ndarray:
    """Nonzero eigenvalue of diag(0,1) @ rep over base-frequency arrays.

    The projected matrix has a zero first row, so this is just the
    (1, 1) entry of the representation, computed without the others.
    It is 0.25 * ((1 - a0) * (a1 - 1) + (a1 + 1) ** 2), evaluated in
    place on the pair's symbols, which this call owns: a lattice-sized
    call then leaves fewer freed arrays behind in the process heap.
    """
    a0, a1 = _pair_symbols(s, t1, t2)
    low = np.subtract(1, a0, out=a0)
    low *= a1 - 1
    a1 += 1
    a1 **= 2
    return 0.25 * (low + a1)


# bounded: one plan per grid shape and stencil layout in use
@functools.lru_cache(maxsize=16)
def _color_plan(n1: int, n2: int, offsets: tuple) -> tuple:
    """Each color's nodes on an n1 x n2 periodic grid and their neighbours.

    Returns ((red_nodes, red_nbrs), (black_nodes, black_nbrs)).  nodes
    holds the color's flat indices; nbrs[m, q] is the flat index of
    g[(i + o1) % n1, (j + o2) % n2] for offsets[m] = (o1, o2) and node q
    at (i, j).  Every array is read-only, since every caller shares it.
    """
    i, j = np.divmod(np.arange(n1 * n2), n2)
    o1, o2 = np.array(offsets).T[:, :, None]
    plan = []
    for color in (0, 1):
        nodes = np.flatnonzero((i + j) % 2 == color)
        nbrs = (i[nodes] + o1) % n1 * n2 + (j[nodes] + o2) % n2
        nodes.setflags(write=False)
        nbrs.setflags(write=False)
        plan.append((nodes, nbrs))
    return tuple(plan)


def periodic_two_color_sweep(s: Stencil2D, e: np.ndarray) -> np.ndarray:
    """One undamped red-black Jacobi sweep of e on a periodic grid.

    Red points (even index sum) are relaxed first, then black points from
    the fresh red values.  The stencil is applied by periodic neighbour
    indices, so no symbol enters: this is the concrete sweep that the
    symbols model.  Each half-sweep evaluates the stencil at its color's
    nodes only: one gather of every entry's neighbours, one multiply by
    the coefficients, a sum over the entries in entry order, a divide by
    the center, and a subtract into those nodes of a copy of e.  The
    result is a new array of e's floating (or complex) type; an integer
    grid gives float64.
    """
    _check_center(s)
    out = np.array(e, dtype=np.result_type(e, 1.0), order="C")
    flat = out.reshape(-1)
    coefs = s.plan.coefs
    for nodes, nbrs in _color_plan(*out.shape, s.plan.offsets):
        terms = flat.take(nbrs)
        # in the grid's own precision, as a Python float coefficient gives
        np.multiply(terms, coefs, out=terms, dtype=terms.dtype)
        update = np.add.reduce(terms, axis=0)
        update /= s.center
        flat[nodes] -= update
    return out


def _lattice_index(theta: float, n_grid: int) -> int:
    j = theta * n_grid / (2.0 * PI)
    ji = round(j)
    if abs(j - ji) > 1e-9:
        raise ValueError(f"frequency {theta} is not a multiple of 2*pi/{n_grid}")
    return ji % n_grid


def numerical_lfa_oracle(s: Stencil2D, pair: HarmonicPair, n_grid: int) -> np.ndarray:
    """Measure the two-color sweep matrix on a concrete periodic grid.

    Performs one periodic_two_color_sweep on each of the pair's modes
    over an n_grid x n_grid periodic grid and projects the images back
    onto the pair by discrete inner products.  Both pair frequencies must
    lie on the sampling lattice (integer multiples of 2*pi/n_grid) so the
    modes are exactly periodic.

    This is an independent check of the closed-form representation; no
    symbols are used.
    """
    if not _is_count(n_grid) or n_grid % 2 != 0 or n_grid < 8:
        raise ValueError(f"n_grid must be an even integer >= 8, got {n_grid}")
    for th in (pair.base, pair.high):
        _lattice_index(th.theta1, n_grid)
        _lattice_index(th.theta2, n_grid)

    k1, k2 = np.meshgrid(np.arange(n_grid), np.arange(n_grid), indexing="ij")
    modes = [np.exp(1j * (th.theta1 * k1 + th.theta2 * k2))
             for th in (pair.base, pair.high)]
    m = np.zeros((2, 2), dtype=complex)
    for col, phi in enumerate(modes):
        e = periodic_two_color_sweep(s, phi)
        for row, psi in enumerate(modes):
            m[row, col] = np.mean(e * np.conj(psi))
    return m


PERIODIC_GRID = 32
PERIODIC_SWEEPS = 30


def _high_pair_projector(n: int) -> np.ndarray:
    """The n x n matrix P with P @ e @ P.T = ifft2(fft2(e) * high-box mask).

    The high box, the partners of the low box (-pi/2, pi/2]^2, is the
    tensor product high(t1) & high(t2) of one per-axis mask over the
    fftfreq frequencies, so the 2D projection splits into P = ifft(diag
    (high) fft(I)) along each axis.  No symbol enters it.
    """
    theta = 2.0 * PI * np.fft.fftfreq(n)
    high = ~((theta > -PI / 2) & (theta <= PI / 2))
    return np.fft.ifft(high[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)


def measure_periodic_smoothing(s: Stencil2D, omega: float,
                               seed: int = 0) -> tuple[float, list]:
    """Per-sweep damping of aliasing-pair error on a periodic grid.

    The two-color sweep leaves every mode pair {mu, mu + (pi, pi)}
    invariant.  The pair family analyzed by the sweep machinery (and the
    one an ideal coarse-grid correction interacts with) is the aliasing
    family whose base lies in the low box: the error is seeded with
    random content of its high members, each step applies one damped
    two-color sweep and then removes all low-box Fourier content, and
    the asymptotic norm ratio is the measured factor.  It can only fall
    short of the analytic supremum because the grid samples finitely
    many pairs.  Returns (rho_measured, ratios); omega must lie in (0, 2).
    An error that vanishes exactly ends the run, and the fit takes the
    ratios before it (rho_measured is 0 when there are none).

    The complementary pairs with both members high (e.g. the pair of
    (pi, 0) and (0, pi)) evolve independently at their own rates, which
    the one-stage optimum does not describe: at c = 1/8 with the optimal
    damping they decay at 15/31 per sweep.  The per-step projection
    removes them along with the low content; otherwise rounding noise
    re-seeds them and their slower decay takes over the measured tail
    after a few dozen sweeps.
    """
    if not (0.0 < omega < 2.0):
        raise ValueError(f"damping parameter must lie in (0, 2), got {omega}")
    proj = _high_pair_projector(PERIODIC_GRID)

    def project_to_family_high(e):
        return proj @ e @ proj.T

    def sweep(e):
        return (1.0 - omega) * e + omega * periodic_two_color_sweep(s, e)

    rng = np.random.default_rng(seed)
    shape = (PERIODIC_GRID, PERIODIC_GRID)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    e = project_to_family_high(noise)
    ratios = []
    norm = np.linalg.norm(e)
    for _ in range(PERIODIC_SWEEPS):
        e = project_to_family_high(sweep(e))
        new = np.linalg.norm(e)
        ratios.append(float(new / norm))
        if new < 1e-200:
            break
        e /= new
        norm = 1.0
    tail = ratios[:-1 if ratios[-1] == 0.0 else None][-5:]
    rho = float(np.exp(np.mean(np.log(tail)))) if tail else 0.0
    return rho, ratios
