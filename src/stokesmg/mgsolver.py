"""Geometric multigrid for the stabilized collocated Stokes system.

Unknowns u, v, p live on the nodes of a uniform grid over the unit
square, stored as (n+2) x (n+2) arrays whose outer ring holds boundary
data: Dirichlet values for the velocities, first-order mirror ghosts for
the pressure.  The discrete system at interior nodes is

    -lap u + dx p          = f1
    -lap v + dy p          = f2
    dx u + dy v - c h^2 lap p = f3

with the 5-point Laplacian and central first differences.  The smoother
is the damped two-color distributive Jacobi sweep: ghost corrections are
computed per color from the current residual using the diagonal blocks
of the transformed system (two Poisson blocks and the stabilized
pressure block with center (20c+1)/h^2), then mapped back through the
distribution operator (I, -dx; I, -dy; -lap).

The distribution degenerates near the Dirichlet boundary (ghost
corrections are zero-extended), which leaves a band of poorly smoothed
pressure error; V-cycles therefore apply a few extra band-restricted
sweeps per smoothing step.  Without them the V-cycle convergence factor
degrades with every added level and diverges on fine grids, while
two-grid cycles stay near the interior prediction.

The bottom grid of every cycle is solved exactly, by one correction
with the cached pseudo-inverse of its system matrix; it may be at most
BOTTOM_MAX_N x BOTTOM_MAX_N.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import periodic_two_color_sweep
from .stencil import Stencil2D

PI = math.pi


# ---------------------------------------------------------------------------
# data types


@dataclass
class StokesProblem:
    """Discrete problem: grid size, stabilization, right-hand sides, boundary.

    n interior nodes per axis with h = 1/(n+1); n+1 must be a power of
    two so standard coarsening reaches the 3x3 coarsest grid.  f3 is the
    right-hand side of the stabilized continuity equation (zero for the
    plain flow problem, nonzero for coarse-level correction equations and
    manufactured solutions).
    """

    n: int
    c: float
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    g_u: np.ndarray
    g_v: np.ndarray
    pressure_anchor: tuple[int, int] = (1, 1)

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"stabilization parameter must be positive, got {self.c}")
        if self.n < 3 or (self.n + 1) & self.n != 0:
            raise ValueError(f"n + 1 must be a power of two with n >= 3, got n = {self.n}")
        shape = (self.n + 2, self.n + 2)
        for name in ("f1", "f2", "f3", "g_u", "g_v"):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        ai, aj = self.pressure_anchor
        if not (1 <= ai <= self.n and 1 <= aj <= self.n):
            raise ValueError(f"pressure anchor {self.pressure_anchor} is not interior")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)


@dataclass
class StokesState:
    """Collocated grid fields; ring of u, v is Dirichlet data, of p ghosts."""

    u: np.ndarray
    v: np.ndarray
    p: np.ndarray

    def copy(self) -> "StokesState":
        return StokesState(self.u.copy(), self.v.copy(), self.p.copy())


@dataclass(frozen=True)
class CycleSpec:
    """Multigrid cycle parameters.

    levels is the depth of the hierarchy the cycle visits; levels = 2 is
    the two-grid cycle.  boundary_relax is the number of undamped sweeps
    over the BOUNDARY_BAND nodes next to the boundary appended to every
    smoothing step.  Set boundary_relax = 0 to disable.
    """

    pre_sweeps: int = 2
    post_sweeps: int = 2
    levels: int = 2
    omega: float = 1.0
    boundary_relax: int = 2

    def __post_init__(self):
        if self.pre_sweeps < 0 or self.post_sweeps < 0:
            raise ValueError("sweep counts must be nonnegative")
        if self.pre_sweeps + self.post_sweeps < 1:
            raise ValueError("need at least one pre- or post-sweep")
        if self.levels < 2:
            raise ValueError(f"need at least 2 levels, got {self.levels}")
        if not (0.0 < self.omega < 2.0):
            raise ValueError(f"damping parameter must lie in (0, 2), got {self.omega}")


@dataclass
class ConvergenceReport:
    """Residual history of a cycling run and its asymptotic factor."""

    initial_residual: float
    residual_history: list = field(default_factory=list)
    rho_observed: float = 0.0
    k_tail: int = 5
    diverged: bool = False

    def ratios(self) -> list:
        prev = [self.initial_residual] + self.residual_history[:-1]
        return [r / q for r, q in zip(self.residual_history, prev)]


# ---------------------------------------------------------------------------
# grid helpers


def _mirror_ghosts(p: np.ndarray):
    p[0, :] = p[1, :]
    p[-1, :] = p[-2, :]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]


# A node selector names a set of interior nodes together with their four
# neighbours: five indices into the (n+2) x (n+2) arrays, for the nodes
# themselves and for the nodes shifted by i+1, i-1, j+1 and j-1.  Each
# index is a pair of slices (the interior, a strided color sub-lattice) or
# a pair of index arrays (the colored nodes of a point mask).  The
# difference operators evaluate at any selector, so residuals and
# distributed corrections alike come from this one set of stencils.


def _selector(i, j) -> tuple:
    if isinstance(i, slice):
        def shift(s, d):
            return slice(s.start + d, s.stop + d, s.step)
    else:
        def shift(s, d):
            return s + d
    return ((i, j), (shift(i, 1), j), (shift(i, -1), j),
            (i, shift(j, 1)), (i, shift(j, -1)))


def _neg_lap(a: np.ndarray, h: float, at: tuple) -> np.ndarray:
    c, xp, xm, yp, ym = at
    return (4.0 * a[c] - a[xp] - a[xm] - a[yp] - a[ym]) / h**2


def _ddx(a: np.ndarray, h: float, at: tuple) -> np.ndarray:
    return (a[at[1]] - a[at[2]]) / (2.0 * h)


def _ddy(a: np.ndarray, h: float, at: tuple) -> np.ndarray:
    return (a[at[3]] - a[at[4]]) / (2.0 * h)


@functools.lru_cache(maxsize=None)
def _interior(n: int) -> tuple:
    return _selector(slice(1, n + 1), slice(1, n + 1))


# The sweep plans below list, per color (red first), the selectors of the
# nodes the color updates and of the other-color interior nodes next to
# them.  A node's four neighbours always have the other color.


@functools.lru_cache(maxsize=None)
def _lattice_plan(n: int) -> tuple:
    """Sweep plan over the whole interior, by strided sub-lattices.

    Red nodes (even index sum) are the (odd, odd) and (even, even) nodes
    of the padded array, black ones the two mixed sub-lattices.
    """
    odd, even = slice(1, n + 1, 2), slice(2, n + 1, 2)
    red = (_selector(odd, odd), _selector(even, even))
    black = (_selector(odd, even), _selector(even, odd))
    return (red, black), (black, red)


# bounded: one band per grid size in use, plus whatever masks callers pass
@functools.lru_cache(maxsize=32)
def _masked_plan(n: int, packed_mask: bytes) -> tuple:
    """Sweep plan over the nodes of an (n, n) point mask, by index arrays.

    The mask comes bit-packed (np.packbits) so that it can key the cache.
    The index arrays are read-only.
    """
    mask = np.unpackbits(np.frombuffer(packed_mask, dtype=np.uint8), count=n * n)
    i, j = np.nonzero(mask.reshape(n, n))
    i, j = i + 1, j + 1
    plan = []
    for parity in (0, 1):
        own = (i + j) % 2 == parity
        ci, cj = i[own], j[own]
        near = np.zeros((n + 2, n + 2), dtype=bool)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            near[ci + di, cj + dj] = True
        ni, nj = np.nonzero(near[1:-1, 1:-1])
        sels = (_selector(ci, cj), _selector(ni + 1, nj + 1))
        for idx in (a for sel in sels for pair in sel for a in pair):
            idx.setflags(write=False)
        plan.append(((sels[0],), (sels[1],)))
    return tuple(plan)


# width in nodes of the boundary band that CycleSpec.boundary_relax sweeps
BOUNDARY_BAND = 3


@functools.lru_cache(maxsize=None)
def _band_mask(n: int) -> np.ndarray:
    """Interior nodes within BOUNDARY_BAND of the boundary, as a read-only (n, n) mask."""
    inner = np.zeros((n, n), dtype=bool)
    if n > 2 * BOUNDARY_BAND:
        inner[BOUNDARY_BAND:n - BOUNDARY_BAND, BOUNDARY_BAND:n - BOUNDARY_BAND] = True
    band = ~inner
    band.setflags(write=False)
    return band


def max_levels(n: int) -> int:
    """Deepest usable hierarchy for n interior nodes (coarsest grid 3x3)."""
    return int(math.log2(n + 1)) - 1


# ---------------------------------------------------------------------------
# problem and state constructors


def _zeros(n: int) -> np.ndarray:
    return np.zeros((n + 2, n + 2))


def homogeneous_problem(n: int, c: float) -> StokesProblem:
    """Zero right-hand sides and boundary data; exact solution is zero."""
    return StokesProblem(n, c, _zeros(n), _zeros(n), _zeros(n), _zeros(n), _zeros(n))


def zero_state(prob: StokesProblem) -> StokesState:
    st = StokesState(prob.g_u.copy(), prob.g_v.copy(), _zeros(prob.n))
    st.u[1:-1, 1:-1] = 0.0
    st.v[1:-1, 1:-1] = 0.0
    return st


def random_state(prob: StokesProblem, seed: int = 42) -> StokesState:
    """Random interior fields over the problem's boundary data, anchored."""
    rng = np.random.default_rng(seed)
    st = zero_state(prob)
    st.u[1:-1, 1:-1] = rng.standard_normal((prob.n, prob.n))
    st.v[1:-1, 1:-1] = rng.standard_normal((prob.n, prob.n))
    st.p[1:-1, 1:-1] = rng.standard_normal((prob.n, prob.n))
    _anchor(st, prob)
    return st


def manufactured_problem(n: int, c: float) -> tuple[StokesProblem, StokesState]:
    """Smooth trigonometric fields with right-hand sides built discretely.

    The right-hand sides are the discrete operator applied to the sampled
    fields (the continuity mismatch of the sampled velocities lands in
    f3), so the returned state solves the discrete system to rounding and
    is a fixed point of the smoother and the cycles.
    """
    h = 1.0 / (n + 1)
    x = np.linspace(0.0, 1.0, n + 2)
    xg, yg = np.meshgrid(x, x, indexing="ij")
    u = np.sin(PI * xg) * np.sin(PI * yg)
    v = np.sin(PI * xg) * np.sin(PI * yg)
    p = np.cos(PI * xg) * np.cos(PI * yg)
    p -= p[1, 1]
    _mirror_ghosts(p)

    at = _interior(n)
    f1, f2, f3 = _zeros(n), _zeros(n), _zeros(n)
    f1[at[0]] = _neg_lap(u, h, at) + _ddx(p, h, at)
    f2[at[0]] = _neg_lap(v, h, at) + _ddy(p, h, at)
    f3[at[0]] = _ddx(u, h, at) + _ddy(v, h, at) + c * h**2 * _neg_lap(p, h, at)

    g_u = u.copy()
    g_u[1:-1, 1:-1] = 0.0
    g_v = v.copy()
    g_v[1:-1, 1:-1] = 0.0
    prob = StokesProblem(n, c, f1, f2, f3, g_u, g_v)
    return prob, StokesState(u, v, p)


# ---------------------------------------------------------------------------
# residual and smoother


def _residual_at(prob: StokesProblem, u: np.ndarray, v: np.ndarray, p: np.ndarray,
                 at: tuple) -> tuple:
    """Residual rhs - L x at the nodes of selector at; p's ghosts must be mirrored."""
    h, c = prob.h, at[0]
    r1 = prob.f1[c] - (_neg_lap(u, h, at) + _ddx(p, h, at))
    r2 = prob.f2[c] - (_neg_lap(v, h, at) + _ddy(p, h, at))
    r3 = prob.f3[c] - (_ddx(u, h, at) + _ddy(v, h, at)
                       + prob.c * h**2 * _neg_lap(p, h, at))
    return r1, r2, r3


def assemble_residual(prob: StokesProblem, st: StokesState):
    """Residual rhs - L x at interior nodes; returned rings are zero.

    The pressure ring is re-derived by mirroring before differencing, so
    the result does not depend on the ghost values the caller left in p.
    """
    p = st.p.copy()
    _mirror_ghosts(p)
    at = _interior(prob.n)
    out = []
    for block in _residual_at(prob, st.u, st.v, p, at):
        r = _zeros(prob.n)
        r[at[0]] = block
        out.append(r)
    return tuple(out)


def residual_norm(prob: StokesProblem, st: StokesState) -> float:
    r1, r2, r3 = assemble_residual(prob, st)
    return float(np.sqrt((r1**2).sum() + (r2**2).sum() + (r3**2).sum()))


def _anchor(st: StokesState, prob: StokesProblem):
    ai, aj = prob.pressure_anchor
    st.p[1:-1, 1:-1] -= st.p[ai, aj]
    _mirror_ghosts(st.p)


def distributive_two_color_sweep(prob: StokesProblem, st: StokesState,
                                 omega: float, point_mask: np.ndarray | None = None
                                 ) -> StokesState:
    """One damped two-color distributive Jacobi sweep; returns a new state.

    Red interior nodes (even index sum) are treated first, then black,
    each from a fresh residual.  Ghost corrections are divided by the
    diagonal of the transformed system (4/h^2 for the velocity blocks,
    (20c+1)/h^2 for the pressure block), zero-extended outside the
    interior, and distributed as du = w1 - dx w3, dv = w2 - dy w3,
    dp = -lap w3.  The damping is applied to the complete sweep:
    (1-omega) * old + omega * swept.  Boundary velocities are untouched;
    the pressure is re-anchored at the problem's anchor node.

    point_mask optionally restricts the update to a subset of interior
    nodes, an (n, n) boolean array (used for the boundary-band
    relaxation).  Each color evaluates its residual only at the nodes it
    updates, and distributes only onto them and their neighbours: a full
    sweep works through strided sub-lattices, a masked one through
    cached index arrays, so a band sweep costs O(band) stencil work.
    """
    n, h = prob.n, prob.h
    d_vel = 4.0 / h**2
    d_pre = (20.0 * prob.c + 1.0) / h**2
    if point_mask is None:
        plan = _lattice_plan(n)
    elif point_mask.shape != (n, n):
        raise ValueError(f"point_mask has shape {point_mask.shape}, expected {(n, n)}")
    else:
        plan = _masked_plan(n, np.packbits(point_mask).tobytes())
    out = st.copy()
    _mirror_ghosts(out.p)
    w3 = np.zeros_like(out.p)
    for nodes, near in plan:
        # the ghosts w1, w2, w3 are nonzero on the color's nodes only, so
        # du = w1 and dv = w2 there (dx w3 and dy w3 vanish), du = -dx w3
        # and dv = -dy w3 on the neighbours, and dp = -lap w3 on both.  No
        # two nodes of a color are neighbours, so adding w1, w2 on one
        # sub-lattice leaves the residual on the next one unchanged.
        for at in nodes:
            r1, r2, r3 = _residual_at(prob, out.u, out.v, out.p, at)
            out.u[at[0]] += r1 / d_vel
            out.v[at[0]] += r2 / d_vel
            w3[at[0]] = r3 / d_pre
        for at in nodes:
            out.p[at[0]] += _neg_lap(w3, h, at)
        for at in near:
            out.u[at[0]] -= _ddx(w3, h, at)
            out.v[at[0]] -= _ddy(w3, h, at)
            out.p[at[0]] += _neg_lap(w3, h, at)
        _mirror_ghosts(out.p)
        for at in nodes:
            w3[at[0]] = 0.0
    if omega != 1.0:
        for new, old in ((out.u, st.u), (out.v, st.v), (out.p, st.p)):
            new -= old
            new *= omega
            new += old
    _anchor(out, prob)
    return out


def _smooth_step(prob: StokesProblem, st: StokesState, spec: CycleSpec,
                 band: np.ndarray | None) -> StokesState:
    st = distributive_two_color_sweep(prob, st, spec.omega)
    if band is not None:
        for _ in range(spec.boundary_relax):
            st = distributive_two_color_sweep(prob, st, 1.0, point_mask=band)
    return st


# ---------------------------------------------------------------------------
# transfers


def restrict(fine: np.ndarray) -> np.ndarray:
    """Full-weighting restriction to the coarse grid; ring stays zero."""
    n = fine.shape[0] - 2
    nc = (n + 1) // 2 - 1
    if nc < 1 or n % 2 == 0 or fine.shape[0] != fine.shape[1]:
        raise ValueError(f"grid of shape {fine.shape} cannot be coarsened")
    coarse = np.zeros((nc + 2, nc + 2))
    coarse[1:-1, 1:-1] = (
        4.0 * fine[2:-2:2, 2:-2:2]
        + 2.0 * (fine[1:-3:2, 2:-2:2] + fine[3:-1:2, 2:-2:2]
                 + fine[2:-2:2, 1:-3:2] + fine[2:-2:2, 3:-1:2])
        + fine[1:-3:2, 1:-3:2] + fine[3:-1:2, 1:-3:2]
        + fine[1:-3:2, 3:-1:2] + fine[3:-1:2, 3:-1:2]) / 16.0
    return coarse


def prolong(coarse: np.ndarray) -> np.ndarray:
    """Bilinear interpolation to the next finer grid.

    Values at fine nodes adjacent to the boundary average the coarse ring
    entries, so the caller controls the boundary behavior through them
    (zero ring for velocity corrections, mirrored ring for pressure).
    The returned fine ring is zero.
    """
    nc = coarse.shape[0] - 2
    n = 2 * nc + 1
    fine = np.zeros((n + 2, n + 2))
    ev = slice(2, -2, 2)
    od = slice(1, None, 2)
    fine[ev, ev] = coarse[1:-1, 1:-1]
    fine[od, ev] = 0.5 * (coarse[:-1, 1:-1] + coarse[1:, 1:-1])
    fine[ev, od] = 0.5 * (coarse[1:-1, :-1] + coarse[1:-1, 1:])
    fine[od, od] = 0.25 * (coarse[:-1, :-1] + coarse[1:, :-1]
                           + coarse[:-1, 1:] + coarse[1:, 1:])
    return fine


# ---------------------------------------------------------------------------
# exact bottom solve

# largest bottom grid: its pseudo-inverse takes about 0.2 s to build at
# 15x15 (675 unknowns), but about 9 s and 66 MB at 31x31
BOTTOM_MAX_N = 15


def _interior_vector(r1: np.ndarray, r2: np.ndarray, r3: np.ndarray) -> np.ndarray:
    return np.concatenate([r[1:-1, 1:-1].ravel() for r in (r1, r2, r3)])


# bounded: a 15x15 pseudo-inverse holds 3.6 MB, and a sweep over c adds one per c
@functools.lru_cache(maxsize=16)
def _bottom_pinv(n: int, c: float) -> np.ndarray:
    """Pseudo-inverse of the system matrix on the n x n grid, read-only.

    Column k is the operator applied to the k-th unit state (interior u,
    then v, then p, each row-major), read off assemble_residual so that
    the discretization has one implementation.  The constant pressure
    spans the one-dimensional null space, which the pseudo-inverse
    absorbs; the caller re-anchors the pressure.
    """
    prob = homogeneous_problem(n, c)
    st = zero_state(prob)
    cols = []
    for a in (st.u, st.v, st.p):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a[i, j] = 1.0
                cols.append(-_interior_vector(*assemble_residual(prob, st)))
                a[i, j] = 0.0
    pinv = np.linalg.pinv(np.column_stack(cols))
    pinv.setflags(write=False)
    return pinv


def _bottom_solve(prob: StokesProblem, st: StokesState) -> StokesState:
    """One exact correction st + A^+ r(st); returns a new, anchored state.

    A matrix-vector product rather than a least-squares solve per call,
    so a non-finite residual passes through to the divergence check.
    """
    n = prob.n
    d = _bottom_pinv(n, prob.c) @ _interior_vector(*assemble_residual(prob, st))
    out = st.copy()
    for a, block in zip((out.u, out.v, out.p), d.reshape(3, n, n)):
        a[1:-1, 1:-1] += block
    _anchor(out, prob)
    return out


# ---------------------------------------------------------------------------
# cycles


def _cycle(prob: StokesProblem, st: StokesState, spec: CycleSpec, depth: int
           ) -> StokesState:
    if depth == 1:
        return _bottom_solve(prob, st)

    band = _band_mask(prob.n) if spec.boundary_relax > 0 else None

    for _ in range(spec.pre_sweeps):
        st = _smooth_step(prob, st, spec, band)

    r1, r2, r3 = assemble_residual(prob, st)
    nc = (prob.n + 1) // 2 - 1
    coarse_prob = StokesProblem(nc, prob.c, restrict(r1), restrict(r2), restrict(r3),
                                _zeros(nc), _zeros(nc))
    coarse = _cycle(coarse_prob, zero_state(coarse_prob), spec, depth - 1)

    st = st.copy()
    st.u[1:-1, 1:-1] += prolong(coarse.u)[1:-1, 1:-1]
    st.v[1:-1, 1:-1] += prolong(coarse.v)[1:-1, 1:-1]
    _mirror_ghosts(coarse.p)
    st.p[1:-1, 1:-1] += prolong(coarse.p)[1:-1, 1:-1]
    _mirror_ghosts(st.p)

    for _ in range(spec.post_sweeps):
        st = _smooth_step(prob, st, spec, band)
    _anchor(st, prob)
    return st


def v_cycle(prob: StokesProblem, st: StokesState, spec: CycleSpec) -> StokesState:
    """One V-cycle over spec.levels levels (two-grid for levels = 2).

    The bottom grid is solved exactly and may be at most
    BOTTOM_MAX_N x BOTTOM_MAX_N.
    """
    if spec.levels > max_levels(prob.n):
        raise ValueError(f"{spec.levels} levels need a finer grid than n = {prob.n} "
                         f"(max {max_levels(prob.n)})")
    nb = (prob.n + 1) // 2 ** (spec.levels - 1) - 1
    if nb > BOTTOM_MAX_N:
        raise ValueError(f"{spec.levels} levels leave a {nb}x{nb} bottom grid at "
                         f"n = {prob.n}; the exact bottom solve takes at most "
                         f"{BOTTOM_MAX_N}x{BOTTOM_MAX_N}, so use more levels")
    return _cycle(prob, st, spec, spec.levels)


def measure_convergence_factor(prob: StokesProblem, spec: CycleSpec,
                               n_cycles: int, seed: int = 42) -> ConvergenceReport:
    """Cycle on the problem from a random state and fit the residual decay.

    rho_observed is the geometric mean of the last k_tail = 5 residual
    reduction ratios.  The run has diverged when a residual is not finite
    or rho_observed exceeds 1; this is flagged in the report, not raised,
    and the history is still returned.  Cycling stops early at a
    non-finite residual or at growth past 1e8 of the start.
    """
    if n_cycles < 10:
        raise ValueError(f"need n_cycles >= 10 for a stable tail, got {n_cycles}")
    st = random_state(prob, seed)
    r0 = residual_norm(prob, st)
    report = ConvergenceReport(initial_residual=r0)
    for _ in range(n_cycles):
        st = v_cycle(prob, st, spec)
        r = residual_norm(prob, st)
        report.residual_history.append(r)
        if not math.isfinite(r) or r > 1e8 * r0:
            break
    tail = report.ratios()[-report.k_tail:]
    report.rho_observed = float(np.exp(np.mean(np.log(tail))))
    report.diverged = not math.isfinite(r) or report.rho_observed > 1.0
    return report


# ---------------------------------------------------------------------------
# periodic smoothing measurement


def measure_periodic_smoothing(s: Stencil2D, omega: float, n_grid: int = 32,
                               n_sweeps: int = 30, seed: int = 0
                               ) -> tuple[float, list]:
    """Per-sweep damping of aliasing-pair error on a periodic grid.

    The two-color sweep leaves every mode pair {mu, mu + (pi, pi)}
    invariant.  The pair family analyzed by the sweep machinery (and the
    one an ideal coarse-grid correction interacts with) is the aliasing
    family whose base lies in the low box: the error is seeded with
    random content of its high members, each step applies one damped
    two-color sweep and then removes all low-box Fourier content, and
    the asymptotic norm ratio is the measured factor.  It can only fall
    short of the analytic supremum because the grid samples finitely
    many pairs.  Returns (rho_measured, ratios).

    The complementary pairs with both members high (e.g. the pair of
    (pi, 0) and (0, pi)) evolve independently at their own rates, which
    the one-stage optimum does not describe: at c = 1/8 with the optimal
    damping they decay at 15/31 per sweep.  The per-step projection
    removes them along with the low content; otherwise rounding noise
    re-seeds them and their slower decay takes over the measured tail
    after a few dozen sweeps.
    """
    if n_grid % 2 != 0 or n_grid < 8:
        raise ValueError(f"n_grid must be even and >= 8, got {n_grid}")
    theta = 2.0 * PI * np.fft.fftfreq(n_grid)
    t1, t2 = np.meshgrid(theta, theta, indexing="ij")
    low1 = (t1 > -PI / 2) & (t1 <= PI / 2)
    low2 = (t2 > -PI / 2) & (t2 <= PI / 2)
    high_pair_member = ~low1 & ~low2  # partners of the low box

    def project_to_family_high(e):
        return np.fft.ifft2(np.fft.fft2(e) * high_pair_member)

    def sweep(e):
        return (1.0 - omega) * e + omega * periodic_two_color_sweep(s, e)

    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((n_grid, n_grid)) \
        + 1j * rng.standard_normal((n_grid, n_grid))
    e = project_to_family_high(noise)
    ratios = []
    norm = np.linalg.norm(e)
    for _ in range(n_sweeps):
        e = project_to_family_high(sweep(e))
        new = np.linalg.norm(e)
        ratios.append(float(new / norm))
        if new < 1e-200:
            break
        e /= new
        norm = 1.0
    rho = float(np.exp(np.mean(np.log(ratios[-5:]))))
    return rho, ratios
