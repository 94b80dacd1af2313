"""Geometric multigrid for the stabilized collocated Stokes system.

This module is the Dirichlet solver alone.  It re-exports the periodic
referee measure_periodic_smoothing only because the benchmark in
perfbench/ calls and traces that function under this module's name.

Unknowns u, v, p live on the nodes of a uniform grid over the unit
square, stored as (n+2) x (n+2) arrays whose outer ring holds boundary
data: Dirichlet values for the velocities, first-order mirror ghosts for
the pressure.  The discrete system at interior nodes is

    -lap u + dx p          = f1
    -lap v + dy p          = f2
    dx u + dy v - c h^2 lap p = f3

with make_operator's 5-point "laplacian" and central "ddx" and "ddy",
which the residual and the distribution apply (_apply takes 5-point
stencils only), and c h^2 as in its "pressure_block".  The smoother
is the damped two-color distributive Jacobi sweep: ghost corrections are
computed per color from the current residual, divided by the stencil
centers of the transformed system's diagonal blocks (make_operator's
"laplacian" twice and "pressure_block"), then mapped back through the
distribution operator (I, -dx; I, -dy; -lap).

The sweep and the cycles update the state they are given, in place.  A
full sweep works on a red-black packed copy of the state, where each
color and its four neighbour runs are contiguous slices, and blends and
unpacks it into the state in one last step.  A band sweep (point_mask)
is undamped and works on the state itself.

The grid transfers write into arrays they are given too: restrict
overwrites a coarse grid's interior with the full-weighting restriction
of the fine grid above it, and prolong adds the bilinear interpolation
of a coarse grid into the fine grid's interior.  The cycles call both.

The distribution degenerates near the Dirichlet boundary (ghost
corrections are zero-extended), which leaves a band of poorly smoothed
pressure error; every smoothing step therefore ends with BOUNDARY_SWEEPS
undamped sweeps over a band BOUNDARY_BAND nodes wide.  Without them the
V-cycle convergence factor degrades with every added level and diverges
on fine grids, while two-grid cycles stay near the interior prediction.

The bottom grid of every cycle is solved exactly, by one correction
with the cached pseudo-inverse of its system matrix; it may be at most
BOTTOM_MAX_N x BOTTOM_MAX_N.  The matrix is minus the residual's
_matrix_of: _matrix_of builds the dense matrix of any linear map of
states (the residual, or a whole cycle) column by column from the unit
states, so the discretization has one implementation.

A StokesProblem is frozen, so n and c cannot be rebound under what was
built from them; its arrays stay writable.  It owns the work buffers of
the sweeps and residuals on it and, once cycled on, the coarse level
below it: the coarse problem, whose right-hand sides every cycle
overwrites with the restricted residual, and the coarse correction
state, which every cycle zeroes.  So the first cycle on a problem builds
its hierarchy, later cycles reuse it, and it dies with the problem.
Every coarse level's work buffers are views of the leading entries of
the finest level's, so one set of 6 serves the whole hierarchy.

The solver splits two kinds of elementwise pass over a large grid into
two node ranges: the full sweep's (its pack, each color's residual and
own-node update, then its distribution onto the neighbours, then the
blend and unpack) and assemble_residual's residual.  One rule, the
grid's, decides: the n x n grid the pass covers has n >= _PART_MIN_N.
So a V(2,2) cycle at n = 511 makes 25 two-part passes, 6 per full sweep
and 1 for the residual.  The host decides only who runs the second
range: where two CPUs are usable, the worker (the thread of a
ThreadPoolExecutor made on first use in each process, so a forked child
makes its own) runs it while the calling thread runs the first, and the
caller waits for both; where one is, the caller runs both, first then
second.  Every other pass stays on the caller (see _PART_MIN_N for why).
Each split pass gives every node the same operations on the same
operands as one pass would, and a sum always runs whole, so the results
are bit-identical whatever the part count or the host.
"""

import functools
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import closedform as cf
from .stencil import Stencil2D, _check_damping, _is_count, make_operator
from .harmonics import _tail_factor

# not used here: perfbench/workloads.py calls this name and
# perfbench/layers.py traces it as mgsolver.measure_periodic_smoothing
from .harmonics import measure_periodic_smoothing  # noqa: F401

PI = math.pi


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class StokesProblem:
    """Discrete problem: grid size, stabilization, right-hand sides, boundary.

    n interior nodes per axis with h = 1/(n+1); n+1 must be a power of
    two so standard coarsening reaches the 3x3 coarsest grid.  f3 is the
    right-hand side of the stabilized continuity equation (zero for the
    plain flow problem, nonzero for coarse-level correction equations and
    manufactured solutions).  The sweep's diagonals d_vel = 4/h^2 and
    d_pre = (20c+1)/h^2 are the centers of make_operator's "laplacian"
    and "pressure_block", built once here, so c must be positive and
    keep every pressure_block coefficient finite.  The residual and the
    distribution apply its "laplacian", "ddx" and "ddy", also built once
    here.  The fields cannot be rebound, but the arrays can be written.
    The problem owns the 6 work grids of the sweeps and residuals
    evaluated on it (see _SCRATCH) and the coarse levels its cycles use,
    whose work grids view its own, so two threads
    must not sweep, take residuals or cycle on one problem at the same time.
    On a large grid the solver itself splits those passes in two, over
    disjoint nodes and bit for bit, and where two CPUs are usable hands
    the second part to one worker thread of its own (see the module
    docstring); a caller on another thread meanwhile queues its second
    parts on that worker.
    """

    n: int
    c: float
    f1: np.ndarray
    f2: np.ndarray
    f3: np.ndarray
    g_u: np.ndarray
    g_v: np.ndarray
    d_vel: float = field(init=False, repr=False, compare=False)
    d_pre: float = field(init=False, repr=False, compare=False)
    _laplacian: tuple = field(init=False, repr=False, compare=False)  # _apply plans
    _ddx: tuple = field(init=False, repr=False, compare=False)
    _ddy: tuple = field(init=False, repr=False, compare=False)
    # work buffers of the sweeps and residuals on this grid, by name (see
    # _buffers), and the coarse level below it (see _coarse_level), made
    # on first use; they live and die with the problem
    _scratch: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_grid(self.n)  # first: h divides by n + 1
        ops = {kind: make_operator(kind, h=self.h) for kind in ("laplacian", "ddx", "ddy")}
        object.__setattr__(self, "d_vel", ops["laplacian"].center)
        object.__setattr__(self, "d_pre", make_operator("pressure_block", h=self.h, c=self.c).center)
        for kind, op in ops.items():
            object.__setattr__(self, "_" + kind, _plan(op))
        for name in ("f1", "f2", "f3", "g_u", "g_v"):
            _flat(getattr(self, name), self.n, name)

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
    """Multigrid cycle parameters; CycleSpec() is the cycle `stokesmg solve` runs.

    levels is the depth of the hierarchy the cycle visits; levels = 2 is
    the two-grid cycle, CycleSpec(levels=2).  omega damps the full
    sweeps, not the band's.  v_cycle resolves a None field from the
    problem it cycles on: levels to the deepest hierarchy, max_levels(n),
    and omega to the closed-form optimum, omega_opt_closed(c).
    """

    pre_sweeps: int = 2
    post_sweeps: int = 2
    levels: int | None = None
    omega: float | None = None

    def __post_init__(self):
        counts = (self.pre_sweeps, self.post_sweeps)
        if not all(_is_count(k) and k >= 0 for k in counts):
            raise ValueError(f"sweep counts must be nonnegative integers, got {counts}")
        if self.pre_sweeps + self.post_sweeps < 1:
            raise ValueError("need at least one pre- or post-sweep")
        if self.levels is not None and (not _is_count(self.levels) or self.levels < 2):
            raise ValueError(f"need an integer number of levels >= 2, got {self.levels}")
        if self.omega is not None:
            _check_damping(self.omega)


@dataclass
class ConvergenceReport:
    """Residual history of a cycling run and its asymptotic factor."""

    initial_residual: float
    residual_history: list = field(default_factory=list)
    rho_observed: float = 0.0
    diverged: bool = False

    def ratios(self) -> list:
        prev = [self.initial_residual] + self.residual_history[:-1]
        return [r / q for r, q in zip(self.residual_history, prev)]


# ---------------------------------------------------------------------------
# grid helpers


# A problem's work buffers, (n+2) x (n+2) each, by name and count:
# w3, the sweep's ghost buffer for the pressure correction (zero between
# colors); state, the packed copy of the state a full sweep works on,
# or between sweeps the residual blocks of the cycle, the bottom solve
# and residual_norm; blocks, a sweep's four half-grid temporaries, which
# between sweeps hold assemble_residual's mirrored p and its temporary,
# and residual_norm's squares.  No call needs more than these 6 at once.
# What a call leaves in them is read, if at all, before the next sweep
# or residual on any level, and only w3 must start zeroed, so coarse
# levels can share them (see _coarse_level).
_SCRATCH = {"w3": 1, "state": 3, "blocks": 2}


def _buffers(prob: StokesProblem, name: str) -> tuple:
    """The work buffers of prob under name, made zeroed on first use.

    A coarse level gets views of the finer level's buffers instead, when
    _coarse_level builds it.
    """
    bufs = prob._scratch.get(name)
    if bufs is None:
        bufs = prob._scratch[name] = tuple(_zeros(prob.n) for _ in range(_SCRATCH[name]))
    return bufs


def _flat(a: np.ndarray, n: int, name: str = "array") -> np.ndarray:
    """A flat view of a; raises unless a is an (n+2) x (n+2) float64 C-contiguous grid."""
    if a.shape != (n + 2, n + 2):
        raise ValueError(f"{name} has shape {a.shape}, expected {(n + 2, n + 2)}")
    if a.dtype != np.float64:
        raise ValueError(f"{name} has dtype {a.dtype}, expected float64")
    if not a.flags.c_contiguous:
        raise ValueError(f"{name} is not C-contiguous, so its flat view would be a copy")
    return a.reshape(-1)


def _writable(a: np.ndarray, n: int, name: str) -> np.ndarray:
    """_flat(a, n, name) for an array the solver writes; raises also if a is read-only."""
    flat = _flat(a, n, name)
    if not flat.flags.writeable:
        raise ValueError(f"{name} is read-only")
    return flat


# A full sweep's passes and the residual over an n x n grid run in two
# parts (see _run) when n is at least _PART_MIN_N, whatever the host.
# On a 2-core host, every pass at n = 255 (at most 33,024 nodes a part)
# but the residual ran slower in two parts, up to 1.4x, while every pass
# at n = 511 (at least 65,280 a part) ran 1.3-2x faster, and at n = 1023
# 1.5-2x.  With one usable CPU the caller runs the two parts back to
# back, which was no slower than one whole pass: pinned to one CPU, an
# n = 511, c = 1/8 solve took 676 ms whole against 622 ms in halves
# (medians of 12 alternating in-process solves, halves faster in 10), and
# a V-cycle with its norm 117.0 against 104.8 ms (9 of 10); in another
# session 20 such solves read 1193 against 997 ms (halves faster in 17)
# and 12 read 966 against 964 ms (7).  Sums, whose rounding numpy blocks
# by the length of what it adds, never split.  Nor do the grid transfers:
# in two parts they saved about 0.5 of 1.5 ms a call at n = 511, some
# 3 ms of a 125 ms V-cycle, which 10 alternating pairs of the n = 511
# benchmark solve could not tell from its run-to-run spread.  Nor do the
# anchoring and the squares of residual_norm, whose two parts tied with
# one in alternating n = 511 V-cycles; nor the band sweeps, which ran 2x
# slower in two parts.
_PART_MIN_N = 511


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _part_count(n: int) -> int:
    """Parts for a full sweep's passes or the residual over the n x n grid.

    Two if n >= _PART_MIN_N, else one, whatever the host: _run alone asks
    whether a second CPU takes a part.  No other pass asks: the rest run
    whole.
    """
    return 2 if n >= _PART_MIN_N else 1


def _cuts(start: int, stop: int, parts: int) -> tuple:
    """range(start, stop) cut into parts slices of nearly equal length."""
    ends = [start + (stop - start) * k // parts for k in range(parts + 1)]
    return tuple(slice(a, b) for a, b in zip(ends, ends[1:]))


@functools.lru_cache(maxsize=1)
def _executor(pid: int):
    """The worker of process pid: its one thread runs every second part.

    Keyed by os.getpid(), so a forked child, which has no worker thread,
    makes its own on first use.
    """
    # here, not at import: concurrent.futures loads logging, some 50 ms
    # when compiled from source, as the benchmark's setup does
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(1, thread_name_prefix="stokesmg-parts")


def _run(job, parts: tuple):
    """job(part) for each of one or two parts; the one place that asks for CPUs.

    With one usable CPU the caller runs every part, in order.  With two,
    a second part runs on the worker, the thread of _executor(pid), under
    the caller's numpy error state, which numpy keeps per thread.  The
    caller runs the first part meanwhile, and waits for the worker before
    it returns or raises, so an error in either part reaches it only once
    both are done (the caller's own error first).  An interrupt does not
    end the wait: it is raised once the worker's part is done.  Callers
    on other threads queue their second parts on the same worker.
    """
    if len(parts) == 1 or _usable_cpus() < 2:
        for part in parts:
            job(part)
        return
    errstate = np.geterr()

    def second():
        with np.errstate(**errstate):
            job(parts[1])

    future = _executor(os.getpid()).submit(second)
    try:
        job(parts[0])
    finally:
        interrupt = None
        while True:
            try:
                error = future.exception()
            except BaseException as caught:
                interrupt = caught
            else:
                break
        if interrupt is not None:
            raise interrupt
    if error is not None:
        raise error


# The grid is stored flat, k = i (n+2) + j.  A node selector names a set
# of nodes together with their four neighbours: five flat indices, for the
# nodes themselves and for the nodes at i+1, i-1, j+1 and j-1, which are
# shifts by n+2, -(n+2), 1 and -1.  Each index is a slice (a run of the
# grid) or an index array (the nodes of a point mask).  The difference
# operators evaluate at any selector into a given output, so residuals and
# distributed corrections alike come from this one set of stencils.
#
# n+2 is odd, so the parity of k is the parity of i + j: each color is one
# stride-2 run, and the interior is one stride-1 run.  A run also passes
# the ring columns j = 0 and j = n+1 of rows 1..n; its values there are
# junk, computed from wrapped neighbours, and never reach u, v or w3.
#
# The red-black packed layout of the grid keeps the even k (red) at k/2
# and the odd k (black) after them, at R + (k-1)/2 with R = ((n+2)^2+1)/2.
# Nodes of one parity follow each other there as in the flat grid, so a
# stride-2 run of the flat grid, and each of its four neighbour runs, is
# one contiguous slice of the packed layout.


def _selector(k, stride: int) -> tuple:
    if isinstance(k, slice):
        def shift(d):
            return slice(k.start + d, k.stop + d, k.step)
    else:
        def shift(d):
            return k + d
    return (k, shift(stride), shift(-stride), shift(1), shift(-1))


def _count(k) -> int:
    return len(range(k.start, k.stop, k.step)) if isinstance(k, slice) else len(k)


def _split_run(k: slice, parts: int) -> tuple:
    """The run k cut into parts runs, each with its span: the positions of its nodes in k."""
    return tuple((slice(k.start + s.start * k.step, k.start + s.stop * k.step, k.step), s)
                 for s in _cuts(0, _count(k), parts))


# h, 2h and h^2 are powers of two (see _check_grid), so multiplying by
# their reciprocals, which are exact, gives the bits of dividing by them.


def _plan(s: Stencil2D) -> tuple:
    """The 5-point stencil s as _apply takes it: (center, pair, terms, scale) in units of scale."""
    scale = max(abs(v) for off, v in s.entries.items() if off != (0, 0))
    slots = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))  # a selector's, in order
    w = {slots.index(off): v / scale for off, v in s.entries.items() if v != 0.0}
    terms = tuple(({1.0: np.add, -1.0: np.subtract}[x], k) for k, x in w.items() if k)
    if 0 in w:
        return w[0], (), terms, scale
    (pos,), (neg,) = ([k for k in w if w[k] == x] for x in (1.0, -1.0))  # one of each sign
    return 0.0, (pos, neg), (), scale


def _apply(plan: tuple, a: np.ndarray, at: tuple, out: np.ndarray) -> np.ndarray:
    """The planned stencil (see _plan) applied to a at the nodes of selector at, into out."""
    center, pair, terms, scale = plan
    if center:
        np.multiply(a[at[0]], center, out=out)
    else:  # a central difference: the positive neighbour minus the negative
        np.subtract(a[at[pair[0]]], a[at[pair[1]]], out=out)
    for op, k in terms:
        op(out, a[at[k]], out=out)
    return np.multiply(out, scale, out=out)


@functools.lru_cache(maxsize=None)
def _interior(n: int, parts: int) -> tuple:
    """The run from node (1, 1) to node (n, n) in parts: a selector each."""
    return tuple(_selector(k, n + 2)
                 for k, _ in _split_run(slice(n + 3, n * (n + 3) + 1, 1), parts))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _ring_positions(n: int, k) -> np.ndarray:
    """Read-only positions, within the nodes k, of those on a ring column."""
    col = np.arange((n + 2) ** 2)[k] % (n + 2)
    return _read_only(np.flatnonzero((col == 0) | (col == n + 1)))


def _packed_index(n: int, k):
    """Position in the red-black packed layout of flat index k (an int or an array)."""
    return k // 2 + k % 2 * (((n + 2) ** 2 + 1) // 2)


def _packed_selector(n: int, k: slice) -> tuple:
    """Selector, in the packed layout, of the nodes of a stride-2 run k of the flat grid."""
    m = _count(k)
    starts = (_packed_index(n, k.start + d) for d in (0, n + 2, -n - 2, 1, -1))
    return tuple(slice(s, s + m, 1) for s in starts)


@functools.lru_cache(maxsize=None)
def _ghosts(n: int) -> tuple:
    """Read-only flat indices of the pressure ghosts and of the nodes they mirror.

    Each ghost mirrors its nearest interior node, corners the diagonal
    one, so one gather p[ghost] = p[source] mirrors them all.
    """
    edge = np.arange(n + 2)
    i = np.concatenate([np.full(n + 2, 0), np.full(n + 2, n + 1), edge[1:-1], edge[1:-1]])
    j = np.concatenate([edge, edge, np.full(n, 0), np.full(n, n + 1)])
    source = np.clip(i, 1, n) * (n + 2) + np.clip(j, 1, n)
    return _read_only(i * (n + 2) + j), _read_only(source)


def _mirror_ghosts(p: np.ndarray):
    """Set p's ghosts to the nodes they mirror (see _ghosts); p must pass _flat."""
    n = p.shape[0] - 2
    flat = _flat(p, n, "p")
    ghost, source = _ghosts(n)
    flat[ghost] = flat[source]


@dataclass(frozen=True)
class _SweepPlan:
    """Where a sweep works, in which layout, and how it mirrors the pressure.

    pack holds per part the (packed, flat) slice pairs that copy the grid
    into the layout the selectors index, red then black; it is empty when
    they index the flat grid itself.  ghosts is (ghost, source), the
    pressure mirror's gather in that layout.  colors holds per color, red
    first, the parts of the nodes the color updates and the parts of the
    other-color interior nodes next to them.  A part of the first kind is
    (rhs, nodes, ring, span): the flat index of its nodes (which reads the
    right-hand sides), their selector, the positions of its ring-column
    junk and its span, the positions of its nodes among all of the kind,
    which index the temporaries.  A part of the second kind is (near,
    ring, span).  A node's four neighbours always have the other color.
    """

    pack: tuple
    ghosts: tuple
    colors: tuple


@functools.lru_cache(maxsize=None)
def _packed_plan(n: int, parts: int = 1) -> _SweepPlan:
    """Sweep plan over the whole interior, in the red-black packed layout, in parts.

    Red nodes (even index sum) have even flat index, black ones odd, so
    each color's interior nodes are one stride-2 run of the flat grid and
    one contiguous slice of the packed layout.
    """
    size, stop, half = (n + 2) ** 2, n * (n + 3) + 1, ((n + 2) ** 2 + 1) // 2
    red, black = slice(n + 3, stop, 2), slice(n + 4, stop, 2)
    pack = tuple(((r, slice(2 * r.start, 2 * r.stop, 2)),
                  (slice(half + b.start, half + b.stop), slice(2 * b.start + 1, 2 * b.stop + 1, 2)))
                 for r, b in zip(_cuts(0, half, parts), _cuts(0, size - half, parts)))
    ghosts = tuple(_read_only(_packed_index(n, k)) for k in _ghosts(n))
    colors = tuple((tuple((k, _packed_selector(n, k), _ring_positions(n, k), span)
                          for k, span in _split_run(own, parts)),
                    tuple((_packed_selector(n, k), _ring_positions(n, k), span)
                          for k, span in _split_run(other, parts)))
                   for own, other in ((red, black), (black, red)))
    return _SweepPlan(pack, ghosts, colors)


# bounded: one band per grid size in use, plus whatever masks callers pass
@functools.lru_cache(maxsize=32)
def _masked_plan(n: int, packed_mask: bytes) -> _SweepPlan:
    """Sweep plan over the nodes of an (n, n) point mask, by flat index arrays.

    The mask comes bit-packed (np.packbits) so that it can key the cache.
    The index arrays are read-only; they name interior nodes only.
    """
    mask = np.unpackbits(np.frombuffer(packed_mask, dtype=np.uint8), count=n * n)
    i, j = np.nonzero(mask.reshape(n, n))
    k = (i + 1) * (n + 2) + (j + 1)
    none = _read_only(np.empty(0, dtype=np.intp))
    colors = []
    for parity in (0, 1):
        own = k[k % 2 == parity]
        near = np.zeros((n + 2, n + 2), dtype=bool)
        near.reshape(-1)[np.concatenate([own + d for d in (n + 2, -n - 2, 1, -1)])] = True
        near[[0, -1], :] = near[:, [0, -1]] = False
        sels = (_selector(own, n + 2), _selector(np.flatnonzero(near), n + 2))
        for idx in (a for sel in sels for a in sel):
            idx.setflags(write=False)
        colors.append((((own, sels[0], none, slice(0, len(own))),),
                       ((sels[1], none, slice(0, len(sels[1][0]))),)))
    return _SweepPlan((), _ghosts(n), tuple(colors))


# the boundary band's width in nodes, and its sweeps per smoothing step
BOUNDARY_BAND = 3
BOUNDARY_SWEEPS = 2


@functools.lru_cache(maxsize=None)
def _band_mask(n: int) -> np.ndarray:
    """Interior nodes within BOUNDARY_BAND of the boundary, as a read-only (n, n) mask."""
    inner = np.zeros((n, n), dtype=bool)
    if n > 2 * BOUNDARY_BAND:
        inner[BOUNDARY_BAND:n - BOUNDARY_BAND, BOUNDARY_BAND:n - BOUNDARY_BAND] = True
    return _read_only(~inner)


def _check_grid(n: int):
    """Raise unless n interior nodes per axis, an integer, coarsen to the 3x3 grid."""
    if not _is_count(n) or n < 3 or (n + 1) & n != 0:
        raise ValueError(f"n + 1 must be a power of two with n an integer >= 3, got n = {n}")


def max_levels(n: int) -> int:
    """Deepest usable hierarchy for n interior nodes (coarsest grid 3x3)."""
    _check_grid(n)
    return int(math.log2(n + 1)) - 1


# ---------------------------------------------------------------------------
# problem and state constructors


def _zeros(n: int) -> np.ndarray:
    return np.zeros((n + 2, n + 2))


def homogeneous_problem(n: int, c: float) -> StokesProblem:
    """Zero right-hand sides and boundary data; exact solution is zero."""
    _check_grid(n)  # before _zeros, which cannot take a non-integer n
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
    _anchor(st)
    return st


def manufactured_problem(n: int, c: float) -> tuple[StokesProblem, StokesState]:
    """Smooth trigonometric fields with right-hand sides built discretely.

    The right-hand sides are the discrete operator applied to the sampled
    fields (the continuity mismatch of the sampled velocities lands in
    f3), so the returned state solves the discrete system to rounding and
    is a fixed point of the smoother and the cycles.
    """
    _check_grid(n)  # before linspace and p[1, 1], which a bad n fails otherwise
    x = np.linspace(0.0, 1.0, n + 2)
    xg, yg = np.meshgrid(x, x, indexing="ij")
    u = np.sin(PI * xg) * np.sin(PI * yg)
    v = np.sin(PI * xg) * np.sin(PI * yg)
    exact = StokesState(u, v, np.cos(PI * xg) * np.cos(PI * yg))
    _anchor(exact)

    # L x is minus the residual of x against zero right-hand sides
    f1, f2, f3 = (-r for r in assemble_residual(homogeneous_problem(n, c), exact))
    g_u = u.copy()
    g_u[1:-1, 1:-1] = 0.0
    g_v = v.copy()
    g_v[1:-1, 1:-1] = 0.0
    return StokesProblem(n, c, f1, f2, f3, g_u, g_v), exact


# ---------------------------------------------------------------------------
# residual and smoother


def _residual_at(prob: StokesProblem, u: np.ndarray, v: np.ndarray, p: np.ndarray,
                 at: tuple, rhs, r1: np.ndarray, r2: np.ndarray, r3: np.ndarray,
                 t: np.ndarray):
    """Residual rhs - L x at the nodes of selector at, into r1, r2, r3.

    u, v, p are flat or packed, at indexes them, and p's ghosts must be
    mirrored; rhs is the flat index of the same nodes, into the
    right-hand sides.  t is scratch of the same length as the outputs.
    """
    h = prob.h
    f1, f2, f3 = (_flat(f, prob.n)[rhs] for f in (prob.f1, prob.f2, prob.f3))
    _apply(prob._laplacian, u, at, r1)
    r1 += _apply(prob._ddx, p, at, t)
    np.subtract(f1, r1, out=r1)
    _apply(prob._laplacian, v, at, r2)
    r2 += _apply(prob._ddy, p, at, t)
    np.subtract(f2, r2, out=r2)
    _apply(prob._ddx, u, at, r3)
    r3 += _apply(prob._ddy, v, at, t)
    _apply(prob._laplacian, p, at, t)
    t *= prob.c * h**2
    r3 += t
    np.subtract(f3, r3, out=r3)


def assemble_residual(prob: StokesProblem, st: StokesState, *, out=None) -> tuple:
    """Residual rhs - L x at interior nodes; returned rings are zero.

    The pressure ring is re-derived by mirroring before differencing, so
    the result does not depend on the ghost values the caller left in p.
    out, like numpy's, takes the three arrays to write the blocks into
    and is returned; by default they are new.  st must pass _flat, and out
    must be three arrays that pass it, are writeable and share no memory
    with each other, with st's grids or with prob's right-hand sides,
    checked before anything is written.
    """
    n = prob.n
    if out is None:
        out = (_zeros(n), _zeros(n), _zeros(n))
    elif not (isinstance(out, (tuple, list)) and len(out) == 3
              and all(isinstance(r, np.ndarray) for r in out)):
        raise ValueError("out must be a tuple or list of three arrays")
    blocks = [_writable(r, n, f"out[{k}]") for k, r in enumerate(out)]
    u, v, p_in = (_flat(a, n, name) for a, name in ((st.u, "u"), (st.v, "v"), (st.p, "p")))
    read = (st.u, st.v, st.p, prob.f1, prob.f2, prob.f3)
    for k, r in enumerate(out):
        if any(np.may_share_memory(r, a) for a in (*out[:k], *read)):
            raise ValueError(f"out[{k}] may share memory with an earlier out array or an input")
    p, t = (b.reshape(-1) for b in _buffers(prob, "blocks"))
    np.copyto(p, p_in)
    _mirror_ghosts(p.reshape(n + 2, n + 2))

    def residual(at):
        _residual_at(prob, u, v, p, at, at[0], *(b[at[0]] for b in blocks), t[at[0]])

    _run(residual, _interior(n, _part_count(n)))
    for r in out:  # also clears the junk the run left on the ring columns
        r[0, :] = r[-1, :] = r[:, 0] = r[:, -1] = 0.0
    return out


def residual_norm(prob: StokesProblem, st: StokesState) -> float:
    """Euclidean norm of the three residual blocks together.

    Squares overflow once entries pass about 1e154 and underflow, to 0
    or to inexact subnormals, below about 1e-154.  When the plain sum is
    inf, or below 1e-280 where those underflows could count, the norm is
    recomputed on the residual divided by its largest magnitude, so a
    finite nonzero residual has a finite nonzero norm.  An inf or NaN
    residual gives a non-finite norm.
    """
    blocks = assemble_residual(prob, st, out=_buffers(prob, "state"))
    sq = _buffers(prob, "blocks")[0]
    with np.errstate(over="ignore", under="ignore"):
        total = sum(np.square(r, out=sq).sum() for r in blocks)
        if total == np.inf or total < 1e-280:
            scale = max(float(np.abs(r, out=sq).max()) for r in blocks)
            if 0.0 < scale < np.inf:
                return scale * math.sqrt(sum(np.square(np.divide(r, scale, out=sq), out=sq).sum()
                                             for r in blocks))
    return float(np.sqrt(total))


def _anchor(st: StokesState):
    """Fix the free constant of the pressure: p = 0 at interior node (1, 1)."""
    p = st.p
    p -= p[1, 1]  # p[1, 1] is a copy, read before the node is written
    _mirror_ghosts(p)  # rewrites the whole ring, which the shift also moved


def distributive_two_color_sweep(prob: StokesProblem, st: StokesState,
                                 omega: float, point_mask: np.ndarray | None = None
                                 ) -> StokesState:
    """One damped two-color distributive Jacobi sweep of st, in place; returns st.

    Red interior nodes (even index sum) are treated first, then black,
    each from a fresh residual.  Ghost corrections are divided by the
    transformed system's diagonal, the stencil centers prob.d_vel and
    prob.d_pre (see StokesProblem), zero-extended outside the
    interior, and distributed as du = w1 - dx w3, dv = w2 - dy w3,
    dp = -lap w3.  The damping is applied to the complete sweep:
    (1-omega) * old + omega * swept, 0 < omega < 2.  Boundary velocities
    are untouched; the pressure is re-anchored to 0 at node (1, 1).

    point_mask optionally restricts an undamped sweep (omega = 1) to a
    subset of interior nodes, an (n, n) boolean ndarray (used for the
    boundary-band relaxation).  Each color evaluates its residual only
    at the nodes it updates, and distributes only onto them and their
    neighbours.  A full sweep works on a red-black packed copy of st in
    the problem's state buffers, and blends it with st and unpacks it
    into st in one last step.  A masked sweep works on st itself through
    cached flat index arrays, but still anchors the whole interior.
    Temporaries live in buffers the problem owns.

    st's arrays must pass _flat and be writeable, checked with omega and
    point_mask before anything is written; a caller that needs st again
    passes a copy.
    """
    _check_damping(omega)
    n = prob.n
    d_vel, d_pre = prob.d_vel, prob.d_pre  # d_vel is a power of two, so 1/d_vel is exact
    if point_mask is None:
        plan = _packed_plan(n, _part_count(n))
    elif not isinstance(point_mask, np.ndarray) or point_mask.dtype != bool:
        got = getattr(point_mask, "dtype", type(point_mask).__name__)
        raise ValueError(f"point_mask must be a boolean ndarray, got {got}")
    elif point_mask.shape != (n, n):
        raise ValueError(f"point_mask has shape {point_mask.shape}, expected {(n, n)}")
    elif omega != 1.0:
        raise ValueError(f"a point_mask sweep is undamped: omega must be 1, got {omega}")
    else:
        plan = _masked_plan(n, np.packbits(point_mask).tobytes())
    fields = [_writable(a, n, name) for a, name in ((st.u, "u"), (st.v, "v"), (st.p, "p"))]
    u, v, p = fields
    if plan.pack:
        u, v, p = (b.reshape(-1) for b in _buffers(prob, "state"))

        def pack(part):
            for a, b in zip((u, v, p), fields):
                for packed, flat in part:
                    a[packed] = b[flat]

        _run(pack, plan.pack)
    w3 = _buffers(prob, "w3")[0].reshape(-1)
    half = (n + 2) ** 2 // 2  # at least the nodes of a color
    tmp = [b.reshape(-1)[k * half:(k + 1) * half]
           for b in _buffers(prob, "blocks") for k in (0, 1)]
    ghost, source = plan.ghosts

    # the ghosts w1, w2, w3 are nonzero on the color's nodes only, so du =
    # w1 and dv = w2 there (dx w3 and dy w3 vanish), du = -dx w3 and dv =
    # -dy w3 on the neighbours, and dp = -lap w3 on both, which is
    # 4 w3 / h^2 = d_vel w3 on the color's nodes.  No two nodes of a color
    # are neighbours, so the color's residual is the same before and after
    # its own velocity updates, and a part of its nodes reads, of what the
    # color writes, only its own nodes.  The distribution reads w3 at the
    # nodes of every part, so it starts once all parts are done
    def relax(part):
        rhs, nodes, ring, span = part
        r1, r2, r3, t = (b[span] for b in tmp)
        _residual_at(prob, u, v, p, nodes, rhs, r1, r2, r3, t)
        r1 *= 1.0 / d_vel
        r2 *= 1.0 / d_vel
        r3 /= d_pre
        for r in (r1, r2, r3):
            r[ring] = 0.0
        u[nodes[0]] += r1
        v[nodes[0]] += r2
        w3[nodes[0]] = r3
        p[nodes[0]] += np.multiply(r3, d_vel, out=t)

    def distribute(part):
        near, ring, span = part
        du, dv, dp = (b[span] for b in tmp[:3])
        _apply(prob._ddx, w3, near, du)[ring] = 0.0
        u[near[0]] -= du
        _apply(prob._ddy, w3, near, dv)[ring] = 0.0
        v[near[0]] -= dv
        p[near[0]] += _apply(prob._laplacian, w3, near, dp)

    try:
        for own, near in plan.colors:
            p[ghost] = p[source]
            _run(relax, own)
            _run(distribute, near)
            for _, nodes, _, _ in own:
                w3[nodes[0]] = 0.0
    except BaseException:
        w3.fill(0.0)  # an interrupted sweep leaves the next one a zero buffer
        raise
    if plan.pack:  # blend with the old state and unpack in one step
        def unpack(part):
            for new, old in zip((u, v, p), fields):
                for packed, flat in part:
                    if omega == 1.0:
                        old[flat] = new[packed]
                    else:  # old + omega (new - old), overwriting new on the way
                        swept = new[packed]
                        swept -= old[flat]
                        swept *= omega
                        np.add(swept, old[flat], out=old[flat])

        _run(unpack, plan.pack)
    _anchor(st)
    return st


def _smooth_step(prob: StokesProblem, st: StokesState, spec: CycleSpec):
    """One smoothing step of st, in place: a full sweep, then the band's."""
    distributive_two_color_sweep(prob, st, spec.omega)
    for _ in range(BOUNDARY_SWEEPS):
        distributive_two_color_sweep(prob, st, 1.0, point_mask=_band_mask(prob.n))


# ---------------------------------------------------------------------------
# transfers


def _check_transfer(fine: np.ndarray, coarse: np.ndarray):
    """Raise unless coarse is the square grid below fine and both are float64."""
    m = coarse.shape[0] if coarse.ndim == 2 else 0
    if m < 3 or coarse.shape != (m, m) or fine.shape != (2 * m - 1,) * 2:
        raise ValueError(f"grids of shapes {fine.shape} and {coarse.shape} are not a "
                         f"fine grid and the coarse grid below it")
    if fine.dtype != np.float64 or coarse.dtype != np.float64:
        raise ValueError(f"grids have dtypes {fine.dtype} and {coarse.dtype}, expected float64")


def restrict(fine: np.ndarray, coarse: np.ndarray) -> np.ndarray:
    """Write fine's full-weighting restriction into coarse's interior; returns coarse."""
    _check_transfer(fine, coarse)
    coarse[1:-1, 1:-1] = (
        4.0 * fine[2:-2:2, 2:-2:2]
        + 2.0 * (fine[1:-3:2, 2:-2:2] + fine[3:-1:2, 2:-2:2]
                 + fine[2:-2:2, 1:-3:2] + fine[2:-2:2, 3:-1:2])
        + fine[1:-3:2, 1:-3:2] + fine[3:-1:2, 1:-3:2]
        + fine[1:-3:2, 3:-1:2] + fine[3:-1:2, 3:-1:2]) / 16.0
    return coarse


def prolong(coarse: np.ndarray, fine: np.ndarray) -> np.ndarray:
    """Add the bilinear interpolation of coarse into fine's interior; returns fine.

    Values at fine nodes adjacent to the boundary average the coarse ring
    entries, so the caller controls the boundary behavior through them
    (zero ring for velocity corrections, mirrored ring for pressure).
    fine's ring is left as it is.
    """
    _check_transfer(fine, coarse)
    ev = slice(2, -2, 2)
    od = slice(1, -1, 2)
    fine[ev, ev] += coarse[1:-1, 1:-1]
    fine[od, ev] += 0.5 * (coarse[:-1, 1:-1] + coarse[1:, 1:-1])
    fine[ev, od] += 0.5 * (coarse[1:-1, :-1] + coarse[1:-1, 1:])
    fine[od, od] += 0.25 * (coarse[:-1, :-1] + coarse[1:, :-1]
                            + coarse[:-1, 1:] + coarse[1:, 1:])
    return fine


# ---------------------------------------------------------------------------
# exact bottom solve

# largest bottom grid: its pseudo-inverse takes about 0.2 s to build at
# 15x15 (675 unknowns), but about 9 s and 66 MB at 31x31
BOTTOM_MAX_N = 15


def _interior_vector(r1: np.ndarray, r2: np.ndarray, r3: np.ndarray) -> np.ndarray:
    return np.concatenate([r[1:-1, 1:-1].ravel() for r in (r1, r2, r3)])


def _matrix_of(apply, n: int) -> np.ndarray:
    """Dense matrix of a linear map apply(st) -> (r1, r2, r3) on n x n grid states.

    Column k is the _interior_vector of apply(st) at the k-th unit state.  st's
    grids view one array, zeroed per column, so apply may update st in place.
    """
    grids, cols = np.zeros((3, n + 2, n + 2)), []
    for k in np.ndindex(3, n, n):  # interior u, then v, then p, each row-major
        grids.fill(0.0)
        grids[:, 1:-1, 1:-1][k] = 1.0
        cols.append(_interior_vector(*apply(StokesState(*grids))))
    return np.column_stack(cols)


# bounded: a 15x15 pseudo-inverse holds 3.6 MB, and a sweep over c adds one per c
@functools.lru_cache(maxsize=16)
def _bottom_pinv(n: int, c: float) -> np.ndarray:
    """Read-only pseudo-inverse of the n x n system matrix, minus the residual's _matrix_of.

    It absorbs the null space, the constant pressure; the caller re-anchors the pressure.
    """
    residual = functools.partial(assemble_residual, homogeneous_problem(n, c))
    return _read_only(np.linalg.pinv(-_matrix_of(residual, n)))


def _bottom_solve(prob: StokesProblem, st: StokesState) -> StokesState:
    """One exact correction st += A^+ r(st), in place; returns st, anchored.

    A matrix-vector product rather than a least-squares solve per call,
    so a non-finite residual passes through to the divergence check.
    """
    n = prob.n
    r = assemble_residual(prob, st, out=_buffers(prob, "state"))
    d = _bottom_pinv(n, prob.c) @ _interior_vector(*r)
    for a, block in zip((st.u, st.v, st.p), d.reshape(3, n, n)):
        a[1:-1, 1:-1] += block
    _anchor(st)
    return st


# ---------------------------------------------------------------------------
# cycles


def _coarse_level(prob: StokesProblem) -> tuple[StokesProblem, StokesState]:
    """The coarse problem and correction state below prob, built on first use.

    Both are kept in prob's _scratch.  The coarse problem's work buffers
    are C-contiguous views of the leading (nc+2)^2 entries of prob's:
    levels run one at a time and keep nothing in them across the
    coarse-grid call, and every sweep leaves w3 zero, so the finest
    problem's buffers serve the whole hierarchy.
    """
    level = prob._scratch.get("coarse")
    if level is None:
        nc = (prob.n + 1) // 2 - 1
        coarse = homogeneous_problem(nc, prob.c)
        m = (nc + 2) ** 2
        for name in _SCRATCH:
            coarse._scratch[name] = tuple(b.reshape(-1)[:m].reshape(nc + 2, nc + 2)
                                          for b in _buffers(prob, name))
        level = prob._scratch["coarse"] = (coarse, zero_state(coarse))
    return level


def _cycle(prob: StokesProblem, st: StokesState, spec: CycleSpec, depth: int
           ) -> StokesState:
    """One cycle of the given depth on st, in place, ending on one _anchor; returns st."""
    if depth == 1:
        return _bottom_solve(prob, st)

    for _ in range(spec.pre_sweeps):
        _smooth_step(prob, st, spec)

    r1, r2, r3 = assemble_residual(prob, st, out=_buffers(prob, "state"))
    coarse_prob, coarse = _coarse_level(prob)
    for r, f in ((r1, coarse_prob.f1), (r2, coarse_prob.f2), (r3, coarse_prob.f3)):
        restrict(r, f)  # the coarse rings stay zero
    for a in (coarse.u, coarse.v, coarse.p):
        a.fill(0.0)  # the zero state: the coarse boundary data is zero
    _cycle(coarse_prob, coarse, spec, depth - 1)

    # coarse.p comes back anchored, so mirrored, but st.p's ghosts are now
    # stale and its p[1, 1] is off 0 until a sweep or the closing _anchor
    for a, b in ((coarse.u, st.u), (coarse.v, st.v), (coarse.p, st.p)):
        prolong(a, b)

    for _ in range(spec.post_sweeps):
        _smooth_step(prob, st, spec)
    _anchor(st)
    return st


def v_cycle(prob: StokesProblem, st: StokesState, spec: CycleSpec) -> StokesState:
    """One V-cycle over spec.levels levels (two-grid for levels = 2) on st, in place.

    Returns st.  A None levels is the deepest hierarchy, max_levels(n),
    and a None omega is omega_opt_closed(c), so CycleSpec() is the
    default cycle.  n = 3 is the coarsest grid itself, so a cycle needs
    n >= 7.  The bottom grid is solved exactly and may be at most
    BOTTOM_MAX_N x BOTTOM_MAX_N.  st's arrays must pass _flat and be
    writeable, checked before the first write; a caller that needs st
    again passes a copy.
    """
    if prob.n < 7:
        raise ValueError(f"n = {prob.n} is the coarsest grid; a cycle needs n >= 7")
    # or keeps a set field: levels >= 2 and omega > 0 are never falsy
    if spec.levels is None or spec.omega is None:
        spec = replace(spec, levels=spec.levels or max_levels(prob.n),
                       omega=spec.omega or cf.omega_opt_closed(prob.c))
    if spec.levels > max_levels(prob.n):
        raise ValueError(f"{spec.levels} levels need a finer grid than n = {prob.n} "
                         f"(max {max_levels(prob.n)})")
    nb = (prob.n + 1) // 2 ** (spec.levels - 1) - 1
    if nb > BOTTOM_MAX_N:
        raise ValueError(f"{spec.levels} levels leave a {nb}x{nb} bottom grid at "
                         f"n = {prob.n}; the exact bottom solve takes at most "
                         f"{BOTTOM_MAX_N}x{BOTTOM_MAX_N}, so use more levels")
    for a, name in ((st.u, "u"), (st.v, "v"), (st.p, "p")):
        _writable(a, prob.n, name)
    return _cycle(prob, st, spec, spec.levels)


def measure_convergence_factor(prob: StokesProblem, spec: CycleSpec,
                               n_cycles: int, seed: int = 42) -> ConvergenceReport:
    """Cycle on the problem from a random state and fit the residual decay.

    rho_observed is the geometric mean of the last 5 residual reduction
    ratios before a closing exact 0 (0 if none are left), as in
    measure_periodic_smoothing.  The run has diverged when a residual is
    not finite or rho_observed exceeds 1; this is flagged in the report,
    not raised, and the history is still returned.  Cycling stops early
    at a non-finite residual, at growth past 1e8 of the start, or at a
    drop below 1e-250 of it, 0 included: further on the state nears the
    subnormal range, where the cycle loses digits and the ratios drift to 1.
    """
    if not _is_count(n_cycles) or n_cycles < 10:
        raise ValueError(f"need an integer n_cycles >= 10 for a stable tail, got {n_cycles}")
    st = random_state(prob, seed)
    r0 = residual_norm(prob, st)
    report = ConvergenceReport(initial_residual=r0)
    for _ in range(n_cycles):
        r = residual_norm(prob, v_cycle(prob, st, spec))
        report.residual_history.append(r)
        if not math.isfinite(r) or r > 1e8 * r0 or r < 1e-250 * r0:
            break
    report.rho_observed = _tail_factor(report.ratios())
    report.diverged = not math.isfinite(r) or report.rho_observed > 1.0
    return report
