"""Compact 2D difference stencils and their Fourier symbols.

A stencil is a finite map from integer offsets (k1, k2) to real
coefficients that already carry their mesh scaling (1/h^p).  The Fourier
symbol of a stencil is the scalar multiplier it applies to the grid mode
exp(i theta . x / h); evaluating symbols over frequency grids is the
workhorse of the smoothing analysis.
"""

import math
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi


def _is_count(k) -> bool:
    """Whether k is a Python or numpy integer; a bool is not."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _check_damping(omega) -> None:
    """Raise unless the damping parameter omega lies in (0, 2); NaN does not."""
    if not 0.0 < omega < 2.0:
        raise ValueError(f"damping parameter must lie in (0, 2), got {omega}")


def reduce_angle(t: float) -> float:
    """Reduce an angle into the half-open interval (-pi, pi]."""
    r = math.remainder(t, TWO_PI)
    if r <= -math.pi:
        r += TWO_PI
    return r


@dataclass(frozen=True)
class Frequency:
    """A Fourier frequency theta = (theta1, theta2).

    Components are normalized into (-pi, pi] on construction, so two
    frequencies that differ by a multiple of 2*pi compare equal up to
    floating-point reduction error.
    """

    theta1: float
    theta2: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", reduce_angle(self.theta1))
        object.__setattr__(self, "theta2", reduce_angle(self.theta2))

    def as_tuple(self) -> tuple[float, float]:
        return (self.theta1, self.theta2)

    def is_low(self) -> bool:
        """True if the frequency lies in the low range (-pi/2, pi/2]^2."""
        half = 0.5 * math.pi
        return (-half < self.theta1 <= half) and (-half < self.theta2 <= half)

    def s_coordinates(self) -> tuple[float, float]:
        """The (sin^2(theta1/2), sin^2(theta2/2)) coordinates."""
        return (math.sin(0.5 * self.theta1) ** 2, math.sin(0.5 * self.theta2) ** 2)


class StencilPlan(NamedTuple):
    """What symbol_grid and the periodic sweep read of a stencil, built once.

    Every array is read-only.  Rows are the distinct k1 in order of first
    appearance among the entries; each row lists its entries in entry order.
    """

    offsets: tuple        # the entries' offsets, in entry order
    coefs: np.ndarray     # (entries, 1) coefficients, in entry order
    ik1: np.ndarray       # 1j * k1 for each row
    ik2: np.ndarray       # 1j * k2 for each distinct k2
    cols: np.ndarray      # (rows, L): index into ik2 of each entry of a row
    row_coefs: np.ndarray  # (rows, L): its coefficient, rows padded with 0


def _plan_of(entries) -> StencilPlan:
    rows = {}
    for (k1, k2), coef in entries.items():
        rows.setdefault(k1, []).append((k2, coef))
    k2s = sorted({k2 for k1, k2 in entries})
    width = max(len(row) for row in rows.values())
    cols = np.zeros((len(rows), width), dtype=np.intp)
    row_coefs = np.zeros((len(rows), width))
    for r, row in enumerate(rows.values()):
        for m, (k2, coef) in enumerate(row):
            cols[r, m], row_coefs[r, m] = k2s.index(k2), coef
    plan = StencilPlan(tuple(entries), np.array(list(entries.values()), dtype=float)[:, None],
                       1j * np.array(list(rows)), 1j * np.array(k2s), cols, row_coefs)
    for a in plan[1:]:
        a.setflags(write=False)
    return plan


@dataclass(frozen=True)
class Stencil2D:
    """A compact difference stencil with fully scaled coefficients.

    Attributes
    ----------
    entries : Mapping
        Map from integer offset (k1, k2) to the coefficient, with the
        1/h^p mesh scaling already applied.  Must contain (0, 0), and
        every coefficient must be finite (a scaling can overflow).  It is
        kept as a read-only copy of the mapping given, so the plan built
        from it cannot go stale.
    name : str
        Identifier tag, e.g. "laplacian".
    plan : StencilPlan
        What symbol_grid and the periodic sweep read of the entries,
        built on construction.
    """

    entries: Mapping
    name: str
    plan: StencilPlan = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = types.MappingProxyType(dict(self.entries))
        if (0, 0) not in entries:
            raise ValueError("stencil must contain the center offset (0, 0)")
        for off, coef in entries.items():
            if not math.isfinite(coef):
                raise ValueError(f"stencil coefficient at offset {off} is {coef}, "
                                 "not finite")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "plan", _plan_of(entries))

    def __reduce__(self):  # a mapping proxy does not pickle; rebuild from a dict
        return Stencil2D, (dict(self.entries), self.name)

    @property
    def center(self) -> float:
        """Coefficient at offset (0, 0)."""
        return self.entries[(0, 0)]


_UNSCALED = {
    # 5-point negative Laplacian, scale 1/h^2
    "laplacian": {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0,
                  (0, 1): -1.0, (0, -1): -1.0},
    # central first derivatives, scale 1/(2h)
    "ddx": {(0, 0): 0.0, (-1, 0): -1.0, (1, 0): 1.0},
    "ddy": {(0, 0): 0.0, (0, -1): -1.0, (0, 1): 1.0},
}
# 13-point biharmonic, scale 1/h^4: the Laplacian applied twice, an exact
# integer self-convolution, listed ring by ring (|k|^2 = 0, 1, 2, 4)
_terms = [((a1 + b1, a2 + b2), u * w) for (a1, a2), u in _UNSCALED["laplacian"].items()
          for (b1, b2), w in _UNSCALED["laplacian"].items()]
_UNSCALED["biharmonic"] = {k: sum(t for j, t in _terms if j == k)
                           for k, _ in sorted(_terms, key=lambda e: e[0][0]**2 + e[0][1]**2)}
# the Laplacian on the doubled mesh, -dx dx - dy dy, scale 1/(4h^2)
_UNSCALED["laplacian_2h"] = {(2 * k1, 2 * k2): v
                             for (k1, k2), v in _UNSCALED["laplacian"].items()}

OPERATOR_KINDS = ("laplacian", "ddx", "ddy", "biharmonic", "laplacian_2h",
                  "pressure_block")


def make_operator(kind: str, h: float = 1.0, c: float | None = None) -> Stencil2D:
    """Build one of the built-in difference operators.

    Parameters
    ----------
    kind : str
        One of ``OPERATOR_KINDS``.  "pressure_block", which requires c, is
        c*h^2*biharmonic + laplacian_2h, both kinds scaled as on their own.
    h : float
        Mesh size, > 0.
    c : float, optional
        Stabilization parameter, required for "pressure_block".  Any c
        given must be positive and finite, whatever the kind.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"mesh size must be positive and finite, got {h}")
    if kind not in OPERATOR_KINDS:
        raise ValueError(f"unknown operator kind {kind!r}; choose from {OPERATOR_KINDS}")
    if c is not None and not 0 < c < math.inf:
        raise ValueError(f"stabilization parameter must be positive and finite, got {c}")
    if kind == "pressure_block" and c is None:
        raise ValueError(f"operator {kind!r} requires the stabilization parameter c")
    h, c = float(h), None if c is None else float(c)  # exact; numpy scalars warn on overflow
    try:
        entries = _scaled_entries(kind, h, c)
    except ArithmeticError:  # h**p underflowed to 0 or overflowed
        raise ValueError(f"mesh size {h} is out of range: the 1/h^p scaling of "
                         f"{kind!r} leaves the floating-point range") from None
    try:
        return Stencil2D(entries, kind)
    except ValueError as err:  # a coefficient is not finite: say which stencil
        built = f"{kind} at h = {h}" + ("" if c is None else f", c = {c}")
        raise ValueError(f"{built}: {err}") from None


def _scaled_entries(kind: str, h: float, c: float | None) -> dict:
    if kind == "pressure_block":  # each part scaled as its own kind
        # an overflowed biharmonic entry stays inf: c h^2 may underflow to
        # 0, and 0 * inf would report the overflow as nan
        scale = c * h**2
        entries = {off: val if math.isinf(val) else scale * val
                   for off, val in _scaled_entries("biharmonic", h, c).items()}
        for off, val in _scaled_entries("laplacian_2h", h, c).items():
            entries[off] = entries.get(off, 0.0) + val
        return entries

    # the scale is 1/(m h^p), computed for this kind only
    m, p = {"laplacian": (1.0, 2), "ddx": (2.0, 1), "ddy": (2.0, 1),
            "biharmonic": (1.0, 4), "laplacian_2h": (4.0, 2)}[kind]
    scale = 1.0 / (m * h**p)
    return {off: val * scale for off, val in _UNSCALED[kind].items()}


def symbol_grid(s: Stencil2D, t1, t2):
    """Fourier symbol of the stencil at frequencies (t1, t2).

    t1, t2 may be scalars or broadcastable numpy arrays; the result is
    complex with the same shape.

    The symbol factors per axis: sum_k1 exp(i k1 t1) sum_k2 coef exp(i k2 t2).
    The stencil's plan, built once, lists its rows (distinct k1) and, per
    row, the entries' k2 indices and coefficients padded to a common
    width L.  One exp gives every phase exp(i k2 t2) on a leading offset
    axis, at t2's own shape; one gather and one multiply give every
    entry's term, and L - 1 adds give every row sum, each in entry order.
    Then, row by row in row order, the row's phase exp(i k1 t1) at t1's
    own shape times its row sum is added to a zeroed output at the full
    shape; only one row's phase is held at a time, which keeps the peak
    memory of a lattice call at the output and one product.  On an
    (m, 1) x (1, m) lattice that is O(m) exps instead of one O(m^2) exp
    per entry.  The result agrees with the per-entry sum
    sum_k coef exp(i k . theta) to rounding, not bit for bit.
    """
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    plan = s.plan
    terms = np.exp(np.multiply.outer(plan.ik2, t2))[plan.cols]
    terms *= plan.row_coefs.reshape(plan.row_coefs.shape + (1,) * t2.ndim)
    row_sums = terms[:, 0].copy()
    for m in range(1, terms.shape[1]):
        row_sums += terms[:, m]
    del terms  # free the padded table before the full-shape products
    out = np.zeros(np.broadcast(t1, t2).shape, dtype=complex)
    for ik1, row_sum in zip(plan.ik1, row_sums):
        out += np.exp(ik1 * t1) * row_sum
    return out


def symbol(s: Stencil2D, theta: Frequency) -> complex:
    """Fourier symbol sum_k l_k exp(i theta . k) at a single frequency."""
    return complex(symbol_grid(s, theta.theta1, theta.theta2))


def apply_stencil(s: Stencil2D, g: np.ndarray, point: tuple[int, int]) -> float:
    """Apply the stencil to grid function g at an index pair.

    Every accessed index must lie inside g; an out-of-range offset raises
    IndexError (negative indices are rejected rather than wrapped).
    """
    i, j = point
    acc = 0.0
    n1, n2 = g.shape
    for (k1, k2), coef in s.entries.items():
        a, b = i + k1, j + k2
        if not (0 <= a < n1 and 0 <= b < n2):
            raise IndexError(f"stencil offset ({k1}, {k2}) at point {point} "
                             f"leaves the grid of shape {g.shape}")
        acc += coef * g[a, b]
    return acc
