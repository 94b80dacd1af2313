"""Closed-form optima for the stabilized pressure operator.

Analytic expressions for the extreme projected eigenvalues of the
two-color Jacobi sweep applied to the pressure block c*h^2*biharmonic +
laplacian_2h, as functions of the stabilization parameter c, together
with the derived optimal damping omega_opt(c) and factor rho_opt(c),
their limits, and the zone boundaries.  The frequency sweep in
``stokesmg.smoothing`` is the independent referee for every expression
here.

Everything derives from the two extreme eigenvalues: s_max at the origin
and s_min at the diagonal critical point s*.  The formula for s* is
rationalized, so it has no removable 0/0 at c = 1/8 and loses no digits
to cancellation next to it.  The optimum of the extrema is one
expression, _optimum, shared with smoothing.optimal_one_stage.
"""

import math

# Poisson block: extreme eigenvalues are 0 and -1/8, hence these optima.
POISSON_OMEGA = 16.0 / 17.0
POISSON_RHO = 1.0 / 17.0

# pressure block at c = 1/8: extrema (1/49, -23/98)
RHO_AT_C_EIGHTH = 25.0 / 217.0
# damping at c = 1/8 consistent with 2/(2 - s_max - s_min); also the
# limit of omega_opt(c) as c -> 1/8
OMEGA_AT_C_EIGHTH = 28.0 / 31.0
# alternative tabulated candidate; fails the optimum identity by a
# factor of 2 and is kept only so the verification table can report
# which value the sweep supports
OMEGA_AT_C_EIGHTH_ALT = 98.0 / 217.0

# The minimum of rho_opt over c is not at c = 1/8: the curve still falls
# there (d rho_opt/dc = -0.0373760326) and reaches its minimum RHO_MIN at
# C_RHO_MIN, then rises back through 25/217 at C_DIP_END.  So rho_opt(c)
# < 25/217 exactly on (1/8, C_DIP_END).  Roots of d rho_opt/dc and of
# rho_opt - 25/217, solved at 40 digits from projected_eigenvalue_s with
# s_max at the origin and s_min at the diagonal critical point:
#   C_RHO_MIN = 0.129457046640711482299761039147
#   RHO_MIN   = 0.115126154199532507213056244914
#   C_DIP_END = 0.134147707662029663240835083107
C_RHO_MIN = 0.12945704664071148
RHO_MIN = 0.11512615419953251
C_DIP_END = 0.13414770766202966

RHO_LIMIT_LARGE_C = 11.0 / 43.0
OMEGA_LIMIT_LARGE_C = 50.0 / 43.0
OMEGA_GLOBAL_MIN_REF = 0.834733
C0_REF = 0.0360548

# The closed forms are evaluated in double precision for c in (0, C_MAX]:
# 82944 c^4 in the radicand overflows from c = 6.8e75.  At C_MAX they are
# within 1e-15 of their c -> infinity limits.
C_MAX = 1e75


def _check_c(c) -> None:
    if not 0 < c <= C_MAX:
        raise ValueError(f"stabilization parameter must lie in (0, {C_MAX:g}] for "
                         f"the closed forms, got {c}")


def _radicand(c: float) -> float:
    # 82944 c^4 - 6912 c^3 + 336 c^2 + 24 c + 1, positive for all c > 0
    return (((82944.0 * c - 6912.0) * c + 336.0) * c + 24.0) * c + 1.0


def projected_eigenvalue_s(s1: float, s2: float, c: float) -> float:
    """Nonzero projected eigenvalue of the pressure block in s-coordinates.

    s_i = sin^2(theta_i / 2); the low-frequency box maps to [0, 1/2]^2.
    This rational form is the cross-check target for the symbol-based
    eigenvalue computed in ``stokesmg.harmonics``.
    """
    _check_c(c)
    d = 1.0 + 20.0 * c
    q = s1 - s1 * s1 + s2 - s2 * s2
    t = s1 + s2
    return (4.0 * (-q - 4.0 * c * (t - 2.0) ** 2) * (q + 4.0 * c * t * t)
            + (d - 2.0 * q - 8.0 * c * (t - 2.0) ** 2) ** 2) / (d * d)


def eigenvalue_at_origin(c: float) -> float:
    """Projected eigenvalue at s = (0, 0); this is s_max for every c > 0."""
    _check_c(c)
    return ((1.0 - 12.0 * c) / (1.0 + 20.0 * c)) ** 2


def critical_point(c: float) -> float:
    """Interior stationary point s1 = s2 = s* of the projected eigenvalue.

    s* = (1 - 12c + 192c^2) / (sqrt(R) + 1 - 36c + 480c^2), R the
    radicand; both quadratics are positive for every c, so there is no
    cancellation, and s*(1/8) = 5/16.  The returned value lies in
    [0, 1/2] and the eigenvalue gradient vanishes there.
    """
    _check_c(c)
    num = (192.0 * c - 12.0) * c + 1.0
    return num / (math.sqrt(_radicand(c)) + (480.0 * c - 36.0) * c + 1.0)


def eigenvalue_at_critical(c: float) -> float:
    """Projected eigenvalue at the critical point; this is s_min.

    Lies in (-1, 0) for every admissible c.
    """
    s = critical_point(c)
    return projected_eigenvalue_s(s, s, c)


def _optimum(s_max: float, s_min: float) -> tuple[float, float]:
    """(omega_opt, rho_opt) = (2, s_max - s_min) / (2 - s_max - s_min), unchecked."""
    denom = 2.0 - s_max - s_min
    return 2.0 / denom, (s_max - s_min) / denom


def rho_opt_closed(c: float) -> float:
    """Optimal one-stage smoothing factor of the pressure block.

    (s_max - s_min) / (2 - s_max - s_min), from eigenvalue_at_origin and
    eigenvalue_at_critical.  Since s_max > 0 > s_min, neither sum
    cancels; the error against a 40-digit evaluation is a few ulp,
    also next to c = 1/8, where the value is 25/217.
    """
    return _optimum(eigenvalue_at_origin(c), eigenvalue_at_critical(c))[1]


def omega_opt_closed(c: float) -> float:
    """Optimal one-stage damping parameter of the pressure block.

    2 / (2 - s_max - s_min); 28/31 at c = 1/8.  Unchecked on purpose: below
    c of about 5e-18, s_max rounds to 1 and this gives 1.0, solve's default.
    """
    return _optimum(eigenvalue_at_origin(c), eigenvalue_at_critical(c))[0]


def find_c0() -> float:
    """Root of rho_opt(c) = 11/43 in (1/28, 1/27), by bisection to width 1e-8.

    rho_opt is monotone decreasing on the bracket; a sign change is
    verified before bisecting and its absence raises RuntimeError, which
    would indicate a defect in the closed forms.
    """
    lo, hi = 1.0 / 28.0, 1.0 / 27.0
    target = RHO_LIMIT_LARGE_C
    flo = rho_opt_closed(lo) - target
    fhi = rho_opt_closed(hi) - target
    if flo <= 0 or fhi >= 0:
        raise RuntimeError(f"root not bracketed: f(1/28)={flo:.3e}, f(1/27)={fhi:.3e}")
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if rho_opt_closed(mid) - target > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
