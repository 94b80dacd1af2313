"""Command-line surface: symbols, representations, sweeps, verification,
curve emission, and multigrid experiments.

Exit codes: 0 success, 1 verification failure, 2 usage error (also a
grid or sample count too large to allocate), 3 solver divergence.  All
randomized subcommands take an explicit --seed (default 42) and are
deterministic given their flags.
"""

import argparse
import math
import sys

import numpy as np

from . import closedform as cf, criteria
from .harmonics import harmonics_of, numerical_lfa_oracle, two_color_rep
from .mgsolver import (BOTTOM_MAX_N, CycleSpec, homogeneous_problem,
                       measure_convergence_factor)
from .smoothing import SweepConfig, one_stage_optimum
from .stencil import Frequency, OPERATOR_KINDS, make_operator, symbol

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3


def parse_angle(text: str) -> float:
    """Parse a finite angle: decimals or rational multiples of pi like '-pi/4', '2pi/3'."""
    t = text.strip().lower().replace(" ", "")
    pre, has_pi, post = t.partition("pi")
    if not has_pi:
        value = float(t)
    else:
        coef = {"": 1.0, "+": 1.0, "-": -1.0}.get(pre) or float(pre)
        if post and not post.startswith("/"):
            raise ValueError(f"cannot parse angle {text!r}")
        denominator = float(post[1:]) if post else 1.0
        if denominator == 0:
            raise ValueError(f"zero denominator in angle {text!r}")
        if not math.isfinite(denominator):  # pi/inf would read as a finite 0
            raise ValueError(f"angle must be finite, got {text!r}")
        value = coef * math.pi / denominator
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {text!r}")
    return value


def parse_theta(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated components, got {text!r}")
    return parse_angle(parts[0]), parse_angle(parts[1])


def fmt_complex(z: complex) -> str:
    re = z.real + 0.0
    im = z.imag + 0.0
    if im < 0:
        return f"{re:.15g} - {-im:.15g}i"
    return f"{re:.15g} + {im:.15g}i"


def _finite(what: str, compute, *args):
    """compute(*args), unless an entry of it is not finite: a usage error.

    Finite coefficients can still overflow in a sum, so numpy's warnings
    are off while it runs; the check reports the overflow instead.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute(*args)
    if not np.isfinite(value).all():
        raise ValueError(f"{what} is not finite at these --c and --h (overflow)")
    return value


def _write_lines(lines, output):
    if output:
        with open(output, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_symbol(args) -> int:
    s = make_operator(args.operator, h=args.h, c=args.c)
    value = _finite("the symbol", symbol, s, Frequency(*parse_theta(args.theta)))
    print(fmt_complex(value))
    return EXIT_OK


def cmd_rep(args) -> int:
    s = make_operator(args.operator, h=args.h, c=args.c)
    pair = harmonics_of(Frequency(*parse_theta(args.base)))
    rep = _finite("the representation", two_color_rep, s, pair)
    # the oracle runs first, so a grid it rejects leaves nothing printed
    measured = numerical_lfa_oracle(s, pair, args.oracle_grid) if args.oracle_grid else None
    print(f"pair: theta0 = ({pair.base.theta1:.15g}, {pair.base.theta2:.15g})  "
          f"theta1 = ({pair.high.theta1:.15g}, {pair.high.theta2:.15g})")
    for i in range(2):
        for j in range(2):
            print(f"rep[{i}][{j}] = {fmt_complex(rep[i, j])}")
    if measured is not None:
        diff = float(np.abs(rep - measured).max())
        print(f"oracle[{args.oracle_grid}x{args.oracle_grid}] max entry diff = {diff:.3e}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    s = make_operator(args.operator, h=args.h, c=args.c)
    with np.errstate(over="ignore", invalid="ignore"):  # the field check reports it
        res = one_stage_optimum(s, SweepConfig(n_samples_per_axis=args.n_samples))
    for name, value, freq in (("s_max", res.s_max, res.argmax_freq),
                              ("s_min", res.s_min, res.argmin_freq)):
        s1, s2 = freq.s_coordinates()
        print(f"{name}     = {value:.15g}  at theta = ({freq.theta1:.9g}, {freq.theta2:.9g})  "
              f"s-coords = ({s1:.9g}, {s2:.9g})")
    print(f"omega_opt = {res.omega_opt:.15g}")
    print(f"rho_opt   = {res.rho_opt:.15g}")
    return EXIT_OK


def cmd_theorems(args) -> int:
    failures = 0
    for criterion in criteria.CRITERIA:
        for row in criterion():
            print(row.line())
            failures += not row.ok
    print(f"\n{failures} failing row(s)" if failures else "\nall rows pass")
    return EXIT_VERIFY_FAIL if failures else EXIT_OK


def cmd_curves(args) -> int:
    if not (0 < args.c_min < args.c_max):
        raise ValueError(f"need 0 < c_min < c_max, got ({args.c_min}, {args.c_max})")
    if args.n_points < 1:
        raise ValueError("n_points must be >= 1")
    if args.scale == "log":
        cs = np.geomspace(args.c_min, args.c_max, args.n_points)
    else:
        cs = np.linspace(args.c_min, args.c_max, args.n_points)
    cfg = SweepConfig(n_samples_per_axis=args.n_samples)
    lines = ["c,rho_opt_closed,omega_opt_closed,rho_sweep,omega_sweep"]
    for c in cs:
        res = one_stage_optimum(make_operator("pressure_block", c=float(c)), cfg)
        lines.append(f"{c:.12g},{cf.rho_opt_closed(float(c)):.12g},"
                     f"{cf.omega_opt_closed(float(c)):.12g},"
                     f"{res.rho_opt:.12g},{res.omega_opt:.12g}")
    _write_lines(lines, args.output)
    return EXIT_OK


def cmd_solve(args) -> int:
    prob = homogeneous_problem(args.n, args.c)
    spec = CycleSpec(pre_sweeps=args.pre, post_sweeps=args.post, levels=args.levels,
                     omega=args.omega)
    report = measure_convergence_factor(prob, spec, args.cycles, seed=args.seed)
    # repr: the shortest digits that read back as the same float
    lines = ["cycle_index,residual_norm,ratio", f"0,{report.initial_residual!r},"]
    for k, (r, q) in enumerate(zip(report.residual_history, report.ratios()), start=1):
        lines.append(f"{k},{r!r},{q!r}")
    _write_lines(lines, args.output)
    print(f"rho_observed={report.rho_observed:.6g}")
    if report.diverged:
        print("divergence detected", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokesmg",
        description="Smoothing analysis and multigrid experiments for the "
                    "stabilized collocated Stokes discretization.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_operator_flags(p):
        p.add_argument("operator", choices=OPERATOR_KINDS)
        p.add_argument("--c", type=float, default=None,
                       help="stabilization parameter, positive and finite "
                            "(used by pressure_block only)")
        p.add_argument("--h", type=float, default=1.0, help="mesh size (default 1)")

    p = sub.add_parser("symbol", help="evaluate an operator's Fourier symbol")
    add_operator_flags(p)
    p.add_argument("--theta", required=True, help="frequency, e.g. 'pi/2,0'")
    p.set_defaults(func=cmd_symbol)

    p = sub.add_parser("rep", help="two-color sweep representation on a harmonic pair")
    add_operator_flags(p)
    p.add_argument("--base", required=True,
                   help="low-range base frequency, e.g. 'pi/4,pi/4'")
    p.add_argument("--oracle-grid", type=int, default=0,
                   help="cross-check against a concrete sweep on this periodic grid")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("sweep", help="extreme projected eigenvalues and optimal damping")
    add_operator_flags(p)
    p.add_argument("--n-samples", type=int, default=257)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("theorems", help="run the verification table")
    p.set_defaults(func=cmd_theorems)

    p = sub.add_parser("curves", help="emit rho_opt(c) / omega_opt(c) as CSV")
    p.add_argument("--c-min", type=float, required=True)
    p.add_argument("--c-max", type=float, required=True)
    p.add_argument("--n-points", type=int, default=100)
    p.add_argument("--scale", choices=("linear", "log"), default="log")
    p.add_argument("--n-samples", type=int, default=129)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("solve", help="multigrid convergence experiment")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, required=True,
                   help="interior nodes per axis; n+1 must be a power of two")
    p.add_argument("--omega", type=float, default=None,
                   help="damping (default: closed-form optimum for c)")
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--levels", type=int, default=None,
                   help="hierarchy depth (default: deepest); 2 is the two-grid "
                        "cycle; the bottom grid is solved exactly and may be at "
                        f"most {BOTTOM_MAX_N}x{BOTTOM_MAX_N}")
    p.add_argument("--pre", type=int, default=2)
    p.add_argument("--post", type=int, default=2)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_solve)

    return parser


def _merge_negative_values(argv):
    # let "--theta -pi/4,0" parse; argparse would read the value as a flag
    out = []
    i = 0
    while i < len(argv):
        if (argv[i] in ("--theta", "--base") and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    # bad values, an --output not writable, or arrays too large to allocate
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
