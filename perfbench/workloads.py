"""The benchmark workloads and the checks on their outputs.

Every operation calls the library through module attributes
(``mgsolver.v_cycle``, ``smoothing.one_stage_optimum``, ...) so that a
tracer that replaces those attributes sees the calls.  The benchmark
draws every input from its own seeded generator; the library only
receives the drawn values.
"""

import math
import time

import numpy as np

from stokesmg import closedform, harmonics, mgsolver, smoothing, stencil

import stats

TOL = 1e-8          # a solve succeeds when residual_norm <= TOL * r0
# More than three times the 6 cycles a solve takes at c = 1/8.
CYCLE_CAP = 20
TAIL = 3            # residual ratios per solve that enter rho_observed
REF_REL_TOL = 1e-6  # library vs reference residual, relative

LFA_C_RANGE = (1e-3, 1e3)
LFA_STRATA = 16     # one c per log-stratum per round
LFA_SAMPLES = (129, 257)
ORACLE_GRID = 32
TOL_SWEEP_VS_CLOSED = 1e-6   # acceptance criterion 04
TOL_ORACLE = 1e-10           # acceptance criterion 08
TOL_PERIODIC = 0.02          # acceptance criterion 13
# Digits of rho_opt and omega_opt that the closed-form check certifies.
CERTIFIED_DIGITS = -math.log10(TOL_SWEEP_VS_CLOSED)


def reference_residual_norm(prob, st):
    """Residual 2-norm of the stabilized Stokes system, computed here.

    Independent of mgsolver: 5-point Laplacian, central first differences
    and first-order mirrored pressure ghosts, as the module docstring of
    mgsolver states the discretization.
    """
    h = 1.0 / (prob.n + 1)
    p = st.p.copy()
    p[0, :], p[-1, :] = p[1, :], p[-2, :]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]

    def lap(a):
        return (4.0 * a[1:-1, 1:-1] - a[2:, 1:-1] - a[:-2, 1:-1]
                - a[1:-1, 2:] - a[1:-1, :-2]) / h**2

    def dx(a):
        return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * h)

    def dy(a):
        return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * h)

    inner = (slice(1, -1), slice(1, -1))
    r1 = prob.f1[inner] - (lap(st.u) + dx(p))
    r2 = prob.f2[inner] - (lap(st.v) + dy(p))
    r3 = prob.f3[inner] - (dx(st.u) + dy(st.v) + prob.c * h**2 * lap(p))
    return math.sqrt(float((r1**2).sum() + (r2**2).sum() + (r3**2).sum()))


def _ring(a):
    return np.concatenate([a[0, :], a[-1, :], a[1:-1, 0], a[1:-1, -1]])


class SolveWorkload:
    """Solves at one (n, c) to TOL * r0 from seeded random states.

    V(2,2) cycles on the deepest hierarchy with the default boundary band
    and omega_opt_closed(c).  One round is one solve; its input is the
    seed of the initial state.
    """

    def __init__(self, n, c, seed):
        self.n = n
        self.c = c
        levels = mgsolver.max_levels(n)
        self.coarsest_n = (n + 1) // 2 ** (levels - 1) - 1
        self.rng = np.random.default_rng(seed)
        self.prob = mgsolver.homogeneous_problem(n, c)
        self.spec = mgsolver.CycleSpec(pre_sweeps=2, post_sweeps=2, levels=levels,
                                       omega=closedform.omega_opt_closed(c))
        mgsolver.v_cycle(self.prob, mgsolver.random_state(self.prob, seed), self.spec)

    def draw_round(self):
        return [int(self.rng.integers(2**31))]

    def describe(self, state_seed):
        return {"c": self.c, "n": self.n, "state_seed": state_seed}

    def run(self, state_seed, tracer=None):
        """Time one solve; returns the result and the list of check failures.

        With a tracer, the timed region is recorded as an "op" span.
        """
        prob, spec = self.prob, self.spec
        st = mgsolver.random_state(prob, state_seed)
        span = tracer.enter("op", self.describe(state_seed)) if tracer else None
        t0 = time.perf_counter()
        r0 = mgsolver.residual_norm(prob, st)
        hist = [r0]
        cycle_s = []
        ok = False
        for _ in range(CYCLE_CAP):
            t = time.perf_counter()
            st = mgsolver.v_cycle(prob, st, spec)
            cycle_s.append(time.perf_counter() - t)
            r = mgsolver.residual_norm(prob, st)
            hist.append(r)
            if not math.isfinite(r):
                break
            if r <= TOL * r0:
                ok = True
                break
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.exit(span)
        ratios = [b / a for a, b in zip(hist, hist[1:])][-TAIL:]
        res = {
            "ok": ok, "seconds": seconds, "cycle_s": cycle_s, "cycles": len(cycle_s),
            "digits": stats.digits(r0, hist[-1]) if ok else None,
            "rho_tail": ratios if all(math.isfinite(q) and q > 0 for q in ratios) else [],
            "key": (ok, tuple(hist)),
        }
        return res, self._check(prob, state_seed, st, hist, ok)

    def _check(self, prob, state_seed, final, hist, ok):
        problems = []
        # Rebuilt rather than kept: the solver may update its input in place.
        ref0 = reference_residual_norm(prob, mgsolver.random_state(prob, state_seed))
        if abs(hist[0] - ref0) > REF_REL_TOL * ref0:
            problems.append(f"initial residual {hist[0]!r} != reference {ref0!r}")
        if ok:
            ref = reference_residual_norm(prob, final)
            if abs(hist[-1] - ref) > REF_REL_TOL * ref:
                problems.append(f"final residual {hist[-1]!r} != reference {ref!r}")
            if ref > TOL * ref0 * (1.0 + REF_REL_TOL):
                problems.append(f"reference residual {ref!r} misses {TOL} * {ref0!r}")
            if not (np.array_equal(_ring(final.u), _ring(prob.g_u))
                    and np.array_equal(_ring(final.v), _ring(prob.g_v))):
                problems.append("boundary velocities changed")
        return problems


class LfaWorkload:
    """One-stage optimum of the pressure block per c, refereed three ways.

    A round draws one log-uniform c from each of LFA_STRATA equal strata
    of log10 c in shuffled order, which keeps the mix of cheap and
    expensive c values the same in every round.  The sample count per
    axis alternates between LFA_SAMPLES within a round.
    """

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.run((0.125, LFA_SAMPLES[0], (1, 1), 0))  # warm-up

    def draw_round(self):
        lo, hi = (math.log10(x) for x in LFA_C_RANGE)
        width = (hi - lo) / LFA_STRATA
        order = self.rng.permutation(LFA_STRATA)
        inputs = []
        for pos, stratum in enumerate(order):
            c = 10.0 ** (lo + width * (stratum + self.rng.random()))
            j1, j2 = (int(j) for j in self.rng.integers(-ORACLE_GRID // 4 + 1,
                                                        ORACLE_GRID // 4 + 1, size=2))
            inputs.append((c, LFA_SAMPLES[pos % len(LFA_SAMPLES)], (j1, j2),
                           int(self.rng.integers(2**31))))
        return inputs

    def describe(self, inp):
        c, n_samples, pair, referee_seed = inp
        return {"c": c, "n_samples": n_samples, "pair": pair, "referee_seed": referee_seed}

    def run(self, inp, tracer=None):
        c, n_samples, (j1, j2), referee_seed = inp
        span = tracer.enter("op", self.describe(inp)) if tracer else None
        t0 = time.perf_counter()
        s = stencil.make_operator("pressure_block", c=c)
        opt = smoothing.one_stage_optimum(s, smoothing.SweepConfig(n_samples))
        rho_closed = closedform.rho_opt_closed(c)
        omega_closed = closedform.omega_opt_closed(c)
        measured, ratios = mgsolver.measure_periodic_smoothing(s, omega_closed,
                                                               seed=referee_seed)
        step = 2.0 * math.pi / ORACLE_GRID
        pair = harmonics.harmonics_of(stencil.Frequency(step * j1, step * j2))
        rep = harmonics.two_color_rep(s, pair)
        oracle = harmonics.numerical_lfa_oracle(s, pair, ORACLE_GRID)
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.exit(span)

        d_closed = max(abs(opt.rho_opt - rho_closed), abs(opt.omega_opt - omega_closed))
        d_oracle = float(np.abs(rep - oracle).max())
        ok = bool(d_closed <= TOL_SWEEP_VS_CLOSED and d_oracle <= TOL_ORACLE
                  and measured <= rho_closed + TOL_PERIODIC)
        res = {
            "ok": ok, "seconds": seconds,
            "digits": CERTIFIED_DIGITS if ok else None,
            "rho_tail": [measured] if measured > 0 else [],
            "key": (ok, opt.rho_opt, opt.omega_opt, opt.s_max, opt.s_min, measured,
                    tuple(ratios), rep.tobytes(), oracle.tobytes()),
            "checks": {"sweep_vs_closed": d_closed, "oracle": d_oracle,
                       "periodic_minus_predicted": measured - rho_closed},
        }
        return res, []


def make(name, seed):
    if name == "solve_fine":
        return SolveWorkload(511, 0.125, seed)
    if name == "lfa_curve":
        return LfaWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

