import dataclasses
import gc
import math
import multiprocessing
import os
import re
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from stokesmg import closedform as cf
from stokesmg import mgsolver
from stokesmg.mgsolver import (CycleSpec, StokesProblem, StokesState,
                               assemble_residual, distributive_two_color_sweep,
                               homogeneous_problem, manufactured_problem,
                               max_levels, measure_convergence_factor, prolong,
                               random_state, residual_norm, restrict, v_cycle,
                               zero_state)
from stokesmg.stencil import apply_stencil, make_operator

PI = math.pi
OMEGA_8 = cf.OMEGA_AT_C_EIGHTH


def state_diff(a, b):
    return max(np.abs(a.u - b.u).max(), np.abs(a.v - b.v).max(),
               np.abs(a.p - b.p).max())


# Referee for the sweep: the masked formulation it replaced, which
# evaluates the whole residual per color and selects the color with
# np.where, with the whole-interior stencils it was written against.

def _ref_mirror_ghosts(p):
    p[0, :] = p[1, :]
    p[-1, :] = p[-2, :]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]


def _ref_neg_lap(a, h):
    return (4.0 * a[1:-1, 1:-1] - a[2:, 1:-1] - a[:-2, 1:-1]
            - a[1:-1, 2:] - a[1:-1, :-2]) / h**2


def _ref_ddx(a, h):
    return (a[2:, 1:-1] - a[:-2, 1:-1]) / (2.0 * h)


def _ref_ddy(a, h):
    return (a[1:-1, 2:] - a[1:-1, :-2]) / (2.0 * h)


def _ref_zeros(n):
    return np.zeros((n + 2, n + 2))


def _ref_assemble_residual(prob, st):
    h = prob.h
    p = st.p.copy()
    _ref_mirror_ghosts(p)
    r1, r2, r3 = _ref_zeros(prob.n), _ref_zeros(prob.n), _ref_zeros(prob.n)
    r1[1:-1, 1:-1] = prob.f1[1:-1, 1:-1] - (_ref_neg_lap(st.u, h) + _ref_ddx(p, h))
    r2[1:-1, 1:-1] = prob.f2[1:-1, 1:-1] - (_ref_neg_lap(st.v, h) + _ref_ddy(p, h))
    r3[1:-1, 1:-1] = prob.f3[1:-1, 1:-1] - (_ref_ddx(st.u, h) + _ref_ddy(st.v, h)
                                            + prob.c * h**2 * _ref_neg_lap(p, h))
    return r1, r2, r3


def _ref_anchor(st):
    st.p[1:-1, 1:-1] -= st.p[1, 1]
    _ref_mirror_ghosts(st.p)


def _reference_sweep(prob, st, omega, point_mask=None):
    h = prob.h
    d_vel = 4.0 / h**2
    d_pre = (20.0 * prob.c + 1.0) / h**2
    out = st.copy()
    red = np.add.outer(np.arange(prob.n), np.arange(prob.n)) % 2 == 0
    colors = [red, ~red]
    if point_mask is not None:
        colors = [m & point_mask for m in colors]
    for color in colors:
        r1, r2, r3 = _ref_assemble_residual(prob, out)
        w1, w2, w3 = _ref_zeros(prob.n), _ref_zeros(prob.n), _ref_zeros(prob.n)
        w1[1:-1, 1:-1] = np.where(color, r1[1:-1, 1:-1] / d_vel, 0.0)
        w2[1:-1, 1:-1] = np.where(color, r2[1:-1, 1:-1] / d_vel, 0.0)
        w3[1:-1, 1:-1] = np.where(color, r3[1:-1, 1:-1] / d_pre, 0.0)
        out.u[1:-1, 1:-1] += w1[1:-1, 1:-1] - _ref_ddx(w3, h)
        out.v[1:-1, 1:-1] += w2[1:-1, 1:-1] - _ref_ddy(w3, h)
        out.p[1:-1, 1:-1] += _ref_neg_lap(w3, h)
        _ref_mirror_ghosts(out.p)
    if omega != 1.0:
        out.u[:] = st.u + omega * (out.u - st.u)
        out.v[:] = st.v + omega * (out.v - st.v)
        out.p[:] = st.p + omega * (out.p - st.p)
    _ref_anchor(out)
    return out


def arrays_equal(x, y, equal_nan=False):
    """The same bytes; with equal_nan, NaN at the same places and the same bytes elsewhere."""
    if x.shape != y.shape:
        return False
    if equal_nan:
        nan = np.isnan(x)
        if not np.array_equal(nan, np.isnan(y)):
            return False
        x, y = x[~nan], y[~nan]
    return x.tobytes() == y.tobytes()


def states_equal(a, b, equal_nan=False):
    return all(arrays_equal(x, y, equal_nan)
               for x, y in ((a.u, b.u), (a.v, b.v), (a.p, b.p)))


def scrambled_problem(n, c, seed):
    """Random right-hand sides, boundary data and state, with stale pressure ghosts."""
    rng = np.random.default_rng(seed)
    prob = homogeneous_problem(n, c)
    for a in (prob.f1, prob.f2, prob.f3):
        a[1:-1, 1:-1] = rng.standard_normal((n, n))
    for a in (prob.g_u, prob.g_v):
        a[:] = rng.standard_normal((n + 2, n + 2))
        a[1:-1, 1:-1] = 0.0
    st = random_state(prob, seed)
    st.p[0, :] = rng.standard_normal(n + 2)
    st.p[:, -1] = rng.standard_normal(n + 2)
    return prob, st


class TestProblemValidation:
    def test_grid_size_must_be_power_of_two_minus_one(self):
        for n in (10, -1):
            with pytest.raises(ValueError, match="power of two") as raised:
                homogeneous_problem(n, 0.125)
            with pytest.raises(ValueError) as again:
                max_levels(n)
            assert str(again.value) == str(raised.value)
        assert (max_levels(3), max_levels(511)) == (1, 8)

    @pytest.mark.parametrize("n", [7.0, np.float64(7.0), True, "7"],
                             ids=["float", "numpy float", "bool", "str"])
    def test_grid_size_must_be_an_integer(self, n):
        # 7.0 once raised TypeError from np.zeros or from the & of the check
        grids = [np.zeros((9, 9)) for _ in range(5)]
        for make in (lambda: homogeneous_problem(n, 0.125), lambda: max_levels(n),
                     lambda: StokesProblem(n, 0.125, *grids)):
            with pytest.raises(ValueError, match="integer"):
                make()
        assert max_levels(np.int64(7)) == 2
        assert homogeneous_problem(np.int32(7), 0.125).h == 0.125

    def test_manufactured_problem_checks_n_first(self):
        # 7.0 once raised TypeError from np.linspace, and -1 IndexError from p[1, 1]
        for n in (7.0, -1):
            with pytest.raises(ValueError) as raised:
                manufactured_problem(n, 0.125)
            with pytest.raises(ValueError) as again:
                homogeneous_problem(n, 0.125)
            assert str(raised.value) == str(again.value)

    def test_c_positive(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="positive"):
                homogeneous_problem(15, c)

    def test_c_overflowing_the_pressure_diagonal(self):
        # the sweep divides by the pressure block's center (20c + 1)/h^2,
        # and 1/h^2 = 64 at n = 7
        for c in (1e308, 2e305):
            with pytest.raises(ValueError, match=r"offset \(0, 0\) is inf"):
                homogeneous_problem(7, c)
        assert homogeneous_problem(7, 1e305).c == 1e305

    def test_shape_mismatch(self):
        z = np.zeros((17, 17))
        bad = np.zeros((16, 17))
        with pytest.raises(ValueError, match="shape"):
            StokesProblem(15, 0.125, z, z, bad, z, z)

    def test_dtype_mismatch(self):
        # integer boundary data would truncate the random interior and
        # every undamped update written into it
        f = np.zeros((9, 9))
        with pytest.raises(ValueError, match="g_u has dtype int64"):
            StokesProblem(7, 0.125, f, f, f, np.zeros((9, 9), dtype=np.int64),
                          np.zeros((9, 9), dtype=np.int64))
        with pytest.raises(ValueError, match="f2 has dtype float32"):
            StokesProblem(7, 0.125, f, f.astype(np.float32), f, f, f)

    def test_layout_mismatch(self):
        # the residual reads each right-hand side through a flat view, which
        # a Fortran-ordered array could only give as a copy per call
        f = np.zeros((9, 9))
        with pytest.raises(ValueError, match="f3 is not C-contiguous"):
            StokesProblem(7, 0.125, f, f, np.asfortranarray(np.eye(9)), f, f)

    def test_cycle_spec_validation(self):
        assert CycleSpec() == CycleSpec(pre_sweeps=2, post_sweeps=2, levels=None, omega=None)
        with pytest.raises(ValueError):
            CycleSpec(pre_sweeps=0, post_sweeps=0)
        with pytest.raises(ValueError):
            CycleSpec(levels=1)
        with pytest.raises(ValueError):
            CycleSpec(omega=2.0)
        with pytest.raises(ValueError):
            CycleSpec(pre_sweeps=-1)
        # counts must be integers: a float reaches range() or the grid sizes
        for bad in (2.0, 2.5, True, np.float64(3.0)):
            with pytest.raises(ValueError, match="integer"):
                CycleSpec(levels=bad)
        for name in ("pre_sweeps", "post_sweeps"):
            for bad in (1.0, 1.5, True):
                with pytest.raises(ValueError, match="integer"):
                    CycleSpec(**{name: bad})
        spec = CycleSpec(pre_sweeps=np.int64(1), post_sweeps=np.int32(2), levels=np.int64(3),
                         omega=OMEGA_8)
        prob = homogeneous_problem(15, 0.125)
        assert measure_convergence_factor(prob, spec, np.int64(10)).residual_history
        for bad in (10.0, 12.5, True):
            with pytest.raises(ValueError, match="integer"):
                measure_convergence_factor(prob, spec, bad)


def _overflow_threshold(h):
    """The floats c just below and just above where (20c+1)/h^2 overflows.

    Positive floats order as their bit patterns, so this bisects on those.
    """
    def bits(x):
        return int(np.float64(x).view(np.int64))

    def value(k):
        return float(np.int64(k).view(np.float64))

    lo, hi = bits(1.0), bits(math.inf)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if math.isfinite((20.0 * value(mid) + 1.0) / h**2) else (lo, mid)
    return value(lo), value(hi)


class TestDiagonals:
    """The sweep divides by the centers of the stencils the analysis sweeps."""

    @pytest.mark.parametrize("n", [2**k - 1 for k in range(2, 9)]
                             + [pytest.param(511, marks=pytest.mark.parts)])
    def test_problem_diagonals_are_the_stencil_centers(self, n):
        h = 1.0 / (n + 1)
        below, above = _overflow_threshold(h)
        assert below < above == math.nextafter(below, math.inf)
        for c in (0.005, 1 / 8, 1.0, 1e150, 1e-300, below, above):
            try:
                block = make_operator("pressure_block", h=h, c=c)
            except ValueError as exc:
                assert c == above
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    homogeneous_problem(n, c)
                continue
            prob = homogeneous_problem(n, c)
            lap = make_operator("laplacian", h=h)
            assert (prob.d_vel, prob.d_pre) == (lap.center, block.center)
            assert (prob.d_vel, prob.d_pre) == (4.0 / h**2, (20.0 * c + 1.0) / h**2)


class TestResidual:
    def test_zero_problem_zero_state(self):
        prob = homogeneous_problem(15, 0.125)
        assert residual_norm(prob, zero_state(prob)) == 0.0

    # At n = 511 the residual is assembled in two parts, one on the
    # worker thread, which must run under the caller's numpy error state;
    # two CPUs are made to look usable so that it does on any host.  The
    # squares, which overflow or underflow here, run whole on the caller.

    @pytest.mark.parts
    def test_norm_of_huge_finite_residual_is_finite(self, monkeypatch):
        # squaring entries of about 1e200 overflows; the norm must not
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        for n in (15, 511):
            prob = homogeneous_problem(n, 0.125)
            st = random_state(prob, seed=6)
            big = StokesState(1e200 * st.u, 1e200 * st.v, 1e200 * st.p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                norm = residual_norm(prob, big)
            assert norm == pytest.approx(1e200 * residual_norm(prob, st), rel=1e-12), n

    @pytest.mark.parts
    def test_norm_of_tiny_residual_is_not_zero(self, monkeypatch):
        # squaring entries of about 1e-200 underflows; the norm must not
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        for n in (15, 511):
            prob = homogeneous_problem(n, 0.125)
            st = random_state(prob, seed=6)
            tiny = StokesState(1e-200 * st.u, 1e-200 * st.v, 1e-200 * st.p)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                norm = residual_norm(prob, tiny)
            assert norm == pytest.approx(1e-200 * residual_norm(prob, st), rel=1e-12), n

    @pytest.mark.parts
    def test_non_finite_residual_gives_non_finite_norm(self, monkeypatch):
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        for n in (15, 511):
            prob = homogeneous_problem(n, 0.125)
            for bad in (np.inf, np.nan):
                st = random_state(prob, seed=6)
                st.u[3, 4] = bad
                assert not math.isfinite(residual_norm(prob, st)), (n, bad)

    # residual_norm squares the residual in place in the state buffers, so
    # its rescaling, for sums that overflow or underflow, assembles the
    # residual again; the norm must be that of the referee's residual,
    # rescaled by its largest magnitude, bit for bit
    @pytest.mark.parametrize("scale, assembled", [(1.0, 1), (1e200, 2), (1e-200, 2)])
    def test_rescaled_norm_is_the_referees(self, monkeypatch, scale, assembled):
        prob = homogeneous_problem(15, 0.3)
        st = random_state(prob, seed=15)
        st = StokesState(scale * st.u, scale * st.v, scale * st.p)
        residual, calls = mgsolver.assemble_residual, []

        def counted(prob, st, *, out=None):
            calls.append(out)
            return residual(prob, st, out=out)

        monkeypatch.setattr(mgsolver, "assemble_residual", counted)
        norm = residual_norm(prob, st)
        assert len(calls) == assembled
        blocks = _ref_assemble_residual(prob, st)
        if assembled == 1:
            ref = float(np.sqrt(sum(np.square(r).sum() for r in blocks)))
        else:
            top = max(float(np.abs(r).max()) for r in blocks)
            ref = top * math.sqrt(sum(np.square(r / top).sum() for r in blocks))
        assert float.hex(norm) == float.hex(ref)

    def test_manufactured_solution_is_discrete_solution(self):
        prob, exact = manufactured_problem(31, 0.125)
        r1, r2, r3 = assemble_residual(prob, exact)
        assert max(np.abs(r1).max(), np.abs(r2).max(), np.abs(r3).max()) <= 1e-12

    def test_matches_stencilwise_application(self):
        # oracle: per-point stencil application on the padded arrays
        n, c = 7, 0.2
        prob = homogeneous_problem(n, c)
        st = random_state(prob, seed=5)
        h = prob.h
        lap = make_operator("laplacian", h=h)
        ddx = make_operator("ddx", h=h)
        ddy = make_operator("ddy", h=h)
        p = st.p.copy()
        p[0, :] = p[1, :]; p[-1, :] = p[-2, :]
        p[:, 0] = p[:, 1]; p[:, -1] = p[:, -2]
        r1, r2, r3 = assemble_residual(prob, st)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e1 = -(apply_stencil(lap, st.u, (i, j)) + apply_stencil(ddx, p, (i, j)))
                e2 = -(apply_stencil(lap, st.v, (i, j)) + apply_stencil(ddy, p, (i, j)))
                e3 = -(apply_stencil(ddx, st.u, (i, j)) + apply_stencil(ddy, st.v, (i, j))
                       - c * h**2 * (-apply_stencil(lap, p, (i, j))))
                assert abs(r1[i, j] - e1) < 1e-13
                assert abs(r2[i, j] - e2) < 1e-13
                assert abs(r3[i, j] - e3) < 1e-13

    def test_applies_the_stencils_make_operator_returns(self, monkeypatch):
        # every kind built at 2h, still a power of two: a solver with its own
        # difference weights would still difference at h
        def at_double_h(kind, h=1.0, c=None):
            return make_operator(kind, h=2 * h, c=c)

        monkeypatch.setattr(mgsolver, "make_operator", at_double_h)
        n, c = 7, 0.2
        prob = homogeneous_problem(n, c)
        st = random_state(prob, seed=5)
        h = prob.h
        lap, ddx, ddy = (make_operator(kind, h=2 * h) for kind in ("laplacian", "ddx", "ddy"))
        p = st.p.copy()
        _ref_mirror_ghosts(p)
        r1, r2, r3 = assemble_residual(prob, st)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                e1 = -(apply_stencil(lap, st.u, (i, j)) + apply_stencil(ddx, p, (i, j)))
                e2 = -(apply_stencil(lap, st.v, (i, j)) + apply_stencil(ddy, p, (i, j)))
                e3 = -(apply_stencil(ddx, st.u, (i, j)) + apply_stencil(ddy, st.v, (i, j))
                       + c * h**2 * apply_stencil(lap, p, (i, j)))
                assert abs(r1[i, j] - e1) < 1e-13
                assert abs(r2[i, j] - e2) < 1e-13
                assert abs(r3[i, j] - e3) < 1e-13

    @pytest.mark.parametrize("n", [3, 15, 127, pytest.param(511, marks=pytest.mark.parts)])
    def test_bit_identical_to_whole_interior_referee(self, n):
        prob, st = scrambled_problem(n, 0.3, seed=n)
        for mine, ref in zip(assemble_residual(prob, st), _ref_assemble_residual(prob, st)):
            assert np.array_equal(mine, ref)

    def test_residual_rings_are_zero(self):
        prob = homogeneous_problem(7, 0.1)
        r1, r2, r3 = assemble_residual(prob, random_state(prob))
        for r in (r1, r2, r3):
            assert np.abs(r[0, :]).max() == 0.0 and np.abs(r[-1, :]).max() == 0.0
            assert np.abs(r[:, 0]).max() == 0.0 and np.abs(r[:, -1]).max() == 0.0


class TestDistributionIdentity:
    def test_composition_matches_transformed_stencils(self):
        # L applied to the distributed correction equals the transformed
        # system applied to the ghosts, away from the boundary
        n, c = 15, 0.125
        h = 1.0 / (n + 1)
        rng = np.random.default_rng(3)
        w = [np.zeros((n + 2, n + 2)) for _ in range(3)]
        for a in w:
            a[1:-1, 1:-1] = rng.standard_normal((n, n))

        lap = make_operator("laplacian", h=h)
        ddx = make_operator("ddx", h=h)
        ddy = make_operator("ddy", h=h)
        bih = make_operator("biharmonic", h=h)
        wide = make_operator("laplacian_2h", h=h)

        du = np.zeros_like(w[0]); dv = np.zeros_like(w[0]); dp = np.zeros_like(w[0])
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                du[i, j] = w[0][i, j] - apply_stencil(ddx, w[2], (i, j))
                dv[i, j] = w[1][i, j] - apply_stencil(ddy, w[2], (i, j))
                dp[i, j] = apply_stencil(lap, w[2], (i, j))
        for i in range(3, n - 1):
            for j in range(3, n - 1):
                left1 = apply_stencil(lap, du, (i, j)) + apply_stencil(ddx, dp, (i, j))
                left2 = apply_stencil(lap, dv, (i, j)) + apply_stencil(ddy, dp, (i, j))
                left3 = (apply_stencil(ddx, du, (i, j)) + apply_stencil(ddy, dv, (i, j))
                         - c * h**2 * (-apply_stencil(lap, dp, (i, j))))
                right1 = apply_stencil(lap, w[0], (i, j))
                right2 = apply_stencil(lap, w[1], (i, j))
                right3 = (apply_stencil(ddx, w[0], (i, j))
                          + apply_stencil(ddy, w[1], (i, j))
                          + c * h**2 * apply_stencil(bih, w[2], (i, j))
                          + apply_stencil(wide, w[2], (i, j)))
                scale = 1.0 / h**2
                assert abs(left1 - right1) < 1e-12 * scale
                assert abs(left2 - right2) < 1e-12 * scale
                assert abs(left3 - right3) < 1e-12 * scale


class TestSweep:
    def test_exact_solution_is_fixed_point(self):
        prob, exact = manufactured_problem(31, 0.125)
        after = distributive_two_color_sweep(prob, exact.copy(), OMEGA_8)
        assert state_diff(after, exact) <= 1e-12

    @pytest.mark.parametrize("omega", [math.nan, -0.5, 0.0, 2.0])
    def test_damping_outside_range_refused(self, omega):
        prob, st = scrambled_problem(15, 0.125, seed=5)
        before = st.copy()
        for mask in (None, mgsolver._band_mask(15)):
            with pytest.raises(ValueError, match=r"\(0, 2\)"):
                distributive_two_color_sweep(prob, st, omega, point_mask=mask)
        assert states_equal(st, before)

    def test_damped_mask_sweep_refused_before_any_write(self):
        # a band sweep is undamped: the one blend of a damped sweep is the
        # full sweep's unpack
        prob, st = scrambled_problem(15, 0.125, seed=6)
        before = st.copy()
        for omega in (OMEGA_8, 0.5, 1.5):
            with pytest.raises(ValueError, match="point_mask sweep is undamped"):
                distributive_two_color_sweep(prob, st, omega, point_mask=mgsolver._band_mask(15))
        assert states_equal(st, before)

    def test_boundary_values_preserved(self):
        prob, exact = manufactured_problem(15, 0.125)
        st = random_state(prob, seed=2)
        after = distributive_two_color_sweep(prob, st, OMEGA_8)
        assert np.array_equal(after.u[0, :], prob.g_u[0, :])
        assert np.array_equal(after.u[-1, :], prob.g_u[-1, :])
        assert np.array_equal(after.v[:, 0], prob.g_v[:, 0])
        assert np.array_equal(after.v[:, -1], prob.g_v[:, -1])

    def test_pressure_anchored(self):
        prob = homogeneous_problem(15, 0.125)
        st = random_state(prob, seed=3)
        after = distributive_two_color_sweep(prob, st, OMEGA_8)
        assert after.p[1, 1] == 0.0

    def test_sweeps_reduce_residual(self):
        prob = homogeneous_problem(15, 0.125)
        st = random_state(prob, seed=4)
        before = residual_norm(prob, st)
        for _ in range(3):
            st = distributive_two_color_sweep(prob, st, OMEGA_8)
        assert residual_norm(prob, st) < before


class TestSweepMatchesReferee:
    """The sub-lattice and band sweeps give the masked formulation's states bit for bit."""

    # n = 511 sweeps in two parts where two CPUs are usable
    @pytest.mark.parametrize("c, n", [(c, n) for c in (0.005, 0.125, 1.0)
                                      for n in (3, 7, 15, 31, 127, 255)]
                             + [pytest.param(0.125, 511, marks=pytest.mark.parts)])
    def test_bit_identical(self, n, c):
        prob, st = scrambled_problem(n, c, seed=n)
        for mask, omegas in ((None, (OMEGA_8, 1.0)), (mgsolver._band_mask(n), (1.0,))):
            for omega in omegas:
                mine = distributive_two_color_sweep(prob, st.copy(), omega, point_mask=mask)
                ref = _reference_sweep(prob, st, omega, point_mask=mask)
                assert states_equal(mine, ref), (mask is not None, omega)

    def test_band_plan_is_resolved_once_per_grid(self, monkeypatch):
        # the band's plan is the masked plan of the band mask, keyed once
        # per grid size; any other array with the band's values takes the
        # public path to the same plan and the same sweep
        band = mgsolver._band_mask(31)
        plan = mgsolver._band_plan(31)
        assert plan is mgsolver._band_plan(31)
        assert plan is mgsolver._masked_plan(31, np.packbits(band).tobytes())
        prob, st = scrambled_problem(31, 0.125, seed=2)
        spec = CycleSpec(levels=max_levels(31), omega=OMEGA_8)
        v_cycle(prob, st, spec)
        packbits, keyed = np.packbits, []
        monkeypatch.setattr(mgsolver.np, "packbits", lambda a: keyed.append(a) or packbits(a))
        v_cycle(prob, st, spec)
        assert keyed == []
        copy = distributive_two_color_sweep(prob, st.copy(), 1.0, point_mask=band.copy())
        assert len(keyed) == 1
        assert states_equal(copy, distributive_two_color_sweep(prob, st.copy(), 1.0,
                                                               point_mask=band))

    def test_arbitrary_mask(self):
        prob, st = scrambled_problem(15, 0.125, seed=1)
        mask = np.random.default_rng(2).random((15, 15)) < 0.2
        mine = distributive_two_color_sweep(prob, st.copy(), 1.0, point_mask=mask)
        assert states_equal(mine, _reference_sweep(prob, st, 1.0, point_mask=mask))

    # n = 511's packed sweep runs in two parts where two CPUs are usable
    @pytest.mark.parametrize("c, n", [(c, 15) for c in (0.005, 0.125, 1.0)]
                             + [pytest.param(c, 511, marks=pytest.mark.parts)
                                for c in (0.005, 0.125, 1.0)])
    def test_all_interior_mask_is_the_packed_sweep(self, n, c):
        # the flat index arrays and the packed layout run the same sweep body
        prob, st = scrambled_problem(n, c, seed=n + 1)
        full = distributive_two_color_sweep(prob, st.copy(), 1.0)
        masked = distributive_two_color_sweep(prob, st.copy(), 1.0,
                                              point_mask=np.ones((n, n), dtype=bool))
        assert states_equal(masked, full)

    @pytest.mark.parametrize("masked", [False, True])
    def test_nan_propagates_alike(self, masked):
        prob, st = scrambled_problem(15, 0.125, seed=3)
        st.u[2, 2] = np.nan  # inside the band
        prob.f1[5, 5] = np.nan
        mask, omega = (mgsolver._band_mask(15), 1.0) if masked else (None, OMEGA_8)
        mine = distributive_two_color_sweep(prob, st.copy(), omega, point_mask=mask)
        ref = _reference_sweep(prob, st, omega, point_mask=mask)
        assert np.isnan(mine.p).any()
        assert states_equal(mine, ref, equal_nan=True)

    def test_mask_shape_checked(self):
        prob = homogeneous_problem(7, 0.125)
        with pytest.raises(ValueError, match="point_mask"):
            distributive_two_color_sweep(prob, zero_state(prob), 1.0,
                                         point_mask=np.ones((9, 9), dtype=bool))

    @pytest.mark.parametrize("mask", [np.ones((7, 7)), np.ones((7, 7), dtype=np.int64),
                                      [[True] * 7] * 7], ids=["float", "int", "list"])
    def test_mask_type_checked(self, mask):
        # only a boolean ndarray is a mask, refused before any write: a
        # float mask would fail inside np.packbits, a list on its shape,
        # and an int mask would be read as "nonzero"
        prob, st = scrambled_problem(7, 0.125, seed=7)
        before = st.copy()
        with pytest.raises(ValueError, match="point_mask"):
            distributive_two_color_sweep(prob, st, 1.0, point_mask=mask)
        assert states_equal(st, before)

    def test_cached_index_sets_are_read_only(self):
        band = mgsolver._band_mask(31)
        assert band is mgsolver._band_mask(31) and not band.flags.writeable
        masked = mgsolver._masked_plan(31, np.packbits(band).tobytes())
        packed = [mgsolver._packed_plan(31, parts) for parts in (1, 2)]
        assert masked.pack == () and all(plan.pack for plan in packed)
        for plan in [masked] + packed:
            arrays = list(plan.ghosts)
            for own, near in plan.colors:
                for rhs, nodes, ring, _ in (chunk for part in own for chunk in part):
                    arrays += [a for a in (rhs,) + nodes if isinstance(a, np.ndarray)] + [ring]
                for sel, ring, _ in (chunk for part in near for chunk in part):
                    arrays += [a for a in sel if isinstance(a, np.ndarray)] + [ring]
            for idx in arrays:
                assert not idx.flags.writeable
        for plan in packed:
            for own, near in plan.colors:
                # ring-column junk: each color's run passes columns 0 and 32
                # of the rows of its parity, 30 nodes once the run's ends are
                # cut, whichever parts and chunks they fall in
                assert sum(len(ring) for part in own for _, _, ring, _ in part) == 30
                assert sum(len(ring) for part in near for _, ring, _ in part) == 30

    @pytest.mark.parametrize("n", [3, 7, 15, 31, 63, 127, 255,
                                   pytest.param(511, marks=pytest.mark.parts)])
    def test_packed_plan(self, n):
        for parts in (1, 2):
            self.check_packed_plan(n, parts)

    def check_packed_plan(self, n, parts):
        plan = mgsolver._packed_plan(n, parts)
        size, half = (n + 2) ** 2, ((n + 2) ** 2 + 1) // 2
        assert len(plan.pack) == parts
        pairs = [pair for part in plan.pack for pair in part]
        flat = np.random.default_rng(n).standard_normal(size)
        packed = np.full(size, np.nan)
        for to, frm in pairs:
            packed[to] = flat[frm]
        back = np.full(size, np.nan)
        for to, frm in pairs:
            back[frm] = packed[to]
        assert arrays_equal(back, flat)
        # the ghost gather in the packed layout is the referee's mirror
        ghost, source = plan.ghosts
        packed[ghost] = packed[source]
        mirrored = flat.reshape(n + 2, n + 2).copy()
        _ref_mirror_ghosts(mirrored)
        for to, frm in pairs:
            assert arrays_equal(packed[to], mirrored.reshape(-1)[frm])
        # the parts of a color are its run cut in order into nearly equal
        # parts, and each part is cut in order into the fewest nearly equal
        # chunks of at most CHUNK nodes, each with its node count and the
        # positions of its nodes on a ring column; the neighbours of a
        # color are the other color's chunks
        stop = n * (n + 3) + 1
        for (own, near), (other, _), start in zip(plan.colors, plan.colors[::-1],
                                                  (n + 3, n + 4)):
            assert len(own) == len(near) == parts
            runs = [np.arange(k.start, k.stop, k.step) for part in own for k, _, _, _ in part]
            assert arrays_equal(np.concatenate(runs), np.arange(start, stop, 2))
            sizes = [sum(chunk[-1] for chunk in part) for part in own]
            assert max(sizes) - min(sizes) <= 1
            for part in own:
                counts = [m for _, _, _, m in part]
                assert len(part) == max(1, -(-sum(counts) // mgsolver.CHUNK))
                assert max(counts) <= mgsolver.CHUNK and max(counts) - min(counts) <= 1
            for near_part, other_part in zip(near, other):
                assert len(near_part) == len(other_part)
                for (_, ring, m), (_, _, other_ring, other_m) in zip(near_part, other_part):
                    assert m == other_m and arrays_equal(ring, other_ring)
            for rhs, _, ring, m in (chunk for part in own for chunk in part):
                col = np.arange(rhs.start, rhs.stop, rhs.step) % (n + 2)
                assert m == col.size
                assert arrays_equal(ring, np.flatnonzero((col == 0) | (col == n + 1)))
        # CHUNK leaves a color at n = 255 whole and cuts each of its two
        # parts at n = 511 in two
        if n == 255:
            assert [len(part) for part in plan.colors[0][0]] == ([1] if parts == 1 else [1, 1])
        if n == 511:
            assert [len(part) for part in plan.colors[0][0]] == ([4] if parts == 1 else [2, 2])
        # each selector slice lies inside the block of its nodes' color, and
        # names the same nodes as the flat run shifted by its offset: a
        # slice that started below its block would read the other color
        for (own, near), (other, _) in zip(plan.colors, plan.colors[::-1]):
            own, near, other = ([chunk for part in kind for chunk in part]
                                for kind in (own, near, other))
            for run, sel in ([(rhs, nodes) for rhs, nodes, _, _ in own]
                             + [(o[0], chunk[0]) for o, chunk in zip(other, near)]):
                for s, d in zip(sel, (0, n + 2, -n - 2, 1, -1)):
                    red = (run.start + d) % 2 == 0
                    lo, hi = (0, half) if red else (half, size)
                    assert lo <= s.start and s.stop <= hi and s.step == 1, (run, d)
                    shifted = np.arange(run.start + d, run.stop + d, 2)
                    assert arrays_equal(packed[s], mirrored.reshape(-1)[shifted])


def _ref_restrict(fine):
    n = fine.shape[0] - 2
    nc = (n + 1) // 2 - 1
    coarse = np.zeros((nc + 2, nc + 2))
    coarse[1:-1, 1:-1] = (
        4.0 * fine[2:-2:2, 2:-2:2]
        + 2.0 * (fine[1:-3:2, 2:-2:2] + fine[3:-1:2, 2:-2:2]
                 + fine[2:-2:2, 1:-3:2] + fine[2:-2:2, 3:-1:2])
        + fine[1:-3:2, 1:-3:2] + fine[3:-1:2, 1:-3:2]
        + fine[1:-3:2, 3:-1:2] + fine[3:-1:2, 3:-1:2]) / 16.0
    return coarse


def _ref_prolong(coarse):
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


def _ref_cycle(prob, st, spec, depth):
    """The V-cycle from the referee sweep, residual and transfers, copying at every step."""
    if depth == 1:
        return mgsolver._bottom_solve(prob, st.copy())

    def smooth(st):
        st = _reference_sweep(prob, st, spec.omega)
        for _ in range(mgsolver.BOUNDARY_SWEEPS):
            st = _reference_sweep(prob, st, 1.0, point_mask=mgsolver._band_mask(prob.n))
        return st

    for _ in range(spec.pre_sweeps):
        st = smooth(st)
    r1, r2, r3 = _ref_assemble_residual(prob, st)
    nc = (prob.n + 1) // 2 - 1
    coarse_prob = StokesProblem(nc, prob.c, _ref_restrict(r1), _ref_restrict(r2),
                                _ref_restrict(r3), _ref_zeros(nc), _ref_zeros(nc))
    coarse = _ref_cycle(coarse_prob, zero_state(coarse_prob), spec, depth - 1)
    coarse_p = coarse.p.copy()
    _ref_mirror_ghosts(coarse_p)
    st = st.copy()
    st.u[1:-1, 1:-1] += _ref_prolong(coarse.u)[1:-1, 1:-1]
    st.v[1:-1, 1:-1] += _ref_prolong(coarse.v)[1:-1, 1:-1]
    st.p[1:-1, 1:-1] += _ref_prolong(coarse_p)[1:-1, 1:-1]
    _ref_mirror_ghosts(st.p)
    for _ in range(spec.post_sweeps):
        st = smooth(st)
    _ref_anchor(st)
    return st


def _reachable_arrays(obj) -> list:
    """Every array reachable from obj through dicts, tuples and dataclass fields."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = tuple(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))
    elif not isinstance(obj, tuple):
        return []
    return [a for item in obj for a in _reachable_arrays(item)]


def _levels(prob) -> list:
    """The problems of prob's cycle hierarchy, finest first."""
    levels = [prob]
    while "coarse" in levels[-1]._scratch:
        levels.append(levels[-1]._scratch["coarse"][0])
    return levels


@pytest.fixture(scope="module")
def swept_511():
    """A scrambled problem and state at n = 511 and the referee's sweep of the state."""
    prob, st = scrambled_problem(511, 0.125, seed=5)
    return prob, st, _reference_sweep(prob, st, OMEGA_8)


class TestInPlaceCycle:
    """The in-place sweep and cycle on problem-owned buffers against the copying referees."""

    # n = 511 runs its finest grid's split passes in two parts: on the
    # worker with two CPUs usable, and one after the other on the caller
    # with one, where starting the worker fails the test; both must give
    # the referee's bits, and residual_norm the same float either way
    @pytest.mark.parametrize("relax, c, n, cpus", [
        pytest.param(relax, c, n, None, id=f"{relax}-{c}-{n}")
        for relax in (0, 2) for c in (0.005, 0.125, 1.0) for n in (7, 15, 31, 63)]
        + [pytest.param(0, 0.125, 511, cpus, id=f"0-0.125-511-cpus{cpus}",
                        marks=pytest.mark.parts) for cpus in (1, 2)])
    def test_v_cycle_matches_referee(self, monkeypatch, n, c, relax, cpus):
        def no_worker(pid):
            raise AssertionError("a one-CPU cycle started the worker")

        monkeypatch.setattr(mgsolver, "BOUNDARY_SWEEPS", relax)
        executor = mgsolver._executor
        if cpus is not None:
            monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: cpus)
        if cpus == 1:
            monkeypatch.setattr(mgsolver, "_executor", no_worker)
        prob, st = scrambled_problem(n, c, seed=n)
        spec = CycleSpec(levels=max_levels(n), omega=cf.omega_opt_closed(c))
        mine, ref = st.copy(), st
        for _ in range(2):
            assert v_cycle(prob, mine, spec) is mine
            ref = _ref_cycle(prob, ref, spec, spec.levels)
            assert states_equal(mine, ref)
        if cpus is not None:
            monkeypatch.setattr(mgsolver, "_executor", executor)
            norms = set()
            for k in (1, 2):
                monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: k)
                norms.add(float.hex(residual_norm(prob, mine)))
            assert len(norms) == 1, norms

    # without post-sweeps the cycle's closing _anchor is what re-anchors
    # the prolonged state; with them it repeats the last sweep's anchoring
    @pytest.mark.parametrize("pre, post", [(2, 0), (0, 2)])
    @pytest.mark.parametrize("relax", [0, 2])
    @pytest.mark.parametrize("n", [15, 63])
    def test_one_sided_v_cycle_matches_referee(self, monkeypatch, n, relax, pre, post):
        monkeypatch.setattr(mgsolver, "BOUNDARY_SWEEPS", relax)
        prob, st = scrambled_problem(n, 0.125, seed=n)
        spec = CycleSpec(pre_sweeps=pre, post_sweeps=post, levels=max_levels(n),
                         omega=OMEGA_8)
        mine, ref = st.copy(), st
        for _ in range(2):
            v_cycle(prob, mine, spec)
            ref = _ref_cycle(prob, ref, spec, spec.levels)
            assert states_equal(mine, ref)

    def test_inputs_untouched(self):
        prob, st = scrambled_problem(15, 0.125, seed=4)
        before = st.copy()
        assemble_residual(prob, st)
        residual_norm(prob, st)
        assert states_equal(st, before)

    def test_sweep_and_cycle_return_the_state_they_are_given(self):
        prob, st = scrambled_problem(15, 0.125, seed=4)
        arrays = (st.u, st.v, st.p)
        for mask, omega in ((None, OMEGA_8), (mgsolver._band_mask(15), 1.0)):
            assert distributive_two_color_sweep(prob, st, omega, point_mask=mask) is st
        assert v_cycle(prob, st, CycleSpec(levels=3, omega=OMEGA_8)) is st
        assert all(a is b for a, b in zip((st.u, st.v, st.p), arrays))

    def test_residual_out_returns_out(self):
        prob, st = scrambled_problem(15, 0.3, seed=6)
        out = tuple(np.full((17, 17), np.nan) for _ in range(3))
        assert assemble_residual(prob, st, out=out) is out
        for mine, ref in zip(out, _ref_assemble_residual(prob, st)):
            assert np.array_equal(mine, ref)

    @pytest.mark.parametrize("masked", [False, True])
    def test_nan_sweep_leaves_clean_buffers(self, masked):
        prob, st = scrambled_problem(15, 0.125, seed=3)
        mask, omega = (mgsolver._band_mask(15), 1.0) if masked else (None, OMEGA_8)
        clean = st.copy()
        f = prob.f3[5, 2]
        prob.f3[5, 2] = np.nan  # a node of the band; w3 takes the NaN
        dirty = st.copy()
        distributive_two_color_sweep(prob, dirty, omega, point_mask=mask)
        assert np.isnan(dirty.p).any()
        prob.f3[5, 2] = f
        mine = distributive_two_color_sweep(prob, clean, omega, point_mask=mask)
        assert states_equal(mine, _reference_sweep(prob, st, omega, point_mask=mask))
        assert not mgsolver._buffers(prob, "w3")[0].any()

    def test_interrupted_sweep_leaves_a_zero_buffer(self, monkeypatch):
        # interrupt the first distribution step, after the red nodes' ghosts
        # are written to w3 and before they are cleared from it
        prob, st = scrambled_problem(15, 0.125, seed=4)
        w3 = mgsolver._buffers(prob, "w3")[0]
        apply, written = mgsolver._apply, []

        def interrupt_distribution(plan, a, at, out):
            if np.shares_memory(a, w3):
                written.append(bool(w3.any()))
                raise KeyboardInterrupt
            return apply(plan, a, at, out)

        monkeypatch.setattr(mgsolver, "_apply", interrupt_distribution)
        with pytest.raises(KeyboardInterrupt):
            distributive_two_color_sweep(prob, st.copy(), OMEGA_8)
        assert written == [True]
        assert not w3.any()
        monkeypatch.undo()
        mine = distributive_two_color_sweep(prob, st.copy(), OMEGA_8)
        assert states_equal(mine, _reference_sweep(prob, st, OMEGA_8))

    @pytest.mark.parts
    @pytest.mark.parametrize("failing, error", [("worker", ValueError),
                                                ("worker", KeyboardInterrupt),
                                                ("caller", ValueError)])
    def test_error_in_a_part_is_raised_once_both_parts_are_done(self, monkeypatch, swept_511,
                                                                 failing, error):
        # a sweep at n = 511 in two parts: one part raises from its first
        # stencil, the other is slow and then writes w3; the caller gets the
        # error only once both are done, so its clean-up leaves w3 zero
        prob, st, ref = swept_511
        w3 = mgsolver._buffers(prob, "w3")[0]
        apply, caller, raised = mgsolver._apply, threading.current_thread(), []

        def part_apply(plan, a, at, out):
            if (threading.current_thread() is caller) == (failing == "caller"):
                raised.append(threading.current_thread())
                raise error("a part failed")
            time.sleep(0.002)
            return apply(plan, a, at, out)

        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mgsolver, "_apply", part_apply)
        with pytest.raises(error, match="a part failed"):
            distributive_two_color_sweep(prob, st.copy(), OMEGA_8)
        assert len(raised) == 1 and (raised[0] is caller) == (failing == "caller")
        assert not w3.any()
        monkeypatch.setattr(mgsolver, "_apply", apply)
        assert states_equal(distributive_two_color_sweep(prob, st.copy(), OMEGA_8), ref)

    @pytest.mark.parts
    def test_worker_jobs_per_v_cycle(self, monkeypatch, swept_511):
        # a V(2,2) cycle at n = 511 makes 25 two-part passes whatever the
        # CPU count, and hands the worker their 25 second parts only where
        # two CPUs are usable; at n = 255 no pass splits
        passes, jobs = [], []
        run, executor = mgsolver._run, mgsolver._executor

        def counted(job, parts):
            if len(parts) == 2:
                passes.append(job)
            return run(job, parts)

        class Counting:
            def submit(self, job):
                jobs.append(job)
                return executor(os.getpid()).submit(job)

        problem = homogeneous_problem(255, 0.125)
        cases = ((problem, random_state(problem), 0), (swept_511[0], swept_511[1].copy(), 25))
        monkeypatch.setattr(mgsolver, "_run", counted)
        monkeypatch.setattr(mgsolver, "_executor", lambda pid: Counting())
        for cpus in (1, 2):
            monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: cpus)
            for prob, st, split in cases:
                passes.clear()
                jobs.clear()
                v_cycle(prob, st, CycleSpec(levels=max_levels(prob.n), omega=OMEGA_8))
                assert len(passes) == split, (cpus, prob.n)
                assert len(jobs) == (split if cpus >= 2 else 0), (cpus, prob.n)

    @pytest.mark.parts
    def test_worker_jobs_of_a_two_part_v_cycle(self, monkeypatch, swept_511):
        # with two CPUs usable, a V(2,2) cycle at n = 511 hands the worker
        # one job per split pass of its finest grid: 6 for each of the 4
        # full sweeps (pack, each color's relax and distribute, unpack)
        # and 1 for the residual, 25 in all.  The band sweeps, the
        # anchoring, the grid transfers and the norm's squares run whole,
        # so residual_norm hands the worker its residual's job alone
        jobs, run = [], mgsolver._run

        def counted(job, parts):
            if len(parts) == 2:
                jobs.append(job.__qualname__)
            return run(job, parts)

        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(mgsolver, "_run", counted)
        prob, st, _ = swept_511
        st = st.copy()
        v_cycle(prob, st, CycleSpec(levels=max_levels(511), omega=OMEGA_8))
        sweep = [f"distributive_two_color_sweep.<locals>.{job}"
                 for job in ("pack", "relax", "distribute", "relax", "distribute", "unpack")]
        residual = ["assemble_residual.<locals>.residual"]
        assert jobs == 2 * sweep + residual + 2 * sweep, jobs
        jobs.clear()
        residual_norm(prob, st)
        assert jobs == residual

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_one_split_rule_per_grid(self, monkeypatch, cpus):
        # every split pass over an n x n grid splits by n alone, whatever
        # the CPUs: two parts from n = 511 on (the grid transfers never
        # split)
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: cpus)
        parts = [mgsolver._part_count(2**k - 1) for k in range(2, 12)]
        assert parts == [1] * 7 + [2] * 3

    def test_usable_cpus_come_from_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert mgsolver._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        for count, usable in ((4, 4), (None, 1)):  # cpu_count may not know
            monkeypatch.setattr(os, "cpu_count", lambda: count)
            assert mgsolver._usable_cpus() == usable

    @pytest.mark.parts
    def test_callers_on_other_threads_queue_their_second_parts(self, swept_511):
        # three threads sweep three problems at n = 511 at once, each
        # queueing its second parts on the one worker, and every state
        # equals the one swept alone
        data, st, _ = swept_511
        problems = [(StokesProblem(511, 0.125, data.f1, data.f2, data.f3, data.g_u, data.g_v),
                     StokesState(st.u * k, st.v * k, st.p * k)) for k in (1.0, -0.5, 2.0)]
        alone = [distributive_two_color_sweep(prob, st.copy(), OMEGA_8) for prob, st in problems]
        swept = [st.copy() for _, st in problems]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=distributive_two_color_sweep,
                                        args=(prob, mine, OMEGA_8))
                       for (prob, _), mine in zip(problems, swept)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(states_equal(a, b) for a, b in zip(swept, alone))

    @pytest.mark.parts
    def test_worker_part_runs_under_the_callers_error_state(self, monkeypatch, swept_511):
        # u is scaled past overflow on rows that only the worker's part of
        # a sweep at n = 511 reaches; numpy keeps its error state per
        # thread, so the worker must take the caller's
        prob, st, _ = swept_511
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        huge = st.copy()
        huge.u[400:-1, 1:-1] *= 1e306
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            distributive_two_color_sweep(prob, huge.copy(), OMEGA_8)
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            distributive_two_color_sweep(prob, huge.copy(), OMEGA_8)

    @pytest.mark.parts
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_worker(self, monkeypatch, swept_511):
        # a child forked after a sweep in two parts has no worker thread;
        # it must start one, not wait for the parent's
        prob, st, ref = swept_511
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        assert states_equal(distributive_two_color_sweep(prob, st.copy(), OMEGA_8), ref)
        child = multiprocessing.get_context("fork").Process(
            target=distributive_two_color_sweep, args=(prob, st.copy(), OMEGA_8))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
        assert not hung and child.exitcode == 0

    @pytest.mark.parametrize("layout", ["fortran", "sliced", "float32", "int64"])
    def test_any_layout_through_default_path(self, layout):
        # every grid is read and written through a flat float64 view, which
        # a copy or a conversion would not write through; so the sweeps, the
        # cycle and the residual refuse any other state before they write,
        # and with no pre-sweep the cycle's first write would be the
        # prolonged correction
        prob, st = scrambled_problem(15, 0.125, seed=8)
        if layout == "fortran":
            other = StokesState(*(np.asfortranarray(a) for a in (st.u, st.v, st.p)))
        elif layout == "sliced":
            wide = [np.full((17, 34), np.nan) for _ in range(3)]
            for w, a in zip(wide, (st.u, st.v, st.p)):
                w[:, ::2] = a
            other = StokesState(*(w[:, ::2] for w in wide))
        else:
            other = StokesState(*(a.astype(layout) for a in (st.u, st.v, st.p)))
        match = (f"u has dtype {layout}" if layout in ("float32", "int64")
                 else "u is not C-contiguous")
        before = other.copy()
        for mask, omega in ((None, OMEGA_8), (mgsolver._band_mask(15), 1.0)):
            with pytest.raises(ValueError, match=match):
                distributive_two_color_sweep(prob, other, omega, mask)
        for pre in (2, 0):
            with pytest.raises(ValueError, match=match):
                v_cycle(prob, other, CycleSpec(pre_sweeps=pre, levels=3, omega=OMEGA_8))
        for take in (assemble_residual, residual_norm):
            with pytest.raises(ValueError, match=match):
                take(prob, other)
        assert states_equal(other, before)

    @pytest.mark.parametrize("name", ["u", "v", "p"])
    def test_read_only_state_refused_before_any_write(self, name):
        # a full sweep once wrote u and v before the unpack failed on a
        # read-only p, and so did the cycle's first sweep; with no pre-sweep
        # the cycle's first write would be the prolonged correction
        prob, st = scrambled_problem(15, 0.125, seed=10)
        getattr(st, name).setflags(write=False)
        before = st.copy()
        for mask, omega in ((None, OMEGA_8), (mgsolver._band_mask(15), 1.0)):
            with pytest.raises(ValueError, match=f"^{name} is read-only$"):
                distributive_two_color_sweep(prob, st, omega, mask)
        for pre in (2, 0):
            with pytest.raises(ValueError, match=f"^{name} is read-only$"):
                v_cycle(prob, st, CycleSpec(pre_sweeps=pre, levels=3, omega=OMEGA_8))
        assert states_equal(st, before)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_read_only_out_refused_before_any_write(self, k):
        # a read-only out[2] once failed only after out[0] and out[1] were filled
        prob, st = scrambled_problem(15, 0.125, seed=11)
        out = tuple(np.full((17, 17), np.nan) for _ in range(3))
        out[k].setflags(write=False)
        with pytest.raises(ValueError, match=rf"^out\[{k}\] is read-only$"):
            assemble_residual(prob, st, out=out)
        assert all(np.isnan(r).all() for r in out)

    def test_read_only_data_accepted(self):
        # the solver only reads the right-hand sides and the boundary data
        prob, st = scrambled_problem(15, 0.125, seed=12)
        data = ("f1", "f2", "f3", "g_u", "g_v")
        writable = StokesProblem(15, 0.125, *(getattr(prob, name).copy() for name in data))
        for name in data:
            getattr(prob, name).setflags(write=False)
        spec = CycleSpec(levels=3, omega=OMEGA_8)
        mine, ref = st.copy(), st.copy()
        for p, x in ((prob, mine), (writable, ref)):
            distributive_two_color_sweep(p, x, OMEGA_8)
            v_cycle(p, x, spec)
        assert states_equal(mine, ref)
        for a, b in zip(assemble_residual(prob, mine), assemble_residual(writable, ref)):
            assert arrays_equal(a, b)

    def test_out_must_be_c_contiguous(self):
        prob, st = scrambled_problem(15, 0.125, seed=9)
        fortran = StokesState(*(np.asfortranarray(a) for a in (st.u, st.v, st.p)))
        before = fortran.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            assemble_residual(prob, st, out=(fortran.u, fortran.v, fortran.p))
        assert states_equal(fortran, before)

    @pytest.mark.parametrize("count", [2, 4])
    def test_out_of_other_than_three_arrays_refused(self, count):
        # two arrays once failed inside the residual with a TypeError about a
        # missing argument, four with another TypeError
        prob, st = scrambled_problem(15, 0.125, seed=13)
        out = tuple(np.full((17, 17), np.nan) for _ in range(count))
        with pytest.raises(ValueError, match="^out must be a tuple or list of three arrays$"):
            assemble_residual(prob, st, out=out)
        assert all(np.isnan(r).all() for r in out)

    @pytest.mark.parametrize("alias", ["out[0]", "view of out[0]",
                                       "u", "v", "p", "f1", "f2", "f3"])
    def test_out_sharing_memory_refused_before_any_write(self, alias):
        # out = (a, a, a) once returned the r3 block in all three slots, and
        # a block that is an input would be read after parts of it are written
        prob, st = scrambled_problem(15, 0.125, seed=14)
        wide = np.full(17 * 17 + 1, np.nan)
        out = [wide[:-1].reshape(17, 17), None, np.full((17, 17), np.nan)]
        if alias == "out[0]":
            out[1] = out[0]
        elif alias == "view of out[0]":  # overlaps out[0] but one entry on
            out[1] = wide[1:].reshape(17, 17)
        else:
            out[1] = getattr(st if alias in ("u", "v", "p") else prob, alias)
        before = st.copy()
        data = [a.copy() for a in (prob.f1, prob.f2, prob.f3)]
        with pytest.raises(ValueError, match=r"^out\[1\] may share memory"):
            assemble_residual(prob, st, out=tuple(out))
        assert states_equal(st, before)
        assert all(arrays_equal(a, b) for a, b in zip((prob.f1, prob.f2, prob.f3), data))
        assert np.isnan(wide).all() and np.isnan(out[2]).all()

    def test_scratch_dies_with_its_problem(self):
        prob = homogeneous_problem(15, 0.125)
        v_cycle(prob, random_state(prob), CycleSpec(levels=3, omega=OMEGA_8))
        assert [level.n for level in _levels(prob)] == [15, 7, 3]
        # 4 work grids and the chunk temporaries on the finest level; on
        # each coarse one 4 grid views, the finest level's temporaries, 5
        # problem arrays and 3 correction-state arrays
        arrays = [weakref.ref(a) for a in _reachable_arrays(prob._scratch)]
        assert len(arrays) == 5 + 2 * (5 + 5 + 3)
        del prob
        gc.collect()
        assert all(ref() is None for ref in arrays)

    @pytest.mark.parts
    def test_worker_keeps_nothing_alive(self, monkeypatch):
        # the worker thread drops each job once it is done, so a problem and
        # a state swept in two parts die with their last reference
        monkeypatch.setattr(mgsolver, "_usable_cpus", lambda: 2)
        prob = homogeneous_problem(511, 0.125)
        st = distributive_two_color_sweep(prob, random_state(prob), OMEGA_8)
        arrays = [weakref.ref(a) for a in _reachable_arrays(prob._scratch) + [st.u, st.v, st.p]]
        del prob, st
        gc.collect()
        assert all(ref() is None for ref in arrays)

    def test_hierarchy_is_built_by_the_first_cycle_only(self, monkeypatch):
        prob, st = scrambled_problem(63, 0.125, seed=10)
        spec = CycleSpec(levels=max_levels(63), omega=OMEGA_8)
        st = v_cycle(prob, st, spec)
        made = {"problems": 0, "states": 0, "zeros": 0, "np.zeros": 0}

        def counting(kind, fn):
            def counted(*args, **kwargs):
                made[kind] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(StokesProblem, "__post_init__",
                            counting("problems", StokesProblem.__post_init__))
        monkeypatch.setattr(StokesState, "__init__", counting("states", StokesState.__init__))
        monkeypatch.setattr(mgsolver, "_zeros", counting("zeros", mgsolver._zeros))
        # the transfers write into the levels' arrays
        monkeypatch.setattr(mgsolver.np, "zeros", counting("np.zeros", np.zeros))
        for _ in range(2):
            st = v_cycle(prob, st, spec)
        assert made == {"problems": 0, "states": 0, "zeros": 0, "np.zeros": 0}

    def test_hierarchy_is_kept_and_shares_the_finest_buffers(self):
        prob, st = scrambled_problem(31, 0.125, seed=11)
        spec = CycleSpec(levels=max_levels(31), omega=OMEGA_8)
        kept = []
        for _ in range(3):
            st = v_cycle(prob, st, spec)
            kept.append(_reachable_arrays(prob._scratch))
        assert [id(a) for a in kept[1]] == [id(a) for a in kept[2]]
        levels = _levels(prob)
        assert [level.n for level in levels] == [31, 15, 7, 3]
        for level in levels[1:]:
            for name in mgsolver._SCRATCH:
                for mine, finest in zip(level._scratch[name], prob._scratch[name]):
                    assert mine.shape == (level.n + 2, level.n + 2)
                    assert mine.flags.c_contiguous and np.shares_memory(mine, finest)
            assert level._scratch["chunks"] is prob._scratch["chunks"]
        # 4 work grids and one array of chunk temporaries, one part's two
        # rows of the whole 33 x 33 grid each, serve the whole hierarchy
        assert prob._scratch["chunks"].shape == (1, 2, 33 * 33)
        buffers = [b for level in levels for name in mgsolver._SCRATCH
                   for b in level._scratch[name]]
        buffers += [level._scratch["chunks"] for level in levels]
        owners = {id(b if b.base is None else b.base) for b in buffers}
        assert len(owners) == 5

    def test_residual_blocks_are_the_state_buffers(self, monkeypatch):
        # the cycle, the bottom solve and residual_norm write the residual
        # into the sweep's packed-copy buffers, which no sweep needs across
        # the call and which share no memory with the other work buffers;
        # their states are anchored, so assemble_residual reads their p in
        # place, and it mirrors a copy of p only for a state whose ghosts
        # are stale, a copy of its own
        prob, st = scrambled_problem(15, 0.125, seed=13)
        outs, copies, into = [], [], []
        residual, mirror = mgsolver.assemble_residual, mgsolver._mirror_ghosts

        def recording(prob, st, *, out=None):
            if out is not None:  # not _bottom_pinv's columns
                outs.append((prob, out))
            into.append(out is not None)
            try:
                return residual(prob, st, out=out)
            finally:
                into.pop()

        def mirroring(p):
            if into and into[-1]:
                copies.append(p)
            return mirror(p)

        monkeypatch.setattr(mgsolver, "assemble_residual", recording)
        monkeypatch.setattr(mgsolver, "_mirror_ghosts", mirroring)
        v_cycle(prob, st, CycleSpec(levels=max_levels(15), omega=OMEGA_8))
        residual_norm(prob, st)
        assert [level.n for level, _ in outs] == [15, 7, 3, 15]
        assert copies == []
        for level, out in outs:
            state = mgsolver._buffers(level, "state")
            others = (*mgsolver._buffers(level, "w3"), mgsolver._temporaries(level))
            assert len(out) == 3 and all(r is b for r, b in zip(out, state))
            assert not any(np.shares_memory(r, b) for r in out for b in others)
        stale = st.copy()
        stale.p[0, 4] += 1.0
        recording(prob, stale, out=tuple(np.empty((17, 17)) for _ in range(3)))
        assert len(copies) == 1
        work = (*mgsolver._buffers(prob, "state"), *mgsolver._buffers(prob, "w3"),
                mgsolver._temporaries(prob), stale.p)
        assert not any(np.shares_memory(copies[0], b) for b in work)

    # a ghost whose bits differ from its source's, whatever == says, makes
    # assemble_residual mirror a copy: here -0.0 over +0.0, whose sign
    # reaches r2 at node (5, 1) through ddy p when v and f2 there are -0.0;
    # a NaN over a finite node; and a stale ghost of a read-only state
    @pytest.mark.parametrize("case", ["negative_zero", "nan", "read_only"])
    def test_unmirrored_ghosts_are_mirrored_in_a_copy(self, case):
        prob = homogeneous_problem(15, 0.3)
        if case == "negative_zero":
            st = zero_state(prob)
            prob.f2[5, 1] = st.v[5, 1] = st.p[5, 2] = -0.0
            st.p[5, 0] = -0.0
        else:
            st = random_state(prob, seed=14)
            st.p[0, 7] = np.nan if case == "nan" else st.p[0, 7] + 1.0
        if case == "read_only":
            for a in (st.u, st.v, st.p):
                a.setflags(write=False)
        before = st.p.tobytes()
        mine, ref = assemble_residual(prob, st), _ref_assemble_residual(prob, st)
        assert all(arrays_equal(a, b) for a, b in zip(mine, ref))
        assert st.p.tobytes() == before
        if case == "negative_zero":  # the ghost read in place would give -0.0
            assert mine[1][5, 1] == 0.0 and not np.signbit(mine[1][5, 1])

    @pytest.mark.parts
    def test_finest_work_buffers_are_four_grids_and_the_chunks(self):
        # after one V-cycle at n = 511 the finest problem's own work
        # buffers are w3, the 3 state grids and, per part of its passes,
        # two temporaries of CHUNK = 2^15 values, as many bytes as eight
        # of 2^14; the coarse levels allocate none
        prob = homogeneous_problem(511, 0.125)
        v_cycle(prob, random_state(prob), CycleSpec())
        own = {k: b for k, b in prob._scratch.items() if k != "coarse"}
        owners = {id(a if a.base is None else a.base): a if a.base is None else a.base
                  for a in _reachable_arrays(own)}
        allocated = sum(a.nbytes for a in owners.values())
        assert allocated <= 4 * 513**2 * 8 + 8 * 2**14 * 8
        finest = set(owners)
        for level in _levels(prob)[1:]:
            work = {k: b for k, b in level._scratch.items() if k != "coarse"}
            assert {id(a if a.base is None else a.base) for a in _reachable_arrays(work)} <= finest

    def test_nan_cycle_leaves_a_clean_hierarchy(self):
        prob, st = scrambled_problem(31, 0.125, seed=12)
        fresh, _ = scrambled_problem(31, 0.125, seed=12)
        spec = CycleSpec(levels=max_levels(31), omega=OMEGA_8)
        f = prob.f1[9, 4]
        prob.f1[9, 4] = np.nan
        assert np.isnan(v_cycle(prob, st.copy(), spec).p).all()
        prob.f1[9, 4] = f
        assert states_equal(v_cycle(prob, st.copy(), spec), v_cycle(fresh, st.copy(), spec))

    def test_problem_is_frozen(self):
        prob = homogeneous_problem(7, 0.125)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.c = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            prob.n = 15


class TestTransfers:
    def test_restrict_constant(self):
        coarse = restrict(np.ones((17, 17)), np.zeros((9, 9)))
        assert np.abs(coarse[1:-1, 1:-1] - 1.0).max() < 1e-14

    def test_restrict_kills_checkerboard(self):
        ii, jj = np.meshgrid(np.arange(17), np.arange(17), indexing="ij")
        fine = ((-1.0) ** (ii + jj))
        assert np.abs(restrict(fine, np.zeros((9, 9)))[1:-1, 1:-1]).max() < 1e-14

    def test_restrict_preserves_linear(self):
        ii, jj = np.meshgrid(np.arange(17), np.arange(17), indexing="ij")
        fine = ii * 1.0
        coarse = restrict(fine, np.zeros((9, 9)))
        for nc_i in range(1, 8):
            assert coarse[nc_i, 3] == pytest.approx(2.0 * nc_i, abs=1e-13)

    def test_prolong_constant_with_ring(self):
        fine = prolong(np.ones((9, 9)), np.zeros((17, 17)))
        assert np.abs(fine[1:-1, 1:-1] - 1.0).max() < 1e-14

    def test_prolong_linear(self):
        ii = np.arange(9)[:, None] * np.ones((1, 9))
        fine = prolong(ii, np.zeros((17, 17)))
        for i in range(1, 16):
            assert fine[i, 8] == pytest.approx(i / 2.0, abs=1e-13)

    def test_transpose_relation(self):
        # <prolong(xc), yf> = 4 <xc, restrict(yf)> for ring-zero fields
        rng = np.random.default_rng(12)
        xc = np.zeros((9, 9))
        xc[1:-1, 1:-1] = rng.standard_normal((7, 7))
        yf = np.zeros((17, 17))
        yf[1:-1, 1:-1] = rng.standard_normal((15, 15))
        lhs = float((prolong(xc, np.zeros((17, 17))) * yf).sum())
        rhs = 4.0 * float((xc * restrict(yf, np.zeros((9, 9)))).sum())
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 15, 127, pytest.param(511, marks=pytest.mark.parts)])
    def test_bit_identical_to_referees(self, n):
        # restrict overwrites the interior, prolong adds to it, and both
        # leave the ring of the array they write as it was
        rng = np.random.default_rng(n)
        fine = rng.standard_normal((n + 2, n + 2))
        coarse = rng.standard_normal(((n + 1) // 2 + 1,) * 2)
        want = coarse.copy()
        want[1:-1, 1:-1] = _ref_restrict(fine)[1:-1, 1:-1]
        out = coarse.copy()
        assert restrict(fine, out) is out
        assert arrays_equal(out, want)
        want = fine.copy()
        want[1:-1, 1:-1] += _ref_prolong(coarse)[1:-1, 1:-1]
        out = fine.copy()
        assert prolong(coarse, out) is out
        assert arrays_equal(out, want)

    @pytest.mark.parametrize("fine_shape, coarse_shape", [
        ((5, 5), (7, 7)),  # one coarse value would broadcast over the interior
        ((7, 7), (3, 3)),  # one coarse value would broadcast in prolong
        ((17, 17), (8, 8)),
        ((17, 16), (9, 9)),
        ((17, 17), (9, 8)),
        ((3, 3), (2, 2)),
        ((17, 17), (9,)),
    ])
    def test_incompatible_shapes(self, fine_shape, coarse_shape):
        fine, coarse = np.ones(fine_shape), np.ones(coarse_shape)
        with pytest.raises(ValueError, match="not a fine grid"):
            restrict(fine, coarse)
        with pytest.raises(ValueError, match="not a fine grid"):
            prolong(coarse, fine)
        assert (fine == 1.0).all() and (coarse == 1.0).all()

    def test_integer_grids_refused(self):
        # an int64 coarse grid would truncate the restriction, and an int64
        # fine grid cannot take the prolonged correction in place
        fine, coarse = np.arange(289).reshape(17, 17), np.arange(81).reshape(9, 9)
        keep_fine, keep_coarse = fine.copy(), coarse.copy()
        for f, c in ((fine, np.zeros((9, 9))), (np.ones((17, 17)), coarse), (fine, coarse)):
            with pytest.raises(ValueError, match="int64"):
                restrict(f, c)
            with pytest.raises(ValueError, match="int64"):
                prolong(c, f)
        assert arrays_equal(fine, keep_fine) and arrays_equal(coarse, keep_coarse)

    def test_incompatible_restrict(self):
        with pytest.raises(ValueError):
            restrict(np.zeros((6, 6)), np.zeros((4, 4)))

    @pytest.mark.parametrize("n", [3, 7, 31])
    def test_mirror_ghosts_matches_referee(self, n):
        p = np.random.default_rng(n).standard_normal((n + 2, n + 2))
        want = p.copy()
        _ref_mirror_ghosts(want)
        mgsolver._mirror_ghosts(p)
        assert arrays_equal(p, want)
        # a flat copy would take the write and drop it
        fortran = np.asfortranarray(np.random.default_rng(n).standard_normal((n + 2, n + 2)))
        before = fortran.copy()
        with pytest.raises(ValueError, match="C-contiguous"):
            mgsolver._mirror_ghosts(fortran)
        assert arrays_equal(fortran, before)


class TestVCycle:
    def test_residual_decreases_on_homogeneous_problem(self):
        prob = homogeneous_problem(31, 0.125)
        spec = CycleSpec(levels=max_levels(31), omega=OMEGA_8)
        st = random_state(prob, seed=42)
        norms = [residual_norm(prob, st)]
        for _ in range(4):
            st = v_cycle(prob, st, spec)
            norms.append(residual_norm(prob, st))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_exact_solution_is_fixed_point(self):
        prob, exact = manufactured_problem(31, 0.125)
        spec = CycleSpec(levels=max_levels(31), omega=OMEGA_8)
        after = v_cycle(prob, exact.copy(), spec)
        assert state_diff(after, exact) <= 1e-12

    def test_manufactured_solve_converges_fast(self):
        prob, exact = manufactured_problem(31, 0.125)
        spec = CycleSpec(levels=max_levels(31), omega=OMEGA_8)
        st = zero_state(prob)
        norms = [residual_norm(prob, st)]
        for _ in range(10):
            st = v_cycle(prob, st, spec)
            norms.append(residual_norm(prob, st))
        tail = [b / a for a, b in zip(norms[-6:], norms[-5:])]
        rho = float(np.exp(np.mean(np.log(tail))))
        assert rho < 0.35
        assert np.abs(st.u - exact.u).max() < 1e-4  # discrete solution recovered

    def test_smoothing_alone_is_slower_than_two_level(self):
        prob = homogeneous_problem(31, 0.125)
        st0 = random_state(prob, seed=42)
        sweeps_per_cycle = 4  # pre + post of the cycle below
        st = st0.copy()
        for _ in range(3 * sweeps_per_cycle):
            st = distributive_two_color_sweep(prob, st, OMEGA_8)
        smoothing_only = residual_norm(prob, st)
        spec = CycleSpec(levels=2, omega=OMEGA_8)  # two-grid cycle
        st = st0.copy()
        for _ in range(3):
            st = v_cycle(prob, st, spec)
        assert residual_norm(prob, st) < 0.2 * smoothing_only

    # None levels is the deepest hierarchy and None omega the closed form's
    @pytest.mark.parametrize("n, c, levels", [(63, 0.125, None), (31, 0.5, None),
                                              (31, 0.125, 2)])
    def test_default_fields_are_resolved_bit_for_bit(self, n, c, levels):
        prob, st = scrambled_problem(n, c, seed=n)
        explicit = CycleSpec(levels=levels or max_levels(n), omega=cf.omega_opt_closed(c))
        mine, ref = st.copy(), st
        for _ in range(2):
            v_cycle(prob, mine, CycleSpec(levels=levels))
            v_cycle(prob, ref, explicit)
            assert states_equal(mine, ref)

    def test_coarsest_grid_has_no_cycle(self):
        prob = homogeneous_problem(3, 0.125)
        with pytest.raises(ValueError, match=r"n = 3 is the coarsest grid; a cycle needs n >= 7"):
            v_cycle(prob, zero_state(prob), CycleSpec())

    def test_levels_validation(self):
        prob = homogeneous_problem(15, 0.125)
        with pytest.raises(ValueError, match="levels"):
            v_cycle(prob, zero_state(prob), CycleSpec(levels=5, omega=OMEGA_8))

    def test_bottom_grid_beyond_exact_solve_rejected(self):
        prob = homogeneous_problem(63, 0.125)
        with pytest.raises(ValueError, match="31x31 bottom grid"):
            v_cycle(prob, zero_state(prob), CycleSpec(levels=2, omega=OMEGA_8))

    def test_bottom_level_calls_no_smoother(self, monkeypatch):
        sizes = []
        sweep = mgsolver.distributive_two_color_sweep

        def recording_sweep(prob, *args, **kwargs):
            sizes.append(prob.n)
            return sweep(prob, *args, **kwargs)

        monkeypatch.setattr(mgsolver, "distributive_two_color_sweep", recording_sweep)
        prob = homogeneous_problem(15, 0.125)
        v_cycle(prob, random_state(prob), CycleSpec(levels=3, omega=OMEGA_8))
        assert sorted(set(sizes)) == [7, 15]  # nothing on the 3x3 bottom grid

    @pytest.mark.parametrize("band_sweeps", [None, 0, 3])
    def test_every_full_sweep_is_followed_by_the_band_sweeps(self, monkeypatch, band_sweeps):
        # None keeps the default; a band sweep is a call with a point_mask
        if band_sweeps is not None:
            monkeypatch.setattr(mgsolver, "BOUNDARY_SWEEPS", band_sweeps)
        kinds = []
        sweep = mgsolver.distributive_two_color_sweep

        def recording_sweep(prob, st, omega, point_mask=None):
            kinds.append("full" if point_mask is None else "band")
            return sweep(prob, st, omega, point_mask=point_mask)

        monkeypatch.setattr(mgsolver, "distributive_two_color_sweep", recording_sweep)
        prob = homogeneous_problem(15, 0.125)
        v_cycle(prob, random_state(prob), CycleSpec(levels=3, omega=OMEGA_8))
        step = ["full"] + ["band"] * mgsolver.BOUNDARY_SWEEPS
        assert kinds == step * 8  # V(2,2) on the two levels above the bottom grid

    def test_cycle_transfers_through_the_public_names(self, monkeypatch):
        # the benchmark's tracer wraps mgsolver.restrict and mgsolver.prolong,
        # so the cycle must look them up as module attributes
        calls = []

        def recording(name, fn):
            def recorded(a, b):
                calls.append((name, a.shape[0] - 2))
                return fn(a, b)
            return recorded

        for name in ("restrict", "prolong"):
            monkeypatch.setattr(mgsolver, name, recording(name, getattr(mgsolver, name)))
        prob = homogeneous_problem(15, 0.125)
        v_cycle(prob, random_state(prob), CycleSpec(levels=3, omega=OMEGA_8))
        # restrict takes the fine grid (15, then 7), prolong the coarse one (3, then 7)
        assert calls == ([("restrict", 15)] * 3 + [("restrict", 7)] * 3
                         + [("prolong", 3)] * 3 + [("prolong", 7)] * 3)


def _ref_bottom_pinv(n, c):
    """Referee for the bottom solve's matrix: one loop per block, row and column.

    It sets each unit state in place, takes minus its residual and clears it.
    """
    prob = homogeneous_problem(n, c)
    st = zero_state(prob)
    cols = []
    for a in (st.u, st.v, st.p):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                a[i, j] = 1.0
                cols.append(-mgsolver._interior_vector(*assemble_residual(prob, st)))
                a[i, j] = 0.0
    return np.linalg.pinv(np.column_stack(cols))


class TestBottomSolve:
    @pytest.mark.parametrize("n", [3, 7, 15])
    @pytest.mark.parametrize("c", [0.005, 0.125, 1.0])
    def test_one_correction_recovers_manufactured_state(self, n, c):
        prob, exact = manufactured_problem(n, c)
        after = mgsolver._bottom_solve(prob, random_state(prob))
        assert state_diff(after, exact) <= 1e-10

    @pytest.mark.parametrize("n, c", [(n, c) for n in (3, 7) for c in (0.005, 0.125, 1.0, 37.5)]
                             + [(15, 1.0)])
    def test_pinv_matches_unit_state_loop(self, n, c):
        assert mgsolver._bottom_pinv(n, c).tobytes() == _ref_bottom_pinv(n, c).tobytes()

    def test_matrix_has_only_the_constant_pressure_null_space(self):
        pinv = mgsolver._bottom_pinv(3, 0.125)
        assert pinv.shape == (27, 27)
        assert np.linalg.matrix_rank(pinv) == 26
        assert not pinv.flags.writeable


class TestMatrixOf:
    def test_state_is_zeroed_before_every_column(self):
        # a map that updates its state in place sees the k-th unit state
        # alone at column k, not what the column before left
        def doubled(st):
            for a in (st.u, st.v, st.p):
                a *= 2.0
            return st.u, st.v, st.p

        assert np.array_equal(mgsolver._matrix_of(doubled, 3), 2.0 * np.eye(27))

    # The exact two-grid factor is the spectral radius of the cycle's
    # error-propagation matrix: column k is the cycle applied to the k-th
    # unit state of the homogeneous problem.  The anchoring zeroes the row of
    # p at node (1, 1), which adds the eigenvalue 0 and leaves the others.
    # 40 cycles from a random state measure 0.076870 against an exact
    # 0.076870 at c = 1/8 with the band, and 0.491784 against 0.492552 (0.16%
    # low) at c = 1 without it, where the next eigenvalue, 0.459, has not
    # quite died out; 2% holds both with room to spare
    @pytest.mark.parametrize("c, relax", [(0.125, 2), (1.0, 0)])
    def test_two_grid_factor_is_the_cycle_matrix_spectral_radius(self, monkeypatch, c, relax):
        monkeypatch.setattr(mgsolver, "BOUNDARY_SWEEPS", relax)
        prob = homogeneous_problem(7, c)
        spec = CycleSpec(levels=2, omega=cf.omega_opt_closed(c))

        def cycled(st):
            v_cycle(prob, st, spec)
            return st.u, st.v, st.p

        exact = max(abs(np.linalg.eigvals(mgsolver._matrix_of(cycled, 7))))
        measured = measure_convergence_factor(homogeneous_problem(7, c), spec, 40)
        assert measured.rho_observed == pytest.approx(exact, rel=0.02)


class TestConvergenceMeasurement:
    def test_tiny_grid_plumbing(self):
        prob = homogeneous_problem(7, 0.125)
        spec = CycleSpec(levels=2, omega=OMEGA_8)
        report = measure_convergence_factor(prob, spec, n_cycles=12)
        assert len(report.residual_history) == 12
        assert all(r > 0 for r in report.residual_history)
        assert report.rho_observed > 0
        assert not report.diverged

    def test_seed_determinism(self):
        prob = homogeneous_problem(15, 0.125)
        spec = CycleSpec(levels=3, omega=OMEGA_8)
        a = measure_convergence_factor(prob, spec, 10, seed=7)
        b = measure_convergence_factor(prob, spec, 10, seed=7)
        assert a.residual_history == b.residual_history

    def test_cycle_count_validation(self):
        prob = homogeneous_problem(15, 0.125)
        with pytest.raises(ValueError, match="n_cycles"):
            measure_convergence_factor(prob, CycleSpec(levels=3, omega=OMEGA_8), 5)

    def test_divergence_flagged_not_raised(self):
        prob = homogeneous_problem(31, 0.005)
        spec = CycleSpec(levels=3, omega=1.9)
        report = measure_convergence_factor(prob, spec, 12)
        assert report.diverged
        assert report.rho_observed > 1.0

    def test_steady_slow_growth_flagged(self, monkeypatch):
        # without band relaxation the n = 127 V-cycle grows the residual
        # by about 1.17 per cycle, never by 1.5
        monkeypatch.setattr(mgsolver, "BOUNDARY_SWEEPS", 0)
        prob = homogeneous_problem(127, 0.125)
        spec = CycleSpec(levels=max_levels(127), omega=OMEGA_8)
        report = measure_convergence_factor(prob, spec, 12)
        assert max(report.ratios()[-5:]) < 1.5
        assert report.rho_observed > 1.1
        assert report.diverged

    def test_long_run_stops_before_the_subnormal_range(self):
        # at n = 7 the factor is about 0.0769; past a drop of about 1e-318
        # the state is subnormal and the ratios drift to 1, so the run
        # stops at a drop of 1e-250 (cycle 224) with the factor intact
        prob = homogeneous_problem(7, 0.125)
        spec = CycleSpec(levels=max_levels(7), omega=OMEGA_8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            full = measure_convergence_factor(prob, spec, 200)
            long = measure_convergence_factor(prob, spec, 400)
        assert len(full.residual_history) == 200
        assert 200 < len(long.residual_history) < 400
        assert long.residual_history[-1] < 1e-250 * long.initial_residual
        assert all(r > 0 for r in long.residual_history)
        for report in (full, long):
            assert report.rho_observed == pytest.approx(0.0768697, rel=1e-5)
            assert not report.diverged

    def test_zero_residual_ends_the_run(self, monkeypatch):
        # an exactly solved state stops the run; the fit takes the ratios
        # before the zero, with no division by it and no log of it
        prob = homogeneous_problem(7, 0.125)
        spec = CycleSpec(levels=max_levels(7), omega=OMEGA_8)
        cycles = []

        def cycle_then_solve(prob, st, spec):
            cycles.append(None)
            if len(cycles) < 15:
                return v_cycle(prob, st, spec)
            st.u[:], st.v[:], st.p[:] = 0.0, 0.0, 0.0
            return st

        monkeypatch.setattr(mgsolver, "v_cycle", cycle_then_solve)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = measure_convergence_factor(prob, spec, 100)
        assert len(report.residual_history) == 15
        assert report.residual_history[-1] == 0.0
        assert all(r > 0 for r in report.residual_history[:-1])
        assert report.rho_observed == pytest.approx(0.0768697, rel=1e-5)
        assert not report.diverged

    def test_slow_divergence_shows_only_in_a_long_run(self):
        # at c = 0.005 and n = 63 the default V(2,2) diverges slowly: its
        # 20-cycle fit, criterion 12's, reads 0.9298, below 1, and only
        # a 100-cycle fit reads above 1 (1.00917)
        c = 0.005
        spec = CycleSpec(levels=max_levels(63), omega=cf.omega_opt_closed(c))
        short, long = (measure_convergence_factor(homogeneous_problem(63, c), spec, cycles)
                       for cycles in (20, 100))
        assert short.rho_observed == pytest.approx(0.9298, abs=1e-4)
        assert not short.diverged
        assert long.rho_observed == pytest.approx(1.00917, abs=1e-5)
        assert long.diverged

    def test_nan_residual_flagged(self):
        prob = homogeneous_problem(15, 0.125)
        prob.f1[5, 5] = np.nan
        report = measure_convergence_factor(prob, CycleSpec(levels=3, omega=OMEGA_8), 10)
        assert math.isnan(report.residual_history[-1])
        assert len(report.residual_history) == 1  # stops at the non-finite residual
        assert report.diverged
