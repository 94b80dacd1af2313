import math

import numpy as np
import pytest

from stokesmg import closedform as cf
from stokesmg.harmonics import projected_eigenvalue_grid
from stokesmg.smoothing import SweepConfig, one_stage_optimum
from stokesmg.stencil import make_operator

FAST = SweepConfig(n_samples_per_axis=65)


def fd_gradient(f, s1, s2, step=1e-6):
    d1 = (f(s1 + step, s2) - f(s1 - step, s2)) / (2 * step)
    d2 = (f(s1, s2 + step) - f(s1, s2 - step)) / (2 * step)
    return d1, d2


class TestCriticalPoint:
    @pytest.mark.parametrize("c", [1.0, 1 / 16, 0.02, 0.3, 10.0])
    def test_in_range_and_stationary(self, c):
        s = cf.critical_point(c)
        assert 0.0 <= s <= 0.5
        d1, d2 = fd_gradient(lambda a, b: cf.projected_eigenvalue_s(a, b, c), s, s)
        assert math.hypot(d1, d2) <= 1e-8
        # the value there is the least on the diagonal s1 = s2 of [0, 1/2]^2
        diag = np.linspace(0.0, 0.5, 20001)
        gap = cf.projected_eigenvalue_s(diag, diag, c).min() - cf.eigenvalue_at_critical(c)
        assert 0.0 <= gap <= 1e-8

    def test_symmetric_difference_factorization(self):
        # d/ds1 - d/ds2 of the eigenvalue factors through (s1 - s2)
        rng = np.random.default_rng(7)
        for _ in range(40):
            c = float(rng.uniform(0.01, 2.0))
            s1, s2 = rng.uniform(0.05, 0.45, size=2)
            d1, d2 = fd_gradient(lambda a, b: cf.projected_eigenvalue_s(a, b, c), s1, s2)
            want = 8 * (s1 - s2) * (1 + 4 * c * (1 + 4 * s1 + 4 * s2)) / (1 + 20 * c) ** 2
            assert d1 - d2 == pytest.approx(want, abs=5e-7)

    def test_rejected_inputs(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                cf.critical_point(c)

    def test_no_singularity_at_c_eighth(self):
        assert cf.critical_point(0.125) == 5 / 16
        assert cf.eigenvalue_at_critical(0.125) == pytest.approx(-23 / 98, abs=1e-15)


class TestEigenvalueRoutes:
    def test_s_form_matches_symbol_route(self):
        # rational s-coordinate form vs the Fourier-symbol route
        rng = np.random.default_rng(9)
        for _ in range(40):
            c = float(rng.uniform(0.01, 5.0))
            t1, t2 = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
            pb = make_operator("pressure_block", c=c)
            via_symbols = complex(projected_eigenvalue_grid(pb, t1, t2))
            s1, s2 = math.sin(t1 / 2) ** 2, math.sin(t2 / 2) ** 2
            assert abs(via_symbols.imag) < 1e-12
            assert via_symbols.real == pytest.approx(
                cf.projected_eigenvalue_s(s1, s2, c), abs=1e-12)

    @pytest.mark.parametrize("c", [0.005, 0.02, 1 / 27, 1 / 16, 0.3, 1.0, 100.0])
    def test_extreme_value_ranges(self, c):
        assert -1.0 < cf.eigenvalue_at_critical(c) < 0.0
        assert 0.0 < cf.eigenvalue_at_origin(c) < 1.0


class TestRhoOptClosed:
    def test_value_at_c_eighth(self):
        assert cf.rho_opt_closed(1 / 8) == 25 / 217

    def test_large_c_limit(self):
        assert cf.rho_opt_closed(1e6) == pytest.approx(11 / 43, abs=1e-4)
        assert cf.rho_opt_closed(cf.C_MAX) == pytest.approx(11 / 43, abs=1e-9)
        assert cf.critical_point(cf.C_MAX) == pytest.approx(0.25, abs=1e-9)

    def test_small_c_limit(self):
        assert cf.rho_opt_closed(1e-6) >= 0.99

    @pytest.mark.parametrize("c", [0.02, 1 / 16, 0.2, 1.0, 10.0])
    def test_matches_sweep(self, c):
        res = one_stage_optimum(make_operator("pressure_block", c=c))
        assert cf.rho_opt_closed(c) == pytest.approx(res.rho_opt, abs=1e-6)

    def test_continuity_at_c_eighth(self):
        for c in (1 / 8 - 1e-4, 1 / 8 + 1e-4):
            assert abs(cf.rho_opt_closed(c) - 25 / 217) <= 1e-3

    def test_rejects_nonpositive(self):
        for c in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                cf.rho_opt_closed(c)
            with pytest.raises(ValueError):
                cf.eigenvalue_at_origin(c)

    @pytest.mark.parametrize("c", [1e76, 1e100, 1e200, 1e300])
    def test_rejects_c_beyond_c_max(self, c):
        # the radicand's c^4 overflows here, and the forms returned 0,
        # 1.5625 or nan; the eigenvalue's squares overflow from about 1e150
        forms = (cf.eigenvalue_at_origin, cf.critical_point, cf.eigenvalue_at_critical,
                 cf.rho_opt_closed, cf.omega_opt_closed,
                 lambda c: cf.projected_eigenvalue_s(0.25, 0.25, c))
        for form in forms:
            with pytest.raises(ValueError, match="closed forms"):
                form(c)


class TestOmegaOptClosed:
    def test_value_near_c_eighth(self):
        # exact at 1/8, and no flat window around it: 1e-7 away the value
        # moves by 1e-7 times the slope
        assert cf.omega_opt_closed(1 / 8) == 28 / 31
        slope = (cf.omega_opt_closed(1 / 8 + 1e-4) - cf.omega_opt_closed(1 / 8 - 1e-4)) / 2e-4
        assert cf.omega_opt_closed(1 / 8 + 1e-7) - 28 / 31 == pytest.approx(1e-7 * slope,
                                                                            rel=1e-3)

    def test_large_c_limit(self):
        assert cf.omega_opt_closed(1e6) == pytest.approx(50 / 43, abs=1e-4)
        assert cf.omega_opt_closed(cf.C_MAX) == pytest.approx(50 / 43, abs=1e-9)

    def test_small_c_limit(self):
        assert cf.omega_opt_closed(1e-6) == pytest.approx(1.0, abs=1e-3)

    def test_global_minimum(self):
        grid = np.logspace(-3, 3, 20001)
        vals = np.array([cf.omega_opt_closed(float(c)) for c in grid])
        assert vals.min() == pytest.approx(cf.OMEGA_GLOBAL_MIN_REF, abs=1e-4)
        assert grid[int(np.argmin(vals))] == pytest.approx(0.0339, abs=2e-3)

    @pytest.mark.parametrize("c", [0.02, 1 / 16, 0.2, 1.0, 10.0])
    def test_matches_sweep(self, c):
        res = one_stage_optimum(make_operator("pressure_block", c=c))
        assert cf.omega_opt_closed(c) == pytest.approx(res.omega_opt, abs=1e-6)


class TestC0:
    def test_value_and_bracket(self):
        c0 = cf.find_c0()
        assert c0 == pytest.approx(cf.C0_REF, abs=1e-5)
        assert 1 / 28 < c0 < 1 / 27

    def test_bracket_signs(self):
        assert cf.rho_opt_closed(1 / 28) > 11 / 43
        assert cf.rho_opt_closed(1 / 27) < 11 / 43


class TestCurveShape:
    def test_decreasing_up_to_c_eighth(self):
        cs = np.geomspace(1e-3, 1 / 8, 400)
        vals = [cf.rho_opt_closed(float(c)) for c in cs]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_increasing_past_the_dip(self):
        cs = np.geomspace(0.135, 1e3, 400)
        vals = [cf.rho_opt_closed(float(c)) for c in cs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_global_minimum_sits_slightly_past_c_eighth(self):
        # the minimum over c is NOT 25/217 at c = 1/8: the curve keeps
        # falling to RHO_MIN at C_RHO_MIN before turning around.
        # The sweep confirms the closed form here (see test_matches_sweep),
        # so this dip is a property of the curve itself.
        cs = np.linspace(0.120, 0.145, 20001)
        vals = np.array([cf.rho_opt_closed(float(c)) for c in cs])
        i = int(np.argmin(vals))
        assert cs[i] == pytest.approx(cf.C_RHO_MIN, abs=1e-6)
        assert vals[i] == pytest.approx(cf.RHO_MIN, abs=1e-11)

    def test_dip_region_agrees_with_sweep(self):
        res = one_stage_optimum(make_operator("pressure_block", c=0.1295))
        assert res.rho_opt == pytest.approx(cf.rho_opt_closed(0.1295), abs=1e-9)
        assert res.rho_opt < 25 / 217


def _mp_extremes(c):
    """(s_max, s_min) at mpmath's working precision, from the rational eigenvalue.

    s_max sits at the origin and s_min at the diagonal critical point, the
    root of d/ds projected_eigenvalue_s(s, s, c); none of the surd closed
    forms is used.
    """
    mp = pytest.importorskip("mpmath")
    lam = cf.projected_eigenvalue_s
    s = mp.findroot(lambda u: mp.diff(lambda v: lam(v, v, c), u), mp.mpf("0.3"))
    assert 0 <= s <= 0.5
    return lam(0, 0, c), lam(s, s, c)


def _mp_rho_opt(c):
    s_max, s_min = _mp_extremes(c)
    return (s_max - s_min) / (2 - s_max - s_min)


class TestDip:
    def test_constants_rederived_at_40_digits(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            tabulated = mp.mpf(25) / 217
            c_min = mp.findroot(lambda c: mp.diff(_mp_rho_opt, c), mp.mpf("0.13"))
            c_end = mp.findroot(lambda c: _mp_rho_opt(c) - tabulated, mp.mpf("0.14"))
            assert abs(_mp_rho_opt(mp.mpf(1) / 8) - tabulated) <= mp.mpf("1e-35")
            assert abs(c_min - cf.C_RHO_MIN) <= 1e-12
            assert abs(_mp_rho_opt(c_min) - cf.RHO_MIN) <= 1e-12
            assert abs(c_end - cf.C_DIP_END) <= 1e-12

    def test_still_falling_at_c_eighth(self):
        # so 25/217 = rho_opt(1/8) cannot be the minimum over c
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            assert mp.diff(_mp_rho_opt, mp.mpf(1) / 8) < 0

    def test_closed_forms_accurate_next_to_c_eighth(self):
        # the conjugate-surd forms lost up to 9e-7 here to cancellation
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for side in (-1.0, 1.0):
                for gap in np.logspace(-6, -3, 7):
                    c = 0.125 + side * float(gap)
                    s_max, s_min = _mp_extremes(mp.mpf(c))
                    rho = (s_max - s_min) / (2 - s_max - s_min)
                    omega = 2 / (2 - s_max - s_min)
                    assert abs(cf.rho_opt_closed(c) - rho) <= 1e-12, c
                    assert abs(cf.omega_opt_closed(c) - omega) <= 1e-12, c

    def test_sweep_reaches_the_minimum(self):
        res = one_stage_optimum(make_operator("pressure_block", c=cf.C_RHO_MIN))
        assert res.rho_opt == pytest.approx(cf.RHO_MIN, abs=1e-9)
