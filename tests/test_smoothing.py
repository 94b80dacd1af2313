import math
import tracemalloc

import numpy as np
import pytest

from stokesmg import closedform as cf, smoothing
from stokesmg.harmonics import (harmonics_of, jacobi_symbol, projected_eigenvalue_grid,
                                two_color_rep)
from stokesmg.smoothing import (SweepConfig, one_stage_optimum, optimal_one_stage,
                                smoothing_factor)
from stokesmg.stencil import Frequency, Stencil2D, make_operator

PI = math.pi

FAST = SweepConfig(n_samples_per_axis=65)


class TestProjectedEigenvalues:
    # diag(0,1) @ rep has a zero first row, so its nonzero eigenvalue is rep[1, 1]
    def test_poisson_formula_in_s(self):
        lap = make_operator("laplacian")
        rng = np.random.default_rng(1)
        for _ in range(30):
            base = Frequency(rng.uniform(-PI / 2, PI / 2), rng.uniform(-PI / 2, PI / 2))
            s1, s2 = base.s_coordinates()
            lam = two_color_rep(lap, harmonics_of(base))[1, 1]
            want = 0.5 * (s1 + s2) * (s1 + s2 - 1)
            assert lam == pytest.approx(want, abs=1e-12)

    def test_poisson_worst_low_mode(self):
        lap = make_operator("laplacian")
        lam = two_color_rep(lap, harmonics_of(Frequency(0, PI / 2)))[1, 1]
        assert lam == pytest.approx(-0.125, abs=1e-12)


class TestOptimalOneStage:
    def test_poisson_values(self):
        omega, rho = optimal_one_stage(0.0, -0.125)
        assert omega == pytest.approx(16 / 17, abs=1e-15)
        assert rho == pytest.approx(1 / 17, abs=1e-15)

    def test_pressure_c_eighth_values(self):
        # direct arithmetic on the optimum formula; 98/217 is off by x2
        omega, rho = optimal_one_stage(1 / 49, -23 / 98)
        assert omega == pytest.approx(28 / 31, abs=1e-15)
        assert rho == pytest.approx(25 / 217, abs=1e-15)
        assert abs(omega - 98 / 217) > 0.4

    def test_degenerate(self):
        assert optimal_one_stage(0.0, 0.0) == (1.0, 0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            optimal_one_stage(-0.5, 0.5)  # s_min > s_max
        # the message lists the values in the order its condition names them
        with pytest.raises(ValueError, match=r"s_min <= s_max < 1, got \(0\.0, 1\.0\)"):
            optimal_one_stage(1.0, 0.0)
        with pytest.raises(ValueError):
            optimal_one_stage(0.0, -1.0)


class TestSweepExtrema:
    def test_poisson(self):
        ext = one_stage_optimum(make_operator("laplacian"))
        assert ext.s_max == pytest.approx(0.0, abs=1e-9)
        assert ext.s_min == pytest.approx(-0.125, abs=1e-9)
        # the maximum ridge is s1 + s2 in {0, 1}
        s1, s2 = ext.argmax_freq.s_coordinates()
        assert min(abs(s1 + s2), abs(s1 + s2 - 1)) < 1e-4
        s1, s2 = ext.argmin_freq.s_coordinates()
        assert s1 + s2 == pytest.approx(0.5, abs=1e-4)

    def test_pressure_c_eighth(self):
        ext = one_stage_optimum(make_operator("pressure_block", c=1 / 8))
        assert ext.s_max == pytest.approx(1 / 49, abs=1e-6)
        assert ext.s_min == pytest.approx(-23 / 98, abs=1e-6)
        # the interior minimizer sits at s1 = s2 = 5/16
        s1, s2 = ext.argmin_freq.s_coordinates()
        assert s1 == pytest.approx(5 / 16, abs=1e-5)
        assert s2 == pytest.approx(5 / 16, abs=1e-5)

    def test_pressure_c_one_matches_closed_form(self):
        ext = one_stage_optimum(make_operator("pressure_block", c=1.0))
        assert ext.s_min == pytest.approx(cf.eigenvalue_at_critical(1.0), abs=1e-6)
        assert ext.s_max == pytest.approx(cf.eigenvalue_at_origin(1.0), abs=1e-6)

    def test_refinement_makes_grids_agree(self):
        pb = make_operator("pressure_block", c=1 / 8)
        a = one_stage_optimum(pb, SweepConfig(n_samples_per_axis=129))
        b = one_stage_optimum(pb, SweepConfig(n_samples_per_axis=257))
        assert a.s_max == pytest.approx(b.s_max, abs=1e-9)
        assert a.s_min == pytest.approx(b.s_min, abs=1e-9)

    @pytest.mark.parametrize("n", [129, 257])
    def test_refine_reaches_the_closed_form_to_rounding(self, n):
        # stopping at a window spacing of sqrt(eps) leaves the optimum at
        # rounding (4e-16 here); a stop 100x looser, at 1e-5, reads 3e-13
        worst = 0.0
        for c in np.logspace(-3, 3, 25):
            got = one_stage_optimum(make_operator("pressure_block", c=c), SweepConfig(n))
            worst = max(worst, abs(got.rho_opt - cf.rho_opt_closed(c)),
                        abs(got.omega_opt - cf.omega_opt_closed(c)))
        assert worst <= 2e-15

    def test_unrefined_grid_is_only_coarsely_accurate(self):
        # the c = 1/8 minimizer is off-lattice; the 257-point lattice alone
        # misses it by ~7e-6, and the refine recovers it
        pb = make_operator("pressure_block", c=1 / 8)
        ax = np.linspace(-PI / 2, PI / 2, 257)
        raw = projected_eigenvalue_grid(pb, ax[:, None], ax[None, :]).real.min()
        assert 1e-6 < abs(raw + 23 / 98) < 1e-4
        refined = one_stage_optimum(pb, SweepConfig(n_samples_per_axis=257))
        assert refined.s_min == pytest.approx(-23 / 98, abs=1e-9)

    def test_refine_stops_at_its_fixed_point(self, monkeypatch):
        # an edge round that does not improve would repeat itself; running
        # such rounds on to REFINE_ROUNDS took 110 evaluations here.  The
        # two extrema refine in lockstep, where one search after the other
        # took 53 evaluations; with the stop at REFINE_MIN_WIDTH the
        # lattice and 19 windows take 20 here
        calls = []

        def counted(*args):
            calls.append(args)
            return projected_eigenvalue_grid(*args)

        monkeypatch.setattr(smoothing, "projected_eigenvalue_grid", counted)
        one_stage_optimum(make_operator("pressure_block", c=0.125), FAST)
        assert len(calls) <= 20

    def test_peak_memory_of_the_lattice_search(self):
        # the 257x257 lattice costs about 1 MB per complex array; one
        # lattice-sized table per stencil entry (13 of them) would take
        # 13.7 MB, and the whole lattice in one field call about 4.5 MB.
        # In row blocks the search needs about 1.7 MB
        op = make_operator("pressure_block", c=0.125)
        tracemalloc.start()
        try:
            one_stage_optimum(op, SweepConfig(257))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6

    def test_complex_spectrum_rejected(self):
        upwind = Stencil2D({(0, 0): 1.0, (1, 0): -1.0}, "upwind")
        for cfg in (FAST, SweepConfig(257)):
            with pytest.raises(ValueError, match="imaginary"):
                one_stage_optimum(upwind, cfg)

    def test_nan_imaginary_part_reported_as_non_finite(self):
        # NaN compares false with the tolerance, so a plain "> IMAG_TOL"
        # test would pass it through as a real value
        values = np.array([0.5 + 0j, complex(0.25, math.nan)])
        with pytest.raises(ValueError, match="non-finite imaginary part nan"):
            smoothing._real_checked(values, "field")
        # finite coefficients whose symbol sums overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite imaginary part"):
                one_stage_optimum(make_operator("pressure_block", c=5e306), FAST)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(n_samples_per_axis=1)

    @pytest.mark.parametrize("n", [65.0, np.float64(65.0), True, "65"],
                             ids=["float", "numpy float", "bool", "str"])
    def test_config_refuses_a_non_integer_sample_count(self, n):
        # 65.0 was accepted and failed later, inside np.linspace
        with pytest.raises(ValueError, match="integer number of samples"):
            SweepConfig(n)
        assert SweepConfig(np.int64(65)).n_samples_per_axis == 65


# Referee for the extremum searches: the sequential refine they replaced,
# one pattern search per extremum, on a field whose pair members come
# from one jacobi_symbol call each.

def _reference_field(s, t1, t2):
    a0 = jacobi_symbol(s, t1, t2)
    a1 = jacobi_symbol(s, np.asarray(t1) + PI, np.asarray(t2) + PI)
    return 0.25 * ((1 - a0) * (a1 - 1) + (a1 + 1) ** 2)


def _reference_refine(field, t1, t2, width, best, sign):
    pts = smoothing.REFINE_POINTS
    w = width
    for _ in range(smoothing.REFINE_ROUNDS):
        lo1, hi1 = max(t1 - w, -PI / 2), min(t1 + w, PI / 2)
        lo2, hi2 = max(t2 - w, -PI / 2), min(t2 + w, PI / 2)
        xs = np.linspace(lo1, hi1, pts)
        ys = np.linspace(lo2, hi2, pts)
        vals = sign * field(xs[:, None], ys[None, :])
        i = int(np.argmax(vals))
        row, col = i // pts, i % pts
        improved = vals.flat[i] > sign * best
        if improved:
            best = sign * vals.flat[i]
            t1, t2 = float(xs[row]), float(ys[col])
        on_window_edge = ((row == 0 and lo1 > -PI / 2)
                          or (row == pts - 1 and hi1 < PI / 2)
                          or (col == 0 and lo2 > -PI / 2)
                          or (col == pts - 1 and hi2 < PI / 2))
        if not on_window_edge:
            w /= 2.0
            if w < smoothing.REFINE_MIN_WIDTH:
                break
        elif not improved:
            break
    return best, t1, t2


def _reference_extremum(field, vals, ax, sign):
    i = int(np.argmax(sign * vals))
    best, t1, t2 = vals.flat[i], float(ax[i // len(ax)]), float(ax[i % len(ax)])
    return _reference_refine(field, t1, t2, float(ax[1] - ax[0]), best, sign)


def _reference_one_stage_optimum(s, cfg):
    ax = np.linspace(-PI / 2, PI / 2, cfg.n_samples_per_axis)

    def field(t1, t2):
        return smoothing._real_checked(_reference_field(s, t1, t2), "projected eigenvalue")

    vals = field(ax[:, None], ax[None, :])
    s_max, tmax1, tmax2 = _reference_extremum(field, vals, ax, +1.0)
    s_min, tmin1, tmin2 = _reference_extremum(field, vals, ax, -1.0)
    s_max, s_min = float(s_max), float(s_min)
    omega, rho = optimal_one_stage(s_max, s_min)
    return smoothing.OneStageResult(s_max, s_min, omega, rho, Frequency(tmax1, tmax2),
                                    Frequency(tmin1, tmin2))


def _reference_smoothing_factor(s, omega, cfg):
    ax = np.linspace(-PI / 2, PI / 2, cfg.n_samples_per_axis)

    def field(t1, t2):
        return np.abs((1.0 - omega) + omega * _reference_field(s, t1, t2))

    best, t1, t2 = _reference_extremum(field, field(ax[:, None], ax[None, :]), ax, +1.0)
    return float(best), Frequency(t1, t2)


class TestSearchesMatchSequentialReferee:
    """The lockstep refine visits the windows of the sequential one, bit for bit."""

    OPERATORS = ([make_operator("pressure_block", c=c) for c in np.logspace(-3, 3, 13)]
                 + [make_operator(kind) for kind in ("laplacian", "biharmonic",
                                                     "laplacian_2h")])

    @pytest.mark.parametrize("n", [65, 129, 257])
    def test_bit_identical(self, n):
        cfg = SweepConfig(n)
        for s in self.OPERATORS:
            try:
                want = _reference_one_stage_optimum(s, cfg)
            except ValueError as err:  # extremes outside (-1, 1)
                with pytest.raises(ValueError) as got:
                    one_stage_optimum(s, cfg)
                assert str(got.value) == str(err)
                omega = 0.8
            else:
                assert one_stage_optimum(s, cfg) == want, s
                omega = want.omega_opt
            got = smoothing_factor(s, omega, cfg)
            assert (got.rho, got.worst_freq) == _reference_smoothing_factor(s, omega, cfg), s


class TestSmoothingFactor:
    def test_poisson_optimal(self):
        rep = smoothing_factor(make_operator("laplacian"), 16 / 17)
        assert rep.rho == pytest.approx(1 / 17, abs=1e-6)

    def test_poisson_undamped(self):
        rep = smoothing_factor(make_operator("laplacian"), 1.0)
        assert rep.rho == pytest.approx(0.125, abs=1e-9)

    def test_pressure_c_eighth_optimal(self):
        pb = make_operator("pressure_block", c=1 / 8)
        rep = smoothing_factor(pb, 28 / 31)
        assert rep.rho == pytest.approx(25 / 217, abs=1e-6)
        # the alternative candidate is far from optimal
        assert smoothing_factor(pb, 98 / 217, cfg=FAST).rho > rep.rho + 0.2

    def test_optimum_is_local_minimum_in_omega(self):
        for s, omega in ((make_operator("laplacian"), 16 / 17),
                         (make_operator("pressure_block", c=0.2),
                          cf.omega_opt_closed(0.2))):
            here = smoothing_factor(s, omega, cfg=FAST).rho
            assert here <= smoothing_factor(s, omega + 0.05, cfg=FAST).rho + 1e-12
            assert here <= smoothing_factor(s, omega - 0.05, cfg=FAST).rho + 1e-12

    def test_matches_damped_extremes(self):
        # |(1 - omega) + omega * s| is convex in s, so its supremum over the
        # box is taken at one of the extremes s_max, s_min of the search
        for c in (0.02, 0.3, 10.0):
            pb = make_operator("pressure_block", c=c)
            res = one_stage_optimum(pb, FAST)
            for omega in (0.5, 0.9, res.omega_opt, 1.3, 1.8):
                want = max(abs(1 - omega + omega * res.s_max),
                           abs(1 - omega + omega * res.s_min))
                assert smoothing_factor(pb, omega, FAST).rho == pytest.approx(want, abs=1e-9)

    def test_validation(self):
        lap = make_operator("laplacian")
        for omega in (0.0, 2.5):
            with pytest.raises(ValueError):
                smoothing_factor(lap, omega)


class TestEquioscillation:
    @pytest.mark.parametrize("c", [0.02, 1 / 16, 1 / 8, 1.0, 10.0])
    def test_damped_extremes_balance(self, c):
        res = one_stage_optimum(make_operator("pressure_block", c=c), FAST)
        # the damped sweep's eigenvalue is (1 - omega) + omega * s
        hi = abs(1 - res.omega_opt + res.omega_opt * res.s_max)
        lo = abs(1 - res.omega_opt + res.omega_opt * res.s_min)
        assert hi == pytest.approx(lo, abs=1e-9)
        assert hi == pytest.approx(res.rho_opt, abs=1e-9)


class TestStokesSmoothing:
    # the transformed system decouples into two Poisson blocks and the
    # pressure block; the system factor is the larger block factor
    @pytest.mark.parametrize("c", [0.01, 1 / 27, 1 / 16, 1 / 8, 1.0, 10.0, 1000.0])
    def test_pressure_block_dominates(self, c):
        pressure = one_stage_optimum(make_operator("pressure_block", c=c), FAST).rho_opt
        assert pressure > one_stage_optimum(make_operator("laplacian"), FAST).rho_opt

    def test_zone_membership(self):
        def rho(c):
            return one_stage_optimum(make_operator("pressure_block", c=c), FAST).rho_opt
        assert 25 / 217 < rho(10.0) <= 11 / 43 + 1e-9
        assert 25 / 217 < rho(0.01) < 1.0


def test_one_stage_optimum_consistency():
    res = one_stage_optimum(make_operator("laplacian"))
    omega, rho = optimal_one_stage(res.s_max, res.s_min)
    assert res.omega_opt == omega and res.rho_opt == rho
    assert res.omega_opt == pytest.approx(16 / 17, abs=1e-9)
