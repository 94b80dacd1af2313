import math
import re
import warnings

import numpy as np
import pytest

import stokesmg
from stokesmg import closedform as cf
from stokesmg import harmonics, mgsolver
from stokesmg.stencil import Frequency, Stencil2D, make_operator
from stokesmg.harmonics import (_color_plan, harmonics_of, jacobi_symbol,
                                numerical_lfa_oracle, periodic_two_color_sweep,
                                projected_eigenvalue_grid, rep_grid, two_color_rep)

PI = math.pi
OMEGA_8 = cf.OMEGA_AT_C_EIGHTH


def lattice_low_frequency(rng, n_grid):
    """Random base frequency on the n_grid sampling lattice, inside the low box."""
    j1 = int(rng.integers(-n_grid // 4 + 1, n_grid // 4 + 1))
    j2 = int(rng.integers(-n_grid // 4 + 1, n_grid // 4 + 1))
    return Frequency(2 * PI * j1 / n_grid, 2 * PI * j2 / n_grid)


class TestHarmonicsOf:
    def test_zero_base(self):
        pair = harmonics_of(Frequency(0, 0))
        assert pair.base.as_tuple() == (0, 0)
        assert pair.high.theta1 == pytest.approx(PI, abs=1e-15)
        assert pair.high.theta2 == pytest.approx(PI, abs=1e-15)

    def test_corner_base_wraps(self):
        pair = harmonics_of(Frequency(PI / 2, PI / 2))
        assert pair.high.theta1 == pytest.approx(-PI / 2, abs=1e-12)
        assert pair.high.theta2 == pytest.approx(-PI / 2, abs=1e-12)

    def test_generic_base(self):
        pair = harmonics_of(Frequency(-PI / 4, PI / 3))
        assert pair.high.theta1 == pytest.approx(3 * PI / 4, abs=1e-12)
        assert pair.high.theta2 == pytest.approx(-2 * PI / 3, abs=1e-12)

    def test_rejects_high_base(self):
        with pytest.raises(ValueError, match="outside"):
            harmonics_of(Frequency(3 * PI / 4, 0))


class TestJacobiSymbol:
    def test_kernel_mode(self):
        lap = make_operator("laplacian")
        assert jacobi_symbol(lap, 0.0, 0.0) == 1

    def test_checkerboard(self):
        lap = make_operator("laplacian")
        assert jacobi_symbol(lap, PI, PI) == pytest.approx(-1, abs=1e-12)

    def test_mid_mode(self):
        lap = make_operator("laplacian")
        assert jacobi_symbol(lap, PI / 2, PI / 2) == pytest.approx(0, abs=1e-12)

    def test_zero_center_rejected(self):
        ddx = make_operator("ddx")
        with pytest.raises(ValueError, match="zero center"):
            jacobi_symbol(ddx, 0.3, 0.1)

    def test_vectorized_matches_pointwise(self):
        pb = make_operator("pressure_block", c=0.3)
        t1 = np.linspace(-1.2, 1.5, 5)[:, None]
        t2 = np.linspace(-1.4, 1.1, 4)[None, :]
        grid = jacobi_symbol(pb, t1, t2)
        assert grid.shape == (5, 4)
        for i in range(5):
            for j in range(4):
                assert grid[i, j] == jacobi_symbol(pb, t1[i, 0], t2[0, j])


class TestTwoColorRep:
    def test_poisson_mid_pair_is_zero_matrix(self):
        lap = make_operator("laplacian")
        rep = two_color_rep(lap, harmonics_of(Frequency(PI / 2, PI / 2)))
        assert np.abs(rep).max() < 1e-12

    def test_poisson_zero_pair_entry(self):
        lap = make_operator("laplacian")
        rep = two_color_rep(lap, harmonics_of(Frequency(0, 0)))
        assert rep[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_red_factor_structure(self):
        # the sweep is black @ red with the half-sweep factors
        # red = 1/2 [[a0+1, a1-1], [a0-1, a1+1]] and
        # black = 1/2 [[a0+1, 1-a1], [1-a0, a1+1]]
        rng = np.random.default_rng(2)
        pb = make_operator("pressure_block", c=0.2)
        for _ in range(10):
            pair = harmonics_of(lattice_low_frequency(rng, 64))
            a0 = complex(jacobi_symbol(pb, *pair.base.as_tuple()))
            a1 = complex(jacobi_symbol(pb, *pair.high.as_tuple()))
            red = 0.5 * np.array([[a0 + 1, a1 - 1], [a0 - 1, a1 + 1]])
            black = 0.5 * np.array([[a0 + 1, 1 - a1], [1 - a0, a1 + 1]])
            assert np.abs(black @ red - two_color_rep(pb, pair)).max() < 1e-14

    def test_rep_grid_matches_pair_function(self):
        rng = np.random.default_rng(8)
        pb = make_operator("pressure_block", c=0.08)
        thetas = [lattice_low_frequency(rng, 32) for _ in range(12)]
        t1 = np.array([t.theta1 for t in thetas])
        t2 = np.array([t.theta2 for t in thetas])
        grid = rep_grid(pb, t1, t2)
        for k, th in enumerate(thetas):
            rep = two_color_rep(pb, harmonics_of(th))
            assert np.abs(grid[k] - rep).max() < 1e-13

    def test_projected_entry_equals_rep_corner(self):
        lap = make_operator("laplacian")
        t1 = np.linspace(-1.2, 1.5, 7)
        t2 = np.linspace(-1.4, 1.1, 7)
        grid = rep_grid(lap, t1, t2)
        proj = projected_eigenvalue_grid(lap, t1, t2)
        assert np.abs(grid[..., 1, 1] - proj).max() < 1e-14


def test_oracle_zero_matrix_case():
    lap = make_operator("laplacian")
    pair = harmonics_of(Frequency(PI / 2, PI / 2))
    assert np.abs(numerical_lfa_oracle(lap, pair, 8)).max() < 1e-12


def test_oracle_coarse_grid_zero_base():
    lap = make_operator("laplacian")
    pair = harmonics_of(Frequency(0, 0))
    diff = np.abs(numerical_lfa_oracle(lap, pair, 8) - two_color_rep(lap, pair))
    assert diff.max() < 1e-12


def test_oracle_fine_lattice_pressure_block():
    pb = make_operator("pressure_block", c=1 / 8)
    pair = harmonics_of(Frequency(PI / 4, PI / 4))
    sym = two_color_rep(pb, pair)
    measured = numerical_lfa_oracle(pb, pair, 16)
    assert np.abs(sym - measured).max() < 1e-10


def test_oracle_input_validation():
    lap = make_operator("laplacian")
    pair = harmonics_of(Frequency(PI / 4, 0))
    with pytest.raises(ValueError, match="even"):
        numerical_lfa_oracle(lap, pair, 9)
    off_lattice = harmonics_of(Frequency(0.4, 0))
    with pytest.raises(ValueError, match="not a multiple"):
        numerical_lfa_oracle(lap, off_lattice, 16)


def test_oracle_refuses_a_non_integer_grid():
    # a float grid size of 16 once ran like the integer
    lap = make_operator("laplacian")
    pair = harmonics_of(Frequency(PI / 4, 0))
    for n_grid in (16.0, np.float64(16)):
        with pytest.raises(ValueError, match="even integer"):
            numerical_lfa_oracle(lap, pair, n_grid)
    assert np.array_equal(numerical_lfa_oracle(lap, pair, np.int64(16)),
                          numerical_lfa_oracle(lap, pair, 16))


def test_periodic_sweep_rejects_zero_center():
    ddx = make_operator("ddx")
    with pytest.raises(ValueError, match="zero center"):
        periodic_two_color_sweep(ddx, np.ones((8, 8)))
    with pytest.raises(ValueError, match="zero center"):
        numerical_lfa_oracle(ddx, harmonics_of(Frequency(PI / 4, 0)), 8)


# Referee for periodic_two_color_sweep: the version it replaced, which
# shifts the whole grid by np.roll once per stencil entry.
def _reference_periodic_sweep(s, e):
    k1, k2 = np.ogrid[:e.shape[0], :e.shape[1]]
    red = (k1 + k2) % 2 == 0

    def apply_periodic(g):
        out = np.zeros_like(g)
        for (o1, o2), coef in s.entries.items():
            out += coef * np.roll(g, (-o1, -o2), axis=(0, 1))
        return out

    e = np.where(red, e - apply_periodic(e) / s.center, e)
    return np.where(~red, e - apply_periodic(e) / s.center, e)


class TestPeriodicSweepMatchesReferee:
    """One wrapped gather per application gives the np.roll sweep bit for bit."""

    SKEW = Stencil2D({(0, 0): 2.5, (1, 0): -0.75, (0, -1): 0.4, (-2, 1): 0.3,
                      (1, 2): -0.2, (-1, -1): 0.05}, "skew")

    @pytest.mark.parametrize("s", [make_operator("laplacian", h=0.5),
                                   make_operator("biharmonic", h=0.5),
                                   make_operator("pressure_block", h=0.5, c=0.3),
                                   SKEW], ids=lambda s: s.name)
    # 32 x 32 is the grid of measure_periodic_smoothing and of the oracle
    @pytest.mark.parametrize("shape", [(8, 8), (16, 12), (32, 32)])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_bit_identical(self, s, shape, dtype):
        rng = np.random.default_rng(shape[1])
        e = rng.standard_normal(shape).astype(dtype)
        if dtype is complex:
            e += 1j * rng.standard_normal(shape)
        got = periodic_two_color_sweep(s, e)
        assert got.dtype == e.dtype
        assert np.array_equal(got, _reference_periodic_sweep(s, e))

    def test_plan_is_cached_and_read_only(self):
        offsets = self.SKEW.plan.offsets
        plan = _color_plan(32, 32, offsets)
        assert _color_plan(32, 32, offsets) is plan
        for nodes, nbrs in plan:
            assert not nodes.flags.writeable and not nbrs.flags.writeable

    # reach 1 (the Laplacian) and reach 2 (SKEW)
    @pytest.mark.parametrize("s", [make_operator("laplacian"), SKEW], ids=lambda s: s.name)
    def test_neighbours_are_the_roll_offsets(self, s):
        n1, n2 = 16, 12
        index = np.arange(n1 * n2).reshape(n1, n2)
        (red, red_nbrs), (black, black_nbrs) = _color_plan(n1, n2, s.plan.offsets)
        k1, k2 = np.divmod(index, n2)
        assert np.array_equal(red, index[(k1 + k2) % 2 == 0])
        assert np.array_equal(black, index[(k1 + k2) % 2 == 1])
        for m, (o1, o2) in enumerate(s.entries):
            shifted = np.roll(index, (-o1, -o2), axis=(0, 1)).reshape(-1)
            assert np.array_equal(red_nbrs[m], shifted[red])
            assert np.array_equal(black_nbrs[m], shifted[black])

    def test_dtypes(self):
        s = make_operator("pressure_block", h=0.5, c=0.3)
        e = np.arange(64).reshape(8, 8) % 5
        got = periodic_two_color_sweep(s, e)
        assert got.dtype == np.float64
        assert np.array_equal(got, _reference_periodic_sweep(s, e.astype(float)))
        for dtype in (np.float32, np.float64, np.complex64, np.complex128):
            got = periodic_two_color_sweep(s, e.astype(dtype))
            assert got.dtype == dtype
            assert np.array_equal(got, _reference_periodic_sweep(s, e.astype(dtype)))


class TestPairSymbolsMatchReferee:
    """Both pair members from one symbol call give the two-call values bit for bit."""

    @staticmethod
    def _reference_pair(s, t1, t2):
        return (jacobi_symbol(s, t1, t2),
                jacobi_symbol(s, np.asarray(t1) + PI, np.asarray(t2) + PI))

    @pytest.mark.parametrize("shapes", [((), ()), ((17, 1), (1, 17)), ((9,), (5, 9)),
                                        ((2, 17, 1), (2, 1, 17))], ids=str)
    def test_bit_identical(self, shapes):
        pb = make_operator("pressure_block", c=0.3)
        rng = np.random.default_rng(7)
        t1, t2 = (rng.uniform(-PI / 2, PI / 2, shape) for shape in shapes)
        a0, a1 = self._reference_pair(pb, t1, t2)
        want = 0.25 * ((1 - a0) * (a1 - 1) + (a1 + 1) ** 2)
        got = projected_eigenvalue_grid(pb, t1, t2)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        rep = rep_grid(pb, t1, t2)
        assert rep.shape == np.shape(want) + (2, 2)
        assert np.array_equal(rep[..., 1, 1], want)
        assert np.array_equal(rep[..., 0, 0], 0.25 * ((a0 + 1) ** 2 + (1 - a1) * (a0 - 1)))


def test_mixed_high_pair_rep_and_oracle():
    # pairs whose members are both high (base outside the low box) are
    # also invariant; at base (pi, 0) the pressure-block representation
    # is a multiple of the identity, 3/7 I at c = 1/8, decaying at 15/31
    # per damped sweep
    from stokesmg.harmonics import HarmonicPair
    pb = make_operator("pressure_block", c=1 / 8)
    rep = rep_grid(pb, PI, 0.0)
    assert np.abs(rep - (3 / 7) * np.eye(2)).max() < 1e-12
    omega = 28 / 31
    damped = (1 - omega) * np.eye(2) + omega * rep
    assert damped[0, 0] == pytest.approx(15 / 31, abs=1e-12)

    pair = HarmonicPair(Frequency(PI, 0.0), Frequency(0.0, PI))
    measured = numerical_lfa_oracle(pb, pair, 16)
    assert np.abs(rep - measured).max() < 1e-12


def test_poisson_projected_row_in_s_coordinates():
    # lower row of diag(0,1) @ rep for the Laplacian, in s = sin^2(theta/2)
    lap = make_operator("laplacian")
    rng = np.random.default_rng(31)
    for _ in range(40):
        base = Frequency(rng.uniform(-PI / 2, PI / 2), rng.uniform(-PI / 2, PI / 2))
        s1, s2 = base.s_coordinates()
        rep = two_color_rep(lap, harmonics_of(base))
        want21 = 0.5 * (s1 + s2) * (1 - s1 - s2)
        want22 = 0.5 * (s1 + s2) * (s1 + s2 - 1)
        assert rep[1, 0] == pytest.approx(want21, abs=1e-12)
        assert rep[1, 1] == pytest.approx(want22, abs=1e-12)


def test_periodic_referee_has_one_home():
    # the solver module re-exports the referee only for the benchmark's name
    assert (mgsolver.measure_periodic_smoothing is harmonics.measure_periodic_smoothing
            is stokesmg.measure_periodic_smoothing)


class TestPeriodicSmoothing:
    @pytest.mark.parametrize("omega", [0.0, 2.0, 5.0, -1.0, math.nan])
    def test_damping_outside_range_refused(self, omega):
        pb = make_operator("pressure_block", c=0.125)
        with pytest.raises(ValueError, match=re.escape("must lie in (0, 2), got")):
            harmonics.measure_periodic_smoothing(pb, omega)

    def test_vanishing_error_ends_the_run_without_log_of_zero(self):
        # one sweep with the identity stencil solves exactly: the first
        # ratio is 0 and no ratio precedes it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rho, ratios = harmonics.measure_periodic_smoothing(
                Stencil2D({(0, 0): 1.0}, "identity"), 1.0)
        assert (rho, ratios) == (0.0, [0.0])

    def test_single_pair_matches_prediction(self):
        # seed one harmonic pair and compare the per-sweep damping with
        # the damped projected eigenvalue at that base frequency
        pb = make_operator("pressure_block", c=0.125)
        omega = OMEGA_8
        n_grid = 32
        base = (2 * PI * 2 / n_grid, 2 * PI * 3 / n_grid)
        lam = complex(projected_eigenvalue_grid(pb, *base)).real
        predicted = abs((1 - omega) + omega * lam)

        k1, k2 = np.meshgrid(np.arange(n_grid), np.arange(n_grid), indexing="ij")
        theta = 2 * PI * np.fft.fftfreq(n_grid)
        t1, t2 = np.meshgrid(theta, theta, indexing="ij")
        high = ~(((t1 > -PI / 2) & (t1 <= PI / 2)) & ((t2 > -PI / 2) & (t2 <= PI / 2)))

        def sweep(e):
            return (1 - omega) * e + omega * periodic_two_color_sweep(pb, e)

        e = np.exp(1j * ((base[0] + PI) * k1 + (base[1] + PI) * k2))
        for _ in range(6):
            before = np.linalg.norm(e)
            e = np.fft.ifft2(np.fft.fft2(sweep(e)) * high)
            ratio = np.linalg.norm(e) / before
        assert ratio == pytest.approx(predicted, abs=1e-8)


# Referee for the projection of measure_periodic_smoothing: the FFT mask
# over the high box that its two matrix products replaced.

def _fft_project_to_family_high(e):
    theta = 2 * PI * np.fft.fftfreq(e.shape[0])
    t1, t2 = np.meshgrid(theta, theta, indexing="ij")
    low1 = (t1 > -PI / 2) & (t1 <= PI / 2)
    low2 = (t2 > -PI / 2) & (t2 <= PI / 2)
    return np.fft.ifft2(np.fft.fft2(e) * (~low1 & ~low2))


def _fft_measure_periodic_smoothing(s, omega, seed=0):
    def sweep(e):
        return (1.0 - omega) * e + omega * periodic_two_color_sweep(s, e)

    rng = np.random.default_rng(seed)
    shape = (harmonics.PERIODIC_GRID, harmonics.PERIODIC_GRID)
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    e = _fft_project_to_family_high(noise)
    ratios = []
    norm = np.linalg.norm(e)
    for _ in range(harmonics.PERIODIC_SWEEPS):
        e = _fft_project_to_family_high(sweep(e))
        new = np.linalg.norm(e)
        ratios.append(float(new / norm))
        if new < 1e-200:
            break
        e /= new
        norm = 1.0
    return float(np.exp(np.mean(np.log(ratios[-5:])))), ratios


class TestSeparableProjector:
    def test_matches_fft_mask(self):
        proj = harmonics._high_pair_projector(harmonics.PERIODIC_GRID)
        rng = np.random.default_rng(12)
        for _ in range(5):
            e = rng.standard_normal(proj.shape) + 1j * rng.standard_normal(proj.shape)
            assert np.abs(proj @ e @ proj.T - _fft_project_to_family_high(e)).max() < 1e-13

    @pytest.mark.parametrize("c", [0.003, 1 / 16, 1 / 8, 1.0, 100.0])
    def test_measurement_matches_fft_projection(self, c):
        pb = make_operator("pressure_block", c=c)
        omega = cf.omega_opt_closed(c)
        rho, ratios = harmonics.measure_periodic_smoothing(pb, omega, seed=5)
        want_rho, want_ratios = _fft_measure_periodic_smoothing(pb, omega, seed=5)
        assert abs(rho - want_rho) <= 1e-12
        assert len(ratios) == len(want_ratios)
        assert np.abs(np.subtract(ratios, want_ratios)).max() <= 1e-12
