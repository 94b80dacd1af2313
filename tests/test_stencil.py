import math
import pickle
import warnings

import numpy as np
import pytest

from stokesmg.mgsolver import homogeneous_problem
from stokesmg.stencil import (Frequency, OPERATOR_KINDS, Stencil2D, apply_stencil,
                              make_operator, reduce_angle, symbol, symbol_grid)

PI = math.pi


class TestFrequency:
    def test_normalizes_into_half_open_box(self):
        f = Frequency(3 * PI / 2, -3 * PI / 2)
        assert f.theta1 == pytest.approx(-PI / 2, abs=1e-15)
        assert f.theta2 == pytest.approx(PI / 2, abs=1e-15)

    def test_boundary_convention(self):
        assert reduce_angle(PI) == PI
        assert reduce_angle(-PI) == PI
        assert reduce_angle(3 * PI) == pytest.approx(PI, abs=1e-15)

    def test_is_low(self):
        assert Frequency(PI / 2, PI / 2).is_low()
        assert not Frequency(-PI / 2, 0.0).is_low()  # half-open on the left
        assert not Frequency(PI, 0.0).is_low()

    def test_values_in_range_pass_through_exactly(self):
        f = Frequency(PI / 2, -PI / 4)
        assert f.theta1 == PI / 2
        assert f.theta2 == -PI / 4


class TestMakeOperator:
    def test_laplacian_entries(self):
        lap = make_operator("laplacian", h=1.0)
        assert lap.entries[(0, 0)] == 4.0
        for off in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert lap.entries[off] == -1.0
        assert len(lap.entries) == 5

    def test_pressure_block_center(self):
        pb = make_operator("pressure_block", h=1.0, c=0.125)
        assert pb.center == pytest.approx(20 * 0.125 + 1, abs=1e-15)

    def test_ddx_half_mesh(self):
        d = make_operator("ddx", h=0.5)
        assert d.entries[(-1, 0)] == -1.0
        assert d.entries[(1, 0)] == 1.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown operator"):
            make_operator("upwind")

    def test_missing_c(self):
        with pytest.raises(ValueError, match="requires the stabilization"):
            make_operator("pressure_block")

    def test_stencil_without_center_refused(self):
        with pytest.raises(ValueError, match=r"center offset \(0, 0\)"):
            Stencil2D({(1, 0): 1.0, (-1, 0): -1.0}, "no center")

    def test_nonpositive_mesh(self):
        for h in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="mesh size"):
                make_operator("laplacian", h=h)

    def test_nonpositive_c(self):
        for c in (-1.0, math.nan, math.inf):
            for kind in ("pressure_block", "laplacian"):
                with pytest.raises(ValueError, match="positive"):
                    make_operator(kind, c=c)

    def test_non_finite_coefficient_names_its_offset(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=r"offset \(1, -1\) is .*not finite"):
                Stencil2D({(0, 0): 1.0, (1, -1): bad}, "bad")
        # 20c overflows although c is finite
        with pytest.raises(ValueError, match=r"offset \(0, 0\) is inf"):
            make_operator("pressure_block", c=1e308)
        with pytest.raises(ValueError, match=r"offset \(0, 0\) is inf"):
            make_operator("biharmonic", h=1e-80)

    def test_refusal_names_kind_h_and_c(self):
        with pytest.raises(ValueError, match=r"^pressure_block at h = 0\.125, c = 1e\+308: "
                                             r"stencil coefficient at offset \(0, 0\) is inf"):
            make_operator("pressure_block", h=0.125, c=1e308)
        with pytest.raises(ValueError, match=r"^biharmonic at h = 1e-80: stencil coefficient"):
            make_operator("biharmonic", h=1e-80)
        # c h^2 underflows to 0 where the biharmonic part overflows: still
        # an overflow, not 0 * inf = nan
        with pytest.raises(ValueError, match=r"^pressure_block at h = 1e-77, c = 1e-260: "
                                             r"stencil coefficient at offset \(0, 0\) is inf"):
            make_operator("pressure_block", h=1e-77, c=1e-260)

    def test_scaling_out_of_range(self):
        # h**2 underflows to 0 or overflows: an error, not an arithmetic exception
        for kind, h in (("laplacian", 1e-200), ("pressure_block", 1e-200),
                        ("laplacian", 1e200), ("biharmonic", 1e100)):
            with pytest.raises(ValueError, match="mesh size .* out of range"):
                make_operator(kind, h=h, c=1.0)
        # each kind scales by its own power of h only
        assert make_operator("ddx", h=1e-200).entries[(1, 0)] == 5e199

    def test_numpy_scalars_refused_as_python_floats(self):
        # numpy scalar arithmetic warns on overflow; the refusal must not,
        # and must read as it does for a Python float
        calls = [(r"offset \(0, 0\) is inf",
                  lambda: make_operator("pressure_block", c=np.float64(1e308))),
                 ("mesh size 1e-200 is out of range",
                  lambda: make_operator("laplacian", h=np.float64(1e-200))),
                 (r"offset \(0, 0\) is inf", lambda: homogeneous_problem(7, np.float64(1e308)))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for message, call in calls:
                with pytest.raises(ValueError, match=message):
                    call()
        # the conversion is exact: every coefficient keeps its bits
        for h, c in ((0.25, 0.125), (1 / 512, 1e150), (0.1, 1e-300)):
            mine = make_operator("pressure_block", h=np.float64(h), c=np.float64(c))
            theirs = make_operator("pressure_block", h=h, c=c)
            assert [v.hex() for v in mine.entries.values()] == \
                [v.hex() for v in theirs.entries.values()]


# The tables earlier versions typed by hand, and the scaling they applied;
# stencil.py now builds both from the Laplacian.
_BIHARMONIC = {(0, 0): 20.0,
               (1, 0): -8.0, (-1, 0): -8.0, (0, 1): -8.0, (0, -1): -8.0,
               (1, 1): 2.0, (1, -1): 2.0, (-1, 1): 2.0, (-1, -1): 2.0,
               (2, 0): 1.0, (-2, 0): 1.0, (0, 2): 1.0, (0, -2): 1.0}
_LAPLACIAN_2H = {(0, 0): 4.0, (2, 0): -1.0, (-2, 0): -1.0, (0, 2): -1.0, (0, -2): -1.0}
POWERS_OF_TWO = [2.0**-k for k in range(13)]


def _bits(entries):
    return [(off, val.hex()) for off, val in entries.items()]


def _conv(a, b):
    """The stencil product: offsets add, coefficients multiply and sum."""
    out = {}
    for (a1, a2), u in a.items():
        for (b1, b2), w in b.items():
            out[a1 + b1, a2 + b2] = out.get((a1 + b1, a2 + b2), 0.0) + u * w
    return out


def _add(*stencils):
    out = {}
    for s in stencils:
        for off, val in s.items():
            out[off] = out.get(off, 0.0) + val
    return out


def _scaled(entries, f):
    return {off: f * val for off, val in entries.items()}


def _nonzero(entries):
    return {off: val for off, val in entries.items() if val != 0.0}


class TestOneDefinition:
    """biharmonic and laplacian_2h are built from the Laplacian, and the
    pressure block from those two kinds, each scaled as on its own."""

    @pytest.mark.parametrize("h", POWERS_OF_TWO + [0.1, 1 / 3, 0.7, 1e-3, 1e3])
    def test_built_tables_match_the_typed_ones(self, h):
        bih = {off: val * (1.0 / (1.0 * h**4)) for off, val in _BIHARMONIC.items()}
        wide = {off: val * (1.0 / (4.0 * h**2)) for off, val in _LAPLACIAN_2H.items()}
        assert _bits(make_operator("biharmonic", h=h).entries) == _bits(bih)
        assert _bits(make_operator("laplacian_2h", h=h).entries) == _bits(wide)

    @pytest.mark.parametrize("h", [0.7, 1 / 3, 1e-3, 1.0, 2.0**-9])
    def test_pressure_block_is_composed_from_its_kinds(self, h):
        bih = make_operator("biharmonic", h=h).entries
        wide = make_operator("laplacian_2h", h=h).entries
        for c in (1 / 16, 1 / 8, 1.0, 10.0):
            want = _add(_scaled(bih, c * h**2), wide)
            assert _bits(make_operator("pressure_block", h=h, c=c).entries) == _bits(want)

    @pytest.mark.parametrize("h", POWERS_OF_TWO)
    def test_pressure_block_keeps_its_bits_at_powers_of_two(self, h):
        # the block as earlier versions scaled it, with its own expressions
        for c in (0.005, 1 / 16, 1 / 8, 1.0, 10.0, 1e150):
            want = {off: c * h**2 * val / h**4 for off, val in _BIHARMONIC.items()}
            for off, val in _LAPLACIAN_2H.items():
                want[off] = want.get(off, 0.0) + val / (4.0 * h**2)
            assert _bits(make_operator("pressure_block", h=h, c=c).entries) == _bits(want)

    @pytest.mark.parametrize("h", [1.0, 1 / 16])
    def test_pressure_row_of_l_times_m(self, h):
        # L = (lap, 0, dx; 0, lap, dy; dx, dy, c h^2 lap), the distribution
        # M = (I, 0, -dx; 0, I, -dy; 0, 0, lap); every product is exact here
        c = 1 / 8
        lap, dx, dy = (dict(make_operator(kind, h=h).entries)
                       for kind in ("laplacian", "ddx", "ddy"))
        zero, eye = {}, {(0, 0): 1.0}
        L = [[lap, zero, dx], [zero, lap, dy], [dx, dy, _scaled(lap, c * h**2)]]
        M = [[eye, zero, _scaled(dx, -1.0)], [zero, eye, _scaled(dy, -1.0)], [zero, zero, lap]]
        LM = [[_add(*(_conv(L[i][k], M[k][j]) for k in range(3))) for j in range(3)]
              for i in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 2)):
            assert _nonzero(LM[i][j]) == {}
        assert _nonzero(LM[0][0]) == lap and _nonzero(LM[1][1]) == lap
        assert _nonzero(LM[2][0]) == _nonzero(dx) and _nonzero(LM[2][1]) == _nonzero(dy)
        # the two parts of the pressure row, and their sum
        assert _nonzero(_conv(lap, lap)) == make_operator("biharmonic", h=h).entries
        assert _nonzero(_scaled(_add(_conv(dx, dx), _conv(dy, dy)), -1.0)) == \
            make_operator("laplacian_2h", h=h).entries
        assert _nonzero(LM[2][2]) == make_operator("pressure_block", h=h, c=c).entries


class TestSymbol:
    def test_laplacian_kernel_mode(self):
        assert symbol(make_operator("laplacian"), Frequency(0, 0)) == 0

    def test_laplacian_checkerboard(self):
        val = symbol(make_operator("laplacian"), Frequency(PI, PI))
        assert val == pytest.approx(8.0, abs=1e-12)

    def test_ddx_quarter_mode(self):
        val = symbol(make_operator("ddx"), Frequency(PI / 2, 0))
        assert val == pytest.approx(1j, abs=1e-12)

    def test_pressure_block_checkerboard(self):
        val = symbol(make_operator("pressure_block", c=0.125), Frequency(PI, PI))
        assert val == pytest.approx(8.0, abs=1e-12)

    def test_laplacian_closed_form(self):
        lap = make_operator("laplacian", h=0.25)
        rng = np.random.default_rng(3)
        for t1, t2 in rng.uniform(-PI, PI, size=(50, 2)):
            want = (4 - 2 * math.cos(t1) - 2 * math.cos(t2)) / 0.25**2
            assert symbol(lap, Frequency(t1, t2)) == pytest.approx(want, abs=1e-12)

    def test_biharmonic_is_squared_laplacian(self):
        lap = make_operator("laplacian")
        bih = make_operator("biharmonic")
        rng = np.random.default_rng(4)
        t1, t2 = rng.uniform(-PI, PI, size=(2, 40))
        assert np.abs(symbol_grid(bih, t1, t2)
                      - symbol_grid(lap, t1, t2) ** 2).max() < 1e-12

    def test_wide_laplacian_from_first_derivatives(self):
        wide = make_operator("laplacian_2h")
        dx = make_operator("ddx")
        dy = make_operator("ddy")
        rng = np.random.default_rng(5)
        t1, t2 = rng.uniform(-PI, PI, size=(2, 40))
        want = -symbol_grid(dx, t1, t2) ** 2 - symbol_grid(dy, t1, t2) ** 2
        assert np.abs(symbol_grid(wide, t1, t2) - want).max() < 1e-12


# Referee for symbol_grid: the per-entry sum it replaced, one exp of the
# full broadcast shape per stencil entry.
def _reference_symbol_grid(s, t1, t2):
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    out = np.zeros(np.broadcast(t1, t2).shape, dtype=complex)
    for (k1, k2), coef in s.entries.items():
        out += coef * np.exp(1j * (t1 * k1 + t2 * k2))
    return out


def _random_stencil(seed):
    """A stencil on a random subset of the offsets [-2, 2]^2, center included."""
    rng = np.random.default_rng(seed)
    offsets = [(k1, k2) for k1 in range(-2, 3) for k2 in range(-2, 3)]
    keep = rng.random(len(offsets)) < 0.6
    entries = {off: float(rng.standard_normal()) for off, k in zip(offsets, keep)
               if k or off == (0, 0)}
    return Stencil2D(entries, f"random{seed}")


class TestSymbolMatchesReferee:
    """Per-axis phase tables give the per-entry sum to rounding."""

    STENCILS = [make_operator(kind, h=0.5, c=0.3) if kind == "pressure_block"
                else make_operator(kind, h=0.5) for kind in OPERATOR_KINDS]
    STENCILS += [_random_stencil(seed) for seed in range(12)]

    @staticmethod
    def _check(s, t1, t2):
        got = symbol_grid(s, t1, t2)
        want = _reference_symbol_grid(s, t1, t2)
        assert got.shape == want.shape and got.dtype == complex
        bound = 1e-13 * sum(abs(coef) for coef in s.entries.values())
        assert np.abs(got - want).max() <= bound

    @pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
    def test_scalars(self, s):
        rng = np.random.default_rng(len(s.entries))
        for t1, t2 in rng.uniform(-PI, PI, size=(20, 2)):
            self._check(s, t1, t2)
        assert symbol(s, Frequency(0.3, -1.1)) == symbol_grid(s, 0.3, -1.1)

    @pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
    def test_axes(self, s):
        ax1 = np.linspace(-PI / 2, PI / 2, 33)
        ax2 = np.random.default_rng(7).uniform(-PI, PI, 21)
        self._check(s, ax1[:, None], ax2[None, :])
        self._check(s, ax1[None, :], ax2[:, None])

    @pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
    def test_full_arrays(self, s):
        rng = np.random.default_rng(11)
        t1, t2 = rng.uniform(-PI, PI, size=(2, 9, 14))
        self._check(s, t1, t2)
        self._check(s, t1, 0.7)
        self._check(s, t1[0], t2)


# Referee for symbol_grid's bits: the row-grouped sum it replaced, which
# regroups the entries by k1 and builds the k2 phase tables on every call.
def _row_grouped_symbol_grid(s, t1, t2):
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    rows = {}
    for (k1, k2), coef in s.entries.items():
        rows.setdefault(k1, []).append((k2, coef))
    phase2 = {k2: np.exp(1j * k2 * t2) for k2 in {k2 for k1, k2 in s.entries}}
    out = np.zeros(np.broadcast(t1, t2).shape, dtype=complex)
    for k1, row in rows.items():
        row_sum = sum(coef * phase2[k2] for k2, coef in row)
        out += np.exp(1j * k1 * t1) * row_sum
    return out


class TestSymbolBitIdentical:
    """The construction-time plan gives the row-grouped sum bit for bit."""

    SKEW = Stencil2D({(0, 0): 2.5, (1, 0): -0.75, (0, -1): 0.4, (-2, 1): 0.3,
                      (1, 2): -0.2, (-1, -1): 0.05}, "skew")
    STENCILS = TestSymbolMatchesReferee.STENCILS + [SKEW]

    @staticmethod
    def _check(s, t1, t2):
        got = symbol_grid(s, t1, t2)
        want = _row_grouped_symbol_grid(s, t1, t2)
        assert np.shape(got) == np.shape(want) and got.dtype == complex
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
    def test_scalars_and_axes(self, s):
        rng = np.random.default_rng(len(s.entries))
        for t1, t2 in rng.uniform(-PI, PI, size=(10, 2)):
            self._check(s, t1, t2)
        self._check(s, PI, PI)
        ax1 = np.linspace(-PI / 2, PI / 2, 33)
        ax2 = rng.uniform(-PI, PI, 21)
        self._check(s, ax1[:, None], ax2[None, :])
        self._check(s, ax1[None, :], ax2[:, None])
        self._check(s, ax1, 0.7)

    # the lockstep refine's stacked windows: pair x live searches x 17 x 17
    @pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
    @pytest.mark.parametrize("k", [1, 2])
    def test_stacked_windows(self, s, k):
        rng = np.random.default_rng(k)
        t1 = rng.uniform(-PI, PI, (2, k, 17, 1))
        t2 = rng.uniform(-PI, PI, (2, k, 1, 17))
        self._check(s, t1, t2)

    # the 257-point lattice with each base frequency's aliasing partner
    @pytest.mark.parametrize("s", STENCILS, ids=lambda s: s.name)
    def test_pair_lattice(self, s):
        ax = np.linspace(-PI / 2, PI / 2, 257)
        self._check(s, np.stack((ax, ax + PI))[:, :, None],
                    np.stack((ax, ax + PI))[:, None, :])


class TestEntriesReadOnly:
    def test_item_assignment_raises(self):
        lap = make_operator("laplacian")
        with pytest.raises(TypeError):
            lap.entries[(0, 0)] = 5.0
        with pytest.raises(TypeError):
            del lap.entries[(1, 0)]

    def test_mapping_reads_still_work(self):
        given = {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0}
        s = Stencil2D(given, "row")
        given[(0, 1)] = -1.0  # a later change to the dict given does not reach s
        assert len(s.entries) == 3 and list(s.entries) == [(0, 0), (1, 0), (-1, 0)]
        assert s.entries[(1, 0)] == -1.0 and s.entries.get((0, 1)) is None
        assert s.entries == {(0, 0): 4.0, (1, 0): -1.0, (-1, 0): -1.0}
        assert s == Stencil2D(dict(s.entries), "row")
        assert pickle.loads(pickle.dumps(s)) == s

    def test_plan_is_read_only(self):
        plan = make_operator("pressure_block", c=0.3).plan
        for a in (plan.coefs, plan.ik1, plan.ik2, plan.cols, plan.row_coefs):
            assert not a.flags.writeable


class TestApply:
    def test_laplacian_annihilates_constants(self):
        lap = make_operator("laplacian")
        g = np.ones((7, 7))
        assert apply_stencil(lap, g, (3, 3)) == 0.0

    def test_ddx_exact_on_linear(self):
        d = make_operator("ddx", h=1.0)
        g = np.fromfunction(lambda i, j: i * 1.0, (7, 7))
        assert apply_stencil(d, g, (3, 4)) == pytest.approx(1.0, abs=1e-14)

    def test_biharmonic_annihilates_quadratics(self):
        # independent check: brute-force stencil sum over the raw entries
        bih = make_operator("biharmonic")
        g = np.fromfunction(lambda i, j: (i - 4.0) ** 2, (9, 9))
        brute = sum(coef * g[4 + k1, 4 + k2] for (k1, k2), coef in bih.entries.items())
        assert brute == pytest.approx(0.0, abs=1e-11)
        assert apply_stencil(bih, g, (4, 4)) == pytest.approx(brute, abs=1e-12)

    def test_out_of_range_raises(self):
        lap = make_operator("laplacian")
        g = np.zeros((5, 5))
        with pytest.raises(IndexError):
            apply_stencil(lap, g, (0, 2))
        with pytest.raises(IndexError):
            apply_stencil(lap, g, (4, 2))


def test_symbol_consistency_on_modes():
    # applying the stencil to the complex mode multiplies it by the symbol
    rng = np.random.default_rng(11)
    n = 12
    k1, k2 = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    for kind, c in (("laplacian", None), ("ddx", None), ("biharmonic", None),
                    ("pressure_block", 0.3)):
        s = make_operator(kind, h=1.0, c=c)
        for _ in range(8):
            j1, j2 = rng.integers(0, n, size=2)
            theta = Frequency(2 * PI * j1 / n, 2 * PI * j2 / n)
            mode = np.exp(1j * (theta.theta1 * k1 + theta.theta2 * k2))
            for point in ((4, 5), (2, 7), (6, 3)):
                applied = apply_stencil(s, mode, point)
                want = symbol(s, theta) * mode[point]
                assert abs(applied - want) < 1e-12 * max(1.0, abs(symbol(s, theta)))


@pytest.mark.parametrize("kind,factor", [
    ("laplacian", 0.25), ("laplacian_2h", 0.25), ("biharmonic", 1.0 / 16.0),
    ("ddx", 0.5), ("ddy", 0.5),
])
def test_mesh_scaling_exact(kind, factor):
    fine = make_operator(kind, h=0.5)
    coarse = make_operator(kind, h=1.0)
    for off, val in fine.entries.items():
        assert coarse.entries[off] == factor * val


def test_pressure_block_scaling_second_order():
    # c h^2 * (1/h^4) and 1/(4 h^2) both scale like a second-order operator
    fine = make_operator("pressure_block", h=0.5, c=0.7)
    coarse = make_operator("pressure_block", h=1.0, c=0.7)
    for off, val in fine.entries.items():
        assert coarse.entries[off] == pytest.approx(0.25 * val, rel=1e-15)


def test_all_kinds_buildable():
    for kind in OPERATOR_KINDS:
        c = 0.5 if kind == "pressure_block" else None
        s = make_operator(kind, h=0.1, c=c)
        assert (0, 0) in s.entries
