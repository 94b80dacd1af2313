"""Property tests of the multigrid solver and the LFA oracle (hypothesis)."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stokesmg import mgsolver
from stokesmg.closedform import OMEGA_AT_C_EIGHTH
from stokesmg.harmonics import harmonics_of, numerical_lfa_oracle, two_color_rep
from stokesmg.mgsolver import distributive_two_color_sweep, manufactured_problem, prolong, restrict
from stokesmg.stencil import Frequency, make_operator

log_c = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def state_diff(a, b):
    return max(np.abs(a.u - b.u).max(), np.abs(a.v - b.v).max(),
               np.abs(a.p - b.p).max())


@settings(max_examples=25, deadline=None)
@given(log10_c=log_c, n=st.sampled_from([7, 15, 31]))
def test_manufactured_state_is_fixed_point_of_both_sweeps(log10_c, n):
    prob, exact = manufactured_problem(n, 10.0 ** log10_c)
    full = distributive_two_color_sweep(prob, exact.copy(), OMEGA_AT_C_EIGHTH)
    band = distributive_two_color_sweep(prob, exact.copy(), 1.0,
                                        point_mask=mgsolver._band_mask(n))
    assert state_diff(full, exact) <= 1e-12
    assert state_diff(band, exact) <= 1e-12


def _prolongation_matrix(nc):
    """Columns: interior of prolong applied to each coarse unit vector (zero ring)."""
    cols = []
    for k in range(nc * nc):
        e = np.zeros((nc + 2, nc + 2))
        e[1 + k // nc, 1 + k % nc] = 1.0
        cols.append(prolong(e, np.zeros((2 * nc + 3, 2 * nc + 3)))[1:-1, 1:-1].ravel())
    return np.column_stack(cols)


_P = {nc: _prolongation_matrix(nc) for nc in (3, 7)}


@st.composite
def fine_grids(draw):
    n = draw(st.sampled_from([7, 15]))
    return draw(hnp.arrays(np.float64, (n + 2, n + 2),
                           elements=st.floats(-1e3, 1e3, allow_nan=False)))


@settings(max_examples=25, deadline=None)
@given(fine=fine_grids())
def test_restriction_is_quarter_transpose_of_prolongation(fine):
    nc = (fine.shape[0] - 1) // 2 - 1
    want = 0.25 * _P[nc].T @ fine[1:-1, 1:-1].ravel()
    got = restrict(fine, np.zeros((nc + 2, nc + 2)))[1:-1, 1:-1].ravel()
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * (1.0 + np.abs(fine).max()))


ORACLE_GRID = 32
# lattice indices of the base frequencies in the low box (-pi/2, pi/2]
lattice_index = st.integers(-ORACLE_GRID // 4 + 1, ORACLE_GRID // 4)


@settings(max_examples=25, deadline=None)
@given(log10_c=log_c, j1=lattice_index, j2=lattice_index)
def test_periodic_oracle_matches_two_color_rep(log10_c, j1, j2):
    s = make_operator("pressure_block", c=10.0 ** log10_c)
    step = 2.0 * math.pi / ORACLE_GRID
    pair = harmonics_of(Frequency(step * j1, step * j2))
    oracle = numerical_lfa_oracle(s, pair, ORACLE_GRID)
    assert np.abs(oracle - two_color_rep(s, pair)).max() <= 1e-10
