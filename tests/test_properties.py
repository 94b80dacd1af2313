"""Property tests of the multigrid solver (hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stokesmg import mgsolver
from stokesmg.closedform import OMEGA_AT_C_EIGHTH
from stokesmg.mgsolver import distributive_two_color_sweep, manufactured_problem, prolong, restrict

log_c = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def state_diff(a, b):
    return max(np.abs(a.u - b.u).max(), np.abs(a.v - b.v).max(),
               np.abs(a.p - b.p).max())


@settings(max_examples=25, deadline=None)
@given(log10_c=log_c, n=st.sampled_from([7, 15, 31]))
def test_manufactured_state_is_fixed_point_of_both_sweeps(log10_c, n):
    prob, exact = manufactured_problem(n, 10.0 ** log10_c)
    full = distributive_two_color_sweep(prob, exact, OMEGA_AT_C_EIGHTH)
    band = distributive_two_color_sweep(prob, exact, 1.0, point_mask=mgsolver._band_mask(n))
    assert state_diff(full, exact) <= 1e-12
    assert state_diff(band, exact) <= 1e-12


def _prolongation_matrix(nc):
    """Columns: interior of prolong applied to each coarse unit vector (zero ring)."""
    cols = []
    for k in range(nc * nc):
        e = np.zeros((nc + 2, nc + 2))
        e[1 + k // nc, 1 + k % nc] = 1.0
        cols.append(prolong(e)[1:-1, 1:-1].ravel())
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
    got = restrict(fine)[1:-1, 1:-1].ravel()
    assert np.allclose(got, want, rtol=0.0, atol=1e-12 * (1.0 + np.abs(fine).max()))
