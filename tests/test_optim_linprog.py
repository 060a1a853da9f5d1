"""Tests for the revised-simplex LP solver against scipy and by hand."""

import numpy as np
import pytest
import scipy.optimize as sopt
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError, UnboundedProblemError
from repro.optim import linprog


def test_simple_2d_lp():
    # min -x - 2y  s.t. x + y <= 4, x <= 2, x,y >= 0  -> (0, 4), obj -8
    res = linprog(c=[-1, -2], A_ub=[[1, 1], [1, 0]], b_ub=[4, 2])
    assert res.success
    assert res.fun == pytest.approx(-8.0, abs=1e-8)
    np.testing.assert_allclose(res.x, [0.0, 4.0], atol=1e-8)


def test_equality_constraint():
    # min x + y s.t. x + y = 3, x,y >= 0 -> obj 3
    res = linprog(c=[1, 1], A_eq=[[1, 1]], b_eq=[3])
    assert res.success
    assert res.fun == pytest.approx(3.0, abs=1e-9)
    assert np.all(res.x >= -1e-12)
    assert res.x.sum() == pytest.approx(3.0)


def test_upper_bounds_become_active():
    # min -x  s.t. 0 <= x <= 5  -> x = 5
    res = linprog(c=[-1.0], bounds=[(0, 5)])
    assert res.success
    assert res.x[0] == pytest.approx(5.0)


def test_free_variable_split():
    # min x s.t. x >= -7 expressed via free var + inequality
    res = linprog(c=[1.0], A_ub=[[-1.0]], b_ub=[7.0], bounds=[(None, None)])
    assert res.success
    assert res.x[0] == pytest.approx(-7.0)


def test_shifted_lower_bound():
    # min x s.t. x >= 2.5
    res = linprog(c=[1.0], bounds=[(2.5, None)])
    assert res.success
    assert res.x[0] == pytest.approx(2.5)


def test_infeasible_raises():
    with pytest.raises(InfeasibleProblemError):
        linprog(c=[1], A_eq=[[1]], b_eq=[-1])  # x = -1 with x >= 0


def test_unbounded_raises():
    with pytest.raises(UnboundedProblemError):
        linprog(c=[-1], bounds=[(0, None)])


def test_degenerate_problem_terminates():
    # Classic degeneracy example: multiple constraints meeting at a vertex.
    c = [-0.75, 150, -0.02, 6]
    A_ub = [
        [0.25, -60, -0.04, 9],
        [0.5, -90, -0.02, 3],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0, 0, 1]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub)
    ref = sopt.linprog(c, A_ub=A_ub, b_ub=b_ub, method="highs")
    assert res.success and ref.success
    assert res.fun == pytest.approx(ref.fun, abs=1e-7)


def test_matches_scipy_on_allocation_shaped_lp():
    """An LP with the exact structure of the paper's reference problem."""
    rng = np.random.default_rng(7)
    n_portal, n_idc = 4, 3
    prices = rng.uniform(10, 90, n_idc)
    b1 = 0.05
    loads = rng.uniform(100, 500, n_portal)
    caps = rng.uniform(800, 1500, n_idc)
    nvar = n_portal * n_idc
    c = np.repeat(prices * b1, n_portal)
    A_eq = np.zeros((n_portal, nvar))
    for i in range(n_portal):
        for j in range(n_idc):
            A_eq[i, j * n_portal + i] = 1.0
    A_ub = np.zeros((n_idc, nvar))
    for j in range(n_idc):
        A_ub[j, j * n_portal:(j + 1) * n_portal] = 1.0
    res = linprog(c, A_ub=A_ub, b_ub=caps, A_eq=A_eq, b_eq=loads)
    ref = sopt.linprog(c, A_ub=A_ub, b_ub=caps, A_eq=A_eq, b_eq=loads,
                       method="highs")
    assert res.success and ref.success
    assert res.fun == pytest.approx(ref.fun, rel=1e-8)
    np.testing.assert_allclose(A_eq @ res.x, loads, atol=1e-7)
    assert np.all(A_ub @ res.x <= caps + 1e-7)


def test_redundant_equality_rows():
    # Duplicated equality row must not break phase 1 cleanup.
    res = linprog(c=[1, 1], A_eq=[[1, 1], [1, 1]], b_eq=[2, 2])
    assert res.success
    assert res.fun == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 5),
    m=st.integers(1, 4),
    seed=st.integers(0, 10_000),
)
@example(n=30, m=20, seed=0)    # a solver-sized LP beyond the drawn range
def test_random_lps_match_scipy(n, m, seed):
    """Random bounded-feasible LPs agree with scipy's HiGHS solver."""
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(m, n))
    x_feas = rng.uniform(0.1, 1.0, size=n)
    b_ub = A_ub @ x_feas + rng.uniform(0.1, 1.0, size=m)
    bounds = [(0, 10)] * n  # compact => always solvable
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    ref = sopt.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    assert res.success and ref.success
    assert res.fun == pytest.approx(ref.fun, rel=1e-6, abs=1e-6)
    assert np.all(A_ub @ res.x <= b_ub + 1e-6)
    assert np.all(res.x >= -1e-9) and np.all(res.x <= 10 + 1e-9)
