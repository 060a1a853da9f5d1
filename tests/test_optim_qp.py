"""Tests for the active-set and ADMM QP solvers.

Both solvers are validated on hand-checkable problems, against each other,
and against KKT optimality conditions on random strictly convex QPs.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import InfeasibleProblemError
from repro.optim import (
    boxed_constraints,
    find_feasible_point,
    solve_qp,
    solve_qp_admm,
)


def _random_qp(seed, n=6, m_eq=2, m_ineq=4):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    P = M @ M.T + n * np.eye(n)
    q = rng.normal(size=n)
    A_eq = rng.normal(size=(m_eq, n))
    x_feas = rng.normal(size=n)
    b_eq = A_eq @ x_feas
    A_ineq = rng.normal(size=(m_ineq, n))
    b_ineq = A_ineq @ x_feas + rng.uniform(0.1, 2.0, size=m_ineq)
    return P, q, A_eq, b_eq, A_ineq, b_ineq


class TestActiveSet:
    def test_unconstrained(self):
        P = np.diag([2.0, 4.0])
        q = np.array([-2.0, -4.0])
        res = solve_qp(P, q)
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-10)

    def test_equality_only(self):
        # min x1^2 + x2^2  s.t. x1 + x2 = 2  ->  (1, 1)
        res = solve_qp(2 * np.eye(2), np.zeros(2), A_eq=[[1, 1]], b_eq=[2])
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)

    def test_inactive_inequality(self):
        # Same as above, inequality x1 <= 10 never binds.
        res = solve_qp(2 * np.eye(2), np.zeros(2), A_eq=[[1, 1]], b_eq=[2],
                       A_ineq=[[1, 0]], b_ineq=[10])
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)
        assert res.dual_ineq[0] == pytest.approx(0.0, abs=1e-9)

    def test_active_inequality(self):
        # min (x-3)^2  s.t. x <= 1  ->  x = 1, multiplier 4
        res = solve_qp([[2.0]], [-6.0], A_ineq=[[1.0]], b_ineq=[1.0])
        assert res.success
        assert res.x[0] == pytest.approx(1.0, abs=1e-9)
        assert res.dual_ineq[0] == pytest.approx(4.0, abs=1e-7)

    def test_nocedal_wright_example(self):
        # N&W example 16.4: min (x1-1)^2 + (x2-2.5)^2
        P = 2 * np.eye(2)
        q = np.array([-2.0, -5.0])
        A_ineq = np.array([[-1.0, 2.0], [1.0, 2.0], [1.0, -2.0],
                           [-1.0, 0.0], [0.0, -1.0]])
        b_ineq = np.array([2.0, 6.0, 2.0, 0.0, 0.0])
        res = solve_qp(P, q, A_ineq=A_ineq, b_ineq=b_ineq)
        assert res.success
        np.testing.assert_allclose(res.x, [1.4, 1.7], atol=1e-8)

    def test_infeasible(self):
        with pytest.raises(InfeasibleProblemError):
            solve_qp(np.eye(1), np.zeros(1),
                     A_ineq=[[1.0], [-1.0]], b_ineq=[-2.0, 1.0])

    def test_warm_start_feasible(self):
        P, q, A_eq, b_eq, A_ineq, b_ineq = _random_qp(3)
        feas = find_feasible_point(q.size, A_eq, b_eq, A_ineq, b_ineq)
        res = solve_qp(P, q, A_eq, b_eq, A_ineq, b_ineq, x0=feas)
        assert res.success

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_kkt_conditions_on_random_qps(self, seed):
        P, q, A_eq, b_eq, A_ineq, b_ineq = _random_qp(seed)
        res = solve_qp(P, q, A_eq, b_eq, A_ineq, b_ineq)
        assert res.success
        x = res.x
        # Primal feasibility
        np.testing.assert_allclose(A_eq @ x, b_eq, atol=1e-6)
        assert np.all(A_ineq @ x <= b_ineq + 1e-6)
        # Stationarity: Px + q + A_eq' nu + A_ineq' lam = 0
        grad = P @ x + q + A_eq.T @ res.dual_eq + A_ineq.T @ res.dual_ineq
        np.testing.assert_allclose(grad, 0.0, atol=1e-5)
        # Dual feasibility and complementary slackness
        assert np.all(res.dual_ineq >= -1e-7)
        slack = b_ineq - A_ineq @ x
        assert np.all(np.abs(res.dual_ineq * slack) <= 1e-5)


class TestADMM:
    def test_unconstrained(self):
        res = solve_qp_admm(np.diag([2.0, 4.0]), np.array([-2.0, -4.0]))
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)

    def test_box_constraint(self):
        # min (x-3)^2 s.t. 0 <= x <= 1 -> 1
        res = solve_qp_admm([[2.0]], [-6.0], A=[[1.0]], l=[0.0], u=[1.0])
        assert res.success
        assert res.x[0] == pytest.approx(1.0, abs=1e-5)

    def test_equality_via_tight_box(self):
        res = solve_qp_admm(2 * np.eye(2), np.zeros(2),
                            A=[[1.0, 1.0]], l=[2.0], u=[2.0])
        assert res.success
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.just(6))
    @example(seed=1, n=45)      # a solver-sized QP beyond the drawn one
    def test_agrees_with_active_set(self, seed, n):
        P, q, A_eq, b_eq, A_ineq, b_ineq = _random_qp(seed, n=n)
        ref = solve_qp(P, q, A_eq, b_eq, A_ineq, b_ineq)
        A, low, high = boxed_constraints(q.size, A_eq, b_eq, A_ineq, b_ineq)
        res = solve_qp_admm(P, q, A, low, high)
        assert res.success
        assert res.fun == pytest.approx(ref.fun, rel=1e-4, abs=1e-5)
        np.testing.assert_allclose(res.x, ref.x, atol=1e-3)


def test_boxed_constraints_shapes():
    A, low, high = boxed_constraints(3, A_eq=[[1, 0, 0]], b_eq=[1],
                                     A_ineq=[[0, 1, 0], [0, 0, 1]],
                                     b_ineq=[2, 3])
    assert A.shape == (3, 3)
    np.testing.assert_allclose(low, [1, -np.inf, -np.inf])
    np.testing.assert_allclose(high, [1, 2, 3])


def test_boxed_constraints_empty():
    A, low, high = boxed_constraints(4)
    assert A.shape == (0, 4)
    assert low.size == 0 and high.size == 0
