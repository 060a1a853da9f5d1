"""Tests for the reference LP (Sec. IV-D) and constraint builders."""

import numpy as np
import pytest
import scipy.optimize as sopt

from repro.core import (
    BudgetViolation,
    budget_violations,
    build_constraints,
    capacity_matrix,
    capacity_rhs,
    clamp_powers,
    conservation_matrix,
    normalize_budgets,
    solve_optimal_allocation,
)
from repro.exceptions import InfeasibleProblemError, ModelError
from repro.sim import PAPER_BUDGETS_WATTS, paper_cluster

PRICES_6H = np.array([43.26, 30.26, 19.06])
PRICES_7H = np.array([49.90, 29.47, 77.97])
LOADS = np.array([30000.0, 15000.0, 15000.0, 20000.0, 20000.0])


class TestConstraintBuilders:
    def test_conservation_matrix(self):
        cluster = paper_cluster()
        H = conservation_matrix(cluster)
        assert H.shape == (5, 15)
        u = cluster.matrix_to_vector(np.outer(LOADS, [0.5, 0.3, 0.2]))
        np.testing.assert_allclose(H @ u, LOADS)

    def test_capacity_matrix(self):
        cluster = paper_cluster()
        Psi = capacity_matrix(cluster)
        u = np.ones(15)
        np.testing.assert_allclose(Psi @ u, [5.0, 5.0, 5.0])

    def test_capacity_rhs_defaults_to_fleet(self):
        cluster = paper_cluster()
        phi = capacity_rhs(cluster)
        np.testing.assert_allclose(phi, [59000.0, 49000.0, 34000.0])

    def test_build_constraints_shapes(self):
        cluster = paper_cluster()
        cs = build_constraints(cluster, LOADS)
        assert cs.A_eq.shape == (5, 15)
        assert cs.A_ineq.shape == (3, 15)
        assert cs.lower == 0.0

    def test_build_constraints_validation(self):
        cluster = paper_cluster()
        with pytest.raises(ModelError):
            build_constraints(cluster, np.ones(3))
        with pytest.raises(ModelError):
            build_constraints(cluster, -np.ones(5))
        with pytest.raises(ModelError):
            build_constraints(cluster, np.ones((2, 3)))


class TestReferenceLP:
    def test_conservation_and_capacity_hold(self):
        cluster = paper_cluster()
        alloc = solve_optimal_allocation(cluster, PRICES_6H, LOADS)
        np.testing.assert_allclose(alloc.lambda_matrix.sum(axis=1), LOADS,
                                   atol=1e-5)
        caps = capacity_rhs(cluster)
        assert np.all(alloc.idc_workloads <= caps + 1e-6)
        assert np.all(alloc.u >= -1e-9)

    def test_6h_optimum_fills_cheapest_per_request_first(self):
        """At 6H Wisconsin (19.06 $/MWh) is cheapest per request and
        must be saturated; Minnesota (highest marginal cost) gets the
        remainder."""
        cluster = paper_cluster()
        alloc = solve_optimal_allocation(cluster, PRICES_6H, LOADS)
        lam = alloc.idc_workloads
        assert lam[2] == pytest.approx(34000.0, abs=1.0)  # WI saturated
        assert lam[0] == pytest.approx(59000.0, abs=1.0)  # MI saturated
        assert lam[1] == pytest.approx(7000.0, abs=1.0)   # MN remainder

    def test_7h_optimum_abandons_wisconsin(self):
        """The 19.06 -> 77.97 spike drives Wisconsin's load to zero."""
        cluster = paper_cluster()
        alloc = solve_optimal_allocation(cluster, PRICES_7H, LOADS)
        assert alloc.idc_workloads[2] == pytest.approx(0.0, abs=1.0)
        # MN is now cheapest per request: saturated
        assert alloc.idc_workloads[1] == pytest.approx(49000.0, abs=1.0)

    def test_matches_scipy_linprog(self):
        cluster = paper_cluster()
        for prices in (PRICES_6H, PRICES_7H):
            alloc = solve_optimal_allocation(cluster, prices, LOADS)
            # rebuild the same LP with scipy to cross-check the optimum
            n, c = 3, 5
            b1 = np.array([i.config.power_model.b1 for i in cluster.idcs])
            b0 = np.full(3, 150.0)
            mu = np.array([i.config.service_rate for i in cluster.idcs])
            cost = np.concatenate([np.repeat(prices * b1, c),
                                   prices * b0])
            A_eq = np.zeros((c, n * c + n))
            for i in range(c):
                for j in range(n):
                    A_eq[i, j * c + i] = 1.0
            A_ub = np.zeros((n, n * c + n))
            for j in range(n):
                A_ub[j, j * c:(j + 1) * c] = 1.0
                A_ub[j, n * c + j] = -mu[j]
            b_ub = -np.array([1000.0, 1000.0, 1000.0])
            bounds = [(0, None)] * (n * c) + [
                (0, i.config.max_servers) for i in cluster.idcs]
            ref = sopt.linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                               b_eq=LOADS, bounds=bounds, method="highs")
            assert ref.success
            ours = float(np.sum(prices * alloc.powers_watts_relaxed))
            assert ours == pytest.approx(ref.fun, rel=1e-8)

    def test_integer_servers_cover_workload(self):
        cluster = paper_cluster()
        alloc = solve_optimal_allocation(cluster, PRICES_6H, LOADS)
        for idc, lam, m in zip(cluster.idcs, alloc.idc_workloads,
                               alloc.servers):
            assert m >= idc.servers_for(lam) - 1  # ceil of the relaxed m
            assert m <= idc.config.max_servers

    def test_budget_rows_respected(self):
        cluster = paper_cluster()
        alloc = solve_optimal_allocation(cluster, PRICES_7H, LOADS,
                                         budgets_watts=PAPER_BUDGETS_WATTS)
        assert np.all(alloc.powers_watts_relaxed
                      <= PAPER_BUDGETS_WATTS * (1 + 1e-9))

    def test_budget_aware_costs_more(self):
        cluster = paper_cluster()
        free = solve_optimal_allocation(cluster, PRICES_7H, LOADS)
        capped = solve_optimal_allocation(cluster, PRICES_7H, LOADS,
                                          budgets_watts=PAPER_BUDGETS_WATTS)
        assert capped.cost_rate_usd_per_hour >= free.cost_rate_usd_per_hour

    def test_infeasible_when_overloaded(self):
        cluster = paper_cluster()
        huge = LOADS * 10
        with pytest.raises(InfeasibleProblemError):
            solve_optimal_allocation(cluster, PRICES_6H, huge)

    def test_infeasible_when_budgets_too_tight(self):
        cluster = paper_cluster()
        with pytest.raises(InfeasibleProblemError):
            solve_optimal_allocation(cluster, PRICES_6H, LOADS,
                                     budgets_watts=[1e5, 1e5, 1e5])

    def test_input_validation(self):
        cluster = paper_cluster()
        with pytest.raises(ModelError):
            solve_optimal_allocation(cluster, PRICES_6H[:2], LOADS)
        with pytest.raises(ModelError):
            solve_optimal_allocation(cluster, PRICES_6H, LOADS[:3])
        with pytest.raises(ModelError):
            solve_optimal_allocation(cluster, PRICES_6H, -LOADS)
        with pytest.raises(ModelError):
            solve_optimal_allocation(cluster, PRICES_6H, LOADS,
                                     budgets_watts=[1e6])


class TestPeakShaving:
    def test_normalize_budgets(self):
        np.testing.assert_allclose(normalize_budgets(None, 3),
                                   [np.inf] * 3)
        np.testing.assert_allclose(normalize_budgets(5.0, 2), [5.0, 5.0])
        np.testing.assert_allclose(normalize_budgets([1.0, None], 2),
                                   [1.0, np.inf])
        with pytest.raises(ModelError):
            normalize_budgets([1.0], 2)
        with pytest.raises(ModelError):
            normalize_budgets([-1.0, 1.0], 2)

    @pytest.mark.parametrize("bad", [np.nan, 0.0, -1.0])
    def test_normalize_budgets_rejects_nan_and_nonpositive(self, bad):
        # nan <= 0 is false, so NaN used to pass as "no budget"
        with pytest.raises(ModelError, match="positive"):
            normalize_budgets([bad, 1.0], 2)
        with pytest.raises(ModelError, match="positive"):
            normalize_budgets(bad, 2)

    def test_clamp_powers_rule(self):
        out = clamp_powers([6e6, 2e6, 5e6], [5e6, None, 4e6])
        np.testing.assert_allclose(out, [5e6, 2e6, 4e6])

    def test_budget_violations(self):
        v = budget_violations([6e6, 2e6], [5e6, 5e6])
        assert len(v) == 1
        assert isinstance(v[0], BudgetViolation)
        assert v[0].idc_index == 0
        assert v[0].excess_watts == pytest.approx(1e6)
        assert v[0].excess_fraction == pytest.approx(0.2)

    def test_no_violations_without_budgets(self):
        assert budget_violations([1e9, 1e9], None) == []
