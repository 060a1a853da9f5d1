"""Tests for the Sec. IV-A state-space cost model builder."""

import numpy as np
import pytest

from repro.control import is_controllable
from repro.core import CostModelBuilder
from repro.exceptions import ModelError
from repro.sim import paper_cluster

PRICES_6H = np.array([43.26, 30.26, 19.06])


@pytest.fixture
def builder():
    return CostModelBuilder(paper_cluster())


class TestMatrices:
    def test_a_matrix_structure(self, builder):
        A = builder.a_matrix(PRICES_6H)
        assert A.shape == (4, 4)
        np.testing.assert_allclose(A[0, 1:], PRICES_6H / 3600.0)
        assert np.all(A[1:] == 0.0)

    def test_b_matrix_block_structure(self, builder):
        B = builder.b_matrix()
        assert B.shape == (4, 15)
        # row 0 (cost) has no direct input
        assert np.all(B[0] == 0.0)
        # row j+1 touches only block j, with b1_j scaled to MW
        b1 = [idc.config.power_model.b1 for idc in builder.cluster.idcs]
        for j in range(3):
            block = B[j + 1, j * 5:(j + 1) * 5]
            np.testing.assert_allclose(block, b1[j] * 1e-6)
            rest = np.delete(B[j + 1], np.s_[j * 5:(j + 1) * 5])
            assert np.all(rest == 0.0)

    def test_f_matrix_diagonal(self, builder):
        F = builder.f_matrix()
        assert F.shape == (4, 3)
        assert np.all(F[0] == 0.0)
        np.testing.assert_allclose(np.diag(F[1:]), 150.0 * 1e-6)

    def test_lambda_selector(self, builder):
        S = builder.lambda_selector()
        u = np.arange(15.0)
        lam = S @ u
        np.testing.assert_allclose(
            lam, builder.cluster.idc_workloads(u))

    def test_w_matrix_selects_energies(self, builder):
        W = builder.w_matrix()
        assert W.shape == (3, 4)
        np.testing.assert_array_equal(W[:, 0], 0.0)
        np.testing.assert_array_equal(W[:, 1:], np.eye(3))


class TestControllability:
    def test_workload_loop_controllability_condition(self, builder):
        """The paper's claim: controllable since Pr_j > 0 and b1 > 0."""
        A = builder.a_matrix(PRICES_6H)
        B = builder.b_matrix()
        assert is_controllable(A, B)

    def test_zero_price_breaks_cost_coupling(self, builder):
        # With all prices zero the cost state cannot be influenced.
        A = builder.a_matrix(np.zeros(3))
        B = builder.b_matrix()
        assert not is_controllable(A, B)


class TestAssembledModels:
    def test_cost_rate_uses_accumulated_energy(self, builder):
        sys = builder.continuous(PRICES_6H)
        x = np.array([0.0, 3600.0, 0.0, 0.0])  # E1 = 1 MWh
        dx = sys.derivative(x, np.zeros(15))
        assert dx[0] == pytest.approx(43.26)  # $/MWh * 1 MWh per... eq 17

    def test_sleep_substituted_mode_includes_idle_power(self, builder):
        sys = builder.continuous(PRICES_6H)
        u = np.zeros(15)
        u[0] = 1000.0
        dx = sys.derivative(np.zeros(4), u)
        # relaxed m = lambda/mu + 1/(mu D) = 500 + 500
        expected = (67.5 * 1000 + 150.0 * (1000 / 2.0 + 500.0)) / 1e6
        assert dx[1] == pytest.approx(expected)

    def test_sleep_substituted_offset(self, builder):
        sys = builder.continuous(PRICES_6H)
        # with zero workload each IDC still burns 1/(mu D) idle servers
        dx = sys.derivative(np.zeros(4), np.zeros(15))
        mins = [1.0 / (idc.config.service_rate * idc.config.latency_bound)
                for idc in builder.cluster.idcs]
        np.testing.assert_allclose(dx[1:], [m * 150.0 / 1e6 for m in mins])
        assert dx[0] == 0.0  # no accumulated energy yet -> no cost rate

    def test_discretization_consistency(self, builder):
        dsys = builder.discrete(PRICES_6H, dt=30.0)
        u = np.zeros(15)
        u[5] = 2000.0  # portal 1 -> IDC 2
        x1 = dsys.step(np.zeros(4), u)
        # energy increment = power * dt, with the relaxed eq. 36 servers
        idc = builder.cluster.idcs[1].config
        m = 2000.0 / idc.service_rate \
            + 1.0 / (idc.service_rate * idc.latency_bound)
        p2 = (108.0 * 2000 + 150.0 * m) / 1e6
        assert x1[2] == pytest.approx(p2 * 30.0, rel=1e-9)

    def test_powers_mw_helper(self, builder):
        u = np.zeros(15)
        u[0] = 1000.0
        p = builder.powers_mw(u, [100, 0, 0])
        assert p[0] == pytest.approx((67.5 * 1000 + 150 * 100) / 1e6)
        np.testing.assert_allclose(p[1:], 0.0)

    def test_validation(self, builder):
        with pytest.raises(ModelError):
            builder.a_matrix([1.0])
        with pytest.raises(ModelError):
            builder.continuous([1.0, 2.0])
        with pytest.raises(ModelError):
            builder.discrete([1.0], dt=30.0)
        with pytest.raises(ModelError):
            builder.powers_mw(np.zeros(15), [-1.0, 0, 0])
        with pytest.raises(ModelError):
            builder.initial_state(energies_mws=[1.0])

    def test_initial_state(self, builder):
        x = builder.initial_state(cost=5.0, energies_mws=[1.0, 2.0, 3.0])
        np.testing.assert_allclose(x, [5.0, 1.0, 2.0, 3.0])
