"""Cache layers of the fast closed loop: correctness and invalidation.

Covers the discretization memo in :class:`CostModelBuilder`, the
horizon reuse in ``update_model``, the constraint-stack
cache in :class:`ModelPredictiveController`, and the :class:`PerfStats`
container.  Every
cache must (a) hit when inputs repeat and (b) miss when any keyed input
actually changes — stale-entry bugs in an MPC are silent wrong answers,
not crashes, so the invalidation side is what these tests guard.
"""

import numpy as np

from repro.control import ModelPredictiveController
from repro.control.horizon import build_horizon
from repro.core import CostModelBuilder, build_constraints
from repro.sim import PerfStats, paper_cluster

PRICES = np.array([43.26, 30.26, 19.06])
LOADS = np.array([30000.0, 15000.0, 15000.0, 20000.0, 20000.0])


# ---------------------------------------------------------------------------
# Discretization cache
# ---------------------------------------------------------------------------
class TestDiscretizationCache:
    def test_repeat_returns_identical_object(self):
        builder = CostModelBuilder(paper_cluster())
        m1 = builder.discrete(PRICES, 30.0)
        m2 = builder.discrete(PRICES, 30.0)
        assert m1 is m2
        assert builder.cache_stats == {"hits": 1, "misses": 1}

    def test_price_change_invalidates(self):
        builder = CostModelBuilder(paper_cluster())
        m1 = builder.discrete(PRICES, 30.0)
        m2 = builder.discrete(PRICES * 2.0, 30.0)
        assert m1 is not m2
        assert not np.array_equal(m1.Phi, m2.Phi)
        assert builder.cache_stats["misses"] == 2

    def test_dt_is_keyed(self):
        builder = CostModelBuilder(paper_cluster())
        base = builder.discrete(PRICES, 30.0)
        assert builder.discrete(PRICES, 60.0) is not base
        assert builder.discrete(PRICES, 30.0) is base

    def test_cache_is_bounded(self):
        builder = CostModelBuilder(paper_cluster())
        builder.cache_size = 4
        for k in range(10):
            builder.discrete(PRICES + k, 30.0)
        assert len(builder._discrete_cache) == 4

    def test_cached_model_matches_fresh_build(self):
        builder = CostModelBuilder(paper_cluster())
        cached = builder.discrete(PRICES, 30.0)
        builder.discrete(PRICES, 30.0)  # hit
        fresh = CostModelBuilder(paper_cluster()).discrete(PRICES, 30.0)
        np.testing.assert_allclose(cached.Phi, fresh.Phi)
        np.testing.assert_allclose(cached.G, fresh.G)
        np.testing.assert_allclose(cached.w, fresh.w)


# ---------------------------------------------------------------------------
# Horizon reuse
# ---------------------------------------------------------------------------
class TestHorizonRefresh:
    def _model(self, prices):
        return CostModelBuilder(paper_cluster()).discrete(prices, 30.0)

    def test_update_model_tiers(self):
        m1 = self._model(PRICES)
        mpc = ModelPredictiveController(m1, 8, 3, r_weight=0.01)
        assert mpc.stats["horizon_rebuilds"] == 1

        mpc.update_model(m1)  # identical object: no work at all
        assert mpc.stats["horizon_reuses"] == 1
        assert mpc.stats["horizon_rebuilds"] == 1

        theta_before = mpc._horizon.Theta
        mpc.update_model(self._model(PRICES))  # value-equal: reused
        assert mpc.stats["horizon_reuses"] == 2
        assert mpc.stats["horizon_rebuilds"] == 1
        assert mpc._horizon.Theta is theta_before

        m_struct = self._model(PRICES * 3.0)
        mpc.update_model(m_struct)  # price change: full rebuild
        assert mpc.stats["horizon_rebuilds"] == 2
        np.testing.assert_allclose(mpc._horizon.Theta,
                                   build_horizon(m_struct, 8, 3).Theta)


# ---------------------------------------------------------------------------
# Constraint-stack cache
# ---------------------------------------------------------------------------
class TestConstraintStackCache:
    def _mpc(self):
        cluster = paper_cluster()
        model = CostModelBuilder(cluster).discrete(PRICES, 30.0)
        cs = build_constraints(cluster, LOADS)
        return ModelPredictiveController(model, 8, 3, r_weight=0.01,
                                         constraints=cs), cluster

    def test_value_equal_constraints_hit(self):
        mpc, cluster = self._mpc()
        u = np.zeros(mpc.model.n_inputs)
        first = mpc._stack_constraints(u)
        # fresh, value-identical object (what build_constraints returns
        # every period in the closed loop)
        mpc.constraints = build_constraints(cluster, LOADS)
        second = mpc._stack_constraints(u)
        assert mpc.stats["constraint_cache_hits"] == 1
        assert second[0] is first[0]  # A-side stacks reused verbatim
        assert second[2] is first[2]

    def test_rhs_change_keeps_a_side(self):
        mpc, cluster = self._mpc()
        u = np.zeros(mpc.model.n_inputs)
        A_eq1, b_eq1, A_in1, b_in1 = mpc._stack_constraints(u)
        new_loads = LOADS * 1.5
        mpc.constraints = build_constraints(cluster, new_loads)
        A_eq2, b_eq2, A_in2, b_in2 = mpc._stack_constraints(u)
        assert A_eq2 is A_eq1  # loads only touch the RHS
        assert not np.array_equal(b_eq1, b_eq2)
        np.testing.assert_allclose(b_eq2[:new_loads.size], new_loads)

    def test_matrix_change_invalidates(self):
        mpc, cluster = self._mpc()
        u = np.zeros(mpc.model.n_inputs)
        A_in_before = mpc._stack_constraints(u)[2]
        cs = build_constraints(cluster, LOADS)
        cs.A_ineq = cs.A_ineq * 2.0
        mpc.constraints = cs
        A_in_after = mpc._stack_constraints(u)[2]
        assert mpc.stats["constraint_cache_misses"] == 2
        assert A_in_after is not A_in_before

    def test_stack_matches_unchached_reference(self):
        """Cached stacking reproduces the straightforward per-step build."""
        mpc, cluster = self._mpc()
        rng = np.random.default_rng(7)
        u_prev = rng.uniform(0, 100, mpc.model.n_inputs)
        cs = mpc.constraints
        A_eq, b_eq, A_in, b_in = mpc._stack_constraints(u_prev)
        nu = mpc.model.n_inputs
        # reference: the pre-cache formulation, step by step
        from repro.control.horizon import move_selector
        eq_rows, eq_rhs, in_rows, in_rhs = [], [], [], []
        for i in range(3):
            T = move_selector(nu, 3, i)
            eq_rows.append(cs.A_eq @ T)
            eq_rhs.append(cs.rhs_at(cs.b_eq, i) - cs.A_eq @ u_prev)
            in_rows.append(cs.A_ineq @ T)
            in_rhs.append(cs.rhs_at(cs.b_ineq, i) - cs.A_ineq @ u_prev)
            in_rows.append(-T)
            in_rhs.append(u_prev - 0.0)
        np.testing.assert_allclose(A_eq, np.vstack(eq_rows))
        np.testing.assert_allclose(b_eq, np.concatenate(eq_rhs))
        np.testing.assert_allclose(A_in, np.vstack(in_rows))
        np.testing.assert_allclose(b_in, np.concatenate(in_rhs))


# ---------------------------------------------------------------------------
# PerfStats container
# ---------------------------------------------------------------------------
class TestPerfStats:
    def test_stage_timing_and_counts(self):
        stats = PerfStats()
        with stats.stage("solve"):
            pass
        with stats.stage("solve"):
            pass
        assert stats.stage_calls["solve"] == 2
        assert stats.stage_seconds["solve"] >= 0.0

    def test_merge_sums(self):
        a, b = PerfStats(), PerfStats()
        a.count("hits", 2)
        b.count("hits", 3)
        b.count("misses")
        with b.stage("x"):
            pass
        a.merge(b)
        assert a.counters == {"hits": 5, "misses": 1}
        assert a.stage_calls["x"] == 1

    def test_picklable(self):
        import pickle

        stats = PerfStats()
        with stats.stage("s"):
            stats.count("c")
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.as_dict() == stats.as_dict()
