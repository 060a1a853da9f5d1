"""Tests for horizon stacking and the generic MPC controller."""

import numpy as np
import pytest

from repro.control import (
    DiscreteStateSpace,
    InputConstraintSet,
    ModelPredictiveController,
    build_horizon,
    is_schur_stable,
    move_selector,
    spectral_radius,
    unconstrained_closed_loop,
)
from repro.exceptions import InfeasibleProblemError, ModelError


def _double_integrator(dt=0.1):
    Phi = np.array([[1.0, dt], [0.0, 1.0]])
    G = np.array([[dt**2 / 2], [dt]])
    C = np.array([[1.0, 0.0]])
    return DiscreteStateSpace(Phi=Phi, G=G, C=C, dt=dt)


class TestHorizon:
    def test_move_selector_blocks(self):
        T0 = move_selector(2, 3, 0)
        T2 = move_selector(2, 3, 2)
        T9 = move_selector(2, 3, 9)  # saturates at beta2-1
        np.testing.assert_allclose(T0, np.hstack([np.eye(2), np.zeros((2, 4))]))
        np.testing.assert_allclose(T2, np.hstack([np.eye(2)] * 3))
        np.testing.assert_allclose(T9, T2)

    def test_prediction_matches_rollout(self):
        rng = np.random.default_rng(0)
        model = DiscreteStateSpace(
            Phi=rng.normal(size=(3, 3)) * 0.3,
            G=rng.normal(size=(3, 2)),
            C=rng.normal(size=(2, 3)),
            w=rng.normal(size=3) * 0.1,
        )
        b1, b2 = 5, 3
        H = build_horizon(model, b1, b2)
        x0 = rng.normal(size=3)
        u_prev = rng.normal(size=2)
        dU = rng.normal(size=b2 * 2)
        predicted = H.predict(x0, u_prev, dU)
        # brute-force rollout
        du = dU.reshape(b2, 2)
        x = x0.copy()
        u = u_prev.copy()
        outs = []
        for s in range(b1):
            if s < b2:
                u = u + du[s]
            x = model.step(x, u)
            outs.append(model.output(x))
        np.testing.assert_allclose(predicted, np.array(outs), atol=1e-10)

    def test_free_response_is_zero_increment_prediction(self):
        model = _double_integrator()
        H = build_horizon(model, 4, 2)
        x0 = np.array([1.0, -0.5])
        u_prev = np.array([0.3])
        free = H.free_response(x0, u_prev)
        pred = H.predict(x0, u_prev, np.zeros(2)).ravel()
        np.testing.assert_allclose(free, pred, atol=1e-12)

    def test_horizon_validation(self):
        model = _double_integrator()
        with pytest.raises(ModelError):
            build_horizon(model, 0, 1)
        with pytest.raises(ModelError):
            build_horizon(model, 3, 4)
        with pytest.raises(ModelError):
            move_selector(2, 3, -1)

    def test_theta_is_block_lower_toeplitz(self):
        rng = np.random.default_rng(1)
        model = DiscreteStateSpace(
            Phi=rng.normal(size=(3, 3)) * 0.3,
            G=rng.normal(size=(3, 2)),
            C=rng.normal(size=(2, 3)),
        )
        b1, b2, ny, nu = 6, 4, 2, 2
        H = build_horizon(model, b1, b2)
        assert H.Theta.shape == (b1 * ny, b2 * nu)

        def block(s, t):
            return H.Theta[s * ny:(s + 1) * ny, t * nu:(t + 1) * nu]

        # Θ's (s, t) block is J_{s-t}, the first block column shifted
        # down t steps (zero above the diagonal); the first block column
        # is F_u's, since u(k+i) = u(k-1) + Δu(k) + …
        np.testing.assert_allclose(H.Theta[:, :nu], H.F_u, atol=1e-13)
        for s in range(b1):
            for t in range(b2):
                if s < t:
                    np.testing.assert_array_equal(block(s, t), 0.0)
                else:
                    np.testing.assert_allclose(
                        block(s, t), block(s - t, 0), atol=1e-13)

    def test_move_selector_is_cached_and_read_only(self):
        T1 = move_selector(2, 3, 1)
        T2 = move_selector(2, 3, 1)
        assert T1 is T2  # memoized per (n_inputs, horizon, step)
        with pytest.raises(ValueError):
            T1[0, 0] = 5.0


class TestMPC:
    def test_tracks_setpoint_double_integrator(self):
        model = _double_integrator()
        ctrl = ModelPredictiveController(model, horizon_pred=20,
                                         horizon_ctrl=5, q_weight=10.0,
                                         r_weight=0.01)
        x = np.array([0.0, 0.0])
        u = np.zeros(1)
        for _ in range(300):
            sol = ctrl.control(x, u, reference=1.0)
            u = sol.u
            x = model.step(x, u)
        assert x[0] == pytest.approx(1.0, abs=1e-2)

    def test_r_weight_slows_input_moves(self):
        model = _double_integrator()
        x0 = np.array([0.0, 0.0])
        u0 = np.zeros(1)
        fast = ModelPredictiveController(model, 10, 3, q_weight=1.0,
                                         r_weight=1e-4)
        slow = ModelPredictiveController(model, 10, 3, q_weight=1.0,
                                         r_weight=10.0)
        du_fast = abs(fast.control(x0, u0, 1.0).du_sequence[0, 0])
        du_slow = abs(slow.control(x0, u0, 1.0).du_sequence[0, 0])
        assert du_slow < du_fast

    def test_respects_input_bounds(self):
        model = _double_integrator()
        # -0.5 <= u <= 0.5 as capacity-style inequality rows
        cons = InputConstraintSet(A_ineq=[[1.0], [-1.0]],
                                  b_ineq=[0.5, 0.5])
        ctrl = ModelPredictiveController(model, 10, 3, q_weight=1.0,
                                         r_weight=1e-3, constraints=cons)
        x = np.array([0.0, 0.0])
        u = np.zeros(1)
        for _ in range(50):
            sol = ctrl.control(x, u, reference=100.0)  # huge target
            u = sol.u
            assert -0.5 - 1e-6 <= u[0] <= 0.5 + 1e-6
            x = model.step(x, u)

    def test_equality_constraint_held(self):
        # Two inputs whose sum must stay 1 at every step.
        Phi = np.eye(1)
        G = np.array([[0.3, 0.7]])
        model = DiscreteStateSpace(Phi=Phi, G=G)
        cons = InputConstraintSet(A_eq=[[1.0, 1.0]], b_eq=[1.0], lower=0.0)
        ctrl = ModelPredictiveController(model, 5, 2, q_weight=1.0,
                                         r_weight=1e-3, constraints=cons)
        u = np.array([0.5, 0.5])
        sol = ctrl.control([0.0], u, reference=2.0)
        for step_u in sol.u_sequence:
            assert step_u.sum() == pytest.approx(1.0, abs=1e-7)
            assert np.all(step_u >= -1e-9)

    def test_time_varying_equality_rhs(self):
        Phi = np.eye(1)
        G = np.array([[1.0, 1.0]])
        model = DiscreteStateSpace(Phi=Phi, G=G)
        b_seq = np.array([[1.0], [2.0]])  # sum must be 1 then 2
        cons = InputConstraintSet(A_eq=[[1.0, 1.0]], b_eq=b_seq)
        ctrl = ModelPredictiveController(model, 3, 2, constraints=cons,
                                         r_weight=1e-6)
        sol = ctrl.control([0.0], [0.5, 0.5], reference=0.0)
        assert sol.u_sequence[0].sum() == pytest.approx(1.0, abs=1e-6)
        assert sol.u_sequence[1].sum() == pytest.approx(2.0, abs=1e-6)

    def test_softening_on_infeasible(self):
        # Equality sum(u)=4 conflicts with capacity rows u <= 1 (2 inputs).
        model = DiscreteStateSpace(Phi=np.eye(1), G=np.ones((1, 2)))
        cons = InputConstraintSet(A_eq=[[1.0, 1.0]], b_eq=[4.0],
                                  A_ineq=np.eye(2), b_ineq=[1.0, 1.0],
                                  lower=0.0)
        ctrl = ModelPredictiveController(model, 3, 1, constraints=cons,
                                         soften_infeasible=True)
        sol = ctrl.control([0.0], [0.0, 0.0], reference=0.0)
        assert sol.softened
        # equality still exactly satisfied; bound violated instead
        assert sol.u.sum() == pytest.approx(4.0, abs=1e-5)

    def test_infeasible_raises_when_not_softened(self):
        model = DiscreteStateSpace(Phi=np.eye(1), G=np.ones((1, 2)))
        cons = InputConstraintSet(A_eq=[[1.0, 1.0]], b_eq=[4.0],
                                  A_ineq=np.eye(2), b_ineq=[1.0, 1.0],
                                  lower=0.0)
        ctrl = ModelPredictiveController(model, 3, 1, constraints=cons,
                                         soften_infeasible=False)
        with pytest.raises(InfeasibleProblemError):
            ctrl.control([0.0], [0.0, 0.0], reference=0.0)

    def test_admm_backend_agrees(self):
        model = _double_integrator()
        kw = dict(horizon_pred=8, horizon_ctrl=3, q_weight=1.0,
                  r_weight=0.1)
        c1 = ModelPredictiveController(model, **kw, backend="active_set")
        c2 = ModelPredictiveController(model, **kw, backend="admm")
        x = np.array([0.5, -0.2])
        u = np.array([0.1])
        s1 = c1.control(x, u, 1.0)
        s2 = c2.control(x, u, 1.0)
        np.testing.assert_allclose(s1.u, s2.u, atol=1e-4)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ModelError, match="backend"):
            ModelPredictiveController(_double_integrator(), 4, 2,
                                      backend="activeset")

    def test_reference_shapes(self):
        model = _double_integrator()
        ctrl = ModelPredictiveController(model, 4, 2)
        x = np.zeros(2)
        u = np.zeros(1)
        # scalar, per-step vector (ny=1), and full array must all work
        ctrl.control(x, u, 1.0)
        ctrl.control(x, u, np.ones(4))
        ctrl.control(x, u, np.ones((4, 1)))
        with pytest.raises(ModelError):
            ctrl.control(x, u, np.ones((3, 2)))

    def test_r_weight_must_be_pd(self):
        model = _double_integrator()
        with pytest.raises(ModelError):
            ModelPredictiveController(model, 4, 2, r_weight=0.0)

    def test_update_model_dimension_guard(self):
        model = _double_integrator()
        ctrl = ModelPredictiveController(model, 4, 2)
        other = DiscreteStateSpace(Phi=np.eye(1), G=np.eye(1))
        with pytest.raises(ModelError):
            ctrl.update_model(other)

    def test_predicted_outputs_match_plant(self):
        model = _double_integrator()
        ctrl = ModelPredictiveController(model, 6, 3, q_weight=1.0,
                                         r_weight=0.5)
        x = np.array([0.2, 0.0])
        u_prev = np.array([0.1])
        sol = ctrl.control(x, u_prev, 1.0)
        # roll the plant forward under the planned inputs
        xs = x.copy()
        u_seq = list(sol.u_sequence) + [sol.u_sequence[-1]] * 10
        for s in range(6):
            xs = model.step(xs, u_seq[s])
            assert sol.predicted_outputs[s, 0] == pytest.approx(
                model.output(xs)[0], abs=1e-9)


class TestStability:
    def test_spectral_radius(self):
        assert spectral_radius(np.diag([0.5, -0.9])) == pytest.approx(0.9)

    def test_schur(self):
        assert is_schur_stable(np.diag([0.5, 0.3]))
        assert not is_schur_stable(np.diag([1.1, 0.3]))

    def test_mpc_closed_loop_stable(self):
        model = _double_integrator()
        Acl = unconstrained_closed_loop(model, 20, 5, q_weight=10.0,
                                        r_weight=0.01)
        assert is_schur_stable(Acl)

    def test_closed_loop_matrix_predicts_simulation(self):
        # With zero reference the augmented state should follow Acl.
        model = _double_integrator()
        ctrl = ModelPredictiveController(model, 10, 4, q_weight=2.0,
                                         r_weight=0.1)
        Acl = unconstrained_closed_loop(model, 10, 4, q_weight=2.0,
                                        r_weight=0.1)
        x = np.array([0.4, -0.1])
        u = np.array([0.2])
        z = np.concatenate([x, u])
        for _ in range(5):
            sol = ctrl.control(x, u, reference=0.0)
            u_new = sol.u
            x_new = model.step(x, u_new)
            z = Acl @ z
            np.testing.assert_allclose(np.concatenate([x_new, u_new]), z,
                                       atol=1e-8)
            x, u = x_new, u_new
