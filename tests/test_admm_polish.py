"""Active-set polish of the shared-rho batched ADMM.

The compacted loop of :func:`repro.optim.solve_qp_admm_batch` hands each
lane that comes near its optimum to a primal-dual active-set polish; a
lane is accepted only when the polished point passes the loop's own
stopping test.  Pinned here:

* polished lanes are exact — they pass the KKT certificate at 1e-9 and
  agree with the scalar active-set solver to 1e-8;
* a warm start that already names the optimal active set is polished
  at iteration 1, and a lane refused there tries again once per decade
  its residuals fall inside the trigger band;
* the grouped multiplier solve matches per-lane solves, and a
  dependent set solves its independent rows and gives 0 on the rest;
* a dependent set keeps its independent equality rows, and a lane
  whose dropped ``≤`` row the kept rows' solution would violate drops
  another row instead, so the polish accepts it;
* the memoised active-set factors change no result and stay bounded;
* a degenerate active set (duplicated rows) is polished exactly, and so
  is a captured fleet QP whose set holds capacity rows that sum to the
  conservation rows (``tests/seeds/qp_dependent_conservation.json``);
* the lane-isolated mode never polishes, and its outputs do not depend
  on whether the polish is available;
* a Hessian that is not positive definite switches the polish off;
* an expired deadline stops the solve before the polish, and lanes that
  met the stopping test at that check still count as converged.
"""

import json
from pathlib import Path

import numpy as np

from repro.optim import prepare_batch_admm, solve_qp, solve_qp_admm_batch
from repro.optim import qp_admm
from repro.verify.certificates import check_kkt_qp


def _mpc_batch(S=16, blocks=3, width=4, seed=5):
    """Equality (conservation) rows plus one-sided capacity and
    nonnegativity rows, like the condensed MPC stack."""
    rng = np.random.default_rng(seed)
    n = blocks * width
    M = rng.standard_normal((n, n))
    P = M @ M.T + 0.5 * np.eye(n)
    A_eq = np.kron(np.eye(blocks), np.ones((1, width)))
    A_cap = np.abs(rng.standard_normal((2, n)))
    A_in = np.vstack([A_cap, -np.eye(n)])
    loads = 1.0 + rng.random((S, blocks))
    b_in = np.concatenate([np.full(2, 4.0), np.zeros(n)])
    A = np.vstack([A_eq, A_in])
    L = np.hstack([loads, np.full((S, A_in.shape[0]), -np.inf)])
    U = np.hstack([loads, np.tile(b_in, (S, 1))])
    Q = 3.0 * rng.standard_normal((S, n))
    return P, Q, A, L, U, A_eq, loads, A_in, b_in


def test_polished_lanes_pass_kkt_and_match_active_set():
    P, Q, A, L, U, A_eq, loads, A_in, b_in = _mpc_batch()
    n_eq = A_eq.shape[0]
    res = solve_qp_admm_batch(P, Q, A, L, U,
                              setup=prepare_batch_admm(P, A, n_eq=n_eq))
    assert res.converged.all()
    assert res.polished.sum() >= Q.shape[0] // 2
    for s in np.flatnonzero(res.polished):
        cert = check_kkt_qp(P, Q[s], res.X[s], A_eq, loads[s], A_in, b_in,
                            dual_eq=res.Y[s, :n_eq],
                            dual_ineq=res.Y[s, n_eq:], tol=1e-9)
        assert cert.ok, (s, cert)
        ref = solve_qp(P, Q[s], A_eq, loads[s], A_in, b_in)
        assert ref.success
        np.testing.assert_allclose(res.X[s], ref.x, rtol=1e-8, atol=1e-8)
        assert abs(res.fun[s] - ref.fun) <= 1e-8 * (1.0 + abs(ref.fun))


def test_warm_resolve_with_same_active_set_polishes_at_iteration_one():
    P, Q, A, L, U, A_eq, loads, A_in, b_in = _mpc_batch()
    n_eq = A_eq.shape[0]
    setup = prepare_batch_admm(P, A, n_eq=n_eq)
    first = solve_qp_admm_batch(P, Q, A, L, U, setup=setup)
    assert first.converged.all()
    # moving q along the equality normals shifts only the equality
    # multipliers: the optimum and its active set stay put, but the
    # warm start is far outside the near-optimum trigger
    rng = np.random.default_rng(9)
    W = 5.0 * rng.standard_normal((Q.shape[0], n_eq))
    Q2 = Q + W @ A_eq
    res = solve_qp_admm_batch(P, Q2, A, L, U, X0=first.X, Y0=first.Y,
                              setup=setup)
    assert res.converged.all()
    assert res.polished.all()
    np.testing.assert_array_equal(res.iterations, 1)
    for s in range(Q.shape[0]):
        cert = check_kkt_qp(P, Q2[s], res.X[s], A_eq, loads[s], A_in, b_in,
                            dual_eq=res.Y[s, :n_eq],
                            dual_ineq=res.Y[s, n_eq:], tol=1e-9)
        assert cert.ok, (s, cert)
        ref = solve_qp(P, Q2[s], A_eq, loads[s], A_in, b_in)
        np.testing.assert_allclose(res.X[s], ref.x, rtol=1e-8, atol=1e-8)


def test_lane_refused_at_iteration_one_is_polished_near_optimum(monkeypatch):
    P, Q, A, L, U, A_eq, loads, A_in, b_in = _mpc_batch(S=8)
    n_eq = A_eq.shape[0]
    real = qp_admm._polish_lanes
    attempts = []

    def refuse_first_call(setup, z, *args):
        ok, xp, zp, yp = real(setup, z, *args)
        if not attempts:
            ok = np.zeros_like(ok)
        attempts.append(z.shape[0])
        return ok, xp, zp, yp

    monkeypatch.setattr(qp_admm, "_polish_lanes", refuse_first_call)
    res = solve_qp_admm_batch(P, Q, A, L, U,
                              setup=prepare_batch_admm(P, A, n_eq=n_eq))
    assert attempts[0] == Q.shape[0]        # every lane tried at iteration 1
    # then at most one attempt per decade of the trigger band above the
    # stopping tolerance (1e-6 by default)
    decades = int(np.ceil(np.log10(qp_admm._POLISH_TRIGGER / 1e-6)))
    assert sum(attempts) <= (1 + decades) * Q.shape[0]
    assert res.converged.all()
    assert res.polished.all()
    assert (res.iterations > 1).all()
    for s in range(Q.shape[0]):
        cert = check_kkt_qp(P, Q[s], res.X[s], A_eq, loads[s], A_in, b_in,
                            dual_eq=res.Y[s, :n_eq],
                            dual_ineq=res.Y[s, n_eq:], tol=1e-9)
        assert cert.ok, (s, cert)


def test_grouped_active_solve_matches_per_lane_solves():
    rng = np.random.default_rng(11)
    m = 7
    B = rng.standard_normal((m, m + 3))
    M = B @ B.T
    M[6] = M[5]                   # row 6 duplicates row 5 ...
    M[:, 6] = M[:, 5]             # ... so any set holding both is singular
    act = np.zeros((9, m), dtype=bool)
    shared = [0, 2, 3]
    for lane in (0, 3, 4, 7):     # one set shared by four lanes
        act[lane, shared] = True
    act[1, [1, 4]] = True         # distinct sets
    act[2, [0, 1, 2, 3, 4]] = True
    act[5, [4, 5]] = True
    act[6, [2, 5, 6]] = True      # dependent pair: one row is dropped
    # lane 8: empty set
    rhs = rng.standard_normal((9, m))
    y = qp_admm._solve_active(M, act, rhs, {})
    assert not y[8].any()
    # lane 6 gets the multipliers of the independent subset {2, 5} or
    # {2, 6}; the dropped row and the inactive rows are 0
    assert np.count_nonzero(y[6]) == 2 and y[6, 2] != 0.0
    kept = [2, 5] if y[6, 5] != 0.0 else [2, 6]
    expect = np.zeros(m)
    expect[kept] = np.linalg.solve(M[np.ix_(kept, kept)], rhs[6, kept])
    np.testing.assert_allclose(y[6], expect, rtol=1e-10, atol=1e-12)
    for lane in (0, 1, 2, 3, 4, 5, 7):
        a = np.flatnonzero(act[lane])
        expect = np.zeros(m)
        expect[a] = np.linalg.solve(M[np.ix_(a, a)], rhs[lane, a])
        np.testing.assert_allclose(y[lane], expect, rtol=1e-10,
                                   atol=1e-12)


def test_memoised_factors_change_no_result():
    rng = np.random.default_rng(4)
    m = 9
    B = rng.standard_normal((m, m + 2))
    M = B @ B.T
    act = rng.random((40, m)) < 0.5
    act[::3] = act[0]                 # a set shared by many lanes
    rhs = rng.standard_normal((40, m))
    memo: dict = {}
    cold = qp_admm._solve_active(M, act, rhs, memo)
    assert memo                       # the first call filled the memo
    warm = qp_admm._solve_active(M, act, rhs, memo)
    np.testing.assert_array_equal(warm, cold)
    np.testing.assert_array_equal(qp_admm._solve_active(M, act, rhs, {}),
                                  cold)


def test_memo_never_exceeds_its_cap():
    rng = np.random.default_rng(6)
    m = 12
    B = rng.standard_normal((m, m + 2))
    M = B @ B.T
    cap = qp_admm._ACTIVE_MEMO_CAP
    memo: dict = {}
    sizes = []
    for lo in range(0, 3 * cap, 50):
        codes = np.arange(lo, lo + 50)        # 50 distinct sets a call
        act = (codes[:, None] >> np.arange(m)) & 1 == 1
        qp_admm._solve_active(M, act, rng.standard_normal((50, m)), memo)
        sizes.append(len(memo))
    assert max(sizes) <= cap
    assert len(set(sizes)) > 1


def test_pivoted_dependent_set_solves_kept_rows_exactly():
    rng = np.random.default_rng(8)
    n, m = 6, 5
    A = rng.standard_normal((m, n))
    A[3] = A[0] + 2.0 * A[1]          # row 3 depends on rows 0 and 1
    A[4] = -A[2]                      # row 4 is row 2 reversed
    M = A @ A.T
    rows, chol = qp_admm._active_factor(M, np.arange(m))
    assert rows.size == 3
    np.testing.assert_allclose(chol.T @ chol, M[np.ix_(rows, rows)],
                               rtol=1e-12, atol=1e-12)
    act = np.ones((1, m), dtype=bool)
    rhs = rng.standard_normal((1, m))
    y = qp_admm._solve_active(M, act, rhs, {})[0]
    dropped = np.setdiff1d(np.arange(m), rows)
    assert not y[dropped].any()
    np.testing.assert_allclose(M[np.ix_(rows, rows)] @ y[rows], rhs[0, rows],
                               rtol=1e-10, atol=1e-12)


def test_dependent_set_keeps_independent_equality_rows():
    # rows 0 and 1 are equalities, row 2 a ``≤`` row in their span that
    # is less correlated with row 0 than row 1 is: pivoting by size
    # alone takes row 2 second and drops equality row 1
    A = np.array([[1.0, 0.0, 0.0],
                  [1.0, 0.3, 0.0],
                  [1.0, 1.0, 0.0]])
    M = A @ A.T
    rows, chol = qp_admm._active_factor(M, np.arange(3), n_eq=2)
    np.testing.assert_array_equal(np.sort(rows), [0, 1])
    np.testing.assert_allclose(chol.T @ chol, M[np.ix_(rows, rows)],
                               rtol=1e-12, atol=1e-12)


def test_dependent_row_with_a_contradicting_bound_is_swapped_out():
    # x1 + x2 + x3 = b0 (conservation), x1 ≤ b1, -x2 ≤ 0, -x3 ≤ 0: the
    # three ``≤`` rows sum to the conservation row, and with b1 > b0 not
    # all four can hold.  The default drop is row 3, which the kept
    # rows' solution violates; its lane drops row 1 instead.
    A = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    M = A @ A.T
    b = np.array([1.0, 2.0, 0.0, 0.0])
    w = A @ np.array([3.0, -2.0, -1.0])
    act = np.ones((1, 4), dtype=bool)
    rhs = (w - b)[None]
    side = np.array([[0.0, 1.0, 1.0, 1.0]])
    slack = w - M @ qp_admm._solve_active(M, act, rhs, {})[0] - b
    assert slack.max() > 0.5                # the default drop: violated
    y = qp_admm._solve_active(M, act, rhs, {}, side, n_eq=1)[0]
    slack = w - M @ y - b
    assert y[1] == 0.0 and slack[1] < -0.5  # row 1 dropped, inside
    np.testing.assert_allclose(slack[[0, 2, 3]], 0.0, atol=1e-12)


def test_contradicting_dependent_set_is_polished_at_iteration_one():
    rng = np.random.default_rng(3)
    S = 6
    A_eq = np.array([[1.0, 1.0, 1.0]])
    A_in = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    A = np.vstack([A_eq, A_in])
    P = np.diag([1.0, 2.0, 1.5])
    Q = np.column_stack([-(3.0 + rng.random(S)), 2.0 + rng.random(S),
                         1.0 + rng.random(S)])
    load = 1.0 + rng.random(S)
    cap = load + 1.0 + rng.random(S)          # capacity above the load
    b_in = np.column_stack([cap, np.zeros((S, 2))])
    L = np.column_stack([load, np.full((S, 3), -np.inf)])
    U = np.column_stack([load, b_in])
    # the warm start names every row active: the capacity row and both
    # zero rows, which the conservation row contradicts
    X0 = np.column_stack([cap, np.zeros((S, 2))])
    Y0 = np.tile([0.0, 1.0, 1.0, 1.0], (S, 1))
    res = solve_qp_admm_batch(P, Q, A, L, U, X0=X0, Y0=Y0,
                              setup=prepare_batch_admm(P, A, n_eq=1))
    assert res.polished.all()
    np.testing.assert_array_equal(res.iterations, 1)
    for s in range(S):
        cert = check_kkt_qp(P, Q[s], res.X[s], A_eq, load[s:s + 1], A_in,
                            b_in[s], dual_eq=res.Y[s, :1],
                            dual_ineq=res.Y[s, 1:], tol=1e-9)
        assert cert.ok, (s, cert)
        ref = solve_qp(P, Q[s], A_eq, load[s:s + 1], A_in, b_in[s])
        np.testing.assert_allclose(res.X[s], ref.x, rtol=1e-8, atol=1e-8)


def test_fleet_dependent_conservation_seed_is_polished_exactly():
    # a fleet_1000 (seed 0) lane whose warm start reads a set in which
    # capacity rows sum to conservation rows; pivoting by size alone
    # dropped a conservation row and left the lane to ADMM
    seed = Path(__file__).parent / "seeds" / "qp_dependent_conservation.json"
    data = json.loads(seed.read_text())
    P, q = np.array(data["P"]), np.array(data["q"])
    A_eq, b_eq = np.array(data["A_eq"]), np.array(data["b_eq"])
    A_in, b_in = np.array(data["A_ineq"]), np.array(data["b_ineq"])
    warm = data["warm_start"]
    A, lo, hi = qp_admm.boxed_constraints(P.shape[0], A_eq, b_eq, A_in,
                                          b_in)
    setup = prepare_batch_admm(P, A, n_eq=b_eq.size, rho=warm["rho"])
    res = solve_qp_admm_batch(P, q[None], A, lo, hi,
                              X0=np.array(warm["x0"])[None],
                              Y0=np.array(warm["y0"])[None], setup=setup,
                              eps_abs=warm["eps"], eps_rel=warm["eps"])
    assert res.polished[0] and res.iterations[0] == 1
    n_eq = b_eq.size
    cert = check_kkt_qp(P, q, res.X[0], A_eq, b_eq, A_in, b_in,
                        dual_eq=res.Y[0, :n_eq], dual_ineq=res.Y[0, n_eq:],
                        tol=1e-9)
    assert cert.ok, cert
    ref = solve_qp(P, q, A_eq, b_eq, A_in, b_in)
    assert abs(res.fun[0] - ref.fun) <= 1e-9 * abs(ref.fun)


def test_duplicated_rows_are_polished_exactly():
    P, Q, A, L, U, A_eq, loads, A_in, b_in = _mpc_batch(S=8)
    n_eq = A_eq.shape[0]
    # every equality row twice: the active set always holds a dependent
    # pair, which the pivoted factor reduces to one row of each
    A2 = np.vstack([A_eq, A_eq, A_in])
    L2 = np.hstack([L[:, :n_eq], L])
    U2 = np.hstack([U[:, :n_eq], U])
    res = solve_qp_admm_batch(P, Q, A2, L2, U2,
                              setup=prepare_batch_admm(P, A2, n_eq=2 * n_eq))
    assert res.converged.all()
    assert res.polished.all()
    for s in range(Q.shape[0]):
        # the de-duplicated rows carry the pair's summed multiplier
        dual_eq = res.Y[s, :n_eq] + res.Y[s, n_eq:2 * n_eq]
        cert = check_kkt_qp(P, Q[s], res.X[s], A_eq, loads[s], A_in, b_in,
                            dual_eq=dual_eq, dual_ineq=res.Y[s, 2 * n_eq:],
                            tol=1e-9)
        assert cert.ok, (s, cert)
        ref = solve_qp(P, Q[s], A_eq, loads[s], A_in, b_in)
        np.testing.assert_allclose(res.X[s], ref.x, rtol=1e-8, atol=1e-8)


def test_lane_isolated_never_polishes():
    P, Q, A, L, U, A_eq, *_ = _mpc_batch()
    n_eq = A_eq.shape[0]
    res = solve_qp_admm_batch(P, Q, A, L, U,
                              setup=prepare_batch_admm(P, A, n_eq=n_eq),
                              lane_isolated=True)
    assert res.converged.all()
    assert not res.polished.any()
    # the same solve on a setup whose polish is unavailable is bitwise
    # identical: the isolated path never consults it
    off = prepare_batch_admm(P, A, n_eq=n_eq)
    off.polish_operators = lambda: None
    ref = solve_qp_admm_batch(P, Q, A, L, U, setup=off, lane_isolated=True)
    np.testing.assert_array_equal(res.X, ref.X)
    np.testing.assert_array_equal(res.Y, ref.Y)
    np.testing.assert_array_equal(res.iterations, ref.iterations)


def test_singular_hessian_disables_polish():
    _P, Q, A, L, U, A_eq, *_ = _mpc_batch(S=6)
    n = Q.shape[1]
    rng = np.random.default_rng(2)
    B = rng.standard_normal((n, n - 3))
    P = B @ B.T                                  # rank n − 3
    setup = prepare_batch_admm(P, A, n_eq=A_eq.shape[0])
    assert setup.polish_operators() is None
    res = solve_qp_admm_batch(P, Q, A, L, U, setup=setup)
    assert not res.polished.any()
    assert res.converged.any()


def test_deadline_stops_before_the_polish():
    P, Q, A, L, U, A_eq, *_ = _mpc_batch(S=8)
    n_eq = A_eq.shape[0]
    first = solve_qp_admm_batch(P, Q, A, L, U,
                                setup=prepare_batch_admm(P, A, n_eq=n_eq))
    assert first.converged.all()
    # lanes 0-3 restart at their optimum and meet the stopping test at
    # the first check; lanes 4-7 start cold and would need the polish
    X0, Y0 = first.X.copy(), first.Y.copy()
    X0[4:], Y0[4:] = 0.0, 0.0
    for isolated in (False, True):
        res = solve_qp_admm_batch(P, Q, A, L, U, X0=X0, Y0=Y0,
                                  setup=prepare_batch_admm(P, A, n_eq=n_eq),
                                  lane_isolated=isolated,
                                  deadline_seconds=1e-9)
        assert res.deadline_exceeded
        np.testing.assert_array_equal(res.converged, np.arange(8) < 4)
        assert not res.polished.any()
        np.testing.assert_array_equal(res.iterations, 1)
        np.testing.assert_allclose(res.X[:4], first.X[:4], rtol=1e-6,
                                   atol=1e-6)
        assert np.isfinite(res.X).all()


def test_hooked_one_lane_policy_polishes_its_solves(monkeypatch):
    """A fault hook decouples a batch's lanes from each other; a lone
    lane has no other lane, so its solves stay the unhooked solves —
    ended by the exact polish unless converged at iteration one — and
    pass the KKT certificate at 1e-9."""
    from repro.core import CostMPCPolicy, MPCPolicyConfig
    from repro.core import batch_controller
    from repro.sim import paper_scenario, run_simulation

    solve = batch_controller.solve_qp_admm_batch

    def solves_of(hook):
        solves = []

        def recording_solve(P, Q, A, L, U, **kwargs):
            res = solve(P, Q, A, L, U, **kwargs)
            solves.append((P, Q, A, L, U, kwargs["lane_isolated"], res))
            return res

        monkeypatch.setattr(batch_controller, "solve_qp_admm_batch",
                            recording_solve)
        sc = paper_scenario(dt=300.0, duration=7200.0, start_hour=6.0)
        policy = CostMPCPolicy(sc.cluster, MPCPolicyConfig(dt=sc.dt))
        policy.solver_fault_hook = hook
        run_simulation(sc, policy)
        assert len(solves) == sc.n_periods
        return solves

    plain = solves_of(None)
    hooked = solves_of(lambda stage, lane, period: None)
    assert sum(bool(res.polished[0]) for *_, res in hooked) > 0
    for (P, Q, A, L, U, isolated, res), (*_, ref) in zip(hooked, plain):
        assert not isolated
        assert res.converged.all()
        assert res.polished[0] or res.iterations[0] == 1
        np.testing.assert_array_equal(res.polished, ref.polished)
        np.testing.assert_array_equal(res.X, ref.X)
        n_eq = int(np.isfinite(L[0]).sum())
        cert = check_kkt_qp(P, Q[0], res.X[0], A[:n_eq], L[0, :n_eq],
                            A[n_eq:], U[0, n_eq:], dual_eq=res.Y[0, :n_eq],
                            dual_ineq=res.Y[0, n_eq:], tol=1e-9)
        assert cert.ok, cert
