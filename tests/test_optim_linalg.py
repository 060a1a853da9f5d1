"""Cross-validation of the structure-exploiting linear-algebra kernels.

Every kernel in :mod:`repro.optim.linalg` is checked against the dense
numpy/scipy reference it replaces: the updatable Cholesky against fresh
factorizations of the explicitly modified matrix, and the incremental KKT
stepper against the dense KKT system.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from repro.exceptions import FactorizationError
from repro.optim.linalg import (
    IncrementalKKT,
    KKTFactorCache,
    UpdatableCholesky,
)


def random_spd(n, rng, spread=1.0):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + spread * np.eye(n)


class TestUpdatableCholesky:
    def test_factor_and_solve_match_scipy(self):
        rng = np.random.default_rng(0)
        M = random_spd(7, rng)
        fac = UpdatableCholesky(M)
        c, low = sla.cho_factor(M, lower=True)
        np.testing.assert_allclose(fac.L, np.tril(c), atol=1e-12)
        b = rng.standard_normal(7)
        np.testing.assert_allclose(fac.solve(b),
                                   sla.cho_solve((c, low), b), atol=1e-10)

    def test_not_spd_raises(self):
        with pytest.raises(FactorizationError):
            UpdatableCholesky(np.diag([1.0, -1.0]))

    def test_rank_one_update_matches_fresh_factor(self):
        rng = np.random.default_rng(1)
        M = random_spd(6, rng)
        v = rng.standard_normal(6)
        fac = UpdatableCholesky(M)
        fac.update(v)
        np.testing.assert_allclose(fac.matrix(), M + np.outer(v, v),
                                   atol=1e-10)
        np.testing.assert_allclose(
            fac.L, np.linalg.cholesky(M + np.outer(v, v)), atol=1e-9)

    def test_rank_one_downdate_matches_fresh_factor(self):
        rng = np.random.default_rng(2)
        M = random_spd(6, rng, spread=5.0)
        v = 0.3 * rng.standard_normal(6)
        fac = UpdatableCholesky(M)
        fac.downdate(v)
        np.testing.assert_allclose(fac.matrix(), M - np.outer(v, v),
                                   atol=1e-9)

    def test_update_then_downdate_round_trips(self):
        rng = np.random.default_rng(3)
        M = random_spd(5, rng)
        v = rng.standard_normal(5)
        fac = UpdatableCholesky(M)
        fac.update(v)
        fac.downdate(v)
        np.testing.assert_allclose(fac.matrix(), M, atol=1e-9)

    def test_downdate_to_indefinite_raises_and_preserves_state(self):
        # M - vv' with v scaled past the smallest eigenvalue is indefinite.
        M = np.diag([4.0, 1.0])
        v = np.array([0.0, 1.5])
        fac = UpdatableCholesky(M)
        L_before = fac.L.copy()
        with pytest.raises(FactorizationError):
            fac.downdate(v)
        # failed downdate must leave the factor usable (copy-first).
        np.testing.assert_array_equal(fac.L, L_before)

    def test_append_matches_bordered_factor(self):
        rng = np.random.default_rng(4)
        M = random_spd(5, rng)
        col = rng.standard_normal(5)
        diag = float(col @ np.linalg.solve(M, col)) + 2.0
        fac = UpdatableCholesky(M)
        fac.append(col, diag)
        bordered = np.block([[M, col[:, None]], [col[None, :], diag]])
        np.testing.assert_allclose(fac.matrix(), bordered, atol=1e-9)

    def test_append_dependent_column_raises(self):
        rng = np.random.default_rng(5)
        M = random_spd(4, rng)
        col = rng.standard_normal(4)
        # diag exactly col' M^-1 col makes the Schur pivot zero.
        diag = float(col @ np.linalg.solve(M, col))
        fac = UpdatableCholesky(M)
        with pytest.raises(FactorizationError):
            fac.append(col, diag)

    def test_delete_matches_principal_submatrix(self):
        rng = np.random.default_rng(6)
        M = random_spd(6, rng)
        for index in (0, 2, 5):
            fac = UpdatableCholesky(M)
            fac.delete(index)
            keep = [i for i in range(6) if i != index]
            np.testing.assert_allclose(fac.matrix(), M[np.ix_(keep, keep)],
                                       atol=1e-9)

    def test_diag_condition_exact_on_diagonal(self):
        fac = UpdatableCholesky(np.diag([100.0, 1.0]))
        assert fac.diag_condition() == pytest.approx(100.0)


class TestIncrementalKKT:
    @staticmethod
    def dense_kkt(P, A, g):
        n, m = P.shape[0], A.shape[0]
        K = np.block([[P, A.T], [A, np.zeros((m, m))]])
        sol = np.linalg.solve(K, np.concatenate([-g, np.zeros(m)]))
        return sol[:n], sol[n:]

    def test_step_matches_dense_kkt(self):
        rng = np.random.default_rng(7)
        P = random_spd(8, rng)
        A = rng.standard_normal((3, 8))
        g = rng.standard_normal(8)
        kkt = IncrementalKKT(P)
        kkt.set_rows(A)
        p, lam = kkt.step(g)
        p_ref, lam_ref = self.dense_kkt(P, A, g)
        np.testing.assert_allclose(p, p_ref, atol=1e-8)
        np.testing.assert_allclose(lam, lam_ref, atol=1e-8)

    def test_unconstrained_step(self):
        rng = np.random.default_rng(8)
        P = random_spd(5, rng)
        g = rng.standard_normal(5)
        kkt = IncrementalKKT(P)
        p, lam = kkt.step(g)
        np.testing.assert_allclose(p, np.linalg.solve(P, -g), atol=1e-10)
        assert lam.size == 0

    def test_incremental_changes_track_set_rows(self):
        rng = np.random.default_rng(9)
        P = random_spd(7, rng)
        rows = rng.standard_normal((4, 7))
        g = rng.standard_normal(7)
        kkt = IncrementalKKT(P)
        kkt.set_rows(rows[:1])
        kkt.add_row(rows[1])
        kkt.add_row(rows[2])
        kkt.remove_row(1)
        kkt.add_row(rows[3])
        active = rows[[0, 2, 3]]
        p, lam = kkt.step(g)
        p_ref, lam_ref = self.dense_kkt(P, active, g)
        np.testing.assert_allclose(p, p_ref, atol=1e-8)
        np.testing.assert_allclose(lam, lam_ref, atol=1e-8)
        assert kkt.updates == 4  # three additions + one removal
        assert kkt.refactorizations == 1

    def test_dependent_rows_raise(self):
        rng = np.random.default_rng(10)
        P = random_spd(5, rng)
        a = rng.standard_normal(5)
        kkt = IncrementalKKT(P)
        with pytest.raises(FactorizationError):
            kkt.set_rows(np.vstack([a, 2.0 * a]))
        kkt2 = IncrementalKKT(P)
        kkt2.set_rows(a[None, :])
        with pytest.raises(FactorizationError):
            kkt2.add_row(2.0 * a)

    def test_condition_guard_triggers_refactorization(self):
        rng = np.random.default_rng(11)
        P = np.eye(4)
        kkt = IncrementalKKT(P, cond_limit=1.5)
        kkt.set_rows(np.eye(4)[:1])
        kkt.add_row(1e3 * np.eye(4)[1])  # diag ratio blows past the limit
        assert kkt.refactorizations >= 2  # initial build + guard rebuild
        g = rng.standard_normal(4)
        p, _ = kkt.step(g)
        p_ref, _ = self.dense_kkt(P, np.vstack([np.eye(4)[0],
                                                1e3 * np.eye(4)[1]]), g)
        np.testing.assert_allclose(p, p_ref, atol=1e-8)


class TestKKTFactorCache:
    def test_lookup_hit_and_miss_by_value(self):
        rng = np.random.default_rng(12)
        P = random_spd(4, rng)
        A_eq = rng.standard_normal((1, 4))
        A_in = rng.standard_normal((2, 4))
        cache = KKTFactorCache()
        assert cache.lookup(P, A_eq, A_in) is None
        kkt = IncrementalKKT(P)
        cache.store(P, A_eq, A_in, kkt, rows_key=(0, 1))
        got = cache.lookup(P.copy(), A_eq.copy(), A_in.copy())
        assert got is not None and got[0] is kkt and got[1] == (0, 1)
        assert cache.lookup(P + 1e-9, A_eq, A_in) is None
        assert (cache.hits, cache.misses) == (1, 2)

    def test_store_copies_matrices(self):
        rng = np.random.default_rng(13)
        P = random_spd(3, rng)
        A = np.zeros((0, 3))
        cache = KKTFactorCache()
        cache.store(P, A, A, IncrementalKKT(P), rows_key=())
        P[0, 0] += 1.0  # caller mutates its own copy
        assert cache.lookup(P, A, A) is None
