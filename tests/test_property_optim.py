"""Property-based tests for the projection operators.

Projections onto convex sets must be idempotent (``P(P(x)) = P(x)``),
non-expansive (``‖P(x) − P(y)‖ ≤ ‖x − y‖``) and land inside the set.
Hypothesis searches for
counterexamples instead of trusting a handful of fixed vectors.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optim import solve_qp
from repro.optim.projections import project_capped_simplex

_coords = st.floats(min_value=-50.0, max_value=50.0,
                    allow_nan=False, allow_infinity=False)


def _vectors(min_size=1, max_size=8):
    return st.lists(_coords, min_size=min_size, max_size=max_size) \
        .map(lambda v: np.array(v, dtype=float))


def _vector_pairs(min_size=1, max_size=8):
    """Two vectors of the same (drawn) dimension."""
    return st.integers(min_value=min_size, max_value=max_size).flatmap(
        lambda n: st.tuples(
            st.lists(_coords, min_size=n, max_size=n),
            st.lists(_coords, min_size=n, max_size=n))
    ).map(lambda p: (np.array(p[0]), np.array(p[1])))


def simplex_projection(x, total):
    """Projection onto ``{v >= 0 : sum(v) = total}``: with every cap at
    ``total`` the capped simplex's caps cannot bind."""
    return project_capped_simplex(x, total, total)


class TestSimplexProjection:
    @given(x=_vectors(), total=st.floats(0.1, 100.0))
    def test_feasible(self, x, total):
        p = simplex_projection(x, total)
        assert np.all(p >= -1e-9)
        assert np.sum(p) == pytest.approx(total, rel=1e-6, abs=1e-6)

    @given(x=_vectors(), total=st.floats(0.1, 100.0))
    @settings(max_examples=50)
    def test_idempotent(self, x, total):
        p = simplex_projection(x, total)
        np.testing.assert_allclose(simplex_projection(p, total), p, atol=1e-8)

    @given(pair=_vector_pairs(), total=st.floats(0.1, 100.0))
    @settings(max_examples=50)
    def test_non_expansive(self, pair, total):
        x, y = pair
        assert np.linalg.norm(simplex_projection(x, total)
                              - simplex_projection(y, total)) \
            <= np.linalg.norm(x - y) + 1e-8

    @given(x=_vectors())
    def test_matches_euclidean_qp(self, x):
        """The projection is the argmin of ‖p − x‖² on the simplex."""
        n = x.size
        res = solve_qp(np.eye(n), -x,
                       A_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                       A_ineq=-np.eye(n), b_ineq=np.zeros(n))
        np.testing.assert_allclose(simplex_projection(x, 1.0), res.x,
                                   atol=1e-6)


class TestCappedSimplexProjection:
    @given(x=_vectors(min_size=2), caps_seed=st.integers(0, 2**31 - 1),
           frac=st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_feasible(self, x, caps_seed, frac):
        rng = np.random.default_rng(caps_seed)
        caps = rng.uniform(0.5, 5.0, size=x.size)
        total = frac * caps.sum()
        p = project_capped_simplex(x, caps, total)
        assert np.all(p >= -1e-8)
        assert np.all(p <= caps + 1e-8)
        assert np.sum(p) == pytest.approx(total, abs=1e-6)

    @given(x=_vectors(min_size=2), caps_seed=st.integers(0, 2**31 - 1),
           frac=st.floats(0.05, 0.95))
    @settings(max_examples=25)
    def test_idempotent(self, x, caps_seed, frac):
        rng = np.random.default_rng(caps_seed)
        caps = rng.uniform(0.5, 5.0, size=x.size)
        total = frac * caps.sum()
        p = project_capped_simplex(x, caps, total)
        np.testing.assert_allclose(
            project_capped_simplex(p, caps, total), p, atol=1e-6)
