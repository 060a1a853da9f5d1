"""Tests for the capped-simplex projection.

With every cap at ``total`` the caps cannot bind, so the same routine is
the projection onto the plain scaled simplex; the ``simplex`` tests check
that regime.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.optim import project_capped_simplex


def simplex_projection(x, total):
    """Projection onto ``{v >= 0 : sum(v) = total}`` (caps never bind)."""
    return project_capped_simplex(x, total, total)


class TestProjections:
    def test_simplex_simple(self):
        out = simplex_projection([0.5, 0.5], total=1.0)
        np.testing.assert_allclose(out, [0.5, 0.5])

    def test_simplex_outside(self):
        out = simplex_projection([2.0, 0.0], total=1.0)
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_simplex_zero_total(self):
        np.testing.assert_allclose(simplex_projection([1.0, 2.0], 0.0), [0, 0])

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 8),
                      elements=st.floats(-5, 5)),
           st.floats(0.01, 10.0))
    def test_simplex_properties(self, x, total):
        out = simplex_projection(x, total)
        assert np.all(out >= -1e-12)
        assert np.sum(out) == pytest.approx(total, rel=1e-9, abs=1e-9)
        # Projection is no farther from x than any feasible reference point:
        ref = np.full(x.shape, total / x.size)
        assert np.linalg.norm(out - x) <= np.linalg.norm(ref - x) + 1e-9

    def test_capped_simplex_hits_caps(self):
        out = project_capped_simplex([10.0, 10.0, 0.0], caps=[3.0, 4.0, 5.0],
                                     total=8.0)
        assert np.sum(out) == pytest.approx(8.0, abs=1e-8)
        assert np.all(out <= np.array([3, 4, 5]) + 1e-9)

    def test_capped_simplex_total_equals_capsum(self):
        out = project_capped_simplex([0.0, 0.0], caps=[1.0, 2.0], total=3.0)
        np.testing.assert_allclose(out, [1.0, 2.0])

    def test_capped_simplex_infeasible(self):
        with pytest.raises(ValueError):
            project_capped_simplex([0, 0], caps=[1, 1], total=5.0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 5000))
    def test_capped_simplex_random(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(2, 7)
        x = rng.normal(size=n) * 3
        caps = rng.uniform(0.5, 3.0, n)
        total = rng.uniform(0, caps.sum())
        out = project_capped_simplex(x, caps, total)
        assert np.all(out >= -1e-9)
        assert np.all(out <= caps + 1e-9)
        assert np.sum(out) == pytest.approx(total, abs=1e-6)
