"""Tests for the discrete-event M/M/n simulator."""

import numpy as np
import pytest

from repro.datacenter import (
    erlang_c,
    mmn_response_time,
    mmn_wait_time,
    simplified_latency,
    simulate_mmn_queue,
)
from repro.exceptions import ModelError


class TestQueueSimulator:
    def test_mm1_means_match_theory(self):
        lam, mu = 0.7, 1.0
        out = simulate_mmn_queue(lam, mu, 1, n_requests=80_000,
                                 rng=np.random.default_rng(0))
        assert out.mean_wait == pytest.approx(
            mmn_wait_time(lam, 1, mu), rel=0.05)
        assert out.mean_response == pytest.approx(
            mmn_response_time(lam, 1, mu), rel=0.05)
        assert out.utilization == pytest.approx(lam / mu, rel=0.05)

    def test_mmn_means_match_erlang_c(self):
        lam, mu, n = 8.0, 1.0, 10
        out = simulate_mmn_queue(lam, mu, n, n_requests=80_000,
                                 rng=np.random.default_rng(1))
        assert out.mean_wait == pytest.approx(
            mmn_wait_time(lam, n, mu), rel=0.08)
        assert out.prob_wait == pytest.approx(
            erlang_c(n, lam / mu), rel=0.08)

    def test_paper_simplification_is_conservative_empirically(self):
        """Eq. 14 (P_Q = 1) upper-bounds the measured mean wait —
        validated here against an actual event-driven queue, not just
        the Erlang-C formula."""
        lam, mu, n = 12.0, 2.0, 8
        out = simulate_mmn_queue(lam, mu, n, n_requests=60_000,
                                 rng=np.random.default_rng(2))
        assert simplified_latency(lam, n, mu) >= out.mean_wait

    def test_tail_percentiles_ordered(self):
        out = simulate_mmn_queue(4.0, 1.0, 5, n_requests=40_000,
                                 rng=np.random.default_rng(3))
        p50 = out.wait_percentile(50)
        p95 = out.wait_percentile(95)
        p99 = out.wait_percentile(99)
        assert p50 <= p95 <= p99
        # the tail is strictly worse than the mean for a queueing system
        assert p99 > out.mean_wait

    def test_low_load_barely_queues(self):
        out = simulate_mmn_queue(1.0, 1.0, 10, n_requests=20_000,
                                 rng=np.random.default_rng(4))
        assert out.prob_wait < 0.01
        assert out.mean_wait < 1e-3

    def test_validation(self):
        with pytest.raises(ModelError):
            simulate_mmn_queue(0.0, 1.0, 1)
        with pytest.raises(ModelError):
            simulate_mmn_queue(1.0, 1.0, 0)
        with pytest.raises(ModelError):
            simulate_mmn_queue(2.0, 1.0, 2)  # rho = 1: unstable

