"""Validation: the paper's latency simplification vs an actual queue.

Eq. 14 sets P_Q = 1, claiming 1/(mμ − λ) bounds the wait.  This bench
measures an event-driven M/M/n queue at the operating points eq. 35
produces for the paper's IDCs and reports how conservative the
simplification is (and what the tail looks like, which no formula in the
paper covers).
"""

import numpy as np

from repro.datacenter import (
    erlang_c,
    mmn_wait_time,
    required_servers,
    simplified_latency,
    simulate_mmn_queue,
)


def _study():
    rows = []
    cases = [
        ("michigan@eq35", 10000.0, 2.0, None),
        ("minnesota@eq35", 20000.0, 1.25, None),
        ("wisconsin@eq35", 9000.0, 1.75, None),
        ("heavy-load", 47.0, 1.0, 50),
    ]
    rng = np.random.default_rng(0)
    for name, lam, mu, n in cases:
        if n is None:
            n = required_servers(lam, mu, 0.001)
        sim = simulate_mmn_queue(lam, mu, n, n_requests=40_000, rng=rng)
        rows.append({
            "case": name,
            "servers": n,
            "simplified_s": simplified_latency(lam, n, mu),
            "erlang_c_wait_s": mmn_wait_time(lam, n, mu),
            "measured_wait_s": sim.mean_wait,
            "measured_p99_s": sim.wait_percentile(99),
            "prob_wait": sim.prob_wait,
            "analytic_prob_wait": erlang_c(n, lam / mu),
        })
    return rows


def test_bench_queueing_validation(capsys):
    rows = _study()

    for r in rows:
        # eq. 14 upper-bounds both the analytic and the measured wait
        assert r["simplified_s"] >= r["erlang_c_wait_s"] * (1 - 1e-9)
        assert r["simplified_s"] >= r["measured_wait_s"] * 0.95
        # simulation agrees with Erlang C (within Monte-Carlo noise)
        if r["erlang_c_wait_s"] > 1e-9:
            rel = abs(r["measured_wait_s"] / r["erlang_c_wait_s"] - 1.0)
            assert rel < 0.25, r
        assert abs(r["prob_wait"] - r["analytic_prob_wait"]) < 0.05

    with capsys.disabled():
        print()
        for r in rows:
            print(f"  {r['case']:>15s} (m={r['servers']}): eq14 "
                  f"{1e3 * r['simplified_s']:.3f} ms >= erlangC "
                  f"{1e3 * r['erlang_c_wait_s']:.4f} ms ~= measured "
                  f"{1e3 * r['measured_wait_s']:.4f} ms "
                  f"(p99 {1e3 * r['measured_p99_s']:.3f} ms, "
                  f"P(wait) {r['prob_wait']:.3f})")
