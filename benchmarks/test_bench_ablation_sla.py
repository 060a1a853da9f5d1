"""Ablation: SLA latency-bound sweep."""

from repro.experiments import sla_sweep


def test_bench_sla_sweep(capsys):
    data = sla_sweep.run()
    rows = data["rows"]

    # tighter SLAs cost more (monotone nonincreasing cost as D grows)
    costs = [r["cost_usd"] for r in rows]
    assert all(b <= a + 1e-6 for a, b in zip(costs, costs[1:]))
    # headroom shrinks as the bound loosens
    head = [r["headroom_fraction"] for r in rows]
    assert all(b <= a + 1e-9 for a, b in zip(head, head[1:]))
    # the bound is honoured everywhere
    for r in rows:
        assert r["worst_latency_ms"] <= r["latency_bound_ms"] * (1 + 1e-9)

    with capsys.disabled():
        print()
        print(sla_sweep.report())
