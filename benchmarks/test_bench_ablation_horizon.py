"""Ablation: prediction-horizon length."""

from repro.experiments.ablations import horizon_sweep


def test_bench_horizon_sweep(capsys):
    data = horizon_sweep()
    rows = data["rows"]

    # Every horizon yields a working controller whose cost is at least
    # the optimal policy's (nothing beats per-step re-optimization).
    assert all(r["cost_usd"] >= data["optimal_cost_usd"] - 1e-6
               for r in rows)
    # Longer horizons converge faster: electricity cost is monotonically
    # nonincreasing in beta1 ...
    costs = [r["cost_usd"] for r in rows]
    assert all(b <= a * 1.001 for a, b in zip(costs, costs[1:]))
    # ... while every horizon still moves in smaller steps than the
    # optimal policy's jump.
    assert all(r["max_ramp_mw"] < data["optimal_max_ramp_mw"]
               for r in rows)

    with capsys.disabled():
        print()
        for r in rows:
            print(f"  beta1={r['horizon_pred']:<3d} beta2={r['horizon_ctrl']}"
                  f"  max_ramp={r['max_ramp_mw']:.3f} MW"
                  f"  cost={r['cost_usd']:.2f} USD")
        print(f"  optimal: max_ramp={data['optimal_max_ramp_mw']:.3f} MW"
              f"  cost={data['optimal_cost_usd']:.2f} USD")
