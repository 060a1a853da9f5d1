"""Ablation: the Q/R compromise — smoothing strength vs cost premium."""

from repro.experiments.ablations import r_weight_sweep


def test_bench_r_weight_sweep(capsys):
    data = r_weight_sweep()
    rows = data["rows"]

    # Larger R must monotonically reduce the worst power jump...
    ramps = [r["max_ramp_mw"] for r in rows]
    assert all(b <= a * 1.05 for a, b in zip(ramps, ramps[1:]))
    # ...every setting smooths relative to the optimal policy...
    assert all(r["max_ramp_mw"] < data["optimal_max_ramp_mw"]
               for r in rows)
    # ...at a monotonically growing but bounded electricity-cost premium.
    premiums = [r["cost_premium_pct"] for r in rows]
    assert all(b >= a - 1e-6 for a, b in zip(premiums, premiums[1:]))
    assert all(-1e-6 < p < 30.0 for p in premiums)

    with capsys.disabled():
        print()
        for r in rows:
            print(f"  r={r['r_weight']:<8g} max_ramp={r['max_ramp_mw']:.3f} MW"
                  f"  cost={r['cost_usd']:.2f} USD"
                  f"  premium={r['cost_premium_pct']:+.2f}%")
        print(f"  optimal: max_ramp={data['optimal_max_ramp_mw']:.3f} MW"
              f"  cost={data['optimal_cost_usd']:.2f} USD")
