"""Ablation: the Section-I demand->price 'vicious cycle'."""

from repro.experiments.ablations import price_feedback_study


def test_bench_price_feedback(capsys):
    data = price_feedback_study()
    rows = {r["sensitivity"]: r for r in data["rows"]}

    # With prices coupled to demand, naive greedy chasing gets *more*
    # volatile as the coupling strengthens...
    assert rows[0.5]["greedy_volatility_kw"] \
        >= rows[0.0]["greedy_volatility_kw"]
    # ...and at the strongest coupling the MPC is the calmer policy.
    assert rows[0.5]["mpc_volatility_kw"] < rows[0.5]["greedy_volatility_kw"]

    with capsys.disabled():
        print()
        for gamma, r in rows.items():
            print(f"  gamma={gamma:<4} greedy_vol={r['greedy_volatility_kw']:8.2f} kW"
                  f"  mpc_vol={r['mpc_volatility_kw']:8.2f} kW"
                  f"  greedy_peak={r['greedy_peak_mw']:.3f} MW"
                  f"  mpc_peak={r['mpc_peak_mw']:.3f} MW")
