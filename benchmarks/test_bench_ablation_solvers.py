"""Ablation: active-set vs ADMM QP backends inside the MPC loop."""

from repro.experiments.ablations import solver_comparison


def test_bench_solver_comparison(capsys):
    data = solver_comparison()

    # The two backends must agree on the settled operating point.
    assert data["max_power_disagreement_mw"] < 0.05
    # And on the bill.
    a, b = data["active_set"]["cost_usd"], data["admm"]["cost_usd"]
    assert abs(a - b) / a < 0.01
    # ADMM finishes by the active-set polish, mostly at iteration 1; a
    # return to grinding to tolerance (thousands a solve) fails here.
    assert data["admm"]["mean_qp_iterations"] <= 3.0

    with capsys.disabled():
        print()
        for backend in ("active_set", "admm"):
            d = data[backend]
            print(f"  {backend:<11s} {d['seconds']:.3f}s  "
                  f"cost={d['cost_usd']:.2f} USD  "
                  f"mean_qp_iters={d['mean_qp_iterations']:.1f}")
        print(f"  settled-power disagreement: "
              f"{data['max_power_disagreement_mw']:.5f} MW")
