"""Ablation: the paper's reference clamping vs budget-aware LP references."""

import numpy as np

from repro.experiments.ablations import budget_mode_comparison


def test_bench_budget_modes(capsys):
    data = budget_mode_comparison()
    rows = {r["mode"]: r for r in data["rows"]}
    budgets = data["budgets_mw"]

    # The LP-based reference settles within every budget.
    assert np.all(rows["lp"]["settled_powers_mw"] <= budgets * 1.005)
    # Clamping shaves only partially: it leaves some residual excess at
    # the binding IDCs (that is exactly why the LP variant exists)...
    assert rows["clamp"]["budget_excess_mw"] \
        >= rows["lp"]["budget_excess_mw"] - 1e-9
    # ...but it is cheaper or equal, since it respects the budget less.
    assert rows["clamp"]["cost_usd"] <= rows["lp"]["cost_usd"] * 1.02

    with capsys.disabled():
        print()
        print(f"  budgets          : {np.round(budgets, 3).tolist()} MW")
        for mode, r in rows.items():
            print(f"  {mode:<6s} settled {np.round(r['settled_powers_mw'], 3).tolist()}"
                  f" MW  excess={r['budget_excess_mw']:.3f} MW"
                  f"  cost={r['cost_usd']:.2f} USD")
