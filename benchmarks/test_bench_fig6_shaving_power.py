"""Fig. 6(a-c): power consumption under power peak shaving."""

import numpy as np

from repro.experiments import fig6_shaving_power


def test_bench_fig6(capsys):
    data = fig6_shaving_power.run()

    budgets = data["budgets_mw"]
    opt = data["optimal_mw"]
    mpc = data["mpc_mw"]

    # The optimal policy violates at least one budget after the price
    # adjustment (the paper: two of three violate).  Binding = the
    # *settled* optimal exceeds the budget.
    violated_by_opt = [j for j in range(3)
                       if opt[-1, j] > budgets[j] * 1.001]
    assert len(violated_by_opt) >= 1

    # The dynamic control settles at or below every budget.
    settled = mpc[-5:]
    assert np.all(settled <= budgets * 1.005)

    # Budget-binding IDCs are tracked *at* their budgets (not far below):
    for j in violated_by_opt:
        assert settled[:, j].mean() > 0.95 * budgets[j]

    # The IDC with slack absorbs the displaced load: it converges between
    # its own optimal value and its budget.
    slack = [j for j in range(3) if j not in violated_by_opt]
    for j in slack:
        final = mpc[-1, j]
        assert final < budgets[j]
        assert final > opt[-1, j]  # above what pure cost-chasing gives it

    with capsys.disabled():
        print()
        print(fig6_shaving_power.report())
