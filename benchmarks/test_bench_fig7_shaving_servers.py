"""Fig. 7(a-c): turned-ON servers under power peak shaving."""

import numpy as np

from repro.experiments import fig7_shaving_servers


def test_bench_fig7(capsys):
    data = fig7_shaving_servers.run()

    opt = data["optimal_servers"]
    mpc = data["mpc_servers"]
    fleets = np.array([30000, 40000, 20000])

    # fleet bounds always respected
    for run in (opt, mpc):
        assert np.all(run >= 0)
        assert np.all(run <= fleets)

    # Shaving changes the settled server mix: the budget-limited IDCs
    # keep fewer servers ON than the optimal policy, the slack IDC more.
    diff = opt[-1] - mpc[-1]
    assert diff.max() > 100     # someone runs fewer servers under budgets
    assert diff.min() < -100    # someone absorbs the displaced load

    # Total served workload is conserved, so total service capacity in
    # servers*mu terms cannot collapse: total ON-servers stays in a sane
    # band around the optimal's.
    mus = np.array([2.0, 1.25, 1.75])
    cap_opt = (opt[-1] * mus).sum()
    cap_mpc = (mpc[-1] * mus).sum()
    assert abs(cap_mpc - cap_opt) / cap_opt < 0.05

    with capsys.disabled():
        print()
        print(fig7_shaving_servers.report())
