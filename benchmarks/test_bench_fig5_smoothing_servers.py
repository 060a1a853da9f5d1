"""Fig. 5(a-c): turned-ON servers under power demand smoothing."""

import numpy as np

from repro.experiments import fig5_smoothing_servers


def test_bench_fig5(capsys):
    data = fig5_smoothing_servers.run()

    opt = data["optimal_servers"]
    mpc = data["mpc_servers"]

    # The optimal policy switches thousands of servers in one period
    # (e.g. Wisconsin releases ~19k servers at the price change)...
    opt_steps = np.abs(np.diff(opt, axis=0)).max(axis=0)
    assert opt_steps.max() > 10_000
    # ...while the dynamic control turns them on/off gradually.
    mpc_steps = np.abs(np.diff(mpc, axis=0)).max(axis=0)
    assert np.all(mpc_steps < opt_steps + 1)
    big = int(np.argmax(opt_steps))
    assert mpc_steps[big] < 0.5 * opt_steps[big]

    # Server counts always within fleet bounds.
    fleets = np.array([30000, 40000, 20000])
    for run in (opt, mpc):
        assert np.all(run >= 0)
        assert np.all(run <= fleets)

    # Both settle at the same server configuration.
    np.testing.assert_allclose(mpc[-1], opt[-1], rtol=0.05, atol=100)

    with capsys.disabled():
        print()
        print(fig5_smoothing_servers.report())
