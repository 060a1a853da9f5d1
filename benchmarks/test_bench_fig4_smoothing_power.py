"""Fig. 4(a-c): power consumption under power demand smoothing."""

import numpy as np

from repro.experiments import fig4_smoothing_power


def test_bench_fig4(capsys):
    data = fig4_smoothing_power.run()

    opt = data["optimal_mw"]
    mpc = data["mpc_mw"]

    # The optimal policy's demand is a step function at the 7H price
    # adjustment: first and last levels differ by megawatts...
    total_jump = np.abs(opt[-1] - opt[0])
    assert total_jump.max() > 5.0  # Minnesota's ~9.6 MW jump
    # ...taken in a single period.
    for j in range(3):
        steps = np.abs(np.diff(opt[:, j]))
        if total_jump[j] > 0.01:
            assert steps.max() > 0.99 * total_jump[j]

    # The dynamic control ramps: its largest step is a fraction of the
    # optimal's on every IDC, and less than half on the biggest mover.
    ramps_opt = np.abs(np.diff(opt, axis=0)).max(axis=0)
    ramps_mpc = np.abs(np.diff(mpc, axis=0)).max(axis=0)
    assert np.all(ramps_mpc < ramps_opt)
    big = int(np.argmax(ramps_opt))
    assert ramps_mpc[big] < 0.5 * ramps_opt[big]

    # Both end at the same (new) optimal operating point.
    np.testing.assert_allclose(mpc[-1], opt[-1], rtol=0.03, atol=0.05)

    with capsys.disabled():
        print()
        print(fig4_smoothing_power.report())
