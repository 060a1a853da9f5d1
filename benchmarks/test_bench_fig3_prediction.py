"""Fig. 3: original vs RLS-AR-predicted workload."""

from repro.experiments import fig3_prediction


def test_bench_fig3(capsys):
    data = fig3_prediction.run()

    # the figure's qualitative claim: prediction accurately captures the
    # workload — one-step error is a small fraction of the signal
    assert data["relative_mae"] < 0.10
    # prediction is unbiased enough to track the diurnal range
    assert data["predicted"].max() > 0.8 * data["original"].max()
    # trace matches the figure's axes: 24 h, peak around 2000 requests
    assert data["hours"][-1] < 24.0
    assert 1500 <= data["original"].max() <= 3500

    with capsys.disabled():
        print()
        print(fig3_prediction.report())
