"""Fig. 2: real-time electricity prices in the three regions."""

import numpy as np

from repro.experiments import fig2_prices


def test_bench_fig2(capsys):
    data = fig2_prices.run()

    series = data["series"]
    # 24 hourly points per region, within the figure's axis range
    for name in ("michigan", "minnesota", "wisconsin"):
        assert series[name].size == 24
        assert series[name].min() >= -40.0
        assert series[name].max() <= 100.0
    # the overnight negative dip is visible in the figure
    assert series["wisconsin"].min() < 0.0
    # the 6H -> 7H Wisconsin spike that drives the experiments
    assert series["wisconsin"][7] - series["wisconsin"][6] > 50.0
    # spatial diversity is what geographic load balancing exploits:
    # a meaningful spread exists in most hours
    assert np.median(data["spatial_diversity"]) > 5.0

    with capsys.disabled():
        print()
        print(fig2_prices.report())
