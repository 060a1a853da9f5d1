"""Tables I–III: regenerate the experimental configuration tables."""

import numpy as np

from repro.experiments import tables


def test_bench_tables(capsys):
    data = tables.run()

    # Table I — portal workloads
    np.testing.assert_allclose(data["portal_loads"],
                               [30000, 15000, 15000, 20000, 20000])
    # Table II — fleets and service rates
    np.testing.assert_allclose(data["idc_fleets"], [30000, 40000, 20000])
    np.testing.assert_allclose(data["service_rates"], [2.0, 1.25, 1.75])
    # Table III — prices at 6H and 7H, exact
    np.testing.assert_allclose(data["prices_6h"], [43.26, 30.26, 19.06])
    np.testing.assert_allclose(data["prices_7h"], [49.90, 29.47, 77.97])

    with capsys.disabled():
        print()
        print(tables.report())
