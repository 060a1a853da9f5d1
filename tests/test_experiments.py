"""Tests for the experiment-regeneration modules (repro.experiments)."""

import numpy as np
import pytest

from repro.experiments import (
    fig2_prices,
    fig3_prediction,
    fig4_smoothing_power,
    fig5_smoothing_servers,
    fig6_shaving_power,
    fig7_shaving_servers,
    full_day,
    tables,
)
from repro.experiments.common import (
    ExperimentRuns,
    series_table,
    shaving_runs,
    smoothing_runs,
)


class TestTables:
    def test_run_payload(self):
        data = tables.run()
        assert data["portal_loads"].sum() == 100000.0
        np.testing.assert_allclose(data["prices_6h"],
                                   [43.26, 30.26, 19.06])

    def test_reports_render(self):
        text = tables.report()
        assert "Table I" in text
        assert "Table II" in text
        assert "Table III" in text
        assert "43.260" in text or "43.26" in text


class TestFig2:
    def test_run_payload(self):
        data = fig2_prices.run()
        assert set(data["series"]) == {"michigan", "minnesota", "wisconsin"}
        assert data["spatial_diversity"].shape == (24,)
        assert np.all(data["spatial_diversity"] >= 0)

    def test_report(self):
        text = fig2_prices.report()
        assert "Fig. 2" in text
        assert "spread" in text


class TestFig3:
    def test_accuracy_payload(self):
        data = fig3_prediction.run()
        assert data["original"].shape == data["predicted"].shape
        assert 0 < data["relative_mae"] < 0.2
        assert data["mae"] <= data["rmse"]

    def test_deterministic(self):
        a = fig3_prediction.run()
        b = fig3_prediction.run()
        assert a["mae"] == b["mae"]

    def test_report(self):
        text = fig3_prediction.report()
        assert "Fig. 3" in text
        assert "MAE" in text


class TestFullDay:
    """Every policy over the whole 24-hour trace (5-minute periods)."""

    @pytest.fixture(scope="class")
    def rows(self):
        return {r["policy"]: r for r in full_day.run()["rows"]}

    def test_policy_ordering(self, rows):
        # the optimal policy is the daily cost floor
        floor = rows["optimal"]["cost_usd"]
        for name, r in rows.items():
            assert r["cost_usd"] >= floor - 1e-6, name
        # the MPC stays within a few percent of it over the whole day...
        assert rows["mpc"]["cost_usd"] <= floor * 1.05
        # ...with a smaller worst ramp than the step-reallocating policies
        assert rows["mpc"]["worst_ramp_mw"] \
            < rows["optimal"]["worst_ramp_mw"]
        assert rows["mpc"]["worst_ramp_mw"] < rows["greedy"]["worst_ramp_mw"]
        # price-oblivious splits pay the most
        assert rows["uniform"]["cost_usd"] > rows["mpc"]["cost_usd"]
        # everyone serves the workload without overloads
        for r in rows.values():
            assert r["qos_violations"] == 0

    def test_mpc_caches_warm_start_and_ladder_engage(self, rows):
        # The horizon operators are price-invariant, so one model build
        # serves all 24 price hours, and the warm-started batched ADMM
        # lands nearly every period on its first iteration without the
        # exact straggler solve.
        perf = rows["mpc"]["perf"]["counters"]
        n_periods = perf["qp_solves"]
        assert n_periods == 288
        assert perf["model_cache_hits"] + perf["model_cache_misses"] == 1
        assert perf["qp_iterations"] < 2 * n_periods
        assert perf.get("straggler_fallbacks", 0) == 0
        # The fallback ladder is armed; on a healthy day every period
        # resolves on the first (warm) rung with zero failures.
        assert perf["ladder_rung_warm"] == n_periods
        for rung in ("cold", "admm", "reference", "hold"):
            assert perf.get(f"ladder_rung_{rung}", 0) == 0
        assert not any(k.startswith("ladder_failures_") and v
                       for k, v in perf.items())


class TestCommon:
    def test_smoothing_runs_pairing(self):
        runs = smoothing_runs(dt=60.0, duration=300.0)
        assert isinstance(runs, ExperimentRuns)
        assert runs.optimal.n_periods == runs.mpc.n_periods == 5
        np.testing.assert_allclose(runs.minutes,
                                   [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_shaving_runs_budget_attached(self):
        runs = shaving_runs(dt=60.0, duration=300.0)
        # MPC run must differ from the unconstrained optimal
        assert not np.allclose(runs.mpc.powers_watts,
                               runs.optimal.powers_watts)

    def test_series_table_renders(self):
        text = series_table(np.array([0.0, 0.5]),
                            {"a": np.array([1.0, 2.0])},
                            title="T", unit="MW")
        assert "T" in text and "a (MW)" in text


@pytest.mark.parametrize("module,claim", [
    (fig4_smoothing_power, "ramp_reduction"),
    (fig5_smoothing_servers, "max_step"),
    (fig6_shaving_power, "violations"),
    (fig7_shaving_servers, "final_gap"),
])
def test_figure_modules_run_and_report(module, claim):
    data = module.run(dt=60.0, duration=300.0)
    assert claim in data
    assert data["minutes"].size == 5
    text = module.report()
    assert "Fig." in text
