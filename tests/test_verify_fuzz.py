"""Scenario fuzzer: determinism, clean runs, and failure shrinking."""

import numpy as np

from repro.sim import Scenario
from repro.verify import build_scenario, fuzz_many, generate_spec, run_spec, shrink


class TestGenerate:
    def test_same_seed_same_spec(self):
        assert generate_spec(42) == generate_spec(42)

    def test_different_seeds_differ(self):
        assert generate_spec(1) != generate_spec(2)

    def test_specs_are_json_plain(self):
        import json
        spec = generate_spec(3)
        assert json.loads(json.dumps(spec)) == spec

    def test_budgets_and_faults_never_combined(self):
        # Budget feasibility is only provable without outages, so the
        # generator keeps the two features mutually exclusive.
        for seed in range(40):
            spec = generate_spec(seed)
            assert not (spec["budget_fraction"] is not None
                        and spec["faults"])

    def test_build_scenario_produces_a_runnable_scenario(self):
        spec = generate_spec(5)
        scenario, cfg = build_scenario(spec)
        assert isinstance(scenario, Scenario)
        assert scenario.dt == spec["dt"]
        assert cfg.certify


class TestRunSpec:
    def test_seed_zero_runs_clean(self):
        outcome = run_spec(generate_spec(0), oracle_samples=1)
        assert outcome.ok, outcome.describe()
        assert outcome.certificates_checked > 0
        assert outcome.violations == []

    def test_outcome_dict_is_serializable(self):
        import json
        outcome = run_spec(generate_spec(0), oracle_samples=0)
        d = outcome.to_dict()
        json.dumps(d)
        assert d["ok"] is True
        assert d["spec"]["seed"] == 0

    def test_fuzz_many_report(self):
        report = fuzz_many(2, base_seed=0, oracle_samples=0,
                           shrink_failures=False)
        assert report["n_seeds"] == 2
        assert report["n_failed"] == 0
        assert len(report["outcomes"]) == 2


class TestShrink:
    def test_shrink_minimizes_against_a_predicate(self):
        # Pretend the bug is "any scenario with a fault schedule": shrink
        # must strip everything else while keeping a fault present.
        spec = None
        for seed in range(50):
            candidate = generate_spec(seed)
            if candidate.get("faults"):
                spec = candidate
                break
        assert spec is not None, "no faulted spec in the first 50 seeds"

        def is_failing(s):
            return bool(s.get("faults"))

        minimal = shrink(spec, is_failing=is_failing)
        assert minimal["faults"]
        assert is_failing(minimal)
        # everything strippable without losing the "bug" must be gone
        assert minimal["budget_fraction"] is None
        # halving stops once it would clip the fault away entirely
        assert minimal["n_periods"] <= spec["n_periods"]
        assert minimal["backend"] == "active_set"

    def test_shrink_returns_spec_unchanged_when_nothing_helps(self):
        spec = generate_spec(4)

        def is_failing(s):
            return s == spec  # only the exact spec "fails"

        assert shrink(spec, is_failing=is_failing) == spec


class TestSoundness:
    def test_generated_loads_fit_worst_case_capacity(self):
        # Feasibility-by-construction: even under the deepest outage the
        # total load must stay within latency-bounded capacity.
        from repro.verify.fuzz import _CAPACITY_HEADROOM, _worst_case_capacity

        for seed in range(25):
            spec = generate_spec(seed)
            cap = _worst_case_capacity(spec["faults"])
            peak = float(np.max(np.sum(spec["portal_traces"], axis=0)))
            # round-to-0.1 in the generator can add up to 0.05 per portal
            assert peak <= cap * _CAPACITY_HEADROOM + 0.5


class TestChaos:
    def test_chaos_spec_is_deterministic_and_json_plain(self):
        import json
        spec = generate_spec(7, chaos=True)
        assert spec == generate_spec(7, chaos=True)
        assert json.loads(json.dumps(spec)) == spec
        assert "chaos" in spec
        assert spec["budget_fraction"] is None  # never budgets in chaos

    def test_chaos_fault_windows_leave_recovery_margin(self):
        from repro.verify.fuzz import _CHAOS_RECOVERY_MARGIN

        for seed in range(30):
            spec = generate_spec(seed, chaos=True)
            limit = spec["n_periods"] - _CHAOS_RECOVERY_MARGIN
            for f in spec["faults"]:
                assert f["end_period"] <= limit
            ch = spec["chaos"]
            for window in ch["price_dropouts"] + ch["sensor_gaps"]:
                assert window["end_period"] <= limit
            assert ch["quiet_after_period"] <= limit

    def test_chaos_build_arms_the_resilience_stack(self):
        spec = generate_spec(3, chaos=True)
        scenario, cfg = build_scenario(spec)
        assert cfg.fallback_ladder
        assert cfg.deadline_seconds is not None
        assert not cfg.certify  # degraded iterates aren't KKT-optimal

    def test_chaos_run_is_deterministic(self):
        a = run_spec(generate_spec(1, chaos=True))
        b = run_spec(generate_spec(1, chaos=True))
        assert a.to_dict() == b.to_dict()

    def test_chaos_seed_zero_survives_and_recovers(self):
        outcome = run_spec(generate_spec(0, chaos=True))
        assert outcome.ok, outcome.describe()
        assert outcome.chaos
        assert outcome.recovered
        assert not outcome.nan_detected
        assert outcome.final_state == "nominal"
        # Every period either resolved on a ladder rung or (when every
        # rung failed) got the supervisor's safe decision.
        total_rungs = sum(v for k, v in outcome.rung_counters.items()
                          if k.startswith("ladder_rung_"))
        safe = outcome.rung_counters.get("supervisor_safe_decisions", 0)
        assert total_rungs + safe == outcome.spec["n_periods"]

    def test_chaos_fuzz_many_aggregates_rungs(self):
        report = fuzz_many(2, oracle_samples=0, shrink_failures=False,
                           chaos=True)
        assert report["chaos"] is True
        assert report["unrecovered"] == 0
        assert sum(v for k, v in report["rung_counters"].items()
                   if k.startswith("ladder_rung_")) > 0

    def test_chaos_shrink_candidates_strip_injection_layers(self):
        from repro.verify.fuzz import _shrink_candidates

        spec = generate_spec(0, chaos=True)
        names = [name for name, _ in _shrink_candidates(spec)]
        assert "drop_chaos" in names
        assert "drop_solver_faults" in names
