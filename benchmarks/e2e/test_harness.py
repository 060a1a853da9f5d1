"""Self-tests of the e2e benchmark harness.

Run from the root of a checkout::

    python3 -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.require_repro()

import compare  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import repro.sim as sim  # noqa: E402


def _run(*args, cwd=common.ROOT, timeout=170):
    cmd = [sys.executable, str(Path(cwd) / "benchmarks" / "e2e" / "run.py"),
           *args]
    return subprocess.run(cmd, cwd=str(cwd), capture_output=True,
                          text=True, timeout=timeout)


def _summary(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_size_of_every_workload_finishes_under_60s(workload):
    t0 = time.monotonic()
    proc = _run("--workload", workload, "--seed", "0", "--seconds", "1",
                "--smoke", "--trace", "0")
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = _summary(proc)
    assert summary["correct"] is True
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == {n for n, _ in run.E2E_METRICS}
    assert all(m["value"] > 0 for m in summary["metrics"].values())
    assert elapsed < 60.0


def test_wrong_golden_cost_exits_nonzero(tmp_path):
    golden = common.load_json(common.GOLDEN_JSON)
    golden["paper_day"]["0"]["cost_usd"] *= 1.0 + 1e-6
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    proc = _run("--workload", "paper_day", "--seed", "0", "--seconds",
                "0.5", "--golden", str(path))
    assert proc.returncode == 1
    assert _summary(proc)["correct"] is False
    assert "golden" in proc.stdout


def test_an_exception_in_a_unit_prints_a_failed_result(monkeypatch, capsys):
    class Broken(workloads.PaperDay):
        def unit(self):
            raise RuntimeError("run day-001 ended failed")

    monkeypatch.setattr(run, "make_workload",
                        lambda name, seed, smoke: Broken(seed, smoke))
    code = run.main(["--workload", "paper_day", "--seed", "0", "--smoke",
                     "--seconds", "0.1", "--trace", "0"])
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert summary["correct"] is False
    assert summary["attempted"] >= 1 and summary["failed"] >= 1


def test_checkout_without_the_program_fails_before_any_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "paper_day", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_the_metrics_the_command_prints():
    spec = common.load_json(common.BENCHMARK_JSON)
    assert [m["name"] for m in spec["end_to_end"]] \
        == [n for n, _ in run.E2E_METRICS]
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} \
        == set(tracer.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


# ---------------------------------------------------------------------------
# proxies
# ---------------------------------------------------------------------------
def test_every_proxy_target_resolves():
    resolved = tracer.resolve_targets()
    assert len(resolved) == len(tracer.TARGETS)


@pytest.mark.parametrize("target", [
    tracer.Target("x.missing", "repro.sim.engine:no_such_function"),
    tracer.Target("x.missing", "repro.sim.fleet:SharedMarketFleet.no_such"),
    tracer.Target("x.missing", "repro.no_such_module:f"),
    tracer.Target("x.site", "repro.optim.qp_activeset:solve_qp",
                  ("repro.core.reference_opt",)),
])
def test_a_missing_target_fails_loudly(target):
    with pytest.raises(tracer.TraceTargetError):
        tracer.resolve_targets([target])
    recorder = tracer.SpanRecorder()
    with pytest.raises(tracer.TraceTargetError):
        tracer.Proxies(recorder, [target]).install()


def test_proxies_leave_costs_bit_identical_and_remove_cleanly():
    import repro.control.mpc as mpc
    import repro.core.controller as controller
    original_qp = mpc.solve_qp
    original_decide = controller.CostMPCPolicy.__dict__["decide"]
    cases = [workloads.PaperDay(0, smoke=True),
             workloads.MonteCarlo(0, smoke=True),
             workloads.FleetDay(0, smoke=True)]
    for wl in cases:
        wl.setup()
        before = wl.unit()
        recorder = tracer.SpanRecorder()
        with tracer.Proxies(recorder):
            assert mpc.solve_qp is not original_qp
            traced = wl.unit()
        after = wl.unit()
        assert recorder.spans, wl.name
        assert workloads.same_signature(before.signature, traced.signature)
        assert workloads.same_signature(before.signature, after.signature)
    assert mpc.solve_qp is original_qp
    assert controller.CostMPCPolicy.__dict__["decide"] is original_decide


def _inclusive(spans, name) -> float:
    return sum(s[2] - s[1] for s in spans if s is not None and s[0] == name)


def test_traced_stage_times_agree_with_perfstats_stage_timers():
    """Spans taken from outside match the program's own stage timers.

    ``mpc_solve``, ``fleet_clearing`` and ``fleet_mpc`` each wrap one
    proxied call and must agree within 10 %.  ``model`` and
    ``reference`` also wrap private work no proxy sees (constraint
    assembly, the reference cache), so their proxied calls must fit
    inside the stage.
    """
    PaperDay = workloads.PaperDay
    scenario = sim.paper_scenario(dt=300.0, duration=86400.0, start_hour=0.0)
    recorder = tracer.SpanRecorder()
    with tracer.Proxies(recorder):
        result = sim.run_simulation(scenario, PaperDay.policy(scenario))
    stages = result.perf["stage_seconds"]
    spans = recorder.spans
    ladder = _inclusive(spans, "resilience.FallbackLadder.run")
    assert ladder == pytest.approx(stages["mpc_solve"], rel=0.10)
    assert _inclusive(spans, "core.CostModelBuilder.discrete") \
        <= 1.10 * stages["model"]
    assert _inclusive(spans, "core.solve_optimal_allocation") \
        <= 1.10 * stages["reference"]

    fleet = workloads.FleetDay(0)
    fleet.n_lanes, fleet.n_periods = 200, 48
    recorder = tracer.SpanRecorder()
    with tracer.Proxies(recorder):
        out = fleet._fleet(fleet.n_lanes).run(fleet.n_periods)
    stages = out.perf["stage_seconds"]
    spans = recorder.spans
    assert _inclusive(spans, "pricing.clear_fixed_point") \
        == pytest.approx(stages["fleet_clearing"], rel=0.10)
    assert _inclusive(spans, "core.BatchCostMPCPolicy.decide_batch") \
        == pytest.approx(stages["fleet_mpc"], rel=0.10)


def test_self_time_subtracts_child_spans_and_coverage_unions_tops():
    spans = [("sim.run_simulation", 0.0, 10.0, -1, 1, None),
             ("core.CostMPCPolicy.decide", 1.0, 4.0, 0, 1, None),
             ("core.CostMPCPolicy.decide", 5.0, 6.0, 0, 1, None),
             ("optim.solve_qp", 2.0, 3.0, 1, 1, None),
             None,                                   # still open
             ("sim.run_simulation", 8.0, 12.0, -1, 2, None),
             ("sim.run_simulation", 30.0, 31.0, -1, 1, None)]  # untimed
    out = tracer.layer_metrics(spans, [(0.0, 20.0)], 1)
    assert out["sim.run_simulation.calls"] == 2
    assert out["sim.run_simulation.self_s"] == pytest.approx(6.0 + 4.0)
    assert out["core.CostMPCPolicy.decide.self_s"] == pytest.approx(3.0)
    assert out["core.CostMPCPolicy.decide.p99_ms"] == pytest.approx(3000.0)
    assert out["optim.solve_qp.self_s"] == pytest.approx(1.0)
    assert out["optim.linprog.calls"] == 0
    assert out["trace.coverage"] == pytest.approx(12.0 / 20.0)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
SPEC = {"end_to_end": [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def _runs(values, failed=0):
    return [{"kind": "e2e-result", "workload": "w", "trace": False,
             "metrics": {"run_s": {"value": v, "unit": "s"}},
             "error_rate": {"failed": failed, "attempted": 100}}
            for v in values]


def _verdict(old, new, **kw):
    rows = compare.compare(_runs(old), _runs(new, **kw), SPEC)
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_verdicts_on_synthetic_inputs():
    steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in steady]
    slower = [v * 1.2 for v in steady]
    noisy = [1.0, 1.4, 0.8, 1.3, 0.7, 1.2, 0.9, 1.5, 0.75, 1.1]
    assert _verdict(steady, faster)["run_s"] == "improved"
    assert _verdict(steady, slower)["run_s"] == "regressed"
    assert _verdict(steady, noisy)["run_s"] == "unresolved"
    assert _verdict(steady, list(reversed(steady)))["run_s"] == "unchanged"
    assert _verdict(steady, steady, failed=1)["error_rate"] == "regressed"
    assert _verdict(steady, steady)["error_rate"] == "unchanged"


def test_compare_counts_fleet_nonconverged_clearings_as_errors():
    def fleet(nonconverged):
        runs = _runs([1.0] * 5)
        for r in runs:
            r["error_rate"] = {"failed": 0, "attempted": 288,
                               "clearing_nonconverged": nonconverged,
                               "clearing_periods": 288}
        return runs

    rows = compare.compare(fleet(120), fleet(121), SPEC)
    row = {r["metric"]: r for r in rows}["error_rate"]
    assert row["verdict"] == "regressed"
    assert (row["new"]["count"], row["new"]["base"]) == (5 * 121, 5 * 288)
    rows = compare.compare(fleet(120), fleet(120), SPEC)
    assert {r["metric"]: r for r in rows}["error_rate"]["verdict"] \
        == "unchanged"


def test_compare_reads_result_lines_from_run_output(tmp_path):
    path = tmp_path / "old.txt"
    lines = ["# paper_day seed=0", "run_s = 1 s"]
    lines += [json.dumps(r) for r in _runs([1.0, 1.1])]
    lines.append(json.dumps({"correct": True, "attempted": 1, "failed": 0,
                             "metrics": {}}))
    path.write_text("\n".join(lines) + "\n")
    assert [r["metrics"]["run_s"]["value"]
            for r in compare.load_runs(path)] == [1.0, 1.1]
