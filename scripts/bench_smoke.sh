#!/usr/bin/env bash
# Local mirror of .github/workflows/bench.yml: run the benchmark smoke
# suite and leave the benchmark JSON at the repo root
# (BENCH_solvers.json / BENCH_full_day.json / BENCH_scaling.json /
# BENCH_service.json), then smoke the end-to-end harness
# (benchmarks/e2e) on all four workloads and run its self-tests.
# Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH=src
python -m pytest benchmarks/test_bench_solvers_micro.py -q \
    --benchmark-json=BENCH_solvers.json
python -m pytest benchmarks/test_bench_full_day.py -q \
    --benchmark-json=BENCH_full_day.json
python -m pytest benchmarks/test_bench_scaling.py -q
python -m pytest benchmarks/test_bench_service.py -q
python3 benchmarks/e2e/run.py paper_day --smoke
python3 benchmarks/e2e/run.py mc_1000 --smoke
python3 benchmarks/e2e/run.py fleet_1000 --smoke
python3 benchmarks/e2e/run.py daemon_day --smoke
python -m pytest -q benchmarks/e2e/test_harness.py

python - <<'EOF'
import json

for name in ("BENCH_solvers.json", "BENCH_full_day.json"):
    with open(name) as fh:
        data = json.load(fh)
    print(f"{name}:")
    for bench in data["benchmarks"]:
        print(f"  {bench['name']}: {bench['stats']['mean'] * 1e3:.2f} ms mean")

with open("BENCH_scaling.json") as fh:
    data = json.load(fh)
print("BENCH_scaling.json (structured vs reference kernels, per solve):")
for row in data["configs"]:
    print("  N={n_idcs} beta1={horizon_pred}: "
          "active-set warm x{w:.1f}, "
          "horizon assembly x{h:.1f}".format(
              w=row["active_set"]["speedup"],
              h=row["horizon_assembly"]["speedup"], **row))

sc = data["scenario_scaling"]
print("BENCH_scaling.json (batched fleet engine vs looped scalar):")
for row in sc["sweep"]:
    print("  S={n_scenarios}: batched x{speedup:.1f} "
          "(cost agreement {max_cost_reldiff:.1e})".format(**row))
fleet = sc["fleet"]
print("  S={n} fleet: {t:.2f} s = {r:.2f}x one scalar full day".format(
    n=fleet["n_scenarios"], t=fleet["batched_seconds"],
    r=fleet["vs_full_day"]))

mc = data["market_coupling"]
print("BENCH_scaling.json (market coupling, gamma > 0):")
for row in mc["independent_coupled_sweep"]:
    print("  S={n_scenarios} coupled: batched x{speedup:.1f} "
          "(cost agreement {max_cost_reldiff:.1e})".format(**row))
shared = mc["shared_fleet"]
print("  shared-market fleet: {n} lanes x {p} periods in {t:.2f} s "
      "= {r:.2f}x one scalar full day".format(
          n=shared["n_lanes"], p=shared["n_periods"],
          t=shared["batched_seconds"], r=shared["vs_full_day"]))
runs = mc["mitigation"]["runs"]
print("  mitigation (aggregate ramp, MW/period): " + ", ".join(
    "{k}={v:.2f}".format(k=k, v=v["aggregate_ramp_mw_mean"])
    for k, v in runs.items()))

fd = data["fleet_durability"]
print("BENCH_scaling.json (fleet durability, WAL + checkpoints):")
for key in ("batch", "shared_fleet"):
    row = fd[key]
    print("  {k}: S={n} durable x{o:.2f} plain "
          "({d:.2f} s vs {p:.2f} s, target <= {t:.1f}x)".format(
              k=key, n=row["n_lanes"], o=row["overhead"],
              d=row["durable_seconds"], p=row["plain_seconds"],
              t=fd["max_overhead_target"]))

with open("BENCH_service.json") as fh:
    svc = json.load(fh)
load = svc["sustained_load"]
print("BENCH_service.json (daemon under load, full day running):")
print("  {n} req in {t:.1f} s = {r:.0f} req/s "
      "(p50 {p50:.2f} ms, p99 {p99:.2f} ms), "
      "{dropped} dropped decisions".format(
          n=load["n_requests"], t=load["elapsed_seconds"],
          r=load["throughput_rps"], p50=load["p50_ms"],
          p99=load["p99_ms"], dropped=load["decisions_dropped"]))
over = svc["overload"]
print("  overload: {shed}/{n} shed 503, "
      "{ra} with Retry-After, healthz {hz}".format(
          shed=over["n_shed_503"], n=over["n_requests"],
          ra=over["retry_after_present"],
          hz=over["healthz_status_at_saturation"]))
EOF
