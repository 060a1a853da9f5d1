#!/usr/bin/env python3
"""Fleet-scale Monte Carlo: 1000 noisy replicas of the price-step day.

How robust is the MPC's cost advantage to price and workload
uncertainty?  This example samples 1000 scenario-constant perturbations
of the paper's Sec. V experiment (every region's hourly price trace and
every portal's workload scaled by Gaussian noise) and runs all of them
through the batched engine — the whole fleet advances as stacked
tensors sharing one KKT factorization, so the study costs less
wall-clock than a single scalar full-day simulation.

Run:  python examples/monte_carlo_fleet.py
"""

import time

import numpy as np

from repro.analysis import ascii_chart, render_table
from repro.core import MPCPolicyConfig
from repro.sim import monte_carlo_scenarios, run_batch


def main() -> None:
    n = 1000
    scenarios = monte_carlo_scenarios(n, seed=0)

    t0 = time.perf_counter()
    # "waterfill" warm start: the vectorized period-0 reference solve,
    # the right mode at Monte-Carlo widths (the default "exact" mode
    # solves one scalar LP per lane to match looped runs exactly)
    results = run_batch(scenarios, MPCPolicyConfig(dt=30.0),
                        warm_start="waterfill")
    elapsed = time.perf_counter() - t0

    costs = np.array([r.total_cost_usd for r in results])
    peaks = np.array([r.powers_watts.sum(axis=1).max() for r in results]) / 1e6
    lo, hi = np.percentile(costs, [5, 95])

    print(render_table(
        ["metric", "value"],
        [
            ["scenarios", n],
            ["wall-clock (s)", round(elapsed, 2)],
            ["scenarios / second", round(n / elapsed)],
            ["cost mean (USD, 10 min)", round(float(costs.mean()), 2)],
            ["cost std (USD)", round(float(costs.std()), 2)],
            ["cost 5%..95% (USD)", f"{lo:.2f} .. {hi:.2f}"],
            ["peak total power mean (MW)", round(float(peaks.mean()), 2)],
        ],
        title="Batched 1000-scenario Monte Carlo (price x workload noise)"))

    counts, edges = np.histogram(costs, bins=24)
    print()
    print("Cost distribution across the fleet (USD for the 10-min window,")
    print(f"bins {edges[0]:.0f}..{edges[-1]:.0f}):")
    print(ascii_chart({"scenarios": counts.astype(float)}, height=10))

    shared = results[0].perf["batch_stage_seconds"]
    print()
    print("Where the batch spent its time (shared across all lanes):")
    for stage in sorted(shared, key=shared.get, reverse=True):
        print(f"  {stage:<18} {shared[stage] * 1e3:8.1f} ms")
    print()
    print("Every lane still gets its own SimulationResult: per-scenario")
    print("trajectories, billing, diagnostics and isolated perf counters.")


if __name__ == "__main__":
    main()
