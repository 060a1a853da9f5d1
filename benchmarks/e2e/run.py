"""End-to-end benchmark: one command per workload run.

Usage (from the root of a checkout)::

    python3 benchmarks/e2e/run.py --workload paper_day --seed 0 \\
        --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py mc_1000 --seed 1 --trace spans.json

Workloads: ``paper_day``, ``mc_1000``, ``fleet_1000``, ``daemon_day``
(see README.md).  A run

1. builds the workload's inputs from ``--seed`` and warms up;
2. runs one untimed *gate* unit under the invariant monitor and checks
   its cost against ``golden.json`` where the seed has a golden value;
3. times cold set-up five times in fresh interpreters (``setup_s``);
4. times units from outside until ``--seconds`` of unit time have
   passed; every unit must reproduce the gate unit bit for bit;
5. prints every metric by name with its unit, a full result record
   (``"kind": "e2e-result"``, with the machine fingerprint, the
   unscaled ``run_wall_s`` and the ``calib_s`` baseline) and, last,
   the one-line summary.

Every set-up sample and unit is timed between two calibration points
(``common.calib_point``) and scaled to the reference machine speed
(``common.at_reference_speed``), so that the shared host's slow phases
do not set the result.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` (or a path,
which also receives the spans as JSON) spends half of ``--seconds`` on
untraced units and half on units run with the timing proxies of
``tracer.py`` installed, and reports the per-layer metrics.  Any failed
check, and any exception raised by set-up, a unit or a check, prints
``"correct": false`` and exits 1; a checkout without the ``repro``
package exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback

import common

WORKLOAD_NAMES = ("paper_day", "mc_1000", "fleet_1000", "daemon_day")

#: End-to-end metrics, ``(name, unit)``.  Request latency on daemon_day
#: is reported in the result record but not gated: across seeds its
#: spread is wider than any bound the gate allows (README.md).
E2E_METRICS = (("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: Fresh-interpreter set-ups timed per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="run.py", description="end-to-end benchmark (see README.md)")
    parser.add_argument("workload_arg", nargs="?", metavar="WORKLOAD",
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="unit time to measure (default 10)")
    parser.add_argument("--trace", default="0", metavar="0|1|PATH",
                        help="1 or a span-dump path: per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, no golden check (self-tests)")
    parser.add_argument("--golden", default=str(common.GOLDEN_JSON),
                        help="golden values (default golden.json)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    args.workload = args.workload or args.workload_arg
    if args.workload is None:
        parser.error("a workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def make_workload(name: str, seed: int, smoke: bool):
    if name == "daemon_day":
        from daemon import DaemonDay
        return DaemonDay(seed, smoke)
    from workloads import WORKLOADS
    return WORKLOADS[name](seed, smoke)


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------
class Stopwatch:
    """Times units segment by segment, with a calibration point
    (``common.calib_point``) before the first segment and after each,
    outside the timed spans.

    A unit is one segment unless the workload calls ``lap`` inside it to
    end a segment: a long unit (the fleet day) does, so that its scaling
    follows the machine's speed through the unit.  A point runs for at
    least 3 % of the segment it closes: the host swings by a third
    within a second, and one short point beside a 4-second daemon day
    would sample the swing rather than the speed.  ``windows`` are the
    segments' ``time.monotonic()`` spans, which the traced run's
    coverage is measured over.
    """

    def __init__(self) -> None:
        self.calib = [common.calib_point()]
        self.windows: list = []

    def start(self) -> None:
        self.wall = self.scaled = 0.0
        self._first = len(self.calib) - 1
        self._w0, self._t0 = time.monotonic(), time.perf_counter()

    def lap(self) -> None:
        t1, w1 = time.perf_counter(), time.monotonic()
        segment = t1 - self._t0
        self.calib.append(common.calib_point(0.03 * segment))
        self.windows.append((self._w0, w1))
        self.wall += segment
        self.scaled += common.at_reference_speed(segment, *self.calib[-2:])
        self._w0, self._t0 = time.monotonic(), time.perf_counter()

    def stop(self, elapsed=None) -> tuple[float, float]:
        """End the unit; its ``(wall, scaled)`` seconds.  ``elapsed``
        replaces the wall time when the workload timed its own unit
        boundary (the daemon's submit-to-completed), and is scaled by
        the points around the whole unit."""
        self.lap()
        if elapsed is None:
            return self.wall, self.scaled
        return elapsed, common.at_reference_speed(
            elapsed, self.calib[self._first], self.calib[-1])


class Phase:
    """Timed units of one measurement phase: ``wall_times`` and, scaled
    to the reference speed, ``times``."""

    def __init__(self) -> None:
        self.units: list = []
        self.times: list = []
        self.wall_times: list = []
        self.attempted = self.failed = 0
        self.latencies: list = []
        self.watch = Stopwatch()


def measure(wl, seconds: float, gate, problems: list) -> Phase:
    """Run units until ``seconds`` of unit time (and at least the
    workload's ``min_units``); check each against the gate."""
    phase = Phase()
    watch = phase.watch
    spent = 0.0
    wl.begin_timed()
    try:
        while len(phase.units) < wl.min_units or spent < seconds:
            watch.start()
            out = wl.unit(watch.lap)
            wall, scaled = watch.stop(out.elapsed)
            spent += wall
            problems += [f"unit {len(phase.units)}: {p}"
                         for p in wl.check(out, gate)]
            phase.units.append(out)
            phase.wall_times.append(wall)
            phase.times.append(scaled)
    finally:
        wl.end_timed()
    phase.attempted, phase.failed, phase.latencies = wl.totals(phase.units)
    return phase


def measure_setup(args) -> list:
    """Cold set-up times: interpreter start to "inputs built, warmed up",
    scaled to the reference speed like the units' times."""
    cmd = [sys.executable, str(common.HERE / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + (["--smoke"] if args.smoke else [])
    samples = []
    before = common.calib_point()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=str(common.ROOT),
                                env=common.child_env(),
                                stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        lines, ready = [], None
        for line in proc.stdout:
            lines.append(line)
            if line.strip() == "setup-ready":
                ready = time.perf_counter()
                break
        rest, _ = proc.communicate(timeout=170)
        if proc.returncode != 0 or ready is None:
            raise RuntimeError("set-up sample failed:\n"
                               + "".join(lines) + (rest or ""))
        after = common.calib_point()
        samples.append(common.at_reference_speed(ready - t0, before, after))
        before = after
    return samples


def gate_problems(wl, gate, golden: dict, smoke: bool) -> list:
    problems = []
    if gate.extra.get("monitor_violations"):
        problems.append(f"gate unit: {gate.extra['monitor_violations']} "
                        "invariant violations")
    if smoke:
        return problems
    table = golden.get(wl.name, {})
    entry = table.get(str(wl.seed), table.get("any"))
    if entry is None:
        return problems
    want = float(entry["cost_usd"])
    rel = abs(gate.cost - want) / abs(want)
    if rel > wl.rel_tol:
        problems.append(f"gate cost {gate.cost!r} USD is {rel:.3g} relative "
                        f"from the golden {want!r} (tolerance "
                        f"{wl.rel_tol:g})")
    for key in ("clearing_nonconverged",):
        if key in entry and gate.extra.get(key) != entry[key]:
            problems.append(f"gate {key} = {gate.extra.get(key)}, golden "
                            f"{entry[key]}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------
def summarize(values) -> dict:
    q1, q2, q3 = common.quartiles(values)
    return {"value": q2, "n": len(values), "q1": q1, "q3": q3}


def e2e_metrics(phase: Phase, setup_samples: list, facts: dict) -> dict:
    rss = facts.get("peak_rss_mb")
    if rss is None:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "run_s": summarize(phase.times),
        "setup_s": summarize(setup_samples),
        "peak_rss_mb": {"value": rss, "n": 1},
    }
    units = dict(E2E_METRICS)
    for name, entry in out.items():
        entry["unit"] = units[name]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def counter_metrics(units: list) -> dict:
    """Per-layer ratios and counts from the program's own counters."""
    n = max(len(units), 1)
    total: dict = {}
    for unit in units:
        for key, value in unit.counters.items():
            if isinstance(value, (int, float)):
                total[key] = total.get(key, 0) + value

    def get(key):
        return total.get(key, total.get(f"batch_{key}", 0)) / n

    model = get("model_cache_hits") + get("model_cache_misses")
    ref = get("ref_cache_hits") + get("ref_cache_misses")
    warm = get("warm_start_hits") + get("warm_start_misses")
    horizon = get("horizon_reuses") + get("horizon_rebuilds")
    solves = get("qp_solves")
    periods = get("clearing_periods")
    return {
        "core.model_cache_hit_ratio": _ratio(get("model_cache_hits"), model),
        "core.model_cache_lookups": model,
        "core.ref_cache_hit_ratio": _ratio(get("ref_cache_hits"), ref),
        "core.ref_cache_lookups": ref,
        "control.warm_start_hit_ratio": _ratio(get("warm_start_hits"), warm),
        "control.warm_start_attempts": warm,
        "control.horizon_reuse_ratio": _ratio(get("horizon_reuses"), horizon),
        "control.horizon_lookups": horizon,
        "optim.qp_iterations_per_solve": _ratio(get("qp_iterations"), solves),
        "optim.kkt_refactorizations_per_solve":
            _ratio(get("kkt_refactorizations"), solves),
        "optim.qp_solves": solves,
        "pricing.clearing_iterations_per_period":
            _ratio(get("clearing_iterations"), periods),
        "pricing.clearing_nonconverged_ratio":
            _ratio(get("clearing_nonconverged"), periods),
        "pricing.clearing_periods": periods,
        "resilience.wal_fsyncs": get("wal_fsyncs"),
        "resilience.wal_bytes": get("wal_bytes"),
        "resilience.checkpoints_written": get("checkpoints_written"),
    }


def layer_report(wl, untraced: Phase, traced: Phase, spans) -> dict:
    import tracer
    values = dict.fromkeys((name for name, _ in tracer.LAYER_METRICS), 0.0)
    values.update(tracer.layer_metrics(spans, traced.watch.windows,
                                       len(traced.units)))
    values.update(counter_metrics(traced.units))
    if hasattr(wl, "route_stats"):
        values.update(wl.route_stats())
    values["trace.overhead_ratio"] = (common.median(traced.times)
                                      / common.median(untraced.times))
    units = dict(tracer.LAYER_METRICS)
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name in units}


def error_rate(wl, phases) -> dict:
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    out = {"attempted": attempted, "failed": failed,
           "rate": _ratio(failed, attempted)}
    nonconverged = [u.extra.get("clearing_nonconverged") for p in phases
                    for u in p.units]
    if nonconverged and nonconverged[0] is not None:
        periods = sum(u.attempted for p in phases for u in p.units)
        out["clearing_nonconverged"] = sum(nonconverged)
        out["clearing_periods"] = periods
        out["rate"] = _ratio(sum(nonconverged), periods)
    return out


def print_report(record: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} "
          f"units={record['units']} trace={record['trace']}")
    for name, m in record["metrics"].items():
        spread = ""
        if "q1" in m:
            spread = f"  (n={m['n']}, q1={m['q1']:.6g}, q3={m['q3']:.6g})"
        elif "n" in m:
            spread = f"  (n={m['n']})"
        print(f"{name} = {m['value']:.6g} {m['unit']}{spread}")
    err = record["error_rate"]
    base = (f"{err['clearing_nonconverged']} non-converged of "
            f"{err['clearing_periods']} clearings"
            if "clearing_periods" in err
            else f"{err['failed']} failed of {err['attempted']} attempted")
    print(f"error_rate = {err['rate']:.6g} ratio  ({base})")
    lat = record.get("latency")
    if lat is not None:
        print(f"req_p50_ms = {lat['p50_ms']:.6g} ms, req_p99_ms = "
              f"{lat['p99_ms']:.6g} ms  (per HTTP request, n={lat['n']}, "
              "not gated)")
    if "calib_s" in record:
        wall = record["run_wall_s"]
        print(f"run_wall_s = {wall['value']:.6g} s  (n={wall['n']}, "
              f"q1={wall['q1']:.6g}, q3={wall['q3']:.6g}; unscaled, "
              "not gated)")
        print(f"calib_s = {record['calib_s']:.6g} s  (reference "
              f"{common.REFERENCE_CALIB_S:g} s, not gated)")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_blas()
    common.require_repro()
    wl = make_workload(args.workload, args.seed, args.smoke)
    if args.setup_only:
        try:
            wl.setup()
            print("setup-ready", flush=True)
        finally:
            wl.close()
        return 0

    trace = args.trace not in ("0", "")
    spans_path = args.trace if trace and args.trace != "1" else None
    golden = common.load_json(args.golden)
    fingerprint = common.fingerprint()

    problems: list = []
    phases: list = []
    crashed = False
    try:
        wl.setup()
        gate = wl.gate()
        problems += gate_problems(wl, gate, golden, args.smoke)
        setup_samples = [] if trace else measure_setup(args)
        seconds = args.seconds / 2 if trace else args.seconds
        untraced = measure(wl, seconds, gate, problems)
        phases.append(untraced)
        if trace:
            import tracer
            recorder = tracer.SpanRecorder()
            wl.enable_tracing(recorder)
            try:
                traced = measure(wl, seconds, gate, problems)
            finally:
                spans = wl.collect_spans(recorder)
            phases.append(traced)
    except Exception as exc:
        # a unit or check that raises (a served day ending "failed", a
        # timeout, an HTTP error) is a failed check, not a lost result
        traceback.print_exc()
        problems.append(f"{type(exc).__name__}: {exc}")
        crashed = True
    finally:
        facts = wl.close()

    if crashed:
        metrics = {}
    elif trace:
        metrics = layer_report(wl, untraced, traced, spans)
        if spans_path is not None:
            with open(spans_path, "w") as fh:
                json.dump({"spans": spans}, fh)
    else:
        metrics = e2e_metrics(untraced, setup_samples, facts)

    err = error_rate(wl, phases)
    record = {
        "kind": "e2e-result", "workload": wl.name, "seed": args.seed,
        "smoke": args.smoke, "trace": trace, "seconds": args.seconds,
        "units": sum(len(p.units) for p in phases),
        "metrics": metrics, "error_rate": err,
        "fingerprint": fingerprint, "problems": problems,
    }
    if phases:
        first = phases[0]  # untraced
        record["run_wall_s"] = summarize(first.wall_times)
        record["calib_s"] = common.median(first.watch.calib)
        if first.latencies:
            lat_ms = [x * 1e3 for x in first.latencies]
            record["latency"] = {"p50_ms": common.percentile(lat_ms, 50),
                                 "p99_ms": common.percentile(lat_ms, 99),
                                 "n": len(lat_ms)}
    print_report(record)
    print(json.dumps(record))
    print(json.dumps({
        "correct": not problems,
        # a run cut short by an exception counts as one failed attempt
        "attempted": int(err["attempted"]) + crashed,
        "failed": int(err["failed"]) + crashed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
