"""Compare two sets of e2e benchmark runs.

Usage::

    python3 benchmarks/e2e/compare.py OLD NEW [--benchmark BENCHMARK.json]

``OLD`` and ``NEW`` are files holding the output of repeated
``run.py`` runs (one commit each); every line that is a result record
(``"kind": "e2e-result"`` with tracing off) counts, in file order.  Run
the two sides alternately, so the i-th old run and the i-th new run
form a pair.

One row per workload × end-to-end metric of ``BENCHMARK.json``, plus an
``error_rate`` row, with each side's median and quartiles, the win
fraction over the pairs and a verdict:

* **improved** — the new side wins at least 9 in 10 pairs (ties count
  for neither) and the medians differ, in the better direction, by more
  than the old side's interquartile range;
* **regressed** — the new median is worse by more than the metric's
  bound, with the run-to-run spread within the bound (or every new run
  worse than every old run);
* **unresolved** — the spread of either side exceeds the bound and not
  every new run is better than every old run;
* **unchanged** — otherwise.

``error_rate`` (failed over attempted, or non-converged clearings over
clearing periods on the fleet, summed per side) has bound 0: any
increase is a regression.  Every ratio is printed with its base.  Exit
status is 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys

import common

__all__ = ["compare", "load_runs", "main"]


def load_runs(path) -> list:
    """Result records (tracing off) in file order."""
    runs = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if doc.get("kind") == "e2e-result" and not doc.get("trace"):
                runs.append(doc)
    return runs


def _by_workload(runs) -> dict:
    out: dict = {}
    for run in runs:
        out.setdefault(run["workload"], []).append(run)
    return out


def _side(values) -> dict:
    q1, q2, q3 = common.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


def _verdict(old: dict, new: dict, better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    # worse > 0 means the new side is worse, as a share of the old median
    worse = sign * (new["median"] - old["median"]) / old["median"] \
        if old["median"] else 0.0
    pairs = list(zip(old["values"], new["values"]))
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    spread = max((s["q3"] - s["q1"]) / s["median"] if s["median"] else 0.0
                 for s in (old, new))
    if better == "lower":
        all_better = max(new["values"]) < min(old["values"])
        all_worse = min(new["values"]) > max(old["values"])
    else:
        all_better = min(new["values"]) > max(old["values"])
        all_worse = max(new["values"]) < min(old["values"])
    gain = -sign * (new["median"] - old["median"])
    if pairs and wins >= 0.9 * len(pairs) and gain > old["q3"] - old["q1"]:
        verdict = "improved"
    elif worse > bound and (spread <= bound or all_worse):
        verdict = "regressed"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    else:
        verdict = "unchanged"
    return {"worse": worse, "wins": wins, "pairs": len(pairs),
            "spread": spread, "verdict": verdict}


def compare(old_runs, new_runs, spec: dict) -> list:
    """One dict per workload × metric row (see the module docstring)."""
    old_w, new_w = _by_workload(old_runs), _by_workload(new_runs)
    rows = []
    for workload in sorted(set(old_w) & set(new_w)):
        old, new = old_w[workload], new_w[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            old_vals = [r["metrics"][name]["value"] for r in old
                        if name in r["metrics"]]
            new_vals = [r["metrics"][name]["value"] for r in new
                        if name in r["metrics"]]
            if not old_vals or not new_vals:
                continue
            o, n = _side(old_vals), _side(new_vals)
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "bound": metric["bound"],
                   "old": o, "new": n}
            row.update(_verdict(o, n, metric["better"], metric["bound"]))
            rows.append(row)
        rows.append(_error_row(workload, old, new))
    return rows


def _error_side(runs) -> dict:
    """Pooled error rate of one side, with its count and base.

    The fleet's errors are its non-converged clearings per clearing
    period, not its failed requests (which are always 0).
    """
    count = base = 0
    for run in runs:
        err = run["error_rate"]
        if "clearing_periods" in err:
            count += err["clearing_nonconverged"]
            base += err["clearing_periods"]
        else:
            count += err["failed"]
            base += err["attempted"]
    return {"median": count / base if base else 0.0, "count": count,
            "base": base}


def _error_row(workload, old, new) -> dict:
    o, n = _error_side(old), _error_side(new)
    verdict = ("regressed" if n["median"] > o["median"] else
               "improved" if n["median"] < o["median"] else "unchanged")
    return {"workload": workload, "metric": "error_rate", "unit": "ratio",
            "bound": 0.0, "verdict": verdict, "old": o, "new": n}


def _fmt_side(side: dict) -> str:
    if "base" in side:
        return f"{side['median']:.4g} ({side['count']} of {side['base']})"
    return (f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}] "
            f"n={side['n']}")


def render(rows) -> str:
    lines = [f"{'workload':<11} {'metric':<12} {'old median [q1, q3]':<34} "
             f"{'new median [q1, q3]':<34} {'change':<28} {'wins':<7} "
             f"{'spread':<8} verdict"]
    for row in rows:
        old, new = row["old"], row["new"]
        if "worse" in row:
            change = (f"{(new['median'] - old['median']) / old['median']:+.1%}"
                      f" of {old['median']:.4g} {row['unit']}"
                      if old["median"] else "n/a")
            wins = f"{row['wins']}/{row['pairs']}"
            spread = f"{row['spread']:.1%}"
        else:
            change = f"{new['median'] - old['median']:+.3g} ratio"
            wins = spread = "-"
        lines.append(f"{row['workload']:<11} {row['metric']:<12} "
                     f"{_fmt_side(old):<34} {_fmt_side(new):<34} "
                     f"{change:<28} {wins:<7} {spread:<8} {row['verdict']}"
                     f" (bound {row['bound']:.0%})")
    counts: dict = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    lines.append("verdicts: " + ", ".join(
        f"{v} {counts[v]}" for v in ("improved", "unchanged", "regressed",
                                     "unresolved") if v in counts))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="compare.py", description="compare two sets of e2e runs")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=str(common.BENCHMARK_JSON))
    args = parser.parse_args(argv)
    spec = common.load_json(args.benchmark)
    rows = compare(load_runs(args.old), load_runs(args.new), spec)
    if not rows:
        print("no workload has result records on both sides",
              file=sys.stderr)
        return 2
    print(render(rows))
    bad = [r for r in rows if r["verdict"] in ("regressed", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
