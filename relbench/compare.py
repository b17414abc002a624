#!/usr/bin/env python3
"""Compare relbench runs against the bounds in BENCHMARK.json (stdlib only).

    python3 relbench/compare.py PARENT_DIR CHANGE_DIR
    python3 relbench/compare.py --spread DIR

A directory holds run files written by `relbench/run.py --json FILE`: each
file has a "runs" list of reports, and each report names its workload in
meta.workload and its metrics in result.metrics. Only untraced full runs
(meta.mode "full") are compared; traced runs in the same files are skipped.

PARENT_DIR CHANGE_DIR prints, for every workload and end-to-end metric,
each side's median and quartiles, the share of pairs the change wins
(runs paired by seed; ties count for neither side) and a verdict:

  improved    the change wins at least 9/10 of the pairs and the medians
              differ by more than the parent's quartile spread
  unresolved  the parent's own spread is wider than the metric's bound
              and not every change run beats every parent run
  regressed   the change's median is worse than the parent's by more
              than the bound
  no worse    otherwise

It exits 1 if any metric regressed. --spread DIR checks that the spread
between the quartiles of each metric, as a share of its median, is within
the metric's bound (setup_s is reported but exempt), and exits 1 if not.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(directory):
    """{workload: [(seed, {metric: value})]} from every run file in DIR."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        with open(path) as f:
            data = json.load(f)
        for report in data.get("runs", [data]):
            result = report.get("result", {})
            meta = report.get("meta", {})
            if meta.get("mode") != "full":
                continue  # traced and quick runs report other metrics
            if not result.get("correct"):
                print(f"warning: {path.name}: a run failed its checks",
                      file=sys.stderr)
                continue
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.setdefault(meta.get("workload"), []).append(
                (meta.get("seed"), values))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def better(a, b, direction):
    return a < b if direction == "lower" else a > b


def compare(parent_dir, change_dir, metrics):
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    regressed = False
    print(f"{'workload':<11} {'metric':<15} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'wins':>6}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_seed = {s: v for s, v in p_runs}
        for m in metrics:
            name, bound, direction = m["name"], m["bound"], m["better"]
            pv = [v[name] for _, v in p_runs]
            cv = [v[name] for _, v in c_runs]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            pairs = [(p_seed[s][name], v[name]) for s, v in c_runs
                     if s in p_seed]
            if not pairs:
                pairs = list(zip(pv, cv))
            wins = sum(better(c, p, direction) for p, c in pairs)
            share = wins / len(pairs)
            worse = cm - pm if direction == "lower" else pm - cm
            all_better = all(better(c, p, direction) for p in pv for c in cv)
            if share >= 0.9 and abs(cm - pm) > p3 - p1:
                v = "improved"
            elif (p3 - p1) / pm > bound and not all_better:
                v = "unresolved"
            elif worse > bound * pm:
                v = "regressed"
                regressed = True
            else:
                v = "no worse"
            print(f"{workload:<11} {name:<15} "
                  f"{pm:>12.5g} [{p1:>9.5g}, {p3:>9.5g}] "
                  f"{cm:>12.5g} [{c1:>9.5g}, {c3:>9.5g}] "
                  f"{share:>6.2f}  {v}")
    return 1 if regressed else 0


def spread(directory, metrics):
    runs = load_runs(directory)
    failed = False
    print(f"{'workload':<11} {'metric':<15} {'n':>3} {'median':>12} "
          f"{'spread':>8} {'bound':>6}  check")
    for workload in sorted(runs):
        for m in metrics:
            values = [v[m["name"]] for _, v in runs[workload]]
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med
            if m["name"] == "setup_s":
                check = "exempt"
            elif share <= m["bound"] / 3:
                check = "ok"
            elif share <= m["bound"]:
                check = "ok (above a third of the bound)"
            else:
                check = "TOO WIDE"
                failed = True
            print(f"{workload:<11} {m['name']:<15} {len(values):>3} "
                  f"{med:>12.5g} {share:>8.4f} {m['bound']:>6}  {check}")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spread", metavar="DIR")
    ap.add_argument("dirs", nargs="*")
    args = ap.parse_args()
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    if args.spread:
        return spread(args.spread, metrics)
    if len(args.dirs) != 2:
        ap.error("give PARENT_DIR and CHANGE_DIR, or --spread DIR")
    return compare(args.dirs[0], args.dirs[1], metrics)


if __name__ == "__main__":
    sys.exit(main())
