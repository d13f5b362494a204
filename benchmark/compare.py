#!/usr/bin/env python3
"""Compare two sets of benchmark results.

    python3 benchmark/compare.py --parent P1.json P2.json ... \\
                                 --change C1.json C2.json ...

Each file is a result written by `benchmark/run.py --out`. The i-th parent
and i-th change file form a pair; run them alternately, parent first in one
pair and change first in the next. For every (workload, metric) this prints
each side's median and quartiles, the change's share of pairs won, and a
verdict for the end-to-end metrics, by the rules in the choosing-metrics
guide (sections 6 and 8):

  improved            the change wins at least 9 in 10 pairs and the medians
                      differ by more than the parent's own quartile spread
  unresolved          a side's quartile spread exceeds the metric's bound,
                      unless every change run beats every parent run
  regressed           the change's median is worse by more than the bound
  no worse than bound otherwise

Per-layer metrics have no bound and get no verdict. The tool refuses results
whose thread width, build type or seeds differ, or that mix traced and
untraced runs. Exit code: 0 when nothing regressed or is unresolved, 1
otherwise, 2 when it refuses.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def refuse(message):
    print(f"compare.py: refusing: {message}", file=sys.stderr)
    sys.exit(2)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def describe(q1, median, q3):
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(parent, change, bound, higher_is_better):
    """The verdict for one end-to-end metric, and the change's win share."""
    better = (lambda a, b: a > b) if higher_is_better else (lambda a, b: a < b)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if better(c, p)) / len(pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    worse_by = ((p_med - c_med) if higher_is_better else (c_med - p_med))
    worse_share = worse_by / abs(p_med) if p_med else 0.0
    every_run_better = all(better(c, p) for c in change for p in parent)
    if (wins >= 0.9 and better(c_med, p_med)
            and abs(c_med - p_med) > p_q3 - p_q1):
        return "improved", wins
    if spread > bound and not every_run_better:
        return "unresolved", wins
    if worse_share > bound:
        return "regressed", wins
    return "no worse than bound", wins


def load(paths):
    documents = []
    for path in paths:
        try:
            documents.append(json.loads(Path(path).read_text()))
        except (OSError, ValueError) as error:
            refuse(f"cannot read {path}: {error}")
    return documents


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of benchmark results.")
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args()

    parent = load(args.parent)
    change = load(args.change)
    if len(parent) != len(change):
        refuse(f"{len(parent)} parent results but {len(change)} change results;"
               " pairs need one of each")
    everything = parent + change
    for key in ("width", "build_type"):
        values = {document["host"][key] for document in everything}
        if len(values) > 1:
            refuse(f"host {key} differs: {sorted(map(str, values))}")
    if len({document["trace"] for document in everything}) > 1:
        refuse("traced and untraced results are mixed")
    for index, (p, c) in enumerate(zip(parent, change)):
        if p["seed"] != c["seed"]:
            refuse(f"pair {index} ran seed {p['seed']} against {c['seed']}")

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in definition["end_to_end"]}
    per_layer = {m["name"]: m for m in definition["per_layer"]}
    workloads = [w["name"] for w in definition["workloads"]
                 if all(w["name"] in d["workloads"] for d in everything)]

    host = everything[0]["host"]
    print(f"{len(parent)} pairs; width {host['width']}, {host['build_type']}, "
          f"{host['compiler']}")
    print(f"{'workload':17} {'metric':28} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'wins':>5}  verdict")
    flagged = 0
    for workload in workloads:
        metrics = everything[0]["workloads"][workload]["metrics"]
        for metric in metrics:
            if metric not in bounds and metric not in per_layer:
                continue
            p_values = [d["workloads"][workload]["metrics"][metric]["value"]
                        for d in parent]
            c_values = [d["workloads"][workload]["metrics"][metric]["value"]
                        for d in change]
            p_q1, p_med, p_q3 = quartiles(p_values)
            c_q1, c_med, c_q3 = quartiles(c_values)
            delta = (c_med - p_med) / abs(p_med) if p_med else 0.0
            spec = bounds.get(metric) or per_layer[metric]
            higher = spec["better"] == "higher"
            if metric in bounds:
                label, wins = verdict(p_values, c_values, spec["bound"], higher)
                flagged += label in ("regressed", "unresolved")
                label += f" (bound {spec['bound']:.0%})"
            else:
                label = "-"
                wins = sum(1 for p, c in zip(p_values, c_values)
                           if (c > p if higher else c < p)) / len(p_values)
            print(f"{workload:17} {metric:28} {describe(p_q1, p_med, p_q3):>34} "
                  f"{describe(c_q1, c_med, c_q3):>34} {delta:>+8.1%} "
                  f"{wins:>5.0%}  {label}")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
