"""Summarize stored benchmark results across seeds.

Usage: python3 bench/summarize.py [RESULTS_DIR]  (default .bench_work/results)

Prints one JSON object. For each workload it gives the median of every
end-to-end metric over the stored untraced runs, with its quartile spread
(Q3 - Q1, as a share of the median). It also gives the per-layer metrics
of the stored traced runs, and the machine record of the first result read.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

from locate import ROOT


def summarize(results_dir: str) -> dict:
    untraced, traced, machine = {}, {}, None
    for path in sorted(glob.glob(os.path.join(results_dir, "*-trace[01].json"))):
        with open(path) as fh:
            stored = json.load(fh)
        if machine is None:
            machine = {k: v for k, v in stored["machine"].items() if k != "seed"}
        workload = os.path.basename(path).split("-seed")[0]
        seed = stored["machine"]["seed"]
        target = traced if path.endswith("-trace1.json") else untraced
        target.setdefault(workload, {})[seed] = stored["result"]["metrics"]
    out = {"machine": machine, "workloads": {}}
    for workload, runs in untraced.items():
        metrics = {}
        for name in next(iter(runs.values())):
            values = [run[name]["value"] for run in runs.values()]
            median = statistics.median(values)
            entry = {"median": median, "unit": next(iter(runs.values()))[name]["unit"]}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry["iqr_share"] = (q3 - q1) / median
            metrics[name] = entry
        out["workloads"][workload] = {"seeds": sorted(runs), "end_to_end": metrics}
    for workload, runs in traced.items():
        seed = min(runs)
        out["workloads"].setdefault(workload, {})["per_layer"] = {
            "seed": seed, "metrics": {k: v["value"] for k, v in runs[seed].items()}}
    return out


if __name__ == "__main__":
    target = sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, ".bench_work", "results")
    print(json.dumps(summarize(target), indent=1, sort_keys=True))
