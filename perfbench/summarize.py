"""Summarize the result files that run.py left in ``.perfbench_out/``.

    python3 perfbench/summarize.py [--label NAME] > summary.json

For every workload and end-to-end metric: the values by seed, their median
and quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  The machine of
each run is kept beside it.  Traced runs add their per-layer metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="baseline")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    runs: dict[str, list[dict]] = {}
    traced: dict[str, list[dict]] = {}
    for path in sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", "result_*.json"))):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        kind = traced if result["args"]["trace"] else runs
        kind.setdefault(result["args"]["workload"], []).append(result)

    out = {"label": args.label, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload, results in sorted(runs.items()):
        results.sort(key=lambda r: r["args"]["seed"])
        entry = {
            "seeds": [r["args"]["seed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "correct": [r["correct"] for r in results],
            "passes": [r["passes"] for r in results],
            "machines": [r["machine"] for r in results],
            "metrics": {},
            "unscaled": {},
        }
        for m in spec["end_to_end"]:
            entry["metrics"][m["name"]] = _stats([r["metrics"][m["name"]] for r in results])
            if m["name"] in results[0]["raw"]:
                entry["unscaled"][m["name"]] = _stats([r["raw"][m["name"]] for r in results])
        entry["per_layer"] = {
            str(r["args"]["seed"]): r["metrics"] for r in traced.get(workload, [])
        }
        out["workloads"][workload] = entry
    print(json.dumps(out, indent=1))


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


if __name__ == "__main__":
    main()
