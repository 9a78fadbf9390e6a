"""Verdict-checked benchmark of treeplan.

Usage, from the repository root:

    python3 perfbench/run.py --workload games --seed 1 --seconds 40 --trace 0

Workloads are ``games``, ``logic`` and ``structure`` (see BENCHMARK.json for
why each was chosen).  The workload runs in its own child process, which
starts no threads, with a fixed hash seed.  With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` the per-layer metrics of a traced pass.
Lines before the last describe the machine and the verdicts; the last line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when any task other than a named known
defect failed its check.  Work files and trace spans go to
``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("games", "logic", "structure")
TIMEOUT_S = 170


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "loadavg_at_start": load,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure whole passes until the next would overrun this")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    host = machine()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "treeplan", "__init__.py")):
        print("perfbench: src/treeplan not found next to perfbench/", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ)
    env.update({"PYTHONPATH": os.pathsep.join([src, HERE]), "PYTHONHASHSEED": "0"})
    env.pop("TREEPLAN_BUDGET", None)
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload {args.workload} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        print(f"perfbench: worker reported no {missing}", file=sys.stderr)
        return 1

    label = f"{args.workload} seed={args.seed} trace={args.trace}"
    with open(os.path.join(out_dir, f"result_{args.workload}_seed{args.seed}"
                                    f"_trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": host, "args": vars(args), **result}, fh, indent=1)
    print("machine: " + json.dumps(host))
    print(f"{label}: {result['attempted']} tasks, {result['passes']} passes, "
          f"{result['failed']} failed, failed_share "
          f"{result['failed'] / result['attempted']:.6f} ratio")
    excused: dict[str, list[str]] = {}
    for name, (reason, known) in sorted(result["failures"].items()):
        if known:
            excused.setdefault(known, []).append(name)
        else:
            print(f"  FAIL {name}: {reason}")
    for known, names in excused.items():
        print(f"  known defect, {len(names)} tasks ({names[0]}, ...): {known}")
    for m in wanted:
        print(f"  {m['name']} = {result['metrics'][m['name']]} {m['unit']}")
    scales = ", ".join(f"{s:.4f}" for s in result["scales"])
    print(f"  unscaled: {json.dumps(result['raw'])}; median reference-speed scale per pass: {scales}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
