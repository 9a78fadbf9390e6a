"""Run one workload in this process and print its result as one JSON line.

Started by ``run.py`` with ``src`` and this directory on ``PYTHONPATH``.
Set-up (import, corpus parse, task generation) is repeated and timed;
then the task list runs in whole passes, with tracing off, until the next
pass would overrun ``--seconds``.  With ``--trace 1`` a warm-up pass, an
untraced pass and one traced pass run instead, so every count repeats
exactly for a given seed.  Verdicts are checked after the passes, off the clock.

Times are reported at reference speed.  A fixed pure-Python reference loop,
which does not touch the library, is timed after every
``CALIBRATE_EVERY_S`` of task time; each measured time is multiplied by
``REFERENCE_S`` over the median of the four loop times nearest to it.  On
a shared host, interference slows the reference loop and the tasks alike,
so it cancels, while a slower library still shows.  The raw seconds are
reported beside the scaled ones.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
from time import perf_counter
from typing import Optional

import tracing
import workloads

SETUP_REPS = 15
MAX_PASSES = 25
SHORT_S = 0.05  # a task faster than this runs SHORT_REPS times
SHORT_REPS = 3
REFERENCE_S = 0.005  # nominal duration of one reference loop
CALIBRATE_EVERY_S = 0.1  # task time between two reference loops


def _reference_loop() -> int:
    table: dict[tuple, int] = {}
    for i in range(3000):
        key = tuple((j, i % (j + 1)) for j in range(6))
        table[key] = table.get(key, 0) + 1
    return len({key[:3] for key, _count in sorted(table.items())})


class Reference:
    """Timed runs of the reference loop, in order."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        _reference_loop()
        self.samples.append(perf_counter() - start)

    def scale(self, after: int) -> float:
        """Factor from measured seconds to seconds at reference speed, for
        work done between samples ``after`` and ``after + 1``."""
        return REFERENCE_S / statistics.median(self.samples[max(0, after - 1):after + 3])


def _fresh_import():
    for name in [m for m in sys.modules if m == "treeplan" or m.startswith("treeplan.")]:
        del sys.modules[name]
    tp = importlib.import_module("treeplan")
    importlib.import_module("treeplan.cli")
    return tp


def set_up(workload: str, seed: int, workdir: str):
    """Median of ``SETUP_REPS`` timed set-ups, raw and scaled; returns the
    last one's tasks."""
    times = []
    ref = Reference()
    for _ in range(SETUP_REPS):
        ref.sample()
        start = perf_counter()
        tp = _fresh_import()
        tasks = workloads.build(tp, workload, seed, workdir)
        times.append(perf_counter() - start)
    ref.sample()
    scaled = [t * ref.scale(i) for i, t in enumerate(times)]
    return tp, tasks, statistics.median(times), statistics.median(scaled)


class Pass:
    """Values, errors and per-task seconds of one pass over the task list.

    The heap is collected before each task, off the clock, so a task does
    not pay for the garbage of the ones before it.  A task that took less
    than ``SHORT_S`` runs ``reps`` times in a row and its time is the median
    of those runs.
    """

    def __init__(self, tasks, reps=SHORT_REPS, tracer=None):
        self.values: dict[str, object] = {}
        self.errors: dict[str, str] = {}
        self.seconds: list[float] = []
        started = perf_counter()
        ref = Reference()
        ref.sample()
        last_sample = []  # per task: index of the reference sample before it
        since_sample = 0.0
        for task in tasks:
            gc.collect()
            last_sample.append(len(ref.samples) - 1)
            if tracer is not None:
                tracer.task = task.name
                tracer.active = True
            runs = []
            while True:
                start = perf_counter()
                try:
                    value, error = task.run(), None
                except Exception as err:  # a raising task is a failed verdict
                    value, error = None, err
                runs.append(perf_counter() - start)
                if error is not None or len(runs) == reps or runs[0] >= SHORT_S:
                    break
            if tracer is not None:
                tracer.active = False
            self.seconds.append(statistics.median(runs))
            if error is None:
                self.values[task.name] = value
            else:
                self.errors[task.name] = f"{type(error).__name__}: {error}"
            since_sample += sum(runs)
            if since_sample >= CALIBRATE_EVERY_S:
                ref.sample()
                since_sample = 0.0
        ref.sample()
        scales = [ref.scale(i) for i in last_sample]
        self.scale = statistics.median(scales)
        self.scaled = [x * k for x, k in zip(self.seconds, scales)]
        self.elapsed = perf_counter() - started


def failures(tasks, passes: list[Pass]) -> dict[str, tuple[str, Optional[str]]]:
    """Tasks whose first-pass verdict is wrong or raised, or whose value
    changed in a later pass: name -> (reason, known defect that excuses it)."""
    first = passes[0]
    out = {}
    for task in tasks:
        name = task.name
        if name in first.errors:
            out[name] = (first.errors[name], task.known_defect if task.signature is None else None)
            continue
        value = first.values[name]
        try:
            ok = task.check(value, first.values)
        except Exception as err:
            out[name] = (f"check raised {type(err).__name__}: {err}", None)
            continue
        if not ok:
            excused = task.signature is None or task.signature(value)
            out[name] = (f"wrong verdict {value!r}"[:300], task.known_defect if excused else None)
            continue
        for later in passes[1:]:
            if name in later.errors or later.values.get(name) != value:
                out[name] = ("value changed between passes", None)
                break
    return out


def latency_metrics(passes: list[Pass], scaled: bool) -> dict[str, float]:
    """wall_s, verdict_p50_ms and verdict_p90_ms over each task's median
    time across passes."""
    per_task = [
        statistics.median(times)
        for times in zip(*(p.scaled if scaled else p.seconds for p in passes))
    ]
    return {
        "wall_s": sum(per_task),
        "verdict_p50_ms": 1000 * statistics.median(per_task),
        "verdict_p90_ms": 1000 * statistics.quantiles(per_task, n=10)[8],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", required=True, help="directory for work files and spans")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(dir=args.out) as workdir:
        tp, tasks, setup_raw, setup_s = set_up(args.workload, args.seed, workdir)
        gc.collect()
        gc.freeze()
        if args.trace:
            # A warm-up pass, then an untraced and a traced pass that run each
            # task once, so that their ratio is the overhead.
            passes = [Pass(tasks, reps=1), Pass(tasks, reps=1)]
            tracer = tracing.Tracer()
            tracer.install(tp)
            passes.append(Pass(tasks, reps=1, tracer=tracer))
        else:
            passes = [Pass(tasks)]
            spent = passes[0].elapsed
            while len(passes) < MAX_PASSES and spent + passes[-1].elapsed <= args.seconds:
                passes.append(Pass(tasks))
                spent += passes[-1].elapsed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failed = failures(tasks, passes)

    failed_share = len(failed) / len(tasks)
    raw = {"setup_s": setup_raw, **latency_metrics(passes, scaled=False)}
    if args.trace:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics = tracer.layer_metrics(names)
        _warm_up, untraced, traced = passes
        metrics["trace.overhead_share"] = sum(traced.scaled) / sum(untraced.scaled) - 1
        metrics["verdict.failed_share"] = failed_share
        tracer.write(os.path.join(args.out, f"spans_{args.workload}_seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": setup_s,
            **latency_metrics(passes, scaled=True),
            "peak_rss_mb": peak_rss_mb,
            "failed_share": failed_share,
        }
    print(json.dumps({
        "correct": all(known for _reason, known in failed.values()),
        "attempted": len(tasks),
        "failed": len(failed),
        "passes": len(passes),
        "metrics": metrics,
        "raw": raw,
        "scales": [p.scale for p in passes],
        "failures": failed,
        "task_seconds": {t.name: statistics.median(p.seconds[i] for p in passes)
                         for i, t in enumerate(tasks)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
