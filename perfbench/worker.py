"""One workload in one fresh process; started by ``run.py``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--probe]

Imports ``cuntzr``, builds the workload's inputs from the seed, runs the
untimed warm-up jobs and prints ``READY``. ``--probe`` then prints the
set-up marks (see ``main``), from which the launcher times set-up, and
stops. Otherwise whole rounds of the job list
run for at most ``--seconds`` (at least one round), and the last line printed is a JSON
object of the results.

Each job is timed from call to the program's verdict, step by step where
the job yields between steps, and each step is divided by the mean time of
the reference kernel run just before and just after it; a job's median of
these sums over the rounds, summed over the job list, is ``verdict_ref``.
The benchmark's checks of the verdict run after it, untimed and untraced.
Traced (``--trace 1``), untraced rounds run for half the time,
then the wrappers of :mod:`spans` go in for the other half, then one round
runs with ``tracemalloc`` on inside the build and kernel spans, for the
per-layer peaks only. The spans file holds the last timed traced round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads
from reference import timed_ref
from spans import Tracer


class Round:
    """Outcome of one pass over the job list."""

    def __init__(self):
        self.ref = {}  # job name -> seconds / mean of the adjacent refs
        self.failed = 0
        self.mismatches = []


def _advance(steps, name, out):
    """Run a job to its next yield; returns (what it yielded, whether it ended).

    A failed check or a raised exception ends the job and is recorded.
    """
    try:
        return next(steps), False
    except StopIteration:
        pass
    except workloads.Mismatch as exc:
        out.mismatches.append(f"{name}: {exc}")
    except Exception:  # a job that raises is counted failed, run goes on
        out.failed += 1
        print(f"job {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
    return None, True


def run_round(jobs, tracer=None):
    """One pass over the job list.

    Each step up to the job's ``CHECK`` is timed and divided by the mean
    time of the reference kernel run just before and just after it. The
    checks run untimed, with ``tracer`` (if any) paused.
    """
    gc.collect()
    out = Round()
    before = timed_ref()
    for name, job in jobs:
        out.ref[name] = 0.0
        steps = job()
        mark, done = None, False
        while not done and mark is not workloads.CHECK:
            start = time.perf_counter()
            mark, done = _advance(steps, name, out)
            elapsed = time.perf_counter() - start
            after = timed_ref()
            out.ref[name] += elapsed / ((before + after) / 2)
            before = after
        if done:
            continue
        if tracer is not None:
            tracer.paused = True
        while not done:
            _, done = _advance(steps, name, out)
        if tracer is not None:
            tracer.paused = False
        before = timed_ref()
    return out


def run_for(jobs, seconds, tracer=None, after=None):
    """Whole rounds while another one of the last round's length fits in
    ``seconds``; at least one. ``after`` runs after every round."""
    rounds = []
    start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        round_start = time.perf_counter()
        rounds.append(run_round(jobs, tracer))
        if after is not None:
            after()
        last = time.perf_counter() - round_start
    return rounds


def verdict_ref(rounds):
    """Sum over jobs of each job's median reference-normalised time."""
    return sum(statistics.median(r.ref[name] for r in rounds)
               for name in rounds[0].ref)


def summary(rounds, jobs):
    mismatches = sorted({m for r in rounds for m in r.mismatches})
    for m in mismatches:
        print(f"check failed: {m}", file=sys.stderr)
    return {
        "correct": not mismatches,
        "attempted": len(rounds) * len(jobs),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
    }


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--probe", action="store_true")
    args = p.parse_args()

    # set-up in phases, with the reference kernel run between them; a mark
    # is (end of a phase, start of the next), so the kernel ran in between
    marks = []

    def mark():
        end = time.perf_counter()
        timed_ref()
        marks.append((end, time.perf_counter()))

    mark()  # interpreter start, numpy and the benchmark's modules
    import cuntzr
    import cuntzr.cli  # noqa: F401  (the CLI is not imported by the package)

    wl = workloads.make(args.workload, args.seed, cuntzr, args.out)
    mark()
    for job in wl.warmup:
        workloads.warm_up(job)
    mark()
    print("READY", flush=True)
    if args.probe:
        print(json.dumps(marks), flush=True)
        return 0

    if not args.trace:
        rounds = run_for(wl.jobs, args.seconds)
        result = summary(rounds, wl.jobs)
        result["verdict_ref"] = verdict_ref(rounds)
        result["peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0

    untraced = run_for(wl.jobs, args.seconds / 2)
    tracer = Tracer()
    tracer.install(cuntzr)
    per_round = []
    last_spans = []

    def collect():
        per_round.append(tracer.metrics())
        last_spans[:] = tracer.spans
        tracer.reset()

    traced = run_for(wl.jobs, args.seconds / 2, tracer, after=collect)
    tracer.spans = last_spans
    tracer.write_spans(os.path.join(args.out, f"spans-{args.workload}.json"))
    tracer.reset()
    tracer.memory = True
    try:
        memory_round = run_round(wl.jobs, tracer)
    finally:
        tracer.uninstall()

    result = summary([*untraced, *traced, memory_round], wl.jobs)
    metrics = {
        name: {"value": statistics.median(m[name][0] for m in per_round),
               "unit": per_round[0][name][1]}
        for name in per_round[0]
    }
    for name, (value, unit) in tracer.peak_metrics().items():
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_ref"] = {
        "value": verdict_ref(traced) - verdict_ref(untraced),
        "unit": "ref",
    }
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
