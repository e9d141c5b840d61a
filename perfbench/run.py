"""Benchmark launcher: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/cuntzr`` is imported from
there. Each process this starts runs the program with BLAS_THREADS BLAS
threads and PYTHONHASHSEED=0, without CUNTZR_TOL or CUNTZR_BACKEND.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over SETUP_PROBES probe processes of the time from
  process start to ``READY`` (imports, inputs, the warm-up jobs), rescaled
  to the reference speed phase by phase (see ``probe_setup``);
* ``verdict_ref``: sum over the job list of each job's median time in
  reference-kernel units (see ``worker.py``);
* ``peak_mb``: peak resident memory of the workload process;
* ``max_depth``: the depth ladder (``ladder.py``), one capped child per
  depth up to LADDER_CEILING, stopping at the first MemoryError. It runs
  after the workload process has ended, so its time is in no timing.

``--trace 1`` reports the per-layer metrics of a traced workload process.
The last line of standard output is the result object; the exit code is
0 whenever a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from reference import NOMINAL_S, NOMINAL_START_S, timed_start  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1         # measured steadier and faster than 2 on 2 cores
SETUP_PROBES = 7         # processes that only set up
LADDER_CEILING = 8
LADDER_BUDGET_MB = 2048  # address-space cap of each ladder step
LADDER_SECONDS = 100     # all ladder steps together; a step past it stops it
WORKER_SECONDS = 150     # hard limit on one workload process
OUT_DIR = ".perfbench-out"


class BenchError(Exception):
    pass


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("CUNTZR_TOL", None)
    env.pop("CUNTZR_BACKEND", None)
    return env


def worker_cmd(args, out_dir, trace=0):
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace), "--out", out_dir]


def probe_setup(args, env, out_dir):
    """Set-up time of one probe process, rescaled to the reference speed.

    The probe's set-up runs in phases with the reference kernel between
    them (``worker.main``). The first phase, interpreter start and numpy
    import, is rescaled by the reference start-up timed just before it;
    each later phase by the mean of the kernel times just before and just
    after it. ``perf_counter`` is the system's monotonic clock, shared with
    the child.
    """
    ref_start = timed_start(env)
    start = time.perf_counter()
    proc = subprocess.Popen(worker_cmd(args, out_dir) + ["--probe"], env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=WORKER_SECONDS)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("set-up probe ran past its time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) != 2 or lines[0] != "READY":
        raise BenchError(f"set-up probe failed (exit {proc.returncode})")
    (end, next_start), *marks = json.loads(lines[1])
    setup = (end - start) * NOMINAL_START_S / ref_start
    start, ref = next_start, next_start - end
    for end, next_start in marks:
        next_ref = next_start - end
        setup += (end - start) * NOMINAL_S / ((ref + next_ref) / 2)
        start, ref = next_start, next_ref
    return setup


def run_worker(args, env, out_dir, trace=0):
    """Run the workload process to its end; returns its result object."""
    try:
        proc = subprocess.run(worker_cmd(args, out_dir, trace), env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_SECONDS)
    except subprocess.TimeoutExpired:
        raise BenchError("workload process ran past its time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        raise BenchError(f"workload process failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def run_ladder(env):
    """Largest passing depth, and whether every step ended as expected."""
    deadline = time.perf_counter() + LADDER_SECONDS
    best = 0
    for depth in range(1, LADDER_CEILING + 1):
        cmd = [sys.executable, os.path.join(HERE, "ladder.py"),
               "--depth", str(depth), "--budget-mb", str(LADDER_BUDGET_MB)]
        left = deadline - time.perf_counter()
        if left <= 0:
            break
        try:
            proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            print(f"ladder: depth {depth} ran past the ladder's time", file=sys.stderr)
            break
        lines = proc.stdout.strip().splitlines()
        status = json.loads(lines[-1])["status"] if lines else None
        if proc.returncode != 0 or status not in ("pass", "memory"):
            print(f"ladder: depth {depth} ended with exit {proc.returncode}, "
                  f"status {status}", file=sys.stderr)
            return best, False
        if status == "memory":
            break
        best = depth
    return best, True


def metric(value, unit):
    return {"value": value, "unit": unit}


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cuntzr", "__init__.py")):
        print("error: run from the root of a cuntzr checkout (no src/cuntzr here)",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root)

    try:
        if args.trace:
            res = run_worker(args, env, out_dir, trace=1)
            result = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
        else:
            setups = [probe_setup(args, env, out_dir) for _ in range(SETUP_PROBES)]
            res = run_worker(args, env, out_dir)
            depth, ladder_ok = run_ladder(env)
            result = {
                "correct": bool(res["correct"] and ladder_ok),
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    "setup_s": metric(statistics.median(setups), "s"),
                    "verdict_ref": metric(res["verdict_ref"], "ref"),
                    "peak_mb": metric(res["peak_mb"], "MB"),
                    "max_depth": metric(depth, "depth"),
                },
            }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
