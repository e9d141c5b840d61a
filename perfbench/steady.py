"""Steadiness command: repeated runs, alternating workloads, with spreads.

    python3 perfbench/steady.py [--seed0 1]

Runs ``run.py --trace 0`` RUNS times on every workload of BENCHMARK.json,
with its ``run_seconds``, cycling through the workloads so that slow phases
of the machine fall on all of them, with seeds seed0, seed0+1, ... For
every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, which is (Q3 - Q1) /
median, next to the metric's bound in BENCHMARK.json and a third of it,
flagging a spread above the third. It also prints the share of failed jobs
of each workload. The bounds in BENCHMARK.json were set from these spreads.
Raw results go to .perfbench-out/steady-<seed0>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 10


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed0", type=int, default=1)
    args = p.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    out = os.path.join(".perfbench-out", f"steady-{args.seed0}.json")

    results = {w: [] for w in names}
    for i in range(RUNS):
        for w in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(args.seed0 + i), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results[w].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"[{i + 1}/{RUNS}] {w} correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)

    print(f"\n{'workload':16} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6} {'bound/3':>7}")
    for w in names:
        runs = results[w]
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            flag = "" if spread <= bound / 3 else "  above bound/3"
            print(f"{w:16} {name:12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound:6.2f} {bound / 3:7.3f}{flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"{w:16} failed {failed}/{attempted}, all correct: {correct}")
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
