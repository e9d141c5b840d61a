"""Paired benchmark runs of two revisions, summarised into BENCH_<head>.json.

    python3 tools/bench_pairs.py --base REV --head REV --workload W --pairs K --seed S [--control]

Run from the root of a git checkout. Each run of ``perfbench/run.py
--trace 0`` starts in a fresh ``git archive`` checkout of its revision, which
must hold no ``__pycache__``, so no run sees bytecode or outputs of another.
Pair i runs both revisions on seed S + i, the base first on even pairs and
the head first on odd ones. With ``--control`` each pair also runs the base
a second time, as the side ``control``: last on even pairs and first on odd
ones. The result line each run prints is kept whole.

``BENCH_<head>.json`` (``head`` as a short commit id) holds, per workload, every run
and per end-to-end metric of ``BENCHMARK.json`` the medians and quartiles
of both sides, the head's wins over its pair, the relative change of the
medians against the metric's bound, and whether the medians lie further
apart than the base's interquartile range; with a control, the A/A gap
(the relative change of the control's median against the base's) and
whether the A/B change is larger; whether a claimed gain is met (the head
better in at least 9 of 10 pairs, and its median past both gaps); per side, the totals of attempted and
failed operations and whether every run was correct; plus the machine
facts at the start and end of each series. A second workload is added to
the same file.

    python3 tools/bench_pairs.py --summary BENCH_<head>.json

reprints the claim and outcome lines of an existing file, each workload in
the file's order, and starts no run. A file written before the outcomes,
or whether a claim is met, were kept has them derived from its runs and
summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


def parse_result(stdout):
    """The result object of a ``perfbench/run.py`` run: its last output line."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed no result line")
    return json.loads(lines[-1])


def _quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _change(old, new):
    """Relative change of the median ``new`` against ``old``."""
    return (new - old) / old if old else 0.0


def summarise(runs, metrics):
    """Per metric of ``metrics`` (the ``end_to_end`` list of
    ``BENCHMARK.json``), from ``runs`` (dicts with ``pair``, ``side`` and
    ``result``): both sides' values in pair order, their quartiles, the
    head's wins over its own pair, the relative change of the medians, its
    bound, and whether the medians lie further apart than the base's
    interquartile range. Where pairs hold a ``control`` run, also the
    control's values and quartiles, the A/A gap of its median against the
    base's over those pairs, and whether the A/B change is larger."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]
    pairs = [by_pair[i] for i in sorted(by_pair) if {"base", "head"} <= by_pair[i].keys()]
    summary = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        if not pairs:
            continue
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        head = [p["head"]["metrics"][name]["value"] for p in pairs]
        bq, hq = _quartiles(base), _quartiles(head)
        wins = sum((h < b) if lower else (h > b) for b, h in zip(base, head))
        change = _change(bq[1], hq[1])
        worse = change if lower else -change
        summary[name] = entry = {
            "better": spec["better"],
            "base": base,
            "head": head,
            "base_quartiles": list(bq),
            "head_quartiles": list(hq),
            "head_wins": wins,
            "pairs": len(pairs),
            "change": change,
            "bound": spec["bound"],
            "within_bound": worse <= spec["bound"],
            "separated": abs(hq[1] - bq[1]) > bq[2] - bq[0],
        }
        controlled = [p for p in pairs if "control" in p]
        if controlled:
            control = [p["control"]["metrics"][name]["value"] for p in controlled]
            cq = _quartiles(control)
            gap = _change(_quartiles([p["base"]["metrics"][name]["value"] for p in controlled])[1],
                          cq[1])
            entry.update(control=control, control_quartiles=list(cq), control_change=gap,
                         beyond_control=abs(change) > abs(gap))
        entry["claim_met"] = claim_met(entry)
    return summary


def claim_met(entry):
    """Whether a metric's series bears out a claimed gain: the head better
    in at least 9 of every 10 pairs, over at least ten (ties count for
    neither side), its median better and further from the base's than the
    base's interquartile range, and, when a control ran, the change beyond
    the A/A gap. Derived from the entry's own fields, so it holds for files
    written before it was kept."""
    better = entry["change"] < 0 if entry["better"] == "lower" else entry["change"] > 0
    return (entry["pairs"] >= 10 and 10 * entry["head_wins"] >= 9 * entry["pairs"] and better
            and entry["separated"] and entry.get("beyond_control", True))


def outcomes(runs):
    """Per side, over all its runs: the totals of attempted and failed
    operations, the failed share, and whether every run was correct."""
    out = {}
    for run in runs:
        result = run["result"]
        side = out.setdefault(run["side"], {"runs": 0, "attempted": 0, "failed": 0,
                                            "all_correct": True})
        side["runs"] += 1
        side["attempted"] += result["attempted"]
        side["failed"] += result["failed"]
        side["all_correct"] = side["all_correct"] and bool(result["correct"])
    for side in out.values():
        side["failed_share"] = side["failed"] / side["attempted"] if side["attempted"] else 0.0
    return out


def outcome_line(workload, side, entry, base=None):
    """One line of a side's failed operations and correctness; given the
    base's entry, it ends with whether the side's failed share is above the
    base's, which rejects a change."""
    above = "" if base is None else (
        ", FAILED SHARE ABOVE BASE" if entry["failed_share"] > base["failed_share"]
        else ", failed share not above base")
    return (f"{workload} {side}: {entry['failed']} of {entry['attempted']} operations failed "
            f"({100 * entry['failed_share']:.2f}%) over {entry['runs']} runs, "
            f"{'every run' if entry['all_correct'] else 'NOT every run'} correct{above}")


def claim_line(workload, name, entry):
    """One line of a metric's series, as a change record quotes it; with a
    control, the A/A gap beside the A/B change; then whether the head's
    median is within the metric's bound (``within_bound``, the verdict a
    change that claims no gain is judged on); last, whether a claimed gain
    would be met (``claim_met``)."""
    b, h = entry["base_quartiles"], entry["head_quartiles"]
    control = f", A/A {100 * entry['control_change']:+.1f}%" if "control_change" in entry else ""
    met = entry.get("claim_met", claim_met(entry))
    bound = "within bound" if entry["within_bound"] else "PAST BOUND"
    return (f"{workload} {name}: {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}] -> "
            f"{h[1]:.4g} [{h[0]:.4g}, {h[2]:.4g}], {100 * entry['change']:+.1f}%{control}, "
            f"head better in {entry['head_wins']} of {entry['pairs']}, "
            f"base IQR {b[2] - b[0]:.3g}, {bound}, claim {'met' if met else 'not met'}")


def report_lines(workload, entry):
    """The claim line of each metric of a workload's entry in a
    ``BENCH_*.json``, then the outcome line of each side, base first, the
    others against the base."""
    lines = [claim_line(workload, name, metric) for name, metric in entry["summary"].items()]
    sides = entry.get("outcomes") or outcomes(entry["runs"])
    return lines + [outcome_line(workload, side, sides[side],
                                 None if side == "base" else sides["base"])
                    for side in sorted(sides)]


def machine_facts():
    """Cores, versions, BLAS thread variables, available memory and load."""
    import numpy

    try:
        meminfo = Path("/proc/meminfo").read_text()
        avail = next(int(line.split()[1]) for line in meminfo.splitlines()
                     if line.startswith("MemAvailable:")) // 1024
    except (OSError, StopIteration, ValueError):
        avail = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "mem_available_mb": avail,
        "load_average": list(os.getloadavg()),
    }


def _checkout(rev, into):
    """Extract ``git archive rev`` into the directory ``into``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], check=True,
                             capture_output=True).stdout
    tar_path = Path(into).with_suffix(".tar")
    tar_path.write_bytes(archive)
    with tarfile.open(tar_path) as tar:
        tar.extractall(into, filter="data")
    tar_path.unlink()
    caches = list(Path(into).rglob("__pycache__"))
    if caches:
        raise RuntimeError(f"{rev} holds bytecode caches: {caches}")


def run_order(pair, control):
    """The sides of a pair in the order they run: the base first on even
    pairs and the head first on odd ones, a control last and first."""
    order = ("base", "head", "control") if control else ("base", "head")
    return order if pair % 2 == 0 else order[::-1]


def run_once(rev, workload, seed, seconds, scratch):
    """One benchmark run of ``rev`` in a fresh checkout; its result object."""
    with tempfile.TemporaryDirectory(dir=scratch) as into:
        _checkout(rev, into)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=into, capture_output=True, text=True)
        if proc.returncode:
            raise RuntimeError(f"{rev} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        return parse_result(proc.stdout)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--summary", metavar="FILE",
                   help="reprint the claim and outcome lines of a BENCH_*.json; no run")
    p.add_argument("--base")
    p.add_argument("--head")
    p.add_argument("--workload")
    p.add_argument("--pairs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--control", action="store_true",
                   help="also run the base against itself in each pair (A/A)")
    args = p.parse_args(argv)
    if args.summary:
        for workload, entry in json.loads(Path(args.summary).read_text())["workloads"].items():
            print("\n".join(report_lines(workload, entry)))
        return 0
    missing = [f"--{name}" for name in ("base", "head", "workload", "pairs", "seed")
               if getattr(args, name) is None]
    if missing:
        p.error(f"a run needs {', '.join(missing)}")

    bench = json.loads(Path("BENCHMARK.json").read_text())
    revs = {side: subprocess.run(["git", "rev-parse", "--short", getattr(args, side)],
                                 check=True, capture_output=True, text=True).stdout.strip()
            for side in ("base", "head")}
    start = machine_facts()
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(args.pairs):
            for side in run_order(i, args.control):
                seed = args.seed + i
                rev = revs["base" if side == "control" else side]
                result = run_once(rev, args.workload, seed, bench["run_seconds"], scratch)
                runs.append({"pair": i, "side": side, "seed": seed, "result": result})
                print(f"pair {i} {side} seed {seed}: "
                      + " ".join(f"{k}={v['value']}" for k, v in result["metrics"].items()),
                      file=sys.stderr)
    summary = summarise(runs, bench["end_to_end"])
    sides = outcomes(runs)

    out = Path(f"BENCH_{revs['head']}.json")
    doc = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    doc.update(base=revs["base"], head=revs["head"])
    doc["workloads"][args.workload] = {
        "seconds": bench["run_seconds"],
        "first_seed": args.seed,
        "machine": {"start": start, "end": machine_facts()},
        "runs": runs,
        "summary": summary,
        "outcomes": sides,
    }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print("\n".join(report_lines(args.workload, doc["workloads"][args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
