"""The summariser of ``tools/bench_pairs.py`` on canned result lines; no
benchmark run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "verdict_ref", "unit": "ref", "better": "lower", "bound": 0.25},
    {"name": "max_depth", "unit": "depth", "better": "higher", "bound": 0.2},
]


def _line(verdict, depth, correct=True, attempted=6, failed=0):
    """A result line as ``perfbench/run.py --trace 0`` prints it."""
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {
        "verdict_ref": {"value": verdict, "unit": "ref"},
        "max_depth": {"value": depth, "unit": "depth"},
    }})


def _runs(base, head):
    runs = []
    for i, (b, h) in enumerate(zip(base, head)):
        for side, (verdict, depth) in (("base", b), ("head", h)):
            stdout = f"ladder: depth 9 ran past the ladder's time\n{_line(verdict, depth)}\n"
            runs.append({"pair": i, "side": side, "seed": 7 + i,
                         "result": bench_pairs.parse_result(stdout)})
    return runs


def test_the_result_is_the_last_line():
    assert bench_pairs.parse_result(_line(1.5, 8) + "\n\n")["metrics"]["max_depth"]["value"] == 8
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n")


def test_summary_counts_wins_per_pair_and_compares_medians_with_the_base_iqr():
    base = [(2.0, 8), (1.9, 8), (2.1, 8), (2.2, 8), (1.8, 8)]
    head = [(1.7, 8), (1.75, 9), (2.15, 8), (1.6, 8), (1.65, 7)]
    summary = bench_pairs.summarise(_runs(base, head), METRICS)
    verdict = summary["verdict_ref"]
    assert verdict["base"] == [2.0, 1.9, 2.1, 2.2, 1.8]
    assert verdict["head"] == [1.7, 1.75, 2.15, 1.6, 1.65]
    assert verdict["base_quartiles"] == pytest.approx([1.9, 2.0, 2.1])
    assert verdict["head_quartiles"] == pytest.approx([1.65, 1.7, 1.75])
    # pair 2 is the one the head loses
    assert (verdict["head_wins"], verdict["pairs"]) == (4, 5)
    assert verdict["change"] == pytest.approx(-0.15)
    assert verdict["within_bound"] and verdict["separated"]
    depth = summary["max_depth"]
    # higher is better: one win, one loss, three ties
    assert depth["head_wins"] == 1
    assert depth["change"] == 0.0 and depth["within_bound"] and not depth["separated"]
    line = bench_pairs.claim_line("pair-verdict", "verdict_ref", verdict)
    assert line == ("pair-verdict verdict_ref: 2 [1.9, 2.1] -> 1.7 [1.65, 1.75], -15.0%, "
                    "head better in 4 of 5, base IQR 0.2, within bound, claim not met")


def test_a_worse_median_past_its_bound_and_an_unpaired_run():
    base = [(1.0, 8), (1.0, 8), (1.0, 8)]
    head = [(1.3, 6), (1.2, 6), (1.4, 6)]
    runs = _runs(base, head)
    runs.append({"pair": 3, "side": "base", "seed": 10,
                 "result": bench_pairs.parse_result(_line(0.1, 8))})
    summary = bench_pairs.summarise(runs, METRICS)
    # the lone run of pair 3 is left out
    assert summary["verdict_ref"]["pairs"] == 3
    assert summary["verdict_ref"]["change"] == pytest.approx(0.3)
    assert not summary["verdict_ref"]["within_bound"]
    assert summary["verdict_ref"]["head_wins"] == 0
    # max_depth 8 -> 6 is 25% worse, past its 0.2 bound
    assert summary["max_depth"]["change"] == pytest.approx(-0.25)
    assert not summary["max_depth"]["within_bound"]
    # the claim line gives that verdict before whether a claim is met
    for name in ("verdict_ref", "max_depth"):
        line = bench_pairs.claim_line("pair-verdict", name, summary[name])
        assert line.endswith(", PAST BOUND, claim not met"), line


def test_outcomes_total_the_failed_operations_and_correctness_per_side():
    lines = {
        ("base", 0): _line(2.0, 8), ("head", 0): _line(1.9, 8, attempted=7, failed=1),
        ("base", 1): _line(2.1, 8), ("head", 1): _line(1.8, 8, correct=False),
    }
    runs = [{"pair": i, "side": side, "seed": 7 + i,
             "result": bench_pairs.parse_result(f"ladder: done\n{line}\n")}
            for (side, i), line in lines.items()]
    sides = bench_pairs.outcomes(runs)
    assert sides["base"] == {"runs": 2, "attempted": 12, "failed": 0, "all_correct": True,
                             "failed_share": 0.0}
    assert sides["head"] == {"runs": 2, "attempted": 13, "failed": 1, "all_correct": False,
                             "failed_share": pytest.approx(1 / 13)}
    assert bench_pairs.outcome_line("ybe-triples", "base", sides["base"]) == (
        "ybe-triples base: 0 of 12 operations failed (0.00%) over 2 runs, every run correct")
    assert bench_pairs.outcome_line("ybe-triples", "head", sides["head"], sides["base"]) == (
        "ybe-triples head: 1 of 13 operations failed (7.69%) over 2 runs, NOT every run correct, "
        "FAILED SHARE ABOVE BASE")


def test_summary_reprints_the_claim_and_outcome_lines_of_a_file_and_starts_no_run(
    tmp_path, capsys, monkeypatch
):
    def no_run(*args, **kwargs):
        raise AssertionError("the summary started a run")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    base = [(2.0, 8), (1.9, 8), (2.1, 8)]
    head = [(1.7, 8), (1.75, 9), (2.15, 8)]
    runs = _runs(base, head)
    entry = {"runs": runs, "summary": bench_pairs.summarise(runs, METRICS),
             "outcomes": bench_pairs.outcomes(runs)}
    # a file written before the outcomes were kept totals them from its runs
    older = {"runs": runs, "summary": entry["summary"]}
    path = tmp_path / "BENCH_canned.json"
    path.write_text(json.dumps({"base": "b", "head": "h",
                                "workloads": {"ybe-triples": entry, "pair-verdict": older}}))
    assert bench_pairs.main(["--summary", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "ybe-triples verdict_ref: 2 [1.95, 2.05] -> 1.75 [1.725, 1.95], -12.5%, "
        "head better in 2 of 3, base IQR 0.1, within bound, claim not met",
        "ybe-triples max_depth: 8 [8, 8] -> 8 [8, 8.5], +0.0%, head better in 1 of 3, base IQR 0, within bound, claim not met",
        "ybe-triples base: 0 of 18 operations failed (0.00%) over 3 runs, every run correct",
        "ybe-triples head: 0 of 18 operations failed (0.00%) over 3 runs, every run correct, "
        "failed share not above base",
        "pair-verdict verdict_ref: 2 [1.95, 2.05] -> 1.75 [1.725, 1.95], -12.5%, "
        "head better in 2 of 3, base IQR 0.1, within bound, claim not met",
        "pair-verdict max_depth: 8 [8, 8] -> 8 [8, 8.5], +0.0%, head better in 1 of 3, base IQR 0, within bound, claim not met",
        "pair-verdict base: 0 of 18 operations failed (0.00%) over 3 runs, every run correct",
        "pair-verdict head: 0 of 18 operations failed (0.00%) over 3 runs, every run correct, "
        "failed share not above base",
    ]
    # a run still needs every one of its options
    with pytest.raises(SystemExit):
        bench_pairs.main(["--base", "HEAD"])
    assert "a run needs --head, --workload, --pairs, --seed" in capsys.readouterr().err


def test_a_control_gives_the_a_a_gap_beside_the_a_b_change(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the summary started a run")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    base = [(2.0, 8), (1.9, 8), (2.1, 8), (2.2, 8), (1.8, 8)]
    head = [(1.7, 8), (1.75, 8), (2.15, 8), (1.6, 8), (1.65, 8)]
    control = [(2.1, 8), (2.0, 8), (2.15, 8), (2.3, 8), (1.9, 8)]
    runs = _runs(base, head)
    for i, (verdict, depth) in enumerate(control):
        runs.append({"pair": i, "side": "control", "seed": 7 + i,
                     "result": bench_pairs.parse_result(_line(verdict, depth))})
    summary = bench_pairs.summarise(runs, METRICS)
    verdict = summary["verdict_ref"]
    # the control runs stay beside the pairs: the A/B figures are those
    # without them
    assert (verdict["head_wins"], verdict["pairs"]) == (4, 5)
    assert verdict["change"] == pytest.approx(-0.15)
    assert verdict["control"] == [2.1, 2.0, 2.15, 2.3, 1.9]
    assert verdict["control_quartiles"] == pytest.approx([2.0, 2.1, 2.15])
    assert verdict["control_change"] == pytest.approx(0.05)
    assert verdict["beyond_control"]
    assert summary["max_depth"]["control_change"] == 0.0
    assert not summary["max_depth"]["beyond_control"]
    line = bench_pairs.claim_line("pair-verdict", "verdict_ref", verdict)
    assert line == ("pair-verdict verdict_ref: 2 [1.9, 2.1] -> 1.7 [1.65, 1.75], -15.0%, "
                    "A/A +5.0%, head better in 4 of 5, base IQR 0.2, within bound, claim not met")
    # a gap of the base against itself larger than the A/B change
    summary = bench_pairs.summarise(_runs(base, base) + [
        {"pair": i, "side": "control", "seed": 7 + i,
         "result": bench_pairs.parse_result(_line(v + 0.3, d))} for i, (v, d) in enumerate(base)
    ], METRICS)
    assert summary["verdict_ref"]["change"] == 0.0
    assert summary["verdict_ref"]["control_change"] == pytest.approx(0.15)
    assert not summary["verdict_ref"]["beyond_control"]
    # --summary prints the same lines from a file, the control's outcome
    # line between the base's and the head's
    entry = {"runs": runs, "summary": bench_pairs.summarise(runs, METRICS),
             "outcomes": bench_pairs.outcomes(runs)}
    path = tmp_path / "BENCH_canned.json"
    path.write_text(json.dumps({"base": "b", "head": "h", "workloads": {"pair-verdict": entry}}))
    assert bench_pairs.main(["--summary", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == line
    assert out[1].startswith("pair-verdict max_depth: 8 [8, 8] -> 8 [8, 8], +0.0%, A/A +0.0%, ")
    assert [o.split(":")[0] for o in out[2:]] == [
        "pair-verdict base", "pair-verdict control", "pair-verdict head"]
    assert out[2].endswith(", every run correct")
    assert all(o.endswith(", failed share not above base") for o in out[3:])


def test_the_run_order_alternates_the_pairs_and_the_control():
    assert [bench_pairs.run_order(i, False) for i in range(3)] == [
        ("base", "head"), ("head", "base"), ("base", "head")]
    assert [bench_pairs.run_order(i, True) for i in range(2)] == [
        ("base", "head", "control"), ("control", "head", "base")]


def _claim(base, head, control=None):
    runs = _runs([(v, 8) for v in base], [(v, 8) for v in head])
    for i, verdict in enumerate(control or ()):
        runs.append({"pair": i, "side": "control", "seed": 7 + i,
                     "result": bench_pairs.parse_result(_line(verdict, 8))})
    return bench_pairs.summarise(runs, METRICS)["verdict_ref"]


def test_a_claim_is_met_on_9_of_10_pairs_past_the_base_iqr_and_the_a_a_gap(tmp_path, capsys):
    base = [2.0, 1.9, 2.1, 2.2, 1.8, 2.0, 1.95, 2.05, 2.1, 1.9]
    head = [v - 0.3 for v in base]
    assert _claim(base, head)["claim_met"]
    # 9 wins and a tie meet it; 8 wins and two ties do not
    entry = _claim(base, head[:9] + [base[9]])
    assert (entry["head_wins"], entry["claim_met"]) == (9, True)
    entry = _claim(base, head[:8] + base[8:])
    assert (entry["head_wins"], entry["claim_met"]) == (8, False)
    # 9 of 9 pairs are too few
    assert not _claim(base[:9], head[:9])["claim_met"]
    # every pair won, but the medians within the base's IQR
    entry = _claim(base, [v - 0.01 for v in base])
    assert entry["head_wins"] == 10 and not entry["separated"] and not entry["claim_met"]
    # a worse median never meets a claim, whatever its distance
    assert not _claim(base, [v + 0.3 for v in base])["claim_met"]
    # a control: a small A/A gap leaves the claim met, one past the change does not
    assert _claim(base, head, control=[v + 0.02 for v in base])["claim_met"]
    entry = _claim(base, head, control=[v + 0.4 for v in base])
    assert not entry["beyond_control"] and not entry["claim_met"]
    line = bench_pairs.claim_line("ybe-triples", "verdict_ref", _claim(base, head))
    assert line.endswith(", head better in 10 of 10, base IQR 0.175, within bound, claim met")
    # --summary derives it for a file written before it was kept
    runs = _runs([(v, 8) for v in base], [(v, 8) for v in head])
    summary = bench_pairs.summarise(runs, METRICS)
    for metric in summary.values():
        del metric["claim_met"]
    path = tmp_path / "BENCH_older.json"
    path.write_text(json.dumps({"base": "b", "head": "h", "workloads": {
        "ybe-triples": {"runs": runs, "summary": summary}}}))
    assert bench_pairs.main(["--summary", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == line
    assert out[1].endswith(", claim not met")
