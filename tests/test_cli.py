import itertools
import json
import re
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from coassoc_count_oracle import coassoc_splits as oracle_splits

from cuntzr import coproduct
from cuntzr.algebra import AlgebraElement, CuntzMonomial
from cuntzr.cli import (
    MAX_COASSOC_SPLITS,
    ScenarioSpec,
    _coassoc_splits,
    _random_keys,
    _run_state_product,
    main,
    run_scenario,
    stable_json,
)
from cuntzr.errors import SpecError
from cuntzr.rmatrix import RMatrixOperator, build_r, radix_perm, verify_intertwining, verify_ybe
from cuntzr.states import GPState, boxtimes, gp_eval, star

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def run(args):
    return main(args)


# ---------------------------------------------------------------------------
# subcommands


def test_verify_coassoc_exits_zero(capsys):
    assert run(["verify-coassoc", "--n", "6", "--max-len", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS coassoc-generators" in out
    assert "PASS overall" in out


def test_state_product(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = run(
        [
            "state-product",
            "--omega1",
            '{"standard": 2}',
            "--omega2",
            '{"standard": 3}',
            "--out",
            str(path),
        ]
    )
    assert code == 0
    report = json.loads(path.read_text())
    names = [c["name"] for c in report["checks"]]
    assert "product-matches-interleaved-state" in names
    assert report["pass"] is True


def test_state_product_noncommuting_pair_reports_witness(tmp_path):
    path = tmp_path / "report.json"
    code = run(
        [
            "state-product",
            "--omega1",
            '{"n": 2, "z": [[1.0, 0.0], [0.0, 0.0]]}',
            "--omega2",
            '{"n": 2, "z": [[0.0, 0.0], [1.0, 0.0]]}',
            "--out",
            str(path),
        ]
    )
    assert code == 1  # overall pass is false for a noncommuting pair
    report = json.loads(path.read_text())
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["commutes"]["pass"] is False
    assert by_name["commutes"]["witness"] == "n=4;u=2;v="


def test_build_r_exports_permutation(tmp_path):
    path = tmp_path / "r.json"
    code = run(
        [
            "build-r",
            "--omega1",
            '{"standard": 2}',
            "--omega2",
            '{"standard": 3}',
            "--depth",
            "1",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    export = json.loads(path.read_text())
    assert [1, 3, 1, 2] in export["permutation"]
    assert export["rank"] == 6
    jsonschema.validate(export, load_schema("rmatrix-export.schema.json"))


def test_depth_7_export_under_a_320_mb_address_space_cap(tmp_path, run_capped):
    # 279936 permutation rows; rendered one piece per token, the export ran
    # out of memory under this cap
    path = tmp_path / "r.json"
    out = run_capped(f"""
        from cuntzr.cli import main
        raise SystemExit(main(["build-r", "--omega1", '{{"standard": 2}}',
                               "--omega2", '{{"standard": 3}}', "--depth", "7",
                               "--out", {str(path)!r}]))
    """, 320)
    assert out.returncode == 0, out.stderr
    export = json.loads(path.read_text())
    assert len(export["permutation"]) == 6**7
    assert export["permutation"][1] == [1, 2, 2, 1]


def test_coassoc_at_the_largest_index_under_a_224_mb_address_space_cap(run_capped):
    # O_666649, the largest index verify-coassoc allows: the tables are held
    # as their digit columns only, and with every letter agreeing no
    # monomial is split, so no per-letter rows are built; with the rows of
    # every table built as well, this ran out of memory under this cap
    out = run_capped("""
        from cuntzr.cli import main
        raise SystemExit(main(["verify-coassoc", "--n", "666649", "--samples", "0"]))
    """, 224)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "PASS overall"


def test_running_out_of_memory_past_the_preflight_exits_2(tmp_path, run_capped):
    # the preflight compares its estimate with the whole cap, not with what
    # is left of it after the interpreter and numpy, so under this cap the
    # depth-7 checks pass it and then fail to allocate; with one BLAS
    # thread they fit under 256 MB, and the preflight refuses below 180 MB
    out = run_capped(f"""
        from cuntzr.cli import main
        raise SystemExit(main(["build-r", "--omega1", '{{"standard": 2}}',
                               "--omega2", '{{"standard": 3}}', "--depth", "7",
                               "--out", {str(tmp_path / "r.json")!r}]))
    """, 224)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("error: ")
    assert "Traceback" not in out.stderr
    assert "memory limit" not in out.stderr  # not the preflight's refusal


def test_build_r_noncommuting_is_a_failed_check_not_a_crash(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = run(
        [
            "build-r",
            "--omega1",
            '{"n": 2, "z": [[1.0, 0.0], [0.0, 0.0]]}',
            "--omega2",
            '{"n": 2, "z": [[0.0, 0.0], [1.0, 0.0]]}',
            "--depth",
            "1",
            "--report",
            str(report_path),
        ]
    )
    assert code == 1
    report = json.loads(report_path.read_text())
    check = report["checks"][0]
    assert check["name"] == "well-defined-gram-equality"
    assert check["pass"] is False
    assert check["witness"] == "n=4;u=2;v="


@pytest.mark.parametrize("pair", [("standard", "standard"), ("uniform", "uniform")])
def test_build_r_failures_name_the_worst_column_and_word(monkeypatch, capsys, pair):
    # R_1[0, 1] moved by 1e-6: the unitary record names the column of the
    # largest entry of R_1^H R_1 - I as a digit pair, and the defining
    # relation the word of the worst column over the words up to length 1
    from cuntzr import cli, rmatrix

    built = []

    def bumped(omega1, omega2, depth):
        rmat = build_r(omega1, omega2, depth)
        rmat.r1[0, 1] += 1e-6
        built.append(rmat)
        return rmat

    monkeypatch.setattr(cli, "build_r", bumped)
    code = run(["build-r", "--omega1", f'{{"{pair[0]}": 2}}', "--omega2", f'{{"{pair[1]}": 3}}',
                "--depth", "2"])
    assert code == 1
    rmat = built[0]
    dev = np.abs(rmat.r1.conj().T @ rmat.r1 - np.eye(6))
    i, j = divmod(int(np.argmax(dev)) % 6, 3)
    reps = (rmat.rep1, rmat.rep2)
    V, W = (next(rmatrix._word_images(reps, form, 1, rmat.dims)) for form in ("delta", "delta_op"))
    norms = np.linalg.norm((rmat.apply_dense(V) - W).reshape(-1, 7), axis=0)
    word = [(), *((g,) for g in range(1, 7))][int(np.argmax(norms))]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        f"FAIL unitary residual={dev.max():.3e} witness=digit-pair={i + 1},{j + 1}",
        f"FAIL defining-relation residual={norms.max():.3e} "
        f"witness={CuntzMonomial(6, word, ()).label()}",
    ]


def test_all_names_the_worst_column_of_the_leg_swap_and_the_worst_basis_pair(monkeypatch, capsys):
    # R_1[0, 1] moved by 1e-6 in every operator: operator-is-leg-swap names
    # the digit pair of its worst column of R_1 - F_1, and the closed form
    # its worst source basis pair; every FAIL line of the battery names one
    from cuntzr.rmatrix import swap_index_pair

    built = RMatrixOperator.__init__

    def bumped(self, *args):
        built(self, *args)
        self.r1[0, 1] += 1e-6

    monkeypatch.setattr(RMatrixOperator, "__init__", bumped)
    assert run(["all"]) == 1
    fails = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
             if line.startswith("FAIL ") and line != "FAIL overall"}
    assert all(" witness=" in line for line in fails.values())
    for label, omega in (("standard-2", GPState.standard(2)), ("uniform-2", GPState.uniform(2))):
        rmat = RMatrixOperator(omega, omega, 2)
        norms = np.linalg.norm(rmat.r1 - np.eye(4)[:, [0, 2, 1, 3]], axis=0)
        i, j = divmod(int(np.argmax(norms)), 2)
        assert fails[f"equal-states-{label}/operator-is-leg-swap"] == (
            f"FAIL equal-states-{label}/operator-is-leg-swap residual={norms.max():.3e} "
            f"witness=digit-pair={i + 1},{j + 1}")
    # each source pair on its own, through the dict adapter
    rmat = RMatrixOperator(GPState.standard(2), GPState.standard(3), 2)
    gaps = {}
    for a, b in itertools.product(range(1, 5), range(1, 10)):
        image = rmat.apply({(a, b): 1.0})
        image[swap_index_pair(2, 3, a, b, 2)] = image.get(swap_index_pair(2, 3, a, b, 2), 0) - 1
        gaps[a, b] = float(np.linalg.norm(list(image.values())))
    line = fails["closed-form-2-3/matches-built-operator"]
    a, b = map(int, line.split("witness=basis-pair=")[1].split(","))
    worst = max(gaps.values())
    assert line.startswith(f"FAIL closed-form-2-3/matches-built-operator residual={worst:.3e} ")
    assert gaps[a, b] == pytest.approx(worst, rel=1e-12)
    # the first pair on a tie
    assert all(gap < worst * (1 - 1e-12) for pair, gap in gaps.items() if pair < (a, b))


def test_verify_with_three_states(capsys):
    code = run(
        [
            "verify",
            "--omega1",
            '{"uniform": 2}',
            "--omega2",
            '{"uniform": 3}',
            "--omega3",
            '{"uniform": 2}',
            "--depth",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS intertwine" in out
    assert "PASS inversion-symmetry" in out
    assert "PASS ybe" in out


# the battery's records that fold a verifier's report
_FOLDED = ("/intertwine", "/inversion-symmetry", "/ybe")


def _perturbed_r1(monkeypatch):
    """Every operator built from here on has R_1[0, 1] moved by 1e-6."""
    real_init = RMatrixOperator.__init__

    def init(self, *args):
        real_init(self, *args)
        self.r1[0, 1] += 1e-6

    monkeypatch.setattr(RMatrixOperator, "__init__", init)


def test_failing_folded_records_name_their_worst_record(monkeypatch, tmp_path, capsys):
    u2, u3 = GPState.uniform(2), GPState.uniform(3)
    _perturbed_r1(monkeypatch)
    path = tmp_path / "verify.json"
    states = ["--omega1", '{"uniform": 2}', "--omega2", '{"uniform": 3}', "--omega3", '{"uniform": 2}']
    assert run(["verify", *states, "--depth", "2", "--out", str(path)]) == 1
    report = json.loads(path.read_text())
    jsonschema.validate(report, load_schema("report.schema.json"))
    folded = {c["name"]: c for c in report["checks"]}
    assert not any(c["pass"] for c in folded.values())
    # the witness is a failing record of the verifier, with the folded residual
    subs = {
        "intertwine": verify_intertwining(build_r(u2, u3, 2)),
        "ybe": verify_ybe(u2, u3, u2, 2),
    }
    for name, sub in subs.items():
        records = {c.name: c for c in sub.checks}
        witness = folded[name]["witness"]
        assert not records[witness].passed
        assert records[witness].residual == folded[name]["residual"]
    assert re.fullmatch(r"intertwine:n=6;u=\d;v=", folded["intertwine"]["witness"])
    assert re.fullmatch(r"ybe:n=12;u=(\d+,)*\d+;v=", folded["ybe"]["witness"])
    # inversion symmetry names the worst digit pair (i, j) of R_1: its column
    # of R_1 F R_1' F - I, with the flips as permutation matrices, is the worst
    witness = folded["inversion-symmetry"]["witness"]
    i, j = map(int, re.fullmatch(r"digit-pair=(\d),(\d)", witness).groups())
    r12, r21 = build_r(u2, u3, 2).r1, build_r(u3, u2, 2).r1
    F = np.eye(6)[:, radix_perm(3, 2)]
    norms = np.linalg.norm(r12 @ F.T @ r21 @ F - np.eye(6), axis=0)
    assert np.argmax(norms) == (i - 1) * 3 + (j - 1)
    assert norms.max() == pytest.approx(folded["inversion-symmetry"]["residual"], rel=1e-12)
    out = capsys.readouterr().out
    assert f"FAIL ybe residual={folded['ybe']['residual']:.3e} witness=ybe:n=12;" in out
    # the battery's folded records name theirs too
    path = tmp_path / "all.json"
    assert run(["all", "--out", str(path)]) == 1
    folded = [c for c in json.loads(path.read_text())["checks"] if c["name"].endswith(_FOLDED)]
    assert len(folded) == 6
    assert all(not c["pass"] and "witness" in c for c in folded)


def test_passing_folded_records_carry_no_witness(tmp_path):
    path = tmp_path / "all.json"
    assert run(["all", "--out", str(path)]) == 0
    folded = [c for c in json.loads(path.read_text())["checks"] if c["name"].endswith(_FOLDED)]
    assert len(folded) == 6
    assert all(c["pass"] and "witness" not in c for c in folded)


def test_counterexample(capsys):
    assert run(["counterexample"]) == 0
    out = capsys.readouterr().out
    assert "PASS construction-rejects-pair" in out
    assert "witness=n=4;u=2;v=" in out


def test_all_battery(tmp_path):
    path = tmp_path / "all.json"
    assert run(["all", "--out", str(path)]) == 0
    report = json.loads(path.read_text())
    assert report["pass"] is True
    names = [c["name"] for c in report["checks"]]
    assert "ybe-standard-2-3-5/ybe" in names
    assert "equal-states-standard-2/operator-is-leg-swap" in names
    jsonschema.validate(report, load_schema("report.schema.json"))


# ---------------------------------------------------------------------------
# determinism and round trips


def test_reports_are_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = [
        "state-product",
        "--omega1",
        '{"uniform": 2}',
        "--omega2",
        '{"uniform": 3}',
    ]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scenario_round_trip(tmp_path):
    path = tmp_path / "r.json"
    assert (
        run(
            [
                "verify-coassoc",
                "--n",
                "4",
                "--samples",
                "5",
                "--seed",
                "11",
                "--out",
                str(path),
            ]
        )
        == 0
    )
    report = json.loads(path.read_text())
    spec = ScenarioSpec(**report["scenario"])
    report2, _, _ = run_scenario(spec)
    assert report2["scenario"] == report["scenario"]
    assert report2["checks"] == report["checks"]
    jsonschema.validate(report, load_schema("report.schema.json"))


def test_timings_flag_adds_timings(tmp_path):
    path = tmp_path / "t.json"
    assert run(["counterexample", "--out", str(path), "--timings"]) == 0
    report = json.loads(path.read_text())
    assert "timings" in report and report["timings"]["total_s"] >= 0.0


def test_stable_json_formatting():
    text = stable_json({"b": 1.0, "a": [True, None, 0.1]})
    assert text.index('"a"') < text.index('"b"')
    assert "0.10000000000000001" in text  # 17 significant digits


def test_stable_json_renders_exact_bytes():
    obj = {
        "z": {"empty": {}, "none": [], "flags": [True, False, None]},
        "a": [np.int64(-3), np.float64(0.1), 2.5e-300, 7, [[1, 2], {"k": "q\"\\\né"}]],
    }
    assert stable_json(obj) == (
        '{\n'
        '  "a": [\n'
        '    -3,\n'
        '    0.10000000000000001,\n'
        '    2.5e-300,\n'
        '    7,\n'
        '    [\n'
        '      [\n'
        '        1,\n'
        '        2\n'
        '      ],\n'
        '      {\n'
        '        "k": "q\\"\\\\\\n\\u00e9"\n'
        '      }\n'
        '    ]\n'
        '  ],\n'
        '  "z": {\n'
        '    "empty": {},\n'
        '    "flags": [\n'
        '      true,\n'
        '      false,\n'
        '      null\n'
        '    ],\n'
        '    "none": []\n'
        '  }\n'
        '}\n'
    )
    assert stable_json([]) == "[]\n" and stable_json("x") == '"x"\n'
    # a list of plain ints is one join; a bool or a numpy int among them
    # is rendered item by item, so True stays true
    assert stable_json([1, True, 0]) == "[\n  1,\n  true,\n  0\n]\n"
    assert stable_json((np.int64(2), 3)) == "[\n  2,\n  3\n]\n"
    assert stable_json([[4, 5]]) == "[\n  [\n    4,\n    5\n  ]\n]\n"
    for bad, message in (
        ({"a": {1: 2}}, "keys must be strings"),
        ([1, float("nan")], "non-finite"),
        ({"a": {1, 2}}, "cannot emit set"),
    ):
        with pytest.raises(ValueError, match=message):
            stable_json(bad)


# ---------------------------------------------------------------------------
# validation


def test_bad_state_json_is_a_spec_error(capsys):
    code = run(["state-product", "--omega1", "{bad", "--omega2", '{"standard": 2}'])
    assert code == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_non_unit_vector_is_rejected(capsys):
    code = run(
        [
            "state-product",
            "--omega1",
            '{"n": 2, "z": [[1.0, 0.0], [1.0, 0.0]]}',
            "--omega2",
            '{"standard": 2}',
        ]
    )
    assert code == 2
    assert "omega1" in capsys.readouterr().err


def test_tol_out_of_range_is_rejected(capsys):
    code = run(["verify-coassoc", "--n", "4", "--tol", "0.5"])
    assert code == 2


_STD2 = '{"standard": 2}'
_STD3 = '{"standard": 3}'


@pytest.mark.parametrize(
    "args",
    [
        ["state-product", "--omega1", '{"standard": 0}', "--omega2", _STD2],
        ["state-product", "--omega1", '{"standard": -1}', "--omega2", _STD2],
        ["state-product", "--omega1", '{"uniform": 0}', "--omega2", _STD2],
        ["state-product", "--omega1", '{"standard": 2.9}', "--omega2", _STD2],
        ["state-product", "--omega1", '{"standard": "2"}', "--omega2", _STD2],
        ["state-product", "--omega1", '{"uniform": true}', "--omega2", _STD2],
        ["state-product", "--omega1", '{"n": 2.5, "z": [[1, 0], [0, 0]]}', "--omega2", _STD2],
        ["state-product", "--omega1", "{bad", "--omega2", _STD2],
        ["state-product", "--omega1", "@{missing}", "--omega2", _STD2],
        ["counterexample", "--tol", "0.5"],
        ["counterexample", "--tol", "nan"],
        ["verify", "--omega1", _STD2, "--omega2", _STD2, "--depth", "-1"],
        ["verify", "--omega1", _STD2, "--omega2", _STD2, "--depth", "0"],
        ["verify-coassoc", "--n", "0"],
        ["verify-coassoc", "--n", "4", "--samples", "3", "--seed", "-1"],
        ["state-product", "--omega1", '{"n": 2, "z": [["1", "0"], [false, 0]]}', "--omega2", _STD3],
        ["state-product", "--omega1", '{"n": 2, "z": [[NaN, 0], [0, 0]]}', "--omega2", _STD3],
        ["state-product", "--omega1", '{"standard": 2, "uniform": 2.5}', "--omega2", _STD3],
        ["state-product", "--omega1", '{"standard": 2, "bogus": 1}', "--omega2", _STD3],
        # C^1 holds the scalar 1 alone; i is a unit vector of C but no state of O_1
        ["state-product", "--omega1", '{"n": 1, "z": [[0, 1]]}', "--omega2", '{"uniform": 5}'],
    ],
)
def test_bad_input_exits_2_with_an_error_line(args, tmp_path, capsys):
    # an exception escaping main would reach the console as a traceback
    args = [a.format(missing=tmp_path / "missing.json") if a.startswith("@") else a for a in args]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_state_file_reference(tmp_path):
    state_path = tmp_path / "omega.json"
    state_path.write_text('{"uniform": 2}')
    code = run(
        [
            "state-product",
            "--omega1",
            f"@{state_path}",
            "--omega2",
            '{"uniform": 3}',
        ]
    )
    assert code == 0


# ---------------------------------------------------------------------------
# measured residuals


def test_perturbed_coassociativity_fails_with_its_residual(tmp_path, altered_tables):
    # f_l's table of O_4 without its last block, (4, 1, 1): each monomial's
    # term of coefficient 1 there has nothing to cancel it
    table = coproduct._table(4, "f_l")
    entries = [(b, [table.columns[c] for c in legs]) for b, legs in zip(table.blocks, table.legs)]
    assert entries[-1][0] == (4, 1, 1)
    altered_tables.replace(4, "f_l", coproduct._tabulate(4, "f_l", entries[:-1]))
    path = tmp_path / "r.json"
    assert run(["verify-coassoc", "--n", "4", "--samples", "3", "--out", str(path)]) == 1
    report = json.loads(path.read_text())
    assert [c["name"] for c in report["checks"]] == [
        "coassoc-generators",
        "coassoc-unit",
        "coassoc-random-monomials",
    ]
    for check in report["checks"]:
        assert check["pass"] is False
        assert check["residual"] == 1.0


def test_commutes_record_carries_the_interleaving_gap(tmp_path):
    path = tmp_path / "r.json"
    e1 = '{"n": 2, "z": [[1.0, 0.0], [0.0, 0.0]]}'
    e2 = '{"n": 2, "z": [[0.0, 0.0], [1.0, 0.0]]}'
    assert run(["state-product", "--omega1", e1, "--omega2", e2, "--out", str(path)]) == 1
    by_name = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    # e1 [*] e2 = e_2 and e2 [*] e1 = e_3 in C^4
    assert by_name["commutes"]["residual"] == 1.0
    assert run(["state-product", "--omega1", e1, "--omega2", e1, "--out", str(path)]) == 0
    by_name = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    assert by_name["commutes"] == {"name": "commutes", "pass": True, "residual": 0.0}


def test_rejection_records_carry_the_separating_gap(tmp_path):
    path = tmp_path / "r.json"
    assert run(["counterexample", "--out", str(path)]) == 0
    by_name = {c["name"]: c for c in json.loads(path.read_text())["checks"]}
    # rho_{e1 [*] e2}(s_2) = 1 and rho_{e2 [*] e1}(s_2) = 0
    assert by_name["construction-rejects-pair"]["residual"] == 1.0
    assert by_name["construction-rejects-pair"]["witness"] == "n=4;u=2;v="


def test_tolerance_defaults_per_kind():
    from cuntzr.algebra import EQ_TOL
    from cuntzr.rmatrix import BUILD_TOL

    assert ScenarioSpec(kind="coassoc").tol == EQ_TOL == 1e-12
    assert ScenarioSpec(kind="state-product").tol == EQ_TOL
    for kind in ("build-r", "verify", "counterexample", "all"):
        assert ScenarioSpec(kind=kind).tol == BUILD_TOL == 1e-9
    assert ScenarioSpec(kind="all").tol == BUILD_TOL
    assert ScenarioSpec(kind="coassoc", tol=1e-5).tol == 1e-5


@pytest.mark.parametrize(
    "spec, args",
    [
        (dict(kind="coassoc", n=4), ["verify-coassoc", "--n", "4"]),
        (
            dict(kind="state-product", omega1={"uniform": 2}, omega2={"uniform": 3}, max_len=3,
                 samples=100),
            ["state-product", "--omega1", '{"uniform": 2}', "--omega2", '{"uniform": 3}'],
        ),
    ],
)
def test_library_path_gives_the_cli_report(spec, args, tmp_path):
    # same inputs, same report: tolerance per kind, states in canonical form
    path = tmp_path / "r.json"
    assert run(args + ["--out", str(path)]) == 0
    report, _, _ = run_scenario(ScenarioSpec(**spec))
    assert stable_json(report) == path.read_text()
    assert report["scenario"]["tol"] == 1e-12
    if "omega1" in spec:
        assert report["scenario"]["omega1"] == GPState.uniform(2).to_json()
        assert set(report["scenario"]["omega2"]) == {"n", "z"}


def test_library_spec_rejects_what_the_cli_rejects():
    with pytest.raises(SpecError, match="tol must lie in"):
        run_scenario(ScenarioSpec(kind="coassoc", n=4, tol=0.5))
    with pytest.raises(SpecError, match="omega1: basis vector"):
        ScenarioSpec(kind="verify", omega1={"standard": 0}, omega2={"standard": 2})


@pytest.mark.parametrize(
    "spec, message",
    [
        (dict(kind="coassoc", n=2.5), "coassoc needs --n >= 1"),
        (dict(kind="coassoc", n=3, samples=2.5), "samples 2.5 is not an integer"),
        (
            dict(kind="state-product", omega1={"uniform": 2}, omega2={"uniform": 3}, max_len=2.5,
                 samples=3),
            "max-len 2.5 is not an integer",
        ),
        (dict(kind="coassoc", n=4, seed=1.5), "seed 1.5 is not an integer"),
        (dict(kind="coassoc", n=4, depth=True), "depth True is not an integer"),
        (dict(kind="coassoc", n=4, tol="1e-4"), "tol must lie in (0, 1e-3], got '1e-4'"),
        # n is read on every kind given one: these counterexample specs ran
        # and reported n as 2.5, true and 0
        (dict(kind="counterexample", n=2.5), "n 2.5 is not an integer"),
        (dict(kind="counterexample", n=True), "n True is not an integer"),
        (dict(kind="counterexample", n=0), "n must be >= 1, got 0"),
    ],
)
def test_library_spec_reads_its_integers_and_tol_by_the_one_rule(spec, message):
    # n=2.5 and samples=2.5 raised a raw TypeError, max_len=2.5 and seed=1.5
    # ran, and a string tol raised TypeError from the range comparison
    with pytest.raises(SpecError) as exc:
        run_scenario(ScenarioSpec(**spec))
    assert exc.value.errors == [message]


def test_library_spec_integers_are_reported_as_ints():
    report, _, _ = run_scenario(ScenarioSpec(kind="coassoc", n=np.int64(4), samples=np.int32(2)))
    assert type(report["scenario"]["n"]) is int and report["scenario"]["n"] == 4
    assert type(report["scenario"]["samples"]) is int and report["scenario"]["samples"] == 2
    plain, _, _ = run_scenario(ScenarioSpec(kind="coassoc", n=4, samples=2))
    assert stable_json(report) == stable_json(plain)
    report, _, _ = run_scenario(ScenarioSpec(kind="counterexample", n=np.int64(3)))
    assert type(report["scenario"]["n"]) is int and report["scenario"]["n"] == 3


def test_only_the_subcommand_kinds_run():
    # no subcommand produces the kinds intertwine, symmetry or ybe; `verify`
    # runs all three checks
    states = {"omega1": {"uniform": 2}, "omega2": {"uniform": 3}, "omega3": {"uniform": 2}}
    for kind in ("intertwine", "symmetry", "ybe"):
        with pytest.raises(SpecError, match=f"unknown scenario kind '{kind}'"):
            run_scenario(ScenarioSpec(kind=kind, **states))
    enum = load_schema("report.schema.json")["properties"]["scenario"]["properties"]["kind"]
    assert not {"intertwine", "symmetry", "ybe"} & set(enum["enum"])


def test_coassoc_needs_a_positive_index(capsys):
    assert run(["verify-coassoc", "--n", "0"]) == 2
    assert "--n >= 1" in capsys.readouterr().err


def test_state_product_needs_a_positive_sample_count(tmp_path, capsys):
    args = ["state-product", "--omega1", '{"uniform": 2}', "--omega2", '{"uniform": 3}']
    assert run(args + ["--samples", "0"]) == 2
    assert "state-product needs --samples >= 1" in capsys.readouterr().err
    # the default count is 100; naming it gives the same report, whose
    # worst deviation 2^-55 is pinned from the earlier fallback to 100
    default, named = tmp_path / "default.json", tmp_path / "named.json"
    assert run(args + ["--out", str(default)]) == 0
    assert run(args + ["--samples", "100", "--out", str(named)]) == 0
    assert named.read_bytes() == default.read_bytes()
    report = json.loads(named.read_text())
    assert report["scenario"]["samples"] == 100
    assert report["checks"] == [
        {"name": "product-matches-interleaved-state", "pass": True, "residual": 2.0**-55},
        {"name": "commutes", "pass": True, "residual": 0.0},
    ]


# ---------------------------------------------------------------------------
# the size cap of verify-coassoc


def test_coassoc_split_estimate_is_the_counted_work(splits, altered_tables, capsys):
    args = ["verify-coassoc", "--n", "360", "--samples", "5"]
    # d_3(360) = 180, for 361 + 5 monomials; a monomial that falls back is
    # split in one pass through the table of each double coproduct, which
    # writes one term into each of its 180 blocks
    assert _coassoc_splits(360, 5) == 366 * 2 * 180
    assert run(args) == 0
    # on the real tables every letter agrees and no monomial is split
    assert splits.passes == []
    real = coproduct._table(360, "f_l")
    entries = [(block, [real.columns[c] for c in legs]) for block, legs in zip(real.blocks, real.legs)]
    # one letter moved in one block of f_l's table: only the monomials
    # holding it are split, fewer than the count
    block, cols = entries[1]
    col = cols[2].copy()
    col[7] = col[7] % block[2] + 1
    moved = [entries[0], (block, [cols[0], cols[1], col]), *entries[2:]]
    altered_tables.replace(360, "f_l", coproduct._tabulate(360, "f_l", moved))
    assert run(args) == 1
    assert 0 < len(splits.passes) < 2 * 366
    assert set(splits.passes) == {(360, "f_r", 180), (360, "f_l", 180)}
    assert sum(writes for _, _, writes in splits.passes) < _coassoc_splits(360, 5)
    splits.passes.clear()
    # f_l's first block (1, 1, 360) renamed (1, 1, 720), which f_r's table
    # lacks: the two tables' blocks differ, so every monomial, the unit too,
    # falls back, and the count is the work done; no Delta, every pass is
    # through the table of f_r or of f_l
    (a, b, c), cols = entries[0]
    assert (a, b, c) == (1, 1, 360)
    renamed = [((1, 1, 720), cols), *entries[1:]]
    altered_tables.replace(360, "f_l", coproduct._tabulate(360, "f_l", renamed))
    assert run(args) == 1
    assert splits.passes == 366 * [(360, "f_r", 180), (360, "f_l", 180)]
    assert sum(writes for _, _, writes in splits.passes) == _coassoc_splits(360, 5)


def test_oversized_coassoc_fails_fast(altered_tables, capsys):
    from cuntzr.cli import _validate

    # --n 3000 makes about 1.8M term writes and runs; --n 30000 would make 41M
    assert _coassoc_splits(3000, 0) <= MAX_COASSOC_SPLITS < _coassoc_splits(30000, 0)

    def table(n):
        raise AssertionError("a refused request read a digit table")

    # every table is built from the digit table, and none is cached here
    altered_tables.digits(table)
    for args, needs in (
        (["--n", "30000"], "needs 40501350 term writes"),
        (["--n", "4", "--samples", "700000"], "needs 8400060 term writes"),
    ):
        start = time.perf_counter()
        assert run(["verify-coassoc", *args]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needs in err
        assert f"above the cap of {MAX_COASSOC_SPLITS}" in err
    # an index too large to factor is refused on the floor of 2 term writes a monomial
    with pytest.raises(SpecError) as exc:
        _validate(ScenarioSpec(kind="coassoc", n=10**30))
    assert f"needs at least {2 * (10**30 + 1)} term writes" in exc.value.errors[0]


def test_coassoc_split_count_equals_the_prime_factorization_count(altered_tables):
    # d_3(n) from the tables' divisor pairs against the trial-division count
    # the cap used before; neither reads a digit table
    def table(n):
        raise AssertionError("the split count read a digit table")

    altered_tables.digits(table)
    for n in [*range(1, 3001), 30000, 666649, 720720]:
        assert _coassoc_splits(n, 5) == oracle_splits(n, 5), n


def test_the_parser_is_built_once_and_parses_alike_after_an_error(tmp_path, capsys):
    from cuntzr.cli import build_parser

    assert build_parser() is build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run(["counterexample", "--out", str(first)]) == 0
    out = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["counterexample", "--depth", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --depth 2" in capsys.readouterr().err
    assert run(["counterexample", "--out", str(second)]) == 0
    assert capsys.readouterr().out == out
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------------------------
# the draws of word pairs, and the product-state record read on them


def _random_monomials(rng, n, max_len, count):
    """The draw as one validated monomial a sample: every length in one
    call, every letter in another, each monomial taking its words' letters
    in turn."""
    lengths = rng.integers(0, max_len + 1, size=(count, 2)).tolist()
    letters = iter(rng.integers(1, n + 1, size=sum(map(sum, lengths))).tolist())
    return [
        CuntzMonomial(n, tuple(itertools.islice(letters, a)), tuple(itertools.islice(letters, b)))
        for a, b in lengths
    ]


def test_drawn_keys_wrapped_as_monomials_are_the_monomial_draw():
    for seed in (0, 7, 11, 2024):
        for n, max_len, count in ((1, 3, 20), (6, 0, 10), (12, 2, 25), (60, 5, 40)):
            keys_rng, monos_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            keys = _random_keys(keys_rng, n, max_len, count)
            assert [CuntzMonomial(n, *key) for key in keys] == _random_monomials(
                monos_rng, n, max_len, count
            )
            # both leave the generator in the same state
            assert keys_rng.integers(1 << 62) == monos_rng.integers(1 << 62)


def _per_monomial_worst(spec):
    """The product-state record's residual from one element a sample: the
    product functional and the interleaved state, each called on it."""
    rng = np.random.default_rng(spec.seed)
    boxed = boxtimes(spec.omega1.z, spec.omega2.z)
    prod = star(spec.omega1, spec.omega2)
    worst = 0.0
    for mono in _random_monomials(rng, prod.n, spec.max_len, spec.samples):
        x = AlgebraElement.monomial(mono)
        worst = max(worst, abs(prod(x) - gp_eval(boxed, x)))
    return worst


def _random_state(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return GPState(z / np.linalg.norm(z) if n > 1 else [1.0])


def test_state_product_records_equal_the_per_monomial_loop(monkeypatch):
    from cuntzr import algebra

    rng = np.random.default_rng(37)
    x2 = _random_state(rng, 2)
    pairs = [
        (GPState.standard(2), GPState.standard(3)),
        (GPState.uniform(2), GPState.uniform(3)),
        (_random_state(rng, 2), _random_state(rng, 3)),
        (_random_state(rng, 3), _random_state(rng, 2)),
        (x2, GPState(np.kron(x2.z.z, x2.z.z))),
        (GPState.standard(1), _random_state(rng, 3)),
        (_random_state(rng, 2), GPState.standard(1)),
        (GPState.standard(1), GPState.standard(1)),
    ]
    built = []
    real_post_init = algebra.CuntzMonomial.__post_init__
    for omega1, omega2 in pairs:
        for max_len in (0, 3, 5):
            spec = ScenarioSpec(kind="state-product", omega1=omega1, omega2=omega2,
                                max_len=max_len, samples=150, seed=int(rng.integers(100)))
            want = _per_monomial_worst(spec)
            monkeypatch.setattr(algebra.CuntzMonomial, "__post_init__",
                                lambda self: built.append(self) or real_post_init(self))
            (record,) = (c for c in _run_state_product(spec).checks
                         if c.name == "product-matches-interleaved-state")
            monkeypatch.setattr(algebra.CuntzMonomial, "__post_init__", real_post_init)
            assert record.residual.hex() == want.hex()
            assert record.passed
            # at most the commutes witness is built, no monomial a sample
            assert len(built) <= 1
            built.clear()
            # each drawn pair reads the value of the call on its monomial
            prod = star(omega1, omega2)
            for key in _random_keys(np.random.default_rng(spec.seed), prod.n, max_len, 40):
                assert prod.word_value(key) == prod(CuntzMonomial(prod.n, *key))


def test_oversized_draws_are_refused_before_they_start(run_capped):
    # samples * (2 + 2 max_len) entries, the draw's worst case, past the
    # cap: exit 2 with the preflight's message, where numpy's MemoryError
    # came after the allocation was tried
    for argv in (
        ["state-product", "--omega1", '{"uniform": 2}', "--omega2", '{"uniform": 3}',
         "--samples", "100000000"],
        ["verify-coassoc", "--n", "2", "--max-len", "100000000", "--samples", "1"],
    ):
        proc = run_capped(f"""
            import time
            from cuntzr.cli import main
            start = time.perf_counter()
            code = main({argv!r})
            print(code, time.perf_counter() - start)
        """, 1024)
        code, seconds = proc.stdout.split()
        assert code == "2" and float(seconds) < 1.0, proc.stderr
        assert re.fullmatch(
            r"error: the draw of --samples \d+ --max-len \d+ needs about [\d.]+ MiB of dense "
            r"arrays, more than the 1024\.0 MiB memory limit\n", proc.stderr
        ), proc.stderr


def test_the_draw_preflight_comes_after_every_rule_and_only_for_draws(monkeypatch):
    from cuntzr import cli

    calls = []
    monkeypatch.setattr(cli, "preflight", lambda *requests: calls.append(requests))
    cli._validate(ScenarioSpec("coassoc", n=12, max_len=2, samples=25))
    cli._validate(ScenarioSpec("state-product", GPState.uniform(2), GPState.uniform(3),
                               max_len=3, samples=100))
    assert [entries for ((entries, _),) in calls] == [25 * 6, 100 * 8]
    assert calls[0][0][1] == "the draw of --samples 25 --max-len 2"
    calls.clear()
    cli._validate(ScenarioSpec("all"))
    cli._validate(ScenarioSpec("verify", GPState.uniform(2), GPState.uniform(3)))
    # a broken rule is reported as before, with no preflight read
    with pytest.raises(SpecError, match="tol must lie"):
        cli._validate(ScenarioSpec("coassoc", n=2, max_len=10**8, samples=1, tol=1.0))
    with pytest.raises(SpecError, match="needs --omega1 and --omega2"):
        cli._validate(ScenarioSpec("state-product", samples=10**8))
    assert not calls
