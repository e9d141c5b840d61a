import json
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from cuntzr import coproduct
from cuntzr.cli import (
    MAX_COASSOC_SPLITS,
    ScenarioSpec,
    _coassoc_splits,
    main,
    run_scenario,
    stable_json,
)
from cuntzr.errors import SpecError
from cuntzr.states import GPState

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
