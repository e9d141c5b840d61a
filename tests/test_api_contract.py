"""The names, call shapes and return kinds the benchmark in ``perfbench/``
relies on. The benchmark is not part of this suite, so a rename here would
otherwise break it silently.

Vectors in the package are dense arrays. The dict forms that remain are
adapters kept only because the benchmark still calls them:
``RMatrixOperator.apply`` on pair-indexed dicts, ``lambda2`` and ``lambda3``
(also its tracer targets), and the 3-leg aliases ``TensorElement3`` and
``canonical_equal3``. They go once the benchmark moves to ``apply_dense``,
``act_dense``, ``TensorElement`` and ``canonical_equal``."""

import numpy as np

import cuntzr
import cuntzr.cli
import cuntzr.coproduct
import cuntzr.representations


def test_every_exported_name_resolves_once():
    assert len(cuntzr.__all__) == len(set(cuntzr.__all__))
    for name in cuntzr.__all__:
        assert getattr(cuntzr, name, None) is not None, name


def test_three_leg_tensor_construction_and_sum():
    mono = cuntzr.CuntzMonomial(12, (1, 5, 7, 3), (2, 9, 4))
    left = cuntzr.f_l(mono)
    block, terms = next(iter(left.blocks.items()))
    bump = cuntzr.TensorElement3({block: {next(iter(terms)): 1e-3}})
    bumped = left + bump
    assert isinstance(bumped.blocks, dict)
    assert cuntzr.canonical_equal3(cuntzr.f_r(mono), left) is True
    assert cuntzr.canonical_equal3(cuntzr.f_r(mono), bumped) is False


def test_coassociativity_and_double_coproducts():
    mono = cuntzr.CuntzMonomial(6, (5, 2), (3,))
    assert cuntzr.check_coassoc(mono) is True
    assert cuntzr.coproduct.f_l_op(mono).arity == 3
    assert cuntzr.f_r(mono).arity == cuntzr.f_l(mono).arity == 3


def test_word_images_are_dicts():
    s2, s3 = cuntzr.GPState.standard(2), cuntzr.GPState.uniform(3)
    r1, r2 = cuntzr.GPRepresentation.for_state(s2), cuntzr.GPRepresentation.for_state(s3)
    pair = cuntzr.lambda2(r1, r2, cuntzr.delta(cuntzr.CuntzMonomial(6, (4,), ())))
    assert isinstance(pair, dict) and all(len(k) == 2 for k in pair)
    triple = cuntzr.representations.lambda3(
        r1, r2, r1, cuntzr.f_r(cuntzr.CuntzMonomial(12, (7,), ()))
    )
    assert isinstance(triple, dict) and all(len(k) == 3 for k in triple)


def test_commutes_returns_a_pair():
    x = np.array([0.6, 0.8j])
    ok, witness = cuntzr.commutes(cuntzr.GPState(x), cuntzr.GPState(np.kron(x, x)))
    assert ok is True and witness is None
    ok, witness = cuntzr.commutes(cuntzr.GPState.standard(2), cuntzr.GPState([0, 1]))
    assert ok is False and witness.label() == "n=4;u=2;v="


def test_counterexample_and_cli_entry():
    rep = cuntzr.counterexample_demo()
    assert rep.passed
    rejects = [k for k in rep.checks if k.name == "construction-rejects-pair"]
    assert len(rejects) == 1 and rejects[0].witness == "n=4;u=2;v="
    assert callable(cuntzr.cli.main)


def test_pair_verdict_calls():
    a, b = cuntzr.GPState.uniform(2), cuntzr.GPState.uniform(3)
    rep = cuntzr.GPRepresentation.for_state(a)
    assert isinstance(rep.U, np.ndarray) and rep.U.shape == (2, 2)
    rmat = cuntzr.build_r(a, b, 2)
    assert rmat.rank == 36
    image = rmat.apply({(1, 1): 1.0 + 0j, (4, 9): 0.5})
    assert isinstance(image, dict) and all(len(k) == 2 for k in image)
    assert cuntzr.verify_intertwining(rmat).passed
    assert cuntzr.verify_symmetry(a, b, 2, r12=rmat).passed


def test_ybe_report_fields():
    states = [cuntzr.GPState.standard(n) for n in (2, 3, 2)]
    rep = cuntzr.verify_ybe(*states, 1)
    assert rep.passed is True
    assert len(rep.checks) == 1 + 12
    assert rep.max_residual == 0.0


def test_rejection_names_a_witness():
    a, b = cuntzr.GPState.standard(2), cuntzr.GPState([0, 1])
    try:
        cuntzr.build_r(a, b, 1)
    except cuntzr.NotCommuting as exc:
        assert exc.witness.label() == "n=4;u=2;v="
    else:
        raise AssertionError("a noncommuting pair was accepted")


def test_swap_index_pair_returns_a_one_based_pair():
    image = cuntzr.swap_index_pair(2, 3, 1, 3, 1)
    assert isinstance(image, tuple) and image == (1, 2)
    assert cuntzr.swap_index_pair(2, 3, 1, 1, 3) == (1, 1)


def test_star_evaluates_monomial_elements():
    z, y = np.array([0.6, 0.8j]), np.array([1.0, 0.0, 0.0])
    mono = cuntzr.CuntzMonomial(6, (1, 4), (1,))
    assert (mono.u, mono.v) == ((1, 4), (1,))
    prod = cuntzr.star(cuntzr.GPState(z), cuntzr.GPState(y))
    value = prod(cuntzr.AlgebraElement.monomial(mono))
    # the state of z (x) y = (0.6, 0, 0, 0.8i, 0, 0): conj(0.6 * 0.8i) * 0.6
    assert abs(complex(value) - (-0.288j)) <= 1e-15


def test_workload_fields_and_cli_calls(tmp_path):
    state = cuntzr.GPState.standard(2)
    assert state.n == 2 and isinstance(state.z.z, np.ndarray)
    out = tmp_path / "counterexample.json"
    assert cuntzr.cli.main(["counterexample", "--out", str(out)]) == 0
    assert out.read_bytes().startswith(b"{")


def test_traced_names_exist():
    # the per-layer spans wrap these; a missing one is skipped, not reported
    for owner, attr in (
        (cuntzr.coproduct, "canonical_equal3"),
        (cuntzr.coproduct, "f_r_op"),
        (cuntzr.coproduct, "f_l_op"),
        (cuntzr.StarComposite, "__call__"),
        (cuntzr, "gp_eval"),
        (cuntzr, "boxtimes"),
        (cuntzr.RMatrixOperator, "apply"),
        (cuntzr.cli, "run_scenario"),
        (cuntzr.cli, "stable_json"),
    ):
        assert callable(getattr(owner, attr)), attr
