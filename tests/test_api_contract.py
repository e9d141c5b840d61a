"""The names, call shapes and return kinds the benchmark in ``perfbench/``
relies on. The benchmark is not part of this suite, so a rename here would
otherwise break it silently."""

import numpy as np

import cuntzr
import cuntzr.cli
import cuntzr.coproduct
import cuntzr.representations


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
