import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from substitution_oracle import substitute_generators

from cuntzr.algebra import (
    AlgebraElement,
    CuntzMonomial,
    canonical_equal,
    canonical_residual,
    holds,
    iter_monomials,
    level_expand,
    mono_product,
)
from cuntzr.coproduct import TensorElement
from cuntzr.errors import BadLevel, MismatchedAlgebra
from cuntzr.states import UnitVector, gp_eval


def mono(n, u=(), v=()):
    return CuntzMonomial(n, u, v)


def elem(n, terms):
    return AlgebraElement(n, terms)


# ---------------------------------------------------------------------------
# monomial products


def test_mono_product_concatenates_without_contraction():
    out = mono_product(mono(2, (1,), ()), mono(2, (), (1,)))
    assert out.terms == {((1,), (1,)): 1 + 0j}


def test_mono_product_orthogonal_letters_vanish():
    out = mono_product(mono(2, (), (1,)), mono(2, (2,), ()))
    assert out.is_zero


def test_mono_product_cancels_matching_middle():
    out = mono_product(mono(3, (1,), (2,)), mono(3, (2,), (3,)))
    assert out.terms == {((1,), (3,)): 1 + 0j}


def test_mono_product_mismatched_algebra():
    with pytest.raises(MismatchedAlgebra):
        mono_product(mono(2, (1,)), mono(3, (1,)))


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_swaps_words():
    x = elem(2, {((1,), (2,)): 1.0})
    assert x.adjoint().terms == {((2,), (1,)): 1 + 0j}


def test_adjoint_fixes_unit():
    x = AlgebraElement.unit(3)
    assert x.adjoint() == x


def test_adjoint_conjugates_coefficient():
    x = elem(2, {((1,), ()): 2 + 1j})
    assert x.adjoint().terms == {((), (1,)): 2 - 1j}


# ---------------------------------------------------------------------------
# element arithmetic


def test_product_is_bilinear():
    s1 = elem(2, {((1,), ()): 1.0})
    s2 = elem(2, {((2,), ()): 1.0})
    s1ad = elem(2, {((), (1,)): 1.0})
    out = (s1 + s2) * s1ad
    assert out.terms == {((1,), (1,)): 1 + 0j, ((2,), (1,)): 1 + 0j}


def test_additive_inverse_cancels():
    x = elem(2, {((1, 2), (1,)): 1.5 - 0.5j, ((), ()): 2.0})
    assert (x + (-1.0) * x).is_zero


def test_unit_law_against_termwise_oracle():
    # oracle: multiplying by the unit must reproduce each term through the
    # single-monomial product rule
    rng = np.random.default_rng(42)
    one = AlgebraElement.unit(2)
    for _ in range(20):
        terms = {}
        for _ in range(rng.integers(1, 4)):
            u = tuple(rng.integers(1, 3, size=rng.integers(0, 3)))
            v = tuple(rng.integers(1, 3, size=rng.integers(0, 3)))
            terms[(u, v)] = complex(rng.normal(), rng.normal())
        x = elem(2, terms)
        expected = AlgebraElement.zero(2)
        for m, c in x.monomials():
            expected = expected + c * mono_product(CuntzMonomial.unit(2), m)
        assert (one * x) == expected
        assert canonical_equal(one * x, x)


# ---------------------------------------------------------------------------
# level expansion


def test_level_expand_unit_is_the_defining_relation():
    out = level_expand(AlgebraElement.unit(2), 1)
    assert out.terms == {((1,), (1,)): 1 + 0j, ((2,), (2,)): 1 + 0j}


def test_level_expand_creation_word():
    out = level_expand(elem(2, {((1,), ()): 1.0}), 1)
    assert out.terms == {((1, 1), (1,)): 1 + 0j, ((1, 2), (2,)): 1 + 0j}


def test_level_expand_projection():
    out = level_expand(elem(2, {((1,), (1,)): 1.0}), 2)
    assert out.terms == {
        ((1, 1), (1, 1)): 1 + 0j,
        ((1, 2), (1, 2)): 1 + 0j,
    }


def test_level_expand_rejects_too_small_target():
    with pytest.raises(BadLevel):
        level_expand(elem(2, {((), (1, 2)): 1.0}), 1)


def test_level_expand_preserves_state_values():
    # oracle: the state of any unit vector cannot see the rewriting
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = UnitVector(z / np.linalg.norm(z))
        terms = {}
        for _ in range(3):
            u = tuple(rng.integers(1, 4, size=rng.integers(0, 3)))
            v = tuple(rng.integers(1, 4, size=rng.integers(0, 2)))
            terms[(u, v)] = complex(rng.normal(), rng.normal())
        x = elem(3, terms)
        expanded = level_expand(x, 2)
        assert abs(gp_eval(z, x) - gp_eval(z, expanded)) < 1e-12
        assert all(len(v) == 2 for (_, v) in expanded.terms)


# ---------------------------------------------------------------------------
# canonical equality


def test_canonical_equal_defining_relation():
    lhs = elem(2, {((1,), (1,)): 1.0, ((2,), (2,)): 1.0})
    assert canonical_equal(lhs, AlgebraElement.unit(2))


def test_canonical_equal_distinguishes_generators():
    assert not canonical_equal(
        elem(2, {((1,), ()): 1.0}), elem(2, {((2,), ()): 1.0})
    )


def test_canonical_equal_zero_tolerance_exact():
    lhs = elem(2, {((1,), (1,)): 1.0, ((2,), (2,)): 1.0})
    assert canonical_equal(lhs, AlgebraElement.unit(2), tol=0.0)


def test_canonical_residual_keeps_differences_below_the_prune_cutoff():
    # only exact zeros are dropped, so a difference of 5e-14 counts
    a = elem(2, {((1,), ()): 1.0})
    b = elem(2, {((1,), ()): 1.0 + 5e-14})
    assert canonical_residual(a, b) == abs(1.0 - (1.0 + 5e-14))
    assert 4e-14 < canonical_residual(a, b) < 6e-14
    assert not canonical_equal(a, b, tol=0.0)


def test_canonical_residual_reads_the_leftover_after_expansion():
    # I - (s_1 s_1* + 0.75 s_2 s_2*) leaves 0.25 on s_2 s_2*
    lhs = AlgebraElement.unit(2)
    rhs = elem(2, {((1,), (1,)): 1.0, ((2,), (2,)): 0.75})
    assert canonical_residual(lhs, rhs) == 0.25
    assert canonical_residual(lhs, lhs) == 0.0


def test_canonical_residual_rejects_mixed_kinds():
    from cuntzr.coproduct import delta

    x = AlgebraElement.unit(2)
    with pytest.raises(TypeError):
        canonical_residual(x, delta(x))
    with pytest.raises(MismatchedAlgebra):
        canonical_residual(x, AlgebraElement.unit(3))


# hypothesis strategies: Gaussian-integer coefficients keep arithmetic exact

coeffs = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def monomials(draw, n=None, max_len=3):
    if n is None:
        n = draw(st.integers(2, 4))
    u = tuple(draw(st.lists(st.integers(1, n), max_size=max_len)))
    v = tuple(draw(st.lists(st.integers(1, n), max_size=max_len)))
    return CuntzMonomial(n, u, v)


@st.composite
def elements(draw, n=None, max_terms=3, max_len=2):
    if n is None:
        n = draw(st.integers(2, 4))
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        m = draw(monomials(n=n, max_len=max_len))
        terms[m.key] = terms.get(m.key, 0) + draw(coeffs)
    return AlgebraElement(n, terms)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_associativity(n, data):
    a = data.draw(monomials(n=n))
    b = data.draw(monomials(n=n))
    c = data.draw(monomials(n=n))
    ea, eb, ec = (AlgebraElement.monomial(m) for m in (a, b, c))
    assert canonical_equal((ea * eb) * ec, ea * (eb * ec))


@settings(max_examples=60, deadline=None)
@given(elements())
def test_involution_exact(x):
    assert x.adjoint().adjoint() == x


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_adjoint_antimultiplicative(n, data):
    x = data.draw(elements(n=n))
    y = data.draw(elements(n=n))
    assert canonical_equal((x * y).adjoint(), y.adjoint() * x.adjoint())


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 3), st.data())
def test_canonical_equal_invariant_under_relation(n, data):
    x = data.draw(elements(n=n))
    m = data.draw(monomials(n=n, max_len=2))
    c = data.draw(coeffs)
    relation = AlgebraElement.unit(n) - sum(
        (
            AlgebraElement(n, {((i,), (i,)): 1.0})
            for i in range(1, n + 1)
        ),
        AlgebraElement.zero(n),
    )
    shifted = x + c * (relation * AlgebraElement.monomial(m))
    assert canonical_equal(x, shifted)
    # transitivity through a second relation shift
    m2 = data.draw(monomials(n=n, max_len=2))
    shifted2 = shifted + (relation * AlgebraElement.monomial(m2))
    assert canonical_equal(x, shifted2)


@settings(max_examples=30, deadline=None)
@given(elements())
def test_canonical_equal_reflexive(x):
    assert canonical_equal(x, x)


# ---------------------------------------------------------------------------
# O_1 conventions


def test_o1_words_collapse_to_unit():
    m = CuntzMonomial(1, (1, 1, 1), (1,))
    assert m.key == ((), ())


def test_o1_arithmetic_is_scalar():
    x = elem(1, {((1,), ()): 2.0})
    y = elem(1, {((), (1, 1)): 3.0})
    assert (x * y).terms == {((), ()): 6 + 0j}


def test_o1_level_expand_is_trivial():
    x = elem(1, {((), ()): 2.0})
    assert level_expand(x, 3) == x


# ---------------------------------------------------------------------------
# direct sums: one-leg tensor elements, one block per summand


def one_leg(*parts):
    """The direct sum of the given algebra elements as a one-leg tensor element."""
    out = TensorElement()
    for x in parts:
        out = out + TensorElement.from_element(x)
    return out


def test_direct_sum_componentwise_product():
    x = one_leg(AlgebraElement.unit(2), elem(3, {((1,), ()): 1.0}))
    y = one_leg(elem(2, {((2,), ()): 1.0}))
    out = x * y
    assert sorted(out.blocks) == [(2,)]
    assert out.block(2) == {(((2,), ()),): 1 + 0j}
    assert out.block(3) == {}


def test_direct_sum_add_and_adjoint():
    x = TensorElement.from_element(elem(2, {((1,), ()): 1j}))
    y = TensorElement.from_element(elem(4, {((2,), ()): 1.0}))
    s = (x + y).adjoint()
    assert s.block(2) == {(((), (1,)),): -1j}
    assert s.block(4) == {(((), (2,)),): 1 + 0j}


def test_direct_sum_rejects_bad_key():
    # a key of O_4 filed under the summand O_3
    with pytest.raises(ValueError):
        TensorElement({(3,): {(((4,), ()),): 1.0}})
    # a letter is read through operator.index: 2.5 would truncate to s_2 and
    # "2" parse to s_2, so both are refused, and named, wherever a word is
    # checked; numpy integers are integers
    for word in ((2.5,), (True, "2"), (1, np.float64(2.0))):
        match = re.escape(f"letter {word[-1]!r} is not an integer")
        with pytest.raises(ValueError, match=match):
            CuntzMonomial(3, word)
        with pytest.raises(ValueError, match=match):
            AlgebraElement(3, {((), word): 1.0})
        with pytest.raises(ValueError, match=match):
            TensorElement({(3,): {((word, ()),): 1.0}})
        with pytest.raises(ValueError, match=match):
            TensorElement({(2, 3): {(((1,), ()), ((), word)): 1.0}})
    letters = np.array([2, 3], dtype=np.int64)
    assert CuntzMonomial(3, letters, (np.int32(1),)) == mono(3, (2, 3), (1,))
    assert AlgebraElement(3, {(tuple(letters), ()): 1.0}).terms == {((2, 3), ()): 1 + 0j}
    assert TensorElement({(3,): {((tuple(letters), ()),): 1.0}}).block(3) == {
        (((2, 3), ()),): 1 + 0j
    }


# ---------------------------------------------------------------------------
# labels and scans


def test_label_round_trip():
    m = mono(6, (1, 3), (2,))
    assert m.label() == "n=6;u=1,3;v=2"
    assert CuntzMonomial.parse_label(m.label()) == m
    unit = CuntzMonomial.unit(4)
    assert unit.label() == "n=4;u=;v="
    assert CuntzMonomial.parse_label("n=4;u=;v=") == unit


def test_iter_monomials_order():
    first = list(iter_monomials(2, 1))
    assert first == [
        CuntzMonomial(2),
        CuntzMonomial(2, (1,), ()),
        CuntzMonomial(2, (2,), ()),
        CuntzMonomial(2, (), (1,)),
        CuntzMonomial(2, (), (2,)),
    ]


# ---------------------------------------------------------------------------
# generator substitution


def test_substitute_generators_matches_manual_expansion():
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # flip
    x = elem(2, {((1,), (2,)): 2.0})
    out = substitute_generators(x, U)
    assert out.terms == {((2,), (1,)): 2 + 0j}


def test_substitute_generators_is_multiplicative():
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    a = elem(3, {((1,), ()): 1.0, ((2,), (3,)): 0.5j})
    b = elem(3, {((), (2,)): 1.0})
    lhs = substitute_generators(a * b, q)
    rhs = substitute_generators(a, q) * substitute_generators(b, q)
    assert canonical_equal(lhs, rhs)


def test_elements_and_substitution_drop_exact_zeros_only():
    x = elem(2, {((1,), ()): 5e-324, ((2,), ()): 0.0, ((), (1,)): -0.0})
    assert x.terms == {((1,), ()): 5e-324 + 0j}
    # a 1e-14 entry of the matrix gives a 1e-14 term; exact zeros give none
    U = np.array([[1.0, 0.0], [1e-14, 1.0]], dtype=complex)
    out = substitute_generators(elem(2, {((1,), ()): 1.0}), U)
    assert out.terms == {((1,), ()): 1 + 0j, ((2,), ()): 1e-14 + 0j}


# ---------------------------------------------------------------------------
# the tolerance policy


def test_holds_is_exact_on_exact_paths_and_bounded_elsewhere():
    assert holds(0.0, 1e-9) and holds(1e-9, 1e-9) and not holds(2e-9, 1e-9)
    assert holds(0.0, 1e-9, True)
    assert not holds(5e-324, 1e-9, True)  # the smallest subnormal already fails
    for exact in (False, True):
        assert not holds(float("nan"), 1e-9, exact)


def test_src_defines_exactly_two_tolerance_constants():
    policy = {"EQ_TOL", "BUILD_TOL"}
    defined = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cuntzr").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                # an import defines nothing new, but may bring in only the two
                names = {a.asname or a.name for a in node.names}
                assert {x for x in names if x.endswith("_TOL")} <= policy, path.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (t.id, path.name)
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Name) and t.id.endswith("_TOL")
                ]
    assert sorted(defined) == sorted((name, "algebra.py") for name in policy)
