import itertools

import coproduct_oracle as oracle
import numpy as np
import pytest

from cuntzr import cli, coproduct
from cuntzr.algebra import ZERO_TOL, AlgebraElement, CuntzMonomial
from cuntzr.algebra import canonical_equal, canonical_residual
from cuntzr.coproduct import (
    TensorElement,
    check_coassoc,
    coassoc_residual,
    delta,
    delta_op,
    divisor_pairs,
    expand_leg,
    f_l,
    f_l_op,
    f_r,
    f_r_op,
    phi,
    split_leg,
)
from cuntzr.errors import BadFactorization
from cuntzr.representations import creation_words
from cuntzr.rmatrix import build_r, verify_ybe
from cuntzr.states import GPState

UNIT = ((), ())


def gen(n, i):
    return CuntzMonomial.generator(n, i)


def key(u=(), v=()):
    return (tuple(u), tuple(v))


# ---------------------------------------------------------------------------
# the letterwise embeddings


def test_phi_2_3_splits_generator_3():
    # 3 = 3*(1-1) + 3, so the image is s_1 (x) s_3
    t = phi(2, 3, gen(6, 3))
    assert t.blocks == {(2, 3): {(key([1]), key([3])): 1 + 0j}}


def test_phi_3_2_splits_generator_3():
    # 3 = 2*(2-1) + 1, so the image is s_2 (x) s_1
    t = phi(3, 2, gen(6, 3))
    assert t.blocks == {(3, 2): {(key([2]), key([1])): 1 + 0j}}


def test_phi_2_2_splits_generator_2():
    t = phi(2, 2, gen(4, 2))
    assert t.blocks == {(2, 2): {(key([1]), key([2])): 1 + 0j}}


def test_phi_o1_leg_collapses():
    t = phi(1, 4, gen(4, 3))
    assert t.blocks == {(1, 4): {(UNIT, key([3])): 1 + 0j}}


def test_phi_rejects_wrong_factorization():
    with pytest.raises(BadFactorization):
        phi(2, 2, gen(6, 1))


def test_phi_is_star_homomorphism_on_samples():
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = tuple(rng.integers(1, 7, size=rng.integers(0, 3)))
        v = tuple(rng.integers(1, 7, size=rng.integers(0, 3)))
        x = CuntzMonomial(6, u, v)
        y_u = tuple(rng.integers(1, 7, size=rng.integers(0, 3)))
        y_v = tuple(rng.integers(1, 7, size=rng.integers(0, 3)))
        y = CuntzMonomial(6, y_u, y_v)
        prod = AlgebraElement.monomial(x) * AlgebraElement.monomial(y)
        lhs = phi(2, 3, prod)
        rhs = phi(2, 3, x) * phi(2, 3, y)
        assert canonical_equal(lhs, rhs, tol=0.0)
        assert canonical_equal(
            phi(2, 3, AlgebraElement.monomial(x).adjoint()),
            phi(2, 3, x).adjoint(),
            tol=0.0,
        )


# ---------------------------------------------------------------------------
# the coproduct


def test_divisor_pairs_increasing():
    assert divisor_pairs(12) == [(1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1)]


def test_delta_generator_of_o4():
    # oracle: enumerate the ordered divisor pairs (1,4), (2,2), (4,1) and
    # split the index 1 = l*(i-1) + j in each
    t = delta(gen(4, 1))
    assert t.blocks == {
        (1, 4): {(UNIT, key([1])): 1 + 0j},
        (2, 2): {(key([1]), key([1])): 1 + 0j},
        (4, 1): {(key([1]), UNIT): 1 + 0j},
    }


def test_delta_generator_of_o2():
    t = delta(gen(2, 1))
    assert t.blocks == {
        (1, 2): {(UNIT, key([1])): 1 + 0j},
        (2, 1): {(key([1]), UNIT): 1 + 0j},
    }


def test_delta_unit_of_o1():
    t = delta(CuntzMonomial.unit(1))
    assert t.blocks == {(1, 1): {(UNIT, UNIT): 1 + 0j}}


def test_delta_on_direct_sums_collects_all_components():
    x = TensorElement.from_element(gen(2, 1)) + TensorElement.from_element(gen(4, 1))
    t = delta(x)
    # blocks (1,2), (2,1) from the O_2 part and (1,4), (2,2), (4,1) from O_4
    assert set(t.blocks) == {(1, 2), (2, 1), (1, 4), (2, 2), (4, 1)}


def test_delta_term_count_is_number_of_divisor_pairs():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 6, 12):
        u = tuple(rng.integers(1, n + 1, size=rng.integers(0, 3)))
        v = tuple(rng.integers(1, n + 1, size=rng.integers(0, 3)))
        t = delta(CuntzMonomial(n, u, v))
        assert t.term_count() == len(divisor_pairs(n))
        for terms in t.blocks.values():
            assert len(terms) == 1  # each block holds one pure tensor


def test_delta_op_flips_blocks():
    t = delta_op(gen(6, 3))
    assert t.block(2, 3) == {(key([1]), key([2])): 1 + 0j}
    t = delta_op(gen(4, 2))
    assert t.block(2, 2) == {(key([2]), key([1])): 1 + 0j}
    t = delta_op(CuntzMonomial.unit(1))
    assert t.blocks == {(1, 1): {(UNIT, UNIT): 1 + 0j}}


# ---------------------------------------------------------------------------
# keys are checked where a tensor element is built


def test_tensor_element_rejects_letters_outside_the_leg():
    for letter in (0, -1, 4):
        with pytest.raises(ValueError, match="outside 1..3"):
            TensorElement({(2, 3): {(key([1]), key([letter])): 1.0}})
        with pytest.raises(ValueError, match="outside 1..3"):
            TensorElement({(3,): {(key([], [2, letter]),): 1.0}})


def test_tensor_element_rejects_a_key_with_the_wrong_number_of_legs():
    with pytest.raises(ValueError, match="2-leg key"):
        TensorElement({(2, 3, 2): {(key([1]), key([2])): 1.0}})
    with pytest.raises(ValueError, match="1-leg key"):
        TensorElement({(2, 3): {(key([1]),): 1.0}})


def test_tensor_element_collapses_and_sums_o1_words():
    t = TensorElement(
        {
            (1, 2): {(key([1]), key([2])): 1.0, (key([], [1, 1]), key([2])): 2j, (UNIT, UNIT): 1},
            (2, 1): {(key([1]), key([1])): 1.0, (key([1]), UNIT): -1.0},
        }
    )
    assert t.blocks == {(1, 2): {(UNIT, key([2])): 1 + 2j, (UNIT, UNIT): 1 + 0j}}
    with pytest.raises(ValueError, match="outside 1..1"):
        TensorElement({(1,): {(key([2]),): 1.0}})


def test_bad_letters_stop_at_construction():
    # past the constructor, letter 0 of O_2 would index column -1 of a twist
    # and letter -1 of O_6 would split as letter 6
    with pytest.raises(ValueError, match="letter 0 outside 1..2"):
        TensorElement({(2, 3): {(key([0]), key([1])): 1}})
    with pytest.raises(ValueError, match="letter -1 outside 1..6"):
        TensorElement({(6,): {(key([-1]),): 1}})


def test_mixed_arity_stops_at_construction():
    # arity reads the first block, so this would pass delta's one-leg check
    # and delta would mix 3-leg blocks into its 2-leg ones
    with pytest.raises(ValueError, match="mixed arity"):
        TensorElement({(6,): {(((1,), ()),): 1}, (2, 3): {(((1,), ()), ((1,), ())): 1}})


def test_sums_of_mixed_arity_are_rejected():
    # the sum used to build unchecked: arity 1 read off its first block, and
    # delta of it mixed 3-leg blocks into its 2-leg ones
    s1 = CuntzMonomial.generator(6, 1)
    with pytest.raises(ValueError, match="1-leg and a 2-leg"):
        TensorElement.from_element(s1) + delta(s1)
    with pytest.raises(ValueError):
        delta(s1) - TensorElement.from_element(s1)
    # the zero element has no arity and adds to anything
    assert TensorElement() + delta(s1) == delta(s1)
    assert (delta(s1) + TensorElement()).arity == 2


def test_from_element_is_the_one_leg_tensor():
    mono = CuntzMonomial(4, (3, 1), (2,))
    assert TensorElement.from_element(mono).blocks == {(4,): {(key([3, 1], [2]),): 1 + 0j}}
    x = AlgebraElement(6, {UNIT: 2 - 1j, ((5,), (1, 6)): 1j})
    t = TensorElement.from_element(x)
    assert t.arity == 1
    assert t.blocks == {(6,): {(UNIT,): 2 - 1j, (key([5], [1, 6]),): 1j}}
    assert t == TensorElement({(6,): {(k,): c for k, c in x.items()}})
    zero = TensorElement.from_element(AlgebraElement.zero(6))
    assert zero.is_zero and zero.arity is None and zero == TensorElement()
    assert delta(zero).is_zero and phi(2, 3, AlgebraElement.zero(6)).is_zero
    with pytest.raises(TypeError):
        TensorElement.from_element(1.0)


def test_coproducts_take_only_one_leg_tensor_elements():
    with pytest.raises(TypeError):
        delta(delta(gen(4, 1)))
    with pytest.raises(TypeError):
        delta_op(f_r(gen(4, 1)))


# ---------------------------------------------------------------------------
# tensor arithmetic


def test_flip2():
    t = TensorElement({(2, 3): {(key([1]), key([2])): 2.0}})
    assert t.flip().blocks == {(3, 2): {(key([2]), key([1])): 2 + 0j}}


def test_flip_reverses_every_leg():
    t = TensorElement({(2, 3, 6): {(key([1]), key([2]), key([], [5])): 1.0}})
    assert t.arity == 3
    assert t.flip().blocks == {(6, 3, 2): {(key([], [5]), key([2]), key([1])): 1 + 0j}}
    assert t.flip().flip() == t


def test_legwise_product():
    t = TensorElement({(2, 2): {(key([1]), key([1])): 1.0}})
    s = TensorElement({(2, 2): {(key([], [1]), key([], [1])): 1.0}})
    out = t * s
    assert out.blocks == {(2, 2): {(key([1], [1]), key([1], [1])): 1 + 0j}}


def test_delta_is_homomorphism():
    rng = np.random.default_rng(23)
    for n in (4, 6):
        for _ in range(25):
            xu = tuple(rng.integers(1, n + 1, size=rng.integers(0, 3)))
            xv = tuple(rng.integers(1, n + 1, size=rng.integers(0, 3)))
            yu = tuple(rng.integers(1, n + 1, size=rng.integers(0, 3)))
            yv = tuple(rng.integers(1, n + 1, size=rng.integers(0, 3)))
            x = AlgebraElement.monomial(CuntzMonomial(n, xu, xv))
            y = AlgebraElement.monomial(CuntzMonomial(n, yu, yv))
            assert canonical_equal(delta(x * y), delta(x) * delta(y), tol=0.0)
            assert canonical_equal(delta(x.adjoint()), delta(x).adjoint(), tol=0.0)


# ---------------------------------------------------------------------------
# double coproducts and coassociativity


def test_f_r_generator_of_o2():
    t = f_r(gen(2, 1))
    assert t.blocks == {
        (1, 1, 2): {(UNIT, UNIT, key([1])): 1 + 0j},
        (1, 2, 1): {(UNIT, key([1]), UNIT): 1 + 0j},
        (2, 1, 1): {(key([1]), UNIT, UNIT): 1 + 0j},
    }


def test_f_l_generator_of_o2_matches_f_r():
    g = gen(2, 1)
    assert f_l(g).blocks == f_r(g).blocks


def test_f_r_unit_of_o1():
    t = f_r(CuntzMonomial.unit(1))
    assert t.blocks == {(1, 1, 1): {(UNIT, UNIT, UNIT): 1 + 0j}}


def test_coassociativity_generators_up_to_8():
    for n in range(1, 9):
        for i in range(1, n + 1):
            assert check_coassoc(gen(n, i), tol=0.0)


def test_coassociativity_unit():
    assert check_coassoc(CuntzMonomial.unit(4), tol=0.0)


def test_coassociativity_random_degree_zero_in_o12():
    rng = np.random.default_rng(31)
    for _ in range(20):
        w = tuple(rng.integers(1, 13, size=rng.integers(0, 3)))
        mono = CuntzMonomial(12, w, w)
        assert mono.degree == 0
        assert check_coassoc(mono, tol=0.0)


def test_opposite_coproduct_coassociative():
    for n in (2, 3, 4, 6):
        for i in range(1, n + 1):
            assert canonical_equal(
                f_l_op(gen(n, i)), f_r_op(gen(n, i)), tol=0.0
            )


# ---------------------------------------------------------------------------
# canonical equality of tensors


def test_canonical_equal2_uses_relations_per_leg():
    # I (x) I equals (sum_i s_i s_i*) (x) I blockwise
    lhs = TensorElement({(2, 3): {(UNIT, UNIT): 1.0}})
    rhs = TensorElement(
        {(2, 3): {(key([1], [1]), UNIT): 1.0, (key([2], [2]), UNIT): 1.0}}
    )
    assert canonical_equal(lhs, rhs, tol=0.0)
    assert not canonical_equal(lhs, 2.0 * rhs)


def test_canonical_equal2_respects_blocks():
    a = TensorElement({(2, 3): {(UNIT, UNIT): 1.0}})
    b = TensorElement({(3, 2): {(UNIT, UNIT): 1.0}})
    assert not canonical_equal(a, b)


def test_canonical_residual_keeps_differences_below_the_prune_cutoff():
    # 5e-14 lies below the constructor's 1e-13 prune, at two and three legs
    bump = 1.0 + 5e-14
    want = abs(1.0 - bump)
    two = {(2, 3): (key([1]), UNIT)}
    three = {(2, 3, 2): (key([1]), UNIT, key([], [2]))}
    for blocks in (two, three):
        (indices, keys), = blocks.items()
        a = TensorElement({indices: {keys: 1.0}})
        b = TensorElement({indices: {keys: bump}})
        assert canonical_residual(a, b) == want
        assert 4e-14 < want < 6e-14
        assert not canonical_equal(a, b, tol=0.0)


def test_perturbed_double_coproduct_reads_the_perturbation():
    # negative control: 1e-3 added to one coefficient 1 of (Delta (x) id) Delta
    x = CuntzMonomial(12, (1, 5, 7, 3), (2, 9, 4))
    left = f_l(x)
    assert check_coassoc(x, tol=0.0)
    assert canonical_residual(f_r(x), left) == 0.0
    block, terms = next(iter(left.blocks.items()))
    bumped = left + TensorElement({block: {next(iter(terms)): 1e-3}})
    # the residual is the perturbation as stored: (1 + 1e-3) - 1
    assert canonical_residual(f_r(x), bumped) == (1.0 + 1e-3) - 1.0
    assert not canonical_equal(f_r(x), bumped)


def test_a_bump_in_any_one_block_of_o60_is_reported(monkeypatch):
    # negative control: 1e-3 added to the one coefficient 1 of a single
    # three-leg block of (Delta (x) id) Delta; the other 53 blocks are equal
    x = CuntzMonomial(60, (7, 59, 12), (30,))
    blocks = list(f_l(x).blocks)
    assert len(blocks) == 54
    assert coassoc_residual(x) == 0.0
    real = coproduct.expand_leg
    for bumped in blocks:

        def perturbed(t, leg, opposite=False):
            out = real(t, leg, opposite)
            if (t.arity, leg) != (2, 1):
                return out
            (keys, c), = out.block(*bumped).items()
            assert c == 1.0
            return out + TensorElement({bumped: {keys: 1e-3}})

        monkeypatch.setattr(coproduct, "expand_leg", perturbed)
        assert coassoc_residual(x) == (1.0 + 1e-3) - 1.0
        assert not check_coassoc(x)


def test_coassoc_residual_is_the_residual_of_the_two_double_coproducts():
    rng = np.random.default_rng(5)
    for n in (1, 4, 6, 12):
        x = _gaussian_element(rng, n, 5)
        assert coassoc_residual(x) == canonical_residual(f_r(x), f_l(x)) == 0.0


# ---------------------------------------------------------------------------
# NaN coefficients


def test_nan_coefficients_are_kept_and_never_compare_equal():
    nan = float("nan")
    x = AlgebraElement(2, {((1,), ()): nan})
    assert not x.is_zero
    t = TensorElement({(2, 3): {(key([1]), UNIT): nan}})
    assert not t.is_zero
    # the same NaN object on both sides: equal dicts, but no equality
    for a in (x, t):
        assert np.isnan(canonical_residual(a, a))
        assert not canonical_equal(a, a, tol=1.0)
    y = AlgebraElement(12, {((5,), ()): nan, ((1,), (2,)): 1.0})
    assert np.isnan(coassoc_residual(y))
    assert not check_coassoc(y, tol=1.0)
    # a NaN in one block of several is not hidden by the others
    u = TensorElement({(2, 3): {(key([1]), UNIT): 1.0}, (3, 2): {(UNIT, UNIT): nan}})
    v = TensorElement({(2, 3): {(key([1]), UNIT): 2.0}, (3, 2): {(UNIT, UNIT): 1.0}})
    assert np.isnan(canonical_residual(u, v))
    assert np.isnan(canonical_residual(v, u))


# ---------------------------------------------------------------------------
# leg expansion at any arity


def test_expand_leg_middle_of_three_legs():
    # (id (x) Delta (x) id) of a three-leg element adds a leg in the middle
    t = TensorElement({(2, 6, 3): {(key([1]), key([5]), UNIT): 2.0}})
    out = expand_leg(t, 2)
    for (m, l), terms in delta(gen(6, 5)).blocks.items():
        ((k1, k2), c), = terms.items()
        assert out.block(2, m, l, 3) == {(key([1]), k1, k2, UNIT): 2 * c}
    assert out.term_count() == len(divisor_pairs(6))


def test_four_leg_coassociativity():
    # the two outer expansions of a double coproduct agree at four legs
    for x in (gen(4, 3), CuntzMonomial(6, (5, 2), (3,)), CuntzMonomial.unit(4)):
        lhs = expand_leg(f_r(x), 3)
        rhs = expand_leg(f_l(x), 1)
        assert lhs.arity == 4
        assert canonical_residual(lhs, rhs) == 0.0


def test_expand_leg_rejects_a_missing_leg():
    with pytest.raises(ValueError):
        expand_leg(delta(gen(4, 1)), 3)


# ---------------------------------------------------------------------------
# the split tables against the per-term and mixed-radix oracles

ABOVE_CUTOFF = float(np.nextafter(ZERO_TOL, 1.0))
BELOW_CUTOFF = float(np.nextafter(ZERO_TOL, 0.0))


def _gaussian_element(rng, n, count, max_len=3):
    """``count`` random word pairs of O_n with Gaussian-integer coefficients."""
    terms = {}
    for _ in range(count):
        u = rng.integers(1, n + 1, size=rng.integers(0, max_len + 1))
        v = rng.integers(1, n + 1, size=rng.integers(0, max_len + 1))
        c = complex(*rng.integers(-3, 4, size=2)) or 1.0
        terms[(tuple(u), tuple(v))] = c
    return AlgebraElement(n, terms)


def _oracle_samples():
    rng = np.random.default_rng(71)
    samples = [
        CuntzMonomial.unit(1),
        CuntzMonomial.unit(6),  # empty words
        CuntzMonomial(12, (), (11,)),
        AlgebraElement(4, {UNIT: 2 - 1j, ((3,), ()): 1j}),
    ]
    samples += [_gaussian_element(rng, n, 5) for n in (1, 2, 6, 12)]
    # an element of the direct sum: a one-leg sum of parts in O_1, O_2, O_4, O_12
    samples.append(
        sum(
            (TensorElement.from_element(_gaussian_element(rng, n, 3)) for n in (1, 2, 4, 12)),
            TensorElement(),
        )
    )
    samples.append(_near_cutoff())
    return samples


def _near_cutoff():
    # coefficients next to the prune cutoff: the one below is dropped on input
    return AlgebraElement(
        6, {((5, 1), (2,)): ABOVE_CUTOFF, ((4,), ()): BELOW_CUTOFF, UNIT: 1.0}
    )


def test_coproducts_keep_the_coefficient_above_the_prune_cutoff():
    x = _near_cutoff()
    assert sorted(abs(c) for _, c in x.items()) == [ABOVE_CUTOFF, 1.0]
    for t in (delta(x), f_r(x), f_l_op(x)):
        assert ABOVE_CUTOFF in {abs(c) for terms in t.blocks.values() for c in terms.values()}


def test_phi_matches_the_per_term_oracle():
    assert phi(2, 3, AlgebraElement.zero(6)).is_zero
    for x in _oracle_samples():
        for n, comp in oracle.components(x).items():
            for m, l in divisor_pairs(n):
                assert phi(m, l, comp).blocks == oracle.phi(m, l, comp).blocks


def test_coproducts_match_the_per_term_oracle():
    pairs = [
        (delta, oracle.delta), (delta_op, oracle.delta_op),
        (f_r, oracle.f_r), (f_l, oracle.f_l),
        (f_r_op, oracle.f_r_op), (f_l_op, oracle.f_l_op),
    ]
    for x in _oracle_samples():
        for fast, slow in pairs:
            assert fast(x).blocks == slow(x).blocks, (fast.__name__, x)


def test_coproducts_match_the_mixed_radix_split():
    for x in _oracle_samples():
        assert delta(x).blocks == oracle.radix_coproduct(x, 2).blocks
        assert delta_op(x).blocks == oracle.radix_coproduct(x, 2, opposite=True).blocks
        triple = oracle.radix_coproduct(x, 3).blocks
        assert f_r(x).blocks == triple
        assert f_l(x).blocks == triple
        triple_op = oracle.radix_coproduct(x, 3, opposite=True).blocks
        assert f_r_op(x).blocks == triple_op
        assert f_l_op(x).blocks == triple_op


def test_expand_leg_at_four_legs_matches_both_oracles():
    for x in _oracle_samples():
        quad = oracle.radix_coproduct(x, 4).blocks
        quad_op = oracle.radix_coproduct(x, 4, opposite=True).blocks
        for leg in (1, 2, 3):
            t = f_r(x)
            assert expand_leg(t, leg).blocks == quad
            assert expand_leg(t, leg).blocks == oracle.expand_leg(t, leg, oracle.delta).blocks
            t_op = f_l_op(x)
            assert expand_leg(t_op, leg, opposite=True).blocks == quad_op
            assert (
                expand_leg(t_op, leg, opposite=True).blocks
                == oracle.expand_leg(t_op, leg, oracle.delta_op).blocks
            )


def test_expand_leg_keeps_coefficients_at_the_prune_cutoff():
    t = TensorElement(
        {
            (2, 6, 1): {
                (key([1]), key([5], [6]), UNIT): ABOVE_CUTOFF,
                (key([2]), key([3]), UNIT): BELOW_CUTOFF,
            },
            (1, 12, 2): {(UNIT, key([], [12]), key([2], [1])): 3 - 2j},
        }
    )
    assert t.term_count() == 2  # the input drops the coefficient below
    for leg in (1, 2, 3):
        for opposite, comap in ((False, oracle.delta), (True, oracle.delta_op)):
            got = expand_leg(t, leg, opposite=opposite)
            assert got.blocks == oracle.expand_leg(t, leg, comap).blocks
            assert got.term_count() == sum(
                len(divisor_pairs(indices[leg - 1])) for indices in t.blocks
            )


# ---------------------------------------------------------------------------
# single blocks of the double coproducts through split_leg


def test_single_block_compositions_equal_the_double_coproduct_blocks():
    rng = np.random.default_rng(29)
    for a, b, c in ((2, 3, 2), (3, 2, 2), (2, 3, 5), (3, 9, 3), (1, 2, 3)):
        x = _gaussian_element(rng, a * b * c, 5)
        assert len(x.terms) > 1
        want_r = f_r(x).block(a, b, c)
        want_l_op = f_l_op(x).block(a, b, c)
        want_r_op = f_r_op(x).block(a, b, c)
        assert want_r and want_l_op and want_r_op
        assert split_leg(phi(a, b * c, x), 2, b, c).blocks == {(a, b, c): want_r}
        assert (
            split_leg(phi(c, a * b, x).flip(), 1, b, a, opposite=True).blocks
            == {(a, b, c): want_l_op}
        )
        assert (
            split_leg(phi(b * c, a, x).flip(), 2, c, b, opposite=True).blocks
            == {(a, b, c): want_r_op}
        )
        for m, n in ((a, b * c), (a * b, c), (b, a * c)):
            assert phi(m, n, x).flip().blocks == {(n, m): delta_op(x).block(n, m)}
        # split_leg keeps only the blocks whose leg carries m*l
        assert split_leg(delta(x), 2, b, c).blocks == {
            p: t for p, t in f_r(x).blocks.items() if p[1:] == (b, c)
        }


def test_split_leg_rejects_a_missing_leg():
    with pytest.raises(ValueError):
        split_leg(delta(gen(4, 1)), 3, 2, 2)


# ---------------------------------------------------------------------------
# a wrong digit table, and the work the splits do


def _shift_right_digit_of_2_3(monkeypatch):
    # negative control: the right digit of phi_{2,3} moved cyclically,
    # j -> j % 3 + 1, in the digit table of O_6. Every split reads the table
    # through coproduct._digit_table when it runs, so the shift takes hold
    # even where the real table is already built.
    real = coproduct._digit_table
    col = 2 * coproduct._divisor_pairs(6).index((2, 3))
    shifted = tuple(
        row[:col] + (row[col] % 3 + 1 if w else 0,) + row[col + 1:]
        for w, row in enumerate(real(6))
    )
    monkeypatch.setattr(coproduct, "_digit_table", lambda n: shifted if n == 6 else real(n))


def test_a_shifted_split_fails_coassociativity_on_o12(monkeypatch, tmp_path):
    _shift_right_digit_of_2_3(monkeypatch)
    for i in range(1, 13):
        assert not check_coassoc(gen(12, i))
    out = tmp_path / "coassoc.json"
    assert cli.main(["verify-coassoc", "--n", "12", "--out", str(out)]) == 1


def test_the_radix_oracle_catches_a_shifted_split_on_o6(monkeypatch):
    _shift_right_digit_of_2_3(monkeypatch)
    for i in range(1, 7):
        g = gen(6, i)
        # on O_6 the shift is a consistent relabelling: both orders agree
        assert check_coassoc(g, tol=0.0)
        assert f_r(g).blocks != oracle.radix_coproduct(g, 3).blocks
        assert delta(g).blocks != oracle.delta(g).blocks
        # phi reads the same table
        assert phi(2, 3, g).blocks != {(2, 3): oracle.delta(g).block(2, 3)}


def test_a_shifted_table_fails_coassociativity_and_the_ybe_check(monkeypatch):
    states = (GPState.uniform(2), GPState.uniform(3), GPState.uniform(2))
    rs = [build_r(states[i], states[j], 1) for i, j in ((0, 1), (0, 2), (1, 2))]
    # both checks pass first, which builds the digit tables of O_6 and O_12;
    # the shift made afterwards must still reach every split
    assert verify_ybe(*states, 1, rs=rs).passed
    for i in range(1, 13):
        assert check_coassoc(gen(12, i))
    _shift_right_digit_of_2_3(monkeypatch)
    for i in range(1, 13):
        assert not check_coassoc(gen(12, i))
    report = verify_ybe(*states, 1, rs=rs)
    failed = [c for c in report.checks if not c.passed]
    assert failed and not report.passed
    # the unit word is untouched; each failing record names its word of O_12
    assert report.checks[0].name == "ybe:n=12;u=;v=" and report.checks[0].passed
    for check in failed:
        word = CuntzMonomial.parse_label(check.name.removeprefix("ybe:"))
        assert word.n == 12 and len(word.u) == 1
        assert check.residual > 1e-3


def test_the_array_split_equals_the_word_split():
    # the dict split of each word pair under all divisor pairs at once
    # (coproduct._leg_keys) against split_words on both of its words; the
    # annihilation word of each pair is the creation word of another
    chain = itertools.chain.from_iterable

    def inner_legs(n, us):
        for u, v in zip(us, us[::-1]):
            legs = coproduct._leg_keys(n, (u, v))
            # the left leg of (1, n) and the right leg of (n, 1) are O_1 legs
            assert legs[0] == legs[-1] == UNIT
            yield legs[1:-1]

    for n in (12, 30, 60):
        words = creation_words(n, 3)
        for t in range(4):
            group = [w for w in words if len(w) == t]
            for start in range(0, len(group), 8192):  # chunks keep the arrays small
                us = group[start:start + 8192]
                got = np.fromiter(chain(chain(chain(inner_legs(n, us)))), dtype=np.intp)
                U = np.array(us, dtype=np.intp).reshape(len(us), t)
                # per divisor pair, its left and then its right leg, each (K, 2, t)
                want = [
                    np.stack(side, axis=1)
                    for m, l in divisor_pairs(n)
                    for side in zip(*(coproduct.split_words(m, l, W) for W in (U, U[::-1])))
                ]
                assert want[0].shape == want[-1].shape == (len(us), 2, 0)
                want = np.stack(want[1:-1], axis=1).reshape(len(us), -1)
                assert np.array_equal(got.reshape(len(us), -1), want)


def test_word_splits_are_counted_once(leg_splits):
    mono = CuntzMonomial(60, (7, 59, 12), (30,))
    right = [l for _, l in divisor_pairs(60)]
    # one split of the word pair of O_60, under its 12 divisor pairs, then
    # one of the right leg of each block of Delta, under the 54 divisor
    # pairs of the right indices together
    f_r(mono)
    assert leg_splits == [60, *right]
    assert sum(len(divisor_pairs(n)) for n in leg_splits) == 12 + 54
    leg_splits.clear()
    f_l(mono)
    assert leg_splits == [60, *right[::-1]]
    assert sum(len(divisor_pairs(n)) for n in leg_splits) == 12 + 54
    leg_splits.clear()
    # coassociativity splits Delta once and then each of its two legs
    assert check_coassoc(mono, tol=0.0)
    assert leg_splits == [60, *right, *right[::-1]]
    assert sum(len(divisor_pairs(n)) for n in leg_splits) == 12 + 2 * 54
    leg_splits.clear()
    # the CLI pays the same per monomial: the 60 generators and the unit
    assert cli.main(["verify-coassoc", "--n", "60"]) == 0
    assert leg_splits == 61 * [60, *right, *right[::-1]]
    assert sum(len(divisor_pairs(n)) for n in leg_splits) == 61 * (12 + 2 * 54)
    leg_splits.clear()
    x = _gaussian_element(np.random.default_rng(3), 12, 4)
    assert len(x.terms) == 4
    assert check_coassoc(x, tol=0.0)
    # d(12) = 6 and the divisors of 12 have 1+2+2+3+4+6 = 18 divisors; each
    # block of Delta(x) holds the 4 terms, and each term is split once
    assert len(leg_splits) == 4 * (1 + 2 * 6)
    assert sum(len(divisor_pairs(n)) for n in leg_splits) == 4 * (6 + 2 * 18)
