import dataclasses
import itertools
import json
import math
import operator
import re

import coproduct_oracle as oracle
import numpy as np
import pytest
from monomial_oracle import parse_label

from cuntzr import algebra, cli, coproduct, states
from cuntzr.algebra import AlgebraElement, CuntzMonomial, TensorElement
from cuntzr.algebra import canonical_equal, canonical_residual
from cuntzr.coproduct import (
    check_coassoc,
    coassoc_residual,
    delta,
    delta_op,
    divisor_pairs,
    f_l,
    f_l_op,
    f_r,
    f_r_op,
    phi,
    split_words,
)
from cuntzr.errors import BadFactorization
from cuntzr.representations import creation_words
from cuntzr.rmatrix import build_r, verify_intertwining, verify_ybe
from cuntzr.states import GPState, star

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


def test_divisor_pairs_equal_the_full_scan():
    # the scan of every m in 1..n is the oracle; the pairs are found up to isqrt(n)
    for n in [*range(1, 3001), 30000, 666649, 720720, 1995840]:
        scan = tuple((m, n // m) for m in range(1, n + 1) if n % m == 0)
        assert coproduct._divisor_pairs(n) == scan


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
    x = AlgebraElement.monomial(gen(2, 1)) + AlgebraElement.monomial(gen(4, 1))
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


def test_tensor_element_reads_its_block_indices_as_integers():
    # 2.5 would stand for a leg of letters 1..2 and True for O_1, whose
    # words collapse: both were kept as block indices
    for indices, bad in (((2.5, 3), 2.5), ((True, 2), True), ((2, "3"), "3")):
        with pytest.raises(ValueError, match=re.escape(f"algebra index {bad!r} is not an integer")):
            TensorElement({indices: {(key([1]), key([], [2])): 1.0}})
    with pytest.raises(ValueError, match="algebra index must be >= 1, got 0"):
        TensorElement({(0, 2): {(UNIT, key([1])): 1.0}})
    t = TensorElement({(np.int64(2), 3): {(key([1]), key([], [2])): 1.0}})
    assert list(t.blocks) == [(2, 3)] and type(next(iter(t.blocks))[0]) is int


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
        AlgebraElement.monomial(s1) + delta(s1)
    with pytest.raises(ValueError):
        delta(s1) - AlgebraElement.monomial(s1)
    # the zero element has no arity and adds to anything
    assert TensorElement() + delta(s1) == delta(s1)
    assert (delta(s1) + TensorElement()).arity == 2


def test_an_element_of_one_algebra_is_the_one_leg_tensor():
    mono = CuntzMonomial(4, (3, 1), (2,))
    assert AlgebraElement.monomial(mono).blocks == {(4,): {(key([3, 1], [2]),): 1 + 0j}}
    assert algebra.one_leg_blocks(mono) == AlgebraElement.monomial(mono).blocks
    terms = {UNIT: 2 - 1j, ((5,), (1, 6)): 1j}
    t = AlgebraElement(6, terms)
    assert t.arity == 1
    assert t.blocks == {(6,): {(UNIT,): 2 - 1j, (key([5], [1, 6]),): 1j}}
    assert t == TensorElement({(6,): {(k,): c for k, c in terms.items()}})
    zero = AlgebraElement.zero(6)
    assert zero.is_zero and zero.arity is None and zero == TensorElement()
    assert delta(zero).is_zero and phi(2, 3, AlgebraElement.zero(6)).is_zero
    with pytest.raises(TypeError):
        algebra.one_leg_blocks(1.0)


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
    # a difference of 5e-14, at two and three legs: only exact zeros are
    # dropped, by the constructor or by the residual
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


def test_a_bump_in_any_one_block_of_o60_is_reported():
    # negative control: 1e-3 added to the one coefficient 1 of a single
    # three-leg block of (Delta (x) id) Delta; the other 53 blocks are equal
    x = CuntzMonomial(60, (7, 59, 12), (30,))
    right, left = f_r(x), f_l(x)
    assert len(left.blocks) == 54
    assert coassoc_residual(x) == canonical_residual(right, left) == 0.0
    for bumped in left.blocks:
        (keys, c), = left.block(*bumped).items()
        assert c == 1.0
        residual = canonical_residual(right, left + TensorElement({bumped: {keys: 1e-3}}))
        assert residual == (1.0 + 1e-3) - 1.0


def _entries(table):
    """The (block, leg columns) pairs of ``table`` in block order, from
    which ``coproduct._tabulate`` builds it again."""
    return [(block, [table.columns[c] for c in legs]) for block, legs in zip(table.blocks, table.legs)]


def _moved_digit(table, k, letter):
    """The entries of ``table`` with the digit of ``letter`` moved cyclically,
    j -> j % a + 1, on the first leg of index a > 1 of block ``k``."""
    entries = _entries(table)
    block, cols = entries[k]
    leg = next(i for i, a in enumerate(block) if a > 1)
    col = cols[leg].copy()
    col[letter] = col[letter] % block[leg] + 1
    entries[k] = (block, cols[:leg] + [col] + cols[leg + 1:])
    return entries


def test_a_moved_digit_in_any_one_block_of_o60_fails_coassociativity(altered_tables):
    # negative control: in one block of f_l's table of O_60 at a time, the
    # digit of letter 7 moved cyclically on the block's first leg of index
    # a > 1, j -> j % a + 1; only that block differs, and the residual is
    # the canonical residual of the two double coproducts under the same
    # tables
    x = CuntzMonomial(60, (7, 59, 12), (30,))
    real = coproduct._table(60, "f_l")
    assert len(real.blocks) == 54
    for k, block in enumerate(real.blocks):
        altered_tables.replace(60, "f_l", coproduct._tabulate(60, "f_l", _moved_digit(real, k, 7)))
        right, left = f_r(x), f_l(x)
        assert [p for p in right.blocks if right.block(*p) != left.block(*p)] == [block]
        assert coassoc_residual(x) == canonical_residual(right, left) > 0.0
        assert not check_coassoc(x)


def _bits(r):
    """A residual as the bytes of its double, so that NaN equals NaN."""
    return np.float64(r).tobytes()


WITH_NAN = AlgebraElement(12, {((5,), ()): float("nan"), ((1,), (2,)): 1.0})


def _coassoc_samples():
    rng = np.random.default_rng(23)
    samples = [_gaussian_element(rng, n, 6) for n in (1, 7, 12, 60, 360)]
    samples += [gen(360, 17), CuntzMonomial.unit(60), AlgebraElement(12, {}), WITH_NAN]
    samples.append(TensorElement())  # the zero element of the direct sum
    samples.append(
        sum(
            (_gaussian_element(rng, n, 3) for n in (1, 5, 6, 12)),
            TensorElement(),
        )
    )
    return samples


def test_coassoc_residual_equals_the_canonical_residual_bit_for_bit(altered_tables):
    # the comparison of leg keys against the canonical residual of the two
    # double coproducts: on the real tables, where every residual is 0.0
    # or NaN, and with the right digit of phi_{2,3} shifted on O_6, where
    # the elements of O_12 fail and take the fallback
    samples = _coassoc_samples()
    for x in samples:
        assert _bits(coassoc_residual(x)) == _bits(canonical_residual(f_r(x), f_l(x)))
    assert math.isnan(coassoc_residual(WITH_NAN))
    shift_right_digit_of_2_3(altered_tables)
    failed = 0
    for x in samples:
        residual = coassoc_residual(x)
        assert _bits(residual) == _bits(canonical_residual(f_r(x), f_l(x)))
        failed += residual > 0.0
    assert failed >= 2


def test_tables_with_different_blocks_take_the_fallback(altered_tables):
    # f_l's table of O_12 without its last block, f_r's without its first,
    # or f_l's with a block twice: the two tables' blocks differ, and the
    # residual is that of the two double coproducts, with no KeyError from
    # aligning the blocks
    x = _gaussian_element(np.random.default_rng(29), 12, 4)
    real = {form: coproduct._table(12, form) for form in ("f_r", "f_l")}
    fr, fl = _entries(real["f_r"]), _entries(real["f_l"])
    for form, entries, fails in (
        ("f_l", fl[:-1], True), ("f_r", fr[1:], True), ("f_l", fl + fl[2:3], False)
    ):
        altered_tables.replace(12, form, coproduct._tabulate(12, form, entries))
        assert coproduct.disagreeing_letters(12) is None
        want = canonical_residual(f_r(x), f_l(x))
        assert (want > 0.0) == fails
        assert _bits(coassoc_residual(x)) == _bits(want)
        altered_tables.replace(12, form, real[form])


def test_a_monomial_is_decided_by_its_letters_before_it_is_wrapped(monkeypatch):
    # on the real tables a monomial reads 0.0 with nothing wrapped; said to
    # hold a disagreeing letter, or with the tables' blocks said to differ,
    # it is wrapped and takes the canonical residual of the two sides
    rng = np.random.default_rng(43)
    monos = [
        CuntzMonomial(n, tuple(rng.integers(1, n + 1, size=a).tolist()),
                      tuple(rng.integers(1, n + 1, size=b).tolist()))
        for n in (1, 6, 12, 60, 360) for a, b in ((1, 0), (0, 2), (3, 4))
    ]
    wrapped, canonical = [], []
    one_leg, residual = coproduct.one_leg_blocks, coproduct.canonical_residual
    monkeypatch.setattr(coproduct, "one_leg_blocks", lambda x: wrapped.append(x) or one_leg(x))
    monkeypatch.setattr(coproduct, "canonical_residual",
                        lambda *sides: canonical.append(sides) or residual(*sides))
    for mono in monos:
        assert _bits(coassoc_residual(mono)) == _bits(0.0)
    assert not wrapped and not canonical
    for mono in monos:
        letters = mono.u + mono.v
        for bad, falls_back in (
            (frozenset(letters[-1:]), bool(letters)),  # the words of O_1 collapse
            (None, True),
            (frozenset(set(range(1, mono.n + 2)) - set(letters)), False),
        ):
            monkeypatch.setattr(coproduct, "disagreeing_letters", lambda n: bad)
            want = residual(f_r(mono), f_l(mono))
            wrapped.clear()
            got = coassoc_residual(mono)
            assert _bits(got) == _bits(want) == _bits(0.0)
            assert (wrapped == [mono], len(canonical) == 1) == (falls_back, falls_back)
            canonical.clear()


def test_coassoc_residual_is_the_residual_of_the_two_double_coproducts():
    rng = np.random.default_rng(5)
    for n in (1, 4, 6, 12):
        x = _gaussian_element(rng, n, 5)
        assert coassoc_residual(x) == canonical_residual(f_r(x), f_l(x)) == 0.0


# ---------------------------------------------------------------------------
# the per-letter agreement mask of the tables of f_r and f_l


def _changed_row(table, letter):
    """``table`` with the digit of ``letter`` in its first column moved
    cyclically within that column's leg, on every leg that reads it; the
    rows of the split are read from the changed column, so the table stays
    consistent."""
    col = table.columns[1].copy()
    size = col.max()  # the index of the first column's leg
    col[letter] = col[letter] % size + 1
    return dataclasses.replace(table, columns=(None, col, *table.columns[2:]))


def _compared(n):
    """The letters of O_n whose leg keys on the blocks of f_r's table differ
    from those on f_l's read in the same block order: one split of each
    generator through each table, compared as before the mask. The block
    order is aligned here, from the two tables' blocks."""
    right, left = coproduct._table(n, "f_r"), coproduct._table(n, "f_l")
    k, at = len(right.blocks[0]), {block: i for i, block in enumerate(left.blocks)}
    align = operator.itemgetter(*(at[block] * k + j for block in right.blocks for j in range(k)))
    return {
        w for w in range(1, n + 1)
        if coproduct._leg_keys(right, ((w,), ())) != align(coproduct._leg_keys(left, ((w,), ())))
    }


def test_the_agreement_mask_is_the_per_letter_key_comparison():
    for n in range(1, 401):
        assert coproduct.disagreeing_letters(n) == _compared(n) == set(), n


def test_the_agreement_mask_is_false_exactly_on_the_changed_letters(altered_tables):
    # the changed O_12 row of letter 5
    table = coproduct._table(12, "f_l")
    altered_tables.replace(12, "f_l", _changed_row(table, 5))
    assert coproduct.disagreeing_letters(12) == _compared(12) == {5}
    altered_tables.replace(12, "f_l", table)
    assert coproduct.disagreeing_letters(12) == set()
    # letter 7 moved in each one of the 54 blocks of f_l's table of O_60, on
    # either table
    for form in ("f_l", "f_r"):
        real = coproduct._table(60, form)
        for k in range(54):
            altered_tables.replace(60, form, coproduct._tabulate(60, form, _moved_digit(real, k, 7)))
            assert coproduct.disagreeing_letters(60) == _compared(60) == {7}, (form, k)
        altered_tables.replace(60, form, real)
    # the right digit of phi_{2,3} shifted on O_6: a consistent relabelling
    # there, and every letter of O_12 disagrees
    shift_right_digit_of_2_3(altered_tables)
    assert coproduct.disagreeing_letters(6) == _compared(6) == set()
    assert coproduct.disagreeing_letters(12) == _compared(12) == set(range(1, 13))
    # an O_1 leg against a leg with digits: block (1, 3, 4) of f_l's table of
    # O_12 with its columns reversed, so every letter disagrees
    altered_tables.digits(altered_tables.real_digits)
    entries = _entries(coproduct._table(12, "f_l"))
    k = next(i for i, (block, _) in enumerate(entries) if block == (1, 3, 4))
    entries[k] = ((1, 3, 4), [entries[k][1][2], entries[k][1][1], None])
    altered_tables.replace(12, "f_l", coproduct._tabulate(12, "f_l", entries))
    assert coproduct.disagreeing_letters(12) == set(range(1, 13))


def _generator_loop(n):
    """The coassoc-generators residual as the CLI computed it before the
    mask: every generator of O_n through ``coassoc_residual``, each also
    against its canonical residual."""
    worst = 0.0
    for i in range(1, n + 1):
        g = gen(n, i)
        residual = coassoc_residual(g)
        assert _bits(residual) == _bits(canonical_residual(f_r(g), f_l(g)))
        worst = max(worst, residual)
    return worst


def _generator_record(n):
    record, = (c for c in cli._run_coassoc(cli.ScenarioSpec("coassoc", n=n)).checks
               if c.name == "coassoc-generators")
    return record


def test_the_generator_record_equals_the_per_generator_loop(altered_tables):
    for n in (*range(1, 13), 60, 360):
        record = _generator_record(n)
        assert record.passed and _bits(record.residual) == _bits(_generator_loop(n)) == _bits(0.0)
    real = {n: coproduct._table(n, "f_l") for n in (12, 60)}
    altered = [
        (12, _changed_row(real[12], 5)),  # one changed row
        (60, coproduct._tabulate(60, "f_l", _moved_digit(real[60], 20, 7))),  # a moved digit
        (12, coproduct._tabulate(12, "f_l", _entries(real[12])[:-1])),  # a block less
    ]
    for n, table in altered:
        altered_tables.replace(n, "f_l", table)
        record = _generator_record(n)
        assert not record.passed and record.residual > 0.0
        assert _bits(record.residual) == _bits(_generator_loop(n))
        altered_tables.replace(n, "f_l", real[n])
    shift_right_digit_of_2_3(altered_tables)
    for n in (6, 12):
        record = _generator_record(n)
        assert record.passed == (n == 6)
        assert _bits(record.residual) == _bits(_generator_loop(n))


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


def test_four_leg_coassociativity():
    # the two outer expansions of a double coproduct agree at four legs
    for x in (gen(4, 3), CuntzMonomial(6, (5, 2), (3,)), CuntzMonomial.unit(4)):
        lhs = oracle.expand_leg(f_r(x), 3, delta)
        rhs = oracle.expand_leg(f_l(x), 1, delta)
        assert lhs.arity == 4
        assert canonical_residual(lhs, rhs) == 0.0


# ---------------------------------------------------------------------------
# the split tables against the per-term and mixed-radix oracles

SMALLEST = 5e-324  # the smallest subnormal: kept, as only exact zeros are dropped


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
            (_gaussian_element(rng, n, 3) for n in (1, 2, 4, 12)),
            TensorElement(),
        )
    )
    samples.append(_near_cutoff())
    return samples


def _near_cutoff():
    # coefficients next to the prune cutoff, exact zero: 0.0 is dropped on
    # input, the smallest subnormal kept
    return AlgebraElement(6, {((5, 1), (2,)): SMALLEST, ((4,), ()): 0.0, UNIT: 1.0})


def test_coproducts_keep_the_coefficient_above_the_prune_cutoff():
    x = _near_cutoff()
    assert sorted(abs(c) for c in x.block(6).values()) == [SMALLEST, 1.0]
    for t in (delta(x), f_r(x), f_l_op(x)):
        assert SMALLEST in {abs(c) for terms in t.blocks.values() for c in terms.values()}


def test_phi_refuses_a_pair_that_is_not_a_positive_factorization():
    # phi is the block (m, l) of Delta, so an (m, l) that is no block of it
    # would otherwise give an empty element without an error
    s1 = gen(2, 1)
    for m, l, x in (
        (-1, -2, s1),
        (-2, -1, s1),
        (0, 2, s1),
        (2, 2, s1),
        (-2, -3, AlgebraElement.zero(6)),
        (3, 3, gen(6, 1)),
        (0, 0, CuntzMonomial.unit(1)),
    ):
        with pytest.raises(BadFactorization):
            phi(m, l, x)
    assert phi(1, 2, s1).blocks == {(1, 2): {(UNIT, key([1])): 1}}
    assert phi(2, 1, s1).blocks == {(2, 1): {(key([1]), UNIT): 1}}
    assert phi(1, 1, CuntzMonomial.unit(1)).blocks == {(1, 1): {(UNIT, UNIT): 1}}


def test_phi_refuses_factors_that_are_not_integers():
    # a float factor used to raise TypeError from range on a fresh table
    # cache, and once the table of O_6 was built to give a block keyed
    # (2.0, 3) or (2, 3.0), and a bool read as 1 built (True, 6) as (1, 6);
    # integers of any integer type are read as ints
    s4 = gen(6, 4)
    phi(2, 3, s4)  # the table of O_6 built
    for m, l in ((2.0, 3), (2, 3.0), (2.5, 2.4), ("2", 3), (True, 6), (2, True)):
        with pytest.raises(BadFactorization, match="not integers"):
            phi(m, l, s4)
    for m, l in ((np.int64(2), 3), (2, np.uint8(3))):
        blocks = phi(m, l, s4).blocks
        assert blocks == {(2, 3): {(key([2]), key([1])): 1}}
        assert all(type(a) is int for a in next(iter(blocks)))


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
    # a double coproduct with one more leg expanded, by Delta and by the
    # per-term oracle, is the four-fold mixed-radix split
    for x in _oracle_samples():
        quad = oracle.radix_coproduct(x, 4).blocks
        quad_op = oracle.radix_coproduct(x, 4, opposite=True).blocks
        for leg in (1, 2, 3):
            t = f_r(x)
            assert oracle.expand_leg(t, leg, delta).blocks == quad
            assert oracle.expand_leg(t, leg, oracle.delta).blocks == quad
            t_op = f_l_op(x)
            assert oracle.expand_leg(t_op, leg, delta_op).blocks == quad_op
            assert oracle.expand_leg(t_op, leg, oracle.delta_op).blocks == quad_op


def test_expand_leg_keeps_coefficients_at_the_prune_cutoff():
    # Delta and f_r of an element of the direct sum copy the smallest
    # subnormal into every block; an exact zero is dropped on input
    t = TensorElement(
        {
            (12,): {(key([1, 5], [6]),): SMALLEST, (key([2]),): 0.0},
            (6,): {(key([], [6]),): 3 - 2j},
        }
    )
    assert t.term_count() == 2
    for got, want in (
        (delta(t), oracle.delta(t)),
        (delta_op(t), oracle.delta_op(t)),
        (f_r(t), oracle.expand_leg(oracle.delta(t), 2, oracle.delta)),
        (f_l_op(t), oracle.expand_leg(oracle.delta_op(t), 1, oracle.delta_op)),
    ):
        assert got.blocks == want.blocks
        assert SMALLEST in {abs(c) for terms in got.blocks.values() for c in terms.values()}
    assert delta(t).term_count() == len(divisor_pairs(12)) + len(divisor_pairs(6))
    assert f_r(t).term_count() == sum(len(oracle.factorizations(n, 3)) for n in (12, 6))


# ---------------------------------------------------------------------------
# the tables of the six forms

# form -> (arity, whether its blocks reverse the mixed-radix split)
FORMS = {
    "delta": (2, False), "delta_op": (2, True),
    "f_r": (3, False), "f_l": (3, False), "f_r_op": (3, True), "f_l_op": (3, True),
}

# the double coproducts as Delta (or Delta^op) followed by Delta (or
# Delta^op) on one leg, which split a word pair twice through Delta's
# table; the composed tables split it once
LEG_EXPANSIONS = {
    f_r: lambda x: oracle.expand_leg(delta(x), 2, delta),
    f_l: lambda x: oracle.expand_leg(delta(x), 1, delta),
    f_r_op: lambda x: oracle.expand_leg(delta_op(x), 2, delta_op),
    f_l_op: lambda x: oracle.expand_leg(delta_op(x), 1, delta_op),
}


def test_each_composed_table_is_the_mixed_radix_split_of_every_letter():
    for n in (*range(1, 61), 360):
        for form, (arity, opposite) in FORMS.items():
            table = coproduct._table(n, form)
            assert sorted(table.blocks) == oracle.factorizations(n, arity)
            # in the order the per-term expansion writes them, which is the
            # order of the blocks of every output of the form
            assert table.blocks == tuple(getattr(oracle, form)(CuntzMonomial.unit(n)).blocks)
            for w in range(1, n + 1):
                got = coproduct._split(table, ((w,), (w, w)))
                for block, keys in zip(table.blocks, got, strict=True):
                    # the opposite block (a, b, c) reverses the split of (c, b, a)
                    if opposite:
                        digits = oracle.radix_digits(block[::-1], w)[::-1]
                    else:
                        digits = oracle.radix_digits(block, w)
                    want = tuple(key([d], [d, d]) if a > 1 else UNIT for a, d in zip(block, digits))
                    assert keys == want, (form, n, w, block)


def test_phi_is_the_block_of_delta_on_every_divisor_pair():
    # phi splits each term through Delta's whole table and keeps one block;
    # on every divisor pair, the O_1-leg pairs (1, n) and (n, 1) among them,
    # it must give that block of Delta
    rng = np.random.default_rng(20)
    for n in (6, 60, 360):
        x = _gaussian_element(rng, n, 12, max_len=4)
        whole = delta(x)
        assert {(1, n), (n, 1)} <= whole.blocks.keys()
        for m, l in coproduct.divisor_pairs(n):
            assert phi(m, l, x).blocks == {(m, l): whole.block(m, l)}, (m, l)


def _ordered(t):
    # blocks and terms in the order they were written
    return [(p, list(terms.items())) for p, terms in t.blocks.items()]


def test_double_coproducts_equal_the_leg_expansions_of_delta():
    rng = np.random.default_rng(43)
    samples = [_gaussian_element(rng, n, 3) for n in range(1, 361)]
    # an element of the direct sum with several blocks, and zero
    samples.append(
        sum(
            (_gaussian_element(rng, n, 4) for n in (4, 6, 1, 60)),
            TensorElement(),
        )
    )
    samples += [AlgebraElement.zero(12), TensorElement()]
    for x in samples:
        for fast, slow in LEG_EXPANSIONS.items():
            assert _ordered(fast(x)) == _ordered(slow(x)), (fast.__name__, x)
    assert all(f(TensorElement()).is_zero for f in LEG_EXPANSIONS)


def test_one_changed_digit_of_the_f_l_table_breaks_coassociativity_on_o12(altered_tables):
    # negative control: the first digit of letter 5 in the composed table of
    # f_l on O_12 moved cyclically within its leg; every other row is intact
    table = coproduct._table(12, "f_l")
    assert coproduct._table(12, "f_l") is table  # built once
    altered_tables.replace(12, "f_l", _changed_row(table, 5))
    for i in range(1, 13):
        residual = coassoc_residual(gen(12, i))
        assert residual == (1.0 if i == 5 else 0.0), i


# ---------------------------------------------------------------------------
# single blocks of the double coproducts as two phi composed


def _then(m, l, flip=False):
    # phi_{m,l}, or its flip, on the legs of index m*l; nothing on the others
    def comap(y):
        if y.blocks.keys() != {(m * l,)}:
            return TensorElement()
        return phi(m, l, y).flip() if flip else phi(m, l, y)

    return comap


def test_single_block_compositions_equal_the_double_coproduct_blocks():
    rng = np.random.default_rng(29)
    for a, b, c in ((2, 3, 2), (3, 2, 2), (2, 3, 5), (3, 9, 3), (1, 2, 3)):
        x = _gaussian_element(rng, a * b * c, 5)
        assert x.term_count() > 1
        want_r = f_r(x).block(a, b, c)
        want_l_op = f_l_op(x).block(a, b, c)
        want_r_op = f_r_op(x).block(a, b, c)
        assert want_r and want_l_op and want_r_op
        assert oracle.expand_leg(phi(a, b * c, x), 2, _then(b, c)).blocks == {(a, b, c): want_r}
        assert (
            oracle.expand_leg(phi(c, a * b, x).flip(), 1, _then(b, a, flip=True)).blocks
            == {(a, b, c): want_l_op}
        )
        assert (
            oracle.expand_leg(phi(b * c, a, x).flip(), 2, _then(c, b, flip=True)).blocks
            == {(a, b, c): want_r_op}
        )
        for m, n in ((a, b * c), (a * b, c), (b, a * c)):
            assert phi(m, n, x).flip().blocks == {(n, m): delta_op(x).block(n, m)}
        # phi_{b,c} on the right leg of Delta gives the blocks of f_r whose
        # right legs are (b, c)
        assert oracle.expand_leg(delta(x), 2, _then(b, c)).blocks == {
            p: t for p, t in f_r(x).blocks.items() if p[1:] == (b, c)
        }


# ---------------------------------------------------------------------------
# a wrong digit table, and the work the splits do


def shift_right_digit_of_2_3(altered_tables):
    """Negative control: the right digit of phi_{2,3} moved cyclically,
    j -> j % 3 + 1, in the digit table of O_6. Every table is built again
    from the shifted digit table, also where the real one was already read."""
    real = altered_tables.real_digits
    col = 2 * coproduct._divisor_pairs(6).index((2, 3))
    shifted = real(6).copy()
    shifted[1:, col] = shifted[1:, col] % 3 + 1
    altered_tables.digits(lambda n: shifted if n == 6 else real(n))


def test_a_shifted_split_fails_coassociativity_on_o12(altered_tables, tmp_path):
    shift_right_digit_of_2_3(altered_tables)
    for i in range(1, 13):
        assert not check_coassoc(gen(12, i))
    out = tmp_path / "coassoc.json"
    assert cli.main(["verify-coassoc", "--n", "12", "--out", str(out)]) == 1


def test_the_radix_oracle_catches_a_shifted_split_on_o6(altered_tables):
    shift_right_digit_of_2_3(altered_tables)
    for i in range(1, 7):
        g = gen(6, i)
        # on O_6 the shift is a consistent relabelling: both orders agree
        assert check_coassoc(g, tol=0.0)
        assert f_r(g).blocks != oracle.radix_coproduct(g, 3).blocks
        assert delta(g).blocks != oracle.delta(g).blocks
        # phi reads the same table
        assert phi(2, 3, g).blocks != {(2, 3): oracle.delta(g).block(2, 3)}


def test_a_shifted_table_fails_coassociativity_and_the_ybe_check(altered_tables):
    states = (GPState.uniform(2), GPState.uniform(3), GPState.uniform(2))
    rs = [build_r(states[i], states[j], 1) for i, j in ((0, 1), (0, 2), (1, 2))]
    # both checks pass first, which builds the tables of O_6 and O_12; the
    # shift made afterwards must still reach every split
    assert verify_ybe(*states, 1, rs=rs).passed
    for i in range(1, 13):
        assert check_coassoc(gen(12, i))
    shift_right_digit_of_2_3(altered_tables)
    for i in range(1, 13):
        assert not check_coassoc(gen(12, i))
    report = verify_ybe(*states, 1, rs=rs)
    failed = [c for c in report.checks if not c.passed]
    assert failed and not report.passed
    # the unit word is untouched; each failing record names its word of O_12
    assert report.checks[0].name == "ybe:n=12;u=;v=" and report.checks[0].passed
    for check in failed:
        word = parse_label(check.name.removeprefix("ybe:"))
        assert word.n == 12 and len(word.u) == 1
        assert check.residual > 1e-3


def _state_json(v):
    return json.dumps({"n": len(v), "z": [[c.real, c.imag] for c in v]})


def _product_state_residual(tmp_path, omega1, omega2):
    # (pass, residual) of the product-state record of ``cuntzr state-product``
    out = tmp_path / "product.json"
    cli.main(["state-product", "--omega1", omega1, "--omega2", omega2, "--out", str(out)])
    checks = json.loads(out.read_text())["checks"]
    check, = (c for c in checks if c["name"] == "product-matches-interleaved-state")
    return check["pass"], check["residual"]


def test_a_shifted_table_fails_intertwining_product_states_and_coassociativity(
    altered_tables, tmp_path, capsys
):
    # negative control: one shifted column of Delta's table on O_6 reaches
    # the word images of the verifiers, the product functional of two
    # states and the composed tables alike
    rng = np.random.default_rng(19)
    z, y = (rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (2, 3))
    z, y = (_state_json(v / np.linalg.norm(v)) for v in (z, y))
    uniform = ('{"uniform": 2}', '{"uniform": 3}')
    pairs = [(GPState.uniform(2), GPState.uniform(3)), (GPState.standard(2), GPState.standard(3))]
    # everything passes on the real table first
    assert all(verify_intertwining(build_r(*pair, 2)).passed for pair in pairs)
    assert _product_state_residual(tmp_path, z, y)[0]
    shift_right_digit_of_2_3(altered_tables)
    for pair in pairs:
        report = verify_intertwining(build_r(*pair, 2))
        assert not any(c.passed for c in report.checks)
        assert report.max_residual == pytest.approx(np.sqrt(2), rel=1e-15)
    passed, residual = _product_state_residual(tmp_path, z, y)
    assert not passed and residual > 0.5
    # the uniform pair does not see the shift: its product values are equal
    # on every relabelling of the letters of one leg
    passed, residual = _product_state_residual(tmp_path, *uniform)
    assert passed and residual <= 1e-15
    for i in range(1, 13):
        assert not check_coassoc(gen(12, i))
    capsys.readouterr()


def test_the_array_split_equals_the_word_split():
    # the per-term split of each word pair on every block of a form
    # (coproduct._split, which reads the rows of its table) against
    # split_words on both of its words (which gathers the table's columns);
    # the annihilation word of each pair is the creation word of another
    chain = itertools.chain.from_iterable
    for n in (12, 30, 60):
        words = creation_words(n, 3)
        for t in range(4):
            group = [w for w in words if len(w) == t]
            # a stride coprime to n through the words, which are in lex
            # order, so that a sample of them puts every letter in every
            # position
            stride = len(group) // 1024 | 1
            while math.gcd(stride, n) > 1:
                stride += 2
            for form in FORMS:
                # every word for Delta and every word up to length 2 for all
                # forms; of the words of length 3 of the other forms, the
                # strided sample, which keeps this fast
                sample = group if t < 3 or form == "delta" else group[::stride]
                table = coproduct._table(n, form)
                for start in range(0, len(sample), 8192):  # chunks keep the arrays small
                    us = sample[start:start + 8192]
                    U = np.array(us, dtype=np.intp).reshape(len(us), t)
                    keys = (coproduct._split(table, (u, v)) for u, v in zip(us, us[::-1]))
                    got = np.fromiter(chain(chain(chain(chain(keys)))), dtype=np.intp)
                    # per block, per leg, the digits of u and then of v, each (K, 2, t)
                    want = []
                    for block in table.blocks:
                        legs = zip(split_words(form, block, U), split_words(form, block, U[::-1]))
                        for a, (u, v) in zip(block, legs):
                            # an O_1 leg has no digits: its words are the unit
                            assert u.shape == v.shape == (len(us), t if a > 1 else 0)
                            want.append(np.stack([u, v], axis=1).reshape(len(us), -1))
                    got = got.reshape(len(us), -1)
                    assert np.array_equal(got, np.concatenate(want, axis=1))


def test_opposite_tables_are_their_mirrors_reversed(altered_tables, monkeypatch):
    # Delta^op is Delta flipped, f_r_op is f_l with its legs reversed and
    # f_l_op is f_r so: each opposite table is a view of its mirror's, with
    # the mirror's columns and rows, and composes nothing of its own
    composed = []
    compose = coproduct._compose
    monkeypatch.setattr(
        coproduct, "_compose", lambda n, leg: composed.append((n, leg)) or compose(n, leg)
    )
    rng = np.random.default_rng(21)
    for n in (6, 60, 97):
        for (op, f_op), (form, f) in (
            (("delta_op", delta_op), ("delta", delta)),
            (("f_r_op", f_r_op), ("f_l", f_l)),
            (("f_l_op", f_l_op), ("f_r", f_r)),
        ):
            table = coproduct._table(n, op)
            mirror = coproduct._table(n, form)
            assert table.columns is mirror.columns
            assert table.rows is mirror.rows
            assert table.blocks == tuple(b[::-1] for b in mirror.blocks)
            assert table.legs == tuple(legs[::-1] for legs in mirror.legs)
            for _ in range(20):
                u, v = rng.integers(1, n + 1, 3).tolist(), rng.integers(1, n + 1, 2).tolist()
                mono = CuntzMonomial(n, tuple(u), tuple(v))
                assert _ordered(f_op(mono)) == _ordered(f(mono).flip()), (op, mono)
        # one composition each for f_l and f_r, made for their mirrors
        assert composed == [(n, 0), (n, 1)]
        composed.clear()


def test_word_splits_are_counted_once(splits, altered_tables, monkeypatch):
    mono = CuntzMonomial(60, (7, 59, 12), (30,))
    # each double coproduct splits the word pair of O_60 in one pass
    # through its composed table and writes one term into each of the
    # d_3(60) = 54 blocks; it computes no Delta
    for f, form in ((f_r, "f_r"), (f_l, "f_l"), (f_r_op, "f_r_op"), (f_l_op, "f_l_op")):
        assert f(mono).term_count() == 54
        assert splits.passes == [(60, form, 54)]
        splits.passes.clear()
    # coassociativity splits no term whose letters all agree in the two
    # tables; the tables here are built afresh, and their mask is built
    # once, on the first check of O_60, and read by every later one, the
    # CLI's 60 generators and unit among them
    built = coproduct._disagreeing.cache_info().misses
    assert check_coassoc(mono, tol=0.0)
    assert check_coassoc(mono, tol=0.0)
    assert cli.main(["verify-coassoc", "--n", "60"]) == 0
    x = _gaussian_element(np.random.default_rng(3), 12, 4)
    assert x.term_count() == 4
    assert check_coassoc(x, tol=0.0)
    assert splits.passes == []
    # one mask for the tables of O_60 and one for those of O_12
    assert coproduct._disagreeing.cache_info().misses - built == 2
    # with letter 7 moved in one block of f_l's table of O_60, a term holding
    # it makes exactly the fallback's passes, one through each table, and a
    # term without it none; the CLI splits only generator 7, and the new
    # pair of tables gets one mask
    altered_tables.replace(60, "f_l", coproduct._tabulate(
        60, "f_l", _moved_digit(coproduct._table(60, "f_l"), 5, 7)
    ))
    assert not check_coassoc(mono)
    assert splits.passes == [(60, "f_r", 54), (60, "f_l", 54)]
    splits.passes.clear()
    assert check_coassoc(CuntzMonomial(60, (59, 12), (30, 30)), tol=0.0)
    assert cli.main(["verify-coassoc", "--n", "60"]) == 1
    assert splits.passes == [(60, "f_r", 54), (60, "f_l", 54)]
    assert coproduct._disagreeing.cache_info().misses - built == 3
    splits.passes.clear()
    # Delta and Delta^op split a word pair under all the divisor pairs of its
    # index at once; phi splits it through the whole of Delta's table too
    # and writes one term, that of its block
    assert delta(mono).term_count() == 12
    assert delta_op(mono).term_count() == 12
    assert phi(3, 20, mono).term_count() == 1
    assert splits.passes == [(60, "delta", 12), (60, "delta_op", 12), (60, "delta", 12)]
    splits.passes.clear()
    # the product functional of two states reads the columns of its block of
    # Delta's table once, for all letters of O_60, when it is built, and
    # splits no word pair
    reads = []
    real_split_words = states.split_words

    def read(form, block, words):
        reads.append((form, block, np.asarray(words).tolist()))
        return real_split_words(form, block, words)

    monkeypatch.setattr(states, "split_words", read)
    prod = star(GPState.uniform(3), GPState.uniform(20))
    assert reads == [("delta", (3, 20), [[w] for w in range(1, 61)])]
    assert prod(mono) == pytest.approx(60**-2)
    assert prod(CuntzMonomial(60, (1, 60), (7, 7))) == pytest.approx(60**-2)
    assert len(reads) == 1
    assert splits.passes == []
