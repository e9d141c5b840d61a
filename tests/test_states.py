import re

import numpy as np
import pytest
from monomial_oracle import iter_monomials
from substitution_oracle import substitute_generators

from cuntzr import algebra, coproduct
from cuntzr.algebra import AlgebraElement, CuntzMonomial, TensorElement
from cuntzr.coproduct import phi
from cuntzr.errors import MismatchedAlgebra, NotUnitary
from cuntzr.states import (
    GPState,
    UnitVector,
    boxtimes,
    commutes,
    gp_eval,
    interleaving_gap,
    star,
    star_gap,
    state_from_json,
    twist_state,
)


def random_unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    # C^1 admits the scalar 1 alone; the draw is made anyway, so the draws
    # after it are those of any other n
    return UnitVector(z / np.linalg.norm(z) if n > 1 else [1.0])


def random_monomial(rng, n, max_len=3):
    u = tuple(int(x) for x in rng.integers(1, n + 1, size=rng.integers(0, max_len + 1)))
    v = tuple(int(x) for x in rng.integers(1, n + 1, size=rng.integers(0, max_len + 1)))
    return CuntzMonomial(n, u, v)


def random_unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# evaluation


def test_gp_eval_single_letters():
    rng = np.random.default_rng(0)
    z = random_unit(rng, 2)
    val = gp_eval(z, CuntzMonomial(2, (1,), (2,)))
    assert val == pytest.approx(z.z[0].conjugate() * z.z[1])


def test_gp_eval_unit_is_one():
    for n in (1, 2, 5):
        rng = np.random.default_rng(n)
        z = random_unit(rng, n)
        assert gp_eval(z, CuntzMonomial.unit(n)) == 1


def test_gp_eval_vanishing_component():
    z = UnitVector([1.0, 0.0])
    assert gp_eval(z, CuntzMonomial(2, (2,), (2,))) == 0


def test_gp_eval_checks_index():
    with pytest.raises(MismatchedAlgebra):
        gp_eval(UnitVector([1.0, 0.0]), CuntzMonomial.unit(3))


def test_state_positivity_and_normalization():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = random_unit(rng, 3)
        terms = {}
        for _ in range(3):
            m = random_monomial(rng, 3, max_len=2)
            terms[m.key] = terms.get(m.key, 0) + complex(rng.normal(), rng.normal())
        x = AlgebraElement(3, terms)
        val = gp_eval(z, x.adjoint() * x)
        assert val.real >= -1e-12
        assert abs(val.imag) <= 1e-12
        assert gp_eval(z, AlgebraElement.unit(3)) == 1


# ---------------------------------------------------------------------------
# the product of states and the interleaving of vectors


def test_star_of_standard_states_equals_standard_state():
    w2, w3 = GPState.standard(2), GPState.standard(3)
    w6 = GPState.standard(6)
    prod = star(w2, w3)
    for mono in (
        CuntzMonomial(6, (3,), (3,)),
        CuntzMonomial.unit(6),
        CuntzMonomial(6, (1,), (1,)),
        CuntzMonomial(6, (1, 2), (4,)),
    ):
        x = AlgebraElement.monomial(mono)
        assert prod(x) == pytest.approx(w6(x), abs=1e-15)


def test_star_with_scalar_leg_is_identity():
    rng = np.random.default_rng(2)
    z = random_unit(rng, 3)
    rho = GPState(z)
    prod = star(rho, GPState.standard(1))
    for _ in range(50):
        m = random_monomial(rng, 3)
        x = AlgebraElement.monomial(m)
        assert prod(x) == pytest.approx(rho(x), abs=1e-13)


def test_star_matches_interleaved_state():
    rng = np.random.default_rng(3)
    for n, m in ((2, 2), (2, 3), (3, 2)):
        for _ in range(5):
            z = random_unit(rng, n)
            y = random_unit(rng, m)
            prod = star(GPState(z), GPState(y))
            boxed = boxtimes(z, y)
            for _ in range(20):
                x = AlgebraElement.monomial(random_monomial(rng, n * m))
                assert abs(prod(x) - gp_eval(boxed, x)) <= 1e-12


def test_star_values_equal_gp_eval_on_the_per_term_elements(monkeypatch):
    rng = np.random.default_rng(8)
    cases = []
    for n, m in ((2, 3), (3, 2), (3, 4), (2, 6)):
        omega, psi = GPState(random_unit(rng, n)), GPState(random_unit(rng, m))
        for _ in range(10):
            terms = {}
            for _ in range(4):
                mono = random_monomial(rng, n * m)
                terms[(mono.u, mono.v)] = complex(*rng.normal(size=2))
            cases.append((omega, psi, AlgebraElement(n * m, terms)))
    # the value term by term, as gp_eval gives it on one-term elements
    want = []
    for omega, psi, x in cases:
        total = 0j
        for (key1, key2), c in phi(omega.n, psi.n, x).block(omega.n, psi.n).items():
            a = gp_eval(omega.z, AlgebraElement(omega.n, {key1: 1.0}))
            if a != 0:
                total += c * a * gp_eval(psi.z, AlgebraElement(psi.n, {key2: 1.0}))
        want.append(total)
    # every element is built through one of the two constructors of the type
    built = []
    real_init, real_wrap = TensorElement.__init__, TensorElement._from_pruned.__func__

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    def wrap(cls, blocks):
        built.append(blocks)
        return real_wrap(cls, blocks)

    monkeypatch.setattr(TensorElement, "__init__", init)
    monkeypatch.setattr(TensorElement, "_from_pruned", classmethod(wrap))
    got = [star(omega, psi)(x) for omega, psi, x in cases]
    assert not built  # no per-term elements
    assert [(v.real, v.imag) for v in got] == [(v.real, v.imag) for v in want]
    # the count sees a construction through either path
    AlgebraElement.monomial(CuntzMonomial.unit(2))
    AlgebraElement.unit(2)
    assert len(built) == 2


def _conjugating_word_value(zz, key, val):
    """``val`` times the state of the components ``zz`` on the word pair
    key, each creation letter's component conjugated as it is read."""
    u, v = key
    for l in u:
        val *= zz[l - 1].conjugate()
    for l in v:
        val *= zz[l - 1]
    return val


def test_star_and_gp_eval_equal_the_conjugating_letter_loop():
    # the per-letter value lists give every value bit for bit: on elements
    # of several complex terms, on composites with zero components, an O_1
    # leg and nesting on either side, and on the states themselves
    rng = np.random.default_rng(19)
    omega, psi, chi = (GPState(random_unit(rng, n)) for n in (2, 3, 2))
    composites = [
        star(omega, psi),
        star(GPState.standard(2), GPState.uniform(3)),
        star(GPState.standard(1), psi),
        star(star(omega, psi), chi),
        star(chi, star(psi, omega)),
    ]
    for prod in composites:
        for _ in range(15):
            terms = {}
            for _ in range(5):
                terms[random_monomial(rng, prod.n, max_len=4).key] = complex(*rng.normal(size=2))
            x = AlgebraElement(prod.n, terms)
            want = 0j
            for (key,), c in x.block(prod.n).items():
                a = _conjugating_word_value(prod._left_letters, key, 1 + 0j)
                if a != 0:
                    want += c * a * _conjugating_word_value(prod._right_letters, key, 1 + 0j)
            got = prod(x)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
    for z in (omega.z, psi.z, boxtimes(omega.z, psi.z), UnitVector.basis(3, 2)):
        for _ in range(15):
            terms = {}
            for _ in range(5):
                terms[random_monomial(rng, z.n, max_len=4).key] = complex(*rng.normal(size=2))
            x = AlgebraElement(z.n, terms)
            want = 0j
            for (key,), c in x.block(z.n).items():
                want += _conjugating_word_value(z.z.tolist(), key, complex(c))
            got = gp_eval(z, x)
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_gp_eval_reading_its_letters_equals_the_full_value_lists():
    # the value of each term from the per-letter lists of the whole vector
    # (``_letter_values``), the evaluation before it read only the letters
    # an element uses; bit for bit on seeded elements of O_n, n <= 12, for
    # standard, uniform and random states, the unit word included
    from cuntzr.states import _letter_values, _word_value

    rng = np.random.default_rng(36)
    for n in range(1, 13):
        for z in (UnitVector.standard(n), UnitVector.uniform(n), random_unit(rng, n)):
            values = _letter_values(z.z.tolist())
            for _ in range(10):
                terms = {random_monomial(rng, n, max_len=4).key: complex(*rng.normal(size=2))
                         for _ in range(rng.integers(1, 6))}
                terms[(), ()] = complex(*rng.normal(size=2))
                x = AlgebraElement(n, terms)
                want = 0j
                for (key,), c in x.block(n).items():
                    want += _word_value(values, key, complex(c))
                got = gp_eval(z, x)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_state_product_records_fail_with_transposed_split_columns(monkeypatch):
    from cuntzr import states
    from cuntzr.cli import ScenarioSpec, _run_state_product

    # each letter w of O_{nm} split in the transposed radix: left digit
    # (w-1) % n + 1, right digit (w-1) // n + 1, both still in range
    def transposed(form, block, words):
        n, _ = block
        words = np.asarray(words) - 1
        return words % n + 1, words // n + 1

    rng = np.random.default_rng(17)
    spec = ScenarioSpec(kind="state-product", omega1=GPState(random_unit(rng, 2)),
                        omega2=GPState(random_unit(rng, 3)), max_len=3, samples=100)
    record = _run_state_product(spec).checks[0]
    assert record.passed
    monkeypatch.setattr(states, "split_words", transposed)
    record = _run_state_product(spec).checks[0]
    assert record.name == "product-matches-interleaved-state"
    assert not record.passed and record.residual > 0.01


def test_star_sets_up_its_factor_values_once(monkeypatch):
    from cuntzr import states

    calls = []
    real = states._letter_vector

    def count(functional):
        calls.append(functional)
        return real(functional)

    monkeypatch.setattr(states, "_letter_vector", count)
    rng = np.random.default_rng(9)
    omega, psi = GPState(random_unit(rng, 2)), GPState(random_unit(rng, 3))
    prod = star(omega, psi)
    assert calls == [omega, psi]
    xs = [AlgebraElement.monomial(random_monomial(rng, 6)) for _ in range(20)]
    values = [prod(x) for x in xs]
    assert calls == [omega, psi]
    assert values == [prod(x) for x in xs]
    # a nested composite reads its factors' letter values once, when it is
    # built, and is read once itself by the composite it is a factor of
    calls.clear()
    chi = GPState(random_unit(rng, 2))
    outer = star(prod, chi)
    assert calls == [prod, chi]
    outer(AlgebraElement.monomial(random_monomial(rng, 12)))
    assert calls == [prod, chi]


def test_a_nan_coefficient_reaches_the_state_value():
    x = AlgebraElement(2, {((1,), ()): float("nan")})
    assert np.isnan(GPState.uniform(2)(x))
    assert np.isnan(star(GPState.uniform(2), GPState.uniform(3))(
        AlgebraElement(6, {((4,), ()): float("nan")})
    ))


def test_star_is_associative_on_values():
    rng = np.random.default_rng(4)
    a, b, c = (GPState(random_unit(rng, n)) for n in (2, 2, 3))
    left = star(star(a, b), c)
    right = star(a, star(b, c))
    # both nestings are the state of the interleaved vector
    closed = GPState(np.kron(np.kron(a.z.z, b.z.z), c.z.z))
    for _ in range(25):
        x = AlgebraElement.monomial(random_monomial(rng, 12, max_len=2))
        assert abs(left(x) - right(x)) <= 1e-12
        assert abs(left(x) - closed(x)) <= algebra.EQ_TOL
        assert abs(right(x) - closed(x)) <= algebra.EQ_TOL


def test_star_takes_states_and_composites_only():
    rho = GPState.uniform(2)
    with pytest.raises(TypeError):
        star(rho, rho.z)
    with pytest.raises(TypeError):
        star(lambda x: 1.0, rho)
    with pytest.raises(TypeError):
        star(star(rho, rho), gp_eval)


def test_an_o1_leg_contributes_the_unit_value():
    # the words of O_1 collapse to the unit, so the scalar factor gives 1 on
    # every word pair; C^1 admits the component 1 alone, not another phase
    rng = np.random.default_rng(15)
    rho = GPState(random_unit(rng, 3))
    scalar = GPState.standard(1)
    for prod in (star(rho, scalar), star(scalar, rho)):
        for _ in range(20):
            x = AlgebraElement.monomial(random_monomial(rng, 3))
            assert prod(x) == rho(x)
    for phase in (1j, -1.0, np.exp(1e-6j)):
        with pytest.raises(ValueError, match="unit vector of C\\^1"):
            GPState([phase])


def test_a_transposed_digit_table_breaks_the_product_state(altered_tables):
    from cuntzr.cli import ScenarioSpec, _run_state_product

    match = "product-matches-interleaved-state"

    # letter w of O_n read in the transposed radix under every divisor pair
    # (m, l): left digit (w-1) % m + 1, right digit (w-1) // m + 1
    def transposed(n):
        pairs = coproduct._divisor_pairs(n)
        table = np.zeros((n + 1, 2 * len(pairs)), dtype=np.intp)
        letters = np.arange(n)
        for k, (m, _) in enumerate(pairs):
            table[1:, 2 * k] = letters % m + 1
            table[1:, 2 * k + 1] = letters // m + 1
        return table[:, 1:-1]

    rng = np.random.default_rng(16)
    x, y = random_unit(rng, 2), random_unit(rng, 3)
    boxed = boxtimes(x, y)
    gens = [AlgebraElement.monomial(CuntzMonomial.generator(6, w)) for w in range(1, 7)]
    prod = star(GPState(x), GPState(y))
    assert all(abs(prod(g) - gp_eval(boxed, g)) <= 1e-15 for g in gens)
    spec = ScenarioSpec(kind="state-product", omega1=GPState(x), omega2=GPState(y), samples=50)

    def matches():
        (check,) = (c for c in _run_state_product(spec).checks if c.name == match)
        return check.passed

    assert matches()
    altered_tables.digits(transposed)
    prod = star(GPState(x), GPState(y))
    assert max(abs(prod(g) - gp_eval(boxed, g)) for g in gens) > 0.01
    assert not matches()


def test_a_monomial_element_has_the_terms_of_the_general_constructor():
    mono = CuntzMonomial(4, (1, 3), (2,))
    for coeff in (1.0, 0, 0.0, -0.0, 0j, float("nan"), complex(0.5, -2.0), 3, np.complex128(1j)):
        got = AlgebraElement.monomial(mono, coeff)
        want = AlgebraElement(4, {mono.key: coeff})
        # a nonzero coefficient carries the index; the zero element has none
        assert got.blocks.keys() == want.blocks.keys() == ({(4,)} if coeff != 0 else set())
        assert repr(got.blocks) == repr(want.blocks)
    assert AlgebraElement.monomial(mono).blocks == {(4,): {(mono.key,): 1 + 0j}}
    assert AlgebraElement.monomial(mono, 0).is_zero


def test_boxtimes_standard_vectors():
    out = boxtimes(UnitVector([1, 0]), UnitVector([1, 0, 0]))
    assert np.array_equal(out.z, np.eye(6, dtype=complex)[0])


def test_boxtimes_uniform_vectors():
    out = boxtimes(UnitVector.uniform(2), UnitVector.uniform(3))
    assert np.allclose(out.z, np.full(6, 1 / np.sqrt(6)), atol=1e-15)


def test_boxtimes_scalar_leg():
    rng = np.random.default_rng(5)
    z = random_unit(rng, 4)
    assert boxtimes(z, UnitVector([1.0])) == z
    assert boxtimes(UnitVector([1.0]), z) == z


def test_boxtimes_associative():
    rng = np.random.default_rng(6)
    z, y, w = (random_unit(rng, n) for n in (2, 3, 2))
    left = boxtimes(boxtimes(z, y), w)
    right = boxtimes(z, boxtimes(y, w))
    assert np.max(np.abs(left.z - right.z)) <= 1e-15
    e = (UnitVector.standard(2), UnitVector.standard(3), UnitVector.standard(2))
    assert boxtimes(boxtimes(e[0], e[1]), e[2]) == boxtimes(e[0], boxtimes(e[1], e[2]))


def test_interleavings_equal_np_kron_bit_for_bit():
    rng = np.random.default_rng(20)
    for n, m in ((1, 3), (2, 3), (3, 2), (4, 5), (6, 1)):
        z, y = random_unit(rng, n), random_unit(rng, m)
        assert np.array_equal(boxtimes(z, y).z, np.kron(z.z, y.z))
        gap = np.max(np.abs(np.kron(z.z, y.z) - np.kron(y.z, z.z)))
        assert interleaving_gap(GPState(z), GPState(y)) == float(gap)


# ---------------------------------------------------------------------------
# commutation


def test_standard_states_commute():
    ok, witness = commutes(GPState.standard(2), GPState.standard(3))
    assert ok and witness is None


def test_flipped_pair_does_not_commute():
    ok, witness = commutes(GPState(UnitVector([1, 0])), GPState(UnitVector([0, 1])))
    assert not ok
    assert witness.label() == "n=4;u=2;v="


def test_uniform_states_commute():
    ok, _ = commutes(GPState.uniform(2), GPState.uniform(3))
    assert ok


def test_commutes_symmetric_and_reflexive():
    rng = np.random.default_rng(7)
    states = [GPState(random_unit(rng, 2)) for _ in range(3)]
    states += [GPState.uniform(3), GPState.standard(2)]
    for a in states:
        assert commutes(a, a)[0]
        for b in states:
            assert commutes(a, b)[0] == commutes(b, a)[0]


def test_witness_values_differ():
    omega = GPState(UnitVector([1, 0]))
    psi = GPState(UnitVector([0, 1]))
    ok, witness = commutes(omega, psi)
    assert not ok
    x = AlgebraElement.monomial(witness)
    assert abs(star(omega, psi)(x) - star(psi, omega)(x)) > 1e-12


def _scan_witness(omega, psi, tol=algebra.EQ_TOL):
    """The first monomial of total length <= 2, in the scan order of
    ``iter_monomials``, whose two product values differ by more than tol."""
    for mono in iter_monomials(omega.n * psi.n, 2):
        if star_gap(omega, psi, mono) > tol:
            return mono
    return None


def test_commutes_names_the_witness_the_scan_finds():
    # the closed-form witness against the scan over word pairs: random
    # pairs, and kron pairs (x, x [*] x) moved by about the tolerance
    rng = np.random.default_rng(2009)
    pairs = [
        (GPState(random_unit(rng, n)), GPState(random_unit(rng, m)))
        for n, m in rng.integers(1, 6, size=(60, 2))
    ]
    for n in rng.integers(1, 5, size=60):
        x = random_unit(rng, n).z
        y = np.kron(x, x)
        y[rng.integers(len(y))] += rng.uniform(0.3, 3.0) * 1e-12 * np.exp(2j * np.pi * rng.random())
        y /= np.linalg.norm(y)
        if n == 1 and abs(y[0] - 1) > algebra.EQ_TOL:
            # C^1 admits only a component within EQ_TOL of 1
            with pytest.raises(ValueError, match="C\\^1"):
                GPState(y)
            continue
        pairs.append((GPState(x), GPState(y)))
    verdicts = []
    for omega, psi in pairs:
        ok, witness = commutes(omega, psi)
        verdicts.append(ok)
        N = omega.n * psi.n
        if ok:
            assert witness is None
            assert all(
                star_gap(omega, psi, CuntzMonomial.generator(N, w)) <= algebra.EQ_TOL
                for w in range(1, N + 1)
            )
        else:
            assert witness.label() == _scan_witness(omega, psi).label()
    # both verdicts among the pairs near the tolerance
    assert set(verdicts[60:]) == {True, False}


# ---------------------------------------------------------------------------
# twists


def test_twist_by_flip_gives_second_basis_vector():
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    out = twist_state(UnitVector([1, 0]), flip)
    assert out == GPState(UnitVector([0, 1]))


def test_twist_by_identity_is_identity():
    rng = np.random.default_rng(8)
    z = random_unit(rng, 3)
    assert twist_state(z, np.eye(3)) == GPState(z)


def test_twist_matches_direct_substitution():
    rng = np.random.default_rng(9)
    for n in (2, 3):
        z = random_unit(rng, n)
        U = random_unitary(rng, n)
        twisted = twist_state(z, U)
        for _ in range(25):
            x = AlgebraElement.monomial(random_monomial(rng, n, max_len=2))
            direct = gp_eval(z, substitute_generators(x, U))
            assert abs(twisted(x) - direct) <= 1e-11


def test_twist_rejects_non_unitary():
    # the second is a rotation with one entry off by 1e-11, above EQ_TOL
    off = np.array([[0.6, -0.8], [0.8, 0.6 + 1e-11]], dtype=complex)
    for matrix in (np.array([[1, 1], [0, 1]], dtype=complex), off):
        with pytest.raises(NotUnitary):
            twist_state(UnitVector([1, 0]), matrix)


# ---------------------------------------------------------------------------
# vectors and JSON forms


def test_unit_vector_norm_is_a_pairwise_sum():
    # a BLAS norm of the uniform vector of C^5000000 reads 1 + 6.1e-12,
    # past EQ_TOL; a pairwise sum of squares reads within 1.1e-16 of 1
    n = 5_000_000
    assert UnitVector.uniform(n).n == n
    with pytest.raises(ValueError, match="not a unit vector"):
        UnitVector(np.full(n, (1 + 1e-9) / np.sqrt(n)))


def test_unit_vector_rejects_non_unit():
    # a NaN norm compares false against the bound, so it must fail the check
    for components in ([1.0, 1.0], [float("nan"), 0.0]):
        with pytest.raises(ValueError, match="not a unit vector"):
            UnitVector(components)


def test_basis_vector_index_is_checked():
    assert UnitVector.basis(3, 3) == UnitVector([0, 0, 1])
    # k = 0 used to index from the back and return e_n
    for n, k in ((2, 0), (2, 3), (2, -1), (0, 1)):
        with pytest.raises(ValueError, match="1 <= k <= n"):
            UnitVector.basis(n, k)
    with pytest.raises(ValueError, match="n >= 1"):
        UnitVector.uniform(0)


def test_basis_and_uniform_read_their_integers_through_the_index_rule():
    # basis(2, True) returned e_1, basis(2, 1.0) raised IndexError and
    # uniform(2.5) or uniform(True) numpy's TypeError
    for n, k in ((2, True), (2, 1.0), (2, "1"), (2.0, 1), (True, 1)):
        with pytest.raises(ValueError, match="is not an integer"):
            UnitVector.basis(n, k)
    for n in (2.5, True, "2"):
        with pytest.raises(ValueError, match="is not an integer"):
            UnitVector.uniform(n)
    assert UnitVector.basis(np.int64(3), np.int32(2)) == UnitVector([0, 1, 0])
    assert UnitVector.uniform(np.int64(4)) == UnitVector.uniform(4)


def test_scalar_state_is_trivial():
    rho = GPState.standard(1)
    assert rho(AlgebraElement(1, {((), ()): 2.5})) == 2.5


def test_state_json_round_trip():
    rng = np.random.default_rng(10)
    z = random_unit(rng, 3)
    state = GPState(z)
    again = state_from_json(state.to_json())
    assert again == state


def test_state_json_shortcuts():
    assert state_from_json({"standard": 4}) == GPState.standard(4)
    assert state_from_json({"uniform": 3}) == GPState.uniform(3)
    with pytest.raises(ValueError):
        state_from_json({"z": [[1, 0]]})
    with pytest.raises(ValueError):
        state_from_json({"n": 2, "z": [[1, 0]]})


def test_state_json_reads_its_integers_through_the_index_rule():
    for obj, name in (
        ({"standard": 2.9}, '"standard" 2.9'),
        ({"standard": "2"}, """"standard" '2'"""),
        ({"uniform": True}, '"uniform" True'),
        ({"n": 2.5, "z": [[1, 0], [0, 0]]}, '"n" 2.5'),
    ):
        with pytest.raises(ValueError, match=re.escape(f"state JSON {name} is not an integer")):
            state_from_json(obj)
    assert state_from_json({"uniform": np.int64(3)}) == GPState.uniform(3)


def test_iter_monomials_scan_finds_creation_witness_first():
    # the scan order puts pure creation words before mixed pairs
    scan = list(iter_monomials(4, 1))
    labels = [m.label() for m in scan]
    assert labels.index("n=4;u=2;v=") < labels.index("n=4;u=;v=2")
