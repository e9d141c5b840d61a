import numpy as np
import pytest

from cuntzr import algebra
from cuntzr.algebra import AlgebraElement, CuntzMonomial, iter_monomials, substitute_generators
from cuntzr.coproduct import phi
from cuntzr.errors import MismatchedAlgebra, NotUnitary
from cuntzr.states import (
    GPState,
    UnitVector,
    boxtimes,
    commutes,
    gp_eval,
    star,
    state_from_json,
    twist_state,
)


def random_unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return UnitVector(z / np.linalg.norm(z))


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
    built = []
    real_init = algebra.AlgebraElement.__init__

    def init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(algebra.AlgebraElement, "__init__", init)
    got = [star(omega, psi)(x) for omega, psi, x in cases]
    assert not built  # no per-term algebra elements
    assert [(v.real, v.imag) for v in got] == [(v.real, v.imag) for v in want]


def test_star_is_associative_on_values():
    rng = np.random.default_rng(4)
    a, b, c = (GPState(random_unit(rng, n)) for n in (2, 2, 3))
    left = star(star(a, b), c)
    right = star(a, star(b, c))
    for _ in range(25):
        x = AlgebraElement.monomial(random_monomial(rng, 12, max_len=2))
        assert abs(left(x) - right(x)) <= 1e-12


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
    with pytest.raises(NotUnitary):
        twist_state(UnitVector([1, 0]), np.array([[1, 1], [0, 1]], dtype=complex))


# ---------------------------------------------------------------------------
# vectors and JSON forms


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


def test_iter_monomials_scan_finds_creation_witness_first():
    # the scan order puts pure creation words before mixed pairs
    scan = list(iter_monomials(4, 1))
    labels = [m.label() for m in scan]
    assert labels.index("n=4;u=2;v=") < labels.index("n=4;u=;v=2")
