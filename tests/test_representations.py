import numpy as np
import pytest

from cuntzr.algebra import EQ_TOL, AlgebraElement, CuntzMonomial, as_element
from cuntzr.coproduct import TensorElement, delta, delta_op, f_r
from cuntzr.representations import (
    GPRepresentation,
    act_dense,
    complete_unitary,
    from_dense,
    lambda2,
    lambda3,
    to_dense,
)
from cuntzr.errors import OutOfDomain, SpanTooLarge
from cuntzr.rmatrix import verify_symmetry
from cuntzr.states import GPState, UnitVector, gp_eval
from gram_oracle import span_basis, vec_dist


def random_unit(rng, n):
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return UnitVector(z / np.linalg.norm(z))


def random_monomial(rng, n, max_len=3):
    u = tuple(int(x) for x in rng.integers(1, n + 1, size=rng.integers(0, max_len + 1)))
    v = tuple(int(x) for x in rng.integers(1, n + 1, size=rng.integers(0, max_len + 1)))
    return CuntzMonomial(n, u, v)


def act_legs(reps, t, vec):
    """act_dense on a dict vector with index-tuple keys, image as a dict."""
    dims = [max(key[k] for key in vec) for k in range(len(reps))]
    return from_dense(act_dense(reps, t, to_dense(vec, dims)))


def act(rep, x, vec):
    """act_dense of an element of O_n on a dict vector {k: amplitude}."""
    t = TensorElement.from_element(as_element(x, rep.n))
    return {k: a for (k,), a in act_legs((rep,), t, {(k,): a for k, a in vec.items()}).items()}


def gns_lambda(rep, x):
    """The image pi(x) e_1, as a dict."""
    return act(rep, x, {1: 1.0})


def random_vec(rng, span=12, terms=4):
    out = {}
    for _ in range(terms):
        k = int(rng.integers(1, span + 1))
        out[k] = out.get(k, 0j) + complex(rng.normal(), rng.normal())
    return out


# ---------------------------------------------------------------------------
# the permutative action


def test_creation_on_cyclic_vector():
    rep = GPRepresentation.standard(2)
    assert act(rep, CuntzMonomial.generator(2, 1), {1: 1.0}) == {1: 1 + 0j}
    assert act(rep, CuntzMonomial.generator(2, 2), {1: 1.0}) == {2: 1 + 0j}


def test_creation_shifts_index():
    rep = GPRepresentation.standard(2)
    assert act(rep, CuntzMonomial.generator(2, 2), {3: 1.0}) == {6: 1 + 0j}


def test_annihilation_inverts_index_map():
    rep = GPRepresentation.standard(3)
    out = act(rep, CuntzMonomial(3, (), (2,)), {5: 1.0})
    assert out == {2: 1 + 0j}


def test_annihilation_off_residue_vanishes():
    rep = GPRepresentation.standard(3)
    assert act(rep, CuntzMonomial(3, (), (1,)), {5: 1.0}) == {}


def test_isometry_relations_on_random_vectors():
    rng = np.random.default_rng(0)
    reps = [
        GPRepresentation.standard(3),
        GPRepresentation.for_state(random_unit(rng, 3)),
    ]
    for rep in reps:
        for _ in range(10):
            vec = random_vec(rng)
            for i in range(1, 4):
                for j in range(1, 4):
                    m = CuntzMonomial(3, (), (i,))
                    c = CuntzMonomial(3, (j,), ())
                    out = act(rep, m, act(rep, c, vec))
                    expected = vec if i == j else {}
                    assert vec_dist(out, expected) <= 1e-12


def test_range_projections_sum_to_identity():
    for rep in (
        GPRepresentation.standard(2),
        GPRepresentation.for_state(UnitVector.uniform(2)),
    ):
        x = AlgebraElement.zero(2)
        for i in range(1, 3):
            x = x + AlgebraElement(2, {((i,), (i,)): 1.0})
        for k in range(1, 101):
            out = act(rep, x, {k: 1.0})
            assert vec_dist(out, {k: 1.0}) <= 1e-12


# ---------------------------------------------------------------------------
# twisted realizations


def test_complete_unitary_first_row_and_unitarity():
    rng = np.random.default_rng(1)
    vectors = [random_unit(rng, n).z for n in (2, 3, 5)]
    for n in (2, 3, 5):
        z = random_unit(rng, n).z
        # the sign rule meets z_1 = 0 and |z_1| near 1e-12 without cancelling
        for first in (0.0, 1e-12 * z[0] / abs(z[0])):
            w = z.copy()
            w[0] = first
            vectors.append(w / np.linalg.norm(w))
    for z in vectors:
        U = complete_unitary(z)
        assert np.array_equal(U[0], z.conj())
        assert np.max(np.abs(U @ U.conj().T - np.eye(z.size))) <= 1e-12
    for n in (2, 3, 5):
        for k in range(1, n + 1):
            z = UnitVector.basis(n, k).z
            U = complete_unitary(z)
            assert np.array_equal(U[0], z.conj())
            assert set(U.real.ravel().tolist()) <= {-1.0, 0.0, 1.0} and not U.imag.any()
            assert np.array_equal(U @ U.conj().T, np.eye(n))


def test_complete_unitary_with_a_subnormal_first_entry():
    # 1/|z_1| overflows for these z_1, and the twist once came out NaN
    for z in (np.array([2.225073858507203e-309j, 1j]), np.array([5e-324, 1.0])):
        U = complete_unitary(z)
        assert np.isfinite(U).all()
        assert np.array_equal(U[0], z.conj())
        assert np.max(np.abs(U @ U.conj().T - np.eye(2))) <= EQ_TOL
        X = GPState(z)
        assert verify_symmetry(X, X, 1).max_residual <= EQ_TOL


def test_standard_vector_gives_identity_twist():
    rep = GPRepresentation.for_state(UnitVector.standard(4))
    assert rep.is_standard


def test_vector_state_reproduces_the_state():
    rng = np.random.default_rng(2)
    for n in (2, 3):
        z = random_unit(rng, n)
        rep = GPRepresentation.for_state(z)
        assert rep.state() == GPState(z)
        for _ in range(25):
            x = AlgebraElement.monomial(random_monomial(rng, n, max_len=2))
            out = act(rep, x, {1: 1.0})
            val = out.get(1, 0j)
            assert abs(val - gp_eval(z, x)) <= 1e-11


def test_adjoint_generator_scales_cyclic_vector():
    rng = np.random.default_rng(3)
    z = random_unit(rng, 3)
    rep = GPRepresentation.for_state(z)
    for j in range(1, 4):
        out = act(rep, CuntzMonomial(3, (), (j,)), {1: 1.0})
        assert vec_dist(out, {1: complex(z.z[j - 1])}) <= 1e-12


def test_twist_completion_independence():
    # two unitary completions of the same first row induce the same
    # observable values at the cyclic vector
    rng = np.random.default_rng(4)
    z = random_unit(rng, 3)
    U1 = complete_unitary(z.z)
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    U2 = U1.copy()
    U2[1:] = q @ U1[1:]
    rep1 = GPRepresentation(3, U1)
    rep2 = GPRepresentation(3, U2)
    for _ in range(25):
        x = AlgebraElement.monomial(random_monomial(rng, 3, max_len=2))
        v1 = act(rep1, x, {1: 1.0}).get(1, 0j)
        v2 = act(rep2, x, {1: 1.0}).get(1, 0j)
        assert abs(v1 - v2) <= 1e-11


# ---------------------------------------------------------------------------
# the vector map


def test_lambda_of_generator():
    rep = GPRepresentation.standard(2)
    assert gns_lambda(rep, CuntzMonomial.generator(2, 2)) == {2: 1 + 0j}


def test_lambda_of_unit_is_cyclic_vector():
    rep = GPRepresentation.standard(5)
    assert gns_lambda(rep, CuntzMonomial.unit(5)) == {1: 1 + 0j}


def test_lambda_inner_products_reproduce_the_state():
    rng = np.random.default_rng(5)
    for rep, z in (
        (GPRepresentation.standard(2), UnitVector.standard(2)),
        (GPRepresentation.for_state(UnitVector.uniform(2)), UnitVector.uniform(2)),
    ):
        for _ in range(50):
            x = AlgebraElement.monomial(random_monomial(rng, 2, max_len=2))
            y = AlgebraElement.monomial(random_monomial(rng, 2, max_len=2))
            a, b = gns_lambda(rep, x), gns_lambda(rep, y)
            lhs = sum(v.conjugate() * b.get(k, 0) for k, v in a.items())
            rhs = gp_eval(z, x.adjoint() * y)
            assert abs(lhs - rhs) <= 1e-11


# ---------------------------------------------------------------------------
# tensor legs


def test_lambda2_of_coproduct_image():
    rep2 = GPRepresentation.standard(2)
    rep3 = GPRepresentation.standard(3)
    out = lambda2(rep2, rep3, delta(CuntzMonomial.generator(6, 3)))
    assert out == {(1, 3): 1 + 0j}


def test_lambda2_of_unit():
    rep2 = GPRepresentation.standard(2)
    rep3 = GPRepresentation.standard(3)
    out = lambda2(rep2, rep3, delta(CuntzMonomial.unit(6)))
    assert out == {(1, 1): 1 + 0j}


def test_lambda2_of_opposite_coproduct_image():
    rep2 = GPRepresentation.standard(2)
    rep3 = GPRepresentation.standard(3)
    out = lambda2(rep2, rep3, delta_op(CuntzMonomial.generator(6, 3)))
    assert out == {(1, 2): 1 + 0j}


def test_lambda2_projects_other_blocks_away():
    rep2 = GPRepresentation.standard(2)
    rep3 = GPRepresentation.standard(3)
    # an element of O_2 never reaches the (2, 3) block
    out = lambda2(rep2, rep3, delta(CuntzMonomial.generator(2, 1)))
    assert out == {}


def _termwise(reps, t, vec):
    # oracle: each tensor term s_a (x) s_b (x) s_c acts as the product of the
    # one-leg actions on each basis tuple of the vector
    want = {}
    for (ka, kb, kc), c in t.block(*(rep.n for rep in reps)).items():
        for (i, j, k), amp in vec.items():
            fa = act(reps[0], CuntzMonomial(reps[0].n, *ka), {i: 1.0})
            fb = act(reps[1], CuntzMonomial(reps[1].n, *kb), {j: 1.0})
            fc = act(reps[2], CuntzMonomial(reps[2].n, *kc), {k: 1.0})
            for qa, a in fa.items():
                for qb, b in fb.items():
                    for qc, d in fc.items():
                        key = (qa, qb, qc)
                        want[key] = want.get(key, 0j) + c * amp * a * b * d
    return want


def test_legwise_action_matches_the_termwise_product():
    rng = np.random.default_rng(17)
    t = f_r(CuntzMonomial(12, (7, 2), (5,)))
    vec = {(1, 2, 1): 0.5 + 0.5j, (1, 3, 2): -1.0, (2, 2, 1): 0.25j, (1, 2, 2): 2.0}
    # twisted legs: the legwise and termwise sums round differently
    reps = [GPRepresentation.for_state(random_unit(rng, n)) for n in (2, 3, 2)]
    got, want = act_legs(reps, t, vec), _termwise(reps, t, vec)
    assert len(want) > 10
    assert max(abs(got.get(k, 0j) - want.get(k, 0j)) for k in got.keys() | want.keys()) <= 1e-15
    assert lambda3(*reps, t) == act_legs(reps, t, {(1, 1, 1): 1.0})
    with pytest.raises(TypeError):
        lambda2(reps[0], reps[1], t)
    # standard legs multiply by 0 and 1 only: exactly equal
    reps = [GPRepresentation.standard(n) for n in (2, 3, 2)]
    vec = {(i, j, k): complex(rng.normal(), rng.normal())
           for i in (1, 2) for j in (1, 2, 3) for k in (1, 2)}
    got, want = act_legs(reps, t, vec), _termwise(reps, t, vec)
    assert want
    assert got == {k: w for k, w in want.items() if w != 0}


def test_dict_interface_preflights_the_grown_array(monkeypatch):
    # 6 working copies of 16 bytes per entry: a 3-letter word on e_1 (x) e_1
    # needs 2^3 entries (768 bytes), a 4-letter word 2^4 (1536 bytes)
    import resource

    monkeypatch.setattr(resource, "getrlimit", lambda which: (1000, 1000))
    rep = GPRepresentation.standard(2)

    def word(u):
        return TensorElement({(2, 2): {((u, ()), ((), ())): 1.0}})

    assert lambda2(rep, rep, word((2, 2, 2))) == {(8, 1): 1 + 0j}
    with pytest.raises(SpanTooLarge):
        lambda2(rep, rep, word((2, 2, 2, 2)))


def test_preflight_without_an_address_space_limit_uses_available_memory(monkeypatch):
    import resource

    from cuntzr import representations

    gib = 2**30
    entries = 2 * gib // (6 * 16)  # a 2 GiB estimate at 6 copies of 16 bytes
    monkeypatch.setattr(representations, "_available_memory", lambda: gib)
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    with pytest.raises(SpanTooLarge) as err:
        representations.preflight(entries, "a 2 GiB request")
    assert err.value.limit == gib
    representations.preflight(entries // 4, "a 512 MiB request")
    # a set RLIMIT_AS stays the bound, above or below the available memory
    monkeypatch.setattr(resource, "getrlimit", lambda which: (3 * gib, 3 * gib))
    representations.preflight(entries, "a 2 GiB request")
    monkeypatch.setattr(resource, "getrlimit", lambda which: (gib // 2, gib // 2))
    with pytest.raises(SpanTooLarge) as err:
        representations.preflight(entries // 2, "a 1 GiB request")
    assert err.value.limit == gib // 2


def test_available_memory_falls_back_to_the_physical_memory(monkeypatch):
    import os

    from cuntzr import representations

    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert 0 < representations._available_memory() <= physical

    def unreadable(*args, **kwargs):
        raise OSError("no meminfo")

    monkeypatch.setattr(representations, "open", unreadable, raising=False)
    assert representations._available_memory() == physical


# ---------------------------------------------------------------------------
# span bases of the Gram oracle


def test_span_rank_standard_pair_depth_one():
    sb = span_basis(GPState.standard(2), GPState.standard(3), 1)
    assert sb.rank == 6
    reachable = {k for vec in sb.vectors for k in vec}
    assert reachable == {(i, j) for i in (1, 2) for j in (1, 2, 3)}


def test_span_rank_growth():
    for n, m in ((2, 3), (2, 5)):
        for builder in (GPState.standard, GPState.uniform):
            omega1, omega2 = builder(n), builder(m)
            for depth in (0, 1, 2):
                sb = span_basis(omega1, omega2, depth)
                assert sb.rank == (n * m) ** depth


def test_span_gram_is_positive_semidefinite():
    sb = span_basis(GPState.uniform(2), GPState.uniform(3), 2)
    eigs = np.linalg.eigvalsh(sb.gram)
    assert eigs.min() >= -1e-10


def test_span_coordinates_round_trip():
    sb = span_basis(GPState.uniform(2), GPState.uniform(3), 1)
    for vec in sb.vectors:
        y, residual = sb.coordinates_of(vec)
        assert residual <= 1e-12
        assert vec_dist(sb.from_coordinates(y), vec) <= 1e-12


def test_span_detects_foreign_vectors():
    sb = span_basis(GPState.standard(2), GPState.standard(3), 1)
    y, residual = sb.coordinates_of({(1, 7): 1.0})
    assert residual == pytest.approx(1.0)
    assert np.max(np.abs(y)) <= 1e-12


# ---------------------------------------------------------------------------
# distances and dense forms


def test_vec_dist_keeps_entries_below_the_amplitude_cutoff():
    # 10^4 differences of 9e-14 each: every one is below the 1e-13 cutoff
    # that prunes vector sums, yet together they are a distance of 9e-12
    a = {k: 1 for k in range(10**4)}
    b = {k: 1 + 9e-14j for k in range(10**4)}
    assert abs(vec_dist(a, b) - 9e-12) <= 9e-18
    assert vec_dist(a, dict(a)) == 0.0


def test_dense_round_trip_and_block_bounds():
    vec = {(1, 3): 0.5j, (2, 1): 1.0 + 0j}
    arr = to_dense(vec, (2, 3))
    assert arr[0, 2] == 0.5j and arr[1, 0] == 1.0
    assert from_dense(arr) == vec
    assert from_dense(to_dense({(1, 1, 2): 2.0}, (1, 1, 2))) == {(1, 1, 2): 2 + 0j}
    for key in ((3, 1), (1, 4), (0, 1)):
        with pytest.raises(OutOfDomain):
            to_dense({key: 1.0}, (2, 3))


# ---------------------------------------------------------------------------
# report literal forms


def test_vector_literal_forms():
    from cuntzr.representations import pair_to_list

    arr = to_dense({(2, 2): 1.0 + 0j, (1, 3): 1.5 - 0.5j}, (2, 3))
    assert pair_to_list(arr) == [[1, 3, 1.5, -0.5], [2, 2, 1.0, 0.0]]


def test_complete_unitary_stays_unitary_near_a_basis_vector():
    # z lies within 0.011 of -e_1, so projecting e_1 off z leaves a small
    # residual that a completion must not divide by; the reflection vector
    # has first entry ~-2 here, and its squared norm ~4 is the only divisor
    z = np.array([-0.9999389685688129, 0.007812023191943851j,
                  0.007812023191943851j, 6.1031431187061336e-05])
    U = complete_unitary(z / np.linalg.norm(z))
    assert np.max(np.abs(U @ U.conj().T - np.eye(4))) <= 1e-14
