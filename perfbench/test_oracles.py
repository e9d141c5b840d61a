"""Tests of the benchmark's own oracles, each with a negative control.

    PYTHONPATH=src python3 -m pytest -q perfbench

A check that cannot fail shows nothing, so every oracle is also fed a
perturbed vector, a wrong permutation or a swapped Kronecker order and must
flag it. A few tests compare an oracle with the program at this version as
a second computation; the benchmark itself never does.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracles as orc  # noqa: E402

TOL = orc.DIST_TOL


def twist(rng, z):
    """A unitary with first row conj(z): QR of a matrix with that first row."""
    n = len(z)
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    M[:, 0] = z
    Q, R = np.linalg.qr(M)
    Q[:, 0] *= R[0, 0]  # |R[0, 0]| = 1, so Q stays unitary with column 0 = z
    return Q.conj().T


def permutation_apply(n, m, depth, a2=None, b2=None):
    """Apply a basis-pair permutation given as index arrays to a dense array."""
    if a2 is None:
        a2, b2 = orc.zip_permutation(n, m, depth)

    def apply(arr):
        out = np.zeros_like(arr)
        np.add.at(out, (a2, b2), arr)
        return out

    return apply


def test_twist_helper_has_first_row_conj_z():
    rng = np.random.default_rng(1)
    z = orc.random_unit(rng, 3)
    U = twist(rng, z)
    assert orc.twist_ok(U, z)
    assert not orc.twist_ok(U, orc.random_unit(rng, 3))
    assert not orc.twist_ok(1.01 * U, z)


def test_leg_image_standard_index():
    # the first letter is the least significant base-n digit (0-based)
    v = orc.leg_image(np.eye(3), (2, 3, 1), 3)
    assert np.flatnonzero(v).tolist() == [(2 - 1) + (3 - 1) * 3 + (1 - 1) * 9]
    assert v.sum() == 1


def test_leg_images_of_one_length_are_orthonormal():
    rng = np.random.default_rng(2)
    U = twist(rng, orc.random_unit(rng, 2))
    words = [w for w in orc.creation_words(2, 3) if len(w) == 3]
    A = np.array([orc.leg_image(U, w, 3) for w in words]).T
    assert orc.dist(A.conj().T @ A, np.eye(len(words))) <= TOL
    A[0, 0] += 1e-6  # perturbed vector
    assert orc.dist(A.conj().T @ A, np.eye(len(words))) > TOL


def test_images_match_the_program():
    cuntzr = pytest.importorskip("cuntzr")
    rng = np.random.default_rng(3)
    x = orc.random_unit(rng, 2)
    a, b = cuntzr.GPState(x), cuntzr.GPState(np.kron(x, x))
    U1 = cuntzr.GPRepresentation.for_state(a).U
    U2 = cuntzr.GPRepresentation.for_state(b).U
    shape = (2**2, 4**2)
    for word in [(), (3,), (8, 1), (5, 6)]:
        mono = cuntzr.CuntzMonomial(8, word, ())
        rep1 = cuntzr.GPRepresentation.for_state(a)
        rep2 = cuntzr.GPRepresentation.for_state(b)
        got = orc.pair_dense(cuntzr.lambda2(rep1, rep2, cuntzr.delta(mono)), shape)
        assert orc.dist(got, orc.word_image((U1, U2), word, 2)) <= TOL
        got = orc.pair_dense(cuntzr.lambda2(rep1, rep2, cuntzr.delta_op(mono)), shape)
        assert orc.dist(got, orc.word_image((U1, U2), word, 2, opposite=True)) <= TOL


def test_zip_permutation_is_the_relation_on_standard_states():
    n, m, d = 2, 3, 2
    a2, b2 = orc.zip_permutation(n, m, d)
    assert sorted(zip(a2.ravel(), b2.ravel())) == [
        (i, j) for i in range(n**d) for j in range(m**d)
    ]
    apply = permutation_apply(n, m, d)
    res, top = orc.relation_residual(apply, np.eye(n), np.eye(m), d)
    assert res <= TOL
    assert top.shape == (n**d * m**d, (n * m) ** d)


def test_zip_permutation_matches_the_program():
    cuntzr = pytest.importorskip("cuntzr")
    a2, b2 = orc.zip_permutation(2, 3, 3)
    for (i, j), _ in np.ndenumerate(a2):
        want = cuntzr.swap_index_pair(2, 3, i + 1, j + 1, 3)
        assert (int(a2[i, j]) + 1, int(b2[i, j]) + 1) == want


def test_wrong_permutation_is_flagged():
    n, m, d = 2, 3, 2
    a2, b2 = orc.zip_permutation(n, m, d)
    assert orc.permutation_residual(permutation_apply(n, m, d), n, m, d) <= TOL
    # the same digits reassembled most-significant first
    wrong_a = np.zeros_like(a2)
    wrong_b = np.zeros_like(b2)
    for k in range(d):
        wrong_a += (a2 // n**k % n) * n ** (d - 1 - k)
        wrong_b += (b2 // m**k % m) * m ** (d - 1 - k)
    wrong = permutation_apply(n, m, d, wrong_a, wrong_b)
    assert orc.permutation_residual(wrong, n, m, d) > TOL
    assert orc.relation_residual(wrong, np.eye(n), np.eye(m), d)[0] > TOL
    identity = permutation_apply(n, m, d, *np.indices(a2.shape))
    assert orc.permutation_residual(identity, n, m, d) > TOL


def test_equal_states_flip_passes_and_identity_fails():
    rng = np.random.default_rng(4)
    U = twist(rng, orc.random_unit(rng, 2))
    d, shape = 2, (4, 4)

    def flip(arr):
        return arr.T

    res, top = orc.relation_residual(flip, U, U, d)
    assert res <= TOL
    C = rng.normal(size=(top.shape[1], 5)) + 1j * rng.normal(size=(top.shape[1], 5))
    V = top @ C
    iso, W = orc.isometry_residual(flip, V, shape)
    assert iso <= TOL and orc.flip_residual(V, W, shape) <= TOL

    def identity(arr):
        return arr

    assert orc.relation_residual(identity, U, U, d)[0] > TOL
    iso, W = orc.isometry_residual(identity, V, shape)
    assert iso <= TOL and orc.flip_residual(V, W, shape) > TOL

    def stretched(arr):
        return 1.001 * arr.T

    assert orc.isometry_residual(stretched, V, shape)[0] > TOL

    def perturbed(arr):
        out = arr.T.copy()
        out[0, 0] += 1e-6
        return out

    assert orc.relation_residual(perturbed, U, U, d)[0] > TOL


def test_split_digits_most_significant_first():
    # O_12 as (2, 3, 2): letter 12 is the digit triple (2, 3, 2), letter 8 is (2, 1, 2)
    assert orc.split_digits((12, 8, 1), (2, 3, 2)) == [(2, 2, 1), (3, 1, 1), (2, 2, 1)]
    assert orc.split_digits((5, 1), (2, 3)) == [(2, 1), (2, 1)]


def test_ybe_residual_on_standard_permutations():
    ns, d = (2, 3, 2), 2
    I = [np.eye(n) for n in ns]
    ops = {(i, j): permutation_apply(ns[i], ns[j], d)
           for i, j in ((0, 1), (0, 2), (1, 2))}
    words = orc.creation_words(12, d)
    assert max(orc.ybe_residual(ops, I, w, d) for w in words) <= TOL
    # an identity in place of R13, or a stretched R12, is caught
    for key, op in [((0, 2), lambda arr: arr),
                    ((0, 1), lambda arr: 1.001 * ops[0, 1](arr))]:
        wrong = {**ops, key: op}
        assert max(orc.ybe_residual(wrong, I, w, d) for w in words) > TOL


def test_triple_images_match_the_program():
    cuntzr = pytest.importorskip("cuntzr")
    from cuntzr.coproduct import f_l_op, f_r
    from cuntzr.representations import lambda3

    rng = np.random.default_rng(7)
    x = orc.random_unit(rng, 2)
    states = (cuntzr.GPState(x), cuntzr.GPState(x), cuntzr.GPState(np.kron(x, x)))
    reps = [cuntzr.GPRepresentation.for_state(s) for s in states]
    Us = [r.U for r in reps]
    shape = (2, 2, 4)

    def dense3(vec):
        out = np.zeros(shape, dtype=complex)
        for (a, b, c), amp in vec.items():
            out[a - 1, b - 1, c - 1] += amp
        return out

    for word in [(), (1,), (6,), (16,)]:
        mono = cuntzr.CuntzMonomial(16, word, ())
        got = dense3(lambda3(*reps, f_r(mono)))
        assert orc.dist(got, orc.word_image(Us, word, 1)) <= TOL
        got = dense3(lambda3(*reps, f_l_op(mono)))
        assert orc.dist(got, orc.word_image(Us, word, 1, opposite=True)) <= TOL
    # the two images differ, so an operator left out is caught
    assert orc.dist(orc.word_image(Us, (6,), 1),
                    orc.word_image(Us, (6,), 1, opposite=True)) > TOL


def test_state_values_and_kronecker_order():
    rng = np.random.default_rng(5)
    z, y = orc.random_unit(rng, 2), orc.random_unit(rng, 3)
    zy = np.kron(z, y)
    assert orc.state_value(zy, (), ()) == 1
    assert orc.state_value(zy, (4,), (2,)) == pytest.approx(np.conj(zy[3]) * zy[1])
    # swapped Kronecker order: a product state evaluated as y [*] z is caught
    u, v = (2, 5), (3,)
    assert abs(orc.state_value(np.kron(y, z), u, v) - orc.state_value(zy, u, v)) > TOL


def test_commutation_and_witness():
    rng = np.random.default_rng(6)
    x, y = orc.random_unit(rng, 2), orc.random_unit(rng, 3)
    assert orc.kron_commute(x, np.kron(x, x))
    assert orc.kron_commute(orc.kron_power(x, 2), orc.kron_power(x, 3))
    assert not orc.kron_commute(x, y)
    assert orc.witness_gap("n=6;u=2;v=", x, y) > TOL
    assert orc.witness_gap("n=6;u=1;v=", x, y) <= TOL  # index 1 never separates
    assert orc.witness_gap("n=8;u=2;v=", x, np.kron(x, x)) <= TOL
    assert orc.witness_gap("n=4;u=2;v=", x, y) == -1.0  # wrong algebra
    e1, e2 = np.eye(2, dtype=complex)
    assert orc.witness_gap("n=4;u=2;v=", e1, e2) == pytest.approx(1.0)


def test_parse_label():
    assert orc.parse_label("n=12;u=1,2;v=3") == (12, (1, 2), (3,))
    assert orc.parse_label("n=4;u=;v=") == (4, (), ())


def test_dict_dense_round_trip_and_bounds():
    arr = np.zeros((2, 3), dtype=complex)
    arr[1, 2] = 0.5j
    assert orc.pair_dict(arr) == {(2, 3): 0.5j}
    assert orc.dist(orc.pair_dense(orc.pair_dict(arr), (2, 3)), arr) == 0.0
    with pytest.raises(ValueError):
        orc.pair_dense({(3, 1): 1.0}, (2, 3))


def test_tracer_counts_and_restores():
    cuntzr = pytest.importorskip("cuntzr")
    from spans import Tracer

    original = cuntzr.build_r
    tracer = Tracer()
    tracer.install(cuntzr)
    try:
        assert cuntzr.build_r is not original
        s2, s3 = cuntzr.GPState.standard(2), cuntzr.GPState.standard(3)
        cuntzr.build_r(s2, s3, 1)
        cuntzr.build_r(s2, s3, 1)
        m = tracer.metrics()
    finally:
        tracer.uninstall()
    assert cuntzr.build_r is original
    assert m["rmatrix.builds"][0] == 2
    assert m["rmatrix.build_reuse"][0] == 0.5
    assert m["kernels.gram_dim"][0] == 2 * 7
    assert m["kernels.rank_ratio"][0] == pytest.approx(6 / 7)
    assert m["representations.calls"][0] > 0
