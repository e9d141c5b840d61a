import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import intertwining_oracle
import ybe_oracle
from cuntzr import cli, coproduct, rmatrix
from cuntzr.algebra import CuntzMonomial, holds
from cuntzr.coproduct import delta, phi
from cuntzr.errors import NotCommuting, OutOfDomain, SpanTooLarge
from cuntzr.representations import (
    GPRepresentation,
    act_dense,
    creation_words,
    from_dense,
    pad_to,
    to_dense,
)
from cuntzr.rmatrix import (
    BUILD_TOL,
    RMatrixOperator,
    VerificationReport,
    build_r,
    counterexample_demo,
    radix_perm,
    relation_residual,
    swap_index_pair,
    verify_intertwining,
    verify_symmetry,
    verify_ybe,
)
from cuntzr.states import GPState, UnitVector
from basis_oracle import basis_blocks, basis_residual, symmetry_oracle
from gram_oracle import gram_r, pack_vectors, vec_dist, word_images


W2 = GPState.standard(2)
W3 = GPState.standard(3)
U2 = GPState.uniform(2)
U3 = GPState.uniform(3)
S1 = GPState.standard(1)


# ---------------------------------------------------------------------------
# construction


def test_swap_example_on_standard_pair():
    rmat = build_r(W2, W3, 1)
    assert rmat.apply({(1, 3): 1.0}) == {(1, 2): 1 + 0j}
    assert basis_residual(rmat, lambda E: E) > 0.0
    assert rmat.rank == 6
    assert rmat.unitarity_residual == 0.0


def test_equal_states_give_the_leg_swap():
    # the relation forces the flip of the legs on the span: the coproduct
    # image of a word and its opposite differ exactly by the leg swap when
    # both legs carry the same state; checked on the orthonormal basis the
    # Gram oracle builds from the word images
    for omega in (W2, GPState.uniform(2)):
        rmat = build_r(omega, omega, 2)
        basis = gram_r(omega, omega, 2).basis
        for a in range(basis.rank):
            q = basis.orthobasis_vector(a)
            flipped = {(k2, k1): c for (k1, k2), c in q.items()}
            assert vec_dist(rmat.apply(q), flipped) <= 1e-12


def test_noncommuting_pair_is_rejected_with_witness():
    omega = GPState(UnitVector([1, 0]))
    psi = GPState(UnitVector([0, 1]))
    with pytest.raises(NotCommuting) as err:
        build_r(omega, psi, 1)
    assert err.value.witness.label() == "n=4;u=2;v="


def test_gram_equality_of_both_image_families():
    for pair in ((W2, W3), (U2, U3)):
        rmat = build_r(*pair, 1)
        _, vvecs = word_images(rmat.rep1, rmat.rep2, 1)
        _, wvecs = word_images(rmat.rep1, rmat.rep2, 1, opposite=True)
        keys = sorted({k for vec in vvecs + wvecs for k in vec})
        _, A = pack_vectors(vvecs, keys)
        _, B = pack_vectors(wvecs, keys)
        assert np.max(np.abs(A.conj().T @ A - B.conj().T @ B)) <= 1e-10


def test_unitarity_of_built_operators():
    # R^H R = I, measured as the Gram matrix of the images of the basis
    for pair, depth in (((W2, W3), 2), ((U2, U3), 2), ((W2, W2), 1)):
        rmat = build_r(*pair, depth)
        (E,) = basis_blocks(rmat.dims)
        images = rmat.apply_dense(E).reshape(rmat.rank, rmat.rank)
        dev = images.conj().T @ images - np.eye(rmat.rank)
        assert np.max(np.abs(dev)) <= 1e-9


def test_dense_apply_matches_the_dict_apply_on_a_batch():
    rng = np.random.default_rng(8)
    rmat = build_r(U2, U3, 2)
    X = rng.normal(size=(4, 9, 3)) + 1j * rng.normal(size=(4, 9, 3))
    Y = rmat.apply_dense(X)
    for c in range(3):
        vec = {(i + 1, j + 1): X[i, j, c] for i in range(4) for j in range(9)}
        assert np.max(np.abs(to_dense(rmat.apply(vec), (4, 9)) - Y[:, :, c])) <= 1e-14
    with pytest.raises(OutOfDomain):
        rmat.apply_dense(np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# application


def _resplit(n, m):
    """The depth-1 re-split P as an nm x nm 0/1 matrix: the source letter
    p = m*i + j (digit pair (i, j)) is read as p = n*a + b and stored as the
    digit pair (b, a), at index m*b + a."""
    p = np.arange(n * m)
    a, b = np.divmod(p, n)
    P = np.zeros((n * m, n * m), dtype=complex)
    P[m * b + a, p] = 1.0
    return P


def _leg_flip(n, m):
    """The leg flip F: C^n (x) C^m -> C^m (x) C^n, e_i (x) e_j -> e_j (x) e_i,
    as an nm x nm 0/1 matrix, by transposing the two leg axes."""
    return np.eye(n * m).reshape(n, m, n * m).transpose(1, 0, 2).reshape(n * m, n * m)


def test_r1_equals_the_np_kron_form_bit_for_bit():
    # the twist T = U_1 (x) U_2 is a broadcast product; R_1 = T P T^H must
    # be what np.kron gives, on random twists of any pair of indices
    rng = np.random.default_rng(20)
    for n, m in ((1, 2), (2, 3), (3, 2), (2, 5), (4, 1)):
        states = []
        for k in (n, m):
            z = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            # C^1 admits the scalar 1 alone
            states.append(GPState(z / np.linalg.norm(z) if k > 1 else [1.0]))
        rmat = RMatrixOperator(*states, 1)
        T = np.kron(rmat.rep1.U, rmat.rep2.U)
        assert np.array_equal(rmat.r1, T @ _resplit(n, m) @ T.conj().T)


def test_apply_fixes_unit_image():
    rmat = build_r(W2, W3, 1)
    assert rmat.apply({(1, 1): 1.0}) == {(1, 1): 1 + 0j}


def test_apply_resplits_digits():
    # (2, 2) has digits i=2, j=2, letter 3*(2-1)+2 = 5 = 2*(3-1)+1
    rmat = build_r(W2, W3, 1)
    assert rmat.apply({(2, 2): 1.0}) == {(1, 3): 1 + 0j}


def test_apply_rejects_vectors_outside_the_span():
    rmat = build_r(W2, W3, 1)
    with pytest.raises(OutOfDomain):
        rmat.apply({(1, 7): 1.0})


def test_depth_stability_on_standard_pair():
    shallow = build_r(W2, W3, 1)
    deep = build_r(W2, W3, 2)
    for vec in word_images(shallow.rep1, shallow.rep2, 1)[1]:
        assert shallow.apply(vec) == deep.apply(vec)
    # R_1 fixes e_1 (x) e_1, so R_{d+1} on the zero-padded depth-d block is
    # the zero-padded R_d image: exact for standard pairs
    rng = np.random.default_rng(12)
    x = np.array([0.6, 0.8j])
    for pair, bound in (
        ((W2, W3), 0.0),
        ((U2, U3), 1e-14),
        ((GPState(x), GPState(np.kron(x, x))), 1e-14),
    ):
        for d in (1, 2):
            shallow, deep = build_r(*pair, d), build_r(*pair, d + 1)
            X = rng.normal(size=(*shallow.dims, 3)) + 1j * rng.normal(size=(*shallow.dims, 3))
            X /= np.linalg.norm(X.reshape(-1, 3), axis=0)
            got = deep.apply_dense(pad_to(X, deep.dims))
            want = pad_to(shallow.apply_dense(X), deep.dims)
            assert np.max(np.abs(got - want)) <= bound


def test_a_perturbed_r1_breaks_the_defining_relation():
    for pair in ((W2, W3), (U2, U3)):
        rmat = build_r(*pair, 2)
        assert relation_residual(rmat, 2) <= 1e-14
        rmat.r1[0, 1] += 1e-6
        assert relation_residual(rmat, 2) >= 1e-7


# ---------------------------------------------------------------------------
# the closed form


def test_swap_index_pair_examples():
    assert swap_index_pair(2, 3, 1, 3, 1) == (1, 2)
    assert swap_index_pair(2, 3, 2, 2, 1) == (1, 3)
    for n, m in ((2, 3), (3, 2), (2, 5), (4, 4)):
        assert swap_index_pair(n, m, 1, 1, 3) == (1, 1)


def test_swap_index_pair_padding_invariance():
    for n, m in ((2, 3), (3, 2), (2, 5)):
        for a in range(1, n + 1):
            for b in range(1, m + 1):
                short = swap_index_pair(n, m, a, b, 1)
                padded = swap_index_pair(n, m, a, b, 3)
                assert short == padded


def test_swap_index_pair_rejects_pairs_outside_the_block():
    for a, b in ((5, 1), (0, 1), (1, 10), (1, 0)):
        with pytest.raises(ValueError, match="outside the block"):
            swap_index_pair(2, 3, a, b, 2)
    # Python ints all the way: 3^41 is above 2^63
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        image = swap_index_pair(2, 3, 2**41, 3**41, 41)
    assert image == (2199023255552, 36472996377170786403)
    assert all(type(k) is int for k in image)


def _digits(x, base, length):
    """Base digits of x, least significant first, fixed length."""
    out = []
    for _ in range(length):
        out.append(x % base)
        x //= base
    return out


def _swap_oracle(n, m, a, b, length):
    """The closed form letter by letter: the digits of a-1 (base n) and b-1
    (base m) zip to letters w = m*i + j, each re-split as w = n*i' + j' and
    reassembled, base n from the j' and base m from the i'."""
    da = _digits(a - 1, n, length)
    db = _digits(b - 1, m, length)
    a2 = 0
    b2 = 0
    for k in reversed(range(length)):
        w = m * da[k] + db[k]  # 0-based letter
        b2 = b2 * m + w // n
        a2 = a2 * n + w % n
    return a2 + 1, b2 + 1


def test_closed_form_and_export_equal_the_letter_oracle():
    # every (n, m, d) with n, m <= 6 and (nm)^d <= 4096; the exported pairs
    # of depth d also padded to depth d + 1
    cases = [
        (n, m, d) for n in range(1, 7) for m in range(1, 7) for d in range(13)
        if (n * m) ** d <= 4096
    ]
    assert (2, 3, 4) in cases and (1, 2, 12) in cases and (6, 6, 2) in cases
    for n, m, d in cases:
        rows = build_r(GPState.standard(n), GPState.standard(m), d).to_json()["permutation"]
        assert [r[:2] for r in rows] == [[a, b] for a in range(1, n**d + 1) for b in range(1, m**d + 1)]
        for a, b, a2, b2 in rows:
            want = _swap_oracle(n, m, a, b, d)
            assert (a2, b2) == want == swap_index_pair(n, m, a, b, d)
            assert swap_index_pair(n, m, a, b, d + 1) == want == _swap_oracle(n, m, a, b, d + 1)


def _on_legs(sigma, dims, legs):
    """The permutation ``sigma`` of the digit pair of two legs (x, y) of the
    index space ``dims``, as an index array of the whole space."""
    idx = np.indices(dims).reshape(len(dims), -1)
    x, y = legs
    idx[x], idx[y] = np.divmod(sigma[idx[x] * dims[y] + idx[y]], dims[y])
    return np.ravel_multi_index(tuple(idx), dims)


def _identity_failures(perm, sizes=range(1, 7)):
    """Counts of the sizes where each permutation identity fails for the
    index arrays ``perm(n, m)``: perm(m, n) inverts perm(n, m); perm(n, n)
    is the leg flip; and P_12 P_13 P_23 = P_23 P_13 P_12 on digit triples
    (P[:, s] composes as index arrays, P_A P_B = sigma_A[sigma_B])."""
    inverse = flip = braid = 0
    for n, m in itertools.product(sizes, repeat=2):
        inverse += not np.array_equal(perm(m, n)[perm(n, m)], np.arange(n * m))
    for n in sizes:
        flip += not np.array_equal(np.eye(n * n)[:, perm(n, n)], _leg_flip(n, n))
    for dims in itertools.product(sizes, repeat=3):
        n, m, l = dims
        p12 = _on_legs(perm(n, m), dims, (0, 1))
        p13 = _on_legs(perm(n, l), dims, (0, 2))
        p23 = _on_legs(perm(m, l), dims, (1, 2))
        braid += not np.array_equal(p12[p13[p23]], p23[p13[p12]])
    return inverse, flip, braid


def test_radix_permutation_identities_on_integer_arrays():
    for n, m in itertools.product(range(1, 9), repeat=2):
        sigma = radix_perm(n, m)
        assert sigma.dtype.kind == "i" and sorted(sigma) == list(range(n * m))
        # as a matrix P_{m,n} is the leg flip C^n (x) C^m -> C^m (x) C^n
        assert np.array_equal(np.eye(n * m)[:, radix_perm(m, n)], _leg_flip(n, m))
    assert _identity_failures(radix_perm) == (0, 0, 0)


def test_the_radix_permutation_is_shared_read_only_and_let_go():
    sigma = radix_perm(2, 3)
    assert radix_perm(2, 3) is sigma
    with pytest.raises(ValueError, match="read-only"):
        sigma[0] = 1
    # a bounded cache: later pairs push out an early one
    for n in range(1, 10):
        radix_perm(n, 1000)
    assert radix_perm(2, 3) is not sigma and np.array_equal(radix_perm(2, 3), sigma)


def test_a_transposed_radix_permutation_fails_the_identities():
    # the digit table read transposed fails the flip and the braid; it is
    # still inverted by its reverse, which a transpose on one side breaks
    def transposed(n, m):
        return radix_perm(n, m).reshape(n, m).T.ravel()

    def one_side(n, m):
        return transposed(n, m) if n < m else radix_perm(n, m)

    inverse, flip, braid = _identity_failures(transposed)
    assert inverse == 0 and flip > 0 and braid > 0
    inverse, _, braid = _identity_failures(one_side)
    assert inverse > 0 and braid > 0


def _permutation(rmat):
    """{(a, b): (a', b')} from the exported rows of a standard-state operator."""
    return {(a, b): (a2, b2) for a, b, a2, b2 in rmat.to_json()["permutation"]}


def test_closed_form_matches_built_operator():
    rmat = build_r(W2, W3, 2)
    closed = _permutation(rmat)
    assert len(closed) == 36
    for key, target in sorted(closed.items()):
        assert rmat.apply({key: 1.0}) == {target: 1 + 0j}
        assert swap_index_pair(2, 3, *key, 2) == target


def test_closed_form_is_an_involution_with_its_reverse():
    fwd = _permutation(build_r(W2, W3, 2))
    rev = _permutation(build_r(W3, W2, 2))
    for (a, b), (a2, b2) in fwd.items():
        assert rev[(b2, a2)] == (b, a)


def test_permutation_form_rejects_pairs_outside_the_grid():
    closed = build_r(W2, W3, 1)
    assert set(_permutation(closed)) == {(a, b) for a in (1, 2) for b in (1, 2, 3)}
    with pytest.raises(OutOfDomain):
        closed.apply({(1, 7): 1.0})


# ---------------------------------------------------------------------------
# verifiers


def test_intertwining_standard_pair():
    rmat = build_r(W2, W3, 2)
    report = verify_intertwining(rmat)
    assert report.passed
    assert report.max_residual == 0.0
    assert len(report.checks) == 6


def test_intertwining_traces_the_worked_example():
    # the generator with index 3 of O_6 maps the cyclic pair vector to
    # e_1 (x) e_3 and its opposite image to e_1 (x) e_2; both orders land
    # on e_1 (x) e_2
    rmat = build_r(W2, W3, 2)
    from cuntzr.coproduct import delta_op

    reps = (rmat.rep1, rmat.rep2)
    v = to_dense({(1, 1): 1.0 + 0j}, (1, 1))
    g = CuntzMonomial.generator(6, 3)
    via_coproduct = rmat.apply_dense(pad_to(act_dense(reps, delta(g), v), rmat.dims))
    via_opposite = act_dense(reps, delta_op(g), rmat.apply_dense(pad_to(v, rmat.dims)))
    assert from_dense(via_coproduct) == {(1, 2): 1 + 0j}
    assert from_dense(via_opposite) == {(1, 2): 1 + 0j}


def test_intertwining_equal_states():
    rmat = build_r(W2, W2, 2)
    report = verify_intertwining(rmat)
    assert report.passed and report.max_residual == 0.0


def test_intertwining_uniform_pair():
    rmat = build_r(U2, U3, 2)
    report = verify_intertwining(rmat)
    assert report.passed
    assert report.max_residual <= 1e-9


def test_intertwining_sees_mass_that_leaves_the_span_block():
    # R V lies in the depth-1 block (2, 3) of the (4, 9) block up to rounding;
    # 5e-14 put on the pair (e_3, e_1) outside it must show in the residual,
    # although every entry of its image is below 1e-13
    rmat = build_r(U2, U3, 2)
    baseline = verify_intertwining(rmat).max_residual
    original = rmat.apply_dense
    calls = []

    def bumped(X, work=None):
        Y = original(X, work)
        if not calls:
            Y = Y.copy()
            Y[2, 0] += 5e-14
        calls.append(X.shape)
        return Y

    rmat.apply_dense = bumped
    report = verify_intertwining(rmat)
    assert baseline <= 1e-15
    assert 4.9e-14 <= report.max_residual <= 5.1e-14


def test_intertwining_on_o1_legs():
    # an O_1 leg stays one entry wide: the generators of O_m split to the
    # unit there, and its twist column is [1]
    for pair, exact in (((S1, U2), False), ((U2, S1), False), ((S1, S1), True)):
        for depth in (1, 2, 3):
            report = verify_intertwining(build_r(*pair, depth))
            assert report.passed
            assert len(report.checks) == pair[0].n * pair[1].n
            if exact:
                assert report.max_residual == 0.0
            else:
                assert report.max_residual <= 1e-15


def test_intertwining_applies_the_span_first_and_the_grown_batch_once(monkeypatch):
    rmat = build_r(U2, U3, 2)
    applied, word_splits = [], []
    real_apply = RMatrixOperator.apply_dense

    def apply_dense(self, X, work=None):
        applied.append(np.array(X))
        return real_apply(self, X, work)

    # the per-term split, which phi and the coproducts read
    monkeypatch.setattr(coproduct, "_split", lambda *args: word_splits.append(args))
    monkeypatch.setattr(RMatrixOperator, "apply_dense", apply_dense)
    assert verify_intertwining(rmat).passed
    assert len(applied) == 2
    # R V comes first: the span images, zero outside the depth-1 block
    reps = (rmat.rep1, rmat.rep2)
    span = next(rmatrix._word_images(reps, "delta", 1, rmat.dims))
    assert np.array_equal(applied[0], span)
    # then V grown by all six generators at once: (n^d, m^d, N, K)
    assert applied[1].shape == (4, 9, 6, 7)
    assert not word_splits


def test_intertwining_grows_and_applies_in_one_block(monkeypatch):
    # depth 3 of (2, 3): 43 span words of 6^3 = 216 entries, 18 to a chunk
    rmat = build_r(U2, U3, 3)
    assert rmatrix._chunk_words(216, 43) == 18
    kernels, letters, stacks = [], [], []
    real_kernel, real_letter_images = rmatrix._apply_digits, rmatrix._letter_images
    real_word_images = rmatrix._word_images

    def apply_digits(M, X, radices, depth, work=None):
        kernels.append((X, work))
        return real_kernel(M, X, radices, depth, work)

    def letter_images(reps, form):
        letters.append(form)
        return real_letter_images(reps, form)

    def word_images(*args, **kwargs):
        for X in real_word_images(*args, **kwargs):
            stacks.append(X)
            yield X

    monkeypatch.setattr(rmatrix, "_apply_digits", apply_digits)
    monkeypatch.setattr(rmatrix, "_letter_images", letter_images)
    monkeypatch.setattr(rmatrix, "_word_images", word_images)
    assert verify_intertwining(rmat).passed
    # each form's letters are imaged once; the span grows from Delta's
    assert letters == ["delta", "delta_op"]
    assert [X.shape[-1] for X in stacks] == [18, 18, 7]
    # per chunk R V, then R on the grown batch: every step of both goes
    # through one block, allocated once for a full chunk
    assert len(kernels) == 2 * len(stacks)
    block = kernels[0][1].base
    assert block is not None and block.ndim == 1 and block.flags.c_contiguous
    assert block.size == (3 * 6 + 2) * 216 * 18
    for chunk, ((V, moved_work), (grown, work)) in zip(stacks, zip(kernels[::2], kernels[1::2])):
        k = chunk.shape[-1]
        assert V is chunk and not np.shares_memory(V, block)
        assert grown.shape == (8, 27, 6, k) and grown.base is block
        assert moved_work.base is block and work.base is block
        assert moved_work.size == 2 * V.size and work.size == 2 * grown.size
        assert not np.shares_memory(moved_work, work) and not np.shares_memory(grown, work)
        assert not np.shares_memory(moved_work, grown)


@pytest.mark.parametrize("depth", [3, 4])
def test_intertwining_peak_memory_is_at_most_four_grown_spans(depth):
    # the check holds one chunk's work block, the span's leg images and
    # small arrays; the whole grown span (the lower bound before the check
    # was streamed) is about half the peak at depth 3 and 17 times the
    # peak at depth 4
    import tracemalloc

    rmat = build_r(U2, U3, depth)
    N, words = 6, rmatrix._word_count(6, depth - 1)
    step = rmatrix._chunk_words(N**depth, words)
    block = (3 * N + 2) * N**depth * step * 16  # bytes
    legs = rmatrix._leg_entries((rmat.rep1, rmat.rep2), depth - 1) * 16
    grown = (N ** depth) * N * words * 16
    tracemalloc.start()
    try:
        assert verify_intertwining(rmat).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block <= peak <= 2 * (block + legs)
    assert peak <= 4 * grown


def test_intertwining_depth_arithmetic_is_enforced():
    rmat = build_r(W2, W3, 0)
    with pytest.raises(OutOfDomain):
        verify_intertwining(rmat)


def test_symmetry_chain_on_basis_pair():
    r23 = build_r(W2, W3, 1)
    r32 = build_r(W3, W2, 1)
    vec = {(1, 3): 1.0 + 0j}
    flip = lambda v: {(k2, k1): c for (k1, k2), c in v.items()}
    step = flip(vec)                          # e_3 (x) e_1
    step = r32.apply(step)                    # e_2 (x) e_2
    assert step == {(2, 2): 1 + 0j}
    step = flip(step)
    step = r23.apply(step)
    assert step == {(1, 3): 1 + 0j}


def test_symmetry_reports():
    assert verify_symmetry(W2, W3, 1).passed
    assert verify_symmetry(W2, W2, 1).passed
    report = verify_symmetry(U2, U3, 1)
    assert report.passed and report.max_residual <= 1e-9


def test_symmetry_refuses_the_operator_of_another_pair():
    assert verify_symmetry(W2, W3, 2, r12=build_r(W2, W3, 2)).passed
    for states, r12 in (
        ((W2, W3), build_r(U2, U3, 2)),
        ((W2, W3), build_r(W3, W2, 2)),
        ((U2, U2), build_r(W2, W2, 2)),
    ):
        with pytest.raises(ValueError, match=re.escape("r12 is not the operator of (omega1, omega2)")):
            verify_symmetry(*states, 2, r12=r12)


def test_depths_and_basis_indices_are_integers():
    rmat = build_r(W2, W3, 1)
    for bad, message in (
        (-1, "must be >= 0, got -1"),
        (1.5, "1.5 is not an integer"),
        (True, "True is not an integer"),
        ("1", "'1' is not an integer"),
    ):
        for name, call in (
            ("depth", lambda: build_r(W2, W3, bad)),
            ("depth", lambda: RMatrixOperator(W2, W3, bad)),
            ("depth", lambda: verify_ybe(W2, W3, W2, bad)),
            ("depth", lambda: verify_symmetry(W2, W3, bad)),
            ("depth", lambda: verify_symmetry(W2, W3, bad, r12=rmat)),
            ("max_len", lambda: relation_residual(rmat, bad)),
            ("length", lambda: swap_index_pair(2, 3, 1, 1, bad)),
        ):
            with pytest.raises(ValueError, match=re.escape(f"{name} {message}")):
                call()
    for bad in (True, 1.5, "1"):
        with pytest.raises(ValueError, match=re.escape(f"basis index {bad!r} is not an integer")):
            swap_index_pair(2, 3, bad, 1, 1)
        with pytest.raises(ValueError, match=re.escape(f"basis index {bad!r} is not an integer")):
            swap_index_pair(2, 3, 1, bad, 1)
    # numpy integers are integers
    one, two = np.int64(1), np.int32(2)
    assert type(build_r(W2, W3, two).depth) is int
    assert type(RMatrixOperator(W2, W3, two).depth) is int
    assert swap_index_pair(2, 3, one, np.int8(3), one) == (1, 2)
    assert verify_ybe(W2, W3, W2, one).passed
    assert verify_symmetry(W2, W3, two).passed
    assert relation_residual(rmat, one) == 0.0


def test_ybe_standard_triple_is_exact():
    report = verify_ybe(W2, W3, GPState.standard(5), 1)
    assert report.passed
    assert report.max_residual == 0.0
    assert len(report.checks) == 31  # the unit word plus thirty generators


def test_ybe_equal_triple():
    report = verify_ybe(W2, W2, W2, 1)
    assert report.passed


def test_ybe_uniform_triple():
    report = verify_ybe(U2, U3, GPState.uniform(2), 1)
    assert report.passed and report.max_residual <= 1e-9


def test_ybe_reads_the_difference_of_its_two_oracles(monkeypatch):
    # the two expansions of the triple moved apart on one entry of every
    # chunk, +1e-3 in f_l_op's and -1e-3 in f_r_op's: each side is 1e-3
    # from its own oracle, and only oracle_l - oracle_r reads 2e-3
    real = rmatrix._word_images
    shift = {"f_l_op": 1e-3, "f_r_op": -1e-3}

    def shifted(reps, form, *args, **kwargs):
        for chunk in real(reps, form, *args, **kwargs):
            if form in shift:
                chunk = chunk.copy()
                chunk[(0,) * chunk.ndim] += shift[form]
            yield chunk

    monkeypatch.setattr(rmatrix, "_word_images", shifted)
    report = verify_ybe(U2, U3, U2, 1)
    assert report.checks[0].residual == pytest.approx(2e-3, rel=0, abs=1e-12)
    assert not report.checks[0].passed
    assert all(c.passed and c.residual <= 1e-12 for c in report.checks[1:])


# ---------------------------------------------------------------------------
# the chunked YBE check against the per-word oracle


def _triple_operators(states, depth):
    return [build_r(states[i], states[j], depth) for i, j in ((0, 1), (0, 2), (1, 2))]


def _oracle_records(states, depth, rs):
    reps = [GPRepresentation.for_state(s) for s in states]
    return ybe_oracle.ybe_records(reps, rs, depth)


def _ybe_chunks(states, depth):
    """Word count and words per chunk of verify_ybe on a triple."""
    N = states[0].n * states[1].n * states[2].n
    block = int(np.prod([s.n**depth for s in states]))
    words = rmatrix._word_count(N, depth)
    return words, rmatrix._chunk_words(block, words)


def test_chunked_ybe_matches_the_per_word_oracle():
    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    # (2, 3, 2) at depth 2: 157 words of 4 * 9 * 4 = 144 entries, 28 to a chunk
    assert _ybe_chunks((W2, W3, W2), 2) == (157, 28)
    for states, exact in (((W2, W3, W2), True), ((U2, U3, U2), False), ((X, XX, X), False)):
        words, step = _ybe_chunks(states, 2)
        assert words > 2 * step  # at least three chunks
        rs = _triple_operators(states, 2)
        report = verify_ybe(*states, 2, rs=rs)
        want = _oracle_records(states, 2, rs)
        assert [c.name for c in report.checks] == [name for name, _, _ in want]
        assert [c.passed for c in report.checks] == [ok for _, ok, _ in want]
        assert all(ok for _, ok, _ in want)
        for check, (_, _, residual) in zip(report.checks, want):
            if exact:
                assert check.residual == residual == 0.0
            else:
                assert abs(check.residual - residual) <= 1e-15


def test_chunked_ybe_fails_where_the_oracle_does_under_a_perturbed_r13():
    states = (W2, W3, W2)
    rs = _triple_operators(states, 2)
    rs[1].r1[0, 1] += 1e-6
    report = verify_ybe(*states, 2, rs=rs)
    want = _oracle_records(states, 2, rs)
    words, step = _ybe_chunks(states, 2)
    for chunk in (range(0, step), range((words - 1) // step * step, words)):
        failed = [k for k in chunk if not report.checks[k].passed]
        assert failed, chunk
        for k in failed:
            assert not want[k][1]
            assert report.checks[k].residual == pytest.approx(want[k][2], rel=0, abs=1e-15)
            assert report.checks[k].residual >= 1e-7
    assert [c.passed for c in report.checks] == [ok for _, ok, _ in want]


def test_ybe_splits_three_times_per_word_and_applies_two_kernels_per_chunk(monkeypatch):
    states = (W2, W3, W2)
    rs = _triple_operators(states, 2)
    rows, word_splits, applies, kernels, letters, twists = [], [], [], [], [], []
    real_split_words = rmatrix.split_words
    real_kernel = rmatrix._apply_digits
    real_letter_images = rmatrix._letter_images

    def split_words(form, block, words):
        rows.append((form, block, len(words)))
        return real_split_words(form, block, words)

    def apply_digits(M, X, radices, depth, work=None):
        kernels.append((M.shape, X.shape, radices, depth))
        return real_kernel(M, X, radices, depth, work)

    def letter_images(reps, form):
        letters.append(form)
        return real_letter_images(reps, form)

    monkeypatch.setattr(rmatrix, "split_words", split_words)
    # the per-term split, which the coproducts read
    monkeypatch.setattr(coproduct, "_split", lambda *args: word_splits.append(args))
    monkeypatch.setattr(RMatrixOperator, "apply_dense", lambda self, X: applies.append(X))
    monkeypatch.setattr(rmatrix, "_apply_digits", apply_digits)
    monkeypatch.setattr(rmatrix, "_letter_images", letter_images)
    # the twists come from rs, not from the states again
    monkeypatch.setattr(GPRepresentation, "for_state", lambda state: twists.append(state))
    assert verify_ybe(*states, 2, rs=rs).passed
    words, step = _ybe_chunks(states, 2)
    chunks = -(-words // step)
    assert (words, chunks) == (157, 6)
    # only the 12 letters are split, once in each of the three expansions,
    # as one array gathered from the block (2, 3, 2) of its composed table;
    # longer words grow from their letters' images, and no word goes
    # through the per-term split
    for form in ("f_r", "f_l_op", "f_r_op"):
        assert [k for f, block, k in rows if f == form] == [12]
    assert letters == ["f_r", "f_l_op", "f_r_op"]
    assert not twists
    assert {(f, block) for f, block, _ in rows} == {
        (f, (2, 3, 2)) for f in ("f_r", "f_l_op", "f_r_op")
    }
    assert not word_splits
    # no pairwise application: each side is one 12 x 12 matrix on the
    # digit triples, applied once per chunk
    assert not applies
    assert len(kernels) == 2 * chunks
    assert [X[-1] for _, X, _, _ in kernels] == [n for n in (28, 28, 28, 28, 28, 17) for _ in "lr"]
    assert {(M, radices, depth) for M, _, radices, depth in kernels} == {((12, 12), (2, 3, 2), 2)}
    assert max(int(np.prod(shape)) for _, shape, _, _ in kernels) <= rmatrix._CHUNK_ENTRIES


def _assert_ybe_matches_the_oracle(states, depth):
    rs = _triple_operators(states, depth)
    report = verify_ybe(*states, depth, rs=rs)
    want = _oracle_records(states, depth, rs)
    assert [c.name for c in report.checks] == [name for name, _, _ in want]
    assert [c.passed for c in report.checks] == [ok for _, ok, _ in want]
    assert all(ok for _, ok, _ in want)
    for check, (_, _, residual) in zip(report.checks, want):
        if all(r.is_permutation for r in rs):
            assert check.residual == residual == 0.0
        else:
            assert abs(check.residual - residual) <= 1e-15


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("states", [(S1, U2, U3), (U2, S1, U2), (S1, S1, S1)],
                         ids=["S1-U2-U3", "U2-S1-U2", "S1-S1-S1"])
def test_ybe_with_o1_legs_matches_the_per_word_oracle(states, depth):
    # an O_1 leg has one digit value, so its R_1 places on the digit triple
    # as a 1-dimensional identity factor; depth 0 has only the unit word
    _assert_ybe_matches_the_oracle(states, depth)


def test_ybe_on_a_kron_triple_matches_the_per_word_oracle():
    # (y, y [*] y, y) has the triple block (3, 9, 3): each side is one 81 x 81 matrix
    y = np.array([0.6, 0.48j, 0.64])
    Y, YY = GPState(y), GPState(np.kron(y, y))
    _assert_ybe_matches_the_oracle((Y, YY, Y), 1)


def _per_chunk_ybe_records(states, depth, rs, tol=BUILD_TOL):
    """verify_ybe's records as its per-chunk path made them before the
    residuals were folded as arrays: each R_1 placed by broadcasting against
    the identity on the third leg, four np.linalg.norm column norms a chunk,
    and one holds and one name from creation_words per word."""
    reps = (rs[0].rep1, rs[0].rep2, rs[1].rep2)
    a, b, c = (s.n for s in states)
    N = a * b * c
    dims = (a**depth, b**depth, c**depth)
    words = rmatrix._word_count(N, depth)
    step = rmatrix._chunk_words(int(np.prod(dims)), words)
    r12 = rs[0].r1.reshape(a, b, 1, a, b, 1) * np.eye(c).reshape(1, 1, c, 1, 1, c)
    r13 = rs[1].r1.reshape(a, 1, c, a, 1, c) * np.eye(b).reshape(1, b, 1, 1, b, 1)
    r23 = np.eye(a).reshape(a, 1, 1, a, 1, 1) * rs[2].r1.reshape(1, b, c, 1, b, c)
    r12, r13, r23 = (r.reshape(N, N) for r in (r12, r13, r23))
    sides = (r12 @ r13 @ r23, r23 @ r13 @ r12)
    exact = all(r.is_permutation for r in rs)
    names = [f"ybe:n={N};u={','.join(map(str, w)) if N > 1 else ''};v="
             for w in creation_words(N, depth)]

    def norms(diff):
        return np.linalg.norm(diff.reshape(-1, diff.shape[-1]), axis=0)

    records = []
    stacks = zip(*(rmatrix._word_images(reps, form, depth, dims, step)
                   for form in ("f_r", "f_l_op", "f_r_op")))
    for first, (t0, oracle_l, oracle_r) in zip(range(0, words, step), stacks):
        lhs, rhs = (rmatrix._apply_digits(M, t0, (a, b, c), depth) for M in sides)
        worst = np.max([norms(lhs - rhs), norms(lhs - oracle_l), norms(rhs - oracle_r),
                        norms(oracle_l - oracle_r)], axis=0)
        records += [(name, holds(res, tol, exact), res)
                    for name, res in zip(names[first:first + step], worst.tolist())]
    return records


def _moved(rs):
    rs[1].r1[0, 1] += 1e-6


def _nan(rs):
    rs[0].r1[1, 1] = np.nan


_y = np.array([0.6, 0.48j, 0.64])


@pytest.mark.parametrize("states, depth, change", [
    ((W2, W3, W2), 2, None),
    ((U3, U2, U2), 2, None),
    ((GPState(_y), GPState(np.kron(_y, _y)), GPState(_y)), 1, None),
    ((S1, U2, U3), 2, None),
    ((U2, S1, U2), 2, None),
    ((S1, S1, S1), 2, None),
    ((U2, U3, U2), 3, None),
    ((W2, W3, W2), 2, _moved),
    ((U2, U3, U2), 2, _moved),
    ((W2, W3, W2), 2, _nan),
    ((U2, U3, U2), 2, _nan),
], ids=["standard-2-3-2", "uniform-3-2-2", "kron-y-yy-y", "S1-U2-U3", "U2-S1-U2", "S1-S1-S1",
        "uniform-2-3-2-d3", "standard-moved", "uniform-moved", "standard-nan", "uniform-nan"])
def test_ybe_records_equal_the_per_chunk_norms_bit_for_bit(states, depth, change):
    rs = _triple_operators(states, depth)
    if change is not None:
        change(rs)
    want = _per_chunk_ybe_records(states, depth, rs)
    got = [(c.name, c.passed, c.residual.hex()) for c in verify_ybe(*states, depth, rs=rs).checks]
    assert got == [(name, ok, res.hex()) for name, ok, res in want]
    if change is not None:
        assert not all(ok for _, ok, _ in want)


def test_ybe_refuses_operators_of_another_triple():
    # the images are built from the twists the operators hold, so rs must be
    # R(omega1, omega2), R(omega1, omega3), R(omega2, omega3) of this triple
    states = (U2, U3, U2)
    rs = _triple_operators(states, 1)
    assert verify_ybe(*states, 1, rs=rs).passed
    for bad, k, pair in (
        ([rs[2], rs[1], rs[0]], 0, "(omega1, omega2)"),
        ([rs[0], rs[0], rs[2]], 1, "(omega1, omega3)"),
        ([rs[0], rs[1], rs[0]], 2, "(omega2, omega3)"),
        (_triple_operators((W2, W3, W2), 1), 0, "(omega1, omega2)"),
    ):
        with pytest.raises(ValueError, match=re.escape(f"rs[{k}] is not the operator of {pair}")):
            verify_ybe(*states, 1, rs=bad)


def _interleaved_order(radices, depth):
    """For each flat index of a leg-major array (r_1^d, ..., r_k^d), its
    flat index among the digit tuples (tuple 0 most significant), each tuple
    (digit j of leg 1, ..., digit j of leg k) read leg 1 first; digit 0 is
    the most significant digit of each leg. Plain integer arithmetic."""
    sizes = [r**depth for r in radices]
    tuple_size = int(np.prod(radices))
    order = []
    for idx in itertools.product(*map(range, sizes)):
        flat = 0
        for j in range(depth):
            t = 0
            for r, a in zip(radices, idx):
                t = t * r + a // r ** (depth - 1 - j) % r
            flat = flat * tuple_size + t
        order.append(flat)
    return np.array(order)


@pytest.mark.parametrize("radices", [(3,), (2, 3), (2, 1, 3), (1, 1, 1), (2, 2, 3)])
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_digit_kernel_is_the_kron_power_on_the_interleaved_digits(radices, depth):
    rng = np.random.default_rng(31)
    P = int(np.prod(radices))
    M = rng.normal(size=(P, P)) + 1j * rng.normal(size=(P, P))
    shape = tuple(r**depth for r in radices)
    X = rng.normal(size=shape + (2, 3)) + 1j * rng.normal(size=shape + (2, 3))
    got = rmatrix._apply_digits(M, X, radices, depth)
    full = np.ones((1, 1))
    for _ in range(depth):
        full = np.kron(full, M)
    order = _interleaved_order(radices, depth)
    interleaved = np.empty((len(order), 6), dtype=complex)
    interleaved[order] = X.reshape(len(order), -1)
    want = (full @ interleaved)[order]
    assert got.shape == X.shape
    assert np.max(np.abs(got.reshape(len(order), -1) - want)) <= 1e-12


@pytest.mark.parametrize("radices", [(2, 3), (2, 3, 2)])
@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("real", [False, True])
def test_digit_kernel_with_work_equals_the_allocating_kernel(radices, depth, real):
    rng = np.random.default_rng(37)
    P = int(np.prod(radices))
    M = rng.normal(size=(P, P)) + 1j * rng.normal(size=(P, P))
    shape = tuple(r**depth for r in radices) + (2, 3)
    X = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
    before = X.copy()
    work = np.empty((2, *shape), dtype=complex)
    got = rmatrix._apply_digits(M, X, radices, depth, work)
    assert np.array_equal(got, rmatrix._apply_digits(M, X, radices, depth))
    assert got.shape == X.shape
    assert np.array_equal(X, before)
    assert np.shares_memory(got, work)


def _per_word_images(reps, op, words, dims):
    """The word images one word at a time: act_dense of op(s_w) on the
    cyclic vector, zero-padded to ``dims`` and stacked."""
    N = int(np.prod([rep.n for rep in reps]))
    cyclic = np.ones((1,) * len(reps))
    columns = [
        pad_to(act_dense(reps, op(CuntzMonomial(N, w, ())), cyclic), dims) for w in words
    ]
    return np.stack(columns, axis=-1)


def test_batched_pair_images_equal_the_per_word_images():
    x = np.array([0.6, 0.8j])
    for pair, exact in (
        ((W2, W3), True),
        ((U2, U3), False),
        ((GPState(x), GPState(np.kron(x, x))), False),
    ):
        reps = [GPRepresentation.for_state(s) for s in pair]
        n, m = (s.n for s in pair)
        words = creation_words(n * m, 2)
        dims = (n**2, m**2)
        for form, op in (("delta", delta), ("delta_op", coproduct.delta_op)):
            got = next(rmatrix._word_images(reps, form, 2, dims))
            want = _per_word_images(reps, op, words, dims)
            if exact:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15


def test_batched_triple_images_equal_the_per_word_images():
    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    # whole double coproducts, from which the representations pick their block
    ops = (coproduct.f_r, coproduct.f_l_op, coproduct.f_r_op)
    for states, exact in (
        ((W2, W3, W2), True),
        ((U2, U3, U2), False),
        ((X, XX, X), False),
        ((GPState.standard(1), U2, U3), False),
    ):
        reps = [GPRepresentation.for_state(s) for s in states]
        a, b, c = (s.n for s in states)
        for depth in range(3):
            words = creation_words(a * b * c, depth)
            dims = tuple(s.n**depth for s in states)
            for form, op in zip(("f_r", "f_l_op", "f_r_op"), ops):
                got = next(rmatrix._word_images(reps, form, depth, dims))
                want = _per_word_images(reps, op, words, dims)
                if exact:
                    assert np.array_equal(got, want)
                else:
                    assert np.max(np.abs(got - want)) <= 1e-15


def _leg_images(U, digits):
    """Images of e_1 under the creation words in the rows of ``digits``
    (K, t), in the representation twisted by U: row k of the (K, n^t)
    result is U[:, w_t] (x) ... (x) U[:, w_1] for the word w = digits[k],
    the last letter most significant; a (K, 0) array gives e_1."""
    K = len(digits)
    X = np.ones((K, 1), dtype=complex)
    columns = U.T  # row j - 1 is the image of e_1 under s_j
    for p in reversed(range(digits.shape[1])):
        X = (X[:, :, None] * columns[digits[:, p] - 1][:, None, :]).reshape(K, -1)
    return X


def _per_length_images(reps, form, depth, dims, step):
    """The word images stacked length by length, the oracle of the growth:
    the words of each length are split together as one (K, t) array and
    imaged per leg, one product per letter from e_1 (``_leg_images``), and
    the stack is yielded in the chunks of ``_word_images``."""
    words = creation_words(int(np.prod([rep.n for rep in reps])), depth)
    lengths, start = [], 0
    for _, group in itertools.groupby(words, len):
        W = np.array(list(group), dtype=np.intp)
        split = coproduct.split_words(form, tuple(rep.n for rep in reps), W)
        lengths.append((start, [_leg_images(rep.U, d) for rep, d in zip(reps, split)]))
        start += len(W)
    legs = "abc"[:len(reps)]
    spec = ",".join("k" + leg for leg in legs) + "->" + legs + "k"
    for first in range(0, len(words), step):
        out = np.zeros((*dims, min(step, len(words) - first)), dtype=complex)
        for start, images in lengths:
            lo, hi = max(first, start), min(first + step, start + len(images[0]))
            if lo < hi:
                parts = [X[lo - start:hi - start] for X in images]
                block = (*(slice(X.shape[1]) for X in parts), slice(lo - first, hi - first))
                np.einsum(spec, *parts, out=out[block])
        yield out


def test_grown_word_images_equal_the_per_length_split_bit_for_bit():
    rng = np.random.default_rng(30)

    def random_state(n):
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        return GPState(z / np.linalg.norm(z))

    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    # R2, R3 and R2b do not commute pairwise; the images need no operator
    R2, R3, R2b, R5 = (random_state(n) for n in (2, 3, 2, 5))
    triples = ((W2, W3, W2), (U2, U3, U2), (X, XX, X), (R2, R3, R2b), (S1, U2, U3))
    pairs = ((W2, W3), (U2, U3), (R2, R3), (W2, GPState.uniform(5)), (U2, R5))
    cases = [(t, f) for t in triples for f in ("f_r", "f_l_op", "f_r_op")]
    cases += [(p, f) for p in pairs for f in ("delta", "delta_op")]
    for states, form in cases:
        reps = [GPRepresentation.for_state(s) for s in states]
        for depth in range(4):
            dims = tuple(s.n**depth for s in states)
            step = max(1, 2**16 // int(np.prod(dims)))  # chunks keep the test small
            got = rmatrix._word_images(reps, form, depth, dims, step)
            want = _per_length_images(reps, form, depth, dims, step)
            for A, B in itertools.zip_longest(got, want):
                assert np.array_equal(A, B), (states, form, depth)


@pytest.mark.parametrize("step", [1, 5, 28])
def test_chunked_word_images_stitch_to_the_single_chunk(step):
    # chunks of 5 and 28 words straddle the length boundaries at 1 and 1 + N
    cases = [
        (states, depth, form)
        for states in ((W2, W3, W2), (U2, U3, U2), (S1, U2, U3))
        for depth in range(3)
        for form in ("f_r", "f_l_op", "f_r_op")
    ] + [
        (pair, depth, form)
        for pair in ((W2, W3), (U2, U3))
        for depth in range(3)
        for form in ("delta", "delta_op")
    ]
    for states, depth, form in cases:
        reps = [GPRepresentation.for_state(s) for s in states]
        words = rmatrix._word_count(int(np.prod([s.n for s in states])), depth)
        dims = tuple(s.n**depth for s in states)
        (whole,) = rmatrix._word_images(reps, form, depth, dims)
        chunks = list(rmatrix._word_images(reps, form, depth, dims, step))
        sizes = [min(step, words - first) for first in range(0, words, step)]
        assert [X.shape for X in chunks] == [(*dims, k) for k in sizes]
        assert np.array_equal(np.concatenate(chunks, axis=-1), whole)


def test_the_dense_verifiers_take_every_stack_from_word_images(monkeypatch):
    calls, stacks, kernels = [], [], []
    real_word_images, real_kernel = rmatrix._word_images, rmatrix._apply_digits

    def word_images(reps, form, depth, dims, step=None, columns=None):
        calls.append(form)
        for X in real_word_images(reps, form, depth, dims, step, columns):
            stacks.append(X)
            yield X

    def apply_digits(M, X, radices, depth, work=None):
        kernels.append(X)
        return real_kernel(M, X, radices, depth, work)

    def streamed(X):
        return any(X is S for S in stacks)

    monkeypatch.setattr(rmatrix, "_word_images", word_images)
    monkeypatch.setattr(rmatrix, "_apply_digits", apply_digits)
    rmat = build_r(U2, U3, 2)
    assert relation_residual(rmat, 2) <= BUILD_TOL
    assert calls == ["delta", "delta_op"] and len(stacks) == 2
    assert len(kernels) == 1 and streamed(kernels[0])
    calls.clear(), stacks.clear(), kernels.clear()
    assert verify_intertwining(rmat).passed
    # R V on the streamed span, then R on the span grown by the generators
    assert calls == ["delta"] and len(stacks) == 1
    assert len(kernels) == 2 and streamed(kernels[0]) and not streamed(kernels[1])
    calls.clear(), stacks.clear(), kernels.clear()
    states = (U2, U3, U2)
    assert verify_ybe(*states, 2, rs=_triple_operators(states, 2)).passed
    # three streams of 6 chunks; both sides act on the f_r chunk
    assert calls == ["f_r", "f_l_op", "f_r_op"] and len(stacks) == 3 * 6
    assert len(kernels) == 2 * 6 and all(streamed(X) for X in kernels)


# ---------------------------------------------------------------------------
# the degenerate pair


def test_counterexample_demo_chain():
    report = counterexample_demo()
    names = [c.name for c in report.checks]
    assert names == [
        "coproduct-action-fixes-cyclic-vector",
        "relation-unit-branch-fixes-cyclic-vector",
        "opposite-image-orthogonal-to-cyclic-vector",
        "conjugation-identity-violated",
        "construction-rejects-pair",
    ]
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["conjugation-identity-violated"].residual == pytest.approx(np.sqrt(2))
    assert by_name["construction-rejects-pair"].witness == "n=4;u=2;v="


# ---------------------------------------------------------------------------
# export


def test_export_contains_permutation_entry():
    rmat = build_r(W2, W3, 1)
    out = rmat.to_json()
    assert [1, 3, 1, 2] in out["permutation"]
    assert len(out["permutation"]) == 6
    assert out["rank"] == 6
    assert out["twist1"] == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    assert len(out["twist2"]) == 3
    assert "matrix" not in out and "gram" not in out
    # twisted states export their twists and no permutation
    twisted = build_r(U2, U3, 1).to_json()
    assert "permutation" not in twisted
    U = np.array(twisted["twist1"]) @ np.array([1.0, 1j])
    assert np.max(np.abs(U[0] - 2**-0.5)) <= 1e-15  # first row conj(z)


# ---------------------------------------------------------------------------
# randomized commuting families against the Gram oracle


@st.composite
def unit_vectors(draw, n):
    parts = st.floats(-1.0, 1.0, allow_nan=False)
    z = np.array([complex(draw(parts), draw(parts)) for _ in range(n)])
    assume(np.linalg.norm(z) > 0.1)
    return z / np.linalg.norm(z)


def kron_power(x, k):
    out = np.ones(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, x)
    return out


@st.composite
def commuting_pairs(draw):
    """(x^{[*]a}, x^{[*]b}) for one random unit vector x: the two product
    states are both the state of x^{[*](a+b)}, so the pair commutes."""
    x = draw(unit_vectors(draw(st.integers(2, 3))))
    a, b = draw(st.sampled_from([(1, 1), (1, 2), (2, 1)]))
    depth = draw(st.integers(0, 2 if x.size ** (a + b) <= 9 else 1))
    return GPState(kron_power(x, a)), GPState(kron_power(x, b)), depth


@settings(max_examples=15, deadline=None)
@given(commuting_pairs())
def test_closed_form_matches_the_gram_oracle_on_commuting_pairs(case):
    omega, psi, depth = case
    rmat = build_r(omega, psi, depth)
    oracle = gram_r(omega, psi, depth)
    pairs = [(a, b) for a in range(1, rmat.dims[0] + 1) for b in range(1, rmat.dims[1] + 1)]
    assert oracle.basis.rank == rmat.rank
    (E,) = basis_blocks(rmat.dims)
    closed = rmat.apply_dense(E).reshape(rmat.rank, rmat.rank)
    index = [pairs.index(k) for k in oracle.basis.support]
    dev = np.max(np.abs(oracle.dense_matrix() - closed[np.ix_(index, index)]))
    assert dev <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_generic_pairs_are_rejected_with_a_true_witness(data):
    x = data.draw(unit_vectors(2))
    y = data.draw(unit_vectors(3))
    xy, yx = np.kron(x, y), np.kron(y, x)
    # pairs of the last basis vectors, e.g., do commute; keep generic ones
    assume(np.max(np.abs(xy - yx)) > 1e-6)
    omega, psi = GPState(x), GPState(y)
    with pytest.raises(NotCommuting) as err:
        build_r(omega, psi, 1)
    w = err.value.witness
    # the product values through the interleaved vectors, from the definition
    value = lambda z: np.prod(np.conj(z[np.array(w.u, dtype=int) - 1])) * np.prod(
        z[np.array(w.v, dtype=int) - 1]
    )
    assert abs(value(xy) - value(yx)) > 1e-12


# ---------------------------------------------------------------------------
# whole-operator identities on R_1 against the basis sweep


def _leg_swap_residual(rmat):
    """Worst column of R_1 - F_1, the check `cuntzr all` makes for equal states."""
    n = rmat.omega1.n
    return rmatrix._worst_column(rmat.r1 - _leg_flip(n, n))


def _flip_legs(E):
    return E.transpose(1, 0, 2)


@st.composite
def twisted_powers(draw, count):
    """(e^{i alpha_k} x^{[*]a_k}) for one unit vector x of C^2, a_k in {1, 2}:
    every product of two of them is e^{i(alpha_j + alpha_k)} x^{[*](a_j + a_k)}
    in either order, so they commute pairwise."""
    x = draw(unit_vectors(2))
    phases = st.floats(0.0, 2 * np.pi, allow_nan=False)
    return tuple(
        GPState(np.exp(1j * draw(phases)) * kron_power(x, draw(st.sampled_from([1, 2]))))
        for _ in range(count)
    )


@settings(max_examples=15, deadline=None)
@given(twisted_powers(2))
def test_twisted_powers_pass_symmetry_as_the_sweep_does(pair):
    for depth in (1, 2):
        report = verify_symmetry(*pair, depth)
        oracle = symmetry_oracle(*pair, depth)
        assert report.passed and oracle.passed
        assert report.max_residual <= 1e-12 and oracle.max_residual <= 1e-12
    rmat = build_r(*pair, 2)
    assert verify_intertwining(rmat).passed


@settings(max_examples=10, deadline=None)
@given(twisted_powers(1))
def test_equal_twisted_powers_give_the_leg_swap_on_r1(single):
    (omega,) = single
    for depth in (1, 2):
        rmat = build_r(omega, omega, depth)
        assert _leg_swap_residual(rmat) <= 1e-12
        assert basis_residual(rmat, _flip_legs) <= 1e-12


@settings(max_examples=8, deadline=None)
@given(twisted_powers(3))
def test_twisted_power_triples_pass_ybe(triple):
    assert verify_ybe(*triple, 1).passed


# ---------------------------------------------------------------------------
# the generator step of the conjugation identity against the symbolic action


def _assert_oracle_records(rmat, passed=True):
    # the residual sums the corner and the off-corner part of each column
    # apart, so it may differ from the oracle's sum over the whole grown
    # block by rounding; on permutation pairs every product is exact
    report = verify_intertwining(rmat)
    want = intertwining_oracle.intertwining_records(rmat)
    assert [c.name for c in report.checks] == [name for name, _, _ in want]
    assert [c.passed for c in report.checks] == [ok for _, ok, _ in want]
    for c, (_, _, res) in zip(report.checks, want):
        if rmat.is_permutation:
            assert c.residual == res
        else:
            assert abs(c.residual - res) <= 1e-15 + 1e-13 * res
    assert all(ok for _, ok, _ in want) == passed
    return report


def test_intertwining_records_equal_the_symbolic_oracle():
    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    pairs = (
        (W2, W3), (U2, U3), (U3, U2), (U2, GPState.uniform(5)), (X, XX), (X, X),
        (S1, U2), (U2, S1), (S1, S1),
    )
    for pair in pairs:
        for depth in (1, 2, 3):
            _assert_oracle_records(build_r(*pair, depth))


@settings(max_examples=10, deadline=None)
@given(twisted_powers(2))
def test_intertwining_records_equal_the_symbolic_oracle_on_twisted_powers(pair):
    for depth in (1, 2):
        _assert_oracle_records(build_r(*pair, depth))


def test_the_generator_step_is_the_symbolic_action_of_the_generator():
    rng = np.random.default_rng(18)
    x = np.array([0.6, 0.8j])
    for pair in ((W2, W3), (U2, U3), (GPState(x), GPState(np.kron(x, x))), (S1, U2), (U2, S1)):
        reps = [GPRepresentation.for_state(s) for s in pair]
        n, m = (s.n for s in pair)
        shape = (n**2, m**2, 5)
        batch = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coproducts = (lambda g: phi(n, m, g), lambda g: phi(m, n, g).flip())
        for form, coproduct_of in zip(("delta", "delta_op"), coproducts):
            c1, c2 = rmatrix._letter_images(reps, form)
            out = np.empty((n**3, m**3, n * m, 5), dtype=complex)
            grown = rmatrix._grow_all(batch, c1, c2, out)
            assert grown.shape == (n**3, m**3, n * m, 5)
            for i in range(n * m):
                want = act_dense(reps, coproduct_of(CuntzMonomial.generator(n * m, i + 1)), batch)
                assert np.array_equal(grown[:, :, i], want)


def test_symmetry_on_r1_equals_the_sweep_at_depth_1():
    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    pairs = ((W2, W3), (U2, U3), (U2, GPState.uniform(5)), (X, XX), (XX, X), (X, X))
    for pair in pairs:
        assert verify_symmetry(*pair, 1).max_residual == symmetry_oracle(*pair, 1).max_residual
    for depth in (2, 3):
        assert verify_symmetry(W2, W3, depth).max_residual == 0.0
        assert symmetry_oracle(W2, W3, depth).max_residual == 0.0
        for pair in pairs[1:]:
            assert verify_symmetry(*pair, depth).max_residual <= 1e-12
            assert symmetry_oracle(*pair, depth).max_residual <= 1e-12


def _bump_entry(r1):
    r1[0, 1] += 1e-6


def _scale(r1):
    r1 *= 1.001


@pytest.mark.parametrize("perturb", [_bump_entry, _scale])
def test_perturbed_r1_fails_on_r1_and_in_the_sweep_at_depth_3(perturb):
    x = np.exp(0.4j) * np.array([0.6, 0.8j])
    omega, psi = GPState(x), GPState(np.exp(1.1j) * np.kron(x, x))
    r12 = build_r(omega, psi, 3)
    perturb(r12.r1)
    assert not verify_symmetry(omega, psi, 3, r12=r12).passed
    assert not symmetry_oracle(omega, psi, 3, r12=r12).passed
    equal = build_r(omega, omega, 3)
    perturb(equal.r1)
    assert _leg_swap_residual(equal) > BUILD_TOL
    assert basis_residual(equal, _flip_legs) > BUILD_TOL
    assert not verify_symmetry(omega, omega, 3, r12=equal).passed


def test_symmetry_at_depth_8_under_a_2048_mb_address_space_cap(run_capped):
    # at depth 8 the (2,3) span has 1679616 pairs, and the basis sweep took
    # over 300 s already at depth 6
    out = run_capped("""
        import time
        from cuntzr import GPState, verify_symmetry
        start = time.perf_counter()
        report = verify_symmetry(GPState.uniform(2), GPState.uniform(3), 8)
        print(report.passed, time.perf_counter() - start)
    """, 2048)
    assert out.returncode == 0, out.stderr
    passed, elapsed = out.stdout.split()
    assert passed == "True"
    assert float(elapsed) < 1.0


def test_symmetry_reads_r1_alone_at_depths_10_and_64_under_a_1024_mb_cap(run_capped):
    # the depth-10 span of (2,3) alone needs about 5.5 GiB of dense arrays;
    # the identity is one on R_1, so the residual is depth 1's
    out = run_capped("""
        import time
        from cuntzr import GPState, verify_symmetry
        u2, u3 = GPState.uniform(2), GPState.uniform(3)
        shallow = verify_symmetry(u2, u3, 1).max_residual
        for depth in (10, 64):
            start = time.perf_counter()
            report = verify_symmetry(u2, u3, depth)
            elapsed = time.perf_counter() - start
            print(report.passed, report.max_residual == shallow, elapsed)
    """, 1024)
    assert out.returncode == 0, out.stderr
    for line in out.stdout.splitlines():
        passed, same, elapsed = line.split()
        assert passed == same == "True"
        assert float(elapsed) < 1.0
    assert len(out.stdout.splitlines()) == 2


def test_out_of_domain_carries_its_message_only():
    rmat = build_r(W2, W3, 2)
    cases = [
        (lambda: rmat.apply_dense(np.zeros((2, 3))), "array of shape (2, 3) outside the (4, 9) block"),
        (lambda: verify_intertwining(build_r(W2, W3, 0)),
         "intertwining needs operator depth >= 1, got 0"),
        (lambda: to_dense({(1, 7): 1.0}, (2, 3)), "basis index (1, 7) outside (2, 3)"),
    ]
    for call, message in cases:
        with pytest.raises(OutOfDomain, match=f"^{re.escape(message)}$") as err:
            call()
        assert not hasattr(err.value, "residual")


# ---------------------------------------------------------------------------
# measured residuals


def test_uniform_residuals_are_measured_and_standard_ones_exact():
    for report in (
        verify_intertwining(build_r(U2, U3, 2)),
        verify_ybe(U2, U3, GPState.uniform(2), 1),
        verify_symmetry(U2, U3, 2),
    ):
        assert 0.0 < report.max_residual <= 1e-12
    for report in (
        verify_intertwining(build_r(W2, W3, 2)),
        verify_ybe(W2, W3, W2, 2),
        verify_symmetry(W2, W3, 2),
    ):
        assert report.max_residual == 0.0


def test_standard_checks_fail_on_an_r1_entry_moved_by_1e_15():
    # standard states decide by the exact rule, so a move far below
    # BUILD_TOL fails every verifier that sees the moved entry
    states = (W2, W3, W2)
    rs = _triple_operators(states, 2)
    rs[0].r1[1, 1] += 1e-15
    for report in (
        verify_intertwining(rs[0]),
        verify_symmetry(W2, W3, 2, r12=rs[0]),
        verify_ybe(*states, 2, rs=rs),
    ):
        assert not report.passed
        assert 0.0 < report.max_residual <= 1e-14


@pytest.mark.parametrize("other", [U3, GPState.uniform(5)])
def test_intertwining_fails_on_an_r1_entry_moved_by_1e_6_at_depth_3(other):
    rmat = build_r(U2, other, 3)
    _bump_entry(rmat.r1)
    report = verify_intertwining(rmat)
    assert not report.passed
    assert 1e-7 <= report.max_residual <= 1e-5


def _transpose_e11(r1):
    # left-multiply by the transposition of e_1 (x) e_1 and e_1 (x) e_2
    r1[[0, 1]] = r1[[1, 0]]


@pytest.mark.parametrize("perturb", [_bump_entry, _transpose_e11])
def test_perturbed_intertwining_fails_as_the_symbolic_oracle_does(perturb):
    # an entry moved by 1e-6 reads about 6e-7; the transposition sends the
    # fixed vector e_1 (x) e_1 away, and reads sqrt(2)
    for depth in (2, 3):
        rmat = build_r(U2, U3, depth)
        perturb(rmat.r1)
        report = _assert_oracle_records(rmat, passed=False)
        assert not report.passed
    if perturb is _bump_entry:
        assert 1e-7 <= report.max_residual <= 1e-5
    else:
        assert report.max_residual == pytest.approx(np.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("other", [U3, GPState.uniform(5)])
def test_a_scaled_r1_passes_intertwining_and_fails_the_defining_relation(other):
    # R Delta(x) = Delta^op(x) R is linear in R, so no multiple of R breaks
    # it; the defining relation R v_w = w_w sees the scale
    rmat = build_r(U2, other, 3)
    _scale(rmat.r1)
    assert verify_intertwining(rmat).max_residual <= 1e-15
    assert relation_residual(rmat, 3) == pytest.approx(1.001**3 - 1, rel=1e-9)


def test_intertwining_fails_when_the_opposite_coproduct_is_not_flipped(monkeypatch):
    # with the coproduct on both sides only s_1 and s_6, on which phi_{2,3}
    # and the flipped phi_{3,2} agree, still pass
    split_words = rmatrix.split_words
    monkeypatch.setattr(
        rmatrix, "split_words",
        lambda form, block, W: split_words("delta" if form == "delta_op" else form, block, W),
    )
    report = verify_intertwining(build_r(U2, U3, 3))
    assert [c.passed for c in report.checks] == [True, False, False, False, False, True]
    assert 1.0 <= report.max_residual <= 2.0


def test_relation_residual_measures_the_defining_relation():
    assert relation_residual(build_r(W2, W3, 2), 2) == 0.0
    assert 0.0 < relation_residual(build_r(U2, U3, 2), 2) <= 1e-12
    # the factored form of a noncommuting pair, made without build_r,
    # breaks the relation already on the unit word
    bad = RMatrixOperator(U2, GPState(UnitVector([0.6, 0.8])), 1)
    assert relation_residual(bad, 0) > 0.1


def _streamed_residuals(rmat):
    """Every residual of the two streamed checks on an operator: the
    intertwining records, then the defining relation on the unit word
    alone and on the whole span."""
    records = [c.residual for c in verify_intertwining(rmat).checks]
    return records + [relation_residual(rmat, k) for k in (0, rmat.depth)]


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_streamed_checks_equal_a_one_chunk_run_bit_for_bit(monkeypatch, depth):
    # the default rule streams 18 words a chunk at depth 3 of (2, 3) and 3
    # at depth 4, where 259 and 1555 words leave one word alone in the last
    # chunk; (x, x (x) x) at depth 4 takes one word a chunk, and summed
    # pairwise its defining relation with a moved R_1 entry would differ
    # in the last bits. A one-chunk run there would hold over 1 GiB, so its
    # reference streams 16 words, and only the moved entry is compared
    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    for pair in ((W2, W3), (U2, U3), (X, X), (X, XX)):
        rmat = build_r(*pair, depth)
        wide = 16 * rmat.rank if rmat.rank == 8**4 else 2**40
        # then a moved R_1 entry is measured alike
        for bump in (0.0, 1e-6)[rmat.rank == 8**4:]:
            rmat.r1[0, 1] += bump
            got = _streamed_residuals(rmat)
            monkeypatch.setattr(rmatrix, "_CHUNK_ENTRIES", wide)
            assert got == _streamed_residuals(rmat), (pair, depth, bump)
            monkeypatch.undo()
        assert max(got) >= 1e-7


def test_ybe_streamed_one_word_a_chunk_equals_a_one_chunk_run_bit_for_bit(monkeypatch):
    # (x, x (x) x, x) at depth 2 has a triple block of 256 entries, so 256
    # entries a chunk stream its 273 words one at a time and 2**40 take
    # them in one chunk; a lone word summed pairwise, not row by row,
    # changed 12 of the 273 residuals in the last bits. Depth 1 is left
    # out: there a one-word chunk is one row of the matrix product, which
    # BLAS rounds differently
    x = np.array([0.6, 0.8j])
    states = (GPState(x), GPState(np.kron(x, x)), GPState(x))
    rs = _triple_operators(states, 2)
    for bump in (0.0, 1e-6):  # then a moved R_1 entry is measured alike
        rs[0].r1[0, 1] += bump
        runs = []
        for entries in (256, 2**40):
            monkeypatch.setattr(rmatrix, "_CHUNK_ENTRIES", entries)
            report = verify_ybe(*states, 2, rs=rs)
            runs.append([(c.name, c.passed, c.residual.hex()) for c in report.checks])
        assert len(runs[0]) == 273 and runs[0] == runs[1], bump
        assert report.max_residual > 0.0


def test_word_labels_name_every_creation_word_by_length_then_lex():
    # O_1 words collapse to the unit, as in label()
    for N, depth in ((1, 0), (1, 3), (2, 1), (3, 3), (12, 2)):
        assert list(rmatrix._word_labels(N, depth)) == [
            CuntzMonomial(N, w, ()).label() for w in creation_words(N, depth)
        ]


def test_check_keeps_a_witness_only_on_failure_and_fails_nan_on_both_paths():
    nan = float("nan")
    report = VerificationReport("rule")
    for name, residual, exact in (
        ("within", 1e-9, False), ("past", 2e-9, False), ("nan", nan, False),
        ("zero", 0.0, True), ("subnormal", 5e-324, True), ("exact-nan", nan, True),
    ):
        report.check(name, residual, 1e-9, exact, witness=f"w-{name}")
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        ("within", True, None), ("past", False, "w-past"), ("nan", False, "w-nan"),
        ("zero", True, None), ("subnormal", False, "w-subnormal"),
        ("exact-nan", False, "w-exact-nan"),
    ]
    # the per-word records: the same rule on an array at once, NaN failing
    residuals = np.array([0.0, 1e-9, nan, 5e-324])
    assert holds(residuals, 1e-9).tolist() == [True, True, False, True]
    assert holds(residuals, 1e-9, True).tolist() == [True, False, False, False]
    report = VerificationReport("words")
    report.check_each(iter("abcd"), residuals, 1e-9, exact=True)
    assert [(c.name, c.passed, c.witness) for c in report.checks] == [
        ("a", True, None), ("b", False, None), ("c", False, None), ("d", False, None),
    ]
    assert [type(c.residual) for c in report.checks] == [float] * 4


# ---------------------------------------------------------------------------
# operator reuse


def _counting_build_r(monkeypatch):
    calls = []
    original = rmatrix.build_r

    def counted(omega1, omega2, depth):
        calls.append((omega1, omega2, depth))
        return original(omega1, omega2, depth)

    monkeypatch.setattr(rmatrix, "build_r", counted)
    monkeypatch.setattr(cli, "build_r", counted)
    return calls


def test_ybe_builds_each_distinct_pair_once(monkeypatch):
    calls = _counting_build_r(monkeypatch)
    x = np.array([0.6, 0.8j])
    X, XX = GPState(x), GPState(np.kron(x, x))
    assert verify_ybe(X, X, XX, 1).passed
    assert len(calls) == 2  # R(x, x) and R(x, x[*]x), which is also R13
    calls.clear()
    assert verify_ybe(U3, U2, U2, 1).passed
    assert len(calls) == 2  # R12 = R13


def test_symmetry_reuses_the_operator(monkeypatch):
    calls = _counting_build_r(monkeypatch)
    assert verify_symmetry(W2, W2, 2).passed
    assert calls == [(W2, W2, 0)]  # only R_1 is read
    calls.clear()
    code = cli.main(["verify", "--omega1", '{"uniform": 2}',
                     "--omega2", '{"uniform": 3}', "--depth", "1"])
    assert code == 0
    # the reversed pair is built at depth 0
    assert [(c[0].n, c[1].n, c[2]) for c in calls] == [(2, 3, 1), (3, 2, 0)]


# ---------------------------------------------------------------------------
# memory preflight


def _address_space_limit(monkeypatch, nbytes):
    import resource

    monkeypatch.setattr(resource, "getrlimit", lambda which: (nbytes, nbytes))


def test_oversized_spans_fail_fast_with_the_estimate(monkeypatch):
    with pytest.raises(SpanTooLarge) as err:
        build_r(W2, W3, 16)  # 6^16 pairs: hundreds of terabytes of arrays
    assert isinstance(err.value, MemoryError)
    assert err.value.nbytes > err.value.limit
    assert "MiB" in str(err.value)
    # at depth 8 a chunk is one span vector grown to 6^9 entries, but the
    # leg images of the 335923 span words up to length 7 fill 10.2 GiB:
    # sum of 6^t (2^t + 3^t) entries, held once, beside R_1
    _address_space_limit(monkeypatch, 2048 * 2**20)
    rmat = build_r(W2, W3, 8)
    # a refused check has drawn no chunk and built no side
    drawn = []
    for name in ("_word_images", "_on_legs"):
        monkeypatch.setattr(rmatrix, name, lambda *args, name=name, **kwargs: drawn.append(name))
    legs = sum(6**t * (2**t + 3**t) for t in range(8))
    with pytest.raises(SpanTooLarge, match="^the intertwining check needs") as err:
        verify_intertwining(rmat)
    assert err.value.nbytes == 16 * (6 * 6**9 + legs + 36)
    assert 16 * legs > 10 * 2**30 > err.value.limit
    # the defining relation streams both forms' images, one word at a time
    legs = sum(6**t * (2**t + 3**t) for t in range(9))
    with pytest.raises(SpanTooLarge, match="^the defining-relation check needs") as err:
        relation_residual(rmat, 8)
    assert err.value.nbytes == 16 * (6 * 6**8 + 2 * legs + 36)
    # the 27000 x 27000 sides of a triple of C^30 states, beside three
    # one-entry leg images per form and the three 900 x 900 R_1
    U30 = GPState.uniform(30)
    sides = "^the 27000 x 27000 sides of the triple exchange check needs"
    with pytest.raises(SpanTooLarge, match=sides) as err:
        verify_ybe(U30, U30, U30, 0)
    assert err.value.nbytes == 16 * (6 * 27000**2 + 3 * 3 + 3 * 900**2)
    # (2, 3, 2) at depth 6, on the leg images of its three forms
    legs = sum(12**t * (2 * 2**t + 3**t) for t in range(7))
    with pytest.raises(SpanTooLarge, match="^the triple exchange check needs") as err:
        verify_ybe(U2, U3, U2, 6)
    assert err.value.nbytes == 16 * (6 * 3 * 2**6 * 3**6 * 2**6 + 3 * legs + 36 + 16 + 36)
    assert drawn == []


def test_r1_and_the_triple_sides_are_preflighted_under_a_1024_mb_cap(run_capped):
    # R_1 of two C^100 states has 10^8 entries (1.49 GiB), past the cap
    # though the depth-1 span has 10^4; the sides of a triple of C^30
    # states are 27000 x 27000 (11 GiB), though each pair's R_1 is 900 x 900.
    # Each refusal comes before any array of that size: the traced peak of
    # each call stays under 128 MiB
    out = run_capped("""
        import tracemalloc
        from cuntzr import GPState, build_r, verify_ybe
        from cuntzr.cli import main
        from cuntzr.errors import SpanTooLarge
        U = GPState.uniform
        tracemalloc.start()
        for call in (lambda: build_r(U(100), U(100), 1), lambda: build_r(U(100), U(100), 0),
                     lambda: verify_ybe(U(30), U(30), U(30), 0)):
            tracemalloc.reset_peak()
            try:
                call()
            except SpanTooLarge as exc:
                print(exc, tracemalloc.get_traced_memory()[1] < 2**27)
        print(main(["build-r", "--omega1", '{"uniform": 100}', "--omega2", '{"uniform": 100}',
                    "--depth", "1"]))
    """, 1024)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert [(line.split(" needs")[0], line.split()[-1]) for line in lines[:3]] == [
        ("the 10000 x 10000 matrix R_1", "True"), ("the 10000 x 10000 matrix R_1", "True"),
        ("the 27000 x 27000 sides of the triple exchange check", "True"),
    ]
    assert lines[3:] == ["2"]
    assert out.stderr.startswith("error: the 10000 x 10000 matrix R_1 needs about")
    assert "MiB of dense arrays" in out.stderr


def test_intertwining_estimate_counts_the_grown_block(monkeypatch):
    # at depth 2 of (2, 3) the 7 span vectors have 36 entries each under R,
    # and 6^3 = 216 once a generator's opposite coproduct has grown them;
    # all 7 fit one chunk, and the leg images (1 + 1 entries of the unit,
    # 6 * (2 + 3) of the letters) and R_1 (36) are held once beside it.
    # A limit of 100 entries per vector (6 working copies of 16 bytes) must
    # stop the check before anything is allocated
    rmat = build_r(W2, W3, 2)
    assert rmatrix._leg_entries((rmat.rep1, rmat.rep2), 1) == 2 + 30
    _address_space_limit(monkeypatch, 6 * 16 * 7 * 100)
    with pytest.raises(SpanTooLarge) as err:
        verify_intertwining(rmat)
    assert err.value.nbytes == 16 * (6 * 7 * 216 + 32 + 36)


def test_intertwining_at_depth_4_under_a_2048_mb_address_space_cap(run_capped):
    # the depth-4 check of (2,3) grows 259 span vectors to 6^5 entries for
    # each of the 6 generators, 3 vectors a chunk; the whole grown span
    # would have needed 6642 MiB. Depth 8 is refused on the leg images of
    # its span before anything large is made: the traced peak of the
    # refused call stays under 128 MiB
    out = run_capped("""
        import tracemalloc
        from cuntzr import GPState, SpanTooLarge, build_r, verify_intertwining
        U2, U3 = GPState.uniform(2), GPState.uniform(3)
        report = verify_intertwining(build_r(U2, U3, 4))
        print(report.passed, len(report.checks), report.max_residual)
        tracemalloc.start()
        try:
            verify_intertwining(build_r(U2, U3, 8))
        except SpanTooLarge:
            print("refused", tracemalloc.get_traced_memory()[1] < 2**27)
    """, 2048)
    assert out.returncode == 0, out.stderr
    verdict, refused = out.stdout.splitlines()
    passed, count, residual = verdict.split()
    assert (passed, count, refused) == ("True", "6", "refused True")
    assert float(residual) <= 1e-15


def test_depth_5_checks_pass_under_a_2048_mb_address_space_cap(run_capped):
    # 1555 span words of 6^5 = 7776 entries: one word a chunk. The
    # intertwining check and the defining relation each pass within 15 s
    # (one BLAS thread), and an R_1 entry moved by 1e-6 fails the former
    out = run_capped("""
        import time
        from cuntzr import GPState, build_r, verify_intertwining
        from cuntzr.rmatrix import relation_residual
        rmat = build_r(GPState.uniform(2), GPState.uniform(3), 5)
        for check in (lambda: verify_intertwining(rmat), lambda: relation_residual(rmat, 5)):
            start = time.perf_counter()
            result = check()
            print(getattr(result, "max_residual", result), time.perf_counter() - start < 15)
        rmat.r1[0, 1] += 1e-6
        report = verify_intertwining(rmat)
        print(report.passed, report.max_residual)
    """, 2048)
    assert out.returncode == 0, out.stderr
    intertwining, relation, bumped = (line.split() for line in out.stdout.splitlines())
    assert float(intertwining[0]) <= 1e-15 and float(relation[0]) <= 1e-14
    assert intertwining[1] == relation[1] == "True"
    assert bumped[0] == "False" and float(bumped[1]) >= 1e-7


def test_ybe_at_depth_6_is_refused_before_any_large_array(run_capped):
    # a chunk of (2, 3, 2) at depth 6 is one word of 2^6 3^6 2^6 entries,
    # but each of the three forms keeps leg images of sum 12^t (2 2^t + 3^t)
    # entries, 2^31 of them at t = 6: numpy ran out of memory after 9 s
    # before these were counted
    out = run_capped("""
        import tracemalloc
        from cuntzr import GPState, SpanTooLarge, verify_ybe
        U2, U3 = GPState.uniform(2), GPState.uniform(3)
        tracemalloc.start()
        try:
            verify_ybe(U2, U3, U2, 6)
        except SpanTooLarge as exc:
            print(exc.nbytes, tracemalloc.get_traced_memory()[1] < 2**27)
    """, 2048)
    assert out.returncode == 0, out.stderr
    nbytes, small = out.stdout.split()
    legs = sum(12**t * (2 * 2**t + 3**t) for t in range(7))
    assert int(nbytes) == 16 * (6 * 3 * 2**6 * 3**6 * 2**6 + 3 * legs + 36 + 16 + 36)
    assert small == "True"


def test_oversized_build_exits_2(capsys):
    code = cli.main(["build-r", "--omega1", '{"standard": 2}',
                     "--omega2", '{"standard": 3}', "--depth", "16"])
    assert code == 2
    assert "MiB of dense arrays" in capsys.readouterr().err


def test_depth_8_builds_and_applies_under_a_2048_mb_address_space_cap(run_capped):
    # the (2,3) span at depth 8 has 1679616 pairs
    out = run_capped("""
        from cuntzr import GPState, build_r
        rmat = build_r(GPState.standard(2), GPState.standard(3), 8)
        image = rmat.apply({(256, 6561): 1.0, (1, 2): 2.0})
        print(rmat.rank, sorted(image.items()))
    """, 2048)
    assert out.returncode == 0, out.stderr
    a, b = swap_index_pair(2, 3, 256, 6561, 8), swap_index_pair(2, 3, 1, 2, 8)
    assert out.stdout.split(" ", 1) == [
        "1679616", f"{sorted([(a, 1 + 0j), (b, 2 + 0j)])}\n"
    ]
