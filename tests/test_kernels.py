"""The pivoted Gram orthonormalization of the test oracle (gram_oracle)."""

import numpy as np
import pytest

from gram_oracle import orthonormalize_gram


def random_gram(rng, n, rank):
    x = rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))
    return x.conj().T @ x


def check_factorization(G, rank, pivots, M, C, rank_expected=None):
    n = G.shape[0]
    if rank_expected is not None:
        assert rank == rank_expected
    assert M.shape == (rank, n) and C.shape == (rank, n)
    assert len(set(pivots.tolist())) == rank
    # the orthonormality of the produced basis, in Gram arithmetic
    qq = C.conj() @ G @ C.T
    assert np.max(np.abs(qq - np.eye(rank))) <= 1e-9
    # coords are the Gram images of the combinations
    assert np.max(np.abs(M - C.conj() @ G)) <= 1e-9
    # the factorization reproduces the Gram matrix up to the rank cutoff
    assert np.max(np.abs(G - M.conj().T @ M)) <= 1e-8


@pytest.mark.parametrize("n,rank", [(5, 5), (12, 7), (40, 40), (40, 13)])
def test_factorization_identities(n, rank):
    rng = np.random.default_rng(n * 100 + rank)
    G = random_gram(rng, n, rank)
    out = orthonormalize_gram(G)
    check_factorization(G, *out, rank_expected=rank)
    assert out[0] == np.linalg.matrix_rank(G, tol=1e-8)


def test_duplicate_columns_reduce_rank():
    rng = np.random.default_rng(3)
    G0 = random_gram(rng, 4, 4)
    # duplicate a vector: Gram grows but rank does not
    E = np.zeros((5, 4))
    E[:4, :4] = np.eye(4)
    E[4, 2] = 1.0
    G = E @ G0 @ E.T
    rank, pivots, M, C = orthonormalize_gram(G)
    check_factorization(G, rank, pivots, M, C, rank_expected=4)


def test_zero_matrix_has_rank_zero():
    rank, pivots, M, C = orthonormalize_gram(np.zeros((3, 3), dtype=complex))
    assert rank == 0 and pivots.size == 0


def test_exact_integer_grams_stay_exact():
    # permutation-like Gram of exact basis vectors: all outputs are 0/1
    G = np.eye(6, dtype=complex)
    G[0, 3] = G[3, 0] = 1.0  # a duplicated vector
    G[3, 3] = 1.0
    rank, pivots, M, C = orthonormalize_gram(G)
    assert rank == 5
    assert set(np.unique(np.abs(M))) <= {0.0, 1.0}


def test_rejects_non_square():
    with pytest.raises(ValueError):
        orthonormalize_gram(np.zeros((2, 3), dtype=complex))
