"""The numerical Gram construction of R, kept as an independent test oracle.

This is how the operator was first built, and it assumes nothing about the
factored form: the image of every embedded creation word up to a depth is
computed as a dict vector, the exact Gram matrix of those images is
orthonormalized by pivoted Cholesky, and R is the matrix, in those
orthonormal coordinates, of the map v_w -> w_w (coproduct image to
opposite-coproduct image) after the two Gram matrices are checked equal.
Everything is dense in the number of words, so it is meant for depth <= 3.

For a Hermitian positive semidefinite G with G[i, j] = <v_i, v_j> the
factorization returns, up to the numerical rank r:

    pivots p_0 .. p_{r-1}   greedily chosen column indices,
    coords M (r x N) with   M[k, i] = <q_k, v_i>,
    combos C (r x N) with   q_k = sum_i C[k, i] v_i,

where q_0 .. q_{r-1} is the orthonormal sequence Gram-Schmidt produces from
the pivot columns. So G = M^H M up to the rank cutoff, M = conj(C) @ G and
conj(C) @ G @ C^T = I_r.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from cuntzr.algebra import CuntzMonomial
from cuntzr.coproduct import delta, delta_op
from cuntzr.errors import OutOfDomain
from cuntzr.representations import (
    GPRepresentation,
    creation_words,
    lambda2,
)
from cuntzr.states import commutes

RANK_TOL = 1e-10  # residual-diagonal cutoff for rank decisions
AMP_TOL = 1e-13   # amplitudes at or below this magnitude are dropped from vectors
TOL = 1e-9        # Gram equality, unitarity and domain projection


def orthonormalize_gram(G, tol=RANK_TOL):
    """Pivoted orthonormalization of a Hermitian PSD Gram matrix.

    Returns (rank, pivots, coords, combos) as described in the module
    docstring.
    """
    G = np.ascontiguousarray(G, dtype=np.complex128)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {G.shape}")
    N = G.shape[0]
    d = np.real(np.diag(G)).copy()
    M = np.zeros((N, N), dtype=complex)
    C = np.zeros((N, N), dtype=complex)
    piv = np.empty(N, dtype=np.int64)
    r = 0
    while r < N:
        p = int(np.argmax(d))
        if d[p] <= tol:
            break
        rk = np.sqrt(d[p])
        if r:
            row = G[p] - M[:r, p].conj() @ M[:r]
            crow = -(M[:r, p] @ C[:r])
            crow[p] += 1.0
        else:
            row = G[p].copy()
            crow = np.zeros(N, dtype=complex)
            crow[p] = 1.0
        M[r] = row / rk
        C[r] = crow / rk
        d -= np.abs(M[r]) ** 2
        d[p] = -1.0
        piv[r] = p
        r += 1
    return r, piv[:r].copy(), M[:r].copy(), C[:r].copy()


def vec_norm(a):
    return float(np.sqrt(sum(abs(v) ** 2 for v in a.values())))


def vec_dist(a, b):
    """Norm of a - b for dict vectors; no entry of the difference is
    dropped, however small."""
    diff = dict(a)
    for k, v in b.items():
        diff[k] = diff.get(k, 0j) - v
    return vec_norm(diff)


def pack_vectors(vectors, support=None):
    """Dense amplitude matrix of a vector list over a common sorted support.

    Returns (support, A) with A[s, i] the amplitude of vectors[i] at
    support[s].
    """
    if support is None:
        keys = set()
        for vec in vectors:
            keys.update(vec)
        support = sorted(keys)
    index = {k: s for s, k in enumerate(support)}
    A = np.zeros((len(support), len(vectors)), dtype=complex)
    for i, vec in enumerate(vectors):
        for k, a in vec.items():
            A[index[k], i] = a
    return support, A


@dataclass
class SpanBasis:
    """Images of embedded creation words with exact Gram data.

    ``vectors[i]`` is the image of the coproduct of the i-th creation word
    under the legwise vector maps of the state pair; ``gram`` collects the
    exact pairwise inner products; ``combos`` come from the pivoted
    orthonormalization.
    """

    rep1: GPRepresentation
    rep2: GPRepresentation
    words: list
    vectors: list
    support: list
    amat: np.ndarray
    gram: np.ndarray
    rank: int
    combos: np.ndarray
    _index: dict = field(repr=False, default=None)

    def __post_init__(self):
        self._index = {k: s for s, k in enumerate(self.support)}

    def dense(self, vec):
        """Amplitudes over the stored support; off-support mass is dropped
        here and shows up in :meth:`coordinates_of` as residual."""
        out = np.zeros(len(self.support), dtype=complex)
        for k, a in vec.items():
            s = self._index.get(k)
            if s is not None:
                out[s] = a
        return out

    def coordinates_of(self, vec):
        """Orthonormal coordinates of a vector and its off-span residual."""
        b = self.amat.conj().T @ self.dense(vec)
        y = self.combos.conj() @ b
        residual = vec_dist(vec, self.from_coordinates(y))
        return y, float(residual)

    def from_coordinates(self, y):
        """The vector with the given orthonormal coordinates, as a dict."""
        dense = self.amat @ (self.combos.T @ y)
        return {
            k: complex(dense[s])
            for s, k in enumerate(self.support)
            if abs(dense[s]) > AMP_TOL
        }

    def orthobasis_vector(self, a):
        y = np.zeros(self.rank, dtype=complex)
        y[a] = 1.0
        return self.from_coordinates(y)


def word_images(rep1, rep2, depth, opposite=False):
    """Images of the (opposite) coproducts of all creation words up to depth."""
    N = rep1.n * rep2.n
    op = delta_op if opposite else delta
    words = creation_words(N, depth)
    return words, [lambda2(rep1, rep2, op(CuntzMonomial(N, w, ()))) for w in words]


def span_basis(omega1, omega2, depth, rank_tol=RANK_TOL):
    """Images of all creation words up to ``depth`` with Gram data."""
    rep1 = GPRepresentation.for_state(omega1)
    rep2 = GPRepresentation.for_state(omega2)
    words, vectors = word_images(rep1, rep2, depth)
    support, A = pack_vectors(vectors)
    gram = A.conj().T @ A
    rank, _, _, combos = orthonormalize_gram(gram, tol=rank_tol)
    return SpanBasis(rep1, rep2, words, vectors, support, A, gram, int(rank), combos)


@dataclass
class GramR:
    """R as a matrix in the orthonormal coordinates of a span basis."""

    basis: SpanBasis
    matrix: np.ndarray

    def apply(self, vec, tol=TOL):
        y, residual = self.basis.coordinates_of(vec)
        if residual > tol * max(1.0, vec_norm(vec)):
            raise OutOfDomain(f"projection residual {residual:.3e} exceeds tolerance")
        return self.basis.from_coordinates(self.matrix @ y)

    def dense_matrix(self):
        """R on the sorted support of the span, as a dense matrix."""
        A, C = self.basis.amat, self.basis.combos
        return A @ (C.T @ (self.matrix @ (C.conj() @ A.conj().T)))


def gram_r(omega1, omega2, depth, tol=TOL):
    """R of a commuting pair through Gram equality and pivoted Cholesky."""
    ok, witness = commutes(omega1, omega2)
    assert ok, f"pair does not commute, witness {witness.label()}"
    basis = span_basis(omega1, omega2, depth)
    _, wvecs = word_images(basis.rep1, basis.rep2, depth, opposite=True)
    keys = set(basis.support)
    for vec in wvecs:
        keys.update(vec)
    support = sorted(keys)
    _, A = pack_vectors(basis.vectors, support)
    _, B = pack_vectors(wvecs, support)
    gram_residual = float(np.max(np.abs(basis.gram - B.conj().T @ B)))
    assert gram_residual <= tol, f"Gram matrices differ by {gram_residual:.3e}"
    C = basis.combos
    matrix = C.conj() @ (A.conj().T @ B) @ C.T
    unitarity = float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(basis.rank))))
    assert unitarity <= tol, f"R is not unitary: {unitarity:.3e}"
    return GramR(basis, matrix)

