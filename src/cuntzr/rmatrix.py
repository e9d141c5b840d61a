"""Construction and verification of the swap-implementing unitaries.

For a pair of commuting states, the image v_w of each embedded creation
word under the coproduct and the image w_w under the opposite coproduct
have identical Gram matrices, so v_w -> w_w extends to a unitary R on the
common span. For the vector states here the images of the creation words
of one length d are orthonormal and span the coordinate block
C^{n^d} (x) C^{m^d}, and each leg's images are the columns of the d-fold
tensor power of the leg twist U_k with the digits reversed. So R is the
d-th tensor power of one nm x nm matrix,

    R = R_1^{(x)d},    R_1 = (U_1 (x) U_2) P (U_1 (x) U_2)^H,

with one copy of R_1 on each digit pair (digit k of leg 1, digit k of
leg 2) of the coordinate block. P is the depth-1 re-split: the digit pair
(i, j) is read as the letter p = m*i + j of O_{nm}, re-split as
p = n*a + b, and stored as (b, a). It is held once, as the integer index
array ``radix_perm(n, m)``: R_1 is one column gather of the twist, and the
leg flip, the closed form ``swap_index_pair`` and the exported basis-pair
permutation all read the same array. R_1 fixes e_1 (x) e_1, so R at depth
d + 1 restricts to R at depth d on the smaller block. The operator keeps
R_1 and the depth. One digit kernel, ``_apply_digits``, applies a square
matrix to every digit tuple of an array whose k leading axes are legs of
r_i^d entries: d small matrix products between one interleaving transpose
and its inverse. R on a pair of legs is R_1 through it, k = 2. On a triple
of legs each side of the Yang-Baxter identity is a product of three R's,
so it too acts on every digit triple as one abc x abc matrix, built once
from the three R_1, and goes through the same kernel, k = 3. Every state
takes this one path; for standard states R_1 is a 0/1 matrix, and
products with it are exact, so their checks pass only at residual exactly
0 (``algebra.holds``).

The verifiers check everything the construction promises: the
conjugation identity carrying the coproduct to its opposite and the
triple-product exchange identity on span vectors at the requested depth,
the latter against an independent symbolic expansion of the double
opposite coproduct, and the inversion symmetry through the leg flip on
R_1. The flip C^n (x) C^m -> C^m (x) C^n is the radix permutation P_{m,n}
on every digit pair, so an identity among R's and flips holds at depth d
exactly when it holds for R_1; and since R_1 fixes e_1 (x) e_1, R is the
identity, or the flip, exactly when R_1 is. A pair or triple of
representations sees only the block of its algebra indices, so the
verifiers expand only that block. The image of a creation word under a
coproduct is a product vector: each leg gets the word's digits there, and
a leg word u_1 ... u_t maps e_1 to
U[:, u_t] (x) ... (x) U[:, u_1], a column of the t-fold tensor power of
its twist. So the word images are built one word length at a time: the
words of that length, stacked as an integer array, are split on the block
of the representations by one gather per leg from the cached table of the
coproduct form (``coproduct.split_words``: the table that ``delta``,
``phi`` and the double coproducts read); each leg's images are gathered
twist columns, and the block is their tensor product. The verifiers apply
R to whole batches of vectors at once, the exchange check each of its two
sides once per chunk of words of bounded size, and measure residuals on
the unpruned dense differences. The generators of the conjugation
identity act the same way: a one-letter word splits to one digit per leg
(none on an O_1 leg), so a generator grows each leg of a batch by one
least significant digit and multiplies in that letter's twist column
there. All N generators grow a batch at once, along a new generator axis,
so R is applied once to the grown span. A fixed counterexample scenario
shows how the construction degenerates for a noncommuting pair.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import BUILD_TOL, CuntzMonomial, holds
from .coproduct import delta, delta_op, split_words
from .errors import NotCommuting, OutOfDomain
from .representations import (
    GPRepresentation,
    act_dense,
    creation_words,
    from_dense,
    pad_to,
    pair_to_list,
    preflight,
    to_dense,
)
from .states import GPState, commutes, star_gap, twist_state


@dataclass
class CheckRecord:
    """One named verification with its pass flag and worst residual."""

    name: str
    passed: bool
    residual: float
    witness: str = None

    def to_json(self):
        out = {
            "name": self.name,
            "pass": bool(self.passed),
            "residual": float(self.residual),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class VerificationReport:
    """A scenario id with its list of checks."""

    scenario: str
    checks: list = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self):
        return max((c.residual for c in self.checks), default=0.0)

    def add(self, name, passed, residual, witness=None):
        self.checks.append(CheckRecord(name, bool(passed), float(residual), witness))


# ---------------------------------------------------------------------------
# the factored operator


def radix_perm(n, m):
    """The re-split sigma of the letters of O_{nm}, as an index array of
    length nm: the letter p = m*i + j (digit pair (i, j)) is read as
    p = n*a + b and stored as the digit pair (b, a), at sigma(p) = m*b + a.
    As a matrix, P = I[:, sigma]; the leg flip C^n (x) C^m -> C^m (x) C^n is
    P_{m,n}, and radix_perm(m, n) inverts radix_perm(n, m)."""
    p = np.arange(n * m)
    return m * (p % n) + p // n


def _resplit_pairs(n, m, a, b, length, sigma):
    """The 0-based basis pair (a, b), ints or integer arrays, re-split digit
    pair by digit pair through ``sigma`` (``radix_perm(n, m)``): digit k of
    a (base n) and digit k of b (base m) form the letter m*i + j, whose image
    gives digit k of each new index. Python ints and a list ``sigma`` keep
    the arithmetic exact at any length."""
    a2 = b2 = 0 * a  # an array for arrays, also at length 0
    for k in reversed(range(length)):
        i, j = divmod(sigma[m * (a // n**k % n) + b // m**k % m], m)
        a2, b2 = a2 * n + i, b2 * m + j
    return a2, b2


def swap_index_pair(n, m, a, b, length):
    """Closed-form image of the basis pair (e_a, e_b) for standard states.

    The base-n digits of a-1 and base-m digits of b-1 zip to word letters
    w = m*(i-1) + j; each letter is re-split as w = n*(i'-1) + j' and the
    digit strings are reassembled, base-n from the j' and base-m from the
    i'. Padding with leading units leaves the image unchanged, so the map
    is consistent across lengths. Raises ValueError for a pair outside the
    block [1, n^length] x [1, m^length].
    """
    if not (1 <= a <= n**length and 1 <= b <= m**length):
        raise ValueError(f"basis pair ({a}, {b}) outside the block ({n}^{length}, {m}^{length})")
    a2, b2 = _resplit_pairs(n, m, a - 1, b - 1, length, radix_perm(n, m).tolist())
    return a2 + 1, b2 + 1


def _apply_digits(M, X, radices, depth):
    """M applied to every digit tuple of X.

    The k leading axes of X have sizes r_i^depth for the radices r_i; the
    rest is batch. M is square of size prod(radices) and acts on the tuple
    (digit j of leg 1, ..., digit j of leg k), leg 1 most significant, the
    same for every j: one interleaving transpose, ``depth`` matrix
    products, one de-interleave.
    """
    k, d = len(radices), depth
    # digit tuple j (digit j of each leg) as axis j, the batch last
    Y = X.reshape(tuple(r for r in radices for _ in range(d)) + (-1,))
    Y = Y.transpose([i * d + j for j in range(d) for i in range(k)] + [k * d])
    for _ in range(d):
        # M on the leading digit tuple, which moves to the back: one matrix
        # product on a view, so the batch ends up in front
        Y = Y.reshape(len(M), -1).T @ M.T
    legs = [1 + j * k + i for i in range(k) for j in range(d)]
    return Y.reshape((-1,) + tuple(radices) * d).transpose(legs + [0]).reshape(X.shape)


class RMatrixOperator:
    """The swap-implementing unitary on the depth-d span, as R_1 and d.

    ``r1`` is the nm x nm matrix R_1 = (U_1 (x) U_2) P (U_1 (x) U_2)^H, and
    the operator is its d-th tensor power on the digit pairs.
    ``apply_dense`` maps arrays of shape (n^d, m^d, *batch), the whole span,
    and raises OutOfDomain for any other shape; ``apply`` is its adapter for
    pair-indexed dict vectors, which the benchmark still calls.
    """

    def __init__(self, omega1, omega2, depth):
        self.omega1 = omega1
        self.omega2 = omega2
        self.depth = int(depth)
        self.rep1 = GPRepresentation.for_state(omega1)
        self.rep2 = GPRepresentation.for_state(omega2)
        n, m = omega1.n, omega2.n
        T = (self.rep1.U[:, None, :, None] * self.rep2.U[:, None]).reshape(n * m, n * m)
        self.r1 = T[:, radix_perm(n, m)] @ T.conj().T

    @property
    def shape(self):
        return (self.omega1.n, self.omega2.n)

    @property
    def dims(self):
        """Leg dimensions (n^d, m^d) of the coordinate block."""
        return (self.omega1.n**self.depth, self.omega2.n**self.depth)

    @property
    def rank(self):
        return (self.omega1.n * self.omega2.n) ** self.depth

    @property
    def is_permutation(self):
        return self.rep1.is_standard and self.rep2.is_standard

    @property
    def unitarity_residual(self):
        """Worst entry of R_1^H R_1 - I."""
        dev = self.r1.conj().T @ self.r1 - np.eye(len(self.r1))
        return float(np.max(np.abs(dev)))

    def apply_dense(self, X):
        """R applied to an array of shape (n^d, m^d, *batch)."""
        X = np.asarray(X)
        if X.shape[:2] != self.dims:
            raise OutOfDomain(
                float(np.linalg.norm(X)),
                f"array of shape {X.shape} outside the {self.dims} block",
            )
        return _apply_digits(self.r1, X, self.shape, self.depth)

    def apply(self, vec):
        """Image of a pair-indexed dict vector; exact zeros are left out."""
        return from_dense(self.apply_dense(to_dense(vec, self.dims)))

    def _permutation_rows(self):
        """Rows [a, b, a', b'] of the basis-pair permutation, sorted by (a, b)."""
        n, m = self.shape
        a, b = np.divmod(np.arange(self.rank), self.dims[1])
        a2, b2 = _resplit_pairs(n, m, a, b, self.depth, radix_perm(n, m))
        return np.stack([a, b, a2, b2], axis=1) + 1

    def to_json(self):
        """Export form: states, depth, rank, both twists, and for standard
        states the basis-pair permutation."""

        def cpx_matrix(M):
            return [[[float(c.real), float(c.imag)] for c in row] for row in M]

        out = {
            "omega1": self.omega1.to_json(),
            "omega2": self.omega2.to_json(),
            "depth": self.depth,
            "rank": self.rank,
            "twist1": cpx_matrix(self.rep1.U),
            "twist2": cpx_matrix(self.rep2.U),
        }
        if self.is_permutation:
            out["permutation"] = self._permutation_rows().tolist()
        return out


def _word_count(letters, depth):
    """Number of creation words of length <= depth over ``letters`` letters."""
    return sum(letters**t for t in range(depth + 1))


def _column_norms(diff):
    """Norm of each column of a difference batch (..., k)."""
    return np.linalg.norm(diff.reshape(-1, diff.shape[-1]), axis=0)


def _worst_column(diff):
    """Largest norm of a column of a difference batch (p, q, k)."""
    return float(np.max(_column_norms(diff))) if diff.size else 0.0


def _worst_gap(A, B):
    """Largest column norm of A - B, both batches (p, q, k) zero-padded to
    their common leading shape."""
    lead = np.maximum(A.shape[:-1], B.shape[:-1])
    diff = pad_to(A, lead)
    diff[tuple(map(slice, B.shape))] -= B
    return _worst_column(diff)


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


def _word_images(reps, form, words, dims):
    """Images of the cyclic vector e_1 (x) ... (x) e_1 under the coproduct
    ``form`` (a form name of ``coproduct.split_words``) of the creation
    words ``words``, sorted by length, zero-padded to the block ``dims`` and
    stacked along a trailing axis.

    A pair or triple of representations sees only the block of their
    algebra indices. The words of each length are split together on that
    block, each leg's images are the rows of :func:`_leg_images`, and the
    block of the length is their tensor product, one ``einsum``.
    """
    out = np.zeros((*dims, len(words)), dtype=complex)
    indices = tuple(rep.n for rep in reps)
    legs = "abc"[:len(reps)]
    spec = ",".join("k" + leg for leg in legs) + "->" + legs + "k"
    start = 0
    for _, group in itertools.groupby(words, len):
        W = np.array(list(group), dtype=np.intp)
        split = split_words(form, indices, W)
        images = [_leg_images(rep.U, digits) for rep, digits in zip(reps, split)]
        block = (*(slice(X.shape[1]) for X in images), slice(start, start + len(W)))
        np.einsum(spec, *images, out=out[block])  # written in place, no temporary block
        start += len(W)
    return out


def build_r(omega1, omega2, depth):
    """Construct the swap-implementing unitary for a commuting state pair.

    Raises NotCommuting (with a witness monomial) when the two product
    functionals differ, and SpanTooLarge when one vector of the span would
    not fit in memory.
    """
    ok, witness = commutes(omega1, omega2)
    if not ok:
        raise NotCommuting(
            f"product functionals differ on {witness.label()}", witness
        )
    preflight((omega1.n * omega2.n) ** depth, f"the depth-{depth} span")
    return RMatrixOperator(omega1, omega2, depth)


def relation_residual(rmat, max_len):
    """Worst ||R lambda2(Delta s_w) - lambda2(Delta^op s_w)|| over the
    creation words w of length <= ``max_len`` (at most the depth)."""
    N = rmat.omega1.n * rmat.omega2.n
    max_len = min(max_len, rmat.depth)
    preflight(_word_count(N, max_len) * rmat.rank, "the defining-relation check")
    reps = (rmat.rep1, rmat.rep2)
    V, W = (
        _word_images(reps, form, creation_words(N, max_len), rmat.dims)
        for form in ("delta", "delta_op")
    )
    return _worst_column(rmat.apply_dense(V) - W)


# ---------------------------------------------------------------------------
# verifiers


def _grow_all(X, c1, c2):
    """A batch X (p, q, k) under every generator at once, as a batch
    (p n, q m, N, k). Row g of c1 (N, n) and of c2 (N, m) is s_a e_1 and
    s_b e_1 for the split s_a (x) s_b of generator g: slice g sends entry
    (i, j) to every (i n + a', j m + b') times c1[g, a'] and c2[g, b'], the
    new digits least significant, multiplied in the order of
    ``act_dense``, (X c1) c2. An O_1 leg has the column [1] and keeps its
    size."""
    p, q, k = X.shape
    (N, n), m = c1.shape, c2.shape[1]
    # a C-ordered output: numpy's own broadcast layout writes it far slower
    out = np.empty((p, n, q, m, N, k), dtype=complex)
    np.multiply(X[:, None, :, None, None] * c1.T[:, None, None, :, None], c2.T[:, :, None], out=out)
    return out.reshape(p * n, q * m, N, k)


def _square_sums(X, axis):
    """Sums of |x|^2 of X over ``axis``."""
    return (X.real**2 + X.imag**2).sum(axis=axis)


def verify_intertwining(rmat, tol=BUILD_TOL):
    """Conjugation identity on span vectors.

    For every generator x of O_{nm} and every image v of a creation word of
    length at most depth - 1, compares the image of the coproduct action
    followed by the operator with the operator followed by the
    opposite-coproduct action; the one-letter generators keep both paths
    inside the operator's depth-d domain. R is applied once to the span V
    (``_word_images``). The N one-letter words are split once on the block
    (n, m) of the coproduct and of its opposite (``split_words``), which
    gives each generator one twist column per leg (``_leg_images``). V
    grows by all N generators at once (``_grow_all``), with one digit per
    leg, and R is applied once to that batch: two applications in all. The
    grown V lies in the (n^d, m^d) corner of the block (n^{d+1}, m^{d+1})
    of R V grown by the opposite coproduct, and so does the grown corner
    (n^{d-1}, m^{d-1}) of R V; only that corner difference is formed.
    Outside it the grown R V is R V outside its corner times both twist
    columns, so its squared column norm is that of R V outside the corner
    times the columns' squared norms, summed once for all generators. The
    residual is the worst column norm over the whole grown block, from the
    sum of both parts. Raises OutOfDomain for a depth-0 operator, which has
    no such span.
    """
    n1, n2 = rmat.shape
    N = n1 * n2
    if rmat.depth < 1:
        raise OutOfDomain(1.0, f"intertwining needs operator depth >= 1, got {rmat.depth}")
    span_depth = rmat.depth - 1
    # the opposite side acts on R V over the whole depth-d block, so it
    # grows the block by one letter
    preflight(_word_count(N, span_depth) * N ** (rmat.depth + 1), "the intertwining check")
    reps = (rmat.rep1, rmat.rep2)
    V = _word_images(reps, "delta", creation_words(N, span_depth), rmat.dims)
    moved = rmat.apply_dense(V)
    p, q = n1**span_depth, n2**span_depth
    letters = np.arange(1, N + 1)[:, None]
    (c1, c2), (c1_op, c2_op) = (
        [_leg_images(rep.U, d) for rep, d in zip(reps, split_words(form, (n1, n2), letters))]
        for form in ("delta", "delta_op")
    )
    diff = rmat.apply_dense(_grow_all(V[:p, :q], c1, c2))
    diff -= _grow_all(moved[:p, :q], c1_op, c2_op)
    # off the (n^d, m^d) corner the grown R V is R V off its (p, q) corner
    # times both twist columns: products of sums of squares, no cancellation
    outside = _square_sums(moved[p:], (0, 1)) + _square_sums(moved[:p, q:], (0, 1))
    scale = _square_sums(c1_op, 1) * _square_sums(c2_op, 1)
    worst = np.sqrt(np.max(_square_sums(diff, (0, 1)) + outside * scale[:, None], axis=1))
    report = VerificationReport(scenario="intertwining")
    for i, res in enumerate(worst.tolist(), 1):
        word = CuntzMonomial.generator(N, i)
        report.add(f"intertwine:{word.label()}", holds(res, tol, rmat.is_permutation), res)
    return report


def verify_symmetry(omega1, omega2, depth, tol=BUILD_TOL, r12=None):
    """Inversion symmetry: the operator, composed with its reversed-pair
    partner through leg flips, is the identity on the span.

    R and the flip F both act digit pair by digit pair, so the identity
    R_12 F R_21 F = I at depth d is the d-th tensor power of the one on
    R_1, and it is checked there: the residual is the worst column norm of
    R_1(omega1, omega2) F R_1(omega2, omega1) F - I. Both operators are
    still built at the requested depth, so its preflight applies. For equal
    states the reversed-pair partner is the operator itself.
    """
    if r12 is None:
        r12 = build_r(omega1, omega2, depth)
    r21 = r12 if omega1 == omega2 else build_r(omega2, omega1, depth)
    n, m = r12.shape
    # F_{m,n} R_1(omega2, omega1) F_{n,m}, the flips as one gather
    f = radix_perm(m, n)
    chain = r12.r1 @ r21.r1[np.ix_(f, f)]
    worst = _worst_column(chain - np.eye(n * m))
    report = VerificationReport(scenario="inversion-symmetry")
    exact = r12.is_permutation and r21.is_permutation
    report.add("inversion-symmetry", holds(worst, tol, exact), worst)
    return report


_YBE_CHUNK_ENTRIES = 2**12  # entries per stacked array of word images in the YBE check


def verify_ybe(omega1, omega2, omega3, depth, tol=BUILD_TOL, rs=None):
    """Triple exchange identity with an independent symbolic oracle.

    For every word x of the combined algebra up to ``depth``, both sides
    of the identity, R_12 R_13 R_23 and R_23 R_13 R_12, are applied to the
    image of the right-expanded double coproduct, and both are compared
    with each other and with the legwise images of the two double opposite
    coproducts, which the two sides must reproduce. Each R is R_1 on every
    digit pair of its two legs, so each side is one abc x abc matrix on
    every digit triple: the three R_1, each placed on its two legs of the
    triple with the identity on the third, multiplied once per call. The
    states' representations see only the block (a, b, c) of their algebra
    indices, so each image is that block alone, gathered from the table of
    its double coproduct (``split_words``): ``f_r`` splits the right leg of
    phi_{a,bc}(x) by phi_{b,c}, and ``f_l_op`` and ``f_r_op`` are the tables
    of ``f_r`` and ``f_l`` with the legs reversed, which split a leg of the
    flipped phi_{c,ab}(x) and phi_{bc,a}(x) by the flipped phi_{b,a} and
    phi_{c,b}. So all three images are gathers of the same digit columns;
    the check that the tables are the paper's maps is the mixed-radix split
    of the tests. The words are taken in chunks of at
    most ``_YBE_CHUNK_ENTRIES`` image entries; the words of one length in a
    chunk are split as one array and their images built at once
    (``_word_images``), and each side is applied once per chunk
    (``_apply_digits``). Every word still gets its own record, whose
    residual is the largest column norm of the four differences. Each
    distinct state pair is built once.

    The chunk size is a trade: on uniform (2, 3, 2) at depth 3 a triple
    block has 1728 entries, so a chunk holds 2 words and the check makes
    two applications per 2 words; 2^16 entries make it about twice as
    fast there, but hold sixteen times the image entries per chunk, which
    the small blocks of depths 1-2 pay for in peak memory.
    """
    states = (omega1, omega2, omega3)
    if rs is None:
        built = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            same = [r for r in built if r.omega1 == states[i] and r.omega2 == states[j]]
            built.append(same[0] if same else build_r(states[i], states[j], depth))
        rs = built
    reps = [GPRepresentation.for_state(s) for s in states]
    dims = tuple(s.n**depth for s in states)
    a, b, c = (s.n for s in states)
    N = a * b * c
    # each R_1 on its two legs of a digit triple, the identity on the third;
    # R_13 is placed on the legs (1, 3, 2) and its axes put back in order
    r12 = np.kron(rs[0].r1, np.eye(c))
    r13 = np.kron(rs[1].r1, np.eye(b)).reshape((a, c, b) * 2)
    r13 = r13.transpose(0, 2, 1, 3, 5, 4).reshape(N, N)
    r23 = np.kron(np.eye(a), rs[2].r1)
    sides = (r12 @ r13 @ r23, r23 @ r13 @ r12)
    block = int(np.prod(dims))
    step = max(1, _YBE_CHUNK_ENTRIES // block)  # words per chunk
    preflight(3 * step * block, "the triple exchange check")
    report = VerificationReport(scenario="ybe")
    exact = all(r.is_permutation for r in rs)
    words = creation_words(N, depth)
    for first in range(0, len(words), step):
        chunk = words[first:first + step]
        t0, oracle_l, oracle_r = (
            _word_images(reps, form, chunk, dims) for form in ("f_r", "f_l_op", "f_r_op")
        )
        lhs, rhs = (_apply_digits(M, t0, (a, b, c), depth) for M in sides)
        worst = np.max([
            _column_norms(lhs - rhs),
            _column_norms(lhs - oracle_l),
            _column_norms(rhs - oracle_r),
            _column_norms(oracle_l - oracle_r),
        ], axis=0)
        for word, res in zip(chunk, worst.tolist()):
            report.add(f"ybe:{CuntzMonomial(N, word, ()).label()}", holds(res, tol, exact), res)
    return report


def counterexample_demo(tol=BUILD_TOL):
    """The degenerate scenario for the noncommuting flip-twisted pair.

    With the standard state of O_2 and its flip twist, the coproduct action
    of the generator with index 2 of O_4 fixes the cyclic pair vector, so a
    relation-defined operator must fix it too (the unit branch gives the
    same vector). The opposite coproduct, however, sends the cyclic vector
    to an orthogonal one, so no unitary can satisfy the conjugation
    identity, and the construction rejects the pair with a witness.
    """
    report = VerificationReport(scenario="counterexample")
    omega = GPState.standard(2)
    # the flip twist of the standard state is the second basis vector
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    omega_bar = twist_state(omega.z, flip)
    reps = (GPRepresentation.standard(2), GPRepresentation.for_state(omega_bar))
    v = np.ones((1, 1, 1), dtype=complex)  # the cyclic pair vector, batch of one
    x = CuntzMonomial.generator(4, 2)

    fixed = act_dense(reps, delta(x), v)
    res_fixed = _worst_gap(fixed, v)
    report.add("coproduct-action-fixes-cyclic-vector", holds(res_fixed, tol, True), res_fixed)

    # the unit branch of the defining relation forces Rv = v
    rv = act_dense(reps, delta_op(CuntzMonomial.unit(4)), v)
    res_rv = _worst_gap(rv, v)
    report.add("relation-unit-branch-fixes-cyclic-vector", holds(res_rv, tol, True), res_rv)

    opposite = act_dense(reps, delta_op(x), v)
    overlap = abs(opposite[0, 0, 0])  # <v, opposite>, v = e_1 (x) e_1
    report.add(
        "opposite-image-orthogonal-to-cyclic-vector",
        holds(overlap, tol, True),
        overlap,
        witness=json.dumps(pair_to_list(opposite[:, :, 0])),
    )

    # with Rv = v and R* v = v, the conjugated action returns v, which the
    # opposite action contradicts
    lhs = rv  # R (coproduct action) R* v = R v = v
    violation = _worst_gap(lhs, opposite)
    report.add("conjugation-identity-violated", violation > tol, violation)

    try:
        build_r(omega, omega_bar, 1)
        label = None
    except NotCommuting as exc:
        label = exc.witness.label()
    # x separates the two product states; it must be the witness found
    report.add(
        "construction-rejects-pair",
        label == x.label(),
        star_gap(omega, omega_bar, x),
        witness=label,
    )
    return report
