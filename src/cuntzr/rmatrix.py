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
p = n*a + b, and stored as (b, a). R_1 fixes e_1 (x) e_1, so R at depth
d + 1 restricts to R at depth d on the smaller block. The operator keeps
R_1 and the depth, and applies R to dense arrays of shape
(n^d, m^d, *batch) in d small matrix products between one interleaving
transpose and its inverse. Every state takes this one path; for standard
states R_1 is a 0/1 matrix, and products with it are exact, so their
checks pass only at residual exactly 0 (``algebra.holds``).

The verifiers check everything the construction promises: the
conjugation identity carrying the coproduct to its opposite and the
triple-product exchange identity on span vectors at the requested depth,
the latter against an independent symbolic expansion of the double
opposite coproduct, and the inversion symmetry through the leg flip on
R_1. The flip is the swap F_1 on every digit pair, so an identity among
R's and flips holds at depth d exactly when it holds for R_1; and since
R_1 fixes e_1 (x) e_1, R is the identity, or the flip, exactly when R_1
is. A pair or triple of representations sees only the block of its
algebra indices, so the verifiers expand only that block. The image of a
creation word under a coproduct is a product vector: each leg gets the
word's digits there, and a leg word u_1 ... u_t maps e_1 to
U[:, u_t] (x) ... (x) U[:, u_1], a column of the t-fold tensor power of
its twist. So the word images are built one word length at a time: the
words of that length, stacked as an integer array, are split through the
digit table of ``coproduct.split_words`` (the table ``phi`` reads),
once for a coproduct and twice, in the order of its composition, for a
double coproduct; each leg's images are gathered twist columns, and the
block is their tensor product. The verifiers apply R to whole batches of
vectors at once, the exchange check to its words in chunks of bounded
size, and measure residuals on the unpruned dense differences. The
generators of the conjugation identity still act through ``phi`` and
``act_dense``. A fixed counterexample scenario shows how the
construction degenerates for a noncommuting pair.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import BUILD_TOL, CuntzMonomial, holds
from .coproduct import delta, delta_op, phi, split_words
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


def _digits(x, base, length):
    """Base digits of x, least significant first, fixed length."""
    out = []
    for _ in range(length):
        out.append(x % base)
        x //= base
    return out


def swap_index_pair(n, m, a, b, length):
    """Closed-form image of the basis pair (e_a, e_b) for standard states.

    The base-n digits of a-1 and base-m digits of b-1 zip to word letters
    w = m*(i-1) + j; each letter is re-split as w = n*(i'-1) + j' and the
    digit strings are reassembled, base-n from the j' and base-m from the
    i'. Padding with leading units leaves the image unchanged, so the map
    is consistent across lengths.
    """
    da = _digits(a - 1, n, length)
    db = _digits(b - 1, m, length)
    a2 = 0
    b2 = 0
    for k in reversed(range(length)):
        w = m * da[k] + db[k]  # 0-based letter
        b2 = b2 * m + w // n
        a2 = a2 * n + w % n
    return a2 + 1, b2 + 1


def _resplit(n, m):
    """The depth-1 re-split P as an nm x nm 0/1 matrix: the source letter
    p = m*i + j (digit pair (i, j)) is read as p = n*a + b and stored as the
    digit pair (b, a), at index m*b + a."""
    p = np.arange(n * m)
    a, b = np.divmod(p, n)
    P = np.zeros((n * m, n * m), dtype=complex)
    P[m * b + a, p] = 1.0
    return P


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
        T = np.kron(self.rep1.U, self.rep2.U)
        self.r1 = T @ _resplit(omega1.n, omega2.n) @ T.conj().T

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
        n, m = self.shape
        d = self.depth
        X = np.asarray(X)
        if X.shape[:2] != self.dims:
            raise OutOfDomain(
                float(np.linalg.norm(X)),
                f"array of shape {X.shape} outside the {self.dims} block",
            )
        # digit pair k (the digit k of each leg) as axis k, the batch last
        Y = X.reshape((n,) * d + (m,) * d + (-1,))
        Y = Y.transpose([ax for k in range(d) for ax in (k, d + k)] + [2 * d])
        for _ in range(d):
            # R_1 on the leading digit pair, which moves to the back: one
            # matrix product on a view, so the batch ends up in front
            Y = Y.reshape(n * m, -1).T @ self.r1.T
        legs = list(range(1, 2 * d, 2)) + list(range(2, 2 * d + 1, 2))
        return Y.reshape((-1,) + (n, m) * d).transpose(legs + [0]).reshape(X.shape)

    def apply(self, vec):
        """Image of a pair-indexed dict vector; exact zeros are left out."""
        return from_dense(self.apply_dense(to_dense(vec, self.dims)))

    def _permutation_rows(self):
        """Rows [a, b, a', b'] of the basis-pair permutation, sorted by (a, b)."""
        # R maps the index array to the array whose entry t is the source
        # pair landing on t; a 0/1 product of integers below 2^53 is exact
        index = np.arange(self.rank, dtype=float).reshape(*self.dims, 1)
        src = self.apply_dense(index).real.astype(np.int64).reshape(-1)
        rows = np.empty((self.rank, 4), dtype=np.int64)
        rows[src, 0], rows[src, 1] = np.divmod(src, self.dims[1])
        rows[src, 2], rows[src, 3] = np.divmod(np.arange(self.rank), self.dims[1])
        return rows + 1

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


def _pair_coproducts(n, m):
    """The coproduct and its opposite restricted to the block (n, m), which
    is all that a pair of representations of O_n and O_m sees: phi_{n,m}
    and the flipped phi_{m,n}."""
    return (lambda x: phi(n, m, x)), (lambda x: phi(m, n, x).flip())


def _pair_splits(n, m):
    """The word-array forms of ``_pair_coproducts``: a (K, t) array of
    words of O_{nm} to its digit arrays on the legs (n, m), through
    phi_{n,m} and through phi_{m,n} followed by the flip."""
    return (lambda W: split_words(n, m, W)), (lambda W: split_words(m, n, W)[::-1])


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


def _word_images(reps, split, words, dims):
    """Images of the cyclic vector e_1 (x) ... (x) e_1 under the coproduct
    form ``split`` of the creation words ``words``, sorted by length,
    zero-padded to the block ``dims`` and stacked along a trailing axis.

    ``split`` maps a (K, t) array of words to one digit array per leg. The
    words of each length are split together, each leg's images are the
    rows of :func:`_leg_images`, and the block of the length is their
    tensor product, one ``einsum``.
    """
    out = np.zeros((*dims, len(words)), dtype=complex)
    legs = "abc"[:len(reps)]
    spec = ",".join("k" + leg for leg in legs) + "->" + legs + "k"
    start = 0
    for _, group in itertools.groupby(words, len):
        W = np.array(list(group), dtype=np.intp)
        images = [_leg_images(rep.U, digits) for rep, digits in zip(reps, split(W))]
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
        _word_images(reps, split, creation_words(N, max_len), rmat.dims)
        for split in _pair_splits(*rmat.shape)
    )
    return _worst_column(rmat.apply_dense(V) - W)


# ---------------------------------------------------------------------------
# verifiers


def verify_intertwining(rmat, tol=BUILD_TOL):
    """Conjugation identity on span vectors.

    For every generator x of O_{nm} and every image v of a creation word of
    length at most depth - 1, compares the image of the coproduct action
    followed by the operator with the operator followed by the
    opposite-coproduct action; the one-letter generators keep both paths
    inside the operator's depth-d domain. R is applied once to all span
    vectors, and once per generator to their coproduct images. Raises
    OutOfDomain for a depth-0 operator, which has no such span.
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
    coproduct, coproduct_op = _pair_coproducts(n1, n2)
    V = _word_images(
        reps, _pair_splits(n1, n2)[0], creation_words(N, span_depth),
        (n1**span_depth, n2**span_depth),
    )
    moved = rmat.apply_dense(pad_to(V, rmat.dims))
    report = VerificationReport(scenario="intertwining")
    for i in range(1, N + 1):
        word = CuntzMonomial.generator(N, i)
        lhs = rmat.apply_dense(pad_to(act_dense(reps, coproduct(word), V), rmat.dims))
        rhs = act_dense(reps, coproduct_op(word), moved)
        worst = _worst_gap(lhs, rhs)
        report.add(f"intertwine:{word.label()}", holds(worst, tol, rmat.is_permutation), worst)
    return report


def _leg_flip(n, m):
    """The leg flip F: C^n (x) C^m -> C^m (x) C^n, e_i (x) e_j -> e_j (x) e_i,
    as an nm x nm 0/1 matrix; products with it are exact."""
    return np.eye(n * m).reshape(n, m, n * m).transpose(1, 0, 2).reshape(n * m, n * m)


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
    chain = r12.r1 @ (_leg_flip(m, n) @ r21.r1 @ _leg_flip(n, m))
    worst = _worst_column(chain - np.eye(n * m))
    report = VerificationReport(scenario="inversion-symmetry")
    exact = r12.is_permutation and r21.is_permutation
    report.add("inversion-symmetry", holds(worst, tol, exact), worst)
    return report


def _apply_on_legs(rmat, T, legs):
    """Apply a pairwise operator to two legs (0-based, ascending) of a dense
    triple array, the parked leg riding along with the trailing batch axes."""
    order = (*legs, 3 - sum(legs), *range(3, T.ndim))
    out = rmat.apply_dense(T.transpose(order))
    return out.transpose(np.argsort(order))


def _triple_splits(a, b, c):
    """The blocks (a, b, c) of f_r, f_l_op and f_r_op on word arrays: each
    maps a (K, t) array of words of O_{abc} to its digit arrays on the
    legs (a, b, c), through two splits composed in its own order."""

    def f_r(W):  # phi_{a,bc}, then phi_{b,c} on the right leg
        x, yz = split_words(a, b * c, W)
        return (x, *split_words(b, c, yz))

    def f_l_op(W):  # flipped phi_{c,ab}, then flipped phi_{b,a} on the left leg
        z, xy = split_words(c, a * b, W)
        return (*split_words(b, a, xy)[::-1], z)

    def f_r_op(W):  # flipped phi_{bc,a}, then flipped phi_{c,b} on the right leg
        yz, x = split_words(b * c, a, W)
        return (x, *split_words(c, b, yz)[::-1])

    return f_r, f_l_op, f_r_op


_YBE_CHUNK_ENTRIES = 2**12  # entries per stacked array of word images in the YBE check


def verify_ybe(omega1, omega2, omega3, depth, tol=BUILD_TOL, rs=None):
    """Triple exchange identity with an independent symbolic oracle.

    For every word x of the combined algebra up to ``depth``, both operator
    orderings are applied leg pair by leg pair to the image of the
    right-expanded double coproduct, and both are compared with each other
    and with the legwise images of the two double opposite coproducts,
    which the two orderings must reproduce. The states' representations
    see only the block (a, b, c) of their algebra indices, so each image is
    that block alone, from two array splits (``_triple_splits``): the
    right-expanded one splits the right leg of phi_{a,bc}(x), and the two
    opposite ones split a leg of the flipped phi_{c,ab}(x) and
    phi_{bc,a}(x) by the flipped phi_{b,a} and phi_{c,b}. The words are
    taken in chunks of at most ``_YBE_CHUNK_ENTRIES`` image entries; the
    words of one length in a chunk are split as one array and their images
    built at once (``_word_images``), and each operator is applied once per
    chunk. Every word still gets its own record, whose residual is the
    largest column norm of the four differences. Each distinct state pair
    is built once.

    The chunk size is a trade: on uniform (2, 3, 2) at depth 3 a triple
    block has 1728 entries, so a chunk holds 2 words and the check makes
    six applications per 2 words; 2^16 entries halve its time there but
    cost more memory, and a little time, on the small blocks of depths 1-2.
    """
    states = (omega1, omega2, omega3)
    if rs is None:
        built = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            same = [r for r in built if r.omega1 == states[i] and r.omega2 == states[j]]
            built.append(same[0] if same else build_r(states[i], states[j], depth))
        rs = built
    r12, r13, r23 = rs
    reps = [GPRepresentation.for_state(s) for s in states]
    dims = tuple(s.n**depth for s in states)
    a, b, c = (s.n for s in states)
    N = a * b * c
    block = int(np.prod(dims))
    step = max(1, _YBE_CHUNK_ENTRIES // block)  # words per chunk
    preflight(3 * step * block, "the triple exchange check")
    report = VerificationReport(scenario="ybe")
    exact = all(r.is_permutation for r in rs)
    words = creation_words(N, depth)
    splits = _triple_splits(a, b, c)
    for first in range(0, len(words), step):
        chunk = words[first:first + step]
        t0, oracle_l, oracle_r = (_word_images(reps, split, chunk, dims) for split in splits)
        lhs = _apply_on_legs(r23, t0, (1, 2))
        lhs = _apply_on_legs(r13, lhs, (0, 2))
        lhs = _apply_on_legs(r12, lhs, (0, 1))
        rhs = _apply_on_legs(r12, t0, (0, 1))
        rhs = _apply_on_legs(r13, rhs, (0, 2))
        rhs = _apply_on_legs(r23, rhs, (1, 2))
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
