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
its twist. The table is letterwise, so only the letters are split: the N
one-letter words, stacked as an integer array, are split on the block of
the representations by one gather per leg from the cached table of the
coproduct form (``coproduct.split_words``: the table that ``delta``,
``phi`` and the double coproducts read), which gives each letter one twist
column per leg. The leg images of each word length are then those of the
length before, grown by one letter, and the block is their tensor
product. Every dense verifier draws its stacks of all creation words up
to a depth from one stream, ``_word_stream``: the images of
``_word_images``, zipped over the forms it needs, in chunks of words of
bounded size (``_chunk_words``: one rule and one entry count for all
three), after the one preflight of the call, which the stream makes from
the check's copies of a chunk and what it holds for the whole call (leg
images, operators). Each applies R, or each side of the exchange
identity, once per chunk; the defining relation and the exchange identity
keep each word's worst residual by one per-word fold, ``_word_norms``.
Residuals are measured on the unpruned dense differences. The generators
of the conjugation identity act the same way: a one-letter word splits to
one digit per leg (none on an O_1 leg), so a generator grows each leg of a
batch by one least significant digit and multiplies in that letter's
twist column there. All N generators grow a chunk at once, along a new
generator axis, so R is applied once to the grown chunk. A fixed
counterexample scenario shows how the construction degenerates for a
noncommuting pair.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import BUILD_TOL, CuntzMonomial, _index, holds
from .coproduct import delta, delta_op, split_words
from .errors import NotCommuting, OutOfDomain
from .representations import (
    GPRepresentation,
    act_dense,
    from_dense,
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

    def check(self, name, residual, tol, exact=False, witness=None):
        """Add the record of an identity check by the one pass rule,
        ``algebra.holds``; the witness is kept only when the record fails."""
        passed = holds(residual, tol, exact)
        self.add(name, passed, residual, None if passed else witness)

    def check_each(self, names, residuals, tol, exact=False):
        """Add one record per name, by ``check``'s rule applied to the
        array ``residuals`` at once; no witness."""
        passed = holds(residuals, tol, exact)
        self.checks += map(CheckRecord, names, passed.tolist(), residuals.tolist())


def _word_labels(N, depth):
    """``CuntzMonomial(N, w, ()).label()`` of every creation word w of O_N
    of length <= ``depth``, by length then lex; O_1 words collapse to the
    unit, as in ``label``."""
    letters = [str(g) for g in range(1, N + 1)]
    return (f"n={N};u={','.join(w) if N > 1 else ''};v="
            for t in range(depth + 1) for w in itertools.product(letters, repeat=t))


# ---------------------------------------------------------------------------
# the factored operator


@functools.lru_cache(maxsize=8)
def radix_perm(n, m):
    """The re-split sigma of the letters of O_{nm}, as an index array of
    length nm: the letter p = m*i + j (digit pair (i, j)) is read as
    p = n*a + b and stored as the digit pair (b, a), at sigma(p) = m*b + a.
    As a matrix, P = I[:, sigma]; the leg flip C^n (x) C^m -> C^m (x) C^n is
    P_{m,n}, and radix_perm(m, n) inverts radix_perm(n, m). The array is
    read-only and shared: the last few (n, m) are kept, so a large one is
    soon let go."""
    p = np.arange(n * m)
    sigma = m * (p % n) + p // n
    sigma.setflags(write=False)
    return sigma


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
    block [1, n^length] x [1, m^length], and one for a length below 0 or a
    bool or non-integer index or length.
    """
    a, b = _index(a, None, "basis index"), _index(b, None, "basis index")
    length = _index(length, 0, "length")
    if not (1 <= a <= n**length and 1 <= b <= m**length):
        raise ValueError(f"basis pair ({a}, {b}) outside the block ({n}^{length}, {m}^{length})")
    a2, b2 = _resplit_pairs(n, m, a - 1, b - 1, length, radix_perm(n, m).tolist())
    return a2 + 1, b2 + 1


def _digit_pair(column, m):
    """The witness of a column of a matrix on digit pairs of C^n (x) C^m,
    ``digit-pair=i,j`` (1-based: digit i of leg 1, digit j of leg 2)."""
    i, j = divmod(column, m)
    return f"digit-pair={i + 1},{j + 1}"


def _into(out, Y):
    """Y copied into the C-ordered ``out`` of its size, in Y's shape."""
    out = out.reshape(Y.shape)
    out[...] = Y
    return out


def _apply_digits(M, X, radices, depth, work=None):
    """M applied to every digit tuple of X.

    The k leading axes of X have sizes r_i^depth for the radices r_i; the
    rest is batch. M is square of size prod(radices) and acts on the tuple
    (digit j of leg 1, ..., digit j of leg k), leg 1 most significant, the
    same for every j: one interleaving transpose, ``depth`` matrix
    products, one de-interleave. Each step allocates its result, unless
    ``work``, a C-ordered complex array of 2 X.size entries, is given:
    then the steps alternate between its two halves, X is not written, and
    the result is a view of half (depth + 1) % 2.
    """
    k, d = len(radices), depth
    halves = None if work is None else work.reshape(2, -1)
    # digit tuple j (digit j of each leg) as axis j, the batch last
    Y = X.reshape(tuple(r for r in radices for _ in range(d)) + (-1,))
    Y = Y.transpose([i * d + j for j in range(d) for i in range(k)] + [k * d])
    if halves is not None:
        Y = _into(halves[0], Y)
    for j in range(d):
        # M on the leading digit tuple, which moves to the back: one matrix
        # product on a view, so the batch ends up in front
        Z = Y.reshape(len(M), -1).T
        if halves is None:
            Y = Z @ M.T
        else:
            Y = np.matmul(Z, M.T, out=halves[(j + 1) % 2].reshape(len(Z), -1))
    legs = [1 + j * k + i for i in range(k) for j in range(d)]
    Y = Y.reshape((-1,) + tuple(radices) * d).transpose(legs + [0])
    if halves is not None:
        Y = _into(halves[(d + 1) % 2], Y)
    return Y.reshape(X.shape)


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
        self.depth = _index(depth, 0, "depth")
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
        return self._unitarity()[0]

    def _unitarity(self):
        """Worst entry of R_1^H R_1 - I and the witness of its column
        (``_digit_pair``); the first on a tie, and the first NaN if any."""
        dev = np.abs(self.r1.conj().T @ self.r1 - np.eye(len(self.r1)))
        worst = int(np.argmax(dev))
        return float(dev.flat[worst]), _digit_pair(worst % len(dev), self.omega2.n)

    def apply_dense(self, X, work=None):
        """R applied to an array of shape (n^d, m^d, *batch); a given
        ``work`` holds the steps, as in ``_apply_digits``."""
        X = np.asarray(X)
        if X.shape[:2] != self.dims:
            raise OutOfDomain(f"array of shape {X.shape} outside the {self.dims} block")
        return _apply_digits(self.r1, X, self.shape, self.depth, work)

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


_CHUNK_ENTRIES = 2**12  # entries per stack of word images a streamed check holds


def _chunk_words(size, total):
    """Words per chunk of a streamed check, of ``total`` words whose images
    have ``size`` entries each: as many as fill ``_CHUNK_ENTRIES``, at least
    one and at most all.

    The size is a trade: on uniform (2, 3, 2) at depth 3 a triple block of
    the exchange check has 1728 entries, so a chunk holds 2 words and the
    check makes two applications per 2 words; 2^16 entries make it faster
    there, but hold sixteen times the image entries per chunk, which the
    small blocks of depths 1-2 pay for in peak memory."""
    return min(total, max(1, _CHUNK_ENTRIES // size))


def _leg_entries(reps, depth):
    """Entries of the leg images ``_word_images`` keeps for one form up to
    ``depth``: N^t words of each length t, with n_i^t entries on leg i."""
    N = math.prod(rep.n for rep in reps)
    return sum(N**t * sum(rep.n**t for rep in reps) for t in range(depth + 1))


def _worst_column_at(diff):
    """Largest norm of a column of a nonempty difference batch (..., k) and
    the index of its column: the first on a tie, and the first NaN if any.
    The squares are formed as np.linalg.norm forms them and summed by
    ``_row_sums``, the batch being the whole span."""
    norms = np.sqrt(_row_sums((diff.conj() * diff).real, diff.shape[-1]))
    k = int(np.argmax(norms))
    return float(norms[k]), k


def _worst_column(diff):
    """Largest norm of a column of a difference batch (p, q, k)."""
    return _worst_column_at(diff)[0] if diff.size else 0.0


def _row_sums(sq, words):
    """Sums of a chunk's squares sq (..., k) over the leading axes, one per
    column, added row by row: the one column reducer of the checks. numpy
    adds a batch of two or more columns so, but a lone column pairwise: a
    lone word of a span of more ``words`` is accumulated row by row
    instead, so that it sums as in the whole span."""
    sq = sq.reshape(-1, sq.shape[-1])
    if sq.shape[1] == 1 < words and len(sq):
        return np.add.accumulate(sq[:, 0])[-1:]
    return np.add.reduce(sq, axis=0)


def _letter_images(reps, form):
    """Each leg's images of e_1 under the N letters of the block of the
    representations' algebra indices, for the coproduct ``form`` (a form
    name of ``coproduct.split_words``): the letters are split together, one
    digit per leg, and row g - 1 of leg i's array is U_i[:, j] for the
    digit j of letter g there; an O_1 leg, with no digit, gives [1]."""
    N = int(np.prod([rep.n for rep in reps]))
    split = split_words(form, tuple(rep.n for rep in reps), np.arange(1, N + 1)[:, None])
    return [
        rep.U.T[digits[:, 0] - 1] if digits.shape[1] else np.ones((N, 1), dtype=complex)
        for rep, digits in zip(reps, split)
    ]


def _word_images(reps, form, depth, dims, step=None, columns=None):
    """Images of the cyclic vector e_1 (x) ... (x) e_1 under the coproduct
    ``form`` of every creation word up to ``depth``, by length then lex,
    zero-padded to the block ``dims`` and stacked along a trailing axis,
    yielded in chunks of ``step`` words (one chunk if None). ``columns``
    are the letters' images of ``_letter_images(reps, form)``, when the
    caller already has them.

    A pair or triple of representations sees only the block of their
    algebra indices. The table is letterwise, so only the N letters are
    split (:func:`_letter_images`), giving each letter one column per leg,
    and each length's leg images are the previous length's grown by one
    letter: on each leg the word (w_1, ..., w_t) maps e_1 to the image of
    (w_2, ..., w_t) (x) the column of w_1, the first letter least
    significant, multiplied in the order of a per-word product from e_1
    (``tests/test_rmatrix.py`` keeps that product as the oracle). The leg
    images of every length are kept while the chunks are drawn,
    ``_leg_entries(reps, depth)`` entries in all, which ``_word_stream``
    counts once in the check's preflight; a chunk's part of a length is
    the tensor product of row slices of those leg images, one ``einsum``
    in place, and each chunk is a fresh array.
    """
    if columns is None:
        columns = _letter_images(reps, form)
    N = len(columns[0])
    lengths = [[np.ones((1, 1), dtype=complex)] * len(reps)]  # leg images of each length
    for _ in range(depth):
        # X first, as in the per-word product: the swapped order differs
        # in the last bit
        lengths.append([(X[None, :, :, None] * c[:, None, None, :]).reshape(N * len(X), -1)
                        for X, c in zip(lengths[-1], columns)])
    legs = "abc"[:len(reps)]
    spec = ",".join("k" + leg for leg in legs) + "->" + legs + "k"
    total = _word_count(N, depth)
    step = step or total
    for first in range(0, total, step):
        out = np.zeros((*dims, min(step, total - first)), dtype=complex)
        start = 0  # first word of each length
        for images in lengths:
            lo, hi = max(first, start), min(first + step, start + len(images[0]))
            if lo < hi:
                parts = [X[lo - start:hi - start] for X in images]
                block = (*(slice(X.shape[1]) for X in parts), slice(lo - first, hi - first))
                np.einsum(spec, *parts, out=out[block])  # no temporary block
            start += len(images[0])
        yield out


def _word_stream(reps, forms, depth, dims, what, copies=1, held=0, also=(), columns=None):
    """The one streamed sweep of the dense checks over the creation words up
    to ``depth``: their number, the words of a chunk (``_chunk_words``) and
    the chunks, each ``(first word, stacks)`` with one stack of
    ``_word_images`` per coproduct form of ``forms``, zero-padded to
    ``dims``; ``columns`` are the letter images of a lone form, when the
    caller has them. The check's one preflight is made here, on the call,
    before anything is drawn: ``copies`` stacks of a chunk, named ``what``,
    beside the requests ``also``, with ``held`` entries and every form's
    leg images held once."""
    total = _word_count(math.prod(rep.n for rep in reps), depth)
    step = _chunk_words(math.prod(dims), total)
    preflight((copies * step * math.prod(dims), what), *also,
              held=held + len(forms) * _leg_entries(reps, depth))
    stacks = zip(*(_word_images(reps, form, depth, dims, step, columns) for form in forms))
    return total, step, zip(range(0, total, step), stacks)


def _word_norms(total, chunks, diffs):
    """The largest column norm of each of the ``total`` words over the
    differences ``diffs(*stacks)`` of its chunk: the squares formed as
    np.linalg.norm forms them and summed by ``_row_sums``, so a lone word
    sums as in the whole span, the largest sum kept per word, and one root
    after the last chunk; sqrt is monotone and correctly rounded, so it is
    the largest norm, and a NaN stays."""
    worst = np.zeros(total)
    for first, stacks in chunks:
        for diff in diffs(*stacks):
            out = worst[first:first + diff.shape[-1]]
            np.maximum(out, _row_sums((diff.conj() * diff).real, total), out=out)
    return np.sqrt(worst)


def build_r(omega1, omega2, depth):
    """Construct the swap-implementing unitary for a commuting state pair.

    Raises NotCommuting (with a witness monomial) when the two product
    functionals differ, and SpanTooLarge when one vector of the span, or
    the nm x nm matrix R_1, would not fit in memory. A depth below 0, a
    bool or a non-integer depth raises ValueError.
    """
    depth = _index(depth, 0, "depth")
    ok, witness = commutes(omega1, omega2)
    if not ok:
        raise NotCommuting(
            f"product functionals differ on {witness.label()}", witness
        )
    nm = omega1.n * omega2.n
    preflight((nm**depth, f"the depth-{depth} span"), (nm**2, f"the {nm} x {nm} matrix R_1"))
    return RMatrixOperator(omega1, omega2, depth)


def _worst_word(rmat, max_len):
    """The defining relation's worst residual over the creation words w of
    length <= ``max_len`` (at most the depth), and the label of its word,
    ``CuntzMonomial(nm, w, ()).label()``: the first by length then lex on
    a tie, and the first NaN if any.

    The coproduct's and its opposite's images come side by side from the
    one stream (``_word_stream``), R is applied once per chunk, and each
    word's difference norm is folded by ``_word_norms``, so the residual is
    the one of the whole span to the bit; one argmax picks the word, and
    only its label is made (``_word_labels``).
    """
    N = rmat.omega1.n * rmat.omega2.n
    max_len = min(_index(max_len, 0, "max_len"), rmat.depth)
    total, _, chunks = _word_stream((rmat.rep1, rmat.rep2), ("delta", "delta_op"), max_len,
                                    rmat.dims, "the defining-relation check", held=N * N)
    norms = _word_norms(total, chunks, lambda V, W: (rmat.apply_dense(V) - W,))
    j = int(np.argmax(norms))
    return float(norms[j]), next(itertools.islice(_word_labels(N, max_len), j, None))


def relation_residual(rmat, max_len):
    """Worst ||R lambda2(Delta s_w) - lambda2(Delta^op s_w)|| over the
    creation words w of length <= ``max_len`` (at most the depth), streamed
    in chunks (``_worst_word``)."""
    return _worst_word(rmat, max_len)[0]


# ---------------------------------------------------------------------------
# verifiers


def _grow_all(X, c1, c2, out):
    """A batch X (p, q, k) under every generator at once, as a batch
    (p n, q m, N, k), written into ``out``, a C-ordered complex array of
    that size: numpy's own broadcast layout writes it far slower. Row g of
    c1 (N, n) and of c2 (N, m) is s_a e_1 and s_b e_1 for the split
    s_a (x) s_b of generator g: slice g sends entry (i, j) to every
    (i n + a', j m + b') times c1[g, a'] and c2[g, b'], the new digits least
    significant, multiplied in the order of ``act_dense``, (X c1) c2. An O_1
    leg has the column [1] and keeps its size."""
    p, q, k = X.shape
    (N, n), m = c1.shape, c2.shape[1]
    np.multiply(X[:, None, :, None, None] * c1.T[:, None, None, :, None], c2.T[:, :, None],
                out=out.reshape(p, n, q, m, N, k))
    return out


def _square_sums(X, axis, work=None):
    """Sums of re^2 + im^2 of X over ``axis``; the squares are formed in
    ``work``, a C-ordered float array of 2 X.size entries, when given."""
    re, im = (np.empty(2 * X.size) if work is None else work).reshape(2, *X.shape)
    np.square(X.real, out=re)
    np.square(X.imag, out=im)
    return np.add(re, im, out=re).sum(axis=axis)


def verify_intertwining(rmat, tol=BUILD_TOL):
    """Conjugation identity on span vectors.

    For every generator x of O_{nm} and every image v of a creation word of
    length at most depth - 1, compares the image of the coproduct action
    followed by the operator with the operator followed by the
    opposite-coproduct action; the one-letter generators keep both paths
    inside the operator's depth-d domain. The N letters, imaged for the
    coproduct and its opposite (``_letter_images``, once per form), give
    each generator one twist column per leg, and the coproduct's columns
    also grow the span V, which comes in chunks from ``_word_stream``. Per
    chunk, R is applied to V, and V grows by all N generators at once
    (``_grow_all``), with one digit per leg, and R is applied once to that
    batch: two applications a chunk. The grown V
    lies in the (n^d, m^d) corner of the block (n^{d+1}, m^{d+1}) of R V
    grown by the opposite coproduct, and so does the grown corner
    (n^{d-1}, m^{d-1}) of R V; only that corner difference is formed.
    Outside it the grown R V is R V outside its corner times both twist
    columns, so its squared column norm is that of R V outside the corner
    times the columns' squared norms, summed once for all generators. The
    residual is the worst column norm over the whole grown block, from the
    sum of both parts, kept as a running maximum per generator over the
    chunks; a lone word is summed as in a wider chunk (``_row_sums``), so
    every residual is the one of the whole span to the bit.

    Every chunk works in one block, allocated once per call for a full
    chunk and reused: three grown sizes, then two chunk sizes. Part 0
    holds V grown, then R V grown by the opposite coproduct; parts 1 and 2
    are the kernel's halves (``_apply_digits``) for the grown batch, and
    the half that R's result leaves free holds the squares of the
    difference; the two chunk sizes are the kernel's halves for R V, which
    stays there. Raises OutOfDomain for a depth-0 operator, which has no
    such span.
    """
    n1, n2 = rmat.shape
    N = n1 * n2
    if rmat.depth < 1:
        raise OutOfDomain(f"intertwining needs operator depth >= 1, got {rmat.depth}")
    span_depth = rmat.depth - 1
    reps = (rmat.rep1, rmat.rep2)
    size = rmat.rank  # entries of a vector of the depth-d block
    (c1, c2), (c1_op, c2_op) = (_letter_images(reps, form) for form in ("delta", "delta_op"))
    # the opposite side acts on R V over the whole depth-d block, so a
    # generator grows each vector by one letter
    total, step, chunks = _word_stream(reps, ("delta",), span_depth, rmat.dims,
                                       "the intertwining check", copies=N, held=N * N,
                                       columns=(c1, c2))
    p, q = n1**span_depth, n2**span_depth
    scale = _square_sums(c1_op, 1) * _square_sums(c2_op, 1)
    # one block for every chunk: fresh arrays per step would be mapped and
    # faulted in again on every call
    block = np.empty((3 * N + 2) * size * step, dtype=complex)

    def views(k):
        """The block's parts for a chunk of k words: the grown batch, the
        kernel's halves for it, the half its result leaves free (as
        floats), and the halves for R V."""
        grown = size * N * k
        parts = block[:3 * grown].reshape(3, grown)
        return (parts[0].reshape(*rmat.dims, N, k), parts[1:], parts[1 + rmat.depth % 2].view(float),
                block[3 * grown:(3 * N + 2) * size * k])

    full = views(step)
    worst = np.zeros(N)  # running maximum of the squared column norms
    for _, (V,) in chunks:
        k = V.shape[-1]
        out, halves, free, moved_work = full if k == step else views(k)
        moved = rmat.apply_dense(V, work=moved_work)
        diff = rmat.apply_dense(_grow_all(V[:p, :q], c1, c2, out=out), work=halves)
        diff -= _grow_all(moved[:p, :q], c1_op, c2_op, out=out)
        # off the (n^d, m^d) corner the grown R V is R V off its (p, q)
        # corner times both twist columns: products of sums of squares
        sq = moved.real**2 + moved.imag**2
        outside = _row_sums(sq[p:], total) + _row_sums(sq[:p, q:], total)
        sums = _square_sums(diff, (0, 1), work=free)
        np.maximum(worst, np.max(sums + outside * scale[:, None], axis=1), out=worst)
    report = VerificationReport(scenario="intertwining")
    # the generators are the words of length 1, after the unit
    names = ("intertwine:" + label for label in itertools.islice(_word_labels(N, 1), 1, None))
    report.check_each(names, np.sqrt(worst), tol, rmat.is_permutation)
    return report


def verify_symmetry(omega1, omega2, depth, tol=BUILD_TOL, r12=None):
    """Inversion symmetry: the operator, composed with its reversed-pair
    partner through leg flips, is the identity on the span.

    R and the flip F both act digit pair by digit pair, so the identity
    R_12 F R_21 F = I at depth d is the d-th tensor power of the one on
    R_1, and it is checked there: the residual is the worst column norm of
    R_1(omega1, omega2) F R_1(omega2, omega1) F - I. Only R_1 is read, so a
    missing operator is built at depth 0, whose preflight covers R_1 alone,
    and the check runs at any depth; a bad depth still raises ValueError.
    For equal states the reversed-pair partner is the operator itself. A
    given ``r12`` must be R(omega1, omega2) of these states, else
    ValueError. A failing record names the digit pair of its worst column
    as witness, ``digit-pair=i,j`` (1-based: digit i of leg 1, digit j of
    leg 2).
    """
    _index(depth, 0, "depth")
    if r12 is None:
        r12 = build_r(omega1, omega2, 0)
    elif not (r12.omega1 == omega1 and r12.omega2 == omega2):
        raise ValueError("r12 is not the operator of (omega1, omega2)")
    r21 = r12 if omega1 == omega2 else build_r(omega2, omega1, 0)
    n, m = r12.shape
    # F_{m,n} R_1(omega2, omega1) F_{n,m}, the flips as one gather
    f = radix_perm(m, n)
    chain = r12.r1 @ r21.r1[np.ix_(f, f)]
    worst, column = _worst_column_at(chain - np.eye(n * m))
    report = VerificationReport(scenario="inversion-symmetry")
    # a failure names its worst column, the digit pair (i, j) of R_1
    report.check("inversion-symmetry", worst, tol, r12.is_permutation and r21.is_permutation,
                 _digit_pair(column, m))
    return report


def _on_legs(r1, legs, radices):
    """The abc x abc matrix of R_1 on the two ``legs`` of a digit triple of
    ``radices``, the identity on the third: R_1 copied into zeros once per
    digit of the third leg."""
    third = 3 - sum(legs)
    out = np.zeros(radices * 2, dtype=complex)
    block = r1.reshape([radices[i] for i in legs] * 2)
    for k in range(radices[third]):
        out[(slice(None),) * third + (k,) + (slice(None),) * 2 + (k,)] = block
    return out.reshape(math.prod(radices), -1)


def verify_ybe(omega1, omega2, omega3, depth, tol=BUILD_TOL, rs=None):
    """Triple exchange identity with an independent symbolic oracle.

    For every word x of the combined algebra up to ``depth``, both sides of
    the identity, R_12 R_13 R_23 and R_23 R_13 R_12, are applied to the
    image of the right-expanded double coproduct, and both are compared with
    each other and with the legwise images of the two double opposite
    coproducts, which the two sides must reproduce. Each R is R_1 on every
    digit pair of its two legs, so each side is one abc x abc matrix on
    every digit triple: the three R_1, each copied onto its two legs of the
    triple in zeros, once per digit of the third (``_on_legs``), multiplied
    once per call. The states' representations see only the block (a, b, c)
    of their algebra indices, so each image is that block alone, gathered
    from the table of its double coproduct (``split_words``): ``f_r`` splits
    the right leg of phi_{a,bc}(x) by phi_{b,c}, and ``f_l_op`` and
    ``f_r_op`` are the tables of ``f_r`` and ``f_l`` with the legs reversed,
    which split a leg of the flipped phi_{c,ab}(x) and phi_{bc,a}(x) by the
    flipped phi_{b,a} and phi_{c,b}. So all three images are gathers of the
    same digit columns; the check that the tables are the paper's maps is
    the mixed-radix split of the tests. The three forms' images come
    chunk by chunk from ``_word_stream``, and each side is applied once per
    chunk (``_apply_digits``). Every word still gets its own record, named
    as ``CuntzMonomial(N, word, ()).label()`` (``_word_labels``), whose
    residual is the largest column norm of the four differences, folded
    per word by ``_word_norms``; ``VerificationReport.check_each`` turns
    them into the pass flags at once. Every residual is the one of a run in
    a single chunk to the bit, one-word chunks included, from depth 2 on.
    At depth 1 a one-word chunk is one row of the matrix product, which
    BLAS rounds differently; the chunk rule makes such chunks there only
    when abc > 2048. Each distinct state pair is built once, and the
    twists are the ones the operators hold, one per state
    (``GPRepresentation.for_state``); so a given ``rs`` must be R(omega1,
    omega2), R(omega1, omega3) and R(omega2, omega3) of these states, else
    ValueError names the pair. SpanTooLarge is raised before anything is
    built when a chunk's three stacks, or the abc x abc sides, would not fit
    in memory beside what is held once: the three forms' leg images and
    the three R_1.
    """
    depth = _index(depth, 0, "depth")
    states = (omega1, omega2, omega3)
    pairs = ((0, 1), (0, 2), (1, 2))
    if rs is None:
        built = []
        for i, j in pairs:
            same = [r for r in built if r.omega1 == states[i] and r.omega2 == states[j]]
            built.append(same[0] if same else build_r(states[i], states[j], depth))
        rs = built
    else:
        for k, (i, j) in enumerate(pairs):
            if not (rs[k].omega1 == states[i] and rs[k].omega2 == states[j]):
                raise ValueError(f"rs[{k}] is not the operator of (omega{i + 1}, omega{j + 1})")
    reps = (rs[0].rep1, rs[0].rep2, rs[1].rep2)
    dims = tuple(s.n**depth for s in states)
    radices = tuple(s.n for s in states)
    N = math.prod(radices)
    total, _, chunks = _word_stream(
        reps, ("f_r", "f_l_op", "f_r_op"), depth, dims, "the triple exchange check", copies=3,
        held=sum(r.r1.size for r in rs),
        also=((N * N, f"the {N} x {N} sides of the triple exchange check"),),
    )
    r12, r13, r23 = (_on_legs(r.r1, legs, radices) for r, legs in zip(rs, pairs))
    sides = (r12 @ r13 @ r23, r23 @ r13 @ r12)

    def diffs(t0, oracle_l, oracle_r):
        lhs, rhs = (_apply_digits(M, t0, radices, depth) for M in sides)
        return (a - b for a, b in
                ((lhs, rhs), (lhs, oracle_l), (rhs, oracle_r), (oracle_l, oracle_r)))

    report = VerificationReport(scenario="ybe")
    report.check_each(("ybe:" + label for label in _word_labels(N, depth)),
                      _word_norms(total, chunks, diffs), tol, all(r.is_permutation for r in rs))
    return report


def counterexample_demo(tol=BUILD_TOL):
    """The degenerate scenario for the noncommuting flip-twisted pair.

    With the standard state of O_2 and its flip twist, the coproduct action
    of the generator with index 2 of O_4 fixes the cyclic pair vector, so a
    relation-defined operator must fix it too (the unit branch gives the
    same vector). The opposite coproduct, however, sends the cyclic vector
    to an orthogonal one, so no unitary can satisfy the conjugation
    identity, and the construction rejects the pair with a witness. Each
    gap is the norm of one algebra difference acting on the cyclic vector.
    """
    report = VerificationReport(scenario="counterexample")
    omega = GPState.standard(2)
    # the flip twist of the standard state is the second basis vector
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    omega_bar = twist_state(omega.z, flip)
    reps = (GPRepresentation.standard(2), GPRepresentation.for_state(omega_bar))
    v = np.ones((1, 1, 1), dtype=complex)  # the cyclic pair vector, batch of one
    x, unit = CuntzMonomial.generator(4, 2), CuntzMonomial.unit(4)

    res_fixed = _worst_column(act_dense(reps, delta(x) - delta(unit), v))
    report.check("coproduct-action-fixes-cyclic-vector", res_fixed, tol, True)

    # the unit branch of the defining relation, R Delta(1) = Delta^op(1) R,
    # forces Rv = v
    res_rv = _worst_column(act_dense(reps, delta_op(unit) - delta(unit), v))
    report.check("relation-unit-branch-fixes-cyclic-vector", res_rv, tol, True)

    opposite = act_dense(reps, delta_op(x), v)
    overlap = abs(opposite[0, 0, 0])  # <v, opposite>, v = e_1 (x) e_1
    report.add(
        "opposite-image-orthogonal-to-cyclic-vector",
        holds(overlap, tol, True),
        overlap,
        witness=json.dumps(pair_to_list(opposite[:, :, 0])),
    )

    # with Rv = v and R* v = v, the conjugated action R Delta(x) R* returns
    # v = Delta^op(1) v, which the opposite action contradicts
    violation = _worst_column(act_dense(reps, delta_op(unit) - delta_op(x), v))
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
