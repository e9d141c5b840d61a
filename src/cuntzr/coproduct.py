"""The divisor-pair comultiplication of the Cuntz direct sum.

For every ordered factorization n = m * l there is a unital *-embedding
phi_{m,l} : O_n -> O_m (x) O_l that sends the generator with 1-based index
w = l*(i-1) + j to s_i (x) s_j. Summing the embeddings over all ordered
divisor pairs of each component index gives a coassociative comultiplication
on the direct sum; the opposite comultiplication is the same map followed
by the leg flip.

Elements of the direct sum and of its tensor powers are one type,
``TensorElement``, stored blockwise and keyed by the tuple of algebra
indices of the legs: an element of the direct sum is a one-leg tensor
element (``TensorElement.from_element``), and the coproduct (two legs) and
the double coproducts (three legs) have more legs. The public constructor
checks each key once, against the algebra index of its leg; everything
built from checked keys is wrapped without a second pass. So a pair (or
triple) of representations or states can project onto the single block it
sees.

Delta, Delta^op and phi are one leg split each, and every split reads
one digit table per index n, built once (``_digit_table``). Its row w
holds the left digit (w-1)//l + 1 and the right digit (w-1)%l + 1 of
letter w under every ordered divisor pair (m, l) of n; an O_1 leg has no
column, its words collapse to the unit. A word pair is split under all pairs of its
index in one pass over its letters (``_leg_keys``: the rows of its
letters, transposed into one column per leg), and ``_expand_block``
writes the coefficient of each term, from that one split, into the
output block of every pair its caller asks for: ``split_leg`` asks for
one phi_{m,l}, ``expand_leg`` for all the ordered divisor pairs, so
``expand_leg`` is the union of ``split_leg`` over them. ``split_words(m, l, W)`` indexes
the pair's two columns of the table with an integer array W of creation
words of one length; the verifiers build their word images from it, so a
wrong table breaks them and coassociativity alike. Letterwise splitting
is injective on checked word pairs, so the splits copy the coefficients
of their input unchanged, with no summing and no pruning. ``phi`` is
``split_leg`` on leg 1 of a one-leg element, Δ (``delta``) is
``expand_leg`` on leg 1, and Δ^op (``delta_op``) the same with the flip.
Composing ``phi`` with ``split_leg`` gives a single block of a double
coproduct, which is all that a triple of representations sees.

The double coproducts are the two composition orders: ``f_r`` splits the
right leg of the coproduct again, ``f_l`` the left leg, and ``f_r_op``,
``f_l_op`` the same with the flips. They are letterwise, so each reads one
table per index n and order, composed once from the columns of the digit
tables (``_compose``): row w holds the digits of letter w on the legs of
every ordered divisor triple (a, b, c), gathered through phi_{a,bc} and
then phi_{b,c} for ``f_r``, through phi_{ab,c} and then phi_{a,b} for
``f_l``. A term is split in one pass over its letters and written into
every block (a, b, c); no Delta is computed. A composed table is reused
only while each digit table it came from is still the one
``_digit_table`` hands out. Coassociativity (``coassoc_residual``)
compares ``f_r`` with ``f_l``, which read different tables composed in
different orders. The independent check of all four is the mixed-radix
split of ``tests/coproduct_oracle.py``; ``expand_leg`` of Delta is the
second. The divisor pairs of each index are scanned once. Canonical
equality of tensor elements is :func:`cuntzr.algebra.canonical_residual`,
which applies the level expansion to every leg independently inside each
block, and skips blocks, or the whole comparison, where the two term maps
are equal.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EQ_TOL,
    ZERO_TOL,
    CuntzMonomial,
    _check_word,
    as_element,
    canonical_equal,
    canonical_residual,
    holds,
    mono_key_product,
)
from .errors import BadFactorization

_UNIT = ((), ())


def divisor_pairs(n):
    """Ordered factorizations (m, l) with m * l = n, in increasing m."""
    return list(_divisor_pairs(n))


@functools.lru_cache(maxsize=None)
def _divisor_pairs(n):
    """The divisor pairs of n as a tuple, scanned once per n."""
    return tuple((m, n // m) for m in range(1, n + 1) if n % m == 0)


@functools.lru_cache(maxsize=None)
def _digit_table(n):
    """Digits of every letter of O_n under every ordered divisor pair of n.

    Pair k of ``_divisor_pairs(n)``, (m, l), gives letter w = l*(i-1) + j
    its left digit i in column 2k-1 of row w and its right digit j in
    column 2k. The left leg of (1, n) and the right leg of (n, 1) are O_1
    legs, whose words collapse to the unit, so they have no column. Row 0
    is zeros. Every split reads this table and no other: ``_leg_keys`` its
    rows, ``split_words`` the pair's two columns and ``_compose`` all its
    columns.

    The table holds (n+1)(2d(n)-2) digits for the life of the process, also
    when only one pair is read, and so do the composed tables of the double
    coproducts (``_compose``) with (n+1)(d_3(n)-d(n)) digits each, one per
    distinct column. ``verify-coassoc`` bounds them: a request makes
    (n+1)*2d_3(n) term writes, at most ``MAX_COASSOC_SPLITS``, and
    d_3(n) >= d(n). At the largest allowed indices (tracemalloc), the digit
    table takes 82 MiB and the two composed tables of coassociativity 112
    MiB at O_666649 (prime, the largest index and the most rows); at O_3600
    (the most composed digits, 1.8M a table) 4 MiB and 32 MiB, with the
    digit tables of the divisors.
    """
    pairs = _divisor_pairs(n)
    rows = [tuple(d + 1 for _, l in pairs for d in divmod(w, l))[1:-1] for w in range(n)]
    return ((0,) * len(rows[0]), *rows)


def _leg_keys(n, key):
    """Leg keys of one word pair of O_n under every ordered divisor pair of
    n, from one pass over its letters: entries 2k and 2k+1 are the left and
    right keys under pair k of ``_divisor_pairs(n)``."""
    rows = _digit_table(n)
    u, v = key
    # every column of the empty word is the empty word
    cu = zip(*map(rows.__getitem__, u)) if u else ((),) * len(rows[0])
    cv = zip(*map(rows.__getitem__, v)) if v else ((),) * len(rows[0])
    return (_UNIT, *zip(cu, cv), _UNIT)


def split_words(m, l, words):
    """Digit arrays (left, right) of creation words of O_{m*l} under phi_{m,l}.

    ``words`` is an integer array (K, t) of K words of one length t. The
    pair's two columns of the digit table are indexed with the whole word
    array, so each output is (K, t); an O_1 leg gives (K, 0), the unit.
    """
    words = np.asarray(words, dtype=np.intp)
    # one column per leg, as the entries of _leg_keys; None for an O_1 leg
    columns = (None, *zip(*_digit_table(m * l)), None)
    k = 2 * _divisor_pairs(m * l).index((m, l))
    return tuple(words[:, :0] if col is None else np.array(col)[words] for col in columns[k:k + 2])


def _checked_terms(indices, terms):
    """Terms of one block with every leg key checked against its algebra
    index; keys that meet once O_1 words collapse are summed."""
    out = {}
    for keys, c in terms.items():
        if len(keys) != len(indices):
            raise ValueError(f"{len(keys)}-leg key {keys!r} in block {indices}")
        keys = tuple((_check_word(n, u), _check_word(n, v)) for n, (u, v) in zip(indices, keys))
        if keys in out:
            out[keys] += c
        else:
            out[keys] = c
    return out


class TensorElement:
    """Finite combination of tensor monomials, grouped by the legs' algebra indices.

    A block key is the tuple of algebra indices of the legs; its length is
    the arity, and an element of the direct sum has one leg. Within a
    block, terms map the tuple of the legs' word-pair keys to a
    coefficient. Each key is checked once, here: all blocks have one
    arity, a key has one word pair per leg, every letter lies in 1..n of
    its leg, and O_1 words collapse to the unit, summing the terms that
    meet. Coefficients with magnitude at or below ``ZERO_TOL`` are pruned;
    a NaN coefficient is kept.
    Instances are treated as immutable.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks=None, _validate=True):
        out = {}
        if blocks:
            if _validate and len({len(indices) for indices in blocks}) > 1:
                raise ValueError(f"blocks of mixed arity: {list(blocks)}")
            for indices, terms in blocks.items():
                indices = tuple(indices)
                if _validate:
                    terms = _checked_terms(indices, terms)
                kept = {}
                for keys, c in terms.items():
                    c = complex(c)
                    if not abs(c) <= ZERO_TOL:  # written so that NaN is kept
                        kept[keys] = c
                if kept:
                    out[indices] = kept
        self._blocks = out

    @classmethod
    def from_element(cls, x):
        """The one-leg element {(n,): {(key,): c}} of a monomial or element of O_n."""
        if isinstance(x, CuntzMonomial):  # its one term, as AlgebraElement.monomial has it
            return cls._from_pruned({(x.n,): {(x.key,): 1 + 0j}})
        x = as_element(x)
        if x.is_zero:
            return cls()
        return cls._from_pruned({(x.n,): {(key,): c for key, c in x.items()}})

    @classmethod
    def _from_pruned(cls, blocks):
        """Wrap nonempty blocks of complex coefficients already above ``ZERO_TOL``."""
        t = cls.__new__(cls)
        t._blocks = blocks
        return t

    @property
    def blocks(self):
        """Block map (n_1, ..., n_k) -> {(key_1, ..., key_k): coeff}; read-only."""
        return self._blocks

    def block(self, *indices):
        return self._blocks.get(indices, {})

    @property
    def arity(self):
        """Number of legs; None for the zero element, which has no blocks."""
        return len(next(iter(self._blocks))) if self._blocks else None

    @property
    def is_zero(self):
        return not self._blocks

    def term_count(self):
        return sum(len(t) for t in self._blocks.values())

    def __add__(self, other):
        """Termwise sum; arities must agree, and the zero element (None) adds to any."""
        if None not in (self.arity, other.arity) and self.arity != other.arity:
            raise ValueError(f"cannot add a {self.arity}-leg and a {other.arity}-leg element")
        out = {p: dict(t) for p, t in self._blocks.items()}
        for p, terms in other._blocks.items():
            dst = out.setdefault(p, {})
            for key, c in terms.items():
                dst[key] = dst.get(key, 0j) + c
        return TensorElement(out, _validate=False)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        c = complex(scalar)
        return TensorElement(
            {p: {k: c * v for k, v in t.items()} for p, t in self._blocks.items()},
            _validate=False,
        )

    def __mul__(self, other):
        """Legwise product; distinct blocks are distinct summands and annihilate."""
        if not isinstance(other, TensorElement):
            return self.__rmul__(other)
        out = {}
        for indices, terms in self._blocks.items():
            if indices not in other._blocks:
                continue
            dst = out.setdefault(indices, {})
            for a_keys, c1 in terms.items():
                for b_keys, c2 in other._blocks[indices].items():
                    keys = tuple(map(mono_key_product, a_keys, b_keys))
                    if None not in keys:
                        dst[keys] = dst.get(keys, 0j) + c1 * c2
        return TensorElement(out, _validate=False)

    def flip(self):
        """Reverse the legs: block (m, l) with term a (x) b becomes (l, m), b (x) a."""
        return TensorElement._from_pruned(
            {p[::-1]: {k[::-1]: c for k, c in t.items()} for p, t in self._blocks.items()}
        )

    def adjoint(self):
        return TensorElement._from_pruned(
            {
                p: {tuple((v, u) for u, v in k): c.conjugate() for k, c in t.items()}
                for p, t in self._blocks.items()
            }
        )

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self._blocks == other._blocks

    def __repr__(self):
        return f"TensorElement(blocks={sorted(self._blocks)})"


TensorElement3 = TensorElement  # the three-leg name callers already use


def phi(n, m, x):
    """Letterwise embedding of O_{n*m} into the block O_n (x) O_m.

    Each 1-based generator index w splits uniquely as w = m*(i-1) + j with
    1 <= i <= n and 1 <= j <= m; creation and annihilation words map letter
    by letter, so every input term yields exactly one tensor term.
    """
    x = as_element(x)
    if x.n != n * m:
        raise BadFactorization(f"element of O_{x.n} does not factor as {n}*{m}")
    return split_leg(TensorElement.from_element(x), 1, n, m)


def _one_leg(x):
    """A monomial, algebra element or one-leg tensor element as a one-leg tensor."""
    if not isinstance(x, TensorElement):
        return TensorElement.from_element(x)
    if x.arity not in (None, 1):
        raise TypeError(f"cannot take the coproduct of a {x.arity}-leg tensor element")
    return x


def delta(x):
    """Comultiplication: one block phi_{m,l}(x_n) per ordered divisor pair.

    Accepts a CuntzMonomial, an AlgebraElement or a one-leg TensorElement,
    which is an element of the direct sum, and splits its one leg with
    :func:`expand_leg`. A single monomial of O_n produces exactly one pure
    tensor term per ordered divisor pair of n.
    """
    return expand_leg(_one_leg(x), 1)


def delta_op(x):
    """Opposite comultiplication: the coproduct followed by the leg flip."""
    return expand_leg(_one_leg(x), 1, opposite=True)


def _leg_index(indices, leg):
    """0-based position of leg ``leg`` (1-based) in a block key."""
    if not 1 <= leg <= len(indices):
        raise ValueError(f"leg {leg} outside 1..{len(indices)}")
    return leg - 1


def _expand_block(blocks, indices, terms, i, first, stop, opposite):
    """Write leg ``i`` (0-based) of the terms of one block, split under
    pairs ``first`` to ``stop`` (None: to the end) of the divisor pairs of
    its index (or their flips), into one output block per pair, in pair
    order. Each term is split once for all its pairs (``_leg_keys``), and
    its coefficient is copied unchanged."""
    before, after = indices[:i], indices[i + 1:]
    pairs = _divisor_pairs(indices[i])[first:stop]
    outs = [blocks.setdefault(before + (p[::-1] if opposite else p) + after, {}) for p in pairs]
    # pair k's leg keys are entries 2k and 2k+1, taken as (right, left) for
    # the flip; zip stops at the last pair asked for
    a, b = 2 * first + opposite, 2 * first + (not opposite)
    for keys, c in terms.items():
        legs = _leg_keys(indices[i], keys[i])
        head, tail = keys[:i], keys[i + 1:]
        for out, mid in zip(outs, zip(legs[a::2], legs[b::2])):
            out[head + mid + tail] = c


def split_leg(t, leg, m, l, opposite=False):
    """Apply phi_{m,l}, or with ``opposite`` its flip, to one leg of ``t``.

    Leg number ``leg`` (1-based) of every term in a block whose algebra
    index there is m*l is split once, so the result has one leg more than
    ``t``, which may have any arity; the other blocks are left out. Checked
    keys split injectively, so the coefficients are copied unchanged.
    """
    blocks = {}
    for indices, terms in t.blocks.items():
        i = _leg_index(indices, leg)
        if indices[i] == m * l:
            k = _divisor_pairs(m * l).index((m, l))
            _expand_block(blocks, indices, terms, i, k, k + 1, opposite)
    return TensorElement._from_pruned(blocks)


def expand_leg(t, leg, opposite=False):
    """Apply the coproduct, or with ``opposite`` its opposite, to one leg of ``t``.

    The union of :func:`split_leg` over the ordered divisor pairs (m, l) of
    each algebra index that leg ``leg`` (1-based) carries in ``t``, in pair
    order, from one split of each term under all its pairs.
    """
    blocks = {}
    for indices, terms in t.blocks.items():
        i = _leg_index(indices, leg)
        _expand_block(blocks, indices, terms, i, 0, None, opposite)
    return TensorElement._from_pruned(blocks)


# the double coproducts as two splits composed: which leg of phi_{m,l} (0
# left, 1 right) is split again, and whether the three legs come out
# reversed, as in the opposite orders
_ORDERS = {"f_r": (1, False), "f_l": (0, False), "f_r_op": (0, True), "f_l_op": (1, True)}


@dataclass(frozen=True, eq=False)
class _ComposedTable:
    """One double coproduct of O_n as a per-letter table.

    ``triples`` are its output blocks (a, b, c) in block order. Row w of
    ``rows`` holds the digits of letter w on the legs of every triple; an
    O_1 leg has no column, and legs with equal columns share one. Row 0 is
    zeros. ``place`` takes (unit, leg key of column 1, ...) to the three leg
    keys of every triple, in order. ``sources`` are the digit tables of
    ``indices`` that the table was composed from.
    """

    n: int
    indices: tuple
    sources: tuple
    triples: tuple
    rows: tuple
    place: operator.itemgetter


_composed = {}  # (n, order) -> its composed table, replaced when stale


def _composed_table(n, order):
    """The table of ``order`` on O_n, composed once and reused while every
    digit table it was composed from is still the one ``_digit_table``
    hands out."""
    table = _composed.get((n, order))
    if table is None or not all(map(operator.is_, map(_digit_table, table.indices), table.sources)):
        table = _composed[(n, order)] = _compose(n, order)
    return table


def _columns(table):
    """The columns of a digit table as integer arrays indexed by letter, one
    per leg of each divisor pair in pair order, as the entries of
    ``_leg_keys``; None for an O_1 leg. One transpose of the whole table."""
    return (None, *np.array(table, dtype=np.intp).T, None)


def _compose(n, order):
    """Compose phi_{m,l} and then phi on one of its legs, per letter, for
    every ordered divisor triple of n, from the columns of the digit tables
    of n and of the indices of that leg: each triple's columns are gathers
    of the inner pair's columns by the outer pair's, and the rows are one
    transpose of them all."""
    inner, reverse = _ORDERS[order]
    sources = {n: _digit_table(n)}
    outer = _columns(sources[n])
    columns, triples, place, unique = {}, [], [], {}
    for k, pair in enumerate(_divisor_pairs(n)):
        j, split, other = pair[inner], outer[2 * k + inner], outer[2 * k + 1 - inner]
        if j not in columns:
            sources[j] = _digit_table(j)
            columns[j] = _columns(sources[j])
        for p, (a, b) in enumerate(_divisor_pairs(j)):
            # an O_1 inner leg has no column, and neither have its two splits
            two = [None if col is None else col[split] for col in columns[j][2 * p:2 * p + 2]]
            three = (other, *two) if inner else (*two, other)
            triple = (pair[0], a, b) if inner else (a, b, pair[1])
            triples.append(triple[::-1] if reverse else triple)
            for col in three[::-1] if reverse else three:
                if col is None:
                    place.append(0)
                else:  # equal columns give equal leg keys, so each is kept once
                    place.append(unique.setdefault(col.tobytes(), len(unique) + 1))
    # the digits as one shared int object each, not one per entry
    digits = np.arange(n + 1).astype(object)
    rows = tuple(zip(*(digits[np.frombuffer(col, dtype=np.intp)].tolist() for col in unique)))
    return _ComposedTable(
        n,
        tuple(sources),
        tuple(sources.values()),
        tuple(triples),
        rows or ((),) * (n + 1),  # O_1 has no column
        operator.itemgetter(*place),
    )


def _triple_keys(table, key):
    """The keys of one word pair of O_n on the three legs of every triple
    of a composed table, in block order, from one pass over its letters."""
    rows = table.rows
    u, v = key
    # every column of the empty word is the empty word
    cu = zip(*map(rows.__getitem__, u)) if u else ((),) * len(rows[0])
    cv = zip(*map(rows.__getitem__, v)) if v else ((),) * len(rows[0])
    keys = iter(table.place((_UNIT, *zip(cu, cv))))
    return zip(keys, keys, keys)


def _double_coproduct(x, order):
    """A double coproduct of a monomial, an element or a one-leg tensor
    element: each term of O_n is split once through the composed table and
    written, with its coefficient unchanged, into every block (a, b, c)."""
    blocks = {}
    for (n,), terms in _one_leg(x).blocks.items():
        table = _composed_table(n, order)
        outs = [{} for _ in table.triples]
        blocks.update(zip(table.triples, outs))
        for (key,), c in terms.items():
            for out, keys in zip(outs, _triple_keys(table, key)):
                out[keys] = c
    return TensorElement._from_pruned(blocks)


def f_r(x):
    """Right-expanded double coproduct (id (x) delta) o delta."""
    return _double_coproduct(x, "f_r")


def f_l(x):
    """Left-expanded double coproduct (delta (x) id) o delta."""
    return _double_coproduct(x, "f_l")


def f_r_op(x):
    """(id (x) delta_op) o delta_op; right expansion of the opposite coproduct."""
    return _double_coproduct(x, "f_r_op")


def f_l_op(x):
    """(delta_op (x) id) o delta_op; left expansion of the opposite coproduct."""
    return _double_coproduct(x, "f_l_op")


canonical_equal3 = canonical_equal  # the three-leg name callers already use


def coassoc_residual(x):
    """Canonical residual between (id (x) delta) delta(x) and (delta (x) id) delta(x).

    The two double coproducts read different composed tables: block
    (a, b, c) of the right one splits by (a, bc) and then (b, c), of the
    left one by (ab, c) and then (a, b), so they are two computations.
    """
    x = _one_leg(x)
    return canonical_residual(f_r(x), f_l(x))


def check_coassoc(x, tol=EQ_TOL):
    """Whether the two double coproducts of ``x`` agree."""
    return holds(coassoc_residual(x), tol)
