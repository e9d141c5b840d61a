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

Every coproduct here is letterwise: a word pair of O_n maps letter by
letter to one word pair per leg of each output block, and which digit each
leg gets is one table per index n and form, built once and cached
(``_table``). The forms are Delta (``delta``), Delta^op (``delta_op``)
and the four double coproducts (``f_r``, ``f_l``, ``f_r_op``, ``f_l_op``).
A table is its digit columns: its output blocks in block order, one
integer array per distinct leg column (indexed by letter, row 0 zeros),
and the position of each block's legs among the columns; an O_1 leg has
no column, its words collapse to the unit. Delta's table is the digit
table of O_n (``_digit_table``): under the ordered divisor pair (m, l),
letter w gets the left digit (w-1)//l + 1 and the right digit
(w-1)%l + 1. The tables of ``f_r`` and ``f_l`` are composed once from
the columns of the tables of Delta on n and its divisors: ``f_r`` splits
the right leg of every block of Delta again by Delta, gathering the
columns of phi_{b,c} through the right column of phi_{a,bc}; ``f_l``
splits the left leg, through phi_{ab,c} and then phi_{a,b}. Legs with
equal columns share one. Each opposite form is its mirror followed by the
leg reversal, so its table is a view of the mirror's, on the same columns
with each block's legs reversed: Delta^op of Delta, ``f_r_op`` =
(id (x) Delta^op) Delta^op of ``f_l``, and ``f_l_op`` of ``f_r``.

Two readers share every table. ``_leg_keys`` splits one word pair on all
blocks of a table in one pass over its letters, into one flat tuple of
leg keys in block order, through the per-letter rows of the columns and
their placement on the legs, which the table builds on its first such
split; ``_split`` groups it by block, and ``_coproduct`` writes each
term, with its coefficient unchanged, into every block: letterwise
splitting is injective on checked word pairs, so there is no summing and
no pruning. ``split_words(form, block, W)`` gathers one block's columns
of the whole table with an integer array W of creation words of one
length; the verifiers build their word images from it, so a wrong table
breaks them and coassociativity alike. ``phi(m, l, x)``, the block (m, l)
of Delta(x), splits each term through the whole of Delta's table and
keeps that block. The product functional of two states
(``states.StarComposite``) splits no term: it reads its block's columns
once through ``split_words``.
Coassociativity (``coassoc_residual``) compares ``f_r`` with ``f_l``,
which read different tables composed in different orders. A split cannot
change a coefficient, and both are letterwise, so a term's leg keys agree
on every block exactly when each of its letters has the same digit in
the two tables' columns of every leg of that block. Which letters do not
is computed once per pair of tables (``_disagreeing``, the agreement
mask, one comparison of two columns per distinct pair of them on a
leg); a term with none of them is equal on both sides and is not split.
Only a term with a disagreeing letter, a NaN coefficient, or two tables
with different blocks make it build both double coproducts and take
their canonical residual. So ``verify-coassoc`` with real tables never
builds the rows: on a 2-core machine the tables and mask of O_666649, the
largest index it allows, take about 0.05 s, and the whole command with
no samples about 0.3 s and 61 MB max RSS. The independent check of all
six forms is the mixed-radix split of ``tests/coproduct_oracle.py``; its
per-term expansion of Delta is the second. The divisor pairs of each index are
scanned once. Canonical equality of tensor elements is
:func:`cuntzr.algebra.canonical_residual`, which applies the level
expansion to every leg independently inside each block, and skips the
blocks where the two term maps are equal.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .algebra import (
    EQ_TOL,
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


def _digit_table(n):
    """Digits of every letter of O_n under every ordered divisor pair of n.

    An integer array (n+1, 2d(n)-2): pair k of ``_divisor_pairs(n)``,
    (m, l), gives letter w = l*(i-1) + j its left digit i in column 2k-1 of
    row w and its right digit j in column 2k. The left leg of (1, n) and
    the right leg of (n, 1) are O_1 legs, whose words collapse to the
    unit, so they have no column. Row 0 is zeros. Delta's table is built
    from it (``_table``), and every other table from Delta's.
    """
    pairs = _divisor_pairs(n)
    table = np.zeros((n + 1, 2 * len(pairs)), dtype=np.intp)
    letters = np.arange(n)
    for k, (_, l) in enumerate(pairs):
        table[1:, 2 * k] = letters // l + 1
        table[1:, 2 * k + 1] = letters % l + 1
    return table[:, 1:-1]


@functools.lru_cache(maxsize=None)
def _digits(n):
    """The digits 0..n as an object array of one shared int object each,
    from which the rows of every table of O_n are read."""
    return np.arange(n + 1).astype(object)


@dataclass(frozen=True, eq=False)
class _Table:
    """One coproduct form on O_n (``n``) as a per-letter table: its digit columns.

    ``form`` is the name of the form and ``blocks`` its output blocks in
    block order. ``columns`` holds None for the unit and then one integer
    array per distinct leg column, indexed by letter, row 0 zeros; ``legs``
    gives, per block, the position in ``columns`` of each leg (0 for an O_1
    leg). The columns are the only stored form of the table. The per-term
    split reads two views of them, each built on its first use and kept as
    long as the table: ``rows``, whose row w holds the digits of letter w
    in every column (an opposite table, on its mirror's columns, takes its
    mirror's rows), and ``place``, which takes (unit, leg key of column 1,
    ...) to the leg keys of every block, in order.
    """

    n: int
    form: str
    blocks: tuple
    legs: tuple
    columns: tuple

    @functools.cached_property
    def rows(self):
        if self.form in _MIRRORS:  # on its mirror's columns, its mirror's rows
            mirror = _table(self.n, _MIRRORS[self.form])
            if mirror.columns is self.columns:
                return mirror.rows
        digits = _digits(self.n)
        return tuple(zip(*(digits[c].tolist() for c in self.columns[1:]))) or ((),) * (self.n + 1)

    @functools.cached_property
    def place(self):
        return operator.itemgetter(*itertools.chain(*self.legs))


def _tabulate(n, form, entries):
    """A table of ``form`` on O_n from its (block, leg columns) pairs in
    block order, a leg column being an integer array indexed by letter or
    None for an O_1 leg. Equal columns are kept once."""
    unique, blocks, legs = {}, [], []
    for block, cols in entries:
        blocks.append(block)
        legs.append(tuple(
            0 if c is None else unique.setdefault(c.tobytes(), len(unique) + 1) for c in cols
        ))
    columns = [np.frombuffer(c, dtype=np.intp) for c in unique]
    return _Table(n, form, tuple(blocks), tuple(legs), (None, *columns))


# the double coproducts as Delta with one leg of every block (0 left, 1
# right) split again by Delta
_ORDERS = {"f_r": 1, "f_l": 0}

# each opposite form as its mirror with every block's legs reversed:
# Delta^op is Delta flipped, (id (x) Delta^op) Delta^op is (Delta (x) id)
# Delta reversed, and (Delta^op (x) id) Delta^op is (id (x) Delta) Delta
# reversed
_MIRRORS = {"delta_op": "delta", "f_r_op": "f_l", "f_l_op": "f_r"}


@functools.lru_cache(maxsize=None)
def _table(n, form):
    """The table of ``form`` on O_n, built once.

    Tables are kept for the life of the process. ``verify-coassoc`` bounds
    the largest it builds: in the worst case, where each of its n+1 or
    more monomials falls back, it splits them through the tables of f_r
    and f_l into d_3(n) block keys each, 2(n+1)d_3(n) or more in all, at
    most ``MAX_COASSOC_SPLITS``. A table holds its digit columns only, so
    at O_666649 (prime, the most letters) Delta's table takes 5 MiB and
    the tables of f_r and f_l, with Delta's under them, 15 MiB; at O_3600
    (the most composed columns) 2.4 MiB, and 33 MiB with the tables of its
    divisors (tracemalloc). The rows of a split add one tuple of shared
    ints per letter, on the first per-term split only. An opposite table
    holds no columns or rows of its own: it reads its mirror's
    (``_MIRRORS``).
    """
    if form == "delta":  # pair k has the leg columns 2k and 2k+1
        cols = iter((None, *_digit_table(n).T, None))
        return _tabulate(n, form, zip(_divisor_pairs(n), zip(cols, cols)))
    if form in _MIRRORS:  # the mirror's columns, each block's legs reversed
        table = _table(n, _MIRRORS[form])
        blocks, legs = (tuple(t[::-1] for t in ts) for ts in (table.blocks, table.legs))
        return _Table(n, form, blocks, legs, table.columns)
    return _tabulate(n, form, _compose(n, _ORDERS[form]))


def _compose(n, leg):
    """The (block, leg columns) pairs of Delta on O_n with leg ``leg`` of
    every block split again by Delta: the two new columns are the columns
    of the inner table gathered by the column of the split leg."""
    outer = _table(n, "delta")
    for block, legs in zip(outer.blocks, outer.legs):
        cols = [outer.columns[c] for c in legs]
        inner = _table(block[leg], "delta")
        for inner_block, inner_legs in zip(inner.blocks, inner.legs):
            # an O_1 leg has no column, and neither have its two splits
            two = [None if c == 0 else inner.columns[c][cols[leg]] for c in inner_legs]
            yield block[:leg] + inner_block + block[leg + 1:], cols[:leg] + two + cols[leg + 1:]


def _leg_keys(table, key):
    """The leg keys of one word pair of O_n on every block of ``table``, in
    block order, as one flat tuple, from one pass over its letters."""
    rows = table.rows
    u, v = key
    # every column of the empty word is the empty word
    cu = zip(*map(rows.__getitem__, u)) if u else ((),) * len(rows[0])
    cv = zip(*map(rows.__getitem__, v)) if v else ((),) * len(rows[0])
    return table.place((_UNIT, *zip(cu, cv)))


def _split(table, key):
    """The leg keys of one word pair of O_n on every block of ``table``, in
    block order, one tuple per block."""
    keys = iter(_leg_keys(table, key))
    return zip(*(keys,) * len(table.blocks[0]))


def split_words(form, block, words):
    """Digit arrays of creation words of O_n on the legs of one block of ``form``.

    ``block`` is a block of the form on O_n, the algebra indices of its
    legs with product n, and ``words`` an integer array (K, t) of K words
    of O_n of one length t. Each leg's column of the table is indexed with
    the whole word array, so each output is (K, t); an O_1 leg gives
    (K, 0), the unit.
    """
    words = np.asarray(words, dtype=np.intp)
    table = _table(math.prod(block), form)
    legs = table.legs[table.blocks.index(tuple(block))]
    return tuple(words[:, :0] if c == 0 else table.columns[c][words] for c in legs)


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
    meet. Exact zero coefficients are dropped; a NaN coefficient is kept.
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
                    if c != 0:  # NaN is kept
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
        """Wrap nonempty blocks of nonzero complex coefficients."""
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


def _one_leg(x):
    """A monomial, algebra element or one-leg tensor element as a one-leg tensor."""
    if not isinstance(x, TensorElement):
        return TensorElement.from_element(x)
    if x.arity not in (None, 1):
        raise TypeError(f"cannot take the coproduct of a {x.arity}-leg tensor element")
    return x


def _coproduct(t, form):
    """``form`` of a one-leg tensor element: each term of O_n is split once
    through the table of O_n and written, with its coefficient unchanged,
    into every block of the table."""
    blocks = {}
    for (n,), terms in t.blocks.items():
        table = _table(n, form)
        outs = [{} for _ in table.blocks]
        blocks.update(zip(table.blocks, outs))
        for (key,), c in terms.items():
            for out, keys in zip(outs, _split(table, key)):
                out[keys] = c
    return TensorElement._from_pruned(blocks)


def phi(m, l, x):
    """Letterwise embedding of O_{m*l} into the block O_m (x) O_l.

    Each 1-based generator index w splits uniquely as w = l*(i-1) + j with
    1 <= i <= m and 1 <= j <= l; creation and annihilation words map letter
    by letter, so every input term yields exactly one tensor term. This is
    the block (m, l) of the coproduct: each term is split through Delta's
    whole table and keeps that block's leg keys. m and l must be positive
    integers (``operator.index``) with m*l the index of ``x``.
    """
    x = as_element(x)
    try:
        m, l = operator.index(m), operator.index(l)
    except TypeError:
        raise BadFactorization(f"factors {m!r} and {l!r} of O_{x.n} are not integers") from None
    if not (m >= 1 and l >= 1 and m * l == x.n):
        raise BadFactorization(f"element of O_{x.n} does not factor as {m}*{l}")
    table = _table(x.n, "delta")
    k = 2 * table.blocks.index((m, l))  # its two leg keys among those of every block
    return TensorElement(
        {(m, l): {_leg_keys(table, key)[k:k + 2]: c for key, c in x.items()}}, _validate=False
    )


def delta(x):
    """Comultiplication: one block phi_{m,l}(x_n) per ordered divisor pair.

    Accepts a CuntzMonomial, an AlgebraElement or a one-leg TensorElement,
    which is an element of the direct sum. A single monomial of O_n
    produces exactly one pure tensor term per ordered divisor pair of n.
    """
    return _coproduct(_one_leg(x), "delta")


def delta_op(x):
    """Opposite comultiplication: the coproduct followed by the leg flip."""
    return _coproduct(_one_leg(x), "delta_op")


def f_r(x):
    """Right-expanded double coproduct (id (x) delta) o delta."""
    return _coproduct(_one_leg(x), "f_r")


def f_l(x):
    """Left-expanded double coproduct (delta (x) id) o delta."""
    return _coproduct(_one_leg(x), "f_l")


def f_r_op(x):
    """(id (x) delta_op) o delta_op; right expansion of the opposite coproduct."""
    return _coproduct(_one_leg(x), "f_r_op")


def f_l_op(x):
    """(delta_op (x) id) o delta_op; left expansion of the opposite coproduct."""
    return _coproduct(_one_leg(x), "f_l_op")


canonical_equal3 = canonical_equal  # the three-leg name callers already use


@functools.lru_cache(maxsize=None)
def _disagreeing(right, left):
    """The letters of O_n whose leg keys on the blocks of ``right`` differ
    from those on the same blocks of ``left``: the per-letter agreement
    mask of the two tables, as the set of letters where it is false, or
    None when the two tables do not hold the same distinct blocks. Keyed
    on the table objects, so a table built again gets its own.

    A letter's leg key on a leg is its digit in that leg's column, so the
    mask is one comparison of the two columns of each distinct pair of
    (right column, left column) on the legs of a block. An O_1 leg (column
    0) has no digit and agrees only with an O_1 leg: against a leg with
    digits every letter disagrees.
    """
    if len(set(right.blocks)) != len(right.blocks) or sorted(right.blocks) != sorted(left.blocks):
        return None
    at = dict(zip(left.blocks, left.legs))
    pairs = {p for block, legs in zip(right.blocks, right.legs) for p in zip(legs, at[block])}
    # an O_1 leg reads as a column of zeros, which no letter's digit equals
    zero = np.zeros(right.n + 1, dtype=np.intp)
    differ = np.zeros(right.n + 1, dtype=bool)
    for a, b in pairs:
        differ |= (right.columns[a] if a else zero) != (left.columns[b] if b else zero)
    return frozenset(np.flatnonzero(differ).tolist())


def disagreeing_letters(n):
    """The letters of O_n on which the tables of ``f_r`` and ``f_l``
    disagree (``_disagreeing``), or None when their blocks differ; a
    generator of O_n is coassociative exactly when its letter is not
    among them."""
    return _disagreeing(_table(n, "f_r"), _table(n, "f_l"))


def coassoc_residual(x):
    """Canonical residual between (id (x) delta) delta(x) and (delta (x) id) delta(x).

    The two double coproducts read different composed tables: block
    (a, b, c) of the right one splits by (a, bc) and then (b, c), of the
    left one by (ab, c) and then (a, b), so they are two computations.
    Both are letterwise, and a split writes each coefficient unchanged, so
    a term's leg keys agree on every block exactly when each letter of its
    two words agrees in the two tables; the letters that do not are cached
    once per pair of tables (``disagreeing_letters``). When no term holds
    such a letter, the two double coproducts are equal block maps and the
    residual is 0.0, with no split made. A term with a disagreeing letter,
    a NaN coefficient or two tables with different blocks build both double
    coproducts and return their canonical residual, NaN for a NaN
    coefficient; so every residual is the canonical one.
    """
    x = _one_leg(x)
    for (n,), terms in x.blocks.items():
        bad = disagreeing_letters(n)
        # a NaN coefficient, like a disagreeing letter, takes the canonical residual
        if bad is None or any(map(cmath.isnan, terms.values())) or (
            bad and any(not bad.isdisjoint(u + v) for ((u, v),) in terms)
        ):
            return canonical_residual(_coproduct(x, "f_r"), _coproduct(x, "f_l"))
    return 0.0


def check_coassoc(x, tol=EQ_TOL):
    """Whether the two double coproducts of ``x`` agree."""
    return holds(coassoc_residual(x), tol)
