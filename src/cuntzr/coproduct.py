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

Every coproduct is one leg split. The primitive ``_split(m, l, key)`` maps
one word pair of O_{m*l} to its pair of leg keys under phi_{m,l}, letter by
letter, through two tables built once per (m, l). Entry w of the left
table is the digit (w-1)//l + 1 and of the right table (w-1)%l + 1; an O_1
leg has no table, its words collapse to the unit. ``split_words(m, l, W)``
reads the same tables for an integer array W of creation words of one
length, all letters at once; the verifiers build their word images from
it, so a wrong table breaks them and coassociativity alike. ``split_leg``
applies one phi_{m,l} to one leg of a tensor element, and ``expand_leg``
is its union over the ordered divisor pairs. Letterwise splitting is
injective on checked word pairs, so both copy the coefficients of their
input unchanged, with no summing and no pruning. ``phi`` is ``split_leg`` on leg 1 of a
one-leg element, Δ (``delta``) is ``expand_leg`` on leg 1, and Δ^op
(``delta_op``) the same with the flip. Composing ``phi`` with ``split_leg``
gives a single block of a double coproduct, which is all that a triple of
representations sees.

The double coproducts are the two composition orders: ``f_r`` splits the
right leg of the coproduct again, ``f_l`` the left leg. Coassociativity
(``coassoc_residual``) computes Delta(x) once and compares its two outer
expansions, which are different computations: block (a, b, c) of the
right one splits leg 2 by (b, c), of the left one leg 1 by (a, b). The
independent check of both is the mixed-radix split of
``tests/coproduct_oracle.py``. The divisor pairs of each index are
scanned once. Canonical equality of tensor elements is
:func:`cuntzr.algebra.canonical_residual`, which applies the level
expansion to every leg independently inside each block and skips blocks
whose two term maps are equal.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebra import (
    EQ_TOL,
    ZERO_TOL,
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
def _letter_tables(m, l):
    """Digit lookups of phi_{m,l}: entry w is the left or right digit of letter w.

    Letter w = l*(i-1) + j has left digit i and right digit j; entry 0 is
    0. An O_1 leg has no lookup (None); its words collapse to the unit.
    Both splits below read these lookups and no other table.
    """
    letters = range(m * l)
    left = (0, *(w // l + 1 for w in letters)).__getitem__ if m > 1 else None
    right = (0, *(w % l + 1 for w in letters)).__getitem__ if l > 1 else None
    return left, right


def _split(m, l, key):
    """Leg keys (left, right) of one word pair of O_{m*l} under phi_{m,l}."""
    left, right = _letter_tables(m, l)
    u, v = key
    return (
        (tuple(map(left, u)), tuple(map(left, v))) if left else _UNIT,
        (tuple(map(right, u)), tuple(map(right, v))) if right else _UNIT,
    )


def split_words(m, l, words):
    """Digit arrays (left, right) of creation words of O_{m*l} under phi_{m,l}.

    ``words`` is an integer array (K, t) of K words of one length t. Each
    lookup is read once into an array and indexed with the whole word
    array, so each output is (K, t); an O_1 leg gives (K, 0), the unit.
    """
    words = np.asarray(words, dtype=np.intp)
    return tuple(
        np.array([*map(digit, range(m * l + 1))])[words] if digit else words[:, :0]
        for digit in _letter_tables(m, l)
    )


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


def _split_block(blocks, indices, terms, i, pairs, opposite):
    """Write phi_{m,l}, or its flip, of leg ``i`` (0-based) of the terms of one
    block into the output ``blocks``, one block per ordered pair (m, l) of
    ``pairs``. Checked keys split injectively and each output block comes
    from one input block, so the terms are written, not summed."""
    head, tail = indices[:i], indices[i + 1:]
    for m, l in pairs:
        out = {}
        for keys, c in terms.items():
            mid = _split(m, l, keys[i])
            out[keys[:i] + (mid[::-1] if opposite else mid) + keys[i + 1:]] = c
        blocks[head + ((l, m) if opposite else (m, l)) + tail] = out


def split_leg(t, leg, m, l, opposite=False):
    """Apply phi_{m,l}, or with ``opposite`` its flip, to one leg of ``t``.

    Leg number ``leg`` (1-based) of every term in a block whose algebra
    index there is m*l is split once, so the result has one leg more than
    ``t``, which may have any arity; the other blocks are left out. The
    coefficients are copied unchanged.
    """
    blocks = {}
    for indices, terms in t.blocks.items():
        i = _leg_index(indices, leg)
        if indices[i] == m * l:
            _split_block(blocks, indices, terms, i, ((m, l),), opposite)
    return TensorElement._from_pruned(blocks)


def expand_leg(t, leg, opposite=False):
    """Apply the coproduct, or with ``opposite`` its opposite, to one leg of ``t``.

    The union of :func:`split_leg` over the ordered divisor pairs (m, l) of
    each algebra index that leg ``leg`` (1-based) carries in ``t``.
    """
    blocks = {}
    for indices, terms in t.blocks.items():
        i = _leg_index(indices, leg)
        _split_block(blocks, indices, terms, i, _divisor_pairs(indices[i]), opposite)
    return TensorElement._from_pruned(blocks)


def f_r(x):
    """Right-expanded double coproduct (id (x) delta) o delta."""
    return expand_leg(delta(x), 2)


def f_l(x):
    """Left-expanded double coproduct (delta (x) id) o delta."""
    return expand_leg(delta(x), 1)


def f_r_op(x):
    """(id (x) delta_op) o delta_op; right expansion of the opposite coproduct."""
    return expand_leg(delta_op(x), 2, opposite=True)


def f_l_op(x):
    """(delta_op (x) id) o delta_op; left expansion of the opposite coproduct."""
    return expand_leg(delta_op(x), 1, opposite=True)


canonical_equal3 = canonical_equal  # the three-leg name callers already use


def coassoc_residual(x):
    """Canonical residual between (id (x) delta) delta(x) and (delta (x) id) delta(x).

    Delta(x) is computed once; its right leg is then split by the ordered
    divisor pairs (b, c) of each right index and its left leg by the pairs
    (a, b) of each left index. The two expansions reach each block (a, b, c)
    through different splits, so they are two computations.
    """
    d = delta(x)
    return canonical_residual(expand_leg(d, 2), expand_leg(d, 1))


def check_coassoc(x, tol=EQ_TOL):
    """Whether the two double coproducts of ``x`` agree."""
    return holds(coassoc_residual(x), tol)
