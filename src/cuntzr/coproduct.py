"""The divisor-pair comultiplication of the Cuntz direct sum.

For every ordered factorization n = m * l there is a unital *-embedding
phi_{m,l} : O_n -> O_m (x) O_l that sends the generator with 1-based index
w = l*(i-1) + j to s_i (x) s_j. Summing the embeddings over all ordered
divisor pairs of each component index gives a coassociative comultiplication
on the direct sum; the opposite comultiplication is the same map followed
by the leg flip.

Everything here rests on one primitive, ``_split(m, l, key)``: it maps one
word pair of O_{m*l} to its pair of leg keys under phi_{m,l}, letter by
letter, through two tables built once per (m, l). Entry w of the left
table is the digit (w-1)//l + 1 and of the right table (w-1)%l + 1; an O_1
leg has no table, its words collapse to the unit. ``phi``, ``delta``,
``delta_op``, ``split_leg`` and ``expand_leg`` call it directly on the
stored keys, with no intermediate algebra objects. ``split_leg`` applies
one phi_{m,l} to one leg of a tensor element, and ``expand_leg`` is its
union over the ordered divisor pairs; composing ``phi`` with ``split_leg``
gives a single block of a double coproduct, which is all that a triple of
representations sees. Letterwise splitting is injective on word pairs, so
the coproducts copy the already pruned coefficients of their input
unchanged.

Tensor elements of any number of legs are stored blockwise, keyed by the
tuple of algebra indices of the legs, so a pair (or triple) of
representations or states can project onto the single block it sees.
The double coproducts are the two composition orders: ``f_r`` splits the
right leg of the coproduct again, ``f_l`` the left leg, so coassociativity
compares two different computations. Canonical equality of tensor elements
is :func:`cuntzr.algebra.canonical_residual`, which applies the level
expansion to every leg independently inside each block.
"""

from __future__ import annotations

import functools

from .algebra import (
    EQ_TOL,
    ZERO_TOL,
    AlgebraElement,
    CuntzMonomial,
    DirectSumElement,
    canonical_equal,
    mono_key_product,
)
from .errors import BadFactorization

_UNIT = ((), ())


def divisor_pairs(n):
    """Ordered factorizations (m, l) with m * l = n, in increasing m."""
    return [(m, n // m) for m in range(1, n + 1) if n % m == 0]


@functools.lru_cache(maxsize=None)
def _letter_tables(m, l):
    """Digit lookups of phi_{m,l}: entry w is the left or right digit of letter w.

    Letter w = l*(i-1) + j has left digit i and right digit j. An O_1 leg
    has no lookup (None); its words collapse to the unit.
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


class TensorElement:
    """Finite combination of tensor monomials, grouped by the legs' algebra indices.

    A block key is the tuple of algebra indices of the legs; its length is
    the arity. Within a block, terms map the tuple of the legs' word-pair
    keys to a coefficient. Coefficients with magnitude at or below
    ``ZERO_TOL`` are pruned. Instances are treated as immutable.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks=None):
        out = {}
        if blocks:
            for indices, terms in blocks.items():
                kept = {}
                for keys, c in terms.items():
                    c = complex(c)
                    if abs(c) > ZERO_TOL:
                        kept[keys] = c
                if kept:
                    out[tuple(indices)] = kept
        self._blocks = out

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
        out = {p: dict(t) for p, t in self._blocks.items()}
        for p, terms in other._blocks.items():
            dst = out.setdefault(p, {})
            for key, c in terms.items():
                dst[key] = dst.get(key, 0j) + c
        return TensorElement(out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        c = complex(scalar)
        return TensorElement(
            {p: {k: c * v for k, v in t.items()} for p, t in self._blocks.items()}
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
        return TensorElement(out)

    def flip(self):
        """Reverse the legs: block (m, l) with term a (x) b becomes (l, m), b (x) a."""
        return TensorElement._from_pruned(
            {p[::-1]: {k[::-1]: c for k, c in t.items()} for p, t in self._blocks.items()}
        )

    def adjoint(self):
        return TensorElement(
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
    if isinstance(x, CuntzMonomial):
        x = AlgebraElement.monomial(x)
    if x.n != n * m:
        raise BadFactorization(f"element of O_{x.n} does not factor as {n}*{m}")
    if x.is_zero:
        return TensorElement()
    return TensorElement._from_pruned(
        {(n, m): {_split(n, m, key): c for key, c in x.items()}}
    )


def _components(x):
    if isinstance(x, CuntzMonomial):
        x = AlgebraElement.monomial(x)
    if isinstance(x, AlgebraElement):
        x = DirectSumElement.from_element(x)
    if not isinstance(x, DirectSumElement):
        raise TypeError(f"cannot take the coproduct of {type(x).__name__}")
    return x.components


def _coproduct(x, opposite):
    blocks = {}
    for n, comp in sorted(_components(x).items()):
        terms = comp.terms
        for m, l in divisor_pairs(n):  # m * l = n: a block of its own
            if opposite:
                blocks[(l, m)] = {_split(m, l, key)[::-1]: c for key, c in terms.items()}
            else:
                blocks[(m, l)] = {_split(m, l, key): c for key, c in terms.items()}
    return TensorElement._from_pruned(blocks)


def delta(x):
    """Comultiplication: one block phi_{m,l}(x_n) per ordered divisor pair.

    Accepts a CuntzMonomial, AlgebraElement, or DirectSumElement. A single
    monomial of O_n produces exactly one pure tensor term per ordered
    divisor pair of n.
    """
    return _coproduct(x, opposite=False)


def delta_op(x):
    """Opposite comultiplication: the coproduct followed by the leg flip."""
    return _coproduct(x, opposite=True)


def _leg_index(indices, leg):
    """0-based position of leg ``leg`` (1-based) in a block key."""
    if not 1 <= leg <= len(indices):
        raise ValueError(f"leg {leg} outside 1..{len(indices)}")
    return leg - 1


def _split_block(blocks, indices, terms, i, pairs, opposite):
    """Add phi_{m,l}, or its flip, of leg ``i`` (0-based) of the terms of one
    block to the output ``blocks``, for each ordered pair (m, l) of ``pairs``."""
    head, tail = indices[:i], indices[i + 1:]
    for m, l in pairs:
        dst = blocks.setdefault(head + ((l, m) if opposite else (m, l)) + tail, {})
        for keys, c in terms.items():
            mid = _split(m, l, keys[i])
            key = keys[:i] + (mid[::-1] if opposite else mid) + keys[i + 1:]
            dst[key] = dst.get(key, 0j) + c


def split_leg(t, leg, m, l, opposite=False):
    """Apply phi_{m,l}, or with ``opposite`` its flip, to one leg of ``t``.

    Leg number ``leg`` (1-based) of every term in a block whose algebra
    index there is m*l is split once, so the result has one leg more than
    ``t``, which may have any arity; the other blocks are left out. Output
    terms that meet are summed and the sums pruned at ``ZERO_TOL``: with
    normalized words none meet, but a hand-built ``t`` may hold keys that do.
    """
    blocks = {}
    for indices, terms in t.blocks.items():
        i = _leg_index(indices, leg)
        if indices[i] == m * l:
            _split_block(blocks, indices, terms, i, ((m, l),), opposite)
    return TensorElement(blocks)


def expand_leg(t, leg, opposite=False):
    """Apply the coproduct, or with ``opposite`` its opposite, to one leg of ``t``.

    The union of :func:`split_leg` over the ordered divisor pairs (m, l) of
    each algebra index that leg ``leg`` (1-based) carries in ``t``, summed
    and pruned in the same way.
    """
    blocks = {}
    for indices, terms in t.blocks.items():
        i = _leg_index(indices, leg)
        _split_block(blocks, indices, terms, i, divisor_pairs(indices[i]), opposite)
    return TensorElement(blocks)


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


def check_coassoc(x, tol=EQ_TOL):
    """Whether the two double coproducts of ``x`` agree."""
    return canonical_equal(f_r(x), f_l(x), tol)
