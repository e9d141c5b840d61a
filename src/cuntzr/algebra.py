"""Exact arithmetic in the algebraic span of Cuntz algebra monomials.

The Cuntz algebra O_n (n >= 2) is generated by isometries s_1, ..., s_n with

    s_i* s_j = delta_ij I,          sum_{i=1}^{n} s_i s_i* = I,

and O_1 denotes the scalars, with the convention that its single generator
is the unit. Every product of generators and adjoints reduces to zero or to
a single word pair s_u s_v* (u, v tuples of 1-based letters), so finite
complex combinations of word pairs form a *-algebra closed under all
operations implemented here.

One type, ``TensorElement``, holds the elements of the direct sum of all
O_n and of its tensor powers, stored blockwise and keyed by the tuple of
algebra indices of the legs. An element of one O_n is a one-leg element
with the single block (n,); ``AlgebraElement`` only builds such elements,
and the zero element has no block and so no index. The maps defined on the
direct sum read a monomial or a one-leg element through one coercion,
``one_leg_blocks``.

Equality modulo the relations is decidable on this span: within a degree
class d = |u| - |v|, every term can be rewritten with sum_i s_i s_i* = I
until all annihilation words share one length, and word pairs of a common
shape (|u|, |v|) are linearly independent. ``canonical_residual`` performs
exactly that expansion, legwise inside each block, and returns the largest
coefficient left over.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass

from .errors import BadLevel, MismatchedAlgebra

# The tolerance policy: two constants and one pass rule, ``holds``; only
# exact zero coefficients are dropped.
EQ_TOL = 1e-12     # equality of exact arithmetic, and input checks
BUILD_TOL = 1e-9   # residual bound of the float verifiers


def holds(residual, tol, exact=False):
    """The pass rule of every identity check: ``residual == 0.0`` on exact
    paths (standard states, whose operators are 0/1 matrices), else
    ``residual <= tol``. Written so that a NaN residual fails either way."""
    return residual == 0.0 if exact else residual <= tol


def _index(n, lower=1, name="algebra index", upper=None):
    """``n`` as an int >= ``lower`` (any int if None), and <= ``upper`` when
    given, read through ``operator.index``: a bool, 2.5 or "2" is refused,
    not truncated or parsed; numpy integers are accepted and returned as
    int. ``name`` is the argument's name in the ValueError."""
    if n.__class__ is bool:
        raise ValueError(f"{name} {n!r} is not an integer")
    try:
        i = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} {n!r} is not an integer") from None
    if upper is not None:
        if not lower <= i <= upper:
            raise ValueError(f"{name} {i} outside {lower}..{upper}")
    elif lower is not None and i < lower:
        raise ValueError(f"{name} must be >= {lower}, got {i}")
    return i


def _check_word(n, letters):
    """The letters as a word of O_n, each read as an int in 1..n by
    ``_index``; ``n`` is already read. O_1 words collapse to the unit."""
    word = tuple(_index(l, 1, "letter", n) for l in letters)
    return () if n == 1 else word  # the single generator of O_1 is the unit, words collapse


@dataclass(frozen=True)
class CuntzMonomial:
    """A word pair s_u s_v* in O_n; u = v = () is the unit I_n."""

    n: int
    u: tuple = ()
    v: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n", _index(self.n))
        object.__setattr__(self, "u", _check_word(self.n, self.u))
        object.__setattr__(self, "v", _check_word(self.n, self.v))

    @classmethod
    def unit(cls, n):
        return cls(n)

    @classmethod
    def generator(cls, n, i):
        return cls(n, (i,))

    @property
    def key(self):
        return (self.u, self.v)

    @property
    def degree(self):
        return len(self.u) - len(self.v)

    def adjoint(self):
        return CuntzMonomial(self.n, self.v, self.u)

    def label(self):
        """Text form ``n=<int>;u=<comma-list>;v=<comma-list>``."""
        us = ",".join(str(l) for l in self.u)
        vs = ",".join(str(l) for l in self.v)
        return f"n={self.n};u={us};v={vs}"

    def __str__(self):
        if not self.u and not self.v:
            return f"I_{self.n}"
        parts = []
        if self.u:
            parts.append("s" + "".join(f"_{l}" for l in self.u))
        if self.v:
            parts.append("s" + "".join(f"_{l}" for l in self.v) + "*")
        return "".join(parts)


def mono_key_product(a_key, b_key):
    """Product of two word-pair keys; the resulting key or None for zero.

    (s_u1 s_v1*)(s_u2 s_v2*) contracts through s_v1* s_u2: if v1 is a prefix
    of u2 with remainder w the product is s_{u1 w} s_{v2}*; if u2 is a proper
    prefix of v1 with remainder w it is s_{u1} s_{v2 w}*; otherwise some
    s_i* s_j with i != j occurs and the product vanishes.
    """
    (u1, v1), (u2, v2) = a_key, b_key
    if len(v1) <= len(u2):
        if u2[: len(v1)] == v1:
            return (u1 + u2[len(v1):], v2)
        return None
    if v1[: len(u2)] == u2:
        return (u1, v2 + v1[len(u2):])
    return None


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
    arity, every algebra index is an integer >= 1 (``_index``), a key has
    one word pair per leg, every letter lies in 1..n of its leg, and O_1
    words collapse to the unit, summing the terms that meet. Exact zero
    coefficients are dropped; a NaN coefficient is kept. Instances are
    treated as immutable.
    """

    __slots__ = ("_blocks",)

    def __init__(self, blocks=None, _validate=True):
        out = {}
        if blocks:
            if _validate and len({len(indices) for indices in blocks}) > 1:
                raise ValueError(f"blocks of mixed arity: {list(blocks)}")
            for indices, terms in blocks.items():
                if _validate:
                    indices = tuple(map(_index, indices))
                    terms = _checked_terms(indices, terms)
                kept = {}
                for keys, c in terms.items():
                    c = complex(c)
                    if c != 0:  # NaN is kept
                        kept[keys] = c
                if kept:
                    out[tuple(indices)] = kept
        self._blocks = out

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
        """Termwise sum; arities must agree, and the zero element (None)
        adds to any. Anything but an element is left to Python, which
        raises TypeError."""
        if not isinstance(other, TensorElement):
            return NotImplemented
        if None not in (self.arity, other.arity) and self.arity != other.arity:
            raise ValueError(f"cannot add a {self.arity}-leg and a {other.arity}-leg element")
        out = {p: dict(t) for p, t in self._blocks.items()}
        for p, terms in other._blocks.items():
            dst = out.setdefault(p, {})
            for key, c in terms.items():
                dst[key] = dst.get(key, 0j) + c
        return TensorElement(out, _validate=False)

    def __sub__(self, other):
        return self + (-1.0) * other if isinstance(other, TensorElement) else NotImplemented

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


class AlgebraElement:
    """Constructors of the elements of one O_n, the one-leg elements of the
    direct sum. Each returns a :class:`TensorElement` with the one block
    (n,), or the zero element, which has no block and so no index; no
    instance of this class is made."""

    def __new__(cls, n, terms=None):
        """sum c s_u s_v* over the terms {(u, v): c}, checked as
        ``TensorElement`` checks a block; ``n`` is checked even with no
        terms."""
        return TensorElement({(n,): {(key,): c for key, c in (terms or {}).items()}})

    @staticmethod
    def monomial(mono, coeff=1.0):
        """The one-term element coeff * mono, built without the term loop."""
        c = complex(coeff)  # NaN is kept; the words are read past ``key``, on a hot path
        return TensorElement._from_pruned({(mono.n,): {((mono.u, mono.v),): c}} if c != 0 else {})

    @classmethod
    def unit(cls, n):
        return cls(n, {((), ()): 1.0})

    @classmethod
    def zero(cls, n):
        return cls(n)


def one_leg_blocks(x, n=None):
    """The blocks {(n,): {((u, v),): c}} of a monomial or one-leg element.

    The one coercion of the maps defined on the direct sum: a monomial is
    its one term, a one-leg element its own blocks (read-only). With
    ``n``, ``x`` must lie in O_n, and the zero element, which has no index,
    lies in every O_n. Anything else is a TypeError, another index a
    MismatchedAlgebra.
    """
    if isinstance(x, TensorElement):
        blocks = x._blocks
        if len(blocks) == 1 and (n,) in blocks:  # the common case: arity is not read
            return blocks
        if x.arity not in (None, 1):
            raise TypeError(f"expected a one-leg element, got a {x.arity}-leg tensor element")
    elif isinstance(x, CuntzMonomial):
        blocks = {(x.n,): {(x.key,): 1 + 0j}}
    else:
        raise TypeError(f"expected a monomial or one-leg element, got {type(x).__name__}")
    if n is not None and blocks.keys() - {(n,)}:
        others = ", ".join(f"O_{m}" for (m,) in blocks)
        raise MismatchedAlgebra(f"expected O_{n}, got {others}")
    return blocks


def expanded_keys(n, key, target_len):
    """Keys of the level expansion of a single word pair (no coefficients)."""
    u, v = key
    gap = target_len - len(v)
    if gap < 0:
        raise BadLevel(f"target {target_len} below annihilation length {len(v)}")
    if gap == 0 or n == 1:
        yield key
        return
    for w in itertools.product(range(1, n + 1), repeat=gap):
        yield (u + w, v + w)


def canonical_residual(x, y):
    """Worst coefficient of x - y left after the per-leg level expansion.

    Takes two tensor elements of one arity; the zero element, which has
    none, compares with any, and two arities that differ are a TypeError.
    An element of one O_n is a one-leg element, and elements of different
    summands are different elements; a monomial is read as its one-leg
    element (``one_leg_blocks``), and anything else is a TypeError. Inside
    each block the terms of the difference are grouped by their tuple of
    leg degrees, and every leg is expanded to the longest annihilation
    word of its group. The expanded tensor monomials are linearly
    independent, so the residual is zero exactly when x = y modulo the
    relations. The difference is summed without dropping small
    coefficients, a block whose two term maps are equal is skipped, and a
    NaN anywhere in the difference makes the residual NaN, so no tolerance
    accepts it.
    """
    x, y = (z if isinstance(z, TensorElement) else TensorElement._from_pruned(one_leg_blocks(z))
            for z in (x, y))
    if None not in (x.arity, y.arity) and x.arity != y.arity:
        raise TypeError(f"cannot compare a {x.arity}-leg and a {y.arity}-leg element")
    bx, by = x.blocks, y.blocks
    worst = 0.0
    for indices in bx.keys() | by.keys():
        tx, ty = bx.get(indices, {}), by.get(indices, {})
        if tx == ty and not any(map(cmath.isnan, tx.values())):
            continue  # equal term maps: the difference is exactly zero
        diff = dict(tx)
        for keys, c in ty.items():
            diff[keys] = diff.get(keys, 0j) - c
        if any(map(cmath.isnan, diff.values())):
            return math.nan
        groups = {}
        for keys, c in diff.items():
            if c:
                degrees = tuple(len(u) - len(v) for u, v in keys)
                groups.setdefault(degrees, []).append((keys, c))
        for members in groups.values():
            # per leg, the longest annihilation word of the group
            targets = [max(len(v) for _, v in leg) for leg in zip(*(k for k, _ in members))]
            acc = {}
            for keys, c in members:
                legs = (expanded_keys(*leg) for leg in zip(indices, keys, targets))
                for ekeys in itertools.product(*legs):
                    acc[ekeys] = acc.get(ekeys, 0j) + c
            worst = max(worst, max(abs(c) for c in acc.values()))
    return worst


def canonical_equal(x, y, tol=EQ_TOL):
    """Equality modulo the Cuntz relations: canonical_residual(x, y) <= tol."""
    return holds(canonical_residual(x, y), tol)
