"""Exact arithmetic in the algebraic span of Cuntz algebra monomials.

The Cuntz algebra O_n (n >= 2) is generated by isometries s_1, ..., s_n with

    s_i* s_j = delta_ij I,          sum_{i=1}^{n} s_i s_i* = I,

and O_1 denotes the scalars, with the convention that its single generator
is the unit. Every product of generators and adjoints reduces to zero or to
a single word pair s_u s_v* (u, v tuples of 1-based letters), so finite
complex combinations of word pairs form a *-algebra closed under all
operations implemented here.

Equality modulo the relations is decidable on this span: within a degree
class d = |u| - |v|, every term can be rewritten with sum_i s_i s_i* = I
until all annihilation words share one length, and word pairs of a common
shape (|u|, |v|) are linearly independent. ``canonical_residual`` performs
exactly that expansion, on one leg or legwise on tensor elements, and
returns the largest coefficient left over.
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


def _letter(n, l):
    """Letter ``l`` of O_n as an int in 1..n, read through ``operator.index``:
    2.5 or "2" is refused, not truncated or parsed; numpy integers are
    accepted."""
    try:
        i = operator.index(l)
    except TypeError:
        raise ValueError(f"letter {l!r} is not an integer") from None
    if not 1 <= i <= n:
        raise ValueError(f"letter {i} outside 1..{n}")
    return i


def _check_word(n, letters):
    if n < 1:
        raise ValueError(f"algebra index must be >= 1, got {n}")
    word = tuple(_letter(n, l) for l in letters)
    return () if n == 1 else word  # the single generator of O_1 is the unit, words collapse


@dataclass(frozen=True)
class CuntzMonomial:
    """A word pair s_u s_v* in O_n; u = v = () is the unit I_n."""

    n: int
    u: tuple = ()
    v: tuple = ()

    def __post_init__(self):
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

    @classmethod
    def parse_label(cls, text):
        try:
            fields = dict(part.split("=", 1) for part in text.strip().split(";"))
            n = int(fields["n"])
            u = tuple(int(t) for t in fields["u"].split(",") if t)
            v = tuple(int(t) for t in fields["v"].split(",") if t)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad monomial label {text!r}") from exc
        return cls(n, u, v)

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


class AlgebraElement:
    """Finite complex combination of word pairs in one O_n.

    Terms are stored as a map (u, v) -> coefficient; keys are normalized
    word tuples and exact zero coefficients are dropped; a NaN coefficient
    is kept. Instances are treated as immutable.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n, terms=None, _validate=True):
        self.n = int(n)
        acc = {}
        if terms:
            for (u, v), c in terms.items():
                if _validate:
                    u = _check_word(self.n, u)
                    v = _check_word(self.n, v)
                c = complex(c)
                key = (u, v)
                if key in acc:
                    acc[key] += c
                else:
                    acc[key] = c
        self._terms = {k: c for k, c in acc.items() if c != 0}  # NaN is kept

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def unit(cls, n):
        return cls(n, {((), ()): 1.0}, _validate=False)

    @classmethod
    def monomial(cls, mono, coeff=1.0):
        """The one-term element coeff * mono, built without the term loop."""
        x = cls.__new__(cls)
        x.n = int(mono.n)
        c = complex(coeff)
        x._terms = {mono.key: c} if c != 0 else {}  # NaN is kept
        return x

    @property
    def terms(self):
        """Term map; treat as read-only."""
        return self._terms

    def items(self):
        return self._terms.items()

    def monomials(self):
        for (u, v), c in self._terms.items():
            yield CuntzMonomial(self.n, u, v), c

    @property
    def is_zero(self):
        return not self._terms

    def _require_same(self, other):
        if self.n != other.n:
            raise MismatchedAlgebra(f"O_{self.n} vs O_{other.n}")

    def __add__(self, other):
        self._require_same(other)
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0j) + c
        return AlgebraElement(self.n, out, _validate=False)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._require_same(other)
            out = {}
            for key1, c1 in self._terms.items():
                for key2, c2 in other._terms.items():
                    key = mono_key_product(key1, key2)
                    if key is not None:
                        out[key] = out.get(key, 0j) + c1 * c2
            return AlgebraElement(self.n, out, _validate=False)
        c = complex(other)
        return AlgebraElement(
            self.n, {k: c * v for k, v in self._terms.items()}, _validate=False
        )

    def __rmul__(self, scalar):
        return self * scalar

    def adjoint(self):
        return AlgebraElement(
            self.n,
            {(v, u): c.conjugate() for (u, v), c in self._terms.items()},
            _validate=False,
        )

    def __eq__(self, other):
        """Exact term-level equality; use canonical_equal for equality
        modulo the Cuntz relations."""
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return f"AlgebraElement(O_{self.n}, 0)"
        bits = " + ".join(
            f"({c:.4g})*{CuntzMonomial(self.n, u, v)}"
            for (u, v), c in sorted(self._terms.items())
        )
        return f"AlgebraElement(O_{self.n}, {bits})"


def mono_product(a, b):
    """Normal form of (s_{a.u} s_{a.v}*)(s_{b.u} s_{b.v}*); at most one term."""
    if a.n != b.n:
        raise MismatchedAlgebra(f"O_{a.n} vs O_{b.n}")
    key = mono_key_product(a.key, b.key)
    if key is None:
        return AlgebraElement.zero(a.n)
    return AlgebraElement(a.n, {key: 1.0}, _validate=False)


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


def level_expand(x, target_len):
    """Rewrite x so every annihilation word has length exactly ``target_len``.

    Each term s_u s_v* with |v| < target_len becomes the sum over all words
    w of length target_len - |v| of s_{u w} s_{v w}*, by inserting
    sum_i s_i s_i* = I. The value in O_n is unchanged and each term keeps
    its degree |u| - |v|.
    """
    out = {}
    for key, c in x.items():
        for ekey in expanded_keys(x.n, key, target_len):
            out[ekey] = out.get(ekey, 0j) + c
    return AlgebraElement(x.n, out, _validate=False)


def _leg_blocks(x):
    """Blockwise terms {leg indices: {leg keys: coeff}}; an element is one leg."""
    if isinstance(x, AlgebraElement):
        return {(x.n,): {(key,): c for key, c in x.items()}}
    return x.blocks


def canonical_residual(x, y):
    """Worst coefficient of x - y left after the per-leg level expansion.

    Takes two algebra elements (one leg) or two tensor elements of any
    arity (anything with blockwise ``blocks``). Inside each block the terms
    of the difference are grouped by their tuple of leg degrees, and every
    leg is expanded to the longest annihilation word of its group. The
    expanded tensor monomials are linearly independent, so the residual is
    zero exactly when x = y modulo the relations. The difference is summed
    without dropping small coefficients, a block whose two term maps are
    equal is skipped, and a NaN anywhere in the difference makes the
    residual NaN, so no tolerance accepts it.
    """
    if isinstance(x, AlgebraElement) != isinstance(y, AlgebraElement):
        raise TypeError("cannot compare an algebra element with a tensor element")
    if isinstance(x, AlgebraElement) and x.n != y.n:
        raise MismatchedAlgebra(f"O_{x.n} vs O_{y.n}")
    bx, by = _leg_blocks(x), _leg_blocks(y)
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


def as_element(x, n=None):
    """Coerce a monomial or element to an AlgebraElement, checking the index."""
    if isinstance(x, CuntzMonomial):
        x = AlgebraElement.monomial(x)
    if not isinstance(x, AlgebraElement):
        raise TypeError(f"expected an algebra element, got {type(x).__name__}")
    if n is not None and x.n != n:
        raise MismatchedAlgebra(f"expected O_{n}, got O_{x.n}")
    return x


def iter_monomials(n, max_total_len):
    """Word pairs ordered by total length, creation-heavy first, then lex."""
    for t in range(max_total_len + 1):
        if n == 1 and t > 0:
            break  # everything collapses to the unit
        for a in range(t, -1, -1):
            for u in itertools.product(range(1, n + 1), repeat=a):
                for v in itertools.product(range(1, n + 1), repeat=t - a):
                    yield CuntzMonomial(n, u, v)
