"""Monomial labels read back, every word pair of O_n up to a length, and
the one-leg rewrites the tests compare against.

``parse_label`` inverts ``CuntzMonomial.label``, so a test can name the
word of a record by its label; ``iter_monomials`` lists the word pairs of
O_n by total length, the scan the tests use to find a monomial on which
two states differ. ``mono_product`` is the product of two word pairs as an
element, ``level_expand`` the rewrite of every term to one annihilation
length by the defining relation, and ``word_terms`` reads a one-leg
element of O_n as its terms {(u, v): c}. None is reached by the library
or the CLI.
"""

from __future__ import annotations

import itertools

from cuntzr.algebra import (
    AlgebraElement,
    CuntzMonomial,
    TensorElement,
    expanded_keys,
    mono_key_product,
)
from cuntzr.errors import MismatchedAlgebra


def parse_label(text):
    """The monomial of a label ``n=<int>;u=<comma-list>;v=<comma-list>``."""
    try:
        fields = dict(part.split("=", 1) for part in text.strip().split(";"))
        n = int(fields["n"])
        u = tuple(int(t) for t in fields["u"].split(",") if t)
        v = tuple(int(t) for t in fields["v"].split(",") if t)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad monomial label {text!r}") from exc
    return CuntzMonomial(n, u, v)


def iter_monomials(n, max_total_len):
    """Word pairs ordered by total length, creation-heavy first, then lex."""
    for t in range(max_total_len + 1):
        if n == 1 and t > 0:
            break  # everything collapses to the unit
        for a in range(t, -1, -1):
            for u in itertools.product(range(1, n + 1), repeat=a):
                for v in itertools.product(range(1, n + 1), repeat=t - a):
                    yield CuntzMonomial(n, u, v)


def word_terms(x, n):
    """The terms {(u, v): c} of a one-leg element that lies in O_n."""
    assert x.blocks.keys() <= {(n,)}, f"not an element of O_{n}: {x!r}"
    return {key: c for (key,), c in x.block(n).items()}


def mono_product(a, b):
    """Normal form of (s_{a.u} s_{a.v}*)(s_{b.u} s_{b.v}*); at most one term."""
    if a.n != b.n:
        raise MismatchedAlgebra(f"O_{a.n} vs O_{b.n}")
    key = mono_key_product(a.key, b.key)
    if key is None:
        return AlgebraElement.zero(a.n)
    return AlgebraElement(a.n, {key: 1.0})


def level_expand(x, target_len):
    """Rewrite a one-leg element so every annihilation word has length
    exactly ``target_len``.

    Each term s_u s_v* with |v| < target_len becomes the sum over all words
    w of length target_len - |v| of s_{u w} s_{v w}*, by inserting
    sum_i s_i s_i* = I. The value in O_n is unchanged and each term keeps
    its degree |u| - |v|.
    """
    blocks = {}
    for (n,), terms in x.blocks.items():
        out = blocks.setdefault((n,), {})
        for (key,), c in terms.items():
            for ekey in expanded_keys(n, key, target_len):
                out[(ekey,)] = out.get((ekey,), 0j) + c
    return TensorElement(blocks, _validate=False)
