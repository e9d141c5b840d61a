"""Two expansions of the coproducts that share nothing with the split tables.

* The per-term expansion is how the coproduct layer first computed
  delta and the double coproducts. The digits of a letter come from
  enumerating the defining formula w = l*(i-1) + j, not from division.
  ``expand_leg`` applies a comap to one leg of every term: it wraps the leg
  in a one-term AlgebraElement, calls the comap on it and merges the
  TensorElements it returns.
* The mixed-radix split is the k-fold coproduct in closed form. For an
  ordered factorization n = a_1 * ... * a_k, letter w of O_n goes to its
  digits (d_1, ..., d_k) with w - 1 = sum_t (d_t - 1) * a_{t+1} * ... * a_k,
  one on each leg. By coassociativity both double coproducts equal the
  k = 3 split, and the opposite ones equal its leg reversal.

Both are slow per term and meant for the short words and small indices
of the tests.
"""

from __future__ import annotations

from cuntzr.algebra import AlgebraElement, CuntzMonomial
from cuntzr.coproduct import TensorElement


def components(x):
    """Component map {n: AlgebraElement} of a monomial, an element, or an
    element of the direct sum stored as a one-leg tensor element."""
    if isinstance(x, CuntzMonomial):
        x = AlgebraElement.monomial(x)
    if isinstance(x, AlgebraElement):
        return {x.n: x}
    return {n: AlgebraElement(n, {k: c for (k,), c in terms.items()})
            for (n,), terms in x.blocks.items()}


def factorizations(n, k):
    """Ordered k-tuples of positive integers with product n."""
    if k == 1:
        return [(n,)]
    return [(a,) + rest for a in range(1, n + 1) if n % a == 0
            for rest in factorizations(n // a, k - 1)]


def _leg_key(n, u, v):
    # an O_1 leg collapses to the unit
    return (tuple(u), tuple(v)) if n > 1 else ((), ())


def _reversed(t):
    return TensorElement(
        {p[::-1]: {k[::-1]: c for k, c in terms.items()} for p, terms in t.blocks.items()}
    )


# ---------------------------------------------------------------------------
# the per-term expansion


def phi(m, l, x):
    """phi_{m,l} of an element of O_{m*l}, one term at a time."""
    digits = {l * (i - 1) + j: (i, j) for i in range(1, m + 1) for j in range(1, l + 1)}
    terms = {}
    for (u, v), c in x.items():
        left = _leg_key(m, [digits[w][0] for w in u], [digits[w][0] for w in v])
        right = _leg_key(l, [digits[w][1] for w in u], [digits[w][1] for w in v])
        terms[(left, right)] = c
    return TensorElement({(m, l): terms})


def delta(x):
    out = {}
    for n, comp in components(x).items():
        for m, l in factorizations(n, 2):
            out.update(phi(m, l, comp).blocks)
    return TensorElement(out)


def delta_op(x):
    return _reversed(delta(x))


def expand_leg(t, leg, comap):
    """``comap`` on leg number ``leg`` (1-based) of every term of ``t``."""
    blocks = {}
    i = leg - 1
    for indices, terms in t.blocks.items():
        head, tail = indices[:i], indices[i + 1:]
        for keys, c in terms.items():
            inner = comap(AlgebraElement(indices[i], {keys[i]: 1.0}, _validate=False))
            pre, post = keys[:i], keys[i + 1:]
            for mid, inner_terms in inner.blocks.items():
                dst = blocks.setdefault(head + mid + tail, {})
                for mid_keys, c2 in inner_terms.items():
                    key = pre + mid_keys + post
                    dst[key] = dst.get(key, 0j) + c * c2
    return TensorElement(blocks)


def f_r(x):
    return expand_leg(delta(x), 2, delta)


def f_l(x):
    return expand_leg(delta(x), 1, delta)


def f_r_op(x):
    return expand_leg(delta_op(x), 2, delta_op)


def f_l_op(x):
    return expand_leg(delta_op(x), 1, delta_op)


# ---------------------------------------------------------------------------
# the mixed-radix split


def radix_digits(radices, w):
    """1-based digits of letter w in the mixed radix ``radices``, most significant first."""
    rest, digits = w - 1, []
    for a in reversed(radices):
        rest, d = divmod(rest, a)
        digits.append(d + 1)
    return digits[::-1]


def radix_coproduct(x, arity, opposite=False):
    """The ``arity``-fold coproduct of ``x``: one block per ordered factorization.

    With ``opposite`` the legs of every term are reversed, which is the
    ``arity``-fold opposite coproduct.
    """
    blocks = {}
    for n, comp in components(x).items():
        for radices in factorizations(n, arity):
            terms = {}
            for (u, v), c in comp.items():
                du = [radix_digits(radices, w) for w in u]
                dv = [radix_digits(radices, w) for w in v]
                keys = tuple(
                    _leg_key(a, [d[t] for d in du], [d[t] for d in dv])
                    for t, a in enumerate(radices)
                )
                terms[keys] = c
            blocks[radices] = terms
    t = TensorElement(blocks)
    return _reversed(t) if opposite else t
