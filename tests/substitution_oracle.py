"""Generator substitution, the letter-by-letter expansion of a *-endomorphism.

``substitute_generators(x, U)`` applies s_j -> sum_i U[i-1, j-1] s_i to
every letter of every word of ``x``, term by term. A state twisted by a
unitary (``states.twist_state``) must equal the state of the substituted
element, and the substitution must be multiplicative; the tests check
both against it. It shares nothing with the twist's closed form.
"""

from __future__ import annotations

import itertools

import numpy as np

from cuntzr.algebra import AlgebraElement


def substitute_generators(x, matrix):
    """Apply the *-endomorphism s_j -> sum_i matrix[i-1, j-1] s_i termwise.

    Expands every letter of every word; intended for short words (the cost
    is n^(|u|+|v|) per term).
    """
    n = x.n
    U = np.asarray(matrix, dtype=complex)
    if U.shape != (n, n):
        raise ValueError(f"matrix shape {U.shape} does not match O_{n}")
    out = {}
    letters = range(1, n + 1)
    for (u, v), c in x.items():
        for iu in itertools.product(letters, repeat=len(u)):
            cu = c
            for a, b in zip(iu, u):
                cu *= U[a - 1, b - 1]
            if cu == 0:
                continue
            for iv in itertools.product(letters, repeat=len(v)):
                cv = cu
                for a, b in zip(iv, v):
                    cv *= U[a - 1, b - 1].conjugate()
                if cv == 0:
                    continue
                key = (iu, iv)
                out[key] = out.get(key, 0j) + cv
    return AlgebraElement(n, out, _validate=False)
