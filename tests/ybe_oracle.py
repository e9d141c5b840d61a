"""The triple exchange check one word at a time, on full double coproducts.

This is how ``verify_ybe`` first checked the Yang-Baxter identity. For each
creation word x it expands the three whole double coproducts f_r(x),
f_l_op(x) and f_r_op(x), lets the representations pick their block, and
applies both operator orderings to that single image, six operator
applications per word. ``verify_ybe`` computes only the block the
representations see and applies the operators to chunks of stacked words;
this loop shares neither with it.
"""

from __future__ import annotations

import numpy as np

from cuntzr.algebra import CuntzMonomial
from cuntzr.coproduct import f_l_op, f_r, f_r_op
from cuntzr.representations import act_dense, creation_words, pad_to
from cuntzr.rmatrix import BUILD_TOL


def _image(reps, t, dims):
    return pad_to(act_dense(reps, t, np.ones((1,) * len(reps))), dims)


def _apply_on_legs(rmat, T, legs):
    # the parked leg is the batch axis of the pairwise operator
    order = (*legs, 3 - sum(legs))
    return rmat.apply_dense(T.transpose(order)).transpose(np.argsort(order))


def ybe_records(reps, rs, depth, tol=BUILD_TOL):
    """[(name, passed, residual)] for every creation word of the combined
    algebra up to ``depth``, in ``verify_ybe``'s order."""
    r12, r13, r23 = rs
    dims = tuple(rep.n**depth for rep in reps)
    N = int(np.prod([rep.n for rep in reps]))
    all_permutations = all(r.is_permutation for r in rs)
    records = []
    for word in creation_words(N, depth):
        mono = CuntzMonomial(N, word, ())
        t0 = _image(reps, f_r(mono), dims)
        lhs = _apply_on_legs(r23, t0, (1, 2))
        lhs = _apply_on_legs(r13, lhs, (0, 2))
        lhs = _apply_on_legs(r12, lhs, (0, 1))
        rhs = _apply_on_legs(r12, t0, (0, 1))
        rhs = _apply_on_legs(r13, rhs, (0, 2))
        rhs = _apply_on_legs(r23, rhs, (1, 2))
        oracle_l = _image(reps, f_l_op(mono), dims)
        oracle_r = _image(reps, f_r_op(mono), dims)
        worst = float(max(
            np.linalg.norm(lhs - rhs),
            np.linalg.norm(lhs - oracle_l),
            np.linalg.norm(rhs - oracle_r),
            np.linalg.norm(oracle_l - oracle_r),
        ))
        passed = not (all_permutations and worst > 0.0) and worst <= tol
        records.append((f"ybe:{mono.label()}", passed, worst))
    return records
