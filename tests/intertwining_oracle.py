"""The conjugation identity one generator at a time, through the symbolic action.

This is how ``verify_intertwining`` first acted with the generators. For
each generator x of O_{nm} it takes the tensor elements phi_{n,m}(x) and
the flipped phi_{m,n}(x), lets ``act_dense`` apply them legwise to the span
V and to R V, zero-pads both sides to their common block and measures the
worst column of the difference. ``verify_intertwining`` never forms a
tensor element: it grows the span by all generators at once with gathered
twist columns, and sums a column's squares on the corner of the grown
block and off it apart. The span V, the operator and the pass rule are
shared, so names and pass flags must agree exactly, and residuals to
rounding (exactly on permutation pairs, whose products are exact).
"""

from __future__ import annotations

import numpy as np

from cuntzr.algebra import CuntzMonomial, holds
from cuntzr.coproduct import phi
from cuntzr.representations import act_dense, pad_to
from cuntzr.rmatrix import BUILD_TOL, _word_images, _worst_column


def intertwining_records(rmat, tol=BUILD_TOL):
    """[(name, passed, residual)] for every generator of O_{nm}, in
    ``verify_intertwining``'s order."""
    n1, n2 = rmat.shape
    N = n1 * n2
    span_depth = rmat.depth - 1
    reps = (rmat.rep1, rmat.rep2)
    V = next(_word_images(reps, "delta", span_depth, (n1**span_depth, n2**span_depth)))
    moved = rmat.apply_dense(pad_to(V, rmat.dims))
    records = []
    for i in range(1, N + 1):
        word = CuntzMonomial.generator(N, i)
        lhs = rmat.apply_dense(pad_to(act_dense(reps, phi(n1, n2, word), V), rmat.dims))
        rhs = act_dense(reps, phi(n2, n1, word).flip(), moved)
        # both sides zero-padded to their common block
        diff = pad_to(lhs, np.maximum(lhs.shape[:-1], rhs.shape[:-1]))
        diff[tuple(map(slice, rhs.shape))] -= rhs
        worst = _worst_column(diff)
        records.append((f"intertwine:{word.label()}", holds(worst, tol, rmat.is_permutation), worst))
    return records
