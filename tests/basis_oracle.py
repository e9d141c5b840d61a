"""Whole-operator checks on every basis vector of the depth-d span.

This is how ``verify_symmetry`` and the battery's ``not-identity`` and
leg-swap records were first checked: R is applied to the standard basis of
the (n^d, m^d) block, in blocks of at most ``_BLOCK_ENTRIES`` entries, and
the worst column of the difference is reported. That costs one application
of R per basis block, O(N^2) for a span of N vectors. The library checks
the same identities on the nm x nm matrix R_1, which decides them exactly
because R is R_1 on every digit pair; this sweep shares nothing with that
reduction beyond ``apply_dense``.
"""

from __future__ import annotations

import numpy as np

from cuntzr.rmatrix import BUILD_TOL, VerificationReport, _worst_column, build_r

_BLOCK_ENTRIES = 2**20  # entries per block of basis vectors in the symmetry check


def basis_blocks(dims):
    """The standard basis of a (p, q) block as arrays of shape (p, q, k)."""
    N = dims[0] * dims[1]
    step = max(1, _BLOCK_ENTRIES // max(N, 1))
    for start in range(0, N, step):
        k = min(step, N - start)
        E = np.zeros((N, k), dtype=complex)
        E[np.arange(start, start + k), np.arange(k)] = 1.0
        yield E.reshape(*dims, k)


def basis_residual(rmat, expected):
    """Worst ||R e - expected(e)|| over the standard basis e of the span.

    ``expected`` maps a block of basis vectors, shaped (n^d, m^d, k), to
    the images R should give them.
    """
    return max(
        (_worst_column(rmat.apply_dense(E) - expected(E)) for E in basis_blocks(rmat.dims)),
        default=0.0,
    )


def symmetry_oracle(omega1, omega2, depth, tol=BUILD_TOL, r12=None):
    """Inversion symmetry: the operator, composed with its reversed-pair
    partner through leg flips, is the identity on the span.

    Checked on the standard basis of the span, in blocks. For equal states
    the reversed-pair partner is the operator itself.
    """
    if r12 is None:
        r12 = build_r(omega1, omega2, depth)
    r21 = r12 if omega1 == omega2 else build_r(omega2, omega1, depth)
    worst = 0.0
    for E in basis_blocks(r12.dims):
        step = r21.apply_dense(E.transpose(1, 0, 2))
        step = r12.apply_dense(step.transpose(1, 0, 2))
        worst = max(worst, _worst_column(step - E))
    report = VerificationReport(scenario="inversion-symmetry")
    report.add("inversion-symmetry", worst <= tol, worst)
    return report
