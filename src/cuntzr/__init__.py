"""Exact Cuntz-algebra bialgebra arithmetic and swap-implementing unitaries.

The package models the direct sum of all Cuntz algebras with its
divisor-pair comultiplication, the pure states parametrized by unit
vectors, their permutative realizations on the sequence space, and the
unitaries that carry the coproduct to its opposite on tensor products of
the realization spaces, together with verifiers for every identity the
construction satisfies.
"""

from .algebra import (
    AlgebraElement,
    CuntzMonomial,
    canonical_equal,
    canonical_residual,
    level_expand,
    mono_product,
    substitute_generators,
)
from .coproduct import (
    TensorElement,
    TensorElement3,
    canonical_equal3,
    check_coassoc,
    delta,
    delta_op,
    divisor_pairs,
    f_l,
    f_r,
    phi,
)
from .errors import (
    BadFactorization,
    BadLevel,
    CuntzrError,
    MismatchedAlgebra,
    NotCommuting,
    NotUnitary,
    OutOfDomain,
    SpanTooLarge,
    SpecError,
)
from .representations import (
    GPRepresentation,
    act,
    act_legs,
    gns_lambda,
    lambda2,
    lambda3,
)
from .rmatrix import (
    RMatrixOperator,
    VerificationReport,
    build_r,
    counterexample_demo,
    radix_swap_r,
    swap_index_pair,
    verify_intertwining,
    verify_symmetry,
    verify_ybe,
)
from .states import (
    GPState,
    StarComposite,
    UnitVector,
    boxtimes,
    commutes,
    gp_eval,
    star,
    state_from_json,
    state_to_json,
    twist_state,
)

__version__ = "0.2.0"

__all__ = [
    "AlgebraElement",
    "BadFactorization",
    "BadLevel",
    "CuntzMonomial",
    "CuntzrError",
    "GPRepresentation",
    "GPState",
    "MismatchedAlgebra",
    "NotCommuting",
    "NotUnitary",
    "OutOfDomain",
    "RMatrixOperator",
    "SpanTooLarge",
    "SpecError",
    "StarComposite",
    "TensorElement",
    "TensorElement3",
    "UnitVector",
    "VerificationReport",
    "act",
    "act_legs",
    "boxtimes",
    "build_r",
    "canonical_equal",
    "canonical_equal3",
    "canonical_residual",
    "check_coassoc",
    "commutes",
    "counterexample_demo",
    "delta",
    "delta_op",
    "divisor_pairs",
    "f_l",
    "f_r",
    "gns_lambda",
    "gp_eval",
    "lambda2",
    "lambda3",
    "level_expand",
    "mono_product",
    "phi",
    "radix_swap_r",
    "star",
    "state_from_json",
    "state_to_json",
    "substitute_generators",
    "swap_index_pair",
    "twist_state",
    "verify_intertwining",
    "verify_symmetry",
    "verify_ybe",
]
