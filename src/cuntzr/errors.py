"""Exception types shared across the package."""


class CuntzrError(Exception):
    """Base class for all package errors."""


class MismatchedAlgebra(CuntzrError):
    """Operands live in different Cuntz algebras O_n."""


class BadLevel(CuntzrError):
    """An expansion target is below an existing annihilation length."""


class BadFactorization(CuntzrError):
    """An element's algebra index does not factor as requested."""


class NotUnitary(CuntzrError):
    """A matrix expected to be unitary fails the check."""


class NotCommuting(CuntzrError):
    """Two states fail the commutation precondition of the construction.

    ``witness`` is a monomial on which the two product functionals differ,
    or None when no witness was requested.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class OutOfDomain(CuntzrError):
    """A vector does not lie in a finite span within tolerance."""


class SpanTooLarge(CuntzrError, MemoryError):
    """The dense arrays of a request would not fit in memory.

    Raised before anything is allocated. It is a MemoryError too, so callers
    that already treat running out of memory as one outcome keep doing so.
    """

    def __init__(self, nbytes, limit, what):
        super().__init__(
            f"{what} needs about {nbytes / 2**20:.1f} MiB of dense arrays, "
            f"more than the {limit / 2**20:.1f} MiB memory limit"
        )
        self.nbytes = nbytes
        self.limit = limit


class SpecError(CuntzrError):
    """Invalid scenario description, with field-level messages."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        super().__init__("; ".join(errors))
        self.errors = list(errors)
