"""Concrete realizations of the vector states on the sequence space.

The standard representation of O_n acts on the basis e_1, e_2, ... by

    pi_n(s_i) e_k = e_{n(k-1)+i},
    pi_n(s_i)* e_k = e_{(k-1)//n + 1} when (k-1) mod n == i-1, else 0.

Its vector state at e_1 is the state of the first standard basis vector.
A general unit vector z is realized by substituting the generators through
any unitary U whose first row is conj(z) and then acting as above; the
vector state at e_1 becomes rho_z, every image of a finitely supported
vector stays finitely supported, and all inner products are exact. Note
that the adjoint generators then satisfy s_j* e_1 = z_j e_1, so images of
creation words already span everything the coproduct images reach.

Vectors are dense arrays over the leading coordinate block of each leg:
axis k holds the coordinates of e_1, e_2, ... of leg k, and trailing axes
are a batch. :func:`act_dense`, the only action, acts on them legwise,
growing an axis n-fold per creation letter. :func:`lambda2` and
:func:`lambda3` are dict adapters over it that the benchmark still calls;
:func:`to_dense` and :func:`from_dense` convert for them, and a dict vector
leaves out exact zeros and nothing else.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import resource

import numpy as np

from .algebra import _index
from .coproduct import TensorElement
from .errors import OutOfDomain, SpanTooLarge
from .states import GPState, UnitVector

# ---------------------------------------------------------------------------
# memory preflight

_ENTRY_BYTES = np.dtype(complex).itemsize
# arrays of one batch alive at once: the input, output and working copies of
# an application, and the arrays a verifier stacks and compares
_WORK_COPIES = 6


@functools.cache
def _meminfo():
    """A descriptor of /proc/meminfo, opened once per process and held
    (close-on-exec, as ``os.open`` makes it); a failed open is retried."""
    return os.open("/proc/meminfo", os.O_RDONLY)


def _available_memory():
    """Bytes of memory available to new allocations: MemAvailable of
    /proc/meminfo, or the physical memory where that cannot be read."""
    try:
        # one read from the start of the held descriptor: MemAvailable is
        # the file's third line
        data = os.pread(_meminfo(), 8192, 0)
        start = data.index(b"MemAvailable:") + len(b"MemAvailable:")
        return int(data[start:].split(None, 1)[0]) * 1024  # reported in kB
    except (OSError, ValueError, IndexError):
        pass
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def preflight(*requests, held=0):
    """Raise SpanTooLarge, before allocating, when six working copies of
    the largest of the ``(entries, what)`` requests, with ``held`` entries
    held once beside them, would not fit under the address-space limit
    when one is set, or else in the available memory; the refusal names
    its ``what``, the first request's on a tie. A streamed check passes
    one chunk's arrays as a request and holds what stays for the whole
    call (leg images, the operator). One call reads the limit once,
    whatever the number of requests."""
    entries, what = max(requests, key=lambda request: int(request[0]))
    nbytes = _ENTRY_BYTES * (_WORK_COPIES * int(entries) + int(held))
    limit, _ = resource.getrlimit(resource.RLIMIT_AS)
    if limit == resource.RLIM_INFINITY:
        limit = _available_memory()
    if nbytes > limit:
        raise SpanTooLarge(nbytes, limit, what)


# ---------------------------------------------------------------------------
# dense arrays and their dict form


def to_dense(vec, dims):
    """Dense array of shape ``dims`` of a dict vector with tuple keys.

    Keys are 1-based; a key outside the block raises OutOfDomain.
    """
    out = np.zeros(dims, dtype=complex)
    if vec:
        keys = np.array(list(vec), dtype=np.int64).reshape(len(vec), len(dims)) - 1
        if (keys < 0).any() or (keys >= np.array(dims)).any():
            bad = next(k for k in vec if not all(1 <= i <= d for i, d in zip(k, dims)))
            raise OutOfDomain(f"basis index {bad} outside {tuple(dims)}")
        out[tuple(keys.T)] = list(vec.values())
    return out


def from_dense(arr):
    """Dict vector of the nonzero entries of a dense array, 1-based keys."""
    keys = (np.argwhere(arr) + 1).tolist()
    return dict(zip(map(tuple, keys), arr[arr != 0].tolist()))


def pad_to(arr, lead):
    """A copy of ``arr`` with its leading axes zero-padded to the sizes
    ``lead``; the trailing batch axes stay as they are."""
    out = np.zeros((*lead, *arr.shape[len(lead):]), dtype=arr.dtype)
    out[tuple(map(slice, arr.shape[:len(lead)]))] = arr
    return out


def pair_to_list(arr):
    """Report form [[j, k, re, im], ...] of the nonzero entries of a dense
    pair array, with 1-based indices, in index order."""
    return [
        [int(j) + 1, int(k) + 1, float(arr[j, k].real), float(arr[j, k].imag)]
        for j, k in np.argwhere(arr)
    ]


# ---------------------------------------------------------------------------
# the twisted permutative action


def complete_unitary(z):
    """A unitary with first row conj(z): one Householder reflection, then a
    phase fix.

    The reflection H = I - 2 v v^H / (v^H v) with v = z + e^{it} ||z|| e_1,
    e^{it} the phase of z_1 (1 when z_1 = 0), maps z to -e^{it} ||z|| e_1
    (Householder 1958; the sign as in Golub-Van Loan 5.1, so forming v
    never cancels). H is Hermitian, so its first row is -e^{it} conj(z) up
    to rounding. The phase fix returns -e^{-it} H with row 0 set to conj(z)
    exactly. A basis vector e_k with k > 1 gives a 0/+-1 matrix, the flip
    for e_2 of C^2. Deterministic in z.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    # numpy divides by |z_1| through its reciprocal, which overflows for a
    # subnormal z_1; scaling by a power of two is exact and keeps the phase
    z1 = z[0] * 2.0**600 if abs(z[0]) < np.finfo(float).tiny else z[0]
    phase = z1 / abs(z1) if z1 else 1.0
    v = z.copy()
    v[0] += phase * np.linalg.norm(z)
    U = (2.0 / np.vdot(v, v).real) * np.outer(v, v.conj()) - np.eye(z.size)
    U *= np.conj(phase)
    U[0] = z.conj()
    return U


class GPRepresentation:
    """The permutative action, optionally twisted by a unitary; cyclic vector e_1."""

    __slots__ = ("n", "U", "is_standard")

    def __init__(self, n, U=None):
        self.n = _index(n)
        if U is None:
            self.U = np.eye(self.n, dtype=complex)
            self.is_standard = True
        else:
            self.U = np.asarray(U, dtype=complex)
            if self.U.shape != (self.n, self.n):
                raise ValueError(f"twist shape {self.U.shape} for O_{self.n}")
            self.is_standard = bool(
                np.array_equal(self.U, np.eye(self.n, dtype=complex))
            )

    @classmethod
    def standard(cls, n):
        return cls(n)

    @classmethod
    def for_state(cls, state):
        """The realization of the state of z: twist by a completion of conj(z).

        Built once per unit vector and kept on it, with U read-only, so every
        operator on the state shares one twist."""
        z = state.z if isinstance(state, GPState) else state
        if not isinstance(z, UnitVector):
            z = UnitVector(z)
        if z.rep is None:
            # no reflection returns I for e_1
            standard = z == UnitVector.standard(z.n)
            z.rep = cls(z.n) if standard else cls(z.n, complete_unitary(z.z))
            z.rep.U.setflags(write=False)
        return z.rep

    def state(self):
        """The vector state at e_1; equals the state the twist was built from."""
        return GPState(UnitVector(self.U[0].conj()))

    def __repr__(self):
        kind = "standard" if self.is_standard else "twisted"
        return f"GPRepresentation(O_{self.n}, {kind})"


def _leg_word(rep, u, v, X, axis):
    """s_u s_v* of ``rep`` on one axis of X; s_{v_1}* stands rightmost and
    acts first."""
    n = rep.n
    pre, post = X.shape[:axis], X.shape[axis + 1:]
    P, Q = math.prod(pre), math.prod(post)
    for j in v:
        # e_{n(q-1)+i} -> conj(U[i, j]) e_q: split the axis into (q, i)
        X = pad_to(X, (*pre, -(-X.shape[axis] // n) * n))
        X = np.matmul(rep.U[:, j - 1].conj(), X.reshape(P, -1, n, Q))
        X = X.reshape(*pre, -1, *post)
    for j in reversed(u):
        # e_k -> sum_i U[i, j] e_{n(k-1)+i}: the axis becomes (k, i); a
        # C-ordered product merges the two without a copy
        col = rep.U[:, j - 1].reshape(n, 1)
        X = np.multiply(X.reshape(P, -1, 1, Q), col, order="C")
        X = X.reshape(*pre, -1, *post)
    return X


def _word_size(size, n, u, v):
    """Axis length after s_u s_v* acts on an axis of length ``size``."""
    return -(-size // n ** len(v)) * n ** len(u)


def _terms(reps, t):
    """The terms of the block of ``t`` that the representations see."""
    if not isinstance(t, TensorElement) or t.arity not in (None, len(reps)):
        raise TypeError(f"expected a {len(reps)}-leg tensor element")
    return t.block(*(rep.n for rep in reps))


def act_dense(reps, t, X):
    """Apply the matching block of a tensor element legwise to a dense array.

    Axis k of ``X`` holds the coordinates of e_1, e_2, ... of leg k, which
    ``reps[k]`` acts on; trailing axes are a batch. The terms' images can
    differ in shape and are summed zero-padded to the largest. Blocks other
    than the one of the representations' algebra indices act as zero on
    these legs, mirroring how a state of one summand extends to the direct
    sum. Nothing is pruned.
    """
    terms = _terms(reps, t)
    X = np.asarray(X, dtype=complex)
    legs = len(reps)
    lead = X.shape[:legs]
    if terms:
        lead = [
            max(_word_size(size, rep.n, *keys[k]) for keys in terms)
            for k, (size, rep) in enumerate(zip(X.shape, reps))
        ]
    out = np.zeros((*lead, *X.shape[legs:]), dtype=complex)
    for keys, c in terms.items():
        Y = c * X
        for axis, (rep, (u, v)) in enumerate(zip(reps, keys)):
            Y = _leg_word(rep, u, v, Y, axis)
        out[tuple(map(slice, Y.shape))] += Y
    return out


# ---------------------------------------------------------------------------
# dict images of the cyclic vector


def _cyclic_image(reps, t):
    """Dict image of e_1 (x) ... (x) e_1 under a tensor element, legwise;
    SpanTooLarge is raised before the grown array is made."""
    terms = _terms(reps, t)
    longest = [max((len(keys[k][0]) for keys in terms), default=0) for k in range(len(reps))]
    preflight((math.prod(rep.n**c for rep, c in zip(reps, longest)), "the legwise action"))
    return from_dense(act_dense(reps, t, np.ones((1,) * len(reps))))


def lambda2(rep1, rep2, t):
    """Legwise vector map of a two-leg tensor element: its action on e_1 (x) e_1."""
    return _cyclic_image((rep1, rep2), t)


def lambda3(rep1, rep2, rep3, t):
    """Legwise vector map of a three-leg tensor element, on e_1 (x) e_1 (x) e_1."""
    return _cyclic_image((rep1, rep2, rep3), t)


# ---------------------------------------------------------------------------
# words


def creation_words(n, depth):
    """All creation words of O_n with length <= depth, by length then lex."""
    words = [()]
    for t in range(1, depth + 1):
        words.extend(itertools.product(range(1, n + 1), repeat=t))
    return words
