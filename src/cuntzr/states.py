"""States of the Cuntz algebras parametrized by unit vectors.

A unit vector z in C^n defines a pure state rho_z of O_n by

    rho_z(s_u s_v*) = conj(z_{u_1}) ... conj(z_{u_a}) * z_{v_1} ... z_{v_b},

with empty products equal to 1, so rho_z(I) = 1 and rho_z(s_u) = conj(z)_u.
For n = 1 the only admitted vector is the scalar 1, matching the convention
that O_1 is the scalars.

Two such states multiply through the comultiplication: evaluating the
product functional (rho_z (x) rho_y) o phi on O_{nm} gives the state of the
interleaved vector with components (z [*] y)_{m(i-1)+j} = z_i y_j, i.e. the
Kronecker product of the coefficient vectors. The product functional is
kept lazily as :class:`StarComposite` so the closed form is something the
tests verify rather than assume: it is letterwise, the values of its
factors read at the digits of phi_{n,m}, which it takes from the columns
of Delta's table, so a wrong table breaks it. Its factors must be states or
composites.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .algebra import EQ_TOL, CuntzMonomial, _index, holds, one_leg_blocks
from .coproduct import split_words
from .errors import NotUnitary


class UnitVector:
    """A unit vector in C^n; the parameter of one state."""

    # rep: the representation GPRepresentation.for_state built, once per vector
    __slots__ = ("n", "z", "rep")

    def __init__(self, components):
        z = np.asarray(components, dtype=complex).reshape(-1).copy()
        if z.size < 1:
            raise ValueError("a unit vector needs at least one component")
        # a pairwise sum of the squared components: a BLAS norm rounds to
        # 1 + 6e-12 for the uniform vector of C^5000000, past the bound
        nrm = math.sqrt(np.add.reduce(np.square(z.view(float))))
        if not holds(abs(nrm - 1.0), EQ_TOL):  # a NaN norm fails too
            raise ValueError(f"not a unit vector: norm = {nrm!r}")
        # O_1 is the scalars, and its one state is the scalar 1: a phase is refused
        if z.size == 1 and not holds(abs(z[0] - 1.0), EQ_TOL):
            raise ValueError(f"the unit vector of C^1 is 1, not {complex(z[0])!r}")
        z.setflags(write=False)
        self.n = int(z.size)
        self.z = z
        self.rep = None

    @classmethod
    def basis(cls, n, k=1):
        """The k-th standard basis vector e_k of C^n, for 1 <= k <= n."""
        n, k = _index(n, None, "dimension"), _index(k, None, "basis index")
        if not 1 <= k <= n:
            raise ValueError(f"basis vector e_{k} of C^{n} needs 1 <= k <= n")
        z = np.zeros(n, dtype=complex)
        z[k - 1] = 1.0
        return cls(z)

    @classmethod
    def standard(cls, n):
        return cls.basis(n, 1)

    @classmethod
    def uniform(cls, n):
        n = _index(n, None, "dimension")
        if n < 1:
            raise ValueError(f"the uniform vector of C^{n} needs n >= 1")
        return cls(np.full(n, 1.0 / np.sqrt(n), dtype=complex))

    def __eq__(self, other):
        if not isinstance(other, UnitVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.z, other.z))

    def __repr__(self):
        return f"UnitVector({self.z.tolist()!r})"


def _interleave(z, y):
    """Components z_i y_j at l*(i-1)+j of two arrays, as ``np.kron``."""
    return (z[:, None] * y).reshape(-1)


def boxtimes(z, y):
    """Interleaving product of unit vectors; component l*(i-1)+j is z_i y_j."""
    return UnitVector(_interleave(z.z, y.z))


def _letter_values(zz):
    """The per-letter value lists of the components ``zz`` of z, indexed
    by the letter l from 1: conj(z_l) for a creation letter and z_l for an
    annihilation letter."""
    return [0j, *(c.conjugate() for c in zz)], [0j, *zz]


def _word_value(values, key, val):
    """``val`` times rho_z(s_u s_v*) for the word pair key = (u, v), with the
    letters multiplied in one by one from the value lists ``values`` of z
    (``_letter_values``)."""
    conj, plain = values
    u, v = key
    for l in u:
        val *= conj[l]
    for l in v:
        val *= plain[l]
    return val


def gp_eval(z, x):
    """Evaluate the state of ``z`` on a monomial or one-leg element of O_n
    (``algebra.one_leg_blocks``); the zero element reads 0. Only the
    letters the element uses are read, each component once as a Python
    ``complex``, into value maps that ``_word_value`` reads as it reads
    the full lists of ``_letter_values``."""
    terms = one_leg_blocks(x, z.n).get((z.n,), {})
    letters = {l for ((u, v),) in terms for l in (*u, *v)}
    plain = {l: complex(z.z[l - 1]) for l in letters}
    values = {l: c.conjugate() for l, c in plain.items()}, plain
    total = 0j
    for (key,), c in terms.items():
        total += _word_value(values, key, c)
    return total


class GPState:
    """The pure state rho_z; callable on algebra elements of O_n."""

    __slots__ = ("z",)

    def __init__(self, z):
        if not isinstance(z, UnitVector):
            z = UnitVector(z)
        self.z = z

    @classmethod
    def standard(cls, n):
        return cls(UnitVector.standard(n))

    @classmethod
    def uniform(cls, n):
        return cls(UnitVector.uniform(n))

    @property
    def n(self):
        return self.z.n

    def __call__(self, x):
        return gp_eval(self.z, x)

    def to_json(self):
        return {
            "n": self.n,
            "z": [[float(c.real), float(c.imag)] for c in self.z.z],
        }

    def __eq__(self, other):
        if not isinstance(other, GPState):
            return NotImplemented
        return self.z == other.z

    def __repr__(self):
        return f"GPState({self.z.z.tolist()!r})"


class StarComposite:
    """Lazy product functional (omega (x) psi) o phi_{n,m} on O_{n*m}.

    Both factors are letterwise: a state's value on a word pair is the
    product of one value per letter, conj(z_l) for each letter l of the
    creation word and z_l for each of the annihilation word. phi_{n,m} is
    letterwise too, so construction reads the block (n, m) of Delta's digit
    columns once (``coproduct.split_words``) and lifts each factor's vector
    through its digit column to one component per letter of O_{n*m}; an
    O_1 leg, whose words collapse to the unit, lifts to 1; the per-letter
    value lists of both lifted vectors (``_letter_values``) are kept.
    Evaluation takes each term's value in the left factor's lists and,
    unless it is zero, in the right factor's, as ``gp_eval`` does;
    ``word_value`` takes it on one word pair, with no element built. A
    factor must be a :class:`GPState` or a composite, whose vector is the
    letterwise product of its two lifted ones, so composites nest; anything
    else is a ``TypeError``.
    """

    __slots__ = ("left", "right", "n", "_left_letters", "_right_letters", "_values")

    def __init__(self, left, right):
        vectors = _letter_vector(left), _letter_vector(right)
        self.left = left
        self.right = right
        self.n = left.n * right.n
        letters = np.arange(1, self.n + 1)[:, None]
        cols = split_words("delta", (left.n, right.n), letters)
        # an O_1 leg has a (K, 0) column
        self._left_letters, self._right_letters = (
            [zz[d - 1] for d in col[:, 0].tolist()] if col.shape[1] else [1 + 0j] * self.n
            for zz, col in zip(vectors, cols)
        )
        self._values = _letter_values(self._left_letters), _letter_values(self._right_letters)

    def __call__(self, x):
        left, right = self._values
        total = 0j
        for terms in one_leg_blocks(x, self.n).values():  # at most the block (n,)
            for (key,), c in terms.items():
                a = _word_value(left, key, 1 + 0j)
                if a == 0:
                    continue
                total += c * a * _word_value(right, key, 1 + 0j)
        return total

    def word_value(self, key):
        """The value on the word pair key = (u, v) of O_{n*m}: equal to the
        call on its monomial, but for the sign of a zero part."""
        left, right = self._values
        return _word_value(left, key, 1 + 0j) * _word_value(right, key, 1 + 0j)

    def __repr__(self):
        return f"StarComposite({self.left!r}, {self.right!r})"


def _letter_vector(functional):
    """The components, one per letter, of a state or composite as a list."""
    if isinstance(functional, GPState):
        return functional.z.z.tolist()
    if isinstance(functional, StarComposite):
        return list(map(operator.mul, functional._left_letters, functional._right_letters))
    raise TypeError(f"a product functional needs states or composites, got {functional!r}")


def star(omega, psi):
    """The product functional of two states through the comultiplication."""
    return StarComposite(omega, psi)


def _interleaving_gaps(omega, psi):
    """Componentwise |z [*] y - y [*] z| of the two interleavings."""
    z, y = omega.z.z, psi.z.z
    return np.abs(_interleave(z, y) - _interleave(y, z))


def interleaving_gap(omega, psi):
    """Largest componentwise |z [*] y - y [*] z| of the two interleavings."""
    return float(np.max(_interleaving_gaps(omega, psi)))


def star_gap(omega, psi, mono):
    """|(omega * psi)(x) - (psi * omega)(x)| on the monomial x."""
    return abs(star(omega, psi)(mono) - star(psi, omega)(mono))


def commutes(omega, psi, tol=EQ_TOL):
    """Whether the two product functionals of a state pair coincide.

    Distinct unit vectors give distinct states, so the componentwise
    equality of the two interleavings decides exactly. On failure the
    witness is the generator s_w of the first component w where the
    interleavings differ by more than ``tol``: the two product values of s_w
    are the conjugates of those components.

    Returns (True, None) or (False, witness).
    """
    gaps = _interleaving_gaps(omega, psi)
    if holds(float(np.max(gaps)), tol):
        return True, None
    return False, CuntzMonomial.generator(len(gaps), int(np.argmax(gaps > tol)) + 1)


def twist_state(z, matrix):
    """The state of ``z`` composed with the substitution s_j -> sum_i U[i,j] s_i.

    For a unitary U this equals the state of the vector U^dagger z, which is
    what is returned; the tests validate the identity against direct
    symbolic substitution (``tests/substitution_oracle.py``). Raises NotUnitary when the columns of U are not
    orthonormal within ``EQ_TOL``.
    """
    if not isinstance(z, UnitVector):
        z = UnitVector(z)
    U = np.asarray(matrix, dtype=complex)
    if U.shape != (z.n, z.n):
        raise NotUnitary(f"matrix shape {U.shape} does not match C^{z.n}")
    dev = float(np.max(np.abs(U.conj().T @ U - np.eye(z.n))))
    if not holds(dev, EQ_TOL):
        raise NotUnitary(f"columns not orthonormal: deviation {dev:.3e}")
    return GPState(UnitVector(U.conj().T @ z.z))


def _json_number(value):
    """A JSON number (int or float, not bool) as a float; anything else is an error."""
    if type(value) not in (int, float):
        raise ValueError(f'state JSON: "z" entries must be numbers, got {value!r}')
    return float(value)


def state_from_json(obj):
    """Build a state from its JSON form.

    Accepts exactly one of three forms, with no other key: the explicit
    {"n": n, "z": [[re, im], ...]} and the shortcuts {"standard": n} (first
    basis vector) and {"uniform": n}. n is read by ``algebra._index``, so a
    float, bool or string is refused, and each re, im must be a JSON number.
    """
    if not isinstance(obj, dict):
        raise ValueError("state JSON must be an object")
    if "standard" in obj or "uniform" in obj:
        key = "standard" if "standard" in obj else "uniform"
        form, state = {key}, getattr(GPState, key)(_index(obj[key], None, f'state JSON "{key}"'))
    else:
        if "n" not in obj or "z" not in obj:
            raise ValueError('state JSON needs "n" and "z" (or a shortcut key)')
        n = _index(obj["n"], None, 'state JSON "n"')
        comps = []
        for entry in obj["z"]:
            re, im = entry
            comps.append(complex(_json_number(re), _json_number(im)))
        if len(comps) != n:
            raise ValueError(f'state JSON: |z| = {len(comps)} but n = {n}')
        form, state = {"n", "z"}, GPState(UnitVector(comps))
    extra = set(obj) - form
    if extra:
        raise ValueError(f"state JSON takes one form only, got extra keys {sorted(extra)}")
    return state
