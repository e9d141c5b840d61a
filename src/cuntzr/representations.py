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

Vectors are plain dicts from basis indices (or index pairs / triples for
tensor legs) to complex amplitudes. The operator layer works on dense
arrays over the coordinate block of one depth instead; :func:`to_dense` and
:func:`from_dense` convert between the two forms.
"""

from __future__ import annotations

import numpy as np

from .algebra import as_element
from .coproduct import TensorElement
from .errors import MismatchedAlgebra, OutOfDomain
from .states import GPState, UnitVector

AMP_TOL = 1e-13  # amplitudes at or below this magnitude are dropped


# ---------------------------------------------------------------------------
# finitely supported vectors as dicts


def prune_vec(vec):
    return {k: a for k, a in vec.items() if abs(a) > AMP_TOL}


def vec_inner(a, b):
    """<a, b> with the convention conjugate-linear in the first argument."""
    if len(b) < len(a):
        return sum(a[k].conjugate() * v for k, v in b.items() if k in a)
    return sum(v.conjugate() * b[k] for k, v in a.items() if k in b)


def vec_norm(a):
    return float(np.sqrt(sum(abs(v) ** 2 for v in a.values())))


def vec_add(a, b, scale=1.0):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0j) + scale * v
    return prune_vec(out)


def vec_dist(a, b):
    """Norm of a - b; no entry of the difference is dropped, however small."""
    diff = dict(a)
    for k, v in b.items():
        diff[k] = diff.get(k, 0j) - v
    return vec_norm(diff)


def flip_pairs(vec):
    """Swap the two legs of a pair-indexed vector."""
    return {(k2, k1): a for (k1, k2), a in vec.items()}


def fock_to_list(vec):
    """Report form [[k, re, im], ...] of a basis-indexed vector, sorted."""
    return [
        [int(k), float(a.real), float(a.imag)] for k, a in sorted(vec.items())
    ]


def pair_to_list(vec):
    """Report form [[j, k, re, im], ...] of a pair-indexed vector, sorted."""
    return [
        [int(j), int(k), float(a.real), float(a.imag)]
        for (j, k), a in sorted(vec.items())
    ]


# ---------------------------------------------------------------------------
# the twisted permutative action


def complete_unitary(z, tol=1e-10):
    """A unitary with first row conj(z), completed against the standard basis.

    Modified Gram-Schmidt over the candidates e_1, e_2, ...; a candidate is
    skipped when its residual norm is at most ``tol``. Each candidate is
    orthogonalized twice, so that rows kept from a small residual stay
    orthogonal to rounding. Deterministic in z.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.size
    rows = [z.conj()]
    for k in range(n):
        if len(rows) == n:
            break
        cand = np.zeros(n, dtype=complex)
        cand[k] = 1.0
        for row in rows + rows:
            cand = cand - np.vdot(row, cand) * row
        nrm = float(np.linalg.norm(cand))
        if nrm > tol:
            rows.append(cand / nrm)
    if len(rows) != n:
        raise RuntimeError("unitary completion failed")  # cannot happen for unit z
    return np.vstack(rows)


class GPRepresentation:
    """The permutative action, optionally twisted by a unitary; cyclic vector e_1."""

    __slots__ = ("n", "U", "is_standard")

    def __init__(self, n, U=None):
        self.n = int(n)
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
        """The realization of the state of z: twist by a completion of conj(z)."""
        z = state.z if isinstance(state, GPState) else state
        if not isinstance(z, UnitVector):
            z = UnitVector(z)
        if z == UnitVector.standard(z.n):
            return cls(z.n)
        return cls(z.n, complete_unitary(z.z))

    def state(self):
        """The vector state at e_1; equals the state the twist was built from."""
        return GPState(UnitVector(self.U[0].conj()))

    def __repr__(self):
        kind = "standard" if self.is_standard else "twisted"
        return f"GPRepresentation(O_{self.n}, {kind})"


def _creation(rep, j, vec):
    n = rep.n
    if rep.is_standard:
        return {n * (k - 1) + j: a for k, a in vec.items()}
    out = {}
    col = rep.U[:, j - 1]
    for k, a in vec.items():
        base = n * (k - 1)
        for i in range(1, n + 1):
            c = col[i - 1]
            if c != 0:
                key = base + i
                out[key] = out.get(key, 0j) + c * a
    return out


def _annihilation(rep, j, vec):
    n = rep.n
    out = {}
    for k, a in vec.items():
        i = (k - 1) % n + 1
        q = (k - 1) // n + 1
        if rep.is_standard:
            if i == j:
                out[q] = out.get(q, 0j) + a
        else:
            c = rep.U[i - 1, j - 1].conjugate()
            if c != 0:
                out[q] = out.get(q, 0j) + c * a
    return out


def act_word(rep, u, v, vec):
    """Apply s_u s_v* (word tuples) in the representation to a vector."""
    out = vec
    for j in v:  # the factor s_{v_1}* stands rightmost and acts first
        out = _annihilation(rep, j, out)
        if not out:
            return {}
    for j in reversed(u):
        out = _creation(rep, j, out)
    return prune_vec(out)


def act(rep, mono, vec):
    """Apply a monomial in the (possibly twisted) representation to a vector."""
    if mono.n != rep.n:
        raise MismatchedAlgebra(f"monomial of O_{mono.n} in O_{rep.n} action")
    return act_word(rep, mono.u, mono.v, vec)


def act_element(rep, x, vec):
    x = as_element(x, rep.n)
    out = {}
    for (u, v), c in x.items():
        out = vec_add(out, act_word(rep, u, v, vec), scale=c)
    return out


def gns_lambda(rep, x):
    """Image of an element under the vector map x -> pi(x) e_1."""
    return act_element(rep, x, {1: 1.0})


# ---------------------------------------------------------------------------
# tensor legs


def act_legs(reps, t, vec):
    """Apply the matching block of a tensor element legwise to a vector.

    ``vec`` is indexed by tuples of basis indices, one per leg, and leg k
    of every term acts in ``reps[k]``. Blocks other than the one of the
    representations' algebra indices act as zero on these legs, mirroring
    how a state of one summand extends to the direct sum.
    """
    if not isinstance(t, TensorElement) or t.arity not in (None, len(reps)):
        raise TypeError(f"expected a {len(reps)}-leg tensor element")
    out = {}
    for keys, c in t.block(*(rep.n for rep in reps)).items():
        images = [{} for _ in reps]  # per leg: basis index -> image of its word
        for basis, amp in vec.items():
            # fold the legs in one at a time: tuples of indices -> amplitude
            acc = {(): c * amp}
            for rep, (u, v), k, seen in zip(reps, keys, basis, images):
                image = seen.get(k)
                if image is None:
                    image = seen[k] = act_word(rep, u, v, {k: 1.0})
                acc = {ks + (q,): a * b for ks, a in acc.items() for q, b in image.items()}
                if not acc:
                    break
            for ks, a in acc.items():
                out[ks] = out.get(ks, 0j) + a
    return prune_vec(out)


def lambda2(rep1, rep2, t):
    """Legwise vector map of a two-leg tensor element: its action on e_1 (x) e_1."""
    return act_legs((rep1, rep2), t, {(1, 1): 1.0})


def lambda3(rep1, rep2, rep3, t):
    """Legwise vector map of a three-leg tensor element, on e_1 (x) e_1 (x) e_1."""
    return act_legs((rep1, rep2, rep3), t, {(1, 1, 1): 1.0})


def act2(rep1, rep2, t, vec):
    """Apply the matching block of a two-leg tensor element to a pair vector."""
    return act_legs((rep1, rep2), t, vec)


# ---------------------------------------------------------------------------
# words and dense coordinate blocks


def creation_words(n, depth):
    """All creation words of O_n with length <= depth, by length then lex."""
    import itertools

    words = [()]
    for t in range(1, depth + 1):
        words.extend(itertools.product(range(1, n + 1), repeat=t))
    return words


def to_dense(vec, dims):
    """Dense array of shape ``dims`` of a dict vector with tuple keys.

    Keys are 1-based; a key outside the block raises OutOfDomain.
    """
    out = np.zeros(dims, dtype=complex)
    if vec:
        keys = np.array(list(vec), dtype=np.int64).reshape(len(vec), len(dims)) - 1
        if (keys < 0).any() or (keys >= np.array(dims)).any():
            bad = next(k for k in vec if not all(1 <= i <= d for i, d in zip(k, dims)))
            raise OutOfDomain(abs(vec[bad]), f"basis index {bad} outside {tuple(dims)}")
        out[tuple(keys.T)] = list(vec.values())
    return out


def from_dense(arr):
    """Dict vector of the nonzero entries of a dense array, 1-based keys."""
    keys = (np.argwhere(arr) + 1).tolist()
    return dict(zip(map(tuple, keys), arr[arr != 0].tolist()))
