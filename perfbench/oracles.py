"""Reference computations the benchmark checks the program's outputs against.

Everything here is plain numpy over dense arrays. Nothing calls into
``cuntzr``: the program hands over dict vectors, states as unit vectors,
report objects and monomial labels, and these functions recompute what
those must be from the definitions.

Conventions match the program's: basis indices are 1-based in dict keys and
0-based in arrays; a twist U acts by s_j e_k = sum_i U[i, j] e_{n(k-1)+i}.
"""

from __future__ import annotations

import numpy as np

# Distances on dense arrays of at most ~1e5 entries built from O(1)
# amplitudes; rounding stays many orders below this.
DIST_TOL = 1e-9


def random_unit(rng, n):
    """A complex unit vector with Gaussian real and imaginary parts."""
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def kron_power(x, k):
    out = np.ones(1, dtype=complex)
    for _ in range(k):
        out = np.kron(out, x)
    return out


# ---------------------------------------------------------------------------
# dict vectors <-> dense arrays


def pair_dense(vec, shape):
    """Dense (n^d, m^d) array of a pair-indexed dict vector.

    Raises ValueError for a key outside the shape, which a correct image of
    a depth-d span vector never has.
    """
    out = np.zeros(shape, dtype=complex)
    for (k1, k2), a in vec.items():
        if not (1 <= k1 <= shape[0] and 1 <= k2 <= shape[1]):
            raise ValueError(f"basis pair {(k1, k2)} outside {shape}")
        out[k1 - 1, k2 - 1] += a
    return out


def pair_dict(arr):
    """Dict vector of the nonzero entries of a dense pair array."""
    rows, cols = np.nonzero(arr)
    return {
        (int(i) + 1, int(j) + 1): complex(arr[i, j]) for i, j in zip(rows, cols)
    }


def dense_apply(apply, shape):
    """A dict-vector operator as a map of dense pair arrays of ``shape``."""

    def dense(arr):
        return pair_dense(apply(pair_dict(arr)), shape)

    return dense


def dist(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


# ---------------------------------------------------------------------------
# word images under the twisted permutative action


def leg_image(U, letters, length):
    """Dense image of s_{letters} e_1 in the U-twisted action on C^{n^length}.

    The rightmost letter acts first; each letter j sends amplitude at 0-based
    index k to n*k + i with weight U[i, j].
    """
    U = np.asarray(U, dtype=complex)
    n = U.shape[0]
    v = np.ones(1, dtype=complex)
    for j in reversed(letters):
        v = np.kron(v, U[:, j - 1])
    out = np.zeros(n**length, dtype=complex)
    out[: v.size] = v
    return out


def split_digits(word, bases):
    """Letters of a word of O_{prod(bases)} split into one word per base.

    Letter w is read as the mixed-radix number w - 1 with the first base
    most significant; digit k (1-based) goes into word k.
    """
    out = [[] for _ in bases]
    for w in word:
        r = w - 1
        for k in reversed(range(len(bases))):
            r, digit = divmod(r, bases[k])
            out[k].append(digit + 1)
    return [tuple(o) for o in out]


def word_image(Us, word, depth, opposite=False):
    """Dense image of a block of the (iterated) coproduct of s_word.

    With one twist per leg, the image of e_1 (x) ... (x) e_1 under the
    (n1, n2, ...) block, shaped (n1^depth, n2^depth, ...). The coproduct
    splits each letter with leg 1 most significant: for two legs, letter
    w = m*(i-1) + j becomes s_i (x) s_j. With ``opposite``, it is the
    opposite coproduct, which splits with the legs in reverse order: for two
    legs, the flip of the (m, n) block, where w = n*(a-1) + b becomes
    s_a (x) s_b, so that s_b acts on leg 1 and s_a on leg 2.
    """
    ns = [U.shape[0] for U in Us]
    legs = split_digits(word, ns[::-1])[::-1] if opposite else split_digits(word, ns)
    out = leg_image(Us[0], legs[0], depth)
    for U, letters in zip(Us[1:], legs[1:]):
        out = np.multiply.outer(out, leg_image(U, letters, depth))
    return out


def creation_words(letters, depth):
    """All words over 1..letters of length at most depth, shortest first."""
    words = [()]
    level = [()]
    for _ in range(depth):
        level = [w + (c,) for w in level for c in range(1, letters + 1)]
        words.extend(level)
    return words


def twist_ok(U, z, tol=DIST_TOL):
    """Whether U is unitary with first row conj(z), so e_1 realizes z."""
    U = np.asarray(U, dtype=complex)
    unitary = dist(U.conj().T @ U, np.eye(U.shape[0])) <= tol
    return unitary and dist(U[0], np.conj(z)) <= tol


# ---------------------------------------------------------------------------
# residuals of an operator, given as ``apply``: dense pair array -> array


def relation_residual(apply, U1, U2, depth):
    """Worst ||R v_w - w_w|| over all creation words w up to ``depth``.

    v_w and w_w are the images of the coproduct and of the opposite
    coproduct of s_w. Also returns the top-length v_w as matrix columns.
    """
    worst = 0.0
    top = []
    for word in creation_words(U1.shape[0] * U2.shape[0], depth):
        v = word_image((U1, U2), word, depth)
        worst = max(worst, dist(apply(v), word_image((U1, U2), word, depth, True)))
        if len(word) == depth:
            top.append(v.reshape(-1))
    return worst, np.array(top).T


def isometry_residual(apply, V, shape):
    """Gram deviation of the images of the columns of V; and the images."""
    W = np.array([apply(V[:, k].reshape(shape)).reshape(-1)
                  for k in range(V.shape[1])]).T
    return dist(W.conj().T @ W, V.conj().T @ V), W


def flip_residual(V, W, shape):
    """Worst distance of each image column of W from the flipped input."""
    return max(dist(W[:, k].reshape(shape), V[:, k].reshape(shape).T)
               for k in range(V.shape[1]))


def permutation_residual(apply, n, m, depth):
    """Worst distance of R e_(a,b) from e_zip(a,b) over all basis pairs."""
    a2, b2 = zip_permutation(n, m, depth)
    shape = a2.shape
    worst = 0.0
    for (i, j), _ in np.ndenumerate(a2):
        e = np.zeros(shape, dtype=complex)
        e[i, j] = 1.0
        want = np.zeros(shape, dtype=complex)
        want[a2[i, j], b2[i, j]] = 1.0
        worst = max(worst, dist(apply(e), want))
    return worst


def apply_legs(apply, T, legs):
    """Apply a pair map to two legs of a dense triple array.

    The map acts on each slice of the third leg; ``legs`` is (0, 1), (0, 2)
    or (1, 2), and the pair's first leg is the lower one.
    """
    parked = 3 - sum(legs)
    order = (*legs, parked)
    Tp = np.transpose(T, order)
    out = np.stack([apply(Tp[:, :, k]) for k in range(Tp.shape[2])], axis=2)
    return np.transpose(out, np.argsort(order))


def ybe_residual(ops, Us, word, depth):
    """Yang-Baxter residual of three pair maps on the image of one word.

    ``ops[i, j]`` maps dense arrays of legs i < j. On the double coproduct's
    image T, both R12 R13 R23 T and R23 R13 R12 T must be the double
    opposite coproduct's image; returns the worst of the three distances.
    """
    T = word_image(Us, word, depth)
    want = word_image(Us, word, depth, opposite=True)
    lhs, rhs = T, T
    for legs in ((1, 2), (0, 2), (0, 1)):
        lhs = apply_legs(ops[legs], lhs, legs)
    for legs in ((0, 1), (0, 2), (1, 2)):
        rhs = apply_legs(ops[legs], rhs, legs)
    return max(dist(lhs, rhs), dist(lhs, want), dist(rhs, want))


# ---------------------------------------------------------------------------
# the standard-state permutation


def zip_permutation(n, m, depth):
    """Images (a', b') of every 0-based basis pair (a, b) at one depth.

    Digit k of a in base n and digit k of b in base m form the letter
    w = m*i + j of O_{nm}; its opposite split w = n*a_k + b_k puts b_k into
    digit k of a' (base n) and a_k into digit k of b' (base m). Returned as
    two integer arrays of shape (n^depth, m^depth).
    """
    a = np.arange(n**depth)[:, None] * np.ones(m**depth, dtype=np.int64)[None, :]
    b = np.ones(n**depth, dtype=np.int64)[:, None] * np.arange(m**depth)[None, :]
    a2 = np.zeros_like(a)
    b2 = np.zeros_like(b)
    for k in range(depth):
        i = (a // n**k) % n
        j = (b // m**k) % m
        w = m * i + j
        a2 += (w % n) * n**k
        b2 += (w // n) * m**k
    return a2, b2


# ---------------------------------------------------------------------------
# states


def parse_label(label):
    """(n, u, v) from a monomial label such as ``n=4;u=2;v=``."""
    fields = dict(part.split("=", 1) for part in label.split(";"))

    def word(text):
        return tuple(int(c) for c in text.split(",") if c)

    return int(fields["n"]), word(fields["u"]), word(fields["v"])


def state_value(z, u, v):
    """rho_z(s_u s_v*) = prod conj(z_u) * prod z_v."""
    z = np.asarray(z, dtype=complex)
    val = 1.0 + 0j
    for k in u:
        val *= np.conj(z[k - 1])
    for k in v:
        val *= z[k - 1]
    return complex(val)


def kron_commute(z, y, tol=1e-12):
    """Whether the two interleavings z [*] y and y [*] z coincide."""
    return float(np.max(np.abs(np.kron(z, y) - np.kron(y, z)))) <= tol


def witness_gap(label, z, y):
    """|rho_{z [*] y} - rho_{y [*] z}| on a witness monomial; -1 if misplaced."""
    n, u, v = parse_label(label)
    if n != len(z) * len(y):
        return -1.0
    return abs(state_value(np.kron(z, y), u, v) - state_value(np.kron(y, z), u, v))
