"""The worst-case split count of ``verify-coassoc`` from the prime
factorization of n, as ``cli._coassoc_splits`` counted it before it read the
tables' divisor pairs: d_3(n), the number of ordered divisor triples of n, is
the product of (e + 1)(e + 2)/2 over n = prod p^e, found by trial division.
It shares nothing with the tables, so the tests compare the two counts."""


def coassoc_splits(n, samples):
    """2 d_3(n) block keys for each of the n + 1 + ``samples`` monomials."""
    d3 = 1
    p, rest = 2, n
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        d3 *= (e + 1) * (e + 2) // 2
        p += 1
    return (n + 1 + samples) * 2 * d3
