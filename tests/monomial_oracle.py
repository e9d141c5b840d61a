"""Monomial labels read back, and every word pair of O_n up to a length.

``parse_label`` inverts ``CuntzMonomial.label``, so a test can name the
word of a record by its label; ``iter_monomials`` lists the word pairs of
O_n by total length, the scan the tests use to find a monomial on which
two states differ. Neither is reached by the library or the CLI.
"""

from __future__ import annotations

import itertools

from cuntzr.algebra import CuntzMonomial


def parse_label(text):
    """The monomial of a label ``n=<int>;u=<comma-list>;v=<comma-list>``."""
    try:
        fields = dict(part.split("=", 1) for part in text.strip().split(";"))
        n = int(fields["n"])
        u = tuple(int(t) for t in fields["u"].split(",") if t)
        v = tuple(int(t) for t in fields["v"].split(",") if t)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad monomial label {text!r}") from exc
    return CuntzMonomial(n, u, v)


def iter_monomials(n, max_total_len):
    """Word pairs ordered by total length, creation-heavy first, then lex."""
    for t in range(max_total_len + 1):
        if n == 1 and t > 0:
            break  # everything collapses to the unit
        for a in range(t, -1, -1):
            for u in itertools.product(range(1, n + 1), repeat=a):
                for v in itertools.product(range(1, n + 1), repeat=t - a):
                    yield CuntzMonomial(n, u, v)
