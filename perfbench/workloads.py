"""The three workloads: fixed job lists whose random parts come from a seed.

A workload is built by ``make(name, seed, cuntzr, out_dir)`` and returns a
``Workload`` with its warm-up jobs and the timed job list. The seed draws only
random letters and random unit vectors; word lengths, depths and pair
shapes are fixed, so every seed does the same amount of work.

Every job calls the program through the ``cuntzr`` package object it is
given, looking names up at call time so that traced wrappers are seen, and
checks each result against :mod:`oracles`. A failed check raises
``Mismatch``. A job is a generator function: each plain ``yield`` ends a
timed step of the program's work, and ``yield CHECK`` ends the last one, so
that the checks after it stay out of every timing and every traced span.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

import oracles as orc

WORKLOADS = ("pair-verdict", "ybe-triples", "algebra-battery")
YBE_WORDS = 6  # seeded top-length words per triple in the dense YBE check


CHECK = "check"  # yielded by a job once the program's verdict is in


class Mismatch(Exception):
    """A program output disagrees with the benchmark's own computation."""


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def warm_up(job):
    """Run a job's program steps up to its verdict, untimed and unchecked."""
    for mark in job():
        if mark is CHECK:
            break


@dataclass
class Workload:
    warmup: list     # [job]
    jobs: list       # [(job name, job)]


# ---------------------------------------------------------------------------
# pair-verdict


def _state_json(z):
    return json.dumps({"n": len(z), "z": [[c.real, c.imag] for c in z]})


def _pair_job(c, a, b, depth, kind, coeffs):
    """Complete verdict on one commuting pair, then the oracle checks.

    ``kind`` is "standard" (compare with the digit-zipping permutation),
    "equal" (compare with the leg flip) or None. ``coeffs`` are the
    coefficients of the unitarity sample over the top-length word images.
    """

    def job():
        n, m = a.n, b.n
        rmat = c.build_r(a, b, depth)
        yield
        rep_i = c.verify_intertwining(rmat)
        yield
        rep_s = c.verify_symmetry(a, b, depth, r12=rmat)
        yield CHECK
        expect(rep_i.passed, "intertwining report fails")
        expect(rep_s.passed, "symmetry report fails")
        expect(rmat.rank == (n * m) ** depth, f"rank {rmat.rank} != {(n * m) ** depth}")
        U1 = c.GPRepresentation.for_state(a).U
        U2 = c.GPRepresentation.for_state(b).U
        expect(orc.twist_ok(U1, a.z.z) and orc.twist_ok(U2, b.z.z),
               "twist is not unitary with first row conj(z)")
        shape = (n**depth, m**depth)
        apply = orc.dense_apply(rmat.apply, shape)
        res, top = orc.relation_residual(apply, U1, U2, depth)
        expect(res <= orc.DIST_TOL, f"R v_w != w_w: {res:.3e}")
        V = top @ coeffs
        res, W = orc.isometry_residual(apply, V, shape)
        expect(res <= orc.DIST_TOL, f"R not isometric on the sample: {res:.3e}")
        if kind == "equal":
            res = orc.flip_residual(V, W, shape)
            expect(res <= orc.DIST_TOL, f"R != leg flip: {res:.3e}")
        if kind == "standard":
            res = orc.permutation_residual(apply, n, m, depth)
            expect(res <= orc.DIST_TOL, f"R != digit-zipping permutation: {res:.3e}")

    return job


def _reject_job(c, a, b, depth):
    """A non-commuting pair must be rejected with a true witness."""

    def job():
        try:
            c.build_r(a, b, depth)
        except c.NotCommuting as exc:
            witness = exc.witness
        else:
            witness = None
        yield CHECK
        expect(witness is not None, "non-commuting pair was accepted")
        _check_witness(witness.label(), a.z.z, b.z.z)

    return job


def _check_witness(label, z, y):
    gap = orc.witness_gap(label, z, y)
    expect(gap > orc.DIST_TOL, f"witness {label} does not separate: {gap:.3e}")


def _pair_verdict(c, rng):
    S, Un = c.GPState.standard, c.GPState.uniform
    x = orc.random_unit(rng, 2)
    y = orc.random_unit(rng, 3)
    X, XX, Y = c.GPState(x), c.GPState(np.kron(x, x)), c.GPState(y)

    def coeffs(n, m, depth, count=8):
        k = (n * m) ** depth
        C = rng.normal(size=(k, count)) + 1j * rng.normal(size=(k, count))
        return C / np.linalg.norm(C, axis=0)

    jobs = [
        ("standard-2-3-d3", _pair_job(c, S(2), S(3), 3, "standard", coeffs(2, 3, 3))),
        ("uniform-2-3-d3", _pair_job(c, Un(2), Un(3), 3, None, coeffs(2, 3, 3))),
        ("kron-x-xx-d2", _pair_job(c, X, XX, 2, None, coeffs(2, 4, 2))),
        ("equal-x-x-d3", _pair_job(c, X, X, 3, "equal", coeffs(2, 2, 3))),
        ("uniform-2-5-d2", _pair_job(c, Un(2), Un(5), 2, None, coeffs(2, 5, 2))),
        ("reject-x-y-d2", _reject_job(c, X, Y, 2)),
    ]
    warm = [_pair_job(c, S(2), S(3), 2, "standard", coeffs(2, 3, 2))]
    return warm, jobs


# ---------------------------------------------------------------------------
# ybe-triples


def _ybe_job(c, states, depth, standard, words):
    """``verify_ybe`` on one triple, then the benchmark's own YBE check.

    The check builds the three operators again, outside the timing, and
    applies both orderings leg-wise to the dense images of ``words`` (see
    ``oracles.ybe_residual``).
    """

    def job():
        rep = c.verify_ybe(*states, depth)
        yield CHECK
        N = states[0].n * states[1].n * states[2].n
        expect(rep.passed, "ybe report fails")
        want = sum(N**k for k in range(depth + 1))
        expect(len(rep.checks) == want, f"{len(rep.checks)} checks, expected {want}")
        if standard:
            expect(rep.max_residual == 0.0,
                   f"standard triple residual {rep.max_residual!r} is not 0")
        Us = [c.GPRepresentation.for_state(s).U for s in states]
        for U, s in zip(Us, states):
            expect(orc.twist_ok(U, s.z.z), "twist is not unitary with first row conj(z)")
        dims = [s.n**depth for s in states]
        ops = {}
        for i, j in ((0, 1), (0, 2), (1, 2)):
            rmat = c.build_r(states[i], states[j], depth)
            ops[i, j] = orc.dense_apply(rmat.apply, (dims[i], dims[j]))
        for word in words:
            res = orc.ybe_residual(ops, Us, word, depth)
            expect(res <= orc.DIST_TOL, f"YBE on word {word}: {res:.3e}")

    return job


def _ybe_triples(c, rng):
    S, Un = c.GPState.standard, c.GPState.uniform
    x = orc.random_unit(rng, 2)
    y = orc.random_unit(rng, 3)
    X, XX = c.GPState(x), c.GPState(np.kron(x, x))
    Y, YY = c.GPState(y), c.GPState(np.kron(y, y))

    def job(states, depth, standard=False):
        # the empty word and YBE_WORDS seeded words of the top length
        N = states[0].n * states[1].n * states[2].n
        words = [()] + [tuple(int(k) for k in rng.integers(1, N + 1, depth))
                        for _ in range(YBE_WORDS)]
        return _ybe_job(c, states, depth, standard, words)

    jobs = [
        ("standard-2-3-2-d2", job((S(2), S(3), S(2)), 2, True)),
        ("uniform-3-2-2-d2", job((Un(3), Un(2), Un(2)), 2)),
        ("kron-x-x-xx-d1", job((X, X, XX), 1)),
        ("kron-y-yy-y-d1", job((Y, YY, Y), 1)),
        ("standard-2-3-5-d1", job((S(2), S(3), S(5)), 1, True)),
    ]
    warm = [job((S(2), S(3), S(2)), 1, True)]
    return warm, jobs


# ---------------------------------------------------------------------------
# algebra-battery


def _random_monomials(c, rng, n, a, b, count):
    return [
        c.CuntzMonomial(n, tuple(int(k) for k in rng.integers(1, n + 1, a)),
                        tuple(int(k) for k in rng.integers(1, n + 1, b)))
        for _ in range(count)
    ]


def _coassoc_job(c, monos):
    def job():
        results = [c.check_coassoc(mono) for mono in monos]
        yield CHECK
        for mono, ok in zip(monos, results):
            expect(ok, f"coassociativity fails on {mono.label()}")
        # negative control: a perturbed double coproduct must read unequal
        left = c.f_l(monos[0])
        block, terms = next(iter(left.blocks.items()))
        bump = c.TensorElement3({block: {next(iter(terms)): 1e-3}})
        expect(not c.canonical_equal3(c.f_r(monos[0]), left + bump),
               "perturbed double coproduct reads equal")

    return job


def _star_job(c, pairs):
    def job():
        values = []
        for z, y, monos in pairs:
            prod = c.star(c.GPState(z), c.GPState(y))
            values.append([prod(c.AlgebraElement.monomial(mono)) for mono in monos])
        yield CHECK
        for (z, y, monos), got_all in zip(pairs, values):
            zy = np.kron(z, y)
            for mono, got in zip(monos, got_all):
                want = orc.state_value(zy, mono.u, mono.v)
                expect(abs(got - want) <= 1e-12,
                       f"star on {mono.label()}: {got!r} != {want!r}")

    return job


def _commutes_job(c, pairs):
    def job():
        results = [c.commutes(c.GPState(z), c.GPState(y)) for z, y in pairs]
        yield CHECK
        for (z, y), (ok, witness) in zip(pairs, results):
            expect(ok == orc.kron_commute(z, y), "commutes disagrees with kron")
            if not ok:
                _check_witness(witness.label(), z, y)

    return job


def _counterexample_job(c):
    def job():
        rep = c.counterexample_demo()
        yield CHECK
        expect(rep.passed, "counterexample report fails")
        rejects = [k for k in rep.checks if k.name == "construction-rejects-pair"]
        expect(len(rejects) == 1 and rejects[0].witness == "n=4;u=2;v=",
               "counterexample witness is not n=4;u=2;v=")
        # the pair is (e_1, e_2) of C^2; the witness must separate them
        e1, e2 = np.eye(2, dtype=complex)
        _check_witness(rejects[0].witness, e1, e2)

    return job


def _cli_job(c, out_dir, x):
    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return c.cli.main(argv)

    def read(name):
        with open(os.path.join(out_dir, name), "rb") as fh:
            return fh.read()

    def job():
        # the CLI's own --seed draws word lengths too, so it stays fixed
        argvs = [
            ["all", "--out", os.path.join(out_dir, "all-1.json")],
            ["all", "--out", os.path.join(out_dir, "all-2.json")],
            ["verify-coassoc", "--n", "12", "--max-len", "2", "--samples", "25",
             "--out", os.path.join(out_dir, "coassoc.json")],
            ["state-product", "--omega1", _state_json(x),
             "--omega2", _state_json(np.kron(x, x)),
             "--out", os.path.join(out_dir, "state-product.json")],
        ]
        codes = [run(argv) for argv in argvs]
        yield CHECK
        for argv, code in zip(argvs, codes):
            expect(code == 0, f"cuntzr {argv[0]} exits {code}")
        expect(read("all-1.json") == read("all-2.json"),
               "two cuntzr all reports differ")
        for name in ("all-1.json", "coassoc.json", "state-product.json"):
            expect(json.loads(read(name))["pass"] is True, f"{name} does not pass")

    return job


def _algebra_battery(c, rng, out_dir):
    jobs = [
        (f"coassoc-O{n}", _coassoc_job(c, _random_monomials(c, rng, n, 4, 3, 250)))
        for n in (12, 24, 36, 60)
    ]
    x2, x3, x4 = (orc.random_unit(rng, k) for k in (2, 3, 4))
    star_pairs = [
        (x2, x3, _random_monomials(c, rng, 6, 3, 3, 1500)),
        (x3, x4, _random_monomials(c, rng, 12, 3, 3, 1500)),
    ]
    jobs.append(("star", _star_job(c, star_pairs)))
    x2b = orc.random_unit(rng, 2)
    commute_pairs = [
        (x2, np.kron(x2, x2)), (np.kron(x2, x2), x2), (x2, x2),
        (x3, np.kron(x3, x3)), (orc.kron_power(x2, 2), orc.kron_power(x2, 3)),
        (x2, x3), (x2, x2b), (x3, x4), (np.kron(x2, x3), x2),
    ]
    jobs.append(("commutes", _commutes_job(c, commute_pairs)))
    jobs.append(("counterexample", _counterexample_job(c)))
    jobs.append(("cli", _cli_job(c, out_dir, x2)))
    warm_monos = _random_monomials(c, np.random.default_rng(0), 6, 2, 2, 5)
    warm = [_coassoc_job(c, warm_monos), _counterexample_job(c)]
    return warm, jobs


def make(name, seed, cuntzr, out_dir):
    rng = np.random.default_rng(seed)
    if name == "pair-verdict":
        warm, jobs = _pair_verdict(cuntzr, rng)
    elif name == "ybe-triples":
        warm, jobs = _ybe_triples(cuntzr, rng)
    elif name == "algebra-battery":
        warm, jobs = _algebra_battery(cuntzr, rng, out_dir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(warm, jobs)
