"""Scenario runner and report emitter.

Subcommands mirror the verifier surface: ``verify-coassoc``,
``state-product``, ``build-r``, ``verify``, ``counterexample``, and ``all``.
Each subcommand names its scenario kind, and ``run_scenario`` runs the
kind's entry of one runner table. ``ScenarioSpec`` holds every default, so
the library path and the CLI give the same report: options left unset on
the command line take its values, and only ``state-product`` overrides
``--max-len``/``--samples``. States are passed as inline JSON or ``@file``
references in exactly one of the forms ``{"n": 2, "z": [[re, im], ...]}``,
``{"standard": n}`` and ``{"uniform": n}``. Reports are JSON with sorted
keys and fixed 17-significant-digit float formatting, so identical inputs
produce byte-identical files; wall-clock timings are only included on
request since they would break that. The exit code is 0 exactly when every
check passed; malformed input exits 2 with an ``error:`` line. Like the
inversion symmetry, the battery's ``not-identity`` and
``operator-is-leg-swap`` records compare R_1 with the identity and with
the swap F_1: R = R_1^{(x)d} equals either exactly when R_1 does.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .algebra import BUILD_TOL, EQ_TOL, CuntzMonomial, _index, holds
from .coproduct import _divisor_pairs, coassoc_residual, disagreeing_letters
from .errors import CuntzrError, NotCommuting, SpecError
from .representations import preflight
from .rmatrix import (
    VerificationReport,
    _digit_pair,
    _worst_column,
    _worst_column_at,
    _worst_word,
    build_r,
    counterexample_demo,
    radix_perm,
    swap_index_pair,
    verify_intertwining,
    verify_symmetry,
    verify_ybe,
)
from .states import (
    GPState,
    _letter_values,
    _word_value,
    boxtimes,
    commutes,
    interleaving_gap,
    star,
    star_gap,
    state_from_json,
)

# ---------------------------------------------------------------------------
# deterministic JSON


def stable_json(obj):
    """Render JSON with sorted keys and 17-significant-digit floats."""
    return _render(obj, 0) + "\n"


def _render(obj, level):
    """One value as text; a container is one join of its rendered items."""
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            items.append(f"{pad}  {json.dumps(key)}: {_render(obj[key], level + 1)}")
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(item) is int for item in obj):  # plain ints, no bools: one join
            items = map(str, obj)
        else:
            items = (_render(item, level + 1) for item in obj)
        return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"
    if isinstance(obj, (bool, str)) or obj is None:  # bool before int
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            raise ValueError(f"cannot emit non-finite float {float(obj)!r}")
        return format(float(obj), ".17g")
    raise ValueError(f"cannot emit {type(obj).__name__} as JSON")


def emit(obj, path):
    """Write an object as deterministic JSON; returns the rendered text."""
    text = stable_json(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


# ---------------------------------------------------------------------------
# scenario specs


@dataclass
class ScenarioSpec:
    """A description of one verification scenario, and the one source of
    its defaults.

    ``tol=None`` resolves per kind: the equality tolerance ``EQ_TOL`` for
    the exact algebra of ``coassoc`` and ``state-product``, the verifiers'
    bound ``BUILD_TOL`` otherwise. States are ``GPState`` objects or their
    JSON forms, which are read here; a bad one raises ``SpecError`` naming
    its field. ``run_scenario`` checks the remaining rules.
    """

    kind: str
    omega1: GPState | dict | None = None
    omega2: GPState | dict | None = None
    omega3: GPState | dict | None = None
    n: int | None = None
    depth: int = 1
    max_len: int = 1
    samples: int = 0
    seed: int = 7
    tol: float | None = None

    def __post_init__(self):
        if self.tol is None:
            self.tol = EQ_TOL if self.kind in ("coassoc", "state-product") else BUILD_TOL
        for name in ("omega1", "omega2", "omega3"):
            setattr(self, name, _as_state(getattr(self, name), name))

    def to_json(self):
        return {
            k: v.to_json() if isinstance(v, GPState) else v
            for k, v in vars(self).items()
            if v is not None
        }


def _as_state(value, field):
    """A state given as a GPState or its JSON form; None stays None."""
    if value is None or isinstance(value, GPState):
        return value
    try:
        return state_from_json(value)
    except (ValueError, TypeError) as exc:
        raise SpecError([f"{field}: {exc}"])


def parse_state_arg(text, field):
    """A state from inline JSON or an @file reference."""
    if text is None:
        return None
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise SpecError([f"{field}: cannot read {text[1:]!r}: {exc}"])
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError([f"{field}: invalid JSON: {exc}"])
    return _as_state(obj, field)


# block keys that verify-coassoc splits in the worst case, where every
# monomial falls back (see _coassoc_splits); on a 2-core machine a key then
# costs about 1 us at n = 3000 (1.8M keys in 1.7 s) and about 4 us at a
# large prime n, whose three blocks take one key each, so that the work per
# monomial outweighs the keys (--n 666649, the largest index allowed: 4.0M
# keys in 16 s and 152 MB max RSS, the rows of both tables built). When
# the tables agree no monomial is split and no table builds its per-letter
# rows: --n 3000 takes 0.2 s (44 MB max RSS) and --n 666649 0.3 s (61 MB),
# most of it starting Python and importing numpy
MAX_COASSOC_SPLITS = 4_000_000


def _coassoc_splits(n, samples):
    """Block keys that ``verify-coassoc`` splits on O_n in the worst case.

    Each of the n generators, the unit and the ``samples`` random monomials
    is one term of O_n. A term whose letters all agree in the composed
    tables of the two double coproducts (``coproduct.disagreeing_letters``)
    is not split, and no generator of an agreeing letter is built. A term
    that falls back, every term when the two tables' blocks differ, is
    split in one pass through each table into one key for each of its
    d_3(n) blocks, the ordered divisor triples of n, and those keys are
    written as the terms of the two double coproducts; no Delta is
    computed. So the count is 2 d_3(n) keys a monomial, an upper bound on
    the work done. d_3(n) is counted on the divisor pairs the tables are
    built from: f_r's table has a block (a, b, c) for each divisor pair
    (a, l) of n and (b, c) of l. No digit table is read.
    """
    d3 = sum(len(_divisor_pairs(l)) for _, l in _divisor_pairs(n))
    return (n + 1 + samples) * 2 * d3


def _validate(spec):
    """Check the rules of a spec, gathering every broken one into one
    ``SpecError``. Each integer field is read by ``algebra._index`` and
    written back as an int, ``n`` on every kind that is given one; a
    ``tol`` that is not a float (a bool or a string) is refused as one out
    of range."""
    if spec.kind not in _RUNNERS:
        raise SpecError([f"unknown scenario kind {spec.kind!r}"])
    errors = []
    # no int lies in (0, 1e-3], so a real tol in range is a float
    if not (isinstance(spec.tol, (float, np.floating)) and 0.0 < spec.tol <= 1e-3):
        errors.append(f"tol must lie in (0, 1e-3], got {spec.tol!r}")
    lowers = {"depth": 0, "max_len": 0, "samples": 0, "seed": 0}
    if spec.kind == "coassoc" or spec.n is not None:
        lowers["n"] = 1
    read = set()
    for name, lower in lowers.items():
        try:
            setattr(spec, name, _index(getattr(spec, name), lower, name.replace("_", "-")))
            read.add(name)
        except ValueError as exc:
            coassoc_n = (name, spec.kind) == ("n", "coassoc")
            errors.append("coassoc needs --n >= 1" if coassoc_n else str(exc))
    if spec.kind in ("state-product", "build-r", "verify"):
        if spec.omega1 is None or spec.omega2 is None:
            errors.append(f"{spec.kind} needs --omega1 and --omega2")
    if spec.kind == "coassoc" and {"n", "samples"} <= read:
        # each monomial that falls back takes at least 2 block keys
        # (d_3(1) = 1), and the divisor pairs of n are scanned only when
        # that floor stays under the cap
        floor = 2 * (spec.n + 1 + spec.samples)
        exact = floor <= MAX_COASSOC_SPLITS
        writes = _coassoc_splits(spec.n, spec.samples) if exact else floor
        if writes > MAX_COASSOC_SPLITS:
            errors.append(
                f"verify-coassoc on O_{spec.n} with {spec.samples} samples needs "
                f"{'' if exact else 'at least '}{writes} term writes, "
                f"above the cap of {MAX_COASSOC_SPLITS}"
            )
    if spec.kind == "state-product" and not ("samples" in read and spec.samples >= 1):
        errors.append("state-product needs --samples >= 1")
    if errors:
        raise SpecError(errors)
    if spec.kind in ("coassoc", "state-product"):
        # the draw's worst case: two lengths and two words of max_len letters a sample
        preflight((
            spec.samples * (2 + 2 * spec.max_len),
            f"the draw of --samples {spec.samples} --max-len {spec.max_len}",
        ))


# ---------------------------------------------------------------------------
# scenario runners (pure: spec in, VerificationReport out)


def _random_keys(rng, n, max_len, count):
    """``count`` word pairs (u, v) of O_n whose two words have lengths in
    0..max_len: every length is drawn in one call and every letter in
    another, and each pair takes its words' letters in turn."""
    lengths = rng.integers(0, max_len + 1, size=(count, 2)).tolist()
    letters = iter(rng.integers(1, n + 1, size=sum(map(sum, lengths))).tolist())
    return [
        (tuple(itertools.islice(letters, a)), tuple(itertools.islice(letters, b)))
        for a, b in lengths
    ]


def _run_coassoc(spec):
    report = VerificationReport(scenario=spec.kind)
    n = spec.n
    # a generator is coassociative exactly when its letter agrees in the two
    # tables, so only the generators of disagreeing letters are built
    bad = disagreeing_letters(n)
    letters = range(1, n + 1) if bad is None else sorted(bad)
    groups = [
        ("coassoc-generators", (CuntzMonomial.generator(n, i) for i in letters)),
        ("coassoc-unit", [CuntzMonomial.unit(n)]),
    ]
    if spec.samples:
        rng = np.random.default_rng(spec.seed)
        keys = _random_keys(rng, n, spec.max_len, spec.samples)
        groups.append(("coassoc-random-monomials", [CuntzMonomial(n, *key) for key in keys]))
    for name, monos in groups:
        # the worst canonical residual between the two double coproducts
        worst = max((coassoc_residual(mono) for mono in monos), default=0.0)
        report.add(name, holds(worst, spec.tol), worst)
    return report


def _run_state_product(spec):
    omega1, omega2 = spec.omega1, spec.omega2
    rng = np.random.default_rng(spec.seed)
    # both functionals are read on the drawn word pairs; no element is built
    boxed = _letter_values(boxtimes(omega1.z, omega2.z).z.tolist())
    prod = star(omega1, omega2)
    worst = 0.0
    for key in _random_keys(rng, prod.n, spec.max_len, spec.samples):
        worst = max(worst, abs(prod.word_value(key) - _word_value(boxed, key, 1 + 0j)))
    report = VerificationReport(scenario=spec.kind)
    report.add("product-matches-interleaved-state", holds(worst, spec.tol), worst)
    ok, witness = commutes(omega1, omega2, tol=spec.tol)
    report.add(
        "commutes",
        ok,
        interleaving_gap(omega1, omega2),
        witness=witness.label() if witness is not None else None,
    )
    return report


def _run_build_r(spec):
    omega1, omega2 = spec.omega1, spec.omega2
    report = VerificationReport(scenario=spec.kind)
    try:
        rmat = build_r(omega1, omega2, spec.depth)
    except NotCommuting as exc:
        gap = star_gap(omega1, omega2, exc.witness)
        report.add("well-defined-gram-equality", False, gap, witness=exc.witness.label())
        return report, None
    # a failure names its worst column of R_1, or its worst word
    for name, (residual, witness) in (("unitary", rmat._unitarity()),
                                      ("defining-relation", _worst_word(rmat, 1))):
        passed = holds(residual, spec.tol, rmat.is_permutation)
        report.add(name, passed, residual, None if passed else witness)
    return report, rmat


def _fold(report, name, sub):
    """Add the report ``sub`` as one record: its pass flag and worst
    residual, and, when it fails, the witness (else the name) of its worst
    failing record."""
    witness = None
    if not sub.passed:
        worst = max((c for c in sub.checks if not c.passed), key=lambda c: c.residual)
        witness = worst.witness or worst.name
    report.add(name, sub.passed, sub.max_residual, witness)


def _run_verify(spec):
    omega1, omega2 = spec.omega1, spec.omega2
    report = VerificationReport(scenario=spec.kind)
    rmat = build_r(omega1, omega2, spec.depth)
    _fold(report, "intertwine", verify_intertwining(rmat, tol=spec.tol))
    rep = verify_symmetry(omega1, omega2, spec.depth, tol=spec.tol, r12=rmat)
    _fold(report, "inversion-symmetry", rep)
    if spec.omega3 is not None:
        rep = verify_ybe(omega1, omega2, spec.omega3, spec.depth, tol=spec.tol)
        _fold(report, "ybe", rep)
    return report


def _pair_gap(rmat, targets):
    """Largest norm of R(e_a (x) e_b) - e_a' (x) e_b' over 1-based basis pairs
    {(a, b): (a', b')}, and the witness of its source pair,
    ``basis-pair=a,b``; R acts once, on the batch of the source pairs."""
    X, W = np.zeros((2, *rmat.dims, len(targets)))
    for k, ((a, b), (a2, b2)) in enumerate(targets.items()):
        X[a - 1, b - 1, k] = W[a2 - 1, b2 - 1, k] = 1.0
    worst, column = _worst_column_at(rmat.apply_dense(X) - W)
    return worst, "basis-pair={},{}".format(*list(targets)[column])


def _run_all(spec):
    report = VerificationReport(scenario=spec.kind)

    def merge(prefix, sub):
        for c in sub.checks:
            report.add(f"{prefix}/{c.name}", c.passed, c.residual, c.witness)

    for n in range(1, 9):
        merge(f"coassoc-O{n}", _run_coassoc(ScenarioSpec("coassoc", n=n, seed=spec.seed)))
    for n in (4, 6, 12):
        sub = ScenarioSpec("coassoc", n=n, max_len=2, samples=25, seed=spec.seed)
        merge(f"coassoc-random-O{n}", _run_coassoc(sub))

    u2, u3 = GPState.uniform(2), GPState.uniform(3)
    for label, builder in (("standard", GPState.standard), ("uniform", GPState.uniform)):
        sub = ScenarioSpec(
            "state-product", builder(2), builder(3), max_len=3, samples=100, seed=spec.seed
        )
        merge(f"state-product-{label}", _run_state_product(sub))

    sub = ScenarioSpec("build-r", GPState.standard(2), GPState.standard(3), tol=spec.tol)
    sub_report, rmat = _run_build_r(sub)
    merge("build-r-standard-2-3", sub_report)
    if rmat is not None:
        moved = _pair_gap(rmat, {(1, 3): (1, 2)})[0]
        passed = holds(moved, spec.tol, True)
        report.add("build-r-standard-2-3/maps-pair-1-3-to-1-2", passed, moved)
        # R = R_1^{(x)d} is the identity exactly when R_1 is (R_1 fixes e_1 (x) e_1)
        deviation = _worst_column(rmat.r1 - np.eye(len(rmat.r1)))
        report.add("build-r-standard-2-3/not-identity", deviation > 0.0, deviation)

    merge("uniform-2-3", _run_verify(ScenarioSpec("verify", u2, u3, depth=2, tol=spec.tol)))

    for label, states in (
        ("standard-2-3-5", (GPState.standard(2), GPState.standard(3), GPState.standard(5))),
        ("uniform-2-3-2", (u2, u3, GPState.uniform(2))),
    ):
        _fold(report, f"ybe-{label}/ybe", verify_ybe(*states, 1, tol=spec.tol))

    # for equal states the operator is the leg swap on its span, which holds
    # exactly when R_1 is the swap F_1 = P_{n,n}, since the flip is F_1 on every digit pair
    for label, omega in (("standard-2", GPState.standard(2)), ("uniform-2", GPState.uniform(2))):
        rmat = build_r(omega, omega, 2)
        swap = np.eye(omega.n**2)[:, radix_perm(omega.n, omega.n)]
        worst, column = _worst_column_at(rmat.r1 - swap)
        passed = holds(worst, spec.tol, rmat.is_permutation)
        witness = None if passed else _digit_pair(column, omega.n)
        report.add(f"equal-states-{label}/operator-is-leg-swap", passed, worst, witness)
        _fold(report, f"equal-states-{label}/intertwine", verify_intertwining(rmat, tol=spec.tol))

    # the built operator moves every basis pair as the digit closed form says
    rmat = build_r(GPState.standard(2), GPState.standard(3), 2)
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 10)]
    worst, witness = _pair_gap(rmat, {p: swap_index_pair(2, 3, *p, 2) for p in pairs})
    passed = holds(worst, spec.tol, True)
    report.add("closed-form-2-3/matches-built-operator", passed, worst, None if passed else witness)

    merge("counterexample", counterexample_demo(tol=spec.tol))
    return report


_RUNNERS = {
    "coassoc": _run_coassoc,
    "state-product": _run_state_product,
    "build-r": _run_build_r,
    "verify": _run_verify,
    "counterexample": lambda spec: counterexample_demo(tol=spec.tol),
    "all": _run_all,
}


def run_scenario(spec):
    """Validate and run a scenario; returns the report dict, the operator
    ``build-r`` built (else None) and the elapsed seconds."""
    _validate(spec)
    start = time.perf_counter()
    result, rmat = _RUNNERS[spec.kind](spec), None
    if isinstance(result, tuple):
        result, rmat = result
    elapsed = time.perf_counter() - start
    report = {
        "scenario": spec.to_json(),
        "checks": [c.to_json() for c in result.checks],
        "pass": result.passed,
        "version": __version__,
    }
    return report, rmat, elapsed


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser, kind, states=0, depth=False, sampling=False):
    parser.set_defaults(kind=kind)
    parser.add_argument("--tol", type=float, help="tolerance override")
    parser.add_argument("--out", help="output JSON path")
    parser.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in the output"
    )
    for i in range(1, states + 1):
        parser.add_argument(f"--omega{i}", help="state JSON or @file")
    if depth:
        parser.add_argument("--depth", type=int, help="span depth")
    if sampling:
        parser.add_argument("--max-len", type=int, dest="max_len")
        parser.add_argument("--samples", type=int)
        parser.add_argument("--seed", type=int)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The command-line parser, built on the first call and kept: parsing
    leaves it unchanged, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="cuntzr",
        description="verify the Cuntz bialgebra identities and build swap unitaries",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-coassoc", help="double-coproduct agreement")
    p.add_argument("--n", type=int, required=True, help="algebra index")
    _add_common(p, "coassoc", sampling=True)

    p = sub.add_parser("state-product", help="product state against the closed form")
    _add_common(p, "state-product", states=2, sampling=True)
    p.set_defaults(max_len=3, samples=100)

    p = sub.add_parser("build-r", help="construct and export the operator")
    _add_common(p, "build-r", states=2, depth=True)
    p.add_argument("--report", help="also write the check report here")

    p = sub.add_parser("verify", help="intertwining, symmetry, and (with omega3) ybe")
    _add_common(p, "verify", states=3, depth=True)

    p = sub.add_parser("counterexample", help="the noncommuting-pair degeneration")
    _add_common(p, "counterexample")

    p = sub.add_parser("all", help="the full deterministic battery")
    _add_common(p, "all")
    p.add_argument("--seed", type=int)

    return parser


def _spec_from_args(args):
    """The scenario of a parsed command line; unset options take the
    ScenarioSpec defaults."""
    given = {}
    for f in fields(ScenarioSpec):
        value = getattr(args, f.name, None)
        if f.name.startswith("omega"):
            value = parse_state_arg(value, f.name)
        if value is not None:
            given[f.name] = value
    return ScenarioSpec(**given)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except SpecError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except (CuntzrError, MemoryError) as exc:  # SpanTooLarge is both
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def _run(args):
    """Run the scenario of the parsed arguments, print its checks and write
    its files; returns the exit code of a completed run."""
    report, rmat, elapsed = run_scenario(_spec_from_args(args))
    if args.timings:
        report["timings"] = {"total_s": float(elapsed)}
    for check in report["checks"]:
        status = "PASS" if check["pass"] else "FAIL"
        witness = f" witness={check['witness']}" if "witness" in check else ""
        print(f"{status} {check['name']} residual={check['residual']:.3e}{witness}")
    print(f"{'PASS' if report['pass'] else 'FAIL'} overall")
    if args.kind == "build-r":
        if rmat is not None and args.out:
            emit(rmat.to_json(), args.out)
        if args.report:
            emit(report, args.report)
    elif args.out:
        emit(report, args.out)
    return 0 if report["pass"] else 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
