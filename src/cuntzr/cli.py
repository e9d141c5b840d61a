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
import json
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .algebra import BUILD_TOL, EQ_TOL, AlgebraElement, CuntzMonomial, holds
from .coproduct import coassoc_residual
from .errors import CuntzrError, NotCommuting, SpecError
from .rmatrix import (
    VerificationReport,
    _leg_flip,
    _worst_column,
    build_r,
    counterexample_demo,
    relation_residual,
    swap_index_pair,
    verify_intertwining,
    verify_symmetry,
    verify_ybe,
)
from .states import (
    GPState,
    boxtimes,
    commutes,
    gp_eval,
    interleaving_gap,
    star,
    star_gap,
    state_from_json,
)

# ---------------------------------------------------------------------------
# deterministic JSON


def stable_json(obj):
    """Render JSON with sorted keys and 17-significant-digit floats."""
    pieces = []
    _render(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _render(obj, out, level):
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(obj)
        for idx, key in enumerate(keys):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad + "  " + json.dumps(key) + ": ")
            _render(obj[key], out, level + 1)
            out.append(",\n" if idx + 1 < len(keys) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for idx, item in enumerate(obj):
            out.append(pad + "  ")
            _render(item, out, level + 1)
            out.append(",\n" if idx + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        val = float(obj)
        if not np.isfinite(val):
            raise ValueError(f"cannot emit non-finite float {val!r}")
        out.append(format(val, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    else:
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


# about 8 s of verify-coassoc, at the 1.9 us a (word pair, divisor pair)
# split measured on a 2-core machine (--n 3000: 1.9M splits in 3.6 s); a
# large prime n, whose blocks hold one term each, costs about 5 us a split
# (--n 499979: 4.0M splits in 20 s)
MAX_COASSOC_SPLITS = 4_000_000


def _coassoc_splits(n, samples):
    """(Word pair, divisor pair) splits that ``verify-coassoc`` makes on O_n.

    A word pair of O_k is split under all d(k) ordered divisor pairs of k
    at once (``coproduct._leg_keys``), which counts d(k) splits. Each of
    the n generators, the unit and the ``samples`` random monomials is one
    term: delta splits it under the d(n) pairs of n, and each outer
    expansion splits one leg of every block of delta under the pairs of
    its index, d_3(n) splits in all, the number of ordered divisor triples.
    Both counts are products over the prime factorization n = prod p^e:
    d(n) of (e + 1) and d_3(n) of (e + 1)(e + 2)/2.
    """
    d = d3 = 1
    p, rest = 2, n
    while rest > 1:
        if p * p > rest:
            p = rest  # what is left is prime
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        d *= e + 1
        d3 *= (e + 1) * (e + 2) // 2
        p += 1
    return (n + 1 + samples) * (d + 2 * d3)


def _validate(spec):
    if spec.kind not in _RUNNERS:
        raise SpecError([f"unknown scenario kind {spec.kind!r}"])
    errors = []
    if not (0.0 < spec.tol <= 1e-3):
        errors.append(f"tol must lie in (0, 1e-3], got {spec.tol!r}")
    if spec.depth < 0:
        errors.append(f"depth must be >= 0, got {spec.depth}")
    if spec.max_len < 0:
        errors.append(f"max-len must be >= 0, got {spec.max_len}")
    if spec.samples < 0:
        errors.append(f"samples must be >= 0, got {spec.samples}")
    if spec.seed < 0:
        errors.append(f"seed must be >= 0, got {spec.seed}")
    if spec.kind in ("state-product", "build-r", "verify"):
        if spec.omega1 is None or spec.omega2 is None:
            errors.append(f"{spec.kind} needs --omega1 and --omega2")
    if spec.kind == "coassoc" and (spec.n is None or spec.n < 1):
        errors.append("coassoc needs --n >= 1")
    elif spec.kind == "coassoc" and spec.samples >= 0:
        # each monomial takes at least 3 splits, and n is factored only
        # when that floor stays under the cap
        floor = 3 * (spec.n + 1 + spec.samples)
        exact = floor <= MAX_COASSOC_SPLITS
        splits = _coassoc_splits(spec.n, spec.samples) if exact else floor
        if splits > MAX_COASSOC_SPLITS:
            errors.append(
                f"verify-coassoc on O_{spec.n} with {spec.samples} samples needs "
                f"{'' if exact else 'at least '}{splits} word-pair splits, "
                f"above the cap of {MAX_COASSOC_SPLITS}"
            )
    if spec.kind == "state-product" and spec.samples < 1:
        errors.append("state-product needs --samples >= 1")
    if errors:
        raise SpecError(errors)


# ---------------------------------------------------------------------------
# scenario runners (pure: spec in, VerificationReport out)


def _random_monomials(rng, n, max_len, count):
    out = []
    for _ in range(count):
        a = int(rng.integers(0, max_len + 1))
        b = int(rng.integers(0, max_len + 1))
        u = tuple(int(x) for x in rng.integers(1, n + 1, size=a))
        v = tuple(int(x) for x in rng.integers(1, n + 1, size=b))
        out.append(CuntzMonomial(n, u, v))
    return out


def _run_coassoc(spec):
    report = VerificationReport(scenario=spec.kind)
    n = spec.n
    groups = [
        ("coassoc-generators", [CuntzMonomial.generator(n, i) for i in range(1, n + 1)]),
        ("coassoc-unit", [CuntzMonomial.unit(n)]),
    ]
    if spec.samples:
        rng = np.random.default_rng(spec.seed)
        monos = _random_monomials(rng, n, spec.max_len, spec.samples)
        groups.append(("coassoc-random-monomials", monos))
    for name, monos in groups:
        # the worst canonical residual between the two double coproducts
        worst = max(coassoc_residual(mono) for mono in monos)
        report.add(name, holds(worst, spec.tol), worst)
    return report


def _run_state_product(spec):
    omega1, omega2 = spec.omega1, spec.omega2
    rng = np.random.default_rng(spec.seed)
    N = omega1.n * omega2.n
    boxed = boxtimes(omega1.z, omega2.z)
    prod = star(omega1, omega2)
    worst = 0.0
    for mono in _random_monomials(rng, N, spec.max_len, spec.samples):
        x = AlgebraElement.monomial(mono)
        worst = max(worst, abs(prod(x) - gp_eval(boxed, x)))
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
    unitary = rmat.unitarity_residual
    relation = relation_residual(rmat, 1)
    report.add("unitary", holds(unitary, spec.tol, rmat.is_permutation), unitary)
    report.add("defining-relation", holds(relation, spec.tol, rmat.is_permutation), relation)
    return report, rmat


def _run_verify(spec):
    omega1, omega2 = spec.omega1, spec.omega2
    report = VerificationReport(scenario=spec.kind)
    rmat = build_r(omega1, omega2, spec.depth)
    rep = verify_intertwining(rmat, tol=spec.tol)
    report.add("intertwine", rep.passed, rep.max_residual)
    rep = verify_symmetry(omega1, omega2, spec.depth, tol=spec.tol, r12=rmat)
    report.add("inversion-symmetry", rep.passed, rep.max_residual)
    if spec.omega3 is not None:
        rep = verify_ybe(omega1, omega2, spec.omega3, spec.depth, tol=spec.tol)
        report.add("ybe", rep.passed, rep.max_residual)
    return report


def _pair_gap(rmat, targets):
    """Largest norm of R(e_a (x) e_b) - e_a' (x) e_b' over 1-based basis pairs
    {(a, b): (a', b')}; R acts once, on the identity batch of the block."""
    p, q = rmat.dims
    images = rmat.apply_dense(np.eye(p * q).reshape(p, q, p * q))
    worst = 0.0
    for (a, b), (a2, b2) in targets.items():
        image = images[:, :, (a - 1) * q + b - 1].copy()
        image[a2 - 1, b2 - 1] -= 1.0
        worst = max(worst, float(np.linalg.norm(image)))
    return worst


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
        moved = _pair_gap(rmat, {(1, 3): (1, 2)})
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
        rep = verify_ybe(*states, 1, tol=spec.tol)
        report.add(f"ybe-{label}/ybe", rep.passed, rep.max_residual)

    # for equal states the operator is the leg swap on its span, which holds
    # exactly when R_1 is the swap F_1, since the flip is F_1 on every digit pair
    for label, omega in (("standard-2", GPState.standard(2)), ("uniform-2", GPState.uniform(2))):
        rmat = build_r(omega, omega, 2)
        worst = _worst_column(rmat.r1 - _leg_flip(omega.n, omega.n))
        passed = holds(worst, spec.tol, rmat.is_permutation)
        report.add(f"equal-states-{label}/operator-is-leg-swap", passed, worst)
        rep = verify_intertwining(rmat, tol=spec.tol)
        report.add(f"equal-states-{label}/intertwine", rep.passed, rep.max_residual)

    # the built operator moves every basis pair as the digit closed form says
    rmat = build_r(GPState.standard(2), GPState.standard(3), 2)
    pairs = [(a, b) for a in range(1, 5) for b in range(1, 10)]
    worst = _pair_gap(rmat, {p: swap_index_pair(2, 3, *p, 2) for p in pairs})
    report.add("closed-form-2-3/matches-built-operator", holds(worst, spec.tol, True), worst)

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


def build_parser():
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
        spec = _spec_from_args(args)
        report, rmat, elapsed = run_scenario(spec)
    except SpecError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return 2
    except CuntzrError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
