"""Scenario runner and report emitter.

Subcommands mirror the verifier surface: ``verify-coassoc``,
``state-product``, ``build-r``, ``verify``, ``counterexample``, and ``all``.
States are passed as inline JSON or ``@file`` references, either in the
explicit form ``{"n": 2, "z": [[re, im], ...]}`` or with the shortcuts
``{"standard": n}`` and ``{"uniform": n}``. Reports are JSON with sorted
keys and fixed 17-significant-digit float formatting, so identical inputs
produce byte-identical files; wall-clock timings are only included on
request since they would break that. The exit code is 0 exactly when every
check passed. ``CUNTZR_TOL`` overrides the default tolerance of every
subcommand that does not receive ``--tol``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .algebra import EQ_TOL, AlgebraElement, CuntzMonomial, canonical_residual
from .coproduct import f_l, f_r
from .errors import CuntzrError, NotCommuting, SpecError
from .representations import to_dense
from .rmatrix import (
    BUILD_TOL,
    VerificationReport,
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

# exact-algebra scenarios default to the equality tolerance, the rest to the
# verifiers' residual bound
_EXACT_KINDS = ("coassoc", "state-product")


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
    """A validated description of one verification scenario."""

    kind: str
    omega1: dict = None
    omega2: dict = None
    omega3: dict = None
    n: int = None
    depth: int = 1
    max_len: int = 1
    samples: int = 0
    seed: int = 7
    tol: float = BUILD_TOL

    def to_json(self):
        return {k: v for k, v in asdict(self).items() if v is not None}


def parse_state_arg(text, field):
    """A state from inline JSON or an @file reference; canonical JSON form."""
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
    try:
        state = state_from_json(obj)
    except (ValueError, TypeError) as exc:
        raise SpecError([f"{field}: {exc}"])
    return state.to_json()


def _resolve_tol(args_tol, kind):
    if args_tol is not None:
        tol = args_tol
    else:
        env = os.environ.get("CUNTZR_TOL", "").strip()
        tol = float(env) if env else (EQ_TOL if kind in _EXACT_KINDS else BUILD_TOL)
    if not (0.0 < tol <= 1e-3):
        raise SpecError([f"tol must lie in (0, 1e-3], got {tol!r}"])
    return float(tol)


def _validate(spec):
    errors = []
    if spec.depth < 0:
        errors.append(f"depth must be >= 0, got {spec.depth}")
    if spec.max_len < 0:
        errors.append(f"max-len must be >= 0, got {spec.max_len}")
    if spec.samples < 0:
        errors.append(f"samples must be >= 0, got {spec.samples}")
    if spec.kind in ("state-product", "build-r", "verify"):
        if spec.omega1 is None or spec.omega2 is None:
            errors.append(f"{spec.kind} needs --omega1 and --omega2")
    if spec.kind == "coassoc" and (spec.n is None or spec.n < 1):
        errors.append("coassoc needs --n >= 1")
    if spec.kind == "state-product" and spec.samples < 1:
        errors.append("state-product needs --samples >= 1")
    if errors:
        raise SpecError(errors)
    return spec


def _state(spec_field):
    return state_from_json(spec_field) if spec_field is not None else None


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
        worst = max(canonical_residual(f_r(mono), f_l(mono)) for mono in monos)
        report.add(name, worst <= spec.tol, worst)
    return report


def _run_state_product(spec):
    omega1 = _state(spec.omega1)
    omega2 = _state(spec.omega2)
    rng = np.random.default_rng(spec.seed)
    N = omega1.n * omega2.n
    boxed = boxtimes(omega1.z, omega2.z)
    prod = star(omega1, omega2)
    worst = 0.0
    for mono in _random_monomials(rng, N, spec.max_len, spec.samples):
        x = AlgebraElement.monomial(mono)
        worst = max(worst, abs(prod(x) - gp_eval(boxed, x)))
    report = VerificationReport(scenario=spec.kind)
    report.add("product-matches-interleaved-state", worst <= spec.tol, worst)
    ok, witness = commutes(omega1, omega2, tol=spec.tol)
    report.add(
        "commutes",
        ok,
        interleaving_gap(omega1, omega2),
        witness=witness.label() if witness is not None else None,
    )
    return report


def _run_build_r(spec):
    omega1 = _state(spec.omega1)
    omega2 = _state(spec.omega2)
    report = VerificationReport(scenario=spec.kind)
    try:
        rmat = build_r(omega1, omega2, spec.depth)
    except NotCommuting as exc:
        gap = star_gap(omega1, omega2, exc.witness)
        report.add("well-defined-gram-equality", False, gap, witness=exc.witness.label())
        return report, None
    unitary = rmat.unitarity_residual
    relation = relation_residual(rmat, 1)
    report.add("unitary", unitary <= spec.tol, unitary)
    report.add("defining-relation", relation <= spec.tol, relation)
    return report, rmat


def _run_verify(spec):
    omega1 = _state(spec.omega1)
    omega2 = _state(spec.omega2)
    report = VerificationReport(scenario=spec.kind)
    rmat = build_r(omega1, omega2, spec.depth)
    rep = verify_intertwining(rmat, tol=spec.tol)
    report.add("intertwine", rep.passed, rep.max_residual)
    rep = verify_symmetry(omega1, omega2, spec.depth, tol=spec.tol, r12=rmat)
    report.add("inversion-symmetry", rep.passed, rep.max_residual)
    if spec.omega3 is not None:
        omega3 = _state(spec.omega3)
        rep = verify_ybe(omega1, omega2, omega3, spec.depth, tol=spec.tol)
        report.add("ybe", rep.passed, rep.max_residual)
    return report


def _run_all(spec):
    report = VerificationReport(scenario=spec.kind)

    def merge(prefix, sub):
        for c in sub.checks:
            report.add(f"{prefix}/{c.name}", c.passed, c.residual, c.witness)

    for n in range(1, 9):
        sub = ScenarioSpec(kind="coassoc", n=n, max_len=1, tol=EQ_TOL, seed=spec.seed)
        merge(f"coassoc-O{n}", _run_coassoc(sub))
    for n in (4, 6, 12):
        sub = ScenarioSpec(
            kind="coassoc", n=n, max_len=2, samples=25, tol=EQ_TOL, seed=spec.seed
        )
        merge(f"coassoc-random-O{n}", _run_coassoc(sub))

    for label, pair in (
        ("standard", ({"standard": 2}, {"standard": 3})),
        ("uniform", ({"uniform": 2}, {"uniform": 3})),
    ):
        sub = ScenarioSpec(
            kind="state-product",
            omega1=parse_state_arg(json.dumps(pair[0]), "omega1"),
            omega2=parse_state_arg(json.dumps(pair[1]), "omega2"),
            max_len=3,
            samples=100,
            tol=EQ_TOL,
            seed=spec.seed,
        )
        merge(f"state-product-{label}", _run_state_product(sub))

    sub = ScenarioSpec(
        kind="build-r",
        omega1={"n": 2, "z": [[1.0, 0.0], [0.0, 0.0]]},
        omega2={"n": 3, "z": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
        depth=1,
        tol=spec.tol,
    )
    sub_report, rmat = _run_build_r(sub)
    merge("build-r-standard-2-3", sub_report)
    if rmat is not None:
        image = rmat.apply_dense(to_dense({(1, 3): 1.0}, rmat.dims))
        moved = float(np.linalg.norm(image - to_dense({(1, 2): 1.0}, rmat.dims)))
        report.add("build-r-standard-2-3/maps-pair-1-3-to-1-2", moved == 0.0, moved)
        deviation = rmat.basis_residual(lambda E: E)
        report.add("build-r-standard-2-3/not-identity", deviation > 0.0, deviation)

    u2 = GPState.uniform(2)
    u3 = GPState.uniform(3)
    rmat = build_r(u2, u3, 2)
    rep = verify_intertwining(rmat, tol=spec.tol)
    report.add("uniform-2-3/intertwine", rep.passed, rep.max_residual)
    rep = verify_symmetry(u2, u3, 2, tol=spec.tol, r12=rmat)
    report.add("uniform-2-3/inversion-symmetry", rep.passed, rep.max_residual)

    for label, states in (
        ("standard-2-3-5", (GPState.standard(2), GPState.standard(3), GPState.standard(5))),
        ("uniform-2-3-2", (u2, u3, GPState.uniform(2))),
    ):
        rep = verify_ybe(*states, 1, tol=spec.tol)
        report.add(f"ybe-{label}/ybe", rep.passed, rep.max_residual)

    # for equal states the operator is the leg swap on its span
    for label, omega in (("standard-2", GPState.standard(2)), ("uniform-2", GPState.uniform(2))):
        rmat = build_r(omega, omega, 2)
        worst = rmat.basis_residual(lambda E: E.transpose(1, 0, 2))
        report.add(f"equal-states-{label}/operator-is-leg-swap", worst <= spec.tol, worst)
        rep = verify_intertwining(rmat, tol=spec.tol)
        report.add(f"equal-states-{label}/intertwine", rep.passed, rep.max_residual)

    # the built operator moves every basis pair as the digit closed form says
    rmat = build_r(GPState.standard(2), GPState.standard(3), 2)
    worst = 0.0
    for a in range(1, 5):
        for b in range(1, 10):
            image = rmat.apply_dense(to_dense({(a, b): 1.0}, rmat.dims))
            target = to_dense({swap_index_pair(2, 3, a, b, 2): 1.0}, rmat.dims)
            worst = max(worst, float(np.linalg.norm(image - target)))
    report.add("closed-form-2-3/matches-built-operator", worst == 0.0, worst)

    merge("counterexample", counterexample_demo(tol=spec.tol))
    return report


def run_scenario(spec):
    """Dispatch a validated scenario; returns the report dict."""
    _validate(spec)
    start = time.perf_counter()
    rmat = None
    if spec.kind == "coassoc":
        result = _run_coassoc(spec)
    elif spec.kind == "state-product":
        result = _run_state_product(spec)
    elif spec.kind == "build-r":
        result, rmat = _run_build_r(spec)
    elif spec.kind == "verify":
        result = _run_verify(spec)
    elif spec.kind == "counterexample":
        result = counterexample_demo(tol=spec.tol)
    elif spec.kind == "all":
        result = _run_all(spec)
    else:
        raise SpecError([f"unknown scenario kind {spec.kind!r}"])
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


def _add_common(parser, states=0, depth=False, sampling=False):
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--out", default=None, help="output JSON path")
    parser.add_argument(
        "--timings", action="store_true", help="include wall-clock timings in the output"
    )
    if states >= 1:
        parser.add_argument("--omega1", default=None, help="state JSON or @file")
    if states >= 2:
        parser.add_argument("--omega2", default=None, help="state JSON or @file")
    if states >= 3:
        parser.add_argument("--omega3", default=None, help="state JSON or @file")
    if depth:
        parser.add_argument("--depth", type=int, default=1, help="span depth")
    if sampling:
        parser.add_argument("--max-len", type=int, default=1, dest="max_len")
        parser.add_argument("--samples", type=int, default=0)
        parser.add_argument("--seed", type=int, default=7)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cuntzr",
        description="verify the Cuntz bialgebra identities and build swap unitaries",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-coassoc", help="double-coproduct agreement")
    p.add_argument("--n", type=int, required=True, help="algebra index")
    _add_common(p, sampling=True)

    p = sub.add_parser("state-product", help="product state against the closed form")
    _add_common(p, states=2, sampling=True)
    p.set_defaults(max_len=3, samples=100)

    p = sub.add_parser("build-r", help="construct and export the operator")
    _add_common(p, states=2, depth=True)
    p.add_argument("--report", default=None, help="also write the check report here")

    p = sub.add_parser("verify", help="intertwining, symmetry, and (with omega3) ybe")
    _add_common(p, states=3, depth=True)

    p = sub.add_parser("counterexample", help="the noncommuting-pair degeneration")
    _add_common(p)

    p = sub.add_parser("all", help="the full deterministic battery")
    _add_common(p)
    p.add_argument("--seed", type=int, default=7)

    return parser


def _spec_from_args(args):
    kind = {
        "verify-coassoc": "coassoc",
        "state-product": "state-product",
        "build-r": "build-r",
        "verify": "verify",
        "counterexample": "counterexample",
        "all": "all",
    }[args.command]
    spec = ScenarioSpec(
        kind=kind,
        omega1=parse_state_arg(getattr(args, "omega1", None), "omega1"),
        omega2=parse_state_arg(getattr(args, "omega2", None), "omega2"),
        omega3=parse_state_arg(getattr(args, "omega3", None), "omega3"),
        n=getattr(args, "n", None),
        depth=getattr(args, "depth", 1),
        max_len=getattr(args, "max_len", 1),
        samples=getattr(args, "samples", 0),
        seed=getattr(args, "seed", 7),
        tol=_resolve_tol(args.tol, kind),
    )
    return spec


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
    if args.command == "build-r":
        if rmat is not None and args.out:
            emit(rmat.to_json(), args.out)
        if getattr(args, "report", None):
            emit(report, args.report)
    elif args.out:
        emit(report, args.out)
    return 0 if report["pass"] else 1


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
