"""Acceptance battery.

One test per criterion; each records a single pass/fail line that the
terminal summary prints after the run. Tolerances and runtime limits are
asserted exactly as stated, with no later calibration.
"""

import time

import numpy as np
import pytest

from cuntzr.algebra import AlgebraElement, CuntzMonomial
from cuntzr.coproduct import check_coassoc
from cuntzr.errors import NotCommuting
from cuntzr.rmatrix import (
    build_r,
    counterexample_demo,
    verify_intertwining,
    verify_symmetry,
    verify_ybe,
)
from cuntzr.states import GPState, UnitVector, boxtimes, gp_eval, star
from basis_oracle import basis_blocks, basis_residual
from gram_oracle import gram_r, pack_vectors, vec_dist, word_images


def _record(log, num, ok, text, elapsed):
    status = "PASS" if ok else "FAIL"
    log(f"criterion {num}: {status}  {text}  ({elapsed:.2f} s)")


def test_criterion_1_swap_example(acceptance_log):
    start = time.perf_counter()
    rmat = build_r(GPState.standard(2), GPState.standard(3), 1)
    image = rmat.apply({(1, 3): 1.0})
    residual = vec_dist(image, {(1, 2): 1.0 + 0j})
    nontrivial = basis_residual(rmat, lambda E: E) > 0.0
    elapsed = time.perf_counter() - start
    ok = residual == 0.0 and nontrivial and elapsed < 1.0
    _record(
        acceptance_log,
        1,
        ok,
        f"swap operator moves pair (1,3) to (1,2) exactly, residual {residual:.1e}",
        elapsed,
    )
    assert residual == 0.0
    assert nontrivial
    assert elapsed < 1.0


def test_criterion_2_degenerate_pair(acceptance_log):
    start = time.perf_counter()
    report = counterexample_demo()
    by_name = {c.name: c for c in report.checks}
    with pytest.raises(NotCommuting) as err:
        build_r(GPState(UnitVector([1, 0])), GPState(UnitVector([0, 1])), 1)
    witness_ok = err.value.witness.label() == "n=4;u=2;v="
    elapsed = time.perf_counter() - start
    ok = report.passed and witness_ok and elapsed < 1.0
    _record(
        acceptance_log,
        2,
        ok,
        "noncommuting pair: fixed vector, orthogonal opposite image, "
        f"rejection witness {err.value.witness.label()}",
        elapsed,
    )
    assert report.passed
    assert by_name["relation-unit-branch-fixes-cyclic-vector"].residual == 0.0
    assert by_name["opposite-image-orthogonal-to-cyclic-vector"].residual == 0.0
    assert by_name["conjugation-identity-violated"].residual > 1.0
    assert witness_ok
    assert elapsed < 1.0


def test_criterion_3_coassociativity(acceptance_log):
    start = time.perf_counter()
    ok = True
    for n in range(1, 9):
        for i in range(1, n + 1):
            ok &= check_coassoc(CuntzMonomial.generator(n, i), tol=0.0)
    rng = np.random.default_rng(2024)
    for n in (4, 6, 12):
        for _ in range(100):
            u = tuple(int(x) for x in rng.integers(1, n + 1, size=rng.integers(0, 3)))
            v = tuple(int(x) for x in rng.integers(1, n + 1, size=rng.integers(0, 3)))
            ok &= check_coassoc(CuntzMonomial(n, u, v), tol=0.0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _record(
        acceptance_log,
        3,
        ok,
        "double coproducts agree exactly on generators of O_1..O_8 and "
        "300 random monomials of O_4, O_6, O_12",
        elapsed,
    )
    assert ok
    assert elapsed < 10.0


def test_criterion_4_product_state_closed_form(acceptance_log):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(5):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        y = rng.normal(size=3) + 1j * rng.normal(size=3)
        z = UnitVector(z / np.linalg.norm(z))
        y = UnitVector(y / np.linalg.norm(y))
        prod = star(GPState(z), GPState(y))
        boxed = boxtimes(z, y)
        for _ in range(100):
            u = tuple(int(x) for x in rng.integers(1, 7, size=rng.integers(0, 4)))
            v = tuple(int(x) for x in rng.integers(1, 7, size=rng.integers(0, 4)))
            x = AlgebraElement.monomial(CuntzMonomial(6, u, v))
            worst = max(worst, abs(prod(x) - gp_eval(boxed, x)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 5.0
    _record(
        acceptance_log,
        4,
        ok,
        f"product state equals the interleaved state, worst deviation {worst:.1e}",
        elapsed,
    )
    assert worst <= 1e-12
    assert elapsed < 5.0


def test_criterion_5_intertwining_and_symmetry(acceptance_log):
    start = time.perf_counter()
    u2, u3 = GPState.uniform(2), GPState.uniform(3)
    rmat = build_r(u2, u3, 2)
    unitary = rmat.unitarity_residual
    inter = verify_intertwining(rmat)
    sym = verify_symmetry(u2, u3, 2, r12=rmat)
    elapsed = time.perf_counter() - start
    ok = (
        unitary <= 1e-9
        and inter.passed
        and inter.max_residual <= 1e-9
        and sym.passed
        and sym.max_residual <= 1e-9
        and elapsed < 30.0
    )
    _record(
        acceptance_log,
        5,
        ok,
        "uniform pair at depth 2: unitarity "
        f"{unitary:.1e}, intertwining {inter.max_residual:.1e}, "
        f"inversion symmetry {sym.max_residual:.1e}",
        elapsed,
    )
    assert unitary <= 1e-9
    assert inter.passed and inter.max_residual <= 1e-9
    assert sym.passed and sym.max_residual <= 1e-9
    assert elapsed < 30.0


def test_criterion_6_triple_exchange(acceptance_log):
    start = time.perf_counter()
    std = verify_ybe(
        GPState.standard(2), GPState.standard(3), GPState.standard(5), 1
    )
    uni = verify_ybe(GPState.uniform(2), GPState.uniform(3), GPState.uniform(2), 1)
    elapsed = time.perf_counter() - start
    ok = (
        std.passed
        and std.max_residual == 0.0
        and len(std.checks) == 31
        and uni.passed
        and uni.max_residual <= 1e-9
        and elapsed < 60.0
    )
    _record(
        acceptance_log,
        6,
        ok,
        "triple exchange identity: standard (2,3,5) exact on all generator "
        f"images incl. the expansion oracle, uniform residual {uni.max_residual:.1e}",
        elapsed,
    )
    assert std.passed and std.max_residual == 0.0
    assert len(std.checks) == 31
    assert uni.passed and uni.max_residual <= 1e-9
    assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "for equal states the defining relation forces the leg swap on the "
        "span, not the identity: the coproduct image of a word and its "
        "opposite image differ exactly by the flip of the legs (seen already "
        "on the index-2 generator of O_4), and an identity operator would "
        "contradict the conjugation identity that criterion 5 verifies"
    ),
)
def test_criterion_7_equal_states_identity(acceptance_log):
    start = time.perf_counter()
    worst = 0.0
    for omega in (GPState.standard(2), GPState.standard(3), GPState.uniform(2)):
        rmat = build_r(omega, omega, 1)
        for E in basis_blocks(rmat.dims):
            worst = max(worst, float(np.max(np.abs(rmat.apply_dense(E) - E))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12
    _record(
        acceptance_log,
        7,
        ok,
        "equal-state operator equals the identity on its span "
        f"(actual deviation {worst:.1e}: the operator is the leg swap)",
        elapsed,
    )
    assert worst <= 1e-12


def _closed_form_matrix(rmat):
    """R as a dense matrix over the block, columns in row-major pair order."""
    (E,) = basis_blocks(rmat.dims)
    return rmat.apply_dense(E).reshape(rmat.rank, rmat.rank)


def _block_pairs(dims):
    return [(a, b) for a in range(1, dims[0] + 1) for b in range(1, dims[1] + 1)]


def test_criterion_8_closed_form_equivalence(acceptance_log):
    start = time.perf_counter()
    exact = True
    checked = 0
    for n, m in ((2, 3), (3, 2), (2, 5)):
        for depth in (1, 2, 3):
            rmat = build_r(GPState.standard(n), GPState.standard(m), depth)
            oracle = gram_r(GPState.standard(n), GPState.standard(m), depth)
            assert oracle.basis.support == _block_pairs(rmat.dims)
            if not np.array_equal(oracle.dense_matrix(), _closed_form_matrix(rmat)):
                exact = False
            checked += rmat.rank
    u2, u3 = GPState.uniform(2), GPState.uniform(3)
    oracle = gram_r(u2, u3, 2)
    rmat = build_r(u2, u3, 2)
    assert oracle.basis.support == _block_pairs(rmat.dims)
    uniform_dev = float(np.max(np.abs(oracle.dense_matrix() - _closed_form_matrix(rmat))))
    elapsed = time.perf_counter() - start
    ok = exact and uniform_dev <= 1e-12 and elapsed < 60.0
    _record(
        acceptance_log,
        8,
        ok,
        f"factored closed form equals the Gram oracle entrywise on {checked} "
        "basis pairs for standard (2,3), (3,2), (2,5) up to depth 3, and on "
        f"uniform (2,3) at depth 2 to {uniform_dev:.1e}",
        elapsed,
    )
    assert exact
    assert uniform_dev <= 1e-12
    assert elapsed < 60.0


def test_criterion_9_span_rank_growth(acceptance_log):
    start = time.perf_counter()
    ok = True
    for n, m in ((2, 3), (2, 5)):
        for make in (GPState.standard, GPState.uniform):
            for depth in (0, 1, 2):
                rmat = build_r(make(n), make(m), depth)
                _, images = word_images(rmat.rep1, rmat.rep2, depth)
                # the support list is the block, so an image leaving it fails
                _, A = pack_vectors(images, _block_pairs(rmat.dims))
                rank = np.linalg.matrix_rank(A)
                ok &= rank == (n * m) ** depth == rmat.rank
    elapsed = time.perf_counter() - start
    _record(
        acceptance_log,
        9,
        ok,
        "the word images span the whole (n^d, m^d) block: numerical rank "
        "(n*m)^depth for (2,3) and (2,5), depths 0..2, standard and uniform "
        "states, equal to the operator's rank",
        elapsed,
    )
    assert ok
