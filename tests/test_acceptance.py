"""Acceptance suite: ten end-to-end checks, one printed verdict line each.

Every check compares the package against something it does not share code
with: elementary closed forms, a brute-force shell search over the growth
function, the dense Galerkin matrix, or a second run of the same binary.
Corpora are frozen here so the run is reproducible.
"""
import json
import math
import subprocess
import sys

import numpy as np

import fockop as fk
from fockop.funcspace import AffineMap, constant, kernel, monomial, multiply
from fockop.oracle import compactness_witness, rayleigh_sweep, truncated_essential_upper
from fockop.verify import (
    check_inclusion_constant,
    check_pointwise_bound,
    check_slice_bound,
    run_suites,
    suite_normalization,
)
from fockop.wco import (
    WcoProblem,
    classify,
    composition_criterion,
    ell_at_many,
    ell_profile,
    norm_bounds,
    normalize,
)

from conftest import record_acceptance
from helpers import CORPUS_DIR, corpus_problems


def announce(num: int, ok: bool, detail: str) -> bool:
    line = f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    record_acceptance(line)
    return ok


def unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def structured_map(n, sig, drift, rotseed) -> AffineMap:
    if rotseed is None:
        V = np.eye(n, dtype=complex)
        U = np.eye(n, dtype=complex)
    else:
        V = unitary(n, rotseed)
        U = unitary(n, rotseed + 1)
    A = V @ np.diag(np.array(sig, dtype=complex)) @ U
    b = V @ np.array(drift, dtype=complex)
    return AffineMap(A, b)


# -- 1: normalized kernels have unit norm in every space -----------------------


def test_criterion_01_kernel_normalization():
    force_quad = fk.QuadSpec(allow_closed_form=False)
    rng = np.random.default_rng(11)
    worst = 0.0
    count = 0
    for n in (1, 2):
        radii = np.linspace(0.2, 3.0, 10)
        for rho in radii:
            v = rng.normal(size=n) + 1j * rng.normal(size=n)
            w = rho * v / np.linalg.norm(v)
            count += 1
            for p in (0.5, 1.0, 2.0, 4.0):
                for spec in (None, force_quad):
                    val = fk.fock_norm(fk.normalized_kernel(w), p, spec).value
                    worst = max(worst, abs(val - 1.0))
    ok = worst <= 1e-6
    assert announce(1, ok, f"{count} kernels, p in {{0.5,1,2,4}}, worst |norm-1| = {worst:.3g}")


# -- 2: the three inequalities behind every bound ------------------------------


def test_criterion_02_inequality_suite():
    results = [
        check_slice_bound(200, seed=20260825),
        check_pointwise_bound(200, seed=20260825),
        check_inclusion_constant(200, seed=20260825),
    ]
    ok = all(r.passed for r in results)
    assert announce(2, ok, "; ".join(f"{r.name}: {r.detail}" for r in results))


# -- 3: rank-zero maps have an exactly attained norm ---------------------------


def test_criterion_03_rank_zero_exact_norm():
    rng = np.random.default_rng(303)
    exps = [(2.0, 2.0), (2.0, 4.0), (4.0, 2.0), (1.0, 2.0), (0.5, 3.0)]
    worst_eq = 0.0
    worst_exceed = 0.0
    for k in range(20):
        n = 1 + int(rng.integers(2))
        c = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        b = 0.8 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        p, q = exps[k % len(exps)]
        prob = WcoProblem(fk.kernel(c), AffineMap(np.zeros((n, n)), b), p, q)
        exact = math.exp(float(np.sum(np.abs(b) ** 2)) / 2.0) * fk.fock_norm(fk.kernel(c), q).value
        peak = fk.normalized_kernel(b)
        image = fk.apply_wco(prob.psi, prob.phi, peak)
        attained = fk.fock_norm(image, q).value / fk.fock_norm(peak, p).value
        worst_eq = max(worst_eq, abs(attained - exact) / exact)
        sweep = rayleigh_sweep(prob)
        worst_exceed = max(worst_exceed, (sweep.best - exact) / exact)
    ok = worst_eq <= 1e-6 and worst_exceed <= 1e-6
    assert announce(
        3, ok, f"20 constant maps, worst attainment gap {worst_eq:.3g}, worst sweep excess {worst_exceed:.3g}"
    )


# -- 4: certified classification vs two independent references -----------------

SHELL_RADII = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0)


def shell_directions(profile) -> np.ndarray:
    s = profile.s
    dirs = []
    for i in range(s):
        e = np.zeros(s, dtype=complex)
        w = profile.w[i]
        e[i] = w / abs(w) if w != 0 else 1.0
        dirs.append(e)
    rng = np.random.default_rng(11)
    for _ in range(12):
        v = rng.normal(size=s) + 1j * rng.normal(size=s)
        dirs.append(v / np.linalg.norm(v))
    return np.array(dirs)


def shell_oracle(profile):
    """Brute-force sup of ell over expanding shells: (finite, decays)."""
    dirs = shell_directions(profile)
    vals = []
    for rho in SHELL_RADII:
        with np.errstate(over="ignore", invalid="ignore"):
            shell = ell_at_many(profile, rho * dirs)
        shell = np.nan_to_num(shell, nan=np.inf)
        vals.append(float(np.max(shell)))
    if any(not math.isfinite(v) for v in vals):
        return False, False
    if vals[-1] > vals[-2] * (1 + 1e-6) and vals[-2] > vals[-3] * (1 + 1e-6):
        return False, False
    return True, vals[-1] < 1e-3 * max(vals)


def classification_specs():
    """50 structured maps: (n, singular values, drift, rotation seed)."""
    specs = []
    for a in (0.0, 0.3, 0.9, 1.0):
        specs.append((1, (a,), (0.0,), None))
    for a in (0.3, 0.9, 1.0):
        specs.append((1, (a,), (0.5,), None))
    specs.append((1, (1.0,), (0.0,), 7))
    specs.append((1, (0.9,), (0.7,), 8))
    sig2 = [
        (0.3, 0.3), (0.9, 0.3), (0.9, 0.9), (1.0, 0.3), (1.0, 0.9),
        (1.0, 1.0), (0.3, 0.0), (0.9, 0.0), (1.0, 0.0), (0.0, 0.0),
    ]
    for i, sig in enumerate(sig2):
        specs.append((2, sig, (0.0, 0.0), None if i % 2 else 30 + i))
    drift2 = [
        ((0.9, 0.3), (0.0, 0.6)), ((1.0, 0.3), (0.0, 0.6)), ((1.0, 0.3), (0.5, 0.0)),
        ((1.0, 1.0), (0.5, 0.0)), ((1.0, 0.9), (0.0, 0.4)), ((1.0, 0.0), (0.5, 0.0)),
        ((0.9, 0.9), (0.3, 0.3)), ((1.0, 0.9), (0.4, 0.4)), ((0.3, 0.3), (0.8, 0.0)),
        ((1.0, 0.0), (0.0, 0.5)),
    ]
    for k, (sig, dr) in enumerate(drift2):
        specs.append((2, sig, dr, 50 + k))
    sig3 = [
        (0.9, 0.3, 0.0), (1.0, 0.9, 0.3), (1.0, 1.0, 0.9), (0.3, 0.3, 0.3),
        (1.0, 0.9, 0.0), (0.9, 0.9, 0.9), (1.0, 0.0, 0.0),
    ]
    for i, sig in enumerate(sig3):
        specs.append((3, sig, (0.0, 0.0, 0.0), None if i % 2 else 70 + i))
    drift3 = [
        ((1.0, 0.9, 0.3), (0.5, 0.0, 0.0)), ((1.0, 0.9, 0.3), (0.0, 0.6, 0.0)),
        ((1.0, 1.0, 0.0), (0.0, 0.0, 0.7)), ((0.9, 0.3, 0.0), (0.0, 0.0, 0.5)),
        ((1.0, 0.9, 0.0), (0.4, 0.0, 0.4)), ((1.0, 0.0, 0.0), (0.3, 0.3, 0.0)),
    ]
    for k, (sig, dr) in enumerate(drift3):
        specs.append((3, sig, dr, 90 + k))
    specs += [
        (1, (1.0,), (0.3,), None), (1, (0.3,), (0.0,), 12),
        (2, (1.0, 1.0), (0.0, 0.0), 41), (2, (0.9, 0.3), (0.7, 0.0), 61),
        (2, (1.0, 0.9), (0.0, 0.0), 62), (3, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), None),
        (3, (1.0, 1.0, 1.0), (0.4, 0.0, 0.0), None), (3, (0.9, 0.9, 0.0), (0.0, 0.5, 0.3), 95),
    ]
    return specs


def test_criterion_04_classification_cross_validation():
    specs = classification_specs()
    assert len(specs) == 50
    exps = [(2.0, 2.0), (1.0, 2.0), (2.0, 4.0), (0.5, 1.0)]
    failures = []
    for k, (n, sig, dr, rot) in enumerate(specs):
        p, q = exps[k % 4]
        phi = structured_map(n, sig, dr, rot)
        prob = WcoProblem(constant(n), phi, p, q)
        got = classify(prob)
        ref = composition_criterion(phi, p, q)
        nz = normalize(prob)
        if nz.rank_s == 0:
            finite, decays = True, max(r.values[-1] for r in compactness_witness(prob)) < 1e-3
        else:
            finite, decays = shell_oracle(ell_profile(nz, q))
        oracle_verdict = "unbounded" if not finite else ("compact" if decays else "bounded_not_compact")
        if not (got.verdict == ref.verdict == oracle_verdict):
            failures.append((k, n, sig, dr, (p, q), got.verdict, ref.verdict, oracle_verdict))
    ok = not failures
    assert announce(4, ok, f"50 maps, {50 - len(failures)}/50 verdicts agree with both references" + (f"; first disagreement: {failures[0]}" if failures else ""))


# -- 5: truncated operator norms sit inside the two-sided bound ----------------


def test_criterion_05_sandwich_containment():
    results = [r for r in run_suites(corpus_problems(), suite="sandwich") if not r.detail.startswith("skipped")]
    ok = bool(results) and all(r.passed for r in results) and len(results) >= 10
    bad = [r.name for r in results if not r.passed]
    assert announce(5, ok, f"{sum(r.passed for r in results)}/{len(results)} degree-12 truncations inside bounds" + (f"; failing: {bad}" if bad else ""))


# -- 6: kernel witnesses separate compact from non-compact ---------------------


def test_criterion_06_compactness_dichotomy():
    results = [r for r in run_suites(corpus_problems(), suite="witness") if not r.detail.startswith("skipped")]
    decayed = [r for r in results if r.detail.startswith("compact:")]
    persisted = [r for r in results if r.detail.startswith("not compact:")]
    ok = bool(decayed) and bool(persisted) and all(r.passed for r in results)
    assert announce(6, ok, f"{len(decayed)} compact problems decayed at |w|=8, {len(persisted)} non-compact rays persisted")


# -- 7: small-target range: bounded = compact = integrable ---------------------


def test_criterion_07_small_target_equivalence():
    sigs = [
        (1, (0.3,)), (1, (0.6,)), (1, (0.9,)), (1, (1.0,)), (1, (0.95,)),
        (2, (0.6, 0.3)), (2, (0.9, 0.9)), (2, (1.0, 0.5)), (2, (0.5, 0.0)), (2, (0.9, 0.0)),
        (3, (0.6, 0.3, 0.0)), (3, (0.9, 0.6, 0.3)), (3, (1.0, 0.6, 0.3)),
        (3, (0.3, 0.3, 0.3)), (3, (1.0, 1.0, 0.0)),
    ]
    qp = [(4.0, 2.0), (3.0, 1.5), (2.5, 2.0)]
    rng = np.random.default_rng(707)
    cases = []
    for rep in range(2):
        for j, (n, sig) in enumerate(sigs):
            p, q = qp[(j + rep) % len(qp)]
            rot = None if (j + rep) % 2 else int(700 + 10 * rep + j)
            V = unitary(n, rot) if rot is not None else np.eye(n, dtype=complex)
            U = unitary(n, rot + 1) if rot is not None else np.eye(n, dtype=complex)
            A = V @ np.diag(np.array(sig, dtype=complex)) @ U
            b = V @ (0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
            c = 0.4 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            cases.append(WcoProblem(kernel(c), AffineMap(A, b), p, q))
    assert len(cases) == 30
    failures = []
    quad_checks = 0
    for k, prob in enumerate(cases):
        nz = normalize(prob)
        rep_cf = fk.carleson_integral(nz, prob.p, prob.q)
        cls = classify(prob)
        bounded = cls.verdict != "unbounded"
        compact = cls.verdict == "compact"
        ok = rep_cf.member == bounded and bounded == compact
        if rep_cf.member and max(nz.diag[: nz.rank_s], default=0.0) <= 0.9:
            # tensor quadrature over C^3 needs a coarser grid to stay in memory
            nodes = None if nz.rank_s <= 2 else 12
            spec2 = fk.QuadSpec(nodes_per_axis=nodes, allow_closed_form=False)
            rep_q = fk.carleson_integral(nz, prob.p, prob.q, spec2)
            gap = abs(rep_cf.lr_norm.value - rep_q.lr_norm.value) / rep_cf.lr_norm.value
            ok = ok and gap <= 1e-6
            quad_checks += 1
        if not ok:
            failures.append(k)
    ok = not failures
    assert announce(7, ok, f"30 problems, equivalence holds on all, {quad_checks} closed-vs-quadrature matches" + (f"; failing indices {failures}" if failures else ""))


# -- 8: Galerkin essential-norm estimates inside the certified window -----------


def test_criterion_08_essential_norm_containment():
    shipped = dict(
        (lbl, prob)
        for lbl, prob in corpus_problems()
    )
    by_stem = {
        "identity map, unit exponent pair": "identity",
        "contractive map with drift": "contraction",
        "normalized kernel weight on a contraction": "kernel-weight",
        "plane rotation, unitary map": "rotation",
        "kernel weight balancing a unit-direction shift": "displacement",
    }
    cases = [(nick, shipped[lbl]) for lbl, nick in by_stem.items()]
    cases += [
        ("anisotropic-no-drift", WcoProblem(constant(2), AffineMap(np.diag([1.0, 0.5]), [0.0, 0.0]), 2.0, 2.0)),
        ("displacement-n2", WcoProblem(kernel([-0.6, 0.0]), AffineMap(np.eye(2), [0.6, 0.0]), 2.0, 2.0)),
        ("poly-small-a", WcoProblem(multiply(monomial(1, (1,)), kernel([0.3])), AffineMap([[0.4]], [0.1]), 2.0, 2.0)),
    ]
    tspec = fk.TruncationSpec(max_degree=14)
    failures = []
    for nick, prob in cases:
        nb = norm_bounds(prob)
        est = truncated_essential_upper(prob, tspec)
        lo = nb.essential_lower - 1e-3
        hi = nb.essential_upper + 1e-3
        if not (lo <= est <= hi):
            failures.append((nick, est, lo, hi))
    ok = not failures
    assert announce(8, ok, f"{len(cases) - len(failures)}/{len(cases)} Galerkin estimates inside the certified window" + (f"; {failures}" if failures else ""))


# -- 9: results do not depend on which factorization was computed --------------


def test_criterion_09_normalization_independence():
    degs = [
        (2, (0.6, 0.6)), (2, (1.0, 1.0)), (2, (0.4, 0.4)), (2, (0.9, 0.9)),
        (3, (0.9, 0.9, 0.3)), (3, (0.5, 0.5, 0.5)), (3, (1.0, 1.0, 0.4)), (3, (0.7, 0.7, 0.0)),
        (3, (0.6, 0.6, 0.6)), (3, (1.0, 1.0, 1.0)),
    ]
    rng = np.random.default_rng(909)
    problems = []
    for rep in range(2):
        for j, (n, sig) in enumerate(degs):
            p, q = [(2.0, 2.0), (2.0, 4.0), (4.0, 2.0), (1.5, 3.0)][(j + rep) % 4]
            seed = 900 + 10 * rep + j
            V, U = unitary(n, seed), unitary(n, seed + 1)
            A = V @ np.diag(np.array(sig, dtype=complex)) @ U
            b = V @ (0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
            c = 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
            problems.append((f"degenerate-{rep}-{j}", WcoProblem(kernel(c), AffineMap(A, b), p, q)))
    assert len(problems) == 20
    results = suite_normalization(problems, seed=3)
    fails = [r.name for r in results if not r.passed]
    ok = not fails and len(results) == 20
    assert announce(9, ok, f"{len(results) - len(fails)}/20 degenerate factorizations agree to 1e-8" + (f"; failing: {fails}" if fails else ""))


# -- 10: the verifier is deterministic ------------------------------------------


def test_criterion_10_verify_determinism():
    cmd = [sys.executable, "-m", "fockop.cli", "verify", str(CORPUS_DIR)]
    first = subprocess.run(cmd, capture_output=True, text=True)
    second = subprocess.run(cmd, capture_output=True, text=True)
    identical = first.stdout == second.stdout
    clean = first.returncode == 0 and second.returncode == 0
    doc = json.loads(first.stdout) if identical and clean else {}
    ok = identical and clean and doc.get("failed") == 0
    assert announce(10, ok, f"two verify runs byte-identical ({len(first.stdout)} bytes), {doc.get('passed', '?')} properties passed")
