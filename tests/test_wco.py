"""Normalization, the per-coordinate growth profile and the decision rules.

Hand-checked reference values:

* diag(1, 1/2) with drift (0, 1) and unit weight: the profile constant is
  e^{1/4·2} = e^{1/2}, the contracting coordinate contributes
  sup e^{-3/8|z|^2 + Re(z/2)} = e^{1/6}, so sup ell = limsup ell = e^{2/3},
  and the head determinant 1/2 doubles the upper bound.
* contraction a=1/2, b=3/10, unit weight: sup ell = e^{9/200} * e^{3/200}
  = e^{0.06}.
"""
import math

import numpy as np
import pytest

from fockop.errors import DomainError, UnsupportedExponentsError
from fockop.funcspace import AffineMap, ExpPoly, Term, constant, kernel, monomial
from fockop.linalg import is_unitary
from fockop.quad import slice_norm
from fockop.wco import (
    WcoProblem,
    alternative_normalization,
    classify,
    ell_at,
    ell_limsup,
    ell_profile,
    ell_sup,
    essential_norm_bounds,
    norm_bounds,
    normalize,
)

from helpers import composition_criterion, m_at


def problem_07():
    return WcoProblem(constant(2), AffineMap(np.diag([1.0, 0.5]), [0.0, 1.0]), 2.0, 2.0)


def random_problem(seed, n=2, scale=0.4):
    rng = np.random.default_rng(seed)
    A = scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    b = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    psi = kernel(0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n)))
    return WcoProblem(psi, AffineMap(A, b), 2.0, 2.0)


# -- normalization ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_normalize_reconstructs_map(seed):
    prob = random_problem(seed)
    nz = normalize(prob)
    np.testing.assert_allclose(nz.V @ np.diag(nz.diag) @ nz.U, prob.phi.A, atol=1e-12)
    assert is_unitary(nz.V) and is_unitary(nz.U)
    np.testing.assert_allclose(nz.b_t, nz.V.conj().T @ np.asarray(prob.phi.b, dtype=complex), atol=1e-12)


@pytest.mark.parametrize("seed", [4, 5, 6])
def test_normalized_distortion_is_rotated_original(seed):
    """m after normalization is the original m precomposed with U^H."""
    prob = random_problem(seed)
    nz = normalize(prob)
    rng = np.random.default_rng(100 + seed)
    for _ in range(8):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        lhs = m_at(nz.psi_t, nz.phi_t, z)
        rhs = m_at(prob.psi, prob.phi, nz.U.conj().T @ z)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_alternative_normalization_is_valid_factorization():
    prob = random_problem(7)
    nz = normalize(prob)
    alt = alternative_normalization(nz, seed=2)
    np.testing.assert_allclose(alt.V @ np.diag(alt.diag) @ alt.U, prob.phi.A, atol=1e-11)
    np.testing.assert_allclose(alt.diag, nz.diag, atol=1e-12)


# -- the growth profile -------------------------------------------------------


def test_profile_worked_example():
    nz = normalize(problem_07())
    pf = ell_profile(nz, 2.0)
    assert pf.mode == "certified"
    assert pf.exact_factor
    assert pf.a == (1.0, 0.5)
    assert pf.deg == (0, 0)
    assert pf.w[0] == 0.0
    assert pf.w[1] == pytest.approx(0.5)
    assert pf.constant_factor == pytest.approx(math.exp(0.5), rel=1e-12)
    assert ell_sup(pf).value == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)
    assert ell_limsup(pf).value == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)


def test_profile_limsup_zero_when_all_contracting():
    prob = WcoProblem(constant(1), AffineMap([[0.5]], [0.3]), 2.0, 2.0)
    pf = ell_profile(normalize(prob), 2.0)
    assert ell_sup(pf).value == pytest.approx(math.exp(0.06), rel=1e-12)
    assert ell_limsup(pf).value == 0.0


def test_closed_form_sup_matches_grid_max_1d():
    prob = WcoProblem(kernel([0.4]) , AffineMap([[0.7]], [0.2]), 2.0, 2.0)
    pf = ell_profile(normalize(prob), 2.0)
    xs = np.linspace(-4, 4, 281)
    grid = (xs[:, None] + 1j * xs[None, :]).ravel().reshape(-1, 1)
    vals = [ell_at(pf, g) for g in grid]
    assert ell_sup(pf).value == pytest.approx(max(vals), rel=1e-4)
    assert ell_sup(pf).value >= max(vals) - 1e-12


FREQ = (0.3 - 0.1j, -0.2j)

#: (psi, diag(A), single term) for each separable form of ell
SEPARABLE_CASES = [
    # one term: ell factors exactly
    (kernel([0.2, -0.1]), [0.8, 0.6], True),
    # certified multi-term at full rank
    (ExpPoly(2, (Term(1.0, (0, 0), FREQ), Term(0.5j, (1, 1), FREQ))), [0.8, 0.6], False),
    # one common frequency, head monomials only, rank 1 < n
    (ExpPoly(2, (Term(1.0, (0, 0), FREQ), Term(-0.4, (2, 0), FREQ))), [0.7, 0.0], False),
    # two frequencies at full rank
    (kernel([0.3, -0.2]) + kernel([-0.4j, 0.1]), [0.8, 0.6], False),
]


def test_full_rank_profile_equals_distortion_pointwise():
    """ell(z) = exp((|phi_t(z)|^2 - |z|^2)/2) ||psi_t(z, .)||_q for each separable form of ell."""
    rng = np.random.default_rng(2)
    for psi, diag, exact in SEPARABLE_CASES:
        nz = normalize(WcoProblem(psi, AffineMap(np.diag(diag), [0.1, 0.2j]), 2.0, 3.0))
        pf = ell_profile(nz, 3.0)
        assert pf.separable is not None and pf.exact_factor == exact
        s = pf.s
        for _ in range(10):
            z = np.zeros(2, dtype=complex)
            z[:s] = rng.normal(size=s) + 1j * rng.normal(size=s)
            img = nz.phi_t.apply(z)
            slice_q = slice_norm(nz.psi_t, 3.0, z[:s]).value
            want = math.exp((np.sum(np.abs(img) ** 2) - np.sum(np.abs(z) ** 2)) / 2.0) * slice_q
            assert ell_at(pf, z[:s]) == pytest.approx(want, rel=1e-11)


# -- classification -----------------------------------------------------------


@pytest.mark.parametrize(
    "A,b,p,q,verdict",
    [
        ([[1.0]], [0.0], 2, 2, "bounded_not_compact"),
        ([[0.5]], [0.3], 2, 2, "compact"),
        ([[2.0]], [0.0], 2, 2, "unbounded"),
        ([[1.0]], [0.7], 2, 2, "unbounded"),
        ([[1.0]], [0.0], 4, 2, "unbounded"),
        ([[0.5]], [0.0], 4, 2, "compact"),
        ([[0.0]], [0.9], 2, 2, "compact"),
        ([[1.0]], [0.0], 2, 4, "bounded_not_compact"),
    ],
)
def test_classify_table(A, b, p, q, verdict):
    cls = classify(WcoProblem(constant(len(b)), AffineMap(A, b), p, q))
    assert cls.verdict == verdict
    assert cls.mode == "certified"
    assert cls.certificate


def test_classify_agrees_with_unweighted_criterion():
    maps = [
        AffineMap([[1.0]], [0.0]),
        AffineMap([[0.6]], [0.4]),
        AffineMap(np.diag([1.0, 0.5]), [0.0, 1.0]),
        AffineMap(np.diag([1.0, 1.0]), [0.2, 0.0]),
        AffineMap(np.diag([0.3, 0.0]), [0.0, 0.8]),
    ]
    for phi in maps:
        for p, q in [(2, 2), (1, 3), (4, 2)]:
            n = phi.A.shape[0]
            via_weight = classify(WcoProblem(constant(n), phi, p, q))
            direct = composition_criterion(phi, p, q)
            assert via_weight.verdict == direct.verdict, (phi, p, q)


def test_expanding_certificate_names_the_norm():
    cls = classify(WcoProblem(constant(1), AffineMap([[2.0]], [0.0]), 2, 2))
    assert "spectral norm 2 > 1" in cls.certificate


def test_two_frequency_weight_falls_back_to_numeric():
    psi = constant(1) + kernel([1.0])
    cls = classify(WcoProblem(psi, AffineMap([[0.5]], [0.0]), 2, 2))
    assert cls.mode == "numeric_evidence"
    assert cls.verdict == "compact"


# -- norm and essential-norm bounds -------------------------------------------


def test_bounds_worked_example_diag_half():
    nb = norm_bounds(problem_07())
    assert nb.lower == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)
    # head determinant 1/2 -> factor |det|^{-2/q} = 2 at p=q=2
    assert nb.upper == pytest.approx(2.0 * math.exp(2.0 / 3.0), rel=1e-12)
    assert nb.essential_lower == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)
    assert nb.essential_upper == pytest.approx(4.0 * math.exp(2.0 / 3.0), rel=1e-12)


def test_bounds_compact_contraction():
    prob = WcoProblem(constant(1), AffineMap([[0.5]], [0.3]), 2.0, 2.0)
    nb = norm_bounds(prob)
    assert nb.lower == pytest.approx(math.exp(0.06), rel=1e-12)
    assert nb.upper == pytest.approx(2.0 * math.exp(0.06), rel=1e-12)
    assert nb.essential_lower == 0.0 and nb.essential_upper == 0.0


def test_bounds_rank_zero_exact():
    b = [0.5]
    psi = kernel([0.4 + 0.2j])
    prob = WcoProblem(psi, AffineMap([[0.0]], b), 2.0, 2.0)
    nb = norm_bounds(prob)
    exact = math.exp(0.125) * math.exp(abs(0.4 + 0.2j) ** 2 / 2.0)
    assert nb.lower == pytest.approx(exact, rel=1e-12)
    assert nb.upper == pytest.approx(exact, rel=1e-12)


def test_unbounded_problem_rejects_norm_bounds():
    with pytest.raises(DomainError):
        norm_bounds(WcoProblem(constant(1), AffineMap([[2.0]], [0.0]), 2, 2))


def test_inclusion_factor_appears_for_p_below_q():
    prob = WcoProblem(constant(2), AffineMap(np.diag([1.0, 0.5]), [0.0, 1.0]), 2.0, 4.0)
    nb = norm_bounds(prob)
    factor = abs(0.5) ** (-2.0 / 4.0) * (4.0 / 2.0) ** (2.0 / 4.0)
    assert nb.lower == pytest.approx(math.exp(2.0 / 3.0), rel=1e-12)
    assert nb.upper == pytest.approx(factor * math.exp(2.0 / 3.0), rel=1e-12)


def test_essential_norm_exponent_guard():
    ok = WcoProblem(constant(1), AffineMap([[0.5]], [0.0]), 2.0, 2.0)
    assert essential_norm_bounds(ok).essential_upper == 0.0
    for p, q in [(4.0, 2.0), (1.0, 2.0), (0.5, 0.5)]:
        bad = WcoProblem(constant(1), AffineMap([[0.5]], [0.0]), p, q)
        with pytest.raises(UnsupportedExponentsError):
            essential_norm_bounds(bad)


def test_essential_bounds_sandwich_ratio():
    nb = essential_norm_bounds(problem_07())
    assert nb.essential_upper == pytest.approx(4.0 * nb.essential_lower, rel=1e-12)
