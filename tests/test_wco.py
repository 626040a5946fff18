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

from fockop import cli
from fockop.errors import DomainError, UnsupportedExponentsError
from fockop.funcspace import AffineMap, ExpPoly, Term, constant, kernel, monomial
from fockop.linalg import is_unitary
from fockop import quad, wco
from fockop.quad import QuadSpec, slice_norm
from fockop.wco import (
    WcoProblem,
    alternative_normalization,
    analyze,
    classify,
    ell_at,
    ell_at_many,
    ell_limsup,
    ell_profile,
    ell_sup,
    essential_norm_bounds,
    norm_bounds,
    normalize,
)

from helpers import TWO_FREQUENCIES_N2, composition_criterion, corpus_path, m_at


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


def _rotated_map(sigma, seed):
    """U^H diag(sigma) U + b for the unitary factor U of a seeded complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    n = len(sigma)
    U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    return AffineMap(U.conj().T @ np.diag(sigma) @ U, [0.1, -0.2j, 0.3][: len(sigma)])


#: (psi, map, spec) whose ell needs slice norms: a rank < n map with tail monomials or several frequencies
FALLBACK_CASES = {
    "n2-rank1": (ExpPoly(2, (Term(1.0, (1, 1), (0.3, 0.2j)),)), _rotated_map([0.55, 0.0], 3), QuadSpec()),
    "n3-rank2": (ExpPoly(3, (Term(1.0, (1, 1, 0), (0.3, 0.2j, 0.1)),)), _rotated_map([0.6, 0.5, 0.0], 7), QuadSpec()),
    "n3-rank1": (
        ExpPoly(3, (Term(1.0, (0, 0, 0), (0.3, 0.2j, 0.1)), Term(0.5, (1, 0, 1), (-0.2, 0.1, 0.0)))),
        AffineMap(np.diag([0.6, 0.0, 0.0]), [0.1, 0.2, 0.0]),
        QuadSpec(nodes_per_axis=12),
    ),
    # (1 + z1) z2 + 0.5 z2^2 e^{<z, FREQ>}: the two z2 tails merge into one term beside z2^2
    "merged-tails": (
        ExpPoly(2, (Term(1.0, (0, 1), FREQ), Term(1.0, (1, 1), FREQ), Term(0.5, (0, 2), FREQ))),
        AffineMap(np.diag([0.7, 0.0]), [0.1, 0.2j]),
        QuadSpec(),
    ),
    # (1 - 0.4 z1^2) z2 e^{<z, FREQ>}: every tail is z2, one term per point
    "one-tail": (
        ExpPoly(2, (Term(1.0, (0, 1), FREQ), Term(-0.4, (2, 1), FREQ))),
        AffineMap(np.diag([0.7, 0.0]), [0.1, 0.2j]),
        QuadSpec(),
    ),
}


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_batched_slice_norms_match_per_point_slice_norms(case, q):
    """ell_at_many's one batched call against exp((|phi_t(z)|^2 - |z|^2)/2) quad.slice_norm(psi_t, q, z) per point."""
    psi, phi, spec = FALLBACK_CASES[case]
    nz = normalize(WcoProblem(psi, phi, 2.0, q))
    pf = ell_profile(nz, q)
    assert pf.separable is None
    s = pf.s
    rng = np.random.default_rng(5)
    heads = rng.normal(size=(6, s)) + 1j * rng.normal(size=(6, s))
    heads[0] = 0.0  # every term with a head power vanishes
    heads[1, -1] = 0.0
    got = ell_at_many(pf, heads, spec)
    for z, value in zip(heads, got):
        img = np.abs(nz.diag[:s] * z + nz.b_t[:s]) ** 2
        scale = math.exp((np.sum(img) + np.sum(np.abs(nz.b_t[s:]) ** 2) - np.sum(np.abs(z) ** 2)) / 2.0)
        ref = slice_norm(nz.psi_t, q, z, spec)
        if q == 2.0 or ref.mode == "closed_form":
            assert value == pytest.approx(scale * ref.value, rel=1e-12)
        else:
            assert abs(value - scale * ref.value) <= scale * ref.err_estimate
    if case.endswith("tails") or case == "one-tail":
        members, _, _ = quad._tail_groups(nz.psi_t, s)
        assert len(members) < len(nz.psi_t.terms)


def _brute_force_ell_max(profile, radius, g, rounds):
    """Max of ell on a g^(2s) grid over [-radius, radius]^(2s), then ``rounds - 1`` times on a finer
    g^(2s) grid spanning two cells around the best point so far."""
    s = profile.s
    center, half = np.zeros(2 * s), radius
    for _ in range(rounds):
        axes = [np.linspace(c - half, c + half, g) for c in center]
        pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
        vals = ell_at_many(profile, pts[:, :s] + 1j * pts[:, s:])
        best = int(np.argmax(vals))
        center, half = pts[best], 2.0 * half / (g - 1)
    return float(vals[best])


def _two_frequencies_rank2():
    terms = (Term(1.0, (0, 0), (0.5, 0.3j)), Term(0.7j, (0, 0), (-0.2, 0.6)))
    return WcoProblem(ExpPoly(2, terms), _rotated_map([0.6, 0.45], 11), 2.0, 2.0)


def _two_frames(seed, weight, p, q, rotate_weight=True):
    """The shape of the benchmark's generated n = 2 numeric problems, restated: A = V diag(0.6, 0.45) U and
    b = V b_t with |b_t| = (0.25, 0.25) for seeded unitaries V and U (U = I without ``rotate_weight``), and
    ``weight`` terms (coeff, power, f_t) whose frequencies become U^* f_t."""
    rng = np.random.default_rng(seed)
    unitary = lambda: np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]  # noqa: E731
    V = unitary()
    U = unitary() if rotate_weight else np.eye(2)
    b_t = 0.25 * np.exp(2j * np.pi * rng.random(2))
    terms = tuple(Term(coeff, power, tuple(U.conj().T @ np.array(f_t))) for coeff, power, f_t in weight)
    return WcoProblem(ExpPoly(2, terms), AffineMap(V @ np.diag([0.6, 0.45]) @ U, V @ b_t), p, q)


#: corpus 14 and problems shaped like each numeric family of the benchmark's analyze workload
SUP_CASES = {
    "corpus-14": lambda: cli.load_problem(corpus_path("14_two_frequencies")).problem,
    "multi-frequency": _two_frequencies_rank2,
    "tail-monomial": lambda: WcoProblem(*FALLBACK_CASES["n2-rank1"][:2], 2.0, 2.0),
    "small-target-numeric": lambda: WcoProblem(
        ExpPoly(2, (Term(1.0, (0, 0), (0.3j, -0.3)), Term(0.5j, (1, 0), (0.3j, -0.3)))),
        AffineMap(np.diag([0.6, 0.45]), [0.2, -0.1j]),
        4.0,
        2.0,
    ),
    # two weight frequencies in a frame of their own and a drift: two free head coordinates
    "multi-frequency-two-frames": lambda: _two_frames(
        20, [(0.3 + 0.95j, (0, 0), (0.4 + 0.3j, -0.3j)), (-0.7j, (0, 0), (-0.2, 0.36 - 0.48j))], 2.0, 2.0
    ),
    # (c0 + c1 z1) e^{<z, f>} with q < p, rotated by V alone: certified, the sup by the numeric search
    "small-target-numeric-rotated": lambda: _two_frames(
        21,
        [(0.8 - 0.6j, (0, 0), (0.18 + 0.24j, -0.3j)), (0.5j, (1, 0), (0.18 + 0.24j, -0.3j))],
        4.0,
        2.0,
        rotate_weight=False,
    ),
}


def _diagonal(psi, diag):
    return WcoProblem(psi, AffineMap(np.diag(diag), np.zeros(len(diag))), 2.0, 2.0)


#: problems whose numeric sup of ell the brute-force search checks: two frequencies on a diagonal map (no
#: certificate, so the grid search and its refinement run over radius 10), and the ``SUP_CASES``
BRUTE_FORCE_CASES = {
    "s1": lambda: _diagonal(kernel([0.0]) + kernel([1.0]), [0.5]),  # corpus 14
    "s2": lambda: _diagonal(kernel([0.6, -0.4j]) + kernel([-0.3, 0.5]), [0.7, 0.5]),
    # a 2-D head on which a local optimizer started at the best grid node stalls below the maximum
    "s2-stalling-head": lambda: _diagonal(
        kernel([-0.1 + 0.7j, 0.1 + 0.5j]) - 0.9 * kernel([-0.4 + 0.6j, 0.2 - 0.6j]), [0.69, 0.46]
    ),
    **SUP_CASES,
}


@pytest.mark.parametrize("case", list(BRUTE_FORCE_CASES))
def test_numeric_ell_sup_matches_brute_force(case):
    problem = BRUTE_FORCE_CASES[case]()
    pf = ell_profile(normalize(problem), problem.q)
    assert pf.mode == "numeric_evidence" or case in SUP_CASES
    r = ell_sup(pf)
    g, rounds = (401, 2) if pf.s == 1 else (31, 4)
    want = _brute_force_ell_max(pf, 10.0, g, rounds)
    assert r.mode == "quadrature"
    assert want - 1e-12 <= r.value <= want * (1.0 + 1e-6)
    assert r.err_estimate >= 0.0


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


# -- the row bound of the numeric sup ---------------------------------------------


def _separable_case(seed, s, kind):
    """A seeded profile on C^s whose ell is separable: ``single`` one term (certified, g = 1), ``head`` a
    polynomial times one frequency (certified, g the polynomial), ``frequencies`` three terms with their own
    frequencies and powers under a full-rank map (numeric evidence, g = psi_t)."""
    rng = np.random.default_rng(seed)
    cplx = lambda *shape: rng.normal(size=shape) + 1j * rng.normal(size=shape)  # noqa: E731
    sigma = np.sort(rng.uniform(0.3, 0.8, s))[::-1]
    if kind == "frequencies":
        V, U = np.linalg.qr(cplx(s, s))[0], np.linalg.qr(cplx(s, s))[0]
        A, b = V @ np.diag(sigma) @ U, 0.3 * cplx(s)
        terms = [
            Term(complex(*rng.normal(size=2)), tuple(rng.integers(0, 3, s)), tuple(0.4 * cplx(s))) for _ in range(3)
        ]
    else:
        A, b, f = np.diag(sigma), 0.3 * cplx(s), tuple(0.4 * cplx(s))
        count = 1 if kind == "single" else 3
        terms = [Term(complex(*rng.normal(size=2)), tuple(rng.integers(0, 3, s)), f) for _ in range(count)]
    profile = ell_profile(normalize(WcoProblem(ExpPoly(s, tuple(terms)), AffineMap(A, b), 2.0, 2.0)), 2.0)
    assert profile.separable is not None and (profile.separable.g is None) == (kind == "single")
    assert profile.mode == ("numeric_evidence" if kind == "frequencies" else "certified")
    return profile


ROW_BOUND_CASES = [(seed, s, kind) for s in (2, 3) for kind in ("single", "head", "frequencies") for seed in (1, 2)]


def _start_grid(profile, radius):
    """The axes of ``wco._numeric_sup``'s start grid over radius ``radius`` on every coordinate."""
    line = np.linspace(-radius, radius, wco._SUP_GRID.get(profile.s, 7))
    return [quad.plane_axis(line, line)] * profile.s


@pytest.mark.parametrize("seed,s,kind", ROW_BOUND_CASES)
def test_row_bound_is_at_least_every_ell_value_of_its_row(seed, s, kind):
    profile = _separable_case(seed, s, kind)
    for radius in (3.0, 10.0):
        axes = _start_grid(profile, radius)
        bound = wco._row_bound(profile, axes)
        blocks = wco._ell_blocks(profile, axes, QuadSpec())
        rows = np.concatenate([ell.reshape(len(ell), -1).max(axis=1) for _, ell in blocks])
        assert np.isfinite(bound).all() and rows.max() > 0
        # rounding apart, far below the margin the row skip allows
        assert (rows <= bound * (1.0 + 1e-12)).all()
        assert 1e-12 < quad._BOUND_MARGIN - 1.0


@pytest.mark.parametrize("seed,s,kind", ROW_BOUND_CASES)
def test_the_row_bound_changes_no_sup(seed, s, kind):
    """With and without the bound: the same largest value, best node, shell maximum from 0.5 on, sup and gain."""
    profile = _separable_case(seed, s, kind)
    for radius in (3.0, 10.0):
        axes = _start_grid(profile, radius)
        bound = wco._row_bound(profile, axes)
        blocks = lambda ax: wco._ell_blocks(profile, ax, QuadSpec())  # noqa: E731
        shell = 0.8 * radius * math.sqrt(2 * s)
        whole, skipped = quad._start_max(blocks, axes, shell, None), quad._start_max(blocks, axes, shell, bound)
        assert skipped[:2] == whole[:2]
        assert skipped[2] <= whole[2] and (skipped[2] >= 0.5 * whole[0]) == (whole[2] >= 0.5 * whole[0])
        if whole[2] >= 0.5 * whole[0]:
            assert skipped[2] == whole[2]
        value, err, edge = quad.tensor_sup(blocks, axes, list(range(s)), 2)
        assert quad.tensor_sup(blocks, axes, list(range(s)), 2, bound)[:2] == (value, err)
        assert (quad.tensor_sup(blocks, axes, list(range(s)), 2, bound)[2] >= 0.5) == (edge >= 0.5)


def test_the_start_grid_of_two_frequencies_reads_few_points(monkeypatch):
    """The row bound leaves at most 5% of the 15^4 start grid of a two-frequency problem on C^2 to evaluate."""
    profile = analyze(cli.parse_problem(TWO_FREQUENCIES_N2).problem).profile
    start_max, read = quad._start_max, []

    def counted(blocks, axes, shell, row_bound):
        def counting(ax):
            read.append(math.prod(len(z) for z in ax))
            return blocks(ax)

        return start_max(counting, axes, shell, row_bound)

    monkeypatch.setattr(quad, "_start_max", counted)
    value = ell_sup(profile).value
    assert 0 < sum(read) <= 0.05 * 15**4 and len(read) <= 3
    monkeypatch.setattr(wco, "_row_bound", lambda profile, axes: None)
    read.clear()
    assert ell_sup(profile).value == value and read == [15**4]
