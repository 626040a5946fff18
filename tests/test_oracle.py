import math

import mpmath
import numpy as np
import pytest
import scipy.special
from scipy.special import gammainc

import fockop as fk
from fockop import cli, funcspace, oracle, quad
from fockop.funcspace import AffineMap, ExpPoly
from fockop.oracle import (
    basis_indices,
    compactness_witness,
    f2_inner,
    f2_matrix,
    rayleigh_sweep,
    truncated_essential_upper,
    truncated_norm,
)

from helpers import corpus_path


def cop(a, b=0.0, p=2.0, q=2.0):
    return fk.WcoProblem(fk.constant(1), AffineMap([[a]], [b]), p, q)


def test_basis_is_graded():
    idx = basis_indices(2, 2)
    assert idx == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(basis_indices(3, 4)) == math.comb(4 + 3, 3)


def test_monomials_orthonormal_after_scaling():
    e = lambda k: fk.monomial(1, (k,), coeff=1.0 / math.sqrt(math.factorial(k)))
    for j in range(4):
        for k in range(4):
            want = 1.0 if j == k else 0.0
            assert f2_inner(e(j), e(k)) == pytest.approx(want, abs=1e-12)
    assert math.sqrt(f2_inner(e(3), e(3)).real) == pytest.approx(1.0, rel=1e-12)


def test_matrix_of_identity_operator():
    M = f2_matrix(cop(1.0), fk.TruncationSpec(max_degree=5))
    assert np.allclose(M, np.eye(6))
    assert truncated_norm(M) == pytest.approx(1.0)


def test_matrix_of_pure_contraction_is_diagonal_powers():
    M = f2_matrix(cop(0.5), fk.TruncationSpec(max_degree=6))
    assert np.allclose(M, np.diag(0.5 ** np.arange(7)))


def test_matrix_of_rank_zero_map():
    # psi = K_c, phi = const b: one nonzero row pattern, norm e^{(|b|^2+|c|^2)/2}
    c, b = 0.4, 0.5
    prob = fk.WcoProblem(fk.kernel([c]), AffineMap([[0.0]], [b]), 2.0, 2.0)
    exact = math.exp((b * b + c * c) / 2.0)
    vals = [truncated_norm(f2_matrix(prob, fk.TruncationSpec(max_degree=N))) for N in (6, 10, 14)]
    assert vals[-1] == pytest.approx(exact, rel=1e-8)
    assert vals[0] <= vals[1] <= vals[2] + 1e-15


def test_truncated_norm_monotone_and_below_upper():
    prob = cop(0.5, 0.3)
    upper = fk.norm_bounds(prob).upper
    prev = 0.0
    for N in (2, 4, 8, 12):
        v = truncated_norm(f2_matrix(prob, fk.TruncationSpec(max_degree=N)))
        assert v >= prev - 1e-12
        assert v <= upper + 1e-6 * (1.0 + upper)
        prev = v
    # converges to the sharp lower bound from below in this diagonal case
    assert prev == pytest.approx(fk.norm_bounds(prob).lower, rel=1e-10)


def test_essential_upper_is_exact_tail_power_for_diagonal_contraction():
    for N in (4, 6, 8):
        eu = truncated_essential_upper(cop(0.5), fk.TruncationSpec(max_degree=N))
        assert eu == pytest.approx(0.5 ** (N + 1), rel=1e-6)


def test_essential_upper_stays_at_one_for_identity():
    # the r = 1 kernel-tail probe has ||(I - P_10) k_w|| = 1.0e-4, so a numerator
    # at its cancellation floor would show here if it were not discounted
    eu = truncated_essential_upper(cop(1.0), fk.TruncationSpec(max_degree=10))
    assert abs(eu - 1.0) <= 1e-12


def test_kernel_tail_denominators_match_high_precision(monkeypatch):
    # each probe divides by sqrt(P(N + 1, |w|^2)); read the P values the oracle takes
    calls = []

    def recording(a, x):
        value = gammainc(a, x)
        calls.append((a, x, float(value)))
        return value

    monkeypatch.setattr(scipy.special, "gammainc", recording)
    truncated_essential_upper(cop(0.5, 0.3), fk.TruncationSpec(max_degree=6))
    assert len(calls) == 4 * 9  # four radii, nine probe directions in C^1
    for a, x, value in calls:
        want = float(mpmath.gammainc(a, 0, x, regularized=True))
        assert value == pytest.approx(want, rel=1e-13)


def test_sweep_on_identity_all_unit_quotients():
    res = rayleigh_sweep(cop(1.0))
    assert res.best == pytest.approx(1.0, abs=1e-9)
    assert len(res.records) > 10
    assert all(r.quotient <= 1.0 + 1e-9 for r in res.records)
    assert all(r.label for r in res.records)


def test_sweep_respects_certified_upper_bound():
    for seed, a, b in [(0, 0.5, 0.3), (1, 0.8, 0.1), (2, 0.0, 0.9)]:
        prob = fk.WcoProblem(fk.kernel([0.2]), AffineMap([[a]], [b]), 2.0, 2.0)
        nb = fk.norm_bounds(prob)
        res = rayleigh_sweep(prob)
        assert res.best <= nb.upper * (1.0 + 1e-9)
        # the sweep includes the optimizing kernel family, so it is not far off
        assert res.best >= 0.5 * nb.lower


def test_witness_rays_decay_for_compact_map():
    rays = compactness_witness(cop(0.5, 0.2))
    assert rays
    for ray in rays:
        assert ray.radii[-1] == 8.0
        assert ray.values[-1] < 1e-3
        assert len(ray.values) == len(ray.radii)


def test_witness_rays_persist_for_identity():
    rays = compactness_witness(cop(1.0))
    assert any(min(ray.values) > 0.5 for ray in rays)


def _kernel_tail_symbol(w, N):
    """(I - P_N) k_w term by term: k_w minus its Taylor cut, 1 + |basis| terms."""
    n = len(w)
    scale = math.exp(-0.5 * float(np.sum(np.abs(w) ** 2)))
    terms = [fk.Term(scale + 0j, (0,) * n, tuple(w))]
    for alpha in basis_indices(n, N):
        c = scale * math.prod(complex(x).conjugate() ** a for x, a in zip(w, alpha))
        c /= math.prod(math.factorial(a) for a in alpha)
        terms.append(fk.Term(-c, tuple(alpha), (0j,) * n))
    return fk.ExpPoly(n, tuple(terms))


@pytest.mark.parametrize("N", [4, 12])
@pytest.mark.parametrize("radius", [2.0, 4.0, 8.0])
def test_kernel_tail_norm_is_regularized_incomplete_gamma(N, radius):
    # ||(I - P_N) k_w||^2 = P(N + 1, |w|^2): the closed form the essential
    # estimate divides by, against the Gram kernel on the 1 + |basis| term symbol
    w = radius * np.array([0.6, 0.8j])
    tail = _kernel_tail_symbol(w, N)
    exact = gammainc(N + 1, radius**2)
    assert f2_inner(tail, tail).real == pytest.approx(exact, rel=1e-10)
    # the sum cancels; the closed-form norm's rounding bound covers what is lost
    res = quad.fock_norm(tail, 2.0)
    assert res.mode == "closed_form" and res.err_estimate > 0.0
    assert abs(res.value - math.sqrt(exact)) <= res.err_estimate


def _seeded_map(rng, n, rank, drift):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    U, _, Vh = np.linalg.svd(A)
    sigma = np.zeros(n)
    sigma[:rank] = rng.uniform(0.3, 1.0, size=rank)
    b = drift * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return AffineMap(U @ np.diag(sigma) @ Vh, b)


def _seeded_symbol(rng, n, terms, max_power):
    return fk.ExpPoly(n, tuple(
        fk.Term(
            complex(rng.normal(), rng.normal()),
            tuple(int(k) for k in rng.integers(0, max_power + 1, size=n)),
            tuple(0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))),
        )
        for _ in range(terms)
    ))


@pytest.mark.parametrize("n, max_degree", [(1, 9), (2, 5), (3, 3)])
@pytest.mark.parametrize("drift", [0.0, 0.5])
def test_matrix_block_matches_symbol_algebra_columns(n, max_degree, drift):
    # every entry against <W e_alpha, e_beta> from apply_wco and the exact inner product
    rng = np.random.default_rng(10 * n + int(10 * drift))
    idx = basis_indices(n, max_degree)
    root = [math.sqrt(math.prod(math.factorial(k) for k in a)) for a in idx]
    for rank in range(n + 1):
        phi = _seeded_map(rng, n, rank, drift)
        # two terms with frequencies, one polynomial term without
        polynomial = fk.monomial(n, tuple(int(k) for k in rng.integers(0, 3, size=n)), complex(rng.normal(), 1.0))
        psi = _seeded_symbol(rng, n, 2, max_power=2) + polynomial
        problem = fk.WcoProblem(psi, phi, 2.0, 2.0)
        M = f2_matrix(problem, fk.TruncationSpec(max_degree=max_degree))
        want = np.array([
            [
                quad.f2_inner(fk.apply_wco(psi, phi, fk.monomial(n, alpha)), fk.monomial(n, beta)) / (ra * rb)
                for alpha, ra in zip(idx, root)
            ]
            for beta, rb in zip(idx, root)
        ])
        assert np.abs(M - want).max() <= 1e-12 * np.abs(want).max()
        # the high-degree block is the same columns
        high = oracle._matrix_block(problem, max_degree, 2)
        assert np.allclose(high, M[:, math.comb(n + 1, n):], rtol=0.0, atol=1e-14 * np.abs(M).max())


@pytest.mark.parametrize(
    "n, rank, drift, psi_terms",
    [(1, 1, 0.0, 1), (1, 1, 0.4, 2), (1, 0, 0.7, 2), (2, 2, 0.3, 3), (2, 1, 0.5, 2), (3, 2, 0.4, 3), (3, 3, 0.0, 2)],
)
def test_kernel_tail_image_matches_symbol_algebra(n, rank, drift, psi_terms):
    # each probe's batched Gram form against psi * ((I - P_N) k_w o phi) expanded term by term
    rng = np.random.default_rng(100 * n + 10 * rank + psi_terms)
    phi = _seeded_map(rng, n, rank, drift)
    psi = _seeded_symbol(rng, n, psi_terms, max_power=1)
    problem = fk.WcoProblem(psi, phi, 2.0, 2.0)
    N = 6
    points, quotients, floors = oracle._kernel_tail_quotients(problem, N)
    assert len(points) == len(oracle._KERNEL_RADII) * (n + 8)
    for w, q, floor in zip(points, quotients, floors):
        denom = math.sqrt(gammainc(N + 1, float(np.sum(np.abs(w) ** 2))))
        ref = quad.fock_norm(fk.apply_wco(psi, phi, _kernel_tail_symbol(w, N)), 2.0)
        assert abs(q - ref.value / denom) <= 2.0 * floor + ref.err_estimate / denom + 1e-12 * q


def _tail_quotient_mp(a, b, w, N):
    """||W (I - P_N) k_w|| / ||(I - P_N) k_w|| for W f = f(a z + b) on C^1, to 50 digits.

    The image s sum_{k > N} conj(w)^k (a z + b)^k / k! has z^m coefficient
    s (a conj(w))^m / m! times sum_{j >= max(N + 1 - m, 0)} beta^j / j!, with
    beta = b conj(w) and s = e^{-|w|^2/2}, and ||z^m||^2 = m!.  For b = 0 the
    squared norm is e^{-|w|^2} sum_{k > N} |a w|^(2k) / k!.
    """
    with mpmath.workdps(50):
        a, b, w = mpmath.mpc(a), mpmath.mpc(b), mpmath.mpc(w)
        x = abs(w) ** 2
        beta, u = b * mpmath.conj(w), abs(a * w) ** 2
        # tails[j0] = sum_{j >= j0} beta^j / j!, summed up to where its terms are below 1e-60 of e^|beta|
        terms = [mpmath.mpf(1)]
        while len(terms) <= N + 1 or abs(terms[-1]) > mpmath.mpf(10) ** -60 * mpmath.exp(abs(beta)):
            terms.append(terms[-1] * beta / len(terms))
        tails = [mpmath.fsum(terms[j0:]) for j0 in range(N + 2)]
        square, m, weight = mpmath.mpf(0), 0, mpmath.mpf(1)  # weight = u^m / m!
        while m <= N + 1 or weight > mpmath.mpf(10) ** -60:
            square += weight * abs(tails[max(N + 1 - m, 0)]) ** 2
            m += 1
            weight *= u / m
        return mpmath.sqrt(mpmath.exp(-x) * square / mpmath.gammainc(N + 1, 0, x, regularized=True))


@pytest.mark.parametrize(
    "a, b, N",
    [(0.5, 0.0, 10), (0.8, 0.0, 6), (1.0, 0.0, 10), (0.5 + 0.4j, 0.0, 20),
     (0.5, 0.3, 10), (0.7, 0.2, 6), (0.6 - 0.3j, 0.5 + 0.2j, 14), (0.5, 0.3, 30)],
)
def test_kernel_tail_quotients_against_high_precision(a, b, N):
    # psi = 1 on C^1: every counted probe stays at or below its exact quotient,
    # and within 1e-3 of it where it is a hundred times above its floor
    points, quotients, floors = oracle._kernel_tail_quotients(cop(a, b), N)
    assert len(points) > 0
    above = 0
    for w, q, floor in zip(points, quotients, floors):
        exact = _tail_quotient_mp(a, b, complex(w[0]), N)
        assert mpmath.mpf(float(q)) <= exact
        if exact > 100 * floor:
            above += 1
            assert abs(q - float(exact)) <= 1e-3 * float(exact)
    assert above > 0


def test_kernel_tail_quotient_of_rank_deficient_map_is_pinned():
    # r = 1 on the first axis of 13_rank_deficient_n3: psi = 1, v = (0.8, 0, 0) and beta = 0, so the
    # quotient is sqrt(sum_{k > 10} 0.64^k / k! / sum_{k > 10} 1 / k!)
    exact = 0.0845433190470264
    with mpmath.workdps(50):
        tail = lambda t: mpmath.nsum(lambda k: t**k / mpmath.factorial(k), [11, mpmath.inf])  # noqa: E731
        assert abs(mpmath.sqrt(tail(mpmath.mpf("0.64")) / tail(1)) - exact) <= 1e-16
    loaded = cli.load_problem(corpus_path("13_rank_deficient_n3"))
    points, quotients, _ = oracle._kernel_tail_quotients(loaded.problem, 10)
    assert np.allclose(points[0], [1.0, 0.0, 0.0])
    assert 0.08446 <= quotients[0] <= exact


def test_essential_upper_falls_with_the_degree_on_a_compact_map():
    # 02 is compact (norm about 1.06); no probe may lose its cancellation as N
    # grows, up to the largest degree whose factorial fits a double
    loaded = cli.load_problem(corpus_path("02_contraction"))
    upper = fk.norm_bounds(loaded.problem).upper
    values = [truncated_essential_upper(loaded.problem, fk.TruncationSpec(max_degree=N)) for N in (10, 30, 60, 170)]
    assert upper >= values[0] >= values[1] >= values[2] >= values[3] > 0.0
    assert values[1] <= 1e-8 and values[3] <= 1e-48


def test_probes_whose_form_overflows_are_left_out():
    # psi = e^{30 z}: every kernel term's Gram entry e^{|30 + v|^2} overflows a
    # double, so no probe counts and the estimate is the Galerkin block's, with no warning
    prob = fk.WcoProblem(fk.kernel([30.0]), AffineMap([[0.5]], [0.0]), 2.0, 2.0)
    points, quotients, floors = oracle._kernel_tail_quotients(prob, 10)
    assert len(points) == len(quotients) == len(floors) == 0
    block = truncated_norm(oracle._matrix_block(prob, 16, 11))
    assert truncated_essential_upper(prob, fk.TruncationSpec(max_degree=10)) == block


@pytest.mark.parametrize(
    "shape, rank",
    [
        ((7, 4), 4), ((4, 7), 4), ((6, 6), 6), ((8, 5), 2), ((5, 8), 3), ((5, 5), 0), ((6, 0), 0),
        ((300, 200), 200), ((1, 1), 1), ((1, 9), 1), ((40, 40), None),
    ],
)
def test_truncated_norm_is_top_singular_value(shape, rank):
    rng = np.random.default_rng(shape[0] * 10 + shape[1] + (rank or 0))
    m, k = shape
    if rank is None:
        # unitary: the top singular value 1 is repeated m times
        M = np.linalg.qr(rng.normal(size=shape) + 1j * rng.normal(size=shape))[0]
    else:
        M = (rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))) @ (
            rng.normal(size=(rank, k)) + 1j * rng.normal(size=(rank, k))
        )
    sv = np.linalg.svd(M, compute_uv=False)
    want = float(sv[0]) if sv.size else 0.0
    assert abs(truncated_norm(M) - want) <= 1e-13 * want


def test_essential_upper_reads_only_high_degree_columns(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("full SVD, symbol product or symbol norm called")

    built, shapes = [], []
    original_init, original_checked = ExpPoly.__post_init__, ExpPoly._from_checked
    original_norm = oracle.truncated_norm

    def counted_init(self):
        built.append(1)
        original_init(self)

    def counted_checked(cls, n, terms):
        built.append(1)
        return original_checked(n, terms)

    def recorded(matrix):
        shapes.append(matrix.shape)
        return original_norm(matrix)

    loaded = cli.load_problem(corpus_path("13_rank_deficient_n3"))
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for module in (oracle, funcspace):
        monkeypatch.setattr(module, "apply_wco", refuse)
        monkeypatch.setattr(module, "multiply", refuse)
    for module in (oracle, quad):
        monkeypatch.setattr(module, "fock_norm", refuse)
    monkeypatch.setattr(ExpPoly, "__post_init__", counted_init)
    monkeypatch.setattr(ExpPoly, "_from_checked", classmethod(counted_checked))
    monkeypatch.setattr(oracle, "truncated_norm", recorded)
    spec = fk.TruncationSpec(max_degree=10)
    assert truncated_essential_upper(loaded.problem, spec) > 0.0
    # one Galerkin column per |alpha| in 11..16 on C^3, no symbol algebra per column or probe
    assert not built
    assert shapes == [(math.comb(16 + 3, 3), math.comb(16 + 3, 3) - math.comb(10 + 3, 3))] == [(969, 683)]


def test_oracle_runs_no_quadrature(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("Gauss-Hermite integral called")

    monkeypatch.setattr(quad, "_gh_integral_norm", refuse)
    assert cli.main(["oracle", str(corpus_path("13_rank_deficient_n3"))]) == 0
