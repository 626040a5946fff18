import math

import numpy as np
import pytest

from scipy.special import gammainc

import fockop as fk
from fockop import cli, oracle, quad
from fockop.funcspace import AffineMap
from fockop.oracle import (
    basis_indices,
    compactness_witness,
    f2_inner,
    f2_matrix,
    f2_norm,
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
    assert f2_norm(e(3)) == pytest.approx(1.0, rel=1e-12)


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
    eu = truncated_essential_upper(cop(1.0), fk.TruncationSpec(max_degree=10))
    assert eu == pytest.approx(1.0, abs=1e-6)


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


@pytest.mark.parametrize("N", [4, 12])
@pytest.mark.parametrize("radius", [2.0, 4.0, 8.0])
def test_kernel_tail_norm_is_regularized_incomplete_gamma(N, radius):
    # ||(I - P_N) k_w||^2 = P(N + 1, |w|^2): the closed form the essential
    # estimate divides by, against the Gram kernel on the 1 + |basis| term symbol
    w = radius * np.array([0.6, 0.8j])
    tail = oracle._projected_kernel_tail(w, N)
    exact = gammainc(N + 1, radius**2)
    assert f2_norm(tail) ** 2 == pytest.approx(exact, rel=1e-10)
    # the sum cancels; the closed-form norm's rounding bound covers what is lost
    res = quad.fock_norm(tail, 2.0)
    assert res.mode == "closed_form" and res.err_estimate > 0.0
    assert abs(res.value - math.sqrt(exact)) <= res.err_estimate


def test_oracle_runs_no_quadrature(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("Gauss-Hermite integral called")

    monkeypatch.setattr(quad, "_gh_integral_norm", refuse)
    assert cli.main(["oracle", str(corpus_path("13_rank_deficient_n3"))]) == 0
