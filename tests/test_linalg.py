import numpy as np
import pytest

from fockop.errors import DimensionError
from fockop.linalg import is_unitary, spectral_norm, svd


def random_matrix(n, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))


@pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (2, 2), (3, 3), (3, 4), (3, 5)])
def test_reconstruction(n, seed):
    a = random_matrix(n, seed)
    t = svd(a)
    np.testing.assert_allclose(t.V @ np.diag(t.sigma) @ t.U, a, atol=1e-12 * max(1.0, spectral_norm(a)))
    assert is_unitary(t.V) and is_unitary(t.U)
    assert all(t.sigma[i] >= t.sigma[i + 1] - 1e-15 for i in range(n - 1))
    assert t.sigma[-1] >= 0.0


@pytest.mark.parametrize("n,seed", [(2, 10), (3, 11), (3, 12)])
def test_spectral_norm_matches_lapack(n, seed):
    a = random_matrix(n, seed)
    assert spectral_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_diagonal_input_keeps_identity_factors():
    t = svd(np.diag([0.9, 0.4]).astype(complex))
    np.testing.assert_array_equal(t.V, np.eye(2))
    np.testing.assert_array_equal(t.U, np.eye(2))
    np.testing.assert_allclose(t.sigma, [0.9, 0.4])
    assert t.rank_s == 2


def test_rank_tolerance_truncates_noise_sigma():
    t = svd(np.diag([0.9, 1e-13]).astype(complex))
    assert t.rank_s == 1
    assert t.sigma[1] == 0.0
    # the raw value stays available for diagnostics
    assert t.raw_sigma[1] == pytest.approx(1e-13)


def test_zero_matrix_has_rank_zero():
    t = svd(np.zeros((2, 2)))
    assert t.rank_s == 0


def test_determinism_same_input_same_factors():
    a = random_matrix(3, 77)
    t1, t2 = svd(a), svd(a)
    assert np.array_equal(t1.V, t2.V)
    assert np.array_equal(t1.U, t2.U)
    assert np.array_equal(t1.sigma, t2.sigma)


def test_unitary_predicate():
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    assert is_unitary(q)
    assert not is_unitary(q * 1.01)


def test_rejects_non_square():
    with pytest.raises(DimensionError):
        svd(np.ones((2, 3)))
