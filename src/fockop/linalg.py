"""Complex linear algebra helpers: canonical SVD factorization and related queries.

The factorization convention used throughout the package is

    A = V @ diag(sigma) @ U

with *both* V and U unitary and sigma non-increasing.  Note that U is stored
already "row-form" (it multiplies vectors directly), so the textbook
factorization ``A = X S Yh`` maps to ``V = X, U = Yh``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericalError

__all__ = [
    "SvdTriple",
    "as_cmatrix",
    "as_cvector",
    "svd",
    "spectral_norm",
    "is_unitary",
]

#: relative threshold below which a singular value is treated as exactly zero
RANK_TOL = 1e-10
#: absolute threshold inside which a singular value is snapped to exactly one
UNIT_SNAP_TOL = 1e-10
#: absolute threshold for grouping equal singular values when ordering columns
TIE_TOL = 1e-12


def as_cmatrix(A, n: int | None = None) -> np.ndarray:
    """Validate and convert ``A`` to a fresh square complex matrix."""
    M = np.array(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    if n is not None and M.shape[0] != n:
        raise DimensionError(f"expected a {n}x{n} matrix, got {M.shape[0]}x{M.shape[0]}")
    if not (np.all(np.isfinite(M.real)) and np.all(np.isfinite(M.imag))):
        raise DomainError("matrix entries must be finite")
    return M


def as_cvector(b, n: int | None = None) -> np.ndarray:
    """Validate and convert ``b`` to a fresh complex vector."""
    v = np.array(b, dtype=complex)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionError(f"expected a vector, got shape {v.shape}")
    if n is not None and v.shape[0] != n:
        raise DimensionError(f"expected a vector of length {n}, got {v.shape[0]}")
    if not (np.all(np.isfinite(v.real)) and np.all(np.isfinite(v.imag))):
        raise DomainError("vector entries must be finite")
    return v


@dataclass(frozen=True)
class SvdTriple:
    """Canonical factorization ``A = V @ diag(sigma) @ U``.

    ``sigma`` is non-increasing with values snapped to exactly 1.0 or 0.0 when
    within tolerance; ``raw_sigma`` keeps the unsnapped values for reporting.
    ``rank_s`` counts the nonzero (snapped) singular values.
    """

    V: np.ndarray
    sigma: np.ndarray
    U: np.ndarray
    rank_s: int
    raw_sigma: np.ndarray

    def __post_init__(self):
        for name in ("V", "sigma", "U", "raw_sigma"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.sigma.shape[0]

    def reconstruct(self) -> np.ndarray:
        return (self.V * self.sigma[np.newaxis, :]) @ self.U


def _phase_fix(V: np.ndarray, U: np.ndarray) -> None:
    """Rotate each V-column (compensating in U) so its pivot entry is real positive.

    The pivot is the first entry whose modulus is within 1e-12 of the column
    maximum, which makes the choice deterministic under tiny perturbations.
    """
    n = V.shape[0]
    for i in range(n):
        col = V[:, i]
        mods = np.abs(col)
        top = mods.max()
        if top == 0.0:
            continue
        pivot = int(np.nonzero(mods >= top * (1.0 - 1e-12))[0][0])
        phase = col[pivot] / mods[pivot]
        if phase != 1.0:
            V[:, i] = col / phase
            U[i, :] = U[i, :] * phase


def _column_key(col: np.ndarray) -> tuple:
    parts = []
    for z in col:
        parts.append(round(float(z.real), 12))
        parts.append(round(float(z.imag), 12))
    return tuple(parts)


def svd(A) -> SvdTriple:
    """Deterministic SVD in the convention ``A = V @ diag(sigma) @ U``.

    Singular values within ``UNIT_SNAP_TOL`` of 1 are snapped to exactly 1 and
    values below ``RANK_TOL`` (relative to max(sigma[0], 1)) are snapped to 0.
    Within groups of equal singular values the columns are ordered by a
    descending lexicographic key on the phase-fixed V columns, so equal inputs
    always produce the identical factorization (already-diagonal matrices keep
    V = U = I).
    """
    M = as_cmatrix(A)
    try:
        X, s, Yh = np.linalg.svd(M)
    except np.linalg.LinAlgError as exc:  # iteration cap exceeded inside LAPACK
        raise NumericalError(f"SVD did not converge: {exc}") from exc
    V = np.array(X, dtype=complex)
    U = np.array(Yh, dtype=complex)
    raw = np.array(s, dtype=float)

    sigma = raw.copy()
    sigma[np.abs(sigma - 1.0) <= UNIT_SNAP_TOL] = 1.0
    sigma[sigma <= RANK_TOL * max(sigma[0] if sigma.size else 0.0, 1.0)] = 0.0

    _phase_fix(V, U)

    # Reorder inside tie groups for a canonical result.
    n = sigma.shape[0]
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(sigma[stop] - sigma[start]) <= TIE_TOL:
            stop += 1
        if stop - start > 1:
            idx = sorted(range(start, stop), key=lambda j: _column_key(V[:, j]), reverse=True)
            if idx != list(range(start, stop)):
                V[:, start:stop] = V[:, idx]
                U[start:stop, :] = U[idx, :]
                raw[start:stop] = raw[idx]
        start = stop

    rank_s = int(np.count_nonzero(sigma))
    triple = SvdTriple(V=V, sigma=sigma, U=U, rank_s=rank_s, raw_sigma=raw)

    err = np.max(np.abs(triple.reconstruct() - M))
    if err > 1e-8 * max(1.0, float(sigma[0]) if sigma.size else 1.0):
        raise NumericalError(f"SVD reconstruction error {err:.3e} too large")
    return triple


def spectral_norm(A) -> float:
    """Largest singular value (operator norm) of ``A``, after snapping."""
    return float(svd(A).sigma[0])


def is_unitary(M, tol: float = 1e-10) -> bool:
    """Whether ``M @ M.conj().T`` equals the identity within ``tol`` (max norm)."""
    A = as_cmatrix(M)
    eye = np.eye(A.shape[0])
    return bool(np.max(np.abs(A @ A.conj().T - eye)) <= tol)

