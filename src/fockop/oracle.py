"""Independent checks against truncated operator matrices on the p = 2 space.

The monomials e_alpha = z^alpha / sqrt(alpha!) are an orthonormal basis of the
p = 2 space, and inner products of exponential-polynomials against them and
against each other have finite closed forms, so every matrix entry, and every
norm at p = 2, is computed here without any quadrature.  The Galerkin matrix is built
from its own pairing tables and shares no code with the norm engine; the
kernel-tail quotients use the exact inner product ``f2_inner``, which
``fock_norm`` also uses at p = 2 and which the Gauss-Hermite path
(``allow_closed_form=False``) cross-checks.  This gives an oracle for operator
norms, essential norms and compactness.

The kernel-tail images need no symbol algebra beyond one product with psi:
with v = A* w and beta = <b, w>,

    W (I - P_N) k_w = e^{-|w|^2/2} psi (e^beta e^{<z, v>}
                      - sum_{|gamma| <= N} conj(v)^gamma / gamma! e_{N - |gamma|}(beta) z^gamma),

where e_m(beta) = sum_{i <= m} beta^i / i! is the exponential's Taylor cut.
A probe counts as (||image|| - its rounding bound) / ||(I - P_N) k_w||, which
stays below the exact quotient, so no probe inflates the estimate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np
from scipy.special import gammainc

from .errors import DimensionError, DomainError
from .funcspace import (
    ExpPoly,
    Term,
    apply_wco,
    kernel,
    monomial,
    multiply,
    normalized_kernel,
)
from .quad import DEFAULT_SPEC, QuadSpec, f2_inner, fock_norm
from .wco import WcoProblem

__all__ = [
    "TruncationSpec",
    "basis_indices",
    "f2_inner",
    "f2_matrix",
    "truncated_norm",
    "truncated_essential_upper",
    "rayleigh_sweep",
    "compactness_witness",
]

#: largest admissible truncated basis
BASIS_CAP = 5000
#: degrees past the cutoff N that the high-degree block of ``truncated_essential_upper`` keeps
_MARGIN = 6
#: radii |w| of the kernel probes and of the witness rays
_KERNEL_RADII = (1.0, 2.0, 4.0, 8.0)


@dataclass(frozen=True)
class TruncationSpec:
    """Degree cutoff of the matrix oracle and the quadrature settings of its sweep."""

    max_degree: int = 12
    quad: QuadSpec = field(default_factory=QuadSpec)


def basis_indices(n: int, max_degree: int) -> list[tuple[int, ...]]:
    """Multi-indices with |alpha| <= max_degree in graded lexicographic order."""
    if n < 1 or max_degree < 0:
        raise DimensionError("need n >= 1 and max_degree >= 0")
    out: list[tuple[int, ...]] = []
    for d in range(max_degree + 1):
        level = []
        for combo in combinations_with_replacement(range(n), d):
            alpha = [0] * n
            for i in combo:
                alpha[i] += 1
            level.append(tuple(alpha))
        out.extend(sorted(level, reverse=True))
    if len(out) > BASIS_CAP:
        raise DomainError(f"basis of size {len(out)} exceeds the cap {BASIS_CAP}")
    return out


def _monomial_pairing_tables(terms, max_m: int, n: int) -> list[list[np.ndarray]]:
    """For each term, per-coordinate arrays H[m] = <z^g exp(z conj(c)), z^m>.

    <z^g exp(z conj(c)), z^m> = m! conj(c)^(m-g) / (m-g)!  when m >= g, else 0.
    """
    tables = []
    for _, power, freq in terms:
        per_coord = []
        for i in range(n):
            g = power[i]
            cc = complex(freq[i]).conjugate()
            h = np.zeros(max_m + 1, dtype=complex)
            for m in range(g, max_m + 1):
                h[m] = math.factorial(m) / math.factorial(m - g) * cc ** (m - g)
            per_coord.append(h)
        tables.append(per_coord)
    return tables


def _matrix_block(problem: WcoProblem, in_indices, out_indices) -> np.ndarray:
    n = problem.n
    max_m = max((max(b) for b in out_indices), default=0)
    B = np.array(out_indices, dtype=int)
    out_fact = np.array(
        [math.sqrt(math.prod(math.factorial(k) for k in b)) for b in out_indices]
    )
    M = np.zeros((len(out_indices), len(in_indices)), dtype=complex)
    for col, alpha in enumerate(in_indices):
        image = apply_wco(problem.psi, problem.phi, monomial(n, alpha))
        tables = _monomial_pairing_tables(image.terms, max_m, n)
        colvals = np.zeros(len(out_indices), dtype=complex)
        for (coeff, _, _), per_coord in zip(image.terms, tables):
            prod = np.full(len(out_indices), coeff, dtype=complex)
            for i in range(n):
                prod = prod * per_coord[i][B[:, i]]
            colvals += prod
        in_fact = math.sqrt(math.prod(math.factorial(k) for k in alpha))
        M[:, col] = colvals / (out_fact * in_fact)
    return M


def f2_matrix(problem: WcoProblem, spec: TruncationSpec | None = None) -> np.ndarray:
    """Galerkin matrix of the operator on the degree-cut orthonormal basis.

    Only meaningful as an operator approximation for p = q = 2.
    """
    spec = spec or TruncationSpec()
    idx = basis_indices(problem.n, spec.max_degree)
    return _matrix_block(problem, idx, idx)


def truncated_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a truncated matrix (0 for an empty one).

    sigma_max^2 is the top eigenvalue of the smaller Gram matrix M^H M or
    M M^H, which a symmetric eigensolver finds to a relative error of order
    the unit roundoff times the Gram dimension, without a full SVD.
    """
    if matrix.ndim != 2:
        raise DimensionError("expected a 2-d matrix")
    if matrix.size == 0:
        return 0.0
    if matrix.shape[0] < matrix.shape[1]:
        matrix = matrix.conj().T
    top = np.linalg.eigvalsh(matrix.conj().T @ matrix)[-1]
    return math.sqrt(max(float(top), 0.0))


def _probe_directions(n: int) -> list[np.ndarray]:
    """The n coordinate axes, then eight random unit directions from a fixed seed."""
    dirs = [np.eye(n, dtype=complex)[i] for i in range(n)]
    rng = np.random.default_rng(7)
    for _ in range(8):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        dirs.append(v / np.linalg.norm(v))
    return dirs


def _kernel_tail_image(problem: WcoProblem, w: np.ndarray, low: np.ndarray) -> ExpPoly:
    """W (I - P_N) k_w by the multinomial closed form; ``low`` holds the |gamma| <= N."""
    n = problem.n
    degree = low.sum(axis=1)
    N = int(degree.max())
    v = problem.phi.A.conj().T @ w
    beta = complex(np.sum(problem.phi.b * np.conj(w)))
    scale = math.exp(-0.5 * float(np.sum(np.abs(w) ** 2)))
    fact = np.array([float(math.factorial(k)) for k in range(N + 1)])
    partial = np.cumsum(beta ** np.arange(N + 1) / fact)  # e_m(beta) for m <= N
    coeffs = np.prod(np.conj(v) ** low, axis=1) / np.prod(fact[low], axis=1)
    coeffs *= -scale * partial[N - degree]
    terms = [Term(scale * complex(np.exp(beta)), (0,) * n, tuple(v))]
    terms += [Term(c, tuple(g), (0j,) * n) for c, g in zip(coeffs.tolist(), low.tolist())]
    return multiply(problem.psi, ExpPoly(n, tuple(terms)))


def truncated_essential_upper(problem: WcoProblem, spec: TruncationSpec | None = None) -> float:
    """Estimate of ||W restricted to high degrees||, a proxy for the essential norm.

    Two exact probes, both bounded above by the true restricted norm:
    the matrix block with low-degree columns removed, and Rayleigh quotients
    on kernel tails (I - P_N) k_w for far points w.  With v = A* w and
    beta = <b, w>, the multinomial theorem gives (P_N K_w)(A z + b) =
    sum_{k <= N} (<z, v> + beta)^k / k!, so each tail image is

        e^{-|w|^2/2} psi (e^beta e^{<z, v>}
                          - sum_{|gamma| <= N} conj(v)^gamma / gamma! e_{N - |gamma|}(beta) z^gamma),

    with e_m(beta) = sum_{i <= m} beta^i / i!.  A probe counts as
    (||image|| - its closed-form rounding bound) / sqrt(P(N + 1, |w|^2)), so a
    numerator at its cancellation floor stays below the exact quotient.
    """
    spec = spec or TruncationSpec()
    if not (problem.p == 2.0 and problem.q == 2.0):
        raise DomainError("the matrix oracle works on the p = q = 2 space")
    N = spec.max_degree
    big = basis_indices(problem.n, N + _MARGIN)
    high = [a for a in big if sum(a) > N]
    best = truncated_norm(_matrix_block(problem, high, big))

    low = np.array([a for a in big if sum(a) <= N], dtype=int)
    for r in _KERNEL_RADII:
        for d in _probe_directions(problem.n):
            w = r * d
            # ||(I - P_N) k_w||^2 = 1 - e^{-|w|^2} sum_{k <= N} |w|^(2k) / k!
            #                    = P(N + 1, |w|^2), the regularized incomplete gamma
            denom = math.sqrt(gammainc(N + 1, float(np.sum(np.abs(w) ** 2))))
            if denom == 0.0:
                continue
            num = fock_norm(_kernel_tail_image(problem, w, low), 2.0)
            best = max(best, (num.value - num.err_estimate) / denom)
    return best


@dataclass(frozen=True)
class SweepRecord:
    label: str
    quotient: float


@dataclass(frozen=True)
class SweepResult:
    records: tuple[SweepRecord, ...]
    best: float


def rayleigh_sweep(problem: WcoProblem, spec: TruncationSpec | None = None) -> SweepResult:
    """Quotients ||W f||_q / ||f||_p over a deterministic probe family.

    Probes: normalized kernels on a radial grid, low monomials, and a few
    kernel combinations.  Every quotient is a lower bound for the norm.
    """
    spec = spec or TruncationSpec()
    qspec = spec.quad
    n = problem.n
    records: list[SweepRecord] = []

    def add(label: str, f: ExpPoly) -> None:
        denom = fock_norm(f, problem.p, qspec).value
        if denom <= 0:
            return
        num = fock_norm(apply_wco(problem.psi, problem.phi, f), problem.q, qspec).value
        records.append(SweepRecord(label, num / denom))

    dirs = _probe_directions(n)
    add("kernel r=0", normalized_kernel(np.zeros(n, dtype=complex)))
    for r in _KERNEL_RADII:
        for k, d in enumerate(dirs):
            add(f"kernel r={r:g} dir={k}", normalized_kernel(r * d))
    for alpha in basis_indices(n, 3):
        if sum(alpha) == 0:
            continue
        add(f"monomial {alpha}", monomial(n, alpha))
    for k, d in enumerate(dirs[: min(3, len(dirs))]):
        f = normalized_kernel(d) + normalized_kernel(-d)
        add(f"kernel pair dir={k}", f)
        g = multiply(monomial(n, (1,) + (0,) * (n - 1)), kernel(d))
        add(f"monomial*kernel dir={k}", g)
    best = max((rec.quotient for rec in records), default=0.0)
    return SweepResult(tuple(records), best)


@dataclass(frozen=True)
class WitnessRay:
    direction: tuple[complex, ...]
    base: tuple[complex, ...]
    radii: tuple[float, ...]
    values: tuple[float, ...]


def compactness_witness(
    problem: WcoProblem,
    directions=None,
    base=None,
    spec: QuadSpec | None = None,
) -> list[WitnessRay]:
    """||W k_w||_q along rays w = base + r * direction, r = 1, 2, 4, 8.

    Kernel images under W stay exact symbols, so each value is one norm
    computation.  Compact operators send these to zero along every ray;
    non-compact bounded ones keep some ray bounded away from zero.
    """
    spec = spec or DEFAULT_SPEC
    n = problem.n
    if directions is None:
        directions = [np.eye(n, dtype=complex)[i] for i in range(n)]
    if base is None:
        base = np.zeros(n, dtype=complex)
    base = np.asarray(base, dtype=complex)
    rays = []
    for d in directions:
        dv = np.asarray(d, dtype=complex)
        if dv.shape != (n,):
            raise DimensionError("directions must be vectors in C^n")
        vals = []
        for r in _KERNEL_RADII:
            w = base + r * dv
            img = apply_wco(problem.psi, problem.phi, normalized_kernel(w))
            vals.append(fock_norm(img, problem.q, spec).value)
        rays.append(WitnessRay(tuple(dv), tuple(base), _KERNEL_RADII, tuple(vals)))
    return rays
