"""Independent checks against truncated operator matrices on the p = 2 space.

The monomials e_alpha = z^alpha / sqrt(alpha!) are an orthonormal basis of the
p = 2 space, and inner products of exponential-polynomials against them and
against each other have finite closed forms, so every matrix entry, and every
norm at p = 2, is computed here without any quadrature.  The Galerkin matrix is
linear algebra that shares no code with the symbol algebra or the norm engine:
the coefficients of (A z + b)^alpha follow degree by degree from those one
degree lower, and each term of psi pairs them with the output basis through
per-coordinate closed forms (``_matrix_block``).  Its norm is the top singular
value, read by Lanczos iteration on M^H M without forming that Gram matrix
(``truncated_norm``).  This gives an oracle for operator norms, essential
norms and compactness.

The kernel-tail probes W (I - P_N) k_w of the essential-norm estimate need
no symbol algebra either.  Their Taylor terms psi_t z^gamma do not depend on
w, so the squared norms of all probes are one batched quadratic form over the
Gram matrix ``quad.f2_gram`` of all their terms, in the orthonormal powers
z^k / sqrt(k!), with no term merged or dropped.  A probe counts as
sqrt(S - delta) / ||(I - P_N) k_w|| for its computed square S and the
rounding bound delta = gamma_m (sum_a |c_a| ||u_a||)^2 over its terms, so it
stays below the exact quotient (``truncated_essential_upper``).  ``f2_inner``
contracts the same Gram blocks for ``fock_norm`` at p = 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .errors import DimensionError, DomainError
from .funcspace import ExpPoly, apply_wco, kernel, monomial, multiply, normalized_kernel
from .quad import DEFAULT_SPEC, QuadSpec, f2_gram, f2_inner, fock_norm
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
#: largest k whose k! fits a double; the kernel tails and the p = 2 pairings
#: take k! up to the cutoff degree plus the largest power of psi
DEGREE_CAP = 170
#: degrees past the cutoff N that the high-degree block of ``truncated_essential_upper`` keeps
_MARGIN = 6
#: radii |w| of the kernel probes and of the witness rays
_KERNEL_RADII = (1.0, 2.0, 4.0, 8.0)
#: seed of the start vector of the Lanczos iteration in ``truncated_norm``
_LANCZOS_SEED = 0


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


def _coordinate_pairing(freq: complex, power: int, max_degree: int) -> np.ndarray:
    """T[m, k] = <z^power e^{z conj(freq)} e_k, e_m> on one coordinate, for m, k <= max_degree.

    With mu = m - k - power this is sqrt(m!/k!) conj(freq)^mu / mu! when mu >= 0
    and 0 otherwise; down each column it is a running product from mu = 0.
    """
    m = np.arange(max_degree + 1)[:, None]
    k = np.arange(max_degree + 1)[None, :]
    mu = m - k - power
    start = np.ones(max_degree + 1)
    for i in range(1, power + 1):
        start *= np.sqrt(k[0] + i)
    step = np.sqrt(m) * np.conj(freq) / np.maximum(mu, 1)
    ratio = np.where(mu > 0, step, np.where(mu == 0, start, 1.0))
    return np.where(mu >= 0, np.cumprod(ratio, axis=0), 0.0)


def _matrix_block(problem: WcoProblem, max_degree: int, min_degree: int = 0) -> np.ndarray:
    """<W e_alpha, e_beta> for |beta| <= max_degree and min_degree <= |alpha| <= max_degree.

    Column alpha of Q holds (A z + b)^alpha / sqrt(alpha!) on the basis e_gamma;
    z_j sends e_gamma to sqrt(gamma_j + 1) e_{gamma + e_j}, so each degree
    follows from the one below:

        Q[:, alpha + e_i] = (b_i Q[:, alpha] + sum_j A_ij z_j Q[:, alpha]) / sqrt(alpha_i + 1).

    A term c z^g e^{<z, f>} of psi pairs e_gamma with e_beta by the product over
    coordinates of ``_coordinate_pairing``; for f = 0 only beta = gamma + g
    pairs, so the term moves rows of Q instead of multiplying by a matrix.
    Only one degree of Q is held at a time.
    """
    n, A, b = problem.n, problem.phi.A, problem.phi.b
    idx = basis_indices(n, max_degree)
    B = np.array(idx, dtype=int).reshape(len(idx), n)
    pos = {alpha: k for k, alpha in enumerate(idx)}
    # degree d is rows edge[d]:edge[d + 1] of the graded basis
    edge = [math.comb(d + n - 1, n) for d in range(max_degree + 2)]
    inner = edge[max_degree]
    up = np.array(
        [[pos[a[:j] + (a[j] + 1,) + a[j + 1:]] for j in range(n)] for a in idx[:inner]], dtype=int
    ).reshape(inner, n)
    lift = np.sqrt(B[:inner] + 1.0)
    # alpha's parent is alpha - e_i for its first nonzero coordinate i
    parent = np.zeros(len(idx), dtype=int)
    direction = np.zeros(len(idx), dtype=int)
    for j in reversed(range(n)):
        parent[up[:, j]] = np.arange(inner)
        direction[up[:, j]] = j

    # terms without a frequency move rows; the others add up to one pairing matrix
    shifts, pairing = [], None
    for coeff, power, freq in problem.psi.terms:
        tables = [_coordinate_pairing(f, g, max_degree) for f, g in zip(freq, power)]
        if any(freq):
            table = np.full((len(idx), len(idx)), coeff)
            for i in range(n):
                table *= tables[i][B[:, i][:, None], B[:, i][None, :]]
            if pairing is None:
                pairing = table
            else:
                pairing += table
        else:
            # gamma -> gamma + g for the gamma with |gamma + g| <= max_degree
            dst = np.arange(edge[max(max_degree - sum(power) + 1, 0)])
            for j, g in enumerate(power):
                for _ in range(g):
                    dst = up[dst, j]
            weight = np.full(len(dst), coeff)
            for i in range(n):
                weight *= tables[i][B[dst, i], B[: len(dst), i]]
            shifts.append((dst, weight))

    first = edge[min_degree]
    M = np.zeros((len(idx), len(idx) - first), dtype=complex)
    Q = np.ones((1, 1), dtype=complex)
    for d in range(max_degree + 1):
        if d:
            lo, hi = edge[d - 1], edge[d]
            children = np.arange(hi, edge[d + 1])
            i = direction[children]
            X = Q[:, parent[children] - lo]
            Q = np.zeros((edge[d + 1], len(children)), dtype=complex)
            Q[:hi] = X * b[i]
            for j in range(n):
                if A[i, j].any():
                    Q[up[:hi, j]] += lift[:hi, j, None] * X * A[i, j]
            Q /= np.sqrt(B[children, i])
        if d < min_degree:
            continue
        cols = slice(edge[d] - first, edge[d + 1] - first)
        for dst, weight in shifts:
            s = min(len(dst), Q.shape[0])
            M[dst[:s], cols] += weight[:s, None] * Q[:s]
        if pairing is not None:
            M[:, cols] += pairing[:, : Q.shape[0]] @ Q
    return M


def f2_matrix(problem: WcoProblem, spec: TruncationSpec | None = None) -> np.ndarray:
    """Galerkin matrix of the operator on the degree-cut orthonormal basis.

    Only meaningful as an operator approximation for p = q = 2.
    """
    spec = spec or TruncationSpec()
    return _matrix_block(problem, spec.max_degree)


def truncated_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a truncated matrix (0 for an empty one).

    sigma_max^2 is the top eigenvalue of M^H M, read by Lanczos iteration on
    x -> M^H (M x) with full reorthogonalization, from a complex Gaussian start
    vector of a fixed seed.  Every Ritz value lies below that eigenvalue; the
    iteration stops when the residual bound of the top Ritz pair is at rounding
    level, or after as many steps as M has columns.
    """
    if matrix.ndim != 2:
        raise DimensionError("expected a 2-d matrix")
    if matrix.size == 0:
        return 0.0
    # the iteration runs on M / scale, so that M^H M neither overflows nor underflows
    scale = float(np.abs(matrix).max())
    if scale == 0.0:
        return 0.0
    dim = matrix.shape[1]
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis: list[np.ndarray] = []
    diag: list[float] = []
    off: list[float] = []
    for _ in range(dim):
        basis.append(q)
        w = ((matrix @ (q / scale)).conj() @ matrix).conj() / scale
        diag.append(float(np.vdot(q, w).real))
        V = np.array(basis)
        for _ in range(2):  # twice is enough to keep the basis orthogonal to rounding
            w -= V.T @ (V.conj() @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        top = float(ritz[-1])
        if beta * abs(vecs[-1, -1]) <= np.finfo(float).eps * top:
            break
        off.append(beta)
        q = w / beta
    return scale * math.sqrt(max(top, 0.0))


def _probe_directions(n: int) -> list[np.ndarray]:
    """The n coordinate axes, then eight random unit directions from a fixed seed."""
    dirs = [np.eye(n, dtype=complex)[i] for i in range(n)]
    rng = np.random.default_rng(7)
    for _ in range(8):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        dirs.append(v / np.linalg.norm(v))
    return dirs


def _kernel_tail_quotients(problem: WcoProblem, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower bounds of ||W (I - P_N) k_w|| / ||(I - P_N) k_w|| over the kernel probes, with their floors.

    The probes w = r d run over ``_KERNEL_RADII``, then ``_probe_directions``.
    Each image (see ``truncated_essential_upper``) has T kernel terms
    psi_t e^{<z, v>} of its own and the Taylor terms psi_t z^gamma, |gamma| <= N,
    which every probe shares.  All terms of all probes, in the orthonormal
    powers e_k = z^k / sqrt(k!), go into one ``f2_gram``; a probe's squared
    norm S is the quadratic form of its coefficient column, which is zero
    outside its own kernel terms and the Taylor terms.  No term is merged or
    dropped.

    The form is evaluated with error at most delta = gamma_m (sum_a |c_a| ||u_a||)^2
    over the probe's terms c_a u_a with c_a != 0, ||u_a|| read off the Gram
    diagonal, as in ``quad.fock_norm`` at p = 2: the sums taken in absolute
    value are a positive kernel's Gram form, which Cauchy-Schwarz bounds by
    its diagonal, and adding a zero is exact, so the other probes' terms add no
    rounding.  The chain m counts, per coordinate, 2 P + 13 roundings of a
    pairing entry with powers up to P (2 P + 7 with raw powers, plus three for
    each division by sqrt(k!)), 4 F^2 for the exponential e^{conj(c) e} with
    |c|, |e| <= F over the probe's frequencies (its argument carries a rounding
    of relative size 2u), and 2 per term for the two contractions.  As for a
    given symbol, the coefficients are the computed ones.  A probe counts as
    sqrt(S - delta), the lower end of its rounding interval, over
    sqrt(P(N + 1, |w|^2)).  Returns the probe points, their quotients and their
    floors sqrt(delta) / sqrt(P(N + 1, |w|^2)), the largest quotient rounding
    alone can give, over the probes whose denominator is nonzero and whose
    form fits a double.
    """
    from scipy.special import gammainc  # imported here: loading it dominates start-up time

    n = problem.n
    points, denoms = [], []
    for r in _KERNEL_RADII:
        for d in _probe_directions(n):
            w = r * d
            # ||(I - P_N) k_w||^2 = 1 - e^{-|w|^2} sum_{k <= N} |w|^(2k) / k!
            #                    = P(N + 1, |w|^2), the regularized incomplete gamma
            denom = math.sqrt(gammainc(N + 1, float(np.sum(np.abs(w) ** 2))))
            if denom > 0.0:
                points.append(w)
                denoms.append(denom)
    if not points:
        return np.zeros((0, n), dtype=complex), np.zeros(0), np.zeros(0)
    w = np.array(points)
    v = w @ problem.phi.A.conj()  # rows A* w
    beta = w.conj() @ problem.phi.b
    s = np.exp(-0.5 * np.sum(np.abs(w) ** 2, axis=1))
    probes = len(w)

    psi = problem.psi.terms
    c = np.array([t.coeff for t in psi])
    g = np.array([t.power for t in psi])
    f = np.array([t.freq for t in psi], dtype=complex)
    low = np.array(basis_indices(n, N))
    fact = np.array([float(math.factorial(k)) for k in range(N + int(g.max()) + 1)])
    root = np.sqrt(fact)

    # rows: the kernel terms (probe, t), then the Taylor terms (t, gamma)
    kernels = probes * len(psi)
    powers = np.concatenate([np.tile(g, (probes, 1)), (g[:, None] + low[None]).reshape(-1, n)])
    freqs = np.concatenate([(v[:, None] + f[None]).reshape(-1, n), np.repeat(f, len(low), axis=0)])
    X = np.zeros((len(powers), probes), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel_coeff = (s * np.exp(beta))[:, None] * (c * np.prod(root[g], axis=1))
        X[np.arange(kernels), np.repeat(np.arange(probes), len(psi))] = kernel_coeff.ravel()
        # e_m(beta) for m <= N from the terms beta^i / i!, and conj(v_i)^k per coordinate
        steps = np.ones((probes, N + 1), dtype=complex)
        steps[:, 1:] = beta[:, None] / np.arange(1, N + 1)
        partial = np.cumsum(np.cumprod(steps, axis=1), axis=1)
        vpow = np.ones((probes, n, N + 1), dtype=complex)
        vpow[:, :, 1:] = np.conj(v)[:, :, None]
        vpow = np.cumprod(vpow, axis=2)
        taylor = -s[:, None] * partial[:, N - low.sum(axis=1)]
        for t in range(len(psi)):
            # conj(v)^gamma / gamma! times sqrt((g_t + gamma)!), coordinate by coordinate
            mono = math.prod(
                vpow[:, i, low[:, i]] * (root[g[t, i] + low[:, i]] / fact[low[:, i]]) for i in range(n)
            )
            X[kernels + t * len(low): kernels + (t + 1) * len(low)] = (c[t] * taylor * mono).T

        square = np.zeros(probes)
        diag = np.zeros(len(powers))
        conj = X.conj()
        for rows, block in f2_gram(powers, freqs, powers, freqs, orthonormal=True):
            square += np.einsum("ap,ap->p", X[rows], block @ conj).real
            diag[rows] = block[:, rows].diagonal().real
        absolute = np.abs(X).T @ np.sqrt(diag)

    live = X != 0
    top_freq = np.max(live * np.linalg.norm(freqs, axis=1)[:, None], axis=0)
    chain = n * (2 * int(powers.max()) + 13) + 2 * live.sum(axis=0) + 2 + np.ceil(4.0 * top_freq**2)
    unit = np.finfo(float).eps / 2.0
    delta = chain * unit / (1.0 - chain * unit) * absolute**2
    denom = np.array(denoms)
    ok = np.isfinite(square) & np.isfinite(delta)
    return w[ok], np.sqrt(np.maximum(square - delta, 0.0))[ok] / denom[ok], np.sqrt(delta[ok]) / denom[ok]


def truncated_essential_upper(problem: WcoProblem, spec: TruncationSpec | None = None) -> float:
    """Estimate of ||W restricted to high degrees||, a proxy for the essential norm.

    Two exact probes, both bounded above by the true restricted norm:
    the matrix block with low-degree columns removed, and Rayleigh quotients
    on kernel tails (I - P_N) k_w for far points w.  With v = A* w and
    beta = <b, w>, the multinomial theorem gives (P_N K_w)(A z + b) =
    sum_{k <= N} (<z, v> + beta)^k / k!, so each tail image is

        e^{-|w|^2/2} psi (e^beta e^{<z, v>}
                          - sum_{|gamma| <= N} conj(v)^gamma / gamma! e_{N - |gamma|}(beta) z^gamma),

    with e_m(beta) = sum_{i <= m} beta^i / i!.  The Taylor terms psi_t z^gamma
    are the same for every w, so the squared norms of all probes are one
    batched quadratic form over the Gram matrix of their terms in the
    orthonormal powers, with no term merged or dropped.  Its rounding error is
    at most delta = gamma_m (sum_a |c_a| ||u_a||)^2 over a probe's nonzero
    terms c_a u_a (``_kernel_tail_quotients`` counts m), and a probe counts as
    sqrt(S - delta) / sqrt(P(N + 1, |w|^2)) for its computed squared norm S,
    so a numerator at its cancellation floor stays below the exact quotient.
    """
    spec = spec or TruncationSpec()
    if not (problem.p == 2.0 and problem.q == 2.0):
        raise DomainError("the matrix oracle works on the p = q = 2 space")
    N = spec.max_degree
    best = truncated_norm(_matrix_block(problem, N + _MARGIN, N + 1))
    _, quotients, _ = _kernel_tail_quotients(problem, N)
    return max(best, float(quotients.max(initial=0.0)))


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
