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

The Rayleigh sweep and the compactness witness build no probe image as a
symbol either.  A normalized kernel's image has the closed form
W k_w = e^{<b, w> - |w|^2/2} psi e^{<z, A* w>}, so ``_images`` takes
e^{<b, w>} and A* w for every probe point at once, expands (A z + b)^h once
per power h of the monomial probes, and puts each image in ExpPoly's
canonical form; ``quad.fock_norms`` norms them all with ``fock_norm``'s
dispatch and one set of p = 2 Gram tables, so each quotient keeps the bits
of the image built by ``apply_wco`` and normed by ``fock_norm``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import add

import numpy as np

from .errors import DimensionError, DomainError
from .funcspace import Term, canonical_terms, compose_affine, monomial
from .quad import DEFAULT_SPEC, QuadSpec, f2_gram, f2_inner, fock_norms
from .special import gamma_p
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
    return [tuple(alpha) for alpha in _basis(n, max_degree).tolist()]


@lru_cache(maxsize=16)
def _basis(n: int, max_degree: int) -> np.ndarray:
    """The multi-indices of ``basis_indices`` as the rows of a read-only array, built once per argument."""
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
    B = np.array(out, dtype=int).reshape(len(out), n)
    B.setflags(write=False)
    return B


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


def _raised(B: np.ndarray, edge: list[int]) -> np.ndarray:
    """up[a, j], the position of alpha + e_j in the graded basis B, for the alpha of B below the top degree.

    Degree d is rows edge[d]:edge[d + 1] of B.  Within its degree, a multi-index
    follows, for each i < n - 1, the C(t + n - i - 2, n - i - 1) indices that
    agree with it before i and are larger at i, t the sum of its coordinates
    after i.
    """
    n, top = B.shape[1], len(edge) - 2
    larger = np.array(
        [[math.comb(t + n - i - 2, n - i - 1) for t in range(top + 1)] for i in range(n - 1)], dtype=int
    ).reshape(n - 1, top + 1)
    E = B[: edge[top], None, :] + np.eye(n, dtype=int)
    after = E.sum(axis=2, keepdims=True) - np.cumsum(E, axis=2)
    return np.array(edge)[E.sum(axis=2)] + larger[np.arange(n - 1), after[:, :, :-1]].sum(axis=2)


def _matrix_block(problem: WcoProblem, max_degree: int, min_degree: int = 0, live_rows: bool = False) -> np.ndarray:
    """<W e_alpha, e_beta> for |beta| <= max_degree and min_degree <= |alpha| <= max_degree.

    Column alpha of Q holds (A z + b)^alpha / sqrt(alpha!) on the basis e_gamma;
    z_j sends e_gamma to sqrt(gamma_j + 1) e_{gamma + e_j}, so each degree
    follows from the one below:

        Q[:, alpha + e_i] = (b_i Q[:, alpha] + sum_j A_ij z_j Q[:, alpha]) / sqrt(alpha_i + 1).

    A term c z^g e^{<z, f>} of psi pairs e_gamma with e_beta by the product over
    coordinates of ``_coordinate_pairing``; for f = 0 only beta = gamma + g
    pairs, so the term moves rows of Q instead of multiplying by a matrix.
    Only one degree of Q is held at a time, and only on the rows that can hold
    a nonzero (``rows``): (A z + b)^alpha has terms z^gamma only with
    gamma_j = 0 where column j of A is zero, and, when b = 0, only of degree
    |alpha|.  A map whose range lies in a coordinate plane keeps only the
    gamma in that plane, so on ``corpus/13_rank_deficient_n3.json`` 153 of
    the 969 rows of degree at most 16.  Every entry is the same sum, in the
    same order, as on all rows; the pairing matrix multiplies each degree's
    block on all rows, so that its matrix product keeps the bits of the dense
    one.  With ``live_rows`` and no frequency in psi, M itself holds only the
    rows gamma + g that its terms z^g move the kept rows gamma to, in basis
    order (153 on corpus 13), which is all ``truncated_norm`` reads of it; a
    pairing matrix can fill any row.
    """
    n, A, b = problem.n, problem.phi.A, problem.phi.b
    B = _basis(n, max_degree)
    size = len(B)
    # degree d is rows edge[d]:edge[d + 1] of the graded basis
    edge = [math.comb(d + n - 1, n) for d in range(max_degree + 2)]
    inner = edge[max_degree]
    up = _raised(B, edge)
    lift = np.sqrt(B[:inner] + 1.0)
    # alpha's parent is alpha - e_i for its first nonzero coordinate i
    parent = np.zeros(size, dtype=int)
    direction = np.zeros(size, dtype=int)
    for j in reversed(range(n)):
        parent[up[:, j]] = np.arange(inner)
        direction[up[:, j]] = j
    root = np.sqrt(B[np.arange(size), direction])

    # terms without a frequency move rows; the others add up to one pairing matrix
    shifts, pairing = [], None
    for coeff, power, freq in problem.psi.terms:
        tables = [_coordinate_pairing(f, g, max_degree) for f, g in zip(freq, power)]
        if any(freq):
            table = np.full((size, size), coeff)
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

    # Q keeps the rows that can hold a nonzero; gamma is row pos[gamma], its rank among the
    # kept rows, or among the kept rows of its degree when b = 0
    moved, drift = [j for j in range(n) if A[:, j].any()], b.any()
    reach = ~B[:, [j for j in range(n) if j not in moved]].any(axis=1)
    below = np.concatenate(([0], np.cumsum(reach)))  # below[k]: rows kept among the first k
    pos = below[:-1] - (0 if drift else np.repeat(below[edge[:-1]], np.diff(edge)))
    below, kept = below.tolist(), np.flatnonzero(reach)
    if live_rows and pairing is None:
        live = np.unique(np.concatenate([dst[kept[kept < len(dst)]] for dst, _ in shifts]))
    else:
        live = np.arange(size)
    at = np.zeros(size, dtype=int)  # at[beta]: the row of M that holds beta
    at[live] = np.arange(len(live))
    first = edge[min_degree]
    M = np.zeros((len(live), size - first), dtype=complex)
    rows, Q = kept[:1], np.ones((1, 1), dtype=complex)
    for d in range(max_degree + 1):
        start = 0 if drift else below[edge[d]]
        if d:
            children = slice(edge[d], edge[d + 1])
            i = direction[children]
            X = Q[:, parent[children] - edge[d - 1]]
            # b_i keeps a row gamma and A_ij z_j moves it to gamma + e_j
            moves = [(rows, X * b[i])] if drift else []
            moves += [(up[rows, j], lift[rows, j, None] * X * A[i, j]) for j in moved]
            rows = kept[start: below[edge[d + 1]]]
            Q = np.zeros((len(rows), len(i)), dtype=complex)
            for dst, value in moves:
                Q[pos[dst]] += value
            Q /= root[children]
        if d < min_degree:
            continue
        cols = slice(edge[d] - first, edge[d + 1] - first)
        for dst, weight in shifts:
            s = max(below[len(dst)] - start, 0)  # the rows gamma < len(dst)
            M[at[dst[rows[:s]]], cols] += weight[rows[:s], None] * Q[:s]
        if pairing is not None:
            full = np.zeros((edge[d + 1], Q.shape[1]), dtype=complex)
            full[rows] = Q
            M[:, cols] += pairing[:, : edge[d + 1]] @ full
    return M


def f2_matrix(problem: WcoProblem, spec: TruncationSpec | None = None) -> np.ndarray:
    """Galerkin matrix of the operator on the degree-cut orthonormal basis.

    Only meaningful as an operator approximation for p = q = 2.
    """
    spec = spec or TruncationSpec()
    return _matrix_block(problem, spec.max_degree)


def truncated_norm(matrix: np.ndarray) -> float:
    """Largest singular value of a truncated matrix (0 for an empty or all-zero one).

    sigma_max^2 is the top eigenvalue of M^H M, read by Lanczos iteration on
    x -> M^H (M x) with full reorthogonalization, from a complex Gaussian start
    vector of a fixed seed.  Zero rows add nothing to M^H M, so the iteration
    reads only the rows that hold a nonzero.  Every Ritz value lies below that
    eigenvalue; the iteration stops when the residual bound of the top Ritz
    pair is at rounding level, or after as many steps as M has columns.
    """
    if matrix.ndim != 2:
        raise DimensionError("expected a 2-d matrix")
    matrix = matrix[matrix.any(axis=1)]
    if matrix.size == 0:
        return 0.0
    # the iteration runs on M / scale, so that M^H M neither overflows nor underflows
    scale = float(np.abs(matrix).max())
    dim = matrix.shape[1]
    rng = np.random.default_rng(_LANCZOS_SEED)
    q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    q /= np.linalg.norm(q)
    basis: list[np.ndarray] = []
    tri = np.zeros((16, 16))  # the Lanczos tridiagonal in its leading k x k block, doubled when full
    for k in range(dim):
        basis.append(q)
        w = ((matrix @ (q / scale)).conj() @ matrix).conj() / scale
        tri[k, k] = np.vdot(q, w).real
        V = np.array(basis)
        conj = V.conj()
        for _ in range(2):  # twice is enough to keep the basis orthogonal to rounding
            w -= V.T @ (conj @ w)
        beta = float(np.linalg.norm(w))
        ritz, vecs = np.linalg.eigh(tri[: k + 1, : k + 1])
        top = float(ritz[-1])
        if beta * abs(vecs[-1, -1]) <= np.finfo(float).eps * top:
            break
        if k + 1 == len(tri):
            tri = np.pad(tri, (0, len(tri)))
        tri[k, k + 1] = tri[k + 1, k] = beta
        q = w / beta
    return scale * math.sqrt(max(top, 0.0))


@lru_cache(maxsize=8)
def _probe_directions(n: int) -> np.ndarray:
    """The n coordinate axes, then eight random unit directions from a fixed seed, as read-only rows."""
    dirs = [np.eye(n, dtype=complex)[i] for i in range(n)]
    rng = np.random.default_rng(7)
    for _ in range(8):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        dirs.append(v / np.linalg.norm(v))
    out = np.array(dirs)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=8)
def _kernel_points(n: int) -> np.ndarray:
    """The kernel probes w = r d, r over ``_KERNEL_RADII`` and then d over ``_probe_directions``, as read-only rows."""
    out = np.array([r * d for r in _KERNEL_RADII for d in _probe_directions(n)])
    out.setflags(write=False)
    return out


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
    sqrt(P(N + 1, |w|^2)), all P from one ``special.gamma_p`` call.  Returns
    the probe points, their quotients and their floors
    sqrt(delta) / sqrt(P(N + 1, |w|^2)), the largest quotient rounding alone
    can give, over the probes whose denominator is nonzero and whose form fits
    a double.
    """
    n = problem.n
    w = _kernel_points(n)
    # ||(I - P_N) k_w||^2 = 1 - e^{-|w|^2} sum_{k <= N} |w|^(2k) / k!
    #                    = P(N + 1, |w|^2), the regularized incomplete gamma
    square_w = np.sum(np.abs(w) ** 2, axis=1)
    denom = np.sqrt(gamma_p(N + 1, square_w))
    kept = denom > 0.0
    if not kept.any():
        return np.zeros((0, n), dtype=complex), np.zeros(0), np.zeros(0)
    w, denom = w[kept], denom[kept]
    v = w @ problem.phi.A.conj()  # rows A* w
    beta = w.conj() @ problem.phi.b
    s = np.exp(-0.5 * square_w[kept])
    probes = len(w)

    psi = problem.psi.terms
    c = np.array([t.coeff for t in psi])
    g = np.array([t.power for t in psi])
    f = np.array([t.freq for t in psi], dtype=complex)
    low = _basis(n, N)
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
    best = truncated_norm(_matrix_block(problem, N + _MARGIN, N + 1, live_rows=True))
    _, quotients, _ = _kernel_tail_quotients(problem, N)
    return max(best, float(quotients.max(initial=0.0)))


def _kernel_terms(points: np.ndarray) -> list[Term]:
    """The terms of the normalized kernels e^{-|w|^2/2} e^{<z, w>} at the rows w of ``points`` (``normalized_kernel``'s)."""
    n = points.shape[1]
    scales = np.sum(np.abs(points) ** 2, axis=1).tolist()
    return [Term(complex(math.exp(-0.5 * x)), (0,) * n, tuple(w)) for x, w in zip(scales, points.tolist())]


def _images(problem: WcoProblem, probes: list[tuple[Term, ...]]) -> list[tuple[Term, ...]]:
    """The canonical terms of W f = psi (f o phi) for the canonical terms of each probe f, as ``apply_wco`` forms them.

    A term c z^h e^{<z, w>} goes to c e^{<b, w>} (A z + b)^h e^{<z, A* w>}, and
    e^{<b, w>} and A* w are taken for the w of all terms at once, each with the
    bits of ``compose_affine``'s own.  (A z + b)^h is expanded once per power
    h != 0 and scaled by c e^{<b, w>}; where c e^{<b, w>} = 1 or |h| = 1,
    which covers every probe of ``rayleigh_sweep``, that gives
    compose_affine's coefficients up to the sign of a zero real or imaginary
    part, which no norm reads.  Each composed probe and each product with
    psi is put in canonical form, with compose_affine's and multiply's term
    order, so merges and drops come out the same.
    """
    n, phi = problem.n, problem.phi
    terms = [t for f in probes for t in f]
    freqs = np.array([t.freq for t in terms], dtype=complex).reshape(len(terms), n)
    # b tiled to full rows: times a broadcast row, numpy's complex product can round differently
    shifts = np.exp(np.sum(np.tile(phi.b, (len(terms), 1)) * np.conj(freqs), axis=1)).tolist()
    moved = np.matmul(phi.A.conj().T, freqs[:, :, None])[:, :, 0].tolist()
    expanded: dict[tuple[int, ...], tuple[Term, ...]] = {}
    images, k = [], 0
    for f in probes:
        composed = []
        for coeff, power, _ in f:
            base, v = coeff * shifts[k], tuple(moved[k])
            k += 1
            if not any(power):
                composed.append(Term(base, power, v))
                continue
            if power not in expanded:
                expanded[power] = compose_affine(monomial(n, power), phi).terms
            composed += [Term(base * c, h, v) for c, h, _ in expanded[power]]
        composed = canonical_terms(n, composed)
        images.append(canonical_terms(n, [
            Term(c1 * c2, tuple(map(add, p1, p2)), tuple(map(add, w1, w2)))
            for c1, p1, w1 in problem.psi.terms for c2, p2, w2 in composed
        ]))
    return images


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

    Probes: normalized kernels at w = 0 and at the points of
    ``_kernel_tail_quotients``, low monomials, and a few kernel combinations.
    Every quotient is a lower bound for the norm.  No probe image is built
    as a symbol: ``_images`` forms all of them from term arrays (a kernel's
    image is e^{<b, w> - |w|^2/2} psi e^{<z, A* w>} in closed form), and
    ``quad.fock_norms`` norms them with ``fock_norm``'s dispatch, the p = 2
    Gram tables shared, so each quotient has the bits of
    ``fock_norm(apply_wco(psi, phi, f), q).value / fock_norm(f, p).value``.
    """
    spec = spec or TruncationSpec()
    n = problem.n
    dirs = _probe_directions(n)
    points = np.concatenate([np.zeros((1, n), dtype=complex), _kernel_points(n)])
    labels = ["kernel r=0"] + [f"kernel r={r:g} dir={k}" for r in _KERNEL_RADII for k in range(len(dirs))]
    probes = [(t,) for t in _kernel_terms(points)]
    for alpha in basis_indices(n, 3)[1:]:
        labels.append(f"monomial {alpha}")
        probes.append((Term(1 + 0j, alpha, (0j,) * n),))
    first = (1,) + (0,) * (n - 1)
    for k, d in enumerate(dirs[:3]):
        labels += [f"kernel pair dir={k}", f"monomial*kernel dir={k}"]
        probes += [canonical_terms(n, _kernel_terms(np.array([d, -d]))), (Term(1 + 0j, first, tuple(d.tolist())),)]
    denoms = fock_norms(probes, n, problem.p, spec.quad)
    kept = [k for k, denom in enumerate(denoms) if denom > 0]
    nums = fock_norms(_images(problem, [probes[k] for k in kept]), n, problem.q, spec.quad)
    records = tuple(SweepRecord(labels[k], num / denoms[k]) for k, num in zip(kept, nums))
    best = max((rec.quotient for rec in records), default=0.0)
    return SweepResult(records, best)


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

    The kernel images come from ``_images`` in closed form, all rays at
    once, and are normed by ``quad.fock_norms``.  Compact operators send
    these to zero along every ray; non-compact bounded ones keep some ray
    bounded away from zero.
    """
    spec = spec or DEFAULT_SPEC
    n = problem.n
    if directions is None:
        directions = [np.eye(n, dtype=complex)[i] for i in range(n)]
    if base is None:
        base = np.zeros(n, dtype=complex)
    base = np.asarray(base, dtype=complex)
    dirs = [np.asarray(d, dtype=complex) for d in directions]
    if any(dv.shape != (n,) for dv in dirs):
        raise DimensionError("directions must be vectors in C^n")
    points = np.array([base + r * dv for dv in dirs for r in _KERNEL_RADII]).reshape(-1, n)
    values = fock_norms(_images(problem, [(t,) for t in _kernel_terms(points)]), n, problem.q, spec)
    size = len(_KERNEL_RADII)
    return [
        WitnessRay(tuple(dv), tuple(base), _KERNEL_RADII, tuple(values[k * size: (k + 1) * size]))
        for k, dv in enumerate(dirs)
    ]
