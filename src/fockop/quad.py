"""Gaussian-weighted L^p norms on C^n.

``fock_norm`` computes

    ||f||_p = ( (p/2pi)^n  Integral_{C^n} |f(z)|^p exp(-p|z|^2/2) dA(z) )^(1/p)

and ``fock_sup_norm`` the weighted sup  sup_z |f(z)| exp(-|z|^2/2).

Single-term symbols have exact closed forms (the integrals reduce to Gaussian
radial moments), and at p = 2 every symbol does: ``f2_inner`` is the exact
inner product of the p = 2 space, a finite sum per coordinate, contracted
from the row blocks of the term Gram matrix ``f2_gram``.  Other
exponents go through tensor-product Gauss-Hermite quadrature centered at the
mean frequency, which also runs at p = 2 when ``allow_closed_form=False`` and
serves there as the cross-check.

A tensor-product grid over several complex axes (here and in ``wco``) is
never built whole: ``grid_blocks`` splits its points, in the row-major order
of ``np.meshgrid(..., indexing="ij")``, into blocks of whole rows of the first
axis holding at most ``max(_GRID_BLOCK, product of the other axis sizes)``
points, and the sums run block by block.  ``tensor_values`` evaluates a
symbol on each block from per-axis factor tables, for any number of axes;
``grid_points`` stacks a block's points for the slice-norm fallback of ell in
``wco``, the one integrand that is not separable.  ``tensor_sup`` is the one
grid-plus-local-search maximizer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionError, DomainError
from .funcspace import ExpPoly, slice_head
from .linalg import as_cvector

__all__ = ["QuadSpec", "NormResult", "f2_gram", "f2_inner", "fock_norm", "fock_sup_norm", "grid_blocks",
           "slice_norm", "tensor_sup", "tensor_values"]


#: fewest Gauss-Hermite nodes per real axis a certified quadrature takes
MIN_NODES = 8


@dataclass(frozen=True)
class QuadSpec:
    """Knobs for the numerical engines.

    nodes_per_axis defaults to a dimension-dependent value when None.
    ``allow_closed_form=False`` forces the quadrature path even where a closed
    form exists (used by cross-validation tests).
    """

    nodes_per_axis: int | None = None
    seed: int = 20260825
    sup_radius: float | None = None
    refine_iters: int = 2
    allow_closed_form: bool = True

    def resolve_nodes(self, n: int) -> int:
        k = self.nodes_per_axis if self.nodes_per_axis is not None else (40 if n <= 2 else 24)
        if k < MIN_NODES:
            raise DomainError(f"certified quadrature needs at least {MIN_NODES} nodes per axis")
        return int(k)


DEFAULT_SPEC = QuadSpec()


@dataclass(frozen=True)
class NormResult:
    """A computed norm with its provenance.

    ``mode`` is closed_form or quadrature.  Single-term
    closed forms carry err_estimate 0; the p = 2 closed form of a multi-term
    symbol carries a floating-point rounding bound.  ``tail_radius`` records,
    for sup searches, the radius beyond which the analytic tail bound rules
    out a larger value.
    """

    value: float
    mode: str
    err_estimate: float
    tail_radius: float | None = None


def _check_p(p: float) -> float:
    p = float(p)
    if not (p > 0 and math.isfinite(p)):
        raise DomainError(f"exponent must satisfy 0 < p < inf, got {p}")
    return p


# -- closed forms -----------------------------------------------------------


def single_term_norm(coeff: complex, power: tuple[int, ...], freq: tuple[complex, ...], p: float) -> float:
    """Exact norm of coeff * z^power * exp(<z, freq>).

    Per coordinate the integral is a Gaussian radial moment:
        (p/2pi) int |z|^(p a) e^{p Re(z conj(c)) - p|z|^2/2} dA
      = Gamma(pa/2 + 1) * 1F1(pa/2 + 1; 1; p|c|^2/2) * (p/2)^(-pa/2).
    """
    log_total = math.log(abs(coeff)) if coeff != 0 else -math.inf
    if coeff == 0:
        return 0.0
    if any(power):
        from scipy.special import gamma, hyp1f1  # imported here: loading it dominates start-up time
    for a, c in zip(power, freq):
        m = p * a
        x = p * (abs(c) ** 2) / 2.0
        if a == 0:
            # 1F1(1;1;x) = e^x, so the factor is exactly e^x
            log_factor = x
        else:
            val = gamma(m / 2.0 + 1.0) * hyp1f1(m / 2.0 + 1.0, 1.0, x) * (p / 2.0) ** (-m / 2.0)
            log_factor = math.log(val)
        log_total += log_factor / p
    return math.exp(log_total)


def factor_argmax(a: float, wmod: float, d: int) -> float:
    """The maximizer rho >= 0 of  d log(rho) + wmod rho - ((1-a^2)/2) rho^2 (0 when a >= 1)."""
    t = (1.0 - a * a) / 2.0
    if t <= 0.0:
        return 0.0
    if d == 0:
        return wmod / (2.0 * t)
    return (wmod + math.sqrt(wmod * wmod + 8.0 * t * d)) / (4.0 * t)


def factor_log_max(a: float, wmod: float, d: int) -> float:
    """log sup over rho >= 0 of  d log(rho) + wmod rho - ((1-a^2)/2) rho^2.

    It is one coordinate's factor of sup ell; a = 0 gives the weighted sup of
    |z|^d e^{wmod |z|}, a coordinate's factor of a single term's sup norm.
    """
    t = (1.0 - a * a) / 2.0
    if t <= 0.0:
        return 0.0  # finiteness requires wmod == 0 and d == 0 here
    if d == 0:
        return wmod * wmod / (4.0 * t)
    rho = factor_argmax(a, wmod, d)
    return d * math.log(rho) + wmod * rho - t * rho * rho


# -- the exact p = 2 inner product -------------------------------------------

#: largest number of term pairs a block of ``f2_gram`` holds, unless one row holds more
_GRAM_BLOCK = 1 << 20
_UNIT_ROUNDOFF = 2.0 ** -53


@lru_cache(maxsize=8)
def _pair_weights(top: int) -> tuple[np.ndarray, np.ndarray]:
    """(j! for j <= top, binomials C(g, j) for g, j <= top) as floats."""
    fact = np.array([float(math.factorial(j)) for j in range(top + 1)])
    binom = np.array([[float(math.comb(g, j)) for j in range(top + 1)] for g in range(top + 1)])
    return fact, binom


def _distinct_pairs(powers: np.ndarray, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (power, frequency) pairs of one coordinate and each term's row among them."""
    rows: dict[tuple[int, complex], int] = {}
    index = np.array([rows.setdefault(key, len(rows)) for key in zip(powers.tolist(), freqs.tolist())])
    powers = np.array([key[0] for key in rows])
    freqs = np.array([key[1] for key in rows], dtype=complex)
    return powers, freqs, index


def _coordinate_table(
    gs: np.ndarray, cs: np.ndarray, ds: np.ndarray, es: np.ndarray, orthonormal: bool = False
) -> np.ndarray:
    """<z^g e^{z conj(c)}, z^d e^{z conj(e)}> on the one-variable p = 2 space.

    Because z^d e^{z conj(e)} is the d-th derivative in conj(e) of the
    reproducing kernel at e, the pairing is the d-th derivative of
    z^g e^{z conj(c)} at z = e:

        e^{conj(c) e} * sum_{j <= min(g, d)} j! C(g, j) C(d, j) e^(g-j) conj(c)^(d-j),

    a finite sum, for every pair of rows (g, c) and columns (d, e).  With
    ``orthonormal`` the powers are e_g = z^g / sqrt(g!) instead; the j-th term
    is then sqrt(C(g, j) C(d, j)) e^(g-j) / sqrt((g-j)!) conj(c)^(d-j) / sqrt((d-j)!),
    whose factors stay near the size of the result for every degree whose
    factorial fits a double.
    """
    cb = np.conj(cs)
    top_g, top_d = int(gs.max()), int(ds.max())
    e_pow = np.vander(es, top_g + 1, increasing=True)  # e_pow[b, k] = e_b^k
    c_pow = np.vander(cb, top_d + 1, increasing=True)  # c_pow[a, k] = conj(c_a)^k
    fact, binom = _pair_weights(max(top_g, top_d))
    if orthonormal:
        e_pow /= np.sqrt(fact[: top_g + 1])
        c_pow /= np.sqrt(fact[: top_d + 1])
        left = right = np.sqrt(binom)
    else:
        left, right = fact * binom, binom
    total = e_pow[:, gs].T * c_pow[:, ds]  # the j = 0 term
    for j in range(1, min(top_g, top_d) + 1):
        weight = np.outer(left[gs, j], right[ds, j])
        total += weight * e_pow[:, np.maximum(gs - j, 0)].T * c_pow[:, np.maximum(ds - j, 0)]
    return np.exp(np.outer(cb, es)) * total


def f2_gram(
    powers: np.ndarray, freqs: np.ndarray, col_powers: np.ndarray, col_freqs: np.ndarray, orthonormal: bool = False
) -> Iterator[tuple[slice, np.ndarray]]:
    """Row blocks of the p = 2 Gram matrix G[a, b] = <u_a, v_b> (antilinear in v_b).

    Row a is u_a = z^powers[a] e^{<z, freqs[a]>} and column b is
    v_b = z^col_powers[b] e^{<z, col_freqs[b]>}, the (terms, n) arrays of
    powers and frequencies; with ``orthonormal`` every z^k is e_k = z^k / sqrt(k!)
    instead.  Per coordinate the pairing table is built once over the distinct
    (power, frequency) pairs, and each block gathers the tables onto its rows
    and multiplies them across coordinates.  Yields (rows, block) with the
    blocks in row order, each holding at most ``max(_GRAM_BLOCK, columns)``
    entries.
    """
    tables = []
    for i in range(powers.shape[1]):
        gs, cs, rows = _distinct_pairs(powers[:, i], freqs[:, i])
        ds, es, cols = _distinct_pairs(col_powers[:, i], col_freqs[:, i])
        tables.append((_coordinate_table(gs, cs, ds, es, orthonormal), rows, cols))
    step = max(1, _GRAM_BLOCK // len(col_powers))
    for lo in range(0, len(powers), step):
        sl = slice(lo, lo + step)
        yield sl, math.prod(table[np.ix_(rows[sl], cols)] for table, rows, cols in tables)


def _term_arrays(f: ExpPoly) -> tuple[np.ndarray, np.ndarray]:
    """The (terms, n) powers and frequencies of a symbol with at least one term."""
    return np.array([t.power for t in f.terms]), np.array([t.freq for t in f.terms])


def f2_inner(f: ExpPoly, g: ExpPoly) -> complex:
    """Exact p = 2 inner product <f, g> (antilinear in g).

    The Gram blocks of ``f2_gram`` between the terms of f and of g are
    contracted with the coefficients.
    """
    if f.n != g.n:
        raise DimensionError("inner product needs equal arity")
    if not f.terms or not g.terms:
        return 0j
    cf = np.array([t.coeff for t in f.terms], dtype=complex)
    cg = np.conj(np.array([t.coeff for t in g.terms], dtype=complex))
    rows = _term_arrays(f)
    total = 0j
    for sl, block in f2_gram(*rows, *(rows if g is f else _term_arrays(g))):
        total += complex(cf[sl] @ block @ cg)
    return total


def _f2_norm(f: ExpPoly) -> NormResult:
    """Exact p = 2 norm of a multi-term symbol with a rounding bound.

    Every sum and product in ``f2_inner`` has relative error at most
    gamma_m = m u / (1 - m u) of the same sums taken in absolute value, with m
    the longest chain of operations.  Those absolute sums are at most
    (sum_a ||t_a||_2)^2 over the terms t_a: with every frequency replaced by
    its modulus they become the Gram matrix of a positive kernel, which
    Cauchy-Schwarz bounds by its diagonal.
    """
    square = f2_inner(f, f).real
    chain = f.n * (2 * max(max(t.power) for t in f.terms) + 7) + 2 * len(f.terms) + 2
    gamma_m = chain * _UNIT_ROUNDOFF / (1.0 - chain * _UNIT_ROUNDOFF)
    delta = gamma_m * sum(single_term_norm(c, power, freq, 2.0) for c, power, freq in f.terms) ** 2
    value = math.sqrt(max(square, 0.0))
    # |sqrt(s) - sqrt(s')| <= min(|s - s'| / sqrt(s), sqrt(|s - s'|))
    err = min(delta / value, math.sqrt(delta)) if value > 0 else math.sqrt(delta)
    return NormResult(value, "closed_form", err)


# -- Gauss-Hermite machinery --------------------------------------------------


@lru_cache(maxsize=64)
def hermite_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-node Gauss-Hermite nodes and weights for Integral g(t) e^{-t^2} dt (cached, read-only)."""
    t, w = np.polynomial.hermite.hermgauss(k)
    t.setflags(write=False)
    w.setflags(write=False)
    return t, w


@lru_cache(maxsize=64)
def _gh_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    t, w = hermite_rule(k)
    # w * exp(t^2) stays O(1); compute it in log space to dodge overflow.
    wn = np.exp(np.log(w) + t * t)
    return t, wn


def plane_axis(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The complex nodes x + iy of one coordinate, x over ``xs`` and y over ``ys``, x-major."""
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def coordinate_grid(center: complex, p: float, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Complex nodes and weights for one complex coordinate of the p-measure.

    The weights fold in the measure prefactor (p/2pi), the Gaussian weight
    exp(-p|z|^2/2) and the (2/p) substitution factor, so summing weight times
    integrand approximates (p/2pi) Integral g(z) exp(-p|z|^2/2) dA(z).
    """
    t, wn = _gh_rule(k)
    h = math.sqrt(2.0 / p)
    z = plane_axis(center.real + t * h, center.imag + t * h)
    w = (wn[:, None] * wn[None, :]).ravel() * (2.0 / p)
    return z, w * np.exp(-p * (np.abs(z) ** 2) / 2.0) * (p / (2.0 * math.pi))


#: most points a tensor-product quadrature block holds, unless one row of the
#: first axis alone holds more
_GRID_BLOCK = 1 << 15


def grid_blocks(sizes: Sequence[int]) -> Iterator[slice]:
    """Blocks of the tensor product of axes with these sizes, as first-axis row slices.

    Block ``rows`` holds the points whose first index lies in ``rows`` and
    whose other indices are free.  In the row-major order of
    ``np.meshgrid(..., indexing="ij")`` raveled, those points are one
    contiguous stretch, and the blocks follow each other in that order, so
    concatenating ``np.meshgrid(axis0[rows], *other_axes, indexing="ij")``
    raveled over the blocks gives the whole grid.  A block holds at most
    ``max(_GRID_BLOCK, prod(sizes[1:]))`` points.
    """
    inner = math.prod(sizes[1:])
    step = max(1, _GRID_BLOCK // inner)
    for lo in range(0, sizes[0], step):
        yield slice(lo, min(lo + step, sizes[0]))


def block_axes(per_axis: Sequence[np.ndarray], rows: slice) -> list[np.ndarray]:
    """Per-axis arrays of one ``grid_blocks`` block (axis 0 cut to ``rows``), shaped to broadcast over it.

    Array i gets shape (1, ..., len, ..., 1), its length at position i, so an
    elementwise expression in them gives the block's values in meshgrid "ij" order.
    """
    shape = [1] * len(per_axis)
    return [np.reshape(v[rows] if i == 0 else v, shape[:i] + [-1] + shape[i + 1 :]) for i, v in enumerate(per_axis)]


def grid_points(axes: Sequence[np.ndarray], rows: slice) -> np.ndarray:
    """The (M, len(axes)) points of one ``grid_blocks`` block, in meshgrid "ij" order."""
    mesh = np.meshgrid(axes[0][rows], *axes[1:], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def tensor_values(f: ExpPoly, axes: Sequence[np.ndarray]) -> Iterator[tuple[slice, np.ndarray]]:
    """``f`` on the tensor grid of the complex ``axes`` (one per variable), block by block.

    Yields each ``grid_blocks`` block ``rows`` with the values there, shaped
    (len rows, len axes[1], ..., len axes[-1]).  Per axis i the factor table
    of z^power_i e^{z conj(freq_i)} (terms by nodes) is built once; per block
    the coefficients scale the first axis's table, each middle axis is merged
    into the term-wise (Khatri-Rao) product, and one matmul with the last
    axis's table sums over the terms.
    """
    coeffs = np.array([t.coeff for t in f.terms], dtype=complex)
    tables = [
        np.array([np.exp(z * np.conj(freq[i])) * z ** power[i] for _, power, freq in f.terms]) for i, z in enumerate(axes)
    ]
    sizes = [len(z) for z in axes]
    for rows in grid_blocks(sizes):
        if f.n == 1:
            yield rows, coeffs @ tables[0][:, rows]
            continue
        g = coeffs[:, None] * tables[0][:, rows]
        for table in tables[1:-1]:
            g = (g[:, :, None] * table[:, None, :]).reshape(len(coeffs), -1)
        yield rows, (g.T @ tables[-1]).reshape(-1, *sizes[1:])


def _gh_integral_norm(f: ExpPoly, p: float, k: int) -> float:
    """Quadrature value of the norm using k nodes per real axis, summed block by block."""
    if not f.terms:
        return 0.0
    center = np.mean(np.array([t.freq for t in f.terms], dtype=complex), axis=0)
    coords, weights = zip(*(coordinate_grid(complex(c), p, k) for c in center))
    total = 0.0
    for rows, vals in tensor_values(f, coords):
        h = np.abs(vals) ** p
        if f.n == 1:
            total += float(np.sum(h * weights[0][rows]))
            continue
        # contract the weights into |f|^p one axis at a time, the first axis first
        acc = weights[0][rows] @ h.reshape(len(h), -1)
        for w in weights[1:-1]:
            acc = w @ acc.reshape(len(w), -1)
        total += float(acc @ weights[-1])
    return max(total, 0.0) ** (1.0 / p)


# -- public ops --------------------------------------------------------------


def fock_norm(f: ExpPoly, p: float, spec: QuadSpec | None = None) -> NormResult:
    """Gaussian-weighted L^p norm of an exact symbol.

    Exact for single terms at every p and for every symbol at p = 2; other
    exponents, and every multi-term symbol when ``allow_closed_form=False``,
    use Gauss-Hermite quadrature with a coarser rule as the error estimate.
    """
    spec = spec or DEFAULT_SPEC
    p = _check_p(p)
    if f.is_zero():
        return NormResult(0.0, "closed_form", 0.0)
    if len(f.terms) == 1 and spec.allow_closed_form:
        t = f.terms[0]
        return NormResult(single_term_norm(t.coeff, t.power, t.freq, p), "closed_form", 0.0)
    if p == 2.0 and spec.allow_closed_form:
        return _f2_norm(f)
    k = spec.resolve_nodes(f.n)
    value = _gh_integral_norm(f, p, k)
    k2 = max(MIN_NODES, k // 2)
    if k2 == k:
        k2 = k - 2
    check = _gh_integral_norm(f, p, k2)
    err = max(abs(value - check), 1e-11 * (1.0 + abs(value)))
    return NormResult(value, "quadrature", err)


def _tail_bound(f: ExpPoly, r: float) -> float:
    """Upper bound for |f(z)| e^{-|z|^2/2} on |z| >= r (valid once decreasing)."""
    total = 0.0
    for coeff, power, freq in f.terms:
        cmod = float(np.linalg.norm(np.array(freq, dtype=complex)))
        total += abs(coeff) * r ** sum(power) * math.exp(cmod * r - r * r / 2.0)
    return total


def tensor_sup(blocks: Iterable, axes: Sequence[np.ndarray], free: Sequence[int], value_at: Callable, refine_iters: int):
    """Largest value on a tensor grid, polished by Nelder-Mead from the best node.

    ``blocks`` yields (rows, values) over the ``grid_blocks`` blocks of the
    complex ``axes`` (overflow there is ignored); ``value_at(z)`` is the value
    at one point.  The polish moves the coordinates in ``free`` only.  Returns
    (value, err_estimate, edge_ratio), edge_ratio being the largest value on
    the outer shell (radius >= 0.8 of the largest) over the overall one; from
    0.5 on, values grow toward the boundary and the maximum is not polished.
    A non-finite grid value gives (inf, inf, 1.0).
    """
    rmax = math.sqrt(sum(float(np.max(np.abs(z) ** 2)) for z in axes))
    best, best_at, shell_max = -math.inf, None, -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, vals in blocks:
            vals = np.nan_to_num(vals, nan=np.inf)
            if not np.all(np.isfinite(vals)):
                return math.inf, math.inf, 1.0
            zs = block_axes(axes, rows)
            rad = np.sqrt(sum(np.abs(z) ** 2 for z in zs))
            shell_max = max(shell_max, float(vals.max(where=rad >= 0.8 * rmax, initial=-np.inf)))
            idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
            if vals[idx] > best:
                best = float(vals[idx])
                best_at = np.array([z[i] for z, i in zip([axes[0][rows], *axes[1:]], idx)])
    edge = shell_max / best if best > 0 else 0.0

    refined = best
    if refine_iters > 0 and best > 0 and edge < 0.5:
        from scipy import optimize  # imported here: loading it dominates start-up time

        free, half = list(free), len(free)

        def neg_log(x):
            z = best_at.copy()
            z[free] = x[:half] + 1j * x[half:]
            return -math.log(value_at(z) + 1e-300)

        x0 = np.concatenate([best_at[free].real, best_at[free].imag])
        res = optimize.minimize(
            neg_log, x0, method="Nelder-Mead",
            options={"maxiter": 150 * refine_iters, "xatol": 1e-9, "fatol": 1e-11},
        )
        cand = math.exp(-float(res.fun))
        if cand > refined:
            refined = cand
    return refined, abs(refined - best), edge


#: points per real axis of the sup-norm search grid, by number of variables (7 beyond)
_SUP_GRID = {1: 41, 2: 15}


def fock_sup_norm(f: ExpPoly, spec: QuadSpec | None = None) -> NormResult:
    """Weighted sup-norm sup |f(z)| e^{-|z|^2/2}.

    Single terms are exact; otherwise ``tensor_sup`` searches a grid inside an
    analytically safe radius, so the result is a certified lower bound that
    misses the true sup by at most the grid/polish error.
    """
    spec = spec or DEFAULT_SPEC
    if f.is_zero():
        return NormResult(0.0, "closed_form", 0.0)
    if len(f.terms) == 1 and spec.allow_closed_form:
        coeff, power, freq = f.terms[0]
        log_sup = sum((factor_log_max(0.0, abs(c), k) for k, c in zip(power, freq)), start=math.log(abs(coeff)))
        return NormResult(math.exp(log_sup), "closed_form", 0.0)

    n = f.n
    cmax = max(
        float(np.linalg.norm(np.array(t.freq, dtype=complex))) for t in f.terms
    )
    tcount = len(f.terms)
    maxc = f.max_coeff_modulus()
    maxdeg = f.degree()
    radius = cmax + 2.0
    for _ in range(2):
        radius = cmax + math.sqrt(
            max(0.0, 2.0 * math.log(max(tcount * maxc, 1.0))) + 4.0 * maxdeg * math.log1p(radius)
        )
        radius = max(radius, cmax + 2.0)
    if spec.sup_radius is not None:
        radius = max(radius, float(spec.sup_radius))

    line = np.linspace(-radius, radius, _SUP_GRID.get(n, 7))
    axes = [plane_axis(line, line)] * n
    blocks = (
        (rows, np.abs(vals) * np.exp(-sum(np.abs(z) ** 2 for z in block_axes(axes, rows)) / 2.0))
        for rows, vals in tensor_values(f, axes)
    )

    value_at = lambda z: abs(f.eval(z)) * math.exp(-float(np.sum(np.abs(z) ** 2)) / 2.0)  # noqa: E731
    refined, err, _ = tensor_sup(blocks, axes, range(n), value_at, spec.refine_iters)
    while _tail_bound(f, radius) > refined and radius < 80.0:
        radius += 2.0
    return NormResult(refined, "quadrature", err, tail_radius=radius)


def slice_norm(psi: ExpPoly, q: float, head: Sequence[complex], spec: QuadSpec | None = None) -> NormResult:
    """Norm in the remaining variables after freezing the first s coordinates.

    With all n coordinates frozen this degenerates to plain modulus |psi(head)|.
    """
    q = _check_p(q)
    h = as_cvector(head)
    s = h.shape[0]
    if not 0 < s <= psi.n:
        raise DimensionError(f"head length {s} must satisfy 0 < s <= n={psi.n}")
    if s == psi.n:
        return NormResult(abs(psi.eval(h)), "closed_form", 0.0)
    return fock_norm(slice_head(psi, h), q, spec)

