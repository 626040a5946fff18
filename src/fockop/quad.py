"""Gaussian-weighted L^p norms on C^n.

``fock_norm`` computes

    ||f||_p = ( (p/2pi)^n  Integral_{C^n} |f(z)|^p exp(-p|z|^2/2) dA(z) )^(1/p)

and ``slice_norm_many`` the norms, in the last n - s variables, of f with
its first s coordinates frozen at many head points at once.

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
points.  ``tensor_log_sums`` is the one weighted tensor sum, which the
Gauss-Hermite norms and ``wco``'s integral of ell read: it sums alone an axis
that every term shares, drops per axis the nodes that a separable bound
proves negligible (the values stay those of the whole grid up to summation
rounding), evaluates the rest block by block from per-axis factor tables as
``tensor_values`` does, and rescales in logs only the rows whose sums leave
the double range.  ``grid_points`` stacks a block's points for the
slice-norm fallback of ell in ``wco``, the one integrand that is not
separable.  ``tensor_sup`` is the one maximizer: a grid search, refined by
the same search on 3 x 3 grids per coordinate around the best node, each level
one batched evaluation.  Given a bound on each first-axis row of its grid, it
reads only the rows that can hold half the largest value.  Where the centre
of a stencil stays highest, a quadratic model of the log fitted to the
stencil sets the next steps (a Newton step) if it is concave, and the steps
are halved otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, DomainError
from .funcspace import COEFF_DROP_TOL, FREQ_MERGE_TOL, ExpPoly, Term, slice_head
from .linalg import as_cvector
from .special import log_hyp1f1

__all__ = ["QuadSpec", "NormResult", "f2_gram", "f2_inner", "fock_norm", "fock_norms", "grid_blocks", "slice_norm",
           "slice_norm_many", "tensor_log_sums", "tensor_sup", "tensor_values"]


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
    symbol carries a floating-point rounding bound.
    """

    value: float
    mode: str
    err_estimate: float


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
      = Gamma(pa/2 + 1) * 1F1(pa/2 + 1; 1; p|c|^2/2) * (p/2)^(-pa/2),
    whose log is summed from ``math.lgamma`` and ``special.log_hyp1f1``, so a
    factor past the double range does not overflow before the p-th root.
    """
    if coeff == 0:
        return 0.0
    log_total = math.log(abs(coeff))
    for a, c in zip(power, freq):
        m = p * a
        x = p * (abs(c) ** 2) / 2.0
        if a == 0:
            # 1F1(1;1;x) = e^x, so the factor is exactly e^x
            log_factor = x
        else:
            log_factor = math.lgamma(m / 2.0 + 1.0) + log_hyp1f1(m / 2.0 + 1.0, x) - (m / 2.0) * math.log(p / 2.0)
        log_total += log_factor / p
    return exp_or_inf(log_total)


def exp_or_inf(x: float) -> float:
    """e^x, or inf where that leaves the double range: a norm too large for a double reads as not finite."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


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

    It is one coordinate's factor of sup ell.
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
#: most terms over which ``fock_norms`` builds one set of shared Gram tables, unless one symbol has more
_SHARED_TERMS = 128
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


def _gram_tables(powers: np.ndarray, freqs: np.ndarray, col_powers: np.ndarray, col_freqs: np.ndarray,
                 orthonormal: bool = False) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per coordinate, the pairing table over the distinct (power, frequency) pairs and each term's row and column."""
    tables = []
    for i in range(powers.shape[1]):
        gs, cs, rows = _distinct_pairs(powers[:, i], freqs[:, i])
        ds, es, cols = _distinct_pairs(col_powers[:, i], col_freqs[:, i])
        tables.append((_coordinate_table(gs, cs, ds, es, orthonormal), rows, cols))
    return tables


def _gram_blocks(tables, rows: slice, cols: slice) -> Iterator[tuple[slice, np.ndarray]]:
    """Row blocks of the Gram matrix of the row terms ``rows`` against the column terms ``cols`` of ``tables``.

    Each block gathers the tables onto its rows and multiplies them across
    coordinates, and holds at most ``max(_GRAM_BLOCK, columns)`` entries.
    """
    picked = [(table, index[rows], col_index[cols]) for table, index, col_index in tables]
    size, width = len(picked[0][1]), len(picked[0][2])
    step = max(1, _GRAM_BLOCK // width)
    for lo in range(0, size, step):
        sl = slice(lo, lo + step)
        yield sl, math.prod(table[np.ix_(index[sl], col_index)] for table, index, col_index in picked)


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
    tables = _gram_tables(powers, freqs, col_powers, col_freqs, orthonormal)
    yield from _gram_blocks(tables, slice(None), slice(None))


def _term_arrays(terms: Sequence[Term]) -> tuple[np.ndarray, np.ndarray]:
    """The (terms, n) powers and frequencies of at least one term."""
    return np.array([t.power for t in terms]), np.array([t.freq for t in terms])


def _contract(coeffs: Sequence[complex], blocks: Iterable[tuple[slice, np.ndarray]], col_coeffs=None) -> complex:
    """sum_ab c_a G[a, b] conj(d_b) over Gram row blocks, the column coefficients d the row ones by default."""
    cf = np.array(coeffs, dtype=complex)
    cg = np.conj(cf if col_coeffs is None else np.array(col_coeffs, dtype=complex))
    total = 0j
    for sl, block in blocks:
        total += complex(cf[sl] @ block @ cg)
    return total


def f2_inner(f: ExpPoly, g: ExpPoly) -> complex:
    """Exact p = 2 inner product <f, g> (antilinear in g).

    The Gram blocks of ``f2_gram`` between the terms of f and of g are
    contracted with the coefficients.
    """
    if f.n != g.n:
        raise DimensionError("inner product needs equal arity")
    if not f.terms or not g.terms:
        return 0j
    rows = _term_arrays(f.terms)
    blocks = f2_gram(*rows, *(rows if g is f else _term_arrays(g.terms)))
    return _contract([t.coeff for t in f.terms], blocks, [t.coeff for t in g.terms])


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


def coordinate_grid(center: complex, p: float, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex nodes, weights and the weights' logs for one complex coordinate of the p-measure.

    The weights fold in the measure prefactor (p/2pi), the Gaussian weight
    exp(-p|z|^2/2) and the (2/p) substitution factor, so summing weight times
    integrand approximates (p/2pi) Integral g(z) exp(-p|z|^2/2) dA(z).  The
    logs stay finite where the Gaussian factor underflows.
    """
    t, wn = _gh_rule(k)
    h = math.sqrt(2.0 / p)
    z = plane_axis(center.real + t * h, center.imag + t * h)
    w = (wn[:, None] * wn[None, :]).ravel() * (2.0 / p)
    gauss, scale = -p * (np.abs(z) ** 2) / 2.0, p / (2.0 * math.pi)
    return z, w * np.exp(gauss) * scale, np.log(w) + gauss + math.log(scale)


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


def _factor_tables(powers: Sequence, freqs: Sequence, axes: Sequence[np.ndarray], balanced: bool = False):
    """Per axis i, the (terms, nodes) table of z^powers[t][i] e^{z conj(freqs[t][i])} over the nodes z of axes[i].

    With ``balanced``, (tables, logs): each node's column is divided by its largest modulus, whose log
    is logs[i] there, the exponentials' largest real part split off first so that nothing overflows.
    """
    return _axis_tables(np.conj(np.array(freqs, dtype=complex)), tuple(zip(*powers)), axes, balanced)


def _axis_tables(conj_freqs: np.ndarray, powers: Sequence[Sequence], axes: Sequence[np.ndarray], balanced=False):
    """``_factor_tables`` from the (terms, axes) conjugate frequencies and, per axis, the terms' powers.

    A power shared by every term is raised once.  Each is raised with the exponent as given: numpy
    takes z ** 2 for a scalar 2 as a square, whose bits differ from those of a power.
    """
    tables, logs = [], []
    for z, cf, col in zip(axes, conj_freqs.T, powers):
        expo = z * cf[:, None]
        if balanced:
            shift = expo.real.max(axis=0)
            expo -= shift
        tables.append(np.exp(expo) * (z ** col[0] if len(set(col)) == 1 else np.array([z**g for g in col])))
        if balanced:
            peak = np.abs(tables[-1]).max(axis=0)
            tables[-1] /= np.where(peak > 0, peak, 1.0)
            logs.append(shift + np.log(peak))
    return (tables, logs) if balanced else tables


def _block_values(coeffs: np.ndarray, tables: Sequence[np.ndarray], rows: slice, out=None) -> np.ndarray:
    """sum_t coeffs[m, t] prod_i tables[i][t] on the ``grid_blocks`` block ``rows``, for every row m of ``coeffs``.

    Each row's coefficients scale the first axis's table, each middle axis joins the term-wise
    (Khatri-Rao) product, and one matmul with the last axis's table sums over the terms.  Shaped
    (rows, block points) on one axis, else (rows, block points before the last axis, last axis nodes).
    """
    if len(tables) == 1:
        return np.matmul(coeffs, tables[0][:, rows], out=out)
    g = coeffs[:, :, None] * tables[0][:, rows]
    for table in tables[1:-1]:
        g = (g[..., None] * table[:, None, :]).reshape(len(coeffs), len(table), -1)
    return np.matmul(np.swapaxes(g, 1, 2), tables[-1], out=out)


class TermArrays(NamedTuple):
    """The terms of f(z) = sum_t coeffs[0, t] prod_i z_i^powers[i][t] e^{z_i conj_freqs[t, i]} as arrays, built once.

    ``powers`` holds per axis the terms' powers as Python ints.
    """

    coeffs: np.ndarray
    conj_freqs: np.ndarray
    powers: tuple[tuple[int, ...], ...]

    @classmethod
    def of(cls, f: ExpPoly) -> "TermArrays":
        coeffs = np.array([[t.coeff for t in f.terms]], dtype=complex)
        freqs = np.array([t.freq for t in f.terms], dtype=complex)
        return cls(coeffs, np.conj(freqs), tuple(zip(*(t.power for t in f.terms))))

    def tables(self, axes: Sequence[np.ndarray]) -> list[np.ndarray]:
        """The per-axis factor tables over the complex ``axes``, which ``block`` reads."""
        return _axis_tables(self.conj_freqs, self.powers, axes)

    def block(self, tables: Sequence[np.ndarray], rows: slice) -> np.ndarray:
        """f on the ``grid_blocks`` block ``rows`` of the grid of ``tables``, shaped (len rows, len axes[1], ...)."""
        return _block_values(self.coeffs, tables, rows)[0].reshape(-1, *(t.shape[1] for t in tables[1:]))


def tensor_values(f: ExpPoly, axes: Sequence[np.ndarray]) -> Iterator[tuple[slice, np.ndarray]]:
    """``f`` on the tensor grid of the complex ``axes`` (one per variable), block by block.

    Yields each ``grid_blocks`` block ``rows`` with the ``_block_values`` there, shaped
    (len rows, len axes[1], ..., len axes[-1]).
    """
    terms = TermArrays.of(f)
    tables = terms.tables(axes)
    for rows in grid_blocks([len(z) for z in axes]):
        yield rows, terms.block(tables, rows)


#: share of the separable bound's total that the nodes dropped from one axis may carry
_PRUNE_BUDGET = 2.0**-70
#: largest ratio of a row's dropped bound to its kept sum for which the pruned value stands
_PRUNE_CHECK = 2.0**-60


def _node_bounds(
    coeffs: np.ndarray, tables: Sequence[np.ndarray], weights: Sequence[np.ndarray], p: float
) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Separable bounds on the share of each axis node in the rule's sum, for every row of ``coeffs``.

    With u_t the product over the axes of the factor tables and T terms,
    |sum_t c_t u_t|^p <= C_p sum_t |c_t|^p |u_t|^p, C_p = T^max(p - 1, 0)
    (subadditivity of x^p for p <= 1, the power mean for p >= 1).  The node
    weight and |u_t|^p factor over the axes, so with m_ti = w_i |table_ti|^p
    and M_ti its sum over the nodes of axis i, the sum over the whole grid is
    at most C_p sum_t |c_t|^p prod_i M_ti, and the part of it on node j of
    axis i, summed over the other axes, at most
    C_p sum_t |c_t|^p prod_{i' != i} M_ti' m_ti[j].  Returns per axis the
    (rows, terms) factors C_p |c_t|^p prod_{i' != i} M_ti' and the (terms,
    nodes) masses m_ti, whose product is that bound, and the (rows,) bound on
    the whole sum.
    """
    scale = np.abs(coeffs) ** p * np.float64(len(tables[0])) ** max(p - 1.0, 0.0)
    masses = [w * np.abs(table) ** p for table, w in zip(tables, weights)]
    sums = np.array([m.sum(axis=1) for m in masses])
    factors = [scale * np.prod(np.delete(sums, i, axis=0), axis=0) for i in range(len(masses))]
    return factors, masses, scale @ np.prod(sums, axis=0)


def _kept_nodes(factor: np.ndarray, mass: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Mask of the nodes of one axis to keep: the rest carry at most ``_PRUNE_BUDGET`` of every row's bound.

    A node's share is sum_t max_m (factor[m, t] / total[m]) mass[t, j], at
    least its share of each row's total, and nodes are dropped smallest share
    first.  Every node is kept where a bound is not finite and positive.
    """
    if not all(np.isfinite(a).all() for a in (factor, mass, total)) or not (total > 0).all():
        return np.ones(mass.shape[1], dtype=bool)
    share = np.max(factor / total[:, None], axis=0) @ mass
    order = np.argsort(share, kind="stable")
    kept = np.ones(len(share), dtype=bool)
    kept[order[: np.searchsorted(np.cumsum(share[order]), _PRUNE_BUDGET)]] = False
    return kept


def log_sum_exp(a: np.ndarray) -> float:
    """log sum exp(a) over a real array; an infinite or NaN maximum (-inf for no entries) is returned as is."""
    top = a.max(initial=-np.inf)
    return float(top + np.log(np.sum(np.exp(a - top)))) if np.isfinite(top) else float(top)


def _in_range(sums: np.ndarray) -> np.ndarray:
    """Where a sum of nonnegative terms is finite and at least 2^-969, so that terms which underflow cost no digits."""
    return (sums >= np.finfo(float).tiny / _UNIT_ROUNDOFF) & (sums < math.inf)


def _weighted_sums(coeffs, tables, weights, p, axes, mask, log_weights=None) -> np.ndarray:
    """Each row's sum over the grid of mask * prod_i weights[i] |f_m|^p, block by block, in linear scale.

    A block's ``_block_values`` are taken for as many rows at once as fit in ``_GRID_BLOCK`` entries
    (one pair of buffers serves every step), and the weights contracted one axis at a time, the first
    first.  With ``log_weights``, the sums' logs, a block whose sum is not ``_in_range`` summed in logs.
    """
    sizes = [len(w) for w in weights]
    totals = np.zeros(len(coeffs)) if log_weights is None else [[] for _ in coeffs]
    buffers = np.empty(0, dtype=complex), np.empty(0)
    for rows in grid_blocks(sizes):
        w0 = weights[0][rows]
        shape = (len(w0),) if len(sizes) == 1 else (len(w0) * math.prod(sizes[1:-1]), sizes[-1])
        if mask is not None:
            keep = np.broadcast_to(mask(block_axes(axes, rows)), (len(w0), *sizes[1:])).reshape(shape)
        step = max(1, _GRID_BLOCK // math.prod(shape))
        for lo in range(0, len(coeffs), step):
            c = coeffs[lo : lo + step]
            size = len(c) * math.prod(shape)
            if len(buffers[0]) < size:
                buffers = np.empty(size, dtype=complex), np.empty(size)
            vals = _block_values(c, tables, rows, out=buffers[0][:size].reshape(len(c), *shape))
            h = buffers[1][:size].reshape(vals.shape)
            np.power(np.abs(vals, out=h), p, out=h)
            if mask is not None:
                np.multiply(h, keep, out=h)
            if len(sizes) == 1:
                sums = np.sum(np.multiply(h, w0, out=h), axis=1)
            else:
                acc = w0 @ h.reshape(len(c), len(w0), -1)
                for w in weights[1:-1]:
                    acc = w @ acc.reshape(len(c), len(w), -1)
                sums = acc @ weights[-1]
            if log_weights is None:
                totals[lo : lo + step] += sums
                continue
            for m, total, ok in zip(range(lo, lo + len(c)), sums, _in_range(sums)):
                if not ok:
                    terms = p * np.log(np.abs(vals[m - lo])) + sum(block_axes(log_weights, rows)).reshape(shape)
                    total = log_sum_exp(terms if mask is None else terms[keep])
                totals[m].append(math.log(total) if ok else total)
    return totals if log_weights is None else np.array([log_sum_exp(np.array(logs)) for logs in totals])


def _scaled_log_sums(coeffs, powers, freqs, axes, log_weights, p, mask) -> np.ndarray:
    """The log of each row's sum, for rows whose linear sum leaves the double range.

    Every coefficient row, factor-table column (balanced in logs) and weight vector is divided by its
    largest modulus, the removed factors adding up in logs; ``_weighted_sums`` sums the rest, in logs
    point by point where a block's sum is still not ``_in_range``, as where the axes' peaks do not meet.
    """
    top = np.abs(coeffs).max(axis=1)
    with np.errstate(divide="ignore"):
        tables, table_logs = _factor_tables(powers, freqs, axes, balanced=True)
        log_ws = [lw + p * t for lw, t in zip(log_weights, table_logs)]
        tops = [float(lw.max()) for lw in log_ws]
        log_ws = [lw - t for lw, t in zip(log_ws, tops)]
        coeffs = coeffs / np.where(top > 0, top, 1.0)[:, None]
        sums = _weighted_sums(coeffs, tables, [np.exp(lw) for lw in log_ws], p, axes, mask, log_ws)
        return p * np.log(top) + sum(tops) + sums


def tensor_log_sums(
    coeffs: np.ndarray, powers: Sequence, freqs: Sequence, axes: Sequence[np.ndarray], weights: Sequence[np.ndarray],
    log_weights: Sequence[np.ndarray], p: float, log_scale: float = 0.0, mask: Callable | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The weighted tensor sum of every Gauss-Hermite norm and ell integral, for each row m of ``coeffs``:

        e^log_scale  sum over the grid of mask(z) prod_i weights[i](z_i) |f_m(z)|^p,
        f_m(z) = sum_t coeffs[m, t] prod_i z_i^powers[t][i] e^{z_i conj(freqs[t][i])},

    over the tensor grid of the complex ``axes``, as (sums, logs) with the sum sums * e^logs;
    ``log_weights`` are the logs of ``weights``, and ``mask`` maps a block's ``block_axes`` to a mask.
    Without a mask, an axis on which every term has the same factor is summed alone, in logs.  The
    other axes drop the nodes whose share of ``_node_bounds``' separable bound is at most
    ``_PRUNE_BUDGET`` (2^-70) of its total for every row (a mask only lowers the sum), and the rest is
    summed in linear scale with the weights as given, logs staying ``log_scale``.  A row whose dropped
    bound exceeds ``_PRUNE_CHECK`` (2^-60) of its kept sum, as where terms cancel, is summed again over
    the whole rule, so a value is within 2^-60 of the whole rule's; a row whose sum is not
    ``_in_range`` is summed over the whole rule by ``_scaled_log_sums``, with sums 1.
    """
    # overflow is expected here: a bound that is not finite drops no node, and a sum out of range is rescaled
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        tables = _factor_tables(powers, freqs, axes)
        logs = np.full(len(coeffs), float(log_scale))
        if mask is None:
            shared = [i for i, table in enumerate(tables) if (table == table[:1]).all()]
            for i in shared:  # log|z^g e^{z conj(f)}| at the axis nodes z, in logs
                z, g, f = axes[i], powers[0][i], freqs[0][i]
                logs += log_sum_exp(log_weights[i] + p * (np.real(z * np.conj(f)) + (g * np.log(np.abs(z)) if g else 0)))
            if len(shared) == len(axes):  # f_m is then sum_t coeffs[m, t] times the shared factors
                return np.ones(len(coeffs)), logs + p * np.log(np.abs(coeffs.sum(axis=1)))
            sub = lambda seq: [seq[i] for i in range(len(axes)) if i not in shared]  # noqa: E731
            powers, freqs = [sub(g) for g in powers], [sub(f) for f in freqs]
            axes, tables, weights, log_weights = sub(axes), sub(tables), sub(weights), sub(log_weights)
        factors, masses, bound_total = _node_bounds(coeffs, tables, weights, p)
        kept = [_kept_nodes(factor, mass, bound_total) for factor, mass in zip(factors, masses)]
        pick = lambda arrays: [a[..., keep] for a, keep in zip(arrays, kept)]  # noqa: E731
        sums = _weighted_sums(coeffs, pick(tables), pick(weights), p, pick(axes), mask)
        if not all(keep.all() for keep in kept):
            dropped = sum(factor @ mass[:, ~keep].sum(axis=1) for factor, mass, keep in zip(factors, masses, kept))
            redo = ~(dropped <= _PRUNE_CHECK * sums)
            if redo.any():
                sums[redo] = _weighted_sums(coeffs[redo], tables, weights, p, axes, mask)
    out = ~_in_range(sums)
    if out.any():
        sums[out], logs[out] = 1.0, logs[out] + _scaled_log_sums(coeffs[out], powers, freqs, axes, log_weights, p, mask)
    return sums, logs


def _gh_integrals(coeffs: np.ndarray, powers: Sequence, freqs: Sequence, p: float, k: int):
    """Gauss-Hermite values, k nodes per real axis, of ||f_m||_p^p for every row m of ``coeffs``, as (sums, logs).

    f_m = sum_t coeffs[m, t] z^powers[t] e^{<z, freqs[t]>}; the rule is centred at the mean frequency,
    and ``tensor_log_sums`` takes its weights as they are, so a value within the double range has logs 0.
    """
    center = np.mean(np.array(freqs, dtype=complex), axis=0)
    coords, weights, log_weights = zip(*(coordinate_grid(complex(c), p, k) for c in center))
    return tensor_log_sums(coeffs, powers, freqs, coords, weights, log_weights, p)


def _gh_integral_norm(f: ExpPoly, p: float, k: int) -> float:
    """Quadrature value of the norm of a nonzero symbol using k nodes per real axis, summed block by block."""
    coeffs = np.array([[t.coeff for t in f.terms]], dtype=complex)
    sums, logs = _gh_integrals(coeffs, [t.power for t in f.terms], [t.freq for t in f.terms], p, k)
    with np.errstate(over="ignore"):
        return max(float(sums[0]), 0.0) ** (1.0 / p) * float(np.exp(logs[0] / p))


# -- public ops --------------------------------------------------------------


def fock_norms(symbols: Sequence[tuple[Term, ...]], n: int, p: float, spec: QuadSpec | None = None) -> list[float]:
    """``fock_norm(ExpPoly(n, terms), p, spec).value`` for the canonical terms of each of many symbols.

    The same dispatch, with the p = 2 Gram tables shared: the symbols of
    several terms at p = 2 that have the same largest power in each
    coordinate (on which ``_coordinate_table``'s power table and its sum over
    j depend) get one table set per coordinate over all their distinct
    (power, frequency) pairs, up to ``_SHARED_TERMS`` terms a set, and each
    is contracted from its own block as ``f2_inner`` contracts it, so every
    value keeps the bits of ``fock_norm``.
    """
    spec = spec or DEFAULT_SPEC
    p = _check_p(p)
    values = [0.0] * len(symbols)
    table_sets: list[list[int]] = []
    open_set: dict[tuple[int, ...], tuple[list[int], int]] = {}  # the last set of each top power, its term count
    for k, terms in enumerate(symbols):
        if len(terms) == 1 and spec.allow_closed_form:
            values[k] = single_term_norm(*terms[0], p)
        elif len(terms) > 1 and p == 2.0 and spec.allow_closed_form:
            top = tuple(map(max, *(t.power for t in terms)))
            members, size = open_set.get(top, (None, 0))
            if members is None or size + len(terms) > _SHARED_TERMS:
                members, size = [], 0
                table_sets.append(members)
            members.append(k)
            open_set[top] = (members, size + len(terms))
        elif terms:
            values[k] = fock_norm(ExpPoly(n, terms), p, spec).value
    for members in table_sets:
        rows = _term_arrays([t for k in members for t in symbols[k]])
        tables = _gram_tables(*rows, *rows)
        start = 0
        for k in members:
            own = slice(start, start + len(symbols[k]))
            start = own.stop
            square = _contract([t.coeff for t in symbols[k]], _gram_blocks(tables, own, own)).real
            values[k] = math.sqrt(max(square, 0.0))
    return values


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


def _grid_max(blocks: Iterable, axes: Sequence[np.ndarray], shell: float | None = None):
    """(largest value, its index, largest value at radius >= ``shell``) over ``blocks`` of the grid of ``axes``.

    ``blocks`` yields (rows, values) over the ``grid_blocks`` blocks; the index is the first in grid
    order of the largest value, and the shell maximum is -inf without ``shell``.  A non-finite value
    gives (inf, None, inf).
    """
    best, best_at, shell_max = -math.inf, None, -math.inf
    for rows, vals in blocks:
        if not np.isfinite(vals).all():
            return math.inf, None, math.inf
        if shell is not None:
            rad = np.sqrt(sum(np.abs(z) ** 2 for z in block_axes(axes, rows)))
            shell_max = max(shell_max, float(vals.max(where=rad >= shell, initial=-np.inf)))
        idx = np.unravel_index(vals.argmax(), vals.shape)
        if vals[idx] > best:
            best, best_at = float(vals[idx]), (rows.start + int(idx[0]), *map(int, idx[1:]))
    return best, best_at, shell_max


#: fewest first-axis rows that one evaluation of a bounded start grid takes: on fewer, the matmul of
#: ``_block_values`` may round differently than inside the whole grid
_MIN_ROWS = 4
#: relative margin on a row bound, far above the rounding of the values it bounds
_BOUND_MARGIN = 1.0 + 2.0**-20


def _start_max(blocks: Callable, axes: Sequence[np.ndarray], shell: float, row_bound: np.ndarray | None):
    """``_grid_max`` of the whole grid, reading only the first-axis rows that ``row_bound`` leaves in.

    ``row_bound[j]`` bounds every value whose first index is j.  The rows of the 4 largest bounds are read
    first; then every row whose bound times ``_BOUND_MARGIN`` reaches half their largest value, at least 4
    rows at a time.  The largest value and its index are the whole grid's, and so is the shell maximum where
    it is at least half the largest value; below that it may be lower.  Without a bound, on one axis, on a
    last axis of one node (``_block_values`` then sums by a matrix-vector product) or where a block could be
    left with fewer than 4 rows, the whole grid is read.
    """
    sizes = [len(z) for z in axes]
    step = _GRID_BLOCK // math.prod(sizes[1:])
    thin = math.prod(sizes[1:-1]) < _MIN_ROWS  # a block's matmul has as many rows as the block
    whole = len(sizes) == 1 or sizes[-1] == 1 or sizes[0] < 2 * _MIN_ROWS
    # a thin grid's blocks, its own last one included, must hold at least 4 rows
    whole = whole or (thin and (step < 2 * _MIN_ROWS or 0 < sizes[0] % step < _MIN_ROWS))
    if row_bound is None or whole:
        return _grid_max(blocks(axes), axes, shell)
    order = np.argsort(-row_bound, kind="stable")
    found = [_rows_max(blocks, axes, shell, np.sort(order[:_MIN_ROWS]))]
    if found[0][0] == math.inf:
        return found[0]
    rest = order[_MIN_ROWS:]
    kept = ~(row_bound[rest] * _BOUND_MARGIN < 0.5 * found[0][0])
    pick = rest[kept]
    if 0 < len(pick) < _MIN_ROWS:
        pick = np.concatenate([pick, rest[~kept][: _MIN_ROWS - len(pick)]])
    if thin and len(pick) > step:
        return _grid_max(blocks(axes), axes, shell)
    if len(pick):
        found.append(_rows_max(blocks, axes, shell, np.sort(pick)))
    best = max(value for value, _, _ in found)
    return best, min(at for value, at, _ in found if value == best), max(edge for _, _, edge in found)


def _rows_max(blocks: Callable, axes: Sequence[np.ndarray], shell: float, rows: np.ndarray):
    """``_grid_max`` over the first-axis ``rows`` (ascending) of the grid of ``axes``, indexed in the whole grid."""
    sub = [axes[0][rows], *axes[1:]]
    value, at, shell_max = _grid_max(blocks(sub), sub, shell)
    return value, None if at is None else (int(rows[at[0]]), *at[1:]), shell_max


@lru_cache(maxsize=8)
def _stencil(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a quadratic model reads a stencil of 3 nodes per real axis (flat, C order) on ``dim`` axes.

    Returns the pairs k < m of axes and one index array: the nodes one step
    up each axis, one step down each axis, the centre, and per pair its
    corners ++, +-, -+ and --, in that order.
    """
    centre = (3**dim - 1) // 2
    stride = 3 ** np.arange(dim - 1, -1, -1)
    k, m = np.triu_indices(dim, 1)
    corners = [centre + a * stride[k] + b * stride[m] for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return k, m, np.concatenate([centre + stride, centre - stride, [centre], *corners])


def _model_steps(values: np.ndarray, steps: np.ndarray) -> np.ndarray | None:
    """The next steps from a quadratic model of log ``values`` on a stencil whose centre is highest, or None.

    ``values`` is a level's grid, 3 x 3 nodes per free coordinate, and
    ``steps`` its (free coordinates, 2) real and imaginary steps.  The model
    takes the gradient and the full Hessian, mixed terms included, by central
    differences.  Where it is finite and concave and its maximizer lies inside
    the stencil, the next steps are the maximizer's offsets per real axis,
    clipped to [h/64, h/2]; otherwise None.
    """
    h = steps.ravel()
    dim = len(h)
    k, m, index = _stencil(dim)
    logs = np.log(values.ravel()[index])
    up, down, centre = logs[:dim], logs[dim : 2 * dim], logs[2 * dim]
    pp, pm, mp, mm = logs[2 * dim + 1 :].reshape(4, -1)
    grad = (up - down) / (2.0 * h)
    hess = np.empty((dim, dim))
    hess.flat[:: dim + 1] = (up - 2.0 * centre + down) / h**2
    hess[k, m] = hess[m, k] = (pp - pm - mp + mm) / (4.0 * h[k] * h[m])
    if not (np.isfinite(grad).all() and np.isfinite(hess).all()) or np.linalg.eigvalsh(hess).max() >= 0.0:
        return None
    offsets = np.abs(np.linalg.solve(hess, grad))
    if (offsets > h).any():
        return None
    return np.minimum(np.maximum(offsets, h / 64.0), h / 2.0).reshape(steps.shape)


def tensor_sup(blocks: Callable, axes: Sequence[np.ndarray], free: Sequence[int], refine_iters: int,
               row_bound: np.ndarray | None = None):
    """Largest value on a tensor grid, refined by the same search on shrinking grids around the best node.

    ``blocks(axes)`` yields (rows, values) over the ``grid_blocks`` blocks of
    the tensor grid of the complex ``axes`` (overflow there is ignored).
    ``row_bound``, if given, bounds the values of each first-axis row of that
    grid, and ``_start_max`` reads only the rows that can hold values of at
    least half the largest.  Each refinement level evaluates a 3 x 3 grid per
    coordinate in ``free`` (the others stay at the best node), with steps kept
    per real axis, half the spacing of each axis's real parts at first.  It
    moves to the level's best node when that is higher.  Otherwise
    ``_model_steps`` sets the next steps by a Newton step, so that the next
    stencil holds the model's maximizer, and where the model fails they
    halve.  The search stops when every step is at most 1e-9 or after
    150 * ``refine_iters`` levels.  Returns (value, err_estimate, edge_ratio):
    err_estimate is the refinement's gain over the best grid node, not a
    bound, and edge_ratio the largest value on the outer shell (radius >= 0.8
    of the largest) over the overall one; from 0.5 on, values grow toward the
    boundary and the maximum is not refined.  From 0.5 on the ratio is the
    whole grid's; below 0.5, with a ``row_bound``, it is that of the rows
    read, at most the whole grid's.  A non-finite grid value gives
    (inf, inf, 1.0), a non-finite refinement value (inf, inf, edge_ratio).
    """
    rmax = math.sqrt(sum(float(np.max(np.abs(z) ** 2)) for z in axes))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best, at, shell_max = _start_max(blocks, axes, 0.8 * rmax, row_bound)
        if best == math.inf:
            return math.inf, math.inf, 1.0
        best_at = np.array([z[i] for z, i in zip(axes, at)])
        edge = shell_max / best if best > 0 else 0.0
        refined, offsets, free = best, np.array([-1.0, 0.0, 1.0]), sorted(free)
        spacing = [float(np.ptp(axes[i].real)) / (len(np.unique(axes[i].real)) - 1) / 2 for i in free]
        steps = np.repeat(np.array(spacing)[:, None], 2, axis=1)
        for _ in range(150 * refine_iters if best > 0 and edge < 0.5 else 0):
            if steps.max() <= 1e-9:
                break
            nodes = best_at[free].view(float).reshape(-1, 2, 1) + steps[:, :, None] * offsets  # real, imaginary
            local = list(best_at[:, None])
            for i, plane in zip(free, (nodes[:, 0, :, None] + 1j * nodes[:, 1, None, :]).reshape(len(free), -1)):
                local[i] = plane
            level = list(blocks(local))
            value, at, _ = _grid_max(level, local)
            if value == math.inf:
                return value, value, edge
            if value > refined:
                refined, best_at = value, np.array([z[i] for z, i in zip(local, at)])
            else:
                model = _model_steps(np.concatenate([vals for _, vals in level]), steps)
                steps = steps / 2 if model is None else model
    return refined, abs(refined - best), edge


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


@lru_cache(maxsize=8)
def _tail_groups(psi: ExpPoly, s: int) -> tuple[tuple, tuple, tuple]:
    """psi's terms grouped by their tail (the coordinates from s on) as ``slice_head``'s canonical form merges them.

    Returns (members, tail powers, tail frequencies), one entry per group in
    the canonical order of the tails, each group's members (term indices) in
    the order their coefficients are added; a group's tail is its first member's.
    """
    key = lambda t: (psi.terms[t].power[s:], tuple((c.real, c.imag) for c in psi.terms[t].freq[s:]))  # noqa: E731
    members, powers, freqs = [], [], []
    for t in sorted(range(len(psi.terms)), key=key):
        power, freq = psi.terms[t].power[s:], psi.terms[t].freq[s:]
        if members and powers[-1] == power and all(abs(a - b) <= FREQ_MERGE_TOL for a, b in zip(freqs[-1], freq)):
            members[-1] += (t,)
        else:
            members.append((t,))
            powers.append(power)
            freqs.append(freq)
    return tuple(members), tuple(powers), tuple(freqs)


@lru_cache(maxsize=8)
def _tail_gram(psi: ExpPoly, s: int) -> np.ndarray:
    """The p = 2 Gram matrix of the tails of ``_tail_groups(psi, s)`` (read-only)."""
    _, powers, freqs = _tail_groups(psi, s)
    powers, freqs = np.array(powers), np.array(freqs, dtype=complex)
    gram = np.concatenate([block for _, block in f2_gram(powers, freqs, powers, freqs)])
    gram.setflags(write=False)
    return gram


def slice_norm_many(psi: ExpPoly, q: float, heads: np.ndarray, spec: QuadSpec | None = None) -> np.ndarray:
    """``slice_norm(psi, q, h, spec).value`` at every row h of the (M, s) array ``heads``, in one pass.

    Freezing the head changes only the coefficients: term t becomes
    c_t(h) = c_t prod_{i<s} h_i^{g_{t,i}} e^{h_i conj(f_{t,i})} times its tail.
    Tails are grouped, and small coefficients dropped per point, as
    ``slice_head`` canonicalizes.  At p = 2 the square norm is the Hermitian
    form of the coefficients with the tails' Gram matrix, built once per
    symbol; at other exponents a point with one surviving term takes its
    closed form, and the others the Gauss-Hermite rule of ``fock_norm`` at
    the centre of their surviving tails, one batched evaluation per set of
    survivors.  Only the value is computed, not the coarse-rule error estimate.
    """
    spec = spec or DEFAULT_SPEC
    q = _check_p(q)
    heads = np.asarray(heads, dtype=complex)
    s = heads.shape[1] if heads.ndim == 2 else 0
    if not 0 < s < psi.n:
        raise DimensionError(f"heads must have shape (M, s) with 0 < s < n={psi.n}")
    members, powers, freqs = _tail_groups(psi, s)
    head_coeffs = np.array([t.coeff for t in psi.terms], dtype=complex)
    for i in range(s):
        # a zero power or frequency multiplies by exactly 1
        head_coeffs = head_coeffs * heads[:, i, None] ** np.array([t.power[i] for t in psi.terms])
        head_coeffs = head_coeffs * np.exp(heads[:, i, None] * np.conj([t.freq[i] for t in psi.terms]))
    if not np.isfinite(head_coeffs).all():
        raise DomainError("coefficients must be finite")
    coeffs = head_coeffs[:, [terms[0] for terms in members]]
    for g, terms in enumerate(members):
        for t in terms[1:]:
            coeffs[:, g] += head_coeffs[:, t]
    size = np.abs(coeffs)
    kept = size > COEFF_DROP_TOL * size.max(axis=1, initial=0.0)[:, None]
    if q == 2.0 and spec.allow_closed_form:
        coeffs = np.where(kept, coeffs, 0.0)
        square = np.sum((coeffs @ _tail_gram(psi, s)) * np.conj(coeffs), axis=1).real
        return np.sqrt(np.maximum(square, 0.0))
    out = np.zeros(len(heads))
    if len(kept) and (kept == kept[0]).all():  # one set of survivors: no need to sort the rows into sets
        sets = [(kept[0], np.arange(len(kept)))]
    else:
        patterns, which = np.unique(kept, axis=0, return_inverse=True)
        sets = [(survivors, np.flatnonzero(which.ravel() == k)) for k, survivors in enumerate(patterns)]
    for survivors, rows in sets:
        groups = np.flatnonzero(survivors)
        if len(groups) == 1 and spec.allow_closed_form:
            g = groups[0]
            out[rows] = size[rows, g] * single_term_norm(1.0 + 0j, powers[g], freqs[g], q)
        elif len(groups):
            sums, logs = _gh_integrals(
                coeffs[np.ix_(rows, groups)], [powers[g] for g in groups], [freqs[g] for g in groups], q,
                spec.resolve_nodes(psi.n - s),
            )
            with np.errstate(over="ignore"):
                out[rows] = np.maximum(sums, 0.0) ** (1.0 / q) * np.exp(logs / q)
    return out
