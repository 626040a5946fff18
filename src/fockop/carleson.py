"""Pullback Carleson measure tools for the small-target range q < p.

The rotated operator induces the measure on C^s (s = rank of the map)

    mu(E) = (q/2pi)^s  Integral_{phi_s^{-1}(E)}  ||psi_t(z, .)||_q^q  e^{-q|z|^2/2} dA(z)

This module integrates against it: the mass of balls (``pullback_mass``) and
the Berezin-type transform (``berezin_transform``).  For q < p the operator
is bounded iff compact iff ell is in L^r(C^s), r = pq/(p-q), and the norm is
comparable to ||ell||_{L^r}; that integral lives in ``wco`` beside the other
ell statistics and is re-exported here as ``carleson_integral``.
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

from .errors import DomainError
from .funcspace import AffineMap, ExpPoly, Term, compose_affine, multiply
from .linalg import as_cvector
from .quad import DEFAULT_SPEC, QuadSpec, coordinate_grid, fock_norm, grid_blocks, grid_points, single_term_norm
from .quad import slice_norm
from .wco import CarlesonReport, Normalization, carleson_integral

__all__ = ["CarlesonReport", "carleson_integral", "pullback_mass", "berezin_transform"]


# -- measure-side quadrature --------------------------------------------------


def _slice_norm_values(norm: Normalization, q: float, pts: np.ndarray, spec: QuadSpec) -> np.ndarray:
    """||psi_t(z, .)||_q at many head points, vectorized where possible."""
    s = pts.shape[1]
    n = norm.n
    if s == n:
        return np.abs(norm.psi_t.eval_many(pts))
    common = norm.psi_t.common_frequency()
    if common is not None and all(sum(t.power[s:]) == 0 for t in norm.psi_t.terms):
        c = np.array(common, dtype=complex)
        tail_const = single_term_norm(1.0 + 0j, (0,) * (n - s), tuple(c[s:]), q)
        head = ExpPoly(s, tuple(Term(t.coeff, t.power[:s], tuple(c[:s])) for t in norm.psi_t.terms))
        return np.abs(head.eval_many(pts)) * tail_const
    out = np.empty(pts.shape[0])
    small = QuadSpec(nodes_per_axis=max(10, min(16, spec.resolve_nodes(n - s))))
    for j in range(pts.shape[0]):
        out[j] = slice_norm(norm.psi_t, q, pts[j], small).value
    return out


def _measure_quadrature(norm: Normalization, q: float, weight_fn, spec: QuadSpec) -> float:
    """(q/2pi)^s Integral weight(phi_s(z)) ||psi_t(z,.)||_q^q e^{-q|z|^2/2} dA(z)."""
    s = norm.rank_s
    if s == 0:
        raise DomainError("rank-zero maps carry a point mass; integrate directly")
    common = norm.psi_t.common_frequency()
    if common is not None:
        center = np.array(common[:s], dtype=complex)
    else:
        weights = np.array([abs(t.coeff) for t in norm.psi_t.terms])
        freqs = np.array([t.freq[:s] for t in norm.psi_t.terms], dtype=complex)
        center = (weights[:, None] * freqs).sum(axis=0) / weights.sum()

    fast = common is not None or s == norm.n
    k = spec.resolve_nodes(s) if fast else min(10, spec.resolve_nodes(s))
    grids = []
    qweights = []
    for i in range(s):
        z, qw = coordinate_grid(complex(center[i]), q, k)
        grids.append(z)
        qweights.append(qw)

    total = 0.0
    for rows in grid_blocks([len(z) for z in grids]):
        pts = grid_points(grids, rows)
        wtot = reduce(np.multiply.outer, [qweights[0][rows], *qweights[1:]]).ravel()
        img = pts * norm.diag[np.newaxis, :s] + norm.b_t[np.newaxis, :s]
        weight_vals = weight_fn(img)
        mask = weight_vals != 0.0
        if np.any(mask):
            slice_vals = _slice_norm_values(norm, q, pts[mask], spec)
            total += float(np.sum(wtot[mask] * weight_vals[mask] * slice_vals**q))
    return total


def pullback_mass(norm: Normalization, q: float, center, radius: float, spec: QuadSpec | None = None) -> float:
    """Measure of the ball B(center, radius) in C^s under the pullback measure."""
    spec = spec or DEFAULT_SPEC
    c = as_cvector(center, norm.rank_s)
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError("radius must be positive and finite")

    def indicator(img: np.ndarray) -> np.ndarray:
        d2 = np.sum(np.abs(img - c[np.newaxis, :]) ** 2, axis=1)
        return (d2 <= radius * radius).astype(float)

    return _measure_quadrature(norm, q, indicator, spec)


def berezin_transform(norm: Normalization, q: float, w_head, spec: QuadSpec | None = None, method: str = "identity") -> float:
    """Kernel average of the pullback measure at the head point ``w_head``.

    method="identity" evaluates it as the q-norm of psi_t times the composed
    normalized kernel (exact symbol algebra feeding one norm computation);
    method="direct" integrates |k_w|^q against the measure by quadrature.
    The two must agree within combined quadrature error.
    """
    spec = spec or DEFAULT_SPEC
    s = norm.rank_s
    w = as_cvector(w_head, s)
    n = norm.n

    if method == "direct":

        def kq(img: np.ndarray) -> np.ndarray:
            # |k_w(u)|^q = exp(q Re<u, w> - q|w|^2/2)
            re = np.real(img @ np.conj(w))
            return np.exp(q * (re - float(np.sum(np.abs(w) ** 2)) / 2.0))

        return _measure_quadrature(norm, q, kq, spec)
    if method != "identity":
        raise DomainError(f"unknown berezin method {method!r}")

    w_ext = np.zeros(n, dtype=complex)
    w_ext[:s] = w
    coeff = math.exp(-0.5 * float(np.sum(np.abs(w) ** 2)))
    k_ext = ExpPoly(n, (Term(coeff + 0j, (0,) * n, tuple(w_ext)),))
    A_ext = np.zeros((n, n), dtype=complex)
    for i in range(s):
        A_ext[i, i] = norm.diag[i]
    b_ext = np.zeros(n, dtype=complex)
    b_ext[:s] = norm.b_t[:s]
    composed = compose_affine(k_ext, AffineMap(A_ext, b_ext))
    res = fock_norm(multiply(norm.psi_t, composed), q, spec)
    return float(res.value**q)
