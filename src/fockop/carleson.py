"""Pullback Carleson measure tools for the small-target range q < p.

The rotated operator induces the measure on C^s (s = rank of the map)

    mu(E) = (q/2pi)^s  Integral_{phi_s^{-1}(E)}  ||psi_t(z, .)||_q^q  e^{-q|z|^2/2} dA(z)

whose density is ell read at the power q: by the definition of ell in ``wco``,

    ||psi_t(z, .)||_q^q  e^{-q|z|^2/2}  =  ell(z)^q  e^{-q|phi_t(z)|^2/2}.

This module integrates against mu: the mass of balls (``pullback_mass``) and
the Berezin-type transform (``berezin_transform``), each one call of
``wco.ell_log_integral``, the Gauss-Hermite integral of ell that also gives
||ell||_{L^r}, with the density's Gaussian factor and the Berezin kernel as
per-axis log weights and the ball as its one mask.  For q < p the operator
is bounded iff compact iff ell is in L^r(C^s), r = pq/(p-q), and the norm is
comparable to ||ell||_{L^r}; that integral lives in ``wco`` beside the other
ell statistics and is re-exported here as ``carleson_integral``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .funcspace import AffineMap, ExpPoly, Term, compose_affine, multiply
from .linalg import as_cvector
from .quad import DEFAULT_SPEC, QuadSpec, fock_norm
from .wco import CarlesonReport, Normalization, carleson_integral, ell_log_integral, ell_profile

__all__ = ["CarlesonReport", "carleson_integral", "pullback_mass", "berezin_transform"]


# -- measure-side quadrature --------------------------------------------------


def _measure_quadrature(norm: Normalization, q: float, spec: QuadSpec, log_weight=None, inside=None) -> float:
    """Integral of weight(u) d mu(u) = (q/2pi)^s Integral weight(phi_s(z)) ell(z)^q e^{-q|phi_t(z)|^2/2} dA(z).

    The weight at the image u = phi_s(z) is prod_i e^{log_weight(i, u_i)}
    (1 without ``log_weight``), times the indicator of ``inside``, which maps
    the per-axis images of a quadrature block, broadcasting over it, to a
    mask.  The density's Gaussian factor enters per axis too.  Each
    coordinate is integrated at rate q/2 around its head frequency.
    """
    profile = ell_profile(norm, q)
    s = profile.s
    a, b = norm.diag[:s], norm.b_t[:s]
    centers = [w - a_i * b_i for w, a_i, b_i in zip(profile.w, a, b)]
    tail_sq = float(np.sum(np.abs(norm.b_t[s:]) ** 2))
    image = lambda zs: [a_i * z + b_i for z, a_i, b_i in zip(zs, a, b)]  # noqa: E731
    log_weight = log_weight or (lambda i, u: 0.0)
    log_density = lambda zs: [log_weight(i, u) - (q / 2.0) * np.abs(u) ** 2 for i, u in enumerate(image(zs))]  # noqa: E731
    mask = None if inside is None else lambda zs: inside(image(zs))
    log_i = ell_log_integral(profile, q, centers, [q / 2.0] * s, spec, log_density, mask)
    return math.exp(s * math.log(q / (2.0 * math.pi)) - (q / 2.0) * tail_sq + log_i)


def pullback_mass(norm: Normalization, q: float, center, radius: float, spec: QuadSpec | None = None) -> float:
    """Measure of the ball B(center, radius) in C^s under the pullback measure."""
    spec = spec or DEFAULT_SPEC
    c = as_cvector(center, norm.rank_s)
    if not (radius > 0 and math.isfinite(radius)):
        raise DomainError("radius must be positive and finite")
    inside = lambda img: sum(np.abs(u - c_i) ** 2 for u, c_i in zip(img, c)) <= radius * radius  # noqa: E731
    return _measure_quadrature(norm, q, spec, inside=inside)


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
        # |k_w(u)|^q = prod_i exp(q Re(u_i conj(w_i)) - q|w_i|^2/2)
        log_kq = lambda i, u: q * (np.real(u * np.conj(w[i])) - abs(w[i]) ** 2 / 2.0)  # noqa: E731
        return _measure_quadrature(norm, q, spec, log_kq)
    if method != "identity":
        raise DomainError(f"unknown berezin method {method!r}")

    head = lambda v: np.concatenate([v[:s], np.zeros(n - s)]).astype(complex)  # noqa: E731
    coeff = math.exp(-0.5 * float(np.sum(np.abs(w) ** 2)))
    k_ext = ExpPoly(n, (Term(coeff + 0j, (0,) * n, tuple(head(w))),))
    composed = compose_affine(k_ext, AffineMap(np.diag(head(norm.diag)), head(norm.b_t)))
    res = fock_norm(multiply(norm.psi_t, composed), q, spec)
    return float(res.value**q)
