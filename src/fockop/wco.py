"""Weighted composition operators W f = psi * (f o phi) between Gaussian L^p spaces.

The analysis pipeline is:

  1. admissibility: the affine map phi(z) = A z + b must have |A| <= 1,
     otherwise the operator is unbounded for every nonzero symbol.
  2. normalize: factor A = V diag(a) U with U, V unitary and rotate the
     problem so the map becomes diagonal with nonnegative non-increasing
     entries.  The operator is unitarily equivalent to the rotated one, so
     all size quantities agree.
  3. ell profile: the decision function

        ell(z_head) = exp((|phi_t(z)|^2 - |z_head|^2)/2) * ||psi_t(z_head, .)||_q

     over the first s = rank(A) coordinates.  Boundedness (p <= q) is
     equivalent to sup ell < inf, compactness to ell -> 0, and for q < p to
     ell being L^r integrable with r = pq/(p-q); this module also computes
     that L^r norm.

For symbols whose terms share one exponential frequency the profile reduces
per coordinate to  |z|^d * exp(((a^2-1)/2)|z|^2 + Re(z conj(w))), which gives
certified finite/infinite and decay/no-decay decisions plus closed forms for
single-term symbols.  Everything else is handled by numeric search and is
reported as evidence, never as a certificate.

Except on a rank < n map whose symbol has several frequencies or tail
monomials (one slice norm per point there), ell is separable (``SeparableEll``)
and its grids are evaluated with ``quad.tensor_values``.  ``ell_log_integral``
is the one Gauss-Hermite integral of ell: its L^r norm here, and the pullback
measure of ``carleson``, whose density is ell^q e^{-q|phi_t|^2/2}.

``analyze`` runs the pipeline once per problem: its ``Analysis`` computes
each step, the verdict and the bounds at most once, when first read.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, DomainError, UnsupportedExponentsError
from .funcspace import AffineMap, ExpPoly, Term, compose_affine
from .linalg import as_cvector, svd
from .quad import DEFAULT_SPEC, NormResult, QuadSpec, block_axes, factor_argmax, factor_log_max, fock_norm, grid_blocks
from .quad import grid_points, hermite_rule, plane_axis, single_term_norm, slice_norm, tensor_sup, tensor_values

__all__ = [
    "WcoProblem",
    "AdmissibilityReport",
    "Normalization",
    "EllProfile",
    "Classification",
    "NormBounds",
    "CarlesonReport",
    "Analysis",
    "analyze",
    "admissibility",
    "normalize",
    "normalize_pair",
    "alternative_normalization",
    "ell_profile",
    "ell_at",
    "ell_sup",
    "ell_limsup",
    "limsup_from_sup",
    "classify",
    "norm_bounds",
    "essential_norm_bounds",
    "carleson_integral",
    "ell_log_integral",
]

UNBOUNDED = "unbounded"
BOUNDED_NOT_COMPACT = "bounded_not_compact"
COMPACT = "compact"

CERTIFIED = "certified"
NUMERIC_EVIDENCE = "numeric_evidence"

#: |w| below this counts as "no linear drift" on a unit singular direction
DRIFT_TOL = 1e-9


@dataclass(frozen=True)
class WcoProblem:
    """A weighted composition operator acting from exponent p into exponent q."""

    psi: ExpPoly
    phi: AffineMap
    p: float
    q: float

    def __post_init__(self):
        if self.psi.n != self.phi.n:
            raise DimensionError("symbol and map must live on the same C^n")
        if self.psi.is_zero():
            raise DomainError("the zero symbol gives the zero operator; not analyzed")
        for name in ("p", "q"):
            v = float(getattr(self, name))
            if not (v > 0 and math.isfinite(v)):
                raise DomainError(f"{name} must satisfy 0 < {name} < inf, got {v}")
            object.__setattr__(self, name, v)

    @property
    def n(self) -> int:
        return self.phi.n


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    spectral_norm: float
    reason: str


@dataclass(frozen=True)
class Normalization:
    """Rotated problem data: phi_t(z) = diag(a) z + b_t and psi_t = psi o U^*.

    The original operator equals (f -> f o U) composed with the rotated
    operator composed with (f -> f o V).
    """

    psi: ExpPoly
    phi: AffineMap
    psi_t: ExpPoly
    diag: np.ndarray
    b_t: np.ndarray
    U: np.ndarray
    V: np.ndarray
    rank_s: int
    raw_sigma: np.ndarray

    def __post_init__(self):
        for name in ("diag", "b_t", "U", "V", "raw_sigma"):
            getattr(self, name).setflags(write=False)

    @property
    def n(self) -> int:
        return self.psi.n

    @property
    def phi_t(self) -> AffineMap:
        return AffineMap(np.diag(self.diag.astype(complex)), self.b_t)


class SeparableEll(NamedTuple):
    """ell in separable form over the head coordinates z_1..z_s (g = 1 when ``g`` is None):

        log ell(z) = log|g(z)| + sum(log_const)
                     + sum_i (d_i log|z_i| + ((a_i^2 - 1)/2)|z_i|^2 + Re(z_i conj(u_i)))
    """

    g: ExpPoly | None
    log_const: tuple[float, ...]
    d: tuple[int, ...]
    u: tuple[complex, ...]


@dataclass(frozen=True)
class EllProfile:
    """Per-coordinate decision data for the function ell over C^s.

    mode "certified" means every term of psi_t shares one frequency, so the
    per-coordinate data (a_i, w_i, deg_i) exactly determines finiteness and
    decay.  ``exact_factor`` additionally marks single-term symbols, for which
    ell factors in closed form and ``constant_factor`` is exact.
    ``separable`` is ell's separable form, None where ell needs slice norms.
    """

    s: int
    q: float
    a: tuple[float, ...]
    w: tuple[complex, ...]
    deg: tuple[int, ...]
    constant_factor: float
    mode: str
    exact_factor: bool
    normalization: Normalization
    separable: SeparableEll | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Classification:
    verdict: str
    mode: str
    certificate: str


@dataclass(frozen=True)
class NormBounds:
    lower: float
    upper: float
    essential_lower: float | None
    essential_upper: float | None
    upper_is_up_to_universal_constant: bool


@dataclass(frozen=True)
class CarlesonReport:
    """L^r summary of ell.  ``member`` is the integrability verdict."""

    r_exponent: float
    lr_norm: NormResult
    member: bool
    mode: str


# -- admissibility and normalization ----------------------------------------


def admissibility(problem: WcoProblem) -> AdmissibilityReport:
    t = svd(problem.phi.A)
    s0 = float(t.sigma[0])
    if s0 > 1.0:
        return AdmissibilityReport(False, s0, f"spectral norm {s0:.12g} > 1")
    return AdmissibilityReport(True, s0, "spectral norm <= 1")


def normalize_pair(psi: ExpPoly, phi: AffineMap) -> Normalization:
    """Rotate (psi, phi) into diagonal form using the canonical factorization."""
    if psi.n != phi.n:
        raise DimensionError("symbol and map must live on the same C^n")
    t = svd(phi.A)
    U, V = np.array(t.U, dtype=complex), np.array(t.V, dtype=complex)
    return _rotated(psi, phi, t.sigma, U, V, t.rank_s, t.raw_sigma)


def _rotated(psi: ExpPoly, phi: AffineMap, sigma, U: np.ndarray, V: np.ndarray, rank_s: int, raw_sigma) -> Normalization:
    """(psi, phi) rotated by the factorization A = V diag(sigma) U."""
    return Normalization(
        psi=psi,
        phi=phi,
        psi_t=compose_affine(psi, AffineMap(U.conj().T, np.zeros(psi.n, dtype=complex))),
        diag=np.array(sigma, dtype=float),
        b_t=V.conj().T @ phi.b,
        U=U,
        V=V,
        rank_s=rank_s,
        raw_sigma=np.array(raw_sigma, dtype=float),
    )


def normalize(problem: WcoProblem) -> Normalization:
    return normalize_pair(problem.psi, problem.phi)


def _random_unitary(rng: np.random.Generator, g: int) -> np.ndarray:
    m = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
    qmat, r = np.linalg.qr(m)
    d = np.diag(r)
    return qmat * (d / np.abs(d))[np.newaxis, :]


def alternative_normalization(norm: Normalization, seed: int = 0) -> Normalization:
    """A different but equally valid rotation of the same problem.

    Within each group of equal singular values the factors are only determined
    up to a shared unitary block (and the zero block admits two independent
    ones); this builds such a variant deterministically from the seed.  All
    profile statistics must agree between the two.
    """
    rng = np.random.default_rng(seed)
    n = norm.n
    V = np.array(norm.V, dtype=complex)
    U = np.array(norm.U, dtype=complex)
    sigma = norm.diag
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and abs(sigma[stop] - sigma[start]) <= 1e-12:
            stop += 1
        g = stop - start
        if sigma[start] > 0.0:
            H = _random_unitary(rng, g)
            V[:, start:stop] = V[:, start:stop] @ H
            U[start:stop, :] = H.conj().T @ U[start:stop, :]
        else:
            V[:, start:stop] = V[:, start:stop] @ _random_unitary(rng, g)
            U[start:stop, :] = _random_unitary(rng, g) @ U[start:stop, :]
        start = stop
    return _rotated(norm.psi, norm.phi, sigma, U, V, norm.rank_s, norm.raw_sigma)


# -- the ell profile ---------------------------------------------------------


def ell_profile(norm: Normalization, q: float) -> EllProfile:
    """Profile over the head coordinates (one per nonzero singular value)."""
    s = norm.rank_s
    if s == 0:
        raise DomainError("rank-zero maps have no head coordinates; use the exact rank-0 branch")
    common = norm.psi_t.common_frequency()
    mode = CERTIFIED if common is not None else NUMERIC_EVIDENCE
    if common is not None:
        freq_ref = np.array(common, dtype=complex)
    else:
        # indicative only: coefficient-weighted mean frequency
        weights = np.array([abs(t.coeff) for t in norm.psi_t.terms])
        freqs = np.array([t.freq for t in norm.psi_t.terms], dtype=complex)
        freq_ref = (weights[:, None] * freqs).sum(axis=0) / weights.sum()
    a = tuple(float(x) for x in norm.diag[:s])
    w = tuple(complex(freq_ref[i] + norm.diag[i] * norm.b_t[i]) for i in range(s))
    deg = tuple(norm.psi_t.degree_in(i) for i in range(s))

    exact = len(norm.psi_t.terms) == 1 and mode == CERTIFIED
    b_sq = float(np.sum(np.abs(norm.b_t) ** 2))
    tail_sq = float(np.sum(np.abs(freq_ref[s:]) ** 2))
    constant = norm.psi_t.max_coeff_modulus() * math.exp((tail_sq + b_sq) / 2.0)
    if exact:
        term = norm.psi_t.terms[0]
        tail = single_term_norm(1.0 + 0j, term.power[s:], term.freq[s:], q) if s < norm.n else 1.0
        constant = abs(term.coeff) * tail * math.exp(b_sq / 2.0)
        separable = SeparableEll(None, (math.log(float(constant)),), term.power[:s], w)
    elif mode == CERTIFIED and all(sum(t.power[s:]) == 0 for t in norm.psi_t.terms):
        # no tail monomials: the slice norm is |head polynomial| times a
        # constant tail norm, and the common frequency joins the drift w
        tail = single_term_norm(1.0 + 0j, (0,) * (norm.n - s), tuple(freq_ref[s:]), float(q)) if s < norm.n else 1.0
        head = ExpPoly(s, tuple(Term(t.coeff, t.power[:s], (0j,) * s) for t in norm.psi_t.terms))
        separable = SeparableEll(head, (math.log(tail), b_sq / 2.0), (0,) * s, w)
    elif s == norm.n:
        # full rank: the slice norm is |psi_t(z)|, and |a z + b|^2 - |z|^2
        # splits per coordinate
        drift = tuple(complex(norm.diag[i] * norm.b_t[i]) for i in range(s))
        separable = SeparableEll(norm.psi_t, (b_sq / 2.0,), (0,) * s, drift)
    else:
        separable = None
    return EllProfile(
        s=s,
        q=float(q),
        a=a,
        w=w,
        deg=deg,
        constant_factor=float(constant),
        mode=mode,
        exact_factor=exact,
        normalization=norm,
        separable=separable,
    )


def _finite_flags(profile: EllProfile) -> list[bool]:
    flags = []
    for a, w, d in zip(profile.a, profile.w, profile.deg):
        if a < 1.0:
            flags.append(True)
        else:
            flags.append(abs(w) <= DRIFT_TOL and d == 0)
    return flags


def ell_at(profile: EllProfile, z_head: Sequence[complex], spec: QuadSpec | None = None) -> float:
    z = as_cvector(z_head, profile.s)
    return float(ell_at_many(profile, z[np.newaxis, :], spec)[0])


def _separable_log_ell(profile: EllProfile, zs: Sequence[np.ndarray], g_values: np.ndarray | None) -> np.ndarray:
    """log ell at the points the head coordinates ``zs`` broadcast to, g being ``g_values`` there.

    The terms are added in a fixed order, so a point gets the same value alone or in a grid.
    """
    sep = profile.separable
    if g_values is None:
        logv = np.zeros(np.broadcast_shapes(*(np.shape(z) for z in zs)))
    else:
        logv = np.log(np.maximum(np.abs(g_values), 1e-300))
    for c in sep.log_const:
        logv += c
    for z, a, d, u in zip(zs, profile.a, sep.d, sep.u):
        mod = np.abs(z)
        if d:
            with np.errstate(divide="ignore"):
                logv += d * np.log(mod)
        logv += ((a**2 - 1.0) / 2.0) * mod**2
        logv += np.real(z * np.conj(u))
    return logv


def ell_at_many(profile: EllProfile, points: np.ndarray, spec: QuadSpec | None = None) -> np.ndarray:
    """Vectorized ell over an (M, s) array of head points."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim != 2 or pts.shape[1] != profile.s:
        raise DimensionError(f"expected points of shape (M, {profile.s})")
    norm = profile.normalization
    s = profile.s
    sep = profile.separable
    if sep is not None:
        return np.exp(_separable_log_ell(profile, pts.T, None if sep.g is None else sep.g.eval_many(pts)))

    # slice norm per point
    out = np.empty(pts.shape[0], dtype=float)
    b_tail_sq = float(np.sum(np.abs(norm.b_t[s:]) ** 2))
    for j in range(pts.shape[0]):
        z = pts[j]
        img_sq = b_tail_sq
        for i in range(s):
            img_sq += abs(norm.diag[i] * z[i] + norm.b_t[i]) ** 2
        expo = (img_sq - float(np.sum(np.abs(z) ** 2))) / 2.0
        out[j] = math.exp(expo) * slice_norm(norm.psi_t, profile.q, z, spec).value
    return out


def _ell_blocks(profile: EllProfile, axes: Sequence[np.ndarray], spec: QuadSpec, where=None, log=False) -> Iterator:
    """(rows, ell or, with ``log``, log ell) per block of the tensor grid of the complex head ``axes``.

    The values are shaped like the block.  With ``where``, a mask of the block
    computed from its ``block_axes``, only the points it keeps are evaluated
    and yielded, flat in grid order.
    """
    sep = profile.separable
    sizes = [len(z) for z in axes]
    has_g = sep is not None and sep.g is not None
    for rows, g_values in tensor_values(sep.g, axes) if has_g else ((rows, None) for rows in grid_blocks(sizes)):
        zs = block_axes(axes, rows)
        keep = None if where is None else where(zs)
        if sep is not None:
            vals = _separable_log_ell(profile, zs, g_values)
            vals = vals if log else np.exp(vals)
            yield rows, (vals if keep is None else vals[keep])
            continue
        pts = grid_points(axes, rows)
        vals = ell_at_many(profile, pts if keep is None else pts[keep.ravel()], spec)
        if log:
            with np.errstate(divide="ignore"):
                vals = np.log(vals)
        yield rows, (vals.reshape(-1, *sizes[1:]) if keep is None else vals)


#: points per real axis of the sup search grid of ell, by number of active coordinates (7 beyond)
_SUP_GRID = {1: 17, 2: 15}


def _numeric_sup(profile: EllProfile, spec: QuadSpec, radii: list[float], active: list[int]) -> tuple[float, float, float]:
    """``quad.tensor_sup`` of ell over the active coordinates (the others stay 0): (value, err, edge ratio)."""
    g = _SUP_GRID.get(len(active), 7)
    lines = [np.linspace(-r, r, g) for r in radii]
    axes = [plane_axis(x, x) if i in active else np.zeros(1, dtype=complex) for i, x in enumerate(lines)]
    return tensor_sup(
        _ell_blocks(profile, axes, spec), axes, active, lambda z: ell_at(profile, z, spec), spec.refine_iters
    )


def ell_sup(profile: EllProfile, spec: QuadSpec | None = None) -> NormResult:
    """sup of ell, certified for common-frequency symbols.

    Single-term symbols get the exact closed form (product of per-coordinate
    maxima).  Certified multi-term symbols are finite by the per-coordinate
    rule and the value comes from a bounded search.  Without a certificate the
    search radius is capped and growth toward the boundary is reported as an
    infinite value in quadrature mode (evidence, not proof).
    """
    spec = spec or DEFAULT_SPEC
    if profile.mode == CERTIFIED:
        if not all(_finite_flags(profile)):
            return NormResult(math.inf, "closed_form", 0.0)
        if profile.exact_factor:
            log_total = math.log(profile.constant_factor)
            for a, w, d in zip(profile.a, profile.w, profile.deg):
                log_total += factor_log_max(a, abs(w), d)
            return NormResult(math.exp(log_total), "closed_form", 0.0)
        active = [i for i in range(profile.s) if profile.a[i] < 1.0]
        if not active:
            # every head coordinate sits on a unit singular value with no
            # drift and no polynomial growth: ell is constant
            return NormResult(ell_at(profile, np.zeros(profile.s, dtype=complex), spec), "closed_form", 0.0)
        radii = []
        for i in range(profile.s):
            t = (1.0 - profile.a[i] ** 2) / 2.0
            if t <= 0:
                radii.append(1.0)
            else:
                rho = factor_argmax(profile.a[i], abs(profile.w[i]), profile.deg[i])
                radii.append(min(rho + max(4.0, 5.0 / math.sqrt(2.0 * t)), 60.0))
        value, err, _ = _numeric_sup(profile, spec, radii, active)
        return NormResult(value, "quadrature", err)

    # numeric evidence mode
    radius = float(spec.sup_radius) if spec.sup_radius is not None else 10.0
    radii = [radius] * profile.s
    value, err, edge = _numeric_sup(profile, spec, radii, list(range(profile.s)))
    if edge >= 0.5:
        # the maximum lives on the search boundary: treat as growing
        return NormResult(math.inf, "quadrature", math.inf)
    return NormResult(value, "quadrature", err)


def limsup_from_sup(profile: EllProfile, sup: NormResult) -> NormResult:
    """limsup of ell as the head point escapes to infinity, read from ``sup``, the sup of ell.

    Certified profiles only.  With every a_i < 1 the profile decays to zero;
    with a unit singular value present (finiteness then forces no drift and no
    polynomial factor there) ell is constant along that coordinate, so the
    limsup equals the sup.
    """
    if profile.mode != CERTIFIED:
        raise DomainError("limsup is only available with a certified profile")
    if not math.isfinite(sup.value):
        return sup
    if all(a < 1.0 for a in profile.a):
        return NormResult(0.0, sup.mode, 0.0)
    return sup


def ell_limsup(profile: EllProfile, spec: QuadSpec | None = None) -> NormResult:
    """limsup of ell (certified only); see ``limsup_from_sup``."""
    return limsup_from_sup(profile, ell_sup(profile, spec))


# -- the L^r integral of ell (q < p) ------------------------------------------


def _r_exponent(p: float, q: float) -> float:
    if not (0 < q < p):
        raise DomainError(f"this range needs 0 < q < p, got p={p}, q={q}")
    return p * q / (p - q)


def _closed_form_log_integral(profile: EllProfile, r: float) -> float:
    """log of Integral ell^r dA for a single-term certified profile.

    Per coordinate:
        Integral |z|^(r d) exp(-r t |z|^2 + r Re(z conj(w))) dA
      = 2 pi * Gamma(m/2+1) / (2 (r t)^(m/2+1)) * 1F1(m/2+1; 1; r|w|^2/(2(1-a^2)))
    with m = r d and t = (1 - a^2)/2.
    """
    log_total = r * math.log(profile.constant_factor)
    if any(profile.deg):
        from scipy.special import gamma, hyp1f1  # imported here: loading it dominates start-up time
    for a, w, d in zip(profile.a, profile.w, profile.deg):
        t = (1.0 - a * a) / 2.0
        if t <= 0.0:
            return math.inf
        m = r * d
        x = r * (abs(w) ** 2) / (2.0 * (1.0 - a * a))
        if d == 0:
            log_i = math.log(math.pi / (r * t)) + x
        else:
            val = (
                2.0
                * math.pi
                * gamma(m / 2.0 + 1.0)
                / (2.0 * (r * t) ** (m / 2.0 + 1.0))
                * hyp1f1(m / 2.0 + 1.0, 1.0, x)
            )
            log_i = math.log(val)
        log_total += log_i
    return log_total


def _logsumexp(a: np.ndarray) -> float:
    """log sum exp(a) over a real 1-D array; an infinite or NaN maximum is returned as is."""
    top = a.max()
    return float(top + np.log(np.sum(np.exp(a - top)))) if np.isfinite(top) else float(top)


def ell_log_integral(
    profile: EllProfile, power: float, centers: Sequence[complex], rates: Sequence[float], spec: QuadSpec, log_weight=None
) -> float:
    """Gauss-Hermite value of log Integral ell^power e^{log_weight} dA over C^s.

    Coordinate i is integrated against the Gaussian exp(-rates[i] |z - centers[i]|^2),
    whose compensating exponential is applied in log space.  ``log_weight``
    maps the per-axis head coordinates of a block (``block_axes``) to values
    broadcasting over it; -inf marks a point of zero weight, which the
    slice-norm fallback of ell does not evaluate.
    """
    s = profile.s
    k = spec.resolve_nodes(s) if profile.separable is not None else min(10, spec.resolve_nodes(s))
    t_rule, w_rule = hermite_rule(k)

    axes = []
    comp = []
    logw = []
    for c, rate in zip(centers, rates):
        h = 1.0 / math.sqrt(rate)
        axes.append(plane_axis(c.real + t_rule * h, c.imag + t_rule * h))
        comp.append(rate * np.abs(axes[-1] - c) ** 2)
        # raw weights here: the recentering exponential comp is added back in
        # log space below, so the e^{t^2} compensation must not be pre-applied
        lw = np.log(w_rule) - 0.5 * math.log(rate)
        logw.append((lw[:, None] + lw[None, :]).ravel())

    where = None
    if log_weight is not None and profile.separable is None:
        where = lambda zs: np.isfinite(log_weight(zs))  # noqa: E731
    block_logs = []
    for rows, logell in _ell_blocks(profile, axes, spec, where, log=True):
        parts = [sum(block_axes(comp, rows)), sum(block_axes(logw, rows))]
        if log_weight is not None:
            parts.append(np.broadcast_to(log_weight(block_axes(axes, rows)), parts[0].shape))
        if where is not None:
            # ell came flat, at the points of nonzero weight only
            keep = np.isfinite(parts[-1])
            parts = [part[keep] for part in parts]
        terms = power * logell
        for part in parts:
            terms = terms + part
        block_logs.append(_logsumexp(terms.ravel()) if terms.size else -math.inf)
    return _logsumexp(np.array(block_logs))


def _lr_log_integral(profile: EllProfile, r: float, spec: QuadSpec) -> float:
    """log Integral ell^r dA, each coordinate at rate r*(1-a^2)/2 centered at its drift maximizer."""
    ts = [max((1.0 - a * a) / 2.0, 1e-6) for a in profile.a]
    centers = [w / (2.0 * t) for w, t in zip(profile.w, ts)]
    return ell_log_integral(profile, r, centers, [r * t for t in ts], spec)


def _integral_evidence(profile: EllProfile, r: float, spec: QuadSpec) -> bool:
    """Riemann-sum growth check of Integral ell^r over expanding balls."""
    s = profile.s
    g = {1: 61, 2: 25, 3: 11}.get(s, 9)
    vals = []
    for radius in (5.0, 8.0):
        line = np.linspace(-radius, radius, g)
        cell = (line[1] - line[0]) ** (2 * s)
        axes = [plane_axis(line, line)] * s
        inside = lambda zs: sum(np.abs(z) ** 2 for z in zs) <= radius * radius  # noqa: E731
        total = sum(float(np.sum(ell**r)) for _, ell in _ell_blocks(profile, axes, spec, inside))
        vals.append(total * cell)
    if vals[1] <= 0:
        return True
    growth = (vals[1] - vals[0]) / vals[1]
    return growth < 1e-2


def _integrable(profile: EllProfile, r: float, spec: QuadSpec) -> bool:
    """Whether ell is in L^r: exact when certified, a growth check otherwise."""
    if profile.mode == CERTIFIED:
        return all(a < 1.0 for a in profile.a)
    return _integral_evidence(profile, r, spec)


def _lr_report(profile: EllProfile, r: float, spec: QuadSpec, member: bool) -> CarlesonReport:
    """||ell||_{L^r} of a profile whose membership verdict is ``member``."""
    if profile.mode == CERTIFIED:
        if not member:
            return CarlesonReport(r, NormResult(math.inf, "closed_form", 0.0), False, CERTIFIED)
        if profile.exact_factor and spec.allow_closed_form:
            log_i = _closed_form_log_integral(profile, r)
            return CarlesonReport(r, NormResult(math.exp(log_i / r), "closed_form", 0.0), True, CERTIFIED)
        log_i = _lr_log_integral(profile, r, spec)
        k = spec.resolve_nodes(profile.s)
        log_i2 = _lr_log_integral(
            profile, r, QuadSpec(nodes_per_axis=max(8, k // 2), allow_closed_form=spec.allow_closed_form)
        )
        value = math.exp(log_i / r)
        err = max(abs(value - math.exp(log_i2 / r)), 1e-11 * (1.0 + value))
        return CarlesonReport(r, NormResult(value, "quadrature", err), True, CERTIFIED)

    if not member:
        return CarlesonReport(r, NormResult(math.inf, "quadrature", math.inf), False, NUMERIC_EVIDENCE)
    log_i = _lr_log_integral(profile, r, spec)
    value = math.exp(log_i / r)
    return CarlesonReport(r, NormResult(value, "quadrature", 0.05 * value), True, NUMERIC_EVIDENCE)


def carleson_integral(norm: Normalization, p: float, q: float, spec: QuadSpec | None = None) -> CarlesonReport:
    """||ell||_{L^r(C^s)} with the membership verdict, r = pq/(p-q)."""
    spec = spec or DEFAULT_SPEC
    r = _r_exponent(p, q)
    profile = ell_profile(norm, q)
    return _lr_report(profile, r, spec, _integrable(profile, r, spec))


# -- classification and bounds -----------------------------------------------


def _coordinate_lines(profile: EllProfile) -> list[str]:
    lines = []
    raw = profile.normalization.raw_sigma
    for i, (a, w, d) in enumerate(zip(profile.a, profile.w, profile.deg)):
        note = f"coordinate {i}: a={a:.12g} (raw {raw[i]:.12g}), |w|={abs(w):.6g}, deg={d}"
        lines.append(note)
    return lines


def _numeric_decay_evidence(profile: EllProfile, spec: QuadSpec, sup_value: float) -> bool:
    """Whether ell looks negligible far out (numeric compactness evidence)."""
    radius = float(spec.sup_radius) if spec.sup_radius is not None else 10.0
    s = profile.s
    rng = np.random.default_rng(spec.seed)
    dirs = rng.normal(size=(24, 2 * s))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    zdir = dirs[:, :s] + 1j * dirs[:, s:]
    zdir /= np.sqrt(np.sum(np.abs(zdir) ** 2, axis=1))[:, None]
    far = ell_at_many(profile, radius * zdir, spec)
    return bool(far.max() < 1e-3 * max(sup_value, 1e-300))


def _sandwich_factor(profile: EllProfile, p: float, q: float, n: int) -> float:
    det = float(np.prod(profile.a))
    return det ** (-2.0 / q) * (q / p) ** (n / q)


class Analysis:
    """Everything the decision rules derive for one problem.

    Each attribute is computed when first read and then kept, so reading the
    verdict, the bounds and the ell statistics of one ``Analysis`` normalizes
    the problem once and searches for sup ell at most once.  Reading a
    quantity the problem does not have (the profile of a rank-zero map, the
    bounds of an unbounded operator, the L^r report when p <= q) raises
    DomainError.
    """

    def __init__(self, problem: WcoProblem, spec: QuadSpec | None = None):
        self.problem = problem
        self.spec = spec or DEFAULT_SPEC

    @cached_property
    def admissibility(self) -> AdmissibilityReport:
        return admissibility(self.problem)

    @cached_property
    def normalization(self) -> Normalization:
        return normalize(self.problem)

    @cached_property
    def profile(self) -> EllProfile:
        return ell_profile(self.normalization, self.problem.q)

    @cached_property
    def ell_sup(self) -> NormResult:
        return ell_sup(self.profile, self.spec)

    @cached_property
    def ell_limsup(self) -> NormResult:
        return limsup_from_sup(self.profile, self.ell_sup)

    @cached_property
    def integrable(self) -> bool:
        """For q < p: whether ell is in L^r, which decides boundedness."""
        return _integrable(self.profile, _r_exponent(self.problem.p, self.problem.q), self.spec)

    @cached_property
    def carleson(self) -> CarlesonReport:
        r = _r_exponent(self.problem.p, self.problem.q)
        return _lr_report(self.profile, r, self.spec, self.integrable)

    @cached_property
    def classification(self) -> Classification:
        """unbounded / bounded-not-compact / compact, with its certificate."""
        problem = self.problem
        adm = self.admissibility
        if not adm.admissible:
            return Classification(UNBOUNDED, CERTIFIED, adm.reason)

        if self.normalization.rank_s == 0:
            cert = (
                "constant map: W f = psi * f(b) has rank one, norm "
                "exp(|b|^2/2) * ||psi||_q, and is compact"
            )
            return Classification(COMPACT, CERTIFIED, cert)

        profile = self.profile
        lines = _coordinate_lines(profile)

        if problem.p <= problem.q:
            if profile.mode == CERTIFIED:
                flags = _finite_flags(profile)
                if not all(flags):
                    bad = [i for i, ok in enumerate(flags) if not ok]
                    lines.append(
                        f"sup of ell is infinite (unit singular value with drift or growth at {bad})"
                    )
                    return Classification(UNBOUNDED, CERTIFIED, "\n".join(lines))
                if all(a < 1.0 for a in profile.a):
                    lines.append("all head singular values < 1: ell decays to zero")
                    return Classification(COMPACT, CERTIFIED, "\n".join(lines))
                lines.append("bounded: sup ell finite; unit singular value keeps ell from decaying")
                return Classification(BOUNDED_NOT_COMPACT, CERTIFIED, "\n".join(lines))
            sup = self.ell_sup
            if not math.isfinite(sup.value):
                lines.append("numeric search grew toward the boundary: treated as unbounded")
                return Classification(UNBOUNDED, NUMERIC_EVIDENCE, "\n".join(lines))
            decay = _numeric_decay_evidence(profile, self.spec, sup.value)
            if decay:
                lines.append("numeric search: ell small on the outer shell, evidence of compactness")
                return Classification(COMPACT, NUMERIC_EVIDENCE, "\n".join(lines))
            lines.append("numeric search: ell bounded but not decaying on the outer shell")
            return Classification(BOUNDED_NOT_COMPACT, NUMERIC_EVIDENCE, "\n".join(lines))

        # q < p: bounded, compact and integrability of ell^r all coincide
        if profile.mode == CERTIFIED:
            if self.integrable:
                lines.append("all head singular values < 1: ell^r integrable, operator compact")
                return Classification(COMPACT, CERTIFIED, "\n".join(lines))
            lines.append("unit singular value present: ell^r not integrable, operator unbounded")
            return Classification(UNBOUNDED, CERTIFIED, "\n".join(lines))
        if self.integrable:
            lines.append("numeric integral of ell^r converged: evidence of compactness")
            return Classification(COMPACT, NUMERIC_EVIDENCE, "\n".join(lines))
        lines.append("numeric integral of ell^r kept growing: evidence of unboundedness")
        return Classification(UNBOUNDED, NUMERIC_EVIDENCE, "\n".join(lines))

    @cached_property
    def norm_bounds(self) -> NormBounds:
        """Two-sided operator norm bounds; exact for constant maps."""
        problem = self.problem
        cls = self.classification
        if cls.verdict == UNBOUNDED:
            raise DomainError("operator is unbounded; no finite norm bounds")

        norm = self.normalization
        if norm.rank_s == 0:
            b_sq = float(np.sum(np.abs(problem.phi.b) ** 2))
            val = math.exp(b_sq / 2.0) * fock_norm(problem.psi, problem.q, self.spec).value
            return NormBounds(val, val, 0.0, 0.0, False)

        profile = self.profile
        p, q = problem.p, problem.q
        if p <= q:
            ell = self.ell_sup
            upper = _sandwich_factor(profile, p, q, problem.n) * ell.value
            ess_lo = ess_hi = None
            if cls.verdict == COMPACT and cls.mode == CERTIFIED:
                ess_lo = ess_hi = 0.0
            elif cls.verdict == BOUNDED_NOT_COMPACT and cls.mode == CERTIFIED and p > 1.0:
                limsup = self.ell_limsup
                ess_lo = limsup.value
                ess_hi = 2.0 * _sandwich_factor(profile, p, q, problem.n) * limsup.value
            return NormBounds(ell.value, upper, ess_lo, ess_hi, False)

        report = self.carleson
        det = float(np.prod(profile.a))
        b_tail_sq = float(np.sum(np.abs(norm.b_t[norm.rank_s :]) ** 2))
        lower = det ** (2.0 * (p - q) / (p * q)) * math.exp(-b_tail_sq / 2.0) * report.lr_norm.value
        upper = det ** (-2.0 / p) * report.lr_norm.value
        ess = 0.0 if cls.mode == CERTIFIED else None
        return NormBounds(lower, upper, ess, ess, True)

    @cached_property
    def essential_norm_bounds(self) -> NormBounds:
        """Distance-to-compacts bounds; requires 1 < p <= q < inf."""
        problem = self.problem
        if not (1.0 < problem.p <= problem.q):
            raise UnsupportedExponentsError(
                f"essential norm bounds need 1 < p <= q < inf, got p={problem.p}, q={problem.q}"
            )
        cls = self.classification
        if cls.verdict == UNBOUNDED:
            raise DomainError("operator is unbounded; essential norm undefined")
        nb = self.norm_bounds
        if cls.verdict == COMPACT:
            return replace(nb, essential_lower=0.0, essential_upper=0.0)
        if cls.mode != CERTIFIED:
            raise DomainError("essential bounds require a certified profile (common-frequency symbol)")
        # certified, bounded and not compact with p > 1: norm_bounds already
        # holds limsup ell and twice the sandwich factor times it
        return nb


def analyze(problem: WcoProblem, spec: QuadSpec | None = None) -> Analysis:
    """One analysis of ``problem``: every quantity computed at most once, on first read."""
    return Analysis(problem, spec)


def classify(problem: WcoProblem, spec: QuadSpec | None = None) -> Classification:
    """Decide unbounded / bounded-not-compact / compact."""
    return analyze(problem, spec).classification


def norm_bounds(problem: WcoProblem, spec: QuadSpec | None = None) -> NormBounds:
    """Two-sided operator norm bounds; exact for constant maps."""
    return analyze(problem, spec).norm_bounds


def essential_norm_bounds(problem: WcoProblem, spec: QuadSpec | None = None) -> NormBounds:
    """Distance-to-compacts bounds; requires 1 < p <= q < inf."""
    return analyze(problem, spec).essential_norm_bounds
