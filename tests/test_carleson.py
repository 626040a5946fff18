"""Integrability route for the small-target range q < p.

For a single-kernel weight the profile is a pure Gaussian bump per
coordinate, so the L^r integral has an elementary value that the tests
recompute from scratch:

    Integral C^r e^{-r t |z|^2 + r Re(z conj(w))} dA = C^r (pi/(r t)) e^{r|w|^2/(4t)}

with t = (1-a^2)/2 per coordinate.
"""
import math

import mpmath
import numpy as np
import pytest

from fockop import carleson, quad, wco
from fockop.carleson import berezin_transform, carleson_integral, pullback_mass
from fockop.cli import load_problem
from fockop.errors import DomainError
from fockop.funcspace import AffineMap, ExpPoly, Term, constant, kernel
from fockop.quad import QuadSpec
from fockop.wco import WcoProblem, analyze, ell_profile, normalize
from helpers import corpus_path

FORCE_QUAD = QuadSpec(allow_closed_form=False)


def one_d(a, b=0.0, c=0.0, p=4.0, q=2.0):
    psi = kernel([c]) if c else constant(1)
    return WcoProblem(psi, AffineMap([[a]], [b]), p, q)


def expected_lr_1d(prob):
    """Recompute ||ell||_{L^r} from the displayed elementary integral."""
    r = prob.p * prob.q / (prob.p - prob.q)
    nz = normalize(prob)
    pf = ell_profile(nz, prob.q)
    (a,), (w,) = pf.a, pf.w
    t = (1.0 - a * a) / 2.0
    integral = pf.constant_factor**r * (math.pi / (r * t)) * math.exp(r * abs(w) ** 2 / (4.0 * t))
    return integral ** (1.0 / r)


@pytest.mark.parametrize("a,b,c", [(0.5, 0.0, 0.0), (0.7, 0.3, 0.0), (0.4, 0.2, 0.5), (0.9, 0.1, -0.3)])
def test_lr_norm_closed_form_against_elementary_integral(a, b, c):
    prob = one_d(a, b, c)
    rep = carleson_integral(normalize(prob), prob.p, prob.q)
    assert rep.member
    assert rep.lr_norm.mode == "closed_form"
    assert rep.lr_norm.value == pytest.approx(expected_lr_1d(prob), rel=1e-12)


@pytest.mark.parametrize("k, a, b, c", [(1, 0.5, 0.0, 0.0), (2, 0.7, 0.3, 0.4 - 0.2j), (3, 0.4, -0.2j, 0.5)])
def test_lr_norm_of_a_monomial_weight_against_radial_integral(k, a, b, c):
    # psi = z^k e^{z conj(c)} and phi = a z + b give
    # ell = e^{|b|^2/2} |z|^k e^{-t|z|^2 + Re(z conj(c + a b))} with t = (1-a^2)/2
    p, q = 4.0, 2.0
    prob = WcoProblem(ExpPoly(1, (Term(1.0, (k,), (c,)),)), AffineMap([[a]], [b]), p, q)
    an = analyze(prob)
    assert an.profile.deg == (k,)
    assert an.carleson.lr_norm.mode == "closed_form"
    r, t, w = p * q / (p - q), (1.0 - a * a) / 2.0, abs(c + a * b)
    with mpmath.workdps(30):
        radial = mpmath.quad(
            lambda u: u ** (r * k + 1) * mpmath.besseli(0, r * w * u) * mpmath.exp(-r * t * u * u), [0, mpmath.inf]
        )
        want = float((mpmath.exp(r * abs(b) ** 2 / 2) * 2 * mpmath.pi * radial) ** (1 / r))
    assert an.carleson.lr_norm.value == pytest.approx(want, rel=1e-12)


def test_plain_no_drift_value():
    # psi = 1, b = 0: ||ell||_{L^r} = (2 pi / (r (1-a^2)))^{1/r}
    a, p, q = 0.6, 3.0, 1.5
    rep = carleson_integral(normalize(one_d(a, p=p, q=q)), p, q)
    r = p * q / (p - q)
    assert rep.r_exponent == pytest.approx(r)
    assert rep.lr_norm.value == pytest.approx((2.0 * math.pi / (r * (1 - a * a))) ** (1 / r), rel=1e-12)


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_quadrature_path_matches_closed_form(a):
    prob = one_d(a, b=0.25, c=0.2)
    nz = normalize(prob)
    exact = carleson_integral(nz, prob.p, prob.q)
    quad = carleson_integral(nz, prob.p, prob.q, FORCE_QUAD)
    assert quad.lr_norm.mode == "quadrature"
    assert quad.lr_norm.value == pytest.approx(exact.lr_norm.value, rel=1e-9)


def test_membership_dichotomy_at_unit_singular_value():
    assert carleson_integral(normalize(one_d(0.99)), 4.0, 2.0).member
    rep = carleson_integral(normalize(one_d(1.0)), 4.0, 2.0)
    assert not rep.member
    assert math.isinf(rep.lr_norm.value)


def test_lr_norm_grows_with_drift():
    values = [
        carleson_integral(normalize(one_d(0.5, b)), 4.0, 2.0).lr_norm.value
        for b in (0.0, 0.3, 0.6, 0.9)
    ]
    assert all(u < v for u, v in zip(values, values[1:]))


def test_rejects_wrong_exponent_order_and_rank_zero():
    with pytest.raises(DomainError):
        carleson_integral(normalize(one_d(0.5)), 2.0, 4.0)
    with pytest.raises(DomainError):
        carleson_integral(normalize(one_d(0.0)), 4.0, 2.0)


def test_two_dimensional_closed_form_vs_quadrature():
    A = np.diag([0.6, 0.3]).astype(complex)
    prob = WcoProblem(kernel([0.3, -0.2]), AffineMap(A, [0.2, 0.1]), 4.0, 2.0)
    nz = normalize(prob)
    exact = carleson_integral(nz, 4.0, 2.0)
    quad = carleson_integral(nz, 4.0, 2.0, FORCE_QUAD)
    assert quad.lr_norm.value == pytest.approx(exact.lr_norm.value, rel=1e-9)


# -- measure-side checks -------------------------------------------------------


def test_pullback_mass_monotone_in_radius():
    nz = normalize(one_d(0.5, 0.2, 0.1))
    masses = [pullback_mass(nz, 2.0, [0.0], r) for r in (0.5, 1.0, 2.0, 4.0)]
    assert all(m >= 0.0 for m in masses)
    assert all(u <= v + 1e-12 for u, v in zip(masses, masses[1:]))


def test_pullback_mass_concentrates_near_image_center():
    # the image of C under z -> a z + b is centered at b for the Gaussian bulk
    nz = normalize(one_d(0.4, 0.8))
    near = pullback_mass(nz, 2.0, [0.8], 1.0)
    far = pullback_mass(nz, 2.0, [-4.0], 1.0)
    assert near > 100.0 * far


def test_berezin_methods_agree():
    nz = normalize(one_d(0.5, 0.2, 0.3))
    for w in (0.0, 0.5, 1.0 + 0.5j):
        via_identity = berezin_transform(nz, 2.0, [w], method="identity")
        via_measure = berezin_transform(nz, 2.0, [w], method="direct")
        assert via_identity == pytest.approx(via_measure, rel=1e-6)


def test_berezin_decays_for_compact_symbol():
    nz = normalize(one_d(0.5))
    vals = [berezin_transform(nz, 2.0, [w]) for w in (0.0, 2.0, 4.0, 6.0)]
    assert vals[-1] < 1e-3 * vals[0]


def tail_monomial_problem(sigma, u, b):
    """A diagonal map of rank < n and the weight z_n e^{<z,u>}: one term, its monomial in the tail."""
    n = len(sigma)
    psi = ExpPoly(n, (Term(1.0 + 0j, (0,) * (n - 1) + (1,), tuple(complex(x) for x in u)),))
    return WcoProblem(psi, AffineMap(np.diag(sigma).astype(complex), b), 4.0, 2.0)


@pytest.mark.parametrize(
    "sigma,u,b",
    [((0.6, 0.0), (0.3, 0.2j), (0.1, 0.2)), ((0.6, 0.5, 0.0), (0.3, 0.2j, 0.1), (0.1, -0.2j, 0.3))],
    ids=["n2-rank1", "n3-rank2"],
)
def test_measure_of_a_tail_monomial_weight_needs_no_slice_norms(monkeypatch, sigma, u, b):
    # a single term makes ell exact (closed-form tail norm), so the measure evaluates no slice norm
    nz = normalize(tail_monomial_problem(sigma, u, b))
    assert nz.rank_s == len(sigma) - 1

    def refuse(*args, **kwargs):
        raise AssertionError("slice_norm called")

    for module in (quad, wco, carleson):
        for name in ("slice_norm", "slice_norm_many"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    w0 = np.zeros(nz.rank_s, dtype=complex)
    masses = [pullback_mass(nz, 2.0, w0, radius) for radius in (2.0, 4.0)]
    assert 0.0 < masses[0] <= masses[1]
    for w in (w0, np.full(nz.rank_s, 0.5 - 0.25j)):
        exact = berezin_transform(nz, 2.0, w, method="identity")
        assert berezin_transform(nz, 2.0, w, method="direct") == pytest.approx(exact, rel=1e-9)


def test_measure_on_the_slice_norm_fallback_skips_points_of_zero_weight(monkeypatch):
    # two frequencies on a rank-1 map of C^2: ell needs one slice norm per point
    psi = ExpPoly(2, (Term(1.0 + 0j, (0, 0), (0.3, 0.2j)), Term(0.5 + 0j, (0, 1), (-0.2, 0.1))))
    nz = normalize(WcoProblem(psi, AffineMap(np.diag([0.6, 0.0]).astype(complex), [0.1, 0.2]), 4.0, 2.0))
    assert ell_profile(nz, 2.0).separable is None
    points = []
    slice_norm_many = wco.slice_norm_many

    def counting(psi, q, heads, spec):
        points.append(len(heads))
        return slice_norm_many(psi, q, heads, spec)

    monkeypatch.setattr(wco, "slice_norm_many", counting)
    small, large = (pullback_mass(nz, 2.0, [0.1], radius) for radius in (0.5, 4.0))
    assert 0 < points[0] < points[1] < 40**2  # the rule has 40^2 nodes; each ball holds fewer, the small one few
    assert 0.0 < small < large
    w = [0.2]
    exact = berezin_transform(nz, 2.0, w, method="identity")
    assert berezin_transform(nz, 2.0, w, method="direct") == pytest.approx(exact, rel=1e-9)


# -- block-by-block quadrature ---------------------------------------------------


def corpus_09():
    return analyze(load_problem(corpus_path("09_collapse_compact")).problem)


def record_block_sizes(monkeypatch, name):
    """Patch the block generator ``wco.<name>`` to record how many values each block holds."""
    sizes = []
    blocks = getattr(wco, name)

    def recording(*args, **kwargs):
        for rows, values in blocks(*args, **kwargs):
            sizes.append(values.size)
            yield rows, values

    monkeypatch.setattr(wco, name, recording)
    return sizes


def record_grids(monkeypatch):
    """Patch ``quad.grid_blocks`` to record the axis sizes of every grid it splits and the points of every block."""
    grids, blocks = [], []
    grid_blocks = quad.grid_blocks

    def recording(sizes):
        grids.append(tuple(sizes))
        for rows in grid_blocks(sizes):
            blocks.append((rows.stop - rows.start) * math.prod(sizes[1:]))
            yield rows

    monkeypatch.setattr(quad, "grid_blocks", recording)
    return grids, blocks


def test_log_integral_feeds_ell_one_block_at_a_time(monkeypatch):
    # corpus 09 has rank 2: its 40^2 x 40^2 rule has 2,560,000 points.  Its ell is one term, a
    # product of per-axis factors, so its L^r integral is a product of per-axis sums and needs no
    # grid; the measure's ball weight joins the axes, and the weighted tensor sum takes the grid
    # block by block
    an = corpus_09()
    grids, blocks = record_grids(monkeypatch)
    wco._lr_log_integral(an.profile, 4.0, FORCE_QUAD)
    assert grids == []
    pullback_mass(an.normalization, 2.0, [0.1, -0.2j], 2.0, FORCE_QUAD)
    assert grids and all(len(sizes) == 2 and max(sizes) <= 40**2 for sizes in grids)
    assert sum(blocks) == sum(math.prod(sizes) for sizes in grids)
    assert max(blocks) <= max(quad._GRID_BLOCK, 40**2)


def test_integral_evidence_feeds_ell_one_block_at_a_time(monkeypatch):
    # two frequencies give no certificate: membership comes from Riemann sums on 25^4 points
    psi = kernel([0.3, -0.2]) + kernel([-0.4j, 0.1])
    prob = WcoProblem(psi, AffineMap(np.diag([0.6, 0.3]).astype(complex), [0.2, 0.1]), 4.0, 2.0)
    an = analyze(prob)
    sizes = record_block_sizes(monkeypatch, "_ell_blocks")
    assert wco._integral_evidence(an.profile, 4.0, QuadSpec())
    assert max(sizes) <= max(quad._GRID_BLOCK, 25**3)


def test_measure_sums_do_not_depend_on_the_block(monkeypatch):
    an = corpus_09()
    spec = QuadSpec(nodes_per_axis=16, allow_closed_form=False)

    def sums():
        mass = pullback_mass(an.normalization, 2.0, [0.1, -0.2j], 2.0, spec)
        log_i = wco._lr_log_integral(an.profile, 4.0, spec)
        return mass, log_i

    mass, log_i = sums()
    monkeypatch.setattr(quad, "_GRID_BLOCK", 1)  # one row of the first axis per block
    mass_rows, log_i_rows = sums()
    assert abs(mass - mass_rows) <= 1e-13 * mass
    assert abs(log_i - log_i_rows) <= 1e-13 * max(1.0, abs(log_i))


# -- the separable integral by per-axis contraction ------------------------------


def per_point_log_integral(profile, power, centers, rates, k, log_weight=None):
    """log Integral ell^power e^{log_weight} on ``ell_log_integral``'s rule, summed point by point in logs.

    The whole grid is stacked, and log ell is read from the separable form at each point.
    """
    t, w = np.polynomial.hermite.hermgauss(k)
    axes, rule = [], []
    for c, rate in zip(centers, rates):
        h = 1.0 / math.sqrt(rate)
        axes.append(((c.real + t * h)[:, None] + 1j * (c.imag + t * h)[None, :]).ravel())
        lw = np.log(w) - 0.5 * math.log(rate)
        rule.append(rate * np.abs(axes[-1] - c) ** 2 + (lw[:, None] + lw[None, :]).ravel())
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    terms = sum(m.ravel() for m in np.meshgrid(*rule, indexing="ij"))
    sep = profile.separable
    log_ell = np.full(len(pts), sum(sep.log_const))
    if sep.g is not None:
        log_ell += np.log(np.abs(sep.g.eval_many(pts)))
    for z, a, d, u in zip(pts.T, profile.a, sep.d, sep.u):
        if d:
            with np.errstate(divide="ignore"):
                log_ell += d * np.log(np.abs(z))
        log_ell += ((a * a - 1.0) / 2.0) * np.abs(z) ** 2 + np.real(z * np.conj(u))
    terms = terms + power * log_ell
    if log_weight is not None:
        terms = terms + log_weight(list(pts.T))
    top = terms.max()
    return float(top + np.log(np.sum(np.exp(terms - top))))


def ball(center, radius):
    """The mask of a ball, as ``ell_log_integral`` takes it, on the head coordinates of a block."""
    return lambda zs: sum(np.abs(z - c) ** 2 for z, c in zip(zs, center)) <= radius**2


def berezin_weights(profile, q, w):
    """Per axis, log |k_w|^q's factor at the image a z + b of the head point, as ``berezin_transform`` weighs
    the measure."""
    nz = profile.normalization
    a, b = nz.diag[: profile.s], nz.b_t[: profile.s]
    return lambda axes: [
        q * (np.real((a_i * z + b_i) * np.conj(w_i)) - abs(w_i) ** 2 / 2) for z, a_i, b_i, w_i in zip(axes, a, b, w)
    ]


def as_log_weight(log_weights=None, mask=None):
    """The per-point log weight of per-axis log weights and a mask, for ``per_point_log_integral``."""
    def log_weight(zs):
        total = 0.0 if log_weights is None else sum(log_weights(zs))
        return total if mask is None else np.where(mask(zs), total, -np.inf)
    return log_weight


CONTRACTION_CASES = {
    # z1^2 z2 e^{<z,u>} centred at 0 with an odd rule: a node sits at the origin, where log|z_i| = -inf
    "powers-at-origin": (ExpPoly(2, (Term(1.0, (2, 1), (0.0, 0.0)),)), [0.6, 0.4], 4.0, 2.0, 9, None),
    "powers-in-a-ball": (ExpPoly(2, (Term(1.0, (2, 1), (0.0, 0.0)),)), [0.6, 0.4], 4.0, 2.0, 9, "ball"),
    # two frequencies at full rank: g = psi_t involves both axes
    "g-in-a-ball": (kernel([0.3, -0.2]) + kernel([-0.4j, 0.1]), [0.6, 0.3], 4.0, 2.0, 16, "ball"),
    "g-berezin": (kernel([0.3, -0.2]) + kernel([-0.4j, 0.1]), [0.6, 0.3], 4.0, 2.0, 16, "berezin"),
    "g-berezin-in-a-ball": (kernel([0.3, -0.2]) + kernel([-0.4j, 0.1]), [0.6, 0.3], 4.0, 2.0, 16, "both"),
    "one-term-berezin": (kernel([0.3, -0.2]), [0.8, 0.5], 3.0, 1.5, 16, "berezin"),
    # g = 1 + 0.5 z1 is the head polynomial of a common frequency: axis 2 is summed alone
    "g-on-one-axis": (
        ExpPoly(2, (Term(1.0, (0, 0), (0.3, 0.2j)), Term(0.5, (1, 0), (0.3, 0.2j)))), [0.6, 0.45], 4.0, 2.0, 16, None,
    ),
    "g-on-one-axis-of-three": (
        ExpPoly(3, (Term(1.0, (0, 0, 0), (0.3j, 0.1, 0.2)), Term(0.5, (0, 1, 0), (0.3j, 0.1, 0.2)))),
        [0.8, 0.6, 0.4], 4.0, 2.0, 8, None,
    ),
}


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("case", sorted(CONTRACTION_CASES))
def test_contraction_matches_per_point_logsumexp(monkeypatch, case, block):
    psi, diag, p, q, k, weight = CONTRACTION_CASES[case]
    nz = normalize(WcoProblem(psi, AffineMap(np.diag(diag), [0.1, -0.2j, 0.3][: len(diag)]), p, q))
    profile = ell_profile(nz, q)
    assert profile.separable is not None
    r = p * q / (p - q)
    ts = [(1.0 - a * a) / 2.0 for a in profile.a]
    centers = [0j] * profile.s if case.startswith("powers") else [w / (2.0 * t) for w, t in zip(profile.w, ts)]
    rates = [r * t for t in ts]
    log_weights = berezin_weights(profile, q, [0.4 - 0.3j] * profile.s) if weight in ("berezin", "both") else None
    mask = ball([0.5] * profile.s, 2.0) if weight in ("ball", "both") else None
    want = per_point_log_integral(profile, r, centers, rates, k, as_log_weight(log_weights, mask))
    if block is not None:
        monkeypatch.setattr(quad, "_GRID_BLOCK", block)
    got = wco.ell_log_integral(profile, r, centers, rates, QuadSpec(nodes_per_axis=k), log_weights, mask)
    assert math.isfinite(want)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_contraction_sums_a_block_in_logs_where_its_scaled_sum_underflows(monkeypatch):
    # g = e^{40 z1} + e^{40 z2}: on each axis one term's factor is the largest, so rescaled by those
    # largest factors both terms are about e^{-450} at the rim, where |k_w|^q at w = (100, 100) puts
    # the weight; |g|^r there also overflows unscaled, so every block is summed in logs point by point
    nz = normalize(WcoProblem(kernel([40.0, 0.0]) + kernel([0.0, 40.0]), AffineMap(np.diag([0.6, 0.5]), [0, 0]), 4.0, 2.0))
    profile = ell_profile(nz, 2.0)
    log_weights = berezin_weights(profile, 2.0, [100.0, 100.0])
    sums = []
    monkeypatch.setattr(quad, "log_sum_exp", lambda a, f=quad.log_sum_exp: sums.append(a.size) or f(a))
    got = wco.ell_log_integral(profile, 2.0, [6.0 + 0j] * 2, [1.0] * 2, QuadSpec(nodes_per_axis=20), log_weights)
    assert max(sums) > 20**2  # a block summed point by point
    want = per_point_log_integral(profile, 2.0, [6.0 + 0j] * 2, [1.0] * 2, 20, as_log_weight(log_weights))
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
