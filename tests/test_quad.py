import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from fockop import quad
from fockop.errors import DomainError
from fockop.funcspace import ExpPoly, Term, constant, kernel, monomial, normalized_kernel
from fockop.quad import QuadSpec, f2_inner, fock_norm, slice_norm
from fockop.verify import random_symbol, suite_lemmas

GH = QuadSpec(allow_closed_form=False)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("w", [[0.0], [1.5], [0.7 - 1.1j], [0.4, -0.9j]])
def test_normalized_kernel_has_unit_norm(p, w):
    r = fock_norm(normalized_kernel(w), p)
    assert r.value == pytest.approx(1.0, abs=1e-9)
    # same thing through the generic quadrature path
    r_gh = fock_norm(normalized_kernel(w), p, GH)
    assert r_gh.value == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5, 8])
def test_monomial_f2_norm_is_sqrt_factorial(k):
    f = monomial(1, (k,))
    assert math.sqrt(f2_inner(f, f).real) == pytest.approx(math.sqrt(math.factorial(k)), rel=1e-12)
    assert fock_norm(f, 2.0).value == pytest.approx(math.sqrt(math.factorial(k)), rel=1e-8)


def test_f2_norm_pythagoras_multivariate():
    # orthogonal monomials: ||z1 + 2 z2^2||_2^2 = 1! + 4 * 2!
    f = monomial(2, (1, 0)) + monomial(2, (0, 2), coeff=2.0)
    assert math.sqrt(f2_inner(f, f).real) == pytest.approx(math.sqrt(1.0 + 4.0 * 2.0), rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_kernel_norm_closed_form(p, w=0.9 + 0.3j):
    # ||K_w||_p = e^{|w|^2/2}, independent of p
    r = fock_norm(kernel([w]), p)
    assert r.value == pytest.approx(math.exp(abs(w) ** 2 / 2.0), rel=1e-9)


def _radial_moment(a, c, p):
    """(p/2pi) Integral |z|^(pa) e^{p Re(z conj c) - p|z|^2/2} dA as a Bessel radial integral, at 30 digits."""
    with mpmath.workdps(30):
        return float(mpmath.quad(
            lambda r: p * r ** (p * a + 1) * mpmath.besseli(0, p * r * abs(c)) * mpmath.exp(-p * r * r / 2),
            [0, mpmath.inf],
        ))


@pytest.mark.parametrize("p", [0.5, 1.0, 3.5])
@pytest.mark.parametrize(
    "power, freq", [((1,), (0j,)), ((3,), (0.8 - 0.6j,)), ((2, 1), (1.2j, 0j)), ((0, 4), (0.5, -0.3 + 0.4j))]
)
def test_single_term_norm_with_powers_matches_radial_integral(p, power, freq):
    coeff = 1.5 - 2.0j
    want = abs(coeff) * math.prod(_radial_moment(a, c, p) ** (1.0 / p) for a, c in zip(power, freq))
    assert quad.single_term_norm(coeff, power, freq, p) == pytest.approx(want, rel=1e-12)


def test_constant_norm_is_modulus():
    assert fock_norm(constant(2, 3.0 - 4.0j), 1.7).value == pytest.approx(5.0, rel=1e-10)


def test_quadrature_error_estimate_covers_node_doubling():
    rng = np.random.default_rng(4)
    for _ in range(8):
        f = random_symbol(rng, 1)
        base = fock_norm(f, 2.5, GH)
        fine = fock_norm(f, 2.5, dataclasses.replace(GH, nodes_per_axis=80))
        assert abs(base.value - fine.value) <= base.err_estimate + 1e-12 * (1.0 + fine.value)


def test_slice_norm_matches_slicing_then_norming():
    from fockop.funcspace import slice_head

    f = kernel([0.4, -0.3]) + monomial(2, (0, 1), coeff=0.5)
    head = [0.7 - 0.2j]
    fast = slice_norm(f, 2.0, head)
    slow = fock_norm(slice_head(f, head), 2.0)
    assert fast.value == pytest.approx(slow.value, rel=1e-9)


def test_slice_norm_at_fixed_head():
    # fixing the head turns the kernel into a scaled 1-d kernel
    f = kernel([0.4, -0.3])
    head = [1.0 + 0.5j]
    r = slice_norm(f, 2.0, head)
    scale = abs(np.exp(head[0] * np.conj(0.4)))
    assert r.value == pytest.approx(scale * math.exp(0.3**2 / 2.0), rel=1e-9)


def test_rejects_bad_exponent_and_method():
    with pytest.raises(DomainError):
        fock_norm(constant(1), 0.0)
    # Gauss-Hermite quadrature is the one numeric method: a spec cannot name another
    with pytest.raises(TypeError):
        QuadSpec(method="simpson")
    with pytest.raises(DomainError):
        fock_norm(constant(1) + kernel([0.5]), 2.5, QuadSpec(nodes_per_axis=4, allow_closed_form=False))


def test_norm_result_reports_method():
    closed = fock_norm(kernel([0.2]), 2.0)
    grid = fock_norm(kernel([0.2]) + constant(1), 2.7, GH)
    assert closed.mode == "closed_form"
    assert closed.err_estimate == 0.0
    assert grid.mode == "quadrature"
    assert grid.err_estimate > 0.0


def _series_pairing(g, d, c, e):
    """<z^g e^{z conj(c)}, z^d e^{z conj(e)}> from the monomial expansion, at 50 digits."""
    with mpmath.workdps(50):
        cb, e = mpmath.conj(mpmath.mpc(c)), mpmath.mpc(e)
        total = mpmath.mpc(0)
        for k in range(max(g, d), 600):
            total += (
                mpmath.factorial(k) * cb ** (k - g) * e ** (k - d)
                / (mpmath.factorial(k - g) * mpmath.factorial(k - d))
            )
        return complex(total)


@pytest.mark.parametrize(
    "g, d, c, e",
    [
        (0, 0, 0.3 + 0.2j, -1.1 + 0.4j),
        (2, 3, 1.2 - 0.7j, 0.9 + 1.3j),
        (4, 1, -0.6 + 0.0j, 0.0j),
        (0, 5, 0.0j, 2.1 - 0.3j),
        # conj(c) e close to -14: the monomial series cancels by e^28 here
        (0, 0, 3.7 + 0.3j, -3.77 + 0.31j),
        (3, 3, 3.7 + 0.3j, -3.77 + 0.31j),
        (6, 2, 3.7 + 0.3j, -3.77 + 0.31j),
    ],
)
def test_single_pairing_matches_high_precision(g, d, c, e):
    f = ExpPoly(1, (Term(1.0, (g,), (c,)),))
    h = ExpPoly(1, (Term(1.0, (d,), (e,)),))
    want = _series_pairing(g, d, c, e)
    assert abs(f2_inner(f, h) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [1, 2])
def test_p2_closed_form_matches_gauss_hermite(n):
    rng = np.random.default_rng(30 + n)
    checked = 0
    while checked < 12:
        f = random_symbol(rng, n)
        if len(f.terms) < 2:
            continue
        exact = fock_norm(f, 2.0)
        grid = fock_norm(f, 2.0, GH)
        assert exact.mode == "closed_form" and grid.mode == "quadrature"
        assert 0.0 < exact.err_estimate <= 1e-12 * exact.value
        assert abs(exact.value - grid.value) <= grid.err_estimate
        checked += 1


def test_p2_norm_runs_no_quadrature(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Gauss-Hermite integral called")

    monkeypatch.setattr(quad, "_gh_integral_norm", refuse)
    pair = normalized_kernel([1.3]) + normalized_kernel([-1.3])
    assert fock_norm(pair, 2.0).value == pytest.approx(
        math.sqrt(2.0 + 2.0 * math.exp(-2.0 * 1.3**2)), rel=1e-14
    )
    with pytest.raises(AssertionError, match="Gauss-Hermite"):
        fock_norm(pair, 2.0, GH)


# -- block-by-block tensor-product sums -----------------------------------------


@pytest.mark.parametrize("sizes", [(7,), (5, 3), (4, 3, 2)])
def test_grid_blocks_follow_meshgrid_order(monkeypatch, sizes):
    monkeypatch.setattr(quad, "_GRID_BLOCK", 5)
    axes = [np.arange(m) for m in sizes]
    whole = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    blocks = []
    for rows in quad.grid_blocks(sizes):
        mesh = np.meshgrid(axes[0][rows], *axes[1:], indexing="ij")
        blocks.append(np.stack([m.ravel() for m in mesh], axis=-1))
        assert len(blocks[-1]) <= max(5, math.prod(sizes[1:]))
    assert np.array_equal(np.concatenate(blocks), whole)


def _three_term_symbol(n):
    rng = np.random.default_rng(40 + n)
    terms = []
    for power in [(0,) * n, (1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,)]:
        freq = tuple(complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(n))
        terms.append(Term(complex(*rng.uniform(-1.0, 1.0, 2)), power, freq))
    return ExpPoly(n, tuple(terms))


def _summed_nodes(monkeypatch):
    """A list that collects the node count of every grid ``quad.grid_blocks`` splits."""
    sizes = []
    grid_blocks = quad.grid_blocks

    def counting(axis_sizes):
        sizes.append(math.prod(axis_sizes))
        return grid_blocks(axis_sizes)

    monkeypatch.setattr(quad, "grid_blocks", counting)
    return sizes


@pytest.mark.parametrize("n, k", [(1, 40), (2, 40), (3, 10)])
def test_gh_norm_does_not_depend_on_the_block(monkeypatch, n, k):
    f = _three_term_symbol(n)
    for p in (0.7, 1.0, 3.5):
        with monkeypatch.context() as patch:
            summed = _summed_nodes(patch)
            pruned = quad._gh_integral_norm(f, p, k)
            patch.setattr(quad, "_PRUNE_BUDGET", 0.0)  # the whole rule
            whole = quad._gh_integral_norm(f, p, k)
            patch.setattr(quad, "_GRID_BLOCK", 1)  # one row of the first axis per block
            by_rows = quad._gh_integral_norm(f, p, k)
        assert summed[1:] == [k ** (2 * n)] * 2
        if k == 40:
            assert summed[0] < 0.8 * k ** (2 * n)  # the far nodes of a 40-node rule are negligible
        assert abs(pruned - whole) <= 1e-13 * whole
        assert abs(whole - by_rows) <= 1e-13 * whole


@pytest.mark.parametrize("n", [1, 2])
def test_cancelling_terms_take_the_whole_rule(monkeypatch, n):
    # two kernels 1e-6 apart: the norm is about 1e-6 of the separable bound, so no drop is provably negligible
    a = (0.4 - 0.3j, 0.2j)[:n]
    f = ExpPoly(n, (Term(1.0 + 0j, (0,) * n, a), Term(-1.0 + 0j, (0,) * n, tuple(c + 1e-6 for c in a))))
    summed = _summed_nodes(monkeypatch)
    pruned = quad._gh_integral_norm(f, 1.0, 40)
    assert summed[0] < 40 ** (2 * n) and summed[1:] == [40 ** (2 * n)]
    monkeypatch.setattr(quad, "_PRUNE_BUDGET", 0.0)
    assert pruned == quad._gh_integral_norm(f, 1.0, 40)


def test_batched_slice_norms_prune_per_point(monkeypatch):
    # the head coordinate scales the three terms by powers 0, 1 and 2 of heads spread over four decades
    f = ExpPoly(3, (
        Term(1.0 + 0j, (0, 0, 1), (0.3 + 0j, 0.2j, -0.4 + 0j)),
        Term(0.8 - 0.5j, (1, 1, 0), (-0.2j, 0.5 + 0j, 0.1 + 0j)),
        Term(-0.6 + 0.2j, (2, 0, 2), (0.1 + 0.1j, -0.3 + 0j, 0.2j)),
    ))
    heads = np.array([[1e-3], [2e-2 + 1e-2j], [0.5j], [1.0], [3.0 - 2.0j], [-8.0]])
    summed = _summed_nodes(monkeypatch)
    pruned = quad.slice_norm_many(f, 0.7, heads)
    assert sum(summed) < 40**4
    monkeypatch.setattr(quad, "_PRUNE_BUDGET", 0.0)
    whole = quad.slice_norm_many(f, 0.7, heads)
    assert np.all(np.abs(pruned - whole) <= 1e-13 * whole)
    for h, value in zip(heads, whole):
        assert value == pytest.approx(slice_norm(f, 0.7, h).value, rel=1e-13)


@pytest.mark.parametrize("p", [0.5, 0.7, 1.0, 3.5])
@pytest.mark.parametrize("n", [1, 2])
def test_node_bounds_hold_for_every_axis_node(n, p):
    f = _random_terms_symbol(n, 90 + n)
    rng = np.random.default_rng(100 + n)
    coeffs = np.array([[t.coeff for t in f.terms], rng.normal(size=3) + 1j * rng.normal(size=3)])
    powers, freqs = [t.power for t in f.terms], [t.freq for t in f.terms]
    center = np.mean(np.array(freqs), axis=0)
    coords, weights, _ = zip(*(quad.coordinate_grid(complex(c), p, 8) for c in center))
    factors, masses, total = quad._node_bounds(coeffs, quad._factor_tables(powers, freqs, coords), weights, p)
    mesh = np.meshgrid(*coords, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    weight = math.prod(np.meshgrid(*weights, indexing="ij"))
    for row, c in enumerate(coeffs):
        g = ExpPoly(n, tuple(Term(complex(a), power, freq) for a, power, freq in zip(c, powers, freqs)))
        share = weight * np.abs(g.eval_many(points).reshape(weight.shape)) ** p
        assert share.sum() <= total[row] * (1 + 1e-12)
        for i, (factor, mass) in enumerate(zip(factors, masses)):
            # node j of axis i, summed over the other axes
            exact = np.moveaxis(share, i, 0).reshape(len(coords[i]), -1).sum(axis=1)
            bound = factor[row] @ mass
            assert np.all(exact <= bound * (1 + 1e-12))
            assert bound.sum() == pytest.approx(total[row], rel=1e-12)


def test_lemma_norms_sum_at_most_65_percent_of_their_rules(monkeypatch):
    # each Gauss-Hermite integral of the lemma suite counts its whole rule, k^(2n) nodes
    whole = []
    gh_integrals = quad._gh_integrals

    def counting(coeffs, powers, freqs, p, k):
        whole.append(k ** (2 * len(powers[0])))
        return gh_integrals(coeffs, powers, freqs, p, k)

    monkeypatch.setattr(quad, "_gh_integrals", counting)
    summed = _summed_nodes(monkeypatch)
    suite_lemmas([])
    assert len(whole) == 362
    assert sum(summed) <= 0.65 * sum(whole)


def test_gh_norm_holds_one_block_at_a_time():
    # the whole 40^2 x 40^2 grid of complex values alone takes 41 MB
    f = _three_term_symbol(2)
    fock_norm(f, 0.7)  # node rules are cached on first use
    tracemalloc.start()
    try:
        fock_norm(f, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# -- the one weighted tensor-sum kernel ---------------------------------------------


def _per_point_log_sums(coeffs, powers, freqs, axes, log_weights, p, mask):
    """log of sum mask * prod_i e^{log_weights[i]} |f_m|^p per row m, over the stacked grid, summed in logs."""
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=-1)
    rule = sum(m.ravel() for m in np.meshgrid(*log_weights, indexing="ij"))
    if mask is not None:
        rule = np.where(mask(list(pts.T)), rule, -np.inf)
    out = []
    for c in coeffs:
        values = sum(
            a * np.prod([z ** g[i] * np.exp(z * np.conj(f[i])) for i, z in enumerate(pts.T)], axis=0)
            for a, g, f in zip(c, powers, freqs)
        )
        terms = p * np.log(np.abs(values)) + rule
        top = terms.max()
        out.append(float(top + np.log(np.sum(np.exp(terms - top)))))
    return np.array(out)


@pytest.mark.parametrize("prune", [True, False])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("p", [0.5, 0.7, 1.0, 3.5, 28.0])
def test_tensor_log_sums_match_per_point_logsumexp(monkeypatch, p, masked, prune):
    # three axes, the last one shared by every term (summed alone when there is no mask); coefficient
    # rows of scale 1, 1e-200 and 1e20, whose sums at p = 28 leave the double range; a quarter of the
    # nodes weigh e^-80 less, so the separable bound drops them
    rng = np.random.default_rng(int(p * 10) + 2 * masked + prune)
    sizes = (5, 4, 3)
    axes = [rng.normal(size=m) + 1j * rng.normal(size=m) for m in sizes]
    powers = [(int(rng.integers(0, 3)), int(rng.integers(0, 3)), 1) for _ in range(3)]
    shared = complex(*rng.uniform(-0.8, 0.8, 2))
    freqs = [tuple(complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(2)) + (shared,) for _ in range(3)]
    coeffs = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * np.array([[1.0], [1e-200], [1e20]])
    log_weights = [3.0 * rng.normal(size=m) - 80.0 * (np.arange(m) % 4 == 3) for m in sizes]
    mask = (lambda zs: sum(np.abs(z) ** 2 for z in zs) <= 4.0) if masked else None
    monkeypatch.setattr(quad, "_GRID_BLOCK", 7)
    if not prune:
        monkeypatch.setattr(quad, "_PRUNE_BUDGET", 0.0)
    want = _per_point_log_sums(coeffs, powers, freqs, axes, log_weights, p, mask)
    sums, logs = quad.tensor_log_sums(
        coeffs, powers, freqs, axes, [np.exp(lw) for lw in log_weights], log_weights, p, 0.0, mask
    )
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(np.log(sums) + logs - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize(
    "w, want", [(12.0, 1.3043808543444165e32), (20.0, 7.956774013466384e87), (37.0, 3.6707108024844188e298)]
)
def test_gh_norm_whose_pth_power_leaves_the_double_range(w, want):
    # (1 + 0.5 z) e^{wz} at p = 4: |f|^4 overflows at the far nodes of the rule centred at w, at w = 20
    # the rule's Gaussian weights underflow there, and at w = 37 so does e^{z conj(w)} itself; the
    # references are mpmath values of ||f||_4 = ||f(./sqrt(2))^2||_2^(1/2), an exact p = 2 norm
    f = ExpPoly(1, (Term(1.0 + 0j, (0,), (w + 0j,)), Term(0.5 + 0j, (1,), (w + 0j,))))
    got = fock_norm(f, 4.0)
    assert got.mode == "quadrature"
    assert got.value == pytest.approx(want, rel=1e-9)


# -- the tensor-grid evaluator and the sup search ---------------------------------


def _random_terms_symbol(n, seed):
    rng = np.random.default_rng(seed)
    terms = []
    for _ in range(3):
        power = tuple(int(k) for k in rng.integers(0, 3, n))
        freq = tuple(complex(*rng.uniform(-0.8, 0.8, 2)) for _ in range(n))
        terms.append(Term(complex(*rng.uniform(-1.0, 1.0, 2)), power, freq))
    return ExpPoly(n, tuple(terms))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_tensor_values_match_pointwise_evaluation(monkeypatch, n):
    monkeypatch.setattr(quad, "_GRID_BLOCK", 5)
    f = _random_terms_symbol(n, 60 + n)
    rng = np.random.default_rng(70 + n)
    axes = [rng.normal(size=m) + 1j * rng.normal(size=m) for m in (7, 3, 4, 2)[:n]]
    seen = 0
    for rows, got in quad.tensor_values(f, axes):
        want = f.eval_many(quad.grid_points(axes, rows)).reshape(got.shape)
        assert got.shape == (rows.stop - rows.start, *[len(z) for z in axes[1:]])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        seen += got.size
    assert seen == math.prod(len(z) for z in axes)


def test_gh_norm_integrates_every_coordinate():
    # 1 + z4 on C^4 has the norm of 1 + z on C: the other three coordinates integrate to 1
    spec = QuadSpec(nodes_per_axis=8, allow_closed_form=False)
    f4 = constant(4) + monomial(4, (0, 0, 0, 1))
    f1 = constant(1) + monomial(1, (1,))
    got, want = fock_norm(f4, 3.0, spec), fock_norm(f1, 3.0, spec)
    assert got.mode == want.mode == "quadrature"
    assert abs(got.value - want.value) <= 1e-12 * want.value


# -- the sup search ---------------------------------------------------------------


def _sup_blocks(value_at, levels):
    """tensor_sup's block stream of ``value_at(block_axes)``, appending each grid's point count to ``levels``."""

    def blocks(axes):
        levels.append(math.prod(len(z) for z in axes))
        for rows in quad.grid_blocks([len(z) for z in axes]):
            yield rows, value_at(quad.block_axes(axes, rows))

    return blocks


def _bump_blocks(center, levels):
    """tensor_sup's block stream of e^{-|z - center|^2}."""
    return _sup_blocks(lambda zs: np.exp(-sum(np.abs(z - c) ** 2 for z, c in zip(zs, center))), levels)


def test_tensor_sup_refines_the_best_node_to_an_off_grid_maximum():
    xs = np.linspace(-3.0, 3.0, 15)
    axes = [quad.plane_axis(xs, xs), np.zeros(1, dtype=complex)]
    # largest at 0.31 - 0.17i on the free axis, between its nodes; the fixed axis stays at 0, 0.5 off its peak
    levels = []
    value, err, edge = quad.tensor_sup(_bump_blocks([0.31 - 0.17j, 0.5], levels), axes, [0], 1)
    assert value == pytest.approx(math.exp(-0.25), rel=1e-15) and edge < 0.5
    assert levels[0] == 15**2 and set(levels[1:]) == {9} and len(levels) <= 15
    grid, zero, _ = quad.tensor_sup(_bump_blocks([0.31 - 0.17j, 0.5], []), axes, [0], 0)
    assert grid < 0.99 * value and zero == 0.0 and err == value - grid
    # growth toward the boundary: the grid's best node stands
    levels = []
    _, err, edge = quad.tensor_sup(_bump_blocks([5.0 + 5.0j, 0.0], levels), axes, [0], 1)
    assert edge >= 0.5 and err == 0.0 and levels == [15**2]


def test_tensor_sup_finds_a_coupled_anisotropic_peak_on_two_coordinates():
    # 2.5 e^{-(x - c)^T Q (x - c) / 2} over x = (Re z0, Im z0, Re z1, Im z1), Q with eigenvalues 0.1 to 10 in a
    # seeded rotated frame, so that every real axis is coupled to every other
    rotation = np.linalg.qr(np.random.default_rng(3).normal(size=(4, 4)))[0]
    Q = rotation @ np.diag([0.1, 0.4, 2.5, 10.0]) @ rotation.T
    c = [0.31, -0.17, -0.52, 0.23]

    def value_at(zs):
        x = [zs[0].real - c[0], zs[0].imag - c[1], zs[1].real - c[2], zs[1].imag - c[3]]
        return 2.5 * np.exp(-sum(Q[k, m] * x[k] * x[m] for k in range(4) for m in range(4)) / 2.0)

    xs = np.linspace(-3.0, 3.0, 15)
    levels = []
    value, _, edge = quad.tensor_sup(_sup_blocks(value_at, levels), [quad.plane_axis(xs, xs)] * 2, [0, 1], 1)
    assert value == pytest.approx(2.5, rel=1e-15) and edge < 0.5
    assert levels[0] == 15**4 and set(levels[1:]) == {81} and len(levels) <= 20


def test_tensor_sup_halves_the_steps_where_the_model_is_not_concave(monkeypatch):
    # |z - z0| e^{-|z - c|^2} with z0 next to the bump's centre c, d = |c - z0| apart: the peak lies on a ridge
    # around z0 that is all but flat along the circle, at r = (d + sqrt(d^2 + 2)) / 2 from z0 on the ray
    # through c, with the value r e^{-(r - d)^2}
    c, z0 = 0.31 - 0.17j, 0.30 - 0.16j
    d = abs(c - z0)
    r = (d + math.sqrt(d * d + 2.0)) / 2.0
    model, concave = quad._model_steps, []

    def counted(values, steps):
        out = model(values, steps)
        concave.append(out is not None)
        return out

    monkeypatch.setattr(quad, "_model_steps", counted)
    xs = np.linspace(-3.0, 3.0, 15)
    levels = []
    blocks = _sup_blocks(lambda zs: np.abs(zs[0] - z0) * np.exp(-np.abs(zs[0] - c) ** 2), levels)
    value, _, _ = quad.tensor_sup(blocks, [quad.plane_axis(xs, xs)], [0], 1)
    assert value == pytest.approx(r * math.exp(-((r - d) ** 2)), rel=1e-12)
    assert not all(concave) and set(levels[1:]) == {9}


def test_tensor_sup_reads_an_overflowing_value_as_infinite():
    xs = np.linspace(-3.0, 3.0, 15)
    axes = [quad.plane_axis(xs, xs)]

    def overflowing_bump(center):
        # e^{-|z - center|^2}, but overflowing within 0.05 of its peak
        return lambda zs: np.where(np.abs(zs[0] - center) < 0.05, np.inf, np.exp(-np.abs(zs[0] - center) ** 2))

    # between the grid's nodes the refinement meets the overflow: the edge ratio stays the grid's
    bump = overflowing_bump(0.31 - 0.17j)
    _, _, edge = quad.tensor_sup(_sup_blocks(bump, []), axes, [0], 0)
    levels = []
    assert quad.tensor_sup(_sup_blocks(bump, levels), axes, [0], 1) == (math.inf, math.inf, edge)
    assert edge < 0.5 and len(levels) > 1
    # on a grid node the grid search meets it
    levels = []
    assert quad.tensor_sup(_sup_blocks(overflowing_bump(3.0 / 7.0), levels), axes, [0], 1) == (math.inf, math.inf, 1.0)
    assert levels == [15**2]
