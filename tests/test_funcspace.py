"""Algebra of polynomial-times-exponential symbols.

Everything here is checked against plain pointwise evaluation: the canonical
form, products, affine substitution and partial slicing must all agree with
what the defining formulas give at sampled points.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockop.errors import DimensionError, DomainError, TermBudgetError
from fockop.funcspace import (
    AffineMap,
    ExpPoly,
    Term,
    canonical_terms,
    compose_affine,
    constant,
    kernel,
    monomial,
    multiply,
    normalized_kernel,
    slice_head,
    slice_tail,
)

# -- deterministic examples ---------------------------------------------------


def test_kernel_eval_matches_formula():
    w = np.array([0.3 + 0.1j, -0.7j])
    f = kernel(w)
    for z in ([0.0, 0.0], [1.0, -0.5j], [0.2 + 0.2j, 1.0 + 1.0j]):
        z = np.asarray(z, dtype=complex)
        expected = np.exp(np.sum(z * np.conj(w)))
        assert f.eval(z) == pytest.approx(expected, rel=1e-14)


def test_normalized_kernel_value_at_center():
    w = [0.6, -0.8j]
    k = normalized_kernel(w)
    sq = sum(abs(c) ** 2 for c in w)
    assert k.eval(w) == pytest.approx(math.exp(sq / 2.0), rel=1e-14)


def test_monomial_and_constant_eval():
    f = monomial(2, (1, 3), coeff=2.0 - 1.0j)
    z = np.array([0.5 + 0.5j, -1.0j])
    assert f.eval(z) == pytest.approx((2.0 - 1.0j) * z[0] * z[1] ** 3, rel=1e-14)
    assert constant(3, 4.2).eval([1.0, 2.0, 3.0]) == pytest.approx(4.2)


def test_canonical_form_merges_like_terms():
    f = ExpPoly(1, (Term(1.0, (0,), (0.5,)), Term(2.0, (0,), (0.5,)), Term(0.0, (3,), (0.0,))))
    assert len(f.terms) == 1
    assert f.almost_equal(kernel([0.5]).scale(3.0))


@pytest.mark.parametrize("coeff", [0.5 - 2.0j, 5e-324 + 0j, 1e308 + 1e308j, 0j])
def test_a_single_term_keeps_the_canonical_rule(coeff):
    """One term: kept unless its coefficient is 0 or its modulus overflows (inf > 1e-14 * inf fails), as with
    several terms, where a second term's cancellation leaves the same one behind."""
    t = Term(coeff, (1,), (0.5j,))
    kept = canonical_terms(1, [t])
    assert kept == ((t,) if 0 < abs(coeff) < math.inf else ())
    pair = canonical_terms(1, [t, Term(1.0, (2,), (0j,)), Term(-1.0, (2,), (0j,))])
    assert kept == pair


def test_zero_detection():
    assert ExpPoly(1, ()).is_zero()
    assert constant(2, 0.0).is_zero()
    assert not kernel([0.1]).is_zero()


def test_degrees():
    f = monomial(2, (1, 3)) + monomial(2, (4, 0))
    assert f.degree() == 4
    assert f.degree_in(0) == 4
    assert f.degree_in(1) == 3


def test_common_frequency():
    two = kernel([1.0]) + kernel([1.0]).scale(2.0)
    assert two.common_frequency() == ((1 + 0j),)
    mixed = kernel([1.0]) + constant(1)
    assert mixed.common_frequency() is None


def test_eval_many_agrees_with_eval():
    f = kernel([0.4, -0.2]) + monomial(2, (2, 1), coeff=0.3)
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
    vals = f.eval_many(pts)
    for i in range(20):
        assert vals[i] == pytest.approx(f.eval(pts[i]), rel=1e-13)


@pytest.mark.parametrize("m", [16383, 16384])
def test_eval_many_gives_the_same_bits_at_every_batch_size(m):
    # from 16,384 complex values (256 KiB) on, numpy may reuse a temporary operand of a product, and
    # a complex product whose operands it swaps rounds differently; a 9-term weight on C^2
    rng = np.random.default_rng(16384)
    f = ExpPoly(2, tuple(
        Term(complex(*rng.normal(size=2)), tuple(int(k) for k in rng.integers(0, 3, 2)),
             tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2)))
        for _ in range(9)
    ))
    assert len(f.terms) == 9
    pts = rng.normal(size=(m, 2)) + 1j * rng.normal(size=(m, 2))
    whole = f.eval_many(pts)
    chunks = np.concatenate([f.eval_many(pts[i : i + 1000]) for i in range(0, m, 1000)])
    assert whole.tobytes() == chunks.tobytes()
    for i in range(0, m, 1021):
        assert whole[i] == f.eval_many(pts[i : i + 1])[0]


@pytest.mark.parametrize(
    "head,tail",
    [([0.5], None), ([1.0 + 1.0j], None), (None, [2.0]), (None, [-0.3j])],
)
def test_slices_agree_pointwise(head, tail):
    f = kernel([0.3, 0.7]) + monomial(2, (1, 2), coeff=0.5 - 0.5j)
    rng = np.random.default_rng(3)
    for _ in range(10):
        z = rng.normal() + 1j * rng.normal()
        if head is not None:
            g = slice_head(f, head)
            assert g.n == 1
            assert g.eval([z]) == pytest.approx(f.eval([head[0], z]), rel=1e-13)
        else:
            g = slice_tail(f, tail)
            assert g.n == 1
            assert g.eval([z]) == pytest.approx(f.eval([z, tail[0]]), rel=1e-13)


def test_compose_affine_pointwise():
    f = kernel([0.5, -0.2j]) + monomial(2, (2, 0), coeff=1.5)
    A = np.array([[0.4, 0.1j], [0.0, -0.3]])
    b = np.array([0.2, -0.1 + 0.5j])
    g = compose_affine(f, AffineMap(A, b))
    rng = np.random.default_rng(11)
    for _ in range(12):
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert g.eval(z) == pytest.approx(f.eval(A @ z + b), rel=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionError):
        multiply(kernel([0.1]), kernel([0.1, 0.2]))
    with pytest.raises(DimensionError):
        slice_head(kernel([0.1]), [1.0, 2.0])


def test_algebra_outputs_are_checked_for_overflow_and_keep_python_scalars():
    big = monomial(1, (1,), coeff=1e200)
    with pytest.raises(DomainError):
        multiply(big, big)
    f = compose_affine(kernel([0.5, -0.2j]) + monomial(2, (2, 1)), AffineMap([[0.4, 0.1j], [0.0, -0.3]], [0.2, 1j]))
    for g in (f, multiply(f, f), slice_head(f, [0.3 + 0.1j])):
        for t in g.terms:
            assert type(t.coeff) is complex
            assert all(type(k) is int for k in t.power)
            assert all(type(c) is complex for c in t.freq)


def test_term_budget_guard():
    wide = ExpPoly(1, tuple(Term(1.0, (k,), (0.0,)) for k in range(1001)))
    with pytest.raises(TermBudgetError):
        multiply(wide, wide)


# -- algebraic laws, searched -------------------------------------------------

small_complex = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


@st.composite
def exp_polys(draw, n=1):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(small_complex)
        power = tuple(draw(st.integers(0, 2)) for _ in range(n))
        freq = tuple(draw(small_complex) for _ in range(n))
        terms.append(Term(coeff, power, freq))
    return ExpPoly(n, tuple(terms))


@settings(max_examples=60, deadline=None)
@given(exp_polys(), exp_polys(), small_complex)
def test_multiply_commutes(f, g, z):
    lhs = multiply(f, g).eval([z])
    rhs = multiply(g, f).eval([z])
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(exp_polys(), exp_polys(), small_complex)
def test_multiply_is_pointwise_product(f, g, z):
    prod = multiply(f, g).eval([z])
    assert prod == pytest.approx(f.eval([z]) * g.eval([z]), rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(exp_polys(), exp_polys(), exp_polys(), small_complex)
def test_multiply_associates(f, g, h, z):
    lhs = multiply(multiply(f, g), h).eval([z])
    rhs = multiply(f, multiply(g, h)).eval([z])
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(exp_polys(), small_complex, small_complex, small_complex)
def test_compose_affine_law_1d(f, a, b, z):
    g = compose_affine(f, AffineMap(np.array([[a]]), np.array([b])))
    assert g.eval([z]) == pytest.approx(f.eval([a * z + b]), rel=1e-9, abs=1e-9)
