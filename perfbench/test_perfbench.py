"""Tests of the benchmark's own references, problem generator and percentile.

Run from the repository root:  python3 -m pytest perfbench
"""
import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import problems as gen
import reference as ref
from run import Op, percentile, schedule

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# -- references against values known by hand ------------------------------------


@pytest.mark.parametrize("p", [0.001, 0.5, 1.0, 2.0, 3.5, 7.0])
@pytest.mark.parametrize("w", [(0j,), (1.5 - 0.5j,), (0.3j, -2.0 + 1.0j), (40.0 + 0j,)])
def test_normalized_kernel_has_unit_norm_for_every_exponent(p, w):
    coeff = mp.exp(-sum(abs(x) ** 2 for x in w) / 2)
    assert abs(ref.single_term_log_norm(coeff, (0,) * len(w), w, p)) < 1e-12


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.5])
def test_constant_one_has_unit_norm(p):
    assert ref.single_term_log_norm(1.0, (0, 0), (0j, 0j), p) == 0
    assert ref.f2_log_norm([(1.0, (0,), (0j,))]) == 0


def test_z_has_unit_p2_norm():
    assert abs(ref.single_term_log_norm(1.0, (1,), (0j,), 2.0)) < 1e-25
    assert abs(ref.f2_log_norm([(1.0, (1,), (0j,))])) < 1e-25


def test_single_term_norm_matches_direct_integration():
    p, a, w = 3.0, 2, 0.7 + 0.2j

    def integrand(r, t):
        z = r * mp.expj(t)
        return p / (2 * mp.pi) * r ** (p * a) * mp.exp(p * (z * mp.conj(w)).real - p * r * r / 2) * r

    with mp.workdps(15):
        direct = mp.log(mp.quad(integrand, [0, 3, mp.inf], [0, mp.pi, 2 * mp.pi])) / p
    assert abs(direct - ref.single_term_log_norm(1.0, (a,), (w,), p)) < 1e-10


def test_pairing_sum_agrees_with_single_term_formula():
    rng = np.random.default_rng(3)
    for _ in range(10):
        power = tuple(int(k) for k in rng.integers(0, 4, size=2))
        freq = tuple(complex(x, y) for x, y in rng.normal(size=(2, 2)))
        coeff = complex(*rng.normal(size=2))
        exact = ref.single_term_log_norm(coeff, power, freq, 2.0)
        assert abs(ref.f2_log_norm([(coeff, power, freq)]) - exact) < 1e-20


def test_pairing_sum_of_two_kernels():
    # <K_a, K_b> = K_a(b) = e^{b conj(a)}, so ||K_a + K_b||^2 = e^{|a|^2} + e^{|b|^2} + 2 Re e^{b conj(a)}
    a, b = 0.4 - 0.3j, -1.1 + 0.2j
    by_hand = math.exp(abs(a) ** 2) + math.exp(abs(b) ** 2) + 2 * (np.exp(b * np.conj(a))).real
    got = ref.f2_log_norm([(1.0, (0,), (a,)), (1.0, (0,), (b,))])
    assert abs(got - math.log(by_hand) / 2) < 1e-14


def test_rank_zero_norm_is_point_evaluation_times_weight():
    b = (0.6 + 0.8j,)
    assert abs(ref.rank_zero_log_norm([(1.0, (0,), (0j,))], b, 3.0) - 0.5) < 1e-25
    with pytest.raises(ValueError):
        ref.log_norm([(1.0, (0,), (0j,)), (1.0, (0,), (1.0 + 0j,))], 3.0)


def test_kernel_quotient_identity_map_is_one():
    for w in ((0j, 0j), (1.0 + 2.0j, -0.5j)):
        got = ref.kernel_quotient_log((1.0, (0, 0), (0j, 0j)), ((1, 0), (0, 1)), (0j, 0j), w, 1.5)
        assert abs(got) < 1e-25


def test_kernel_quotient_of_a_contraction():
    # psi = 1, phi(z) = a z: W k_w = e^{-|w|^2/2} e^{<z, a w>}, of norm e^{-(1-a^2)|w|^2/2}
    a, w = 0.6, 1.3 - 0.4j
    got = ref.kernel_quotient_log((1.0, (0,), (0j,)), ((a,),), (0j,), (w,), 2.5)
    assert abs(got + (1 - a * a) * abs(w) ** 2 / 2) < 1e-15


def test_psi_at_zero_sums_terms_without_monomials():
    terms = [(2.0, (0,), (1.0 + 0j,)), (1j, (1,), (0j,)), (-0.5, (0,), (0j,))]
    assert ref.eval_at_zero(terms) == 1.5


# -- generator --------------------------------------------------------------------


def _layout(problems):
    return [(p.family, p.n, p.commands) for p in problems]


def test_generator_is_deterministic_in_the_seed():
    assert [p.to_data() for p in gen.analyze_problems(5)] == [p.to_data() for p in gen.analyze_problems(5)]
    assert [p.to_data() for p in gen.analyze_problems(5)] != [p.to_data() for p in gen.analyze_problems(6)]


def test_round_make_up_does_not_depend_on_the_seed():
    assert len({tuple(_layout(gen.analyze_problems(s))) for s in range(6)}) == 1
    assert len({tuple(_layout(gen.oracle_problems(s, CORPUS))) for s in range(6)}) == 1
    assert [p.name for p in gen.analyze_problems(1)][-3:] == [p.name for p in gen.overflow_problems()]


@pytest.mark.parametrize("seed", range(25))
def test_built_verdict_matches_the_rule(seed):
    for prob in gen.analyze_problems(seed) + gen.oracle_problems(seed, CORPUS):
        assert gen.expected_verdict(prob.n, prob.p, prob.q, prob.terms, prob.A, prob.b) == (prob.verdict, prob.mode), prob.name


@pytest.mark.parametrize("seed", range(10))
def test_built_singular_values(seed):
    for prob in gen.analyze_problems(seed):
        sigma = np.linalg.svd(np.array(prob.A, dtype=complex), compute_uv=False)
        if prob.family in ("unit_no_drift", "unit_drift", "small_target_unit"):
            assert abs(sigma[0] - 1.0) < 1e-13 and sigma[1:].max(initial=0.0) < 0.9
        elif prob.family == "expanding":
            assert sigma[0] >= 1.2
        elif prob.family == "rank_zero":
            assert sigma[0] == 0.0
        elif prob.family:
            assert sigma[0] < 0.9


def test_rule_on_shipped_corpus():
    got = {p.name[:2]: (p.verdict, p.mode) for p in (gen.problem_from_file(f, ()) for f in sorted(CORPUS.glob("*.json")))}
    assert got["01"] == (gen.BOUNDED_NOT_COMPACT, gen.CERTIFIED)
    assert got["02"] == (gen.COMPACT, gen.CERTIFIED)
    assert got["03"] == (gen.COMPACT, gen.CERTIFIED)
    assert got["04"] == (gen.UNBOUNDED, gen.CERTIFIED)
    assert got["05"] == (gen.UNBOUNDED, gen.CERTIFIED)
    assert got["14"] == (gen.COMPACT, gen.NUMERIC)
    assert got["16"] == (gen.BOUNDED_NOT_COMPACT, gen.CERTIFIED)


def test_rule_refuses_unit_direction_with_monomials():
    with pytest.raises(ValueError):
        gen.expected_verdict(1, 2.0, 2.0, [(1.0, (1,), (0j,))], ((1.0,),), (0j,))


# -- percentile --------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    assert percentile(range(1, 11), 0.9) == 9
    assert percentile(range(1, 101), 0.9) == 90
    assert percentile(range(1, 101), 0.5) == 50
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([1, 2], 0.5) == 1
    assert percentile([7.5], 0.9) == 7.5
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_schedule_spreads_each_operations_repeats_over_the_round():
    ops = [Op("long", [], None, 1), Op("short", [], None, 20), Op("medium", [], None, 4)]
    plan = schedule(ops)
    assert len(plan) == 20
    passes = {i: [k for k, pass_ops in enumerate(plan) if i in pass_ops] for i in range(3)}
    assert passes == {0: [10], 1: list(range(20)), 2: [2, 7, 12, 17]}
    assert schedule([Op("a", [], None, 3), Op("b", [], None, 1)]) == [[0], [0, 1], [0]]
