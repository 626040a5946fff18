import numpy as np
import pytest

from fockop.funcspace import AffineMap, constant
from fockop.verify import (
    PropertyResult,
    check_inclusion_constant,
    check_pointwise_bound,
    check_slice_bound,
    format_results,
    random_symbol,
    run_suites,
)
from fockop.wco import WcoProblem

from helpers import corpus_problems


def test_random_symbol_is_seed_deterministic():
    a = random_symbol(np.random.default_rng(9), 2)
    b = random_symbol(np.random.default_rng(9), 2)
    assert a.almost_equal(b)
    assert a.n == 2
    assert len(a.terms) <= 3
    assert a.degree() <= 4  # max_power applies per coordinate


def test_inequality_checks_pass_at_small_count():
    for check in (check_slice_bound, check_pointwise_bound, check_inclusion_constant):
        res = check(10, seed=123)
        assert res.passed, res.detail
        assert "margin" in res.detail or "worst" in res.detail


def test_property_result_line_format():
    ok = PropertyResult("lemmas", "slice-bound", True, "worst margin 0.1", None)
    bad = PropertyResult("witness", "ray[x]", False, "stuck", "w=3")
    assert ok.line().startswith("PASS lemmas: slice-bound")
    assert bad.line().startswith("FAIL witness: ray[x]")
    text = format_results([ok, bad])
    assert "1/2 properties passed" in text
    assert "w=3" in text


def test_single_suite_selection():
    problems = corpus_problems()[:3]
    only = run_suites(problems, suite="lemmas", lemma_count=4)
    assert only
    assert {r.suite for r in only} == {"lemmas"}


def test_suites_pass_on_shipped_examples():
    # a thin slice of what `fockop verify` runs; the full corpus is acceptance
    problems = [(l, p) for l, p in corpus_problems() if p.p == p.q == 2.0][:6]
    results = run_suites(problems, suite="normalization-independence")
    assert results and all(r.passed for r in results)


def test_unknown_suite_rejected():
    with pytest.raises(Exception):
        run_suites([("x", WcoProblem(constant(1), AffineMap([[0.5]], [0.0]), 2, 2))], suite="nonsense")


def test_normalization_suite_searches_each_factorization_once(monkeypatch):
    from fockop import verify, wco

    calls = []
    original = wco.ell_sup

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (wco, verify):
        monkeypatch.setattr(module, "ell_sup", counted)
    results = run_suites(corpus_problems(), suite="normalization-independence")
    checked = [r for r in results if not r.detail.startswith("skipped")]
    assert checked and all(r.passed for r in results)
    # one search on the analysis side and one on the alternative factorization;
    # the limsup is read from the alternative sup, not searched again
    assert len(calls) == 2 * len(checked)
