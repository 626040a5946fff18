"""Checks of fockop's reports against references computed apart from fockop.

Each check compares a report with a fact known from how the problem was built
(its verdict), with an mpmath closed form (``reference``), or with a property
the method must have (lower <= upper).  Magnitudes are compared as natural
logarithms, so a report that gives a value too large for a double as
{"finite": true, "log": L} is checked the same way as one that gives "value".
"""
from __future__ import annotations

import json
import math

import numpy as np

import reference as ref
from problems import COMPACT, UNBOUNDED, Problem

#: slack on log-magnitudes: absolute 1e-9 plus 1e-6 of the magnitude itself
REL_LOG_TOL = 1e-6
#: relative slack where fockop's figure comes from quadrature (the oracle sweep)
QUAD_TOL = 1e-6
EXACT_TOL = 1e-9


def log_of(ext) -> float:
    """Natural log of an encoded extended real: {"finite": false} is +inf."""
    if not ext["finite"]:
        return math.inf
    if "log" in ext:
        return float(ext["log"])
    v = float(ext["value"])
    return math.log(v) if v > 0 else -math.inf


def _le(a, b) -> bool:
    """a <= b for log-magnitudes, with slack."""
    if a == -math.inf or b == math.inf:
        return True
    return a <= b + EXACT_TOL + REL_LOG_TOL * abs(b)


def expected_exit(problem: Problem, command: str) -> int:
    if command == "essnorm" and not (1.0 < problem.p <= problem.q):
        return 4
    return 0


def probe_points(problem: Problem) -> list[np.ndarray]:
    """Kernel points w for ||W k_w||: the origin and the stationary point of the
    quotient for a kernel weight, (I - A A^*) w = b + A u, with half and twice it."""
    A = np.array(problem.A, dtype=complex)
    u = np.array(problem.terms[0][2], dtype=complex)
    rhs = np.array(problem.b, dtype=complex) + A @ u
    star, *_ = np.linalg.lstsq(np.eye(problem.n) - A @ A.conj().T, rhs, rcond=None)
    return [np.zeros(problem.n, dtype=complex), star, 0.5 * star, 2.0 * star]


def _norm_bounds(problem: Problem, nb: dict) -> list[str]:
    if problem.verdict == UNBOUNDED:
        return [] if nb["available"] is False else ["bounds given for an unbounded operator"]
    if not nb["available"]:
        return ["no bounds for a bounded operator"]
    errors = []
    lo, hi = log_of(nb["lower"]), log_of(nb["upper"])
    if hi == math.inf:
        errors.append("infinite upper bound for a bounded operator")
    if not _le(lo, hi):
        errors.append(f"lower {lo} > upper {hi} (logs)")
    if nb["essential_lower"] is not None and nb["essential_upper"] is not None:
        elo, ehi = log_of(nb["essential_lower"]), log_of(nb["essential_upper"])
        if not _le(elo, ehi):
            errors.append(f"essential_lower {elo} > essential_upper {ehi} (logs)")
    if problem.rank_zero:
        exact = float(ref.rank_zero_log_norm(problem.terms, problem.b, problem.q))
        for tag, got in (("lower", lo), ("upper", hi)):
            if not abs(got - exact) <= EXACT_TOL * max(1.0, abs(exact)):
                errors.append(f"rank-zero {tag} log {got} != exact {exact}")
    if problem.single_term and not nb["upper_is_up_to_universal_constant"]:
        for w in probe_points(problem):
            quotient = float(ref.kernel_quotient_log(problem.terms[0], problem.A, problem.b, w, problem.q))
            if not _le(quotient, hi):
                errors.append(f"kernel quotient log {quotient} at w={list(w)} above upper {hi}")
    return errors


def _essential(problem: Problem, ess: dict) -> list[str]:
    if problem.verdict == UNBOUNDED:
        return [] if ess["available"] is False else ["essential bounds given for an unbounded operator"]
    if not ess["available"]:
        return []
    errors = []
    if not _le(log_of(ess["lower"]), log_of(ess["upper"])):
        errors.append("essential lower > upper")
    if not _le(log_of(ess["norm_lower"]), log_of(ess["norm_upper"])):
        errors.append("norm lower > upper")
    if problem.verdict == COMPACT and (log_of(ess["lower"]), log_of(ess["upper"])) != (-math.inf, -math.inf):
        errors.append("compact operator with a nonzero essential norm")
    return errors


def _oracle(problem: Problem, report: dict) -> list[str]:
    errors = []
    oracle = report["oracle"]
    psi_norm = float(ref.log_norm(problem.terms, 2.0))
    psi_at_0 = abs(ref.eval_at_zero(problem.terms))
    log_psi_at_0 = math.log(psi_at_0) if psi_at_0 > 0 else -math.inf
    if not log_of(oracle["sweep_best"]) >= psi_norm - QUAD_TOL:
        errors.append(f"sweep_best below ||psi||_2 = exp({psi_norm})")
    if "galerkin" in oracle and not log_of(oracle["galerkin"]["truncated_norm"]) >= log_psi_at_0 - EXACT_TOL:
        errors.append(f"truncated_norm below |psi(0)| = {psi_at_0}")
    nb = report["norm_bounds"]
    if nb["available"]:
        hi = log_of(nb["upper"])
        if not (_le(psi_norm, hi) and _le(log_psi_at_0, hi)):
            errors.append("||psi||_2 or |psi(0)| above the upper bound")
    failed = sorted(k for k, ok in oracle.get("checks", {}).items() if not ok)
    if failed:
        errors.append(f"oracle checks failed: {failed}")
    return errors


def check_report(problem: Problem, command: str, rc, out: str) -> list[str]:
    """Everything wrong with one command's exit code and report (empty when correct)."""
    want = expected_exit(problem, command)
    if rc != want:
        return [f"exit {rc!r}, expected {want}"]
    if want:
        return []
    report = json.loads(out)
    cls = report["classification"]
    errors = []
    if (cls["verdict"], cls["mode"]) != (problem.verdict, problem.mode):
        errors.append(f"verdict {cls['verdict']} ({cls['mode']}), built as {problem.verdict} ({problem.mode})")
    if command in ("bounds", "oracle"):
        errors += _norm_bounds(problem, report["norm_bounds"])
    if command == "essnorm":
        errors += _essential(problem, report["essential_norm_bounds"])
    if command == "oracle":
        errors += _oracle(problem, report)
    return errors


def check_verify(rc, out: str) -> tuple[list[str], int, int]:
    """(errors, records passed, records skipped) for one ``verify`` command."""
    report = json.loads(out)
    errors = [] if rc == 0 else [f"exit {rc!r}"]
    passed = skipped = 0
    for rec in report["results"]:
        if not rec["passed"]:
            errors.append(f"{rec['suite']}/{rec['name']} failed: {rec['detail']}")
        elif rec["detail"].startswith("skipped:"):
            skipped += 1
        else:
            passed += 1
    return errors, passed, skipped

