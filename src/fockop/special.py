"""The special functions of the closed forms, as sums of positive terms.

``log_hyp1f1`` is log 1F1(a; 1; x) for a >= 1 and x >= 0, the confluent
hypergeometric function of the Gaussian radial moments (``quad`` and ``wco``),
and ``gamma_p`` the regularized lower incomplete gamma P(n, x) at integer order,
the squared norm of a kernel's tail past degree n - 1 (``oracle``).  On these
ranges both are series of positive terms (DLMF 13.2.2 with Kummer's
transformation 13.2.39, the large-x expansion 13.7.2, and DLMF 8.4.10), so they
are summed with no cancellation; 1F1 is kept in logs, so it does not overflow
where it leaves the double range, and its work is bounded by a, not by x.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["gamma_p", "log_hyp1f1"]

#: relative size of the part of a series left out
_EPS = 2.0 ** -60
#: a partial sum above _BIG is scaled by 1 / _BIG, which is exact
_BIG = 2.0 ** 600
_LOG_BIG = 600 * math.log(2.0)
#: from max(_LARGE_X, a) on, log_hyp1f1 takes the large-x expansion, whose left-out e^-x is below 2^-60
_LARGE_X = 64.0


def _log_large_x_sum(a: float, x: float) -> float:
    """log sum_s ((1 - a)_s)^2 / (s! x^s), the series of DLMF 13.7.2 at b = 1, for x >= max(64, a).

    Every term is positive.  The term ratios (s + 1 - a)^2 / ((s + 1) x) fall
    until s = a - 1 and stay below 1 from there to s = x, so the sum stops, as
    ``log_hyp1f1``'s series does, once the geometric bound on the rest is below
    2^-60 of it, after fewer than a + 12 terms whatever x is; for an integer a
    it is finite and exact.
    """
    term = total = 1.0
    scalings = 0
    s = 0
    while True:
        ratio = (s + 1.0 - a) ** 2 / ((s + 1.0) * x)
        if ratio < 1.0 and term * ratio <= (1.0 - ratio) * total * _EPS:
            return math.log(total) + scalings * _LOG_BIG
        term *= ratio
        total += term
        s += 1
        if total > _BIG:
            term, total, scalings = term / _BIG, total / _BIG, scalings + 1


def log_hyp1f1(a: float, x: float) -> float:
    """log 1F1(a; 1; x) for a >= 1 and x >= 0.

    For x >= max(64, a) it is x + (a - 1) log x - log Gamma(a) plus the log of
    the large-x series (``_log_large_x_sum``).  Below that, when a - 1 is an
    integer n, Kummer's transformation makes it the finite sum
    e^x sum_{k <= n} C(n, k) x^k / k!; otherwise it is the series
    sum_k (a)_k x^k / (k!)^2, whose term ratios (a + k) x / (k + 1)^2 fall with
    k, so it stops once the geometric bound on the rest is below 2^-60 of the
    sum, after about max(x, sqrt(a x)) terms.  Every term is positive, and the
    partial sums are rescaled by 2^-600 when they grow past 2^600.
    """
    if x >= _LARGE_X and x >= a:
        return x + (a - 1.0) * math.log(x) - math.lgamma(a) + _log_large_x_sum(a, x)
    n = float(a) - 1.0
    term = total = 1.0
    scalings = 0
    if n.is_integer():
        for k in range(int(n)):
            term *= (n - k) * x / ((k + 1) * (k + 1))
            total += term
            if total > _BIG:
                term, total, scalings = term / _BIG, total / _BIG, scalings + 1
        return x + math.log(total) + scalings * _LOG_BIG
    k = 0
    while True:
        ratio = (a + k) * x / ((k + 1) * (k + 1))
        if ratio < 1.0 and term * ratio <= (1.0 - ratio) * total * _EPS:
            return math.log(total) + scalings * _LOG_BIG
        term *= ratio
        total += term
        k += 1
        if total > _BIG:
            term, total, scalings = term / _BIG, total / _BIG, scalings + 1


def _tail_length(n: int, x: float) -> int:
    """Terms past x^n / n! after which the rest of sum_{k >= n} x^k / k! is below 2^-60 of it (x <= n)."""
    term, j = 1.0, 0
    while True:
        ratio = x / (n + j + 1)
        if term * ratio <= (1.0 - ratio) * _EPS:
            return j
        term *= ratio
        j += 1


def gamma_p(n: int, x) -> np.ndarray:
    """P(n, x) = e^-x sum_{k >= n} x^k / k! for an integer 1 <= n <= 171 and every x >= 0 of an array.

    The Poisson terms e^-x x^k / k! come from one cumulative product, each at
    most 1, so none overflows, and each is as accurate as k + 1 roundings
    allow.  Where x <= n, P is their tail from its largest term, the first,
    until the rest is below 2^-60 of it; elsewhere it is one minus the head
    sum_{k < n}, which is at most about 1/2 there.  Past n = 171 an underflow
    of e^-x at x > 708 would drop a head that matters.
    """
    x = np.asarray(x, dtype=float)
    tail = x <= n
    length = n + 1 + _tail_length(n, float(np.max(x, where=tail, initial=0.0)))
    steps = np.empty((length, x.size))
    steps[0] = np.exp(-x)
    steps[1:] = x / np.arange(1.0, length)[:, None]
    terms = np.cumprod(steps, axis=0)
    return np.where(tail, terms[n:].sum(axis=0), 1.0 - terms[:n].sum(axis=0))
