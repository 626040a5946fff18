"""High-precision references the benchmark checks fockop's reports against.

Everything here is computed with mpmath from closed forms, apart from any
fockop code path:

* ``single_term_log_norm``: the q-norm of one term c z^alpha e^{<z,w>}, per
  coordinate a Gaussian radial moment Gamma(q a/2 + 1) 1F1(q a/2 + 1; 1; q|w|^2/2)
  (q/2)^(-q a/2);
* ``f2_log_norm``: the exact p = 2 norm of any symbol from the finite pairing
  <z^g e^{z conj(c)}, z^d e^{z conj(e)}> = e^{conj(c) e} sum_j j! C(g,j) C(d,j) e^(g-j) conj(c)^(d-j);
* ``rank_zero_log_norm``: the exact norm exp(|b|^2/2) ||psi||_q of a constant map;
* ``kernel_quotient_log``: log ||W k_w||_q / ||k_w||_p for a single-term weight,
  where W k_w is again a single term.

Values are returned as natural logarithms (mpmath numbers), so norms far
beyond the double range can still be compared.
"""
from __future__ import annotations

import mpmath as mp

mp.mp.dps = 30


def _coordinate_log_moment(a: int, w, q: float) -> mp.mpf:
    """log of (q/2pi) int |z|^(q a) e^{q Re(z conj(w)) - q|z|^2/2} dA(z)."""
    q = mp.mpf(q)
    x = q * abs(mp.mpc(w)) ** 2 / 2
    if a == 0:
        return x  # 1F1(1; 1; x) = e^x
    m = q * a / 2
    return mp.log(mp.gamma(m + 1)) + mp.log(mp.hyp1f1(m + 1, 1, x)) - m * mp.log(q / 2)


def single_term_log_norm(coeff: complex, power, freq, q: float) -> mp.mpf:
    """log ||coeff z^power e^{<z, freq>}||_q, exact."""
    if coeff == 0:
        return mp.ninf
    total = mp.log(abs(mp.mpc(coeff)))
    for a, w in zip(power, freq):
        total += _coordinate_log_moment(int(a), w, q) / q
    return total


def _pairing(g: int, c: complex, d: int, e: complex) -> mp.mpc:
    """<z^g e^{z conj(c)}, z^d e^{z conj(e)}> on the one-variable p = 2 space."""
    cb = mp.conj(mp.mpc(c))
    ee = mp.mpc(e)
    total = mp.mpc(0)
    for j in range(min(g, d) + 1):
        total += mp.factorial(j) * mp.binomial(g, j) * mp.binomial(d, j) * ee ** (g - j) * cb ** (d - j)
    return mp.exp(cb * ee) * total


def f2_log_norm(terms) -> mp.mpf:
    """log of the exact p = 2 norm of sum_j c_j z^alpha_j e^{<z, w_j>}."""
    sq = mp.mpf(0)
    for c1, p1, w1 in terms:
        for c2, p2, w2 in terms:
            prod = mp.mpc(c1) * mp.conj(mp.mpc(c2))
            for g, c, d, e in zip(p1, w1, p2, w2):
                prod *= _pairing(int(g), complex(c), int(d), complex(e))
            sq += prod.real
    if sq <= 0:
        return mp.ninf
    return mp.log(sq) / 2


def log_norm(terms, q: float) -> mp.mpf:
    """Exact log ||psi||_q where a closed form exists: one term, or q = 2."""
    if len(terms) == 1:
        return single_term_log_norm(*terms[0], q)
    if q == 2.0:
        return f2_log_norm(terms)
    raise ValueError("no exact reference for a multi-term symbol at q != 2")


def rank_zero_log_norm(terms, b, q: float) -> mp.mpf:
    """log of the norm of f -> psi * f(b), which is exp(|b|^2/2) ||psi||_q."""
    return sum((mp.mpf(abs(x)) ** 2 for x in b), mp.mpf(0)) / 2 + log_norm(terms, q)


def eval_at_zero(terms) -> complex:
    """psi(0): only terms without a monomial factor contribute."""
    return complex(sum(complex(c) for c, power, _ in terms if not any(power)))


def kernel_quotient_log(term, A, b, w, q: float) -> mp.mpf:
    """log ||W k_w||_q for W f = psi * (f o phi), psi = one term, ||k_w||_p = 1.

    k_w(Az + b) = e^{-|w|^2/2 + <b, w>} e^{<z, A^* w>}, so W k_w is the single
    term c e^{-|w|^2/2 + <b, w>} z^alpha e^{<z, freq + A^* w>}.
    """
    coeff, power, freq = term
    n = len(power)
    w = [mp.mpc(x) for x in w]
    shift = mp.mpf(0)
    for i in range(n):
        shift += -abs(w[i]) ** 2 / 2 + (mp.mpc(b[i]) * mp.conj(w[i])).real
    new_freq = [
        mp.mpc(freq[i]) + mp.fsum(mp.conj(mp.mpc(A[j][i])) * w[j] for j in range(n))
        for i in range(n)
    ]
    return shift + single_term_log_norm(coeff, power, new_freq, q)
