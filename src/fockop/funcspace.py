"""Exact symbol class: finite sums  sum_j  c_j * z^alpha_j * exp(<z, w_j>).

Here ``<z, w> = sum_i z_i * conj(w_i)`` is the Hermitian pairing, so a term's
stored frequency ``w`` enters evaluation through its conjugate.  The class is
closed under products, affine substitution z -> A z + b, and partial
evaluation (slicing), which is what makes every operator computation in this
package exact at the symbol level.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, DomainError, TermBudgetError
from .linalg import as_cmatrix, as_cvector

__all__ = [
    "Term",
    "ExpPoly",
    "AffineMap",
    "constant",
    "monomial",
    "kernel",
    "normalized_kernel",
    "compose_affine",
    "multiply",
    "slice_head",
    "slice_tail",
    "apply_wco",
    "canonical_terms",
]

#: frequencies that differ by at most this per component are merged
FREQ_MERGE_TOL = 1e-12
#: terms whose coefficient is below this fraction of the largest are dropped
COEFF_DROP_TOL = 1e-14
#: hard cap on the number of terms any operation may produce
TERM_BUDGET = 10**6


class Term(NamedTuple):
    coeff: complex
    power: tuple[int, ...]
    freq: tuple[complex, ...]


def _check_budget(count: int) -> None:
    if count > TERM_BUDGET:
        raise TermBudgetError(f"expansion would produce {count} terms (budget {TERM_BUDGET})")


def _canonical(n: int, terms: Iterable[Term]) -> tuple[Term, ...]:
    """Sort, merge nearby frequencies, and drop negligible coefficients."""
    items = [t for t in terms if t.coeff != 0]
    if len(items) == 1:  # nothing to sort or merge; a modulus that overflows still fails the drop test
        return tuple(t for t in items if abs(t.coeff) > COEFF_DROP_TOL * abs(t.coeff))
    items.sort(key=lambda t: (t.power, tuple((c.real, c.imag) for c in t.freq)))
    merged: list[Term] = []
    for t in items:
        if merged:
            prev = merged[-1]
            if prev.power == t.power and all(
                abs(a - b) <= FREQ_MERGE_TOL for a, b in zip(prev.freq, t.freq)
            ):
                merged[-1] = Term(prev.coeff + t.coeff, prev.power, prev.freq)
                continue
        merged.append(t)
    if not merged:
        return ()
    top = max(abs(t.coeff) for t in merged)
    if top == 0.0:
        return ()
    kept = tuple(t for t in merged if abs(t.coeff) > COEFF_DROP_TOL * top)
    return kept


def canonical_terms(n: int, terms: list[Term]) -> tuple[Term, ...]:
    """The canonical form ExpPoly keeps of terms computed from checked ones.

    Skips the per-term coercion and checks of ``ExpPoly.__post_init__``; keeps
    the term budget, the canonical form, and the check that every coefficient
    is finite, since a product of finite coefficients can overflow.
    """
    _check_budget(len(terms))
    if not all(cmath.isfinite(t.coeff) for t in terms):
        raise DomainError("coefficients must be finite")
    return _canonical(n, terms)


@dataclass(frozen=True)
class ExpPoly:
    """A finite exponential-polynomial on C^n, kept in canonical form."""

    n: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.n < 1:
            raise DimensionError("ExpPoly needs at least one variable")
        norm_terms = []
        for t in self.terms:
            coeff = complex(t.coeff)
            power = tuple(int(k) for k in t.power)
            freq = tuple(complex(c) for c in t.freq)
            if len(power) != self.n or len(freq) != self.n:
                raise DimensionError(
                    f"term arity {len(power)}/{len(freq)} does not match n={self.n}"
                )
            if any(k < 0 for k in power):
                raise DomainError("monomial powers must be nonnegative")
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise DomainError("coefficients must be finite")
            if any(not (math.isfinite(c.real) and math.isfinite(c.imag)) for c in freq):
                raise DomainError("frequencies must be finite")
            norm_terms.append(Term(coeff, power, freq))
        _check_budget(len(norm_terms))
        object.__setattr__(self, "terms", _canonical(self.n, norm_terms))

    @classmethod
    def _from_checked(cls, n: int, terms: list[Term]) -> "ExpPoly":
        """Canonical ExpPoly of terms computed by this module from checked ones (see ``canonical_terms``)."""
        out = object.__new__(cls)
        object.__setattr__(out, "n", n)
        object.__setattr__(out, "terms", canonical_terms(n, terms))
        return out

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total monomial degree (zero function has degree 0)."""
        return max((sum(t.power) for t in self.terms), default=0)

    def degree_in(self, i: int) -> int:
        """Largest power of coordinate ``i`` appearing in any term."""
        return max((t.power[i] for t in self.terms), default=0)

    def max_coeff_modulus(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def common_frequency(self) -> tuple[complex, ...] | None:
        """The single frequency shared by every term, or None if they differ."""
        if not self.terms:
            return tuple([0j] * self.n)
        ref = self.terms[0].freq
        for t in self.terms[1:]:
            if any(abs(a - b) > FREQ_MERGE_TOL for a, b in zip(ref, t.freq)):
                return None
        return ref

    # -- evaluation ------------------------------------------------------

    def eval(self, z: Sequence[complex]) -> complex:
        zv = as_cvector(z, self.n)
        return complex(self.eval_many(zv[np.newaxis, :])[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an array of points with shape (..., n)."""
        pts = np.asarray(points, dtype=complex)
        if pts.shape[-1] != self.n:
            raise DimensionError(f"points have arity {pts.shape[-1]}, expected {self.n}")
        out = np.zeros(pts.shape[:-1], dtype=complex)
        for coeff, power, freq in self.terms:
            acc = np.full(pts.shape[:-1], coeff, dtype=complex)
            # explicit calls keep acc the first operand: a temporary-eliding `acc * x` on a large array
            # may swap the operands, and a complex product's last bits depend on their order
            for i in range(self.n):
                if power[i]:
                    acc = np.multiply(acc, pts[..., i] ** power[i])
                if freq[i] != 0:
                    acc = np.multiply(acc, np.exp(pts[..., i] * np.conj(freq[i])))
            out += acc
        return out

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ExpPoly") -> "ExpPoly":
        if not isinstance(other, ExpPoly):
            return NotImplemented
        if other.n != self.n:
            raise DimensionError("cannot add functions of different arity")
        return ExpPoly(self.n, self.terms + other.terms)

    def __neg__(self) -> "ExpPoly":
        return ExpPoly(self.n, tuple(Term(-t.coeff, t.power, t.freq) for t in self.terms))

    def __sub__(self, other: "ExpPoly") -> "ExpPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ExpPoly):
            return multiply(self, other)
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: complex) -> "ExpPoly":
        return ExpPoly(self.n, tuple(Term(t.coeff * factor, t.power, t.freq) for t in self.terms))

    def almost_equal(self, other: "ExpPoly", tol: float = 1e-9) -> bool:
        """Structural comparison of canonical forms within ``tol``."""
        if self.n != other.n or len(self.terms) != len(other.terms):
            return False
        scale = max(self.max_coeff_modulus(), other.max_coeff_modulus(), 1.0)
        for a, b in zip(self.terms, other.terms):
            if a.power != b.power:
                return False
            if any(abs(x - y) > tol for x, y in zip(a.freq, b.freq)):
                return False
            if abs(a.coeff - b.coeff) > tol * scale:
                return False
        return True


@dataclass(frozen=True)
class AffineMap:
    """The self-map z -> A z + b of C^n."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = as_cmatrix(self.A)
        b = as_cvector(self.b, A.shape[0])
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @classmethod
    def identity(cls, n: int) -> "AffineMap":
        return cls(np.eye(n, dtype=complex), np.zeros(n, dtype=complex))

    @classmethod
    def diagonal(cls, diag, b=None) -> "AffineMap":
        d = as_cvector(diag)
        bb = np.zeros(d.shape[0], dtype=complex) if b is None else as_cvector(b, d.shape[0])
        return cls(np.diag(d), bb)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def apply(self, z: Sequence[complex]) -> np.ndarray:
        return self.A @ as_cvector(z, self.n) + self.b


# -- constructors ----------------------------------------------------------


def constant(n: int, value: complex = 1.0) -> ExpPoly:
    return ExpPoly(n, (Term(complex(value), (0,) * n, (0j,) * n),))


def monomial(n: int, power: Sequence[int], coeff: complex = 1.0) -> ExpPoly:
    return ExpPoly(n, (Term(complex(coeff), tuple(power), (0j,) * n),))


def kernel(w) -> ExpPoly:
    """Reproducing kernel K_w(z) = exp(<z, w>)."""
    wv = as_cvector(w)
    n = wv.shape[0]
    return ExpPoly(n, (Term(1.0 + 0j, (0,) * n, tuple(wv)),))


def normalized_kernel(w) -> ExpPoly:
    """Unit-norm kernel k_w = exp(-|w|^2/2) K_w."""
    wv = as_cvector(w)
    n = wv.shape[0]
    c = complex(math.exp(-0.5 * float(np.sum(np.abs(wv) ** 2))))
    return ExpPoly(n, (Term(c, (0,) * n, tuple(wv)),))


# -- core operations -------------------------------------------------------


def _poly_mul(acc: dict, lin: list[complex], const: complex, n: int) -> dict:
    """Multiply a power-dict polynomial by the linear form (lin . z + const)."""
    out: dict = {}
    for pw, cf in acc.items():
        if const != 0:
            out[pw] = out.get(pw, 0j) + cf * const
        for j in range(n):
            a = lin[j]
            if a == 0:
                continue
            npw = list(pw)
            npw[j] += 1
            key = tuple(npw)
            out[key] = out.get(key, 0j) + cf * a
    _check_budget(len(out))
    return out


def compose_affine(f: ExpPoly, phi: AffineMap) -> ExpPoly:
    """Exact substitution f(A z + b), expanded back into canonical form."""
    if phi.n != f.n:
        raise DimensionError("affine map arity does not match the function")
    n = f.n
    A = phi.A
    b = phi.b
    Astar = A.conj().T
    new_terms: list[Term] = []
    for coeff, power, freq in f.terms:
        cvec = np.array(freq, dtype=complex)
        base = coeff * np.exp(np.sum(b * np.conj(cvec)))
        new_freq = tuple(complex(c) for c in Astar @ cvec)
        poly: dict = {(0,) * n: base}
        for i in range(n):
            lin = [complex(A[i, j]) for j in range(n)]
            const = complex(b[i])
            for _ in range(power[i]):
                poly = _poly_mul(poly, lin, const, n)
        for pw, cf in poly.items():
            new_terms.append(Term(complex(cf), pw, new_freq))
        _check_budget(len(new_terms))
    return ExpPoly._from_checked(n, new_terms)


def multiply(f: ExpPoly, g: ExpPoly) -> ExpPoly:
    """Exact pointwise product."""
    if f.n != g.n:
        raise DimensionError("cannot multiply functions of different arity")
    _check_budget(len(f.terms) * len(g.terms))
    terms = []
    for c1, p1, w1 in f.terms:
        for c2, p2, w2 in g.terms:
            terms.append(
                Term(
                    c1 * c2,
                    tuple(a + b for a, b in zip(p1, p2)),
                    tuple(a + b for a, b in zip(w1, w2)),
                )
            )
    return ExpPoly._from_checked(f.n, terms)


def slice_head(f: ExpPoly, prefix: Sequence[complex]) -> ExpPoly:
    """Fix the first ``s`` coordinates, returning a function of the last n-s."""
    pre = as_cvector(prefix)
    s = pre.shape[0]
    if not 0 < s < f.n:
        raise DimensionError(f"prefix length {s} must satisfy 0 < s < n={f.n}")
    terms = []
    for coeff, power, freq in f.terms:
        c = coeff
        for i in range(s):
            if power[i]:
                c = c * pre[i] ** power[i]
            if freq[i] != 0:
                c = c * np.exp(pre[i] * np.conj(freq[i]))
        terms.append(Term(complex(c), power[s:], freq[s:]))
    return ExpPoly._from_checked(f.n - s, terms)


def slice_tail(f: ExpPoly, suffix: Sequence[complex]) -> ExpPoly:
    """Fix the last ``n-s`` coordinates, returning a function of the first s."""
    suf = as_cvector(suffix)
    m = suf.shape[0]
    if not 0 < m < f.n:
        raise DimensionError(f"suffix length {m} must satisfy 0 < n-s < n={f.n}")
    s = f.n - m
    terms = []
    for coeff, power, freq in f.terms:
        c = coeff
        for i in range(s, f.n):
            if power[i]:
                c = c * suf[i - s] ** power[i]
            if freq[i] != 0:
                c = c * np.exp(suf[i - s] * np.conj(freq[i]))
        terms.append(Term(complex(c), power[:s], freq[:s]))
    return ExpPoly(s, tuple(terms))


def apply_wco(psi: ExpPoly, phi: AffineMap, f: ExpPoly) -> ExpPoly:
    """Weighted composition  psi * (f o phi), exactly."""
    if psi.n != phi.n or f.n != phi.n:
        raise DimensionError("symbol, map and argument must share the same arity")
    return multiply(psi, compose_affine(f, phi))
