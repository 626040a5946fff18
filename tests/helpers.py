"""Shared locations, loaders and reference rules for the test suite."""
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from fockop.cli import load_corpus
from fockop.errors import DomainError
from fockop.funcspace import AffineMap, ExpPoly
from fockop.linalg import as_cvector, svd
from fockop.wco import BOUNDED_NOT_COMPACT, CERTIFIED, COMPACT, DRIFT_TOL, UNBOUNDED, Classification

PKG_ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = PKG_ROOT / "corpus"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def corpus_problems():
    """(label, WcoProblem) pairs for every shipped problem file."""
    return [(lp.label, lp.problem) for lp in load_corpus(CORPUS_DIR)]


def corpus_path(stem: str) -> Path:
    return CORPUS_DIR / f"{stem}.json"


def m_at(psi: ExpPoly, phi: AffineMap, z: Sequence[complex]) -> float:
    """|psi(z)| exp((|phi(z)|^2 - |z|^2)/2), the kernel-quotient lower bound."""
    zv = as_cvector(z, phi.n)
    w = phi.apply(zv)
    expo = (float(np.sum(np.abs(w) ** 2)) - float(np.sum(np.abs(zv) ** 2))) / 2.0
    return abs(psi.eval(zv)) * math.exp(expo)


def composition_criterion(phi: AffineMap, p: float, q: float) -> Classification:
    """Boundedness/compactness of f -> f o phi by the algebraic rule.

    For p <= q: bounded iff |A| <= 1 and the rotated shift vanishes on every
    unit singular direction; compact iff |A| < 1.  For q < p bounded and
    compact both require |A| < 1.
    """
    for name, v in (("p", p), ("q", q)):
        if not (float(v) > 0 and math.isfinite(float(v))):
            raise DomainError(f"{name} must satisfy 0 < {name} < inf")
    t = svd(phi.A)
    s0 = float(t.sigma[0])
    if s0 > 1.0:
        return Classification(UNBOUNDED, CERTIFIED, f"spectral norm {s0:.12g} > 1")
    b_t = t.V.conj().T @ phi.b
    j = int(np.count_nonzero(t.sigma == 1.0))
    if q < p:
        if s0 < 1.0:
            return Classification(COMPACT, CERTIFIED, "largest singular value < 1")
        return Classification(
            UNBOUNDED, CERTIFIED, "unit singular value present; impossible when the target exponent is smaller"
        )
    head_drift = [abs(b_t[i]) for i in range(j)]
    if any(v > DRIFT_TOL for v in head_drift):
        return Classification(
            UNBOUNDED,
            CERTIFIED,
            f"shift has a component along a unit singular direction: {max(head_drift):.6g}",
        )
    if s0 < 1.0:
        return Classification(COMPACT, CERTIFIED, "largest singular value < 1")
    return Classification(
        BOUNDED_NOT_COMPACT,
        CERTIFIED,
        "unit singular values with no drift along them: bounded, not compact",
    )
