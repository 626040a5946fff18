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


#: a problem file kept out of ``corpus/``: two frequencies on C^2 under a full-rank map, whose sup of ell
#: is a numeric search on a 15^4-node start grid (the ``multi_frequency`` problem a016 of perfbench's
#: seed-1 analyze mix)
TWO_FREQUENCIES_N2 = {
    "version": 1,
    "label": "two frequencies on C^2, full rank",
    "n": 2,
    "p": 2.0,
    "q": 2.0,
    "psi": [
        {"coeff": [-0.7128469795143828, 0.7013196017488896], "power": [0, 0],
         "freq": [[-0.10580567166206187, 0.5338751646143023], [0.12462107968811897, -0.1680834761348038]]},
        {"coeff": [-0.5008674487019954, -0.4890110416245772], "power": [0, 0],
         "freq": [[-0.05951733184052414, 0.024523143331188463], [0.5933016786171115, -0.2094025329404125]]},
    ],
    "phi": {
        "A": [[0.3896495545754983, 0.21624618775650628], [-0.17461501266203736, -0.27676095352854274],
              [0.1973538377876232, 0.3290289859577655], [0.11085878870487736, 0.31197035264891804]],
        "b": [[-0.131130387082529, -0.04559050812356891], [0.2711905721629024, -0.1793934244128768]],
    },
}


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
