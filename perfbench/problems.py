"""Seeded problem sets for the benchmark, each problem with the verdict it must get.

A generated problem is built in rotated coordinates: singular values sigma, a
drift b_t and weight frequencies f_t.  Random unitaries V, U map it back, so
A = V diag(sigma) U, b = V b_t and each weight frequency is U^* f_t.  The
verdict then follows from how the problem was built (the singular values, the
drift w = f_t + sigma * b_t on unit singular directions, and whether the weight
has one frequency), never from running fockop.  ``expected_verdict`` restates
the same rule from a problem file alone; it labels the shipped corpus files and
cross-checks the generator in the tests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

UNBOUNDED = "unbounded"
BOUNDED_NOT_COMPACT = "bounded_not_compact"
COMPACT = "compact"
CERTIFIED = "certified"
NUMERIC = "numeric_evidence"

ANALYZE_COMMANDS = ("classify", "bounds", "essnorm")

#: a singular value within this of 1 is a unit one; rounding in V diag(sigma) U stays far below it
UNIT_TOL = 1e-12
#: drift on a unit direction below this counts as none (fockop's own threshold is 1e-9)
DRIFT_TOL = 1e-9

#: (p, q) pairs with p <= q, and with q < p
P_LE_Q = ((2.0, 2.0), (1.5, 3.0), (3.0, 3.0), (2.0, 4.0), (0.8, 2.0))
Q_LT_P = ((4.0, 2.0), (3.0, 1.5), (2.5, 1.0))


def _pair(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


@dataclass(frozen=True)
class Problem:
    """One problem file, the commands run on it and the verdict it must get."""

    name: str
    n: int
    p: float
    q: float
    terms: tuple  # ((coeff, power, freq), ...)
    A: tuple  # rows of complex entries
    b: tuple
    verdict: str
    mode: str
    commands: tuple[str, ...] = ANALYZE_COMMANDS
    family: str = ""  # the function that generated a seeded problem

    def to_data(self) -> dict:
        return {
            "version": 1,
            "label": self.name,
            "n": self.n,
            "p": self.p,
            "q": self.q,
            "psi": [
                {"coeff": _pair(c), "power": list(power), "freq": [_pair(w) for w in freq]}
                for c, power, freq in self.terms
            ],
            "phi": {"A": [_pair(z) for row in self.A for z in row], "b": [_pair(z) for z in self.b]},
        }

    @property
    def single_term(self) -> bool:
        return len(self.terms) == 1

    @property
    def rank_zero(self) -> bool:
        return not np.any(np.array(self.A, dtype=complex))


def problem_from_file(path: Path, commands: tuple[str, ...]) -> Problem:
    """A shipped problem file, labelled by ``expected_verdict``."""
    data = json.loads(Path(path).read_text())
    n = data["n"]
    flat = [complex(*v) for v in data["phi"]["A"]]
    terms = tuple(
        (complex(*t["coeff"]), tuple(t["power"]), tuple(complex(*w) for w in t["freq"])) for t in data["psi"]
    )
    A = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
    b = tuple(complex(*v) for v in data["phi"]["b"])
    verdict, mode = expected_verdict(n, float(data["p"]), float(data["q"]), terms, A, b)
    return Problem(Path(path).stem, n, float(data["p"]), float(data["q"]), terms, A, b, verdict, mode, commands)


def expected_verdict(n, p, q, terms, A, b) -> tuple[str, str]:
    """(verdict, mode) from the singular values, unit-direction drift and weight structure."""
    mode = CERTIFIED if len({freq for _, _, freq in terms}) == 1 else NUMERIC
    X, sigma, Yh = np.linalg.svd(np.array(A, dtype=complex))
    if sigma[0] > 1.0 + UNIT_TOL:
        return UNBOUNDED, CERTIFIED
    if sigma[0] <= 1e-10:
        return COMPACT, CERTIFIED
    unit = np.abs(sigma - 1.0) <= UNIT_TOL
    if not unit.any():
        return COMPACT, mode
    if q < p:
        return UNBOUNDED, mode
    if mode == NUMERIC or any(any(power) for _, power, _ in terms):
        raise ValueError("no closed rule for a unit singular value with this weight")
    # drift seen by the unit block: rotated frequency plus sigma times rotated shift;
    # its length over the block does not depend on the basis chosen inside it
    w = Yh @ np.array(terms[0][2], dtype=complex) + sigma * (X.conj().T @ np.array(b, dtype=complex))
    if np.linalg.norm(w[unit]) > DRIFT_TOL:
        return UNBOUNDED, CERTIFIED
    return BOUNDED_NOT_COMPACT, CERTIFIED


# -- generator -----------------------------------------------------------------


def _unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    qmat, r = np.linalg.qr(m)
    d = np.diag(r)
    return qmat * (d / np.abs(d))[np.newaxis, :]


def _cplx(rng: np.random.Generator, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))


def _vec(rng, n, lo, hi) -> np.ndarray:
    return np.array([_cplx(rng, lo, hi) for _ in range(n)])


def _assemble(name, p, q, sigma, b_t, weight, rng, rotate_weight=True, verdict=COMPACT, mode=CERTIFIED) -> Problem:
    """Map a problem given in rotated coordinates back to an arbitrary frame.

    ``weight`` lists (coeff, power, f_t); the powers are taken in the original
    coordinates.  With ``rotate_weight`` False, U is the identity, so a single
    weight term with powers stays a single term after fockop's normalization.
    """
    n = len(sigma)
    V = _unitary(rng, n)
    U = _unitary(rng, n) if rotate_weight else np.eye(n, dtype=complex)
    A = V @ np.diag(np.array(sigma, dtype=complex)) @ U
    b = V @ np.array(b_t, dtype=complex)
    terms = tuple(
        (complex(c), tuple(int(k) for k in power), tuple(complex(x) for x in U.conj().T @ np.array(f_t, dtype=complex)))
        for c, power, f_t in weight
    )
    rows = tuple(tuple(complex(x) for x in row) for row in A)
    return Problem(name, n, float(p), float(q), terms, rows, tuple(complex(x) for x in b), verdict, mode)


def _pick(rng, pairs):
    return pairs[int(rng.integers(len(pairs)))]


def contraction_kernel(rng, name, n, pairs=P_LE_Q, rank=None):
    """Single-frequency kernel weight, every head singular value below 1: compact, closed form."""
    p, q = _pick(rng, pairs)
    rank = n if rank is None else rank
    sigma = [rng.uniform(0.3, 0.85) for _ in range(rank)] + [0.0] * (n - rank)
    weight = [(_cplx(rng, 0.5, 1.5), (0,) * n, _vec(rng, n, 0.0, 1.0))]
    return _assemble(name, p, q, sigma, _vec(rng, n, 0.0, 0.5), weight, rng)


def contraction_poly(rng, name, n, pairs=P_LE_Q):
    """Single term with monomial powers and an unrotated weight frame: compact, closed form."""
    p, q = _pick(rng, pairs)
    power = [int(k) for k in rng.integers(0, 3, size=n)]
    if not any(power):
        power[int(rng.integers(n))] = 1
    sigma = [rng.uniform(0.3, 0.85) for _ in range(n)]
    weight = [(_cplx(rng, 0.5, 1.5), tuple(power), _vec(rng, n, 0.0, 1.0))]
    return _assemble(name, p, q, sigma, _vec(rng, n, 0.0, 0.5), weight, rng, rotate_weight=False)


def _unit_problem(rng, name, n, drift: bool, pairs):
    p, q = _pick(rng, pairs)
    sigma = [1.0] + [rng.uniform(0.3, 0.85) for _ in range(n - 1)]
    b_t = _vec(rng, n, 0.0, 0.5)
    f_t = _vec(rng, n, 0.0, 1.0)
    # w_0 = f_t[0] + b_t[0]: zero for a bounded operator, at least 0.3 for an unbounded one
    f_t[0] = -b_t[0] + (_cplx(rng, 0.3, 1.0) if drift else 0.0)
    weight = [(_cplx(rng, 0.5, 1.5), (0,) * n, f_t)]
    if q < p:
        verdict = UNBOUNDED
    else:
        verdict = UNBOUNDED if drift else BOUNDED_NOT_COMPACT
    return _assemble(name, p, q, sigma, b_t, weight, rng, verdict=verdict)


def unit_no_drift(rng, name, n, pairs=P_LE_Q):
    """Unit singular value with no drift on it: bounded, not compact."""
    return _unit_problem(rng, name, n, False, pairs)


def unit_drift(rng, name, n, pairs=P_LE_Q):
    """Unit singular value with drift on it: unbounded."""
    return _unit_problem(rng, name, n, True, pairs)


def small_target_unit(rng, name, n):
    """q < p with a unit singular value: unbounded."""
    return _unit_problem(rng, name, n, False, Q_LT_P)


def expanding(rng, name, n, pairs=P_LE_Q):
    """Largest singular value above 1: unbounded whatever the weight."""
    p, q = _pick(rng, pairs)
    sigma = [rng.uniform(1.2, 2.0)] + [rng.uniform(0.3, 0.85) for _ in range(n - 1)]
    weight = [(_cplx(rng, 0.5, 1.5), (0,) * n, _vec(rng, n, 0.0, 1.0))]
    return _assemble(name, p, q, sigma, _vec(rng, n, 0.0, 0.5), weight, rng, verdict=UNBOUNDED)


def rank_zero(rng, name, n, pairs=P_LE_Q + Q_LT_P):
    """Constant map A = 0: rank one, compact, norm exp(|b|^2/2) ||psi||_q exactly."""
    p, q = _pick(rng, pairs)
    power = tuple(int(k) for k in rng.integers(0, 2, size=n))
    weight = [(_cplx(rng, 0.5, 1.5), power, _vec(rng, n, 0.0, 1.0))]
    return _assemble(name, p, q, [0.0] * n, _vec(rng, n, 0.2, 1.0), weight, rng, rotate_weight=False)


def small_target(rng, name, n, rank=None):
    """q < p, kernel weight, head singular values below 1: compact, closed-form L^r integral."""
    return contraction_kernel(rng, name, n, pairs=Q_LT_P, rank=rank)


def _phased(rng, moduli) -> np.ndarray:
    """Fixed moduli with seeded phases: the work a numeric problem takes then
    hardly depends on the seed (random moduli move Nelder-Mead's iteration
    count, and with it the cost, by up to a factor of two)."""
    return np.array([m * np.exp(2j * np.pi * rng.uniform()) for m in moduli])


def multi_frequency(rng, name, n, rank):
    """Two weight terms with different frequencies: numeric sup and decay search, compact."""
    sigma = [0.55] if rank == 1 else [0.6, 0.45]
    sigma = sigma + [0.0] * (n - len(sigma))
    c = _phased(rng, (1.0, 0.7))
    weight = [(c[0], (0,) * n, _phased(rng, (0.5, 0.3))), (c[1], (0,) * n, _phased(rng, (0.2, 0.6)))]
    return _assemble(name, 2.0, 2.0, sigma, _phased(rng, (0.25, 0.25)), weight, rng, mode=NUMERIC)


def tail_monomial(rng, name):
    """n = 2, rank 1, rotated z1 z2 weight: tail monomials force the per-point slice-norm loop."""
    weight = [(_phased(rng, (1.0,))[0], (1, 1), _phased(rng, (0.3, 0.3)))]
    return _assemble(name, 2.0, 2.0, [0.55, 0.0], _phased(rng, (0.25, 0.25)), weight, rng)


def small_target_numeric(rng, name):
    """q < p, n = 2, weight (c0 + c1 z1) e^{<z, u>}: certified, L^r integral by quadrature."""
    f_t = _phased(rng, (0.3, 0.3))
    c = _phased(rng, (1.0, 0.5))
    weight = [(c[0], (0, 0), f_t), (c[1], (1, 0), f_t)]
    return _assemble(name, 4.0, 2.0, [0.6, 0.45], _phased(rng, (0.25, 0.25)), weight, rng, rotate_weight=False)


def overflow_problems() -> list[Problem]:
    """Three valid inputs on which ``bounds`` overflows a double; fixed, not seeded."""
    one = ((1.0 + 0j, (0,), (0j,)),)
    return [
        Problem("overflow-weight-e40z", 1, 2.0, 2.0, ((1.0 + 0j, (0,), (40.0 + 0j,)),), ((0.5 + 0j,),), (0j,),
                COMPACT, CERTIFIED, ("bounds",)),
        Problem("overflow-near-unit", 1, 2.0, 2.0, one, ((1.0 - 1e-9 + 0j,),), (1.0 + 0j,),
                COMPACT, CERTIFIED, ("bounds",)),
        Problem("overflow-tiny-exponent", 1, 1e-3, 1e-3, one, ((0.5 + 0j,),), (0.3 + 0j,),
                COMPACT, CERTIFIED, ("bounds",)),
    ]


#: the make-up of one analyze round: (generator, keyword arguments, count)
ANALYZE_MIX = (
    (contraction_kernel, {"n": 1}, 2),
    (contraction_kernel, {"n": 2}, 2),
    (contraction_kernel, {"n": 3}, 1),
    (contraction_poly, {"n": 1}, 1),
    (contraction_poly, {"n": 2}, 1),
    (unit_no_drift, {"n": 1}, 1),
    (unit_no_drift, {"n": 2}, 1),
    (unit_drift, {"n": 2}, 1),
    (expanding, {"n": 2}, 1),
    (rank_zero, {"n": 1}, 1),
    (rank_zero, {"n": 2}, 1),
    (small_target, {"n": 1}, 1),
    (small_target, {"n": 2, "rank": 1}, 1),
    (small_target_unit, {"n": 2}, 1),
    (multi_frequency, {"n": 2, "rank": 2}, 2),
    (tail_monomial, {}, 1),
    (small_target_numeric, {}, 1),
)

#: the seeded part of one oracle round, all n = 1 at p = q = 2 (a rotated n = 2
#: problem takes 5-9 s here, which would double the round)
ORACLE_MIX = (
    (contraction_kernel, {"n": 1, "pairs": ((2.0, 2.0),)}, 1),
    (unit_drift, {"n": 1, "pairs": ((2.0, 2.0),)}, 2),
    (expanding, {"n": 1, "pairs": ((2.0, 2.0),)}, 1),
)

#: shipped corpus files in the oracle round.  With nine operations the
#: nearest-rank 90th percentile is the n = 3 operation itself and the median
#: is the slowest of the five unbounded ones (10-20 ms each, skipping the
#: norm bounds and the essential estimate), which run in every pass of the
#: round.  Left out: the n = 2 files whose oracle takes 2-5 s each (07, 11, 15).
ORACLE_CORPUS = ("04", "05", "12", "13", "14")

#: the families whose commands take the numeric branches (0.05-1 s each)
NUMERIC_FAMILIES = ("multi_frequency", "tail_monomial", "small_target_numeric")


def build_mix(mix, seed: int, prefix: str, commands=ANALYZE_COMMANDS) -> list[Problem]:
    rng = np.random.default_rng(seed)
    out = []
    for make, kwargs, count in mix:
        for _ in range(count):
            name = f"{prefix}{len(out):03d}-{make.__name__}"
            out.append(replace(make(rng, name, **kwargs), commands=commands, family=make.__name__))
    return out


def analyze_problems(seed: int) -> list[Problem]:
    return build_mix(ANALYZE_MIX, seed, "a") + overflow_problems()


def oracle_problems(seed: int, corpus: Path) -> list[Problem]:
    shipped = [
        problem_from_file(path, ("oracle",))
        for path in sorted(corpus.glob("*.json"))
        if path.name[:2] in ORACLE_CORPUS
    ]
    return shipped + build_mix(ORACLE_MIX, seed, "o", commands=("oracle",))
