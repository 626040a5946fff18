"""Cross-checking suites run over a problem corpus.

Each suite re-derives a property of the toolkit by independent means — raw
inequalities on random symbols, Galerkin truncations, alternative matrix
factorizations, kernel test vectors — and reports one pass/fail record per
check.  The command line front end prints these records and turns any failure
into a nonzero exit status.

Determinism contract: given the same corpus, seed and quadrature settings,
every suite produces byte-identical output.  All randomness flows through
seeded generators and all floats are formatted with a fixed precision.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .carleson import berezin_transform, carleson_integral, pullback_mass
from .errors import DomainError
from .funcspace import ExpPoly, Term, slice_head, slice_tail
from .oracle import TruncationSpec, compactness_witness, f2_matrix, truncated_norm
from .quad import DEFAULT_SPEC, QuadSpec, factor_argmax, fock_norm
from .wco import (
    BOUNDED_NOT_COMPACT,
    CERTIFIED,
    COMPACT,
    UNBOUNDED,
    Analysis,
    WcoProblem,
    alternative_normalization,
    analyze,
    ell_profile,
    ell_sup,
    limsup_from_sup,
)

SUITE_NAMES = ("lemmas", "sandwich", "normalization-independence", "witness", "carleson")

#: detail prefix of a record whose check does not apply to the problem
_SKIPPED = "skipped: "


@dataclass(frozen=True)
class PropertyResult:
    suite: str
    name: str
    passed: bool
    detail: str
    counterexample: dict | None = None

    @property
    def skipped(self) -> bool:
        return self.detail.startswith(_SKIPPED)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.suite}: {self.name} — {self.detail}"


def _skip(suite: str, name: str, reason: str) -> PropertyResult:
    """A record for a check that does not apply to the problem; it passes but did not run."""
    return PropertyResult(suite, name, True, _SKIPPED + reason)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


# -- random symbols -----------------------------------------------------------


def random_symbol(rng: np.random.Generator, n: int) -> ExpPoly:
    """A random exponential-polynomial on C^n with moderate growth.

    One to three terms, each with a standard complex normal coefficient and
    frequency and a power of at most 2 in every coordinate.
    """
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        coeff = complex(rng.normal(), rng.normal())
        power = tuple(int(rng.integers(0, 3)) for _ in range(n))
        freq = tuple(complex(rng.normal(), rng.normal()) for _ in range(n))
        terms.append(Term(coeff, power, freq))
    f = ExpPoly(n, tuple(terms))
    if f.is_zero():
        return ExpPoly(n, (Term(1.0 + 0j, (0,) * n, (0j,) * n),))
    return f


def _random_point(rng: np.random.Generator, n: int, scale: float = 1.5) -> np.ndarray:
    return scale * (rng.normal(size=n) + 1j * rng.normal(size=n))


# -- lemma suite: raw norm inequalities --------------------------------------

_LEMMA_EXPONENTS = (0.7, 1.0, 2.0, 3.5)
_INCLUSION_PAIRS = ((0.5, 1.0), (1.0, 2.0), (2.0, 4.0), (2.0, 3.5), (0.7, 2.4))


def _worst_margin(name: str, count: int, cases: Iterable[tuple[float, dict]]) -> PropertyResult:
    """One lemma record from (margin, counterexample) cases: it passes when no margin is negative.

    The record keeps the smallest margin and, when that one is negative, its
    counterexample.
    """
    worst = math.inf
    bad = None
    for margin, counterexample in cases:
        if margin < worst:
            worst = margin
            bad = None if margin >= 0 else counterexample
    return PropertyResult("lemmas", name, worst >= 0, f"{count} random symbols, worst margin {_fmt(worst)}", bad)


def check_slice_bound(count: int, seed: int, spec: QuadSpec | None = None) -> PropertyResult:
    """Fixing head or tail coordinates can only shrink the weighted norm.

    For f on C^n and a point b, the restricted function f(b_head, .) satisfies
    ||f(b_head, .)|| * exp(-|b_head|^2/2) <= ||f||, and symmetrically for
    fixed tails.
    """
    spec = spec or DEFAULT_SPEC
    rng = np.random.default_rng(seed)

    def cases():
        for _ in range(count):
            f = random_symbol(rng, 2)
            p = float(_LEMMA_EXPONENTS[int(rng.integers(len(_LEMMA_EXPONENTS)))])
            b = _random_point(rng, 1, scale=1.2)
            full = fock_norm(f, p, spec)
            for taker, tag in ((slice_head, "head"), (slice_tail, "tail")):
                part = fock_norm(taker(f, b), p, spec)
                lhs = part.value * math.exp(-abs(b[0]) ** 2 / 2.0)
                tol = part.err_estimate + full.err_estimate + 1e-8 * (1.0 + full.value)
                yield full.value + tol - lhs, {
                    "symbol": repr(f), "p": p, "b": [b[0].real, b[0].imag],
                    "side": tag, "restricted": lhs, "full": full.value,
                }

    return _worst_margin("slice-restriction-bound", count, cases())


def check_pointwise_bound(count: int, seed: int, spec: QuadSpec | None = None) -> PropertyResult:
    """|f(z)| exp(-|z|^2/2) never exceeds the integral norm, any exponent."""
    spec = spec or DEFAULT_SPEC
    rng = np.random.default_rng(seed)

    def cases():
        for _ in range(count):
            n = 1 + int(rng.integers(2))
            f = random_symbol(rng, n)
            p = float(_LEMMA_EXPONENTS[int(rng.integers(len(_LEMMA_EXPONENTS)))])
            nr = fock_norm(f, p, spec)
            pts = np.array([_random_point(rng, n) for _ in range(6)])
            vals = np.abs(f.eval_many(pts)) * np.exp(-0.5 * np.sum(np.abs(pts) ** 2, axis=1))
            tol = nr.err_estimate + 1e-8 * (1.0 + nr.value)
            j = int(np.argmax(vals))
            yield float(nr.value + tol - vals.max()), {
                "symbol": repr(f), "p": p, "z": [[c.real, c.imag] for c in pts[j]],
                "pointwise": float(vals[j]), "norm": nr.value,
            }

    return _worst_margin("pointwise-evaluation-bound", count, cases())


def check_inclusion_constant(count: int, seed: int, spec: QuadSpec | None = None) -> PropertyResult:
    """Smaller-exponent spaces embed in larger ones with constant (q/p)^(n/q)."""
    spec = spec or DEFAULT_SPEC
    rng = np.random.default_rng(seed)

    def cases():
        for _ in range(count):
            n = 1 + int(rng.integers(2))
            f = random_symbol(rng, n)
            p, q = _INCLUSION_PAIRS[int(rng.integers(len(_INCLUSION_PAIRS)))]
            lo = fock_norm(f, p, spec)
            hi = fock_norm(f, q, spec)
            const = (q / p) ** (n / q)
            rhs = const * lo.value
            tol = hi.err_estimate + const * lo.err_estimate + 1e-8 * (1.0 + rhs)
            yield rhs + tol - hi.value, {"symbol": repr(f), "p": p, "q": q, "norm_q": hi.value, "bound": rhs}

    return _worst_margin("exponent-inclusion-constant", count, cases())


def suite_lemmas(
    problems: Sequence[tuple[str, WcoProblem]],
    seed: int = 20260825,
    count: int = 60,
    spec: QuadSpec | None = None,
) -> list[PropertyResult]:
    # The inequalities hold for every entire function, so the corpus symbols
    # only pick the ambient dimensions; the functions themselves are random.
    del problems
    return [
        check_slice_bound(count, seed, spec),
        check_pointwise_bound(count, seed + 1, spec),
        check_inclusion_constant(count, seed + 2, spec),
    ]


# -- sandwich suite: Galerkin truncations vs two-sided bounds ----------------


def suite_sandwich(
    problems: Sequence[tuple[str, WcoProblem]],
    spec: QuadSpec | None = None,
) -> list[PropertyResult]:
    spec = spec or DEFAULT_SPEC
    out = []
    for label, prob in problems:
        name = f"truncation-in-bounds[{label}]"
        if not (prob.p == 2.0 and prob.q == 2.0):
            out.append(_skip("sandwich", name, "needs p = q = 2"))
            continue
        an = analyze(prob, spec)
        if an.classification.verdict == UNBOUNDED:
            out.append(_skip("sandwich", name, "unbounded"))
            continue
        nb = an.norm_bounds
        tn = truncated_norm(f2_matrix(prob, TruncationSpec(quad=spec)))
        lo = nb.lower * (1.0 - 1e-3)
        hi = nb.upper * (1.0 + 1e-6)
        ok = lo <= tn <= hi
        detail = f"truncated {_fmt(tn)} in [{_fmt(lo)}, {_fmt(hi)}]"
        ce = None if ok else {"label": label, "truncated": tn, "lower": lo, "upper": hi}
        out.append(PropertyResult("sandwich", name, ok, detail, ce))
    return out


# -- normalization independence ----------------------------------------------


def suite_normalization(
    problems: Sequence[tuple[str, WcoProblem]],
    spec: QuadSpec | None = None,
    seed: int = 1,
) -> list[PropertyResult]:
    """Statistics of ell must not depend on which factorization we picked."""
    spec = spec or DEFAULT_SPEC
    out = []
    for label, prob in problems:
        name = f"factorization-invariance[{label}]"
        an = analyze(prob, spec)
        nz = an.normalization
        if nz.rank_s == 0:
            out.append(_skip("normalization-independence", name, "constant map"))
            continue
        if float(nz.diag[0]) > 1.0:
            out.append(_skip("normalization-independence", name, "expanding map"))
            continue
        alt = alternative_normalization(nz, seed=seed)
        prof_alt = ell_profile(alt, prob.q)
        certified = an.profile.mode == CERTIFIED and prof_alt.mode == CERTIFIED
        tol = 1e-8 if certified else 1e-2
        sup_alt = ell_sup(prof_alt, spec)
        pairs = [("sup", an.ell_sup.value, sup_alt.value)]
        if certified:
            pairs.append(("limsup", an.ell_limsup.value, limsup_from_sup(prof_alt, sup_alt).value))
        if prob.q < prob.p:
            pairs.append((
                "lr",
                an.carleson.lr_norm.value,
                carleson_integral(alt, prob.p, prob.q, spec).lr_norm.value,
            ))
        gap = 0.0
        bad = None
        for tag, x, y in pairs:
            if math.isinf(x) or math.isinf(y):
                if x != y:
                    gap = math.inf
                    bad = {"label": label, "stat": tag, "first": repr(x), "second": repr(y)}
                continue
            rel = abs(x - y) / max(abs(x), abs(y), 1e-300)
            if rel > gap:
                gap = rel
                if rel > tol:
                    bad = {"label": label, "stat": tag, "first": x, "second": y}
        ok = gap <= tol
        out.append(PropertyResult(
            "normalization-independence", name, ok,
            f"max relative gap {_fmt(gap)} (tol {_fmt(tol)})", bad,
        ))
    return out


# -- witness suite: kernel rays see compactness ------------------------------


def _escape_ray(an: Analysis) -> tuple[np.ndarray, np.ndarray]:
    """A ray w(r) = base + r*d along which ||W k_w|| should not decay.

    Built in rotated coordinates: park every contracting coordinate at the
    point maximizing its factor of ell, park rank-deficient coordinates at the
    symbol's matching frequency, then march off to infinity along the first
    unit singular direction.  Mapping back gives base and direction.
    """
    nz, prof = an.normalization, an.profile
    n, s = nz.n, prof.s
    zhat = np.zeros(n, dtype=complex)
    for i in range(s):
        if prof.a[i] >= 1.0:
            continue
        wmod = abs(prof.w[i])
        if wmod == 0.0 and prof.deg[i] == 0:
            continue
        rho = factor_argmax(prof.a[i], wmod, prof.deg[i])
        phase = prof.w[i] / wmod if wmod > 0 else 1.0
        zhat[i] = rho * phase
    common = nz.psi_t.common_frequency()
    if common is not None:
        for i in range(s, n):
            zhat[i] = common[i]
    unit = [i for i in range(s) if prof.a[i] >= 1.0]
    j = unit[0]
    base = nz.V @ (nz.diag.astype(complex) * zhat + nz.b_t)
    return base, np.array(nz.V[:, j])


def suite_witness(
    problems: Sequence[tuple[str, WcoProblem]],
    spec: QuadSpec | None = None,
) -> list[PropertyResult]:
    spec = spec or DEFAULT_SPEC
    out = []
    for label, prob in problems:
        name = f"kernel-ray[{label}]"
        an = analyze(prob, spec)
        cls = an.classification
        if cls.mode != CERTIFIED or cls.verdict == UNBOUNDED:
            out.append(_skip("witness", name, f"{cls.verdict} ({cls.mode})"))
            continue
        if cls.verdict == COMPACT:
            rng = np.random.default_rng(20260825)
            extra = rng.normal(size=(2, prob.n)) + 1j * rng.normal(size=(2, prob.n))
            extra /= np.linalg.norm(extra, axis=1)[:, None]
            dirs = [np.eye(prob.n, dtype=complex)[i] for i in range(prob.n)] + list(extra)
            rays = compactness_witness(prob, directions=dirs, spec=spec)
            far = max(r.values[-1] for r in rays)
            ok = far < 1e-3
            ce = None if ok else {"label": label, "far_value": far}
            out.append(PropertyResult(
                "witness", name, ok,
                f"compact: max ||W k_w|| at |w|={rays[0].radii[-1]:g} is {_fmt(far)} (< 0.001)", ce,
            ))
            continue
        # bounded, not compact: some ray must stay comparable to limsup ell
        limsup = an.ell_limsup.value
        base, direction = _escape_ray(an)
        ray = compactness_witness(prob, directions=[direction], base=base, spec=spec)[0]
        floor = 0.5 * limsup
        low = min(ray.values)
        ok = low > floor
        ce = None if ok else {"label": label, "ray_min": low, "floor": floor}
        out.append(PropertyResult(
            "witness", name, ok,
            f"not compact: ray minimum {_fmt(low)} stays above {_fmt(floor)}", ce,
        ))
    return out


# -- carleson suite: measure membership vs classification --------------------


def suite_carleson(
    problems: Sequence[tuple[str, WcoProblem]],
    spec: QuadSpec | None = None,
) -> list[PropertyResult]:
    spec = spec or DEFAULT_SPEC
    out = []
    for label, prob in problems:
        name = f"measure-dichotomy[{label}]"
        if not (prob.q < prob.p):
            out.append(_skip("carleson", name, "needs q < p"))
            continue
        an = analyze(prob, spec)
        cls = an.classification
        if cls.verdict == UNBOUNDED and cls.mode == CERTIFIED and not an.admissibility.admissible:
            out.append(_skip("carleson", name, "expanding map"))
            continue
        nz = an.normalization
        if nz.rank_s == 0:
            out.append(_skip("carleson", name, "constant map"))
            continue
        report = an.carleson
        checks = []
        agree = report.member == (cls.verdict == COMPACT) and cls.verdict != BOUNDED_NOT_COMPACT
        checks.append(("membership==compactness", agree, f"member={report.member}, verdict={cls.verdict}"))
        if report.member and report.mode == CERTIFIED:
            quad_spec = dataclasses.replace(spec, allow_closed_form=False)
            by_quad = carleson_integral(nz, prob.p, prob.q, quad_spec)
            rel = abs(report.lr_norm.value - by_quad.lr_norm.value) / max(report.lr_norm.value, 1e-300)
            checks.append(("closed-form==quadrature", rel <= 1e-6, f"rel gap {_fmt(rel)}"))
            w0 = np.zeros(nz.rank_s, dtype=complex)
            bz = [berezin_transform(nz, prob.q, w0, spec, method=m) for m in ("identity", "direct")]
            relb = abs(bz[0] - bz[1]) / max(abs(bz[0]), 1e-300)
            checks.append(("berezin-two-ways", relb <= 1e-6, f"rel gap {_fmt(relb)}"))
            m2 = pullback_mass(nz, prob.q, w0, 2.0, spec)
            m4 = pullback_mass(nz, prob.q, w0, 4.0, spec)
            checks.append(("mass-monotone-in-radius", m2 <= m4 + 1e-12, f"{_fmt(m2)} <= {_fmt(m4)}"))
        ok = all(c[1] for c in checks)
        detail = "; ".join(f"{tag}: {info}" for tag, good, info in checks)
        ce = None if ok else {"label": label, "failed": [tag for tag, good, _ in checks if not good]}
        out.append(PropertyResult("carleson", name, ok, detail, ce))
    return out


# -- runner -------------------------------------------------------------------

_SUITES: dict[str, Callable[..., list[PropertyResult]]] = {
    "lemmas": suite_lemmas,
    "sandwich": suite_sandwich,
    "normalization-independence": suite_normalization,
    "witness": suite_witness,
    "carleson": suite_carleson,
}


def run_suites(
    problems: Sequence[tuple[str, WcoProblem]],
    suite: str = "all",
    seed: int = 20260825,
    lemma_count: int = 60,
    spec: QuadSpec | None = None,
) -> list[PropertyResult]:
    """Run one named suite (or all of them) over the corpus, in a fixed order."""
    if suite == "all":
        names = list(SUITE_NAMES)
    elif suite in _SUITES:
        names = [suite]
    else:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITE_NAMES)} or all")

    def run_one(name: str) -> list[PropertyResult]:
        fn = _SUITES[name]
        if name == "lemmas":
            return fn(problems, seed=seed, count=lemma_count, spec=spec)
        return fn(problems, spec=spec)

    return [res for name in names for res in run_one(name)]


def format_results(results: Sequence[PropertyResult]) -> str:
    lines = [res.line() for res in results]
    failed = [res for res in results if not res.passed]
    skipped = sum(res.skipped for res in results)
    lines.append(f"{len(results) - len(failed) - skipped}/{len(results)} properties passed, {skipped} skipped")
    for res in failed:
        lines.append(f"counterexample {res.suite}/{res.name}: {res.counterexample!r}")
    return "\n".join(lines)
