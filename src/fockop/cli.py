"""Batch front door: problem files in, machine-readable reports out.

Problem files are JSON.  Complex numbers are [re, im] pairs, the matrix is a
flat row-major list of such pairs, and no NaN or infinity may appear anywhere
in a file; infinite computed quantities are reported as {"finite": false}.

Exit codes: 0 success, 1 verification failure, 2 malformed input, 3 unbounded
verdict (only with --exit-verdict), 4 exponent range not supported.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    DomainError,
    FockopError,
    ProblemFileError,
    UnsupportedExponentsError,
)
from .funcspace import AffineMap, ExpPoly, Term
from .oracle import BASIS_CAP, DEGREE_CAP, TruncationSpec, f2_matrix, rayleigh_sweep
from .oracle import truncated_essential_upper, truncated_norm
from .quad import DEFAULT_SPEC, MIN_NODES, NormResult, QuadSpec
from .verify import SUITE_NAMES, format_results, run_suites
from .wco import UNBOUNDED, Analysis, WcoProblem, analyze

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_FILE = 2
EXIT_UNBOUNDED = 3
EXIT_UNSUPPORTED = 4

#: the keys of a problem file's ``quad`` block: each one's type and, for
#: integers, its least value (``--quad-nodes`` and ``--seed`` share them)
_QUAD_OVERRIDE_KEYS = {
    "nodes_per_axis": (int, MIN_NODES),
    "seed": (int, 1),
    "sup_radius": (float, None),
    "refine_iters": (int, 0),
    "allow_closed_form": (bool, None),
}


# -- problem files ------------------------------------------------------------


@dataclass(frozen=True)
class LoadedProblem:
    label: str
    problem: WcoProblem
    quad: QuadSpec


def _expect(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ProblemFileError(f"{where}: {msg}")


def _real(v, where: str) -> float:
    _expect(isinstance(v, (int, float)) and not isinstance(v, bool), where, "expected a number")
    x = float(v)
    _expect(math.isfinite(x), where, "NaN/Inf are not allowed in problem files")
    return x


def _complex(v, where: str) -> complex:
    _expect(isinstance(v, list) and len(v) == 2, where, "complex values are [re, im] pairs")
    return complex(_real(v[0], where + "[0]"), _real(v[1], where + "[1]"))


def _int(v, where: str, lo: int | None = None) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool), where, "expected an integer")
    if lo is not None:
        _expect(v >= lo, where, f"expected an integer >= {lo}")
    return v


def _quad_value(key: str, value, at: str):
    """``value`` for the quadrature setting ``key``, checked against its entry in ``_QUAD_OVERRIDE_KEYS``."""
    want, lo = _QUAD_OVERRIDE_KEYS[key]
    if want is bool:
        _expect(isinstance(value, bool), at, "expected a boolean")
        return value
    if want is int:
        return _int(value, at, lo=lo)
    return _real(value, at)


def parse_problem(data, where: str = "problem") -> LoadedProblem:
    """Validate a decoded problem-file object and build the domain types."""
    _expect(isinstance(data, dict), where, "top level must be a JSON object")
    allowed = {"version", "label", "n", "p", "q", "psi", "phi", "quad"}
    unknown = sorted(set(data) - allowed)
    _expect(not unknown, where, f"unknown keys {unknown}")
    for key in ("version", "n", "p", "q", "psi", "phi"):
        _expect(key in data, where, f"missing key {key!r}")
    _expect(data["version"] == SCHEMA_VERSION, where + ".version",
            f"unsupported schema version {data['version']!r} (expected {SCHEMA_VERSION})")
    n = _int(data["n"], where + ".n", lo=1)
    p = _real(data["p"], where + ".p")
    q = _real(data["q"], where + ".q")

    raw_terms = data["psi"]
    _expect(isinstance(raw_terms, list) and raw_terms, where + ".psi", "expected a nonempty list of terms")
    terms = []
    for i, t in enumerate(raw_terms):
        at = f"{where}.psi[{i}]"
        _expect(isinstance(t, dict), at, "each term is an object")
        _expect(set(t) == {"coeff", "power", "freq"}, at, "term keys are coeff, power, freq")
        coeff = _complex(t["coeff"], at + ".coeff")
        _expect(isinstance(t["power"], list) and len(t["power"]) == n, at + ".power", f"expected {n} integers")
        power = tuple(_int(v, at + f".power[{j}]", lo=0) for j, v in enumerate(t["power"]))
        _expect(isinstance(t["freq"], list) and len(t["freq"]) == n, at + ".freq", f"expected {n} pairs")
        freq = tuple(_complex(v, at + f".freq[{j}]") for j, v in enumerate(t["freq"]))
        terms.append(Term(coeff, power, freq))

    raw_phi = data["phi"]
    _expect(isinstance(raw_phi, dict) and set(raw_phi) == {"A", "b"}, where + ".phi", "expected keys A and b")
    _expect(isinstance(raw_phi["A"], list) and len(raw_phi["A"]) == n * n, where + ".phi.A",
            f"expected {n * n} [re, im] pairs (row-major)")
    flat = [_complex(v, f"{where}.phi.A[{i}]") for i, v in enumerate(raw_phi["A"])]
    A = np.array(flat, dtype=complex).reshape(n, n)
    _expect(isinstance(raw_phi["b"], list) and len(raw_phi["b"]) == n, where + ".phi.b",
            f"expected {n} [re, im] pairs")
    b = np.array([_complex(v, f"{where}.phi.b[{i}]") for i, v in enumerate(raw_phi["b"])], dtype=complex)

    quad = DEFAULT_SPEC
    if "quad" in data:
        raw_quad = data["quad"]
        _expect(isinstance(raw_quad, dict), where + ".quad", "expected an object")
        unknown = sorted(set(raw_quad) - set(_QUAD_OVERRIDE_KEYS))
        _expect(not unknown, where + ".quad", f"unknown keys {unknown}")
        fields = {key: _quad_value(key, value, f"{where}.quad.{key}") for key, value in raw_quad.items()}
        quad = dataclasses.replace(quad, **fields)

    label = data.get("label", "")
    _expect(isinstance(label, str), where + ".label", "expected a string")
    try:
        psi = ExpPoly(n, tuple(terms))
        problem = WcoProblem(psi, AffineMap(A, b), p, q)
    except FockopError as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc
    return LoadedProblem(label=label, problem=problem, quad=quad)


def load_problem(path: Path) -> LoadedProblem:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON: {exc}") from exc
    loaded = parse_problem(data, where=str(path))
    if not loaded.label:
        loaded = dataclasses.replace(loaded, label=path.stem)
    return loaded


def _corpus_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    if not root.is_dir():
        raise ProblemFileError(f"{root}: not a file or directory")
    files = sorted(root.glob("*.json"))
    if not files:
        raise ProblemFileError(f"{root}: no *.json problem files found")
    return files


def load_corpus(root: Path) -> list[LoadedProblem]:
    return [load_problem(f) for f in _corpus_files(root)]


# -- report encoding ----------------------------------------------------------


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _extended(x: float) -> dict:
    if math.isinf(x):
        return {"finite": False}
    return {"finite": True, "value": float(x)}


def _norm_result(nr: NormResult) -> dict:
    return {"value": _extended(nr.value), "method": nr.mode, "err_estimate": _extended(nr.err_estimate)}


def _encode_problem(loaded: LoadedProblem) -> dict:
    prob = loaded.problem
    return {
        "version": SCHEMA_VERSION,
        "label": loaded.label,
        "n": prob.n,
        "p": prob.p,
        "q": prob.q,
        "psi": [
            {"coeff": _pair(t.coeff), "power": list(t.power), "freq": [_pair(c) for c in t.freq]}
            for t in prob.psi.terms
        ],
        "phi": {
            "A": [_pair(z) for z in np.asarray(prob.phi.A).reshape(-1)],
            "b": [_pair(z) for z in np.asarray(prob.phi.b)],
        },
    }


def _encode_quad(spec: QuadSpec, n: int) -> dict:
    return {
        "nodes_per_axis": spec.resolve_nodes(n),
        "seed": spec.seed,
        "sup_radius": None if spec.sup_radius is None else float(spec.sup_radius),
        "refine_iters": spec.refine_iters,
        "allow_closed_form": spec.allow_closed_form,
    }


def _report_base(command: str, loaded: LoadedProblem) -> dict:
    return {
        "tool": {"name": "fockop", "version": __version__, "schema": SCHEMA_VERSION},
        "command": command,
        "problem": _encode_problem(loaded),
        "quad": _encode_quad(loaded.quad, loaded.problem.n),
    }


def _classification_section(an: Analysis) -> dict:
    cls = an.classification
    return {"verdict": cls.verdict, "mode": cls.mode, "certificate": cls.certificate}


def _ell_section(an: Analysis) -> dict:
    if an.normalization.rank_s == 0:
        return {"available": False, "reason": "constant map: no head coordinates"}
    out = {"available": True, "mode": an.profile.mode, "sup": _norm_result(an.ell_sup)}
    try:
        out["limsup"] = _norm_result(an.ell_limsup)
    except DomainError as exc:
        out["limsup"] = {"available": False, "reason": str(exc)}
    return out


def _bounds_section(an: Analysis) -> dict:
    if an.classification.verdict == UNBOUNDED:
        return {"available": False, "reason": "operator is unbounded"}
    nb = an.norm_bounds
    return {
        "available": True,
        "lower": _extended(nb.lower),
        "upper": _extended(nb.upper),
        "essential_lower": None if nb.essential_lower is None else _extended(nb.essential_lower),
        "essential_upper": None if nb.essential_upper is None else _extended(nb.essential_upper),
        "upper_is_up_to_universal_constant": nb.upper_is_up_to_universal_constant,
    }


def cmd_classify(loaded: LoadedProblem) -> dict:
    report = _report_base("classify", loaded)
    report["classification"] = _classification_section(analyze(loaded.problem, loaded.quad))
    return report


def cmd_bounds(loaded: LoadedProblem) -> dict:
    an = analyze(loaded.problem, loaded.quad)
    report = _report_base("bounds", loaded)
    report["classification"] = _classification_section(an)
    report["norm_bounds"] = _bounds_section(an)
    report["ell"] = _ell_section(an)
    return report


def cmd_essnorm(loaded: LoadedProblem) -> dict:
    # UnsupportedExponentsError intentionally propagates: the caller maps it
    # to exit code 4 because this range has no two-sided essential bounds.
    an = analyze(loaded.problem, loaded.quad)
    report = _report_base("essnorm", loaded)
    report["classification"] = _classification_section(an)
    try:
        nb = an.essential_norm_bounds
    except UnsupportedExponentsError:
        raise
    except DomainError as exc:
        report["essential_norm_bounds"] = {"available": False, "reason": str(exc)}
        return report
    report["essential_norm_bounds"] = {
        "available": True,
        "lower": _extended(nb.essential_lower),
        "upper": _extended(nb.essential_upper),
        "norm_lower": _extended(nb.lower),
        "norm_upper": _extended(nb.upper),
    }
    return report


def cmd_oracle(loaded: LoadedProblem, max_degree: int = 10) -> dict:
    n, at = loaded.problem.n, f"--max-degree {max_degree}"
    _expect(max_degree >= 0, at, "expected an integer >= 0")
    size = math.comb(n + max_degree, n)
    _expect(size <= BASIS_CAP, at, f"the basis in {n} variables has {size} monomials, above the cap {BASIS_CAP}")
    top = max_degree + max(max(t.power) for t in loaded.problem.psi.terms)
    _expect(top <= DEGREE_CAP, at,
            f"degrees up to {top} with the powers of psi; factorials past {DEGREE_CAP}! overflow a double")
    an = analyze(loaded.problem, loaded.quad)
    report = _report_base("oracle", loaded)
    section = _classification_section(an)
    report["classification"] = section
    report["norm_bounds"] = _bounds_section(an)

    prob = loaded.problem
    tspec = TruncationSpec(max_degree=max_degree, quad=loaded.quad)
    sweep = rayleigh_sweep(prob, tspec)
    oracle: dict = {
        "sweep_best": _extended(sweep.best),
        "sweep_size": len(sweep.records),
        "sweep_argmax": max(sweep.records, key=lambda r: r.quotient).label,
    }
    if prob.p == 2.0 and prob.q == 2.0:
        tn = truncated_norm(f2_matrix(prob, tspec))
        galerkin: dict = {"max_degree": max_degree, "truncated_norm": _extended(tn)}
        if section["verdict"] != UNBOUNDED:
            try:
                galerkin["essential_upper"] = _extended(truncated_essential_upper(prob, tspec))
            except DomainError:
                pass
        oracle["galerkin"] = galerkin
    if report["norm_bounds"].get("available"):
        upper = report["norm_bounds"]["upper"]
        checks = {}
        if upper["finite"]:
            slack = 1e-6 * (1.0 + upper["value"])
            checks["sweep_below_upper"] = bool(sweep.best <= upper["value"] + slack)
            if "galerkin" in oracle:
                checks["truncation_below_upper"] = bool(
                    oracle["galerkin"]["truncated_norm"]["value"] <= upper["value"] + slack
                )
        oracle["checks"] = checks
    report["oracle"] = oracle
    return report


# -- output -------------------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _text_lines(prefix: str, value, out: list[str]) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _text_lines(f"{prefix}.{key}" if prefix else key, value[key], out)
    elif isinstance(value, list):
        out.append(f"{prefix} = {json.dumps(value, sort_keys=True)}")
    else:
        out.append(f"{prefix} = {json.dumps(value)}")


def render_text(report: dict) -> str:
    lines: list[str] = []
    _text_lines("", report, lines)
    return "\n".join(lines) + "\n"


def _emit(report: dict, as_text: bool) -> None:
    sys.stdout.write(render_text(report) if as_text else render_json(report))


# -- entry point --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockop",
        description="Boundedness, compactness and norm bounds for weighted composition maps between Fock spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("path", type=Path, help="problem file (or directory for verify)")
        sp.add_argument("--quad-nodes", type=int, default=None, metavar="K",
                        help="override quadrature nodes per real axis")
        sp.add_argument("--seed", type=int, default=None, metavar="S",
                        help="override the sampling seed")
        fmt = sp.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="as_text", action="store_false", default=False,
                         help="JSON report on stdout (default)")
        fmt.add_argument("--text", dest="as_text", action="store_true",
                         help="flat key = value lines instead of JSON")

    for name, doc in (
        ("classify", "decide unbounded / bounded-not-compact / compact"),
        ("bounds", "two-sided operator norm bounds"),
        ("essnorm", "two-sided essential norm bounds (needs 1 < p <= q)"),
        ("oracle", "independent truncation/sweep cross-checks"),
    ):
        sp = sub.add_parser(name, help=doc)
        common(sp)
        sp.add_argument("--exit-verdict", action="store_true",
                        help="exit 3 when the verdict is unbounded (for scripting)")
        if name == "oracle":
            sp.add_argument("--max-degree", type=int, default=10,
                            help="Galerkin truncation degree (default 10)")

    sp = sub.add_parser("verify", help="run self-check suites over a problem corpus")
    common(sp)
    sp.add_argument("--suite", default="all", choices=list(SUITE_NAMES) + ["all"],
                    help="which suite to run (default all)")
    sp.add_argument("--lemma-count", type=int, default=60, metavar="N",
                    help="random symbols per inequality check (default 60)")
    return parser


def _apply_overrides(loaded: LoadedProblem, args) -> LoadedProblem:
    spec = loaded.quad
    for key, value, flag in (("nodes_per_axis", args.quad_nodes, "--quad-nodes"), ("seed", args.seed, "--seed")):
        if value is not None:
            spec = dataclasses.replace(spec, **{key: _quad_value(key, value, flag)})
    return dataclasses.replace(loaded, quad=spec)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            _expect(args.lemma_count >= 1, f"--lemma-count {args.lemma_count}", "expected an integer >= 1")
            files = _corpus_files(args.path)
            corpus = [_apply_overrides(load_problem(f), args) for f in files]
            # the suites run every problem with one spec, so every file must resolve to it
            spec = corpus[0].quad
            for f, item in zip(files, corpus):
                if item.quad != spec:
                    raise ProblemFileError(f"{f}: its quad block resolves to other settings than {files[0]}'s")
            problems = [(item.label, item.problem) for item in corpus]
            results = run_suites(
                problems,
                suite=args.suite,
                seed=spec.seed,
                lemma_count=args.lemma_count,
                spec=spec,
            )
            if args.as_text:
                sys.stdout.write(format_results(results) + "\n")
            else:
                payload = {
                    "tool": {"name": "fockop", "version": __version__, "schema": SCHEMA_VERSION},
                    "command": "verify",
                    "suite": args.suite,
                    "results": [
                        {
                            "suite": r.suite,
                            "name": r.name,
                            "passed": r.passed,
                            "detail": r.detail,
                            "counterexample": r.counterexample,
                        }
                        for r in results
                    ],
                    "passed": sum(r.passed and not r.skipped for r in results),
                    "skipped": sum(r.skipped for r in results),
                    "failed": sum(not r.passed for r in results),
                }
                sys.stdout.write(render_json(payload))
            return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY_FAILED

        loaded = _apply_overrides(load_problem(args.path), args)
        if args.command == "classify":
            report = cmd_classify(loaded)
        elif args.command == "bounds":
            report = cmd_bounds(loaded)
        elif args.command == "essnorm":
            report = cmd_essnorm(loaded)
        else:
            report = cmd_oracle(loaded, max_degree=args.max_degree)
    except ProblemFileError as exc:
        print(f"fockop: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except UnsupportedExponentsError as exc:
        print(f"fockop: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED

    _emit(report, args.as_text)
    if args.exit_verdict and report["classification"]["verdict"] == UNBOUNDED:
        return EXIT_UNBOUNDED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
