"""End-to-end CLI checks: exit codes, schema validation, golden reports."""
import json
import math
import subprocess
import sys
import time

import mpmath
import pytest

from fockop import cli, wco
from helpers import CORPUS_DIR, GOLDEN_DIR, corpus_path


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "fockop.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


# -- exit-code contract --------------------------------------------------------


def test_ok_exit_is_zero():
    r = run_cli("classify", str(corpus_path("01_identity")))
    assert r.returncode == 0
    assert r.stdout.endswith("\n")


def test_unbounded_needs_opt_in_flag():
    plain = run_cli("classify", str(corpus_path("05_expanding")))
    assert plain.returncode == 0
    flagged = run_cli("classify", str(corpus_path("05_expanding")), "--exit-verdict")
    assert flagged.returncode == 3


def test_unsupported_exponents_exit_four():
    r = run_cli("essnorm", str(corpus_path("09_collapse_compact")))
    assert r.returncode == 4
    assert "1 < p <= q" in r.stderr


def test_missing_file_exit_two():
    r = run_cli("classify", str(CORPUS_DIR / "no_such_problem.json"))
    assert r.returncode == 2


@pytest.mark.parametrize(
    "mutation",
    [
        lambda d: d.update(version=7),
        lambda d: d.update(extra_key=1),
        lambda d: d.update(p=[2.0]),
        lambda d: d["phi"].update(A=d["phi"]["A"][:-1]),
        lambda d: d["psi"][0].update(surprise=True),
        lambda d: d["phi"].update(b=[[float("nan"), 0.0]]),
        lambda d: d.update(psi=[]),
    ],
)
def test_malformed_problem_files_exit_two(tmp_path, mutation):
    doc = json.loads(corpus_path("01_identity").read_text())
    mutation(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc, allow_nan=True))
    r = run_cli("classify", str(bad))
    assert r.returncode == 2, r.stderr
    assert r.stderr.strip()


def test_broken_json_exit_two(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json")
    assert run_cli("bounds", str(f)).returncode == 2


def test_verify_text_mode_prints_pass_lines():
    r = run_cli("verify", str(corpus_path("02_contraction")), "--suite", "witness", "--text")
    assert r.returncode == 0
    assert "PASS" in r.stdout
    assert "properties passed" in r.stdout


# -- golden outputs ------------------------------------------------------------


@pytest.mark.parametrize(
    "golden,args",
    [
        ("classify_05_expanding.json", ("classify", "05_expanding")),
        ("bounds_01_identity.json", ("bounds", "01_identity")),
        ("bounds_03_constant_map.json", ("bounds", "03_constant_map")),
        ("essnorm_08_p_below_q.json", ("essnorm", "08_p_below_q")),
        ("oracle_04_unit_shift.json", ("oracle", "04_unit_shift")),
        ("oracle_14_two_frequencies.json", ("oracle", "14_two_frequencies")),
    ],
)
def test_json_reports_match_golden(golden, args):
    cmd, stem = args
    r = run_cli(cmd, str(corpus_path(stem)))
    assert r.returncode == 0
    assert r.stdout == (GOLDEN_DIR / golden).read_text()


def test_text_report_matches_golden():
    r = run_cli("bounds", str(corpus_path("16_displacement")), "--text")
    assert r.returncode == 0
    assert r.stdout == (GOLDEN_DIR / "bounds_16_displacement.txt").read_text()


def test_reports_are_deterministic():
    a = run_cli("oracle", str(corpus_path("06_kernel_weight")))
    b = run_cli("oracle", str(corpus_path("06_kernel_weight")))
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# -- report structure ----------------------------------------------------------


def test_report_roundtrips_and_embeds_quad():
    r = run_cli("bounds", str(corpus_path("02_contraction")), "--quad-nodes", "24")
    doc = json.loads(r.stdout)
    assert doc["tool"]["name"] == "fockop"
    assert doc["tool"]["schema"] == 1
    assert doc["quad"]["nodes_per_axis"] == 24
    assert doc["problem"]["label"]
    assert doc["norm_bounds"]["lower"]["value"] <= doc["norm_bounds"]["upper"]["value"]


def test_unbounded_bounds_report_is_flagged_not_crashed():
    doc = json.loads(run_cli("bounds", str(corpus_path("05_expanding"))).stdout)
    assert doc["norm_bounds"]["available"] is False
    assert doc["classification"]["verdict"] == "unbounded"


def test_infinite_values_encode_as_non_finite():
    # drift along a unit singular direction: sup ell = +inf, report stays JSON-clean
    doc = json.loads(run_cli("bounds", str(corpus_path("04_unit_shift"))).stdout)
    text = json.dumps(doc)
    assert "Infinity" not in text
    assert doc["ell"]["sup"]["value"] == {"finite": False}


def test_classify_text_mode_is_flat_key_values():
    r = run_cli("classify", str(corpus_path("01_identity")), "--text")
    lines = [ln for ln in r.stdout.splitlines() if ln]
    assert all(" = " in ln for ln in lines)
    assert lines == sorted(lines)



@pytest.mark.parametrize(
    "args",
    [
        ("bounds", "02_contraction", "--quad-nodes", "4"),
        ("classify", "14_two_frequencies", "--seed", "-1"),
        ("oracle", "02_contraction", "--max-degree", "-1"),
        ("oracle", "07_anisotropic", "--max-degree", "200"),  # 20301 basis monomials, above the cap
        ("verify", "01_identity", "--lemma-count", "0"),
        ("oracle", "02_contraction", "--max-degree", "171"),  # 171! does not fit a double
        ("oracle", "02_contraction", "--max-degree", "200"),
        ("oracle", "12_poly_weight", "--max-degree", "170"),  # psi = z e^{...}: powers up to 171
    ],
)
def test_settings_that_cannot_run_exit_two(args):
    cmd, stem, *flags = args
    r = run_cli(cmd, str(corpus_path(stem)), *flags)
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("fockop: ")
    assert "Traceback" not in r.stderr
    assert not r.stdout


def test_largest_degree_whose_factorials_fit_gives_a_report():
    r = run_cli("oracle", str(corpus_path("02_contraction")), "--max-degree", "170")
    assert r.returncode == 0, r.stderr
    assert "Traceback" not in r.stderr
    assert json.loads(r.stdout)["oracle"]["galerkin"]["max_degree"] == 170


@pytest.mark.parametrize("quad,key", [({"nodes_per_axis": 4}, "nodes_per_axis"), ({"samples": 100}, "samples")])
def test_quad_block_rejects_unusable_and_unknown_keys(tmp_path, quad, key):
    doc = json.loads(corpus_path("02_contraction").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(doc, quad=quad)))
    r = run_cli("bounds", str(bad))
    assert r.returncode == 2, r.stderr
    assert key in r.stderr
    assert "Traceback" not in r.stderr

def test_verify_runs_all_suites_on_directory():
    r = run_cli("verify", str(CORPUS_DIR), "--lemma-count", "6", "--text")
    assert r.returncode == 0, r.stdout + r.stderr
    tally = [ln for ln in r.stdout.splitlines() if "properties passed" in ln]
    assert len(tally) == 1
    # checks that do not apply to a problem are counted apart from the passes
    skips = [ln for ln in r.stdout.splitlines() if " — skipped: " in ln]
    assert len(skips) == 26
    assert tally == ["45/71 properties passed, 26 skipped"]
    assert not any(ln.startswith("FAIL") for ln in r.stdout.splitlines())


def test_verify_json_counts_skipped_records(capsys):
    assert cli.main(["verify", str(CORPUS_DIR), "--suite", "witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    skipped = [r for r in doc["results"] if r["detail"].startswith("skipped: ")]
    assert (doc["passed"], doc["skipped"], doc["failed"]) == (13, 4, 0)
    assert doc["skipped"] == len(skipped)
    assert doc["passed"] + doc["skipped"] + doc["failed"] == len(doc["results"])


def test_verify_reads_the_seed_of_the_quad_block(tmp_path, capsys):
    doc = json.loads(corpus_path("01_identity").read_text())
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(dict(doc, quad={"seed": 5})))
    args = ["--suite", "lemmas", "--lemma-count", "5"]
    assert cli.main(["verify", str(seeded), *args]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(["verify", str(corpus_path("01_identity")), "--seed", "5", *args]) == 0
    assert capsys.readouterr().out == from_file


def test_verify_rejects_files_whose_quad_blocks_differ(tmp_path):
    data = json.loads(corpus_path("09_collapse_compact").read_text())
    (tmp_path / "a.json").write_text(json.dumps(dict(data, quad={"nodes_per_axis": 8})))
    (tmp_path / "b.json").write_text(json.dumps(data))
    r = run_cli("verify", str(tmp_path), "--suite", "carleson")
    assert r.returncode == 2
    assert str(tmp_path / "b.json") in r.stderr
    assert not r.stdout


def test_verify_accepts_files_whose_quad_blocks_match(tmp_path):
    data = json.loads(corpus_path("09_collapse_compact").read_text())
    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(json.dumps(dict(data, quad={"nodes_per_axis": 8})))
    r = run_cli("verify", str(tmp_path), "--suite", "carleson", "--text")
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "2/2 properties passed, 0 skipped"


def problem_file(path, n, p, q, terms, A, b):
    """Write a problem file: terms as (coeff, power, freq), A as rows of complex numbers."""
    pair = lambda z: [complex(z).real, complex(z).imag]  # noqa: E731
    path.write_text(json.dumps({
        "version": 1, "n": n, "p": p, "q": q,
        "psi": [{"coeff": pair(c), "power": list(g), "freq": [pair(f) for f in fr]} for c, g, fr in terms],
        "phi": {"A": [pair(z) for row in A for z in row], "b": [pair(z) for z in b]},
    }))
    return path


def test_verify_carleson_on_a_common_frequency_tail_monomial_weight(tmp_path, capsys):
    # rank 1 on C^2 and a weight with a tail monomial: ell reads slice norms, and the measure's
    # Berezin transform read two ways must agree on the whole 40-node rule
    u = (0.3, 0.2j)
    path = problem_file(
        tmp_path / "tail.json", 2, 4.0, 1.5, [(1.0, (0, 0), u), (0.7, (0, 1), u), (0.4, (1, 0), u)],
        [[0.6, 0.0], [0.0, 0.0]], [0.1, 0.2],
    )
    assert cli.main(["verify", str(path), "--suite", "carleson"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["passed"], doc["skipped"], doc["failed"]) == (1, 0, 0)


@pytest.mark.parametrize("w, want", [(12.0, 1.3043808543444165e32), (20.0, 7.956774013466384e87)])
def test_bounds_of_a_constant_map_whose_weight_norm_overflows_unscaled(tmp_path, w, want):
    # A = 0, b = 0: the norm is ||(1 + 0.5 z) e^{wz}||_4, whose 4th power overflows on the quadrature grid
    path = problem_file(tmp_path / "e.json", 1, 4.0, 4.0, [(1.0, (0,), (w,)), (0.5, (1,), (w,))], [[0.0]], [0.0])
    r = run_cli("bounds", str(path))
    assert r.returncode == 0, r.stderr
    bounds = json.loads(r.stdout)["norm_bounds"]
    assert bounds["lower"] == bounds["upper"]
    assert bounds["upper"]["value"] == pytest.approx(want, rel=1e-9)


def test_bounds_of_a_rank_zero_map_whose_weight_norm_leaves_gamma_times_1f1(tmp_path, capsys):
    # A = 0, b = 0, p = q = 2: the norm is ||z e^{30 z}||_2 = sqrt(Gamma(2) 1F1(2; 1; 900)), about
    # e^450 sqrt(901), where the product Gamma * 1F1 overflows a double but its square root does not
    path = problem_file(tmp_path / "z.json", 1, 2.0, 2.0, [(1.0, (1,), (30.0,))], [[0.0]], [0.0])
    assert cli.main(["bounds", str(path)]) == 0
    bounds = json.loads(capsys.readouterr().out)["norm_bounds"]
    want = float(mpmath.sqrt(mpmath.gamma(2) * mpmath.hyp1f1(2, 1, 900)))
    assert want == pytest.approx(8.126045541528171e196, rel=1e-15)
    for side in ("lower", "upper"):
        assert bounds[side]["finite"]
        assert bounds[side]["value"] == pytest.approx(want, rel=1e-13)


def test_bounds_of_a_compact_operator_whose_ell_integral_leaves_gamma_times_1f1(tmp_path, capsys):
    # n = 1, psi = z e^{20 z}, A = 0.5, p = 2 > q = 1.5: ell(z) = |z| exp(-3|z|^2/8 + 20 Re z) is in L^6
    # (r = pq/(p - q)), and the bounds are 0.5^(1/3) and 2 times its L^6 norm; the closed form of that
    # integral holds Gamma(4) 1F1(4; 1; 1600/3), past the double range
    path = problem_file(tmp_path / "z.json", 1, 2.0, 1.5, [(1.0, (1,), (20.0,))], [[0.5]], [0.0])
    assert cli.main(["bounds", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["classification"]["verdict"], doc["classification"]["mode"]) == ("compact", "certified")
    bounds = doc["norm_bounds"]
    with mpmath.workdps(30):
        # the angular integral of e^{120 rho cos t} is 2 pi I_0(120 rho)
        radial = lambda rho: rho**7 * mpmath.exp(-mpmath.mpf(9) / 4 * rho**2) * mpmath.besseli(0, 120 * rho)
        integral = 2 * mpmath.pi * mpmath.quad(radial, [0, 20, 26, 27, 28, 34, mpmath.inf])
        lr = integral ** (mpmath.mpf(1) / 6)
        want = {"lower": float(mpmath.cbrt(0.5) * lr), "upper": float(2 * lr)}
    for side in ("lower", "upper"):
        assert bounds[side]["finite"]
        assert bounds[side]["value"] == pytest.approx(want[side], rel=1e-12)


@pytest.mark.parametrize("freq", [1e4, 1e100])
def test_norm_bounds_at_a_huge_frequency_take_bounded_work(tmp_path, freq):
    # the same problem at q = 1.2 (r = 3): the ell integral holds 1F1(5/2; 1; 2 freq^2), whose power series
    # would run for about 2 freq^2 terms, and its large-x series for a few; e^(2 freq^2) leaves the double
    # range, so both bounds read not finite
    path = problem_file(tmp_path / "z.json", 1, 2.0, 1.2, [(1.0, (1,), (freq,))], [[0.5]], [0.0])
    loaded = cli.load_problem(path)
    an = wco.analyze(loaded.problem, loaded.quad)
    start = time.perf_counter()
    bounds = an.norm_bounds
    assert time.perf_counter() - start < 1.0
    assert (an.classification.verdict, an.classification.mode) == ("compact", "certified")
    assert math.isinf(bounds.lower) and math.isinf(bounds.upper)


# -- each quantity once ----------------------------------------------------------


def count_calls(monkeypatch, module, names):
    """Wrap ``module.<name>`` for each name; returns the live call counts."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("command", ["bounds", "essnorm"])
def test_report_normalizes_and_searches_once(monkeypatch, capsys, command):
    counts = count_calls(monkeypatch, wco, ["_numeric_sup", "_normalized"])
    assert cli.main([command, str(corpus_path("14_two_frequencies"))]) == 0
    assert counts["_numeric_sup"] == 1
    assert counts["_normalized"] == 1


@pytest.mark.parametrize("command", ["classify", "bounds", "essnorm", "oracle"])
@pytest.mark.parametrize("stem", ["02_contraction", "05_expanding", "13_rank_deficient_n3", "14_two_frequencies"])
def test_admissibility_and_normalization_share_one_svd(monkeypatch, capsys, command, stem):
    counts = count_calls(monkeypatch, wco, ["svd"])
    assert cli.main([command, str(corpus_path(stem))]) == 0
    assert counts["svd"] == 1


def test_certified_classify_runs_no_sup_search(monkeypatch, capsys):
    counts = count_calls(monkeypatch, wco, ["ell_sup"])
    assert cli.main(["classify", str(corpus_path("02_contraction"))]) == 0
    assert counts["ell_sup"] == 0
