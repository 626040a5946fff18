"""Import structure of the fockop package.

No module imports an underscore name from another fockop module, no function
body imports a fockop module (a lazy import is how a cycle hides), and the
imports between fockop modules form no cycle; no module of the package
imports scipy, so importing fockop and running any command loads numpy alone,
and nothing in the repository imports ``scipy.optimize``; the package exports
names, not modules;
only ``quad`` builds meshgrids or runs the sup search; only ``quad`` evaluates
slice norms, which ``wco`` calls in one batch, and only the two stack grid
points; and every quadrature setting is one problem-file key and one report
field.
"""
import ast
import dataclasses
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

from fockop import cli
from fockop.quad import QuadSpec
from helpers import corpus_path

SRC = Path(__file__).resolve().parent.parent / "src" / "fockop"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _target(node) -> str | None:
    """The fockop module an import names ("__init__" for the package), else None."""
    if isinstance(node, ast.ImportFrom):
        if node.level:
            return node.module or "__init__"
        names = [node.module or ""]
    else:
        names = [alias.name for alias in node.names]
    for name in names:
        if name == "fockop":
            return "__init__"
        if name.startswith("fockop."):
            return name.split(".")[1]
    return None


def _fockop_imports(path: Path) -> list[tuple[ast.AST, str, bool]]:
    """(import node, imported module, whether inside a function) for ``path``."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                target = _target(child)
                if target is not None:
                    found.append((child, target, in_function))
            visit(child, in_function or isinstance(child, FUNCTIONS))

    visit(ast.parse(path.read_text(), filename=str(path)), False)
    return found


MODULES = {path.stem: _fockop_imports(path) for path in sorted(SRC.glob("*.py"))}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


_SCIPY_LOADED = "sorted(m for m in sys.modules if m.startswith('scipy'))"


@pytest.mark.parametrize("module", ["fockop.carleson", "fockop.wco", "fockop", "fockop.cli"])
def test_module_imports_in_fresh_interpreter(module):
    r = subprocess.run([sys.executable, "-c", f"import sys, {module}; print({_SCIPY_LOADED})"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


def test_no_private_names_cross_modules():
    bad = [
        f"{mod}.py:{node.lineno} imports {alias.name}"
        for mod, imports in MODULES.items()
        for node, _, _ in imports
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if _is_private(alias.name)
    ]
    assert not bad, bad


def test_no_fockop_imports_inside_functions():
    bad = [
        f"{mod}.py:{node.lineno} imports {target} inside a function"
        for mod, imports in MODULES.items()
        for node, target, in_function in imports
        if in_function
    ]
    assert not bad, bad


def test_no_scipy_imports_in_src():
    """scipy is a test dependency only: no module of the package imports it, not even inside a function."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            bad += [f"{path.name}:{node.lineno} imports {name}" for name in names if name.split(".")[0] == "scipy"]
    assert not bad, bad


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "06_kernel_weight"],
        ["bounds", "06_kernel_weight"],
        ["essnorm", "06_kernel_weight"],
        ["oracle", "04_unit_shift"],
        ["verify", "01_identity", "--suite", "lemmas", "--lemma-count", "4"],
    ],
    ids=["classify", "bounds", "essnorm", "oracle", "verify-lemmas"],
)
def test_closed_form_commands_run_cold_without_scipy(argv):
    """The closed-form norms, Gamma * 1F1, and the kernel tails' incomplete gamma load no scipy."""
    code = (
        "import sys; from fockop import cli; rc = cli.main(sys.argv[1:]); "
        f"sys.stderr.write(repr({_SCIPY_LOADED})); sys.exit(rc)"
    )
    command, stem, *rest = argv
    r = subprocess.run([sys.executable, "-c", code, command, str(corpus_path(stem)), *rest], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("{")
    assert r.stderr == "[]"


@pytest.mark.parametrize("command", ["classify", "bounds", "essnorm"])
def test_numeric_sup_runs_cold_without_scipy(command):
    """Corpus 14's several frequencies take the grid search (17^2 nodes on its one active coordinate) and then
    its refinement levels (3 x 3 nodes each), once per command, which need no scipy."""
    code = (
        "import sys; from fockop import cli, wco; sup, levels = wco.tensor_sup, []; "
        "wco.tensor_sup = lambda blocks, *args: sup(lambda axes: levels.append(len(axes[0])) or blocks(axes), *args); "
        f"rc = cli.main(sys.argv[1:]); sys.stderr.write(repr((levels, {_SCIPY_LOADED}))); sys.exit(rc)"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, command, str(corpus_path("14_two_frequencies"))], capture_output=True, text=True
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("{")
    levels, loaded = ast.literal_eval(r.stderr)
    assert loaded == []
    assert levels[0] == 17**2 and len(levels) <= 25 and set(levels[1:]) == {9}


def test_no_module_imports_scipy_optimize():
    """No module of the package, the tests or the benchmark loads scipy.optimize."""
    bad = []
    root = SRC.parent.parent
    for path in sorted([*SRC.glob("*.py"), *(root / "tests").glob("*.py"), *(root / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            bad += [f"{path.name}:{node.lineno} imports {name}" for name in names if name.startswith("scipy.optimize")]
    assert not bad, bad


def test_imports_between_modules_form_no_cycle():
    edges = {mod: sorted({target for _, target, _ in imports}) for mod, imports in MODULES.items()}
    done: set[str] = set()

    def cycle_from(mod, path):
        if mod in path:
            return path[path.index(mod):] + [mod]
        if mod in done:
            return None
        for nxt in edges.get(mod, []):
            found = cycle_from(nxt, path + [mod])
            if found:
                return found
        done.add(mod)
        return None

    for mod in edges:
        cycle = cycle_from(mod, [])
        assert cycle is None, " -> ".join(cycle)


def test_traced_names_resolve_on_the_package():
    """Every (module, function) the benchmark's tracer wraps exists in fockop."""
    tracing = SRC.parent.parent / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(), filename=str(tracing))
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    names = [(elt.elts[0].value, elt.elts[1].value) for elt in targets.elts]
    assert names
    missing = [
        f"{module}.{function}"
        for module, function in names
        if not callable(getattr(importlib.import_module(f"fockop.{module}"), function, None))
    ]
    assert not missing, missing


def test_package_exports_no_modules():
    fockop = importlib.import_module("fockop")
    assert "fock_norm" in fockop.__all__ and "analyze" in fockop.__all__
    modules = [name for name in fockop.__all__ if isinstance(getattr(fockop, name), types.ModuleType)]
    assert not modules, modules


def test_grid_order_and_sup_search_live_in_quad():
    """Only quad builds meshgrids and runs the sup search, so point order and its refinement have one home;
    no module calls a local optimizer."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "quad.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            refused = ("meshgrid", "minimize")
            bad += [f"{path.name}:{node.lineno} uses {name}" for name in names if name in refused]
    assert not bad, bad


#: the modules that may name each slice-norm evaluator, the grid-point stacker, the weighted tensor-sum
#: kernel and its parts; an empty set marks a name that no longer exists
_EVALUATOR_HOMES = {
    "slice_norm": {"quad.py", "__init__.py"},
    "slice_norm_many": {"quad.py", "wco.py"},
    "grid_points": {"quad.py", "wco.py"},
    "tensor_log_sums": {"quad.py", "wco.py"},
    "_node_bounds": {"quad.py"},
    "_kept_nodes": {"quad.py"},
    "_factor_tables": {"quad.py"},
    "_gh_sum": set(),
    "_integrand_blocks": set(),
    "_separable_log_integral": set(),
    "_nelder_mead": set(),
    "_ell_point": set(),
}


def test_ell_and_slice_norms_are_evaluated_only_in_wco():
    """Slice norms are evaluated in quad, and for ell only by wco's one batched call; quad.slice_norm,
    the single-point reference, is named only by quad and the package export, so no per-point loop returns.
    Every weighted tensor sum, the Gauss-Hermite norms' and the ell integral's, is one quad kernel with its
    node pruning and factor tables, called by quad and wco alone; the former second copies stay gone."""
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            bad += [
                f"{path.name}:{node.lineno} uses {name}"
                for name in names
                if name in _EVALUATOR_HOMES and path.name not in _EVALUATOR_HOMES[name]
            ]
    assert not bad, bad


def test_every_quadrature_setting_is_a_file_key_and_a_report_field():
    """QuadSpec's fields, the problem file's quad keys and the report's quad block name the same settings."""
    fields = {f.name for f in dataclasses.fields(QuadSpec)}
    report = cli.cmd_classify(cli.load_problem(corpus_path("14_two_frequencies")))
    assert fields == set(cli._QUAD_OVERRIDE_KEYS) == set(report["quad"])


def test_the_weighted_tensor_sum_kernel_is_defined_once_in_quad():
    defined = {
        path.name: {node.name for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.FunctionDef)}
        for path in sorted(SRC.glob("*.py"))
    }
    homes = {name: sorted(mod for mod, names in defined.items() if name in names) for name in _EVALUATOR_HOMES}
    assert homes["tensor_log_sums"] == ["quad.py"]
    assert all(homes[name] == [] for name, allowed in _EVALUATOR_HOMES.items() if not allowed)
