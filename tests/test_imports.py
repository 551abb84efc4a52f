"""Import-graph gate: scipy loads only on the paths that use it.

Each check runs in a fresh interpreter and reads `sys.modules` afterwards, so
it depends on module names only, never on time.  Importing `qvalued.cli`
loads no scipy module, and neither do the analysis commands, `chain` and
`minimize` on a rim-only mask.  Only `minimize`'s SuperLU fallback loads
`scipy.sparse.linalg`, and `frame_with_extra_directions` loads no scipy
module at all.  The CLI also imports no private name of another qvalued
module, and `variations` takes from `analysis` only the pivot and the
helpers it shares, which two checks read from their sources.  The last ones
read every module's source for the functions that draw random numbers,
that sort, and that call `embedded_energy`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qvalued
from qvalued import QPoint, hopf_differential, standard_frame

from helpers import root_grid_field, sqrt_grid_field, two_sheet_field

LAZY = ("scipy.stats", "scipy.optimize", "scipy.ndimage")
#: runs the qvalued CLI on the probe's argv and fails on a non-zero exit code
RUN_CLI = "import sys\nfrom qvalued.cli import main\nif main(sys.argv[1:]) != 0:\n    sys.exit(1)"


def scipy_modules_loaded(code: str, *argv: str) -> set[str]:
    """Run `code` with `argv` in a fresh interpreter; return the scipy modules it loaded."""
    src = str(Path(qvalued.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(run.stdout.splitlines()[-1]))


def lazy_modules_loaded(code: str, *argv: str) -> set[str]:
    """The LAZY modules that `code` loaded (see `scipy_modules_loaded`)."""
    return scipy_modules_loaded(code, *argv) & set(LAZY)


def test_cli_import_loads_no_scipy():
    assert scipy_modules_loaded("import qvalued.cli") == set()


@pytest.mark.parametrize(
    "field, censored",
    [(two_sheet_field(33, seed=0), False), (sqrt_grid_field(33), True)],
    ids=["two_sheet", "sqrt"],
)
def test_analysis_commands_load_no_scipy(tmp_path, field, censored):
    # the square-root field is degenerate at its branch point, so the
    # companion censors and refits there; the separated sheets never are
    assert hopf_differential(field, standard_frame(2, 2)).degenerate.any() == censored
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field.to_dict()))
    out = str(tmp_path / "out.json")
    commands = [
        ["analyze"],
        ["monotonicity", "--wstar", "24,16"],
        ["variations", "--trials", "2"],
        ["certificate", "--w", "0.1,0.05", "--radii", "0.5,0.25"],
    ]
    run_each = (
        "import sys\nfrom qvalued.cli import main\n"
        f"for argv in {[c + ['--input', str(path), '--output', out] for c in commands]!r}:\n"
        "    if main(argv) != 0:\n        sys.exit(1)"
    )
    assert scipy_modules_loaded(run_each) == set()


def test_minimize_command_loads_sparse_linalg(tmp_path):
    # an interior island sends the solve to the SuperLU fallback
    f = two_sheet_field(17, seed=0)
    f.boundary_mask[7:9, 5:10] = True
    path = tmp_path / "field.json"
    path.write_text(json.dumps(f.to_dict()))
    out = str(tmp_path / "out.json")
    loaded = scipy_modules_loaded(RUN_CLI, "minimize", "--input", str(path), "--output", out)
    assert "scipy.sparse.linalg" in loaded


@pytest.mark.parametrize("field", [two_sheet_field(17, seed=0), sqrt_grid_field(33)],
                         ids=["two_sheet", "sqrt"])
def test_rim_mask_minimize_command_loads_no_scipy(tmp_path, field):
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field.to_dict()))
    out = str(tmp_path / "out.json")
    assert scipy_modules_loaded(RUN_CLI, "minimize", "--input", str(path), "--output", out) == set()


def test_extra_directions_load_no_scipy():
    # the extra directions are normalised Gaussian rows from numpy's generator
    code = "from qvalued import frame_with_extra_directions\nframe_with_extra_directions(3, 4, 9)"
    assert scipy_modules_loaded(code) == set()


def test_chain_command_loads_no_optimize(tmp_path):
    # validate_chain measures level distances with metric_g
    path = tmp_path / "p.json"
    points = np.random.default_rng(1).normal(size=(3, 2))
    path.write_text(json.dumps(QPoint(points).to_dict()))
    loaded = lazy_modules_loaded(RUN_CLI, "chain", "--input", str(path))
    assert loaded == set()


def test_assignment_beyond_enumeration_loads_no_optimize(tmp_path):
    # Q = 7 edge matchings and a Q = 8 one-base batch run the batched solver,
    # not scipy's
    path = tmp_path / "field.json"
    path.write_text(json.dumps(root_grid_field(9, 7, 0.05 - 0.03j).to_dict()))
    run = (
        "import json, sys\n"
        "from pathlib import Path\n"
        "import numpy as np\n"
        "from qvalued import GridField, MinimizeOptions, metric_g_many, minimize\n"
        "f = GridField.from_dict(json.loads(Path(sys.argv[1]).read_text()))\n"
        "minimize(f, MinimizeOptions(max_iters=3))\n"
        "metric_g_many(np.zeros((8, 2)), np.random.default_rng(0).normal(size=(50, 8, 2)))"
    )
    assert lazy_modules_loaded(run, str(path)) == set()


def test_metric_command_loads_no_optimize(tmp_path):
    # `qvalued metric` reports a matching, which `assign` finds without scipy
    rng = np.random.default_rng(0)
    paths = []
    for name in ("p.json", "r.json"):
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(QPoint(rng.normal(size=(7, 2))).to_dict()))
    out = tmp_path / "out.json"
    loaded = lazy_modules_loaded(RUN_CLI, "metric", *map(str, paths), "--output", str(out))
    assert loaded == set()
    assert len(json.loads(out.read_text())["matching"]) == 7


def test_cli_imports_only_public_names():
    # the reports reach the package through its public API, never through
    # another module's internals (dunder names such as __version__ are public)
    tree = ast.parse(Path(qvalued.__file__).with_name("cli.py").read_text())
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("qvalued"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


def test_variations_takes_only_the_pivot_and_shared_helpers_from_analysis():
    # the cutoff rules of a base node are methods of analysis' pivot record,
    # so variations reads them through `_pivot` and copies none of them
    tree = ast.parse(Path(qvalued.__file__).with_name("variations.py").read_text())
    taken, whole = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("analysis", "qvalued.analysis"):
                taken |= {alias.name for alias in node.names}
            elif node.module in (None, "qvalued"):
                whole += [alias.name for alias in node.names if alias.name == "analysis"]
        elif isinstance(node, ast.Import):
            whole += [alias.name for alias in node.names if alias.name == "qvalued.analysis"]
    assert whole == []
    assert taken == {"HarmonicCompanion", "_check_companion", "_companion_of", "_d_star_at",
                     "_pivot", "_smoothstep"}


#: the functions of the package that draw random numbers, each from its own
#: seed; a property the code can settle exactly is never sampled instead
RANDOM_DRAWERS = {"stationarity_residual", "build_admissible_variation", "rotated_frame",
                  "frame_with_extra_directions"}
RANDOM_NAMES = {"default_rng", "qmc", "random"}


def _random_drawers(node: ast.AST, owner: str = "<module>") -> set[str]:
    """The innermost functions under `node` that name a random source:
    `default_rng`, `numpy.random`, `scipy.stats.qmc` or the `random` module."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    names = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, (ast.Import, ast.ImportFrom)):
        names |= {part for alias in node.names for part in alias.name.split(".")}
        names |= set((getattr(node, "module", None) or "").split("."))
    found = {owner} if names & RANDOM_NAMES else set()
    for child in ast.iter_child_nodes(node):
        found |= _random_drawers(child, owner)
    return found


def test_only_the_listed_functions_draw_random_numbers():
    found = set()
    for path in Path(qvalued.__file__).parent.glob("*.py"):
        found |= _random_drawers(ast.parse(path.read_text()))
    assert found == RANDOM_DRAWERS
    # the walk sees a draw nested in a method and one at module level
    probe = ast.parse("class A:\n    def f(self):\n        return np.random.default_rng(0)\n"
                      "from scipy.stats import qmc\n")
    assert _random_drawers(probe) == {"f", "<module>"}


#: the functions of the package that sort: every embedding sorts its
#: projections in one kernel, so equal projections order alike on every path
SORTERS = {"embedding._sorted_projections"}


def _callers(node: ast.AST, name: str, owner: str = "<module>") -> set[str]:
    """The innermost functions under `node` that call `name`, bare or as an
    attribute: for "sort", `np.sort`, a `.sort` method or a bare `sort`."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    found = set()
    if isinstance(node, ast.Call):
        fn = node.func
        if (fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)) == name:
            found.add(owner)
    for child in ast.iter_child_nodes(node):
        found |= _callers(child, name, owner)
    return found


def _package_callers(name: str) -> set[str]:
    """`_callers` of `name` in every module of the package, as module.function."""
    return {f"{path.stem}.{fn}" for path in Path(qvalued.__file__).parent.glob("*.py")
            for fn in _callers(ast.parse(path.read_text()), name)}


def test_only_the_listed_functions_sort():
    assert _package_callers("sort") == SORTERS
    # the walk sees np.sort, a method sort and a bare sort, and not argsort
    probe = ast.parse("def f(a):\n    return np.sort(a)\ndef g(a):\n    a.sort()\n"
                      "def h(a):\n    return sort(a)\ndef k(a):\n    return a.argsort()\n")
    assert _callers(probe, "sort") == {"f", "g", "h"}


#: the functions of the package that call `embedded_energy`, the energy of a
#: frame embedding: the frame's own energy and the domain finite difference.
#: Every diagnostic and the range finite difference read the field's matched
#: energy instead
EMBEDDED_ENERGY_CALLERS = {"field.dirichlet_energy", "variations._domain_derivative"}


def test_only_the_listed_functions_call_embedded_energy():
    assert _package_callers("embedded_energy") == EMBEDDED_ENERGY_CALLERS
