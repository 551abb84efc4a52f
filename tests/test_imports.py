"""Import-graph gate: heavy scipy subpackages load only on the paths that use them.

Each check runs in a fresh interpreter and reads `sys.modules` afterwards, so
it depends on module names only, never on time.  A new module-level import
of one of these subpackages anywhere under `qvalued.cli` fails the first test.
"""

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


def lazy_modules_loaded(code: str, *argv: str) -> set[str]:
    """Run `code` with `argv` in a fresh interpreter; return the LAZY modules it loaded."""
    src = str(Path(qvalued.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {list(LAZY)!r} if m in sys.modules]))"
    run = subprocess.run(
        [sys.executable, "-c", probe, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(run.stdout.splitlines()[-1]))


def test_cli_import_loads_no_lazy_scipy_subpackage():
    assert lazy_modules_loaded("import qvalued.cli") == set()


@pytest.mark.parametrize(
    "field, censored",
    [(two_sheet_field(17, seed=0), False), (sqrt_grid_field(17), True)],
    ids=["two_sheet", "sqrt"],
)
def test_analyze_loads_ndimage_only_to_censor(tmp_path, field, censored):
    # the square-root field is degenerate at its branch point, so the
    # companion censors and refits there; the separated sheets never are
    assert hopf_differential(field, standard_frame(2, 2)).degenerate.any() == censored
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field.to_dict()))
    loaded = lazy_modules_loaded(RUN_CLI, "analyze", "--input", str(path))
    assert loaded == ({"scipy.ndimage"} if censored else set())


def test_assignment_beyond_enumeration_loads_no_optimize(tmp_path):
    # Q = 7 edge matchings and a Q = 8 one-base batch run the batched solver,
    # not scipy's; only metric_g loads scipy.optimize
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
