import json
import math

import numpy as np
import pytest

from qvalued import GridField, QPoint, minimize, MinimizeOptions
from qvalued.cli import main

from helpers import two_sheet_field, unit_square_grid


def write_json(path, obj):
    path.write_text(json.dumps(obj))


def qpoint_file(tmp_path, name, pts):
    p = QPoint(np.asarray(pts, dtype=float))
    path = tmp_path / name
    write_json(path, p.to_dict())
    return path


def small_field_file(tmp_path, name="field.json", nn=17, seed=0):
    f = two_sheet_field(nn, seed=seed)
    path = tmp_path / name
    write_json(path, f.to_dict())
    return path, f


def test_metric_identical_inputs(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.0, 1.0], [2.0, 3.0]])
    assert main(["metric", str(a), str(a)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["distance"] == 0.0


def test_metric_sqrt2_example(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.0, 0.0], [0.0, 0.0]])
    b = qpoint_file(tmp_path, "b.json", [[1.0, 0.0], [-1.0, 0.0]])
    assert main(["metric", str(a), str(b)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["distance"] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert sorted(out["matching"]) == [0, 1]


def test_metric_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    good = qpoint_file(tmp_path, "a.json", [[0.0]])
    assert main(["metric", str(bad), str(good)]) == 2


def test_metric_missing_file(tmp_path):
    good = qpoint_file(tmp_path, "a.json", [[0.0]])
    assert main(["metric", str(tmp_path / "nope.json"), str(good)]) == 2


def test_embed_outputs_sorted_blocks(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[2.0, 0.0], [-1.0, 0.0]])
    assert main(["embed", "--input", str(a)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"][0] == [-1.0, 2.0]


def test_chain_single_site(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    assert main(["chain", "--input", str(a), "--samples", "50"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["levels"]) == 1
    assert out["levels"][0]["rho"] == 0.0
    assert out["invariants"]["violations"] == []


def test_chain_two_site_hand_value(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.0], [1.0]])
    assert main(["chain", "--input", str(a), "--samples", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["levels"][0]["sigma"] == pytest.approx(0.25)
    assert out["levels"][1]["rho"] == pytest.approx(20.25)
    assert out["invariants"]["inclusion_ok"] is True


def test_minimize_writes_field_and_csv(tmp_path, capsys):
    inp, f = small_field_file(tmp_path)
    out = tmp_path / "min.json"
    csv = tmp_path / "energy.csv"
    code = main(
        [
            "minimize",
            "--input",
            str(inp),
            "--output",
            str(out),
            "--csv",
            str(csv),
            "--max-iters",
            "5",
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["energy_final"] <= summary["energy_initial"]
    g = GridField.from_dict(json.loads(out.read_text()))
    assert g.values.shape == f.values.shape
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy"
    assert len(lines) >= 3


def test_minimize_deterministic_outputs(tmp_path):
    inp, _ = small_field_file(tmp_path)
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"min_{tag}.json"
        main(
            ["minimize", "--input", str(inp), "--output", str(out),
             "--max-iters", "4"]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_minimize_warns_when_not_converged(tmp_path, capsys):
    inp, _ = small_field_file(tmp_path)
    assert main(["minimize", "--input", str(inp), "--max-iters", "1"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is False
    assert captured.err == "warning: minimize did not converge in 1 iterations\n"
    assert main(["minimize", "--input", str(inp)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["converged"] is True
    assert captured.err == ""


def test_analyze_constant_field(tmp_path, capsys):
    nn = 17
    spec = unit_square_grid(nn)
    vals = np.tile(np.array([0.4, -0.2]), (nn, nn, 2, 1))
    f = GridField(vals, spec.spacing, spec.origin)
    path = tmp_path / "const.json"
    write_json(path, f.to_dict())
    assert main(["analyze", "--input", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["phi_sup"] == 0.0
    assert out["energy"] == 0.0
    assert {"theta0", "K", "C0", "delta"} <= set(out["constants"])


def test_monotonicity_cli(tmp_path, capsys):
    f = two_sheet_field(49, seed=0)
    res = minimize(f, MinimizeOptions(max_iters=80))
    path = tmp_path / "min.json"
    write_json(path, res.field.to_dict())
    csv = tmp_path / "ladder.csv"
    code = main(
        ["monotonicity", "--input", str(path), "--wstar", "25,25", "--csv", str(csv),
         "--ladder", "0.5:0.95:6"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert "levels" in out and "k0" in out
    header = csv.read_text().splitlines()[0]
    assert header == "k,rho,psi,psi_over_rho_sq"


def test_variations_cli(tmp_path, capsys):
    inp, _ = small_field_file(tmp_path, nn=17)
    assert main(["variations", "--input", str(inp), "--trials", "2", "--seed", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert {"domain_max", "range_max", "energy", "stationary"} <= set(out)


def test_certificate_cli(tmp_path, capsys):
    f = two_sheet_field(49, seed=1)
    path = tmp_path / "f.json"
    write_json(path, f.to_dict())
    csv = tmp_path / "cert.csv"
    code = main(
        ["certificate", "--input", str(path), "--w", "0.0,0.0",
         "--radii", "0.4,0.2", "--csv", str(csv)]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["certificates"]) == 2
    assert out["certificates"][0]["modulus"] > 0


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_analyze_cell_csv_and_guards(tmp_path, capsys):
    inp, f = small_field_file(tmp_path)
    cells = tmp_path / "cells.csv"
    assert main(["analyze", "--input", str(inp), "--cell-csv", str(cells)]) == 0
    capsys.readouterr()
    lines = cells.read_text().strip().splitlines()
    assert lines[0] == "iy,ix,energy"
    assert len(lines) == 1 + (f.ny - 1) * (f.nx - 1)
    # matching guards pass, mismatching guards exit 2
    assert main(["analyze", "--input", str(inp), "--nQ", "2,2",
                 "--grid", f"{f.nx},{f.ny},{f.spacing}"]) == 0
    capsys.readouterr()
    assert main(["analyze", "--input", str(inp), "--nQ", "3,2"]) == 2
    assert main(["analyze", "--input", str(inp), "--grid", "5,5,0.1"]) == 2
