import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qvalued import (
    GridField,
    MinimizeOptions,
    NumericalFailureError,
    QPoint,
    constants_block,
    continuity_certificate,
    dirichlet_energy_matched,
    harmonic_companion,
    hopf_differential,
    minimize,
    standard_frame,
)
import qvalued.cli
from qvalued.cli import _dump_json, _write_csv, main

from helpers import (count_analysis_match_edges, shrunk_chain_level, two_sheet_field,
                     unit_square_grid)
from test_imports import RUN_CLI


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


def test_chain_invariant_violation_exits_3(tmp_path, monkeypatch, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.0], [1.0]])
    with monkeypatch.context() as m:
        m.setattr(qvalued.cli, "validate_chain", lambda chain: ["forced violation"])
        assert main(["chain", "--input", str(a)]) == 3
    captured = capsys.readouterr()
    assert "chain invariant violation" in captured.err
    assert json.loads(captured.out)["invariants"] == {"violations": ["forced violation"]}
    # rho_1 shrunk to 0.99 (sigma_0 + G(q^0, q^1)) = 1.2375 fails the inclusion certificate
    build = qvalued.cli.nested_chain
    monkeypatch.setattr(qvalued.cli, "nested_chain",
                        lambda p, frame: shrunk_chain_level(build(p, frame), 1))
    assert main(["chain", "--input", str(a)]) == 3
    captured = capsys.readouterr()
    assert "chain invariant violation" in captured.err
    out = json.loads(captured.out)
    assert out["levels"][1]["rho"] == 0.99 * 1.25
    assert out["invariants"] == {
        "violations": [f"sigma_0 + G(q^0, q^1) = 1.25 > rho_1 = {0.99 * 1.25}"]
    }


def test_chain_takes_no_samples_or_seed(tmp_path, capsys):
    # the inclusion is certified exactly, so the report has no sampling knobs
    a = qpoint_file(tmp_path, "a.json", [[0.0], [1.0]])
    for option in ("--samples", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["chain", "--input", str(a), option, "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["minimize"], ["analyze"], ["monotonicity", "--wstar", "8,8"]],
                         ids=lambda argv: argv[0])
def test_energy_commands_take_no_frame(tmp_path, capsys, command):
    # their outputs read the field's matched energy, the Hopf density and the
    # assignment metric G, none of which depends on a frame
    path, _ = small_field_file(tmp_path)
    frame = tmp_path / "frame.json"
    write_json(frame, standard_frame(2, 2).to_dict())
    with pytest.raises(SystemExit) as exc:
        main([*command, "--input", str(path), "--frame", str(frame)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_numerical_failure_exits_4(tmp_path, monkeypatch, capsys):
    path, _ = small_field_file(tmp_path)

    def fail(f, comp):
        raise NumericalFailureError("forced failure")

    monkeypatch.setattr(qvalued.cli, "conformality_defect", fail)
    assert main(["analyze", "--input", str(path)]) == 4
    assert "numerical failure: forced failure" in capsys.readouterr().err


def test_dump_json_numpy_scalars_print_as_python_values(tmp_path):
    report = {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(3),
              "rows": [np.float64(1.0) / 3, np.float64("inf")]}
    plain = {"f64": 0.1, "f32": float(np.float32(0.1)), "i64": 3,
             "rows": [1.0 / 3, float("inf")]}
    _dump_json(report, str(tmp_path / "numpy.json"))
    _dump_json(plain, str(tmp_path / "plain.json"))
    assert (tmp_path / "numpy.json").read_text() == (tmp_path / "plain.json").read_text()


def test_chain_single_site(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    assert main(["chain", "--input", str(a)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["levels"]) == 1
    assert out["levels"][0]["rho"] == 0.0
    assert out["invariants"]["violations"] == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chain_exits_with_a_documented_code(tmp_path, capsys, n):
    # C0 overflows a double at n = 2 for Q >= 11 and at n = 3 for Q >= 9:
    # those tuples are refused as input (exit 2), never a traceback
    rng = np.random.default_rng(n)
    codes = []
    for q in range(1, 13):
        a = qpoint_file(tmp_path, f"q{q}.json", rng.normal(size=(q, n)))
        codes.append(main(["chain", "--input", str(a)]))
    assert set(codes) <= {0, 2, 3, 4}
    first_overflow = {1: 13, 2: 11, 3: 9}[n]
    assert codes == [0] * (first_overflow - 1) + [2] * (13 - first_overflow)


@pytest.fixture(scope="module")
def bad_argument_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    write_json(d / "field.json", two_sheet_field(33, seed=0).to_dict())
    return d


@pytest.mark.parametrize(
    "argv",
    [
        ["monotonicity", "--wstar", "1000,1000"],
        ["monotonicity", "--wstar=-40,5"],
        ["monotonicity", "--wstar", "0,16"],
        ["monotonicity", "--wstar", "16"],
        ["monotonicity", "--wstar", "16,16", "--ladder", "0.1:0.9:0"],
        ["certificate", "--w", "0"],
        ["certificate", "--w", "0,0,0"],
        ["certificate", "--w", "nan,0"],
        ["certificate", "--w", "0,0", "--radii", "nan"],
        ["variations", "--trials", "0"],
        ["variations", "--trials", "-3"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_node_point_or_sample_count_exits_2(bad_argument_inputs, capsys, argv):
    # a node off the interior, a point that is not two numbers, and a verdict
    # that would rest on no trial, sample or rung are refused as input
    assert main(argv + ["--input", str(bad_argument_inputs / "field.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(("error: ", "input error: "))


@pytest.mark.parametrize("option", [["--tol-rel-energy", "nan"], ["--max-iters", "-1"]], ids=str)
def test_bad_minimize_options_exit_2(bad_argument_inputs, tmp_path, capsys, option):
    out = tmp_path / "out.json"
    argv = ["minimize", "--input", str(bad_argument_inputs / "field.json"), "--output", str(out)]
    assert main(argv + option) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


@pytest.fixture(scope="module")
def non_finite_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("non_finite")
    field = two_sheet_field(33, seed=0).to_dict()
    write_json(d / "field.json", field)
    for name, key, value in (("h_nan", "h", math.nan), ("h_inf", "h", math.inf),
                             ("x0_nan", "x0", math.nan)):
        write_json(d / f"{name}.json", dict(field, **{key: value}))
    frame = standard_frame(2, 2).to_dict()
    frame["directions"][1][0] = math.nan
    write_json(d / "frame.json", frame)
    return d


@pytest.mark.parametrize("argv, grid, frame", [
    *((cmd, grid, None) for cmd in (["minimize"], ["analyze"], ["monotonicity", "--wstar", "16,16"],
                                    ["variations", "--trials", "2"], ["certificate", "--w", "0,0"])
      for grid in ("h_nan", "h_inf", "x0_nan")),
    *((cmd, "field", "frame") for cmd in (["variations", "--trials", "2"], ["certificate", "--w", "0,0"])),
], ids=lambda p: p[0] if isinstance(p, list) else str(p))
def test_non_finite_grid_or_frame_exits_2(non_finite_inputs, tmp_path, capsys, argv, grid, frame):
    # a NaN spacing or origin once ran to exit 0 (minimize) or 4, and a NaN
    # frame direction printed a NaN energy with exit 0; every command that
    # reads a frame refuses a NaN one
    d = non_finite_inputs
    out = tmp_path / "out.json"
    argv = argv + ["--input", str(d / f"{grid}.json"), "--output", str(out)]
    if frame:
        argv += ["--frame", str(d / f"{frame}.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not out.exists()


def test_chain_two_site_hand_value(tmp_path, capsys):
    a = qpoint_file(tmp_path, "a.json", [[0.0], [1.0]])
    assert main(["chain", "--input", str(a)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["levels"][0]["sigma"] == pytest.approx(0.25)
    assert out["levels"][1]["rho"] == pytest.approx(20.25)
    assert out["invariants"] == {"violations": []}


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
    # the one energy of the report is the field's, which minimize lowers
    assert set(summary) == {"iterations", "converged", "energy_initial", "energy_final", "constants"}
    assert summary["energy_final"] == dirichlet_energy_matched(g).total
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


#: each grid command's own arguments, and the flag of the table it writes
GRID_COMMANDS = {
    "analyze": (["--grid", "33,33,0.0625"], "--cell-csv"),
    "monotonicity": (["--wstar", "16,16", "--ladder", "0.4:0.9:4"], "--csv"),
    "variations": (["--trials", "3", "--seed", "2"], None),
    "certificate": (["--w", "0.1,0.05", "--radii", "0.5,0.25"], "--csv"),
}


@pytest.mark.parametrize("cmd", list(GRID_COMMANDS))
def test_grid_command_outputs_are_deterministic(cmd, tmp_path, capsys):
    # the second run in this process sees warm caches and the companion the
    # first left behind, a fresh interpreter neither; all three write the
    # same bytes
    inp, _ = small_field_file(tmp_path, nn=33)
    extra, table = GRID_COMMANDS[cmd]

    def argv(tag):
        out = [cmd, "--input", str(inp), "--output", str(tmp_path / f"{tag}.json"), *extra]
        return out + ([table, str(tmp_path / f"{tag}.csv")] if table else [])

    for tag in ("warm_a", "warm_b"):
        assert main(argv(tag)) == 0
    env = dict(os.environ)
    src = str(Path(qvalued.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", RUN_CLI, *argv("fresh")], env=env,
                   capture_output=True, timeout=120, check=True)
    for suffix in (".json", ".csv") if table else (".json",):
        warm_a, warm_b, fresh = (
            (tmp_path / f"{tag}{suffix}").read_bytes() for tag in ("warm_a", "warm_b", "fresh")
        )
        assert warm_a == warm_b == fresh and len(warm_a) > 0


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


@pytest.mark.parametrize("cmd", [["analyze"], ["monotonicity", "--wstar", "16,16"]])
def test_command_builds_one_matched_stencil(cmd, tmp_path, monkeypatch, capsys):
    # the companion carries the field's Hopf field and |grad f|^2, so neither
    # the conformality defect nor the ladder builds a second stencil
    path, _ = small_field_file(tmp_path, nn=33)
    calls = count_analysis_match_edges(monkeypatch)
    assert main([cmd[0], "--input", str(path)] + cmd[1:]) == 0
    assert calls == [(33, 33, 2, 2)]
    out = json.loads(capsys.readouterr().out)
    if cmd[0] == "monotonicity":
        assert isinstance(out["vacuous"], bool)


def test_single_sheet_field_in_r3(tmp_path, capsys):
    # theta0 = pi/2 at Q = 1, which the trivial frame achieves
    spec = unit_square_grid(33)
    x, y = np.meshgrid(spec.origin[0] + spec.spacing * np.arange(33),
                       spec.origin[1] + spec.spacing * np.arange(33))
    vals = np.stack([x, y, x * y - 0.5 * y**2], axis=-1)[:, :, None, :]
    path = tmp_path / "single.json"
    write_json(path, GridField(vals, spec.spacing, spec.origin).to_dict())
    assert main(["monotonicity", "--input", str(path), "--wstar", "16,16"]) == 0
    assert json.loads(capsys.readouterr().out)["constants"]["theta0"] == math.pi / 2
    assert main(["variations", "--input", str(path), "--trials", "2", "--nQ", "3,1"]) == 0
    assert json.loads(capsys.readouterr().out)["constants"]["theta0"] == math.pi / 2


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
    text = capsys.readouterr().out
    out = json.loads(text)
    assert len(out["certificates"]) == 2
    assert out["certificates"][0]["modulus"] > 0
    # the shared companion changes nothing: the outputs match per-radius
    # certificates that each build their own
    fr = standard_frame(2, 2)
    certs = [
        continuity_certificate(f, fr, (0.0, 0.0), r, harmonic_companion(hopf_differential(f, fr)))
        for r in (0.4, 0.2)
    ]
    want_json = tmp_path / "want.json"
    want_csv = tmp_path / "want.csv"
    _dump_json(
        {"w": [0.0, 0.0], "certificates": [c.to_dict() for c in certs],
         "constants": constants_block(2, 2)},
        str(want_json),
    )
    _write_csv(str(want_csv), ["R", "alpha1", "alpha2", "beta", "modulus"],
               [[c.radius, c.alpha1, c.alpha2, c.beta, c.modulus] for c in certs])
    assert text == want_json.read_text()
    assert csv.read_bytes() == want_csv.read_bytes()


def test_certificate_default_radii(tmp_path, capsys):
    # h = 1/32 on a 65^2 grid: 0.1 < 4h is dropped from the default radii
    f = two_sheet_field(65, seed=2)
    path = tmp_path / "f.json"
    write_json(path, f.to_dict())
    assert main(["certificate", "--input", str(path), "--w", "0.0,0.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [c["R"] for c in out["certificates"]] == [0.4, 0.2]
    # an explicit radius below 4h is still refused, and so is a grid too
    # coarse for any default radius (h = 1/4 on 9^2)
    assert main(["certificate", "--input", str(path), "--w", "0.0,0.0", "--radii", "0.1"]) == 2
    coarse = tmp_path / "coarse.json"
    write_json(coarse, two_sheet_field(9, seed=2).to_dict())
    assert main(["certificate", "--input", str(coarse), "--w", "0.0,0.0"]) == 2


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
