"""Batch front-end: metric queries, chain reports, minimisation and analysis
pipelines with JSON summaries and CSV plot data.

Exit codes: 0 success, 2 input/parse failure, 3 chain invariant violation,
4 numerical failure.  Outputs are deterministic for a fixed config and seed:
JSON prints each float as the shortest repr that round-trips, and CSV at 17
significant digits.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .admissible import (
    angle_separated_frame,
    constants_block,
    nested_chain,
    validate_chain,
)
from .analysis import (
    conformality_defect,
    continuity_certificate,
    harmonic_companion,
    holomorphy_residual,
    hopf_differential,
    monotonicity_report,
)
from .embedding import ProjectionFrame, standard_frame, xi0, xi_full
from .errors import NumericalFailureError, QValuedError
from .field import GridField, MinimizeOptions, minimize
from .qspace import QPoint, optimal_matching, support
from .variations import stationarity_residual

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVARIANT = 3
EXIT_NUMERICAL = 4

#: certificate radii tried when --radii is absent; those below 4h are dropped
DEFAULT_RADII = (0.4, 0.2, 0.1)
#: `variations` reports a field stationary when both residuals are at most
#: this fraction of its energy
RESIDUAL_TOLERANCE = 1e-3


def _numpy_scalar(obj):
    """JSON value of a numpy scalar (the `default` hook of `json.dumps`)."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _dump_json(obj, path: str | None):
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=True, default=_numpy_scalar)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row))
            fh.write("\n")


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_field(args) -> GridField:
    """The grid field of --input, checked against the --grid and --nQ guards."""
    f = GridField.from_dict(_load_json(args.input))
    if args.grid:
        nx, ny, h = args.grid.split(",")
        if (f.nx, f.ny) != (int(nx), int(ny)) or abs(f.spacing - float(h)) > 1e-12:
            raise QValuedError(
                f"input grid ({f.nx},{f.ny},{f.spacing}) does not match --grid {args.grid}"
            )
    if args.nq:
        n, q = (int(t) for t in args.nq.split(","))
        if (f.n, f.q_sheets) != (n, q):
            raise QValuedError(
                f"input field is (n={f.n}, Q={f.q_sheets}), expected --nQ {args.nq}"
            )
    return f


def _frame_for(args, n: int, q: int) -> ProjectionFrame:
    if args.frame:
        return ProjectionFrame.from_dict(_load_json(args.frame))
    return standard_frame(n, q)


def _parse_pair(text: str, kind, option: str) -> tuple:
    """The two comma-separated numbers of an option's value."""
    parts = text.split(",")
    if len(parts) != 2:
        raise QValuedError(f"{option} takes two comma-separated numbers, got {text!r}")
    return kind(parts[0]), kind(parts[1])


def cmd_metric(args) -> int:
    p = QPoint.from_dict(_load_json(args.inputs[0]))
    r = QPoint.from_dict(_load_json(args.inputs[1]))
    perm, dist = optimal_matching(p, r)
    _dump_json({"distance": dist, "matching": perm.tolist()}, args.output)
    return EXIT_OK


def cmd_embed(args) -> int:
    p = QPoint.from_dict(_load_json(args.input))
    frame = _frame_for(args, p.n, p.q)
    emb = xi_full(frame, p) if args.full else xi0(frame, p)
    _dump_json({"blocks": emb.blocks.tolist()}, args.output)
    return EXIT_OK


def cmd_chain(args) -> int:
    p = QPoint.from_dict(_load_json(args.input))
    chain = nested_chain(p, angle_separated_frame(support(p)))
    violations = validate_chain(chain)
    report = chain.to_dict()
    report["invariants"] = {"violations": violations}
    _dump_json(report, args.output)
    if violations:
        print("chain invariant violation", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_minimize(args) -> int:
    f = _load_field(args)
    opts = MinimizeOptions(max_iters=args.max_iters, tol_rel_energy=args.tol_rel_energy)
    result = minimize(f, opts)
    if args.output:
        with open(args.output, "w") as fh:
            # one json.dumps call runs the C encoder; json.dump streams through the Python one
            fh.write(json.dumps(result.field.to_dict(), sort_keys=True))
            fh.write("\n")
    if args.csv:
        rows = [[i, float(e)] for i, e in enumerate(result.energies)]
        _write_csv(args.csv, ["iteration", "energy"], rows)
    summary = {
        "iterations": result.iterations,
        "converged": result.converged,
        "energy_initial": float(result.energies[0]),
        "energy_final": float(result.energies[-1]),
        "constants": constants_block(f.n, f.q_sheets),
    }
    _dump_json(summary, None)
    if not result.converged:
        print(
            f"warning: minimize did not converge in {result.iterations} iterations",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_analyze(args) -> int:
    f = _load_field(args)
    comp = harmonic_companion(hopf_differential(f, standard_frame(f.n, f.q_sheets)))
    interior = comp.hopf.interior
    energy = comp.hopf.energy
    if args.cell_csv:
        rows = [[iy, ix, float(e)] for (iy, ix), e in np.ndenumerate(energy.per_cell)]
        _write_csv(args.cell_csv, ["iy", "ix", "energy"], rows)
    report = {
        "energy": energy.total,
        "phi_sup": float(np.abs(interior).max()),
        "phi_mean": float(np.abs(interior).mean()),
        "holomorphy_residual": holomorphy_residual(comp.hopf),
        "companion_path_residual": comp.path_residual,
        "energy_identity_max_error": float(comp.energy_identity_error().max()),
        "conformality_defect": conformality_defect(f, comp),
        "constants": constants_block(f.n, f.q_sheets),
    }
    _dump_json(report, args.output)
    return EXIT_OK


def cmd_monotonicity(args) -> int:
    f = _load_field(args)
    frame = _frame_for(args, f.n, f.q_sheets)
    ix, iy = _parse_pair(args.wstar, int, "--wstar")
    w_star = f.interior_node((iy, ix))
    base = QPoint(f.values[w_star[0], w_star[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    comp = harmonic_companion(hopf_differential(f, frame))
    ladder = None
    if args.ladder:
        lo, hi, num = args.ladder.split(":")
        ladder = np.linspace(float(lo), float(hi), int(num))
    report = monotonicity_report(f, comp, frame, w_star, chain, ladder=ladder)
    _dump_json(report.to_dict(), args.output)
    if args.csv:
        rows = []
        for k, level_rows in sorted(report.levels.items()):
            for row in level_rows:
                rows.append([k, row.rho, row.psi, row.ratio])
        _write_csv(args.csv, ["k", "rho", "psi", "psi_over_rho_sq"], rows)
    return EXIT_OK


def cmd_variations(args) -> int:
    f = _load_field(args)
    frame = _frame_for(args, f.n, f.q_sheets)
    res = stationarity_residual(f, frame, trials=args.trials, seed=args.seed)
    out = res.to_dict()
    out["constants"] = constants_block(f.n, f.q_sheets)
    out["threshold"] = RESIDUAL_TOLERANCE * res.energy
    out["stationary"] = bool(
        res.domain_max <= RESIDUAL_TOLERANCE * res.energy
        and res.range_max <= RESIDUAL_TOLERANCE * res.energy
    )
    _dump_json(out, args.output)
    return EXIT_OK


def cmd_certificate(args) -> int:
    f = _load_field(args)
    frame = _frame_for(args, f.n, f.q_sheets)
    w = _parse_pair(args.w, float, "--w")
    if args.radii is None:
        radii = [r for r in DEFAULT_RADII if r >= 4 * f.spacing]
        if not radii:
            raise QValuedError(f"grid spacing {f.spacing} is too coarse for the default radii")
    else:
        radii = [float(t) for t in args.radii.split(",")]
    comp = harmonic_companion(hopf_differential(f, frame))
    certs = [continuity_certificate(f, frame, w, r, comp=comp) for r in radii]
    out = {
        "w": list(w),
        "certificates": [c.to_dict() for c in certs],
        "constants": constants_block(f.n, f.q_sheets),
    }
    _dump_json(out, args.output)
    if args.csv:
        _write_csv(
            args.csv,
            ["R", "alpha1", "alpha2", "beta", "modulus"],
            [[c.radius, c.alpha1, c.alpha2, c.beta, c.modulus] for c in certs],
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qvalued",
        description="Q-tuple field computations: metric, embeddings, chains, "
        "minimisation and conformality diagnostics",
    )
    ap.add_argument("--version", action="version", version=f"qvalued {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("metric", help="assignment distance between two tuples")
    p.add_argument("inputs", nargs=2, metavar="QPOINT_JSON")
    p.add_argument("--output")
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("embed", help="sorted-projection embedding of a tuple")
    p.add_argument("--input", required=True)
    p.add_argument("--frame")
    p.add_argument("--full", action="store_true", help="use every frame direction")
    p.add_argument("--output")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("chain", help="nested admissible chain of a tuple")
    p.add_argument("--input", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_chain)

    # the options every grid command shares
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--input", required=True)
    grid.add_argument("--output")
    grid.add_argument("--grid", help="assert the input grid is NX,NY,H")
    grid.add_argument("--nQ", dest="nq", help="assert the input field is N,Q")
    # and the commands whose output reads the frame embedding
    framed = argparse.ArgumentParser(add_help=False, parents=[grid])
    framed.add_argument("--frame")

    p = sub.add_parser("minimize", parents=[grid], help="relax a grid field toward minimality")
    p.add_argument("--csv", help="energy-vs-iteration table")
    p.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    p.add_argument("--tol-rel-energy", type=float, default=1e-12, dest="tol_rel_energy")
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("analyze", parents=[grid], help="Hopf and companion diagnostics of a field")
    p.add_argument("--cell-csv", dest="cell_csv", help="per-cell energy table")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("monotonicity", parents=[framed], help="cutoff energy ratio ladders")
    p.add_argument("--wstar", required=True, metavar="IX,IY")
    p.add_argument("--ladder", help="fractions as LO:HI:COUNT")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_monotonicity)

    p = sub.add_parser("variations", parents=[framed], help="stationarity residual battery")
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_variations)

    p = sub.add_parser("certificate", parents=[framed], help="continuity modulus at a point")
    p.add_argument("--w", required=True, metavar="X,Y")
    p.add_argument("--radii", help="comma-separated disc radii, each at least 4h "
                   "(default: those of 0.4,0.2,0.1 that are)")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_certificate)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except QValuedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
