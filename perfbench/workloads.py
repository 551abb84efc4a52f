"""The four workloads and the per-layer probes of the traced run.

Each workload is one closed-loop client: every call into qvalued starts
after the previous one returned.  A workload builds its inputs from the
seed in `setup`, does untimed one-off work (oracles, cache warming) in
`prepare`, and runs one round of timed calls in `run_round`, which returns
the summed wall time of those calls.  Correctness checks run after each
call, outside the timed part, and use the benchmark's own code.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

import numpy as np

from qvalued import (
    DomainVariation,
    GridField,
    InvalidInputError,
    MinimizeOptions,
    NotInBallError,
    QPoint,
    angle_separated_frame,
    build_admissible_variation,
    continuity_certificate,
    dirichlet_energy,
    dirichlet_energy_matched,
    disc_energy,
    domain_variation_derivative,
    harmonic_companion,
    hopf_differential,
    key_lemma_check,
    metric_g,
    metric_g_many,
    minimize,
    monotone_rho_interval,
    monotonicity_report,
    nested_chain,
    optimal_matching,
    psi_k,
    range_variation_derivative,
    standard_frame,
    stationarity_residual,
    support,
    valid_rho_interval,
    validate_chain,
    xi0,
)

import fields

TOL_REL_ENERGY = 1e-12
ENERGY_RTOL = 1e-9         # own recomputation vs reported energy (summation order only)
SQRT_DISC_RTOL = 0.05      # disc energy vs 2*pi*R: discretisation error at h <= 1/80
STATIONARITY_TRIALS = 8
MICRO_PAIRS = 64           # node pairs per field timed by the qspace/embedding probes
CLI_TIMEOUT_S = 120


class Ops:
    """Attempted and failed operations.  A failure is an exception, a
    non-zero exit code or a failed correctness check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)


def _grid(values: np.ndarray) -> GridField:
    nn = values.shape[1]
    return GridField(values, fields.spacing(nn), (-fields.HALF, -fields.HALF))


def _interior_node(rng: np.random.Generator, nn: int) -> tuple[int, int]:
    """A node in the middle half of the grid, as (iy, ix)."""
    return int(rng.integers(nn // 4, 3 * nn // 4)), int(rng.integers(nn // 4, 3 * nn // 4))


def _rim_distance(f: GridField, node: tuple[int, int]) -> float:
    iy, ix = node
    return min(ix, iy, f.nx - 1 - ix, f.ny - 1 - iy) * f.spacing


def _finite(*xs) -> bool:
    return all(bool(np.all(np.isfinite(np.asarray(x, dtype=complex)))) for x in xs)


def _check_minimize(ops: Ops, name: str, before: GridField, res) -> None:
    """Energy history never increases, the rim is unchanged, and the final
    energy equals the benchmark's own matched-energy recomputation."""
    e = res.energies
    monotone = bool(np.all(np.diff(e) <= TOL_REL_ENERGY * e[0]))
    rim = before.boundary_mask
    rim_ok = bool(np.array_equal(res.field.values[rim], before.values[rim]))
    own = fields.matched_energy(res.field.values)
    agree = abs(own - e[-1]) <= ENERGY_RTOL * max(abs(own), 1e-300)
    ops.record(name, monotone and rim_ok and agree,
               f"monotone={monotone} rim={rim_ok} own={own!r} reported={e[-1]!r}")


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.calls = []          # (kind, value) facts about the run's calls, for the layer metrics

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, ops: Ops) -> None:
        pass

    def run_round(self, tr, ops: Ops) -> float:
        raise NotImplementedError

    def probe_fields(self) -> list[tuple[GridField, tuple[int, int]]]:
        """The workload's fields, each with the base node the probes use."""
        raise NotImplementedError


class MinimizeWorkload(Workload):
    """Shared loop of `relax` and `sheets`: minimise every field once a round."""

    max_iters = 1

    def _inputs(self, rng) -> list[tuple[str, np.ndarray]]:
        raise NotImplementedError

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.named = [(name, _grid(v)) for name, v in self._inputs(rng)]
        self.nodes = [_interior_node(rng, f.nx) for _, f in self.named]
        for q in sorted({f.q_sheets for _, f in self.named}):
            minimize(_grid(fields.root_field(5, q, 0.1 + 0.1j)), MinimizeOptions(max_iters=1))

    def run_round(self, tr, ops: Ops) -> float:
        opts = MinimizeOptions(max_iters=self.max_iters, tol_rel_energy=TOL_REL_ENERGY)
        total = 0.0
        for name, f in self.named:
            res, dt = tr.call("field.minimize", minimize, f, opts)
            total += dt
            self.calls.append(("iterations", res.iterations))
            self.calls.append(("converged", res.converged))
            _check_minimize(ops, f"minimize {name}", f, res)
            self.after_minimize(ops, name, res)
        return total

    def after_minimize(self, ops: Ops, name: str, res) -> None:
        pass

    def probe_fields(self):
        return [(f, node) for (_, f), node in zip(self.named, self.nodes)]


class Relax(MinimizeWorkload):
    """Two Q=2 fields at 97^2: a branched square-root field with a seeded
    branch point, and a separated two-sheet field with an exact oracle."""

    name = "relax"
    max_iters = 5

    def _inputs(self, rng):
        z0 = complex(*rng.uniform(-0.2, 0.2, 2))
        return [("sqrt", fields.root_field(97, 2, z0)), ("two-sheet", fields.two_sheet_field(97, rng))]

    def prepare(self, ops: Ops) -> None:
        # the per-sheet harmonic extension is the exact minimiser of the separated field
        self.e_ref = fields.matched_energy(fields.harmonic_extension(self.named[1][1].values))

    def after_minimize(self, ops: Ops, name: str, res) -> None:
        if name != "two-sheet":
            return
        e_final = float(res.energies[-1])
        self.calls.append(("relax_excess", (e_final - self.e_ref) / self.e_ref))
        ops.record("two-sheet above its exact minimum", e_final >= self.e_ref * (1 - ENERGY_RTOL),
                   f"E_final={e_final!r} E_ref={self.e_ref!r}")


class Sheets(MinimizeWorkload):
    """All Q-th roots of z - z0 for Q = 3, 4, 6 (permutation enumeration)
    and Q = 7 (Hungarian fallback), on small grids with a small cap."""

    name = "sheets"
    max_iters = 2
    SIZES = ((3, 49), (4, 49), (6, 33), (7, 49))

    def _inputs(self, rng):
        z0 = complex(*rng.uniform(-0.2, 0.2, 2))
        return [(f"Q={q} {nn}^2", fields.root_field(nn, q, z0)) for q, nn in self.SIZES]


class Diagnose(Workload):
    """The diagnostics battery on the square-root field at 161^2 and on the
    harmonic extension of a seeded two-sheet field at 129^2."""

    name = "diagnose"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.z0 = complex(*rng.uniform(-0.2, 0.2, 2))
        self.fields = [
            _grid(fields.root_field(161, 2, self.z0)),
            _grid(fields.harmonic_extension(fields.two_sheet_field(129, rng))),
        ]
        self.nodes = [_interior_node(rng, f.nx) for f in self.fields]
        self.frame = standard_frame(2, 2)
        tiny = _grid(fields.root_field(17, 2, self.z0))
        harmonic_companion(hopf_differential(tiny, self.frame))

    def prepare(self, ops: Ops) -> None:
        # the square-root field carries energy 2*pi*R on a disc of radius R about its branch point
        r = 0.5
        e = disc_energy(self.fields[0], self.frame, (self.z0.real, self.z0.imag), r)
        ops.record("sqrt disc energy ~ 2 pi R", abs(e - 2 * math.pi * r) <= SQRT_DISC_RTOL * 2 * math.pi * r,
                   f"E={e!r} 2piR={2 * math.pi * r!r}")

    def run_round(self, tr, ops: Ops) -> float:
        return sum(self.battery(tr, ops, f, node) for f, node in zip(self.fields, self.nodes))

    def battery(self, tr, ops: Ops, f: GridField, node: tuple[int, int]) -> float:
        fr = self.frame
        times = []

        def step(name, fn, *args, **kwargs):
            out, dt = tr.call(name, fn, *args, **kwargs)
            times.append(dt)
            return out

        hopf = step("analysis.hopf_differential", hopf_differential, f, fr)
        ops.record("hopf_differential", _finite(hopf.phi))
        comp = step("analysis.harmonic_companion", harmonic_companion, hopf)
        ops.record("harmonic_companion", _finite(comp.values, comp.path_residual))
        self.calls.append(("patched_frac", float(comp.patched.mean())))
        base = f.node_value(node)
        asf = step("admissible.angle_separated_frame", angle_separated_frame,
                   step("qspace.support", support, base))
        chain = step("admissible.nested_chain", nested_chain, base, asf)
        ops.record("nested_chain", len(chain.levels) >= 1)
        rep = step("analysis.monotonicity_report", monotonicity_report, f, comp, fr, node, chain)
        rows = [row for level in rep.levels.values() for row in level]
        self.calls.append(("psi_k_calls", len(rows)))
        ops.record("monotonicity_report", _finite(rep.tau_star, *[(r.psi, r.ratio) for r in rows]))
        sr = step("variations.stationarity_residual", stationarity_residual,
                  f, fr, trials=STATIONARITY_TRIALS, seed=self.seed)
        self.calls.append(("range_yield", sr.range_trials / STATIONARITY_TRIALS))
        ops.record("stationarity_residual", _finite(sr.domain_max, sr.range_max, sr.energy))
        r0 = _rim_distance(f, node)
        w = tuple(f.node_position(node))
        for frac in (0.6, 0.45, 0.3):
            cert = step("analysis.continuity_certificate", continuity_certificate,
                        f, fr, w, frac * r0, comp=comp)
            ops.record("continuity_certificate", _finite(*cert.to_dict().values()))
        lhs, rhs, holds = step("analysis.key_lemma_check", key_lemma_check, f, comp, node, 0.8 * r0, fr)
        ops.record("key_lemma_check", holds and _finite(lhs, rhs), f"lhs={lhs!r} rhs={rhs!r}")
        return sum(times)

    def probe_fields(self):
        return list(zip(self.fields, self.nodes))


CLI_COMMANDS = ("minimize", "analyze", "monotonicity", "variations", "certificate")


class Pipeline(Workload):
    """The five CLI commands as subprocesses on a seeded 65^2 two-sheet
    field, each command reading the grid the `minimize` command wrote."""

    name = "pipeline"
    NN = 65
    MAX_ITERS = 8

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.values = fields.two_sheet_field(self.NN, rng)
        self.field = _grid(self.values)
        self.node = _interior_node(rng, self.NN)
        fields.write_grid_json(self.values, self.out_dir / "input.json")

    def prepare(self, ops: Ops) -> None:
        self.e_ref = fields.matched_energy(fields.harmonic_extension(self.values))
        # the first interpreter start reads the package from disk; keep that out of the rounds
        self.cli(ops, "--version")

    def cli(self, ops: Ops, *args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, "-m", "qvalued.cli", *args],
            cwd=self.out_dir, env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
        ops.record(f"qvalued {args[0]} exit code", proc.returncode == 0, proc.stderr.strip()[-500:])
        return proc

    def arguments(self) -> dict[str, list[str]]:
        iy, ix = self.node
        r0 = _rim_distance(self.field, self.node)
        w = self.field.node_position(self.node)
        radii = ",".join(repr(frac * r0) for frac in (0.6, 0.45, 0.3))   # >= 4h: r0 >= 1/2
        return {
            "minimize": ["--input", "input.json", "--output", "minimized.json",
                         "--max-iters", str(self.MAX_ITERS), "--tol-rel-energy", repr(TOL_REL_ENERGY)],
            "analyze": ["--input", "minimized.json", "--output", "analyze.json"],
            "monotonicity": ["--input", "minimized.json", "--wstar", f"{ix},{iy}",
                             "--output", "monotonicity.json"],
            "variations": ["--input", "minimized.json", "--trials", str(STATIONARITY_TRIALS),
                           "--seed", str(self.seed), "--output", "variations.json"],
            "certificate": ["--input", "minimized.json", f"--w={float(w[0])!r},{float(w[1])!r}",
                            "--radii", radii, "--output", "certificate.json"],
        }

    def run_round(self, tr, ops: Ops) -> float:
        total = 0.0
        for cmd, args in self.arguments().items():
            proc, dt = tr.call(f"cli.{cmd}", self.cli, ops, cmd, *args)
            total += dt
            if proc.returncode != 0:
                break
            if cmd == "minimize":
                self.check_minimized(ops, json.loads(proc.stdout))
            else:
                out = json.loads((self.out_dir / f"{cmd}.json").read_text())
                ops.record(f"qvalued {cmd} output", isinstance(out, dict) and bool(out))
        return total

    def check_minimized(self, ops: Ops, summary: dict) -> None:
        """The grid round-trips through GridField.from_dict, keeps its rim,
        and its energy matches the summary and sits above the exact minimum."""
        t0 = perf_counter()
        data = json.loads((self.out_dir / "minimized.json").read_text())
        out = GridField.from_dict(data)
        self.calls.append(("json_read_s", perf_counter() - t0))
        self.calls.append(("iterations", summary["iterations"]))
        self.calls.append(("converged", summary["converged"]))
        rim = self.field.boundary_mask
        rim_ok = out.values.shape == self.values.shape and bool(
            np.array_equal(out.values[rim], self.values[rim]))
        own = fields.matched_energy(out.values)
        e_final = summary["energy_final"]
        agree = abs(own - e_final) <= ENERGY_RTOL * own
        above = e_final >= self.e_ref * (1 - ENERGY_RTOL)
        self.calls.append(("relax_excess", (e_final - self.e_ref) / self.e_ref))
        ops.record("minimized grid round-trip", rim_ok and agree and above
                   and e_final <= summary["energy_initial"],
                   f"rim={rim_ok} own={own!r} reported={e_final!r} E_ref={self.e_ref!r}")

    def probe_fields(self):
        return [(self.field, self.node)]


WORKLOADS = {w.name: w for w in (Relax, Sheets, Diagnose, Pipeline)}


# ---------------------------------------------------------------- layer probes


def _median_call_s(tr, name: str, fn, *args) -> float:
    return statistics.median(tr.call(name, fn, *args)[1] for _ in range(3))


def _per_call_us(tr, name: str, fn, argsets) -> float:
    total = sum(tr.call(name, fn, *a)[1] for a in argsets)
    return 1e6 * total / len(argsets)


def _facts(wl: Workload, kind: str) -> list:
    return [v for k, v in wl.calls if k == kind]


def _mean(xs) -> float:
    return float(statistics.fmean(xs)) if xs else 0.0


def layer_metrics(wl: Workload, tr, rng: np.random.Generator) -> dict[str, float]:
    """Per-layer metrics: the traced rounds' spans plus probes on the
    workload's own fields.  A layer the workload never calls reads 0."""
    m: dict[str, float] = {}
    probes = wl.probe_fields()

    # qspace: metric_g_many over every grid edge, then its allocation peak
    pairs, busy, peak, cand = 0, 0.0, 0, 0
    for f, _ in probes:
        v = f.values
        for a, b in ((v[:, :-1], v[:, 1:]), (v[:-1], v[1:])):
            d, dt = tr.call("qspace.metric_g_many", metric_g_many, a, b)
            pairs += d.size
            busy += dt
            if f.q_sheets <= 6:   # computed: candidate and difference arrays of a full enumeration
                cand = max(cand, 2 * d.size * math.factorial(f.q_sheets) * f.q_sheets * f.n * 8)
    tracemalloc.start()
    for f, _ in probes:
        v = f.values
        for a, b in ((v[:, :-1], v[:, 1:]), (v[:-1], v[1:])):
            tracemalloc.reset_peak()
            metric_g_many(a, b)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
    m["qspace.pairs_per_s"] = pairs / busy
    m["qspace.peak_alloc_mb"] = peak / 2**20
    m["qspace.cand_mb"] = cand / 2**20

    # qspace and embedding per-call costs on sampled neighbouring nodes
    pts = []
    for f, _ in probes:
        iy = rng.integers(0, f.ny, MICRO_PAIRS)
        ix = rng.integers(0, f.nx - 1, MICRO_PAIRS)
        pts += [(f, QPoint(f.values[j, i]), QPoint(f.values[j, i + 1])) for j, i in zip(iy, ix)]
    m["qspace.metric_g_us"] = _per_call_us(tr, "qspace.metric_g", metric_g, [(p, r) for _, p, r in pts])
    m["qspace.optimal_matching_us"] = _per_call_us(
        tr, "qspace.optimal_matching", optimal_matching, [(p, r) for _, p, r in pts])
    m["embedding.xi0_us"] = _per_call_us(
        tr, "embedding.xi0", xi0, [(standard_frame(f.n, f.q_sheets), p) for f, p, _ in pts])

    # admissible: frame, chain and invariants at the base nodes
    chain_s = []
    for f, node in probes:
        base = f.node_value(node)
        with tr.span("admissible.chain"):
            t0 = perf_counter()
            chain = nested_chain(base, angle_separated_frame(support(base)))
            validate_chain(chain)
            chain_s.append(perf_counter() - t0)
    m["admissible.chain_s"] = statistics.median(chain_s)

    # field: one outer iteration and both energies, summed over the fields
    one = MinimizeOptions(max_iters=1, tol_rel_energy=0.0)
    m["field.outer_iter_s"] = sum(_median_call_s(tr, "field.minimize", minimize, f, one) for f, _ in probes)
    m["field.iterations"] = _mean(_facts(wl, "iterations"))
    m["field.converged_frac"] = _mean([float(c) for c in _facts(wl, "converged")])
    m["field.energy_matched_s"] = sum(
        _median_call_s(tr, "field.dirichlet_energy_matched", dirichlet_energy_matched, f) for f, _ in probes)
    m["field.energy_s"] = sum(
        _median_call_s(tr, "field.dirichlet_energy", dirichlet_energy, f, standard_frame(f.n, f.q_sheets))
        for f, _ in probes)
    m["field.relax_excess"] = max(_facts(wl, "relax_excess"), default=0.0)

    # analysis and variations: the battery's spans, plus single-rung probes
    m["analysis.hopf_s"] = tr.median_self("analysis.hopf_differential")
    m["analysis.companion_s"] = tr.median_self("analysis.harmonic_companion")
    m["analysis.patched_frac"] = _mean(_facts(wl, "patched_frac"))
    m["analysis.monotonicity_s"] = tr.median_self("analysis.monotonicity_report")
    m["analysis.psi_k_calls"] = _mean(_facts(wl, "psi_k_calls"))
    m["analysis.certificate_s"] = tr.median_self("analysis.continuity_certificate")
    m["analysis.key_lemma_s"] = tr.median_self("analysis.key_lemma_check")
    m["variations.stationarity_s"] = tr.median_self("variations.stationarity_residual")
    m["variations.range_yield"] = _mean(_facts(wl, "range_yield"))
    m.update(_variation_probes(wl, tr, rng) if isinstance(wl, Diagnose) else {
        "analysis.psi_k_s": 0.0, "variations.domain_derivative_s": 0.0, "variations.range_derivative_s": 0.0})

    # cli: the pipeline's command spans, start-up cost and grid JSON I/O
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_s"] = tr.median_self(f"cli.{cmd}")
    m.update(_cli_probes(wl, tr) if isinstance(wl, Pipeline) else {
        "cli.import_s": 0.0, "cli.json_write_s": 0.0, "cli.json_read_s": 0.0, "cli.grid_json_kb": 0.0})
    return m


def _variation_probes(wl: Diagnose, tr, rng: np.random.Generator) -> dict[str, float]:
    """psi_k at one rung, one domain and one range variation derivative, at
    the first base node (from the seeded sequence) where the range variation
    is admissible."""

    def call(name, fn, *args):
        return tr.call(name, fn, *args)[0]

    f, node = wl.fields[0], wl.nodes[0]
    fr = wl.frame
    comp = call("analysis.harmonic_companion", harmonic_companion,
                call("analysis.hopf_differential", hopf_differential, f, fr))
    r0 = _rim_distance(f, node)
    w = f.node_position(node)
    dv = DomainVariation((float(w[0]), float(w[1])), 0.5 * r0, (0.6, 0.8))
    out = {"variations.domain_derivative_s": _median_call_s(
        tr, "variations.domain_variation_derivative", domain_variation_derivative, f, fr, dv)}
    out["analysis.psi_k_s"] = out["variations.range_derivative_s"] = 0.0
    for _ in range(20):
        base = f.node_value(node)
        chain = call("admissible.nested_chain", nested_chain, base,
                     call("admissible.angle_separated_frame", angle_separated_frame,
                          call("qspace.support", support, base)))
        try:
            _, _, _, tau = call("analysis.valid_rho_interval", valid_rho_interval, f, comp, fr, node, 0, chain)
            lo, hi = call("analysis.monotone_rho_interval", monotone_rho_interval, f, comp, fr, node, 0, chain)
            rho = lo + 0.6 * (hi - lo)
            eps = min(chain.levels[0].sigma, tau) / 20
            out["analysis.psi_k_s"] = _median_call_s(
                tr, "analysis.psi_k", psi_k, f, comp, fr, node, 0, chain, rho, eps)
            rv = tr.call("variations.build_admissible_variation", build_admissible_variation,
                         chain, 0, rho, eps, node, seed=wl.seed)[0]
            out["variations.range_derivative_s"] = _median_call_s(
                tr, "variations.range_variation_derivative", range_variation_derivative, f, fr, rv, comp)
            break
        except (InvalidInputError, NotInBallError):
            node = _interior_node(rng, f.nx)
    return out


def _cli_probes(wl: Pipeline, tr) -> dict[str, float]:
    env = wl.env
    starts = []
    for _ in range(3):
        with tr.span("cli.import"):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import qvalued.cli"], env=env, check=True,
                           timeout=CLI_TIMEOUT_S)
            starts.append(perf_counter() - t0)
    scratch = wl.out_dir / "probe-write.json"
    writes = []
    for _ in range(3):
        t0 = perf_counter()
        fields.write_grid_json(wl.values, scratch)
        writes.append(perf_counter() - t0)
    scratch.unlink()
    return {
        "cli.import_s": statistics.median(starts),
        "cli.json_write_s": statistics.median(writes),
        "cli.json_read_s": statistics.median(_facts(wl, "json_read_s")),
        "cli.grid_json_kb": (wl.out_dir / "minimized.json").stat().st_size / 1024,
    }
