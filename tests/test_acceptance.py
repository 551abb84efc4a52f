"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings while the suite executes.
"""

import itertools
import math
import time

import numpy as np
import pytest

from qvalued import (
    AdmissibleBall,
    MinimizeOptions,
    QPoint,
    angle_separated_frame,
    continuity_certificate,
    disc_oscillation,
    embedded_distance,
    harmonic_companion,
    hopf_differential,
    interpolate,
    key_lemma_check,
    metric_g,
    min_separation,
    minimize,
    monotonicity_report,
    nested_chain,
    standard_frame,
    stationarity_residual,
    subtract,
    support,
    theta0,
    validate_chain,
    xi0,
)

from helpers import (
    harmonic_boundary_field,
    noisy_copy,
    sqrt_grid_field,
    two_sheet_field,
)
from oracles import harmonic_extension, sampled_inclusion_witness


def _report(num, name, passed, started, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{status}] {name} ({time.time() - started:.1f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------- fixtures

STRONG_SEEDS = (11, 12, 13, 14, 15)


@pytest.fixture(scope="module")
def ac_sqrt_minimized():
    res = minimize(
        sqrt_grid_field(161),
        MinimizeOptions(max_iters=120, tol_rel_energy=1e-13),
    )
    return res.field


@pytest.fixture(scope="module")
def ac_strong_minimized():
    fields = []
    for seed in STRONG_SEEDS:
        res = minimize(
            two_sheet_field(97, seed=seed),
            MinimizeOptions(max_iters=100, tol_rel_energy=1e-13),
        )
        fields.append(res.field)
    return fields


def _oracle_metric_batch(a, b):
    """Exhaustive-permutation assignment distances for (B, Q, n) batches."""
    q = a.shape[1]
    perms = np.array(list(itertools.permutations(range(q))))
    cand = b[:, perms, :]  # (B, q!, Q, n)
    cost = ((a[:, None, :, :] - cand) ** 2).sum(axis=(2, 3))
    return np.sqrt(cost.min(axis=1))


def test_ac01_metric_correctness():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (1, 2, 3):
        for q in range(2, 7):
            a = rng.normal(size=(1000, q, n))
            b = rng.normal(size=(1000, q, n))
            want = _oracle_metric_batch(a, b)
            got = np.empty(1000)
            for i in range(1000):
                got[i] = metric_g(QPoint(a[i]), QPoint(b[i]))
            worst = max(worst, float(np.abs(got - want).max()))
    _report(1, "metric equals exhaustive minimum", worst <= 1e-12, started,
            f"max deviation {worst:.2e}")


def test_ac02_embedding_inequalities():
    started = time.time()
    rng = np.random.default_rng(102)
    ok = True
    detail = []
    fr = standard_frame(2, 3)
    for _ in range(10000):
        p = QPoint(rng.normal(size=(3, 2)))
        r = QPoint(rng.normal(size=(3, 2)))
        if embedded_distance(xi0(fr, p), xi0(fr, r)) > metric_g(p, r) + 1e-10:
            ok = False
            break
    detail.append("Lipschitz ok" if ok else "Lipschitz violated")
    fr1 = standard_frame(1, 4)
    eq1 = True
    for _ in range(2000):
        p = QPoint(rng.normal(size=(4, 1)))
        r = QPoint(rng.normal(size=(4, 1)))
        if abs(embedded_distance(xi0(fr1, p), xi0(fr1, r)) - metric_g(p, r)) > 1e-10:
            eq1 = False
            break
    detail.append("1-D isometry ok" if eq1 else "1-D isometry violated")
    eq_adm = True
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 5))
        s = support(QPoint(rng.normal(size=(q, n))))
        asf = angle_separated_frame(s)
        tau = 0.4 * math.sin(theta0(n, s.q)) * min_separation(s)
        base = s.rebuild()
        off = rng.normal(size=base.points.shape)
        off *= rng.uniform(0, 1) * tau / np.linalg.norm(off)
        p = QPoint(base.points + off)
        d_emb = embedded_distance(xi0(asf.frame, p), xi0(asf.frame, base))
        if abs(d_emb - metric_g(p, base)) > 1e-10:
            eq_adm = False
            break
    detail.append("admissible isometry ok" if eq_adm else "admissible isometry violated")
    _report(2, "embedding inequalities", ok and eq1 and eq_adm, started, "; ".join(detail))


def test_ac03_angle_bound():
    started = time.time()
    rng = np.random.default_rng(103)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        s = support(QPoint(rng.normal(size=(q, n))))
        asf = angle_separated_frame(s)
        dirs = []
        for i in range(s.count):
            for j in range(i + 1, s.count):
                d = s.sites[j] - s.sites[i]
                dirs.append(d / np.linalg.norm(d))
        if not dirs:
            continue
        dots = np.abs(asf.frame.directions @ np.array(dirs).T)
        if dots.min() < math.sin(theta0(n, q)) - 1e-9:
            failures += 1
    _report(3, "angle-separated frame bound", failures == 0, started,
            f"{failures} verification failures")


def test_ac04_nested_chains():
    started = time.time()
    rng = np.random.default_rng(104)
    bad = 0
    hand_ok = True
    inclusion_ok = True
    for trial in range(1000):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 6))
        p = QPoint(rng.normal(size=(q, n)))
        chain = nested_chain(p, angle_separated_frame(support(p)))
        if validate_chain(chain):
            bad += 1
            continue
        if sampled_inclusion_witness(chain, 1000, seed=trial) is not None:
            inclusion_ok = False
            break
    two = QPoint([[0.0], [1.0]])
    chain2 = nested_chain(two, angle_separated_frame(support(two)))
    hand_ok = chain2.levels[1].rho == 81.0 * chain2.levels[0].sigma == 20.25
    _report(4, "nested chain invariants", bad == 0 and inclusion_ok and hand_ok,
            started, f"{bad} invariant failures; hand rho_1 ok={hand_ok}")


def test_ac05_subtraction_identities():
    started = time.time()
    rng = np.random.default_rng(105)
    ok_metric = True
    ok_linear = True
    for _ in range(1000):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 5))
        s = support(QPoint(rng.normal(size=(q, n))))
        asf = angle_separated_frame(s)
        tau = 0.4 * math.sin(theta0(n, s.q)) * min_separation(s)
        ball = AdmissibleBall(s, tau, asf.frame)
        base = s.rebuild()
        off = rng.normal(size=base.points.shape)
        off *= rng.uniform(0, 1) * tau / np.linalg.norm(off)
        p = QPoint(base.points + off)
        diff = subtract(s, p, ball)
        zero = QPoint(np.zeros_like(diff.points))
        if abs(metric_g(diff, zero) - metric_g(p, base)) > 1e-10:
            ok_metric = False
            break
        t = rng.uniform(0, 1)
        mid = xi0(asf.frame, interpolate(s, p, t, ball)).flat
        target = t * xi0(asf.frame, base).flat + (1 - t) * xi0(asf.frame, p).flat
        if np.abs(mid - target).max() > 1e-10:
            ok_linear = False
            break
    _report(5, "subtraction identities", ok_metric and ok_linear, started,
            f"metric ok={ok_metric}, linearity ok={ok_linear}")


def test_ac06_hopf_diagnostics():
    started = time.time()
    fr = standard_frame(2, 2)
    sups = []
    id_errs = []
    hs = []
    for nn in (65, 129, 257):
        f = sqrt_grid_field(nn)
        hs.append(f.spacing)
        hopf = hopf_differential(f, fr)
        comp = harmonic_companion(hopf)
        x, y = np.meshgrid(f.xs, f.ys)
        annulus = (np.hypot(x, y) > 0.1)[1:-1, 1:-1]
        sups.append(float(np.abs(hopf.interior[annulus]).max()))
        err = comp.energy_identity_error()
        id_errs.append(float(err[annulus].max()))
    monotone = sups[0] > sups[1] > sups[2]
    order = np.polyfit(np.log(hs), np.log(sups), 1)[0]
    identity_ok = all(e <= 10 * h for e, h in zip(id_errs, hs))
    ok = monotone and order >= 0.9 and identity_ok
    _report(6, "Hopf diagnostics on the square-root field", ok, started,
            f"sup|phi|={[f'{s:.3f}' for s in sups]}, order={order:.2f}, "
            f"identity errs={[f'{e:.4f}' for e in id_errs]} vs 10h={[f'{10*h:.4f}' for h in hs]}")


def test_ac07_minimizer_sanity():
    started = time.time()
    f, g = harmonic_boundary_field(33)
    res = minimize(f, MinimizeOptions(max_iters=200, tol_rel_energy=0.0))
    oracle = harmonic_extension(g, f.boundary_mask)
    err = float(np.abs(res.field.values[..., 0, 0] - oracle).max())
    monotone = bool(np.all(np.diff(res.energies) <= 1e-12))
    ok = err <= 1e-8 and monotone
    _report(7, "minimizer matches direct solve", ok, started,
            f"max node error {err:.2e}, monotone={monotone}")


def _ladder_worst(field, w_star):
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(field, fr))
    base = QPoint(field.values[w_star[0], w_star[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rep = monotonicity_report(field, comp, fr, w_star, chain)
    worst = 0.0
    for rows in rep.levels.values():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[j].ratio > 0:
                    worst = max(worst, (rows[i].ratio - rows[j].ratio) / rows[j].ratio)
    return rep, worst


def test_ac08_monotonicity(ac_sqrt_minimized, ac_strong_minimized):
    started = time.time()
    details = []
    ok = True
    rep, worst = _ladder_worst(ac_sqrt_minimized, (80, 80))
    ok &= rep.passed
    details.append(f"sqrt worst drop {worst:.4f}")
    for seed, field in zip(STRONG_SEEDS, ac_strong_minimized):
        rep, worst = _ladder_worst(field, (52, 44))
        ok &= rep.passed
        details.append(f"seed {seed}: {worst:.4f}")
    _report(8, "cutoff energy ratio monotonicity (5%)", ok, started, "; ".join(details))


def test_ac09_key_lemma(ac_sqrt_minimized, ac_strong_minimized):
    started = time.time()
    fr = standard_frame(2, 2)
    rng = np.random.default_rng(109)
    failures = 0
    total = 0
    for field in (ac_sqrt_minimized, ac_strong_minimized[0]):
        comp = harmonic_companion(hopf_differential(field, fr))
        nn = field.nx
        count = 0
        while count < 20:
            iy = int(rng.integers(nn // 4, 3 * nn // 4))
            ix = int(rng.integers(nn // 4, 3 * nn // 4))
            w0 = field.node_position((iy, ix))
            x1 = field.origin[0] + (nn - 1) * field.spacing
            r = 0.8 * min(w0[0] - field.origin[0], x1 - w0[0],
                          w0[1] - field.origin[1], x1 - w0[1])
            if r < 5 * field.spacing:
                continue
            lhs, rhs, passed = key_lemma_check(field, comp, (iy, ix), r, fr)
            total += 1
            count += 1
            if not passed:
                failures += 1
    _report(9, "key oscillation bound", failures == 0, started,
            f"{failures}/{total} base points failed")


def test_ac10_stationarity_residuals():
    # residuals are dominated by how deeply the relaxation converged, so this
    # criterion runs on grids where the scheme can be driven to its fixed point
    started = time.time()
    details = []
    ok = True
    f, g = harmonic_boundary_field(33)
    res = minimize(f, MinimizeOptions(max_iters=200, tol_rel_energy=0.0))
    sr = stationarity_residual(res.field, standard_frame(1, 1), trials=5, seed=7)
    ok &= sr.domain_max <= 1e-3 * sr.energy and sr.range_max <= 1e-3 * sr.energy
    details.append(f"harmonic {sr.domain_max / sr.energy:.1e}/{sr.range_max / sr.energy:.1e}")
    fr = standard_frame(2, 2)
    baseline = 0.0
    first = None
    for seed in (11, 12):
        res = minimize(
            two_sheet_field(65, seed=seed),
            MinimizeOptions(max_iters=150, tol_rel_energy=0.0),
        )
        if first is None:
            first = res.field
        sr = stationarity_residual(res.field, fr, trials=5, seed=7)
        ok &= sr.range_trials > 0
        ok &= sr.domain_max <= 1e-3 * sr.energy and sr.range_max <= 1e-3 * sr.energy
        baseline = max(baseline, sr.domain_max, sr.range_max)
        details.append(
            f"strong {sr.domain_max / sr.energy:.1e}/{sr.range_max / sr.energy:.1e}"
        )
    noisy = noisy_copy(first, scale=0.05, seed=10)
    sr_n = stationarity_residual(noisy, fr, trials=5, seed=7)
    falsified = max(sr_n.domain_max, sr_n.range_max) > 10 * baseline
    ok &= falsified
    details.append(f"falsifier ratio {max(sr_n.domain_max, sr_n.range_max) / baseline:.0f}x")
    _report(10, "stationarity residuals", ok, started, "; ".join(details))


def test_ac11_continuity_certificate():
    started = time.time()
    f = sqrt_grid_field(129)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    mods = []
    bounds_osc = True
    for radius in (0.4, 0.2, 0.1):
        cert = continuity_certificate(f, fr, (0.0, 0.0), radius, comp=comp)
        osc = disc_oscillation(f, (0.0, 0.0), radius / 2)
        bounds_osc &= cert.modulus >= osc
        mods.append(cert.modulus)
    decreasing = mods[0] > mods[1] > mods[2]
    _report(11, "continuity certificate", decreasing and bounds_osc, started,
            f"moduli {[f'{m:.1f}' for m in mods]}, bounds oscillation={bounds_osc}")
