import math

import numpy as np
import pytest

from qvalued import (
    GridField,
    HopfField,
    InvalidInputError,
    QPoint,
    angle_separated_frame,
    conformality_defect,
    continuity_certificate,
    d_star,
    delta_constant,
    disc_oscillation,
    embed_grid,
    harmonic_companion,
    holomorphy_residual,
    hopf_differential,
    key_lemma_check,
    monotone_rho_interval,
    monotonicity_report,
    nested_chain,
    psi_k,
    rotated_frame,
    standard_frame,
    support,
    tau_star,
    valid_rho_interval,
    xi0_invariance_gap,
)
from qvalued.analysis import plaquette_defects

from helpers import (
    harmonic_boundary_field,
    meshgrid_for,
    noisy_copy,
    sqrt_grid_field,
    two_sheet_field,
    unit_square_grid,
)
from oracles import sqrt_circle_distance_to_branch


def single_valued_field(nn, fn, half=1.0):
    spec = unit_square_grid(nn, half)
    x, y = meshgrid_for(spec)
    fx, fy = fn(x, y)
    vals = np.stack([fx, fy], -1)[:, :, None, :]
    return GridField(vals, spec.spacing, spec.origin)


def synthetic_hopf(nn, fn, half=1.0):
    """HopfField with prescribed complex samples (no degeneracies)."""
    spec = unit_square_grid(nn, half)
    x, y = meshgrid_for(spec)
    phi = fn(x + 1j * y)
    return HopfField(
        np.asarray(phi, dtype=complex),
        np.zeros((nn, nn), dtype=bool),
        spec.spacing,
        spec.origin,
    )


def test_hopf_identity_map_vanishes():
    sup = []
    for nn in (17, 33, 65):
        f = single_valued_field(nn, lambda x, y: (x, y))
        hopf = hopf_differential(f, standard_frame(2, 1))
        sup.append(np.abs(hopf.interior).max())
    assert sup[0] <= 1e-12  # affine: central differences exact
    assert all(s <= 1e-12 for s in sup)


def test_hopf_conformal_cubic_order():
    # f(z) = z^3 is conformal: phi -> 0 at second order
    sup = []
    for nn in (17, 33, 65):
        f = single_valued_field(
            nn, lambda x, y: (x**3 - 3 * x * y**2, 3 * x**2 * y - y**3)
        )
        hopf = hopf_differential(f, standard_frame(2, 1))
        sup.append(np.abs(hopf.interior).max())
    assert sup[2] < sup[1] < sup[0]
    order = math.log2(sup[1] / sup[2])
    assert order > 1.5


def test_hopf_linear_horizontal_field():
    f = single_valued_field(17, lambda x, y: (x, np.zeros_like(x)))
    hopf = hopf_differential(f, standard_frame(2, 1))
    np.testing.assert_allclose(hopf.interior, 1.0, atol=1e-12)


def test_hopf_sqrt_field_decays_off_branch():
    sups = []
    for nn in (33, 65, 129):
        f = sqrt_grid_field(nn)
        hopf = hopf_differential(f, standard_frame(2, 2))
        xs = f.xs
        x, y = np.meshgrid(xs, f.ys)
        annulus = (np.hypot(x, y) > 0.1)[1:-1, 1:-1]
        sups.append(np.abs(hopf.interior[annulus]).max())
    assert sups[2] < sups[1] < sups[0]


def test_hopf_degenerate_mask_at_branch():
    f = sqrt_grid_field(33)
    hopf = hopf_differential(f, standard_frame(2, 2))
    assert hopf.degenerate[16, 16]
    assert hopf.degenerate.sum() < 30


def test_holomorphy_residual_cases():
    assert holomorphy_residual(synthetic_hopf(33, lambda z: np.full(z.shape, 2.0 + 1j))) == 0.0
    assert holomorphy_residual(synthetic_hopf(33, lambda z: z)) <= 1e-12
    res = holomorphy_residual(synthetic_hopf(33, lambda z: np.conj(z)))
    # |d/dzbar conj z| = 1 at each of the (nn-2)^2 quadrature nodes
    nn = 33
    h = 2.0 / (nn - 1)
    area = ((nn - 2) * h) ** 2
    assert res == pytest.approx(math.sqrt(area), rel=1e-12)


def test_companion_zero_hopf_gives_conjugate():
    hopf = synthetic_hopf(17, lambda z: np.zeros(z.shape, dtype=complex))
    comp = harmonic_companion(hopf)
    z = hopf.zgrid()
    # gauge: psi is constant; h - conj(z) should be (the same) constant
    shift = comp.values - np.conj(z)
    np.testing.assert_allclose(shift, shift[0, 0], atol=1e-10)
    np.testing.assert_allclose(comp.grad_sq()[1:-1, 1:-1], 2.0, atol=1e-10)
    assert comp.path_residual <= 1e-12


def test_companion_constant_hopf_linear_primitive():
    c = 1.5 - 0.5j
    hopf = synthetic_hopf(17, lambda z: np.full(z.shape, c))
    for method in ("least_squares", "path"):
        comp = harmonic_companion(hopf, method=method)
        z = hopf.zgrid()
        psi = comp.values - np.conj(z)
        want = -c * z / 4
        shift = psi - want
        np.testing.assert_allclose(shift, shift[0, 0], atol=1e-9)


def test_companion_energy_identity_linear_data_exact():
    hopf = synthetic_hopf(17, lambda z: z)
    comp = harmonic_companion(hopf)
    err = np.abs(comp.grad_sq()[1:-1, 1:-1] - np.abs(hopf.interior) ** 2 / 8 - 2.0).max()
    assert err <= 1e-10  # trapezoid and central differences are exact for degree <= 2


def test_companion_energy_identity_holomorphic_data():
    errs = []
    for nn in (17, 33, 65):
        hopf = synthetic_hopf(nn, lambda z: z**3)
        comp = harmonic_companion(hopf)
        err = np.abs(
            comp.grad_sq()[1:-1, 1:-1] - np.abs(hopf.interior) ** 2 / 8 - 2.0
        ).max()
        errs.append(err)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 10 * (2.0 / 64)


def test_companion_energy_identity_sqrt_field():
    f = sqrt_grid_field(65)
    hopf = hopf_differential(f, standard_frame(2, 2))
    comp = harmonic_companion(hopf)
    x, y = np.meshgrid(f.xs, f.ys)
    annulus = (np.hypot(x, y) > 0.1)[1:-1, 1:-1]
    err = np.abs(comp.grad_sq() - np.abs(hopf.phi) ** 2 / 8 - 2.0)[1:-1, 1:-1]
    assert err[annulus].max() <= 10 * f.spacing


def test_companion_path_method_accumulates_sqrt_defect():
    # the straight path integrator is poisoned by the branch monodromy
    f = sqrt_grid_field(65)
    hopf = hopf_differential(f, standard_frame(2, 2))
    comp_path = harmonic_companion(hopf, method="path")
    comp_lsq = harmonic_companion(hopf)
    x, y = np.meshgrid(f.xs, f.ys)
    annulus = (np.hypot(x, y) > 0.1)[1:-1, 1:-1]
    err_path = np.abs(comp_path.grad_sq() - np.abs(hopf.phi) ** 2 / 8 - 2.0)[1:-1, 1:-1]
    err_lsq = np.abs(comp_lsq.grad_sq() - np.abs(hopf.phi) ** 2 / 8 - 2.0)[1:-1, 1:-1]
    assert err_path[annulus].max() > 10 * err_lsq[annulus].max()


def test_plaquette_defects_match_residual_semantics():
    hopf = synthetic_hopf(17, lambda z: np.conj(z))
    defects = plaquette_defects(hopf)
    h = hopf.spacing
    # counterclockwise circulation of conj(z) around a cell is 2i * area
    np.testing.assert_allclose(defects, 2j * h * h, atol=1e-12)


def test_conformality_defect_identity_pair():
    vals = []
    for nn in (17, 33, 65):
        f = single_valued_field(nn, lambda x, y: (x, y))
        fr = standard_frame(2, 1)
        comp = harmonic_companion(hopf_differential(f, fr))
        vals.append(conformality_defect(f, fr, comp))
    assert vals[2] < vals[1] < vals[0] or vals[0] <= 1e-10
    assert vals[2] <= 1e-9


def test_conformality_defect_minimized_vs_noisy(minimized_strong_97):
    fr = standard_frame(2, 2)
    g = minimized_strong_97.field
    comp = harmonic_companion(hopf_differential(g, fr))
    base = conformality_defect(g, fr, comp)
    noisy = noisy_copy(g, scale=0.1, seed=8)
    comp_n = harmonic_companion(hopf_differential(noisy, fr))
    assert conformality_defect(noisy, fr, comp_n) > 3 * base
    assert base > 0


def test_invariance_gap_same_frame_zero():
    f = two_sheet_field(17, seed=0)
    fr = standard_frame(2, 2)
    gap = xi0_invariance_gap(f, fr, fr)
    assert gap.stddev == 0.0 and gap.mean == 0.0


def test_invariance_gap_sqrt_rotated_frame():
    # matched per-sheet differences make the Hopf density frame-invariant to
    # roundoff, so the constant-gap estimate is trivially inside its bound
    fr_a = standard_frame(2, 2)
    fr_b = rotated_frame(2, 2, seed=3)
    for nn in (33, 65):
        f = sqrt_grid_field(nn)
        gap = xi0_invariance_gap(f, fr_a, fr_b)
        assert gap.stddev <= 1e-10
        assert gap.mean <= gap.bound * 1.05
        assert gap.bound > 0


def test_d_star_basics(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 48)
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    dst = d_star(g, comp, w, 0, chain)
    assert dst[w] == pytest.approx(0.0, abs=1e-12)
    dh = np.abs(comp.values - comp.values[w])
    assert np.all(dst >= dh - 1e-12)


def test_d_star_equals_embedded_distance_in_admissible_range(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 48)
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    dst = d_star(g, comp, w, 0, chain)
    sigma0 = chain.levels[0].sigma
    farr = embed_grid(g, fr)
    targ = embed_grid(
        GridField(
            np.tile(chain.levels[0].decomposition.rebuild().points, (1, 1, 1, 1)),
            g.spacing,
        ),
        fr,
    )[0, 0]
    gdist = np.sqrt(
        np.linalg.norm(farr - targ, axis=-1) ** 2 + np.abs(comp.values - comp.values[w]) ** 2
    )
    inside = dst <= 0.4 * sigma0
    assert inside.sum() > 0
    np.testing.assert_allclose(dst[inside], gdist[inside], atol=1e-10)


def test_psi_k_zero_below_min_distance(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 48)
    # level-1 center (merged single site): d*_1 is bounded away from zero
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    if chain.depth >= 1:
        dst = d_star(g, comp, w, 1, chain)
        floor = dst.min()
        rho = 0.5 * floor
        val = psi_k(g, comp, fr, w, 1, chain, rho, rho / 4, validate=False)
        assert val == 0.0


def test_psi_k_saturated_cutoff_full_energy():
    # constant field: G = (const, h); saturated lambda integrates the disc energy of G
    vals = np.tile(np.array([0.2, -0.1]), (33, 33, 2, 1))
    spec = unit_square_grid(33)
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    w = (16, 16)
    base = QPoint(f.values[16, 16].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    r_disc = 0.6
    dst = d_star(f, comp, w, 0, chain)
    x, y = np.meshgrid(f.xs, f.ys)
    big = float(dst[np.hypot(x, y) <= r_disc + 0.1].max())
    val = psi_k(
        f, comp, fr, w, 0, chain, big + 1.0, 0.5, w0=(0.0, 0.0), r=r_disc, validate=False
    )
    g2 = comp.grad_sq()
    cell = (g2[:-1, :-1] + g2[:-1, 1:] + g2[1:, :-1] + g2[1:, 1:]) / 4 * f.spacing**2
    cx = f.origin[0] + f.spacing * (np.arange(f.nx - 1) + 0.5)
    cy = f.origin[1] + f.spacing * (np.arange(f.ny - 1) + 0.5)
    gx, gy = np.meshgrid(cx, cy)
    want = cell[(gx**2 + gy**2) <= r_disc**2].sum()
    assert val == pytest.approx(want, rel=1e-12)


def test_psi_k_nondecreasing_in_rho(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 48)
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    lo, hi = monotone_rho_interval(g, comp, fr, w, 0, chain)
    eps = hi / 10
    vals = [
        psi_k(g, comp, fr, w, 0, chain, rho, eps)
        for rho in np.linspace(0.3 * hi, 0.95 * hi, 8)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_psi_k_range_validation(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 48)
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    _, hi, _, _ = valid_rho_interval(g, comp, fr, w, 0, chain)
    with pytest.raises(InvalidInputError):
        psi_k(g, comp, fr, w, 0, chain, hi * 2, hi / 20)
    with pytest.raises(InvalidInputError):
        psi_k(g, comp, fr, w, 0, chain, hi / 2, -1.0)


def test_monotonicity_report_harmonic_field():
    f, _ = harmonic_boundary_field(65)
    from qvalued import MinimizeOptions, minimize

    res = minimize(f, MinimizeOptions(max_iters=150, tol_rel_energy=0.0))
    fr = standard_frame(1, 1)
    comp = harmonic_companion(hopf_differential(res.field, fr))
    w = (32, 32)
    base = QPoint(res.field.values[32, 32].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rep = monotonicity_report(res.field, comp, fr, w, chain)
    assert rep.k0 == 0
    assert rep.passed, rep.violations


def test_monotonicity_report_strong_field(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 44)
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rep = monotonicity_report(g, comp, fr, w, chain)
    assert rep.passed, rep.violations
    assert 0 in rep.levels and len(rep.levels[0]) == 10
    assert rep.tau_star > 0


def test_monotonicity_report_constant_field():
    # f constant: G varies through h = conj(z) + c alone, d* = |z - z*| and
    # the energy density is 2, so psi(rho) = 4 pi * int lambda(rho - s) s ds
    from scipy.integrate import quad

    vals = np.tile(np.array([0.2, -0.1]), (65, 65, 2, 1))
    spec = unit_square_grid(65)
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    base = QPoint(f.values[32, 32].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rep = monotonicity_report(f, comp, fr, (32, 32), chain)
    rows = rep.levels[0]
    assert all(np.isfinite(r.ratio) for r in rows)
    assert rep.passed, rep.violations

    _, hi0, _, _ = valid_rho_interval(f, comp, fr, (32, 32), k=0, chain=chain)
    eps = 2.5 * hi0 / 20

    def smooth(t):
        t = min(max(t, 0.0), 1.0)
        return t**3 * (10 - 15 * t + 6 * t**2)

    for row in rows:
        want, _ = quad(lambda s: smooth((row.rho - s) / eps) * s, 0, row.rho)
        want *= 4 * math.pi / row.rho**2
        assert row.ratio == pytest.approx(want, rel=0.05)


def test_monotonicity_flags_violations_on_rough_field():
    # strongly oscillatory, unrelaxed boundary extension: the cutoff energy
    # ratios are visibly non-monotone and the report must say so
    g = two_sheet_field(97, seed=0, amplitude=2.0, freq=3.0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    w = (48, 44)
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rep = monotonicity_report(g, comp, fr, w, chain)
    assert not rep.passed
    assert rep.violations


def test_delta_constant_values():
    assert delta_constant(1, 2) == pytest.approx(4052.5**-2, rel=1e-12)
    prev = None
    for q in range(2, 7):
        d = delta_constant(2, q)
        assert d > 0
        if prev is not None:
            # strictly decreasing until the value hits the subnormal clamp
            assert d < prev or d == 5e-324
        prev = d


def test_key_lemma_constant_field():
    vals = np.tile(np.array([0.2, -0.1]), (33, 33, 2, 1))
    spec = unit_square_grid(33)
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    lhs, rhs, ok = key_lemma_check(f, comp, (16, 16), 0.5, fr)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert ok


def test_key_lemma_sqrt_branch_point():
    f = sqrt_grid_field(129)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    lhs, rhs, ok = key_lemma_check(f, comp, (64, 64), 0.5, fr)
    assert lhs == pytest.approx(sqrt_circle_distance_to_branch(0.5), rel=0.01)
    assert ok
    assert rhs > 100 * lhs  # the delta constant dominates by construction


def test_tau_star_sqrt_branch():
    f = sqrt_grid_field(129)
    fr = standard_frame(2, 2)
    got = tau_star(f, fr, (64, 64), (0.0, 0.0), 0.5)
    assert got == pytest.approx(sqrt_circle_distance_to_branch(0.5), rel=0.01)


def test_continuity_certificate_constant_field():
    vals = np.tile(np.array([0.2, -0.1]), (65, 65, 2, 1))
    spec = unit_square_grid(65)
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 2)
    cert = continuity_certificate(f, fr, (0.0, 0.0), 0.4)
    assert cert.alpha1 == pytest.approx(0.0, abs=1e-12)
    # beta is the companion disc energy alone: |grad h|^2 = 2 over the disc
    assert cert.beta == pytest.approx(2 * math.pi * 0.4**2, rel=0.05)
    assert cert.modulus == pytest.approx(4 * cert.alpha2, rel=1e-12)


def test_continuity_certificate_sqrt_decreasing_and_bounds_osc():
    f = sqrt_grid_field(129)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    mods = []
    for radius in (0.4, 0.2, 0.1):
        cert = continuity_certificate(f, fr, (0.0, 0.0), radius, comp=comp)
        osc = disc_oscillation(f, (0.0, 0.0), radius / 2)
        assert cert.modulus >= osc
        mods.append(cert.modulus)
    assert mods[0] > mods[1] > mods[2]


def test_energy_density_floor(minimized_strong_97):
    # |grad G|^2 stays above 2 everywhere: the companion contributes at least
    # the conjugate-coordinate energy density
    from qvalued.analysis import grad_sq_field

    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    total = grad_sq_field(g, fr) + comp.grad_sq()
    assert total.min() >= 2.0 - 1e-6


def test_holomorphy_residual_decreases_under_refinement():
    from qvalued import MinimizeOptions, minimize

    fr = standard_frame(2, 2)
    residuals = []
    for nn, iters in ((25, 150), (33, 200), (49, 250)):
        res = minimize(
            two_sheet_field(nn, seed=4),
            MinimizeOptions(max_iters=iters, tol_rel_energy=0.0),
        )
        residuals.append(holomorphy_residual(hopf_differential(res.field, fr)))
    assert residuals[2] < residuals[1] < residuals[0]


def test_harmonic_companion_unknown_method():
    hopf = synthetic_hopf(9, lambda z: np.zeros(z.shape, dtype=complex))
    with pytest.raises(InvalidInputError):
        harmonic_companion(hopf, method="nope")
