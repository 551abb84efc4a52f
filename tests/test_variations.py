import json
import math

import numpy as np
import pytest

from qvalued import (
    DomainVariation,
    GridField,
    InvalidInputError,
    InvalidStepError,
    MinimizeOptions,
    NotInBallError,
    QPoint,
    angle_separated_frame,
    build_admissible_variation,
    continuity_certificate,
    d_star,
    dirichlet_energy,
    domain_variation_derivative,
    harmonic_companion,
    hopf_differential,
    key_lemma_check,
    minimize,
    monotone_rho_interval,
    monotonicity_report,
    nested_chain,
    range_variation_derivative,
    standard_frame,
    stationarity_residual,
    support,
    xi0,
)
from qvalued.cli import main
from qvalued.variations import RETRACTION_LIPSCHITZ, cutoff_weights

from helpers import (
    harmonic_boundary_field,
    meshgrid_for,
    count_embed_grid,
    noisy_copy,
    root_grid_field,
    sqrt_grid_field,
    two_sheet_field,
    unit_square_grid,
)
from oracles import full_grid_domain_derivative, full_grid_range_derivative, retraction_lipschitz


@pytest.fixture(scope="module")
def minimized_harmonic():
    f, _ = harmonic_boundary_field(33)
    return minimize(f, MinimizeOptions(max_iters=150, tol_rel_energy=0.0))


def _range_setup(result, w=(48, 44)):
    return _field_range_setup(result.field, w)


def _field_range_setup(g, w):
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    base = QPoint(g.values[w[0], w[1]].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    lo, hi = monotone_rho_interval(g, comp, fr, w, 0, chain)
    eps = hi / 8
    rho = lo + 0.6 * (hi - lo)
    rv = build_admissible_variation(chain, 0, rho, eps, w)
    return g, fr, comp, chain, rv


def test_domain_variation_support_validation():
    f = two_sheet_field(17, seed=0)
    v = DomainVariation((0.9, 0.0), 0.3, (1.0, 0.0))
    with pytest.raises(InvalidInputError):
        domain_variation_derivative(f, standard_frame(2, 2), v)
    # the support must stay inside the box one node in from the rim, x <= 0.875 here
    v = DomainVariation((0.6, 0.0), 0.3, (1.0, 0.0))
    with pytest.raises(InvalidInputError):
        domain_variation_derivative(f, standard_frame(2, 2), v)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_domain_variation_refuses_non_finite_bumps(bad):
    # a NaN direction made the derivative NaN, and a NaN radius passed radius <= 0
    for args in (((bad, 0.0), 0.3, (1.0, 0.0)), ((0.0, 0.0), bad, (1.0, 0.0)),
                 ((0.0, 0.0), 0.3, (1.0, bad))):
        with pytest.raises(InvalidInputError, match="finite"):
            DomainVariation(*args)


def test_domain_variation_invalid_step():
    # at the step t = h^2 a bump of size 5 / h^2 moves the domain as a unit
    # bump at t = 5 would: the map folds over, so the derivative is refused
    f = two_sheet_field(33, seed=0)
    v = DomainVariation((0.0, 0.0), 0.4, (5.0 / f.spacing**2, 0.0))
    with pytest.raises(InvalidStepError):
        domain_variation_derivative(f, standard_frame(2, 2), v)


def test_domain_variation_linear_field_near_zero():
    # affine tuples are stationary under compactly supported reparametrisation
    nn = 33
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    a = np.array([[1.0, 0.5], [-0.25, 0.75]])
    vals = np.einsum("ij,yxj->yxi", a, np.stack([x, y], -1))[:, :, None, :]
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 1)
    e = dirichlet_energy(f, fr).total
    v = DomainVariation((0.1, -0.2), 0.35, (0.8, 0.6))
    d = domain_variation_derivative(f, fr, v)
    assert abs(d) <= 1e-3 * e


def test_domain_variation_harmonic_small_vs_noisy(minimized_harmonic):
    g = minimized_harmonic.field
    fr = standard_frame(1, 1)
    e = dirichlet_energy(g, fr).total
    rng = np.random.default_rng(0)
    base = 0.0
    for _ in range(6):
        c = rng.uniform(-0.35, 0.35, 2)
        rad = rng.uniform(0.2, 0.4)
        th = rng.uniform(0, 2 * math.pi)
        v = DomainVariation(tuple(c), rad, (math.cos(th), math.sin(th)))
        base = max(base, abs(domain_variation_derivative(g, fr, v)))
    assert base <= 1e-3 * e
    noisy = noisy_copy(g, scale=0.05, seed=7)
    worst = 0.0
    rng = np.random.default_rng(0)
    for _ in range(6):
        c = rng.uniform(-0.35, 0.35, 2)
        rad = rng.uniform(0.2, 0.4)
        th = rng.uniform(0, 2 * math.pi)
        v = DomainVariation(tuple(c), rad, (math.cos(th), math.sin(th)))
        worst = max(worst, abs(domain_variation_derivative(noisy, fr, v)))
    assert worst > 10 * base


def _root3_range_setup():
    # Q = 3 roots of z on 65^2, based at the branch point: one site, sigma = inf
    g = root_grid_field(65, 3)
    fr = standard_frame(2, 3)
    comp = harmonic_companion(hopf_differential(g, fr))
    base = QPoint(g.values[32, 32].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    return g, fr, comp, chain, build_admissible_variation(chain, 0, 1.0, 0.4, (32, 32))


@pytest.mark.parametrize("which", ["strong", "root3", "sqrt161"])
def test_cutoff_weights_equal_full_grid_ramp(which, request):
    # the ramp runs on the band 0 < t < 1 alone; it is exactly 1 and 0 beyond
    if which == "strong":
        g, fr, comp, chain, rv = _range_setup(request.getfixturevalue("minimized_strong_97"))
    elif which == "root3":
        g, fr, comp, chain, rv = _root3_range_setup()
    else:
        # the `diagnose` grid size, where the cutoff covers a few dozen nodes
        g, fr, comp, chain, rv = _field_range_setup(sqrt_grid_field(161), (140, 140))
    t = (rv.rho - d_star(g, comp, rv.w_star, rv.level, rv.chain)) / rv.eps
    inner = ~g.boundary_mask
    assert (t[inner] >= 1).any() and ((t[inner] > 0) & (t[inner] < 1)).any() and (t[inner] <= 0).any()
    t = np.clip(t, 0.0, 1.0)
    want = t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    want[g.boundary_mask] = 0.0
    assert np.array_equal(cutoff_weights(g, comp, rv), want)


def test_range_variation_quadratic_exactness(minimized_strong_97):
    # the perturbed energy is a polynomial in t of degree 2: the central
    # difference must match the slope of a fitted parabola to roundoff
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    lam = cutoff_weights(g, comp, rv)
    gam = rv.retraction(g.values)
    t0 = g.spacing**2
    ts = np.array([-2, -1, 0, 1, 2]) * t0
    es = []
    for t in ts:
        gt = GridField(
            g.values + t * lam[..., None, None] * gam, g.spacing, g.origin, g.boundary_mask
        )
        es.append(dirichlet_energy(gt, fr).total)
    coeffs = np.polyfit(ts, es, 2)
    d = range_variation_derivative(g, fr, rv, comp)
    assert d == pytest.approx(coeffs[1], abs=1e-8 * max(1.0, abs(coeffs[1])) + 1e-8)


def test_range_variation_residual_small_on_minimized(minimized_strong_97):
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    assert np.any(cutoff_weights(g, comp, rv) > 0)
    d = range_variation_derivative(g, fr, rv, comp)
    e = dirichlet_energy(g, fr).total
    assert abs(d) <= 1e-3 * e


def test_range_variation_residual_large_on_perturbed(minimized_strong_97):
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    base = max(abs(range_variation_derivative(g, fr, rv, comp)), 1e-12)
    noisy = noisy_copy(g, scale=0.05, seed=3)
    comp_n = harmonic_companion(hopf_differential(noisy, standard_frame(2, 2)))
    d = range_variation_derivative(noisy, standard_frame(2, 2), rv, comp_n)
    assert abs(d) > 10 * base


def test_range_variation_perturbation_linearity(minimized_strong_97):
    # embedded image of the varied field moves linearly toward the level target
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    lam = cutoff_weights(g, comp, rv)
    gam = rv.retraction(g.values)
    t = 0.25
    gt = g.values + t * lam[..., None, None] * gam
    target = xi0(fr, chain.levels[0].decomposition.rebuild()).flat
    active = lam > 0
    from qvalued import embed_grid

    f_emb = embed_grid(g, fr)
    t_emb = embed_grid(GridField(gt, g.spacing, g.origin, g.boundary_mask), fr)
    want = f_emb + t * lam[..., None] * (target - f_emb)
    np.testing.assert_allclose(t_emb[active], want[active], atol=1e-10)


def test_range_variation_stays_inside_site_balls(minimized_strong_97):
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    lam = cutoff_weights(g, comp, rv)
    gam = rv.retraction(g.values)
    sigma = chain.levels[0].sigma
    sites = chain.levels[0].decomposition.sites
    for t in (-0.5, -0.1, 0.1, 0.5):
        gt = g.values + t * lam[..., None, None] * gam
        active = lam > 0
        sheets = gt[active]
        d = np.linalg.norm(sheets[..., None, :] - sites, axis=-1).min(-1)
        assert d.max() <= 0.4 * sigma + 1e-9


def test_range_variation_boundary_pinned(minimized_strong_97):
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    lam = cutoff_weights(g, comp, rv)
    assert np.all(lam[g.boundary_mask] == 0.0)


def test_retraction_vanishes_at_sites_and_far(minimized_strong_97):
    _, _, _, chain, rv = _range_setup(minimized_strong_97)
    sites = rv.sites
    np.testing.assert_allclose(rv.retraction(sites.copy()), 0.0, atol=1e-14)
    sigma = rv.sigma
    far = sites[0] + np.array([0.6 * sigma, 0.0])
    np.testing.assert_allclose(rv.retraction(far[None]), 0.0, atol=1e-14)
    rng = np.random.default_rng(1)
    y1 = sites[0] + rng.normal(size=(200, 2)) * 0.4 * sigma
    y2 = y1 + rng.normal(size=(200, 2)) * 0.05 * sigma
    num = np.linalg.norm(rv.retraction(y1) - rv.retraction(y2), axis=-1)
    den = np.linalg.norm(y1 - y2, axis=-1)
    assert (num / den).max() <= RETRACTION_LIPSCHITZ + 1e-6


def test_retraction_lipschitz_constant_is_sharp(minimized_strong_97):
    # the constant is that of the radial profile s chi(s), and a short radial
    # pair about s = 0.2 sigma (2 + 0.5486) attains it at the level's own sigma
    assert RETRACTION_LIPSCHITZ == pytest.approx(retraction_lipschitz(), rel=1e-9)
    _, _, _, _, rv = _range_setup(minimized_strong_97)
    e = np.array([0.6, 0.8])
    s = 0.2 * rv.sigma * (2 + 0.5486)
    y = rv.sites[0] + np.outer([s - 1e-4 * rv.sigma, s + 1e-4 * rv.sigma], e)
    ratio = np.linalg.norm(np.subtract(*rv.retraction(y))) / np.linalg.norm(y[1] - y[0])
    assert ratio == pytest.approx(RETRACTION_LIPSCHITZ, rel=1e-6)
    assert ratio <= RETRACTION_LIPSCHITZ


def test_stationarity_residual_does_not_depend_on_the_field_scale(tmp_path):
    # the retraction check compares pure numbers, so the field scaled by 4
    # (exact in floats) is no longer refused: its energy and domain
    # derivatives are exactly 16 times those of the field
    f = two_sheet_field(33, seed=0)
    frame = standard_frame(2, 2)
    big = GridField(4.0 * f.values, f.spacing, f.origin)
    res = stationarity_residual(f, frame, trials=8)
    res_big = stationarity_residual(big, frame, trials=8)
    assert res_big.energy == 16 * res.energy
    assert res_big.domain_derivatives == tuple(16 * d for d in res.domain_derivatives)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big.to_dict()))
    assert main(["variations", "--input", str(path), "--output", str(tmp_path / "out.json")]) == 0


def test_build_admissible_variation_validation(minimized_strong_97):
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    sigma0 = chain.levels[0].sigma
    with pytest.raises(InvalidInputError):
        build_admissible_variation(chain, 0, -0.1, sigma0 / 20, rv.w_star)
    with pytest.raises(InvalidInputError):
        build_admissible_variation(chain, 0, 0.1 * sigma0, sigma0 / 5, rv.w_star)
    with pytest.raises(InvalidInputError):
        build_admissible_variation(chain, 99, 0.1 * sigma0, sigma0 / 20, rv.w_star)


@pytest.mark.parametrize("level, rho, eps", [
    (0, 0.1, math.nan), (0, math.nan, 0.01), (0, 0.1, math.inf),
    (1, math.nan, 0.01), (1, math.inf, 0.01), (1, 1.0, math.nan),
], ids=["eps_nan", "rho_nan", "eps_inf", "last_rho_nan", "last_rho_inf", "last_eps_nan"])
def test_build_admissible_variation_refuses_non_finite_parameters(level, rho, eps):
    # NaN fails every comparison, and the last level's sigma is infinite,
    # so neither the rho nor the eps range stopped them
    f = two_sheet_field(33, seed=0)
    base = f.node_value((16, 16))
    chain = nested_chain(base, angle_separated_frame(support(base)))
    assert len(chain.levels) == 2 and math.isinf(chain.levels[1].sigma)
    assert 0.1 < chain.levels[0].sigma and 0.01 < chain.levels[0].sigma / 10
    with pytest.raises(InvalidInputError):
        build_admissible_variation(chain, level, rho, eps, (16, 16))


def test_range_variation_not_in_ball_guard(minimized_strong_97):
    # an oversized rho lets sheets under the cutoff escape their site balls
    g, fr, comp, chain, _ = _range_setup(minimized_strong_97)
    sigma0 = chain.levels[0].sigma
    rv_big = build_admissible_variation(chain, 0, 0.99 * sigma0, sigma0 / 20, (48, 44))
    with pytest.raises(NotInBallError):
        range_variation_derivative(g, fr, rv_big, comp)


def test_stationarity_residual_minimized_vs_noisy(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    res = stationarity_residual(g, fr, trials=4, seed=1)
    assert res.range_trials > 0
    assert res.domain_max <= 1e-3 * res.energy
    assert res.range_max <= 1e-3 * res.energy
    noisy = noisy_copy(g, scale=0.05, seed=5)
    res_n = stationarity_residual(noisy, fr, trials=4, seed=1)
    assert res_n.domain_max > 10 * max(res.domain_max, 1e-12)


def test_domain_variation_jacobian_consistency():
    v = DomainVariation((0.1, -0.05), 0.3, (0.6, -0.8))
    rng = np.random.default_rng(2)
    pts = rng.uniform(-0.15, 0.25, size=(50, 2))
    jac = v.jacobian(pts)
    step = 1e-6
    for axis in range(2):
        shift = np.zeros(2)
        shift[axis] = step
        fd = (v.displacement(pts + shift) - v.displacement(pts - shift)) / (2 * step)
        np.testing.assert_allclose(jac[..., axis], fd, atol=1e-8)


def _interior_limits(f):
    h = f.spacing
    return (f.origin[0] + h, f.origin[0] + (f.nx - 2) * h), (f.origin[1] + h, f.origin[1] + (f.ny - 2) * h)


@pytest.mark.parametrize("where", ["interior_limit", "centred"])
def test_domain_derivative_matches_full_grid_oracle(minimized_strong_97, where):
    # a bump moves only the nodes of its support box; the cells outside it have
    # the same energy at +t and -t, so the local sum differs only in rounding
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    e = dirichlet_energy(g, fr).total
    (x_lo, x_hi), (y_lo, y_hi) = _interior_limits(g)
    gap = 1e-6 * g.spacing
    bumps = []
    for rad in (0.3, 10.5 * g.spacing, 12 * g.spacing):
        if where == "interior_limit":
            centres = [(x_lo + rad + gap, y_hi - rad - gap), (x_hi - rad - gap, y_lo + rad + gap)]
        else:
            centres = [(0.0, 0.0), (0.5 * g.spacing, -0.25 * g.spacing)]
        for c in centres:
            for th in (0.3, 2.0, 4.4):
                bumps.append(DomainVariation(c, rad, (math.cos(th), math.sin(th))))
    for v in bumps:
        d = domain_variation_derivative(g, fr, v)
        assert abs(d - full_grid_domain_derivative(g, fr, v)) <= 1e-9 * e


def test_range_derivative_matches_full_grid_oracle(minimized_strong_97):
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    e = dirichlet_energy(g, fr).total
    comp = harmonic_companion(hopf_differential(g, fr))
    checked = 0
    for w in ((48, 44), (30, 60), (62, 35), (20, 20)):
        base = QPoint(g.values[w[0], w[1]].copy())
        chain = nested_chain(base, angle_separated_frame(support(base)))
        lo, hi = monotone_rho_interval(g, comp, fr, w, 0, chain)
        for frac in (0.3, 0.6, 0.9):
            rho = lo + frac * (hi - lo)
            rv = build_admissible_variation(chain, 0, rho, hi / 8, w)
            if not np.any(cutoff_weights(g, comp, rv) > 0):
                continue
            d = range_variation_derivative(g, fr, rv, comp)
            assert abs(d - full_grid_range_derivative(g, fr, rv, comp)) <= 1e-9 * e
            checked += 1
    assert checked >= 6


def test_stationarity_residual_embeds_the_grid_once(minimized_strong_97, monkeypatch):
    g = minimized_strong_97.field
    calls = count_embed_grid(monkeypatch)
    res = stationarity_residual(g, standard_frame(2, 2), trials=4, seed=1)
    assert res.domain_trials == 4 and res.range_trials > 0
    assert calls == [g.values.shape]


def test_diagnostic_battery_embeds_the_grid_twice(minimized_strong_97, monkeypatch):
    # once for the caller's Hopf field, whose companion carries the embedding
    # to the ladder, the certificates and the key lemma, and once for the
    # companion stationarity_residual builds for itself
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    w = (48, 44)
    calls = count_embed_grid(monkeypatch)
    comp = harmonic_companion(hopf_differential(g, fr))
    base = QPoint(g.values[w].copy())
    monotonicity_report(g, comp, fr, w, nested_chain(base, angle_separated_frame(support(base))))
    stationarity_residual(g, fr, trials=2, seed=1)
    for radius in (0.6, 0.45, 0.3):
        continuity_certificate(g, fr, tuple(g.node_position(w)), radius, comp)
    key_lemma_check(g, comp, w, 0.5, fr)
    assert calls == [g.values.shape] * 2


def test_stationarity_residual_samples_each_axis_by_its_own_margin():
    # each axis keeps its own margin from the rim, so a short axis beside a
    # long one still has base nodes; an axis with no room is refused by name
    f = two_sheet_field(65, seed=4)
    frame = standard_frame(2, 2)
    for box in (np.s_[:9], np.s_[:, :9]):
        g = GridField(f.values[box], f.spacing, f.origin)
        res = stationarity_residual(g, frame, trials=2, seed=0)
        assert res.domain_trials == 2 and math.isfinite(res.range_max)
    with pytest.raises(InvalidInputError, match="at least 7 nodes"):
        stationarity_residual(GridField(f.values[:5, :5], f.spacing, f.origin), frame, trials=2)


def test_vacuous_range_trials_are_counted_apart():
    # on a 9-node strip each range cutoff covers only its base node, whose
    # retraction is 0: such a trial moves no sheet, so it fills its slot but
    # is reported as vacuous instead of as a zero derivative
    f = two_sheet_field(65, seed=4)
    frame = standard_frame(2, 2)
    for box in (np.s_[:9], np.s_[:, :9]):
        g = GridField(f.values[box], f.spacing, f.origin)
        res = stationarity_residual(g, frame, trials=8, seed=0)
        assert res.range_trials == 0 and res.range_vacuous == 8
        assert res.range_derivatives == () and res.range_max == 0.0
        assert res.to_dict()["range_vacuous"] == 8
