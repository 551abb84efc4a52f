import gc
import json
import math
import tracemalloc

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
    RangeVariation,
    angle_separated_frame,
    build_admissible_variation,
    continuity_certificate,
    d_star,
    dirichlet_energy,
    dirichlet_energy_matched,
    domain_variation_derivative,
    frame_with_extra_directions,
    harmonic_companion,
    hopf_differential,
    key_lemma_check,
    minimize,
    monotone_rho_interval,
    monotonicity_report,
    nested_chain,
    psi_k,
    range_variation_derivative,
    rotated_frame,
    standard_frame,
    stationarity_residual,
    support,
    valid_rho_interval,
    xi0,
)
from qvalued import analysis, variations
from qvalued.analysis import _Pivot, _check_companion
from qvalued.cli import main
from qvalued.variations import RETRACTION_LIPSCHITZ, cutoff_weights

from helpers import (
    count_analysis_match_edges,
    harmonic_boundary_field,
    meshgrid_for,
    count_embed_grid,
    noisy_copy,
    root_grid_field,
    sqrt_grid_field,
    two_sheet_field,
    unit_square_grid,
)
from oracles import (full_grid_domain_derivative, full_grid_range_derivative, retraction_lipschitz,
                     sequential_stationarity_residual)


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


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_domain_variation_step_check_is_the_two_by_two_determinant_check(sign):
    # the Jacobian d grad(eta)^T has rank one, so det(I + sJ) = 1 + s grad(eta).d;
    # a direction scaled just past the first fold of the oracle's 2x2
    # determinant check is refused, and one just short of it is not.  The
    # bump's grid samples are not symmetric about its centre, so one sign of
    # the direction folds first at +t and the other at -t
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)

    def bump(scale):
        return DomainVariation((0.05, -0.1), 0.4, (0.6 * sign * scale, 0.8 * sign * scale))

    def oracle_folds(scale):
        try:
            full_grid_domain_derivative(f, fr, bump(scale))
        except InvalidStepError:
            return True
        return False

    lo, hi = 1.0, 2.0
    while not oracle_folds(hi):
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if oracle_folds(mid) else (mid, hi)
    with pytest.raises(InvalidStepError):
        domain_variation_derivative(f, fr, bump(hi * (1 + 1e-9)))
    below = bump(lo * (1 - 1e-9))
    d = domain_variation_derivative(f, fr, below)
    assert abs(d - full_grid_domain_derivative(f, fr, below)) <= 1e-9 * dirichlet_energy(f, fr).total


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
    # the type itself refuses what the builder refuses
    g, fr, comp, chain, rv = _range_setup(minimized_strong_97)
    sigma0 = chain.levels[0].sigma
    for build in (build_admissible_variation, RangeVariation):
        with pytest.raises(InvalidInputError):
            build(chain, 0, -0.1, sigma0 / 20, rv.w_star)
        with pytest.raises(InvalidInputError):
            build(chain, 0, 1.01 * sigma0, sigma0 / 20, rv.w_star)
        with pytest.raises(InvalidInputError):
            build(chain, 0, 0.1 * sigma0, sigma0 / 5, rv.w_star)
        with pytest.raises(InvalidInputError):
            build(chain, 99, 0.1 * sigma0, sigma0 / 20, rv.w_star)
        with pytest.raises(InvalidInputError):
            build(chain, -1, 0.1 * sigma0, sigma0 / 20, rv.w_star)


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
    for build in (build_admissible_variation, RangeVariation):
        with pytest.raises(InvalidInputError):
            build(chain, level, rho, eps, (16, 16))


def test_range_variation_stores_its_base_node_as_ints():
    f = two_sheet_field(33, seed=0)
    base = f.node_value((16, 16))
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rv = RangeVariation(chain, 0, 0.1, 0.01, (np.int64(16), 16.0))
    assert rv.w_star == (16, 16) and all(type(i) is int for i in rv.w_star)
    assert build_admissible_variation(chain, 0, 0.1, 0.01, (np.int64(16), 16.0)).w_star == (16, 16)


@pytest.mark.parametrize("k", [True, 0.5, -1, 2], ids=["bool", "half", "negative", "count"])
def test_every_chain_level_reader_refuses_a_level_off_the_chain(k):
    # a level is a whole number below the level count: True is no level 1,
    # 0.5 no index, and -1 no alias of the last level
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    w = (16, 16)
    base = f.node_value(w)
    chain = nested_chain(base, angle_separated_frame(support(base)))
    assert len(chain.levels) == 2
    readers = [
        lambda: chain.level(k),
        lambda: RangeVariation(chain, k, 0.1, 0.01, w),
        lambda: d_star(f, comp, w, k, chain),
        lambda: psi_k(f, comp, fr, w, k, chain, 0.1, 0.01),
        lambda: valid_rho_interval(f, comp, fr, w, k, chain),
        lambda: monotone_rho_interval(f, comp, fr, w, k, chain),
    ]
    for read in readers:
        with pytest.raises(InvalidInputError, match=f"chain level {k} out of range"):
            read()
    assert chain.level(np.int64(1)) is chain.levels[1]


def test_range_variation_derivative_is_zero_when_the_cutoff_covers_no_node():
    # the level-1 site is far from every sheet of the base node, so d*_1 >= rho
    # on every node and the variation moves nothing
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    base = f.node_value((16, 16))
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rv = RangeVariation(chain, 1, 0.01, 0.01, (16, 16))
    assert not np.any(cutoff_weights(f, comp, rv) > 0)
    assert range_variation_derivative(f, fr, rv, comp) == 0.0


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


def test_range_trial_matches_both_signs_in_one_assign_call_per_axis(monkeypatch):
    # the box of moving nodes is matched at +t and -t in one batch per axis,
    # each cell the float a lone box gives
    import qvalued.field as field
    from qvalued.qspace import assign

    f = root_grid_field(129, 2, z0=0.05 + 0.16j)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    w = (75, 109)
    base = QPoint(f.values[w].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    sigma = chain.levels[0].sigma
    rv = RangeVariation(chain, 0, 0.24 * sigma, sigma / 20, w)
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return assign(a, b)

    monkeypatch.setattr(field, "assign", counting)
    d = range_variation_derivative(f, fr, rv, comp)
    assert [shape[0] for shape in calls] == [2, 2] and d != 0.0
    monkeypatch.undo()
    lam = cutoff_weights(f, comp, rv)
    iy, ix = np.nonzero(lam)
    box = np.s_[iy.min() - 1 : iy.max() + 2, ix.min() - 1 : ix.max() + 2]
    vals = f.values[box]
    bump = lam[box][..., None, None] * rv.retraction(vals)
    t = f.spacing**2
    plus = dirichlet_energy_matched(GridField(vals + t * bump, f.spacing)).total
    minus = dirichlet_energy_matched(GridField(vals - t * bump, f.spacing)).total
    assert d == (plus - minus) / (2 * t)


def test_stationarity_residual_embeds_the_grid_once(minimized_strong_97, monkeypatch):
    g = minimized_strong_97.field
    calls = count_embed_grid(monkeypatch)
    res = stationarity_residual(g, standard_frame(2, 2), trials=4, seed=1)
    assert res.domain_trials == 4 and res.range_trials > 0
    assert calls == [g.values.shape]


def test_diagnostic_battery_embeds_the_grid_once(minimized_strong_97, monkeypatch):
    # only for the domain trials of stationarity_residual, which reuses the
    # companion the caller holds: the Hopf field, the ladder and the key
    # lemma embed nothing, and each certificate only its disc's node box
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
    assert calls == [g.values.shape]


def _stationarity_field(which, request):
    if which == "root161":
        return root_grid_field(161, 2, z0=0.11 - 0.07j), 2
    if which == "harmonic_two_sheet":
        return request.getfixturevalue("minimized_strong_97").field, 2
    return root_grid_field(65, 3, z0=0.13 + 0.07j), 3


@pytest.mark.parametrize("which", ["root161", "harmonic_two_sheet", "root_q3"])
def test_stationarity_residual_reuses_the_held_companion_bitwise(which, request, monkeypatch):
    # with no companion held the residual builds its own; with the caller's
    # held, in any frame, it builds none and reports the floats of a cold run
    # in that frame: a frame that differs only past its first n directions
    # gives the standard frame's, and a rotated one its own domain trials
    f, q = _stationarity_field(which, request)
    fr = standard_frame(2, q)
    turned = rotated_frame(2, q, seed=3)
    gc.collect()
    calls = count_analysis_match_edges(monkeypatch)
    cold = stationarity_residual(f, fr, trials=4, seed=3)
    cold_turned = stationarity_residual(f, turned, trials=4, seed=3)
    assert calls == [f.values.shape] * 2
    comp = harmonic_companion(hopf_differential(f, fr))
    del calls[:]
    for frame, want in ((fr, cold), (frame_with_extra_directions(2, q, 5), cold),
                        (turned, cold_turned)):
        warm = stationarity_residual(f, frame, trials=4, seed=3)
        assert json.dumps(warm.to_dict()) == json.dumps(want.to_dict())
    assert calls == []
    assert analysis._last_companion() is comp


@pytest.mark.parametrize("change", ["edited_in_place", "spacing", "origin"])
def test_stationarity_residual_does_not_reuse_a_companion_that_does_not_fit(change, monkeypatch):
    # the held companion is refused by the companion check, so the residual
    # builds its own from the field it was given
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    g = f
    if change == "edited_in_place":
        f.values[16, 10] += 1e-3
    elif change == "spacing":
        g = GridField(f.values, 2 * f.spacing, f.origin)
    else:
        g = GridField(f.values, f.spacing, (f.origin[0] + f.spacing, f.origin[1]))
    with pytest.raises(InvalidInputError):
        _check_companion(g, comp, fr)
    calls = count_analysis_match_edges(monkeypatch)
    stationarity_residual(g, fr, trials=2, seed=0)
    assert calls == [g.values.shape]


def test_a_dropped_companion_is_not_reused(monkeypatch):
    # the companion is held weakly: once its caller drops it, the slot is
    # empty and the residual builds its own
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    assert analysis._last_companion() is comp
    del comp
    gc.collect()
    assert analysis._last_companion() is None
    calls = count_analysis_match_edges(monkeypatch)
    stationarity_residual(f, fr, trials=2, seed=0)
    assert calls == [f.values.shape]


@pytest.mark.parametrize("trials", [0, -2, math.nan, 1.5, 2.0, True, np.float64(2.0)])
def test_stationarity_residual_refuses_trials_that_are_not_a_positive_whole_number(trials):
    # NaN passed the old `trials < 1` and ran no trial; 1.5 ran two
    with pytest.raises(InvalidInputError, match="whole number of trials"):
        stationarity_residual(two_sheet_field(33, seed=0), standard_frame(2, 2), trials=trials)


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


def test_stationarity_residual_builds_no_retraction_certificate(monkeypatch):
    # the battery builds its range variations directly, so the sampled
    # Lipschitz certificate of `build_admissible_variation` never runs in it,
    # and the residual is the one it was with the certificate
    f = two_sheet_field(33, seed=0)
    frame = standard_frame(2, 2)
    want = stationarity_residual(f, frame, trials=8, seed=0).to_dict()
    assert want["range_trials"] > 0

    def refuse(*args, **kwargs):
        raise AssertionError("the battery ran the retraction certificate")

    monkeypatch.setattr(variations, "build_admissible_variation", refuse)
    assert stationarity_residual(f, frame, trials=8, seed=0).to_dict() == want


def _record(monkeypatch, owner, name, wrap=None) -> list:
    """Wrap owner.<name>, keeping each result, or ``wrap``'s result."""
    calls, orig = [], getattr(owner, name)

    def recorded(*args):
        out = (wrap or orig)(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(owner, name, recorded)
    return calls


def test_stationarity_residual_skips_base_nodes_with_zero_tau(monkeypatch):
    # a field of y alone on a dyadic grid: the pivot circle's theta = 0
    # sample lands exactly on a node of the base row, whose value is the
    # base node's, so tau* = 0 and every range attempt is skipped before
    # any level range is read
    f = two_sheet_field(33, seed=0)
    g = GridField(np.repeat(f.values[:, 16:17], f.nx, axis=1), f.spacing, f.origin)
    batches = _record(monkeypatch, variations, "_pivot")
    ranges = _record(monkeypatch, _Pivot, "level")
    res = stationarity_residual(g, standard_frame(2, 2), trials=4, seed=0)
    pivots = [p for batch in batches for p in batch]
    assert len(pivots) == 40 and all(p.tau == 0.0 for p in pivots)
    assert ranges == []
    assert res.domain_trials == 4
    assert res.range_trials == 0 and res.range_vacuous == 0 and res.range_max == 0.0


@pytest.mark.parametrize("case", ["rho_nan", "rho_negative", "rho_above_sigma", "sheets_leave_ball"])
def test_stationarity_residual_skips_refused_rungs(case, monkeypatch):
    # a rung whose rho the variation refuses, or whose cutoff lets a sheet
    # leave its site ball, is skipped: neither a derivative nor vacuous
    f = two_sheet_field(33, seed=0)
    frame = standard_frame(2, 2)
    want = stationarity_residual(f, frame, trials=4, seed=0)
    orig = _Pivot.level

    def level_range(piv, k):
        lo, hi, _ = orig(piv, k)
        sigma = piv.chain.levels[k].sigma
        # the battery varies at rho = lo + 0.6 (mono - lo)
        target = {"rho_nan": math.nan, "rho_negative": -1.0, "rho_above_sigma": 2.0 * sigma,
                  "sheets_leave_ball": 0.99 * sigma}[case]
        return lo, hi, lo + (target - lo) / 0.6

    refused = []
    orig_move = variations._range_move

    def range_move(*args):
        try:
            return orig_move(*args)
        except NotInBallError:
            refused.append(args[1].level)
            raise

    ranges = _record(monkeypatch, _Pivot, "level", level_range)
    monkeypatch.setattr(variations, "_range_move", range_move)
    res = stationarity_residual(f, frame, trials=4, seed=0)
    assert len(ranges) == 40 and all(math.isfinite(r[2]) == (case != "rho_nan") for r in ranges)
    assert len(refused) == (40 if case == "sheets_leave_ball" else 0)
    assert res.range_trials == 0 and res.range_vacuous == 0 and res.range_max == 0.0
    assert res.domain_derivatives == want.domain_derivatives


def _sequential_case(which, request):
    """A field of the grouped-battery cases, and its Q."""
    if which in ("strip_rows", "strip_cols"):
        f = two_sheet_field(65, seed=4)
        box = np.s_[:9] if which == "strip_rows" else np.s_[:, :9]
        return GridField(f.values[box], f.spacing, f.origin), 2
    if which in ("y_only", "y_only_left"):
        f = two_sheet_field(33, seed=0)
        y_only = np.repeat(f.values[:, 16:17], f.nx, axis=1)
        if which == "y_only_left":
            y_only = np.where((np.arange(f.nx) < 8)[:, None, None], y_only, f.values)
        return GridField(y_only, f.spacing, f.origin), 2
    if which == "near_double":
        # two of the three sheets 1e-6 apart: k0 = 1, so each attempt has two rungs
        spec = unit_square_grid(65)
        x, y = meshgrid_for(spec)
        s0 = np.stack([0.1 * x, 0.1 * y], -1)
        far = np.stack([1 + 0.1 * x, 0.5 + 0 * y], -1)
        return GridField(np.stack([s0, s0 + np.array([1e-6, 0.0]), far], axis=2), spec.spacing,
                         spec.origin), 3
    return _stationarity_field(which, request)


@pytest.mark.parametrize("trials", [1, 3, 8])
@pytest.mark.parametrize("which", ["root161", "harmonic_two_sheet", "root_q3", "strip_rows",
                                   "strip_cols", "y_only", "y_only_left", "near_double"])
def test_grouped_range_attempts_equal_the_sequential_battery(which, trials, request):
    # the attempts run in groups, each stage once over a group, and report
    # what the one-attempt-at-a-time loop reports: on the strips every trial
    # is vacuous, and on the field of y alone every attempt is skipped up to
    # the cap of 10 trials attempts.  Where y alone fills the left columns
    # some attempts are skipped, so a battery takes several groups; on the
    # near-double field an attempt counts two rungs, so a group's last
    # attempts can fall past the stop and are dropped
    f, q = _sequential_case(which, request)
    fr = standard_frame(2, q)
    comp = harmonic_companion(hopf_differential(f, fr))
    for seed in (0, 7):
        want = sequential_stationarity_residual(f, fr, trials, seed)
        got = stationarity_residual(f, fr, trials=trials, seed=seed)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        if which.startswith("strip"):
            assert got.range_vacuous == trials
        elif which == "y_only":
            assert got.range_trials == got.range_vacuous == 0
    assert analysis._last_companion() is comp


def test_a_group_of_range_attempts_runs_one_tau_star_assign_and_one_box_matching(monkeypatch):
    # on the 161^2 root field every attempt of the first group counts, so the
    # group is the whole battery: tau* of its 8 circles from one `assign`
    # call, d* of every rung from one, and one matching of all its boxes
    import qvalued.qspace as qspace

    f, _ = _stationarity_field("root161", None)
    events = []

    def spy(owner, name, event):
        inner = getattr(owner, name)

        def wrapped(*args):
            events.append(event(*args))
            return inner(*args)

        monkeypatch.setattr(owner, name, wrapped)

    spy(analysis, "_tau_star", lambda f, w_stars, *rest: ("tau*", len(w_stars)))
    spy(variations, "_d_star_at", lambda *args: ("d*", len(args[2])))
    spy(qspace, "assign", lambda *args: "assign")
    spy(variations, "_match_edges", lambda boxes: ("boxes", boxes.shape[0] // 2))
    res = stationarity_residual(f, standard_frame(2, 2), trials=8, seed=7)
    assert res.range_trials + res.range_vacuous == 8
    assert events == [("tau*", 8), "assign", ("d*", 8), "assign", ("boxes", res.range_trials)]


def test_stationarity_memory_does_not_grow_with_the_trials():
    # each batched stage works in runs bounded by ASSIGN_CHUNK_BYTES, so
    # eight times the trials does not take the peak to 1.5 times its size
    f = two_sheet_field(129, seed=0)
    frame = standard_frame(2, 2)
    gc.collect()
    peaks = {}
    for trials in (8, 64):
        tracemalloc.start()
        try:
            res = stationarity_residual(f, frame, trials=trials, seed=7)
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.range_trials + res.range_vacuous == trials
    assert peaks[64] <= 1.5 * peaks[8]
