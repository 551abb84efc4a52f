import math

import numpy as np
import pytest

from qvalued import (
    DEFAULT_C_CL,
    GridField,
    GridSpec,
    InvalidInputError,
    MinimizeOptions,
    QPoint,
    courant_lebesgue_slice,
    dirichlet_energy,
    dirichlet_energy_matched,
    disc_energy,
    metric_g,
    minimize,
    rotated_frame,
    standard_frame,
)

from helpers import (
    harmonic_boundary_field,
    meshgrid_for,
    noisy_copy,
    sqrt_grid_field,
    two_sheet_field,
    unit_square_grid,
)
from oracles import harmonic_extension, sqrt_disc_energy, sqrt_circle_oscillation


def constant_field(nn=9, value=(0.3, -0.4)):
    vals = np.tile(np.array(value), (nn, nn, 2, 1))
    return GridField(vals, 1.0 / (nn - 1), (0.0, 0.0))


def test_grid_field_validation():
    with pytest.raises(InvalidInputError):
        GridField(np.zeros((4, 4, 1)), 0.1)  # wrong rank
    mask = np.zeros((4, 4), dtype=bool)
    with pytest.raises(InvalidInputError):
        GridField(np.zeros((4, 4, 1, 1)), 0.1, boundary_mask=mask)  # rim not masked
    f = GridField(np.zeros((4, 5, 2, 3)), 0.1)
    assert f.ny == 4 and f.nx == 5 and f.q_sheets == 2 and f.n == 3
    assert f.boundary_mask[0].all() and f.boundary_mask[:, -1].all()


def test_grid_field_json_roundtrip():
    f = sqrt_grid_field(9)
    d = f.to_dict()
    g = GridField.from_dict(d)
    np.testing.assert_allclose(g.values, f.values)
    assert g.spacing == f.spacing and g.origin == f.origin


def test_energy_constant_field_zero():
    f = constant_field()
    fr = standard_frame(2, 2)
    assert dirichlet_energy(f, fr).total == 0.0
    assert dirichlet_energy_matched(f).total == 0.0


def test_energy_affine_exact():
    # single-valued linear field: energy equals |A|^2 * covered area exactly
    nn = 17
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    a = np.array([[0.7, -0.3], [0.2, 1.1]])
    vals = np.einsum("ij,yxj->yxi", a, np.stack([x, y], -1))[:, :, None, :]
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 1)
    area = (2.0 - spec.spacing) ** 2  # cells cover the grid minus half a cell rim
    area = (spec.spacing * (nn - 1)) ** 2
    want = (a**2).sum() * area
    assert dirichlet_energy(f, fr).total == pytest.approx(want, rel=1e-12)


def test_energy_breakdown_consistency():
    f = sqrt_grid_field(17)
    fr = standard_frame(2, 2)
    br = dirichlet_energy(f, fr)
    assert br.per_cell.shape == (16, 16)
    assert np.all(br.per_cell >= 0)
    assert br.total == pytest.approx(br.per_cell.sum(), rel=1e-12)


def test_matched_equals_plain_for_single_valued():
    nn = 13
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    vals = np.stack([np.sin(x), x * y], -1)[:, :, None, :]
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 1)
    assert dirichlet_energy_matched(f).total == pytest.approx(
        dirichlet_energy(f, fr).total, rel=1e-14
    )


def test_matched_equals_plain_for_separated_sheets():
    f = two_sheet_field(17, seed=3)
    fr = standard_frame(2, 2)
    e1 = dirichlet_energy(f, fr).total
    e2 = dirichlet_energy_matched(f).total
    assert abs(e1 - e2) <= 1e-10 * e1
    np.testing.assert_allclose(
        dirichlet_energy_matched(f).per_cell, dirichlet_energy(f, fr).per_cell, atol=1e-12
    )


def test_sqrt_field_values():
    f = sqrt_grid_field(17)
    fr = standard_frame(2, 2)
    # z = 1 node
    p = f.node_value((8, 16))
    assert metric_g(p, QPoint([[1.0, 0.0], [-1.0, 0.0]])) == pytest.approx(0.0, abs=1e-12)
    # z = 0 node: double point
    p0 = f.node_value((8, 8))
    np.testing.assert_allclose(p0.points, 0.0, atol=1e-15)


def test_sqrt_field_holder_continuity():
    f = sqrt_grid_field(33)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(200):
        iy, ix = rng.integers(0, 33, 2)
        jy, jx = rng.integers(0, 33, 2)
        dz = math.hypot((ix - jx) * f.spacing, (iy - jy) * f.spacing)
        if dz == 0:
            continue
        g = metric_g(f.node_value((iy, ix)), f.node_value((jy, jx)))
        worst = max(worst, g / math.sqrt(dz))
    assert worst <= 2.0  # G <= sqrt(2)*sqrt(2|dz|) = 2 sqrt(|dz|)


def test_sqrt_energy_converges_to_quadrature():
    fr = standard_frame(2, 2)
    want = sqrt_disc_energy(0.8)
    errs = []
    for nn in (33, 65, 129):
        f = sqrt_grid_field(nn)
        got = disc_energy(f, fr, (0.0, 0.0), 0.8)
        errs.append(abs(got - want))
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] / want < 0.02


def test_energy_frame_invariance():
    f = two_sheet_field(33, seed=1)
    fr_a = standard_frame(2, 2)
    fr_b = rotated_frame(2, 2, seed=5)
    e_a = dirichlet_energy(f, fr_a).total
    e_b = dirichlet_energy(f, fr_b).total
    assert abs(e_a - e_b) <= 1e-9 * e_a


def test_energy_refinement_cauchy_for_sqrt():
    fr = standard_frame(2, 2)
    es = [dirichlet_energy(sqrt_grid_field(nn), fr).total for nn in (17, 33, 65, 129)]
    gaps = [abs(es[i + 1] - es[i]) for i in range(3)]
    assert gaps[2] < gaps[1] < gaps[0]


def test_minimize_matches_sparse_oracle():
    f, g = harmonic_boundary_field(25)
    res = minimize(f, MinimizeOptions(max_iters=120, tol_rel_energy=0.0))
    oracle = harmonic_extension(g, f.boundary_mask)
    err = np.abs(res.field.values[..., 0, 0] - oracle).max()
    assert err <= 1e-8
    assert np.all(np.diff(res.energies) <= 1e-12)


def test_minimize_interior_island_matches_sparse_oracle():
    f, g = harmonic_boundary_field(25)
    mask = f.boundary_mask.copy()
    mask[9:13, 14:17] = True
    data = np.where(mask, g, 0.0)
    data[9:13, 14:17] += 0.5  # island values off the harmonic extension of the rim
    vals = data[..., None, None].copy()
    res = minimize(GridField(vals, f.spacing, f.origin, mask))
    oracle = harmonic_extension(data, mask)
    assert res.iterations <= 3
    assert np.abs(res.field.values[..., 0, 0] - oracle).max() <= 1e-10
    assert np.array_equal(res.field.values[mask], vals[mask])


def test_minimize_energy_monotone_two_valued():
    f = noisy_copy(two_sheet_field(17, seed=2), scale=0.3, seed=4)
    res = minimize(f, MinimizeOptions(max_iters=40))
    assert np.all(np.diff(res.energies) <= 1e-12)
    assert res.energies[-1] < res.energies[0]


def test_minimize_fixed_point():
    f, _ = harmonic_boundary_field(17)
    first = minimize(f, MinimizeOptions(max_iters=200, tol_rel_energy=0.0))
    again = minimize(first.field, MinimizeOptions(max_iters=50, tol_rel_energy=1e-12))
    assert again.iterations == 1
    assert again.converged


def test_minimize_fixed_point_branched():
    # the sqrt field's matching is not the identity near the branch point
    first = minimize(sqrt_grid_field(33))
    again = minimize(first.field)
    assert again.iterations == 1
    assert again.converged
    assert np.array_equal(again.field.values, first.field.values)


def test_minimize_sqrt_boundary_close_to_analytic(minimized_sqrt_97):
    analytic = sqrt_grid_field(97)
    e_analytic = dirichlet_energy_matched(analytic).total
    e_min = minimized_sqrt_97.energies[-1]
    assert e_min <= e_analytic
    assert abs(e_analytic - e_min) <= 0.02 * e_analytic
    assert np.all(np.diff(minimized_sqrt_97.energies) <= 1e-12)


def test_minimize_preserves_boundary():
    f = two_sheet_field(17, seed=5)
    res = minimize(f, MinimizeOptions(max_iters=10))
    mask = f.boundary_mask
    np.testing.assert_allclose(res.field.values[mask], f.values[mask])


def test_courant_lebesgue_constant_field():
    f = constant_field(17)
    fr = standard_frame(2, 2)
    r, osc = courant_lebesgue_slice(f, fr, (0.5, 0.5), 0.4)
    assert osc == pytest.approx(0.0, abs=1e-14)
    assert 0.2 <= r <= 0.4 + 1e-12


def test_courant_lebesgue_linear_field():
    nn = 65
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    vals = x[:, :, None, None].copy()
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(1, 1)
    radius = 0.5
    r, osc = courant_lebesgue_slice(f, fr, (0.0, 0.0), radius)
    # oscillation of Re z on a circle of radius r is exactly 2r
    assert osc == pytest.approx(2 * r, rel=1e-3)
    bound = DEFAULT_C_CL * math.sqrt(disc_energy(f, fr, (0.0, 0.0), radius))
    assert osc <= bound


def test_courant_lebesgue_sqrt_field():
    f = sqrt_grid_field(129)
    fr = standard_frame(2, 2)
    radius = 0.5
    r, osc = courant_lebesgue_slice(f, fr, (0.0, 0.0), radius)
    want = sqrt_circle_oscillation(r)
    assert osc == pytest.approx(want, rel=0.02)
    bound = DEFAULT_C_CL * math.sqrt(disc_energy(f, fr, (0.0, 0.0), radius))
    assert osc <= bound


def test_courant_lebesgue_disc_outside_grid():
    f = sqrt_grid_field(17)
    fr = standard_frame(2, 2)
    with pytest.raises(InvalidInputError):
        courant_lebesgue_slice(f, fr, (0.9, 0.9), 0.5)


def test_gridspec_validation():
    with pytest.raises(InvalidInputError):
        GridSpec(1, 5, 0.1)
    with pytest.raises(InvalidInputError):
        GridSpec(5, 5, -0.1)


def test_energy_affine_exact_non_square_grid():
    # guards the (iy, ix) index conventions on rectangular grids
    nx, ny, h = 13, 9, 0.125
    spec = GridSpec(nx, ny, h, (-0.5, 0.25))
    xs = spec.origin[0] + h * np.arange(nx)
    ys = spec.origin[1] + h * np.arange(ny)
    x, y = np.meshgrid(xs, ys)
    a = np.array([[0.4, -1.2], [0.9, 0.3]])
    vals = np.einsum("ij,yxj->yxi", a, np.stack([x, y], -1))[:, :, None, :]
    f = GridField(vals, h, spec.origin)
    fr = standard_frame(2, 1)
    area = (h * (nx - 1)) * (h * (ny - 1))
    assert dirichlet_energy(f, fr).total == pytest.approx((a**2).sum() * area, rel=1e-12)
    assert dirichlet_energy_matched(f).total == pytest.approx(
        dirichlet_energy(f, fr).total, rel=1e-14
    )


def test_courant_lebesgue_radius_too_small():
    f = sqrt_grid_field(17)
    with pytest.raises(InvalidInputError):
        courant_lebesgue_slice(f, standard_frame(2, 2), (0.0, 0.0), f.spacing)


def test_grid_field_from_dict_shape_mismatch():
    f = sqrt_grid_field(9)
    d = f.to_dict()
    d["nx"] = 5
    with pytest.raises(InvalidInputError):
        GridField.from_dict(d)


def test_minimize_q7_fallback_paths():
    # tiny grid with Q beyond the permutation table exercises the Hungarian
    # edge-matching fallbacks in both energies and the relaxation
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(5, 5, 7, 2))
    f = GridField(vals, 0.25, (0.0, 0.0))
    e = dirichlet_energy_matched(f)
    assert np.isfinite(e.total) and e.total > 0
    res = minimize(f, MinimizeOptions(max_iters=4))
    assert np.all(np.diff(res.energies) <= 1e-12)
