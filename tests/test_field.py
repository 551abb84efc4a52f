import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qvalued import (
    DEFAULT_C_CL,
    GridField,
    GridSpec,
    InvalidInputError,
    MinimizeOptions,
    QPoint,
    branch_plaquettes,
    courant_lebesgue_slice,
    dirichlet_energy,
    dirichlet_energy_matched,
    disc_energy,
    disc_oscillation,
    embed_grid,
    metric_g,
    minimize,
    rotated_frame,
    standard_frame,
)

from qvalued.field import _comb_gauge, _compose, _match_edges, _neighbour_partners

from helpers import (
    branch_pair_field,
    harmonic_boundary_field,
    meshgrid_for,
    noisy_copy,
    root_grid_field,
    sqrt_grid_field,
    two_sheet_field,
    unit_square_grid,
)
from oracles import (
    SQRT_SQUARE_ENERGY,
    all_pairs_disc_oscillation,
    einsum_embedding,
    frozen_quadratic_solve,
    full_disc_cell_mask,
    full_slice_scan,
    harmonic_extension,
    index_bilinear,
    linspace_circle_points,
    max_pairwise_distance,
    reference_bilinear_array,
    sqrt_circle_oscillation,
    sqrt_disc_energy,
)


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


@pytest.mark.parametrize("spacing, origin", [
    (math.nan, (0.0, 0.0)), (math.inf, (0.0, 0.0)), (-math.inf, (0.0, 0.0)),
    (0.1, (math.nan, 0.0)), (0.1, (0.0, math.inf)), (0.1, (-math.inf, 0.0)),
])
def test_non_finite_grid_geometry_is_refused(spacing, origin):
    # NaN passes `spacing <= 0` and every comparison of the disc tests
    with pytest.raises(InvalidInputError):
        GridField(np.zeros((5, 5, 1, 1)), spacing, origin)
    with pytest.raises(InvalidInputError):
        GridSpec(5, 5, spacing, origin)


@settings(max_examples=60, deadline=None)
@given(q=st.integers(1, 5), ny=st.integers(3, 9), nx=st.integers(3, 9), seed=st.integers(0, 2**32 - 1))
def test_neighbour_partners_undo_the_edge_permutations(q, ny, nx, seed):
    # on random permutation grids, each partner composed with the edge
    # permutation it reads is the identity, both ends of an edge pair the
    # same sheets, and any subset of nodes gets the rows the interior gets
    rng = np.random.default_rng(seed)
    px = np.argsort(rng.random((ny, nx - 1, q)), axis=-1)
    py = np.argsort(rng.random((ny - 1, nx, q)), axis=-1)
    iy, ix = np.ogrid[1 : ny - 1, 1 : nx - 1]
    steps, (down, left, right, up) = zip(*_neighbour_partners(px, py, iy, ix))
    assert steps == ((-1, 0), (0, -1), (0, 1), (1, 0))
    ident = np.broadcast_to(np.arange(q), (ny - 2, nx - 2, q))
    assert np.array_equal(_compose(down, py[:-1, 1:-1]), ident)
    assert np.array_equal(_compose(left, px[1:-1, :-1]), ident)
    assert np.array_equal(right, px[1:-1, 1:]) and np.array_equal(up, py[1:, 1:-1])
    # right then the right neighbour's left partner, up then the upper one's down
    assert np.array_equal(_compose(right[:, :-1], left[:, 1:]), ident[:, 1:])
    assert np.array_equal(_compose(up[:-1], down[1:]), ident[1:])
    sy = rng.integers(1, ny - 1, size=11)
    sx = rng.integers(1, nx - 1, size=11)
    for (_, whole), (_, some) in zip(_neighbour_partners(px, py, iy, ix),
                                     _neighbour_partners(px, py, sy, sx)):
        assert np.array_equal(whole[sy - 1, sx - 1], some)


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


def test_disc_energy_on_its_window_is_the_full_grid_sum():
    # disc_energy matches only the edges of the disc's node window; each cell
    # is the full grid's float and the sum keeps the full-grid mask's order
    fields = [sqrt_grid_field(33), root_grid_field(65, 3, z0=0.05 - 0.03j),
              two_sheet_field(41, seed=2), root_grid_field(97, 2, z0=-0.11 + 0.07j)]
    rng = np.random.default_rng(4)
    for f in fields:
        fr = standard_frame(f.n, f.q_sheets)
        per_cell = dirichlet_energy_matched(f).per_cell
        discs = [((float(x), float(y)), float(r)) for x, y, r in
                 zip(rng.uniform(-1.1, 1.1, 6), rng.uniform(-1.1, 1.1, 6), rng.uniform(0.05, 0.9, 6))]
        discs += [((0.97, -0.9), 0.3), ((0.0, 0.0), 3.0)]  # partly off the grid; the whole grid
        for w0, r in discs:
            want = float(per_cell[full_disc_cell_mask(f, w0, r)].sum())
            assert disc_energy(f, fr, w0, r) == want, (w0, r)
        # no cell centre lies within 0.1 h of a node, nor in any disc off the grid
        for w0, r in (((0.0, 0.0), 0.1 * f.spacing), ((5.0, 5.0), 1.0)):
            assert disc_energy(f, fr, w0, r) == 0.0


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


def test_minimised_square_root_energy_converges_to_the_continuum_energy():
    # the calibrated continuum minimum 8 ln(1 + sqrt 2) is approached from
    # below at first order: errors about 0.068, 0.034 and 0.017
    errors = []
    for nn in (65, 129, 257):
        res = minimize(sqrt_grid_field(nn))
        assert res.converged
        errors.append(SQRT_SQUARE_ENERGY - res.energies[-1])
    assert all(e > 0 for e in errors)
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 0.9


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


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(q=st.integers(1, 3), n=st.integers(1, 2), ny=st.integers(4, 9), nx=st.integers(4, 9),
       seed=st.integers(0, 2**32 - 1), halves=st.booleans())
def test_minimize_is_monotone_keeps_the_rim_and_ends_at_a_fixed_point(q, n, ny, nx, seed, halves):
    # on random small grids, half of whose nodes may sit on a 1/2 lattice so
    # that edges tie, the matched energy never rises by more than 1e-12 E0,
    # the rim is returned bitwise, and a second run on the result stops
    # after one iteration with that result bitwise
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(ny, nx, q, n))
    if halves:
        pick = rng.random((ny, nx, q)) < 0.5
        v[pick] = np.round(2 * v[pick]) / 2
    f = GridField(v, 0.25)
    opts = MinimizeOptions(max_iters=60, tol_rel_energy=0.0)
    res = minimize(f, opts)
    assert np.all(np.diff(res.energies) <= 1e-12 * res.energies[0])
    rim = f.boundary_mask
    assert np.array_equal(res.field.values[rim], v[rim])
    assert res.converged
    again = minimize(res.field, opts)
    assert again.iterations == 1 and again.converged
    assert np.array_equal(again.field.values, res.field.values)


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


def count_calls(monkeypatch, name: str) -> list:
    """Record the arguments of every call of `qvalued.field.<name>`."""
    import qvalued.field as field

    inner = getattr(field, name)
    calls = []

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(field, name, counting)
    return calls


def test_minimize_factorises_an_unchanged_matching_once(monkeypatch):
    # the square-root field's matching is final after the first solve, and a
    # second solve on it would repeat the first bit for bit
    calls = count_calls(monkeypatch, "_frozen_solve")
    res = minimize(sqrt_grid_field(33))
    assert (res.iterations, res.converged) == (2, True)
    assert len(calls) == 1


def test_minimize_negative_tolerance_repeats_the_final_iterate(monkeypatch):
    f = sqrt_grid_field(33)
    calls = count_calls(monkeypatch, "_frozen_solve")
    res = minimize(f, MinimizeOptions(max_iters=4, tol_rel_energy=-1.0))
    assert res.iterations == 4
    assert res.converged is False
    assert len(res.energies) == 5
    assert res.energies[1] < res.energies[0]
    assert np.all(res.energies[2:] == res.energies[1])
    assert len(calls) == 1
    once = minimize(f, MinimizeOptions(max_iters=1))
    assert np.array_equal(res.field.values, once.field.values)


@pytest.mark.parametrize("opts", [
    dict(tol_rel_energy=math.nan), dict(max_iters=-1),
    dict(max_iters=True), dict(max_iters=1.5), dict(max_iters=np.float64(3.0)),
], ids=str)
def test_minimize_options_refuse_nan_tolerance_and_negative_iterations(opts):
    # a NaN tolerance ran every iteration and reported no convergence after
    # the matching repeated; a negative max_iters acted as 0, True ran one
    # iteration, and 1.5 or a float 3.0 raised a bare TypeError
    f = two_sheet_field(17, seed=0)
    with pytest.raises(InvalidInputError, match="max_iters >= 0 and a non-NaN tolerance"):
        minimize(f, MinimizeOptions(**opts))
    # a finite negative tolerance and zero iterations stay allowed
    res = minimize(f, MinimizeOptions(max_iters=0, tol_rel_energy=-1.0))
    assert res.iterations == 0 and len(res.energies) == 1


def island_field(nn=25) -> GridField:
    f, g = harmonic_boundary_field(nn)
    mask = f.boundary_mask.copy()
    mask[9:13, 14:17] = True
    vals = np.where(mask, g, 0.0)[..., None, None]
    return GridField(vals, f.spacing, f.origin, mask)


def test_minimize_takes_the_capacitance_solve_on_a_rim_mask(monkeypatch):
    fast = count_calls(monkeypatch, "_capacitance_solve")
    superlu = count_calls(monkeypatch, "_superlu_solve")
    minimize(sqrt_grid_field(33))
    assert len(fast) == 1 and not superlu
    assert fast[0][2].shape[0] > 0  # the square-root field's cut joins free nodes


@pytest.mark.parametrize("field", [
    island_field(),
    noisy_copy(sqrt_grid_field(33), scale=1.0, seed=1),
], ids=["interior_island", "noise_dominated"])
def test_minimize_falls_back_to_superlu(monkeypatch, field):
    # an island breaks the plain 5-point stencil, and the noise cuts about
    # 430 y-edges, a capacitance system of about 1300 unknowns, above the
    # crossover of 6 * sqrt(2 * 31^2) = 263
    fast = count_calls(monkeypatch, "_capacitance_solve")
    superlu = count_calls(monkeypatch, "_superlu_solve")
    minimize(field, MinimizeOptions(max_iters=1))
    assert len(superlu) == 1 and not fast


def _rim_branch(nn, cell_row):
    # a square-root field branched inside the given cell row
    h = 2.0 / (nn - 1)
    return root_grid_field(nn, 2, complex(0.1, -1.0 + (cell_row + 0.5) * h))


ORACLE_FIELDS = {
    "sqrt_97": lambda: sqrt_grid_field(97),
    "root3_49": lambda: root_grid_field(49, 3, 0.05 - 0.03j),
    "root4_49": lambda: root_grid_field(49, 4, 0.05 - 0.03j),
    "root7_49": lambda: root_grid_field(49, 7, 0.05 - 0.03j),
    "root3_41x23": lambda: GridField(root_grid_field(49, 3, 0.05 - 0.03j).values[4:45, 13:36],
                                     2.0 / 48, (-1.0 + 13 / 24, -1.0 + 4 / 24)),
    "two_sheet_65": lambda: two_sheet_field(65, seed=2),
    "branch_pair_65": lambda: branch_pair_field(65, -0.4 + 0.013j, 0.37 + 0.3j),
    "rim_cell_33": lambda: _rim_branch(33, 0),
    "next_to_rim_33": lambda: _rim_branch(33, 1),
}


@pytest.mark.parametrize("name", list(ORACLE_FIELDS))
def test_frozen_solve_matches_superlu_oracle(monkeypatch, name):
    f = ORACLE_FIELDS[name]()
    px, py, _ = _match_edges(f.values)
    want = frozen_quadratic_solve(f.values, f.boundary_mask, px, py)
    fast = count_calls(monkeypatch, "_capacitance_solve")
    got = minimize(f, MinimizeOptions(max_iters=1)).field.values
    assert len(fast) == 1
    assert np.abs(got - want).max() <= 1e-10
    cut_rows = {int(r) for r in fast[0][2][:, 0]}
    plaquette_rows = {iy for iy, _ in branch_plaquettes(f)}
    if name == "two_sheet_65":
        assert not cut_rows and not plaquette_rows
    elif name == "branch_pair_65":
        assert len(cut_rows) == 2  # one row pair per branch point
    elif name == "rim_cell_33":
        # the cut joins rim row 0 to row 1, so it enters the right-hand side only
        assert plaquette_rows == {0} and not cut_rows
    else:
        assert cut_rows


@pytest.mark.parametrize("field", [sqrt_grid_field(65), root_grid_field(33, 3, 0.05 - 0.03j)],
                         ids=["sqrt", "root3"])
def test_minimize_repeat_is_byte_identical(field):
    first = minimize(field)
    again = minimize(field)
    assert first.field.values.tobytes() == again.field.values.tobytes()
    assert first.energies.tobytes() == again.energies.tobytes()


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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [2, 3, 7])
def test_embed_grid_equals_einsum_projection(q, n):
    # the per-axis products sum in einsum's order: the same floats, standard or rotated
    rng = np.random.default_rng(100 * q + n)
    f = GridField(rng.normal(scale=3.0, size=(13, 11, q, n)), 0.1, (-0.6, -0.5))
    for fr in (standard_frame(n, q), rotated_frame(n, q, seed=q), rotated_frame(n, q, seed=7)):
        got = embed_grid(f, fr)
        assert np.array_equal(got, einsum_embedding(f.values, fr.directions[:n]))


def test_max_pairwise_equals_direct_form():
    # the Gram search must return the float of the direct m x m difference array
    from qvalued.field import _max_pairwise, bilinear_array, circle_points

    rng = np.random.default_rng(5)
    f = sqrt_grid_field(129)
    farr = embed_grid(f, standard_frame(2, 2))
    cases = [rng.normal(size=(m, k)) * s + o for m, k, s, o in
             ((40, 4, 1.0, 0.0), (600, 4, 1e-3, 5.0), (1100, 21, 1e3, 0.0), (9, 1, 1.0, 1e4))]
    cases += [bilinear_array(farr, f, circle_points(w, r, f.spacing))
              for w, r in (((0.0, 0.0), 0.5), ((0.1, -0.2), 0.33), ((0.2, 0.2), 0.05))]
    cases.append(np.zeros((30, 4)))
    for vals in cases:
        assert _max_pairwise(vals) == max_pairwise_distance(vals)


def _circle_field(nn, rm):
    """Q = 1 field 0.03 (r - rm)^2 + 0.01 times the unit radial direction about 0.

    Its circle oscillation 2 (0.03 (r - rm)^2 + 0.01) falls with r up to rm,
    then rises; near rm one grid step changes it by about 0.1%, so a skip
    test looser than exact drops a radius the full scan picks."""
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    r = np.hypot(x, y)
    g = np.divide(0.03 * (r - rm) ** 2 + 0.01, r, out=np.zeros_like(r), where=r > 0)
    return GridField(np.stack([g * x, g * y], -1)[:, :, None, :], spec.spacing, spec.origin)


def _two_harmonic_sheets(nn):
    """Two sheets, each a holomorphic polynomial, so every coordinate is harmonic."""
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    z = x + 1j * y
    w = np.stack([z**2 + 0.3 * z, 4.0 + 2.0j + 0.5 * z**3], axis=-1)
    return GridField(np.stack([w.real, w.imag], axis=-1), spec.spacing, spec.origin)


_SLICE_CASES = {
    "root2": lambda: (root_grid_field(65, 2, z0=0.05 - 0.1j), (0.0, 0.0), 0.5),
    "root3": lambda: (root_grid_field(65, 3, z0=0.13 + 0.07j), (0.1, -0.05), 0.45),
    "two_sheet": lambda: (_two_harmonic_sheets(65), (-0.1, 0.2), 0.5),
    "falling": lambda: (_circle_field(129, 0.4), (0.0, 0.0), 0.6),
}


@pytest.mark.parametrize("which", sorted(_SLICE_CASES))
def test_courant_lebesgue_slice_equals_full_scan(which, monkeypatch):
    # a radius is skipped only when its two-sweep floor already reaches the
    # best oscillation, so the scan returns what scoring every radius returns
    import qvalued.field as field

    f, w0, radius = _SLICE_CASES[which]()
    fr = standard_frame(f.n, f.q_sheets)
    scored = []
    inner = field._max_pairwise
    monkeypatch.setattr(field, "_max_pairwise", lambda vals: scored.append(1) or inner(vals))
    got = courant_lebesgue_slice(f, fr, w0, radius)
    assert got == full_slice_scan(f, fr, w0, radius)
    if which == "falling":
        # the radii up to the minimum near 0.4 are scored, those beyond skipped
        radii = np.arange(radius / 2, radius + f.spacing / 4, f.spacing)
        assert got[0] > radius / 2 and 1 < len(scored) < radii.size


def test_courant_lebesgue_disc_outside_grid():
    f = sqrt_grid_field(17)
    fr = standard_frame(2, 2)
    with pytest.raises(InvalidInputError):
        courant_lebesgue_slice(f, fr, (0.9, 0.9), 0.5)


@pytest.mark.parametrize("m", [1, 4, 10])
def test_bilinear_array_equals_index_oracle(m):
    # one row take per corner and a running sum give the floats of the 2-D
    # index corner sum: at nodes, on the last row and column (where the cell
    # index clips to n - 2), within the 1e-9 rim tolerance and inside
    from qvalued.field import bilinear_array

    rng = np.random.default_rng(m)
    f = GridField(np.zeros((9, 13, 1, 1)), 0.125, (-0.5, 0.25))
    arr = rng.normal(size=(9, 13, m))
    xs, ys = f.xs, f.ys
    nodes = np.stack(np.meshgrid(xs, ys), axis=-1)
    last = np.array([(xs[-1], y) for y in ys] + [(x, ys[-1]) for x in xs])
    rim = np.array([(xs[0] - 1e-10, ys[3]), (xs[-1] + 1e-10, ys[2]), (xs[4], ys[0] - 1e-10),
                    (xs[5], ys[-1] + 1e-10), (xs[-1] + 1e-10, ys[-1] + 1e-10)])
    inside = rng.uniform((xs[0], ys[0]), (xs[-1], ys[-1]), size=(6, 7, 2))
    for pts in (nodes, last, rim, inside):
        got = bilinear_array(arr, f, pts)
        assert got.shape == pts.shape[:-1] + (m,)
        assert np.array_equal(got, index_bilinear(arr, f, pts))
    assert np.array_equal(bilinear_array(arr, f, nodes), arr)
    with pytest.raises(InvalidInputError):
        bilinear_array(arr, f, np.array([(xs[-1] + 1e-6, ys[0])]))


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(data=st.data(), ny=st.integers(2, 6), nx=st.integers(2, 6), m=st.integers(1, 10),
       batch=st.lists(st.integers(0, 4), max_size=3))
def test_bilinear_array_matches_the_reference_kernel(data, ny, nx, m, batch):
    # full-width weights give the bits of the earlier (..., 1)-wide kernel,
    # sign of zero included: points on nodes, on cell edges, on the last row
    # and column and inside, in empty, lone and multi-axis batches
    from qvalued.field import bilinear_array

    f = GridField(np.zeros((ny, nx, 1, 1)), 0.125, (-0.5, 0.25))
    arr = data.draw(arrays(np.float64, (ny, nx, m), elements=st.sampled_from([0.0, -0.0, 1.5])
                           | st.floats(-1e3, 1e3, width=64)))
    gx = st.integers(0, nx - 1).map(float) | st.floats(0.0, nx - 1.0)
    gy = st.integers(0, ny - 1).map(float) | st.floats(0.0, ny - 1.0)
    grid = data.draw(arrays(np.float64, (*batch, 2), elements=gx))
    grid[..., 1] = data.draw(arrays(np.float64, tuple(batch), elements=gy))
    pts = np.asarray(f.origin) + f.spacing * grid
    got = bilinear_array(arr, f, pts)
    want = reference_bilinear_array(arr, f, pts)
    assert got.shape == want.shape == (*batch, m)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_scan_circle_batch_is_the_circle_points():
    # one concatenated pass over a batch's radii gives each circle the floats
    # of the earlier one-linspace-per-circle sample, as does `circle_points`
    from qvalued.field import _circle_batch, _circle_size, circle_points

    rng = np.random.default_rng(11)
    for _ in range(50):
        h = rng.uniform(1e-3, 0.1)
        radii = np.sort(rng.uniform(4 * h, 1.5, size=rng.integers(1, 12)))
        w0 = tuple(rng.uniform(-1.0, 1.0, 2))
        sizes = [_circle_size(r, h) for r in radii]
        want = [linspace_circle_points(w0, r, h) for r in radii]
        assert np.array_equal(_circle_batch(w0, radii, sizes).view(np.int64),
                              np.concatenate(want).view(np.int64))
        for r, pts in zip(radii, want):
            assert np.array_equal(circle_points(w0, r, h).view(np.int64), pts.view(np.int64))
            assert np.array_equal(circle_points(w0, float(r), h).view(np.int64), pts.view(np.int64))


#: a scan near the rim of a 513^2 grid: 125 radii, whose circles would hold
#: 585,088 samples at 4 per grid step of arc
_RIM_SCAN = ((0.01, -0.02), 0.97)


def _scan_window(f, frame, w0, radius):
    """What `courant_lebesgue_slice` hands `_slice_scan`: xi0 of the disc's
    node box, a contiguous array, and the box's first node."""
    from qvalued.field import _disc_cell_window, _embed_values

    rows, cols = _disc_cell_window(f, w0, radius).nodes
    return _embed_values(f.values[rows, cols], frame), (rows.start, cols.start)


def test_courant_lebesgue_slice_batches_within_the_byte_budget():
    # the circles of the rim scan, interpolated in batches, give the full
    # scan's answer, and the scan holds no more than the budget plus a slack
    # of one circle of SCAN_CIRCLE_POINTS samples at 8 (3m + 16) bytes a
    # sample and three 512 x 512 float arrays, a Gram matrix and its masks
    import tracemalloc

    import qvalued.field as field

    f = root_grid_field(513, 2, z0=0.05 - 0.1j)
    fr = standard_frame(2, 2)
    w0, radius = _RIM_SCAN
    farr, corner = _scan_window(f, fr, w0, radius)
    tracemalloc.start()
    try:
        got = field._slice_scan(f, farr, corner, w0, radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == full_slice_scan(f, fr, w0, radius)
    circle = field.SCAN_CIRCLE_POINTS * 8 * (3 * farr.shape[-1] + 16) + 3 * 8 * 512**2
    assert peak <= field.SCAN_BATCH_BYTES + circle


def test_courant_lebesgue_slice_interpolates_only_what_it_reads(monkeypatch):
    # each circle of the rim scan is interpolated at no more points than the
    # oscillation reads, SCAN_CIRCLE_POINTS, so the scan sends at most
    # 125 x 512 = 64,000 samples to `bilinear_array`, and finds radius 0.485
    import qvalued.field as field

    f = root_grid_field(513, 2, z0=0.05 - 0.1j)
    w0, radius = _RIM_SCAN
    farr, corner = _scan_window(f, standard_frame(2, 2), w0, radius)
    sent = []
    inner = field.bilinear_array
    monkeypatch.setattr(field, "bilinear_array",
                        lambda arr, g, pts, *box: sent.append(pts.shape[0]) or inner(arr, g, pts, *box))
    r, _ = field._slice_scan(f, farr, corner, w0, radius)
    radii = np.arange(radius / 2, radius + f.spacing / 4, f.spacing)
    assert radii.size == 125 and r == 0.485
    assert sum(sent) <= radii.size * field.SCAN_CIRCLE_POINTS == 64_000


def _window_cases():
    """(field, frame, w0, R) on the 161^2 square-root field and the 129^2
    two-sheet field in the standard and a rotated frame: discs whose radius
    is the rim distance, centred on a node and on a vertical and a
    horizontal cell edge."""
    for f in (root_grid_field(161, 2, z0=0.11 - 0.07j), two_sheet_field(129, seed=5)):
        h, (x0, y0) = f.spacing, f.origin
        x1, y1 = x0 + (f.nx - 1) * h, y0 + (f.ny - 1) * h
        centres = [(x0 + 70 * h, y0 + 90 * h), (x0 + 50 * h, y0 + 60.5 * h),
                   (x0 + 41.5 * h, y0 + 64 * h)]
        for fr in (standard_frame(2, 2), rotated_frame(2, 2, seed=3)):
            for w0 in centres:
                yield f, fr, w0, min(w0[0] - x0, x1 - w0[0], w0[1] - y0, y1 - w0[1])


def test_courant_lebesgue_slice_on_its_window_equals_the_full_grid_scan():
    # the disc's node box holds every corner the scan reads, so interpolating
    # it gives the floats that interpolating the full grid's embedding gives,
    # also for discs that touch the rim and centres on cell edges
    for f, fr, w0, radius in _window_cases():
        assert courant_lebesgue_slice(f, fr, w0, radius) == full_slice_scan(f, fr, w0, radius)


def test_courant_lebesgue_slice_embeds_only_the_disc_node_box(monkeypatch):
    # one scan embeds one block of nodes, the disc's node box, and not the grid
    import qvalued.field as field

    blocks = []
    inner = field._embed_values
    monkeypatch.setattr(field, "_embed_values",
                        lambda values, frame: blocks.append(values.shape) or inner(values, frame))
    f = root_grid_field(161, 2, z0=0.11 - 0.07j)
    w0, radius = (0.1, -0.2), 0.3
    courant_lebesgue_slice(f, standard_frame(2, 2), w0, radius)
    rows, cols = field._disc_cell_window(f, w0, radius).nodes
    assert blocks == [(rows.stop - rows.start, cols.stop - cols.start, 2, 2)]
    assert blocks[0][0] * blocks[0][1] < f.nx * f.ny / 8


def test_disc_cell_sum_equals_full_grid_mask():
    # the disc record's cells are those of the full-grid mask, in row-major
    # order, so the sums are the same floats: discs inside, across the rim,
    # beyond it, of radius 0 and with cell centers exactly on the circle
    from qvalued.field import _disc_cell_window

    rng = np.random.default_rng(3)
    f = GridField(np.zeros((41, 57, 1, 1)), 0.05, (-1.3, -0.9))
    per_cell = rng.normal(size=(40, 56)) ** 2
    # a disc centred on a cell center with radius k h has cell centers on its
    # circle, where rounding decides the test: the window's slack covers them
    h, (x0, y0) = f.spacing, f.origin
    discs = [((x0 + (ix + 0.5) * h, y0 + (iy + 0.5) * h), k * h)
             for ix in range(5, 50, 3) for iy in (10, 20, 29) for k in range(8)]
    discs += [((-1.3, -0.9), 0.4), ((1.5, 1.2), 0.3), ((5.0, 5.0), 1.0), ((0.0, 0.0), 10.0)]
    discs += [(tuple(rng.uniform((-1.5, -1.1), (1.7, 1.3))), rng.uniform(0.0, 1.0)) for _ in range(40)]
    cell_ids = np.arange(per_cell.size).reshape(per_cell.shape)
    for w0, r in discs:
        mask = full_disc_cell_mask(f, w0, r)
        disc = _disc_cell_window(f, w0, r)
        assert np.array_equal(disc.cells(cell_ids), np.flatnonzero(mask))
        assert disc.sum(per_cell) == float(per_cell[mask].sum())


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


@pytest.fixture(scope="module")
def root_family():
    """All Q-th roots of z on 65^2, 129^2 and 257^2 over [-1, 1]^2, Q = 2, 3, 4:
    Dir-minimising and homogeneous of degree 1/Q about the branch point 0.
    Each grid halves the spacing of the one before."""
    return {q: [root_grid_field(nn, q) for nn in (65, 129, 257)] for q in (2, 3, 4)}


@pytest.mark.parametrize("q", [2, 3, 4])
def test_root_field_slice_oscillation_scales_as_r_to_the_1_over_q(root_family, q):
    # circle oscillation is c r^(1/Q) about the branch point; the least-squares
    # slope of log osc against log r over the slices for R = 0.2, 0.4, 0.8
    fr = standard_frame(2, q)
    for f in root_family[q]:
        r, osc = np.array([courant_lebesgue_slice(f, fr, (0.0, 0.0), R) for R in (0.2, 0.4, 0.8)]).T
        slope = np.polyfit(np.log(r), np.log(osc), 1)[0]
        assert abs(slope - 1 / q) <= 0.005, (f.nx, slope)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_root_field_disc_energy_error_converges_at_order_2_over_q(root_family, q):
    # the energy on U_R(0) is exactly 2 pi R^(2/Q); the grid's relative error
    # at R = 0.8 is O(h^(2/Q)), so each halving of h divides it by 2^(2/Q)
    fr = standard_frame(2, q)
    radius = 0.8
    exact = 2 * math.pi * radius ** (2 / q)
    err = [disc_energy(f, fr, (0.0, 0.0), radius) / exact - 1 for f in root_family[q]]
    assert all(e > 0 for e in err), err
    for coarse, fine in zip(err, err[1:]):
        assert abs(math.log2(coarse / fine) - 2 / q) <= 0.1, err


def test_grid_field_from_dict_shape_mismatch():
    f = sqrt_grid_field(9)
    d = f.to_dict()
    d["nx"] = 5
    with pytest.raises(InvalidInputError):
        GridField.from_dict(d)


def test_minimize_q7_fallback_paths():
    # tiny grid with Q beyond the permutation table exercises the batched
    # shortest-augmenting-path edge matching in both energies and the relaxation
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(5, 5, 7, 2))
    f = GridField(vals, 0.25, (0.0, 0.0))
    e = dirichlet_energy_matched(f)
    assert np.isfinite(e.total) and e.total > 0
    res = minimize(f, MinimizeOptions(max_iters=4))
    assert np.all(np.diff(res.energies) <= 1e-12)


def _is_q_cycle(perm) -> bool:
    s, steps = perm[0], 1
    while s != 0:
        s, steps = perm[s], steps + 1
    return steps == len(perm)


@pytest.mark.parametrize("q", [2, 3])
def test_branch_plaquettes_of_root_fields(q):
    z0 = 0.05 - 0.03j
    f = root_grid_field(33, q, z0)
    cell = (int((z0.imag + 1.0) // f.spacing), int((z0.real + 1.0) // f.spacing))
    found = branch_plaquettes(f)
    assert list(found) == [cell]
    assert _is_q_cycle(found[cell])
    assert branch_plaquettes(minimize(f).field) == found


def test_two_sheet_fields_have_no_branch_plaquettes():
    for seed in range(3):
        f = two_sheet_field(33, seed=seed)
        assert branch_plaquettes(f) == {}
        assert branch_plaquettes(minimize(f).field) == {}


@pytest.mark.parametrize("field", [
    noisy_copy(root_grid_field(17, 3, 0.05 - 0.03j), scale=0.4, seed=3),
    branch_pair_field(33, -0.4 + 0.013j, 0.37 + 0.3j),
    two_sheet_field(17, seed=1),
    root_grid_field(9, 7, 0.05 - 0.03j),
], ids=["noisy_root3", "branch_pair", "two_sheet", "root7"])
def test_comb_gauge_makes_the_comb_matchings_identities(field):
    # label t at a node pairs with label t at its right neighbour and, in
    # column 0, at the node above
    px, py, _ = _match_edges(field.values)
    g = _comb_gauge(px, py)
    assert np.array_equal(g[0, 0], np.arange(field.q_sheets))
    assert np.array_equal(_compose(g[:, :-1], px), g[:, 1:])
    assert np.array_equal(_compose(g[:-1, 0], py[:, 0]), g[1:, 0])


@pytest.mark.parametrize("field", [sqrt_grid_field(49), root_grid_field(33, 3, 0.05 - 0.03j),
                                   noisy_copy(two_sheet_field(33, seed=2), scale=2.0)],
                         ids=["sqrt", "root3", "noisy_two_sheet"])
def test_disc_oscillation_is_the_per_node_loop_bitwise(field):
    # the per-node batches give each pair the float one assignment batch over
    # every node pair gives it, so the exact oscillation is the same float;
    # the largest disc holds more than 600 nodes, every one of them read
    for w0, r in (((0.0, 0.0), 0.1), ((0.2, -0.1), 0.25), ((-0.3, 0.3), 0.5), ((0.0, 0.0), 0.9)):
        assert disc_oscillation(field, w0, r) == all_pairs_disc_oscillation(field, w0, r)
    gx, gy = np.meshgrid(field.xs, field.ys)
    assert (gx**2 + gy**2 <= 0.81).sum() > 600


@pytest.mark.parametrize("field", [
    noisy_copy(root_grid_field(17, 3, 0.05 - 0.03j), scale=0.4, seed=3),
    branch_pair_field(33, -0.4 + 0.013j, 0.37 + 0.3j),
], ids=["noisy_root3", "branch_pair"])
def test_comb_gauge_cut_is_the_holonomy_to_the_left(field):
    # the loop around cells (iy, 0..ix-1), based at node (iy, 0), traverses the
    # rightmost cell's loop first; each cell's holonomy is carried to the base
    # along the row's x-edges, and the loop's holonomy is the identity exactly
    # when y-edge (iy, ix) pairs equal labels of the gauge
    px, py, _ = _match_edges(field.values)
    g = _comb_gauge(px, py)
    twisted = (_compose(g[:-1], py) != g[1:]).any(axis=-1)
    q = field.q_sheets
    ident = np.arange(q)
    hol = branch_plaquettes(field)
    assert len(hol) >= 2
    for iy in range(field.ny - 1):
        loop, carry = ident, ident
        for ix in range(field.nx):
            assert twisted[iy, ix] == (not np.array_equal(loop, ident))
            if ix == field.nx - 1:
                break
            h = np.asarray(hol.get((iy, ix), ident))
            loop = loop[np.argsort(carry)[h[carry]]]
            carry = px[iy, ix][carry]
