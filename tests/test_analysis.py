import math
import tracemalloc

import numpy as np
import pytest

from qvalued import (
    GridField,
    HopfField,
    InvalidInputError,
    QPoint,
    angle_separated_frame,
    build_admissible_variation,
    conformality_defect,
    continuity_certificate,
    courant_lebesgue_slice,
    d_star,
    delta_constant,
    dirichlet_energy_matched,
    disc_energy,
    disc_oscillation,
    embed_grid,
    harmonic_companion,
    holomorphy_residual,
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
    support,
    tau_star,
    valid_rho_interval,
)
from qvalued.analysis import (
    CENSOR_DILATION,
    REFIT_DEGREE,
    REFIT_RING,
    _censor_refit,
    _cutoff_cells,
    _d_star_at,
    _dct_basis,
    _LevelCutoff,
    _lsq_potential,
    _rim_distance,
    plaquette_defects,
)
from qvalued.field import _disc_cell_window, _require_disc_inside, circle_points
from qvalued.qspace import assign, metric_g_many
from qvalued.variations import cutoff_weights

from helpers import (
    branch_pair_field,
    count_analysis_match_edges,
    count_embed_grid,
    harmonic_boundary_field,
    meshgrid_for,
    noisy_copy,
    range_isometry,
    root_grid_field,
    sqrt_grid_field,
    two_sheet_field,
    unit_square_grid,
)
from oracles import (
    einsum_embedding,
    embedded_tau_star,
    full_grid_cutoff,
    full_grid_cutoff_cells,
    full_grid_psi,
    index_bilinear,
    linspace_circle_points,
    lsq_primitive,
    ndimage_censor_refit,
    node_stencil_hopf,
    sqrt_circle_distance_to_branch,
    superlu_potential,
)


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
    phi = np.asarray(fn(x + 1j * y), dtype=complex)
    return HopfField(
        phi,
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
    comp = harmonic_companion(hopf)
    z = hopf.zgrid()
    psi = comp.values - np.conj(z)
    want = -c * z / 4
    shift = psi - want
    np.testing.assert_allclose(shift, shift[0, 0], atol=1e-9)


def test_companion_energy_identity_linear_data_exact():
    comp = harmonic_companion(synthetic_hopf(17, lambda z: z))
    assert comp.energy_identity_error().max() <= 1e-10  # trapezoid and central differences are exact for degree <= 2


def test_companion_energy_identity_holomorphic_data():
    errs = []
    for nn in (17, 33, 65):
        comp = harmonic_companion(synthetic_hopf(nn, lambda z: z**3))
        errs.append(comp.energy_identity_error().max())
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] <= 10 * (2.0 / 64)


def test_companion_energy_identity_sqrt_field():
    f = sqrt_grid_field(65)
    comp = harmonic_companion(hopf_differential(f, standard_frame(2, 2)))
    x, y = np.meshgrid(f.xs, f.ys)
    annulus = (np.hypot(x, y) > 0.1)[1:-1, 1:-1]
    err = comp.energy_identity_error()
    assert err[annulus].max() <= 10 * f.spacing


def test_censor_refit_without_degenerate_cells_copies_phi():
    hopf = synthetic_hopf(17, lambda z: z**2 + 1j * np.conj(z))
    phi, patched = _censor_refit(hopf)
    assert patched.dtype == bool and patched.shape == hopf.degenerate.shape
    assert not patched.any()
    assert np.array_equal(phi, hopf.phi)
    assert not np.shares_memory(phi, hopf.phi)


@pytest.mark.parametrize("shape", [(7, 11), (11, 7)])
def test_lsq_potential_matches_dense_oracle(shape):
    # random complex data is far from integrable, so the least-squares
    # residual is large and the solve cannot hide behind an exact primitive
    rng = np.random.default_rng(shape[0])
    phi = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 0.13
    hopf = HopfField(phi, np.zeros(shape, dtype=bool), h, (0.0, 0.0))
    assert np.abs(plaquette_defects(hopf)).max() > 0.1
    psi = _lsq_potential(phi, h)
    assert psi.shape == shape
    assert psi[0, 0] == 0
    assert np.abs(psi - lsq_primitive(phi, h)).max() <= 1e-10


def field_hopf(f: GridField) -> HopfField:
    return hopf_differential(f, standard_frame(f.n, f.q_sheets))


def window(f: GridField, ny: int, nx: int) -> GridField:
    """The field on its first ny rows and nx columns."""
    return GridField(f.values[:ny, :nx], f.spacing, f.origin)


@pytest.mark.parametrize("shape", [(65, 65), (64, 64), (64, 37), (37, 64)])
@pytest.mark.parametrize("kind", ["sqrt", "two_sheet"])
def test_lsq_potential_matches_superlu_oracle(shape, kind):
    # the companion's own input: the censored and refitted Hopf density
    base = sqrt_grid_field(65) if kind == "sqrt" else two_sheet_field(65, seed=4)
    hopf = field_hopf(window(base, *shape))
    phi, _ = _censor_refit(hopf)
    psi = _lsq_potential(phi, hopf.spacing)
    ref = superlu_potential(phi, hopf.spacing)
    assert psi[0, 0] == 0
    assert np.abs(psi - ref).max() <= 1e-11 * np.abs(ref).max()


def censor_cases():
    yield pytest.param(field_hopf(sqrt_grid_field(33)), id="sqrt_33")
    yield pytest.param(field_hopf(root_grid_field(33, 3, 0.05 - 0.03j)), id="root_q3")
    # several blobs: one reaches the rim, two touch only diagonally (4-connected
    # labelling keeps them apart), and one holds two degenerate nodes
    rng = np.random.default_rng(5)
    phi = rng.normal(size=(60, 70)) + 1j * rng.normal(size=(60, 70))
    core = np.zeros((60, 70), dtype=bool)
    core[[5, 30, 32, 45, 46, 50], [3, 35, 37, 5, 26, 60]] = True
    yield pytest.param(HopfField(phi, core, 0.05, (-1.0, -2.0)), id="blobs")
    # two blobs in a 4-row strip touch diagonally; the left one's collar keeps
    # only the 8 < 3 (degree + 1) clean nodes between them, so its fit falls
    # back to every clean node, those right of the second blob included
    core = np.zeros((4, 50), dtype=bool)
    core[[1, 2], [6, 27]] = True
    strip = phi[:4, :50]
    yield pytest.param(HopfField(strip, core, 0.1, (0.0, 0.0)), id="fallback")


@pytest.mark.parametrize("hopf", list(censor_cases()))
def test_censor_refit_matches_ndimage_oracle(hopf):
    phi, patched = _censor_refit(hopf)
    ref_phi, ref_patched = ndimage_censor_refit(hopf, CENSOR_DILATION, REFIT_RING, REFIT_DEGREE)
    assert patched.any()
    assert np.array_equal(patched, ref_patched)
    assert np.array_equal(phi, ref_phi)


def test_plaquette_defects_match_residual_semantics():
    hopf = synthetic_hopf(17, lambda z: np.conj(z))
    defects = plaquette_defects(hopf)
    h = hopf.spacing
    # counterclockwise circulation of conj(z) around a cell is 2i * area
    np.testing.assert_allclose(defects, 2j * h * h, atol=1e-12)


def _companions_off_the_grid():
    # each is built on a grid other than the 65^2 field's
    f = sqrt_grid_field(65)
    yield pytest.param(sqrt_grid_field(33), id="coarse")
    shifted = (f.origin[0] + f.spacing, f.origin[1])
    yield pytest.param(GridField(f.values, f.spacing, shifted), id="shifted")
    yield pytest.param(GridField(f.values, 0.5 * f.spacing, f.origin), id="rescaled")


def _companion_calls(f, fr, comp):
    """Every diagnostic that takes the field and a companion, by name, as
    (takes a frame, call), at a base node of the 65^2 square-root field with
    a rung inside its valid range."""
    w = (40, 40)
    base = QPoint(f.values[w].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    rho = 0.9 * 0.4 * chain.levels[0].sigma
    eps = chain.levels[0].sigma / 20
    rv = build_admissible_variation(chain, 0, rho, eps, w)
    return {
        "d_star": (False, lambda: d_star(f, comp, w, 0, chain)),
        "psi_k": (True, lambda: psi_k(f, comp, fr, w, 0, chain, rho, eps)),
        "valid_rho_interval": (True, lambda: valid_rho_interval(f, comp, fr, w, 0, chain)),
        "monotone_rho_interval": (True, lambda: monotone_rho_interval(f, comp, fr, w, 0, chain)),
        "monotonicity_report": (True, lambda: monotonicity_report(f, comp, fr, w, chain).to_dict()),
        "key_lemma_check": (True, lambda: key_lemma_check(f, comp, w, 0.3, fr)),
        "continuity_certificate": (True, lambda: continuity_certificate(f, fr, (0.0, 0.0), 0.4, comp)),
        "cutoff_weights": (False, lambda: cutoff_weights(f, comp, rv)),
        "range_variation_derivative": (True, lambda: range_variation_derivative(f, fr, rv, comp)),
        "conformality_defect": (False, lambda: conformality_defect(f, comp)),
    }


def _bits(out) -> str:
    """The exact floats of a diagnostic's output, as text."""
    if isinstance(out, np.ndarray):
        return out.tobytes().hex()
    return repr(out)


@pytest.mark.parametrize("other", list(_companions_off_the_grid()))
def test_companion_from_another_grid_is_rejected(other):
    f = sqrt_grid_field(65)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(other, fr))
    for _, call in _companion_calls(f, fr, comp).values():
        with pytest.raises(InvalidInputError, match="companion grid does not match the field"):
            call()


def test_companion_of_another_field_is_rejected():
    # same grid, other values: its energy must not be mixed with f's embedding
    f = sqrt_grid_field(65)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(noisy_copy(f, scale=1e-3), fr))
    for _, call in _companion_calls(f, fr, comp).values():
        with pytest.raises(InvalidInputError, match="not built from the field's values"):
            call()


def test_companion_from_a_rotated_frame_is_rejected():
    # the companion's embedding belongs to its frame, so each diagnostic that
    # reads it in the caller's frame refuses another one; those that take no
    # frame read the frame-free density alone and give the same floats
    f = sqrt_grid_field(65)
    fr = standard_frame(2, 2)
    want = _companion_calls(f, fr, harmonic_companion(hopf_differential(f, fr)))
    comp = harmonic_companion(hopf_differential(f, rotated_frame(2, 2, seed=3)))
    for name, (takes_frame, call) in _companion_calls(f, fr, comp).items():
        if takes_frame:
            with pytest.raises(InvalidInputError, match="companion was built in another frame"):
                call()
        else:
            assert _bits(call()) == _bits(want[name][1]()), name


def test_equal_field_and_frame_are_accepted_bitwise():
    # the check compares values and the first n directions, not objects
    f = sqrt_grid_field(65)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    want = _companion_calls(f, fr, comp)
    twin, twin_frame = GridField.from_dict(f.to_dict()), standard_frame(2, 2)
    assert twin.values is not f.values and twin_frame is not fr
    got = _companion_calls(twin, twin_frame, comp)
    for name, (_, call) in got.items():
        assert _bits(call()) == _bits(want[name][1]()), name


def test_conformality_defect_identity_pair():
    vals = []
    for nn in (17, 33, 65):
        f = single_valued_field(nn, lambda x, y: (x, y))
        fr = standard_frame(2, 1)
        comp = harmonic_companion(hopf_differential(f, fr))
        vals.append(conformality_defect(f, comp))
    assert vals[2] < vals[1] < vals[0] or vals[0] <= 1e-10
    assert vals[2] <= 1e-9


def test_conformality_defect_minimized_vs_noisy(minimized_strong_97):
    fr = standard_frame(2, 2)
    g = minimized_strong_97.field
    comp = harmonic_companion(hopf_differential(g, fr))
    base = conformality_defect(g, comp)
    noisy = noisy_copy(g, scale=0.1, seed=8)
    comp_n = harmonic_companion(hopf_differential(noisy, fr))
    assert conformality_defect(noisy, comp_n) > 3 * base
    assert base > 0


@pytest.mark.parametrize("q", [2, 3])
def test_hopf_differential_same_floats_in_every_frame(q):
    # the stencil is built from the field, not its frame coordinates, so the
    # standard frame and two rotated frames give the same floats
    f = sqrt_grid_field(33) if q == 2 else root_grid_field(33, 3, z0=0.13 + 0.07j)
    want = hopf_differential(f, standard_frame(2, q))
    for seed in (3, 11):
        got = hopf_differential(f, rotated_frame(2, q, seed=seed))
        for name in ("phi", "degenerate"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("q", [2, 3])
def test_hopf_field_carries_the_embedding_of_its_frame(q):
    # the embedding is that of the frame it was built in; the energy is the
    # field's matched energy, the same floats in every frame
    f = sqrt_grid_field(33) if q == 2 else root_grid_field(33, 3, z0=0.13 + 0.07j)
    energy = dirichlet_energy_matched(f)
    for fr in (standard_frame(2, q), rotated_frame(2, q, seed=3)):
        hopf = hopf_differential(f, fr)
        assert hopf.frame is fr
        assert np.array_equal(hopf.embedded, embed_grid(f, fr))
        assert np.array_equal(hopf.energy.per_cell, energy.per_cell)
        assert hopf.energy.total == energy.total
        assert np.array_equal(hopf.values, f.values) and not np.shares_memory(hopf.values, f.values)
        assert not any(a.flags.writeable for a in (hopf.values, hopf.embedded, hopf.energy.per_cell))


def test_companion_of_a_field_changed_in_place_is_rejected():
    # the Hopf field keeps a copy of the values, so an in-place edit of the
    # field after the companion was built is seen, not read through
    f = sqrt_grid_field(33)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    f.values[16, 10] += 1e-3
    with pytest.raises(InvalidInputError, match="not built from the field's values"):
        key_lemma_check(f, comp, (16, 16), 0.3, fr)


def test_hopf_field_and_companion_arrays_are_read_only():
    # stationarity_residual may reuse a companion its caller holds, so no
    # array of it can be edited into one a fresh build would not give
    f = sqrt_grid_field(33)
    comp = harmonic_companion(hopf_differential(f, standard_frame(2, 2)))
    hopf = comp.hopf
    for a in (comp.values, comp.patched, comp.grad_sq(), comp.cell_energy, hopf.phi,
              hopf.degenerate):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = a[1, 1]


def _other_q_chain_readers():
    # each reader of d* or of the pivot with a Q = 3 chain on a Q = 2 field
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    g = root_grid_field(33, 3, z0=0.13 + 0.07j)
    base = QPoint(g.values[16, 16].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    w = (16, 16)
    # tau* is the field's alone: read it with the field's own chain, and
    # take the level-0 rung inside (2/5) min(tau*, sigma_0) of the Q = 3 chain
    own = QPoint(f.values[w].copy())
    own_chain = nested_chain(own, angle_separated_frame(support(own)))
    tau = valid_rho_interval(f, comp, fr, w, 0, own_chain)[3]
    cap = min(tau, chain.levels[0].sigma)
    rho, eps = 0.2 * cap, cap / 20
    rv = build_admissible_variation(chain, 0, rho, eps, w)
    return {
        "d_star": lambda: d_star(f, comp, w, 0, chain),
        "psi_k": lambda: psi_k(f, comp, fr, w, 0, chain, rho, eps),
        "monotonicity_report": lambda: monotonicity_report(f, comp, fr, w, chain),
        "cutoff_weights": lambda: cutoff_weights(f, comp, rv),
        "valid_rho_interval": lambda: valid_rho_interval(f, comp, fr, w, 0, chain),
        "monotone_rho_interval": lambda: monotone_rho_interval(f, comp, fr, w, 0, chain),
    }


@pytest.mark.parametrize("reader", ["d_star", "psi_k", "monotonicity_report", "cutoff_weights",
                                    "valid_rho_interval", "monotone_rho_interval"])
def test_a_chain_of_another_q_is_refused_by_name(reader):
    # it used to reach metric_g_many and fail there with numpy's broadcast
    # error; the interval readers, which read d* only on a circle fallback,
    # returned a range made of the other chain's sigma and this field's tau*
    with pytest.raises(InvalidInputError, match=r"chain of \(Q, n\) = \(3, 2\)"):
        _other_q_chain_readers()[reader]()


@pytest.mark.parametrize("r_over_h", [0.0, 0.5])
def test_key_lemma_refuses_a_disc_with_no_cell(r_over_h):
    # both sides would be 0 and the bound would hold vacuously; no cell
    # centre lies within h/sqrt(2) of the base node
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    with pytest.raises(InvalidInputError, match="holds no grid cell"):
        key_lemma_check(f, comp, (16, 16), r_over_h * f.spacing, fr)


def test_dct_basis_is_cached_and_read_only():
    basis, eig = _dct_basis(37)
    assert _dct_basis(37)[0] is basis
    assert not basis.flags.writeable and not eig.flags.writeable


def _window(f, box):
    return GridField(f.values[box], f.spacing, f.origin)


def _transposed(f):
    return GridField(f.values.transpose(1, 0, 2, 3), f.spacing, f.origin)


def _scalar_field(nn, fn):
    spec = unit_square_grid(nn)
    x, y = meshgrid_for(spec)
    vals = np.stack(fn(x, y), axis=-1)[:, :, None, :]
    return GridField(vals, spec.spacing, spec.origin)


def _coincident_sqrt(nn):
    # a third sheet on top of the first everywhere: every node ties
    s = sqrt_grid_field(nn)
    return GridField(np.concatenate([s.values, s.values[:, :, :1]], axis=2), s.spacing, s.origin)


def _lifted_sqrt(nn, n=8):
    # the square-root sheets +-w mapped into R^n by orthonormal columns, plus
    # a single-valued term; n >= 8 takes `_sum_sq`'s numpy reduction
    s = sqrt_grid_field(nn)
    cols = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))[0][:, :2]
    x, y = meshgrid_for(unit_square_grid(nn))
    common = np.stack([np.sin(k * x + y) for k in range(n)], axis=-1)[:, :, None, :]
    return GridField(s.values @ cols.T + 0.1 * common, s.spacing, s.origin)


_HOPF_FIELDS = {
    "diagnose_root_161": lambda: root_grid_field(161, 2, z0=0.11 - 0.07j),
    "diagnose_two_sheet_129": lambda: minimize(two_sheet_field(129, seed=41)).field,
    **{
        f"root_q{q}": (lambda q=q: root_grid_field(33, q, z0=0.13 + 0.07j))
        for q in range(2, 9)
    },
    # the branch cut crosses x-edges instead of y-edges
    **{
        f"root_q{q}_transposed": (lambda q=q: _transposed(root_grid_field(33, q, z0=0.13 + 0.07j)))
        for q in (3, 7)
    },
    "two_sheet": lambda: two_sheet_field(41, seed=3),
    "branch_pair": lambda: branch_pair_field(41, -0.3 + 0.1j, 0.35 - 0.2j),
    "noisy": lambda: noisy_copy(sqrt_grid_field(33)),
    "minimised": lambda: minimize(noisy_copy(sqrt_grid_field(33))).field,
    "q1_n1": lambda: _scalar_field(21, lambda x, y: (x * y,)),
    "q1_n3": lambda: _scalar_field(21, lambda x, y: (x, y, x * y - 0.5 * y**2)),
    "grid_3x40": lambda: _window(two_sheet_field(41, seed=5), np.s_[:3, :40]),
    "grid_41x9": lambda: _window(two_sheet_field(41, seed=5), np.s_[:, :9]),
    "coincident": lambda: _coincident_sqrt(25),
    "q2_n8": lambda: _lifted_sqrt(33),
}


def _oracle_hopf(f):
    fr = standard_frame(f.n, f.q_sheets)
    return hopf_differential(f, fr), node_stencil_hopf(f.values, fr.directions[: f.n], f.spacing)


@pytest.mark.parametrize("which", sorted(_HOPF_FIELDS))
def test_hopf_differential_equals_node_stencil_oracle(which):
    # one matching per edge pairs the neighbours exactly as matching each
    # node's four neighbours to it did, wherever no edge's matching ties
    got, want = _oracle_hopf(_HOPF_FIELDS[which]())
    for name, ref in zip(("phi", "degenerate"), want):
        assert np.array_equal(getattr(got, name), ref), name


@pytest.mark.parametrize("q", [3, 4, 6])
def test_hopf_lattice_ties_differ_only_at_degenerate_nodes(q):
    # on an integer lattice an edge's optimal matching ties, and each edge now
    # keeps the one matching `_match_edges` gives it where the node-by-node
    # stencil matched it once from each end; a tie needs sheets no farther
    # apart than the increments, so only degenerate nodes (and the rim
    # copies of their values) may differ
    vals = np.random.default_rng(q).integers(0, 2, size=(13, 13, q, 2)).astype(float)
    got, (phi, core) = _oracle_hopf(GridField(vals, 1.0, (0.0, 0.0)))
    differ = (got.phi != phi) | (got.degenerate != core)
    allowed = np.pad(got.degenerate[1:-1, 1:-1], 1, mode="edge")
    assert not np.any(differ & ~allowed)


def test_hopf_differential_makes_two_assign_calls(monkeypatch):
    # the x- and y-edge matchings of `_match_edges`, nothing more
    import qvalued.field as field

    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return assign(a, b)

    monkeypatch.setattr(field, "assign", counting)
    f = root_grid_field(17, 3, z0=0.1 + 0.05j)
    hopf_differential(f, standard_frame(2, 3))
    assert calls == [(17, 16, 3, 2), (16, 17, 3, 2)]


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
        # the cutoff disc of psi_k, without its range checks
        w0 = tuple(g.node_position(w))
        disc = _disc_cell_window(g, w0, _rim_distance(g, w0))
        level = _LevelCutoff(dst[disc.nodes], disc, _cutoff_cells(comp, disc))
        val = level.psi(rho, rho / 4)
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
    disc = _disc_cell_window(f, (0.0, 0.0), r_disc)
    level = _LevelCutoff(dst[disc.nodes], disc, _cutoff_cells(comp, disc))
    val = level.psi(big + 1.0, 0.5)
    g2 = comp.grad_sq()
    cell = (g2[:-1, :-1] + g2[:-1, 1:] + g2[1:, :-1] + g2[1:, 1:]) / 4 * f.spacing**2
    cx = f.origin[0] + f.spacing * (np.arange(f.nx - 1) + 0.5)
    cy = f.origin[1] + f.spacing * (np.arange(f.ny - 1) + 0.5)
    gx, gy = np.meshgrid(cx, cy)
    want = cell[(gx**2 + gy**2) <= r_disc**2].sum()
    assert val == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("which", ["sqrt", "root3", "minimised"])
def test_saturated_rung_is_the_key_lemma_energy(which, minimized_strong_97):
    # at full weight psi integrates the augmented map's energy over the disc,
    # the e_f + e_h of the key lemma on the same disc, summed in another order
    f, w = {
        "sqrt": (sqrt_grid_field(65), (40, 20)),
        "root3": (root_grid_field(65, 3, z0=0.05 - 0.03j), (30, 36)),
        "minimised": (minimized_strong_97.field, (48, 44)),
    }[which]
    fr = standard_frame(f.n, f.q_sheets)
    comp = harmonic_companion(hopf_differential(f, fr))
    base = QPoint(f.values[w].copy())
    chain = nested_chain(base, angle_separated_frame(support(base)))
    w0 = tuple(f.node_position(w))
    r = 0.7 * _rim_distance(f, w0)
    disc = _disc_cell_window(f, w0, r)
    dst = d_star(f, comp, w, 0, chain)[disc.nodes]
    level = _LevelCutoff(dst, disc, _cutoff_cells(comp, disc))
    eps = 0.1
    rho = float(dst.max()) + 2 * eps
    assert np.all((rho - level.d_max) / eps >= 1.0)  # every disc cell weighs 1
    _, rhs, _ = key_lemma_check(f, comp, w, r, fr)
    e_key = rhs**2 * 2 * math.pi * delta_constant(f.n, f.q_sheets)
    assert level.psi(rho, eps) == pytest.approx(e_key, rel=1e-14)


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


def _based_at(f, fr, w):
    comp = harmonic_companion(hopf_differential(f, fr))
    base = QPoint(f.values[w[0], w[1]].copy())
    return f, fr, comp, w, nested_chain(base, angle_separated_frame(support(base)))


@pytest.mark.parametrize("origin", [(0.0, 0.0), (1e3, -1e3), (-1.3, 0.7)])
def test_rim_distance_disc_fits_inside_the_grid(origin):
    # the pivot's cutoff disc about every interior node passes the inside
    # check, also on a grid far from the origin
    for spacing, (ny, nx) in ((0.1, (9, 13)), (2.0 / 48, (17, 11)), (7.3, (6, 8))):
        f = GridField(np.zeros((ny, nx, 1, 1)), spacing, origin)
        for iy in range(1, ny - 1):
            for ix in range(1, nx - 1):
                w = tuple(f.node_position((iy, ix)).tolist())
                _require_disc_inside(f, w, _rim_distance(f, w))


def test_each_disc_is_built_once_per_call(monkeypatch):
    # the key lemma reads E_f and E_h from one disc, the certificate E_R and
    # E_h from one and C_R0 from the other, and psi_k and the ladder share one
    import qvalued.analysis as analysis

    f, fr, comp, w, chain = _split_pair_field_setup()
    built = []
    window = analysis._disc_cell_window

    def counting_window(g, w0, r):
        built.append((tuple(w0), r))
        return window(g, w0, r)

    monkeypatch.setattr(analysis, "_disc_cell_window", counting_window)
    wpos = tuple(f.node_position(w).tolist())
    r0 = _rim_distance(f, wpos)
    key_lemma_check(f, comp, w, 0.5 * r0, fr)
    assert built == [(wpos, 0.5 * r0)]
    built.clear()
    continuity_certificate(f, fr, wpos, 0.5 * r0, comp)
    assert built == [(wpos, 0.5 * r0), (wpos, r0)]
    built.clear()
    rep = monotonicity_report(f, comp, fr, w, chain)
    assert built == [(wpos, r0)]
    built.clear()
    tau = valid_rho_interval(f, comp, fr, w, 0, chain)[3]
    psi_k(f, comp, fr, w, 0, chain, rep.levels[0][0].rho, min(chain.levels[0].sigma, tau) / 20)
    assert built == [(wpos, r0)]


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_psi_k_refuses_a_non_finite_ramp_width(eps):
    # NaN passed `eps <= 0 or eps >= cap`, and psi_k then returned 0.0
    f = two_sheet_field(33, seed=0)
    f, fr, comp, w, chain = _based_at(f, standard_frame(2, 2), (16, 16))
    lo, hi, _, _ = valid_rho_interval(f, comp, fr, w, 0, chain)
    with pytest.raises(InvalidInputError, match="eps"):
        psi_k(f, comp, fr, w, 0, chain, 0.5 * (lo + hi), eps)


@pytest.mark.parametrize("ladder", [[0.5, math.nan], [math.nan], [0.0, 0.5], [0.5, 1.0]], ids=str)
def test_monotonicity_report_refuses_fractions_outside_the_interval(ladder):
    # NaN passed `ladder <= 0` and `ladder >= 1`, and the rung check then
    # refused it as "rho = nan outside the valid interval"
    f, fr, comp, w, chain = _based_at(two_sheet_field(33, seed=0), standard_frame(2, 2), (16, 16))
    with pytest.raises(InvalidInputError, match="ladder fractions"):
        monotonicity_report(f, comp, fr, w, chain, ladder=np.array(ladder))


def _constant_field_setup(nn=65):
    vals = np.tile(np.array([0.2, -0.1]), (nn, nn, 2, 1))
    spec = unit_square_grid(nn)
    f = GridField(vals, spec.spacing, spec.origin)
    return _based_at(f, standard_frame(2, 2), (nn // 2, nn // 2))


def _strong_field_setup(res):
    return _based_at(res.field, standard_frame(2, 2), (48, 44))


def _near_double_field_setup():
    # Q = 3 with two sheets 1e-6 apart: a three-level chain whose pivot is k0 = 1
    spec = unit_square_grid(65)
    x, y = meshgrid_for(spec)
    s0 = np.stack([0.1 * x, 0.1 * y], -1)
    far = np.stack([1 + 0.1 * x, 0.5 + 0 * y], -1)
    f = GridField(np.stack([s0, s0 + np.array([1e-6, 0.0]), far], axis=2), spec.spacing, spec.origin)
    return _based_at(f, standard_frame(2, 3), (32, 32))


def _split_pair_field_setup():
    # Q = 2, the sheets z and z + 0.003: the pair merges at level 1, k0 = 1,
    # and d*_1 differs from d*_0 by O(0.003), which moves samples across every
    # level-1 rung (the near-double field's level-1 cutoffs are thinner than
    # its subsample spacing, so psi is 0 on both of its levels); the base is
    # off-centre, so mirrored cells do not cancel
    spec = unit_square_grid(65)
    x, y = meshgrid_for(spec)
    s0 = np.stack([x, y], -1)
    f = GridField(np.stack([s0, s0 + np.array([3e-3, 0.0])], axis=2), spec.spacing, spec.origin)
    return _based_at(f, standard_frame(2, 2), (35, 30))


def _ladder_setup(which, request):
    if which == "strong":
        return _strong_field_setup(request.getfixturevalue("minimized_strong_97"))
    if which == "constant_33":
        return _constant_field_setup(33)
    if which == "root3":
        # based at the branch point: one site, sigma_0 = inf
        return _based_at(root_grid_field(65, 3), standard_frame(2, 3), (32, 32))
    if which == "sqrt161":
        return _based_at(sqrt_grid_field(161), standard_frame(2, 2), (70, 90))
    if which == "split_pair":
        return _split_pair_field_setup()
    return _constant_field_setup() if which == "constant" else _near_double_field_setup()


@pytest.mark.parametrize("which", ["strong", "constant", "near_double", "split_pair"])
def test_monotonicity_rows_equal_direct_psi_k(which, request):
    # the ladder shares one pivot, one energy density and one d* per level;
    # every rung must still equal a standalone, fully validated psi_k call
    f, fr, comp, w, chain = _ladder_setup(which, request)
    rep = monotonicity_report(f, comp, fr, w, chain)
    if which in ("near_double", "split_pair"):
        assert rep.k0 == 1
    if which == "split_pair":
        # the near-double field reads 0 on every rung; this one compares values
        assert any(row.psi > 0 for row in rep.levels[rep.k0])
    _, hi0, _, tau = valid_rho_interval(f, comp, fr, w, 0, chain)
    eps = (min(chain.levels[0].sigma, tau) if tau > 0 else 2.5 * hi0) / 20
    assert sum(len(rows) for rows in rep.levels.values()) == 10 * (rep.k0 + 1)
    for k, rows in rep.levels.items():
        for row in rows:
            assert row.psi == psi_k(f, comp, fr, w, k, chain, row.rho, eps)


@pytest.mark.parametrize("which", ["strong", "near_double"])
def test_monotonicity_report_builds_pivot_once(which, request, monkeypatch):
    import qvalued.analysis as analysis

    calls = {"_tau_star": 0, "_d_star_at": 0}

    def counting(name):
        inner = getattr(analysis, name)

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return wrapped

    f, fr, comp, w, chain = _ladder_setup(which, request)
    for name in calls:
        monkeypatch.setattr(analysis, name, counting(name))
    rep = monotonicity_report(f, comp, fr, w, chain)
    assert calls == {"_tau_star": 1, "_d_star_at": len(rep.levels)}
    assert len(rep.levels) == rep.k0 + 1


@pytest.mark.parametrize("which", ["strong", "constant", "near_double"])
def test_monotonicity_report_embeds_the_grid_once(which, request, monkeypatch):
    # the grid is embedded once per Hopf field: the pivot and the circle
    # fallback of every level read the array the companion carries
    f, fr, comp, w, chain = _ladder_setup(which, request)
    calls = count_embed_grid(monkeypatch)
    monotonicity_report(f, comp, fr, w, chain)
    assert calls == []


def _cutoff_disc(f, w):
    """The cells of the largest disc centred on the base node w."""
    w0 = tuple(f.node_position(w))
    return _disc_cell_window(f, w0, _rim_distance(f, w0))


@pytest.mark.parametrize("which", ["strong", "root3", "sqrt161", "split_pair"])
def test_d_star_at_nodes_is_the_full_grid_float(which, request):
    # on a window or a mask, each node gets the float of the full-grid d*
    f, fr, comp, w, chain = _ladder_setup(which, request)
    disc = _cutoff_disc(f, w)
    mask = np.random.default_rng(0).random((f.ny, f.nx)) < 0.3
    for k in range(len(chain.levels)):
        full = d_star(f, comp, w, k, chain)
        assert np.array_equal(_d_star_at(f, comp, w, k, chain, disc.nodes), full[disc.nodes])
        assert np.array_equal(_d_star_at(f, comp, w, k, chain, mask), full[mask])


def circle_corner_count(f, pts) -> int:
    """The corner nodes of the grid cells that hold the points."""
    cells = np.floor((pts - np.asarray(f.origin)) / f.spacing).astype(int)
    return len({(x + dx, y + dy) for x, y in cells.tolist() for dx in (0, 1) for dy in (0, 1)})


def test_ladder_measures_d_star_on_the_disc_node_window(request, monkeypatch):
    # at the `diagnose` grid size each level's d* is measured on the cutoff
    # disc's node window, not on the whole grid, and tau* in one batch of
    # its own on the corner nodes of the cells the disc's circle crosses
    import qvalued.analysis as analysis

    f, fr, comp, w, chain = _ladder_setup("sqrt161", request)
    sizes = []

    def counting(p, batch):
        sizes.append(math.prod(batch.shape[:-2]))
        return metric_g_many(p, batch)

    monkeypatch.setattr(analysis, "metric_g_many", counting)
    rep = monotonicity_report(f, comp, fr, w, chain)
    rows, cols = _cutoff_disc(f, w).window
    window = (rows.stop - rows.start + 1) * (cols.stop - cols.start + 1)
    w0 = tuple(f.node_position(w))
    corners = circle_corner_count(f, circle_points(w0, _rim_distance(f, w0), f.spacing))
    assert corners < window < f.nx * f.ny
    assert len(sizes) == 1 + len(rep.levels)
    assert sizes[0] <= corners
    assert max(sizes[1:]) <= window
    psi_k(f, comp, fr, w, 0, chain, rep.levels[0][0].rho, 0.5 * rep.levels[0][0].rho)
    assert len(sizes) == len(rep.levels) + 3
    assert sizes[-2] <= corners and sizes[-1] <= window


def _constant_near_double_setup():
    # tau* = 0 on a three-level chain: the circle fallback sets hi at k0 = 2,
    # where rho_2 is beyond it, so the ladder is refused
    vals = np.tile(np.array([[0.0, 0.0], [1e-6, 0.0], [1.0, 0.5]]), (33, 33, 1, 1))
    spec = unit_square_grid(33)
    return _based_at(GridField(vals, spec.spacing, spec.origin), standard_frame(2, 3), (16, 16))


@pytest.mark.parametrize("which", ["constant", "constant_near_double"])
def test_circle_fallback_reads_d_star_on_the_pivot_circle(which, request, monkeypatch):
    # where tau* = 0 the fallback of `_Pivot.level` takes 2/5 of the least
    # d*_k, G plus the companion, over the circle of the pivot's disc, the
    # circle tau* read; no frame enters it
    import qvalued.analysis as analysis

    f, fr, comp, w, chain = (_constant_near_double_setup() if which == "constant_near_double"
                             else _ladder_setup(which, request))
    calls = []

    def counting(w0, r, spacing):
        calls.append((w0, r))
        return circle_points(w0, r, spacing)

    monkeypatch.setattr(analysis, "circle_points", counting)
    k0 = chain.depth
    _, hi, piv_k0, tau = valid_rho_interval(f, comp, fr, w, k0, chain)
    assert tau == 0.0 and piv_k0 == k0
    w0 = tuple(f.node_position(w))
    r = _rim_distance(f, w0)
    assert calls == [(w0, r)] * 2  # tau* and the fallback
    # the bilinear interpolant of the full-grid d*, by the test's own kernels
    dist = index_bilinear(d_star(f, comp, w, k0, chain)[..., None], f,
                          linspace_circle_points(w0, r, f.spacing))
    assert hi == pytest.approx(0.4 * dist.min(), rel=1e-12)
    turned = rotated_frame(f.n, f.q_sheets, seed=3)
    other = harmonic_companion(hopf_differential(f, turned))
    assert valid_rho_interval(f, other, turned, w, k0, chain)[1] == hi


def test_psi_ladder_matches_full_grid_oracle(request):
    # every rung of every level against the full-grid kernel, which ramps all
    # nine subsamples of every cell and masks to the disc at the end; the
    # per-cell arithmetic and the summation order are the same, so are the floats
    mixed = 0
    for which in ("strong", "constant_33", "near_double", "root3", "sqrt161", "split_pair"):
        f, fr, comp, w, chain = _ladder_setup(which, request)
        rep = monotonicity_report(f, comp, fr, w, chain)
        if which in ("near_double", "split_pair"):
            assert rep.k0 == 1
        if which in ("sqrt161", "split_pair"):
            assert all(row.psi > 0 for row in rep.levels[rep.k0])
        _, hi0, _, tau = valid_rho_interval(f, comp, fr, w, 0, chain)
        eps = (min(chain.levels[0].sigma, tau) if tau > 0 else 2.5 * hi0) / 20
        e_cell = full_grid_cutoff_cells(f, comp)
        w0 = tuple(f.node_position(w))
        r = _rim_distance(f, w0)
        for k, rows in rep.levels.items():
            dst = d_star(f, comp, w, k, chain)
            for row in rows:
                want = full_grid_psi(dst, e_cell, row.rho, eps, f, w0, r)
                assert row.psi == want, (which, k, row.rho)
                lam, disc = full_grid_cutoff(dst, row.rho, eps, f, w0, r)
                lam = lam[disc]
                mixed += bool((lam == 1).any() and ((lam > 0) & (lam < 1)).any() and (lam == 0).any())
    assert mixed > 0  # some rung has saturated, band and empty cells at once


@pytest.mark.parametrize("which", ["strong", "near_double"])
def test_monotonicity_report_ramps_only_the_band(which, request, monkeypatch):
    import qvalued.analysis as analysis

    built, ramped = [], []

    class CountingLevel(analysis._LevelCutoff):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    smoothstep = analysis._smoothstep

    def counting_smoothstep(t):
        ramped.append(t.size)
        return smoothstep(t)

    f, fr, comp, w, chain = _ladder_setup(which, request)
    monkeypatch.setattr(analysis, "_LevelCutoff", CountingLevel)
    monkeypatch.setattr(analysis, "_smoothstep", counting_smoothstep)
    rep = monotonicity_report(f, comp, fr, w, chain)
    assert len(built) == len(rep.levels)
    rungs = sum(len(rows) for rows in rep.levels.values())
    assert sum(ramped) < analysis.PSI_SUBSAMPLES**2 * built[0].energy.size * rungs


@pytest.mark.parametrize("which, vacuous", [("near_double", True), ("split_pair", False)])
def test_monotonicity_report_says_when_vacuous(which, vacuous, request):
    # a ladder of zeros passes the ratio check without testing anything
    f, fr, comp, w, chain = _ladder_setup(which, request)
    rep = monotonicity_report(f, comp, fr, w, chain)
    assert rep.vacuous is vacuous
    assert rep.to_dict()["vacuous"] is vacuous


def test_one_matched_stencil_per_field(monkeypatch):
    # the companion carries |grad f|^2 from its Hopf field, so the ladder and
    # psi_k build no stencil of their own
    f, fr, comp, w, chain = _split_pair_field_setup()
    calls = count_analysis_match_edges(monkeypatch)
    rep = monotonicity_report(f, comp, fr, w, chain)
    _, hi0, _, tau = valid_rho_interval(f, comp, fr, w, 0, chain)
    eps = (min(chain.levels[0].sigma, tau) if tau > 0 else 2.5 * hi0) / 20
    psi_k(f, comp, fr, w, 0, chain, rep.levels[0][0].rho, eps)
    assert calls == []
    hopf_differential(f, fr)
    assert calls == [f.values.shape]


def test_monotonicity_report_peak_memory():
    # the subsampled reconstructions cover the disc cells alone, 9 floats per
    # cell, and the energy density comes with the companion, so no matched
    # stencil (the old peak) is built
    f, fr, comp, w, chain = _ladder_setup("sqrt161", None)
    tracemalloc.start()
    try:
        monotonicity_report(f, comp, fr, w, chain)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


def test_certificate_and_key_lemma_embed_the_grid_once(monkeypatch):
    f = sqrt_grid_field(65)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    calls = count_embed_grid(monkeypatch)
    continuity_certificate(f, fr, (0.0, 0.0), 0.4, comp)
    key_lemma_check(f, comp, (32, 32), 0.5, fr)
    assert calls == []  # both read the embedded grid and its cell energy from comp.hopf


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


LADDER_SETUPS = ["strong", "constant", "constant_33", "near_double", "root3", "sqrt161",
                 "split_pair"]


@pytest.mark.parametrize("frame_kind", ["standard", "rotated"])
@pytest.mark.parametrize("which", LADDER_SETUPS)
def test_tau_star_bounds_the_embedded_tau_star(which, frame_kind, request):
    # xi0 is 1-Lipschitz for G, so at every node G(f(node), f(w*)) is at
    # least the embedded distance; a norm is convex, so at every circle
    # point the interpolated embedded distance is at most the interpolated
    # G, and the least over the circle is too
    f, _, comp, w, chain = _ladder_setup(which, request)
    fr = (standard_frame if frame_kind == "standard" else rotated_frame)(f.n, f.q_sheets)
    w0 = tuple(f.node_position(w))
    r = _rim_distance(f, w0)
    slack = 1e-12 * max(1.0, float(np.abs(f.values).max()))
    tau = tau_star(f, fr, w, w0, r)
    assert tau == valid_rho_interval(f, comp, standard_frame(f.n, f.q_sheets), w, 0, chain)[3]
    # the least over the circle of the interpolated full-grid G, by the test's own kernels
    g = metric_g_many(f.values[w], f.values)[..., None]
    assert tau == pytest.approx(index_bilinear(g, f, linspace_circle_points(w0, r, f.spacing)).min(),
                                rel=1e-12, abs=slack)
    assert tau >= embedded_tau_star(f, fr, w, w0, r) - slack
    gx, gy = meshgrid_for(f)
    disc = (gx - w0[0]) ** 2 + (gy - w0[1]) ** 2 <= (0.5 * r) ** 2  # the key lemma's at r/2
    farr = einsum_embedding(f.values, fr.directions[: f.n])
    emb = np.linalg.norm(farr[disc] - farr[w], axis=-1)
    assert np.all(metric_g_many(f.values[w], f.values[disc]) >= emb - slack)


def test_tau_star_sees_the_mirror_point():
    # sqrt(z - z0) at the mirror image of z across Im z = Im z0 is the
    # conjugate pair, whose xi0 in the standard frame is xi0 of the pair at
    # z.  The largest circle about the base node passes through its mirror
    # image, so the embedded distance reads 0 there while G does not; a 45
    # degree range rotation hides the mirror from xi0 again
    f = root_grid_field(65, 2, z0=0.11 - 0.0625j)
    w, mirror = (20, 40), (40, 40)
    fr = standard_frame(2, 2)
    w0 = tuple(f.node_position(w))
    r = _rim_distance(f, w0)
    assert np.allclose(f.node_position(mirror), (w0[0], w0[1] + r), rtol=0, atol=1e-15)
    assert embedded_tau_star(f, fr, w, w0, r) < 1e-12
    reports = []
    for g in (f, range_isometry(f, angle=math.radians(45))):
        comp = harmonic_companion(hopf_differential(g, fr))
        base = QPoint(g.values[w].copy())
        reports.append(monotonicity_report(g, comp, fr, w,
                                           nested_chain(base, angle_separated_frame(support(base)))))
    assert reports[0].tau_star >= 0.5 * reports[1].tau_star > 0
    assert not reports[0].vacuous


def test_continuity_certificate_constant_field():
    vals = np.tile(np.array([0.2, -0.1]), (65, 65, 2, 1))
    spec = unit_square_grid(65)
    f = GridField(vals, spec.spacing, spec.origin)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    cert = continuity_certificate(f, fr, (0.0, 0.0), 0.4, comp)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_disc_is_refused(bad):
    # NaN passes every comparison of the disc tests, and an infinite disc
    # has no window of cells, so every entry point refuses a non-finite
    # centre or radius
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    node = (16, 16)
    w = tuple(f.node_position(node))
    calls = [
        lambda: courant_lebesgue_slice(f, fr, (bad, 0.0), 0.3),
        lambda: courant_lebesgue_slice(f, fr, w, bad),
        lambda: tau_star(f, fr, node, (0.0, bad), 0.3),
        lambda: tau_star(f, fr, node, w, bad),
        lambda: disc_energy(f, fr, (bad, 0.0), 0.3),
        lambda: disc_energy(f, fr, w, bad),
        lambda: continuity_certificate(f, fr, (bad, 0.0), 0.3, comp),
        lambda: continuity_certificate(f, fr, w, bad, comp),
        lambda: key_lemma_check(f, comp, node, bad, fr),
        lambda: disc_oscillation(f, (bad, 0.0), 0.3),
        lambda: disc_oscillation(f, w, bad),
    ]
    for call in calls:
        with pytest.raises(InvalidInputError, match="finite"):
            call()


def test_negative_disc_radius_is_refused():
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    with pytest.raises(InvalidInputError, match="radius >= 0"):
        disc_energy(f, fr, (0.0, 0.0), -0.3)
    with pytest.raises(InvalidInputError, match="radius >= 0"):
        tau_star(f, fr, (16, 16), (0.0, 0.0), -0.3)


def test_energy_density_floor(minimized_strong_97):
    # the augmented map's energy per cell, over the cell's area, stays above
    # 2 everywhere: the companion contributes at least the
    # conjugate-coordinate energy density
    g = minimized_strong_97.field
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(g, fr))
    total = (comp.hopf.energy.per_cell + comp.cell_energy) / g.spacing**2
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
