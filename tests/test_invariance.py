"""The field's energy is a function of the unordered field.

The Dirichlet integral on A_Q(R^n) does not see the order of the sheets at a
node and does not change under isometries of the range.  Every diagnostic
reads the one discrete energy that `minimize` lowers, the matched energy of
`dirichlet_energy_matched`, so every energy they report must keep its value,
up to rounding, under a per-node relabelling, a range rotation and a range
shift.  The frame embedding's energy `dirichlet_energy` does not: it moves
with the frame, and cell by cell it stays at most the matched energy.  The
range trials difference the matched energy too, so at a fixed level, rho,
eps and base node they read the same derivative in every frame and under
the same transforms.

The oscillation readers, `disc_oscillation` and the certificate's
Courant-Lebesgue slice, read every point they sample, and each scan circle's
sample angles map onto themselves under the eight symmetries of the square
grid, so the certificate and the disc oscillation keep their values, up to
rounding, when the grid is turned or reflected.  Scaling the values by a
power of two scales every oscillation and alpha1 by it and C_R0 by its
square, without rounding.
"""

import dataclasses
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qvalued import (
    GridField,
    QPoint,
    angle_separated_frame,
    continuity_certificate,
    dirichlet_energy,
    dirichlet_energy_matched,
    disc_energy,
    disc_oscillation,
    harmonic_companion,
    hopf_differential,
    key_lemma_check,
    minimize,
    nested_chain,
    range_variation_derivative,
    rotated_frame,
    standard_frame,
    stationarity_residual,
    support,
)
from qvalued.field import SCAN_CIRCLE_POINTS, _circle_size
from qvalued.variations import RangeVariation, cutoff_weights

from helpers import (d4_image, noisy_copy, range_isometry, relabelled, root_grid_field, scaled,
                     sqrt_grid_field, two_sheet_field)

#: relative agreement of each energy reader under a transform; the worst
#: measured on the fields below is 6.0e-16 (beta of the minimised two-sheet
#: field under the 30 degree rotation)
INVARIANCE_RTOL = 1e-12

# the frame embedding's energy does not move under a 30 degree rotation of
# the Q = 3 root or the two-sheet field, nor under 45 degrees of the
# square-root field, so each field gets a rotation it would see
TRANSFORMS = {
    "rotation by 30 degrees": lambda f: range_isometry(f, angle=math.radians(30)),
    "rotation by 45 degrees": lambda f: range_isometry(f, angle=math.radians(45)),
    "shift": lambda f: range_isometry(f, shift=(0.7, -1.3)),
    "relabelling": lambda f: relabelled(f, seed=5),
}


@pytest.fixture(scope="module", params=["sqrt", "root3", "minimized_two_sheet"])
def energy_field(request):
    if request.param == "sqrt":
        return sqrt_grid_field(65)
    if request.param == "root3":
        return root_grid_field(65, 3, z0=0.05 - 0.03j)
    return minimize(two_sheet_field(65, seed=11)).field


def energy_readers(f: GridField) -> dict[str, float]:
    """Every reported value that reads the field's energy, in the standard
    frame, on one disc and at one base node off the centre."""
    fr = standard_frame(f.n, f.q_sheets)
    comp = harmonic_companion(hopf_differential(f, fr))
    node = (f.ny // 2 + 3, f.nx // 2 - 5)
    cert = continuity_certificate(f, fr, tuple(f.node_position(node)), 0.4, comp=comp)
    return {
        "HopfField.energy": comp.hopf.energy.total,
        "StationarityResidual.energy": stationarity_residual(f, fr, trials=1).energy,
        "disc_energy": disc_energy(f, fr, (0.1, -0.05), 0.5),
        "alpha1": cert.alpha1,
        "beta": cert.beta,
        "C_R0": cert.c_r0,
        "key lemma rhs": key_lemma_check(f, comp, node, 0.5, fr)[1],
    }


@pytest.mark.parametrize("transform", TRANSFORMS)
def test_energy_readers_are_invariant(energy_field, transform):
    want = energy_readers(energy_field)
    got = energy_readers(TRANSFORMS[transform](energy_field))
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=INVARIANCE_RTOL), name


#: range trial fields and base nodes.  The square-root field's cutoff at
#: (75, 109) crosses the ray from its branch point where the y-projections of
#: the two sheets meet, a kink of the frame embedding: a central difference
#: of the embedded energy read 2.4e-4 E there, and 2.4e-4 E apart between
#: the standard and a rotated frame, where the matched one reads 2.3e-10 E
RANGE_CASES = {
    "sqrt": (lambda: root_grid_field(129, 2, z0=0.05 + 0.16j), (75, 109)),
    "minimized_two_sheet": (lambda: minimize(two_sheet_field(65, seed=11)).field, (35, 27)),
}


def range_derivative(f: GridField, frame, node, rho: float, eps: float) -> float:
    """The level-0 range derivative at the node, for a chain built on the
    node's own tuple, with the cutoff's rho and eps given."""
    comp = harmonic_companion(hopf_differential(f, frame))
    base = QPoint(f.values[node].copy())
    rv = RangeVariation(nested_chain(base, angle_separated_frame(support(base))), 0, rho, eps, node)
    assert np.count_nonzero(cutoff_weights(f, comp, rv)) > 1  # the trial moves sheets
    return range_variation_derivative(f, frame, rv, comp)


@pytest.mark.parametrize("case", RANGE_CASES)
def test_range_derivative_is_invariant(case):
    # the worst measured difference is 2.6e-15 E (the minimised two-sheet
    # field under the range shift); the frame does not move it at all
    make, node = RANGE_CASES[case]
    f = make()
    fr = standard_frame(f.n, f.q_sheets)
    base = QPoint(f.values[node].copy())
    sigma = nested_chain(base, angle_separated_frame(support(base))).levels[0].sigma
    rho, eps = 0.24 * sigma, sigma / 20
    e = dirichlet_energy_matched(f).total
    want = range_derivative(f, fr, node, rho, eps)
    assert range_derivative(f, rotated_frame(f.n, f.q_sheets, seed=3), node, rho, eps) == want
    for name in ("rotation by 30 degrees", "shift", "relabelling"):
        got = range_derivative(TRANSFORMS[name](f), fr, node, rho, eps)
        assert abs(got - want) <= INVARIANCE_RTOL * e, name


def test_embedded_energy_moves_with_the_range_rotation():
    # the frame embedding's energy is not an energy of the unordered field:
    # a 30 degree rotation of the range lowers it on the square-root field
    f = sqrt_grid_field(65)
    fr = standard_frame(2, 2)
    turned = range_isometry(f, angle=math.radians(30))
    assert dirichlet_energy(turned, fr).total < dirichlet_energy(f, fr).total * (1 - 5e-3)
    assert dirichlet_energy_matched(turned).total == pytest.approx(
        dirichlet_energy_matched(f).total, rel=INVARIANCE_RTOL)


def embedded_twin(comp):
    """The companion with its Hopf field's energy replaced by the frame
    embedding's, the energy every diagnostic read before it read the
    matched one."""
    hopf = comp.hopf
    f = GridField(hopf.values, hopf.spacing, hopf.origin)
    return dataclasses.replace(comp, hopf=dataclasses.replace(hopf, energy=dirichlet_energy(f, hopf.frame)))


@settings(max_examples=60, deadline=timedelta(seconds=10))
@given(q=st.integers(1, 4), n=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       frame_seed=st.integers(0, 2**32 - 1))
def test_matched_energy_bounds_the_embedded_one_cell_by_cell(q, n, seed, frame_seed):
    # xi0 is 1-Lipschitz for G, so each embedded edge difference is at most
    # the assignment distance of its edge, and every value read from the
    # per-cell energy through sums over discs and square roots (E, the key
    # lemma's rhs, alpha1, alpha2, beta, C_R0) can only go up when the
    # matched energy replaces the embedded one; no bound that held can fail
    vals = np.random.default_rng(seed).normal(size=(17, 17, q, n))
    f = GridField(vals, 0.125, (-1.0, -1.0))
    fr = rotated_frame(n, q, seed=frame_seed)
    slack = 1e-12 * float(np.abs(vals).max()) ** 2
    emb, mat = dirichlet_energy(f, fr), dirichlet_energy_matched(f)
    assert np.all(emb.per_cell <= mat.per_cell + slack)
    assert emb.total <= mat.total * (1 + 1e-12)

    comp = harmonic_companion(hopf_differential(f, fr))
    twin = embedded_twin(comp)
    old = key_lemma_check(f, twin, (8, 8), 0.75, fr)
    new = key_lemma_check(f, comp, (8, 8), 0.75, fr)
    assert new[0] == old[0] and new[1] >= old[1] * (1 - 1e-12) and (new[2] or not old[2])
    old = continuity_certificate(f, fr, (0.05, -0.1), 0.5, comp=twin)
    new = continuity_certificate(f, fr, (0.05, -0.1), 0.5, comp=comp)
    for name in ("alpha1", "alpha2", "beta", "c_r0", "modulus"):
        assert getattr(new, name) >= getattr(old, name) * (1 - 1e-12), name


#: the eight symmetries of the square grid: quarter turns of the node axes,
#: each with and without a reflection; (0, False) is the identity
D4 = [(turns, flip) for turns in range(4) for flip in (False, True)]

#: the certificate's centre, also the oscillation disc's, and its radius
OSC_CENTRE, OSC_RADIUS = (0.1, -0.05), 0.6

#: D4 fields and disc radii.  Each disc holds more than 400 nodes and each
#: scan has circles of more than 512 points (4 per grid step of arc); the
#: winning circle of the two-sheet field is one of them.  Sampled readers,
#: a seeded 400-node subset of the disc and every k-th point of a long
#: circle, moved by 4.5e-3 (square root, disc), 1.0e-1 and 8.8e-3
#: (two-sheet, disc and slice) and 5.4e-3 (Q = 3 root, disc) under these
#: symmetries; the worst measured now is 1.0e-14 (two-sheet, slice_osc)
D4_CASES = {
    "sqrt": (lambda: sqrt_grid_field(129), 0.2),
    "noisy_two_sheet": (lambda: noisy_copy(two_sheet_field(129, seed=2), scale=0.5), 0.2),
    "root3": (lambda: root_grid_field(97, 3, z0=0.05 - 0.03j), 0.25),
}


def oscillation_readers(f: GridField, w, disc_r: float) -> dict[str, float]:
    """The certificate at w and the disc oscillation about w, in the standard frame."""
    fr = standard_frame(f.n, f.q_sheets)
    comp = harmonic_companion(hopf_differential(f, fr))
    cert = continuity_certificate(f, fr, w, OSC_RADIUS, comp=comp)
    return {
        "disc_oscillation": disc_oscillation(f, w, disc_r),
        "slice_radius": cert.slice_radius,
        "slice_osc": cert.slice_osc,
        "alpha1": cert.alpha1,
        "C_R0": cert.c_r0,
        "beta": cert.beta,
    }


@pytest.mark.parametrize("case", D4_CASES)
def test_oscillation_readers_are_d4_invariant(case):
    assert SCAN_CIRCLE_POINTS % 4 == 0
    make, disc_r = D4_CASES[case]
    f = make()
    gx, gy = np.meshgrid(f.xs, f.ys)
    assert ((gx - OSC_CENTRE[0]) ** 2 + (gy - OSC_CENTRE[1]) ** 2 <= disc_r**2).sum() > 400
    assert _circle_size(OSC_RADIUS, f.spacing) > SCAN_CIRCLE_POINTS
    want = oscillation_readers(f, OSC_CENTRE, disc_r)
    for turns, flip in D4[1:]:
        g, move = d4_image(f, turns, flip)
        got = oscillation_readers(g, move(OSC_CENTRE), disc_r)
        for name, value in want.items():
            assert got[name] == pytest.approx(value, rel=INVARIANCE_RTOL), (name, turns, flip)


#: the power of the scale s by which each reader moves when the values are
#: multiplied by s
SCALE_POWERS = {"disc_oscillation": 1, "slice_osc": 1, "alpha1": 1, "key lemma lhs": 1,
                "C_R0": 2, "slice_radius": 0}


@pytest.fixture(scope="module")
def scaled_readers():
    """The oscillation readers and the key lemma's two sides on the square-root
    field with its values scaled by 2^-2, 1 and 2^2."""
    f = sqrt_grid_field(129)
    node = (f.ny // 2 + 3, f.nx // 2 - 5)
    out = {}
    for s in (0.25, 1.0, 4.0):
        g = scaled(f, s)
        fr = standard_frame(g.n, g.q_sheets)
        comp = harmonic_companion(hopf_differential(g, fr))
        lhs, rhs, _ = key_lemma_check(g, comp, node, 0.5, fr)
        out[s] = {**oscillation_readers(g, OSC_CENTRE, 0.2),
                  "key lemma lhs": lhs, "key lemma rhs": rhs}
    return out


@pytest.mark.parametrize("s", [0.25, 4.0])
def test_oscillation_readers_scale_with_the_values(scaled_readers, s):
    # a power of two scales without rounding, so the readers scale bitwise
    for name, power in SCALE_POWERS.items():
        assert scaled_readers[s][name] == s**power * scaled_readers[1.0][name], name


#: the companion h = psi + conj(z) keeps its conj(z) part when f is scaled,
#: so its energy does not scale with the field's: at s = 4 beta read 237.0
#: times its value against s^2 = 16, and the key lemma's rhs 3.32 times
#: against s = 4
COMPANION_SCALE = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 13: the harmonic companion is not scale-covariant")


@COMPANION_SCALE
@pytest.mark.parametrize("s", [0.25, 4.0])
def test_beta_scales_as_the_energy(scaled_readers, s):
    want = s**2 * scaled_readers[1.0]["beta"]
    assert scaled_readers[s]["beta"] == pytest.approx(want, rel=INVARIANCE_RTOL)


@COMPANION_SCALE
@pytest.mark.parametrize("s", [0.25, 4.0])
def test_key_lemma_rhs_scales_with_the_values(scaled_readers, s):
    want = s * scaled_readers[1.0]["key lemma rhs"]
    assert scaled_readers[s]["key lemma rhs"] == pytest.approx(want, rel=INVARIANCE_RTOL)
