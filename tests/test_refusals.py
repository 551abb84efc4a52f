"""Each documented refusal of the package, raised with its type and message.

The table holds the refusals one call reaches; the tests after it reach the
rest: a branch of `minimize` with no free node, non-finite floats, a level
beyond the pivot, and the two self-checks, whose constants are monkeypatched
so that the check fails on an input it accepts.
"""

import math
import re

import numpy as np
import pytest

import qvalued.admissible as admissible
import qvalued.variations as variations
from qvalued import (
    AdmissibleBall,
    AngleSeparatedFrame,
    DomainVariation,
    EmbeddedPoint,
    FrameConstructionError,
    GridField,
    HopfField,
    InvalidInputError,
    MinimizeOptions,
    NumericalFailureError,
    ProjectionFrame,
    QPoint,
    SupportDecomposition,
    angle_separated_frame,
    build_admissible_variation,
    delta_cascade,
    embed_grid,
    frame_with_extra_directions,
    harmonic_companion,
    hopf_differential,
    minimize,
    nested_chain,
    pushforward_projection,
    standard_frame,
    support,
    theta0,
    valid_rho_interval,
    xi0,
    xi_alpha,
    xi_full,
)
from qvalued.admissible import assign_sheets

from helpers import two_sheet_field

_PAIR = SupportDecomposition(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([1, 1]))
_POINT3 = QPoint(np.zeros((3, 2)))
_FIELD = np.zeros((4, 4, 2, 2))

#: (call, error type, message), each message matched in full
REFUSALS = {
    "qpoint_not_q_by_n": (lambda: QPoint(np.zeros(3)), InvalidInputError,
                          "points must be a (Q, n) array, got shape (3,)"),
    "qpoint_no_sheet": (lambda: QPoint(np.zeros((0, 2))), InvalidInputError,
                        "points must be a (Q, n) array, got shape (0, 2)"),
    "support_misaligned": (lambda: SupportDecomposition(np.zeros((2, 1)), np.array([2])),
                           InvalidInputError, "sites (I, n) and multiplicities (I,) must align"),
    "support_multiplicity_0": (lambda: SupportDecomposition(np.zeros((2, 1)), np.array([2, 0])),
                               InvalidInputError, "multiplicities must be positive"),
    "pushforward_direction_shape": (
        lambda: pushforward_projection(np.ones(3) / math.sqrt(3), _POINT3), InvalidInputError,
        "direction must have shape (2,), got (3,)"),
    "frame_not_2d": (lambda: ProjectionFrame(np.ones(2), 2), InvalidInputError,
                     "directions must be a (P, n) array"),
    "frame_no_sheet": (lambda: ProjectionFrame(np.eye(2), 0), InvalidInputError,
                       "q_sheets must be positive"),
    "embedded_point_not_2d": (lambda: EmbeddedPoint(np.zeros(3)), InvalidInputError,
                              "blocks must be a (B, Q) array"),
    "extra_directions_below_n": (lambda: frame_with_extra_directions(3, 2, 2), InvalidInputError,
                                 "p_total must be at least n"),
    **{
        f"{name}_misfit": (lambda embed=embed: embed(_POINT3), InvalidInputError,
                           "point (3 sheets in R^2) does not fit frame (2 sheets in R^2)")
        for name, embed in (("xi0", lambda p: xi0(standard_frame(2, 2), p)),
                            ("xi_alpha", lambda p: xi_alpha(standard_frame(2, 2), 0, p)),
                            ("xi_full", lambda p: xi_full(standard_frame(2, 2), p)))
    },
    "theta0_n_0": (lambda: theta0(0, 2), InvalidInputError, "n and q_sheets must be positive"),
    "theta0_q_0": (lambda: theta0(2, 0), InvalidInputError, "n and q_sheets must be positive"),
    "delta_cascade_ell_0": (lambda: delta_cascade(2, 0), InvalidInputError, "ell must be >= 1"),
    "angle_frame_below_target": (
        lambda: AngleSeparatedFrame(standard_frame(2, 2), 0.25, 0.5), FrameConstructionError,
        "achieved angle 0.25 below target 0.5"),
    "ball_radius_0": (lambda: AdmissibleBall(_PAIR, 0.0, standard_frame(2, 2)), InvalidInputError,
                      "radius must be positive"),
    "assign_sheets_mismatch": (
        lambda: assign_sheets(_PAIR, _POINT3, AdmissibleBall(_PAIR, 0.1, standard_frame(2, 2))),
        InvalidInputError, "tuple does not match the ball's center"),
    "grid_not_finite": (lambda: GridField(np.full((3, 3, 1, 1), np.nan), 1.0), InvalidInputError,
                        "field values must be finite"),
    "grid_mask_shape": (lambda: GridField(_FIELD, 1.0, boundary_mask=np.ones((4, 5), bool)),
                        InvalidInputError, "boundary_mask shape must match the grid"),
    "embed_grid_frame": (lambda: embed_grid(GridField(_FIELD, 1.0), standard_frame(2, 3)),
                         InvalidInputError, "frame does not match the field's (Q, n)"),
    "hopf_no_interior_node": (lambda: hopf_differential(GridField(np.zeros((2, 5, 2, 2)), 1.0),
                                                        standard_frame(2, 2)),
                              InvalidInputError, "need interior nodes to form central differences"),
    "bump_radius_0": (lambda: DomainVariation((0.0, 0.0), 0.0, (1.0, 0.0)), InvalidInputError,
                      "bump radius must be positive"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_minimize_with_no_free_node_returns_its_input():
    # every node of a two-row grid is on the rim, so nothing is solved
    f = GridField(np.random.default_rng(0).normal(size=(2, 3, 2, 2)), 0.5)
    res = minimize(f)
    assert np.array_equal(res.field.values, f.values)
    assert res.iterations == 1 and res.converged
    assert res.energies[0] == res.energies[1]


def test_minimize_refuses_a_non_finite_energy():
    # each y-edge of the rows next to the rim has a finite squared length of
    # 1.44e308, and a cell adds two of them, which overflows
    v = np.zeros((3, 3, 1, 1))
    v[0], v[2] = 1.2e154, -1.2e154
    with np.errstate(over="ignore"), pytest.raises(
            NumericalFailureError, match="^non-finite energy during minimisation$"):
        minimize(GridField(v, 1.0))


def test_minimize_refuses_a_non_finite_start_without_iterating():
    # the start's energy is checked before the first solve, so no iteration
    # is needed to refuse it
    v = np.zeros((3, 3, 1, 1))
    v[0], v[2] = 1.2e154, -1.2e154
    with np.errstate(over="ignore"), pytest.raises(
            NumericalFailureError, match="^non-finite energy during minimisation$"):
        minimize(GridField(v, 1.0), MinimizeOptions(max_iters=0))


def test_companion_refuses_non_finite_values():
    # NaN passes through the potential solve unchanged
    hopf = HopfField(np.full((9, 9), complex(np.nan)), np.zeros((9, 9), bool), 0.1, (0.0, 0.0))
    with pytest.raises(NumericalFailureError,
                       match="^companion integration produced non-finite values$"):
        harmonic_companion(hopf)


def test_valid_rho_interval_refuses_a_level_beyond_the_pivot():
    # the two sheets are about 7 apart, so rho_1 is far above tau* and k0 = 0
    f = two_sheet_field(33, seed=0)
    fr = standard_frame(2, 2)
    comp = harmonic_companion(hopf_differential(f, fr))
    base = f.node_value((16, 16))
    chain = nested_chain(base, angle_separated_frame(support(base)))
    assert chain.depth == 1 and valid_rho_interval(f, comp, fr, (16, 16), 0, chain)[2] == 0
    with pytest.raises(InvalidInputError, match="^level 1 beyond the pivot level k0 = 0$"):
        valid_rho_interval(f, comp, fr, (16, 16), 1, chain)


def test_frame_verification_failure_names_the_worst_pair(monkeypatch):
    # with a slack of -pi every frame fails its verification; the error
    # carries the direction and axis whose angle is the frame's least
    p = QPoint(np.random.default_rng(4).normal(size=(4, 3)))
    built = angle_separated_frame(support(p))
    monkeypatch.setattr(admissible, "ANGLE_SLACK", -math.pi)
    with pytest.raises(FrameConstructionError, match="^frame verification failed: angle ") as err:
        angle_separated_frame(support(p))
    direction, axis = err.value.worst
    assert np.linalg.norm(direction) == pytest.approx(1.0, abs=1e-15)
    dot = abs(float(built.frame.directions[axis] @ direction))
    assert float(np.arcsin(min(dot, 1.0))) == built.achieved_min_angle


def test_range_variation_lipschitz_check_failure(monkeypatch):
    # the sampled ratios reach about the true constant, far above 0.5
    p = QPoint(np.array([[0.0, 0.0], [1.0, 0.0]]))
    chain = nested_chain(p, angle_separated_frame(support(p)))
    sigma0 = chain.levels[0].sigma
    build_admissible_variation(chain, 0, sigma0 / 2, sigma0 / 20, (5, 5))
    monkeypatch.setattr(variations, "RETRACTION_LIPSCHITZ", 0.5)
    with pytest.raises(NumericalFailureError,
                       match=r"^sampled retraction Lipschitz ratio \S+ exceeds the retraction's "
                             r"constant 0\.5$"):
        build_admissible_variation(chain, 0, sigma0 / 2, sigma0 / 20, (5, 5))
