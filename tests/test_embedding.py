from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qvalued import (
    EmbeddedPoint,
    GridField,
    InvalidInputError,
    ProjectionFrame,
    QPoint,
    embed_grid,
    embedded_distance,
    frame_with_extra_directions,
    metric_g,
    pushforward_projection,
    rotated_frame,
    standard_frame,
    xi0,
    xi_alpha,
    xi_full,
)

from qvalued.embedding import SORT_NETWORK_MIN_NODES, _sorted_projections
from qvalued.qspace import project_sheets

from helpers import random_qpoint, random_qpoint_pair
from oracles import reference_sorted_projections, stable_sorted_rows


def test_frame_validation():
    with pytest.raises(InvalidInputError):
        ProjectionFrame(np.array([[1.0, 1.0]]), 2)  # not unit
    with pytest.raises(InvalidInputError):
        ProjectionFrame(np.array([[1.0, 0.0], [1.0, 0.0]]), 2)  # not orthonormal
    # NaN fails every comparison, so it must not pass as a unit direction
    for bad in (np.nan, np.inf, -np.inf):
        for row in (0, 2):
            dirs = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
            dirs[row, 0] = bad
            with pytest.raises(InvalidInputError):
                ProjectionFrame(dirs, 2)
    fr = standard_frame(3, 2)
    assert fr.p_total == 3 and fr.n == 3


def test_frame_json_roundtrip():
    fr = frame_with_extra_directions(2, 3, 6)
    back = ProjectionFrame.from_dict(fr.to_dict())
    np.testing.assert_allclose(back.directions, fr.directions)
    assert back.q_sheets == 3


def test_xi_alpha_axis_example():
    fr = standard_frame(2, 2)
    p = QPoint([[2.0, 0.0], [-1.0, 0.0]])
    np.testing.assert_allclose(xi_alpha(fr, 0, p), [-1.0, 2.0])


def test_xi_alpha_constant_point():
    fr = standard_frame(2, 3)
    a = np.array([0.3, -0.7])
    p = QPoint(np.tile(a, (3, 1)))
    for alpha in range(2):
        np.testing.assert_allclose(xi_alpha(fr, alpha, p), np.full(3, a[alpha]))


def test_xi_alpha_sortedness_random():
    rng = np.random.default_rng(0)
    fr = frame_with_extra_directions(3, 4, 7)
    for _ in range(1000):
        p = random_qpoint(rng, 4, 3)
        alpha = int(rng.integers(0, fr.p_total))
        block = xi_alpha(fr, alpha, p)
        assert np.all(np.diff(block) >= 0)


def test_xi_alpha_index_range():
    fr = standard_frame(2, 2)
    with pytest.raises(InvalidInputError):
        xi_alpha(fr, 2, QPoint([[0.0, 0.0], [1.0, 1.0]]))


def test_xi0_lipschitz():
    rng = np.random.default_rng(1)
    fr = standard_frame(3, 3)
    for _ in range(1000):
        p, r = random_qpoint_pair(rng, 3, 3)
        d_emb = embedded_distance(xi0(fr, p), xi0(fr, r))
        assert d_emb <= metric_g(p, r) + 1e-10


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(data=st.data(), q=st.integers(2, 4), n=st.integers(1, 3))
def test_xi0_is_1_lipschitz(data, q, n):
    # sheets anywhere in [-4, 4]^n, coincident or not
    sheets = arrays(np.float64, (q, n), elements=st.floats(-4.0, 4.0))
    p, r = QPoint(data.draw(sheets)), QPoint(data.draw(sheets))
    fr = standard_frame(n, q)
    assert embedded_distance(xi0(fr, p), xi0(fr, r)) <= metric_g(p, r) + 1e-10


def test_xi0_isometry_in_1d():
    rng = np.random.default_rng(2)
    fr = standard_frame(1, 4)
    for _ in range(300):
        p, r = random_qpoint_pair(rng, 4, 1)
        d_emb = embedded_distance(xi0(fr, p), xi0(fr, r))
        assert d_emb == pytest.approx(metric_g(p, r), abs=1e-12)


def test_xi0_constant_point_blocks():
    fr = standard_frame(2, 3)
    a = np.array([1.5, 2.5])
    emb = xi0(fr, QPoint(np.tile(a, (3, 1))))
    for alpha in range(2):
        assert np.ptp(emb.blocks[alpha]) == 0.0


def test_xi_full_reduces_to_xi0():
    fr = standard_frame(2, 2)
    p = QPoint([[0.0, 1.0], [2.0, -1.0]])
    np.testing.assert_allclose(xi_full(fr, p).blocks, xi0(fr, p).blocks)


def test_xi_full_injectivity_probe():
    rng = np.random.default_rng(3)
    fr = frame_with_extra_directions(2, 2, 5)
    for _ in range(300):
        p, r = random_qpoint_pair(rng, 2, 2)
        if metric_g(p, r) <= 1e-6:
            continue
        assert embedded_distance(xi_full(fr, p), xi_full(fr, r)) > 0.0


def test_xi_full_bilipschitz_ratio_finite():
    rng = np.random.default_rng(4)
    fr = frame_with_extra_directions(2, 3, 8)
    worst = 0.0
    for _ in range(1000):
        p, r = random_qpoint_pair(rng, 3, 2)
        g = metric_g(p, r)
        if g < 1e-9:
            continue
        worst = max(worst, g / embedded_distance(xi_full(fr, p), xi_full(fr, r)))
    assert np.isfinite(worst) and worst > 0


def test_embedded_distance_examples():
    a = EmbeddedPoint(np.array([[1.0, 2.0]]))
    b = EmbeddedPoint(np.array([[1.0, 4.0]]))
    assert embedded_distance(a, a) == 0.0
    assert embedded_distance(a, b) == pytest.approx(2.0)
    with pytest.raises(InvalidInputError):
        embedded_distance(a, EmbeddedPoint(np.array([[1.0, 2.0], [0.0, 1.0]])))


def test_embedded_distance_recomputation():
    rng = np.random.default_rng(5)
    fr = standard_frame(2, 3)
    p, r = random_qpoint_pair(rng, 3, 2)
    direct = embedded_distance(xi0(fr, p), xi0(fr, r))
    manual = np.linalg.norm(xi0(fr, p).flat - xi0(fr, r).flat)
    assert direct == pytest.approx(manual, abs=1e-15)


def test_rotated_frame_orthonormal():
    fr = rotated_frame(4, 2, seed=11)
    gram = fr.directions @ fr.directions.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)


def test_embedded_point_rejects_unsorted():
    with pytest.raises(InvalidInputError):
        EmbeddedPoint(np.array([[2.0, 1.0]]))


def test_extra_directions_in_one_dimension():
    fr = frame_with_extra_directions(1, 3, 4)
    assert fr.p_total == 4
    np.testing.assert_allclose(np.abs(fr.directions), 1.0)


FRAMES = {
    "standard": standard_frame,
    "rotated": lambda n, q: rotated_frame(n, q, seed=3),
    "extra": lambda n, q: frame_with_extra_directions(n, q, n + 3),
}


@pytest.mark.parametrize("kind", sorted(FRAMES))
@pytest.mark.parametrize("q", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_projection_paths_agree_bitwise(n, q, kind):
    # every projection of sheets onto frame directions goes through one
    # kernel, so a node embeds to the same floats on every path
    frame = FRAMES[kind](n, q)
    rng = np.random.default_rng(100 * n + q)
    f = GridField(rng.normal(size=(9, 9, q, n)), 0.25)
    farr = embed_grid(f, frame)
    for node in np.ndindex(9, 9):
        p = f.node_value(node)
        assert np.array_equal(xi0(frame, p).flat, farr[node])
        full = xi_full(frame, p)
        for a in range(frame.p_total):
            block = xi_alpha(frame, a, p)
            assert np.array_equal(full.blocks[a], block)
            pushed = pushforward_projection(frame.directions[a], p)
            assert np.array_equal(np.sort(pushed.points[:, 0]), block)


#: the two branches of `_sorted_projections`, each forced for every Q up to 8
#: and every batch: the transposition network and the stable np.sort
BRANCHES = {"network": {q: 0 for q in range(1, 9)}, "sort": {}}
#: a few values that make exact ties and 0.0 / -0.0 ties, beside any float
TIE_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def _mixed_zero_rows(proj: np.ndarray) -> np.ndarray:
    """Rows along the last axis holding both 0.0 and -0.0."""
    zero = proj == 0
    neg = np.signbit(proj)
    return (zero & neg).any(-1) & (zero & ~neg).any(-1)


@pytest.mark.parametrize("branch", sorted(BRANCHES))
@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(data=st.data(), q=st.integers(1, 8), n=st.integers(1, 3),
       batch=st.lists(st.integers(0, 5), max_size=3), kind=st.sampled_from(sorted(FRAMES)))
def test_sorted_projections_match_the_reference_kernel(branch, data, q, n, batch, kind):
    # a lone tuple, empty and multi-axis batches, exact ties and +-0 ties:
    # the values are the earlier kernel's, and the bits, sign of zero
    # included, those of a stable sort, so equal projections keep the order
    # of their sheets; they are the earlier kernel's bits wherever a tuple's
    # projections do not mix 0.0 and -0.0
    values = data.draw(arrays(np.float64, (*batch, q, n),
                              elements=TIE_VALUES | st.floats(-4.0, 4.0, width=64)))
    dirs = FRAMES[kind](n, q).directions
    with mock.patch.dict(SORT_NETWORK_MIN_NODES, BRANCHES[branch], clear=True):
        got = _sorted_projections(dirs, values)
    ref = reference_sorted_projections(dirs, values)
    assert got.shape == ref.shape == (*batch, dirs.shape[0], q)
    assert got.flags.c_contiguous
    assert np.array_equal(got, ref)
    assert np.array_equal(_bits(got), _bits(stable_sorted_rows(project_sheets(dirs, values))))
    plain = ~_mixed_zero_rows(ref)
    assert np.array_equal(_bits(got[plain]), _bits(ref[plain]))


@pytest.mark.parametrize("q", [2, 4, 9, 10, 12, 16, 17, 20])
def test_equal_projections_keep_the_order_of_their_sheets(q):
    # numpy's default sort kind may order 0.0 and -0.0 by its SIMD dispatch;
    # the embedding orders them as the sheets come, on either branch and in
    # every public path
    rng = np.random.default_rng(q)
    v = rng.normal(size=(49, 49, q, 1))
    v[rng.random(v.shape) < 0.4] = 0.0
    v[rng.random(v.shape) < 0.5] *= -1.0
    fr = standard_frame(1, q)
    want = _bits(stable_sorted_rows(v[..., 0]))
    assert np.array_equal(_bits(embed_grid(GridField(v, 0.1), fr)), want)
    assert np.array_equal(_bits(xi0(fr, QPoint(v[3, 5])).flat), want[3, 5])
    for branch in BRANCHES.values():
        with mock.patch.dict(SORT_NETWORK_MIN_NODES, branch, clear=True):
            assert np.array_equal(_bits(_sorted_projections(fr.directions, v)[..., 0, :]), want)
