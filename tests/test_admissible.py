import math

import numpy as np
import pytest

from qvalued import (
    AdmissibleBall,
    InvalidInputError,
    NotInBallError,
    QPoint,
    angle_separated_frame,
    chain_inclusion_check,
    delta_cascade,
    embedded_distance,
    interpolate,
    is_admissible,
    metric_g,
    min_separation,
    modification_constants,
    nested_chain,
    standard_frame,
    subtract,
    support,
    theta0,
    validate_chain,
    xi0,
)

from helpers import random_qpoint


def test_theta0_one_dimensional():
    for q in range(2, 7):
        assert theta0(1, q) == pytest.approx(math.pi / 2)


def test_theta0_single_sheet_is_right_angle():
    # one sheet has no difference direction to place, in any dimension
    for n in range(1, 5):
        assert theta0(n, 1) == math.pi / 2
        asf = angle_separated_frame(support(QPoint(np.ones((1, n)))))
        assert asf.target_theta0 == asf.achieved_min_angle == math.pi / 2


def test_theta0_is_the_closed_form_bitwise():
    for n in range(2, 6):
        for q in range(2, 9):
            closed = 0.5 ** ((n - 1) * (q * (q - 1) - 1)) * math.asin(1.0 / math.sqrt(n))
            assert theta0(n, q) == closed


def test_cascade_floors_equal_the_running_product():
    # the frame reads each floor from delta_cascade; halving is exact, so
    # the floors are the running product's floats
    for n in range(2, 5):
        floor = math.asin(1.0 / math.sqrt(n))
        for ell in range(1, 21):
            assert delta_cascade(n, ell) == floor
            floor *= 0.5 ** (n - 1)


def test_theta0_n2_q2():
    assert theta0(2, 2) == pytest.approx(0.5 * math.asin(1 / math.sqrt(2)))
    assert theta0(2, 2) == pytest.approx(math.pi / 8)


def test_theta0_upper_bound():
    for n in range(2, 5):
        for q in range(2, 7):
            assert 0 < theta0(n, q) <= math.pi / 4


def test_delta_cascade():
    for n in (2, 3, 4):
        assert delta_cascade(n, 1) == pytest.approx(math.asin(1 / math.sqrt(n)))
        for ell in range(1, 6):
            ratio = delta_cascade(n, ell + 1) / delta_cascade(n, ell)
            assert ratio == pytest.approx(0.5 ** (n - 1))
    assert delta_cascade(2, 3) == pytest.approx(math.asin(1 / math.sqrt(2)) / 4)
    with pytest.raises(InvalidInputError):
        delta_cascade(1, 1)


def test_angle_separated_frame_collinear_pair():
    s = support(QPoint([[0.0, 0.0], [1.0, 0.0]]))
    asf = angle_separated_frame(s)
    e1 = np.array([1.0, 0.0])
    dots = np.abs(asf.frame.directions @ e1)
    assert np.all(dots >= math.sin(math.pi / 8) - 1e-9)
    assert asf.achieved_min_angle >= asf.target_theta0 - 1e-9


def test_angle_separated_frame_single_direction_angle():
    # one difference direction: every axis sits at exactly asin(1/sqrt(n))
    for n in (2, 3, 4):
        pts = np.zeros((2, n))
        pts[1, 0] = 1.0
        asf = angle_separated_frame(support(QPoint(pts)))
        assert asf.achieved_min_angle == pytest.approx(math.asin(1 / math.sqrt(n)), abs=1e-12)


def test_angle_separated_frame_random_battery():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(2, 5))
        s = support(random_qpoint(rng, q, n))
        asf = angle_separated_frame(s)
        dirs = []
        for i in range(s.count):
            for j in range(i + 1, s.count):
                d = s.sites[j] - s.sites[i]
                dirs.append(d / np.linalg.norm(d))
        if dirs:
            dots = np.abs(asf.frame.directions @ np.array(dirs).T)
            assert dots.min() >= math.sin(theta0(n, q)) - 1e-9


def test_angle_separated_frame_n1_trivial():
    s = support(QPoint([[0.0], [1.0]]))
    asf = angle_separated_frame(s)
    assert asf.achieved_min_angle == pytest.approx(math.pi / 2)


def test_is_admissible_under_separated_frame():
    s = support(QPoint([[0.0, 0.0], [1.0, 0.0]]))
    asf = angle_separated_frame(s)
    tau = 0.49 * math.sin(theta0(2, 2)) * min_separation(s)
    assert is_admissible(AdmissibleBall(s, tau, asf.frame))
    # tiny radius also admissible
    assert is_admissible(AdmissibleBall(s, 1e-9, asf.frame))


def test_is_admissible_fails_on_axis_degenerate_frame():
    # sites separated along e1 project to the same point on axis e2
    s = support(QPoint([[0.0, 0.0], [1.0, 0.0]]))
    ball = AdmissibleBall(s, 0.01, standard_frame(2, 2))
    assert not is_admissible(ball)


def test_admissible_radius_bound_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(2, 5))
        s = support(random_qpoint(rng, q, n))
        asf = angle_separated_frame(s)
        tau = 0.49 * math.sin(theta0(n, q)) * min_separation(s)
        assert is_admissible(AdmissibleBall(s, tau, asf.frame))


def _admissible_setup(rng, q, n):
    s = support(random_qpoint(rng, q, n))
    asf = angle_separated_frame(s)
    tau = 0.4 * math.sin(theta0(n, s.q)) * min_separation(s)
    ball = AdmissibleBall(s, tau, asf.frame)
    # sample p inside the tuple ball: per-sheet offsets with total norm <= tau
    base = s.rebuild()
    off = rng.normal(size=base.points.shape)
    off *= rng.uniform(0, 1) * tau / np.linalg.norm(off)
    return s, ball, QPoint(base.points + off)


def test_subtract_of_center_is_zero():
    rng = np.random.default_rng(2)
    s, ball, _ = _admissible_setup(rng, 3, 2)
    out = subtract(s, s.rebuild(), ball)
    np.testing.assert_allclose(out.points, 0.0)


def test_subtract_two_site_example():
    q = support(QPoint([[0.0, 0.0], [10.0, 0.0]]))
    ball = AdmissibleBall(q, 1.0, angle_separated_frame(q).frame)
    p = QPoint([[0.1, 0.0], [9.8, 0.0]])
    out = subtract(q, p, ball)
    got = sorted(out.points[:, 0].tolist())
    assert got == pytest.approx([-0.1, 0.2])


def test_subtract_metric_preservation():
    rng = np.random.default_rng(3)
    zero = None
    for _ in range(200):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        s, ball, p = _admissible_setup(rng, q, n)
        diff = subtract(s, p, ball)
        if zero is None or zero.q != diff.q or zero.n != diff.n:
            zero = QPoint(np.zeros((diff.q, diff.n)))
        assert metric_g(diff, zero) == pytest.approx(metric_g(p, s.rebuild()), abs=1e-10)


def test_subtract_not_in_ball():
    q = support(QPoint([[0.0, 0.0], [10.0, 0.0]]))
    ball = AdmissibleBall(q, 0.5, angle_separated_frame(q).frame)
    with pytest.raises(NotInBallError):
        subtract(q, QPoint([[5.0, 0.0], [10.2, 0.0]]), ball)


def test_interpolate_endpoints():
    rng = np.random.default_rng(4)
    s, ball, p = _admissible_setup(rng, 3, 2)
    assert metric_g(interpolate(s, p, 0.0, ball), p) == pytest.approx(0.0, abs=1e-14)
    assert metric_g(interpolate(s, p, 1.0, ball), s.rebuild()) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(InvalidInputError):
        interpolate(s, p, 1.5, ball)


def test_interpolate_embedding_linearity():
    # linearity holds in the embedding aligned with the admissible frame
    rng = np.random.default_rng(5)
    for _ in range(200):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        s, ball, p = _admissible_setup(rng, q, n)
        fr = ball.frame
        t = rng.uniform(0, 1)
        mid = xi0(fr, interpolate(s, p, t, ball)).flat
        target = t * xi0(fr, s.rebuild()).flat + (1 - t) * xi0(fr, p).flat
        np.testing.assert_allclose(mid, target, atol=1e-10)


def test_embedding_isometric_inside_admissible_balls():
    rng = np.random.default_rng(6)
    for _ in range(100):
        q = int(rng.integers(2, 5))
        n = int(rng.integers(1, 4))
        s, ball, p = _admissible_setup(rng, q, n)
        fr = ball.frame
        d_emb = embedded_distance(xi0(fr, p), xi0(fr, s.rebuild()))
        assert d_emb == pytest.approx(metric_g(p, s.rebuild()), abs=1e-10)


def test_modification_constants_values():
    k, c0 = modification_constants(1, 2)
    assert k == pytest.approx(40.0)
    assert c0 == pytest.approx(81.0)
    k22, _ = modification_constants(2, 2)
    assert k22 == pytest.approx(40.0 / math.sin(math.pi / 8))
    for n in range(1, 5):
        for q in range(2, 7):
            assert modification_constants(n, q)[1] > 1.0


def test_nested_chain_single_site():
    p = QPoint(np.tile([0.3, -0.2], (3, 1)))
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert chain.depth == 0
    assert chain.levels[0].rho == 0.0
    assert math.isinf(chain.levels[0].sigma)
    assert validate_chain(chain) == []


def test_nested_chain_hand_computed_two_site():
    # Q = 2, n = 1, sites {0, d}: sigma_0 = d/4 and rho_1 = 81 * sigma_0 exactly
    d = 1.0
    p = QPoint([[0.0], [d]])
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert chain.depth == 1
    assert chain.levels[0].sigma == d / 4
    assert chain.levels[1].rho == 81.0 * (d / 4)
    assert validate_chain(chain) == []


def test_nested_chain_keeps_smallest_site_and_total_multiplicity():
    # a repeated sheet: the support counts it twice, and the merged level
    # keeps the lexicographically smallest site with the multiplicities summed
    p = QPoint([[1.0, 5.0], [1.0, -2.0], [3.0, 0.0], [1.0, -2.0]])
    chain = nested_chain(p, angle_separated_frame(support(p)))
    first, last = chain.levels[0].decomposition, chain.levels[-1].decomposition
    assert first.sites.tolist() == [[1.0, -2.0], [1.0, 5.0], [3.0, 0.0]]
    assert first.multiplicities.tolist() == [2, 1, 1]
    assert last.sites.tolist() == [[1.0, -2.0]]
    assert last.multiplicities.tolist() == [4]
    assert validate_chain(chain) == []


def test_nested_chain_random_invariants():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 6))
        p = random_qpoint(rng, q, n)
        chain = nested_chain(p, angle_separated_frame(support(p)))
        assert validate_chain(chain) == []
        assert chain.depth <= q - 1
        # every level's support is a subset of the original sites
        sites0 = {tuple(x) for x in chain.levels[0].decomposition.sites}
        for lv in chain.levels[1:]:
            for site in lv.decomposition.sites:
                assert tuple(site) in sites0


def test_chain_level_balls_admissible():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(2, 4))
        q = int(rng.integers(2, 5))
        p = random_qpoint(rng, q, n)
        chain = nested_chain(p, angle_separated_frame(support(p)))
        for lv in chain.levels:
            if math.isinf(lv.sigma):
                continue
            ball = AdmissibleBall(lv.decomposition, lv.sigma, chain.frame)
            assert is_admissible(ball)


def test_chain_inclusion_trivial_and_hand():
    p = QPoint(np.tile([1.0, 1.0], (2, 1)))
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert bool(chain_inclusion_check(chain, 100))
    two = QPoint([[0.0], [1.0]])
    chain2 = nested_chain(two, angle_separated_frame(support(two)))
    assert bool(chain_inclusion_check(chain2, 1000))


def test_chain_inclusion_random():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 6))
        p = random_qpoint(rng, q, n)
        chain = nested_chain(p, angle_separated_frame(support(p)))
        assert bool(chain_inclusion_check(chain, 500, seed=trial))


def test_chain_report_dict():
    p = QPoint([[0.0], [1.0]])
    chain = nested_chain(p, angle_separated_frame(support(p)))
    d = chain.to_dict()
    assert {"theta0", "K", "C0"} <= set(d["constants"])
    assert len(d["levels"]) == chain.depth + 1


def test_subtract_rejects_count_mismatch():
    # both sheets sit in the first site ball: p is outside the tuple ball
    # even though every sheet individually found a cover ball
    q = support(QPoint([[0.0, 0.0], [10.0, 0.0]]))
    ball = AdmissibleBall(q, 1.0, angle_separated_frame(q).frame)
    p = QPoint([[0.2, 0.0], [-0.3, 0.0]])
    with pytest.raises(NotInBallError):
        subtract(q, p, ball)


def test_angle_separated_frame_antipodal_seed():
    # first difference direction opposite to the diagonal seed vector
    d = -np.array([1.0, 1.0]) / np.sqrt(2.0)
    s = support(QPoint(np.stack([np.zeros(2), 3.0 * d])))
    asf = angle_separated_frame(s)
    assert asf.achieved_min_angle >= asf.target_theta0 - 1e-9
