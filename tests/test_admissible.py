import dataclasses
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qvalued import (
    AdmissibleBall,
    InvalidInputError,
    NotInBallError,
    QPoint,
    angle_separated_frame,
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
from qvalued import admissible

from helpers import random_qpoint, shrunk_chain_level
from oracles import exhaustive_metric, sampled_inclusion_witness


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


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(data=st.data(), q=st.integers(2, 4), n=st.integers(1, 3), fraction=st.floats(0.0, 1.0))
def test_embedding_is_isometric_inside_admissible_balls(data, q, n, fraction):
    # the centre's sheets on the half-integers of [-2, 2]^n, so sites often
    # repeat; a tuple at the given fraction of the ball's radius from it
    centre = data.draw(arrays(np.float64, (q, n), elements=st.integers(-4, 4).map(lambda t: t / 2)))
    s = support(QPoint(centre))
    assume(s.count >= 2)
    fr = angle_separated_frame(s).frame
    tau = 0.4 * math.sin(theta0(n, s.q)) * min_separation(s)
    off = data.draw(arrays(np.float64, (q, n), elements=st.floats(-1.0, 1.0)))
    size = np.linalg.norm(off)
    if size > 0.0:
        off *= fraction * tau / size
    base = s.rebuild()
    p = QPoint(base.points + off)
    d_emb = embedded_distance(xi0(fr, p), xi0(fr, base))
    assert d_emb == pytest.approx(metric_g(p, base), abs=1e-10)


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


def test_validate_chain_reads_the_frame():
    # the standard frame projects both sites of (0, 0), (1, 0) to 0 on its
    # second axis, so level 0 is not admissible under it
    p = QPoint([[0.0, 0.0], [1.0, 0.0]])
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert validate_chain(chain) == []
    violations = validate_chain(dataclasses.replace(chain, frame=standard_frame(2, 2)))
    assert violations == ["level 0 is not admissible under the chain's frame at sigma_0"]
    with pytest.raises(InvalidInputError, match="frame dimension"):
        validate_chain(dataclasses.replace(chain, frame=standard_frame(3, 2)))


@settings(max_examples=40, deadline=timedelta(seconds=5))
@given(data=st.data(), q=st.integers(2, 5), n=st.integers(1, 3), scale=st.integers(-3, 2))
def test_validate_chain_accepts_random_chains(data, q, n, scale):
    # coordinates on a 1/4 lattice times 10^scale; a sheet may sit 1e-6 of
    # the scale from another, near-coincident but a site of its own
    coord = st.integers(-8, 8).map(lambda t: t / 4)
    pts = np.array(data.draw(st.lists(coord, min_size=q * n, max_size=q * n))).reshape(q, n)
    if data.draw(st.booleans()):
        pts[-1] = pts[0] + 1e-6
    p = QPoint(pts * 10.0**scale)
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert validate_chain(chain) == []


def test_chain_inclusion_trivial_and_hand():
    # a one-site tuple has no inclusion to certify; for {0, 1} the certificate
    # reads sigma_0 + G(q^0, q^1) = 0.25 + 1 against rho_1 = 20.25
    p = QPoint(np.tile([1.0, 1.0], (2, 1)))
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert validate_chain(chain) == []
    assert sampled_inclusion_witness(chain, 100) is None
    two = QPoint([[0.0], [1.0]])
    chain2 = nested_chain(two, angle_separated_frame(support(two)))
    lv = chain2.levels
    assert lv[0].sigma + metric_g(lv[0].decomposition.rebuild(), lv[1].decomposition.rebuild()) == 1.25
    assert lv[1].rho == 20.25
    assert validate_chain(chain2) == []
    assert sampled_inclusion_witness(chain2, 1000) is None


def _family_tuple(rng, family, q, n):
    """Clustered: up to q centres, sheets spread 1e-9 to 1e-1 about them.
    Lattice: integer points of [-3, 3]^n times 10^-3 to 10^3.  Otherwise
    the family is a scale for Gaussian sheets."""
    if family == "clustered":
        centres = rng.normal(size=(int(rng.integers(1, q + 1)), n))
        spread = 10.0 ** rng.uniform(-9, -1)
        return centres[rng.integers(0, len(centres), q)] + spread * rng.normal(size=(q, n))
    if family == "lattice":
        return rng.integers(-3, 4, size=(q, n)) * 10.0 ** int(rng.integers(-3, 4))
    return family * rng.normal(size=(q, n))


@pytest.mark.parametrize("family", ["clustered", "lattice", 1e-150, 1e150], ids=str)
def test_validate_chain_certifies_inclusion_on_clustered_lattice_and_extreme_chains(family):
    # the ladder keeps sigma_{k-1} + G(q^{k-1}, q^k) below rho_k, and the
    # sampler finds no member of a sigma-ball outside the next rho-ball
    rng = np.random.default_rng(11)
    for trial in range(40):
        q, n = int(rng.integers(2, 8)), int(rng.integers(1, 4))
        p = QPoint(_family_tuple(rng, family, q, n))
        chain = nested_chain(p, angle_separated_frame(support(p)))
        assert validate_chain(chain) == []
        assert sampled_inclusion_witness(chain, 200, seed=trial) is None


@pytest.mark.parametrize("scale", [2.0**-400, 2.0**-20, 2.0**20, 2.0**400],
                         ids=["2^-400", "2^-20", "2^20", "2^400"])
def test_support_and_chain_scale_with_the_tuple(scale):
    # `support` merges sheets within 1e-9 of the diameter, a threshold that
    # scales with the tuple.  Scaling by a power of two is exact and keeps
    # every square normal, so the scaled tuple has the scaled sites with the
    # same multiplicities, and its chain the scaled levels, bitwise.
    rng = np.random.default_rng(23)
    for _ in range(100):
        q, n = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        pts = rng.normal(size=(q, n))
        base = support(QPoint(pts))
        scaled = support(QPoint(scale * pts))
        assert np.array_equal(scaled.sites, scale * base.sites)
        assert np.array_equal(scaled.multiplicities, base.multiplicities)
        chain = nested_chain(QPoint(pts), angle_separated_frame(base))
        big = nested_chain(QPoint(scale * pts), angle_separated_frame(scaled))
        assert len(big.levels) == len(chain.levels)
        for lv, lv_s in zip(chain.levels, big.levels):
            assert np.array_equal(lv_s.decomposition.sites, scale * lv.decomposition.sites)
            assert np.array_equal(lv_s.decomposition.multiplicities, lv.decomposition.multiplicities)
            assert (lv_s.rho, lv_s.sigma) == (scale * lv.rho, scale * lv.sigma)
        assert validate_chain(big) == []


@pytest.mark.parametrize("points, k", [([[0.0], [1.0]], 1), ([[0.0], [1.0], [1e6]], 2)],
                         ids=["two_sites", "level_2"])
def test_validate_chain_names_a_level_shrunk_below_its_inclusion(points, k):
    # rho_k = 0.99 (sigma_{k-1} + G) breaks only the inclusion: every other
    # invariant of these chains still holds, and the sampler draws a member
    # of the sigma_{k-1}-ball that an exhaustive metric puts outside rho_k
    p = QPoint(points)
    chain = nested_chain(p, angle_separated_frame(support(p)))
    assert chain.depth == k and validate_chain(chain) == []
    shrunk = shrunk_chain_level(chain, k)
    prev, cur = shrunk.levels[k - 1], shrunk.levels[k]
    reach = prev.sigma + metric_g(prev.decomposition.rebuild(), cur.decomposition.rebuild())
    assert validate_chain(shrunk) == [
        f"sigma_{k - 1} + G(q^{k - 1}, q^{k}) = {reach} > rho_{k} = {cur.rho}"
    ]
    level, member = sampled_inclusion_witness(shrunk, 1000)
    assert level == k
    assert exhaustive_metric(member, cur.decomposition.rebuild().points) > cur.rho
    assert exhaustive_metric(member, prev.decomposition.rebuild().points) <= prev.sigma * (1 + 1e-12)


def test_nested_chain_forms_one_distance_matrix_per_level(monkeypatch):
    # sigma_k and every step of the threshold ladder read the level's matrix
    calls = []
    orig = admissible._distances
    monkeypatch.setattr(admissible, "_distances", lambda pts: calls.append(len(pts)) or orig(pts))
    rng = np.random.default_rng(7)
    for q in (2, 3, 5):
        calls.clear()
        p = QPoint(rng.normal(size=(q, 2)))
        chain = nested_chain(p, angle_separated_frame(support(p)))
        finite = [lv.decomposition.count for lv in chain.levels if math.isfinite(lv.sigma)]
        assert calls == finite


def test_chain_inclusion_random():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(1, 4))
        q = int(rng.integers(2, 6))
        p = random_qpoint(rng, q, n)
        chain = nested_chain(p, angle_separated_frame(support(p)))
        assert validate_chain(chain) == []
        assert sampled_inclusion_witness(chain, 500, seed=trial) is None


def test_chain_report_dict():
    p = QPoint([[0.0], [1.0]])
    chain = nested_chain(p, angle_separated_frame(support(p)))
    d = chain.to_dict()
    assert set(d["constants"]) == {"theta0", "K", "C0", "delta"}
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
