import itertools
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qvalued import (
    InvalidInputError,
    QPoint,
    metric_g,
    metric_g_many,
    min_separation,
    optimal_matching,
    pushforward_projection,
    support,
)
from qvalued import qspace
from qvalued.field import _match_edges
from qvalued.qspace import ASSIGN_CHUNK_BYTES, assign

from helpers import noisy_copy, random_qpoint, random_qpoint_pair, root_grid_field
from oracles import exhaustive_assignment, exhaustive_metric, hungarian_metric


def test_metric_identity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_qpoint(rng, 3, 2)
        assert metric_g(p, p) == 0.0


def test_metric_two_point_example():
    p = QPoint([[0.0, 0.0], [0.0, 0.0]])
    r = QPoint([[1.0, 0.0], [-1.0, 0.0]])
    assert metric_g(p, r) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_metric_matches_exhaustive_q4():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p, r = random_qpoint_pair(rng, 4, 2)
        want = exhaustive_metric(p.points, r.points)
        assert metric_g(p, r) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("q", [2, 3, 5, 6])
def test_metric_matches_exhaustive_various_q(q):
    rng = np.random.default_rng(q)
    for _ in range(25):
        p, r = random_qpoint_pair(rng, q, 3)
        want = exhaustive_metric(p.points, r.points)
        assert metric_g(p, r) == pytest.approx(want, abs=1e-12)


def test_metric_axioms():
    rng = np.random.default_rng(2)
    for _ in range(200):
        p, r = random_qpoint_pair(rng, 3, 2)
        t = random_qpoint(rng, 3, 2)
        dpr = metric_g(p, r)
        assert dpr == pytest.approx(metric_g(r, p), abs=1e-12)
        assert metric_g(p, t) <= dpr + metric_g(r, t) + 1e-10
    # identity of indiscernibles: zero iff same multiset
    p = QPoint([[0.0, 1.0], [2.0, 3.0]])
    shuffled = QPoint([[2.0, 3.0], [0.0, 1.0]])
    assert metric_g(p, shuffled) == 0.0
    assert metric_g(p, QPoint([[0.0, 1.0], [2.0, 3.1]])) > 0.0


def test_metric_shape_mismatch():
    with pytest.raises(InvalidInputError):
        metric_g(QPoint([[0.0]]), QPoint([[0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        metric_g(QPoint([[0.0]]), QPoint([[0.0], [1.0]]))


def test_optimal_matching_distance_and_lexicographic_ties():
    p = QPoint([[0.0, 0.0], [1.0, 0.0]])
    r = QPoint([[1.0, 0.0], [0.0, 0.0]])
    perm, dist = optimal_matching(p, r)
    assert dist == 0.0
    assert perm.tolist() == [1, 0]
    # fully degenerate: every matching optimal, lexicographically smallest wins
    same = QPoint([[0.5, 0.5], [0.5, 0.5]])
    perm, dist = optimal_matching(same, same)
    assert perm.tolist() == [0, 1]
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b = random_qpoint_pair(rng, 4, 2)
        perm, dist = optimal_matching(a, b)
        paired = np.sqrt(((a.points - b.points[perm]) ** 2).sum())
        assert paired == pytest.approx(dist, abs=1e-12)
        assert dist == pytest.approx(hungarian_metric(a, b), abs=1e-12)


def test_metric_g_matches_hungarian_oracle():
    # the tuples of the tests that take the Hungarian oracle as their reference
    pairs = []
    rng = np.random.default_rng(3)
    pairs += [random_qpoint_pair(rng, 4, 2) for _ in range(25)]
    rng = np.random.default_rng(4)
    base = random_qpoint(rng, 4, 3)
    pairs += [(base, QPoint(t)) for t in rng.normal(size=(50, 4, 3))]
    pairs.append(random_qpoint_pair(np.random.default_rng(8), 7, 3))
    rng = np.random.default_rng(9)
    a = rng.normal(size=(30000, 6, 2))
    b = rng.normal(size=(30000, 6, 2))
    pairs += [(QPoint(a[e]), QPoint(b[e])) for e in range(0, 30000, 100)]
    a, b = shuffled_pairs()
    pairs += [(QPoint(a[e]), QPoint(b[e])) for e in range(0, 30000, 101)]
    for p, r in pairs:
        assert abs(metric_g(p, r) - hungarian_metric(p, r)) <= 1e-12


def test_metric_g_many_matches_scalar():
    rng = np.random.default_rng(4)
    base = random_qpoint(rng, 4, 3)
    batch = rng.normal(size=(50, 4, 3))
    dists = metric_g_many(base.points, batch)
    for k in range(50):
        assert dists[k] == pytest.approx(hungarian_metric(base, QPoint(batch[k])), abs=1e-12)


def test_support_multiplicity():
    a = np.array([1.0, -2.0])
    p = QPoint(np.tile(a, (3, 1)))
    s = support(p)
    assert s.count == 1
    assert s.multiplicities.tolist() == [3]
    np.testing.assert_allclose(s.sites[0], a)


def test_support_two_sites():
    p = QPoint([[0.0, 0.0], [1.0, 0.0]])
    s = support(p)
    assert s.count == 2
    assert s.multiplicities.tolist() == [1, 1]


def test_support_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p = random_qpoint(rng, 5, 3)
        s = support(p)
        assert s.q == p.q
        assert metric_g(s.rebuild(), p) == pytest.approx(0.0, abs=1e-12)


def test_support_tolerance_clusters():
    p = QPoint([[1e-12], [0.0], [1.0]])
    s = support(p)
    assert s.sites.tolist() == [[0.0], [1.0]]  # each cluster's smallest member
    assert s.multiplicities.tolist() == [2, 1]


def test_min_separation():
    single = support(QPoint(np.zeros((3, 2))))
    assert min_separation(single) == np.inf
    pair = support(QPoint([[0.0, 0.0], [0.7, 0.0]]))
    assert min_separation(pair) == pytest.approx(0.7)
    rng = np.random.default_rng(6)
    for _ in range(30):
        pts = rng.normal(size=(4, 3))
        s = support(QPoint(pts))
        brute = min(
            np.linalg.norm(s.sites[i] - s.sites[j])
            for i in range(s.count)
            for j in range(i + 1, s.count)
        )
        assert min_separation(s) == pytest.approx(brute, abs=1e-14)


def test_pushforward_axis():
    p = QPoint([[3.0, 4.0], [5.0, 6.0]])
    out = pushforward_projection(np.array([1.0, 0.0]), p)
    assert out.n == 1
    assert sorted(out.points[:, 0].tolist()) == [3.0, 5.0]
    assert out.q == p.q


def test_pushforward_requires_unit_direction():
    p = QPoint([[3.0, 4.0]])
    with pytest.raises(InvalidInputError):
        pushforward_projection(np.array([1.0, 1.0]), p)


def test_pushforward_metric_identity():
    # per-axis sorted distance equals the 1-D assignment distance of projections
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, r = random_qpoint_pair(rng, 4, 3)
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pp = pushforward_projection(d, p)
        rr = pushforward_projection(d, r)
        sorted_dist = np.linalg.norm(
            np.sort(pp.points[:, 0]) - np.sort(rr.points[:, 0])
        )
        want = exhaustive_metric(pp.points, rr.points)
        assert sorted_dist == pytest.approx(want, abs=1e-12)


def test_qpoint_json_roundtrip():
    p = QPoint([[0.5, -1.0], [2.0, 3.0]])
    d = p.to_dict()
    assert d["Q"] == 2 and d["n"] == 2
    q = QPoint.from_dict(d)
    assert metric_g(p, q) == 0.0
    with pytest.raises(InvalidInputError):
        QPoint.from_dict({"Q": 3, "n": 2, "points": [[0.0, 0.0]]})


def test_qpoint_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        QPoint([[np.nan, 0.0]])


def test_metric_paths_agree_beyond_exhaustive_limit():
    # Q = 7 is above EXHAUSTIVE_MAX_SHEETS: the SciPy Hungarian oracle and
    # the batched shortest-augmenting-path solver behind metric_g_many,
    # optimal_matching and assign must agree
    rng = np.random.default_rng(8)
    a, b = random_qpoint_pair(rng, 7, 3)
    d1 = hungarian_metric(a, b)
    d2 = metric_g_many(a.points, b.points[None])[0]
    perm, d3 = optimal_matching(a, b)
    perm4, sq4 = assign(a.points, b.points)
    assert d2 == pytest.approx(d1, abs=1e-12)
    assert d3 == pytest.approx(d1, abs=1e-12)
    assert np.sqrt(sq4) == pytest.approx(d1, abs=1e-12)
    for p in (perm, perm4):
        paired = np.sqrt(((a.points - b.points[p]) ** 2).sum())
        assert paired == pytest.approx(d1, abs=1e-12)


@settings(max_examples=60, deadline=timedelta(seconds=5))
@given(data=st.data(), q=st.integers(1, 6), n=st.integers(1, 3), k=st.integers(1, 4))
def test_assign_matches_enumeration(data, q, n, k):
    # coordinates are multiples of 1/4, so every cost is exact and tied
    # permutations tie exactly; forced duplicate sheets make such ties common
    coord = st.integers(-8, 8).map(lambda t: t / 4)

    def tuples(shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(coord, min_size=size, max_size=size))).reshape(shape)

    a = tuples((q, n) if data.draw(st.booleans()) else (k, q, n))
    b = tuples((k, q, n))
    for arr in (a, b):
        i, j = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
        arr[..., i, :] = arr[..., j, :]
    perm, sq = assign(a, b)
    assert perm.shape == (k, q) and sq.shape == (k,)
    a_full = np.broadcast_to(a, b.shape)
    for e in range(k):
        assert sq[e] == pytest.approx(exhaustive_metric(a_full[e], b[e]) ** 2, abs=1e-12)
        assert ((a_full[e] - b[e][perm[e]]) ** 2).sum() == pytest.approx(sq[e], abs=1e-12)
        perms = list(itertools.permutations(range(q)))
        costs = [((a_full[e] - b[e][list(p)]) ** 2).sum() for p in perms]
        assert tuple(perm[e]) == perms[int(np.argmin(costs))]


def test_assign_memory_is_bounded():
    # Q = 6 screens and solves (6, 6, k) cost batches, so a chunk holds
    # 14563 pairs.  Beside its float cost batch a chunk holds the screen's
    # bool array of the same shape, then the solver's slack batch for the
    # pairs the screen leaves, nearly all of these random ones; those move
    # to the front of the batch rather than into a copy.  The 30000 pairs
    # below span three chunks, the last one partial; they peak near 22 MB
    # chunked and near 42 MB when solved in one piece
    chunk = ASSIGN_CHUNK_BYTES // (6 * 6 * 8)
    assert chunk < 30000 and 30000 % chunk != 0
    rng = np.random.default_rng(9)
    a = rng.normal(size=(30000, 6, 2))
    b = rng.normal(size=(30000, 6, 2))
    tracemalloc.start()
    try:
        perm, sq = assign(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    sample = range(0, 30000, 10)
    want = [hungarian_metric(QPoint(a[e]), QPoint(b[e])) for e in sample]
    np.testing.assert_allclose(np.sqrt(sq[sample]), want, rtol=0, atol=1e-12)
    paired = ((a - np.take_along_axis(b, perm[..., None], axis=-2)) ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(paired, sq, rtol=0, atol=1e-12)


def dyadic_tuple(rng, q, n):
    """A tuple on the grid of quarters with one sheet duplicated: every cost
    is exact, so tied permutations tie exactly."""
    pts = rng.integers(-8, 9, size=(q, n)) / 4
    i, j = rng.choice(q, 2, replace=False)
    pts[i] = pts[j]
    return pts


def assert_assign_matches_oracle(a, b):
    """`assign` of a (Q, n) or (k, Q, n) batch against a (k, Q, n) batch,
    checked element by element against every permutation."""
    perm, sq = assign(a, b)
    assert perm.shape == b.shape[:-1] and sq.shape == b.shape[:-2]
    a_full = np.broadcast_to(a, b.shape)
    for e in range(b.shape[0]):
        want, cost = exhaustive_assignment(a_full[e], b[e])
        assert perm[e].tolist() == want.tolist()
        assert sq[e] == pytest.approx(cost, abs=1e-12)


@pytest.mark.parametrize("q", range(2, 9))
def test_assign_and_optimal_matching_break_ties_alike(q):
    rng = np.random.default_rng(40 + q)
    for _ in range(40):
        a, b = dyadic_tuple(rng, q, 2), dyadic_tuple(rng, q, 2)
        perm, dist = optimal_matching(QPoint(a), QPoint(b))
        got, sq = assign(a, b)
        assert got.tolist() == perm.tolist()
        assert np.sqrt(sq) == pytest.approx(dist, abs=1e-12)


@settings(max_examples=30, deadline=timedelta(seconds=5))
@given(data=st.data(), q=st.integers(5, 8), n=st.integers(1, 3), k=st.integers(1, 4))
def test_assign_matches_oracle_beyond_enumeration(data, q, n, k):
    # the shortest-augmenting-path solver on the exact, tie-rich inputs of
    # test_assign_matches_enumeration
    coord = st.integers(-8, 8).map(lambda t: t / 4)

    def tuples(shape):
        size = int(np.prod(shape))
        return np.array(data.draw(st.lists(coord, min_size=size, max_size=size))).reshape(shape)

    a = tuples((q, n) if data.draw(st.booleans()) else (k, q, n))
    b = tuples((k, q, n))
    for arr in (a, b):
        i, j = data.draw(st.integers(0, q - 1)), data.draw(st.integers(0, q - 1))
        arr[..., i, :] = arr[..., j, :]
    assert_assign_matches_oracle(a, b)


def test_assign_chunks_beyond_enumeration(monkeypatch):
    # a small budget cuts 100 Q = 7 pairs into chunks of 41, the last one partial
    monkeypatch.setattr(qspace, "ASSIGN_CHUNK_BYTES", 1 << 14)
    assert 100 % (qspace.ASSIGN_CHUNK_BYTES // (7 * 7 * 8)) != 0
    rng = np.random.default_rng(12)
    assert_assign_matches_oracle(rng.normal(size=(100, 7, 2)), rng.normal(size=(100, 7, 2)))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_assign_one_base_with_coincident_sheets(q):
    # a chain level's tuple repeats its sites, so every member of its ball
    # ties between the coincident sheets, as in `chain_inclusion_check`; the
    # sites are not dyadic, so tied permutations can differ in the last bit
    rng = np.random.default_rng(13)
    mult = {2: [2], 3: [1, 2], 4: [2, 2], 5: [2, 3]}[q]
    base = np.repeat(rng.normal(size=(len(mult), 3)), mult, axis=0)
    batch = base + 0.3 * rng.normal(size=(300, q, 3))
    assert_assign_matches_oracle(base, batch)
    assert_assign_matches_oracle(np.broadcast_to(base, batch.shape).copy(), batch)
    perm = assign(base, batch)[0]
    for e in range(0, 300, 30):
        assert optimal_matching(QPoint(base), QPoint(batch[e]))[0].tolist() == perm[e].tolist()


def test_assign_chunks_in_enumeration(monkeypatch):
    # a small budget cuts 100 Q = 4 pairs into chunks of 21, the last one
    # partial; every pair holds coincident sheets, so every chunk has ties
    monkeypatch.setattr(qspace, "ASSIGN_CHUNK_BYTES", 1 << 12)
    assert 100 % (qspace.ASSIGN_CHUNK_BYTES // (max(4 * 4, 24) * 8)) != 0
    rng = np.random.default_rng(15)
    a = np.repeat(rng.normal(size=(100, 2, 2)), 2, axis=1)
    b = a + 0.3 * rng.normal(size=(100, 4, 2))
    assert_assign_matches_oracle(a, b)
    assert_assign_matches_oracle(a[0], b)


@pytest.mark.parametrize("q", range(1, 9))
def test_assign_layouts_agree(q):
    # one tuple against a batch and the same tuple repeated give the same floats
    rng = np.random.default_rng(q)
    base = rng.normal(size=((q + 1) // 2, 2))[np.arange(q) // 2]
    batch = base + 0.5 * rng.normal(size=(400, q, 2))
    batch[::2] = rng.normal(size=(200, q, 2))
    p1, s1 = assign(base, batch)
    p2, s2 = assign(np.broadcast_to(base, batch.shape).copy(), batch)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1, s2)


def shuffled_pairs():
    """30000 Q = 8 pairs: a tuple against a shuffled, slightly moved copy,
    and every sixteenth pair random."""
    rng = np.random.default_rng(14)
    a = 3.0 * rng.normal(size=(30000, 8, 2))
    shuffle = np.argsort(rng.random((30000, 8)), axis=1)
    b = np.take_along_axis(a + 0.01 * rng.normal(size=a.shape), shuffle[..., None], axis=1)
    a[::16] = rng.normal(size=(1875, 8, 2))
    b[::16] = rng.normal(size=(1875, 8, 2))
    return a, b


def test_assign_memory_is_bounded_beyond_enumeration():
    # 30000 Q = 8 pairs do not fill a whole number of chunks; solving them in
    # one piece peaks near 42 MB, holding several (8, 8, 30000) float arrays.
    # Most pairs match a tuple to a shuffled, slightly moved copy; every
    # sixteenth pair is random, so the solver's searches run in every chunk
    assert 30000 % (ASSIGN_CHUNK_BYTES // (8 * 8 * 8)) != 0
    a, b = shuffled_pairs()
    tracemalloc.start()
    try:
        perm, sq = assign(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24e6
    sample = range(0, 30000, 101)
    want = [hungarian_metric(QPoint(a[e]), QPoint(b[e])) for e in sample]
    np.testing.assert_allclose(np.sqrt(sq[sample]), want, rtol=0, atol=1e-12)
    paired = ((a - np.take_along_axis(b, perm[..., None], axis=-2)) ** 2).sum(axis=(1, 2))
    np.testing.assert_allclose(paired, sq, rtol=0, atol=1e-12)


@pytest.mark.parametrize("value", [np.nan, 1e200])
def test_assign_rejects_non_finite_costs(value):
    # a NaN, or squared distances that overflow, would leave the solver's
    # searches without a finite column to settle, and the enumeration
    # without a minimum to compare against
    for q in (2, 5):
        with np.errstate(over="ignore"), pytest.raises(InvalidInputError):
            assign(np.full((q, 2), value), np.zeros((q, 2)))


def far_sheets(q):
    """Q - 2 sheets far apart on the x-axis, each matched to itself."""
    return [[10.0 * i, 0.0] for i in range(1, q - 1)]


@pytest.mark.parametrize("q", range(5, 9))
def test_assign_sends_a_near_tie_to_the_first_permutation(q):
    # each row's minimum lies on the permutation (1, 0, 2, ...) by 2e-13,
    # but the identity costs only 4e-13 more, inside 1e-12 * (1 + sq): the
    # two tie, and the lexicographically first wins, as when every
    # permutation is scored
    a = np.array([[0.0, 0.0], [0.0, 1.0]] + far_sheets(q))
    b = np.array([[1.0, 0.501], [-1.0, 0.501 - 2e-13]] + far_sheets(q))
    cost = qspace._cost_matrices(a[None], b[None])
    assert cost[0, 1, 0] < cost[0, 0, 0] and cost[1, 0, 0] < cost[1, 1, 0]
    want, _ = qspace._enumerated_assignments(cost, qspace._permutation_table(q))
    assert want[0].tolist() == list(range(q))
    perm, _ = assign(a, b)
    assert perm.tolist() == list(range(q))


@pytest.mark.parametrize("q", range(5, 9))
def test_assign_does_not_settle_rows_that_share_a_cheapest_column(q):
    # rows 0 and 1 are both nearest to column 0, each by a clear margin
    a = np.array([[0.0, 0.0], [0.5, 0.0]] + far_sheets(q))
    b = np.array([[0.2, 0.0], [3.0, 0.0]] + far_sheets(q))
    assert_assign_matches_oracle(a, b[None])


def grid_edges(values):
    """The (k, Q, n) end tuples of a grid field's x- and y-edges."""
    q, n = values.shape[2:]
    ends = [(values[:, :-1], values[:, 1:]), (values[:-1], values[1:])]
    return [(u.reshape(-1, q, n), w.reshape(-1, q, n)) for u, w in ends]


def edge_fields(q):
    root = root_grid_field(25 if q == 8 else 33, q, z0=0.13 + 0.07j)
    rng = np.random.default_rng(q)
    lattice = rng.integers(0, 2, size=root.values.shape).astype(np.float64)
    mixed = root.values.copy()
    mixed[::3] = lattice[::3]
    return [root.values, noisy_copy(root, scale=0.01, seed=q).values, lattice, mixed]


@pytest.mark.parametrize("q", range(5, 9))
def test_assign_on_grid_edges_is_the_solver_bitwise(q):
    # the row-minimum screen settles the root and noisy edges, none of the
    # lattice's tied ones, and of the mixed field those that touch no
    # lattice row; every perm and squared distance is the float the solver
    # and its tie pass give the whole batch.  From Q = 8 on a row-minimum
    # sum in another memory layout differs in the last bit
    for values in edge_fields(q):
        for a, b in grid_edges(values):
            perm, sq = assign(a, b)
            want_perm, want_sq = qspace._tie_broken_assignments(qspace._cost_matrices(a, b))
            assert np.array_equal(perm, want_perm)
            assert np.array_equal(sq, want_sq)


def test_root_field_edges_skip_the_solver(monkeypatch):
    # on a 49^2 Q = 7 root field branched off the nodes every edge matching
    # is clear-cut, so no element reaches the solver
    solved = []
    inner = qspace._tie_broken_assignments

    def counting(cost):
        solved.append(cost.shape[2])
        return inner(cost)

    monkeypatch.setattr(qspace, "_tie_broken_assignments", counting)
    px, _, _ = _match_edges(root_grid_field(49, 7, z0=0.13 + 0.07j).values)
    assert px.shape == (49, 48, 7)
    assert solved == []
