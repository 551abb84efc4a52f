"""The metric space of unordered Q-tuples of points in R^n.

A member is a multiset of Q points (repetitions allowed).  The distance
between two members is the optimal-assignment distance: the minimum over
permutations of the root of the summed squared pairwise distances.  Every
assignment that reports a permutation goes through `assign`: one pair in
`optimal_matching`, and for grid routines every node or edge of a field at
once, over bounded-memory chunks of the batch.  `assign` builds one layout
of squared sheet distances for every Q, sums each permutation's cost in
row order, and sends exact ties to the lexicographically first optimal
permutation.  It enumerates permutations for small Q.  Otherwise it settles
each clear-cut element, whose row minima lie on a permutation by more than
a tie margin, by those minima, and runs a shortest-augmenting-path solver
on the rest of the chunk at once.  Distances
(`metric_g`, `metric_g_many`) come from the same kernel, so this module
never loads scipy.optimize.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: largest sheet count for which `assign` scores all Q! permutations; above
#: it the row-minimum screen settles the clear-cut elements and the batched
#: shortest-augmenting-path solver the rest.  Per element of a (Q, Q, k)
#: cost batch on a 2-core host, enumeration against screen and solver took
#: 0.03 against 0.08 us on 49^2 root-field x-edges and 0.03 against
#: 0.50-0.52 us on one-base batches whose base repeats its sites (so every
#: element ties) at Q = 3; 0.08 against 0.09-0.10 us (edges) and 0.08
#: against 0.71-0.76 us (ties) at Q = 4; and 1.5-1.6 against 0.12 us
#: (edges) and 1.5 against 1.1 us (ties) at Q = 5.
EXHAUSTIVE_MAX_SHEETS = 4

#: byte budget of one chunk of `assign`: its (Q, Q, k) float cost batch, or
#: the (Q!, k) permutation costs of the enumeration where those are larger.
#: The screen adds a (Q, Q, k) bool array beside the batch, and the solver
#: its slack batch and potentials over the elements the screen leaves
ASSIGN_CHUNK_BYTES = 1 << 22

#: coincidence tolerance of `support`, relative to the tuple's diameter
DEDUP_REL_TOL = 1e-9
#: tie tolerance of the assignment kernel: a permutation, or a solver pair,
#: within TIE_REL_TOL * (1 + cost) of the optimum counts as optimal
TIE_REL_TOL = 1e-12


@functools.lru_cache(maxsize=4)
def _permutation_table(q: int) -> np.ndarray:
    """All permutations of range(q) as an (q!, q) int array, lexicographic
    order.  Read-only, since the cache hands the same array to every caller."""
    tab = np.array(list(itertools.permutations(range(q))), dtype=np.intp)
    tab.flags.writeable = False
    return tab


@dataclass(frozen=True, eq=False)
class QPoint:
    """An unordered Q-tuple of points in R^n.

    ``points`` has shape (Q, n); row order carries no meaning.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise InvalidInputError(f"points must be a (Q, n) array, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise InvalidInputError("points must be finite")
        object.__setattr__(self, "points", pts)

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def to_dict(self) -> dict:
        return {"Q": self.q, "n": self.n, "points": self.points.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "QPoint":
        pts = np.asarray(d["points"], dtype=np.float64)
        if pts.shape != (int(d["Q"]), int(d["n"])):
            raise InvalidInputError(
                f"points shape {pts.shape} does not match (Q, n) = ({d['Q']}, {d['n']})"
            )
        return cls(pts)


@dataclass(frozen=True, eq=False)
class SupportDecomposition:
    """Distinct sites of a QPoint together with their multiplicities."""

    sites: np.ndarray          # (I, n)
    multiplicities: np.ndarray  # (I,) positive ints summing to Q

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=np.float64)
        mult = np.asarray(self.multiplicities, dtype=np.intp)
        if sites.ndim != 2 or mult.ndim != 1 or sites.shape[0] != mult.shape[0]:
            raise InvalidInputError("sites (I, n) and multiplicities (I,) must align")
        if np.any(mult < 1):
            raise InvalidInputError("multiplicities must be positive")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def count(self) -> int:
        return self.sites.shape[0]

    @property
    def q(self) -> int:
        return int(self.multiplicities.sum())

    @property
    def n(self) -> int:
        return self.sites.shape[1]

    def rebuild(self) -> QPoint:
        """Reassemble the multiset: each site repeated by its multiplicity."""
        return QPoint(np.repeat(self.sites, self.multiplicities, axis=0))

    def to_dict(self) -> dict:
        return {
            "sites": self.sites.tolist(),
            "multiplicities": self.multiplicities.tolist(),
        }


def _check_compatible(p: QPoint, r: QPoint):
    if p.q != r.q or p.n != r.n:
        raise InvalidInputError(
            f"incompatible tuples: ({p.q} sheets in R^{p.n}) vs ({r.q} sheets in R^{r.n})"
        )


def metric_g(p: QPoint, r: QPoint) -> float:
    """Optimal-assignment distance between two unordered tuples: the root
    of `assign`'s squared distance for the one pair."""
    _check_compatible(p, r)
    return float(np.sqrt(assign(p.points, r.points)[1]))


def optimal_matching(p: QPoint, r: QPoint) -> tuple[np.ndarray, float]:
    """Optimal sheet pairing and its distance.

    Returns (perm, dist) with ``r.points[perm[i]]`` matched to ``p.points[i]``.
    Ties are broken toward the lexicographically smallest permutation, as in
    `assign`, so that reported matchings are reproducible.
    """
    _check_compatible(p, r)
    perm, sq = assign(p.points, r.points)
    return perm, float(np.sqrt(sq))


def _cost_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared sheet distances cost[i, j, e] = |a[:, i, e] - b[:, j, e]|^2 of
    coordinate-major (n, Q, k) batches, batch axis last so every operation
    runs along it.  Each batch is made contiguous here, a chunk at a time, and
    the floats do not depend on the memory layout of either batch."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    d = a[0, :, None] - b[0, None]
    cost = d * d
    for c in range(1, a.shape[0]):
        np.subtract(a[c, :, None], b[c, None], out=d)
        d *= d
        cost += d
    return cost


def _shortest_augmenting_paths(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal assignment for every element of a (Q, Q, k) cost batch.

    The column potentials start at the column minima and the row
    potentials at each row's minimum of cost - v, so rows that share a
    cheapest column (coincident sheets) still find distinct zero-cost
    columns.  Each row in turn takes the first free column where its reduced
    cost is zero, and the rows left over join by `_join_rows`.  Returns
    (perm, u, v), each (k, Q): row i takes column perm[:, i], and the dual
    potentials satisfy cost[i, j] - u[:, i] - v[:, j] >= 0 with equality on
    the matching, up to rounding.
    """
    q, _, k = cost.shape
    elements = np.arange(k)
    v = cost.min(axis=0)             # (Q, k) column minima
    u = np.zeros((k, q + 1))         # row potentials; slot q absorbs writes for free columns
    # row holding each column, q while free; column q takes the writes of
    # rows left unmatched here, and later roots each search
    owner = np.full((k, q + 1), q)
    free = np.ones((q + 1, k), dtype=bool)
    waiting = np.zeros((k, q), dtype=bool)
    cols = np.arange(q)[:, None]
    for i in range(q):
        reduced = cost[i] - v
        low = reduced.min(axis=0)
        u[:, i] = low
        col = np.where((reduced == low) & free[:q], cols, q).min(axis=0)  # q if none is free
        owner[elements, col] = i
        free[col, elements] = False
        waiting[:, i] = col == q
    v = np.ascontiguousarray(v.T)
    search = np.nonzero(waiting.any(axis=1))[0]
    if search.size:
        cost_rows = cost.transpose(2, 0, 1)[search].reshape(-1, q)
        us, vs, owns = u[search], v[search], owner[search]
        _join_rows(cost_rows, us, vs, owns, waiting[search])
        u[search], v[search], owner[search] = us, vs, owns
    perm = np.empty((k, q), dtype=np.intp)
    perm[elements[:, None], owner[:, :q]] = np.arange(q)
    return perm, u[:, :q], v


def _join_rows(cost_rows: np.ndarray, u: np.ndarray, v: np.ndarray, owner: np.ndarray,
               waiting: np.ndarray) -> None:
    """Add every waiting row to the matching, updating u, v and owner in place.

    ``cost_rows`` holds the (m * Q, Q) cost rows of m elements, ``u`` (m, Q + 1)
    and ``v`` (m, Q) their potentials, ``owner`` (m, Q + 1) the row holding
    each column (Q while free) with column Q as the search root, and
    ``waiting`` (m, Q) the rows still unmatched.  A row joins by
    Dijkstra's search over reduced costs until it settles a free column, and
    the matching flips along the search tree (Jonker and Volgenant,
    Computing 38, 1987).  One row joins per element per round, and each
    search step advances every element still searching at once.
    """
    q = v.shape[1]
    q1 = q + 1
    own, uf = owner.ravel(), u.ravel()
    while True:
        e = np.nonzero(waiting.any(axis=1))[0]
        if not e.size:
            break
        root = waiting[e].argmax(axis=1)
        waiting[e, root] = False
        own[e * q1 + q] = root
        ve = v[e]
        j0 = np.full(e.size, q)      # column settled last
        dist = np.zeros(e.size)      # its distance from the root
        minv = np.full(ve.shape, np.inf)  # tentative distances; inf once settled
        way = np.full(ve.shape, q)   # predecessor of each column in the search tree
        settled = np.zeros(ve.shape, dtype=bool)
        dcol = np.zeros(ve.shape)    # distance at which each column settled
        while e.size:
            i0 = own.take(e * q1 + j0)
            cur = cost_rows.take(e * q + i0, axis=0)
            cur -= ve
            cur += (dist - uf.take(e * q1 + i0))[:, None]
            better = cur < minv
            better &= ~settled
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0[:, None], where=better)
            j0 = minv.argmin(axis=1)
            here = np.arange(e.size) * q + j0
            dist = minv.take(here)
            settled.put(here, True)
            dcol.put(here, dist)
            minv.put(here, np.inf)
            free = own.take(e * q1 + j0) == q
            if free.any():
                ef, jf, df = e[free], j0[free], dist[free]
                shift = df[:, None] - dcol[free]
                shift *= settled[free]
                v[ef] -= shift
                uf[ef[:, None] * q1 + owner[ef, :q]] += shift
                uf[ef * q1 + own.take(ef * q1 + q)] += df
                wf = way[free]
                f = np.arange(ef.size)
                while f.size:  # flip the matching along the tree path back to the root
                    jp = wf.take(f * q + jf)
                    own[ef * q1 + jf] = own.take(ef * q1 + jp)
                    on = jp != q
                    f, ef, jf = f[on], ef[on], jp[on]
                keep = ~free
                e, j0, dist, ve = e[keep], j0[keep], dist[keep], ve[keep]
                minv, way, settled, dcol = minv[keep], way[keep], settled[keep], dcol[keep]


def _lexicographic_matchings(tight: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Lexicographically first perfect matching of each (Q, Q) tight graph.

    ``tight`` holds 1.0 on the graph's edges and 0.0 elsewhere, and ``perm``
    is a perfect matching inside each graph.  Row by row, the row takes the
    smallest column it can hold while the rows below it still match: the
    column's holder must start an alternating path of tight edges, through
    rows below, to the column the row holds now.  A breadth-first search
    from that column finds those holders, and the path shifts one step to
    make room.
    """
    t, q = perm.shape
    rows = np.arange(q)
    perm = perm.copy()
    for i in range(q - 1):
        holder = np.empty_like(perm)
        holder[np.arange(t)[:, None], perm] = rows
        # elements where row i sees a smaller tight column held below it
        cand = (tight[:, i, :] > 0) & (holder > i) & (rows < perm[:, i:i + 1])
        sub = np.nonzero(cand.any(axis=1))[0]
        if not sub.size:
            continue
        ts, hs = tight[sub], holder[sub]
        depth = np.full(hs.shape, q + 1)  # length of each row's path to row i's column
        depth[:, i] = 0
        front = np.zeros(hs.shape)
        front[np.arange(sub.size), perm[sub, i]] = 1.0
        for d in range(1, q - i):
            hit = np.einsum("tac,tc->ta", ts, front) > 0
            hit &= (depth > q) & (rows > i)
            if not hit.any():
                break
            depth[hit] = d
            front = np.take_along_axis(hit, hs, axis=1).astype(np.float64)
        reached = np.take_along_axis(depth, hs, axis=1)  # path length of each column's holder
        ok = cand[sub] & (reached <= q)
        moved = np.nonzero(ok.any(axis=1))[0]
        col = ok[moved].argmax(axis=1)
        a = hs[moved, col]
        perm[sub[moved], i] = col
        while moved.size:
            da = depth[moved, a]
            col = ((ts[moved, a] > 0) & (reached[moved] == (da - 1)[:, None])).argmax(axis=1)
            perm[sub[moved], a] = col
            on = da > 1
            moved, a = moved[on], hs[moved[on], col[on]]
    return perm


def _matched_costs(cost: np.ndarray, perm: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Cost of each (m, Q) permutation ``perm`` in the elements ``elements``
    of a (Q, Q, k) cost batch, summed in row order.  Every reported squared
    distance of the solver path comes from here: the gathered (Q, m) costs
    are laid out with each element's rows adjacent, and from Q = 8 on numpy
    sums a contiguous axis in another order than a strided one, so the floats
    depend on this layout."""
    return cost[np.arange(cost.shape[0])[:, None], perm.T, elements].sum(axis=0)


def _tie_broken_assignments(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically first optimal assignments of a finite (Q, Q, k) cost
    batch by the shortest-augmenting-path solver, and their costs summed in
    row order."""
    q = cost.shape[0]
    rows = np.arange(q)[:, None]
    perm, u, v = _shortest_augmenting_paths(cost)
    elements = np.arange(perm.shape[0])
    sq = _matched_costs(cost, perm, elements)
    slack = cost - np.ascontiguousarray(u.T)[:, None]
    slack -= np.ascontiguousarray(v.T)
    slack[rows, perm.T, elements] = np.inf  # look for tight pairs off the matching
    tight = slack <= TIE_REL_TOL * (1.0 + sq)
    ties = np.nonzero(tight.any(axis=(0, 1)))[0]
    if ties.size:
        tight = tight[..., ties].transpose(2, 0, 1).astype(np.float64)
        tight[np.arange(ties.size)[:, None], rows.T, perm[ties]] = 1.0
        perm[ties] = _lexicographic_matchings(tight, perm[ties])
        sq[ties] = _matched_costs(cost, perm[ties], ties)
    return perm, sq


def _screened_assignments(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_tie_broken_assignments` of a finite (Q, Q, k) cost batch, with the
    clear-cut elements settled by their row minima and only the rest solved.

    An element is clear-cut when its rows' cheapest columns form a
    permutation and every other entry of each row lies more than the margin
    m = Q * 2 * TIE_REL_TOL * (1 + the sum of the row minima) above that
    row's minimum.  The sum of the row minima bounds every permutation's cost
    from below, and this permutation attains it, so it is the optimum.  Any
    other permutation leaves the row minimum in at least two rows and pays
    more than m in each, while a perfect matching of the solver's tight
    pairs pays at most the tie tolerance TIE_REL_TOL * (1 + sq), below m, in
    each row where it leaves the optimum.  So no other permutation is tight, and the
    solver and its tie pass would return this same permutation; its cost is
    summed by the solver's own `_matched_costs`.  The rest go to the solver
    as one sub-batch, the batch itself when every element is left; the batch
    is overwritten.
    """
    q, _, k = cost.shape
    low = cost.min(axis=1)  # (Q, k) row minima
    near = cost <= (low + q * 2 * TIE_REL_TOL * (1.0 + low.sum(axis=0)))[:, None]
    # every row holds its minimum, so Q near entries in all that cover every
    # column are one per row, on a permutation
    clear = (near.reshape(q * q, k).sum(axis=0) == q) & near.any(axis=0).all(axis=0)
    del low
    if not clear.any():
        del near
        return _tie_broken_assignments(cost)
    perm = np.zeros((q, k), dtype=np.intp)  # each row's last near column
    for j in range(1, q):
        np.copyto(perm, j, where=near[:, j])
    del near
    perm = perm.T
    easy = np.nonzero(clear)[0]
    sq = np.empty(k)
    sq[easy] = _matched_costs(cost, perm[easy], easy)
    hard = np.nonzero(~clear)[0]
    if hard.size:
        # the rest move to the front of the batch, so that the solver's
        # sub-batch holds no second copy of the chunk while it runs
        sub = cost[..., :hard.size]
        sub[...] = cost[..., hard]
        perm[hard], sq[hard] = _tie_broken_assignments(sub)
    return perm, sq


def _enumerated_assignments(cost: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically first optimal assignments of a (Q, Q, k) cost batch
    by scoring every permutation of ``table``, and their costs summed in row
    order.  A permutation is optimal when its cost is at most
    min + TIE_REL_TOL * (1 + min).  The pick runs along the batch axis: the
    permutations are passed from the last to the first, each overwriting
    the pick and cost of the elements where it is optimal, so the first
    optimal one writes last."""
    s = cost[0, table[:, 0]]  # (Q!, k)
    for i in range(1, table.shape[1]):
        s += cost[i, table[:, i]]
    limit = s.min(axis=0)
    limit += TIE_REL_TOL * (1.0 + limit)
    k = s.shape[1]
    pick = np.empty(k, dtype=np.intp)
    sq = np.empty(k)
    optimal = np.empty(k, dtype=bool)
    for p in range(table.shape[0] - 1, -1, -1):
        np.less_equal(s[p], limit, out=optimal)
        np.copyto(pick, p, where=optimal)
        np.copyto(sq, s[p], where=optimal)
    return np.take(table, pick, axis=0), sq


def assign(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal sheet assignment between tuple batches, element by element.

    ``a`` and ``b`` have shape (..., Q, n) and broadcast against each other.
    Returns (perm, sq): ``b[..., perm[i], :]`` pairs with ``a[..., i, :]``
    and ``sq`` is the squared assignment distance.  The flattened batch is
    solved in chunks whose (Q, Q) cost matrices, or Q! permutation costs
    where those are larger, fit in ASSIGN_CHUNK_BYTES.

    Each input is read as one coordinate-major, batch-last (n, Q, k) array,
    so every step runs along the batch axis.  It is copied once: whole when
    its batch axes do not merge, else a chunk at a time by `_cost_matrices`
    (which copies the chunks of a whole copy again when there are several).
    Each chunk becomes one (Q, Q, k) batch of squared sheet distances, laid
    out the same whether ``a`` is one tuple or a batch, and each element's
    cost is summed in row order, so the floats do not depend on the batch
    form.  For Q <= EXHAUSTIVE_MAX_SHEETS every permutation is scored, and
    the lexicographically first whose cost is at most
    min + TIE_REL_TOL * (1 + min) wins.  Above that an element whose row
    minima lie on a permutation, each clear of the rest of its row by a tie
    margin, takes that permutation (see `_screened_assignments`).  For the
    others a batched shortest-augmenting-path solver finds an optimum and
    its dual potentials; a pair is tight when its reduced cost is at most
    TIE_REL_TOL * (1 + sq), and an element whose tight graph admits more
    than one perfect matching takes the lexicographically first.  Either way exact
    ties go to the lexicographically first optimal permutation.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    q, n = shape[-2:]
    # coordinate-major, batch-last (n, Q, k) views; the reshape copies an
    # input whose batch axes do not merge (an edge slice of a grid), and a
    # lone tuple broadcast against a batch stays a stride-0 view
    a = np.moveaxis(np.broadcast_to(a, shape), (-1, -2), (0, 1)).reshape(n, q, -1)
    b = np.moveaxis(np.broadcast_to(b, shape), (-1, -2), (0, 1)).reshape(n, q, -1)
    k = a.shape[2]
    perm = np.empty((k, q), dtype=np.intp)
    sq = np.empty(k)
    table = _permutation_table(q) if q <= EXHAUSTIVE_MAX_SHEETS else None
    width = q * q if table is None else max(q * q, table.shape[0])
    step = max(1, ASSIGN_CHUNK_BYTES // (width * 8))
    for lo in range(0, k, step):
        hi = lo + step
        cost = _cost_matrices(a[..., lo:hi], b[..., lo:hi])
        # NaN or overflowed costs have no optimum, and the solver's searches
        # need finite reduced costs to end
        if not np.isfinite(cost).all():
            raise InvalidInputError("squared sheet distances must be finite")
        if table is None:
            perm[lo:hi], sq[lo:hi] = _screened_assignments(cost)
        else:
            perm[lo:hi], sq[lo:hi] = _enumerated_assignments(cost, table)
    return perm.reshape(shape[:-1]), sq.reshape(shape[:-2])


def metric_g_many(base: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Assignment distance from one (Q, n) tuple to a batch of tuples."""
    return np.sqrt(assign(base, batch)[1])


def _union_classes(count: int, pairs) -> list[list[int]]:
    """Classes of range(count) chained by the given index pairs (union-find).

    Classes are listed in the order of their first members, and each lists
    its members in increasing order.
    """
    parent = list(range(count))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for i, j in pairs:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list[int]] = {}
    for i in range(count):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def _distances(points: np.ndarray) -> np.ndarray:
    """Pairwise distances of (m, n) points, shape (m, m); sqrt is monotone and
    correctly rounded, so its extremes are the roots of the squares' extremes."""
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def _threshold_classes(dist: np.ndarray, threshold: float) -> list[list[int]]:
    """Classes of points chained by pairwise distance <= threshold, given
    their `_distances`."""
    return _union_classes(dist.shape[0], zip(*np.nonzero(np.triu(dist <= threshold, k=1))))


def _collapse_classes(
    points: np.ndarray, multiplicities: np.ndarray, classes: list[list[int]]
) -> SupportDecomposition:
    """One site per class of points: its lexicographically smallest member,
    carrying the class's total multiplicity.  Sites come in lexicographic order."""
    sites = np.array([points[m][np.lexsort(points[m].T[::-1])[0]] for m in classes])
    mult = np.array([multiplicities[m].sum() for m in classes], dtype=np.intp)
    order = np.lexsort(sites.T[::-1])
    return SupportDecomposition(sites[order], mult[order])


def support(p: QPoint) -> SupportDecomposition:
    """Cluster coincident sheets into sites.

    Sheets chained by pairwise distance at most DEDUP_REL_TOL * diameter
    form one site, represented by its lexicographically smallest member;
    sites are returned in lexicographic order.  The threshold scales with the
    tuple, and so do the sites; exact coincidences merge at every scale.
    """
    dist = _distances(p.points)
    classes = _threshold_classes(dist, DEDUP_REL_TOL * dist.max())
    return _collapse_classes(p.points, np.ones(p.q, dtype=np.intp), classes)


def min_separation(s: SupportDecomposition) -> float:
    """Minimum pairwise site distance; +inf for a single site."""
    if s.count < 2:
        return float("inf")
    return float(_distances(s.sites)[np.triu_indices(s.count, k=1)].min())


def project_sheets(directions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Projections of (..., Q, n) sheets onto (P, n) directions, shape (..., P, Q).

    Every projection of sheets onto frame directions goes through here, so
    a sheet's projection is the same float whatever the batch around it.
    The products are summed coordinate by coordinate from the first, the
    order in which ``np.einsum("an,...qn->...aq", ...)`` sums them, so the
    two give the same floats, in about a quarter of its time; a matrix
    product (``@``) may round differently.
    """
    proj = directions[:, 0, None] * values[..., None, :, 0]
    for k in range(1, values.shape[-1]):
        proj += directions[:, k, None] * values[..., None, :, k]
    return proj


def pushforward_projection(alpha_dir: np.ndarray, p: QPoint) -> QPoint:
    """Project every sheet onto a unit direction, giving a tuple in R^1."""
    d = np.asarray(alpha_dir, dtype=np.float64)
    if d.shape != (p.n,):
        raise InvalidInputError(f"direction must have shape ({p.n},), got {d.shape}")
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise InvalidInputError("direction must be a unit vector (within 1e-12)")
    return QPoint(project_sheets(d[None], p.points).T)
