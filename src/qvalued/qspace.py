"""The metric space of unordered Q-tuples of points in R^n.

A member is a multiset of Q points (repetitions allowed).  The distance
between two members is the optimal-assignment distance: the minimum over
permutations of the root of the summed squared pairwise distances.  The
assignment is solved exactly by the Hungarian algorithm.  Grid routines
need the assignment for every node or edge of a field at once; `assign`
serves them all, enumerating permutations over bounded-memory chunks of
the batch for small Q.  The functions that run the Hungarian solver import
it themselves, so importing this module does not load scipy.optimize.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

#: largest sheet count for which batch distances enumerate all permutations
EXHAUSTIVE_MAX_SHEETS = 6

#: byte budget of one chunk of candidate differences in `assign`
ASSIGN_CHUNK_BYTES = 1 << 22

#: relative factor for the default coincidence tolerance of `support`
DEDUP_REL_TOL = 1e-9

_PERM_CACHE: dict[int, np.ndarray] = {}


def _permutation_table(q: int) -> np.ndarray:
    """All permutations of range(q) as an (q!, q) int array, lexicographic order."""
    tab = _PERM_CACHE.get(q)
    if tab is None:
        tab = np.array(list(itertools.permutations(range(q))), dtype=np.intp)
        _PERM_CACHE[q] = tab
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
    """Optimal-assignment distance between two unordered tuples."""
    from scipy.optimize import linear_sum_assignment

    _check_compatible(p, r)
    diff = p.points[:, None, :] - r.points[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


def optimal_matching(p: QPoint, r: QPoint) -> tuple[np.ndarray, float]:
    """Optimal sheet pairing and its distance.

    Returns (perm, dist) with ``r.points[perm[i]]`` matched to ``p.points[i]``.
    Ties are broken toward the lexicographically smallest permutation so that
    reported matchings are reproducible.
    """
    from scipy.optimize import linear_sum_assignment

    _check_compatible(p, r)
    diff = p.points[:, None, :] - r.points[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    best = cost[rows, cols].sum()
    tol = 1e-12 * (1.0 + abs(best))

    q = p.q
    perm = np.empty(q, dtype=np.intp)
    free = list(range(q))
    remaining = best
    for i in range(q):
        for j in sorted(free):
            rest = [c for c in free if c != j]
            if rest:
                sub = cost[np.ix_(range(i + 1, q), rest)]
                rr, cc = linear_sum_assignment(sub)
                sub_cost = sub[rr, cc].sum()
            else:
                sub_cost = 0.0
            if cost[i, j] + sub_cost <= remaining + tol:
                perm[i] = j
                free.remove(j)
                remaining -= cost[i, j]
                break
        else:  # pragma: no cover - assignment always completes
            raise RuntimeError("tie-broken matching reconstruction failed")
    return perm, float(np.sqrt(best))


def assign(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal sheet assignment between tuple batches, element by element.

    ``a`` and ``b`` have shape (..., Q, n) and broadcast against each other.
    Returns (perm, sq): ``b[..., perm[i], :]`` pairs with ``a[..., i, :]``
    and ``sq`` is the squared assignment distance.  For Q <=
    EXHAUSTIVE_MAX_SHEETS every permutation is scored, with ties going to the
    lexicographically first, on chunks of the flattened batch whose
    candidate differences fit in ASSIGN_CHUNK_BYTES; beyond that the
    Hungarian solver runs once per element.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    shape = np.broadcast_shapes(a.shape, b.shape)
    q, n = shape[-2:]
    a = np.broadcast_to(a, shape).reshape(-1, q, n)
    b = np.broadcast_to(b, shape).reshape(-1, q, n)
    perm = np.empty((a.shape[0], q), dtype=np.intp)
    sq = np.empty(a.shape[0])
    if q <= EXHAUSTIVE_MAX_SHEETS:
        table = _permutation_table(q)
        step = max(1, ASSIGN_CHUNK_BYTES // (table.size * n * 8))
        # einsum sums in the memory order of delta, so both branches lay it
        # out as the plain difference a[:, None] - b[:, table] comes out:
        # (Q!, Q, k, n) for one tuple against a batch, else (Q!, k, Q, n).
        one_base = a.strides[0] == 0
        for lo in range(0, a.shape[0], step):
            hi = lo + step
            if one_base:
                delta = b[lo:hi, table]
                np.subtract(a[lo:hi, None], delta, out=delta)
            else:
                cand = np.take(b[lo:hi], table, axis=1)  # (k, Q!, Q, n)
                delta = np.empty((table.shape[0], cand.shape[0], q, n)).swapaxes(0, 1)
                np.subtract(a[lo:hi, None], cand, out=delta)
            cost = np.einsum("...ijk,...ijk->...i", delta, delta)  # (k, Q!)
            pick = np.argmin(cost, axis=-1)
            perm[lo:hi] = table[pick]
            sq[lo:hi] = cost.min(axis=-1)
    else:
        from scipy.optimize import linear_sum_assignment

        for k in range(a.shape[0]):
            diff = a[k][:, None, :] - b[k][None, :, :]
            cost = np.einsum("ijk,ijk->ij", diff, diff)
            rows, cols = linear_sum_assignment(cost)
            perm[k] = cols
            sq[k] = cost[rows, cols].sum()
    return perm.reshape(shape[:-1]), sq.reshape(shape[:-2])


def metric_g_many(base: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Assignment distance from one (Q, n) tuple to a batch of tuples."""
    return np.sqrt(assign(base, batch)[1])


def _threshold_classes(points: np.ndarray, threshold: float) -> list[list[int]]:
    """Classes of points chained by pairwise distance <= threshold.

    Classes are listed in the order of their first members, and each lists
    its members in increasing order.
    """
    count = points.shape[0]
    parent = list(range(count))

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    diff = points[:, None, :] - points[None, :, :]
    close = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)) <= threshold
    for i, j in zip(*np.nonzero(np.triu(close, k=1))):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    classes: dict[int, list[int]] = {}
    for i in range(count):
        classes.setdefault(find(i), []).append(i)
    return list(classes.values())


def default_dedup_tol(points: np.ndarray) -> float:
    """Scale-aware coincidence tolerance: DEDUP_REL_TOL * (1 + diameter)."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] < 2:
        return DEDUP_REL_TOL
    diff = pts[:, None, :] - pts[None, :, :]
    diam = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff).max())
    return DEDUP_REL_TOL * (1.0 + diam)


def support(p: QPoint, dedup_tol: float | None = None) -> SupportDecomposition:
    """Cluster coincident sheets (pairwise distance <= dedup_tol) into sites.

    Each cluster is represented by its lexicographically smallest member;
    sites are returned in lexicographic order.
    """
    if dedup_tol is None:
        dedup_tol = default_dedup_tol(p.points)
    if dedup_tol < 0:
        raise InvalidInputError("dedup_tol must be nonnegative")
    pts = p.points
    sites = []
    mult = []
    for members in _threshold_classes(pts, dedup_tol):
        block = pts[members]
        rep = block[np.lexsort(block.T[::-1])[0]]
        sites.append(rep)
        mult.append(len(members))
    sites_arr = np.array(sites)
    order = np.lexsort(sites_arr.T[::-1])
    return SupportDecomposition(sites_arr[order], np.array(mult, dtype=np.intp)[order])


def min_separation(s: SupportDecomposition) -> float:
    """Minimum pairwise site distance; +inf for a single site."""
    if s.count < 2:
        return float("inf")
    diff = s.sites[:, None, :] - s.sites[None, :, :]
    d2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu = np.triu_indices(s.count, k=1)
    return float(np.sqrt(d2[iu].min()))


def pushforward_projection(alpha_dir: np.ndarray, p: QPoint) -> QPoint:
    """Project every sheet onto a unit direction, giving a tuple in R^1."""
    d = np.asarray(alpha_dir, dtype=np.float64)
    if d.shape != (p.n,):
        raise InvalidInputError(f"direction must have shape ({p.n},), got {d.shape}")
    if abs(np.linalg.norm(d) - 1.0) > 1e-12:
        raise InvalidInputError("direction must be a unit vector (within 1e-12)")
    return QPoint((p.points @ d)[:, None])
