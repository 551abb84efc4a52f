"""Sorted-projection embeddings of unordered tuples into Euclidean space.

Each straight-line direction induces a map sending a tuple to its sorted
projections, a 1-Lipschitz map onto the sorted cone in R^Q.  Concatenating
the n coordinate axes gives the standard Lipschitz embedding used by the
Dirichlet energy; extra directions (beyond the first n) sharpen injectivity
and are generated here as a deterministic seeded set on the sphere.  Every
embedding of the package sorts its projections in `_sorted_projections`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .qspace import QPoint, project_sheets

ORTHONORMAL_TOL = 1e-10
UNIT_TOL = 1e-12

#: smallest batch, in tuples, that `_sorted_projections` sorts with the
#: transposition network, by sheet count; smaller batches and other Q go to
#: a stable np.sort.  Network against stable sort, in us, for 2-D sheets on
#: two directions (one BLAS thread, 2-core shared host): Q = 2: 27 against
#: 24 at 256 tuples, 37 against 47 at 512, 51 against 83 at 1024, 1043
#: against 1513 at 16641; Q = 3: 96 against 91 at 1024, 2035 against 2080
#: at 16641, no gain; Q = 4: 166 against 113 at 1024, 3314 against 2668 at
#: 16641; and a lone tuple 13-24 against 5 at Q = 1-3.  Q = 1 has nothing
#: to sort and no workload embeds it, so it keeps the sort.
SORT_NETWORK_MIN_NODES = {2: 512}


@dataclass(frozen=True, eq=False)
class ProjectionFrame:
    """Ordered unit direction lines; the first n form an orthonormal basis."""

    directions: np.ndarray  # (P, n)
    q_sheets: int

    def __post_init__(self):
        dirs = np.asarray(self.directions, dtype=np.float64)
        if dirs.ndim != 2:
            raise InvalidInputError("directions must be a (P, n) array")
        n = dirs.shape[1]
        if dirs.shape[0] < n:
            raise InvalidInputError("need at least n directions")
        norms = np.linalg.norm(dirs, axis=1)
        if not np.all(np.abs(norms - 1.0) <= UNIT_TOL):  # NaN and inf fail it too
            raise InvalidInputError("all directions must be unit vectors (within 1e-12)")
        gram = dirs[:n] @ dirs[:n].T
        if np.abs(gram - np.eye(n)).max() > ORTHONORMAL_TOL:
            raise InvalidInputError("first n directions must be orthonormal (within 1e-10)")
        if self.q_sheets < 1:
            raise InvalidInputError("q_sheets must be positive")
        object.__setattr__(self, "directions", dirs)

    @property
    def n(self) -> int:
        return self.directions.shape[1]

    @property
    def p_total(self) -> int:
        return self.directions.shape[0]

    def to_dict(self) -> dict:
        return {"n": self.n, "Q": self.q_sheets, "directions": self.directions.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ProjectionFrame":
        return cls(np.asarray(d["directions"], dtype=np.float64), int(d["Q"]))


@dataclass(frozen=True, eq=False)
class EmbeddedPoint:
    """Per-direction sorted projection blocks, one row per direction."""

    blocks: np.ndarray  # (B, Q), each row ascending

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=np.float64)
        if blocks.ndim != 2:
            raise InvalidInputError("blocks must be a (B, Q) array")
        if np.any(np.diff(blocks, axis=1) < 0):
            raise InvalidInputError("each block must be sorted ascending")
        object.__setattr__(self, "blocks", blocks)

    @property
    def flat(self) -> np.ndarray:
        return self.blocks.reshape(-1)


def standard_frame(n: int, q_sheets: int) -> ProjectionFrame:
    """The coordinate-axis frame (no extra directions)."""
    return ProjectionFrame(np.eye(n), q_sheets)


def frame_with_extra_directions(n: int, q_sheets: int, p_total: int) -> ProjectionFrame:
    """Coordinate axes plus (p_total - n) random unit directions.

    The extras are normalised Gaussian rows drawn from a generator seeded by
    (n, q_sheets), so the set is reproducible.
    """
    if p_total < n:
        raise InvalidInputError("p_total must be at least n")
    g = np.random.default_rng(100003 * n + q_sheets).standard_normal((p_total - n, n))
    return ProjectionFrame(np.vstack([np.eye(n), g / np.linalg.norm(g, axis=1, keepdims=True)]),
                           q_sheets)


def rotated_frame(n: int, q_sheets: int, seed: int = 0) -> ProjectionFrame:
    """A frame whose first n directions are a seeded random orthonormal basis."""
    rng = np.random.default_rng(seed)
    qmat, r = np.linalg.qr(rng.normal(size=(n, n)))
    qmat = qmat * np.sign(np.diag(r))
    return ProjectionFrame(qmat.T, q_sheets)


def _check_point(frame: ProjectionFrame, p: QPoint):
    if p.n != frame.n or p.q != frame.q_sheets:
        raise InvalidInputError(
            f"point ({p.q} sheets in R^{p.n}) does not fit frame "
            f"({frame.q_sheets} sheets in R^{frame.n})"
        )


def _sorted_projections(directions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ascending projections of (..., Q, n) sheets onto (P, n) directions,
    shape (..., P, Q): the one place where the package sorts them.

    Equal projections keep the order of their sheets, so a projection 0.0
    and one -0.0 come out in the same order on every host.  A batch of at
    least ``SORT_NETWORK_MIN_NODES[Q]`` tuples is projected into a node-last
    (P, Q, nodes) buffer, coordinate by coordinate with the products and
    sums of `project_sheets`, and sorted there by an odd-even transposition
    network: Q rounds of compare-exchanges between adjacent sheets, each
    swapping only where the later projection is strictly smaller, so every
    step runs along the node axis.  Smaller batches and other Q go to a
    stable `np.sort` of the projections.  Both give the same floats.
    """
    *batch, q, n = values.shape
    nodes = math.prod(batch)
    if nodes < SORT_NETWORK_MIN_NODES.get(q, math.inf):
        return np.sort(project_sheets(directions, values), axis=-1, kind="stable")
    cols = np.moveaxis(values.reshape(nodes, q, n), 0, -1)  # (Q, n, nodes) view
    buf = directions[:, 0, None, None] * cols[:, 0]
    for k in range(1, n):
        buf += directions[:, k, None, None] * cols[:, k]
    for r in range(q):
        lo, hi = buf[:, r % 2 : q - 1 : 2], buf[:, r % 2 + 1 : q : 2]
        if lo.shape[1]:
            swap = hi < lo
            low = np.where(swap, hi, lo)
            np.copyto(hi, lo, where=swap)
            lo[...] = low
    return np.ascontiguousarray(np.moveaxis(buf, -1, 0)).reshape(*batch, *buf.shape[:2])


def _embed_values(values: np.ndarray, frame: ProjectionFrame) -> np.ndarray:
    """`xi0` of (..., Q, n) node values, flattened to (..., n*Q).

    Each node is embedded on its own, so a block of nodes embeds to the same
    floats as it does inside the whole grid, and a node to those of `xi0`.
    """
    return _sorted_projections(frame.directions[: frame.n], values).reshape(*values.shape[:-2], -1)


def xi_alpha(frame: ProjectionFrame, alpha: int, p: QPoint) -> np.ndarray:
    """Sorted projections of the sheets onto direction ``alpha``."""
    _check_point(frame, p)
    if not 0 <= alpha < frame.p_total:
        raise InvalidInputError(f"direction index {alpha} out of range [0, {frame.p_total})")
    return _sorted_projections(frame.directions[alpha, None], p.points)[0]


def xi0(frame: ProjectionFrame, p: QPoint) -> EmbeddedPoint:
    """The n-block Lipschitz embedding (first n directions only)."""
    _check_point(frame, p)
    return EmbeddedPoint(_sorted_projections(frame.directions[: frame.n], p.points))


def xi_full(frame: ProjectionFrame, p: QPoint) -> EmbeddedPoint:
    """Sorted projection blocks for every direction of the frame."""
    _check_point(frame, p)
    return EmbeddedPoint(_sorted_projections(frame.directions, p.points))


def embedded_distance(a: EmbeddedPoint, b: EmbeddedPoint) -> float:
    """Euclidean distance between two embedded points of equal structure."""
    if a.blocks.shape != b.blocks.shape:
        raise InvalidInputError(
            f"block structure mismatch: {a.blocks.shape} vs {b.blocks.shape}"
        )
    return float(np.linalg.norm(a.blocks - b.blocks))
