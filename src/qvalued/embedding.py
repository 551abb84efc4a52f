"""Sorted-projection embeddings of unordered tuples into Euclidean space.

Each straight-line direction induces a map sending a tuple to its sorted
projections, a 1-Lipschitz map onto the sorted cone in R^Q.  Concatenating
the n coordinate axes gives the standard Lipschitz embedding used by the
Dirichlet energy; extra directions (beyond the first n) sharpen injectivity
and are generated here as a deterministic low-discrepancy set on the sphere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .qspace import QPoint, project_sheets

ORTHONORMAL_TOL = 1e-10
UNIT_TOL = 1e-12


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
    """Coordinate axes plus (p_total - n) low-discrepancy sphere directions.

    The extras come from a Sobol sequence pushed through the Gaussian inverse
    CDF and normalised, seeded by (n, q_sheets) so the set is reproducible.
    """
    if p_total < n:
        raise InvalidInputError("p_total must be at least n")
    extra = p_total - n
    dirs = [np.eye(n)]
    if extra > 0:
        if n == 1:
            dirs.append(np.ones((extra, 1)))
        else:
            # Imported here, their only use, so that importing the package
            # does not pay for loading scipy.stats.
            from scipy.special import ndtri
            from scipy.stats import qmc

            sob = qmc.Sobol(d=n, scramble=True, seed=100003 * n + q_sheets)
            draw = 1 << max(1, (extra - 1).bit_length())
            u = sob.random(draw)[:extra]
            g = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            dirs.append(g / norms)
    return ProjectionFrame(np.vstack(dirs), q_sheets)


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


def xi_alpha(frame: ProjectionFrame, alpha: int, p: QPoint) -> np.ndarray:
    """Sorted projections of the sheets onto direction ``alpha``."""
    _check_point(frame, p)
    if not 0 <= alpha < frame.p_total:
        raise InvalidInputError(f"direction index {alpha} out of range [0, {frame.p_total})")
    return np.sort(project_sheets(frame.directions[alpha, None], p.points)[0])


def xi0(frame: ProjectionFrame, p: QPoint) -> EmbeddedPoint:
    """The n-block Lipschitz embedding (first n directions only)."""
    _check_point(frame, p)
    return EmbeddedPoint(np.sort(project_sheets(frame.directions[: frame.n], p.points), axis=1))


def xi_full(frame: ProjectionFrame, p: QPoint) -> EmbeddedPoint:
    """Sorted projection blocks for every direction of the frame."""
    _check_point(frame, p)
    return EmbeddedPoint(np.sort(project_sheets(frame.directions, p.points), axis=1))


def embedded_distance(a: EmbeddedPoint, b: EmbeddedPoint) -> float:
    """Euclidean distance between two embedded points of equal structure."""
    if a.blocks.shape != b.blocks.shape:
        raise InvalidInputError(
            f"block structure mismatch: {a.blocks.shape} vs {b.blocks.shape}"
        )
    return float(np.linalg.norm(a.blocks - b.blocks))
