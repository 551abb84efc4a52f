"""Angle-separated frames, admissible balls, sheet-wise subtraction, nested chains.

A ball around a decomposed tuple is admissible when the per-axis projections
of its site balls stay pairwise disjoint; inside such a ball every sheet of a
nearby tuple belongs to exactly one site, which yields a well-defined
subtraction and a linear interpolation in embedded coordinates.  The chain
construction coarsens the support level by level, merging sites whose gaps
fall below a geometrically growing threshold ladder, and certifies the
radius bookkeeping the monotonicity machinery needs, including that each
level's sigma-ball lies inside the next level's rho-ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FrameConstructionError, InvalidInputError, NotInBallError, _is_count
from .embedding import ProjectionFrame, standard_frame
from .qspace import (
    QPoint,
    SupportDecomposition,
    _collapse_classes,
    _distances,
    _threshold_classes,
    metric_g,
    project_sheets,
    support,
)

ANGLE_SLACK = 1e-9


def theta0(n: int, q_sheets: int) -> float:
    """Guaranteed direction-to-hyperplane angle for the separated frame.

    The angle cascade evaluated at the worst-case number of distinct
    difference directions, q(q-1); pi/2 when there is no direction to place
    (one dimension, or a single sheet).
    """
    if n < 1 or q_sheets < 1:
        raise InvalidInputError("n and q_sheets must be positive")
    if n == 1 or q_sheets == 1:
        return math.pi / 2
    return delta_cascade(n, q_sheets * (q_sheets - 1))


def delta_cascade(n: int, ell: int) -> float:
    """Angle floor after accommodating ell directions: halves (n-1) times per step."""
    if n < 2:
        raise InvalidInputError("delta cascade requires n >= 2")
    if ell < 1:
        raise InvalidInputError("ell must be >= 1")
    return math.asin(1.0 / math.sqrt(n)) * 0.5 ** ((n - 1) * (ell - 1))


@dataclass(frozen=True, eq=False)
class AngleSeparatedFrame:
    """An orthonormal frame verified against a configuration's difference directions."""

    frame: ProjectionFrame
    achieved_min_angle: float
    target_theta0: float

    def __post_init__(self):
        if self.achieved_min_angle < self.target_theta0 - ANGLE_SLACK:
            raise FrameConstructionError(
                f"achieved angle {self.achieved_min_angle} below target {self.target_theta0}"
            )


def _difference_directions(sites: np.ndarray) -> np.ndarray:
    """Unit directions between distinct sites, deduplicated up to sign, each
    signed so that its first nonzero coordinate is positive.

    Every reader takes |e . v|, so the sign changes no angle.  The sites of
    `support` are sorted, so there the sign is already positive."""
    count = sites.shape[0]
    dirs = []
    for i in range(count):
        for j in range(i + 1, count):
            d = sites[j] - sites[i]
            norm = np.linalg.norm(d)
            if norm == 0:
                continue
            dirs.append(d / norm if d[np.flatnonzero(d)[0]] > 0 else -d / norm)
    if not dirs:
        return np.empty((0, sites.shape[1]))
    arr = np.array(dirs)
    keep = []
    for v in arr:
        if all(min(np.linalg.norm(v - w), np.linalg.norm(v + w)) > 1e-12 for w in keep):
            keep.append(v)
    return np.array(keep)


def _rotation_to(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotation matrix mapping unit vector a to unit vector b (plane rotation),
    for a . b > -1: the seed of `angle_separated_frame` has a . b >= -sqrt((n - 1) / n)."""
    n = a.shape[0]
    c = float(np.clip(a @ b, -1.0, 1.0))
    if c > 1 - 1e-15:
        return np.eye(n)
    w = b - c * a
    w /= np.linalg.norm(w)
    return _plane_rotation(a, w, math.acos(c))


def _plane_rotation(u: np.ndarray, v: np.ndarray, angle: float) -> np.ndarray:
    """Rotation by ``angle`` in the oriented plane of the orthonormal pair (u, v)."""
    n = u.shape[0]
    s, c = math.sin(angle), math.cos(angle)
    return (
        np.eye(n)
        + s * (np.outer(v, u) - np.outer(u, v))
        + (c - 1.0) * (np.outer(u, u) + np.outer(v, v))
    )


def angle_separated_frame(s: SupportDecomposition) -> AngleSeparatedFrame:
    """Build an orthonormal frame keeping every site-difference direction away
    from every coordinate hyperplane.

    Follows the inductive rotation scheme: seed the frame so the first
    direction reads (1/sqrt(n), ..., 1/sqrt(n)), then for each further
    direction lift any hyperplane angle that falls below the current cascade
    floor to its stage target by a closed-form rotation in the plane of the
    direction and the nearest pole.  Rotations only ever lift an angle toward
    its target; an angle already above target is left alone, which keeps
    every previously placed direction above the next cascade level.  The
    returned frame is certified by direct verification against all pairs.
    """
    n = s.n
    q = s.q
    target = theta0(n, q)
    if n == 1:
        frame = standard_frame(1, q)
        return AngleSeparatedFrame(frame, math.pi / 2, target)

    dirs = _difference_directions(s.sites)
    basis = np.eye(n)  # rows are the frame normals e_alpha
    if dirs.shape[0] > 0:
        u = np.full(n, 1.0 / math.sqrt(n))
        # rows e_alpha = R @ std_alpha give <e_alpha, v1> = 1/sqrt(n)
        basis = _rotation_to(u, dirs[0]).T
        for ell in range(2, dirs.shape[0] + 1):
            delta_prev = delta_cascade(n, ell - 1)
            v = dirs[ell - 1].copy()
            angles = np.arcsin(np.clip(np.abs(basis @ v), 0.0, 1.0))
            violated = np.where(angles < delta_prev)[0]
            if violated.size > 0:
                order = violated[np.argsort(angles[violated])]
                accum = np.eye(n)
                v_cur = v.copy()
                for i, alpha in enumerate(order, start=1):
                    e = basis[alpha]
                    proj = float(e @ v_cur)
                    current = math.asin(min(abs(proj), 1.0))
                    stage_target = 0.5 ** i * delta_prev
                    if current >= stage_target:
                        continue
                    # here |proj| < sin(asin(1/sqrt(n)) / 2) <= sin(pi/8), so w is not 0
                    pole = e if proj >= 0 else -e
                    w = pole - (pole @ v_cur) * v_cur
                    w /= np.linalg.norm(w)
                    rot = _plane_rotation(v_cur, w, stage_target - current)
                    v_cur = rot @ v_cur
                    v_cur /= np.linalg.norm(v_cur)
                    accum = rot @ accum
                basis = basis @ accum

    frame = ProjectionFrame(basis, q)
    achieved = math.pi / 2
    if dirs.shape[0] > 0:
        dots = np.abs(basis @ dirs.T)  # (n, L)
        achieved = float(np.arcsin(np.clip(dots, 0.0, 1.0).min()))
        if achieved < target - ANGLE_SLACK:
            worst = np.unravel_index(np.argmin(dots), dots.shape)
            raise FrameConstructionError(
                f"frame verification failed: angle {achieved} < theta0 {target}",
                worst=(dirs[worst[1]], int(worst[0])),
            )
    return AngleSeparatedFrame(frame, achieved, target)


@dataclass(frozen=True, eq=False)
class AdmissibleBall:
    """A candidate admissible cover: site balls of one radius under a frame."""

    center: SupportDecomposition
    radius: float
    frame: ProjectionFrame

    def __post_init__(self):
        if self.radius <= 0:
            raise InvalidInputError("radius must be positive")
        if self.frame.n != self.center.n:
            raise InvalidInputError("frame dimension does not match the center sites")


def is_admissible(ball: AdmissibleBall) -> bool:
    """Projected-interval disjointness of the site balls on all first-n axes."""
    proj = project_sheets(ball.frame.directions[: ball.frame.n], ball.center.sites)
    i, j = np.triu_indices(proj.shape[1], k=1)
    return not np.any(np.abs(proj[:, i] - proj[:, j]) <= 2.0 * ball.radius)


def assign_sheets(q_dec: SupportDecomposition, p: QPoint, ball: AdmissibleBall) -> np.ndarray:
    """Site index of each sheet of p inside the admissible cover of ``q_dec``.

    Each site ball must hold exactly as many sheets as the site's
    multiplicity; a count mismatch means p lies outside the tuple ball even
    though every sheet found some cover ball.
    """
    if p.n != q_dec.n or p.q != q_dec.q:
        raise InvalidInputError("tuple does not match the ball's center")
    d = np.linalg.norm(p.points[:, None, :] - q_dec.sites[None, :, :], axis=-1)
    idx = np.argmin(d, axis=1)
    inside = d[np.arange(p.q), idx] <= ball.radius + 1e-12
    if not np.all(inside):
        bad = int(np.where(~inside)[0][0])
        raise NotInBallError(
            f"sheet {bad} at {p.points[bad]} lies in no site ball of radius {ball.radius}"
        )
    counts = np.bincount(idx, minlength=q_dec.count)
    if np.any(counts != q_dec.multiplicities):
        raise NotInBallError(
            "sheet counts per site ball do not match the multiplicities: "
            f"{counts.tolist()} vs {q_dec.multiplicities.tolist()}"
        )
    return idx


def subtract(q_dec: SupportDecomposition, p: QPoint, ball: AdmissibleBall) -> QPoint:
    """Sheet-wise difference site - sheet under the unique admissible assignment."""
    idx = assign_sheets(q_dec, p, ball)
    return QPoint(q_dec.sites[idx] - p.points)


def interpolate(q_dec: SupportDecomposition, p: QPoint, s: float, ball: AdmissibleBall) -> QPoint:
    """Straight-line interpolation from p (s=0) to the center (s=1).

    Each sheet moves affinely toward its assigned site, so the embedded image
    moves on the straight segment between the embedded endpoints.
    """
    if not 0.0 <= s <= 1.0:
        raise InvalidInputError("interpolation parameter must lie in [0, 1]")
    idx = assign_sheets(q_dec, p, ball)
    return QPoint((1.0 - s) * p.points + s * q_dec.sites[idx])


def modification_constants(n: int, q_sheets: int) -> tuple[float, float]:
    """The merge-threshold growth constant K and the radius-ratio bound C0.

    C0 = (1 + 2K(Q - 1)^2)^(Q - 1) leaves the double range at n = 2 for
    Q >= 11 and at n = 3 for Q >= 9; there it raises InvalidInputError.
    """
    try:
        k = 20.0 * q_sheets / math.sin(theta0(n, q_sheets))
        c0 = (1.0 + 2.0 * k * (q_sheets - 1) ** 2) ** (q_sheets - 1)
    except (OverflowError, ZeroDivisionError):
        c0 = math.inf
    if not math.isfinite(c0):
        raise InvalidInputError(
            f"the chain constant C0 overflows a double at n = {n}, Q = {q_sheets}"
        )
    return k, c0


def delta_constant(n: int, q_sheets: int) -> float:
    """Oscillation-bound constant assembled from the worst chain level.

    The chain constants grow doubly exponentially in Q, so the bound is
    evaluated in log space; results smaller than the tiniest subnormal are
    clamped there to keep the constant strictly positive.
    """
    _, c0 = modification_constants(n, q_sheets)
    log_growth = max(q_sheets - 2, 0) * math.log(7.5 * c0)
    log_m = max(
        math.log(2.5 + 25 * q_sheets * c0),
        math.log(25 * q_sheets * c0) + log_growth,
        math.log(2.5) + log_growth,
    )
    return max(math.exp(-2.0 * log_m), 5e-324)


def constants_block(n: int, q_sheets: int) -> dict:
    """The frame angle, chain and oscillation constants every report carries."""
    k_const, c0 = modification_constants(n, q_sheets)
    return {
        "theta0": theta0(n, q_sheets),
        "K": k_const,
        "C0": c0,
        "delta": delta_constant(n, q_sheets),
    }


@dataclass(frozen=True, eq=False)
class ChainLevel:
    decomposition: SupportDecomposition
    rho: float
    sigma: float


@dataclass(frozen=True, eq=False)
class NestedBallChain:
    """Support coarsening levels with their inner/outer radii, and the frame
    every finite level is admissible under.  The chain constants are those of
    the (n, Q) the levels hold: see `constants_block`."""

    levels: tuple[ChainLevel, ...]
    frame: ProjectionFrame

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    @property
    def q_sheets(self) -> int:
        return self.levels[0].decomposition.q

    def level(self, k: int) -> ChainLevel:
        """Level k, refused unless k is a whole number below the level count
        (a bool is not a level)."""
        if not (_is_count(k, 0) and k < len(self.levels)):
            raise InvalidInputError(f"chain level {k} out of range")
        return self.levels[k]

    def to_dict(self) -> dict:
        dec = self.levels[0].decomposition
        return {
            "constants": constants_block(dec.n, dec.q),
            "levels": [
                {
                    "k": k,
                    "rho": lv.rho,
                    "sigma": lv.sigma,
                    "sites": lv.decomposition.sites.tolist(),
                    "multiplicities": lv.decomposition.multiplicities.tolist(),
                }
                for k, lv in enumerate(self.levels)
            ],
        }


def nested_chain(q: QPoint, frame: AngleSeparatedFrame) -> NestedBallChain:
    """Coarsen the support of q level by level into a nested admissible chain.

    At each level the outer radius is a fixed fraction of the minimum site
    separation; the merge threshold ladder t_1 = 0, t_{k+1} = 2K s_k with
    s_k = (Q-1)^2 t_k + s_{k-1} is run until the class count stabilises, the
    stabilising s becomes the next inner radius, and each class collapses to
    its lexicographically smallest site carrying the class's total
    multiplicity.  Terminates in at most Q-1 levels.
    """
    dec = support(q)
    n, q_sheets = dec.n, dec.q
    k_const, _ = modification_constants(n, q_sheets)
    sin_th = math.sin(theta0(n, q_sheets))

    levels: list[ChainLevel] = []
    current = dec
    rho = 0.0
    while current.count >= 2:
        dist = _distances(current.sites)  # every ladder step reads it
        sigma = 0.25 * sin_th * float(dist[np.triu_indices(current.count, k=1)].min())
        levels.append(ChainLevel(current, rho, sigma))

        # threshold ladder: s_0 = sigma, t_1 = 0, d_k = (Q-1) t_k,
        # s_k = (Q-1) d_k + s_{k-1}, t_{k+1} = 2 K s_k; the first step whose
        # class count repeats its predecessor's stops it, and the predecessor
        # gives the next inner radius and the merged classes
        s_prev = sigma  # s_1, as t_1 = 0
        classes_prev = _threshold_classes(dist, 0.0)
        while True:
            t = 2.0 * k_const * s_prev
            classes = _threshold_classes(dist, t)
            if len(classes) == len(classes_prev):
                break
            d_k = (q_sheets - 1) * t
            s_prev = (q_sheets - 1) * d_k + s_prev
            classes_prev = classes
        rho = s_prev
        current = _collapse_classes(current.sites, current.multiplicities, classes_prev)

    levels.append(ChainLevel(current, rho, float("inf")))
    return NestedBallChain(tuple(levels), frame.frame)


def validate_chain(chain: NestedBallChain) -> list[str]:
    """Check every structural chain invariant; return human-readable violations.

    Besides the radius bookkeeping, every finite level must be admissible
    under the chain's frame at radius sigma_k; a frame of another dimension
    raises InvalidInputError.

    Each level's sigma-ball must also lie in the next level's rho-ball.  By
    the triangle inequality for G it is enough that
    sigma_{k-1} + G(q^{k-1}, q^k) <= rho_k, which one `metric_g` call per
    level checks exactly.  `nested_chain` meets it: where the threshold
    ladder stops at t*, each merged class collapses onto one of its own
    sites, so at most Q - 1 sheets move, each by at most (Q - 1) t* along
    the class's chain of gaps, and G(q^{k-1}, q^k) <= (Q - 1)^2 t*, while
    rho_k >= sigma_{k-1} + (Q - 1)^2 t*.
    """
    v: list[str] = []
    lv = chain.levels
    n, q_sheets = lv[0].decomposition.n, chain.q_sheets
    _, c0_const = modification_constants(n, q_sheets)
    if lv[0].rho != 0.0:
        v.append(f"rho_0 = {lv[0].rho} != 0")
    if not math.isinf(lv[-1].sigma):
        v.append(f"sigma_L = {lv[-1].sigma} finite")
    if lv[-1].decomposition.count != 1:
        v.append("final support has more than one site")
    if chain.depth > q_sheets - 1 and chain.depth > 0:
        v.append(f"depth {chain.depth} exceeds Q-1 = {q_sheets - 1}")
    seq = []
    for level in lv:
        seq.extend([level.rho, level.sigma])
    finite = [x for x in seq if not math.isinf(x)]
    if any(a >= b for a, b in zip(finite, finite[1:])):
        v.append(f"interlacing 0=rho_0<sigma_0<rho_1<... violated: {finite}")
    for k in range(len(lv) - 1):
        if lv[k + 1].decomposition.count >= lv[k].decomposition.count:
            v.append(f"support count does not strictly decrease at level {k + 1}")
        if not math.isinf(lv[k].sigma) and 10 * q_sheets * lv[k].rho > lv[k].sigma * (1 + 1e-12):
            v.append(f"10*Q*rho_{k} > sigma_{k}")
    tuples = [level.decomposition.rebuild() for level in lv]
    for k in range(1, len(lv)):
        sig_prev = lv[k - 1].sigma
        if not (sig_prev < lv[k].rho <= c0_const * sig_prev * (1 + 1e-12)):
            v.append(f"sigma_{k - 1} < rho_{k} <= C0*sigma_{k - 1} violated at level {k}")
        if math.isfinite(sig_prev):
            reach = sig_prev + metric_g(tuples[k - 1], tuples[k])
            if reach > lv[k].rho * (1 + 1e-12):
                v.append(f"sigma_{k - 1} + G(q^{k - 1}, q^{k}) = {reach} > rho_{k} = {lv[k].rho}")
    for k, level in enumerate(lv):
        if math.isfinite(level.sigma) and not is_admissible(
            AdmissibleBall(level.decomposition, level.sigma, chain.frame)
        ):
            v.append(f"level {k} is not admissible under the chain's frame at sigma_{k}")
    total = 0.0
    for k in range(1, len(lv)):
        total += lv[k].rho
        d = metric_g(tuples[0], tuples[k])
        if d > total * (1 + 1e-12) + 1e-15:
            v.append(f"G(q^0, q^{k}) = {d} > rho_1+...+rho_{k} = {total}")
        if d > (q_sheets - 1) * lv[k].rho * (1 + 1e-12) + 1e-15:
            v.append(f"G(q^0, q^{k}) = {d} > (Q-1)*rho_{k}")
    return v
