"""Numerical first variations: domain reparametrisations and admissible
range perturbations, with stationarity residuals as the combined certificate.

Domain variations compose the field with x + t*phi(x) for a compactly
supported bump and differentiate the energy by central differences, with
the displaced field evaluated by bilinear interpolation of the embedded
coordinates, so they difference the frame embedding's energy.  Range
variations push every sheet toward its chain site through the two-radius
retraction, weighted by the cutoff built from the level distance field,
and difference the field's matched energy, which reads no frame.

Both kinds of trial are local: a variation moves only the nodes under its
bump or cutoff, so the cells outside have the same energy at +t and -t.
Each derivative therefore sums the energy of the box of nodes that move
plus a one-node ring, which changes the summation order of the full-grid
difference and nothing else.  `stationarity_residual` takes the field's
harmonic companion that its caller still holds, or builds one when there is
none, and shares the embedded grid it carries with its domain trials.  Each
sampled base node's pivot record, `analysis._pivot`, gives its level
ranges and ramp width, the rules `psi_k` and the ladder read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .admissible import NestedBallChain, angle_separated_frame, nested_chain
from .analysis import (
    HarmonicCompanion,
    _check_companion,
    _companion_of,
    _d_star_at,
    _pivot,
    _smoothstep,
)
from .embedding import ProjectionFrame
from .errors import (InvalidInputError, InvalidStepError, NotInBallError, NumericalFailureError,
                     _is_count)
from .field import (
    GridField,
    _grid_box,
    _match_edges,
    bilinear_array,
    embed_grid,
    embedded_energy,
)
from .qspace import QPoint, support

#: sampled point pairs per site in the retraction's Lipschitz check
LIP_SAMPLES = 400
#: Lipschitz constant of every level's collar retraction y -> chi(|y - c|)(c - y).
#: Its derivative has the eigenvalue chi across the radius and
#: 1 - S(t) - (2 + t) S'(t) along it, up to sign, with S the quintic ramp and
#: t = (|y - c| - 0.4 sigma) / (0.2 sigma); the constant is the larger of 1 and
#: max |1 - S - (2 + t) S'| over [0, 1], reached at t = 0.5486, whatever sigma is.
RETRACTION_LIPSCHITZ = 4.2793088601276414


@dataclass(frozen=True)
class DomainVariation:
    """A compactly supported bump vector field: direction * eta(|x - c| / r)."""

    center: tuple[float, float]
    radius: float
    direction: tuple[float, float]

    def __post_init__(self):
        if not all(map(math.isfinite, (*self.center, self.radius, *self.direction))):
            raise InvalidInputError("bump centre, radius and direction must be finite")
        if self.radius <= 0:
            raise InvalidInputError("bump radius must be positive")

    def displacement(self, pts: np.ndarray) -> np.ndarray:
        return self._eta_and_gradient(pts)[0][..., None] * np.asarray(self.direction)

    def jacobian(self, pts: np.ndarray) -> np.ndarray:
        """d(displacement)/dx at each point, shape (..., 2, 2): the rank-one
        product of the direction and the gradient of eta."""
        d = np.asarray(self.direction)
        return d[:, None] * self._eta_and_gradient(pts)[1][..., None, :]

    def _eta_and_gradient(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """eta and its gradient at each point, both from one evaluation;
        they vanish outside the open disc."""
        rel = pts - np.asarray(self.center)
        s2 = (rel**2).sum(-1) / self.radius**2
        eta = np.zeros(s2.shape)
        grad_eta = np.zeros(pts.shape)
        inside = s2 < 1.0
        eta[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        deta_ds2 = -eta[inside] / (1.0 - s2[inside]) ** 2
        grad_eta[inside] = (2.0 / self.radius**2) * deta_ds2[..., None] * rel[inside]
        return eta, grad_eta


def _check_support_interior(f: GridField, v: DomainVariation):
    x_lo, x_hi, y_lo, y_hi = _grid_box(f, 1)
    cx, cy = v.center
    if not (x_lo < cx - v.radius and cx + v.radius < x_hi
            and y_lo < cy - v.radius and cy + v.radius < y_hi):
        raise InvalidInputError("bump support must stay strictly inside the interior nodes")


def domain_variation_derivative(f: GridField, frame: ProjectionFrame, v: DomainVariation) -> float:
    """Central-difference energy derivative under x -> x + t * bump at t = 0,
    with step t = h^2."""
    return _domain_derivative(f, embed_grid(f, frame), v)


def _support_nodes(c: float, r: float, origin: float, h: float) -> slice:
    """Nodes of one axis from the last at or below c - r to the first at or above c + r."""
    return slice(math.floor((c - r - origin) / h), math.ceil((c + r - origin) / h) + 1)


def _domain_derivative(f: GridField, farr: np.ndarray, v: DomainVariation) -> float:
    """`domain_variation_derivative` for f embedded as farr.

    Only nodes strictly inside the bump's disc move, so the energy difference
    is that of the cells of their box plus a one-node ring, which the
    interior check keeps inside the grid.  The Jacobian J = d grad(eta)^T
    has rank one, so det(I + sJ) = 1 + s (grad(eta) . d), and the map is a
    diffeomorphism at s = +t and -t where t |grad(eta) . d| < 1 on the box;
    outside it J = 0.  The +t and -t points are interpolated in one call.
    """
    _check_support_interior(f, v)
    t = f.spacing**2
    sx = _support_nodes(v.center[0], v.radius, f.origin[0], f.spacing)
    sy = _support_nodes(v.center[1], v.radius, f.origin[1], f.spacing)
    xg, yg = np.meshgrid(f.xs[sx], f.ys[sy])
    pts = np.stack([xg, yg], axis=-1)
    eta, grad_eta = v._eta_and_gradient(pts)
    d = np.asarray(v.direction)
    if np.any(np.abs(t * (grad_eta @ d)) >= 1.0):
        raise InvalidStepError(f"step {t} makes the domain map non-diffeomorphic")
    step = t * (eta[..., None] * d)
    vals = bilinear_array(farr, f, np.stack([pts + step, pts - step]))
    return (embedded_energy(vals[0]).total - embedded_energy(vals[1]).total) / (2 * t)


@dataclass(frozen=True, eq=False)
class RangeVariation:
    """Retraction toward the level-k sites gated by the level distance cutoff.

    Refuses a level that `NestedBallChain.level` refuses, rho outside
    (0, sigma_k] and eps outside (0, sigma_0/10), and stores w_star as two
    ints.  The derivative checks that the companion fits the field and that
    every sheet under the cutoff stays within 2/5 sigma_k of its site; no
    check holds rho to the base node's tau*-dependent valid range, which
    `psi_k` enforces."""

    chain: NestedBallChain
    level: int
    rho: float
    eps: float
    w_star: tuple[int, int]

    def __post_init__(self):
        sigma, sigma0 = self.chain.level(self.level).sigma, self.chain.levels[0].sigma
        # an infinite sigma bounds nothing, and NaN fails every comparison
        if not (math.isfinite(self.rho) and 0.0 < self.rho <= sigma):
            raise InvalidInputError(f"rho = {self.rho} outside (0, sigma_k = {sigma}]")
        if not (math.isfinite(self.eps) and 0.0 < self.eps < sigma0 / 10):
            raise InvalidInputError(f"eps = {self.eps} outside (0, sigma_0/10 = {sigma0 / 10})")
        object.__setattr__(self, "w_star", (int(self.w_star[0]), int(self.w_star[1])))

    @property
    def sites(self) -> np.ndarray:
        return self.chain.levels[self.level].decomposition.sites

    @property
    def sigma(self) -> float:
        return self.chain.levels[self.level].sigma

    def retraction(self, y: np.ndarray) -> np.ndarray:
        """Gamma: pull y toward its nearest site inside the two-radius collar."""
        return self._retraction(y)[0]

    def _retraction(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """`retraction` and the distance from each point of y to its nearest site."""
        d = np.linalg.norm(y[..., None, :] - self.sites, axis=-1)
        j = np.argmin(d, axis=-1)
        s = np.take_along_axis(d, j[..., None], axis=-1)[..., 0]
        sigma = self.sigma
        if math.isinf(sigma):
            chi = np.ones_like(s)
        else:
            chi = 1.0 - _smoothstep((s - 0.4 * sigma) / (0.2 * sigma))
        return chi[..., None] * (self.sites[j] - y), s


def build_admissible_variation(
    chain: NestedBallChain,
    k: int,
    rho: float,
    eps: float,
    w_star: tuple[int, int],
    seed: int = 0,
) -> RangeVariation:
    """Assemble the level-k range variation and certify the retraction numerically.

    `RangeVariation` checks the structural parameter ranges.  The certificate
    samples LIP_SAMPLES two-point ratios |Gamma(y1) - Gamma(y2)| / |y1 - y2|
    around every site, pairs closer than 1e-12 sigma_k left out, against
    the retraction's own Lipschitz constant RETRACTION_LIPSCHITZ (plus 1e-6).
    Both the ratios and the constant are pure numbers, so the check does not
    depend on the field's scale.  The tests guard the constant, so the
    stationarity battery builds its variations without this certificate.
    """
    rv = RangeVariation(chain, k, rho, eps, w_star)
    if not math.isinf(rv.sigma):
        m, n = rv.sites.shape
        # site by site, its y1 offsets and then its y2 offsets
        z = np.random.default_rng(seed).normal(size=(m, 2, LIP_SAMPLES, n))
        y1 = rv.sites[:, None, :] + z[:, 0] * (0.4 * rv.sigma)
        y2 = y1 + z[:, 1] * (0.05 * rv.sigma)
        num = np.linalg.norm(np.subtract(*rv.retraction(np.stack([y1, y2]))), axis=-1)
        den = np.linalg.norm(y1 - y2, axis=-1)
        ok = den > 1e-12 * rv.sigma
        ratio = num[ok] / den[ok]
        if ratio.size and ratio.max() > RETRACTION_LIPSCHITZ + 1e-6:
            raise NumericalFailureError(
                f"sampled retraction Lipschitz ratio {ratio.max()} exceeds "
                f"the retraction's constant {RETRACTION_LIPSCHITZ}"
            )
    return rv


def cutoff_weights(f: GridField, comp: HarmonicCompanion, rv: RangeVariation) -> np.ndarray:
    """Nodal spatial-cutoff weights of the variation (zero on masked nodes).

    The clipped ramp is exactly 0 where rho - d* <= 0.  In floats
    d* = sqrt(G^2 + dh^2) is at least sqrt(dh^2), so a node with
    sqrt(dh^2) >= rho weighs 0, and d* is formed only on the other unmasked
    nodes, each the float `d_star` gives it.
    """
    _check_companion(f, comp)
    return _cutoff_weights(f, comp, rv)


def _cutoff_weights(f: GridField, comp: HarmonicCompanion, rv: RangeVariation) -> np.ndarray:
    """`cutoff_weights` for a companion already checked against f."""
    dh2 = np.abs(comp.values - comp.values[f.interior_node(rv.w_star)]) ** 2
    near = (np.sqrt(dh2) < rv.rho) & ~f.boundary_mask
    dst = _d_star_at(f, comp, rv.w_star, rv.level, rv.chain, near)
    lam = np.zeros(near.shape)
    lam[near] = _smoothstep((rv.rho - dst) / rv.eps)
    return lam


def range_variation_derivative(
    f: GridField,
    frame: ProjectionFrame,
    rv: RangeVariation,
    comp: HarmonicCompanion,
) -> float:
    """Central-difference derivative of the field's matched energy under the
    admissible range variation, with step t = h^2, whose cutoff measures d*
    with the companion ``comp``; the frame is only checked."""
    _check_companion(f, comp, frame)
    d = _range_derivative(f, rv, _cutoff_weights(f, comp, rv))
    return 0.0 if d is None else d


def _range_derivative(f: GridField, rv: RangeVariation, lam: np.ndarray) -> float | None:
    """`range_variation_derivative` for the cutoff weights lam, or None when
    lam * Gamma vanishes on every node, so the variation moves no sheet.

    Only nodes with lam > 0 move; they are off the masked rim, so the energy
    difference is that of the cells of their bounding box plus a one-node
    ring.  The box's edges are matched at +t and -t together, one `assign`
    call per axis, each cell the float a lone box would give.
    """
    active = lam > 0
    if not active.any():
        return None
    iy, ix = np.nonzero(active)
    box = np.s_[iy.min() - 1 : iy.max() + 2, ix.min() - 1 : ix.max() + 2]
    vals = f.values[box]
    gamma, nearest = rv._retraction(vals)
    if nearest[active[box]].max() > 0.4 * rv.sigma + 1e-9:
        raise NotInBallError(
            "a sheet under the cutoff leaves its 2/5-sigma site ball; "
            "shrink rho or use a finer level"
        )
    t = f.spacing**2
    bump = lam[box][..., None, None] * gamma
    if not bump.any():
        return None
    e_plus, e_minus = _match_edges(np.stack([vals + t * bump, vals - t * bump]))[2].per_cell
    return float(e_plus.sum() - e_minus.sum()) / (2 * t)


@dataclass(frozen=True)
class StationarityResidual:
    domain_max: float
    range_max: float
    energy: float
    domain_derivatives: tuple[float, ...]
    range_derivatives: tuple[float, ...]
    range_vacuous: int  # range trials that moved no sheet, kept out of the above

    @property
    def domain_trials(self) -> int:
        return len(self.domain_derivatives)

    @property
    def range_trials(self) -> int:
        return len(self.range_derivatives)

    def to_dict(self) -> dict:
        return {
            "domain_max": self.domain_max,
            "range_max": self.range_max,
            "energy": self.energy,
            "domain_derivatives": list(self.domain_derivatives),
            "range_derivatives": list(self.range_derivatives),
            "domain_trials": self.domain_trials,
            "range_trials": self.range_trials,
            "range_vacuous": self.range_vacuous,
        }


def stationarity_residual(
    f: GridField,
    frame: ProjectionFrame,
    trials: int,
    seed: int = 0,
) -> StationarityResidual:
    """Max |energy derivative| over ``trials`` random domain bumps and up to
    as many admissible range variations at sampled interior base nodes;
    ``trials`` must be a whole number, at least one.

    The range cutoffs read the field's harmonic companion.  While the
    companion `harmonic_companion` built last is still held by its caller
    and was built from this field's grid and values in a frame with the same
    first n directions, it is reused; otherwise one is built here.  Both
    give the same floats."""
    if not _is_count(trials, 1):
        raise InvalidInputError(
            f"stationarity_residual needs a whole number of trials, at least one, got {trials!r}"
        )
    # sampled base nodes keep this many nodes from the rim, per axis
    my, mx = max(3, f.ny // 8), max(3, f.nx // 8)
    if f.ny <= 2 * my or f.nx <= 2 * mx:
        raise InvalidInputError(
            f"stationarity_residual needs at least 7 nodes per axis, got {f.nx}x{f.ny}"
        )
    rng = np.random.default_rng(seed)
    comp = _companion_of(f, frame)
    farr = comp.hopf.embedded
    energy = comp.hopf.energy.total
    x_lo, x_hi, y_lo, y_hi = _grid_box(f, 1)
    span = min(x_hi - x_lo, y_hi - y_lo)

    domain_derivs: list[float] = []
    for _ in range(trials):
        rad = rng.uniform(0.1, 0.2) * span
        cx = rng.uniform(x_lo + rad * 1.05, x_hi - rad * 1.05)
        cy = rng.uniform(y_lo + rad * 1.05, y_hi - rad * 1.05)
        th = rng.uniform(0, 2 * math.pi)
        v = DomainVariation((cx, cy), rad, (math.cos(th), math.sin(th)))
        domain_derivs.append(_domain_derivative(f, farr, v))

    range_derivs: list[float] = []
    vacuous = attempts = 0
    while len(range_derivs) + vacuous < trials and attempts < 10 * trials:
        attempts += 1
        iy = int(rng.integers(my, f.ny - my))
        ix = int(rng.integers(mx, f.nx - mx))
        base = QPoint(f.values[iy, ix].copy())
        try:
            chain = nested_chain(base, angle_separated_frame(support(base)))
            piv = _pivot(f, comp, (iy, ix), chain)
        except InvalidInputError:
            continue
        if piv.tau <= 0:
            continue
        ranges = [piv.level(k) for k in range(piv.k0 + 1)]
        eps = piv.eps(ranges[0][1])
        for k, (lo, _, hi) in enumerate(ranges):
            try:
                rv = RangeVariation(chain, k, lo + 0.6 * (hi - lo), eps, (iy, ix))
                lam = _cutoff_weights(f, comp, rv)
                if not np.any(lam > 0):
                    continue  # cutoff support below grid resolution: nothing varied
                d = _range_derivative(f, rv, lam)
            except (InvalidInputError, NotInBallError):
                continue
            if d is None:
                vacuous += 1
            else:
                range_derivs.append(d)
    return StationarityResidual(
        max(map(abs, domain_derivs)), max(map(abs, range_derivs), default=0.0), energy,
        tuple(domain_derivs), tuple(range_derivs), vacuous,
    )
