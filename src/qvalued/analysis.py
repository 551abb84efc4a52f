"""Conformality diagnostics for planar Q-tuple fields.

The Hopf density is assembled from per-sheet central differences of the
field itself, whose stencil neighbours are paired with the center tuple by
the optimal edge matchings of `field._match_edges`, the matching the
minimiser and the matched energy use.  Plain differences of the sorted
embedding carry O(1) errors along sheet projection fold lines; the matched
form realises the almost-everywhere derivative, converges at second order
away from multiplicity points and does not depend on the projection frame.

The harmonic companion is the primitive of -phi/4 plus the conjugate
coordinate.  Samples whose stencil matching is degenerate (sheets closer
than the stencil increments) are censored and refilled by a local
holomorphic fit before integration; the primitive itself is recovered by a
least-squares potential solve so that residual integrability defects spread
instead of accumulating along integration paths.  Its Neumann grid
Laplacian is diagonalised by the tensor DCT-II basis, so the solve is a few
dense products in numpy.  The maximal plaquette circulation of the
integrated data is reported as the loop residual.

The cutoff rules of a base node (each level's rho range, the rungs' ramp
width and the checks of a rung) are methods of one pivot record, `_Pivot`,
which `psi_k`, both rho intervals, the ladder and the stationarity battery
read; every chain level goes through `NestedBallChain.level`.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .admissible import NestedBallChain, constants_block, delta_constant
from .embedding import ProjectionFrame
from .errors import InvalidInputError, NumericalFailureError
from .field import (
    DEFAULT_C_CL,
    EnergyBreakdown,
    GridField,
    _check_frame,
    _disc_cell_window,
    _DiscWindow,
    _grid_box,
    _match_edges,
    _neighbour_partners,
    _require_disc_inside,
    _slice_scan,
    bilinear_array,
    circle_points,
    embed_grid,
)
from .qspace import _union_classes, metric_g_many

#: dilation (in nodes) around degenerate-matching cores censored before integration
CENSOR_DILATION = 10
#: ring width (in nodes) of the holomorphic refit collar
REFIT_RING = 6
#: degree of the holomorphic polynomial refitted over each censored zone
REFIT_DEGREE = 2
#: points per axis at which each cutoff cell samples the bilinear d* reconstruction
PSI_SUBSAMPLES = 3
#: relative slack of the key-lemma oscillation bound
BOUND_SLACK = 0.05
#: relative ratio drop a monotonicity ladder tolerates before it records a violation
MONOTONE_TOLERANCE = 0.05


def _central_differences(a: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(d/du, d/dv) of a nodal array at the interior nodes."""
    return (a[1:-1, 2:] - a[1:-1, :-2]) / (2 * h), (a[2:, 1:-1] - a[:-2, 1:-1]) / (2 * h)


def _sum_sq(d: np.ndarray) -> np.ndarray:
    """Sum of squares along the last axis, the float `np.linalg.norm` takes
    the root of.  numpy adds fewer than 8 terms in order, so those are summed
    coordinate by coordinate; longer axes go through its own reduction."""
    if d.shape[-1] >= 8:
        return (d * d).sum(-1)
    out = d[..., 0] ** 2
    for k in range(1, d.shape[-1]):
        out += d[..., k] ** 2
    return out


@dataclass(eq=False)
class HopfField:
    """Hopf density per node on the matched edges (rim replicated), with
    what `hopf_differential` built it from: the field's values, the frame,
    its embedding (for the slice scan and domain trials) and the matched
    energy per cell.  Those four are None on a density given directly, which
    no field diagnostic accepts.  Every array it puts here is read-only."""

    phi: np.ndarray            # (ny, nx) complex
    degenerate: np.ndarray     # (ny, nx) bool: stencil matching ill-conditioned
    spacing: float
    origin: tuple[float, float]
    values: np.ndarray | None = None        # (ny, nx, Q, n) read-only copy of the field's values
    frame: ProjectionFrame | None = None
    embedded: np.ndarray | None = None      # (ny, nx, n*Q) read-only embed_grid(f, frame)
    energy: EnergyBreakdown | None = None   # dirichlet_energy_matched(f)

    @property
    def interior(self) -> np.ndarray:
        return self.phi[1:-1, 1:-1]

    def zgrid(self) -> np.ndarray:
        ny, nx = self.phi.shape
        xs = self.origin[0] + self.spacing * np.arange(nx)
        ys = self.origin[1] + self.spacing * np.arange(ny)
        return xs[None, :] + 1j * ys[:, None]


def hopf_differential(f: GridField, frame: ProjectionFrame) -> HopfField:
    """Hopf density of the field from central differences on the edge
    matchings of `_match_edges`, each neighbour's sheets paired with the
    node's by `_neighbour_partners`.  phi and the energy of those matchings
    (`dirichlet_energy_matched`) do not read the frame, so every frame gives
    the same floats.  The embedding `embed_grid(f, frame)`, which only the
    certificate's slice scan and the battery's domain trials read, is kept
    on the result with the frame and a copy of the values, so that they
    embed nothing again; tau*, d* and the pivot read G of the values.

    Sheets move as whole rows of the (nodes * Q, n) view of the values, row
    node * Q + sheet, one `np.take` per neighbour.  The degenerate test takes
    one square root of the minimum and of the maximum squared distance
    (`_sum_sq`): sqrt is monotone and correctly rounded, so those are the
    floats the minimum and maximum of the norms give."""
    if f.nx < 3 or f.ny < 3:
        raise InvalidInputError("need interior nodes to form central differences")
    farr = embed_grid(f, frame)
    v = f.values
    ny, nx, q, n = v.shape
    px, py, energy = _match_edges(v)
    rows = v.reshape(-1, n)
    iy, ix = np.ogrid[1 : ny - 1, 1 : nx - 1]
    node = q * (iy * nx + ix)[..., None]
    c = v[1:-1, 1:-1]
    south, west, east, north = (
        np.take(rows, node + q * (dy * nx + dx) + partner, axis=0)
        for (dy, dx), partner in _neighbour_partners(px, py, iy, ix)
    )
    du, dv = (east - west) / (2 * f.spacing), (north - south) / (2 * f.spacing)
    uu = np.einsum("...qa,...qa->...", du, du)
    vv = np.einsum("...qa,...qa->...", dv, dv)
    phi_int = uu - vv - 2j * np.einsum("...qa,...qa->...", du, dv)

    # at Q = 1 no pair lowers dmin2 from inf, so no node is degenerate
    dmin2 = np.full(c.shape[:2], np.inf)
    for i in range(q):
        for j in range(i + 1, q):
            dmin2 = np.minimum(dmin2, _sum_sq(c[:, :, i] - c[:, :, j]))
    inc2 = np.zeros(c.shape[:2])
    for nb in (east, west, north, south):
        sq = _sum_sq(nb - c)
        for k in range(q):
            inc2 = np.maximum(inc2, sq[..., k])
    phi = np.pad(phi_int, 1, mode="edge")
    core = np.zeros((ny, nx), dtype=bool)
    core[1:-1, 1:-1] = np.sqrt(dmin2) <= 8.0 * np.sqrt(inc2)
    values = v.copy()
    for a in (phi, core, values, farr, energy.per_cell):
        a.flags.writeable = False
    return HopfField(phi, core, f.spacing, f.origin, values, frame, farr, energy)


def holomorphy_residual(hopf: HopfField) -> float:
    """Discrete L2 norm of the conjugate-derivative of phi over interior nodes."""
    h = hopf.spacing
    du, dv = _central_differences(hopf.phi, h)
    dzbar = 0.5 * (du + 1j * dv)
    return float(np.sqrt((np.abs(dzbar) ** 2).sum() * h * h))


def plaquette_defects(hopf: HopfField) -> np.ndarray:
    """Trapezoid circulation of phi around each grid plaquette."""
    phi = hopf.phi
    h = hopf.spacing
    a = phi[:-1, :-1]
    b = phi[:-1, 1:]
    c = phi[1:, 1:]
    d = phi[1:, :-1]
    return (h / 2) * ((a + b) + 1j * (b + c) - (d + c) - 1j * (a + d))


def _dilate(mask: np.ndarray, steps: int) -> np.ndarray:
    """Nodes within L1 distance `steps` of the mask: `steps` cross dilations
    with nothing beyond the grid."""
    out = mask
    for _ in range(steps):
        grown = out.copy()
        grown[1:] |= out[:-1]
        grown[:-1] |= out[1:]
        grown[:, 1:] |= out[:, :-1]
        grown[:, :-1] |= out[:, 1:]
        out = grown
    return out


def _blobs(mask: np.ndarray) -> list[np.ndarray]:
    """4-connected components of the mask, one boolean mask each."""
    nodes = np.flatnonzero(mask)
    compact = np.full(mask.shape, -1)
    compact.flat[nodes] = np.arange(nodes.size)
    pairs = []
    for a, b in ((compact[:, :-1], compact[:, 1:]), (compact[:-1], compact[1:])):
        both = (a >= 0) & (b >= 0)
        pairs += zip(a[both].tolist(), b[both].tolist())
    blobs = []
    for members in _union_classes(nodes.size, pairs):
        blob = np.zeros(mask.shape, dtype=bool)
        blob.flat[nodes[members]] = True
        blobs.append(blob)
    return blobs


def _censor_refit(hopf: HopfField) -> tuple[np.ndarray, np.ndarray]:
    """Replace the censored zone by a local holomorphic polynomial fit of
    degree REFIT_DEGREE.

    Each blob's fit reads only `phi` and writes only the blob, so the blob
    order does not change the result.
    """
    phi = hopf.phi
    bad = _dilate(hopf.degenerate, CENSOR_DILATION)
    out = phi.copy()
    z = hopf.zgrid()
    for blob in _blobs(bad):
        ring = _dilate(blob, REFIT_RING) & ~bad
        if ring.sum() < 3 * (REFIT_DEGREE + 1):
            ring = ~bad
        if not ring.any():
            continue  # no clean samples anywhere: leave the raw values in place
        zc = z[blob].mean()
        scale = max(float(np.abs(z[ring] - zc).max()), hopf.spacing)
        t = (z[ring] - zc) / scale
        vand = np.stack([t**p for p in range(REFIT_DEGREE + 1)], axis=1)
        coef, *_ = np.linalg.lstsq(vand, phi[ring], rcond=None)
        tin = (z[blob] - zc) / scale
        out[blob] = np.stack([tin**p for p in range(REFIT_DEGREE + 1)], axis=1) @ coef
    return out, bad


@dataclass(eq=False)
class HarmonicCompanion:
    """Companion h = psi + conj(z), its diagnostics and the Hopf field it
    integrates.  The central differences of h, |grad h|^2 and ``cell_energy``,
    its cell averages times the cell area, are formed once, read-only; the
    augmented map (f, h) has energy ``hopf.energy.per_cell + cell_energy`` on
    the cells.  `harmonic_companion` makes ``values`` and ``patched``
    read-only, so a companion cannot drift from the field it was built on."""

    values: np.ndarray        # (ny, nx) complex
    path_residual: float      # max plaquette circulation of the integrated data
    patched: np.ndarray       # (ny, nx) bool: censored-and-refilled samples
    hopf: HopfField

    def __post_init__(self):
        self._diffs = _central_differences(self.values, self.hopf.spacing)
        hu, hv = self._diffs
        g = self._grad_sq = np.pad(np.abs(hu) ** 2 + np.abs(hv) ** 2, 1, mode="edge")
        area = self.hopf.spacing**2
        self.cell_energy = (g[:-1, :-1] + g[:-1, 1:] + g[1:, :-1] + g[1:, 1:]) / 4 * area
        g.flags.writeable = self.cell_energy.flags.writeable = False

    def grad_sq(self) -> np.ndarray:
        """Nodal squared gradient |grad h|^2 (rim replicated), read-only."""
        return self._grad_sq

    def energy_identity_error(self) -> np.ndarray:
        """| |grad h|^2 - |phi|^2/8 - 2 | at the interior nodes.  With
        dh/dz = -phi/4 and dh/dzbar = 1, |grad h|^2 = 2(|dh/dz|^2 + |dh/dzbar|^2)
        is |phi|^2/8 + 2, so this is the identity's discretisation error."""
        return np.abs(self._grad_sq[1:-1, 1:-1] - np.abs(self.hopf.interior) ** 2 / 8 - 2.0)

    def hopf_term(self) -> np.ndarray:
        """Hopf density of h alone, from central differences (rim replicated)."""
        hu, hv = self._diffs
        term = (np.abs(hu) ** 2 - np.abs(hv) ** 2) - 2j * (
            hu.real * hv.real + hu.imag * hv.imag
        )
        return np.pad(term, 1, mode="edge")


@functools.lru_cache(maxsize=4)
def _dct_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II basis (columns) of R^m and the eigenvalues
    4 sin^2(pi k / 2m) of the free-end path Laplacian it diagonalises.
    Read-only, since the cache hands the same arrays to every caller."""
    k = np.arange(m)
    basis = np.sqrt(2.0 / m) * np.cos(np.pi * np.outer(k + 0.5, k) / m)
    basis[:, 0] = np.sqrt(1.0 / m)
    eig = 4.0 * np.sin(np.pi * k / (2 * m)) ** 2
    basis.flags.writeable = eig.flags.writeable = False
    return basis, eig


def _lsq_potential(phi: np.ndarray, h: float) -> np.ndarray:
    """Least-squares primitive of -phi/4 over the grid graph (gauge: psi[0] = 0).

    The normal equations are the Neumann grid Laplacian, the Kronecker sum
    of two free-end path Laplacians, which the tensor DCT-II basis
    diagonalises (fast diagonalisation: Lynch, Rice & Thomas, Numer. Math. 6,
    1964; Strang, SIAM Review 41, 1999).  The divergence of the edge data
    sums to zero, so dropping the constant mode leaves the mean-free
    solution, which the gauge then shifts.  The real and imaginary parts go
    through the same dense transforms, O(m^3) flops and m^2 floats per axis
    of m nodes, which stays cheap up to about 1025^2 grids.
    """
    ny, nx = phi.shape
    gx = -(h / 8) * (phi[:, :-1] + phi[:, 1:])  # trapezoid edge increments of -phi/4
    gy = -(1j * h / 8) * (phi[:-1] + phi[1:])
    div = np.zeros(phi.shape, dtype=complex)
    div[:, 1:] += gx
    div[:, :-1] -= gx
    div[1:] += gy
    div[:-1] -= gy
    cy, ly = _dct_basis(ny)
    cx, lx = _dct_basis(nx)
    eig = ly[:, None] + lx[None, :]
    eig[0, 0] = 1.0
    hat = cy.T @ np.stack([div.real, div.imag]) @ cx / eig
    hat[:, 0, 0] = 0.0
    re, im = cy @ hat @ cx.T
    psi = re + 1j * im
    return psi - psi[0, 0]


#: the companion `harmonic_companion` built last from a field's Hopf field,
#: held weakly so that it lives no longer than its caller keeps it
_last_companion: weakref.ref | None = None


def harmonic_companion(hopf: HopfField) -> HarmonicCompanion:
    """Companion h = psi + conj(z) with psi a primitive of -phi/4.

    Degenerate samples are censored and refitted with a local holomorphic
    polynomial, and psi is recovered by a least-squares potential solve.
    A companion of a Hopf field built from a field is remembered weakly, so
    that `stationarity_residual` can reuse it while its caller holds it.
    """
    global _last_companion
    phi_used, patched = _censor_refit(hopf)
    psi = _lsq_potential(phi_used, hopf.spacing)
    residual = float(np.abs(plaquette_defects(replace(hopf, phi=phi_used))).max())
    values = psi + np.conj(hopf.zgrid())
    if not np.all(np.isfinite(values)):
        raise NumericalFailureError("companion integration produced non-finite values")
    values.flags.writeable = patched.flags.writeable = False
    comp = HarmonicCompanion(values, residual, patched, hopf)
    if hopf.values is not None:
        _last_companion = weakref.ref(comp)
    return comp


def _check_companion(
    f: GridField, comp: HarmonicCompanion, frame: ProjectionFrame | None = None
) -> None:
    """Raise unless the companion was built on the field's grid from values
    equal to the field's and, when a frame is given, in a frame with the same
    first n directions, all that the embedding it carries reads."""
    hopf = comp.hopf
    if (hopf.phi.shape, hopf.spacing, hopf.origin) != ((f.ny, f.nx), f.spacing, f.origin):
        raise InvalidInputError("companion grid does not match the field")
    if hopf.values is None or not np.array_equal(hopf.values, f.values):
        raise InvalidInputError("companion was not built from the field's values")
    if frame is not None:
        _check_frame(f, frame)
        if not np.array_equal(hopf.frame.directions[: f.n], frame.directions[: f.n]):
            raise InvalidInputError("companion was built in another frame")


def _companion_of(f: GridField, frame: ProjectionFrame) -> HarmonicCompanion:
    """The companion `harmonic_companion` built last, while it is alive and
    `_check_companion` accepts it for f in frame; otherwise a new one.  The
    check compares all that the companion's floats were computed from, so
    either way the companion gives the same floats."""
    comp = _last_companion() if _last_companion is not None else None
    if comp is not None:
        try:
            _check_companion(f, comp, frame)
            return comp
        except InvalidInputError:
            pass
    return harmonic_companion(hopf_differential(f, frame))


def conformality_defect(f: GridField, comp: HarmonicCompanion) -> float:
    """Discrete L2 norm of the Hopf density of the augmented map (field, h)."""
    _check_companion(f, comp)
    phi_g = comp.hopf.phi + comp.hopf_term()
    h = f.spacing
    return float(np.sqrt((np.abs(phi_g[1:-1, 1:-1]) ** 2).sum() * h * h))


def _rim_distance(f: GridField, w: tuple[float, float]) -> float:
    """Radius of the largest disc centred at w inside the grid rectangle."""
    x0, x1, y0, y1 = _grid_box(f, 0)
    return min(w[0] - x0, x1 - w[0], w[1] - y0, y1 - w[1])


def d_star(
    f: GridField,
    comp: HarmonicCompanion,
    w_star: tuple[int, int],
    k: int,
    chain: NestedBallChain,
) -> np.ndarray:
    """Level-k augmented distance field sqrt(G(q_k, f)^2 + |h(w*) - h|^2)."""
    _check_companion(f, comp)
    return _d_star_at(f, comp, w_star, k, chain, np.s_[:, :])


def _check_chain(f: GridField, chain: NestedBallChain) -> None:
    """Raise unless the chain's tuples have the field's (Q, n)."""
    dec = chain.levels[0].decomposition
    if (dec.q, dec.n) != f.values.shape[2:]:
        raise InvalidInputError(
            f"chain of (Q, n) = {(dec.q, dec.n)} does not match the field's {f.values.shape[2:]}"
        )


def _d_star_at(f: GridField, comp: HarmonicCompanion, w_star, k: int,
               chain: NestedBallChain, nodes) -> np.ndarray:
    """`d_star` at the grid's ``nodes`` (a window of slices, a mask or index
    arrays), each the float of the full grid: `assign` is the same in any batch."""
    iy, ix = f.interior_node(w_star)
    lv = chain.level(k)
    _check_chain(f, chain)
    qk = lv.decomposition.rebuild().points
    dh2 = np.abs(comp.values[nodes] - comp.values[iy, ix]) ** 2
    return np.sqrt(metric_g_many(qk, f.values[nodes]) ** 2 + dh2)


def tau_star(f: GridField, frame: ProjectionFrame, w_star: tuple[int, int],
             w0: tuple[float, float], r: float) -> float:
    """Least assignment distance G to f(w*) over the circle of radius r about
    w0, read as `_circle_min` reads it; the frame is checked against the
    field's (Q, n) and read no further."""
    _check_frame(f, frame)
    return _tau_star(f, w_star, w0, r)


def _tau_star(f: GridField, w_star, w0, r) -> float:
    base = f.values[f.interior_node(w_star)]
    return _circle_min(f, w0, r, lambda nodes: metric_g_many(base, f.values[nodes]))


def _circle_min(f: GridField, w0, r, distance) -> float:
    """Least over `circle_points(w0, r)` of the bilinear interpolant of a nodal
    distance, which ``distance(nodes)`` gives in one batch at the (rows,
    columns) index arrays of the corners of the cells the points fall in."""
    _require_disc_inside(f, w0, r)
    pts = circle_points(w0, r, f.spacing)
    cell = np.clip(np.floor((pts - f.origin) / f.spacing).astype(np.intp), 0, (f.nx - 2, f.ny - 2))
    corners = np.zeros(f.ny * f.nx, dtype=bool)
    corners[(cell[:, 1] * f.nx + cell[:, 0])[:, None] + (0, 1, f.nx, f.nx + 1)] = True
    nodes = np.unravel_index(np.flatnonzero(corners), (f.ny, f.nx))
    nodal = np.zeros((f.ny, f.nx, 1))
    nodal[nodes] = distance(nodes)[:, None]
    return float(bilinear_array(nodal, f, pts).min())


class _Pivot(NamedTuple):
    """A base node's cutoff rules, with what they read: the field, its
    companion, the chain and the interior node; the cutoff disc (the largest
    one centred on the node), tau* on its circle and the pivot level k0."""
    f: GridField
    comp: HarmonicCompanion
    chain: NestedBallChain
    node: tuple[int, int]
    w0: tuple[float, float]
    r: float
    tau: float
    k0: int

    def level(self, k: int) -> tuple[float, float, float]:
        """(rho_k, valid hi, monotone hi) of level k; see `valid_rho_interval`
        and `monotone_rho_interval`.  Where tau* or sigma_k bounds nothing,
        hi is 2/5 of the `_circle_min` of d*_k on the disc's circle."""
        lv = self.chain.level(k)
        if k > self.k0:
            raise InvalidInputError(f"level {k} beyond the pivot level k0 = {self.k0}")
        hi = lv.sigma if k < self.k0 else 0.4 * min(self.tau, lv.sigma)
        if not hi > 0 or math.isinf(hi):
            hi = 0.4 * _circle_min(self.f, self.w0, self.r, functools.partial(
                _d_star_at, self.f, self.comp, self.node, k, self.chain))
        return lv.rho, hi, 0.4 * hi if k < self.k0 else hi

    def eps(self, hi0: float) -> float:
        """Ramp width of the rungs at the node: min(sigma_0, tau*)/20, or with
        tau* = 0 2.5 hi0/20, hi0 level 0's valid hi: half `check_rung`'s cap."""
        return (min(self.chain.levels[0].sigma, self.tau) if self.tau > 0 else 2.5 * hi0) / 20

    def check_rung(self, k: int, hi: float, rho: float, eps: float) -> None:
        """Raise unless rho lies in (0, hi) and eps in (0, its cap) at level k."""
        if not 0.0 < rho < hi:
            raise InvalidInputError(
                f"rho = {rho} outside the valid interval (0, {hi}) for level {k} (k0 = {self.k0})"
            )
        eps_cap = min(self.chain.levels[0].sigma, self.tau) / 10 if self.tau > 0 else hi / 4
        if not (math.isfinite(eps) and 0 < eps < eps_cap):
            raise InvalidInputError(f"ramp width eps = {eps} outside (0, {eps_cap})")


def _pivot(f: GridField, comp: HarmonicCompanion, w_star, chain: NestedBallChain) -> _Pivot:
    """The cutoff disc, tau* on its circle and the pivot level k0.  k0 is the
    largest level with 10 Q rho_k strictly below tau* (0 if none), or the
    chain depth when tau* = 0."""
    _check_chain(f, chain)
    node = f.interior_node(w_star)
    w0 = tuple(f.node_position(node).tolist())
    r = _rim_distance(f, w0)
    tau = _tau_star(f, w_star, w0, r)
    k0 = chain.depth
    if tau > 0:
        q = chain.q_sheets
        k0 = max((k for k, lv in enumerate(chain.levels) if 10 * q * lv.rho < tau), default=0)
    return _Pivot(f, comp, chain, node, w0, r, tau, k0)


def valid_rho_interval(
    f: GridField,
    comp: HarmonicCompanion,
    frame: ProjectionFrame,
    w_star: tuple[int, int],
    k: int,
    chain: NestedBallChain,
) -> tuple[float, float, int, float]:
    """(lo, hi, k0, tau*) for the level-k cutoff parameter on the largest
    disc centred on the base node w_star.

    ``hi`` is sigma_k below the pivot level and (2/5) min(tau*, sigma_k0) at
    it; ``lo`` is rho_k, the inner radius where the monotonicity statement
    starts.  Levels beyond k0 have no valid range.  When the base value is
    not separated from the circle values (tau* = 0, e.g. a constant field)
    the augmented circle distance replaces tau* so cutoffs stay compactly
    supported in the disc.
    """
    _check_companion(f, comp, frame)
    piv = _pivot(f, comp, w_star, chain)
    lo, hi, _ = piv.level(k)
    return lo, hi, piv.k0, piv.tau


def monotone_rho_interval(
    f: GridField,
    comp: HarmonicCompanion,
    frame: ProjectionFrame,
    w_star: tuple[int, int],
    k: int,
    chain: NestedBallChain,
) -> tuple[float, float]:
    """(rho_k, 2/5 sigma_k) below the pivot, the pivot's full valid range at it,
    on the largest disc centred on the base node w_star.

    This is the interval on which the ratio psi_k(rho)/rho^2 is asserted to
    be nondecreasing; it is narrower than psi_k's validity below the pivot.
    """
    _check_companion(f, comp, frame)
    lo, _, hi = _pivot(f, comp, w_star, chain).level(k)
    return lo, hi


def _smoothstep(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def _cutoff_cells(comp: HarmonicCompanion, disc: _DiscWindow) -> np.ndarray:
    """The disc cells' energies of the augmented map (f, h): f's matched
    energy plus the companion's, the cells the key lemma sums."""
    return disc.cells(comp.hopf.energy.per_cell) + disc.cells(comp.cell_energy)


class _LevelCutoff:
    """Cutoff-weighted disc energies of one level's distance field.

    Each disc cell samples the bilinear reconstruction of d* at
    ``PSI_SUBSAMPLES`` points per axis.  The samples depend on the level and
    the disc, not on rho or eps, so they are built once and shared by the
    rungs.  At a rung, a cell whose samples all have (rho - d*)/eps >= 1 is
    saturated and weighs 1; one whose samples all have (rho - d*)/eps <= 0
    weighs 0; only the cells between, the transition band, go through the
    ramp.  The clipped ramp is exactly 1 and 0 beyond those ends, so every
    weight is the ramp's average over the cell's samples.  ``dst`` is d* on
    the disc's node window, ``energy`` the disc cells' `_cutoff_cells`.
    """

    def __init__(self, dst: np.ndarray, disc: _DiscWindow, energy: np.ndarray):
        c00, c01 = dst[:-1, :-1][disc.inside], dst[:-1, 1:][disc.inside]
        c10, c11 = dst[1:, :-1][disc.inside], dst[1:, 1:][disc.inside]
        t = [(a + 0.5) / PSI_SUBSAMPLES for a in range(PSI_SUBSAMPLES)]
        self.samples = np.stack([  # (PSI_SUBSAMPLES^2, disc cells)
            c00 * (1 - ta) * (1 - tb) + c01 * ta * (1 - tb) + c10 * (1 - ta) * tb + c11 * ta * tb
            for ta in t for tb in t
        ])
        self.d_min = self.samples.min(axis=0)
        self.d_max = self.samples.max(axis=0)
        self.energy = energy

    def psi(self, rho: float, eps: float) -> float:
        """Disc sum of weight * cell energy at the rung (rho, eps); with every
        weight 1 it is the key lemma's augmented disc energy."""
        full = (rho - self.d_max) / eps >= 1.0
        band = ((rho - self.d_min) / eps > 0.0) & ~full
        weight = full.astype(np.float64)
        ramp = _smoothstep((rho - self.samples[:, band]) / eps)
        # summed sample by sample, in the order a full-grid accumulation adds them
        weight[band] = sum(ramp) / PSI_SUBSAMPLES**2
        return float((weight * self.energy).sum())


def psi_k(
    f: GridField,
    comp: HarmonicCompanion,
    frame: ProjectionFrame,
    w_star: tuple[int, int],
    k: int,
    chain: NestedBallChain,
    rho: float,
    eps: float,
) -> float:
    """Cutoff-weighted disc energy of the augmented map at level k.

    Integrates lambda(rho - d*_k) |grad G|^2 over the largest disc centred on
    the base node w_star with a quintic ramp of width eps, after checking rho
    and eps against the level's valid range; a cell's |grad G|^2 is the
    augmented energy the key lemma sums (`_cutoff_cells`).  The ramp is
    evaluated on a subsampled bilinear reconstruction of d* inside each disc
    cell (``PSI_SUBSAMPLES`` per axis) so that cutoff layers thinner than a
    cell are still integrated consistently; cells wholly inside the cutoff
    count their full energy and only the transition band goes through the ramp.
    """
    _check_companion(f, comp, frame)
    piv = _pivot(f, comp, w_star, chain)
    _, hi, _ = piv.level(k)
    piv.check_rung(k, hi, rho, eps)
    disc = _disc_cell_window(f, piv.w0, piv.r)
    dst = _d_star_at(f, comp, w_star, k, chain, disc.nodes)
    return _LevelCutoff(dst, disc, _cutoff_cells(comp, disc)).psi(rho, eps)


@dataclass(frozen=True)
class LadderRow:
    rho: float
    psi: float
    ratio: float


@dataclass(eq=False)
class MonotonicityReport:
    levels: dict[int, list[LadderRow]]
    k0: int
    tau_star: float
    violations: list[tuple[int, float, float]]  # (level, rho_s, rho_t) with ratio drop
    constants: dict

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def vacuous(self) -> bool:
        """Every psi on every level is 0, so the ratio check compared zeros."""
        return all(row.psi == 0 for rows in self.levels.values() for row in rows)

    def to_dict(self) -> dict:
        return {
            "k0": self.k0,
            "tau_star": self.tau_star,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "tolerance": MONOTONE_TOLERANCE,
            "constants": self.constants,
            "levels": {
                str(k): [{"rho": r.rho, "psi": r.psi, "ratio": r.ratio} for r in rows]
                for k, rows in self.levels.items()
            },
            "violations": [
                {"level": k, "rho_s": s, "rho_t": t} for (k, s, t) in self.violations
            ],
        }


def monotonicity_report(
    f: GridField,
    comp: HarmonicCompanion,
    frame: ProjectionFrame,
    w_star: tuple[int, int],
    chain: NestedBallChain,
    ladder: np.ndarray | None = None,
) -> MonotonicityReport:
    """Evaluate psi_k(rho)/rho^2 ladders for every level up to the pivot, on
    the largest disc centred on the base node w_star.

    ``ladder`` holds fractions of each level's valid interval (default ten
    points from 0.35 to 0.95; an empty ladder is refused).  A pair s < t
    with ratio(s) > ratio(t)(1 + MONOTONE_TOLERANCE) is recorded as a
    violation.  The pivot and the disc cells' augmented energies are
    computed once, and each level's d* on the disc's node window and its
    reconstruction once per level.  The rungs share them, evaluate the ramp
    on the transition band alone and still pass the range checks of `psi_k`,
    so each row equals a standalone `psi_k` call.
    """
    if ladder is None:
        ladder = np.linspace(0.35, 0.95, 10)
    ladder = np.asarray(ladder, dtype=np.float64)
    if ladder.size == 0:
        raise InvalidInputError("the ladder has no fractions")
    if not np.all((ladder > 0) & (ladder < 1)):
        raise InvalidInputError("ladder fractions must lie strictly inside (0, 1)")
    _check_companion(f, comp, frame)
    piv = _pivot(f, comp, w_star, chain)
    ranges = [piv.level(k) for k in range(piv.k0 + 1)]
    eps = piv.eps(ranges[0][1])
    disc = _disc_cell_window(f, piv.w0, piv.r)
    energy = _cutoff_cells(comp, disc)
    levels: dict[int, list[LadderRow]] = {}
    violations: list[tuple[int, float, float]] = []
    for k, (lo, hi, mono_hi) in enumerate(ranges):
        dst = _d_star_at(f, comp, w_star, k, chain, disc.nodes)
        level = _LevelCutoff(dst, disc, energy)
        rows = []
        for rho in lo + (mono_hi - lo) * ladder:
            piv.check_rung(k, hi, rho, eps)
            val = level.psi(rho, eps)
            rows.append(LadderRow(float(rho), float(val), float(val / rho**2)))
        levels[k] = rows
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i].ratio > rows[j].ratio * (1 + MONOTONE_TOLERANCE) + 1e-15:
                    violations.append((k, rows[i].rho, rows[j].rho))
    constants = constants_block(f.n, f.q_sheets)
    return MonotonicityReport(levels, piv.k0, piv.tau, violations, constants)


def key_lemma_check(
    f: GridField,
    comp: HarmonicCompanion,
    w_star: tuple[int, int],
    r: float,
    frame: ProjectionFrame,
) -> tuple[float, float, bool]:
    """Oscillation bound: the least assignment distance G to f(w*) over the
    circle of radius r centred on the base node (`_tau_star`) vs the
    augmented energy of its disc.

    Returns (lhs, rhs, lhs <= rhs * (1 + BOUND_SLACK)).  A disc that holds
    no cell is refused, since both sides would be 0 and the bound vacuous.
    """
    _check_companion(f, comp, frame)
    w0 = tuple(f.node_position(f.interior_node(w_star)).tolist())
    lhs = _tau_star(f, w_star, w0, r)
    disc = _disc_cell_window(f, w0, r)
    if not disc.inside.any():
        raise InvalidInputError(f"the disc of radius {r} holds no grid cell")
    e_f = disc.sum(comp.hopf.energy.per_cell)
    e_h = disc.sum(comp.cell_energy)
    delta = delta_constant(f.n, f.q_sheets)
    rhs = math.sqrt((e_f + e_h) / (2 * math.pi * delta))
    return lhs, rhs, lhs <= rhs * (1 + BOUND_SLACK)


@dataclass(frozen=True)
class ContinuityCertificate:
    alpha1: float
    alpha2: float
    beta: float
    modulus: float
    slice_radius: float
    slice_osc: float
    c_r0: float
    radius: float

    def to_dict(self) -> dict:
        return {
            "R": self.radius,
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "beta": self.beta,
            "modulus": self.modulus,
            "slice_radius": self.slice_radius,
            "slice_osc": self.slice_osc,
            "C_R0": self.c_r0,
        }


def continuity_certificate(
    f: GridField,
    frame: ProjectionFrame,
    w: tuple[float, float],
    radius: float,
    comp: HarmonicCompanion,
) -> ContinuityCertificate:
    """Continuity modulus at w from the slice bound and the oscillation bound.

    alpha1 = DEFAULT_C_CL sqrt(E_R) bounds the best circle oscillation by the
    disc energy; C_R0 is the mean energy density on the largest disc about w
    inside the grid; beta controls the energy of the companion ``comp``
    independently of the frame choice; alpha2 feeds both into the
    oscillation bound; the modulus is 4 max(a1, a2).
    """
    _require_disc_inside(f, w, radius)
    _check_companion(f, comp, frame)
    r0 = _rim_distance(f, w)
    slice_r, slice_osc = _slice_scan(f, comp.hopf.embedded, w, radius)
    per_cell = comp.hopf.energy.per_cell
    disc = _disc_cell_window(f, w, radius)
    e_r = disc.sum(per_cell)
    alpha1 = DEFAULT_C_CL * math.sqrt(e_r)
    c_r0 = _disc_cell_window(f, w, r0).sum(per_cell) / (math.pi * r0**2)
    e_h = disc.sum(comp.cell_energy)
    beta = e_h + 2 * math.pi * c_r0**2 * radius**2 + 2 * c_r0 * e_r
    delta = delta_constant(f.n, f.q_sheets)
    alpha2 = (math.sqrt(e_r) + math.sqrt(beta)) / math.sqrt(2 * math.pi * delta)
    return ContinuityCertificate(
        alpha1, alpha2, beta, 4 * max(alpha1, alpha2), slice_r, slice_osc, c_r0, radius
    )
