"""Discretised Q-tuple fields on rectangular 2-D grids.

The Dirichlet energy is cell-integrated from the four edge differences of
the embedded field (each axis difference averaged over the cell's two
parallel edges); the matched variant replaces the embedded edge difference
by the assignment distance on the same stencil, so the two agree exactly
whenever the per-axis sorted matchings realise the optimal matchings.

Minimisation alternates per-edge optimal matchings with an exact minimiser
of the quadratic they freeze: one sparse LU solve of the weighted graph
Laplacian on (node, sheet) vertices, with the masked nodes held fixed.  The
frozen quadratic majorises the matched energy and touches it at the current
field, so each outer iteration is a descent step and the iteration is
monotone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .embedding import ProjectionFrame
from .qspace import QPoint, assign, metric_g_many, project_sheets

#: circle-slice constant of the certificate's alpha1 (the classical Courant-Lebesgue shape)
DEFAULT_C_CL = math.sqrt(4.0 * math.pi / math.log(2.0))
#: disc nodes beyond which `disc_oscillation` draws a seeded random subset
OSC_MAX_NODES = 400
OSC_SEED = 0


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    spacing: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidInputError("grid needs at least 2 nodes per axis")
        if self.spacing <= 0:
            raise InvalidInputError("spacing must be positive")


@dataclass(eq=False)
class GridField:
    """Node values (ny, nx, Q, n) with spacing, origin and a Dirichlet mask.

    ``boundary_mask`` is True where node values are fixed; the grid rim must
    always be masked.  Node (iy, ix) sits at origin + (ix*h, iy*h).
    """

    values: np.ndarray
    spacing: float
    origin: tuple[float, float] = (0.0, 0.0)
    boundary_mask: np.ndarray | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 4:
            raise InvalidInputError("values must have shape (ny, nx, Q, n)")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("field values must be finite")
        if self.spacing <= 0:
            raise InvalidInputError("spacing must be positive")
        self.values = vals
        ny, nx = vals.shape[:2]
        if self.boundary_mask is None:
            mask = np.zeros((ny, nx), dtype=bool)
            mask[0, :] = mask[-1, :] = True
            mask[:, 0] = mask[:, -1] = True
        else:
            mask = np.asarray(self.boundary_mask, dtype=bool)
            if mask.shape != (ny, nx):
                raise InvalidInputError("boundary_mask shape must match the grid")
            if not (mask[0].all() and mask[-1].all() and mask[:, 0].all() and mask[:, -1].all()):
                raise InvalidInputError("boundary_mask must be True on the grid rim")
        self.boundary_mask = mask
        self.origin = (float(self.origin[0]), float(self.origin[1]))

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def q_sheets(self) -> int:
        return self.values.shape[2]

    @property
    def n(self) -> int:
        return self.values.shape[3]

    @property
    def xs(self) -> np.ndarray:
        return self.origin[0] + self.spacing * np.arange(self.nx)

    @property
    def ys(self) -> np.ndarray:
        return self.origin[1] + self.spacing * np.arange(self.ny)

    def node_position(self, node: tuple[int, int]) -> np.ndarray:
        iy, ix = node
        return np.array([self.origin[0] + ix * self.spacing, self.origin[1] + iy * self.spacing])

    def node_value(self, node: tuple[int, int]) -> QPoint:
        return QPoint(self.values[node[0], node[1]].copy())

    def copy(self) -> "GridField":
        return GridField(self.values.copy(), self.spacing, self.origin, self.boundary_mask.copy())

    def to_dict(self) -> dict:
        return {
            "nx": self.nx,
            "ny": self.ny,
            "x0": self.origin[0],
            "y0": self.origin[1],
            "h": self.spacing,
            "Q": self.q_sheets,
            "n": self.n,
            "values": self.values.tolist(),
            "boundary_mask": self.boundary_mask.astype(int).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridField":
        vals = np.asarray(d["values"], dtype=np.float64)
        expect = (int(d["ny"]), int(d["nx"]), int(d["Q"]), int(d["n"]))
        if vals.shape != expect:
            raise InvalidInputError(f"values shape {vals.shape} does not match header {expect}")
        mask = np.asarray(d["boundary_mask"], dtype=bool)
        return cls(vals, float(d["h"]), (float(d["x0"]), float(d["y0"])), mask)


@dataclass(frozen=True)
class EnergyBreakdown:
    total: float
    per_cell: np.ndarray  # (ny-1, nx-1)


def _check_frame(f: GridField, frame: ProjectionFrame):
    if frame.n != f.n or frame.q_sheets != f.q_sheets:
        raise InvalidInputError("frame does not match the field's (Q, n)")


def embed_grid(f: GridField, frame: ProjectionFrame) -> np.ndarray:
    """Embedded field: per-axis sorted projections, shape (ny, nx, n*Q)."""
    _check_frame(f, frame)
    return _embed_values(f.values, frame)


def _embed_values(values: np.ndarray, frame: ProjectionFrame) -> np.ndarray:
    """Sorted projections of (..., Q, n) node values onto the frame's first n
    directions, flattened to (..., n*Q).

    Each node is embedded on its own by `project_sheets`, so a block of
    nodes embeds to the same floats as it does inside the whole grid, and a
    node to the same floats as `xi0` gives it.
    """
    proj = project_sheets(frame.directions[: frame.n], values)
    return np.sort(proj, axis=-1).reshape(*values.shape[:-2], -1)


def _cell_energy(gx2: np.ndarray, gy2: np.ndarray) -> EnergyBreakdown:
    """Cell-integrate squared x-edge (ny, nx-1) and y-edge (ny-1, nx) lengths."""
    per_cell = 0.5 * (gx2[:-1] + gx2[1:]) + 0.5 * (gy2[:, :-1] + gy2[:, 1:])
    return EnergyBreakdown(float(per_cell.sum()), per_cell)


def embedded_energy(farr: np.ndarray) -> EnergyBreakdown:
    """Cell-integrated squared-gradient energy of an (ny, nx, m) array."""
    ex = farr[:, 1:] - farr[:, :-1]
    ey = farr[1:, :] - farr[:-1, :]
    return _cell_energy(np.einsum("...k,...k->...", ex, ex), np.einsum("...k,...k->...", ey, ey))


def dirichlet_energy(f: GridField, frame: ProjectionFrame) -> EnergyBreakdown:
    """Dirichlet energy of the embedded field."""
    return embedded_energy(embed_grid(f, frame))


def dirichlet_energy_matched(f: GridField) -> EnergyBreakdown:
    """Edge-matched twin of `dirichlet_energy` on the identical stencil.

    Uses the assignment distance per grid edge in place of the embedded edge
    difference; equals `dirichlet_energy` exactly when sorted and optimal
    matchings coincide on every edge.
    """
    return _match_edges(f.values)[2]


def _match_edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, EnergyBreakdown]:
    """Optimal x- and y-edge permutations of (ny, nx, Q, n) values, and the
    matched energy they give."""
    px, gx2 = assign(v[:, :-1], v[:, 1:])
    py, gy2 = assign(v[:-1, :], v[1:, :])
    return px, py, _cell_energy(gx2, gy2)


@dataclass
class MinimizeOptions:
    max_iters: int = 200
    tol_rel_energy: float = 1e-12


@dataclass
class MinimizeResult:
    field: GridField
    energies: np.ndarray   # matched energy after each outer iteration (incl. start)
    iterations: int
    converged: bool


# `minimize` factorises the symmetric positive definite free-free block of
# its frozen quadratic, so SuperLU runs in symmetric mode on a
# minimum-degree ordering of A + A^T without pivoting.
# relax=1 and panel_size=1 keep its supernodes and panels small: with the
# defaults, minimising two 97x97 two-valued fields raised the process's
# peak RSS from 118.9 to 129.4 MB.
_SPLU_KW = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    relax=1,
    panel_size=1,
    options=dict(SymmetricMode=True),
)


def minimize(f: GridField, opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Relax interior nodes toward a discrete Dirichlet minimiser.

    Outer loop: freeze the per-edge optimal matchings, then minimise the
    quadratic they define exactly.  That quadratic is the weighted graph
    Laplacian on (iy, ix, sheet) vertices, where an x-edge links sheet s of
    a node to sheet px[s] of its right neighbour (likewise for y-edges), with
    the masked nodes as Dirichlet data.  Every component of this Q-fold
    cover of the grid graph reaches the rim, so the free-free block is
    positive definite; one sparse LU factorisation per outer iteration
    solves all n coordinates.  Matching the edges after a solve gives both
    the matched energy of the iterate and the next frozen matching.  The
    matched energy never increases across outer iterations.  Once the
    matching after a solve equals the one that solve used, the next solve
    would repeat it bit for bit (only the fixed neighbours enter its
    right-hand side), so the remaining iterations reuse the iterate and its
    energy without factorising again; with a non-negative tolerance the
    first of them stops the loop.
    """
    # the one sparse solve in qvalued; importing it here keeps scipy out of
    # every other command's start-up
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    opts = opts or MinimizeOptions()
    g = f.copy()
    v = g.values
    ny, nx, q, n = v.shape
    wx = np.ones((ny, nx - 1))
    wx[0] = 0.5
    wx[-1] = 0.5
    wy = np.ones((ny - 1, nx))
    wy[:, 0] = 0.5
    wy[:, -1] = 0.5

    # Free nodes are interior (the rim is always masked), so each has all
    # four neighbours.  Per column (free vertex) the CSC slots are ordered
    # down, left, diagonal, right, up: by node index, hence by row index.
    fixed = g.boundary_mask
    fy, fx = np.nonzero(~fixed)
    nf = fy.size
    compact = np.full((ny, nx), -1, dtype=np.intc)
    compact[fy, fx] = np.arange(nf, dtype=np.intc)
    nbrs = ((fy - 1, fx), (fy, fx - 1), (fy, fx + 1), (fy + 1, fx))
    weights = np.stack([wy[fy - 1, fx], wx[fy, fx - 1], wx[fy, fx], wy[fy, fx]])
    nbr_fixed = np.stack([fixed[y, x] for y, x in nbrs])
    nbr_rows = np.stack([compact[y, x] for y, x in nbrs]) * q
    rhs_w = (weights * nbr_fixed)[..., None, None]
    slot_w = np.insert(-weights, 2, weights.sum(axis=0), axis=0).T  # (nf, 5)
    slot_on = np.insert(~nbr_fixed, 2, True, axis=0).T
    slot_on = np.broadcast_to(slot_on[:, None, :], (nf, q, 5))
    data = np.broadcast_to(slot_w[:, None, :], (nf, q, 5))[slot_on]
    indptr = np.zeros(nf * q + 1, dtype=np.intc)
    np.cumsum(slot_on.sum(axis=-1).ravel(), out=indptr[1:])
    rows = np.empty((nf, q, 5), dtype=np.intc)
    rows[..., 2] = np.arange(nf * q, dtype=np.intc).reshape(nf, q)

    px, py, energy = _match_edges(v)
    e_prev = energy.total
    history = [e_prev]
    converged = False
    it = 0
    solved_px = solved_py = None
    for it in range(1, opts.max_iters + 1):
        if not (np.array_equal(px, solved_px) and np.array_equal(py, solved_py)):
            solved_px, solved_py = px, py
            ipx = np.argsort(px, axis=-1)
            ipy = np.argsort(py, axis=-1)
            partners = (ipy[fy - 1, fx], ipx[fy, fx - 1], px[fy, fx], py[fy, fx])
            rhs = np.zeros((nf, q, n))
            for slot, (y, x), base, w, sheet in zip((0, 1, 3, 4), nbrs, nbr_rows, rhs_w, partners):
                rows[..., slot] = base[:, None] + sheet
                rhs += w * v[y[:, None], x[:, None], sheet]
            lap = sp.csc_matrix((data, rows[slot_on], indptr), shape=(nf * q, nf * q))
            sol = spla.splu(lap, **_SPLU_KW).solve(rhs.reshape(nf * q, n))
            v[fy, fx] = sol.reshape(nf, q, n)
            px, py, energy = _match_edges(v)
        e = energy.total
        if not math.isfinite(e):
            raise NumericalFailureError("non-finite energy during minimisation")
        history.append(e)
        if e_prev - e <= opts.tol_rel_energy * max(e_prev, 1e-300):
            converged = True
            break
        e_prev = e
    return MinimizeResult(g, np.array(history), it, converged)


def sqrt_field(spec: GridSpec) -> GridField:
    """The two-valued square-root field: both complex square roots per node."""
    xs = spec.origin[0] + spec.spacing * np.arange(spec.nx)
    ys = spec.origin[1] + spec.spacing * np.arange(spec.ny)
    x, y = np.meshgrid(xs, ys)
    w = np.sqrt(x + 1j * y)
    v = np.empty((spec.ny, spec.nx, 2, 2))
    v[..., 0, 0] = w.real
    v[..., 0, 1] = w.imag
    v[..., 1, 0] = -w.real
    v[..., 1, 1] = -w.imag
    return GridField(v, spec.spacing, spec.origin)


def bilinear_array(arr: np.ndarray, f: GridField, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal array (ny, nx, m) at physical points.

    Interpolating an `embed_grid` array keeps each sorted block sorted, so the
    result is a valid embedded value wherever the field's sheets vary
    continuously.
    """
    pts = np.asarray(pts, dtype=np.float64)
    gx = (pts[..., 0] - f.origin[0]) / f.spacing
    gy = (pts[..., 1] - f.origin[1]) / f.spacing
    if np.any(gx < -1e-9) or np.any(gx > f.nx - 1 + 1e-9) or np.any(gy < -1e-9) or np.any(
        gy > f.ny - 1 + 1e-9
    ):
        raise InvalidInputError("interpolation point outside the grid")
    i0 = np.clip(np.floor(gx).astype(np.intp), 0, f.nx - 2)
    j0 = np.clip(np.floor(gy).astype(np.intp), 0, f.ny - 2)
    tx = (gx - i0)[..., None]
    ty = (gy - j0)[..., None]
    return (
        arr[j0, i0] * (1 - tx) * (1 - ty)
        + arr[j0, i0 + 1] * tx * (1 - ty)
        + arr[j0 + 1, i0] * (1 - tx) * ty
        + arr[j0 + 1, i0 + 1] * tx * ty
    )


def disc_energy(f: GridField, frame: ProjectionFrame, w0: tuple[float, float], r: float) -> float:
    """Energy restricted to cells whose centers lie in the disc U_r(w0)."""
    br = dirichlet_energy(f, frame)
    return _disc_cell_sum(br.per_cell, f, w0, r)


def _disc_cell_mask(f: GridField, w0: tuple[float, float], r: float) -> np.ndarray:
    """Cells whose centers lie in the disc U_r(w0), as a (ny - 1, nx - 1) mask."""
    cx = f.origin[0] + f.spacing * (np.arange(f.nx - 1) + 0.5)
    cy = f.origin[1] + f.spacing * (np.arange(f.ny - 1) + 0.5)
    gx, gy = np.meshgrid(cx, cy)
    return (gx - w0[0]) ** 2 + (gy - w0[1]) ** 2 <= r**2


def _disc_cell_sum(per_cell: np.ndarray, f: GridField, w0: tuple[float, float], r: float) -> float:
    return float(per_cell[_disc_cell_mask(f, w0, r)].sum())


def _require_disc_inside(f: GridField, w0: tuple[float, float], r: float):
    x0, y0 = f.origin
    x1 = x0 + (f.nx - 1) * f.spacing
    y1 = y0 + (f.ny - 1) * f.spacing
    if (w0[0] - r < x0 - 1e-12 or w0[0] + r > x1 + 1e-12
            or w0[1] - r < y0 - 1e-12 or w0[1] + r > y1 + 1e-12):
        raise InvalidInputError(f"disc of radius {r} at {w0} exits the grid")


def circle_points(w0: tuple[float, float], r: float, spacing: float) -> np.ndarray:
    """Resolution-proportional circle sample: 4*ceil(2*pi*r/h) points."""
    m = max(8, 4 * int(math.ceil(2 * math.pi * r / spacing)))
    th = np.linspace(0.0, 2 * math.pi, m, endpoint=False)
    return np.stack([w0[0] + r * np.cos(th), w0[1] + r * np.sin(th)], axis=-1)


def courant_lebesgue_slice(
    f: GridField,
    frame: ProjectionFrame,
    w0: tuple[float, float],
    radius: float,
) -> tuple[float, float]:
    """Scan radii in [R/2, R] and return (r, osc) minimising circle oscillation.

    Oscillation is the maximum pairwise distance of embedded circle values;
    the chosen slice obeys osc <= DEFAULT_C_CL * sqrt(disc energy) for the
    classical constant shape, which callers may verify against `disc_energy`.
    """
    return _slice_scan(f, embed_grid(f, frame), w0, radius)


def _slice_scan(
    f: GridField, farr: np.ndarray, w0: tuple[float, float], radius: float
) -> tuple[float, float]:
    """`courant_lebesgue_slice` on the embedded field farr."""
    _require_disc_inside(f, w0, radius)
    if radius < 4 * f.spacing:
        raise InvalidInputError("slice radius too small for the grid resolution")
    radii = np.arange(radius / 2, radius + f.spacing / 4, f.spacing)
    radii[-1] = min(radii[-1], radius)
    best = (float("nan"), float("inf"))
    for r in radii:
        vals = bilinear_array(farr, f, circle_points(w0, r, f.spacing))
        osc = _max_pairwise(vals)
        if osc < best[1]:
            best = (float(r), osc)
    return best


def _max_pairwise(vals: np.ndarray) -> float:
    """Largest distance between two rows of vals (every step-th row beyond 512).

    The Gram form |a|^2 + |b|^2 - 2 a.b finds the largest squared distance to
    within `slack`, a bound on its rounding error and on that of the direct
    form |a - b|^2.  Every pair within twice that of the Gram maximum is then
    recomputed directly, so the result is the float the direct form gives
    over all pairs.
    """
    m = vals.shape[0]
    if m > 512:
        step = m // 512 + 1
        vals = vals[::step]
    sq = np.einsum("ik,ik->i", vals, vals)
    gram = vals @ vals.T
    gram *= -2.0
    gram += sq
    gram += sq[:, None]
    slack = 16 * (vals.shape[1] + 4) * np.finfo(float).eps * sq.max()
    row_max = gram.max(axis=1)
    floor = row_max.max() - 2 * slack
    rows = np.flatnonzero(row_max >= floor)
    ii, jj = np.nonzero(gram[rows] >= floor)
    d2 = ((vals[rows[ii]] - vals[jj]) ** 2).sum(-1)
    return float(math.sqrt(d2.max()))


def disc_oscillation(f: GridField, w0: tuple[float, float], r: float) -> float:
    """Exact assignment-metric oscillation over grid nodes in U_r(w0).

    A disc of more than ``OSC_MAX_NODES`` nodes is replaced by a random subset
    of that size drawn with seed ``OSC_SEED``, so the result is then a lower
    bound on the true oscillation.
    """
    gx, gy = np.meshgrid(f.xs, f.ys)
    mask = (gx - w0[0]) ** 2 + (gy - w0[1]) ** 2 <= r**2
    nodes = f.values[mask]
    if nodes.shape[0] < 2:
        return 0.0
    if nodes.shape[0] > OSC_MAX_NODES:
        rng = np.random.default_rng(OSC_SEED)
        nodes = nodes[rng.choice(nodes.shape[0], size=OSC_MAX_NODES, replace=False)]
    best = 0.0
    for i in range(nodes.shape[0] - 1):
        d = metric_g_many(nodes[i], nodes[i + 1 :])
        best = max(best, float(d.max()))
    return best
