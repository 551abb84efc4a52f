"""Discretised Q-tuple fields on rectangular 2-D grids.

The field's Dirichlet energy is cell-integrated from the squared
assignment distances of its four edges (each axis averaged over the cell's
two parallel edges); `minimize` lowers it and every diagnostic reads it.
The frame embedding's energy on the same stencil is a cell-wise lower bound.

Minimisation alternates per-edge optimal matchings with an exact minimiser
of the quadratic they freeze: the graph Laplacian on (node, sheet)
vertices, with the masked nodes held fixed.  The frozen quadratic majorises
the matched energy and touches it at the current field, so each outer
iteration is a descent step and the iteration is monotone.  On a rim-only
mask the quadratic is solved in the comb gauge, where only the cut edges
carry a permutation: a DST-I fast solve of Q plain Dirichlet Laplacians
plus a capacitance correction on the cut.  Masks with interior islands,
and cuts too large for the dense correction, keep a sparse LU solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError, _is_count
from .embedding import ProjectionFrame, _embed_values
from .qspace import QPoint, assign

#: circle-slice constant of the certificate's alpha1 (the classical Courant-Lebesgue shape)
DEFAULT_C_CL = math.sqrt(4.0 * math.pi / math.log(2.0))
#: most points a Courant-Lebesgue scan samples on one circle; a multiple of 4,
#: so each circle's sample angles map onto themselves under the grid's eight symmetries
SCAN_CIRCLE_POINTS = 512
#: bytes of interpolation work a Courant-Lebesgue scan holds at once: its
#: circles are interpolated together in batches that fit this budget
SCAN_BATCH_BYTES = 1 << 22


@dataclass(frozen=True)
class GridSpec:
    nx: int
    ny: int
    spacing: float
    origin: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise InvalidInputError("grid needs at least 2 nodes per axis")
        _check_geometry(self.spacing, self.origin)


def _check_geometry(spacing: float, origin: tuple[float, float]):
    """Refuse a spacing that is not finite and positive and an origin that is
    not finite: NaN passes every comparison."""
    if not (math.isfinite(spacing) and spacing > 0 and all(map(math.isfinite, origin))):
        raise InvalidInputError(f"need a finite spacing > 0 and origin, got {spacing}, {origin}")


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
        self.origin = (float(self.origin[0]), float(self.origin[1]))
        _check_geometry(self.spacing, self.origin)
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

    def interior_node(self, node: tuple[int, int]) -> tuple[int, int]:
        """The (iy, ix) of node as ints, refused unless it is off the grid rim."""
        iy, ix = int(node[0]), int(node[1])
        if not (0 < iy < self.ny - 1 and 0 < ix < self.nx - 1):
            raise InvalidInputError(f"node {(iy, ix)} is not inside the {self.nx}x{self.ny} rim")
        return iy, ix

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


def _cell_energy(gx2: np.ndarray, gy2: np.ndarray) -> EnergyBreakdown:
    """Cell-integrate squared x-edge (..., ny, nx-1) and y-edge (..., ny-1, nx)
    lengths; the total sums every leading index too."""
    per_cell = 0.5 * (gx2[..., :-1, :] + gx2[..., 1:, :]) + 0.5 * (gy2[..., :-1] + gy2[..., 1:])
    return EnergyBreakdown(float(per_cell.sum()), per_cell)


def embedded_energy(farr: np.ndarray) -> EnergyBreakdown:
    """Cell-integrated squared-gradient energy of an (ny, nx, m) array."""
    ex = farr[:, 1:] - farr[:, :-1]
    ey = farr[1:, :] - farr[:-1, :]
    return _cell_energy(np.einsum("...k,...k->...", ex, ex), np.einsum("...k,...k->...", ey, ey))


def dirichlet_energy(f: GridField, frame: ProjectionFrame) -> EnergyBreakdown:
    """Energy of the frame embedding `embed_grid(f, frame)`, which moves with the
    frame; xi0 is 1-Lipschitz, so it is cell-wise at most `dirichlet_energy_matched`."""
    return embedded_energy(embed_grid(f, frame))


def dirichlet_energy_matched(f: GridField) -> EnergyBreakdown:
    """The field's Dirichlet energy, which `minimize` lowers and every
    diagnostic reads: each edge's squared assignment distance on the stencil
    of `embedded_energy`, blind to the sheets' order and to range isometries."""
    return _match_edges(f.values)[2]


def _match_edges(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, EnergyBreakdown]:
    """Optimal x- and y-edge permutations of (..., ny, nx, Q, n) values, and the
    matched energy they give, one `assign` call per axis for every leading
    index at once; `assign` gives each edge the same floats in any batch."""
    px, gx2 = assign(v[..., :-1, :, :], v[..., 1:, :, :])
    py, gy2 = assign(v[..., :-1, :, :, :], v[..., 1:, :, :, :])
    return px, py, _cell_energy(gx2, gy2)


def _inverse(perm: np.ndarray) -> np.ndarray:
    """The inverse permutations along the last axis: argsort's integers, by a scatter."""
    inv = np.empty_like(perm)
    np.put_along_axis(inv, perm, np.arange(perm.shape[-1]), axis=-1)
    return inv


def _neighbour_partners(px: np.ndarray, py: np.ndarray, iy: np.ndarray,
                        ix: np.ndarray) -> tuple[tuple[tuple[int, int], np.ndarray], ...]:
    """The neighbours of the nodes (iy, ix), which must have all four, down,
    left, right, up: each as its step (dy, dx) and, per node, the sheet of
    that neighbour that sheet s of the node pairs with under px, py.

    Right and up are the node's own edge permutations, one row `np.take` each
    from the (edges, Q) view of px or py; left and down invert those of the
    edges that end at the node, for the given nodes alone."""
    q, nx = py.shape[-1], py.shape[1]
    xrows, yrows = px.reshape(-1, q), py.reshape(-1, q)
    right = iy * (nx - 1) + ix  # the x-edge from the node to its right neighbour
    up = iy * nx + ix           # the y-edge from the node to its upper neighbour
    return (
        ((-1, 0), _inverse(np.take(yrows, up - nx, axis=0))),
        ((0, -1), _inverse(np.take(xrows, right - 1, axis=0))),
        ((0, 1), np.take(xrows, right, axis=0)),
        ((1, 0), np.take(yrows, up, axis=0)),
    )


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


# `_superlu_solve`, the fallback for island masks and large cuts,
# factorises the symmetric positive definite free-free block of the frozen
# quadratic, so SuperLU runs in symmetric mode on a minimum-degree ordering
# of A + A^T without pivoting.  relax=1 and panel_size=1 keep its
# supernodes and panels small: with the defaults, factorising for two
# 97x97 two-valued fields raised the process's peak RSS from 118.9 to
# 129.4 MB.
_SPLU_KW = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    relax=1,
    panel_size=1,
    options=dict(SymmetricMode=True),
)

#: the capacitance solve runs while its K x K system has at most this many
#: unknowns per square root of the (free node, sheet) count.  Its dense LU
#: costs K^3 / 3 and SuperLU's nested factorisation of a grid about
#: (Q * free nodes)^1.5, so the crossover is a fixed ratio: on noisy root
#: fields (Q = 2, 3; 65^2 to 129^2; one BLAS thread) the two solves took
#: equal time at K / sqrt(Q * free nodes) = 6 to 7
_CAPACITANCE_MAX_RATIO = 6.0


def _compose(first: np.ndarray, then: np.ndarray) -> np.ndarray:
    """Follow the permutation arrays ``first``, then ``then``, along their
    last axis: out[..., s] = then[..., first[..., s]]."""
    return np.take_along_axis(then, first, axis=-1)


def _comb_gauge(px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Relabel the sheets so that the matchings along a comb are identities.

    The comb is every row's x-edges plus column 0's y-edges.  ``g[iy, ix, t]``
    is the sheet that takes label t at node (iy, ix): the identity at (0, 0),
    composed with the matched permutations down column 0 and then along
    each row.  A y-edge's matching is the identity in these labels,
    ``py[iy, ix][g[iy, ix]] == g[iy + 1, ix]``, except where the cells to
    its left enclose a net holonomy.
    """
    ny, nx, q = py.shape[0] + 1, *py.shape[1:]
    g = np.empty((ny, nx, q), dtype=py.dtype)
    g[0, 0] = np.arange(q)
    # plain indexing composes one step for a fraction of a `_compose` call
    for iy in range(1, ny):
        g[iy, 0] = py[iy - 1, 0][g[iy - 1, 0]]
    rows = np.arange(ny)[:, None]
    for ix in range(1, nx):
        g[:, ix] = px[rows, ix - 1, g[:, ix - 1]]
    return g


def branch_plaquettes(f: GridField) -> dict[tuple[int, int], tuple[int, ...]]:
    """Cells around which the optimal edge matchings compose to a
    non-identity holonomy, each mapped to that holonomy.

    Cell (iy, ix) has corners (iy, ix) and (iy + 1, ix + 1).  Its holonomy h
    takes sheet s at node (iy, ix), carried once counterclockwise around the
    cell along the matched edges, to sheet h[s].  These cells hold the
    branch points of the field's cover; they come in row-major order.
    """
    px, py, _ = _match_edges(f.values)
    right = _compose(px[:-1], py[:, 1:])  # along the bottom, then up the right side
    left = _compose(py[:, :-1], px[1:])   # up the left side, then along the top
    hol = _compose(right, np.argsort(left, axis=-1))
    cells = np.argwhere((hol != np.arange(f.q_sheets)).any(axis=-1))
    return {(int(iy), int(ix)): tuple(hol[iy, ix].tolist()) for iy, ix in cells}


@functools.lru_cache(maxsize=4)
def _sine_basis(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DST-I basis of R^m, symmetric and its own inverse, and
    the eigenvalues 4 sin^2(pi k / 2(m + 1)), k = 1..m, of the path
    Laplacian with Dirichlet ends that it diagonalises.  Read-only, since
    the cache hands the same arrays to every caller."""
    k = np.arange(1, m + 1)
    basis = np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))
    eig = 4.0 * np.sin(np.pi * k / (2 * (m + 1))) ** 2
    basis.flags.writeable = eig.flags.writeable = False
    return basis, eig


def _sine_transform(b: np.ndarray, sy: np.ndarray, sx: np.ndarray) -> np.ndarray:
    """Apply sy along axis 0 and sx along axis 1 of a (my, mx, c) array."""
    my, mx, c = b.shape
    t = (sy @ b.reshape(my, mx * c)).reshape(my, mx, c).transpose(1, 0, 2)
    return (sx @ t.reshape(mx, my * c)).reshape(mx, my, c).transpose(1, 0, 2)


def _green_matrix(sy: np.ndarray, sxe: np.ndarray, dinv: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Green's function of the interior Dirichlet Laplacian between the
    nodes in rows ``ys`` whose x-basis rows are ``sxe``, built one row of
    nodes at a time: the y-mode sums of a row against every row are one
    (rows, my) @ (my, mx) product, and each node pair then takes a dot
    product over the x modes.  No (nodes, nodes, mx) array is formed."""
    rows, row_of = np.unique(ys, return_inverse=True)
    syr = sy[rows]
    green = np.empty((ys.size, ys.size))
    for a in range(rows.size):
        h = (syr[a] * syr) @ dinv  # h[b, k] = sum_l S(ya, l) S(yb, l) / (mu_l + lambda_k)
        own = row_of == a
        green[own] = sxe[own] @ (h[row_of] * sxe).T
    return green


def _capacitance_solve(b: np.ndarray, perm: np.ndarray, cut: np.ndarray) -> np.ndarray:
    """Solve (L0 + dL) x = b in the comb gauge on a rim-only mask.

    ``b`` is (my, mx, Q, n) over the interior nodes, ``cut`` the (E, 2)
    interior (row, column) of the lower node of each y-edge between interior
    nodes whose matching in the comb gauge is not the identity, and ``perm``
    those (E, Q) matchings: label t below pairs with label perm[e, t] above.
    L0 is Q copies of the 5-point Dirichlet Laplacian, which the DST-I basis
    of each axis diagonalises.  Each cut edge adds dL = U C U^T on its 2Q
    (node, sheet) endpoints, with C = [[0, I - P], [(I - P)^T, 0]] and P
    the edge's permutation matrix.
    Woodbury's identity x = G (b - U w), (I + C U^T G U) w = C U^T G b, then
    corrects the fast solve G b by one dense system over the endpoints (the
    capacitance matrix method: Buzbee, Dorr, George & Golub, SIAM J. Numer.
    Anal. 8, 1971; Proskurowski & Widlund, Math. Comp. 30, 1976).  Both
    G b and G U w stay in the sine basis until the one inverse transform.
    """
    my, mx, q, n = b.shape
    c = q * n
    sy, ly = _sine_basis(my)
    sx, lx = _sine_basis(mx)
    dinv = 1.0 / (ly[:, None] + lx[None, :])
    hat = _sine_transform(b.reshape(my, mx, c), sy, sx)
    hat *= dinv[..., None]
    if cut.size:
        edges = cut.shape[0]
        lower = cut[:, 0] * mx + cut[:, 1]
        nodes, ends = np.unique(np.concatenate([lower, lower + mx]), return_inverse=True)
        lo, up = ends[:edges], ends[edges:]
        m = nodes.size
        sye, sxe = sy[nodes // mx], sx[nodes % mx]
        green = _green_matrix(sy, sxe, dinv, nodes // mx)
        d = np.eye(q) - np.eye(q)[perm]  # I - P per edge
        # I + C (G kron I): C has the block D at (lo, up) and D^T at (up, lo), and
        # a node is the lower end of one cut edge at most, and the upper end of one
        cap = np.zeros((m, q, m, q))
        cap[lo] += np.einsum("etr,ec->etcr", d, green[up])
        cap[up] += np.einsum("ert,ec->etcr", d, green[lo])
        cap = cap.reshape(m * q, m * q)
        cap[np.diag_indices(m * q)] += 1.0
        y = np.einsum("ikc,ik->ic", (sye @ hat.reshape(my, mx * c)).reshape(m, mx, c), sxe)
        y = y.reshape(m, q, n)  # G b at the endpoints
        cy = np.zeros((m, q, n))
        cy[lo] += y[up] - y[up[:, None], perm]
        cy[up] += y[lo] - y[lo[:, None], np.argsort(perm, axis=-1)]
        w = np.linalg.solve(cap, cy.reshape(m * q, n)).reshape(m, c)
        uw = sye.T @ (sxe[:, :, None] * w[:, None, :]).reshape(m, mx * c)  # U w, sine basis
        hat -= uw.reshape(my, mx, c) * dinv[..., None]
    return _sine_transform(hat, sy, sx).reshape(my * mx, q, n)


def _fixed_neighbour_sum(v: np.ndarray, fixed: np.ndarray, px: np.ndarray,
                         py: np.ndarray) -> np.ndarray:
    """Right-hand side of the frozen quadratic, (free nodes, Q, n) in
    `np.nonzero` order: each free node's sum, sheet by sheet, of the sheets
    that its fixed neighbours (down, left, right, up) pair with it."""
    fy, fx = np.nonzero(~fixed)
    rhs = np.zeros((fy.size, *v.shape[2:]))
    # the free nodes next to a fixed one, the only ones whose partners are read
    touches = np.zeros(fixed.shape, dtype=bool)
    touches[1:-1, 1:-1] = fixed[:-2, 1:-1] | fixed[1:-1, :-2] | fixed[1:-1, 2:] | fixed[2:, 1:-1]
    near = np.flatnonzero(touches[fy, fx])
    iy, ix = fy[near], fx[near]
    for (dy, dx), partner in _neighbour_partners(px, py, iy, ix):
        on = fixed[iy + dy, ix + dx]
        rhs[near[on]] += v[iy[on, None] + dy, ix[on, None] + dx, partner[on]]
    return rhs


def _superlu_solve(rhs: np.ndarray, fixed: np.ndarray, px: np.ndarray,
                   py: np.ndarray) -> np.ndarray:
    """Solve the frozen quadratic by one sparse LU factorisation: the path
    for masks with interior islands and for large capacitance systems."""
    # importing scipy here keeps it out of every other command's start-up
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    nf, q, n = rhs.shape
    fy, fx = np.nonzero(~fixed)
    compact = np.full(fixed.shape, -1, dtype=np.intc)
    compact[fy, fx] = np.arange(nf, dtype=np.intc)
    # per column (free vertex) the CSC slots are ordered down, left,
    # diagonal, right, up: by node index, hence by row index
    rows = np.empty((nf, q, 5), dtype=np.intc)
    rows[..., 2] = np.arange(nf * q, dtype=np.intc).reshape(nf, q)
    on = np.ones((nf, 5), dtype=bool)
    for slot, ((dy, dx), partner) in zip((0, 1, 3, 4), _neighbour_partners(px, py, fy, fx)):
        y, x = fy + dy, fx + dx
        rows[..., slot] = compact[y, x][:, None] * q + partner
        on[:, slot] = ~fixed[y, x]
    on = np.broadcast_to(on[:, None, :], (nf, q, 5))
    data = np.broadcast_to(np.array([-1.0, -1.0, 4.0, -1.0, -1.0]), (nf, q, 5))[on]
    indptr = np.zeros(nf * q + 1, dtype=np.intc)
    np.cumsum(on.sum(axis=-1).ravel(), out=indptr[1:])
    lap = sp.csc_matrix((data, rows[on], indptr), shape=(nf * q, nf * q))
    return spla.splu(lap, **_SPLU_KW).solve(rhs.reshape(nf * q, n)).reshape(nf, q, n)


def _frozen_solve(v: np.ndarray, fixed: np.ndarray, px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """Minimiser of the quadratic that the matchings px, py freeze, at the
    free nodes: (free nodes, Q, n) in `np.nonzero` order.

    Free nodes are interior (the rim is always masked), so each has four
    neighbours, and every edge at a free node has weight 1: the half
    weights sit on edges between two rim nodes.  The matrix therefore has 4
    on the diagonal and -1 for each pair of (free node, sheet) vertices that
    a matched edge links, and only the fixed nodes' values enter, through
    the right-hand side.  On a rim-only mask every free node has the plain
    5-point stencil, and `_capacitance_solve` solves the system in the comb
    gauge while its capacitance matrix has at most
    _CAPACITANCE_MAX_RATIO * sqrt(Q * free nodes) unknowns.  Masks with
    interior islands, and larger capacitance systems, go to
    `_superlu_solve`.  The choice depends on the mask and the matchings
    alone, so equal inputs take the same path.
    """
    ny, nx, q, n = v.shape
    rhs = _fixed_neighbour_sum(v, fixed, px, py)
    if not rhs.size:
        return rhs
    if not fixed[1:-1, 1:-1].any():
        g = _comb_gauge(px, py)[1:-1, 1:-1]
        # the sheet above that each label below pairs with, on the y-edges
        # between two interior nodes; an edge is cut where that is not the
        # sheet of the same label
        carried = _compose(g[:-1], py[1:-1, 1:-1])
        cut = np.argwhere((carried != g[1:]).any(axis=-1))
        ends = np.zeros((ny - 2, nx - 2), dtype=bool)
        ends[cut[:, 0], cut[:, 1]] = ends[cut[:, 0] + 1, cut[:, 1]] = True
        if q * np.count_nonzero(ends) <= _CAPACITANCE_MAX_RATIO * math.sqrt(q * (ny - 2) * (nx - 2)):
            e = (cut[:, 0], cut[:, 1])
            perm = _compose(carried[e], np.argsort(g[1:][e], axis=-1))
            g = g.reshape(-1, q)
            node = np.arange(g.shape[0])[:, None]
            b = rhs[node, g].reshape(ny - 2, nx - 2, q, n)  # label t is sheet g[node, t]
            x = np.empty_like(rhs)
            x[node, g] = _capacitance_solve(b, perm, cut)
            return x
    return _superlu_solve(rhs, fixed, px, py)


def minimize(f: GridField, opts: MinimizeOptions | None = None) -> MinimizeResult:
    """Relax interior nodes to the discrete Dirichlet minimiser within the
    input's cover.

    Outer loop: freeze the per-edge optimal matchings, then minimise the
    quadratic they define exactly.  That quadratic is the graph Laplacian
    on (iy, ix, sheet) vertices, where an x-edge links sheet s of a node to
    sheet px[s] of its right neighbour (likewise for y-edges), with the
    masked nodes as Dirichlet data.  Every component of this Q-fold cover
    of the grid graph reaches the rim, so the free-free block is positive
    definite; `_frozen_solve` solves it for all n coordinates at once.
    Matching the edges after a solve gives both the matched energy of the
    iterate and the next frozen matching.  The matched energy never
    increases across outer iterations.  Re-matching edge by edge does not
    move a branch point of the cover, which needs a coordinated flip along
    a cut, so the result keeps each branch point where the input put it.
    Once the matching after a solve equals the one that solve used, the next
    solve would repeat it bit for bit (only the fixed neighbours enter its
    right-hand side), so the remaining iterations reuse the iterate and its
    energy without solving again; with a non-negative tolerance the first
    of them stops the loop.  A max_iters not a whole number >= 0 (a negative
    one would act as 0) and a NaN tolerance, which every energy drop fails, are refused.
    """
    opts = opts or MinimizeOptions()
    if not _is_count(opts.max_iters, 0) or math.isnan(opts.tol_rel_energy):
        raise InvalidInputError(f"minimize needs max_iters >= 0 and a non-NaN tolerance: {opts}")
    g = f.copy()
    v = g.values
    fixed = g.boundary_mask
    free = ~fixed
    px, py, energy = _match_edges(v)
    e_prev = energy.total
    history = [e_prev]
    converged = False
    it = 0
    solved_px = solved_py = None
    for it in range(1, opts.max_iters + 1):
        if not (np.array_equal(px, solved_px) and np.array_equal(py, solved_py)):
            solved_px, solved_py = px, py
            v[free] = _frozen_solve(v, fixed, px, py)
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

    Each corner is one row gather from the (ny * nx, m) view of arr, and the
    four weighted corners are added left to right into one array, so the
    floats are those of the corner-by-corner sum
    a00 (1 - tx)(1 - ty) + a01 tx (1 - ty) + a10 (1 - tx) ty + a11 tx ty,
    each product taken left to right.  The weights tx, ty, 1 - tx and 1 - ty
    are built once at the full (..., m) width of a corner, so the eight
    weight products run in place on contiguous arrays of equal shape.
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
    m = arr.shape[-1]
    tx = np.repeat(gx - i0, m).reshape(*gx.shape, m)
    ty = np.repeat(gy - j0, m).reshape(*gy.shape, m)
    ux, uy = 1 - tx, 1 - ty
    rows = arr.reshape(-1, m)
    base = j0 * f.nx + i0
    out = np.take(rows, base, axis=0)
    out *= ux
    out *= uy
    for step, wx, wy in ((1, tx, uy), (f.nx, ux, ty), (f.nx + 1, tx, ty)):
        corner = np.take(rows, base + step, axis=0)
        corner *= wx
        corner *= wy
        out += corner
    return out


def disc_energy(f: GridField, frame: ProjectionFrame, w0: tuple[float, float], r: float) -> float:
    """The field's energy on the cells whose centers lie in the disc U_r(w0);
    the frame is checked against the field's (Q, n) and read no further.
    Only the disc's node window is matched, each cell the full grid's float."""
    _check_frame(f, frame)
    disc = _disc_cell_window(f, w0, r)
    return float(_match_edges(f.values[disc.nodes])[2].per_cell[disc.inside].sum())


def _require_finite_disc(w0: tuple[float, float], r: float):
    """Refuse a disc whose centre or radius is not a finite number, or whose
    radius is negative: NaN passes every comparison of the disc tests."""
    if not (math.isfinite(w0[0]) and math.isfinite(w0[1]) and math.isfinite(r)) or r < 0:
        raise InvalidInputError(f"disc of radius {r} at {w0} needs a finite centre and radius >= 0")


def _cell_span(c: float, r: float, origin: float, h: float, cells: int) -> slice:
    """Cells of one axis whose centers origin + (i + 1/2) h can lie within r
    of c.  The floor already starts at or below the first such cell; the
    stop is one past the last plus one cell of slack, since a center on the
    circle can pass the disc test while the floor rounds below it."""
    lo = math.floor((c - r - origin) / h - 0.5)
    hi = math.floor((c + r - origin) / h - 0.5) + 2
    return slice(min(max(lo, 0), cells), min(max(hi, 0), cells))


class _DiscWindow(NamedTuple):
    """The cells whose centers lie in a disc: the (rows, columns) window of
    the cell grid that bounds the disc, and their mask in it."""
    window: tuple[slice, slice]
    inside: np.ndarray

    @property
    def nodes(self) -> tuple[slice, slice]:
        """The window's corner nodes: its rows and columns, each one node longer."""
        return tuple(slice(s.start, s.stop + 1) for s in self.window)

    def cells(self, a: np.ndarray) -> np.ndarray:
        """The disc cells' entries of a (ny - 1, nx - 1, ...) array, in full-grid mask order."""
        return a[self.window][self.inside]

    def sum(self, per_cell: np.ndarray) -> float:
        """The same float as the sum of per_cell over the full-grid mask."""
        return float(self.cells(per_cell).sum())


def _disc_cell_window(f: GridField, w0: tuple[float, float], r: float) -> _DiscWindow:
    """The cells whose centers lie in the disc U_r(w0).

    Each cell is tested with the same center and the same test as on the
    full cell grid, so the window holds every cell of the full-grid mask."""
    _require_finite_disc(w0, r)
    rows = _cell_span(w0[1], r, f.origin[1], f.spacing, f.ny - 1)
    cols = _cell_span(w0[0], r, f.origin[0], f.spacing, f.nx - 1)
    cx = f.origin[0] + f.spacing * (np.arange(cols.start, cols.stop) + 0.5)
    cy = f.origin[1] + f.spacing * (np.arange(rows.start, rows.stop) + 0.5)
    inside = (cx[None, :] - w0[0]) ** 2 + (cy[:, None] - w0[1]) ** 2 <= r**2
    return _DiscWindow((rows, cols), inside)


def _grid_box(f: GridField, inset: int) -> tuple[float, float, float, float]:
    """(x_lo, x_hi, y_lo, y_hi) of the rectangle ``inset`` nodes in from the
    grid rim; each corner is origin + k h for its node index k."""
    (x0, y0), h = f.origin, f.spacing
    return x0 + inset * h, x0 + (f.nx - 1 - inset) * h, y0 + inset * h, y0 + (f.ny - 1 - inset) * h


def _require_disc_inside(f: GridField, w0: tuple[float, float], r: float):
    _require_finite_disc(w0, r)
    x0, x1, y0, y1 = _grid_box(f, 0)
    if (w0[0] - r < x0 - 1e-12 or w0[0] + r > x1 + 1e-12
            or w0[1] - r < y0 - 1e-12 or w0[1] + r > y1 + 1e-12):
        raise InvalidInputError(f"disc of radius {r} at {w0} exits the grid")


def _circle_size(r: float, spacing: float) -> int:
    return max(8, 4 * int(math.ceil(2 * math.pi * r / spacing)))


def _circle_batch(w0: tuple[float, float], radii: np.ndarray, sizes: list[int]) -> np.ndarray:
    """The circles of the given radii about w0, sizes[k] points on the k-th,
    concatenated: the one place that samples a circle.

    The points of a circle of N points sit at the angles i * (2 pi / N), the
    floats of `np.linspace(0, 2 pi, N, endpoint=False)`; the angles of all
    the circles come from one concatenated arange times each point's step,
    then one cos and one sin."""
    starts = np.cumsum(sizes) - sizes
    index = np.arange(starts[-1] + sizes[-1]) - np.repeat(starts, sizes)  # on its own circle
    th = index * np.repeat(2 * math.pi / np.asarray(sizes), sizes)
    r = np.repeat(radii, sizes)
    return np.stack([w0[0] + r * np.cos(th), w0[1] + r * np.sin(th)], axis=-1)


def circle_points(w0: tuple[float, float], r: float, spacing: float) -> np.ndarray:
    """Resolution-proportional circle sample: 4*ceil(2*pi*r/h) points."""
    return _circle_batch(w0, np.array([r]), [_circle_size(r, spacing)])


def courant_lebesgue_slice(
    f: GridField,
    frame: ProjectionFrame,
    w0: tuple[float, float],
    radius: float,
) -> tuple[float, float]:
    """Scan radii in [R/2, R] and return (r, osc) minimising circle oscillation.

    Each circle is sampled at equally spaced points, 4 per grid step of arc
    as in `circle_points` but at most SCAN_CIRCLE_POINTS; its oscillation is
    the maximum distance over every pair of its embedded samples.  The chosen
    slice obeys osc <= DEFAULT_C_CL * sqrt(disc energy) for the classical
    constant shape, which callers may verify against `disc_energy`.
    """
    return _slice_scan(f, embed_grid(f, frame), w0, radius)


def _scan_circles(f: GridField, farr: np.ndarray, w0: tuple[float, float], radii: np.ndarray):
    """Yield (r, embedded circle samples) for each radius, in order.

    A circle gets min(`_circle_size`, SCAN_CIRCLE_POINTS) samples, and the
    oscillation reads every one.  Consecutive circles are interpolated by
    one `bilinear_array` call while their samples' working memory stays
    within SCAN_BATCH_BYTES; a circle larger than that is a batch of its
    own.  A sample of m embedded values is counted at 8 (8m + 8) bytes.  In
    the corner sums it holds 8 (7m + 8): its point, its scaled coordinates,
    cell indices and base row, one corner's row index, the four full-width
    weights, the running sum, and one weighted corner while the next is
    gathered.  The other m words are the previous batch's output, which the
    caller's view of its last circle keeps alive while the next batch is
    interpolated; with both batches counted this way, the two together stay
    within the budget.  Interpolation acts on each point alone, so a circle
    gets the same floats in any batch."""
    sizes = [min(_circle_size(r, f.spacing), SCAN_CIRCLE_POINTS) for r in radii]
    per_sample = 8 * (8 * farr.shape[-1] + 8)
    start = 0
    while start < len(radii):
        stop, used = start + 1, sizes[start]
        while stop < len(radii) and (used + sizes[stop]) * per_sample <= SCAN_BATCH_BYTES:
            used += sizes[stop]
            stop += 1
        vals = bilinear_array(farr, f, _circle_batch(w0, radii[start:stop], sizes[start:stop]))
        yield from zip(radii[start:stop], np.split(vals, np.cumsum(sizes[start : stop - 1])))
        start = stop


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
    for r, vals in _scan_circles(f, farr, w0, radii):
        # the oscillation is at least the floor's root, so a root at or
        # above the best oscillation cannot pass the strict test below
        if math.sqrt(_pairwise_floor(vals)) >= best[1]:
            continue
        osc = _max_pairwise(vals)
        if osc < best[1]:
            best = (float(r), osc)
    return best


def _pairwise_floor(vals: np.ndarray) -> float:
    """A lower bound on the squared `_max_pairwise(vals)` from two sweeps over
    every row: the row farthest from row 0, then the largest squared
    distance from it.

    Both sweeps use the direct form |a - b|^2 of `_max_pairwise`, so the
    bound is the float that form gives one of the pairs it compares.
    """
    far = vals[((vals - vals[0]) ** 2).sum(-1).argmax()]
    return float(((vals - far) ** 2).sum(-1).max())


def _max_pairwise(vals: np.ndarray) -> float:
    """Largest distance between two rows of vals, over every pair of rows.

    The Gram form |a|^2 + |b|^2 - 2 a.b finds the largest squared distance to
    within `slack`, a bound on its rounding error and on that of the direct
    form |a - b|^2.  Every pair within twice that of the Gram maximum is then
    recomputed directly, so the result is the float the direct form gives
    over all pairs.
    """
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

    Every pair of nodes in the disc is compared: one `assign` batch per node
    against the nodes after it, so the working memory grows with the number
    of nodes, not of pairs.  `assign` gives a pair the same float in any
    batch.
    """
    _require_finite_disc(w0, r)
    gx, gy = np.meshgrid(f.xs, f.ys)
    mask = (gx - w0[0]) ** 2 + (gy - w0[1]) ** 2 <= r**2
    nodes = f.values[mask]
    sq = max((float(assign(nodes[i], nodes[i + 1 :])[1].max()) for i in range(len(nodes) - 1)),
             default=0.0)
    return math.sqrt(sq)
