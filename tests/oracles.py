"""Independent oracles for the test suite.

Everything here is implemented from first principles (brute force,
enumeration, direct sparse solves, quadrature) and never calls back into
the code paths it is used to check.  A few are exceptions.  The full-grid
first variations re-embed and sum the whole grid at +t and -t, sharing the
embedding and energy primitives, and the bump, cutoff and retraction of the
variation, with the local derivatives they check; the domain one
interpolates with `index_bilinear`.  The full slice scan shares the
embedding, the circle size and its cap with `courant_lebesgue_slice`; it
samples each circle with `linspace_circle_points` and interpolates with
`index_bilinear`, as the embedded tau* does with `einsum_embedding`.  The
node-by-node Hopf stencil shares only the assignment kernel with
`hopf_differential`, and the all-pairs disc oscillation only
the assignment kernel with `disc_oscillation`.  The reference assignment
kernel keeps the earlier layout of `qspace.assign`, (k, Q, n) batches and
an `argmax` pick over the permutations, and shares the
shortest-augmenting-path solver with it beyond enumeration.  The reference
sorted projections, bilinear interpolation and circle sample are the
package's earlier kernels, kept verbatim: an `np.sort` of `project_sheets`,
(..., 1)-wide weights broadcast over the corners, and one `np.linspace` of
angles per circle.
"""

import functools
import itertools
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad

from qvalued import InvalidInputError
from qvalued.qspace import (EXHAUSTIVE_MAX_SHEETS, TIE_REL_TOL, _tie_broken_assignments,
                            project_sheets)


def exhaustive_metric(p_pts: np.ndarray, r_pts: np.ndarray) -> float:
    """Assignment distance by trying every permutation."""
    q = p_pts.shape[0]
    best = math.inf
    for perm in itertools.permutations(range(q)):
        tot = sum(float(((p_pts[i] - r_pts[perm[i]]) ** 2).sum()) for i in range(q))
        best = min(best, tot)
    return math.sqrt(best)


def hungarian_metric(p, r) -> float:
    """Assignment distance of two `QPoint`s by SciPy's Hungarian solver on
    costs built with `einsum`."""
    from scipy.optimize import linear_sum_assignment

    diff = p.points[:, None, :] - r.points[None, :, :]
    cost = np.einsum("ijk,ijk->ij", diff, diff)
    rows, cols = linear_sum_assignment(cost)
    return float(np.sqrt(cost[rows, cols].sum()))


@functools.cache
def _permutations(q: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(q))), dtype=np.intp)


def exhaustive_assignment(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Lexicographically first optimal permutation of b against a, and its
    squared cost, by trying every permutation in itertools order.

    Each permutation's pair costs are sorted before they are summed, so two
    permutations that pair the same points give the same float.
    """
    q = a.shape[0]
    pair = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    perms = _permutations(q)
    costs = np.sort(pair[np.arange(q), perms], axis=1).sum(axis=1)
    best = int(np.argmin(costs))
    return perms[best], float(costs[best])


def reference_cost_matrices(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared sheet distances cost[i, j, e] = |a[e, i] - b[e, j]|^2 of
    (k, Q, n) batches, batch axis last so every operation runs along it.
    The floats do not depend on the memory layout of either batch."""
    a = np.ascontiguousarray(a.transpose(2, 1, 0))
    b = np.ascontiguousarray(b.transpose(2, 1, 0))
    d = a[0, :, None] - b[0, None]
    cost = d * d
    for c in range(1, a.shape[0]):
        np.subtract(a[c, :, None], b[c, None], out=d)
        d *= d
        cost += d
    return cost


def reference_enumerated_assignments(cost: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically first optimal assignments of a (Q, Q, k) cost batch
    by scoring every permutation of ``table``, and their costs summed in row
    order.  A permutation is optimal when its cost is at most
    min + TIE_REL_TOL * (1 + min)."""
    s = cost[0, table[:, 0]]  # (Q!, k)
    for i in range(1, table.shape[1]):
        s += cost[i, table[:, i]]
    best = s.min(axis=0)
    pick = np.argmax(s <= best + TIE_REL_TOL * (1.0 + best), axis=0)
    return table[pick], s[pick, np.arange(s.shape[1])]


def reference_assignment(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`qspace.assign` of broadcasting (..., Q, n) batches in one piece, by
    the reference kernel: every permutation scored up to
    EXHAUSTIVE_MAX_SHEETS sheets, the shortest-augmenting-path solver and
    its tie pass on the whole cost batch above."""
    shape = np.broadcast_shapes(a.shape, b.shape)
    q, n = shape[-2:]
    cost = reference_cost_matrices(np.broadcast_to(a, shape).reshape(-1, q, n),
                                   np.broadcast_to(b, shape).reshape(-1, q, n))
    if q <= EXHAUSTIVE_MAX_SHEETS:
        perm, sq = reference_enumerated_assignments(cost, _permutations(q))
    else:
        perm, sq = _tie_broken_assignments(cost)
    return perm.reshape(shape[:-1]), sq.reshape(shape[:-2])


def harmonic_extension(boundary_values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Direct sparse solve of the rim-weighted 5-point harmonic extension.

    Edge weights are 1 in the interior and 1/2 on rim-parallel edges, the
    weighting induced by cell-integrated differences on the grid.
    """
    ny, nx = mask.shape
    wx = np.ones((ny, nx - 1))
    wx[0] = 0.5
    wx[-1] = 0.5
    wy = np.ones((ny - 1, nx))
    wy[:, 0] = 0.5
    wy[:, -1] = 0.5
    total = ny * nx
    idx = np.arange(total).reshape(ny, nx)
    rows, cols, data = [], [], []
    rhs = np.zeros(total)
    for iy in range(ny):
        for ix in range(nx):
            k = idx[iy, ix]
            if mask[iy, ix]:
                rows.append(k)
                cols.append(k)
                data.append(1.0)
                rhs[k] = boundary_values[iy, ix]
                continue
            wsum = 0.0
            neighbours = (
                (iy, ix - 1, wx[iy, ix - 1] if ix > 0 else 0.0),
                (iy, ix + 1, wx[iy, ix] if ix < nx - 1 else 0.0),
                (iy - 1, ix, wy[iy - 1, ix] if iy > 0 else 0.0),
                (iy + 1, ix, wy[iy, ix] if iy < ny - 1 else 0.0),
            )
            for jy, jx, w in neighbours:
                if w:
                    rows.append(k)
                    cols.append(idx[jy, jx])
                    data.append(-w)
                    wsum += w
            rows.append(k)
            cols.append(k)
            data.append(wsum)
    mat = sp.csr_matrix((data, (rows, cols)), shape=(total, total))
    return spla.spsolve(mat.tocsc(), rhs).reshape(ny, nx)


def frozen_quadratic_solve(values: np.ndarray, mask: np.ndarray, px: np.ndarray,
                           py: np.ndarray) -> np.ndarray:
    """Minimiser of the quadratic that the edge matchings px, py freeze, by
    one sparse LU factorisation of the weighted graph Laplacian on
    (node, sheet) vertices; the masked nodes hold their values.

    The assembly writes each column's CSC slots (down, left, diagonal,
    right, up) directly, with the rim-weighted edges, and SuperLU runs in
    symmetric mode on a minimum-degree ordering.  Returns the whole
    (ny, nx, Q, n) array.
    """
    v = values.copy()
    ny, nx, q, n = v.shape
    wx = np.ones((ny, nx - 1))
    wx[0] = 0.5
    wx[-1] = 0.5
    wy = np.ones((ny - 1, nx))
    wy[:, 0] = 0.5
    wy[:, -1] = 0.5
    fy, fx = np.nonzero(~mask)
    nf = fy.size
    compact = np.full((ny, nx), -1, dtype=np.intc)
    compact[fy, fx] = np.arange(nf, dtype=np.intc)
    nbrs = ((fy - 1, fx), (fy, fx - 1), (fy, fx + 1), (fy + 1, fx))
    weights = np.stack([wy[fy - 1, fx], wx[fy, fx - 1], wx[fy, fx], wy[fy, fx]])
    nbr_fixed = np.stack([mask[y, x] for y, x in nbrs])
    nbr_rows = np.stack([compact[y, x] for y, x in nbrs]) * q
    rhs_w = (weights * nbr_fixed)[..., None, None]
    slot_w = np.insert(-weights, 2, weights.sum(axis=0), axis=0).T
    slot_on = np.insert(~nbr_fixed, 2, True, axis=0).T
    slot_on = np.broadcast_to(slot_on[:, None, :], (nf, q, 5))
    data = np.broadcast_to(slot_w[:, None, :], (nf, q, 5))[slot_on]
    indptr = np.zeros(nf * q + 1, dtype=np.intc)
    np.cumsum(slot_on.sum(axis=-1).ravel(), out=indptr[1:])
    rows = np.empty((nf, q, 5), dtype=np.intc)
    rows[..., 2] = np.arange(nf * q, dtype=np.intc).reshape(nf, q)
    ipx = np.argsort(px, axis=-1)
    ipy = np.argsort(py, axis=-1)
    partners = (ipy[fy - 1, fx], ipx[fy, fx - 1], px[fy, fx], py[fy, fx])
    rhs = np.zeros((nf, q, n))
    for slot, (y, x), base, w, sheet in zip((0, 1, 3, 4), nbrs, nbr_rows, rhs_w, partners):
        rows[..., slot] = base[:, None] + sheet
        rhs += w * v[y[:, None], x[:, None], sheet]
    lap = sp.csc_matrix((data, rows[slot_on], indptr), shape=(nf * q, nf * q))
    lu = spla.splu(lap, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, relax=1,
                   panel_size=1, options=dict(SymmetricMode=True))
    v[fy, fx] = lu.solve(rhs.reshape(nf * q, n)).reshape(nf, q, n)
    return v


def lsq_primitive(phi: np.ndarray, h: float) -> np.ndarray:
    """Dense least-squares primitive of -phi/4 on the grid graph, gauge psi[0] = 0.

    One equation per grid edge: psi(head) - psi(tail) equals the trapezoid
    integral of -phi/4 along the edge (dz = h on x-edges, i h on y-edges).
    The rank-deficient system is solved by `np.linalg.lstsq` and shifted so
    that node 0 carries zero.
    """
    ny, nx = phi.shape
    idx = np.arange(ny * nx).reshape(ny, nx)
    rows, rhs = [], []
    for tails, heads, dz in ((idx[:, :-1], idx[:, 1:], h), (idx[:-1, :], idx[1:, :], 1j * h)):
        for a, b in zip(tails.ravel(), heads.ravel()):
            row = np.zeros(ny * nx)
            row[b], row[a] = 1.0, -1.0
            rows.append(row)
            rhs.append(-0.25 * dz * (phi.flat[a] + phi.flat[b]) / 2)
    psi, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return (psi - psi[0]).reshape(ny, nx)


def _path_laplacian(m: int) -> sp.spmatrix:
    """Graph Laplacian of the path on m nodes (free ends)."""
    d = sp.diags([-1.0, 1.0], [0, 1], shape=(m - 1, m))
    return d.T @ d


def superlu_potential(phi: np.ndarray, h: float) -> np.ndarray:
    """Least-squares primitive of -phi/4 by a sparse LU solve, gauge psi[0] = 0.

    The right-hand side is the divergence of the trapezoid edge increments;
    the Neumann grid Laplacian, assembled as a Kronecker sum of path
    Laplacians, is made definite by eliminating node 0.
    """
    ny, nx = phi.shape
    gx = -(h / 8) * (phi[:, :-1] + phi[:, 1:])
    gy = -(1j * h / 8) * (phi[:-1] + phi[1:])
    div = np.zeros(phi.shape, dtype=complex)
    div[:, 1:] += gx
    div[:, :-1] -= gx
    div[1:] += gy
    div[:-1] -= gy
    lap = sp.kron(sp.eye(ny), _path_laplacian(nx)) + sp.kron(_path_laplacian(ny), sp.eye(nx))
    rhs = div.ravel()[1:]
    sol = spla.splu(lap.tocsc()[1:, 1:]).solve(np.stack([rhs.real, rhs.imag], 1))
    return np.append(0.0, sol[:, 0] + 1j * sol[:, 1]).reshape(ny, nx)


def ndimage_censor_refit(hopf, dilation: int, ring_width: int, degree: int):
    """Censor-and-refit of the Hopf density with scipy.ndimage morphology.

    The degenerate mask is dilated `dilation` times by the 4-neighbour cross,
    each 4-connected blob of the result is replaced by a degree-`degree`
    polynomial in z least-squares fitted on a collar `ring_width` cross
    dilations wide (or on every clean node when the collar has fewer than
    3 (degree + 1) of them).  Returns (phi_used, patched).
    """
    from scipy import ndimage

    phi = hopf.phi
    bad = ndimage.binary_dilation(hopf.degenerate, iterations=dilation)
    out = phi.copy()
    labels, count = ndimage.label(bad)
    z = hopf.zgrid()
    for lab in range(1, count + 1):
        blob = labels == lab
        ring = ndimage.binary_dilation(blob, iterations=ring_width) & ~bad
        if ring.sum() < 3 * (degree + 1):
            ring = ~bad
        if not ring.any():
            continue
        zc = z[blob].mean()
        scale = max(float(np.abs(z[ring] - zc).max()), hopf.spacing)
        t = (z[ring] - zc) / scale
        vand = np.stack([t**p for p in range(degree + 1)], axis=1)
        coef, *_ = np.linalg.lstsq(vand, phi[ring], rcond=None)
        tin = (z[blob] - zc) / scale
        out[blob] = np.stack([tin**p for p in range(degree + 1)], axis=1) @ coef
    return out, bad


def sqrt_disc_energy(radius: float) -> float:
    """Radial quadrature of the square-root field's energy density.

    Both branches contribute |d/dz sqrt(z)|^2 * 2 each, totalling 1/|z|;
    integrating rho * (1/rho) over angles gives 2*pi*R.
    """
    val, _ = quad(lambda rho: (1.0 / rho) * 2.0 * math.pi * rho, 0.0, radius)
    return val


#: Dirichlet energy of the square-root field z^(1/2) on [-1, 1]^2, which is
#: the least energy of a two-valued map with its values on the rim.  A
#: holomorphic Q-valued map is Dirichlet-minimising because it is
#: calibrated: |Du|^2 >= 2 det Du pointwise, with equality exactly for
#: conformal sheets, and the integral of det Du over the square depends on
#: the rim values alone.  Both sheets +-sqrt(z) have |Du|^2 = 2 |u'|^2 =
#: 1 / (2 |z|), so the energy is the integral of 1/|z| over the square:
#: 4 * 2 * integral_0^(pi/4) sec(theta) dtheta = 8 ln(1 + sqrt(2)).
SQRT_SQUARE_ENERGY = 8.0 * math.log(1.0 + math.sqrt(2.0))


def sqrt_circle_distance_to_branch(radius: float) -> float:
    """G(f(z), 2[[0]]) for |z| = radius: sqrt(2 |z|), exact."""
    return math.sqrt(2.0 * radius)


def sqrt_circle_oscillation(radius: float, samples: int = 720) -> float:
    """Max pairwise assignment distance of the square-root pair on a circle.

    Dense exact sampling: for each angle pair the distance is
    sqrt(2) * min(|a - b|, |a + b|) with a, b the principal roots.
    """
    th = np.linspace(0.0, 2 * math.pi, samples, endpoint=False)
    roots = np.sqrt(radius) * np.exp(0.5j * th)
    a = roots[:, None]
    b = roots[None, :]
    d = math.sqrt(2.0) * np.minimum(np.abs(a - b), np.abs(a + b))
    return float(d.max())


def node_stencil_hopf(values: np.ndarray, axes: np.ndarray, h: float):
    """Hopf density of (ny, nx, Q, n) values, rim replicated, and the
    degenerate mask, False on the rim, from a stencil matched node by node.

    The values are projected onto the rows of axes by `einsum`, and each
    interior node matches each of its four neighbours to itself by its own
    `assign` call, so every edge is matched once from each end.
    """
    from qvalued.qspace import assign

    v = np.einsum("an,yxqn->yxqa", axes, values)
    c = v[1:-1, 1:-1]
    east, west, north, south = (
        np.take_along_axis(nb, assign(c, nb)[0][..., None], axis=-2)
        for nb in (v[1:-1, 2:], v[1:-1, :-2], v[2:, 1:-1], v[:-2, 1:-1])
    )
    du, dv = (east - west) / (2 * h), (north - south) / (2 * h)
    uu = np.einsum("...qa,...qa->...", du, du)
    vv = np.einsum("...qa,...qa->...", dv, dv)
    phi = uu - vv - 2j * np.einsum("...qa,...qa->...", du, dv)
    q = values.shape[2]
    core = np.zeros(c.shape[:2], dtype=bool)
    if q >= 2:
        dmin = np.full(c.shape[:2], np.inf)
        for i in range(q):
            for j in range(i + 1, q):
                dmin = np.minimum(dmin, np.linalg.norm(c[:, :, i] - c[:, :, j], axis=-1))
        inc = np.zeros(c.shape[:2])
        for nb in (east, west, north, south):
            inc = np.maximum(inc, np.linalg.norm(nb - c, axis=-1).max(-1))
        core = dmin <= 8.0 * inc
    return np.pad(phi, 1, mode="edge"), np.pad(core, 1)


def einsum_embedding(values: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Sorted projections of (ny, nx, Q, n) values onto the rows of axes, by `einsum`."""
    proj = np.einsum("an,yxqn->yxaq", axes, values)
    ny, nx = values.shape[:2]
    return np.sort(proj, axis=-1).reshape(ny, nx, -1)


def max_pairwise_distance(vals: np.ndarray) -> float:
    """Largest distance between any two rows, by the direct m x m difference
    array, built 64 rows at a time."""
    d2 = max(((vals[i : i + 64, None, :] - vals[None, :, :]) ** 2).sum(-1).max()
             for i in range(0, vals.shape[0], 64))
    return float(math.sqrt(d2))


def index_bilinear(arr: np.ndarray, f, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal (ny, nx, m) array at physical points,
    each corner read by 2-D integer indexing and the four weighted corners
    summed in one expression."""
    pts = np.asarray(pts, dtype=np.float64)
    gx = (pts[..., 0] - f.origin[0]) / f.spacing
    gy = (pts[..., 1] - f.origin[1]) / f.spacing
    if np.any(gx < -1e-9) or np.any(gx > f.nx - 1 + 1e-9) or np.any(gy < -1e-9) or np.any(
        gy > f.ny - 1 + 1e-9
    ):
        raise ValueError("interpolation point outside the grid")
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


def reference_sorted_projections(directions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ascending projections of (..., Q, n) sheets onto (P, n) directions,
    shape (..., P, Q): the package's earlier kernel, numpy's default sort."""
    return np.sort(project_sheets(directions, values), axis=-1)


def stable_sorted_rows(a: np.ndarray) -> np.ndarray:
    """Each row along the last axis sorted by Python's `sorted`, which is
    stable: equal values, 0.0 and -0.0 among them, keep their order."""
    rows = a.reshape(-1, a.shape[-1])
    return np.array([sorted(row) for row in rows.tolist()], dtype=np.float64).reshape(a.shape)


def reference_bilinear_array(arr: np.ndarray, f, pts: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a nodal array (ny, nx, m) at physical points:
    the package's earlier kernel, with (..., 1)-wide weights."""
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
    ux, uy = 1 - tx, 1 - ty
    rows = arr.reshape(-1, arr.shape[-1])
    base = j0 * f.nx + i0
    out = np.take(rows, base, axis=0)
    out *= ux
    out *= uy
    out += np.take(rows, base + 1, axis=0) * tx * uy
    out += np.take(rows, base + f.nx, axis=0) * ux * ty
    out += np.take(rows, base + f.nx + 1, axis=0) * tx * ty
    return out


def linspace_circle_points(w0, r: float, spacing: float, most: int | None = None) -> np.ndarray:
    """Resolution-proportional circle sample, at most ``most`` points: the
    package's earlier `circle_points`, its angles from `np.linspace`."""
    from qvalued.field import _circle_size

    size = _circle_size(r, spacing) if most is None else min(_circle_size(r, spacing), most)
    th = np.linspace(0.0, 2 * math.pi, size, endpoint=False)
    return np.stack([w0[0] + r * np.cos(th), w0[1] + r * np.sin(th)], axis=-1)


def full_slice_scan(f, frame, w0, radius) -> tuple[float, float]:
    """`courant_lebesgue_slice` with `max_pairwise_distance` run at every
    radius of the scan, none skipped, each circle interpolated on its own."""
    from qvalued import embed_grid
    from qvalued.field import SCAN_CIRCLE_POINTS

    farr = embed_grid(f, frame)
    radii = np.arange(radius / 2, radius + f.spacing / 4, f.spacing)
    radii[-1] = min(radii[-1], radius)
    best = (float("nan"), float("inf"))
    for r in radii:
        pts = linspace_circle_points(w0, r, f.spacing, most=SCAN_CIRCLE_POINTS)
        osc = max_pairwise_distance(index_bilinear(farr, f, pts))
        if osc < best[1]:
            best = (float(r), osc)
    return best


def embedded_tau_star(f, frame, w_star, w0, r) -> float:
    """tau* read in the frame embedding: the least distance over the circle
    of `linspace_circle_points` between the bilinear interpolant of xi0 of f
    and xi0 of f(w*), the reading `tau_star` had before it read G."""
    farr = einsum_embedding(f.values, frame.directions[: f.n])
    vals = index_bilinear(farr, f, linspace_circle_points(w0, r, f.spacing))
    return float(np.linalg.norm(vals - farr[w_star], axis=-1).min())


def all_pairs_disc_oscillation(f, w0, r) -> float:
    """Assignment-metric oscillation over the grid nodes in U_r(w0), from
    one `assign` batch over every pair of them."""
    from qvalued.qspace import assign

    gx, gy = np.meshgrid(f.xs, f.ys)
    nodes = f.values[(gx - w0[0]) ** 2 + (gy - w0[1]) ** 2 <= r**2]
    if nodes.shape[0] < 2:
        return 0.0
    i, j = np.triu_indices(nodes.shape[0], 1)
    return float(np.sqrt(assign(nodes[i], nodes[j])[1]).max())


def full_grid_domain_derivative(f, frame, v) -> float:
    """Central-difference domain derivative from the energies of the whole
    interpolated grid at +t and -t."""
    from qvalued import InvalidStepError, embed_grid
    from qvalued.field import embedded_energy
    from qvalued.variations import _check_support_interior

    _check_support_interior(f, v)
    t = f.spacing**2
    xg, yg = np.meshgrid(f.xs, f.ys)
    pts = np.stack([xg, yg], axis=-1)
    disp = v.displacement(pts)
    jac = v.jacobian(pts)
    for sgn in (1.0, -1.0):
        m = np.eye(2) + sgn * t * jac
        det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
        if np.any(det <= 0):
            raise InvalidStepError(f"step {t} makes the domain map non-diffeomorphic")
    farr = embed_grid(f, frame)
    e_plus = embedded_energy(index_bilinear(farr, f, pts + t * disp)).total
    e_minus = embedded_energy(index_bilinear(farr, f, pts - t * disp)).total
    return (e_plus - e_minus) / (2 * t)


def full_grid_range_derivative(f, frame, rv, comp=None) -> float:
    """Central-difference range derivative from the matched energies of the
    whole varied field at +t and -t."""
    from qvalued import (GridField, NotInBallError, dirichlet_energy_matched, harmonic_companion,
                         hopf_differential)
    from qvalued.variations import cutoff_weights

    if comp is None:
        comp = harmonic_companion(hopf_differential(f, frame))
    lam = cutoff_weights(f, comp, rv)
    sigma = rv.sigma
    if not math.isinf(sigma):
        active = lam > 0
        if active.any():
            sheets = f.values[active]
            d = np.linalg.norm(sheets[..., None, :] - rv.sites, axis=-1).min(-1)
            if d.max() > 0.4 * sigma + 1e-9:
                raise NotInBallError(
                    "a sheet under the cutoff leaves its 2/5-sigma site ball; "
                    "shrink rho or use a finer level"
                )
    t = f.spacing**2
    gam = rv.retraction(f.values)
    bump = lam[..., None, None] * gam
    plus = GridField(f.values + t * bump, f.spacing, f.origin, f.boundary_mask)
    minus = GridField(f.values - t * bump, f.spacing, f.origin, f.boundary_mask)
    return (dirichlet_energy_matched(plus).total - dirichlet_energy_matched(minus).total) / (2 * t)


def full_grid_cutoff(dst, rho, eps, f, w0, r) -> tuple[np.ndarray, np.ndarray]:
    """Cell weights of the psi_k cutoff over the whole grid, and the mask of
    the cells whose centers lie in the disc U_r(w0).

    Every cell samples the bilinear reconstruction of the nodal distance
    field dst at three points per axis and averages the clipped quintic ramp
    lambda((rho - d)/eps) over them.
    """
    n = 3
    lam = np.zeros((f.ny - 1, f.nx - 1))
    for a in range(n):
        for b in range(n):
            ta = (a + 0.5) / n
            tb = (b + 0.5) / n
            dsub = (
                dst[:-1, :-1] * (1 - ta) * (1 - tb)
                + dst[:-1, 1:] * ta * (1 - tb)
                + dst[1:, :-1] * (1 - ta) * tb
                + dst[1:, 1:] * ta * tb
            )
            t = np.clip((rho - dsub) / eps, 0.0, 1.0)
            lam += t**3 * (10.0 - 15.0 * t + 6.0 * t**2)
    lam /= n**2
    return lam, full_disc_cell_mask(f, w0, r)


def full_disc_cell_mask(f, w0, r) -> np.ndarray:
    """The cells whose centers lie in the disc U_r(w0), tested over the whole
    (ny - 1, nx - 1) cell grid."""
    cx = f.origin[0] + f.spacing * (np.arange(f.nx - 1) + 0.5)
    cy = f.origin[1] + f.spacing * (np.arange(f.ny - 1) + 0.5)
    gx, gy = np.meshgrid(cx, cy)
    return (gx - w0[0]) ** 2 + (gy - w0[1]) ** 2 <= r**2


def full_grid_cutoff_cells(f, comp) -> np.ndarray:
    """Energy of the augmented map (f, h) on every grid cell: f's matched
    energy plus the four-corner average of |grad h|^2 times the cell area."""
    from qvalued import dirichlet_energy_matched

    g = comp.grad_sq()
    e_h = (g[:-1, :-1] + g[:-1, 1:] + g[1:, :-1] + g[1:, 1:]) / 4 * f.spacing**2
    return dirichlet_energy_matched(f).per_cell + e_h


def full_grid_psi(dst, e_cell, rho, eps, f, w0, r) -> float:
    """Cutoff-weighted disc energy: the `full_grid_cutoff` weights times the
    cell energies e_cell, summed over the disc cells."""
    lam, disc = full_grid_cutoff(dst, rho, eps, f, w0, r)
    return float((lam * e_cell)[disc].sum())


def retraction_lipschitz(samples: int = 2_000_001) -> float:
    """Lipschitz constant of y -> chi(|y|)(-y) at sigma = 1, chi = 1 - S((s - 0.4)/0.2)
    with the quintic ramp S: the larger of the tangential factor max chi = 1
    and the steepest slope of the radial profile s chi(s), by finite
    differences on a dense grid of s."""
    s = np.linspace(0.0, 0.6, samples)
    t = np.clip((s - 0.4) / 0.2, 0.0, 1.0)
    profile = s * (1.0 - t**3 * (10.0 - 15.0 * t + 6.0 * t**2))
    return max(1.0, float(np.abs(np.diff(profile) / np.diff(s)).max()))


def sampled_inclusion_witness(chain, samples: int, seed: int = 0):
    """A member of some level's sigma-ball that lies outside the next level's
    rho-ball, as (level of that rho-ball, member points), or None.

    ``samples`` members per level are drawn uniformly from the sigma-ball
    around the rebuilt level tuple: Gaussian offset directions, radius sigma
    times U^(1/(Qn)).  Each member's distance to the next level's tuple is
    the minimum over every permutation, taken in chunks of members so that
    memory stays small at Q = 7.
    """
    rng = np.random.default_rng(seed)
    for k in range(1, len(chain.levels)):
        prev, cur = chain.levels[k - 1], chain.levels[k]
        if math.isinf(prev.sigma):
            continue
        base = prev.decomposition.rebuild().points
        target = cur.decomposition.rebuild().points
        q, n = base.shape
        offsets = rng.normal(size=(samples, q, n))
        norms = np.sqrt((offsets**2).sum(axis=(1, 2), keepdims=True))
        norms[norms == 0] = 1.0
        radii = prev.sigma * rng.uniform(0, 1, size=(samples, 1, 1)) ** (1.0 / (q * n))
        members = base[None] + offsets / norms * radii
        perms = _permutations(q)
        chunk = max(1, (1 << 18) // perms.size)
        for lo in range(0, samples, chunk):
            batch = members[lo:lo + chunk]
            pair = ((target[None, :, None, :] - batch[:, None, :, :]) ** 2).sum(axis=-1)
            dist = np.sqrt(pair[:, np.arange(q), perms].sum(axis=-1).min(axis=-1))
            bad = np.flatnonzero(dist > cur.rho * (1 + 1e-12))
            if bad.size:
                return k, batch[bad[0]]
    return None
