"""Seeded inputs and independent oracles for the benchmark.

Nothing here calls into qvalued: the generators produce plain node arrays
of shape (ny, nx, Q, n), and the oracles (direct sparse harmonic solve,
exhaustive or Hungarian edge matching) recompute what the benchmark checks
from first principles.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import linear_sum_assignment

HALF = 1.0  # every grid covers the square [-HALF, HALF]^2


def spacing(nn: int) -> float:
    return 2.0 * HALF / (nn - 1)


def _mesh(nn: int) -> tuple[np.ndarray, np.ndarray]:
    xs = -HALF + spacing(nn) * np.arange(nn)
    return np.meshgrid(xs, xs)


def rim_mask(ny: int, nx: int) -> np.ndarray:
    mask = np.zeros((ny, nx), dtype=bool)
    mask[0] = mask[-1] = True
    mask[:, 0] = mask[:, -1] = True
    return mask


def root_field(nn: int, q: int, z0: complex) -> np.ndarray:
    """All Q complex Q-th roots of z - z0 at every node, as points of R^2.

    For Q = 2 this is the square-root field with its branch point at z0.
    """
    x, y = _mesh(nn)
    z = x + 1j * y - z0
    w = np.abs(z) ** (1.0 / q) * np.exp(1j * np.angle(z) / q)
    vals = w[..., None] * np.exp(2j * math.pi * np.arange(q) / q)
    return np.stack([vals.real, vals.imag], axis=-1)


def two_sheet_field(nn: int, rng: np.random.Generator) -> np.ndarray:
    """Two smooth, non-harmonic sheets about 7 apart, so every optimal edge
    matching is the identity and a per-sheet harmonic solve is the exact
    minimiser of the matched energy."""
    x, y = _mesh(nn)
    a1, a2 = rng.uniform(0.6, 1.0, 2)
    p1, p2 = rng.uniform(0.0, 2 * math.pi, 2)
    off = 7.0 / math.sqrt(2.0)
    s1 = np.stack([a1 * np.cos(x + p1) * np.sin(y), a1 * np.sin(x + y + p2)], axis=-1)
    s2 = np.stack([off + a2 * np.sin(x - y + p1), off + a2 * np.cos(y + p2)], axis=-1)
    return np.stack([s1, s2], axis=2)


def edge_weights(ny: int, nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-integrated edge weights: 1 inside, 1/2 on rim-parallel edges."""
    wx = np.ones((ny, nx - 1))
    wx[0] = wx[-1] = 0.5
    wy = np.ones((ny - 1, nx))
    wy[:, 0] = wy[:, -1] = 0.5
    return wx, wy


def harmonic_extension(values: np.ndarray) -> np.ndarray:
    """Replace interior nodes by the rim-weighted 5-point harmonic extension
    of the rim values, sheet by sheet and coordinate by coordinate, through
    one sparse LU factorisation."""
    ny, nx = values.shape[:2]
    wx, wy = edge_weights(ny, nx)
    idx = np.arange(ny * nx).reshape(ny, nx)
    i = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    j = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = np.concatenate([wx.ravel(), wy.ravel()])
    lap = sp.coo_matrix(
        (np.concatenate([-w, -w, w, w]), (np.concatenate([i, j, i, j]), np.concatenate([j, i, i, j]))),
        shape=(ny * nx, ny * nx),
    ).tocsr()
    free = ~rim_mask(ny, nx).ravel()
    flat = values.reshape(ny * nx, -1).copy()
    rhs = -(lap[free][:, ~free] @ flat[~free])
    flat[free] = spla.splu(lap[free][:, free].tocsc()).solve(rhs)
    return flat.reshape(values.shape)


def _edge_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared assignment distance per edge: every permutation for Q <= 6,
    one Hungarian solve per edge above that."""
    shape, q, n = a.shape[:-2], a.shape[-2], a.shape[-1]
    a = a.reshape(-1, q, n)
    b = b.reshape(-1, q, n)
    if q <= 6:
        best = np.full(a.shape[0], np.inf)
        for perm in itertools.permutations(range(q)):
            d = a - b[:, perm, :]
            best = np.minimum(best, np.einsum("kqn,kqn->k", d, d))
    else:
        cost = ((a[:, :, None, :] - b[:, None, :, :]) ** 2).sum(-1)
        best = np.array([c[linear_sum_assignment(c)].sum() for c in cost])
    return best.reshape(shape)


def matched_energy(values: np.ndarray) -> float:
    """Edge-matched Dirichlet energy: weighted sum of squared assignment
    distances over every grid edge."""
    wx, wy = edge_weights(*values.shape[:2])
    gx2 = _edge_sq(values[:, :-1], values[:, 1:])
    gy2 = _edge_sq(values[:-1, :], values[1:, :])
    return float((wx * gx2).sum() + (wy * gy2).sum())


def write_grid_json(values: np.ndarray, path) -> None:
    """Write a grid on [-HALF, HALF]^2 in the CLI's JSON layout; floats
    round-trip exactly."""
    ny, nx, q, n = values.shape
    grid = {
        "nx": nx, "ny": ny, "x0": -HALF, "y0": -HALF, "h": spacing(nx), "Q": q, "n": n,
        "values": values.tolist(),
        "boundary_mask": rim_mask(ny, nx).astype(int).tolist(),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(grid, sort_keys=True, allow_nan=False))
        fh.write("\n")
