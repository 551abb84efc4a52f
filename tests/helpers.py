"""Field builders and random-instance generators shared across the tests."""

import dataclasses

import numpy as np

from qvalued import GridField, GridSpec, QPoint, metric_g, sqrt_field


def random_qpoint(rng, q, n, scale=1.0):
    return QPoint(rng.normal(scale=scale, size=(q, n)))


def shrunk_chain_level(chain, k, factor=0.99):
    """The chain with rho_k set to factor * (sigma_{k-1} + G(q^{k-1}, q^k)),
    so that for factor < 1 level k - 1's sigma-ball leaves level k's
    rho-ball."""
    prev, cur = chain.levels[k - 1], chain.levels[k]
    reach = prev.sigma + metric_g(prev.decomposition.rebuild(), cur.decomposition.rebuild())
    levels = list(chain.levels)
    levels[k] = dataclasses.replace(cur, rho=factor * reach)
    return dataclasses.replace(chain, levels=tuple(levels))


def random_qpoint_pair(rng, q, n, scale=1.0):
    return random_qpoint(rng, q, n, scale), random_qpoint(rng, q, n, scale)


def unit_square_grid(nn, half=1.0):
    h = 2.0 * half / (nn - 1)
    return GridSpec(nn, nn, h, (-half, -half))


def sqrt_grid_field(nn, half=1.0):
    return sqrt_field(unit_square_grid(nn, half))


def root_grid_field(nn, q, z0=0.0, half=1.0):
    """All Q complex Q-th roots of z - z0 at every node, branched at z0."""
    spec = unit_square_grid(nn, half)
    x, y = meshgrid_for(spec)
    w = (x + 1j * y - z0) ** (1.0 / q)
    w = w[..., None] * np.exp(2j * np.pi * np.arange(q) / q)
    return GridField(np.stack([w.real, w.imag], axis=-1), spec.spacing, spec.origin)


def meshgrid_for(spec):
    xs = spec.origin[0] + spec.spacing * np.arange(spec.nx)
    ys = spec.origin[1] + spec.spacing * np.arange(spec.ny)
    return np.meshgrid(xs, ys)


def harmonic_boundary_field(nn, half=1.0):
    """Single-valued field with Re z^3 boundary data, zero interior start."""
    spec = unit_square_grid(nn, half)
    x, y = meshgrid_for(spec)
    g = x**3 - 3 * x * y**2
    vals = np.zeros((nn, nn, 1, 1))
    mask = np.zeros((nn, nn), dtype=bool)
    mask[0] = mask[-1] = True
    mask[:, 0] = mask[:, -1] = True
    vals[..., 0, 0] = np.where(mask, g, 0.0)
    return GridField(vals, spec.spacing, spec.origin), g


def two_sheet_field(nn, seed, separation=7.0, amplitude=1.0, freq=1.0, half=1.0):
    """Two smooth sheets whose projections stay disjoint on both axes."""
    rng = np.random.default_rng(seed)
    spec = unit_square_grid(nn, half)
    x, y = meshgrid_for(spec)
    a1, a2 = rng.uniform(0.6, 1.0, 2) * amplitude
    p1, p2 = rng.uniform(0, 2 * np.pi, 2)
    off = separation / np.sqrt(2.0)
    s1 = np.stack(
        [a1 * np.cos(freq * x + p1) * np.sin(freq * y), a1 * np.sin(freq * (x + y) + p2)],
        axis=-1,
    )
    s2 = np.stack(
        [off + a2 * np.sin(freq * (x - y) + p1), off + a2 * np.cos(freq * y + p2)],
        axis=-1,
    )
    return GridField(np.stack([s1, s2], axis=2), spec.spacing, spec.origin)


def noisy_copy(f, scale=0.05, seed=99):
    """Interior-noise copy of a field (boundary untouched): a non-stationary witness."""
    rng = np.random.default_rng(seed)
    g = f.copy()
    free = ~g.boundary_mask
    g.values[free] += rng.normal(scale=scale, size=g.values[free].shape)
    return g


def count_embed_grid(monkeypatch) -> list:
    """Record the shape of every full-grid `embed_grid` call in the package."""
    import qvalued.analysis as analysis
    import qvalued.field as field
    import qvalued.variations as variations

    inner = field.embed_grid
    calls = []

    def counting(f, frame):
        calls.append(f.values.shape)
        return inner(f, frame)

    for mod in (field, analysis, variations):
        monkeypatch.setattr(mod, "embed_grid", counting)
    return calls


def count_analysis_match_edges(monkeypatch) -> list:
    """Record the shape of every edge matching `qvalued.analysis` asks
    `_match_edges` for: one per Hopf stencil build."""
    import qvalued.analysis as analysis

    inner = analysis._match_edges
    calls = []

    def counting(values):
        calls.append(values.shape)
        return inner(values)

    monkeypatch.setattr(analysis, "_match_edges", counting)
    return calls


def branch_pair_field(nn, a, b, half=1.0):
    """Both values of sqrt((z - a)(z - b)), branched at a and at b."""
    spec = unit_square_grid(nn, half)
    x, y = meshgrid_for(spec)
    z = x + 1j * y
    w = np.sqrt(z - a) * np.sqrt(z - b)
    sheet = np.stack([w.real, w.imag], axis=-1)
    return GridField(np.stack([sheet, -sheet], axis=2), spec.spacing, spec.origin)


def relabelled(f, seed):
    """The field with its sheets in a seeded random order at every node."""
    perm = np.argsort(np.random.default_rng(seed).random(f.values.shape[:3]), axis=-1)
    return dataclasses.replace(f, values=np.take_along_axis(f.values, perm[..., None], axis=2))


def range_isometry(f, angle=0.0, shift=(0.0, 0.0)):
    """The planar field with every value v taken to R(angle) v + shift."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return dataclasses.replace(f, values=f.values @ rot.T + np.asarray(shift))


def d4_image(f, turns, flip=False):
    """The image g of a field on a square grid centred at 0 under one of the
    grid's eight symmetries, with its point map T, so that g(T(p)) = f(p).

    The node axes are turned by ``turns`` quarter turns (`np.rot90` of the
    (iy, ix) axes), then with ``flip`` the rows are reversed.  A quarter
    turn gives g(x, y) = f(-y, x) and the row reversal g(x, y) = f(x, -y),
    so p = M T(p) for M = R^turns F, R the rotation by +90 degrees and F
    the reflection y -> -y; T is M's transpose, with entries 0 and +-1, so
    it moves a point without rounding.
    """
    if f.nx != f.ny or not np.allclose(f.origin, -(f.nx - 1) * f.spacing / 2, rtol=1e-12):
        raise ValueError("the D4 action needs a square grid centred at 0")

    def act(a):
        a = np.rot90(a, turns, axes=(0, 1))
        return np.ascontiguousarray(a[::-1] if flip else a)

    m = np.linalg.matrix_power(np.array([[0, -1], [1, 0]]), turns) @ np.diag([1, -1 if flip else 1])
    g = dataclasses.replace(f, values=act(f.values), boundary_mask=act(f.boundary_mask))
    return g, lambda p: tuple(float(c) for c in m.T @ np.asarray(p, dtype=np.float64))


def scaled(f, s):
    """The field with every value v taken to s v."""
    return dataclasses.replace(f, values=f.values * s)
