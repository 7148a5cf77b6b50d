"""Worst-case correlation of the tetrahedral receive array.

The correlation of a tetrahedral channel depends on the receive rotation only
through the transverse direction seen in the array frame, so maximising over
all rotations reduces to maximising over the unit sphere. The correlation is
invariant under the tetrahedral symmetries and under ``v -> -v``, hence under
T_h (the 24 cyclic coordinate permutations with any signs), and so is a dense
deterministic icosphere grid. The global maximum ``mu*(eta)`` is therefore
located on the grid points of one T_h cell (1/24 of the sphere) and polished
by Newton ascent on the sphere, batched over every eta of a curve; the
resulting curve drives the distance-range design.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from ._csv import write_csv
from .channel import reduce_channel
from .geometry import TETRAHEDRON_DIRECTIONS, _fibonacci_sphere

__all__ = [
    "edge_code",
    "mu_of_direction",
    "mu_star",
    "mu_star_bound",
    "mu_pent_star",
    "MuStarCurve",
    "compute_mu_star_curve",
    "default_curve",
    "edge_code_worst_distortion",
    "edge_code_region_minima",
    "best_submatrix",
    "icosphere_vertices",
    "fundamental_domain",
]

# eta of a non-neighbouring pentagon pair relative to a neighbouring one
PENTAGON_ETA_SCALE = 2.0 / (1.0 + np.sqrt(5.0))

_ROW_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# sphere samples per piece of the edge-code distortion scan (48 MB of dot products)
_EDGE_CHUNK = 500_000


def edge_code() -> NDArray:
    """The 12 unit vectors along the (signed) tetrahedron edges."""
    r = TETRAHEDRON_DIRECTIONS
    g = [np.sqrt(3.0 / 8.0) * (r[m] - r[l]) for m in range(4) for l in range(4) if m != l]
    return np.array(g)


def mu_of_direction(eta: float, v: NDArray) -> NDArray | float:
    """Tetrahedral correlation for transverse direction(s) ``v``:
    ``|sum_m exp(i (pi/eta) sqrt(3/8) r_m . v)| / 4``."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    v = np.asarray(v, dtype=float)
    scalar = v.ndim == 1
    vv = np.atleast_2d(v)
    if np.any(np.abs(np.linalg.norm(vv, axis=-1) - 1.0) > 1e-9):
        raise ValueError("directions must be unit vectors")
    arg = (np.pi / eta) * np.sqrt(3.0 / 8.0) * (vv @ TETRAHEDRON_DIRECTIONS.T)
    mu = np.abs(np.exp(1j * arg).sum(axis=-1)) / 4.0
    return float(mu[0]) if scalar else mu


@lru_cache(maxsize=4)
def icosphere_vertices(subdivisions: int = 6) -> NDArray:
    """Vertices of a subdivided icosahedron (10 * 4^n + 2 points).

    Each level splits every face (a, b, c) into four at the edge midpoints
    ab, bc, ca; a new vertex is numbered when its edge is first met in face
    order. Midpoints are normalised by ``sqrt`` of a (1 x 3) @ (3 x 1) product,
    which rounds as ``np.linalg.norm`` does on one 3-vector.
    """
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ]
    verts = np.array([np.array(v, dtype=float) / np.linalg.norm(v) for v in verts])
    faces = np.array([
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ], dtype=np.int64)
    for _ in range(subdivisions):
        n = len(verts)
        edges = np.stack([faces, np.roll(faces, -1, axis=1)], axis=-1).reshape(-1, 2)
        keys = edges.min(axis=1) * n + edges.max(axis=1)
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first)  # unique edges in order of first encounter
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        i, j = edges[first[order]].T
        m = verts[i] + verts[j]
        norms = np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        verts = np.concatenate([verts, m / norms])
        ab, bc, ca = (n + rank[inverse]).reshape(-1, 3).T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    verts.setflags(write=False)
    return verts


def fundamental_domain(pts: NDArray) -> NDArray:
    """The points of ``pts`` in the cell ``0 <= x <= z, 0 <= y <= z``.

    The 24 maps of T_h (cyclic coordinate permutations with any signs) send
    this cell onto the whole sphere. ``mu(v)`` is invariant under them (they
    permute the tetrahedron directions up to a common sign) and so is the
    icosphere, so a maximum over the cell is a maximum over the grid."""
    x, y, z = pts.T
    return pts[(x >= 0.0) & (y >= 0.0) & (z >= x) & (z >= y)]


def _solve(etas: NDArray) -> tuple[NDArray, NDArray]:
    """``mu*`` and a maximiser for every eta in ``etas`` at once; see ``mu_star``."""
    candidates = 10  # grid points ascended per eta
    if np.any(etas <= 0):
        raise ValueError("eta must be positive")
    a = (np.pi / etas) * np.sqrt(3.0 / 8.0)
    pts = fundamental_domain(icosphere_vertices())
    dots = TETRAHEDRON_DIRECTIONS @ pts.T
    start = np.empty((len(etas), candidates), dtype=np.intp)
    for i, scale in enumerate(a):
        arg = scale * dots
        s2 = np.cos(arg).sum(axis=0) ** 2 + np.sin(arg).sum(axis=0) ** 2
        start[i] = np.argpartition(s2, -candidates)[-candidates:]
    # ascend F(v) = 16 mu^2 - 4 = sum_i cos(b g_i . v) over the edge code g_i
    g = edge_code()
    b = np.repeat(np.pi / etas, candidates)[:, None]
    gradient_rate = 1.0 / (4.0 * b ** 2 + 12.0 * b)  # 1 / (bound on the tangent Hessian)
    v = pts[start.ravel()]
    for _ in range(200):
        e1 = np.cross(v, np.where(np.abs(v[:, :1]) < 0.9, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
        e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
        chart = np.stack([e1, np.cross(v, e1)], axis=1)  # orthonormal tangent basis at v
        phase = b * (v @ g.T)
        sin, cos = np.sin(phase), np.cos(phase)
        proj = chart @ g.T
        grad = -np.einsum("kip,kp->ki", proj, b * sin)
        # the chart's Euclidean Hessian minus (v . Euclidean gradient)
        hess = (-np.einsum("kip,kjp,kp->kij", proj, proj, b ** 2 * cos)
                + (sin * phase).sum(axis=1)[:, None, None] * np.eye(2))
        concave = ((hess[:, 0, 0] < 0) & (np.linalg.det(hess) > 0))[:, None]
        newton = -np.linalg.solve(np.where(concave[..., None], hess, -np.eye(2)),
                                  grad[..., None])[..., 0]
        step = np.where(concave, newton, grad * gradient_rate)
        w = v + np.einsum("ki,kij->kj", step, chart)
        v = w / np.linalg.norm(w, axis=1, keepdims=True)
        if np.abs(step).max() < 1e-13:
            break
    cand = np.concatenate([pts[start], v.reshape(start.shape + (3,))], axis=1)
    arg = a[:, None, None] * (cand @ TETRAHEDRON_DIRECTIONS.T)
    mu = np.hypot(np.cos(arg).sum(axis=-1), np.sin(arg).sum(axis=-1)) / 4.0
    rows, best = np.arange(len(etas)), np.argmax(mu, axis=1)
    return mu[rows, best], cand[rows, best]


def mu_star(eta: float) -> tuple[float, NDArray]:
    """Global maximum of the tetrahedral correlation over all orientations,
    and a maximising transverse direction.

    The 40,962-point icosphere grid is scanned on its 1,739 points in the
    T_h cell ``0 <= x <= z, 0 <= y <= z`` (see ``fundamental_domain``); every
    other grid point is a symmetric copy of one of them, with the same value.
    The best cell points, so no two symmetric copies of one basin, start a
    Riemannian Newton ascent on the unit sphere (gradient steps where the
    tangent Hessian is not negative definite). No value falls below the grid
    maximum, and as the grid pitch is far below the objective's angular scale
    (~eta / 2 rad), the best cells bracket the global basin.
    ``compute_mu_star_curve`` batches all etas.
    """
    values, dirs = _solve(np.array([eta], dtype=float))
    return float(values[0]), dirs[0]


def mu_star_bound(eta: float) -> float:
    """Closed-form upper bound ``(1 + cos(pi / (2 sqrt(2) eta))) / 2`` on
    ``mu*(eta)``, established for ``eta >= 1`` only."""
    if eta < 1.0:
        raise ValueError("the closed-form bound holds for eta >= 1 only")
    return 0.5 * (1.0 + np.cos(np.pi / (2.0 * np.sqrt(2.0) * eta)))


@dataclass(frozen=True)
class MuStarCurve:
    """``mu*`` sampled on a fixed eta grid, with per-point maximisers.

    The grid extends below ``export_from`` so that the pentagon branch
    ``mu*(2 eta / (1 + sqrt 5))`` stays on-grid; exports cover
    ``[export_from, etas[-1]]``. Values between grid points interpolate
    linearly.
    """

    etas: NDArray
    values: NDArray
    directions: NDArray
    export_from: float

    def value_at(self, eta) -> NDArray | float:
        eta = np.asarray(eta, dtype=float)
        if np.any(eta < self.etas[0] - 1e-12) or np.any(eta > self.etas[-1] + 1e-12):
            raise ValueError(f"eta outside cached grid [{self.etas[0]:g}, {self.etas[-1]:g}]")
        out = np.interp(eta, self.etas, self.values)
        return float(out) if out.ndim == 0 else out

    def pent_at(self, eta) -> NDArray | float:
        return np.minimum(self.value_at(eta),
                          self.value_at(np.asarray(eta, dtype=float) * PENTAGON_ETA_SCALE))

    def export_mask(self) -> NDArray:
        return self.etas >= self.export_from - 1e-12

    def write_csv(self, path) -> None:
        """Columns: eta, mu_star, mu_star_pent, closed-form bound (blank for eta < 1)."""
        mask = self.export_mask()
        write_csv(path, ("eta", "mu_star", "mu_star_pent", "upper_bound"),
                  ((eta, val, self.pent_at(eta), mu_star_bound(eta) if eta >= 1.0 else None)
                   for eta, val in zip(self.etas[mask], self.values[mask])))


def compute_mu_star_curve(eta_start: float = 0.3, eta_stop: float = 3.0,
                          step: float = 0.01) -> MuStarCurve:
    """Evaluate ``mu*`` on a regular eta grid (plus the pentagon extension)."""
    if not 0 < eta_start < eta_stop < np.inf:
        raise ValueError("need 0 < eta_start < eta_stop")
    if not 0 < step < np.inf:
        raise ValueError("eta step must be positive")
    lo = eta_start * PENTAGON_ETA_SCALE
    n_below = int(np.ceil((eta_start - lo) / step))
    etas = eta_start + step * np.arange(-n_below, np.floor((eta_stop - eta_start) / step) + 1)
    if etas[0] <= 0:
        raise ValueError(f"eta step {step:g} extends the grid to eta = {etas[0]:g} <= 0")
    values, dirs = _solve(etas)
    return MuStarCurve(etas=etas, values=values, directions=dirs, export_from=eta_start)


@lru_cache(maxsize=1)
def default_curve() -> MuStarCurve:
    """The standard cached curve on eta in [0.3, 3] with step 0.01."""
    return compute_mu_star_curve()


def mu_pent_star(eta: float, curve: MuStarCurve | None = None) -> float:
    """Worst-case correlation with pentagonal transmit selection:
    ``min(mu*(eta), mu*(2 eta / (1 + sqrt 5)))``."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if curve is not None:
        return float(curve.pent_at(eta))
    return float(_solve(np.array([eta, eta * PENTAGON_ETA_SCALE]))[0].min())


def edge_code_worst_distortion(samples: int = 2_000_000) -> float:
    """Worst-case inner product when quantising the sphere with the 12 edge
    directions: ``min_v max_i g_i . v`` over a dense deterministic sample.
    Converges to sqrt(1/2) from above as the sample refines."""
    if samples < 12:
        raise ValueError("need a meaningful sample size")
    return float(edge_code_region_minima(samples).min())


def edge_code_region_minima(samples: int = 2_000_000) -> NDArray:
    """Per-Voronoi-region minima of ``g_i . v``; the 12 regions are congruent
    so the entries agree up to sampling error."""
    g = edge_code()
    minima = np.full(12, np.inf)
    for s in range(0, samples, _EDGE_CHUNK):
        v = _fibonacci_sphere(samples, s, min(s + _EDGE_CHUNK, samples))
        dots = v @ g.T
        region = np.argmax(dots, axis=1)
        np.minimum.at(minima, region, dots[np.arange(len(v)), region])
    return minima


def best_submatrix(h: NDArray) -> tuple[tuple[int, int], float]:
    """Row pair of a 4 x 2 channel whose 2 x 2 submatrix has the least column
    correlation; for a tetrahedral channel with eta >= 1 the returned value is
    at most ``cos(pi / (2 sqrt(2) eta))``."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (4, 2):
        raise ValueError("expected a 4 x 2 channel matrix")
    best_pair, best_mu = _ROW_PAIRS[0], np.inf
    for m, l in _ROW_PAIRS:
        mu = reduce_channel(h[[m, l], :]).mu
        if mu < best_mu:
            best_pair, best_mu = (m, l), mu
    return best_pair, float(best_mu)


def __getattr__(name: str):
    # nothing here uses scipy.optimize; ``minimize`` is only looked up by the
    # benchmark's tracer, so it is imported on that lookup, not with the module
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
