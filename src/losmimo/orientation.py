"""Worst-case correlation of the tetrahedral receive array.

The correlation of a tetrahedral channel depends on the receive rotation only
through the transverse direction seen in the array frame, so maximising over
all rotations reduces to maximising over the unit sphere. The correlation is
invariant under the tetrahedral symmetries and under ``v -> -v``, hence under
T_h (the 24 cyclic coordinate permutations with any signs), and so is a dense
deterministic icosphere grid. The global maximum ``mu*(eta)`` is therefore
located on the grid points of one T_h cell (1/24 of the sphere) and polished
by Newton ascent on the sphere, batched over every eta of a curve; the
resulting curve drives the distance-range design. Only the icosahedron faces
that reach the cell are subdivided, so the solver builds the cell's points
alone, with the bits and row order of the whole sphere's; the grid is
screened in float32 and ranked in float64 only where the screen's error
bound leaves a point a chance of the top; and each 2 x 2 Newton step is
taken in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from ._csv import write_csv
from .channel import mu_model
from .geometry import TETRAHEDRON_DIRECTIONS, make_layout

__all__ = [
    "edge_code",
    "mu_of_direction",
    "mu_star",
    "mu_star_bound",
    "MuStarCurve",
    "check_eta_grid",
    "compute_mu_star_curve",
    "default_curve",
    "icosphere_vertices",
    "fundamental_domain",
]

# eta of a non-neighbouring pentagon pair relative to a neighbouring one
PENTAGON_ETA_SCALE = 2.0 / (1.0 + np.sqrt(5.0))

# the standard mu* grid: first and last eta and step
ETA_START, ETA_STOP, ETA_STEP = 0.3, 3.0, 0.01
# the most etas of a grid, the pentagon extension included
ETA_POINTS = 100_000

# unit edge, so that d_m / spacing is sqrt(3/8) to the last bit
_TETRAHEDRON = make_layout("tetrahedron", spacing=1.0)


def edge_code() -> NDArray:
    """The 12 unit vectors along the (signed) tetrahedron edges."""
    r = TETRAHEDRON_DIRECTIONS
    g = [np.sqrt(3.0 / 8.0) * (r[m] - r[l]) for m in range(4) for l in range(4) if m != l]
    return np.array(g)


def mu_of_direction(eta: float, v: NDArray) -> NDArray | float:
    """Tetrahedral correlation for transverse direction(s) ``v``:
    ``|sum_m exp(i (pi/eta) sqrt(3/8) r_m . v)| / 4``; see ``channel.mu_model``."""
    return mu_model(_TETRAHEDRON, v, eta)


@lru_cache(maxsize=4)
def icosphere_vertices(subdivisions: int = 6) -> NDArray:
    """Vertices of a subdivided icosahedron (10 * 4^n + 2 points).

    Each level splits every face (a, b, c) into four at the edge midpoints
    ab, bc, ca; a new vertex is numbered when its edge is first met in face
    order. Midpoints are normalised by ``sqrt`` of a (1 x 3) @ (3 x 1) product,
    which rounds as ``np.linalg.norm`` does on one 3-vector.
    """
    return _subdivide(subdivisions)


@lru_cache(maxsize=4)
def _cell_grid(subdivisions: int = 6) -> NDArray:
    """``fundamental_domain(icosphere_vertices(subdivisions))``, bit for bit and
    row for row, built from the faces that reach the T_h cell alone."""
    pts = fundamental_domain(_subdivide(subdivisions, _reaches_cell))
    pts.setflags(write=False)
    return pts


# how far below 0 a vertex's x, y, z - x or z - y must be to fail that
# half-space: midpoints of failing vertices then fail it through rounding too
_CELL_MARGIN = 1e-12


def _reaches_cell(verts: NDArray, faces: NDArray) -> NDArray:
    """Mask of the faces that may hold points of the T_h cell.

    A face whose three vertices all fail one of the cell's half-spaces
    (x >= 0, y >= 0, z >= x, z >= y) holds none, nor does any of its
    descendants: their vertices lie in the cone of its own. So an edge whose
    midpoint can be a cell point has both of its faces kept, and it is first
    used where the whole sphere first uses it."""
    x, y, z = verts.T
    outside = np.stack([x, y, z - x, z - y], axis=1) < -_CELL_MARGIN
    return ~outside[faces].all(axis=1).any(axis=1)


def _subdivide(subdivisions: int, keep=None) -> NDArray:
    """The vertices of the icosahedron subdivided ``subdivisions`` times,
    splitting at each level only the faces that ``keep(verts, faces)`` (a
    face mask) passes, or every face if ``keep`` is None.

    Kept faces stay in the whole sphere's order (face f's children are
    4f .. 4f + 3), and a new vertex is numbered on its edge's first use in
    that order. A midpoint depends on its two endpoints alone, so every
    vertex has the whole sphere's bits, and the vertices whose edges keep
    both faces come in the whole sphere's row order.
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
        if keep is not None:
            faces = faces[keep(verts, faces)]
        n = len(verts)
        i, j = faces.ravel(), np.roll(faces, -1, axis=1).ravel()  # edges ab, bc, ca
        keys = np.minimum(i, j) * n + np.maximum(i, j)
        # a stable sort keeps each edge's uses in face order, its first use first
        order = np.argsort(keys, kind="stable")
        new = np.diff(keys[order], prepend=-1) != 0  # keys are >= 0
        first = np.empty_like(order)  # where each edge is first used
        first[order] = order[new][np.cumsum(new) - 1]
        used = first == np.arange(first.size)  # new vertices, in order of first use
        m = verts[i[used]] + verts[j[used]]
        norms = np.sqrt(m[:, None, :] @ m[:, :, None])[:, 0]
        verts = np.concatenate([verts, m / norms])
        ab, bc, ca = (n - 1 + np.cumsum(used)[first]).reshape(-1, 3).T
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
    if not np.all((0.0 < etas) & (etas < np.inf)):
        raise ValueError("eta must be positive")
    pts = _cell_grid()
    # ranked by |S|^2 = (4 mu)^2 on dot products shared by every eta
    start = _screen((np.pi / etas) * np.sqrt(3.0 / 8.0), TETRAHEDRON_DIRECTIONS @ pts.T,
                    candidates)
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
        step = grad * gradient_rate
        concave, newton = _newton_step(hess, grad)
        step[concave] = newton
        w = v + np.einsum("ki,kij->kj", step, chart)
        v = w / np.linalg.norm(w, axis=1, keepdims=True)
        if np.abs(step).max() < 1e-13:
            break
    cand = np.concatenate([pts[start], v.reshape(start.shape + (3,))], axis=1)
    mu = mu_model(_TETRAHEDRON, cand, etas[:, None])
    rows, best = np.arange(len(etas)), np.argmax(mu, axis=1)
    return mu[rows, best], cand[rows, best]


# etas per piece of the float32 screen: a few, so that its arrays stay small
_SCREEN_ETAS = 8

# float32 unit roundoff
_U32 = 2.0 ** -24


def _screen(scales: NDArray, dots: NDArray, count: int) -> NDArray:
    """For each of ``scales``, the ``count`` columns of ``dots`` (4 x n) with
    the largest ``|S|^2 = (sum_m cos x_m)^2 + (sum_m sin x_m)^2``, where
    ``x = scale * dots``, in ascending order of ``|S|^2`` (ties in column
    order): the solver keeps the first of equal maxima, so this order decides
    the direction it reports.

    ``|S|^2`` is screened in float32, ``_SCREEN_ETAS`` scales at a time. Its
    error is at most ``eps = _screen_error(scale, dots)``, so the exact top
    ``count`` lie within ``2 eps`` of the ``count``-th largest screen value;
    only the points in that window are ranked, by the float64 expression, and
    the result is that of a float64 scan of every point.
    """
    dots32 = dots.astype(np.float32)
    start = np.empty((len(scales), count), dtype=np.intp)
    for lo in range(0, len(scales), _SCREEN_ETAS):
        scale = scales[lo:lo + _SCREEN_ETAS]
        # an eta so small that the screen or its bound overflows keeps every
        # point: no value falls below a NaN or infinite window
        with np.errstate(over="ignore", invalid="ignore"):
            x = scale.astype(np.float32)[:, None, None] * dots32
            s2 = np.cos(x).sum(axis=1) ** 2 + np.sin(x).sum(axis=1) ** 2
            floor = np.partition(s2, -count, axis=1)[:, -count] - 2.0 * _screen_error(scale, dots)
            rows, cols = np.nonzero(~(s2 < floor[:, None]))
        x = scale[rows] * dots[:, cols]
        s2 = np.cos(x).sum(axis=0) ** 2 + np.sin(x).sum(axis=0) ** 2
        # each scale's window in ascending |S|^2; its last ``count`` are its top
        ends = np.cumsum(np.bincount(rows, minlength=len(scale)))
        start[lo:lo + len(scale)] = cols[np.lexsort((s2, rows))][ends[:, None] - count
                                                                 + np.arange(count)]
    return start


def _screen_error(scales: NDArray, dots: NDArray) -> NDArray:
    """A bound on |float32 - float64| of ``_screen``'s ``|S|^2``, per scale.

    With u the float32 unit roundoff and A the scale's largest |argument|,
    to first order in u each argument is off by at most 3uA (the scale, the
    dot product and their product are each rounded), each cos or sin by 2u
    more (NumPy's float32 sin and cos are within 1.5 ulp), and each 4-term
    sum by 12u more: e = 4(3A + 2)u + 12u bounds the error of C = sum cos and
    of S = sum sin. Since |C| + |S| <= 4 sqrt 2, C^2 + S^2 is off by at most
    2e(4 sqrt 2 + e), plus 48u for rounding the squares and their sum
    (|S|^2 <= 16). The bound grows with 1/eta through A, and is returned
    times a safety factor of 4, which also covers the float64 side's error.
    """
    e = (4.0 * (3.0 * scales * np.abs(dots).max() + 2.0) + 12.0) * _U32
    return 4.0 * (2.0 * e * (4.0 * np.sqrt(2.0) + e) + 48.0 * _U32)


def _newton_step(hess: NDArray, grad: NDArray) -> tuple[NDArray, NDArray]:
    """The rows whose 2 x 2 ``hess`` is negative definite (h00 < 0, det > 0),
    and on those rows the Newton step ``-hess^-1 grad``, in closed form."""
    det = hess[:, 0, 0] * hess[:, 1, 1] - hess[:, 0, 1] * hess[:, 1, 0]
    concave = (hess[:, 0, 0] < 0) & (det > 0)
    (h00, h01), (h10, h11) = hess[concave].transpose(1, 2, 0)
    g0, g1 = grad[concave].T
    newton = -np.stack([h11 * g0 - h01 * g1, h00 * g1 - h10 * g0], axis=1) / det[concave, None]
    return concave, newton


def mu_star(eta: float) -> tuple[float, NDArray]:
    """Global maximum of the tetrahedral correlation over all orientations,
    and a maximising transverse direction.

    The grid is the 1,739 points of the 40,962-point icosphere in the T_h
    cell ``0 <= x <= z, 0 <= y <= z`` (see ``fundamental_domain``), built
    without the rest of the sphere: every other icosphere point is a
    symmetric copy of one of them, with the same value. The 10 best cell
    points (so no two symmetric copies of one basin) are those of a float64
    scan, found by a float32 screen that ranks in float64 only the points
    within twice its error bound of its 10th best (``_screen``; the bound
    grows with 1/eta). They start a Riemannian Newton ascent on the unit
    sphere (closed-form 2 x 2 steps; gradient steps where the
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
    # written so that a NaN eta fails the check
    if not eta >= 1.0:
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
        # written so that a NaN eta fails the check
        if not np.all((eta >= self.etas[0] - 1e-12) & (eta <= self.etas[-1] + 1e-12)):
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


def check_eta_grid(eta_start: float, eta_stop: float, step: float) -> NDArray:
    """Check a ``compute_mu_star_curve`` grid; return its etas, the pentagon
    extension below ``eta_start`` included: at most ``ETA_POINTS`` of them."""
    for name, value in (("eta_start", eta_start), ("eta_stop", eta_stop), ("eta step", step)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not 0 < eta_start < eta_stop:
        raise ValueError("need 0 < eta_start < eta_stop")
    if not step > 0:
        raise ValueError("eta step must be positive")
    lo = eta_start * PENTAGON_ETA_SCALE
    # the etas are counted before any is built; the spans are divided by the
    # step only when it keeps the quotients near ETA_POINTS, as they would
    # overflow for a small enough one
    below = above = np.inf
    if step >= (eta_stop - lo) / ETA_POINTS:
        below, above = np.ceil((eta_start - lo) / step), np.floor((eta_stop - eta_start) / step)
    if below + above + 1 > ETA_POINTS:
        raise ValueError(f"eta step {step:g} gives more than {ETA_POINTS} etas")
    etas = eta_start + step * np.arange(-int(below), above + 1)
    if etas[0] <= 0:
        raise ValueError(f"eta step {step:g} extends the grid to eta = {etas[0]:g} <= 0")
    return etas


def compute_mu_star_curve(eta_start: float = ETA_START, eta_stop: float = ETA_STOP,
                          step: float = ETA_STEP) -> MuStarCurve:
    """Evaluate ``mu*`` on a regular eta grid (plus the pentagon extension)."""
    etas = check_eta_grid(eta_start, eta_stop, step)
    values, dirs = _solve(etas)
    return MuStarCurve(etas=etas, values=values, directions=dirs, export_from=eta_start)


@lru_cache(maxsize=1)
def default_curve() -> MuStarCurve:
    """The standard cached curve on ``ETA_START`` .. ``ETA_STOP`` in ``ETA_STEP`` steps."""
    return compute_mu_star_curve()


def __getattr__(name: str):
    # nothing here uses scipy.optimize; ``minimize`` is only looked up by the
    # benchmark's tracer, so it is imported on that lookup, not with the module
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
