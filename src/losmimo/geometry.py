"""Antenna array geometry: layouts, random 3-D rotations, antenna placement
and transmit-receive distances.

Global frame convention: the two transmit antennas lie on the z-axis at
``(0, 0, +/- d_t/2)`` when the transmit rotation is the identity, and the
receive array centroid lies in the x-z plane at ``[R cos(beta), 0, R sin(beta)]``.
Every other orientation is expressed through the rotations ``U_tx`` / ``U_rx``
applied about the respective array centroids.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ArrayLayout",
    "LinkScenario",
    "make_layout",
    "uniform_rotation",
    "place_arrays",
    "place_antennas",
    "exact_distances",
    "approx_path_difference",
    "is_rotation",
    "link_axis",
    "transverse_axis",
]

LAYOUT_KINDS = ("ula", "ura", "tetrahedron", "triangle", "pentagon", "spherical-code", "custom")

# Vertices of the regular tetrahedron as unit vectors from the centroid.
TETRAHEDRON_DIRECTIONS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / np.sqrt(3.0)


def is_rotation(u: NDArray, tol: float = 1e-12) -> bool:
    """True if ``u`` is a proper rotation: orthogonal with determinant +1."""
    u = np.asarray(u, dtype=float)
    if u.shape != (3, 3):
        return False
    return (
        np.abs(u @ u.T - np.eye(3)).max() <= tol
        and abs(np.linalg.det(u) - 1.0) <= tol
    )


@dataclass(frozen=True)
class ArrayLayout:
    """Antenna positions relative to the array centroid.

    Antenna ``m`` sits at ``radii[m] * directions[m]``; ``directions`` rows are
    unit vectors. ``spacing`` is the characteristic inter-antenna distance of
    the layout (edge length for polygons/tetrahedron, grid step for ULA/URA,
    sphere diameter for spherical codes).
    """

    kind: str
    directions: NDArray  # (n, 3) unit rows
    radii: NDArray       # (n,)
    spacing: float

    def __post_init__(self):
        d = np.atleast_2d(np.asarray(self.directions, dtype=float))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        object.__setattr__(self, "directions", d)
        object.__setattr__(self, "radii", r)
        if d.shape != (len(r), 3):
            raise ValueError("directions must be (n, 3) matching radii length")
        norms = np.linalg.norm(d, axis=1)
        bad = np.abs(norms - 1.0) > 1e-9
        # antennas at the centroid itself (radius 0) may carry any direction
        if np.any(bad & (r > 0)):
            raise ValueError("direction rows must be unit vectors")
        centroid = np.linalg.norm((r[:, None] * d).mean(axis=0))
        if centroid > 1e-9 * max(r.max(), 1e-30):
            raise ValueError(f"layout centroid is off-origin by {centroid:g} m")

    @property
    def n(self) -> int:
        return len(self.radii)

    @property
    def positions(self) -> NDArray:
        """Antenna positions (n, 3) in the layout's own frame."""
        return self.radii[:, None] * self.directions


def _from_positions(kind: str, pos: NDArray, spacing: float) -> ArrayLayout:
    pos = np.asarray(pos, dtype=float)
    pos = pos - pos.mean(axis=0)
    radii = np.linalg.norm(pos, axis=1)
    dirs = np.zeros_like(pos)
    nz = radii > 0
    dirs[nz] = pos[nz] / radii[nz, None]
    dirs[~nz] = np.array([0.0, 0.0, 1.0])
    return ArrayLayout(kind=kind, directions=dirs, radii=radii, spacing=spacing)


def _fibonacci_sphere(n: int, start: int = 0, stop: int | None = None) -> NDArray:
    """Points ``start`` to ``stop`` (default n) of an n-point spiral lattice on the sphere.

    Fallback receive geometry when no spherical-code table is supplied; the
    packing is decent but not optimal.
    """
    i = np.arange(start, n if stop is None else stop, dtype=float)
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    z = 1.0 - (2.0 * i + 1.0) / n
    theta = 2.0 * np.pi * i / golden
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


def _read_unit_vectors(path) -> NDArray:
    rows = []
    with open(path, newline="") as f:
        for rec in csv.reader(f):
            if not rec or rec[0].lstrip().startswith("#"):
                continue
            if len(rec) != 3:
                raise ValueError(f"{path}: expected 3 columns per row, got {len(rec)}")
            rows.append([float(x) for x in rec])
    v = np.array(rows, dtype=float)
    norms = np.linalg.norm(v, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise ValueError(f"{path}: rows must be unit vectors within 1e-6")
    return v / norms[:, None]


def make_layout(kind: str, n: int | None = None, spacing: float | None = None,
                coords_file=None, coords: NDArray | None = None) -> ArrayLayout:
    """Construct a named antenna layout centred on its centroid.

    kind:
        "ula"            n antennas along the z-axis, step `spacing`
        "ura"            n antennas on a square-ish grid in the y-z plane,
                         grid step `spacing` (n must factor as rows x cols)
        "tetrahedron"    4 antennas, edge length `spacing`
        "triangle"       3 antennas, regular, edge `spacing`, in the y-z plane
        "pentagon"       5 antennas, regular, edge `spacing`, in the y-z plane
        "spherical-code" n antennas on a sphere of diameter `spacing`; unit
                         directions from `coords_file` (CSV, 3 columns) or a
                         built-in spiral lattice fallback
        "custom"         explicit `coords` (n, 3) positions in metres
    """
    if kind not in LAYOUT_KINDS:
        raise ValueError(f"unknown layout kind {kind!r}; expected one of {LAYOUT_KINDS}")
    if kind == "custom":
        if coords is None:
            raise ValueError("custom layout requires explicit coords")
        pos = np.asarray(coords, dtype=float)
        dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        s = spacing if spacing is not None else float(dists[dists > 0].min()) if len(pos) > 1 else 0.0
        return _from_positions(kind, pos, s)

    if spacing is None or spacing <= 0:
        raise ValueError("spacing must be positive")

    if kind == "ula":
        if n is None or n < 1:
            raise ValueError("ULA requires n >= 1")
        # antenna 0 at the top so that a 2-element transmit ULA has its first
        # antenna at +d_t/2 on the z-axis, matching the path-difference sign
        z = ((n - 1) / 2.0 - np.arange(n)) * spacing
        pos = np.column_stack([np.zeros(n), np.zeros(n), z])
        return _from_positions(kind, pos, spacing)

    if kind == "ura":
        if n is None or n < 1:
            raise ValueError("URA requires n >= 1")
        rows = int(np.floor(np.sqrt(n)))
        while rows > 1 and n % rows:
            rows -= 1
        cols = n // rows
        if n > 1 and rows < 2:
            raise ValueError(f"URA size {n} not expressible as rows x cols")
        y = (np.arange(cols) - (cols - 1) / 2.0) * spacing
        z = (np.arange(rows) - (rows - 1) / 2.0) * spacing
        yy, zz = np.meshgrid(y, z)
        pos = np.column_stack([np.zeros(n), yy.ravel(), zz.ravel()])
        return _from_positions(kind, pos, spacing)

    if kind == "tetrahedron":
        if n not in (None, 4):
            raise ValueError("tetrahedron has exactly 4 antennas")
        radius = np.sqrt(3.0 / 8.0) * spacing
        return ArrayLayout(kind=kind, directions=TETRAHEDRON_DIRECTIONS.copy(),
                           radii=np.full(4, radius), spacing=spacing)

    if kind in ("triangle", "pentagon"):
        m = 3 if kind == "triangle" else 5
        if n not in (None, m):
            raise ValueError(f"{kind} has exactly {m} antennas")
        circumradius = spacing / (2.0 * np.sin(np.pi / m))
        ang = 2.0 * np.pi * np.arange(m) / m + np.pi / 2.0
        pos = circumradius * np.column_stack([np.zeros(m), np.cos(ang), np.sin(ang)])
        return _from_positions(kind, pos, spacing)

    # spherical-code
    if n is None or n < 1:
        raise ValueError("spherical-code requires n >= 1")
    if coords_file is not None:
        dirs = _read_unit_vectors(coords_file)
        if len(dirs) != n:
            raise ValueError(f"{coords_file}: expected {n} rows, found {len(dirs)}")
    else:
        dirs = _fibonacci_sphere(n)
    radius = spacing / 2.0
    return _from_positions(kind, radius * dirs, spacing)


def uniform_rotation(rng: np.random.Generator, n: int | None = None) -> NDArray:
    """Draw Haar-uniform rotation matrices from SO(3).

    A standard-normal 4-vector normalised to the unit 3-sphere is a uniform
    quaternion, which maps to a uniform rotation. Returns a single (3, 3)
    matrix, or (n, 3, 3) when ``n`` is given.
    """
    m = 1 if n is None else int(n)
    q = rng.standard_normal((m, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    u = np.empty((m, 3, 3))
    u[:, 0, 0] = 1 - 2 * (y * y + z * z)
    u[:, 0, 1] = 2 * (x * y - z * w)
    u[:, 0, 2] = 2 * (x * z + y * w)
    u[:, 1, 0] = 2 * (x * y + z * w)
    u[:, 1, 1] = 1 - 2 * (x * x + z * z)
    u[:, 1, 2] = 2 * (y * z - x * w)
    u[:, 2, 0] = 2 * (x * z - y * w)
    u[:, 2, 1] = 2 * (y * z + x * w)
    u[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return u[0] if n is None else u


def link_axis(beta: float) -> NDArray:
    """Unit vector from the transmit centroid towards the receive centroid."""
    return np.array([np.cos(beta), 0.0, np.sin(beta)])


def transverse_axis(beta: float) -> NDArray:
    """Unit vector along the z' axis of the auxiliary receive frame."""
    return np.array([-np.sin(beta), 0.0, np.cos(beta)])


@dataclass
class LinkScenario:
    """Full link geometry: terminal distance, transmit elevation, wavelength
    and the two (possibly rotated) arrays."""

    R: float
    beta: float
    wavelength: float
    tx_layout: ArrayLayout
    rx_layout: ArrayLayout
    U_tx: NDArray = field(default_factory=lambda: np.eye(3))
    U_rx: NDArray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("inter-terminal distance R must be positive")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        for u, name in ((self.U_tx, "U_tx"), (self.U_rx, "U_rx")):
            if not is_rotation(u, tol=1e-9):
                raise ValueError(f"{name} is not a rotation matrix")
        extent = max(self.tx_layout.radii.max(initial=0.0),
                     self.rx_layout.radii.max(initial=0.0))
        if self.R < 10.0 * extent:
            warnings.warn(
                f"R = {self.R:g} m is within 10x the array extent {extent:g} m; "
                "far-field approximations degrade", stacklevel=2)

    @property
    def d_t(self) -> float:
        return self.tx_layout.spacing


def place_arrays(tx_layout: ArrayLayout, rx_layout: ArrayLayout, u_tx: NDArray,
                 u_rx: NDArray, r_link: NDArray, axis: NDArray) -> tuple[NDArray, NDArray]:
    """Global-frame positions of n links: tx (n, n_t, 3) and rx (n, n_r, 3).

    ``u_tx`` and ``u_rx`` (n, 3, 3) rotate the arrays about their centroids;
    the receive centroid lies ``r_link`` (n,) along the unit vector ``axis``."""
    tx = np.matmul(u_tx, tx_layout.positions.T).swapaxes(-1, -2)
    rx = r_link[:, None, None] * axis + np.matmul(u_rx, rx_layout.positions.T).swapaxes(-1, -2)
    return tx, rx


def place_antennas(scenario: LinkScenario) -> tuple[NDArray, NDArray]:
    """Global-frame antenna positions (tx (n_t, 3), rx (n_r, 3)) of one link."""
    tx, rx = place_arrays(scenario.tx_layout, scenario.rx_layout, scenario.U_tx[None],
                          scenario.U_rx[None], np.array([scenario.R], dtype=float),
                          link_axis(scenario.beta))
    return tx[0], rx[0]


def exact_distances(tx_positions: NDArray, rx_positions: NDArray) -> NDArray:
    """Euclidean distances r[..., m, n] between receive antenna m and transmit
    antenna n; leading axes are batch axes."""
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if tx.size == 0 or rx.size == 0:
        raise ValueError("empty position list")
    r = np.linalg.norm(rx[..., :, None, :] - tx[..., None, :, :], axis=-1)
    if np.any(r <= 0):
        raise ValueError("coincident transmit and receive antennas")
    return r


def approx_path_difference(scenario: LinkScenario, m: int) -> float:
    """First-order path difference r[m, 2] - r[m, 1] for receive antenna m.

    Equals ``d_t sin(beta) + d_t d_m cos(beta) cos(theta_m) / R`` where
    ``theta_m`` is the angle between the rotated antenna direction and the
    transverse axis.
    """
    lay = scenario.rx_layout
    if not 0 <= m < lay.n:
        raise IndexError(f"receive antenna index {m} out of range")
    cos_theta = float((scenario.U_rx @ lay.directions[m]) @ transverse_axis(scenario.beta))
    d_t = scenario.d_t
    return d_t * np.sin(scenario.beta) + d_t * lay.radii[m] * np.cos(scenario.beta) * cos_theta / scenario.R
