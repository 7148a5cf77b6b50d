"""Antenna array geometry: layouts, random 3-D rotations, antenna placement
and transmit-receive distances.

Global frame conventions. For one ``LinkScenario`` (``place_antennas``), the
two transmit antennas lie on the z-axis at ``(0, 0, +/- d_t/2)`` when the
transmit rotation is the identity, and the receive array centroid lies in the
x-z plane at ``[R cos(beta), 0, R sin(beta)]``. The links of the Monte-Carlo
engine and of ``joint_density`` run along +x instead: the receive centroid
sits at ``R LINK_DIRECTION``, and the transmit elevation beta is carried by the
random ``U_tx`` (``design.select_tx_pair`` reads sin(beta) off it). Every other
orientation is expressed through the rotations ``U_tx`` / ``U_rx`` applied
about the respective array centroids.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ArrayLayout",
    "LinkSpec",
    "LinkScenario",
    "make_layout",
    "rotation_normals",
    "quaternion_rotations",
    "uniform_rotation",
    "place_arrays",
    "place_antennas",
    "link_distances",
    "exact_distances",
    "approx_path_difference",
    "is_rotation",
    "LINK_DIRECTION",
    "link_axis",
    "transverse_axis",
]

# links per piece of rotation sampling, placement and distances: a piece's
# temporaries stay in cache
PLACE_COLS = 4096
# OpenBLAS runs a GEMM of at most this many multiply-adds on the calling thread
BLAS_SERIAL_MADDS = 2 ** 18

LAYOUT_KINDS = ("ula", "ura", "tetrahedron", "triangle", "pentagon", "spherical-code")
# the simulated links run along +x: the receive centroid sits at R LINK_DIRECTION,
# and design.select_tx_pair reads sin(beta) off the x row of U_tx
LINK_DIRECTION = np.array([1.0, 0.0, 0.0])
# transmit arrays: a 2-antenna ULA, or a polygon that select_tx_pair takes a pair from
TX_KINDS = ("ula", "triangle", "pentagon")

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

    def _key(self) -> tuple:
        return self.kind, self.spacing, self.directions.tobytes(), self.radii.tobytes()

    # by value, so that the configs holding a layout compare and hash by value
    def __eq__(self, other) -> bool:
        return isinstance(other, ArrayLayout) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

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
                coords_file=None) -> ArrayLayout:
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
    """
    if kind not in LAYOUT_KINDS:
        raise ValueError(f"unknown layout kind {kind!r}; expected one of {LAYOUT_KINDS}")
    if spacing is None or not 0.0 < spacing < np.inf:
        raise ValueError("spacing must be positive")
    if coords_file is not None and kind != "spherical-code":
        raise ValueError(f"a coordinates file is read only for a spherical-code layout, "
                         f"not for kind {kind!r}")
    # NumPy can neither size nor index an array beyond intp, and its ufuncs
    # take no larger int
    if n is not None and n > np.iinfo(np.intp).max:
        raise ValueError(f"n must be at most {np.iinfo(np.intp).max}, got {n}")

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


@dataclass(frozen=True)
class LinkSpec:
    """The link that ``simulate``, ``design`` and ``density`` share: the
    wavelength and the transmit and receive arrays, checked once here.

    ``d_t``, ``d_r``, the array kinds and ``n_r`` are the layouts' ``spacing``,
    ``kind`` and ``n``. The transmitter is a 2-antenna ULA, or a triangle or
    pentagon from which ``design.select_tx_pair`` takes one pair per link.
    """

    wavelength: float
    tx: ArrayLayout
    rx: ArrayLayout

    def __post_init__(self):
        if not 0.0 < self.wavelength < np.inf:
            raise ValueError("wavelength must be positive")
        if self.tx.kind not in TX_KINDS:
            raise ValueError(f"unsupported transmit kind {self.tx.kind!r}")
        if self.tx.kind == "ula" and self.tx.n != 2:
            raise ValueError(f"a transmit ULA has 2 antennas, got {self.tx.n}")


def rotation_normals(rng: np.random.Generator, n: int) -> NDArray:
    """Draw the (n, 4) standard normals behind n uniform rotations, in the
    order ``uniform_rotation`` consumes the stream."""
    return rng.standard_normal((n, 4))


def quaternion_rotations(q: NDArray) -> NDArray:
    """The C-contiguous (m, 3, 3) rotations of the quaternions ``q`` (m, 4),
    which need not be normalised, built in ``PLACE_COLS``-row pieces.

    A standard-normal 4-vector normalised to the unit 3-sphere is a uniform
    quaternion, so the rotations of ``rotation_normals`` are Haar-uniform."""
    u = np.empty((len(q), 3, 3))
    for s in range(0, len(q), PLACE_COLS):
        _quaternion_rotations(q[s:s + PLACE_COLS], u[s:s + PLACE_COLS])
    return u


def uniform_rotation(rng: np.random.Generator, n: int | None = None) -> NDArray:
    """Draw Haar-uniform rotation matrices from SO(3): ``quaternion_rotations``
    of ``rotation_normals``. Returns a single (3, 3) matrix, or a C-contiguous
    (n, 3, 3) array when ``n`` is given.
    """
    u = quaternion_rotations(rotation_normals(rng, 1 if n is None else int(n)))
    return u[0] if n is None else u


def _quaternion_rotations(q: NDArray, out: NDArray) -> None:
    """Write the rotations of the quaternions ``q`` (m, 4), normalised here,
    into the C-contiguous ``out`` (m, 3, 3)."""
    q = q.T.copy()                     # rows w, x, y, z
    norm = q[0] * q[0]
    for c in q[1:]:
        norm += c * c                  # np.linalg.norm's order: ((w^2 + x^2) + y^2) + z^2
    q /= np.sqrt(norm)
    w, z = q[0], q[3]
    # each product once, doubled: 2 (a b) = (2 a) b exactly
    two = 2.0 * q[1:]                  # 2x, 2y, 2z
    xx, yy, zz = two * q[1:]
    xy, xz = two[0] * q[2:]
    yz = two[1] * z
    xw, yw, zw = two * w
    u = out.reshape(-1, 9).T
    np.add(yy, zz, out=u[0])
    np.subtract(xy, zw, out=u[1])
    np.add(xz, yw, out=u[2])
    np.add(xy, zw, out=u[3])
    np.add(xx, zz, out=u[4])
    np.subtract(yz, xw, out=u[5])
    np.subtract(xz, yw, out=u[6])
    np.add(yz, xw, out=u[7])
    np.add(xx, yy, out=u[8])
    np.subtract(1.0, u[0::4], out=u[0::4])


def link_axis(beta: float) -> NDArray:
    """Unit vector from the transmit centroid towards the receive centroid."""
    return np.array([np.cos(beta), 0.0, np.sin(beta)])


def transverse_axis(beta: float) -> NDArray:
    """Unit vector along the z' axis of the auxiliary receive frame."""
    return np.array([-np.sin(beta), 0.0, np.cos(beta)])


@dataclass
class LinkScenario:
    """Link geometry: terminal distance, transmit elevation and the two
    (possibly rotated) arrays."""

    R: float
    beta: float
    tx_layout: ArrayLayout
    rx_layout: ArrayLayout
    U_tx: NDArray = field(default_factory=lambda: np.eye(3))
    U_rx: NDArray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        if not 0.0 < self.R < np.inf:
            raise ValueError("inter-terminal distance R must be positive")
        for u, name in ((self.U_tx, "U_tx"), (self.U_rx, "U_rx")):
            if not is_rotation(u, tol=1e-9):
                raise ValueError(f"{name} is not a rotation matrix")
        extent = max(self.tx_layout.radii.max(initial=0.0),
                     self.rx_layout.radii.max(initial=0.0))
        if self.R < 10.0 * extent:
            warnings.warn(
                f"R = {self.R:g} m is within 10x the array extent {extent:g} m; "
                "far-field approximations degrade", stacklevel=2)


def place_arrays(tx_layout: ArrayLayout, rx_layout: ArrayLayout, u_tx: NDArray,
                 u_rx: NDArray, r_link: NDArray, axis: NDArray) -> tuple[NDArray, NDArray]:
    """Global-frame positions of n links, coordinate-major: tx (3, n_t, n) and
    rx (3, n_r, n).

    ``u_tx`` and ``u_rx`` (n, 3, 3) rotate the arrays about their centroids;
    the receive centroid lies ``r_link`` (n,) along the unit vector ``axis``."""
    rx = _rotate(rx_layout.positions, u_rx)
    rx += np.multiply.outer(axis, r_link)[:, None]
    return _rotate(tx_layout.positions, u_tx), rx


def _rotate(positions: NDArray, u: NDArray) -> NDArray:
    """``out[i, m, l] = sum_j u[l, i, j] positions[m, j]``, coordinate-major.

    One real GEMM per piece of links, (n_ant x 3) @ (3 x 3 links), whose right
    factor is a view of ``u``. Each sum runs over j in order, as the
    per-link product did. With 3 columns per link no product has a single
    column, which NumPy would hand to a matrix-vector routine that rounds
    differently, so one link gets the bits it gets in a batch."""
    n_ant, n = len(positions), len(u)
    out = np.empty((3, n_ant, n))
    # a piece takes 9 n_ant multiply-adds per link and starts no BLAS threads
    step = min(PLACE_COLS, BLAS_SERIAL_MADDS // (9 * n_ant))
    for s in range(0, n, step):
        prod = np.matmul(positions, u[s:s + step].transpose(2, 0, 1).reshape(3, -1))
        out[:, :, s:s + step] = prod.reshape(n_ant, -1, 3).transpose(2, 0, 1)
    return out


def place_antennas(scenario: LinkScenario) -> tuple[NDArray, NDArray]:
    """Global-frame antenna positions (tx (n_t, 3), rx (n_r, 3)) of one link."""
    tx, rx = place_arrays(scenario.tx_layout, scenario.rx_layout, scenario.U_tx[None],
                          scenario.U_rx[None], np.array([scenario.R], dtype=float),
                          link_axis(scenario.beta))
    return tx[:, :, 0].T, rx[:, :, 0].T


def link_distances(tx: NDArray, rx: NDArray) -> NDArray:
    """Distances r[m, j, l] between receive antenna m and transmit antenna j of
    link l from coordinate-major positions tx (3, n_t, n) and rx (3, n_r, n).

    Each is ``sqrt((dx dx + dy dy) + dz dz)``, ``np.linalg.norm``'s summation
    order, taken over ``PLACE_COLS``-link pieces so that the temporaries stay
    in cache."""
    n = tx.shape[-1]
    r = np.empty((rx.shape[1], tx.shape[1], n))
    for s in range(0, n, PLACE_COLS):
        t, q, out = tx[..., s:s + PLACE_COLS], rx[..., s:s + PLACE_COLS], r[..., s:s + PLACE_COLS]
        np.square(q[0][:, None] - t[0], out=out)
        for c in (1, 2):
            d = q[c][:, None] - t[c]
            out += np.multiply(d, d, out=d)
        np.sqrt(out, out=out)
    if np.any(r <= 0):
        raise ValueError("coincident transmit and receive antennas")
    return r


def exact_distances(tx_positions: NDArray, rx_positions: NDArray) -> NDArray:
    """Euclidean distances r[..., m, n] between receive antenna m and transmit
    antenna n from (..., n_t, 3) and (..., n_r, 3) positions; leading axes are
    batch axes."""
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if tx.size == 0 or rx.size == 0:
        raise ValueError("empty position list")
    batch = np.broadcast_shapes(tx.shape[:-2], rx.shape[:-2])
    tx, rx = (np.broadcast_to(a, batch + a.shape[-2:]).reshape(-1, *a.shape[-2:]).T
              for a in (tx, rx))
    return link_distances(tx, rx).transpose(2, 0, 1).reshape(batch + (rx.shape[1], tx.shape[1]))


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
    d_t = scenario.tx_layout.spacing
    return d_t * np.sin(scenario.beta) + d_t * lay.radii[m] * np.cos(scenario.beta) * cos_theta / scenario.R
