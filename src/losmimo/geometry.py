"""Antenna array geometry: layouts, random 3-D rotations, antenna placement
and transmit-receive distances.

One routine places every array: ``place`` sums each antenna's coordinates on
the axes its layout occupies (``ArrayLayout.axes``) times the rotation columns
of those axes. The Monte-Carlo engine and ``joint_density`` hand it only the
columns they build from quaternions (``rotation_columns``).
``rotation_columns``, ``place`` and ``link_distances`` take whatever batch
they are handed whole: every step is per link, so no link's bits depend on
the batch it comes in.

Every link runs along +x: the receive centroid sits at ``R LINK_DIRECTION``,
and each array is rotated about its own centroid by its rotation ``U_tx`` /
``U_rx``. The transmit elevation beta is carried by ``U_tx``
(``design.select_tx_pair`` reads sin(beta) off it).
"""

from __future__ import annotations

import csv
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "ArrayLayout",
    "LinkSpec",
    "make_layout",
    "rotation_normals",
    "rotation_columns",
    "uniform_rotation",
    "place",
    "link_distances",
    "LINK_DIRECTION",
]

LAYOUT_KINDS = ("ula", "ura", "tetrahedron", "triangle", "pentagon", "spherical-code")
# the simulated links run along +x: the receive centroid sits at R LINK_DIRECTION,
# and design.select_tx_pair reads sin(beta) off the x row of U_tx
LINK_DIRECTION = np.array([1.0, 0.0, 0.0])
# transmit arrays: a 2-antenna ULA, or a polygon that select_tx_pair takes a pair from
TX_KINDS = ("ula", "triangle", "pentagon")
# the smallest layout spacing: above it the squared antenna offsets, whose sums
# give the radii, stay normal floats; below it they underflow, and a layout's
# antennas collapse onto its centroid
SPACING_MIN = float(np.sqrt(np.finfo(float).tiny))
# the most antennas of a layout: at this many receive antennas a 2,500-link BER
# block peaks near 81 MiB, and each 8,192-link density piece takes about 155 MiB
ANTENNAS_MAX = 256

# Vertices of the regular tetrahedron as unit vectors from the centroid.
TETRAHEDRON_DIRECTIONS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / np.sqrt(3.0)


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

    @property
    def axes(self) -> NDArray:
        """The coordinate axes, in order, on which some antenna lies off the
        centroid (z for a ULA, y and z for a URA, none for one antenna): the
        rotation columns that ``place`` reads."""
        return np.flatnonzero(self.positions.any(axis=0))


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
    if spacing < SPACING_MIN:
        raise ValueError(f"spacing must be at least {SPACING_MIN:.4g} m, or the antennas "
                         f"collapse onto the centroid, got {spacing!r}")
    if coords_file is not None and kind != "spherical-code":
        raise ValueError(f"a coordinates file is read only for a spherical-code layout, "
                         f"not for kind {kind!r}")
    # no coordinate of a layout that can be built lies more than
    # max(n, 5) <= max(ANTENNAS_MAX, 5) spacings off the centroid, and the
    # radii sum three squared coordinates
    reach = max(min(n or 0, ANTENNAS_MAX), 5) * spacing
    if not 3.0 * reach * reach < np.inf:
        raise ValueError(f"spacing {spacing!r} m puts antennas so far apart that their squared "
                         "distances are beyond a float")
    # checked before any array is built: the layout, and every link's
    # distances and phasors, grow with n
    if n is not None and n > ANTENNAS_MAX:
        raise ValueError(f"n must be at most {ANTENNAS_MAX} antennas, got {n}")

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


def rotation_columns(q: NDArray, axes: Sequence[int]) -> NDArray:
    """Columns ``axes`` of the rotations of the quaternions ``q`` (m, 4), which
    need not be normalised, as a C-contiguous (len(axes), 3, m) array:
    ``out[k, i, l]`` is entry ``(i, axes[k])`` of rotation l, so ``place``
    places a layout from its columns on ``layout.axes`` alone. A column's bits
    do not depend on which other columns are built.

    A standard-normal 4-vector normalised to the unit 3-sphere is a uniform
    quaternion, so the rotations of ``rotation_normals`` are Haar-uniform.
    Every step is per rotation, so a rotation's bits do not depend on the batch
    it comes in."""
    out = np.empty((len(axes), 3, len(q)))
    v = q.T.copy()                     # rows w, x, y, z
    norm = v[0] * v[0]
    for c in v[1:]:
        norm += c * c                  # np.linalg.norm's order: ((w^2 + x^2) + y^2) + z^2
    v /= np.sqrt(norm)
    w, z = v[0], v[3]
    # each product once, doubled: 2 (a b) = (2 a) b exactly
    two = 2.0 * v[1:]                  # 2x, 2y, 2z
    xx, yy, zz = two * v[1:]
    xy, xz = two[0] * v[2:]
    yz = two[1] * z
    xw, yw, zw = two * w
    # U row by row; a diagonal entry is 1 minus its sum
    u = ((np.add, yy, zz), (np.subtract, xy, zw), (np.add, xz, yw),
         (np.add, xy, zw), (np.add, xx, zz), (np.subtract, yz, xw),
         (np.subtract, xz, yw), (np.add, yz, xw), (np.add, xx, yy))
    for j, column in zip(axes, out):
        for i, entry in enumerate(column):
            op, a, b = u[3 * i + j]
            op(a, b, out=entry)
        np.subtract(1.0, column[j], out=column[j])
    return out


def uniform_rotation(rng: np.random.Generator, n: int | None = None) -> NDArray:
    """Draw Haar-uniform rotation matrices from SO(3): all three
    ``rotation_columns`` of ``rotation_normals``. Returns a single (3, 3)
    matrix, or a C-contiguous (n, 3, 3) array when ``n`` is given.
    """
    q = rotation_normals(rng, 1 if n is None else int(n))
    u = np.ascontiguousarray(rotation_columns(q, (0, 1, 2)).transpose(2, 1, 0))
    return u[0] if n is None else u


def place(layout: ArrayLayout, columns: NDArray) -> NDArray:
    """Coordinate-major (3, n_ant, m) positions of ``layout`` under m rotations
    about its centroid, given by their columns on ``layout.axes``:
    ``columns[k, i, l]`` is entry ``(i, layout.axes[k])`` of rotation l, as
    ``rotation_columns(q, layout.axes)`` and ``u.T[layout.axes]`` of (m, 3, 3)
    rotations ``u`` give it.

    Each position is the antenna's coordinates on those axes times their
    columns, summed in axis order; on one axis (a ULA) it is one exact product.
    Each axis adds its term to all antennas and links at once."""
    out = np.zeros((3, layout.n, columns.shape[-1]))
    coords = layout.positions[:, layout.axes, None].swapaxes(0, 1)   # (axes, n_ant, 1)
    for column, c in zip(columns[:, :, None], coords):
        out += column * c
    return out


def link_distances(tx: NDArray, rx: NDArray) -> NDArray:
    """Distances r[m, j, l] between receive antenna m and transmit antenna j of
    link l from coordinate-major positions tx (3, n_t, n) and rx (3, n_r, n).

    Each is ``sqrt((dx dx + dy dy) + dz dz)``, ``np.linalg.norm``'s summation
    order."""
    r = np.square(rx[0][:, None] - tx[0])
    for c in (1, 2):
        d = rx[c][:, None] - tx[c]
        r += np.multiply(d, d, out=d)
    np.sqrt(r, out=r)
    if np.any(r <= 0):
        raise ValueError("coincident transmit and receive antennas")
    return r
