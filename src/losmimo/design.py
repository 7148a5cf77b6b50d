"""Transmit-pair selection and the distance-range design procedure.

A triangular or pentagonal transmit array always contains a pair whose
baseline is nearly perpendicular to the link, capping the transmit elevation
at pi/6 (triangle) or pi/10 (pentagon). Combining that cap with the worst-case
correlation curve turns a quality target ``mu <= mu_max`` into an admissible
deviation-factor interval and hence a distance range ``[R_min, R_max]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .channel import deviation_factor
from .geometry import ArrayLayout, LinkSpec
from .orientation import ETA_START, ETA_STOP, MuStarCurve

__all__ = [
    "PairSelection",
    "DesignSpec",
    "DesignResult",
    "InfeasibleDesignError",
    "beta_cap",
    "select_tx_pair",
    "select_tx_pair_for_quality",
    "eta_range",
    "distance_range",
    "design_link",
]


class InfeasibleDesignError(ValueError):
    """The requested channel quality cannot be met by any distance range."""


def beta_cap(tx_kind: str) -> float:
    if tx_kind == "triangle":
        return np.pi / 6.0
    if tx_kind == "pentagon":
        return np.pi / 10.0
    raise ValueError(f"no selection guarantee for transmit kind {tx_kind!r}")


@dataclass(frozen=True)
class PairSelection:
    """The transmit pair of each of n links: indices ``pair`` (n, 2), and (n,)
    realised elevations, baseline lengths and (for pentagons; None otherwise)
    whether the pair is a neighbouring one."""

    pair: NDArray
    beta: NDArray
    spacing: NDArray
    neighbouring: NDArray | None


@dataclass(frozen=True)
class DesignSpec:
    """A quality target ``mu <= mu_max`` for ``link``, whose transmitter is a
    triangle or a pentagon and whose receiver is the tetrahedron that the mu*
    curve is computed for. The lengths are checked where the link is built,
    and their link distances R = eta 2 d_t d_r / wavelength here: over the
    standard eta grid they must be positive finite floats, or no window of
    ``distance_range`` could be told from an empty one."""

    mu_max: float
    link: LinkSpec

    def __post_init__(self):
        if not 0.0 < self.mu_max < 1.0:
            raise ValueError("mu_max must lie strictly between 0 and 1")
        if self.link.rx.kind != "tetrahedron":
            raise ValueError("the mu* curve is the tetrahedron's; no design for receive "
                             f"kind {self.link.rx.kind!r}")
        beta_cap(self.link.tx.kind)
        link = self.link
        r_low, r_high = ETA_START * _eta_scale(link), ETA_STOP * _eta_scale(link)
        if not 0.0 < r_low <= r_high < np.inf:
            raise ValueError(
                f"d_t = {link.tx.spacing!r} m, d_r = {link.rx.spacing!r} m and wavelength "
                f"{link.wavelength!r} m give link distances R = eta 2 d_t d_r / wavelength "
                f"from {r_low:g} to {r_high:g} m for eta in [{ETA_START:g}, {ETA_STOP:g}]; "
                "they must be positive finite floats")


def _eta_scale(link: LinkSpec) -> float:
    """R / eta = 2 d_t d_r / wavelength: the link distance per unit of the
    deviation factor at boresight."""
    return 2.0 * link.tx.spacing * link.rx.spacing / link.wavelength


def _sin_beta_table(tx_layout: ArrayLayout, columns: NDArray) -> tuple:
    """Every index pair of ``tx_layout`` (pairs, 2), its baseline length, which
    pairs are neighbouring (a pentagon's edges; None for other kinds) and the
    (n, pairs) table of ``sin(beta)``: the x component of the unit baseline
    rotated by each of the n rotations whose columns on ``tx_layout.axes`` are
    ``columns`` (len(axes), 3, n), the link running along +x."""
    if tx_layout.n < 3:
        raise ValueError("pair selection needs at least 3 transmit antennas")
    axes = tx_layout.axes.tolist()
    # all three columns of a polygon would read its x column as its y column
    if np.ndim(columns) != 3 or np.shape(columns)[:2] != (len(axes), 3):
        raise ValueError(f"columns must be the ({len(axes)}, 3, n) rotation columns on the "
                         f"transmit axes {axes}, got shape {np.shape(columns)}")
    pairs = np.array([(m, n) for m in range(tx_layout.n) for n in range(m + 1, tx_layout.n)])
    b = tx_layout.positions[pairs[:, 0]] - tx_layout.positions[pairs[:, 1]]
    lengths = np.linalg.norm(b, axis=1)
    near = (np.abs(lengths - tx_layout.spacing) < 1e-9 * tx_layout.spacing
            if tx_layout.kind == "pentagon" else None)
    # the x row of the rotations against every baseline, summed over the axes
    # present in einsum's order (x0 b0 + x2 b2) + x1 b1: the pentagon's
    # spacing class hangs on the last bit
    terms = [columns[axes.index(a), 0, :, None] * b[:, a] for a in (0, 2, 1) if a in axes]
    return pairs, lengths, near, sum(terms[1:], terms[0]) / lengths


def _selection(pairs: NDArray, lengths: NDArray, near: NDArray | None, sin_beta: NDArray,
               best: NDArray) -> PairSelection:
    """The ``best`` pair of each row of ``_sin_beta_table``'s table."""
    beta = np.arcsin(np.clip(sin_beta[np.arange(len(best)), best], -1, 1))
    return PairSelection(pair=pairs[best], beta=beta, spacing=lengths[best],
                         neighbouring=None if near is None else near[best])


def select_tx_pair(tx_layout: ArrayLayout, columns: NDArray) -> PairSelection:
    """Pick the two transmit antennas minimising ``|sin(beta)|`` for each of n
    links along +x (``geometry.LINK_DIRECTION``), the array rotated by the
    rotations whose columns on ``tx_layout.axes`` are ``columns``: the
    (len(axes), 3, n) ``geometry.rotation_columns(q, tx_layout.axes)``, or
    ``u.T[tx_layout.axes]`` for (n, 3, 3) matrices ``u``.

    Exact ties go to the smallest index pair, but each pentagon edge is
    parallel to a diagonal, so their ``|sin(beta)|`` agree up to rounding
    (4e-16) and rounding picks either, about half the time each.
    """
    table = _sin_beta_table(tx_layout, columns)
    return _selection(*table, np.argmin(np.abs(table[3]), axis=1))


def select_tx_pair_for_quality(spec: DesignSpec, columns: NDArray, r_link: float | NDArray,
                               curve: MuStarCurve) -> PairSelection:
    """Pentagon-aware selection honouring ``spec``'s quality target for n
    links at distances ``r_link`` (a float, or (n,)), the transmit rotations
    given by their columns as for ``select_tx_pair``.

    Each link takes the minimum-``|beta|`` pair first. Where the worst-case
    curve at that pair's deviation factor exceeds ``mu_max``, it takes the
    best pair of the other spacing class instead, whose longer or shorter
    baseline moves eta onto the admissible branch; either class on its own
    caps ``|beta|`` at pi/10. Triangles keep the plain selection.
    """
    table = _sin_beta_table(spec.link.tx, columns)
    near, size = table[2], np.abs(table[3])
    best = np.argmin(size, axis=1)
    if near is not None:
        first = _selection(*table, best)
        eta = deviation_factor(r_link, first.spacing, spec.link.rx.spacing, first.beta,
                               spec.link.wavelength)
        fails = curve.value_at(np.clip(eta, curve.etas[0], curve.etas[-1])) > spec.mu_max
        other_class = np.where(near == near[best, None], np.inf, size)
        best = np.where(fails, np.argmin(other_class, axis=1), best)
    return _selection(*table, best)


@dataclass(frozen=True)
class DesignResult:
    eta_min: float
    eta_max: float
    r_min: float
    r_max: float
    beta_max: float
    mu_max: float


def _bisect_crossing(curve_at, lo: float, hi: float, mu_max: float, rising: bool) -> float:
    # curve_at(lo) and curve_at(hi) straddle mu_max; find the crossing to 1e-9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < 1e-9:
            return mid
        above = curve_at(mid) > mu_max
        if rising == above:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def eta_range(spec: DesignSpec, curve: MuStarCurve) -> tuple[float, float]:
    """Widest contiguous eta interval where the relevant worst-case curve
    stays at or below ``mu_max``."""
    mask = curve.export_mask()
    etas = curve.etas[mask]
    curve_at = curve.pent_at if spec.link.tx.kind == "pentagon" else curve.value_at
    vals = np.asarray(curve_at(etas))
    feasible = vals <= spec.mu_max
    if not feasible.any():
        raise InfeasibleDesignError(
            f"mu_max = {spec.mu_max:g} is below the curve minimum {vals.min():.4f}")
    # runs of feasible grid points start at +1 and end before -1 steps of
    # the zero-padded mask; the first of the widest in eta is taken
    steps = np.diff(np.concatenate(([0], feasible.astype(np.int8), [0])))
    starts, ends = np.flatnonzero(steps == 1), np.flatnonzero(steps == -1) - 1
    k = int(np.argmax(etas[ends] - etas[starts]))
    i0, i1 = int(starts[k]), int(ends[k])
    eta_min = float(etas[i0])
    eta_max = float(etas[i1])
    if i0 > 0:
        eta_min = _bisect_crossing(curve_at, float(etas[i0 - 1]), eta_min,
                                   spec.mu_max, rising=False)
    if i1 < len(etas) - 1:
        eta_max = _bisect_crossing(curve_at, eta_max, float(etas[i1 + 1]),
                                   spec.mu_max, rising=True)
    return eta_min, eta_max


def distance_range(eta_min: float, eta_max: float, spec: DesignSpec) -> tuple[float, float]:
    """Distance window realising the admissible eta interval:
    ``R_min = eta_min 2 d_t d_r / wavelength`` (at boresight, cos beta = 1) and
    ``R_max = eta_max 2 d_t d_r cos(beta_max) / wavelength``."""
    if not 0 < eta_min < eta_max:
        raise ValueError("need 0 < eta_min < eta_max")
    base = _eta_scale(spec.link)
    r_min = eta_min * base
    r_max = eta_max * base * np.cos(beta_cap(spec.link.tx.kind))
    if r_min >= r_max:
        raise InfeasibleDesignError(
            f"empty distance window: R_min = {r_min:.3f} m >= R_max = {r_max:.3f} m")
    return float(r_min), float(r_max)


def design_link(spec: DesignSpec, curve: MuStarCurve) -> DesignResult:
    """Full design pass: quality target -> eta interval -> distance range."""
    eta_min, eta_max = eta_range(spec, curve)
    r_min, r_max = distance_range(eta_min, eta_max, spec)
    return DesignResult(eta_min=eta_min, eta_max=eta_max, r_min=r_min, r_max=r_max,
                        beta_max=beta_cap(spec.link.tx.kind), mu_max=spec.mu_max)
