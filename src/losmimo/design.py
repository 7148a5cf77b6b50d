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
from .orientation import MuStarCurve

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
    """Chosen transmit pair: indices, realised elevation, baseline length and
    (for pentagons) whether the pair is a neighbouring one. A selection over a
    batch of n rotations holds arrays: ``pair`` (n, 2) and the rest (n,)."""

    pair: tuple[int, int] | NDArray
    beta: float | NDArray
    spacing: float | NDArray
    neighbouring: bool | NDArray | None


def select_tx_pair(tx_layout: ArrayLayout, u_tx: NDArray, u: NDArray,
                   restrict: str | None = None) -> PairSelection:
    """Pick the two transmit antennas minimising ``|sin(beta)| = |u . t|``.

    ``u`` is the unit link direction and ``t`` the unit baseline of a candidate
    pair, rotated by ``u_tx``: one (3, 3) rotation, or (n, 3, 3) for a batch.
    Exact ties go to the smallest index pair, but each pentagon edge is
    parallel to a diagonal, so their ``|sin(beta)|`` agree up to rounding
    (4e-16) and rounding picks either, about half the time each. For pentagons,
    ``restrict`` limits the candidates to "neighbouring" or "non-neighbouring"
    pairs; either class on its own still caps ``|beta|`` at pi/10.
    """
    if tx_layout.n < 3:
        raise ValueError("pair selection needs at least 3 transmit antennas")
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-9:
        raise ValueError("link direction must be a unit vector")
    pairs = np.array([(m, n) for m in range(tx_layout.n) for n in range(m + 1, tx_layout.n)])
    pos = tx_layout.positions
    baselines = pos[pairs[:, 0]] - pos[pairs[:, 1]]
    lengths = np.linalg.norm(baselines, axis=1)
    if restrict is not None:
        if restrict not in ("neighbouring", "non-neighbouring"):
            raise ValueError("restrict must be 'neighbouring' or 'non-neighbouring'")
        keep = np.isclose(lengths, tx_layout.spacing, rtol=1e-9)
        if restrict == "non-neighbouring":
            keep = ~keep
        if not keep.any():
            raise ValueError(f"layout has no {restrict} pairs")
        pairs, baselines, lengths = pairs[keep], baselines[keep], lengths[keep]
    u_tx = np.asarray(u_tx, dtype=float)
    # u_tx @ baseline for every pair, summed in einsum's order (t0 + t2) + t1:
    # the pentagon's spacing class hangs on the last bit of sin(beta)
    cols = u_tx.reshape(-1, 3, 3).transpose(2, 0, 1).copy()   # cols[j] = u_tx[:, :, j]
    t = [cols[j] * baselines[:, j, None, None] for j in range(3)]   # (pairs, n, 3)
    rotated = ((t[0] + t[2]) + t[1]).transpose(1, 0, 2)
    sin_beta = (rotated / lengths[:, None]) @ u
    best = np.argmin(np.abs(sin_beta), axis=1)
    beta = np.arcsin(np.clip(sin_beta[np.arange(len(best)), best], -1, 1))
    spacing = lengths[best]
    neighbouring = None
    if tx_layout.kind == "pentagon":
        neighbouring = np.abs(spacing - tx_layout.spacing) < 1e-9 * tx_layout.spacing
    if u_tx.ndim == 3:
        return PairSelection(pair=pairs[best], beta=beta, spacing=spacing,
                             neighbouring=neighbouring)
    return PairSelection(pair=tuple(int(i) for i in pairs[best[0]]), beta=float(beta[0]),
                         spacing=float(spacing[0]),
                         neighbouring=None if neighbouring is None else bool(neighbouring[0]))


def select_tx_pair_for_quality(tx_layout: ArrayLayout, u_tx: NDArray, u: NDArray,
                               r_link: float, d_r: float, wavelength: float,
                               mu_max: float, curve: MuStarCurve) -> PairSelection:
    """Pentagon-aware selection honouring a quality target.

    Takes the minimum-``|beta|`` pair first; if the worst-case curve at that
    pair's deviation factor exceeds ``mu_max``, switches to the best pair of
    the other spacing class (whose larger/smaller baseline shifts eta onto the
    admissible branch). Falls back to the plain selection for triangles.
    """
    choice = select_tx_pair(tx_layout, u_tx, u)
    if tx_layout.kind != "pentagon":
        return choice
    eta = deviation_factor(r_link, choice.spacing, d_r, choice.beta, wavelength)
    if curve.value_at(min(max(eta, curve.etas[0]), curve.etas[-1])) <= mu_max:
        return choice
    other = "non-neighbouring" if choice.neighbouring else "neighbouring"
    return select_tx_pair(tx_layout, u_tx, u, restrict=other)


@dataclass(frozen=True)
class DesignSpec:
    """A quality target ``mu <= mu_max`` for ``link``, whose transmitter is a
    triangle or a pentagon and whose receiver is the tetrahedron that the mu*
    curve is computed for. The lengths are checked where the link is built."""

    mu_max: float
    link: LinkSpec

    def __post_init__(self):
        if not 0.0 < self.mu_max < 1.0:
            raise ValueError("mu_max must lie strictly between 0 and 1")
        if self.link.rx.kind != "tetrahedron":
            raise ValueError("the mu* curve is the tetrahedron's; no design for receive "
                             f"kind {self.link.rx.kind!r}")
        beta_cap(self.link.tx.kind)


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
    link = spec.link
    base = 2.0 * link.tx.spacing * link.rx.spacing / link.wavelength
    r_min = eta_min * base
    r_max = eta_max * base * np.cos(beta_cap(link.tx.kind))
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
