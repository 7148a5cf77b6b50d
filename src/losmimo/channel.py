"""LoS channel synthesis and its 2x2 upper-triangular reduction.

The channel entries are pure phases determined by the transmit-receive
distances; the two-column channel is summarised by the correlation ``mu``
between its columns and the phase ``theta_mu`` of their inner product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .geometry import ArrayLayout

__all__ = [
    "ReducedChannel",
    "los_channel",
    "reduce_channel",
    "deviation_factor",
    "mu_model",
    "closed_form_2x2",
]


def los_channel(distances: NDArray, wavelength: float) -> NDArray:
    """Unit-modulus channel matrix ``exp(i 2 pi r / wavelength)`` entrywise.

    The phase ``(2 pi r) (1 / wavelength)`` is written into the imaginary part
    of one zeroed buffer and exponentiated in place: the bits of
    ``np.exp(2j * np.pi * r / wavelength)``, whose complex division by a real
    number multiplies by its reciprocal, without its complex temporaries."""
    if not 0.0 < wavelength < np.inf:
        raise ValueError("wavelength must be positive")
    r = np.asarray(distances, dtype=float)
    if np.any(r <= 0):
        raise ValueError("distances must be positive")
    return _phasors(r, wavelength)


def _phasors(lengths: NDArray, wavelength: float) -> NDArray:
    """``exp(i 2 pi x / wavelength)`` of any real lengths or path differences
    ``x``, built as ``los_channel`` builds its entries."""
    h = np.zeros(np.shape(lengths), dtype=complex)
    np.multiply(lengths, 2.0 * np.pi, out=h.imag)
    h.imag *= 1.0 / wavelength
    return np.exp(h, out=h)


@dataclass(frozen=True)
class ReducedChannel:
    """Upper-triangular factor of a two-column channel.

    ``r_matrix`` has a real non-negative diagonal; for unit-modulus channels it
    equals ``sqrt(n_r) [[1, mu e^{i theta_mu}], [0, sqrt(1 - mu^2)]]``.
    """

    r_matrix: NDArray  # (2, 2) complex, upper triangular
    mu: float
    theta_mu: float


def reduce_channel(h: NDArray) -> ReducedChannel:
    """Closed-form Gram-Schmidt reduction of a two-column channel matrix.

    The phase convention keeps the diagonal real and non-negative, so the
    result is the unique QR factor with that property. The off-diagonal term
    carries ``mu`` and ``theta_mu``.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[1] != 2:
        raise ValueError("channel must have exactly 2 columns")
    if h.shape[0] < 1:
        raise ValueError("channel must have at least one row")
    h1, h2 = h[:, 0], h[:, 1]
    n1 = np.linalg.norm(h1)
    n2 = np.linalg.norm(h2)
    if n1 <= 0 or n2 <= 0:
        raise ValueError("zero channel column")
    inner = np.vdot(h1, h2)
    mu = float(np.abs(inner) / (n1 * n2))
    theta = float(np.angle(inner) % (2.0 * np.pi))
    r12 = inner / n1
    rest = n2 * n2 - np.abs(r12) ** 2
    # rounding can push 1 - mu^2 slightly negative at mu = 1
    r22 = np.sqrt(rest) if rest > 1e-15 * n2 * n2 else 0.0
    r = np.array([[n1, r12], [0.0, r22]], dtype=complex)
    return ReducedChannel(r_matrix=r, mu=min(mu, 1.0), theta_mu=theta)


def deviation_factor(R, d_t, d_r, beta, wavelength) -> float | NDArray:
    """Deviation factor ``eta = R wavelength / (2 d_t d_r cos(beta))``, elementwise
    over arguments that broadcast together; a float when all are scalars. Any
    element out of range is an error."""
    if not all(np.all((0.0 < np.asarray(x)) & (np.asarray(x) < np.inf))
               for x in (R, d_t, d_r, wavelength)):
        raise ValueError("R, d_t, d_r and wavelength must be positive")
    c = np.cos(beta)
    # written so that a NaN beta fails the check
    if not np.all(c > 1e-12):
        raise ValueError("cos(beta) must be positive; at |beta| = pi/2 the "
                         "worst-case correlation is 1 and eta is undefined")
    eta = R * wavelength / (2.0 * d_t * d_r * c)
    return float(eta) if np.ndim(eta) == 0 else eta


def mu_model(layout: ArrayLayout, v, eta) -> float | NDArray:
    """Model correlation ``mu = |sum_m exp(i (pi/eta) (d_m/spacing) r_m . v)| / n_r``
    of ``layout``, antenna ``m`` at ``d_m r_m``, for the transverse direction(s)
    ``v`` seen in the array frame.

    ``v`` is (..., 3) unit rows and ``eta`` broadcasts against its leading axes;
    one direction with one eta gives a float. Physical lengths enter through
    ``eta = deviation_factor(R, d_t, layout.spacing, beta, wavelength)``.
    """
    v = np.asarray(v, dtype=float)
    eta = np.asarray(eta, dtype=float)
    # written so that a NaN norm fails the check
    if not np.all(np.abs(np.linalg.norm(v, axis=-1) - 1.0) <= 1e-9):
        raise ValueError("directions must be unit vectors")
    if not np.all((0.0 < eta) & (eta < np.inf)):
        raise ValueError("eta must be positive")
    arg = ((np.pi / eta)[..., None] * (layout.radii / layout.spacing)) * (v @ layout.directions.T)
    mu = np.hypot(np.cos(arg).sum(axis=-1), np.sin(arg).sum(axis=-1)) / layout.n
    return float(mu) if mu.ndim == 0 else mu


def closed_form_2x2(d_t: float, d_r: float, R: float, wavelength: float,
                    beta: float) -> tuple[float, float]:
    """Closed-form ``(mu, theta_mu)`` for the aligned 2x2 link.

    Both uniform linear arrays lie on the transverse axis, giving
    ``mu = |cos(pi d_t d_r cos(beta) / (R wavelength))|`` with phase
    ``2 pi d_t sin(beta) / wavelength`` (plus pi where the cosine is negative),
    reduced mod 2 pi.
    """
    if not all(0.0 < x < np.inf for x in (d_t, d_r, R, wavelength)):
        raise ValueError("lengths must be positive")
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta!r}")
    cosine = np.cos(np.pi * d_t * d_r * np.cos(beta) / (R * wavelength))
    theta = 2.0 * np.pi * d_t * np.sin(beta) / wavelength
    if cosine < 0:
        theta += np.pi
    return float(abs(cosine)), float(theta % (2.0 * np.pi))
