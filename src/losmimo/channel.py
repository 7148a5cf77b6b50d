"""The LoS channel's phasors, the deviation factor and the correlation of a
channel's columns: its first-order model, and its closed form for the aligned
2x2 link.

The channel entries are pure phases exp(i 2 pi r / wavelength) determined by
the transmit-receive distances r; the two-column channel is summarised by the
correlation ``mu`` between its columns and the phase ``theta_mu`` of their
inner product.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .geometry import ArrayLayout

__all__ = [
    "deviation_factor",
    "mu_model",
    "closed_form_2x2",
]


def _phasors(lengths: NDArray, wavelength: float) -> NDArray:
    """``exp(i 2 pi x / wavelength)`` of any real lengths or path differences
    ``x``: the phase ``(2 pi x) (1 / wavelength)`` is written into the imaginary
    part of one zeroed buffer and exponentiated in place. That gives the bits of
    ``np.exp(2j * np.pi * x / wavelength)``, whose complex division by a real
    number multiplies by its reciprocal, without its complex temporaries."""
    h = np.zeros(np.shape(lengths), dtype=complex)
    np.multiply(lengths, 2.0 * np.pi, out=h.imag)
    h.imag *= 1.0 / wavelength
    return np.exp(h, out=h)


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
