"""Pairwise-error-probability metrics and bounds.

Everything here is a pure function of a codeword-difference triple
``(||dx1||^2, ||dx2||^2, |dx1^H dx2|)``, the channel correlation ``mu`` and
the SNR. Bounds are evaluated in the log domain so they remain meaningful far
past the point where ``exp(-SNR d / 4)`` underflows.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.typing import NDArray

from .codes import DiffSpectrum

__all__ = [
    "d_metric",
    "coding_gain",
    "pep_exact",
    "pep_chernoff",
    "pep_worst",
    "pep_avg_theta",
    "planar_lower_bound",
    "union_bound",
    "log_i0",
]

def log_i0(x: float) -> float:
    """Natural log of the modified Bessel function I0, stable for large x."""
    from scipy.special import i0e  # imported on use: it costs most of ``import losmimo``

    x = abs(float(x))
    return float(np.log(i0e(x)) + x)


def _triple(diff) -> tuple[float, float, float]:
    a, b, c = (float(v) for v in np.asarray(diff, dtype=float).reshape(3))
    if a < 0 or b < 0 or c < 0:
        raise ValueError("difference triple entries must be non-negative")
    if c > math.sqrt(a * b) + 1e-9:
        raise ValueError("triple violates the Cauchy-Schwarz inequality")
    return a, b, c


def d_metric(mu: float, diff) -> float:
    """Worst-phase squared receive distance per antenna:
    ``||dx1||^2 + ||dx2||^2 - 2 mu |dx1^H dx2|``."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    a, b, c = _triple(diff)
    return a + b - 2.0 * mu * c


def coding_gain(spectrum: DiffSpectrum, mu: float) -> float:
    """Minimum of the d-metric over the whole difference spectrum."""
    if spectrum.size == 0:
        raise ValueError("empty difference spectrum")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    t = spectrum.triples
    return float(np.min(t[:, 0] + t[:, 1] - 2.0 * mu * t[:, 2]))


def _received_sq_distance(r_matrix: NDArray, delta_x: NDArray) -> float:
    rd = np.asarray(r_matrix, dtype=complex) @ np.asarray(delta_x, dtype=complex)
    return float(np.sum(np.abs(rd) ** 2))


def pep_exact(r_matrix: NDArray, delta_x: NDArray, snr: float, log: bool = False) -> float:
    """Exact pairwise error probability ``Q(sqrt(SNR ||R dX||_F^2 / 2))``."""
    from scipy.special import log_ndtr  # imported on use, as in ``log_i0``

    if snr <= 0:
        raise ValueError("snr must be positive")
    arg = math.sqrt(snr * _received_sq_distance(r_matrix, delta_x) / 2.0)
    lp = float(log_ndtr(-arg))
    return lp if log else math.exp(lp)


def pep_chernoff(r_matrix: NDArray, delta_x: NDArray, snr: float, log: bool = False) -> float:
    """Chernoff bound ``exp(-SNR ||R dX||_F^2 / 4) / 2`` on the exact PEP."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    lp = -0.25 * snr * _received_sq_distance(r_matrix, delta_x) - math.log(2.0)
    return lp if log else math.exp(lp)


def pep_worst(mu: float, diff, snr: float, n_r: int, log: bool = False) -> float:
    """Chernoff bound at the worst inner-product phase:
    ``exp(-n_r SNR d(mu, dX) / 4) / 2``."""
    if snr <= 0 or n_r < 1:
        raise ValueError("need snr > 0 and n_r >= 1")
    lp = -0.25 * n_r * snr * d_metric(mu, diff) - math.log(2.0)
    return lp if log else math.exp(lp)


def pep_avg_theta(mu: float, diff, snr: float, n_r: int, log: bool = False,
                  form: str = "both"):
    """Phase-averaged PEP bounds for a fixed ``mu``.

    With ``form="both"`` returns ``(exact, asymptotic)``: the exact Bessel-I0
    upper bound ``exp(-SNR n_r (a + b) / 4) I0(SNR n_r mu c / 2) / 2`` and its
    large-argument approximation
    ``exp(-n_r SNR d(mu, dX) / 4) / sqrt(4 pi n_r SNR mu c)``. ``form="exact"``
    or ``"asymptotic"`` returns one value; the asymptotic form requires
    ``mu * c > 0``.
    """
    if snr <= 0 or n_r < 1:
        raise ValueError("need snr > 0 and n_r >= 1")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if form not in ("both", "exact", "asymptotic"):
        raise ValueError("form must be 'both', 'exact' or 'asymptotic'")
    a, b, c = _triple(diff)
    if form != "asymptotic":
        log_exact = (-0.25 * snr * n_r * (a + b) - math.log(2.0)
                     + log_i0(0.5 * snr * n_r * mu * c))
        if form == "exact":
            return log_exact if log else math.exp(log_exact)
    if mu * c <= 0:
        raise ValueError("asymptotic form needs mu |dx1^H dx2| > 0")
    log_asym = (-0.25 * n_r * snr * (a + b - 2.0 * mu * c)
                - 0.5 * math.log(4.0 * math.pi * n_r * snr * mu * c))
    if form == "asymptotic":
        return log_asym if log else math.exp(log_asym)
    if log:
        return log_exact, log_asym
    return math.exp(log_exact), math.exp(log_asym)


def planar_lower_bound(diff, snr: float, n_r: int, c: float, log: bool = False) -> float:
    """High-SNR lower bound on the rotation-averaged PEP for planar receive
    arrays.

    ``c`` is the geometry constant ``max_m 2 pi d_t d_m / (R wavelength)``
    (use the smallest link distance for a conservative value). The bound is
    degenerate when the difference rows are orthogonal.
    """
    if snr <= 0 or n_r < 1:
        raise ValueError("need snr > 0 and n_r >= 1")
    if c <= 0:
        raise ValueError("geometry constant c must be positive")
    a, b, cross = _triple(diff)
    if cross <= 0:
        raise ValueError("bound degenerate: |dx1^H dx2| = 0")
    d1 = a + b - 2.0 * cross
    fro = math.sqrt(a + b)
    lp = (-0.5 * n_r * c * cross
          - math.log(2.0 * n_r) - 3.0 * math.log(snr)
          - 0.5 * math.log(2.0 * math.pi**2 * cross)
          - math.log(fro + 1.0 / math.sqrt(n_r * snr))
          - 0.25 * n_r * snr * d1)
    return lp if log else math.exp(lp)


def union_bound(n_codewords: int, spectrum: DiffSpectrum, mu_max: float,
                snr: float, n_r: int, log: bool = False) -> float:
    """Union bound ``|C|/2 exp(-n_r SNR min_d / 4)`` on the error rate under
    the worst admissible correlation ``mu_max``."""
    if n_codewords < 2:
        raise ValueError("need at least 2 codewords")
    min_d = coding_gain(spectrum, mu_max)
    lp = math.log(n_codewords / 2.0) - 0.25 * n_r * snr * min_d
    return lp if log else math.exp(lp)
