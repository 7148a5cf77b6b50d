"""Pairwise-error-probability metrics and bounds.

Every function but ``pep_exact`` and ``pep_chernoff`` is a pure function of
plain codeword-difference triples ``(||dx1||^2, ||dx2||^2, |dx1^H dx2|)`` of
shape ``(..., 3)``, the channel correlation ``mu``, the SNR and ``n_r``, and
broadcasts over all of them (``coding_gain`` and ``union_bound`` take the
least d-metric over their triples); ``pep_exact`` and ``pep_chernoff`` take
the channel factor R and a codeword difference dX, which broadcast as the
operands of ``@``, and the SNR. A call with one of each is a batch of one and
returns a float.
Bounds are evaluated in the log domain so they remain meaningful far past the
point where ``exp(-SNR d / 4)`` underflows.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.typing import ArrayLike, NDArray

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


def _out(lp, log: bool = True) -> NDArray | float:
    """``lp`` (or ``exp(lp)`` unless ``log``); a 0-d result as a float."""
    x = np.asarray(lp if log else np.exp(lp))
    return float(x) if x.ndim == 0 else x


def _params(mu: ArrayLike = 0.0, snr: ArrayLike = 1.0, n_r: ArrayLike = 1):
    mu, snr, n_r = (np.asarray(v, dtype=float) for v in (mu, snr, n_r))
    # written so that a NaN fails each check
    if not np.all((0.0 <= mu) & (mu <= 1.0)):
        raise ValueError("mu must lie in [0, 1]")
    if not (np.all(snr > 0) and np.all(n_r >= 1)):
        raise ValueError("need snr > 0 and n_r >= 1")
    return mu, snr, n_r


def _triples(diff: ArrayLike) -> tuple[NDArray, NDArray, NDArray]:
    t = np.asarray(diff, dtype=float)
    if t.shape[-1:] != (3,):
        raise ValueError("difference triples need a last axis of length 3")
    a, b, c = t[..., 0], t[..., 1], t[..., 2]
    if np.any(t < 0):
        raise ValueError("difference triple entries must be non-negative")
    if np.any(c > np.sqrt(a * b) + 1e-9):
        raise ValueError("triple violates the Cauchy-Schwarz inequality")
    return a, b, c


def log_i0(x: ArrayLike) -> NDArray | float:
    """Natural log of the modified Bessel function I0, stable for large x."""
    from scipy.special import i0e  # imported on use: it costs most of ``import losmimo``

    x = np.abs(np.asarray(x, dtype=float))
    return _out(np.log(i0e(x)) + x)


def d_metric(mu: ArrayLike, diff: ArrayLike) -> NDArray | float:
    """Worst-phase squared receive distance per antenna:
    ``||dx1||^2 + ||dx2||^2 - 2 mu |dx1^H dx2|``."""
    mu = _params(mu=mu)[0]
    a, b, c = _triples(diff)
    return _out(a + b - 2.0 * mu * c)


def coding_gain(triples: ArrayLike, mu: ArrayLike) -> NDArray | float:
    """Least ``d_metric`` over the difference triples (..., 3) per ``mu``, one
    triple at a time, so that memory grows with ``mu`` alone."""
    mu = _params(mu=mu)[0]
    a, b, c = (x.ravel() for x in _triples(triples))
    if a.size == 0:
        raise ValueError("empty difference spectrum")
    return _out(reduce(np.minimum, (x + y - 2.0 * mu * z for x, y, z in zip(a, b, c))))


def _received_sq_distance(r_matrix: ArrayLike, delta_x: ArrayLike) -> NDArray:
    rd = np.asarray(r_matrix, dtype=complex) @ np.asarray(delta_x, dtype=complex)
    return np.sum(np.abs(rd) ** 2, axis=(-2, -1))


def pep_exact(r_matrix: ArrayLike, delta_x: ArrayLike, snr: ArrayLike, log: bool = False):
    """Exact pairwise error probability ``Q(sqrt(SNR ||R dX||_F^2 / 2))``;
    ``r_matrix`` and ``delta_x`` broadcast as the operands of ``@``."""
    from scipy.special import log_ndtr  # imported on use, as in ``log_i0``

    snr = _params(snr=snr)[1]
    arg = np.sqrt(snr * _received_sq_distance(r_matrix, delta_x) / 2.0)
    return _out(log_ndtr(-arg), log)


def pep_chernoff(r_matrix: ArrayLike, delta_x: ArrayLike, snr: ArrayLike, log: bool = False):
    """Chernoff bound ``exp(-SNR ||R dX||_F^2 / 4) / 2`` on the exact PEP."""
    snr = _params(snr=snr)[1]
    return _out(-0.25 * snr * _received_sq_distance(r_matrix, delta_x) - np.log(2.0), log)


def pep_worst(mu: ArrayLike, diff: ArrayLike, snr: ArrayLike, n_r: ArrayLike, log: bool = False):
    """Chernoff bound at the worst inner-product phase:
    ``exp(-n_r SNR d(mu, dX) / 4) / 2``."""
    _, snr, n_r = _params(snr=snr, n_r=n_r)
    return _out(-0.25 * n_r * snr * d_metric(mu, diff) - np.log(2.0), log)


def pep_avg_theta(mu: ArrayLike, diff: ArrayLike, snr: ArrayLike, n_r: ArrayLike,
                  log: bool = False, form: str = "both"):
    """Phase-averaged PEP bounds for a fixed ``mu``.

    With ``form="both"`` returns ``(exact, asymptotic)``: the exact Bessel-I0
    upper bound ``exp(-SNR n_r (a + b) / 4) I0(SNR n_r mu c / 2) / 2`` and its
    large-argument approximation
    ``exp(-n_r SNR d(mu, dX) / 4) / sqrt(4 pi n_r SNR mu c)``. ``form="exact"``
    or ``"asymptotic"`` returns one value; the asymptotic form requires
    ``mu * c > 0``.
    """
    mu, snr, n_r = _params(mu, snr, n_r)
    if form not in ("both", "exact", "asymptotic"):
        raise ValueError("form must be 'both', 'exact' or 'asymptotic'")
    a, b, c = _triples(diff)
    values = []
    if form != "asymptotic":
        values.append(-0.25 * snr * n_r * (a + b) - np.log(2.0)
                      + log_i0(0.5 * snr * n_r * mu * c))
    if form != "exact":
        if np.any(mu * c <= 0):
            raise ValueError("asymptotic form needs mu |dx1^H dx2| > 0")
        values.append(-0.25 * n_r * snr * d_metric(mu, diff)
                      - 0.5 * np.log(4.0 * np.pi * n_r * snr * mu * c))
    values = tuple(_out(lp, log) for lp in values)
    return values if form == "both" else values[0]


def planar_lower_bound(diff: ArrayLike, snr: ArrayLike, n_r: ArrayLike, c: ArrayLike,
                       log: bool = False):
    """High-SNR lower bound on the rotation-averaged PEP for planar receive
    arrays.

    ``c`` is the geometry constant ``max_m 2 pi d_t d_m / (R wavelength)``
    (use the smallest link distance for a conservative value). The bound is
    degenerate when the difference rows are orthogonal.
    """
    _, snr, n_r = _params(snr=snr, n_r=n_r)
    c = np.asarray(c, dtype=float)
    if not np.all(c > 0):
        raise ValueError("geometry constant c must be positive")
    a, b, cross = _triples(diff)
    if np.any(cross <= 0):
        raise ValueError("bound degenerate: |dx1^H dx2| = 0")
    lp = (-0.5 * n_r * c * cross
          - np.log(2.0 * n_r) - 3.0 * np.log(snr)
          - 0.5 * np.log(2.0 * np.pi**2 * cross)
          - np.log(np.sqrt(a + b) + 1.0 / np.sqrt(n_r * snr))
          - 0.25 * n_r * snr * d_metric(1.0, diff))
    return _out(lp, log)


def union_bound(n_codewords: int, triples: ArrayLike, mu_max: ArrayLike,
                snr: ArrayLike, n_r: ArrayLike, log: bool = False):
    """Union bound ``|C|/2 exp(-n_r SNR min_d / 4)`` on the error rate, ``min_d``
    the ``coding_gain`` of ``triples`` at the worst admissible ``mu_max``."""
    if n_codewords < 2:
        raise ValueError("need at least 2 codewords")
    _, snr, n_r = _params(snr=snr, n_r=n_r)
    lp = np.log(n_codewords / 2.0) - 0.25 * n_r * snr * coding_gain(triples, mu_max)
    return _out(lp, log)
