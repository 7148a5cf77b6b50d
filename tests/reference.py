"""Plain-NumPy references for the link pipeline and the tetrahedral lemmas,
each written out once and calling no ``losmimo`` routine that it is compared
against: antenna positions and distances, the LoS channel of distances, the QR
factor of a channel, the correlation of its columns, the brute-force ML
decision, the paper's first-order path difference and the edge-code
quantisation of the sphere."""

import numpy as np

from losmimo.geometry import _fibonacci_sphere
from losmimo.montecarlo import _ideal_channel, _law_draws, _link_distances
from losmimo.orientation import edge_code

# sphere samples per piece of the edge-code scan: 48 MB of dot products
EDGE_CHUNK = 500_000


def per_axis_positions(layout, u):
    """(n, n_ant, 3) positions of ``layout`` under the rotations ``u`` (n, 3, 3):
    each antenna's coordinate on axis j times column j of its link's rotation,
    summed over j in order. A coordinate of 0 adds an exact 0, so this is the
    sum over the axes the layout occupies."""
    pos = layout.positions
    return sum(pos[None, :, j, None] * u[:, None, :, j] for j in range(3))


def link_positions(tx_layout, rx_layout, u_tx, u_rx, r_link, axis=(1.0, 0.0, 0.0)):
    """(n, n_t, 3) transmit and (n, n_r, 3) receive positions of n links: the
    arrays rotated by ``u_tx`` and ``u_rx`` (n, 3, 3) about their centroids,
    and the receive centroids at ``r_link`` (n,) along ``axis``."""
    rx = np.asarray(r_link)[:, None, None] * np.asarray(axis)
    return per_axis_positions(tx_layout, u_tx), rx + per_axis_positions(rx_layout, u_rx)


def distances(tx, rx):
    """(..., n_r, n_t) distances between the receive antennas ``rx`` (..., n_r, 3)
    and the transmit antennas ``tx`` (..., n_t, 3)."""
    return np.linalg.norm(rx[..., :, None, :] - tx[..., None, :, :], axis=-1)


def channel(lengths, wavelength):
    """The unit-modulus LoS channel exp(i 2 pi r / wavelength) of the antenna
    distances r ``lengths``, entrywise."""
    return np.exp(2j * np.pi * np.asarray(lengths) / wavelength)


def law_channels(law, n, rng):
    """The n-last (n_r, 2, n) channels of n links of ``law``, drawn from ``rng``
    as ``law.rho`` draws them: the ideal channel, or the ``channel`` of the
    distances the engine places the links at."""
    if law.ideal:
        h = _ideal_channel(law.link.rx.n)
        return np.broadcast_to(h[..., None], h.shape + (n,))
    return channel(_link_distances(law.link, *_law_draws(law, n, rng)), law.link.wavelength)


def ml_decisions(h, y, snr, codewords):
    """The index k that minimises ||y - sqrt(snr) h X_k||_F^2, the lowest on
    ties, for each of the n blocks ``y`` (n, n_r, T) over the channels ``h``
    (n, n_r, 2): the ML decision, by brute force over the ``codewords``
    (K, 2, T)."""
    best = np.full(len(h), np.inf)
    want = np.zeros(len(h), dtype=int)
    for k, x in enumerate(codewords):
        d = (np.abs(y - np.sqrt(snr) * h @ x) ** 2).sum(axis=(1, 2))
        want[d < best] = k
        best = np.minimum(best, d)
    return want


def elevation(beta):
    """The transmit rotation of elevation ``beta`` about the y axis: it turns z
    to (sin beta, 0, cos beta), so a transmit ULA on z makes the angle beta with
    the plane orthogonal to the +x link, and z stays the transverse axis that
    the first-order path difference projects the receive antennas on."""
    c, s = np.cos(beta), np.sin(beta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def qr_factor(h):
    """The (..., 2, 2) factor R of ``h`` = QR (..., n_r, 2) by ``np.linalg.qr``,
    each row turned by the phase that makes its diagonal entry real and
    non-negative (Q's columns take the opposite phases)."""
    r = np.linalg.qr(h, mode="r")
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    return r * np.exp(-1j * np.angle(diagonal))[..., :, None]


def correlation(h):
    """(mu, theta_mu) of one n_r x 2 channel: ``mu`` = |h_0^H h_1| / (|h_0| |h_1|),
    at most 1, and ``theta_mu`` the angle of h_0^H h_1 in [0, 2 pi)."""
    inner = np.vdot(h[:, 0], h[:, 1])
    mu = float(np.abs(inner) / (np.linalg.norm(h[:, 0]) * np.linalg.norm(h[:, 1])))
    return min(mu, 1.0), float(np.angle(inner) % (2.0 * np.pi))


def path_difference(d_t, d_m, beta, r_link, cos_theta):
    """The paper's first-order path difference r_m2 - r_m1 of a receive antenna
    at ``d_m`` from its centroid, whose direction makes the angle theta_m with
    the transverse axis: d_t sin(beta) + d_t d_m cos(beta) cos(theta_m) / R."""
    return d_t * np.sin(beta) + d_t * d_m * np.cos(beta) * cos_theta / r_link


def edge_code_region_minima(samples):
    """Per-Voronoi-region minima of g_i . v over the 12 edge-code regions, for
    v on the ``samples``-point spiral lattice of the sphere."""
    g = edge_code()
    minima = np.full(len(g), np.inf)
    for start in range(0, samples, EDGE_CHUNK):
        dots = _fibonacci_sphere(samples, start, min(start + EDGE_CHUNK, samples)) @ g.T
        region = np.argmax(dots, axis=1)
        np.minimum.at(minima, region, dots[np.arange(len(dots)), region])
    return minima
