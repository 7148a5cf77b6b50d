"""Seed-reproducible Monte-Carlo engine: ML-decoded BER campaigns over random
orientations and distances, and the joint (theta_mu, mu) density experiment.

Trials are partitioned into fixed-size blocks; the random stream of a block
derives from (master seed, SNR index, block index), so the SNR points of a
campaign are independent and results do not depend on where or in what order
the points run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.typing import NDArray

from . import codes
from ._csv import write_csv
from .channel import _phasors, los_channel
from .codes import Codebook
from .design import select_tx_pair
from .geometry import (LINK_DIRECTION, PLACE_COLS, LinkSpec, link_distances, place_arrays,
                       quaternion_rotations, rotation_normals, uniform_rotation)

__all__ = [
    "SimConfig",
    "BerCurve",
    "DensityGrid",
    "build_codebook",
    "ml_decode",
    "run_point",
    "run_ber",
    "check_density_inputs",
    "joint_density",
]

# samples per batch of joint_density; it fixes the order of the random stream
DENSITY_BLOCK = 200_000
# samples per piece of a joint_density block: a piece's temporaries stay in
# cache, and its PLACE_COLS sub-pieces fall where the whole block's would
DENSITY_PIECE = 4 * PLACE_COLS
# rows per product in ml_decode's stacked GEMM: each (64 x 12) @ (12 x 256)
# stays below OpenBLAS's threading threshold, so decoding starts no BLAS threads
ML_ROWS = 64


def build_codebook(scheme: str) -> Codebook:
    """The three reference schemes, all at 4 bits per channel use."""
    if scheme == "sm":
        return codes.sm_codebook(codes.gray_qam(4, 0.5))
    if scheme == "golden":
        return codes.golden_codebook(codes.gray_qam(4, 0.5))
    if scheme == "simo":
        return codes.simo_codebook(codes.gray_qam(16, 1.0))
    raise ValueError(f"unknown scheme {scheme!r}; expected sm, golden or simo")


@dataclass(frozen=True)
class SimConfig:
    """One BER campaign: scheme, link, SNR grid and stopping rule.

    ``link`` holds the wavelength and both arrays; the receive array is any
    layout, and ``link.rx.n`` is n_r. ``distance`` is either a float (fixed
    range) or a (low, high) pair for a uniformly distributed inter-terminal
    distance; unless ``ideal_channel`` is set, it must stay beyond the sum of
    the transmit and receive array radii. ``ideal_channel`` bypasses the
    geometry and feeds the decoder a perfectly orthogonal channel.
    """

    scheme: str
    link: LinkSpec
    distance: float | tuple[float, float]
    snr_db: tuple[float, ...]
    max_trials: int = 200_000
    target_errors: int = 200
    seed: int = 0
    block_trials: int = 2_500
    ideal_channel: bool = False

    def __post_init__(self):
        build_codebook(self.scheme)
        for name in ("max_trials", "target_errors", "block_trials"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.max_trials < 1 or self.target_errors < 1 or self.block_trials < 1:
            raise ValueError("trial budgets must be positive")
        _check_seed(self.seed)
        snr_db = tuple(self.snr_db)
        if not snr_db or not all(_is_real(s) and np.isfinite(s) for s in snr_db):
            raise ValueError(f"SNR grid must be a non-empty list of finite numbers, got {snr_db!r}")
        if list(snr_db) != sorted(snr_db):
            raise ValueError("SNR grid must be sorted")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in snr_db))
        if not isinstance(self.distance, (int, float)):
            lo, hi = self.distance
            if not 0 < lo <= hi < np.inf:
                raise ValueError("distance range must satisfy 0 < low <= high < inf")
            object.__setattr__(self, "distance", (float(lo), float(hi)))
        if not self.ideal_channel:
            _check_clearance(self.link, self.distance[0] if isinstance(self.distance, tuple)
                             else float(self.distance))


def _check_clearance(link: LinkSpec, distance: float) -> None:
    """Reject a link distance at which the two arrays can overlap."""
    if not distance < np.inf:
        raise ValueError(f"distance must be finite, got {distance!r}")
    reach = float(link.tx.radii.max() + link.rx.radii.max())
    if not distance > reach:
        raise ValueError(f"distance {distance:g} m is not beyond the {reach:g} m sum of the "
                         "transmit and receive array radii")


@dataclass(frozen=True)
class BerCurve:
    """Per-SNR trial counts, bit errors and 95% Wilson intervals."""

    snr_db: NDArray
    trials: NDArray
    bit_errors: NDArray
    ber: NDArray
    ci_low: NDArray
    ci_high: NDArray
    bits_per_trial: int

    def write_csv(self, path) -> None:
        write_csv(path, ("snr_db", "trials", "bit_errors", "ber", "ci_low", "ci_high"),
                  zip(self.snr_db, self.trials, self.bit_errors, self.ber, self.ci_low,
                      self.ci_high))


def _wilson(errors: int, n: int) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    z = 1.959963984540054  # two-sided 95% normal quantile
    p = errors / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    # the ends are exact where p is: center - half rounds to ~1e-20 at p = 0
    return (0.0 if errors == 0 else max(0.0, center - half),
            1.0 if errors == n else min(1.0, center + half))


class _Engine:
    """Per-campaign state shared by all trial blocks."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.codebook = build_codebook(config.scheme)
        self.snr_lin = tuple(10.0 ** (s / 10.0) for s in config.snr_db)
        # (2, T, K): a gather over trials comes out n-last
        self.codewords_nlast = np.ascontiguousarray(self.codebook.codewords.transpose(1, 2, 0))
        if config.ideal_channel:
            n_r = config.link.rx.n
            phases = np.exp(2j * np.pi * np.arange(n_r) / n_r)
            self.h_ideal = np.column_stack([np.ones(n_r, dtype=complex), phases])

    def _channels(self, n: int, rng: np.random.Generator) -> NDArray:
        """Draw n random links and return their n x (n_r x 2) channels, as the
        transposed view of n-last (n_r, 2, n) memory."""
        cfg, link = self.config, self.config.link
        if isinstance(cfg.distance, tuple):
            r_link = rng.uniform(cfg.distance[0], cfg.distance[1], n)
        else:
            r_link = np.full(n, float(cfg.distance))
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        tx, rx = place_arrays(link.tx, link.rx, u_tx, u_rx, r_link, LINK_DIRECTION)
        if link.tx.n > 2:
            pair = select_tx_pair(link.tx, u_tx).pair
            tx = tx[:, pair.T, np.arange(n)]
        return los_channel(link_distances(tx, rx), link.wavelength).transpose(2, 0, 1)

    def run_block(self, snr_index: int, block_index: int, n_trials: int) -> tuple[int, int]:
        """Simulate one block; returns (trials, bit errors).

        The block is n-last in memory, so every small complex product runs its
        inner loop over the trials; ``ml_decode`` gets n-first views of it."""
        cfg = self.config
        cb = self.codebook
        rng = np.random.default_rng([cfg.seed, snr_index, block_index])
        snr = self.snr_lin[snr_index]
        n, n_r = n_trials, cfg.link.rx.n
        if cfg.ideal_channel:
            h = np.broadcast_to(self.h_ideal[..., None], (n_r, 2, n))
        else:
            h = self._channels(n, rng).transpose(1, 2, 0)
        k_true = rng.integers(0, cb.size, n)
        # y = sqrt(snr) h X + noise, noise = sqrt(1/2) (a + i b) drawn n-first
        y = np.empty((n_r, cb.slots, n), dtype=complex)
        for part in (y.real, y.imag):
            np.multiply(rng.standard_normal((n, n_r, cb.slots)), np.sqrt(0.5),
                        out=part.transpose(2, 0, 1))
        x = self.codewords_nlast[:, :, k_true]
        hx = np.multiply(h[:, 0, None], x[0])
        hx += np.multiply(h[:, 1, None], x[1])
        hx *= np.sqrt(snr)
        y += hx
        _, bits = ml_decode(h.transpose(2, 0, 1), y.transpose(2, 0, 1), snr, cb)
        return n, int(np.sum(cb.bits[k_true] != bits))


def run_point(config: SimConfig, snr_index: int) -> tuple[int, int]:
    """(trials, bit errors) of one SNR point: its blocks in index order until
    the trial budget is used up or the bit-error target is reached."""
    engine = _Engine(config)
    trials = errors = 0
    for b in range(-(-config.max_trials // config.block_trials)):
        t, e = engine.run_block(snr_index, b,
                                min(config.block_trials, config.max_trials - trials))
        trials += t
        errors += e
        if errors >= config.target_errors:
            break
    return trials, errors


def run_ber(config: SimConfig, pool=None) -> BerCurve:
    """Run the full BER campaign described by ``config``.

    Each SNR point is one ``run_point``, mapped over ``pool`` (a
    ``multiprocessing.Pool``) when one is given; the points share no random
    stream, so the output is bit-identical with or without a pool.
    """
    points = (map if pool is None else pool.map)(partial(run_point, config),
                                                  range(len(config.snr_db)))
    trials, errors = np.array(list(points), dtype=np.int64).reshape(-1, 2).T
    n_bits = build_codebook(config.scheme).bits_per_codeword
    bits_total = trials * n_bits
    ber = np.where(bits_total > 0, errors / np.maximum(bits_total, 1), 0.0)
    ci = np.array([_wilson(int(e), int(nb)) for e, nb in zip(errors, bits_total)])
    return BerCurve(snr_db=np.array(config.snr_db), trials=trials, bit_errors=errors,
                    ber=ber, ci_low=ci[:, 0], ci_high=ci[:, 1], bits_per_trial=n_bits)


def ml_decode(h: NDArray, y: NDArray, snr: float,
              codebook: Codebook) -> tuple[int | NDArray, NDArray]:
    """Maximum-likelihood decoding of received blocks.

    ``h`` (..., n_r, 2) and ``y`` (..., n_r, slots) share their leading batch
    axes. Returns the index minimising ``||y - sqrt(snr) h X_k||_F`` (lowest
    index on ties) and its bit label: an int and a bit row for one block,
    arrays for a batch. The metric is its expansion without ``||y||^2``,
    ``snr Re tr(G M_k) - 2 sqrt(snr) Re <X_k, Z>``, ``G = h^H h``, ``Z = h^H y``,
    ``M_k = X_k X_k^H``. It is linear in 4 + 4 slots real features per block (the
    Gram entries and Z), so all K codewords take one real matrix product,
    done in ``ML_ROWS``-row pieces.

    The blocks are taken as n-last views, so the Gram and Z contractions run
    their inner loops over the batch; inputs that are transposed views of
    n-last memory, as ``run_block`` passes, cost no copy.
    """
    h = np.asarray(h, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != 2:
        raise ValueError("channel must be n_r x 2")
    if y.shape != h.shape[:-1] + (codebook.slots,):
        raise ValueError(f"received block must be {h.shape[-2]} x {codebook.slots}")
    if snr <= 0:
        raise ValueError("snr must be positive")
    batch = h.shape[:-2]
    h = np.moveaxis(h.reshape(-1, h.shape[-2], 2), 0, -1)
    y = np.moveaxis(y.reshape(-1, *y.shape[-2:]), 0, -1)
    n = h.shape[-1]
    hc = np.conj(h)
    gram = np.einsum("rin,rjn->ijn", hc, h)
    z = np.einsum("rin,rtn->itn", hc, y).reshape(-1, n)
    # real features, feature-major: G00, G11, Re G01, Im G01, Re Z, Im Z;
    # padded trials stay 0
    feats = np.zeros((4 + 2 * len(z), -(-n // ML_ROWS) * ML_ROWS))
    feats[0, :n] = gram[0, 0].real
    feats[1, :n] = gram[1, 1].real
    feats[2, :n] = gram[0, 1].real
    feats[3, :n] = gram[0, 1].imag
    feats[4:4 + len(z), :n] = z.real
    feats[4 + len(z):, :n] = z.imag
    rows = np.ascontiguousarray(feats.T).reshape(-1, ML_ROWS, len(feats))
    metric = np.matmul(rows, _ml_weights(codebook, snr))
    k = np.argmin(metric.reshape(-1, codebook.size)[:n], axis=-1).reshape(batch)
    if not batch:
        return int(k), codebook.bits[k].copy()
    return k, codebook.bits[k]


def _ml_weights(codebook: Codebook, snr: float) -> NDArray:
    """(4 + 4 T, K) weights that turn ``ml_decode``'s features into its metric:
    ``Re tr(G M) = G00 M00 + G11 M11 + 2 (Re G01 Re M10 - Im G01 Im M10)`` and
    ``Re <X, Z> = Re X . Re Z + Im X . Im Z``."""
    cw = codebook.codewords
    m = np.einsum("kit,kjt->kij", cw, np.conj(cw))
    x = cw.reshape(codebook.size, -1)
    # C order: the stacked GEMM is about 1.4x slower with a transposed view
    return np.ascontiguousarray(np.column_stack([
        snr * m[:, 0, 0].real, snr * m[:, 1, 1].real,
        2.0 * snr * m[:, 1, 0].real, -2.0 * snr * m[:, 1, 0].imag,
        -2.0 * np.sqrt(snr) * x.real, -2.0 * np.sqrt(snr) * x.imag]).T)


@dataclass(frozen=True)
class DensityGrid:
    """Binned joint density of (theta_mu, mu) over random orientations."""

    theta_edges: NDArray
    mu_edges: NDArray
    counts: NDArray     # (n_theta, n_mu)
    samples: int

    def density(self) -> NDArray:
        area = np.outer(np.diff(self.theta_edges), np.diff(self.mu_edges))
        return self.counts / (self.samples * area)

    def write_csv(self, path) -> None:
        tc = 0.5 * (self.theta_edges[:-1] + self.theta_edges[1:])
        mc = 0.5 * (self.mu_edges[:-1] + self.mu_edges[1:])
        dens = self.density()
        write_csv(path, ("theta_bin_center", "mu_bin_center", "density"),
                  ((t, m, dens[i, j]) for i, t in enumerate(tc) for j, m in enumerate(mc)))


def check_density_inputs(link: LinkSpec, r_link: float, bins: int | tuple[int, int],
                         samples: int, seed: int) -> tuple[int, int]:
    """Reject ``joint_density`` inputs it cannot sample; returns the (theta_mu,
    mu) bin counts. The wavelength is ``LinkSpec``'s to check."""
    if link.tx.n != 2:
        raise ValueError("joint density is defined for a 2-antenna transmitter")
    if not _is_int(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    pair = (bins, bins) if _is_int(bins) else bins
    if not (isinstance(pair, (tuple, list)) and len(pair) == 2 and all(map(_is_int, pair))):
        raise ValueError(f"bins must be an integer or a pair of integers, got {bins!r}")
    nt, nm = pair
    if nt < 5 or nm < 5:
        raise ValueError("use at least a 5 x 5 grid")
    _check_seed(seed)
    _check_clearance(link, r_link)
    return nt, nm


def _check_seed(seed) -> None:
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _piece_threads() -> int:
    """Threads that run ``joint_density``'s pieces: one per CPU this process
    may use (per CPU of the machine where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def joint_density(link: LinkSpec, r_link: float, bins: int | tuple[int, int], samples: int,
                  seed: int = 0) -> DensityGrid:
    """Histogram of (theta_mu, mu) over independent random rotations of both
    arrays of ``link`` at a fixed link distance.

    The transmit array must have two antennas here, and ``r_link`` must lie
    beyond the sum of the array radii (see ``check_density_inputs``). theta_mu
    is uniform and independent of mu only as d_t / wavelength -> infinity at
    fixed eta; at finite d_t / wavelength the high-mu rows keep a small theta
    ripple.

    Samples run in ``DENSITY_BLOCK`` blocks. The calling thread draws a block's
    quaternion normals (all transmit draws, then all receive draws) and
    histograms the block; everything in between, from rotations to (theta_mu,
    mu), runs in ``DENSITY_PIECE``-sample pieces on one thread per usable CPU,
    while the calling thread draws the next block and histograms the previous
    one. A piece depends only on its own samples and the counts are integers,
    so they do not depend on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    nt, nm = check_density_inputs(link, r_link, bins, samples, seed)
    theta_edges = np.linspace(0.0, 2.0 * np.pi, nt + 1)
    mu_edges = np.linspace(0.0, 1.0, nm + 1)
    counts = np.zeros((nt, nm), dtype=np.int64)
    rng = np.random.default_rng([seed])

    def binned(pieces, theta, mu):
        for p in pieces:
            p.result()      # re-raises the error a piece met
        return np.histogram2d(theta, mu, bins=[theta_edges, mu_edges])[0].astype(np.int64)

    pool = ThreadPoolExecutor(_piece_threads())
    try:
        previous = None
        for start in range(0, samples, DENSITY_BLOCK):
            n = min(DENSITY_BLOCK, samples - start)
            # drawn while the previous block's pieces run
            q_tx = rotation_normals(rng, n)
            q_rx = rotation_normals(rng, n)
            theta, mu = np.empty(n), np.empty(n)
            piece = partial(_density_piece, link, float(r_link), q_tx, q_rx, theta, mu)
            current = [pool.submit(piece, s) for s in range(0, n, DENSITY_PIECE)], theta, mu
            # histogrammed while this block's pieces run
            if previous is not None:
                counts += binned(*previous)
            previous = current
        counts += binned(*previous)
    finally:
        # after an error, drop the pieces not yet started and join the threads
        pool.shutdown(cancel_futures=True)
    return DensityGrid(theta_edges=theta_edges, mu_edges=mu_edges,
                       counts=counts, samples=samples)


def _density_piece(link: LinkSpec, r_link: float, q_tx: NDArray, q_rx: NDArray,
                   theta: NDArray, mu: NDArray, start: int) -> None:
    """Write theta_mu and mu, clipped to [0, 1], of the block's samples
    ``start`` to ``start + DENSITY_PIECE`` into ``theta`` and ``mu``."""
    s = slice(start, start + DENSITY_PIECE)
    u_tx, u_rx = quaternion_rotations(q_tx[s]), quaternion_rotations(q_rx[s])
    dist = link_distances(*place_arrays(link.tx, link.rx, u_tx, u_rx,
                                        np.full(len(u_tx), r_link), LINK_DIRECTION))
    # column inner product of the unit-modulus channel, summed over C-ordered
    # (m, n_r) rows: the order of a reduction depends on the layout
    inner = _phasors((dist[:, 1] - dist[:, 0]).T, link.wavelength).sum(axis=1)
    np.clip(np.abs(inner) / link.rx.n, 0.0, 1.0, out=mu[s])
    np.mod(np.angle(inner), 2.0 * np.pi, out=theta[s])
