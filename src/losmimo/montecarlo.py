"""Seed-reproducible Monte-Carlo engine: ML-decoded BER campaigns over random
orientations and distances, and the joint (theta_mu, mu) density experiment.

Trials are partitioned into fixed-size blocks; the random stream of a block
derives from (master seed, SNR index, block index), so the SNR points of a
campaign are independent and results do not depend on where or in what order
the points run. A block's first draws are its channels, drawn by the
campaign's ``ChannelLaw``, so campaigns that agree on the law, seed and block
size draw the same channels in every block; ``run_ber`` runs such a group
together and synthesises each block's channels once for all of its campaigns.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import starmap

import numpy as np
from numpy.typing import NDArray

from ._csv import write_csv
from .channel import _phasors, los_channel
from .codes import Codebook, build_codebook
from .design import select_tx_pair
from .geometry import (LINK_DIRECTION, PLACE_COLS, LinkSpec, link_distances, place_arrays,
                       quaternion_rotations, rotation_normals, uniform_rotation)

__all__ = [
    "ChannelLaw",
    "SimConfig",
    "BerCurve",
    "DensityGrid",
    "ml_decode",
    "channel_groups",
    "run_ber",
    "check_campaign",
    "check_distance",
    "check_seed",
    "check_density_inputs",
    "joint_density",
]

# samples per batch of joint_density; it fixes the order of the random stream
DENSITY_BLOCK = 200_000
# samples per piece of a joint_density block: a piece's temporaries stay in
# cache, and its PLACE_COLS sub-pieces fall where the whole block's would
DENSITY_PIECE = 4 * PLACE_COLS
# the distance bound of _Engine.block_errors: its relative margin, and the
# smallest lambda_min / tr G at which it settles a trial
SETTLE_MARGIN = 1e-3
SETTLE_FLOOR = 1e-6
# rows per product in ml_decode's stacked GEMM: each (64 x 12) @ (12 x 256)
# stays below OpenBLAS's threading threshold, so decoding starts no BLAS threads
ML_ROWS = 64


@dataclass(frozen=True)
class ChannelLaw:
    """The law of a campaign's channels, and the key by which campaigns share
    them: laws that compare equal draw the same channels from the same stream.

    ``link`` holds the wavelength and both arrays; the receive array is any
    layout, and ``link.rx.n`` is n_r. ``distance`` is either a float (fixed
    range) or a (low, high) pair for a uniformly distributed inter-terminal
    distance; unless ``ideal`` is set, it must stay beyond the sum of the
    transmit and receive array radii. ``ideal`` bypasses the geometry and
    feeds the decoder a perfectly orthogonal channel.
    """

    link: LinkSpec
    distance: float | tuple[float, float]
    ideal: bool = False

    def __post_init__(self):
        distance = check_distance(self.distance)
        object.__setattr__(self, "distance", distance)
        if not self.ideal:
            low = distance[0] if isinstance(distance, tuple) else distance
            reach = float(self.link.tx.radii.max() + self.link.rx.radii.max())
            if not low > reach:
                raise ValueError(f"distance {low:g} m is not beyond the {reach:g} m sum of "
                                 "the transmit and receive array radii")

    def draw(self, n: int, rng: np.random.Generator) -> NDArray:
        """The n-last (n_r, 2, n) channels of a block of n trials: the ideal
        channel, or n random links drawn from ``rng`` (distances, then
        transmit rotations, then receive rotations)."""
        link = self.link
        if self.ideal:
            n_r = link.rx.n
            phases = np.exp(2j * np.pi * np.arange(n_r) / n_r)
            h = np.column_stack([np.ones(n_r, dtype=complex), phases])
            return np.broadcast_to(h[..., None], (n_r, 2, n))
        if isinstance(self.distance, tuple):
            r_link = rng.uniform(self.distance[0], self.distance[1], n)
        else:
            r_link = np.full(n, self.distance)
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        tx, rx = place_arrays(link.tx, link.rx, u_tx, u_rx, r_link, LINK_DIRECTION)
        if link.tx.n > 2:
            pair = select_tx_pair(link.tx, u_tx).pair
            tx = tx[:, pair.T, np.arange(n)]
        return los_channel(link_distances(tx, rx), link.wavelength)


@dataclass(frozen=True)
class SimConfig:
    """One BER campaign: scheme, channel law, SNR grid and stopping rule."""

    scheme: str
    law: ChannelLaw
    snr_db: tuple[float, ...]
    max_trials: int = 200_000
    target_errors: int = 200
    seed: int = 0
    block_trials: int = 2_500

    def __post_init__(self):
        build_codebook(self.scheme)
        object.__setattr__(self, "snr_db", check_campaign(
            self.snr_db, self.max_trials, self.target_errors, self.seed, self.block_trials))


def check_distance(distance) -> float | tuple[float, float]:
    """Check a distance law, a fixed distance or a (low, high) range; return
    it as floats. Clearance of the arrays is ``ChannelLaw``'s to check."""
    if isinstance(distance, (int, float)):
        if not _is_finite(distance):
            raise ValueError(f"distance must be finite, got {distance!r}")
        return float(distance)
    lo, hi = distance
    if not (0 < lo <= hi and _is_finite(hi)):
        raise ValueError("distance range must satisfy 0 < low <= high < inf")
    return float(lo), float(hi)


def check_campaign(snr_db, max_trials, target_errors, seed, block_trials) -> tuple[float, ...]:
    """Check the ``SimConfig`` fields that campaigns on different channel laws
    can share; return the SNR grid as floats."""
    for name, value in (("max_trials", max_trials), ("target_errors", target_errors),
                        ("block_trials", block_trials)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if max_trials < 1 or target_errors < 1 or block_trials < 1:
        raise ValueError("trial budgets must be positive")
    check_seed(seed)
    snr_db = tuple(snr_db)
    if not snr_db or not all(_is_real(s) and _is_finite(s) for s in snr_db):
        raise ValueError(f"SNR grid must be a non-empty list of finite numbers, got {snr_db!r}")
    if list(snr_db) != sorted(snr_db):
        raise ValueError("SNR grid must be sorted")
    return tuple(float(s) for s in snr_db)


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
    """Per-campaign state shared by the trial blocks of the SNR point
    ``snr_index`` (the first by default)."""

    def __init__(self, config: SimConfig, snr_index: int = 0):
        self.codebook = cb = build_codebook(config.scheme)
        self.snr = 10.0 ** (config.snr_db[snr_index] / 10.0)
        self.weights = _ml_weights(cb, self.snr)
        # a trial is settled when settle_scale * lambda_min > ||N||^2
        self.settle_scale = self.snr * cb.min_sq_distance / (4.0 * (1.0 + SETTLE_MARGIN) ** 2)
        # (2, T, K): a gather over trials comes out n-last
        self.codewords_nlast = np.ascontiguousarray(cb.codewords.transpose(1, 2, 0))

    def block_errors(self, h: NDArray, lam: NDArray, rng: np.random.Generator) -> int:
        """Bit errors of one block over the n-last channels ``h``, with the
        codewords and the noise N drawn from ``rng``; ``lam`` is
        ``_lambda_min(h)``.

        Only the trials whose decision is in doubt are decoded. With G = h^H h
        and d2 = ``codebook.min_sq_distance``, every other codeword lies at
        ||N - sqrt(snr) h D|| >= sqrt(snr lambda_min(G) d2) - ||N|| from y,
        since ||h D||^2 >= lambda_min(G) ||D||^2 for every difference D. So
        when snr lambda_min d2 > 4 (1 + delta)^2 ||N||^2, delta =
        ``SETTLE_MARGIN``, the sent codeword is the unique ML decision: the
        trial is settled with 0 bit errors. Its metric gap is then at least
        snr lambda_min d2 delta / (1 + delta), and with lambda_min above
        ``SETTLE_FLOOR`` tr G that is more than 1e-10 of the metric's scale,
        snr tr G max ||X_k||^2, for every scheme (d2 / max ||X_k||^2 >= 0.2);
        the rounding of the metric, of y and of lambda_min (whose relative
        error is below 1e-9 above the floor) is below 1e-12 of that scale.

        The block is n-last in memory, so every small complex product runs its
        inner loop over the trials; the decoder gets n-first views of it. A
        trial's decision does not depend on the others in its batch, so the
        count is the one a decoding of every trial gives."""
        cb = self.codebook
        n_r, n = h.shape[0], h.shape[-1]
        k_true = rng.integers(0, cb.size, n)
        # N = sqrt(1/2) (a + i b), drawn n-first
        noise = np.empty((n_r, cb.slots, n), dtype=complex)
        np.multiply(rng.standard_normal((n, n_r, cb.slots)), np.sqrt(0.5),
                    out=noise.real.transpose(2, 0, 1))
        np.multiply(rng.standard_normal((n, n_r, cb.slots)), np.sqrt(0.5),
                    out=noise.imag.transpose(2, 0, 1))
        energy = (noise.real ** 2 + noise.imag ** 2).reshape(-1, n).sum(axis=0)
        doubt = np.flatnonzero(self.settle_scale * lam <= energy)
        if not len(doubt):
            return 0
        # y = sqrt(snr) h X + N on the trials in doubt; take keeps them n-last,
        # where a fancy index would lay its result out n-first
        k_true, h = k_true[doubt], np.take(h, doubt, axis=2)
        x = self.codewords_nlast[:, :, k_true]
        y = np.multiply(h[:, 0, None], x[0])
        y += np.multiply(h[:, 1, None], x[1])
        y *= np.sqrt(self.snr)
        y += np.take(noise, doubt, axis=2)
        del noise, x    # freed before the decoder's (n, K) metric
        k = _ml_argmin(h.transpose(2, 0, 1), y.transpose(2, 0, 1), self.weights)
        return int(np.sum(cb.bits[k_true] != cb.bits[k]))


def _lambda_min(h: NDArray) -> NDArray:
    """The smaller eigenvalue of G = h^H h for each of the n-last (n_r, 2, n)
    channels ``h``, or 0 where it is not above ``SETTLE_FLOOR`` tr G."""
    power = h.real ** 2
    power += h.imag ** 2
    g00, g11 = power.sum(axis=0)
    g01 = (np.conj(h[:, 0]) * h[:, 1]).sum(axis=0)
    half_trace, half_gap = 0.5 * (g00 + g11), 0.5 * (g00 - g11)
    lam = half_trace - np.sqrt(half_gap ** 2 + g01.real ** 2 + g01.imag ** 2)
    return np.where(lam > 2.0 * SETTLE_FLOOR * half_trace, lam, 0.0)


def channel_groups(configs: Sequence[SimConfig]) -> list[list[int]]:
    """Indices of ``configs`` grouped by the channels their blocks draw: the
    channel law, seed and block size. Groups and their members are in order of
    first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        key = (c.law, c.seed, c.block_trials)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _run_group_point(configs: tuple[SimConfig, ...], snr_index: int) -> list[tuple[int, int]]:
    """(trials, bit errors) at one SNR index of campaigns that draw the same
    channels, each running its blocks in index order until its trial budget is
    used up or its bit-error target is reached.

    Block b's stream is ``default_rng([seed, snr_index, b])``. Its channels are
    drawn once per distinct trial count among the campaigns still running, and
    each of those campaigns draws its codewords and noise from the state that
    follows them, so every campaign consumes the stream it would alone."""
    engines = [_Engine(c, snr_index) for c in configs]
    lead = configs[0]
    trials, errors = [0] * len(configs), [0] * len(configs)
    live = list(range(len(configs)))
    b = 0
    while live:
        by_count: dict[int, list[int]] = {}
        for i in live:
            n = min(lead.block_trials, configs[i].max_trials - trials[i])
            by_count.setdefault(n, []).append(i)
        for n, members in by_count.items():
            rng = np.random.default_rng([lead.seed, snr_index, b])
            h = lead.law.draw(n, rng)
            lam = _lambda_min(h)
            drawn = rng.bit_generator.state
            for i in members:
                rng.bit_generator.state = drawn
                trials[i] += n
                errors[i] += engines[i].block_errors(h, lam, rng)
        live = [i for i in live
                if errors[i] < configs[i].target_errors and trials[i] < configs[i].max_trials]
        b += 1
    return list(zip(trials, errors))


def run_ber(config: SimConfig | Sequence[SimConfig], pool=None) -> BerCurve | list[BerCurve]:
    """Run the BER campaign ``config``, or each campaign of a sequence of them
    (a list of curves, in order).

    The campaigns are grouped by ``channel_groups``; one task runs one group at
    one SNR index (``_run_group_point``), and every task goes through one map
    over ``pool`` (a ``multiprocessing.Pool``) when one is given. Each campaign
    consumes the random stream it would alone and the points share no stream,
    so the output is bit-identical with or without a pool or other campaigns.
    """
    configs = [config] if isinstance(config, SimConfig) else list(config)
    tasks = [([i for i in group if s < len(configs[i].snr_db)], s)
             for group in channel_groups(configs)
             for s in range(max(len(configs[i].snr_db) for i in group))]
    args = [(tuple(configs[i] for i in members), s) for members, s in tasks]
    # one task per dispatch: a point that stops after one block and one that
    # runs its whole budget differ in cost by the budget's block count (80 in fig5)
    results = (starmap(_run_group_point, args) if pool is None
               else pool.starmap(_run_group_point, args, chunksize=1))
    points = [[None] * len(c.snr_db) for c in configs]
    for (members, s), counts in zip(tasks, results):
        for i, count in zip(members, counts):
            points[i][s] = count
    curves = [_curve(c, p) for c, p in zip(configs, points)]
    return curves[0] if isinstance(config, SimConfig) else curves


def _curve(config: SimConfig, points: list[tuple[int, int]]) -> BerCurve:
    """The curve of ``config`` from its (trials, bit errors) per SNR point."""
    trials, errors = np.array(points, dtype=np.int64).reshape(-1, 2).T
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
    n-last memory, as ``_Engine.block_errors`` builds them, cost no copy.
    """
    h = np.asarray(h, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != 2:
        raise ValueError("channel must be n_r x 2")
    if y.shape != h.shape[:-1] + (codebook.slots,):
        raise ValueError(f"received block must be {h.shape[-2]} x {codebook.slots}")
    # written so that a NaN snr fails the check
    if not 0 < snr < np.inf:
        raise ValueError(f"snr must be positive and finite, got {snr!r}")
    batch = h.shape[:-2]
    k = _ml_argmin(h.reshape(-1, *h.shape[-2:]), y.reshape(-1, *y.shape[-2:]),
                   _ml_weights(codebook, snr)).reshape(batch)
    if not batch:
        return int(k), codebook.bits[k].copy()
    return k, codebook.bits[k]


def _ml_argmin(h: NDArray, y: NDArray, weights: NDArray) -> NDArray:
    """``ml_decode``'s decisions for the (n, n_r, 2) channels ``h`` and (n,
    n_r, slots) blocks ``y`` under the weights ``_ml_weights`` built."""
    h = np.moveaxis(h, 0, -1)
    y = np.moveaxis(y, 0, -1)
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
    metric = np.matmul(rows, weights)
    return np.argmin(metric.reshape(-1, weights.shape[1])[:n], axis=-1)


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


def check_density_inputs(law: ChannelLaw, bins: int, samples: int, seed: int) -> None:
    """Reject ``joint_density`` inputs it cannot sample. The link and the
    distance are ``ChannelLaw``'s to check."""
    if law.ideal or isinstance(law.distance, tuple) or law.link.tx.n != 2:
        raise ValueError("joint density is defined for a 2-antenna transmitter at a fixed "
                         "distance, over geometric channels")
    if not _is_int(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if not _is_int(bins):
        raise ValueError(f"bins must be an integer, got {bins!r}")
    if bins < 5:
        raise ValueError("use at least a 5 x 5 grid")
    check_seed(seed)


def check_seed(seed) -> None:
    """Reject a seed that is not a non-negative integer."""
    if not (_is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """Whether the real number ``x`` is finite as a float: an integer too large
    for a float is not, where ``np.isfinite`` would raise a TypeError."""
    try:
        return bool(np.isfinite(float(x)))
    except OverflowError:
        return False


def _piece_threads() -> int:
    """Threads that run ``joint_density``'s pieces: one per CPU this process
    may use (per CPU of the machine where the OS cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def joint_density(law: ChannelLaw, bins: int, samples: int, seed: int = 0) -> DensityGrid:
    """Histogram of (theta_mu, mu), on a ``bins`` x ``bins`` grid, over
    independent random rotations of both arrays of ``law.link`` at the law's
    fixed distance.

    The law must be geometric, at a fixed distance, with a 2-antenna transmit
    array (see ``check_density_inputs``). theta_mu is uniform and independent
    of mu only as d_t / wavelength -> infinity at fixed eta; at finite d_t /
    wavelength the high-mu rows keep a small theta ripple.

    Samples run in ``DENSITY_BLOCK`` blocks. The calling thread draws a block's
    quaternion normals (all transmit draws, then all receive draws) and
    histograms the block; everything in between, from rotations to (theta_mu,
    mu), runs in ``DENSITY_PIECE``-sample pieces on one thread per usable CPU,
    while the calling thread draws the next block and histograms the previous
    one. A piece depends only on its own samples and the counts are integers,
    so they do not depend on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    check_density_inputs(law, bins, samples, seed)
    theta_edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)
    mu_edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros((bins, bins), dtype=np.int64)
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
            piece = partial(_density_piece, law.link, law.distance, q_tx, q_rx, theta, mu)
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
