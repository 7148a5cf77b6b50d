"""Seed-reproducible Monte-Carlo engine: ML-decoded BER campaigns over random
orientations and distances, and the joint (theta_mu, mu) density experiment.

Trials are partitioned into fixed-size blocks whose random stream derives
from (master seed, block index) alone, and every SNR point of a campaign
scores the same blocks (common random numbers: each block is drawn once for
the whole grid). A block's first draws are its links, drawn by the
campaign's ``ChannelLaw``, so campaigns that agree on the law, seed and block
size draw the same links; ``run_ber`` runs those that also share the SNR
grid and the trial budget as one task on one block schedule, in the calling
process or on worker processes, and the results do not depend on where.

A 2-column unit-modulus channel H reaches the ML decoder only through the
correlation rho of its columns, G = H^H H = n_r [[1, rho], [rho*, 1]]. So the
engine draws each link's rho (``ChannelLaw.rho``) and decodes on the 2 x 2
factor R of G and 2 x T noise, not on H and n_r x T noise.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._csv import write_csv
from .channel import _phasors, los_channel
from .codes import Codebook, build_codebook
from .design import select_tx_pair
# nothing here draws whole rotation matrices, but the benchmark's tracer
# patches uniform_rotation in this module, so it stays imported
from .geometry import (LINK_DIRECTION, LinkSpec, link_distances, place, rotation_columns,
                       rotation_normals, uniform_rotation)

__all__ = [
    "ChannelLaw",
    "SimConfig",
    "BerCurve",
    "DensityGrid",
    "ml_decode",
    "channel_groups",
    "run_ber",
    "task_processes",
    "check_campaign",
    "check_distance",
    "check_seed",
    "check_density_inputs",
    "joint_density",
]

# samples per batch of joint_density; it fixes the order of the random stream
DENSITY_BLOCK = 200_000
# samples per piece of a joint_density block: a piece's temporaries stay small
DENSITY_PIECE = 8_192
# the most theta_mu (and mu) bins of joint_density: the (bins, bins) int64
# counts, and each block's np.bincount of as many, stay at 8 MB, and the CSV
# at 10^6 rows
DENSITY_BINS = 1_000
# the most points of a campaign's SNR grid: the engine builds one (4 + 4T) x K
# weight matrix per point (24 KiB for Golden); counted before any is built
SNR_POINTS = 1_000
# the most trials x receive antennas of a BER block, min(block_trials,
# max_trials) x n_r: a block's (n_r, 2, n) distances and phasors grow with it,
# and at 2,500 trials and geometry.ANTENNAS_MAX = 256 antennas it peaks near 81
# MiB, so the default block passes at every layout; counted before any array
# is built
BLOCK_ANTENNAS = 2_500 * 256
# the most samples of joint_density: about an hour on 2 cores for a 2 x 2 link
# at a fixed distance, at 0.35 us per sample (0.55 us for pentagon x
# tetrahedron over a distance range); counted before any array is built
DENSITY_SAMPLES = 10**10
# the distance bound of _Engine.block_errors: its relative margin, the
# smallest D / (2 d2_min) at which it settles a trial, and what it takes off
# each term of Codebook.difference_terms for their grouping
SETTLE_MARGIN = 1e-3
SETTLE_FLOOR = 1e-6
SETTLE_ALLOWANCE = 1e-8
# trials per product of _Engine.distance: a (terms x 3) @ (3 x 1,024) product
# stays below OpenBLAS's threading threshold for up to 85 terms (Golden has 81)
DISTANCE_TRIALS = 1_024
# rows per product in ml_decode's stacked GEMM: each (64 x 12) @ (12 x 256)
# stays below OpenBLAS's threading threshold, so decoding starts no BLAS threads
ML_ROWS = 64
# products per chunk of that GEMM: one chunk's metric is held at a time, 512
# KiB for Golden's 256 codewords
ML_CHUNK = 4
# glibc gives the free top of the heap back to the OS once it exceeds twice
# the largest block that malloc served by mmap and then freed. With the
# decoder's largest array one 512 KiB chunk, that would give back and fault in
# again a Golden block's 2.1 MiB of temporaries at nearly every block (10,000
# minor faults in a benchmark fig5 round, 900 with it). Each task frees one
# untouched HEAP_KEEP-byte array, which raises that limit to twice HEAP_KEEP
# and occupies no resident memory.
HEAP_KEEP = 4 << 20
# the most that rounding one antenna distance to a float may move its phase
# 2 pi r / wavelength, in rad: beyond it the correlations lose their phase
PHASE_RESOLUTION = 1e-6


@dataclass(frozen=True)
class ChannelLaw:
    """The law of a campaign's channels, and the key by which campaigns share
    them: laws that compare equal draw the same channels from the same stream.

    ``link`` holds the wavelength and both arrays; the receive array is any
    layout, and ``link.rx.n`` is n_r. ``distance`` is the (low, high) range of a
    uniform inter-terminal distance; a number d is (d, d), which draws nothing.
    Unless ``ideal`` is set, it must stay beyond the sum of the
    transmit and receive array radii, the largest antenna distance it allows,
    squared, must be a float, and the rounding of that distance may move its
    phase 2 pi r / wavelength by at most ``PHASE_RESOLUTION``.
    ``ideal`` bypasses the geometry and feeds the decoder a perfectly
    orthogonal channel.

    ``draw`` and ``rho`` are two views of the same links: the (n_r, 2, n)
    channels H, and the correlation rho = h_0^H h_1 / n_r of their columns,
    through which alone H reaches the ML decoder. Both consume ``rng`` alike.
    """

    link: LinkSpec
    distance: tuple[float, float]
    ideal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "distance", check_distance(self.distance))
        if not self.ideal:
            low, high = self.distance
            wavelength = self.link.wavelength
            reach = float(self.link.tx.radii.max() + self.link.rx.radii.max())
            if not low > reach:
                raise ValueError(f"distance {low:g} m is not beyond the {reach:g} m sum of "
                                 "the transmit and receive array radii")
            # link_distances sums three squared coordinate differences, each
            # at most far^2; _phasors takes (r 2 pi) (1 / wavelength)
            far = high + reach
            if not math.isfinite(3.0 * far * far):
                raise ValueError(f"distance {high!r} m puts antennas up to {far:g} m apart, "
                                 "whose squared distance is beyond a float")
            # a float rounds a distance near far by up to ulp(far) / 2, which
            # moves its phase 2 pi r / wavelength by up to pi ulp(far) / wavelength
            phase_error = math.pi * math.ulp(far) / wavelength
            if phase_error > PHASE_RESOLUTION:
                raise ValueError(f"wavelength {wavelength!r} m and distance {high!r} m: the "
                                 f"rounding of an antenna distance near {far:g} m moves its "
                                 f"phase by up to {phase_error:.3g} rad, more than "
                                 f"{PHASE_RESOLUTION:g} rad")

    def draw(self, n: int, rng: np.random.Generator) -> NDArray:
        """The n-last (n_r, 2, n) channels of a block of n trials: the ideal
        channel, or n random links drawn from ``rng`` by ``_law_draws`` and
        placed by ``_link_distances``."""
        if self.ideal:
            h = _ideal_channel(self.link.rx.n)
            return np.broadcast_to(h[..., None], h.shape + (n,))
        return los_channel(_link_distances(self.link, *_law_draws(self, n, rng)),
                           self.link.wavelength)

    def rho(self, n: int, rng: np.random.Generator) -> NDArray:
        """The correlation rho = h_0^H h_1 / n_r of the columns of each of the
        n channels that ``draw(n, rng)`` gives, drawn as ``draw`` draws them
        (``_law_draws``) and mapped by ``_links_rho``."""
        n_r = self.link.rx.n
        if self.ideal:
            h = _ideal_channel(n_r)
            return np.full(n, np.vdot(h[:, 0], h[:, 1]) / n_r)
        return _links_rho(self.link, *_law_draws(self, n, rng))


def _ideal_channel(n_r: int) -> NDArray:
    """The (n_r, 2) ideal channel: orthogonal columns of unit-modulus entries."""
    phases = np.exp(2j * np.pi * np.arange(n_r) / n_r)
    return np.column_stack([np.ones(n_r, dtype=complex), phases])


def _law_draws(law: ChannelLaw, n: int, rng: np.random.Generator) -> tuple:
    """The draws of n links of the geometric ``law`` from ``rng``, in the
    order every consumer of the law shares: the distances (drawn only where
    low < high), then the quaternion normals of the transmit rotations, then
    of the receive rotations. Returned as ``_link_distances``' (q_tx, q_rx,
    r_link), r_link (n,): at low == high a zero-stride view, which holds no
    memory (``np.full`` raised ``density``'s peak RSS by 3 MiB)."""
    low, high = law.distance
    r_link = rng.uniform(low, high, n) if low < high else np.broadcast_to(low, (n,))
    q_tx = rotation_normals(rng, n)
    return q_tx, rotation_normals(rng, n), r_link


def _link_distances(link: LinkSpec, q_tx: NDArray, q_rx: NDArray, r_link: NDArray) -> NDArray:
    """The (n_r, 2, n) distances of n links with their receive centroids
    ``r_link`` (n,) along ``LINK_DIRECTION``, the arrays rotated
    by the quaternions ``q_tx`` and ``q_rx`` (n, 4). Each array is placed from
    the rotation columns of its axes alone, and a polygon's transmit pair is
    read off the same transmit columns (``design.select_tx_pair``)."""
    tx_columns = rotation_columns(q_tx, link.tx.axes)
    tx = place(link.tx, tx_columns)
    rx = place(link.rx, rotation_columns(q_rx, link.rx.axes))
    rx += LINK_DIRECTION[:, None, None] * r_link
    if link.tx.n > 2:
        pair = select_tx_pair(link.tx, tx_columns).pair
        tx = tx[:, pair.T, np.arange(len(q_tx))]
    return link_distances(tx, rx)


def _links_rho(link: LinkSpec, q_tx: NDArray, q_rx: NDArray, r_link: NDArray) -> NDArray:
    """rho = h_0^H h_1 / n_r of the links ``_link_distances`` places: the
    phasors of each link's n_r path differences, each built as ``los_channel``
    builds an entry (one exponential per receive antenna), summed over the
    C-ordered (n, n_r) rows (the order of a reduction depends on the layout)."""
    dist = _link_distances(link, q_tx, q_rx, r_link)
    return _phasors((dist[:, 1] - dist[:, 0]).T, link.wavelength).sum(axis=1) / link.rx.n


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
        n, n_r = min(self.block_trials, self.max_trials), self.law.link.rx.n
        if n * n_r > BLOCK_ANTENNAS:
            raise ValueError(f"block_trials must leave at most {BLOCK_ANTENNAS} trials x receive "
                             f"antennas per block, got min(block_trials, max_trials) x n_r = "
                             f"{n} x {n_r}")


def check_distance(distance) -> tuple[float, float]:
    """Check a distance law, a (low, high) range given as a tuple or list of
    two, or a fixed distance d (a real number, NumPy's too), which is (d, d);
    return the range as floats. Clearance is ``ChannelLaw``'s to check."""
    match distance:
        case (lo, hi) if _is_real(lo) and _is_real(hi):
            if not (0 < lo <= hi and _is_finite(hi)):
                raise ValueError("distance range must satisfy 0 < low <= high < inf")
            return float(lo), float(hi)
        case d if _is_real(d):
            if not _is_finite(d):
                raise ValueError(f"distance must be finite, got {d!r}")
            return float(d), float(d)
    raise ValueError(f"distance must be a number or a (low, high) pair of numbers, "
                     f"got {distance!r}")


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
    if len(snr_db) > SNR_POINTS:
        raise ValueError(f"SNR grid must have at most {SNR_POINTS} points, got {len(snr_db)}")
    if not snr_db or not all(_is_real(s) and _is_finite(s) for s in snr_db):
        raise ValueError(f"SNR grid must be a non-empty list of finite numbers, got {snr_db!r}")
    if list(snr_db) != sorted(snr_db):
        raise ValueError("SNR grid must be sorted")
    # every point scores the same blocks, so a repeated point repeats its row
    repeated = [a for a, b in zip(snr_db, snr_db[1:]) if a == b]
    if repeated:
        raise ValueError(f"SNR grid must not repeat a point, got {repeated[0]!r} more than once")
    snr_db = tuple(float(s) for s in snr_db)
    for s in snr_db:
        # the engine's linear SNR: Python's float power raises where it
        # overflows, and gives 0 where it underflows
        try:
            linear = 10.0 ** (s / 10.0)
        except OverflowError:
            raise ValueError(f"snr_db {s!r} gives a linear SNR beyond a float") from None
        if linear == 0.0:
            raise ValueError(f"snr_db {s!r} gives a linear SNR that underflows to 0")
    return snr_db


@dataclass(frozen=True)
class BerCurve:
    """Per-SNR trial counts, bit errors and 95% Wilson intervals, and the
    trials decoded: those the distance bound left in doubt (not in the CSV)."""

    snr_db: NDArray
    trials: NDArray
    bit_errors: NDArray
    ber: NDArray
    ci_low: NDArray
    ci_high: NDArray
    bits_per_trial: int
    decoded: NDArray

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
    """Per-campaign constants shared by its trial blocks: the codebook and, per
    SNR point, the linear SNR, the decoder's weights and the distance bound's
    scale. It keeps no counts: ``block_errors`` returns a block's, and
    ``_run_group`` sums them.

    The engine decodes on the 2 x 2 sufficient statistic. A link's n_r x 2
    unit-modulus channel factors as H = Q R, with orthonormal columns in Q and
    R = sqrt(n_r) [[1, rho], [0, sqrt(1 - |rho|^2)]] (``_factor``). For y =
    sqrt(snr) H X + N, Q^H y = sqrt(snr) R X + Q^H N, where Q^H N is i.i.d.
    CN(0, 1) of size 2 x T, and the part of N orthogonal to Q's columns adds
    the same amount to every codeword's metric. So a trial draws W, 2 x T, and
    is decided on r = sqrt(snr) R X + W: the ML decision on (H, y), at a cost
    that does not grow with n_r."""

    def __init__(self, config: SimConfig):
        self.codebook = cb = build_codebook(config.scheme)
        self.snr = [10.0 ** (s / 10.0) for s in config.snr_db]
        self.weights = [_ml_weights(cb, snr) for snr in self.snr]
        # a trial is settled when settle_scale * D > ||W||^2
        n_r = config.law.link.rx.n
        self.settle_scale = [snr * n_r / (4.0 * (1.0 + SETTLE_MARGIN) ** 2) for snr in self.snr]
        self.settle_floor = 2.0 * SETTLE_FLOOR * cb.min_sq_distance
        # (terms, 3): D = min over the rows of (a - allowance, 2 Re c, -2 Im c) .
        # (1, Re rho, Im rho)
        a, c = cb.difference_terms
        self.terms = np.column_stack([a - SETTLE_ALLOWANCE, 2.0 * c.real, -2.0 * c.imag])
        # (2, T, K): a gather over trials comes out n-last
        self.codewords_nlast = np.ascontiguousarray(cb.codewords.transpose(1, 2, 0))

    def distance(self, rho: NDArray) -> NDArray:
        """The bound D of ``block_errors`` for each correlation ``rho``: the
        least ``a - SETTLE_ALLOWANCE + 2 Re(rho c)`` over the codebook's
        ``difference_terms``, or 0 where that is not above ``settle_floor``."""
        feats = np.stack([np.ones(len(rho)), rho.real, rho.imag])
        d = np.empty(len(rho))
        for s in range(0, len(rho), DISTANCE_TRIALS):
            np.min(self.terms @ feats[:, s:s + DISTANCE_TRIALS], axis=0,
                   out=d[s:s + DISTANCE_TRIALS])
        d[d <= self.settle_floor] = 0.0
        return d

    def block_errors(self, f: NDArray, rho: NDArray, rng: np.random.Generator,
                     points: Sequence[int]) -> tuple[NDArray, NDArray]:
        """The bit errors and the trials decoded, (len(points),) each, of one
        block over the n-last (2, 2, n) factors ``f`` (``_factor``) of the
        correlations ``rho`` at the SNR points ``points``, in increasing order.
        The codewords and the noise W are drawn from ``rng`` once
        (``_draw_trials``), and one loop decides and counts every point.

        Only the trials whose decision is in doubt are decoded. On G = R^H R =
        n_r [[1, rho], [rho*, 1]], a difference dX of two codewords moves the
        received point by ||sqrt(snr) R dX||^2 = snr n_r (a + 2 Re(rho c))
        (``Codebook.difference_terms``), at least snr n_r D(rho), D the least
        of these over the nonzero differences. Every other codeword lies at
        ||W - sqrt(snr) R dX|| >= sqrt(snr n_r D) - ||W|| from r. So when snr
        n_r D > 4 (1 + delta)^2 ||W||^2, delta = ``SETTLE_MARGIN``, the sent
        codeword is the unique ML decision: the trial is settled with 0 bit
        errors. The bound takes D from ``distance``: each term stands for the
        differences whose c rounds to its c, at their least a, and the
        rounding moves 2 Re(rho c) by at most 2 |rho| |dc| <= 1.5e-9 (|dc| <=
        sqrt(2) 0.5e-9), which ``SETTLE_ALLOWANCE`` = 1e-8 covers. D >= (1 -
        |rho|) a >= (1 - |rho|) d2, d2 = ``codebook.min_sq_distance``, since 2
        |c| <= a, so the bound settles every trial that the eigenvalue bound
        snr lambda_min d2 of G would, but for those within the allowance of
        it. ||W||^2 sums 2T squared moduli, not the n_r T of N, so it settles
        more trials than a bound on (H, y) would. A settled trial's metric gap
        is at least snr n_r D delta / (1 + delta), and with D above
        ``settle_floor`` = 2 ``SETTLE_FLOOR`` d2 that is more than 1e-10 of
        the metric's scale, snr tr G max ||X_k||^2, for every scheme (d2 /
        max ||X_k||^2 >= 0.2). The rounding of the metric and of r is below
        1e-12 of that scale, and each entry of the rounded R's R^H R is within
        1e-14 n_r of G's, which moves ||R dX||^2 / n_r by at most 2e-14 a <=
        2e-13 (a <= 8 for every scheme), well inside what the allowance leaves.

        The threshold grows with snr, so each point selects its doubt set from
        the previous point's. A trial's decision does not depend on its batch,
        so each count is the one decoding every trial at that point gives."""
        cb = self.codebook
        k_true, noise, energy = _draw_trials(rng, f.shape[-1], cb.size, cb.slots)
        dist = self.distance(rho)
        doubt = np.arange(f.shape[-1])
        errors, decoded = np.zeros((2, len(points)), dtype=np.int64)
        for i, s in enumerate(points):
            doubt = doubt[self.settle_scale[s] * dist[doubt] <= energy[doubt]]
            decoded[i] = len(doubt)
            if len(doubt):
                # take keeps the trials n-last, where a fancy index would lay
                # them out n-first
                sent = k_true[doubt]
                k = self.decide(s, np.take(f, doubt, axis=2), sent, np.take(noise, doubt, axis=2))
                errors[i] = np.count_nonzero(cb.bits[sent] != cb.bits[k])
        return errors, decoded

    def decide(self, s: int, f: NDArray, k_true: NDArray, noise: NDArray) -> NDArray:
        """The ML decisions at SNR point ``s`` on r = sqrt(snr) R X + W for the
        n-last factors ``f`` (2, 2, n), sent codewords ``k_true`` and noise W
        ``noise`` (2, T, n); the block stays n-last, so products loop over
        trials."""
        x = self.codewords_nlast[:, :, k_true]
        r = np.multiply(f[:, 0, None], x[0])
        r += np.multiply(f[:, 1, None], x[1])
        r *= np.sqrt(self.snr[s])
        r += noise
        del x    # freed before the decoder's features
        return _ml_argmin(f, r, self.weights[s])


def _draw_trials(rng: np.random.Generator, n: int, size: int,
                 slots: int) -> tuple[NDArray, NDArray, NDArray]:
    """The sent codewords (n,) of a codebook of ``size`` codewords, the noise
    W = sqrt(1/2) (a + i b), (2, ``slots``, n), and ||W||^2 (n,) of n trials,
    drawn from ``rng``: the codewords, then a and b, each n-first."""
    k_true = rng.integers(0, size, n)
    noise = np.empty((2, slots, n), dtype=complex)
    np.multiply(rng.standard_normal((n, 2, slots)), np.sqrt(0.5),
                out=noise.real.transpose(2, 0, 1))
    np.multiply(rng.standard_normal((n, 2, slots)), np.sqrt(0.5),
                out=noise.imag.transpose(2, 0, 1))
    energy = (noise.real ** 2 + noise.imag ** 2).reshape(-1, n).sum(axis=0)
    return k_true, noise, energy


def _factor(rho: NDArray, n_r: int) -> NDArray:
    """The n-last (2, 2, n) upper-triangular factors R = sqrt(n_r) [[1, rho],
    [0, sqrt(1 - |rho|^2)]] of G = R^H R = n_r [[1, rho], [rho*, 1]], one per
    correlation ``rho``: the QR factor, with a real non-negative diagonal, of a
    unit-modulus n_r x 2 channel whose columns correlate as ``rho``."""
    scale = math.sqrt(n_r)
    f = np.zeros((2, 2, len(rho)), dtype=complex)
    f[0, 0] = scale
    np.multiply(rho, scale, out=f[0, 1])
    # rounding can take |rho| past 1
    mu = np.minimum(np.abs(rho), 1.0)
    f[1, 1].real = scale * np.sqrt((1.0 - mu) * (1.0 + mu))
    return f


def channel_groups(configs: Sequence[SimConfig]) -> list[list[int]]:
    """Indices of ``configs`` grouped by the blocks they run: the channel law,
    seed and block size fix every block's channels, and the SNR grid and the
    trial budget the blocks of each SNR point. Groups and their members are in
    order of first appearance."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(configs):
        key = (c.law, c.seed, c.block_trials, c.snr_db, c.max_trials)
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _run_group(configs: tuple[SimConfig, ...]) -> list[BerCurve]:
    """The curve of each campaign of one channel group, whose counts live here
    alone, each SNR point running the group's blocks in order until the
    budget is used up or its bit-error target is reached.
    Block b's stream is ``default_rng([seed, 1, b])``: SeedSequence drops
    trailing zero words, so the nonzero middle word keeps it apart from
    ``joint_density``'s ``default_rng([seed])``. Its links' rho are drawn
    once, and each campaign with a point still running draws its codewords
    and noise from the state that follows."""
    np.empty(HEAP_KEEP, dtype=np.uint8)    # see HEAP_KEEP
    engines = [_Engine(c) for c in configs]
    lead = configs[0]
    # per campaign and SNR point
    trials, errors, decoded = np.zeros((3, len(configs), len(lead.snr_db)), dtype=np.int64)
    for start in range(0, lead.max_trials, lead.block_trials):
        live = [(i, points) for i, c in enumerate(configs)
                if len(points := np.flatnonzero(errors[i] < c.target_errors))]
        if not live:
            break
        n = min(lead.block_trials, lead.max_trials - start)
        rng = np.random.default_rng([lead.seed, 1, start // lead.block_trials])
        rho = lead.law.rho(n, rng)
        f = _factor(rho, lead.law.link.rx.n)
        drawn = rng.bit_generator.state
        for i, points in live:
            rng.bit_generator.state = drawn
            trials[i, points] += n
            e, d = engines[i].block_errors(f, rho, rng, points)
            errors[i, points] += e
            decoded[i, points] += d
    return [_curve(c, engine.codebook.bits_per_codeword, *counts)
            for c, engine, *counts in zip(configs, engines, trials, errors, decoded)]


def task_processes(configs: Sequence[SimConfig], workers: int = 1) -> int:
    """The processes in which ``run_ber(configs, workers)`` runs its channel
    groups: ``workers``, but no more than there are groups; at one, the
    calling process alone. ``workers`` must be an integer of at least 1."""
    if not (_is_int(workers) and workers >= 1):
        raise ValueError(f"workers must be an integer of at least 1, got {workers!r}")
    return max(1, min(workers, len(channel_groups(configs))))


def run_ber(config: SimConfig | Sequence[SimConfig], workers: int = 1) -> BerCurve | list[BerCurve]:
    """Run the BER campaign ``config``, or each campaign of a sequence of them
    (a list of curves, in order).

    One task runs one group of ``channel_groups`` over its SNR grid
    (``_run_group``), in this process when ``task_processes(configs, workers)``
    is one, else on a pool of that many processes. After an error the tasks
    not yet started are dropped, and the first error in task order is raised
    once every worker has stopped. Each campaign consumes the random stream it
    would alone, so the output is bit-identical for any process count and with
    or without other campaigns. ``workers`` must be an integer of at least 1.
    """
    configs = [config] if isinstance(config, SimConfig) else list(config)
    groups = channel_groups(configs)
    tasks = [tuple(configs[i] for i in members) for members in groups]
    processes = task_processes(configs, workers)
    if processes == 1:
        results = list(map(_run_group, tasks))
    else:
        # imported only when used: loading it raises a serial run's peak RSS
        from concurrent.futures import ProcessPoolExecutor
        executor = ProcessPoolExecutor(processes)
        try:
            # a worker takes the next group when it is free; results come back
            # in task order
            results = list(executor.map(_run_group, tasks))
        finally:
            # after an error, drop the tasks not yet started and join the workers
            executor.shutdown(cancel_futures=True)
    # the curves come back group by group; put them in the order of configs
    placed = sorted(zip(sum(groups, []), sum(results, [])), key=lambda pair: pair[0])
    curves = [curve for _, curve in placed]
    return curves[0] if isinstance(config, SimConfig) else curves


def _curve(config: SimConfig, n_bits: int, trials: NDArray, errors: NDArray,
           decoded: NDArray) -> BerCurve:
    """The curve of ``config``, ``n_bits`` bits per trial, from its trials, bit
    errors and trials decoded per SNR point."""
    bits_total = trials * n_bits
    ber = np.where(bits_total > 0, errors / np.maximum(bits_total, 1), 0.0)
    ci = np.array([_wilson(int(e), int(nb)) for e, nb in zip(errors, bits_total)])
    return BerCurve(snr_db=np.array(config.snr_db), trials=trials, bit_errors=errors,
                    ber=ber, ci_low=ci[:, 0], ci_high=ci[:, 1], bits_per_trial=n_bits,
                    decoded=decoded)


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

    The batch axis is moved last once, to the n-last blocks ``_ml_argmin``
    takes, so the Gram and Z contractions run their inner loops over the
    batch; inputs that are transposed views of n-last memory cost no copy.
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
    h, y = (np.moveaxis(a.reshape(-1, *a.shape[-2:]), 0, -1) for a in (h, y))
    k = _ml_argmin(h, y, _ml_weights(codebook, snr)).reshape(batch)
    if not batch:
        return int(k), codebook.bits[k].copy()
    return k, codebook.bits[k]


def _ml_argmin(h: NDArray, y: NDArray, weights: NDArray) -> NDArray:
    """``ml_decode``'s decisions for the n-last (n_r, 2, n) channels ``h`` and
    (n_r, slots, n) blocks ``y``, as ``_Engine.decide`` holds them, under the
    weights ``_ml_weights`` built."""
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
    # each chunk's metric goes to its argmin at once, through one buffer
    metric = np.empty((min(ML_CHUNK, len(rows)), ML_ROWS, weights.shape[1]))
    k = np.empty((len(rows), ML_ROWS), dtype=np.intp)
    for c in range(0, len(rows), ML_CHUNK):
        chunk = rows[c:c + ML_CHUNK]
        np.matmul(chunk, weights, out=metric[:len(chunk)])
        np.argmin(metric[:len(chunk)], axis=-1, out=k[c:c + len(chunk)])
    return k.reshape(-1)[:n]


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
        write_csv(path, ("theta_bin_center", "mu_bin_center", "density"),
                  np.column_stack((np.repeat(tc, mc.size), np.tile(mc, tc.size),
                                   self.density().ravel())))


def check_density_inputs(law: ChannelLaw, bins: int, samples: int, seed: int) -> None:
    """Reject ``joint_density`` inputs it cannot sample. The link and the
    distance are ``ChannelLaw``'s to check."""
    if law.ideal:
        raise ValueError("joint density is defined over geometric channels")
    if not _is_int(samples):
        raise ValueError(f"samples must be an integer, got {samples!r}")
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples > DENSITY_SAMPLES:
        raise ValueError(f"samples must be at most {DENSITY_SAMPLES}, got {samples}")
    if not _is_int(bins):
        raise ValueError(f"bins must be an integer, got {bins!r}")
    if bins < 5:
        raise ValueError("use at least a 5 x 5 grid")
    if bins > DENSITY_BINS:
        raise ValueError(f"bins must be at most {DENSITY_BINS}, got {bins}")
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


def _usable_cpus() -> int:
    """The CPUs this process may use (those of the machine where the OS cannot
    say): ``joint_density`` runs its pieces on one thread per CPU, and
    ``simulate`` its channel groups on one process per CPU by default."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def joint_density(law: ChannelLaw, bins: int, samples: int, seed: int = 0) -> DensityGrid:
    """Histogram of (theta_mu, mu) of the geometric ``law``'s links on a ``bins``
    x ``bins`` grid: the counts ``np.histogram2d`` gives of (angle(rho) mod 2 pi,
    |rho| clipped to [0, 1]) over the successive blocks ``law.rho(n, rng)``, n =
    ``DENSITY_BLOCK`` but for a shorter last block, rng = ``default_rng([seed])``.

    The calling thread draws each block (``_law_draws``) and sums the integer
    counts of its ``DENSITY_PIECE``-sample pieces, which take and bin their
    rho (``_density_piece``) on one thread per usable CPU while it draws the
    next block. Every step is per sample, so the counts depend on neither the
    piece size nor the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    check_density_inputs(law, bins, samples, seed)
    theta_edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)
    mu_edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros((bins, bins), dtype=np.int64)
    rng = np.random.default_rng([seed])
    pool = ThreadPoolExecutor(_usable_cpus())
    try:
        running = []
        for start in range(0, samples, DENSITY_BLOCK):
            n = min(DENSITY_BLOCK, samples - start)
            # drawn while the previous block's pieces run
            draws = _law_draws(law, n, rng)
            previous, running = running, [
                pool.submit(_density_piece, law.link, draws, theta_edges, mu_edges, s)
                for s in range(0, n, DENSITY_PIECE)]
            # result() re-raises the error a piece met
            for piece in previous:
                counts += piece.result()
        for piece in running:
            counts += piece.result()
    finally:
        # after an error, drop the pieces not yet started and join the threads
        pool.shutdown(cancel_futures=True)
    return DensityGrid(theta_edges=theta_edges, mu_edges=mu_edges,
                       counts=counts, samples=samples)


def _bin_counts(theta: NDArray, mu: NDArray, theta_edges: NDArray,
                mu_edges: NDArray) -> NDArray:
    """The int64 counts of the samples (theta, mu) on the grid of ``theta_edges``
    x ``mu_edges``, each edge array a ``np.linspace`` from 0, by NumPy's
    histogram rules: x is in bin i when ``edges[i] <= x < edges[i + 1]``, and
    the last bin is closed. Every sample must lie on the grid, as the density
    pieces' clipped mu and theta_mu mod 2 pi do."""
    n_mu = len(mu_edges) - 1
    flat = _bin_index(theta, theta_edges) * n_mu
    flat += _bin_index(mu, mu_edges)
    return np.bincount(flat, minlength=(len(theta_edges) - 1) * n_mu).reshape(-1, n_mu)


def _bin_index(x: NDArray, edges: NDArray) -> NDArray:
    """The bin of each x in [0, edges[-1]] among the linspace ``edges`` from 0.

    x times bins / edges[-1] is within 1e-6 of x's place on the grid for any
    bins that ``check_density_inputs`` admits, so its floor is the bin or a
    neighbour; one comparison with each bounding edge settles which. The last
    bin's upper edge counts as infinite, which closes that bin."""
    last = len(edges) - 2
    i = (x * ((last + 1) / edges[-1])).astype(np.intp)
    np.minimum(i, last, out=i)
    i -= x < edges[i]
    i += x >= np.append(edges[1:-1], np.inf)[i]
    return i


def _density_piece(link: LinkSpec, draws: tuple, theta_edges: NDArray, mu_edges: NDArray,
                   start: int) -> NDArray:
    """The ``_bin_counts`` of the links ``start`` to ``start + DENSITY_PIECE``
    of a block's ``_law_draws`` ``draws``: their rho (``_links_rho``), as
    theta_mu = angle(rho) mod 2 pi and mu = |rho| clipped to [0, 1]."""
    s = slice(start, start + DENSITY_PIECE)
    q_tx, q_rx, r_link = draws
    rho = _links_rho(link, q_tx[s], q_rx[s], r_link[s])
    mu = np.clip(np.abs(rho), 0.0, 1.0)
    # np.angle, taken mod 2 pi: for an angle in [-pi, pi] that is adding 2 pi
    # below 0, which gives np.mod's bits, but for -0.0, which stays in bin 0
    theta = np.arctan2(rho.imag, rho.real)
    np.add(theta, 2.0 * np.pi, out=theta, where=theta < 0.0)
    return _bin_counts(theta, mu, theta_edges, mu_edges)
