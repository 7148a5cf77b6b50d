"""Seed-reproducible Monte-Carlo engine: ML-decoded BER campaigns over random
orientations and distances, and the joint (theta_mu, mu) density experiment.

Trials are partitioned into fixed-size blocks; the random stream of a block
derives from (master seed, SNR index, block index), so results are identical
for any worker count and independent of scheduling order.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from . import codes
from .codes import Codebook
from .geometry import ArrayLayout, make_layout, uniform_rotation

__all__ = [
    "SimConfig",
    "BerCurve",
    "DensityGrid",
    "build_codebook",
    "ml_decode",
    "run_ber",
    "joint_density",
]

LINK_DIRECTION = np.array([1.0, 0.0, 0.0])


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
    """One BER campaign: scheme, geometry, SNR grid and stopping rule.

    ``distance`` is either a float (fixed range) or a (low, high) pair for a
    uniformly distributed inter-terminal distance; unless ``ideal_channel`` is
    set, it must stay beyond the sum of the transmit and receive array radii.
    ``ideal_channel`` bypasses the geometry and feeds the decoder a perfectly
    orthogonal channel. ``layouts`` holds the (transmit, receive) arrays built
    from the config.
    """

    scheme: str
    tx_kind: str              # "ula" | "triangle" | "pentagon"
    rx_kind: str              # "ula" | "ura" | "tetrahedron" | "spherical-code"
    n_r: int
    wavelength: float
    d_t: float
    d_r: float
    distance: float | tuple[float, float]
    snr_db: tuple[float, ...]
    max_trials: int = 200_000
    target_errors: int = 200
    seed: int = 0
    workers: int = 1
    block_trials: int = 2_500
    ideal_channel: bool = False
    rx_coords_file: str | None = None
    layouts: tuple[ArrayLayout, ArrayLayout] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.max_trials < 1 or self.target_errors < 1 or self.block_trials < 1:
            raise ValueError("trial budgets must be positive")
        if list(self.snr_db) != sorted(self.snr_db):
            raise ValueError("SNR grid must be sorted")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        if not isinstance(self.distance, (int, float)):
            lo, hi = self.distance
            if not 0 < lo <= hi:
                raise ValueError("distance range must satisfy 0 < low <= high")
            object.__setattr__(self, "distance", (float(lo), float(hi)))
        tx, rx = _layouts(self)
        object.__setattr__(self, "layouts", (tx, rx))
        if self.ideal_channel:
            return
        reach = float(tx.radii.max() + rx.radii.max())
        low = self.distance[0] if isinstance(self.distance, tuple) else float(self.distance)
        if low <= reach:
            raise ValueError(f"distance law reaches {low:g} m, not beyond the {reach:g} m "
                             "sum of the transmit and receive array radii")


def _layouts(config: SimConfig) -> tuple[ArrayLayout, ArrayLayout]:
    if config.tx_kind == "ula":
        tx = make_layout("ula", 2, config.d_t)
    elif config.tx_kind in ("triangle", "pentagon"):
        tx = make_layout(config.tx_kind, spacing=config.d_t)
    else:
        raise ValueError(f"unsupported transmit kind {config.tx_kind!r}")
    if config.rx_kind in ("ula", "ura", "spherical-code"):
        rx = make_layout(config.rx_kind, config.n_r, config.d_r,
                         coords_file=config.rx_coords_file)
    elif config.rx_kind == "tetrahedron":
        if config.n_r != 4:
            raise ValueError("tetrahedral receiver has n_r = 4")
        rx = make_layout("tetrahedron", spacing=config.d_r)
    else:
        raise ValueError(f"unsupported receive kind {config.rx_kind!r}")
    return tx, rx


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
        with open(path, "w", newline="") as f:
            f.write("snr_db,trials,bit_errors,ber,ci_low,ci_high\n")
            for row in zip(self.snr_db, self.trials, self.bit_errors,
                           self.ber, self.ci_low, self.ci_high):
                f.write(f"{row[0]:.12g},{int(row[1])},{int(row[2])},"
                        f"{row[3]:.12g},{row[4]:.12g},{row[5]:.12g}\n")


def _wilson(errors: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    if n == 0:
        return 0.0, 1.0
    p = errors / n
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2 * n)) / denom
    half = z * np.sqrt(p * (1 - p) / n + z2 / (4 * n * n)) / denom
    # the ends are exact where p is: center - half rounds to ~1e-20 at p = 0
    return (0.0 if errors == 0 else max(0.0, center - half),
            1.0 if errors == n else min(1.0, center + half))


class _Engine:
    """Precomputed per-campaign state shared by all trial blocks."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.codebook = build_codebook(config.scheme)
        cw = self.codebook.codewords
        self.cw = cw
        self.cw_conj = np.conj(cw)
        # M[k] = sum_t x_t x_t^H, so ||H X_k||^2 = Re tr(G M_k)
        self.m_mats = np.einsum("kit,kjt->kij", cw, np.conj(cw))
        self.bits = self.codebook.bits
        self.n_bits = self.codebook.bits_per_codeword
        self.tx_layout, self.rx_layout = config.layouts
        self.snr_lin = tuple(10.0 ** (s / 10.0) for s in config.snr_db)
        if config.ideal_channel:
            phases = np.exp(2j * np.pi * np.arange(config.n_r) / config.n_r)
            self.h_ideal = np.column_stack([np.ones(config.n_r, dtype=complex), phases])
        if config.tx_kind in ("triangle", "pentagon"):
            n_t = self.tx_layout.n
            self.pair_idx = np.array([(m, n) for m in range(n_t) for n in range(m + 1, n_t)])
            pos = self.tx_layout.positions
            self.pair_base = pos[self.pair_idx[:, 0]] - pos[self.pair_idx[:, 1]]
            self.pair_len = np.linalg.norm(self.pair_base, axis=1)

    def _channels(self, n: int, rng: np.random.Generator) -> NDArray:
        """Draw n random links and return their n x (n_r x 2) channels."""
        cfg = self.config
        if isinstance(cfg.distance, tuple):
            r_link = rng.uniform(cfg.distance[0], cfg.distance[1], n)
        else:
            r_link = np.full(n, float(cfg.distance))
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        tx_pos = np.einsum("nij,mj->nmi", u_tx, self.tx_layout.positions)
        if cfg.tx_kind == "ula":
            tx_sel = tx_pos
        else:
            baselines = np.einsum("nij,pj->npi", u_tx, self.pair_base)
            sin_beta = baselines[:, :, 0] / self.pair_len[None, :]
            sel = np.argmin(np.abs(sin_beta), axis=1)
            tx_sel = tx_pos[np.arange(n)[:, None], self.pair_idx[sel]]
        rx_pos = (r_link[:, None, None] * LINK_DIRECTION
                  + np.einsum("nij,mj->nmi", u_rx, self.rx_layout.positions))
        dist = np.linalg.norm(rx_pos[:, :, None, :] - tx_sel[:, None, :, :], axis=-1)
        return np.exp(2j * np.pi * dist / cfg.wavelength)

    def run_block(self, snr_index: int, block_index: int, n_trials: int) -> tuple[int, int]:
        """Simulate one block; returns (trials, bit errors)."""
        cfg = self.config
        rng = np.random.default_rng([cfg.seed, snr_index, block_index])
        snr = self.snr_lin[snr_index]
        n = n_trials
        if cfg.ideal_channel:
            h = np.broadcast_to(self.h_ideal, (n, cfg.n_r, 2))
        else:
            h = self._channels(n, rng)
        k_true = rng.integers(0, self.codebook.size, n)
        x = self.cw[k_true]
        slots = self.codebook.slots
        noise = np.sqrt(0.5) * (rng.standard_normal((n, cfg.n_r, slots))
                                + 1j * rng.standard_normal((n, cfg.n_r, slots)))
        y = np.sqrt(snr) * np.einsum("nri,nit->nrt", h, x) + noise
        gram = np.einsum("nri,nrj->nij", np.conj(h), h)
        z = np.einsum("nri,nrt->nit", np.conj(h), y)
        quad = np.einsum("nij,kji->nk", gram, self.m_mats).real
        inner = np.einsum("kit,nit->nk", self.cw_conj, z).real
        metric = snr * quad - 2.0 * np.sqrt(snr) * inner
        k_hat = np.argmin(metric, axis=1)
        errors = int(np.sum(self.bits[k_true] != self.bits[k_hat]))
        return n, errors


_WORKER_ENGINE: _Engine | None = None


def _worker_init(config: SimConfig) -> None:
    global _WORKER_ENGINE
    _WORKER_ENGINE = _Engine(config)


def _worker_block(task: tuple[int, int, int]) -> tuple[int, int]:
    return _WORKER_ENGINE.run_block(*task)


def _block_results(engine: _Engine, pool, window: int, tasks):
    """(trials, errors) of each task in order: run here without a pool, else
    submitted in order with at most ``window`` blocks in flight, so that
    nothing past an early stop is queued."""
    if pool is None:
        yield from (engine.run_block(*task) for task in tasks)
        return
    in_flight: deque = deque()
    for task in tasks:
        in_flight.append(pool.apply_async(_worker_block, (task,)))
        if len(in_flight) == window:
            yield in_flight.popleft().get()
    while in_flight:
        yield in_flight.popleft().get()


def run_ber(config: SimConfig) -> BerCurve:
    """Run the full BER campaign described by ``config``.

    Each SNR point stops at its trial budget or once the bit-error target is
    reached, scanning blocks in index order; with identical seeds the output
    is bit-identical for any worker count.
    """
    engine = _Engine(config)
    n_points = len(config.snr_db)
    trials = np.zeros(n_points, dtype=np.int64)
    errors = np.zeros(n_points, dtype=np.int64)
    max_blocks = -(-config.max_trials // config.block_trials)

    def block_sizes():
        left = config.max_trials
        for b in range(max_blocks):
            yield b, min(config.block_trials, left)
            left -= config.block_trials

    workers = max(1, int(config.workers))
    pool = None if workers == 1 else multiprocessing.Pool(
        workers, initializer=_worker_init, initargs=(config,))
    try:
        for s in range(n_points):
            tasks = ((s, b, size) for b, size in block_sizes())
            for t, e in _block_results(engine, pool, workers, tasks):
                trials[s] += t
                errors[s] += e
                if errors[s] >= config.target_errors:
                    break
    finally:
        if pool is not None:
            # blocks still in flight after an early stop finish and are
            # dropped; terminating a pool with queued work can deadlock
            pool.close()
            pool.join()

    n_bits = engine.n_bits
    bits_total = trials * n_bits
    ber = np.where(bits_total > 0, errors / np.maximum(bits_total, 1), 0.0)
    ci = np.array([_wilson(int(e), int(nb)) for e, nb in zip(errors, bits_total)])
    return BerCurve(snr_db=np.array(config.snr_db), trials=trials, bit_errors=errors,
                    ber=ber, ci_low=ci[:, 0], ci_high=ci[:, 1], bits_per_trial=n_bits)


def ml_decode(h: NDArray, y: NDArray, snr: float, codebook: Codebook) -> tuple[int, NDArray]:
    """Maximum-likelihood decoding of one received block.

    Returns the index minimising ``||y - sqrt(snr) h X_k||_F`` (lowest index
    on ties) together with its bit label.
    """
    h = np.asarray(h, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if h.ndim != 2 or h.shape[1] != 2:
        raise ValueError("channel must be n_r x 2")
    if y.shape != (h.shape[0], codebook.slots):
        raise ValueError(f"received block must be {h.shape[0]} x {codebook.slots}")
    if snr <= 0:
        raise ValueError("snr must be positive")
    hx = np.einsum("ri,kit->krt", h, codebook.codewords)
    metric = np.sum(np.abs(y[None] - np.sqrt(snr) * hx) ** 2, axis=(1, 2))
    k = int(np.argmin(metric))
    return k, codebook.bits[k].copy()


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
        with open(path, "w", newline="") as f:
            f.write("theta_bin_center,mu_bin_center,density\n")
            for i, t in enumerate(tc):
                for j, m in enumerate(mc):
                    f.write(f"{t:.12g},{m:.12g},{dens[i, j]:.12g}\n")


def joint_density(tx_layout: ArrayLayout, rx_layout: ArrayLayout, r_link: float,
                  wavelength: float, bins: int | tuple[int, int], samples: int,
                  seed: int = 0, rotate: bool = True,
                  block: int = 200_000) -> DensityGrid:
    """Histogram of (theta_mu, mu) over independent random rotations of both
    arrays at a fixed link distance.

    The transmit array must have two antennas here; ``rotate=False`` freezes
    both arrays (all probability mass lands in a single bin). theta_mu is
    uniform and independent of mu only as d_t / wavelength -> infinity at
    fixed eta; at finite d_t / wavelength the high-mu rows keep a small
    theta ripple.
    """
    if tx_layout.n != 2:
        raise ValueError("joint density is defined for a 2-antenna transmitter")
    if samples < 1:
        raise ValueError("need at least one sample")
    nt, nm = (bins, bins) if isinstance(bins, int) else bins
    if nt < 5 or nm < 5:
        raise ValueError("use at least a 5 x 5 grid")
    theta_edges = np.linspace(0.0, 2.0 * np.pi, nt + 1)
    mu_edges = np.linspace(0.0, 1.0, nm + 1)
    counts = np.zeros((nt, nm), dtype=np.int64)
    rng = np.random.default_rng([seed])
    n_r = rx_layout.n
    for start in range(0, samples, block):
        n = min(block, samples - start)
        if rotate:
            u_tx = uniform_rotation(rng, n)
            u_rx = uniform_rotation(rng, n)
        else:
            u_tx = np.broadcast_to(np.eye(3), (n, 3, 3))
            u_rx = u_tx
        tx_pos = np.einsum("nij,mj->nmi", u_tx, tx_layout.positions)
        rx_pos = (r_link * LINK_DIRECTION
                  + np.einsum("nij,mj->nmi", u_rx, rx_layout.positions))
        dist = np.linalg.norm(rx_pos[:, :, None, :] - tx_pos[:, None, :, :], axis=-1)
        # column inner product of the unit-modulus channel
        inner = np.exp(2j * np.pi * (dist[:, :, 1] - dist[:, :, 0]) / wavelength).sum(axis=1)
        mu = np.abs(inner) / n_r
        theta = np.angle(inner) % (2.0 * np.pi)
        hist, _, _ = np.histogram2d(theta, np.clip(mu, 0.0, 1.0),
                                    bins=[theta_edges, mu_edges])
        counts += hist.astype(np.int64)
    return DensityGrid(theta_edges=theta_edges, mu_edges=mu_edges,
                       counts=counts, samples=samples)
