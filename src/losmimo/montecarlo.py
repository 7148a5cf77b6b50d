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
from .channel import los_channel
from .codes import Codebook
from .design import select_tx_pair
from .geometry import ArrayLayout, exact_distances, make_layout, place_arrays, uniform_rotation

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
# samples per batch of joint_density; it fixes the order of the random stream
DENSITY_BLOCK = 200_000
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
    """Per-campaign state shared by all trial blocks."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.codebook = build_codebook(config.scheme)
        self.tx_layout, self.rx_layout = config.layouts
        self.snr_lin = tuple(10.0 ** (s / 10.0) for s in config.snr_db)
        if config.ideal_channel:
            phases = np.exp(2j * np.pi * np.arange(config.n_r) / config.n_r)
            self.h_ideal = np.column_stack([np.ones(config.n_r, dtype=complex), phases])

    def _channels(self, n: int, rng: np.random.Generator) -> NDArray:
        """Draw n random links and return their n x (n_r x 2) channels."""
        cfg = self.config
        if isinstance(cfg.distance, tuple):
            r_link = rng.uniform(cfg.distance[0], cfg.distance[1], n)
        else:
            r_link = np.full(n, float(cfg.distance))
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        tx, rx = place_arrays(self.tx_layout, self.rx_layout, u_tx, u_rx, r_link,
                              LINK_DIRECTION)
        if self.tx_layout.n > 2:
            pair = select_tx_pair(self.tx_layout, u_tx, LINK_DIRECTION).pair
            tx = tx[np.arange(n)[:, None], pair]
        return los_channel(exact_distances(tx, rx), cfg.wavelength)

    def run_block(self, snr_index: int, block_index: int, n_trials: int) -> tuple[int, int]:
        """Simulate one block; returns (trials, bit errors)."""
        cfg = self.config
        cb = self.codebook
        rng = np.random.default_rng([cfg.seed, snr_index, block_index])
        snr = self.snr_lin[snr_index]
        n = n_trials
        if cfg.ideal_channel:
            h = np.broadcast_to(self.h_ideal, (n, cfg.n_r, 2))
        else:
            h = self._channels(n, rng)
        k_true = rng.integers(0, cb.size, n)
        noise = np.sqrt(0.5) * (rng.standard_normal((n, cfg.n_r, cb.slots))
                                + 1j * rng.standard_normal((n, cfg.n_r, cb.slots)))
        y = np.sqrt(snr) * np.einsum("nri,nit->nrt", h, cb.codewords[k_true]) + noise
        _, bits = ml_decode(h, y, snr, cb)
        return n, int(np.sum(cb.bits[k_true] != bits))


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

    n_bits = engine.codebook.bits_per_codeword
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
    h = h.reshape(-1, h.shape[-2], 2)
    n = len(h)
    hc = np.conj(h)
    gram = np.einsum("nri,nrj->nij", hc, h)
    z = np.einsum("nri,nrt->nit", hc, y.reshape(n, -1, codebook.slots)).reshape(n, -1)
    # real features: G00, G11, Re G01, Im G01, Re Z, Im Z; padded rows stay 0
    feats = np.zeros((-(-n // ML_ROWS) * ML_ROWS, 4 + 2 * z.shape[1]))
    feats[:n, 0] = gram[:, 0, 0].real
    feats[:n, 1] = gram[:, 1, 1].real
    feats[:n, 2] = gram[:, 0, 1].real
    feats[:n, 3] = gram[:, 0, 1].imag
    feats[:n, 4:4 + z.shape[1]] = z.real
    feats[:n, 4 + z.shape[1]:] = z.imag
    metric = np.matmul(feats.reshape(-1, ML_ROWS, feats.shape[1]), _ml_weights(codebook, snr))
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
        with open(path, "w", newline="") as f:
            f.write("theta_bin_center,mu_bin_center,density\n")
            for i, t in enumerate(tc):
                for j, m in enumerate(mc):
                    f.write(f"{t:.12g},{m:.12g},{dens[i, j]:.12g}\n")


def joint_density(tx_layout: ArrayLayout, rx_layout: ArrayLayout, r_link: float,
                  wavelength: float, bins: int | tuple[int, int], samples: int,
                  seed: int = 0) -> DensityGrid:
    """Histogram of (theta_mu, mu) over independent random rotations of both
    arrays at a fixed link distance.

    The transmit array must have two antennas here. theta_mu is uniform and
    independent of mu only as d_t / wavelength -> infinity at fixed eta; at
    finite d_t / wavelength the high-mu rows keep a small theta ripple.
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
    for start in range(0, samples, DENSITY_BLOCK):
        n = min(DENSITY_BLOCK, samples - start)
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        dist = exact_distances(*place_arrays(tx_layout, rx_layout, u_tx, u_rx,
                                             np.full(n, float(r_link)), LINK_DIRECTION))
        # column inner product of the unit-modulus channel
        inner = np.exp(2j * np.pi * (dist[:, :, 1] - dist[:, :, 0]) / wavelength).sum(axis=1)
        mu = np.abs(inner) / n_r
        theta = np.angle(inner) % (2.0 * np.pi)
        hist, _, _ = np.histogram2d(theta, np.clip(mu, 0.0, 1.0),
                                    bins=[theta_edges, mu_edges])
        counts += hist.astype(np.int64)
    return DensityGrid(theta_edges=theta_edges, mu_edges=mu_edges,
                       counts=counts, samples=samples)
