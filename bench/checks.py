"""Output checks for the benchmark workloads.

Every check compares a program output with a computation made here, apart
from the program, or with a property the method must have; none compares
with a stored copy of an earlier output. Each check returns a list of
problems, empty when the output passes.

Statistical checks hold at the family-wise level ``ALPHA`` per operation, so
that a correct program fails a check on fewer than one seed in a million.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import stats
from scipy.spatial.transform import Rotation

ALPHA = 1e-6
WILSON_Z = stats.norm.isf(0.025)  # the program reports 95% intervals
BITS_PER_TRIAL = {"sm": 4, "golden": 8, "simo": 4}  # 4 bits per channel use


# ---------------------------------------------------------------- BER curves

def parse_ber_csv(text: str) -> dict[str, np.ndarray]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("BER CSV has no rows")
    cols = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
    for k in ("trials", "bit_errors"):
        cols[k] = cols[k].astype(np.int64)
    return cols


def _wilson(errors: int, n: int) -> tuple[float, float]:
    # score interval, written from its definition: the p with |p_hat - p| = z sqrt(p(1-p)/n)
    z2 = WILSON_Z ** 2
    p_hat = errors / n
    a = 1.0 + z2 / n
    b = -(2.0 * p_hat + z2 / n)
    c = p_hat ** 2
    disc = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    return max(0.0, (-b - disc) / (2.0 * a)), min(1.0, (-b + disc) / (2.0 * a))


def check_ber_curve(curve, scheme: str, snr_db, max_trials: int, target_errors: int,
                    block_trials: int) -> list[str]:
    """Stopping rule, BER arithmetic and Wilson intervals of one campaign."""
    problems = []
    if list(curve["snr_db"]) != [float(s) for s in snr_db]:
        problems.append(f"SNR grid {list(curve['snr_db'])} != configured {list(snr_db)}")
        return problems
    bits = BITS_PER_TRIAL[scheme]
    for snr, n, e, ber, lo, hi in zip(curve["snr_db"], curve["trials"], curve["bit_errors"],
                                      curve["ber"], curve["ci_low"], curve["ci_high"]):
        where = f"{snr:g} dB"
        if not 0 < n <= max_trials or (n % block_trials and n != max_trials):
            problems.append(f"{where}: {n} trials is not a whole number of blocks within budget")
        if e < target_errors and n != max_trials:
            problems.append(f"{where}: stopped at {n} trials with {e} < {target_errors} errors")
        nb = n * bits
        if not 0 <= e <= nb:
            problems.append(f"{where}: {e} errors out of {nb} bits")
            continue
        if not math.isclose(ber, e / nb, rel_tol=1e-10, abs_tol=1e-15):
            problems.append(f"{where}: ber {ber!r} != {e}/{nb}")
        w_lo, w_hi = _wilson(int(e), int(nb))
        if not (math.isclose(lo, w_lo, rel_tol=1e-9, abs_tol=1e-14)
                and math.isclose(hi, w_hi, rel_tol=1e-9, abs_tol=1e-14)):
            problems.append(f"{where}: interval [{lo!r}, {hi!r}] != Wilson [{w_lo:.12g}, {w_hi:.12g}]")
        # the program's lower end at zero errors is center - half, which rounds
        # to ~1e-20 rather than 0; allow that much floating-point slack
        if not (lo - ber <= 1e-12 * hi and ber <= hi):
            problems.append(f"{where}: ber {ber!r} outside its interval [{lo!r}, {hi!r}]")
    return problems


def gray_4qam_ber(snr_db) -> np.ndarray:
    """Bit error rate of Gray 4-QAM at half unit energy per antenna over the
    ideal 4 x 2 channel: Q(sqrt(2 SNR)) = erfc(sqrt(SNR)) / 2."""
    snr = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    return 0.5 * np.array([math.erfc(math.sqrt(s)) for s in snr])


def check_ideal_sm(curve) -> list[str]:
    """Bit errors of the ideal-channel SM run are Binomial(bits, Q(sqrt(2 SNR)))
    at every SNR point (two-sided, Bonferroni over the points)."""
    problems = []
    p = gray_4qam_ber(curve["snr_db"])
    alpha = ALPHA / (2 * len(p))
    for snr, n, e, pk in zip(curve["snr_db"], curve["trials"], curve["bit_errors"], p):
        nb = int(n) * BITS_PER_TRIAL["sm"]
        low_tail = stats.binom.cdf(e, nb, pk)
        high_tail = stats.binom.sf(e - 1, nb, pk)
        if min(low_tail, high_tail) < alpha:
            problems.append(f"{snr:g} dB: {e} errors in {nb} bits, analytic mean {nb * pk:.4g}")
    return problems


def check_tetra_beats_planar(planar, tetra, min_errors: int = 30,
                             from_snr_db: float = 16.0) -> list[str]:
    """Where the planar SM curve has at least ``min_errors`` errors at or above
    ``from_snr_db``, the tetrahedral curve lies below it, intervals disjoint."""
    problems = []
    for k, snr in enumerate(planar["snr_db"]):
        if snr < from_snr_db or planar["bit_errors"][k] < min_errors:
            continue
        if not tetra["ci_high"][k] < planar["ci_low"][k]:
            problems.append(f"{snr:g} dB: tetrahedral interval top {tetra['ci_high'][k]:.4g} "
                            f"not below planar interval bottom {planar['ci_low'][k]:.4g}")
    return problems


# ------------------------------------------------------------------- density

def parse_density_counts(text: str, samples: int, bins: int) -> np.ndarray:
    """Bin counts (theta, mu) recovered from the density CSV."""
    dens = np.array([float(r["density"]) for r in csv.DictReader(io.StringIO(text))])
    if dens.size != bins * bins:
        raise ValueError(f"density CSV has {dens.size} cells, expected {bins * bins}")
    area = (2.0 * np.pi / bins) * (1.0 / bins)
    return dens.reshape(bins, bins) * samples * area


def ula_positions(n: int, spacing: float) -> np.ndarray:
    x = (np.arange(n) - (n - 1) / 2.0) * spacing
    return np.column_stack([x, np.zeros(n), np.zeros(n)])


def square_positions(spacing: float) -> np.ndarray:
    h = spacing / 2.0
    return np.array([[0.0, -h, -h], [0.0, h, -h], [0.0, -h, h], [0.0, h, h]])


def independent_mu(tx_pos, rx_pos, r_link: float, wavelength: float, samples: int,
                   seed, chunk: int = 100_000) -> np.ndarray:
    """Column correlation mu of the exact unit-modulus LoS channel under
    independent uniform rotations of both arrays (scipy's sampler)."""
    rng = np.random.default_rng(seed)
    out = np.empty(samples)
    for start in range(0, samples, chunk):
        n = min(chunk, samples - start)
        u_tx = Rotation.random(n, random_state=rng).as_matrix()
        u_rx = Rotation.random(n, random_state=rng).as_matrix()
        tx = u_tx @ tx_pos.T                                   # (n, 3, n_t)
        rx = u_rx @ rx_pos.T
        rx[:, 0, :] += r_link
        dist = np.linalg.norm(rx[:, :, :, None] - tx[:, :, None, :], axis=1)  # (n, n_r, n_t)
        h = np.exp(-2j * np.pi * dist / wavelength)
        inner = np.einsum("nr,nr->n", np.conj(h[:, :, 0]), h[:, :, 1])
        norms = np.linalg.norm(h[:, :, 0], axis=1) * np.linalg.norm(h[:, :, 1], axis=1)
        out[start:start + n] = np.abs(inner) / norms
    return out


def check_density(counts: np.ndarray, samples: int, reference_mu: np.ndarray) -> list[str]:
    """Counts sum to the sample count, theta is uniform, and the mu marginal
    matches an independent sample by a two-sample chi-square test."""
    problems = []
    rounded = np.rint(counts)
    if np.max(np.abs(counts - rounded)) > 1e-3 or rounded.min() < 0:
        problems.append("bin densities do not correspond to whole counts")
    if int(rounded.sum()) != samples:
        problems.append(f"counts sum to {int(rounded.sum())}, not {samples}")
    alpha = ALPHA / 2
    theta = rounded.sum(axis=1)
    expected = theta.sum() / theta.size
    chi_theta = float(np.sum((theta - expected) ** 2 / expected))
    crit = stats.chi2.isf(alpha, theta.size - 1)
    if chi_theta > crit:
        problems.append(f"theta marginal chi2 {chi_theta:.1f} > {crit:.1f} ({theta.size - 1} dof)")
    mu = rounded.sum(axis=0)
    ref, _ = np.histogram(np.clip(reference_mu, 0.0, 1.0), bins=np.linspace(0.0, 1.0, mu.size + 1))
    keep = (mu + ref) > 0
    n1, n2 = mu.sum(), ref.sum()
    k1, k2 = math.sqrt(n2 / n1), math.sqrt(n1 / n2)
    chi_mu = float(np.sum((k1 * mu[keep] - k2 * ref[keep]) ** 2 / (mu[keep] + ref[keep])))
    crit = stats.chi2.isf(alpha, int(keep.sum()) - 1)
    if chi_mu > crit:
        problems.append(f"mu marginal two-sample chi2 {chi_mu:.1f} > {crit:.1f} "
                        f"({int(keep.sum()) - 1} dof)")
    return problems


# -------------------------------------------------------------------- design

PENTAGON_ETA_SCALE = 2.0 / (1.0 + math.sqrt(5.0))  # non-neighbouring / neighbouring pair eta
ETA_STEP = 0.01        # the eta grid step of the design recipe's mu* curve
PAPER_R_MIN = 4.43     # m


def _tetrahedron() -> np.ndarray:
    # unit vertex directions of a regular tetrahedron, one vertex on +z
    s = math.sqrt(2.0) / 3.0
    return np.array([[0.0, 0.0, 1.0],
                     [2.0 * s, 0.0, -1.0 / 3.0],
                     [-s, math.sqrt(2.0 / 3.0), -1.0 / 3.0],
                     [-s, -math.sqrt(2.0 / 3.0), -1.0 / 3.0]])


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    r = np.sqrt(1.0 - z * z)
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


class TetraWorstCase:
    """mu*(eta) of the tetrahedral receiver from the first-order phase model:
    antenna m at radius sqrt(3/8) d_r along r_m sees the transmit pair with
    phase (pi / eta) sqrt(3/8) r_m . v for transverse direction v, and
    mu(v) = |sum_m exp(i phase_m)| / 4. The maximum over v is taken on a
    dense Fibonacci sample, then zoomed in around the best candidates."""

    def __init__(self, coarse: int = 20_000, candidates: int = 8, zoom_steps: int = 24):
        self.dirs = _fibonacci_sphere(coarse)
        self.pitch = math.sqrt(4.0 * math.pi / coarse)
        self.candidates = candidates
        self.zoom_steps = zoom_steps
        self.vertices = _tetrahedron()
        g = np.linspace(-1.0, 1.0, 7)
        self.offsets = np.array([(a, b) for a in g for b in g])
        self._memo: dict[float, float] = {}

    def mu(self, eta: float, v: np.ndarray) -> np.ndarray:
        phase = (math.pi / eta) * math.sqrt(3.0 / 8.0) * (v @ self.vertices.T)
        return np.abs(np.exp(1j * phase).sum(axis=-1)) / 4.0

    def __call__(self, eta: float) -> float:
        if eta not in self._memo:
            self._memo[eta] = self._search(eta)
        return self._memo[eta]

    def _search(self, eta: float) -> float:
        vals = self.mu(eta, self.dirs)
        best = self.dirs[np.argsort(vals)[-self.candidates:]]
        step = self.pitch
        for _ in range(self.zoom_steps):
            # orthonormal tangent basis at each candidate
            a = np.where(np.abs(best[:, :1]) < 0.9, [[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]])
            t1 = np.cross(best, a)
            t1 /= np.linalg.norm(t1, axis=1, keepdims=True)
            t2 = np.cross(best, t1)
            pts = (best[:, None, :] + step * (self.offsets[None, :, :1] * t1[:, None, :]
                                              + self.offsets[None, :, 1:] * t2[:, None, :]))
            pts /= np.linalg.norm(pts, axis=-1, keepdims=True)
            m = self.mu(eta, pts)
            best = pts[np.arange(len(best)), np.argmax(m, axis=1)]
            step *= 0.5
        return float(self.mu(eta, best).max())

    def pentagon(self, eta: float) -> float:
        """Worst case with pentagon selection: min(mu*(eta), mu*(0.618 eta))."""
        return min(self(eta), self(eta * PENTAGON_ETA_SCALE))


def parse_design_report(text: str) -> dict[str, float]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1:
        raise ValueError(f"design report: expected one row, found {len(rows)}")
    return {k: float(v) for k, v in rows[0].items()}


def interpolation_tolerance(worst: TetraWorstCase, eta: float, step: float = ETA_STEP) -> float:
    """Largest amount by which the true pentagon worst case can exceed the
    program's value near ``eta``, which interpolates mu* linearly between grid
    points ``step`` apart: step^2 / 8 max |mu*''| over both branches (eta and
    0.618 eta), with mu*'' from second differences taken here over the
    neighbouring grid intervals, doubled for its variation within one."""
    curv = [abs(worst(x + step) - 2.0 * worst(x) + worst(x - step))
            for x in (eta, eta * PENTAGON_ETA_SCALE)
            for x in (x - step / 2, x, x + step / 2)]
    return 2.0 * max(curv) / 8.0


def check_design(report: dict, config: dict, worst: TetraWorstCase) -> list[str]:
    """Distance window arithmetic, the paper's range, and the design guarantee
    mu <= mu_max across [eta_min, eta_max], broken one grid step outside."""
    problems = []
    eta_min, eta_max = report["eta_min"], report["eta_max"]
    lam, d_t, d_r, mu_max = (config[k] for k in ("wavelength", "d_t", "d_r", "mu_max"))
    base = 2.0 * d_t * d_r / lam
    if not math.isclose(report["r_min_m"], eta_min * base, rel_tol=1e-9):
        problems.append(f"r_min {report['r_min_m']!r} != eta_min 2 d_t d_r / lambda = {eta_min * base!r}")
    r_max = eta_max * base * math.cos(math.pi / 10.0)
    if not math.isclose(report["r_max_m"], r_max, rel_tol=1e-9):
        problems.append(f"r_max {report['r_max_m']!r} != eta_max 2 d_t d_r cos(pi/10) / lambda = {r_max!r}")
    if abs(report["r_min_m"] - PAPER_R_MIN) > 0.15:
        problems.append(f"r_min {report['r_min_m']:.4f} m is not within 0.15 m of {PAPER_R_MIN} m")
    if not 12.0 <= report["r_max_m"] <= 14.0:
        problems.append(f"r_max {report['r_max_m']:.4f} m is outside [12, 14] m")
    if not 0 < eta_min < eta_max:
        problems.append(f"empty eta window [{eta_min!r}, {eta_max!r}]")
        return problems
    etas = np.append(np.arange(eta_min, eta_max, ETA_STEP), eta_max)
    for eta in etas:
        value = worst.pentagon(float(eta))
        if value > mu_max:
            tol = interpolation_tolerance(worst, float(eta))
            if value > mu_max + tol:
                problems.append(f"worst case {value:.8f} at eta {eta:.5f} exceeds "
                                f"mu_max {mu_max:.8f} + interpolation tolerance {tol:.2e}")
    for edge in (eta_min - ETA_STEP, eta_max + ETA_STEP):
        if worst.pentagon(edge) <= mu_max:
            problems.append(f"worst case {worst.pentagon(edge):.6f} at eta {edge:.5f}, one grid "
                            f"step outside the window, is within mu_max: the window is too narrow")
    return problems
