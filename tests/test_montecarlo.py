import dataclasses
import functools
import importlib.resources
import itertools
import json
import multiprocessing
import threading
import time

import numpy as np
import pytest
from scipy.stats import norm

from losmimo import montecarlo
from losmimo.channel import los_channel, reduce_channel
from losmimo.codes import build_codebook
from losmimo.design import select_tx_pair
from losmimo.geometry import (
    LinkScenario,
    LinkSpec,
    exact_distances,
    link_distances,
    make_layout,
    place_antennas,
    place_arrays,
    uniform_rotation,
)
from losmimo.montecarlo import (
    DENSITY_BLOCK,
    DENSITY_PIECE,
    LINK_DIRECTION,
    ChannelLaw,
    SimConfig,
    _Engine,
    _wilson,
    joint_density,
    ml_decode,
    run_ber,
)

def law(tx_kind="ula", rx_kind="ura", n_r=4, distance=(4.43, 12.7), ideal=False,
        wavelength=0.0042, d_t=0.06, d_r=0.25):
    """The channel law of the fig5 recipe with the given arrays, distance law
    and channel mode, as the CLI builds it."""
    link = LinkSpec(wavelength, make_layout(tx_kind, 2 if tx_kind == "ula" else None, d_t),
                    make_layout(rx_kind, n_r, d_r))
    return ChannelLaw(link, distance, ideal)


class TestMlDecode:
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_noiseless_recovery(self, scheme):
        rng = np.random.default_rng(0)
        cb = build_codebook(scheme)
        h = np.exp(2j * np.pi * rng.random((4, 2)))
        snr = 7.0
        for k in range(0, cb.size, max(1, cb.size // 32)):
            y = np.sqrt(snr) * h @ cb.codewords[k]
            got, bits = ml_decode(h, y, snr, cb)
            assert got == k
            assert np.array_equal(bits, cb.bits[k])

    def test_zero_channel_ties_to_first(self):
        cb = build_codebook("sm")
        got, _ = ml_decode(np.zeros((4, 2)), np.zeros((4, 1)), 1.0, cb)
        assert got == 0

    def test_dimension_mismatch(self):
        cb = build_codebook("golden")
        with pytest.raises(ValueError, match="received block"):
            ml_decode(law(ideal=True).draw(1, None)[..., 0], np.zeros((4, 1)), 1.0, cb)

    @pytest.mark.parametrize("snr", [0.0, -1.0, float("nan"), float("inf")])
    def test_snr_must_be_positive_and_finite(self, snr):
        # a NaN snr used to decode every block as codeword 0, and an infinite
        # one to give NaN metrics
        with pytest.raises(ValueError, match="snr must be positive"):
            ml_decode(law(ideal=True).draw(1, None)[..., 0], np.zeros((4, 1)), snr,
                      build_codebook("sm"))

    def test_batch_matches_per_trial(self):
        # one golden block as the engine builds it: engine channels at 8 dB
        cb = build_codebook("golden")
        rng = np.random.default_rng(16)
        n, snr = 2_500, 10 ** 0.8
        h = law("pentagon", "tetrahedron").draw(n, rng).transpose(2, 0, 1)
        k_true = rng.integers(0, cb.size, n)
        noise = np.sqrt(0.5) * (rng.standard_normal((n, 4, 2))
                                + 1j * rng.standard_normal((n, 4, 2)))
        y = np.sqrt(snr) * np.einsum("nri,nit->nrt", h, cb.codewords[k_true]) + noise
        k, bits = ml_decode(h, y, snr, cb)
        assert k.shape == (n,) and np.array_equal(bits, cb.bits[k])
        assert 0 < np.count_nonzero(k != k_true) < n // 2
        for i in range(n):
            one, one_bits = ml_decode(h[i], y[i], snr, cb)
            assert one == k[i] and np.array_equal(one_bits, bits[i])
        # the expanded metric picks what the Frobenius distance picks
        dist = np.abs(y[:, None] - np.sqrt(snr) * np.einsum("nri,kit->nkrt", h, cb.codewords))
        assert np.array_equal(k, np.argmin((dist ** 2).sum(axis=(2, 3)), axis=1))

    @pytest.mark.parametrize("snr_db", [0.0, 16.0, 32.0])
    @pytest.mark.parametrize("link", ["ideal", "ula_ura", "pent_tetr"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_matches_frobenius_argmin(self, scheme, link, snr_db):
        # 2,501 trials: not a multiple of the GEMM's row chunk
        n = 2_501
        tx_kind, rx_kind = ("pentagon", "tetrahedron") if link == "pent_tetr" else ("ula", "ura")
        cb = build_codebook(scheme)
        rng = np.random.default_rng(23)
        h = law(tx_kind, rx_kind, ideal=link == "ideal").draw(n, rng).transpose(2, 0, 1)
        snr = 10 ** (snr_db / 10)
        k_true = rng.integers(0, cb.size, n)
        noise = np.sqrt(0.5) * (rng.standard_normal((n, 4, cb.slots))
                                + 1j * rng.standard_normal((n, 4, cb.slots)))
        y = np.sqrt(snr) * np.einsum("nri,nit->nrt", h, cb.codewords[k_true]) + noise
        # argmin of ||y - sqrt(snr) h X_k||_F, first index on ties
        best = np.full(n, np.inf)
        want = np.zeros(n, dtype=int)
        for k, x in enumerate(cb.codewords):
            d = (np.abs(y - np.sqrt(snr) * h @ x) ** 2).sum(axis=(1, 2))
            want[d < best] = k
            best = np.minimum(best, d)
        k, bits = ml_decode(h, y, snr, cb)
        assert np.array_equal(k, want)
        assert np.array_equal(bits, cb.bits[want])
        # extra leading axes, and batches of one and of two
        lead, _ = ml_decode(h[:6 * 37].reshape(2, 3, 37, 4, 2),
                            y[:6 * 37].reshape(2, 3, 37, 4, cb.slots), snr, cb)
        assert np.array_equal(lead, want[:6 * 37].reshape(2, 3, 37))
        for m in (1, 2):
            assert np.array_equal(ml_decode(h[:m], y[:m], snr, cb)[0], want[:m])
        assert ml_decode(h[-1], y[-1], snr, cb)[0] == want[-1]

    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_same_decisions_for_either_memory_layout(self, scheme):
        # _Engine.block_errors passes transposed views of n-last memory; C-contiguous
        # n-first copies of the same blocks decode to the same indices and bits
        cb = build_codebook(scheme)
        rng = np.random.default_rng(29)
        n, snr = 2_501, 10 ** 0.8
        h_last = law("pentagon", "tetrahedron").draw(n, rng).transpose(2, 0, 1)
        assert h_last.transpose(1, 2, 0).flags.c_contiguous
        k_true = rng.integers(0, cb.size, n)
        noise = rng.standard_normal((n, 4, cb.slots)) + 1j * rng.standard_normal((n, 4, cb.slots))
        y_first = (np.sqrt(snr) * np.einsum("nri,nit->nrt", h_last, cb.codewords[k_true])
                   + np.sqrt(0.5) * noise)
        y_last = np.ascontiguousarray(y_first.transpose(1, 2, 0)).transpose(2, 0, 1)
        h_first = np.ascontiguousarray(h_last)
        k, bits = ml_decode(h_last, y_last, snr, cb)
        assert 0 < np.count_nonzero(k != k_true) < n // 2
        k_first, bits_first = ml_decode(h_first, y_first, snr, cb)
        assert np.array_equal(k, k_first) and np.array_equal(bits, bits_first)
        for m in (slice(0, 1), slice(n - 1, n)):
            one, one_bits = ml_decode(h_last[m], y_last[m], snr, cb)
            assert np.array_equal(one, k[m]) and np.array_equal(one_bits, bits[m])
            assert np.array_equal(ml_decode(h_first[m], y_first[m], snr, cb)[0], k[m])

    def test_starts_no_blas_threads(self):
        # a 2-D (2,500 x 12) @ (12 x 256) product makes OpenBLAS run extra
        # threads, which spin after each call; the decoder's row chunks do not
        cb = build_codebook("golden")
        rng = np.random.default_rng(5)
        h = rng.standard_normal((2_500, 4, 2)) + 1j * rng.standard_normal((2_500, 4, 2))
        y = rng.standard_normal((2_500, 4, 2)) + 1j * rng.standard_normal((2_500, 4, 2))
        ml_decode(h, y, 10.0, cb)
        time.sleep(0.5)   # BLAS threads an earlier test left spinning go idle
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(50):
            ml_decode(h, y, 10.0, cb)
        assert time.process_time() - cpu < 1.3 * (time.perf_counter() - wall)

    def test_awgn_ber_matches_analytic(self):
        # orthogonal 2x2 channel: two parallel AWGN 4-QAM streams
        rng = np.random.default_rng(1)
        cb = build_codebook("sm")
        h = law("ula", "ula", n_r=2, ideal=True).draw(1, None)[..., 0]
        snr = 10 ** (6.0 / 10.0)
        n = 100_000
        k_true = rng.integers(0, cb.size, n)
        x = cb.codewords[k_true]
        noise = np.sqrt(0.5) * (rng.standard_normal((n, 2, 1))
                                + 1j * rng.standard_normal((n, 2, 1)))
        y = np.sqrt(snr) * np.einsum("ri,nit->nrt", h, x) + noise
        errs = 0
        hx = np.einsum("ri,kit->krt", h, cb.codewords)
        for i in range(n):
            metric = np.sum(np.abs(y[i][None] - np.sqrt(snr) * hx) ** 2, axis=(1, 2))
            k = int(np.argmin(metric))
            errs += int(np.sum(cb.bits[k_true[i]] != cb.bits[k]))
        p = norm.sf(np.sqrt(snr * 2 / 2))  # Q(sqrt(SNR n_r / 2)) at n_r = 2
        total = 4 * n
        assert abs(errs - p * total) <= 3 * np.sqrt(total * p * (1 - p))


def decode_every_trial(engine, h, rng):
    """The sent and the decoded codeword of each trial of one block, drawn as
    ``_Engine.block_errors`` draws it, with every trial decoded: the
    reference for the distance bound."""
    cb = engine.codebook
    n_r, n = h.shape[0], h.shape[-1]
    k_true = rng.integers(0, cb.size, n)
    y = np.empty((n_r, cb.slots, n), dtype=complex)
    for part in (y.real, y.imag):
        np.multiply(rng.standard_normal((n, n_r, cb.slots)), np.sqrt(0.5),
                    out=part.transpose(2, 0, 1))
    x = engine.codewords_nlast[:, :, k_true]
    hx = np.multiply(h[:, 0, None], x[0])
    hx += np.multiply(h[:, 1, None], x[1])
    hx *= np.sqrt(engine.snr)
    y += hx
    k, _ = ml_decode(h.transpose(2, 0, 1), y.transpose(2, 0, 1), engine.snr, cb)
    return k_true, k


def bit_errors(cb, sent, decoded):
    return int(np.sum(cb.bits[sent] != cb.bits[decoded]))


class Replay:
    """Stands in for a block's generator: hands ``block_errors`` the given
    codewords and then the given real and imaginary noise normals."""

    def __init__(self, sent, normals):
        self.sent, self.normals = sent, list(normals)

    def integers(self, low, high, size):
        assert (low, size) == (0, len(self.sent)) and self.sent.max() < high
        return self.sent

    def standard_normal(self, shape):
        return self.normals.pop(0)


class TestDistanceBound:
    """``_Engine.block_errors`` decodes only the trials whose decision the
    distance bound leaves in doubt, and counts the errors a full decode counts."""

    @staticmethod
    def count_decoded(monkeypatch):
        decoded = []
        real = montecarlo._ml_argmin

        def counting(h, y, weights):
            decoded.append(len(h))
            return real(h, y, weights)

        monkeypatch.setattr(montecarlo, "_ml_argmin", counting)
        return decoded

    @pytest.mark.parametrize("snr_db", [0.0, 16.0, 32.0])
    @pytest.mark.parametrize("link", ["ideal", "ula_ura", "pent_tetr"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_matches_decoding_every_trial(self, scheme, link, snr_db):
        tx_kind, rx_kind = ("pentagon", "tetrahedron") if link == "pent_tetr" else ("ula", "ura")
        cfg = SimConfig(scheme=scheme, law=law(tx_kind, rx_kind, ideal=link == "ideal"),
                        snr_db=(snr_db,))
        engine = _Engine(cfg)
        total = 0
        for b in range(3):
            rng = np.random.default_rng([31, b])
            h = cfg.law.draw(2_501, rng)
            drawn = rng.bit_generator.state
            want = bit_errors(engine.codebook, *decode_every_trial(engine, h, rng))
            rng.bit_generator.state = drawn
            assert engine.block_errors(h, montecarlo._lambda_min(h), rng) == want
            total += want
        if snr_db == 0.0:
            assert total > 0

    @pytest.mark.parametrize("channels", ["near-parallel", "weak-column"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_settled_trials_are_ml_decisions(self, monkeypatch, scheme, channels):
        # at 60 dB, on channels whose lambda_min / tr G runs from about 1e-8 to
        # 1e-2 (across SETTLE_FLOOR), the noise of each trial points at its
        # nearest competitor: in the first half it is just inside the bound,
        # in the second half just past the midpoint to that competitor
        engine = _Engine(SimConfig(scheme=scheme, law=law(), snr_db=(60.0,)))
        cb, snr = engine.codebook, engine.snr
        rng = np.random.default_rng(41)
        n, n_r = 1_200, 4
        h = np.exp(2j * np.pi * rng.random((n_r, 2, n)))
        if channels == "near-parallel":
            wobble = rng.standard_normal((n_r, n)) + 1j * rng.standard_normal((n_r, n))
            h[:, 1] = (h[:, 0] * np.exp(2j * np.pi * rng.random(n))
                       + 10.0 ** rng.uniform(-3.5, -1.0, n) * wobble)
        else:
            h[:, 0] *= 10.0 ** rng.uniform(-4.0, -0.5, n)
        lam = montecarlo._lambda_min(h)
        g = np.einsum("rin,rjn->nij", np.conj(h), h)
        exact = np.linalg.eigvalsh(g)[:, 0]
        floor = montecarlo.SETTLE_FLOOR * np.trace(g, axis1=1, axis2=2).real
        assert np.count_nonzero(exact < floor) > n // 20
        assert np.count_nonzero(exact > floor) > n // 2
        assert np.allclose(lam[lam > 0], exact[lam > 0], rtol=1e-6)
        assert np.all(lam[exact < 0.9 * floor] == 0)
        sent = rng.integers(0, cb.size, n)
        # sqrt(snr) h (X_k - X_sent) for every k, n-first
        toward = np.sqrt(snr) * np.einsum("rin,nkit->nkrt", h,
                                          cb.codewords[None] - cb.codewords[sent][:, None])
        gap = (np.abs(toward) ** 2).sum(axis=(2, 3))
        gap[np.arange(n), sent] = np.inf
        nearest = toward[np.arange(n), np.argmin(gap, axis=1)]
        length = np.sqrt(gap.min(axis=1))
        inside = np.sqrt(engine.settle_scale * np.maximum(lam, exact) * (1 - 1e-9))
        scale = np.where(np.arange(n) < n // 2, inside, (0.5 + 1e-6) * length)
        noise = nearest * (scale / length)[:, None, None]
        normals = [noise.real / np.sqrt(0.5), noise.imag / np.sqrt(0.5)]
        _, k = decode_every_trial(engine, h, Replay(sent, normals))
        decoded = self.count_decoded(monkeypatch)
        errors = engine.block_errors(h, lam, Replay(sent, normals))
        # the first half are the trials above the floor that the bound settles
        settled = (np.arange(n) < n // 2) & (lam > 0)
        assert sum(decoded) == n - np.count_nonzero(settled)
        assert np.array_equal(k[settled], sent[settled])
        # past the midpoint the full decode errs, and so does block_errors
        assert np.count_nonzero(k != sent) > n // 4
        assert errors == bit_errors(cb, sent, k)

    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_settles_nearly_every_trial_at_high_snr(self, monkeypatch, scheme):
        # the bound is on: at 32 dB on ULA x URA at most 10% of trials are decoded
        cfg = SimConfig(scheme=scheme, law=law(), snr_db=(32.0,))
        engine = _Engine(cfg)
        decoded = self.count_decoded(monkeypatch)
        for b in range(4):
            rng = np.random.default_rng([37, b])
            h = cfg.law.draw(2_500, rng)
            assert engine.block_errors(h, montecarlo._lambda_min(h), rng) == 0
        assert sum(decoded) <= 0.1 * 4 * 2_500


class TestRunBer:
    # (trials, bit errors) at 0, 16 and 32 dB with 5,000 trials per point and
    # seed 1, as the engine gave them with n-first blocks in memory
    FIG5_COUNTS = {
        "sm_ula_ura": [(2500, 1316), (5000, 12), (5000, 0)],
        "golden_ula_ura": [(2500, 2412), (5000, 0), (5000, 0)],
        "sm_pent_tetr": [(2500, 1017), (5000, 0), (5000, 0)],
        "golden_pent_tetr": [(2500, 2038), (5000, 0), (5000, 0)],
        "simo_ura": [(2500, 1426), (5000, 0), (5000, 0)],
        "ideal_sm": [(2500, 793), (5000, 0), (5000, 0)],
    }

    @pytest.mark.parametrize("name", list(FIG5_COUNTS))
    def test_fig5_runs_keep_their_counts(self, name):
        cfg = json.loads(importlib.resources.files("losmimo.recipes")
                         .joinpath("fig5.json").read_text())
        run = next(r for r in cfg["runs"] if r["name"] == name)
        curve = run_ber(SimConfig(
            scheme=run["scheme"],
            law=law(run["tx_kind"], run["rx_kind"], cfg["n_r"],
                    (cfg["distance"]["min"], cfg["distance"]["max"]),
                    run.get("ideal_channel", False), cfg["wavelength"], cfg["d_t"], cfg["d_r"]),
            snr_db=(0, 16, 32), max_trials=5_000, target_errors=cfg["target_errors"], seed=1))
        assert list(zip(curve.trials.tolist(), curve.bit_errors.tolist())) == \
            self.FIG5_COUNTS[name]

    def test_ideal_mode_matches_analytic(self):
        cfg = SimConfig(scheme="sm", law=law(ideal=True), snr_db=(0, 4, 8),
                        max_trials=60_000, target_errors=10**9, seed=11)
        curve = run_ber(cfg)
        p = norm.sf(np.sqrt(2 * 10 ** (np.array(cfg.snr_db) / 10)))
        total = curve.trials * curve.bits_per_trial
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(curve.bit_errors - p * total) <= 3 * sigma)

    def test_seed_reproducibility(self):
        cfg = SimConfig(scheme="sm", law=law("pentagon", "tetrahedron"),
                        snr_db=(0, 8), max_trials=10_000, target_errors=100, seed=5)
        a, b = run_ber(cfg), run_ber(cfg)
        assert np.array_equal(a.bit_errors, b.bit_errors)
        assert np.array_equal(a.trials, b.trials)

    def test_worker_count_invariance(self, tmp_path):
        # the CSV (trials, errors and the intervals that follow from them) is
        # byte-identical with a pool of 3 or 2 processes and without one; the
        # second set-up has several
        # blocks per point, early stops at the low SNRs and the full budget at
        # the top one
        setups = [
            (3, dict(scheme="sm", law=law("triangle", "tetrahedron"),
                     snr_db=(0, 8), max_trials=10_000, target_errors=100, seed=6)),
            (2, dict(scheme="sm", law=law("pentagon", "tetrahedron"),
                     snr_db=(0, 8, 16), max_trials=6_000, target_errors=100,
                     block_trials=500, seed=14)),
        ]
        for workers, kw in setups:
            serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
            run_ber(SimConfig(**kw)).write_csv(serial)
            pool = multiprocessing.Pool(workers)
            try:
                run_ber(SimConfig(**kw), pool).write_csv(parallel)
            finally:
                pool.close()
                pool.join()
            assert serial.read_bytes() == parallel.read_bytes()
        rows = [r.split(",") for r in serial.read_text().splitlines()[1:]]
        assert int(rows[0][1]) < 6_000 and int(rows[-1][1]) == 6_000

    def test_interval_contains_ber(self):
        # 15,000 trials of 4 bits: the lower end used to round to ~7e-21 at 32 dB
        cfg = SimConfig(scheme="sm", law=law(ideal=True), snr_db=(0, 32),
                        max_trials=15_000, target_errors=10**9, seed=15)
        curve = run_ber(cfg)
        assert curve.bit_errors[0] > 0 and curve.bit_errors[-1] == 0
        assert curve.ci_low[-1] == 0.0
        assert np.all((curve.ci_low <= curve.ber) & (curve.ber <= curve.ci_high))

    def test_wilson_ends_exact_at_the_boundaries(self):
        # center -/+ half rounds away from 0 (1) at these n
        for n in (3, 10, 13, 60_000, 120_000):
            assert _wilson(0, n)[0] == 0.0
            assert _wilson(n, n)[1] == 1.0
        for n in (37, 20_000, 800_000):
            lo, hi = _wilson(1, n)
            assert 0.0 < lo < 1.0 / n < hi < 1.0

    def test_distance_law_must_clear_the_arrays(self):
        with pytest.raises(ValueError, match="array radii"):
            law(distance=(0.0001, 0.2))
        # 0.03 m (ULA) + 0.25 sqrt(3/8) m (tetrahedron) = 0.183 m
        with pytest.raises(ValueError, match="array radii"):
            law("ula", "tetrahedron", distance=0.18)
        law("ula", "tetrahedron", distance=0.19)
        # an ideal channel has no geometry to overlap
        law(distance=(0.0001, 0.2), ideal=True)

    def test_error_target_stops_early(self):
        cfg = SimConfig(scheme="sm", law=law(), snr_db=(0.0,), max_trials=100_000,
                        target_errors=50, block_trials=500, seed=7)
        curve = run_ber(cfg)
        assert curve.bit_errors[0] >= 50
        assert curve.trials[0] < 100_000

    def test_monotone_in_snr_within_noise(self):
        cfg = SimConfig(scheme="sm", law=law("pentagon", "tetrahedron"),
                        snr_db=(0, 4, 8), max_trials=40_000, target_errors=400, seed=8)
        curve = run_ber(cfg)
        inversions = sum(
            1 for i in range(len(curve.ber) - 1)
            if curve.ber[i + 1] > curve.ber[i]
            and curve.ci_low[i + 1] > curve.ci_high[i])
        assert inversions == 0

    def test_simo_independent_of_rx_geometry(self):
        kw = dict(scheme="simo", snr_db=(8.0,), max_trials=30_000,
                  target_errors=10**9, seed=9)
        ura = run_ber(SimConfig(law=law("ula", "ura"), **kw))
        tet = run_ber(SimConfig(law=law("ula", "tetrahedron"), **kw))
        assert ura.ci_low[0] <= tet.ci_high[0] and tet.ci_low[0] <= ura.ci_high[0]

    def test_spherical_code_receiver_fallback_lattice(self):
        cfg = SimConfig(scheme="sm", law=law("triangle", "spherical-code"),
                        snr_db=(8.0,), max_trials=10_000, target_errors=10**9, seed=12)
        curve = run_ber(cfg)
        assert 0.0 < curve.ber[0] < 0.1

    def test_sixteen_antenna_spherical_code(self):
        # wider receive arrays flow through the same decode path
        cfg = SimConfig(scheme="sm", law=law("triangle", "spherical-code", 16, distance=7.14),
                        snr_db=(0.0,), max_trials=4_000, target_errors=10**9, seed=13)
        curve = run_ber(cfg)
        assert curve.trials[0] == 4_000

    def test_configs_compare_by_value(self):
        # as they did when the link was a set of flat fields
        a, b = (SimConfig(scheme="sm", law=law("pentagon", "tetrahedron"), snr_db=(0.0,))
                for _ in range(2))
        assert a == b and hash(a) == hash(b)
        assert a != SimConfig(scheme="sm", law=law("pentagon", "tetrahedron", d_r=0.3),
                              snr_db=(0.0,))

    def test_unsorted_snr_grid_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SimConfig(scheme="sm", law=law(), snr_db=(8, 0))

    @pytest.mark.parametrize("snr_db", [(float("nan"),), (), (True, "x"), (0.0, float("inf")),
                                        ("0",)],
                             ids=["nan", "empty", "bool-str", "inf", "str"])
    def test_snr_grid_must_be_finite_numbers(self, snr_db):
        # NaN used to run to a CSV row of nan, () to an IndexError and
        # (True, "x") to a TypeError
        with pytest.raises(ValueError, match="non-empty list of finite numbers"):
            SimConfig(scheme="sm", law=law(), snr_db=snr_db)

    @pytest.mark.parametrize("field", ["max_trials", "target_errors", "block_trials"])
    @pytest.mark.parametrize("value", [1000.5, True])
    def test_non_integer_budget_rejected(self, field, value):
        # a float used to build and fail later, mid-run, with a TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(scheme="sm", law=law(), snr_db=(0.0,), **{field: value})

    @pytest.mark.parametrize("seed", [1.5, -1, True, "7"], ids=["float", "negative", "bool", "str"])
    def test_bad_seed_rejected(self, seed):
        # 1.5 and -1 used to fail in the first block, True and "7" to run
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SimConfig(scheme="sm", law=law(), snr_db=(0.0,), seed=seed)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'; expected sm, golden or simo"):
            SimConfig(scheme="bogus", law=law(), snr_db=(0.0,))

    @pytest.mark.parametrize("distance", [float("inf"), (1.0, float("inf"))],
                             ids=["fixed", "uniform"])
    def test_distance_must_be_finite(self, distance):
        with pytest.raises(ValueError, match="finite|< inf"):
            law(distance=distance)

    def test_ideal_channel_distance_must_be_finite(self):
        # the ideal channel skips the clearance check, which used to hold the
        # finiteness check of a fixed distance
        with pytest.raises(ValueError, match="distance must be finite"):
            law(distance=float("inf"), ideal=True)

    def test_csv_format(self, tmp_path):
        cfg = SimConfig(scheme="sm", law=law(), snr_db=(0.0,), max_trials=2_000,
                        target_errors=10**9, seed=10)
        path = tmp_path / "curve.csv"
        run_ber(cfg).write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,trials,bit_errors,ber,ci_low,ci_high"
        fields = lines[1].split(",")
        assert len(fields) == 6
        assert int(fields[1]) == 2_000


class TestSharedChannels:
    """``run_ber`` over a batch draws each block's channels once per group and
    trial count, and gives every campaign the curve it gives alone."""

    @staticmethod
    def configs():
        # one pentagon x tetrahedron group whose campaigns differ in scheme,
        # error target (so they stop at different blocks), budget (1,700 is
        # not a multiple of the 500-trial block) and SNR grid; a ULA x URA
        # campaign and an ideal one make groups of their own
        pent, ula = law("pentagon", "tetrahedron"), law()
        kw = dict(block_trials=500, seed=3)
        return [
            SimConfig(scheme="sm", law=pent, snr_db=(0, 8, 16), max_trials=3_000,
                      target_errors=100, **kw),
            SimConfig(scheme="golden", law=pent, snr_db=(0, 8, 16), max_trials=1_700,
                      target_errors=400, **kw),
            SimConfig(scheme="simo", law=pent, snr_db=(0, 8), max_trials=2_500,
                      target_errors=30, **kw),
            SimConfig(scheme="sm", law=ula, snr_db=(0, 8, 16), max_trials=2_000,
                      target_errors=100, **kw),
            SimConfig(scheme="sm", law=law(ideal=True), snr_db=(0, 8, 16), max_trials=2_000,
                      target_errors=100, **kw),
        ]

    @staticmethod
    def assert_same_curves(got, want):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert isinstance(a, montecarlo.BerCurve)
            for field in ("snr_db", "trials", "bit_errors", "ber", "ci_low", "ci_high"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert a.bits_per_trial == b.bits_per_trial

    def test_groups(self):
        assert montecarlo.channel_groups(self.configs()) == [[0, 1, 2], [3], [4]]

    def test_batch_matches_one_at_a_time(self):
        configs = self.configs()
        alone = [run_ber(c) for c in configs]
        self.assert_same_curves(run_ber(configs), alone)
        pool = multiprocessing.Pool(2)
        try:
            self.assert_same_curves(run_ber(configs, pool), alone)
        finally:
            pool.close()
            pool.join()
        # the group's campaigns stop at different blocks of the same point
        assert len({int(c.trials[1]) for c in alone[:3]}) == 3

    def test_one_config_is_a_batch_of_one(self):
        config = self.configs()[0]
        curve = run_ber(config)
        assert isinstance(curve, montecarlo.BerCurve)
        self.assert_same_curves(run_ber([config]), [curve])

    def test_channels_drawn_once_per_block_and_trial_count(self, monkeypatch):
        configs = self.configs()
        calls = []
        real = ChannelLaw.draw

        def counting(channel_law, n, rng):
            calls.append((channel_law, n, rng.bit_generator.state["state"]["state"]))
            return real(channel_law, n, rng)

        monkeypatch.setattr(ChannelLaw, "draw", counting)
        curves = run_ber(configs)
        # every (group, SNR index, block, trial count) that a campaign ran
        expected = set()
        for c, curve in zip(configs, curves):
            for s, trials in enumerate(curve.trials.tolist()):
                for b in range(-(-trials // c.block_trials)):
                    state = np.random.default_rng([c.seed, s, b]).bit_generator.state
                    expected.add((c.law, min(c.block_trials, c.max_trials - b * c.block_trials),
                                  state["state"]["state"]))
        assert sorted(calls, key=repr) == sorted(expected, key=repr)

    def test_synthesis_reads_only_key_fields(self):
        # a field that channel synthesis reads but channel_groups' key omits
        # would let campaigns that differ in it share one block's channels
        base = SimConfig(scheme="sm", law=law("pentagon", "tetrahedron"), snr_db=(0.0,),
                         seed=3, block_trials=500)

        def splits(**change):
            return len(montecarlo.channel_groups([base, dataclasses.replace(base, **change)])) == 2

        law_changes = {"link": law().link, "distance": (5.0, 12.7), "ideal": True}
        law_fields = {f.name for f in dataclasses.fields(ChannelLaw)}
        assert set(law_changes) == law_fields
        for name, value in law_changes.items():
            assert splits(law=dataclasses.replace(base.law, **{name: value})), name
        changes = {"scheme": "golden", "snr_db": (0.0, 4.0), "max_trials": 3_000,
                   "target_errors": 7, "seed": 4, "block_trials": 250}
        assert set(changes) | {"law"} == {f.name for f in dataclasses.fields(SimConfig)}
        assert {name for name, value in changes.items() if splits(**{name: value})} == \
            {"seed", "block_trials"}

        # synthesis is the law's draw, and it reads nothing but the law's fields
        class Recorder:
            def __init__(self, channel_law):
                self.law, self.reads = channel_law, set()

            def __getattr__(self, name):
                self.reads.add(name)
                return getattr(self.law, name)

        for channel_law in (base.law, dataclasses.replace(base.law, ideal=True)):
            recorder = Recorder(channel_law)
            h = ChannelLaw.draw(recorder, 8, np.random.default_rng(0))
            assert np.array_equal(h, channel_law.draw(8, np.random.default_rng(0)))
            assert recorder.reads and recorder.reads <= law_fields, recorder.reads


class TestEngineChannels:
    @pytest.mark.parametrize("rx_kind", ["ula", "ura", "tetrahedron"])
    @pytest.mark.parametrize("tx_kind", ["ula", "triangle", "pentagon"])
    def test_match_scalar_link_pipeline(self, tx_kind, rx_kind):
        # the law draws distance, then transmit and receive rotations; the
        # scalar path gets the same draws one link at a time
        channel_law = law(tx_kind, rx_kind)
        tx, rx = channel_law.link.tx, channel_law.link.rx
        n = 2_000
        h = channel_law.draw(n, np.random.default_rng(17)).transpose(2, 0, 1)
        rng = np.random.default_rng(17)
        r_link = rng.uniform(*channel_law.distance, n)
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        for i in range(n):
            link = LinkScenario(R=r_link[i], beta=0.0,
                                tx_layout=tx, rx_layout=rx, U_tx=u_tx[i], U_rx=u_rx[i])
            tx_pos, rx_pos = place_antennas(link)
            if tx.n > 2:
                tx_pos = tx_pos[list(select_tx_pair(tx, u_tx[i]).pair)]
            want = los_channel(exact_distances(tx_pos, rx_pos), channel_law.link.wavelength)
            assert np.array_equal(h[i], want)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND in CHANGES.md: ChannelLaw.draw picks the pentagon pair by the "
        "smallest |sin beta| alone and ignores select_tx_pair_for_quality"))
    def test_pentagon_links_meet_the_design_target(self):
        # fig5's distance law lies inside the pentagon design window for
        # mu_max = 2/3, so every simulated link must meet the target
        channel_law = law("pentagon", "tetrahedron")
        h = channel_law.draw(5_000, np.random.default_rng(123)).transpose(2, 0, 1)
        mu = np.abs(np.einsum("nr,nr->n", np.conj(h[:, :, 0]), h[:, :, 1])) / channel_law.link.rx.n
        assert mu.max() <= 2 / 3 + 0.01


def density_law(rx_kind):
    return law("ula", rx_kind, 2 if rx_kind == "ula" else 4, 10.0, d_t=0.145, d_r=0.145)


@functools.cache
def whole_block_counts(rx_kind, samples, seed, bins=25):
    """joint_density's counts from its whole-block loop, before blocks ran in
    threaded pieces: the reference the pieces must match bit for bit."""
    link = density_law(rx_kind).link
    theta_edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)
    mu_edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros((bins, bins), dtype=np.int64)
    rng = np.random.default_rng([seed])
    for start in range(0, samples, DENSITY_BLOCK):
        n = min(DENSITY_BLOCK, samples - start)
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        dist = link_distances(*place_arrays(link.tx, link.rx, u_tx, u_rx,
                                            np.full(n, 10.0), LINK_DIRECTION))
        diff = np.ascontiguousarray((dist[:, 1] - dist[:, 0]).T)
        inner = np.exp(2j * np.pi * diff / link.wavelength).sum(axis=1)
        mu = np.abs(inner) / link.rx.n
        theta = np.angle(inner) % (2.0 * np.pi)
        hist, _, _ = np.histogram2d(theta, np.clip(mu, 0.0, 1.0), bins=[theta_edges, mu_edges])
        counts += hist.astype(np.int64)
    return counts


class TestJointDensity:
    def _law(self):
        return density_law("ula")

    @pytest.mark.parametrize("threads", [None, 1, 3], ids=["per-cpu", "1-thread", "3-threads"])
    @pytest.mark.parametrize("rx_kind", ["ula", "ura"])
    def test_counts_do_not_depend_on_threads_or_pieces(self, monkeypatch, rx_kind, threads):
        # a block boundary, a partial piece at the end of the first block, and
        # three pieces in the second, the last of one sample
        samples, seed = DENSITY_BLOCK + 2 * DENSITY_PIECE + 1, 11
        if threads is not None:
            monkeypatch.setattr(montecarlo, "_piece_threads", lambda: threads)
        grid = joint_density(density_law(rx_kind), bins=25, samples=samples, seed=seed)
        assert grid.counts.sum() == samples
        assert np.array_equal(grid.counts, whole_block_counts(rx_kind, samples, seed))

    def test_piece_error_reaches_the_caller(self, monkeypatch):
        calls, error = itertools.count(), ValueError("second piece failed")

        def second_call_fails(tx, rx):
            if next(calls) == 1:
                raise error
            return link_distances(tx, rx)

        monkeypatch.setattr(montecarlo, "link_distances", second_call_fails)
        before = set(threading.enumerate())
        with pytest.raises(ValueError) as info:
            joint_density(self._law(), bins=5, samples=4 * DENSITY_PIECE, seed=3)
        assert info.value is error
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("bins,samples,field", [
        (25.5, 1_000, "bins"), ((25, 25.5), 1_000, "bins"), ((25,), 1_000, "bins"),
        (25, 1_000.5, "samples")], ids=["bins-float", "bins-pair-float", "bins-single", "samples-float"])
    def test_non_integer_sizes_rejected(self, bins, samples, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            joint_density(self._law(), bins, samples)

    @pytest.mark.parametrize("seed", [2.5, -3, True, "7"], ids=["float", "negative", "bool", "str"])
    def test_bad_seed_rejected(self, seed):
        # 2.5 and -3 used to fail in the first block, True and "7" to run
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            joint_density(self._law(), 5, 100, seed=seed)

    def test_infinite_distance_rejected(self):
        # it used to return counts that sum to 0
        with pytest.raises(ValueError, match="distance must be finite"):
            joint_density(ChannelLaw(self._law().link, float("inf")), 5, 100)

    def test_counts_sum_to_samples(self):
        grid = joint_density(self._law(), bins=5, samples=20_000, seed=1)
        assert grid.counts.sum() == 20_000

    def test_density_integrates_to_one(self):
        grid = joint_density(self._law(), bins=8, samples=20_000, seed=2)
        area = np.outer(np.diff(grid.theta_edges), np.diff(grid.mu_edges))
        assert float((grid.density() * area).sum()) == pytest.approx(1.0)

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="5 x 5"):
            joint_density(self._law(), bins=4, samples=1_000, seed=4)

    def test_two_antenna_transmitter_required(self):
        # a 3-antenna ULA is no transmit array; a triangle is one, but not here
        rx = make_layout("ula", 2, 0.145)
        with pytest.raises(ValueError, match="2 antennas, got 3"):
            LinkSpec(0.0042, make_layout("ula", 3, 0.1), rx)
        with pytest.raises(ValueError, match="2-antenna"):
            joint_density(ChannelLaw(LinkSpec(0.0042, make_layout("triangle", spacing=0.1), rx),
                                     10.0), bins=5, samples=100, seed=5)

    @pytest.mark.parametrize("change", [dict(tx_kind="triangle"), dict(distance=(10.0, 12.0)),
                                        dict(ideal=True)], ids=["triangle", "range", "ideal"])
    def test_law_must_be_geometric_at_a_fixed_distance(self, change):
        # a law that run_ber draws but that the density pieces do not read
        kw = dict(tx_kind="ula", rx_kind="ula", n_r=2, distance=10.0, d_t=0.145, d_r=0.145)
        bad = law(**{**kw, **change})
        message = ("joint density is defined for a 2-antenna transmitter at a fixed "
                   "distance, over geometric channels")
        for call in (lambda: montecarlo.check_density_inputs(bad, 5, 100, 0),
                     lambda: joint_density(bad, 5, 100)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    def test_csv_shape(self, tmp_path):
        grid = joint_density(self._law(), bins=5, samples=5_000, seed=6)
        path = tmp_path / "density.csv"
        grid.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta_bin_center,mu_bin_center,density"
        assert len(lines) == 1 + 25

    @pytest.mark.parametrize("rx_kind", ["ula", "ura"])
    def test_matches_scalar_exact_geometry(self, rx_kind):
        # the batched histogram bins exactly what the scalar link pipeline
        # gives for the same rotations (transmit drawn first, then receive)
        tx = make_layout("ula", 2, 0.145)
        rx = make_layout(rx_kind, 2 if rx_kind == "ula" else 4, 0.145)
        seed, n = 8, 20_000
        grid = joint_density(ChannelLaw(LinkSpec(0.0042, tx, rx), 10.0), bins=25, samples=n,
                             seed=seed)
        rng = np.random.default_rng([seed])
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        theta, mu = np.empty(n), np.empty(n)
        for i in range(n):
            link = LinkScenario(R=10.0, beta=0.0, tx_layout=tx,
                                rx_layout=rx, U_tx=u_tx[i], U_rx=u_rx[i])
            red = reduce_channel(los_channel(exact_distances(*place_antennas(link)),
                                             0.0042))
            theta[i], mu[i] = red.theta_mu, red.mu
        counts, _, _ = np.histogram2d(theta, mu, bins=[grid.theta_edges, grid.mu_edges])
        assert np.array_equal(grid.counts, counts.astype(np.int64))
