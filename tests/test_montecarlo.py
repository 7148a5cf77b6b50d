import concurrent.futures
import dataclasses
import functools
import importlib.resources
import itertools
import json
import math
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from reference import correlation, distances, link_positions
from scipy.stats import norm

from losmimo import montecarlo
from losmimo.channel import _phasors, los_channel
from losmimo.codes import build_codebook, difference_spectrum
from losmimo.design import select_tx_pair
from losmimo.geometry import (
    ANTENNAS_MAX,
    LinkSpec,
    link_distances,
    make_layout,
    place,
    rotation_normals,
    uniform_rotation,
)
from losmimo.metrics import coding_gain
from losmimo.montecarlo import (
    DENSITY_BLOCK,
    DENSITY_PIECE,
    LINK_DIRECTION,
    SNR_POINTS,
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

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 2_500])
    def test_chunked_argmin_matches_whole_metric(self, monkeypatch, n):
        # every decision is an exact tie: the second half of the weights
        # repeats the first, so each lowest-index minimum lies in the first
        # half, and a zero channel every seventh trial ties all K codewords;
        # the blocks are n-last, (n_r, 2, n) and (n_r, slots, n), as the engine's
        cb = build_codebook("golden")
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n, 4, 2)) + 1j * rng.standard_normal((n, 4, 2))
        h[::7] = 0
        y = rng.standard_normal((n, 4, cb.slots)) + 1j * rng.standard_normal((n, 4, cb.slots))
        h, y = (np.ascontiguousarray(a.transpose(1, 2, 0)) for a in (h, y))
        weights = montecarlo._ml_weights(cb, 10.0)
        half = cb.size // 2
        weights[:, half:] = weights[:, :half]
        k = montecarlo._ml_argmin(h, y, weights)
        # one chunk that holds every product: the whole (n, K) metric at once
        monkeypatch.setattr(montecarlo, "ML_CHUNK", n)
        assert np.array_equal(k, montecarlo._ml_argmin(h, y, weights))
        assert k.shape == (n,) and np.all(k < half) and np.all(k[::7] == 0)

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
        # transposed views of n-last memory, the engine's layout, and C-contiguous
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


def block(law, n, rng):
    """The n-last (2, 2, n) factors and the correlations rho of a block of
    ``n`` links of ``law`` drawn from ``rng``, as ``_run_group`` draws them."""
    rho = law.rho(n, rng)
    return montecarlo._factor(rho, law.link.rx.n), rho


def decode_every_trial(engine, f, rng, s=0):
    """The sent and the decoded codeword of each trial of one block at SNR
    point ``s`` over the n-last factors ``f``, drawn as
    ``_Engine.block_errors`` draws it, with every trial decoded by
    ``ml_decode``: the reference for the distance bound."""
    cb = engine.codebook
    n = f.shape[-1]
    k_true = rng.integers(0, cb.size, n)
    r = np.empty((2, cb.slots, n), dtype=complex)
    for part in (r.real, r.imag):
        np.multiply(rng.standard_normal((n, 2, cb.slots)), np.sqrt(0.5),
                    out=part.transpose(2, 0, 1))
    x = engine.codewords_nlast[:, :, k_true]
    rx = np.multiply(f[:, 0, None], x[0])
    rx += np.multiply(f[:, 1, None], x[1])
    rx *= np.sqrt(engine.snr[s])
    r += rx
    k, _ = ml_decode(f.transpose(2, 0, 1), r.transpose(2, 0, 1), engine.snr[s], cb)
    return k_true, k


def least_received_distance(cb, f, n_r, pairs=1_024):
    """min over all ordered pairs of distinct codewords of ||R (X_j - X_k)||_F^2
    / n_r for each of the n-last factors ``f``: tr(dX^H G dX) with G = R^H R,
    taken ``pairs`` pairs at a time."""
    g = np.einsum("rin,rjn->nij", np.conj(f), f)
    links = np.column_stack([g[:, 0, 0].real, g[:, 1, 1].real, g[:, 0, 1].real,
                             g[:, 0, 1].imag]) / n_r
    j, k = np.nonzero(~np.eye(cb.size, dtype=bool))
    d = cb.codewords[j] - cb.codewords[k]
    c = (np.conj(d[:, 0]) * d[:, 1]).sum(axis=-1)
    terms = np.stack([(np.abs(d[:, 0]) ** 2).sum(axis=-1), (np.abs(d[:, 1]) ** 2).sum(axis=-1),
                      2 * c.real, -2 * c.imag])
    best = np.full(f.shape[-1], np.inf)
    for s in range(0, terms.shape[1], pairs):
        np.minimum(best, (links @ terms[:, s:s + pairs]).min(axis=1), out=best)
    return best


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
            decoded.append(h.shape[-1])
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
            f, rho = block(cfg.law, 2_501, rng)
            drawn = rng.bit_generator.state
            want = bit_errors(engine.codebook, *decode_every_trial(engine, f, rng))
            rng.bit_generator.state = drawn
            errors, _ = engine.block_errors(f, rho, rng, [0])
            assert errors.tolist() == [want]
            total += want
        if snr_db == 0.0:
            assert total > 0

    # the trials each case of test_settled_trials_are_ml_decisions decodes: the
    # 600 past the midpoint and those of the first half at or below the floor
    DECODED = {("sm", "near-parallel"): 601, ("sm", "aligned-phase"): 773,
               ("golden", "near-parallel"): 600, ("golden", "aligned-phase"): 600,
               ("simo", "near-parallel"): 600, ("simo", "aligned-phase"): 600}

    @pytest.mark.parametrize("channels", ["near-parallel", "aligned-phase"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_settled_trials_are_ml_decisions(self, monkeypatch, scheme, channels):
        # at 60 dB, on links whose 1 - |rho| runs from about 2e-8 to 2e-2, the
        # noise of each trial points at its nearest competitor: in the first
        # half its energy is just inside the bound, settle_scale times the
        # link's brute-force D less twice SETTLE_ALLOWANCE, and in the second
        # half it is just past the midpoint to that competitor. The phase of
        # rho is uniform, or a multiple of pi/2, where an SM difference can lie
        # along the weak eigenvector of G, so that D falls below the floor
        engine = _Engine(SimConfig(scheme=scheme, law=law(), snr_db=(60.0,)))
        cb, snr = engine.codebook, engine.snr[0]
        rng = np.random.default_rng(41)
        n, n_r = 1_200, 4
        mu = 1.0 - 2.0 * 10.0 ** rng.uniform(-8.0, -2.0, n)
        if channels == "near-parallel":
            rho = mu * np.exp(2j * np.pi * rng.random(n))
        else:
            rho = mu * 1j ** rng.integers(0, 4, n)
        f = montecarlo._factor(rho, n_r)
        g = np.einsum("rin,rjn->nij", np.conj(f), f)
        assert np.allclose(g, n_r * np.stack([[np.ones(n), rho], [np.conj(rho), np.ones(n)]])
                           .transpose(2, 0, 1), rtol=0, atol=1e-14)
        brute = least_received_distance(cb, f, n_r)
        dist = engine.distance(rho)
        above = dist > 0
        assert np.all(dist <= brute) and np.all(brute[above] - dist[above] <= 1e-7)
        assert np.all(brute[~above] <= engine.settle_floor + 1e-7)
        if (scheme, channels) == ("sm", "aligned-phase"):
            assert np.count_nonzero(~above) > n // 20
        sent = rng.integers(0, cb.size, n)
        # sqrt(snr) R (X_k - X_sent) for every k, n-first
        toward = np.sqrt(snr) * np.einsum("rin,nkit->nkrt", f,
                                          cb.codewords[None] - cb.codewords[sent][:, None])
        gap = (np.abs(toward) ** 2).sum(axis=(2, 3))
        gap[np.arange(n), sent] = np.inf
        nearest = toward[np.arange(n), np.argmin(gap, axis=1)]
        length = np.sqrt(gap.min(axis=1))
        inside = np.sqrt(engine.settle_scale[0] * (1 - 1e-9)
                         * np.maximum(brute - 2 * montecarlo.SETTLE_ALLOWANCE, 0.0))
        scale = np.where(np.arange(n) < n // 2, inside, (0.5 + 1e-6) * length)
        noise = nearest * (scale / length)[:, None, None]
        normals = [noise.real / np.sqrt(0.5), noise.imag / np.sqrt(0.5)]
        _, k = decode_every_trial(engine, f, Replay(sent, normals))
        decoded = self.count_decoded(monkeypatch)
        [errors], [counted] = engine.block_errors(f, rho, Replay(sent, normals), [0])
        # the first half are the trials above the floor that the bound settles
        settled = (np.arange(n) < n // 2) & above
        assert sum(decoded) == n - np.count_nonzero(settled) == self.DECODED[scheme, channels]
        assert counted == sum(decoded)
        assert np.array_equal(k[settled], sent[settled])
        # past the midpoint the full decode errs, and so does block_errors
        assert np.count_nonzero(k != sent) > n // 4
        assert errors == bit_errors(cb, sent, k)

    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_settles_nearly_every_trial_at_high_snr(self, monkeypatch, scheme):
        # the bound is on: at 32 dB on ULA x URA at most 10% of trials are
        # decoded, and no Golden trial, whose D stays above 0.1348
        cfg = SimConfig(scheme=scheme, law=law(), snr_db=(32.0,))
        engine = _Engine(cfg)
        decoded = self.count_decoded(monkeypatch)
        for b in range(4):
            rng = np.random.default_rng([37, b])
            f, rho = block(cfg.law, 2_500, rng)
            errors, _ = engine.block_errors(f, rho, rng, [0])
            assert errors.tolist() == [0]
        assert sum(decoded) <= 0.1 * 4 * 2_500
        if scheme == "golden":
            assert sum(decoded) == 0

    @pytest.mark.parametrize("link", ["ideal", "ula_ura", "pent_tetr"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_distance_is_the_least_received_distance(self, scheme, link):
        # on 2,000 links, D is within 1e-7 below the least ||R dX||_F^2 / n_r
        # over all K^2 codeword pairs, and above the worst-phase coding gain
        # at |rho|; it is 0 only at the floor
        tx_kind, rx_kind = ("pentagon", "tetrahedron") if link == "pent_tetr" else ("ula", "ura")
        cfg = SimConfig(scheme=scheme, law=law(tx_kind, rx_kind, ideal=link == "ideal"),
                        snr_db=(0.0,))
        engine = _Engine(cfg)
        f, rho = block(cfg.law, 2_000, np.random.default_rng(53))
        brute = least_received_distance(engine.codebook, f, cfg.law.link.rx.n)
        dist = engine.distance(rho)
        above = dist > 0
        assert np.all(dist <= brute) and np.all(brute[above] - dist[above] <= 1e-7)
        assert np.all(brute[~above] <= engine.settle_floor + 1e-7)
        gain = coding_gain(difference_spectrum(engine.codebook), np.abs(rho))
        assert np.all(dist[above] >= gain[above] - 1e-7)
        assert np.all(gain[~above] <= engine.settle_floor + 1e-7)
        if scheme == "simo":
            # every difference of SIMO lies on the first antenna
            assert np.allclose(dist, 0.4, rtol=0, atol=2e-8)

    @pytest.mark.parametrize("link", ["ula_ura", "pent_tetr"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_settles_every_trial_the_eigenvalue_bound_settles(self, scheme, link):
        # the eigenvalue bound of G settles a trial when snr lambda_min d2 > 4
        # (1 + delta)^2 ||W||^2, lambda_min = n_r (1 - |rho|) where 1 - |rho| >
        # 2 SETTLE_FLOOR (else 0)
        tx_kind, rx_kind = ("pentagon", "tetrahedron") if link == "pent_tetr" else ("ula", "ura")
        cfg = SimConfig(scheme=scheme, law=law(tx_kind, rx_kind), snr_db=(0.0, 8.0, 16.0, 24.0))
        engine = _Engine(cfg)
        cb, n_r = engine.codebook, cfg.law.link.rx.n
        margin = 4.0 * (1.0 + montecarlo.SETTLE_MARGIN) ** 2
        gained = 0
        for b in range(2):
            rng = np.random.default_rng([59, b])
            f, rho = block(cfg.law, 2_500, rng)
            _, _, energy = montecarlo._draw_trials(rng, 2_500, cb.size, cb.slots)
            gap = 1.0 - np.abs(rho)
            lam = np.where(gap > 2.0 * montecarlo.SETTLE_FLOOR, n_r * gap, 0.0)
            dist = engine.distance(rho)
            for snr, scale in zip(engine.snr, engine.settle_scale):
                by_eigenvalue = snr * lam * cb.min_sq_distance / margin > energy
                by_distance = scale * dist > energy
                assert np.all(by_distance[by_eigenvalue])
                gained += np.count_nonzero(by_distance & ~by_eigenvalue)
        # and more than 1,500 of the 20,000 trials besides
        assert gained > 1_500


class TestSufficientStatistic:
    """The engine decides on the 2 x 2 factor R of each link's channel H and
    2 x T noise; a full decode on H decides the same."""

    @pytest.mark.parametrize("link", [
        dict(), dict(tx_kind="pentagon", rx_kind="tetrahedron"), dict(ideal=True),
        dict(tx_kind="triangle", rx_kind="spherical-code", n_r=6, distance=7.0),
        dict(tx_kind="pentagon", rx_kind="ula", n_r=1, distance=7.0),
        dict(rx_kind="ula", n_r=1, ideal=True)],
        ids=["ula-ura", "pent-tetr", "ideal", "spherical-fixed", "one-antenna", "ideal-one"])
    def test_rho_is_the_column_correlation_of_draw(self, link):
        # the same links, drawn from the same stream, which each leaves in the
        # same state
        channel_law = law(**link)
        n = 3_001
        a, b = np.random.default_rng(7), np.random.default_rng(7)
        rho = channel_law.rho(n, a)
        h = channel_law.draw(n, b)
        assert rho.shape == (n,) and rho.dtype == complex
        want = np.einsum("rn,rn->n", np.conj(h[:, 0]), h[:, 1]) / channel_law.link.rx.n
        # the phases of path differences against those of whole distances of
        # about 13 m: each may differ by a few 1e-12 rad
        assert np.abs(rho - want).max() <= 1e-10
        assert a.bit_generator.state == b.bit_generator.state

    @pytest.mark.parametrize("snr_db", [0.0, 16.0, 32.0])
    @pytest.mark.parametrize("link", ["ula_ura", "pent_tetr"])
    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_engine_decisions_match_a_full_channel_decode(self, scheme, link, snr_db):
        # with H = Q R (Q = H R^-1) and y = Q r + N_perp, N_perp orthogonal to
        # Q's columns, ||y - sqrt(snr) H X_k||^2 = ||r - sqrt(snr) R X_k||^2 +
        # ||N_perp||^2, so the Frobenius argmin over all K codewords on (H, y)
        # is the engine's decision on (R, r) for every trial
        tx_kind, rx_kind = ("pentagon", "tetrahedron") if link == "pent_tetr" else ("ula", "ura")
        channel_law = law(tx_kind, rx_kind)
        engine = _Engine(SimConfig(scheme=scheme, law=channel_law, snr_db=(snr_db,)))
        cb, snr, n = engine.codebook, engine.snr[0], 2_501
        f, _ = block(channel_law, n, np.random.default_rng(43))
        h = channel_law.draw(n, np.random.default_rng(43)).transpose(2, 0, 1)
        rng = np.random.default_rng(47)
        sent = rng.integers(0, cb.size, n)
        w = np.sqrt(0.5) * (rng.standard_normal((n, 2, cb.slots))
                            + 1j * rng.standard_normal((n, 2, cb.slots)))
        decided = engine.decide(0, f, sent, np.ascontiguousarray(w.transpose(1, 2, 0)))
        big_r = f.transpose(2, 0, 1)
        r = np.sqrt(snr) * big_r @ cb.codewords[sent] + w
        q = h @ np.linalg.inv(big_r)
        # the last n_r - 2 columns of a complete QR of H span the complement
        # of its columns
        complement = np.linalg.qr(h, mode="complete")[0][:, :, 2:]
        shape = (n, complement.shape[-1], cb.slots)
        n_perp = complement @ (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y = q @ r + n_perp
        best = np.full(n, np.inf)
        want = np.zeros(n, dtype=int)
        for k, x in enumerate(cb.codewords):
            d = (np.abs(y - np.sqrt(snr) * h @ x) ** 2).sum(axis=(1, 2))
            want[d < best] = k
            best = np.minimum(best, d)
        assert np.array_equal(decided, want)
        if snr_db == 0.0:
            assert np.count_nonzero(want != sent) > n // 20

    def test_engine_block_stream_is_not_the_density_stream(self, monkeypatch):
        # SeedSequence drops trailing zero words, so a block key [seed, 0, 0]
        # would be joint_density's [seed]; block 0 of a fixed-distance law and
        # joint_density with the same seed must draw different rotations
        drawn = []
        real = montecarlo.rotation_normals

        def recording(rng, n):
            drawn.append(real(rng, n))
            return drawn[-1]

        monkeypatch.setattr(montecarlo, "rotation_normals", recording)
        channel_law = density_law("ula")
        for seed in (0, 7):
            drawn.clear()
            montecarlo._run_group((SimConfig(scheme="sm", law=channel_law, snr_db=(0.0,),
                                             max_trials=16, block_trials=16, seed=seed),))
            joint_density(channel_law, bins=5, samples=16, seed=seed)
            engine_tx, _, density_tx, _ = drawn
            assert not np.array_equal(engine_tx, density_tx)
            # the key without its nonzero word collides
            assert np.array_equal(real(np.random.default_rng([seed, 0, 0]), 16), density_tx)


class TestRunBer:
    # (trials, bit errors) at 0, 16 and 32 dB with 5,000 trials per point and
    # seed 1, recorded when the engine came to decode on the 2 x 2 factor of
    # each channel, with block keys [seed, 1, b]
    FIG5_COUNTS = {
        "sm_ula_ura": [(2500, 1247), (5000, 18), (5000, 0)],
        "golden_ula_ura": [(2500, 2576), (5000, 0), (5000, 0)],
        "sm_pent_tetr": [(2500, 1032), (5000, 0), (5000, 0)],
        "golden_pent_tetr": [(2500, 1956), (5000, 0), (5000, 0)],
        "simo_ura": [(2500, 1395), (5000, 0), (5000, 0)],
        "ideal_sm": [(2500, 811), (5000, 0), (5000, 0)],
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
        # byte-identical in 3 or 2 worker processes and in this process alone;
        # the second set-up has several blocks per point, early stops at the
        # low SNRs and the full budget at the top one
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
            run_ber(SimConfig(**kw), workers).write_csv(parallel)
            assert serial.read_bytes() == parallel.read_bytes()
        rows = [r.split(",") for r in serial.read_text().splitlines()[1:]]
        assert int(rows[0][1]) < 6_000 and int(rows[-1][1]) == 6_000

    @pytest.mark.parametrize("workers", [0, -3, 1.5, 2.0, True, "2"],
                             ids=["zero", "negative", "float", "integral-float", "bool", "str"])
    def test_bad_worker_count_rejected(self, monkeypatch, workers):
        # 0 and -3 used to run on threads as 1 worker
        def no_task(*args):
            raise AssertionError("no task may start")

        monkeypatch.setattr(montecarlo, "_run_group", no_task)
        cfg = SimConfig(scheme="sm", law=law(), snr_db=(0.0,), max_trials=2500)
        with pytest.raises(ValueError, match="workers must be an integer of at least 1"):
            run_ber(cfg, workers)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
    def test_blocks_reuse_their_heap_pages(self):
        # in a fresh process, where no earlier test's arrays have raised
        # glibc's trim threshold: a second four-block Golden task faults in
        # about 1,400 pages when every block gives its temporaries back
        code = """if True:
            import resource
            from losmimo.geometry import LinkSpec, make_layout
            from losmimo.montecarlo import ChannelLaw, SimConfig, _run_group
            link = LinkSpec(0.0042, make_layout("ula", 2, 0.06), make_layout("ura", 4, 0.25))
            cfg = SimConfig(scheme="golden", law=ChannelLaw(link, (4.43, 12.7)), snr_db=(0.0,),
                            max_trials=10_000, target_errors=10**9, seed=1)
            _run_group((cfg,))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            _run_group((cfg,))
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert int(out.stdout) < 100

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

    @pytest.mark.parametrize("distance", [1e300, (4.43, 1e300), 1.7e308],
                             ids=["fixed", "uniform", "largest"])
    def test_antenna_distances_must_square_as_floats(self, distance):
        # link_distances' squares used to overflow, and the channels came out NaN
        with pytest.raises(ValueError, match="whose squared distance is beyond a float"):
            law(distance=distance)
        # an ideal channel has no geometry
        law(distance=distance, ideal=True)

    def test_phases_must_stay_floats(self):
        # 1 / 5e-324 is infinite, so every phase 2 pi r / wavelength was
        with pytest.raises(ValueError, match=re.escape(
                "wavelength 5e-324 m and distance 10.0 m: the rounding of an antenna distance "
                "near 10.2068 m moves its phase by up to inf rad, more than 1e-06 rad")):
            law(distance=10.0, wavelength=5e-324)
        law(distance=10.0, wavelength=5e-324, ideal=True)

    @pytest.mark.parametrize("side", [0.999, 1.001])
    def test_geometry_bound_is_where_the_links_overflow(self, side):
        # just past the bound the squared distances overflow, and that is
        # checked first; just inside it the rounding of a distance moves its
        # phase by far more than the phase resolution
        high = side * math.sqrt(np.finfo(float).max / 3.0)
        message = "squared distance" if side > 1 else "moves its phase by up to 1.11e+141 rad"
        with pytest.raises(ValueError, match=re.escape(message)):
            law("pentagon", "tetrahedron", distance=high)

    @pytest.mark.parametrize("side", ["inside", "past"])
    def test_phase_resolution_bound(self, side):
        # a float rounds a distance r by up to ulp(r) / 2, which moves its
        # phase 2 pi r / wavelength by up to pi ulp(r) / wavelength. At 4.2 mm
        # that stays within PHASE_RESOLUTION below 2^23 m, where ulp doubles;
        # the largest antenna distance is the law's distance plus both radii
        channel_law = law()
        reach = float(channel_law.link.tx.radii.max() + channel_law.link.rx.radii.max())
        high = 2.0**23 - reach + (-1.0 if side == "inside" else 1.0)
        error = math.pi * math.ulp(high + reach) / 0.0042
        assert (error > montecarlo.PHASE_RESOLUTION) == (side == "past")
        if side == "past":
            with pytest.raises(ValueError, match=re.escape(
                    f"wavelength 0.0042 m and distance {high!r} m: the rounding of an antenna "
                    "distance near 8.38861e+06 m moves its phase by up to 1.39e-06 rad, more "
                    "than 1e-06 rad")):
                law(distance=high)
            return
        channel_law = law(distance=high)
        assert np.all(np.isfinite(channel_law.draw(100, np.random.default_rng(3))))
        assert np.all(np.isfinite(channel_law.rho(100, np.random.default_rng(3))))

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

    def test_snr_grid_is_bounded(self):
        # the engine builds a decoder weight matrix per point
        with pytest.raises(ValueError, match=f"SNR grid must have at most {SNR_POINTS} points, "
                                             f"got {SNR_POINTS + 1}"):
            SimConfig(scheme="golden", law=law(), snr_db=range(SNR_POINTS + 1))
        assert len(SimConfig(scheme="golden", law=law(), snr_db=range(SNR_POINTS)).snr_db) \
            == SNR_POINTS

    @pytest.mark.parametrize("trials", [10**7, 5 * 10**7])
    def test_block_is_bounded(self, trials):
        # blocks of 10^7 and 5 x 10^7 trials at n_r = 4 used to fail in the
        # first block with a MemoryError (exit 4) under a 3 GB and a 2 GB
        # address-space limit, and to ask for tens of GiB without one
        bound = montecarlo.BLOCK_ANTENNAS
        with pytest.raises(ValueError, match=re.escape(
                f"block_trials must leave at most {bound} trials x receive antennas per "
                f"block, got min(block_trials, max_trials) x n_r = {trials} x 4")):
            SimConfig(scheme="sm", law=law(), snr_db=(0.0,), max_trials=trials,
                      block_trials=trials)
        # the budget caps the block, and the bound is inclusive
        SimConfig(scheme="sm", law=law(), snr_db=(0.0,), max_trials=100, block_trials=trials)
        SimConfig(scheme="sm", law=law(), snr_db=(0.0,), block_trials=bound // 4)
        with pytest.raises(ValueError, match="block_trials must leave at most"):
            SimConfig(scheme="sm", law=law(), snr_db=(0.0,), block_trials=bound // 4 + 1)

    def test_default_block_passes_at_the_most_antennas(self):
        for kind in ("ula", "ura", "spherical-code"):
            cfg = SimConfig(scheme="golden", snr_db=(0.0,),
                            law=law(rx_kind=kind, n_r=ANTENNAS_MAX, distance=(40.0, 60.0)))
            assert cfg.block_trials * ANTENNAS_MAX == montecarlo.BLOCK_ANTENNAS

    @pytest.mark.parametrize("snr_db", [(-4000.0,), (-4000.0, 0.0), (-3300.0,)])
    def test_snr_whose_linear_value_underflows_rejected(self, snr_db):
        # the engine used to decode with zero weights, every trial as codeword 0
        with pytest.raises(ValueError, match=re.escape(
                f"snr_db {snr_db[0]!r} gives a linear SNR that underflows to 0")):
            SimConfig(scheme="sm", law=law(), snr_db=snr_db)
        # the smallest linear SNR above 0 is a subnormal float
        assert SimConfig(scheme="sm", law=law(), snr_db=(-3230.0,)).snr_db == (-3230.0,)

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

    @pytest.mark.parametrize("distance,want", [
        (np.int64(5), (5.0, 5.0)), (np.float32(5.5), (5.5, 5.5)),
        ((np.float32(4.5), np.int64(12)), (4.5, 12.0)), ([5, 12.7], (5.0, 12.7)),
    ], ids=["int64", "float32", "numpy-pair", "list-pair"])
    def test_distance_takes_numpy_reals(self, distance, want):
        got = law(distance=distance).distance
        assert got == want
        assert all(type(d) is float for d in got)

    @pytest.mark.parametrize("distance", [
        True, np.True_, "5", None, (1.0,), (4.5, 5.0, 6.0), ("4.5", "12"), (True, 12.0),
        (4.5, None), {"min": 4.5, "max": 12.0},
    ])
    def test_distance_must_be_a_number_or_a_pair(self, distance):
        with pytest.raises(ValueError, match=re.escape(
                f"distance must be a number or a (low, high) pair of numbers, got {distance!r}")):
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
    """``run_ber`` over a batch draws each block's channels once per group,
    and gives every campaign the curve it gives alone."""

    @staticmethod
    def configs():
        # one pentagon x tetrahedron group on one SNR grid and one budget
        # (1,700 is not a multiple of the 500-trial block), whose campaigns
        # differ in scheme and error target, so they stop at different blocks;
        # a ULA x URA campaign and an ideal one make groups of their own
        pent, ula = law("pentagon", "tetrahedron"), law()
        kw = dict(block_trials=500, seed=3)
        return [
            SimConfig(scheme="sm", law=pent, snr_db=(0, 8, 16), max_trials=1_700,
                      target_errors=100, **kw),
            SimConfig(scheme="golden", law=pent, snr_db=(0, 8, 16), max_trials=1_700,
                      target_errors=2, **kw),
            SimConfig(scheme="simo", law=pent, snr_db=(0, 8, 16), max_trials=1_700,
                      target_errors=20, **kw),
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
            for field in ("snr_db", "trials", "bit_errors", "ber", "ci_low", "ci_high",
                          "decoded"):
                assert np.array_equal(getattr(a, field), getattr(b, field)), field
            assert a.bits_per_trial == b.bits_per_trial

    def test_groups(self):
        assert montecarlo.channel_groups(self.configs()) == [[0, 1, 2], [3], [4]]

    def test_batch_matches_one_at_a_time(self):
        configs = self.configs()
        alone = [run_ber(c) for c in configs]
        self.assert_same_curves(run_ber(configs), alone)
        self.assert_same_curves(run_ber(configs, 2), alone)
        # the group's campaigns stop at different blocks of the same point,
        # one of them after the final partial block
        assert sorted(int(c.trials[1]) for c in alone[:3]) == [500, 1_000, 1_700]

    def test_curves_do_not_depend_on_the_process_count(self, monkeypatch):
        # the batch has three groups, one of them shared, a partial final block
        # and an ideal run; one worker runs the groups in this process, two and
        # three run them on pools of that many processes
        configs = self.configs()
        real, made = concurrent.futures.ProcessPoolExecutor, []

        def counting(processes):
            made.append(processes)
            return real(processes)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting)
        runs = [run_ber(configs, workers) for workers in (1, 2, 3)]
        assert made == [2, 3]
        for curves in runs[1:]:
            self.assert_same_curves(curves, runs[0])

    def test_task_error_reaches_the_caller(self, monkeypatch):
        # in this process the groups run one after another, so the second
        # group's error ends the call before the third group starts
        calls, error = itertools.count(), ValueError("second task failed")
        real = montecarlo._run_group

        def second_call_fails(*args):
            if next(calls) == 1:
                raise error
            return real(*args)

        monkeypatch.setattr(montecarlo, "_run_group", second_call_fails)
        configs = self.configs()
        with pytest.raises(ValueError) as info:
            run_ber(configs)
        assert info.value is error
        assert len(montecarlo.channel_groups(configs)) == 3 and next(calls) == 2

    def test_task_error_in_a_worker_process_reaches_the_caller(self, monkeypatch):
        # the workers, forked (the default start method on Linux), inherit the
        # patch and send the error back
        def fails(self, *args):
            raise ValueError("block failed")

        monkeypatch.setattr(montecarlo._Engine, "block_errors", fails)
        with pytest.raises(ValueError, match="block failed"):
            run_ber(self.configs(), 2)
        assert multiprocessing.active_children() == []

    def test_one_config_is_a_batch_of_one(self):
        config = self.configs()[0]
        curve = run_ber(config)
        assert isinstance(curve, montecarlo.BerCurve)
        self.assert_same_curves(run_ber([config]), [curve])

    def test_budget_or_snr_grid_splits_a_group(self):
        # campaigns on one law that differ only in budget or SNR grid run
        # blocks of their own, and each gets its curve alone
        base = self.configs()[0]
        configs = [base, dataclasses.replace(base, max_trials=1_200),
                   dataclasses.replace(base, snr_db=(0.0, 8.0)),
                   dataclasses.replace(base, scheme="golden")]
        assert montecarlo.channel_groups(configs) == [[0, 3], [1], [2]]
        self.assert_same_curves(run_ber(configs), [run_ber(c) for c in configs])

    def test_channels_drawn_once_per_block(self, monkeypatch):
        configs = self.configs()
        calls = []
        real = ChannelLaw.rho

        def counting(channel_law, n, rng):
            calls.append((channel_law, n, rng.bit_generator.state["state"]["state"]))
            return real(channel_law, n, rng)

        monkeypatch.setattr(ChannelLaw, "rho", counting)
        curves = run_ber(configs)
        # each group draws block b's rho from [seed, 1, b] once, for every SNR
        # point of every member, up to the last block that any of them ran
        expected = []
        for members in montecarlo.channel_groups(configs):
            c = configs[members[0]]
            blocks = max(-(-t // c.block_trials) for i in members for t in curves[i].trials)
            for b in range(blocks):
                state = np.random.default_rng([c.seed, 1, b]).bit_generator.state
                expected.append((c.law, min(c.block_trials, c.max_trials - b * c.block_trials),
                                 state["state"]["state"]))
        assert sorted(calls, key=repr) == sorted(expected, key=repr)

    def test_points_match_decoding_each_point_alone(self):
        # every point of every campaign, counted by a loop that redraws block
        # [seed, 1, b] and decodes each of its trials at that point alone on
        # R = sqrt(n_r) [[1, rho], [0, sqrt(1 - |rho|^2)]] and r = sqrt(snr) R X
        # + W, with no distance bound and no doubt set carried over from
        # another point
        configs = self.configs()
        for c, curve in zip(configs, run_ber(configs)):
            cb = build_codebook(c.scheme)
            n_r = c.law.link.rx.n
            want = []
            for snr_db in c.snr_db:
                snr = 10.0 ** (snr_db / 10.0)
                trials = errors = 0
                for b, start in enumerate(range(0, c.max_trials, c.block_trials)):
                    if errors >= c.target_errors:
                        break
                    n = min(c.block_trials, c.max_trials - start)
                    rng = np.random.default_rng([c.seed, 1, b])
                    rho = c.law.rho(n, rng)
                    h = np.zeros((n, 2, 2), dtype=complex)
                    h[:, 0, 0] = np.sqrt(n_r)
                    h[:, 0, 1] = np.sqrt(n_r) * rho
                    h[:, 1, 1] = np.sqrt(n_r) * np.sqrt(np.maximum(1.0 - np.abs(rho) ** 2, 0.0))
                    sent = rng.integers(0, cb.size, n)
                    shape = (n, 2, cb.slots)
                    noise = np.sqrt(0.5) * rng.standard_normal(shape)
                    noise = noise + 1j * np.sqrt(0.5) * rng.standard_normal(shape)
                    y = np.sqrt(snr) * np.einsum("nri,nit->nrt", h, cb.codewords[sent]) + noise
                    k, _ = ml_decode(h, y, snr, cb)
                    trials += n
                    errors += bit_errors(cb, sent, k)
                want.append((trials, errors))
            assert list(zip(curve.trials.tolist(), curve.bit_errors.tolist())) == want
        # the budget of 1,700 trials ends in a partial block of 200
        assert configs[0].max_trials % configs[0].block_trials == 200

    @pytest.mark.parametrize("kind", ["ula", "pentagon"])
    def test_fixed_distance_is_a_range_of_one_point(self, kind):
        # a number d is the range (d, d): the laws compare equal, share one
        # channel group and draw the same rho from the same stream, which
        # neither consumes for distances
        link = law(kind, "tetrahedron").link
        fixed, pair = ChannelLaw(link, 7.5), ChannelLaw(link, (7.5, 7.5))
        assert fixed == pair and hash(fixed) == hash(pair) and pair.distance == (7.5, 7.5)
        configs = [SimConfig(scheme=scheme, law=channel_law, snr_db=(0.0,), seed=3)
                   for scheme, channel_law in (("sm", fixed), ("golden", pair))]
        assert montecarlo.channel_groups(configs) == [[0, 1]]
        a, b, rotations = (np.random.default_rng(9) for _ in range(3))
        assert np.array_equal(fixed.rho(1_000, a), pair.rho(1_000, b))
        rotation_normals(rotations, 1_000)
        rotation_normals(rotations, 1_000)
        assert a.bit_generator.state == b.bit_generator.state == rotations.bit_generator.state

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
            {"seed", "block_trials", "snr_db", "max_trials"}

        # synthesis is the law's draw of channels or of rho, and each reads
        # nothing but the law's fields
        class Recorder:
            def __init__(self, channel_law):
                self.law, self.reads = channel_law, set()

            def __getattr__(self, name):
                self.reads.add(name)
                return getattr(self.law, name)

        for channel_law in (base.law, dataclasses.replace(base.law, ideal=True)):
            for synthesis in (ChannelLaw.draw, ChannelLaw.rho):
                recorder = Recorder(channel_law)
                got = synthesis(recorder, 8, np.random.default_rng(0))
                assert np.array_equal(got, synthesis(channel_law, 8, np.random.default_rng(0)))
                assert recorder.reads and recorder.reads <= law_fields, recorder.reads


class TestEngineChannels:
    @pytest.mark.parametrize("rx_kind", ["ula", "ura", "tetrahedron"])
    @pytest.mark.parametrize("tx_kind", ["ula", "triangle", "pentagon"])
    def test_match_scalar_link_pipeline(self, tx_kind, rx_kind):
        # the law draws distance, then transmit and receive rotations; the
        # reference positions and distances (plain NumPy) get the same draws,
        # and a polygon's pair is selected on the whole matrices' columns
        channel_law = law(tx_kind, rx_kind)
        tx, rx = channel_law.link.tx, channel_law.link.rx
        n = 2_000
        h = channel_law.draw(n, np.random.default_rng(17)).transpose(2, 0, 1)
        rng = np.random.default_rng(17)
        r_link = rng.uniform(*channel_law.distance, n)
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        tx_pos, rx_pos = link_positions(tx, rx, u_tx, u_rx, r_link)
        if tx.n > 2:
            pair = select_tx_pair(tx, u_tx.T[tx.axes]).pair
            tx_pos = tx_pos[np.arange(n)[:, None], pair]
        want = los_channel(distances(tx_pos, rx_pos), channel_law.link.wavelength)
        assert np.array_equal(h, want)

    @pytest.mark.parametrize("tx_kind", ["triangle", "pentagon"])
    def test_match_whole_matrix_pipeline_across_pieces(self, tx_kind):
        # 10,000 links in one draw. The law builds only the rotation columns
        # it places and reads the transmit pair off them; the reference draws
        # whole matrices from the same stream and selects the pair on them
        channel_law = law(tx_kind, "tetrahedron")
        tx, rx = channel_law.link.tx, channel_law.link.rx
        n = 10_000
        h = channel_law.draw(n, np.random.default_rng(23))
        rng = np.random.default_rng(23)
        r_link = rng.uniform(*channel_law.distance, n)
        u_tx, u_rx = uniform_rotation(rng, n), uniform_rotation(rng, n)
        selection = select_tx_pair(tx, u_tx.T[tx.axes])
        tx_pos = place(tx, u_tx.T[tx.axes])[:, selection.pair.T, np.arange(n)]
        rx_pos = place(rx, u_rx.T[rx.axes]) + np.multiply.outer(LINK_DIRECTION, r_link)[:, None]
        want = los_channel(link_distances(tx_pos, rx_pos), channel_law.link.wavelength)
        assert np.array_equal(h, want)
        if tx_kind == "pentagon":
            # both spacing classes, whose choice hangs on the last bit of sin(beta)
            assert set(selection.neighbouring) == {True, False}

    @pytest.mark.parametrize("rx_kind", ["ula", "ura", "tetrahedron", "spherical-code", "one"])
    @pytest.mark.parametrize("tx_kind", ["ula", "triangle", "pentagon"])
    def test_link_bits_do_not_depend_on_the_batch(self, tx_kind, rx_kind):
        # every step from quaternions to distances is per link, so no cut of a
        # batch, in BER blocks or density pieces, can move a bit
        channel_law = (law(tx_kind, "ula", 1) if rx_kind == "one"
                       else law(tx_kind, rx_kind, 6 if rx_kind == "spherical-code" else 4))
        rng = np.random.default_rng(29)
        n = 10_000
        q_tx, q_rx = rotation_normals(rng, n), rotation_normals(rng, n)
        r_link = rng.uniform(*channel_law.distance, n)
        whole = montecarlo._link_distances(channel_law.link, q_tx, q_rx, r_link)
        cuts = np.split(np.arange(n), [1, 4_096, 8_193])
        assert np.array_equal(whole, np.concatenate([montecarlo._link_distances(
            channel_law.link, q_tx[i], q_rx[i], r_link[i]) for i in cuts], axis=-1))

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


# the laws joint_density is checked on: the density recipes' 2 x 2 and 2 x 4
# links at a fixed 10 m, a 6-antenna URA (n_r not a power of two) and fig5's
# pentagon x tetrahedron over a distance range
DENSITY_LAWS = {"ula": density_law("ula"), "ura": density_law("ura"),
                "ura6": law("ula", "ura", 6, 10.0, d_t=0.145, d_r=0.145),
                "pentagon": law("pentagon", "tetrahedron")}


def whole_matrix_positions(link, u_tx, u_rx, r_link):
    """Coordinate-major tx (3, n_t, n) and rx (3, n_r, n) positions of links
    along ``LINK_DIRECTION`` from whole rotation matrices (n, 3, 3), each
    rotated by ``np.matmul``; ``r_link`` is a float or (n,)."""
    tx, rx = (np.matmul(u, layout.positions.T).transpose(1, 2, 0)
              for layout, u in ((link.tx, u_tx), (link.rx, u_rx)))
    return tx, rx + (LINK_DIRECTION[:, None] * r_link)[:, None]


@functools.cache
def whole_block_counts(channel_law, samples, seed, bins=25):
    """joint_density's counts from its whole-block loop, before blocks ran in
    threaded pieces: the reference the pieces must match bit for bit. A
    polygon's transmit pair is ``select_tx_pair``'s."""
    link = channel_law.link
    theta_edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)
    mu_edges = np.linspace(0.0, 1.0, bins + 1)
    counts = np.zeros((bins, bins), dtype=np.int64)
    rng = np.random.default_rng([seed])
    for start in range(0, samples, DENSITY_BLOCK):
        n = min(DENSITY_BLOCK, samples - start)
        low, high = channel_law.distance
        r_link = rng.uniform(low, high, n) if low < high else low
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        tx, rx = whole_matrix_positions(link, u_tx, u_rx, r_link)
        if link.tx.n > 2:
            tx = tx[:, select_tx_pair(link.tx, u_tx.T[link.tx.axes]).pair.T, np.arange(n)]
        dist = link_distances(tx, rx)
        diff = np.ascontiguousarray((dist[:, 1] - dist[:, 0]).T)
        inner = np.exp(2j * np.pi * diff / link.wavelength).sum(axis=1)
        mu = np.abs(inner) / link.rx.n
        theta = np.angle(inner) % (2.0 * np.pi)
        hist, _, _ = np.histogram2d(theta, np.clip(mu, 0.0, 1.0), bins=[theta_edges, mu_edges])
        counts += hist.astype(np.int64)
    return counts


def full_matrix_piece(link, r_link, u_tx, u_rx):
    """(theta_mu, mu) of a density piece from whole rotation matrices (n, 3, 3)
    placed by ``np.matmul``: the reference for the pieces, which place each
    array from the rotation columns of its axes alone."""
    dist = link_distances(*whole_matrix_positions(link, u_tx, u_rx, r_link))
    inner = _phasors((dist[:, 1] - dist[:, 0]).T, link.wavelength).sum(axis=1)
    return np.mod(np.angle(inner), 2.0 * np.pi), np.clip(np.abs(inner) / link.rx.n, 0.0, 1.0)


def near_edges(edges):
    """Every edge and the floats one ulp to either side that stay on the grid."""
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    return near[(near >= edges[0]) & (near <= edges[-1])]


class TestBinCounts:
    @pytest.mark.parametrize("bins", [5, 7, 25, 100])
    def test_matches_histogram2d(self, bins):
        # the index binning against NumPy's own: each near-edge theta paired
        # with each near-edge mu, so 0, 2 pi and 1 meet, then a uniform bulk
        theta_edges = np.linspace(0.0, 2.0 * np.pi, bins + 1)
        mu_edges = np.linspace(0.0, 1.0, bins + 1)
        theta, mu = (a.ravel() for a in np.meshgrid(near_edges(theta_edges),
                                                      near_edges(mu_edges), indexing="ij"))
        bulk = np.random.default_rng(bins).uniform(size=(2, 20_000))
        theta = np.concatenate([theta, 2.0 * np.pi * bulk[0]])
        mu = np.concatenate([mu, bulk[1]])
        assert {0.0, 2.0 * np.pi} <= set(theta) and {0.0, 1.0} <= set(mu)
        counts = montecarlo._bin_counts(theta, mu, theta_edges, mu_edges)
        ref, _, _ = np.histogram2d(theta, mu, bins=[theta_edges, mu_edges])
        assert counts.dtype == np.int64 and counts.shape == (bins, bins)
        assert np.array_equal(counts, ref.astype(np.int64))
        assert counts.sum() == len(theta)


class TestJointDensity:
    def _law(self):
        return density_law("ula")

    @pytest.mark.parametrize("threads", [None, 1, 3], ids=["per-cpu", "1-thread", "3-threads"])
    @pytest.mark.parametrize("kind", ["ula", "ura", "pentagon"])
    def test_counts_do_not_depend_on_threads_or_pieces(self, monkeypatch, kind, threads):
        # a block boundary, a partial piece at the end of the first block, and
        # three pieces in the second, the last of one sample
        samples, seed = DENSITY_BLOCK + 2 * DENSITY_PIECE + 1, 11
        if threads is not None:
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: threads)
        grid = joint_density(DENSITY_LAWS[kind], bins=25, samples=samples, seed=seed)
        assert grid.counts.sum() == samples
        assert np.array_equal(grid.counts, whole_block_counts(DENSITY_LAWS[kind], samples, seed))

    @pytest.mark.parametrize("kind", list(DENSITY_LAWS))
    def test_counts_are_the_histogram_of_rho(self, kind):
        # the spec: np.histogram2d of (angle mod 2 pi, clipped |rho|) over
        # successive law.rho blocks of one default_rng([seed]), here a whole
        # block and a last one of two pieces and one sample
        channel_law = DENSITY_LAWS[kind]
        samples, seed, bins = DENSITY_BLOCK + 2 * DENSITY_PIECE + 1, 13, 25
        grid = joint_density(channel_law, bins=bins, samples=samples, seed=seed)
        rng = np.random.default_rng([seed])
        want = np.zeros((bins, bins), dtype=np.int64)
        for n in (DENSITY_BLOCK, samples - DENSITY_BLOCK):
            rho = channel_law.rho(n, rng)
            hist, _, _ = np.histogram2d(np.mod(np.angle(rho), 2.0 * np.pi),
                                        np.clip(np.abs(rho), 0.0, 1.0),
                                        bins=[grid.theta_edges, grid.mu_edges])
            want += hist.astype(np.int64)
        assert np.array_equal(grid.counts, want)

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

    @pytest.mark.parametrize("rx_kind", ["ula", "ura"])
    def test_rho_matches_full_matrix_placement(self, rx_kind):
        # a ULA's positions are exact products either way; a URA's two-term
        # sum may round its last ulp differently from np.matmul's
        link = density_law(rx_kind).link
        rng = np.random.default_rng([12])
        n = 2 * DENSITY_PIECE + 5
        rho = montecarlo._links_rho(link, rotation_normals(rng, n), rotation_normals(rng, n), 10.0)
        theta, mu = np.mod(np.angle(rho), 2.0 * np.pi), np.clip(np.abs(rho), 0.0, 1.0)
        # the same rotations, drawn whole from the same stream
        rng = np.random.default_rng([12])
        ref_theta, ref_mu = full_matrix_piece(link, 10.0, uniform_rotation(rng, n),
                                              uniform_rotation(rng, n))
        if rx_kind == "ula":
            assert np.array_equal(theta, ref_theta) and np.array_equal(mu, ref_mu)
        else:
            # that ulp can move a distance near 10 m by one of its own ulps, and
            # a path difference by two: each phasor turns by at most tol rad
            tol = 2.0 * 2.0 * np.pi * np.spacing(10.5) / link.wavelength
            assert np.abs(mu * np.exp(1j * theta) - ref_mu * np.exp(1j * ref_theta)).max() <= tol
            assert np.abs(mu - ref_mu).max() <= tol
            assert np.mean((theta == ref_theta) & (mu == ref_mu)) > 0.99

    def test_one_antenna_receiver(self):
        # its antenna sits at the centroid and occupies no axis: mu is 1
        link = LinkSpec(0.0042, make_layout("ula", 2, 0.145), make_layout("ula", 1, 0.145))
        grid = joint_density(ChannelLaw(link, 10.0), bins=5, samples=1_000, seed=1)
        rng = np.random.default_rng([1])
        theta, mu = full_matrix_piece(link, 10.0, uniform_rotation(rng, 1_000),
                                      uniform_rotation(rng, 1_000))
        counts, _, _ = np.histogram2d(theta, mu, bins=[grid.theta_edges, grid.mu_edges])
        assert np.array_equal(grid.counts, counts.astype(np.int64))
        assert grid.counts[:, -1].sum() == 1_000

    @pytest.mark.parametrize("bins", [2**31, 10**30], ids=["2^31", "1e30"])
    def test_bins_beyond_intp_rejected(self, bins):
        # bins^2 int64 counts are more bytes than intp holds; the grid bound
        # rejects them before the edges are built, which would ask for bins + 1
        # floats
        message = f"bins must be at most {montecarlo.DENSITY_BINS}, got {bins}"
        for call in (lambda: montecarlo.check_density_inputs(self._law(), bins, 100, 0),
                     lambda: joint_density(self._law(), bins, 100)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_bins_beyond_the_grid_bound_rejected(self, monkeypatch):
        # 10^6 bins passed the intp bound and then asked for a 7.28 TiB array;
        # no array is built before the check
        def no_array(*args, **kwargs):
            raise AssertionError("no array may be built")

        channel_law = self._law()
        assert montecarlo.DENSITY_BINS == 1_000
        montecarlo.check_density_inputs(channel_law, 1_000, 100, 0)
        monkeypatch.setattr(montecarlo.np, "linspace", no_array)
        monkeypatch.setattr(montecarlo.np, "zeros", no_array)
        for bins in (1_001, 10**6):
            with pytest.raises(ValueError, match=f"bins must be at most 1000, got {bins}"):
                joint_density(channel_law, bins, 100)

    def test_samples_beyond_the_run_bound_rejected(self, monkeypatch):
        # 2^62 samples passed the intp bound and would run until killed; no
        # array is built before the check
        def no_array(*args, **kwargs):
            raise AssertionError("no array may be built")

        channel_law = self._law()
        bound = montecarlo.DENSITY_SAMPLES
        assert bound == 10**10
        montecarlo.check_density_inputs(channel_law, 5, bound, 0)
        monkeypatch.setattr(montecarlo.np, "linspace", no_array)
        monkeypatch.setattr(montecarlo.np, "zeros", no_array)
        for samples in (bound + 1, 2**62, 2**63, 10**30):
            with pytest.raises(ValueError, match=f"samples must be at most {bound}, got {samples}"):
                joint_density(channel_law, 5, samples)

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
        # a 3-antenna ULA is no transmit array
        rx = make_layout("ula", 2, 0.145)
        with pytest.raises(ValueError, match="2 antennas, got 3"):
            LinkSpec(0.0042, make_layout("ula", 3, 0.1), rx)

    def test_law_must_be_geometric(self):
        # an ideal law has no links to histogram
        bad = law("ula", "ula", 2, 10.0, ideal=True, d_t=0.145, d_r=0.145)
        for call in (lambda: montecarlo.check_density_inputs(bad, 5, 100, 0),
                     lambda: joint_density(bad, 5, 100)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == "joint density is defined over geometric channels"

    def test_csv_shape(self, tmp_path):
        grid = joint_density(self._law(), bins=5, samples=5_000, seed=6)
        path = tmp_path / "density.csv"
        grid.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta_bin_center,mu_bin_center,density"
        assert len(lines) == 1 + 25

    @pytest.mark.parametrize("rx_kind", ["ula", "ura"])
    def test_matches_scalar_exact_geometry(self, rx_kind):
        # the batched histogram bins exactly what the reference link pipeline
        # (plain NumPy, one link's mu and theta_mu at a time) gives for the
        # same rotations (transmit drawn first, then receive)
        tx = make_layout("ula", 2, 0.145)
        rx = make_layout(rx_kind, 2 if rx_kind == "ula" else 4, 0.145)
        seed, n = 8, 20_000
        grid = joint_density(ChannelLaw(LinkSpec(0.0042, tx, rx), 10.0), bins=25, samples=n,
                             seed=seed)
        rng = np.random.default_rng([seed])
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        theta, mu = np.empty(n), np.empty(n)
        h = los_channel(distances(*link_positions(tx, rx, u_tx, u_rx, np.full(n, 10.0))), 0.0042)
        for i in range(n):
            mu[i], theta[i] = correlation(h[i])
        counts, _, _ = np.histogram2d(theta, mu, bins=[grid.theta_edges, grid.mu_edges])
        assert np.array_equal(grid.counts, counts.astype(np.int64))
