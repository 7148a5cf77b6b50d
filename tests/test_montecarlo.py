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
    SimConfig,
    _Engine,
    _wilson,
    build_codebook,
    joint_density,
    ml_decode,
    run_ber,
)

BASE = dict(distance=(4.43, 12.7))


def make_link(tx_kind, rx_kind, n_r=4, wavelength=0.0042, d_t=0.06, d_r=0.25):
    """The link of the fig5 recipe with the given arrays, as the CLI builds it."""
    return LinkSpec(wavelength, make_layout(tx_kind, 2 if tx_kind == "ula" else None, d_t),
                    make_layout(rx_kind, n_r, d_r))


def ideal_channel(n_r):
    phases = np.exp(2j * np.pi * np.arange(n_r) / n_r)
    return np.column_stack([np.ones(n_r, dtype=complex), phases])


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
            ml_decode(ideal_channel(4), np.zeros((4, 1)), 1.0, cb)

    def test_batch_matches_per_trial(self):
        # one golden block as run_block builds it: engine channels at 8 dB
        engine = _Engine(SimConfig(scheme="golden", link=make_link("pentagon", "tetrahedron"),
                                   snr_db=(8.0,), **BASE))
        cb = engine.codebook
        rng = np.random.default_rng(16)
        n, snr = 2_500, 10 ** 0.8
        h = engine._channels(n, rng)
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
        engine = _Engine(SimConfig(scheme=scheme, link=make_link(tx_kind, rx_kind),
                                   snr_db=(snr_db,), ideal_channel=link == "ideal", **BASE))
        cb = engine.codebook
        rng = np.random.default_rng(23)
        h = (np.broadcast_to(engine.h_ideal, (n, 4, 2)) if link == "ideal"
             else engine._channels(n, rng))
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
        # run_block passes transposed views of n-last memory; C-contiguous
        # n-first copies of the same blocks decode to the same indices and bits
        engine = _Engine(SimConfig(scheme=scheme, link=make_link("pentagon", "tetrahedron"),
                                   snr_db=(8.0,), **BASE))
        cb = engine.codebook
        rng = np.random.default_rng(29)
        n, snr = 2_501, 10 ** 0.8
        h_last = engine._channels(n, rng)
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
        h = ideal_channel(2)
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
            scheme=run["scheme"], link=make_link(run["tx_kind"], run["rx_kind"], cfg["n_r"],
                                                 cfg["wavelength"], cfg["d_t"], cfg["d_r"]),
            distance=(cfg["distance"]["min"], cfg["distance"]["max"]), snr_db=(0, 16, 32),
            max_trials=5_000, target_errors=cfg["target_errors"], seed=1,
            ideal_channel=run.get("ideal_channel", False)))
        assert list(zip(curve.trials.tolist(), curve.bit_errors.tolist())) == \
            self.FIG5_COUNTS[name]

    def test_ideal_mode_matches_analytic(self):
        cfg = SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0, 4, 8),
                        max_trials=60_000, target_errors=10**9, seed=11,
                        ideal_channel=True, **BASE)
        curve = run_ber(cfg)
        p = norm.sf(np.sqrt(2 * 10 ** (np.array(cfg.snr_db) / 10)))
        total = curve.trials * curve.bits_per_trial
        sigma = np.sqrt(total * p * (1 - p))
        assert np.all(np.abs(curve.bit_errors - p * total) <= 3 * sigma)

    def test_seed_reproducibility(self):
        cfg = SimConfig(scheme="sm", link=make_link("pentagon", "tetrahedron"),
                        snr_db=(0, 8), max_trials=10_000, target_errors=100,
                        seed=5, **BASE)
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
            (3, dict(scheme="sm", link=make_link("triangle", "tetrahedron"),
                     snr_db=(0, 8), max_trials=10_000, target_errors=100, seed=6)),
            (2, dict(scheme="sm", link=make_link("pentagon", "tetrahedron"),
                     snr_db=(0, 8, 16), max_trials=6_000, target_errors=100,
                     block_trials=500, seed=14)),
        ]
        for workers, kw in setups:
            serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
            run_ber(SimConfig(**kw, **BASE)).write_csv(serial)
            pool = multiprocessing.Pool(workers)
            try:
                run_ber(SimConfig(**kw, **BASE), pool).write_csv(parallel)
            finally:
                pool.close()
                pool.join()
            assert serial.read_bytes() == parallel.read_bytes()
        rows = [r.split(",") for r in serial.read_text().splitlines()[1:]]
        assert int(rows[0][1]) < 6_000 and int(rows[-1][1]) == 6_000

    def test_interval_contains_ber(self):
        # 15,000 trials of 4 bits: the lower end used to round to ~7e-21 at 32 dB
        cfg = SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0, 32),
                        max_trials=15_000, target_errors=10**9, seed=15,
                        ideal_channel=True, **BASE)
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
        kw = dict(BASE, distance=(0.0001, 0.2))
        with pytest.raises(ValueError, match="array radii"):
            SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,), **kw)
        # 0.03 m (ULA) + 0.25 sqrt(3/8) m (tetrahedron) = 0.183 m
        with pytest.raises(ValueError, match="array radii"):
            SimConfig(scheme="sm", link=make_link("ula", "tetrahedron"), snr_db=(0.0,),
                      **dict(BASE, distance=0.18))
        SimConfig(scheme="sm", link=make_link("ula", "tetrahedron"), snr_db=(0.0,),
                  **dict(BASE, distance=0.19))
        # an ideal channel has no geometry to overlap
        SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,),
                  ideal_channel=True, **kw)

    def test_error_target_stops_early(self):
        cfg = SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,),
                        max_trials=100_000, target_errors=50, block_trials=500,
                        seed=7, **BASE)
        curve = run_ber(cfg)
        assert curve.bit_errors[0] >= 50
        assert curve.trials[0] < 100_000

    def test_monotone_in_snr_within_noise(self):
        cfg = SimConfig(scheme="sm", link=make_link("pentagon", "tetrahedron"),
                        snr_db=(0, 4, 8), max_trials=40_000, target_errors=400,
                        seed=8, **BASE)
        curve = run_ber(cfg)
        inversions = sum(
            1 for i in range(len(curve.ber) - 1)
            if curve.ber[i + 1] > curve.ber[i]
            and curve.ci_low[i + 1] > curve.ci_high[i])
        assert inversions == 0

    def test_simo_independent_of_rx_geometry(self):
        kw = dict(scheme="simo", snr_db=(8.0,), max_trials=30_000,
                  target_errors=10**9, seed=9)
        ura = run_ber(SimConfig(link=make_link("ula", "ura"), **kw, **BASE))
        tet = run_ber(SimConfig(link=make_link("ula", "tetrahedron"), **kw, **BASE))
        assert ura.ci_low[0] <= tet.ci_high[0] and tet.ci_low[0] <= ura.ci_high[0]

    def test_spherical_code_receiver_fallback_lattice(self):
        cfg = SimConfig(scheme="sm", link=make_link("triangle", "spherical-code"),
                        distance=(4.43, 12.7), snr_db=(8.0,), max_trials=10_000,
                        target_errors=10**9, seed=12)
        curve = run_ber(cfg)
        assert 0.0 < curve.ber[0] < 0.1

    def test_sixteen_antenna_spherical_code(self):
        # wider receive arrays flow through the same decode path
        cfg = SimConfig(scheme="sm", link=make_link("triangle", "spherical-code", 16),
                        distance=7.14, snr_db=(0.0,), max_trials=4_000,
                        target_errors=10**9, seed=13)
        curve = run_ber(cfg)
        assert curve.trials[0] == 4_000

    def test_configs_compare_by_value(self):
        # as they did when the link was a set of flat fields
        a, b = (SimConfig(scheme="sm", link=make_link("pentagon", "tetrahedron"),
                          snr_db=(0.0,), **BASE) for _ in range(2))
        assert a == b and hash(a) == hash(b)
        assert a != SimConfig(scheme="sm", link=make_link("pentagon", "tetrahedron", d_r=0.3),
                              snr_db=(0.0,), **BASE)

    def test_unsorted_snr_grid_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            SimConfig(scheme="sm", link=make_link("ula", "ura"),
                      snr_db=(8, 0), **BASE)

    @pytest.mark.parametrize("snr_db", [(float("nan"),), (), (True, "x"), (0.0, float("inf")),
                                        ("0",)],
                             ids=["nan", "empty", "bool-str", "inf", "str"])
    def test_snr_grid_must_be_finite_numbers(self, snr_db):
        # NaN used to run to a CSV row of nan, () to an IndexError and
        # (True, "x") to a TypeError
        with pytest.raises(ValueError, match="non-empty list of finite numbers"):
            SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=snr_db, **BASE)

    @pytest.mark.parametrize("field", ["max_trials", "target_errors", "block_trials"])
    @pytest.mark.parametrize("value", [1000.5, True])
    def test_non_integer_budget_rejected(self, field, value):
        # a float used to build and fail later in run_point with a TypeError
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,),
                      **{field: value}, **BASE)

    @pytest.mark.parametrize("seed", [1.5, -1, True, "7"], ids=["float", "negative", "bool", "str"])
    def test_bad_seed_rejected(self, seed):
        # 1.5 and -1 used to fail in the first block, True and "7" to run
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,), seed=seed, **BASE)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme 'bogus'; expected sm, golden or simo"):
            SimConfig(scheme="bogus", link=make_link("ula", "ura"), snr_db=(0.0,), **BASE)

    @pytest.mark.parametrize("distance", [float("inf"), (1.0, float("inf"))],
                             ids=["fixed", "uniform"])
    def test_distance_must_be_finite(self, distance):
        with pytest.raises(ValueError, match="finite|< inf"):
            SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,), distance=distance)

    def test_csv_format(self, tmp_path):
        cfg = SimConfig(scheme="sm", link=make_link("ula", "ura"), snr_db=(0.0,),
                        max_trials=2_000, target_errors=10**9, seed=10, **BASE)
        path = tmp_path / "curve.csv"
        run_ber(cfg).write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "snr_db,trials,bit_errors,ber,ci_low,ci_high"
        fields = lines[1].split(",")
        assert len(fields) == 6
        assert int(fields[1]) == 2_000


class TestEngineChannels:
    @pytest.mark.parametrize("rx_kind", ["ula", "ura", "tetrahedron"])
    @pytest.mark.parametrize("tx_kind", ["ula", "triangle", "pentagon"])
    def test_match_scalar_link_pipeline(self, tx_kind, rx_kind):
        # the engine draws distance, then transmit and receive rotations; the
        # scalar path gets the same draws one link at a time
        cfg = SimConfig(scheme="sm", link=make_link(tx_kind, rx_kind),
                        snr_db=(0.0,), **BASE)
        tx, rx = cfg.link.tx, cfg.link.rx
        n = 2_000
        h = _Engine(cfg)._channels(n, np.random.default_rng(17))
        rng = np.random.default_rng(17)
        r_link = rng.uniform(*cfg.distance, n)
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        for i in range(n):
            link = LinkScenario(R=r_link[i], beta=0.0, wavelength=cfg.link.wavelength,
                                tx_layout=tx, rx_layout=rx, U_tx=u_tx[i], U_rx=u_rx[i])
            tx_pos, rx_pos = place_antennas(link)
            if tx.n > 2:
                tx_pos = tx_pos[list(select_tx_pair(tx, u_tx[i]).pair)]
            want = los_channel(exact_distances(tx_pos, rx_pos), cfg.link.wavelength)
            assert np.array_equal(h[i], want)

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND in CHANGES.md: _Engine._channels picks the pentagon pair by the "
        "smallest |sin beta| alone and ignores select_tx_pair_for_quality"))
    def test_pentagon_links_meet_the_design_target(self):
        # fig5's distance law lies inside the pentagon design window for
        # mu_max = 2/3, so every simulated link must meet the target
        cfg = SimConfig(scheme="sm", link=make_link("pentagon", "tetrahedron"),
                        snr_db=(0.0,), **BASE)
        h = _Engine(cfg)._channels(5_000, np.random.default_rng(123))
        mu = np.abs(np.einsum("nr,nr->n", np.conj(h[:, :, 0]), h[:, :, 1])) / cfg.link.rx.n
        assert mu.max() <= 2 / 3 + 0.01


def density_link(rx_kind):
    n_r = 2 if rx_kind == "ula" else 4
    return LinkSpec(0.0042, make_layout("ula", 2, 0.145), make_layout(rx_kind, n_r, 0.145))


@functools.cache
def whole_block_counts(rx_kind, samples, seed, bins=25):
    """joint_density's counts from its whole-block loop, before blocks ran in
    threaded pieces: the reference the pieces must match bit for bit."""
    link = density_link(rx_kind)
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
    def _link(self):
        return density_link("ula")

    @pytest.mark.parametrize("threads", [None, 1, 3], ids=["per-cpu", "1-thread", "3-threads"])
    @pytest.mark.parametrize("rx_kind", ["ula", "ura"])
    def test_counts_do_not_depend_on_threads_or_pieces(self, monkeypatch, rx_kind, threads):
        # a block boundary, a partial piece at the end of the first block, and
        # three pieces in the second, the last of one sample
        samples, seed = DENSITY_BLOCK + 2 * DENSITY_PIECE + 1, 11
        if threads is not None:
            monkeypatch.setattr(montecarlo, "_piece_threads", lambda: threads)
        grid = joint_density(density_link(rx_kind), 10.0, bins=25, samples=samples, seed=seed)
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
            joint_density(self._link(), 10.0, bins=5, samples=4 * DENSITY_PIECE, seed=3)
        assert info.value is error
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("bins,samples,field", [
        (25.5, 1_000, "bins"), ((25, 25.5), 1_000, "bins"), ((25,), 1_000, "bins"),
        (25, 1_000.5, "samples")], ids=["bins-float", "bins-pair-float", "bins-single", "samples-float"])
    def test_non_integer_sizes_rejected(self, bins, samples, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            joint_density(self._link(), 10.0, bins, samples)

    @pytest.mark.parametrize("seed", [2.5, -3, True, "7"], ids=["float", "negative", "bool", "str"])
    def test_bad_seed_rejected(self, seed):
        # 2.5 and -3 used to fail in the first block, True and "7" to run
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            joint_density(self._link(), 10.0, 5, 100, seed=seed)

    def test_infinite_distance_rejected(self):
        # it used to return counts that sum to 0
        with pytest.raises(ValueError, match="distance must be finite"):
            joint_density(self._link(), float("inf"), 5, 100)

    def test_counts_sum_to_samples(self):
        grid = joint_density(self._link(), 10.0, bins=5, samples=20_000, seed=1)
        assert grid.counts.sum() == 20_000

    def test_density_integrates_to_one(self):
        grid = joint_density(self._link(), 10.0, bins=8, samples=20_000, seed=2)
        area = np.outer(np.diff(grid.theta_edges), np.diff(grid.mu_edges))
        assert float((grid.density() * area).sum()) == pytest.approx(1.0)

    def test_grid_floor(self):
        with pytest.raises(ValueError, match="5 x 5"):
            joint_density(self._link(), 10.0, bins=4, samples=1_000, seed=4)

    def test_two_antenna_transmitter_required(self):
        # a 3-antenna ULA is no transmit array; a triangle is one, but not here
        rx = make_layout("ula", 2, 0.145)
        with pytest.raises(ValueError, match="2 antennas, got 3"):
            LinkSpec(0.0042, make_layout("ula", 3, 0.1), rx)
        with pytest.raises(ValueError, match="2-antenna"):
            joint_density(LinkSpec(0.0042, make_layout("triangle", spacing=0.1), rx), 10.0,
                          bins=5, samples=100, seed=5)

    def test_csv_shape(self, tmp_path):
        grid = joint_density(self._link(), 10.0, bins=5, samples=5_000, seed=6)
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
        grid = joint_density(LinkSpec(0.0042, tx, rx), 10.0, bins=25, samples=n, seed=seed)
        rng = np.random.default_rng([seed])
        u_tx = uniform_rotation(rng, n)
        u_rx = uniform_rotation(rng, n)
        theta, mu = np.empty(n), np.empty(n)
        for i in range(n):
            link = LinkScenario(R=10.0, beta=0.0, wavelength=0.0042, tx_layout=tx,
                                rx_layout=rx, U_tx=u_tx[i], U_rx=u_rx[i])
            red = reduce_channel(los_channel(exact_distances(*place_antennas(link)),
                                             0.0042))
            theta[i], mu[i] = red.theta_mu, red.mu
        counts, _, _ = np.histogram2d(theta, mu, bins=[grid.theta_edges, grid.mu_edges])
        assert np.array_equal(grid.counts, counts.astype(np.int64))
