import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import losmimo

from losmimo.codes import (
    SCHEMES,
    build_codebook,
    difference_spectrum,
    golden_codebook,
    gray_qam,
    sm_codebook,
    simo_codebook,
)


@pytest.fixture(scope="module")
def qam4():
    return gray_qam(4, 0.5)


@pytest.fixture(scope="module")
def sm():
    return sm_codebook()


@pytest.fixture(scope="module")
def golden():
    return golden_codebook()


@pytest.fixture(scope="module")
def simo():
    return simo_codebook()


class TestGrayQam:
    def test_4qam_points(self, qam4):
        expected = {0.5 + 0.5j, 0.5 - 0.5j, -0.5 + 0.5j, -0.5 - 0.5j}
        assert set(np.round(qam4.points, 12)) == expected
        assert np.mean(np.abs(qam4.points) ** 2) == pytest.approx(0.5)

    def test_16qam_min_distance(self):
        c = gray_qam(16, 1.0)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0)
        d2 = np.abs(c.points[:, None] - c.points[None, :]) ** 2
        assert d2[d2 > 1e-12].min() == pytest.approx(0.4)

    @pytest.mark.parametrize("m", [4, 16])
    def test_gray_neighbours_differ_in_one_bit(self, m):
        c = gray_qam(m, 1.0)
        pts = c.points
        gaps = np.abs(pts[:, None] - pts[None, :])
        step = gaps[gaps > 1e-12].min()
        for a in range(m):
            for b in range(a + 1, m):
                if abs(gaps[a, b] - step) < 1e-12:
                    assert bin(a ^ b).count("1") == 1

    def test_unsupported_order(self):
        with pytest.raises(ValueError, match="unsupported QAM order"):
            gray_qam(8, 1.0)

    @pytest.mark.parametrize("energy", [0.0, -1.0, float("nan")])
    def test_energy_must_be_positive(self, energy):
        # a NaN energy used to build NaN points
        with pytest.raises(ValueError, match="avg_energy must be positive"):
            gray_qam(4, energy)


class TestSmCodebook:
    def test_size_and_rate(self, sm):
        assert sm.size == 16
        assert sm.slots == 1
        assert sm.bits_per_codeword == 4

    def test_all_zero_bits(self, sm, qam4):
        # the all-zero label is codeword 0: 4-QAM point 0 on both antennas
        assert not sm.bits[0].any()
        np.testing.assert_allclose(sm.codewords[0][:, 0], [qam4.points[0], qam4.points[0]])

    def test_power_equality(self, sm):
        assert np.sum(np.abs(sm.codewords) ** 2) == pytest.approx(16.0, abs=1e-9)


class TestGoldenCodebook:
    def test_size_and_rate(self, golden):
        assert golden.size == 256
        assert golden.slots == 2
        # 4 bits per channel use
        assert golden.bits_per_codeword / golden.slots == 4

    def test_power_equality(self, golden):
        assert np.sum(np.abs(golden.codewords) ** 2) == pytest.approx(512.0, abs=1e-9)

    def test_full_diversity(self, golden):
        cw = golden.codewords
        d = (cw[:, None] - cw[None, :]).reshape(-1, 2, 2)
        nz = np.abs(d).sum(axis=(1, 2)) > 1e-12
        dets = np.abs(d[nz, 0, 0] * d[nz, 1, 1] - d[nz, 0, 1] * d[nz, 1, 0])
        assert dets.min() > 0.4  # 1/sqrt(5) up to rounding

    def test_equal_symbols_give_zero_difference(self, golden):
        assert np.allclose(golden.codewords[7] - golden.codewords[7], 0.0)


class TestSimoCodebook:
    def test_structure(self, simo):
        assert simo.size == 16
        assert simo.slots == 1
        assert np.all(simo.codewords[:, 1, :] == 0)
        assert np.sum(np.abs(simo.codewords) ** 2) == pytest.approx(16.0)

    def test_min_d_constant_in_mu(self, simo):
        spec = difference_spectrum(simo)
        assert np.all(spec.triples[:, 1] == 0)
        for mu in (0.0, 0.3, 1.0):
            d = spec.triples[:, 0] + spec.triples[:, 1] - 2 * mu * spec.triples[:, 2]
            assert d.min() == pytest.approx(0.4)


class TestDifferenceSpectrum:
    def test_sm_contains_equal_row_triple(self, sm):
        spec = difference_spectrum(sm)
        assert any(np.allclose(t, [1.0, 1.0, 1.0]) for t in spec.triples)

    def test_sm_rank_deficient_at_mu_one(self, sm):
        spec = difference_spectrum(sm)
        d1 = spec.triples[:, 0] + spec.triples[:, 1] - 2 * spec.triples[:, 2]
        assert d1.min() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["sm", "golden", "simo"])
    def test_rows_and_order_of_np_unique(self, scheme):
        cw = build_codebook(scheme).codewords
        d = (cw[:, None] - cw[None, :]).reshape(-1, 2, cw.shape[2])
        d = d[np.abs(d).sum(axis=(1, 2)) > 1e-12]
        a, b = (np.sum(np.abs(d[:, k]) ** 2, axis=1) for k in (0, 1))
        c = np.abs(np.sum(np.conj(d[:, 0]) * d[:, 1], axis=1))
        ref = np.unique(np.round(np.column_stack([a, b, c]), 9), axis=0)
        assert np.array_equal(difference_spectrum(build_codebook(scheme)).triples, ref)

    def test_gain_imports_no_numpy_ma(self, tmp_path):
        # np.unique(axis=0) imports numpy.ma, about 15 ms, on its first call
        # in a process; the gain subcommand needs no masked array
        code = f"""if True:
            import sys
            from losmimo.cli import main
            assert "numpy.ma" not in sys.modules
            assert main(["gain", "all", "--mu-step", "0.25", "--out", {str(tmp_path)!r}]) == 0
            print("numpy.ma" in sys.modules)
        """
        src = str(Path(losmimo.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=60)
        assert out.stdout.split()[-1] == "False"

    def test_cauchy_schwarz(self, sm, golden, simo):
        for cb in (sm, golden, simo):
            t = difference_spectrum(cb).triples
            assert np.all(t[:, 2] <= np.sqrt(t[:, 0] * t[:, 1]) + 1e-9)

    def test_golden_matches_pairwise_brute_force(self, golden):
        spec = difference_spectrum(golden)
        cw = golden.codewords
        seen = set()
        min_d0 = min_d1 = np.inf
        for a in range(len(cw)):
            for b in range(a + 1, len(cw)):
                dx = cw[a] - cw[b]
                na = float(np.sum(np.abs(dx[0]) ** 2))
                nb = float(np.sum(np.abs(dx[1]) ** 2))
                cr = float(abs(np.vdot(dx[0], dx[1])))
                seen.add((round(na, 9), round(nb, 9), round(cr, 9)))
                min_d0 = min(min_d0, na + nb)
                min_d1 = min(min_d1, na + nb - 2 * cr)
        assert len(seen) == spec.size
        t = spec.triples
        assert (t[:, 0] + t[:, 1]).min() == pytest.approx(min_d0)
        assert (t[:, 0] + t[:, 1] - 2 * t[:, 2]).min() == pytest.approx(min_d1)


def test_bit_label_bijection(sm, golden, simo):
    # codeword k carries k's binary expansion, MSB first: the labels that
    # block_errors counts bit errors with
    for cb in (sm, golden, simo):
        n_bits = cb.bits_per_codeword
        assert cb.size == 2 ** n_bits
        for k in range(cb.size):
            assert cb.bits[k].tolist() == [int(b) for b in format(k, f"0{n_bits}b")]


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_min_sq_distance_matches_full_difference_table(scheme):
    cb = build_codebook(scheme)
    cw = cb.codewords
    d2 = (np.abs(cw[:, None] - cw[None]) ** 2).sum(axis=(2, 3))
    np.fill_diagonal(d2, np.inf)
    assert cb.min_sq_distance == pytest.approx(d2.min(), rel=1e-12)


@pytest.mark.parametrize("scheme", list(SCHEMES))
def test_built_once_and_read_only(scheme):
    # every campaign, engine and curve shares one codebook per scheme
    cb = build_codebook(scheme)
    assert build_codebook(scheme) is cb
    for array in (cb.codewords, cb.bits):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_min_sq_distance_bits_pinned():
    # the least a of the difference terms: the bits of the chunked minimum
    # over the difference table that the terms replaced
    assert {s: build_codebook(s).min_sq_distance.hex() for s in SCHEMES} == {
        "sm": "0x1.0000000000000p+0", "golden": "0x1.ffffffffffffep-1",
        "simo": "0x1.9999999999997p-2"}


@pytest.mark.parametrize("scheme, terms", [("sm", 13), ("golden", 81), ("simo", 1)])
def test_difference_terms_cover_every_difference(scheme, terms):
    # every nonzero difference of the full K^2 table has its c within
    # sqrt(2) 0.5e-9 of one term's c, and each term's a is the least a of the
    # differences that round to it
    cb = build_codebook(scheme)
    a, c = cb.difference_terms
    assert len(a) == len(c) == terms
    assert not a.flags.writeable and not c.flags.writeable
    j, k = np.nonzero(~np.eye(cb.size, dtype=bool))
    d = cb.codewords[j] - cb.codewords[k]
    da = (d.real ** 2 + d.imag ** 2).sum(axis=(1, 2))
    dc = (np.conj(d[:, 0]) * d[:, 1]).sum(axis=-1)
    index = {complex(x): i for i, x in enumerate(c)}
    which = np.array([index[complex(x)] for x in np.round(dc, 9)])
    assert np.abs(dc - c[which]).max() <= np.sqrt(2.0) * 0.5e-9
    least = np.full(terms, np.inf)
    np.minimum.at(least, which, da)
    np.testing.assert_allclose(a, least, rtol=1e-14, atol=0)
    assert cb.min_sq_distance == a.min()


def test_difference_terms_are_built_on_first_use():
    # importing the CLI and building a codebook reduce no difference table
    code = """if True:
        import losmimo.cli
        from losmimo.codes import build_codebook
        cb = build_codebook("golden")
        print("difference_terms" in vars(cb), "min_sq_distance" in vars(cb))
    """
    src = str(Path(losmimo.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "False"]
