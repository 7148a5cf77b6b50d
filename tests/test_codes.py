import numpy as np
import pytest

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
