import dataclasses

import numpy as np
import pytest
from reference import (
    channel,
    correlation,
    distances,
    elevation,
    law_channels,
    link_positions,
    qr_factor,
)

from losmimo.channel import (
    _phasors,
    closed_form_2x2,
    deviation_factor,
    mu_model,
)
from losmimo.geometry import LinkSpec, make_layout, uniform_rotation
from losmimo.montecarlo import ChannelLaw, _factor


# lengths a library call must refuse: NaN and +inf pass a bare "<= 0" test
BAD_LENGTHS = [float("nan"), float("inf"), -float("inf"), 0.0, -0.1]


def random_unit_modulus(rng, n_r):
    return np.exp(2j * np.pi * rng.random((n_r, 2)))


class TestLosChannel:
    """The LoS channel's entries exp(i 2 pi r / wavelength): the phasors the
    engine builds (``channel._phasors``) and the lengths it takes them of."""

    @pytest.mark.parametrize("wavelength", BAD_LENGTHS)
    def test_wavelength_must_be_a_finite_length(self, wavelength):
        # the engine takes the wavelength of a channel law's link
        link = LinkSpec(0.0042, make_layout("ula", 2, 0.06), make_layout("ura", 4, 0.25))
        with pytest.raises(ValueError, match="wavelength must be positive"):
            ChannelLaw(dataclasses.replace(link, wavelength=wavelength), 10.0)

    def test_full_and_half_wavelength(self):
        lam = 0.0042
        h = _phasors(np.array([[lam, lam / 2]]), lam)
        assert h[0, 0] == pytest.approx(1.0)
        assert h[0, 1] == pytest.approx(-1.0)

    def test_unit_magnitude(self):
        rng = np.random.default_rng(0)
        h = _phasors(rng.uniform(1.0, 20.0, (6, 2)), 0.0042)
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(6, 2), (4, 2, 2501)])
    def test_bits_of_the_complex_formula(self, shape):
        # the phase built in place has the bits of the complex-arithmetic form,
        # the reference channel's
        rng = np.random.default_rng(8)
        r = rng.uniform(1.0, 20.0, shape)
        for lam in (0.0042, 0.0042 / 16, 0.3):
            got, want = _phasors(r, lam), channel(r, lam)
            assert got.shape == shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_design_point_gives_orthogonal_columns(self):
        # aligned 2x2 link at the d = sqrt(R lambda / 2) design point, built
        # from the first-order path differences
        lam, R = 0.0042, 10.0
        d = np.sqrt(R * lam / 2)
        diffs = np.array([d * d / (2 * R), -d * d / (2 * R)])
        h = np.column_stack([np.ones(2), np.exp(2j * np.pi * diffs / lam)])
        assert correlation(h)[0] < 1e-10

    def test_rejects_nonpositive(self):
        # a channel law's distance, a number or a range, is positive, for the
        # ideal channel too
        link = LinkSpec(0.0042, make_layout("ula", 2, 0.06), make_layout("ura", 4, 0.25))
        for distance in (-1.0, 0.0, (-1.0, 10.0), (0.0, 10.0)):
            for ideal in (False, True):
                with pytest.raises(ValueError, match="0 < low <= high < inf"):
                    ChannelLaw(link, distance, ideal)


def factor(h):
    """``montecarlo._factor`` of one unit-modulus channel h (n_r, 2): R from the
    correlation rho = h_0^H h_1 / n_r of its columns."""
    n_r = len(h)
    return _factor(np.array([np.vdot(h[:, 0], h[:, 1]) / n_r]), n_r)[:, :, 0]


class TestReduce:
    """The 2 x 2 factor R of a unit-modulus channel H = QR that the BER engine
    decodes on (``montecarlo._factor``), against the channel itself and
    against ``np.linalg.qr`` (``reference.qr_factor``)."""

    def test_orthogonal_columns(self):
        h = np.array([[1, 1], [1j, -1j], [-1, 1], [-1j, -1j]], dtype=complex)
        assert correlation(h)[0] == pytest.approx(0.0, abs=1e-15)
        assert factor(h)[0, 1] == 0

    def test_rank_one(self):
        rng = np.random.default_rng(1)
        h1 = np.exp(2j * np.pi * rng.random(4))
        phi = 1.234
        h = np.column_stack([h1, np.exp(1j * phi) * h1])
        mu, theta = correlation(h)
        assert mu == pytest.approx(1.0)
        assert theta == pytest.approx(phi)
        r = factor(h)
        assert np.angle(r[0, 1]) == pytest.approx(phi)
        # sqrt(1 - |rho|^2) turns |rho|'s last-bit rounding below 1 into 3e-8
        assert r[1, 1] == pytest.approx(0.0, abs=1e-7)

    def test_gram_matrix_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h = random_unit_modulus(rng, 4)
            r = factor(h)
            np.testing.assert_allclose(r.conj().T @ r, h.conj().T @ h, atol=1e-9)

    def test_q_factor_semi_unitary(self):
        rng = np.random.default_rng(3)
        h = random_unit_modulus(rng, 5)
        r = factor(h)
        q = h @ np.linalg.inv(r)
        np.testing.assert_allclose(q.conj().T @ q, np.eye(2), atol=1e-9)

    def test_structure_for_unit_modulus(self):
        rng = np.random.default_rng(4)
        h = random_unit_modulus(rng, 4)
        r = factor(h)
        mu, _ = correlation(h)
        s = np.sqrt(4)
        assert r[0, 0] == pytest.approx(s)
        assert abs(r[0, 1]) == pytest.approx(s * mu)
        assert r[1, 1] == pytest.approx(s * np.sqrt(1 - mu**2), abs=1e-12)
        assert r[1, 0] == 0

    def test_phase_shift_covariance(self):
        rng = np.random.default_rng(5)
        h = random_unit_modulus(rng, 4)
        base = factor(h)
        phi = 0.77
        shifted = h.copy()
        shifted[:, 1] *= np.exp(1j * phi)
        r = factor(shifted)
        assert abs(r[0, 1]) == pytest.approx(abs(base[0, 1]), abs=1e-12)
        assert np.angle(r[0, 1] / base[0, 1]) == pytest.approx(phi, abs=1e-12)

    @pytest.mark.parametrize("tx_kind,rx_kind", [("ula", "ura"), ("pentagon", "tetrahedron")])
    def test_factor_of_drawn_channels_is_their_qr_factor(self, tx_kind, rx_kind):
        # the fig5 laws; rho and H are two views of the same links
        link = LinkSpec(0.0042, make_layout(tx_kind, 2 if tx_kind == "ula" else None, 0.06),
                        make_layout(rx_kind, 4, 0.25))
        law = ChannelLaw(link, (4.43, 12.7))
        n, n_r, s = 2_000, link.rx.n, np.sqrt(link.rx.n)
        rho = law.rho(n, np.random.default_rng(41))
        h = law_channels(law, n, np.random.default_rng(41)).transpose(2, 0, 1)
        r = _factor(rho, n_r).transpose(2, 0, 1)
        gram = n_r * np.stack([np.ones(n), rho, rho.conj(), np.ones(n)], axis=1).reshape(n, 2, 2)
        np.testing.assert_allclose(r.conj().transpose(0, 2, 1) @ r, gram, atol=1e-9)
        # upper-triangular, with a real non-negative diagonal
        assert np.all(r[:, 1, 0] == 0)
        diagonal = np.diagonal(r, axis1=1, axis2=2)
        assert np.all(diagonal.imag == 0) and np.all(diagonal.real >= 0)
        mu = np.abs(rho)
        np.testing.assert_allclose(np.abs(r[:, 0, 1]), s * mu, rtol=1e-6)
        np.testing.assert_allclose(r[:, 1, 1].real, s * np.sqrt(1 - mu**2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(r, qr_factor(h), atol=1e-9)


class TestDeviationFactor:
    def test_example_values(self):
        assert deviation_factor(10.0, 0.145, 0.145, 0.0, 0.0042) == pytest.approx(0.9988, abs=1e-3)
        assert deviation_factor(4.43, 0.06, 0.25, 0.0, 0.0042) == pytest.approx(0.62, abs=2e-3)

    def test_linear_in_distance(self):
        e1 = deviation_factor(5.0, 0.06, 0.25, 0.2, 0.0042)
        e2 = deviation_factor(10.0, 0.06, 0.25, 0.2, 0.0042)
        assert e2 == pytest.approx(2 * e1)

    def test_grazing_angle_rejected(self):
        with pytest.raises(ValueError):
            deviation_factor(10.0, 0.06, 0.25, np.pi / 2, 0.0042)

    @pytest.mark.parametrize("value", BAD_LENGTHS)
    @pytest.mark.parametrize("arg", range(4), ids=["R", "d_t", "d_r", "wavelength"])
    def test_lengths_must_be_finite(self, arg, value):
        lengths = [10.0, 0.06, 0.25, 0.0042]
        lengths[arg] = value
        r_link, d_t, d_r, wavelength = lengths
        with pytest.raises(ValueError, match="must be positive"):
            deviation_factor(r_link, d_t, d_r, 0.1, wavelength)


    def test_arrays_match_scalar_loop(self):
        rng = np.random.default_rng(8)
        r_link = rng.uniform(4.43, 12.7, 1_000)
        d_t = rng.choice([0.06, 0.06 * (1 + np.sqrt(5)) / 2], 1_000)
        beta = rng.uniform(-np.pi / 10, np.pi / 10, 1_000)
        eta = deviation_factor(r_link, d_t, 0.25, beta, 0.0042)
        loop = [deviation_factor(float(r), float(d), 0.25, float(b), 0.0042)
                for r, d, b in zip(r_link, d_t, beta)]
        assert isinstance(loop[0], float)
        assert eta.tobytes() == np.array(loop).tobytes()

    @pytest.mark.parametrize("value", BAD_LENGTHS)
    @pytest.mark.parametrize("arg", range(4), ids=["R", "d_t", "d_r", "wavelength"])
    def test_one_bad_element_rejected(self, arg, value):
        lengths = [np.full(5, x) for x in (10.0, 0.06, 0.25, 0.0042)]
        lengths[arg][3] = value
        r_link, d_t, d_r, wavelength = lengths
        with pytest.raises(ValueError, match="must be positive"):
            deviation_factor(r_link, d_t, d_r, np.zeros(5), wavelength)

    def test_one_grazing_element_rejected(self):
        with pytest.raises(ValueError, match="cos\\(beta\\) must be positive"):
            deviation_factor(np.full(3, 10.0), 0.06, 0.25, np.array([0.0, np.pi / 2, 0.1]),
                             0.0042)

    @pytest.mark.parametrize("beta", [float("nan"), np.array([0.0, float("nan"), 0.1])],
                             ids=["scalar", "element"])
    def test_nan_angle_rejected(self, beta):
        # a NaN beta used to give a NaN eta
        with pytest.raises(ValueError, match="cos\\(beta\\) must be positive"):
            deviation_factor(10.0, 0.06, 0.25, beta, 0.0042)


class TestMuModel:
    def test_large_eta_limit(self):
        lay = make_layout("tetrahedron", spacing=0.25)
        assert mu_model(lay, np.array([0, 0, 1.0]), eta=1e9) == pytest.approx(1.0)

    def test_matches_closed_form_for_two_antennas(self):
        d_t, d_r, R, lam = 0.145, 0.145, 10.0, 0.0042
        lay = make_layout("ula", 2, d_r)
        for beta in (0.0, 0.01, 0.2):
            v = np.array([0.0, 0.0, 1.0])  # array frame transverse axis, theta_1 = 0
            got = mu_model(lay, v, eta=deviation_factor(R, d_t, d_r, beta, lam))
            want = abs(np.cos(np.pi * d_t * d_r * np.cos(beta) / (R * lam)))
            assert got == pytest.approx(want, abs=1e-12)

    def test_eta_route_matches_physical_route(self):
        # the phase sum written in the physical lengths, against the eta route
        lay = make_layout("tetrahedron", spacing=0.25)
        d_t, R, lam, beta = 0.06, 7.0, 0.0042, 0.15
        rng = np.random.default_rng(6)
        for _ in range(5):
            v = uniform_rotation(rng) @ np.array([0, 0, 1.0])
            phase = (2 * np.pi * d_t * lay.radii * np.cos(beta) / (R * lam)
                     * (lay.directions @ v))
            want = abs(np.exp(1j * phase).sum()) / lay.n
            got = mu_model(lay, v, deviation_factor(R, d_t, lay.spacing, beta, lam))
            assert got == pytest.approx(want, abs=1e-12)

    def test_batched_over_directions_and_eta(self):
        lay = make_layout("pentagon", spacing=0.1)
        rng = np.random.default_rng(7)
        v = np.stack([[uniform_rotation(rng) @ np.array([0, 0, 1.0]) for _ in range(4)]
                      for _ in range(3)])  # (3, 4, 3)
        etas = np.array([0.5, 1.0, 2.5])
        batch = mu_model(lay, v, etas[:, None])
        assert batch.shape == (3, 4)
        for i, eta in enumerate(etas):
            for j in range(4):
                one = mu_model(lay, v[i, j], eta)
                assert isinstance(one, float)
                assert batch[i, j] == pytest.approx(one, abs=1e-15)

    def test_brute_force_sum(self):
        lay = make_layout("tetrahedron", spacing=0.25)
        g = np.sqrt(3 / 8) * (lay.directions[0] - lay.directions[1])
        got = mu_model(lay, g, eta=1.0)
        total = sum(np.exp(1j * np.pi * np.sqrt(3 / 8) * float(lay.directions[m] @ g))
                    for m in range(4))
        assert got == pytest.approx(abs(total) / 4, abs=1e-12)

    def test_rejects_bad_direction(self):
        lay = make_layout("tetrahedron", spacing=0.25)
        # a NaN row has no norm to compare, and must not pass for a unit vector
        for v in ([0, 0, 2.0], [np.nan, 0, 0], [[0, 0, 1.0], [np.nan, 0, 0]]):
            with pytest.raises(ValueError, match="directions must be unit vectors"):
                mu_model(lay, np.array(v), eta=1.0)

    @pytest.mark.parametrize("value", BAD_LENGTHS)
    @pytest.mark.parametrize("arg", ["eta", "d_t", "R", "wavelength"])
    def test_lengths_must_be_finite(self, arg, value):
        # physical lengths reach mu_model through deviation_factor
        lay = make_layout("tetrahedron", spacing=0.25)
        v = np.array([0, 0, 1.0])
        lengths = {"d_t": 0.06, "R": 7.0, "wavelength": 0.0042, arg: value}
        with pytest.raises(ValueError, match="must be positive"):
            if arg == "eta":
                mu_model(lay, v, eta=value)
            else:
                mu_model(lay, v, eta=deviation_factor(lengths["R"], lengths["d_t"], lay.spacing,
                                                      0.0, lengths["wavelength"]))


class TestClosedForm:
    @pytest.mark.parametrize("value", BAD_LENGTHS)
    @pytest.mark.parametrize("arg", range(4), ids=["d_t", "d_r", "R", "wavelength"])
    def test_lengths_must_be_finite(self, arg, value):
        lengths = [0.1, 0.1, 10.0, 0.0042]
        lengths[arg] = value
        with pytest.raises(ValueError, match="lengths must be positive"):
            closed_form_2x2(*lengths, 0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf")])
    def test_angle_must_be_finite(self, beta):
        # a NaN beta used to give (nan, nan)
        with pytest.raises(ValueError, match="beta must be finite"):
            closed_form_2x2(0.1, 0.1, 10.0, 0.0042, beta)

    def test_design_point(self):
        lam, R = 0.0042, 10.0
        d = np.sqrt(R * lam / 2)
        mu, theta = closed_form_2x2(d, d, R, lam, 0.0)
        assert mu == pytest.approx(0.0, abs=1e-12)
        assert theta == pytest.approx(0.0, abs=1e-9)

    def test_beta_sweep_covers_full_cycle(self):
        lam, R = 0.0042, 10.0
        d = np.sqrt(R * lam / 2)
        betas = np.linspace(0.0, 0.029, 400)
        mus, thetas = zip(*(closed_form_2x2(d, d, R, lam, b) for b in betas))
        assert max(mus) == pytest.approx(6.6e-4, rel=0.02)
        gaps = np.diff(np.sort(thetas))
        assert max(gaps) < 0.1

    def test_matches_reduce_of_synthesised_channel(self):
        # agreement holds in the small-beta regime of the design point; at
        # larger beta the exact channel picks up higher-order phase terms
        lam, R, d = 0.0042, 10.0, 0.145
        tx = make_layout("ula", 2, d)
        rx = make_layout("ula", 2, d)
        for beta in (0.0, 0.013, 0.029):
            # the transmit ULA at elevation beta, the receive ULA on the
            # transverse axis z
            tx_pos, rx_pos = link_positions(tx, rx, elevation(beta)[None], np.eye(3)[None],
                                            np.array([R]))
            mu_exact, theta_exact = correlation(channel(distances(tx_pos, rx_pos)[0], lam))
            mu, theta = closed_form_2x2(d, d, R, lam, beta)
            assert mu_exact == pytest.approx(mu, abs=5e-3)
            # phases compared on the circle
            assert abs(np.angle(np.exp(1j * (theta_exact - theta)))) < 0.01


def test_model_matches_exact_distances_far_field():
    # mu from exact distances vs the first-order model, R >= 100 x array radius;
    # the transmit ULA at elevation beta makes z the transverse axis
    rng = np.random.default_rng(8)
    tx = make_layout("ula", 2, 0.06)
    rx = make_layout("tetrahedron", spacing=0.25)
    lam = 0.0042
    for _ in range(25):
        r_link, beta = rng.uniform(16.0, 40.0), rng.uniform(-0.6, 0.6)
        u_rx = uniform_rotation(rng)
        tx_pos, rx_pos = link_positions(tx, rx, elevation(beta)[None], u_rx[None],
                                        np.array([r_link]))
        exact_mu, _ = correlation(channel(distances(tx_pos, rx_pos)[0], lam))
        v = u_rx.T @ np.array([0.0, 0.0, 1.0])
        model_mu = mu_model(rx, v, eta=deviation_factor(r_link, tx.spacing, rx.spacing, beta, lam))
        assert abs(exact_mu - model_mu) < 0.01
