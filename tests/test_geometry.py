import numpy as np
import pytest
from scipy.stats import kstest

from losmimo.geometry import (
    LinkScenario,
    approx_path_difference,
    transverse_axis,
    exact_distances,
    is_rotation,
    make_layout,
    place_antennas,
    place_arrays,
    uniform_rotation,
)

GOLDEN = (1 + np.sqrt(5)) / 2


class TestMakeLayout:
    def test_tetrahedron_radii_and_edges(self):
        lay = make_layout("tetrahedron", spacing=0.25)
        assert lay.n == 4
        np.testing.assert_allclose(lay.radii, np.sqrt(3 / 8) * 0.25, rtol=1e-12)
        pos = lay.positions
        dists = [np.linalg.norm(pos[i] - pos[j]) for i in range(4) for j in range(i + 1, 4)]
        np.testing.assert_allclose(dists, 0.25, rtol=1e-12)

    def test_pentagon_diagonal(self):
        lay = make_layout("pentagon", spacing=0.06)
        assert lay.n == 5
        pos = lay.positions
        dists = sorted(np.linalg.norm(pos[i] - pos[j])
                       for i in range(5) for j in range(i + 1, 5))
        np.testing.assert_allclose(dists[:5], 0.06, rtol=1e-9)
        np.testing.assert_allclose(dists[5:], GOLDEN * 0.06, rtol=1e-9)

    def test_ula_two_antennas(self):
        lay = make_layout("ula", 2, 0.145)
        np.testing.assert_allclose(sorted(lay.positions[:, 2]), [-0.0725, 0.0725])
        assert np.all(lay.positions[:, :2] == 0)

    def test_ula_collinear(self):
        lay = make_layout("ula", 5, 0.1)
        assert np.linalg.matrix_rank(lay.positions, tol=1e-12) == 1

    def test_ura_grid(self):
        lay = make_layout("ura", 6, 0.1)
        # coplanar, 2 x 3 grid
        assert np.all(lay.positions[:, 0] == 0)
        assert lay.n == 6

    def test_ura_prime_size_rejected(self):
        with pytest.raises(ValueError, match="not expressible"):
            make_layout("ura", 5, 0.1)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown layout kind"):
            make_layout("hexagon", 6, 0.1)

    def test_centroid_zero_under_rotation(self):
        rng = np.random.default_rng(11)
        for kind, n in [("tetrahedron", None), ("pentagon", None), ("ura", 4)]:
            lay = make_layout(kind, n, 0.2)
            u = uniform_rotation(rng)
            rotated = lay.positions @ u.T
            assert np.linalg.norm(rotated.mean(axis=0)) < 1e-12

    def test_spherical_code_from_file(self, tmp_path):
        path = tmp_path / "coords.csv"
        dirs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                         for sz in (-1, 1)]) / np.sqrt(3)
        path.write_text("\n".join(",".join(f"{x:.15f}" for x in row) for row in dirs))
        lay = make_layout("spherical-code", 8, 0.5, coords_file=path)
        np.testing.assert_allclose(np.linalg.norm(lay.positions, axis=1), 0.25, atol=1e-9)

    def test_spherical_code_fallback_lattice(self):
        lay = make_layout("spherical-code", 16, 0.5)
        assert lay.n == 16
        # generator output is re-centred, radii stay near the half-diameter
        np.testing.assert_allclose(np.linalg.norm(lay.positions, axis=1), 0.25, atol=1e-3)

    def test_spherical_code_file_errors(self, tmp_path):
        bad_count = tmp_path / "short.csv"
        bad_count.write_text("1,0,0\n0,1,0\n")
        with pytest.raises(ValueError, match="expected 4 rows"):
            make_layout("spherical-code", 4, 0.5, coords_file=bad_count)
        bad_norm = tmp_path / "norm.csv"
        bad_norm.write_text("1,0,0\n0,2,0\n")
        with pytest.raises(ValueError, match="unit vectors"):
            make_layout("spherical-code", 2, 0.5, coords_file=bad_norm)


class TestUniformRotation:
    def test_orthogonality_and_determinant(self):
        rng = np.random.default_rng(0)
        us = uniform_rotation(rng, 500)
        for u in us:
            assert is_rotation(u, tol=1e-12)

    def test_seed_determinism(self):
        a = uniform_rotation(np.random.default_rng(123), 50)
        b = uniform_rotation(np.random.default_rng(123), 50)
        assert np.array_equal(a, b)

    def test_mean_axis_image_is_zero(self):
        rng = np.random.default_rng(7)
        us = uniform_rotation(rng, 200_000)
        imgs = us.transpose(0, 2, 1) @ np.array([0.0, 0.0, 1.0])
        mean = imgs.mean(axis=0)
        # component std is ~1/sqrt(3N)
        assert np.all(np.abs(mean) < 3.0 / np.sqrt(3 * len(imgs)))

    def test_axis_component_uniform(self):
        # |e_y . U^T v| is uniform on [0, 1] for a fixed unit v
        rng = np.random.default_rng(42)
        us = uniform_rotation(rng, 1_000_000)
        v = transverse_axis(0.3)
        comp = np.abs((us.transpose(0, 2, 1) @ v)[:, 1])
        stat = kstest(comp, "uniform")
        assert stat.pvalue > 0.01


class TestPlacement:
    def _scenario(self, beta=0.0, R=10.0, rx_kind="tetrahedron", **kw):
        tx = make_layout("ula", 2, 0.145)
        rx = make_layout(rx_kind, spacing=0.25) if rx_kind == "tetrahedron" \
            else make_layout(rx_kind, 4, 0.25)
        return LinkScenario(R=R, beta=beta, wavelength=0.0042,
                            tx_layout=tx, rx_layout=rx, **kw)

    def test_centroid_at_beta_zero(self):
        _, rx = place_antennas(self._scenario())
        np.testing.assert_allclose(rx.mean(axis=0), [10, 0, 0], atol=1e-12)

    def test_centroid_rotation_invariant(self):
        rng = np.random.default_rng(3)
        sc = self._scenario(beta=0.4, U_rx=uniform_rotation(rng))
        _, rx = place_antennas(sc)
        np.testing.assert_allclose(
            rx.mean(axis=0), 10 * np.array([np.cos(0.4), 0, np.sin(0.4)]), atol=1e-9)

    def test_centroid_on_transmit_axis(self):
        _, rx = place_antennas(self._scenario(beta=np.pi / 2))
        np.testing.assert_allclose(rx.mean(axis=0), [0, 0, 10], atol=1e-9)

    def test_place_arrays_matches_einsum_reference(self):
        # a matrix product, not einsum: equal up to rounding, not bit for bit
        tx_lay = make_layout("pentagon", spacing=0.06)
        rx_lay = make_layout("tetrahedron", spacing=0.25)
        rng = np.random.default_rng(12)
        u_tx, u_rx = uniform_rotation(rng, 20_000), uniform_rotation(rng, 20_000)
        r_link = rng.uniform(4.43, 12.7, 20_000)
        axis = np.array([np.cos(0.3), 0.0, np.sin(0.3)])
        tx, rx = place_arrays(tx_lay, rx_lay, u_tx, u_rx, r_link, axis)
        ref_tx = np.einsum("nij,mj->nmi", u_tx, tx_lay.positions)
        ref_rx = r_link[:, None, None] * axis + np.einsum("nij,mj->nmi", u_rx, rx_lay.positions)
        for got, ref in ((tx, ref_tx), (rx, ref_rx)):
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    def test_near_field_warning(self):
        with pytest.warns(UserWarning, match="array extent"):
            self._scenario(R=0.5)


class TestDistances:
    def test_pythagorean(self):
        r = exact_distances(np.zeros((1, 3)), np.array([[3.0, 4.0, 0.0]]))
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(5.0)

    def test_symmetric_midpoint_receiver(self):
        tx = make_layout("ula", 2, 0.145).positions
        rx = np.array([[10.0, 0.0, 0.0]])
        r = exact_distances(tx, rx)
        expected = np.hypot(10.0, 0.0725)
        np.testing.assert_allclose(r, expected, rtol=1e-15)

    def test_coincident_antennas_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            exact_distances(np.zeros((1, 3)), np.zeros((1, 3)))


class TestApproxPathDifference:
    def _random_scenario(self, rng, R=10.0, rx_kind="ura"):
        tx = make_layout("ula", 2, 0.145)
        rx = make_layout("ura", 4, 0.145) if rx_kind == "ura" \
            else make_layout("tetrahedron", spacing=0.25)
        return LinkScenario(R=R, beta=rng.uniform(-0.5, 0.5), wavelength=0.0042,
                            tx_layout=tx, rx_layout=rx,
                            U_tx=np.eye(3), U_rx=uniform_rotation(rng))

    def test_orthogonal_antenna_term_vanishes(self):
        tx = make_layout("ula", 2, 0.145)
        # receive antenna in the plane orthogonal to the transverse axis: theta = pi/2
        rx = make_layout("custom", coords=np.array([[0, 0.1, 0], [0, -0.1, 0]]))
        sc = LinkScenario(R=10.0, beta=0.3, wavelength=0.0042, tx_layout=tx, rx_layout=rx)
        assert approx_path_difference(sc, 0) == pytest.approx(0.145 * np.sin(0.3), abs=1e-15)

    def test_aligned_two_antenna_case(self):
        # receiver on the transverse axis at d_r / 2: difference d_t d_r / (2 R)
        d_t, d_r, R = 0.145, 0.145, 10.0
        tx = make_layout("ula", 2, d_t)
        rx = make_layout("ula", 2, d_r)
        sc = LinkScenario(R=R, beta=0.0, wavelength=0.0042, tx_layout=tx, rx_layout=rx)
        assert approx_path_difference(sc, 0) == pytest.approx(d_t * d_r / (2 * R), rel=1e-12)

    def test_matches_exact_distances(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            sc = self._random_scenario(rng)
            tx, rx = place_antennas(sc)
            r = exact_distances(tx, rx)
            for m in range(sc.rx_layout.n):
                exact = r[m, 1] - r[m, 0]
                assert abs(exact - approx_path_difference(sc, m)) < 1e-5

    def test_error_shrinks_quadratically_with_distance(self):
        worst = {}
        for R in (10.0, 20.0):
            errs = []
            for k in range(50):
                sc = self._random_scenario(np.random.default_rng(100 + k), R=R,
                                           rx_kind="tetrahedron")
                tx, rx = place_antennas(sc)
                r = exact_distances(tx, rx)
                errs += [abs((r[m, 1] - r[m, 0]) - approx_path_difference(sc, m))
                         for m in range(4)]
            worst[R] = max(errs)
        assert worst[10.0] / worst[20.0] >= 1.9
