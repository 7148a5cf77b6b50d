import re
import time
import tracemalloc

import numpy as np
import pytest
from reference import distances, elevation, link_positions, path_difference
from scipy.stats import kstest

from losmimo.channel import los_channel
from losmimo.geometry import (
    ANTENNAS_MAX,
    SPACING_MIN,
    LinkSpec,
    link_distances,
    make_layout,
    place,
    rotation_columns,
    uniform_rotation,
)
from losmimo.montecarlo import LINK_DIRECTION

GOLDEN = (1 + np.sqrt(5)) / 2

# lengths a library call must refuse: NaN and +inf pass a bare "<= 0" test
BAD_LENGTHS = [float("nan"), float("inf"), -float("inf"), 0.0, -0.1]


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

    @pytest.mark.parametrize("spacing", BAD_LENGTHS)
    @pytest.mark.parametrize("kind,n", [("ula", 2), ("tetrahedron", None), ("pentagon", None),
                                        ("spherical-code", 4)])
    def test_spacing_must_be_a_finite_length(self, kind, n, spacing):
        with pytest.raises(ValueError, match="spacing must be positive"):
            make_layout(kind, n, spacing)

    @pytest.mark.parametrize("kind,n", [("ula", 2), ("ula", 3), ("ura", 4), ("tetrahedron", None),
                                        ("triangle", None), ("pentagon", None),
                                        ("spherical-code", 8)])
    def test_spacing_floor(self, kind, n):
        # at the floor every antenna keeps its place on the layout's axes; below
        # it a pentagon's underflowed to the centroid and left it no axes
        lay = make_layout(kind, n, SPACING_MIN)
        assert len(np.unique(lay.positions, axis=0)) == lay.n
        assert np.array_equal(lay.axes, make_layout(kind, n, 1.0).axes)
        for spacing in (np.nextafter(SPACING_MIN, 0), 1e-300, 5e-324):
            with pytest.raises(ValueError, match=re.escape(
                    f"spacing must be at least {SPACING_MIN:.4g} m, or the antennas collapse "
                    f"onto the centroid, got {spacing!r}")):
                make_layout(kind, n, spacing)

    @pytest.mark.parametrize("kind,n", [("ula", 2), ("ula", 1_000), ("ura", 4),
                                        ("tetrahedron", None), ("pentagon", None),
                                        ("spherical-code", 8)])
    @pytest.mark.parametrize("spacing", [1e300, 1.7e308])
    def test_spacing_whose_squares_overflow_rejected(self, kind, n, spacing):
        # the radii used to overflow in np.linalg.norm's squares, a
        # RuntimeWarning and an infinite radius
        with pytest.raises(ValueError, match=re.escape(
                f"spacing {spacing!r} m puts antennas so far apart that their squared "
                "distances are beyond a float")):
            make_layout(kind, n, spacing)

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

    @pytest.mark.parametrize("kind", ["ula", "ura", "tetrahedron", "triangle", "pentagon"])
    def test_coords_file_only_for_spherical_code(self, tmp_path, kind):
        # every other kind used to ignore the file and build its own layout
        path = tmp_path / "coords.csv"
        path.write_text("1,0,0\n0,1,0\n0,0,1\n-1,0,0\n")
        with pytest.raises(ValueError, match=f"spherical-code layout, not for kind '{kind}'"):
            make_layout(kind, None if kind in ("triangle", "pentagon") else 4, 0.5,
                        coords_file=path)

    @pytest.mark.parametrize("n", [10**30, 2**64], ids=["1e30", "2^64"])
    @pytest.mark.parametrize("kind", ["ula", "ura", "spherical-code"])
    def test_size_beyond_intp_rejected(self, kind, n):
        # the URA used to raise a TypeError from np.sqrt, the others NumPy's
        # own size error
        with pytest.raises(ValueError, match=f"n must be at most {ANTENNAS_MAX} antennas, "
                                             f"got {n}"):
            make_layout(kind, n, 0.25)

    @pytest.mark.parametrize("kind", ["ula", "ura"])
    def test_antenna_count_bounded_before_any_array(self, kind):
        # a URA of 2^62 antennas used to raise a MemoryError for 16 GiB, and
        # a ULA NumPy's ValueError from np.zeros
        assert make_layout(kind, ANTENNAS_MAX, 0.25).n == ANTENNAS_MAX
        for n in (ANTENNAS_MAX + 1, 2**62):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"n must be at most {ANTENNAS_MAX} "
                                                     f"antennas, got {n}$"):
                    make_layout(kind, n, 0.25)
                assert tracemalloc.get_traced_memory()[1] < 2**16
            finally:
                tracemalloc.stop()


class TestUniformRotation:
    def test_orthogonality_and_determinant(self):
        rng = np.random.default_rng(0)
        us = uniform_rotation(rng, 500)
        assert np.abs(us @ us.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(us) - 1.0).max() <= 1e-12

    def test_seed_determinism(self):
        a = uniform_rotation(np.random.default_rng(123), 50)
        b = uniform_rotation(np.random.default_rng(123), 50)
        assert np.array_equal(a, b)

    def test_bit_identical_to_quaternion_formula(self):
        # the formula uniform_rotation evaluates in pieces, written out once;
        # 10,000 rotations span three pieces, the last one partial
        q = np.random.default_rng(8).standard_normal((10_000, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        ref = np.stack([
            1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
            2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
            2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            axis=1).reshape(-1, 3, 3)
        u = uniform_rotation(np.random.default_rng(8), 10_000)
        # the layout uniform_rotation promises
        assert u.flags.c_contiguous
        assert np.array_equal(u, ref)
        assert np.array_equal(uniform_rotation(np.random.default_rng(8)), ref[0])

    @pytest.mark.parametrize("axes", [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    def test_columns_bit_identical_to_rotations(self, axes):
        # the BER engine and the density pieces place their arrays from these
        # columns alone, and uniform_rotation is all three of them; from
        # unnormalised quaternions
        q = np.random.default_rng(9).standard_normal((8_209, 4))
        cols = rotation_columns(q, axes)
        assert cols.shape == (len(axes), 3, len(q)) and cols.flags.c_contiguous
        u = uniform_rotation(np.random.default_rng(9), len(q))
        for j, col in zip(axes, cols):
            assert np.array_equal(col, u[:, :, j].T)

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
        v = np.array([-np.sin(0.3), 0.0, np.cos(0.3)])
        comp = np.abs((us.transpose(0, 2, 1) @ v)[:, 1])
        stat = kstest(comp, "uniform")
        assert stat.pvalue > 0.01


PLACEMENT_LAYOUTS = {
    "ula": make_layout("ula", 2, 0.145), "ula-1": make_layout("ula", 1, 0.145),
    "ura": make_layout("ura", 4, 0.145), "triangle": make_layout("triangle", spacing=0.06),
    "pentagon": make_layout("pentagon", spacing=0.06),
    "tetrahedron": make_layout("tetrahedron", spacing=0.25),
    "spherical-code": make_layout("spherical-code", 6, 0.145),
}


def one_link(tx_layout, rx_layout, u_tx=np.eye(3), u_rx=np.eye(3), r_link=10.0):
    """Library (3, n_ant) transmit and receive positions of one link along +x."""
    tx = place(tx_layout, u_tx.T[tx_layout.axes, :, None])[:, :, 0]
    rx = place(rx_layout, u_rx.T[rx_layout.axes, :, None])[:, :, 0]
    return tx, rx + r_link * LINK_DIRECTION[:, None]


class TestPlacement:
    TX = make_layout("ula", 2, 0.145)
    RX = make_layout("tetrahedron", spacing=0.25)

    def test_centroid_at_beta_zero(self):
        _, rx = one_link(self.TX, self.RX)
        np.testing.assert_allclose(rx.mean(axis=1), [10, 0, 0], atol=1e-12)

    def test_centroid_rotation_invariant(self):
        rng = np.random.default_rng(3)
        _, rx = one_link(self.TX, self.RX, elevation(0.4), uniform_rotation(rng))
        np.testing.assert_allclose(rx.mean(axis=1), [10, 0, 0], atol=1e-9)

    def test_centroid_on_transmit_axis(self):
        # at elevation pi/2 the transmit ULA lies along the link, and the
        # receive centroid on its axis
        tx, rx = one_link(self.TX, self.RX, elevation(np.pi / 2))
        np.testing.assert_allclose(tx[1:], 0, atol=1e-16)
        np.testing.assert_allclose(np.abs(tx[0]), 0.0725, rtol=1e-15)
        np.testing.assert_allclose(rx.mean(axis=1), [10, 0, 0], atol=1e-9)

    def test_place_matches_einsum_reference(self):
        # einsum sums each coordinate in its own order: equal up to rounding,
        # not bit for bit
        rng = np.random.default_rng(12)
        for lay in (make_layout("pentagon", spacing=0.06), make_layout("tetrahedron", spacing=0.25)):
            u = uniform_rotation(rng, 20_000)
            got = place(lay, u.T[lay.axes])
            ref = np.einsum("nij,mj->imn", u, lay.positions)
            assert got.shape == ref.shape
            assert np.abs(got - ref).max() <= 1e-15 * np.abs(ref).max()

    @pytest.mark.parametrize("tilted", [False, True])
    @pytest.mark.parametrize("kinds", [("ula", "ula"), ("ula", "ura"),
                                       ("pentagon", "tetrahedron"), ("triangle", "ura"),
                                       ("ula", "ula-1"), ("triangle", "spherical-code")])
    def test_bit_identical_to_per_link_reference(self, kinds, tilted):
        # each antenna's coordinate on each axis times that column of its
        # link's rotation, summed in axis order, then the per-link norm; every
        # BER and density CSV hangs on these bits. 10,000 links span three
        # pieces of rotations and distances, the last one partial
        tx_lay, rx_lay = (PLACEMENT_LAYOUTS[k] for k in kinds)
        rng = np.random.default_rng(31)
        n = 10_000
        u_tx, u_rx = uniform_rotation(rng, n), uniform_rotation(rng, n)
        r_link = rng.uniform(4.43, 12.7, n)
        axis = np.array([2.0, -1.0, 3.0]) / np.sqrt(14.0) if tilted else LINK_DIRECTION
        ref_tx, ref_rx = link_positions(tx_lay, rx_lay, u_tx, u_rx, r_link, axis)
        ref = distances(ref_tx, ref_rx)
        tx = place(tx_lay, u_tx.T[tx_lay.axes])
        rx = place(rx_lay, u_rx.T[rx_lay.axes])
        rx += np.multiply.outer(axis, r_link)[:, None]
        assert np.array_equal(tx, ref_tx.transpose(2, 1, 0))
        assert np.array_equal(rx, ref_rx.transpose(2, 1, 0))
        assert np.array_equal(link_distances(tx, rx), ref.transpose(1, 2, 0))

    @pytest.mark.parametrize("kind", sorted(PLACEMENT_LAYOUTS))
    def test_columns_place_as_whole_rotations(self, kind):
        # the engine builds only the columns, uniform_rotation whole matrices:
        # both place an array with the same bits
        lay = PLACEMENT_LAYOUTS[kind]
        q = np.random.default_rng(5).standard_normal((8_209, 4))
        u = uniform_rotation(np.random.default_rng(5), len(q))
        assert np.array_equal(place(lay, u.T[lay.axes]),
                              place(lay, rotation_columns(q, lay.axes)))

    @pytest.mark.parametrize("kind", sorted(PLACEMENT_LAYOUTS))
    def test_bits_do_not_depend_on_the_batch(self, kind):
        # every step is per link, so a batch cut anywhere gives the bits of
        # the whole: uneven slices, one of a single link
        lay = PLACEMENT_LAYOUTS[kind]
        q = np.random.default_rng(6).standard_normal((10_000, 4))
        cuts = np.split(np.arange(len(q)), [1, 4_096, 8_193])
        cols = rotation_columns(q, lay.axes)
        assert np.array_equal(cols, np.concatenate(
            [rotation_columns(q[i], lay.axes) for i in cuts], axis=-1))
        assert np.array_equal(place(lay, cols), np.concatenate(
            [place(lay, cols[..., i]) for i in cuts], axis=-1))

    @pytest.mark.parametrize("n_rx", [4, 16])
    def test_starts_no_blas_threads(self, n_rx):
        # placement runs on the calling thread alone: a BLAS call over all
        # links would start threads, which spin after each call
        tx_lay, rx_lay = make_layout("ula", 2, 0.06), make_layout("ura", n_rx, 0.05)
        rng = np.random.default_rng(2)
        u_tx, u_rx = uniform_rotation(rng, 100_000), uniform_rotation(rng, 100_000)

        def place_both():
            place(tx_lay, u_tx.T[tx_lay.axes])
            place(rx_lay, u_rx.T[rx_lay.axes])

        place_both()
        time.sleep(0.5)   # BLAS threads an earlier test left spinning go idle
        cpu, wall = time.process_time(), time.perf_counter()
        for _ in range(10):
            place_both()
        assert time.process_time() - cpu < 1.3 * (time.perf_counter() - wall)

    @pytest.mark.parametrize("value", BAD_LENGTHS)
    @pytest.mark.parametrize("field,message", [("wavelength", "wavelength must be positive")])
    def test_lengths_must_be_finite(self, field, message, value):
        # the wavelength enters a link's channel through los_channel
        lengths = {"wavelength": 0.0042, field: value}
        tx, rx = one_link(self.TX, self.RX)
        with pytest.raises(ValueError, match=message):
            los_channel(link_distances(tx[:, :, None], rx[:, :, None]), lengths["wavelength"])


class TestLinkSpec:
    RX = make_layout("tetrahedron", spacing=0.25)

    @pytest.mark.parametrize("wavelength", BAD_LENGTHS)
    def test_wavelength_must_be_a_finite_length(self, wavelength):
        with pytest.raises(ValueError, match="wavelength must be positive"):
            LinkSpec(wavelength, make_layout("ula", 2, 0.06), self.RX)

    @pytest.mark.parametrize("kind,n", [("ula", 2), ("triangle", None), ("pentagon", None)])
    def test_transmit_arrays(self, kind, n):
        link = LinkSpec(0.0042, make_layout(kind, n, 0.06), self.RX)
        assert (link.tx.kind, link.tx.spacing, link.rx.n) == (kind, 0.06, 4)

    @pytest.mark.parametrize("kind,n", [("tetrahedron", None), ("ura", 4), ("spherical-code", 2)])
    def test_other_transmit_kinds_rejected(self, kind, n):
        with pytest.raises(ValueError, match=f"unsupported transmit kind '{kind}'"):
            LinkSpec(0.0042, make_layout(kind, n, 0.06), self.RX)

    def test_compares_and_hashes_by_value(self):
        def link(d_r):
            return LinkSpec(0.0042, make_layout("pentagon", spacing=0.06),
                            make_layout("tetrahedron", spacing=d_r))

        assert link(0.25) == link(0.25) and hash(link(0.25)) == hash(link(0.25))
        assert link(0.25) != link(0.26)
        assert make_layout("ula", 4, 0.06) != make_layout("ura", 4, 0.06)

    @pytest.mark.parametrize("n", [1, 3])
    def test_transmit_ula_has_two_antennas(self, n):
        with pytest.raises(ValueError, match=f"a transmit ULA has 2 antennas, got {n}"):
            LinkSpec(0.0042, make_layout("ula", n, 0.06), self.RX)


class TestDistances:
    @staticmethod
    def link(tx, rx):
        """``link_distances`` of one link's (n_t, 3) and (n_r, 3) positions, (n_r, n_t)."""
        return link_distances(np.asarray(tx, float).T[:, :, None],
                              np.asarray(rx, float).T[:, :, None])[:, :, 0]

    def test_pythagorean(self):
        r = self.link(np.zeros((1, 3)), [[3.0, 4.0, 0.0]])
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(5.0)

    def test_symmetric_midpoint_receiver(self):
        tx = make_layout("ula", 2, 0.145).positions
        r = self.link(tx, [[10.0, 0.0, 0.0]])
        expected = np.hypot(10.0, 0.0725)
        np.testing.assert_allclose(r, expected, rtol=1e-15)

    def test_coincident_antennas_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            self.link(np.zeros((1, 3)), np.zeros((1, 3)))


class TestApproxPathDifference:
    """The paper's first-order path difference (``reference.path_difference``)
    against the exact distances of ``place`` and ``link_distances``. The
    transmit ULA is turned to elevation beta (``reference.elevation``), so z
    is the transverse axis and cos(theta_m) is antenna m's z offset over d_m."""

    TX = make_layout("ula", 2, 0.145)

    def exact_and_first_order(self, rx_layout, beta, u_rx, r_link):
        tx, rx = one_link(self.TX, rx_layout, elevation(beta), u_rx, r_link)
        r = link_distances(tx[:, :, None], rx[:, :, None])[:, :, 0]
        cos_theta = (u_rx @ rx_layout.directions.T)[2]
        return r[:, 1] - r[:, 0], path_difference(
            self.TX.spacing, rx_layout.radii, beta, r_link, cos_theta)

    def test_orthogonal_antenna_term_vanishes(self):
        # a receive ULA rotated from the z onto the y axis lies in the plane
        # orthogonal to the transverse axis: theta = pi/2
        onto_y = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        _, approx = self.exact_and_first_order(make_layout("ula", 2, 0.2), 0.3, onto_y, 10.0)
        np.testing.assert_allclose(approx, 0.145 * np.sin(0.3), rtol=0, atol=1e-15)

    def test_aligned_two_antenna_case(self):
        # receiver on the transverse axis at d_r / 2: difference d_t d_r / (2 R)
        d_t, d_r, R = 0.145, 0.145, 10.0
        _, approx = self.exact_and_first_order(make_layout("ula", 2, d_r), 0.0, np.eye(3), R)
        assert approx[0] == pytest.approx(d_t * d_r / (2 * R), rel=1e-12)

    def test_matches_exact_distances(self):
        rng = np.random.default_rng(5)
        rx = make_layout("ura", 4, 0.145)
        for _ in range(20):
            beta = rng.uniform(-0.5, 0.5)
            exact, approx = self.exact_and_first_order(rx, beta, uniform_rotation(rng), 10.0)
            assert np.abs(exact - approx).max() < 1e-5

    def test_error_shrinks_quadratically_with_distance(self):
        rx = make_layout("tetrahedron", spacing=0.25)
        worst = {}
        for R in (10.0, 20.0):
            errs = []
            for k in range(50):
                rng = np.random.default_rng(100 + k)
                beta = rng.uniform(-0.5, 0.5)
                exact, approx = self.exact_and_first_order(rx, beta, uniform_rotation(rng), R)
                errs.append(np.abs(exact - approx).max())
            worst[R] = max(errs)
        assert worst[10.0] / worst[20.0] >= 1.9
