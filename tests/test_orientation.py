import hashlib
import itertools

import numpy as np
import pytest
from reference import EDGE_CHUNK, correlation, edge_code_region_minima
from scipy.optimize import minimize
from scipy.spatial import cKDTree

from losmimo import orientation
from losmimo.channel import mu_model
from losmimo.geometry import TETRAHEDRON_DIRECTIONS, _fibonacci_sphere, make_layout, uniform_rotation
from losmimo.orientation import (
    PENTAGON_ETA_SCALE,
    compute_mu_star_curve,
    edge_code,
    fundamental_domain,
    icosphere_vertices,
    mu_of_direction,
    mu_star,
    mu_star_bound,
)

SQRT_HALF = np.sqrt(0.5)

# T_h: the 3 cyclic coordinate permutations, each with the 8 sign changes
T_H = [np.diag(signs) @ np.eye(3)[list(perm)]
       for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
       for signs in itertools.product((1.0, -1.0), repeat=3)]


def icosphere_loop(subdivisions):
    """Reference subdivision: one midpoint at a time, numbered on first use."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = [
        [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
        [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
        [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
    ]
    verts = [np.array(v, dtype=float) / np.linalg.norm(v) for v in verts]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(subdivisions):
        cache = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    return np.array(verts)


def nelder_mead_mu_star(eta, candidates=10):
    """Independent reference for mu*(eta): scalar Nelder-Mead in spherical
    angles from each of the best icosphere points."""
    pts = icosphere_vertices()
    mu = mu_of_direction(eta, pts)
    best = float(mu.max())

    def neg_mu(x):
        th, ph = x
        v = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        return -mu_of_direction(eta, v)

    for i in np.argsort(mu)[-candidates:]:
        x0 = [np.arccos(np.clip(pts[i, 2], -1.0, 1.0)), np.arctan2(pts[i, 1], pts[i, 0])]
        res = minimize(neg_mu, x0, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-15, maxiter=1000))
        best = max(best, -float(res.fun))
    return best


def model_tetra_channel(eta, v):
    """4 x 2 unit-modulus channel whose column correlation follows the
    deviation-factor model at transverse direction v."""
    phases = (np.pi / eta) * np.sqrt(3 / 8) * (TETRAHEDRON_DIRECTIONS @ v)
    return np.column_stack([np.ones(4, dtype=complex), np.exp(1j * phases)])


def best_submatrix_mu(h):
    """The least column correlation of the six 2 x 2 row-pair submatrices of
    a 4 x 2 channel."""
    return min(correlation(h[list(pair)])[0] for pair in itertools.combinations(range(4), 2))


class TestEdgeCode:
    def test_twelve_unit_vectors(self):
        g = edge_code()
        assert g.shape == (12, 3)
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-12)

    def test_closed_under_negation(self):
        g = edge_code()
        for v in g:
            assert min(np.linalg.norm(g + v, axis=1)) < 1e-12

    def test_invariant_under_tetrahedral_rotations(self):
        g = edge_code()
        r = TETRAHEDRON_DIRECTIONS
        pinv = np.linalg.pinv(r.T)
        count = 0
        for perm in itertools.permutations(range(4)):
            m = r[list(perm)].T @ pinv
            if abs(np.linalg.det(m) - 1.0) > 1e-9:
                continue  # reflections: the rotation group is A4
            count += 1
            mapped = g @ m.T
            for v in mapped:
                assert min(np.linalg.norm(g - v, axis=1)) < 1e-12
        assert count == 12


class TestMuOfDirection:
    def test_large_eta_limit(self):
        rng = np.random.default_rng(0)
        v = uniform_rotation(rng) @ np.array([0, 0, 1.0])
        assert mu_of_direction(1e12, v) == pytest.approx(1.0)

    def test_matches_channel_model(self):
        lay = make_layout("tetrahedron", spacing=0.25)
        rng = np.random.default_rng(1)
        for eta in (0.5, 1.0, 2.0):
            v = uniform_rotation(rng) @ np.array([0, 0, 1.0])
            assert mu_of_direction(eta, v) == pytest.approx(
                mu_model(lay, v, eta=eta), abs=1e-12)

    def test_rejects_nan_direction(self):
        with pytest.raises(ValueError, match="directions must be unit vectors"):
            mu_of_direction(1.0, np.array([np.nan, 0.0, 0.0]))
        with pytest.raises(ValueError, match="directions must be unit vectors"):
            mu_of_direction(1.0, np.array([[0.0, 0.0, 1.0], [np.nan, 0.0, 0.0]]))

    def test_edge_direction_pair_decorrelates(self):
        # along an edge at eta = 1 the matching submatrix correlation is
        # cos(pi/2) = 0
        g = edge_code()[0]
        h = model_tetra_channel(1.0, g)
        assert best_submatrix_mu(h) == pytest.approx(0.0, abs=1e-12)


class TestIcosphere:
    @pytest.mark.parametrize("subdivisions", range(7))
    def test_matches_midpoint_loop(self, subdivisions):
        pts = icosphere_vertices(subdivisions)
        assert pts.shape == (10 * 4 ** subdivisions + 2, 3)
        assert np.array_equal(pts, icosphere_loop(subdivisions))

    def test_th_maps_grid_onto_itself_and_domain_covers_it(self):
        pts = icosphere_vertices()
        tree = cKDTree(pts)
        cell = fundamental_domain(pts)
        assert len(cell) == 1739
        covered = np.zeros(len(pts), dtype=bool)
        for g in T_H:
            dist, _ = tree.query(pts @ g.T)
            assert dist.max() < 1e-12
            dist, idx = tree.query(cell @ g.T)
            assert dist.max() < 1e-12
            covered[idx] = True
        assert covered.all()

    # the phases, and so their rounding, grow as 1 / eta
    @pytest.mark.parametrize("eta,atol", [(0.107 * PENTAGON_ETA_SCALE, 5e-15),
                                          (0.3, 1e-15), (1.0, 1e-15), (2.9, 1e-15)],
                             ids=["eta-0.066", "eta-0.3", "eta-1", "eta-2.9"])
    def test_mu_invariant_under_th(self, eta, atol):
        pts = icosphere_vertices()
        mu = mu_of_direction(eta, pts)
        for g in T_H:
            np.testing.assert_allclose(mu_of_direction(eta, pts @ g.T), mu, rtol=0, atol=atol)


class TestCellGrid:
    """The solver's grid is built from the faces that reach the T_h cell alone,
    but must be the full sphere's cell points, bit for bit and row for row."""

    @pytest.mark.parametrize("subdivisions", range(7))
    def test_is_the_full_spheres_cell(self, subdivisions):
        cell = orientation._cell_grid(subdivisions)
        full = fundamental_domain(icosphere_vertices(subdivisions))
        assert np.array_equal(cell, full)
        assert not cell.flags.writeable

    def test_default_is_six_subdivisions(self):
        assert np.array_equal(orientation._cell_grid(), orientation._cell_grid(6))
        assert len(orientation._cell_grid()) == 1739

    def test_solver_builds_no_full_sphere(self, monkeypatch):
        def full_sphere(*args, **kwargs):
            raise AssertionError("the solver built the full icosphere")

        expected = compute_mu_star_curve(step=0.05).values, mu_star(1.0)[0]
        monkeypatch.setattr(orientation, "icosphere_vertices", full_sphere)
        orientation._cell_grid.cache_clear()
        curve = compute_mu_star_curve(step=0.05)
        assert np.array_equal(curve.values, expected[0])
        assert mu_star(1.0)[0] == expected[1]


def scan_float64(scales, dots, count=10):
    """The mu* scan before its float32 screen: every point ranked in float64,
    one eta at a time, and its |S|^2."""
    top, s2 = [], []
    for scale in scales:
        arg = scale * dots
        s2.append(np.cos(arg).sum(axis=0) ** 2 + np.sin(arg).sum(axis=0) ** 2)
        top.append(np.argpartition(s2[-1], -count)[-count:])
    return np.array(top), np.array(s2)


def screen_float32(scales, dots):
    """The screen's float32 |S|^2, written out."""
    arg = scales.astype(np.float32)[:, None, None] * dots.astype(np.float32)
    return np.cos(arg).sum(axis=1) ** 2 + np.sin(arg).sum(axis=1) ** 2


class TestScreen:
    """The float32 screen of the mu* scan keeps the float64 scan's candidates."""

    GRIDS = {
        "default": orientation.check_eta_grid(orientation.ETA_START, orientation.ETA_STOP,
                                              orientation.ETA_STEP),
        # the screen's error grows with 1 / eta: down to eta = 0.00494
        "small-eta": orientation.check_eta_grid(0.008, 0.05, 0.001),
        "random": np.random.default_rng(28).uniform(0.005, 4.0, 100),
    }

    @staticmethod
    def scales(etas):
        return (np.pi / etas) * np.sqrt(3.0 / 8.0)

    @pytest.fixture(scope="class")
    def dots(self):
        return TETRAHEDRON_DIRECTIONS @ orientation._cell_grid().T

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_candidates_match_float64_scan(self, dots, grid):
        scales = self.scales(self.GRIDS[grid])
        start = orientation._screen(scales, dots, 10)
        top, s2 = scan_float64(scales, dots)
        for i in range(len(scales)):
            assert set(start[i]) == set(top[i])
        # in ascending order of the float64 |S|^2
        assert np.all(np.diff(np.take_along_axis(s2, start, axis=1), axis=1) >= 0)

    @pytest.mark.parametrize("grid", list(GRIDS))
    def test_error_bound_has_a_margin_of_four(self, dots, grid):
        scales = self.scales(self.GRIDS[grid])
        err = np.abs(screen_float32(scales, dots) - scan_float64(scales, dots)[1]).max(axis=1)
        assert np.all(orientation._screen_error(scales, dots) >= 4.0 * err)

    @pytest.mark.parametrize("eta", [1e-6, 1e-40], ids=["window-holds-all", "screen-overflows"])
    def test_tiny_eta_ranks_every_point(self, dots, eta):
        # 2 eps exceeds the range of |S|^2, or the float32 scale overflows
        # (no warning): every point is ranked in float64
        scales = self.scales(np.array([eta]))
        top, _ = scan_float64(scales, dots)
        assert set(orientation._screen(scales, dots, 10)[0]) == set(top[0])


class TestPinnedCurve:
    """sha256 of the default curve's values and directions, recorded before
    the mu* scan screened in float32. The CSVs hold no directions and print
    the values to 12 digits; the direction kept among equal maxima depends on
    the order of the candidates. A digest that changes is a changed result, to
    be explained in CHANGES.md, not re-recorded."""

    VALUES = "462007cab9593b5274b6f7da19e24aa60e59a05465520ec0a0ed4d58527640a7"
    DIRECTIONS = "fa80617ccd590bb77f1616eb7b1d999b927e774ff91134272292268d19f708f1"

    def test_values_and_directions_are_unchanged(self, curve):
        assert hashlib.sha256(curve.values.tobytes()).hexdigest() == self.VALUES
        assert hashlib.sha256(curve.directions.tobytes()).hexdigest() == self.DIRECTIONS


class TestEtaGrid:
    def test_holds_at_most_eta_points(self):
        # steps about the bound on the default range: the count the check
        # makes before building the grid is the length of the grid it builds
        start, stop = orientation.ETA_START, orientation.ETA_STOP
        lo = start * PENTAGON_ETA_SCALE
        kept = 0
        for step in (stop - lo) / np.linspace(99_997, 100_003, 13):
            n = int(np.ceil((start - lo) / step)) + int(np.floor((stop - start) / step)) + 1
            if n <= orientation.ETA_POINTS:
                assert len(orientation.check_eta_grid(start, stop, step)) == n
                kept += 1
            else:
                with pytest.raises(ValueError, match="more than 100000 etas"):
                    orientation.check_eta_grid(start, stop, step)
        assert 0 < kept < 13

    @pytest.mark.parametrize("step", [5e-324, 1e-300, 1e-12])
    def test_fine_step_rejected_before_any_array(self, step):
        # 5e-324 used to overflow counting its etas; the others need far more
        # memory than a grid of ETA_POINTS
        with pytest.raises(ValueError, match="more than 100000 etas"):
            compute_mu_star_curve(0.3, 3.0, step)


class TestNewtonStep:
    """The closed-form 2 x 2 Newton step against LAPACK's det and solve."""

    @staticmethod
    def hessians(rng, n, kind):
        # symmetric, with eigenvalues set by kind, in a random rotation
        scale = rng.uniform(0.1, 1e3, n)
        low = -scale * rng.uniform(0.1, 1.0, n)
        high = {"concave": -scale * rng.uniform(0.1, 1.0, n),
                "indefinite": scale * rng.uniform(0.1, 1.0, n),
                # det within about 1e-16 .. 1e-8 of the scale squared, either sign
                "singular": scale * rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(-16, -8, n)
                }[kind]
        angle = rng.uniform(0.0, 2.0 * np.pi, n)
        c, s = np.cos(angle), np.sin(angle)
        rot = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        hess = np.einsum("kij,kj,klj->kil", rot, np.stack([low, high], axis=1), rot)
        return 0.5 * (hess + hess.transpose(0, 2, 1))

    @pytest.mark.parametrize("kind", ["concave", "indefinite", "singular"])
    def test_matches_lapack(self, kind):
        rng = np.random.default_rng(["concave", "indefinite", "singular"].index(kind))
        hess = self.hessians(rng, 2_000, kind)
        grad = rng.standard_normal((2_000, 2))
        concave, newton = orientation._newton_step(hess, grad)
        det = np.linalg.det(hess)
        lapack = (hess[:, 0, 0] < 0) & (det > 0)
        # the decisions agree wherever det is clear of rounding
        clear = np.abs(det) > 1e-12 * np.abs(hess).max(axis=(1, 2)) ** 2
        assert clear.any()
        assert np.array_equal(concave[clear], lapack[clear])
        assert {"concave": concave.all(), "indefinite": not concave.any(),
                "singular": (~clear).any() and concave[clear].any()}[kind]
        # the steps agree wherever the Hessian is well conditioned
        both = concave & lapack & (np.abs(det) > 1e-2 * np.abs(hess).max(axis=(1, 2)) ** 2)
        if kind == "concave":
            assert both.all()
        reference = -np.linalg.solve(hess[both], grad[both][..., None])[..., 0]
        np.testing.assert_allclose(newton[both[concave]], reference, rtol=1e-12, atol=0)

    def test_empty_when_no_row_is_concave(self):
        concave, newton = orientation._newton_step(np.eye(2)[None].repeat(3, 0), np.ones((3, 2)))
        assert not concave.any() and newton.shape == (0, 2)


class TestMuStar:
    def test_bound_at_one(self, curve):
        assert curve.value_at(1.0) <= 0.722 + 1e-9

    def test_bound_over_unit_range(self, curve):
        mask = curve.etas >= 1.0
        bounds = np.array([mu_star_bound(e) for e in curve.etas[mask]])
        assert np.all(curve.values[mask] <= bounds + 1e-9)

    def test_two_resolution_bracketing(self):
        coarse_pts = icosphere_vertices(4)
        fine_pts = icosphere_vertices(6)
        for eta in (0.8, 1.0, 1.5):
            coarse = float(np.max(mu_of_direction(eta, coarse_pts)))
            fine = float(np.max(mu_of_direction(eta, fine_pts)))
            # gradient bound: |grad mu| <= pi sqrt(3/8) / eta per radian;
            # subdiv-4 icosphere coverage radius is below 0.04 rad
            slack = (np.pi * np.sqrt(3 / 8) / eta) * 0.04
            assert coarse <= fine <= coarse + slack

    def test_monotone_above_one(self, curve):
        mask = curve.etas >= 1.0
        assert np.all(np.diff(curve.values[mask]) >= -1e-9)

    def test_refinement_beats_grid(self):
        val, v = mu_star(1.0)
        grid_best = float(np.max(mu_of_direction(1.0, icosphere_vertices())))
        assert val >= grid_best - 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-9

    @pytest.mark.parametrize("eta", [0.35, 0.62, 1.0, 2.0, 2.9])
    def test_matches_nelder_mead_reference(self, eta):
        val, v = mu_star(eta)
        assert val == pytest.approx(nelder_mead_mu_star(eta), abs=1e-12)
        assert val >= float(np.max(mu_of_direction(eta, icosphere_vertices())))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert mu_of_direction(eta, v) == pytest.approx(val, abs=1e-15)

    def test_low_eta_reaches_dense_lattice_maximum(self):
        # at such a low eta the objective has many basins of nearly equal
        # height; ten starts that are symmetric copies of one basin miss
        # the global maximum (0.992586 against the lattice's 0.998803)
        eta = 0.107 * PENTAGON_ETA_SCALE
        n, chunk = 1_000_000, 250_000
        lattice = max(float(np.max(mu_of_direction(eta, _fibonacci_sphere(n, s, s + chunk))))
                      for s in range(0, n, chunk))
        assert mu_star(eta)[0] >= lattice - 1e-12

    def test_curve_never_below_grid_maximum(self, curve):
        pts = icosphere_vertices()
        grid = np.array([np.max(mu_of_direction(eta, pts)) for eta in curve.etas])
        assert np.all(curve.values >= grid)

    def test_batched_curve_matches_scalar(self):
        fine = compute_mu_star_curve(step=0.005)
        for eta, val, v in zip(fine.etas, fine.values, fine.directions):
            assert mu_star(eta)[0] == pytest.approx(val, abs=1e-15)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert mu_of_direction(eta, v) == pytest.approx(val, abs=1e-15)

    def test_rejects_nonpositive_eta(self):
        # NaN and infinity used to run the ascent on them (divide-by-zero and
        # invalid-value warnings)
        for eta in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="eta must be positive"):
                mu_star(eta)


class TestMuStarBound:
    def test_reference_value(self):
        assert mu_star_bound(1.0) == pytest.approx(0.7220, abs=5e-5)

    def test_limit(self):
        assert mu_star_bound(1e9) == pytest.approx(1.0)

    def test_monotone(self):
        etas = np.linspace(1.0, 100.0, 500)
        vals = [mu_star_bound(e) for e in etas]
        assert np.all(np.diff(vals) > 0)

    def test_rejects_below_one(self):
        for eta in (0.99, float("nan")):
            with pytest.raises(ValueError, match="eta >= 1 only"):
                mu_star_bound(eta)


class TestMuPentStar:
    def test_never_exceeds_triangle_curve(self, curve):
        etas = curve.etas[curve.export_mask()]
        assert np.all(curve.pent_at(etas) <= curve.value_at(etas) + 1e-12)

    def test_grows_towards_one(self, curve):
        # both branches increase past the valley, so the min heads to 1
        assert curve.pent_at(3.0) > curve.pent_at(1.5) > 0.5
        assert curve.pent_at(3.0) > 0.8

    @pytest.mark.parametrize("eta", [0.1, 3.5, float("nan"), [1.0, float("nan")]],
                             ids=["below", "above", "nan", "nan-in-batch"])
    def test_rejects_eta_off_grid(self, curve, eta):
        for at in (curve.value_at, curve.pent_at):
            with pytest.raises(ValueError, match="eta outside cached grid"):
                at(eta)

    def test_tracks_scaled_branch_when_increasing(self, curve):
        # on the increasing part the smaller-eta branch binds
        eta = 1.5
        scaled = 2 * eta / (1 + np.sqrt(5))
        assert curve.pent_at(eta) == pytest.approx(curve.value_at(scaled), abs=1e-12)


class TestDistortion:
    def test_converges_to_sqrt_half(self):
        # min over v of max_i g_i . v: the least of the region minima
        val = edge_code_region_minima(400_000).min()
        assert SQRT_HALF - 1e-9 <= val <= SQRT_HALF + 2e-3

    def test_edge_directions_are_fixed_points(self):
        g = edge_code()
        for v in g:
            assert np.max(g @ v) == pytest.approx(1.0)

    def test_region_minima_match_per_region_loop(self):
        # the reference scan that criterion 2 reads, against a plain loop over
        # the regions; 1.1M samples: two full pieces of the scan and a partial one
        samples, chunk = 1_100_000, EDGE_CHUNK
        g = edge_code()
        expected = np.full(12, np.inf)
        for s in range(0, samples, chunk):
            dots = _fibonacci_sphere(samples, s, min(s + chunk, samples)) @ g.T
            region = np.argmax(dots, axis=1)
            best = np.max(dots, axis=1)
            for i in range(12):
                if np.any(region == i):
                    expected[i] = min(expected[i], best[region == i].min())
        assert np.array_equal(edge_code_region_minima(samples), expected)

    def test_region_minima_congruent(self):
        minima = edge_code_region_minima(2_000_000)
        assert np.all(np.isfinite(minima))
        assert minima.max() - minima.min() < 2e-3
        np.testing.assert_allclose(minima, SQRT_HALF, atol=2e-3)


class TestBestSubmatrix:
    def test_bound_over_random_rotations(self):
        rng = np.random.default_rng(2)
        cap = np.cos(np.pi / (2 * np.sqrt(2)))
        for _ in range(2000):
            v = uniform_rotation(rng) @ np.array([0, 0, 1.0])
            assert best_submatrix_mu(model_tetra_channel(1.0, v)) <= cap + 1e-9

    def test_formula_matches_reduction(self):
        rng = np.random.default_rng(3)
        g = edge_code()
        pairs = [(m, l) for m in range(4) for l in range(4) if m != l]
        for _ in range(50):
            v = uniform_rotation(rng) @ np.array([0, 0, 1.0])
            eta = rng.uniform(0.5, 2.5)
            h = model_tetra_channel(eta, v)
            for idx, (m, l) in enumerate(pairs):
                direct, _ = correlation(h[[m, l], :])
                formula = abs(np.cos((np.pi / (2 * eta)) * float(g[idx] @ v)))
                assert direct == pytest.approx(formula, abs=1e-9)

    def test_full_mu_bounded_by_submatrix(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            v = uniform_rotation(rng) @ np.array([0, 0, 1.0])
            eta = rng.uniform(0.8, 3.0)
            h = model_tetra_channel(eta, v)
            mu, _ = correlation(h)
            assert mu <= 0.5 * best_submatrix_mu(h) + 0.5 + 1e-9


def test_curve_csv_export(tmp_path, curve):
    path = tmp_path / "curve.csv"
    curve.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "eta,mu_star,mu_star_pent,upper_bound"
    data = [r.split(",") for r in rows[1:]]
    assert float(data[0][0]) == pytest.approx(0.3)
    # bound column present exactly for eta >= 1, and dominates mu_star
    for r in data:
        eta, v = float(r[0]), float(r[1])
        if eta >= 1.0:
            assert r[3] and float(r[3]) >= v - 1e-9
        else:
            assert r[3] == ""
