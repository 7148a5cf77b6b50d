import importlib.resources
import json
import re

import numpy as np
import pytest

from losmimo.channel import deviation_factor, mu_model
from losmimo.design import (
    DesignSpec,
    InfeasibleDesignError,
    PairSelection,
    _bisect_crossing,
    design_link,
    distance_range,
    eta_range,
    select_tx_pair,
    select_tx_pair_for_quality,
)
from losmimo.geometry import (
    LINK_DIRECTION,
    LinkSpec,
    make_layout,
    rotation_columns,
    rotation_normals,
    uniform_rotation,
)
from losmimo.orientation import PENTAGON_ETA_SCALE, MuStarCurve, mu_star

GOLDEN = (1 + np.sqrt(5)) / 2


def columns(tx_layout, u):
    """The columns on ``tx_layout.axes`` of (n, 3, 3) rotations ``u``, as the
    pair rules take them."""
    return u.T[tx_layout.axes]


def spec_for(kind, mu_max=2 / 3, rx=None):
    rx = make_layout("tetrahedron", spacing=0.25) if rx is None else rx
    return DesignSpec(mu_max=mu_max, link=LinkSpec(0.0042, make_layout(kind, spacing=0.06), rx))


def eta_range_loop(spec, curve):
    """eta_range with the feasible runs found by a state machine over the mask;
    None where no grid point is feasible."""
    etas = curve.etas[curve.export_mask()]
    curve_at = curve.pent_at if spec.link.tx.kind == "pentagon" else curve.value_at
    feasible = np.asarray(curve_at(etas)) <= spec.mu_max
    runs, start = [], None
    for i, ok in enumerate(feasible):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(feasible) - 1))
    if not runs:
        return None
    i0, i1 = max(runs, key=lambda r: etas[r[1]] - etas[r[0]])
    lo, hi = float(etas[i0]), float(etas[i1])
    if i0 > 0:
        lo = _bisect_crossing(curve_at, float(etas[i0 - 1]), lo, spec.mu_max, rising=False)
    if i1 < len(etas) - 1:
        hi = _bisect_crossing(curve_at, hi, float(etas[i1 + 1]), spec.mu_max, rising=True)
    return lo, hi


def parent_select_tx_pair(tx_layout, u_tx, u, restrict=None):
    """select_tx_pair as it was before it lost its link direction ``u`` and its
    ``restrict`` option: two selection passes over (pairs, n, 3) rotated
    baselines, the reference the one-table selection must match."""
    if tx_layout.n < 3:
        raise ValueError("pair selection needs at least 3 transmit antennas")
    u = np.asarray(u, dtype=float)
    pairs = np.array([(m, n) for m in range(tx_layout.n) for n in range(m + 1, tx_layout.n)])
    pos = tx_layout.positions
    baselines = pos[pairs[:, 0]] - pos[pairs[:, 1]]
    lengths = np.linalg.norm(baselines, axis=1)
    if restrict is not None:
        keep = np.isclose(lengths, tx_layout.spacing, rtol=1e-9)
        if restrict == "non-neighbouring":
            keep = ~keep
        pairs, baselines, lengths = pairs[keep], baselines[keep], lengths[keep]
    u_tx = np.asarray(u_tx, dtype=float)
    cols = u_tx.reshape(-1, 3, 3).transpose(2, 0, 1).copy()
    t = [cols[j] * baselines[:, j, None, None] for j in range(3)]
    rotated = ((t[0] + t[2]) + t[1]).transpose(1, 0, 2)
    sin_beta = (rotated / lengths[:, None]) @ u
    best = np.argmin(np.abs(sin_beta), axis=1)
    beta = np.arcsin(np.clip(sin_beta[np.arange(len(best)), best], -1, 1))
    spacing = lengths[best]
    neighbouring = None
    if tx_layout.kind == "pentagon":
        neighbouring = np.abs(spacing - tx_layout.spacing) < 1e-9 * tx_layout.spacing
    return PairSelection(pair=tuple(int(i) for i in pairs[best[0]]), beta=float(beta[0]),
                         spacing=float(spacing[0]),
                         neighbouring=None if neighbouring is None else bool(neighbouring[0]))


def parent_quality_rule(tx_layout, u_tx, u, r_link, d_r, wavelength, mu_max, curve):
    """The scalar quality rule before it became a batch: the plain selection,
    then a second, restricted one when the first pair misses the target."""
    choice = parent_select_tx_pair(tx_layout, u_tx, u)
    if tx_layout.kind != "pentagon":
        return choice
    eta = deviation_factor(r_link, choice.spacing, d_r, choice.beta, wavelength)
    if curve.value_at(min(max(eta, curve.etas[0]), curve.etas[-1])) <= mu_max:
        return choice
    other = "non-neighbouring" if choice.neighbouring else "neighbouring"
    return parent_select_tx_pair(tx_layout, u_tx, u, restrict=other)


class TestSelectTxPair:
    def test_perpendicular_link_breaks_ties_low(self):
        # polygons lie in the y-z plane, so the x axis is normal to them
        lay = make_layout("triangle", spacing=0.06)
        sel = select_tx_pair(lay, columns(lay, np.eye(3)[None]))
        assert sel.pair.tolist() == [[0, 1]]
        assert sel.beta[0] == pytest.approx(0.0, abs=1e-15)

    def test_triangle_cap(self):
        lay = make_layout("triangle", spacing=0.06)
        rng = np.random.default_rng(0)
        sel = select_tx_pair(lay, columns(lay, uniform_rotation(rng, 20_000)))
        assert np.all(np.abs(np.sin(sel.beta)) <= np.sin(np.pi / 6) + 1e-12)

    def test_pentagon_cap_and_classes(self):
        lay = make_layout("pentagon", spacing=0.06)
        rng = np.random.default_rng(1)
        sel = select_tx_pair(lay, columns(lay, uniform_rotation(rng, 20_000)))
        assert np.all(np.abs(np.sin(sel.beta)) <= np.sin(np.pi / 10) + 1e-12)
        assert set(sel.neighbouring) == {True, False}
        np.testing.assert_allclose(sel.spacing, np.where(sel.neighbouring, 0.06, GOLDEN * 0.06))

    def test_restricted_classes(self, curve):
        # no pair meets mu_max = 0.01, so every link moves to the best pair of
        # the other spacing class, which still caps |beta| at pi/10
        spec = spec_for("pentagon", mu_max=0.01)
        rng = np.random.default_rng(2)
        cols = columns(spec.link.tx, uniform_rotation(rng, 2_000))
        plain = select_tx_pair(spec.link.tx, cols)
        sel = select_tx_pair_for_quality(spec, cols, rng.uniform(4.43, 12.7, 2_000), curve)
        assert np.array_equal(sel.neighbouring, ~plain.neighbouring)
        assert np.all(np.abs(np.sin(sel.beta)) <= np.sin(np.pi / 10) + 1e-12)
        want = np.where(sel.neighbouring, 0.06, GOLDEN * 0.06)
        np.testing.assert_allclose(sel.spacing, want, rtol=1e-12)

    @pytest.mark.parametrize("kind,mu_max", [
        ("triangle", None), ("pentagon", None),
        pytest.param("triangle", 2 / 3, id="triangle-quality"),
        pytest.param("pentagon", 2 / 3, id="pentagon-quality")])
    def test_selection_does_not_depend_on_the_batch(self, kind, mu_max, curve):
        # without mu_max the plain selection; with it the quality rule. The
        # cuts are those of the engine's link test: one link, an uneven
        # middle and the rest
        lay = make_layout(kind, spacing=0.06)
        rng = np.random.default_rng(4)
        n = 10_000
        cols = rotation_columns(rotation_normals(rng, n), lay.axes)
        r_link = rng.uniform(4.43, 12.7, n)
        if mu_max is None:
            def select(i):
                return select_tx_pair(lay, cols[:, :, i])
        else:
            spec = spec_for(kind, mu_max)

            def select(i):
                return select_tx_pair_for_quality(spec, cols[:, :, i], r_link[i], curve)
        whole = select(np.arange(n))
        cut = [select(i) for i in np.split(np.arange(n), [1, 4_096, 8_193])]
        assert whole.pair.shape == (n, 2)
        for field in ("pair", "beta", "spacing", "neighbouring"):
            got = [getattr(piece, field) for piece in cut]
            if getattr(whole, field) is None:
                assert got == [None] * len(cut)
            else:
                assert np.concatenate(got).tobytes() == getattr(whole, field).tobytes()
        if kind == "triangle":
            plain = select_tx_pair(lay, cols)
            assert np.array_equal(whole.pair, plain.pair)
            assert np.array_equal(whole.beta, plain.beta)

    @pytest.mark.parametrize("kind,n", [("triangle", None), ("pentagon", None),
                                        ("spherical-code", 4)],
                             ids=["triangle", "pentagon", "spherical-code"])
    def test_bit_identical_to_einsum_reference(self, kind, n):
        # the pentagon's spacing class hangs on the last bit of sin(beta); a
        # non-planar spherical code also pins the order of the three terms of
        # each product
        lay = make_layout(kind, n, 0.06)
        u_tx = uniform_rotation(np.random.default_rng(9), 200_000)
        pairs = np.array([(m, n) for m in range(lay.n) for n in range(m + 1, lay.n)])
        baselines = lay.positions[pairs[:, 0]] - lay.positions[pairs[:, 1]]
        sin_beta = (np.einsum("nij,pj->npi", u_tx, baselines)
                    / np.linalg.norm(baselines, axis=1)[:, None]) @ LINK_DIRECTION
        best = np.argmin(np.abs(sin_beta), axis=1)
        sel = select_tx_pair(lay, columns(lay, u_tx))
        assert np.array_equal(sel.pair, pairs[best])
        beta = np.arcsin(sin_beta[np.arange(len(best)), best])
        # sign bits too: bytes, not values
        assert sel.beta.tobytes() == beta.tobytes()

    def test_too_few_antennas(self):
        lay = make_layout("ula", 2, 0.06)
        with pytest.raises(ValueError, match="at least 3"):
            select_tx_pair(lay, columns(lay, np.eye(3)[None]))

    @pytest.mark.parametrize("kind", ["triangle", "pentagon"])
    def test_columns_must_be_those_of_the_layout_axes(self, kind, curve):
        # all three columns of a polygon in the y-z plane would read its x
        # column as y and pick the wrong pairs; whole matrices and one
        # rotation's columns are no columns either
        spec = spec_for(kind)
        lay = spec.link.tx
        u = uniform_rotation(np.random.default_rng(5), 4)
        for wrong in (u.T, u, u[0].T[lay.axes]):
            with pytest.raises(ValueError, match=re.escape(
                    f"columns must be the (2, 3, n) rotation columns on the transmit axes "
                    f"[1, 2], got shape {wrong.shape}")):
                select_tx_pair(lay, wrong)
            with pytest.raises(ValueError, match="columns must be the"):
                select_tx_pair_for_quality(spec, wrong, 8.0, curve)


class TestQualityRule:
    def test_batch_matches_parent_scalar_rule(self, curve):
        # 20,000 pentagon links under fig5's distance law, drawn as the engine
        # draws them; about 40% of them move to the other spacing class
        spec = spec_for("pentagon")
        tx, rx = spec.link.tx, spec.link.rx
        rng = np.random.default_rng(123)
        n = 20_000
        r_link = rng.uniform(4.43, 12.7, n)
        u_tx = uniform_rotation(rng, n)
        sel = select_tx_pair_for_quality(spec, columns(tx, u_tx), r_link, curve)
        want = [parent_quality_rule(tx, u_tx[i], LINK_DIRECTION, r_link[i], rx.spacing,
                                    spec.link.wavelength, spec.mu_max, curve) for i in range(n)]
        assert np.array_equal(sel.pair, np.array([w.pair for w in want]))
        assert sel.beta.tobytes() == np.array([w.beta for w in want]).tobytes()
        assert np.array_equal(sel.neighbouring, [w.neighbouring for w in want])
        switched = np.mean(sel.neighbouring != select_tx_pair(tx, columns(tx, u_tx)).neighbouring)
        assert 0.3 < switched < 0.5


# links whose R = eta 2 d_t d_r / wavelength overflows or underflows over the
# standard eta grid: (tx_kind, d_t, d_r, wavelength, R at eta = 0.3 and 3)
FLOAT_WINDOWS = {"pentagon-overflow": ("pentagon", 1e150, 0.25, 1e-200, "inf to inf"),
                 "triangle-overflow": ("triangle", 1e150, 1e150, 1e-10, "inf to inf"),
                 "pentagon-underflow": ("pentagon", 1e-150, 1e-150, 1e300, "0 to 0")}


class TestDesignSpec:
    @pytest.mark.parametrize("case", list(FLOAT_WINDOWS))
    def test_window_beyond_a_float_rejected(self, case):
        # each used to reach distance_range and fail as an infeasible design,
        # "empty distance window: R_min = inf m >= R_max = inf m" (0.000 m)
        kind, d_t, d_r, wavelength, reach = FLOAT_WINDOWS[case]
        link = LinkSpec(wavelength, make_layout(kind, spacing=d_t),
                        make_layout("tetrahedron", spacing=d_r))
        with pytest.raises(ValueError, match=re.escape(
                f"d_t = {d_t!r} m, d_r = {d_r!r} m and wavelength {wavelength!r} m give link "
                f"distances R = eta 2 d_t d_r / wavelength from {reach} m")) as info:
            DesignSpec(mu_max=2 / 3, link=link)
        assert not isinstance(info.value, InfeasibleDesignError)

    @pytest.mark.parametrize("rx", [("ura", 4), ("pentagon", None), ("spherical-code", 4)],
                             ids=["ura", "pentagon", "spherical-code"])
    def test_receiver_must_be_a_tetrahedron(self, rx):
        # the mu* curve the design reads is the tetrahedron's
        with pytest.raises(ValueError, match="tetrahedron's; no design for receive kind"):
            spec_for("triangle", rx=make_layout(rx[0], rx[1], 0.25))

    def test_transmitter_needs_a_selection_guarantee(self):
        with pytest.raises(ValueError, match="no selection guarantee for transmit kind 'ula'"):
            DesignSpec(mu_max=2 / 3, link=LinkSpec(0.0042, make_layout("ula", 2, 0.06),
                                                    make_layout("tetrahedron", spacing=0.25)))


class TestEtaRange:
    def test_triangle_crossings(self, curve):
        lo, hi = eta_range(spec_for("triangle"), curve)
        assert lo == pytest.approx(0.61, abs=0.02)
        assert hi == pytest.approx(1.24, abs=0.05)

    def test_pentagon_widens_upper_end(self, curve):
        lo_t, hi_t = eta_range(spec_for("triangle"), curve)
        lo_p, hi_p = eta_range(spec_for("pentagon"), curve)
        assert lo_p == pytest.approx(lo_t, abs=1e-6)
        assert hi_p == pytest.approx(2.0, abs=0.08)
        assert hi_p > hi_t

    def test_near_unit_quality_spans_grid(self, curve):
        lo, hi = eta_range(spec_for("triangle", mu_max=1 - 1e-9), curve)
        assert lo == pytest.approx(0.3)
        assert hi == pytest.approx(3.0)

    def test_infeasible_quality(self, curve):
        with pytest.raises(InfeasibleDesignError):
            eta_range(spec_for("triangle", mu_max=0.01), curve)

    @pytest.mark.parametrize("kind", ["triangle", "pentagon"])
    def test_widest_run_matches_state_machine(self, kind):
        # random curves have many feasible runs, often of equal width
        rng = np.random.default_rng(17)
        for _ in range(300):
            n = int(rng.integers(30, 200))
            etas = 0.1 + 0.01 * np.arange(n)
            curve = MuStarCurve(etas=etas, values=rng.uniform(0.5, 0.9, n),
                                directions=np.zeros((n, 3)), export_from=0.3)
            spec = spec_for(kind, mu_max=float(rng.uniform(0.55, 0.85)))
            expected = eta_range_loop(spec, curve)
            if expected is None:
                with pytest.raises(InfeasibleDesignError):
                    eta_range(spec, curve)
            else:
                assert eta_range(spec, curve) == expected

    def test_endpoints_feasible(self, curve):
        spec = spec_for("triangle")
        lo, hi = eta_range(spec, curve)
        assert curve.value_at(lo) <= spec.mu_max + 1e-6
        assert curve.value_at(hi) <= spec.mu_max + 1e-6


class TestDistanceRange:
    def test_reference_triangle_numbers(self, curve):
        # forcing the published eta_min reproduces the published R_min
        r_min, _ = distance_range(0.62, 1.22, spec_for("triangle"))
        assert r_min == pytest.approx(4.43, abs=0.01)

    def test_cos_factor_relation(self):
        spec = spec_for("pentagon")
        r_min, r_max = distance_range(1.0, 2.0, spec)
        assert r_max / r_min == pytest.approx(2.0 * np.cos(np.pi / 10), rel=1e-9)

    def test_empty_window_rejected(self):
        # a wafer-thin eta interval collapses once the cos factor applies
        with pytest.raises(InfeasibleDesignError, match="empty distance window"):
            distance_range(1.0, 1.001, spec_for("triangle"))


class TestDesignGuarantee:
    def test_realised_mu_within_target(self, curve):
        # sample the full chain: distance, rotations, selection, model mu
        spec = spec_for("pentagon")
        res = design_link(spec, curve)
        tx, rx = spec.link.tx, spec.link.rx
        rng = np.random.default_rng(3)
        n = 4000
        draws = [(rng.uniform(res.r_min, res.r_max), uniform_rotation(rng), uniform_rotation(rng))
                 for _ in range(n)]
        r_link, u_tx, u_rx = (np.array(d) for d in zip(*draws))
        sel = select_tx_pair_for_quality(spec, columns(tx, u_tx), r_link, curve)
        pos = np.einsum("nij,aj->nai", u_tx, tx.positions)
        t = pos[np.arange(n), sel.pair[:, 0]] - pos[np.arange(n), sel.pair[:, 1]]
        t /= np.linalg.norm(t, axis=1, keepdims=True)
        # auxiliary z' axis: in-plane transverse component of the baseline
        z_aux = (t - np.sin(sel.beta)[:, None] * LINK_DIRECTION) / np.cos(sel.beta)[:, None]
        eta = deviation_factor(r_link, sel.spacing, rx.spacing, sel.beta, spec.link.wavelength)
        mu = mu_model(rx, np.einsum("nji,nj->ni", u_rx, z_aux), eta)
        assert mu.max() <= spec.mu_max + 0.01

    @pytest.mark.xfail(strict=True, reason=(
        "FOUND in CHANGES.md: eta_range bisects the linearly interpolated mu* curve, so "
        "both recipes' eta_max overshoots mu_max by 5.3e-6"))
    @pytest.mark.parametrize("recipe", ["design_triangle", "design_pentagon"])
    def test_solver_worst_case_within_target_at_the_window_ends(self, recipe, curve):
        # the worst case at each end of the designed window, from the solver
        # rather than the interpolated curve: mu*(eta), and for a pentagon the
        # better of its two spacing classes
        cfg = json.loads(importlib.resources.files("losmimo.recipes")
                         .joinpath(f"{recipe}.json").read_text())
        spec = DesignSpec(mu_max=cfg["mu_max"], link=LinkSpec(
            cfg["wavelength"], make_layout(cfg["tx_kind"], spacing=cfg["d_t"]),
            make_layout("tetrahedron", spacing=cfg["d_r"])))
        res = design_link(spec, curve)
        for eta in (res.eta_min, res.eta_max):
            worst = mu_star(eta)[0]
            if cfg["tx_kind"] == "pentagon":
                worst = min(worst, mu_star(PENTAGON_ETA_SCALE * eta)[0])
            assert worst <= spec.mu_max, f"mu* = {worst!r} at eta = {eta!r}"

    def test_triangle_design_result_fields(self, curve):
        res = design_link(spec_for("triangle"), curve)
        assert res.beta_max == pytest.approx(np.pi / 6)
        assert 0 < res.eta_min < res.eta_max
        assert 0 < res.r_min < res.r_max
