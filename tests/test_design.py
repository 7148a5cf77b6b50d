import numpy as np
import pytest

from losmimo.channel import mu_model
from losmimo.design import (
    DesignSpec,
    InfeasibleDesignError,
    design_link,
    distance_range,
    eta_range,
    select_tx_pair,
    select_tx_pair_for_quality,
)
from losmimo.geometry import make_layout, uniform_rotation

GOLDEN = (1 + np.sqrt(5)) / 2
LINK = np.array([1.0, 0.0, 0.0])


def spec_for(kind, mu_max=2 / 3):
    return DesignSpec(mu_max=mu_max, wavelength=0.0042, d_t=0.06, d_r=0.25, tx_kind=kind)


class TestSelectTxPair:
    def test_perpendicular_link_breaks_ties_low(self):
        # polygons lie in the y-z plane, so the x axis is normal to them
        lay = make_layout("triangle", spacing=0.06)
        sel = select_tx_pair(lay, np.eye(3), LINK)
        assert sel.pair == (0, 1)
        assert sel.beta == pytest.approx(0.0, abs=1e-15)

    def test_triangle_cap(self):
        lay = make_layout("triangle", spacing=0.06)
        rng = np.random.default_rng(0)
        cap = np.sin(np.pi / 6)
        for u in uniform_rotation(rng, 20_000):
            sel = select_tx_pair(lay, u, LINK)
            assert abs(np.sin(sel.beta)) <= cap + 1e-12

    def test_pentagon_cap_and_classes(self):
        lay = make_layout("pentagon", spacing=0.06)
        rng = np.random.default_rng(1)
        cap = np.sin(np.pi / 10)
        seen = set()
        for u in uniform_rotation(rng, 20_000):
            sel = select_tx_pair(lay, u, LINK)
            assert abs(np.sin(sel.beta)) <= cap + 1e-12
            seen.add(sel.neighbouring)
            want = 0.06 if sel.neighbouring else GOLDEN * 0.06
            assert sel.spacing == pytest.approx(want)
        assert seen == {True, False}

    def test_restricted_classes(self):
        lay = make_layout("pentagon", spacing=0.06)
        rng = np.random.default_rng(2)
        cap = np.sin(np.pi / 10)
        for u in uniform_rotation(rng, 2_000):
            for cls in ("neighbouring", "non-neighbouring"):
                sel = select_tx_pair(lay, u, LINK, restrict=cls)
                assert sel.neighbouring == (cls == "neighbouring")
                assert abs(np.sin(sel.beta)) <= cap + 1e-12

    @pytest.mark.parametrize("kind,restrict", [
        ("triangle", None), ("pentagon", None),
        ("pentagon", "neighbouring"), ("pentagon", "non-neighbouring")])
    def test_batch_matches_per_row(self, kind, restrict):
        lay = make_layout(kind, spacing=0.06)
        u_tx = uniform_rotation(np.random.default_rng(4), 2_000)
        batch = select_tx_pair(lay, u_tx, LINK, restrict=restrict)
        assert batch.pair.shape == (2_000, 2)
        for i, u in enumerate(u_tx):
            one = select_tx_pair(lay, u, LINK, restrict=restrict)
            assert one.pair == tuple(batch.pair[i])
            assert one.beta == batch.beta[i]
            assert one.spacing == batch.spacing[i]
            assert one.neighbouring == (None if batch.neighbouring is None
                                        else batch.neighbouring[i])

    @pytest.mark.parametrize("tilted", [False, True])
    @pytest.mark.parametrize("kind", ["triangle", "pentagon", "custom"])
    def test_bit_identical_to_einsum_reference(self, kind, tilted):
        # the pentagon's spacing class hangs on the last bit of sin(beta); a
        # non-planar custom layout and a tilted link also pin the order of
        # the three terms of each product
        if kind == "custom":
            lay = make_layout("custom", coords=0.05 * np.random.default_rng(3).normal(size=(4, 3)))
        else:
            lay = make_layout(kind, spacing=0.06)
        u_tx = uniform_rotation(np.random.default_rng(9), 200_000)
        pairs = np.array([(m, n) for m in range(lay.n) for n in range(m + 1, lay.n)])
        baselines = lay.positions[pairs[:, 0]] - lay.positions[pairs[:, 1]]
        link = np.array([2.0, -1.0, 3.0]) / np.sqrt(14.0) if tilted else LINK
        sin_beta = (np.einsum("nij,pj->npi", u_tx, baselines)
                    / np.linalg.norm(baselines, axis=1)[:, None]) @ link
        best = np.argmin(np.abs(sin_beta), axis=1)
        sel = select_tx_pair(lay, u_tx, link)
        assert np.array_equal(sel.pair, pairs[best])
        assert np.array_equal(sel.beta, np.arcsin(sin_beta[np.arange(len(best)), best]))

    def test_too_few_antennas(self):
        with pytest.raises(ValueError, match="at least 3"):
            select_tx_pair(make_layout("ula", 2, 0.06), np.eye(3), LINK)


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
        tx = make_layout("pentagon", spacing=spec.d_t)
        rx = make_layout("tetrahedron", spacing=spec.d_r)
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(4000):
            r_link = rng.uniform(res.r_min, res.r_max)
            u_tx = uniform_rotation(rng)
            u_rx = uniform_rotation(rng)
            sel = select_tx_pair_for_quality(tx, u_tx, LINK, r_link, spec.d_r,
                                             spec.wavelength, spec.mu_max, curve)
            pos = tx.positions @ u_tx.T
            t = pos[sel.pair[0]] - pos[sel.pair[1]]
            t /= np.linalg.norm(t)
            # auxiliary z' axis: in-plane transverse component of the baseline
            z_aux = (t - np.sin(sel.beta) * LINK) / np.cos(sel.beta)
            mu = mu_model(rx, u_rx.T @ z_aux, d_t=sel.spacing, R=r_link,
                          wavelength=spec.wavelength, beta=sel.beta)
            worst = max(worst, mu)
        assert worst <= spec.mu_max + 0.01

    def test_triangle_design_result_fields(self, curve):
        res = design_link(spec_for("triangle"), curve)
        assert res.beta_max == pytest.approx(np.pi / 6)
        assert 0 < res.eta_min < res.eta_max
        assert 0 < res.r_min < res.r_max
