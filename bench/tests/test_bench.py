"""Tests of the benchmark itself, at a tiny size: every output check accepts
the program's output and rejects a corrupted copy of it, and the span
arithmetic gives the self times of a synthetic trace.

    python3 -m pytest -q bench/tests
"""

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from losmimo.cli import main
from tracing import Span, Tracer, self_times

SNR_DB = [0, 4, 8, 16]
MAX_TRIALS = 5000


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0


def _simulate(tmp: Path) -> Path:
    cfg = {"wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25, "n_r": 4,
           "distance": {"law": "uniform", "min": 4.43, "max": 12.7},
           "snr_db": SNR_DB, "max_trials": MAX_TRIALS, "target_errors": 200, "seed": 3,
           "runs": [{"name": "ideal_sm", "scheme": "sm", "ideal_channel": True},
                    {"name": "golden_pent_tetr", "scheme": "golden", "tx_kind": "pentagon",
                     "rx_kind": "tetrahedron"}]}
    (tmp / "sim.json").write_text(json.dumps(cfg))
    out = tmp / "out"
    _cli("simulate", "--config", str(tmp / "sim.json"), "--out", str(out), "--workers", "1")
    return out


@pytest.fixture(scope="module")
def ber_dir(tmp_path_factory):
    return _simulate(tmp_path_factory.mktemp("ber"))


def _curve(ber_dir, name):
    return checks.parse_ber_csv((ber_dir / f"{name}.csv").read_text())


def _set_errors(curve, k, errors, bits):
    bad = {key: v.copy() for key, v in curve.items()}
    bad["bit_errors"][k] = errors
    nb = bad["trials"][k] * bits
    bad["ber"][k] = errors / nb
    bad["ci_low"][k], bad["ci_high"][k] = checks._wilson(errors, int(nb))
    return bad


def test_ber_curve_checks_pass(ber_dir):
    for name, scheme in (("ideal_sm", "sm"), ("golden_pent_tetr", "golden")):
        curve = _curve(ber_dir, name)
        assert checks.check_ber_curve(curve, scheme, SNR_DB, MAX_TRIALS, 200, 2500) == []
    assert checks.check_ideal_sm(_curve(ber_dir, "ideal_sm")) == []


def test_ideal_sm_rejects_shifted_point(ber_dir):
    curve = _curve(ber_dir, "ideal_sm")
    k = SNR_DB.index(4)
    bad = _set_errors(curve, k, 2 * int(curve["bit_errors"][k]), 4)
    # internally consistent, so only the analytic comparison can see it
    assert checks.check_ber_curve(bad, "sm", SNR_DB, MAX_TRIALS, 200, 2500) == []
    assert checks.check_ideal_sm(bad)


def test_ber_curve_rejects_point_outside_interval(ber_dir):
    bad = _curve(ber_dir, "golden_pent_tetr")
    bad["ber"][0] *= 1.2
    assert any("outside its interval" in p
               for p in checks.check_ber_curve(bad, "golden", SNR_DB, MAX_TRIALS, 200, 2500))


def test_ber_curve_rejects_wrong_interval(ber_dir):
    bad = _curve(ber_dir, "golden_pent_tetr")
    bad["ci_high"][1] *= 1.01
    assert any("Wilson" in p
               for p in checks.check_ber_curve(bad, "golden", SNR_DB, MAX_TRIALS, 200, 2500))


def test_ber_curve_rejects_early_stop_short_of_target(ber_dir):
    curve = _curve(ber_dir, "golden_pent_tetr")
    k = SNR_DB.index(16)
    assert curve["bit_errors"][k] < 200 and curve["trials"][k] == MAX_TRIALS
    curve["trials"][k] = 2500
    assert any("stopped at" in p
               for p in checks.check_ber_curve(curve, "golden", SNR_DB, MAX_TRIALS, 200, 2500))


def _planar_tetra(tetra_errors):
    bits = 4 * 50_000

    def curve(errors):
        lo, hi = checks._wilson(errors, bits)
        return {"snr_db": np.array([16.0]), "bit_errors": np.array([errors]),
                "ci_low": np.array([lo]), "ci_high": np.array([hi])}
    return curve(120), curve(tetra_errors)


def test_tetra_beats_planar():
    assert checks.check_tetra_beats_planar(*_planar_tetra(3)) == []
    assert checks.check_tetra_beats_planar(*_planar_tetra(100))


# ------------------------------------------------------------------ density

SAMPLES = 200_000


@pytest.fixture(scope="module")
def density(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("density")
    cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 4, "rx_kind": "ura",
           "distance": 10.0, "bins": 25, "samples": SAMPLES, "seed": 5}
    (tmp / "d.json").write_text(json.dumps(cfg))
    _cli("density", "--config", str(tmp / "d.json"), "--out", str(tmp))
    counts = checks.parse_density_counts((tmp / "density.csv").read_text(), SAMPLES, 25)
    ref = checks.independent_mu(checks.ula_positions(2, 0.145), checks.square_positions(0.145),
                                10.0, 0.0042, SAMPLES, [5, 1, 4])
    return counts, ref


def test_density_passes(density):
    counts, ref = density
    assert checks.check_density(counts, SAMPLES, ref) == []


def test_density_rejects_skewed_row(density):
    counts, ref = density
    bad = counts.copy()
    j = int(np.argmax(bad.sum(axis=0)))          # the most populated mu row
    half = bad.shape[0] // 2
    moved = bad[:half, j].copy()
    bad[:half, j] = 0.0
    bad[half:2 * half, j] += moved
    assert bad.sum() == pytest.approx(SAMPLES)
    assert any("theta marginal" in p for p in checks.check_density(bad, SAMPLES, ref))


def test_density_rejects_shifted_mu(density):
    counts, ref = density
    bad = np.roll(counts, 1, axis=1)
    assert any("mu marginal" in p for p in checks.check_density(bad, SAMPLES, ref))


def test_density_rejects_lost_counts(density):
    counts, ref = density
    bad = counts.copy()
    bad[3, 3] -= 1
    assert any("sum to" in p for p in checks.check_density(bad, SAMPLES, ref))


# ------------------------------------------------------------------ design

DESIGN = {"mu_max": 2 / 3, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25}


def _report(eta_min, eta_max):
    base = 2 * DESIGN["d_t"] * DESIGN["d_r"] / DESIGN["wavelength"]
    return {"eta_min": eta_min, "eta_max": eta_max, "r_min_m": eta_min * base,
            "r_max_m": eta_max * base * math.cos(math.pi / 10), "mu_max": DESIGN["mu_max"]}


@pytest.fixture(scope="module")
def worst():
    return checks.TetraWorstCase()


def test_design_window_passes(worst):
    # the window the program reports for the design_pentagon recipe
    assert checks.check_design(_report(0.609295388758, 2.00201655358), DESIGN, worst) == []


def test_design_rejects_widened_window(worst):
    problems = checks.check_design(_report(0.609295388758, 2.012), DESIGN, worst)
    assert any("exceeds mu_max" in p for p in problems)


def test_design_rejects_narrowed_window(worst):
    problems = checks.check_design(_report(0.609295388758, 1.98), DESIGN, worst)
    assert any("too narrow" in p for p in problems)


def test_design_rejects_inconsistent_distance(worst):
    report = _report(0.609295388758, 2.00201655358)
    report["r_min_m"] -= 0.2
    problems = checks.check_design(report, DESIGN, worst)
    assert any("r_min" in p and "2 d_t d_r" in p for p in problems)
    assert any("within 0.15 m" in p for p in problems)


# ------------------------------------------------------------------ tracing

def test_self_time_is_span_minus_children():
    spans = [Span(0, "root", 0.0, 10.0, None),
             Span(1, "a", 1.0, 3.0, 0), Span(2, "b", 2.0, 4.0, 0),   # overlapping children
             Span(3, "c", 9.0, 12.0, 0),                             # runs past its parent
             Span(4, "a.child", 1.5, 2.5, 1)]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(1.0)
    assert st[4] == pytest.approx(1.0)


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert [s.parent for s in tracer.spans if s.name == "inner"] == [by_name["outer"].id] * 2
    assert by_name["outer"].parent is None
    assert len({s.id for s in tracer.spans}) == 3


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
