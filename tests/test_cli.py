import importlib.resources
import json

import pytest

from losmimo.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    ConfigError,
    _load_config,
    _resolve_workers,
    main,
)

MINI_SIM = {
    "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25, "n_r": 4,
    "distance": {"law": "uniform", "min": 4.43, "max": 12.7},
    "snr_db": [0, 8], "max_trials": 4000, "target_errors": 50, "seed": 5,
    "runs": [
        {"name": "mini_sm", "scheme": "sm", "tx_kind": "pentagon",
         "rx_kind": "tetrahedron"},
    ],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = write_config(tmp_path, MINI_SIM)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "mini_sm.csv").exists()
        assert (out / "plot_ber.py").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["seed"] == 5
        assert str(out / "mini_sm.csv") in manifest["outputs"]

    def test_seed_flag_gives_identical_csv(self, tmp_path):
        cfg = write_config(tmp_path, MINI_SIM)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--seed", "7", "--out", str(a)])
        main(["simulate", "--config", cfg, "--seed", "7", "--out", str(b)])
        assert (a / "mini_sm.csv").read_bytes() == (b / "mini_sm.csv").read_bytes()

    def test_missing_field_is_config_error(self, tmp_path):
        broken = {k: v for k, v in MINI_SIM.items() if k != "snr_db"}
        cfg = write_config(tmp_path, broken)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert main(["simulate", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_config_name(self, tmp_path):
        assert main(["simulate", "--config", "no_such_recipe",
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_empty_runs_rejected(self, tmp_path):
        cfg = dict(MINI_SIM)
        cfg["runs"] = []
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_directory_as_config_rejected(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_unknown_scheme_is_config_error(self, tmp_path):
        cfg = dict(MINI_SIM)
        cfg["runs"] = [{"name": "x", "scheme": "qpsk"}]
        path = write_config(tmp_path, cfg)
        assert main(["simulate", "--config", path,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_runtime_failure_exit_code(self, tmp_path):
        cfg = dict(MINI_SIM)
        cfg["runs"] = [{"name": "bad", "scheme": "sm", "tx_kind": "ula",
                        "rx_kind": "spherical-code",
                        "rx_coords_file": str(tmp_path / "missing.csv")}]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--out", str(out)]) == EXIT_RUNTIME
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "error"

    def test_overlapping_distance_law_is_config_error(self, tmp_path):
        # arrays of radii 0.03 m (ULA, d_t 0.06) and 0.177 m (URA, d_r 0.25)
        # can overlap anywhere below 0.207 m
        cfg = dict(MINI_SIM, d_r=0.25, max_trials=2500,
                   distance={"law": "uniform", "min": 0.0001, "max": 0.2})
        cfg["runs"] = [{"name": "near", "scheme": "sm", "tx_kind": "ula", "rx_kind": "ura"}]
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert "array radii" in manifest["error"]
        assert not (out / "near.csv").exists()

    def test_every_run_checked_before_the_first_starts(self, tmp_path):
        # 0.19 m clears ULA x tetrahedron (0.183 m) but not ULA x URA (0.207 m)
        cfg = dict(MINI_SIM, distance={"law": "uniform", "min": 0.19, "max": 0.5})
        cfg["runs"] = [{"name": "first", "scheme": "sm", "tx_kind": "ula",
                        "rx_kind": "tetrahedron"},
                       {"name": "second", "scheme": "sm", "tx_kind": "ula", "rx_kind": "ura"}]
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert "runs[1]" in json.loads((out / "manifest.json").read_text())["error"]
        assert not (out / "first.csv").exists()

    def test_fig5_recipe_covers_three_schemes(self):
        cfg = _load_config("fig5")
        schemes = {run["scheme"] for run in cfg["runs"]}
        assert schemes == {"sm", "golden", "simo"}
        geometries = {(r["tx_kind"], r["rx_kind"]) for r in cfg["runs"]}
        assert ("pentagon", "tetrahedron") in geometries
        assert ("ula", "ura") in geometries


class TestDesign:
    def test_invalid_quality_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mu_max": 2.0, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
            "tx_kind": "triangle", "eta_step": 0.3})
        assert main(["design", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_infeasible_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mu_max": 0.01, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
            "tx_kind": "triangle", "eta_step": 0.05})
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_INFEASIBLE
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "infeasible"

    def test_report_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
            "tx_kind": "triangle", "eta_step": 0.05})
        out = tmp_path / "out"
        assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "design_report.csv").read_text().strip().splitlines()
        assert lines[0] == "eta_min,eta_max,r_min_m,r_max_m,beta_max_rad,mu_max"
        vals = [float(x) for x in lines[1].split(",")]
        assert 0 < vals[0] < vals[1]
        assert 0 < vals[2] < vals[3]


class TestGain:
    def test_sm_gain_column(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gain", "sm", "--out", str(out)]) == EXIT_OK
        rows = (out / "coding_gain.csv").read_text().strip().splitlines()
        assert rows[0] == "mu,gain_sm"
        table = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[1:]}
        assert table[0.4] == pytest.approx(1.0)
        assert table[1.0] == pytest.approx(0.0, abs=1e-12)

    def test_all_schemes(self, tmp_path):
        out = tmp_path / "out"
        assert main(["gain", "all", "--mu-step", "0.25", "--out", str(out)]) == EXIT_OK
        rows = (out / "coding_gain.csv").read_text().strip().splitlines()
        assert rows[0] == "mu,gain_sm,gain_golden,gain_simo"

    def test_unknown_scheme_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["gain", "qpsk", "--out", str(tmp_path / "o")])


class TestCurves:
    def test_coarse_curve_export(self, tmp_path):
        out = tmp_path / "out"
        code = main(["curves", "--eta-start", "0.9", "--eta-stop", "1.5",
                     "--eta-step", "0.1", "--out", str(out)])
        assert code == EXIT_OK
        rows = (out / "mu_star_curve.csv").read_text().strip().splitlines()
        assert rows[0] == "eta,mu_star,mu_star_pent,upper_bound"
        for r in rows[1:]:
            eta, mu, pent, bound = r.split(",")
            if float(eta) >= 1.0:
                assert float(bound) >= float(mu) - 1e-9
        assert (out / "plot_curves.py").exists()

    @pytest.mark.parametrize("step", ["0.3", "0", "-0.1"])
    def test_bad_eta_step_is_config_error(self, tmp_path, step):
        # 0.3 extends the pentagon grid below eta_start = 0.3 down to eta = 0
        out = tmp_path / "curves"
        assert main(["curves", f"--eta-step={step}", "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "mu_star_curve.csv").exists()
        cfg = write_config(tmp_path, {
            "mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
            "tx_kind": "triangle", "eta_step": float(step)})
        out = tmp_path / "design"
        assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "design_report.csv").exists()


class TestDensity:
    def test_small_run_counts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2,
            "rx_kind": "ula", "distance": 10.0, "bins": 5, "samples": 10_000,
            "seed": 3})
        out = tmp_path / "out"
        assert main(["density", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rows = (out / "density.csv").read_text().strip().splitlines()
        assert rows[0] == "theta_bin_center,mu_bin_center,density"
        assert len(rows) == 1 + 25
        # density over the 2pi x 1 rectangle integrates to one
        cell = (2 * 3.141592653589793 / 5) * (1 / 5)
        total = sum(float(r.split(",")[2]) for r in rows[1:]) * cell
        assert total == pytest.approx(1.0, rel=1e-9)

    def test_plot_script_emitted(self, tmp_path):
        cfg = write_config(tmp_path, {
            "wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2,
            "rx_kind": "ula", "distance": 10.0, "bins": 5, "samples": 1_000})
        out = tmp_path / "out"
        assert main(["density", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "plot_density.py").exists()

    def test_bundled_recipe_resolves(self):
        cfg = _load_config("density_2x2")
        assert cfg["n_r"] == 2
        assert importlib.resources.files("losmimo.recipes").joinpath(
            "density_2x4.json").is_file()


class TestWorkerResolution:
    def test_flag_wins(self):
        ns = type("A", (), {"workers": 5})()
        assert _resolve_workers(ns) == 5

    def test_env_fallback(self, monkeypatch):
        ns = type("A", (), {"workers": None})()
        monkeypatch.setenv("LOSMIMO_WORKERS", "3")
        assert _resolve_workers(ns) == 3

    def test_env_invalid(self, monkeypatch):
        ns = type("A", (), {"workers": None})()
        monkeypatch.setenv("LOSMIMO_WORKERS", "many")
        with pytest.raises(ConfigError):
            _resolve_workers(ns)

    def test_default_single(self, monkeypatch):
        ns = type("A", (), {"workers": None})()
        monkeypatch.delenv("LOSMIMO_WORKERS", raising=False)
        assert _resolve_workers(ns) == 1


class TestBundledDesignRecipe:
    def test_triangle_recipe_end_to_end(self, tmp_path):
        # full-precision curve; the slowest CLI test in the suite
        out = tmp_path / "out"
        assert main(["design", "--config", "design_triangle",
                     "--out", str(out)]) == EXIT_OK
        vals = (out / "design_report.csv").read_text().strip().splitlines()[1]
        eta_min, eta_max, r_min, r_max, beta_max, mu_max = map(float, vals.split(","))
        assert abs(r_min - 4.43) <= 0.15
        assert 7.3 <= r_max <= 8.0
        assert beta_max == pytest.approx(3.141592653589793 / 6)
