import concurrent.futures
import copy
import hashlib
import importlib.resources
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import losmimo
from losmimo import orientation
from losmimo._csv import write_csv
from losmimo.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_RUNTIME,
    _load_config,
    build_parser,
    main,
)
from losmimo.geometry import ANTENNAS_MAX

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


# lengths every subcommand must refuse before it runs; JSON carries NaN and
# Infinity through as floats
BAD_LENGTHS = pytest.mark.parametrize("field,value", [
    ("wavelength", 0.0), ("wavelength", -0.0042), ("wavelength", float("nan")),
    ("wavelength", float("inf")), ("d_t", float("nan")), ("d_r", float("nan"))],
    ids=["wavelength-0", "wavelength-neg", "wavelength-nan", "wavelength-inf", "d_t-nan",
         "d_r-nan"])


# a transmit kind that is no layout, and one that is a layout but no transmit
# array, each read the same from every subcommand that takes a transmit kind
TX_KIND_ERRORS = {"hexagon": "unknown layout kind 'hexagon'",
                  "tetrahedron": "unsupported transmit kind 'tetrahedron'"}
BAD_TX_KINDS = pytest.mark.parametrize("kind", list(TX_KIND_ERRORS))


def assert_tx_kind_rejected(out, kind, where, csv):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert manifest["error"].startswith(f"{where}: {TX_KIND_ERRORS[kind]}")
    assert not (out / csv).exists()


def assert_length_rejected(out, field, csv):
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "config-error"
    assert f"{field!r} must be a finite length above 0" in manifest["error"]
    assert not (out / csv).exists()


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
        assert manifest["shared_channels"] == [["mini_sm"]]

    def test_manifest_records_shared_channels(self, tmp_path):
        # the fig5 runs at one point of one block: the runs on each geometry
        # share their channel draws, and the ideal run draws none
        cfg = dict(_load_config("fig5"), snr_db=[32], max_trials=500, block_trials=500)
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["shared_channels"] == [
            ["sm_ula_ura", "golden_ula_ura", "simo_ura"], ["sm_pent_tetr", "golden_pent_tetr"],
            ["ideal_sm"]]

    def test_manifest_records_the_trials_decoded(self, tmp_path):
        # the benchmark's fig5 round (15,000 trials per point, seed 1): the
        # trials the distance bound left in doubt, per run and SNR point, in
        # one process and on two
        cfg = dict(_load_config("fig5"), max_trials=15_000, seed=1)
        path = write_config(tmp_path, cfg)
        for workers in ("1", "2"):
            out = tmp_path / workers
            assert main(["simulate", "--config", path, "--out", str(out),
                         "--workers", workers]) == EXIT_OK
            decoded = json.loads((out / "manifest.json").read_text())["decoded"]
            assert list(decoded) == [run["name"] for run in cfg["runs"]]
            for name, counts in decoded.items():
                rows = (out / f"{name}.csv").read_text().splitlines()[1:]
                trials = [int(row.split(",")[1]) for row in rows]
                assert len(counts) == len(trials)
                assert all(0 <= d <= t for d, t in zip(counts, trials))
            assert sum(map(sum, decoded.values())) == 32_104

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

    def test_coords_file_with_another_rx_kind_is_config_error(self, tmp_path):
        # used to run on the built-in URA and ignore the file
        coords = tmp_path / "coords.csv"
        coords.write_text("1,0,0\n0,1,0\n0,0,1\n-1,0,0\n")
        cfg = dict(MINI_SIM, runs=[{"name": "ura", "scheme": "sm", "rx_kind": "ura",
                                    "rx_coords_file": str(coords)}])
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == ("runs[0]: a coordinates file is read only for a "
                                     "spherical-code layout, not for kind 'ura'")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("n_r", [10**30, 2**64], ids=["1e30", "2^64"])
    def test_n_r_beyond_intp_is_config_error(self, tmp_path, n_r):
        # a URA of 10**30 antennas used to exit 4 with a TypeError from np.sqrt
        cfg = dict(MINI_SIM, runs=[dict(MINI_SIM["runs"][0], rx_kind="ura", n_r=n_r)])
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == (f"runs[0]: n must be at most {ANTENNAS_MAX} antennas, "
                                     f"got {n_r}")
        assert not list(out.glob("*.csv"))

    def test_snr_beyond_float_range_is_config_error(self, tmp_path):
        # used to exit 4 with a TypeError from np.isfinite
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, snr_db=[0, 10 ** 400]))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith(
            "simulate config: SNR grid must be a non-empty list of finite numbers")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("snr_db", [[1e300], [0, 1.7e308]], ids=["1e300", "0-1.7e308"])
    def test_snr_beyond_float_range_as_linear_is_config_error(self, tmp_path, snr_db):
        # a finite dB value whose linear SNR overflows used to exit 4 with an
        # OverflowError in the engine
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, snr_db=snr_db))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == (f"simulate config: snr_db {snr_db[-1]!r} gives a linear "
                                     "SNR beyond a float")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("snr_db", [[-4000], [-4000, 0]], ids=["-4000", "-4000-0"])
    def test_snr_underflowing_as_linear_is_config_error(self, tmp_path, snr_db):
        # a dB value whose linear SNR underflows to 0 used to run, decoding
        # every trial as codeword 0 (BER 0.502), though ml_decode rejects snr 0
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, snr_db=snr_db))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == ("simulate config: snr_db -4000.0 gives a linear SNR that "
                                     "underflows to 0")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("distance", [{"law": "fixed", "value": 1e300},
                                          {"law": "uniform", "min": 5.0, "max": 1.7e308}],
                             ids=["fixed-1e300", "uniform-1.7e308"])
    def test_distance_beyond_float_geometry_is_config_error(self, tmp_path, distance):
        # a fixed 1e300 m used to exit 0 with BER 0.4967 at every point, from
        # NaN channels: the squared antenna distances overflowed
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, distance=distance))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        high = distance.get("value", distance.get("max"))
        assert manifest["error"].startswith(f"runs[0]: distance {high:g} m puts antennas up to ")
        assert manifest["error"].endswith("whose squared distance is beyond a float")
        assert not list(out.glob("*.csv"))

    def test_distance_beyond_phase_resolution_is_config_error(self, tmp_path):
        # a fixed 2^62 m used to exit 0 with every rho real (theta_mu spread
        # 0): rounding a distance moved its phase by up to 7.7e5 rad
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, distance={"law": "fixed", "value": 2**62}))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == (
            "runs[0]: wavelength 0.0042 m and distance 4.611686018427388e+18 m: the rounding of "
            "an antenna distance near 4.61169e+18 m moves its phase by up to 7.66e+05 rad, more "
            "than 1e-06 rad")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("d_t", [1e-300, 5e-324])
    def test_collapsing_array_is_config_error(self, tmp_path, d_t):
        # a pentagon whose antennas underflow onto its centroid used to exit 4
        # with an IndexError in the pair selection
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, d_t=d_t))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == (f"runs[0]: spacing must be at least 1.492e-154 m, or the "
                                     f"antennas collapse onto the centroid, got {d_t!r}")
        assert not list(out.glob("*.csv"))

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

    @BAD_LENGTHS
    def test_bad_length_is_config_error(self, tmp_path, field, value):
        # a wavelength <= 0 used to fail mid-run (exit 4) and a NaN one to run
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, {**MINI_SIM, field: value}),
                     "--out", str(out)]) == EXIT_CONFIG
        assert_length_rejected(out, field, "mini_sm.csv")

    @BAD_TX_KINDS
    def test_bad_transmit_kind_is_config_error(self, tmp_path, kind):
        cfg = dict(MINI_SIM, runs=[dict(MINI_SIM["runs"][0], tx_kind=kind)])
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert_tx_kind_rejected(out, kind, "runs[0]", "mini_sm.csv")

    def test_receiver_is_any_layout(self, tmp_path):
        # the receive array is what make_layout builds from rx_kind and n_r
        cfg = dict(MINI_SIM, snr_db=[8], max_trials=2500)
        cfg["runs"] = [{"name": "tri", "scheme": "sm", "rx_kind": "triangle", "n_r": 3},
                       {"name": "pent", "scheme": "sm", "rx_kind": "pentagon", "n_r": 5}]
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_OK
        for name in ("tri", "pent"):
            trials, errors = map(int, (out / f"{name}.csv").read_text().splitlines()[1]
                                 .split(",")[1:3])
            assert trials == 2500 and 0 < errors < 2500 * 4 // 2
        cfg["runs"] = [{"name": "tetr", "scheme": "sm", "rx_kind": "tetrahedron", "n_r": 3}]
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out / "bad")]) == EXIT_CONFIG
        manifest = json.loads((out / "bad" / "manifest.json").read_text())
        assert manifest["error"] == "runs[0]: tetrahedron has exactly 4 antennas"

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

    @pytest.mark.parametrize("level,value", [("run", 2.7), ("config", 2.7), ("run", True)],
                             ids=["run-2.7", "config-2.7", "run-true"])
    def test_non_integer_n_r_is_config_error(self, tmp_path, level, value):
        # int() would silently run a 2-antenna (or 1-antenna) receiver
        cfg = dict(MINI_SIM)
        run = dict(cfg["runs"][0], tx_kind="ula", rx_kind="ula")
        if level == "run":
            run["n_r"] = value
        else:
            cfg["n_r"] = value
        cfg["runs"] = [run]
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert "'n_r' must be int" in manifest["error"]
        assert not (out / "mini_sm.csv").exists()

    @pytest.mark.parametrize("distance", [{"law": "uniform", "min": 4.43, "max": float("inf")},
                                          {"law": "fixed", "value": float("inf")}],
                             ids=["uniform-max-inf", "fixed-inf"])
    def test_infinite_distance_is_config_error(self, tmp_path, distance):
        # "max": Infinity used to exit 4 with an OverflowError from the sampler
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, distance=distance))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith("simulate config: distance")
        assert not (out / "mini_sm.csv").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("max_trials", 0, "trial budgets must be positive"),
        ("snr_db", [8, 0], "SNR grid must be sorted"),
        ("distance", {"law": "uniform", "min": 12.7, "max": 4.43},
         "distance range must satisfy 0 < low <= high < inf")],
        ids=["max_trials-0", "snr_db-unsorted", "distance-min-above-max"])
    def test_shared_field_error_is_located_at_the_top_level(self, tmp_path, field, value,
                                                            message):
        # the fields every run shares used to be reported as runs[0]'s
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {**MINI_SIM, field: value})
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == f"simulate config: {message}"
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("names,bad", [(["a", "a"], 1), (["a", "../escaped"], 1),
                                           ([""], 0)],
                             ids=["duplicate", "path", "empty"])
    def test_run_names_are_unique_plain_file_names(self, tmp_path, names, bad):
        # each used to exit 0: the second "a" overwrote the first CSV, the
        # path wrote escaped.csv beside --out and the empty name wrote .csv
        cfg = dict(MINI_SIM, runs=[dict(MINI_SIM["runs"][0], name=n) for n in names])
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"].startswith(f"runs[{bad}]: name")
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("snr_db", [[float("nan")], [], [True, "x"]],
                             ids=["nan", "empty", "bool-str"])
    def test_bad_snr_grid_is_config_error(self, tmp_path, snr_db):
        # [NaN] used to exit 0 with a CSV row of nan, [] to exit 4 with an
        # IndexError and [true, "x"] to exit 4 with a TypeError
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, snr_db=snr_db))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert "SNR grid must be a non-empty list of finite numbers" in manifest["error"]
        assert not (out / "mini_sm.csv").exists()

    def test_repeated_snr_point_is_config_error(self, tmp_path):
        # [8, 8] used to exit 0 with two identical rows: every point scores
        # the same blocks
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(MINI_SIM, snr_db=[0, 8, 8]))
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == ("simulate config: SNR grid must not repeat a point, "
                                     "got 8 more than once")
        assert not (out / "mini_sm.csv").exists()

    @pytest.mark.parametrize("field,value", [
        ("max_trials", 1000.9), ("target_errors", 10.5), ("block_trials", 500.7),
        ("max_trials", True)],
        ids=["max_trials-1000.9", "target_errors-10.5", "block_trials-500.7", "max_trials-true"])
    def test_non_integer_budget_is_config_error(self, tmp_path, field, value):
        # int() would silently run a truncated budget
        cfg = dict(MINI_SIM, **{field: value})
        out = tmp_path / "out"
        assert main(["simulate", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert f"'{field}' must be int" in manifest["error"]
        assert not (out / "mini_sm.csv").exists()

    @pytest.mark.parametrize("via,seed", [("config", 1.5), ("config", -1), ("config", True),
                                          ("config", "7"), ("flag", -1)],
                             ids=["1.5", "neg", "true", "str", "flag-neg"])
    def test_bad_seed_is_config_error(self, tmp_path, via, seed):
        # 1.5 and -1 used to fail mid-run (exit 4), true and "7" to run; the
        # error names where the seed came from, not runs[0]
        cfg = dict(MINI_SIM, seed=seed) if via == "config" else MINI_SIM
        argv = ["simulate", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")]
        assert main(argv + (["--seed", str(seed)] if via == "flag" else [])) == EXIT_CONFIG
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        source = "simulate config" if via == "config" else "--seed"
        assert manifest["error"] == f"{source}: seed must be a non-negative integer, got {seed!r}"
        assert not (tmp_path / "out" / "mini_sm.csv").exists()

    @pytest.mark.parametrize("workers", [0, -1, -3], ids=["0-flag", "-1-flag", "-3-flag"])
    def test_worker_count_below_one_is_config_error(self, tmp_path, monkeypatch, workers):
        def no_run(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr(losmimo.cli, "run_ber", no_run)
        argv = ["simulate", "--config", write_config(tmp_path, MINI_SIM),
                "--out", str(tmp_path / "out"), f"--workers={workers}"]
        assert main(argv) == EXIT_CONFIG
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"] == \
            f"--workers: workers must be an integer of at least 1, got {workers}"
        assert not (tmp_path / "out" / "mini_sm.csv").exists()

    @pytest.mark.parametrize("workers", ["1.5", "true"])
    def test_worker_count_must_be_an_integer(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", write_config(tmp_path, MINI_SIM), "--out", str(out),
                  f"--workers={workers}"])
        assert exc.value.code == EXIT_CONFIG
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()

    # two runs of three points each, on channel groups of their own, with
    # early stops at the low SNRs and several blocks per point
    TWO_GROUPS = dict(MINI_SIM, snr_db=[0, 8, 16], max_trials=3000, block_trials=500, runs=[
        dict(MINI_SIM["runs"][0]),
        {"name": "mini_ula", "scheme": "sm", "tx_kind": "ula", "rx_kind": "ura"}])
    # two runs that share their one channel group
    ONE_GROUP = dict(MINI_SIM, snr_db=[8], runs=[
        dict(MINI_SIM["runs"][0]), dict(MINI_SIM["runs"][0], name="mini_golden", scheme="golden")])

    def test_one_pool_per_invocation(self, tmp_path, monkeypatch):
        # the runs share one process pool at --workers 2 and none at 1
        path = write_config(tmp_path, self.TWO_GROUPS)
        real_pool = concurrent.futures.ProcessPoolExecutor
        made = []

        def counting_pool(*args, **kwargs):
            made.append(args)
            return real_pool(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counting_pool)
        for workers in (1, 2):
            assert main(["simulate", "--config", path, "--workers", str(workers),
                         "--out", str(tmp_path / f"w{workers}")]) == EXIT_OK
            assert len(made) == workers - 1
            manifest = json.loads((tmp_path / f"w{workers}" / "manifest.json").read_text())
            assert manifest["processes"] == workers
            assert "threads_per_process" not in manifest
        for name in ("mini_sm", "mini_ula"):
            serial = (tmp_path / "w1" / f"{name}.csv").read_bytes()
            assert serial == (tmp_path / "w2" / f"{name}.csv").read_bytes()
            trials = [int(r.split(",")[1]) for r in serial.decode().splitlines()[1:]]
            assert trials[0] < 3000 and trials[-1] == 3000

    @staticmethod
    def recording_pool(monkeypatch):
        """Record the size of every process pool made; the stub pool runs its
        workers on threads, so no process starts."""
        made = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return made

    def test_process_count_is_capped_at_the_task_count(self, tmp_path, monkeypatch):
        # --workers 8 makes one pool of two workers for two channel groups and
        # none for two runs' shared group
        made = self.recording_pool(monkeypatch)
        for cfg, processes in ((self.TWO_GROUPS, 2), (self.ONE_GROUP, 1)):
            out = tmp_path / f"{processes}"
            assert main(["simulate", "--config", write_config(tmp_path, cfg), "--workers", "8",
                         "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["processes"] == processes
        assert made == [2]

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_default_workers_are_the_usable_cpus(self, tmp_path, monkeypatch, cpus):
        # capped at the group count: a one-group run starts no process
        made = self.recording_pool(monkeypatch)
        monkeypatch.setattr(losmimo.cli, "_usable_cpus", lambda: cpus)
        for cfg, groups in ((self.TWO_GROUPS, 2), (self.ONE_GROUP, 1)):
            out = tmp_path / f"{groups}"
            assert main(["simulate", "--config", write_config(tmp_path, cfg),
                         "--out", str(out)]) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["processes"] == min(cpus, groups)
        assert made == ([] if cpus == 1 else [2])

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

    @BAD_LENGTHS
    def test_bad_length_is_config_error(self, tmp_path, field, value):
        cfg = {"mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
               "tx_kind": "triangle", "eta_step": 0.05, field: value}
        out = tmp_path / "out"
        assert main(["design", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert_length_rejected(out, field, "design_report.csv")

    @BAD_TX_KINDS
    def test_bad_transmit_kind_is_config_error(self, tmp_path, kind):
        cfg = {"mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
               "tx_kind": kind, "eta_step": 0.05}
        out = tmp_path / "out"
        assert main(["design", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert_tx_kind_rejected(out, kind, "design config", "design_report.csv")

    @pytest.mark.parametrize("digits", [400, 5_000])
    def test_length_beyond_float_range_is_config_error(self, tmp_path, digits):
        # a 401-digit wavelength used to exit 4 with an OverflowError; one of
        # more digits than Python converts to an int fails in the JSON parser
        path = tmp_path / "config.json"
        path.write_text('{"mu_max": 0.6667, "wavelength": 1' + "0" * digits
                        + ', "d_t": 0.06, "d_r": 0.25, "tx_kind": "triangle"}')
        out = tmp_path / "out"
        assert main(["design", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        if digits == 400:
            assert manifest["error"] == ("design config: field 'wavelength' must be a finite "
                                         "number, got an integer too large for a float")
        else:
            assert manifest["error"].startswith(f"{path}: Exceeds the limit")
        assert not (out / "design_report.csv").exists()

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


class TestFieldTypes:
    # each of these used to run (a bool read as a number, any truthy value as
    # ideal_channel, a numeric string as eta_step) or to exit 4 mid-run
    DESIGN = {"mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
              "tx_kind": "triangle", "eta_step": 0.05}
    DENSITY = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2,
               "rx_kind": "ula", "distance": 10.0, "bins": 5, "samples": 1_000}
    CASES = {
        "wavelength-true": ("simulate", ("wavelength",), True,
                            "simulate config: field 'wavelength' must be float"),
        "distance-value-true": ("simulate", ("distance",), {"law": "fixed", "value": True},
                                "distance: field 'value' must be float"),
        "ideal_channel-str": ("simulate", ("runs", 0, "ideal_channel"), "false",
                              "runs[0]: field 'ideal_channel' must be bool"),
        "ideal_channel-1": ("simulate", ("runs", 0, "ideal_channel"), 1,
                            "runs[0]: field 'ideal_channel' must be bool"),
        "run-int": ("simulate", ("runs",), [5], "runs[0]: must be an object"),
        "tx_kind-int": ("simulate", ("runs", 0, "tx_kind"), 3,
                        "runs[0]: field 'tx_kind' must be str"),
        "rx_kind-null": ("simulate", ("runs", 0, "rx_kind"), None,
                         "runs[0]: field 'rx_kind' must be str"),
        "rx_coords_file-true": ("simulate", ("runs", 0, "rx_coords_file"), True,
                                "runs[0]: field 'rx_coords_file' must be str"),
        "eta_step-null": ("design", ("eta_step",), None,
                          "design config: field 'eta_step' must be float"),
        "eta_step-str": ("design", ("eta_step",), "0.02",
                         "design config: field 'eta_step' must be float"),
        "mu_max-true": ("design", ("mu_max",), True, "design config: field 'mu_max' must be float"),
        "density-rx_kind-int": ("density", ("rx_kind",), 2,
                                "density config: field 'rx_kind' must be str"),
        "density-distance-true": ("density", ("distance",), True,
                                  "density config: field 'distance' must be float"),
    }

    # a misspelt or unread field in each object the CLI reads, which would
    # otherwise run on the field's default
    UNKNOWN = {
        "simulate": ("simulate", ("max_trial",), "simulate config"),
        "run": ("simulate", ("runs", 0, "tx_knd"), "runs[0]"),
        "distance": ("simulate", ("distance", "mn"), "distance"),
        "distance-value-of-uniform": ("simulate", ("distance", "value"), "distance"),
        "design": ("design", ("eta_stepp",), "design config"),
        "density": ("density", ("sample",), "density config"),
    }

    def assert_rejected(self, tmp_path, command, path, value, message):
        """Run ``command`` on its base config with the field at ``path`` set to
        ``value``, and check that it is a config error with ``message``."""
        cfg = copy.deepcopy({"simulate": MINI_SIM, "design": self.DESIGN,
                             "density": self.DENSITY}[command])
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert manifest["error"] == message
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("case", list(CASES))
    def test_mistyped_field_is_config_error(self, tmp_path, case):
        self.assert_rejected(tmp_path, *self.CASES[case])

    @pytest.mark.parametrize("case", list(UNKNOWN))
    def test_unknown_field_is_config_error(self, tmp_path, case):
        command, path, where = self.UNKNOWN[case]
        self.assert_rejected(tmp_path, command, path, 5.0,
                             f"{where}: unknown field {path[-1]!r}")


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

    @pytest.mark.parametrize("step", ["0", "-0.1", "inf", "nan"])
    def test_bad_mu_step_is_config_error(self, tmp_path, step):
        # 0 used to divide by zero (exit 4), -0.1 to write a header alone and
        # inf to write the mu = 0 row alone
        out = tmp_path / "out"
        assert main(["gain", "sm", f"--mu-step={step}", "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        if step in ("inf", "nan"):
            assert manifest["error"] == f"mu step must be finite, got {float(step)!r}"
        assert not (out / "coding_gain.csv").exists()

    def test_mu_step_beyond_numpy_sizes_is_config_error(self, tmp_path):
        # a 1e300-point grid used to raise NumPy's "Maximum allowed size
        # exceeded" (exit 4), and a 1e18-point one a MemoryError (exit 4); the
        # grid is bounded before any array is built, so none is allocated here
        least = (1.0 + 1e-12) / losmimo.cli.MU_POINTS
        for step in ("1e-300", "1e-18", "5e-324"):
            out = tmp_path / step
            assert main(["gain", "sm", f"--mu-step={step}", "--out", str(out)]) == EXIT_CONFIG
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["error"] == (f"mu step must be at least {least:g}, which leaves "
                                         f"at most 1000001 mu values, got {float(step)!r}")
            assert not (out / "coding_gain.csv").exists()


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

    @pytest.mark.parametrize("flag,value", [("step", "0.3"), ("step", "0"), ("step", "-0.1"),
                                            ("step", "-0.01"), ("step", "nan"), ("step", "inf"),
                                            ("step", "5e-324"), ("step", "1e-300"),
                                            ("stop", "inf"), ("stop", "nan"), ("start", "inf"),
                                            ("start", "nan")],
                             ids=["0.3", "0", "-0.1", "-0.01", "nan", "inf", "5e-324", "1e-300",
                                  "stop-inf", "stop-nan", "start-inf", "start-nan"])
    def test_bad_eta_step_is_config_error(self, tmp_path, flag, value):
        # 0.3 extends the pentagon grid below eta_start = 0.3 down to eta = 0;
        # an infinite step used to write a header alone (design: exit 4), and
        # the non-finite values used to get the messages of the finite cases;
        # 5e-324 used to overflow counting its etas (exit 4) and 1e-300 to get
        # NumPy's bare "Maximum allowed size exceeded"
        out = tmp_path / "curves"
        assert main(["curves", f"--eta-{flag}={value}", "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        if value in ("nan", "inf"):
            name = "eta step" if flag == "step" else f"eta_{flag}"
            assert manifest["error"] == f"{name} must be finite, got {float(value)!r}"
        elif 0 < float(value) < 1e-6:
            assert manifest["error"] == f"eta step {float(value):g} gives more than 100000 etas"
        else:
            assert manifest["error"].startswith("eta step")
        assert not (out / "mu_star_curve.csv").exists()
        assert "mu_star_curve" not in manifest  # checked before the build
        if flag != "step":
            return      # a design config has only an eta_step
        cfg = write_config(tmp_path, {
            "mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
            "tx_kind": "triangle", "eta_step": float(value)})
        out = tmp_path / "design"
        assert main(["design", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not (out / "design_report.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error" and "mu_star_curve" not in manifest


class TestMuStarBuild:
    """``design`` and ``curves`` build the mu* curve outside the config-error
    handlers (their eta grids are checked in ``TestCurves``) and record the
    build in the manifest."""

    DESIGN = {"mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25,
              "tx_kind": "triangle", "eta_step": 0.05}

    def run(self, tmp_path, command):
        out = tmp_path / command
        argv = (["design", "--config", write_config(tmp_path, self.DESIGN)] if command == "design"
                else ["curves", "--eta-start", "0.9", "--eta-stop", "1.5", "--eta-step", "0.1"])
        code = main(argv + ["--out", str(out)])
        return code, json.loads((out / "manifest.json").read_text())

    @pytest.mark.parametrize("command", ["design", "curves"])
    def test_solver_failure_is_runtime_failure(self, tmp_path, monkeypatch, command):
        def fail(etas):
            raise ValueError("solver failed")

        monkeypatch.setattr(orientation, "_solve", fail)
        code, manifest = self.run(tmp_path, command)
        assert code == EXIT_RUNTIME
        assert manifest["status"] == "error"
        assert manifest["error"] == "ValueError: solver failed"

    def test_curves_manifest_records_the_build(self, tmp_path):
        code, manifest = self.run(tmp_path, "curves")
        assert code == EXIT_OK
        record = manifest["mu_star_curve"]
        # 0.9 .. 1.5 in 0.1 steps, and 0.6, 0.7, 0.8 for the pentagon branch
        assert (record["etas"], record["grid_points"]) == (10, 1739)
        assert record["build_s"] >= 0.0

    def test_bundled_pentagon_recipe_records_the_build(self, tmp_path):
        out = tmp_path / "out"
        assert main(["design", "--config", "design_pentagon", "--out", str(out)]) == EXIT_OK
        record = json.loads((out / "manifest.json").read_text())["mu_star_curve"]
        assert set(record) == {"etas", "grid_points", "build_s"}
        assert (record["etas"], record["grid_points"]) == (283, 1739)
        assert isinstance(record["build_s"], float) and record["build_s"] >= 0.0


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

    # the 2x2 arrays of radius 0.0725 m overlap anywhere up to 0.145 m
    @pytest.mark.parametrize("field,value,message", [
        ("bins", 3, "5 x 5"), ("bins", "x", "'bins' must be int"),
        ("samples", 0, "at least one sample"), ("wavelength", 0.0, "wavelength"),
        ("distance", 0.1, "array radii"), ("distance", -10.0, "array radii"),
        ("n_r", 2.7, "'n_r' must be int"), ("n_r", True, "'n_r' must be int"),
        ("bins", 25.5, "'bins' must be int"), ("samples", 1000.5, "'samples' must be int"),
        ("distance", float("inf"), "distance must be finite"),
        ("seed", 2.5, "seed must be a non-negative integer"),
        ("seed", -3, "seed must be a non-negative integer"),
        ("seed", True, "seed must be a non-negative integer"),
        ("seed", "7", "seed must be a non-negative integer")],
        ids=["bins-3", "bins-x", "samples-0", "wavelength-0", "distance-0.1", "distance-neg",
             "n_r-2.7", "n_r-true", "bins-25.5", "samples-1000.5", "distance-inf", "seed-2.5",
             "seed-neg", "seed-true", "seed-str"])
    def test_bad_config_is_config_error(self, tmp_path, field, value, message):
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2,
               "rx_kind": "ula", "distance": 10.0, "bins": 5, "samples": 1_000}
        cfg[field] = value
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == "config-error"
        assert message in manifest["error"]
        assert not (out / "density.csv").exists()

    @BAD_LENGTHS
    def test_bad_length_is_config_error(self, tmp_path, field, value):
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2,
               "rx_kind": "ula", "distance": 10.0, "bins": 5, "samples": 1_000, field: value}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        assert_length_rejected(out, field, "density.csv")

    @pytest.mark.parametrize("rx_kind", ["ula", "ura"])
    @pytest.mark.parametrize("n_r", [10**30, 2**64], ids=["1e30", "2^64"])
    def test_n_r_beyond_intp_is_config_error(self, tmp_path, n_r, rx_kind):
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": n_r,
               "rx_kind": rx_kind, "distance": 10.0, "bins": 5, "samples": 1_000}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == ("density config: n must be at most "
                                     f"{ANTENNAS_MAX} antennas, got {n_r}")
        assert not (out / "density.csv").exists()

    @pytest.mark.parametrize("bins", [2**31, 10**30], ids=["2^31", "1e30"])
    def test_bins_beyond_intp_is_config_error(self, tmp_path, bins):
        # the grid bound, well below what intp can index, rejects these too
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "distance": 10.0,
               "bins": bins, "samples": 1_000}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == f"density config: bins must be at most 1000, got {bins}"
        assert not (out / "density.csv").exists()

    @pytest.mark.parametrize("bins", [1_001, 10**6], ids=["1001", "1e6"])
    def test_bins_beyond_the_grid_bound_is_config_error(self, tmp_path, monkeypatch, bins):
        # 10^6 bins used to pass and then exit 4 with a MemoryError for a
        # 7.28 TiB array; the count is checked before any array is built
        def no_run(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr(losmimo.cli, "joint_density", no_run)
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "distance": 10.0,
               "bins": bins, "samples": 1_000}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == f"density config: bins must be at most 1000, got {bins}"

    @pytest.mark.parametrize("field,value,message", [
        ("wavelength", 5e-324, "density config: wavelength 5e-324 m and distance 10.0 m: the "
                               "rounding of an antenna distance near 10.145 m moves its phase "
                               "by up to inf rad, more than 1e-06 rad"),
        ("distance", 1e300, "density config: distance 1e+300 m puts antennas up to 1e+300 m "
                            "apart, whose squared distance is beyond a float"),
        ("distance", 1.7e308, "density config: distance 1.7e+308 m puts antennas up to "
                              "1.7e+308 m apart, whose squared distance is beyond a float")],
        ids=["wavelength-5e-324", "distance-1e300", "distance-1.7e308"])
    def test_geometry_beyond_a_float_is_config_error(self, tmp_path, field, value, message):
        # these used to exit 4 with an IndexError in the binning, after NaN
        # phases from an overflowed square or an infinite 1 / wavelength
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "distance": 10.0,
               "bins": 5, "samples": 1_000, field: value}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == message
        assert not (out / "density.csv").exists()

    @pytest.mark.parametrize("samples", [2**63, 10**30], ids=["2^63", "1e30"])
    def test_samples_beyond_intp_is_config_error(self, tmp_path, monkeypatch, samples):
        # such a count used to pass every check and run until it was killed
        def no_run(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr(losmimo.cli, "joint_density", no_run)
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "distance": 10.0,
               "samples": samples}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == ("density config: samples must be at most "
                                     f"{losmimo.montecarlo.DENSITY_SAMPLES}, got {samples}")

    @pytest.mark.parametrize("samples", [10**10 + 1, 2**62], ids=["1e10+1", "2^62"])
    def test_samples_beyond_the_run_bound_is_config_error(self, tmp_path, monkeypatch,
                                                          samples):
        # 2^62 samples used to pass every check and run until it was killed;
        # the count is checked before any array is built
        def no_run(*args, **kwargs):
            raise AssertionError("no run may start")

        monkeypatch.setattr(losmimo.cli, "joint_density", no_run)
        cfg = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "distance": 10.0,
               "samples": samples}
        out = tmp_path / "out"
        assert main(["density", "--config", write_config(tmp_path, cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error"] == ("density config: samples must be at most "
                                     f"10000000000, got {samples}")

    def test_bundled_recipe_resolves(self):
        cfg = _load_config("density_2x2")
        assert cfg["n_r"] == 2
        assert importlib.resources.files("losmimo.recipes").joinpath(
            "density_2x4.json").is_file()


# boundary values each field of a config table is swept through, one at a
# time: zeros and signs, float extremes, huge integers and wrong JSON types
SWEEP_VALUES = [0, -1, 1e-300, 5e-324, 1e300, 1.7e308, float("nan"), float("inf"),
                float("-inf"), 10**400, 2**62, 2**63, "7", True, None, [1], {}]
SWEEP_IDS = ["0", "-1", "1e-300", "5e-324", "1e300", "1.7e308", "nan", "inf", "-inf",
             "1e400", "2^62", "2^63", "str", "bool", "null", "list", "object"]


class TestDensitySweep:
    BASE = {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2, "rx_kind": "ula",
            "distance": 10.0, "bins": 5, "samples": 200, "seed": 3}

    @pytest.mark.parametrize("value", SWEEP_VALUES, ids=SWEEP_IDS)
    @pytest.mark.parametrize("field", list(losmimo.cli.DENSITY_FIELDS))
    def test_field_boundary_exits_0_or_2(self, tmp_path, monkeypatch, field, value):
        # a bad value is a config error, never a failure mid-run; a run that
        # the checks let through on more than 10^7 samples fails instead of
        # running for hours
        real = losmimo.cli.joint_density

        def guarded(law, bins, samples, seed):
            assert samples <= 10**7, f"a run of {samples} samples started"
            return real(law, bins, samples, seed)

        monkeypatch.setattr(losmimo.cli, "joint_density", guarded)
        out = tmp_path / "out"
        code = main(["density", "--config", write_config(tmp_path, {**self.BASE, field: value}),
                     "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert code in (EXIT_OK, EXIT_CONFIG), manifest.get("error")
        assert manifest["status"] == ("ok" if code == EXIT_OK else "config-error")


class TestDensitySweepUra(TestDensitySweep):
    # a receive URA of 2^62 antennas used to exit 4 with a MemoryError for
    # 16 GiB; a ULA exited 2 only through NumPy's own size error
    BASE = {**TestDensitySweep.BASE, "rx_kind": "ura", "n_r": 4}


STATUS = {EXIT_OK: "ok", EXIT_CONFIG: "config-error", EXIT_INFEASIBLE: "infeasible"}


def scalar_fields(table):
    return [key for key, (kind, _) in table.items() if kind not in (list, dict)]


def assert_exit_0_2_or_3(code, out):
    manifest = json.loads((out / "manifest.json").read_text())
    assert code in STATUS, manifest.get("error")
    assert manifest["status"] == STATUS[code]


class TestSimulateSweep:
    # the run keeps its default arrays, a ULA transmitter and a URA receiver
    BASE = {"wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25, "seed": 5,
            "distance": {"law": "uniform", "min": 4.43, "max": 12.7},
            "snr_db": [0], "max_trials": 100, "target_errors": 20,
            "runs": [{"name": "r", "scheme": "sm"}]}
    FIELDS = ([("top", key) for key in scalar_fields(losmimo.cli.SIMULATE_FIELDS)]
              + [("run", key) for key in scalar_fields(losmimo.cli.RUN_FIELDS)]
              + [("distance", key) for key in losmimo.cli.DISTANCE_FIELDS["uniform"]]
              + [("fixed", "value")])
    # a list field's entries: none, its base's first twice, one of each JSON type
    LIST_FIELDS = [key for key, (kind, _) in losmimo.cli.SIMULATE_FIELDS.items() if kind is list]
    ENTRIES = {"empty": lambda first: [], "repeated": lambda first: [first, first],
               "number": lambda first: [0], "str": lambda first: ["7"],
               "bool": lambda first: [True], "null": lambda first: [None],
               "list": lambda first: [[first]], "object": lambda first: [{}]}

    def config(self, where, field, value):
        cfg = copy.deepcopy(self.BASE)
        if where == "fixed":
            cfg["distance"] = {"law": "fixed", "value": 8.0}
        {"top": cfg, "run": cfg["runs"][0], "distance": cfg["distance"],
         "fixed": cfg["distance"]}[where][field] = value
        return cfg

    def run(self, tmp_path, cfg):
        out = tmp_path / "out"
        code = main(["simulate", "--config", write_config(tmp_path, cfg), "--workers", "1",
                     "--out", str(out)])
        assert_exit_0_2_or_3(code, out)

    @pytest.mark.parametrize("value", SWEEP_VALUES, ids=SWEEP_IDS)
    @pytest.mark.parametrize("where,field", FIELDS, ids=[f"{w}-{f}" for w, f in FIELDS])
    def test_field_boundary_exits_0_2_or_3(self, tmp_path, monkeypatch, where, field, value):
        # a run stops at its trial budget or once every point has its target
        # of bit errors, which 0 dB gives within the first block; a run whose
        # budget and target are both above the base's could run for hours
        real = losmimo.cli.run_ber

        def guarded(sims, workers):
            for sim in sims:
                assert (sim.max_trials <= self.BASE["max_trials"]
                        or sim.target_errors <= self.BASE["target_errors"]), \
                    f"a run of {sim.max_trials} trials to {sim.target_errors} errors started"
            return real(sims, workers)

        monkeypatch.setattr(losmimo.cli, "run_ber", guarded)
        self.run(tmp_path, self.config(where, field, value))

    @pytest.mark.parametrize("entries", list(ENTRIES))
    @pytest.mark.parametrize("field", LIST_FIELDS)
    def test_list_field_boundary_exits_0_2_or_3(self, tmp_path, field, entries):
        # no entry raises the base's trial budget, so no run can go long
        self.run(tmp_path, {**self.BASE, field: self.ENTRIES[entries](self.BASE[field][0])})


class TestDesignSweep:
    BASE = _load_config("design_triangle")

    @pytest.mark.parametrize("value", SWEEP_VALUES, ids=SWEEP_IDS)
    @pytest.mark.parametrize("field", scalar_fields(losmimo.cli.DESIGN_FIELDS))
    def test_field_boundary_exits_0_2_or_3(self, tmp_path, field, value):
        out = tmp_path / "out"
        code = main(["design", "--config", write_config(tmp_path, {**self.BASE, field: value}),
                     "--out", str(out)])
        assert_exit_0_2_or_3(code, out)


class TestOutDirectory:
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys):
        # used to exit 1 with a FileExistsError traceback
        out = tmp_path / "out"
        out.write_text("keep\n")
        assert main(["gain", "sm", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: --out {str(out)!r}")
        assert out.read_text() == "keep\n"


class TestWorkerResolution:
    DESIGN = ["design", "--config", "design_triangle"]

    @pytest.mark.parametrize("argv,flag", [
        (DESIGN, "--workers"), (["curves"], "--workers"),
        (["density", "--config", "density_2x2"], "--workers"), (["gain", "sm"], "--workers"),
        (DESIGN, "--seed"), (["curves"], "--seed"), (["gain", "sm"], "--seed")],
        ids=["design", "curves", "density", "gain", "design-seed", "curves-seed", "gain-seed"])
    def test_workers_flag_belongs_to_simulate_alone(self, tmp_path, capsys, argv, flag):
        # and --seed to simulate and density, the subcommands that draw random numbers
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "2", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_flag_wins(self, tmp_path, monkeypatch):
        # the flag, not the default, reaches run_ber
        calls = []

        def record(sims, workers):
            calls.append(workers)
            return []

        monkeypatch.setattr(losmimo.cli, "run_ber", record)
        assert main(["simulate", "--config", write_config(tmp_path, MINI_SIM), "--workers", "5",
                     "--out", str(tmp_path / "out")]) == EXIT_OK
        assert calls == [5]

    def test_default_is_the_usable_cpu_count(self):
        # run_ber caps it at the channel groups
        assert build_parser().parse_args(["simulate", "--config", "fig5"]).workers == \
            losmimo.montecarlo._usable_cpus()


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


class TestManifest:
    CASES = {
        "simulate": (["simulate"], dict(MINI_SIM, snr_db=[8], max_trials=2500)),
        "design": (["design"], {"mu_max": 0.6667, "wavelength": 0.0042, "d_t": 0.06,
                                "d_r": 0.25, "tx_kind": "triangle", "eta_step": 0.05}),
        "curves": (["curves", "--eta-start", "0.9", "--eta-stop", "1.5", "--eta-step", "0.1"],
                   None),
        "density": (["density"], {"wavelength": 0.0042, "d_t": 0.145, "d_r": 0.145, "n_r": 2,
                                  "rx_kind": "ula", "distance": 10.0, "bins": 5,
                                  "samples": 1_000}),
        "gain": (["gain", "sm"], None),
    }

    @pytest.mark.parametrize("command", list(CASES))
    def test_outputs_are_the_files_written(self, tmp_path, command):
        argv, cfg = self.CASES[command]
        if cfg is not None:
            argv = argv + ["--config", write_config(tmp_path, cfg)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert sorted(outputs) == sorted(str(p) for p in out.iterdir()
                                         if p.name != "manifest.json")

    def test_environment_is_recorded(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, self.CASES["simulate"][1])
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        # this process loaded NumPy before losmimo.cli, with the variable as it is
        assert manifest["environment"] == {
            "python": platform.python_version(), "numpy": np.__version__,
            "usable_cpus": losmimo.montecarlo._usable_cpus(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


class TestPinnedOutputs:
    """sha256 of CSVs that no other test pins, recorded before the link arrays
    were gathered into one LinkSpec; the density recipes at their full 10^6
    samples (five blocks), before density blocks ran in threaded pieces; the
    two BER curves of ``SIM`` when the engine came to decode on the 2 x 2
    factor of each channel, with block keys [seed, 1, b]: a new random stream,
    which moved sm_ula_ura from 426 and 40 to 408 and 50 bit errors and
    golden_pent_tetr's 4 dB row from 385 to 350. A digest that changes is a
    changed result, to be explained in CHANGES.md, not re-recorded."""

    # early stops at 4 dB, 2,500-trial blocks, and a point with no errors
    SIM = {"wavelength": 0.0042, "d_t": 0.06, "d_r": 0.25, "n_r": 4,
           "distance": {"law": "uniform", "min": 4.43, "max": 12.7},
           "snr_db": [4, 12], "max_trials": 5000, "seed": 17,
           "runs": [{"name": "sm_ula_ura", "scheme": "sm", "tx_kind": "ula", "rx_kind": "ura"},
                    {"name": "golden_pent_tetr", "scheme": "golden", "tx_kind": "pentagon",
                     "rx_kind": "tetrahedron"}]}

    RUNS = {
        "simulate_sm_ula_ura": (["simulate"], "sm_ula_ura.csv",
                                "c3ef8f70fbcf939dc2408ac5ae798977be80a8ec97d57da6c89fb6537eeffebb"),
        "simulate_golden_pent_tetr": (
            ["simulate"], "golden_pent_tetr.csv",
            "196ba7508ac84a5c7b675fea69a264c0aaf268f2f6221c6d7be82b3a8712fc6c"),
        "design_pentagon": (["design", "--config", "design_pentagon"], "design_report.csv",
                            "d132fd0a331e1bef4a43ed651b04906a2456f8e7ef138f88f3254e1083d8217f"),
        "design_triangle": (["design", "--config", "design_triangle"], "design_report.csv",
                            "ff3b9d5a7d798df15732f6b2121051688b1d1cb5ae0654ae4f6b173172370d54"),
        "density_2x2": (["density"], "density.csv",
                        "e8892df45ae6926891d9cbf3a831e4807549e475420155353f825780a9b25395"),
        "density_2x4": (["density"], "density.csv",
                        "96e1fa52455492e0a325dfcb4c2536bfbb8830b4078ffe56930dae0f969aea95"),
        "density_2x2_full": (["density", "--config", "density_2x2"], "density.csv",
                             "6263d4eca30e859995fdb4e0e3d4a25f07d5744e9c5b21b32a2a9c3e5ce44139"),
        "density_2x4_full": (["density", "--config", "density_2x4"], "density.csv",
                             "cba6d80e47c1e3cfeb00080d4422f4074172151421c82cc2b98f6edaa4758e92"),
        "curves": (["curves"], "mu_star_curve.csv",
                   "2b85c3c7e95be76cc75bffe17079c6def0c7cc14935f97b39772820cd839827c"),
        "gain_all": (["gain", "all"], "coding_gain.csv",
                     "41746f2e16f16560897fa271637c085bbf39a3c2e5fda579b9e494bfbf0fda71"),
    }

    @pytest.mark.parametrize("name", list(RUNS))
    def test_csv_is_unchanged(self, tmp_path, name):
        argv, csv, digest = self.RUNS[name]
        if argv == ["density"]:
            # the bundled recipe at 20,000 samples
            argv = ["density", "--config", write_config(tmp_path, {**_load_config(name),
                                                                    "samples": 20_000})]
        elif argv == ["simulate"]:
            argv = ["simulate", "--config", write_config(tmp_path, self.SIM)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert hashlib.sha256((out / csv).read_bytes()).hexdigest() == digest


def run_fresh(code: str, **environ) -> str:
    """The output of ``code`` in a fresh interpreter that imports this losmimo,
    with OPENBLAS_NUM_THREADS unset unless ``environ`` sets it."""
    src = str(Path(losmimo.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.strip()


def test_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the package's import time and only
    # metrics.log_i0 and metrics.pep_exact need it
    assert run_fresh("import sys, losmimo.cli; print('scipy.special' in sys.modules)") == "False"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="threads counted in /proc")
def test_cli_import_starts_no_blas_threads():
    # NumPy's OpenBLAS used to start a thread per further CPU as it loaded,
    # which spun for about 0.1 s of CPU
    code = ("import os, losmimo.cli; "
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert run_fresh(code) == "1 1"


@pytest.mark.parametrize("code,environ,expected", [
    ("import os, losmimo.cli", {"OPENBLAS_NUM_THREADS": "2"}, "2 2"),
    ("import os, numpy, losmimo.cli", {}, "None None")],
    ids=["user-set", "numpy-loaded-first"])
def test_blas_setting_left_alone(code, environ, expected):
    # a value the user set wins, and a process that loaded NumPy first keeps
    # its pool, the manifest recording the value NumPy loaded with
    assert run_fresh(f"{code}; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
                     "losmimo.cli.BLAS_THREADS)", **environ) == expected


class TestCsvFormat:
    @staticmethod
    def reference(header, rows) -> str:
        """The table as a cell at a time formats it."""
        def cell(x) -> str:
            if x is None:
                return ""
            return str(int(x)) if isinstance(x, (int, np.integer)) else f"{x:.12g}"
        return "".join(",".join(row) + "\n" for row in [header, *([*map(cell, r)] for r in rows)])

    def test_mixed_rows_match_the_cell_format(self, tmp_path):
        rows = [(1, 2.5, None), (np.int64(-3), np.float64(1 / 3), 7), (None, None, None),
                (True, float("inf"), -0.0), (10**20, 1e-300, np.float64("nan")), ()]
        write_csv(tmp_path / "t.csv", ("a", "b", "c"), rows)
        assert (tmp_path / "t.csv").read_text() == self.reference(("a", "b", "c"), rows)

    @pytest.mark.parametrize("dtype", [np.float64, np.int64])
    def test_array_matches_the_cell_format(self, tmp_path, dtype):
        table = (np.random.default_rng(3).standard_normal((50, 3)) * 1e4).astype(dtype)
        write_csv(tmp_path / "t.csv", ("a", "b", "c"), table)
        assert (tmp_path / "t.csv").read_text() == self.reference(("a", "b", "c"), table)
