"""Batch command-line front-end.

Subcommands mirror the experiments: ``simulate`` (BER campaigns), ``design``
(distance-range reports), ``curves`` (worst-case correlation vs eta),
``density`` (joint (theta_mu, mu) histograms) and ``gain`` (coding gain vs mu).
Every run leaves a JSON manifest next to its outputs, including on failure.

Exit codes: 0 success, 2 configuration error, 3 infeasible design,
4 runtime failure.
"""

from __future__ import annotations

import argparse
import importlib.resources
import json
import multiprocessing
import sys
import time
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv
from .codes import SCHEMES, build_codebook, difference_spectrum
from .design import DesignSpec, InfeasibleDesignError, design_link
from .geometry import LinkSpec, make_layout
from .metrics import coding_gain
from .montecarlo import (SimConfig, channel_groups, check_density_inputs, check_seed,
                         joint_density, run_ber)
from .orientation import compute_mu_star_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    """A config the run cannot use; not a ValueError, so the handlers' wrapping
    of library ValueErrors passes it through with its own location."""


def _load_config(spec: str) -> dict:
    """Load a JSON config from a path or a bundled recipe name."""
    path = Path(spec)
    if not path.exists():
        res = importlib.resources.files("losmimo.recipes").joinpath(f"{spec}.json")
        if res.is_file():
            return json.loads(res.read_text())
        raise ConfigError(f"config not found: {spec!r} is neither a file nor a bundled recipe")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_REQUIRED = object()
# the fields of every config object that ``_link`` reads
LINK_FIELDS = ("wavelength", "d_t", "d_r")


def _known_fields(cfg, known, where: str) -> dict:
    """``cfg``, checked to be an object all of whose fields are in ``known``:
    a misspelt field would otherwise be ignored and its default used."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: must be an object")
    for key in cfg:
        if key not in known:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return cfg


def _require(cfg: dict, key: str, kind, where: str, default=_REQUIRED):
    """Field ``key`` of ``cfg``, of type ``kind``; ``default`` if the field is
    absent and a default is given. A float may be written as an integer, and a
    bool is no number."""
    if key not in cfg:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field {key!r}")
        return default
    val = cfg[key]
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or (kind is not bool and isinstance(val, bool)):
        raise ConfigError(f"{where}: field {key!r} must be {kind.__name__}")
    return val


def _length_field(cfg: dict, key: str, where: str) -> float:
    """A required length in metres; NaN, infinity, zero and negatives are rejected."""
    val = _require(cfg, key, float, where)
    if not 0.0 < val < np.inf:
        raise ConfigError(f"{where}: field {key!r} must be a finite length above 0, got {val!r}")
    return val


def _link(cfg: dict, where: str, tx_kind: str, rx_kind: str, n_r: int,
          coords_file=None) -> LinkSpec:
    """The link of a config: ``wavelength``, ``d_t`` and ``d_r`` read from ``cfg``
    as ``where``'s fields, and the arrays ``make_layout`` builds from them (a
    transmit ULA has 2 antennas). A bad kind or antenna count raises the
    library's ValueError, for the caller to locate."""
    wavelength, d_t, d_r = (_length_field(cfg, key, where) for key in LINK_FIELDS)
    tx = make_layout(tx_kind, 2 if tx_kind == "ula" else None, d_t)
    return LinkSpec(wavelength, tx, make_layout(rx_kind, n_r, d_r, coords_file=coords_file))


def _seed(args, cfg: dict, where: str) -> int:
    """The run's seed: ``--seed`` if given, else ``where``'s ``seed`` field
    (default 0). A bad one is a config error located at its source."""
    seed, source = (args.seed, "--seed") if args.seed is not None else (cfg.get("seed", 0), where)
    try:
        check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return seed


def _resolve_workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


class Manifest:
    """Run record written next to the outputs, even when the run fails; every
    output is written and recorded through ``write``."""

    def __init__(self, out_dir: Path, subcommand: str, config: str | None, seed: int | None):
        self.out_dir = out_dir
        self.data = {
            "subcommand": subcommand,
            "config": config,
            "seed": seed,
            "outputs": [],
            "version": __version__,
            "wall_clock_s": None,
            "status": "running",
        }
        self._t0 = time.monotonic()

    def _path(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        return self.out_dir / name

    def write(self, name: str, writer) -> Path:
        """Write output ``name`` with ``writer(path)``, record it and return its path."""
        path = self._path(name)
        writer(path)
        self.data["outputs"].append(str(path))
        return path

    def finish(self, status: str, error: str | None = None) -> None:
        self.data["status"] = status
        if error:
            self.data["error"] = error
        self.data["wall_clock_s"] = round(time.monotonic() - self._t0, 3)
        self._path("manifest.json").write_text(json.dumps(self.data, indent=2) + "\n")


PLOT_BER = """\
#!/usr/bin/env python3
\"\"\"Plot the BER curves emitted by `losmimo simulate`.\"\"\"
import csv
import sys
from pathlib import Path

import matplotlib.pyplot as plt

files = sys.argv[1:] or sorted(str(p) for p in Path(__file__).parent.glob("*.csv"))
for name in files:
    rows = list(csv.DictReader(open(name)))
    snr = [float(r["snr_db"]) for r in rows]
    ber = [float(r["ber"]) for r in rows]
    plt.semilogy(snr, ber, marker="o", label=Path(name).stem)
plt.xlabel("SNR (dB)")
plt.ylabel("BER")
plt.grid(True, which="both", alpha=0.3)
plt.legend()
plt.tight_layout()
plt.savefig(Path(__file__).parent / "ber.png", dpi=150)
print("wrote", Path(__file__).parent / "ber.png")
"""

PLOT_DENSITY = """\
#!/usr/bin/env python3
\"\"\"Plot the joint histogram emitted by `losmimo density`.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt
import numpy as np

path = Path(__file__).parent / "density.csv"
rows = list(csv.DictReader(open(path)))
theta = sorted({float(r["theta_bin_center"]) for r in rows})
mu = sorted({float(r["mu_bin_center"]) for r in rows})
grid = np.zeros((len(theta), len(mu)))
for r in rows:
    i = theta.index(float(r["theta_bin_center"]))
    j = mu.index(float(r["mu_bin_center"]))
    grid[i, j] = float(r["density"])
fig = plt.figure(figsize=(7, 5))
ax = fig.add_subplot(projection="3d")
tt, mm = np.meshgrid(theta, mu, indexing="ij")
ax.plot_surface(tt, mm, grid, cmap="viridis")
ax.set_xlabel("theta_mu (rad)")
ax.set_ylabel("mu")
ax.set_zlabel("density")
fig.tight_layout()
fig.savefig(Path(__file__).parent / "density.png", dpi=150)
print("wrote", Path(__file__).parent / "density.png")
"""

PLOT_CURVES = """\
#!/usr/bin/env python3
\"\"\"Plot the worst-case correlation curves emitted by `losmimo curves`.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

path = Path(__file__).parent / "mu_star_curve.csv"
rows = list(csv.DictReader(open(path)))
eta = [float(r["eta"]) for r in rows]
plt.plot(eta, [float(r["mu_star"]) for r in rows], label="mu*")
plt.plot(eta, [float(r["mu_star_pent"]) for r in rows], label="mu*_pent")
bound = [(float(r["eta"]), float(r["upper_bound"])) for r in rows if r["upper_bound"]]
plt.plot([b[0] for b in bound], [b[1] for b in bound], "--", label="upper bound")
plt.axhline(2 / 3, color="k", lw=0.8, label="mu_max = 2/3")
plt.xlabel("eta")
plt.ylabel("worst-case correlation")
plt.grid(alpha=0.3)
plt.legend()
plt.tight_layout()
plt.savefig(Path(__file__).parent / "mu_star.png", dpi=150)
print("wrote", Path(__file__).parent / "mu_star.png")
"""


def _cmd_simulate(args, manifest: Manifest) -> int:
    cfg = _known_fields(_load_config(args.config), LINK_FIELDS + (
        "runs", "snr_db", "seed", "distance", "n_r", "max_trials", "target_errors",
        "block_trials"), "simulate config")
    runs = _require(cfg, "runs", list, "simulate config")
    if not runs:
        raise ConfigError("simulate config: 'runs' must not be empty")
    snr_db = _require(cfg, "snr_db", list, "simulate config")
    seed = manifest.data["seed"] = _seed(args, cfg, "simulate config")
    workers = _resolve_workers(args)
    dist_cfg = _require(cfg, "distance", dict, "simulate config")
    law = _require(dist_cfg, "law", str, "distance")
    if law == "fixed":
        _known_fields(dist_cfg, ("law", "value"), "distance")
        distance = _require(dist_cfg, "value", float, "distance")
    elif law == "uniform":
        _known_fields(dist_cfg, ("law", "min", "max"), "distance")
        distance = (_require(dist_cfg, "min", float, "distance"),
                    _require(dist_cfg, "max", float, "distance"))
    else:
        raise ConfigError(f"distance law must be 'fixed' or 'uniform', got {law!r}")
    names, sims = [], []
    for i, run in enumerate(runs):
        where = f"runs[{i}]"
        _known_fields(run, ("name", "scheme", "tx_kind", "rx_kind", "n_r", "rx_coords_file",
                            "ideal_channel"), where)
        name = _require(run, "name", str, where)
        try:
            sim = SimConfig(
                scheme=_require(run, "scheme", str, where),
                link=_link(cfg, "simulate config", _require(run, "tx_kind", str, where, "ula"),
                           _require(run, "rx_kind", str, where, "ura"),
                           _require(run, "n_r", int, where,
                                    _require(cfg, "n_r", int, "simulate config", 4)),
                           _require(run, "rx_coords_file", str, where, None)),
                distance=distance,
                snr_db=tuple(snr_db),
                max_trials=_require(cfg, "max_trials", int, "simulate config", 200_000),
                target_errors=_require(cfg, "target_errors", int, "simulate config", 200),
                seed=seed,
                block_trials=_require(cfg, "block_trials", int, "simulate config", 2_500),
                ideal_channel=_require(run, "ideal_channel", bool, where, False),
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        names.append(name)
        sims.append(sim)
    manifest.data["shared_channels"] = [[names[i] for i in g] for g in channel_groups(sims)]
    # every run is checked before the first one starts; they run in one call,
    # on one pool
    pool = multiprocessing.Pool(workers) if workers > 1 else None
    try:
        curves = run_ber(sims, pool)
    finally:
        if pool is not None:
            # close and join: terminating a pool with queued work can deadlock
            pool.close()
            pool.join()
    for name, curve in zip(names, curves):
        print(f"simulate: wrote {manifest.write(f'{name}.csv', curve.write_csv)}")
    manifest.write("plot_ber.py", lambda path: path.write_text(PLOT_BER))
    return EXIT_OK


def _cmd_design(args, manifest: Manifest) -> int:
    cfg = _known_fields(_load_config(args.config),
                        LINK_FIELDS + ("mu_max", "tx_kind", "eta_step"), "design config")
    try:
        spec = DesignSpec(
            mu_max=_require(cfg, "mu_max", float, "design config"),
            link=_link(cfg, "design config", _require(cfg, "tx_kind", str, "design config"),
                       "tetrahedron", 4),
        )
        curve = compute_mu_star_curve(step=_require(cfg, "eta_step", float, "design config",
                                                    0.01))
    except ValueError as exc:
        raise ConfigError(f"design config: {exc}") from exc
    result = design_link(spec, curve)
    out = manifest.write("design_report.csv", lambda path: write_csv(
        path, ("eta_min", "eta_max", "r_min_m", "r_max_m", "beta_max_rad", "mu_max"),
        [astuple(result)]))
    print(f"design: {spec.link.tx.kind} transmit, mu_max = {spec.mu_max:g}")
    print(f"  eta in [{result.eta_min:.4f}, {result.eta_max:.4f}]")
    print(f"  R   in [{result.r_min:.3f}, {result.r_max:.3f}] m "
          f"(beta_max = {result.beta_max:.4f} rad)")
    print(f"design: wrote {out}")
    return EXIT_OK


def _cmd_curves(args, manifest: Manifest) -> int:
    try:
        curve = compute_mu_star_curve(args.eta_start, args.eta_stop, args.eta_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = manifest.write("mu_star_curve.csv", curve.write_csv)
    manifest.write("plot_curves.py", lambda path: path.write_text(PLOT_CURVES))
    print(f"curves: wrote {out}")
    return EXIT_OK


def _cmd_density(args, manifest: Manifest) -> int:
    cfg = _known_fields(_load_config(args.config), LINK_FIELDS + (
        "seed", "distance", "bins", "samples", "n_r", "rx_kind"), "density config")
    seed = manifest.data["seed"] = _seed(args, cfg, "density config")
    r_link = _require(cfg, "distance", float, "density config")
    bins = _require(cfg, "bins", int, "density config", 25)
    samples = _require(cfg, "samples", int, "density config", 1_000_000)
    n_r = _require(cfg, "n_r", int, "density config", 2)
    try:
        link = _link(cfg, "density config", "ula",
                     _require(cfg, "rx_kind", str, "density config", "ula"), n_r)
        check_density_inputs(link, r_link, bins, samples, seed)
    except ValueError as exc:
        raise ConfigError(f"density config: {exc}") from exc
    grid = joint_density(link, r_link=r_link, bins=bins, samples=samples, seed=seed)
    out = manifest.write("density.csv", grid.write_csv)
    manifest.write("plot_density.py", lambda path: path.write_text(PLOT_DENSITY))
    print(f"density: {grid.samples} samples over {grid.counts.shape} bins; wrote {out}")
    return EXIT_OK


def _cmd_gain(args, manifest: Manifest) -> int:
    if not np.isfinite(args.mu_step):
        raise ConfigError(f"mu step must be finite, got {args.mu_step!r}")
    if not args.mu_step > 0:
        raise ConfigError("mu step must be positive")
    schemes = list(SCHEMES) if args.scheme == "all" else [args.scheme]
    mus = np.arange(0.0, 1.0 + 1e-12, args.mu_step)
    table = np.column_stack(
        [mus] + [coding_gain(difference_spectrum(build_codebook(s)), mus) for s in schemes])
    out = manifest.write("coding_gain.csv", lambda path: write_csv(
        path, ["mu"] + [f"gain_{s}" for s in schemes], table))
    print(f"gain: wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="losmimo",
        description="Line-of-sight MIMO workbench: geometry-driven BER campaigns, "
                    "worst-case correlation curves and distance-range design.")
    parser.add_argument("--version", action="version", version=f"losmimo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, seed=False):
        if config:
            p.add_argument("--config", required=True,
                           help="JSON config path or bundled recipe name")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (created if missing)")

    p_sim = sub.add_parser("simulate", help="run BER campaigns")
    common(p_sim, seed=True)
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    common(sub.add_parser("design", help="compute an [R_min, R_max] design report"))
    p_curves = sub.add_parser("curves", help="export the worst-case correlation curve")
    common(p_curves, config=False)
    p_curves.add_argument("--eta-start", type=float, default=0.3)
    p_curves.add_argument("--eta-stop", type=float, default=3.0)
    p_curves.add_argument("--eta-step", type=float, default=0.01)
    common(sub.add_parser("density", help="joint (theta_mu, mu) histogram"), seed=True)
    p_gain = sub.add_parser("gain", help="coding gain versus correlation")
    p_gain.add_argument("scheme", choices=[*SCHEMES, "all"])
    p_gain.add_argument("--mu-step", type=float, default=0.01)
    common(p_gain, config=False)
    return parser


_HANDLERS = {
    "simulate": _cmd_simulate,
    "design": _cmd_design,
    "curves": _cmd_curves,
    "density": _cmd_density,
    "gain": _cmd_gain,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = Manifest(Path(args.out), args.command, getattr(args, "config", None),
                        getattr(args, "seed", None))
    try:
        code = _HANDLERS[args.command](args, manifest)
    except ConfigError as exc:
        manifest.finish("config-error", str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleDesignError as exc:
        manifest.finish("infeasible", str(exc))
        print(f"infeasible design: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as exc:  # noqa: BLE001 - manifest must record any failure
        manifest.finish("error", f"{type(exc).__name__}: {exc}")
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    manifest.finish("ok")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
