"""Batch command-line front-end.

Subcommands mirror the experiments: ``simulate`` (BER campaigns), ``design``
(distance-range reports), ``curves`` (worst-case correlation vs eta),
``density`` (joint (theta_mu, mu) histograms) and ``gain`` (coding gain vs mu).
Every run leaves a JSON manifest next to its outputs, including on failure,
unless ``--out`` cannot be made a directory.

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
from contextlib import contextmanager
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import __version__
from ._csv import write_csv
from .codes import SCHEMES, build_codebook, difference_spectrum
from .design import DesignSpec, InfeasibleDesignError, design_link
from .geometry import LinkSpec, make_layout
from .metrics import coding_gain
from .montecarlo import (ChannelLaw, SimConfig, channel_groups, check_campaign,
                         check_density_inputs, check_distance, check_seed, joint_density,
                         run_ber)
from .orientation import ETA_START, ETA_STEP, ETA_STOP, compute_mu_star_curve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    """A config the run cannot use; not a ValueError, so ``_located`` passes
    it through with its own location."""


@contextmanager
def _located(where: str):
    """Raise a library ValueError from the block as a config error at ``where``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
    except ValueError as exc:
        # an integer literal beyond Python's digit limit for int conversion
        raise ConfigError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Each config object's fields, name -> (JSON type, default); a field whose
# default is ``...`` is required. The link fields are lengths in metres, a seed
# of any type is ``check_seed``'s to judge, and a run's n_r of None is the top
# level's.
_LINK_FIELDS = {"wavelength": (float, ...), "d_t": (float, ...), "d_r": (float, ...)}
SIMULATE_FIELDS = {**_LINK_FIELDS, "runs": (list, ...), "snr_db": (list, ...),
                   "distance": (dict, ...), "seed": (object, SimConfig.seed), "n_r": (int, 4),
                   "max_trials": (int, SimConfig.max_trials),
                   "target_errors": (int, SimConfig.target_errors),
                   "block_trials": (int, SimConfig.block_trials)}
RUN_FIELDS = {"name": (str, ...), "scheme": (str, ...), "tx_kind": (str, "ula"),
              "rx_kind": (str, "ura"), "n_r": (int, None), "rx_coords_file": (str, None),
              "ideal_channel": (bool, ChannelLaw.ideal)}
DISTANCE_FIELDS = {"fixed": {"law": (str, ...), "value": (float, ...)},  # by law
                   "uniform": {"law": (str, ...), "min": (float, ...), "max": (float, ...)}}
DESIGN_FIELDS = {**_LINK_FIELDS, "mu_max": (float, ...), "tx_kind": (str, ...),
                 "eta_step": (float, ETA_STEP)}
DENSITY_FIELDS = {**_LINK_FIELDS, "distance": (float, ...), "seed": (object, SimConfig.seed),
                  "bins": (int, 25), "samples": (int, 1_000_000), "n_r": (int, 2),
                  "rx_kind": (str, "ula")}


def _read(cfg, table: dict, where: str) -> dict:
    """The fields of config object ``cfg`` as ``table`` declares them, with the
    defaults filled in. A float may be written as an integer, a bool is no
    number, a link length must be finite and above 0, and an unknown field is
    an error: it would otherwise be ignored and its default used."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"{where}: must be an object")
    fields = {}
    for key, (kind, default) in table.items():
        if key not in cfg:
            if default is ...:
                raise ConfigError(f"{where}: missing required field {key!r}")
            fields[key] = default
            continue
        val = cfg[key]
        if kind is float and isinstance(val, int) and not isinstance(val, bool):
            try:
                val = float(val)
            except OverflowError:
                raise ConfigError(f"{where}: field {key!r} must be a finite number, got an "
                                  "integer too large for a float") from None
        if not isinstance(val, kind) or (kind in (int, float) and isinstance(val, bool)):
            raise ConfigError(f"{where}: field {key!r} must be {kind.__name__}")
        if key in _LINK_FIELDS and not 0.0 < val < np.inf:
            raise ConfigError(f"{where}: field {key!r} must be a finite length above 0, "
                              f"got {val!r}")
        fields[key] = val
    for key in cfg:
        if key not in table:
            raise ConfigError(f"{where}: unknown field {key!r}")
    return fields


def _link(fields: dict, tx_kind: str, rx_kind: str, n_r: int, coords_file=None) -> LinkSpec:
    """The link of a config object's ``_LINK_FIELDS`` and the given arrays (a
    transmit ULA has 2 antennas); a bad kind or antenna count is a ValueError."""
    tx = make_layout(tx_kind, 2 if tx_kind == "ula" else None, fields["d_t"])
    return LinkSpec(fields["wavelength"], tx,
                    make_layout(rx_kind, n_r, fields["d_r"], coords_file=coords_file))


def _seed(args, fields: dict, where: str) -> int:
    """``--seed`` if given, else ``where``'s ``seed`` field; a bad one is a
    config error located at its source."""
    seed, source = (args.seed, "--seed") if args.seed is not None else (fields["seed"], where)
    with _located(source):
        check_seed(seed)
    return seed


def _resolve_workers(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    return args.workers


class Manifest:
    """Run record written next to the outputs in the existing ``out_dir``, even
    when the run fails; every output is written and recorded through ``write``."""

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

    def write(self, name: str, writer) -> Path:
        """Write output ``name`` with ``writer(path)``, record it and return its path."""
        path = self.out_dir / name
        writer(path)
        self.data["outputs"].append(str(path))
        return path

    def finish(self, status: str, error: str | None = None) -> None:
        self.data["status"] = status
        if error:
            self.data["error"] = error
        self.data["wall_clock_s"] = round(time.monotonic() - self._t0, 3)
        (self.out_dir / "manifest.json").write_text(json.dumps(self.data, indent=2) + "\n")


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
    top = _read(_load_config(args.config), SIMULATE_FIELDS, "simulate config")
    if not top["runs"]:
        raise ConfigError("simulate config: 'runs' must not be empty")
    seed = manifest.data["seed"] = _seed(args, top, "simulate config")
    workers = _resolve_workers(args)
    kind = top["distance"].get("law")
    if isinstance(kind, str) and kind not in DISTANCE_FIELDS:
        raise ConfigError(f"distance law must be 'fixed' or 'uniform', got {kind!r}")
    # a missing or mistyped law is the reader's to report
    dist = _read(top["distance"], DISTANCE_FIELDS[kind] if isinstance(kind, str)
                 else {"law": (str, ...)}, "distance")
    distance = dist["value"] if kind == "fixed" else (dist["min"], dist["max"])
    # the fields every run shares, checked once
    shared = dict(snr_db=top["snr_db"], max_trials=top["max_trials"],
                  target_errors=top["target_errors"], seed=seed,
                  block_trials=top["block_trials"])
    with _located("simulate config"):
        check_campaign(**shared)
        check_distance(distance)
    names, sims = [], []
    for i, raw in enumerate(top["runs"]):
        where = f"runs[{i}]"
        run = _read(raw, RUN_FIELDS, where)
        # the run's CSV is <name>.csv in --out
        if not run["name"] or Path(run["name"]).name != run["name"] or run["name"] in names:
            raise ConfigError(f"{where}: name must be a plain file name that no earlier run "
                              f"has, got {run['name']!r}")
        names.append(run["name"])
        n_r = top["n_r"] if run["n_r"] is None else run["n_r"]
        with _located(where):
            link = _link(top, run["tx_kind"], run["rx_kind"], n_r, run["rx_coords_file"])
            sims.append(SimConfig(scheme=run["scheme"],
                                  law=ChannelLaw(link, distance, run["ideal_channel"]), **shared))
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
    cfg = _read(_load_config(args.config), DESIGN_FIELDS, "design config")
    with _located("design config"):
        spec = DesignSpec(mu_max=cfg["mu_max"],
                          link=_link(cfg, cfg["tx_kind"], "tetrahedron", 4))
        curve = compute_mu_star_curve(step=cfg["eta_step"])
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
    cfg = _read(_load_config(args.config), DENSITY_FIELDS, "density config")
    seed = manifest.data["seed"] = _seed(args, cfg, "density config")
    with _located("density config"):
        law = ChannelLaw(_link(cfg, "ula", cfg["rx_kind"], cfg["n_r"]), cfg["distance"])
        check_density_inputs(law, cfg["bins"], cfg["samples"], seed)
    grid = joint_density(law, bins=cfg["bins"], samples=cfg["samples"], seed=seed)
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

    def common(p, handler, config=True, seed=False):
        p.set_defaults(handler=handler)
        if config:
            p.add_argument("--config", required=True,
                           help="JSON config path or bundled recipe name")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default="out", help="output directory (created if missing)")

    p_sim = sub.add_parser("simulate", help="run BER campaigns")
    common(p_sim, _cmd_simulate, seed=True)
    p_sim.add_argument("--workers", type=int, default=1, help="worker processes (default: 1)")
    common(sub.add_parser("design", help="compute an [R_min, R_max] design report"),
           _cmd_design)
    p_curves = sub.add_parser("curves", help="export the worst-case correlation curve")
    common(p_curves, _cmd_curves, config=False)
    p_curves.add_argument("--eta-start", type=float, default=ETA_START)
    p_curves.add_argument("--eta-stop", type=float, default=ETA_STOP)
    p_curves.add_argument("--eta-step", type=float, default=ETA_STEP)
    common(sub.add_parser("density", help="joint (theta_mu, mu) histogram"), _cmd_density,
           seed=True)
    p_gain = sub.add_parser("gain", help="coding gain versus correlation")
    p_gain.add_argument("scheme", choices=[*SCHEMES, "all"])
    p_gain.add_argument("--mu-step", type=float, default=0.01)
    common(p_gain, _cmd_gain, config=False)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        # no manifest can be written there
        print(f"error: --out {args.out!r} cannot be made a directory: {exc.strerror}",
              file=sys.stderr)
        return EXIT_CONFIG
    manifest = Manifest(Path(args.out), args.command, getattr(args, "config", None),
                        getattr(args, "seed", None))
    try:
        code = args.handler(args, manifest)
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
