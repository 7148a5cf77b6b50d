#!/usr/bin/env python3
"""Benchmark of the losmimo batch workbench.

    python3 bench/run.py --workload fig5 --seed 1 --seconds 20 --trace 0

Runs one workload (``fig5``, ``density``, ``design``, or ``all``
for each of them in turn, each in a fresh process) through
``losmimo.cli.main`` with inputs generated from ``--seed``, in whole rounds
until ``--seconds`` have passed. A round is the set of CLI invocations that
make up the workload; an operation is one CSV it writes. After the timed part
the outputs of every round are checked (see ``checks.py``) and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("fig5", "density", "design")
FIG5_BUDGET = 15_000   # trials per SNR point; the recipe's is 200,000
SETUP_SAMPLES = 5     # set-up is measured in at least this many fresh processes
RUN_LIMIT_S = 165     # a run that is not done by then (a hung round) exits non-zero

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
]
FIG5_RUNS = ("sm_ula_ura", "golden_ula_ura", "sm_pent_tetr", "golden_pent_tetr",
             "simo_ura", "ideal_sm")
PER_LAYER = (
    [("cli.main.self_s", "s", "lower")]
    + [(f"montecarlo.run_ber.{r}.{m}", u, "lower") for r in FIG5_RUNS
       for m, u in (("s", "s"), ("us_per_trial", "us"))]
    + [("montecarlo.trials", "count", "lower"),
       ("montecarlo.zero_error_trials", "count", "lower"),
       ("montecarlo.useful_trial_ratio", "ratio", "higher"),
       ("geometry.uniform_rotation.s", "s", "lower"),
       ("geometry.uniform_rotation.calls", "count", "lower"),
       ("montecarlo.joint_density.2x2.s", "s", "lower"),
       ("montecarlo.joint_density.2x4.s", "s", "lower"),
       ("montecarlo.joint_density.self_s", "s", "lower"),
       ("numpy.histogram2d.s", "s", "lower"),
       ("orientation.compute_mu_star_curve.s", "s", "lower"),
       ("orientation.grid_scan.s", "s", "lower"),
       ("orientation.icosphere_vertices.s", "s", "lower"),
       ("orientation.refine.s", "s", "lower"),
       ("orientation.refine.calls", "count", "lower"),
       ("orientation.mu_of_direction.calls", "count", "lower"),
       ("orientation.eta_points", "count", "lower"),
       ("design.design_link.s", "s", "lower"),
       ("trace.overhead_s", "s", "lower")]
)


# ------------------------------------------------------------------ inputs

def recipe(name: str) -> dict:
    import importlib.resources
    return json.loads(importlib.resources.files("losmimo.recipes").joinpath(f"{name}.json").read_text())


def prepare(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the workload's configs under ``work``; return one round as a list
    of invocations, each with its CLI arguments and the CSVs it writes."""
    work.mkdir(parents=True, exist_ok=True)
    invocations = []

    def add(command: str, name: str, cfg: dict, outputs: list[str], *extra: str):
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1))
        out = work / name
        invocations.append({
            "name": name, "config": cfg,
            "argv": [command, "--config", str(path), "--out", str(out), *extra],
            "outputs": {o: out / o for o in outputs},
        })

    if workload == "fig5":
        cfg = recipe("fig5")
        cfg.update(max_trials=FIG5_BUDGET, seed=seed)
        add("simulate", "fig5", cfg, [f"{r['name']}.csv" for r in cfg["runs"]],
            "--seed", str(seed), "--workers", "1")
    elif workload == "density":
        for name in ("density_2x2", "density_2x4"):
            cfg = recipe(name)
            cfg["seed"] = seed
            add("density", name, cfg, ["density.csv"], "--seed", str(seed))
    elif workload == "design":
        add("design", "design_pentagon", recipe("design_pentagon"), ["design_report.csv"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return invocations


# ------------------------------------------------------------------ rounds

def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_round(invocations: list[dict], tracer=None) -> dict:
    """One pass over the workload's CLI invocations, in this process."""
    from losmimo import cli

    codes = []
    patched = tracer.install() if tracer else contextlib.nullcontext()
    with patched, contextlib.redirect_stdout(io.StringIO()):
        cpu0, t0 = _cpu(), time.perf_counter()
        for inv in invocations:
            if tracer:
                with tracer.span("cli.main"):
                    codes.append(cli.main(inv["argv"]))
            else:
                codes.append(cli.main(inv["argv"]))
        wall, cpu = time.perf_counter() - t0, _cpu() - cpu0
    outputs = {}
    for inv, code in zip(invocations, codes):
        for name, path in inv["outputs"].items():
            ok = code == 0 and path.exists()
            outputs[f"{inv['name']}/{name}"] = path.read_text() if ok else None
    rss = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {"wall": wall, "cpu": cpu, "codes": codes, "outputs": outputs,
            "peak_rss_mb": sum(rss) / 1024.0}


def round_child(args) -> int:
    """Body of a round process: set up as the CLI does, run one round, and
    write the measurements to ``args.round``."""
    work = Path(args.round).with_suffix("")
    invocations = prepare(args.workload, args.seed, work)
    result = {"setup": time.monotonic() - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        result.update(run_round(invocations, tracer))
        if tracer:
            result["layers"] = layer_metrics(args.workload, tracer, invocations, result["outputs"])
            result["trace"] = tracer.record()
    Path(args.round).write_text(json.dumps(result))
    return 0


def spawn_round(workload: str, seed: int, work: Path, deadline: float, trace: bool = False,
                setup_only: bool = False) -> dict:
    """Run one round in a fresh process, as a CLI invocation runs; kill it at
    ``deadline`` (``time.monotonic``), which raises ``TimeoutExpired``."""
    work.mkdir(parents=True, exist_ok=True)
    path = work / f"round-{len(list(work.glob('round-*.json')))}.json"
    spawned = time.monotonic()
    subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--trace", str(int(trace)), "--round", str(path), "--spawned", repr(spawned)]
        + (["--setup-only"] if setup_only else []),
        check=True, timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(path.read_text())


def round_work(workload: str, invocations: list[dict], outputs: dict) -> float:
    """Work units of one round: trials kept in the CSVs (fig5),
    orientation samples binned (density), designs (design)."""
    if workload == "density":
        return float(sum(inv["config"]["samples"] for inv in invocations))
    if workload == "design":
        return 1.0
    trials = 0
    for data in outputs.values():
        if data is not None:
            trials += sum(int(r["trials"]) for r in csv.DictReader(io.StringIO(data)))
    return float(trials)


# ------------------------------------------------------------------ checks

class Checker:
    """Checks each operation of a round; expensive independent computations
    (reference samples, the dense mu* search) are made once per run."""

    def __init__(self, seed: int, invocations: list[dict]):
        import checks  # scipy.stats and scipy.spatial load after the timed part
        self.c = checks
        self.seed, self.invocations = seed, invocations
        self._mu: dict = {}
        self._worst = None
        self._design: dict = {}

    def _reference_mu(self, cfg: dict):
        c = self.c
        if cfg["n_r"] not in self._mu:
            tx = c.ula_positions(2, cfg["d_t"])
            if cfg["rx_kind"] == "ula":
                rx = c.ula_positions(cfg["n_r"], cfg["d_r"])
            elif cfg["rx_kind"] == "ura" and cfg["n_r"] == 4:
                rx = c.square_positions(cfg["d_r"])
            else:
                raise ValueError(f"no independent sampler for {cfg['rx_kind']} x {cfg['n_r']}")
            self._mu[cfg["n_r"]] = c.independent_mu(tx, rx, cfg["distance"], cfg["wavelength"],
                                                    cfg["samples"], [self.seed, 1, cfg["n_r"]])
        return self._mu[cfg["n_r"]]

    def _check_design(self, data: str, cfg: dict) -> list[str]:
        if data not in self._design:
            if self._worst is None:
                self._worst = self.c.TetraWorstCase()
            self._design[data] = self.c.check_design(self.c.parse_design_report(data), cfg,
                                                     self._worst)
        return self._design[data]

    def check(self, outputs: dict) -> dict[str, list[str]]:
        """Problems per operation of one round (empty list: passed)."""
        result = {}
        for inv in self.invocations:
            curves = {}
            for name in inv["outputs"]:
                key = f"{inv['name']}/{name}"
                if outputs[key] is None:
                    result[key] = ["no output (the CLI invocation failed)"]
                    continue
                try:
                    result[key] = self._check_one(inv, name, key, outputs[key], curves)
                except Exception as exc:  # noqa: BLE001 - a check that raises fails its operation
                    result[key] = [f"check raised {type(exc).__name__}: {exc}"]
        return result

    def _check_one(self, inv: dict, name: str, key: str, data: str, curves: dict) -> list[str]:
        c, cfg = self.c, inv["config"]
        if inv["argv"][0] == "simulate":
            run = next(r for r in cfg["runs"] if f"{r['name']}.csv" == name)
            curve = curves[run["name"]] = c.parse_ber_csv(data)
            problems = c.check_ber_curve(curve, run["scheme"], cfg["snr_db"], cfg["max_trials"],
                                         cfg["target_errors"], cfg.get("block_trials", 2500))
            if run["name"] == "ideal_sm":
                problems += c.check_ideal_sm(curve)
            if run["name"] == "sm_pent_tetr" and "sm_ula_ura" in curves:
                problems += c.check_tetra_beats_planar(curves["sm_ula_ura"], curve)
            return problems
        if inv["argv"][0] == "density":
            counts = c.parse_density_counts(data, cfg["samples"], cfg["bins"])
            return c.check_density(counts, cfg["samples"], self._reference_mu(cfg))
        return self._check_design(data, cfg)


# ------------------------------------------------------------------ per-layer metrics

def layer_metrics(workload: str, tracer, invocations: list[dict], outputs: dict) -> dict:
    from tracing import self_times
    st = self_times(tracer.spans)
    spans: dict[str, list] = {}
    for s in tracer.spans:
        spans.setdefault(s.name, []).append(s)

    def total(name):
        return sum(s.end - s.start for s in spans.get(name, []))

    def own(name):
        return sum(st[s.id] for s in spans.get(name, []))

    m = {name: 0.0 for name, _, _ in PER_LAYER}
    m["cli.main.self_s"] = own("cli.main")
    trials = zero = 0
    if workload == "fig5":
        runs = [r["name"] for r in invocations[0]["config"]["runs"]]
        for run, span in zip(runs, spans.get("montecarlo.run_ber", [])):
            data = outputs.get(f"fig5/{run}.csv")
            rows = list(csv.DictReader(io.StringIO(data))) if data else []
            n = sum(int(r["trials"]) for r in rows)
            trials += n
            zero += sum(int(r["trials"]) for r in rows if int(r["bit_errors"]) == 0)
            if run in FIG5_RUNS:
                m[f"montecarlo.run_ber.{run}.s"] = span.end - span.start
                m[f"montecarlo.run_ber.{run}.us_per_trial"] = 1e6 * (span.end - span.start) / max(n, 1)
    m["montecarlo.trials"] = trials
    m["montecarlo.zero_error_trials"] = zero
    m["montecarlo.useful_trial_ratio"] = (trials - zero) / trials if trials else 0.0
    m["geometry.uniform_rotation.s"] = total("geometry.uniform_rotation")
    m["geometry.uniform_rotation.calls"] = len(spans.get("geometry.uniform_rotation", []))
    for label, span in zip(("2x2", "2x4"), spans.get("montecarlo.joint_density", [])):
        m[f"montecarlo.joint_density.{label}.s"] = span.end - span.start
    m["montecarlo.joint_density.self_s"] = own("montecarlo.joint_density")
    m["numpy.histogram2d.s"] = total("numpy.histogram2d")
    m["orientation.compute_mu_star_curve.s"] = total("orientation.compute_mu_star_curve")
    m["orientation.grid_scan.s"] = own("orientation.compute_mu_star_curve")
    m["orientation.icosphere_vertices.s"] = total("orientation.icosphere_vertices")
    m["orientation.refine.s"] = total("orientation.refine")
    m["orientation.refine.calls"] = len(spans.get("orientation.refine", []))
    m["orientation.mu_of_direction.calls"] = tracer.counts["orientation.mu_of_direction.calls"]
    m["orientation.eta_points"] = tracer.counts["orientation.eta_points"]
    m["design.design_link.s"] = total("design.design_link")
    return m


# ------------------------------------------------------------------ runs

def run_workload(args) -> dict:
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        rounds, traced = [], []
        t_start = time.monotonic()
        deadline = t_start + RUN_LIMIT_S
        while True:
            rounds.append(spawn_round(args.workload, args.seed, work, deadline))
            if args.trace:
                traced.append(spawn_round(args.workload, args.seed, work, deadline, trace=True))
            if time.monotonic() - t_start >= args.seconds:
                break
        setups = [r["setup"] for r in rounds + traced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn_round(args.workload, args.seed, work, deadline,
                                      setup_only=True)["setup"])

        invocations = prepare(args.workload, args.seed, work / "inputs")
        checker = Checker(args.seed, invocations)
        attempted = failed = 0
        for r in rounds + traced:
            for op, problems in checker.check(r["outputs"]).items():
                attempted += 1
                if problems:
                    failed += 1
                    print(f"FAILED {args.workload} {op}: " + "; ".join(problems), file=sys.stderr)
        # the same seed must give the same bytes in every round
        correct = all(r["outputs"] == rounds[0]["outputs"] for r in rounds + traced)

        if args.trace:
            values = {name: statistics.median(r["layers"][name] for r in traced)
                      for name, _, _ in PER_LAYER}
            values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                          - statistics.median(r["wall"] for r in rounds))
            units = {name: unit for name, unit, _ in PER_LAYER}
            with open(OUT / f"trace-{args.workload}-seed{args.seed}.json", "w") as f:
                json.dump([r["trace"] for r in traced], f)
        else:
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r["wall"] for r in rounds),
                "cpu_s": statistics.median(r["cpu"] for r in rounds),
                "work_per_s": statistics.median(
                    round_work(args.workload, invocations, r["outputs"]) / r["wall"] for r in rounds),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
            units = {name: unit for name, unit, _ in END_TO_END}
        print("round walls (s): " + " ".join(f"{r['wall']:.3f}" for r in rounds + traced))
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
                "rounds": len(rounds) + len(traced)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args) -> dict:
    """Each workload in a fresh process, as a single-workload run would be."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {w} exited with code {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{w}/{name}"] = metric
            print(f"{w:8s} {name:40s} {metric['value']:.6g} {metric['unit']}")
        print(f"{w:8s} operations attempted {result['attempted']}, failed {result['failed']}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # a round process (see round_child), started by the benchmark itself
    parser.add_argument("--round", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "losmimo" / "__init__.py").is_file():
        print(f"error: no losmimo source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.round:
        import losmimo.cli  # noqa: F401 - the program's import cost is part of set-up
        return round_child(args)

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args)
        for name, metric in result["metrics"].items():
            print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
        print(f"rounds {result.pop('rounds')}, operations attempted {result['attempted']}, "
              f"failed {result['failed']}, outputs identical across rounds: {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
