"""The benchmark's tracer patches names that the program's modules look up in
each other; a src change that drops or renames one breaks the benchmark's
traced runs. This loads ``bench/tracing.py`` by path and installs its patches."""

import importlib.util
import sys
from pathlib import Path

from losmimo import cli, montecarlo, orientation

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# every (module, name) that Tracer.install replaces
PATCHED = {
    cli: ["run_ber", "joint_density", "SimConfig", "build_codebook", "make_layout",
          "DesignSpec", "design_link", "compute_mu_star_curve"],
    montecarlo: ["uniform_rotation", "np"],
    orientation: ["icosphere_vertices", "minimize", "mu_of_direction"],
}


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_replaces_and_restores_every_patched_name(monkeypatch):
    tracing = load_tracing(monkeypatch)
    names = [(mod, name) for mod, names in PATCHED.items() for name in names]
    before = {(mod, name): getattr(mod, name) for mod, name in names}
    module_dicts = {mod: dict(vars(mod)) for mod in PATCHED}
    with tracing.Tracer().install():
        for mod, name in names:
            assert getattr(mod, name) is not before[mod, name], f"{mod.__name__}.{name}"
        # and nothing that PATCHED does not name
        for mod, old in module_dicts.items():
            changed = {k for k, v in vars(mod).items() if k in old and v is not old[k]}
            assert changed <= set(PATCHED[mod]), f"{mod.__name__}: {changed}"
    for mod, name in names:
        assert getattr(mod, name) is before[mod, name], f"{mod.__name__}.{name}"
