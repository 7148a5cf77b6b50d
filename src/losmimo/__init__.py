"""Line-of-sight MIMO workbench.

Synthesises 2 x n_r LoS channels from 3-D array geometry under random
orientations, evaluates pairwise-error-probability metrics and bounds,
computes the worst-case correlation of tetrahedral receivers, performs the
triangle/pentagon antenna-selection and distance-range design, and runs
seed-reproducible Monte-Carlo BER and density experiments.

The names below load with their module on first use, so ``import losmimo``
loads no NumPy: ``losmimo.cli`` can set up the process NumPy loads into.
"""

import importlib

__version__ = "0.1.0"

# each module and the names the package re-exports from it
_EXPORTS = {
    "channel": ("closed_form_2x2", "deviation_factor", "los_channel", "mu_model"),
    "codes": ("Codebook", "Constellation", "SCHEMES", "build_codebook", "difference_spectrum",
              "golden_codebook", "gray_qam", "sm_codebook", "simo_codebook"),
    "design": ("DesignResult", "DesignSpec", "InfeasibleDesignError", "design_link",
               "distance_range", "eta_range", "select_tx_pair", "select_tx_pair_for_quality"),
    "geometry": ("ArrayLayout", "LinkSpec", "make_layout", "uniform_rotation"),
    "metrics": ("coding_gain", "d_metric", "pep_avg_theta", "pep_chernoff", "pep_exact",
                "pep_worst", "planar_lower_bound", "union_bound"),
    "montecarlo": ("BerCurve", "ChannelLaw", "DensityGrid", "SimConfig", "joint_density",
                   "ml_decode", "run_ber"),
    "orientation": ("MuStarCurve", "compute_mu_star_curve", "default_curve", "edge_code",
                    "mu_of_direction", "mu_star", "mu_star_bound"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

# the modules are public names of the package too
__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *__all__])
