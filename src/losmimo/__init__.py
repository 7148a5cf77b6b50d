"""Line-of-sight MIMO workbench.

Synthesises 2 x n_r LoS channels from 3-D array geometry under random
orientations, evaluates pairwise-error-probability metrics and bounds,
computes the worst-case correlation of tetrahedral receivers, performs the
triangle/pentagon antenna-selection and distance-range design, and runs
seed-reproducible Monte-Carlo BER and density experiments.
"""

__version__ = "0.1.0"

from .channel import (
    ReducedChannel,
    closed_form_2x2,
    deviation_factor,
    los_channel,
    mu_model,
    reduce_channel,
)
from .codes import (
    Codebook,
    Constellation,
    DiffSpectrum,
    SCHEMES,
    build_codebook,
    difference_spectrum,
    golden_codebook,
    gray_qam,
    sm_codebook,
    simo_codebook,
)
from .design import (
    DesignResult,
    DesignSpec,
    InfeasibleDesignError,
    design_link,
    distance_range,
    eta_range,
    select_tx_pair,
    select_tx_pair_for_quality,
)
from .geometry import (
    ArrayLayout,
    LinkScenario,
    LinkSpec,
    approx_path_difference,
    exact_distances,
    make_layout,
    place_antennas,
    uniform_rotation,
)
from .metrics import (
    coding_gain,
    d_metric,
    pep_avg_theta,
    pep_chernoff,
    pep_exact,
    pep_worst,
    planar_lower_bound,
    union_bound,
)
from .montecarlo import (
    BerCurve,
    DensityGrid,
    SimConfig,
    joint_density,
    ml_decode,
    run_ber,
)
from .orientation import (
    MuStarCurve,
    best_submatrix,
    compute_mu_star_curve,
    default_curve,
    edge_code,
    edge_code_worst_distortion,
    mu_of_direction,
    mu_star,
    mu_star_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
