"""brwlab: a desk-scale laboratory for discrete-time branching random walks."""

from .core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    OffspringLaw,
    build_offspring_law,
    check_assumption_nonsingular,
    continuous_counterpart,
    dominating_law,
    product_form_law,
    restrict_model,
)
from .scenarios import SCENARIOS, build_scenario, line_noext_search, scenario_table, tree_rates
from .serialize import model_hash, serialize_model
from .spectral import (
    GrowthEstimate,
    MomentMatrix,
    expected_population,
    first_return_series,
    global_growth_rate,
    green_series,
    local_growth_rate,
    moment_matrix,
    seneta_sequence,
)
from .genfun import (
    SurvivalReport,
    check_subsolution,
    classify_survival,
    counterpart_model,
    eval_G,
    iterate_extinction,
    lambda_sweep,
    strong_local_compare,
    survival_probability,
)
from .simulate import (
    RestrictionCoupling,
    TrialOutcome,
    TrialStreams,
    estimate_survival,
    mean_curve,
    run_coupled_trials,
    run_survival_trial,
    run_trial_batch,
    wilson_interval,
)
from .approx import (
    DriftParams,
    PercolationConfig,
    ball_exhaustion,
    chebyshev_k,
    oriented_percolation,
    q_value,
    spatial_experiment,
    supercritical_region,
    truncation_sweep,
    variance_bound,
)

__version__ = "0.1.0"
