"""brwlab: a desk-scale laboratory for discrete-time branching random walks."""

from .core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    OffspringLaw,
    Projection,
    build_offspring_law,
    check_assumption_nonsingular,
    check_invariance,
    continuous_counterpart,
    dominating_law,
    product_form_law,
    project_model,
    restrict_model,
)
from .scenarios import SCENARIOS, build_scenario, line_noext_search, scenario_table, tree_rates
from .serialize import model_hash, parse_model, serialize_model
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
    check_mean_condition,
    check_subsolution,
    classify_survival,
    counterpart_model,
    eval_G,
    eval_G_geometric,
    iterate_extinction,
    lambda_sweep,
    strong_local_compare,
)
from .simulate import (
    PopulationState,
    RestrictionCoupling,
    TrialOutcome,
    TrialStreams,
    estimate_survival,
    mean_curve,
    run_coupled_trials,
    run_survival_trial,
    run_trial_batch,
    step,
    step_coupled,
    step_truncated,
    wilson_interval,
)
from .approx import (
    DriftParams,
    PercolationConfig,
    approximation_report,
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
