"""Optimal dynamic cybersecurity investment under clustered attack arrivals.

Building blocks: exact simulation and moments of a self-exciting attack
process, security-breach functions with the static investment optimum,
controlled protection-level and loss dynamics, an alternating-direction
implicit (Douglas ADI) solver for the dynamic-programming equation,
constant-intensity and constant-rate benchmarks, and standard-deviation
insurance premia.
"""

from .breach import BreachFamily, BreachModel, breach_prob, breach_prob_derivative, enbis, static_optimum
from .config import RunConfig, validate
from .dynamics import (
    ConstantRate,
    CostParams,
    GridRate,
    LossBatch,
    LossSample,
    evolve_level,
    expected_loss_no_investment,
    loss_variance,
    simulate_loss,
    simulate_losses,
)
from .errors import ConfigError, GainUndefinedError, PolicyError, SolverError, StabilityError
from .fields_io import load_field, load_poisson, save_field, save_poisson, write_field_csv
from .hawkes import (
    AttackPath,
    HawkesParams,
    MCEstimate,
    PathBatch,
    count_variance,
    expected_count,
    expected_intensity,
    intensity_variance,
    lambda_max_heuristic,
    simulate_path,
    simulate_paths,
)
from .hjb import (
    FieldMeta,
    PolicyField,
    SolveResult,
    SolverGrid,
    SolverOptions,
    ValueField,
    assemble_rhs,
    hjb_residual,
    query,
    solve,
)
from .poisson import PoissonField, lambda_baseline, lambda_expectation_matched, solve_poisson
from .premium import PremiumReport, premium, premium_report_baseline, premium_report_optimal, prevention_gap
from .strategies import (
    PolicyTrace,
    TraceSource,
    evaluate_constant,
    evaluate_deterministic,
    extract_policies_batch,
    extract_policy,
    gain_vs_constant,
    gain_vs_poisson,
    lower_bound,
    optimize_constant,
)

__version__ = "0.1.0"
