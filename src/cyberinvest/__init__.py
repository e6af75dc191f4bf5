"""Optimal dynamic cybersecurity investment under clustered attack arrivals.

Building blocks: exact simulation and moments of a self-exciting attack
process, security-breach functions with the static investment optimum,
controlled protection-level and loss dynamics, an alternating-direction
implicit (Douglas ADI) solver for the dynamic-programming equation,
constant-intensity and constant-rate benchmarks, and standard-deviation
insurance premia.

Importing the package sets OPENBLAS_NUM_THREADS=1 in os.environ unless
OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS is already set, which
then wins. OpenBLAS starts a worker thread per core when it loads, a cost that
dominates a short-lived process: a command, or the first solve of one. Repeated
work on the standard grid pays for one thread instead (a warm loss-moment pair
takes 164 ms against 141 ms on two threads); a program that runs it many times
may set a count. The default acts only on BLAS libraries loaded after
`import cyberinvest`: if numpy was imported first, only scipy's copy, loaded by
the first solve, runs on one thread. Being in os.environ, it also reaches the
BLAS libraries the program loads later and every child process it starts.
Results do not depend on the count.
"""

import os as _os

if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys():
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before any submodule imports numpy

from .breach import BreachFamily, BreachModel, breach_prob, breach_prob_derivative, enbis, static_optimum
from .config import RunConfig, validate
from .dynamics import (
    ConstantRate,
    CostParams,
    GridRate,
    LossBatch,
    evolve_level,
    expected_loss_no_investment,
    loss_variance,
    simulate_loss,
    simulate_losses,
)
from .errors import ConfigError, GainUndefinedError, PolicyError, SolverError, StabilityError
from .fields_io import load_field, save_field, write_field_csv
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
    derive_policy,
    hjb_residual,
    query,
    solve,
)
from .poisson import PoissonField, lambda_baseline, lambda_expectation_matched, solve_poisson
from .premium import PremiumReport, premium, premium_report_baseline, premium_report_optimal, prevention_gap
from .strategies import (
    PolicyTrace,
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
