"""Bilevel optimization with algorithm-defined lower-level responses.

Core pieces: Gaussian-smoothed hypergradient estimation over algorithmic
lower-level solves, a biased projected SGD outer loop with gradient-descent
or cubic-regularized-Newton inner solvers, bifurcation-set diagnostics, and
a gradient descent-ascent baseline for minimax comparisons.
"""

from .baselines import GdaTrace, detect_cycle, run_gda
from .errors import ConfigError, EstimatorError, LowerSolveError, NumericalError
from .geometry import (BifurcationScan, DimensionEstimate, Points,
                       box_counting_dimension, check_fold_conditions,
                       find_stationary_points_1d, neighborhood_measure,
                       scan_bifurcation_set)
from .lower import (CubicStep, LowerSolveResult, LowerSolverConfig,
                    solve_cubic_subproblem, solve_lower)
from .outer import (LockstepRun, OuterConfig, OuterTrace, Schedules,
                    constant_schedules, default_schedules, gradient_mapping,
                    random_index_pmf, run_scinbio, tail_stability,
                    write_summary_json, write_trace_csv)
from .problems import (BilevelProblem, FeasibleSet, PROBLEM_NAMES, box_set,
                       builtin_fold_family, builtin_minimax, builtin_quartic_family,
                       builtin_shifted_double_well, get_problem, minimax_gradient)
from .smoothing import (GradientEstimates, SmoothingConfig, estimate_hypergradient,
                        gradient_norm_bound, lipschitz_bound)

__version__ = "0.1.0"
