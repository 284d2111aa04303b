"""Gaussian mollification of the algorithmic hyperfunction.

The smoothed objective is the convolution of phi(x) = f(x, y_alg(x)) with the
Gaussian kernel of bandwidth xi.  Its gradient admits the single-sample form
E[u phi(x + xi u)] / xi with u ~ N(0, I), which is estimated by Monte Carlo;
sample points falling outside the feasible set contribute the value cap f_bar
(the constant extension of phi outside the domain).  One estimator call serves
S points and returns its results as columns over them (GradientEstimates).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import ConfigError, EstimatorError
from .lower import LowerSolverConfig, run_lower_lean
from .problems import call_oracle

__all__ = [
    "SmoothingConfig", "GradientEstimates", "ORACLE_KEYS", "estimate_hypergradient",
    "gradient_norm_bound", "lipschitz_bound",
]

ORACLE_KEYS = ("f", "g", "grad", "hess")


@dataclass(frozen=True)
class SmoothingConfig:
    """Bandwidth and master seed of the smoothing/sampling pipeline."""

    xi: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        msgs = []
        if not 0 < self.xi < math.inf:
            msgs.append("xi must be positive and finite")
        if self.master_seed < 0:
            msgs.append("master_seed must be nonnegative")
        if msgs:
            raise ConfigError(msgs)


@dataclass
class GradientEstimates:
    """Estimates at S points from one call, as columns in the order of the
    points: value (S, n); per_sample_f (S, N), each sample's hyperfunction
    value (f_bar outside the feasible set), whose row mean is the point's
    smoothed value; infeasible (S,), the samples outside the feasible set;
    oracle_counts (S, 4), one column per ORACLE_KEYS entry.  errors[s] is the
    EstimatorError that stopped point s, or None; a stopped point's value row
    is NaN.  samples_used and infeasible_count total the points that
    succeeded."""

    value: np.ndarray
    per_sample_f: np.ndarray
    infeasible: np.ndarray
    oracle_counts: np.ndarray
    errors: list
    samples_used: int
    infeasible_count: int


def estimate_hypergradient(problem, x, n_samples, smoothings, lower: LowerSolverConfig,
                           stream_tag: int = 0) -> GradientEstimates:
    """Monte Carlo estimates (1/(N xi)) sum_i u_i f(x + xi u_i, y_hat(x + xi u_i))
    at the S points x (S, n), one SmoothingConfig per point.

    Each point draws its N directions deterministically from (master_seed,
    stream_tag) of its own config.  Every feasible sample of every point is
    one lane of a single cold-started lower solve, and infeasible samples
    contribute f_bar.  A point stops at its first bad sample in sample order,
    a failed lower solve or a non-finite value; the other points are
    unaffected.
    """
    configs = list(smoothings)
    S = len(configs)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != S:
        raise ValueError(f"x must hold {S} points as rows, got shape {x.shape}")
    if x.shape[1] != problem.n:
        raise ValueError(f"x must have dimension {problem.n}")
    xis = np.array([c.xi for c in configs])
    u = np.stack([rng.stream(c.master_seed, rng.DOMAIN_ESTIMATOR, stream_tag)
                  .standard_normal((n_samples, x.shape[1])) for c in configs])
    xt = x[:, None, :] + xis[:, None, None] * u
    values = np.empty((S, n_samples))
    counts = np.zeros((S, len(ORACLE_KEYS)), dtype=int)
    feasible = problem.feasible_set.contains(xt)
    values[~feasible] = problem.f_bar
    lanes = xt[feasible]
    owner, sample = np.nonzero(feasible)
    res = run_lower_lean(problem, lanes, lower)
    with np.errstate(all="ignore"):  # a failed lane's value is NaN; reported below
        values[feasible] = call_oracle(problem, "f", lanes, res.y_hat)
    # the solve counts no f; weights=None counts its one call per lane, at y_hat
    for j, key in enumerate(ORACLE_KEYS):
        counts[:, j] = np.bincount(owner, weights=res.oracle_counts.get(key), minlength=S)
    solve_errors = {(int(owner[lane]), int(sample[lane])): exc
                    for lane, exc in enumerate(res.errors) if exc is not None}
    bad = ~np.isfinite(values)
    for s, i in solve_errors:
        bad[s, i] = True
    errors = [None] * S
    for s, i in np.argwhere(bad).tolist():  # each point's first bad sample comes first
        if errors[s] is None:
            exc = solve_errors.get((s, i))
            errors[s] = EstimatorError(
                f"non-finite objective value on sample {i}" if exc is None
                else f"lower-level solve failed on sample {i}: {exc}", sample_index=i)
            errors[s].__cause__ = exc
    stopped = np.where(bad, np.nan, values)  # NaN rows; an inf sample would warn in inf - inf
    value = (u * stopped[:, :, None]).sum(axis=1) / (n_samples * xis[:, None])
    infeasible, ok = (~feasible).sum(axis=1), ~bad.any(axis=1)
    return GradientEstimates(value, values, infeasible, counts, errors,
                             n_samples * int(ok.sum()), int(infeasible[ok].sum()))


def gradient_norm_bound(f_bar, xi):
    """Uniform ceiling sqrt(2/pi) f_bar / xi on the smoothed gradient norm."""
    if f_bar < 0 or not xi > 0:
        raise ValueError("f_bar must be >= 0 and xi > 0")
    return math.sqrt(2.0 / math.pi) * f_bar / xi


def lipschitz_bound(f_bar, xi):
    """Gradient Lipschitz constant f_bar / xi^2 of the smoothed hyperfunction."""
    if f_bar < 0 or not xi > 0:
        raise ValueError("f_bar must be >= 0 and xi > 0")
    return f_bar / (xi * xi)
