"""Gaussian mollification of the algorithmic hyperfunction.

The smoothed objective is the convolution of phi(x) = f(x, y_alg(x)) with the
Gaussian kernel of bandwidth xi.  Its gradient admits the single-sample form
E[u phi(x + xi u)] / xi with u ~ N(0, I), which is estimated by Monte Carlo;
sample points falling outside the feasible set contribute the value cap f_bar
(the constant extension of phi outside the domain).
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import rng
from .errors import ConfigError, EstimatorError
from .lower import LowerSolverConfig, run_lower_lean
from .problems import call_oracle

__all__ = [
    "SmoothingConfig", "GradientEstimate", "GradientEstimates",
    "estimate_hypergradient",
    "smoothed_step_reference", "gradient_norm_bound", "lipschitz_bound",
]


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
class GradientEstimate:
    value: np.ndarray
    samples_used: int
    per_sample_f: List[float]
    infeasible_count: int
    oracle_counts: dict


@dataclass
class GradientEstimates:
    """Estimates at several points from one call, in the order of the points:
    each entry is the point's GradientEstimate, or the EstimatorError that
    stopped it.  samples_used and infeasible_count total the points that
    succeeded."""

    per_point: list
    samples_used: int
    infeasible_count: int


def _sample_values(problem, points, u, xis, lower):
    """Hyperfunction values at points[s] + xi_s u[s, i] with the f_bar
    convention, for all points at once: every feasible sample of every point
    is one lane of a single lower solve.

    Returns values (S, N), infeasible counts (S,), oracle counts per point and
    per point the EstimatorError of its first failing sample in sample order
    (a failed lower solve or a non-finite value), or None.
    """
    S, N = u.shape[:2]
    xt = points[:, None, :] + np.asarray(xis)[:, None, None] * u
    values = np.empty((S, N))
    counts = [{"f": 0, "g": 0, "grad": 0, "hess": 0} for _ in range(S)]
    feasible = problem.feasible_set.contains(xt)
    values[~feasible] = problem.f_bar
    solve_errors = {}
    if feasible.any():
        lanes = xt[feasible]
        owner, sample = np.nonzero(feasible)
        res = run_lower_lean(problem, lanes, lower)
        with np.errstate(all="ignore"):  # a failed lane's value is NaN; reported below
            values[feasible] = call_oracle(problem, "f", lanes, res.y_hat)
        per_point = {key: np.bincount(owner, weights=res.oracle_counts[key], minlength=S)
                     for key in ("g", "grad", "hess")}
        per_point["f"] = np.bincount(owner, minlength=S)
        counts = [{key: int(c[s]) for key, c in per_point.items()} for s in range(S)]
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
    return values, (~feasible).sum(axis=1), counts, errors


def estimate_hypergradient(problem, x, n_samples, smoothings, lower: LowerSolverConfig,
                           stream_tag: int = 0) -> GradientEstimates:
    """Monte Carlo estimates (1/(N xi)) sum_i u_i f(x + xi u_i, y_hat(x + xi u_i))
    at the S points x (S, n), one SmoothingConfig per point.

    Each point draws its N directions deterministically from (master_seed,
    stream_tag) of its own config; each feasible sample runs a cold-started
    lower solve and infeasible samples contribute f_bar.  The lower solves of
    all points share one batched solve, and a failure stops only its point.
    The mean of a point's per_sample_f is its smoothed hyperfunction value.
    """
    configs = list(smoothings)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(configs):
        raise ValueError(f"x must hold {len(configs)} points as rows, got shape {x.shape}")
    if x.shape[1] != problem.n:
        raise ValueError(f"x must have dimension {problem.n}")
    u = np.stack([rng.stream(c.master_seed, rng.DOMAIN_ESTIMATOR, stream_tag)
                  .standard_normal((n_samples, x.shape[1])) for c in configs])
    values, infeasible, counts, errors = _sample_values(
        problem, x, u, [c.xi for c in configs], lower)
    estimates = []
    for s, c in enumerate(configs):
        if errors[s] is not None:
            estimates.append(errors[s])
            continue
        est = (u[s] * values[s][:, None]).sum(axis=0) / (n_samples * c.xi)
        estimates.append(GradientEstimate(value=est, samples_used=n_samples,
                                          per_sample_f=values[s].tolist(),
                                          infeasible_count=int(infeasible[s]),
                                          oracle_counts=counts[s]))
    done = [e for e in estimates if isinstance(e, GradientEstimate)]
    return GradientEstimates(estimates, sum(e.samples_used for e in done),
                             sum(e.infeasible_count for e in done))


def smoothed_step_reference(x, xi):
    """Exact Gaussian smoothing of the step phi(z) = -z (z <= 0), 1 (z > 0).

    value(x)     = Phi(x/xi) - x Phi(-x/xi) + xi phi_std(x/xi)
    derivative   = phi_std(x/xi)/xi - Phi(-x/xi)

    where Phi / phi_std are the standard normal CDF / density.  Used as the
    closed-form validation target for the Monte Carlo estimator.
    """
    if not xi > 0:
        raise ValueError("xi must be positive")
    s = x / xi
    value = _normal_cdf(s) - x * _normal_cdf(-s) + xi * _normal_pdf(s)
    derivative = _normal_pdf(s) / xi - _normal_cdf(-s)
    return float(value), float(derivative)


def _normal_cdf(z):
    """Standard normal CDF, erfc(-z / sqrt 2) / 2: accurate in both tails."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _normal_pdf(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


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
