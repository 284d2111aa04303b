"""Gaussian mollification of the algorithmic hyperfunction.

The smoothed objective is the convolution of phi(x) = f(x, y_alg(x)) with the
Gaussian kernel of bandwidth xi.  Its gradient admits the single-sample form
E[u phi(x + xi u)] / xi with u ~ N(0, I), which is estimated by Monte Carlo;
sample points falling outside the feasible set contribute the value cap f_bar
(the constant extension of phi outside the domain).
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np
from scipy.stats import norm

from . import rng
from .errors import ConfigError, EstimatorError, LowerSolveError
from .lower import LowerSolverConfig, run_lower_lean

__all__ = [
    "SmoothingConfig", "GradientEstimate", "gaussian_kernel",
    "estimate_hypergradient", "estimate_smoothed_value",
    "smoothed_step_reference", "gradient_norm_bound", "lipschitz_bound",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Bandwidth and master seed of the smoothing/sampling pipeline."""

    xi: float = 0.05
    master_seed: int = 0

    def __post_init__(self):
        msgs = []
        if not self.xi > 0:
            msgs.append("xi must be positive")
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


def gaussian_kernel(z, xi):
    """Density (2 pi xi^2)^(-n/2) exp(-||z||^2 / (2 xi^2)) at z (n from len(z))."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not xi > 0:
        raise ValueError("xi must be positive")
    n = z.shape[0]
    q = float(z @ z) / (2.0 * xi * xi)
    return (2.0 * math.pi * xi * xi) ** (-0.5 * n) * math.exp(-q)


def _checked_point(problem, x, n_samples, lower, phi):
    """x as a 1-D float array, after the checks both estimators share."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if problem is None and phi is None:
        raise ValueError("need a problem or a direct phi hook")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if problem is not None and x.shape[0] != problem.n:
        raise ValueError(f"x must have dimension {problem.n}")
    if phi is None and lower is None:
        raise ValueError("a lower-solver config is required without a phi hook")
    return x


def _draw_directions(smoothing, stream_tag, n_samples, n):
    gen = rng.stream(smoothing.master_seed, rng.DOMAIN_ESTIMATOR, stream_tag)
    return gen.standard_normal((n_samples, n))


def _sample_values(problem, x, u, smoothing, lower, phi):
    """Per-sample hyperfunction values with the f_bar convention; bookkeeping."""
    xi = smoothing.xi
    n_samples = u.shape[0]
    values = np.empty(n_samples)
    infeasible = 0
    counts = {"f": 0, "g": 0, "grad": 0, "hess": 0}
    contains = problem.feasible_set.contains if problem is not None else None
    for i in range(n_samples):
        xt = x + xi * u[i]
        if contains is not None and not contains(xt):
            values[i] = problem.f_bar
            infeasible += 1
            continue
        if phi is not None:
            values[i] = float(phi(xt))
        else:
            try:
                y_hat, c = run_lower_lean(problem, xt, lower)
            except LowerSolveError as exc:
                raise EstimatorError(
                    f"lower-level solve failed on sample {i}: {exc}",
                    sample_index=i) from exc
            counts["g"] += c.get("g", 0)
            counts["grad"] += c.get("grad", 0)
            counts["hess"] += c.get("hess", 0)
            values[i] = problem.f(xt, y_hat)
            counts["f"] += 1
        if not math.isfinite(values[i]):
            raise EstimatorError(f"non-finite objective value on sample {i}",
                                 sample_index=i)
    return values, infeasible, counts


def estimate_hypergradient(problem, x, n_samples, smoothing: SmoothingConfig,
                           lower: Optional[LowerSolverConfig] = None,
                           stream_tag: int = 0,
                           phi: Optional[Callable] = None) -> GradientEstimate:
    """Monte Carlo estimate (1/(N xi)) sum_i u_i f(x + xi u_i, y_hat(x + xi u_i)).

    Directions are drawn deterministically from (master_seed, stream_tag);
    each feasible sample runs a cold-started lower solve, infeasible samples
    contribute f_bar.  `phi` is a test hook that replaces the (f, lower-solve)
    pipeline with a direct scalar function; pass problem=None with it to
    disable the feasibility cap entirely.
    """
    x = _checked_point(problem, x, n_samples, lower, phi)
    u = _draw_directions(smoothing, stream_tag, n_samples, x.shape[0])
    values, infeasible, counts = _sample_values(problem, x, u, smoothing, lower, phi)
    est = (u * values[:, None]).sum(axis=0) / (n_samples * smoothing.xi)
    return GradientEstimate(value=est, samples_used=n_samples,
                            per_sample_f=values.tolist(),
                            infeasible_count=infeasible,
                            oracle_counts=counts)


def estimate_smoothed_value(problem, x, n_samples, smoothing: SmoothingConfig,
                            lower: Optional[LowerSolverConfig] = None,
                            stream_tag: int = 0,
                            phi: Optional[Callable] = None) -> float:
    """Monte Carlo estimate (1/N) sum_i f_i of the smoothed hyperfunction value.

    Shares the sampling scheme and f_bar convention of the gradient estimator:
    the same (master_seed, stream_tag) reproduces the same sample points.
    """
    x = _checked_point(problem, x, n_samples, lower, phi)
    u = _draw_directions(smoothing, stream_tag, n_samples, x.shape[0])
    values, _, _ = _sample_values(problem, x, u, smoothing, lower, phi)
    return float(values.mean())


def smoothed_step_reference(x, xi):
    """Exact Gaussian smoothing of the step phi(z) = -z (z <= 0), 1 (z > 0).

    value(x)     = Phi(x/xi) - x Phi(-x/xi) + xi phi_std(x/xi)
    derivative   = phi_std(x/xi)/xi - Phi(-x/xi)

    where Phi / phi_std are the standard normal CDF / density.  Used as the
    closed-form validation target for the Monte Carlo estimators.
    """
    if not xi > 0:
        raise ValueError("xi must be positive")
    s = x / xi
    value = norm.cdf(s) - x * norm.cdf(-s) + xi * norm.pdf(s)
    derivative = norm.pdf(s) / xi - norm.cdf(-s)
    return float(value), float(derivative)


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
