"""Biased projected SGD on the smoothed hyperfunction (the SCiNBiO outer loop).

Per iteration t: draw N_t Gaussian directions, estimate the hypergradient with
K_t-step lower solves, take a projected step x_{t+1} = proj(x_t - beta_t ghat),
and record the projected gradient mapping norm.  The loop is deterministic
given (master_seed, config); independent runs may execute concurrently.
"""

import dataclasses
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from . import rng
from .errors import ConfigError
from .lower import LowerSolverConfig
from .smoothing import SmoothingConfig, estimate_hypergradient, lipschitz_bound

__all__ = [
    "OuterConfig", "OuterTrace", "Schedules", "default_schedules",
    "gradient_mapping", "run_scinbio", "random_index_pmf", "validate_run",
    "tail_stability", "write_trace_csv", "write_summary_json",
    "TRACE_SCHEMA",
]

OUTPUT_LAST = "last"
OUTPUT_RANDOM_INDEX = "random_index"
OUTPUT_BEST_MAPPING = "best_mapping"

TRACE_SCHEMA = "scinbio-trace-v1"
SUMMARY_SCHEMA = "scinbio-summary-v1"


@dataclass(frozen=True)
class Schedules:
    """Per-iteration sample and inner-step budgets, with the analysis-side
    accuracy sequences rho_t, delta_t carried as metadata only."""

    n_t: Callable[[int], int]
    k_t: Callable[[int], int]
    rho_t: Callable[[int], float]
    delta_t: Callable[[int], float]
    meta: dict = field(default_factory=dict)


def default_schedules(n, d_hat, base_k, c=1.0, n_max=256, k_max=2000) -> Schedules:
    """N_t = t+1 capped at n_max; K_t = base_k + ceil(c (t+1)^{3/2}) capped at k_max.

    The K_t shape follows the dominant delta^{-3/2} rho^{-3/2} scaling of the
    inner-budget requirement under the fold assumption with the schedule
    rho_t = 1/(t+1), delta_t = (t+1)^{-2/(n-d_hat)}; base_k and c are left to
    the caller because the constants are not observable from oracles.
    """
    if not 0 <= d_hat < n:
        raise ValueError("need 0 <= d_hat < n")

    def n_t(t):
        return min(t + 1, n_max)

    def k_t(t):
        return min(base_k + math.ceil(c * (t + 1) ** 1.5), k_max)

    def rho_t(t):
        return 1.0 / (t + 1)

    def delta_t(t):
        return (t + 1) ** (-2.0 / (n - d_hat))

    return Schedules(n_t, k_t, rho_t, delta_t,
                     meta={"n": n, "d_hat": d_hat, "base_k": base_k, "c": c,
                           "n_max": n_max, "k_max": k_max})


def constant_schedules(n_samples, k_steps) -> Schedules:
    """Fixed N and K per iteration (the experiment-harness configuration)."""
    return Schedules(lambda t: n_samples, lambda t: k_steps,
                     lambda t: float("nan"), lambda t: float("nan"),
                     meta={"n_samples": n_samples, "k_steps": k_steps})


@dataclass(frozen=True)
class OuterConfig:
    """Outer-loop budget and step-size schedule.

    beta may be a constant or a per-iteration sequence of length T.  The
    smoothing bandwidth and master seed live on SmoothingConfig.
    """

    T: int
    beta: Union[float, Sequence[float]] = 0.005
    schedules: Optional[Schedules] = None
    output_rule: str = OUTPUT_LAST

    def beta_at(self, t):
        if np.isscalar(self.beta):
            return float(self.beta)
        return float(self.beta[t])

    def validate(self):
        msgs = []
        if self.T < 0:
            msgs.append("T must be nonnegative")
        betas = ([float(self.beta)] * max(self.T, 1) if np.isscalar(self.beta)
                 else list(map(float, self.beta)))
        if not np.isscalar(self.beta) and len(betas) < self.T:
            msgs.append(f"beta schedule has {len(betas)} entries but T={self.T}")
        if any(not b > 0 for b in betas):
            msgs.append("all step sizes beta_t must be positive")
        if self.output_rule not in (OUTPUT_LAST, OUTPUT_RANDOM_INDEX,
                                    OUTPUT_BEST_MAPPING):
            msgs.append(f"unknown output rule {self.output_rule!r}")
        if msgs:
            raise ConfigError(msgs)


@dataclass
class TraceRow:
    t: int
    x: np.ndarray
    estimate: np.ndarray
    mapping_norm: float
    n_samples: int
    k_steps: int
    infeasible_count: int
    wall_time: float


@dataclass
class OuterTrace:
    rows: List[TraceRow]
    x_out: np.ndarray
    x_final: np.ndarray
    random_index: Optional[int]
    oracle_totals: dict
    config_echo: dict

    def x_history(self):
        """Array of x_0 .. x_T (the recorded iterates plus the final point)."""
        xs = [row.x for row in self.rows] + [self.x_final]
        return np.asarray(xs)

    def mapping_norms(self):
        return np.array([row.mapping_norm for row in self.rows])


def gradient_mapping(x, direction, beta, feasible_set):
    """Projected gradient mapping (x - proj(x - beta d)) / beta."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    d = np.atleast_1d(np.asarray(direction, dtype=float))
    return (x - feasible_set.project(x - beta * d)) / beta


def random_index_pmf(betas, l_hat):
    """P(R = t) proportional to beta_t - l_hat beta_t^2 over t = 1..T.

    Requires every beta_t < 1 / l_hat, else the weights lose positivity.
    """
    betas = np.asarray(betas, dtype=float)
    w = betas - l_hat * betas ** 2
    if np.any(w <= 0):
        raise ConfigError(
            "random_index output rule needs beta_t < 1/L with L = f_bar/xi^2 "
            f"= {l_hat:.6g}; use a smaller step size")
    return w / w.sum()


def validate_run(problem, outer: OuterConfig, smoothing: SmoothingConfig):
    """Raise ConfigError for a configuration `run_scinbio` cannot run.

    Besides `outer.validate()`, the random-index output rule needs every
    beta_t < 1/L with L = f_bar / xi^2 (see `random_index_pmf`).
    """
    outer.validate()
    if outer.output_rule == OUTPUT_RANDOM_INDEX and outer.T > 0:
        random_index_pmf([outer.beta_at(t) for t in range(outer.T)],
                         lipschitz_bound(problem.f_bar, smoothing.xi))


def run_scinbio(problem, outer: OuterConfig, lower: LowerSolverConfig,
                smoothing: SmoothingConfig, x0=None,
                phi: Optional[Callable] = None) -> OuterTrace:
    """Run the outer loop from x0 (projected to the feasible set first).

    phi forwards the direct-hook of the estimator: lower solves are skipped
    and per-sample values come from phi, with the feasibility cap still
    applied through the problem's feasible set and f_bar.
    """
    validate_run(problem, outer, smoothing)
    fs = problem.feasible_set
    if x0 is None:
        lo, hi = fs.bbox
        x0 = 0.5 * (lo + hi)
    x = fs.project(np.atleast_1d(np.asarray(x0, dtype=float)))

    sched = outer.schedules or constant_schedules(1, lower.max_iters)
    T = outer.T
    betas = [outer.beta_at(t) for t in range(T)]

    rows = []
    totals = {"f": 0, "g": 0, "grad": 0, "hess": 0}
    for t in range(T):
        t0 = time.perf_counter()
        n_t = int(sched.n_t(t))
        k_t = int(sched.k_t(t))
        lower_t = dataclasses.replace(lower, max_iters=k_t)
        est = estimate_hypergradient(problem, x, n_t, smoothing, lower_t,
                                     stream_tag=t, phi=phi)
        beta_t = betas[t]
        gm = gradient_mapping(x, est.value, beta_t, fs)
        rows.append(TraceRow(
            t=t, x=x.copy(), estimate=est.value.copy(),
            mapping_norm=float(np.linalg.norm(gm)),
            n_samples=n_t, k_steps=k_t,
            infeasible_count=est.infeasible_count,
            wall_time=time.perf_counter() - t0,
        ))
        for key in totals:
            totals[key] += est.oracle_counts.get(key, 0)
        x = fs.project(x - beta_t * est.value)

    x_final = x.copy()
    r_index = None
    if outer.output_rule == OUTPUT_BEST_MAPPING and rows:
        k = int(np.argmin([row.mapping_norm for row in rows]))
        x_out = rows[k].x.copy()
    elif outer.output_rule == OUTPUT_RANDOM_INDEX and rows:
        pmf = random_index_pmf(betas, lipschitz_bound(problem.f_bar, smoothing.xi))
        gen = rng.stream(smoothing.master_seed, rng.DOMAIN_OUTPUT_INDEX)
        # R ranges over the recorded iterations 1..T; x_R is the R-th iterate
        r_index = 1 + int(gen.choice(T, p=pmf))
        x_out = (rows[r_index].x.copy() if r_index < T else x_final.copy())
    else:
        x_out = x_final.copy()

    return OuterTrace(rows=rows, x_out=x_out, x_final=x_final,
                      random_index=r_index, oracle_totals=totals,
                      config_echo={
                          "T": T,
                          "beta": (float(outer.beta) if np.isscalar(outer.beta)
                                   else list(map(float, outer.beta))),
                          "output_rule": outer.output_rule,
                          "xi": smoothing.xi,
                          "master_seed": smoothing.master_seed,
                          "lower": {
                              "method": lower.method, "eta": lower.eta,
                              "M": lower.M, "max_iters": lower.max_iters,
                              "grad_tol": lower.grad_tol,
                          },
                      })


def tail_stability(x_history, window=500):
    """(last_window_mean, min_window_mean, ratio) of step sizes ||x_{t+1}-x_t||
    over disjoint windows.  A run is tail-stable when ratio stays small."""
    xs = np.asarray(x_history, dtype=float)
    steps = np.linalg.norm(np.diff(xs, axis=0), axis=1)
    n_windows = len(steps) // window
    if n_windows < 2:
        raise ValueError("need at least two full windows")
    means = steps[:n_windows * window].reshape(n_windows, window).mean(axis=1)
    last = float(means[-1])
    best = float(means.min())
    ratio = last / best if best > 0 else (1.0 if last == 0 else math.inf)
    return last, best, ratio


# ---------------------------------------------------------------------------
# Persistence: CSV trace + JSON summary (stable column order, canonical JSON)
# ---------------------------------------------------------------------------

def _fmt(v):
    return repr(float(v))


def write_trace_csv(trace: OuterTrace, path):
    """One row per iteration: t, x components, estimate components,
    mapping_norm, N_t, K_t, infeasible_count.  Byte-stable given the trace."""
    n = len(trace.x_final)
    cols = (["t"] + [f"x{j}" for j in range(n)] + [f"est{j}" for j in range(n)]
            + ["mapping_norm", "N_t", "K_t", "infeasible_count"])
    lines = [f"# schema: {TRACE_SCHEMA}", ",".join(cols)]
    for row in trace.rows:
        parts = ([str(row.t)] + [_fmt(v) for v in row.x]
                 + [_fmt(v) for v in row.estimate]
                 + [_fmt(row.mapping_norm), str(row.n_samples),
                    str(row.k_steps), str(row.infeasible_count)])
        lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_summary_json(trace: OuterTrace, path, extra=None):
    summary = {
        "schema": SUMMARY_SCHEMA,
        "config": trace.config_echo,
        "final": {
            "x_out": [float(v) for v in trace.x_out],
            "x_final": [float(v) for v in trace.x_final],
            "random_index": trace.random_index,
            "oracle_totals": trace.oracle_totals,
        },
    }
    if extra:
        summary.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(summary))
