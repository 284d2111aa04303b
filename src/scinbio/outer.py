"""Biased projected SGD on the smoothed hyperfunction (the SCiNBiO outer loop).

Per iteration t: draw N_t Gaussian directions, estimate the hypergradient with
K_t-step lower solves, take a projected step x_{t+1} = proj(x_t - beta ghat),
and record the projected gradient mapping norm.  The loop is deterministic
given (master_seed, config).  Several seeds run in lockstep: one estimator
call per iteration serves every seed, so all their lower solves share each
oracle call, and each seed's numbers are those of the seed run alone.
"""

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from . import rng
from .errors import ConfigError
from .lower import LowerSolverConfig
from .smoothing import (GradientEstimate, SmoothingConfig, estimate_hypergradient,
                        lipschitz_bound)

__all__ = [
    "OuterConfig", "OuterTrace", "LockstepRun", "Schedules", "default_schedules",
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

    return Schedules(n_t, k_t, rho_t, delta_t)


def constant_schedules(n_samples, k_steps) -> Schedules:
    """Fixed N and K per iteration (the experiment-harness configuration)."""
    return Schedules(lambda t: n_samples, lambda t: k_steps,
                     lambda t: float("nan"), lambda t: float("nan"))


@dataclass(frozen=True)
class OuterConfig:
    """Outer-loop budget and constant step size beta.  The smoothing
    bandwidth and master seed live on SmoothingConfig.
    """

    T: int
    beta: float = 0.005
    schedules: Optional[Schedules] = None
    output_rule: str = OUTPUT_LAST

    def validate(self):
        msgs = []
        if self.T < 0:
            msgs.append("T must be nonnegative")
        if not 0 < self.beta < math.inf:
            msgs.append("beta must be positive and finite")
        rules = (OUTPUT_LAST, OUTPUT_RANDOM_INDEX, OUTPUT_BEST_MAPPING)
        if self.output_rule not in rules:
            msgs.append(f"output_rule must be {'|'.join(rules)}, got {self.output_rule!r}")
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
    wall_time: float  # seconds into the (lockstep) iteration when the row was made


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

    Besides `outer.validate()`, the random-index output rule needs
    beta < 1/L with L = f_bar / xi^2 (see `random_index_pmf`).
    """
    outer.validate()
    if outer.output_rule == OUTPUT_RANDOM_INDEX and outer.T > 0:
        random_index_pmf([outer.beta], lipschitz_bound(problem.f_bar, smoothing.xi))


@dataclass
class LockstepRun:
    """Seeds run in lockstep by one `run_scinbio` call, in the order given:
    traces[s] is seed s's OuterTrace, or the error that stopped that seed."""

    traces: list

    @property
    def rows(self):
        """Every recorded iteration of the seeds that finished (benchmarks/tracing.py
        counts a run's outer iterations by it)."""
        return [row for trace in self.traces if isinstance(trace, OuterTrace)
                for row in trace.rows]


def run_scinbio(problem, outer: OuterConfig, lower: LowerSolverConfig,
                smoothings, x0=None) -> LockstepRun:
    """Run the outer loop for each seed, one SmoothingConfig per seed, from
    the matching start in the sequence x0 (projected to the feasible set
    first; x0=None starts every seed at the center of the feasible box).

    The seeds run in lockstep: at iteration t one estimator call draws every
    running seed's N_t directions from that seed's stream and solves all their
    samples together.  A seed whose estimate fails stops there; the others
    run on, each with the numbers it gets when run alone.
    """
    configs = list(smoothings)
    for config in configs:
        validate_run(problem, outer, config)
    fs = problem.feasible_set
    center = 0.5 * (fs.bbox[0] + fs.bbox[1])
    starts = [center] * len(configs) if x0 is None else list(x0)
    if len(starts) != len(configs):
        raise ValueError(f"{len(starts)} starts for {len(configs)} seeds")
    xs = [fs.project(np.atleast_1d(np.asarray(x, dtype=float))) for x in starts]

    sched = outer.schedules or constant_schedules(1, lower.max_iters)
    rows = [[] for _ in configs]
    totals = [{"f": 0, "g": 0, "grad": 0, "hess": 0} for _ in configs]
    failures = [None] * len(configs)
    for t in range(outer.T):
        running = [s for s, err in enumerate(failures) if err is None]
        if not running:
            break
        t0 = time.perf_counter()
        n_t = int(sched.n_t(t))
        k_t = int(sched.k_t(t))
        lower_t = dataclasses.replace(lower, max_iters=k_t)
        ests = estimate_hypergradient(problem, np.array([xs[s] for s in running]), n_t,
                                      [configs[s] for s in running], lower_t,
                                      stream_tag=t)
        for s, est in zip(running, ests.per_point):
            if not isinstance(est, GradientEstimate):
                failures[s] = est
                continue
            x = xs[s]
            gm = gradient_mapping(x, est.value, outer.beta, fs)
            rows[s].append(TraceRow(
                t=t, x=x.copy(), estimate=est.value.copy(),
                mapping_norm=float(np.linalg.norm(gm)),
                n_samples=n_t, k_steps=k_t,
                infeasible_count=est.infeasible_count,
                wall_time=time.perf_counter() - t0,
            ))
            for key in totals[s]:
                totals[s][key] += est.oracle_counts.get(key, 0)
            xs[s] = fs.project(x - outer.beta * est.value)

    return LockstepRun([failures[s] or _finish(problem, outer, lower, configs[s], rows[s],
                                               xs[s], totals[s])
                        for s in range(len(configs))])


def _finish(problem, outer, lower, smoothing, rows, x, totals):
    """One seed's OuterTrace: its output point and configuration echo."""
    T = outer.T
    x_final = x.copy()
    r_index = None
    if outer.output_rule == OUTPUT_BEST_MAPPING and rows:
        k = int(np.argmin([row.mapping_norm for row in rows]))
        x_out = rows[k].x.copy()
    elif outer.output_rule == OUTPUT_RANDOM_INDEX and rows:
        pmf = random_index_pmf(np.full(T, outer.beta),
                               lipschitz_bound(problem.f_bar, smoothing.xi))
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
                          "beta": float(outer.beta),
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
