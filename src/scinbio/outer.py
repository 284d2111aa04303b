"""Biased projected SGD on the smoothed hyperfunction (the SCiNBiO outer loop).

Per iteration t: draw N_t Gaussian directions, estimate the hypergradient with
K_t-step lower solves, take a projected step x_{t+1} = proj(x_t - beta ghat),
and record the projected gradient mapping norm.  The loop is deterministic
given (master_seed, config).  Several seeds run in lockstep: one estimator
call per iteration serves every seed, so all their lower solves share each
oracle call, and each seed's numbers are those of the seed run alone.  The
run keeps its state and trace as (seed, t) arrays, filled from the columns of
each call's GradientEstimates; each seed's OuterTrace is views into them.
"""

import dataclasses
import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ConfigError
from .lower import LowerSolverConfig
from .smoothing import ORACLE_KEYS, SmoothingConfig, estimate_hypergradient, lipschitz_bound

__all__ = [
    "OuterConfig", "OuterTrace", "LockstepRun", "Schedules", "default_schedules",
    "constant_schedules", "gradient_mapping", "run_scinbio", "random_index_pmf",
    "validate_run", "tail_stability", "write_trace_csv", "write_summary_json",
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

    def __post_init__(self):
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
class OuterTrace:
    """One seed's run, as views into the lockstep run's (seed, t) arrays.

    x (T + 1, n) holds the iterates x_0 .. x_T, so x_final is x[-1].  For each
    iteration t < T, estimate (T, n) is the hypergradient estimate taken at
    x[t], mapping_norm (T,) the norm of its projected gradient mapping,
    infeasible_count (T,) its samples outside the feasible set, and
    n_samples, k_steps (T,) the schedule's N_t and K_t.
    """

    x: np.ndarray
    estimate: np.ndarray
    mapping_norm: np.ndarray
    infeasible_count: np.ndarray
    n_samples: np.ndarray
    k_steps: np.ndarray
    x_out: np.ndarray
    random_index: Optional[int]
    oracle_totals: dict
    config_echo: dict

    @property
    def x_final(self):
        return self.x[-1]


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
    """Raise ConfigError where the configs, each valid alone, do not fit the
    problem: the random-index output rule needs beta < 1/L with
    L = f_bar / xi^2 (see `random_index_pmf`).
    """
    if outer.output_rule == OUTPUT_RANDOM_INDEX and outer.T > 0:
        random_index_pmf([outer.beta], lipschitz_bound(problem.f_bar, smoothing.xi))


@dataclass
class LockstepRun:
    """Seeds run in lockstep by one `run_scinbio` call, in the order given:
    traces[s] is seed s's OuterTrace, or the error that stopped that seed."""

    traces: list

    @property
    def rows(self):
        """A range as long as the iterations recorded by the seeds that
        finished: benchmarks/tracing.py counts a run's outer iterations by its
        len()."""
        return range(sum(len(trace.mapping_norm) for trace in self.traces
                         if isinstance(trace, OuterTrace)))


def run_scinbio(problem, outer: OuterConfig, lower: LowerSolverConfig,
                smoothings, x0=None) -> LockstepRun:
    """Run the outer loop for each seed, one SmoothingConfig per seed, from
    the matching start in the sequence x0 (projected to the feasible set
    first; x0=None starts every seed at the center of the feasible box).

    The seeds run in lockstep: at iteration t one estimator call draws every
    running seed's N_t directions from that seed's stream and solves all their
    samples together, and one mapping, norm and projection pass steps them.
    A seed whose estimate fails stops there; the others run on, each with the
    numbers it gets when run alone.
    """
    configs = list(smoothings)
    for config in configs:
        validate_run(problem, outer, config)
    fs = problem.feasible_set
    S, T = len(configs), outer.T
    starts = [0.5 * (fs.bbox[0] + fs.bbox[1])] * S if x0 is None else list(x0)
    if len(starts) != S:
        raise ValueError(f"{len(starts)} starts for {S} seeds")
    x = np.empty((S, T + 1, problem.n))
    x[:, 0] = [fs.project(np.atleast_1d(np.asarray(start, dtype=float))) for start in starts]
    estimate = np.empty((S, T, problem.n))
    mapping_norm = np.empty((S, T))
    infeasible = np.empty((S, T), dtype=int)
    totals = np.zeros((S, len(ORACLE_KEYS)), dtype=int)

    sched = outer.schedules or constant_schedules(1, lower.max_iters)
    n_t = np.array([sched.n_t(t) for t in range(T)], dtype=int)
    k_t = np.array([sched.k_t(t) for t in range(T)], dtype=int)
    failures = [None] * S
    running = np.arange(S)
    for t in range(T):
        if not running.size:
            break
        lower_t = dataclasses.replace(lower, max_iters=int(k_t[t]))
        ests = estimate_hypergradient(problem, x[running, t], int(n_t[t]),
                                      [configs[s] for s in running], lower_t,
                                      stream_tag=t)
        for s, exc in zip(running, ests.errors):
            failures[s] = exc
        ok = np.array([exc is None for exc in ests.errors])
        running, d = running[ok], ests.value[ok]
        xt = x[running, t]
        gm = gradient_mapping(xt, d, outer.beta, fs)
        estimate[running, t] = d
        mapping_norm[running, t] = np.sqrt(np.vecdot(gm, gm))
        infeasible[running, t] = ests.infeasible[ok]
        totals[running] += ests.oracle_counts[ok]
        x[running, t + 1] = fs.project(xt - outer.beta * d)

    return LockstepRun([failures[s] or OuterTrace(
        x[s], estimate[s], mapping_norm[s], infeasible[s], n_t, k_t,
        *_output_point(problem, outer, configs[s], x[s], mapping_norm[s]),
        oracle_totals=dict(zip(ORACLE_KEYS, totals[s].tolist())),
        config_echo=_config_echo(outer, lower, configs[s])) for s in range(S)])


def _output_point(problem, outer, smoothing, x, mapping_norm):
    """(x_out, random_index) of one seed's iterates x (T + 1, n) under the
    output rule."""
    T = outer.T
    if outer.output_rule == OUTPUT_BEST_MAPPING and T > 0:
        return x[int(np.argmin(mapping_norm))].copy(), None
    if outer.output_rule == OUTPUT_RANDOM_INDEX and T > 0:
        pmf = random_index_pmf(np.full(T, outer.beta),
                               lipschitz_bound(problem.f_bar, smoothing.xi))
        gen = rng.stream(smoothing.master_seed, rng.DOMAIN_OUTPUT_INDEX)
        # R ranges over the recorded iterations 1..T; x_R is the R-th iterate
        r_index = 1 + int(gen.choice(T, p=pmf))
        return x[r_index].copy(), r_index
    return x[-1].copy(), None


def _config_echo(outer, lower, smoothing):
    return {"T": outer.T, "beta": float(outer.beta), "output_rule": outer.output_rule,
            "xi": smoothing.xi, "master_seed": smoothing.master_seed,
            "lower": {key: getattr(lower, key)
                      for key in ("method", "eta", "M", "max_iters", "grad_tol")}}


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


def write_trace_csv(trace: OuterTrace, path, stride=1):
    """One line per stride-th iteration: t, x components, estimate components,
    mapping_norm, N_t, K_t, infeasible_count.  Byte-stable given the trace."""
    n = trace.x.shape[1]
    cols = (["t"] + [f"x{j}" for j in range(n)] + [f"est{j}" for j in range(n)]
            + ["mapping_norm", "N_t", "K_t", "infeasible_count"])
    every = slice(None, None, stride)
    columns = zip(range(len(trace.mapping_norm))[every], trace.x[:-1][every].tolist(),
                  trace.estimate[every].tolist(), trace.mapping_norm[every].tolist(),
                  trace.n_samples[every].tolist(), trace.k_steps[every].tolist(),
                  trace.infeasible_count[every].tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# schema: {TRACE_SCHEMA}\n" + ",".join(cols) + "\n")
        for t, x, est, norm, n_t, k_t, infeasible in columns:
            parts = ([str(t)] + [_fmt(v) for v in x] + [_fmt(v) for v in est]
                     + [_fmt(norm), str(n_t), str(k_t), str(infeasible)])
            fh.write(",".join(parts) + "\n")


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
