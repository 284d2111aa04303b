"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The minimax experiment criteria share one 15-seed sweep at the full
configuration (beta = 0.005, eta = 0.01, T = 10000, K = 200, N = 3) through a
session fixture; everything else runs at its stated scale and tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from scinbio import (LowerSolverConfig, OuterConfig, SmoothingConfig,
                     box_counting_dimension, builtin_minimax,
                     check_fold_conditions, constant_schedules,
                     default_schedules, detect_cycle,
                     estimate_hypergradient, estimate_smoothed_value,
                     find_stationary_points_1d, gradient_norm_bound,
                     minimax_gradient, neighborhood_measure, run_gda, run_scinbio,
                     smoothed_step_reference, solve_cubic_subproblem, solve_lower,
                     tail_stability)
from scinbio import rng as rng_mod
from scinbio.baselines import (BUDGET_EXHAUSTED, CONVERGED, CONVERGED_DISPLACEMENT,
                               CYCLING)
from scinbio.cli import experiment_initialization
from scinbio.lower import run_lower_lean
from scinbio.outer import write_trace_csv
from scinbio.problems import PROBLEM_NAMES

from test_lower import brute_force_min
from test_outer import hook_problem, quad_phi

pytestmark = pytest.mark.slow

SEEDS = list(range(15))
MASTER_SEED = 2024

EXPERIMENT = dict(beta=0.005, eta=0.01, T=10000, K=200, N=3, xi=0.05)


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def run_experiment(seeds):
    """The experiment as `scinbio run` runs it: the seeds in lockstep through
    one `run_scinbio` call; {seed: (problem, lower, trace)}."""
    problem = builtin_minimax()
    x0s = [experiment_initialization("minimax", problem, seed) for seed in seeds]
    lower = LowerSolverConfig(method="gradient_descent", eta=EXPERIMENT["eta"],
                              max_iters=EXPERIMENT["K"])
    smoothings = [SmoothingConfig(xi=EXPERIMENT["xi"], master_seed=MASTER_SEED + seed)
                  for seed in seeds]
    outer = OuterConfig(T=EXPERIMENT["T"], beta=EXPERIMENT["beta"],
                        schedules=constant_schedules(EXPERIMENT["N"],
                                                     EXPERIMENT["K"]))
    run = run_scinbio(problem, outer, lower, smoothings, x0=x0s)
    return {seed: (problem, lower, trace) for seed, trace in zip(seeds, run.traces)}


@pytest.fixture(scope="session")
def experiment_sweep():
    return run_experiment(SEEDS)


@pytest.fixture(scope="session")
def gda_sweep():
    out = {}
    for seed in SEEDS:
        init = rng_mod.seeded_initialization(seed)
        out[seed] = run_gda(minimax_gradient, init, 0.01, 50000)
    return out


# ---------------------------------------------------------------------------
# 1. experiment reproduction: every seeded run is tail-stable
# ---------------------------------------------------------------------------

def test_criterion_1_experiment_tail_stability(experiment_sweep):
    ratios = {}
    for seed, (_, _, trace) in experiment_sweep.items():
        _, _, ratio = tail_stability(trace.x_history(), window=500)
        ratios[seed] = ratio
    worst = max(ratios.values())
    report(1, worst <= 5.0,
           f"15/15 runs tail-stable, worst last/min 500-window ratio {worst:.2f} <= 5")


# ---------------------------------------------------------------------------
# 2. GDA contrast: cycles appear under GDA, never under the outer loop
# ---------------------------------------------------------------------------

def _phase_block_means(problem, lower, trace, block=50):
    xs = trace.x_history()[:-1]
    n_blocks = len(xs) // block
    means = xs[:n_blocks * block].reshape(n_blocks, block, -1).mean(axis=1)
    y_hat = run_lower_lean(problem, means, lower).y_hat
    return np.column_stack([means[:, 0], y_hat[:, 0]])


def test_criterion_2_gda_contrast(experiment_sweep, gda_sweep):
    n_cycling = sum(1 for t in gda_sweep.values() if t.verdict == CYCLING)
    stable = 0
    for t in gda_sweep.values():
        if t.verdict == CONVERGED:
            stable += 1
        elif t.verdict == BUDGET_EXHAUSTED:
            tail = t.points[len(t.points) // 2:]
            if float(max(tail.max(axis=0) - tail.min(axis=0))) <= 0.1:
                stable += 1
    # non-cycling for the stochastic outer loop: no loop of diameter >= 0.5 in
    # the phase points (x_b, y_hat(x_b)), where x_b is the mean of x_t over
    # the b-th 50-iteration block and y_hat is evaluated at that mean
    scinbio_cycles = 0
    for seed, (problem, lower, trace) in experiment_sweep.items():
        pts = _phase_block_means(problem, lower, trace)
        if detect_cycle(pts, eps_cycle=0.05, min_period=4) is not None:
            scinbio_cycles += 1
    ok = n_cycling >= 2 and stable >= 8 and scinbio_cycles == 0
    report(2, ok, f"GDA cycling {n_cycling} >= 2, converged/stable {stable} >= 8, "
                  f"outer-loop cycles {scinbio_cycles} == 0")


def test_gda_window_displacement_restates_verdict(gda_sweep):
    # a seed converges exactly when its last 1000-step window moved by at most 1e-5
    for trace in gda_sweep.values():
        converged = trace.final_window_displacement <= CONVERGED_DISPLACEMENT
        assert converged == (trace.verdict == CONVERGED)


# ---------------------------------------------------------------------------
# 3. estimator vs closed form on the step function
# ---------------------------------------------------------------------------

def test_criterion_3_estimator_closed_form():
    xi = 0.05
    cfg = SmoothingConfig(xi=xi, master_seed=MASTER_SEED)

    def phi(z):
        z = float(np.atleast_1d(z)[0])
        return -z if z <= 0 else 1.0

    checks = []
    for tag, x in enumerate((-0.5, 0.0, 0.5)):
        n = 100000
        val, = estimate_smoothed_value(None, [[x]], n, [cfg], stream_tag=tag, phi=phi)
        ref, _ = smoothed_step_reference(x, xi)
        u = rng_mod.stream(cfg.master_seed, rng_mod.DOMAIN_ESTIMATOR,
                           tag).standard_normal((n, 1))[:, 0]
        samples = np.where(x + xi * u <= 0, -(x + xi * u), 1.0)
        se = samples.std(ddof=1) / math.sqrt(n)
        checks.append(abs(val - ref) <= 3 * se)
    n = 1000000
    est, = estimate_hypergradient(None, [[0.0]], n, [cfg], stream_tag=9, phi=phi).per_point
    _, dref = smoothed_step_reference(0.0, xi)
    u = rng_mod.stream(cfg.master_seed, rng_mod.DOMAIN_ESTIMATOR,
                       9).standard_normal((n, 1))[:, 0]
    contrib = u * np.asarray(est.per_sample_f) / xi
    se = contrib.std(ddof=1) / math.sqrt(n)
    checks.append(abs(est.value[0] - dref) <= 3 * se)
    report(3, all(checks),
           "smoothed values at x in {-0.5, 0, 0.5} and gradient at 0 "
           "within 3 standard errors of the closed form")


# ---------------------------------------------------------------------------
# 4. gradient-norm ceiling on every builtin
# ---------------------------------------------------------------------------

def test_criterion_4_gradient_bound(minimax, double_well, fold, quartic):
    xi = 0.1
    cases = [
        ("minimax", minimax,
         LowerSolverConfig(method="gradient_descent", eta=0.01, max_iters=50)),
        ("double-well", double_well,
         LowerSolverConfig(method="gradient_descent", eta=0.02, max_iters=50)),
        ("fold", fold,
         LowerSolverConfig(method="gradient_descent", eta=0.002, max_iters=60)),
        ("quartic", quartic,
         LowerSolverConfig(method="cubic_newton", M=6200.0, max_iters=8)),
    ]
    margins = []
    for name, problem, lower in cases:
        cfg = SmoothingConfig(xi=xi, master_seed=MASTER_SEED)
        bound = gradient_norm_bound(problem.f_bar, xi)
        lo, hi = problem.feasible_set.bbox
        gen = rng_mod.stream(MASTER_SEED, 77, PROBLEM_NAMES.index(name))
        tag = 0
        for _ in range(100):
            x = gen.uniform(lo, hi)
            batch = []
            for _ in range(10):
                est, = estimate_hypergradient(problem, [x], 10, [cfg], lower,
                                              stream_tag=tag).per_point
                assert max(abs(v) for v in est.per_sample_f) <= problem.f_bar
                batch.append(est.value)
                tag += 1
            batch = np.asarray(batch)
            mean = batch.mean(axis=0)
            se = np.linalg.norm(batch.std(axis=0, ddof=1)) / math.sqrt(len(batch))
            margins.append(bound + 3 * se - np.linalg.norm(mean))
            assert margins[-1] >= 0, f"{name}: bound violated at x={x}"
    report(4, all(m >= 0 for m in margins),
           f"400 batch means within sqrt(2/pi) f_bar/xi + 3 se; "
           f"smallest margin {min(margins):.3f}")


# ---------------------------------------------------------------------------
# 5. cubic subproblem equals the brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_5_subproblem_oracle():
    rng = np.random.default_rng(555)
    worst = 0.0
    n_hard = 0
    for trial in range(100):
        if trial < 12:
            # hard case: |g| <= 1e-13 (|g| + 1) with negative curvature
            grad = rng.uniform(-1e-13, 1e-13, size=1)
            hess = -rng.uniform(0.5, 3.0, size=(1, 1))
            M = 3.0
        else:
            hess = 2.0 * rng.normal(size=(1, 1))
            grad = rng.normal(size=1) * rng.uniform(0.1, 3.0)
            M = float(rng.uniform(0.5, 6.0))
        step = solve_cubic_subproblem(grad, hess, M)
        n_hard += step.hard_case
        _, v_ref = brute_force_min(grad, hess, M, span=4.0, seed=int(rng.integers(1 << 30)))
        gap = step.model_value - v_ref
        worst = max(worst, gap)
        assert gap <= 1e-6
    report(5, worst <= 1e-6 and n_hard >= 10,
           f"100 instances within 1e-6 of oracle (worst gap {worst:.2e}), "
           f"{n_hard} hard cases exercised")


# ---------------------------------------------------------------------------
# 6. two-phase cubic Newton on the double well
# ---------------------------------------------------------------------------

def test_criterion_6_two_phase_cubic_newton(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=30)
    x = np.array([[0.0]])
    res = solve_lower(dataclasses.replace(double_well, y0=np.array([0.1])), x, cfg)
    lam = double_well.hess_yy_g(x, res.y_hat)[0, 0, 0]
    y_hat = res.y_hat[0, 0]
    ok_basin = abs(y_hat - 1.0) <= 1e-6 and lam > 0
    res_saddle = solve_lower(dataclasses.replace(double_well, y0=np.array([0.0])), x, cfg)
    y_saddle = res_saddle.y_hat[0, 0]
    ok_escape = abs(y_saddle) >= 0.5
    report(6, ok_basin and ok_escape,
           f"|y_hat - 1| = {abs(y_hat - 1.0):.2e}, lambda_min = {lam:.2f} > 0, "
           f"saddle escape |y_hat| = {abs(y_saddle):.3f} >= 0.5")


# ---------------------------------------------------------------------------
# 7. fold eigenvalue square-root scaling
# ---------------------------------------------------------------------------

def test_criterion_7_fold_eigenvalue_scaling(fold):
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    lams = []
    for d in deltas:
        recs = find_stationary_points_1d(fold, np.array([0.5 + d, 0.0]),
                                         (-1.0, 1.0), 4000)
        lams.append(min(r.lambda_min_abs for r in recs))
    slope = float(np.polyfit(np.log(deltas), np.log(lams), 1)[0])
    report(7, 0.4 <= slope <= 0.6,
           f"|lambda_min| vs delta log-log slope {slope:.3f} in [0.4, 0.6]")


# ---------------------------------------------------------------------------
# 8. geometry of the bifurcation set
# ---------------------------------------------------------------------------

def test_criterion_8_geometry(fold_scan):
    est = box_counting_dimension(fold_scan.marked_centers(),
                                 [0.1, 0.05, 0.025, 0.0125])
    deltas = [0.04, 0.08, 0.16, 0.32]
    measures = np.array([m for _, m in neighborhood_measure(fold_scan, deltas)])
    slope = float(np.polyfit(np.log(deltas), np.log(measures), 1)[0])
    C = measures[-1] / math.sqrt(deltas[-1])
    bound_holds = all(m <= C * math.sqrt(d) * (1.0 + 1e-9)
                      for d, m in zip(deltas, measures))
    ok = 0.85 <= est.d_hat <= 1.15 and 0.8 <= slope <= 1.2 and bound_holds
    report(8, ok, f"d_hat {est.d_hat:.3f} in [0.85, 1.15], tube slope {slope:.3f} "
                  f"in [0.8, 1.2], sqrt-delta covering bound holds")


# ---------------------------------------------------------------------------
# 9. O(log T / T)-style decay of the gradient-mapping running mean
# ---------------------------------------------------------------------------

def test_criterion_9_rate_proxy():
    problem = hook_problem()
    smoothing = SmoothingConfig(xi=1.0, master_seed=MASTER_SEED)
    beta = 0.1 / (problem.f_bar / smoothing.xi ** 2)
    lower = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=5)
    sched = default_schedules(n=1, d_hat=0.0, base_k=1, n_max=256)
    outer = OuterConfig(T=1600, beta=beta, schedules=sched)
    trace, = run_scinbio(problem, outer, lower, [smoothing], x0=[[2.0]], phi=quad_phi).traces
    sq = trace.mapping_norms() ** 2
    m100, m400, m1600 = sq[:100].mean(), sq[:400].mean(), sq[:1600].mean()
    ok = m400 <= m100 / 2.0 and m1600 <= m400 / 2.0
    report(9, ok, f"running mean of mapping_norm^2: {m100:.4f} -> {m400:.4f} -> "
                  f"{m1600:.4f} (>= 2x drop per 4x budget)")


# ---------------------------------------------------------------------------
# 10. byte-identical traces across executions
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(experiment_sweep, tmp_path):
    _, _, first = experiment_sweep[0]
    _, _, second = run_experiment([0])[0]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trace_csv(first, p1)
    write_trace_csv(second, p2)
    same = p1.read_bytes() == p2.read_bytes()
    report(10, same, "two executions of the seed-0 run (with 14 other seeds in "
                     "lockstep, then alone) wrote identical CSV bytes")


# ---------------------------------------------------------------------------
# 11. bifurcations slow gradient descent far more than cubic Newton
# ---------------------------------------------------------------------------

def test_criterion_11_bifurcation_slows_gradient_descent(fold):
    # iterations to ||grad_y g|| <= 1e-6 from y0 at x = (1/2 +- delta, 0), on
    # either side of the fold; the bounds were fixed before the run: GD's
    # log-log slope against 1/delta in [0.3, 0.7] on each side, CN within 100
    # iterations everywhere and at least 100 times faster at delta = 1e-4
    deltas = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    xs = np.array([[0.5 + side * d, 0.0] for d in deltas for side in (1, -1)])
    iters, residuals = {}, []
    for method in ("gradient_descent", "cubic_newton"):
        cfg = LowerSolverConfig(method=method, eta=0.002, M=420.0, max_iters=200000,
                                grad_tol=1e-6)
        res = solve_lower(fold, xs, cfg)
        assert res.errors == [None] * len(xs)
        iters[method] = (res.oracle_counts["grad"] - 1).reshape(len(deltas), 2)
        residuals.extend(res.grad_norm)
    gd, cn = iters["gradient_descent"], iters["cubic_newton"]
    slopes = [float(np.polyfit(np.log(1.0 / deltas), np.log(gd[:, side]), 1)[0])
              for side in (0, 1)]
    ok = (all(0.3 <= s <= 0.7 for s in slopes) and cn.max() <= 100
          and (gd[-1] >= 100 * cn[-1]).all() and max(residuals) <= 1e-6)
    report(11, ok, f"GD iterations {gd.tolist()} (slopes {slopes[0]:.2f}, {slopes[1]:.2f} "
                   f"in [0.3, 0.7]), CN {cn.tolist()} (<= 100), GD/CN at delta = 1e-4 "
                   f"{(gd[-1] / cn[-1]).round(0).tolist()} (>= 100), "
                   f"max ||grad|| {max(residuals):.1e} <= 1e-6")
