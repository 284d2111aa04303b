import tracemalloc

import numpy as np
import pytest

from scinbio import (ConfigError, LowerSolverConfig, OuterConfig,
                     SmoothingConfig, box_set, constant_schedules,
                     default_schedules, gradient_mapping, random_index_pmf,
                     run_scinbio, tail_stability)
from scinbio import rng as rng_mod
from scinbio.outer import write_trace_csv

from conftest import PHI_LOWER, phi_problem


def quad_phi(z):
    return float(np.dot(z, z))


def hook_problem(f_bar=9.0, lo=-3.0, hi=3.0):
    """Problem whose hyperfunction is quad_phi over the box [lo, hi] with cap
    f_bar; PHI_LOWER keeps its follower at y0."""
    return phi_problem(quad_phi, lo=lo, hi=hi, f_bar=f_bar)


# ---------------------------------------------------------------------------
# gradient mapping
# ---------------------------------------------------------------------------

def test_mapping_identity_in_interior():
    fs = box_set([-1.0], [1.0])
    d = np.array([0.3])
    gm = gradient_mapping([0.1], d, 0.5, fs)
    assert np.array_equal(gm, d)


def test_mapping_zero_direction():
    fs = box_set([-1.0], [1.0])
    assert np.array_equal(gradient_mapping([0.3], [0.0], 0.2, fs), [0.0])


def test_mapping_boundary_minimizer():
    fs = box_set([0.0], [1.0])
    gm = gradient_mapping([0.0], [5.0], 0.1, fs)
    assert np.array_equal(gm, [0.0])


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_default_schedules_values():
    sched = default_schedules(n=2, d_hat=1.0, base_k=10, c=1.0, n_max=64)
    assert sched.n_t(0) == 1
    assert sched.delta_t(9) == pytest.approx(1e-2, rel=1e-12)
    assert sched.rho_t(9) == pytest.approx(0.1, rel=1e-12)
    assert all(sched.n_t(t) == 64 for t in range(63, 80))
    assert sched.k_t(0) == 11
    assert sched.k_t(10 ** 6) == 2000  # k_max cap


def test_default_schedules_validates_dimension():
    with pytest.raises(ValueError):
        default_schedules(n=2, d_hat=2.0, base_k=5)


# ---------------------------------------------------------------------------
# outer loop on the quadratic hyperfunction
# ---------------------------------------------------------------------------

def test_quadratic_hook_converges():
    problem = hook_problem()
    smoothing = SmoothingConfig(xi=1.0, master_seed=11)
    beta = 0.1 / (problem.f_bar / smoothing.xi ** 2)
    sched = default_schedules(n=1, d_hat=0.0, base_k=1, n_max=64)
    outer = OuterConfig(T=200, beta=beta, schedules=sched)
    trace, = run_scinbio(problem, outer, PHI_LOWER, [smoothing], x0=[[1.0]]).traces
    assert abs(trace.x_final[0]) <= 0.05
    assert len(trace.mapping_norm) == 200


def test_zero_iterations_returns_projected_start():
    problem = hook_problem()
    outer = OuterConfig(T=0, beta=0.01)
    trace, = run_scinbio(problem, outer, PHI_LOWER, [SmoothingConfig(xi=0.5, master_seed=0)],
                         x0=[[7.0]]).traces
    assert len(trace.mapping_norm) == 0
    assert trace.x_out[0] == 3.0  # projected onto the box


def test_default_start_is_the_box_center_for_every_seed():
    problem = hook_problem(lo=-1.0, hi=2.0)
    configs = [SmoothingConfig(xi=0.5, master_seed=seed) for seed in (0, 1)]
    run = run_scinbio(problem, OuterConfig(T=0, beta=0.01), PHI_LOWER, configs)
    assert [trace.x_final.tolist() for trace in run.traces] == [[0.5], [0.5]]


def test_iterates_stay_feasible_and_reprojection_fixed():
    problem = hook_problem(lo=-0.5, hi=0.5)
    smoothing = SmoothingConfig(xi=0.3, master_seed=5)
    outer = OuterConfig(T=50, beta=0.002)
    trace, = run_scinbio(problem, outer, PHI_LOWER, [smoothing], x0=[[0.4]]).traces
    fs = problem.feasible_set
    for x in trace.x[1:-1]:
        assert fs.contains(x)
        assert np.abs(fs.project(x) - x).max() <= 1e-12


def test_trace_is_bit_reproducible():
    problem = hook_problem()
    smoothing = SmoothingConfig(xi=0.5, master_seed=77)
    outer = OuterConfig(T=40, beta=0.005)
    t1, = run_scinbio(problem, outer, PHI_LOWER, [smoothing], x0=[[0.7]]).traces
    t2, = run_scinbio(problem, outer, PHI_LOWER, [smoothing], x0=[[0.7]]).traces
    assert np.array_equal(t1.x, t2.x)
    assert np.array_equal(t1.mapping_norm, t2.mapping_norm)


def test_mapping_norm_column_is_the_per_row_norm(fold):
    # the run takes each iteration's norms over all seeds at once; every entry
    # must equal, bit for bit, the norm of that one seed's mapping
    seeds = (11, 12, 13)
    lower = LowerSolverConfig(method="cubic_newton", M=420.0, max_iters=10)
    outer = OuterConfig(T=30, beta=0.005, schedules=constant_schedules(3, 10))
    fs = fold.feasible_set
    x0 = [rng_mod.init_stream(seed).uniform(*fs.bbox) for seed in seeds]
    run = run_scinbio(fold, outer, lower,
                      [SmoothingConfig(xi=0.05, master_seed=2024 + seed) for seed in seeds],
                      x0=x0)
    for trace in run.traces:
        assert trace.x.shape == (31, 2)
        ref = [np.linalg.norm(gradient_mapping(x, est, outer.beta, fs))
               for x, est in zip(trace.x[:-1], trace.estimate)]
        assert trace.mapping_norm.tolist() == ref


def test_output_rules():
    problem = hook_problem()
    smoothing = SmoothingConfig(xi=1.0, master_seed=9)
    beta = 0.05 / (problem.f_bar / smoothing.xi ** 2)
    for rule in ("last", "best_mapping", "random_index"):
        outer = OuterConfig(T=30, beta=beta, output_rule=rule)
        trace, = run_scinbio(problem, outer, PHI_LOWER, [smoothing], x0=[[1.0]]).traces
        if rule == "last":
            assert np.array_equal(trace.x_out, trace.x_final)
            assert trace.random_index is None
        elif rule == "best_mapping":
            k = int(np.argmin(trace.mapping_norm))
            assert np.array_equal(trace.x_out, trace.x[k])
            assert trace.random_index is None
        else:
            assert 1 <= trace.random_index <= 30


def test_random_index_rejects_large_step():
    problem = hook_problem()  # f_bar = 9, xi = 0.5 -> L = 36
    smoothing = SmoothingConfig(xi=0.5, master_seed=1)
    outer = OuterConfig(T=10, beta=1.0 / 36.0, output_rule="random_index")
    with pytest.raises(ConfigError):
        run_scinbio(problem, outer, PHI_LOWER, [smoothing], x0=[[0.5]])


def test_random_index_pmf_matches_sampling_frequencies():
    betas = np.full(50, 0.01)
    pmf = random_index_pmf(betas, l_hat=30.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    gen = rng_mod.stream(123, rng_mod.DOMAIN_OUTPUT_INDEX)
    draws = gen.choice(50, size=100000, p=pmf)
    freq = np.bincount(draws, minlength=50) / 100000
    assert 0.5 * np.abs(freq - pmf).sum() <= 0.01  # total variation


def test_budget_accounting_matches_counters(double_well):
    lower = LowerSolverConfig(method="gradient_descent", eta=0.02, max_iters=7)
    smoothing = SmoothingConfig(xi=0.1, master_seed=13)
    sched = constant_schedules(4, 7)
    outer = OuterConfig(T=12, beta=0.001, schedules=sched)
    trace, = run_scinbio(double_well, outer, lower, [smoothing], x0=[[0.3]]).traces
    # gradient descent evaluates grad at every iterate including the last
    assert trace.oracle_totals["grad"] == sum(
        trace.n_samples * (trace.k_steps + 1)) - _infeasible_evals(trace)
    assert trace.oracle_totals["f"] == sum(trace.n_samples) - sum(trace.infeasible_count)


def _infeasible_evals(trace):
    return sum(trace.infeasible_count * (trace.k_steps + 1))


# ---------------------------------------------------------------------------
# trace utilities
# ---------------------------------------------------------------------------

def test_tail_stability_windows():
    xs = np.concatenate([np.linspace(0, 1, 51), np.ones(50)]).reshape(-1, 1)
    last, best, ratio = tail_stability(xs, window=25)
    # a flat tail counts as perfectly stable
    assert best == 0.0 and last == 0.0 and ratio == 1.0
    with pytest.raises(ValueError):
        tail_stability(xs, window=100)


def test_trace_csv_layout(tmp_path):
    problem = hook_problem()
    outer = OuterConfig(T=5, beta=0.01)
    trace, = run_scinbio(problem, outer, PHI_LOWER, [SmoothingConfig(xi=0.5, master_seed=3)],
                         x0=[[0.5]]).traces
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: scinbio-trace-v1"
    assert lines[1] == "t,x0,est0,mapping_norm,N_t,K_t,infeasible_count"
    assert len(lines) == 2 + 5


def test_outer_config_validation_collects_messages():
    with pytest.raises(ConfigError) as err:
        OuterConfig(T=-1, beta=-0.5, output_rule="nope")
    assert len(err.value.messages) == 3


def test_validation_does_not_grow_with_T():
    tracemalloc.start()
    try:
        OuterConfig(T=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_a_run_holds_its_trace_as_columns():
    # x, estimate, mapping_norm and infeasible_count are 15 x 1,000 x 8 B
    # each, about 0.5 MB: nothing made per seed and iteration may outlive it
    problem = hook_problem()
    configs = [SmoothingConfig(xi=0.5, master_seed=seed) for seed in range(15)]
    outer = OuterConfig(T=1000, beta=0.005)
    tracemalloc.start()
    try:
        run = run_scinbio(problem, outer, PHI_LOWER, configs)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(trace.mapping_norm) for trace in run.traces] == [1000] * 15
    assert held <= 2 ** 20
