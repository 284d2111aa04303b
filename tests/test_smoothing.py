import math

import numpy as np
import pytest
from scipy.stats import norm

from scinbio import (LowerSolverConfig, SmoothingConfig, estimate_hypergradient,
                     gradient_norm_bound, lipschitz_bound)
from scinbio import rng as rng_mod
from scinbio.errors import EstimatorError

from conftest import PHI_LOWER, phi_problem, quadratic_problem, smoothed_step_reference


def step_phi(z):
    z = float(np.atleast_1d(z)[0])
    return -z if z <= 0 else 1.0


STEP = phi_problem(step_phi)


def drawn_directions(cfg, tag, n_samples, n=1):
    """Reconstruct the estimator's Gaussian directions from its stream."""
    gen = rng_mod.stream(cfg.master_seed, rng_mod.DOMAIN_ESTIMATOR, tag)
    return gen.standard_normal((n_samples, n))


# ---------------------------------------------------------------------------
# closed-form step reference
# ---------------------------------------------------------------------------

def test_step_reference_tail_limits():
    value, _ = smoothed_step_reference(-1.0, 0.05)
    assert abs(value - 1.0) <= 1e-12          # -x at x = -1
    value, _ = smoothed_step_reference(1.0, 0.05)
    assert abs(value - 1.0) <= 1e-12


def test_step_reference_center_value():
    value, _ = smoothed_step_reference(0.0, 0.05)
    assert value == pytest.approx(0.5 + 0.05 * norm.pdf(0.0), abs=1e-12)
    assert value == pytest.approx(0.519947, abs=1e-6)


def test_step_reference_derivative_matches_fd():
    x, xi, h = 0.01, 0.05, 1e-6
    vp, _ = smoothed_step_reference(x + h, xi)
    vm, _ = smoothed_step_reference(x - h, xi)
    _, deriv = smoothed_step_reference(x, xi)
    assert abs(deriv - (vp - vm) / (2 * h)) <= 1e-6


@pytest.mark.parametrize("xi", [0.01, 0.05, 0.3, 1.0])
def test_step_reference_matches_scipy_closed_form(xi):
    # The reference spells Phi and phi with math.erfc and math.exp; SciPy's
    # norm is the independent check, on [-2, 2] and out to |x / xi| = 40.
    # The value matches within 1e-15 relative.  The derivative is a
    # difference of two terms that cancel near its zero, and in the tail
    # Phi(-s) has condition number ~ s^2, where two erfc implementations part
    # by more than an ulp: it matches within 1e-15 (1 + s^2) of its terms'
    # size, and a result below the normal range counts as zero.
    tiny = np.finfo(float).tiny
    xs = np.concatenate([np.linspace(-2.0, 2.0, 401), xi * np.linspace(-40.0, 40.0, 161)])
    for x in xs.tolist():
        s = x / xi
        value = norm.cdf(s) - x * norm.cdf(-s) + xi * norm.pdf(s)
        derivative = norm.pdf(s) / xi - norm.cdf(-s)
        terms = norm.pdf(s) / xi + norm.cdf(-s)
        got_value, got_derivative = smoothed_step_reference(x, xi)
        assert got_value == pytest.approx(value, rel=1e-15, abs=0.0)
        assert abs(got_derivative - derivative) <= 1e-15 * (1.0 + s * s) * terms + tiny


def test_step_reference_error_decreases_with_xi():
    # |phi_xi - phi| at x = +-0.5, computed in cancellation-free form
    for x in (0.5, -0.5):
        errs = []
        for xi in (0.2, 0.1, 0.05, 0.025):
            s = x / xi
            if x > 0:
                err = xi * norm.pdf(s) - (1.0 + x) * norm.cdf(-s)
            else:
                err = (1.0 + x) * norm.cdf(s) + xi * norm.pdf(s)
            errs.append(abs(err))
        assert all(b < a for a, b in zip(errs, errs[1:]))


# ---------------------------------------------------------------------------
# estimator structure
# ---------------------------------------------------------------------------

def test_constant_phi_estimate_is_scaled_direction_mean():
    cfg = SmoothingConfig(xi=0.1, master_seed=42)
    c = 2.5
    value = estimate_hypergradient(phi_problem(lambda z: c), [[0.3]], 5000, [cfg], PHI_LOWER,
                                   stream_tag=7).value[0]
    u = drawn_directions(cfg, 7, 5000)
    exact = (u * np.full((5000, 1), c)).sum(axis=0) / (5000 * cfg.xi)
    assert np.array_equal(value, exact)
    assert np.abs(value - c * u.mean(axis=0) / cfg.xi).max() <= 1e-12
    assert np.linalg.norm(value) <= 4.0 * abs(c) / (cfg.xi * math.sqrt(5000))


def test_all_samples_infeasible_take_cap():
    p = quadratic_problem()  # feasible box [-1, 1], f_bar = 10
    cfg = SmoothingConfig(xi=0.05, master_seed=3)
    lower = LowerSolverConfig(max_iters=5)
    est = estimate_hypergradient(p, [[-10.0]], 2000, [cfg], lower, stream_tag=0)
    assert est.infeasible[0] == 2000
    assert all(v == p.f_bar for v in est.per_sample_f[0])
    u = drawn_directions(cfg, 0, 2000)
    exact = (u * np.full((2000, 1), p.f_bar)).sum(axis=0) / (2000 * cfg.xi)
    assert np.array_equal(est.value[0], exact)


def test_estimator_determinism():
    cfg = SmoothingConfig(xi=0.05, master_seed=99)
    a = estimate_hypergradient(STEP, [[0.0]], 500, [cfg], PHI_LOWER, stream_tag=4)
    b = estimate_hypergradient(STEP, [[0.0]], 500, [cfg], PHI_LOWER, stream_tag=4)
    assert np.array_equal(a.value, b.value)
    c = estimate_hypergradient(STEP, [[0.0]], 500, [cfg], PHI_LOWER, stream_tag=5)
    assert not np.array_equal(a.value, c.value)


def test_estimator_validates_inputs(minimax):
    cfg = [SmoothingConfig()]
    with pytest.raises(ValueError, match="n_samples"):
        estimate_hypergradient(minimax, [[0.0]], 0, cfg, LowerSolverConfig())
    with pytest.raises(ValueError, match="dimension 1"):
        estimate_hypergradient(minimax, [[0.0, 0.0]], 10, cfg, LowerSolverConfig())
    with pytest.raises(ValueError, match="1 points as rows"):
        estimate_hypergradient(minimax, [0.0], 10, cfg, LowerSolverConfig())


# ---------------------------------------------------------------------------
# estimator vs closed form on the step function; a point's smoothed value is
# the mean of its per-sample values
# ---------------------------------------------------------------------------

def test_smoothed_value_away_from_jump():
    cfg = SmoothingConfig(xi=0.05, master_seed=12)
    est = estimate_hypergradient(STEP, [[-0.5]], 100000, [cfg], PHI_LOWER)
    assert est.infeasible[0] == 0
    assert abs(np.mean(est.per_sample_f[0]) - 0.5) <= 0.01


def test_smoothed_value_at_jump_matches_closed_form():
    cfg = SmoothingConfig(xi=0.05, master_seed=12)
    n = 100000
    est = estimate_hypergradient(STEP, [[0.0]], n, [cfg], PHI_LOWER, stream_tag=1)
    val = np.mean(est.per_sample_f[0])
    ref, _ = smoothed_step_reference(0.0, cfg.xi)
    u = drawn_directions(cfg, 1, n)
    samples = np.array([step_phi(cfg.xi * ui) for ui in u[:, 0]])
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(val - ref) <= 3 * se


def test_gradient_at_jump_matches_closed_form():
    cfg = SmoothingConfig(xi=0.05, master_seed=12)
    n = 1000000
    est = estimate_hypergradient(STEP, [[0.0]], n, [cfg], PHI_LOWER, stream_tag=2)
    _, ref = smoothed_step_reference(0.0, cfg.xi)
    u = drawn_directions(cfg, 2, n)[:, 0]
    contrib = u * est.per_sample_f[0] / cfg.xi
    se = contrib.std(ddof=1) / math.sqrt(n)
    assert abs(est.value[0, 0] - ref) <= 3 * se


# ---------------------------------------------------------------------------
# statistical properties
# ---------------------------------------------------------------------------

def test_unbiased_on_smooth_quadratic():
    # smoothing a quadratic shifts the value, not the gradient: grad phi_xi = 2x
    cfg = SmoothingConfig(xi=0.1, master_seed=7)
    x = np.array([0.3, -0.2])
    problem = phi_problem(lambda z: float(np.dot(z, z)), n=2)
    batches = np.array([estimate_hypergradient(problem, [x], 1000, [cfg], PHI_LOWER,
                                               stream_tag=t).value[0]
                        for t in range(200)])
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
    assert np.all(np.abs(mean - 2 * x) <= 3 * se + 1e-12)


def test_variance_scales_inversely_with_n():
    cfg = SmoothingConfig(xi=0.1, master_seed=15)
    x = np.array([0.2])
    problem = phi_problem(lambda z: float(np.dot(z, z)))
    log_n, log_var = [], []
    tag = 0
    for n in (100, 1000, 10000):
        vals = []
        for _ in range(30):
            vals.append(estimate_hypergradient(problem, [x], n, [cfg], PHI_LOWER,
                                               stream_tag=tag).value[0, 0])
            tag += 1
        log_n.append(math.log(n))
        log_var.append(math.log(np.var(vals, ddof=1)))
    slope = np.polyfit(log_n, log_var, 1)[0]
    assert -1.2 <= slope <= -0.8


def test_mean_estimate_respects_gradient_bound(double_well):
    cfg = SmoothingConfig(xi=0.1, master_seed=21)
    lower = LowerSolverConfig(method="gradient_descent", eta=0.02, max_iters=40)
    bound = gradient_norm_bound(double_well.f_bar, cfg.xi)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.uniform(-2, 2, size=1)
        batches = np.array([estimate_hypergradient(double_well, [x], 40, [cfg], lower,
                                                   stream_tag=t).value[0]
                            for t in range(8)])
        mean = batches.mean(axis=0)
        se = np.linalg.norm(batches.std(axis=0, ddof=1)) / math.sqrt(len(batches))
        assert np.linalg.norm(mean) <= bound + 3 * se


# ---------------------------------------------------------------------------
# diagnostic bounds
# ---------------------------------------------------------------------------

def test_gradient_norm_bound_values():
    assert gradient_norm_bound(1.0, 0.05) == pytest.approx(15.9577, abs=1e-3)
    assert gradient_norm_bound(0.0, 0.3) == 0.0
    assert lipschitz_bound(1.0, 0.1) == pytest.approx(100.0, rel=1e-12)


def test_a_failing_point_fails_alone():
    # phi is NaN beyond z = 1: the point at 5 fails on its first sample, and
    # the point at 0 gets the value it gets alone
    cfg = SmoothingConfig(xi=0.05, master_seed=4)
    problem = phi_problem(lambda z: math.nan if z[0] > 1.0 else step_phi(z))
    alone = estimate_hypergradient(problem, [[0.0]], 32, [cfg], PHI_LOWER)
    ests = estimate_hypergradient(problem, [[0.0], [5.0]], 32, [cfg, cfg], PHI_LOWER)
    assert ests.errors[0] is None
    assert np.array_equal(ests.value[0], alone.value[0])
    assert np.array_equal(ests.per_sample_f[0], alone.per_sample_f[0])
    assert np.isnan(ests.value[1]).all()
    failed = ests.errors[1]
    assert isinstance(failed, EstimatorError) and failed.sample_index == 0
    assert str(failed) == "non-finite objective value on sample 0"
    assert ests.samples_used == 32


@pytest.mark.parametrize("name, lower, points", [
    ("minimax", LowerSolverConfig(method="gradient_descent", eta=0.01, M=32.0, max_iters=50),
     [[-1.0], [2.97], [0.4]]),
    ("fold", LowerSolverConfig(method="cubic_newton", eta=0.002, M=420.0, max_iters=10),
     [[0.3, -0.2], [0.98, 0.1], [0.6, 0.5]]),
])
def test_each_row_is_its_point_estimated_alone(request, name, lower, points):
    # points with their own xi and master_seed share one call and one lower
    # solve; the second point lies near the box edge, so some of its samples
    # are infeasible
    problem = request.getfixturevalue(name)
    configs = [SmoothingConfig(xi=0.05, master_seed=3), SmoothingConfig(xi=0.1, master_seed=11),
               SmoothingConfig(xi=0.02, master_seed=40)]
    together = estimate_hypergradient(problem, points, 48, configs, lower, stream_tag=5)
    assert together.errors == [None] * 3
    assert together.infeasible[1] > 0
    for s, (x, cfg) in enumerate(zip(points, configs)):
        alone = estimate_hypergradient(problem, [x], 48, [cfg], lower, stream_tag=5)
        assert alone.errors == [None]
        for column in ("value", "per_sample_f", "infeasible", "oracle_counts"):
            assert np.array_equal(getattr(together, column)[s], getattr(alone, column)[0])
        # the batched sum over samples equals the per-point loop form
        u = drawn_directions(cfg, 5, 48, problem.n)
        reference = (u * together.per_sample_f[s][:, None]).sum(axis=0) / (48 * cfg.xi)
        assert np.array_equal(together.value[s], reference)
    assert together.samples_used == 3 * 48
    assert together.infeasible_count == together.infeasible.sum()
