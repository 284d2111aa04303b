import math

import numpy as np
import pytest
from scipy.stats import norm

from scinbio import (LowerSolverConfig, SmoothingConfig, box_set,
                     estimate_hypergradient, estimate_smoothed_value,
                     gradient_norm_bound, lipschitz_bound, smoothed_step_reference)
from scinbio import rng as rng_mod
from scinbio.errors import EstimatorError


def step_phi(z):
    z = float(np.atleast_1d(z)[0])
    return -z if z <= 0 else 1.0


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
    est, = estimate_hypergradient(None, [[0.3]], 5000, [cfg], stream_tag=7,
                                  phi=lambda z: c).per_point
    u = drawn_directions(cfg, 7, 5000)
    exact = (u * np.full((5000, 1), c)).sum(axis=0) / (5000 * cfg.xi)
    assert np.array_equal(est.value, exact)
    assert np.abs(est.value - c * u.mean(axis=0) / cfg.xi).max() <= 1e-12
    assert np.linalg.norm(est.value) <= 4.0 * abs(c) / (cfg.xi * math.sqrt(5000))


def test_all_samples_infeasible_take_cap():
    from conftest import quadratic_problem
    p = quadratic_problem()  # feasible box [-1, 1], f_bar = 10
    cfg = SmoothingConfig(xi=0.05, master_seed=3)
    lower = LowerSolverConfig(max_iters=5)
    est, = estimate_hypergradient(p, [[-10.0]], 2000, [cfg], lower, stream_tag=0).per_point
    assert est.infeasible_count == 2000
    assert all(v == p.f_bar for v in est.per_sample_f)
    u = drawn_directions(cfg, 0, 2000)
    exact = (u * np.full((2000, 1), p.f_bar)).sum(axis=0) / (2000 * cfg.xi)
    assert np.array_equal(est.value, exact)


def test_estimator_determinism():
    cfg = SmoothingConfig(xi=0.05, master_seed=99)
    a, = estimate_hypergradient(None, [[0.0]], 500, [cfg], stream_tag=4, phi=step_phi).per_point
    b, = estimate_hypergradient(None, [[0.0]], 500, [cfg], stream_tag=4, phi=step_phi).per_point
    assert np.array_equal(a.value, b.value)
    c, = estimate_hypergradient(None, [[0.0]], 500, [cfg], stream_tag=5, phi=step_phi).per_point
    assert not np.array_equal(a.value, c.value)


def test_estimator_validates_inputs(minimax):
    cfg = [SmoothingConfig()]
    for estimator in (estimate_hypergradient, estimate_smoothed_value):
        with pytest.raises(ValueError, match="n_samples"):
            estimator(None, [[0.0]], 0, cfg, phi=step_phi)
        with pytest.raises(ValueError, match="problem or a direct phi"):
            estimator(None, [[0.0]], 10, cfg)
        with pytest.raises(ValueError, match="lower-solver config"):
            estimator(minimax, [[0.0]], 10, cfg)
        with pytest.raises(ValueError, match="dimension 1"):
            estimator(minimax, [[0.0, 0.0]], 10, cfg, LowerSolverConfig())
        with pytest.raises(ValueError, match="1 points as rows"):
            estimator(minimax, [0.0], 10, cfg, LowerSolverConfig())


# ---------------------------------------------------------------------------
# estimator vs closed form on the step function
# ---------------------------------------------------------------------------

def test_smoothed_value_away_from_jump():
    cfg = SmoothingConfig(xi=0.05, master_seed=12)
    val, = estimate_smoothed_value(None, [[-0.5]], 100000, [cfg], phi=step_phi)
    assert abs(val - 0.5) <= 0.01


def test_smoothed_value_at_jump_matches_closed_form():
    cfg = SmoothingConfig(xi=0.05, master_seed=12)
    n = 100000
    val, = estimate_smoothed_value(None, [[0.0]], n, [cfg], stream_tag=1, phi=step_phi)
    ref, _ = smoothed_step_reference(0.0, cfg.xi)
    u = drawn_directions(cfg, 1, n)
    samples = np.array([step_phi(cfg.xi * ui) for ui in u[:, 0]])
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(val - ref) <= 3 * se


def test_gradient_at_jump_matches_closed_form():
    cfg = SmoothingConfig(xi=0.05, master_seed=12)
    n = 1000000
    est, = estimate_hypergradient(None, [[0.0]], n, [cfg], stream_tag=2, phi=step_phi).per_point
    _, ref = smoothed_step_reference(0.0, cfg.xi)
    u = drawn_directions(cfg, 2, n)[:, 0]
    contrib = u * np.array(est.per_sample_f) / cfg.xi
    se = contrib.std(ddof=1) / math.sqrt(n)
    assert abs(est.value[0] - ref) <= 3 * se


# ---------------------------------------------------------------------------
# statistical properties
# ---------------------------------------------------------------------------

def test_unbiased_on_smooth_quadratic():
    # smoothing a quadratic shifts the value, not the gradient: grad phi_xi = 2x
    cfg = SmoothingConfig(xi=0.1, master_seed=7)
    x = np.array([0.3, -0.2])
    phi = lambda z: float(np.dot(z, z))
    batches = np.array([estimate_hypergradient(None, [x], 1000, [cfg], stream_tag=t,
                                               phi=phi).per_point[0].value
                        for t in range(200)])
    mean = batches.mean(axis=0)
    se = batches.std(axis=0, ddof=1) / math.sqrt(len(batches))
    assert np.all(np.abs(mean - 2 * x) <= 3 * se + 1e-12)


def test_variance_scales_inversely_with_n():
    cfg = SmoothingConfig(xi=0.1, master_seed=15)
    x = np.array([0.2])
    phi = lambda z: float(np.dot(z, z))
    log_n, log_var = [], []
    tag = 0
    for n in (100, 1000, 10000):
        vals = []
        for _ in range(30):
            vals.append(estimate_hypergradient(None, [x], n, [cfg], stream_tag=tag,
                                               phi=phi).per_point[0].value[0])
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
                                                   stream_tag=t).per_point[0].value
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


def test_smoothed_value_shares_sampling_with_gradient():
    cfg = SmoothingConfig(xi=0.05, master_seed=31)
    est, = estimate_hypergradient(None, [[0.2]], 64, [cfg], stream_tag=9, phi=step_phi).per_point
    val, = estimate_smoothed_value(None, [[0.2]], 64, [cfg], stream_tag=9, phi=step_phi)
    assert val == pytest.approx(np.mean(est.per_sample_f), abs=0.0)


def test_a_failing_point_fails_alone():
    # phi is NaN beyond z = 1: the point at 5 fails on its first sample, and
    # the point at 0 gets the value it gets alone
    cfg = SmoothingConfig(xi=0.05, master_seed=4)
    phi = lambda z: math.nan if z[0] > 1.0 else step_phi(z)
    alone, = estimate_smoothed_value(None, [[0.0]], 32, [cfg], phi=phi)
    value, failed = estimate_smoothed_value(None, [[0.0], [5.0]], 32, [cfg, cfg], phi=phi)
    assert value == alone
    assert isinstance(failed, EstimatorError) and failed.sample_index == 0
    est_alone, = estimate_hypergradient(None, [[0.0]], 32, [cfg], phi=phi).per_point
    ests = estimate_hypergradient(None, [[0.0], [5.0]], 32, [cfg, cfg], phi=phi)
    assert np.array_equal(ests.per_point[0].value, est_alone.value)
    assert str(ests.per_point[1]) == str(failed) == "non-finite objective value on sample 0"
    assert ests.samples_used == 32
