import collections
import dataclasses
import decimal
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from scinbio import (LowerSolverConfig, builtin_fold_family, builtin_minimax,
                     builtin_quartic_family, builtin_shifted_double_well, get_problem,
                     solve_cubic_subproblem, solve_lower)
from scinbio.errors import LowerSolveError
from scinbio.lower import _FLOAT_LANES, _cubic_step_1d, _hypot, run_lower_lean
from scinbio.problems import LOWER_DEFAULTS

from conftest import quadratic_problem, reference_solve, stationarity_measure


def cubic_model(s, grad, hess, M):
    s = np.asarray(s, dtype=float)
    return (grad @ s + 0.5 * s @ hess @ s
            + (M / 6.0) * np.linalg.norm(s) ** 3)


def brute_force_min(grad, hess, M, span, n_random=20000, seed=0):
    """Independent oracle: coarse search + smooth polish of the cubic model."""
    m = len(grad)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-span, span, size=(n_random, m))
    pts = np.vstack([pts, np.zeros((1, m))])
    vals = (pts @ grad + 0.5 * np.einsum("ij,jk,ik->i", pts, hess, pts)
            + (M / 6.0) * np.linalg.norm(pts, axis=1) ** 3)
    best = pts[int(np.argmin(vals))]

    def jac(s, g, h, mm):
        r = np.linalg.norm(s)
        return g + h @ s + (mm / 2.0) * r * s

    out = minimize(cubic_model, best, args=(grad, hess, M), jac=jac, method="BFGS",
                   options={"gtol": 1e-12, "maxiter": 500})
    cand = [best, out.x]
    vals = [cubic_model(c, grad, hess, M) for c in cand]
    return cand[int(np.argmin(vals))], min(vals)


# ---------------------------------------------------------------------------
# stationarity measure
# ---------------------------------------------------------------------------

def test_stationarity_measure_values():
    assert stationarity_measure(0.0, 1.0, 24.0) == 0.0
    assert stationarity_measure(0.0, -3.0, 2.0) == pytest.approx(1.0, abs=1e-15)
    assert stationarity_measure(4.0, 0.0, 1.0) == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# cubic subproblem
# ---------------------------------------------------------------------------

def test_subproblem_stationary_convex_origin():
    step = solve_cubic_subproblem(0.0, 2.0, 1.0)
    assert step.s == 0.0
    assert step.model_value == 0.0


def test_subproblem_1d_oracle():
    # grid-search the model psi(s) = s + |s|^3 over [-2, 2], then polish
    g, h, M = 1.0, 0.0, 6.0
    ss = np.arange(-2.0, 2.0, 1e-6)
    vals = ss + np.abs(ss) ** 3
    s0 = ss[int(np.argmin(vals))]
    for _ in range(60):  # Newton on 1 + 3 s^2 sign(s), s < 0 branch
        s0 = s0 - (1.0 + 3.0 * s0 * s0 * np.sign(s0)) / (6.0 * abs(s0))
    assert s0 == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)
    step = solve_cubic_subproblem(g, h, M)
    assert step.s == pytest.approx(s0, abs=1e-9)
    assert step.model_value <= cubic_model([s0], np.array([g]), np.array([[h]]), M) + 1e-12


def test_subproblem_pure_saddle_hard_case():
    step = solve_cubic_subproblem(0.0, -4.0, 24.0)
    assert step.hard_case
    assert abs(step.s) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert step.boundary_multiplier == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_subproblem_random_instances_beat_random_search():
    rng = np.random.default_rng(101)
    for trial in range(100):
        g, h = rng.normal(), 2.0 * rng.normal()
        M = float(rng.uniform(0.5, 8.0))
        step = solve_cubic_subproblem(g, h, M)
        s = rng.uniform(-4, 4, size=10000)
        vals = g * s + 0.5 * h * s * s + (M / 6.0) * np.abs(s) ** 3
        assert step.model_value <= vals.min() + 1e-8
        assert step.model_value <= 0.0
        r = step.boundary_multiplier
        assert abs(abs(step.s) - r) <= 1e-8 * (1.0 + r)


def closed_form_cases():
    """Random 1-D (g, h, M) plus the edge cases of the closed form."""
    rng = np.random.default_rng(307)
    cases = [(0.0, -2.0, 3.0), (0.0, 0.0, 1.0), (0.0, 5.0, 2.0), (-0.0, -1.0, 1.0),
             (1e-14, -1.0, 2.0), (-5e-14, 0.0, 1.0), (8e-14, 4.0, 1.0),
             (1e-12, -1.0, 2.0), (-1e-12, 0.0, 2.0), (3.0, 0.0, 1.0), (-3.0, 0.0, 5.0),
             (2.0, -1e-9, 1e6), (-0.5, 7.0, 1e8), (1e-6, -3.0, 1e7), (4.0, 1e-6, 1e-6)]
    for _ in range(300):
        g = float(rng.normal() * 10.0 ** rng.integers(-6, 3))
        h = float(rng.normal() * 10.0 ** rng.integers(-6, 3))
        M = float(10.0 ** rng.uniform(-3, 8))
        cases.append((g, h, M))
    return cases


def test_subproblem_1d_closed_form_is_the_exact_root():
    # 60-digit evaluation of the positive root of (M/2) r^2 + h r - |g| = 0
    ctx = decimal.Context(prec=60)
    for g, h, M in closed_form_cases():
        step = solve_cubic_subproblem(g, h, M)
        if abs(g) <= 1e-13 * (abs(g) + 1.0):
            # below the threshold the step follows the |g| = 0 convention: no
            # step for h >= 0, the hard-case step s = r = -2h/M for h < 0
            r = -2.0 * h / M if h < 0 else 0.0
            assert (step.s, step.boundary_multiplier, step.hard_case) == (r, r, h < 0), \
                (g, h, M)
            continue
        gd, hd, Md = (decimal.Decimal(v) for v in (abs(g), h, M))
        root = ctx.sqrt(ctx.add(ctx.multiply(hd, hd), ctx.multiply(2 * Md, gd)))
        r_exact = float(ctx.divide(ctx.subtract(root, hd), Md))
        assert step.boundary_multiplier == pytest.approx(r_exact, rel=1e-13), (g, h, M)
        assert step.s == -math.copysign(step.boundary_multiplier, g)
        assert not step.hard_case


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), g_scale=st.floats(0.0, 10.0),
       h_scale=st.floats(0.0, 10.0), M=st.floats(0.05, 100.0))
def test_subproblem_property_global_min_on_its_radius(seed, g_scale, h_scale, M):
    rng = np.random.default_rng(seed)
    hess = h_scale * rng.normal(size=(1, 1))
    grad = g_scale * rng.normal(size=1)
    step = solve_cubic_subproblem(grad[0], hess[0, 0], M)
    h, ag = float(hess[0, 0]), abs(float(grad[0]))
    # every minimizer has (M/2) r^2 <= |h| r + |g|
    radius = (abs(h) + math.sqrt(h * h + 2.0 * M * ag)) / M
    _, v_ref = brute_force_min(grad, hess, M, span=1.5 * radius + 1e-3, n_random=4000,
                               seed=seed % 1000)
    assert step.model_value <= v_ref + 1e-9 * (1.0 + abs(v_ref))
    r = step.boundary_multiplier
    assert abs(abs(step.s) - r) <= 1e-9 * (1.0 + r)


@pytest.mark.parametrize("g, M", [(1e306, 420.0), (1e308, 32.0), (1e300, 420.0)])
def test_subproblem_steps_where_2_M_g_overflows(g, M):
    # 2 M |g| overflows for the first two, and 2 |g| too for the second; the
    # step is still the positive root of (M/2) r^2 + r - |g| = 0.  The model
    # value -(M/3) r^3 - r^2 / 2 lies below -1.8e308 for all three, so it
    # rounds to -inf, never to inf - inf = NaN
    step = solve_cubic_subproblem(g, 1.0, M)
    ctx = decimal.Context(prec=60)
    gd, Md = decimal.Decimal(g), decimal.Decimal(M)
    r_exact = float(ctx.divide(ctx.sqrt(1 + 2 * Md * gd) - 1, Md))
    assert step.boundary_multiplier == pytest.approx(r_exact, rel=1e-14)
    assert step.s == -step.boundary_multiplier
    assert step.model_value == -math.inf
    assert not step.hard_case


def test_an_overflowing_cubic_step_is_a_lower_solve_error():
    # h = -1e308 makes r = (sqrt(h^2 + 2 M |g|) - h) / M = 2e308: no float
    with pytest.raises(LowerSolveError, match="overflows"):
        solve_cubic_subproblem(1.0, -1e308, 1.0)
    # in a solve it stops its own lane only, at the iterate it cannot reach
    p = dataclasses.replace(quadratic_problem(y0=1.0), hess_yy_g=lambda x, y: np.where(
        x[..., 0] > 0.0, -1e308, np.ones(y.shape)))
    cfg = LowerSolverConfig(method="cubic_newton", M=1.0, max_iters=3)
    res = solve_lower(p, np.array([[0.5], [-0.5]]), cfg)
    assert isinstance(res.errors[0], LowerSolveError)
    assert str(res.errors[0]) == "non-finite iterate at lower-level step 1"
    assert res.errors[1] is None and np.isfinite(res.y_hat[1])


def full_cubic_rule(g, h, M):
    """The cubic step of `_cubic_step_1d` with the tiny-|g| test run on every
    lane: the reference its shortcut for lanes that cannot be tiny must equal."""
    ag = np.abs(g)
    tiny = ag <= 1e-13 * (ag + 1.0)
    q = 2.0 * M * ag
    sq = np.where(np.isinf(q), math.sqrt(2.0 * M) * np.sqrt(ag), np.sqrt(q))
    root = np.hypot(h, sq)
    r = np.where(h >= 0.0, ag / (0.5 * (h + root)), (root - h) / M)
    s = -np.copysign(r, g)
    hard = tiny & (h < 0.0)
    r = np.where(tiny, np.where(hard, -2.0 * h / M, 0.0), r)
    return np.where(tiny, r, s), r, hard


def assert_cubic_step_is_the_full_rule(g, h, M):
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    with np.errstate(all="ignore"):
        got, want = _cubic_step_1d(g, np.abs(g), h, M), full_cubic_rule(g, h, M)
    for a, b in zip(got, want):  # bit for bit: signed zeros, NaNs and all
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (g, h, M)


def _largest_tiny_gradient():
    g = 1e-13
    while np.nextafter(g, math.inf) <= 1e-13 * (np.nextafter(g, math.inf) + 1.0):
        g = np.nextafter(g, math.inf)
    while g > 1e-13 * (g + 1.0):
        g = np.nextafter(g, 0.0)
    return float(g)


_TINY_EDGE = _largest_tiny_gradient()
CUBIC_EDGE_GRADIENTS = [
    0.0, _TINY_EDGE, float(np.nextafter(_TINY_EDGE, math.inf)),
    float(np.nextafter(_TINY_EDGE, 0.0)), 2e-13, float(np.nextafter(2e-13, 0.0)),
    float(np.nextafter(2e-13, math.inf)), 1e308, math.inf, math.nan]


@pytest.mark.parametrize("g", CUBIC_EDGE_GRADIENTS + [-v for v in CUBIC_EDGE_GRADIENTS])
def test_cubic_step_shortcut_is_the_full_rule_at_the_edges(g):
    # _TINY_EDGE is the largest |g| <= 1e-13 (|g| + 1), one ulp below the
    # first regular |g|; 2 M |g| overflows at 1e308; inf counts as tiny
    for h, M in itertools.product([-1.5, -0.0, 0.0, 2.0], [1.0, 32.0]):
        assert_cubic_step_is_the_full_rule([g], [h], M)
        assert_cubic_step_is_the_full_rule([0.7, g], [1.0, h], M)  # next to a regular lane


@settings(max_examples=300, deadline=None)
@example(lanes=[], M=1.0)
@given(lanes=st.lists(st.tuples(
           st.one_of(st.floats(), st.sampled_from(CUBIC_EDGE_GRADIENTS)),
           st.one_of(st.floats(), st.sampled_from([-1.5, -0.0, 0.0, 2.0]))), max_size=8),
       M=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
def test_cubic_step_shortcut_is_the_full_rule(lanes, M):
    assert_cubic_step_is_the_full_rule([g for g, _ in lanes], [h for _, h in lanes], M)


def test_subproblem_rejects_bad_inputs():
    for g, h in (([1.0, 0.0], [[1.0, 0.5], [0.0, 1.0]]), ([1.0], [[1.0, 0.0]]), ([1.0], [[1.0]])):
        with pytest.raises(ValueError, match="g and h must be scalars"):
            solve_cubic_subproblem(g, h, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        solve_cubic_subproblem(np.nan, 1.0, 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        solve_cubic_subproblem(1.0, np.inf, 1.0)
    for M in (-2.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="M must be positive and finite"):
            solve_cubic_subproblem(1.0, 1.0, M)
        with pytest.raises(ValueError, match="M must be positive and finite"):
            stationarity_measure(1.0, -1.0, M)
    with pytest.raises(ValueError, match="grad_norm must be >= 0"):
        stationarity_measure(-1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# the reference loop
# ---------------------------------------------------------------------------

def assert_matches_reference(problem, x, cfg):
    """solve_lower on the lanes x equals `reference_solve` bit for bit: y_hat,
    selected step, grad_norm, stationarity, oracle counts and error text and
    step.  Returns the solve and the reference lanes."""
    res = solve_lower(problem, x, cfg)
    ref = reference_solve(problem, x, cfg)
    cubic = cfg.method == "cubic_newton"
    assert (res.stationarity is not None) == cubic
    for lane, r in enumerate(ref):
        assert res.y_hat[lane].tobytes() == r["y_hat"].tobytes()
        assert res.selected_index[lane] == r["index"]
        assert res.grad_norm[lane].tobytes() == np.float64(r["grad_norm"]).tobytes()
        if cubic:
            assert res.stationarity[lane].tobytes() == np.float64(r["stationarity"]).tobytes()
        assert {key: int(c[lane]) for key, c in res.oracle_counts.items()} == \
            {"g": 0, "grad": r["steps_run"], "hess": r["steps_run"] if cubic else 0}
        err = res.errors[lane]
        assert (None if err is None else (str(err), err.iterate_index)) == r["error"]
    return res, ref


def poisoned(problem, kind):
    """problem whose lanes with x_1 > 0.3 meet a non-finite value once
    |y| > 0.2: a NaN gradient, a NaN or infinite Hessian, or a gradient of
    magnitude 1.7e308, whose gradient step overflows when eta > 1."""
    hot = lambda x, y: (x[..., 0] > 0.3) & (np.abs(y) > 0.2)
    grad, hess = problem.grad_y_g, problem.hess_yy_g
    if kind == "gradient":
        return dataclasses.replace(problem, grad_y_g=lambda x, y: np.where(hot(x, y), math.nan,
                                                                           grad(x, y)))
    if kind in ("Hessian", "Hessian+inf", "Hessian-inf"):
        value = {"Hessian": math.nan, "Hessian+inf": math.inf, "Hessian-inf": -math.inf}[kind]
        return dataclasses.replace(problem, hess_yy_g=lambda x, y: np.where(
            hot(x, y), value, hess(x, y)))
    if kind == "overflow":
        return dataclasses.replace(problem, grad_y_g=lambda x, y: np.where(
            hot(x, y), 1.7e308 * np.sign(grad(x, y)), grad(x, y)))
    return problem


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_solve_lower_matches_the_reference(data):
    name = data.draw(st.sampled_from(["minimax", "fold", "double_well", "quadratic"]),
                     label="problem")
    problem, eta, M = {
        "minimax": (builtin_minimax(), 0.05, 32.0),
        "fold": (builtin_fold_family(), 0.002, 420.0),
        "double_well": (builtin_shifted_double_well(), 0.05, 24.0),
        "quadratic": (quadratic_problem(y0=0.8), 1.5, 1.0)}[name]
    kind = data.draw(st.sampled_from(["none", "gradient", "Hessian", "Hessian+inf",
                                      "Hessian-inf", "overflow"]), label="poison")
    problem = poisoned(problem, kind)
    cfg = LowerSolverConfig(method=data.draw(st.sampled_from(["gradient_descent",
                                                              "cubic_newton"]), label="method"),
                            eta=eta, M=M, max_iters=data.draw(st.integers(0, 15), label="K"),
                            grad_tol=data.draw(st.sampled_from([0.0, 1e-3, 1e-1]), label="tol"))
    L = data.draw(st.integers(0, 6), label="L")
    lo, hi = problem.feasible_set.bbox
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=L * problem.n,
                                    max_size=L * problem.n), label="t"))
    res, _ = assert_matches_reference(problem, lo + t.reshape(L, problem.n) * (hi - lo), cfg)
    assert res.y_hat.shape == (L,) and len(res.errors) == L


# ---------------------------------------------------------------------------
# cubic Newton
# ---------------------------------------------------------------------------

def test_cubic_newton_double_well(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=30)
    x = np.array([[0.0]])
    res = solve_lower(dataclasses.replace(double_well, y0=0.1), x, cfg)
    assert abs(res.y_hat[0] - 1.0) <= 1e-6
    assert abs(double_well.g(x, res.y_hat)[0] - (-1.0)) <= 1e-10
    assert res.oracle_counts["grad"][0] == 31
    assert res.oracle_counts["hess"][0] == 31


def test_cubic_newton_quadratic_one_step():
    p = quadratic_problem(y0=0.8)
    cfg = LowerSolverConfig(method="cubic_newton", M=1.0, max_iters=1)
    _, (ref,) = assert_matches_reference(p, np.array([[0.0]]), cfg)
    step = solve_cubic_subproblem(p.y0, 1.0, 1.0)
    assert abs(ref["ys"][1] - (p.y0 + step.s)) <= 1e-14
    assert abs(ref["ys"][1]) < abs(p.y0)


def test_cubic_newton_escapes_saddle(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=10)
    res, (ref,) = assert_matches_reference(dataclasses.replace(double_well, y0=0.0),
                                           np.array([[0.0]]), cfg)
    # first step solves the pure negative-curvature model: |s| = 2*4/24
    assert abs(abs(ref["ys"][1]) - 1.0 / 3.0) <= 1e-12
    assert abs(res.y_hat[0]) >= 0.5


def test_cubic_newton_descends_on_builtins(minimax, double_well, fold, quartic):
    rng = np.random.default_rng(41)
    cases = [(minimax, 32.0), (double_well, 24.0), (fold, 420.0), (quartic, 6200.0)]
    for problem, M in cases:
        lo, hi = problem.feasible_set.bbox
        cfg = LowerSolverConfig(method="cubic_newton", M=M, max_iters=12)
        for _ in range(5):
            x = rng.uniform(lo, hi)[None, :]
            res, (ref,) = assert_matches_reference(problem, x, cfg)
            gs = problem.g(np.repeat(x, len(ref["ys"]), axis=0), ref["ys"])
            assert all(b <= a + 1e-12 for a, b in zip(gs, gs[1:]))
            assert problem.g(x, res.y_hat)[0] <= problem.g(x, np.array([problem.y0]))[0] + 1e-12


def test_cubic_newton_two_phase(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=30)
    x = np.array([[0.0]])
    res, (ref,) = assert_matches_reference(dataclasses.replace(double_well, y0=0.1),
                                           x, cfg)
    nus = ref["nus"]
    cummin = np.minimum.accumulate(nus)
    assert cummin[-1] < nus[0]
    assert (np.diff(cummin) <= 0).all()
    assert res.stationarity[0] == cummin[-1]
    lam = double_well.hess_yy_g(x, res.y_hat)[0]
    assert lam > 0


def test_cubic_newton_selection_ties_smallest_index():
    p = quadratic_problem(y0=0.0)  # already optimal: nu = 0 at every k
    cfg = LowerSolverConfig(method="cubic_newton", M=1.0, max_iters=5)
    res = solve_lower(p, np.array([[0.0]]), cfg)
    assert res.selected_index[0] == 0


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def test_gd_double_well_converges(double_well):
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=500)
    res = solve_lower(dataclasses.replace(double_well, y0=0.5), np.array([[0.0]]),
                      cfg)
    assert abs(res.y_hat[0] - 1.0) <= 1e-4
    assert res.selected_index[0] == res.oracle_counts["grad"][0] - 1  # the last iterate


def test_gd_stalls_at_degenerate_start(double_well):
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=200)
    res, (ref,) = assert_matches_reference(double_well, np.array([[0.0]]), cfg)
    assert res.y_hat[0] == 0.0
    assert (ref["ys"] == 0.0).all() and len(ref["ys"]) == 201


def test_gd_zero_iterations(double_well):
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=0)
    res = solve_lower(dataclasses.replace(double_well, y0=0.7), np.array([[0.3]]),
                      cfg)
    assert res.y_hat[0] == 0.7


def test_gd_stays_in_level_set(minimax, double_well, fold, quartic):
    rng = np.random.default_rng(43)
    cases = [(minimax, 0.01, 200), (double_well, 0.02, 200),
             (fold, 0.002, 200), (quartic, 1e-6, 100)]
    for problem, eta, K in cases:
        lo, hi = problem.feasible_set.bbox
        cfg = LowerSolverConfig(method="gradient_descent", eta=eta, max_iters=K)
        xs = rng.uniform(lo, hi, size=(10, problem.n))
        _, ref = assert_matches_reference(problem, xs, cfg)
        for x, lane in zip(xs, ref):
            g0 = problem.g(x[None, :], np.array([problem.y0]))[0]
            gs = problem.g(np.repeat(x[None, :], len(lane["ys"]), axis=0), lane["ys"])
            assert all(g <= g0 + 1e-12 for g in gs)


def test_gd_early_exit():
    p = quadratic_problem(y0=1.0)
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.5, max_iters=1000,
                            grad_tol=1e-6)
    res, (ref,) = assert_matches_reference(p, np.array([[0.0]]), cfg)
    n = res.oracle_counts["grad"][0]  # the iterates the lane ran
    assert res.grad_norm[0] <= 1e-6 < ref["grad_norms"][n - 2]
    assert n < 1001


def test_gd_nonfinite_raises():
    p = quadratic_problem(y0=1.0)
    cfg = LowerSolverConfig(method="gradient_descent", eta=1e300, max_iters=50)
    with np.errstate(over="ignore", invalid="ignore"):
        res = solve_lower(p, np.array([[0.0]]), cfg)
    assert isinstance(res.errors[0], LowerSolveError)


def assert_lanes_match_single_solves(problem, xs, cfg):
    """Solving the rows of xs together equals solving each as a batch of one
    lane, bit for bit, and both equal the reference; returns the batched
    result."""
    batch = run_lower_lean(problem, xs, cfg)
    for lane in range(len(xs)):
        single, _ = assert_matches_reference(problem, xs[lane:lane + 1], cfg)
        assert batch.y_hat[lane].tobytes() == single.y_hat[0].tobytes()
        assert batch.selected_index[lane] == single.selected_index[0]
        assert {k: int(v[lane]) for k, v in batch.oracle_counts.items()} == \
            {k: int(v[0]) for k, v in single.oracle_counts.items()}
        assert batch.errors[lane] is None and single.errors[0] is None
        assert batch.grad_norm[lane].tobytes() == single.grad_norm[0].tobytes()
        if cfg.method == "cubic_newton":
            assert batch.stationarity[lane].tobytes() == single.stationarity[0].tobytes()
    return batch


def assert_same_solve(a, b):
    """Two solves of the same lanes agree in every column bit for bit (dtype,
    shape and bytes, NaNs included) and in each lane's error: type, text and
    iterate_index."""
    def same(u, v):
        assert u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()

    for name in ("y_hat", "grad_norm", "selected_index"):
        same(getattr(a, name), getattr(b, name))
    assert (a.stationarity is None) == (b.stationarity is None)
    if a.stationarity is not None:
        same(a.stationarity, b.stationarity)
    assert a.oracle_counts.keys() == b.oracle_counts.keys()
    for key in a.oracle_counts:
        same(a.oracle_counts[key], b.oracle_counts[key])
    assert [None if e is None else (type(e), str(e), e.iterate_index) for e in a.errors] == \
        [None if e is None else (type(e), str(e), e.iterate_index) for e in b.errors]


def test_lean_path_matches_recording_solver(minimax, double_well):
    # run_lower_lean, the name the estimator solves through, is the batched
    # solver: a batch of lanes equals single-point solves and the reference
    assert run_lower_lean is solve_lower
    for problem, eta in [(minimax, 0.01), (double_well, 0.02)]:
        cfg = LowerSolverConfig(method="gradient_descent", eta=eta, max_iters=50)
        xs = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        assert_lanes_match_single_solves(problem, xs, cfg)


@pytest.mark.parametrize("method,selection", [
    ("gradient_descent", "last"), ("cubic_newton", "stationarity")])
def test_lean_path_honours_selection(minimax, double_well, method, selection):
    for problem, x in [(minimax, [-0.1]), (double_well, [0.3])]:
        cfg = LowerSolverConfig(method=method, eta=0.2, M=24.0, max_iters=20)
        full, (ref,) = assert_matches_reference(problem, np.array([x]), cfg)
        assert_same_solve(run_lower_lean(problem, np.array([x]), cfg), full)
        if selection == "last":
            assert full.selected_index[0] == full.oracle_counts["grad"][0] - 1
        else:
            assert full.selected_index[0] == int(np.argmin(ref["nus"]))
            assert full.stationarity[0] == ref["nus"].min()
    # with grad_tol > 0 the lanes of one batch stop at different steps
    for problem, eta, M, lo, hi in [(minimax, 0.05, 32.0, -2.0, 2.0),
                                    (double_well, 0.05, 24.0, -1.5, 1.5)]:
        xs = np.linspace(lo, hi, 9).reshape(-1, 1)
        for grad_tol in (0.0, 1e-3):
            cfg = LowerSolverConfig(method=method, eta=eta, M=M, max_iters=40,
                                    grad_tol=grad_tol)
            batch = assert_lanes_match_single_solves(problem, xs, cfg)
            if grad_tol > 0:
                assert len(set(batch.oracle_counts["grad"].tolist())) > 1


def test_lanes_match_single_solves_on_fold(fold):
    xs = np.random.default_rng(8).uniform([0.0, -1.0], [1.0, 1.0], size=(12, 2))
    for grad_tol in (0.0, 1e-4):
        cfg = LowerSolverConfig(method="cubic_newton", M=420.0, max_iters=10,
                                grad_tol=grad_tol)
        assert_lanes_match_single_solves(fold, xs, cfg)


@pytest.mark.parametrize("K", [1, 3])
def test_lean_path_checks_every_gradient(K):
    # lanes with x > 0 see a finite gradient below y = 0.25 and NaN from
    # y_1 = 0.25 on (the last gradient for K = 1, a mid-loop one for K = 3);
    # lanes with x <= 0 never do, and a failing lane stops only itself
    p = dataclasses.replace(
        quadratic_problem(y0=0.0),
        grad_y_g=lambda x, y: np.where((y < 0.25) | (x[..., 0] <= 0.0), -1.0, math.nan))
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.25, max_iters=K)
    x = np.array([[0.5]])
    full = solve_lower(p, x, cfg).errors[0]
    lean = run_lower_lean(p, x, cfg).errors[0]
    assert isinstance(full, LowerSolveError) and isinstance(lean, LowerSolveError)
    assert str(lean) == str(full) == "non-finite gradient at lower-level step 1"
    assert lean.iterate_index == full.iterate_index == 1
    batch = run_lower_lean(p, np.array([[-0.5], [0.5], [0.0], [0.7]]), cfg)
    assert [e is None for e in batch.errors] == [True, False, True, False]
    for lane in (1, 3):
        assert str(batch.errors[lane]) == str(full)
        assert batch.errors[lane].iterate_index == 1
    for lane in (0, 2):
        assert batch.y_hat[lane] == 0.25 * K


@pytest.mark.parametrize("what", ["Hessian", "iterate"])
def test_lane_failures_name_step_and_cause(double_well, what):
    # lanes with x > 0 get a NaN Hessian once |y| > 0.2, or an overflowing step
    def hess(x, y):
        h = double_well.hess_yy_g(x, y)
        return np.where((x[..., 0] > 0) & (np.abs(y) > 0.2), math.nan, h)

    p = dataclasses.replace(double_well, y0=0.1)
    if what == "Hessian":
        p = dataclasses.replace(p, hess_yy_g=hess)
        cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=6)
    else:
        p = dataclasses.replace(p, grad_y_g=lambda x, y: np.where(x[..., 0] > 0, -1e308, 1.0) * y)
        cfg = LowerSolverConfig(method="gradient_descent", eta=1e10, max_iters=6)
    xs = np.array([[0.5], [-0.5]])
    batch = run_lower_lean(p, xs, cfg)
    single = solve_lower(p, xs[:1], cfg).errors[0]
    assert isinstance(single, LowerSolveError)
    assert str(batch.errors[0]) == str(single)
    assert str(single).startswith(f"non-finite {what} at lower-level step ")
    assert batch.errors[1] is None
    assert batch.y_hat[1].tobytes() == solve_lower(p, xs[1:], cfg).y_hat[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_permuting_or_splitting_a_batch_permutes_or_splits_results(data):
    problem_name = data.draw(st.sampled_from(["minimax", "fold"]), label="problem")
    problem = {"minimax": builtin_minimax, "fold": builtin_fold_family}[problem_name]()
    method = data.draw(st.sampled_from(["gradient_descent", "cubic_newton"]), label="method")
    eta = 0.05 if problem_name == "minimax" else 0.002
    cfg = LowerSolverConfig(method=method, eta=eta, M=32.0 if problem_name == "minimax"
                            else 420.0, max_iters=data.draw(st.integers(0, 15), label="K"),
                            grad_tol=data.draw(st.sampled_from([0.0, 1e-2]), label="tol"))
    L = data.draw(st.integers(1, 8), label="L")
    lo, hi = problem.feasible_set.bbox
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=L * problem.n,
                                    max_size=L * problem.n), label="t"))
    xs = lo + t.reshape(L, problem.n) * (hi - lo)
    whole = run_lower_lean(problem, xs, cfg)
    order = np.array(data.draw(st.permutations(range(L)), label="order"))
    cut = data.draw(st.integers(0, L), label="cut")
    parts = [(order, run_lower_lean(problem, xs[order], cfg))]
    if 0 < cut < L:
        parts += [(np.arange(cut), run_lower_lean(problem, xs[:cut], cfg)),
                  (np.arange(cut, L), run_lower_lean(problem, xs[cut:], cfg))]
    for lanes, part in parts:
        assert part.y_hat.tobytes() == whole.y_hat[lanes].tobytes()
        assert np.array_equal(part.selected_index, whole.selected_index[lanes])
        for key, counts in part.oracle_counts.items():
            assert np.array_equal(counts, whole.oracle_counts[key][lanes])
        assert [e is None for e in part.errors] == [whole.errors[i] is None for i in lanes]


# ---------------------------------------------------------------------------
# the float loop of small solves
# ---------------------------------------------------------------------------

_ORACLES_WITH_FORMS = ("grad_y_g", "hess_yy_g")


def plain(problem):
    """problem with grad_y_g and hess_yy_g wrapped in plain functions: no
    float form, so every solve runs the lockstep loop."""
    def wrap(oracle):
        return lambda x, y: oracle(x, y)

    return dataclasses.replace(problem, **{name: wrap(getattr(problem, name))
                                           for name in _ORACLES_WITH_FORMS})


def with_float_forms(problem, forms):
    """problem whose oracles named in forms, a dict name -> (array oracle,
    float form or None), are those array oracles carrying those forms, and a
    Counter of their calls: the oracle's name for an array call, name +
    ".float_form" for a call of its form."""
    calls = collections.Counter()

    def wrap(name, array, form):
        def oracle(x, y):
            calls[name] += 1
            return array(x, y)

        def form_call(xs, y):
            calls[name + ".float_form"] += 1
            return form(xs, y)

        if form is not None:
            oracle.float_form = form_call
        return oracle

    return dataclasses.replace(problem, **{name: wrap(name, *pair)
                                           for name, pair in forms.items()}), calls


def counted(problem):
    """problem with its own float forms, and the Counter of
    `with_float_forms`."""
    return with_float_forms(problem, {
        name: (getattr(problem, name), getattr(getattr(problem, name), "float_form", None))
        for name in _ORACLES_WITH_FORMS})


# problem, method, x span (None for the box) and y0 span of the property test
_FLOAT_CASES = [("minimax", "gradient_descent", 6.0, None),
                ("minimax", "cubic_newton", 6.0, 6.0),
                ("fold", "cubic_newton", None, 4.0),
                ("double-well", "cubic_newton", None, 3.0),
                ("quartic", "cubic_newton", None, 200.0)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_the_float_loop_is_the_lockstep_loop(data):
    name, method, x_span, y_span = data.draw(st.sampled_from(_FLOAT_CASES), label="case")
    problem = get_problem(name)
    L = data.draw(st.integers(0, _FLOAT_LANES), label="L")
    lo, hi = problem.feasible_set.bbox if x_span is None else (-x_span, x_span)
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=L * problem.n,
                                    max_size=L * problem.n), label="t"))
    xs = lo + t.reshape(L, problem.n) * (hi - lo)
    if y_span is not None and data.draw(st.booleans(), label="own y0"):
        problem = dataclasses.replace(problem, y0=data.draw(st.floats(-y_span, y_span),
                                                            label="y0"))
    cubic = method == "cubic_newton"
    K = data.draw(st.integers(0, 60 if cubic else 300), label="K")
    eta = data.draw(st.floats(1e-4, 0.05), label="eta")
    M = LOWER_DEFAULTS[name]["M"] * data.draw(st.floats(0.1, 10.0), label="M factor")
    tol = data.draw(st.one_of(st.just(0.0), st.floats(1e-8, 1e-2), st.just("tie")),
                    label="tol")
    if tol == "tie":
        # the least |grad_y g| of lane 0 up to a step j < K: that lane stops
        # at the first step reaching it under <=, and runs past it under <
        tol = 0.0
        if L and K:
            norms = reference_solve(problem, xs[:1], LowerSolverConfig(
                method=method, eta=eta, M=M, max_iters=K))[0]["grad_norms"]
            j = data.draw(st.integers(0, len(norms) - 2), label="j")
            least = float(norms[:j + 1].min())
            tol = least if math.isfinite(least) else 0.0
    cfg = LowerSolverConfig(method=method, eta=eta, M=M, max_iters=K, grad_tol=tol)
    with np.errstate(all="ignore"):
        assert_same_solve(solve_lower(problem, xs, cfg), solve_lower(plain(problem), xs, cfg))


def _edge_case(kind):
    """(problem, x, config, whether the float loop serves the solve alone) of
    a cubic-Newton solve at an edge of the float step."""
    cfg = lambda name, K: LowerSolverConfig(method="cubic_newton", M=LOWER_DEFAULTS[name]["M"],
                                            max_iters=K)
    fold, well = builtin_fold_family(), builtin_shifted_double_well()
    if kind == "no lanes":
        return fold, np.empty((0, 2)), cfg("fold", 10), True
    if kind == "no steps":
        return (builtin_quartic_family(), np.array([[0.5, -1.0], [4.0, 4.5]]), cfg("quartic", 0),
                True)
    if kind == "nu tie":
        # at x1 = 1/2 and y = 0 the fold's g and h are 0.0: no step, and
        # nu_M, the max of sqrt(|g| / M) = 0.0 and -(2 / (3 M)) h = -0.0, is
        # 0.0 at every step
        return dataclasses.replace(fold, y0=0.0), np.array([[0.5, 0.3]]), \
            cfg("fold", 5), True
    if kind == "tiny gradient":
        # y0 - x = 1, a minimizer of the double well: g = 0, h = 8
        return dataclasses.replace(well, y0=1.0), np.array([[0.0], [0.5]]), \
            cfg("double-well", 5), True
    if kind == "hard case":
        # y0 = x, the double well's hump: g = 0, h = -4, the step -2 h / M
        return dataclasses.replace(well, y0=0.25), np.array([[0.25], [-1.0]]), \
            cfg("double-well", 8), True
    if kind == "hypot rounding":
        # math.hypot and np.hypot round the first step's root of these lanes
        # differently
        return well, np.array([[-1.884], [-1.692], [-1.287]]), cfg("double-well", 1), True
    if kind == "leaves the window":
        # at x1 = 0 the fold's g is 1 on |y| <= 1.5; the lane heads for the
        # root near y = -1.79, in the confinement zone, which the forms serve
        return fold, np.array([[0.0, 0.0], [0.6, 0.2]]), cfg("fold", 200), True
    # y0 = 2e102 makes the double well's 2 M |g| overflow, which both loops
    # step through as sqrt(2 M) sqrt(|g|)
    return dataclasses.replace(well, y0=2e102), np.array([[0.0]]), \
        cfg("double-well", 3), True


@pytest.mark.parametrize("kind", ["no lanes", "no steps", "nu tie", "tiny gradient",
                                  "hard case", "hypot rounding", "leaves the window",
                                  "2 M |g| overflows"])
def test_the_float_loop_is_the_lockstep_loop_at_the_edges(kind):
    problem, xs, cfg, alone = _edge_case(kind)
    p, calls = counted(problem)
    res = solve_lower(p, xs, cfg)
    lockstep = solve_lower(plain(problem), xs, cfg)
    assert_same_solve(res, lockstep)
    assert res.errors == [None] * len(xs)
    assert calls["grad_y_g.float_form"] > 0 or not len(xs)
    assert (calls["grad_y_g"] + calls["hess_yy_g"] == 0) == alone
    if kind == "nu tie":
        assert res.selected_index.tolist() == [0]
        for solve in (res, lockstep):  # the sign bit too, in both loops
            assert solve.stationarity.tobytes() == np.float64(0.0).tobytes()


@pytest.mark.parametrize("method, L, hess_form, runs_float", [
    ("gradient_descent", _FLOAT_LANES, True, True),
    ("gradient_descent", _FLOAT_LANES + 1, True, False),
    ("cubic_newton", 3, True, True),
    ("cubic_newton", _FLOAT_LANES, True, True),
    ("cubic_newton", _FLOAT_LANES + 1, True, False),
    ("cubic_newton", 3, False, False)])
def test_the_float_forms_serve_small_solves_only(minimax, method, L, hess_form, runs_float):
    # cubic Newton needs the forms of both oracles
    p, calls = with_float_forms(minimax, {
        "grad_y_g": (minimax.grad_y_g, minimax.grad_y_g.float_form),
        "hess_yy_g": (minimax.hess_yy_g, minimax.hess_yy_g.float_form if hess_form else None)})
    xs = np.linspace(-2.0, 2.0, L)[:, None]
    cfg = LowerSolverConfig(method=method, eta=0.01, M=32.0, max_iters=20)
    assert_same_solve(solve_lower(p, xs, cfg), solve_lower(plain(minimax), xs, cfg))
    cubic = method == "cubic_newton"
    assert calls["grad_y_g.float_form"] == (L * 21 if runs_float else 0)
    assert calls["hess_yy_g.float_form"] == (L * 21 if runs_float and cubic else 0)
    assert (calls["grad_y_g"] == 0) == runs_float


def _failing_forms(kind):
    """(problem, forms, config, lanes) of a solve whose float loop fails and
    hands over, forms as `with_float_forms` takes them.  Gradient descent on
    minimax: NaN once |y| > 0.2 on the lanes with x > 0.3; 1.7e308 there
    instead, whose step overflows y to inf so that the next math.sin raises;
    or inf at the last step, on the lanes with x > 0.  Cubic Newton on the
    double well: a NaN Hessian once |y| > 0.2 on the lanes with x > 0.3; an
    inf one there, whose step is 0, so that the lane stays where it is; or
    h = -1e308 there, whose step overflows y to inf (the double well's lanes
    with x = 1 never get there, so x = 0.5 comes second).  Cubic Newton on
    g = y^2 / 2 at M = 5e-324 from y0 = 0.1, where 2 M |g| underflows to 0:
    h = 0 on the lanes with x > 0.3 makes the step divide by zero.  The
    first lane, x = 0, runs clean in each, and the second fails."""
    mm, well = builtin_minimax(), builtin_shifted_double_well()
    hot = lambda x1, y: (x1 > 0.3) & (np.abs(y) > 0.2)
    xs = np.array([[0.0], [1.0], [-1.0], [0.5], [-0.5], [0.7]])
    if kind in ("nan", "overflow"):
        grad, form = mm.grad_y_g, mm.grad_y_g.float_form
        if kind == "nan":
            return (mm, {"grad_y_g": (
                lambda x, y: np.where(hot(x[..., 0], y), math.nan, grad(x, y)),
                lambda x, y: math.nan if hot(x[0], y) else form(x, y))},
                    LowerSolverConfig(eta=0.05, max_iters=100, grad_tol=1e-6), xs)

        def huge(x, y):
            g = form(x, y)
            return 1.7e308 * ((g > 0) - (g < 0)) if hot(x[0], y) else g
        return (mm, {"grad_y_g": (lambda x, y: np.where(
            hot(x[..., 0], y), 1.7e308 * np.sign(grad(x, y)), grad(x, y)), huge)},
                LowerSolverConfig(eta=1.5, max_iters=10), xs)
    if kind == "last-step inf":
        # y_k = k / 4 on every lane, and the gradient is inf from y = 0.7 on
        return (quadratic_problem(), {"grad_y_g": (
            lambda x, y: np.where((y < 0.7) | (x[..., 0] <= 0.0), -1.0, math.inf),
            lambda x, y: -1.0 if y < 0.7 or x[0] <= 0.0 else math.inf)},
            LowerSolverConfig(eta=0.25, max_iters=3), xs)
    if kind == "cubic zero division":
        quad = quadratic_problem(y0=0.1)
        return (quad, {"grad_y_g": (quad.grad_y_g, lambda x, y: y),
                       "hess_yy_g": (lambda x, y: np.where(x[..., 0] > 0.3, 0.0, 1.0),
                                     lambda x, y: 0.0 if x[0] > 0.3 else 1.0)},
                LowerSolverConfig(method="cubic_newton", M=5e-324, max_iters=4), xs)
    well = dataclasses.replace(well, y0=0.1)
    hess, form = well.hess_yy_g, well.hess_yy_g.float_form
    bad = {"cubic NaN Hessian": math.nan, "cubic inf Hessian": math.inf,
           "cubic overflowing step": -1e308}[kind]
    return (well, {"grad_y_g": (well.grad_y_g, well.grad_y_g.float_form),
                   "hess_yy_g": (lambda x, y: np.where(hot(x[..., 0], y), bad, hess(x, y)),
                                 lambda x, y: bad if hot(x[0], y) else form(x, y))},
            LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=6), xs[[0, 3, 2, 1, 4, 5]])


@pytest.mark.parametrize("kind", ["nan", "overflow", "last-step inf", "cubic NaN Hessian",
                                  "cubic inf Hessian", "cubic overflowing step",
                                  "cubic zero division"])
def test_a_failing_float_loop_hands_the_solve_to_the_lockstep_loop(kind):
    problem, forms, cfg, xs = _failing_forms(kind)
    p, calls = with_float_forms(problem, forms)
    with np.errstate(all="ignore"):
        res = solve_lower(p, xs, cfg)
        twin = solve_lower(dataclasses.replace(problem, **{
            name: array for name, (array, _) in forms.items()}), xs, cfg)
    assert calls["grad_y_g.float_form"] and calls["grad_y_g"]
    assert twin.errors[0] is None and twin.errors[1] is not None
    assert_same_solve(res, twin)


def test_libm_hypot_is_numpy_hypot():
    # the float cubic step roots with libm's hypot through ctypes; it must
    # round as np.hypot does in the lockstep step, at the edges of the
    # doubles and on random pairs over sixteen decades
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308, math.inf, -math.inf,
             math.nan, 1.0, 3.0]
    a, b = np.array(list(itertools.product(edges, repeat=2))).T
    rng = np.random.default_rng(11)
    shape = (2, 10 ** 5)
    c, d = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)
    for u, v in ((a, b), (c, d)):
        got = np.array([_hypot(p, q) for p, q in zip(u.tolist(), v.tolist())])
        assert got.tobytes() == np.hypot(u, v).tobytes()


@pytest.mark.parametrize("method", ["gradient_descent", "cubic_newton"])
def test_huge_finite_gradient_has_a_finite_norm(double_well, method):
    # at y0 = 1e52 the double well's gradient 4e156 is finite but its square
    # overflows: |grad_y g| and nu_M are read off g, not sqrt(g^2)
    p = dataclasses.replace(double_well, y0=1e52)
    cfg = LowerSolverConfig(method=method, eta=0.02, M=24.0, max_iters=0)
    res, (ref,) = assert_matches_reference(p, np.array([[0.0]]), cfg)
    g0 = double_well.grad_y_g(np.array([[0.0]]), np.array([p.y0]))[0]
    assert res.grad_norm[0] == ref["grad_norm"] == abs(g0) == pytest.approx(4e156, rel=1e-15)
    assert res.errors == [None]
    if method == "cubic_newton":
        assert res.stationarity[0] == math.sqrt(abs(g0) / 24.0)


def test_solve_lower_dispatch(double_well):
    gd = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=10)
    cn = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=10)
    x = np.array([[0.0]])
    assert assert_matches_reference(double_well, x, gd)[0].stationarity is None
    assert assert_matches_reference(double_well, x, cn)[0].stationarity.shape == (1,)


@pytest.mark.parametrize("method", ["gradient_descent", "cubic_newton"])
def test_memory_does_not_grow_with_the_budget(fold, method):
    # a solve keeps per-lane state only: its peak allocation at 64 lanes stays
    # under 1 MiB at K = 2,000 and at K = 8,000; one (K + 1, 64) float64
    # array alone passes 1 MiB from K = 2,048
    xs = np.random.default_rng(3).uniform([0.0, -1.0], [1.0, 1.0], size=(64, 2))
    for K in (2000, 8000):
        cfg = LowerSolverConfig(method=method, eta=0.002, M=420.0, max_iters=K)
        tracemalloc.start()
        try:
            solve_lower(fold, xs, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (K, peak)


def test_config_validation():
    with pytest.raises(ValueError):
        LowerSolverConfig(method="nope")
    with pytest.raises(ValueError):
        LowerSolverConfig(method="gradient_descent", eta=-1.0)
    with pytest.raises(ValueError):
        LowerSolverConfig(method="cubic_newton", M=0.0)
    for grad_tol in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="grad_tol must be nonnegative and finite"):
            LowerSolverConfig(grad_tol=grad_tol)
