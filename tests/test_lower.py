import dataclasses
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from scinbio import (LowerSolverConfig, builtin_fold_family, builtin_minimax,
                     solve_cubic_subproblem, solve_lower, stationarity_measure)
from scinbio.errors import LowerSolveError
from scinbio.lower import _eigenpairs, _solve_cubic_secular, run_lower_lean

from conftest import quadratic_problem


def cubic_model(s, grad, hess, M):
    s = np.asarray(s, dtype=float)
    return (grad @ s + 0.5 * s @ hess @ s
            + (M / 6.0) * np.linalg.norm(s) ** 3)


def brute_force_min(grad, hess, M, span, n_grid=None, n_random=20000, seed=0):
    """Independent oracle: coarse search + smooth polish of the cubic model."""
    m = len(grad)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-span, span, size=(n_random, m))
    if n_grid:
        axes = [np.linspace(-span, span, n_grid)] * m
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.vstack([pts, np.column_stack([a.ravel() for a in mesh])])
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
    step = solve_cubic_subproblem([0.0], [[2.0]], 1.0)
    assert np.array_equal(step.s, [0.0])
    assert step.model_value == 0.0


def test_subproblem_1d_oracle():
    # grid-search the model psi(s) = s + |s|^3 over [-2, 2], then polish
    grad, hess, M = np.array([1.0]), np.array([[0.0]]), 6.0
    ss = np.arange(-2.0, 2.0, 1e-6)
    vals = ss + np.abs(ss) ** 3
    s0 = ss[int(np.argmin(vals))]
    for _ in range(60):  # Newton on 1 + 3 s^2 sign(s), s < 0 branch
        s0 = s0 - (1.0 + 3.0 * s0 * s0 * np.sign(s0)) / (6.0 * abs(s0))
    assert s0 == pytest.approx(-1.0 / math.sqrt(3.0), abs=1e-12)
    step = solve_cubic_subproblem(grad, hess, M)
    assert step.s[0] == pytest.approx(s0, abs=1e-9)
    assert step.model_value <= cubic_model([s0], grad, hess, M) + 1e-12


def test_subproblem_2d_negative_curvature():
    grad = np.array([0.0, 0.5])
    hess = np.diag([-1.0, 1.0])
    M = 2.0
    step = solve_cubic_subproblem(grad, hess, M)
    s_ref, v_ref = brute_force_min(grad, hess, M, span=3.0, n_grid=301)
    assert step.model_value <= v_ref + 1e-9
    assert np.abs(np.abs(step.s) - np.abs(s_ref)).max() <= 1e-3


def test_subproblem_pure_saddle_hard_case():
    step = solve_cubic_subproblem([0.0], [[-4.0]], 24.0)
    assert step.hard_case
    assert abs(step.s[0]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert step.boundary_multiplier == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_subproblem_random_instances_beat_random_search():
    rng = np.random.default_rng(101)
    for trial in range(100):
        m = int(rng.integers(1, 4))
        A = rng.normal(size=(m, m))
        hess = 0.5 * (A + A.T) * 2.0
        grad = rng.normal(size=m)
        M = float(rng.uniform(0.5, 8.0))
        step = solve_cubic_subproblem(grad, hess, M)
        pts = rng.uniform(-4, 4, size=(10000, m))
        vals = (pts @ grad + 0.5 * np.einsum("ij,jk,ik->i", pts, hess, pts)
                + (M / 6.0) * np.linalg.norm(pts, axis=1) ** 3)
        assert step.model_value <= vals.min() + 1e-8
        assert step.model_value <= 0.0
        r = step.boundary_multiplier
        assert abs(np.linalg.norm(step.s) - r) <= 1e-8 * (1.0 + r)


def make_hard_case(rng, m=3, lam_min=-1.0):
    """Instance with grad orthogonal to the bottom eigenvector and a radius gap."""
    Q, _ = np.linalg.qr(rng.normal(size=(m, m)))
    evals = np.sort(np.concatenate([[lam_min], rng.uniform(1.0, 3.0, size=m - 1)]))
    hess = Q @ np.diag(evals) @ Q.T
    order = np.argsort(evals)
    coef = np.zeros(m)
    coef[1:] = rng.normal(size=m - 1) * 0.01
    grad = Q[:, order] @ coef  # no component along the bottom eigenvector
    return grad, hess

def test_subproblem_hard_cases():
    rng = np.random.default_rng(211)
    n_hard = 0
    for _ in range(12):
        grad, hess = make_hard_case(rng)
        M = 3.0
        step = solve_cubic_subproblem(grad, hess, M)
        if step.hard_case:
            n_hard += 1
        s_ref, v_ref = brute_force_min(grad, hess, M, span=2.0, seed=rng.integers(1 << 30))
        assert step.model_value <= v_ref + 1e-6
        r = step.boundary_multiplier
        assert abs(np.linalg.norm(step.s) - r) <= 1e-8 * (1.0 + r)
    assert n_hard >= 10


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


def test_subproblem_1d_closed_form_matches_secular_reference():
    for g, h, M in closed_form_cases():
        step = solve_cubic_subproblem([g], [[h]], M)
        ref = _solve_cubic_secular(np.array([g]), np.array([[h]]), M)
        r = step.boundary_multiplier
        tol = 1e-9 * (1.0 + r)
        assert abs(step.s[0] - ref.s[0]) <= tol, (g, h, M)
        assert abs(r - ref.boundary_multiplier) <= tol, (g, h, M)
        assert step.hard_case == ref.hard_case, (g, h, M)
        assert step.model_value <= ref.model_value + 1e-12 * (1.0 + abs(ref.model_value))


def test_subproblem_1d_closed_form_is_the_exact_root():
    # 60-digit evaluation of the positive root of (M/2) r^2 + h r - |g| = 0
    ctx = decimal.Context(prec=60)
    for g, h, M in closed_form_cases():
        if abs(g) <= 1e-13 * (abs(g) + 1.0):
            continue  # below the threshold the step follows the |g| = 0 convention
        gd, hd, Md = (decimal.Decimal(v) for v in (abs(g), h, M))
        root = ctx.sqrt(ctx.add(ctx.multiply(hd, hd), ctx.multiply(2 * Md, gd)))
        r_exact = float(ctx.divide(ctx.subtract(root, hd), Md))
        step = solve_cubic_subproblem([g], [[h]], M)
        assert step.boundary_multiplier == pytest.approx(r_exact, rel=1e-13), (g, h, M)
        assert step.s[0] == -math.copysign(step.boundary_multiplier, g)


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
       g_scale=st.floats(0.0, 10.0), h_scale=st.floats(0.0, 10.0),
       M=st.floats(0.05, 100.0))
def test_subproblem_property_global_min_on_its_radius(m, seed, g_scale, h_scale, M):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, m))
    hess = h_scale * 0.5 * (A + A.T)
    grad = g_scale * rng.normal(size=m)
    step = solve_cubic_subproblem(grad, hess, M)
    lam = float(np.linalg.eigvalsh(hess)[0])
    # every minimizer has (M/2) r^2 <= |lambda_min| r + ||g||
    radius = (abs(lam) + math.sqrt(lam * lam + 2.0 * M * np.linalg.norm(grad))) / M
    _, v_ref = brute_force_min(grad, hess, M, span=1.5 * radius + 1e-3, n_random=4000,
                               seed=seed % 1000)
    assert step.model_value <= v_ref + 1e-9 * (1.0 + abs(v_ref))
    r = step.boundary_multiplier
    assert abs(np.linalg.norm(step.s) - r) <= 1e-9 * (1.0 + r)


def test_eigenpairs_1x1_equals_lapack_exactly():
    values = [0.0, -0.0, 1.0, -1.0, 2.5e-3, -7.25, 5e-324, -5e-324, 1e-300,
              -1e300, 1.7976931348623157e308, -1.7976931348623157e308]
    values += list(np.random.default_rng(5).normal(size=50) * 1e3)
    for h in values:
        H = np.array([[h]])
        w, v = _eigenpairs(H)
        w_ref, v_ref = np.linalg.eigh(H)
        assert w.tobytes() == w_ref.tobytes() and v.tobytes() == v_ref.tobytes()
        if abs(h) < 1e300:  # the symmetrized matrix cubic Newton diagonalized before
            w_sym, v_sym = np.linalg.eigh(0.5 * (H + H.T))
            assert w.tobytes() == w_sym.tobytes() and v.tobytes() == v_sym.tobytes()


def test_subproblem_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_cubic_subproblem([1.0, 0.0], [[1.0, 0.5], [0.0, 1.0]], 1.0)
    with pytest.raises(ValueError):
        solve_cubic_subproblem([np.nan], [[1.0]], 1.0)
    with pytest.raises(ValueError):
        solve_cubic_subproblem([1.0], [[1.0]], -2.0)


# ---------------------------------------------------------------------------
# cubic Newton
# ---------------------------------------------------------------------------

def test_cubic_newton_double_well(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=30)
    x = np.array([[0.0]])
    res = solve_lower(dataclasses.replace(double_well, y0=np.array([0.1])), x, cfg)
    assert abs(res.y_hat[0, 0] - 1.0) <= 1e-6
    assert abs(double_well.g(x, res.y_hat)[0] - (-1.0)) <= 1e-10
    assert res.oracle_counts["grad"][0] == 31
    assert res.oracle_counts["hess"][0] == 31


def test_cubic_newton_quadratic_one_step():
    p = quadratic_problem(m=2, y0=[0.8, -0.6])
    cfg = LowerSolverConfig(method="cubic_newton", M=1.0, max_iters=1)
    res = solve_lower(p, np.array([[0.0]]), cfg)
    step = solve_cubic_subproblem(p.y0, np.eye(2), 1.0)
    assert np.abs(res.iterates[1, 0] - (p.y0 + step.s)).max() <= 1e-14
    assert np.linalg.norm(res.iterates[1, 0]) < np.linalg.norm(p.y0)


def test_cubic_newton_escapes_saddle(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=10)
    res = solve_lower(dataclasses.replace(double_well, y0=np.array([0.0])), np.array([[0.0]]),
                      cfg)
    # first step solves the pure negative-curvature model: |s| = 2*4/24
    assert abs(abs(res.iterates[1, 0, 0]) - 1.0 / 3.0) <= 1e-12
    assert abs(res.y_hat[0, 0]) >= 0.5


def test_cubic_newton_descends_on_builtins(minimax, double_well, fold, quartic):
    rng = np.random.default_rng(41)
    cases = [(minimax, 32.0), (double_well, 24.0), (fold, 420.0), (quartic, 6200.0)]
    for problem, M in cases:
        lo, hi = problem.feasible_set.bbox
        cfg = LowerSolverConfig(method="cubic_newton", M=M, max_iters=12)
        for _ in range(5):
            x = rng.uniform(lo, hi)[None, :]
            res = solve_lower(problem, x, cfg)
            gs = problem.g(np.repeat(x, len(res.iterates), axis=0), res.iterates[:, 0])
            assert all(b <= a + 1e-12 for a, b in zip(gs, gs[1:]))
            assert problem.g(x, res.y_hat)[0] <= problem.g(x, problem.y0[None, :])[0] + 1e-12


def test_cubic_newton_two_phase(double_well):
    cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=30)
    x = np.array([[0.0]])
    res = solve_lower(dataclasses.replace(double_well, y0=np.array([0.1])), x, cfg)
    nus = res.stationarity_measures[:, 0]
    cummin = np.minimum.accumulate(nus)
    assert cummin[-1] < nus[0]
    assert (np.diff(cummin) <= 0).all()
    lam = double_well.hess_yy_g(x, res.y_hat)[0, 0, 0]
    assert lam > 0


def test_cubic_newton_selection_ties_smallest_index():
    p = quadratic_problem(m=1, y0=[0.0])  # already optimal: nu = 0 at every k
    cfg = LowerSolverConfig(method="cubic_newton", M=1.0, max_iters=5)
    res = solve_lower(p, np.array([[0.0]]), cfg)
    assert res.selected_index[0] == 0


# ---------------------------------------------------------------------------
# gradient descent
# ---------------------------------------------------------------------------

def test_gd_double_well_converges(double_well):
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=500)
    res = solve_lower(dataclasses.replace(double_well, y0=np.array([0.5])), np.array([[0.0]]),
                      cfg)
    assert abs(res.y_hat[0, 0] - 1.0) <= 1e-4
    assert res.selected_index[0] == res.oracle_counts["grad"][0] - 1  # the last iterate


def test_gd_stalls_at_degenerate_start(double_well):
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=200)
    res = solve_lower(double_well, np.array([[0.0]]), cfg)
    assert res.y_hat[0, 0] == 0.0
    assert all(y[0, 0] == 0.0 for y in res.iterates)


def test_gd_zero_iterations(double_well):
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=0)
    res = solve_lower(dataclasses.replace(double_well, y0=np.array([0.7])), np.array([[0.3]]),
                      cfg)
    assert res.y_hat[0, 0] == 0.7


def test_gd_stays_in_level_set(minimax, double_well, fold, quartic):
    rng = np.random.default_rng(43)
    cases = [(minimax, 0.01, 200), (double_well, 0.02, 200),
             (fold, 0.002, 200), (quartic, 1e-6, 100)]
    for problem, eta, K in cases:
        lo, hi = problem.feasible_set.bbox
        cfg = LowerSolverConfig(method="gradient_descent", eta=eta, max_iters=K)
        for _ in range(10):
            x = rng.uniform(lo, hi)[None, :]
            res = solve_lower(problem, x, cfg)
            g0 = problem.g(x, problem.y0[None, :])[0]
            gs = problem.g(np.repeat(x, len(res.iterates), axis=0), res.iterates[:, 0])
            assert all(g <= g0 + 1e-12 for g in gs)


def test_gd_early_exit():
    p = quadratic_problem(m=1, y0=[1.0])
    cfg = LowerSolverConfig(method="gradient_descent", eta=0.5, max_iters=1000,
                            grad_tol=1e-6)
    res = solve_lower(p, np.array([[0.0]]), cfg)
    n = res.oracle_counts["grad"][0]  # the iterates the lane ran
    assert res.grad_norms[n - 1, 0] <= 1e-6
    assert n < 1001


def test_gd_nonfinite_raises():
    p = quadratic_problem(m=1, y0=[1.0])
    cfg = LowerSolverConfig(method="gradient_descent", eta=1e300, max_iters=50)
    with np.errstate(over="ignore", invalid="ignore"):
        res = solve_lower(p, np.array([[0.0]]), cfg)
    assert isinstance(res.errors[0], LowerSolveError)


def assert_lanes_match_single_solves(problem, xs, cfg):
    """Solving the rows of xs together equals solving each as a batch of one
    lane, bit for bit; returns the batched result."""
    batch = run_lower_lean(problem, xs, cfg)
    for lane in range(len(xs)):
        single = solve_lower(problem, xs[lane:lane + 1], cfg)
        n = single.oracle_counts["grad"][0]
        assert batch.y_hat[lane].tobytes() == single.y_hat[0].tobytes()
        assert batch.selected_index[lane] == single.selected_index[0]
        assert {k: int(v[lane]) for k, v in batch.oracle_counts.items()} == \
            {k: int(v[0]) for k, v in single.oracle_counts.items()}
        assert batch.errors[lane] is None and single.errors[0] is None
        assert np.array_equal(batch.iterates[:n, lane], single.iterates[:n, 0])
        assert batch.grad_norms[:n, lane].tolist() == single.grad_norms[:n, 0].tolist()
        assert np.isnan(batch.grad_norms[n:, lane]).all()
        if cfg.method == "cubic_newton":
            assert batch.stationarity_measures[:n, lane].tolist() == \
                single.stationarity_measures[:n, 0].tolist()
    return batch


def assert_same_solve(a, b):
    """Two solves of the same lanes agree in y_hat, selection and oracle counts."""
    assert np.array_equal(a.y_hat, b.y_hat)
    assert np.array_equal(a.selected_index, b.selected_index)
    assert a.oracle_counts.keys() == b.oracle_counts.keys()
    assert all(np.array_equal(a.oracle_counts[k], b.oracle_counts[k]) for k in a.oracle_counts)


def test_lean_path_matches_recording_solver(minimax, double_well):
    # run_lower_lean, the name the estimator solves through, is the batched
    # solver: a batch of lanes equals single-point recording solves
    for problem, eta in [(minimax, 0.01), (double_well, 0.02)]:
        cfg = LowerSolverConfig(method="gradient_descent", eta=eta, max_iters=50)
        x = np.array([[0.4] * problem.n])
        assert_same_solve(run_lower_lean(problem, x, cfg), solve_lower(problem, x, cfg))
        xs = np.linspace(-1.5, 1.5, 7).reshape(-1, 1)
        assert_lanes_match_single_solves(problem, xs, cfg)


@pytest.mark.parametrize("method,selection", [
    ("gradient_descent", "last"), ("cubic_newton", "stationarity")])
def test_lean_path_honours_selection(minimax, double_well, method, selection):
    for problem, x in [(minimax, [-0.1]), (double_well, [0.3])]:
        cfg = LowerSolverConfig(method=method, eta=0.2, M=24.0, max_iters=20)
        full = solve_lower(problem, np.array([x]), cfg)
        assert_same_solve(run_lower_lean(problem, np.array([x]), cfg), full)
        if selection == "last":
            assert full.selected_index[0] == full.oracle_counts["grad"][0] - 1
        else:
            assert full.selected_index[0] == int(np.argmin(full.stationarity_measures[:, 0]))
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
        quadratic_problem(m=1, y0=[0.0]),
        grad_y_g=lambda x, y: np.where((y < 0.25) | (x <= 0.0), -1.0, math.nan))
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
        assert batch.y_hat[lane, 0] == 0.25 * K


@pytest.mark.parametrize("what", ["Hessian", "iterate"])
def test_lane_failures_name_step_and_cause(double_well, what):
    # lanes with x > 0 get a NaN Hessian once |y| > 0.2, or an overflowing step
    def hess(x, y):
        h = double_well.hess_yy_g(x, y)
        return np.where((x[..., None] > 0) & (np.abs(y[..., None]) > 0.2), math.nan, h)

    p = dataclasses.replace(double_well, y0=np.array([0.1]))
    if what == "Hessian":
        p = dataclasses.replace(p, hess_yy_g=hess)
        cfg = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=6)
    else:
        p = dataclasses.replace(p, grad_y_g=lambda x, y: np.where(x > 0, -1e308, 1.0) * y)
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


def test_solve_lower_dispatch(double_well):
    gd = LowerSolverConfig(method="gradient_descent", eta=0.05, max_iters=10)
    cn = LowerSolverConfig(method="cubic_newton", M=24.0, max_iters=10)
    assert solve_lower(double_well, np.array([[0.0]]), gd).stationarity_measures == []
    assert len(solve_lower(double_well, np.array([[0.0]]), cn).stationarity_measures) > 0


def test_config_validation():
    with pytest.raises(ValueError):
        LowerSolverConfig(method="nope")
    with pytest.raises(ValueError):
        LowerSolverConfig(method="gradient_descent", eta=-1.0)
    with pytest.raises(ValueError):
        LowerSolverConfig(method="cubic_newton", M=0.0)
