import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinbio import (ball_set, box_set, custom_set, get_problem, perturb_linear,
                     problem_library)
from scinbio.problems import LOWER_DEFAULTS, PROBLEM_NAMES

from conftest import central_diff_grad


def arr(*vals):
    return np.array([float(v) for v in vals])


# ---------------------------------------------------------------------------
# builtin example values
# ---------------------------------------------------------------------------

def test_minimax_values(minimax):
    assert minimax.f(arr(0.0), arr(0.0)) == 0.0
    assert minimax.f(arr(1.0), arr(0.0)) == pytest.approx(math.sin(1.0), abs=1e-12)


def test_minimax_grad_matches_fd(minimax):
    x = arr(1.0)
    fd = central_diff_grad(lambda y: minimax.g(x, y), arr(0.0), 1e-6)
    grad = minimax.grad_y_g(x, arr(0.0))
    assert np.abs(grad - fd).max() <= 1e-6


def test_double_well_values(double_well):
    # stationary points of g(0, .) are the roots of 4y(y^2 - 1)
    for y in (-1.0, 0.0, 1.0):
        assert double_well.grad_y_g(arr(0.0), arr(y))[0] == 0.0
    assert double_well.g(arr(0.0), arr(1.0)) == -1.0
    assert double_well.g(arr(0.5), arr(1.5)) == -1.0


def test_double_well_shift_structure(double_well):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(-2, 2), rng.uniform(-4, 4)
        assert double_well.g(arr(x), arr(y)) == double_well.g(arr(0.0), arr(y - x))


def test_fold_branch_values(fold):
    root = math.sqrt((2 * 0.75 - 1) / (9 * 0.75 - 6 * 0.75 ** 2))
    assert root == pytest.approx(0.3849, abs=1e-3)
    for s in (+1.0, -1.0):
        g = fold.grad_y_g(arr(0.75, 0.3), arr(s * root))
        assert abs(float(np.atleast_1d(g)[0])) < 1e-12
    # degenerate point: gradient and curvature both vanish at (x1=1/2, y=0)
    assert float(np.atleast_1d(fold.grad_y_g(arr(0.5, 0.0), arr(0.0)))[0]) == 0.0
    assert fold.hess_yy_g(arr(0.5, 0.0), arr(0.0))[0, 0] == 0.0
    assert fold.g(arr(0.5, 0.0), arr(0.0)) == 0.0


def test_fold_confinement_inactive_in_window(fold):
    # the confinement term vanishes identically on |y| <= 1.5
    x = arr(0.3, -0.5)
    for y in (-1.5, -0.7, 0.0, 1.2, 1.5):
        x1 = x[0]
        cubic = (1 - 2 * x1) * y + (3 * x1 - 2 * x1 ** 2) * y ** 3
        assert fold.g(x, arr(y)) == cubic


def test_quartic_coefficient_structure(quartic):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-4, 5, size=2)
        c3 = x[0] ** 2 - 5 * x[0] * x[1] + 2 * x[1] ** 2 - 7 * x[0] + 8 * x[1] - 30
        c2 = x[0] ** 2 - 3 * x[0] * x[1] + 4 * x[1] ** 2 - 5 * x[0] + 2 * x[1] - 40
        assert quartic.hess_yy_g(x, arr(0.0))[0, 0] == pytest.approx(2 * c2, rel=1e-12)
        g0 = float(np.atleast_1d(quartic.grad_y_g(x, arr(0.0)))[0])
        assert g0 == pytest.approx(c3, rel=1e-12)


# ---------------------------------------------------------------------------
# derivative oracles vs finite differences on random feasible points
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_analytic_derivatives_match_fd(name):
    problem = get_problem(name)
    rng = np.random.default_rng(11)
    lo, hi = problem.feasible_set.bbox
    for _ in range(100):
        x = rng.uniform(lo, hi)
        y = rng.uniform(-2.0, 2.0, size=problem.m)
        grad = np.atleast_1d(np.asarray(problem.grad_y_g(x, y), dtype=float))
        fd_g = central_diff_grad(lambda yy: problem.g(x, yy), y, 1e-5)
        assert np.abs(grad - fd_g).max() <= 1e-4 * (1.0 + np.abs(grad).max())
        hess_col = np.atleast_2d(problem.hess_yy_g(x, y))
        fd_h = central_diff_grad(
            lambda yy: float(np.atleast_1d(problem.grad_y_g(x, yy))[0]), y, 1e-4)
        assert np.abs(hess_col[0] - fd_h).max() <= 1e-4 * (1.0 + np.abs(hess_col).max())


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_cross_derivative_matches_fd(name):
    problem = get_problem(name)
    rng = np.random.default_rng(13)
    lo, hi = problem.feasible_set.bbox
    for _ in range(20):
        x = rng.uniform(lo, hi)
        y = rng.uniform(-1.5, 1.5, size=problem.m)
        J = np.atleast_2d(problem.grad_x_grad_y_g(x, y))
        for i in range(problem.n):
            xp = x.copy(); xp[i] += 1e-6
            xm = x.copy(); xm[i] -= 1e-6
            fd = (np.atleast_1d(problem.grad_y_g(xp, y))
                  - np.atleast_1d(problem.grad_y_g(xm, y))) / 2e-6
            assert np.abs(J[:, i] - fd).max() <= 1e-5 * (1.0 + np.abs(J).max())


def test_hessian_symmetry_m2():
    from conftest import quadratic_problem
    p = quadratic_problem(m=2)
    H = p.hess_yy_g(arr(0.0), arr(0.3, -0.4))
    assert np.abs(H - H.T).max() <= 1e-10 * (1.0 + np.abs(H).max())


# ---------------------------------------------------------------------------
# value cap
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_f_bar_covers_reachable_region(name):
    problem = get_problem(name)
    rng = np.random.default_rng(5)
    lo, hi = problem.feasible_set.bbox
    y_span = 210.0 if name == "quartic" else 5.0
    checked = 0
    for _ in range(1000):
        x = rng.uniform(lo, hi)
        y = rng.uniform(-y_span, y_span, size=problem.m)
        if problem.g(x, y) <= problem.g(x, problem.y0):
            assert abs(problem.f(x, y)) <= problem.f_bar
            checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# perturbation
# ---------------------------------------------------------------------------

def test_perturb_identity(double_well):
    rng = np.random.default_rng(17)
    p = perturb_linear(double_well, [0.0])
    for _ in range(10):
        x, y = arr(rng.uniform(-2, 2)), arr(rng.uniform(-2, 2))
        assert p.g(x, y) == double_well.g(x, y)
        assert np.array_equal(p.hess_yy_g(x, y), double_well.hess_yy_g(x, y))


def test_perturb_shifts_gradient(double_well):
    rng = np.random.default_rng(19)
    a = np.array([0.37])
    p = perturb_linear(double_well, a)
    for _ in range(10):
        x, y = arr(rng.uniform(-2, 2)), arr(rng.uniform(-2, 2))
        grad = np.atleast_1d(double_well.grad_y_g(x, y))
        diff = np.atleast_1d(p.grad_y_g(x, y)) - grad
        assert np.abs(diff - a).max() <= 1e-12 * (1.0 + np.abs(grad).max())


def test_perturb_composes_additively(double_well):
    rng = np.random.default_rng(23)
    a, b = np.array([0.21]), np.array([-0.45])
    twice = perturb_linear(perturb_linear(double_well, a), b)
    once = perturb_linear(double_well, a + b)
    for _ in range(10):
        x, y = arr(rng.uniform(-2, 2)), arr(rng.uniform(-2, 2))
        assert abs(twice.g(x, y) - once.g(x, y)) <= 1e-12


def test_perturb_dimension_mismatch(double_well):
    with pytest.raises(ValueError):
        perturb_linear(double_well, [1.0, 2.0])


# ---------------------------------------------------------------------------
# feasible sets
# ---------------------------------------------------------------------------

@pytest.fixture(params=["box", "ball", "custom"])
def feasible(request):
    if request.param == "box":
        return box_set([-1.0, 0.0], [2.0, 1.5])
    if request.param == "ball":
        return ball_set([0.5, -0.5], 2.0)
    base = box_set([-1.0, -1.0], [1.0, 1.0])
    return custom_set(base.project, base.contains, base.bbox)


def test_projection_idempotent(feasible):
    rng = np.random.default_rng(29)
    for _ in range(50):
        z = rng.uniform(-5, 5, size=2)
        p1 = feasible.project(z)
        p2 = feasible.project(p1)
        assert np.abs(p2 - p1).max() <= 1e-12


def test_projection_lands_inside(feasible):
    rng = np.random.default_rng(31)
    for _ in range(50):
        z = rng.uniform(-5, 5, size=2)
        assert feasible.contains(feasible.project(z))


def test_projection_is_nearest(feasible):
    rng = np.random.default_rng(37)
    lo, hi = feasible.bbox
    for _ in range(20):
        z = rng.uniform(-5, 5, size=2)
        p = feasible.project(z)
        for _ in range(50):
            w = rng.uniform(lo, hi)
            if feasible.contains(w):
                assert np.linalg.norm(p - z) <= np.linalg.norm(w - z) + 1e-12


def _vectors(m, bound=10.0):
    return st.lists(st.floats(-bound, bound), min_size=m, max_size=m).map(np.array)


@pytest.mark.parametrize("kind", ["box", "ball"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_projection_nearest_point_property(kind, data):
    # P(z) is the nearest point iff (z - P(z)) . (w - P(z)) <= 0 for every feasible w
    m = data.draw(st.integers(1, 3), label="m")
    z = data.draw(_vectors(m), label="z")
    if kind == "box":
        a, b = data.draw(_vectors(m), label="a"), data.draw(_vectors(m), label="b")
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        t = data.draw(_vectors(m, 1.0), label="t")
        feasible = box_set(lo, hi)
        w = np.clip(lo + 0.5 * (t + 1.0) * (hi - lo), lo, hi)
    else:
        center = data.draw(_vectors(m), label="center")
        radius = data.draw(st.floats(1e-3, 10.0), label="radius")
        d = data.draw(_vectors(m, 1.0), label="d")
        feasible = ball_set(center, radius)
        w = center + radius * d / max(1.0, float(np.linalg.norm(d)))
    p = feasible.project(z)
    assert float((z - p) @ (w - p)) <= 1e-12 * (1.0 + float(z @ z))


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

def test_library_names_unique():
    entries = problem_library()
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    assert set(names) == set(PROBLEM_NAMES)
    assert set(LOWER_DEFAULTS) == set(PROBLEM_NAMES)


def test_get_problem_unknown():
    with pytest.raises(KeyError):
        get_problem("nope")


def test_with_y0(double_well):
    p = double_well.with_y0([0.5])
    assert p.y0[0] == 0.5
    assert double_well.y0[0] == 0.0
