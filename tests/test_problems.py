import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinbio import box_set, get_problem
from scinbio.problems import LOWER_DEFAULTS, PROBLEM_NAMES, call_oracle

from conftest import at, central_diff_grad


def arr(*vals):
    return np.array([float(v) for v in vals])


# ---------------------------------------------------------------------------
# builtin example values
# ---------------------------------------------------------------------------

def test_minimax_values(minimax):
    assert at(minimax, "f", arr(0.0), arr(0.0)) == 0.0
    assert at(minimax, "f", arr(1.0), arr(0.0)) == pytest.approx(math.sin(1.0), abs=1e-12)


def test_minimax_grad_matches_fd(minimax):
    x = arr(1.0)
    fd = central_diff_grad(lambda y: at(minimax, "g", x, y), arr(0.0), 1e-6)
    grad = at(minimax, "grad_y_g", x, arr(0.0))
    assert np.abs(grad - fd).max() <= 1e-6


def test_double_well_values(double_well):
    # stationary points of g(0, .) are the roots of 4y(y^2 - 1)
    for y in (-1.0, 0.0, 1.0):
        assert at(double_well, "grad_y_g", arr(0.0), arr(y))[0] == 0.0
    assert at(double_well, "g", arr(0.0), arr(1.0)) == -1.0
    assert at(double_well, "g", arr(0.5), arr(1.5)) == -1.0


def test_double_well_shift_structure(double_well):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(-2, 2), rng.uniform(-4, 4)
        assert at(double_well, "g", arr(x), arr(y)) == at(double_well, "g", arr(0.0), arr(y - x))


def test_fold_branch_values(fold):
    root = math.sqrt((2 * 0.75 - 1) / (9 * 0.75 - 6 * 0.75 ** 2))
    assert root == pytest.approx(0.3849, abs=1e-3)
    for s in (+1.0, -1.0):
        g = at(fold, "grad_y_g", arr(0.75, 0.3), arr(s * root))
        assert abs(float(g[0])) < 1e-12
    # degenerate point: gradient and curvature both vanish at (x1=1/2, y=0)
    assert float(at(fold, "grad_y_g", arr(0.5, 0.0), arr(0.0))[0]) == 0.0
    assert at(fold, "hess_yy_g", arr(0.5, 0.0), arr(0.0))[0, 0] == 0.0
    assert at(fold, "g", arr(0.5, 0.0), arr(0.0)) == 0.0


def test_fold_confinement_inactive_in_window(fold):
    # the confinement term vanishes identically on |y| <= 1.5; the cubic is
    # spelled with the oracle's product y * y * y, since y ** 3 rounds apart
    # from it at some y (1.2 among these)
    x = arr(0.3, -0.5)
    for y in (-1.5, -0.7, 0.0, 1.2, 1.5):
        x1 = x[0]
        cubic = (1 - 2 * x1) * y + (3 * x1 - 2 * x1 ** 2) * (y * y * y)
        assert at(fold, "g", x, arr(y)) == cubic


def _fold_grad_y_g_full(x, y):
    """The fold's grad_y_g with its confinement term always added: the
    formula the oracle reduces to when every y lies in [-1.5, 1.5]."""
    x1, yy = x[..., 0], y[..., 0]
    t = 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * yy
    t *= yy
    t += 1.0 - 2.0 * x1
    t += 40.0 * np.power(np.maximum(0.0, np.abs(yy) - 1.5), 3) * np.sign(yy)
    return t[..., None]


def _x1_cancelling_at(y):
    """An x1 at which the fold's grad_y_g without its confinement term is
    exactly 0.0 at y, so that the term shows in the sum however small it is
    (one ulp beyond the window it is 4.4e-46).  Near the smaller root of
    3 y^2 (3 x1 - 2 x1^2) + 1 - 2 x1 = 0 the chain cancels exactly at some x1."""
    a = 9.0 * y * y - 2.0
    root = (a - math.sqrt(a * a + 24.0 * y * y)) / (12.0 * y * y)
    x1 = root + np.arange(-2000, 2000) * np.spacing(root)
    t = 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * y
    t *= y
    t += 1.0 - 2.0 * x1
    return float(x1[np.flatnonzero(t == 0.0)[0]])


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_fold_grad_y_g_window_shortcut_keeps_every_bit(fold):
    # the oracle skips the confinement term when every y lies in [-1.5, 1.5];
    # it must give the bits of the full formula, signbit and NaN included,
    # inside, on and one ulp beyond either edge
    edge = np.nextafter(1.5, np.inf)
    ys = [0.0, -0.0, 0.3, -1.2, 1.5, -1.5, np.nextafter(1.5, 0.0), edge, -edge,
          2.0, -3.0, np.nan, np.inf, -np.inf]
    x1s = [0.0, 0.5, 0.25, 1.0, -2.0, np.nan, np.inf, -np.inf, _x1_cancelling_at(edge)]
    for x1 in x1s:
        for y in ys:
            x, yy = np.array([[x1, 0.3]]), np.array([[y]])
            assert _same_bits(call_oracle(fold, "grad_y_g", x, yy),
                              _fold_grad_y_g_full(x, yy)), (x1, y)
    # beyond the window by one ulp the term is nonzero at the cancelling x1,
    # so a bound one ulp wider changes the result
    x = np.array([[x1s[-1], 0.0]] * 2)
    assert np.all(_fold_grad_y_g_full(x, np.array([[edge], [-edge]]))[:, 0] != 0.0)
    # whole batches, in the window and across it, as lanes and in the scan's
    # broadcast shapes x (C, 1, 2) against y (1, R, 1)
    inside = [y for y in ys if abs(y) <= 1.5]
    xc = np.array([[x1, -0.5] for x1 in x1s])
    for batch in (inside, ys):
        yl = np.array(batch)
        xl = np.repeat(xc, yl.size, axis=0)
        yl = np.tile(yl, len(x1s))[:, None]
        assert _same_bits(call_oracle(fold, "grad_y_g", xl, yl), _fold_grad_y_g_full(xl, yl))
        xb, yb = xc[:, None, :], np.array(batch)[None, :, None]
        assert _same_bits(call_oracle(fold, "grad_y_g", xb, yb), _fold_grad_y_g_full(xb, yb))
    empty_x, empty_y = np.empty((0, 2)), np.empty((0, 1))
    assert call_oracle(fold, "grad_y_g", empty_x, empty_y).shape == (0, 1)


def test_quartic_coefficient_structure(quartic):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-4, 5, size=2)
        c3 = x[0] ** 2 - 5 * x[0] * x[1] + 2 * x[1] ** 2 - 7 * x[0] + 8 * x[1] - 30
        c2 = x[0] ** 2 - 3 * x[0] * x[1] + 4 * x[1] ** 2 - 5 * x[0] + 2 * x[1] - 40
        assert at(quartic, "hess_yy_g", x, arr(0.0))[0, 0] == pytest.approx(2 * c2, rel=1e-12)
        g0 = float(at(quartic, "grad_y_g", x, arr(0.0))[0])
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
        y = rng.uniform(-2.0, 2.0, size=1)
        grad = at(problem, "grad_y_g", x, y)
        fd_g = central_diff_grad(lambda yy: at(problem, "g", x, yy), y, 1e-5)
        assert np.abs(grad - fd_g).max() <= 1e-4 * (1.0 + np.abs(grad).max())
        hess_col = at(problem, "hess_yy_g", x, y)
        fd_h = central_diff_grad(lambda yy: float(at(problem, "grad_y_g", x, yy)[0]), y, 1e-4)
        assert np.abs(hess_col[0] - fd_h).max() <= 1e-4 * (1.0 + np.abs(hess_col).max())


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_cross_derivative_matches_fd(name):
    problem = get_problem(name)
    rng = np.random.default_rng(13)
    lo, hi = problem.feasible_set.bbox
    for _ in range(20):
        x = rng.uniform(lo, hi)
        y = rng.uniform(-1.5, 1.5, size=1)
        J = at(problem, "grad_x_grad_y_g", x, y)
        for i in range(problem.n):
            xp = x.copy(); xp[i] += 1e-6
            xm = x.copy(); xm[i] -= 1e-6
            fd = (at(problem, "grad_y_g", xp, y) - at(problem, "grad_y_g", xm, y)) / 2e-6
            assert np.abs(J[:, i] - fd).max() <= 1e-5 * (1.0 + np.abs(J).max())
    # lane convention: L = 5 lanes give (L, 1, n), each lane the block of its
    # point run as a batch of one
    xs = rng.uniform(lo, hi, size=(5, problem.n))
    ys = rng.uniform(-1.5, 1.5, size=(5, 1))
    lanes = problem.grad_x_grad_y_g(xs, ys)
    assert lanes.shape == (5, 1, problem.n)
    for k in range(5):
        single = at(problem, "grad_x_grad_y_g", xs[k], ys[k])
        assert single.shape == (1, problem.n)
        assert np.array_equal(lanes[k], single)


# y spans of the lane test: each problem's sublevel region (minimax, double
# well), past the fold's confinement edge 1.5, the quartic's scan window
_LANE_Y_SPAN = {"minimax": 6.0, "double-well": 4.0, "fold": 2.0, "quartic": 250.0}


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_lanes_equal_single_points_bit_for_bit(name):
    # the lane convention's bit rule: an oracle rounds each lane as it rounds
    # that point run as a batch of one, so lockstep callers get the bits of
    # one-point callers
    problem = get_problem(name)
    rng = np.random.default_rng(17)
    lo, hi = problem.feasible_set.bbox
    span = _LANE_Y_SPAN[name]
    xs = rng.uniform(lo, hi, size=(2000, problem.n))
    ys = rng.uniform(-span, span, size=(2000, 1))
    for oracle in ("f", "g", "grad_y_g", "hess_yy_g", "grad_x_grad_y_g"):
        fn = getattr(problem, oracle)
        lanes = np.asarray(fn(xs, ys))
        differ = []
        for k in range(2000):
            single = np.asarray(fn(xs[k:k + 1], ys[k:k + 1]))[0]
            if single.shape != lanes[k].shape or not np.array_equal(lanes[k], single):
                differ.append(k)
        assert differ == [], (oracle, len(differ), differ[:5])


@pytest.mark.parametrize("oracle, expected", [
    ("f", (3,)), ("g", (3,)), ("grad_y_g", (3, 1)), ("hess_yy_g", (3, 1, 1)),
    ("grad_x_grad_y_g", (3, 1, 2))])
def test_call_oracle_names_a_wrong_shape(fold, oracle, expected):
    # an oracle that drops the lane axis returns its first lane's output only;
    # the checked call names the oracle and the (L, ...) shape it expected
    real = getattr(fold, oracle)
    bad = dataclasses.replace(fold, **{oracle: lambda x, y: real(x, y)[0]})
    xs, ys = np.full((3, 2), 0.25), np.full((3, 1), 0.5)
    assert call_oracle(fold, oracle, xs, ys).shape == expected
    with pytest.raises(ValueError, match=re.escape(
            f"{oracle} returned shape {expected[1:]} for x (3, 2) and y (3, 1); the lane "
            f"convention of scinbio.problems expects {expected}")):
        call_oracle(bad, oracle, xs, ys)


_ORACLES = ("f", "g", "grad_y_g", "hess_yy_g", "grad_x_grad_y_g")


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_broadcast_batches_equal_flattened_lanes_bit_for_bit(name, data):
    # x (C, 1, n) against y (1, R, 1), as the scan's grid phase hands them,
    # gives each of the C R points the bits of the flattened (C R, n) lanes
    problem = get_problem(name)
    C, R = data.draw(st.integers(1, 5), label="C"), data.draw(st.integers(1, 5), label="R")
    lo, hi = problem.feasible_set.bbox
    span = _LANE_Y_SPAN[name]
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=C * problem.n,
                                    max_size=C * problem.n), label="t"))
    x = (lo + t.reshape(C, problem.n) * (hi - lo))[:, None, :]
    y = np.array(data.draw(st.lists(st.floats(-span, span), min_size=R, max_size=R),
                           label="y")).reshape(1, R, 1)
    xs = np.broadcast_to(x, (C, R, problem.n)).reshape(C * R, problem.n)
    ys = np.broadcast_to(y, (C, R, 1)).reshape(C * R, 1)
    for oracle in _ORACLES:
        grid = call_oracle(problem, oracle, x, y)
        lanes = call_oracle(problem, oracle, xs, ys)
        assert grid.shape == (C, R) + lanes.shape[1:], oracle
        assert grid.reshape(lanes.shape).tobytes() == lanes.tobytes(), oracle


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_oracles_are_pure(name):
    # kernels may work in place on their own temporaries, never on their
    # inputs: on lanes, on a scan's broadcast batch and on one point (where
    # y[..., 0] is 0-d), x and y keep their bytes and no output is a view
    # of either
    problem = get_problem(name)
    rng = np.random.default_rng(5)
    lo, hi = problem.feasible_set.bbox
    span = _LANE_Y_SPAN[name]
    for bx, by in (((7,), (7,)), ((4, 1), (1, 6)), ((), ())):
        x = rng.uniform(lo, hi, size=bx + (problem.n,))
        y = rng.uniform(-span, span, size=by + (1,))
        x0, y0 = x.copy(), y.copy()
        for oracle in _ORACLES:
            out = getattr(problem, oracle)(x, y)
            assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes(), (oracle, bx)
            assert not np.shares_memory(out, x), (oracle, bx)
            assert not np.shares_memory(out, y), (oracle, bx)


def test_call_oracle_names_the_broadcast_shape(fold):
    # an oracle that answers on x's batch shape alone, not the broadcast one
    bad = dataclasses.replace(fold, grad_y_g=lambda x, y: np.zeros(x.shape[:-1] + (1,)))
    x, y = np.full((3, 1, 2), 0.25), np.full((1, 4, 1), 0.5)
    assert call_oracle(fold, "grad_y_g", x, y).shape == (3, 4, 1)
    with pytest.raises(ValueError, match=re.escape(
            "grad_y_g returned shape (3, 1, 1) for x (3, 1, 2) and y (1, 4, 1); the lane "
            "convention of scinbio.problems expects (3, 4, 1)")):
        call_oracle(bad, "grad_y_g", x, y)


@pytest.mark.parametrize("oracle", _ORACLES)
def test_call_oracle_rejects_batches_that_do_not_broadcast(fold, oracle):
    with pytest.raises(ValueError, match="cannot be broadcast"):
        call_oracle(fold, oracle, np.full((3, 2), 0.25), np.full((2, 1), 0.5))


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
        y = rng.uniform(-y_span, y_span, size=1)
        if at(problem, "g", x, y) <= at(problem, "g", x, problem.y0):
            assert abs(at(problem, "f", x, y)) <= problem.f_bar
            checked += 1
    assert checked > 30


# ---------------------------------------------------------------------------
# feasible sets
# ---------------------------------------------------------------------------

@pytest.fixture(params=["box"])
def feasible(request):
    return box_set([-1.0, 0.0], [2.0, 1.5])


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


@pytest.mark.parametrize("kind", ["box"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_projection_nearest_point_property(kind, data):
    # P(z) is the nearest point iff (z - P(z)) . (w - P(z)) <= 0 for every feasible w
    m = data.draw(st.integers(1, 3), label="m")
    z = data.draw(_vectors(m), label="z")
    a, b = data.draw(_vectors(m), label="a"), data.draw(_vectors(m), label="b")
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    t = data.draw(_vectors(m, 1.0), label="t")
    feasible = box_set(lo, hi)
    w = np.clip(lo + 0.5 * (t + 1.0) * (hi - lo), lo, hi)
    p = feasible.project(z)
    assert float((z - p) @ (w - p)) <= 1e-12 * (1.0 + float(z @ z))


# ---------------------------------------------------------------------------
# library
# ---------------------------------------------------------------------------

def test_library_names_unique():
    assert len(PROBLEM_NAMES) == len(set(PROBLEM_NAMES))
    assert set(LOWER_DEFAULTS) == set(PROBLEM_NAMES)
    assert [get_problem(name).n for name in PROBLEM_NAMES] == [1, 1, 2, 2]


def test_get_problem_unknown():
    with pytest.raises(KeyError):
        get_problem("nope")
