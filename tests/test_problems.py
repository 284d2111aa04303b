import dataclasses
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinbio import box_set, get_problem
from scinbio.problems import LOWER_DEFAULTS, PROBLEM_NAMES, call_oracle

from conftest import at, central_diff


def arr(*vals):
    return np.array([float(v) for v in vals])


# ---------------------------------------------------------------------------
# builtin example values
# ---------------------------------------------------------------------------

def test_minimax_values(minimax):
    assert at(minimax, "f", arr(0.0), 0.0) == 0.0
    assert at(minimax, "f", arr(1.0), 0.0) == pytest.approx(math.sin(1.0), abs=1e-12)


def test_minimax_grad_matches_fd(minimax):
    x = arr(1.0)
    fd = central_diff(lambda y: at(minimax, "g", x, y), 0.0, 1e-6)
    grad = at(minimax, "grad_y_g", x, 0.0)
    assert abs(grad - fd) <= 1e-6


def test_double_well_values(double_well):
    # stationary points of g(0, .) are the roots of 4y(y^2 - 1)
    for y in (-1.0, 0.0, 1.0):
        assert at(double_well, "grad_y_g", arr(0.0), y) == 0.0
    assert at(double_well, "g", arr(0.0), 1.0) == -1.0
    assert at(double_well, "g", arr(0.5), 1.5) == -1.0


def test_double_well_shift_structure(double_well):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.uniform(-2, 2), rng.uniform(-4, 4)
        assert at(double_well, "g", arr(x), y) == at(double_well, "g", arr(0.0), y - x)


def test_fold_branch_values(fold):
    root = math.sqrt((2 * 0.75 - 1) / (9 * 0.75 - 6 * 0.75 ** 2))
    assert root == pytest.approx(0.3849, abs=1e-3)
    for s in (+1.0, -1.0):
        g = at(fold, "grad_y_g", arr(0.75, 0.3), s * root)
        assert abs(g) < 1e-12
    # degenerate point: gradient and curvature both vanish at (x1=1/2, y=0)
    assert at(fold, "grad_y_g", arr(0.5, 0.0), 0.0) == 0.0
    assert at(fold, "hess_yy_g", arr(0.5, 0.0), 0.0) == 0.0
    assert at(fold, "g", arr(0.5, 0.0), 0.0) == 0.0


def test_fold_confinement_inactive_in_window(fold):
    # the confinement term vanishes identically on |y| <= 1.5; the cubic is
    # spelled with the oracle's product y * y * y, since y ** 3 rounds apart
    # from it at some y (1.2 among these)
    x = arr(0.3, -0.5)
    for y in (-1.5, -0.7, 0.0, 1.2, 1.5):
        x1 = x[0]
        cubic = (1 - 2 * x1) * y + (3 * x1 - 2 * x1 ** 2) * (y * y * y)
        assert at(fold, "g", x, y) == cubic


def _fold_grad_y_g_full(x, y):
    """The fold's grad_y_g with its confinement term always added: the
    formula the oracle reduces to when every y lies in [-1.5, 1.5]."""
    x1 = x[..., 0]
    r = np.maximum(0.0, np.abs(y) - 1.5)
    t = 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * y
    t *= y
    t += 1.0 - 2.0 * x1
    t += 40.0 * (r * r * r) * np.sign(y)
    return t


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
            x, yy = np.array([[x1, 0.3]]), np.array([y])
            assert _same_bits(call_oracle(fold, "grad_y_g", x, yy),
                              _fold_grad_y_g_full(x, yy)), (x1, y)
    # beyond the window by one ulp the term is nonzero at the cancelling x1,
    # so a bound one ulp wider changes the result
    x = np.array([[x1s[-1], 0.0]] * 2)
    assert np.all(_fold_grad_y_g_full(x, np.array([edge, -edge])) != 0.0)
    # whole batches, in the window and across it, as lanes and in the scan's
    # broadcast shapes x (C, 1, 2) against y (1, R)
    inside = [y for y in ys if abs(y) <= 1.5]
    xc = np.array([[x1, -0.5] for x1 in x1s])
    for batch in (inside, ys):
        yl = np.array(batch)
        xl = np.repeat(xc, yl.size, axis=0)
        yl = np.tile(yl, len(x1s))
        assert _same_bits(call_oracle(fold, "grad_y_g", xl, yl), _fold_grad_y_g_full(xl, yl))
        xb, yb = xc[:, None, :], np.array(batch)[None, :]
        assert _same_bits(call_oracle(fold, "grad_y_g", xb, yb), _fold_grad_y_g_full(xb, yb))
    empty_x, empty_y = np.empty((0, 2)), np.empty(0)
    assert call_oracle(fold, "grad_y_g", empty_x, empty_y).shape == (0,)


def test_quartic_coefficient_structure(quartic):
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.uniform(-4, 5, size=2)
        c3 = x[0] ** 2 - 5 * x[0] * x[1] + 2 * x[1] ** 2 - 7 * x[0] + 8 * x[1] - 30
        c2 = x[0] ** 2 - 3 * x[0] * x[1] + 4 * x[1] ** 2 - 5 * x[0] + 2 * x[1] - 40
        assert at(quartic, "hess_yy_g", x, 0.0) == pytest.approx(2 * c2, rel=1e-12)
        g0 = at(quartic, "grad_y_g", x, 0.0)
        assert g0 == pytest.approx(c3, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(x=st.lists(st.floats(-8.0, 10.0), min_size=2, max_size=2))
def test_quartic_root_bound_keeps_its_contract(quartic, x):
    # for |y| >= R(x) the computed grad_y g is nonzero with the sign of y, on
    # a box wider than the feasible one, at R itself and just above it
    x = np.array(x)
    r = float(quartic.grad_y_root_bound(x))
    assert r >= 1.0
    for y in (r, np.nextafter(r, np.inf), 2.0 * r, 1e3):
        if y < r:
            continue
        for signed in (y, -y):
            g = float(at(quartic, "grad_y_g", x, signed))
            assert g != 0.0 and np.signbit(g) == np.signbit(signed), (signed, r, g)


def test_root_bound_is_declared_by_the_quartic_alone():
    assert [name for name in PROBLEM_NAMES
            if get_problem(name).grad_y_root_bound is not None] == ["quartic"]


def test_quartic_root_bound_follows_the_lane_convention(quartic):
    # R is elementwise in the parameters: a (C, 1, n) batch gives (C, 1),
    # each entry the bits of its point alone
    x = np.array([[-4.0, 5.0], [0.3, -1.2], [5.0, 5.0]])
    alone = [float(quartic.grad_y_root_bound(p)) for p in x]
    assert quartic.grad_y_root_bound(x[:, None, :]).tolist() == [[r] for r in alone]


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
        y = rng.uniform(-2.0, 2.0)
        grad = at(problem, "grad_y_g", x, y)
        fd_g = central_diff(lambda yy: at(problem, "g", x, yy), y, 1e-5)
        assert abs(grad - fd_g) <= 1e-4 * (1.0 + abs(grad))
        hess = at(problem, "hess_yy_g", x, y)
        fd_h = central_diff(lambda yy: at(problem, "grad_y_g", x, yy), y, 1e-4)
        assert abs(hess - fd_h) <= 1e-4 * (1.0 + abs(hess))


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_cross_derivative_matches_fd(name):
    problem = get_problem(name)
    rng = np.random.default_rng(13)
    lo, hi = problem.feasible_set.bbox
    for _ in range(20):
        x = rng.uniform(lo, hi)
        y = rng.uniform(-1.5, 1.5)
        J = at(problem, "grad_x_grad_y_g", x, y)
        for i in range(problem.n):
            xp = x.copy(); xp[i] += 1e-6
            xm = x.copy(); xm[i] -= 1e-6
            fd = (at(problem, "grad_y_g", xp, y) - at(problem, "grad_y_g", xm, y)) / 2e-6
            assert abs(J[i] - fd) <= 1e-5 * (1.0 + np.abs(J).max())
    # lane convention: L = 5 lanes give (L, n), each lane the row of its
    # point run as a batch of one
    xs = rng.uniform(lo, hi, size=(5, problem.n))
    ys = rng.uniform(-1.5, 1.5, size=5)
    lanes = problem.grad_x_grad_y_g(xs, ys)
    assert lanes.shape == (5, problem.n)
    for k in range(5):
        single = at(problem, "grad_x_grad_y_g", xs[k], ys[k])
        assert single.shape == (problem.n,)
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
    ys = rng.uniform(-span, span, size=2000)
    for oracle in ("f", "g", "grad_y_g", "hess_yy_g", "grad_x_grad_y_g"):
        fn = getattr(problem, oracle)
        lanes = np.asarray(fn(xs, ys))
        differ = []
        for k in range(2000):
            single = np.asarray(fn(xs[k:k + 1], ys[k:k + 1]))[0]
            if single.shape != lanes[k].shape or not np.array_equal(lanes[k], single):
                differ.append(k)
        assert differ == [], (oracle, len(differ), differ[:5])


# the index that adds the length-one y axes of the old convention to an
# oracle's output
_OLD_TAILS = {"grad_y_g": (..., None), "hess_yy_g": (..., None, None),
              "grad_x_grad_y_g": (..., None, slice(None))}


@pytest.mark.parametrize("oracle, expected", [
    ("f", (3,)), ("g", (3,)), ("grad_y_g", (3,)), ("hess_yy_g", (3,)),
    ("grad_x_grad_y_g", (3, 2))])
def test_call_oracle_names_a_wrong_shape(fold, oracle, expected):
    # an oracle that drops the lane axis returns its first lane's output only;
    # one that keeps the old tail, B + (1,), B + (1, 1) or B + (1, n), would
    # broadcast (L,) against (L, 1) into (L, L) unchecked.  The checked call
    # names the oracle and the (L, ...) shape it expected
    real = getattr(fold, oracle)
    xs, ys = np.full((3, 2), 0.25), np.full(3, 0.5)
    assert call_oracle(fold, oracle, xs, ys).shape == expected
    wrong = [lambda x, y: real(x, y)[0]]
    if oracle in _OLD_TAILS:
        wrong.append(lambda x, y: real(x, y)[_OLD_TAILS[oracle]])
    for bad_oracle in wrong:
        bad = dataclasses.replace(fold, **{oracle: bad_oracle})
        with pytest.raises(ValueError, match=re.escape(
                f"{oracle} returned shape {bad_oracle(xs, ys).shape} for x (3, 2) and y (3,); "
                f"the lane convention of scinbio.problems expects {expected}")):
            call_oracle(bad, oracle, xs, ys)


_ORACLES = ("f", "g", "grad_y_g", "hess_yy_g", "grad_x_grad_y_g")


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_broadcast_batches_equal_flattened_lanes_bit_for_bit(name, data):
    # x (C, 1, n) against y (1, R), as the scan's grid phase hands them,
    # gives each of the C R points the bits of the flattened (C R, n) lanes
    problem = get_problem(name)
    C, R = data.draw(st.integers(1, 5), label="C"), data.draw(st.integers(1, 5), label="R")
    lo, hi = problem.feasible_set.bbox
    span = _LANE_Y_SPAN[name]
    t = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=C * problem.n,
                                    max_size=C * problem.n), label="t"))
    x = (lo + t.reshape(C, problem.n) * (hi - lo))[:, None, :]
    y = np.array(data.draw(st.lists(st.floats(-span, span), min_size=R, max_size=R),
                           label="y")).reshape(1, R)
    xs = np.broadcast_to(x, (C, R, problem.n)).reshape(C * R, problem.n)
    ys = np.broadcast_to(y, (C, R)).reshape(C * R)
    for oracle in _ORACLES:
        grid = call_oracle(problem, oracle, x, y)
        lanes = call_oracle(problem, oracle, xs, ys)
        assert grid.shape == (C, R) + lanes.shape[1:], oracle
        assert grid.reshape(lanes.shape).tobytes() == lanes.tobytes(), oracle


# y values a float form must round as its lane does: signed zeros,
# subnormals, the edges of the fold's confinement zones and their
# neighbours, points inside those zones, and NaN
_FORM_EDGE_YS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.5, -1.5,
                 math.nextafter(1.5, 0.0), math.nextafter(-1.5, 0.0),
                 math.nextafter(1.5, 2.0), math.nextafter(-1.5, -2.0), 1.6, -1.6, 2.0, -2.0,
                 100.0, -100.0, 1e6, -1e6, math.nan]


@pytest.mark.parametrize("name", PROBLEM_NAMES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_float_forms_have_the_bits_of_their_lanes(name, data):
    # every builtin's grad_y_g and hess_yy_g declare a float form, which
    # serves every y
    problem = get_problem(name)
    lo, hi = problem.feasible_set.bbox
    t = data.draw(st.lists(st.floats(0.0, 1.0), min_size=problem.n, max_size=problem.n),
                  label="t")
    x = lo + np.array(t) * (hi - lo)
    y = data.draw(st.one_of(st.floats(-1e6, 1e6), st.floats(-2.0, 2.0),
                            st.sampled_from(_FORM_EDGE_YS)), label="y")
    for oracle in ("grad_y_g", "hess_yy_g"):
        value = getattr(problem, oracle).float_form(x.tolist(), y)
        lane = call_oracle(problem, oracle, x[None, :], np.array([y]))[0]
        assert type(value) is float, oracle
        if math.isnan(y):
            assert math.isnan(value) and np.isnan(lane), oracle
        else:
            assert np.float64(value).tobytes() == lane.tobytes(), (oracle, x, y)


def test_fold_float_forms_have_the_bits_of_their_lanes_where_the_term_overflows(fold):
    # the confinement term's r^3 overflows from |y| ~ 1e103 on, and the
    # cubic's y^2 from 1e155; the fold's forms still give their lanes' bits,
    # NaN included (0 * inf at x1 = 0).  These y stay out of _FORM_EDGE_YS:
    # minimax's math.sin(inf) raises, and the double well's lanes overflow
    ys = [1e103, -1e103, 1e200, -1e200, math.inf, -math.inf]
    x = np.stack([np.linspace(0.0, 1.0, 41), np.full(41, 0.3)], axis=-1)
    with np.errstate(all="ignore"):
        for oracle in ("grad_y_g", "hess_yy_g"):
            form = getattr(fold, oracle).float_form
            for y in ys:
                lanes = call_oracle(fold, oracle, x, np.full(41, y))
                values = [form(xs, y) for xs in x.tolist()]
                assert np.array(values).tobytes() == lanes.tobytes(), (oracle, y)


# the fold's grad_y_g on 1,001 lanes across both confinement zones, x1 in
# [0, 1] against y in [-4, 4], as `digest`
_FOLD_DIGEST_CODE = """
import hashlib
import numpy as np
from scinbio import get_problem
from scinbio.problems import call_oracle
x1 = np.linspace(0.0, 1.0, 1001)
x, y = np.stack([x1, np.zeros_like(x1)], axis=-1), np.linspace(-4.0, 4.0, 1001)
digest = hashlib.sha256(call_oracle(get_problem("fold"), "grad_y_g", x, y).tobytes()).hexdigest()
"""


def test_fold_bits_do_not_follow_numpy_cpu_dispatch():
    """A process with every SIMD target numpy dispatches to turned off
    (NPY_DISABLE_CPU_FEATURES) computes the fold's grad_y_g with the bits of
    this one.  A target this CPU lacks only makes numpy warn.  Where numpy
    dispatches nothing above its baseline, both processes run the same code
    and the test passes trivially."""
    from numpy._core._multiarray_umath import __cpu_dispatch__

    here = {}
    exec(_FOLD_DIGEST_CODE, here)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(__cpu_dispatch__),
               PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    child = subprocess.run([sys.executable, "-c", _FOLD_DIGEST_CODE + "print(digest)"],
                           env=env, capture_output=True, text=True, check=True, timeout=60)
    assert child.stdout.split() == [here["digest"]]


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_oracles_are_pure(name):
    # kernels may work in place on their own temporaries, never on their
    # inputs: on lanes, on a scan's broadcast batch and on one point (where
    # y is 0-d), x and y keep their bytes and no output is a view of either
    problem = get_problem(name)
    rng = np.random.default_rng(5)
    lo, hi = problem.feasible_set.bbox
    span = _LANE_Y_SPAN[name]
    for bx, by in (((7,), (7,)), ((4, 1), (1, 6)), ((), ())):
        x = rng.uniform(lo, hi, size=bx + (problem.n,))
        y = rng.uniform(-span, span, size=by)
        x0, y0 = x.copy(), y.copy()
        for oracle in _ORACLES:
            out = getattr(problem, oracle)(x, y)
            assert x.tobytes() == x0.tobytes() and y.tobytes() == y0.tobytes(), (oracle, bx)
            assert not np.shares_memory(out, x), (oracle, bx)
            assert not np.shares_memory(out, y), (oracle, bx)


def test_call_oracle_names_the_broadcast_shape(fold):
    # an oracle that answers on x's batch shape alone, not the broadcast one
    bad = dataclasses.replace(fold, grad_y_g=lambda x, y: np.zeros(x.shape[:-1]))
    x, y = np.full((3, 1, 2), 0.25), np.full((1, 4), 0.5)
    assert call_oracle(fold, "grad_y_g", x, y).shape == (3, 4)
    with pytest.raises(ValueError, match=re.escape(
            "grad_y_g returned shape (3, 1) for x (3, 1, 2) and y (1, 4); the lane "
            "convention of scinbio.problems expects (3, 4)")):
        call_oracle(bad, "grad_y_g", x, y)


@pytest.mark.parametrize("oracle", _ORACLES)
def test_call_oracle_rejects_batches_that_do_not_broadcast(fold, oracle):
    with pytest.raises(ValueError, match="cannot be broadcast"):
        call_oracle(fold, oracle, np.full((3, 2), 0.25), np.full(2, 0.5))


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
        y = rng.uniform(-y_span, y_span)
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
