"""Bilevel problem model: oracle bundles, feasible sets, and builtin test problems.

A problem is a bundle of pure oracles for the upper objective f(x, y), the
lower objective g(x, y) and its y-derivatives, together with a fixed
lower-level initialization y0, a uniform value cap f_bar on |f| over the
reachable region, and a convex compact feasible set for x.  Oracles must be
pure functions of (x, y): solvers may hand them reused scratch buffers.

The follower y is one-dimensional: y0 has shape (1,), and the y-derivatives
keep their axes of length one.

Lane convention.  An oracle evaluates a batch of points at once: x has shape
(..., n) and y shape (..., 1), and their batch shapes broadcast to B
(`batch_shape`).  f and g return shape B, grad_y_g B + (1,), hess_yy_g
B + (1, 1) and grad_x_grad_y_g the cross-derivative block B + (1, n).  L lanes
(L, n), (L, 1) are the common case, one point is a batch of one, and a scan
hands one x per cell as (C, 1, n) against a shared y-grid (1, R, 1).  Oracles
index x[..., j] and y[..., 0], add trailing axes with [..., None] and compute
elementwise, so each point has the bits it has alone.  Every oracle call in
the package goes through `call_oracle`, which checks the output's shape.  A
feasible set's `project` and `contains` act on the last axis.  The GDA
baseline uses no bundle: it integrates the saddle flow of `minimax_gradient`.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# Feasible sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FeasibleSet:
    """Convex compact set with Euclidean projection, membership, bounding box.

    `project` and `contains` take a point (n,) or points (..., n); `contains`
    returns one boolean per point.
    """

    project: Callable[[np.ndarray], np.ndarray]
    contains: Callable[[np.ndarray], np.ndarray]
    bbox: tuple


def box_set(lo, hi) -> FeasibleSet:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("box bounds must have equal shape with lo <= hi")
    slack = 1e-12 * (1.0 + np.abs(hi - lo))
    lo_in, hi_in = lo - slack, hi + slack

    def project(z):
        return np.clip(np.asarray(z, dtype=float), lo, hi)

    def contains(z):
        z = np.asarray(z, dtype=float)
        return np.all((z >= lo_in) & (z <= hi_in), axis=-1)

    return FeasibleSet(project, contains, (lo.copy(), hi.copy()))


# ---------------------------------------------------------------------------
# Problem bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BilevelProblem:
    """Oracle bundle for min_{x in X} f(x, y^alg(x)) with algorithmic lower level.

    f, g, grad_y_g, hess_yy_g and grad_x_grad_y_g (the cross-derivative
    block d/dx of grad_y g, which only the geometry diagnostics consult)
    follow the lane convention of this module: (..., n) and (..., 1) inputs
    of batch shape B give B, B, B + (1,), B + (1, 1) and B + (1, n) outputs.
    y0 has shape (1,).
    """

    n: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_yy_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x_grad_y_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    y0: np.ndarray
    f_bar: float
    feasible_set: FeasibleSet


# each oracle's output shape after the batch shape (grad_x_grad_y_g adds n)
_TAILS = {"f": (), "g": (), "grad_y_g": (1,), "hess_yy_g": (1, 1), "grad_x_grad_y_g": (1,)}


def batch_shape(x, y):
    """The broadcast of the batch shapes of points x (..., n), y (..., 1);
    ValueError when they do not broadcast."""
    bx, by = x.shape[:-1], y.shape[:-1]
    return bx if bx == by else np.broadcast_shapes(bx, by)


def call_oracle(problem, name, x, y):
    """Oracle `name` of `problem` on points x (..., n), y (..., 1), as a float array.

    Raises ValueError naming the oracle and the shape the lane convention
    expects when the output has another shape.
    """
    expected = batch_shape(x, y) + _TAILS[name]
    if name == "grad_x_grad_y_g":
        expected += (problem.n,)
    if 0 in expected:
        return np.empty(expected)
    out = np.asarray(getattr(problem, name)(x, y), dtype=float)
    if out.shape != expected:
        raise ValueError(f"{name} returned shape {out.shape} for x {x.shape} and y "
                         f"{y.shape}; the lane convention of scinbio.problems expects "
                         f"{expected}")
    return out


# ---------------------------------------------------------------------------
# Builtin: nonconvex-nonconcave minimax  f(x,y) = (x^2-y^2) sin(x+y) + xy sin(x-y)
# ---------------------------------------------------------------------------
# The minimax problem min_x max_y f is cast as a bilevel problem with lower
# objective g = -f.

def _mm_f(a, b):
    return (a * a - b * b) * np.sin(a + b) + a * b * np.sin(a - b)


def _mm_fy(a, b):
    d, s = a - b, a + b
    return (-a * b * np.cos(d) + a * np.sin(d)
            - 2.0 * b * np.sin(s) + (a * a - b * b) * np.cos(s))


def _mm_fyy(a, b):
    return (-a * b * np.sin(a - b) - 2.0 * a * np.cos(a - b)
            - 4.0 * b * np.cos(a + b) - (a * a - b * b) * np.sin(a + b)
            - 2.0 * np.sin(a + b))


def _mm_fxy(a, b):
    return (a * b * np.sin(a - b) + a * np.cos(a - b)
            + 2.0 * a * np.cos(a + b) - b * np.cos(a - b)
            - 2.0 * b * np.cos(a + b) + (b * b - a * a) * np.sin(a + b)
            + np.sin(a - b))


def minimax_gradient(x, y):
    """(df/dx, df/dy) of the builtin minimax objective at one point, floats in/out.

    The gradient descent-ascent baseline integrates this field; the bilevel
    bundle only exposes y-derivatives of g = -f.  sin and cos of x - y and
    x + y are computed once for both partials, and df/dy has the bits of
    -grad_y_g.
    """
    d, s = x - y, x + y
    sd, cd, ss, cs = math.sin(d), math.cos(d), math.sin(s), math.cos(s)
    q = x * x - y * y
    return (x * y * cd + 2.0 * x * ss + y * sd + q * cs,
            -x * y * cd + x * sd - 2.0 * y * ss + q * cs)


# Value cap: 1.5 x max|f| over a 400-point grid of [-3,3] x the sublevel
# region {y in [-6,6] : g(x,y) <= g(x,0)}; grid max was 41.418.
_MINIMAX_F_BAR = 62.13


def builtin_minimax() -> BilevelProblem:
    """Nonconvex-nonconcave minimax test problem as a bilevel bundle (n = 1)."""

    def f(x, y):
        return _mm_f(x[..., 0], y[..., 0])

    def g(x, y):
        return -f(x, y)

    def grad_y_g(x, y):
        return -_mm_fy(x[..., 0], y[..., 0])[..., None]

    def hess_yy_g(x, y):
        return -_mm_fyy(x[..., 0], y[..., 0])[..., None, None]

    def grad_x_grad_y_g(x, y):
        return -_mm_fxy(x[..., 0], y[..., 0])[..., None, None]

    return BilevelProblem(
        n=1,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=np.array([0.0]),
        f_bar=_MINIMAX_F_BAR,
        feasible_set=box_set([-3.0], [3.0]),
    )


# ---------------------------------------------------------------------------
# Builtin: shifted double well  g(x,y) = (y-x)^4 - 2 (y-x)^2
# ---------------------------------------------------------------------------
# f(x,y) = y separates the two lower-level branches, so the hyperfunction
# jumps at x = 0 where gradient descent from y0 = 0 stalls on the hump.
# Like the other builtins below, the oracles compute on the components
# x[..., j], y[..., 0] and add the trailing axes of the lane convention at the
# end.  Powers are spelled as products, and polynomials in y in Horner form,
# wherever that suffices; the one power left, in the fold's confinement term,
# is np.power.  The scan's grid kernels, grad_y_g of the fold and the quartic,
# allocate one batch-shaped array and run the chain in place on it (t *= y,
# t += c): the same operations in the same order, so the same bits.  The
# fold's kernel adds its confinement term only when some y lies outside
# [-1.5, 1.5] or is NaN: on that window the term is +-0.0, and the chain
# before it ends in + (1 - 2 x1), which is never -0.0, so t is never -0.0
# and adding +-0.0 leaves its bits alone.

_DOUBLE_WELL_F_BAR = 5.33  # 1.5 x max|y| over the sublevel grid (max 3.553)


def builtin_shifted_double_well() -> BilevelProblem:
    def f(x, y):
        return np.broadcast_to(y[..., 0], batch_shape(x, y)).copy()

    def g(x, y):
        u = y[..., 0] - x[..., 0]
        u2 = u * u
        return u2 * u2 - 2.0 * u2

    def grad_y_g(x, y):
        u = y[..., 0] - x[..., 0]
        return (4.0 * u * u * u - 4.0 * u)[..., None]

    def hess_yy_g(x, y):
        u = y[..., 0] - x[..., 0]
        return (12.0 * u * u - 4.0)[..., None, None]

    def grad_x_grad_y_g(x, y):
        u = y[..., 0] - x[..., 0]
        return (-(12.0 * u * u - 4.0))[..., None, None]

    return BilevelProblem(
        n=1,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=np.array([0.0]),
        f_bar=_DOUBLE_WELL_F_BAR,
        feasible_set=box_set([-2.0], [2.0]),
    )


# ---------------------------------------------------------------------------
# Builtin: fold family  g(x,y) = (1-2 x1) y + (3 x1 - 2 x1^2) y^3  near y = 0
# ---------------------------------------------------------------------------
# The cubic is the local model of a globally defined objective; on its own it
# is unbounded below, so a quartic confinement term is added outside
# |y| <= 1.5.  The term and all of its derivatives vanish identically on
# [-1.5, 1.5], leaving the stationary structure near y = 0 untouched.

_FOLD_CONF = 10.0
_FOLD_EDGE = 1.5
_FOLD_F_BAR = 3.37  # 1.5 x max|x1 + y| over the sublevel grid (max 2.242)


def _fold_overhang(y):
    return np.maximum(0.0, np.abs(y) - _FOLD_EDGE)


def builtin_fold_family() -> BilevelProblem:
    def f(x, y):
        return x[..., 0] + y[..., 0]

    def g(x, y):
        x1, yy = x[..., 0], y[..., 0]
        r = _fold_overhang(yy)
        r2 = r * r
        return ((1.0 - 2.0 * x1) * yy + (3.0 * x1 - 2.0 * x1 * x1) * (yy * yy * yy)
                + _FOLD_CONF * (r2 * r2))

    def grad_y_g(x, y):
        x1, yy = x[..., 0], y[..., 0]
        t = 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * yy
        t *= yy
        t += 1.0 - 2.0 * x1
        if not (yy.min(initial=np.inf) >= -_FOLD_EDGE
                and yy.max(initial=-np.inf) <= _FOLD_EDGE):
            t += 4.0 * _FOLD_CONF * np.power(_fold_overhang(yy), 3) * np.sign(yy)
        return t[..., None]

    def hess_yy_g(x, y):
        x1, yy = x[..., 0], y[..., 0]
        r = _fold_overhang(yy)
        return (6.0 * (3.0 * x1 - 2.0 * x1 * x1) * yy
                + 12.0 * _FOLD_CONF * r * r)[..., None, None]

    def grad_x_grad_y_g(x, y):
        x1, yy = x[..., 0], y[..., 0]
        d1 = -2.0 + 3.0 * (3.0 - 4.0 * x1) * yy * yy
        return np.stack([d1, np.zeros_like(d1)], axis=-1)[..., None, :]

    return BilevelProblem(
        n=2,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=np.array([0.1]),
        f_bar=_FOLD_F_BAR,
        feasible_set=box_set([0.0, -1.0], [1.0, 1.0]),
    )


# ---------------------------------------------------------------------------
# Builtin: quartic family over [-4,5]^2
# ---------------------------------------------------------------------------
# g(x,y) = y^4 + c3(x) y^3 + c2(x) y^2 + c3(x) y, where the cubic and linear
# coefficients coincide.  Coercive in y, but the coefficients reach ~200 at
# the domain corners, so minimizers can sit at |y| ~ 150; the cap and the
# cubic-regularization default are calibrated accordingly.

_QUARTIC_F_BAR = 310.6  # 1.5 x max|x1 + y| over the sublevel grid (max 207.06)


def _q_coefficients(x):
    """c3(x) and c2(x) of the quartic family."""
    x1, x2 = x[..., 0], x[..., 1]
    return (x1 * x1 - 5.0 * x1 * x2 + 2.0 * x2 * x2 - 7.0 * x1 + 8.0 * x2 - 30.0,
            x1 * x1 - 3.0 * x1 * x2 + 4.0 * x2 * x2 - 5.0 * x1 + 2.0 * x2 - 40.0)


def builtin_quartic_family() -> BilevelProblem:
    def f(x, y):
        return x[..., 0] + y[..., 0]

    def g(x, y):
        (c3, c2), yy = _q_coefficients(x), y[..., 0]
        return (((yy + c3) * yy + c2) * yy + c3) * yy

    def grad_y_g(x, y):
        (c3, c2), yy = _q_coefficients(x), y[..., 0]
        t = 4.0 * yy + 3.0 * c3
        t *= yy
        t += 2.0 * c2
        t *= yy
        t += c3
        return t[..., None]

    def hess_yy_g(x, y):
        (c3, c2), yy = _q_coefficients(x), y[..., 0]
        return ((12.0 * yy + 6.0 * c3) * yy + 2.0 * c2)[..., None, None]

    def grad_x_grad_y_g(x, y):
        x1, x2, yy = x[..., 0], x[..., 1], y[..., 0]
        dc3 = np.stack([2.0 * x1 - 5.0 * x2 - 7.0, -5.0 * x1 + 4.0 * x2 + 8.0], axis=-1)
        dc2 = np.stack([2.0 * x1 - 3.0 * x2 - 5.0, -3.0 * x1 + 8.0 * x2 + 2.0], axis=-1)
        row = (3.0 * yy * yy + 1.0)[..., None] * dc3 + (2.0 * yy)[..., None] * dc2
        return row[..., None, :]

    return BilevelProblem(
        n=2,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=np.array([0.0]),
        f_bar=_QUARTIC_F_BAR,
        feasible_set=box_set([-4.0, -4.0], [5.0, 5.0]),
    )


# ---------------------------------------------------------------------------
# Library
# ---------------------------------------------------------------------------

# Calibrated lower-solver defaults: eta keeps gradient descent a descent
# method on the reachable sublevel sets; M dominates the local Hessian
# Lipschitz constant there (|d^3 g/dy^3| grid maxima: minimax 30.6,
# fold 415, quartic ~6100; the double well ships the basin-scale value 24).
LOWER_DEFAULTS = {
    "minimax": {"eta": 0.01, "M": 32.0},
    "double-well": {"eta": 0.02, "M": 24.0},
    "fold": {"eta": 0.002, "M": 420.0},
    "quartic": {"eta": 1e-6, "M": 6200.0},
}

_BUILTINS = {
    "minimax": builtin_minimax,
    "double-well": builtin_shifted_double_well,
    "fold": builtin_fold_family,
    "quartic": builtin_quartic_family,
}

PROBLEM_NAMES = tuple(_BUILTINS)


def get_problem(name: str) -> BilevelProblem:
    try:
        ctor = _BUILTINS[name]
    except KeyError:
        raise KeyError(f"unknown problem {name!r}; choose from {PROBLEM_NAMES}") from None
    return ctor()
