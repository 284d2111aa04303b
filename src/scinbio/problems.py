"""Bilevel problem model: oracle bundles, feasible sets, and builtin test problems.

A problem is a bundle of pure oracles for the upper objective f(x, y), the
lower objective g(x, y) and its y-derivatives, together with a fixed
lower-level initialization y0, a uniform value cap f_bar on |f| over the
reachable region, and a convex compact feasible set for x.  Oracles must be
pure functions of (x, y): solvers may hand them reused scratch buffers.

Lane convention.  The follower y is one-dimensional, so y0 is a float and
y has no axis of its own.  An oracle evaluates a batch of points at once: x
has shape (..., n), y is an array of batch shape, and the two batch shapes
broadcast to B (`batch_shape`).  f, g, grad_y_g and hess_yy_g return shape
B, and grad_x_grad_y_g, the gradient of grad_y_g in x, returns B + (n,).
L lanes (L, n), (L,) are the common case, one point is a batch of one, and
a scan hands one x per cell as (C, 1, n) against a shared y-grid (1, R).
Oracles index x[..., j], take y as it is and compute elementwise, so each
point has the bits it has alone.  Every oracle call in the package goes
through `call_oracle`, which checks the output's shape, except calls of a
float form.  A feasible set's `project` and `contains` act
on the last axis.  The GDA baseline uses no bundle: it integrates the saddle
flow of `minimax_gradient`.

Float form.  A bundle's grad_y_g and hess_yy_g may carry the attribute
`float_form(xs, y)`: xs is one lane's x as a list of n floats, y is a float,
and it returns the oracle there as a float with the bits the array oracle
gives that lane (any NaN for a NaN), or raises ValueError or an
ArithmeticError (OverflowError, ZeroDivisionError, ...) where it makes no
such promise; any other exception propagates.  `lower.solve_lower` runs
small solves on the forms and runs a solve again in its lockstep loop when a
form or its own float step raises one of these, or a value turns non-finite.
The attribute belongs to the function, so a replaced or wrapped oracle has
none.  Every builtin declares both forms, and they serve every y: none
raises for a finite input.

Root bound.  A bundle may declare `grad_y_root_bound`, which maps x (..., n)
to R (...): for every y with |y| >= R(x), the computed grad_y_g(x, y) is
nonzero and has the sign of y.  The scan evaluates grad_y_g only where
|y| < R and on the nearest grid column beyond it on each side.  None (the
default), or a non-finite R, makes no such claim.
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

    f, g, grad_y_g, hess_yy_g and grad_x_grad_y_g (d/dx of grad_y g, which
    only the geometry diagnostics consult) follow the lane convention of this
    module: x (..., n) and y of batch shape B give outputs of shape B, and
    B + (n,) for grad_x_grad_y_g.  y0 is a float.  grad_y_root_bound, when
    not None, maps x (..., n) to R (...) such that the computed
    grad_y_g(x, y) is nonzero with the sign of y wherever |y| >= R(x); the
    scan leaves the grid beyond R unevaluated.
    """

    n: int
    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_y_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_yy_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_x_grad_y_g: Callable[[np.ndarray, np.ndarray], np.ndarray]
    y0: float
    f_bar: float
    feasible_set: FeasibleSet
    grad_y_root_bound: Callable[[np.ndarray], np.ndarray] | None = None


def batch_shape(x, y):
    """The broadcast of the batch shapes of points x (..., n) and y;
    ValueError when they do not broadcast."""
    bx, by = x.shape[:-1], y.shape
    return bx if bx == by else np.broadcast_shapes(bx, by)


def call_oracle(problem, name, x, y):
    """Oracle `name` of `problem` on points x (..., n) and y, as a float array.

    Raises ValueError naming the oracle and the shape the lane convention
    expects when the output has another shape.
    """
    expected = batch_shape(x, y)
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


def _mm_y_derivatives(sin, cos):
    """df/dy and d2f/dy2 computed with the given sin and cos: numpy's for
    arrays, math's for floats.  Both forms run the same operations in the
    same order, and numpy's float64 sin and cos give math's bits, so a float
    has the bits of its lane."""

    def fy(a, b):
        d, s = a - b, a + b
        return (-a * b * cos(d) + a * sin(d)
                - 2.0 * b * sin(s) + (a * a - b * b) * cos(s))

    def fyy(a, b):
        return (-a * b * sin(a - b) - 2.0 * a * cos(a - b)
                - 4.0 * b * cos(a + b) - (a * a - b * b) * sin(a + b)
                - 2.0 * sin(a + b))

    return fy, fyy


_mm_fy, _mm_fyy = _mm_y_derivatives(np.sin, np.cos)
_mm_fy_float, _mm_fyy_float = _mm_y_derivatives(math.sin, math.cos)


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
        return _mm_f(x[..., 0], y)

    def g(x, y):
        return -f(x, y)

    def grad_y_g(x, y):
        return -_mm_fy(x[..., 0], y)

    grad_y_g.float_form = lambda xs, y: -_mm_fy_float(xs[0], y)

    def hess_yy_g(x, y):
        return -_mm_fyy(x[..., 0], y)

    hess_yy_g.float_form = lambda xs, y: -_mm_fyy_float(xs[0], y)

    def grad_x_grad_y_g(x, y):
        return -_mm_fxy(x[..., 0], y)[..., None]

    return BilevelProblem(
        n=1,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=0.0,
        f_bar=_MINIMAX_F_BAR,
        feasible_set=box_set([-3.0], [3.0]),
    )


# ---------------------------------------------------------------------------
# Builtin: shifted double well  g(x,y) = (y-x)^4 - 2 (y-x)^2
# ---------------------------------------------------------------------------
# f(x,y) = y separates the two lower-level branches, so the hyperfunction
# jumps at x = 0 where gradient descent from y0 = 0 stalls on the hump.
# Like the other builtins below, the oracles compute on the components
# x[..., j] and on y as it is.  Powers are spelled as products and
# polynomials in y in Horner form; no power function is left, since products
# round the same on every CPU while numpy's power follows its SIMD
# dispatch.  Each builtin's float forms run its array oracles' operations in
# their order, so they serve every y.  The scan's grid kernels, grad_y_g of
# the fold and the quartic, allocate one batch-shaped array and run the
# chain in place on it (t *= y, t += c): the same operations in the same
# order, so the same bits.  The fold's kernel adds its confinement term only
# when some y lies outside [-1.5, 1.5] or is NaN: on that window the term is
# +-0.0, and the chain before it ends in + (1 - 2 x1), which is never -0.0,
# so t is never -0.0 and adding +-0.0 leaves its bits alone.

_DOUBLE_WELL_F_BAR = 5.33  # 1.5 x max|y| over the sublevel grid (max 3.553)


def _dw_grad(u):
    return 4.0 * u * u * u - 4.0 * u


def _dw_hess(u):
    return 12.0 * u * u - 4.0


def builtin_shifted_double_well() -> BilevelProblem:
    def f(x, y):
        return np.broadcast_to(y, batch_shape(x, y)).copy()

    def g(x, y):
        u = y - x[..., 0]
        u2 = u * u
        return u2 * u2 - 2.0 * u2

    def grad_y_g(x, y):
        return _dw_grad(y - x[..., 0])

    def hess_yy_g(x, y):
        return _dw_hess(y - x[..., 0])

    grad_y_g.float_form = lambda xs, y: _dw_grad(y - xs[0])
    hess_yy_g.float_form = lambda xs, y: _dw_hess(y - xs[0])

    def grad_x_grad_y_g(x, y):
        return (-_dw_hess(y - x[..., 0]))[..., None]

    return BilevelProblem(
        n=1,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=0.0,
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
# The fold declares no grad_y_root_bound: at x1 = 0, grad_y g is 1 on
# [-1.5, 1.5] and the confinement term puts a root near y = -1.79, so no
# radius valid for every y narrows its scan window [-1, 1].

_FOLD_CONF = 10.0
_FOLD_EDGE = 1.5
_FOLD_F_BAR = 3.37  # 1.5 x max|x1 + y| over the sublevel grid (max 2.242)


def _fold_overhang(y):
    return np.maximum(0.0, np.abs(y) - _FOLD_EDGE)


def builtin_fold_family() -> BilevelProblem:
    def f(x, y):
        return x[..., 0] + y

    def g(x, y):
        x1 = x[..., 0]
        r = _fold_overhang(y)
        r2 = r * r
        return ((1.0 - 2.0 * x1) * y + (3.0 * x1 - 2.0 * x1 * x1) * (y * y * y)
                + _FOLD_CONF * (r2 * r2))

    def grad_y_g(x, y):
        x1 = x[..., 0]
        t = 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * y
        t *= y
        t += 1.0 - 2.0 * x1
        if not (y.min(initial=np.inf) >= -_FOLD_EDGE
                and y.max(initial=-np.inf) <= _FOLD_EDGE):
            r = _fold_overhang(y)
            t += 4.0 * _FOLD_CONF * (r * r * r) * np.sign(y)
        return t

    def hess_yy_g(x, y):
        x1 = x[..., 0]
        r = _fold_overhang(y)
        return 6.0 * (3.0 * x1 - 2.0 * x1 * x1) * y + 12.0 * _FOLD_CONF * r * r

    # the forms skip the confinement term where r > 0.0 fails (the window,
    # and a NaN y), where it is +-0.0 in grad_y_g and +0.0 in hess_yy_g;
    # elsewhere sign(y) is +-1, so copysign gives the array's product
    def grad_form(xs, y):
        x1, r = xs[0], abs(y) - _FOLD_EDGE
        t = 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * y * y + (1.0 - 2.0 * x1)
        return t + math.copysign(4.0 * _FOLD_CONF * (r * r * r), y) if r > 0.0 else t

    def hess_form(xs, y):
        x1, r = xs[0], abs(y) - _FOLD_EDGE
        return 6.0 * (3.0 * x1 - 2.0 * x1 * x1) * y + (
            12.0 * _FOLD_CONF * r * r if r > 0.0 else 0.0)

    grad_y_g.float_form, hess_yy_g.float_form = grad_form, hess_form

    def grad_x_grad_y_g(x, y):
        d1 = -2.0 + 3.0 * (3.0 - 4.0 * x[..., 0]) * y * y
        return np.stack([d1, np.zeros_like(d1)], axis=-1)

    return BilevelProblem(
        n=2,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=0.1,
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


def _q_coefficients(x1, x2):
    """c3 and c2 of the quartic family at x = (x1, x2), arrays or floats."""
    return (x1 * x1 - 5.0 * x1 * x2 + 2.0 * x2 * x2 - 7.0 * x1 + 8.0 * x2 - 30.0,
            x1 * x1 - 3.0 * x1 * x2 + 4.0 * x2 * x2 - 5.0 * x1 + 2.0 * x2 - 40.0)


def builtin_quartic_family() -> BilevelProblem:
    def f(x, y):
        return x[..., 0] + y

    def g(x, y):
        c3, c2 = _q_coefficients(x[..., 0], x[..., 1])
        return (((y + c3) * y + c2) * y + c3) * y

    def grad_y_g(x, y):
        c3, c2 = _q_coefficients(x[..., 0], x[..., 1])
        t = 4.0 * y + 3.0 * c3
        t *= y
        t += 2.0 * c2
        t *= y
        t += c3
        return t

    def hess_yy_g(x, y):
        c3, c2 = _q_coefficients(x[..., 0], x[..., 1])
        return (12.0 * y + 6.0 * c3) * y + 2.0 * c2

    def grad_form(xs, y):
        c3, c2 = _q_coefficients(*xs)
        return ((4.0 * y + 3.0 * c3) * y + 2.0 * c2) * y + c3

    def hess_form(xs, y):
        c3, c2 = _q_coefficients(*xs)
        return (12.0 * y + 6.0 * c3) * y + 2.0 * c2

    grad_y_g.float_form, hess_yy_g.float_form = grad_form, hess_form

    # grad_y_g runs the Horner chain of 4 y^3 + A y^2 + B y + C with A =
    # fl(3 c3), B = 2 c2 and C = c3 as written: 4 y and 2 c2 are exact, every
    # other + and * rounds once, nothing is fused.  So its error is at most
    # gamma_6 (4|y|^3 + |A| y^2 + |B||y| + |C|), gamma_6 = 6u/(1 - 6u) ~ 6.7e-16
    # (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 5.1).
    # For |y| >= 1 the exact value has the sign of y and exceeds that error
    # once 4|y| > S (1 + gamma_6) / (1 - gamma_6), S = |A| + |B| + |C|.  The
    # factor 1 + 1e-9 covers gamma_6 and the rounding of S and R; the 1e-12
    # on top is spare slack (underflow, which gamma_6 does not model, costs
    # far less).
    def grad_y_root_bound(x):
        c3, c2 = _q_coefficients(x[..., 0], x[..., 1])
        s = np.abs(3.0 * c3) + np.abs(2.0 * c2) + np.abs(c3)
        return np.maximum(1.0, (0.25 * (1.0 + 1e-9)) * s) + 1e-12

    def grad_x_grad_y_g(x, y):
        x1, x2 = x[..., 0], x[..., 1]
        dc3 = np.stack([2.0 * x1 - 5.0 * x2 - 7.0, -5.0 * x1 + 4.0 * x2 + 8.0], axis=-1)
        dc2 = np.stack([2.0 * x1 - 3.0 * x2 - 5.0, -3.0 * x1 + 8.0 * x2 + 2.0], axis=-1)
        return (3.0 * y * y + 1.0)[..., None] * dc3 + (2.0 * y)[..., None] * dc2

    return BilevelProblem(
        n=2,
        f=f, g=g,
        grad_y_g=grad_y_g, hess_yy_g=hess_yy_g,
        grad_x_grad_y_g=grad_x_grad_y_g,
        y0=0.0,
        f_bar=_QUARTIC_F_BAR,
        feasible_set=box_set([-4.0, -4.0], [5.0, 5.0]),
        grad_y_root_bound=grad_y_root_bound,
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
