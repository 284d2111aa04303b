"""Lower-level solvers: gradient descent and cubic-regularized Newton.

There is one solver per method, and it advances a batch of lanes together:
x of shape (L, n) holds L parameter points, every lane starts from y0, and
each oracle call serves every lane still iterating (the lane convention of
`problems`).  Inputs are checked once per solve.  Lanes stop on their own
(early exit on grad_tol), fail on their own (a non-finite value is reported
for that lane only) and select their own iterate.  One point is a batch of
one lane.

The follower y is one-dimensional.  With g = dg/dy and h = d2g/dy2 at the
iterate, the cubic method minimizes the model
m(s) = g s + 1/2 h s^2 + (M/6)|s|^3 in closed form at every step and selects
the iterate with the smallest second-order stationarity measure (Nesterov &
Polyak, Math. Program. 108, 2006)

    nu_M(y) = max( sqrt(|g| / M),  -(2 / (3 M)) h ).

A solve streams: per lane it keeps its current iterate, the selected iterate
with its step, |grad_y g| and nu_M there, and its first failure, never the
K-step history, so its memory is O(L) floats for any budget K.  Solvers are
reentrant: each solve owns its state and oracles are pure.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, LowerSolveError
from .problems import call_oracle

__all__ = [
    "LowerSolverConfig", "LowerSolveResult", "CubicStep",
    "stationarity_measure", "solve_cubic_subproblem", "solve_lower",
]

GRADIENT_DESCENT = "gradient_descent"
CUBIC_NEWTON = "cubic_newton"


@dataclass(frozen=True)
class LowerSolverConfig:
    """Method plus budget for one lower-level solve.

    eta is the gradient-descent step size; M the cubic regularization weight
    (use a bound on the Hessian Lipschitz constant of g(x, .)).  grad_tol = 0
    disables early exit so the iteration count is exactly the budget.
    """

    method: str = GRADIENT_DESCENT
    eta: float = 0.01
    M: float = 1.0
    max_iters: int = 100
    grad_tol: float = 0.0

    def __post_init__(self):
        msgs = []
        if self.method not in (GRADIENT_DESCENT, CUBIC_NEWTON):
            msgs.append(f"method must be {GRADIENT_DESCENT}|{CUBIC_NEWTON}, got {self.method!r}")
        if not 0 < self.eta < math.inf:
            msgs.append("eta must be positive and finite")
        if not 0 < self.M < math.inf:
            msgs.append("M must be positive and finite")
        if self.max_iters < 0:
            msgs.append("max_iters must be nonnegative")
        if not 0 <= self.grad_tol < math.inf:
            msgs.append("grad_tol must be nonnegative and finite")
        if msgs:
            raise ConfigError(msgs)


@dataclass
class LowerSolveResult:
    """What a solve keeps of its L lanes, with no step axis: y_hat (L, 1)
    and selected_index (L,), each lane's selected iterate and its step;
    grad_norm (L,), |grad_y g| at y_hat, and stationarity (L,), nu_M at
    y_hat (None for gradient descent); each oracle count an (L,) integer
    array; errors[l], the LowerSolveError that stopped lane l, or None.
    """

    y_hat: np.ndarray
    grad_norm: np.ndarray
    stationarity: Optional[np.ndarray]
    selected_index: np.ndarray
    oracle_counts: dict
    errors: list


@dataclass(frozen=True)
class CubicStep:
    s: np.ndarray
    model_value: float
    boundary_multiplier: float  # r with (h + M r / 2) s = -g and r = |s|
    hard_case: bool


def stationarity_measure(grad_norm, lambda_min, M):
    """nu_M: max of sqrt(grad_norm / M) and -(2 / (3 M)) lambda_min (elementwise)."""
    if np.any(np.asarray(grad_norm) < 0):
        raise ValueError("grad_norm must be >= 0")
    return _nu(grad_norm, lambda_min, _checked_M(M))


def _checked_M(M):
    M = float(M)
    if not 0 < M < math.inf:
        raise ValueError("M must be positive and finite")
    return M


def _nu(grad_norm, lambda_min, M):
    return np.maximum(np.sqrt(grad_norm / M), -(2.0 / (3.0 * M)) * lambda_min)


# ---------------------------------------------------------------------------
# Cubic-model subproblem
# ---------------------------------------------------------------------------

def solve_cubic_subproblem(grad, hess, M) -> CubicStep:
    """Global minimizer of g s + 1/2 h s^2 + (M/6)|s|^3 for grad (1,) and hess (1, 1).

    The minimizer has a closed form (Nesterov & Polyak, Math. Program. 108,
    2006, sec. 5): s = -sign(g) r, where r >= 0 is the positive root of
    (M/2) r^2 + h r - |g| = 0,

        r = 2|g| / (h + sqrt(h^2 + 2M|g|))   (h >= 0)
          = (-h + sqrt(h^2 + 2M|g|)) / M     (h < 0, the same root),

    each form free of cancellation on its side.  When |g| <= 1e-13 (|g| + 1)
    the step is s = 0 for h >= 0 and the hard-case step s = -2h/M for h < 0.
    The model value r (g sign(s) + r (h/2 + M r/6)) overflows to -inf, not
    to inf - inf.  A step that overflows raises LowerSolveError.
    """
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    hess = np.atleast_2d(np.asarray(hess, dtype=float))
    if grad.shape != (1,) or hess.shape != (1, 1):
        raise ValueError(f"grad must be (1,) and hess (1, 1), got {grad.shape} and {hess.shape}")
    M = _checked_M(M)
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ValueError("non-finite subproblem inputs")
    g, h = grad, hess[:, 0]
    with np.errstate(all="ignore"):  # the branch np.where drops, and overflow
        s, r, hard = _cubic_step_1d(g, np.abs(g), h, M)
        value = r * (g * np.sign(s) + r * (0.5 * h + (M / 6.0) * r))
    if not np.isfinite(s).all():
        raise LowerSolveError(f"cubic step overflows at g = {float(g[0])}, h = {float(h[0])}")
    return CubicStep(s, float(value[0]), float(r[0]), bool(hard[0]))


def _cubic_step_1d(g, ag, h, M):
    """Closed-form cubic step (s, r, hard_case) for arrays of 1-D (g, h),
    with ag = |g|.

    np.where evaluates both forms of r; the one it drops may divide by zero,
    so callers run this under np.errstate.  Where 2 M |g| overflows,
    sqrt(2 M) sqrt(|g|) is its root, and |g| / (d / 2) rounds as 2|g| / d
    without overflowing.
    """
    q = 2.0 * M * ag
    sq = np.sqrt(q)
    finite = math.isfinite(q.sum())
    if not finite:
        sq = np.where(np.isinf(q), math.sqrt(2.0 * M) * np.sqrt(ag), sq)
    root = np.hypot(h, sq)
    r = np.where(h >= 0.0, ag / (0.5 * (h + root)), (root - h) / M)
    s = -np.copysign(r, g)
    # the common case: a finite |g| > 2e-13 exceeds 1e-13 (|g| + 1), so when
    # every lane's does, none is tiny and the root above serves them all
    if finite and ag.min(initial=math.inf) > 2e-13:
        return s, r, np.zeros(ag.shape, dtype=bool)
    tiny = ag <= 1e-13 * (ag + 1.0)
    # |g| ~ 0: no step for h >= 0, the hard-case step s = r = -2h/M for h < 0
    hard = tiny & (h < 0.0)
    r = np.where(tiny, np.where(hard, -2.0 * h / M, 0.0), r)
    s = np.where(tiny, r, s)
    return s, r, hard


# ---------------------------------------------------------------------------
# Batched solvers
# ---------------------------------------------------------------------------

def _flag(errors, lanes, values, what, k):
    """Record a non-finite `what` at step k in each of the lanes whose row of
    values holds a non-finite value, unless the lane failed before."""
    for lane in lanes[~np.isfinite(values.reshape(len(values), -1)).all(axis=1)]:
        if errors[lane] is None:
            errors[lane] = LowerSolveError(f"non-finite {what} at lower-level step {k}",
                                           iterate_index=k)


def solve_lower(problem, x, config: LowerSolverConfig) -> LowerSolveResult:
    """K steps of config.method from y0 at each point of x (L, n).

    Gradient descent: y_{k+1} = y_k - eta grad_y g(x, y_k); cubic Newton:
    y_{k+1} = y_k + the cubic-model step.  A lane stops early once
    |grad_y g| <= grad_tol (when grad_tol > 0).  Each lane's y_hat is its
    last iterate for gradient descent and, for cubic Newton, the iterate with
    the smallest nu_M over k >= 0, ties going to the smallest k (a NaN nu_M
    counts as the smallest, as in np.argmin).  A lane that turns non-finite
    runs on; its error is its first bad value in the order a solve meets
    them: the gradient at step k, the Hessian at step k, the iterate k + 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != problem.n:
        raise ValueError(f"x must have shape (L, {problem.n}), got {x.shape}")
    cubic = config.method == CUBIC_NEWTON
    L, K, M, tol = x.shape[0], config.max_iters, config.M, config.grad_tol
    y_hat, grad_norm, nu_hat = np.empty((L, 1)), np.empty(L), np.empty(L) if cubic else None
    index, last = np.empty(L, dtype=int), np.empty(L, dtype=int)
    errors = [None] * L
    # the lanes still iterating, their points and iterates and, for cubic
    # Newton, nu_M, step, y and |grad_y g| of the best iterate so far
    lanes, xa, ya = np.arange(L), x, np.full((L, 1), problem.y0, dtype=float)
    b_nu, b_k, b_y, b_gn = np.empty(L), np.empty(L, dtype=int), np.empty((L, 1)), np.empty(L)
    with np.errstate(all="ignore"):
        for k in range(K + 1):
            g = call_oracle(problem, "grad_y_g", xa, ya)
            gn = np.abs(g[:, 0]) if cubic or tol > 0 else None
            if cubic:
                lam = call_oracle(problem, "hess_yy_g", xa, ya)[:, 0, 0]
                nu = _nu(gn, lam, M)
                take = nu < b_nu if k else np.ones(len(lanes), dtype=bool)
                # nu_M is non-finite where g is, and a non-finite nu_M or
                # h makes the sum of their products non-finite
                if not math.isfinite(nu @ lam):
                    _flag(errors, lanes, g, "gradient", k)
                    _flag(errors, lanes, lam, "Hessian", k)
                    take |= np.isnan(nu) & ~np.isnan(b_nu)  # a first NaN is the least
                np.copyto(b_nu, nu, where=take)
                np.copyto(b_k, k, where=take)
                np.copyto(b_y, ya, where=take[:, None])
                np.copyto(b_gn, gn, where=take)
            stop = np.ones(len(lanes), dtype=bool) if k == K else gn <= tol if tol > 0 else None
            if stop is not None and stop.any():
                out = lanes[stop]
                last[out] = k
                if cubic:
                    y_hat[out], index[out] = b_y[stop], b_k[stop]
                    grad_norm[out], nu_hat[out] = b_gn[stop], b_nu[stop]
                else:
                    # a stopping lane's gradient shows in no later iterate
                    _flag(errors, out, g[stop], "gradient", k)
                    y_hat[out], index[out], grad_norm[out] = ya[stop], k, np.abs(g[stop, 0])
                keep = ~stop
                if not keep.any():
                    break
                lanes, xa, ya, g = lanes[keep], xa[keep], ya[keep], g[keep]
                if cubic:
                    lam, gn, b_nu, b_k, b_y, b_gn = (a[keep] for a in
                                                     (lam, gn, b_nu, b_k, b_y, b_gn))
            if cubic:
                ya = ya + _cubic_step_1d(g[:, 0], gn, lam, M)[0][:, None]
            else:
                ya = ya - config.eta * g
            # a non-finite gradient makes the next iterate non-finite
            if not math.isfinite(ya.sum()):
                _flag(errors, lanes, g, "gradient", k)
                _flag(errors, lanes, ya, "iterate", k + 1)
    counts = {"g": np.zeros(L, dtype=int), "grad": last + 1,
              "hess": last + 1 if cubic else np.zeros(L, dtype=int)}
    return LowerSolveResult(y_hat=y_hat, grad_norm=grad_norm, stationarity=nu_hat,
                            selected_index=index, oracle_counts=counts, errors=errors)


def run_lower_lean(problem, x, config: LowerSolverConfig) -> LowerSolveResult:
    """`solve_lower` under the name the estimator and the CLI call it by.

    A profiler that wraps this name times the solves of a run apart from
    direct `solve_lower` calls (benchmarks/tracing.py does).
    """
    return solve_lower(problem, x, config)
