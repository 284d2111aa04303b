"""Lower-level solvers: gradient descent and cubic-regularized Newton.

There is one solver per method, and it advances a batch of lanes together:
x of shape (L, n) holds L parameter points, every lane starts from y0, and
each oracle call serves every lane still iterating (the lane convention of
`problems`).  Inputs are checked once per solve.  Lanes stop on their own
(early exit on grad_tol), fail on their own (a non-finite value is reported
for that lane only) and select their own iterate.  One point is a batch of
one lane.  A solve of at most _FLOAT_LANES lanes whose oracles have float
forms (`problems`: grad_y_g for gradient descent, grad_y_g and hess_yy_g for
cubic Newton) runs each lane's steps in Python floats instead, with the same
arithmetic and so the same result.  A solve runs again in lockstep, which
reports the failure, only when a float form raises, a step divides by zero
(an M so small that 2 M |g| underflows) or a value turns non-finite.

The follower y is one-dimensional, so a solve's iterates are one float per
lane.  With g = dg/dy and h = d2g/dy2 at the iterate, the cubic method
minimizes the model m(s) = g s + 1/2 h s^2 + (M/6)|s|^3 in closed form at
every step and selects the iterate with the smallest second-order
stationarity measure (Nesterov & Polyak, Math. Program. 108, 2006)

    nu_M(y) = max( sqrt(|g| / M),  -(2 / (3 M)) h ).

A solve streams: per lane it keeps its current iterate, the selected iterate
with its step, |grad_y g| and nu_M there, and its first failure, never the
K-step history, so its memory is O(L) floats for any budget K.  Solvers are
reentrant: each solve owns its state and oracles are pure.
"""

import ctypes
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, LowerSolveError
from .problems import call_oracle

__all__ = [
    "LowerSolverConfig", "LowerSolveResult", "CubicStep", "solve_cubic_subproblem",
    "solve_lower",
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
    """What a solve keeps of its L lanes, as (L,) columns with no step axis:
    y_hat and selected_index, each lane's selected iterate and its step;
    grad_norm, |grad_y g| at y_hat, and stationarity, nu_M at y_hat (None
    for gradient descent); each oracle count, an integer column; errors[l],
    the LowerSolveError that stopped lane l, or None.
    """

    y_hat: np.ndarray
    grad_norm: np.ndarray
    stationarity: Optional[np.ndarray]
    selected_index: np.ndarray
    oracle_counts: dict
    errors: list


@dataclass(frozen=True)
class CubicStep:
    s: float
    model_value: float
    boundary_multiplier: float  # r with (h + M r / 2) s = -g and r = |s|
    hard_case: bool


def _nu(grad_norm, lambda_min, M):
    # np.maximum keeps its second argument on a tie: +0.0 where g = 0 and h = +0.0
    return np.maximum(-(2.0 / (3.0 * M)) * lambda_min, np.sqrt(grad_norm / M))


# ---------------------------------------------------------------------------
# Cubic-model subproblem
# ---------------------------------------------------------------------------

def solve_cubic_subproblem(g, h, M) -> CubicStep:
    """Global minimizer of g s + 1/2 h s^2 + (M/6)|s|^3 for real scalars g and h.

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
    g, h = np.asarray(g, dtype=float), np.asarray(h, dtype=float)
    if g.ndim or h.ndim:
        raise ValueError(f"g and h must be scalars, got shapes {g.shape} and {h.shape}")
    M = float(M)
    if not 0 < M < math.inf:
        raise ValueError("M must be positive and finite")
    if not (math.isfinite(g) and math.isfinite(h)):
        raise ValueError("non-finite subproblem inputs")
    with np.errstate(all="ignore"):  # the branch np.where drops, and overflow
        s, r, hard = _cubic_step_1d(g, np.abs(g), h, M)
        value = r * (g * np.sign(s) + r * (0.5 * h + (M / 6.0) * r))
    if not math.isfinite(s):
        raise LowerSolveError(f"cubic step overflows at g = {float(g)}, h = {float(h)}")
    return CubicStep(float(s), float(value), float(r), bool(hard))


def _cubic_step_1d(g, ag, h, M):
    """Closed-form cubic step (s, r, hard_case) for arrays g and h of one
    shape, with ag = |g|.

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
    """Record a non-finite `what` at step k in each of the lanes whose value
    is non-finite, unless the lane failed before."""
    for lane in lanes[~np.isfinite(values)]:
        if errors[lane] is None:
            errors[lane] = LowerSolveError(f"non-finite {what} at lower-level step {k}",
                                           iterate_index=k)


# One step of all L lanes, float loop against lockstep loop (2-core Xeon).
# Gradient descent on minimax (K = 200): 0.4 against 10.7 us at L = 1, 3.3
# against 11.1 us at L = 9, 9 against 11.5 us at L = 24 and 11.7 against
# 11.8 us at L = 32.  Cubic Newton on the fold (K = 200, M = 420): 0.8
# against 43 us at L = 1, 7 against 43 us at L = 9, 19 against 43 us at
# L = 24, 37 against 45 us at L = 48 and 49 against 43 us at L = 64.  The
# two meet near L = 32 for gradient descent and near L = 56 for cubic
# Newton; 24 leaves a margin for both.
_FLOAT_LANES = 24

# libm's hypot, the one np.hypot calls: math.hypot rounds differently in the
# last bit.  numpy has already imported ctypes.
_hypot = ctypes.CDLL(None).hypot
_hypot.restype, _hypot.argtypes = ctypes.c_double, (ctypes.c_double, ctypes.c_double)


def _descent_lane(xs, y, config, grad, hess):
    """One gradient-descent lane in floats from y on the float form grad:
    its row (y_hat, |grad_y g| there, NaN for nu_M, selected step, last
    step) and the values whose finiteness shows it met no non-finite one.

    A non-finite gradient makes every later iterate non-finite, and a
    non-finite iterate stays so (inf - finite is inf, NaN stays NaN), so the
    last gradient and iterate tell whether a lane met one.
    """
    K, eta, tol = config.max_iters, config.eta, config.grad_tol
    for k in range(K + 1):
        g = grad(xs, y)
        if k == K or tol > 0 and abs(g) <= tol:
            break
        y = y - eta * g
    return (y, abs(g), math.nan, k, k), (g, y)


def _cubic_lane(xs, y, config, grad, hess):
    """One cubic-Newton lane in floats from y on the float forms grad and
    hess, with the arithmetic of the lockstep loop: its row (the selected
    iterate, |grad_y g| and nu_M there, its step, the last step) and the last
    step's g, h and iterate.

    Where 2 M |g| overflows, the root is sqrt(2 M) sqrt(|g|), as in lockstep.
    A non-finite g, or h, at a step before the last either makes the next
    iterate non-finite, which stays so, or leaves the iterate where it is
    (h = inf, or NaN with a tiny |g|), so that the oracles repeat it up to
    the last step.  So finite last values mean finite values at every step,
    where the running best under a strict < is np.argmin's first smallest
    nu_M.
    """
    K, M, tol = config.max_iters, config.M, config.grad_tol
    c = -(2.0 / (3.0 * M))
    for k in range(K + 1):
        g, h = grad(xs, y), hess(xs, y)
        ag = abs(g)
        # max keeps its first argument on a tie, as np.maximum in _nu keeps
        # its second: +0.0 where g = 0 and h = +0.0
        nu = max(math.sqrt(ag / M), c * h)
        if k == 0 or nu < b_nu:
            b_y, b_gn, b_nu, b_k = y, ag, nu, k
        if k == K or tol > 0 and ag <= tol:
            break
        # the step of _cubic_step_1d
        if ag <= 1e-13 * (ag + 1.0):
            y = y + (-2.0 * h / M if h < 0.0 else 0.0)
        else:
            q = 2.0 * M * ag
            root = _hypot(h, math.sqrt(q) if q < math.inf else math.sqrt(2.0 * M) * math.sqrt(ag))
            y = y + -math.copysign(ag / (0.5 * (h + root)) if h >= 0.0 else (root - h) / M, g)
    return (b_y, b_gn, b_nu, b_k, k), (g, h, y)


def _float_solve(lane, x, y0, config, grad, hess):
    """The solve of x (L, n) from y0 run by lane(xs, y0, config, grad, hess)
    on each lane's x as a list of floats, or None when a lane raises
    ValueError or ArithmeticError (math.sin(inf) raises the one,
    math.exp(1000) and a division by zero the other) or ends with a
    non-finite value: the lockstep loop then runs the solve again and
    reports the failure.
    """
    rows = []
    try:
        for xs in x.tolist():
            row, last = lane(xs, y0, config, grad, hess)
            if not all(map(math.isfinite, last)):
                return None
            rows.append(row)
    except (ValueError, ArithmeticError):
        return None
    L = len(rows)
    y_hat, grad_norm, nu, index, last = np.array(rows, dtype=float).reshape(L, 5).T.copy()
    return _result(config, y_hat, grad_norm, nu, index.astype(int), last.astype(int),
                   [None] * L)


def _result(config, y_hat, grad_norm, nu, index, last, errors):
    """The LowerSolveResult of lanes whose last step was last (L,): each ran
    last + 1 gradients, and as many Hessians for cubic Newton."""
    cubic = config.method == CUBIC_NEWTON
    counts = {"g": np.zeros(len(last), dtype=int), "grad": last + 1,
              "hess": last + 1 if cubic else np.zeros(len(last), dtype=int)}
    return LowerSolveResult(y_hat=y_hat, grad_norm=grad_norm,
                            stationarity=nu if cubic else None, selected_index=index,
                            oracle_counts=counts, errors=errors)


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
    grad = getattr(problem.grad_y_g, "float_form", None)
    hess = getattr(problem.hess_yy_g, "float_form", None)
    if L <= _FLOAT_LANES and grad is not None and (hess is not None or not cubic):
        res = _float_solve(_cubic_lane if cubic else _descent_lane, x, float(problem.y0),
                           config, grad, hess)
        if res is not None:
            return res
    y_hat, grad_norm, nu_hat = np.empty(L), np.empty(L), np.empty(L)
    index, last = np.empty(L, dtype=int), np.empty(L, dtype=int)
    errors = [None] * L
    # the lanes still iterating, their points and iterates and, for cubic
    # Newton, nu_M, step, y and |grad_y g| of the best iterate so far
    lanes, xa, ya = np.arange(L), x, np.full(L, problem.y0, dtype=float)
    b_nu, b_k, b_y, b_gn = np.empty(L), np.empty(L, dtype=int), np.empty(L), np.empty(L)
    with np.errstate(all="ignore"):
        for k in range(K + 1):
            g = call_oracle(problem, "grad_y_g", xa, ya)
            gn = np.abs(g) if cubic or tol > 0 else None
            if cubic:
                lam = call_oracle(problem, "hess_yy_g", xa, ya)
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
                np.copyto(b_y, ya, where=take)
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
                    y_hat[out], index[out], grad_norm[out] = ya[stop], k, np.abs(g[stop])
                keep = ~stop
                if not keep.any():
                    break
                lanes, xa, ya, g = lanes[keep], xa[keep], ya[keep], g[keep]
                if cubic:
                    lam, gn, b_nu, b_k, b_y, b_gn = (a[keep] for a in
                                                     (lam, gn, b_nu, b_k, b_y, b_gn))
            if cubic:
                ya = ya + _cubic_step_1d(g, gn, lam, M)[0]
            else:
                ya = ya - config.eta * g
            # a non-finite gradient makes the next iterate non-finite
            if not math.isfinite(ya.sum()):
                _flag(errors, lanes, g, "gradient", k)
                _flag(errors, lanes, ya, "iterate", k + 1)
    return _result(config, y_hat, grad_norm, nu_hat, index, last, errors)


def run_lower_lean(problem, x, config: LowerSolverConfig) -> LowerSolveResult:
    """`solve_lower` under the name the estimator and the CLI call it by.

    A profiler that wraps this name times the solves of a run apart from
    direct `solve_lower` calls (benchmarks/tracing.py does).
    """
    return solve_lower(problem, x, config)
