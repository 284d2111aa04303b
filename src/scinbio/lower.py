"""Lower-level solvers: gradient descent and cubic-regularized Newton.

There is one solver per method, and it advances a batch of lanes together:
x of shape (L, n) holds L parameter points, every lane starts from y0, and
each oracle call serves every lane still iterating (the lane convention of
`problems`).  Inputs are checked once per solve.  Lanes stop on their own
(early exit on grad_tol), fail on their own (a non-finite value is reported
for that lane only) and select their own iterate.  One point is a batch of
one lane.

The cubic method minimizes the model  m(s) = g^T s + 1/2 s^T H s + (M/6)||s||^3
at every step and selects the iterate with the smallest second-order
stationarity measure (Nesterov & Polyak, Math. Program. 108, 2006)

    nu_M(y) = max( sqrt(||grad g|| / M),  -(2 / (3 M)) lambda_min(hess g) ).

A solve streams: per lane it keeps its current iterate, the selected iterate
with its step, ||grad_y g|| and nu_M there, and its first failure, never the
K-step history, so its memory is O(L m) floats for any budget K.  Solvers
are reentrant: each solve owns its state and oracles are pure.
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
    """What a solve keeps of its L lanes, with no step axis: y_hat (L, m)
    and selected_index (L,), each lane's selected iterate and its step;
    grad_norm (L,), ||grad_y g|| at y_hat, and stationarity (L,), nu_M at
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
    boundary_multiplier: float  # r with (H + (M r / 2) I) s = -g and r = ||s||
    hard_case: bool


def stationarity_measure(grad_norm, lambda_min, M):
    """nu_M: max of sqrt(grad_norm / M) and -(2 / (3 M)) lambda_min (elementwise)."""
    if np.any(np.asarray(grad_norm) < 0) or M <= 0:
        raise ValueError("grad_norm must be >= 0 and M > 0")
    return _nu(grad_norm, lambda_min, M)


def _nu(grad_norm, lambda_min, M):
    return np.maximum(np.sqrt(grad_norm / M), -(2.0 / (3.0 * M)) * lambda_min)


# ---------------------------------------------------------------------------
# Cubic-model subproblem
# ---------------------------------------------------------------------------

def _model_value(s, grad, hess, M):
    return (float(grad @ s) + 0.5 * float(s @ hess @ s)
            + (M / 6.0) * float(np.linalg.norm(s)) ** 3)


def _canonical_eigvec(v):
    # fix the sign so eigenvector orientation is LAPACK-independent
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def _eigenpairs(hess):
    """Ascending eigenvalues and eigenvectors of the symmetric part of hess,
    one (m, m) matrix or a stack (..., m, m).

    A 1x1 matrix is its own eigendecomposition: (h, [[1]]) is bit for bit
    what LAPACK returns, without the cost of the call.
    """
    if hess.shape[-2:] == (1, 1):
        return hess[..., 0].copy(), np.ones(hess.shape)
    return np.linalg.eigh(0.5 * (hess + np.swapaxes(hess, -1, -2)))


def solve_cubic_subproblem(grad, hess, M, _eig=None) -> CubicStep:
    """Global minimizer of g^T s + 1/2 s^T H s + (M/6)||s||^3.

    For m = 1 the minimizer has a closed form (Nesterov & Polyak, Math.
    Program. 108, 2006, sec. 5): s = -sign(g) r, where r >= 0 is the positive
    root of (M/2) r^2 + h r - |g| = 0,

        r = 2|g| / (h + sqrt(h^2 + 2M|g|))   (h >= 0)
          = (-h + sqrt(h^2 + 2M|g|)) / M     (h < 0, the same root),

    each form free of cancellation on its side.  When |g| <= 1e-13 (|g| + 1)
    the step is s = 0 for h >= 0 and the hard-case step s = -2h/M for h < 0.

    For m > 1 the step comes from the eigendecomposition of H: the minimizer
    satisfies (H + (M r / 2) I) s = -g with r = ||s|| >= max(0, -2 lambda_min / M),
    solved as a scalar secular equation in the shift a = lambda_min + M r / 2
    by safeguarded bisection + Newton.  When g is orthogonal to the bottom eigenspace and
    the secular root is infeasible (hard case), an eigenvector component of
    the exact magnitude closing ||s|| = r is added.  `_eig` passes a
    precomputed (evals, evecs) of H; it is unused for m = 1.
    """
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    hess = np.atleast_2d(np.asarray(hess, dtype=float))
    M = float(M)
    m = grad.shape[0]
    if hess.shape != (m, m):
        raise ValueError(f"hess must be ({m},{m}), got {hess.shape}")
    if M <= 0:
        raise ValueError("M must be positive")
    if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
        raise ValueError("non-finite subproblem inputs")
    scale = np.max(np.abs(hess)) + 1.0
    if np.max(np.abs(hess - hess.T)) > 1e-8 * scale:
        raise ValueError("hess must be symmetric")
    if m == 1:
        g, h = grad, hess[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):  # the branch np.where drops
            s, r, hard = _cubic_step_1d(g, h, M)
        value = g * s + 0.5 * h * s * s + (M / 6.0) * r ** 3
        return CubicStep(s, float(value[0]), float(r[0]), bool(hard[0]))
    return _solve_cubic_secular(grad, hess, M, _eig)


def _cubic_step_1d(g, h, M):
    """Closed-form cubic step (s, r, hard_case) for arrays of 1-D (g, h).

    np.where evaluates both forms of r; the one it drops may divide by zero,
    so callers run this under np.errstate.
    """
    ag = np.abs(g)
    tiny = ag <= 1e-13 * (ag + 1.0)
    root = np.hypot(h, np.sqrt(2.0 * M * ag))
    r = np.where(h >= 0.0, 2.0 * ag / (h + root), (root - h) / M)
    s = -np.copysign(r, g)
    if not tiny.any():  # the common case: the root above serves every lane, none is hard
        return s, r, tiny
    # |g| ~ 0: no step for h >= 0, the hard-case step s = r = -2h/M for h < 0
    hard = tiny & (h < 0.0)
    r = np.where(tiny, np.where(hard, -2.0 * h / M, 0.0), r)
    s = np.where(tiny, r, s)
    return s, r, hard


def _solve_cubic_secular(grad, hess, M, eig=None) -> CubicStep:
    """Eigendecomposition + secular-equation solve of the cubic model, any m.

    Takes inputs already checked by `solve_cubic_subproblem`; for m = 1 it is
    the reference the closed form is tested against.
    """
    m = grad.shape[0]
    evals, evecs = _eigenpairs(hess) if eig is None else eig
    lam_min = float(evals[0])
    ghat = evecs.T @ grad
    r_lo = max(0.0, -2.0 * lam_min / M)

    # components of g on the bottom eigenspace
    bottom = evals <= lam_min + 1e-12 * (abs(lam_min) + 1.0)
    g_bottom = float(np.linalg.norm(ghat[bottom]))
    g_scale = float(np.linalg.norm(grad))

    if g_bottom <= 1e-13 * (g_scale + 1.0):
        # pseudo-inverse length on the complement of the bottom eigenspace
        denom = evals[~bottom] + 0.5 * M * r_lo
        w_lo = float(np.linalg.norm(ghat[~bottom] / denom)) if np.any(~bottom) else 0.0
        if r_lo == 0.0 and g_scale == 0.0:
            s = np.zeros(m)
            return CubicStep(s, 0.0, 0.0, False)
        if w_lo < r_lo:
            # hard case: close the radius gap along the bottom eigenvector
            v = _canonical_eigvec(evecs[:, 0])
            s_perp = np.zeros(m)
            if np.any(~bottom):
                s_perp = evecs[:, ~bottom] @ (-ghat[~bottom] / denom)
            tau = math.sqrt(max(r_lo * r_lo - w_lo * w_lo, 0.0))
            s = s_perp + tau * v
            return CubicStep(s, _model_value(s, grad, hess, M), r_lo, True)
        zero_bottom = ghat.copy()
        zero_bottom[bottom] = 0.0
        ghat = zero_bottom
    if not np.any(ghat):
        return CubicStep(np.zeros(m), 0.0, 0.0, False)

    # regular case: solve ||ghat / (delta + a)|| = r(a) for the shift
    # a = lambda_min + M r / 2 on (max(0, lambda_min), inf).  With delta = evals -
    # lambda_min the bottom denominators are a itself, free of the cancellation in
    # lambda_min + M r / 2 that ruins s when g is almost orthogonal to the bottom
    # eigenspace and the root sits next to the pole.
    delta = evals - lam_min

    def r_of(a):
        return 2.0 * (a - lam_min) / M

    def residual_and_deriv(a):
        d = delta + a
        t = ghat / d
        w = float(np.linalg.norm(t))
        return w - r_of(a), -float(np.sum(t * t / d)) / w - 2.0 / M

    lo = max(0.0, lam_min)
    hi = lam_min + 0.5 * M * max(2.0 * r_lo, 2.0 * math.sqrt(g_scale / M) + 1e-8)
    for _ in range(200):
        if residual_and_deriv(hi)[0] < 0:
            break
        hi = lam_min + 2.0 * (hi - lam_min)  # doubles r
    a = min(max(0.5 * (lo + hi), lo + 1e-16), hi)
    for _ in range(200):
        res, dres = residual_and_deriv(a)
        if abs(res) <= 1e-10 * (1.0 + r_of(a)):
            break
        if res > 0:
            lo = a
        else:
            hi = a
        a_newton = a - res / dres
        a = a_newton if lo < a_newton < hi else 0.5 * (lo + hi)
    s = evecs @ (-ghat / (delta + a))
    return CubicStep(s, _model_value(s, grad, hess, M), r_of(a), False)


# ---------------------------------------------------------------------------
# Batched solvers
# ---------------------------------------------------------------------------

def _norms(g):
    sq = g * g  # for m = 1 skip the reduction: a one-term sum is that term
    return np.sqrt(sq[:, 0] if sq.shape[1] == 1 else sq.sum(axis=1))


def _curvature_and_step(g, H, M, with_step):
    """lambda_min of each lane's Hessian (NaN where H is not finite) and, when
    with_step, each lane's cubic step: the closed form for m = 1, the secular
    solve lane by lane for m > 1."""
    m = g.shape[1]
    if m == 1:
        lam = H[:, 0, 0]
        return lam, (_cubic_step_1d(g[:, 0], lam, M)[0][:, None] if with_step else None)
    ok = np.isfinite(H).all(axis=(1, 2))
    evals, evecs = _eigenpairs(np.where(ok[:, None, None], H, 0.0))
    lam = np.where(ok, evals[:, 0], np.nan)
    if not with_step:
        return lam, None
    steps = np.full(g.shape, np.nan)
    for i in np.flatnonzero(ok & np.isfinite(g).all(axis=1)):
        steps[i] = _solve_cubic_secular(g[i], H[i], M, (evals[i], evecs[i])).s
    return lam, steps


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
    ||grad_y g|| <= grad_tol (when grad_tol > 0).  Each lane's y_hat is its
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
    L, m, K, M, tol = x.shape[0], problem.m, config.max_iters, config.M, config.grad_tol
    y_hat, grad_norm, nu_hat = np.empty((L, m)), np.empty(L), np.empty(L) if cubic else None
    index, last = np.empty(L, dtype=int), np.empty(L, dtype=int)
    errors = [None] * L
    # the lanes still iterating, their points and iterates and, for cubic
    # Newton, nu_M, step, y and ||grad_y g|| of the best iterate so far
    lanes, xa, ya = np.arange(L), x, np.full((L, m), problem.y0, dtype=float)
    b_nu, b_k, b_y, b_gn = np.empty(L), np.empty(L, dtype=int), np.empty((L, m)), np.empty(L)
    with np.errstate(all="ignore"):
        for k in range(K + 1):
            g = call_oracle(problem, "grad_y_g", xa, ya)
            gn = _norms(g) if cubic or tol > 0 else None
            if cubic:
                H = call_oracle(problem, "hess_yy_g", xa, ya)
                lam, step = _curvature_and_step(g, H, M, k < K)
                nu = _nu(gn, lam, M)
                take = nu < b_nu if k else np.ones(len(lanes), dtype=bool)
                # nu_M is non-finite where g is, and a non-finite nu_M or
                # lambda_min makes the sum of their products non-finite
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
                    y_hat[out], index[out], grad_norm[out] = ya[stop], k, _norms(g[stop])
                keep = ~stop
                if not keep.any():
                    break
                lanes, xa, ya, g = lanes[keep], xa[keep], ya[keep], g[keep]
                if cubic:
                    step, b_nu, b_k, b_y, b_gn = (a[keep] for a in (step, b_nu, b_k, b_y, b_gn))
            ya = ya + step if cubic else ya - config.eta * g
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
