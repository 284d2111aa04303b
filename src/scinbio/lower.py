"""Lower-level solvers: gradient descent and cubic-regularized Newton.

The cubic method minimizes the model  m(s) = g^T s + 1/2 s^T H s + (M/6)||s||^3
at every step and afterwards selects the iterate with the smallest
second-order stationarity measure

    nu_M(y) = max( sqrt(||grad g|| / M),  -(2 / (3 M)) lambda_min(hess g) ).

Solvers are reentrant: each solve owns its trace and oracles are pure.
"""

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .errors import LowerSolveError

__all__ = [
    "LowerSolverConfig", "LowerSolveResult", "CubicStep",
    "stationarity_measure", "solve_cubic_subproblem",
    "cubic_newton_solve", "gradient_descent_solve", "solve_lower",
]

GRADIENT_DESCENT = "gradient_descent"
CUBIC_NEWTON = "cubic_newton"

# best-iterate selection rules
SELECT_STATIONARITY = "stationarity"  # argmin nu_M over k = 0..K (cubic default)
SELECT_LAST = "last"                  # final iterate (gradient-descent default)
SELECT_MIN_GRAD = "min_grad"          # argmin gradient norm over k = 1..K


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
    selection: Optional[str] = None

    def __post_init__(self):
        if self.method not in (GRADIENT_DESCENT, CUBIC_NEWTON):
            raise ValueError(f"unknown lower-level method {self.method!r}")
        if self.method == GRADIENT_DESCENT and not self.eta > 0:
            raise ValueError("eta must be positive")
        if self.method == CUBIC_NEWTON and not self.M > 0:
            raise ValueError("M must be positive")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")

    def resolved_selection(self):
        if self.selection is not None:
            return self.selection
        return SELECT_STATIONARITY if self.method == CUBIC_NEWTON else SELECT_LAST


@dataclass
class LowerSolveResult:
    y_hat: np.ndarray
    iterates: List[np.ndarray]
    grad_norms: List[float]
    stationarity_measures: List[float]   # empty for gradient descent
    selected_index: int
    oracle_counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CubicStep:
    s: np.ndarray
    model_value: float
    boundary_multiplier: float  # r with (H + (M r / 2) I) s = -g and r = ||s||
    hard_case: bool


def stationarity_measure(grad_norm, lambda_min, M):
    """nu_M: max of sqrt(grad_norm / M) and -(2 / (3 M)) lambda_min."""
    if grad_norm < 0 or M <= 0:
        raise ValueError("grad_norm must be >= 0 and M > 0")
    return max(math.sqrt(grad_norm / M), -(2.0 / (3.0 * M)) * lambda_min)


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
    """Ascending eigenvalues and eigenvectors of the symmetric part of hess.

    A 1x1 matrix is its own eigendecomposition: (h, [[1]]) is bit for bit
    what LAPACK returns, without the cost of the call.
    """
    if hess.shape == (1, 1):
        return hess[0].copy(), np.ones((1, 1))
    return np.linalg.eigh(0.5 * (hess + hess.T))


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
        return _cubic_step_1d(float(grad[0]), float(hess[0, 0]), M)
    return _solve_cubic_secular(grad, hess, M, _eig)


def _cubic_step_1d(g, h, M):
    ag = abs(g)
    if ag <= 1e-13 * (ag + 1.0):
        if h >= 0.0:
            return CubicStep(np.zeros(1), 0.0, 0.0, False)
        r = -2.0 * h / M
        s, hard = r, True
    else:
        root = math.hypot(h, math.sqrt(2.0 * M * ag))
        r = 2.0 * ag / (h + root) if h >= 0.0 else (root - h) / M
        s, hard = -math.copysign(r, g), False
    value = g * s + 0.5 * h * s * s + (M / 6.0) * r ** 3
    return CubicStep(np.array([s]), value, r, hard)


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
# Full solvers (trace-recording)
# ---------------------------------------------------------------------------

def _check_finite(y, k, what="iterate"):
    if not np.all(np.isfinite(y)):
        raise LowerSolveError(f"non-finite {what} at lower-level step {k}",
                              iterate_index=k)


def cubic_newton_solve(problem, x, config: LowerSolverConfig) -> LowerSolveResult:
    """K full cubic-Newton steps from y0; best iterate by nu_M over k = 0..K."""
    if config.method != CUBIC_NEWTON:
        raise ValueError("config.method must be 'cubic_newton'")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    M = config.M
    K = config.max_iters
    y = np.array(problem.y0, dtype=float)
    iterates = [y.copy()]
    grad_norms = []
    nus = []
    lambda_mins = []
    n_grad = n_hess = 0

    for k in range(K + 1):
        gk = np.atleast_1d(np.asarray(problem.grad_y_g(x, y), dtype=float))
        Hk = np.atleast_2d(np.asarray(problem.hess_yy_g(x, y), dtype=float))
        n_grad += 1
        n_hess += 1
        _check_finite(gk, k, "gradient")
        _check_finite(Hk, k, "Hessian")
        evals, evecs = _eigenpairs(Hk)
        gnorm = float(np.linalg.norm(gk))
        grad_norms.append(gnorm)
        lambda_mins.append(float(evals[0]))
        nus.append(stationarity_measure(gnorm, float(evals[0]), M))
        if config.grad_tol > 0 and gnorm <= config.grad_tol:
            break
        if k == K:
            break
        step = solve_cubic_subproblem(gk, Hk, M, _eig=(evals, evecs))
        y = y + step.s
        _check_finite(y, k + 1)
        iterates.append(y.copy())

    selection = config.resolved_selection()
    if selection == SELECT_STATIONARITY:
        k_star = int(np.argmin(nus))
    elif selection == SELECT_MIN_GRAD:
        k_star = 1 + int(np.argmin(grad_norms[1:])) if len(grad_norms) > 1 else 0
    elif selection == SELECT_LAST:
        k_star = len(iterates) - 1
    else:
        raise ValueError(f"unknown selection rule {selection!r}")

    return LowerSolveResult(
        y_hat=iterates[k_star].copy(),
        iterates=iterates,
        grad_norms=grad_norms,
        stationarity_measures=nus,
        selected_index=k_star,
        oracle_counts={"g": 0, "grad": n_grad, "hess": n_hess},
    )


def gradient_descent_solve(problem, x, config: LowerSolverConfig) -> LowerSolveResult:
    """y_{k+1} = y_k - eta grad_y g(x, y_k) for K steps; returns the last iterate."""
    if config.method != GRADIENT_DESCENT:
        raise ValueError("config.method must be 'gradient_descent'")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    eta = config.eta
    K = config.max_iters
    y = np.array(problem.y0, dtype=float)
    iterates = [y.copy()]
    grad_norms = []
    n_grad = 0

    for k in range(K + 1):
        gk = np.atleast_1d(np.asarray(problem.grad_y_g(x, y), dtype=float))
        n_grad += 1
        _check_finite(gk, k, "gradient")
        gnorm = float(np.linalg.norm(gk))
        grad_norms.append(gnorm)
        if config.grad_tol > 0 and gnorm <= config.grad_tol:
            break
        if k == K:
            break
        y = y - eta * gk
        _check_finite(y, k + 1)
        iterates.append(y.copy())

    selection = config.resolved_selection()
    if selection == SELECT_LAST:
        k_star = len(iterates) - 1
    elif selection == SELECT_MIN_GRAD:
        k_star = 1 + int(np.argmin(grad_norms[1:])) if len(grad_norms) > 1 else 0
    else:
        raise ValueError(f"selection rule {selection!r} not supported for gradient descent")

    return LowerSolveResult(
        y_hat=iterates[k_star].copy(),
        iterates=iterates,
        grad_norms=grad_norms,
        stationarity_measures=[],
        selected_index=k_star,
        oracle_counts={"g": 0, "grad": n_grad, "hess": 0},
    )


def solve_lower(problem, x, config: LowerSolverConfig) -> LowerSolveResult:
    if config.method == CUBIC_NEWTON:
        return cubic_newton_solve(problem, x, config)
    return gradient_descent_solve(problem, x, config)


# ---------------------------------------------------------------------------
# Lean path used by the hypergradient estimator: no per-iterate recording.
# Arithmetic matches the recording solvers exactly.
# ---------------------------------------------------------------------------

def run_lower_lean(problem, x, config: LowerSolverConfig):
    """Return (y_hat, oracle_counts) without storing the iterate trace."""
    if (config.method == GRADIENT_DESCENT and problem.m == 1 and config.grad_tol == 0
            and config.resolved_selection() == SELECT_LAST):
        return _gd_lean_1d(problem, x, config)
    res = solve_lower(problem, x, config)
    return res.y_hat, res.oracle_counts


def _gd_lean_1d(problem, x, config):
    # scalar fast path: the minimax experiment runs ~10^6 of these solves
    grad = problem.grad_y_g
    eta = config.eta
    K = config.max_iters
    ybuf = np.array(problem.y0, dtype=float)
    yv = ybuf[0]
    for k in range(K):
        ybuf[0] = yv
        gk = grad(x, ybuf)
        yv = yv - eta * gk[0]
        if not math.isfinite(yv):
            # name the same step and cause as the recording solver
            if not math.isfinite(gk[0]):
                raise LowerSolveError(f"non-finite gradient at lower-level step {k}",
                                      iterate_index=k)
            raise LowerSolveError(f"non-finite iterate at lower-level step {k + 1}",
                                  iterate_index=k + 1)
    ybuf[0] = yv
    # the recording solver evaluates and checks the gradient at the last iterate too
    if not math.isfinite(grad(x, ybuf)[0]):
        raise LowerSolveError(f"non-finite gradient at lower-level step {K}",
                              iterate_index=K)
    counts = {"g": 0, "grad": K + 1, "hess": 0}
    return ybuf, counts
