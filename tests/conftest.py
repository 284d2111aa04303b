import math

import numpy as np
import pytest

from scinbio import (BilevelProblem, LowerSolverConfig, box_set, builtin_fold_family,
                     builtin_minimax, builtin_quartic_family,
                     builtin_shifted_double_well, scan_bifurcation_set,
                     solve_cubic_subproblem, stationarity_measure)
from scinbio.lower import _cubic_step_1d
from scinbio.problems import batch_shape, call_oracle


@pytest.fixture(scope="session")
def minimax():
    return builtin_minimax()


@pytest.fixture(scope="session")
def double_well():
    return builtin_shifted_double_well()


@pytest.fixture(scope="session")
def fold():
    return builtin_fold_family()


@pytest.fixture(scope="session")
def quartic():
    return builtin_quartic_family()


# the 200^2 fold scan of the geometry tests and acceptance criterion 8; it
# builds in about 1 s, so the geometry tests that use it run in the fast loop
@pytest.fixture(scope="session")
def fold_scan(fold):
    return scan_bifurcation_set(fold, 200, (-1.0, 1.0), 400)


def quadratic_problem(y0=None):
    """g(y) = 1/2 y^2: strongly convex sanity target for the solvers
    (oracles follow the lane convention of `scinbio.problems`)."""
    y0 = np.zeros(1) if y0 is None else np.asarray(y0, dtype=float)

    def f(x, y):
        return np.broadcast_to(y[..., 0], batch_shape(x, y))

    def g(x, y):
        yy = f(x, y)
        return 0.5 * (yy * yy)

    def grad(x, y):
        return np.broadcast_to(y, batch_shape(x, y) + (1,)).copy()

    def hess(x, y):
        return np.ones(batch_shape(x, y) + (1, 1))

    def cross(x, y):
        return np.zeros(batch_shape(x, y) + (1, 1))

    return BilevelProblem(n=1, f=f, g=g, grad_y_g=grad, hess_yy_g=hess,
                          grad_x_grad_y_g=cross, y0=y0, f_bar=10.0,
                          feasible_set=box_set([-1.0], [1.0]))


def phi_problem(phi, n=1, lo=-10.0, hi=10.0, f_bar=10.0):
    """A problem whose hyperfunction is phi: f(x, y) = phi(x) row by row,
    g = 0 and y0 = 0, over the box [lo, hi]^n.  Solve its follower with a
    grad_tol > 0 config such as PHI_LOWER: |grad_y g| = 0 at y0 stops every
    lane at step 0."""

    def f(x, y):
        values = np.array([phi(row) for row in x.reshape(-1, n)]).reshape(x.shape[:-1])
        return np.broadcast_to(values, batch_shape(x, y))

    def g(x, y):
        return np.zeros(batch_shape(x, y))

    def grad(x, y):
        return np.zeros(batch_shape(x, y) + (1,))

    def hess(x, y):
        return np.zeros(batch_shape(x, y) + (1, 1))

    def cross(x, y):
        return np.zeros(batch_shape(x, y) + (1, n))

    return BilevelProblem(n=n, f=f, g=g, grad_y_g=grad, hess_yy_g=hess,
                          grad_x_grad_y_g=cross, y0=np.zeros(1), f_bar=f_bar,
                          feasible_set=box_set([lo] * n, [hi] * n))


PHI_LOWER = LowerSolverConfig(max_iters=1, grad_tol=1e-12)


def at(problem, oracle, x, y):
    """Oracle `oracle` of `problem` at the one point (x, y), run as a batch of
    one lane: the output without its lane axis."""
    return call_oracle(problem, oracle, np.asarray(x, dtype=float)[None, :],
                       np.asarray(y, dtype=float)[None, :])[0]


def reference_solve(problem, x, config):
    """Reference of `scinbio.solve_lower`: each row of x (L, n) runs its own
    loop of one-lane oracle calls, takes the cubic step of
    `solve_cubic_subproblem` and records its whole trajectory.

    Returns one dict per lane: ys, the iterates it ran (steps_run, 1), with
    grad_norms and nus (None for gradient descent) there; index, y_hat,
    grad_norm and stationarity at the selected step (the last for gradient
    descent, the first smallest nu_M by np.argmin for cubic Newton);
    steps_run; and error, the (text, step) of its first non-finite value or
    None.
    """
    cubic = config.method == "cubic_newton"
    K, tol = config.max_iters, config.grad_tol
    lanes = []
    for row in np.asarray(x, dtype=float):
        xl, y = row[None, :], np.array(problem.y0, dtype=float)
        ys, grad_norms, nus, events = [], [], [], []
        with np.errstate(all="ignore"):
            for k in range(K + 1):
                ys.append(y)
                if k > 0 and not np.isfinite(y).all():
                    events.append(("iterate", k))
                g = call_oracle(problem, "grad_y_g", xl, y[None, :])[0]
                if not np.isfinite(g).all():
                    events.append(("gradient", k))
                grad_norms.append(float(abs(g[0])))
                if cubic:
                    H = call_oracle(problem, "hess_yy_g", xl, y[None, :])[0]
                    lam = H[0, 0]
                    if not math.isfinite(lam):
                        events.append(("Hessian", k))
                    nus.append(float(stationarity_measure(grad_norms[-1], lam, config.M)))
                if k == K or 0 < tol and grad_norms[-1] <= tol:
                    break
                y = y + _reference_cubic_step(g, H, config.M) if cubic else y - config.eta * g
        index = int(np.argmin(nus)) if cubic else len(ys) - 1
        error = None
        if events:
            what, step = events[0]
            error = (f"non-finite {what} at lower-level step {step}", step)
        lanes.append({
            "ys": np.array(ys), "grad_norms": np.array(grad_norms),
            "nus": np.array(nus) if cubic else None, "index": index, "y_hat": ys[index],
            "grad_norm": grad_norms[index], "stationarity": nus[index] if cubic else None,
            "steps_run": len(ys), "error": error})
    return lanes


def _reference_cubic_step(g, H, M):
    """The cubic step of `solve_cubic_subproblem`; for the non-finite g or H
    it rejects, the step a failing lane takes in `solve_lower`: the closed
    form evaluated as is."""
    if np.isfinite(g).all() and np.isfinite(H).all():
        return solve_cubic_subproblem(g, H, M).s
    return _cubic_step_1d(g, np.abs(g), H[0], M)[0]


def central_diff_grad(fun, y, step):
    """Central finite differences of a scalar function of y."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    for i in range(y.size):
        yp = y.copy(); yp[i] += step
        ym = y.copy(); ym[i] -= step
        out[i] = (fun(yp) - fun(ym)) / (2.0 * step)
    return out
