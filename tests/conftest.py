import numpy as np
import pytest

from scinbio import (BilevelProblem, box_set, builtin_fold_family,
                     builtin_minimax, builtin_quartic_family,
                     builtin_shifted_double_well, scan_bifurcation_set)
from scinbio.problems import call_oracle


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


def quadratic_problem(m=2, y0=None):
    """g(y) = 1/2 ||y||^2: strongly convex sanity target for the solvers
    (oracles follow the lane convention of `scinbio.problems`)."""
    y0 = np.zeros(m) if y0 is None else np.asarray(y0, dtype=float)

    def f(x, y):
        return y[..., 0]

    def g(x, y):
        return 0.5 * (y * y).sum(axis=-1)

    def grad(x, y):
        return np.asarray(y, dtype=float).copy()

    def hess(x, y):
        return np.broadcast_to(np.eye(m), np.shape(y) + (m,)).copy()

    def cross(x, y):
        return np.zeros(np.shape(y) + (1,))

    return BilevelProblem(n=1, m=m, f=f, g=g, grad_y_g=grad, hess_yy_g=hess,
                          grad_x_grad_y_g=cross, y0=y0, f_bar=10.0,
                          feasible_set=box_set([-1.0], [1.0]))


def at(problem, oracle, x, y):
    """Oracle `oracle` of `problem` at the one point (x, y), run as a batch of
    one lane: the output without its lane axis."""
    return call_oracle(problem, oracle, np.asarray(x, dtype=float)[None, :],
                       np.asarray(y, dtype=float)[None, :])[0]


def central_diff_grad(fun, y, step):
    """Central finite differences of a scalar function of y."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    for i in range(y.size):
        yp = y.copy(); yp[i] += step
        ym = y.copy(); ym[i] -= step
        out[i] = (fun(yp) - fun(ym)) / (2.0 * step)
    return out
