"""Gradient descent-ascent baseline for the minimax experiment.

Simulates the saddle dynamics x' = -df/dx, y' = +df/dy of a scalar objective
f(x, y), given as its gradient grad_f(x, y) -> (df/dx, df/dy) on Python
floats (problems.minimax_gradient for the builtin saddle).
Nonconvex-nonconcave objectives can trap these dynamics in closed orbits; a
recurrence detector with an excursion filter separates genuine loops from
slow convergence.
"""

import math
from array import array
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import NumericalError

__all__ = ["GdaTrace", "run_gda", "detect_cycle", "gda_field"]

CONVERGED = "converged"
CYCLING = "cycling"
BUDGET_EXHAUSTED = "budget_exhausted"

EPS_CYCLE = 1e-3
MIN_PERIOD = 50
CONVERGED_WINDOW = 1000
CONVERGED_DISPLACEMENT = 1e-5


def gda_field(grad_f, x, y):
    """Flow direction (-df/dx, +df/dy) at a scalar phase point."""
    fx, fy = grad_f(x, y)
    return -fx, fy


@dataclass
class GdaTrace:
    points: np.ndarray            # (k+1, 2) phase trajectory
    step: float
    steps_taken: int
    verdict: str
    cycle_witness: Optional[Tuple[int, int]]
    # displacement over the last completed 1000-step window (None if none completed)
    final_window_displacement: Optional[float]


def detect_cycle(points, eps_cycle=EPS_CYCLE, min_period=MIN_PERIOD,
                 transient=None) -> Optional[Tuple[int, int]]:
    """First recurrence pair (a, b) with ||p_a - p_b|| <= eps, b - a >= min_period,
    and an intermediate excursion >= 10 eps (ruling out slow convergence).

    Anchors a are sampled every min_period // 2 points after the transient;
    a true loop recurs from every anchor, so the stride cannot miss one.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if transient is None:
        transient = n // 2
    if transient >= n:
        raise ValueError("transient must leave at least one point")
    # no two tail points lie farther apart than the tail's bounding-box diagonal,
    # so a tail inside a box of diagonal < 10 eps has no excursion to pass the filter
    if np.linalg.norm(np.ptp(pts[transient:], axis=0)) < 10.0 * eps_cycle:
        return None
    stride = max(1, min_period // 2)
    for a in range(transient, n - min_period, stride):
        d = np.linalg.norm(pts[a + 1:] - pts[a], axis=1)
        excursion = np.maximum.accumulate(d)
        offsets = np.arange(1, d.shape[0] + 1)
        ok = (d <= eps_cycle) & (excursion >= 10.0 * eps_cycle) & (offsets >= min_period)
        hits = np.flatnonzero(ok)
        if hits.size:
            return a, a + 1 + int(hits[0])
    return None


def run_gda(grad_f, init, step, max_steps, *, integrator="rk4") -> GdaTrace:
    """Integrate the saddle dynamics of grad_f from init = (x, y) for max_steps.

    integrator "rk4" (default) follows the continuous flow closely enough to
    preserve its closed orbits over the full horizon; "euler" is the raw
    discrete scheme x <- x - h grad_x f, y <- y + h grad_y f, whose O(h) drift
    destroys neutrally stable loops.  Early exit with verdict `converged` once
    the displacement over a 1000-step window drops below 1e-5; the trace
    keeps the last window's displacement either way.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    if integrator not in ("euler", "rk4"):
        raise ValueError("integrator must be 'euler' or 'rk4'")
    x, y = float(init[0]), float(init[1])
    h = float(step)
    recorded = array("d", (x, y))  # the trajectory, flat: x0, y0, x1, y1, ...
    verdict = BUDGET_EXHAUSTED
    steps_taken = 0
    x_prev_window, y_prev_window = x, y
    disp = None

    for k in range(max_steps):
        if integrator == "euler":
            vx, vy = gda_field(grad_f, x, y)
            x, y = x + h * vx, y + h * vy
        else:
            k1 = gda_field(grad_f, x, y)
            k2 = gda_field(grad_f, x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
            k3 = gda_field(grad_f, x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
            k4 = gda_field(grad_f, x + h * k3[0], y + h * k3[1])
            x = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            y = y + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        steps_taken = k + 1
        if not (math.isfinite(x) and math.isfinite(y)):
            raise NumericalError(f"non-finite GDA iterate at step {k + 1}")
        recorded.extend((x, y))
        if (k + 1) % CONVERGED_WINDOW == 0:
            disp = float(np.hypot(x - x_prev_window, y - y_prev_window))
            x_prev_window, y_prev_window = x, y
            if disp <= CONVERGED_DISPLACEMENT:
                verdict = CONVERGED
                break

    points = np.frombuffer(recorded, dtype=float).reshape(-1, 2)
    witness = None
    if verdict != CONVERGED:
        witness = detect_cycle(points)
        if witness is not None:
            verdict = CYCLING
    return GdaTrace(points=points, step=h, steps_taken=steps_taken,
                    verdict=verdict, cycle_witness=witness,
                    final_window_displacement=disp)
