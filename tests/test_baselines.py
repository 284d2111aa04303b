import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scinbio import detect_cycle, minimax_gradient, run_gda
from scinbio.baselines import BUDGET_EXHAUSTED, CONVERGED, CYCLING, gda_field
from scinbio.problems import _mm_fy
from scinbio.rng import seeded_initialization


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def test_convex_concave_quadratic_converges():
    # f = x^2 - y^2
    trace = run_gda(lambda x, y: (2 * x, -2 * y), (1.5, -1.2), 0.01, 50000)
    assert trace.verdict == CONVERGED
    assert np.abs(trace.points[-1]).max() <= 1e-4


def test_bilinear_euler_norm_identity():
    # explicit Euler on f = xy gains norm exactly: |z+|^2 = (1 + h^2) |z|^2
    h = 0.01
    trace = run_gda(lambda x, y: (y, x), (0.7, -0.4), h, 300, integrator="euler")
    norms2 = (trace.points ** 2).sum(axis=1)
    for a, b in zip(norms2, norms2[1:]):
        assert b == pytest.approx((1.0 + h * h) * a, rel=1e-12)


def test_finite_difference_field_matches_analytic(minimax):
    # -df/dx against central differences of the bundle's f; df/dy is -grad_y g
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=2).tolist()
        vx, vy = gda_field(minimax_gradient, x, y)
        h = 1e-6 * (1.0 + abs(x))
        fd = (minimax.f(np.array([[x + h]]), np.array([y]))[0]
              - minimax.f(np.array([[x - h]]), np.array([y]))[0]) / (2.0 * h)
        assert vx == pytest.approx(-fd, abs=1e-8)
        assert vy == -minimax.grad_y_g(np.array([[x]]), np.array([y]))[0]


_coord = st.floats(-6.0, 6.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=1, max_size=8))
def test_minimax_gradient_has_the_oracle_bits(minimax, points):
    xs = np.array([[p[0]] for p in points])
    ys = np.array([p[1] for p in points])
    lanes = -minimax.grad_y_g(xs, ys)
    for k, (x, y) in enumerate(points):
        fx, fy = minimax_gradient(x, y)
        assert type(fx) is float and type(fy) is float
        single = -minimax.grad_y_g(xs[k:k + 1], ys[k:k + 1])[0]
        assert fy == _mm_fy(x, y) == single == lanes[k]
        # the float form that small gradient-descent solves run on
        form = minimax.grad_y_g.float_form([x], y)
        assert type(form) is float and form == -fy
        assert np.float64(form).tobytes() == (-lanes[k]).tobytes()


def test_budget_exhausted_on_tiny_budget():
    trace = run_gda(minimax_gradient, (1.0, 1.0), 0.01, 10)
    assert trace.verdict == BUDGET_EXHAUSTED
    assert trace.steps_taken == 10
    assert trace.final_window_displacement is None


def test_step_validation():
    with pytest.raises(ValueError):
        run_gda(minimax_gradient, (0.0, 0.0), -0.1, 100)
    with pytest.raises(ValueError):
        run_gda(minimax_gradient, (0.0, 0.0), 0.1, 100, integrator="leapfrog")


@pytest.mark.parametrize("seed, verdict, steps", [
    (7, CYCLING, 20000), (1, CONVERGED, 5000), (0, BUDGET_EXHAUSTED, 20000)])
def test_minimax_seed_verdicts(seed, verdict, steps):
    trace = run_gda(minimax_gradient, seeded_initialization(seed), 0.01, 20000)
    assert (trace.verdict, trace.steps_taken) == (verdict, steps)
    disp = trace.final_window_displacement
    if verdict == CONVERGED:
        assert disp <= 1e-5
    else:
        assert disp > 1e-5
    if seed == 0:
        # still creeping in: the window displacement falls toward 1e-5 by 50,000 steps
        assert disp == pytest.approx(7.5e-5, rel=0.01)


# ---------------------------------------------------------------------------
# cycle detector
# ---------------------------------------------------------------------------

def test_detects_perfect_circle():
    k = np.arange(5 * 360)
    pts = np.column_stack([np.cos(2 * np.pi * k / 360), np.sin(2 * np.pi * k / 360)])
    hit = detect_cycle(pts, eps_cycle=1e-3, min_period=50, transient=0)
    assert hit is not None
    a, b = hit
    assert a == 0
    assert abs((b - a) - 360) <= 1


def test_excursion_filter_threshold_on_small_loops():
    # a loop of diameter just over 10 eps is found, one just under is not
    k = np.arange(5 * 360)
    ring = np.column_stack([np.cos(2 * np.pi * k / 360), np.sin(2 * np.pi * k / 360)])
    assert detect_cycle(0.0051 * ring, eps_cycle=1e-3, transient=0) is not None
    assert detect_cycle(0.0049 * ring, eps_cycle=1e-3, transient=0) is None


def test_ignores_contracting_spiral():
    k = np.arange(4000)
    r = 2.0 * np.exp(-k / 500.0)
    pts = np.column_stack([r * np.cos(k * 0.05), r * np.sin(k * 0.05)])
    assert detect_cycle(pts, eps_cycle=1e-3, min_period=50, transient=0) is None


def test_ignores_constant_sequence():
    pts = np.tile([0.3, -0.7], (2000, 1))
    assert detect_cycle(pts, eps_cycle=1e-3, min_period=50, transient=0) is None


def test_never_fires_on_contracting_spirals():
    # Decay rates below ~224 steps guarantee the radial drift over one
    # min_period exceeds eps wherever the loop diameter still clears the
    # excursion filter; slower near-commensurate spirals are recurrences at
    # the eps scale and legitimately count as loops.
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(1500, 4000))
        k = np.arange(n)
        rate = rng.uniform(50, 180)
        omega = rng.uniform(0.01, 0.2)
        r0 = rng.uniform(0.5, 3.0)
        center = rng.uniform(-1, 1, size=2)
        r = r0 * np.exp(-k / rate)
        pts = center + np.column_stack([r * np.cos(k * omega),
                                        r * np.sin(k * omega)])
        assert detect_cycle(pts) is None


def test_cycle_witness_invariant():
    # a genuinely cycling trajectory of the saddle flow (loop basin)
    trace = run_gda(minimax_gradient, (2.3, -2.3), 0.01, 50000)
    assert trace.verdict == CYCLING
    a, b = trace.cycle_witness
    assert b - a >= 50
    assert np.linalg.norm(trace.points[a] - trace.points[b]) <= 1e-3
