import math

import numpy as np
import pytest

from scinbio import (BilevelProblem, box_set, box_counting_dimension,
                     check_fold_conditions, find_stationary_points_1d,
                     neighborhood_measure, scan_bifurcation_set)
from scinbio.geometry import (FOLD, NON_FOLD_DEGENERATE, NONDEGENERATE,
                              StationaryPointRecord)


def arr(*vals):
    return np.array([float(v) for v in vals])


# ---------------------------------------------------------------------------
# 1-d stationary-point finder
# ---------------------------------------------------------------------------

def test_fold_family_two_branches(fold):
    recs = find_stationary_points_1d(fold, arr(0.75, 0.0), (-1.0, 1.0), 2000)
    ys = sorted(r.y[0] for r in recs)
    ref = math.sqrt((2 * 0.75 - 1) / (9 * 0.75 - 6 * 0.75 ** 2))
    assert len(ys) == 2
    assert ys[0] == pytest.approx(-ref, abs=1e-3)
    assert ys[1] == pytest.approx(+ref, abs=1e-3)
    assert all(not r.degenerate for r in recs)


def test_fold_family_no_roots_before_fold(fold):
    recs = find_stationary_points_1d(fold, arr(0.3, 0.0), (-0.3, 0.3), 2000)
    assert recs == []


def test_double_well_three_roots(double_well):
    recs = find_stationary_points_1d(double_well, arr(0.0), (-2.0, 2.0), 2000)
    ys = sorted(r.y[0] for r in recs)
    assert np.allclose(ys, [-1.0, 0.0, 1.0], atol=1e-10)
    lams = sorted(r.lambda_min_abs for r in recs)
    assert np.allclose(lams, [4.0, 8.0, 8.0], atol=1e-8)
    assert all(r.fold_class == NONDEGENERATE for r in recs)


def test_roots_satisfy_gradient_tolerance(quartic):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-4, 5, size=2)
        recs = find_stationary_points_1d(quartic, x, (-250.0, 250.0), 3000)
        assert recs  # coercive quartic always has a stationary point
        for r in recs:
            gv = float(np.atleast_1d(quartic.grad_y_g(x, r.y))[0])
            assert abs(gv) <= 1e-10 * (1.0 + abs(r.y[0]))


def test_finder_validates_inputs(fold, minimax):
    with pytest.raises(ValueError):
        find_stationary_points_1d(fold, arr(0.5, 0.0), (-1, 1), 1)
    from conftest import quadratic_problem
    with pytest.raises(ValueError):
        find_stationary_points_1d(quadratic_problem(m=2), arr(0.0), (-1, 1), 100)


def test_branch_continuity(fold):
    # upper branch sweeps continuously in x1 (implicit-function regime)
    xs = np.arange(0.55, 1.0, 1e-3)
    prev = None
    for x1 in xs:
        recs = find_stationary_points_1d(fold, arr(x1, 0.0), (0.0, 1.0), 500)
        assert len(recs) == 1
        y = recs[0].y[0]
        if prev is not None:
            # local slope of sqrt((2x-1)/(9x-6x^2)) stays below ~10 on [0.55, 1]
            assert abs(y - prev) <= 10.0 * 1e-3 * 10.0
        prev = y


def test_fold_eigenvalue_sqrt_scaling(fold):
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    lams = []
    for d in deltas:
        recs = find_stationary_points_1d(fold, arr(0.5 + d, 0.0), (-1.0, 1.0), 4000)
        assert recs
        lams.append(min(r.lambda_min_abs for r in recs))
    slope = np.polyfit(np.log(deltas), np.log(lams), 1)[0]
    assert 0.4 <= slope <= 0.6


# ---------------------------------------------------------------------------
# bifurcation scan
# ---------------------------------------------------------------------------

# a 15 s build: the tests that use it are marked slow
@pytest.fixture(scope="session")
def fold_scan(fold):
    return scan_bifurcation_set(fold, 200, (-1.0, 1.0), 400)


@pytest.mark.slow
def test_fold_scan_marks_line(fold_scan):
    marked = fold_scan.marked_centers()
    assert len(marked) >= 150
    cell_w = fold_scan.cell_size[0]
    assert np.abs(marked[:, 0] - 0.5).max() <= cell_w
    # indicator implies a degenerate record in the cell
    degenerate = [r for r in fold_scan.branch_points if r.degenerate]
    assert len(degenerate) >= 150
    for r in degenerate[:20]:
        assert abs(r.x[0] - 0.5) <= 1e-6
        assert abs(r.y[0]) <= 1e-6


@pytest.mark.slow
def test_scan_indicator_backed_by_degenerate_records(fold_scan):
    lo, hi = fold_scan.bbox
    w1, w2 = fold_scan.cell_size
    r = fold_scan.grid_resolution
    cells_with_degenerate = set()
    for rec in fold_scan.branch_points:
        if rec.degenerate:
            i = min(int((rec.x[0] - lo[0]) / w1), r - 1)
            j = min(int((rec.x[1] - lo[1]) / w2), r - 1)
            cells_with_degenerate.add((i, j))
    for i, j in zip(*np.nonzero(fold_scan.indicator)):
        assert (i, j) in cells_with_degenerate


def test_scan_requires_2d(double_well):
    with pytest.raises(ValueError):
        scan_bifurcation_set(double_well, 10, (-1, 1), 50)


def test_nondegenerate_problem_unmarked():
    # g = (y - x1)^2 / 2: unique stationary point with lambda = 1 everywhere
    def g(x, y):
        return 0.5 * (y[0] - x[0]) ** 2

    def grad(x, y):
        return np.asarray(y, dtype=float) - x[0]

    def hess(x, y):
        return np.array([[1.0]])

    p = BilevelProblem(n=2, m=1, f=lambda x, y: float(y[0]), g=g, grad_y_g=grad,
                       hess_yy_g=hess, y0=np.zeros(1), f_bar=5.0,
                       feasible_set=box_set([-1.0, -1.0], [1.0, 1.0]))
    scan = scan_bifurcation_set(p, 20, (-3.0, 3.0), 200)
    assert not scan.indicator.any()
    assert np.nanmin(scan.lambda_min_grid) >= 1.0


@pytest.mark.slow
def test_quartic_scan_finds_curvelike_strata(quartic):
    scan = scan_bifurcation_set(quartic, 300, (-250.0, 250.0), 2000)
    marked = scan.marked_centers()
    assert len(marked) >= 50
    # curve-like: marked cells are spread across many rows and columns
    assert len(np.unique(np.round(marked[:, 0], 6))) >= 20
    assert len(np.unique(np.round(marked[:, 1], 6))) >= 20


# ---------------------------------------------------------------------------
# fold conditions
# ---------------------------------------------------------------------------

def test_fold_conditions_on_fold_family(fold):
    rec = StationaryPointRecord(x=arr(0.5, 0.0), y=arr(0.0), grad_norm=0.0,
                                lambda_min_abs=0.0, degenerate=True,
                                fold_class="undetermined")
    assert check_fold_conditions(fold, rec) == FOLD


def test_fold_conditions_reject_cusp_like():
    # g = y^4 + x y: third derivative along the null direction vanishes at y = 0
    def g(x, y):
        return y[0] ** 4 + x[0] * y[0]

    def grad(x, y):
        yy = np.asarray(y, dtype=float)
        return 4.0 * yy ** 3 + x[0]

    def hess(x, y):
        return np.array([[12.0 * y[0] ** 2]])

    p = BilevelProblem(n=1, m=1, f=lambda x, y: float(y[0]), g=g, grad_y_g=grad,
                       hess_yy_g=hess, y0=np.zeros(1), f_bar=10.0,
                       feasible_set=box_set([-1.0], [1.0]))
    rec = StationaryPointRecord(x=arr(0.0), y=arr(0.0), grad_norm=0.0,
                                lambda_min_abs=0.0, degenerate=True,
                                fold_class="undetermined")
    assert check_fold_conditions(p, rec) == NON_FOLD_DEGENERATE


def test_fold_conditions_reject_double_zero_eigenvalue():
    # m = 2 with hess = diag(0, 0) at the origin: condition (1) fails
    def g(x, y):
        return 0.25 * float(np.dot(y, y)) ** 2 + x[0] * (y[0] + y[1])

    def grad(x, y):
        return float(np.dot(y, y)) * np.asarray(y, dtype=float) + x[0]

    def hess(x, y):
        yy = np.asarray(y, dtype=float)
        return float(np.dot(yy, yy)) * np.eye(2) + 2.0 * np.outer(yy, yy)

    p = BilevelProblem(n=1, m=2, f=lambda x, y: float(y[0]), g=g, grad_y_g=grad,
                       hess_yy_g=hess, y0=np.zeros(2), f_bar=10.0,
                       feasible_set=box_set([-1.0], [1.0]))
    rec = StationaryPointRecord(x=arr(0.0), y=arr(0.0, 0.0), grad_norm=0.0,
                                lambda_min_abs=0.0, degenerate=True,
                                fold_class="undetermined")
    assert check_fold_conditions(p, rec) == NON_FOLD_DEGENERATE


def test_fold_conditions_require_degenerate_record(fold):
    rec = StationaryPointRecord(x=arr(0.75, 0.0), y=arr(0.385), grad_norm=0.0,
                                lambda_min_abs=0.42, degenerate=False,
                                fold_class=NONDEGENERATE)
    with pytest.raises(ValueError):
        check_fold_conditions(fold, rec)


@pytest.mark.slow
def test_scanned_fold_points_classify_as_folds(fold, fold_scan):
    degenerate = [r for r in fold_scan.branch_points if r.degenerate]
    for rec in degenerate[::40]:
        assert check_fold_conditions(fold, rec) == FOLD


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def test_dimension_of_line():
    rng = np.random.default_rng(5)
    pts = np.column_stack([rng.uniform(0, 1, 10000), np.full(10000, 0.5)])
    est = box_counting_dimension(pts, [0.1, 0.05, 0.025, 0.0125])
    assert abs(est.d_hat - 1.0) <= 0.1
    assert est.determined


def test_dimension_of_filled_square():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 1, size=(10000, 2))
    est = box_counting_dimension(pts, [0.1, 0.05, 0.025, 0.0125])
    assert abs(est.d_hat - 2.0) <= 0.15


@pytest.mark.slow
def test_dimension_of_fold_scan(fold_scan):
    est = box_counting_dimension(fold_scan.marked_centers(),
                                 [0.1, 0.05, 0.025, 0.0125])
    assert abs(est.d_hat - 1.0) <= 0.15


def test_dimension_counts_monotone():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 1, size=(500, 2))
    est = box_counting_dimension(pts, [0.2, 0.1, 0.05])
    assert all(b >= a for a, b in zip(est.counts, est.counts[1:]))


def test_dimension_degenerate_flagged():
    est = box_counting_dimension(np.zeros((5, 2)), [0.2, 0.1])
    assert not est.determined
    assert math.isnan(est.d_hat)


def test_dimension_validates_radii():
    with pytest.raises(ValueError):
        box_counting_dimension(np.zeros((1, 2)), [0.1])
    with pytest.raises(ValueError):
        box_counting_dimension(np.zeros((1, 2)), [0.1, 0.2])


# ---------------------------------------------------------------------------
# neighborhood measure
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_tube_measure_around_fold_line(fold_scan):
    (delta, measure), = neighborhood_measure(fold_scan, [0.1])
    # tube of half-width 0.1 around the segment {x1 = 1/2} x [-1, 1]
    assert measure == pytest.approx(2 * 0.1 * 2.0, rel=0.2)


@pytest.mark.slow
def test_tube_measure_zero_delta(fold_scan):
    (_, measure), = neighborhood_measure(fold_scan, [0.0])
    w1, w2 = fold_scan.cell_size
    assert measure == pytest.approx(fold_scan.indicator.sum() * w1 * w2, rel=1e-12)


@pytest.mark.slow
def test_tube_measure_monotone(fold_scan):
    out = neighborhood_measure(fold_scan, [0.02, 0.05, 0.1, 0.2, 0.4])
    measures = [m for _, m in out]
    assert all(b >= a for a, b in zip(measures, measures[1:]))


@pytest.mark.slow
def test_tube_measure_scaling_and_covering_bound(fold_scan):
    deltas = [0.04, 0.08, 0.16, 0.32]
    out = neighborhood_measure(fold_scan, deltas)
    measures = np.array([m for _, m in out])
    slope = np.polyfit(np.log(deltas), np.log(measures), 1)[0]
    assert 0.8 <= slope <= 1.2
    # covering-number upper bound lambda(delta) <= C sqrt(delta), C fit at the
    # largest delta, must dominate the smaller deltas
    C = measures[-1] / math.sqrt(deltas[-1])
    for d, m in zip(deltas, measures):
        assert m <= C * math.sqrt(d) * (1.0 + 1e-9)
