import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from scinbio import (BilevelProblem, box_set, box_counting_dimension,
                     check_fold_conditions, find_stationary_points_1d,
                     neighborhood_measure, scan_bifurcation_set)
from scinbio.geometry import (FOLD, NON_FOLD_DEGENERATE, NONDEGENERATE,
                              BifurcationScan, StationaryPointRecord,
                              _cell_roots, _hunt_degenerate, _hunt_lanes,
                              distance_to_marked)


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


def test_lockstep_polish_keeps_lanes_independent(double_well):
    # with 15 grid points on [-2, 2] at x = 0, y = 0 is a grid zero, y = -1
    # the first bisection midpoint of its bracket, and y = 1, whose midpoint
    # rounds below it, is reached by Newton: lanes that end at different
    # steps.  Each cell's roots must be the bits of that cell polished alone.
    xs = np.array([[0.0], [0.3], [-0.55], [1e-3]])
    together = _cell_roots(double_well, xs, (-2.0, 2.0), 15)
    assert [y for y, _, _ in together[0]] == [-1.0, 0.0, 1.0]
    for x, roots in zip(xs, together):
        alone = find_stationary_points_1d(double_well, x, (-2.0, 2.0), 15)
        assert len(alone) == 3
        assert [(y, abs(g), abs(lam)) for y, g, lam in roots] == [
            (r.y[0], r.grad_norm, r.lambda_min_abs) for r in alone]


def test_roots_satisfy_gradient_tolerance(quartic):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-4, 5, size=2)
        recs = find_stationary_points_1d(quartic, x, (-250.0, 250.0), 3000)
        assert recs  # coercive quartic always has a stationary point
        for r in recs:
            gv = float(quartic.grad_y_g(x[None, :], r.y[None, :])[0, 0])
            assert abs(gv) <= 1e-10 * (1.0 + abs(r.y[0]))


def test_finder_validates_inputs(fold, minimax):
    with pytest.raises(ValueError):
        find_stationary_points_1d(fold, arr(0.5, 0.0), (-1, 1), 1)


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
        return 0.5 * (y[..., 0] - x[..., 0]) ** 2

    def grad(x, y):
        return np.asarray(y, dtype=float) - x[..., :1]

    def hess(x, y):
        return np.ones(np.shape(y) + (1,))

    def cross(x, y):
        return np.broadcast_to([-1.0, 0.0], np.shape(y) + (2,)).copy()

    p = BilevelProblem(n=2, f=lambda x, y: y[..., 0], g=g, grad_y_g=grad,
                       hess_yy_g=hess, grad_x_grad_y_g=cross, y0=np.zeros(1), f_bar=5.0,
                       feasible_set=box_set([-1.0, -1.0], [1.0, 1.0]))
    scan = scan_bifurcation_set(p, 20, (-3.0, 3.0), 200)
    assert not scan.indicator.any()
    assert np.nanmin(scan.lambda_min_grid) >= 1.0


def test_quartic_scan_finds_curvelike_strata(quartic):
    scan = scan_bifurcation_set(quartic, 300, (-250.0, 250.0), 2000)
    marked = scan.marked_centers()
    assert len(marked) >= 50
    # curve-like: marked cells are spread across many rows and columns
    assert len(np.unique(np.round(marked[:, 0], 6))) >= 20
    assert len(np.unique(np.round(marked[:, 1], 6))) >= 20


def _discriminant_sign_change_cells(quartic, r):
    """Cells of the r x r grid over the quartic's box among whose corners the
    discriminant of dg/dy = 4 y^3 + 3 c3 y^2 + 2 c2 y + c3 changes sign, so
    that the number of real stationary points changes inside the cell."""
    lo, hi = quartic.feasible_set.bbox
    k = np.arange(r + 1)
    g1 = lo[0] + k * (hi[0] - lo[0]) / r
    g2 = lo[1] + k * (hi[1] - lo[1]) / r
    corners = np.stack(np.meshgrid(g1, g2, indexing="ij"), axis=-1).reshape(-1, 2)
    zero = np.zeros((len(corners), 1))
    c3 = quartic.grad_y_g(corners, zero)[:, 0]               # dg/dy at y = 0
    c2 = 0.5 * quartic.hess_yy_g(corners, zero)[:, 0, 0]     # d2g/dy2 / 2 at y = 0
    a, b, c, d = 4.0, 3.0 * c3, 2.0 * c2, c3
    disc = 18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c - 4 * a * c ** 3 - 27 * a * a * d * d
    sign = np.sign(disc).reshape(r + 1, r + 1)
    quad = np.stack([sign[:-1, :-1], sign[1:, :-1], sign[:-1, 1:], sign[1:, 1:]])
    return (quad.min(axis=0) < 0) & (quad.max(axis=0) > 0)


def test_quartic_scan_is_complete(quartic):
    # every cell where a pair of stationary points merges has a marked cell
    # within one cell, whichever pair of the cell's roots it is
    r = 100
    scan = scan_bifurcation_set(quartic, r, (-250.0, 250.0), 2000)
    change = _discriminant_sign_change_cells(quartic, r)
    assert change.sum() >= 300
    padded = np.pad(scan.indicator, 1)
    near = np.zeros_like(scan.indicator)
    for di in range(3):
        for dj in range(3):
            near |= padded[di:di + r, dj:dj + r]
    missed = np.argwhere(change & ~near)
    assert missed.size == 0, missed[:10].tolist()


@pytest.mark.parametrize("name, y_range, y_resolution",
                         [("fold", (-1.0, 1.0), 400), ("quartic", (-250.0, 250.0), 2000)])
def test_scan_roots_equal_single_cell_roots(request, name, y_range, y_resolution):
    # the scan polishes all cells' brackets in one lockstep call; each cell's
    # records (ahead of the hunted degenerate points) must be the bits of
    # find_stationary_points_1d at that cell's center
    problem = request.getfixturevalue(name)
    scan = scan_bifurcation_set(problem, 12, y_range, y_resolution)
    c1, c2 = scan.cell_centers()
    alone = [rec for a in c1 for b in c2
             for rec in find_stationary_points_1d(problem, arr(a, b), y_range, y_resolution)]
    assert len(alone) >= 144
    assert all(rec.degenerate for rec in scan.branch_points[len(alone):])
    for rec, ref in zip(scan.branch_points, alone):
        assert np.array_equal(rec.x, ref.x) and np.array_equal(rec.y, ref.y)
        assert (rec.grad_norm, rec.lambda_min_abs, rec.degenerate) == (
            ref.grad_norm, ref.lambda_min_abs, ref.degenerate)


@pytest.mark.parametrize("oracle", ["grad_y_g", "hess_yy_g"])
def test_scan_rejects_oracle_off_lane_convention(fold, oracle):
    # an oracle that ignores the lane axis is named with the expected shape
    single = {"grad_y_g": lambda x, y: np.array([0.5]),
              "hess_yy_g": lambda x, y: np.array([[1.0]])}[oracle]
    bad = dataclasses.replace(fold, **{oracle: single})
    with pytest.raises(ValueError, match=rf"{oracle} returned shape .* expects \(\d+, 1"):
        scan_bifurcation_set(bad, 4, (-1.0, 1.0), 50)


def test_fold_scan_indicator_at_100(fold):
    # the fold's bifurcation set {x1 = 1/2} falls on the boundary below row
    # 50, which is marked whole, and nothing else is
    scan = scan_bifurcation_set(fold, 100, (-1.0, 1.0), 400)
    expected = np.zeros((100, 100), dtype=bool)
    expected[50] = True
    assert np.array_equal(scan.indicator, expected)


@pytest.mark.parametrize("name, y_range, y_resolution, n_marked, digest", [
    ("fold", (-1.0, 1.0), 400, 72,
     "8655628bab6ec620030903dcd417930e32b318dc72f34dc81f3e8fd257df6169"),
    ("quartic", (-250.0, 250.0), 2000, 157,
     "cda0c1511a357625a5756b2e1614938eda50a32c4c42e34ab3be9fe098efa3b7"),
], ids=["fold", "quartic"])
def test_scan_indicators_pinned_at_72(request, name, y_range, y_resolution, n_marked, digest):
    # sha256 of the 72^2 indicators as the scalar hunt, one neighbor pair at
    # a time, marked them before the hunt ran its lanes in lockstep
    scan = scan_bifurcation_set(request.getfixturevalue(name), 72, y_range, y_resolution)
    assert int(scan.indicator.sum()) == n_marked
    assert hashlib.sha256(scan.indicator.tobytes()).hexdigest() == digest


def _same_hit(p, q):
    if p is None or q is None:
        return p is q
    return np.array_equal(p[0], q[0]) and p[1:] == q[1:]


def test_lockstep_hunt_equals_single_pair_hunts(quartic):
    # every lane of the 24^2 scan's hunt, hunted together, takes the steps it
    # takes alone: x*, y*, gradient and Hessian are the bits of a batch of
    # one, and a lane that fails fails alone
    r, y_lo, y_hi, y_res = 24, -250.0, 250.0, 2000
    lo, hi = quartic.feasible_set.bbox
    w = (hi - lo) / r
    c1, c2 = (lo[a] + (np.arange(r) + 0.5) * w[a] for a in (0, 1))
    xs = np.column_stack([np.repeat(c1, r), np.tile(c2, r)])
    roots = _cell_roots(quartic, xs, (y_lo, y_hi), y_res)
    _, a, b, seeds = _hunt_lanes(roots, r, y_lo, y_hi, 2.0 * (y_hi - y_lo) / y_res)
    # two more lanes: a segment of length 0, whose first J has a zero column
    # and is singular; and a seed far above the window, which its first step,
    # clamped to half the window, cannot bring back
    xa = np.vstack([xs[a], xs[:2]])
    xb = np.vstack([xs[b], xs[:1], xs[1:2]])
    seeds = np.append(seeds, [0.0, 1e6])
    together = _hunt_degenerate(quartic, xa, xb, seeds, y_lo, y_hi)
    assert together[-2:] == [None, None]
    n_hits = sum(hit is not None for hit in together)
    assert 0 < n_hits < len(seeds) - 2
    for k, hit in enumerate(together):
        alone, = _hunt_degenerate(quartic, xa[k:k + 1], xb[k:k + 1], seeds[k:k + 1], y_lo, y_hi)
        assert _same_hit(hit, alone), k
    perm = np.random.default_rng(5).permutation(len(seeds))
    permuted = _hunt_degenerate(quartic, xa[perm], xb[perm], seeds[perm], y_lo, y_hi)
    assert all(_same_hit(permuted[t], together[k]) for t, k in enumerate(perm))


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
        return y[..., 0] ** 4 + x[..., 0] * y[..., 0]

    def grad(x, y):
        yy = np.asarray(y, dtype=float)
        return 4.0 * yy ** 3 + x[..., :1]

    def hess(x, y):
        return (12.0 * np.asarray(y, dtype=float) ** 2)[..., None]

    def cross(x, y):  # d/dx (4 y^3 + x) = 1
        return np.ones(np.shape(y) + (1,))

    p = BilevelProblem(n=1, f=lambda x, y: y[..., 0], g=g, grad_y_g=grad,
                       hess_yy_g=hess, grad_x_grad_y_g=cross, y0=np.zeros(1), f_bar=10.0,
                       feasible_set=box_set([-1.0], [1.0]))
    rec = StationaryPointRecord(x=arr(0.0), y=arr(0.0), grad_norm=0.0,
                                lambda_min_abs=0.0, degenerate=True,
                                fold_class="undetermined")
    assert check_fold_conditions(p, rec) == NON_FOLD_DEGENERATE


def test_fold_conditions_require_degenerate_record(fold):
    rec = StationaryPointRecord(x=arr(0.75, 0.0), y=arr(0.385), grad_norm=0.0,
                                lambda_min_abs=0.42, degenerate=False,
                                fold_class=NONDEGENERATE)
    with pytest.raises(ValueError):
        check_fold_conditions(fold, rec)


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

@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distances_and_measures_equal_scipy_edt(data):
    # SciPy's Euclidean distance transform is the independent reference:
    # the running minimum must give the same bits, and so the same measures
    r1, r2 = data.draw(st.integers(1, 40), label="r1"), data.draw(st.integers(1, 40), label="r2")
    indicator = data.draw(arrays(bool, (r1, r2)), label="indicator")
    indicator[data.draw(st.integers(0, r1 - 1)), data.draw(st.integers(0, r2 - 1))] = True
    w1 = data.draw(st.floats(1e-3, 10.0), label="w1")
    w2 = data.draw(st.floats(1e-3, 10.0).filter(lambda w: w != w1), label="w2")
    ref = ndimage.distance_transform_edt(~indicator, sampling=(w1, w2))
    assert np.array_equal(distance_to_marked(indicator, (w1, w2)), ref)
    scan = BifurcationScan(grid_resolution=r1, indicator=indicator, lambda_min_grid=None,
                           branch_points=[], bbox=None, cell_size=(w1, w2))
    deltas = [0.0] + sorted(set(ref.ravel().tolist()))[:8]
    assert neighborhood_measure(scan, deltas) == [
        (d, float(np.count_nonzero(ref <= d) * (w1 * w2))) for d in deltas]


def test_tube_measure_around_fold_line(fold_scan):
    (delta, measure), = neighborhood_measure(fold_scan, [0.1])
    # tube of half-width 0.1 around the segment {x1 = 1/2} x [-1, 1]
    assert measure == pytest.approx(2 * 0.1 * 2.0, rel=0.2)


def test_tube_measure_zero_delta(fold_scan):
    (_, measure), = neighborhood_measure(fold_scan, [0.0])
    w1, w2 = fold_scan.cell_size
    assert measure == pytest.approx(fold_scan.indicator.sum() * w1 * w2, rel=1e-12)


def test_tube_measure_monotone(fold_scan):
    out = neighborhood_measure(fold_scan, [0.02, 0.05, 0.1, 0.2, 0.4])
    measures = [m for _, m in out]
    assert all(b >= a for a, b in zip(measures, measures[1:]))


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
