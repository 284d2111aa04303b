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
from scinbio import geometry
from scinbio.geometry import (FOLD, NON_FOLD_DEGENERATE, BifurcationScan, Points,
                              _cell_roots, _grid_signs, _hunt_degenerate, _hunt_lanes,
                              degeneracy_threshold, distance_to_marked)
from scinbio.problems import batch_shape


def arr(*vals):
    return np.array([float(v) for v in vals])


def is_degenerate(lam):
    return np.abs(lam) < degeneracy_threshold(lam)


# ---------------------------------------------------------------------------
# 1-d stationary-point finder
# ---------------------------------------------------------------------------

def test_fold_family_two_branches(fold):
    roots = find_stationary_points_1d(fold, arr(0.75, 0.0), (-1.0, 1.0), 2000)
    ys = sorted(roots.y.tolist())
    ref = math.sqrt((2 * 0.75 - 1) / (9 * 0.75 - 6 * 0.75 ** 2))
    assert len(ys) == 2
    assert ys[0] == pytest.approx(-ref, abs=1e-3)
    assert ys[1] == pytest.approx(+ref, abs=1e-3)
    assert not is_degenerate(roots.lam).any()


def test_fold_family_no_roots_before_fold(fold):
    roots = find_stationary_points_1d(fold, arr(0.3, 0.0), (-0.3, 0.3), 2000)
    assert roots.y.size == 0


def test_double_well_three_roots(double_well):
    roots = find_stationary_points_1d(double_well, arr(0.0), (-2.0, 2.0), 2000)
    ys = sorted(roots.y.tolist())
    assert np.allclose(ys, [-1.0, 0.0, 1.0], atol=1e-10)
    lams = sorted(np.abs(roots.lam).tolist())
    assert np.allclose(lams, [4.0, 8.0, 8.0], atol=1e-8)
    assert not is_degenerate(roots.lam).any()


def test_lockstep_polish_keeps_lanes_independent(double_well):
    # with 15 grid points on [-2, 2] at x = 0, y = 0 is a grid zero, y = -1
    # the first bisection midpoint of its bracket, and y = 1, whose midpoint
    # rounds below it, is reached by Newton: lanes that end at different
    # steps.  Each cell's roots must be the bits of that cell polished alone.
    xs = np.array([[0.0], [0.3], [-0.55], [1e-3]])
    together = _cell_roots(double_well, xs, (-2.0, 2.0), 15)
    assert together.y[together.cell == 0].tolist() == [-1.0, 0.0, 1.0]
    for c, x in enumerate(xs):
        alone = find_stationary_points_1d(double_well, x, (-2.0, 2.0), 15)
        assert alone.y.size == 3
        mine = together.cell == c
        assert list(zip(together.y[mine].tolist(), np.abs(together.grad[mine]).tolist(),
                        np.abs(together.lam[mine]).tolist())) == list(zip(
            alone.y.tolist(), np.abs(alone.grad).tolist(), np.abs(alone.lam).tolist()))


def _product_rule(vals):
    """Grid zeros and brackets of vals (C, R) as the scan first found them:
    from the product of every neighbor pair."""
    r = vals.shape[1]
    zeros = np.divmod(np.flatnonzero(vals == 0.0), r)
    c, k = np.divmod(np.flatnonzero(vals[:, :-1] * vals[:, 1:] < 0.0), r - 1)
    return zeros, (c, k, vals[c, k])


def _assert_same_hits(vals):
    with np.errstate(all="ignore"):
        got, want = _grid_signs(vals), _product_rule(vals)
    for g, w in zip(got[0] + got[1], want[0] + want[1]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    return got


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("rows", [
    [[0.0, -0.0, 1.0, -1.0]],
    [[1.0, -1.0, 2.0, -3.0], [-0.5, -0.5, 0.5, 0.25]],    # no zero in the chunk
    [[1.0, 0.0, 0.0, 0.0, -1.0, 0.0, -0.0, 2.0]],         # runs of zeros
    [[_NAN, -1.0, _INF, -_INF, 0.0, -2.0, _NAN, _NAN]],
    [[-_INF, _INF, -0.0, _INF, 0.0, -_INF, 3.0, _NAN]],
    [[1e-200, -1e-200, 1e-200], [-1e-200, 1e-100, -1e-300]],
    [[1.0], [-0.0], [_NAN]],                               # one column
    [[1.0, -2.0], [0.0, -0.0], [-_INF, _NAN]],             # two columns
    np.empty((0, 5)),
])
def test_grid_signs_equal_product_rule(rows):
    _assert_same_hits(np.array(rows, dtype=float))


def test_grid_signs_drop_underflowing_products():
    # opposite signs whose product underflows to -0.0 bracket nothing
    (zc, _), (c, k, fa) = _assert_same_hits(np.array([[1e-200, -1e-200, -1.0, 1.0]]))
    assert zc.size == 0 and c.tolist() == [0] and k.tolist() == [2] and fa.tolist() == [-1.0]


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 6), st.integers(1, 9)),
              elements=st.floats() | st.sampled_from([0.0, -0.0, 1e-200, -1e-200])))
def test_grid_signs_equal_product_rule_on_any_array(vals):
    _assert_same_hits(vals)


def test_roots_satisfy_gradient_tolerance(quartic):
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-4, 5, size=2)
        roots = find_stationary_points_1d(quartic, x, (-250.0, 250.0), 3000)
        assert roots.y.size  # coercive quartic always has a stationary point
        for y in roots.y.tolist():
            gv = float(quartic.grad_y_g(x[None, :], arr(y))[0])
            assert abs(gv) <= 1e-10 * (1.0 + abs(y))


def test_finder_validates_inputs(fold, minimax):
    with pytest.raises(ValueError):
        find_stationary_points_1d(fold, arr(0.5, 0.0), (-1, 1), 1)


def test_branch_continuity(fold):
    # upper branch sweeps continuously in x1 (implicit-function regime)
    xs = np.arange(0.55, 1.0, 1e-3)
    prev = None
    for x1 in xs:
        roots = find_stationary_points_1d(fold, arr(x1, 0.0), (0.0, 1.0), 500)
        assert roots.y.size == 1
        y = roots.y[0]
        if prev is not None:
            # local slope of sqrt((2x-1)/(9x-6x^2)) stays below ~10 on [0.55, 1]
            assert abs(y - prev) <= 10.0 * 1e-3 * 10.0
        prev = y


def test_fold_eigenvalue_sqrt_scaling(fold):
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    lams = []
    for d in deltas:
        roots = find_stationary_points_1d(fold, arr(0.5 + d, 0.0), (-1.0, 1.0), 4000)
        assert roots.y.size
        lams.append(np.abs(roots.lam).min())
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
    # indicator implies a degenerate point in the cell
    points = fold_scan.points
    assert is_degenerate(points.lam).all()
    assert points.y.size >= 150
    for x, y in zip(points.x[:20].tolist(), points.y[:20].tolist()):
        assert abs(x[0] - 0.5) <= 1e-6
        assert abs(y) <= 1e-6


def test_scan_indicator_backed_by_degenerate_records(fold_scan):
    lo, hi = fold_scan.bbox
    w1, w2 = fold_scan.cell_size
    r = fold_scan.grid_resolution
    cells_with_degenerate = set()
    points = fold_scan.points
    for x in points.x[is_degenerate(points.lam)].tolist():
        i = min(int((x[0] - lo[0]) / w1), r - 1)
        j = min(int((x[1] - lo[1]) / w2), r - 1)
        cells_with_degenerate.add((i, j))
    for i, j in zip(*np.nonzero(fold_scan.indicator)):
        assert (i, j) in cells_with_degenerate


def test_scan_requires_2d(double_well):
    with pytest.raises(ValueError):
        scan_bifurcation_set(double_well, 10, (-1, 1), 50)


def test_nondegenerate_problem_unmarked():
    # g = (y - x1)^2 / 2: unique stationary point with lambda = 1 everywhere
    def g(x, y):
        return 0.5 * (y - x[..., 0]) ** 2

    def grad(x, y):
        return y - x[..., 0]

    def hess(x, y):
        return np.ones(batch_shape(x, y))

    def cross(x, y):
        return np.broadcast_to([-1.0, 0.0], batch_shape(x, y) + (2,)).copy()

    p = BilevelProblem(n=2, f=lambda x, y: y, g=g, grad_y_g=grad,
                       hess_yy_g=hess, grad_x_grad_y_g=cross, y0=0.0, f_bar=5.0,
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
    zero = np.zeros(len(corners))
    c3 = quartic.grad_y_g(corners, zero)               # dg/dy at y = 0
    c2 = 0.5 * quartic.hess_yy_g(corners, zero)        # d2g/dy2 / 2 at y = 0
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
                         [("fold", (-1.0, 1.0), 400), ("quartic", (-250.0, 250.0), 2000),
                          ("quartic", (-400.0, 300.0), 1400)])
def test_scan_roots_equal_single_cell_roots(request, name, y_range, y_resolution):
    # the scan polishes all cells' brackets in one lockstep call; each cell's
    # root columns must be the bits of find_stationary_points_1d at that
    # cell's center, and its points the degenerate ones of those, then the
    # hunted degenerate points
    problem = request.getfixturevalue(name)
    scan = scan_bifurcation_set(problem, 12, y_range, y_resolution)
    c1, c2 = scan.cell_centers()
    alone = [(c, [a, b], y, abs(g), abs(lam))
             for c, (a, b) in enumerate((a, b) for a in c1 for b in c2)
             for _, y, g, lam in zip(*(column.tolist() for column in find_stationary_points_1d(
                 problem, arr(a, b), y_range, y_resolution)))]
    assert len(alone) >= 144
    roots = scan.roots
    assert list(zip(roots.cell.tolist(), roots.y.tolist(), np.abs(roots.grad).tolist(),
                    np.abs(roots.lam).tolist())) == [
        (c, y, g, lam) for c, _, y, g, lam in alone]
    degenerate = [ref[1:] for ref in alone if ref[4] < degeneracy_threshold(ref[4])]
    points = scan.points
    assert is_degenerate(points.lam).all()
    for point, ref in zip(zip(points.x.tolist(), points.y.tolist(), np.abs(points.grad).tolist(),
                              np.abs(points.lam).tolist()), degenerate):
        assert point == ref


@pytest.mark.parametrize("oracle", ["grad_y_g", "hess_yy_g"])
def test_scan_rejects_oracle_off_lane_convention(fold, oracle):
    # an oracle that ignores the lane axis is named with the expected shape
    # (grad_y_g meets it first on the grid phase's (C, 1, 2) x (1, R)
    # batch, hess_yy_g on lanes)
    single = {"grad_y_g": lambda x, y: np.array(0.5),
              "hess_yy_g": lambda x, y: np.array(1.0)}[oracle]
    expected = {"grad_y_g": r"\(16, 50\)", "hess_yy_g": r"\(\d+,\)"}[oracle]
    bad = dataclasses.replace(fold, **{oracle: single})
    with pytest.raises(ValueError, match=rf"{oracle} returned shape .* expects {expected}$"):
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


@pytest.mark.parametrize("name, y_range, y_resolution, n_roots, n_records, digest, "
                         "points_digest", [
    ("fold", (-1.0, 1.0), 400, 5184, 72,
     "e31343b59c86b1fcafe39236f2821b969ffa8fd192753d8f632e59b60d492d4f",
     "0661dd62eeb44968d0c939795e01ac3b322eb319786c143299a1adba33eb19ea"),
    ("quartic", (-250.0, 250.0), 2000, 6054, 252,
     "241060cb704f1f8c2fcc530b1c0f12effcdecd4da693be5530b39c2aa6b26fd9",
     "3f27f50c34078248060f21a77373d726719afa88a532e15c10ffaa9b8c84b3fc"),
], ids=["fold", "quartic"])
def test_scan_lambda_grid_and_records_pinned_at_72(request, name, y_range, y_resolution,
                                                   n_roots, n_records, digest, points_digest):
    # sha256 of the 72^2 lambda_min_grid as the scan computed it while it
    # kept one record per root; records exist for the degenerate points only
    problem = request.getfixturevalue(name)
    scan = scan_bifurcation_set(problem, 72, y_range, y_resolution)
    assert hashlib.sha256(scan.lambda_min_grid.tobytes()).hexdigest() == digest
    assert scan.roots.y.size == n_roots
    points = scan.points
    assert points.y.size == n_records
    assert is_degenerate(points.lam).all()
    # sha256 of the points in order, each as the bytes of x, y, then
    # [|grad_y g|, |d2g/dy2|], as the scan recorded them one object per point
    rows = np.column_stack([points.x, points.y, np.abs(points.grad), np.abs(points.lam)])
    assert hashlib.sha256(rows.tobytes()).hexdigest() == points_digest
    # the paper's assumption holds on them: every one is a fold point
    assert check_fold_conditions(problem, points).tolist() == [FOLD] * n_records


def _scan_bytes(scan):
    """The bytes of a scan's roots, lambda grid, indicator and points."""
    return ([column.tobytes() for column in scan.roots], scan.lambda_min_grid.tobytes(),
            scan.indicator.tobytes(), [column.tobytes() for column in scan.points])


@pytest.mark.parametrize("name, y_range, y_resolution", [
    ("fold", (-1.0, 1.0), 400), ("quartic", (-250.0, 250.0), 2000)], ids=["fold", "quartic"])
def test_scan_is_independent_of_the_lane_budget(request, monkeypatch, name, y_range,
                                                y_resolution):
    # the grid phase's batch size moves no bit: 1 << 10 lanes is one quartic
    # cell (two fold cells) per grid call, 1 << 20 is 524 quartic cells and
    # the whole fold scan in one call
    problem = request.getfixturevalue(name)

    def scan_bytes(budget):
        monkeypatch.setattr("scinbio.geometry._LANE_BUDGET", budget)
        return _scan_bytes(scan_bifurcation_set(problem, 24, y_range, y_resolution))

    default = scan_bytes(geometry._LANE_BUDGET)
    assert default[3][1] and default[2].count(1) > 0
    for budget in (1 << 10, 1 << 20):
        assert scan_bytes(budget) == default, budget


def _cell_centers(problem, r):
    """The scan's r x r cell centers as parameter rows, cell (i, j) at i r + j."""
    lo, hi = problem.feasible_set.bbox
    c1, c2 = (lo[a] + (np.arange(r) + 0.5) * ((hi[a] - lo[a]) / r) for a in (0, 1))
    return np.column_stack([np.repeat(c1, r), np.tile(c2, r)])


@pytest.mark.parametrize("resolution", [2, 3, 2000])
@pytest.mark.parametrize("y_range", [(-250.0, 250.0), (-3.0, 7.0), (100.0, 250.0),
                                     (240.0, 250.0)])
def test_root_window_keeps_every_bit(quartic, y_range, resolution):
    # the grid phase evaluates the quartic only inside its root bound; every
    # column of the roots must be the bits of the full grid's
    xs = _cell_centers(quartic, 72)
    windowed = _cell_roots(quartic, xs, y_range, resolution)
    full = _cell_roots(dataclasses.replace(quartic, grad_y_root_bound=None), xs, y_range,
                       resolution)
    for a, b in zip(windowed, full):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_root_window_scan_keeps_every_bit(quartic):
    def scan_bytes(problem):
        return _scan_bytes(scan_bifurcation_set(problem, 24, (-250.0, 250.0), 2000))

    windowed = scan_bytes(quartic)
    assert windowed[2].count(1) > 0
    assert windowed == scan_bytes(dataclasses.replace(quartic, grad_y_root_bound=None))


def _shifted_line(tight):
    """grad_y g = y - x1 with the tight root bound nextafter(|x1|, inf), or none."""
    def g(x, y):
        return 0.5 * y * y - x[..., 0] * y

    def grad(x, y):
        return y - x[..., 0]

    def hess(x, y):
        return np.ones(batch_shape(x, y))

    def cross(x, y):
        return np.full(batch_shape(x, y) + (1,), -1.0)

    bound = (lambda x: np.nextafter(np.abs(x[..., 0]), np.inf)) if tight else None
    return BilevelProblem(n=1, f=lambda x, y: y, g=g, grad_y_g=grad, hess_yy_g=hess,
                          grad_x_grad_y_g=cross, y0=0.0, f_bar=10.0,
                          feasible_set=box_set([-10.0], [10.0]), grad_y_root_bound=bound)


@pytest.mark.parametrize("a", [3.5, -3.5, 3.25, -9.5])
def test_root_window_keeps_a_root_beyond_its_last_inner_column(a):
    # on the grid -10, -9, ..., 10 the window of R = nextafter(|a|, inf)
    # holds the columns with |y| < R; the root a lies between the last of
    # them and the first column outside, which the window must still evaluate
    tight = find_stationary_points_1d(_shifted_line(True), arr(a), (-10.0, 10.0), 21)
    full = find_stationary_points_1d(_shifted_line(False), arr(a), (-10.0, 10.0), 21)
    assert tight.y.tolist() == [a]
    for c, d in zip(tight, full):
        assert c.tobytes() == d.tobytes()


def test_root_window_not_finite_scans_the_full_grid(quartic):
    # a bound that is NaN or infinite on some cell makes no claim there: the
    # chunk that holds that cell is scanned whole
    xs = _cell_centers(quartic, 8)
    full = _cell_roots(dataclasses.replace(quartic, grad_y_root_bound=None), xs,
                       (-250.0, 250.0), 500)
    for bad in (np.nan, np.inf):
        def bound(x, bad=bad):
            return np.where(x[..., 0] > 0.0, bad, 1.0)
        odd = dataclasses.replace(quartic, grad_y_root_bound=bound)
        for c, d in zip(_cell_roots(odd, xs, (-250.0, 250.0), 500), full):
            assert c.tobytes() == d.tobytes()


def _hits_by_lane(hunt):
    """{lane: the bytes of x*, y*, gradient and Hessian} of a hunt's hits."""
    lane, *columns = hunt
    return {t: b"".join(c[k].tobytes() for c in columns) for k, t in enumerate(lane.tolist())}


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
    together = _hits_by_lane(_hunt_degenerate(quartic, xa, xb, seeds, y_lo, y_hi))
    assert len(seeds) - 2 not in together and len(seeds) - 1 not in together
    assert 0 < len(together) < len(seeds) - 2
    for k in range(len(seeds)):
        alone = _hunt_degenerate(quartic, xa[k:k + 1], xb[k:k + 1], seeds[k:k + 1], y_lo, y_hi)
        assert _hits_by_lane(alone) == ({0: together[k]} if k in together else {}), k
    perm = np.random.default_rng(5).permutation(len(seeds))
    permuted = _hunt_degenerate(quartic, xa[perm], xb[perm], seeds[perm], y_lo, y_hi)
    assert _hits_by_lane(permuted) == {t: together[k] for t, k in enumerate(perm.tolist())
                                       if k in together}


# ---------------------------------------------------------------------------
# fold conditions
# ---------------------------------------------------------------------------

def point(x, y, lam=0.0):
    """One stationary point as Points columns, with grad_y g = 0."""
    return Points(np.array([x], dtype=float), arr(y), arr(0.0), arr(lam))


def test_fold_conditions_on_fold_family(fold):
    assert check_fold_conditions(fold, point([0.5, 0.0], 0.0)).tolist() == [FOLD]


def cusp_like_problem():
    """g = y^4 + x y: third derivative along the null direction vanishes at y = 0."""
    def g(x, y):
        return y ** 4 + x[..., 0] * y

    def grad(x, y):
        return 4.0 * y ** 3 + x[..., 0]

    def hess(x, y):
        return np.broadcast_to(12.0 * y ** 2, batch_shape(x, y))

    def cross(x, y):  # d/dx (4 y^3 + x) = 1
        return np.ones(batch_shape(x, y) + (1,))

    return BilevelProblem(n=1, f=lambda x, y: y, g=g, grad_y_g=grad,
                          hess_yy_g=hess, grad_x_grad_y_g=cross, y0=0.0, f_bar=10.0,
                          feasible_set=box_set([-1.0], [1.0]))


def test_fold_conditions_reject_cusp_like():
    assert check_fold_conditions(cusp_like_problem(), point([0.0], 0.0)).tolist() == [
        NON_FOLD_DEGENERATE]


def test_fold_conditions_require_degenerate_record(fold):
    with pytest.raises(ValueError):
        check_fold_conditions(fold, point([0.75, 0.0], 0.385, lam=0.42))


def test_scanned_fold_points_classify_as_folds(fold, fold_scan):
    points = fold_scan.points
    assert is_degenerate(points.lam).all()
    assert check_fold_conditions(fold, Points(*(c[::40] for c in points))).tolist() == (
        [FOLD] * len(points.y[::40]))


def test_fold_conditions_batch_equals_single_points(fold):
    # one problem holding both kinds of point: the fold family, and at
    # x1 < 0 the cusp-like g = y^4 + x2 y, whose point x = (-1, 0), y = 0 is
    # the cusp-like one of the test above with x2 as its parameter
    cusp = cusp_like_problem()

    def g(x, y):
        return np.where(x[..., 0] < 0, cusp.g(x[..., 1:], y), fold.g(x, y))

    def cross(x, y):
        return np.where((x[..., 0] < 0)[..., None], [0.0, 1.0],
                        fold.grad_x_grad_y_g(x, y))

    mixed = dataclasses.replace(fold, g=g, grad_x_grad_y_g=cross)
    folds = scan_bifurcation_set(fold, 72, (-1.0, 1.0), 400).points
    assert folds.y.size == 72
    both = Points(*(np.concatenate([c[:30], p, c[30:]])
                    for c, p in zip(folds, point([-1.0, 0.0], 0.0))))
    labels = check_fold_conditions(mixed, both)
    assert labels.tolist() == [FOLD] * 30 + [NON_FOLD_DEGENERATE] + [FOLD] * 42
    for k in range(labels.size):
        alone = Points(*(c[k:k + 1] for c in both))
        assert check_fold_conditions(mixed, alone).tolist() == [labels[k]]
    perm = np.random.default_rng(2).permutation(labels.size)
    assert np.array_equal(check_fold_conditions(mixed, Points(*(c[perm] for c in both))),
                          labels[perm])
    one_nondegenerate = Points(*map(np.concatenate, zip(both, point([0.75, 0.0], 0.385, 0.42))))
    with pytest.raises(ValueError, match="degenerate"):
        check_fold_conditions(mixed, one_nondegenerate)


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
                           points=None, roots=None, bbox=None, cell_size=(w1, w2))
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
