"""Degenerate-stationary-point diagnostics for the one-dimensional lower level.

A parameter x is a bifurcation parameter when g(x, .) has a stationary point
with singular Hessian; there stationary branches merge, appear, or vanish.
Grid sampling alone cannot land on such measure-zero parameters, so the
scanner localizes them: wherever the stationary-root count changes between
neighboring grid cells (or a root's curvature collapses), a two-variable
Newton iteration solves  grad_y g = 0, d2g/dy2 = 0  along the connecting
segment and pins the degenerate point to machine precision.

The scan runs on lanes in four phases: each oracle call hands `call_oracle`
the lanes' x (..., n) and y of their batch shape (the lane convention of
scinbio.problems) and gets values of that shape back.  The first three find
the stationary roots of all cells together:

1. grad_y g on every cell's y-grid, whole cells per oracle call up to a fixed
   lane budget (32 quartic cells of 2,000 points, 163 fold cells of 400), so
   memory stays flat whatever the resolution and each call's arrays stay in
   cache; the cells' parameters go in as (C, 1, n) against the shared grid
   as (1, R), so the oracle computes each cell's x-only terms once.  A
   problem that declares grad_y_root_bound has each call evaluate only the
   grid columns with |y| below the chunk's largest bound, plus the nearest
   column beyond it on each side: outside, grad_y g is nonzero with the
   sign of y, so the zeros and brackets are the full grid's, bit for bit
   (the quartic's 72^2 and 300^2 scans evaluate 37 % and 26 % of their
   grids).  The brackets are found from one sign byte per grid point, and
   the product of a neighbor pair is taken only where their sign bits
   differ;
2. every sign-change bracket of the scan polished in one lockstep call:
   12 bisections, then guarded Newton with a bisection fallback, each lane
   taking exactly the steps it would take alone, and the oracles called on
   the lanes still iterating only;
3. grid zeros and polished roots sorted by (cell, y) and merged, and every
   candidate re-checked with one grad_y g and one hess_yy g lane call.  The
   roots stay columns (cell, y, grad_y g, d2g/dy2), never per-root objects.

find_stationary_points_1d is the same finder run on one cell.  The fourth
phase hunts the degenerate points:

4. every neighbor pair whose root counts differ, times each collision seed of
   that pair, is one lane of a single lockstep 2 x 2 Newton iteration.  Each
   lane again takes exactly the steps it would take alone (a singular
   Jacobian ends only its own lane), and the hits are then taken in scan
   order, the first of each pair, so the points come out as if the pairs
   were hunted one at a time.

A scan keeps its degenerate points as columns too (Points): the degenerate
grid roots, then the hunted hits.  check_fold_conditions classifies them all.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problems import call_oracle

__all__ = [
    "Points", "BifurcationScan", "DimensionEstimate",
    "find_stationary_points_1d", "scan_bifurcation_set",
    "check_fold_conditions", "box_counting_dimension", "neighborhood_measure",
    "distance_to_marked",
    "degeneracy_threshold",
]

FOLD = "fold"
NON_FOLD_DEGENERATE = "non_fold_degenerate"
UNDETERMINED = "undetermined"

TAU_FOLD = 1e-4


def degeneracy_threshold(hess_scale):
    """tau_det = 1e-6 (1 + |hess|): scale-relative singularity cutoff."""
    return 1e-6 * (1.0 + abs(hess_scale))


class Roots(NamedTuple):
    """Stationary roots as columns sorted by (cell, y): the index of each
    root's cell (its parameter row), y, grad_y g and d2g/dy2 there."""
    cell: np.ndarray
    y: np.ndarray
    grad: np.ndarray
    lam: np.ndarray


class Points(NamedTuple):
    """Stationary points as columns: x (P, n), y, grad_y g and d2g/dy2 (P,)."""
    x: np.ndarray
    y: np.ndarray
    grad: np.ndarray
    lam: np.ndarray


@dataclass
class BifurcationScan:
    grid_resolution: int
    indicator: np.ndarray        # (R, R) bool, True = degenerate point located in cell
    lambda_min_grid: np.ndarray  # (R, R) min |lambda| over the cell's roots (nan if none)
    points: Points               # degenerate grid roots, then the first hit of each pair
    roots: Roots                 # every cell's roots; cell (i, j) has index i R + j
    bbox: tuple
    cell_size: tuple

    def cell_centers(self):
        """The points the scan evaluated: per axis, lo + (k + 0.5) ((hi - lo) / R)."""
        lo, r = self.bbox[0], self.grid_resolution
        return tuple(lo[a] + (np.arange(r) + 0.5) * self.cell_size[a] for a in (0, 1))

    def marked_centers(self):
        c1, c2 = self.cell_centers()
        ii, jj = np.nonzero(self.indicator)
        return np.column_stack([c1[ii], c2[jj]])


@dataclass
class DimensionEstimate:
    radii: list
    counts: list
    slope: float
    d_hat: float
    r_squared_fit: float
    determined: bool = True


# ---------------------------------------------------------------------------
# Stationary-point location
# ---------------------------------------------------------------------------

# Lanes per oracle call when evaluating the cells' y-grids.  It caps each
# (C, R) array of the grid phase at 512 KiB of float64, so a scan's memory
# stays flat whatever its resolution and a call's few such arrays stay in a
# 2 MiB per-core L2 cache.  Quartic 300^2 scan, best of 3 on a 2-core Xeon, at
# 1 << 12 ... 1 << 18: 2.76, 2.05, 1.43, 1.17, 1.10, 1.11, 1.19 s.
_LANE_BUDGET = 1 << 16

def _polish(problem, x, a, b, fa):
    """Roots of the sign changes bracketed by [a, b] at the parameters x, all
    brackets in lockstep: 12 bisections, then guarded Newton with a bisection
    fallback.  Each lane takes exactly the steps it would take alone; the
    oracles see only the lanes still iterating.  a, b and fa are updated in
    place; fb is never consulted, since fa * fb < 0 leaves both nonzero."""
    y = np.empty_like(a)
    live = np.arange(a.size)
    for _ in range(12):
        mid = 0.5 * (a[live] + b[live])
        fm = call_oracle(problem, "grad_y_g", x[live], mid)
        left = (fa[live] < 0) == (fm < 0)
        a[live[left]], fa[live[left]] = mid[left], fm[left]
        b[live[~left]] = mid[~left]
        y[live] = mid
        live = live[fm != 0.0]
        if live.size == 0:
            return y
    y[live] = 0.5 * (a[live] + b[live])
    for _ in range(40):
        fy = call_oracle(problem, "grad_y_g", x[live], y[live])
        far = ~(np.abs(fy) <= 1e-12 * (1.0 + np.abs(y[live])))
        live, fy = live[far], fy[far]
        if live.size == 0:
            break
        yl = y[live]
        hy = call_oracle(problem, "hess_yy_g", x[live], yl)
        with np.errstate(divide="ignore", invalid="ignore"):
            y_new = yl - fy / hy
        newton = (hy != 0.0) & (a[live] <= y_new) & (y_new <= b[live])
        y[live[newton]] = y_new[newton]
        # Newton left the bracket or curvature vanished: one bisection step
        left = ~newton & ((fa[live] < 0) == (fy < 0))
        right = ~newton & ~left
        a[live[left]], fa[live[left]] = yl[left], fy[left]
        b[live[right]] = yl[right]
        al, bl = a[live], b[live]
        wide = bl - al > 4.0 * np.spacing(np.maximum(np.maximum(np.abs(al), np.abs(bl)), 1.0))
        step = ~newton & wide
        y[live[step]] = 0.5 * (al[step] + bl[step])
        live = live[newton | wide]
    return y


_EMPTY_INDEX = np.empty(0, dtype=np.intp)


def _grid_signs(vals):
    """The grid zeros (cell, k) of vals (C, R), and its brackets (cell, k, fa):
    the k with vals[cell, k] * vals[cell, k + 1] < 0, fa = vals[cell, k].
    Both come in row-major order, as np.nonzero gives them; its 2-d path
    costs several times the flat search.

    Only neighbors whose sign bits differ can have a negative product, so the
    product is taken on those candidates alone, and it still decides: one
    that underflows to -0.0, or that a zero or a NaN makes zero or NaN,
    brackets nothing.  Most chunks hold no exact zero; vals.all() skips their
    search.
    """
    r = vals.shape[1]
    zeros = (_EMPTY_INDEX,) * 2 if vals.all() else np.divmod(np.flatnonzero(vals == 0.0), r)
    neg = np.signbit(vals)
    c, k = np.divmod(np.flatnonzero(neg[:, :-1] != neg[:, 1:]), r - 1)
    fa = vals[c, k]
    bracket = fa * vals[c, k + 1] < 0.0
    return zeros, (c[bracket], k[bracket], fa[bracket])


def _cell_roots(problem, xs, y_range, resolution) -> Roots:
    """The stationary points on y_range at each parameter row of xs (C, n),
    in the three phases of the module docstring."""
    lo, hi = float(y_range[0]), float(y_range[1])
    ys = np.linspace(lo, hi, resolution)
    per_call = max(1, _LANE_BUDGET // resolution)
    bound = problem.grad_y_root_bound
    radius = None if bound is None else bound(xs)
    zero_cell, zero_y, br_cell, br_k, br_fa = [], [], [], [], []
    for c0 in range(0, xs.shape[0], per_call):
        # the columns with |y| < rmax and the nearest one beyond on each side,
        # at least two; the columns left out hold no zero and no sign change
        start, stop = 0, resolution
        rmax = np.inf if radius is None else radius[c0:c0 + per_call].max()
        if np.isfinite(rmax):
            stop = min(int(np.searchsorted(ys, rmax)) + 1, resolution)
            start = max(0, min(int(np.searchsorted(ys, -rmax, side="right")) - 1, stop - 2))
            stop = max(stop, start + 2)
        vals = call_oracle(problem, "grad_y_g", xs[c0:c0 + per_call, None, :],
                           ys[None, start:stop])
        (zc, zk), (c, k, fa) = _grid_signs(vals)
        zero_cell.append(zc + c0)
        zero_y.append(ys[zk + start])
        br_cell.append(c + c0)
        br_k.append(k + start)
        br_fa.append(fa)
    br_cell, br_k = np.concatenate(br_cell), np.concatenate(br_k)
    polished = _polish(problem, xs[br_cell], ys[br_k], ys[br_k + 1], np.concatenate(br_fa))

    # grid zeros ahead of polished roots, as a stable sort within each cell
    cell = np.concatenate(zero_cell + [br_cell])
    y = np.concatenate(zero_y + [polished])
    order = np.lexsort((y, cell))
    cell, y = cell[order], y[order]
    # a root less than min_gap above the last root kept in its cell merges
    # into it; only a run of such close roots needs the loop
    min_gap = (hi - lo) / (10.0 * resolution)
    keep = np.ones(y.size, dtype=bool)
    keep[1:] = (cell[1:] != cell[:-1]) | (y[1:] - y[:-1] >= min_gap)
    for t in np.flatnonzero(~keep):
        k = t - 1
        while not keep[k]:
            k -= 1
        keep[t] = y[t] - y[k] >= min_gap
    cell, y = cell[keep], y[keep]
    gv = call_oracle(problem, "grad_y_g", xs[cell], y)
    lam = call_oracle(problem, "hess_yy_g", xs[cell], y)
    ok = ~(np.abs(gv) > 1e-10 * (1.0 + np.abs(y)))
    return Roots(cell[ok], y[ok], gv[ok], lam[ok])


def find_stationary_points_1d(problem, x, y_range, resolution) -> Roots:
    """Stationary points of g(x, .) on y_range via grid bracketing + polish,
    as the Roots of one cell: the cell column is all 0.

    Every reported root satisfies |grad_y g| <= 1e-10 (1 + |y|) on
    re-evaluation; roots closer than (hi - lo) / (10 resolution) are merged.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _cell_roots(problem, x[None, :], y_range, resolution)


# ---------------------------------------------------------------------------
# Degenerate-point localization (2-variable Newton along a parameter segment)
# ---------------------------------------------------------------------------

def _solve_2x2(J, rhs):
    """np.linalg.solve of each lane's 2 x 2 system J (P, 2, 2), rhs (P, 2),
    and which lanes it solved.  A stacked solve raises if any one J is
    singular; then each lane is solved alone, and a singular J fails only
    its own lane."""
    try:
        return np.linalg.solve(J, rhs[:, :, None])[:, :, 0], np.ones(len(J), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    step, ok = np.zeros_like(rhs), np.ones(len(J), dtype=bool)
    for t in range(len(J)):
        try:
            step[t] = np.linalg.solve(J[t], rhs[t])
        except np.linalg.LinAlgError:
            ok[t] = False
    return step, ok


def _hunt_degenerate(problem, xa, xb, y_seed, y_lo, y_hi):
    """Solve grad_y g = 0 = d2g/dy2 for (s, y) with x(s) = xa + s (xb - xa),
    one lane per row of xa, xb (P, n) and y_seed (P,), all lanes in lockstep.

    Returns the lanes that located a degenerate point, in lane order, and
    x_star (H, n), y_star, grad and hess (H,) there.  Each lane takes
    exactly the steps it would take alone, and the oracles see only the lanes
    still iterating.  Derivatives of the Hessian are central finite
    differences; the gradient's parameter derivative uses the
    cross-derivative oracle.
    """
    dx = xb - xa
    n_lanes = y_seed.shape[0]
    s, y = np.full(n_lanes, 0.5), y_seed.astype(float)
    y_span = y_hi - y_lo
    e = 1e-6
    converged = np.zeros(n_lanes, dtype=bool)
    live = np.arange(n_lanes)
    for _ in range(60):
        if live.size == 0:
            break
        k, sl, yl, xal, dxl = live.size, s[live], y[live], xa[live], dx[live]
        x = xal + sl[:, None] * dxl
        ey = 1e-6 * (1.0 + np.abs(yl))
        gv = call_oracle(problem, "grad_y_g", x, yl)
        dg_ds = (call_oracle(problem, "grad_x_grad_y_g", x, yl)[:, None, :]
                 @ dxl[:, :, None]).reshape(k)
        h = call_oracle(problem, "hess_yy_g",
                        np.concatenate([x, xal + (sl + e)[:, None] * dxl,
                                        xal + (sl - e)[:, None] * dxl, x, x]),
                        np.concatenate([yl, yl, yl, yl + ey, yl - ey])).reshape(5, k)
        hv = h[0]
        dh_ds = (h[1] - h[2]) / (2 * e)
        dh_dy = (h[3] - h[4]) / (2 * ey)
        J = np.stack([dg_ds, hv, dh_ds, dh_dy], axis=-1).reshape(k, 2, 2)
        step, solved = _solve_2x2(J, -np.stack([gv, hv], axis=-1))
        # clamp to keep the iteration near the segment and the scan window
        ds = np.clip(step[:, 0], -0.75, 0.75)
        dy = np.clip(step[:, 1], -0.5 * y_span, 0.5 * y_span)
        sl, yl = sl + ds, yl + dy
        s[live], y[live] = sl, yl
        inside = ((-0.6 <= sl) & (sl <= 1.6)
                  & (y_lo - 0.1 * y_span <= yl) & (yl <= y_hi + 0.1 * y_span))
        done = ((np.abs(ds) <= 1e-13 * (1.0 + np.abs(sl)))
                & (np.abs(dy) <= 1e-13 * (1.0 + np.abs(yl))))
        go_on = solved & inside
        converged[live[go_on & done]] = True
        live = live[go_on & ~done]
    hit = np.flatnonzero(converged)
    sh, yh = s[hit], y[hit]
    x = xa[hit] + sh[:, None] * dx[hit]
    gv = call_oracle(problem, "grad_y_g", x, yh)
    hv = call_oracle(problem, "hess_yy_g", x, yh)
    keep = ((np.abs(gv) <= 1e-9 * (1.0 + np.abs(yh)))
            & (np.abs(hv) < degeneracy_threshold(hv))
            & (-0.05 <= sh) & (sh <= 1.05))
    return hit[keep], x[keep], yh[keep], gv[keep], hv[keep]


def _hunt_lanes(roots, r, y_lo, y_hi, edge):
    """Lanes of the scan's degenerate-point hunt on an r x r grid, cell (i, j)
    at index i r + j: every neighbor pair whose root counts differ, the
    (i, i + 1) pairs first and then the (j, j + 1) pairs, times each seed of
    the cell with more roots.  A cell's seeds are the midpoints of its
    adjacent opposite-curvature root pairs, closest pair first, but not near
    the window edges (a root entering through the window boundary is not a
    bifurcation).  Returns each lane's pair index, both cells and its seed."""
    cell, y, lam = roots.cell, roots.y, roots.lam
    adj = np.flatnonzero((cell[1:] == cell[:-1]) & (lam[:-1] * lam[1:] < 0))
    owner, gap, mid = cell[adj], y[adj + 1] - y[adj], 0.5 * (y[adj] + y[adj + 1])
    order = np.lexsort((mid, gap, owner))
    order = order[(y_lo + edge <= mid[order]) & (mid[order] <= y_hi - edge)]
    owner, mid = owner[order], mid[order]
    n_seeds = np.bincount(owner, minlength=r * r)
    count = np.bincount(cell, minlength=r * r)
    index = np.arange(r * r).reshape(r, r)
    ca = np.concatenate([index[:-1].ravel(), index[:, :-1].ravel()])
    cb = np.concatenate([index[1:].ravel(), index[:, 1:].ravel()])
    pair = np.flatnonzero(count[ca] != count[cb])
    more = np.where(count[ca[pair]] > count[cb[pair]], ca[pair], cb[pair])
    k = n_seeds[more]
    # lane t of pair p takes seed t - (first lane of p) + (first seed of its cell)
    seed = np.arange(k.sum()) + np.repeat(np.cumsum(n_seeds)[more] - np.cumsum(k), k)
    pair = np.repeat(pair, k)
    return pair, ca[pair], cb[pair], mid[seed]


def scan_bifurcation_set(problem, grid_resolution, y_range, y_resolution) -> BifurcationScan:
    """Grid scan over a 2-d parameter box marking cells that contain a located
    degenerate stationary point; keeps the degenerate points it finds."""
    if problem.n != 2:
        raise ValueError("scanner requires n = 2")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    if y_resolution < 2:
        raise ValueError("y_resolution must be at least 2")
    lo, hi = (np.asarray(b, dtype=float) for b in problem.feasible_set.bbox)
    r = grid_resolution
    w = (hi - lo) / r
    c1, c2 = (lo[a] + (np.arange(r) + 0.5) * w[a] for a in (0, 1))
    y_lo, y_hi = float(y_range[0]), float(y_range[1])

    xs = np.column_stack([np.repeat(c1, r), np.tile(c2, r)])
    roots = _cell_roots(problem, xs, (y_lo, y_hi), y_resolution)
    lam_grid, indicator = np.full((r, r), np.nan), np.zeros((r, r), dtype=bool)
    np.fmin.at(lam_grid.reshape(-1), roots.cell, np.abs(roots.lam))
    degenerate = np.abs(roots.lam) < degeneracy_threshold(roots.lam)
    indicator.flat[roots.cell[degenerate]] = True

    # hunt for degenerate points wherever the root count changes between
    # neighboring cells (the measure-zero set a center grid cannot hit)
    edge = 2.0 * (y_hi - y_lo) / y_resolution
    pair, a, b, seeds = _hunt_lanes(roots, r, y_lo, y_hi, edge)
    lane, x_star, y_star, gv, hv = _hunt_degenerate(problem, xs[a], xs[b], seeds, y_lo, y_hi)
    # the merging pair need not be the closest one: a pair keeps the hit of
    # its first seed that located a degenerate point, and a point that
    # several pairs locate (equal to 1e-9) is kept at its first
    first = np.unique(pair[lane], return_index=True)[1]
    first = first[np.sort(np.unique(np.round(x_star[first] / 1e-9), axis=0,
                                    return_index=True)[1])]
    grid = Points(xs[roots.cell], *roots[1:])
    points = Points(*(np.concatenate([g[degenerate], h[first]])
                      for g, h in zip(grid, (x_star, y_star, gv, hv))))
    i, j = np.clip(((x_star[first] - lo) / w).astype(int), 0, r - 1).T
    indicator[i, j] = True
    return BifurcationScan(grid_resolution=r, indicator=indicator, lambda_min_grid=lam_grid,
                           points=points, roots=roots, bbox=(lo, hi),
                           cell_size=(float(w[0]), float(w[1])))


# ---------------------------------------------------------------------------
# Fold-condition classification
# ---------------------------------------------------------------------------

def check_fold_conditions(problem, points: Points) -> np.ndarray:
    """Classify degenerate stationary points against the three fold conditions:
    simple zero eigenvalue, transversal parameter dependence of the projected
    gradient, and nonzero third derivative along the null direction.  Returns
    one label per point, all P points checked in one call per oracle.

    For a one-dimensional follower a degenerate point's zero eigenvalue is
    its only one, so (1) holds, and the null direction is v = 1.  Finite
    differences cannot certify a value is nonzero, so values inside
    (tau_fold/10, tau_fold) return UNDETERMINED rather than a binary answer.
    """
    x, y, _, lam = points
    if not np.all(np.abs(lam) < degeneracy_threshold(lam)):
        raise ValueError("fold check requires degenerate points")

    # (2) parameter derivative of grad_y g
    c2_val = np.linalg.norm(call_oracle(problem, "grad_x_grad_y_g", x, y), axis=-1)

    # (3) third derivative in y, 5-point stencil
    h = TAU_FOLD * (1.0 + np.abs(y))
    p2, p1, m1, m2 = call_oracle(problem, "g", x, y + np.stack([2 * h, h, -h, -2 * h]))
    c3_val = np.abs((p2 - 2 * p1 + 2 * m1 - m2) / (2 * h ** 3))

    non_fold = (c2_val <= TAU_FOLD / 10) | (c3_val <= TAU_FOLD / 10)
    return np.where((c2_val >= TAU_FOLD) & (c3_val >= TAU_FOLD), FOLD,
                    np.where(non_fold, NON_FOLD_DEGENERATE, UNDETERMINED))


# ---------------------------------------------------------------------------
# Covering statistics
# ---------------------------------------------------------------------------

def box_counting_dimension(points, radii) -> DimensionEstimate:
    """Box-cover estimate of the Minkowski dimension: occupied axis-aligned
    boxes of side 2r at each radius, least-squares slope of log N vs -log r."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.size == 0:
        raise ValueError("points must be nonempty")
    radii = [float(r) for r in radii]
    if len(radii) < 2 or any(r <= 0 for r in radii):
        raise ValueError("need at least two positive radii")
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    origin = points.min(axis=0)
    counts = []
    for r in radii:
        cells = np.floor((points - origin) / (2.0 * r)).astype(np.int64)
        # a flag keeps np.unique off its masked-array check, which imports
        # numpy.ma (12-17 ms, 1.25 MiB) into every scan process
        counts.append(np.unique(cells, axis=0, return_index=True)[1].size)
    if len(set(counts)) < 2:
        return DimensionEstimate(radii, counts, float("nan"), float("nan"),
                                 float("nan"), determined=False)
    lx = np.log(np.asarray(radii))
    ly = np.log(np.asarray(counts, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    fit = slope * lx + intercept
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DimensionEstimate(radii, counts, float(slope), float(-slope), r2)


def distance_to_marked(indicator, cell_size):
    """Distance from each cell center to the nearest marked cell center, in the
    units of the cell size (w1, w2); a marked cell is at distance 0.

    Equals the Euclidean distance transform of ~indicator sampled at (w1, w2).
    It is a running minimum over the rows that hold marked cells, in O(R^2)
    memory.  Float addition and sqrt are monotone, so taking the minimum over
    a row's marked columns before adding the row offset, and over all rows
    before the sqrt, gives the bits of the elementwise minimum of the
    distances.
    """
    indicator = np.asarray(indicator, dtype=bool)
    w1, w2 = cell_size
    r1, r2 = indicator.shape
    cols = np.arange(r2)
    dist2 = np.full(indicator.shape, np.inf)
    for a in np.flatnonzero(indicator.any(axis=1)):
        dj = (cols[:, None] - np.flatnonzero(indicator[a])[None, :]).astype(float) * w2
        di = (np.arange(r1) - a).astype(float) * w1
        np.minimum(dist2, (di * di)[:, None] + (dj * dj).min(axis=1)[None, :], out=dist2)
    return np.sqrt(dist2)


def neighborhood_measure(scan: BifurcationScan, deltas):
    """Lebesgue measure estimates of the delta-neighborhoods of the marked set:
    the number of grid cells whose center lies within delta of the center of a
    marked cell, times the cell area.  Distances and delta are in the units of
    the scanned parameter box."""
    if not scan.indicator.any():
        raise ValueError("scan has no marked cells")
    w1, w2 = scan.cell_size
    dist = distance_to_marked(scan.indicator, scan.cell_size)
    area = w1 * w2
    out = []
    for d in deltas:
        out.append((float(d), float(np.count_nonzero(dist <= d) * area)))
    return out
