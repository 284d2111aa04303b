"""Degenerate-stationary-point diagnostics for the one-dimensional lower level.

A parameter x is a bifurcation parameter when g(x, .) has a stationary point
with singular Hessian; there stationary branches merge, appear, or vanish.
Grid sampling alone cannot land on such measure-zero parameters, so the
scanner localizes them: wherever the stationary-root count changes between
neighboring grid cells (or a root's curvature collapses), a two-variable
Newton iteration solves  grad_y g = 0, d2g/dy2 = 0  along the connecting
segment and pins the degenerate point to machine precision.

The scan runs on lanes (see the lane convention in scinbio.problems) in four
phases.  The first three find the stationary roots of all cells together:

1. grad_y g on every cell's y-grid, whole cells per oracle call up to a fixed
   lane budget, so memory stays flat whatever the resolution;
2. every sign-change bracket of the scan polished in one lockstep call:
   12 bisections, then guarded Newton with a bisection fallback, each lane
   taking exactly the steps it would take alone, and the oracles called on
   the lanes still iterating only;
3. per cell, grid zeros and polished roots sorted and merged, and every
   candidate re-checked with one grad_y g and one hess_yy g lane call.

find_stationary_points_1d is the same finder run on one cell.  The fourth
phase hunts the degenerate points:

4. every neighbor pair whose root counts differ, times each collision seed of
   that pair, is one lane of a single lockstep 2 x 2 Newton iteration.  Each
   lane again takes exactly the steps it would take alone (a singular
   Jacobian ends only its own lane), and the hits are then taken in scan
   order, the first of each pair, so the records come out as if the pairs
   were hunted one at a time.
"""

import itertools
from dataclasses import dataclass
from typing import List

import numpy as np

from .problems import call_oracle

__all__ = [
    "StationaryPointRecord", "BifurcationScan", "DimensionEstimate",
    "find_stationary_points_1d", "scan_bifurcation_set",
    "check_fold_conditions", "box_counting_dimension", "neighborhood_measure",
    "distance_to_marked",
    "degeneracy_threshold",
]

FOLD = "fold"
NON_FOLD_DEGENERATE = "non_fold_degenerate"
NONDEGENERATE = "nondegenerate"
UNDETERMINED = "undetermined"

TAU_FOLD = 1e-4


def degeneracy_threshold(hess_scale):
    """tau_det = 1e-6 (1 + |hess|): scale-relative singularity cutoff."""
    return 1e-6 * (1.0 + abs(hess_scale))


@dataclass
class StationaryPointRecord:
    x: np.ndarray
    y: np.ndarray
    grad_norm: float
    lambda_min_abs: float
    degenerate: bool
    fold_class: str


@dataclass
class BifurcationScan:
    grid_resolution: int
    indicator: np.ndarray        # (R, R) bool, True = degenerate point located in cell
    lambda_min_grid: np.ndarray  # (R, R) min |lambda| over the cell's roots (nan if none)
    branch_points: List[StationaryPointRecord]
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

# Lanes per oracle call when evaluating the cells' y-grids: a scan's memory
# stays flat whatever its resolution.
_LANE_BUDGET = 1 << 14


def _lane_call(problem, name, x, y):
    """grad_y_g, hess_yy_g or grad_x_grad_y_g of a problem on lanes
    x (L, n), y (L,): (L,) for the first two, (L, n) for the cross-derivative."""
    tail = (problem.n,) if name == "grad_x_grad_y_g" else ()
    return call_oracle(problem, name, x, y[:, None]).reshape(y.shape + tail)


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
        fm = _lane_call(problem, "grad_y_g", x[live], mid)
        left = (fa[live] < 0) == (fm < 0)
        a[live[left]], fa[live[left]] = mid[left], fm[left]
        b[live[~left]] = mid[~left]
        y[live] = mid
        live = live[fm != 0.0]
        if live.size == 0:
            return y
    y[live] = 0.5 * (a[live] + b[live])
    for _ in range(40):
        fy = _lane_call(problem, "grad_y_g", x[live], y[live])
        far = ~(np.abs(fy) <= 1e-12 * (1.0 + np.abs(y[live])))
        live, fy = live[far], fy[far]
        if live.size == 0:
            break
        yl = y[live]
        hy = _lane_call(problem, "hess_yy_g", x[live], yl)
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


def _cell_roots(problem, xs, y_range, resolution):
    """Sorted (y, grad, lambda) triples of the stationary points on y_range,
    one list for each parameter row of xs (C, n), in the three phases of the
    module docstring."""
    lo, hi = float(y_range[0]), float(y_range[1])
    ys = np.linspace(lo, hi, resolution)
    n_cells = xs.shape[0]
    per_call = max(1, _LANE_BUDGET // resolution)
    zero_cell, zero_y, br_cell, br_k, br_fa = [], [], [], [], []
    for c0 in range(0, n_cells, per_call):
        chunk = xs[c0:c0 + per_call]
        vals = _lane_call(problem, "grad_y_g", np.repeat(chunk, resolution, axis=0),
                          np.tile(ys, chunk.shape[0])).reshape(chunk.shape[0], resolution)
        # (cell, grid index) pairs in row-major order, as np.nonzero gives
        # them; its 2-d path costs several times the flat search
        c, k = np.divmod(np.flatnonzero(vals == 0.0), resolution)
        zero_cell.append(c + c0)
        zero_y.append(ys[k])
        c, k = np.divmod(np.flatnonzero(vals[:, :-1] * vals[:, 1:] < 0.0), resolution - 1)
        br_cell.append(c + c0)
        br_k.append(k)
        br_fa.append(vals[c, k])
    br_cell, br_k = np.concatenate(br_cell), np.concatenate(br_k)
    polished = _polish(problem, xs[br_cell], ys[br_k], ys[br_k + 1], np.concatenate(br_fa))

    # grid zeros ahead of polished roots, as a stable sort within each cell
    cell = np.concatenate(zero_cell + [br_cell])
    y = np.concatenate(zero_y + [polished])
    order = np.lexsort((y, cell))
    cell, y = cell[order], y[order]
    min_gap = (hi - lo) / (10.0 * resolution)
    kept, last_c, last_r = [], -1, 0.0
    for t, (c, r) in enumerate(zip(cell.tolist(), y.tolist())):
        if c != last_c or r - last_r >= min_gap:
            kept.append(t)
            last_c, last_r = c, r
    cell, y = cell[kept], y[kept]
    gv = _lane_call(problem, "grad_y_g", xs[cell], y)
    lam = _lane_call(problem, "hess_yy_g", xs[cell], y)
    ok = ~(np.abs(gv) > 1e-10 * (1.0 + np.abs(y)))
    out = [[] for _ in range(n_cells)]
    for c, r, g, l in zip(cell[ok].tolist(), y[ok].tolist(), gv[ok].tolist(), lam[ok].tolist()):
        out[c].append((r, g, l))
    return out


def _make_record(x, y, grad, lam):
    tau = degeneracy_threshold(lam)
    degenerate = abs(lam) < tau
    return StationaryPointRecord(
        x=np.asarray(x, dtype=float).copy(),
        y=np.array([y], dtype=float),
        grad_norm=abs(grad),
        lambda_min_abs=abs(lam),
        degenerate=degenerate,
        fold_class=UNDETERMINED if degenerate else NONDEGENERATE,
    )


def find_stationary_points_1d(problem, x, y_range, resolution) -> List[StationaryPointRecord]:
    """Stationary points of g(x, .) on y_range via grid bracketing + polish.

    Every reported root satisfies |grad_y g| <= 1e-10 (1 + |y|) on
    re-evaluation; roots closer than (hi - lo) / (10 resolution) are merged.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return [_make_record(x, y, gv, lam)
            for (y, gv, lam) in _cell_roots(problem, x[None, :], y_range, resolution)[0]]


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

    Returns, per lane, (x_star, y_star, grad, hess) or None.  Each lane takes
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
        gv = _lane_call(problem, "grad_y_g", x, yl)
        dg_ds = (_lane_call(problem, "grad_x_grad_y_g", x, yl)[:, None, :]
                 @ dxl[:, :, None])[:, 0, 0]
        h = _lane_call(problem, "hess_yy_g",
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
    gv = _lane_call(problem, "grad_y_g", x, yh)
    hv = _lane_call(problem, "hess_yy_g", x, yh)
    keep = ((np.abs(gv) <= 1e-9 * (1.0 + np.abs(yh)))
            & (np.abs(hv) < degeneracy_threshold(hv))
            & (-0.05 <= sh) & (sh <= 1.05))
    out = [None] * n_lanes
    for t, xt, yt, gt, ht in zip(hit[keep].tolist(), x[keep], yh[keep].tolist(),
                                 gv[keep].tolist(), hv[keep].tolist()):
        out[t] = (xt, yt, gt, ht)
    return out


def _collision_seeds(roots_more, y_lo, y_hi, edge):
    """Midpoints of the adjacent opposite-curvature root pairs, closest pair
    first, without those near the window edges (a root entering through the
    window boundary is not a bifurcation)."""
    pairs = sorted((y2 - y1, 0.5 * (y1 + y2))
                   for (y1, _, l1), (y2, _, l2) in zip(roots_more[:-1], roots_more[1:])
                   if l1 * l2 < 0)
    return [mid for _, mid in pairs if y_lo + edge <= mid <= y_hi - edge]


def _hunt_lanes(cell_roots, r, y_lo, y_hi, edge):
    """Lanes of the scan's degenerate-point hunt on an r x r grid whose cell
    (i, j) has the roots cell_roots[i r + j]: every neighbor pair whose root
    counts differ, the (i, i + 1) pairs first and then the (j, j + 1) pairs,
    times each collision seed of the cell with more roots, closest first.
    Returns the pair's index, both cells' indices and the seed of each lane."""
    neighbors = itertools.chain(
        ((i * r + j, (i + 1) * r + j) for i in range(r - 1) for j in range(r)),
        ((i * r + j, i * r + j + 1) for i in range(r) for j in range(r - 1)))
    pair, a, b, seeds = [], [], [], []
    for p, (ca, cb) in enumerate(neighbors):
        ra, rb = cell_roots[ca], cell_roots[cb]
        if len(ra) == len(rb):
            continue
        ss = _collision_seeds(ra if len(ra) > len(rb) else rb, y_lo, y_hi, edge)
        pair += [p] * len(ss)
        a += [ca] * len(ss)
        b += [cb] * len(ss)
        seeds += ss
    return (np.array(pair, dtype=int), np.array(a, dtype=int), np.array(b, dtype=int),
            np.array(seeds, dtype=float))


def scan_bifurcation_set(problem, grid_resolution, y_range, y_resolution) -> BifurcationScan:
    """Grid scan over a 2-d parameter box marking cells that contain a located
    degenerate stationary point; emits all stationary records found."""
    if problem.n != 2:
        raise ValueError("scanner requires n = 2")
    if grid_resolution < 2:
        raise ValueError("grid_resolution must be at least 2")
    if y_resolution < 2:
        raise ValueError("y_resolution must be at least 2")
    lo, hi = problem.feasible_set.bbox
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    r = grid_resolution
    w = (hi - lo) / r
    c1 = lo[0] + (np.arange(r) + 0.5) * w[0]
    c2 = lo[1] + (np.arange(r) + 0.5) * w[1]
    y_lo, y_hi = float(y_range[0]), float(y_range[1])

    xs = np.column_stack([np.repeat(c1, r), np.tile(c2, r)])
    cell_roots = _cell_roots(problem, xs, (y_lo, y_hi), y_resolution)
    indicator = np.zeros((r, r), dtype=bool)
    lam_grid = np.full((r, r), np.nan)
    records: List[StationaryPointRecord] = []
    for i in range(r):
        for j in range(r):
            x = xs[i * r + j]
            rs = cell_roots[i * r + j]
            if rs:
                lam_grid[i, j] = min(abs(l) for (_, _, l) in rs)
            for (y, gv, lam) in rs:
                rec = _make_record(x, y, gv, lam)
                records.append(rec)
                if rec.degenerate:
                    indicator[i, j] = True

    # hunt for degenerate points wherever the root count changes between
    # neighboring cells (the measure-zero set a center grid cannot hit)
    edge = 2.0 * (y_hi - y_lo) / y_resolution
    pair, a, b, seeds = _hunt_lanes(cell_roots, r, y_lo, y_hi, edge)
    hits = _hunt_degenerate(problem, xs[a], xs[b], seeds, y_lo, y_hi)
    # the merging pair need not be the closest one: a pair keeps the hit of
    # its first seed that located a degenerate point
    found, last_pair = set(), -1
    for p, hit in zip(pair.tolist(), hits):
        if hit is None or p == last_pair:
            continue
        last_pair = p
        x_star, y_star, gv, hv = hit
        key = (round(float(x_star[0]) / 1e-9), round(float(x_star[1]) / 1e-9))
        if key in found:
            continue
        found.add(key)
        records.append(_make_record(x_star, y_star, gv, hv))
        ii = min(int((x_star[0] - lo[0]) / w[0]), r - 1)
        jj = min(int((x_star[1] - lo[1]) / w[1]), r - 1)
        indicator[max(ii, 0), max(jj, 0)] = True

    return BifurcationScan(
        grid_resolution=r,
        indicator=indicator,
        lambda_min_grid=lam_grid,
        branch_points=records,
        bbox=(lo, hi),
        cell_size=(float(w[0]), float(w[1])),
    )


# ---------------------------------------------------------------------------
# Fold-condition classification
# ---------------------------------------------------------------------------

def check_fold_conditions(problem, record: StationaryPointRecord) -> str:
    """Classify a degenerate stationary point against the three fold conditions:
    simple zero eigenvalue, transversal parameter dependence of the projected
    gradient, and nonzero third derivative along the null direction.

    For a one-dimensional follower the degenerate record's zero eigenvalue is
    its only one, so (1) holds, and the null direction is v = 1.  Finite
    differences cannot certify a value is nonzero, so values inside
    (tau_fold/10, tau_fold) return UNDETERMINED rather than a binary answer.
    """
    if not record.degenerate:
        raise ValueError("fold check requires a degenerate record")
    x = np.asarray(record.x, dtype=float)[None, :]
    y = np.asarray(record.y, dtype=float)

    # (2) parameter derivative of grad_y g
    J = call_oracle(problem, "grad_x_grad_y_g", x, y[None, :])[0]
    c2_val = float(np.linalg.norm(J[0]))

    # (3) third derivative in y, 5-point stencil
    h = TAU_FOLD * (1.0 + abs(float(y[0])))
    shifts = np.array([2 * h, h, -h, -2 * h])
    p2, p1, m1, m2 = call_oracle(problem, "g", np.repeat(x, 4, axis=0),
                                 y + shifts[:, None]).tolist()
    c3_val = abs((p2 - 2 * p1 + 2 * m1 - m2) / (2 * h ** 3))

    if c2_val >= TAU_FOLD and c3_val >= TAU_FOLD:
        return FOLD
    if c2_val <= TAU_FOLD / 10 or c3_val <= TAU_FOLD / 10:
        return NON_FOLD_DEGENERATE
    return UNDETERMINED


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
        counts.append(int(np.unique(cells, axis=0).shape[0]))
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
