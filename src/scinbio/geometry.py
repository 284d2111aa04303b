"""Degenerate-stationary-point diagnostics for m = 1 lower levels.

A parameter x is a bifurcation parameter when g(x, .) has a stationary point
with singular Hessian; there stationary branches merge, appear, or vanish.
Grid sampling alone cannot land on such measure-zero parameters, so the
scanner localizes them: wherever the stationary-root count changes between
neighboring grid cells (or a root's curvature collapses), a two-variable
Newton iteration solves  grad_y g = 0, d2g/dy2 = 0  along the connecting
segment and pins the degenerate point to machine precision.

The stationary roots of all cells are found together, on lanes (see the lane
convention in scinbio.problems), in three phases:

1. grad_y g on every cell's y-grid, whole cells per oracle call up to a fixed
   lane budget, so memory stays flat whatever the resolution;
2. every sign-change bracket of the scan polished in one lockstep call:
   12 bisections, then guarded Newton with a bisection fallback, each lane
   taking exactly the steps it would take alone, and the oracles called on
   the lanes still iterating only;
3. per cell, grid zeros and polished roots sorted and merged, and every
   candidate re-checked with one grad_y g and one hess_yy g lane call.

find_stationary_points_1d is the same finder run on one cell.
"""

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

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
    """tau_det = 1e-6 (1 + ||hess||): scale-relative singularity cutoff."""
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
# Stationary-point location for m = 1
# ---------------------------------------------------------------------------

def _scalar_grad(problem, x, y):
    ybuf = np.array([y], dtype=float)
    return float(np.atleast_1d(problem.grad_y_g(x, ybuf))[0])


def _scalar_hess(problem, x, y):
    ybuf = np.array([y], dtype=float)
    return float(np.atleast_2d(problem.hess_yy_g(x, ybuf))[0, 0])


# Lanes per oracle call when evaluating the cells' y-grids: a scan's memory
# stays flat whatever its resolution.
_LANE_BUDGET = 1 << 14


def _lane_call(problem, name, x, y):
    """grad_y_g or hess_yy_g of an m = 1 problem on lanes x (L, n), y (L,), as (L,)."""
    lanes = y.shape[0]
    if lanes == 0:
        return np.empty(0)
    expected = (lanes, 1) if name == "grad_y_g" else (lanes, 1, 1)
    out = np.asarray(getattr(problem, name)(x, y[:, None]))
    if out.shape != expected:
        raise ValueError(f"{name} returned shape {out.shape} for {lanes} lanes; the lane "
                         f"convention of scinbio.problems expects {expected}")
    return out.reshape(lanes)


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
        c, k = np.nonzero(vals == 0.0)
        zero_cell.append(c + c0)
        zero_y.append(ys[k])
        c, k = np.nonzero(vals[:, :-1] * vals[:, 1:] < 0.0)
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
    if problem.m != 1:
        raise ValueError("stationary-point scan requires m = 1")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return [_make_record(x, y, gv, lam)
            for (y, gv, lam) in _cell_roots(problem, x[None, :], y_range, resolution)[0]]


# ---------------------------------------------------------------------------
# Degenerate-point localization (2-variable Newton along a parameter segment)
# ---------------------------------------------------------------------------

def _hunt_degenerate(problem, xa, xb, y_seed, y_lo, y_hi):
    """Solve grad_y g = 0 = d2g/dy2 for (s, y) with x(s) = xa + s (xb - xa).

    Returns (x_star, y_star) or None.  Derivatives of the Hessian are central
    finite differences; the gradient's parameter derivative uses the
    cross-derivative oracle.
    """
    xa = np.asarray(xa, dtype=float)
    dx = np.asarray(xb, dtype=float) - xa
    seg = float(np.linalg.norm(dx))
    s, y = 0.5, float(y_seed)
    y_span = y_hi - y_lo
    converged = False
    for _ in range(60):
        x = xa + s * dx
        gv = _scalar_grad(problem, x, y)
        hv = _scalar_hess(problem, x, y)
        dg_ds = float(np.atleast_2d(problem.grad_x_grad_y_g(x, np.array([y])))[0] @ dx)
        e = 1e-6
        dh_ds = (_scalar_hess(problem, xa + (s + e) * dx, y)
                 - _scalar_hess(problem, xa + (s - e) * dx, y)) / (2 * e)
        ey = 1e-6 * (1.0 + abs(y))
        dh_dy = (_scalar_hess(problem, x, y + ey)
                 - _scalar_hess(problem, x, y - ey)) / (2 * ey)
        J = np.array([[dg_ds, hv], [dh_ds, dh_dy]])
        try:
            step = np.linalg.solve(J, -np.array([gv, hv]))
        except np.linalg.LinAlgError:
            return None
        # clamp to keep the iteration near the segment and the scan window
        ds = float(np.clip(step[0], -0.75, 0.75))
        dy = float(np.clip(step[1], -0.5 * y_span, 0.5 * y_span))
        s, y = s + ds, y + dy
        if not (-0.6 <= s <= 1.6) or not (y_lo - 0.1 * y_span <= y <= y_hi + 0.1 * y_span):
            return None
        if abs(ds) <= 1e-13 * (1.0 + abs(s)) and abs(dy) <= 1e-13 * (1.0 + abs(y)):
            converged = True
            break
    if not converged:
        return None
    x = xa + s * dx
    gv = _scalar_grad(problem, x, y)
    hv = _scalar_hess(problem, x, y)
    if abs(gv) > 1e-9 * (1.0 + abs(y)):
        return None
    if abs(hv) >= degeneracy_threshold(hv):
        return None
    if not (-0.05 <= s <= 1.05):
        return None
    return x, y, gv, hv


def _collision_seeds(roots_more, y_lo, y_hi, edge):
    """Midpoints of the adjacent opposite-curvature root pairs, closest pair
    first, without those near the window edges (a root entering through the
    window boundary is not a bifurcation)."""
    pairs = sorted((y2 - y1, 0.5 * (y1 + y2))
                   for (y1, _, l1), (y2, _, l2) in zip(roots_more[:-1], roots_more[1:])
                   if l1 * l2 < 0)
    return [mid for _, mid in pairs if y_lo + edge <= mid <= y_hi - edge]


def scan_bifurcation_set(problem, grid_resolution, y_range, y_resolution) -> BifurcationScan:
    """Grid scan over a 2-d parameter box marking cells that contain a located
    degenerate stationary point; emits all stationary records found."""
    if problem.n != 2 or problem.m != 1:
        raise ValueError("scanner requires n = 2, m = 1")
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
    roots = {}
    indicator = np.zeros((r, r), dtype=bool)
    lam_grid = np.full((r, r), np.nan)
    records: List[StationaryPointRecord] = []
    for i in range(r):
        for j in range(r):
            x = xs[i * r + j]
            rs = roots[(i, j)] = cell_roots[i * r + j]
            if rs:
                lam_grid[i, j] = min(abs(l) for (_, _, l) in rs)
            for (y, gv, lam) in rs:
                rec = _make_record(x, y, gv, lam)
                records.append(rec)
                if rec.degenerate:
                    indicator[i, j] = True

    # hunt for degenerate points wherever the root count changes between
    # neighboring cells (the measure-zero set a center grid cannot hit)
    found = {}

    edge = 2.0 * (y_hi - y_lo) / y_resolution

    def consider(ia, ja, ib, jb):
        ra, rb = roots[(ia, ja)], roots[(ib, jb)]
        if len(ra) == len(rb):
            return
        more = ra if len(ra) > len(rb) else rb
        xa = np.array([c1[ia], c2[ja]])
        xb = np.array([c1[ib], c2[jb]])
        # the merging pair need not be the closest one: hunt from each pair
        # in turn and keep the first degenerate point located
        for seed in _collision_seeds(more, y_lo, y_hi, edge):
            hit = _hunt_degenerate(problem, xa, xb, seed, y_lo, y_hi)
            if hit is not None:
                break
        else:
            return
        x_star, y_star, gv, hv = hit
        key = (round(float(x_star[0]) / 1e-9), round(float(x_star[1]) / 1e-9))
        if key in found:
            return
        found[key] = True
        rec = _make_record(x_star, y_star, gv, hv)
        if not rec.degenerate:
            return
        records.append(rec)
        ii = min(int((x_star[0] - lo[0]) / w[0]), r - 1)
        jj = min(int((x_star[1] - lo[1]) / w[1]), r - 1)
        indicator[max(ii, 0), max(jj, 0)] = True

    for i in range(r - 1):
        for j in range(r):
            consider(i, j, i + 1, j)
    for i in range(r):
        for j in range(r - 1):
            consider(i, j, i, j + 1)

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

    Finite differences cannot certify a value is nonzero, so values inside
    (tau_fold/10, tau_fold) return UNDETERMINED rather than a binary answer.
    """
    if not record.degenerate:
        raise ValueError("fold check requires a degenerate record")
    x = np.asarray(record.x, dtype=float)
    y = np.asarray(record.y, dtype=float)
    H = np.atleast_2d(np.asarray(problem.hess_yy_g(x, y), dtype=float))
    evals, evecs = np.linalg.eigh(0.5 * (H + H.T))
    order = np.argsort(np.abs(evals))
    v = evecs[:, order[0]]
    tau_det = degeneracy_threshold(float(np.max(np.abs(H))))

    # (1) exactly one zero eigenvalue
    if problem.m >= 2 and abs(evals[order[1]]) < 10.0 * tau_det:
        return NON_FOLD_DEGENERATE

    # (2) parameter derivative of grad_y g projected on v
    J = np.atleast_2d(np.asarray(problem.grad_x_grad_y_g(x, y), dtype=float))
    c2_val = float(np.linalg.norm(J.T @ v))

    # (3) third directional derivative along v, 5-point stencil
    h = TAU_FOLD * (1.0 + float(np.linalg.norm(y)))
    psi = lambda s: float(problem.g(x, y + s * v))
    c3_val = abs((psi(2 * h) - 2 * psi(h) + 2 * psi(-h) - psi(-2 * h)) / (2 * h ** 3))

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
