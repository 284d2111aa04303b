"""Output checks made apart from the program.

Nothing here imports `scinbio`.  Expected values come from the problems'
closed-form definitions restated below, from the documented random streams
(`numpy.random.SeedSequence` with spawn keys) and from properties the method
must have.  No stored copy of an earlier output is compared against.

`check_command` returns the number of failed operations of one command and a
list of check failures for the operations that did not fail.
"""

import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

# Stream domains of the documented random streams.
DOMAIN_ESTIMATOR = 1
DOMAIN_INIT = 3

EST_RTOL = 1e-8       # estimate against the independent recomputation, relative to sum |u f|
GDA_ATOL = 1e-6       # GDA trajectory against an independent RK4 with analytic partials
GDA_CHECKED_STEPS = 2000


class CheckFailure(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailure(message)


# ---------------------------------------------------------------------------
# Problems, restated in closed form
# ---------------------------------------------------------------------------

def minimax_f(a, b):
    """f(x, y) = (x^2 - y^2) sin(x + y) + x y sin(x - y)."""
    return (a * a - b * b) * np.sin(a + b) + a * b * np.sin(a - b)


def minimax_fx(a, b):
    return (2.0 * a * np.sin(a + b) + (a * a - b * b) * np.cos(a + b)
            + b * np.sin(a - b) + a * b * np.cos(a - b))


def minimax_fy(a, b):
    return (-2.0 * b * np.sin(a + b) + (a * a - b * b) * np.cos(a + b)
            + a * np.sin(a - b) - a * b * np.cos(a - b))


def fold_gy(x1, y):
    """d/dy of g = (1 - 2 x1) y + (3 x1 - 2 x1^2) y^3 + 10 max(0, |y| - 1.5)^4."""
    r = np.maximum(0.0, np.abs(y) - 1.5)
    return (1.0 - 2.0 * x1) + 3.0 * (3.0 * x1 - 2.0 * x1 * x1) * y * y + 40.0 * r ** 3 * np.sign(y)


def fold_gyy(x1, y):
    r = np.maximum(0.0, np.abs(y) - 1.5)
    return 6.0 * (3.0 * x1 - 2.0 * x1 * x1) * y + 120.0 * r * r


def quartic_discriminant(x1, x2):
    """Discriminant of dg/dy = 4 y^3 + 3 c3 y^2 + 2 c2 y + c3 for the quartic family."""
    c3 = x1 * x1 - 5.0 * x1 * x2 + 2.0 * x2 * x2 - 7.0 * x1 + 8.0 * x2 - 30.0
    c2 = x1 * x1 - 3.0 * x1 * x2 + 4.0 * x2 * x2 - 5.0 * x1 + 2.0 * x2 - 40.0
    a, b, c, d = 4.0, 3.0 * c3, 2.0 * c2, c3
    return (18.0 * a * b * c * d - 4.0 * b ** 3 * d + b * b * c * c
            - 4.0 * a * c ** 3 - 27.0 * a * a * d * d)


# Feasible boxes, value caps and lower-level starts of the builtin problems.
PROBLEMS = {
    "minimax": {"lo": np.array([-3.0]), "hi": np.array([3.0]), "f_bar": 62.13, "y0": 0.0},
    "fold": {"lo": np.array([0.0, -1.0]), "hi": np.array([1.0, 1.0]), "f_bar": 3.37, "y0": 0.1},
    "quartic": {"lo": np.array([-4.0, -4.0]), "hi": np.array([5.0, 5.0])},
}


# ---------------------------------------------------------------------------
# Independent lower-level responses, vectorized over lanes
# ---------------------------------------------------------------------------

def minimax_response(x, eta, K):
    """K gradient-descent steps on g = -f from y0 = 0, one lane per entry of x."""
    y = np.zeros_like(x)
    for _ in range(K):
        y = y + eta * minimax_fy(x, y)
    return y


def cubic_step_1d(g, h, M):
    """Global minimizer of g s + h s^2 / 2 + (M / 6) |s|^3, in closed form."""
    ag = np.abs(g)
    with np.errstate(divide="ignore", invalid="ignore"):
        regular = -np.sign(g) * 2.0 * ag / (h + np.sqrt(h * h + 2.0 * M * ag))
    hard = np.where(h < 0, -2.0 * h / M, 0.0)
    return np.where(g == 0.0, hard, regular)


def fold_response(x1, M, K, y0):
    """K cubic-Newton steps from y0; the iterate with the smallest nu_M."""
    y = np.full_like(x1, y0)
    best_y = y.copy()
    best_nu = np.full_like(x1, np.inf)
    for k in range(K + 1):
        g = fold_gy(x1, y)
        h = fold_gyy(x1, y)
        nu = np.maximum(np.sqrt(np.abs(g) / M), -(2.0 / (3.0 * M)) * h)
        better = nu < best_nu
        best_y = np.where(better, y, best_y)
        best_nu = np.where(better, nu, best_nu)
        if k < K:
            y = y + cubic_step_1d(g, h, M)
    return best_y


def hyperfunction(problem, params, pts):
    """phi(x) = f(x, y_alg(x)) at each row of pts (shape (L, n))."""
    if problem == "minimax":
        a = pts[:, 0]
        return minimax_f(a, minimax_response(a, params["eta"], params["K"]))
    y = fold_response(pts[:, 0], params["M"], params["K"], PROBLEMS["fold"]["y0"])
    return pts[:, 0] + y


def directions(master_seed, t, n_samples, n):
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(DOMAIN_ESTIMATOR, t))
    return np.random.Generator(np.random.PCG64(ss)).standard_normal((n_samples, n))


def initial_point(problem, seed):
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(DOMAIN_INIT,))
    gen = np.random.Generator(np.random.PCG64(ss))
    if problem == "minimax":
        return gen.uniform(-2.0, 2.0, size=2)
    box = PROBLEMS[problem]
    return gen.uniform(box["lo"], box["hi"])


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------

def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _number(text):
    # `scinbio gda` and `scinbio scan` write some fields as repr() of a NumPy
    # scalar, which NumPy 2 spells "np.float64(0.25)"; the value inside is exact.
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text) if text else math.nan


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[_number(v) for v in ln.split(",")] for ln in lines[1:]]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _check_svg(path):
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckFailure(f"{os.path.basename(path)} is not XML: {exc}")
    _require(root.tag.endswith("svg"), f"{os.path.basename(path)} root is not <svg>")


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _check_run_seed(cmd, out, seed, result):
    problem = cmd["problem"]
    box = PROBLEMS[problem]
    n = len(box["lo"])
    beta, xi, N, K = cmd["beta"], cmd["xi"], cmd["N"], cmd["K"]
    T = cmd["T"]
    header, data = _read_csv(os.path.join(out, f"trace_seed{seed}.csv"))
    expected = (["t"] + [f"x{j}" for j in range(n)] + [f"est{j}" for j in range(n)]
                + ["mapping_norm", "N_t", "K_t", "infeasible_count"])
    _require(header == expected, f"seed {seed}: trace columns {header}")
    _require(data.shape[0] == T, f"seed {seed}: {data.shape[0]} trace rows, expected {T}")
    _require(np.array_equal(data[:, 0], np.arange(T)), f"seed {seed}: t column")
    xs = data[:, 1:1 + n]
    est = data[:, 1 + n:1 + 2 * n]
    mapping = data[:, 1 + 2 * n]
    _require(np.all(data[:, 2 + 2 * n] == N) and np.all(data[:, 3 + 2 * n] == K),
             f"seed {seed}: N_t/K_t columns")
    summary = _read_json(os.path.join(out, f"summary_seed{seed}.json"))
    x_final = np.array(summary["final"]["x_final"], dtype=float)
    _require(np.array_equal(np.array(result["x_final"]), x_final),
             f"seed {seed}: report and summary disagree on x_final")

    # x_0 is the documented per-seed start, x_{t+1} = proj(x_t - beta est_t)
    x0 = initial_point(problem, seed)[:n]
    _require(np.array_equal(xs[0], np.clip(x0, box["lo"], box["hi"])),
             f"seed {seed}: x_0 = {xs[0]} is not the seed's start {x0}")
    nxt = np.clip(xs - beta * est, box["lo"], box["hi"])
    _require(np.array_equal(nxt[:-1], xs[1:]), f"seed {seed}: x_(t+1) != proj(x_t - beta est_t)")
    _require(np.array_equal(nxt[-1], x_final), f"seed {seed}: x_T != proj(x_(T-1) - beta est)")
    gm = np.sqrt(np.sum(((xs - nxt) / beta) ** 2, axis=1))
    _require(np.allclose(gm, mapping, rtol=1e-12, atol=1e-15),
             f"seed {seed}: mapping_norm inconsistent with x_t and est_t")

    # est_t recomputed from x_t with the documented directions
    u = np.stack([directions(cmd["master_seed"] + seed, t, N, n) for t in range(T)])
    pts = (xs[:, None, :] + xi * u).reshape(T * N, n)
    feasible = np.all((pts >= box["lo"]) & (pts <= box["hi"]), axis=1)
    phi = np.full(T * N, box["f_bar"])
    phi[feasible] = hyperfunction(problem, cmd, pts[feasible])
    terms = u * phi.reshape(T, N, 1)
    ind = terms.sum(axis=1) / (N * xi)
    scale = np.abs(terms).sum(axis=1) / (N * xi)
    gap = np.abs(ind - est)
    worst = int(np.argmax(np.max(gap / (scale + 1e-300), axis=1)))
    _require(np.all(gap <= EST_RTOL * scale + 1e-12),
             f"seed {seed}: est_{worst} = {est[worst]} but recomputed {ind[worst]}")
    infeasible = (~feasible).reshape(T, N).sum(axis=1)
    _require(np.array_equal(infeasible, data[:, 4 + 2 * n]),
             f"seed {seed}: infeasible_count column")

    # best of the last 100 iterates is the smallest phi among them
    best = result.get("best_of_last_100")
    _require(best is not None, f"seed {seed}: no best_of_last_100")
    tail_t = np.arange(max(0, T - 100), T)
    tail_phi = hyperfunction(problem, cmd, xs[tail_t])
    k = int(best["t"]) - int(tail_t[0])
    _require(0 <= k < len(tail_t), f"seed {seed}: best t = {best['t']} outside the tail")
    tol = 1e-9 * (1.0 + abs(best["f"]))
    _require(abs(tail_phi[k] - best["f"]) <= tol and best["f"] <= tail_phi.min() + tol,
             f"seed {seed}: best_of_last_100 f = {best['f']}, recomputed min {tail_phi.min()}")
    _check_svg(os.path.join(out, f"phase_seed{seed}.svg"))


def check_run(cmd, out, exit_code):
    report_path = os.path.join(out, "report.json")
    if not os.path.exists(report_path):
        return len(cmd["seeds"]), []
    report = _read_json(report_path)
    failed, problems = 0, []
    for seed in cmd["seeds"]:
        result = report["results"].get(str(seed), {"error": "missing from report"})
        if "error" in result:
            failed += 1
            continue
        try:
            _check_run_seed(cmd, out, seed, result)
        except (CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"run {cmd['problem']} {exc}")
    if (exit_code == 0) != (failed == 0):
        problems.append(f"run exited with {exit_code} with {failed} failed seeds")
    return failed, problems


# ---------------------------------------------------------------------------
# gda
# ---------------------------------------------------------------------------

def _gda_rk4(p, h, steps):
    def field(x, y):
        return -minimax_fx(x, y), minimax_fy(x, y)

    x, y = float(p[0]), float(p[1])
    out = [(x, y)]
    for _ in range(steps):
        k1 = field(x, y)
        k2 = field(x + 0.5 * h * k1[0], y + 0.5 * h * k1[1])
        k3 = field(x + 0.5 * h * k2[0], y + 0.5 * h * k2[1])
        k4 = field(x + h * k3[0], y + h * k3[1])
        x = x + h / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y = y + h / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        out.append((x, y))
    return np.array(out)


def _check_gda_seed(cmd, out, seed, entry):
    header, data = _read_csv(os.path.join(out, f"gda_seed{seed}.csv"))
    _require(header == ["k", "x", "y"], f"seed {seed}: gda columns {header}")
    steps = int(entry["steps_taken"])
    _require(data.shape[0] == steps + 1 and np.array_equal(data[:, 0], np.arange(steps + 1)),
             f"seed {seed}: {data.shape[0]} rows for {steps} steps")
    pts = data[:, 1:]
    init = initial_point("minimax", seed)
    _require(np.array_equal(pts[0], init) and entry["init"] == init.tolist(),
             f"seed {seed}: start {pts[0]} is not the seed's start {init}")
    _require(np.array_equal(pts[-1], np.array(entry["final"])), f"seed {seed}: final point")

    n_ref = min(GDA_CHECKED_STEPS, steps)
    ref = _gda_rk4(init, cmd["step"], n_ref)
    gap = float(np.max(np.abs(ref - pts[:n_ref + 1])))
    _require(gap <= GDA_ATOL, f"seed {seed}: trajectory is {gap:.3g} from an independent RK4")

    # the convergence rule: displacement over each 1000-step window
    ends = np.arange(1000, steps + 1, 1000)
    disp = np.hypot(*(pts[ends] - pts[ends - 1000]).T)
    verdict = entry["verdict"]
    if verdict == "converged":
        _require(steps % 1000 == 0 and disp[-1] <= 1e-5 and np.all(disp[:-1] > 1e-5),
                 f"seed {seed}: converged verdict without the window displacement rule")
        return
    _require(steps == cmd["max_steps"] and np.all(disp > 1e-5),
             f"seed {seed}: {verdict} after {steps} steps with a window below 1e-5")
    _require(verdict in ("cycling", "budget_exhausted"), f"seed {seed}: verdict {verdict!r}")
    if verdict == "cycling":
        a, b = entry["cycle_witness"]
        _require(b - a >= 50, f"seed {seed}: witness period {b - a}")
        close = float(np.hypot(*(pts[b] - pts[a])))
        excursion = float(np.max(np.hypot(*(pts[a + 1:b + 1] - pts[a]).T)))
        _require(close <= 1e-3 and excursion >= 1e-2,
                 f"seed {seed}: witness ({a}, {b}) distance {close:.3g}, excursion {excursion:.3g}")


def check_gda(cmd, out, exit_code):
    report_path = os.path.join(out, "gda_report.json")
    if exit_code != 0 or not os.path.exists(report_path):
        return len(cmd["seeds"]), []
    report = _read_json(report_path)
    problems = []
    for seed in cmd["seeds"]:
        try:
            _check_gda_seed(cmd, out, seed, report["results"][str(seed)])
            _check_svg(os.path.join(out, f"gda_seed{seed}.svg"))
        except (CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"gda {exc}")
    return 0, problems


def gda_steps(out):
    report = _read_json(os.path.join(out, "gda_report.json"))
    return sum(int(e["steps_taken"]) for e in report["results"].values())


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def _check_fold_scan(x1, x2, marked, R):
    """g' = g'' = 0 forces y = 0 and x1 = 1/2: one marked cell per x2-row, at x1 = 1/2."""
    w = 1.0 / R
    for row in np.unique(x2):
        cols = x1[(x2 == row) & marked]
        _require(len(cols) == 1, f"fold scan: x2 = {row:.4f} has {len(cols)} marked cells")
        _require(abs(cols[0] - 0.5) <= 0.5 * w * (1 + 1e-9),
                 f"fold scan: x2 = {row:.4f} marked at x1 = {cols[0]:.4f}, not the cell of 1/2")


def _check_quartic_scan(x1, x2, marked, R):
    """Every marked cell is within one cell of a sign change of the discriminant,
    sampled 8x finer than the scan over the cell's 3 x 3 block."""
    box = PROBLEMS["quartic"]
    w = (box["hi"] - box["lo"]) / R
    offsets = np.linspace(-1.5, 1.5, 25)
    for c1, c2 in zip(x1[marked], x2[marked]):
        s1 = np.clip(c1 + offsets * w[0], box["lo"][0], box["hi"][0])
        s2 = np.clip(c2 + offsets * w[1], box["lo"][1], box["hi"][1])
        disc = quartic_discriminant(*np.meshgrid(s1, s2, indexing="ij"))
        _require(disc.min() <= 0.0 <= disc.max(),
                 f"quartic scan: marked cell ({c1:.4f}, {c2:.4f}) has no discriminant sign change")


def check_scan(cmd, out, exit_code):
    if exit_code != 0:
        return 1, []
    name, R = cmd["problem"], cmd["resolution"]
    try:
        header, data = _read_csv(os.path.join(out, f"scan_{name}.csv"))
        _require(header == ["x1", "x2", "marked", "lambda_min_abs"], f"scan columns {header}")
        _require(data.shape[0] == R * R, f"scan {name}: {data.shape[0]} cells, expected {R * R}")
        x1, x2 = data[:, 0], data[:, 1]
        _require(len(np.unique(x1)) == R and len(np.unique(x2)) == R, f"scan {name}: grid")
        marked = data[:, 2] == 1
        dim = _read_json(os.path.join(out, f"dimension_{name}.json"))
        _require(dim["n_marked_cells"] == int(marked.sum()),
                 f"scan {name}: dimension JSON counts {dim['n_marked_cells']} marked cells")
        _check_svg(os.path.join(out, f"scan_{name}.svg"))
        if name == "fold":
            _check_fold_scan(x1, x2, marked, R)
        else:
            _check_quartic_scan(x1, x2, marked, R)
    except (CheckFailure, OSError, ValueError, KeyError, IndexError) as exc:
        return 0, [f"scan {name}: {exc}"]
    return 0, []


def check_command(cmd, out, exit_code):
    """(failed operations, check failures) for one command's outputs in `out`."""
    return {"run": check_run, "gda": check_gda, "scan": check_scan}[cmd["kind"]](
        cmd, out, exit_code)
