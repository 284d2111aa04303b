"""Command-line front end: run | scan | gda | estimate.

Configuration comes from an optional key = value file (dotted keys for
nesting, '#' comments) plus flag overrides; flags win.  Every output JSON
embeds the fully resolved configuration so runs are self-describing.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O failure.
"""

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import rng
from .baselines import BUDGET_EXHAUSTED, CYCLING, gda_field, run_gda
from .errors import ConfigError, NumericalError
from .geometry import box_counting_dimension, neighborhood_measure, scan_bifurcation_set
from .lower import (CUBIC_NEWTON, GRADIENT_DESCENT, LowerSolverConfig,
                    run_lower_lean)
from .outer import (OuterConfig, canonical_json, constant_schedules,
                    gradient_mapping, run_scinbio, tail_stability,
                    validate_run, write_summary_json, write_trace_csv)
from .problems import LOWER_DEFAULTS, PROBLEM_NAMES, get_problem
from .smoothing import SmoothingConfig, estimate_hypergradient, gradient_norm_bound
from .svg import SvgCanvas

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

REPORT_SCHEMA = "scinbio-report-v1"
SCAN_CSV_SCHEMA = "scinbio-scan-v1"
GDA_CSV_SCHEMA = "scinbio-gda-v1"

_DEFAULTS = {
    "problem": "minimax",
    "seeds": list(range(15)),
    "out": "out",
    "stride": 1,
    "audit": False,
    "workers": 1,
    "emit": ["csv", "json", "svg"],
    "outer.T": 10000,
    "outer.beta": 0.005,
    "outer.output_rule": "last",
    "lower.method": GRADIENT_DESCENT,
    "lower.eta": None,     # problem default when unset
    "lower.M": None,
    "lower.K": 200,
    "lower.grad_tol": 0.0,
    "smoothing.xi": 0.05,
    "smoothing.master_seed": 2024,
    "sampling.N": 3,
    "scan.grid_resolution": None,  # problem default when unset
    "scan.y_lo": None,
    "scan.y_hi": None,
    "scan.y_resolution": None,
    "gda.step": 0.01,
    "gda.max_steps": 50000,
    "gda.integrator": "rk4",
    "estimate.N": 1000,
    "estimate.batches": 10,
}

_SCAN_DEFAULTS = {
    "fold": {"grid_resolution": 200, "y_lo": -1.0, "y_hi": 1.0, "y_resolution": 400},
    "quartic": {"grid_resolution": 300, "y_lo": -250.0, "y_hi": 250.0,
                "y_resolution": 2000},
}

_INT_KEYS = {"stride", "workers", "outer.T", "lower.K", "smoothing.master_seed",
             "sampling.N", "scan.grid_resolution", "scan.y_resolution",
             "gda.max_steps", "estimate.N", "estimate.batches"}
_FLOAT_KEYS = {"outer.beta", "lower.eta", "lower.M", "lower.grad_tol",
               "smoothing.xi", "scan.y_lo", "scan.y_hi", "gda.step"}
_BOOL_KEYS = {"audit"}


def parse_seed_list(text):
    """Seed lists like '0,1,2', '0-14', or '0-3,7'."""
    seeds = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, hi = chunk.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(chunk))
    return seeds


def parse_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError([f"{path}:{lineno}: expected 'key = value'"])
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _coerce(key, value, errors):
    if value is None:
        return None
    try:
        if key == "seeds":
            return parse_seed_list(value) if isinstance(value, str) else list(value)
        if key == "emit":
            items = value.split(",") if isinstance(value, str) else value
            return [s.strip() for s in items if str(s).strip()]
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _BOOL_KEYS:
            if isinstance(value, bool):
                return value
            return str(value).strip().lower() in ("1", "true", "yes", "on")
        return str(value)
    except (TypeError, ValueError):
        errors.append(f"config key {key!r}: cannot parse {value!r}")
        return None


def resolve_config(args):
    """Defaults <- config file <- --set overrides <- dedicated flags."""
    errors = []
    cfg = dict(_DEFAULTS)
    if args.config:
        try:
            file_values = parse_config_file(args.config)
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"])
        for key, value in file_values.items():
            if key not in _DEFAULTS:
                errors.append(f"unknown config key {key!r}")
                continue
            cfg[key] = _coerce(key, value, errors)
    for item in args.set or []:
        if "=" not in item:
            errors.append(f"--set expects key=value, got {item!r}")
            continue
        key, value = (part.strip() for part in item.split("=", 1))
        if key not in _DEFAULTS:
            errors.append(f"unknown config key {key!r}")
            continue
        cfg[key] = _coerce(key, value, errors)
    if args.problem is not None:
        cfg["problem"] = args.problem
    if args.seed is not None:
        cfg["seeds"] = _coerce("seeds", args.seed, errors)
    if args.out is not None:
        cfg["out"] = args.out
    if args.stride is not None:
        cfg["stride"] = args.stride
    if args.audit:
        cfg["audit"] = True

    # validation: report every problem at once
    if cfg["problem"] not in PROBLEM_NAMES:
        errors.append(f"problem must be one of {', '.join(PROBLEM_NAMES)}")
    if not cfg["seeds"]:
        errors.append("seeds must be nonempty")
    if cfg["outer.T"] < 0:
        errors.append("outer.T must be nonnegative")
    if not cfg["outer.beta"] > 0:
        errors.append("outer.beta must be positive")
    if cfg["outer.output_rule"] not in ("last", "random_index", "best_mapping"):
        errors.append("outer.output_rule must be last|random_index|best_mapping")
    if cfg["lower.method"] not in (GRADIENT_DESCENT, CUBIC_NEWTON):
        errors.append("lower.method must be gradient_descent|cubic_newton")
    if cfg["lower.K"] < 0:
        errors.append("lower.K must be nonnegative")
    if cfg["lower.eta"] is not None and not cfg["lower.eta"] > 0:
        errors.append("lower.eta must be positive")
    if cfg["lower.M"] is not None and not cfg["lower.M"] > 0:
        errors.append("lower.M must be positive")
    if not cfg["smoothing.xi"] > 0:
        errors.append("smoothing.xi must be positive")
    if cfg["sampling.N"] < 1:
        errors.append("sampling.N must be at least 1")
    if cfg["stride"] < 1:
        errors.append("stride must be at least 1")
    if cfg["gda.step"] <= 0:
        errors.append("gda.step must be positive")
    if cfg["gda.max_steps"] < 1:
        errors.append("gda.max_steps must be at least 1")
    if cfg["gda.integrator"] not in ("euler", "rk4"):
        errors.append("gda.integrator must be euler|rk4")
    if cfg["estimate.N"] < 1:
        errors.append("estimate.N must be at least 1")
    if cfg["estimate.batches"] < 2:
        errors.append("estimate.batches must be at least 2")
    bad_emit = set(cfg["emit"]) - {"csv", "json", "svg"}
    if bad_emit:
        errors.append(f"emit entries must be csv|json|svg, got {sorted(bad_emit)}")
    scan_res = cfg["scan.grid_resolution"]
    if scan_res is not None and scan_res < 2:
        errors.append("scan.grid_resolution must be at least 2")
    if cfg["scan.y_resolution"] is not None and cfg["scan.y_resolution"] < 2:
        errors.append("scan.y_resolution must be at least 2")
    if errors:
        raise ConfigError(errors)
    return cfg


def _ensure_outdir(cfg):
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output directory {out!r} not writable: {exc}"])
    if not os.access(out, os.W_OK):
        raise ConfigError([f"output directory {out!r} not writable"])
    return out


def lower_config(cfg):
    name = cfg["problem"]
    defaults = LOWER_DEFAULTS.get(name, {})
    eta = cfg["lower.eta"] if cfg["lower.eta"] is not None else defaults.get("eta", 0.01)
    M = cfg["lower.M"] if cfg["lower.M"] is not None else defaults.get("M", 1.0)
    return LowerSolverConfig(method=cfg["lower.method"], eta=eta, M=M,
                             max_iters=cfg["lower.K"],
                             grad_tol=cfg["lower.grad_tol"])


def experiment_initialization(problem_name, problem, seed):
    """Documented per-seed init map: the leader's start x0 for `seed`.

    Only x0 is drawn per seed.  The follower is a fixed algorithm with a fixed
    initialization and step size, so it always starts from the problem's own
    y0; redrawing y0 per seed would change the hyperfunction being optimized.
    minimax: x0 is the first component of `rng.seeded_initialization(seed)`
    (the same draw that starts the GDA baseline at (x0, y0)).  Other
    problems: x0 uniform on the feasible bounding box.
    """
    if problem_name == "minimax":
        return np.array([rng.seeded_initialization(seed)[0]])
    lo, hi = problem.feasible_set.bbox
    return rng.init_stream(seed).uniform(lo, hi)


def _config_echo(cfg):
    echo = {}
    for key, value in sorted(cfg.items()):
        echo[key] = value
    return echo


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _phase_points(problem, xs, lower_cfg, stride):
    pts = []
    for x in xs[::stride]:
        y_hat, _ = run_lower_lean(problem, x, lower_cfg)
        pts.append((float(x[0]), float(y_hat[0])))
    return pts


def _outer_config(cfg):
    return OuterConfig(T=cfg["outer.T"], beta=cfg["outer.beta"],
                       schedules=constant_schedules(cfg["sampling.N"], cfg["lower.K"]),
                       output_rule=cfg["outer.output_rule"])


def _smoothing_config(cfg, seed):
    return SmoothingConfig(xi=cfg["smoothing.xi"],
                           master_seed=cfg["smoothing.master_seed"] + seed)


def _run_one_seed(cfg, seed, out):
    name = cfg["problem"]
    problem = get_problem(name)
    x0 = experiment_initialization(name, problem, seed)
    lower = lower_config(cfg)
    smoothing = _smoothing_config(cfg, seed)
    trace = run_scinbio(problem, _outer_config(cfg), lower, smoothing, x0=x0)
    xs = trace.x_history()

    result = {"seed": seed, "x_final": [float(v) for v in trace.x_final],
              "x_out": [float(v) for v in trace.x_out]}
    T = cfg["outer.T"]
    window = 500 if T >= 1000 else max(1, T // 4)
    if T >= 2 * window and window >= 1:
        last, best, ratio = tail_stability(xs, window=window)
        result["tail_window"] = window
        result["tail_ratio"] = ratio
        result["verdict"] = "converged" if ratio <= 5.0 else "unstable"
    else:
        result["verdict"] = "short-run"

    # best of the last 100 iterations by hyperfunction value
    if problem.m == 1 and len(xs) > 1:
        tail = xs[:-1][-100:]
        best_val, best_point = None, None
        offset = len(xs) - 1 - len(tail)
        for k, x in enumerate(tail):
            y_hat, _ = run_lower_lean(problem, x, lower)
            val = problem.f(x, y_hat)
            if best_val is None or val < best_val:
                best_val = val
                best_point = {"t": offset + k, "x": [float(v) for v in x],
                              "y_hat": [float(v) for v in y_hat], "f": float(val)}
        result["best_of_last_100"] = best_point

    files = {}
    if "csv" in cfg["emit"]:
        stride = cfg["stride"]
        if stride > 1:
            thinned = dataclasses.replace(trace, rows=trace.rows[::stride])
            write_trace_csv(thinned, os.path.join(out, f"trace_seed{seed}.csv"))
        else:
            write_trace_csv(trace, os.path.join(out, f"trace_seed{seed}.csv"))
        files["trace"] = f"trace_seed{seed}.csv"
    if "json" in cfg["emit"]:
        extra = {"seed": seed, "run_config": _config_echo(cfg), "result": result}
        if cfg["audit"]:
            audit_n = 1024
            est = estimate_hypergradient(problem, trace.x_final, audit_n,
                                         smoothing, lower, stream_tag=T + 1)
            gm = gradient_mapping(trace.x_final, est.value, cfg["outer.beta"],
                                  problem.feasible_set)
            extra["audit"] = {"n_samples": audit_n,
                              "mapping_norm": float(np.linalg.norm(gm))}
        write_summary_json(trace, os.path.join(out, f"summary_seed{seed}.json"),
                           extra=extra)
        files["summary"] = f"summary_seed{seed}.json"
    if "svg" in cfg["emit"] and problem.m == 1:
        stride = max(1, (len(xs) - 1) // 400) if len(xs) > 1 else 1
        pts = _phase_points(problem, xs, lower, stride)
        lo, hi = problem.feasible_set.bbox
        py = [p[1] for p in pts]
        pad = 0.5
        canvas = SvgCanvas((float(lo[0]), float(hi[0])),
                           (min(py) - pad, max(py) + pad))
        canvas.axes_frame(f"{name} seed {seed}: (x_t, y_hat(x_t))")
        canvas.polyline([p[0] for p in pts], py, color="#1f77b4")
        canvas.circle(pts[0][0], pts[0][1], r=4, color="#2ca02c")
        canvas.circle(pts[-1][0], pts[-1][1], r=4, color="#d62728")
        if result.get("best_of_last_100"):
            bp = result["best_of_last_100"]
            canvas.circle(bp["x"][0], bp["y_hat"][0], r=5, color="#9467bd", fill=False)
        canvas.write(os.path.join(out, f"phase_seed{seed}.svg"))
        files["phase"] = f"phase_seed{seed}.svg"
    result["files"] = files
    return result


def cmd_run(cfg):
    # checked once here: inside a seed, a ConfigError would count as that seed's failure
    validate_run(get_problem(cfg["problem"]), _outer_config(cfg), _smoothing_config(cfg, 0))
    out = _ensure_outdir(cfg)
    results = {}
    with ThreadPoolExecutor(max_workers=max(1, cfg["workers"])) as pool:
        futures = {seed: pool.submit(_run_one_seed, cfg, seed, out)
                   for seed in cfg["seeds"]}
        for seed, fut in futures.items():
            try:
                results[seed] = fut.result()
            except Exception as exc:  # per-seed failures must not abort the sweep
                results[seed] = {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}
    verdicts = [r.get("verdict") for r in results.values()]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "run",
        "config": _config_echo(cfg),
        "results": {str(seed): results[seed] for seed in sorted(results)},
        "counts": {
            "converged": verdicts.count("converged"),
            "unstable": verdicts.count("unstable"),
            "short-run": verdicts.count("short-run"),
            "errors": sum(1 for r in results.values() if "error" in r),
        },
    }
    with open(os.path.join(out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))
    print(canonical_json({"report": os.path.join(out, "report.json"),
                          "counts": report["counts"]}).rstrip())
    return EXIT_NUMERICAL if report["counts"]["errors"] else EXIT_OK


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def cmd_scan(cfg):
    name = cfg["problem"]
    if name not in _SCAN_DEFAULTS:
        raise ConfigError([f"scan supports problems {sorted(_SCAN_DEFAULTS)}, got {name!r}"])
    defaults = _SCAN_DEFAULTS[name]
    res = cfg["scan.grid_resolution"] or defaults["grid_resolution"]
    y_lo = cfg["scan.y_lo"] if cfg["scan.y_lo"] is not None else defaults["y_lo"]
    y_hi = cfg["scan.y_hi"] if cfg["scan.y_hi"] is not None else defaults["y_hi"]
    y_res = cfg["scan.y_resolution"] or defaults["y_resolution"]
    out = _ensure_outdir(cfg)
    problem = get_problem(name)
    scan = scan_bifurcation_set(problem, res, (y_lo, y_hi), y_res)

    marked = scan.marked_centers()
    lo, hi = scan.bbox
    files = {}
    if "csv" in cfg["emit"]:
        path = os.path.join(out, f"scan_{name}.csv")
        c1, c2 = scan.cell_centers()
        lines = [f"# schema: {SCAN_CSV_SCHEMA}", "x1,x2,marked,lambda_min_abs"]
        for i in range(res):
            for j in range(res):
                lam = scan.lambda_min_grid[i, j]
                lam_txt = repr(float(lam)) if np.isfinite(lam) else ""
                lines.append(f"{float(c1[i])!r},{float(c2[j])!r},"
                             f"{int(scan.indicator[i, j])},{lam_txt}")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
        files["csv"] = path
    if "svg" in cfg["emit"]:
        path = os.path.join(out, f"scan_{name}.svg")
        canvas = SvgCanvas((float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1])))
        canvas.axes_frame(f"{name}: located degenerate stationary points")
        w1, w2 = scan.cell_size
        iso = _isolated_cells(scan.indicator)
        c1, c2 = scan.cell_centers()
        for i, j in zip(*np.nonzero(scan.indicator)):
            color = "#d62728" if iso[i, j] else "#1f77b4"  # red: isolated 0-d candidates
            canvas.rect_cell(c1[i], c2[j], w1, w2, color=color)
        canvas.write(path)
        files["svg"] = path

    dim_payload = {"schema": "scinbio-dimension-v1", "problem": name,
                   "config": _config_echo(cfg), "n_marked_cells": int(len(marked))}
    if len(marked) >= 2:
        extent = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        radii = [extent / 20 / (2 ** k) for k in range(4)]
        dim = box_counting_dimension(marked, radii)
        dim_payload.update({
            "radii": dim.radii, "counts": dim.counts, "slope": dim.slope,
            "d_hat": dim.d_hat, "r_squared": dim.r_squared_fit,
            "determined": dim.determined,
        })
        w = max(scan.cell_size)
        deltas = [4 * w * (2 ** k) for k in range(4)]
        dim_payload["tube_measure"] = [
            {"delta": d, "measure": m} for d, m in neighborhood_measure(scan, deltas)]
    path = os.path.join(out, f"dimension_{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(dim_payload))
    files["dimension"] = path
    print(canonical_json({"files": files,
                          "n_marked_cells": dim_payload["n_marked_cells"],
                          "d_hat": dim_payload.get("d_hat")}).rstrip())
    return EXIT_OK


def _isolated_cells(indicator):
    padded = np.pad(indicator, 1, constant_values=False)
    neighbors = np.zeros_like(indicator, dtype=int)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbors += padded[1 + di:padded.shape[0] - 1 + di,
                                1 + dj:padded.shape[1] - 1 + dj]
    return indicator & (neighbors == 0)


# ---------------------------------------------------------------------------
# gda
# ---------------------------------------------------------------------------

def cmd_gda(cfg):
    if cfg["problem"] != "minimax":
        raise ConfigError(["gda requires problem = minimax"])
    out = _ensure_outdir(cfg)
    problem = get_problem("minimax")
    results = {}
    for seed in cfg["seeds"]:
        init = rng.seeded_initialization(seed)
        trace = run_gda(problem, init, cfg["gda.step"], cfg["gda.max_steps"],
                        integrator=cfg["gda.integrator"])
        entry = {"seed": seed, "init": [float(v) for v in init],
                 "verdict": trace.verdict, "steps_taken": trace.steps_taken,
                 "final": [float(v) for v in trace.points[-1]]}
        if trace.cycle_witness is not None:
            entry["cycle_witness"] = list(trace.cycle_witness)
        files = {}
        if "csv" in cfg["emit"]:
            path = os.path.join(out, f"gda_seed{seed}.csv")
            stride = cfg["stride"]
            lines = [f"# schema: {GDA_CSV_SCHEMA}", "k,x,y"]
            for k, (x, y) in enumerate(trace.points[::stride]):
                lines.append(f"{k * stride},{float(x)!r},{float(y)!r}")
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
            files["csv"] = f"gda_seed{seed}.csv"
        if "svg" in cfg["emit"]:
            path = os.path.join(out, f"gda_seed{seed}.svg")
            _write_gda_svg(problem, trace, path, out, seed)
            files["svg"] = f"gda_seed{seed}.svg"
        entry["files"] = files
        results[seed] = entry
    verdicts = [r["verdict"] for r in results.values()]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "gda",
        "config": _config_echo(cfg),
        "results": {str(seed): results[seed] for seed in sorted(results)},
        "counts": {
            "cycling": verdicts.count(CYCLING),
            "converged": verdicts.count("converged"),
            "budget_exhausted": verdicts.count(BUDGET_EXHAUSTED),
        },
    }
    with open(os.path.join(out, "gda_report.json"), "w", encoding="utf-8") as fh:
        fh.write(canonical_json(report))
    print(canonical_json({"counts": report["counts"]}).rstrip())
    return EXIT_OK


def _write_gda_svg(problem, trace, path, out_dir, seed):
    pts = trace.points
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    canvas = SvgCanvas((lo[0], hi[0]), (lo[1], hi[1]))
    canvas.axes_frame(f"GDA seed {seed}: {trace.verdict}")
    arrow_scale = 0.04 * float(max(hi - lo))
    for gx in np.linspace(lo[0], hi[0], 18):
        for gy in np.linspace(lo[1], hi[1], 18):
            vx, vy = gda_field(problem, gx, gy)
            canvas.arrow(gx, gy, vx, vy, scale=arrow_scale)
    stride = max(1, len(pts) // 4000)
    canvas.polyline(pts[::stride, 0], pts[::stride, 1], color="#d62728", width=1.4)
    canvas.circle(pts[0, 0], pts[0, 1], r=4, color="#2ca02c")
    overlay = os.path.join(out_dir, f"trace_seed{seed}.csv")
    if os.path.exists(overlay):
        try:
            data = np.genfromtxt(overlay, delimiter=",", names=True, comments="#")
            canvas.polyline(np.atleast_1d(data["x0"]),
                            np.zeros_like(np.atleast_1d(data["x0"])) + lo[1] + 0.1,
                            color="#1f77b4", width=1.0, opacity=0.8)
        except Exception:
            pass
    canvas.write(path)


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def cmd_estimate(cfg, x_text):
    problem = get_problem(cfg["problem"])
    try:
        x = np.array([float(v) for v in str(x_text).split(",")])
    except ValueError:
        raise ConfigError([f"--x expects comma-separated floats, got {x_text!r}"])
    if x.shape != (problem.n,):
        raise ConfigError([f"--x must have {problem.n} component(s)"])
    if not problem.feasible_set.contains(x):
        raise ConfigError([f"x = {x.tolist()} is outside the feasible set"])
    lower = lower_config(cfg)
    smoothing = SmoothingConfig(xi=cfg["smoothing.xi"],
                                master_seed=cfg["smoothing.master_seed"])
    n = cfg["estimate.N"]
    batches = cfg["estimate.batches"]
    estimates = []
    infeasible = 0
    for b in range(batches):
        est = estimate_hypergradient(problem, x, n, smoothing, lower, stream_tag=b)
        estimates.append(est.value)
        if b == 0:
            infeasible = est.infeasible_count
    estimates = np.asarray(estimates)
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(batches)
    payload = {
        "schema": "scinbio-estimate-v1",
        "config": _config_echo(cfg),
        "x": [float(v) for v in x],
        "estimate": [float(v) for v in estimates[0]],
        "estimate_norm": float(np.linalg.norm(estimates[0])),
        "n_samples": n,
        "infeasible_count": infeasible,
        "gradient_norm_bound": gradient_norm_bound(problem.f_bar, smoothing.xi),
        "batches": batches,
        "batch_mean": [float(v) for v in mean],
        "batch_standard_error": float(np.linalg.norm(se)),
    }
    sys.stdout.write(canonical_json(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="scinbio",
        description="Smoothed correspondence-driven bilevel optimization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [("run", "multi-seed outer-loop experiment"),
                      ("scan", "bifurcation-set grid scan"),
                      ("gda", "gradient descent-ascent baseline"),
                      ("estimate", "one-off hypergradient estimate")]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--problem", choices=list(PROBLEM_NAMES))
        p.add_argument("--seed", help="seed list, e.g. 0,1,2 or 0-14")
        p.add_argument("--out", help="output directory")
        p.add_argument("--stride", type=int, help="thin CSV traces by this factor")
        p.add_argument("--audit", action="store_true",
                       help="re-estimate the gradient mapping at the final point")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config key")
        if name == "estimate":
            p.add_argument("--x", required=True,
                           help="evaluation point, comma-separated floats")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "run":
            return cmd_run(cfg)
        if args.command == "scan":
            return cmd_scan(cfg)
        if args.command == "gda":
            return cmd_gda(cfg)
        return cmd_estimate(cfg, args.x)
    except ConfigError as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
