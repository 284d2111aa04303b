"""Command-line front end: run | scan | gda | estimate.

`_KEYS` is the one list of settable keys, with each key's parser and default.
Values come from an optional key = value file ('#' comments), then `--set
key=value`, then the dedicated flags; later sources win.  The problem's own
defaults (the follower's eta and M, the scan grid) are resolved into the
configuration, so every output JSON echoes the values the run used.  The
outer, lower and smoothing keys are checked by their config dataclasses.

Exit codes: 0 success, 2 config error, 3 numerical failure, 4 I/O failure.
"""

import argparse
import math
import os
import sys

import numpy as np

from . import rng
from .baselines import BUDGET_EXHAUSTED, CYCLING, gda_field, run_gda
from .errors import ConfigError, NumericalError
from .geometry import box_counting_dimension, neighborhood_measure, scan_bifurcation_set
from .lower import GRADIENT_DESCENT, LowerSolverConfig, run_lower_lean
from .outer import (OuterConfig, canonical_json, constant_schedules,
                    gradient_mapping, run_scinbio, tail_stability,
                    validate_run, write_summary_json, write_trace_csv)
from .problems import (LOWER_DEFAULTS, PROBLEM_NAMES, call_oracle, get_problem,
                       minimax_gradient)
from .smoothing import SmoothingConfig, estimate_hypergradient, gradient_norm_bound
from .svg import SvgCanvas

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

REPORT_SCHEMA = "scinbio-report-v1"
SCAN_CSV_SCHEMA = "scinbio-scan-v1"
GDA_CSV_SCHEMA = "scinbio-gda-v1"


def parse_seed_list(text):
    """Seed lists like '0,1,2', '0-14', or '0-3,7'; a descending range is an error."""
    seeds = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "-" in chunk[1:]:
            lo, hi = (int(v) for v in chunk.split("-", 1))
            if hi < lo:
                raise ConfigError([f"seeds: range {chunk!r} is descending"])
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(chunk))
    return seeds


def _parse_bool(text):
    word = text.strip().lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"not a boolean: {text!r}")
    return word in ("1", "true", "yes", "on")


def _parse_list(text):
    return [item.strip() for item in text.split(",") if item.strip()]


# The one list of settable keys: key -> (parser of its text form, default).
# A default of None is filled from the problem, where it has one, by `resolve_config`.
_KEYS = {
    "problem": (str, "minimax"),
    "seeds": (parse_seed_list, list(range(15))),
    "out": (str, "out"),
    "stride": (int, 1),
    "audit": (_parse_bool, False),
    # no effect: `run` advances all seeds in lockstep in one thread; kept so
    # that existing configurations still parse
    "workers": (int, 1),
    "emit": (_parse_list, ["csv", "json", "svg"]),
    "outer.T": (int, 10000),
    "outer.beta": (float, 0.005),
    "outer.output_rule": (str, "last"),
    "lower.method": (str, GRADIENT_DESCENT),
    "lower.eta": (float, None),
    "lower.M": (float, None),
    "lower.K": (int, 200),
    "lower.grad_tol": (float, 0.0),
    "smoothing.xi": (float, 0.05),
    "smoothing.master_seed": (int, 2024),
    "sampling.N": (int, 3),
    "scan.grid_resolution": (int, None),
    "scan.y_lo": (float, None),
    "scan.y_hi": (float, None),
    "scan.y_resolution": (int, None),
    "gda.step": (float, 0.01),
    "gda.max_steps": (int, 50000),
    "gda.integrator": (str, "rk4"),
    "estimate.N": (int, 1000),
    "estimate.batches": (int, 10),
}

_SCAN_DEFAULTS = {
    "fold": {"scan.grid_resolution": 200, "scan.y_lo": -1.0, "scan.y_hi": 1.0,
             "scan.y_resolution": 400},
    "quartic": {"scan.grid_resolution": 300, "scan.y_lo": -250.0, "scan.y_hi": 250.0,
                "scan.y_resolution": 2000},
}

# config dataclass fields whose key is not `section.field`
_FIELD_KEYS = {"lower.max_iters": "lower.K"}

# integer keys with no config object: key -> least allowed value
_AT_LEAST = {"stride": 1, "workers": 1, "sampling.N": 1, "gda.max_steps": 1,
             "estimate.N": 1, "estimate.batches": 2, "scan.grid_resolution": 2,
             "scan.y_resolution": 2}


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


def resolve_config(args):
    """Defaults <- config file <- --set overrides <- dedicated flags, then
    the problem's defaults; reports every invalid value at once."""
    errors = []
    cfg = {key: default for key, (_, default) in _KEYS.items()}

    def assign(key, text):
        if key not in _KEYS:
            errors.append(f"unknown config key {key!r}")
            return
        try:
            cfg[key] = _KEYS[key][0](text)
        except ConfigError as exc:
            errors.extend(exc.messages)
        except ValueError:
            errors.append(f"config key {key!r}: cannot parse {text!r}")

    if args.config:
        try:
            file_values = parse_config_file(args.config)
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"])
        for key, text in file_values.items():
            assign(key, text)
    for item in args.set or []:
        if "=" not in item:
            errors.append(f"--set expects key=value, got {item!r}")
            continue
        assign(*(part.strip() for part in item.split("=", 1)))
    for key in ("problem", "seeds", "out", "stride", "audit"):  # the dedicated flags
        if getattr(args, key) is not None:
            assign(key, getattr(args, key))

    name = cfg["problem"]
    if name not in PROBLEM_NAMES:
        raise ConfigError(errors + [f"problem must be one of {', '.join(PROBLEM_NAMES)}"])
    problem_defaults = {"lower.eta": LOWER_DEFAULTS[name]["eta"],
                        "lower.M": LOWER_DEFAULTS[name]["M"],
                        **_SCAN_DEFAULTS.get(name, {})}
    for key, value in problem_defaults.items():
        if cfg[key] is None:
            cfg[key] = value

    for section, check in (("outer", lambda: _outer_config(cfg)),
                           ("lower", lambda: lower_config(cfg)),
                           ("smoothing", lambda: _smoothing_config(cfg, 0))):
        try:
            check()
        except ConfigError as exc:  # each message begins with the field at fault
            for msg in exc.messages:
                field, _, rest = msg.partition(" ")
                key = f"{section}.{field}"
                errors.append(f"{_FIELD_KEYS.get(key, key)} {rest}")
    if not cfg["seeds"]:
        errors.append("seeds must be nonempty")
    if any(seed < 0 for seed in cfg["seeds"]):
        errors.append("seeds must be nonnegative")
    for key, least in _AT_LEAST.items():
        if cfg[key] is not None and cfg[key] < least:
            errors.append(f"{key} must be at least {least}")
    if not 0 < cfg["gda.step"] < math.inf:
        errors.append("gda.step must be positive and finite")
    window = [cfg[key] for key in ("scan.y_lo", "scan.y_hi") if cfg[key] is not None]
    if not all(map(math.isfinite, window)) or len(window) == 2 and not window[0] < window[1]:
        errors.append("scan.y_lo and scan.y_hi must be finite with scan.y_lo < scan.y_hi")
    if cfg["gda.integrator"] not in ("euler", "rk4"):
        errors.append("gda.integrator must be euler|rk4")
    bad_emit = set(cfg["emit"]) - {"csv", "json", "svg"}
    if bad_emit:
        errors.append(f"emit entries must be csv|json|svg, got {sorted(bad_emit)}")
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
    return LowerSolverConfig(method=cfg["lower.method"], eta=cfg["lower.eta"],
                             M=cfg["lower.M"], max_iters=cfg["lower.K"],
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


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def _solved(res, rows):
    """y_hat of the solve res at the slice rows of its points; the first
    failed point there raises the error its own solve would."""
    for exc in res.errors[rows]:
        if exc is not None:
            raise exc
    return res.y_hat[rows]


def _estimate_at(problem, x, n_samples, smoothing, lower_cfg, stream_tag):
    """The one-row GradientEstimates at the point x (n,); its EstimatorError
    is raised."""
    est = estimate_hypergradient(problem, x[None, :], n_samples, [smoothing], lower_cfg,
                                 stream_tag=stream_tag)
    if est.errors[0] is not None:
        raise est.errors[0]
    return est


def _outer_config(cfg):
    return OuterConfig(T=cfg["outer.T"], beta=cfg["outer.beta"],
                       schedules=constant_schedules(cfg["sampling.N"], cfg["lower.K"]),
                       output_rule=cfg["outer.output_rule"])


def _smoothing_config(cfg, seed):
    return SmoothingConfig(xi=cfg["smoothing.xi"],
                           master_seed=cfg["smoothing.master_seed"] + seed)


def _run_one_seed(cfg, seed, problem, lower, smoothing, trace, out):
    """Verdict, best point and output files of one seed's finished run."""
    name = cfg["problem"]
    xs = trace.x

    result = {"seed": seed, "x_final": [float(v) for v in trace.x_final],
              "x_out": [float(v) for v in trace.x_out]}
    T = cfg["outer.T"]
    window = 500 if T >= 1000 else max(1, T // 4)
    if T >= 2 * window:
        last, best, ratio = tail_stability(xs, window=window)
        result["tail_window"] = window
        result["tail_ratio"] = ratio
        result["verdict"] = "converged" if ratio <= 5.0 else "unstable"
    else:
        result["verdict"] = "short-run"

    # one solve serves the best-of-last-100 tail and the phase plot: tail
    # rows first, then phase rows; each part raises its first error where
    # it is used, as its own solve would
    tail = xs[:-1][-100:]
    phase = xs[::max(1, (len(xs) - 1) // 400)] if "svg" in cfg["emit"] else xs[:0]
    rows = np.concatenate([tail, phase])
    solve = run_lower_lean(problem, rows, lower) if len(rows) else None

    # best of the last 100 iterations by hyperfunction value
    if len(tail):
        offset = len(xs) - 1 - len(tail)
        y_hat = _solved(solve, slice(len(tail)))
        vals = call_oracle(problem, "f", tail, y_hat)
        k = int(np.argmin(vals))
        result["best_of_last_100"] = {"t": offset + k, "x": [float(v) for v in tail[k]],
                                      "y_hat": [float(y_hat[k])],
                                      "f": float(vals[k])}

    files = {}
    if "csv" in cfg["emit"]:
        write_trace_csv(trace, os.path.join(out, f"trace_seed{seed}.csv"), cfg["stride"])
        files["trace"] = f"trace_seed{seed}.csv"
    if "json" in cfg["emit"]:
        extra = {"seed": seed, "run_config": cfg, "result": result}
        if cfg["audit"]:
            audit_n = 1024
            est = _estimate_at(problem, trace.x_final, audit_n, smoothing, lower, T + 1)
            gm = gradient_mapping(trace.x_final, est.value[0], cfg["outer.beta"],
                                  problem.feasible_set)
            extra["audit"] = {"n_samples": audit_n,
                              "mapping_norm": float(np.linalg.norm(gm))}
        write_summary_json(trace, os.path.join(out, f"summary_seed{seed}.json"),
                           extra=extra)
        files["summary"] = f"summary_seed{seed}.json"
    if "svg" in cfg["emit"]:
        pts = list(zip(phase[:, 0].tolist(), _solved(solve, slice(len(tail), None)).tolist()))
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
    name = cfg["problem"]
    problem = get_problem(name)
    seeds = cfg["seeds"]
    outer = _outer_config(cfg)
    lower = lower_config(cfg)
    smoothings = [_smoothing_config(cfg, seed) for seed in seeds]
    # checked once here: inside a seed, a ConfigError would count as that seed's failure
    validate_run(problem, outer, smoothings[0])
    out = _ensure_outdir(cfg)
    x0s = [experiment_initialization(name, problem, seed) for seed in seeds]
    try:
        outcomes = run_scinbio(problem, outer, lower, smoothings, x0=x0s).traces
    except Exception as exc:  # not one seed's failure: every seed reports it
        outcomes = [exc] * len(seeds)
    results = {}
    for seed, smoothing, outcome in zip(seeds, smoothings, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            results[seed] = _run_one_seed(cfg, seed, problem, lower, smoothing,
                                          outcome, out)
        except Exception as exc:  # per-seed failures must not abort the sweep
            results[seed] = {"seed": seed, "error": f"{type(exc).__name__}: {exc}"}
    verdicts = [r.get("verdict") for r in results.values()]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "run",
        "config": cfg,
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
    res = cfg["scan.grid_resolution"]
    out = _ensure_outdir(cfg)
    problem = get_problem(name)
    scan = scan_bifurcation_set(problem, res, (cfg["scan.y_lo"], cfg["scan.y_hi"]),
                                cfg["scan.y_resolution"])

    marked = scan.marked_centers()
    lo, hi = scan.bbox
    files = {}
    if "csv" in cfg["emit"]:
        path = os.path.join(out, f"scan_{name}.csv")
        c1, c2 = ([repr(c) for c in axis.tolist()] for axis in scan.cell_centers())
        lines = [f"# schema: {SCAN_CSV_SCHEMA}", "x1,x2,marked,lambda_min_abs"]
        for x1, flags, lams in zip(c1, scan.indicator.astype(int).tolist(),
                                   scan.lambda_min_grid.tolist()):
            lines += [f"{x1},{x2},{flag},{repr(lam) if math.isfinite(lam) else ''}"
                      for x2, flag, lam in zip(c2, flags, lams)]
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
                   "config": cfg, "n_marked_cells": int(len(marked))}
    if len(marked) >= 2:
        extent = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        radii = [extent / 20 / (2 ** k) for k in range(4)]
        dim = box_counting_dimension(marked, radii)
        # an undetermined fit is NaN, which JSON cannot hold: it is written as null
        known = dim.determined
        dim_payload.update({
            "radii": dim.radii, "counts": dim.counts,
            "slope": dim.slope if known else None,
            "d_hat": dim.d_hat if known else None,
            "r_squared": dim.r_squared_fit if known else None,
            "determined": known,
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
    results = {}
    for seed in cfg["seeds"]:
        init = rng.seeded_initialization(seed)
        trace = run_gda(minimax_gradient, init, cfg["gda.step"], cfg["gda.max_steps"],
                        integrator=cfg["gda.integrator"])
        entry = {"seed": seed, "init": [float(v) for v in init],
                 "verdict": trace.verdict, "steps_taken": trace.steps_taken,
                 "final": [float(v) for v in trace.points[-1]],
                 "final_window_displacement": trace.final_window_displacement}
        if trace.cycle_witness is not None:
            entry["cycle_witness"] = list(trace.cycle_witness)
        files = {}
        if "csv" in cfg["emit"]:
            path = os.path.join(out, f"gda_seed{seed}.csv")
            stride = cfg["stride"]
            pts = trace.points[::stride]
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(f"# schema: {GDA_CSV_SCHEMA}\nk,x,y\n")
                for c0 in range(0, len(pts), 4096):  # a chunk of rows per write
                    xs, ys = pts[c0:c0 + 4096].T.tolist()
                    fh.write("".join(f"{(c0 + k) * stride},{x!r},{y!r}\n"
                                     for k, (x, y) in enumerate(zip(xs, ys))))
            files["csv"] = f"gda_seed{seed}.csv"
        if "svg" in cfg["emit"]:
            path = os.path.join(out, f"gda_seed{seed}.svg")
            _write_gda_svg(trace, path, seed)
            files["svg"] = f"gda_seed{seed}.svg"
        entry["files"] = files
        results[seed] = entry
    verdicts = [r["verdict"] for r in results.values()]
    report = {
        "schema": REPORT_SCHEMA,
        "command": "gda",
        "config": cfg,
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


def _write_gda_svg(trace, path, seed):
    pts = trace.points
    lo = pts.min(axis=0) - 0.5
    hi = pts.max(axis=0) + 0.5
    canvas = SvgCanvas((lo[0], hi[0]), (lo[1], hi[1]))
    canvas.axes_frame(f"GDA seed {seed}: {trace.verdict}")
    arrow_scale = 0.04 * float(max(hi - lo))
    for gx in np.linspace(lo[0], hi[0], 18):
        for gy in np.linspace(lo[1], hi[1], 18):
            vx, vy = gda_field(minimax_gradient, gx, gy)
            canvas.arrow(gx, gy, vx, vy, scale=arrow_scale)
    stride = max(1, len(pts) // 4000)
    canvas.polyline(pts[::stride, 0], pts[::stride, 1], color="#d62728", width=1.4)
    canvas.circle(pts[0, 0], pts[0, 1], r=4, color="#2ca02c")
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
    smoothing = _smoothing_config(cfg, 0)
    n = cfg["estimate.N"]
    batches = cfg["estimate.batches"]
    ests = [_estimate_at(problem, x, n, smoothing, lower, b) for b in range(batches)]
    estimates = np.concatenate([est.value for est in ests])
    mean = estimates.mean(axis=0)
    se = estimates.std(axis=0, ddof=1) / np.sqrt(batches)
    payload = {
        "schema": "scinbio-estimate-v1",
        "config": cfg,
        "x": [float(v) for v in x],
        "estimate": [float(v) for v in estimates[0]],
        "estimate_norm": float(np.linalg.norm(estimates[0])),
        "n_samples": n,
        "infeasible_count": ests[0].infeasible_count,
        "smoothed_value": float(np.mean(ests[0].per_sample_f[0])),
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
        p.add_argument("--seed", dest="seeds", help="seed list, e.g. 0,1,2 or 0-14")
        p.add_argument("--out", help="output directory")
        p.add_argument("--stride", help="thin CSV traces by this factor")
        p.add_argument("--audit", action="store_const", const="true",
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
