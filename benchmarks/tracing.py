"""Spans and counters recorded around `scinbio`'s layers, from outside the package.

`install` replaces public functions of each module with wrappers, at the name
through which the caller looks them up (a `from ... import` binds a copy, so
both the defining module and the importing one are patched where both are
used).  Coarse calls record spans: name, start, end, parent, attributes.
Hot leaf calls (oracles, the cubic subproblem, the GDA field, random
streams) only count calls and add up their time.  Everything stays in memory
until `layer_metrics` and `write_spans` run at the end of the round.

`run_scinbio` runs on a `ThreadPoolExecutor` worker, so each thread keeps its
own span stack, and a seed's span names the running command as its parent.
"""

import dataclasses
import json
import os
import threading
import time

import numpy as np

# Oracle counters of the problem bundle: BilevelProblem field -> counter name.
ORACLES = {"f": "problems.f", "g": "problems.g", "grad_y_g": "problems.grad",
           "hess_yy_g": "problems.hess", "grad_x_grad_y_g": "problems.cross"}

# Per-layer metrics and their units.
PER_LAYER = {
    "problems.grad_calls": "count", "problems.hess_calls": "count",
    "problems.f_calls": "count", "problems.oracle_s": "s",
    "lower.solves": "count", "lower.solve_s": "s", "lower.solve_us_p50": "us",
    "lower.solve_us_p99": "us", "lower.subproblem_calls": "count", "lower.subproblem_s": "s",
    "smoothing.estimates": "count", "smoothing.samples": "count",
    "smoothing.estimate_s": "s", "smoothing.feasible_ratio": "ratio",
    "rng.streams": "count", "rng.stream_s": "s",
    "outer.iters": "count", "outer.self_s": "s", "outer.iter_ms_p50": "ms",
    "outer.iter_ms_p99": "ms", "outer.write_s": "s", "outer.bytes_written": "B",
    "cli.self_s": "s", "cli.post_lower_solves": "count",
    "svg.write_s": "s", "svg.bytes_written": "B",
    "geometry.scan_s": "s", "geometry.cells": "count",
    "geometry.grad_calls_per_cell": "calls/cell", "geometry.hess_calls_per_cell": "calls/cell",
    "geometry.marked_cells": "count", "geometry.dimension_s": "s",
    "baselines.gda_s": "s", "baselines.steps": "count", "baselines.field_calls": "count",
    "baselines.field_s": "s", "baselines.detect_cycle_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans = []      # [name, start, end, parent, attrs]
        self.counters = {}   # name -> [calls, seconds]
        self.command = None  # index of the open cli command span
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, fn, attrs=None, under_command=False):
        """Wrap fn in a span; attrs(args, result) adds attributes on return."""
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (self.command if under_command else None)
            idx = len(self.spans)
            rec = [name, time.perf_counter(), None, parent, None]
            self.spans.append(rec)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, result)
            return result
        return wrapper

    def command_span(self, name, fn):
        inner = self.span(name, fn)

        def wrapper(*args, **kwargs):
            self.command = len(self.spans)
            try:
                return inner(*args, **kwargs)
            finally:
                self.command = None
        return wrapper

    def counted(self, name, fn):
        counter = self.counters.setdefault(name, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counter[0] += 1
                counter[1] += clock() - t0
        return wrapper

    def snapshot(self, *names):
        return tuple(self.counters.get(n, (0, 0.0))[0] for n in names)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                                 for n, s, e, p, a in self.spans],
                       "counters": self.counters}, fh)


def _file_size(args, _result):
    return {"bytes": os.path.getsize(args[1])}  # args[1] is the path written


def install(tracer, cli):
    """Patch the package's modules so that their calls feed `tracer`."""
    from scinbio import baselines, lower, outer, rng, smoothing, svg

    def traced_problem(name):
        problem = get_problem(name)
        wrapped = {field: tracer.counted(counter, getattr(problem, field))
                   for field, counter in ORACLES.items()
                   if getattr(problem, field) is not None}
        return dataclasses.replace(problem, **wrapped)

    get_problem = cli.get_problem
    cli.get_problem = traced_problem

    for name in ("cmd_run", "cmd_gda", "cmd_scan"):
        setattr(cli, name, tracer.command_span("cli." + name, getattr(cli, name)))
    cli._run_one_seed = tracer.span("cli.run_one_seed", cli._run_one_seed,
                                    under_command=True)

    smoothing.run_lower_lean = tracer.span("lower.solve", smoothing.run_lower_lean)
    cli.run_lower_lean = tracer.span("lower.solve.post", cli.run_lower_lean)
    lower.solve_cubic_subproblem = tracer.counted("lower.subproblem",
                                                  lower.solve_cubic_subproblem)
    outer.estimate_hypergradient = tracer.span(
        "smoothing.estimate", outer.estimate_hypergradient,
        attrs=lambda a, est: {"samples": est.samples_used,
                              "infeasible": est.infeasible_count})
    rng.stream = tracer.counted("rng.stream", rng.stream)
    cli.run_scinbio = tracer.span("outer.run_scinbio", cli.run_scinbio,
                                  attrs=lambda a, trace: {"iters": len(trace.rows)})
    cli.write_trace_csv = tracer.span("outer.write", cli.write_trace_csv, attrs=_file_size)
    cli.write_summary_json = tracer.span("outer.write", cli.write_summary_json,
                                         attrs=_file_size)
    svg.SvgCanvas.write = tracer.span("svg.write", svg.SvgCanvas.write, attrs=_file_size)

    def scan(problem, *args, **kwargs):
        before = tracer.snapshot("problems.grad", "problems.hess")
        result = scan_bifurcation_set(problem, *args, **kwargs)
        after = tracer.snapshot("problems.grad", "problems.hess")
        scan_attrs.update(cells=result.grid_resolution ** 2,
                          marked=int(result.indicator.sum()),
                          grad=after[0] - before[0], hess=after[1] - before[1])
        return result

    scan_attrs = {}
    scan_bifurcation_set = cli.scan_bifurcation_set
    cli.scan_bifurcation_set = tracer.span("geometry.scan", scan,
                                           attrs=lambda a, r: dict(scan_attrs))
    cli.box_counting_dimension = tracer.span("geometry.dimension",
                                             cli.box_counting_dimension)
    cli.neighborhood_measure = tracer.span("geometry.dimension", cli.neighborhood_measure)

    cli.run_gda = tracer.span("baselines.run_gda", cli.run_gda,
                              attrs=lambda a, trace: {"steps": trace.steps_taken})
    baselines.gda_field = tracer.counted("baselines.field", baselines.gda_field)
    cli.gda_field = tracer.counted("baselines.field", cli.gda_field)
    baselines.detect_cycle = tracer.span("baselines.detect_cycle", baselines.detect_cycle)


def _pct(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of one round from the recorded spans and counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start

    def select(*prefixes):
        return [(i, s) for i, s in enumerate(spans) if s[0] in prefixes]

    def total(*prefixes):
        return sum(s[2] - s[1] for _, s in select(*prefixes))

    def self_time(*prefixes):
        return sum(s[2] - s[1] - child_time[i] for i, s in select(*prefixes))

    def attr_sum(key, *prefixes):
        return sum((s[4] or {}).get(key, 0) for _, s in select(*prefixes))

    def counter(name):
        return tracer.counters.get(name, [0, 0.0])

    solves = [s[2] - s[1] for _, s in select("lower.solve", "lower.solve.post")]
    iter_gaps = []
    starts_by_run = {}
    for _, s in select("smoothing.estimate"):
        starts_by_run.setdefault(s[3], []).append(s[1])
    for starts in starts_by_run.values():
        iter_gaps.extend(np.diff(starts))
    samples = attr_sum("samples", "smoothing.estimate")
    infeasible = attr_sum("infeasible", "smoothing.estimate")
    cells = attr_sum("cells", "geometry.scan")
    field = counter("baselines.field")
    return {
        "problems.grad_calls": counter("problems.grad")[0],
        "problems.hess_calls": counter("problems.hess")[0],
        "problems.f_calls": counter("problems.f")[0],
        "problems.oracle_s": sum(counter(c)[1] for c in ORACLES.values()),
        "lower.solves": len(solves),
        "lower.solve_s": float(sum(solves)),
        "lower.solve_us_p50": 1e6 * _pct(solves, 50),
        "lower.solve_us_p99": 1e6 * _pct(solves, 99),
        "lower.subproblem_calls": counter("lower.subproblem")[0],
        "lower.subproblem_s": counter("lower.subproblem")[1],
        "smoothing.estimates": len(select("smoothing.estimate")),
        "smoothing.samples": samples,
        "smoothing.estimate_s": total("smoothing.estimate"),
        "smoothing.feasible_ratio": (samples - infeasible) / samples if samples else 0.0,
        "rng.streams": counter("rng.stream")[0],
        "rng.stream_s": counter("rng.stream")[1],
        "outer.iters": attr_sum("iters", "outer.run_scinbio"),
        "outer.self_s": self_time("outer.run_scinbio"),
        "outer.iter_ms_p50": 1e3 * _pct(iter_gaps, 50),
        "outer.iter_ms_p99": 1e3 * _pct(iter_gaps, 99),
        "outer.write_s": total("outer.write"),
        "outer.bytes_written": attr_sum("bytes", "outer.write"),
        "cli.self_s": self_time("cli.cmd_run", "cli.cmd_gda", "cli.cmd_scan",
                                "cli.run_one_seed"),
        "cli.post_lower_solves": len(select("lower.solve.post")),
        "svg.write_s": total("svg.write"),
        "svg.bytes_written": attr_sum("bytes", "svg.write"),
        "geometry.scan_s": total("geometry.scan"),
        "geometry.cells": cells,
        "geometry.grad_calls_per_cell": attr_sum("grad", "geometry.scan") / cells if cells else 0.0,
        "geometry.hess_calls_per_cell": attr_sum("hess", "geometry.scan") / cells if cells else 0.0,
        "geometry.marked_cells": attr_sum("marked", "geometry.scan"),
        "geometry.dimension_s": total("geometry.dimension"),
        "baselines.gda_s": total("baselines.run_gda"),
        "baselines.steps": attr_sum("steps", "baselines.run_gda"),
        "baselines.field_calls": field[0],
        "baselines.field_s": field[1],
        "baselines.detect_cycle_s": total("baselines.detect_cycle"),
    }
