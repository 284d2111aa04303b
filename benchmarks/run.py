"""Benchmark of `scinbio run`, `scinbio gda` and `scinbio scan`.

    python3 benchmarks/run.py --workload minimax-experiment --seed 1 --seconds 25 --trace 0

Runs rounds of one workload (workloads.py) for about --seconds, at least
MIN_ROUNDS of them.  Every round runs in a fresh process (child.py) that sets
up, then calls `scinbio.cli.main` once per command.  The outputs of every
round are checked apart from the program (checks.py) and then deleted.

With --trace 0 the result holds the end-to-end metrics, each the median over
the rounds; with --trace 1 the rounds record spans (tracing.py) and the
result holds the per-layer metrics, each the median over the rounds.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  `--workload all` runs every workload and
ends with one object keyed by workload.  Exits with 2, printing no result,
when the checkout holds no `src/scinbio`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, build  # noqa: E402

ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".bench_runs")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 120
DEADLINE_S = 120   # no round starts later than this after the run began

END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mib": "MiB"}
RATE_UNITS = {"outer_iters_per_s": "iter/s", "gda_steps_per_s": "step/s",
              "scan_cells_per_s": "cell/s"}


def run_round(commands, round_dir, trace, spans_path):
    """Run one round in a fresh process; returns its record, or None."""
    os.makedirs(round_dir)
    spec_path = os.path.join(round_dir, "spec.json")
    record_path = os.path.join(round_dir, "record.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"root": ROOT, "trace": bool(trace), "record_path": record_path,
                   "spans_path": spans_path,
                   "commands": [c["argv"] + ["--out", os.path.join(round_dir, f"cmd{i}")]
                                for i, c in enumerate(commands)]}, fh)
    log_path = os.path.join(round_dir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        try:
            subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                           stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                           timeout=ROUND_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            pass  # subprocess.run has killed and reaped the child
    if not os.path.exists(record_path):
        with open(log_path, encoding="utf-8") as fh:
            sys.stderr.write(f"round without a record:\n{fh.read()[-4000:]}\n")
        return None
    with open(record_path, encoding="utf-8") as fh:
        record = json.load(fh)
    record["setup_s"] = record["ready"] - spawned
    return record


def evaluate_round(commands, record, round_dir):
    """Failed operations, check failures and measurements of one round."""
    if record is None:
        return sum(c["ops"] for c in commands), [], None
    failed, problems = 0, []
    measured = {"setup_s": record["setup_s"], "peak_rss_mib": record["peak_rss_kib"] / 1024.0,
                "round_s": sum(r["seconds"] for r in record["commands"]),
                "layers": record.get("layers"), "rates": {}}
    for i, (cmd, res) in enumerate(zip(commands, record["commands"])):
        out = os.path.join(round_dir, f"cmd{i}")
        if res["error"]:
            sys.stderr.write(f"{' '.join(cmd['argv'])} raised\n{res['error']}\n")
        cmd_failed, cmd_problems = checks.check_command(cmd, out, res["exit_code"])
        failed += cmd_failed
        problems += cmd_problems
        if cmd_failed == 0:
            work = cmd["work"] if cmd["work"] is not None else checks.gda_steps(out)
            rates = measured["rates"].setdefault(cmd["rate"], [0, 0.0])
            rates[0] += work
            rates[1] += res["seconds"]
    return failed, problems, measured


def run_workload(workload, seed, seconds, trace):
    commands = build(workload, seed)
    run_dir = os.path.join(RUNS_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    spans_path = os.path.join(RUNS_DIR, f"spans_{workload}_seed{seed}.json")
    os.makedirs(run_dir, exist_ok=True)
    start = time.monotonic()
    attempted = failed = 0
    problems, rounds = [], []
    try:
        while True:
            elapsed = time.monotonic() - start
            if attempted and (elapsed > DEADLINE_S or (
                    len(rounds) >= MIN_ROUNDS
                    and elapsed + 0.5 * elapsed / len(rounds) >= seconds)):
                break
            round_dir = os.path.join(run_dir, f"round{len(rounds)}")
            record = run_round(commands, round_dir, trace, spans_path)
            f, p, measured = evaluate_round(commands, record, round_dir)
            attempted += sum(c["ops"] for c in commands)
            failed += f
            problems += p
            rounds.append(measured)
            if measured is not None:
                sys.stderr.write(f"{workload} round {len(rounds) - 1}: " + ", ".join(
                    f"{n} {measured[n]:.6g}" for n in END_TO_END) + "\n")
            shutil.rmtree(round_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    done = [r for r in rounds if r is not None]
    for msg in problems[:20]:
        sys.stderr.write(f"CHECK FAILED {msg}\n")
    if trace:
        units = tracing.PER_LAYER
        values = {n: [r["layers"][n] for r in done] for n in units}
    else:
        units = END_TO_END
        values = {n: [r[n] for r in done] for n in units}
    rates = {}
    for r in done:
        for name, (work, secs) in r["rates"].items():
            rates.setdefault(name, []).append(work / secs)
    return {"correct": not problems and bool(done), "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": statistics.median(v), "unit": units[n]}
                        for n, v in values.items() if v},
            "rates": {n: statistics.median(v) for n, v in rates.items()},
            "round_s": statistics.median(r["round_s"] for r in done) if done else None,
            "rounds": len(rounds)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "scinbio", "cli.py")):
        sys.stderr.write(f"no scinbio sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        res = run_workload(workload, args.seed, args.seconds, args.trace)
        print(f"{workload} (seed {args.seed}, trace {args.trace}): {res['rounds']} rounds, "
              f"{res['attempted']} operations attempted, {res['failed']} failed, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        if args.trace and res["round_s"] is not None:
            print(f"  round_s = {res['round_s']:.6g} s (traced)")
        for name, value in res["rates"].items():
            print(f"  {name} = {value:.6g} {RATE_UNITS[name]} (derived)")
        results[workload] = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(results[workloads[0]] if len(workloads) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
