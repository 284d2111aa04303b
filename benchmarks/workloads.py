"""Workload definitions: the `scinbio` commands each workload runs, made from a seed.

A workload is a list of commands.  One pass over the list is a round; every
round of a run executes the same commands on the same inputs in a fresh
process.  Each command records what an independent check needs to verify its
outputs (see checks.py), how many operations it holds (one per seed of `run`
or `gda`, one per `scan`) and its work items for the derived rates.
"""

import random

WORKLOADS = ("minimax-experiment", "fold-cubic-newton", "bifurcation-scan")

# The paper's minimax experiment with the acceptance suite's settings, at a
# shortened T.  The follower is gradient descent from y0 = 0.
MINIMAX = {"beta": 0.005, "eta": 0.01, "K": 200, "N": 3, "xi": 0.05, "T": 300}
GDA = {"step": 0.01, "max_steps": 20000}

# Experiment seeds 0-14 grouped by their GDA verdict at 20 000 RK4 steps:
# cycling, converged at step 5 000, budget exhausted.  A subset takes one seed
# of each kind, so every round ends `run_gda` all three ways and runs
# `detect_cycle` on long trajectories.
GDA_POOLS = ((7, 8), (1, 2, 11, 13), (0, 3, 4, 5, 6, 9, 10, 12, 14))

FOLD = {"beta": 0.005, "M": 420.0, "K": 10, "N": 3, "xi": 0.05, "T": 300, "n_seeds": 2}

# Smaller than the defaults (200 and 300), which take 14 s and 48 s.  The
# scans have no random input, so the seed does not change them.
SCAN_RESOLUTION = {"fold": 72, "quartic": 72}


def _sets(argv, items):
    for item in items:
        argv += ["--set", item]
    return argv


def _run(problem, seeds, master_seed, p, method_sets):
    argv = ["run", "--problem", problem, "--seed", ",".join(map(str, seeds))]
    _sets(argv, [f"outer.T={p['T']}", f"outer.beta={p['beta']}", f"lower.K={p['K']}",
                 f"sampling.N={p['N']}", f"smoothing.xi={p['xi']}",
                 f"smoothing.master_seed={master_seed}", "workers=1", *method_sets])
    return {"argv": argv, "kind": "run", "problem": problem, "seeds": seeds,
            "master_seed": master_seed, "ops": len(seeds),
            "rate": "outer_iters_per_s", "work": len(seeds) * p["T"], **p}


def build(workload, seed):
    """Commands of one round of `workload` for benchmark seed `seed`.

    Each command is a dict with `argv` (without --out), `kind`, `ops`,
    `rate` and `work` (the derived rate's name and its work items; None when
    they are read from the output) and the parameters its checks need.
    """
    rnd = random.Random(f"{workload}:{seed}")
    if workload == "minimax-experiment":
        seeds = [rnd.choice(pool) for pool in GDA_POOLS]
        run = _run("minimax", seeds, rnd.randrange(10 ** 6), MINIMAX,
                   ["lower.method=gradient_descent", f"lower.eta={MINIMAX['eta']}"])
        gda = _sets(["gda", "--problem", "minimax", "--seed", ",".join(map(str, seeds))],
                    [f"gda.step={GDA['step']}", f"gda.max_steps={GDA['max_steps']}",
                     "gda.integrator=rk4"])
        return [run, {"argv": gda, "kind": "gda", "problem": "minimax", "seeds": seeds,
                      "ops": len(seeds), "rate": "gda_steps_per_s", "work": None, **GDA}]
    if workload == "fold-cubic-newton":
        seeds = [rnd.randrange(10 ** 4) for _ in range(FOLD["n_seeds"])]
        return [_run("fold", seeds, rnd.randrange(10 ** 6), FOLD,
                     ["lower.method=cubic_newton", f"lower.M={FOLD['M']}"])]
    if workload == "bifurcation-scan":
        return [{"argv": _sets(["scan", "--problem", name],
                               [f"scan.grid_resolution={res}"]),
                 "kind": "scan", "problem": name, "resolution": res, "ops": 1,
                 "rate": "scan_cells_per_s", "work": res * res}
                for name, res in SCAN_RESOLUTION.items()]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
