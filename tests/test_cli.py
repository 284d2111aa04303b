import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from scinbio import (LowerSolverConfig, SmoothingConfig, builtin_minimax,
                     estimate_hypergradient, gradient_mapping, scan_bifurcation_set)
from scinbio import cli
from scinbio.cli import main, parse_seed_list
from scinbio.errors import LowerSolveError
from scinbio.outer import canonical_json
from scinbio.rng import seeded_initialization


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# config machinery
# ---------------------------------------------------------------------------

def test_seed_list_parsing():
    assert parse_seed_list("0,1,2") == [0, 1, 2]
    assert parse_seed_list("0-3") == [0, 1, 2, 3]
    assert parse_seed_list("0-2,7") == [0, 1, 2, 7]


def test_invalid_beta_exits_2_and_names_field(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path), "--set", "outer.beta=-1")
    assert code == 2
    err = capsys.readouterr().err
    assert "outer.beta" in err


def test_validation_reports_all_errors_at_once(tmp_path, capsys):
    code = run_cli("run", "--out", str(tmp_path),
                   "--set", "outer.beta=-1", "--set", "outer.T=-5",
                   "--set", "lower.K=-1", "--set", "lower.grad_tol=-1",
                   "--set", "smoothing.xi=0", "--set", "smoothing.master_seed=-2")
    assert code == 2
    err = capsys.readouterr().err
    # each message names the key as typed, not the config dataclass field
    for key in ("lower.K", "lower.grad_tol", "outer.T", "outer.beta",
                "smoothing.xi", "smoothing.master_seed"):
        assert f"config error: {key} " in err


@pytest.mark.parametrize("argv, key", [
    (("run", "--seed", "0", "--set", "lower.grad_tol=-1"), "lower.grad_tol"),
    (("estimate", "--x", "0.0", "--set", "lower.grad_tol=-1"), "lower.grad_tol"),
    (("run", "--seed", "0", "--set", "smoothing.master_seed=-2"), "smoothing.master_seed"),
    (("estimate", "--x", "0.0", "--set", "smoothing.master_seed=-2"),
     "smoothing.master_seed"),
    (("run", "--seed=-1"), "seeds"),
    (("gda", "--seed=-1"), "seeds"),
])
def test_config_errors_exit_2_and_write_nothing(tmp_path, capsys, argv, key):
    out = tmp_path / "o"
    code = run_cli(*argv, "--out", str(out), "--set", "outer.T=5", "--set", "lower.K=5",
                   "--set", "gda.max_steps=10", "--set", "estimate.N=2")
    captured = capsys.readouterr()
    assert code == 2
    assert f"config error: {key} must be nonnegative" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("gda", "gda.step"), ("run", "outer.beta"), ("run", "smoothing.xi"),
    ("run", "lower.M"), ("run", "lower.eta")])
def test_infinite_values_exit_2(tmp_path, capsys, command, key):
    out = tmp_path / "o"
    code = run_cli(command, "--seed", "0", "--out", str(out), "--set", f"{key}=inf",
                   "--set", "outer.T=5", "--set", "lower.K=5", "--set", "gda.max_steps=10")
    assert code == 2
    assert f"config error: {key} must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sets", [
    *[(f"{key}={value}",) for key, (parse, _) in cli._KEYS.items() if parse is float
      for value in ("inf", "nan")],
    ("scan.y_lo=2", "scan.y_hi=-2")], ids=",".join)
def test_non_finite_floats_and_a_reversed_scan_window_exit_2(tmp_path, capsys, sets):
    command = {"scan": ["scan", "--problem", "fold"], "gda": ["gda"]}.get(
        sets[0].split(".")[0], ["run"])
    out = tmp_path / "o"
    argv = [*command, "--seed", "0", "--out", str(out)]
    for item in ("outer.T=5", "lower.K=5", "gda.max_steps=10", "scan.grid_resolution=4",
                 "scan.y_resolution=8", *sets):
        argv += ["--set", item]
    code = run_cli(*argv)
    assert code == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_booleans_parse_only_their_spellings(tmp_path, capsys):
    for text in ("1", "true", "Yes", " on "):
        assert cli._parse_bool(text) is True
    for text in ("0", "False", "no", "off"):
        assert cli._parse_bool(text) is False
    out = tmp_path / "o"
    code = run_cli("run", "--seed", "0", "--out", str(out), "--set", "audit=ture",
                   "--set", "outer.T=5", "--set", "lower.K=5")
    assert code == 2
    assert "config error: config key 'audit': cannot parse 'ture'" in capsys.readouterr().err
    assert not out.exists()


def test_empty_seed_list_rejected(tmp_path, capsys):
    code = run_cli("gda", "--out", str(tmp_path), "--seed", "")
    assert code == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("text, bad", [("0,9-2", "9-2"), ("5-3", "5-3")])
def test_descending_seed_range_exits_2(tmp_path, capsys, text, bad):
    out = tmp_path / "o"
    code = run_cli("gda", "--out", str(out), "--seed", text, "--set", "gda.max_steps=10")
    assert code == 2
    assert f"config error: seeds: range {bad!r} is descending" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "gda"])
def test_repeated_seeds_exit_2(tmp_path, capsys, command):
    # a repeated seed would overwrite its own files and count once in the report
    out = tmp_path / "o"
    code = run_cli(command, "--seed", "0-2,1", "--out", str(out), "--set", "outer.T=5",
                   "--set", "lower.K=5", "--set", "gda.max_steps=10")
    assert code == 2
    assert "config error: seeds must be distinct" in capsys.readouterr().err
    assert not out.exists()


def test_audit_without_json_exits_2(tmp_path, capsys):
    # the audit is a block of the summary JSON: without json it has no file
    out = tmp_path / "o"
    code = run_cli("run", "--seed", "0", "--out", str(out), "--audit", "--set", "emit=csv",
                   "--set", "outer.T=5", "--set", "lower.K=5")
    assert code == 2
    assert "config error: audit needs json in emit" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("outer.T = 10\nwhatever = 3\n")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "whatever" in capsys.readouterr().err


def test_random_index_step_condition_exits_2_before_any_seed(tmp_path, capsys):
    # beta = 0.005 is above 1/L = xi^2 / f_bar for minimax
    out = tmp_path / "o"
    code = run_cli("run", "--problem", "minimax", "--seed", "0,1", "--out", str(out),
                   "--set", "outer.T=5", "--set", "outer.output_rule=random_index")
    assert code == 2
    assert "config error: random_index output rule needs beta_t < 1/L" in \
        capsys.readouterr().err
    assert not list(out.glob("*"))


def test_config_file_with_comments_and_overrides(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# smoke experiment\n"
        "problem = double-well\n"
        "outer.T = 30        # tiny budget\n"
        "sampling.N = 2\n"
        "lower.K = 5\n"
        "seeds = 0\n"
        "emit = csv,json\n")
    code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert code == 0
    report = json.loads((tmp_path / "o" / "report.json").read_text())
    assert report["config"]["problem"] == "double-well"
    assert report["config"]["outer.T"] == 30


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_smoke_run_writes_expected_files(tmp_path):
    out = tmp_path / "out"
    code = run_cli("run", "--problem", "minimax", "--seed", "0",
                   "--out", str(out),
                   "--set", "outer.T=50", "--set", "lower.K=20",
                   "--set", "sampling.N=2")
    assert code == 0
    trace = (out / "trace_seed0.csv").read_text().splitlines()
    assert trace[0] == "# schema: scinbio-trace-v1"
    assert trace[1] == "t,x0,est0,mapping_norm,N_t,K_t,infeasible_count"
    assert len(trace) == 2 + 50
    summary = json.loads((out / "summary_seed0.json").read_text())
    assert summary["schema"] == "scinbio-summary-v1"
    assert summary["run_config"]["outer.T"] == 50
    assert (out / "phase_seed0.svg").exists()
    assert (out / "report.json").exists()


def test_best_mapping_output_rule_is_echoed(tmp_path):
    # the rule reaches the run: the summary echoes it, holds no random index,
    # and x_out is an iterate with the least mapping norm of the trace
    out = tmp_path / "out"
    code = run_cli("run", "--problem", "minimax", "--seed", "0", "--out", str(out),
                   "--set", "outer.T=20", "--set", "lower.K=20", "--set", "sampling.N=2",
                   "--set", "outer.output_rule=best_mapping")
    assert code == 0
    summary = json.loads((out / "summary_seed0.json").read_text())
    assert summary["run_config"]["outer.output_rule"] == "best_mapping"
    assert summary["config"]["output_rule"] == "best_mapping"
    assert summary["final"]["random_index"] is None
    rows = [line.split(",") for line in (out / "trace_seed0.csv").read_text().splitlines()[2:]]
    norms = [float(row[3]) for row in rows]
    assert summary["final"]["x_out"] == [float(rows[norms.index(min(norms))][1])]


def test_minimax_run_draws_only_the_leader_start_per_seed(tmp_path, monkeypatch):
    # the follower is a fixed algorithm: its y0 is the problem's own for every
    # seed, and only the leader's x0 comes from the seed's draw; all seeds
    # start from one lockstep call
    calls = {}
    n_calls = []
    real = cli.run_scinbio

    def recording(problem, outer, lower, smoothing, x0=None):
        n_calls.append(1)
        for config, start in zip(smoothing, x0, strict=True):
            calls[config.master_seed - 2024] = (problem.y0, np.array(start, dtype=float))
        return real(problem, outer, lower, smoothing, x0=x0)

    monkeypatch.setattr(cli, "run_scinbio", recording)
    code = run_cli("run", "--problem", "minimax", "--seed", "0-14",
                   "--out", str(tmp_path), "--set", "outer.T=0",
                   "--set", "emit=json")
    assert code == 0
    assert len(n_calls) == 1
    assert sorted(calls) == list(range(15))
    y0 = builtin_minimax().y0
    for seed, (follower_y0, x0) in calls.items():
        assert follower_y0 == y0
        assert x0.shape == (1,)
        assert x0[0] == seeded_initialization(seed)[0]


def assert_same_seed_files(a, b, seed):
    """Seed `seed`'s run outputs in directories a and b are the same: the trace
    CSV and phase SVG byte for byte, the summary JSON byte for byte apart from
    the echoed seed list and output directory."""
    for name in (f"trace_seed{seed}.csv", f"phase_seed{seed}.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    sa = json.loads((a / f"summary_seed{seed}.json").read_text())
    text_b = (b / f"summary_seed{seed}.json").read_text()
    sb = json.loads(text_b)
    for key in ("seeds", "out"):
        sa["run_config"][key] = sb["run_config"][key]
    assert canonical_json(sa) == text_b


def test_lockstep_seed_outputs_equal_a_seed_run_alone(tmp_path):
    cases = [("minimax", "0,7", 7, ["--set", "lower.K=60"]),
             # n = 2: the step's projection and mapping norm run across the seeds
             ("fold", "11,12,13", 12, ["--set", "lower.method=cubic_newton",
                                        "--set", "lower.K=10"])]
    for problem, seeds, seed, settings in cases:
        common = ["--problem", problem, "--set", "outer.T=40", *settings]
        together, alone = tmp_path / f"{problem}_all", tmp_path / f"{problem}_alone"
        assert run_cli("run", "--seed", seeds, "--out", str(together), *common) == 0
        assert run_cli("run", "--seed", str(seed), "--out", str(alone), *common) == 0
        assert_same_seed_files(together, alone, seed)


def test_a_diverging_seed_fails_alone_in_lockstep(tmp_path, monkeypatch):
    # the follower's gradient is NaN for x > 1.5: seed 7 starts at x0 = 1.93
    # and fails at its first estimate, seed 0 starts at -0.54 and runs on
    def diverging(name):
        p = builtin_minimax()
        return dataclasses.replace(p, grad_y_g=lambda x, y: np.where(
            x[..., 0] > 1.5, math.nan, p.grad_y_g(x, y)))

    monkeypatch.setattr(cli, "get_problem", diverging)
    common = ("--problem", "minimax", "--set", "outer.T=20", "--set", "lower.K=50")
    runs = {}
    for label, seeds in (("both", "0,7"), ("seven", "7"), ("zero", "0")):
        code = run_cli("run", "--seed", seeds, "--out", str(tmp_path / label), *common)
        runs[label] = (code, json.loads((tmp_path / label / "report.json").read_text()))
    assert runs["both"][0] == runs["seven"][0] == 3 and runs["zero"][0] == 0
    both = runs["both"][1]["results"]
    assert both["7"]["error"] == runs["seven"][1]["results"]["7"]["error"]
    assert both["7"]["error"].startswith(
        "EstimatorError: lower-level solve failed on sample ")
    assert "error" not in both["0"]
    assert runs["both"][1]["counts"]["errors"] == 1
    assert not (tmp_path / "both" / "trace_seed7.csv").exists()
    assert_same_seed_files(tmp_path / "both", tmp_path / "zero", 0)


def test_an_io_failure_in_one_seed_exits_4_and_the_others_run_on(tmp_path):
    out = tmp_path / "out"
    (out / "trace_seed0.csv").mkdir(parents=True)
    assert run_cli("run", "--seed", "0,1", "--out", str(out), "--set", "outer.T=20",
                   "--set", "lower.K=20") == 4
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["0"]["error"].startswith("IsADirectoryError: ")
    assert "error" not in report["results"]["1"]
    assert report["counts"]["errors"] == 1
    assert {"trace_seed1.csv", "summary_seed1.json", "phase_seed1.svg"} <= \
        {f.name for f in out.iterdir()}


@pytest.mark.parametrize("row, written", [(0, set()), (100, {"trace_seed0.csv",
                                                                "summary_seed0.json"})])
def test_a_post_run_point_fails_its_seed_where_it_is_used(tmp_path, monkeypatch, row,
                                                             written):
    # one solve serves the best-of-last-100 tail (rows 0-99 at T = 150) and
    # the phase plot (rows 100-250): a failed tail point stops the seed before
    # it writes a file, a failed phase point after its trace and summary
    solve = cli.run_lower_lean

    def failing(problem, xs, lower_cfg):
        res = solve(problem, xs, lower_cfg)
        res.errors[row] = LowerSolveError("injected")
        return res

    monkeypatch.setattr(cli, "run_lower_lean", failing)
    out = tmp_path / "out"
    assert run_cli("run", "--seed", "0", "--out", str(out), "--set", "outer.T=150",
                   "--set", "lower.K=20") == 3
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["0"]["error"] == "LowerSolveError: injected"
    assert {f.name for f in out.iterdir()} == written | {"report.json"}


# sha256 of the outputs of `run --out out` at T = 50 (the other settings are the
# defaults) for minimax with the GD follower and fold, double-well and quartic
# with cubic Newton, K = 10; and fold with cubic Newton at the default K = 200,
# whose lanes enter the confinement zone y < -1.5.  The phase plots pin the
# post-run y_hat.
GOLDEN = {
    "minimax": ("minimax", ["--seed", "0,7"], {
        "trace_seed0.csv": "4c240d019e6d6a3b666303e26e2f324d732f15442795e83155cba093dce56e63",
        "trace_seed7.csv": "3d460f0ace8ad6e2b832eef16e6192fc9a68be7698e4564cc5e44e7749419cf3",
        "summary_seed0.json": "537196a1eb65d5bb46f34a69d62e409983b33cf0c64611da27f69d589efd1580",
        "summary_seed7.json": "8ea98e2150d52c75956b497575ab47520166010495a86b7c6652e37de3e2a4ff",
        "phase_seed0.svg": "2eec561bcf9ef022ae8eb116c1946db32fd47000ddbfc90894bbe46141e686aa",
        "phase_seed7.svg": "56e94ff24ce53b0788fd13be829700dff2c255b11dacaf46c6e6cd816ba1d9f3",
    }),
    "fold": ("fold", ["--seed", "11,12", "--set", "lower.method=cubic_newton",
                      "--set", "lower.K=10"], {
        "trace_seed11.csv": "6e6272af7dbb339936bb6cd3b1d08c96ccf0e664ba64bb259923cc456b8d66bf",
        "trace_seed12.csv": "1084e5046961d6e7dd817f243aba2ab71610de1373e0db64320ccc895bd2c208",
        "summary_seed11.json": "f4598974e1f19b3decb9515bf93411a7b7789c95c543b7c2eb536e046aec8a4a",
        "summary_seed12.json": "58f30e905dc59cf1b42cc1d6aa8ff69557139054d48bcf866ee339233a203f23",
        "phase_seed11.svg": "0c87233c1df746fb37a68655cc407fe18533d7cff6dd257fabaee21d5d5caf2c",
        "phase_seed12.svg": "654f33ba2bfd812ee57eb46d1f18d1f5726cdf819fff4b0461dce2534f5f97c5",
    }),
    "double-well": ("double-well", ["--seed", "0,1", "--set", "lower.method=cubic_newton",
                                    "--set", "lower.K=10"], {
        "trace_seed0.csv": "871f0a105336273977de3e07ff051b5b7d7cd6c7bc81929ae87c2358f916d606",
        "trace_seed1.csv": "04dcfdb7fdc74dae95475b70dd30030cf364d4ce049b3e22f98b9d8028311434",
        "summary_seed0.json": "336960e3e99895ea918ed85b5e35719827c9afc5495fa1896c40dc0647d3b63f",
        "summary_seed1.json": "e788298a20a5d9c08480bc65ac269f84bae1d07d5e5e40689b2a8728825f503d",
        "phase_seed0.svg": "8d9d248d053c073730e64b71668c84d73b8c9d792f2fb3144d2fa61546f942e2",
        "phase_seed1.svg": "6c78cf0d8b165267b41df1d12989490e7359aac64fd514af8094ed92ad9e3945",
    }),
    "quartic": ("quartic", ["--seed", "0,1", "--set", "lower.method=cubic_newton",
                            "--set", "lower.K=10"], {
        "trace_seed0.csv": "425348132ff625119f1e94efed8cf0598f29e23b3bb7f74eaa4a221900e521c4",
        "trace_seed1.csv": "1a685427c7a4e1accfec23bd8d2aee04dc65458557200cc6647273e12ff106dd",
        "summary_seed0.json": "2af1127310bf1f6c1d3d231985d3f79137085df87efbc7514244817cba97c8e1",
        "summary_seed1.json": "645fd7fe67243ad4f4eda447e0e42263df946934fc19dd3c09a23cb82e0ffdf5",
        "phase_seed0.svg": "e0d3815aa0956a6ba0b41a2ba2e4449e83b4325cb6ef6e80ac466b2deee63a38",
        "phase_seed1.svg": "a1aee3950151b82bc55eccc1a9372e2c6a02a5115725c07a4e1287169bd3820e",
    }),
    "fold-default-K": ("fold", ["--seed", "0,1", "--set", "lower.method=cubic_newton"], {
        "trace_seed0.csv": "20f25500df031ad31af3a6401a681093c8af96b9763af2c8581005966bedf104",
        "trace_seed1.csv": "e0967482c7e09d2c033d861070179e43d5525e6b469879a3fd6df81977054c0b",
        "summary_seed0.json": "160e900e0981469a4eab1baea141b2b94ce3a7f66bc8d10edbe2c9f0c236978f",
        "summary_seed1.json": "65a725a37c316923247f024d6abf0d18d6de82f57cd5a4afde7596109d7f6656",
        "phase_seed0.svg": "5547e72113dea7ba81482718634a92d47f1960deeb018b3da078d19be39e7e51",
        "phase_seed1.svg": "f652ee226786399ce6effda7191ec87629ebe61aca2925fcc8cadc401f699714",
    }),
}


@pytest.mark.parametrize("row", sorted(GOLDEN))
def test_run_outputs_match_pinned_digests(tmp_path, monkeypatch, row):
    problem, args, digests = GOLDEN[row]
    monkeypatch.chdir(tmp_path)  # the summary echoes the output directory
    assert run_cli("run", "--problem", problem, "--out", "out", "--set", "outer.T=50",
                   *args) == 0
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def test_audit_summary_matches_pinned_digest(tmp_path, monkeypatch):
    # the --audit block is the one summary field GOLDEN does not cover
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--problem", "fold", "--seed", "5", "--out", "out", "--audit",
                   "--set", "outer.T=30", "--set", "lower.method=cubic_newton",
                   "--set", "lower.K=10", "--set", "emit=json") == 0
    assert hashlib.sha256((tmp_path / "out" / "summary_seed5.json").read_bytes()).hexdigest() \
        == "4e0d2a9a4a87ce5ab562301c0b5f6389fc123dcda86584f97a7c4d0c655c2241"


ESTIMATE_GOLDEN = {  # fold's x lies near the edge x1 = 1: 26 of its 64 samples are infeasible
    "quartic": ("1.0,2.0", "26adc12ce5a2a217e45e165ec9d9d3f044b47a2d937172dd9c8fca5d728b0e26"),
    "double-well": ("0.3", "f8cc10f8dc877a6315271f8bd90afbad7a4edad079aaf2830913e94b9b119334"),
    "fold": ("0.98,0.1", "651ce1f7ba7c4c04acfc423d0f0e5fbda338325cff52e29748b0485c04d7c64c"),
}


@pytest.mark.parametrize("problem", sorted(ESTIMATE_GOLDEN))
def test_estimate_stdout_matches_pinned_digest(tmp_path, monkeypatch, capsys, problem):
    x, digest = ESTIMATE_GOLDEN[problem]
    monkeypatch.chdir(tmp_path)  # the payload echoes the output directory
    assert run_cli("estimate", "--problem", problem, "--x", x, "--out", "out",
                   "--set", "estimate.N=64", "--set", "estimate.batches=3",
                   "--set", "lower.K=20") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("value", ["0", "-3"])
def test_workers_must_be_positive(tmp_path, capsys, value):
    out = tmp_path / "o"
    code = run_cli("run", "--seed", "0", "--out", str(out), "--set", "outer.T=2",
                   "--set", f"workers={value}")
    assert code == 2
    assert "config error: workers must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_audit_re_estimates_at_the_final_point(tmp_path, minimax):
    # --audit: 1024 fresh samples at x_final from stream T + 1 of the seed's
    # config, the same numbers as a one-point estimate made directly
    out = tmp_path / "out"
    assert run_cli("run", "--problem", "minimax", "--seed", "3", "--out", str(out), "--audit",
                   "--set", "outer.T=20", "--set", "lower.K=30", "--set", "emit=json") == 0
    summary = json.loads((out / "summary_seed3.json").read_text())
    x_final = np.array(summary["final"]["x_final"])
    lower = LowerSolverConfig(method="gradient_descent", eta=0.01, M=32.0, max_iters=30)
    est = estimate_hypergradient(minimax, [x_final], 1024,
                                 [SmoothingConfig(xi=0.05, master_seed=2024 + 3)], lower,
                                 stream_tag=21)
    gm = gradient_mapping(x_final, est.value[0], 0.005, minimax.feasible_set)
    assert summary["audit"]["n_samples"] == 1024
    assert math.isfinite(summary["audit"]["mapping_norm"])
    assert summary["audit"]["mapping_norm"] == float(np.linalg.norm(gm))


def test_run_config_echo_is_resolved(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--problem", "double-well", "--seed", "3", "--out", str(out),
            "--set", "outer.T=20", "--set", "lower.K=5", "--set", "sampling.N=1")
    summary = json.loads((out / "summary_seed3.json").read_text())
    cfg = summary["run_config"]
    # defaults are materialized, not left implicit
    assert cfg["outer.beta"] == 0.005
    assert cfg["smoothing.xi"] == 0.05
    assert cfg["lower.method"] == "gradient_descent"


def test_problem_defaults_are_echoed(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--problem", "minimax", "--seed", "0", "--out", str(out),
                   "--set", "outer.T=0", "--set", "emit=json") == 0
    cfg = json.loads((out / "report.json").read_text())["config"]
    assert cfg["lower.eta"] == 0.01 and cfg["lower.M"] == 32.0
    # minimax has no scan grid
    assert cfg["scan.y_resolution"] is None
    assert run_cli("scan", "--problem", "fold", "--out", str(out), "--set", "emit=json",
                   "--set", "scan.grid_resolution=4") == 0
    cfg = json.loads((out / "dimension_fold.json").read_text())["config"]
    assert cfg["scan.y_resolution"] == 400
    assert cfg["scan.grid_resolution"] == 4


def test_run_trace_stride(tmp_path):
    out = tmp_path / "out"
    run_cli("run", "--problem", "double-well", "--seed", "0", "--out", str(out),
            "--stride", "10", "--set", "outer.T=40", "--set", "lower.K=5",
            "--set", "sampling.N=1", "--set", "emit=csv")
    trace = (out / "trace_seed0.csv").read_text().splitlines()
    assert len(trace) == 2 + 4


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def test_estimate_json_is_deterministic(tmp_path, capsys):
    args = ("estimate", "--problem", "minimax", "--x", "0.0",
            "--out", str(tmp_path),
            "--set", "estimate.N=200", "--set", "estimate.batches=3",
            "--set", "lower.K=20")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["n_samples"] == 200
    assert np.isfinite(payload["estimate_norm"])
    assert payload["gradient_norm_bound"] == pytest.approx(
        np.sqrt(2 / np.pi) * 62.13 / 0.05, rel=1e-9)


def test_estimate_reports_the_smoothed_value_of_batch_0(tmp_path, capsys, fold):
    # the smoothed hyperfunction value is the mean of the per-sample values of
    # the stream-tag-0 estimate, whose gradient `estimate` also reports
    assert run_cli("estimate", "--problem", "fold", "--x", "0.4,0.1", "--out", str(tmp_path),
                   "--set", "estimate.N=64", "--set", "lower.K=10") == 0
    payload = json.loads(capsys.readouterr().out)
    lower = LowerSolverConfig(method="gradient_descent", eta=0.002, M=420.0, max_iters=10)
    est = estimate_hypergradient(fold, [[0.4, 0.1]], 64,
                                 [SmoothingConfig(xi=0.05, master_seed=2024)], lower,
                                 stream_tag=0)
    assert payload["estimate"] == est.value[0].tolist()
    assert payload["smoothed_value"] == float(np.mean(est.per_sample_f[0]))


def test_estimate_single_sample_is_well_formed(tmp_path, capsys):
    code = run_cli("estimate", "--problem", "double-well", "--x", "0.5",
                   "--out", str(tmp_path), "--set", "estimate.N=1",
                   "--set", "lower.K=10")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_samples"] == 1
    assert len(payload["estimate"]) == 1


def test_estimate_rejects_infeasible_point(tmp_path, capsys):
    code = run_cli("estimate", "--problem", "minimax", "--x", "9.0",
                   "--out", str(tmp_path))
    assert code == 2
    assert "feasible" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def test_scan_fold_dimension_in_range(tmp_path, capsys):
    out = tmp_path / "scan"
    code = run_cli("scan", "--problem", "fold", "--out", str(out),
                   "--set", "scan.grid_resolution=100",
                   "--set", "scan.y_resolution=300")
    assert code == 0
    payload = json.loads((out / "dimension_fold.json").read_text())
    assert 0.85 <= payload["d_hat"] <= 1.15
    assert (out / "scan_fold.csv").exists()
    assert (out / "scan_fold.svg").exists()
    lines = (out / "scan_fold.csv").read_text().splitlines()
    assert lines[0] == "# schema: scinbio-scan-v1"
    assert lines[1] == "x1,x2,marked,lambda_min_abs"
    assert len(lines) == 2 + 100 * 100


def assert_csv_fields_are_numbers(path, optional_columns=()):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# schema:")
    header = lines[1].split(",")
    for line in lines[2:]:
        for name, field in zip(header, line.split(","), strict=True):
            if field or name not in optional_columns:
                float(field)


def test_scan_and_gda_csvs_hold_plain_numbers(tmp_path):
    out = tmp_path / "o"
    assert run_cli("scan", "--problem", "fold", "--out", str(out), "--set", "emit=csv",
                   "--set", "scan.grid_resolution=6", "--set", "scan.y_resolution=40") == 0
    assert_csv_fields_are_numbers(out / "scan_fold.csv", optional_columns=("lambda_min_abs",))
    assert run_cli("gda", "--problem", "minimax", "--seed", "0", "--out", str(out),
                   "--set", "emit=csv", "--set", "gda.max_steps=50") == 0
    assert_csv_fields_are_numbers(out / "gda_seed0.csv")


def test_scan_csv_centers_are_the_evaluated_points(tmp_path, fold):
    # fold 12^2: at cells 2, 3, 8 and 11, lo + (k + 0.5) (hi - lo) / R rounds
    # one ulp away from lo + (k + 0.5) ((hi - lo) / R), the scan's formula
    out = tmp_path / "scan"
    assert run_cli("scan", "--problem", "fold", "--out", str(out), "--set", "emit=csv",
                   "--set", "scan.grid_resolution=12", "--set", "scan.y_resolution=400") == 0
    rows = [line.split(",") for line in (out / "scan_fold.csv").read_text().splitlines()[2:]]
    centers = {(float(r[0]), float(r[1])) for r in rows}
    with_roots = {(float(r[0]), float(r[1])) for r in rows if r[3]}
    assert len(centers) == 144 and len(with_roots) >= 72
    scan = scan_bifurcation_set(fold, 12, (-1.0, 1.0), 400)
    c1, c2 = scan.cell_centers()
    i, j = np.divmod(scan.roots.cell, 12)
    points = set(zip(c1[i].tolist(), c2[j].tolist()))
    # every cell with roots has its roots at exactly the center the CSV writes
    assert points == with_roots


@pytest.mark.parametrize("name, digest", [
    ("fold", "f455f0421f38744dffe82b16ce7ad2e66c54b817859726a4a3888958b0284dc8"),
    ("quartic", "613b09173d2a8cf9892e9a13d9e2587fe0680371c9ab3e25d894370f77152f5b"),
])
def test_scan_csv_pinned_at_72(tmp_path, name, digest):
    # sha256 of scan_<problem>.csv at 72^2 and the default y windows, as the
    # scan wrote it while it kept one record per root
    out = tmp_path / "scan"
    assert run_cli("scan", "--problem", name, "--out", str(out), "--set", "emit=csv",
                   "--set", "scan.grid_resolution=72") == 0
    assert hashlib.sha256((out / f"scan_{name}.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name, resolution, csv_digest, svg_digest", [
    ("fold", 200, "0dca07e1c377e27c24aaf66a32418d6f80613267b93f5a34c2163a73c3087092",
     "dfad37d142e1490886bfc1d134dd2ac1defd191d2a3803f6e15a07f271c61f53"),
    ("quartic", 300, "dd7bb620b239bcfae8371400545fcc98b77cafb42fa9712a6af1650a9ad20fd1",
     "6b090f7207464c7229caad222ed0d09d1ca02a4aa050228b1b83680278521505"),
], ids=["fold", "quartic"])
def test_scan_outputs_pinned_at_default_scale(tmp_path, name, resolution, csv_digest,
                                              svg_digest):
    # sha256 of scan_<problem>.csv and .svg at the default resolutions and y
    # windows, as the scan wrote them with 8 quartic cells per grid call
    out = tmp_path / "scan"
    assert run_cli("scan", "--problem", name, "--out", str(out), "--set", "emit=csv,svg",
                   "--set", f"scan.grid_resolution={resolution}") == 0
    for ext, digest in (("csv", csv_digest), ("svg", svg_digest)):
        assert hashlib.sha256((out / f"scan_{name}.{ext}").read_bytes()).hexdigest() == digest


def test_scan_writes_an_undetermined_fit_as_null(tmp_path, capsys):
    # at fold 4^2 the box counts do not change with the radius, so the fit is
    # undetermined; JSON has no NaN
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    out = tmp_path / "scan"
    assert run_cli("scan", "--problem", "fold", "--out", str(out), "--set", "emit=json",
                   "--set", "scan.grid_resolution=4") == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=reject)
    dim = json.loads((out / "dimension_fold.json").read_text(), parse_constant=reject)
    assert dim["n_marked_cells"] >= 2 and dim["determined"] is False
    assert dim["slope"] is dim["d_hat"] is dim["r_squared"] is printed["d_hat"] is None


def test_scan_rejects_minimax(tmp_path, capsys):
    code = run_cli("scan", "--problem", "minimax", "--out", str(tmp_path))
    assert code == 2


def test_scan_rejects_resolution_one(tmp_path, capsys):
    code = run_cli("scan", "--problem", "fold", "--out", str(tmp_path),
                   "--set", "scan.grid_resolution=1")
    assert code == 2
    assert "grid_resolution" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gda
# ---------------------------------------------------------------------------

def test_gda_counts_cycles_on_seed_population(tmp_path):
    # seeds 7 and 8 cycle and seed 1 converges; the acceptance GDA sweep checks
    # all 15 seeds
    out = tmp_path / "gda"
    code = run_cli("gda", "--problem", "minimax", "--seed", "1,7,8",
                   "--out", str(out), "--set", "emit=csv,json")
    assert code == 0
    report = json.loads((out / "gda_report.json").read_text())
    assert report["counts"]["cycling"] >= 2
    assert (out / "gda_seed1.csv").exists()
    # the convergence rule, restated by each seed's last 1000-step window
    for entry in report["results"].values():
        if entry["verdict"] == "converged":
            assert entry["final_window_displacement"] <= 1e-5
        else:
            assert entry["final_window_displacement"] > 1e-5


# sha256 of the outputs of `gda --out out` on one seed of each verdict (8
# cycles, 2 converges, 9 exhausts its budget) at the benchmark's settings
GDA_GOLDEN = {
    "gda_seed8.csv": "73c3f397eb36aae609eabf1050f032674fd06a3ec6c8f152fcfab3ecc0572cb6",
    "gda_seed2.csv": "0b6ed90efe8de4bf3d7f0e98ad654f23a90e7b4b5b9a9ff734d714eda0c170c9",
    "gda_seed9.csv": "cd3790a5ff8c7e0a325febb2d216c5ac68e380d25286c4be5eeef32d14742849",
    "gda_seed8.svg": "4923f6842a5b999be14642d1d2dcbaeba0e0cb97d017fb53310ac8b72d2421cd",
    "gda_seed2.svg": "740653440e68133740754c8726e90a7983e1960d1edb1d513628476be935d065",
    "gda_seed9.svg": "7fbad34737f1362402d7d7e4fe604df637fd30cb83d1391758bf888efee27ce1",
    "gda_report.json": "a85916ff81742fb640a20aef8c9d0879952c4215e20d3340a19ecd6507f3577e",
}


def test_gda_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the report echoes the output directory
    assert run_cli("gda", "--problem", "minimax", "--seed", "8,2,9", "--out", "out",
                   "--set", "gda.step=0.01", "--set", "gda.max_steps=20000",
                   "--set", "gda.integrator=rk4") == 0
    for name, digest in GDA_GOLDEN.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


def test_gda_tiny_budget_all_exhausted(tmp_path):
    out = tmp_path / "gda"
    code = run_cli("gda", "--problem", "minimax", "--seed", "0,1,2",
                   "--out", str(out), "--set", "gda.max_steps=10",
                   "--set", "emit=json")
    assert code == 0
    report = json.loads((out / "gda_report.json").read_text())
    assert report["counts"]["budget_exhausted"] == 3
    # no 1000-step window completed
    assert all(e["final_window_displacement"] is None for e in report["results"].values())


def test_gda_requires_minimax(tmp_path, capsys):
    code = run_cli("gda", "--problem", "fold", "--out", str(tmp_path))
    assert code == 2


def test_gda_svg_written(tmp_path):
    out = tmp_path / "gda"
    code = run_cli("gda", "--problem", "minimax", "--seed", "0",
                   "--out", str(out), "--set", "gda.max_steps=2000")
    assert code == 0
    svg = (out / "gda_seed0.svg").read_text()
    assert svg.startswith("<?xml")
    assert "<svg" in svg and "polyline" in svg


def test_gda_svg_ignores_other_files_in_out(tmp_path):
    gda = ("gda", "--problem", "minimax", "--seed", "0", "--set", "emit=svg",
           "--set", "gda.max_steps=200")
    empty, shared = tmp_path / "empty", tmp_path / "shared"
    shared.mkdir()
    (shared / "trace_seed0.csv").write_text("t,x0\n0,0.5\n1,0.25\n")
    assert run_cli(*gda, "--out", str(empty)) == 0
    assert run_cli(*gda, "--out", str(shared)) == 0
    assert (shared / "gda_seed0.svg").read_bytes() == (empty / "gda_seed0.svg").read_bytes()
