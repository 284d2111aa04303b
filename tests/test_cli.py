import json
import os

import numpy as np
import pytest

from scinbio import builtin_minimax
from scinbio import cli
from scinbio.cli import main, parse_seed_list
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
                   "--set", "smoothing.xi=0")
    assert code == 2
    err = capsys.readouterr().err
    assert "outer.beta" in err and "outer.T" in err and "smoothing.xi" in err


def test_empty_seed_list_rejected(tmp_path, capsys):
    code = run_cli("gda", "--out", str(tmp_path), "--seed", "")
    assert code == 2
    assert "seeds" in capsys.readouterr().err


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


def test_minimax_run_draws_only_the_leader_start_per_seed(tmp_path, monkeypatch):
    # the follower is a fixed algorithm: its y0 is the problem's own for every
    # seed, and only the leader's x0 comes from the seed's draw
    calls = {}
    real = cli.run_scinbio

    def recording(problem, outer, lower, smoothing, x0=None, phi=None):
        calls[smoothing.master_seed - 2024] = (problem.y0.copy(),
                                               np.array(x0, dtype=float))
        return real(problem, outer, lower, smoothing, x0=x0, phi=phi)

    monkeypatch.setattr(cli, "run_scinbio", recording)
    code = run_cli("run", "--problem", "minimax", "--seed", "0-14",
                   "--out", str(tmp_path), "--set", "outer.T=0",
                   "--set", "emit=json")
    assert code == 0
    assert sorted(calls) == list(range(15))
    y0 = builtin_minimax().y0
    for seed, (follower_y0, x0) in calls.items():
        assert np.array_equal(follower_y0, y0)
        assert x0.shape == (1,)
        assert x0[0] == seeded_initialization(seed)[0]


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
    out = tmp_path / "gda"
    code = run_cli("gda", "--problem", "minimax", "--seed", "0-14",
                   "--out", str(out), "--set", "emit=csv,json")
    assert code == 0
    report = json.loads((out / "gda_report.json").read_text())
    assert report["counts"]["cycling"] >= 2
    assert (out / "gda_seed0.csv").exists()


def test_gda_tiny_budget_all_exhausted(tmp_path):
    out = tmp_path / "gda"
    code = run_cli("gda", "--problem", "minimax", "--seed", "0,1,2",
                   "--out", str(out), "--set", "gda.max_steps=10",
                   "--set", "emit=json")
    assert code == 0
    report = json.loads((out / "gda_report.json").read_text())
    assert report["counts"]["budget_exhausted"] == 3


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
