"""Command line interface: schemas, exit codes, byte-level determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import betafreeze as bf
from betafreeze.cli import main


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("BETAFREEZE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "betafreeze", *args],
        capture_output=True, text=True, env=env,
    )


def test_zeros_csv_schema(zeros_cache):
    r = run_cli("zeros", "--n", "5")
    assert r.returncode == 0
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "index,zero"
    assert len(lines) == 6
    got = np.array([float(line.split(",")[1]) for line in lines[1:]])
    np.testing.assert_array_equal(got, zeros_cache(5).zeros)
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5]


def test_zeros_json_schema(zeros_cache):
    r = run_cli("zeros", "--n", "6", "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    assert set(payload) == {"n", "zeros", "fixed_point_residual", "potential_gap"}
    assert payload["n"] == 6
    np.testing.assert_array_equal(np.array(payload["zeros"]),
                                  zeros_cache(6).zeros)
    assert payload["fixed_point_residual"] <= 1e-9 * 6
    assert payload["potential_gap"] <= 1e-8


def test_verify_passes_and_fails():
    r = run_cli("verify", "--n", "12")
    assert r.returncode == 0
    assert "all 9 checks passed" in r.stdout
    assert r.stdout.count(" ok") == 9


def test_sample_schema_and_seed_env():
    r1 = run_cli("sample", "--n", "3", "--k", "2", "--trials", "4",
                 "--seed", "42")
    assert r1.returncode == 0
    lines = r1.stdout.strip().split("\n")
    assert lines[0] == "trial,i,lambda_i"
    assert len(lines) == 1 + 4 * 3
    trials = [int(l.split(",")[0]) for l in lines[1:]]
    idx = [int(l.split(",")[1]) for l in lines[1:]]
    assert trials == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert idx == [1, 2, 3] * 4
    # eigenvalues descending within each trial
    for t in range(4):
        vals = [float(l.split(",")[2]) for l in lines[1 + 3 * t: 4 + 3 * t]]
        assert vals[0] > vals[1] > vals[2]
    # environment seed is equivalent to --seed
    r2 = run_cli("sample", "--n", "3", "--k", "2", "--trials", "4",
                 env_extra={"BETAFREEZE_SEED": "42"})
    assert r2.stdout == r1.stdout


def test_bounds_json_matches_library():
    r = run_cli("bounds", "--n", "2", "--k", "10000", "--c", "1",
                "--format", "json")
    assert r.returncode == 0
    payload = json.loads(r.stdout)
    eps = bf.cor_eps(10000.0, 1.0)
    bd = bf.prop_bound(2, 10000.0, eps)
    assert payload["eps"] == eps
    assert payload["term_quartic"] == bd.term_quartic
    assert payload["total"] == bd.total
    assert payload["condition_ok"] is bd.condition_ok
    assert payload["cor_bound"] == bf.cor_bound(2, 10000.0, 1.0)


def test_bounds_csv_with_eps_leaves_c_empty():
    r = run_cli("bounds", "--n", "3", "--k", "50", "--eps", "0.2")
    lines = r.stdout.strip().split("\n")
    assert lines[0].startswith("n,k,c,eps,")
    fields = lines[1].split(",")
    assert fields[2] == "" and fields[-1] == ""  # c and cor_bound absent


def test_tail_writes_file_and_is_deterministic(tmp_path):
    out = str(tmp_path / "tail.csv")
    args = ("tail", "--n", "2", "--k", "100", "--c", "1", "--norm", "l2",
            "--trials", "5000", "--seed", "3", "--workers", "2",
            "--out", out)
    r = run_cli(*args)
    assert r.returncode == 0
    first = open(out).read()
    run_cli(*args)
    assert open(out).read() == first
    header, row = first.strip().split("\n")
    assert header == ("n,k,norm,eps,trials,seed,workers,confidence,"
                      "hits,p_hat,ci_low,ci_high")
    fields = row.split(",")
    assert fields[2] == "l2"
    cfg = bf.ExperimentConfig(n=2, k=100.0, trials=5000, seed=3, c=1.0,
                              workers=2)
    est = bf.estimate_tail_l2(cfg)
    assert int(fields[8]) == est.hits


def test_clt_output_schema():
    r = run_cli("clt", "--n", "2", "--k", "1000", "--trials", "20000",
                "--seed", "5")
    assert r.returncode == 0
    header, row = r.stdout.strip().split("\n")
    assert header == "n,k,trials,seed,mean_norm,cov_rel_err"
    fields = row.split(",")
    rep = bf.clt_covariance_test(
        bf.ExperimentConfig(n=2, k=1000.0, trials=20000, seed=5)
    )
    assert float(fields[4]) == rep.mean_norm
    assert float(fields[5]) == rep.cov_rel_err


def test_sweep_cli_and_rerun_bytes(tmp_path):
    cfg_path = tmp_path / "grid.json"
    cfg_path.write_text(json.dumps({
        "n": [2], "k": [100.0, 1000.0], "c": [1.0],
        "trials": 1000, "seed": 8,
    }))
    r1 = run_cli("sweep", "--config", str(cfg_path))
    r2 = run_cli("sweep", "--config", str(cfg_path))
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout
    lines = r1.stdout.strip().split("\n")
    assert len(lines) == 3 + 2


def test_sweep_empty_grid(tmp_path):
    cfg_path = tmp_path / "empty.json"
    cfg_path.write_text(json.dumps({
        "n": [], "k": [], "c": [], "trials": 10, "seed": 0,
    }))
    r = run_cli("sweep", "--config", str(cfg_path))
    assert r.returncode == 0
    assert len(r.stdout.strip().split("\n")) == 3  # header only


def test_exit_codes():
    # invalid configuration -> 2
    assert run_cli("zeros", "--n", "1").returncode == 2
    assert run_cli("bounds", "--n", "2", "--k", "0.5", "--c", "1").returncode == 2
    assert run_cli("sweep", "--config", "/nonexistent.json").returncode == 2
    assert run_cli("tail", "--n", "2", "--k", "10", "--eps", "0.1", "--c", "1",
                   "--norm", "l2", "--trials", "10").returncode == 2
    # argparse rejects unknown flags with 2 as well
    assert run_cli("zeros", "--n", "4", "--bogus").returncode == 2
    # numerical failure (unreachable tolerance) -> 3
    assert run_cli("zeros", "--n", "8", "--tol", "1e-30").returncode == 3
    # no subcommand -> help, exit 2
    assert run_cli().returncode == 2


@pytest.mark.parametrize("argv", [
    ["tail", "--n", "2", "--k", "inf", "--eps", "1", "--norm", "l2",
     "--trials", "1000"],
    ["tail", "--n", "2", "--k", "inf", "--c", "1", "--norm", "l2",
     "--trials", "1000"],
    ["sample", "--n", "2", "--k", "inf", "--trials", "2"],
    ["tail", "--n", "3", "--k", "inf", "--eps", "1", "--norm", "sup",
     "--trials", "1000"],
    ["bounds", "--n", "2", "--k", "inf", "--eps", "0.1"],
])
def test_infinite_k_rejected(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k must be positive and finite" in captured.err


def test_invalid_sweep_config_values(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n": [1], "k": [10.0], "c": [1.0], "trials": 5}))
    assert run_cli("sweep", "--config", str(bad)).returncode == 2
    bad.write_text("not json {")
    assert run_cli("sweep", "--config", str(bad)).returncode == 2
    bad.write_text(json.dumps({"n": [2], "k": [10.0], "trials": 5}))  # no c
    assert run_cli("sweep", "--config", str(bad)).returncode == 2


def test_seed_env_garbage_rejected():
    r = run_cli("sample", "--n", "2", "--k", "1", "--trials", "1",
                env_extra={"BETAFREEZE_SEED": "not-a-number"})
    assert r.returncode == 2
