"""Command line interface: schemas, exit codes, byte-level determinism."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betafreeze as bf
from betafreeze import _core, cli, hermite_core
from betafreeze import experiment as _experiment
from betafreeze import sampler as _sampler
from betafreeze.cli import main
from betafreeze.errors import MAX_N, ConvergenceFailure, InvalidConfig
from betafreeze.experiment import BLOCK


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


def test_verify_passes_and_fails(monkeypatch, capsys):
    r = run_cli("verify", "--n", "12")
    assert r.returncode == 0
    assert "all 9 checks passed" in r.stdout
    assert r.stdout.count(" ok") == 9
    monkeypatch.setattr(cli, "min_gap", lambda z: 0.0)
    assert main(["verify", "--n", "12"]) == 3
    out = capsys.readouterr().out
    assert "verify n=12: 1 of 9 checks FAILED" in out
    assert out.count(" ok") == 8
    [failed] = [line for line in out.splitlines() if line.endswith(" FAIL")]
    assert failed.startswith("min_gap_above_floor: value=0")


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
    with open(out) as handle:
        first = handle.read()
    run_cli(*args)
    with open(out) as handle:
        assert handle.read() == first
    header, row = first.strip().split("\n")
    assert header == ("n,k,norm,eps,trials,seed,workers,confidence,"
                      "hits,p_hat,ci_low,ci_high")
    fields = row.split(",")
    assert fields[2] == "l2"
    cfg = bf.ExperimentConfig(n=2, k=100.0, trials=5000, seed=3,
                              eps=bf.cor_eps(100.0, 1.0), workers=2)
    est = bf.estimate_tail_l2(cfg)
    assert int(fields[8]) == est.hits


@pytest.mark.parametrize("n, k", [(2, 1e4), (5, 1e3)])
@pytest.mark.parametrize("norm, c", [("l2", 0.5), ("sup", 30.0)])
def test_tail_c_is_eps_of_cor_eps(tmp_path, n, k, norm, c):
    # tail --c C counts at eps = cor_eps(k, C): the --out file is the one
    # that --eps repr(cor_eps(k, C)) writes, byte for byte.
    argv = ["tail", "--n", str(n), "--k", repr(k), "--norm", norm,
            "--trials", "4000", "--seed", "9", "--workers", "2"]
    outs = []
    for flag, value in (("--c", c), ("--eps", bf.cor_eps(k, c))):
        out = tmp_path / f"{flag[2:]}.csv"
        assert main([*argv, flag, repr(value), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    hits = int(outs[0].decode().splitlines()[1].split(",")[8])
    assert 0 < hits < 4000


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
    # no subcommand -> help, exit 2
    assert run_cli().returncode == 2


def test_failed_zero_polish_exits_3(monkeypatch, capsys):
    # numerical failure -> 3: a polish that steps the wrong way misses the
    # residual bound.  The cache is bypassed so n = 8 is polished afresh.
    monkeypatch.setattr(hermite_core, "_newton_ratio",
                        lambda n, x: np.full_like(x, -1e-9))
    monkeypatch.setattr(cli, "compute_zeros",
                        hermite_core.compute_zeros.__wrapped__)
    assert main(["zeros", "--n", "8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fixed-point residual" in captured.err


@pytest.mark.parametrize("argv", [
    ["zeros", "--n", "8", "--tol", "1e-12"],
    ["sample", "--n", "2", "--k", "1", "--trials", "1", "--format", "csv"],
])
def test_removed_flags_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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
    # A misspelt key ran with its default (here 1 worker).
    bad.write_text(json.dumps(
        {"n": [2], "k": [10.0], "c": [1.0], "trials": 5, "worker": 2}))
    r = run_cli("sweep", "--config", str(bad))
    assert r.returncode == 2
    assert r.stdout == ""
    assert "unknown config key 'worker'" in r.stderr


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "config must be a JSON object"),
    (json.dumps({"n": [2], "k": [1e3], "c": [1.0]}),
     "config key 'trials' is required"),
], ids=["not-an-object", "no-trials"])
def test_sweep_config_shape_rejected(text, message, tmp_path, capsys):
    path = tmp_path / "grid.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("data", [
    b'{"n": [2], "k": [1e3], "c": [1.0], "trials": 5, "seed": "\xff"}',
    b"[" * 200_000,
    b'{"n": [2], "k": [1e3], "c": [1.0], "trials": ' + b"7" * 5000 + b"}",
], ids=["not-utf8", "nested", "long-int"])
def test_sweep_config_not_json(data, tmp_path, capsys):
    # These escaped as UnicodeDecodeError, RecursionError and ValueError
    # (the 4300-digit limit on integer strings): exit 1 and a traceback.
    path = tmp_path / "grid.json"
    path.write_bytes(data)
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config file is not valid JSON" in captured.err


def test_clt_needs_two_trials(tmp_path, capsys):
    # One trial reported a covariance that no sample measured.
    out = tmp_path / "clt.csv"
    assert main(["clt", "--n", "2", "--k", "10", "--trials", "1",
                 "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "a covariance needs at least 2 samples, got 1" in captured.err
    with pytest.raises(InvalidConfig, match="at least 2 samples"):
        bf.clt_covariance_test(bf.ExperimentConfig(n=5, k=1e4, trials=1, seed=0))


@pytest.mark.parametrize("cfg", [
    {"n": [2], "k": [1e3, math.inf], "c": [1.0], "trials": 5},
    {"n": [2], "k": [1e3], "c": [1.0, math.inf], "trials": 5},
    {"n": [2], "k": [1e3], "c": [1.0, math.nan], "trials": 5},
    {"n": [2, math.inf], "k": [1e3], "c": [1.0], "trials": 5},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": "many"},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": 5, "workers": 0},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": 5, "confidence": 1.0},
    {"n": [2.9], "k": [1e3], "c": [1.0], "trials": 5},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": 10.9},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": True},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": 5, "seed": 1.5},
    {"n": [2], "k": [1e3], "c": [1.0], "trials": 5, "workers": 1.5},
])
def test_sweep_grid_rejected_before_any_point_runs(cfg, tmp_path, capsys):
    # A non-finite k or c used to fail at its own grid point, after the
    # earlier rows were written; a non-number raised a bare traceback; bad
    # workers or confidence left a file holding only the header; a
    # fractional or boolean integer field was truncated and run.
    out = tmp_path / "sweep.csv"
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({**cfg, "out": str(out)}))
    assert main(["sweep", "--config", str(path)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("out", [[], {}, 3.5, True, 1, "a\0b"])
def test_sweep_out_must_be_a_path(out, tmp_path, capsys):
    # A list, dict or float raised a TypeError traceback; true and 1 were
    # taken as file descriptor 1, which the sweep wrote to and closed; a
    # NUL byte raised open()'s ValueError (exit 1).
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"n": [2], "k": [1e3], "c": [1.0],
                                "trials": 5, "out": out}))
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "out must be a file path" in captured.err


@pytest.mark.parametrize("argv", [
    ["tail", "--n", "2", "--k", "1e4", "--c", "1", "--norm", "l2",
     "--trials", "10", "--seed", "-1"],
    ["sample", "--n", "2", "--k", "1", "--trials", "1", "--seed", "-1"],
    ["clt", "--n", "3", "--k", "1e4", "--trials", "10", "--seed", "-1"],
    ["sweep"],
    ["env"],
])
def test_negative_seed_rejected(argv, tmp_path, monkeypatch, capsys):
    # Each ended in SeedSequence's ValueError traceback, exit 1.
    if argv == ["sweep"]:
        argv = ["sweep", "--config", _sweep_config(
            str(tmp_path / "grid.json"), 2, 1e4, 1.0, 10, seed=-1)]
    elif argv == ["env"]:
        monkeypatch.setenv("BETAFREEZE_SEED", "-1")
        argv = ["sample", "--n", "2", "--k", "1", "--trials", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


def test_seed_env_garbage_rejected():
    r = run_cli("sample", "--n", "2", "--k", "1", "--trials", "1",
                env_extra={"BETAFREEZE_SEED": "not-a-number"})
    assert r.returncode == 2


@pytest.mark.parametrize("argv", [
    ["bounds", "--n", "2", "--k", "1e4", "--eps", "inf"],
    ["bounds", "--n", "2", "--k", "1e4", "--c", "inf"],
    ["tail", "--n", "2", "--k", "1e4", "--eps", "inf", "--norm", "l2",
     "--trials", "1000"],
    ["tail", "--n", "2", "--k", "1e4", "--c", "inf", "--norm", "sup",
     "--trials", "1000"],
    ["bounds", "--n", "2", "--k", "1e4", "--eps", "1e100"],
    ["bounds", "--n", "2", "--k", "1e4", "--c", "1e80"],
    ["bounds", "--n", "2", "--k", "1e4", "--c", "1e200", "--format", "json"],
    ["bounds", "--n", "2", "--k", "1e200", "--eps", "1e-90"],
])
def test_boundary_values_never_print_nan(argv, capsys):
    # Infinite thresholds are invalid (exit 2); huge or tiny finite ones
    # give a finite or infinite bound, never NaN and never total <= 0.
    code = main(argv)
    out = capsys.readouterr().out
    assert code == (2 if "inf" in argv else 0)
    assert "nan" not in out.lower()
    if argv[0] == "bounds" and code == 0:
        if "json" in argv:
            total = json.loads(out)["total"]
        else:
            header, row = out.strip().split("\n")
            total = float(dict(zip(header.split(","), row.split(",")))["total"])
        assert total > 0.0


# ----------------------------------------------------------------------
# sample streams one block at a time
# ----------------------------------------------------------------------

def test_sample_across_chunk_boundary_matches_batches(capsys):
    # Two blocks at n = 2, of 16 BLOCK and 3 trials: the output is the batch
    # draws of block b's stream worker_streams(seed, 1, (b,))[0], block by
    # block, trial numbers running on.
    trials = 16 * BLOCK + 3
    assert main(["sample", "--n", "2", "--k", "3", "--trials", str(trials),
                 "--seed", "5"]) == 0
    out = capsys.readouterr().out
    lam = np.concatenate([
        bf.sample_eigenvalue_batch(2, 3.0, bf.worker_streams(5, 1, (b,))[0], m)
        for b, m in enumerate((16 * BLOCK, 3))])
    want = ["trial,i,lambda_i"] + [
        f"{t},{i},{bf.experiment.format_float(float(v))}"
        for t, row in enumerate(lam) for i, v in enumerate(row, start=1)
    ]
    same = out == "\n".join(want) + "\n"  # no diff of ~131k lines on failure
    assert same


@pytest.mark.parametrize("argv", [
    ["sample", "--n", "1", "--k", "3", "--trials", "5"],
    ["sample", "--n", "2", "--k", "3", "--trials", "0"],
    ["sample", "--n", "2", "--k", "-1", "--trials", "5"],
])
def test_sample_rejects_before_any_output(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def _sample_peak_rss_mb(trials: int) -> float:
    code = (
        "import os, resource, sys\n"
        "sys.stdout = open(os.devnull, 'w')\n"
        "from betafreeze.cli import main\n"
        f"rc = main(['sample', '--n', '2', '--k', '100', '--trials', '{trials}',"
        " '--seed', '1'])\n"
        "sys.stderr.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True)
    return int(r.stderr) / 1024.0  # ru_maxrss is in kB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss units")
def test_sample_peak_rss_does_not_grow_with_trials():
    # Holding every line grew peak RSS by ~40 MB from 65536 trials to
    # 196608 at n = 2; streaming keeps one block's lines at a time.
    one = _sample_peak_rss_mb(65536)
    three = _sample_peak_rss_mb(196608)
    assert three - one < 10.0, (one, three)


# ----------------------------------------------------------------------
# one upper bound on n, an unwritable --out, and the exit codes
# ----------------------------------------------------------------------

def test_size_cap_fits_one_dense_matrix():
    assert MAX_N * MAX_N <= _core._DENSE_BUDGET < (MAX_N + 1) ** 2


def _sweep_config(path, n, k, c, trials, seed=None) -> str:
    cfg = {"n": [n], "k": [k], "c": [c], "trials": trials}
    if seed is not None:
        cfg["seed"] = seed
    with open(path, "w") as handle:
        json.dump(cfg, handle)
    return path


@pytest.mark.parametrize("n", (MAX_N + 1, 10**8))
@pytest.mark.parametrize("command", ("zeros", "verify", "sample", "tail",
                                     "clt", "sweep"))
def test_size_above_cap_rejected(command, n, tmp_path, capsys):
    # Every command that samples, solves or factors an n x n matrix rejects
    # n above the cap before it allocates anything.
    argv = {
        "zeros": ["zeros", "--n", str(n)],
        "verify": ["verify", "--n", str(n)],
        "sample": ["sample", "--n", str(n), "--k", "1e4", "--trials", "1"],
        "tail": ["tail", "--n", str(n), "--k", "1e4", "--c", "1", "--norm",
                 "l2", "--trials", "1"],
        "clt": ["clt", "--n", str(n), "--k", "1e4", "--trials", "1"],
        "sweep": ["sweep", "--config", _sweep_config(
            str(tmp_path / "grid.json"), n, 1e4, 1.0, 1)],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"n must be <= {MAX_N}, got {n}" in captured.err


@pytest.mark.parametrize("command", ("zeros", "verify", "sample", "tail-l2",
                                     "tail-sup", "sweep", "clt"))
def test_sizes_up_to_the_cap_run(command, tmp_path, capsys):
    # The Hermite zeros' residual bound grows with n, so the largest sizes
    # work; they share the cached zeros.  clt runs at n = 1000, since at
    # the cap its n x n moment arrays need about 1 GB, and with 2 trials,
    # the fewest a covariance takes.
    n = str(MAX_N)
    argv = {
        "zeros": ["zeros", "--n", n],
        "verify": ["verify", "--n", n],
        "sample": ["sample", "--n", n, "--k", "1e4", "--trials", "1"],
        "tail-l2": ["tail", "--n", n, "--k", "1e4", "--c", "1", "--norm",
                    "l2", "--trials", "1"],
        "tail-sup": ["tail", "--n", n, "--k", "1e4", "--c", "1", "--norm",
                     "sup", "--trials", "1"],
        "sweep": ["sweep", "--config", _sweep_config(
            str(tmp_path / "grid.json"), MAX_N, 1e4, 1.0, 1)],
        "clt": ["clt", "--n", "1000", "--k", "1e4", "--trials", "2"],
    }[command]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    if command == "verify":
        assert f"verify n={MAX_N}: all 9 checks passed" in captured.out


RUNS = [
    ["tail", "--n", "2", "--k", "1e4", "--c", "1", "--norm", "l2",
     "--trials", "100"],
    ["clt", "--n", "3", "--k", "1e4", "--trials", "100"],
]


@pytest.mark.parametrize("argv", RUNS)
def test_unwritable_out_fails_before_any_trial(argv, tmp_path, monkeypatch,
                                               capsys):
    def no_draw(*args):
        raise AssertionError("a trial was drawn")

    monkeypatch.setattr(_sampler, "sample_tridiagonal_batch", no_draw)
    out = tmp_path / "missing" / "out.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize("argv", RUNS)
def test_failed_run_leaves_no_out_file(argv, tmp_path, monkeypatch):
    def fail(*args):
        raise ConvergenceFailure("no convergence")

    monkeypatch.setattr(_experiment, "estimate_tail_l2", fail)
    monkeypatch.setattr(_experiment, "clt_covariance_test", fail)
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == 3
    assert not out.exists()


#: n at the edges of its domain; log-uniform k, eps and c, plus the values
#: outside every domain; seeds of any sign and size, or none.
EDGE_SIZES = st.sampled_from([-1, 0, 1, 2, 3, MAX_N, MAX_N + 1, 10**30])
EDGE_REALS = st.one_of(
    st.floats(-150.0, 150.0).map(lambda x: 10.0 ** x),
    st.sampled_from([0.0, -1.0, -math.inf, math.inf, math.nan]),
)
EDGE_SEEDS = st.one_of(st.none(), st.integers(-(2**70), 2**70))


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["zeros", "verify", "sample", "tail", "clt",
                                "sweep"]),
       n=EDGE_SIZES, k=EDGE_REALS, threshold=EDGE_REALS, use_c=st.booleans(),
       trials=st.integers(-1, 50), seed=EDGE_SEEDS)
def test_commands_exit_only_0_2_or_3(command, n, k, threshold, use_c, trials,
                                     seed):
    if n == MAX_N:
        trials = min(trials, 1)  # one dense 2000 x 2000 solve per trial
    flag = "--c" if use_c else "--eps"
    seeded = [] if seed is None else [f"--seed={seed}"]
    with tempfile.TemporaryDirectory() as tmp:
        argv = {
            "zeros": ["zeros", f"--n={n}"],
            "verify": ["verify", f"--n={n}"],
            "sample": ["sample", f"--n={n}", f"--k={k!r}",
                       f"--trials={trials}", *seeded],
            "tail": ["tail", f"--n={n}", f"--k={k!r}", f"{flag}={threshold!r}",
                     "--norm", "l2" if use_c else "sup", f"--trials={trials}",
                     *seeded],
            "clt": ["clt", f"--n={n}", f"--k={k!r}", f"--trials={trials}",
                    *seeded],
            "sweep": ["sweep", "--config", _sweep_config(
                os.path.join(tmp, "grid.json"), n, k, threshold, trials, seed)],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
