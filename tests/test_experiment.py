"""Monte Carlo experiment layer: norm conventions, worker orchestration,
reproducibility, sweep schema and failure semantics."""

import dataclasses
import math
import os
from concurrent.futures import Future

import numpy as np
import pytest

import betafreeze as bf
from betafreeze import experiment
from betafreeze.cli import main
from betafreeze.errors import MAX_N, ConvergenceFailure, InvalidConfig
from betafreeze.experiment import CHUNK, SWEEP_COLUMNS, _partition, format_float


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------

def test_config_validation():
    good = bf.ExperimentConfig(n=3, k=10.0, trials=100, seed=1, eps=0.5)
    good.validate()
    assert good.resolve_eps() == 0.5
    for bad in (
        bf.ExperimentConfig(n=1, k=10.0, trials=100, seed=1, eps=0.5),
        bf.ExperimentConfig(n=3, k=0.0, trials=100, seed=1, eps=0.5),
        bf.ExperimentConfig(n=3, k=10.0, trials=0, seed=1, eps=0.5),
        bf.ExperimentConfig(n=3, k=10.0, trials=100, seed=1, eps=0.5, workers=0),
        bf.ExperimentConfig(n=3, k=10.0, trials=100, seed=1, eps=0.5,
                            confidence=1.0),
        bf.ExperimentConfig(n=3, k=10.0, trials=100, seed=-1, eps=0.5),
    ):
        with pytest.raises(InvalidConfig):
            bad.validate()
    # eps / c exclusivity
    with pytest.raises(InvalidConfig):
        bf.ExperimentConfig(n=3, k=10.0, trials=10, seed=1).resolve_eps()
    with pytest.raises(InvalidConfig):
        bf.ExperimentConfig(n=3, k=10.0, trials=10, seed=1,
                            eps=0.5, c=1.0).resolve_eps()
    with pytest.raises(InvalidConfig):
        bf.ExperimentConfig(n=3, k=10.0, trials=10, seed=1,
                            eps=-0.5).resolve_eps()
    # c route delegates to the log-threshold formula
    cfg_c = bf.ExperimentConfig(n=3, k=100.0, trials=10, seed=1, c=1.0)
    assert cfg_c.resolve_eps() == bf.cor_eps(100.0, 1.0)


def test_partition_covers_trials():
    for trials in (1, 7, 65536, 100001):
        for workers in (1, 2, 3, 8):
            counts = _partition(trials, workers)
            assert sum(counts) == trials and len(counts) == workers
            assert max(counts) - min(counts) <= 1


# ----------------------------------------------------------------------
# norm conventions
# ----------------------------------------------------------------------

def test_per_trial_norm_identities(zeros_cache):
    n, k = 4, 7.0
    z = zeros_cache(n).zeros
    lam = bf.sample_eigenvalue_batch(n, k, bf.master_stream(3), 1000)
    sqrt2k = math.sqrt(2.0 * k)
    ys = lam / sqrt2k - z
    l2s, sups = experiment._l2(ys), experiment._sup(ys)
    supu = sqrt2k * sups
    np.testing.assert_allclose(l2s, np.linalg.norm(ys, axis=1),
                               rtol=1e-15, atol=0)
    np.testing.assert_array_equal(sups, np.max(np.abs(ys), axis=1))
    # the unscaled sup norm is sqrt(2k) times the scaled one, bit for bit
    np.testing.assert_array_equal(supu, sqrt2k * sups)
    # and agrees with the directly computed unscaled residual to rounding
    direct = np.max(np.abs(lam - sqrt2k * z), axis=1)
    np.testing.assert_allclose(supu, direct, rtol=1e-12, atol=0)
    # sup norm never exceeds the l2 norm (up to one rounding step)
    assert np.all(sups <= l2s * (1.0 + 1e-12))


def test_sup_hits_never_exceed_l2_hits_at_matched_thresholds():
    # threshold eps on the scaled l2 norm corresponds to sqrt(2k) eps on
    # the unscaled sup norm; the sup event implies... the reverse ordering:
    # sup <= l2 pointwise, so sup hits <= l2 hits.
    n, k, eps = 3, 50.0, 0.25
    base = dict(n=n, k=k, trials=30_000, seed=17)
    l2 = bf.estimate_tail_l2(bf.ExperimentConfig(eps=eps, **base))
    sup = bf.estimate_tail_sup(
        bf.ExperimentConfig(eps=math.sqrt(2.0 * k) * eps, **base)
    )
    assert sup.hits <= l2.hits


def test_trivial_thresholds():
    base = dict(n=2, k=5.0, trials=500, seed=2)
    all_hit = bf.estimate_tail_l2(bf.ExperimentConfig(eps=1e-300, **base))
    assert all_hit.hits == all_hit.trials
    assert all_hit.p_hat == 1.0 and all_hit.ci_high == 1.0
    no_hit = bf.estimate_tail_l2(bf.ExperimentConfig(eps=math.inf, **base))
    assert no_hit.hits == 0
    assert no_hit.p_hat == 0.0 and no_hit.ci_low == 0.0
    assert 0.0 < no_hit.ci_high < 0.02


# ----------------------------------------------------------------------
# orchestration: determinism and worker semantics
# ----------------------------------------------------------------------

def test_tail_reproducible_per_config():
    cfg = bf.ExperimentConfig(n=3, k=100.0, trials=20_000, seed=11, eps=0.25,
                              workers=2)
    assert bf.estimate_tail_l2(cfg) == bf.estimate_tail_l2(cfg)


def test_tail_matches_manual_partition(zeros_cache):
    # Re-derive the estimate by hand from the documented execution model:
    # static block partition; worker w draws from worker_streams(seed, W)[w]
    # in chunks of CHUNK; merged hit counts.
    n, k, eps, trials, workers, seed = 3, 80.0, 0.22, 2001, 2, 29
    cfg = bf.ExperimentConfig(n=n, k=k, trials=trials, seed=seed, eps=eps,
                              workers=workers)
    est = bf.estimate_tail_l2(cfg)
    z = zeros_cache(n).zeros
    counts = _partition(trials, workers)
    assert counts == [1001, 1000]
    streams = bf.worker_streams(seed, workers)
    hits = 0
    for w, t in enumerate(counts):
        rng = streams[w]
        remaining = t
        while remaining > 0:
            m = min(CHUNK, remaining)
            lam = bf.sample_eigenvalue_batch(n, k, rng, m)
            ys = lam / math.sqrt(2.0 * k) - z
            l2s = np.sqrt(np.sum(ys * ys, axis=1))
            hits += int(np.count_nonzero(l2s > eps))
            remaining -= m
    assert est.hits == hits
    lo, hi = bf.clopper_pearson(hits, trials, 0.99)
    assert est.ci_low == lo and est.ci_high == hi


def test_streams_only_for_workers_with_trials(monkeypatch, capsys):
    # Workers beyond the trial count get no trials, so no stream is built
    # for them; the estimate is the one at workers = trials, and the
    # workers column still prints what was asked for.
    real = experiment.worker_streams

    def streams(seed, workers, prefix=()):
        if workers > 3:
            raise AssertionError(f"{workers} streams for 3 trials")
        return real(seed, workers, prefix=prefix)

    monkeypatch.setattr(experiment, "worker_streams", streams)
    argv = ["tail", "--n", "2", "--k", "4", "--eps", "0.3", "--norm", "l2",
            "--trials", "3", "--seed", "9", "--workers"]
    rows = []
    for workers in ("3", "1000000000"):
        assert main(argv + [workers]) == 0
        header, row = capsys.readouterr().out.splitlines()
        rows.append(row.split(","))
    col = header.split(",").index("workers")
    assert [row.pop(col) for row in rows] == ["3", "1000000000"]
    assert rows[0] == rows[1]


def test_worker_counts_statistically_consistent():
    base = dict(n=2, k=200.0, trials=40_000, seed=5, eps=0.12)
    est1 = bf.estimate_tail_l2(bf.ExperimentConfig(workers=1, **base))
    est4 = bf.estimate_tail_l2(bf.ExperimentConfig(workers=4, **base))
    # different partitions see different draws; their 99% CIs must overlap
    assert est1.ci_low <= est4.ci_high and est4.ci_low <= est1.ci_high


def test_thread_pool_capped_at_cpu_count(monkeypatch):
    cfg = bf.ExperimentConfig(n=3, k=50.0, trials=4000, seed=13, eps=0.2,
                              workers=8)
    want = bf.estimate_tail_l2(cfg)

    pool_sizes = []

    class SerialPool:
        """Runs each job at submit time; records the requested pool size."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiment, "ThreadPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert bf.estimate_tail_l2(cfg) == want
    assert pool_sizes == [2]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert bf.estimate_tail_l2(cfg) == want
    assert pool_sizes == [2, 1]


# ----------------------------------------------------------------------
# covariance test
# ----------------------------------------------------------------------

def test_clt_covariance_close_at_large_k():
    cfg = bf.ExperimentConfig(n=2, k=1e4, trials=100_000, seed=31)
    rep = bf.clt_covariance_test(cfg)
    assert rep.n == 2 and rep.trials == 100_000
    assert rep.cov_rel_err <= 0.03
    assert rep.mean_norm <= 5.0 * math.sqrt(1.5 / 100_000)  # tr(Sigma) = 3/2
    assert rep.cov.shape == (2, 2)
    # empirical covariance should be near [[3/4, 1/4], [1/4, 3/4]]
    np.testing.assert_allclose(
        rep.cov, [[0.75, 0.25], [0.25, 0.75]], rtol=0, atol=0.03
    )


def test_clt_error_decreases_from_small_to_large_k():
    # At k = 3 the finite-k bias is ~2e-2, far above the Monte Carlo noise
    # at this trial count; at k = 1e4 the error is ~1e-4 or less.  The
    # decrease is robust.
    base = dict(n=3, trials=200_000, seed=43)
    err_small = bf.clt_covariance_test(
        bf.ExperimentConfig(k=3.0, **base)
    ).cov_rel_err
    err_large = bf.clt_covariance_test(
        bf.ExperimentConfig(k=1e4, **base)
    ).cov_rel_err
    assert err_small > 2.0 * err_large
    assert err_small > 0.015


def test_clt_deterministic_and_worker_merge():
    cfg = bf.ExperimentConfig(n=2, k=100.0, trials=30_000, seed=7, workers=3)
    a = bf.clt_covariance_test(cfg)
    b = bf.clt_covariance_test(cfg)
    assert a.mean_norm == b.mean_norm and a.cov_rel_err == b.cov_rel_err
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.cov, b.cov)
    # a different worker count estimates the same quantity
    c = bf.clt_covariance_test(
        bf.ExperimentConfig(n=2, k=100.0, trials=30_000, seed=7, workers=1)
    )
    assert abs(a.cov_rel_err - c.cov_rel_err) < 0.02


def test_clt_limit_covariance_is_cached(monkeypatch, precision_cache):
    # The limit covariance is built once per n: a second call at the same n
    # calls build_precision no more, and returns the same results bit for
    # bit as a call that computes it afresh.
    n = 4
    calls = []
    build_precision = experiment.build_precision

    def counting(z):
        calls.append(len(z))
        return build_precision(z)

    monkeypatch.setattr(experiment, "build_precision", counting)
    experiment._limit_covariance.cache_clear()
    cfg = bf.ExperimentConfig(n=n, k=1e3, trials=5000, seed=3, workers=2)
    fresh = bf.clt_covariance_test(cfg)
    assert calls == [n]
    cached = bf.clt_covariance_test(cfg)
    assert calls == [n]
    sigma = experiment._limit_covariance(n)
    assert not sigma.flags.writeable
    pair = precision_cache(n)
    np.testing.assert_array_equal(sigma, pair.chol_cov @ pair.chol_cov.T)
    for f in dataclasses.fields(bf.CltReport):
        np.testing.assert_array_equal(
            getattr(cached, f.name), getattr(fresh, f.name)
        )
    experiment._limit_covariance.cache_clear()


def test_clt_plain_diagnostic_is_the_empirical_covariance(
    zeros_cache, precision_cache
):
    n, k, trials, seed = 3, 50.0, 5000, 17
    rep = bf.clt_covariance_test(
        bf.ExperimentConfig(n=n, k=k, trials=trials, seed=seed)
    )
    lam = bf.sample_eigenvalue_batch(n, k, bf.worker_streams(seed, 1)[0], trials)
    y = lam - math.sqrt(2.0 * k) * zeros_cache(n).zeros
    np.testing.assert_allclose(rep.cov_plain, np.cov(y.T), rtol=0, atol=1e-12)
    np.testing.assert_allclose(rep.mean, y.mean(axis=0), rtol=0, atol=1e-12)
    pair = precision_cache(n)
    sigma = pair.chol_cov @ pair.chol_cov.T
    assert rep.cov_rel_err_plain == pytest.approx(
        np.linalg.norm(np.cov(y.T) - sigma) / np.linalg.norm(sigma), rel=1e-9
    )
    assert not np.array_equal(rep.cov, rep.cov_plain)


def test_clt_control_variate_matches_exact_n2_covariance():
    # At n = 2, (l1 - l2)/sqrt2 ~ chi_{2k+1} and (l1 + l2)/sqrt2 ~ N(0, 1),
    # independent, so Cov(Y) = 1/2 [[1+v, 1-v], [1-v, 1+v]], v = Var chi_{2k+1}.
    # Sixteen independent runs give the standard error of each entry.
    runs = 16
    for k in (10.0, 100.0, 1e4):
        v = bf.chi_variance(2.0 * k + 1.0)
        exact = 0.5 * np.array([[1.0 + v, 1.0 - v], [1.0 - v, 1.0 + v]])
        reps = [
            bf.clt_covariance_test(
                bf.ExperimentConfig(n=2, k=k, trials=20_000, seed=seed)
            )
            for seed in range(runs)
        ]
        cv = np.array([r.cov for r in reps])
        plain = np.array([r.cov_plain for r in reps])
        se = cv.std(axis=0, ddof=1) / math.sqrt(runs)
        assert np.all(np.abs(cv.mean(axis=0) - exact) <= 5.0 * se), k
        err_cv = np.mean([np.linalg.norm(c - exact) for c in cv])
        err_plain = np.mean([np.linalg.norm(c - exact) for c in plain])
        assert err_cv < err_plain, k


# ----------------------------------------------------------------------
# gaussian reference
# ----------------------------------------------------------------------

def test_gaussian_reference_tail_basics():
    a = bf.gaussian_reference_tail(3, 1.5, 50_000, seed=3)
    b = bf.gaussian_reference_tail(3, 1.5, 50_000, seed=3)
    assert a == b
    wider = bf.gaussian_reference_tail(3, 1.0, 50_000, seed=3)
    assert wider.hits >= a.hits  # smaller threshold, more hits (same draws)
    assert 0.0 <= a.ci_low <= a.p_hat <= a.ci_high <= 1.0
    with pytest.raises(InvalidConfig):
        bf.gaussian_reference_tail(1, 1.0, 100, 0)
    with pytest.raises(InvalidConfig):
        bf.gaussian_reference_tail(3, 0.0, 100, 0)
    with pytest.raises(InvalidConfig):
        bf.gaussian_reference_tail(3, 1.0, 0, 0)


@pytest.mark.parametrize("kwargs", [{"seed": -1}, {"confidence": 1.5}])
def test_gaussian_reference_tail_checks_run_settings_first(kwargs, monkeypatch):
    # A negative seed used to escape as NumPy's ValueError, and a bad
    # confidence was rejected only after the whole Monte Carlo run.
    def no_run(*args):
        raise AssertionError("the Monte Carlo run started")

    monkeypatch.setattr(experiment, "_run_workers", no_run)
    with pytest.raises(InvalidConfig):
        bf.gaussian_reference_tail(3, 1.0, 100, **{"seed": 0, **kwargs})


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_schema_and_determinism():
    text = bf.sweep([2, 3], [100.0], [1.0], trials=2000, seed=1)
    again = bf.sweep([2, 3], [100.0], [1.0], trials=2000, seed=1)
    assert text == again
    lines = text.strip().split("\n")
    assert lines[0].startswith("#") and lines[1].startswith("#")
    assert lines[2] == SWEEP_COLUMNS
    assert len(lines) == 3 + 2  # two grid points
    for row in lines[3:]:
        fields = row.split(",")
        assert len(fields) == len(SWEEP_COLUMNS.split(","))
        assert fields[15] in ("true", "false")
        assert fields[19] in ("prop", "di")
        # all numeric fields round-trip as floats
        for idx in (1, 2, 3, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18):
            float(fields[idx])
        assert int(fields[0]) in (2, 3)
        assert int(fields[4]) == 2000


def test_sweep_empty_grid_is_header_only():
    text = bf.sweep([], [100.0], [1.0], trials=10, seed=0)
    assert text.strip().split("\n") == [
        "# betafreeze sweep",
        "# trials=10 seed=0 workers=1 confidence=" + format_float(0.99),
        SWEEP_COLUMNS,
    ]


def test_sweep_row_consistent_with_direct_calls(zeros_cache):
    n, k, c, trials, seed = 2, 1e4, 1.0, 5000, 9
    text = bf.sweep([n], [k], [c], trials=trials, seed=seed)
    row = text.strip().split("\n")[3].split(",")
    eps = bf.cor_eps(k, c)
    bd = bf.prop_bound(n, k, eps)
    assert float(row[3]) == eps
    assert float(row[9]) == bd.term_quartic
    assert float(row[14]) == bd.total_clamped
    assert row[15] == ("true" if bd.condition_ok else "false")
    assert float(row[16]) == bf.cor_bound(n, k, c)
    di_eps = math.sqrt(2.0 * k) * eps
    assert float(row[17]) == di_eps
    assert float(row[18]) == bf.dette_imhof_bound(n, di_eps)
    # empirical part reproduces the per-point stream (prefix = point index)
    cfg = bf.ExperimentConfig(n=n, k=k, trials=trials, seed=seed, eps=eps)
    est = bf.estimate_tail_l2(cfg, seed_prefix=(0,))
    assert int(row[5]) == est.hits
    assert float(row[7]) == est.ci_low and float(row[8]) == est.ci_high


def test_sweep_bound_dominance_where_applicable():
    # Build-failing invariant: whenever the window holds and the bound is
    # informative (< 1), the empirical upper confidence limit must sit
    # below it.
    text = bf.sweep([2], [1e4, 1e5], [1.0], trials=20_000, seed=77)
    for row in text.strip().split("\n")[3:]:
        f = row.split(",")
        condition_ok, total = f[15] == "true", float(f[13])
        if condition_ok and total < 1.0:
            assert float(f[8]) <= total, row


def test_sweep_partial_flush_on_failure(tmp_path, monkeypatch):
    # A grid point that fails while it runs (here a solver failure injected
    # at the second point) leaves the rows before it on disk.
    out = str(tmp_path / "partial.csv")
    estimate = experiment.estimate_tail_l2

    def failing(cfg, seed_prefix):
        if seed_prefix == (1,):
            raise ConvergenceFailure("injected")
        return estimate(cfg, seed_prefix=seed_prefix)

    monkeypatch.setattr(experiment, "estimate_tail_l2", failing)
    with pytest.raises(ConvergenceFailure):
        bf.sweep([2], [100.0, 200.0], [1.0], trials=500, seed=4, out=out)
    with open(out) as handle:
        lines = handle.read().strip().split("\n")
    assert lines[2] == SWEEP_COLUMNS
    assert len(lines) == 4  # header + the one completed row
    assert lines[3].split(",")[0] == "2"


def test_sweep_reads_one_shot_grids_once():
    # Generators give every grid point, as lists do.
    want = bf.sweep([2, 3], [1e3, 1e4], [1.0], trials=10, seed=1)
    got = bf.sweep(iter([2, 3]), (k for k in [1e3, 1e4]), iter([1.0]), 10, 1)
    assert got == want
    assert len(got.strip().split("\n")) == 3 + 4


@pytest.mark.parametrize("grid", [
    ([2, 1], [100.0], [1.0]), ([2, MAX_N + 1], [100.0], [1.0]),
    ([2], [100.0, 0.5], [1.0]), ([2], [100.0], [1.0, 0.0]),
    ([2], [100.0], [1.0, math.inf]), ([2], [100.0], [1.0, "one"]),
])
def test_sweep_grid_checked_before_out_is_opened(grid, tmp_path):
    # A bad last grid point raises before the first point runs, so no file
    # is left behind.
    out = tmp_path / "sweep.csv"
    with pytest.raises(InvalidConfig):
        bf.sweep(*grid, trials=500, seed=4, out=str(out))
    assert not out.exists()


@pytest.mark.parametrize("settings", [
    {"trials": 0}, {"workers": 0}, {"confidence": 0.0}, {"confidence": 1.0},
    {"seed": -1},
])
def test_sweep_settings_checked_before_out_is_opened(settings, tmp_path):
    out = tmp_path / "sweep.csv"
    kwargs = {"trials": 500, "seed": 4, "out": str(out), **settings}
    with pytest.raises(InvalidConfig):
        bf.sweep([2], [100.0], [1.0], **kwargs)
    assert not out.exists()


@pytest.mark.parametrize("n", (2, 3, 5, 7, 8, 32))
def test_norms_match_axis_reductions_bit_for_bit(n):
    # Narrow rows are reduced column by column; the bits must be those of
    # the axis reductions, which the tail counts were defined with.
    ys = np.random.default_rng(n).standard_normal((4099, n)) * 10.0 ** np.arange(n)
    ys[3, 0] = np.nan
    np.testing.assert_array_equal(experiment._l2(ys), np.sqrt(np.sum(ys * ys, axis=1)))
    np.testing.assert_array_equal(experiment._sup(ys), np.max(np.abs(ys), axis=1))


def test_sweep_writes_file_and_returns_same_text(tmp_path):
    out = str(tmp_path / "sweep.csv")
    text = bf.sweep([2], [50.0], [1.0], trials=1000, seed=12, out=out)
    with open(out) as handle:
        assert handle.read() == text


def test_tighter_indicator_rule():
    # At (2, 1e5, c=1) the explicit bound is far below 1 and far below the
    # baseline; at (3, 1e2, c=1) the bound is vacuous (> 1) so the baseline
    # must win.
    text = bf.sweep([2], [1e5], [1.0], trials=1000, seed=6)
    assert text.strip().split("\n")[3].split(",")[19] == "prop"
    text = bf.sweep([3], [1e2], [1.0], trials=1000, seed=6)
    assert text.strip().split("\n")[3].split(",")[19] == "di"
