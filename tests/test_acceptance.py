"""Acceptance suite: twelve end-to-end criteria, one test and one summary
line each.

Monte Carlo criteria run at the fixed master seed below, chosen before any
acceptance run and never re-rolled; statistical outcomes are reported as
they land.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats

import betafreeze as bf
from _acceptance_log import RESULTS

MASTER_SEED = 20260817

pytestmark = pytest.mark.acceptance


class timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def record(num: int, label: str, ok: bool, elapsed: float, budget: float,
           detail: str = "") -> None:
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    line = f"ACCEPTANCE-{num:02d} {label}: {status} ({elapsed:.2f}s/{budget:.0f}s)"
    if detail:
        line += f" - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {num} ({label}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_acceptance_01_zero_identities():
    with timer() as t:
        worst_res, worst_gap = 0.0, 0.0
        for n in range(2, 201):
            z = bf.compute_zeros(n).zeros
            worst_res = max(worst_res, bf.fixed_point_residual(z) / (1e-9 * n))
            worst_gap = max(worst_gap, bf.potential_identity_gap(z))
        ok = worst_res <= 1.0 and worst_gap <= 1e-8
    record(1, "zero-identities", ok, t.elapsed, 30.0,
           f"max residual/tol={worst_res:.3g}, max gap={worst_gap:.3g}")


def test_acceptance_02_integer_spectrum():
    with timer() as t:
        worst = max(
            bf.spectrum_deviation(bf.build_precision(bf.compute_zeros(n).zeros))
            for n in range(2, 61)
        )
        ok = worst <= 1e-7
    record(2, "integer-spectrum", ok, t.elapsed, 60.0,
           f"max deviation={worst:.3g}")


def test_acceptance_03_trace_identities():
    with timer() as t:
        worst2, ok4 = 0.0, True
        for n in range(2, 201):
            z = bf.compute_zeros(n).zeros
            target = n * (n - 1) / 2.0
            worst2 = max(worst2,
                         abs(bf.inverse_power_sum(z, 2) - target) / target)
            cap = n * (n - 1) * (2 * n - 1) / 12.0
            ok4 = ok4 and bf.inverse_power_sum(z, 4) <= cap * (1 + 1e-12)
        ok = worst2 <= 1e-9 and ok4
    record(3, "trace-identities", ok, t.elapsed, 30.0,
           f"max quadratic rel err={worst2:.3g}, quartic capped={ok4}")


def test_acceptance_04_gap_bound():
    with timer() as t:
        ok = all(
            bf.min_gap(bf.compute_zeros(n).zeros) >= 2.0 / math.sqrt(n)
            for n in range(2, 201)
        )
    record(4, "gap-bound", ok, t.elapsed, 5.0)


def test_acceptance_05_sampler_closed_forms():
    with timer() as t:
        k, trials = 5.0, 1_000_000
        lam = bf.sample_eigenvalue_batch(2, k, bf.master_stream(MASTER_SEED),
                                         trials)
        half_sq = 0.5 * (lam[:, 0] - lam[:, 1]) ** 2
        mean = float(np.mean(half_sq))
        se = float(np.std(half_sq, ddof=1)) / math.sqrt(trials)
        mean_ok = abs(mean - 11.0) <= 3.0 * se

        total = (lam[:, 0] + lam[:, 1]) / math.sqrt(2.0)
        var = float(np.var(total, ddof=1))
        var_ok = abs(var - 1.0) <= 0.01

        diff = (lam[:, 0] - lam[:, 1]) / math.sqrt(2.0)
        p_chi = scipy.stats.kstest(diff, scipy.stats.chi(2 * k + 1).cdf).pvalue
        p_norm = scipy.stats.kstest(total, scipy.stats.norm.cdf).pvalue
        ks_ok = p_chi > 1e-3 and p_norm > 1e-3
        ok = mean_ok and var_ok and ks_ok
    record(5, "sampler-closed-forms", ok, t.elapsed, 120.0,
           f"mean={mean:.4f} (3SE={3*se:.4f}), var={var:.5f}, "
           f"KS p=({p_chi:.3g},{p_norm:.3g})")


def test_acceptance_06_sampler_vs_oracle():
    with timer() as t:
        n, k, draws = 3, 2.0, 120_000
        kept = bf.mh_oracle_chain(n, k, bf.master_stream(MASTER_SEED), draws)
        lam = bf.sample_eigenvalue_batch(n, k,
                                         bf.master_stream(MASTER_SEED + 1),
                                         200_000)
        # thinned chains must be close to independent for the draws to count
        # as effective; estimate lag-1 autocorrelation per chain
        chains = 50
        rhos = [
            float(np.corrcoef(kept[c::chains, coord][:-1],
                              kept[c::chains, coord][1:])[0, 1])
            for coord in range(n) for c in range(0, chains, 7)
        ]
        rho = max(0.0, float(np.mean(rhos)))
        ess = draws / (1.0 + 2.0 * rho)
        ess_ok = ess >= 1e5 and lam.shape[0] >= 1e5

        zq = 2.576  # two-sided 99%
        overlaps = []
        for coord in range(n):
            for power in (1, 2):
                a = lam[:, coord] ** power
                b = kept[:, coord] ** power
                ma, ha = float(np.mean(a)), zq * float(np.std(a, ddof=1)) / math.sqrt(a.size)
                mb, hb = float(np.mean(b)), zq * float(np.std(b, ddof=1)) / math.sqrt(ess)
                overlaps.append(ma - ha <= mb + hb and mb - hb <= ma + ha)
        ok = ess_ok and all(overlaps)
    record(6, "sampler-vs-oracle", ok, t.elapsed, 600.0,
           f"ess={ess:.0f}, overlaps={sum(overlaps)}/6, max|rho1|~{max(abs(r) for r in rhos):.3f}")


def test_acceptance_07_clt_convergence():
    with timer() as t:
        n, trials = 3, 200_000
        reports = {
            k: bf.clt_covariance_test(
                bf.ExperimentConfig(n=n, k=k, trials=trials, seed=MASTER_SEED)
            )
            for k in (1e2, 1e3, 1e4)
        }
        errs = [reports[k].cov_rel_err for k in (1e2, 1e3, 1e4)]
        decreasing = errs[0] > errs[1] > errs[2]
        small_at_1e4 = errs[2] <= 0.05
        pair = bf.build_precision(bf.compute_zeros(n).zeros)
        tr_sigma = float(np.trace(pair.chol_cov @ pair.chol_cov.T))
        mean_ok = reports[1e4].mean_norm <= 5.0 * math.sqrt(tr_sigma / trials)
        ok = decreasing and small_at_1e4 and mean_ok
    record(7, "clt-convergence", ok, t.elapsed, 600.0,
           f"errs={[f'{e:.5f}' for e in errs]}, strictly decreasing={decreasing}, "
           f"mean_norm={reports[1e4].mean_norm:.5f}")


def test_acceptance_08_stirling_bounds():
    with timer() as t:
        xs = np.logspace(math.log10(1.001), 6.0, 500)
        lo_m, hi_m = bf.stirling_bound_margins(xs)
        margins_ok = bool(np.all(lo_m > 0.0) and np.all(hi_m > 0.0))
        m_ok = True
        for N in range(2, 101):
            for k in np.logspace(0.0, 4.0, 40):
                k = float(k)
                if bf.exponent_M(N, k) < (N - 1) / (26.0 * k):
                    m_ok = False
        ok = margins_ok and m_ok
    record(8, "stirling-bounds", ok, t.elapsed, 10.0,
           f"two-sided margins positive={margins_ok}, exponent floor={m_ok}")


def test_acceptance_09_gaussian_dominance():
    with timer() as t:
        dominated = True
        worst = math.inf
        for i, N in enumerate((2, 5, 10, 20)):
            for j, eps in enumerate((1.0, 2.0, 3.0, 4.0)):
                bound = bf.gaussian_tail_bound(N, eps)
                est = bf.gaussian_reference_tail(
                    N, eps, 1_000_000, seed=MASTER_SEED + 10 * i + j
                )
                dominated = dominated and est.p_hat <= bound
                worst = min(worst, bound - est.p_hat)
        rng = bf.master_stream(MASTER_SEED + 99)
        grid = np.linspace(0.0, 0.499, 2000)
        grid_ok = True
        for r in -2.0 - rng.uniform(0.01, 100.0, size=100):
            d = bf.optimize_delta(float(r))
            f_star = math.exp(r * d) / (1.0 - 2.0 * d)
            f_grid = float(np.min(np.exp(r * grid) / (1.0 - 2.0 * grid)))
            grid_ok = grid_ok and f_star <= f_grid + 1e-12
        ok = dominated and grid_ok
    record(9, "gaussian-dominance", ok, t.elapsed, 180.0,
           f"min(bound - p_hat)={worst:.3g}, delta grid-minimal={grid_ok}")


def test_acceptance_10_main_bound_dominance():
    with timer() as t:
        ok = True
        details = []
        for idx, (N, k) in enumerate(((2, 1e3), (2, 1e4), (3, 1e4))):
            eps = math.sqrt(math.log(k) / k)
            bd = bf.prop_bound(N, k, eps)
            est = bf.estimate_tail_l2(bf.ExperimentConfig(
                n=N, k=k, trials=100_000, seed=MASTER_SEED + idx, eps=eps,
            ))
            binding = bd.condition_ok and bd.total < 1.0
            holds = (not binding) or est.ci_high <= bd.total
            ok = ok and holds
            details.append(
                f"(N={N},k={k:g}): total={bd.total:.3f}, ci_high={est.ci_high:.2e},"
                f" binding={binding}, holds={holds}"
            )
    record(10, "main-bound-dominance", ok, t.elapsed, 900.0,
           "; ".join(details))


def test_acceptance_11_crossover():
    with timer() as t:
        ns = list(range(2, 11))
        ks = [1e2, 1e3, 1e4, 1e5]
        text = bf.sweep(ns, ks, [1.0], trials=20_000, seed=MASTER_SEED)
        rows = [line.split(",") for line in text.strip().split("\n")[3:]]
        tighter = {(int(r[0]), float(r[1])): r[19] for r in rows}
        # consistent transitions: explicit bound takes over as k grows at
        # fixed N, and gives way to the baseline as N grows at fixed k
        k_up = any(
            tighter[(n, ka)] == "di" and tighter[(n, kb)] == "prop"
            for n in ns for ka, kb in zip(ks, ks[1:])
        )
        n_up = any(
            tighter[(na, k)] == "prop" and tighter[(nb, k)] == "di"
            for k in ks for na, nb in zip(ns, ns[1:])
        )
        ok = k_up or n_up
    record(11, "crossover", ok, t.elapsed, 1200.0,
           f"transition along k={k_up}, along N={n_up}")


def test_acceptance_12_byte_identical_cli(tmp_path):
    def run(*args, out=None):
        env = dict(os.environ)
        env.pop("BETAFREEZE_SEED", None)
        r = subprocess.run([sys.executable, "-m", "betafreeze", *args],
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        if not out:
            return r.stdout
        with open(out) as handle:
            return handle.read()

    with timer() as t:
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps(
            {"n": [2], "k": [100.0], "c": [1.0], "trials": 500,
             "seed": MASTER_SEED, "workers": 2}
        ))
        out_a, out_b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        invocations = [
            (("zeros", "--n", "30", "--format", "json"), None, None),
            (("sample", "--n", "3", "--k", "2", "--trials", "50",
              "--seed", str(MASTER_SEED)), None, None),
            (("bounds", "--n", "2", "--k", "10000", "--c", "1"), None, None),
            (("tail", "--n", "2", "--k", "100", "--c", "1", "--norm", "sup",
              "--trials", "4000", "--seed", str(MASTER_SEED), "--workers", "3",
              "--out", out_a),
             ("tail", "--n", "2", "--k", "100", "--c", "1", "--norm", "sup",
              "--trials", "4000", "--seed", str(MASTER_SEED), "--workers", "3",
              "--out", out_b), (out_a, out_b)),
            (("clt", "--n", "2", "--k", "1000", "--trials", "10000",
              "--seed", str(MASTER_SEED)), None, None),
            (("sweep", "--config", str(grid)), None, None),
        ]
        ok = True
        for args, args_b, outs in invocations:
            if outs is None:
                ok = ok and run(*args) == run(*args)
            else:
                a = run(*args, out=outs[0])
                b = run(*args_b, out=outs[1])
                ok = ok and a == b
    record(12, "byte-identical-cli", ok, t.elapsed, 60.0)
