"""Command line interface.

Subcommands::

    zeros   --n N [--tol T] [--format csv|json]
    verify  --n N
    sample  --n N --k K --trials T [--seed S] [--format csv]
    bounds  --n N --k K (--eps E | --c C) [--format csv|json]
    tail    --n N --k K (--eps E | --c C) --norm l2|sup --trials T
            [--seed S] [--workers W] [--confidence Q] [--out FILE]
    clt     --n N --k K --trials T [--seed S] [--out FILE]
    sweep   --config FILE

Exit codes: 0 success, 2 invalid configuration or arguments, 3 internal
numerical failure (non-convergence, degenerate input, failed factorization,
violated validity condition, or a failed ``verify`` check).

When ``--seed`` is omitted the seed comes from the ``BETAFREEZE_SEED``
environment variable, falling back to 0.  All output is deterministic for a
fixed configuration and seed: no timestamps, no machine-dependent content.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as _bounds
from . import experiment as _experiment
from . import sampler as _sampler
from .errors import BetafreezeError, InvalidConfig
from .experiment import ExperimentConfig, format_float
from .hermite_core import (
    compute_zeros,
    fixed_point_residual,
    potential_identity_gap,
)
from .rng import default_seed, worker_streams
from .spectral import build_precision, inverse_power_sum, min_gap, spectrum_deviation


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as handle:
            handle.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

def cmd_zeros(args: argparse.Namespace) -> int:
    hz = compute_zeros(args.n, tol=args.tol)
    residual = fixed_point_residual(hz.zeros)
    gap = potential_identity_gap(hz.zeros)
    if args.format == "json":
        payload = {
            "n": hz.n,
            "zeros": [float(z) for z in hz.zeros],
            "fixed_point_residual": residual,
            "potential_gap": gap,
        }
        _emit(_json_dumps(payload), None)
    else:
        lines = ["index,zero"]
        for i, z in enumerate(hz.zeros, start=1):
            lines.append(f"{i},{format_float(float(z))}")
        _emit("\n".join(lines) + "\n", None)
    return 0


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    n = args.n
    hz = compute_zeros(n)
    z = hz.zeros
    pair = build_precision(z)

    checks: list[tuple[str, float, float, bool]] = []

    def add(name: str, value: float, threshold: float, ok: bool) -> None:
        checks.append((name, value, threshold, ok))

    residual = fixed_point_residual(z)
    add("fixed_point_residual", residual, 1e-9 * n, residual <= 1e-9 * n)

    gap = potential_identity_gap(z)
    add("potential_identity_gap", gap, 1e-8, gap <= 1e-8)

    dev = spectrum_deviation(pair)
    add("spectrum_deviation", dev, 1e-7, dev <= 1e-7)

    ips2 = inverse_power_sum(z, 2)
    ips2_target = n * (n - 1) / 2.0
    ips2_err = abs(ips2 - ips2_target) / ips2_target
    add("pair_sum_p2_rel_err", ips2_err, 1e-9, ips2_err <= 1e-9)

    ips4 = inverse_power_sum(z, 4)
    ips4_cap = n * (n - 1) * (2 * n - 1) / 12.0
    add("pair_sum_p4_within_cap", ips4, ips4_cap, ips4 <= ips4_cap * (1.0 + 1e-12))

    gap_min = min_gap(z)
    gap_floor = 2.0 / math.sqrt(n)
    add("min_gap_above_floor", gap_min, gap_floor, gap_min >= gap_floor)

    row_err = float(np.max(np.abs(pair.S.sum(axis=1) - 1.0)))
    add("precision_row_sums", row_err, 1e-9, row_err <= 1e-9)

    tr1 = float(np.trace(pair.S))
    tr1_target = n * (n + 1) / 2.0
    tr1_err = abs(tr1 - tr1_target) / tr1_target
    add("precision_trace_rel_err", tr1_err, 1e-12, tr1_err <= 1e-12)

    tr2 = float(np.sum(pair.S * pair.S))
    tr2_target = n * (n + 1) * (2 * n + 1) / 6.0
    tr2_err = abs(tr2 - tr2_target) / tr2_target
    add("precision_trace_sq_rel_err", tr2_err, 1e-12, tr2_err <= 1e-12)

    failed = 0
    for name, value, threshold, ok in checks:
        status = "ok" if ok else "FAIL"
        print(f"{name}: value={format_float(value)} "
              f"threshold={format_float(threshold)} {status}")
        failed += 0 if ok else 1
    if failed:
        print(f"verify n={n}: {failed} of {len(checks)} checks FAILED")
        return 3
    print(f"verify n={n}: all {len(checks)} checks passed")
    return 0


# ----------------------------------------------------------------------
# sample
# ----------------------------------------------------------------------

def cmd_sample(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise InvalidConfig(f"n must be >= 2, got {args.n}")
    if not (args.k > 0.0 and math.isfinite(args.k)):
        raise InvalidConfig(f"k must be positive and finite, got {args.k}")
    if args.trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {args.trials}")
    seed = default_seed() if args.seed is None else args.seed
    rng = worker_streams(seed, 1)[0]
    lines = ["trial,i,lambda_i"]
    remaining = args.trials
    trial = 0
    while remaining > 0:
        m = min(_experiment.CHUNK, remaining)
        lam = _sampler.sample_eigenvalue_batch(args.n, args.k, rng, m)
        for row in lam:
            for i, v in enumerate(row, start=1):
                lines.append(f"{trial},{i},{format_float(float(v))}")
            trial += 1
        remaining -= m
    _emit("\n".join(lines) + "\n", None)
    return 0


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise InvalidConfig(f"n must be >= 2, got {args.n}")
    if not (args.k > 0.0 and math.isfinite(args.k)):
        raise InvalidConfig(f"k must be positive and finite, got {args.k}")
    if args.c is not None:
        eps = _bounds.cor_eps(args.k, args.c)
        cor = _bounds.cor_bound(args.n, args.k, args.c, enforce_condition=False)
    else:
        if not args.eps > 0.0:
            raise InvalidConfig(f"eps must be positive, got {args.eps}")
        eps = args.eps
        cor = None
    bd = _bounds.prop_bound(args.n, args.k, eps)
    if args.format == "json":
        payload = {
            "n": args.n,
            "k": args.k,
            "c": args.c,
            "eps": eps,
            "term_quartic": bd.term_quartic,
            "term_stirling": bd.term_stirling,
            "e_factor": bd.e_factor,
            "term_gaussian": bd.term_gaussian,
            "total": bd.total,
            "total_clamped": bd.total_clamped,
            "condition_ok": bd.condition_ok,
            "cor_bound": cor,
        }
        _emit(_json_dumps(payload), None)
    else:
        header = ("n,k,c,eps,term_quartic,term_stirling,e_factor,"
                  "term_gaussian,total,total_clamped,condition_ok,cor_bound")
        row = ",".join([
            str(args.n),
            format_float(args.k),
            "" if args.c is None else format_float(args.c),
            format_float(eps),
            format_float(bd.term_quartic),
            format_float(bd.term_stirling),
            format_float(bd.e_factor),
            format_float(bd.term_gaussian),
            format_float(bd.total),
            format_float(bd.total_clamped),
            "true" if bd.condition_ok else "false",
            "" if cor is None else format_float(cor),
        ])
        _emit(header + "\n" + row + "\n", None)
    return 0


# ----------------------------------------------------------------------
# tail
# ----------------------------------------------------------------------

def cmd_tail(args: argparse.Namespace) -> int:
    seed = default_seed() if args.seed is None else args.seed
    cfg = ExperimentConfig(
        n=args.n, k=args.k, trials=args.trials, seed=seed,
        eps=args.eps, c=args.c, workers=args.workers,
        confidence=args.confidence,
    )
    eps = cfg.resolve_eps()
    if args.norm == "l2":
        est = _experiment.estimate_tail_l2(cfg)
    else:
        est = _experiment.estimate_tail_sup(cfg)
    header = ("n,k,norm,eps,trials,seed,workers,confidence,"
              "hits,p_hat,ci_low,ci_high")
    row = ",".join([
        str(args.n),
        format_float(args.k),
        args.norm,
        format_float(eps),
        str(est.trials),
        str(seed),
        str(args.workers),
        format_float(args.confidence),
        str(est.hits),
        format_float(est.p_hat),
        format_float(est.ci_low),
        format_float(est.ci_high),
    ])
    _emit(header + "\n" + row + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# clt
# ----------------------------------------------------------------------

def cmd_clt(args: argparse.Namespace) -> int:
    seed = default_seed() if args.seed is None else args.seed
    cfg = ExperimentConfig(n=args.n, k=args.k, trials=args.trials, seed=seed)
    report = _experiment.clt_covariance_test(cfg)
    header = "n,k,trials,seed,mean_norm,cov_rel_err"
    row = ",".join([
        str(report.n),
        format_float(report.k),
        str(report.trials),
        str(seed),
        format_float(report.mean_norm),
        format_float(report.cov_rel_err),
    ])
    _emit(header + "\n" + row + "\n", args.out)
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def _load_sweep_config(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise InvalidConfig(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InvalidConfig(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    for key in ("n", "k", "c"):
        if key not in raw or not isinstance(raw[key], list):
            raise InvalidConfig(f"config key '{key}' must be a list")
    if "trials" not in raw:
        raise InvalidConfig("config key 'trials' is required")
    return raw


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = _load_sweep_config(args.config)
    ns = [int(v) for v in raw["n"]]
    ks = [float(v) for v in raw["k"]]
    cs = [float(v) for v in raw["c"]]
    trials = int(raw["trials"])
    seed = int(raw["seed"]) if "seed" in raw else default_seed()
    workers = int(raw.get("workers", 1))
    confidence = float(raw.get("confidence", 0.99))
    out = raw.get("out")
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if any(n < 2 for n in ns):
        raise InvalidConfig("all grid values of n must be >= 2")
    if any(not k > 1.0 for k in ks):
        raise InvalidConfig("all grid values of k must exceed 1")
    if any(not c > 0.0 for c in cs):
        raise InvalidConfig("all grid values of c must be positive")
    text = _experiment.sweep(
        ns, ks, cs, trials, seed, workers=workers,
        confidence=confidence, out=out,
    )
    if out is None:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# parser / entry points
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betafreeze",
        description=(
            "Frozen limits of beta-Hermite ensembles: Hermite-zero "
            "identities, tridiagonal sampling, explicit tail bounds, and "
            "Monte Carlo validation."
        ),
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("zeros", help="Hermite zeros with identity residuals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_zeros)

    p = sub.add_parser("verify", help="run deterministic identity checks")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="draw spectra of the tridiagonal model")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("bounds", help="evaluate the explicit tail bounds")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, default=None)
    group.add_argument("--c", type=float, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("tail", help="Monte Carlo tail probability estimate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, default=None)
    group.add_argument("--c", type=float, default=None)
    p.add_argument("--norm", choices=("l2", "sup"), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--confidence", type=float, default=0.99)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("clt", help="empirical check of the Gaussian limit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("sweep", help="bound-vs-empirical sweep over a grid")
    p.add_argument("--config", type=str, required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except InvalidConfig as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BetafreezeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
