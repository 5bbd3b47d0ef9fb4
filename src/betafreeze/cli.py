"""Command line interface.

Subcommands::

    zeros   --n N [--format csv|json]
    verify  --n N
    sample  --n N --k K --trials T [--seed S]
    bounds  --n N --k K (--eps E | --c C) [--format csv|json]
    tail    --n N --k K (--eps E | --c C) --norm l2|sup --trials T
            [--seed S] [--workers W] [--confidence Q] [--out FILE]
    clt     --n N --k K --trials T [--seed S] [--out FILE]
    sweep   --config FILE

Exit codes: 0 success, 2 invalid configuration or arguments, 3 internal
numerical failure (non-convergence, degenerate input, failed factorization,
or a failed ``verify`` check).

When ``--seed`` is omitted the seed comes from the ``BETAFREEZE_SEED``
environment variable, falling back to 0; a seed must be >= 0.  All output
is deterministic for a fixed configuration and seed: no timestamps, no
machine-dependent content.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import bounds as _bounds
from . import experiment as _experiment
from . import sampler as _sampler
from .errors import BetafreezeError, InvalidConfig
from .experiment import ExperimentConfig, format_cell, format_float
from .hermite_core import (
    compute_zeros,
    fixed_point_residual,
    potential_identity_gap,
)
from .rng import default_seed
from .spectral import build_precision, inverse_power_sum, min_gap, spectrum_deviation


@contextlib.contextmanager
def _result_stream(out: str | None):
    """Standard output, or the file ``out`` for a run's result.

    The file is opened before the run, so that an unwritable path fails
    before any trial is drawn, and removed if the run then fails.
    """
    if out is None:
        yield sys.stdout
        return
    handle = open(out, "w")
    try:
        with handle:
            yield handle
    except BaseException:
        os.remove(out)
        raise


def _seed(args: argparse.Namespace) -> int:
    """The run's seed: ``--seed``, else the ``BETAFREEZE_SEED`` default."""
    return default_seed() if args.seed is None else args.seed


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_record(record: dict) -> str:
    """A header line of the record's keys and a row of its cells."""
    cells = map(format_cell, record.values())
    return ",".join(record) + "\n" + ",".join(cells) + "\n"


# ----------------------------------------------------------------------
# zeros
# ----------------------------------------------------------------------

def cmd_zeros(args: argparse.Namespace) -> int:
    hz = compute_zeros(args.n)
    residual = fixed_point_residual(hz.zeros)
    gap = potential_identity_gap(hz.zeros)
    if args.format == "json":
        payload = {
            "n": hz.n,
            "zeros": [float(z) for z in hz.zeros],
            "fixed_point_residual": residual,
            "potential_gap": gap,
        }
        sys.stdout.write(_json_dumps(payload))
    else:
        lines = ["index,zero"]
        for i, z in enumerate(hz.zeros, start=1):
            lines.append(f"{i},{format_float(float(z))}")
        sys.stdout.write("\n".join(lines) + "\n")
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
    # One block at a time, each written as soon as it is drawn, so memory
    # does not grow with trials; the header waits for the first draw, which
    # validates n and k, so rejected input prints nothing.
    trial = 0
    for lam in _experiment._run_workers(
            _seed(args), 1, args.trials, args.n,
            lambda rng, m: _sampler.sample_eigenvalue_batch(
                args.n, args.k, rng, m)):
        if trial == 0:
            sys.stdout.write("trial,i,lambda_i\n")
        sys.stdout.write("".join(
            f"{r},{i},{format_float(float(v))}\n"
            for r, row in enumerate(lam, start=trial)
            for i, v in enumerate(row, start=1)
        ))
        trial += len(lam)
    return 0


# ----------------------------------------------------------------------
# bounds
# ----------------------------------------------------------------------

def cmd_bounds(args: argparse.Namespace) -> int:
    if args.c is not None:
        eps = _bounds.cor_eps(args.k, args.c)
        cor = _bounds.cor_bound(args.n, args.k, args.c)
    else:
        eps = args.eps
        cor = None
    bd = _bounds.prop_bound(args.n, args.k, eps)
    record = {
        "n": args.n,
        "k": args.k,
        "c": args.c,
        "eps": eps,
        **{f.name: getattr(bd, f.name) for f in dataclasses.fields(bd)},
        "cor_bound": cor,
    }
    write = _json_dumps if args.format == "json" else _csv_record
    sys.stdout.write(write(record))
    return 0


# ----------------------------------------------------------------------
# tail
# ----------------------------------------------------------------------

def cmd_tail(args: argparse.Namespace) -> int:
    seed = _seed(args)
    eps = args.eps if args.c is None else _bounds.cor_eps(args.k, args.c)
    cfg = ExperimentConfig(
        n=args.n, k=args.k, trials=args.trials, seed=seed, eps=eps,
        workers=args.workers, confidence=args.confidence,
    )
    with _result_stream(args.out) as stream:
        if args.norm == "l2":
            est = _experiment.estimate_tail_l2(cfg)
        else:
            est = _experiment.estimate_tail_sup(cfg)
        stream.write(_csv_record({
            "n": args.n, "k": args.k, "norm": args.norm, "eps": eps,
            "trials": est.trials, "seed": seed, "workers": args.workers,
            "confidence": args.confidence, "hits": est.hits,
            "p_hat": est.p_hat, "ci_low": est.ci_low, "ci_high": est.ci_high,
        }))
    return 0


# ----------------------------------------------------------------------
# clt
# ----------------------------------------------------------------------

def cmd_clt(args: argparse.Namespace) -> int:
    seed = _seed(args)
    cfg = ExperimentConfig(n=args.n, k=args.k, trials=args.trials, seed=seed)
    with _result_stream(args.out) as stream:
        report = _experiment.clt_covariance_test(cfg)
        stream.write(_csv_record({
            "n": report.n, "k": report.k, "trials": report.trials,
            "seed": seed, "mean_norm": report.mean_norm,
            "cov_rel_err": report.cov_rel_err,
        }))
    return 0


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

_SWEEP_KEYS = ("n", "k", "c", "trials", "seed", "workers", "confidence", "out")


def _load_sweep_config(path: str) -> dict:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise InvalidConfig(f"config file not found: {path}")
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors, and so is
        # an integer literal past Python's 4300-digit limit.
        raise InvalidConfig(f"config file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise InvalidConfig("config must be a JSON object")
    unknown = [key for key in raw if key not in _SWEEP_KEYS]
    if unknown:
        raise InvalidConfig(f"unknown config key '{unknown[0]}'; the keys are "
                            f"{', '.join(_SWEEP_KEYS)}")
    for key in ("n", "k", "c"):
        if key not in raw or not isinstance(raw[key], list):
            raise InvalidConfig(f"config key '{key}' must be a list")
    if "trials" not in raw:
        raise InvalidConfig("config key 'trials' is required")
    return raw


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = _load_sweep_config(args.config)
    out = raw.get("out")
    text = _experiment.sweep(
        raw["n"], raw["k"], raw["c"], raw["trials"],
        raw["seed"] if "seed" in raw else default_seed(),
        workers=raw.get("workers", 1), confidence=raw.get("confidence", 0.99),
        out=out,
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
    except (InvalidConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BetafreezeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main_entry() -> None:
    sys.exit(main())
