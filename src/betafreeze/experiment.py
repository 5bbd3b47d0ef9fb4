"""Monte Carlo experiments: tail estimation, limit-covariance tests, sweeps.

Execution model: ``trials`` are split across ``workers`` by a static block
partition; worker w draws from its own counter-based stream keyed on
(seed, ..., w) and results are merged in worker order, so every experiment
is a pure function of (config, seed, workers) - bit-identical on repeat runs
- while different worker counts give statistically equivalent results.
Within a worker, sampling proceeds in fixed chunks of 65536 trials (the
chunk size is part of the reproducibility envelope).

Norm conventions: the scaled residual Y_s = X/sqrt(2k) - z is the primary
per-trial quantity.  The l2 event is ||Y_s||_2 > eps directly; the sup-norm
event on the unscaled vector uses sup_u = sqrt(2k) * max|Y_s|, which is
mathematically max|X - sqrt(2k) z| and makes the cross-norm identity
sup_u == sqrt(2k) * sup_s hold exactly, bit for bit, by construction.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import _core
from . import bounds as _bounds
from . import sampler as _sampler
from .errors import InvalidConfig
from .hermite_core import compute_zeros
from .rng import worker_streams
from .spectral import build_precision
from .stats import RunningMoments, clopper_pearson

#: Trials drawn per sampling call; fixed, part of the reproducibility contract.
CHUNK = 65536

SWEEP_COLUMNS = (
    "N,k,c,eps,trials,hits,p_hat,ci_low,ci_high,"
    "prop_term_quartic,prop_term_stirling,prop_e_factor,prop_term_gaussian,"
    "prop_total,prop_total_clamped,condition_ok,cor_bound,"
    "di_eps_unscaled,di_bound,tighter"
)


@dataclass(frozen=True)
class TailEstimate:
    """Monte Carlo tail probability with an exact binomial interval."""

    trials: int
    hits: int
    p_hat: float
    ci_low: float
    ci_high: float
    confidence: float = 0.99


@dataclass(frozen=True)
class CltReport:
    """Check of the limit Gaussian: Y = X - sqrt(2k) z vs N(0, S^-1).

    ``mean_norm`` is the l2 norm of the empirical mean of Y.  ``cov`` is the
    control-variate estimate of Cov(Y) described in
    :func:`clt_covariance_test`, and ``cov_rel_err`` its Frobenius relative
    error against the limit covariance S^-1.  ``cov_plain`` and
    ``cov_rel_err_plain`` are the same for the plain empirical covariance,
    kept as a diagnostic: its sampling noise (~3e-3 at 2e5 trials) hides the
    O(1/k) convergence once k exceeds ~10^2.
    """

    n: int
    k: float
    trials: int
    mean_norm: float
    cov_rel_err: float
    cov_rel_err_plain: float
    mean: np.ndarray = field(repr=False)
    cov: np.ndarray = field(repr=False)
    cov_plain: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("mean", "cov", "cov_plain"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one Monte Carlo experiment.

    Exactly one of ``eps`` (threshold) or ``c`` (log-threshold coefficient,
    eps = c sqrt(ln k / k)) must be set for tail estimation; neither is
    needed for the covariance test.
    """

    n: int
    k: float
    trials: int
    seed: int
    eps: float | None = None
    c: float | None = None
    workers: int = 1
    confidence: float = 0.99
    out: str | None = None
    fmt: str = "csv"

    def validate(self) -> None:
        if self.n < 2:
            raise InvalidConfig(f"n must be >= 2, got {self.n}")
        if not (self.k > 0.0 and math.isfinite(self.k)):
            raise InvalidConfig(f"k must be positive and finite, got {self.k}")
        if self.trials < 1:
            raise InvalidConfig(f"trials must be >= 1, got {self.trials}")
        if self.workers < 1:
            raise InvalidConfig(f"workers must be >= 1, got {self.workers}")
        if not 0.0 < self.confidence < 1.0:
            raise InvalidConfig(
                f"confidence must be in (0, 1), got {self.confidence}"
            )
        if self.fmt not in ("csv", "json"):
            raise InvalidConfig(f"format must be csv or json, got {self.fmt}")

    def resolve_eps(self) -> float:
        if (self.eps is None) == (self.c is None):
            raise InvalidConfig("exactly one of eps or c must be given")
        if self.eps is not None:
            if not self.eps > 0.0:
                raise InvalidConfig(f"eps must be positive, got {self.eps}")
            return float(self.eps)
        if not self.c > 0.0:
            raise InvalidConfig(f"c must be positive, got {self.c}")
        return _bounds.cor_eps(self.k, self.c)


def per_trial_norms(lam: np.ndarray, k: float, z: np.ndarray):
    """(l2_scaled, sup_scaled, sup_unscaled) for each row of ``lam``.

    sup_unscaled is sqrt(2k) * sup_scaled by definition (see module
    docstring), so that identity is exact; it agrees with the directly
    computed max|X - sqrt(2k) z| to rounding.
    """
    sqrt2k = math.sqrt(2.0 * k)
    ys = lam / sqrt2k - z
    l2_scaled = np.sqrt(np.sum(ys * ys, axis=1))
    sup_scaled = np.max(np.abs(ys), axis=1)
    return l2_scaled, sup_scaled, sqrt2k * sup_scaled


def _partition(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _run_workers(worker_fn: Callable[[int, int], object], counts: Sequence[int]):
    """Run worker_fn(worker_index, worker_trials) for each worker.

    Results are returned in worker order regardless of scheduling; workers
    with zero trials are skipped (their result is None).  The pool has at
    most one thread per CPU; each logical worker keeps its own stream and
    block of trials, so the results do not depend on the pool size.
    """
    jobs = [(w, t) for w, t in enumerate(counts) if t > 0]
    if len(jobs) <= 1:
        results: dict[int, object] = {w: worker_fn(w, t) for w, t in jobs}
    else:
        threads = min(len(jobs), os.cpu_count() or 1)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = {w: pool.submit(worker_fn, w, t) for w, t in jobs}
            results = {w: f.result() for w, f in futures.items()}
    return [results.get(w) for w in range(len(counts))]


def _estimate_tail(
    cfg: ExperimentConfig, norm: str, seed_prefix: tuple[int, ...] = ()
) -> TailEstimate:
    cfg.validate()
    eps = cfg.resolve_eps()
    z = compute_zeros(cfg.n).zeros
    sqrt2k = math.sqrt(2.0 * cfg.k)
    streams = worker_streams(cfg.seed, cfg.workers, prefix=seed_prefix)

    def run(worker: int, t: int) -> int:
        rng = streams[worker]
        hits = 0
        remaining = t
        while remaining > 0:
            m = min(CHUNK, remaining)
            lam = _sampler.sample_eigenvalue_batch(cfg.n, cfg.k, rng, m)
            ys = lam / sqrt2k - z
            if norm == "l2":
                vals = np.sqrt(np.sum(ys * ys, axis=1))
            else:
                vals = sqrt2k * np.max(np.abs(ys), axis=1)
            hits += int(np.count_nonzero(vals > eps))
            remaining -= m
        return hits

    per_worker = _run_workers(run, _partition(cfg.trials, cfg.workers))
    hits = sum(h for h in per_worker if h is not None)
    lo, hi = clopper_pearson(hits, cfg.trials, cfg.confidence)
    return TailEstimate(
        trials=cfg.trials,
        hits=hits,
        p_hat=hits / cfg.trials,
        ci_low=lo,
        ci_high=hi,
        confidence=cfg.confidence,
    )


def estimate_tail_l2(
    cfg: ExperimentConfig, seed_prefix: tuple[int, ...] = ()
) -> TailEstimate:
    """P( ||X/sqrt(2k) - z||_2 > eps ), Monte Carlo with exact binomial CI."""
    return _estimate_tail(cfg, "l2", seed_prefix)


def estimate_tail_sup(
    cfg: ExperimentConfig, seed_prefix: tuple[int, ...] = ()
) -> TailEstimate:
    """P( ||X - sqrt(2k) z||_inf > eps ): the unscaled sup-norm event."""
    return _estimate_tail(cfg, "sup", seed_prefix)


def clt_covariance_test(cfg: ExperimentConfig) -> CltReport:
    """Empirical mean and covariance of Y = X - sqrt(2k) z vs the limit law.

    Cov(Y) is estimated with the first-order term Y_lin = A g of the
    tridiagonal model as a control variate, where g = (d, e) are the
    matrix entries and A = :func:`betafreeze.sampler.first_order_map`
    (Y_lin is taken up to a constant shift, which no covariance sees):

        C = Cov_emp(Y) + A (Cov(g) - Cov_emp(g)) A^T,
        Cov(g) = diag(1, ..., 1, Var e_1, ..., Var e_{n-1}).

    A Cov(g) A^T is the exact covariance of Y_lin and A Cov_emp(g) A^T its
    empirical one, so C is unbiased for Cov(Y) at every k, while
    Y - Y_lin = O(1/sqrt(k)) makes its sampling noise far smaller than that
    of the plain Cov_emp(Y), which is reported alongside.  Y and g are
    accumulated with the numerically stable one-pass mean/comoment scheme,
    chunked and merged in worker order (deterministic); A is applied once,
    to the merged moments.  The draws are the ones the tail experiments
    use.  The reference covariance is S^-1 from the spectral module.
    """
    cfg.validate()
    n = cfg.n
    z = compute_zeros(n).zeros
    pair = build_precision(z)
    sigma = pair.chol_cov @ pair.chol_cov.T
    sqrt2k = math.sqrt(2.0 * cfg.k)
    a = _sampler.first_order_map(n)
    var_e = _sampler.chi_variance(_sampler._offdiag_dof(n, cfg.k)) / 2.0
    cov_g = np.diag(np.concatenate([np.ones(n), var_e]))
    streams = worker_streams(cfg.seed, cfg.workers)

    def run(worker: int, t: int) -> tuple[RunningMoments, RunningMoments]:
        rng = streams[worker]
        acc_y = RunningMoments(n)
        acc_g = RunningMoments(2 * n - 1)
        remaining = t
        while remaining > 0:
            m = min(CHUNK, remaining)
            d, e = _sampler.sample_tridiagonal_batch(n, cfg.k, rng, m)
            acc_y.add_batch(_core.eigvals_batch(d, e) - sqrt2k * z)
            acc_g.add_batch(np.concatenate([d, e], axis=1))
            remaining -= m
        return acc_y, acc_g

    per_worker = _run_workers(run, _partition(cfg.trials, cfg.workers))
    total_y = RunningMoments(n)
    total_g = RunningMoments(2 * n - 1)
    for accs in per_worker:
        if accs is not None:
            total_y.merge(accs[0])
            total_g.merge(accs[1])
    mean = total_y.mean.copy()
    cov_plain, cov_g_emp = (
        acc.covariance(ddof=1) if acc.count > 1 else acc.m2.copy()
        for acc in (total_y, total_g)
    )
    cov = cov_plain + a @ (cov_g - cov_g_emp) @ a.T
    sigma_norm = float(np.linalg.norm(sigma))
    return CltReport(
        n=n,
        k=cfg.k,
        trials=cfg.trials,
        mean_norm=float(np.linalg.norm(mean)),
        cov_rel_err=float(np.linalg.norm(cov - sigma)) / sigma_norm,
        cov_rel_err_plain=float(np.linalg.norm(cov_plain - sigma)) / sigma_norm,
        mean=mean,
        cov=cov,
        cov_plain=cov_plain,
    )


def gaussian_reference_tail(
    N: int, eps: float, trials: int, seed: int, confidence: float = 0.99
) -> TailEstimate:
    """Monte Carlo tail of ||Xt||_2 for Xt ~ N(0, diag(1, 1/2, ..., 1/N)).

    Used to validate gaussian_tail_bound by dominance; E||Xt||_2^2 is the
    harmonic number H_N.
    """
    if N < 2:
        raise InvalidConfig(f"N must be >= 2, got {N}")
    if not eps > 0.0:
        raise InvalidConfig(f"eps must be positive, got {eps}")
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    scale = 1.0 / np.sqrt(np.arange(1, N + 1, dtype=float))
    rng = worker_streams(seed, 1)[0]
    hits = 0
    remaining = trials
    while remaining > 0:
        m = min(CHUNK, remaining)
        x = rng.standard_normal((m, N)) * scale
        hits += int(np.count_nonzero(np.sqrt(np.sum(x * x, axis=1)) > eps))
        remaining -= m
    lo, hi = clopper_pearson(hits, trials, confidence)
    return TailEstimate(
        trials=trials,
        hits=hits,
        p_hat=hits / trials,
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return f"{x:.17g}"


def _sweep_header(trials: int, seed: int, workers: int, confidence: float) -> list[str]:
    return [
        "# betafreeze sweep",
        f"# trials={trials} seed={seed} workers={workers} "
        f"confidence={format_float(confidence)}",
        SWEEP_COLUMNS,
    ]


def _tighter(bd: _bounds.BoundBreakdown, di: float) -> str:
    """Which bound is sharper at this grid point.

    The explicit bound competes only where its validity window holds; the
    baseline is clamped at 1 (it is a probability bound).  Ties and vacuous
    points go to the baseline.
    """
    prop_eff = bd.total_clamped if bd.condition_ok else math.inf
    di_eff = min(di, 1.0)
    return "prop" if prop_eff < di_eff else "di"


def sweep(
    ns: Iterable[int],
    ks: Iterable[float],
    cs: Iterable[float],
    trials: int,
    seed: int,
    workers: int = 1,
    confidence: float = 0.99,
    out: str | None = None,
) -> str:
    """Bound-vs-empirical comparison over a (N, k, c) grid; returns CSV text.

    One row per grid point in (N, k, c) lexicographic order: the empirical
    scaled-l2 tail with its exact interval, the explicit bound's breakdown,
    the log-threshold bound (raw formula, validity flagged separately), the
    sup-norm baseline at the converted threshold sqrt(2k) eps, and the
    sharper-bound indicator.  If ``out`` is given, rows are written and
    flushed incrementally so a per-point failure leaves all completed rows
    on disk (the exception is then re-raised).
    """
    lines = _sweep_header(trials, seed, workers, confidence)
    handle = open(out, "w") if out is not None else None
    try:
        if handle is not None:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
        point = 0
        for n in ns:
            for k in ks:
                for c in cs:
                    row = _sweep_point(
                        int(n), float(k), float(c), trials, seed, workers,
                        confidence, point,
                    )
                    lines.append(row)
                    if handle is not None:
                        handle.write(row + "\n")
                        handle.flush()
                    point += 1
    finally:
        if handle is not None:
            handle.close()
    return "\n".join(lines) + "\n"


def _sweep_point(
    n: int,
    k: float,
    c: float,
    trials: int,
    seed: int,
    workers: int,
    confidence: float,
    point_index: int,
) -> str:
    eps = _bounds.cor_eps(k, c)
    bd = _bounds.prop_bound(n, k, eps)
    cor = _bounds.cor_bound(n, k, c, enforce_condition=False)
    di_eps = math.sqrt(2.0 * k) * eps
    di = _bounds.dette_imhof_bound(n, di_eps)
    cfg = ExperimentConfig(
        n=n, k=k, trials=trials, seed=seed, eps=eps,
        workers=workers, confidence=confidence,
    )
    est = estimate_tail_l2(cfg, seed_prefix=(point_index,))
    fields = [
        str(n),
        format_float(k),
        format_float(c),
        format_float(eps),
        str(est.trials),
        str(est.hits),
        format_float(est.p_hat),
        format_float(est.ci_low),
        format_float(est.ci_high),
        format_float(bd.term_quartic),
        format_float(bd.term_stirling),
        format_float(bd.e_factor),
        format_float(bd.term_gaussian),
        format_float(bd.total),
        format_float(bd.total_clamped),
        "true" if bd.condition_ok else "false",
        format_float(cor),
        format_float(di_eps),
        format_float(di),
        _tighter(bd, di),
    ]
    return ",".join(fields)


__all__ = [
    "CHUNK",
    "SWEEP_COLUMNS",
    "TailEstimate",
    "CltReport",
    "ExperimentConfig",
    "per_trial_norms",
    "estimate_tail_l2",
    "estimate_tail_sup",
    "clt_covariance_test",
    "gaussian_reference_tail",
    "sweep",
    "format_float",
]
