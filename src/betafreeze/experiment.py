"""Monte Carlo experiments: tail estimation, limit-covariance tests, sweeps.

Execution model: ``trials`` are split across ``workers`` by a static block
partition; worker w draws from its own counter-based stream keyed on
(seed, ..., w) and results are merged in worker order, so every experiment
is a pure function of (config, seed, workers) - bit-identical on repeat runs
- while different worker counts give statistically equivalent results.
Within a worker, sampling proceeds in fixed chunks of 65536 trials (the
chunk size is part of the reproducibility envelope); :func:`chunk_sizes` is
the one place that splits trials into chunks, and :func:`_run_workers` the
one place that hands each worker its stream and block of trials.

Norm conventions: the scaled residual Y_s = X/sqrt(2k) - z is the primary
per-trial quantity.  The l2 event is ||Y_s||_2 > eps directly; the sup-norm
event on the unscaled vector uses sup_u = sqrt(2k) * max|Y_s|, which is
mathematically max|X - sqrt(2k) z| and makes the cross-norm identity
sup_u == sqrt(2k) * sup_s hold exactly, bit for bit, by construction.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _core
from . import bounds as _bounds
from . import sampler as _sampler
from .errors import (
    InvalidConfig,
    check_confidence,
    check_k,
    check_n,
    check_real,
    check_seed,
    check_size,
    check_threshold,
    check_trials,
    check_workers,
)
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

    def validate(self) -> None:
        check_size(self.n)
        check_k(self.k)
        check_trials(self.trials)
        check_seed(self.seed)
        check_workers(self.workers)
        check_confidence(self.confidence)

    def resolve_eps(self) -> float:
        """The tail threshold.  eps = inf is the trivial event (no hits);
        c must be finite, since eps = c sqrt(ln k / k) would be inf or NaN.
        """
        if (self.eps is None) == (self.c is None):
            raise InvalidConfig("exactly one of eps or c must be given")
        if self.eps is not None:
            check_real(self.eps, "eps", 0.0, math.inf, closed_high=True)
            return float(self.eps)
        return _bounds.cor_eps(self.k, self.c)


#: Row length from which the norms reduce along the row axis.  Below it
#: they run column by column, several times faster on narrow rows and
#: bit-identical: NumPy sums fewer than 8 terms one after the other.  From
#: 8 its pairwise sum gives other bits, and at n = 32 the column loop is
#: also slower (15.9 against 7.7 ms on 65536 rows).
_COLUMNWISE_BELOW = 8


def _l2(ys: np.ndarray) -> np.ndarray:
    """Per-row l2 norm."""
    if ys.shape[1] >= _COLUMNWISE_BELOW:
        return np.sqrt(np.sum(ys * ys, axis=1))
    total = ys[:, 0] * ys[:, 0]
    for i in range(1, ys.shape[1]):
        total += ys[:, i] * ys[:, i]
    return np.sqrt(total, out=total)


def _sup(ys: np.ndarray) -> np.ndarray:
    """Per-row sup norm."""
    if ys.shape[1] >= _COLUMNWISE_BELOW:
        return np.max(np.abs(ys), axis=1)
    top = np.abs(ys[:, 0])
    for i in range(1, ys.shape[1]):
        np.maximum(top, np.abs(ys[:, i]), out=top)
    return top


def chunk_sizes(trials: int) -> Iterator[int]:
    """Sizes of the batches that ``trials`` trials are drawn in, in order:
    CHUNK each, then the remainder."""
    check_trials(trials)
    return (min(CHUNK, trials - start) for start in range(0, trials, CHUNK))


def _partition(trials: int, workers: int) -> list[int]:
    base, extra = divmod(trials, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def _run_workers(
    seed: int,
    workers: int,
    trials: int,
    worker_fn: Callable[[np.random.Generator, int], object],
    prefix: tuple[int, ...] = (),
) -> list:
    """worker_fn(rng, t) for each worker's stream and block of trials.

    Worker w gets worker_streams(seed, workers, prefix)[w] and the w-th
    block of the static partition.  Results are returned in worker order
    regardless of scheduling.  Workers beyond the first ``trials`` would
    get no trials, so neither their streams nor their blocks are built.  The
    pool has at most one thread per CPU; each logical worker keeps its own
    stream and block of trials, so the results do not depend on the pool
    size.
    """
    workers = min(workers, trials)
    streams = worker_streams(seed, workers, prefix=prefix)
    jobs = list(zip(streams, _partition(trials, workers)))
    if len(jobs) <= 1:
        return [worker_fn(rng, t) for rng, t in jobs]
    threads = min(len(jobs), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker_fn, rng, t) for rng, t in jobs]
        return [f.result() for f in futures]


def _tail_estimate(hits: int, trials: int, confidence: float) -> TailEstimate:
    lo, hi = clopper_pearson(hits, trials, confidence)
    return TailEstimate(
        trials=trials,
        hits=hits,
        p_hat=hits / trials,
        ci_low=lo,
        ci_high=hi,
        confidence=confidence,
    )


def _estimate_tail(
    cfg: ExperimentConfig, norm: str, seed_prefix: tuple[int, ...] = ()
) -> TailEstimate:
    cfg.validate()
    eps = cfg.resolve_eps()
    z = compute_zeros(cfg.n).zeros
    sqrt2k = math.sqrt(2.0 * cfg.k)
    if norm == "l2":
        event_norm = _l2
    else:
        def event_norm(ys: np.ndarray) -> np.ndarray:
            return sqrt2k * _sup(ys)

    def count_hits(rng: np.random.Generator, t: int) -> int:
        hits = 0
        for m in chunk_sizes(t):
            ys = _sampler.sample_eigenvalue_batch(cfg.n, cfg.k, rng, m)
            ys /= sqrt2k
            ys -= z
            hits += int(np.count_nonzero(event_norm(ys) > eps))
        return hits

    hits = sum(_run_workers(cfg.seed, cfg.workers, cfg.trials, count_hits,
                            seed_prefix))
    return _tail_estimate(hits, cfg.trials, cfg.confidence)


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


@functools.lru_cache(maxsize=32)
def _limit_covariance(n: int) -> np.ndarray:
    """The limit covariance S^-1 at size n, cached by n and read-only.

    Cached so that a covariance test makes no LAPACK or BLAS call before
    its workers start: OpenBLAS's helper thread spins for about 100 ms after
    such a call and takes one of the cores the workers run on.
    """
    pair = build_precision(compute_zeros(n).zeros)
    sigma = pair.chol_cov @ pair.chol_cov.T
    sigma.setflags(write=False)
    return sigma


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
    use.  The reference covariance is S^-1 from the spectral module,
    computed once per n.
    """
    cfg.validate()
    n = cfg.n
    z = compute_zeros(n).zeros
    sigma = _limit_covariance(n)
    sqrt2k = math.sqrt(2.0 * cfg.k)
    a = _sampler.first_order_map(n)
    var_e = _sampler.chi_variance(_sampler._offdiag_dof(n, cfg.k)) / 2.0
    cov_g = np.diag(np.concatenate([np.ones(n), var_e]))

    def accumulate(
        rng: np.random.Generator, t: int
    ) -> tuple[RunningMoments, RunningMoments]:
        acc_y = RunningMoments(n)
        acc_g = RunningMoments(2 * n - 1)
        for m in chunk_sizes(t):
            d, e = _sampler.sample_tridiagonal_batch(n, cfg.k, rng, m)
            acc_y.add_batch(_core.eigvals_batch(d, e) - sqrt2k * z)
            acc_g.add_batch(np.concatenate([d, e], axis=1))
        return acc_y, acc_g

    total_y = RunningMoments(n)
    total_g = RunningMoments(2 * n - 1)
    for acc_y, acc_g in _run_workers(cfg.seed, cfg.workers, cfg.trials,
                                     accumulate):
        total_y.merge(acc_y)
        total_g.merge(acc_g)
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
    check_n(N, "N")
    check_threshold(eps)
    check_trials(trials)
    check_seed(seed)
    check_confidence(confidence)
    scale = 1.0 / np.sqrt(np.arange(1, N + 1, dtype=float))

    def count_hits(rng: np.random.Generator, t: int) -> int:
        hits = 0
        for m in chunk_sizes(t):
            x = rng.standard_normal((m, N)) * scale
            hits += int(np.count_nonzero(_l2(x) > eps))
        return hits

    hits = sum(_run_workers(seed, 1, trials, count_hits))
    return _tail_estimate(hits, trials, confidence)


# ----------------------------------------------------------------------
# Sweep
# ----------------------------------------------------------------------

def format_float(x: float) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return f"{x:.17g}"


def format_cell(value) -> str:
    """One CSV cell: a float by :func:`format_float`, None as empty, a bool
    as true/false, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


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
    sharper-bound indicator.  The settings shared by every point (trials,
    seed, workers, confidence) and every grid point's n, k and c are
    checked before ``out`` is opened: each n, like trials, seed and workers,
    must be an integer (``errors.check_integer``; 2.0 is rejected, not
    converted), and each k and c a real in its domain (``errors.check_real``;
    a str or bool is rejected), taken as a float once checked.  The grid is
    read once, so one-shot iterables give every point.  If ``out`` is given,
    rows are written and flushed incrementally so a per-point failure leaves
    all completed rows on disk (the exception is then re-raised).
    """
    ns, ks, cs = list(ns), list(ks), list(cs)
    check_trials(trials)
    check_seed(seed)
    check_workers(workers)
    check_confidence(confidence)
    for n in ns:
        check_size(n)
    for k in ks:
        _bounds.cor_eps(k, 1.0)  # k > 1, the log threshold's domain
    for c in cs:
        check_threshold(c, "c")
    ks, cs = [float(k) for k in ks], [float(c) for c in cs]
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
                        n, k, c, trials, seed, workers, confidence, point
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
    cor = _bounds.cor_bound(n, k, c)
    di_eps = math.sqrt(2.0 * k) * eps
    di = _bounds.dette_imhof_bound(n, di_eps)
    cfg = ExperimentConfig(
        n=n, k=k, trials=trials, seed=seed, eps=eps,
        workers=workers, confidence=confidence,
    )
    est = estimate_tail_l2(cfg, seed_prefix=(point_index,))
    fields = (
        n, k, c, eps, est.trials, est.hits, est.p_hat, est.ci_low, est.ci_high,
        bd.term_quartic, bd.term_stirling, bd.e_factor, bd.term_gaussian,
        bd.total, bd.total_clamped, bd.condition_ok, cor, di_eps, di,
        _tighter(bd, di),
    )
    return ",".join(map(format_cell, fields))


__all__ = [
    "CHUNK",
    "SWEEP_COLUMNS",
    "TailEstimate",
    "CltReport",
    "ExperimentConfig",
    "estimate_tail_l2",
    "estimate_tail_sup",
    "clt_covariance_test",
    "gaussian_reference_tail",
    "sweep",
    "format_float",
    "format_cell",
]
