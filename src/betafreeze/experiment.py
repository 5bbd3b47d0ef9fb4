"""Monte Carlo experiments: tail estimation, limit-covariance tests, sweeps.

Execution model: ``trials`` are cut into blocks of ``BLOCK`` = 4096 (16
``BLOCK`` at n = 2; the last holds the rest), block b draws from its own
counter-based stream keyed on (seed, ..., b, 0), and the block results
merge in block order.  So every experiment is a pure function of (config,
seed), bit-identical for every worker count: ``workers`` sets only how
many blocks run at once.  :func:`_run_workers` is the one block loop, and
every command samples through it; :func:`_hits_over` is the one reducer
that counts tail hits, for one threshold or several read from the same
draws.  A sweep draws each (N, k) once, on the stream prefix (group
index,), and counts every c of the group from the same norms: the rows of
one group share their draws, so their hits are nested and dependent.

Norm conventions: the scaled residual Y_s = X/sqrt(2k) - z is the primary
per-trial quantity.  The l2 event is ||Y_s||_2 > eps directly; the sup-norm
event on the unscaled vector uses sup_u = sqrt(2k) * max|Y_s|, which is
mathematically max|X - sqrt(2k) z| and makes the cross-norm identity
sup_u == sqrt(2k) * sup_s hold exactly, bit for bit, by construction.
"""

from __future__ import annotations

import collections
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _core
from . import bounds as _bounds
from . import sampler as _sampler
from .errors import (
    InvalidConfig,
    check_confidence,
    check_k,
    check_seed,
    check_size,
    check_threshold,
    check_trials,
    check_workers,
    shown,
)
from .hermite_core import compute_zeros
from .rng import worker_streams
from .spectral import build_precision
from .stats import RunningMoments, clopper_pearson

#: Trials per block, each drawn from its own stream in one sampling call;
#: fixed, part of the reproducibility contract.  At n = 2, where a trial
#: costs a few NumPy passes, a block holds 16 BLOCK: two threads ran the
#: N = 2 tail about 25 % slower on blocks of 4096 trials.
BLOCK = 4096

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
    """Parameters of one Monte Carlo experiment, checked when it is made.

    ``eps`` is the tail threshold, positive and finite; a tail estimate
    needs it, the covariance test does not read it.  The log threshold
    eps = c sqrt(ln k / k) is :func:`betafreeze.bounds.cor_eps` (k, c).
    """

    n: int
    k: float
    trials: int
    seed: int
    eps: float | None = None
    workers: int = 1
    confidence: float = 0.99

    def __post_init__(self):
        check_size(self.n)
        check_k(self.k)
        check_trials(self.trials)
        check_seed(self.seed)
        check_workers(self.workers)
        check_confidence(self.confidence)
        if self.eps is not None:
            check_threshold(self.eps)


#: Row length from which the norms reduce along the row axis.  Below it
#: they run column by column, several times faster on narrow rows and
#: bit-identical: NumPy sums fewer than 8 terms one after the other.  From
#: 8 its pairwise sum gives other bits, and at n = 32 the column loop is
#: also slower (15.9 against 7.7 ms on 65536 rows).
_COLUMNWISE_BELOW = 8


def _l2(ys: np.ndarray) -> np.ndarray:
    """Per-row l2 norm.  If a row's squared sum overflows (a norm above
    about 1.3e154), the rows that read inf are recomputed with max-abs
    scaling, so only a norm beyond float range reads inf; every other row
    keeps its bits, and the check costs no pass over the rows."""
    try:
        with np.errstate(over="raise"):
            return _l2_unscaled(ys)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            norms = _l2_unscaled(ys)
        big = np.isinf(norms)
        norms[big] = _l2_scaled(ys[big])
        return norms


def _l2_unscaled(ys: np.ndarray) -> np.ndarray:
    if ys.shape[1] >= _COLUMNWISE_BELOW:
        return np.sqrt(np.sum(ys * ys, axis=1))
    total = ys[:, 0] * ys[:, 0]
    for i in range(1, ys.shape[1]):
        total += ys[:, i] * ys[:, i]
    return np.sqrt(total, out=total)


def _l2_scaled(rows: np.ndarray) -> np.ndarray:
    """Per-row l2 norm as max|row| * ||row / max|row|||_2; inf where a row
    holds an infinite entry."""
    scale = np.max(np.abs(rows), axis=1)
    with np.errstate(invalid="ignore"):  # inf / inf in a row with an inf
        unit = rows / scale[:, None]
    return np.where(np.isinf(scale), scale,
                    scale * np.sqrt(np.sum(unit * unit, axis=1)))


def _sup(ys: np.ndarray) -> np.ndarray:
    """Per-row sup norm."""
    if ys.shape[1] >= _COLUMNWISE_BELOW:
        return np.max(np.abs(ys), axis=1)
    top = np.abs(ys[:, 0])
    for i in range(1, ys.shape[1]):
        np.maximum(top, np.abs(ys[:, i]), out=top)
    return top


def _run_workers(seed: int, workers: int, trials: int, n: int,
                 work: Callable, prefix: tuple[int, ...] = ()) -> Iterator:
    """work(rng, m) for each block of trials at size n, in block order.

    With B = BLOCK (16 BLOCK at n = 2), block b holds the m = min(B, trials
    - b B) trials from b B on and draws from rng = worker_streams(seed, 1,
    prefix + (b,))[0], built in the thread that runs the block.
    min(workers, blocks, CPUs) threads run the blocks, the caller's alone
    when that is one, and at most two blocks per thread run ahead of the
    one the caller takes next: neither memory nor start-up cost grows with
    ``workers``, and the results do not depend on it.
    """
    check_trials(trials)
    size = 16 * BLOCK if n == 2 else BLOCK
    blocks = range(-(-trials // size))

    def run(b: int):
        [rng] = worker_streams(seed, 1, prefix + (b,))
        return work(rng, min(size, trials - b * size))

    threads = min(workers, len(blocks), os.cpu_count() or 1)
    if threads == 1:
        yield from map(run, blocks)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending = collections.deque()
        for b in blocks:
            if len(pending) == 2 * threads:
                yield pending.popleft().result()
            pending.append(pool.submit(run, b))
        while pending:
            yield pending.popleft().result()


def _tail_estimate(hits: int, trials: int, confidence: float) -> TailEstimate:
    return TailEstimate(trials, hits, hits / trials,
                        *clopper_pearson(hits, trials, confidence))


def _count_hits(cfg: ExperimentConfig, norm: str, thresholds: list[float],
                prefix: tuple[int, ...] = ()) -> list[int]:
    """Trials with norm > eps, for each eps in ``thresholds``, all counted
    from one set of ``cfg.trials`` draws at (cfg.n, cfg.k) on the block
    streams of ``prefix``.  ``norm`` is "l2" (the scaled residual) or "sup"
    (the unscaled one)."""
    z = compute_zeros(cfg.n).zeros
    sqrt2k = math.sqrt(2.0 * cfg.k)

    def count(rng: np.random.Generator, m: int) -> np.ndarray:
        ys = _sampler.sample_eigenvalue_batch(cfg.n, cfg.k, rng, m)
        ys /= sqrt2k
        ys -= z
        return _hits_over(thresholds,
                          _l2(ys) if norm == "l2" else sqrt2k * _sup(ys))

    return sum(_run_workers(cfg.seed, cfg.workers, cfg.trials, cfg.n, count,
                            prefix)).tolist()


def _hits_over(thresholds: list[float], norms: np.ndarray) -> np.ndarray:
    """Norms above each eps in ``thresholds``, in one block of norms."""
    return np.array([np.count_nonzero(norms > eps) for eps in thresholds])


def _estimate_tail(cfg: ExperimentConfig, norm: str) -> TailEstimate:
    if cfg.eps is None:
        raise InvalidConfig("eps must be given for a tail estimate")
    [hits] = _count_hits(cfg, norm, [float(cfg.eps)])
    return _tail_estimate(hits, cfg.trials, cfg.confidence)


def estimate_tail_l2(cfg: ExperimentConfig) -> TailEstimate:
    """P( ||X/sqrt(2k) - z||_2 > eps ), Monte Carlo with exact binomial CI."""
    return _estimate_tail(cfg, "l2")


def estimate_tail_sup(cfg: ExperimentConfig) -> TailEstimate:
    """P( ||X - sqrt(2k) z||_inf > eps ): the unscaled sup-norm event."""
    return _estimate_tail(cfg, "sup")


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
    matrix entries and A = :func:`betafreeze._core.first_order_map`
    (Y_lin is taken up to a constant shift, which no covariance sees):

        C = Cov_emp(Y) + A (Cov(g) - Cov_emp(g)) A^T,
        Cov(g) = diag(1, ..., 1, Var e_1, ..., Var e_{n-1}).

    A Cov(g) A^T is the exact covariance of Y_lin and A Cov_emp(g) A^T its
    empirical one, so C is unbiased for Cov(Y) at every k, while
    Y - Y_lin = O(1/sqrt(k)) makes its sampling noise far smaller than that
    of the plain Cov_emp(Y), which is reported alongside.  Y and g are
    accumulated with the numerically stable one-pass mean/comoment scheme,
    block by block, and merged in block order (deterministic); A is applied
    once, to the merged moments.  The draws are the ones the tail
    experiments use.  The reference covariance is S^-1 from the spectral
    module, computed once per n.  A covariance needs at least 2 trials.
    """
    n = cfg.n
    z = compute_zeros(n).zeros
    sigma = _limit_covariance(n)
    sqrt2k = math.sqrt(2.0 * cfg.k)
    a = _core.first_order_map(n)
    var_e = _sampler.chi_variance(_sampler._offdiag_dof(n, cfg.k)) / 2.0
    cov_g = np.diag(np.concatenate([np.ones(n), var_e]))

    def accumulate(rng: np.random.Generator,
                   m: int) -> tuple[RunningMoments, RunningMoments]:
        d, e = _sampler.sample_tridiagonal_batch(n, cfg.k, rng, m)
        acc_y = RunningMoments(n)
        acc_y.add_batch(_core.eigvals_batch(d, e) - sqrt2k * z)
        acc_g = RunningMoments(2 * n - 1)
        acc_g.add_batch(np.concatenate([d, e], axis=1))
        return acc_y, acc_g

    total_y = RunningMoments(n)
    total_g = RunningMoments(2 * n - 1)
    for acc_y, acc_g in _run_workers(cfg.seed, cfg.workers, cfg.trials, n,
                                     accumulate):
        total_y.merge(acc_y)
        total_g.merge(acc_g)
    mean = total_y.mean.copy()
    cov_plain, cov_g_emp = total_y.covariance(), total_g.covariance()
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


def gaussian_reference_tail(N: int, eps: float, trials: int,
                            seed: int) -> TailEstimate:
    """Monte Carlo tail of ||Xt||_2 for Xt ~ N(0, diag(1, 1/2, ..., 1/N)),
    with its exact 99% binomial interval.

    Used to validate gaussian_tail_bound by dominance; E||Xt||_2^2 is the
    harmonic number H_N.
    """
    check_size(N, "N")
    check_threshold(eps)
    check_trials(trials)
    check_seed(seed)
    scale = 1.0 / np.sqrt(np.arange(1, N + 1, dtype=float))

    def count(rng: np.random.Generator, m: int) -> np.ndarray:
        return _hits_over([eps], _l2(rng.standard_normal((m, N)) * scale))

    [hits] = sum(_run_workers(seed, 1, trials, N, count)).tolist()
    return _tail_estimate(hits, trials, 0.99)


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
    out: str | os.PathLike | None = None,
) -> str:
    """Bound-vs-empirical comparison over a (N, k, c) grid; returns CSV text.

    One row per grid point in (N, k, c) lexicographic order: the empirical
    scaled-l2 tail with its exact interval, the explicit bound's breakdown,
    the log-threshold bound (raw formula, validity flagged separately), the
    sup-norm baseline at the converted threshold sqrt(2k) eps, and the
    sharper-bound indicator.  The settings shared by every point and every
    grid point's n, k and c are checked before anything is drawn or opened:
    each n, like trials, seed and workers, must be an integer
    (``errors.check_integer``; 2.0 is rejected, not converted), each k and
    c a real in its domain (``errors.check_real``; a str or bool is
    rejected), taken as a float once checked, each (k, c) must give a
    positive eps (:func:`betafreeze.bounds.cor_eps`), and ``out`` is None
    or a path (a str or ``os.PathLike`` without a NUL byte).  The grid is
    read once, so one-shot iterables give every point.

    The law of X depends on (N, k) alone, so each (N, k) group is drawn
    once, on the block streams of the prefix (group,), with the group
    index in (N, k) order, and every c of the group is counted from the
    same norms: a row's hits equal a one-threshold count at its eps on
    those streams.  Each row keeps its exact marginal law, but the rows of
    one group share their draws, so their hits are nested (non-increasing
    in c) and dependent; a Bonferroni-style check over rows still holds.  With one c the group
    index is the point index.  If ``out`` is given, rows are written and
    flushed incrementally so a failing group leaves the rows of every
    earlier group on disk (the exception is then re-raised).
    """
    ns, ks, cs = list(ns), list(ks), list(cs)
    check_trials(trials)
    check_seed(seed)
    check_workers(workers)
    check_confidence(confidence)
    if out is not None and (not isinstance(out, (str, os.PathLike))
                            or "\0" in os.fsdecode(out)):
        raise InvalidConfig(
            f"out must be a file path, got {shown(out, repr)}")
    for n in ns:
        check_size(n)
    for k in ks:
        _bounds.cor_eps(k, 1.0)  # k > 1, the log threshold's domain
    for c in cs:
        check_threshold(c, "c")
    ks, cs = [float(k) for k in ks], [float(c) for c in cs]
    # Formed before out is opened: eps underflows at a large k and small c.
    epss = {k: [_bounds.cor_eps(k, c) for c in cs] for k in ks}
    groups = [(n, k) for n in ns for k in ks] if cs else []
    lines = ["# betafreeze sweep",
             f"# trials={trials} seed={seed} workers={workers} "
             f"confidence={format_float(confidence)}", SWEEP_COLUMNS]
    handle = open(out, "w") if out is not None else None
    try:
        if handle is not None:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
        for group, (n, k) in enumerate(groups):
            cfg = ExperimentConfig(n=n, k=k, trials=trials, seed=seed,
                                   workers=workers, confidence=confidence)
            hits = _count_hits(cfg, "l2", epss[k], (group,))
            for c, eps, h in zip(cs, epss[k], hits):
                row = _sweep_row(n, k, c, eps,
                                 _tail_estimate(h, trials, confidence))
                lines.append(row)
                if handle is not None:
                    handle.write(row + "\n")
                    handle.flush()
    finally:
        if handle is not None:
            handle.close()
    return "\n".join(lines) + "\n"


def _sweep_row(n: int, k: float, c: float, eps: float, est: TailEstimate) -> str:
    bd = _bounds.prop_bound(n, k, eps)
    cor = _bounds.cor_bound(n, k, c)
    di_eps = math.sqrt(2.0 * k) * eps
    di = _bounds.dette_imhof_bound(n, di_eps)
    cells = (
        n, k, c, eps, est.trials, est.hits, est.p_hat, est.ci_low, est.ci_high,
        *(getattr(bd, f.name) for f in fields(bd)),
        cor, di_eps, di, _tighter(bd, di),
    )
    return ",".join(map(format_cell, cells))


__all__ = [
    "BLOCK",
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
