"""Statistical utilities: exact binomial intervals and stable accumulation.

The tail probabilities of interest sit near 0, where normal-approximation
(Wald) intervals are invalid, so confidence intervals are exact two-sided
binomial (Clopper-Pearson) intervals computed from the incomplete-beta
inverse.  Covariance accumulation uses the batched mean/comoment update so
10^7-trial runs in chunks lose no precision and merge deterministically.
"""

from __future__ import annotations

import numpy as np
import scipy.stats

from .errors import (
    InvalidConfig,
    as_array,
    check_confidence,
    check_integer,
    check_trials,
    shown,
)


def clopper_pearson(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval for hits/trials.

    Endpoints are the standard beta quantiles; the interval is [0, hi] when
    hits == 0 and [lo, 1] when hits == trials.
    """
    check_trials(trials)
    check_integer(hits, "hits", 0)
    if hits > trials:
        raise InvalidConfig(
            f"hits must be in [0, trials], got {shown(hits)}/{shown(trials)}")
    check_confidence(confidence)
    alpha = 1.0 - confidence
    if hits == 0:
        lo = 0.0
    else:
        lo = float(scipy.stats.beta.ppf(alpha / 2.0, hits, trials - hits + 1))
    if hits == trials:
        hi = 1.0
    else:
        hi = float(scipy.stats.beta.isf(alpha / 2.0, hits + 1, trials - hits))
    return lo, hi


class RunningMoments:
    """One-pass mean and covariance of vector samples, batched updates.

    Maintains (count, mean, M2) where M2 is the matrix of centered second
    comoments; ``add_batch`` folds in a whole (m, dim) chunk at once and
    ``merge`` combines two accumulators (a fixed merge order makes parallel
    reductions bit-reproducible).
    """

    def __init__(self, dim: int):
        check_integer(dim, "dim", 1)
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))

    def add_batch(self, y: np.ndarray) -> None:
        y = as_array(y)
        if (y.dtype.kind not in "iuf" or y.ndim != 2
                or y.shape[1] != self.mean.size):
            raise InvalidConfig("batch must be an (m, dim) array of numbers")
        y = y.astype(float, copy=False)
        m = y.shape[0]
        if m == 0:
            return
        batch_mean = y.mean(axis=0)
        centered = y - batch_mean
        batch_m2 = centered.T @ centered
        self._fold(m, batch_mean, batch_m2)

    def merge(self, other: "RunningMoments") -> None:
        if not isinstance(other, RunningMoments):
            raise InvalidConfig(
                f"can only merge a RunningMoments, got {type(other).__name__}")
        if other.mean.size != self.mean.size:
            raise InvalidConfig("dimension mismatch in merge")
        if other.count:
            self._fold(other.count, other.mean, other.m2)

    def _fold(self, m: int, mean_b: np.ndarray, m2_b: np.ndarray) -> None:
        total = self.count + m
        delta = mean_b - self.mean
        self.m2 += m2_b + np.outer(delta, delta) * (self.count * m / total)
        self.mean += delta * (m / total)
        self.count = total

    def covariance(self) -> np.ndarray:
        """Empirical covariance, M2 / (count - 1) (ddof = 1)."""
        if self.count <= 1:
            raise InvalidConfig(
                f"a covariance needs at least 2 samples, got {self.count}")
        return self.m2 / (self.count - 1)


__all__ = ["clopper_pearson", "RunningMoments"]
