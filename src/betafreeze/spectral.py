"""The freezing-limit covariance structure.

The fluctuations of the ensemble around the frozen configuration are
asymptotically Gaussian with precision matrix

    S[i][i] = 1 + sum_{l != i} (z_i - z_l)^-2,
    S[i][j] = -(z_i - z_j)^-2          (i != j),

built on the Hermite zero vector z.  S is the identity plus a weighted graph
Laplacian, hence symmetric positive definite with every row summing to
exactly 1; its eigenvalues are exactly the integers 1..n, which yields the
closed-form trace identities

    tr(S)  = n(n+1)/2,        tr(S^2) = n(n+1)(2n+1)/6,

and, by subtracting the identity/diagonal parts, the pair-sum identities

    sum_{i != j} (z_i - z_j)^-2 = n(n-1)/2,
    sum_{i != j} (z_i - z_j)^-4 <= n(n-1)(2n-1)/12.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (DegenerateInput, FactorizationFailure, InvalidConfig,
                     check_integer, check_n)
from .hermite_core import HermiteZeros, _as_zero_vector


@dataclass(frozen=True)
class PrecisionSpectralPair:
    """Precision matrix S, its eigenvalues, and a factor of its inverse.

    ``eigenvalues`` is ascending (ideally {1, 2, ..., n}); ``chol_cov`` is
    lower triangular with chol_cov @ chol_cov.T == S^-1, suitable for
    sampling the limit Gaussian.  All arrays are frozen read-only.
    """

    n: int
    S: np.ndarray
    eigenvalues: np.ndarray
    chol_cov: np.ndarray

    def __post_init__(self):
        for name in ("S", "eigenvalues", "chol_cov"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _pairwise_inverse_squares(zv: np.ndarray) -> np.ndarray:
    """Matrix W with W[i][j] = (z_i - z_j)^-2 off-diagonal, 0 on it."""
    diff = zv[:, None] - zv[None, :]
    off = ~np.eye(zv.size, dtype=bool)
    if np.any(diff[off] == 0.0):
        raise DegenerateInput("coincident entries in zero vector")
    np.fill_diagonal(diff, np.inf)
    return 1.0 / (diff * diff)


def build_precision(z) -> PrecisionSpectralPair:
    """Assemble S from a zero vector, eigendecompose, and factor S^-1.

    The covariance factor is obtained from S's own Cholesky factor by a
    triangular solve (never by explicit inversion): if S = C C^T then
    L = J (C^-1)^T J is lower triangular with L L^T = S^-1, where J is the
    index-reversal permutation — valid because the mirrored zero vector
    makes S exactly centro-symmetric, entry for entry, in floating point.
    """
    zv = _as_zero_vector(z)
    n = zv.size
    check_n(n, "number of points")
    w = _pairwise_inverse_squares(zv)
    S = -w
    idx = np.arange(n)
    S[idx, idx] = 1.0 + w.sum(axis=1)
    if not np.all(np.isfinite(S)):
        raise FactorizationFailure("precision matrix has non-finite entries")
    try:
        eigenvalues = np.linalg.eigvalsh(S)
        C = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            f"precision matrix is not numerically SPD: {exc}"
        ) from exc
    U = scipy.linalg.solve_triangular(C, np.eye(n), lower=True).T
    L = np.ascontiguousarray(U[::-1, ::-1])
    return PrecisionSpectralPair(n=n, S=S, eigenvalues=eigenvalues, chol_cov=L)


def spectrum_deviation(p: PrecisionSpectralPair) -> float:
    """max_m | lambda_m - m | over the ascending eigenvalues of S.

    The spectrum of S is exactly the integers 1..n, so this deviation
    measures the combined zero error and eigensolver error.
    """
    target = np.arange(1, p.n + 1, dtype=float)
    return float(np.max(np.abs(p.eigenvalues - target)))


def inverse_power_sum(z, p: int) -> float:
    """sum over ordered pairs i != j of (z_i - z_j)^-p, for even p in {2, 4}.

    Both orientations of each pair are counted.  For a converged zero vector
    the p = 2 sum equals n(n-1)/2 exactly and the p = 4 sum is bounded by
    n(n-1)(2n-1)/12 (with equality at n = 2).
    """
    if p not in (2, 4):
        raise InvalidConfig(f"p must be 2 or 4, got {p}")
    zv = _as_zero_vector(z)
    w = _pairwise_inverse_squares(zv)
    if p == 4:
        w = w * w
    return float(w.sum())


def min_gap(z) -> float:
    """Smallest consecutive gap min_i (z_i - z_{i+1}); >= 2/sqrt(n) for zeros."""
    zv = _as_zero_vector(z)
    return float(np.min(zv[:-1] - zv[1:]))


def sample_gaussian_limit(
    p: PrecisionSpectralPair, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw from the limit Gaussian N(0, S^-1) as L g with g standard normal.

    With ``size`` given, returns a (size, n) array of independent draws.
    Deterministic for a fixed generator state.
    """
    if size is None:
        g = rng.standard_normal(p.n)
        return p.chol_cov @ g
    check_integer(size, "size", 0)
    g = rng.standard_normal((size, p.n))
    return g @ p.chol_cov.T


__all__ = [
    "PrecisionSpectralPair",
    "build_precision",
    "spectrum_deviation",
    "inverse_power_sum",
    "min_gap",
    "sample_gaussian_limit",
]
