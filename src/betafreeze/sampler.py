"""Exact sampling of the beta-Hermite ensemble.

One draw of the ordered ensemble X (density proportional to
e^{-|x|^2/2} prod_{i<j} (x_i - x_j)^{2k} on descending vectors, beta = 2k)
is obtained as the eigenvalue vector of the random symmetric tridiagonal
matrix with

    diagonal entries  ~ independent N(0, 1),
    off-diagonal[i]   = chi_{2k (n-i)} / sqrt(2),   i = 1 .. n-1,

all entries independent (the Dumitriu-Edelman construction).  Convention
audit: with these scalings the eigenvalue density matches the target exactly
- no extra rescaling - which is pinned by closed forms at n = 2:
(lambda_1 - lambda_2)/sqrt(2) ~ chi_{2k+1} and (lambda_1 + lambda_2)/sqrt(2)
~ N(0,1), independent.  Tests enforce both.

A random-walk Metropolis sampler targeting the same log-density provides an
independent (approximate) oracle for desk-scale cross-validation at n <= 3.
"""

from __future__ import annotations

import math

import numpy as np

from . import _core
from .errors import (
    InvalidConfig,
    as_array,
    check_k,
    check_n,
    check_size,
    check_trials,
    shown,
)
from .hermite_core import _inverse_square, compute_zeros

_SQRT2 = math.sqrt(2.0)

#: Half degrees of freedom from which chi_variance's series is accurate.
_CHI_VAR_SERIES_FROM = 20.0

#: Degrees of freedom below which chi_variance returns df: there
#: Var = df - pi df^2 / 2 + O(df^3) rounds to df, and the shift's
#: steps / x would overflow below about 2.2e-307.
_CHI_VAR_LINEAR_BELOW = 1e-300


def _checked_dof(df) -> np.ndarray:
    """``df`` as a float array of numbers, each positive and finite."""
    df = as_array(df)
    if df.dtype.kind not in "iuf" or not np.all((df > 0) & np.isfinite(df)):
        raise InvalidConfig("degrees of freedom must be positive finite numbers")
    return df.astype(float, copy=False)


def sample_chi(rng: np.random.Generator, df, size=None):
    """Chi-distributed variate(s) with ``df`` degrees of freedom.

    Computed as sqrt of a gamma(df/2, scale=2) variate; the generator's gamma
    sampler is a squeeze/rejection scheme valid for all shapes > 0 (shapes
    below 1 are handled by the boosting identity internally).  ``df`` may be
    an array, in which case it broadcasts against ``size``.
    """
    df = _checked_dof(df)
    if size is not None and df.size == 1:
        # NumPy's scalar-shape loop draws the same stream, faster.
        df = df.reshape(())
    try:
        out = rng.gamma(df / 2.0, 2.0, size=size)
    except (TypeError, ValueError) as exc:
        raise InvalidConfig(
            f"size {shown(size, repr)} does not fit df: {exc}") from exc
    if size is None and np.ndim(out) == 0:
        return math.sqrt(out)
    return np.sqrt(out, out=out)


def chi_variance(df):
    """Variance of a chi variate with ``df`` degrees of freedom.

    Var chi_nu = nu - 2 r^2 with r = Gamma(x + 1/2) / Gamma(x), x = nu / 2.
    Both terms grow like nu while their difference tends to 1/2, so that
    form loses about log10(nu) digits.  Instead Var = -2x expm1(2L) with
    L = log r - (1/2) log x, which is small and is taken from its asymptotic
    series in 1/x (truncation error below 1e-14 for x >= 20).  Smaller x is
    first shifted up by whole steps with r(x) = r(x + 1) x / (x + 1/2).
    Relative accuracy is ~1e-14 for every df > 0.  ``df`` may be an array.
    """
    df = _checked_dof(df)
    x = np.maximum(df, _CHI_VAR_LINEAR_BELOW) / 2.0
    steps = np.maximum(np.ceil(_CHI_VAR_SERIES_FROM - x), 0.0)
    xs = x + steps
    u = _inverse_square(xs)
    log_ratio = (
        -1.0 / 8.0
        + u * (1.0 / 192.0 + u * (-1.0 / 640.0
        + u * (17.0 / 14336.0 - u * (31.0 / 18432.0))))
    ) / xs + 0.5 * np.log1p(steps / x)
    for i in range(int(steps.max(initial=0.0))):
        log_ratio -= np.where(i < steps, np.log1p(0.5 / (x + i)), 0.0)
    out = np.where(df < _CHI_VAR_LINEAR_BELOW, df,
                   -2.0 * x * np.expm1(2.0 * log_ratio))
    return float(out) if out.ndim == 0 else out


def _offdiag_dof(n: int, k: float) -> np.ndarray:
    """Degrees of freedom 2k(n-1), 2k(n-2), ..., 2k for the off-diagonal;
    InvalidConfig, naming k and n, where 2k(n-1) leaves the float range."""
    if 2.0 * float(k) * (n - 1) == math.inf:
        raise InvalidConfig(
            f"degrees of freedom 2k(n-1) overflow at k={k}, n={n}")
    return 2.0 * k * np.arange(n - 1, 0, -1, dtype=float)


def sample_tridiagonal_batch(
    n: int, k: float, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """(d, e): the entries of ``trials`` independent tridiagonal matrices.

    d is (trials, n) standard normal, e is (trials, n-1) with
    e[:, i] = chi_{2k(n-1-i)} / sqrt(2).  All diagonals are drawn first,
    then all off-diagonals; this stream layout (normals block, then gammas
    block) is a fixed part of the reproducibility contract.
    """
    check_size(n)
    check_k(k)
    check_trials(trials)
    d = rng.standard_normal((trials, n))
    e = sample_chi(rng, _offdiag_dof(n, k), size=(trials, n - 1))
    e /= _SQRT2
    return d, e


def sample_eigenvalue_batch(
    n: int,
    k: float,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """(trials, n) array of independent ordered draws, descending rows.

    Vectorized path used by the Monte Carlo experiments: the matrices come
    from :func:`sample_tridiagonal_batch`, then the batch eigensolver runs.
    """
    d, e = sample_tridiagonal_batch(n, k, rng, trials)
    return _core.eigvals_batch(d, e)


# ----------------------------------------------------------------------
# Metropolis oracle
# ----------------------------------------------------------------------

#: The oracle's chains, its burn-in steps, and its steps per kept state.
_MH_CHAINS = 50
_MH_BURN_IN = 20_000
_MH_THIN = 100


def _log_target(x: np.ndarray, k: float, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
    """log density (up to a constant) at each row of x: the unordered law."""
    pair_term = np.sum(np.log(np.abs(x[:, iu] - x[:, ju])), axis=1)
    return -0.5 * np.sum(x * x, axis=1) + 2.0 * k * pair_term


def mh_oracle_chain(
    n: int, k: float, rng: np.random.Generator, draws: int
) -> np.ndarray:
    """(draws, n) array of approximate ordered draws from independent chains.

    Random-walk Metropolis on the unordered coordinates with isotropic
    Gaussian proposals in ``_MH_CHAINS`` chains.  The step scale adapts
    toward ~25% acceptance during burn-in only (stochastic-approximation
    update) and is frozen afterwards, so the kept draws target the exact
    density.  Chains start near the frozen configuration sqrt(2k) z and are
    thinned so residual autocorrelation is negligible; draw i comes from
    chain i mod ``_MH_CHAINS`` and is sorted descending.
    """
    check_n(n)
    if n > 3:
        raise InvalidConfig("the oracle is restricted to n in {2, 3}")
    check_k(k)
    if k > 10.0:
        raise InvalidConfig("the oracle is restricted to k <= 10")
    check_trials(draws, "draws")

    iu, ju = np.triu_indices(n, k=1)
    z = compute_zeros(n).zeros
    x = math.sqrt(2.0 * k) * z + 0.5 * rng.standard_normal((_MH_CHAINS, n))
    logp = _log_target(x, k, iu, ju)
    log_scale = math.log(0.5 / math.sqrt(n))

    kept = np.empty((draws, n))
    n_kept = 0
    per_chain = -(-draws // _MH_CHAINS)  # ceil
    total_steps = _MH_BURN_IN + per_chain * _MH_THIN
    for step in range(total_steps):
        proposal = x + math.exp(log_scale) * rng.standard_normal((_MH_CHAINS, n))
        logp_prop = _log_target(proposal, k, iu, ju)
        accept = np.log(rng.random(_MH_CHAINS)) < logp_prop - logp
        x[accept] = proposal[accept]
        logp[accept] = logp_prop[accept]
        if step < _MH_BURN_IN:
            rate = float(np.mean(accept))
            log_scale += (rate - 0.25) / (1.0 + step) ** 0.6
        elif (step - _MH_BURN_IN + 1) % _MH_THIN == 0:
            take = min(_MH_CHAINS, draws - n_kept)
            kept[n_kept : n_kept + take] = x[:take]
            n_kept += take
    kept.sort(axis=1)
    return np.ascontiguousarray(kept[:, ::-1])  # descending rows


__all__ = [
    "sample_chi",
    "chi_variance",
    "sample_tridiagonal_batch",
    "sample_eigenvalue_batch",
    "mh_oracle_chain",
]
