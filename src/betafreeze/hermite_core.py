"""Hermite polynomials, their zeros, and the scalar identities they satisfy.

The zero vector of the degree-n Hermite polynomial (physicists' convention,
orthogonal for the weight e^{-x^2}) is the frozen configuration of the
beta-Hermite ensemble.  This module computes it to near machine precision and
exposes the exact identities used everywhere downstream:

* the electrostatic fixed point   z_i = sum_{j != i} 1/(z_i - z_j),
* the log-potential identity      -|z|^2 + 2 sum_{i<j} ln(z_i - z_j)
                                  = -n(n-1)/2 (1 + ln 2) + sum_j j ln j,
* the Stirling remainder mu(x) with its two-sided bound
  1/(12x) - 1/(360x^3) < mu(x) < 1/(12x), and the derived exponent
  M(N, k) = (N-1) mu(k) - sum_{l=2..N} mu(l k) >= (N-1)/(26 k).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    InvalidConfig,
    check_k,
    check_n,
    check_real,
    check_size,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class HermiteZeros:
    """Ordered zeros of the degree-n Hermite polynomial.

    ``zeros`` is strictly descending and exactly antisymmetric:
    zeros[i] == -zeros[n-1-i] bit for bit (for odd n the middle entry is
    exactly 0.0), because only the positive half is computed and the rest is
    mirrored.  The array is frozen read-only so instances can be shared
    across worker threads.
    """

    n: int
    zeros: np.ndarray

    def __post_init__(self):
        check_n(self.n, "order")
        z = _as_zero_vector(self.zeros)
        z.setflags(write=False)
        object.__setattr__(self, "zeros", z)
        if z.shape != (self.n,):
            raise InvalidConfig("zeros must be a length-n vector")
        if not np.all(np.diff(z) < 0):
            raise DegenerateInput("zeros must be strictly descending")


def _as_zero_vector(z) -> np.ndarray:
    """The zeros of a HermiteZeros, or ``z`` checked as a zero vector: a
    1-D array of at least 2 finite numbers (a numeric dtype, not bool),
    taken as floats.  The one check of every zero vector that comes in."""
    if isinstance(z, HermiteZeros):
        return z.zeros
    try:
        zv = np.asarray(z)
    except ValueError:  # a ragged sequence
        zv = np.empty(0)
    if (zv.dtype.kind not in "iuf" or zv.ndim != 1 or zv.size < 2
            or not np.all(np.isfinite(zv))):
        raise InvalidConfig(
            "a zero vector must be a 1-D array of at least 2 finite numbers")
    return zv.astype(float, copy=False)


# ----------------------------------------------------------------------
# Polynomial evaluation
# ----------------------------------------------------------------------

def _scaled_recurrence(n: int, x: np.ndarray):
    """Run the three-term recurrence H_{m+1} = 2x H_m - 2m H_{m-1}.

    Values are carried as mantissa/exponent pairs (f, e) with value
    f * 2^e and f renormalized into +-[0.5, 1) by frexp at every step, so
    the recurrence is exact in scale and never overflows.  Returns the pairs
    for H_{n-1} and H_n.
    """
    x = np.asarray(x, dtype=float)
    f_prev = np.ones_like(x)
    e_prev = np.zeros(x.shape, dtype=np.int64)  # H_0 = 1
    f_cur, ex = np.frexp(2.0 * x)  # H_1 = 2x
    e_cur = ex.astype(np.int64)
    for m in range(1, n):
        # Anchor the update on the larger of the two exponents so both
        # rescale factors are <= 1: if H_m is tiny (x near one of its zeros)
        # or exactly zero, anchoring on H_m's own scale would overflow.
        # A zero mantissa's exponent slot is meaningless; ignore it.
        zero_cur = f_cur == 0.0
        e_base = np.where(zero_cur, e_prev, np.maximum(e_prev, e_cur))
        scale_cur = np.exp2((e_cur - e_base).astype(float))
        scale_prev = np.exp2((e_prev - e_base).astype(float))
        t = 2.0 * x * f_cur * scale_cur - 2.0 * m * f_prev * scale_prev
        f_new, ex = np.frexp(t)
        e_new = e_base + ex
        f_prev, e_prev = f_cur, e_cur
        f_cur, e_cur = f_new, e_new
    return f_prev, e_prev, f_cur, e_cur


def _newton_ratio(n: int, x: np.ndarray) -> np.ndarray:
    """H_n(x) / H_n'(x) for an array of points (the Newton step)."""
    f_prev, e_prev, f_cur, e_cur = _scaled_recurrence(n, x)
    return f_cur / (2.0 * n * f_prev) * np.exp2((e_cur - e_prev).astype(float))


# ----------------------------------------------------------------------
# Zeros
# ----------------------------------------------------------------------

# typed: a float n equal to a cached NumPy integer n must not skip the check.
@functools.lru_cache(maxsize=32, typed=True)
def compute_zeros(n: int) -> HermiteZeros:
    """Zeros of H_n, strictly descending, certified by their fixed-point residual.

    Strategy: eigenvalues of the symmetric tridiagonal Jacobi matrix of the
    Hermite recurrence (zero diagonal, off-diagonal sqrt(i/2)) give globally
    ordered initial guesses; vectorized Newton polish on the positive half
    restores full precision; the negative half is an exact mirror, which
    makes the antisymmetry and every downstream identity maximally clean.

    n is at most ``errors.MAX_N``: the residual check forms an n x n array.
    Raises ConvergenceFailure unless the fixed-point residual is at most
    4 n eps / min gap (eps machine epsilon, min gap the smallest distance
    between neighbouring zeros), 4x the rounding of the residual's own sum;
    no n up to ``errors.MAX_N`` exceeds 0.67x.  Results are cached by n; the
    returned HermiteZeros is immutable, so callers share it.
    """
    check_size(n)
    guesses = scipy.linalg.eigvalsh_tridiagonal(
        np.zeros(n), np.sqrt(np.arange(1, n) / 2.0)
    )
    x = np.sort(guesses[guesses > 1e-6])[::-1].copy()  # positive half, descending
    if x.size != n // 2:
        raise ConvergenceFailure(
            f"initial guesses produced {x.size} positive nodes, expected {n // 2}"
        )
    for _ in range(100):
        step = _newton_ratio(n, x)
        x -= step
        if np.max(np.abs(step)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(x)):
            break
    if n % 2 == 1:
        zeros = np.concatenate([x, [0.0], -x[::-1]])
    else:
        zeros = np.concatenate([x, -x[::-1]])
    result = HermiteZeros(n=n, zeros=zeros)
    residual = fixed_point_residual(result)
    bound = 4.0 * n * np.finfo(float).eps / np.min(zeros[:-1] - zeros[1:])
    if not residual <= bound:
        raise ConvergenceFailure(
            f"fixed-point residual {residual:.3e} exceeds {bound:.3e} at n={n}"
        )
    return result


def fixed_point_residual(z) -> float:
    """max_i | z_i - sum_{j != i} 1/(z_i - z_j) |.

    Zero exactly characterizes the Hermite zero vector, so this residual is a
    self-validating accuracy certificate independent of how z was computed.
    """
    zv = _as_zero_vector(z)
    diff = zv[:, None] - zv[None, :]
    off_diag = ~np.eye(zv.size, dtype=bool)
    if np.any(diff[off_diag] == 0.0):
        raise DegenerateInput("coincident entries in zero vector")
    np.fill_diagonal(diff, np.inf)
    return float(np.max(np.abs(zv - np.sum(1.0 / diff, axis=1))))


def potential_identity_gap(z) -> float:
    """| LHS - RHS | of the log-potential identity at the zero vector.

    LHS = -|z|^2 + 2 sum_{i<j} ln(z_i - z_j);
    RHS = -n(n-1)/2 (1 + ln 2) + sum_{j=1..n} j ln j.
    The zeros are the unique maximizer of the LHS functional on the
    descending cone, and at the maximum it equals the RHS closed form; the
    stationarity makes the gap insensitive (second order) to zero error.
    """
    zv = _as_zero_vector(z)
    n = zv.size
    iu, ju = np.triu_indices(n, k=1)
    gaps = zv[iu] - zv[ju]
    if np.any(gaps <= 0.0):
        raise DegenerateInput("vector must be strictly descending")
    lhs = -float(zv @ zv) + 2.0 * float(np.sum(np.log(gaps)))
    j = np.arange(1, n + 1, dtype=float)
    rhs = -n * (n - 1) / 2.0 * (1.0 + _LN2) + float(np.sum(j * np.log(j)))
    return abs(lhs - rhs)


# ----------------------------------------------------------------------
# Stirling remainder
# ----------------------------------------------------------------------

# B_{2j} / (2j (2j-1)): coefficients of x^{1-2j} in the asymptotic series of mu.
_MU_COEF = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_BOOST_CUTOFF = 16.0


def _mu_vec(x: np.ndarray) -> np.ndarray:
    """Vectorized mu(x) for x > 0, which the callers check.

    Direct lnGamma subtraction cancels catastrophically for large x (mu is
    ~1/(12x) while lnGamma grows like x ln x), so the argument is boosted
    with the exact recurrence mu(x) = mu(x+1) + (x + 1/2) log1p(1/x) - 1
    until x >= 16, then the asymptotic series is summed by Horner's rule.
    Validated at 6.4e-14 worst relative error against a 60-digit oracle.
    """
    t = np.array(x, dtype=float, copy=True)
    shift = np.zeros_like(t)
    while True:
        mask = t < _BOOST_CUTOFF
        if not mask.any():
            break
        tm = t[mask]
        shift[mask] += (tm + 0.5) * np.log1p(1.0 / tm) - 1.0
        t[mask] = tm + 1.0
    inv2 = 1.0 / (t * t)
    s = np.zeros_like(t)
    for c in reversed(_MU_COEF[1:]):
        s = (s + c) * inv2
    s = (s + _MU_COEF[0]) / t
    return s + shift


def stirling_bound_margins(x) -> tuple[np.ndarray, np.ndarray]:
    """Margins (mu - lower_bound, upper_bound - mu) of the two-sided bound.

    For x >= 16 both margins are evaluated cancellation-free from the tail of
    the enveloping alternating series (margin_lo = x^-5/1260 - x^-7/1680 + ...,
    margin_hi = x^-3/360 - x^-5/1260 + ...); a direct float subtraction there
    would be sub-ulp and undecidable beyond x ~ 2500.  Below 16 the direct
    subtraction is used (the margins are >= ~1e-7 relative there, far above
    rounding).  Both margins are strictly positive for all finite x > 1.
    """
    xv = np.atleast_1d(np.asarray(x))
    if xv.dtype.kind not in "iuf" or not np.all((xv > 1) & np.isfinite(xv)):
        raise InvalidConfig("bound margins are defined for finite x > 1")
    xv = xv.astype(float, copy=False)
    lo_m = np.empty_like(xv)
    hi_m = np.empty_like(xv)

    small = xv < _BOOST_CUTOFF
    if small.any():
        xs = xv[small]
        mu_s = _mu_vec(xs)
        lower = 1.0 / (12.0 * xs) - 1.0 / (360.0 * xs**3)
        upper = 1.0 / (12.0 * xs)
        lo_m[small] = mu_s - lower
        hi_m[small] = upper - mu_s
    big = ~small
    if big.any():
        xb = xv[big]
        inv2 = 1.0 / (xb * xb)
        tail_lo = np.zeros_like(xb)  # sum of coefficients from x^-5 on
        for c in reversed(_MU_COEF[2:]):
            tail_lo = (tail_lo + c) * inv2
        lo_m[big] = tail_lo * inv2 / xb
        tail_hi = np.zeros_like(xb)  # -(sum from x^-3 on)
        for c in reversed(_MU_COEF[1:]):
            tail_hi = (tail_hi + c) * inv2
        hi_m[big] = -tail_hi / xb
    if np.isscalar(x) or np.asarray(x).ndim == 0:
        return float(lo_m[0]), float(hi_m[0])
    return lo_m, hi_m


def exponent_M(N: int, k: float) -> float:
    """M(N, k) = (N-1) mu(k) - sum_{l=2..N} mu(l k), with M >= (N-1)/(26 k).

    This is the exponent governing how much of the ensemble's normalization
    survives the freezing rescaling; the 1/26 lower bound is the constant
    used by the explicit tail estimate.  N is at most ``errors.MAX_N``: the
    sum forms an N-array.
    """
    check_size(N, "N")
    check_k(k)
    check_real(k, "k", 1.0, closed_low=True)
    mu_k = _mu_vec(np.asarray([k]))[0]
    mu_tail = _mu_vec(k * np.arange(2, N + 1, dtype=float))
    return float((N - 1) * mu_k - np.sum(mu_tail))


__all__ = [
    "HermiteZeros",
    "compute_zeros",
    "fixed_point_residual",
    "potential_identity_gap",
    "stirling_bound_margins",
    "exponent_M",
]
