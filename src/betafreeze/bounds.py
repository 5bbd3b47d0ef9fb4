"""Explicit tail-probability bounds for the frozen ensemble.

The central object is the closed-form bound on
P( || X/sqrt(2k) - z ||_2 > eps ), valid in the window

    sqrt((1 + ln N) / (2k))  <=  eps  <=  1 / (2 sqrt(N)),

whose right-hand side decomposes into three named pieces:

    term_quartic  = (32/3) eps^4 k N^3
    term_stirling = (N - 1) / (26 k)
    e_factor      = exp( (1/k) ( (N-1)/26 - (32/3) eps^4 k^2 N^3 ) )
                  = exp( term_stirling - term_quartic )
    term_gaussian = e_factor * (sqrt(e) sqrt(N) / 2) (2 k eps^2 + 1) e^{-k eps^2}
    total         = term_quartic - term_stirling + term_gaussian

Also provided: the log-threshold variant (eps = c sqrt(ln k / k)), the
4N e^{-eps^2/18} sup-norm concentration baseline (Dette-Imhof) used for
comparisons, and the optimized Chernoff bound for the tail of the limit
Gaussian with covariance diag(1, 1/2, ..., 1/N).

All exponentials are combined in log space before exponentiation: e_factor
underflows catastrophically exactly in the regime where the bound is
informative, so term_gaussian must never be formed as a plain product.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import InvalidConfig, check_k, check_n, check_real, check_threshold

_HALF_LN_E = 0.5  # ln sqrt(e)


@dataclass(frozen=True)
class BoundBreakdown:
    """The explicit tail bound split into its summands.

    ``total`` can be negative or exceed 1 in edge regimes; ``total_clamped``
    is its projection onto [0, 1] for probability semantics.  ``condition_ok``
    records whether (N, k, eps) lies in the validity window; the breakdown is
    still reported when it does not (sweeps plot the raw curve).
    """

    term_quartic: float
    term_stirling: float
    e_factor: float
    term_gaussian: float
    total: float
    total_clamped: float
    condition_ok: bool


# Each check returns its reals as Python floats: a Python int whose square
# leaves float range would raise OverflowError in the products below, and an
# np.float32 would be multiplied in float32.

def _validate_nke(N: int, k: float, eps: float) -> tuple[float, float]:
    check_n(N, "N")
    check_k(k)
    check_real(k, "k", 1.0, closed_low=True)
    check_threshold(eps)
    return float(k), float(eps)


def _validate_log_threshold(k: float, c: float) -> tuple[float, float]:
    check_k(k)
    check_real(k, "k", 1.0)
    check_threshold(c, "c")
    return float(k), float(c)


def _exp(x: float) -> float:
    """e**x, inf where it overflows (math.exp raises OverflowError there)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def prop_condition(N: int, k: float, eps: float) -> bool:
    """True iff sqrt((1 + ln N)/(2k)) <= eps <= 1/(2 sqrt(N)).

    The window is nonempty iff k >= 2N(1 + ln N).  (1 + ln N)/2/k has the
    bits of (1 + ln N)/(2k) wherever 2k is finite, and needs no 2k.
    """
    k, eps = _validate_nke(N, k, eps)
    return math.sqrt((1.0 + math.log(N)) / 2.0 / k) <= eps <= 0.5 / math.sqrt(N)


def _term_quartic(N: int, k: float, eps: float) -> float:
    # (k eps^2) eps^2 neither underflows nor overflows where eps**4 alone
    # would (k = 1e200, eps = 1e-90 gives ~8.5e-159, not 0); float products
    # reach inf rather than raising OverflowError.  N^3 is a float product
    # for the same reason: the int N**3 fails to convert to float above
    # N ~ 5.6e102, and float ** raises on overflow.  For N < 2^17 the
    # product is exact.  Where N^3 overflows and k eps^4 underflows, the
    # product is 0 * inf; the term is then the sum of its logarithms.
    nf = float(N)
    term = (32.0 / 3.0) * (k * eps * eps) * (eps * eps) * (nf * nf * nf)
    if math.isnan(term):
        return _exp(math.log(32.0 / 3.0) + math.log(k) + 4.0 * math.log(eps)
                    + 3.0 * math.log(nf))
    return term


def _gaussian_term(log_start: float, log_prefactor: float, x: float) -> float:
    """(sqrt(e)/2) e^{log_start + log_prefactor} (2x + 1) e^{-x}, its logs
    summed left to right before one exponentiation; 0 where x overflows
    (log1p(2x) - x is inf - inf there)."""
    if x == math.inf:
        return 0.0
    return _exp(log_start + _HALF_LN_E + log_prefactor - math.log(2.0)
                + math.log1p(2.0 * x) - x)


def prop_bound(N: int, k: float, eps: float) -> BoundBreakdown:
    """Evaluate the explicit tail bound and its decomposition at (N, k, eps)."""
    k, eps = _validate_nke(N, k, eps)
    tq = _term_quartic(N, k, eps)
    # (N - 1)/26/k rounds twice, so it stands in only where 26k overflows.
    ts = (N - 1) / (26.0 * k) if 26.0 * k < math.inf else (N - 1) / 26.0 / k
    log_e = ts - tq
    tg = _gaussian_term(log_e, 0.5 * math.log(N), k * eps * eps)
    total = tq - ts + tg
    return BoundBreakdown(
        term_quartic=tq,
        term_stirling=ts,
        e_factor=_exp(log_e),
        term_gaussian=tg,
        total=total,
        total_clamped=min(1.0, max(0.0, total)),
        condition_ok=prop_condition(N, k, eps),
    )


def cor_eps(k: float, c: float) -> float:
    """The threshold eps = c sqrt(ln k / k) used by the log-threshold bound.

    InvalidConfig, naming k and c, where it underflows to 0 (outside eps's
    domain).
    """
    k, c = _validate_log_threshold(k, c)
    eps = c * math.sqrt(math.log(k) / k)
    if eps == 0.0:
        raise InvalidConfig(
            f"eps = c sqrt(ln k / k) underflows to 0 at k={k}, c={c}")
    return eps


def cor_bound_terms(N: int, k: float, c: float) -> tuple[float, float]:
    """The two summands of the log-threshold bound.

    First summand: (32/3) c^4 N^3 (ln k)^2 / k, evaluated through the same
    floating path as term_quartic at eps = c sqrt(ln k / k) so the two are
    bitwise identical wherever that eps is a normal float.  Where it is
    subnormal, eps^4 would multiply its rounding by four, so the summand is
    formed from c instead, in log space (c^4 itself underflows).  Second
    summand: (sqrt(e) N / 2)(2 c^2 ln k + 1) k^{-c^2}
    - note the prefactor N, a deliberate coarsening of term_gaussian's
    sqrt(N) (valid since sqrt(N) <= N), with the e_factor dropped (E <= 1 in
    the validity window).
    """
    check_n(N, "N")
    eps = cor_eps(k, c)
    k, c = float(k), float(c)
    log_k = math.log(k)
    if eps < sys.float_info.min:
        first = _exp(math.log(32.0 / 3.0) + 4.0 * math.log(c)
                     + 3.0 * math.log(float(N)) + 2.0 * math.log(log_k)
                     - log_k)
    else:
        first = _term_quartic(N, k, eps)
    return first, _gaussian_term(0.0, math.log(N), c * c * log_k)


def cor_bound(N: int, k: float, c: float) -> float:
    """The log-threshold tail bound at (N, k, c).

    Like :func:`prop_bound`, it evaluates the formula everywhere; whether
    (N, k, c) lies in the validity window is :func:`prop_condition` at
    eps = :func:`cor_eps` (k, c).  In c, the window reads
    sqrt((1+ln N)/(2 ln k)) <= c <= (1/2) sqrt(k/(N ln k)).
    """
    first, second = cor_bound_terms(N, k, c)
    return first + second


def dette_imhof_bound(N: int, eps_unscaled: float) -> float:
    """The sup-norm concentration baseline 4N e^{-eps^2/18}.

    ``eps_unscaled`` is a threshold on the UNSCALED vector X - sqrt(2k) z in
    sup norm.  To compare against a threshold eps on the scaled vector in
    l2 norm, pass eps_unscaled = sqrt(2k) * eps; since sup-norm <= l2-norm,
    that comparison is conservative for this bound's side.
    """
    check_n(N, "N")
    check_real(eps_unscaled, "eps", 0.0, math.inf, closed_low=True,
               closed_high=True)
    eps_unscaled = float(eps_unscaled)
    return 4.0 * N * math.exp(-eps_unscaled * eps_unscaled / 18.0)


def optimize_delta(r: float) -> float:
    """Minimizer of phi(delta) = e^{r delta} / (1 - 2 delta) on [0, 1/2).

    For r >= -2 the minimum sits at the boundary delta = 0 (the bound is
    vacuous); otherwise at delta* = 1/2 + 1/r, interior to (0, 1/2).
    r may be infinite, never NaN.
    """
    check_real(r, "r", closed_low=True, closed_high=True)
    r = float(r)
    if r >= -2.0:
        return 0.0
    return 0.5 + 1.0 / r


def gaussian_tail_bound(N: int, eps: float) -> float:
    """Optimized Chernoff bound on P(||Xt||_2 > eps) for
    Xt ~ N(0, diag(1, 1/2, ..., 1/N)):

        min over delta in [0, 1/2) of  e^{r delta} / (1 - 2 delta),
        r = -eps^2 - 1 + ln N.

    Returns 1.0 (vacuous) when r >= -2.
    """
    check_n(N, "N")
    check_threshold(eps)
    eps = float(eps)
    r = -eps * eps - 1.0 + math.log(N)
    delta = optimize_delta(r)
    if delta == 0.0:
        return 1.0
    # Where 1 - 2 delta rounds to 0 (|r| > 2**54, or eps^2 = inf),
    # e^{r delta} has long underflowed: the bound is 0.
    gain = math.exp(r * delta)
    return gain / (1.0 - 2.0 * delta) if gain > 0.0 else 0.0


__all__ = [
    "BoundBreakdown",
    "prop_condition",
    "prop_bound",
    "cor_eps",
    "cor_bound_terms",
    "cor_bound",
    "dette_imhof_bound",
    "optimize_delta",
    "gaussian_tail_bound",
]
