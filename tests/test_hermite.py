"""Hermite recurrence, zeros, identities, Stirling remainder.

Oracles: exact integer/rational recurrences (Fraction), mpmath at 60 digits,
and closed forms for small orders.  Frozen constants below were generated
from those oracles and are independent of the library's float code paths.
"""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import betafreeze as bf
from betafreeze import hermite_core
from betafreeze.errors import (MAX_N, ConvergenceFailure, DegenerateInput,
                              InvalidConfig)

mp.mp.dps = 60


def hermite_exact(n: int, x: Fraction) -> Fraction:
    """H_n at a rational point by the exact three-term recurrence."""
    h_prev, h_cur = Fraction(1), 2 * x
    if n == 0:
        return h_prev
    for m in range(1, n):
        h_prev, h_cur = h_cur, 2 * x * h_cur - 2 * m * h_prev
    return h_cur


def renormalized_newton_ratio(n: int, x: np.ndarray) -> np.ndarray:
    """H_n / (2n H_{n-1}) by the recurrence with every value carried as a
    mantissa/exponent pair (f, e), f renormalized into +-[0.5, 1) by frexp
    at every step: the reference that the library's occasional power-of-two
    rescaling must match bit for bit."""
    x = np.asarray(x, dtype=float)
    f_prev, e_prev = np.ones_like(x), np.zeros(x.shape, dtype=np.int64)
    f_cur, ex = np.frexp(2.0 * x)
    e_cur = ex.astype(np.int64)
    for m in range(1, n):
        # Anchor on the larger exponent, so both scale factors are <= 1; a
        # zero mantissa's exponent is meaningless.
        e_base = np.where(f_cur == 0.0, e_prev, np.maximum(e_prev, e_cur))
        scale_cur = np.exp2((e_cur - e_base).astype(float))
        scale_prev = np.exp2((e_prev - e_base).astype(float))
        t = 2.0 * x * f_cur * scale_cur - 2.0 * m * f_prev * scale_prev
        f_new, ex = np.frexp(t)
        f_prev, e_prev = f_cur, e_cur
        f_cur, e_cur = f_new, e_base + ex
    return f_cur / (2.0 * n * f_prev) * np.exp2((e_cur - e_prev).astype(float))


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal bit patterns: 0.0 and -0.0 differ, as do NaN payloads."""
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# ----------------------------------------------------------------------
# the recurrence, through the Newton step H_n / H_n'
# ----------------------------------------------------------------------

def newton_ratio(n: int, x: float) -> float:
    return float(hermite_core._newton_ratio(n, np.asarray([x]))[0])


# H_{n-1} is nonzero at every (n, x) here, so each ratio is finite.
@pytest.mark.parametrize("n", [1, 2, 3, 5, 10, 25, 40])
@pytest.mark.parametrize(
    "x", [Fraction(-3), Fraction(-1), Fraction(-1, 2), Fraction(5, 2),
          Fraction(1, 4), Fraction(1), Fraction(7, 2)]
)
def test_eval_matches_exact_recurrence(n, x):
    want = hermite_exact(n, x) / (2 * n * hermite_exact(n - 1, x))
    assert newton_ratio(n, float(x)) == pytest.approx(float(want), rel=1e-13)


def test_eval_parity_at_origin():
    # H_{2m+1}(0) = 0 while H_{2m}(0) != 0, so the step is exactly 0 there;
    # H_n(-x) = (-1)^n H_n(x) makes the step odd in x, bit for bit.
    xs = np.array([0.25, 1.0, 3.5, 7.75])
    for m in range(0, 21):
        assert newton_ratio(2 * m + 1, 0.0) == 0.0
        for n in (2 * m + 1, 2 * m + 2):
            np.testing.assert_array_equal(
                hermite_core._newton_ratio(n, -xs),
                -hermite_core._newton_ratio(n, xs))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    x=st.floats(min_value=-8, max_value=8, allow_nan=False),
)
def test_eval_against_float_recurrence(n, x):
    """Where the plain float recurrence does not overflow, the library's
    rescaled one gives the same bits."""
    h_prev, h_cur = 1.0, 2.0 * x
    for m in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * x * h_cur - 2.0 * m * h_prev
    assert math.isfinite(h_cur)
    # Off the zeros of H_{n-1}, where the step is a float (|h_cur| < 1e72).
    assume(abs(h_prev) > 1e-200)
    want = h_cur / (2.0 * n * h_prev)
    assert newton_ratio(n, x) == want


@pytest.mark.parametrize("n", [1, 2, 5, 50, 499, 500, 1999, 2000])
def test_eval_matches_renormalized_reference_bitwise(n):
    # Points across the zeros (|z| < sqrt(2n + 1)), beyond them, and the
    # zeros themselves, where H_n is near 0.
    rng = np.random.default_rng(n)
    reach = math.sqrt(2.0 * n + 1.0)
    x = np.concatenate([
        rng.uniform(-reach, reach, 2000),
        rng.uniform(-4.0 * reach, 4.0 * reach, 1000),
        [-2.5, 2.5 * reach, 64.0],
        bf.compute_zeros(n).zeros if n >= 2 else [],
    ])
    assert_same_bits(hermite_core._newton_ratio(n, x),
                     renormalized_newton_ratio(n, x))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 739, 2000])
def test_zeros_match_renormalized_polish(n, monkeypatch, zeros_cache):
    want = zeros_cache(n).zeros
    monkeypatch.setattr(hermite_core, "_newton_ratio",
                        renormalized_newton_ratio)
    assert_same_bits(bf.compute_zeros.__wrapped__(n).zeros, want)


def test_eval_no_overflow_at_large_order():
    # Plain float recurrence overflows near n ~ 180 at x = 8; the rescaled
    # one stays accurate.
    want = mp.hermite(500, 8) / (1000 * mp.hermite(499, 8))
    assert newton_ratio(500, 8.0) == pytest.approx(float(want), rel=1e-12)


# ----------------------------------------------------------------------
# compute_zeros
# ----------------------------------------------------------------------

def test_zeros_closed_forms():
    # roots of H_2, H_3, H_4, H_5
    cases = {
        2: [math.sqrt(0.5)],
        3: [math.sqrt(1.5), 0.0],
        4: [math.sqrt((3 + math.sqrt(6)) / 2), math.sqrt((3 - math.sqrt(6)) / 2)],
        5: [math.sqrt((5 + math.sqrt(10)) / 2), math.sqrt((5 - math.sqrt(10)) / 2), 0.0],
    }
    for n, upper in cases.items():
        want = np.array(upper + [-u for u in reversed(upper) if u != 0.0])
        got = bf.compute_zeros(n).zeros
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_zeros_antisymmetric_and_descending(zeros_cache):
    for n in (2, 3, 7, 24, 61, 120):
        z = zeros_cache(n).zeros
        assert np.all(np.diff(z) < 0)
        np.testing.assert_array_equal(z, -z[::-1])
        if n % 2 == 1:
            assert z[n // 2] == 0.0


def test_zeros_deterministic():
    a = bf.compute_zeros(37).zeros
    b = bf.compute_zeros(37).zeros
    np.testing.assert_array_equal(a, b)


def test_zeros_residuals_small(zeros_cache):
    for n in (2, 17, 50, 200):
        z = zeros_cache(n).zeros
        assert bf.fixed_point_residual(z) <= 1e-10
        assert bf.potential_identity_gap(z) <= 1e-9


def test_zeros_match_quadrature_nodes(zeros_cache):
    # Independent route: Golub-Welsch nodes from numpy's Gauss-Hermite rule.
    for n in (5, 16, 33):
        nodes = np.polynomial.hermite.hermgauss(n)[0][::-1]
        np.testing.assert_allclose(zeros_cache(n).zeros, nodes, rtol=0, atol=5e-13)


def test_zeros_invalid_size_and_failed_polish(monkeypatch):
    with pytest.raises(InvalidConfig):
        bf.compute_zeros(1)
    with pytest.raises(InvalidConfig):
        bf.compute_zeros(0)
    # A polish that steps the wrong way must not pass the residual check.
    monkeypatch.setattr(hermite_core, "_newton_ratio",
                        lambda n, x: np.full_like(x, -1e-9))
    for n in (2, 10):
        with pytest.raises(ConvergenceFailure):
            bf.compute_zeros.__wrapped__(n)


@pytest.mark.parametrize("n", (2, 739, 850, 1675, 2000))
def test_zero_residual_a_quarter_of_its_bound(n, zeros_cache):
    # The bound 4 n eps / min gap that compute_zeros accepts leaves a margin
    # of 4x here; a fixed 1e-12 failed at 1188 sizes, the first n = 739.
    z = zeros_cache(n).zeros
    bound = 4.0 * n * np.finfo(float).eps / bf.min_gap(z)
    assert bf.fixed_point_residual(z) <= bound / 4.0


def test_hermite_zeros_container_validation():
    with pytest.raises(DegenerateInput):
        bf.HermiteZeros(3, np.array([1.0, 2.0, 3.0]))  # ascending
    hz = bf.compute_zeros(4)
    with pytest.raises(ValueError):
        hz.zeros[0] = 99.0  # read-only


# ----------------------------------------------------------------------
# identity diagnostics
# ----------------------------------------------------------------------

def test_fixed_point_residual_exact_for_true_fixed_point():
    # For n = 2 the fixed point equation is z = 1/(2z); at the float zeros
    # the residual is at rounding level but not zero.
    z = bf.compute_zeros(2).zeros
    r = bf.fixed_point_residual(z)
    assert 0.0 < r < 1e-15


def test_residual_rejects_degenerate_points():
    with pytest.raises(DegenerateInput):
        bf.fixed_point_residual(np.array([1.0, 1.0]))
    with pytest.raises(DegenerateInput):
        bf.potential_identity_gap(np.array([0.5, 0.5]))
    with pytest.raises(DegenerateInput):
        bf.potential_identity_gap(np.array([0.0, 1.0]))  # not descending


def test_potential_gap_detects_perturbation(zeros_cache):
    # The zeros are a stationary point of the log-potential, so the gap
    # responds only at second order in the perturbation size.
    z = zeros_cache(12).zeros.copy()
    z[0] += 1e-2
    assert bf.potential_identity_gap(z) > 1e-5


# ----------------------------------------------------------------------
# Stirling remainder
# ----------------------------------------------------------------------

# mpmath (60 digits): mu(x) = loggamma(x) - (x - 1/2) ln x + x - ln(2 pi)/2
STIRLING_ORACLE = [
    (1.001, 0.080984323530169038561),
    (1.5, 0.054814121051917653896),
    (2.0, 0.041340695955409294094),
    (2.718281828459045, 0.030523208615394927843),
    (10.0, 0.0083305634333628712565),
    (16.0, 0.0052076559196096404407),
    (100.0, 0.00083333055563491468338),
    (2500.0, 0.000033333333155555563683),
    (1e6, 8.3333333333330555556e-8),
]


@pytest.mark.parametrize("x,want", STIRLING_ORACLE)
def test_stirling_mu_oracle(x, want):
    got = float(hermite_core._mu_vec(np.asarray([x]))[0])
    assert got == pytest.approx(want, rel=5e-13)


def test_stirling_mu_two_sided_bound_everywhere():
    xs = np.logspace(math.log10(1.001), 6, 400)
    lo_m, hi_m = bf.stirling_bound_margins(xs)
    assert np.all(lo_m > 0.0), "mu must exceed 1/(12x) - 1/(360x^3)"
    assert np.all(hi_m > 0.0), "mu must stay below 1/(12x)"


def test_stirling_margins_scalar_and_continuity_at_cutoff():
    lo_s, hi_s = bf.stirling_bound_margins(10.0)
    assert isinstance(lo_s, float) and isinstance(hi_s, float)
    lo_a, hi_a = bf.stirling_bound_margins(15.999999)
    lo_b, hi_b = bf.stirling_bound_margins(16.000001)
    assert lo_a == pytest.approx(lo_b, rel=1e-4)
    assert hi_a == pytest.approx(hi_b, rel=1e-4)
    with pytest.raises(InvalidConfig):
        bf.stirling_bound_margins(1.0)


def test_stirling_margins_match_series_meaning():
    # At moderate x the margins must agree with a direct high-precision
    # subtraction.
    for x in (1.5, 3.0, 8.0, 30.0, 200.0):
        mu_hp = float(
            mp.loggamma(x) - (mp.mpf(x) - mp.mpf(1) / 2) * mp.log(x) + x
            - mp.log(2 * mp.pi) / 2
        )
        lo_m, hi_m = bf.stirling_bound_margins(x)
        want_lo = mu_hp - (1 / (12 * x) - 1 / (360 * x**3))
        want_hi = 1 / (12 * x) - mu_hp
        assert lo_m == pytest.approx(want_lo, rel=1e-6)
        assert hi_m == pytest.approx(want_hi, rel=1e-6)


# mpmath (60 digits): (N-1) mu(k) - sum_{l=2..N} mu(l k)
EXPONENT_M_ORACLE = [
    ((5, 3.7), 0.060981318553514839591),
    ((2, 1.0), 0.039720770839917964126),
    ((100, 10000.0), 0.00079010518707856429695),
]


@pytest.mark.parametrize("args,want", EXPONENT_M_ORACLE)
def test_exponent_m_oracle(args, want):
    assert bf.exponent_M(*args) == pytest.approx(want, rel=1e-11)


def test_exponent_m_lower_bound_grid():
    for N in (2, 3, 10, 47, 100):
        for k in np.logspace(0, 4, 25):
            assert bf.exponent_M(N, float(k)) >= (N - 1) / (26.0 * float(k))


def test_exponent_m_validation():
    with pytest.raises(InvalidConfig):
        bf.exponent_M(1, 2.0)
    with pytest.raises(InvalidConfig):
        bf.exponent_M(3, 0.5)
    with pytest.raises(InvalidConfig):
        bf.exponent_M(3, math.inf)
    # N is held to MAX_N: 10**400 raised NumPy's ValueError, and 10**9
    # would have allocated 8 GB.
    bf.exponent_M(MAX_N, 2.0)
    for N in (MAX_N + 1, 10**9, 10**400):
        with pytest.raises(InvalidConfig, match="N must be <= 2000"):
            bf.exponent_M(N, 2.0)


@settings(max_examples=50, deadline=None)
@given(x=st.floats(min_value=1.0001, max_value=1e8))
def test_stirling_mu_positive_decreasing(x):
    mu_x, mu_2x = hermite_core._mu_vec(np.asarray([x, 2.0 * x]))
    assert 0.0 < mu_2x < mu_x


def test_zeros_cached_read_only():
    first = bf.compute_zeros(29)
    assert bf.compute_zeros(29) is first
    assert not first.zeros.flags.writeable
    uncached = bf.compute_zeros.__wrapped__(29)
    assert uncached is not first
    np.testing.assert_array_equal(first.zeros, uncached.zeros)
