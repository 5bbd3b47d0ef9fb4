"""Explicit tail bounds: frozen high-precision oracles, algebraic
consistency between the two bound routes, window logic, finiteness."""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import betafreeze as bf
from betafreeze.cli import main
from betafreeze.errors import InvalidConfig


# mpmath (60 digits) evaluation of the breakdown terms.
PROP_ORACLE = [
    # (N, k, eps) -> (term_quartic, term_stirling, e_factor, term_gaussian, total)
    ((2, 1e6, 0.005), (
        0.053333333333333333333,
        3.8461538461538461538e-8,
        0.94806397495739384837,
        7.828490267173123343e-10,
        0.053333295654643898512,
    )),
    ((3, 7.389056098930650227230427460575, 0.2), (
        3.4048770503872436247,
        0.010410406402816360915,
        0.033558447999948158746,
        0.056731314724239897627,
        3.4511979587086671614,
    )),
]


@pytest.mark.parametrize("args,want", PROP_ORACLE)
def test_prop_bound_oracle(args, want):
    bd = bf.prop_bound(*args)
    tq, ts, ef, tg, total = want
    assert bd.term_quartic == pytest.approx(tq, rel=1e-12)
    assert bd.term_stirling == pytest.approx(ts, rel=1e-12)
    assert bd.e_factor == pytest.approx(ef, rel=1e-12)
    assert bd.term_gaussian == pytest.approx(tg, rel=1e-12)
    assert bd.total == pytest.approx(total, rel=1e-12)


def test_breakdown_internal_consistency():
    bd = bf.prop_bound(4, 5e3, 0.04)
    # the recorded fields recombine bitwise into the recorded total
    assert bd.total == bd.term_quartic - bd.term_stirling + bd.term_gaussian
    assert bd.total_clamped == min(1.0, max(0.0, bd.total))
    assert bd.e_factor == math.exp(bd.term_stirling - bd.term_quartic)
    assert bd.condition_ok == bf.prop_condition(4, 5e3, 0.04)


# mpmath (60 digits): first & second summand and their sum.
COR_ORACLE = [
    ((2, 1e4, 1.0), (0.72388582201731727504, 0.0032019289434030654041,
                     0.72708775096072034045)),
    ((4, 1e5, 1.5), (4.5808399674533358811, 9.792155691457006925e-10,
                     4.5808399684325514503)),
]


@pytest.mark.parametrize("args,want", COR_ORACLE)
def test_cor_bound_oracle(args, want):
    first, second, total = want
    got_first, got_second = bf.cor_bound_terms(*args)
    assert got_first == pytest.approx(first, rel=1e-12)
    assert got_second == pytest.approx(second, rel=1e-12)
    assert bf.cor_bound(*args) == pytest.approx(
        total, rel=1e-12
    )


def test_cor_first_summand_bitwise_shared_with_quartic_term():
    # The log-threshold bound's first summand IS term_quartic evaluated
    # at eps = c sqrt(ln k / k): same float path, bitwise identical.
    for (N, k, c) in [(2, 1e4, 1.0), (3, 1e3, 0.8), (7, 2.5e5, 1.3)]:
        eps = bf.cor_eps(k, c)
        first, _ = bf.cor_bound_terms(N, k, c)
        assert first == bf.prop_bound(N, k, eps).term_quartic


def test_cor_second_summand_is_coarsened_gaussian_term():
    # second = (term_gaussian / e_factor) * sqrt(N): the N prefactor
    # replaces sqrt(N) and the e-factor (<= 1 inside the window) is dropped,
    # so the coarsened form dominates term_gaussian wherever the window holds.
    for (N, k, c) in [(2, 1e4, 1.0), (5, 1e6, 1.0), (3, 1e5, 1.2)]:
        eps = bf.cor_eps(k, c)
        bd = bf.prop_bound(N, k, eps)
        _, second = bf.cor_bound_terms(N, k, c)
        rebuilt = bd.term_gaussian / bd.e_factor * math.sqrt(N)
        assert second == pytest.approx(rebuilt, rel=1e-12)
        if bf.prop_condition(N, k, eps):
            assert second >= bd.term_gaussian


def test_cor_bound_evaluates_outside_the_window():
    # (2, 1e4, 1) satisfies the window; a huge c breaks the upper edge.
    # Like prop_bound, cor_bound evaluates the formula on both sides, and
    # validity is read from prop_condition at cor_eps.
    assert bf.prop_condition(2, 1e4, bf.cor_eps(1e4, 1.0))
    val = bf.cor_bound(2, 1e4, 1.0)
    assert val == pytest.approx(0.72708775096072034045, rel=1e-12)
    assert not bf.prop_condition(2, 1e4, bf.cor_eps(1e4, 25.0))
    outside = bf.cor_bound(2, 1e4, 25.0)
    assert math.isfinite(outside)
    assert outside == sum(bf.cor_bound_terms(2, 1e4, 25.0))


def test_cor_condition_matches_eps_window():
    # On a grid away from the window edges, the window written in c,
    # sqrt((1+ln N)/(2 ln k)) <= c <= (1/2) sqrt(k/(N ln k)), agrees with
    # the eps window at eps = cor_eps(k, c).
    for N in (2, 3, 5, 10):
        for k in (50.0, 1e3, 1e4, 1e6):
            for c in (0.5, 1.0, 2.0, 5.0):
                log_k = math.log(k)
                in_c = (math.sqrt((1.0 + math.log(N)) / (2.0 * log_k)) <= c
                        <= 0.5 * math.sqrt(k / (N * log_k)))
                assert in_c == bf.prop_condition(N, k, bf.cor_eps(k, c))


def test_condition_window_nonempty_iff():
    # the eps-window [sqrt((1+lnN)/2k), 1/(2 sqrt N)] is nonempty iff
    # k >= 2 N (1 + ln N)
    for N in (2, 5, 20):
        k_crit = 2.0 * N * (1.0 + math.log(N))
        eps_lo = math.sqrt((1.0 + math.log(N)) / (2.0 * k_crit * 1.05))
        assert not bf.prop_condition(N, k_crit * 1.05, eps_lo * 0.999)
        # just inside a slightly larger window
        k_ok = k_crit * 1.1
        eps_mid = 0.5 * (
            math.sqrt((1.0 + math.log(N)) / (2.0 * k_ok)) + 0.5 / math.sqrt(N)
        )
        assert bf.prop_condition(N, k_ok, eps_mid)
        # below critical k no eps works
        k_bad = k_crit * 0.9
        for eps in np.linspace(1e-4, 1.0, 50):
            assert not bf.prop_condition(N, k_bad, float(eps))
    # 2k overflowed here, and the window's lower end read 0, not 9.2e-155.
    assert not bf.prop_condition(2, 1e308, 1e-200)
    assert not bf.prop_bound(2, 1e308, 1e-200).condition_ok


def test_prop_bound_monotone_in_eps_where_gaussian_dominates():
    # Inside the window with small quartic term, the bound decreases in eps
    # until the quartic term takes over; check the gaussian part decreases.
    N, k = 2, 1e6
    eps_grid = np.linspace(0.002, 0.004, 20)
    tg = [bf.prop_bound(N, k, float(e)).term_gaussian for e in eps_grid]
    assert all(a > b for a, b in zip(tg, tg[1:]))


@settings(max_examples=200, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=200),
    k=st.floats(min_value=1.0, max_value=1e12),
    eps=st.floats(min_value=1e-9, max_value=10.0),
)
def test_prop_bound_always_finite(N, k, eps):
    bd = bf.prop_bound(N, k, eps)
    for v in (bd.term_quartic, bd.term_stirling, bd.e_factor,
              bd.term_gaussian, bd.total, bd.total_clamped):
        assert math.isfinite(v)
    assert 0.0 <= bd.total_clamped <= 1.0


def test_validation_errors():
    with pytest.raises(InvalidConfig):
        bf.prop_bound(1, 10.0, 0.1)
    with pytest.raises(InvalidConfig):
        bf.prop_bound(2, 0.0, 0.1)
    with pytest.raises(InvalidConfig):
        bf.prop_bound(2, 10.0, 0.0)
    with pytest.raises(InvalidConfig):
        bf.cor_eps(1.0, 1.0)  # needs k > 1
    with pytest.raises(InvalidConfig):
        bf.cor_eps(10.0, 0.0)
    with pytest.raises(InvalidConfig):
        bf.dette_imhof_bound(2, -0.1)


# ----------------------------------------------------------------------
# baseline bound
# ----------------------------------------------------------------------

def test_dette_imhof_examples():
    # 4 N e^{-eps^2/18}: at eps = 0 the value is 4N; at eps = sqrt(18 ln 8)
    # with N = 2 it equals exactly 1.
    assert bf.dette_imhof_bound(2, 0.0) == 8.0
    assert bf.dette_imhof_bound(2, math.sqrt(18.0 * math.log(8.0))) == (
        pytest.approx(1.0, rel=1e-14)
    )
    assert bf.dette_imhof_bound(5, 3.0) == pytest.approx(
        20.0 * math.exp(-0.5), rel=1e-15
    )


def test_dette_imhof_monotone(rng):
    eps = np.sort(rng.uniform(0.0, 20.0, size=50))
    vals = [bf.dette_imhof_bound(3, float(e)) for e in eps]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


# ----------------------------------------------------------------------
# Gaussian comparison bound
# ----------------------------------------------------------------------

GAUSS_ORACLE = [
    ((2, 2.0), 0.67952166837150566848),
    ((10, 3.0), 0.22291380922884177602),
    ((20, 1.0), 1.0),
    ((2, 0.1), 1.0),
]


@pytest.mark.parametrize("args,want", GAUSS_ORACLE)
def test_gaussian_tail_bound_oracle(args, want):
    assert bf.gaussian_tail_bound(*args) == pytest.approx(want, rel=1e-13)


def test_gaussian_tail_bound_monotone_in_eps():
    eps = np.linspace(0.1, 6.0, 80)
    vals = [bf.gaussian_tail_bound(4, float(e)) for e in eps]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(0.0 < v <= 1.0 for v in vals)


def test_optimize_delta_minimizes(rng):
    # For r < -2 the stationary point beats a fine grid; for r >= -2 the
    # optimum is the boundary delta = 0.
    grid = np.linspace(0.0, 0.499, 2000)
    for r in -2.0 - rng.uniform(0.01, 50.0, size=10):
        d_star = bf.optimize_delta(float(r))
        assert 0.0 < d_star < 0.5
        f = np.exp(r * grid) / (1.0 - 2.0 * grid)
        f_star = math.exp(r * d_star) / (1.0 - 2.0 * d_star)
        assert f_star <= float(np.min(f)) + 1e-12
    assert bf.optimize_delta(-2.0) == 0.0
    assert bf.optimize_delta(-1.0) == 0.0
    assert bf.optimize_delta(3.0) == 0.0


def test_nonfinite_eps_and_c_rejected():
    with pytest.raises(InvalidConfig):
        bf.prop_bound(2, 1e4, math.inf)
    with pytest.raises(InvalidConfig):
        bf.cor_eps(1e4, math.inf)
    with pytest.raises(InvalidConfig):
        bf.ExperimentConfig(n=2, k=1e4, trials=10, seed=0, eps=math.nan)


def test_quartic_term_at_extreme_scales():
    # eps**4 underflowed here and left total = -3.8e-202; the quartic term
    # is (32/3) k eps^4 N^3 = 8.533e-159.
    bd = bf.prop_bound(2, 1e200, 1e-90)
    assert bd.term_quartic == pytest.approx(256.0 / 3.0 * 1e-160, rel=1e-12)
    assert bd.total > 0.0
    # eps**4 raised OverflowError here; k eps^2 itself overflows at 1e160.
    for eps in (1e100, 1e160):
        bd = bf.prop_bound(2, 1e4, eps)
        assert bd.term_quartic == bd.total == math.inf
        assert bd.total_clamped == 1.0
    assert bf.cor_bound(2, 1e4, 1e200) == math.inf


@pytest.mark.parametrize("call", [
    lambda: bf.cor_eps(math.inf, 1.0),
    lambda: bf.cor_bound(2, math.inf, 1.0),
    lambda: bf.prop_bound(2, math.inf, 0.1),
    lambda: bf.prop_condition(2, math.inf, bf.cor_eps(math.inf, 1.0)),
    lambda: bf.prop_condition(2, 1e4, bf.cor_eps(1e4, math.inf)),
    lambda: bf.gaussian_tail_bound(2, math.inf),
    lambda: bf.cor_bound(0, 1e4, 1.0),
], ids=["cor_eps", "cor_bound", "prop_bound", "cor_condition_k",
        "cor_condition_c", "gaussian_tail_bound", "cor_bound_n"])
def test_nonfinite_or_out_of_domain_rejected(call):
    # These returned NaN, a finite total at k = inf, False, or raised
    # ZeroDivisionError / ValueError instead of InvalidConfig.
    with pytest.raises(InvalidConfig):
        call()


def test_extreme_scales_saturate_instead_of_raising():
    # term_stirling = (N - 1) / (26 k) is ~3846 here, so e_factor and the
    # Gaussian term overflow a float: they read inf (math.exp raised
    # OverflowError), and so does the raw total.
    bd = bf.prop_bound(100_000, 1.0, 1e-10)
    assert bd.e_factor == bd.term_gaussian == bd.total == math.inf
    assert bd.total_clamped == 1.0 and not bd.condition_ok
    # 1 - 2 delta* rounded to 0 here: ZeroDivisionError.
    assert bf.gaussian_tail_bound(10, 1e9) == 0.0
    assert bf.gaussian_tail_bound(2, 1e200) == 0.0


def test_huge_n_saturates_instead_of_raising():
    # The int N**3 does not convert to a float here (OverflowError); the
    # quartic term, and with it the total, read inf instead.
    bd = bf.prop_bound(10**120, 1.0, 1.0)
    assert bd.term_quartic == bd.total == math.inf
    assert bd.total_clamped == 1.0 and not bd.condition_ok
    assert bf.cor_bound_terms(10**120, 10.0, 1.0)[0] == math.inf
    # N^3 = inf times k eps^4 = 0 read NaN here; the term is finite (mpmath,
    # 40 digits), and so are the rest of the breakdown and the total.
    bd = bf.prop_bound(2**1000, 1e308, 1e-300)
    assert bd.term_quartic == pytest.approx(1.3122473836385e12, rel=1e-9)
    assert bd.total == bd.term_quartic and not bd.condition_ok
    first, _ = bf.cor_bound_terms(2**1000, 1e308, 1e-160)
    assert first == pytest.approx(6.6000697609873e-39, rel=1e-9)
    # Below 2**17, N^3 is exact as a float product, so the term is the one
    # formed with the int N**3, bit for bit.
    k, eps = 1e4, 0.01
    for N in (2, 3, 77, 1000, 2**17 - 1):
        want = (32.0 / 3.0) * (k * eps * eps) * (eps * eps) * N**3
        assert bf.prop_bound(N, k, eps).term_quartic == want


def test_overflowing_26k_and_subnormal_eps_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        N, k = 2**1000, 1e308
        stirling = mp.mpf(N - 1) / (26 * mp.mpf(k))
        # 26k overflows here: term_stirling read 0, and e_factor with it.
        bd = bf.prop_bound(N, k, 1e-300)
        assert bd.term_stirling == pytest.approx(float(stirling), rel=1e-15)
        bd = bf.prop_bound(N, k, 3e-306)  # e_factor ~1 + 4e-9 here
        quartic = mp.mpf(32) / 3 * mp.mpf(3e-306) ** 4 * k * mp.mpf(N) ** 3
        assert bd.e_factor == pytest.approx(float(mp.exp(stirling - quartic)),
                                            rel=1e-15)
        # Where 26k is finite the term keeps the bits of (N - 1)/(26k).
        for k_finite in (6.9e306, 1e4):
            want = (N - 1) / (26.0 * k_finite)
            assert bf.prop_bound(N, k_finite, 1e-300).term_stirling == want
        # eps = c sqrt(ln k / k) is subnormal for these c: the first summand of
        # the log-threshold bound was off by 2.7e-11, 1e-6 and 9e-5 relative.
        for c in (1e-160, 1e-165, 3e-168):
            assert bf.cor_eps(k, c) < 2.2250738585072014e-308
            want = (mp.mpf(32) / 3 * mp.mpf(c) ** 4 * mp.mpf(N) ** 3
                    * mp.log(k) ** 2 / k)
            first, _ = bf.cor_bound_terms(N, k, c)
            assert first == pytest.approx(float(want), rel=1e-12)
        # A normal eps keeps the first summand bitwise term_quartic.
        eps = bf.cor_eps(k, 1e-150)
        assert bf.cor_bound_terms(N, k, 1e-150)[0] == bf.prop_bound(
            N, k, eps).term_quartic


# ----------------------------------------------------------------------
# the input boundary, as a property
# ----------------------------------------------------------------------

def log_uniform(lo: float, hi: float):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda x: 10.0 ** x)


#: Log-uniform draws plus the values that sit outside every domain.
REALS = st.one_of(
    log_uniform(1e-150, 1e150),
    st.sampled_from([0.0, -1.0, -math.inf, math.inf, math.nan]),
)
SIZES = st.one_of(
    log_uniform(2.0, 1e6).map(round),
    st.sampled_from([-3, 0, 1]),
)


@settings(max_examples=300, deadline=None)
@example(N=100_000, k=1.0, eps=1e-10, c=1.0)
@example(N=2, k=math.inf, eps=0.1, c=1.0)
@example(N=10, k=1.0, eps=1e9, c=1.0)
@example(N=2**1000, k=1e308, eps=1e-300, c=1e-160)
@given(N=SIZES, k=REALS, eps=REALS, c=REALS)
def test_bounds_never_nan_and_raise_only_domain_errors(N, k, eps, c):
    calls = (
        lambda: bf.prop_bound(N, k, eps),
        lambda: bf.cor_eps(k, c),
        lambda: bf.cor_bound(N, k, c),
        lambda: bf.gaussian_tail_bound(N, eps),
        lambda: bf.dette_imhof_bound(N, eps),
    )
    for call in calls:
        try:
            value = call()
        except InvalidConfig:
            continue
        if isinstance(value, bf.BoundBreakdown):
            fields = (value.term_quartic, value.term_stirling, value.e_factor,
                      value.term_gaussian, value.total, value.total_clamped)
            assert not any(math.isnan(v) for v in fields)
            assert 0.0 <= value.total_clamped <= 1.0
        else:
            assert not math.isnan(value)


@settings(max_examples=150, deadline=None)
@example(n=100_000, k=1.0, threshold=1e-10, use_c=False, fmt="csv")
@example(n=2, k=1e4, threshold=math.inf, use_c=True, fmt="json")
@given(n=SIZES, k=REALS, threshold=REALS, use_c=st.booleans(),
       fmt=st.sampled_from(["csv", "json"]))
def test_bounds_cli_exits_only_0_or_2(n, k, threshold, use_c, fmt):
    flag = "--c" if use_c else "--eps"
    argv = ["bounds", f"--n={n}", f"--k={k!r}", f"{flag}={threshold!r}",
            "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "nan" not in out.getvalue().lower()
