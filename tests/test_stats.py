"""Exact binomial intervals and the one-pass moment accumulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betafreeze as bf
from betafreeze.errors import InvalidConfig

# Oracle: 60-digit bisection on the exact binomial tail equations
#   P(X >= hits | p = lo) = alpha/2,  P(X <= hits | p = hi) = alpha/2
# at 99% confidence, independent of the library's implementation route.
CP_ORACLE = [
    ((0, 10), (0.0, 0.41129598134752537)),
    ((3, 10), (0.037007221096232087, 0.73511398528713077)),
    ((10, 10), (0.58870401865247463, 1.0)),
    ((17, 100), (0.085947259923903908, 0.2867595057602688)),
]


@pytest.mark.parametrize("args,want", CP_ORACLE)
def test_clopper_pearson_oracle(args, want):
    lo, hi = bf.clopper_pearson(*args, confidence=0.99)
    assert lo == pytest.approx(want[0], rel=1e-10, abs=1e-15)
    assert hi == pytest.approx(want[1], rel=1e-10)


def test_clopper_pearson_edges_and_ordering():
    lo, hi = bf.clopper_pearson(0, 50)
    assert lo == 0.0 and 0.0 < hi < 1.0
    lo, hi = bf.clopper_pearson(50, 50)
    assert 0.0 < lo < 1.0 and hi == 1.0
    prev_lo, prev_hi = -1.0, -1.0
    for hits in range(0, 21):
        lo, hi = bf.clopper_pearson(hits, 20)
        assert 0.0 <= lo <= hits / 20 <= hi <= 1.0
        assert lo > prev_lo - 1e-15 and hi > prev_hi  # monotone in hits
        prev_lo, prev_hi = lo, hi


def test_clopper_pearson_validation():
    with pytest.raises(InvalidConfig):
        bf.clopper_pearson(-1, 10)
    with pytest.raises(InvalidConfig):
        bf.clopper_pearson(11, 10)
    with pytest.raises(InvalidConfig):
        bf.clopper_pearson(1, 0)
    with pytest.raises(InvalidConfig):
        bf.clopper_pearson(1, 10, confidence=1.0)


def test_clopper_pearson_coverage(rng):
    # Exact intervals must cover at >= nominal rate; allow 1% slack on
    # 1000 replications (conservative intervals over-cover).
    p_true, trials, reps = 0.3, 500, 1000
    hits = rng.binomial(trials, p_true, size=reps)
    covered = 0
    for h in hits:
        lo, hi = bf.clopper_pearson(int(h), trials, confidence=0.99)
        covered += lo <= p_true <= hi
    assert covered / reps >= 0.98


def test_bernoulli_estimator_sanity(rng):
    # |p_hat - p| <= 4 sqrt(p(1-p)/T) in at least 99% of 1000 replications
    # for p in {0.01, 0.1, 0.5}.
    trials, reps = 1000, 1000
    for p in (0.01, 0.1, 0.5):
        hits = rng.binomial(trials, p, size=reps)
        p_hat = hits / trials
        tol = 4.0 * math.sqrt(p * (1.0 - p) / trials)
        ok = np.abs(p_hat - p) <= tol
        assert np.mean(ok) >= 0.99


# ----------------------------------------------------------------------
# RunningMoments
# ----------------------------------------------------------------------

def test_moments_match_numpy(rng):
    y = rng.standard_normal((5000, 3)) * np.array([1.0, 2.0, 0.5])
    acc = bf.RunningMoments(3)
    acc.add_batch(y)
    np.testing.assert_allclose(acc.mean, y.mean(axis=0), rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(
        acc.covariance(), np.cov(y, rowvar=False), rtol=1e-10, atol=1e-14
    )
    assert acc.count == 5000


def test_moments_chunked_equals_single(rng):
    y = rng.standard_normal((4096, 2)) + 3.0
    whole = bf.RunningMoments(2)
    whole.add_batch(y)
    chunked = bf.RunningMoments(2)
    for start in range(0, 4096, 300):
        chunked.add_batch(y[start:start + 300])
    np.testing.assert_allclose(chunked.mean, whole.mean, rtol=1e-13)
    np.testing.assert_allclose(
        chunked.covariance(), whole.covariance(), rtol=1e-11, atol=1e-15
    )


@settings(max_examples=30, deadline=None)
@given(
    split=st.integers(min_value=1, max_value=999),
    shift=st.floats(min_value=-100, max_value=100),
)
def test_moments_merge_equals_whole(split, shift):
    y = np.random.default_rng(13).standard_normal((1000, 2)) + shift
    whole = bf.RunningMoments(2)
    whole.add_batch(y)
    a, b = bf.RunningMoments(2), bf.RunningMoments(2)
    a.add_batch(y[:split])
    if split < 1000:
        b.add_batch(y[split:])
    a.merge(b)
    assert a.count == 1000
    np.testing.assert_allclose(a.mean, whole.mean, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        a.covariance(), whole.covariance(), rtol=1e-9, atol=1e-12
    )


def test_moments_single_row_and_empty():
    acc = bf.RunningMoments(2)
    assert acc.count == 0
    acc.add_batch(np.array([[1.0, 2.0]]))
    assert acc.count == 1
    np.testing.assert_array_equal(acc.mean, [1.0, 2.0])
    empty = bf.RunningMoments(2)
    acc.merge(empty)  # merging an empty accumulator is a no-op
    assert acc.count == 1
    acc.add_batch(np.zeros((0, 2)))  # an empty batch is a no-op too
    assert acc.count == 1
    np.testing.assert_array_equal(acc.mean, [1.0, 2.0])
    np.testing.assert_array_equal(acc.m2, np.zeros((2, 2)))
    with pytest.raises(InvalidConfig,
                       match="a covariance needs at least 2 samples, got 1"):
        acc.covariance()
    with pytest.raises(InvalidConfig):
        acc.add_batch(np.zeros((3, 5)))  # wrong dimension


@pytest.mark.parametrize("other", [5, None, np.zeros(2)])
def test_moments_merge_takes_only_running_moments(other):
    # merge(5) raised AttributeError.
    with pytest.raises(InvalidConfig, match="can only merge a RunningMoments"):
        bf.RunningMoments(2).merge(other)


def test_moments_merge_dimension_mismatch():
    wide = bf.RunningMoments(3)
    wide.add_batch(np.ones((2, 3)))
    with pytest.raises(InvalidConfig, match="dimension mismatch in merge"):
        bf.RunningMoments(2).merge(wide)
