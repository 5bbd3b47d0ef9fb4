"""Limit precision matrix: exact small-N forms, integer spectrum, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betafreeze as bf
from betafreeze.errors import DegenerateInput, InvalidConfig


def test_precision_exact_n2(precision_cache):
    # z = (1/sqrt2, -1/sqrt2): gap^2 = 2, so S = [[3/2, -1/2], [-1/2, 3/2]]
    p = precision_cache(2)
    np.testing.assert_allclose(
        p.S, [[1.5, -0.5], [-0.5, 1.5]], rtol=1e-15, atol=0
    )
    np.testing.assert_allclose(p.eigenvalues, [1.0, 2.0], rtol=0, atol=1e-14)
    sigma = p.chol_cov @ p.chol_cov.T
    np.testing.assert_allclose(
        sigma, [[0.75, 0.25], [0.25, 0.75]], rtol=1e-13, atol=0
    )


def test_precision_exact_n3(precision_cache):
    # z = (sqrt(3/2), 0, -sqrt(3/2)): gaps^2 are 3/2, 3/2, 6.
    p = precision_cache(3)
    want = np.array([
        [11.0 / 6.0, -2.0 / 3.0, -1.0 / 6.0],
        [-2.0 / 3.0, 7.0 / 3.0, -2.0 / 3.0],
        [-1.0 / 6.0, -2.0 / 3.0, 11.0 / 6.0],
    ])
    np.testing.assert_allclose(p.S, want, rtol=1e-14, atol=0)
    np.testing.assert_allclose(p.eigenvalues, [1.0, 2.0, 3.0], rtol=0, atol=1e-13)


def test_integer_spectrum(precision_cache):
    for n in (2, 5, 10, 35, 60):
        assert bf.spectrum_deviation(precision_cache(n)) <= 1e-7


def test_row_sums_one(precision_cache):
    for n in (2, 7, 40, 120):
        p = precision_cache(n)
        np.testing.assert_allclose(p.S.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_traces_match_closed_forms(precision_cache):
    for n in (2, 9, 51):
        p = precision_cache(n)
        assert np.trace(p.S) == pytest.approx(n * (n + 1) / 2, rel=1e-12)
        assert np.sum(p.S * p.S) == pytest.approx(
            n * (n + 1) * (2 * n + 1) / 6, rel=1e-12
        )


def test_chol_cov_inverts_precision(precision_cache):
    for n in (2, 6, 25):
        p = precision_cache(n)
        sigma = p.chol_cov @ p.chol_cov.T
        np.testing.assert_allclose(sigma @ p.S, np.eye(n), rtol=0, atol=1e-10)
        # lower triangular factor
        np.testing.assert_allclose(
            p.chol_cov, np.tril(p.chol_cov), rtol=0, atol=0
        )


def test_pair_is_read_only(precision_cache):
    p = precision_cache(4)
    with pytest.raises(ValueError):
        p.S[0, 0] = 0.0
    with pytest.raises(ValueError):
        p.chol_cov[0, 0] = 0.0


def test_inverse_power_sums(zeros_cache):
    for n in (2, 3, 11, 40):
        z = zeros_cache(n).zeros
        assert bf.inverse_power_sum(z, 2) == pytest.approx(
            n * (n - 1) / 2, rel=1e-12
        )
        cap = n * (n - 1) * (2 * n - 1) / 12
        assert bf.inverse_power_sum(z, 4) <= cap * (1 + 1e-12)
    # equality case: N = 2 attains the quartic cap exactly
    z2 = zeros_cache(2).zeros
    assert bf.inverse_power_sum(z2, 4) == pytest.approx(
        2 * 1 * 3 / 12, rel=1e-12
    )
    with pytest.raises(InvalidConfig):
        bf.inverse_power_sum(zeros_cache(3).zeros, 3)


def test_min_gap_floor(zeros_cache):
    for n in (2, 13, 88, 200):
        assert bf.min_gap(zeros_cache(n).zeros) >= 2.0 / math.sqrt(n)


def test_min_gap_simple_vector():
    assert bf.min_gap(np.array([3.0, 1.0, 0.5])) == pytest.approx(0.5)


def test_build_precision_rejects_bad_input():
    # A NaN entry reached the factorization (FactorizationFailure); it is
    # now rejected as a zero vector.
    with pytest.raises(InvalidConfig):
        bf.build_precision(np.array([1.0, np.nan]))
    with pytest.raises(DegenerateInput):
        bf.build_precision(np.array([1.0, 1.0]))
    with pytest.raises(InvalidConfig):
        bf.build_precision(np.array([1.0]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=2, max_size=12, unique=True,
    )
)
def test_precision_invariants_any_distinct_points(vals):
    # For ANY distinct points: S is symmetric, rows sum to 1 (the pairwise
    # terms cancel), and S - I is a graph Laplacian with positive weights,
    # so every eigenvalue is >= 1 and the Cholesky factorization exists.
    z = np.array(sorted(vals, reverse=True))
    if bf.min_gap(z) < 1e-6:  # keep conditioning sane
        return
    p = bf.build_precision(z)
    np.testing.assert_allclose(p.S, p.S.T, rtol=0, atol=0)
    scale = np.max(np.abs(p.S))
    np.testing.assert_allclose(p.S.sum(axis=1), 1.0, rtol=0, atol=1e-12 * scale)
    assert np.all(p.eigenvalues >= 1.0 - 1e-8 * scale)
