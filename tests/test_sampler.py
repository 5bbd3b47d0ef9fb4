"""Tridiagonal ensemble sampler: distributional checks against closed forms,
dense eigenvalue oracle, determinism, and the MCMC oracle."""

import math

import numpy as np
import pytest
import scipy.stats

import betafreeze as bf
from betafreeze._core import eigvals_batch
from betafreeze.errors import InvalidConfig
from betafreeze.sampler import _log_target


# ----------------------------------------------------------------------
# chi sampling
# ----------------------------------------------------------------------

def test_chi_matches_reference_distribution(rng):
    draws = bf.sample_chi(rng, 2.7, size=100_000)
    assert scipy.stats.kstest(draws, scipy.stats.chi(2.7).cdf).pvalue > 1e-3


def test_chi_square_moment(rng):
    for df in (1.0, 3.5, 10.0):
        draws = bf.sample_chi(rng, df, size=200_000)
        # E[X^2] = df, Var[X^2] = 2 df; allow 5 sigma
        se = math.sqrt(2.0 * df / draws.size)
        assert abs(np.mean(draws**2) - df) < 5.0 * se


def test_chi_scalar_and_shapes(rng):
    x = bf.sample_chi(rng, 4.0)
    assert isinstance(x, float) and x > 0.0
    arr = bf.sample_chi(rng, 4.0, size=(3, 5))
    assert arr.shape == (3, 5) and np.all(arr > 0.0)
    with pytest.raises(InvalidConfig):
        bf.sample_chi(rng, 0.0)
    with pytest.raises(InvalidConfig):
        bf.sample_chi(rng, -1.0)


# ----------------------------------------------------------------------
# tridiagonal model structure
# ----------------------------------------------------------------------

def test_build_tridiagonal_structure(rng):
    t = bf.build_tridiagonal(6, 2.5, rng)
    assert t.n == 6
    assert t.diag.shape == (6,) and t.offdiag.shape == (5,)
    assert np.all(t.offdiag > 0.0)
    with pytest.raises(ValueError):
        t.diag[0] = 0.0  # read-only


def test_offdiagonal_distribution(rng):
    # First off-diagonal entry at (n, k) = (3, 2) is chi with 2k(n-1) = 8
    # degrees of freedom, scaled by 1/sqrt(2).
    draws = np.array(
        [bf.build_tridiagonal(3, 2.0, rng).offdiag[0] for _ in range(30_000)]
    )
    ref = scipy.stats.chi(8, scale=1.0 / math.sqrt(2.0))
    assert scipy.stats.kstest(draws, ref.cdf).pvalue > 1e-3


def test_diagonal_distribution(rng):
    draws = np.array(
        [bf.build_tridiagonal(2, 1.0, rng).diag[0] for _ in range(30_000)]
    )
    assert scipy.stats.kstest(draws, scipy.stats.norm.cdf).pvalue > 1e-3


def test_tridiagonal_validation():
    with pytest.raises(InvalidConfig):
        bf.TridiagonalMatrix(2, np.zeros(2), np.array([0.0]))  # zero offdiag
    with pytest.raises(InvalidConfig):
        bf.TridiagonalMatrix(3, np.zeros(2), np.ones(2))  # wrong diag length
    with pytest.raises(InvalidConfig):
        bf.build_tridiagonal(1, 1.0, np.random.default_rng(0))
    with pytest.raises(InvalidConfig):
        bf.build_tridiagonal(3, 0.0, np.random.default_rng(0))


# ----------------------------------------------------------------------
# eigenvalues
# ----------------------------------------------------------------------

def test_eigen_matches_dense_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 13))
        k = float(rng.uniform(0.2, 8.0))
        t = bf.build_tridiagonal(n, k, rng)
        dense = np.diag(t.diag) + np.diag(t.offdiag, 1) + np.diag(t.offdiag, -1)
        want = np.linalg.eigvalsh(dense)[::-1]
        got = bf.eigen_tridiagonal(t)
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * scale)


def test_sample_ensemble_round_trip(rng):
    s = bf.sample_ensemble(5, 3.0, rng)
    assert s.n == 5 and s.k == 3.0 and s.beta == 6.0
    assert np.all(np.diff(s.values) < 0)  # strictly descending a.s.


def test_batch_descending_and_deterministic():
    a = bf.sample_eigenvalue_batch(4, 2.0, bf.master_stream(9), 500)
    b = bf.sample_eigenvalue_batch(4, 2.0, bf.master_stream(9), 500)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (500, 4)
    assert np.all(np.diff(a, axis=1) <= 0)


def test_batch_matches_dense_oracle(rng):
    lam = bf.sample_eigenvalue_batch(3, 1.5, bf.master_stream(21), 50)
    # re-derive from the same stream layout: diagonal block then offdiagonal
    rng2 = bf.master_stream(21)
    d = rng2.standard_normal((50, 3))
    dof = 2.0 * 1.5 * np.arange(2, 0, -1, dtype=float)
    e = np.sqrt(rng2.gamma(dof / 2.0, 2.0, size=(50, 2))) / math.sqrt(2.0)
    for row in range(50):
        dense = np.diag(d[row]) + np.diag(e[row], 1) + np.diag(e[row], -1)
        want = np.linalg.eigvalsh(dense)[::-1]
        np.testing.assert_allclose(lam[row], want, rtol=0, atol=1e-10)


def test_tridiagonal_batch_is_the_sampling_stream():
    # sample_eigenvalue_batch is the eigensolve of sample_tridiagonal_batch's
    # draws on the same stream, bit for bit.
    lam = bf.sample_eigenvalue_batch(4, 30.0, bf.master_stream(5), 200)
    d, e = bf.sample_tridiagonal_batch(4, 30.0, bf.master_stream(5), 200)
    assert d.shape == (200, 4) and e.shape == (200, 3)
    np.testing.assert_array_equal(lam, eigvals_batch(d, e))
    with pytest.raises(InvalidConfig):
        bf.sample_tridiagonal_batch(1, 30.0, bf.master_stream(5), 10)


# ----------------------------------------------------------------------
# chi variance and the first-order perturbation
# ----------------------------------------------------------------------

def test_chi_variance_matches_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    nus = np.concatenate([
        [2.0, 3.0, 39.0, 39.999, 40.0, 40.001, 41.0],
        np.logspace(math.log10(2.0), 16.0, 120),
    ])
    got = bf.chi_variance(nus)
    for nu, g in zip(nus, got):
        x = mp.mpf(float(nu)) / 2
        r = mp.exp(mp.loggamma(x + mp.mpf(1) / 2) - mp.loggamma(x))
        want = 2 * x - 2 * r * r
        assert abs(g - want) <= 1e-12 * want, nu
    # the limit 1/2 is approached from below, and scalars stay scalars
    assert np.all(got <= 0.5) and got[-1] == pytest.approx(0.5, rel=1e-15)
    assert isinstance(bf.chi_variance(3.0), float)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(InvalidConfig):
            bf.chi_variance(bad)


@pytest.mark.parametrize("n", range(2, 31))
def test_first_order_map_limit_is_limit_covariance(n, precision_cache):
    # k -> infinity: Var d_i = 1 and Var delta_i -> 1/4, so the covariance of
    # the linear term must be S^-1 itself.
    a = bf.first_order_map(n)
    assert a.shape == (n, 2 * n - 1)
    g_var = np.concatenate([np.ones(n), np.full(n - 1, 0.25)])
    pair = precision_cache(n)
    np.testing.assert_allclose(
        (a * g_var) @ a.T, pair.chol_cov @ pair.chol_cov.T, rtol=0, atol=1e-12
    )


@pytest.mark.parametrize("n", (2, 3, 5, 10))
def test_first_order_map_is_the_linear_term(n, zeros_cache):
    # X - sqrt(2k) z - A (d, delta) is second order: its rms shrinks like
    # 1/sqrt(k) (it is ~0.4/sqrt(k) at these n).
    a = bf.first_order_map(n)
    z = zeros_cache(n).zeros
    for k in (1e4, 1e6):
        d, e = bf.sample_tridiagonal_batch(n, k, bf.master_stream(3), 2000)
        y = eigvals_batch(d, e) - math.sqrt(2.0 * k) * z
        delta = e - np.sqrt(k * np.arange(n - 1, 0, -1, dtype=float))
        resid = y - np.concatenate([d, delta], axis=1) @ a.T
        assert math.sqrt(np.mean(resid * resid)) <= 1.0 / math.sqrt(k)


# ----------------------------------------------------------------------
# closed forms at n = 2
# ----------------------------------------------------------------------

def test_n2_closed_forms():
    k = 1.5
    lam = bf.sample_eigenvalue_batch(2, k, bf.master_stream(100), 120_000)
    diff = (lam[:, 0] - lam[:, 1]) / math.sqrt(2.0)
    total = (lam[:, 0] + lam[:, 1]) / math.sqrt(2.0)
    # (l1 - l2)/sqrt2 is chi with 2k+1 dof; (l1 + l2)/sqrt2 standard normal
    assert scipy.stats.kstest(diff, scipy.stats.chi(2.0 * k + 1.0).cdf).pvalue > 1e-3
    assert scipy.stats.kstest(total, scipy.stats.norm.cdf).pvalue > 1e-3
    # independence: correlation of the two statistics vanishes
    corr = np.corrcoef(diff, total)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(diff.size)


def test_freezing_onto_scaled_zeros(zeros_cache):
    # At very large k every draw sits close to sqrt(2k) z.
    n, k = 5, 1e6
    z = zeros_cache(n).zeros
    lam = bf.sample_eigenvalue_batch(n, k, bf.master_stream(77), 1000)
    sup_scaled = np.max(np.abs(lam / math.sqrt(2.0 * k) - z), axis=1)
    assert float(np.max(sup_scaled)) < 0.01


# ----------------------------------------------------------------------
# MCMC oracle
# ----------------------------------------------------------------------

def test_log_target_matches_direct(rng):
    iu, ju = np.triu_indices(3, k=1)
    x = rng.standard_normal((4, 3)) * 2.0
    got = _log_target(x, 2.0, iu, ju)
    for row in range(4):
        v = x[row]
        want = -0.5 * np.sum(v * v)
        for i in range(3):
            for j in range(i + 1, 3):
                want += 2.0 * 2.0 * math.log(abs(v[i] - v[j]))
        assert got[row] == pytest.approx(want, rel=1e-12)


def test_mh_oracle_smoke():
    k = 1.5
    kept = bf.mh_oracle_chain(2, k, bf.master_stream(8), draws=4000)
    assert kept.shape == (4000, 2)
    assert np.all(np.diff(kept, axis=1) <= 0)
    diff = (kept[:, 0] - kept[:, 1]) / math.sqrt(2.0)
    want_mean = float(scipy.stats.chi(2.0 * k + 1.0).mean())
    assert np.mean(diff) == pytest.approx(want_mean, rel=0.05)


def test_mh_oracle_single_draw():
    s = bf.mh_oracle_sample(2, 1.0, bf.master_stream(4), burn_in=2000, thin=10)
    assert isinstance(s, bf.EnsembleSample)
    assert s.values.shape == (2,) and s.values[0] >= s.values[1]


def test_mh_oracle_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidConfig):
        bf.mh_oracle_chain(4, 1.0, rng, draws=10)
    with pytest.raises(InvalidConfig):
        bf.mh_oracle_chain(2, 11.0, rng, draws=10)
    with pytest.raises(InvalidConfig):
        bf.mh_oracle_chain(2, 1.0, rng, draws=0)
