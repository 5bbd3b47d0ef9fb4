"""Batched tridiagonal eigensolver: adversarial matrices, agreement with
SciPy, chunking, convergence-failure surfacing, and the frozen-regime
Newton path with its certificate and dense fallback."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from betafreeze import _core, sampler
from betafreeze._core import (
    _DENSE_BUDGET,
    _certified,
    _certified_newton,
    _dense,
    _frozen_gate,
    _frozen_rows,
    _warm_start,
    eigvals_batch,
)
from betafreeze.errors import ConvergenceFailure, InvalidConfig
from betafreeze.rng import master_stream
from betafreeze.sampler import first_order_map, sample_tridiagonal_batch


def _reference(d, e):
    return np.array([
        scipy.linalg.eigvalsh_tridiagonal(dr, er)[::-1]
        for dr, er in zip(d, e)
    ])


def adversarial_cases():
    cases = []
    # already diagonal (zero off-diagonals force immediate deflation)
    cases.append((np.array([[3.0, -1.0, 2.0, 0.0]]), np.zeros((1, 3))))
    # equal diagonal, uniform coupling (extreme degeneracy of the shift)
    cases.append((np.ones((1, 8)), np.full((1, 7), 0.5)))
    # clustered eigenvalues: tiny couplings between nearly equal diagonals
    cases.append((
        np.array([[1.0, 1.0 + 1e-12, 1.0 + 2e-12, 5.0]]),
        np.full((1, 3), 1e-14),
    ))
    # graded: magnitudes spanning 16 orders
    cases.append((
        np.array([[1e8, 1.0, 1e-8, -1e8]]),
        np.array([[1e4, 1e-4, 1.0]]),
    ))
    # n = 2 minimal
    cases.append((np.array([[0.0, 0.0]]), np.array([[1.0]])))
    # Wilkinson-like: symmetric graded diagonal with unit couplings
    w = np.abs(np.arange(-10, 11, dtype=float))
    cases.append((w[None, :], np.ones((1, 20))))
    return cases


@pytest.mark.parametrize("case_idx", range(len(adversarial_cases())))
def test_adversarial_matrices(case_idx):
    d, e = adversarial_cases()[case_idx]
    want = _reference(d, e)
    got = eigvals_batch(d, e)
    scale = max(1.0, float(np.max(np.abs(want))))
    np.testing.assert_allclose(got, want, rtol=0, atol=2e-13 * scale)


def test_random_batch_against_reference(rng):
    for n in (2, 3, 5, 17, 40):
        d = rng.standard_normal((25, n))
        e = np.abs(rng.standard_normal((25, n - 1))) + 1e-6
        want = _reference(d, e)
        got = eigvals_batch(d, e)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 *
                                   max(1.0, float(np.max(np.abs(want)))))


def test_batch_rows_independent(rng):
    d = rng.standard_normal((40, 6))
    e = np.abs(rng.standard_normal((40, 5))) + 0.01
    whole = eigvals_batch(d, e)
    for row in (0, 17, 39):
        single = eigvals_batch(d[row:row + 1], e[row:row + 1])
        np.testing.assert_array_equal(whole[row], single[0])


def test_fallback_chunking_matches_unchunked(rng):
    # batch * n^2 far above the densification budget forces multiple chunks
    n, batch = 40, 5000
    assert batch * n * n > _DENSE_BUDGET
    d = rng.standard_normal((batch, n))
    e = np.abs(rng.standard_normal((batch, n - 1))) + 1e-3
    out = eigvals_batch(d, e)
    assert out.shape == (batch, n)
    assert np.all(np.diff(out, axis=1) <= 0)  # descending contract
    for row in (0, 2499, 4999):
        want = scipy.linalg.eigvalsh_tridiagonal(d[row], e[row])[::-1]
        np.testing.assert_allclose(out[row], want, rtol=0, atol=1e-11 *
                                   max(1.0, float(np.max(np.abs(want)))))


def test_eigvals_batch_validation(rng):
    with pytest.raises(InvalidConfig):
        eigvals_batch(np.zeros((3, 4)), np.ones((3, 2)))


@pytest.mark.parametrize("d, e", [
    (np.ones((3, 2)), np.ones((1, 1))),  # e's one row was spread over all
    (np.ones((2, 3)), np.ones((3, 2))),  # e's third row was dropped: dense
    (np.zeros((2, 3)), np.full((3, 2), 1e3)),  # ... and frozen Newton
    (np.ones((3, 0)), np.ones((3, 0))),  # n = 0 divided by zero
    (np.ones((2, 3, 3)), np.ones((2, 3, 2))),  # 3-D failed to unpack
], ids=["e-one-row", "e-extra-row-dense", "e-extra-row-frozen", "n0", "3d"])
def test_eigvals_batch_rejects_mismatched_shapes(d, e):
    with pytest.raises(InvalidConfig):
        eigvals_batch(d, e)


def test_solver_failure_is_convergence_failure():
    # A NaN entry makes LAPACK's eigvalsh raise LinAlgError; the solver must
    # surface it as ConvergenceFailure, which the CLI maps to exit code 3.
    d = np.zeros((3, 4))
    e = np.ones((3, 3))
    e[1, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.eigvalsh(np.diag(d[1]) + np.diag(e[1], 1) + np.diag(e[1], -1))
    with pytest.raises(ConvergenceFailure):
        eigvals_batch(d, e)


# ----------------------------------------------------------------------
# frozen-regime Newton path
# ----------------------------------------------------------------------

def _ensemble_rows(n, k, rows, seed=11):
    return sample_tridiagonal_batch(n, k, master_stream(seed), rows)


@pytest.mark.parametrize("n", (2, 3, 5, 8, 32, 64, 128))
@pytest.mark.parametrize("k", (1.0, 30.0, 1e2, 300.0, 1e3, 1e4, 1e8))
def test_frozen_path_against_reference(n, k):
    d, e = _ensemble_rows(n, k, 300)
    want = _reference(d, e)
    got = eigvals_batch(d, e)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("n", (3, 5, 8, 32))
def test_frozen_regime_never_falls_back(n):
    # Every row at k >= 1e3 passes the gate and is certified by Newton,
    # without a warning.
    for k in (1e3, 1e4, 1e8):
        d, e = _ensemble_rows(n, k, 3000)
        out = np.empty(d.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frozen = _frozen_gate(e)
            accepted = _frozen_rows(d, e, np.flatnonzero(frozen), out)
        assert frozen.all()
        assert accepted.all()
        np.testing.assert_array_equal(out, eigvals_batch(d, e))


@pytest.mark.parametrize("n", (2, 3, 8, 32))
def test_results_do_not_depend_on_block_size(n, monkeypatch):
    # Each column's arithmetic is elementwise, so how the rows are split
    # into Newton blocks changes nothing.  The batch spans several blocks
    # at every size, and one gated-out row splits a block's run of rows.
    d, e = _ensemble_rows(n, 1e4, 65536 // n + 17)
    e[5] *= 1e-3
    results = []
    for block in (16384, 32768, 1024):
        monkeypatch.setattr(_core, "_BLOCK_ELEMENTS", block)
        results.append(eigvals_batch(d, e))
    for got in results[1:]:
        np.testing.assert_array_equal(got, results[0])


@pytest.mark.parametrize("k", (2.0, 5.0))
def test_small_k_stays_on_dense_path(k, monkeypatch):
    # Below the gate no row reaches the Newton path, so the call is the
    # dense solve alone.
    d, e = _ensemble_rows(4, k, 2000)
    assert not _frozen_gate(e).any()

    def newton_called(*args):
        raise AssertionError("gated-out rows reached the Newton path")

    monkeypatch.setattr(_core, "_frozen_rows", newton_called)
    np.testing.assert_array_equal(eigvals_batch(d, e), _dense(d, e))


def test_mixed_batch_splits_by_row():
    # Interleaved rows below and above the gate: each row gets what it gets
    # in a batch of its own kind, dense below the gate and Newton above.
    lo = _ensemble_rows(5, 5.0, 300, seed=3)
    hi = _ensemble_rows(5, 1e4, 300, seed=4)
    d = np.empty((600, 5))
    e = np.empty((600, 4))
    d[0::2], e[0::2] = lo
    d[1::2], e[1::2] = hi
    got = eigvals_batch(d, e)
    np.testing.assert_array_equal(got[0::2], _dense(*lo))
    np.testing.assert_array_equal(got[1::2], eigvals_batch(*hi))


def test_frozen_batch_rows_independent():
    # 600 rows at n = 32 span two Newton blocks; rows 511 and 512 sit on
    # either side of the boundary.
    d, e = _ensemble_rows(32, 1e4, 600)
    whole = eigvals_batch(d, e)
    for row in (0, 511, 512, 599):
        single = eigvals_batch(d[row:row + 1], e[row:row + 1])
        np.testing.assert_array_equal(whole[row], single[0])
    np.testing.assert_array_equal(whole[100:300], eigvals_batch(d[100:300], e[100:300]))


@pytest.mark.parametrize("corrupt", ("swap", "duplicate"))
def test_wrong_root_fails_certificate(corrupt, monkeypatch):
    # A warm start whose first two roots are swapped, or both placed at the
    # top root, makes Newton converge to the wrong roots; the certificate
    # must reject every row, which then comes from the dense path.
    n = 5
    d, e = _ensemble_rows(n, 1e4, 200)
    good = first_order_map(n)
    bad = good.copy()
    bad[1] = good[0]
    if corrupt == "swap":
        bad[0] = good[1]
    with np.errstate(all="ignore"):
        roots, ok = _certified_newton(np.concatenate([d, e], axis=1).T.copy(), bad)
    dense = _dense(d, e)
    wrong = dense[:, [1, 0]] if corrupt == "swap" else dense[:, [0, 0]]
    np.testing.assert_allclose(roots[:2].T, wrong, rtol=1e-12)
    assert not ok.any()
    monkeypatch.setattr(sampler, "first_order_map", lambda m: bad)
    np.testing.assert_array_equal(eigvals_batch(d, e), dense)


def test_each_certificate_check_rejects_alone():
    # The certificate reads only the roots x and the size S of their last
    # step.  With S = 0 the exact roots pass.  Around c = 2^48, where
    # eps max|x| = 1/16, with n = 4, S = 1 and D half the gap: D = 5.25
    # clears (n+1) S = 5 by more than the margin 3 eps max|x| and passes;
    # D = 5.125, inside the margin, and D = 4.5, though above n S = 4 with a
    # radius of 6, fail the separation alone.  On roots 1 apart (D = 0.5)
    # a step of S = 1e-8 passes, and S = 0.05 keeps the discs disjoint
    # ((n+1) S = 0.25) but leaves a radius of 0.025, above 1e-13 max|x|,
    # and fails the radius test alone.  Roots out of order fail with S = 0.
    d, e = _ensemble_rows(6, 1e4, 40)
    roots = _dense(d, e).T.copy()
    zero = np.zeros(roots.shape[1])
    assert _certified(roots, zero.copy(), np.empty_like(roots)).all()

    def accepted(x, step):
        x = np.array(x, dtype=float)[:, None]
        return bool(_certified(x, np.array([step]), np.empty_like(x))[0])

    c = 2.0**48
    assert 3 * _core._EPS * c == 3 / 16
    for half_gap, ok in ((5.25, True), (5.125, False), (4.5, False)):
        x = c + half_gap * np.array([3.0, 1.0, -1.0, -3.0])
        assert accepted(x, 1.0) == ok
    assert accepted([3.0, 2.0, 1.0, 0.0], 1e-8)
    assert not accepted([3.0, 2.0, 1.0, 0.0], 0.05)
    swapped = roots[[1, 0, 2, 3, 4, 5]]
    assert not _certified(swapped, zero.copy(), np.empty_like(roots)).any()


@pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
def test_nan_in_frozen_batch_is_convergence_failure(where):
    # A NaN row fails the gate (off-diagonal) or the certificate (diagonal),
    # reaches the dense path and surfaces as ConvergenceFailure.
    d, e = _ensemble_rows(8, 1e4, 50)
    (d if where == "diagonal" else e)[7, 2] = np.nan
    with pytest.raises(ConvergenceFailure):
        eigvals_batch(d, e)


# ----------------------------------------------------------------------
# the gap-aware certificate, per-column stop and half-size start
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", (2, 3, 5, 8, 32, 256))
def test_half_size_start_matches_full_map(n):
    # The start from the top ceil(n/2) rows of A, mirrored, equals the
    # full A (d, e) loop to rounding.
    d, e = _ensemble_rows(n, 1e4, 300)
    g = np.concatenate([d, e], axis=1).T.copy()
    a = first_order_map(n)
    full = a[:, :1] * g[0]
    for i in range(1, 2 * n - 1):
        full = full + a[:, i : i + 1] * g[i]
    x = np.empty((n, g.shape[1]))
    _warm_start(g, a, x, np.empty_like(x), np.empty_like(x))
    assert np.all(np.abs(x - full) <= 1e-14 * np.max(np.abs(full), axis=0))


def test_radius_needs_gap_above_n_steps(monkeypatch):
    # n = 2, d = (c + 9, c - 9), e = 12: eigenvalues c +- 15.  A start at
    # c +- 30 (two roots a hair apart, 2e-13 relative) stops after one
    # step at c +- 18.75 with S = 11.25 and D = 18.75 <= n S = 22.5, so no
    # radius follows and the row is rejected, though (n-1) S^2 / D alone
    # would be small enough.  eigvals_batch solves n = 2 in closed form, so
    # the rejection is checked on the Newton path itself.
    c = 2.0 ** 48
    d = np.array([[c + 9.0, c - 9.0]])
    e = np.array([[12.0]])
    start = np.array([[0.5, 0.5, 2.5], [0.5, 0.5, -2.5]])
    g = np.concatenate([d, e], axis=1).T.copy()
    with np.errstate(divide="ignore"):
        roots, ok = _certified_newton(g, start)
    np.testing.assert_array_equal(roots[:, 0], [c + 18.75, c - 18.75])
    assert 11.25**2 / 18.75 + _core._EPS * c <= _core._NEWTON_TOL * c
    assert not ok.any()
    assert _frozen_gate(e).all()
    monkeypatch.setattr(sampler, "first_order_map", lambda m: start)
    with np.errstate(divide="ignore"):
        accepted = _frozen_rows(d, e, range(1), np.empty(d.shape))
    assert not accepted.any()


def _count_column_steps(monkeypatch):
    widths = []
    step = _core._log_derivative

    def counted(x, *args):
        widths.append(x.shape[1])
        return step(x, *args)

    monkeypatch.setattr(_core, "_log_derivative", counted)
    return widths


def test_column_steps_per_row(monkeypatch):
    # At n = 32, k = 1e4 a row is certified by its second step, or rarely
    # its third: the step that finds the root also certifies it.
    d, e = _ensemble_rows(32, 1e4, 4096)
    widths = _count_column_steps(monkeypatch)
    eigvals_batch(d, e)
    assert sum(widths) / 4096 <= 2.2


def test_compaction_keeps_rows_independent(monkeypatch):
    # Rows at k = 1e4, 1e2 and 30 stop after different numbers of steps,
    # so the block gathers its live columns more than once.  Every row must
    # still equal its solve alone (a one-column block never gathers), under
    # any block size.
    ks = (1e4, 1e4, 1e4, 1e2, 1e4, 30.0, 1e4, 1e2)
    d, e = np.empty((2000, 8)), np.empty((2000, 7))
    for i, k in enumerate(ks):
        d[i :: len(ks)], e[i :: len(ks)] = _ensemble_rows(8, k, 250, seed=20 + i)
    widths = _count_column_steps(monkeypatch)
    whole = eigvals_batch(d, e)
    assert len(set(widths)) >= 3  # gathered at least twice
    want = _reference(d, e)
    scale = np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(whole - want) <= 1e-13 * scale)
    for row in range(0, 64):
        single = eigvals_batch(d[row : row + 1], e[row : row + 1])
        np.testing.assert_array_equal(whole[row], single[0])
    for block in (1024, 4096):
        monkeypatch.setattr(_core, "_BLOCK_ELEMENTS", block)
        np.testing.assert_array_equal(eigvals_batch(d, e), whole)


# ----------------------------------------------------------------------
# what the certificate claims
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n", (3, 8, 32, 64, 128, 256))
def test_accepted_columns_hold_their_claim_against_dense(n):
    # On every column the certificate accepts, each root x_j is within
    # 1e-13 max|x| of the j-th dense eigenvalue, and every other dense
    # eigenvalue is at least D (half the smallest gap of x) from x_j.
    rows = min(300, max(40, 8192 // n))
    for k in (30.0, 1e2, 300.0, 1e3, 1e4):
        d, e = _ensemble_rows(n, k, rows)
        g = np.concatenate([d, e], axis=1).T.copy()
        with np.errstate(all="ignore"):
            x, ok = _certified_newton(g, first_order_map(n))
        assert ok.any()
        x, lam = x[:, ok], _dense(d[ok], e[ok]).T
        size = np.max(np.abs(x), axis=0)
        assert np.all(np.abs(x - lam) <= 1e-13 * size)
        half_gap = 0.5 * np.min(x[:-1] - x[1:], axis=0)
        dist = np.abs(x[:, None, :] - lam[None, :, :])  # (j, i, row)
        dist[np.arange(n), np.arange(n)] = np.inf
        assert np.all(dist.min(axis=(0, 1)) >= half_gap)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from((3, 4, 8, 32)),
    log_k=st.floats(np.log10(30.0), 8.0),
    shift=st.floats(-(2.0**48), 2.0**48),
    seed=st.integers(0, 2**16),
)
def test_shifted_frozen_rows_match_reference(n, log_k, shift, seed):
    # T + c I has the eigenvalues of T shifted by c and passes the gate as T
    # does; up to |c| = 2^48 the eps max|x| terms of the certificate matter.
    # Every row, and every row Newton certifies, is within 1e-13 max|lambda|
    # of SciPy.
    d, e = _ensemble_rows(n, 10.0**log_k, 20, seed=seed)
    d += shift
    want = _reference(d, e)
    tol = 1e-13 * np.max(np.abs(want), axis=1, keepdims=True)
    assert np.all(np.abs(eigvals_batch(d, e) - want) <= tol)
    out = np.empty(d.shape)
    ok = _frozen_rows(d, e, range(len(d)), out)
    assert np.all(np.abs(out[ok] - want[ok]) <= tol[ok])


# ----------------------------------------------------------------------
# n = 2: the closed form
# ----------------------------------------------------------------------

def _exact_two_by_two(d, e):
    """Descending eigenvalues of each 2 x 2 row, at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        rows = []
        for (a, b), (c,) in zip(d.tolist(), e.tolist()):
            m = (mp.mpf(a) + mp.mpf(b)) / 2
            r = mp.sqrt(((mp.mpf(a) - mp.mpf(b)) / 2) ** 2 + mp.mpf(c) ** 2)
            rows.append([m + r, m - r])
        return rows


def _assert_within_4_eps(got, d, e):
    mp = pytest.importorskip("mpmath")
    for row, want in zip(got, _exact_two_by_two(d, e)):
        scale = max(abs(w) for w in want)
        for g, w in zip(row, want):
            assert abs(mp.mpf(float(g)) - w) <= 4 * _core._EPS * scale, (row, want)


@pytest.mark.parametrize("k", (1.0, 5.0, 30.0, 1e4, 1e8))
def test_two_by_two_within_4_eps_of_exact(k, monkeypatch):
    # Ensemble rows on both sides of the Newton gate take the closed form
    # alone: neither Newton nor LAPACK is called.
    def other_path(*args):
        raise AssertionError("a finite n = 2 row left the closed form")

    monkeypatch.setattr(_core, "_frozen_rows", other_path)
    monkeypatch.setattr(_core, "_dense", other_path)
    d, e = _ensemble_rows(2, k, 400)
    _assert_within_4_eps(eigvals_batch(d, e), d, e)


def test_two_by_two_adversarial_within_4_eps():
    c = 2.0 ** 48
    d = np.array([
        [0.0, 0.0], [3.0, -1.0], [-1.0, 3.0], [1.0, 1.0], [1.0, 1.0 + 1e-15],
        [c + 9.0, c - 9.0], [c, c], [-c, -c], [1e8, -1e8], [1e-8, 1e8],
        [0.0, 0.0], [5.0, 5.0],
    ])
    e = np.array([
        [1.0], [0.0], [0.0], [1e-14], [1e-16], [12.0], [1e-3], [1e-3],
        [1e4], [1e-4], [-2.0], [-1e-300],
    ])
    got = eigvals_batch(d, e)
    assert np.all(got[:, 0] >= got[:, 1])
    _assert_within_4_eps(got, d, e)


def test_two_by_two_rows_descending_and_independent():
    d, e = _ensemble_rows(2, 1e4, 3000)
    d[::7], e[::7] = _ensemble_rows(2, 5.0, 429, seed=12)
    whole = eigvals_batch(d, e)
    assert np.all(whole[:, 0] >= whole[:, 1])
    for row in (0, 7, 1500, 2999):
        single = eigvals_batch(d[row : row + 1], e[row : row + 1])
        np.testing.assert_array_equal(whole[row], single[0])
    np.testing.assert_array_equal(whole[100:900], eigvals_batch(d[100:900], e[100:900]))


@pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
@pytest.mark.parametrize("entry", ("d0", "d1", "e0"))
def test_two_by_two_nonfinite_entry_is_convergence_failure(entry, value):
    # LAPACK takes a 2 x 2 with a NaN diagonal entry without complaint
    # (d = (NaN, 0), e = 1 came back as +-sqrt(2)); the row must raise.
    d, e = _ensemble_rows(2, 1e4, 50)
    if entry == "e0":
        e[7, 0] = value
    else:
        d[7, int(entry[1])] = value
    with pytest.raises(ConvergenceFailure):
        eigvals_batch(d, e)


def test_two_by_two_extreme_scales_do_not_overflow(monkeypatch):
    # d0 + d1, d0 - d1 and (d0 - d1)^2 overflow here, the eigenvalues do
    # not, so the closed form solves every row without the dense path.
    big = 1e308
    d = np.array([[big, -big], [1.7e308, 1.7e308], [-1.7e308, -1.7e308],
                  [big, big], [-big, big]])
    e = np.array([[big], [1e300], [1e300], [0.0], [1.0]])
    dense = _dense

    def dense_called(*args):
        raise AssertionError("a representable n = 2 row reached the dense path")

    monkeypatch.setattr(_core, "_dense", dense_called)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = eigvals_batch(d, e)
    assert np.all(np.isfinite(got))
    _assert_within_4_eps(got, d, e)
    # An eigenvalue beyond the float range is left to the dense path.
    monkeypatch.setattr(_core, "_dense", dense)
    d, e = np.array([[big, big]]), np.array([[big]])
    np.testing.assert_array_equal(eigvals_batch(d, e), _dense(d, e))


@pytest.mark.parametrize("n", (3, 8))
@pytest.mark.parametrize("where", ("diagonal", "off-diagonal"))
def test_infinite_entry_is_convergence_failure(n, where):
    # LAPACK returned NaN eigenvalues for an infinite off-diagonal entry
    # instead of failing.
    d, e = _ensemble_rows(n, 5.0, 20)
    (d if where == "diagonal" else e)[3, 1] = np.inf
    with pytest.raises(ConvergenceFailure):
        eigvals_batch(d, e)
