"""Batched tridiagonal eigensolver: adversarial matrices, agreement with
SciPy, chunking, convergence-failure surfacing."""

import numpy as np
import pytest
import scipy.linalg

from betafreeze._core import _DENSE_BUDGET, eigvals_batch
from betafreeze.errors import ConvergenceFailure, InvalidConfig


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
