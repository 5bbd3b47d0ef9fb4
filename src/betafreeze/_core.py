"""Batched eigenvalues of symmetric tridiagonal matrices.

Densifies each tridiagonal matrix into a (batch, n, n) stack and calls the
batched LAPACK symmetric eigensolver.  Memory is bounded by solving the
batch in blocks of at most ``_DENSE_BUDGET`` elements.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, InvalidConfig

#: The eigensolver path that runs.  There is one; the name stays so that run
#: reports (the benchmark manifest reads it) can say which path produced them.
BACKEND = "dense-eigvalsh"

#: Cap on batch * n * n elements densified at once (~32 MB of float64).
_DENSE_BUDGET = 4_000_000


def eigvals_batch(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for a batch of symmetric tridiagonal matrices.

    d: (batch, n) diagonals; e: (batch, n-1) off-diagonals.  Raises
    ConvergenceFailure if LAPACK fails to converge.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float))
    e = np.atleast_2d(np.asarray(e, dtype=float))
    batch, n = d.shape
    if n >= 2 and e.shape[1] != n - 1:
        raise InvalidConfig("off-diagonal must have n-1 columns")
    out = np.empty((batch, n))
    step = max(1, _DENSE_BUDGET // (n * n))
    idx = np.arange(n)
    for start in range(0, batch, step):
        stop = min(start + step, batch)
        T = np.zeros((stop - start, n, n))
        T[:, idx, idx] = d[start:stop]
        if n > 1:
            T[:, idx[:-1], idx[:-1] + 1] = e[start:stop]
            T[:, idx[:-1] + 1, idx[:-1]] = e[start:stop]
        try:
            out[start:stop] = np.linalg.eigvalsh(T)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return out[:, ::-1]


__all__ = ["BACKEND", "eigvals_batch"]
