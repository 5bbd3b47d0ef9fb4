"""Batched eigenvalues of symmetric tridiagonal matrices.

Two paths, chosen per row from the row itself:

* **Frozen Newton.**  In the ensemble's matrix the off-diagonal is
  e_i ~ sqrt(k (n-i)) and the eigenvalues sit at sqrt(2k) z (z the Hermite
  zeros) plus O(1).  A row whose scale estimate s = mean_i e_i / sqrt(n-i)
  (about sqrt(k)) has s^2 >= ``_FROZEN_MIN_K``, and whose n is at most
  ``_FROZEN_MAX_N``, starts from the first-order Dumitriu-Edelman term
  x0 = sqrt(2) s z + A (d, e - s sqrt(n-i)), A =
  :func:`betafreeze.sampler.first_order_map`.  Since A (0, sqrt(n-i)) =
  sqrt(2) z, this is A (d, e), which is within O(1/s) of every root.
  Newton steps on f(x) = det(T - xI), through the pivot recurrence
  q_i = d_i - x - e_{i-1}^2 / q_{i-1} with f'/f = sum q_i'/q_i, refine all
  n roots at once in O(n^2) work per matrix.
* **Dense.**  Every other row is densified into a (batch, n, n) stack and
  solved by the batched LAPACK symmetric eigensolver, in blocks of at most
  ``_DENSE_BUDGET`` elements.

The gate reads e alone, before any copy; a batch in which no row passes it
goes to the dense path whole.

A Newton row is returned only with a certificate; otherwise it goes to the
dense path.  With s_j = f/f' at the last Newton point, f'/f = sum_i
1/(x - lambda_i) puts an eigenvalue within n|s_j| of that point, hence
within r = (n+1) max_j |s_j| + eps max|x| of the updated root x_j (the last
term covers rounding x_j).  The row is accepted when every value is finite
(a zero pivot before the last makes f'/f NaN), r <= ``_NEWTON_TOL``
max|x|, the Sturm counts at the n-1 midpoints between neighbouring roots
show exactly one eigenvalue in each bracket with no zero pivot, and every
disc of radius r lies inside its bracket, so that the eigenvalue near x_j
is the j-th.  Up to rounding in the recurrences, accepted roots are then
within ``_NEWTON_TOL`` max|x| of the eigenvalues.

Each row's result depends on that row alone: the Newton path uses only
elementwise array operations (no BLAS, whose summation order may depend on
the batch) and stops each row on its own test.
"""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, InvalidConfig

#: The eigensolver paths, for run reports (the benchmark manifest reads it).
BACKEND = "frozen-newton+dense-eigvalsh"

#: Cap on batch * n * n elements densified at once (~32 MB of float64).
_DENSE_BUDGET = 4_000_000

#: Rows whose scale estimate s^2 (about k) is below this go to dense.  From
#: measurement: at k = 30 every row of n = 2..256 was certified and Newton
#: cost no more than dense; below it rows of larger n start to fail the
#: certificate (3 % at k = 10, n = 32; 77 % at n = 256) and pay both paths.
_FROZEN_MIN_K = 30.0

#: Largest n solved by Newton.  Measured up to n = 300, every row with
#: k >= 30 was certified; the cap bounds the cached (n, 2n-1) first-order
#: map to 1 MB and keeps the certificate's (n+1) factor far from rounding.
_FROZEN_MAX_N = 256

#: Certified relative accuracy of an accepted Newton row.
_NEWTON_TOL = 1e-13

#: Newton steps before an uncertified row is sent to the dense path.
#: Measured over n = 2..64: up to 8 at k = 30, at most 4 at k >= 1e3.
_NEWTON_MAX_STEPS = 8

#: Shifts * matrices per Newton block, the elements each NumPy call of the
#: block works on between taking and releasing the GIL.  Sized for two
#: worker threads: with 16384 (~10 us per call) they spent much of their
#: time waiting on each other.  Measured with two concurrent solves on 2
#: cores (k = 1e4, ms per pair, 16384 / 32768 / 65536): n = 32, 4096 rows,
#: 166 / 123 / 125; n = 8, 16384 rows, 42 / 34 / 33; n = 2, 65536 rows,
#: 19 / 18 / 21.  The result does not depend on it (columns are
#: independent).
_BLOCK_ELEMENTS = 32768

_EPS = np.finfo(float).eps


def eigvals_batch(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Descending eigenvalues for a batch of symmetric tridiagonal matrices.

    d: (batch, n) diagonals; e: (batch, n-1) off-diagonals.  Raises
    ConvergenceFailure if LAPACK fails to converge on a row that the Newton
    path did not certify.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float))
    e = np.atleast_2d(np.asarray(e, dtype=float))
    batch, n = d.shape
    if n >= 2 and e.shape[1] != n - 1:
        raise InvalidConfig("off-diagonal must have n-1 columns")
    if not 2 <= n <= _FROZEN_MAX_N:
        return _dense(d, e)
    frozen = _frozen_gate(e)
    if not frozen.any():
        return _dense(d, e)
    out = np.empty((batch, n))
    # A range costs no memory where every row passed the gate.
    rows = range(batch) if frozen.all() else np.flatnonzero(frozen)
    dense = np.flatnonzero(~_frozen_rows(d, e, rows, out))
    if dense.size:
        out[dense] = _dense(d.take(dense, axis=0), e.take(dense, axis=0))
    return out


def _dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Descending eigenvalues by batched dense ``eigvalsh``."""
    batch, n = d.shape
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


def _frozen_gate(e: np.ndarray) -> np.ndarray:
    """Mask of the rows whose scale estimate s has s^2 >= _FROZEN_MIN_K.

    s = mean_i e_i / sqrt(n-i), from the off-diagonal alone; the sum runs
    column by column so that each row's s does not depend on the batch.  A
    NaN entry gives a NaN s, which fails the gate.
    """
    n = e.shape[1] + 1
    sqrt_dof = np.sqrt(np.arange(n - 1, 0, -1, dtype=float))
    with np.errstate(all="ignore"):
        total = e[:, 0] / sqrt_dof[0]
        for i in range(1, n - 1):
            total += e[:, i] / sqrt_dof[i]
        return total >= (n - 1) * np.sqrt(_FROZEN_MIN_K)


def _frozen_rows(
    d: np.ndarray, e: np.ndarray, rows: np.ndarray | range, out: np.ndarray
) -> np.ndarray:
    """Solve the given rows (ascending indices) by certified Newton.

    Writes every solved row into ``out`` and returns the mask, over the
    whole batch, of the rows whose roots are certified; the caller must
    overwrite the others.
    """
    from .sampler import first_order_map  # sampler imports this module

    n = d.shape[1]
    a = first_order_map(n)
    accepted = np.zeros(d.shape[0], dtype=bool)
    block = max(256, _BLOCK_ELEMENTS // n)
    with np.errstate(all="ignore"):
        for start in range(0, len(rows), block):
            r = rows[start : start + block]
            m = len(r)
            if r[-1] - r[0] == m - 1:
                # A run of consecutive rows (the whole block when every row
                # passed the gate): numpy copies a slice several times
                # faster than an index array at small n.
                r = slice(r[0], r[-1] + 1)
            g = np.empty((2 * n - 1, m))
            g[:n] = d[r].T
            g[n:] = e[r].T
            x, accepted[r] = _certified_newton(g, a)
            out[r] = x.T
    return accepted


def _certified_newton(g, a):
    """(roots, accept mask) for the columns of one block.

    g: (2n-1, m), the diagonal then the off-diagonal of one matrix per
    column; a: the first-order map.  Roots come back as (n, m), descending
    down each column.
    """
    n, m = a.shape[0], g.shape[1]
    x = a[:, :1] * g[0]
    tmp = np.empty_like(x)
    for i in range(1, 2 * n - 1):
        np.multiply(a[:, i : i + 1], g[i], out=tmp)
        x += tmp
    dt, e2 = g[:n], g[n:]
    e2 *= e2  # g's off-diagonal is not read again

    # The radius bounds each root's error: (n+1)|step| from f'/f, plus the
    # rounding of x - step.  A column stops once radius <= tol max|x|, after
    # which its roots no longer move.  x[0] and -x[-1] bound max|x| from
    # below, so this never accepts more than the full test would.  A column
    # that never stops keeps radius = inf, which fails the disc check.
    radius = np.full(m, np.inf)
    live = np.ones(m, dtype=bool)
    p, step = np.empty_like(x), np.empty_like(x)
    for _ in range(_NEWTON_MAX_STEPS):
        _log_derivative(x, dt, e2, tmp, p, step)
        np.divide(1.0, step, out=step)
        np.subtract(x, step, out=x, where=live)
        size = np.maximum(x[0], -x[-1])
        r = np.max(np.abs(step, out=tmp), axis=0)
        r *= n + 1
        r += _EPS * size
        conv = live & (r <= _NEWTON_TOL * size)
        radius[conv] = r[conv]
        live &= ~conv
        if not live.any():
            break
    del tmp, p, step  # freed for the arrays of the bracket check
    return x, _brackets_hold(x, radius, dt, e2)


def _brackets_hold(x, radius, dt, e2):
    """Whether each column's roots x, within radius, are its eigenvalues.

    True where the Sturm counts at the midpoints between neighbouring roots
    show exactly one eigenvalue in each bracket, no pivot is zero or
    non-finite, and every root's disc lies inside its bracket.
    """
    n = x.shape[0]
    mid = x[:-1] - x[1:]  # the gaps, until halved below
    ok = 2.0 * radius < np.min(mid, axis=0)
    mid *= 0.5
    mid += x[1:]
    q = dt[0] - mid
    neg = (q < 0).astype(np.int16)  # counts up to n - 1 <= 255
    # Sum of e^2/q and, last, of 1/q: finite only if no pivot is 0 or NaN.
    pivots = np.zeros_like(mid)
    t = np.empty_like(mid)
    below = np.empty(mid.shape, dtype=bool)
    for i in range(1, n):
        np.divide(e2[i - 1], q, out=t)
        pivots += t
        np.subtract(dt[i], mid, out=q)
        q -= t
        np.less(q, 0.0, out=below)
        neg += below
    np.divide(1.0, q, out=t)
    pivots += t
    ok &= np.all(np.isfinite(pivots), axis=0)
    return ok & np.all(neg == np.arange(n - 1, 0, -1)[:, None], axis=0)


def _log_derivative(x, dt, e2, w, p, acc):
    """f'(x)/f(x) for f = det(T - xI), at every entry of x (n, m), into acc.

    Runs the pivot recurrence q_i = d_i - x - e_{i-1}^2 / q_{i-1} and sums
    p_i = q_i'/q_i, where q_i' = e_{i-1}^2 / q_{i-1} p_{i-1} - 1; every
    update is in place, in the work arrays w and p (shaped like x).  A zero
    pivot before the last makes the sum NaN, which no convergence test
    passes; a zero last pivot means f(x) = 0, so x is a root and the Newton
    step 1/sum is 0.
    """
    np.subtract(x, dt[0], out=w)  # -q_0
    np.divide(-1.0, w, out=w)  # 1/q_0
    np.negative(w, out=p)  # q_0' / q_0, with q_0' = -1
    np.copyto(acc, p)
    for i in range(1, dt.shape[0]):
        w *= e2[i - 1]  # t = e_{i-1}^2 / q_{i-1}
        p *= w
        p -= 1.0  # q_i' = t p_{i-1} - 1
        w -= dt[i]
        w += x  # -q_i = t - d_i + x
        np.divide(-1.0, w, out=w)  # 1/q_i
        p *= w
        acc += p
