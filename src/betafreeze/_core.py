"""Batched eigenvalues of symmetric tridiagonal matrices.

Three paths, chosen by n and, for 3 <= n <= ``_FROZEN_MAX_N``, by a gate
that reads each row: every n = 2 row takes the closed form; a row that
passes the gate takes frozen Newton; every other row is solved dense.

* **Closed form (n = 2).**  The eigenvalues of [[d0, e0], [e0, d1]] are
  m +- r with m = d0/2 + d1/2 and r = hypot(d0/2 - d1/2, e0): the diagonal
  is halved first, so nothing overflows that the eigenvalues do not.  Each
  eigenvalue is within 4 eps max|lambda| of the exact one (four rounded
  operations and a hypot within one ulp, on terms no larger than
  max|lambda|; a subnormal diagonal adds its halving's rounding, about
  1e-323).  A row with a non-finite result (a non-finite entry, or an
  eigenvalue beyond the float range) goes to the dense path.
* **Frozen Newton.**  In the ensemble's matrix the off-diagonal is
  e_i ~ sqrt(k (n-i)) and the eigenvalues sit at sqrt(2k) z (z the Hermite
  zeros) plus O(1).  A row whose scale estimate s = mean_i e_i / sqrt(n-i)
  (about sqrt(k)) has s^2 >= ``_FROZEN_MIN_K``, and whose n is at most
  ``_FROZEN_MAX_N``, starts from the first-order Dumitriu-Edelman term
  x0 = sqrt(2) s z + A (d, e - s sqrt(n-i)), A = :func:`first_order_map`.
  Since A (0, sqrt(n-i)) = sqrt(2) z, this is A (d, e), which is within
  O(1/s) of every root.
  Only the top ceil(n/2) rows of A are applied: the rows for z_j and
  -z_j = z_{n+1-j} have equal halves on d and opposite halves on e, so
  with P_j and Q_j those two halves applied, x_j = P_j + Q_j and
  x_{n+1-j} = P_j - Q_j (equal to the full product to ~2e-15 relative).
  Newton steps on f(x) = det(T - xI), through the pivot recurrence
  q_i = d_i - x - e_{i-1}^2 / q_{i-1} with f'/f = sum q_i'/q_i, refine all
  n roots at once in O(n^2) work per matrix.
* **Dense.**  Every other row is densified into a (batch, n, n) stack and
  solved by the batched LAPACK symmetric eigensolver, in blocks of at most
  ``_DENSE_BUDGET`` = ``errors.MAX_N``^2 elements.  A row with a NaN or
  infinite entry raises ConvergenceFailure before LAPACK sees it: LAPACK
  does not reliably report one (a 2 x 2 with a NaN diagonal entry comes
  back finite, an infinite off-diagonal as NaN).

The gate reads e alone, before any copy; a batch in which no row passes it
goes to the dense path whole.

A Newton row is returned only with a certificate; otherwise it goes to the
dense path.  Let y be the roots before the last step, s = f/f' at y, the
result x = y - s, S = max|s| and D half the smallest gap x_j - x_{j+1}.
The row is accepted when

    D > (n+1) S + 3 eps max|x|   and
    r = (n-1) S^2 / (D - n S) + eps max|x| <= ``_NEWTON_TOL`` max|x|.

The last step shows both halves of the certificate:

* **Separation.**  f'/f(y) = sum_i 1/(y - lambda_i) is at most
  n / min_i |y - lambda_i| in size, so some eigenvalue lies within n |s_j|
  of y_j, and so within (n+1) S of x_j.  If D > (n+1) S these n discs are
  pairwise disjoint, so each holds exactly one of the n eigenvalues, and
  as x is descending (D > 0) the one near x_j is lambda_j.  Every other
  eigenvalue lambda_i is then at least 2D - (n+1) S > D from x_j.
* **Radius.**  Every other eigenvalue is then at least D - S from y_j, so
  f'/f(y_j) = 1/(y_j - lambda_j) + R with |R| <= (n-1)/(D - S), and solving
  1/s_j = 1/(y_j - lambda_j) + R gives x_j - lambda_j = R s_j^2 / (1 - R s_j),
  at most (n-1) S^2 / (D - n S); eps max|x| covers rounding x_j.  Accepted
  roots are thus within ``_NEWTON_TOL`` max|x| of the eigenvalues.  The
  step that finds a root also certifies it, where the radius (n+1) S from
  f'/f alone needed one more step.

Both halves take f'/f(y) as the pivot recurrence computed it.  The margin
3 eps max|x| covers the rest of the arithmetic, with u = eps/2 the unit
roundoff: s = fl(1 / (f'/f)) puts the disc radius n / |f'/f| within
n S (1 + u), which exceeds n S by less than u D <= u max|x| where the test
passes; x = fl(y - s) is within u max|x| of y - s; the computed gaps are
each within u of the exact gaps of x in relative terms, so D is off by at
most u max|x| (D <= max|x|); and (n+1) S + 3 eps max|x| is formed with a
relative error of at most 2u, so off by less than 2u D.  That is
5u = 2.5 eps times max|x| in all, whatever n, plus terms of order eps^2.

Each column stops stepping once S <= sqrt(tol max|x0| D0 / (n-1)) / 2,
with tol = ``_NEWTON_TOL`` and x0, D0 from the start, so that r is about
tol max|x| / 4 if the gaps hold; r is computed afresh at the end, so a
wrong guess only sends the row to the dense path.  Once at most half of a
block's working columns still step, they are gathered, and later steps
run on them alone.

Each row's result depends on that row alone: the closed form and the
Newton path use only elementwise array operations (no BLAS, whose
summation order may depend on the batch), and Newton stops each row on
its own test.

:func:`first_order_map` lives here, beside its per-block caller, so that
this module imports nothing from the package but ``errors``.
"""

from __future__ import annotations

import numpy as np

from .errors import MAX_N, ConvergenceFailure, InvalidConfig, cached_by_size

#: The eigensolver paths, for run reports (the benchmark manifest reads it).
BACKEND = "closed-form-n2+frozen-newton+dense-eigvalsh"

#: Cap on batch * n * n elements densified at once: one matrix at MAX_N.
_DENSE_BUDGET = MAX_N * MAX_N

#: Rows whose scale estimate s^2 (about k) is below this go to dense.  From
#: measurement: at k = 30 the rows of n = 2..256 were certified (all but 4
#: of 1351 gated rows at n = 256) and Newton cost no more than dense; below
#: it rows of larger n start to fail the certificate (3 % at k = 10,
#: n = 32; 77 % at n = 256) and pay both paths.
_FROZEN_MIN_K = 30.0

#: Largest n solved by Newton.  Measured up to n = 300, nearly every row
#: with k >= 30 was certified; the cap bounds the cached (n, 2n-1) first-order
#: map to 1 MB and keeps the certificate's factors of n far from rounding.
_FROZEN_MAX_N = 256

#: Certified relative accuracy of an accepted Newton row.
_NEWTON_TOL = 1e-13

#: Newton steps before an uncertified row is sent to the dense path.
#: Measured over n = 2..256, 3000 rows each: up to 8 at k = 30 (n = 256),
#: at most 4 at k >= 1e3 and 3 at k >= 1e4.
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

    d: (batch, n) diagonals, n >= 1; e: (batch, n-1) off-diagonals.  Raises
    InvalidConfig for other shapes, and ConvergenceFailure if a row that
    reaches the dense path has a non-finite entry or LAPACK fails to
    converge on it.
    """
    d = np.atleast_2d(np.asarray(d, dtype=float))
    e = np.atleast_2d(np.asarray(e, dtype=float))
    if d.ndim != 2 or d.shape[1] < 1 or e.shape != (d.shape[0], d.shape[1] - 1):
        raise InvalidConfig(
            f"need d of shape (batch, n >= 1) and e of shape (batch, n-1), "
            f"got {d.shape} and {e.shape}"
        )
    batch, n = d.shape
    if n == 2:
        return _closed_form(d, e)
    if not 3 <= n <= _FROZEN_MAX_N:
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


def _closed_form(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of 2 x 2 rows: m + r and m - r."""
    out = np.empty(d.shape)
    with np.errstate(all="ignore"):  # non-finite rows are redone below
        a = d[:, 0] * 0.5
        b = d[:, 1] * 0.5
        m = a + b
        r = np.hypot(np.subtract(a, b, out=a), e[:, 0], out=a)
        np.add(m, r, out=out[:, 0])
        np.subtract(m, r, out=out[:, 1])
    if not np.isfinite(out).all():
        bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
        out[bad] = _dense(d[bad], e[bad])
    return out


def _dense(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Descending eigenvalues by batched dense ``eigvalsh``."""
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ConvergenceFailure("eigensolver input has a NaN or inf entry")
    batch, n = d.shape
    out = np.empty((batch, n))
    step = max(1, _DENSE_BUDGET // (n * n))
    idx = np.arange(n)
    for start in range(0, batch, step):
        stop = min(start + step, batch)
        T = np.zeros((stop - start, n, n))
        T[:, idx, idx] = d[start:stop]
        T[:, idx[1:], idx[:-1]] = e[start:stop]  # eigvalsh reads the lower half
        try:
            out[start:stop] = np.linalg.eigvalsh(T)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return out[:, ::-1]


def _frozen_gate(e: np.ndarray) -> np.ndarray:
    """Mask of the rows whose scale estimate s has s^2 >= _FROZEN_MIN_K.

    s = mean_i e_i / sqrt(n-i), from the off-diagonal alone.  The sum runs
    entry by entry, so that a row's s does not depend on the batch.  A NaN
    entry gives a NaN s, which fails the gate.
    """
    n = e.shape[1] + 1
    sqrt_dof = np.sqrt(np.arange(n - 1, 0, -1, dtype=float))
    with np.errstate(all="ignore"):
        total = e[:, 0] / sqrt_dof[0]
        for i in range(1, n - 1):
            total += e[:, i] / sqrt_dof[i]
        return total >= (n - 1) * np.sqrt(_FROZEN_MIN_K)


@cached_by_size
def first_order_map(n: int) -> np.ndarray:
    """(n, 2n-1) matrix A of the first-order eigenvalue perturbation.

    Write the tridiagonal matrix as T = sqrt(k) T0 + G: T0 has zero diagonal
    and off-diagonal sqrt(n-i), i = 1 .. n-1, so the eigenvalues of
    sqrt(k) T0 are sqrt(2k) z; G has diagonal d and off-diagonal
    delta_i = e_i - sqrt(k (n-i)).  With V the eigenvectors of T0 in
    descending eigenvalue order, first-order perturbation theory gives

        X - sqrt(2k) z = A (d, delta) + O(1/sqrt(k)),
        A = [(V**2)^T | (2 V_i V_{i+1})^T]

    (Dumitriu-Edelman, large-beta asymptotics).  Since Var d_i = 1 and
    Var delta_i -> 1/4, A diag(1, 1/4) A^T is the limit covariance S^-1.
    Also A (0, sqrt(n-i)) = sqrt(2) z: to first order, scaling T0 scales
    its eigenvalues, so A (d, e) is the first-order eigenvalue estimate
    whatever the scale k.  Results are cached by n and read-only.
    """
    t0 = np.diag(np.sqrt(np.arange(n - 1, 0, -1, dtype=float)), 1)
    _, vecs = np.linalg.eigh(t0 + t0.T)
    v = vecs[:, ::-1]
    a = np.hstack([(v * v).T, (2.0 * v[:-1] * v[1:]).T])
    a.setflags(write=False)
    return a


def _frozen_rows(
    d: np.ndarray, e: np.ndarray, rows: np.ndarray | range, out: np.ndarray
) -> np.ndarray:
    """Solve the given rows (ascending indices) by certified Newton.

    Writes every solved row into ``out`` and returns the mask, over the
    whole batch, of the rows whose roots are certified; the caller must
    overwrite the others.
    """
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
    x, tmp, p, step = (np.empty((n, m)) for _ in range(4))
    _warm_start(g, a, x, tmp, p)
    dt, e2 = g[:n], g[n:]
    e2 *= e2  # g's off-diagonal is not read again

    # Per column: max|x| (bounded below by x[0] and -x[-1]), the smallest
    # gap, the size S of the step just taken and of the last step that
    # moved the column, and a flag.
    size, gap, smax, last = np.empty((4, m))
    flags = np.empty(m, dtype=bool)
    _size_and_gap(x, tmp, size, gap)
    # The stop threshold sqrt(tol max|x0| D0 / (n-1)) / 2 (module
    # docstring); a start that is not descending gets 0 and runs every step.
    thr = np.multiply(size, gap, out=gap)
    thr *= _NEWTON_TOL / (8 * (n - 1))
    np.fmax(thr, 0.0, out=thr)
    np.sqrt(thr, out=thr)

    # Once at most half of the working columns still step, they are
    # gathered and the rest written back; cols maps them into the block.
    # Until a working column stops, the updates need no mask.
    cols = None
    xw, dw, ew, tw, pw, sw, lw, thw = x, dt, e2, tmp, p, step, last, thr
    live, go, sm, moving = np.ones(m, dtype=bool), flags, smax, True
    for _ in range(_NEWTON_MAX_STEPS):
        _log_derivative(xw, dw, ew, tw, pw, sw)
        np.divide(1.0, sw, out=sw)
        np.subtract(xw, sw, out=xw, where=moving)
        np.max(np.abs(sw, out=tw), axis=0, out=sm)
        np.copyto(lw, sm, where=moving)
        np.greater(sm, thw, out=go)  # a NaN step stops too: x is NaN
        live &= go
        width, left = live.shape[0], np.count_nonzero(live)
        if not left:
            break
        moving = live if left < width else True
        if 2 * left <= width:
            keep = np.flatnonzero(live)
            if cols is None:
                cols = keep
            else:
                x[:, cols], last[cols] = xw, lw
                cols = cols[keep]
            xw, dw, ew = xw[:, keep], dw[:, keep], ew[:, keep]
            lw, thw = lw[keep], thw[keep]
            live, go, sm = live[:left], go[:left], sm[:left]
            live[:] = True
            moving = True
            tw, pw, sw = (b.reshape(-1)[: n * left].reshape(n, left)
                          for b in (tmp, p, step))
    if cols is not None:
        x[:, cols], last[cols] = xw, lw
    return x, _certified(x, last, tmp)


def _certified(x, step, w):
    """Accept mask of the columns of x (n, m) whose last Newton step had
    size S = step (m,): D > (n+1) S + 3 eps max|x| and the radius
    r = (n-1) S^2 / (D - n S) + eps max|x| <= _NEWTON_TOL max|x| (module
    docstring).  The separation fails where x is not descending or S is
    NaN; where it holds, D > n S and r is finite.  Overwrites step; w is
    an (n, m) work array.
    """
    n = x.shape[0]
    size, half_gap, r = np.empty((3, x.shape[1]))
    _size_and_gap(x, w, size, half_gap)
    half_gap *= 0.5
    np.multiply(size, 3 * _EPS, out=r)
    r += (n + 1) * step
    ok = half_gap > r
    np.multiply(step, -n, out=r)
    r += half_gap
    step *= step
    step *= n - 1
    np.divide(step, r, out=r)
    r += np.multiply(size, _EPS, out=step)
    size *= _NEWTON_TOL
    ok &= r <= size
    return ok


def _warm_start(g, a, x, w, q):
    """The first-order start A (d, e) into x, from the top half of A.

    The eigenvector of T0 for -z_j is the one for z_j with alternating
    signs, so the rows of A for z_j and z_{n+1-j} = -z_j have equal V^2
    halves and opposite 2 V_i V_{i+1} halves.  With P_j and Q_j the two
    halves applied to d and e, x_j = P_j + Q_j and x_{n+1-j} = P_j - Q_j
    for j <= ceil(n/2).  w and q are work arrays shaped like x.
    """
    n = a.shape[0]
    h = (n + 1) // 2
    p, q, t = x[:h], q[:h], w[:h]
    for acc, part in ((p, range(n)), (q, range(n, 2 * n - 1))):
        np.multiply(a[:h, part[0] : part[0] + 1], g[part[0]], out=acc)
        for i in part[1:]:
            np.multiply(a[:h, i : i + 1], g[i], out=t)
            acc += t
    np.subtract(p[: n - h], q[: n - h], out=x[h:][::-1])
    p += q


def _size_and_gap(x, w, size, gap):
    """max(x[0], -x[-1]) and the smallest gap down each column of x."""
    np.negative(x[-1], out=size)
    np.maximum(size, x[0], out=size)
    np.subtract(x[:-1], x[1:], out=w[:-1])
    np.min(w[:-1], axis=0, out=gap)


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
