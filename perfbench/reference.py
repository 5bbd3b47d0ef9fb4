"""References computed apart from betafreeze, and the checks built on them.

Nothing here imports betafreeze.  Every check takes the program's parsed
outputs and returns a list of failure messages (empty when the outputs
pass).  Statistical checks are exact binomial tests whose levels share a
family-wise budget of ``FAMILY_ALPHA`` per call, so a correct program fails
a run's checks with probability below 1e-7.

* N = 2 tails: with u = (l1 + l2)/sqrt(2) ~ N(0, 1) and
  v = (l1 - l2)/sqrt(2) ~ chi_{2k+1} independent, s = sqrt(2k) and
  w = v - s, the scaled l2 event is (u^2 + w^2)/s^2 > eps^2 and the unscaled
  sup event is (|u| + |w|)/sqrt(2) > eps.  Each probability is one
  integral over u of a chi-distribution interval probability.
* Clopper-Pearson endpoints come from scipy.special.betaincinv/betainccinv.
* The limit covariance S^-1 is built from numpy's Hermite roots; its
  spectrum is {1, 1/2, ..., 1/N}.
* Sweep columns are recomputed from the formulas of the explicit bound,
  the log threshold and the Dette-Imhof baseline.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

#: Probability that a correct program fails one call of a check, at most.
FAMILY_ALPHA = 1e-7

#: Largest |eigenvalue of Cov(Y) - 1/j| allowed for one 8192-trial clt-n32
#: operation.  The measured per-eigenvalue standard deviation is 2.2e-5 and
#: the finite-k bias is below 1e-5, so this is more than ten deviations.
CLT_EIG_TOL_OP = 2.5e-4

#: The same for the mean of the covariance estimates of all operations of a
#: run (at least 50 operations: standard deviation <= 3.2e-6).
CLT_EIG_TOL_POOLED = 5e-5

#: Largest difference allowed between betafreeze's Hermite zeros and
#: numpy.polynomial.hermite.hermroots (measured: 2e-14 at N = 32).
ZEROS_TOL = 1e-12

#: Relative tolerance for values the program and the reference compute by
#: the same formula in a different order.
FORMULA_RTOL = 1e-12

#: Relative tolerance for Clopper-Pearson endpoints (iterative inversions).
CI_RTOL = 1e-9


def _chi_between(lo: float, hi: float, df: float) -> float:
    """P(lo < chi_df <= hi) for 0 <= lo <= sqrt(df - 1).

    With lo below the bulk, the CDF at lo is at most about 1/2, so the
    difference of the two CDF values loses no digits.
    """
    a = df / 2.0
    return float(special.gammainc(a, hi * hi / 2.0) - special.gammainc(a, lo * lo / 2.0))


def _phi(u: float) -> float:
    return math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)


def exact_tail_n2(k: float, eps: float, norm: str) -> float:
    """Exact P(event) at N = 2 for the 'l2' (scaled) or 'sup' (unscaled) norm."""
    s = math.sqrt(2.0 * k)
    df = 2.0 * k + 1.0
    if norm == "l2":
        reach = eps * s

        def inside(u):
            r = math.sqrt(max(reach * reach - u * u, 0.0))
            return _phi(u) * _chi_between(s - r, s + r, df)
    elif norm == "sup":
        reach = math.sqrt(2.0) * eps

        def inside(u):
            r = max(reach - u, 0.0)
            return _phi(u) * _chi_between(s - r, s + r, df)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    from scipy import integrate  # only the checks need it; keeps it out of peak RSS

    half, _ = integrate.quad(
        inside, 0.0, reach,
        epsabs=1e-14, epsrel=1e-12, limit=400,
    )
    return max(0.0, 1.0 - 2.0 * half)


def clopper_pearson(hits: int, trials: int, confidence: float) -> tuple[float, float]:
    """Exact two-sided binomial interval from the incomplete-beta inverses."""
    alpha = 1.0 - confidence
    lo = 0.0 if hits == 0 else float(
        special.betaincinv(hits, trials - hits + 1, alpha / 2.0))
    hi = 1.0 if hits == trials else float(
        special.betainccinv(hits + 1, trials - hits, alpha / 2.0))
    return lo, hi


def binomial_pvalue(hits: int, trials: int, p: float) -> float:
    """Two-sided exact binomial p-value of ``hits`` under success rate ``p``."""
    below = float(special.bdtr(hits, trials, p))
    above = 1.0 if hits == 0 else float(special.bdtrc(hits - 1, trials, p))
    return min(1.0, 2.0 * min(below, above))


def log_threshold(k: float, c: float) -> float:
    return c * math.sqrt(math.log(k) / k)


def explicit_bound(N: int, k: float, eps: float) -> dict:
    """The explicit bound's columns, from the formulas in the paper."""
    quartic = 32.0 / 3.0 * k * N**3 * eps**4
    stirling = (N - 1) / (26.0 * k)
    log_e = stirling - quartic
    x = k * eps * eps
    log_gauss = (log_e + 0.5 + 0.5 * math.log(N) - math.log(2.0)
                 + math.log1p(2.0 * x) - x)
    total = quartic - stirling + math.exp(log_gauss)
    return {
        "prop_term_quartic": quartic,
        "prop_term_stirling": stirling,
        "prop_e_factor": math.exp(log_e),
        "prop_term_gaussian": math.exp(log_gauss),
        "prop_total": total,
        "prop_total_clamped": min(1.0, max(0.0, total)),
        "condition_ok": (math.sqrt((1.0 + math.log(N)) / (2.0 * k)) <= eps
                         <= 0.5 / math.sqrt(N)),
    }


def log_threshold_bound(N: int, k: float, c: float) -> float:
    lnk = math.log(k)
    first = 32.0 / 3.0 * k * N**3 * log_threshold(k, c) ** 4
    x = c * c * lnk
    return first + math.exp(0.5 + math.log(N) - math.log(2.0) + math.log1p(2.0 * x) - x)


def dette_imhof(N: int, eps_unscaled: float) -> float:
    return 4.0 * N * math.exp(-eps_unscaled**2 / 18.0)


def limit_covariance(N: int) -> np.ndarray:
    """S^-1, with S = I + L and L the Laplacian weighted by 1/(z_i - z_j)^2."""
    z = hermite_zeros(N)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / (diff * diff)
    np.fill_diagonal(w, 0.0)
    s = np.diag(1.0 + w.sum(axis=1)) - w
    return np.linalg.inv(s)


def hermite_zeros(N: int) -> np.ndarray:
    """Zeros of the physicists' Hermite polynomial H_N, descending."""
    coef = np.zeros(N + 1)
    coef[N] = 1.0
    return np.sort(np.polynomial.hermite.hermroots(coef))[::-1]


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b)) or a == b


class _Tests:
    """Collects binomial tests and runs them at a shared family-wise level."""

    def __init__(self):
        self.items: list[tuple[str, int, int, float]] = []

    def add(self, label: str, hits: int, trials: int, p: float) -> None:
        self.items.append((label, hits, trials, p))

    def failures(self) -> list[str]:
        if not self.items:
            return []
        level = FAMILY_ALPHA / len(self.items)
        out = []
        for label, hits, trials, p in self.items:
            pv = binomial_pvalue(hits, trials, p)
            if pv < level:
                out.append(f"{label}: {hits}/{trials} hits against exact p={p:.6g}"
                           f" (p-value {pv:.3g} < {level:.3g})")
        return out


# ----------------------------------------------------------------------
# tail-n2
# ----------------------------------------------------------------------

TAIL_COLUMNS = ("n,k,norm,eps,trials,seed,workers,confidence,"
                "hits,p_hat,ci_low,ci_high")


def check_tail(ops: list[dict], bound_total: float) -> list[str]:
    """Check ``betafreeze tail`` outputs of one run.

    ``ops`` holds one dict per operation: the inputs (norm, k, eps, trials,
    seed, workers, confidence) and ``text``, the CSV the program wrote.
    ``bound_total`` is betafreeze's explicit bound at the l2 threshold, which
    must dominate the exact l2 tail.
    """
    fails: list[str] = []
    tests = _Tests()
    pooled: dict[tuple, list[int]] = {}
    exact: dict[tuple, float] = {}
    for i, op in enumerate(ops):
        lines = op["text"].splitlines()
        if len(lines) != 2 or lines[0] != TAIL_COLUMNS:
            fails.append(f"op {i}: unexpected output {op['text']!r}")
            continue
        f = lines[1].split(",")
        n, k, norm, eps = int(f[0]), float(f[1]), f[2], float(f[3])
        trials, seed, workers = int(f[4]), int(f[5]), int(f[6])
        conf, hits = float(f[7]), int(f[8])
        p_hat, lo, hi = float(f[9]), float(f[10]), float(f[11])
        want = (2, op["k"], op["norm"], op["trials"], op["seed"], op["workers"],
                op["confidence"])
        if (n, k, norm, trials, seed, workers, conf) != want:
            fails.append(f"op {i}: echoed inputs {f[:8]} differ from {want}")
            continue
        if not _close(eps, op["eps"], 1e-15):
            fails.append(f"op {i}: eps {eps!r} is not {op['eps']!r}")
        if not 0 <= hits <= trials or p_hat != hits / trials:
            fails.append(f"op {i}: hits {hits} and p_hat {p_hat!r} disagree")
            continue
        ref_lo, ref_hi = clopper_pearson(hits, trials, conf)
        if not (_close(lo, ref_lo, CI_RTOL) and _close(hi, ref_hi, CI_RTOL)):
            fails.append(f"op {i}: interval [{lo!r}, {hi!r}] is not "
                         f"[{ref_lo!r}, {ref_hi!r}]")
        key = (k, norm, op["eps"])
        if key not in exact:
            exact[key] = exact_tail_n2(k, op["eps"], norm)
        tests.add(f"op {i} ({norm})", hits, trials, exact[key])
        acc = pooled.setdefault(key, [0, 0])
        acc[0] += hits
        acc[1] += trials
    for (k, norm, eps), (hits, trials) in pooled.items():
        tests.add(f"pooled {norm} eps={eps:.6g}", hits, trials, exact[(k, norm, eps)])
        if norm == "l2" and not bound_total >= exact[(k, norm, eps)]:
            fails.append(f"explicit bound {bound_total!r} is below the exact "
                         f"l2 tail {exact[(k, norm, eps)]!r}")
    return fails + tests.failures()


# ----------------------------------------------------------------------
# clt-n32
# ----------------------------------------------------------------------

def check_clt(reports: list[dict], zeros: np.ndarray) -> list[str]:
    """Check ``clt_covariance_test`` reports of one run.

    Each report dict has n, k, trials, cov and cov_rel_err.  ``zeros`` is
    betafreeze's compute_zeros(n).zeros, checked against numpy's roots.
    """
    fails: list[str] = []
    if not reports:
        return ["no clt reports"]
    n = reports[0]["n"]
    ref_zeros = hermite_zeros(n)
    gap = float(np.max(np.abs(np.sort(zeros)[::-1] - ref_zeros)))
    if not gap <= ZEROS_TOL:
        fails.append(f"compute_zeros({n}) differs from hermroots by {gap:.3g}")
    sigma = limit_covariance(n)
    target = 1.0 / np.arange(1, n + 1)
    covs = []
    for i, r in enumerate(reports):
        cov = np.asarray(r["cov"], dtype=float)
        if cov.shape != (n, n) or not np.all(np.isfinite(cov)):
            fails.append(f"op {i}: covariance has shape {cov.shape} or is not finite")
            continue
        asym = float(np.max(np.abs(cov - cov.T)))
        if asym > 1e-12:
            fails.append(f"op {i}: covariance is not symmetric ({asym:.3g})")
        dev = float(np.max(np.abs(np.linalg.eigvalsh(cov)[::-1] - target)))
        if not dev <= CLT_EIG_TOL_OP:
            fails.append(f"op {i}: covariance eigenvalues are {dev:.3g} from "
                         f"1/j (tolerance {CLT_EIG_TOL_OP:g})")
        err = float(np.linalg.norm(cov - sigma) / np.linalg.norm(sigma))
        if not _close(err, r["cov_rel_err"], 1e-6):
            fails.append(f"op {i}: cov_rel_err {r['cov_rel_err']!r} is not {err!r}")
        covs.append(cov)
    if covs:
        dev = float(np.max(np.abs(np.linalg.eigvalsh(np.mean(covs, axis=0))[::-1]
                                  - target)))
        if not dev <= CLT_EIG_TOL_POOLED:
            fails.append(f"mean covariance eigenvalues are {dev:.3g} from 1/j "
                         f"(tolerance {CLT_EIG_TOL_POOLED:g})")
    return fails


# ----------------------------------------------------------------------
# sweep-grid
# ----------------------------------------------------------------------

SWEEP_COLUMNS = (
    "N,k,c,eps,trials,hits,p_hat,ci_low,ci_high,"
    "prop_term_quartic,prop_term_stirling,prop_e_factor,prop_term_gaussian,"
    "prop_total,prop_total_clamped,condition_ok,cor_bound,"
    "di_eps_unscaled,di_bound,tighter"
)

_FORMULA_COLUMNS = ("eps", "prop_term_quartic", "prop_term_stirling",
                    "prop_e_factor", "prop_term_gaussian", "prop_total",
                    "prop_total_clamped", "cor_bound", "di_eps_unscaled",
                    "di_bound")


def parse_sweep(text: str) -> tuple[str, list[dict]]:
    """(parameter comment line, rows as dicts) of a sweep CSV."""
    lines = text.splitlines()
    if len(lines) < 3 or lines[0] != "# betafreeze sweep" or lines[2] != SWEEP_COLUMNS:
        raise ValueError("not a sweep CSV")
    names = SWEEP_COLUMNS.split(",")
    rows = []
    for line in lines[3:]:
        f = line.split(",")
        if len(f) != len(names):
            raise ValueError(f"row has {len(f)} fields: {line!r}")
        row = dict(zip(names, f))
        for key in names:
            if key in ("N", "trials", "hits"):
                row[key] = int(row[key])
            elif key == "condition_ok":
                if row[key] not in ("true", "false"):
                    raise ValueError(f"condition_ok is {row[key]!r}")
                row[key] = row[key] == "true"
            elif key != "tighter":
                row[key] = float(row[key])
        rows.append(row)
    return lines[1], rows


def check_sweep(ops: list[dict]) -> list[str]:
    """Check ``betafreeze sweep`` outputs of one run.

    Each op dict has the grid (n, k, c lists), trials, seed, workers,
    confidence and ``text``, the CSV the program wrote.
    """
    fails: list[str] = []
    tests = _Tests()
    pooled: dict[tuple, list[int]] = {}
    exact: dict[tuple, float] = {}
    for i, op in enumerate(ops):
        try:
            params, rows = parse_sweep(op["text"])
        except ValueError as exc:
            fails.append(f"op {i}: {exc}")
            continue
        want = (f"# trials={op['trials']} seed={op['seed']} "
                f"workers={op['workers']} confidence={op['confidence']:.17g}")
        if params != want:
            fails.append(f"op {i}: parameter line {params!r} is not {want!r}")
        grid = [(n, k, c) for n in op["n"] for k in op["k"] for c in op["c"]]
        if [(r["N"], r["k"], r["c"]) for r in rows] != grid:
            fails.append(f"op {i}: rows do not follow the grid")
            continue
        for j, r in enumerate(rows):
            fails.extend(f"op {i} row {j}: {m}" for m in _check_sweep_row(r, op))
            tag = (r["N"], r["k"], r["c"])
            if not 0 <= r["hits"] <= r["trials"]:
                continue
            if r["N"] == 2:
                if tag not in exact:
                    exact[tag] = exact_tail_n2(r["k"], r["eps"], "l2")
                tests.add(f"op {i} row {j} (N=2)", r["hits"], r["trials"], exact[tag])
            acc = pooled.setdefault(tag, [0, 0, r["condition_ok"], r["prop_total"]])
            acc[0] += r["hits"]
            acc[1] += r["trials"]
    level = FAMILY_ALPHA / max(1, len(pooled))
    for (n, k, c), (hits, trials, ok, bound) in pooled.items():
        if n == 2:
            tests.add(f"pooled N=2 k={k:g} c={c:g}", hits, trials, exact[(n, k, c)])
        # The explicit bound is a theorem inside its window: it may not sit
        # below the lower confidence limit of the pooled estimate.
        if ok and hits > 0:
            lower = float(special.betaincinv(hits, trials - hits + 1, level))
            if bound < lower:
                fails.append(f"N={n} k={k:g} c={c:g}: explicit bound {bound:.6g} "
                             f"is below the estimate's lower limit {lower:.6g}")
    return fails + tests.failures()


def _check_sweep_row(r: dict, op: dict) -> list[str]:
    fails = []
    if r["trials"] != op["trials"]:
        fails.append(f"trials {r['trials']} is not {op['trials']}")
    if not 0 <= r["hits"] <= r["trials"] or r["p_hat"] != r["hits"] / r["trials"]:
        fails.append(f"hits {r['hits']} and p_hat {r['p_hat']!r} disagree")
        return fails
    lo, hi = clopper_pearson(r["hits"], r["trials"], op["confidence"])
    if not (_close(r["ci_low"], lo, CI_RTOL) and _close(r["ci_high"], hi, CI_RTOL)):
        fails.append(f"interval [{r['ci_low']!r}, {r['ci_high']!r}] is not [{lo!r}, {hi!r}]")
    N, k, c = r["N"], r["k"], r["c"]
    eps = log_threshold(k, c)
    ref = explicit_bound(N, k, eps)
    ref["eps"] = eps
    ref["cor_bound"] = log_threshold_bound(N, k, c)
    ref["di_eps_unscaled"] = math.sqrt(2.0 * k) * eps
    ref["di_bound"] = dette_imhof(N, ref["di_eps_unscaled"])
    for key in _FORMULA_COLUMNS:
        if not _close(r[key], ref[key], FORMULA_RTOL):
            fails.append(f"{key} {r[key]!r} is not {ref[key]!r}")
    if r["condition_ok"] != ref["condition_ok"]:
        fails.append(f"condition_ok {r['condition_ok']} is not {ref['condition_ok']}")
    prop = ref["prop_total_clamped"] if ref["condition_ok"] else math.inf
    tighter = "prop" if prop < min(ref["di_bound"], 1.0) else "di"
    if r["tighter"] != tighter:
        fails.append(f"tighter {r['tighter']!r} is not {tighter!r}")
    return fails
