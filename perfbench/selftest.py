"""Show that every output check accepts real outputs and rejects perturbed ones.

    python3 perfbench/selftest.py

Run it from the root of a betafreeze checkout.  It runs a few operations of
each workload, checks the outputs as they are, then checks copies with one
fault put in: tail hits counted at 1.02 eps, a wrong interval endpoint, a
covariance with one eigenvalue scaled by 1.01, a wrong Dette-Imhof column,
a flipped ``tighter``, and a grid point whose hits exceed the explicit
bound.  It prints one line per case and exits 0 only if every real output
passes and every perturbed one fails.
"""

import os
import shutil
import sys
import tempfile

sys.path.insert(1, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402


def _collect(wl, rounds: int, mutate_op=None) -> list[dict]:
    records = []
    for _ in range(rounds):
        for op in wl.next_round():
            call_op = mutate_op(op) if mutate_op else op
            records.append(wl.collect(op, wl.call(call_op)))
    return records


def _replace_field(text: str, index: int, value: str) -> str:
    header, row = text.splitlines()
    fields = row.split(",")
    fields[index] = value
    return f"{header}\n{','.join(fields)}\n"


def _tail_at_wider_eps(op: dict) -> dict:
    """The same operation, with the program counting hits at 1.02 eps."""
    argv = list(op["argv"])
    for flag in ("--c", "--eps"):
        if flag in argv:
            i = argv.index(flag)
            argv[i:i + 2] = ["--eps", repr(1.02 * op["eps"])]
    return {**op, "argv": argv}


def tail_cases(tmp: str):
    wl = workloads.TailN2(1, tmp)
    real = _collect(wl, 10)
    yield "tail-n2 as produced", wl.check(real), False
    wide = _collect(wl, 10, _tail_at_wider_eps)
    # Put the nominal eps back, so that only the hit counts are wrong.
    wide = [{**r, "text": _replace_field(r["text"], 3, repr(r["eps"]))} for r in wide]
    yield "tail-n2 hits counted at 1.02 eps", wl.check(wide), True
    bad = [dict(r) for r in real]
    ci_low = float(bad[3]["text"].splitlines()[1].split(",")[10])
    bad[3]["text"] = _replace_field(bad[3]["text"], 10, repr(ci_low * (1 + 1e-6)))
    yield "tail-n2 ci_low off by 1e-6", wl.check(bad), True


def clt_cases(tmp: str):
    wl = workloads.CltN32(1, tmp)
    real = _collect(wl, 10)
    yield "clt-n32 as produced", wl.check(real), False
    bad = [dict(r) for r in real]
    mu, vec = np.linalg.eigh(bad[4]["cov"])
    mu[-1] *= 1.01
    bad[4]["cov"] = (vec * mu) @ vec.T
    yield "clt-n32 one eigenvalue scaled by 1.01", wl.check(bad), True
    mu[-1] /= 1.01
    mu[0] *= 1.01
    bad[4]["cov"] = (vec * mu) @ vec.T
    yield "clt-n32 smallest eigenvalue scaled by 1.01", wl.check(bad), True


def _sweep_edit(record: dict, row: int, edit) -> dict:
    lines = record["text"].splitlines()
    names = reference.SWEEP_COLUMNS.split(",")
    fields = dict(zip(names, lines[3 + row].split(",")))
    edit(fields)
    lines[3 + row] = ",".join(fields[n] for n in names)
    return {**record, "text": "\n".join(lines) + "\n"}


def sweep_cases(tmp: str):
    wl = workloads.SweepGrid(1, tmp)
    real = _collect(wl, 5)
    yield "sweep-grid as produced", wl.check(real), False
    _, rows = reference.parse_sweep(real[0]["text"])

    def wrong_di(f):
        f["di_bound"] = repr(float(f["di_bound"]) * 1.001)

    bad = list(real)
    bad[2] = _sweep_edit(real[2], 7, wrong_di)
    yield "sweep-grid row with a wrong di_bound", wl.check(bad), True

    def flip(f):
        f["tighter"] = "di" if f["tighter"] == "prop" else "prop"

    bad = list(real)
    bad[1] = _sweep_edit(real[1], 0, flip)
    yield "sweep-grid row with tighter flipped", wl.check(bad), True

    # A point inside the explicit bound's window whose estimate exceeds it;
    # every other column stays consistent with the hits.
    row = min((j for j, r in enumerate(rows) if r["N"] > 2 and r["condition_ok"]),
              key=lambda j: rows[j]["prop_total"])
    trials = rows[row]["trials"]
    hits = min(trials, int(2 * rows[row]["prop_total"] * trials) + 20)
    lo, hi = reference.clopper_pearson(hits, trials, wl.confidence)

    def over_bound(f):
        f.update(hits=str(hits), p_hat=repr(hits / trials), ci_low=repr(lo),
                 ci_high=repr(hi))

    bad = [_sweep_edit(r, row, over_bound) for r in real]
    yield "sweep-grid estimate above the explicit bound", wl.check(bad), True


def main() -> int:
    runs = os.path.join(os.getcwd(), ".perfbench_runs")
    os.makedirs(runs, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=runs)
    ok = True
    try:
        for cases in (tail_cases, clt_cases, sweep_cases):
            for label, failures, should_fail in cases(tmp):
                good = bool(failures) == should_fail
                ok &= good
                verdict = "rejected" if failures else "accepted"
                print(f"{'ok  ' if good else 'FAIL'} {label}: {verdict}"
                      + (f" ({failures[0]})" if failures else ""))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
