"""One benchmark run of one workload, in a fresh process.

run.py starts this with ``src`` on PYTHONPATH.  The first thing it does is
time ``import betafreeze.cli``, the start-up every CLI call pays.  It then
runs one untimed warm-up round, measures for --seconds (and until at least
MIN_OPS operations, so the 90th percentile has ten operations beyond it),
reads its peak RSS, checks every collected output and prints one JSON line.

With --trace 1 it alternates untraced and traced rounds for --seconds: the
traced rounds give the per-layer split, the untraced ones the base of the
tracing overhead.  The spans are written to the run directory at the end.
"""

import time

_t0 = time.perf_counter()
import betafreeze.cli  # noqa: E402  (this import is what setup_s measures)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import betafreeze._core  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Operations a timed run reaches at least.
MIN_OPS = 100

#: A run stops starting rounds after this long, whatever MIN_OPS says.
HARD_LIMIT_S = 120.0

#: Rounds of each kind a traced run reaches at least.
MIN_TRACE_ROUNDS = 4


def _run_op(wl, op, errors: list):
    """(seconds, collected record), or None if the call failed."""
    t0 = time.perf_counter()
    try:
        result = wl.call(op)
    except Exception:  # a failed operation is counted, not fatal
        errors.append(traceback.format_exc())
        return None
    seconds = time.perf_counter() - t0
    return seconds, wl.collect(op, result)


def timed_phase(wl, seconds: float) -> dict:
    times, records, errors = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        for op in wl.next_round():
            attempted += 1
            done = _run_op(wl, op, errors)
            if done is not None:
                times.append(done[0])
                records.append(done[1])
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and attempted >= MIN_OPS) or elapsed >= HARD_LIMIT_S:
            break
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "trials_per_s": (len(times) * wl.trials_per_op / wall, "1/s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {"attempted": attempted, "errors": errors, "records": records,
            "metrics": metrics, "summary": {"ops": len(times), "wall_s": wall}}


def traced_phase(wl, seconds: float, trace_path: str) -> dict:
    tracer = spans.Tracer()
    wall = {False: 0.0, True: 0.0}
    done_ops = {False: 0, True: 0}
    op_time = {False: 0.0, True: 0.0}
    records, errors = [], []
    attempted = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = rounds % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for op in wl.next_round():
                attempted += 1
                tracer.op = attempted
                done = _run_op(wl, op, errors)
                if done is not None:
                    done_ops[traced] += 1
                    op_time[traced] += done[0]
                    records.append(done[1])
        finally:
            wall[traced] += time.perf_counter() - t0
            tracer.uninstall()
        rounds += 1
        elapsed = time.perf_counter() - start
        if ((elapsed >= seconds and rounds >= 2 * MIN_TRACE_ROUNDS)
                or elapsed >= HARD_LIMIT_S):
            break
    threads = tracer.spans()
    with open(trace_path, "w") as handle:
        json.dump({"main_thread": threading.main_thread().ident,
                   "workers": wl.workers,
                   "threads": [[tid, buf] for tid, buf in threads]}, handle)
    split = spans.layer_split(threads, threading.main_thread().ident,
                              done_ops[True], wl.workers)
    rate = {t: done_ops[t] * wl.trials_per_op / wall[t] for t in (False, True)}
    busy = split.pop("busy_s")
    metrics = {name: (value, "count/op" if name.endswith(("calls", "matrices"))
                      else "B/op" if name.endswith("bytes") else "s/op")
               for name, value in split.items()}
    metrics["trace.overhead_pct"] = (100.0 * (rate[False] / rate[True] - 1.0), "%")
    untraced_op = op_time[False] / done_ops[False]
    summary = {
        "ops_untraced": done_ops[False], "ops_traced": done_ops[True],
        "op_s_untraced_mean": untraced_op,
        "op_s_traced_mean": op_time[True] / done_ops[True],
        "busy_s_per_op": busy,
        # Busy time over the threads it ran on, against the untraced
        # operation time: 1 + overhead when the layers cover the operation.
        "busy_over_workers_vs_untraced_op": busy / wl.workers / untraced_op,
        "eigvals_share_of_busy": split["_core.eigvals_s"] / busy,
        "eigvals_share_of_worker_layers": split["_core.eigvals_s"] / (
            split["_core.eigvals_s"] + split["sampler.draw_s"]
            + split["stats.moments_s"]),
        "trace_file": os.path.relpath(trace_path),
    }
    return {"attempted": attempted, "errors": errors, "records": records,
            "metrics": metrics, "summary": summary}


def manifest(args, wl) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name,
        "seed": args.seed,
        "workers": wl.workers,
        "backend": betafreeze._core.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--runs-dir", required=True)
    args = parser.parse_args()

    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.runs_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        for op in wl.next_round():  # warm-up: lazy set-up, caches, BLAS threads
            wl.collect(op, wl.call(op))
        if args.trace:
            trace_path = os.path.join(
                args.runs_dir, f"trace-{args.workload}-seed{args.seed}.json")
            phase = traced_phase(wl, args.seconds, trace_path)
        else:
            phase = timed_phase(wl, args.seconds)
        failures = wl.check(phase["records"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for text in phase["errors"] + failures:
        print(text, file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": phase["attempted"],
        "failed": len(phase["errors"]),
        "import_s": IMPORT_S,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in phase["metrics"].items()},
        "manifest": manifest(args, wl),
        "summary": phase["summary"],
        "check_failures": len(failures),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
