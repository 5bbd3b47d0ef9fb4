"""Run one betafreeze benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tail-n2 --seed 1 --seconds 25 --trace 0

Run it from the root of a betafreeze checkout: the program is imported from
``src`` there.  The workload runs in a fresh process (load.py).  Set-up
time is the median over that process and 2 * IMPORT_PROBES more fresh
processes of ``import betafreeze.cli``, half before the run and half after
it, so that a change in the machine's load during the run shows in both
halves; with --trace 1, ``python -X importtime`` probes give the import
split instead.  Temporary files and traces stay in ``.perfbench_runs``
under the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it give the run
manifest and a summary.  The exit code is 0 whenever that line is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("tail-n2", "clt-n32", "sweep-grid")

#: Fresh processes that time ``import betafreeze.cli`` before the run, and
#: again after it.
IMPORT_PROBES = 3

#: Fresh processes that run ``python -X importtime`` in a traced run.
IMPORTTIME_PROBES = 3

PROBE_TIMEOUT_S = 60
RUN_TIMEOUT_S = 150

_PROBE = ("import time; t = time.perf_counter(); import betafreeze.cli; "
          "print(time.perf_counter() - t)")


def _python(args, env, timeout):
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout, check=True)


def _import_probes(env) -> list[float]:
    return [float(_python(["-c", _PROBE], env, PROBE_TIMEOUT_S).stdout)
            for _ in range(IMPORT_PROBES)]


def import_split(env) -> dict:
    """Median cumulative import time of betafreeze.cli and of scipy.stats."""
    found = {"setup.import_s": [], "setup.scipy_stats_import_s": []}
    names = {"betafreeze.cli": "setup.import_s",
             "scipy.stats": "setup.scipy_stats_import_s"}
    for _ in range(IMPORTTIME_PROBES):
        err = _python(["-X", "importtime", "-c", "import betafreeze.cli"],
                      env, PROBE_TIMEOUT_S).stderr
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in names:
                found[names[parts[2].strip()]].append(int(parts[1]) / 1e6)
    return {name: statistics.median(v) for name, v in found.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "betafreeze", "cli.py")):
        print(f"error: no betafreeze sources under {src}; run from the root "
              "of a betafreeze checkout", file=sys.stderr)
        return 2
    runs_dir = os.path.join(root, ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    # The first import in a checkout compiles bytecode, which users pay once.
    _python(["-c", "import betafreeze.cli"], env, PROBE_TIMEOUT_S)
    if args.trace:
        probes = import_split(env)
    else:
        probes = _import_probes(env)

    here = os.path.dirname(os.path.abspath(__file__))
    run = subprocess.run(
        [sys.executable, os.path.join(here, "load.py"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--runs-dir", runs_dir],
        env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if run.returncode != 0:
        print(f"error: the {args.workload} run exited {run.returncode}", file=sys.stderr)
        return 1
    if not args.trace:
        probes += _import_probes(env)
    out = json.loads(run.stdout.strip().splitlines()[-1])
    metrics = out["metrics"]
    if args.trace:
        metrics.update({name: {"value": v, "unit": "s"} for name, v in probes.items()})
    else:
        setup = statistics.median(probes + [out["import_s"]])
        metrics["setup_s"] = {"value": setup, "unit": "s"}

    print("manifest " + json.dumps(out["manifest"]))
    print("summary " + json.dumps(out["summary"]))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
