"""The benchmark harness runs end to end on this checkout.

A traced run installs every timing patch of ``perfbench/spans.py`` (module
attributes of the package, looked up at call time) and takes the import
split, which needs ``import betafreeze.cli`` to import ``scipy.stats``.  A
renamed patched attribute or a dropped import fails the run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_sweep_grid_run_is_correct():
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-grid",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    last = json.loads(r.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last


def test_perfbench_selftest_passes():
    # The selftest feeds each benchmark check a wrong answer and requires
    # it to be caught, so a package change that blinds a check fails here.
    r = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stdout + r.stderr
