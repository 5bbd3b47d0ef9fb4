"""The three workloads: their inputs, one call into betafreeze, and the checks.

A workload hands out operations in rounds.  ``next_round`` makes the inputs
of one round from the workload's seed stream (untimed), ``call`` is the
timed call into the program, and ``collect`` reads what the call wrote
(untimed).  ``check`` runs the references of reference.py over everything
collected in a run.

Operation seeds come from ``random.Random("<workload>/<seed>")``: the i-th
operation of a run gets the i-th 32-bit draw, so one --seed always gives the
same sequence of program inputs, however many operations a run reaches.
"""

from __future__ import annotations

import json
import os
import random

import betafreeze.bounds
import betafreeze.cli
import betafreeze.experiment
import betafreeze.hermite_core

import reference


class _Workload:
    name = ""
    #: Worker threads the program runs per operation.
    workers = 1
    #: Trials drawn and solved per operation.
    trials_per_op = 0

    def __init__(self, seed: int, tmp: str):
        self._seeds = random.Random(f"{self.name}/{seed}")
        self.tmp = tmp

    def _seed(self) -> int:
        return self._seeds.getrandbits(32)


class _CliWorkload(_Workload):
    """Operations that are ``cli.main`` calls writing their CSV to ``op["out"]``."""

    def call(self, op: dict):
        rc = betafreeze.cli.main(op["argv"])
        if rc != 0:
            raise RuntimeError(f"betafreeze {op['argv'][0]} exited {rc}")

    def collect(self, op: dict, result) -> dict:
        with open(op["out"]) as handle:
            return {**op, "text": handle.read()}


class TailN2(_CliWorkload):
    """``betafreeze tail`` at N = 2, k = 1e4, alternating the two norms."""

    name = "tail-n2"
    workers = 2
    trials_per_op = 131072
    k = 1e4
    c = 0.5
    sup_eps = 2.0
    confidence = 0.99

    def next_round(self) -> list[dict]:
        out = os.path.join(self.tmp, "tail.csv")
        ops = []
        for norm in ("l2", "sup"):
            seed = self._seed()
            threshold = (["--c", repr(self.c)] if norm == "l2"
                         else ["--eps", repr(self.sup_eps)])
            argv = ["tail", "--n", "2", "--k", repr(self.k), *threshold,
                    "--norm", norm, "--trials", str(self.trials_per_op),
                    "--seed", str(seed), "--workers", str(self.workers),
                    "--confidence", repr(self.confidence), "--out", out]
            eps = (reference.log_threshold(self.k, self.c) if norm == "l2"
                   else self.sup_eps)
            ops.append({"argv": argv, "out": out, "norm": norm, "k": self.k,
                        "eps": eps, "trials": self.trials_per_op, "seed": seed,
                        "workers": self.workers, "confidence": self.confidence})
        return ops

    def check(self, records: list[dict]) -> list[str]:
        eps = reference.log_threshold(self.k, self.c)
        bound = betafreeze.bounds.prop_bound(2, self.k, eps).total
        return reference.check_tail(records, bound)


class CltN32(_Workload):
    """``experiment.clt_covariance_test`` at N = 32, k = 1e4."""

    name = "clt-n32"
    workers = 2
    trials_per_op = 8192
    n = 32
    k = 1e4

    def next_round(self) -> list[dict]:
        return [{"seed": self._seed()}]

    def call(self, op: dict):
        cfg = betafreeze.experiment.ExperimentConfig(
            n=self.n, k=self.k, trials=self.trials_per_op, seed=op["seed"],
            workers=self.workers)
        return betafreeze.experiment.clt_covariance_test(cfg)

    def collect(self, op: dict, report) -> dict:
        return {"n": report.n, "k": report.k, "trials": report.trials,
                "cov": report.cov, "cov_rel_err": report.cov_rel_err}

    def check(self, records: list[dict]) -> list[str]:
        zeros = betafreeze.hermite_core.compute_zeros(self.n).zeros
        return reference.check_clt(records, zeros)


class SweepGrid(_CliWorkload):
    """``betafreeze sweep`` over N in {2, 3, 5, 8}, k in {1e3, 1e4, 1e5}, c in {0.5, 1}."""

    name = "sweep-grid"
    workers = 1
    points_trials = 3000
    grid = {"n": [2, 3, 5, 8], "k": [1e3, 1e4, 1e5], "c": [0.5, 1.0]}
    trials_per_op = points_trials * len(grid["n"]) * len(grid["k"]) * len(grid["c"])
    confidence = 0.99

    def next_round(self) -> list[dict]:
        cfg_path = os.path.join(self.tmp, "grid.json")
        out = os.path.join(self.tmp, "sweep.csv")
        cfg = {**self.grid, "trials": self.points_trials, "seed": self._seed(),
               "workers": self.workers, "confidence": self.confidence, "out": out}
        with open(cfg_path, "w") as handle:
            json.dump(cfg, handle)
        return [{**cfg, "argv": ["sweep", "--config", cfg_path]}]

    def check(self, records: list[dict]) -> list[str]:
        return reference.check_sweep(records)


WORKLOADS = {w.name: w for w in (TailN2, CltN32, SweepGrid)}
