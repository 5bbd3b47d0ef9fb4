"""Timing wrappers around betafreeze's layers, and the per-layer split.

``Tracer.install`` replaces public functions at the module attributes where
the program looks them up (``betafreeze.experiment.worker_streams``,
``betafreeze._core.eigvals_batch``, ``RunningMoments.add_batch`` ...) with
wrappers that record one span per call: name, operation id, parent span on
the same thread, start and end.  Spans go to a per-thread list, so worker
threads never share a buffer; ``uninstall`` puts the originals back.

Self time follows the usual definition: a span's duration minus the part its
direct children cover.  Spans of one operation in worker threads have no
parent on their thread; the operation id ties them to the experiment call
that started the threads.
"""

from __future__ import annotations

import threading
import time

#: Span name -> layer.  Spans of one layer nested in each other (a normal
#: draw inside sample_tridiagonal_batch, estimate_tail_l2 inside sweep)
#: are not subtracted from each other's layer time.
LAYERS = {
    "cli.main": "cli",
    "experiment.run": "experiment",
    "sampler.draw": "sampler",
    "sampler.normal": "sampler",
    "sampler.gamma": "sampler",
    "_core.eigvals": "_core",
    "stats.moments": "stats.moments",
    "stats.clopper_pearson": "stats.clopper_pearson",
    "bounds.eval": "bounds",
    "hermite_core.zeros": "hermite_core",
    "spectral.precision": "spectral",
    "rng.streams": "rng",
}

#: Span name -> (busy-time metric of its layer, call-count metric).
_TIMED_CALLS = {
    "stats.moments": ("stats.moments_s", "stats.moments_calls"),
    "stats.clopper_pearson": ("stats.clopper_pearson_s", "stats.clopper_pearson_calls"),
    "bounds.eval": ("bounds.eval_s", "bounds.eval_calls"),
    "hermite_core.zeros": ("hermite_core.zeros_s", "hermite_core.zeros_calls"),
    "spectral.precision": ("spectral.precision_s", "spectral.precision_calls"),
    "rng.streams": ("rng.streams_s", "rng.streams_calls"),
}


class _TimedGenerator:
    """Pass-through numpy Generator whose normal and gamma draws are spans."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self.standard_normal = tracer.wrap("sampler.normal", gen.standard_normal)
        self.gamma = tracer.wrap("sampler.gamma", gen.gamma)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    def __init__(self):
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[tuple[int, list]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._buffers.append((threading.get_ident(), state[0]))
        return state

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording a span per call; ``size(args)`` adds a payload."""

        def traced(*args, **kwargs):
            buf, stack = self._thread_state()
            idx = len(buf)
            buf.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                buf[idx] = (name, self.op, parent, t0, t1,
                            size(args, kwargs) if size else None)

        return traced

    def _patch(self, owner, attr: str, name: str, size=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, size))

    def install(self) -> None:
        import betafreeze._core as core
        import betafreeze.bounds as bounds
        import betafreeze.cli as cli
        import betafreeze.experiment as experiment
        import betafreeze.sampler as sampler
        import betafreeze.stats as stats

        self._patch(cli, "main", "cli.main")
        for attr in ("estimate_tail_l2", "estimate_tail_sup",
                     "clt_covariance_test", "sweep"):
            self._patch(experiment, attr, "experiment.run")
        self._patch(sampler, "sample_tridiagonal_batch", "sampler.draw")
        self._patch(core, "eigvals_batch", "_core.eigvals", _matrix_shape)
        self._patch(stats.RunningMoments, "add_batch", "stats.moments")
        self._patch(stats.RunningMoments, "merge", "stats.moments")
        self._patch(experiment, "clopper_pearson", "stats.clopper_pearson")
        for attr in ("prop_bound", "cor_bound", "dette_imhof_bound"):
            self._patch(bounds, attr, "bounds.eval")
        self._patch(experiment, "compute_zeros", "hermite_core.zeros")
        self._patch(experiment, "build_precision", "spectral.precision")

        original = experiment.worker_streams
        timed = self.wrap("rng.streams", original)
        self._patches.append((experiment, "worker_streams", original))
        experiment.worker_streams = (
            lambda *a, **kw: [_TimedGenerator(g, self) for g in timed(*a, **kw)])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[int, list]]:
        """(thread id, spans) for every thread that recorded a span."""
        with self._lock:
            return list(self._buffers)


def _matrix_shape(args, kwargs):
    d = args[0] if args else kwargs["d"]
    shape = getattr(d, "shape", ())
    return (shape[0], shape[1]) if len(shape) == 2 else (1, len(d))


def layer_split(threads, main_thread: int, ops: int, workers: int) -> dict:
    """Per-operation layer metrics from the spans of ``ops`` operations.

    Times are busy seconds summed over threads.  experiment.self_s is the
    experiment call's duration times ``workers`` (the threads it keeps busy)
    minus the busy time of every layer below it, so it holds the chunk loop,
    the norms, hit counts and merges, and any time a worker thread waits.
    cli.self_s is cli.main's self time: parsing, config, formatting, writing.
    """
    busy: dict[str, float] = {}
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    matrices = dense_bytes = 0
    experiment_wall = below_experiment = 0.0
    for tid, spans in threads:
        child = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        for i, s in enumerate(spans):
            if s is None:
                continue
            name, _, parent, t0, t1, size = s
            layer = LAYERS[name]
            d = t1 - t0
            own = d - child[i]
            busy[layer] = busy.get(layer, 0.0) + own
            dur[name] = dur.get(name, 0.0) + d
            calls[name] = calls.get(name, 0) + 1
            if size is not None:
                matrices += size[0]
                dense_bytes += size[0] * size[1] * size[1] * 8
            if layer in ("cli", "experiment"):
                if (layer == "experiment" and tid == main_thread
                        and not _has_ancestor(spans, parent, "experiment")):
                    experiment_wall += d * workers
            elif tid != main_thread or _has_ancestor(spans, parent, "experiment"):
                below_experiment += own
    out = {
        "_core.eigvals_s": busy.get("_core", 0.0),
        "_core.calls": calls.get("_core.eigvals", 0),
        "_core.matrices": matrices,
        "_core.dense_bytes": dense_bytes,
        "sampler.draw_s": dur.get("sampler.draw", 0.0),
        "sampler.normal_s": dur.get("sampler.normal", 0.0),
        "sampler.gamma_s": dur.get("sampler.gamma", 0.0),
        "experiment.self_s": experiment_wall - below_experiment,
        "cli.self_s": busy.get("cli", 0.0),
    }
    for name, (t_key, c_key) in _TIMED_CALLS.items():
        out[t_key] = busy.get(LAYERS[name], 0.0)
        out[c_key] = calls.get(name, 0)
    per_op = {key: value / ops for key, value in out.items()}
    per_op["busy_s"] = (sum(busy.values()) - busy.get("experiment", 0.0)
                        + out["experiment.self_s"]) / ops
    return per_op


def _has_ancestor(spans, parent: int, layer: str) -> bool:
    while parent >= 0:
        s = spans[parent]
        if LAYERS[s[0]] == layer:
            return True
        parent = s[2]
    return False
