"""Reproducible random-number streams.

All randomness in the package flows through counter-based Philox generators,
built only here and keyed by spawn keys on the master seed.  Block b of a
Monte Carlo run draws from ``worker_streams(seed, 1, prefix + (b,))[0]``,
keyed on (seed, *prefix, b, 0), so a run is a pure function of its
configuration and seed, and distinct blocks never share a stream.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import (InvalidConfig, check_integer, check_seed, check_workers,
                     shown)

#: Environment variable consulted by the CLI for a default seed.
SEED_ENV_VAR = "BETAFREEZE_SEED"

#: Seed used when neither a flag nor the environment provides one.
FALLBACK_SEED = 0


def default_seed() -> int:
    """Return the CLI default seed: ``$BETAFREEZE_SEED`` if set, else 0."""
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return FALLBACK_SEED
    try:
        seed = int(raw)
    except ValueError as exc:
        raise InvalidConfig(
            f"{SEED_ENV_VAR} must be an integer, got {raw!r}"
        ) from exc
    check_seed(seed)
    return seed


def master_stream(seed: int) -> np.random.Generator:
    """Single generator keyed on the master seed."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def worker_streams(
    seed: int, workers: int, prefix: tuple[int, ...] = ()
) -> list[np.random.Generator]:
    """``workers`` independent generators.

    Stream ``w`` is keyed on ``(seed, *prefix, w)`` via a spawn key, so the
    set of streams is splittable and deterministic. ``prefix`` namespaces
    sub-experiments (one block of trials, one (N, k) group of a sweep)
    without collisions; it is a tuple of integers >= 0.
    """
    check_seed(seed)
    check_workers(workers)
    if not isinstance(prefix, tuple):
        raise InvalidConfig(
            f"prefix must be a tuple, got {shown(prefix, repr)}")
    for entry in prefix:
        check_integer(entry, "prefix entry", 0)
    return [
        np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=prefix + (w,)))
        )
        for w in range(workers)
    ]


__all__ = [
    "SEED_ENV_VAR",
    "FALLBACK_SEED",
    "default_seed",
    "master_stream",
    "worker_streams",
]
