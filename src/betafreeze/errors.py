"""Exception hierarchy for betafreeze, and the shared parameter checks.

Every library-raised error derives from :class:`BetafreezeError` so callers
(and the CLI) can distinguish configuration mistakes from numerical failures.
The ``check_*`` functions are the one definition of each parameter's domain;
a module that needs a stricter domain adds only that part on top.  Every
count (n, trials, draws, hits, workers) and every seed is an integer: a
Python or NumPy integer, never a ``bool``, a float (2.0 included) or a
``str``, so nothing is truncated or converted on the way in.
"""

import math

import numpy as np

#: Largest n of an ensemble that is sampled, solved or factored; every n up
#: to it works.  The program forms n x n arrays there (the dense eigensolver,
#: the precision matrix, the zero identities), and the dense eigensolver's
#: budget ``_core._DENSE_BUDGET`` is one float64 matrix at this n (32 MB).
#: The bound formulas take any N.
MAX_N = 2000


class BetafreezeError(Exception):
    """Base class for all betafreeze errors."""


class InvalidConfig(BetafreezeError):
    """A parameter or configuration violates a documented precondition."""


def check_integer(value, name: str, low: int) -> None:
    """A count or seed: an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {value}")


def check_n(n: int, name: str = "n") -> None:
    """The ensemble size: an integer n >= 2."""
    check_integer(n, name, 2)


def check_size(n: int, name: str = "n") -> None:
    """The size of an ensemble the program samples or solves: 2 <= n <= MAX_N."""
    check_n(n, name)
    if n > MAX_N:
        raise InvalidConfig(f"{name} must be <= {MAX_N}, got {n}")


def check_k(k: float) -> None:
    """The interaction parameter (beta = 2k): k > 0 and finite."""
    if not (k > 0.0 and math.isfinite(k)):
        raise InvalidConfig(f"k must be positive and finite, got {k}")


def check_trials(trials: int, name: str = "trials") -> None:
    """A Monte Carlo trial count: an integer >= 1."""
    check_integer(trials, name, 1)


def check_seed(seed: int) -> None:
    """A random seed: an integer >= 0, as NumPy's SeedSequence requires."""
    check_integer(seed, "seed", 0)


def check_workers(workers: int) -> None:
    """A worker count: an integer >= 1."""
    check_integer(workers, "workers", 1)


def check_confidence(confidence: float) -> None:
    """A confidence level: in (0, 1)."""
    if not 0.0 < confidence < 1.0:
        raise InvalidConfig(f"confidence must be in (0, 1), got {confidence}")


def check_threshold(x: float, name: str = "eps") -> None:
    """A tail threshold or its coefficient: positive and finite."""
    if not (x > 0.0 and math.isfinite(x)):
        raise InvalidConfig(f"{name} must be positive and finite, got {x}")


class ConvergenceFailure(BetafreezeError):
    """An iterative numerical procedure exhausted its budget.

    Raised by the zero finder when its polish misses the residual bound, and
    by the tridiagonal eigensolver when LAPACK does not converge on a row.
    """


class DegenerateInput(BetafreezeError):
    """An input vector has coincident entries where distinct ones are required."""


class FactorizationFailure(BetafreezeError):
    """A matrix factorization failed (input not numerically positive definite)."""


class ConditionViolated(BetafreezeError):
    """A bound was requested outside its validity window."""


__all__ = [
    "BetafreezeError",
    "InvalidConfig",
    "ConvergenceFailure",
    "DegenerateInput",
    "FactorizationFailure",
    "ConditionViolated",
    "MAX_N",
    "check_integer",
    "check_n",
    "check_size",
    "check_k",
    "check_trials",
    "check_seed",
    "check_workers",
    "check_confidence",
    "check_threshold",
]
