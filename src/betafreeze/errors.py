"""Exception hierarchy for betafreeze, and the shared parameter checks.

Every library-raised error derives from :class:`BetafreezeError` so callers
(and the CLI) can distinguish configuration mistakes from numerical failures.
The ``check_*`` functions are the one definition of each parameter's domain;
a module that needs a stricter domain adds only that part on top.  Every
count (n, trials, draws, hits, workers) and every seed is an integer: a
Python or NumPy integer, never a ``bool``, a float (2.0 included) or a
``str``.  Every scalar real (k, eps, c, confidence, a bound's r) is a
Python or NumPy real, never a ``bool``, ``str`` or ``None``, in an interval
with open or closed ends (:func:`check_real`): never NaN, and finite unless
an infinite end is closed (the baseline's unscaled threshold and the
Chernoff exponent r).  A tail threshold eps is positive and finite.
Nothing is truncated or converted on the way in, and a message shows the
value it rejects through :func:`shown`, which no int is too long for.  A
zero vector is checked by ``hermite_core._as_zero_vector``: a 1-D array of
at least 2 finite numbers.  An array comes in through :func:`as_array`, so
a ragged sequence is rejected like any other non-numeric array.
"""

import functools
import math
import sys

import numpy as np

_REAL_TYPES = (int, float, np.integer, np.floating)

#: Largest n of an ensemble that is sampled, solved or factored; every n up
#: to it works.  The program forms n x n arrays there (the dense eigensolver,
#: the precision matrix, the zero identities), and the dense eigensolver's
#: budget ``_core._DENSE_BUDGET`` is one float64 matrix at this n (32 MB).
#: ``hermite_core.exponent_M`` and ``experiment.gaussian_reference_tail``
#: form an N-array, so their N is held to it too; the closed-form bounds
#: take any N that fits a float (``check_n``).
MAX_N = 2000


class BetafreezeError(Exception):
    """Base class for all betafreeze errors."""


class InvalidConfig(BetafreezeError):
    """A parameter or configuration violates a documented precondition."""


def as_array(value) -> np.ndarray:
    """``np.asarray(value)``; a ragged sequence, which NumPy refuses to
    convert, becomes an empty object array, so that the caller's numeric
    dtype check rejects it with InvalidConfig."""
    try:
        return np.asarray(value)
    except ValueError:
        return np.empty(0, dtype=object)


def shown(value, render=str) -> str:
    """``render(value)`` (``str`` or ``repr``) for an error message.  Python
    renders no int past 4300 digits (``sys.get_int_max_str_digits``): such
    an int is shown by its size, and anything that holds one by its type."""
    try:
        return render(value)
    except ValueError:
        if not isinstance(value, int):
            return f"a {type(value).__name__}"
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of {value.bit_length()} bits"


def check_integer(value, name: str, low: int) -> None:
    """A count or seed: an integer (not a bool) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfig(
            f"{name} must be an integer, got {shown(value, repr)}")
    if value < low:
        raise InvalidConfig(f"{name} must be >= {low}, got {shown(value)}")


def check_n(n: int, name: str = "n") -> None:
    """The ensemble size: an integer n >= 2 that fits a float (the
    closed-form bounds compute with it as one)."""
    check_integer(n, name, 2)
    if n > sys.float_info.max:
        raise InvalidConfig(f"{name} must be <= {sys.float_info.max:g} to fit "
                            f"a float, got {shown(n)}")


def check_size(n: int, name: str = "n") -> None:
    """The size of an ensemble the program samples or solves: 2 <= n <= MAX_N."""
    check_integer(n, name, 2)
    if n > MAX_N:
        raise InvalidConfig(f"{name} must be <= {MAX_N}, got {shown(n)}")


def cached_by_size(fn):
    """``fn(n)`` cached by n, with n checked by :func:`check_size` first, so
    an n the cache cannot hash (a list) is rejected like any other one."""
    cached = functools.lru_cache(maxsize=32, typed=True)(fn)

    @functools.wraps(fn)
    def checked(n):
        check_size(n)
        return cached(n)

    return checked


def check_real(value, name: str, low: float = -math.inf,
               high: float = math.inf, *, closed_low: bool = False,
               closed_high: bool = False, domain: str = "") -> None:
    """A real from low to high, an end excluded unless closed: a Python or
    NumPy real (not a bool; an int must fit a float), never NaN, infinite
    only at a closed end, and not converted.  ``domain`` words the message."""
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise InvalidConfig(
            f"{name} must be a real number, got {shown(value, repr)}")
    # NaN fails both comparisons, whatever the ends.
    if not ((low <= value if closed_low else low < value)
            and (value <= high if closed_high else value < high)) or (
            isinstance(value, int) and abs(value) > sys.float_info.max):
        domain = domain or (f"in {'[' if closed_low else '('}{low:g}, "
                            f"{high:g}{']' if closed_high else ')'}")
        raise InvalidConfig(f"{name} must be {domain}, got {shown(value)}")


def check_k(k: float) -> None:
    """The interaction parameter (beta = 2k): k > 0 and finite."""
    check_real(k, "k", 0.0, domain="positive and finite")


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
    check_real(confidence, "confidence", 0.0, 1.0)


def check_threshold(x: float, name: str = "eps") -> None:
    """A tail threshold or its coefficient: positive and finite."""
    check_real(x, name, 0.0, domain="positive and finite")


class ConvergenceFailure(BetafreezeError):
    """An iterative numerical procedure exhausted its budget.

    Raised by the zero finder when its polish misses the residual bound, and
    by the tridiagonal eigensolver when LAPACK does not converge on a row.
    """


class DegenerateInput(BetafreezeError):
    """An input vector has coincident entries where distinct ones are required."""


class FactorizationFailure(BetafreezeError):
    """A matrix factorization failed (input not numerically positive definite)."""


__all__ = [
    "BetafreezeError",
    "InvalidConfig",
    "ConvergenceFailure",
    "DegenerateInput",
    "FactorizationFailure",
    "MAX_N",
    "as_array",
    "shown",
    "check_integer",
    "check_real",
    "check_n",
    "check_size",
    "cached_by_size",
    "check_k",
    "check_trials",
    "check_seed",
    "check_workers",
    "check_confidence",
    "check_threshold",
]
