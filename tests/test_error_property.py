"""One error property for the whole library.

Every callable in ``betafreeze.__all__`` either returns or raises a
``BetafreezeError``; no input makes it raise anything else (a ``TypeError``
from a comparison, NumPy's ``ValueError``, an ``OverflowError``, or a
warning that pytest turns into an error).  This is the library's version of
the CLI's exit-code property.

Each scalar parameter draws a valid value of its kind three times in four,
else NaN, +-inf, 0, a negative value, None, a str, a bool or, for an
integer, a float (whole ones among them); a real may also be an int beyond
float range.  Zero vectors and precision pairs do the same, with values
that are not one (a scalar, a str, a 2-D, ragged or one-entry array, a
NaN or infinite entry, a bool or complex dtype).  Generators draw valid
values only.  Sizes stay at n <= 8 and counts at <= 50, so each example
is cheap.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import betafreeze as bf
from betafreeze.errors import BetafreezeError

#: Values outside every scalar domain, or at its edge.
_ODD = st.sampled_from([
    math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5, None, "1", "x", True,
    False, np.float64(math.nan), np.bool_(True),
])


def _mostly(valid, invalid):
    """``valid`` three times in four, else ``invalid``."""
    return st.sampled_from([True, True, True, False]).flatmap(
        lambda ok: valid if ok else invalid)


def real(low, high):
    """A real parameter: a Python or NumPy real in [low, high], else an odd
    value, an int beyond float range, or a float in [-2 high, 0] or
    [high, 2 high]."""
    inside = st.floats(low, high)
    return _mostly(
        st.one_of(inside, inside.map(np.float64)),
        st.one_of(_ODD, st.just(10**400), st.floats(-2.0 * high, 0.0),
                  st.floats(high, 2.0 * high)))


def integer(low, high):
    """An integer parameter: a Python or NumPy int in [low, high], else an
    odd value, an int below low, or a float (a whole one among them)."""
    inside = st.integers(low, high)
    return _mostly(
        st.one_of(inside, inside.map(np.int64)),
        st.one_of(_ODD, st.integers(low - 3, low - 1), inside.map(float),
                  st.floats(low - 1.0, high)))


N = integer(2, 8)
COUNT = integer(1, 50)
SEED = integer(0, 2**32)
WORKERS = integer(1, 3)
K = real(0.01, 1e5)
EPS = real(1e-3, 5.0)
C = real(0.05, 5.0)
CONFIDENCE = real(0.5, 0.999)
ANY = real(-10.0, 10.0)
RNG = st.integers(0, 2**16).map(bf.master_stream)
PAIR = st.integers(2, 8).map(
    lambda n: bf.build_precision(bf.compute_zeros(n)))
ZEROS = _mostly(
    st.integers(2, 8).map(lambda n: bf.compute_zeros(n).zeros),
    st.sampled_from([
        None, 3.0, "abc", [1.0], [], [[1.0, 2.0]], [math.nan, 1.0],
        [1.0, -math.inf], [True, False], ["1", "0"], [1j, 0j],
        [[1.0], [1.0, 2.0]],
    ]))
PRECISION = _mostly(PAIR, st.sampled_from(
    [None, "p", [1.0, 2.0], np.eye(2), bf.compute_zeros(3)]))


CONFIG = st.builds(
    bf.ExperimentConfig, n=N, k=K, trials=COUNT, seed=SEED,
    eps=st.one_of(st.none(), EPS), c=st.one_of(st.none(), C),
    workers=WORKERS, confidence=CONFIDENCE,
)
PREFIX = st.lists(st.integers(0, 100), max_size=2).map(tuple)
MARGIN_X = real(1.01, 1e6)
MARGIN_XS = st.one_of(MARGIN_X, st.lists(MARGIN_X, max_size=3))
DOF = real(0.01, 1e6)
DOFS = st.one_of(DOF, st.lists(DOF, min_size=1, max_size=3))


def _records():
    """Result records and exception classes: constructing one stores the
    fields it is given."""
    s = {"args": st.lists(ANY, max_size=3)}
    names = ["BetafreezeError", "InvalidConfig", "ConvergenceFailure",
             "DegenerateInput", "FactorizationFailure"]
    return {name: (lambda args, cls=getattr(bf, name): cls(*args), s, 50)
            for name in names}


#: name -> (call, {parameter: strategy}, max_examples).
SPECS = {
    **_records(),
    "BoundBreakdown": (
        lambda v: bf.BoundBreakdown(v, v, v, v, v, v, True),
        {"v": ANY}, 20),
    "TailEstimate": (
        lambda v, n: bf.TailEstimate(n, n, v, v, v),
        {"v": ANY, "n": COUNT}, 20),
    "CltReport": (
        lambda n, v: bf.CltReport(n, v, 10, v, v, v, np.zeros(2),
                                  np.eye(2), np.eye(2)),
        {"n": N, "v": ANY}, 20),
    "PrecisionSpectralPair": (
        lambda p: bf.PrecisionSpectralPair(p.n, p.S, p.eigenvalues,
                                           p.chol_cov),
        {"p": PAIR}, 20),
    "ExperimentConfig": (lambda cfg: cfg, {"cfg": CONFIG}, 20),
    "HermiteZeros": (
        lambda n, z: bf.HermiteZeros(n, z),
        {"n": N, "z": ZEROS}, 50),
    "compute_zeros": (bf.compute_zeros, {"n": N}, 50),
    "fixed_point_residual": (bf.fixed_point_residual, {"z": ZEROS}, 50),
    "potential_identity_gap": (
        bf.potential_identity_gap, {"z": ZEROS}, 50),
    "stirling_bound_margins": (
        bf.stirling_bound_margins, {"x": MARGIN_XS}, 100),
    "exponent_M": (bf.exponent_M, {"N": N, "k": K}, 100),
    "build_precision": (bf.build_precision, {"z": ZEROS}, 50),
    "spectrum_deviation": (bf.spectrum_deviation, {"p": PRECISION}, 50),
    "inverse_power_sum": (
        bf.inverse_power_sum,
        {"z": ZEROS, "p": st.sampled_from([2, 4, 3, 2.0, None])}, 50),
    "min_gap": (bf.min_gap, {"z": ZEROS}, 50),
    "sample_chi": (
        bf.sample_chi,
        {"rng": RNG, "df": DOFS,
         "size": st.one_of(st.none(), integer(1, 5),
                           st.tuples(integer(1, 3), integer(1, 3)))}, 100),
    "chi_variance": (bf.chi_variance, {"df": DOFS}, 100),
    "sample_tridiagonal_batch": (
        bf.sample_tridiagonal_batch,
        {"n": N, "k": K, "rng": RNG, "trials": COUNT}, 100),
    "sample_eigenvalue_batch": (
        bf.sample_eigenvalue_batch,
        {"n": N, "k": K, "rng": RNG, "trials": COUNT}, 100),
    "first_order_map": (bf.first_order_map, {"n": N}, 50),
    # Each valid call runs 20000 burn-in steps over 50 chains.
    "mh_oracle_chain": (
        bf.mh_oracle_chain,
        {"n": N, "k": K, "rng": RNG, "draws": COUNT}, 8),
    "prop_condition": (
        bf.prop_condition, {"N": N, "k": K, "eps": EPS}, 100),
    "prop_bound": (bf.prop_bound, {"N": N, "k": K, "eps": EPS}, 100),
    "cor_eps": (bf.cor_eps, {"k": K, "c": C}, 100),
    "cor_condition": (bf.cor_condition, {"N": N, "k": K, "c": C}, 100),
    "cor_bound": (
        bf.cor_bound,
        {"N": N, "k": K, "c": C}, 100),
    "cor_bound_terms": (
        bf.cor_bound_terms, {"N": N, "k": K, "c": C}, 100),
    "dette_imhof_bound": (
        bf.dette_imhof_bound, {"N": N, "eps_unscaled": real(0.0, 50.0)}, 100),
    "gaussian_tail_bound": (
        bf.gaussian_tail_bound, {"N": N, "eps": EPS}, 100),
    "optimize_delta": (bf.optimize_delta, {"r": real(-50.0, 50.0)}, 100),
    "clopper_pearson": (
        bf.clopper_pearson,
        {"hits": integer(0, 50), "trials": COUNT,
         "confidence": CONFIDENCE}, 100),
    "RunningMoments": (bf.RunningMoments, {"dim": integer(1, 8)}, 50),
    "estimate_tail_l2": (
        bf.estimate_tail_l2, {"cfg": CONFIG, "seed_prefix": PREFIX}, 60),
    "estimate_tail_sup": (
        bf.estimate_tail_sup, {"cfg": CONFIG, "seed_prefix": PREFIX}, 60),
    "clt_covariance_test": (bf.clt_covariance_test, {"cfg": CONFIG}, 60),
    "gaussian_reference_tail": (
        bf.gaussian_reference_tail,
        {"N": N, "eps": EPS, "trials": COUNT, "seed": SEED,
         "confidence": CONFIDENCE}, 100),
    # No out path: a sweep here only returns its text.
    "sweep": (
        bf.sweep,
        {"ns": st.lists(N, max_size=2), "ks": st.lists(K, max_size=2),
         "cs": st.lists(C, max_size=2),
         "trials": integer(1, 20), "seed": SEED, "workers": WORKERS,
         "confidence": CONFIDENCE}, 60),
    "default_seed": (bf.default_seed, {}, 1),
    "master_stream": (bf.master_stream, {"seed": SEED}, 50),
    "worker_streams": (
        bf.worker_streams,
        {"seed": SEED, "workers": WORKERS, "prefix": PREFIX}, 50),
}


def test_every_public_callable_has_a_spec():
    public = {name for name in bf.__all__ if callable(getattr(bf, name))}
    assert public == set(SPECS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_returns_or_raises_betafreeze_error(name):
    call, params, examples = SPECS[name]

    @settings(max_examples=examples, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(st.fixed_dictionaries(params))
    def check(kwargs):
        try:
            call(**kwargs)
        except BetafreezeError:
            pass

    check()
