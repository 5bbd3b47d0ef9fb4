"""Every integer and real parameter of the public API is checked by ``errors``.

A count or seed must be a Python or NumPy integer: a bool, a float (2.0
included) or a str raises InvalidConfig, never a NumPy TypeError, and is
never truncated; a NumPy integer gives the same result as the int.  A real
must be a Python or NumPy real inside its domain: a bool, a str, None or NaN
raises InvalidConfig and is never converted; a NumPy float gives the same
result as the float.  A zero vector must be a 1-D array of at least 2
finite numbers.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import betafreeze as bf
from betafreeze.cli import main
from betafreeze.errors import InvalidConfig


def _tail(norm="l2", n=3, trials=50, seed=1, workers=1):
    cfg = bf.ExperimentConfig(n=n, k=1e3, trials=trials, seed=seed, c=1.0,
                              workers=workers)
    return (bf.estimate_tail_l2 if norm == "l2" else bf.estimate_tail_sup)(cfg)


def _clt(n=3, trials=50, seed=1, workers=1):
    return bf.clt_covariance_test(
        bf.ExperimentConfig(n=n, k=1e3, trials=trials, seed=seed, workers=workers)
    )


def _sweep(ns=(3,), trials=20, seed=1, workers=1):
    return bf.sweep(ns, [1e3], [1.0], trials=trials, seed=seed, workers=workers)


def _streams(seed=1, workers=2):
    return [g.random(3) for g in bf.worker_streams(seed, workers)]


def _tridiagonal(n=3, trials=4):
    return bf.sample_tridiagonal_batch(n, 10.0, bf.master_stream(1), trials)


def _eigenvalues(n=3, trials=4):
    return bf.sample_eigenvalue_batch(n, 10.0, bf.master_stream(1), trials)


def _oracle(n=2, draws=3):
    return bf.mh_oracle_chain(n, 1.0, bf.master_stream(1), draws)


#: (parameter, call with that parameter set to v, a valid int value).
INTEGER_PARAMETERS = {
    "compute_zeros-n": (bf.compute_zeros, 3),
    "HermiteZeros-n": (lambda v: bf.HermiteZeros(v, [1.0, -1.0]), 2),
    "exponent_M-N": (lambda v: bf.exponent_M(v, 2.0), 3),
    "first_order_map-n": (bf.first_order_map, 3),
    "sample_tridiagonal_batch-n": (lambda v: _tridiagonal(n=v), 3),
    "sample_tridiagonal_batch-trials": (lambda v: _tridiagonal(trials=v), 3),
    "sample_eigenvalue_batch-n": (lambda v: _eigenvalues(n=v), 3),
    "sample_eigenvalue_batch-trials": (lambda v: _eigenvalues(trials=v), 3),
    "mh_oracle_chain-n": (lambda v: _oracle(n=v), 3),
    "mh_oracle_chain-draws": (lambda v: _oracle(draws=v), 3),
    "prop_condition-N": (lambda v: bf.prop_condition(v, 1e4, 0.01), 3),
    "prop_bound-N": (lambda v: bf.prop_bound(v, 1e4, 0.01), 3),
    "cor_condition-N": (lambda v: bf.cor_condition(v, 1e4, 1.0), 3),
    "cor_bound_terms-N": (lambda v: bf.cor_bound_terms(v, 1e4, 1.0), 3),
    "cor_bound-N": (lambda v: bf.cor_bound(v, 1e4, 1.0), 3),
    "dette_imhof_bound-N": (lambda v: bf.dette_imhof_bound(v, 1.0), 3),
    "gaussian_tail_bound-N": (lambda v: bf.gaussian_tail_bound(v, 1.0), 3),
    "clopper_pearson-hits": (lambda v: bf.clopper_pearson(v, 10), 3),
    "clopper_pearson-trials": (lambda v: bf.clopper_pearson(1, v), 3),
    "master_stream-seed": (lambda v: bf.master_stream(v).random(3), 3),
    "worker_streams-seed": (lambda v: _streams(seed=v), 3),
    "worker_streams-workers": (lambda v: _streams(workers=v), 3),
    "estimate_tail_l2-n": (lambda v: _tail(n=v), 3),
    "estimate_tail_l2-trials": (lambda v: _tail(trials=v), 3),
    "estimate_tail_l2-seed": (lambda v: _tail(seed=v), 3),
    "estimate_tail_l2-workers": (lambda v: _tail(workers=v), 3),
    "estimate_tail_sup-n": (lambda v: _tail("sup", n=v), 3),
    "estimate_tail_sup-trials": (lambda v: _tail("sup", trials=v), 3),
    "clt_covariance_test-n": (lambda v: _clt(n=v), 3),
    "clt_covariance_test-trials": (lambda v: _clt(trials=v), 3),
    "clt_covariance_test-seed": (lambda v: _clt(seed=v), 3),
    "clt_covariance_test-workers": (lambda v: _clt(workers=v), 3),
    "gaussian_reference_tail-N": (
        lambda v: bf.gaussian_reference_tail(v, 1.0, 50, 1), 3),
    "gaussian_reference_tail-trials": (
        lambda v: bf.gaussian_reference_tail(3, 1.0, v, 1), 3),
    "gaussian_reference_tail-seed": (
        lambda v: bf.gaussian_reference_tail(3, 1.0, 50, v), 3),
    "sweep-n": (lambda v: _sweep(ns=[v]), 3),
    "sweep-trials": (lambda v: _sweep(trials=v), 3),
    "sweep-seed": (lambda v: _sweep(seed=v), 3),
    "sweep-workers": (lambda v: _sweep(workers=v), 3),
}


def _assert_same(a, b):
    if dataclasses.is_dataclass(a):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            _assert_same(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (tuple, list)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_same(x, y)
    elif isinstance(a, np.ndarray):
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("call, good", INTEGER_PARAMETERS.values(),
                         ids=INTEGER_PARAMETERS.keys())
def test_integer_parameter_domain(call, good):
    for bad in (2.5, 2.0, True, "3"):
        with pytest.raises(InvalidConfig, match="must be an integer"):
            call(bad)
    _assert_same(call(np.int64(good)), call(good))


def test_sweep_does_not_truncate_n():
    # N = 2.7 used to run, and be reported, as N = 2.
    with pytest.raises(InvalidConfig, match="n must be an integer, got 2.7"):
        bf.sweep([2.7], [1e3], [1.0], trials=10, seed=1)


# ----------------------------------------------------------------------
# Real parameters
# ----------------------------------------------------------------------

def _cfg(**kw):
    base = dict(n=3, k=1e3, trials=50, seed=1, c=1.0)
    base.update(kw)
    if "eps" in kw:
        base.pop("c")
    return bf.ExperimentConfig(**base)


#: (parameter, call with that parameter set to v, a valid float value).
REAL_PARAMETERS = {
    "prop_condition-k": (lambda v: bf.prop_condition(3, v, 0.01), 1e4),
    "prop_condition-eps": (lambda v: bf.prop_condition(3, 1e4, v), 0.01),
    "prop_bound-k": (lambda v: bf.prop_bound(3, v, 0.01), 1e4),
    "prop_bound-eps": (lambda v: bf.prop_bound(3, 1e4, v), 0.01),
    "cor_eps-k": (lambda v: bf.cor_eps(v, 1.0), 1e4),
    "cor_eps-c": (lambda v: bf.cor_eps(1e4, v), 1.0),
    "cor_condition-k": (lambda v: bf.cor_condition(3, v, 1.0), 1e4),
    "cor_condition-c": (lambda v: bf.cor_condition(3, 1e4, v), 1.0),
    "cor_bound_terms-k": (lambda v: bf.cor_bound_terms(3, v, 1.0), 1e4),
    "cor_bound_terms-c": (lambda v: bf.cor_bound_terms(3, 1e4, v), 1.0),
    "cor_bound-k": (lambda v: bf.cor_bound(3, v, 1.0), 1e4),
    "cor_bound-c": (lambda v: bf.cor_bound(3, 1e4, v), 1.0),
    "dette_imhof_bound-eps": (lambda v: bf.dette_imhof_bound(2, v), 1.0),
    "gaussian_tail_bound-eps": (lambda v: bf.gaussian_tail_bound(3, v), 1.0),
    "optimize_delta-r": (bf.optimize_delta, -5.0),
    "exponent_M-k": (lambda v: bf.exponent_M(3, v), 2.0),
    "sample_tridiagonal_batch-k": (
        lambda v: bf.sample_tridiagonal_batch(3, v, bf.master_stream(1), 4),
        10.0),
    "sample_eigenvalue_batch-k": (
        lambda v: bf.sample_eigenvalue_batch(3, v, bf.master_stream(1), 4),
        10.0),
    # The good value would run the whole oracle; only bad values here.
    "mh_oracle_chain-k": (
        lambda v: bf.mh_oracle_chain(2, v, bf.master_stream(1), 3), None),
    "clopper_pearson-confidence": (
        lambda v: bf.clopper_pearson(1, 10, v), 0.9),
    "estimate_tail_l2-k": (lambda v: bf.estimate_tail_l2(_cfg(k=v)), 1e3),
    "estimate_tail_l2-eps": (
        lambda v: bf.estimate_tail_l2(_cfg(eps=v)), 0.1),
    "estimate_tail_l2-c": (lambda v: bf.estimate_tail_l2(_cfg(c=v)), 1.0),
    "estimate_tail_l2-confidence": (
        lambda v: bf.estimate_tail_l2(_cfg(confidence=v)), 0.9),
    "estimate_tail_sup-eps": (
        lambda v: bf.estimate_tail_sup(_cfg(eps=v)), 3.0),
    "clt_covariance_test-k": (
        lambda v: bf.clt_covariance_test(
            bf.ExperimentConfig(n=3, k=v, trials=50, seed=1)), 1e3),
    "gaussian_reference_tail-eps": (
        lambda v: bf.gaussian_reference_tail(3, v, 50, 1), 1.0),
    "gaussian_reference_tail-confidence": (
        lambda v: bf.gaussian_reference_tail(3, 1.0, 50, 1, v), 0.9),
    "sweep-k": (lambda v: bf.sweep([3], [v], [1.0], trials=20, seed=1), 1e3),
    "sweep-c": (lambda v: bf.sweep([3], [1e3], [v], trials=20, seed=1), 1.0),
    "sweep-confidence": (
        lambda v: bf.sweep([3], [1e3], [1.0], trials=20, seed=1,
                           confidence=v), 0.9),
}


@pytest.mark.parametrize("call, good", REAL_PARAMETERS.values(),
                         ids=REAL_PARAMETERS.keys())
def test_real_parameter_domain(call, good):
    # A str, None or bool is never taken as a number, NaN never passes,
    # and a NumPy float gives the same result as the float.
    for bad in (True, np.bool_(False), "2", "1e4", None, math.nan):
        with pytest.raises(InvalidConfig, match="must be"):
            call(bad)
    if good is not None:
        _assert_same(call(np.float64(good)), call(good))


def test_int_reals_take_the_float_path():
    # A JSON-integer k and c give the rows of their floats.
    assert (bf.sweep([2], [1000], [1], trials=30, seed=2)
            == bf.sweep([2], [1000.0], [1.0], trials=30, seed=2))
    _assert_same(bf.prop_bound(3, 10_000, 1), bf.prop_bound(3, 1e4, 1.0))
    with pytest.raises(InvalidConfig, match="k must be positive and finite"):
        bf.prop_bound(3, 10**400, 0.01)  # no float holds it
    # An int whose square leaves float range, and an np.float32, are
    # multiplied as Python floats: these raised OverflowError, or warned
    # of a float32 overflow, and now give the float inputs' results.
    for call, reals in [
        (bf.dette_imhof_bound, (10**200,)),
        (bf.gaussian_tail_bound, (10**200,)),
        (bf.prop_bound, (10**300, 10**10)),
        (bf.cor_bound_terms, (10**4, 10**200)),
        (bf.cor_bound, (10**4, 10**200)),
        (bf.prop_bound, (np.float32(1e30), np.float32(1e10))),
    ]:
        _assert_same(call(2, *reals), call(2, *map(float, reals)))
    assert bf.dette_imhof_bound(2, 10**200) == 0.0
    assert bf.gaussian_tail_bound(2, 10**200) == 0.0
    assert bf.prop_bound(2, 10**300, 10**10).total == math.inf
    assert bf.cor_bound_terms(2, 10**4, 10**200) == (math.inf, 0.0)
    total = bf.prop_bound(2, np.float32(1e30), np.float32(1e10)).total
    assert total == pytest.approx(256.0 / 3.0 * 1e70, rel=1e-6)


#: (call, accepted values, rejected values): the ends of each real domain.
REAL_DOMAINS = {
    "k in (0, inf)": (
        lambda v: bf.sample_tridiagonal_batch(3, v, bf.master_stream(1), 2),
        [5e-324, 1e300], [0.0, -1.0, math.inf]),
    "k in [1, inf)": (lambda v: bf.prop_bound(3, v, 0.01),
                      [1.0, 1e300], [0.999, math.inf]),
    "k in (1, inf)": (lambda v: bf.cor_eps(v, 1.0),
                      [1.0000000000000002, 1e300], [1.0, math.inf]),
    "threshold in (0, inf)": (lambda v: bf.gaussian_tail_bound(3, v),
                              [5e-324, 1e300], [0.0, math.inf]),
    "confidence in (0, 1)": (lambda v: bf.clopper_pearson(1, 10, v),
                             [1e-9, 0.999], [0.0, 1.0, -math.inf]),
    "eps in (0, inf]": (
        lambda v: _cfg(eps=v).resolve_eps(),
        [5e-324, math.inf], [0.0, -math.inf]),
    "eps in [0, inf]": (lambda v: bf.dette_imhof_bound(2, v),
                        [0.0, math.inf], [-5e-324, -math.inf]),
    "r in [-inf, inf]": (bf.optimize_delta, [-math.inf, math.inf], []),
}


@pytest.mark.parametrize("call, accepted, rejected", REAL_DOMAINS.values(),
                         ids=REAL_DOMAINS.keys())
def test_real_domain_ends(call, accepted, rejected):
    for v in accepted:
        call(v)
    for v in rejected + [math.nan]:
        with pytest.raises(InvalidConfig):
            call(v)


def test_real_error_messages():
    # The oracle's nan k used to read "restricted to k <= 10".
    with pytest.raises(InvalidConfig, match="k must be positive and finite"):
        bf.mh_oracle_chain(2, math.nan, bf.master_stream(1), 3)
    with pytest.raises(InvalidConfig, match=r"k must be in \[1, inf\), got 0.5"):
        bf.prop_bound(3, 0.5, 0.01)
    with pytest.raises(InvalidConfig, match="k must be a real number, got '1e4'"):
        bf.prop_bound(3, "1e4", 0.1)
    with pytest.raises(InvalidConfig, match=r"r must be in \[-inf, inf\], got nan"):
        bf.optimize_delta(math.nan)


@pytest.mark.parametrize("call", [
    lambda: bf.chi_variance("3"),
    lambda: bf.chi_variance([3, "4"]),
    lambda: bf.chi_variance(True),
    lambda: bf.chi_variance([2.0, None]),
    lambda: bf.sample_chi(bf.master_stream(1), "3"),
    lambda: bf.sample_chi(bf.master_stream(1), [1.0, 2.0], size=3),
    lambda: bf.stirling_bound_margins(math.nan),
    lambda: bf.stirling_bound_margins([2.0, math.nan]),
    lambda: bf.stirling_bound_margins(math.inf),
    lambda: bf.stirling_bound_margins("3"),
    lambda: bf.stirling_bound_margins(True),
], ids=["chi_variance-str", "chi_variance-mixed", "chi_variance-bool",
        "chi_variance-none", "sample_chi-str", "sample_chi-size",
        "margins-nan", "margins-nan-entry", "margins-inf", "margins-str",
        "margins-bool"])
def test_array_reals_rejected(call):
    with pytest.raises(InvalidConfig):
        call()


def test_array_reals_accept_integer_arrays():
    _assert_same(bf.chi_variance(np.array([3, 4])), bf.chi_variance([3.0, 4.0]))
    _assert_same(bf.stirling_bound_margins(np.array([2, 30])),
                 bf.stirling_bound_margins([2.0, 30.0]))


# ----------------------------------------------------------------------
# Zero vectors and batches
# ----------------------------------------------------------------------

@pytest.mark.parametrize("call", [
    lambda: bf.fixed_point_residual(None),
    lambda: bf.fixed_point_residual([math.nan, 1.0]),
    lambda: bf.min_gap([1.0]),
    lambda: bf.potential_identity_gap("abc"),
    lambda: bf.inverse_power_sum([[1.0, 2.0]], 2),
    lambda: bf.build_precision([True, False]),
    lambda: bf.build_precision([1.0, -math.inf]),
    lambda: bf.HermiteZeros(2, "ab"),
    lambda: bf.min_gap([[1.0], [1.0, 2.0]]),
], ids=["residual-none", "residual-nan", "min_gap-one-entry",
        "gap-str", "power_sum-2d", "precision-bool", "precision-inf",
        "HermiteZeros-str", "min_gap-ragged"])
def test_zero_vectors_rejected(call):
    # These raised IndexError or ValueError, or returned NaN.
    with pytest.raises(InvalidConfig, match="zero vector"):
        call()


@pytest.mark.parametrize("call", [
    lambda: bf.RunningMoments(2).add_batch("abc"),
    lambda: bf.RunningMoments(2).add_batch([[True, False]]),
    lambda: bf.spectrum_deviation(None),
    lambda: bf.spectrum_deviation(bf.compute_zeros(3)),
    lambda: bf.inverse_power_sum(bf.compute_zeros(3).zeros, 2.0),
], ids=["add_batch-str", "add_batch-bool", "spectrum-none",
        "spectrum-zeros", "power_sum-float-p"])
def test_batches_and_pairs_rejected(call):
    with pytest.raises(InvalidConfig):
        call()


def test_zero_vectors_and_batches_accept_integer_arrays():
    z = np.array([2, 0, -2])
    assert bf.min_gap(z) == bf.min_gap([2.0, 0.0, -2.0]) == 2.0
    _assert_same(bf.build_precision(z), bf.build_precision(z.astype(float)))
    ints, floats = bf.RunningMoments(2), bf.RunningMoments(2)
    ints.add_batch(np.array([[1, 2], [3, 5]]))
    floats.add_batch([[1.0, 2.0], [3.0, 5.0]])
    _assert_same(ints.m2, floats.m2)


@pytest.mark.parametrize("key, value", [
    ("k", ["1e3"]), ("c", [True]), ("confidence", "0.9"), ("confidence", None),
])
def test_sweep_config_reals_not_converted(tmp_path, capsys, key, value):
    config = {"n": [2], "k": [1e3], "c": [1.0], "trials": 20, "seed": 1}
    config[key] = value
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be" in captured.err
