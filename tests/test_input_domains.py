"""Every integer parameter of the public API is checked by ``errors``.

A count or seed must be a Python or NumPy integer: a bool, a float (2.0
included) or a str raises InvalidConfig, never a NumPy TypeError, and is
never truncated; a NumPy integer gives the same result as the int.
"""

import dataclasses

import numpy as np
import pytest

import betafreeze as bf
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
    "hermite_eval-n": (lambda v: bf.hermite_eval(v, 0.3), 3),
    "log_norm_const-N": (lambda v: bf.log_norm_const(v, 2.0), 3),
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
    "cor_bound-N": (lambda v: bf.cor_bound(v, 1e4, 1.0, False), 3),
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
