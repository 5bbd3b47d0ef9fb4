"""betafreeze: frozen limits of beta-Hermite ensembles.

In the high-interaction limit (beta = 2k, k -> infinity) the spectrum of the
beta-Hermite ensemble freezes onto sqrt(2k) times the Hermite zeros, with
Gaussian fluctuations whose precision matrix has integer spectrum {1..N}.
This package provides:

- Hermite-zero computation with exact-identity diagnostics (hermite_core)
- the limit precision matrix and its spectral invariants (spectral)
- tridiagonal ensemble sampling plus an independent MCMC oracle (sampler)
- explicit finite-k tail bounds and baselines (bounds)
- reproducible Monte Carlo experiments and sweeps (experiment)

Every name exported here is used by the command line, the benchmark in
``perfbench/``, the acceptance tests or another module of the package, and
each of its parameters with a default is set by one of them.

Eigenvalues of the tridiagonal model come from ``betafreeze._core.eigvals_batch``:
the exact 2 x 2 formula at N = 2, certified Newton refinement of the
first-order term in the frozen regime, and batched dense LAPACK ``eigvalsh``
for every other row.
"""

from ._core import first_order_map
from .bounds import (
    BoundBreakdown,
    cor_bound,
    cor_bound_terms,
    cor_eps,
    dette_imhof_bound,
    gaussian_tail_bound,
    optimize_delta,
    prop_bound,
    prop_condition,
)
from .errors import (
    BetafreezeError,
    ConvergenceFailure,
    DegenerateInput,
    FactorizationFailure,
    InvalidConfig,
)
from .experiment import (
    CltReport,
    ExperimentConfig,
    TailEstimate,
    clt_covariance_test,
    estimate_tail_l2,
    estimate_tail_sup,
    gaussian_reference_tail,
    sweep,
)
from .hermite_core import (
    HermiteZeros,
    compute_zeros,
    exponent_M,
    fixed_point_residual,
    potential_identity_gap,
    stirling_bound_margins,
)
from .rng import SEED_ENV_VAR, default_seed, master_stream, worker_streams
from .sampler import (
    chi_variance,
    mh_oracle_chain,
    sample_chi,
    sample_eigenvalue_batch,
    sample_tridiagonal_batch,
)
from .spectral import (
    PrecisionSpectralPair,
    build_precision,
    inverse_power_sum,
    min_gap,
    spectrum_deviation,
)
from .stats import RunningMoments, clopper_pearson

__version__ = "1.0.0"

__all__ = [
    "SEED_ENV_VAR",
    "__version__",
    # errors
    "BetafreezeError",
    "InvalidConfig",
    "ConvergenceFailure",
    "DegenerateInput",
    "FactorizationFailure",
    # hermite_core
    "HermiteZeros",
    "compute_zeros",
    "fixed_point_residual",
    "potential_identity_gap",
    "stirling_bound_margins",
    "exponent_M",
    # spectral
    "PrecisionSpectralPair",
    "build_precision",
    "spectrum_deviation",
    "inverse_power_sum",
    "min_gap",
    # sampler
    "sample_chi",
    "chi_variance",
    "sample_tridiagonal_batch",
    "sample_eigenvalue_batch",
    "mh_oracle_chain",
    # _core
    "first_order_map",
    # bounds
    "BoundBreakdown",
    "prop_condition",
    "prop_bound",
    "cor_eps",
    "cor_bound",
    "cor_bound_terms",
    "dette_imhof_bound",
    "gaussian_tail_bound",
    "optimize_delta",
    # stats
    "clopper_pearson",
    "RunningMoments",
    # experiment
    "ExperimentConfig",
    "TailEstimate",
    "CltReport",
    "estimate_tail_l2",
    "estimate_tail_sup",
    "clt_covariance_test",
    "gaussian_reference_tail",
    "sweep",
    # rng
    "default_seed",
    "master_stream",
    "worker_streams",
]
