"""Spectra, spectral zeta functions, and jump-path Monte Carlo for the
quantum Rabi model.

Four layers:

* ``model`` / ``observables``: banded matrix realizations, eigensolves, and
  exact ground-state observables (the oracle side of every cross-check).
* ``zeta``: Hurwitz zeta by Euler-Maclaurin plus spectral zeta functions
  with bracketed tail completion and the coupling-limit tables.
* ``paths`` / ``estimators`` / ``jumplaw`` / ``kernels``: Poisson spin paths
  sampled in flat batches over one seed-stream rule, closed-form batch path
  functionals, importance-weighted ground ensembles, and every jump-path
  estimator cross-validated against the exact values.
* ``cli``: the ``rabizeta`` executable.
"""

from .errors import (
    ConvergenceError,
    DomainError,
    NumericalError,
    ParameterError,
    RabiZetaError,
    UnsupportedConfigError,
)
from .estimators import (
    MCEstimate,
    gaussian_square_fk,
    gibbs_number_fk,
    ground_energy_fk,
    number_moments_fk,
    partition_fk,
    resolvent_cross_moment_fk,
    spin_correlation_fk,
    stirling2,
    vacuum_element_fk,
    x_characteristic_fk,
)
from .jumplaw import (
    closed_pair_moments,
    damped_sign_cdf,
    damped_sign_density,
    damped_sign_ks,
    damped_sign_moment,
    ks_critical_value,
    pair_moment_table,
    sample_damped_sign_pair,
)
from .kernels import (
    gaussian_overlap_element_fk,
    heat_kernel_component,
    heat_kernel_flip_sum,
    mehler_kernel,
    ou_bridge_coefficients,
    ou_bridge_covariance,
    ou_transition_density,
)
from .model import (
    ModelParams,
    Spectrum,
    SymBandMatrix,
    Truncation,
    adaptive_spectrum,
    build_full_hamiltonian,
    build_parity_tridiagonal,
    eigensolve,
)
from .observables import (
    GroundState,
    gibbs_number_ed,
    ground_state,
    number_moment_ed,
    number_parity_expectation,
    partition_ed,
    pull_through_residual,
    resolvent_spin_norm,
    semigroup_matrix_element_ed,
    semigroup_trace_ed,
    spin_autocorrelation_ed,
    vacuum_element_ed,
    x_characteristic_ed,
    x_square_exponential_ed,
)
from .paths import (
    DEFAULT_SEED,
    WeightedPathEnsemble,
    build_ground_ensemble,
)
from .zeta import (
    ZetaValue,
    eigenvalue_limit_table,
    hurwitz_zeta,
    spectral_zeta,
    variant_target,
    zeta_limit_table,
    zeta_variant_value,
)

__version__ = "0.1.0"
