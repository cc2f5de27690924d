"""Quantum Brownian motion in the rapid-decay scaling.

Submodules:

- :mod:`~opendecay.qbm.kernels`      bath memory kernels and their Laplace image
- :mod:`~opendecay.qbm.propagator`   Volterra / Laplace-inversion routes to G
- :mod:`~opendecay.qbm.coefficients` time-local master-equation coefficients
- :mod:`~opendecay.qbm.moments`      Gaussian moment transport
- :mod:`~opendecay.qbm.fock`         truncated number-basis cross-check
"""

from .coefficients import (
    LambdaTheta,
    QBMCoefficients,
    exact_coefficients,
    lambda_theta,
    limit_coefficients,
    limit_lambda_theta,
    theta_coefficients,
)
from .fock import (
    coherent_density,
    fock_liouvillian,
    fock_moments,
    ladder_operators,
    truncated_basis_propagate,
)
from .kernels import (
    dissipation_kernel,
    mu_laplace,
    noise_kernel,
    trigamma_complex,
)
from .moments import MOMENT_LABELS, coefficient_weights, propagate_moments
from .propagator import (
    PropagatorFunction,
    propagator_via_laplace,
    solve_propagator,
)

__all__ = [
    "dissipation_kernel",
    "noise_kernel",
    "mu_laplace",
    "trigamma_complex",
    "PropagatorFunction",
    "solve_propagator",
    "propagator_via_laplace",
    "LambdaTheta",
    "QBMCoefficients",
    "theta_coefficients",
    "lambda_theta",
    "limit_lambda_theta",
    "exact_coefficients",
    "limit_coefficients",
    "MOMENT_LABELS",
    "coefficient_weights",
    "propagate_moments",
    "coherent_density",
    "fock_liouvillian",
    "fock_moments",
    "ladder_operators",
    "truncated_basis_propagate",
]
