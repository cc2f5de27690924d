"""Open-system dynamics in the rapid-decay scaling regime.

The package covers a dissipative two-level system (triple/Bloch
evolution, Lindblad form, complete-positivity diagnostics) and quantum
Brownian motion of a harmonic oscillator (memory-kernel propagator,
time-local master-equation coefficients, Gaussian moment transport and
a truncated number-basis cross-check), plus a small scenario runner
behind the ``opendecay`` command line.
"""

__version__ = "0.1.0"

from . import qbm  # noqa: F401  (re-export the subpackage)
from .acceptance import CriterionResult, run_all
from .bloch import (
    DecaySpectrum,
    decay_spectrum,
    find_classification_boundary,
    propagate_bloch,
    rapid_generator,
    weak_generator,
)
from .errors import (
    AccuracyError,
    ConfigError,
    ConventionMismatchError,
    DegenerateSystemError,
    IntegratorAccuracyError,
    InversionError,
    NodeSingularityError,
    OpenDecayError,
    OverdampedRenormalizationError,
    StiffnessError,
    StructuralError,
    TruncationError,
    ValidationError,
)
from .lindblad import (
    GKSReport,
    bloch_density_bridge,
    gks_check,
    propagate_density,
    random_density_matrix,
    spin_liouvillian,
)
from .model import (
    BathSpectrum,
    GaussianState,
    OscillatorParams,
    SpinBosonParams,
    make_spin_params,
)
from .scenarios import (
    ResultTable,
    parse_config,
    parse_csv,
    parse_json,
    run_scenario,
)
from .spectral import (
    gamma_theta,
    gamma_theta_weak,
    renormalized_frequency_sq,
    spectral_density,
)

__all__ = [
    "__version__",
    # errors
    "OpenDecayError",
    "ConfigError",
    "ValidationError",
    "DegenerateSystemError",
    "AccuracyError",
    "OverdampedRenormalizationError",
    "StiffnessError",
    "IntegratorAccuracyError",
    "ConventionMismatchError",
    "StructuralError",
    "NodeSingularityError",
    "InversionError",
    "TruncationError",
    # model
    "SpinBosonParams",
    "make_spin_params",
    "OscillatorParams",
    "BathSpectrum",
    "GaussianState",
    # spectral
    "spectral_density",
    "gamma_theta",
    "gamma_theta_weak",
    "renormalized_frequency_sq",
    # bloch
    "DecaySpectrum",
    "rapid_generator",
    "weak_generator",
    "propagate_bloch",
    "decay_spectrum",
    "find_classification_boundary",
    # lindblad
    "GKSReport",
    "spin_liouvillian",
    "propagate_density",
    "random_density_matrix",
    "gks_check",
    "bloch_density_bridge",
    # scenarios / acceptance
    "ResultTable",
    "parse_config",
    "parse_csv",
    "parse_json",
    "run_scenario",
    "CriterionResult",
    "run_all",
    "qbm",
]
