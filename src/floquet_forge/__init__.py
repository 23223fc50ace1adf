"""Effective Hamiltonians of periodically shaken tight-binding lattices.

Build a lattice (preset or explicit bonds), attach a periodic shaking force,
and get: per-bond Fourier harmonics of the driven tunneling, the leading and
first-order effective tunneling matrices in two gauges, geometric selection
rules for the emergent two-step couplings, and exact one-period propagation
to verify the expansion order by order.
"""

from .drive import (
    BondHarmonics,
    DriveSpec,
    Harmonic,
    circular_drive,
    lattice_harmonics,
    linear_drive,
    phase,
    rescale_drive,
)
from .effective import (
    EffectiveModel,
    Gauge,
    TwoStepAmplitude,
    beta_general,
    beta_static_free,
    build_effective_model,
    effective_bloch,
)
from .errors import (
    ConsistencyError,
    ConvergenceError,
    CutoffTooSmallError,
    ValidationError,
)
from .floquet import (
    PowerLawFit,
    QuasiSpectrum,
    bloch_hamiltonian_t,
    commutator_offsets,
    error_matrix,
    fit_power_law,
    fold,
    gauge_difference_errors,
    magnus_commutator_probe,
    match_distance,
    match_permutation,
    offset_matrices_at_time,
    propagate_period,
    quasienergies_from_propagator,
    scaling_errors,
)
from .kpath import KPath, bz_grid, high_symmetry_points, named_kpath
from .lattice import (
    Bond,
    Geometry,
    LatticeSpec,
    OffsetMatrix,
    bloch_matrix,
    classify_geometry,
    close_hermitian,
    reciprocal_vectors,
    translational_identity_check,
    undriven_offsets,
)
from .presets import PRESET_NAMES, preset
from .selection import (
    ConsistencyVerdict,
    Coupling,
    CouplingClass,
    ProcessClass,
    ProcessReport,
    TwoStepProcess,
    cross_validate,
    enumerate_processes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Bond",
    "BondHarmonics",
    "ConsistencyError",
    "ConsistencyVerdict",
    "ConvergenceError",
    "Coupling",
    "CouplingClass",
    "CutoffTooSmallError",
    "DriveSpec",
    "EffectiveModel",
    "Gauge",
    "Geometry",
    "Harmonic",
    "KPath",
    "LatticeSpec",
    "OffsetMatrix",
    "PowerLawFit",
    "ProcessClass",
    "ProcessReport",
    "QuasiSpectrum",
    "TwoStepAmplitude",
    "TwoStepProcess",
    "ValidationError",
    "PRESET_NAMES",
    "beta_general",
    "beta_static_free",
    "bloch_hamiltonian_t",
    "bloch_matrix",
    "build_effective_model",
    "bz_grid",
    "circular_drive",
    "classify_geometry",
    "close_hermitian",
    "commutator_offsets",
    "cross_validate",
    "effective_bloch",
    "enumerate_processes",
    "error_matrix",
    "fit_power_law",
    "fold",
    "gauge_difference_errors",
    "high_symmetry_points",
    "lattice_harmonics",
    "linear_drive",
    "magnus_commutator_probe",
    "match_distance",
    "match_permutation",
    "named_kpath",
    "offset_matrices_at_time",
    "phase",
    "preset",
    "propagate_period",
    "quasienergies_from_propagator",
    "reciprocal_vectors",
    "rescale_drive",
    "scaling_errors",
    "translational_identity_check",
    "undriven_offsets",
]
