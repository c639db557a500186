"""Two-ion entangling-gate simulation, tomography and entanglement analysis.

The package simulates the bichromatic spin-dependent-force gate on a pair
of trapped-ion qubits (including motional dynamics and the dominant noise
channels), generates synthetic projective-measurement data in the nine
two-qubit Pauli bases, reconstructs density matrices by constrained
maximum-likelihood fitting, and quantifies the entanglement of the result.
"""

__version__ = "0.1.0"

from .core import (BASIS_LABELS, DensityReport, basis_state, density_from_dict,
                   density_to_dict, herm_eig, kron, partial_transpose,
                   pauli_expansion, pauli_reconstruct, projector,
                   random_density, single_qubit_rotation, validate_density)
from .gate import (ErrorBudget, GateParams, SpinMotionState, TruncationError,
                   apply_ideal_gate, brightness_closed, brightness_curve,
                   displacement_alpha, error_budget, gate_operating_point,
                   parity_closed, prep_error_channel, propagate_spin_motion,
                   scattering_channel, signal_curves, target_state,
                   trajectory_phase)
from .measures import (MeasuresReport, ParityScan, PhaseFit, analyze,
                       concurrence_eof, fidelity, fit_target_phase, negativity,
                       parity_analysis)
from .sampling import BootstrapReport, bootstrap
from .tomography import (SETTINGS, CalibrationResult, CountsRecord,
                         DetectionModel, LinearInversionResult,
                         TomographyResult, calibrate_detection,
                         linear_inversion, mle_fit, outcome_probabilities,
                         setting_rotations, simulate_counts)
from .config import ConfigError, RunConfig, load_config, parse_config

__all__ = [name for name in dir() if not name.startswith("_")]
