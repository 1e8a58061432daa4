"""Entanglement-based QKD over opposite cores of a multicore fiber.

Monte Carlo timetag simulation, coincidence analysis (cross-correlation,
windowed matching, accidental estimation), visibility/QBER/key-rate
evaluation, ring-level reports, a long-term stability protocol and analytic
key-rate extrapolation versus fiber length.
"""

from .qkdmath import (
    BasisCounts,
    KeyRateInputs,
    binary_entropy,
    positive_qber_threshold,
    qber_from_visibility,
    secret_key_rate,
    visibility_from_counts,
)
from .geometry import (
    CoreLayout,
    CorePair,
    EmissionProfile,
    RingCalibration,
    build_layout,
    coupling_probabilities,
    emission_profile_from_temperature,
)
from .photonsim import (
    AnalyzerSetting,
    LinkParams,
    SourceParams,
    apply_polarization_drift,
    joint_outcome_probs,
    simulate_run,
)
from .coincidence import (
    CoincidenceTally,
    CorrelationHistogram,
    count_coincidences,
    cross_correlation,
    estimate_accidentals,
    find_peak_delay,
)
from .linkbudget import LinkModel, keyrate_at_length, max_positive_length, sweep_lengths
from .runner import KeyRateReport, MeasurementSchedule, run_basis_scan, run_stability
from .config import RunConfig, load_config, preset_inner, preset_outer, preset_stability

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BasisCounts",
    "KeyRateInputs",
    "binary_entropy",
    "positive_qber_threshold",
    "qber_from_visibility",
    "secret_key_rate",
    "visibility_from_counts",
    "CoreLayout",
    "CorePair",
    "EmissionProfile",
    "RingCalibration",
    "build_layout",
    "coupling_probabilities",
    "emission_profile_from_temperature",
    "AnalyzerSetting",
    "LinkParams",
    "SourceParams",
    "apply_polarization_drift",
    "joint_outcome_probs",
    "simulate_run",
    "CoincidenceTally",
    "CorrelationHistogram",
    "count_coincidences",
    "cross_correlation",
    "estimate_accidentals",
    "find_peak_delay",
    "LinkModel",
    "keyrate_at_length",
    "max_positive_length",
    "sweep_lengths",
    "KeyRateReport",
    "MeasurementSchedule",
    "run_basis_scan",
    "run_stability",
    "RunConfig",
    "load_config",
    "preset_inner",
    "preset_outer",
    "preset_stability",
]
