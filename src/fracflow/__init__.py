"""Pseudo-spectral simulation and statistical verification of the
fractional convection-diffusion equation with Gaussian random initial
data on a periodic torus."""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    FracflowError,
    NonContractionError,
    NumericError,
    ResolutionError,
)
from .spectral import (
    Grid,
    MultiplierOp,
    apply_multiplier_values,
    gradient_constant,
    grad_semigroup_multiplier,
    kernel_values,
    l2_norm,
    semigroup_multiplier,
    spatial_rms,
)
from .random_fields import (
    Ensemble,
    OrthogonalityStat,
    SpectralMeasure,
    SpectrumEstimate,
    directional_orthogonality_stat,
    estimate_spectrum,
    export_ensemble,
    gaussian_bump_measure,
    load_ensemble,
    measure_from_spec,
    power_law_measure,
    sample_ensemble,
    two_mode_measure,
)
from .solver import (
    NonlinearitySpec,
    PicardDiagnostics,
    SolverConfig,
    contraction_bound,
    cutoff_map,
    minimal_K,
    picard_solve,
    step_solve,
)
from .ensemble_stats import (
    DissipationReport,
    MomentSeries,
    convexity_members,
    dissipation_residual,
    format_table,
    moment_series,
)
from .experiments import (
    Experiment,
    ExperimentResult,
    get_experiment,
    list_experiments,
    parallel_picard,
)
from .runner import RunConfig, RunManifest, replay_run, run_experiment

__all__ = [
    "__version__",
    "ConfigurationError", "FracflowError", "NonContractionError",
    "NumericError", "ResolutionError",
    "Grid", "MultiplierOp", "apply_multiplier_values", "gradient_constant",
    "grad_semigroup_multiplier", "kernel_values", "l2_norm",
    "semigroup_multiplier", "spatial_rms",
    "Ensemble", "OrthogonalityStat", "SpectralMeasure", "SpectrumEstimate",
    "directional_orthogonality_stat", "estimate_spectrum", "export_ensemble",
    "gaussian_bump_measure", "load_ensemble", "measure_from_spec",
    "power_law_measure", "sample_ensemble", "two_mode_measure",
    "NonlinearitySpec", "PicardDiagnostics", "SolverConfig",
    "contraction_bound", "cutoff_map", "minimal_K", "picard_solve",
    "step_solve",
    "DissipationReport", "MomentSeries", "convexity_members",
    "dissipation_residual", "format_table", "moment_series",
    "Experiment", "ExperimentResult", "get_experiment", "list_experiments",
    "parallel_picard",
    "RunConfig", "RunManifest", "replay_run", "run_experiment",
]
