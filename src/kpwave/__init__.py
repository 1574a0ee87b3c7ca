"""Pseudo-spectral simulator and asymptotics toolkit for a two-dimensional
dispersive wave model with third-order x-dispersion and an inverse-x
transverse term, on a periodic box with zero x-mean."""

__version__ = "0.1.0"  # first: `harness` records it in each run's manifest

from .errors import (
    ConfigError,
    DomainError,
    GridMismatchError,
    InvalidInputError,
    StepFailureError,
    ToolkitError,
)
from .grids import (
    ComplexField,
    Grid2D,
    Multiplier,
    RealField,
    SpectralField,
    dispersion_omega,
    forward_transform,
    inverse_transform,
    l2_norm,
    load_snapshot,
    multiplier_dx,
    multiplier_dy,
    multiplier_omega,
    project_field,
    save_snapshot,
    sup_norm,
)
from .evolution import (
    SolverConfig,
    Trajectory,
    apply_symmetry,
    evolve,
    evolve_linearized,
    galilean_fourier_map,
    linear_propagate,
    nonlinear_term,
    step_nonlinear,
)
from .geometry import (
    RayVelocity,
    ResonantTriad,
    group_velocity,
    phase_phi,
    ray_frequency,
    resonant_triad,
)
from .vfields import (
    UntrustedFieldWarning,
    VectorFieldId,
    XNormReport,
    apply_vector_field,
    derivative,
    leakage_fraction,
    x_norm,
)
from .decompose import (
    DyadicPiece,
    HypEllSplit,
    PointwiseProfile,
    dyadic_decompose,
    hyperbolic_elliptic_split,
    pointwise_profile,
    split_sign_frequencies,
)
from .packets import (
    GammaSeries,
    PacketParams,
    build_packet,
    gamma,
    gamma_dot_series,
    packet_residual,
    reconstruction_error,
)
from .scattering import (
    BandProjection,
    ScatterReport,
    band_project,
    compute_umod,
    extract_scatter_data,
    scattering_residuals,
)
from .harness import (
    DecayFit,
    DiagnosticSpec,
    ExperimentConfig,
    InitialSpec,
    Pulse,
    build_initial_data,
    fit_decay,
    run_experiment,
    run_theorem_suite,
    sup_norm_series,
    theorem_suite_configs,
)
