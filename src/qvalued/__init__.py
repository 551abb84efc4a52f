"""Computations with unordered Q-tuple valued fields in the plane.

The package covers the assignment metric on unordered tuples, sorted
projection embeddings, angle-separated frames with admissible balls and
nested chains, discretised Dirichlet energy minimisation on 2-D grids, and
the conformality, monotonicity and continuity diagnostics built on top.
"""

__version__ = "0.1.0"

from .errors import (
    FrameConstructionError,
    InvalidInputError,
    InvalidStepError,
    NotInBallError,
    NumericalFailureError,
    QValuedError,
)
from .qspace import (
    QPoint,
    SupportDecomposition,
    metric_g,
    metric_g_many,
    min_separation,
    optimal_matching,
    pushforward_projection,
    support,
)
from .embedding import (
    EmbeddedPoint,
    ProjectionFrame,
    embedded_distance,
    frame_with_extra_directions,
    rotated_frame,
    standard_frame,
    xi0,
    xi_alpha,
    xi_full,
)
from .admissible import (
    AdmissibleBall,
    AngleSeparatedFrame,
    ChainLevel,
    NestedBallChain,
    angle_separated_frame,
    constants_block,
    delta_cascade,
    delta_constant,
    interpolate,
    is_admissible,
    modification_constants,
    nested_chain,
    subtract,
    theta0,
    validate_chain,
)
from .field import (
    DEFAULT_C_CL,
    EnergyBreakdown,
    GridField,
    GridSpec,
    MinimizeOptions,
    MinimizeResult,
    branch_plaquettes,
    courant_lebesgue_slice,
    dirichlet_energy,
    dirichlet_energy_matched,
    disc_energy,
    disc_oscillation,
    embed_grid,
    minimize,
    sqrt_field,
)
from .analysis import (
    ContinuityCertificate,
    HarmonicCompanion,
    HopfField,
    MonotonicityReport,
    conformality_defect,
    continuity_certificate,
    d_star,
    harmonic_companion,
    holomorphy_residual,
    hopf_differential,
    key_lemma_check,
    monotone_rho_interval,
    monotonicity_report,
    psi_k,
    tau_star,
    valid_rho_interval,
)
from .variations import (
    DomainVariation,
    RangeVariation,
    StationarityResidual,
    build_admissible_variation,
    domain_variation_derivative,
    range_variation_derivative,
    stationarity_residual,
)
