"""Collar geometry, quadratic differentials and harmonic map flow on degenerating cylinders."""

__version__ = "0.1.0"

from collarflow.geometry import (
    ELL_MAX,
    CollarGrid,
    DomainError,
    Dz2Norms,
    conformal_factor,
    delta_thin_half_length,
    dz2_norms,
    half_length,
    injectivity_radius,
    log_rho_slope,
)
from collarflow.fields import (
    EnergyReport,
    MapField,
    MapJet,
    TargetSpec,
    energies,
    jet,
    sample_map,
    tension,
    tension_l2,
    theta_profile,
)
from collarflow.quad_diff import (
    FourierQD,
    PrincipalSplit,
    QuadDiffField,
    coordinate_differential,
    fourier_decompose,
    hopf_differential,
    inner_product,
    lp_norm,
    principal_split,
    project_holomorphic,
    scaled_mode_field,
    synthesize,
    thin_thick_decay_ratio,
)
from collarflow.flow import (
    FlowConfig,
    FlowError,
    FlowState,
    FlowTrace,
    initial_state,
    metric_speed,
    run,
    stability_limit,
)
from collarflow.angular import comparison_pairs
from collarflow.wp import (
    integrate_to_pinch,
    pinch_speed,
    speed_normalizer,
)
