"""qclab: a numerical laboratory for quasiconformal extremal maps.

Spiral and linear stretch families with closed-form Wirtinger derivatives,
convex distortion gauges, deterministic midpoint quadrature on annuli and
rectangles, mean-distortion functionals and deficits, Cauchy-Pompeiu
transforms, lemma audits, and epsilon-ladder stability experiments that
recover the sharp square-root stability exponent.
"""

__version__ = "0.1.0"

from ._kernels import backend_name
from .errors import (
    AccuracyError,
    BreakSetError,
    DegenerateExperimentError,
    DomainError,
    InputError,
    NonFiniteSampleError,
    QclabError,
    UnsupportedVariantError,
)
from .gauges import ConvexGauge
from .geometry import (
    AnnulusDomain,
    QuadratureGrid,
    RectangleDomain,
    build_cartesian_grid,
    build_polar_grid,
    integrate,
    integrate_complex,
)
from .functionals import (
    Density,
    conformal_transfer_check,
    deficit,
    l1_distance,
    mean_distortion,
)
from .maps import (
    Composition,
    ConjugationMap,
    IdentityMap,
    InverseLinearStretch,
    InverseSpiralStretch,
    LinearStretch,
    PiecewiseLinearStretch,
    PiecewiseRadialStretch,
    Rotation,
    SpiralStretch,
)
from .pompeiu import (
    annulus_trace,
    cauchy_boundary,
    dbar_field,
    kernel_mass,
    offset_targets,
    phi_dbar_mass,
    pompeiu_area,
    psi_dbar_mass,
    reconstruct,
    reconstruct_many,
)
from .stability import (
    LadderConfig,
    audit_alignment,
    audit_gn_gap,
    audit_k_l2,
    audit_k_mean,
    audit_taylor,
    audit_theta,
    run_flat_gauge_ladder,
    run_ladder,
)

__all__ = [
    "AccuracyError",
    "AnnulusDomain",
    "BreakSetError",
    "Composition",
    "ConjugationMap",
    "ConvexGauge",
    "DegenerateExperimentError",
    "Density",
    "DomainError",
    "IdentityMap",
    "InputError",
    "InverseLinearStretch",
    "InverseSpiralStretch",
    "LadderConfig",
    "LinearStretch",
    "NonFiniteSampleError",
    "PiecewiseLinearStretch",
    "PiecewiseRadialStretch",
    "QclabError",
    "QuadratureGrid",
    "RectangleDomain",
    "Rotation",
    "SpiralStretch",
    "UnsupportedVariantError",
    "annulus_trace",
    "audit_alignment",
    "audit_gn_gap",
    "audit_k_l2",
    "audit_k_mean",
    "audit_taylor",
    "audit_theta",
    "backend_name",
    "build_cartesian_grid",
    "build_polar_grid",
    "cauchy_boundary",
    "conformal_transfer_check",
    "dbar_field",
    "deficit",
    "integrate",
    "integrate_complex",
    "kernel_mass",
    "l1_distance",
    "mean_distortion",
    "offset_targets",
    "phi_dbar_mass",
    "pompeiu_area",
    "psi_dbar_mass",
    "reconstruct",
    "reconstruct_many",
    "run_flat_gauge_ladder",
    "run_ladder",
]
