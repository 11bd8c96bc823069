"""framecert: numerical certification of coherent-frame inequalities on finite groups.

The package builds finite groups with counting measure and metric balls, unitary
(possibly projective) representations acting on C^d, coherent frame systems
{pi(x_j) g} with their duals, and then certifies -- by exhaustive finite
computation -- the sampling bound for relatively separated sets, the uniform
local approximation property of dual spans, the trace sandwich for positive
operators against frames, and the two-frame counting comparison inequality.
"""

from framecert.groups import (
    CompactSet,
    GroupModel,
    NonSymmetricNeighborhood,
    OutOfCarrier,
    PointSet,
    compact_set,
    complement,
    full_point_set,
    measure,
    point_set,
    product_set,
    separation_constant,
    translate_set,
)
from framecert.amalgam import (
    GroupFunction,
    amalgam_norm,
    group_function,
    local_max,
    sampling_bound_check,
    tail_mass,
)
from framecert.representations import (
    DimensionMismatch,
    GaborRep,
    Representation,
    TensorRep,
    TranslationRep,
    ZeroResult,
    ZeroWindow,
    apply_rep,
    carrier_orbit,
    dirac_vector,
    flat_vector,
    inner,
    mollify_window,
    periodized_gaussian,
    voice_transform,
)
from framecert.frames import (
    FrameAnalysis,
    FrameSystem,
    LengthMismatch,
    NotAFrame,
    SpanProjector,
    analysis_coefficients,
    analyze_frame,
    best_approx_check,
    bessel_bound_check,
    canonical_dual,
    coherent_frame,
    frame_bounds,
    frame_operator,
    span_projector,
    verify_dual,
)
from framecert.hap import (
    HapCertificate,
    HapScenario,
    NoAdmissibleL,
    find_L,
    hap_error,
    local_subspace,
    theoretical_tail_bound,
)
from framecert.comparison import (
    ComparisonCertificate,
    ComparisonScenario,
    HapPreconditionUnmet,
    NotPositive,
    cardinality_count,
    comparison_certificate,
    comparison_run,
    density_report,
    qpq_operator,
    trace_bounds_check,
)

__version__ = "0.1.0"
