"""Geometry of the gap between paired embedding distributions.

A numpy toolkit for measuring how two embedding distributions differ
(fixed-frame bias/residual decomposition, spectrum and neighborhood
diagnostics) and for closing that difference with training-free
statistical operators, plus a desk-scale contrastive training simulator
whose analytic gradients double as a verification oracle.
"""

from .contrastive import (
    ContrastiveBatch,
    CouplingEstimate,
    estimate_coupling,
    grad_anchor,
    grad_candidate,
    leakage_bound_check,
    moment_identity_check,
)
from .diagnostics import (
    CosineHistogram,
    DriftReport,
    cosine_histogram,
    js_divergence,
    knn_mixing_rate,
    knn_overlap,
    modality_gap,
    phantom_drift,
    sample_complexity_curve,
)
from .errors import ArtifactVersionError, DataFormatError, DegenerateInputError, GapAlignError
from .frame import (
    GapDecomposition,
    ReferenceFrame,
    build_frame,
    cosine_stability,
    decompose_gap,
    geometric_baseline,
    leakage_ratio,
    noise_angle_degrees,
    relative_drift,
    spectrum_correlation,
)
from .io import (
    StatsArtifact,
    iter_embedding_batches,
    load_artifact,
    read_embeddings,
    save_artifact,
    write_embeddings,
)
from .moments import (
    CompensatedMean,
    Float32ReplayMean,
    ModalityStats,
    MomentAccumulator,
    shrink,
    stats_of,
)
from .realign import (
    AlignmentStats,
    BlockwiseStats,
    C3Baseline,
    apply_blockwise,
    estimate_blockwise,
    estimate_realign,
    substitution_operator,
)
from .spectral import (
    EigenDecomposition,
    ShapeEstimate,
    condition_number,
    effective_rank,
    max_principal_sine,
    power_law_alpha,
    principal_angles,
    sym_eig,
    tyler_shape,
)

__version__ = "0.1.0"
