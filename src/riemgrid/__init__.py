"""Desk-scale gauge geometry of Riemannian metrics on the discrete 2-torus.

The package discretizes the space of Riemannian metrics of the flat 2-torus
as grids of SPD 2x2 matrices and realizes, at finite resolution, the L2
metric on that space, the pullback action of torus diffeomorphisms, the
orthogonal splitting of tangent tensors into orbit and divergence-free parts,
geodesics with their local log map, and the resulting local product chart
(gauge map, divergence-free velocity).  A rotations-on-SPD-matrices module
mirrors the same constructions exactly in three dimensions.
"""

from .calculus import (
    OneFormField,
    divergence,
    flat,
    form_vector_pairing,
    lie_derivative_metric,
    metric_inverse,
    sharp,
    trace_pairing,
    vector_inner,
    volume_density,
)
from .diffeos import (
    DiffeoGrid,
    action_derivative,
    compose,
    flow_exp,
    from_displacement,
    identity_diffeo,
    invert,
    pullback,
    translation,
)
from .errors import (
    FormatError,
    JacobianSignFlip,
    NoConvergence,
    OutsideTube,
    PositivityLoss,
    RadiusTooLarge,
    RiemgridError,
    ScalarPoint,
    SolverStall,
    StepFailure,
    ToleranceNotMet,
    ValidationError,
)
from .fileio import Report, read_field, read_field_meta, write_field, write_report
from .geodesics import (
    GeodesicPath,
    GeodesicSample,
    ebin_exp,
    ebin_inner,
    ebin_log,
    ebin_norm,
    relative_distance,
)
from .grid import (
    GridSpec,
    MetricField,
    ScalarField,
    SymTensorField,
    VectorField,
    constant_field,
    constant_metric,
    constant_vector,
    identity_metric,
    integrate,
    interpolate,
    partial_derivative,
)
from .sampling import (
    DrawStream,
    band_limited_scalar,
    divergence_free_tensor,
    random_metric_near_identity,
    random_sym_tensor,
    random_vector_field,
    unit_draw,
)
from .slicing import (
    ConjugationReport,
    LatticeIsometry,
    MembershipResult,
    MetricPath,
    SliceDecomposition,
    SplitResult,
    berger_ebin_project,
    candidate_family,
    conjugate_isometries,
    horizontal_lift,
    isometry_candidates,
    lattice_transport,
    slice_decompose,
    slice_membership,
)

__version__ = "0.1.0"
