"""Numerical laboratory for smoothing properties of the Bergman projection
on model domains (disk, annulus, ball in C^2)."""

__version__ = "0.1.0"

from .geometry import (
    Domain,
    PolarEvalGrid,
    QuadratureGrid,
    VectorField,
    boundary_distance,
    boundary_samples,
    canonical_fields,
    make_domain,
    polar_eval_grid,
    quadrature_grid,
    transversality_measure,
)
from .bergman import (
    CoefficientVector,
    GridFunction,
    OrthonormalBasis,
    build_basis,
    kernel_eval,
    project,
    synthesize,
)
from .norms import (
    NormReport,
    directional_sobolev_norm,
    duality_sup,
    sobolev_norm,
    sup_weighted_norm,
    weighted_negative_norm,
)
from .flow import (
    CollarChart,
    antiderivative,
    build_chart,
    hitting_time,
)
from .operators import (
    OperatorExpr,
    abs_moment_op,
    apply_op,
    commutator,
    compose,
    diff_op,
    field_op,
    iterated_commutator,
    kernel_op,
    op_sum,
    weighted_ratio,
)
from .decompose import (
    DecompositionResult,
    cr_reduction,
    decompose,
    matched_tangential,
    power_expansion,
    reproduction_residual,
)
from .scenarios import ReportBundle, ScenarioConfig, emit_report, run_scenario
