"""Geometric analysis of generalized diffusion systems.

A system  dy/dt = A(y) (y_xx + Gamma(y)(y_x, y_x))  is treated as geometric
data on a coordinate chart: an operator field A of valence (1,1) and a
symmetric affine connection Gamma.  The package computes curvature and its
contractions, verifies point symmetries through their determining equations,
classifies degeneration by the rank of the symmetric Ricci part, integrates
the associated Pfaff systems, builds the canonical maximally-symmetric
geometries, and validates everything numerically, including a method-of-
lines simulator with solution-transport checks.
"""

from .expr import (
    DomainError,
    Expr,
    ExprError,
    ParseError,
    diff_expr,
    eval_expr,
    parse_expr,
)
from .tensor import (
    PointMap,
    TensorField,
    alternate,
    contract,
    exterior_derivative,
    interior_product,
    permute_indices,
    pushforward,
    symmetrize,
    tensor_product,
    wedge,
)
from .geometry import (
    Connection,
    DiffusionSystem,
    bianchi_padov_residual,
    covariant_differential,
    curvature,
    metric_connection,
    ricci_and_s,
    scalar_operator,
    structure_residual,
    transform_system,
)
from .liefn import (
    VectorField,
    fn_bracket,
    lie_derivative,
    nijenhuis,
    nijenhuis_classical,
    vf_commutator,
)
from .symmetry import (
    DegenerationReport,
    affine_residual,
    check_symmetry,
    classify,
    degeneration_bound,
    determining_residuals,
    flat_symmetry_basis,
    flow,
    invariance_suite,
    linearization,
    pointwise_symmetry_bound,
)
from .pfaff import (
    PfaffProblem,
    compatibility_residual,
    named_system,
    pfaff_integrate,
    transport_to,
)
from .canonical import (
    CanonicalSpec,
    build_system,
    constcurv_metric,
    deformed_curvature,
    projective_flatten,
)
from .pdesim import (
    SolutionGrid,
    evolve,
    heisenberg_system,
    make_grid,
    pde_residual,
    symmetry_transport_check,
)
from .util import CheckFailed, ResidualReport, sample_points

__version__ = "0.1.0"
