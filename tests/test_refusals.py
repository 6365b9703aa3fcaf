"""Refusals of malformed input across the library: each call raises its
typed error with a message naming what is wrong (``tools/never_run.py``
lists the refusals that no other test reaches)."""

from fractions import Fraction

import numpy as np
import pytest

from affsym.canonical import deformed_curvature, rotation_field
from affsym.expr import DomainError, ExprError, coord, diff_expr, func, powi, taylor_coefficients
from affsym.geometry import Connection, DiffusionSystem, metric_connection, scalar_operator, structure_residual
from affsym.liefn import VectorField, fn_bracket, lie_derivative, vf_commutator
from affsym.pdesim import SolutionGrid, evolve_snapshots
from affsym.pfaff import PfaffProblem, named_system, pfaff_integrate
from affsym.tensor import (
    PointMap,
    TensorField,
    contract,
    exterior_derivative,
    interior_product,
    permute_indices,
    tensor_product,
)


def _field(n, r, s, entry=coord(1)):
    """A (r, s) field on n coordinates with every component ``entry``."""
    return TensorField(n, r, s, [entry] * n ** (r + s))


def _skew2(n):
    """A (1,2) field skew in its lower slots."""
    comps = np.zeros((n,) * 3).tolist()
    comps[0][0][1], comps[0][1][0] = 1.0, -1.0
    return TensorField(n, 1, 2, comps)


def _heat(n):
    return DiffusionSystem(n, scalar_operator(n, 1.0), Connection.zeros(n))


REFUSALS = [
    # canonical
    (lambda: rotation_field(_field(3, 0, 2)), ValueError, "rotation field is defined for a 2d metric"),
    (lambda: deformed_curvature(Connection.zeros(2), _field(2, 0, 2)), ValueError,
     r"deformation tensor must be \(1,2\)"),
    # expr
    (lambda: coord(0), ExprError, "coordinate index must be a positive integer, got 0"),
    (lambda: powi(coord(1), 0.5), ExprError, "exponent must be an integer or Fraction, got 0.5"),
    (lambda: func("tan", coord(1)), ExprError, "unknown function 'tan'"),
    (lambda: diff_expr(coord(1), 0), ExprError, "differentiation index must be >= 1, got 0"),
    (lambda: taylor_coefficients([coord(1)], [[0.1, 0.2]], 2), ValueError,
     r"expected one point of shape \(n,\), got shape \(1, 2\)"),
    (lambda: taylor_coefficients([coord(3)], [0.1, 0.2], 2), ExprError,
     "coordinate y3 out of range for a point of dimension 2"),
    (lambda: taylor_coefficients([powi(coord(1), Fraction(10**308, 3))], [0.5], 2), DomainError,
     r"power out of floating-point range: y1\^\(10{308}/3\)"),
    # geometry
    (lambda: DiffusionSystem(2, scalar_operator(3, 1.0), Connection.zeros(2)), ValueError,
     r"operator field must be \(1,1\) on the same chart as the connection"),
    (lambda: metric_connection(_field(2, 1, 1)), ValueError, r"metric must be a \(0,2\) field"),
    (lambda: metric_connection(TensorField.from_strings(2, 0, 2, [["1", "y1"], ["0", "1"]])), ValueError,
     "metric is not symmetric"),
    (lambda: structure_residual(Connection.zeros(1), "beta_14_1"), ValueError, "beta_14_1 requires n >= 2"),
    (lambda: structure_residual(Connection.zeros(1), "const_curv_19_14"), ValueError,
     "const_curv_19_14 requires n >= 2"),
    # liefn
    (lambda: vf_commutator(VectorField.basis(2, 1), VectorField.basis(3, 1)), ValueError,
     "commutator across different chart dimensions"),
    (lambda: lie_derivative(_field(2, 0, 1), _field(2, 0, 1)), ValueError, r"expected a \(1,0\) field"),
    (lambda: fn_bracket(_skew2(2), _skew2(3)), ValueError, "bracket across different chart dimensions"),
    (lambda: fn_bracket(_field(2, 0, 2), _skew2(2)), ValueError, r"bracket expects \(1,p\) and \(1,q\) fields"),
    (lambda: fn_bracket(_skew2(2), _field(2, 1, 2)), ValueError,
     "second argument is not fully skew in covariant slots"),
    # pdesim
    (lambda: SolutionGrid(8, 1.0, 0.0, np.zeros(8)), ValueError, r"values must have shape \(N, n\)"),
    (lambda: evolve_snapshots(_heat(2), SolutionGrid(8, 1.0, 0.0, np.zeros((8, 1))), 1e-4, 2, 1), ValueError,
     "system and grid dimensions differ"),
    # pfaff
    (lambda: PfaffProblem(2, 1, [[coord(1)]], [0.0, 0.0], [0.0]), ValueError,
     r"rhs shape \(1, 1\) != \(1, 2\)"),
    (lambda: PfaffProblem(1, 1, [[coord(1)]], [0.0], [0.0, 0.0]), ValueError,
     r"initial data shapes do not match \(n, k\)"),
    (lambda: pfaff_integrate(PfaffProblem(1, 1, [[coord(1)]], [0.0], [0.0]), [[0.0, 0.0]]), ValueError,
     "path must be a polyline of points of dimension n"),
    (lambda: named_system("covector_14"), ValueError, "covector_14 needs a connection"),
    # tensor
    (lambda: TensorField(2, 1, 1, [coord(1)] * 3), ValueError,
     r"expected 4 components for valence \(1,1\), got 3"),
    (lambda: _field(2, 1, 0) + _field(2, 0, 1), ValueError,
     r"valence/dimension mismatch: \(1,0\) on n=2 vs \(0,1\) on n=2"),
    (lambda: tensor_product(_field(2, 1, 0), _field(3, 1, 0)), ValueError,
     "tensor product across different chart dimensions"),
    (lambda: contract(_field(2, 1, 1), 1, 0), ValueError,
     r"contraction slots \(1,0\) out of range for valence \(1, 1\)"),
    (lambda: permute_indices(_field(2, 1, 2), lower_perm=[0, 0]), ValueError, "invalid permutation"),
    (lambda: exterior_derivative(_field(2, 1, 1)), ValueError,
     r"exterior_derivative expects a \(0,r\) field, got valence \(1, 1\)"),
    (lambda: interior_product(_field(2, 0, 1), _field(2, 0, 2, 0.0)), ValueError,
     r"interior product expects a \(1,0\) vector argument"),
    (lambda: PointMap(2, [coord(1)], [coord(1), coord(2)]), ValueError,
     "component count does not match dimension"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_malformed_input_is_refused_by_name(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
