"""Refusals of malformed input across the library: each call raises its
typed error with a message naming what is wrong (``tools/never_run.py``
lists the refusals that no other test reaches).  And failed checks: each
raises a CheckFailed that keeps its own base class, ValueError or
RuntimeError."""

from fractions import Fraction

import numpy as np
import pytest

from affsym import CheckFailed
from affsym.canonical import deformed_curvature, projective_flatten, rotation_field
from affsym.expr import DomainError, Expr, ExprError, coord, diff_expr, func, parse_expr, powi, taylor_coefficients
from affsym.geometry import Connection, DiffusionSystem, metric_connection, scalar_operator, structure_residual
from affsym.liefn import VectorField, fn_bracket, lie_derivative, vf_commutator
from affsym.pdesim import (
    SolutionGrid,
    apply_flow_to_grid,
    evolve,
    evolve_snapshots,
    make_grid,
    symmetry_transport_check,
)
from affsym.pfaff import PfaffProblem, named_system, pfaff_integrate, transport_to
from affsym.symmetry import classify, flow
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
    (lambda: coord(True), ExprError, "coordinate index must be a positive integer, got True"),
    (lambda: Expr("foo", (coord(1),)), ExprError, "no node 'foo' of arity 1 with value None and index None"),
    (lambda: Expr("add", (coord(1),)), ExprError, "no node 'add' of arity 1 with value None and index None"),
    (lambda: Expr("add", (coord(1), 2.0)), ExprError,
     r"arguments of a node 'add' must be Exprs, got \(Expr\('y1'\), 2.0\)"),
    (lambda: Expr("const", (), float("inf")), ExprError, "non-finite constant inf"),
    (lambda: Expr("coord", (), None, 0), ExprError, "coordinate index must be a positive integer, got 0"),
    (lambda: Expr("coord", (), None, True), ExprError, "coordinate index must be a positive integer, got True"),
    (lambda: Expr("add", (coord(1), coord(2)), 3.0), ExprError,
     "no node 'add' of arity 2 with value 3.0 and index None"),
    (lambda: Expr(["add"], ()), ExprError, r"no node \['add'\] of arity 0 with value None and index None"),
    (lambda: Expr("const", (), "abc"), ExprError, "a const's value must be an int or a float, got 'abc'"),
    (lambda: Expr("const", (), [1.0]), ExprError, r"a const's value must be an int or a float, got \[1.0\]"),
    (lambda: Expr("const", (), "2.5"), ExprError, "a const's value must be an int or a float, got '2.5'"),
    (lambda: Expr("const", (), True), ExprError, "a const's value must be an int or a float, got True"),
    (lambda: powi(coord(1), 0.5), ExprError, "exponent must be an integer or Fraction, got 0.5"),
    (lambda: powi(coord(1), 2.0), ExprError, "exponent must be an integer or Fraction, got 2.0"),
    (lambda: powi(coord(1), True), ExprError, "exponent must be an integer or Fraction, got True"),
    (lambda: powi(coord(1), False), ExprError, "exponent must be an integer or Fraction, got False"),
    (lambda: setattr(coord(1), "index", 2), AttributeError, "Expr is immutable"),
    (lambda: func("tan", coord(1)), ExprError, "unknown function 'tan'"),
    (lambda: diff_expr(coord(1), 0), ExprError, "differentiation index must be >= 1, got 0"),
    (lambda: diff_expr(coord(1), True), ExprError, "differentiation index must be >= 1, got True"),
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


def _evolve_beyond_stability():
    grid = make_grid([np.sin], 32, 2 * np.pi)
    with pytest.warns(RuntimeWarning, match="stability heuristic"):
        evolve(_heat(1), grid, 0.2, 100)


def _transport(rhs, u0, restrictions=()):
    """transport_to [1.5] of du/dy = rhs, rhs a text over (u, y) = (y1, y2)."""
    transport_to(PfaffProblem(1, 1, [[parse_expr(rhs, 2)]], [0.0], [u0], restrictions), [1.5])


FAILED_CHECKS = [
    # pdesim
    (_evolve_beyond_stability, RuntimeError, "solution blew up at step 86"),
    (lambda: symmetry_transport_check(_heat(1), VectorField.from_strings(1, ["y1^2"]), 0.1,
                                      make_grid([np.sin], 16, 1.0), 1e-4, 2),
     ValueError, "eta does not pass the determining equations on this system"),
    (lambda: apply_flow_to_grid(VectorField.from_strings(1, ["y1^2"]), make_grid([lambda x: 1.0 + 0.0 * x], 8, 1.0),
                                5.0),
     RuntimeError, r"grid flow left the working region \(blow-up guard\)"),
    # pfaff: du/dy = u^2 has a pole at y = 1; -1/u reaches u = 0 at y = 0.005;
    # du/dy = 1 leaves the restriction u = 0
    (lambda: _transport("y1^2", 1.0), RuntimeError, "transport blew up at segment parameter t = 0.6667"),
    (lambda: _transport("-1/y1", 0.1), RuntimeError,
     "transport failed: Required step size is less than spacing between numbers."),
    (lambda: _transport("1", 0.0, [coord(1)]), RuntimeError, "restriction drift .* exceeds 1.0e-07; .*"),
    # symmetry
    (lambda: flow(VectorField.from_strings(1, ["y1^2"]), np.array([2.0]), 1.0), RuntimeError,
     r"flow left the working region \(blow-up guard\) \(reached t = 0.5\)"),
    (lambda: classify(Connection.from_strings(2, [[["-2*y1^2", "0"], ["0", "0"]], [["0", "-y1^2"], ["-y1^2", "0"]]]),
                      np.array([[0.0, 0.0], [0.3, 0.1]])),
     ValueError, r"rank not constant over the sample: observed \[0, 1\]"),
    # canonical: a connection whose curvature has no projectively-euclidean structure
    (lambda: projective_flatten(Connection.from_strings(2, [[["y2", "0"], ["0", "y1"]], [["0", "y1"], ["y1", "0"]]]),
                                np.zeros(2), np.zeros(2)),
     ValueError, "connection is not projectively-euclidean within tolerance: .*"),
]


@pytest.mark.parametrize("call, base, message", FAILED_CHECKS)
def test_a_failed_check_is_check_failed_and_keeps_its_base_class(call, base, message):
    with pytest.raises(base, match=f"^{message}$") as err:
        call()
    assert isinstance(err.value, CheckFailed)
