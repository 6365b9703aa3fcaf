"""The point contract (``util.as_points``): every public function that takes
points refuses points of the wrong dimension, an empty set of points and a
coordinate that is not finite with a ValueError naming n and the shape.

The cases are generated from the package's public names: every public
callable, and every public method of a public class, with a parameter named
as in POINT_PARAMS must have a call in CALLS, plus the two functions outside
the package namespace that take points (``cli.from_diffusional`` and
``liefn.lie_derivative_operator_power``).  The polyline and end point of
``pfaff_integrate`` and ``transport_to`` and the CLI's own documents and
flags keep their own checks, whose messages other tests pin."""

import inspect
import types

import numpy as np
import pytest

import affsym
from affsym import (
    CanonicalSpec,
    PfaffProblem,
    PointMap,
    TensorField,
    build_system,
    check_symmetry,
    classify,
    determining_residuals,
    flow,
    invariance_suite,
    linearization,
    metric_connection,
    named_system,
    pointwise_symmetry_bound,
    projective_flatten,
    structure_residual,
    symmetry_transport_check,
    transform_system,
)
from affsym.cli import from_diffusional
from affsym.expr import ZERO
from affsym.liefn import VectorField, lie_derivative_operator_power
from affsym.pdesim import make_grid
from affsym.util import as_points, sample_points

POINT_PARAMS = {"pts", "points", "sample", "p0", "p", "check_points"}
N = 2
SYS = build_system(CanonicalSpec("maximal_7_11", n=N))
ETA = VectorField.from_strings(N, ["-y2", "y1"])
METRIC = TensorField.from_strings(N, 0, 2, [["1", "0"], ["0", "1"]])
GRID = make_grid([np.sin, np.cos], 8, 1.0)

# one call per public callable that takes points, as (takes one point, call)
CALLS = {
    "Connection.evaluate_many": (False, lambda x: SYS.conn.evaluate_many(x)),
    "DiffusionSystem.a_nondegenerate": (False, lambda x: SYS.a_nondegenerate(x)),
    "PfaffProblem": (True, lambda x: PfaffProblem(N, 1, [[ZERO, ZERO]], x, [0.0])),
    "PointMap.apply": (False, lambda x: PointMap.identity(N).apply(x)),
    "PointMap.apply_inverse": (False, lambda x: PointMap.identity(N).apply_inverse(x)),
    "TensorField.evaluate": (False, lambda x: SYS.A.evaluate(x)),
    "TensorField.evaluate_many": (False, lambda x: SYS.A.evaluate_many(x)),
    "VectorField.evaluate": (False, lambda x: ETA.evaluate(x)),
    "VectorField.evaluate_many": (False, lambda x: ETA.evaluate_many(x)),
    "check_symmetry": (False, lambda x: check_symmetry(SYS, ETA, x)),
    "classify": (False, lambda x: classify(SYS.conn, x)),
    "determining_residuals": (False, lambda x: determining_residuals(SYS, ETA, x)),
    "flow": (True, lambda x: flow(ETA, x, 0.5)),
    "invariance_suite": (False, lambda x: invariance_suite(SYS, ETA, x)),
    "linearization": (True, lambda x: linearization(ETA, x)),
    "metric_connection": (False, lambda x: metric_connection(METRIC, x)),
    "named_system": (True, lambda x: named_system("covector_14", conn=SYS.conn, p0=x)),
    "pointwise_symmetry_bound": (True, lambda x: pointwise_symmetry_bound(SYS, x)),
    "projective_flatten": (True, lambda x: projective_flatten(SYS.conn, x, np.zeros(N))),
    "structure_residual": (False, lambda x: structure_residual(SYS.conn, "two_dim_12_1", x)),
    "symmetry_transport_check": (False, lambda x: symmetry_transport_check(SYS, ETA, 0.1, GRID, 1e-3, 1, x)),
    "transform_system": (False, lambda x: transform_system(SYS, PointMap.identity(N), x)),
}
OUTSIDE = {
    "cli.from_diffusional": (False, lambda x: from_diffusional([["2", "1"], ["0", "3"]], x)),
    "liefn.lie_derivative_operator_power": (
        False,
        lambda x: lie_derivative_operator_power(ETA, SYS.A, 2, x),
    ),
}

# dimension n + 1 and n - 1, no points, a coordinate that is not finite, a
# ragged nesting, a dict and a complex coordinate
BAD_POINT = {
    "n+1": [0.1, 0.2, 0.3],
    "n-1": [0.1],
    "P=0": [],
    "nan": [0.1, np.nan],
    "ragged": [0.1, [0.2]],
    "dict": {"y1": 0.1, "y2": 0.2},
    "complex": [0.1, 0.2j],
}
BAD_POINTS = {
    "n+1": np.full((3, 3), 0.1),
    "n-1": np.full((3, 1), 0.1),
    "P=0": np.zeros((0, N)),
    "nan": [[0.1, 0.2], [np.nan, 0.2]],
    "ragged": [[0.1, 0.2], [0.3]],
    "dict": {"y1": [0.1], "y2": [0.2]},
    "complex": [[0.1, 0.2], [0.3, 0.4j]],
}
# what the message says it got, for the cases without a shape of real numbers
GOT = {"ragged": "a ragged sequence", "dict": "a dict, not real numbers"}


def public_point_callables():
    """Qualified names of the package's public callables, and of the public
    methods of its public classes, with a parameter in POINT_PARAMS."""
    found = set()
    for name in dir(affsym):
        obj = getattr(affsym, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType) or not callable(obj):
            continue
        members = [(name, obj)]
        if inspect.isclass(obj):
            members += [(f"{name}.{m}", getattr(obj, m)) for m in dir(obj) if not m.startswith("_")]
        for qual, member in members:
            try:
                params = inspect.signature(member).parameters
            except (TypeError, ValueError):  # no signature: not a point-taking function
                continue
            if POINT_PARAMS & set(params):
                found.add(qual)
    return found


def test_every_public_callable_that_takes_points_is_covered():
    assert public_point_callables() == set(CALLS)


@pytest.mark.parametrize("case", sorted(BAD_POINTS))
@pytest.mark.parametrize("name", sorted(CALLS) + sorted(OUTSIDE))
def test_bad_points_raise_value_error_naming_n_and_shape(name, case):
    one, call = {**CALLS, **OUTSIDE}[name]
    bad = BAD_POINT[case] if one else BAD_POINTS[case]
    what = rf"a point of shape \({N},\)" if one else rf"points of shape \(P, {N}\)"
    got = GOT.get(case) or "shape " + str(np.shape(bad)).replace("(", r"\(").replace(")", r"\)")
    with pytest.raises(ValueError, match=rf"^expected {what} for n = {N}, got {got}"):
        call(bad)


def test_valid_points_pass_unchanged():
    pts = sample_points(N, 5)
    assert as_points(pts, N) is pts
    assert np.array_equal(as_points(None, N), sample_points(N, 20))
    assert as_points([1, 2], N, one=True).dtype == float
    with pytest.raises(ValueError, match=r"got shape \(\)"):
        as_points(None, N, one=True)
