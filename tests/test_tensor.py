"""Tensor algebra, exterior calculus normalizations, and coordinate
transforms, each pinned against an independent oracle."""

import itertools

import numpy as np
import pytest

from affsym.expr import ZERO, DomainError, const, coord, parse_expr
from affsym.geometry import Connection, DiffusionSystem, curvature, transform_connection, transform_system
from affsym.liefn import VectorField, lie_derivative
from affsym.tensor import (
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
from affsym.util import sample_points

import charts


def rand_form(n, p, rng):
    """Random fully skew (0,p) field with polynomial components."""
    arr = np.empty((n,) * p, dtype=object)
    for idx in np.ndindex(*arr.shape):
        c = rng.uniform(-1, 1)
        arr[idx] = const(c) * coord(int(rng.integers(1, n + 1))) + const(rng.uniform(-1, 1))
    return alternate(TensorField(n, 0, p, arr))


def one_form(n, comps):
    arr = np.empty((n,), dtype=object)
    arr[:] = [parse_expr(c, n) if isinstance(c, str) else c for c in comps]
    return TensorField(n, 0, 1, arr)


def basis_vector(n, i):
    return VectorField.basis(n, i).to_tensor()


def dy(n, i):
    comps = [ZERO] * n
    comps[i - 1] = const(1.0)
    return one_form(n, comps)


def test_repr_names_dimension_and_valence():
    assert repr(TensorField.identity(3)) == "TensorField(n=3, valence=(1,1))"
    assert repr(dy(2, 1)) == "TensorField(n=2, valence=(0,1))"


def test_trace_of_identity_is_n():
    for n in (1, 2, 3, 4):
        tr = contract(TensorField.identity(n), 0, 0)
        assert tr.evaluate(np.zeros(n))[()] == pytest.approx(float(n))


def test_product_then_contract_pairing():
    n = 2
    u = one_form(n, ["y1", "0"])
    v = basis_vector(n, 1) + TensorField(n, 1, 0, [ZERO, coord(1)])
    paired = contract(tensor_product(v, u), 0, 0)
    assert paired.evaluate([2.0, 3.0])[()] == pytest.approx(2.0)


def test_alternate_matches_permutation_enumeration():
    n = 3
    rng = np.random.default_rng(11)
    arr = np.empty((n, n, n), dtype=object)
    for idx in np.ndindex(n, n, n):
        arr[idx] = parse_expr(
            f"{rng.uniform(-1, 1):.6f}*y1 + {rng.uniform(-1, 1):.6f}*y2*y3", n
        )
    t = TensorField(n, 0, 3, arr)
    alt = alternate(t)
    pts = sample_points(n, 10, seed=5)
    got = alt.evaluate_many(pts)
    for pi, pt in enumerate(pts):
        v = t.evaluate(pt)
        for idx in np.ndindex(n, n, n):
            acc = 0.0
            for perm in itertools.permutations(range(3)):
                inv = sum(
                    1 for a in range(3) for b in range(a + 1, 3) if perm[a] > perm[b]
                )
                sign = -1.0 if inv % 2 else 1.0
                acc += sign * v[idx[perm[0]], idx[perm[1]], idx[perm[2]]]
            assert got[(pi,) + idx] == pytest.approx(acc / 6.0, abs=1e-12)


def test_symmetrize_then_alternate_kills():
    n = 2
    rng = np.random.default_rng(3)
    arr = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        arr[idx] = const(rng.uniform(-1, 1)) * coord(1)
    t = TensorField(n, 0, 2, arr)
    z = alternate(symmetrize(t))
    assert np.max(np.abs(z.evaluate_many(sample_points(n, 5)))) == 0.0


def test_permute_indices_swaps_slots():
    n = 2
    arr = np.empty((n, n), dtype=object)
    for i, j in np.ndindex(n, n):
        arr[i, j] = const(10 * i + j)
    t = TensorField(n, 0, 2, arr)
    sw = permute_indices(t, lower_perm=[1, 0])
    v = sw.evaluate(np.zeros(n))
    assert v[0, 1] == pytest.approx(10.0)  # picked up old (1,0)


def test_wedge_self_is_zero():
    n = 2
    w = wedge(dy(n, 1), dy(n, 1))
    assert np.max(np.abs(w.evaluate_many(sample_points(n, 5)))) == 0.0


def test_wedge_normalization_dy1_dy2():
    # hand enumeration of the two permutations: value 1/2 on (e1, e2)
    n = 2
    w = wedge(dy(n, 1), dy(n, 2))
    vals = w.evaluate(np.zeros(n))
    assert vals[0, 1] == pytest.approx(0.5)
    assert vals[1, 0] == pytest.approx(-0.5)


def test_wedge_graded_commutation_rule():
    # the sign rule forced by the alternation definition:
    # beta^gamma = (-1)^{pq} gamma^beta (both sides are skew (0,p+q) fields)
    n = 3
    rng = np.random.default_rng(21)
    pts = sample_points(n, 8, seed=2)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        beta = rand_form(n, p, rng)
        gamma = rand_form(n, q, rng)
        lhs = wedge(beta, gamma).evaluate_many(pts)
        rhs = wedge(gamma, beta).evaluate_many(pts)
        assert np.max(np.abs(lhs - (-1.0) ** (p * q) * rhs)) <= 1e-12


def test_wedge_rejects_non_skew():
    n = 2
    arr = np.empty((n, n), dtype=object)
    arr[...] = const(1.0)
    sym = TensorField(n, 0, 2, arr)
    with pytest.raises(ValueError):
        wedge(sym, dy(n, 1))


def test_exterior_derivative_of_scalar_is_gradient():
    n = 2
    f = TensorField.scalar(n, parse_expr("y1*y2", n))
    df = exterior_derivative(f)
    v = df.evaluate([2.0, 5.0])
    assert v[0] == pytest.approx(5.0)
    assert v[1] == pytest.approx(2.0)


def test_dd_is_zero():
    n = 3
    rng = np.random.default_rng(8)
    f = TensorField.scalar(n, parse_expr("exp(y1)*sin(y2) + y3^3*y1", n))
    ddf = exterior_derivative(exterior_derivative(f))
    assert np.max(np.abs(ddf.evaluate_many(sample_points(n, 10)))) <= 1e-12
    w = rand_form(n, 1, rng)
    ddw = exterior_derivative(exterior_derivative(w))
    assert np.max(np.abs(ddw.evaluate_many(sample_points(n, 10)))) <= 1e-12


def test_exterior_derivative_matches_frame_formula():
    # d of w = y2 dy1 against direct evaluation of the invariant formula with
    # commuting coordinate frames: dw(X,Y) = (X(w(Y)) - Y(w(X)))/2.
    n = 2
    w = one_form(n, ["y2", "0"])
    dw = exterior_derivative(w)
    pts = sample_points(n, 6, seed=3)
    vals = dw.evaluate_many(pts)
    # X = e1, Y = e2: w(e2) = 0, w(e1) = y2 -> dw(e1,e2) = (0 - d(y2)/dy2)/2
    assert np.allclose(vals[:, 0, 1], -0.5)
    assert np.allclose(vals[:, 1, 0], 0.5)


def test_interior_product_normalization():
    n = 2
    e1 = basis_vector(n, 1)
    i1 = interior_product(e1, dy(n, 1))
    assert i1.evaluate(np.zeros(n))[()] == pytest.approx(1.0)
    w = wedge(dy(n, 1), dy(n, 2))
    iw = interior_product(e1, w)
    # 2 * w(e1, .) evaluated on e2 = 2 * 1/2 = 1
    assert iw.evaluate(np.zeros(n))[1] == pytest.approx(1.0)


def test_interior_product_requires_positive_degree():
    n = 2
    with pytest.raises(ValueError):
        interior_product(basis_vector(n, 1), TensorField.scalar(n, const(1.0)))


def test_cartan_identity():
    # i_c d + d i_c = L_c on random forms
    n = 3
    rng = np.random.default_rng(31)
    pts = sample_points(n, 10, seed=13)
    c = VectorField.from_strings(n, ["y2", "-y1 + y3^2", "y1*y2"])
    ct = c.to_tensor()
    for p in (1, 2):
        w = rand_form(n, p, rng)
        lhs = interior_product(ct, exterior_derivative(w)) + exterior_derivative(
            interior_product(ct, w)
        )
        rhs = lie_derivative(c, w)
        diff = lhs.evaluate_many(pts) - rhs.evaluate_many(pts)
        assert np.max(np.abs(diff)) <= 1e-10


# ---------------------------------------------------------------------------
# Point maps and system transforms
# ---------------------------------------------------------------------------


def flat_system(n, a=1.0):
    from affsym.geometry import scalar_operator

    return DiffusionSystem(n, scalar_operator(n, a), Connection.zeros(n))


def test_pointmap_roundtrip_invariant():
    pm = PointMap.from_strings(
        2, ["y1 + y2^3", "y2"], ["y1 - y2^3", "y2"]
    )
    assert pm.roundtrip_residual() <= 1e-8


def test_transform_identity_map():
    n = 2
    sys = flat_system(n, a=2.0)
    out = transform_system(sys, PointMap.identity(n))
    pts = sample_points(n, 10)
    assert np.allclose(out.A.evaluate_many(pts), sys.A.evaluate_many(pts))
    assert np.max(np.abs(out.conn.evaluate_many(pts))) == 0.0


def test_transform_linear_map_keeps_flat():
    n = 2
    sys = flat_system(n)
    pm = PointMap.from_strings(
        n,
        ["2*y1 + y2", "y1 + y2"],
        ["y1 - y2", "-y1 + 2*y2"],
    )
    assert pm.roundtrip_residual() <= 1e-12
    out = transform_system(sys, pm)
    assert np.max(np.abs(out.conn.evaluate_many(sample_points(n, 10)))) <= 1e-12


def test_transform_connection_matches_geodesic_transport():
    # n=1, ytilde = exp(y), flat source: straight lines map to curves whose
    # acceleration encodes the transported connection.
    n = 1
    conn = Connection.zeros(n)
    pm = PointMap.from_strings(n, ["exp(y1)"], ["ln(y1)"])
    moved = transform_connection(conn, pm)
    rng = np.random.default_rng(17)
    h = 1e-5
    for _ in range(10):
        y0 = rng.uniform(-0.5, 0.5)
        v = rng.uniform(0.5, 1.5)
        z = [np.exp(y0 + v * t) for t in (-h, 0.0, h)]
        zdd = (z[2] - 2 * z[1] + z[0]) / h**2
        zd = (z[2] - z[0]) / (2 * h)
        gamma_fd = -zdd / zd**2
        got = moved.evaluate_many(np.array([[z[1]]]))[0, 0, 0, 0]
        assert got == pytest.approx(gamma_fd, abs=1e-5)


def _bumpy_system(n=2):
    A = TensorField.from_strings(
        n, 1, 1, [["2 + y2^2", "y1"], ["0", "3 - y1"]]
    )
    g = [
        [["-2*y1", "y2"], ["y2", "y1*y2"]],
        [["0.5*y2", "y1"], ["y1", "2*y2"]],
    ]
    return DiffusionSystem(n, A, Connection.from_strings(n, g))


def test_transform_roundtrip_restores_components():
    sys = _bumpy_system()
    pm = PointMap.from_strings(
        2, ["y1 + 0.3*y2^3", "y2"], ["y1 - 0.3*y2^3", "y2"]
    )
    back = PointMap(2, pm.inverse, pm.forward)
    out = transform_system(transform_system(sys, pm), back)
    pts = sample_points(2, 12)
    assert np.max(np.abs(out.A.evaluate_many(pts) - sys.A.evaluate_many(pts))) <= 1e-8
    assert (
        np.max(np.abs(out.conn.evaluate_many(pts) - sys.conn.evaluate_many(pts)))
        <= 1e-8
    )


def test_curvature_transforms_as_tensor():
    # cubic triangular diffeomorphism with symbolic inverse
    sys = _bumpy_system()
    pm = PointMap.from_strings(
        2, ["y1 + 0.4*y2^3", "y2 - 0.2"], ["y1 - 0.4*(y2 + 0.2)^3", "y2 + 0.2"]
    )
    assert pm.roundtrip_residual() <= 1e-10
    moved = transform_system(sys, pm)
    r_after = curvature(moved.conn)
    r_push = pushforward(curvature(sys.conn), pm)
    pts = sample_points(2, 10, seed=77) * 0.5
    diff = r_after.evaluate_many(pts) - r_push.evaluate_many(pts)
    assert np.max(np.abs(diff)) <= 1e-7


def test_transform_rejects_singular_jacobian():
    sys = flat_system(2)
    pm = PointMap.from_strings(2, ["y1^2", "y2"], ["sqrt(y1)", "y2"])
    with pytest.raises(ValueError, match="singular"):
        transform_system(sys, pm, check_points=np.array([[0.0, 0.1], [0.2, 0.3]]))


def test_transform_refuses_a_jacobian_that_is_not_finite():
    # the Jacobian -1/y1^2 of y1 -> 1/y1 is infinite at the check point y1 = 0
    from affsym.canonical import CanonicalSpec, build_system

    sysd = build_system(CanonicalSpec("constcurv_22_13", n=2))
    pm = PointMap.from_strings(2, ["1/y1", "y2"], ["1/y1", "y2"])
    with pytest.raises(DomainError, match=r"^division by zero: \(-1\)/y1\^2$"):
        transform_system(sysd, pm, check_points=np.array([[0.0, 0.1], [0.2, 0.3]]))


def test_transform_accepts_a_small_regular_scaling():
    # y -> 2^-10 y is regular, with det 2^-40 far below 1e-12 at n = 4:
    # carried there and back, A and Gamma come back exactly
    from affsym.canonical import CanonicalSpec, build_system

    sysd = build_system(CanonicalSpec("constcurv_22_13", n=4))
    moved = transform_system(transform_system(sysd, charts.scale(4, -10)), charts.scale(4, 10))
    pts = sample_points(4, 20)
    for got, want in ((moved.A, sysd.A), (moved.conn.field, sysd.conn.field)):
        assert got.evaluate(pts).tobytes() == want.evaluate(pts).tobytes()


def test_transform_judges_the_jacobian_relative_to_its_scale():
    sys = flat_system(2)
    # singular at the check point y1 = 0 at any scale
    pm = PointMap.from_strings(2, ["1e6*y1^2", "1e6*y2"], ["sqrt(1e-6*y1)", "1e-6*y2"])
    with pytest.raises(ValueError, match="singular"):
        transform_system(sys, pm, check_points=np.array([[0.0, 0.1], [0.2, 0.3]]))
    # det 10, but the smallest singular value is 1e-13 times the largest
    pm = PointMap.from_strings(2, ["1e7*y1", "1e-6*y2"], ["1e-7*y1", "1e6*y2"])
    with pytest.raises(ValueError, match="singular"):
        transform_system(sys, pm)
