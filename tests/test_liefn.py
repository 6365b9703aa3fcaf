"""Lie derivative, commutator, and vector-valued-form bracket identities."""

import numpy as np
import pytest

from affsym.expr import ZERO, const, coord, parse_expr
from affsym.liefn import (
    VectorField,
    fn_bracket,
    lie_derivative,
    nijenhuis,
    nijenhuis_classical,
    vf_commutator,
)
from affsym.tensor import TensorField, alternate
from affsym.util import sample_points

import charts


def vf(n, *texts):
    return VectorField.from_strings(n, list(texts))


def rand_poly_vf(n, rng):
    comps = []
    for _ in range(n):
        c = rng.uniform(-1, 1, size=4)
        comps.append(
            f"{c[0]:.6f} + {c[1]:.6f}*y1 + {c[2]:.6f}*y{n}^2 + {c[3]:.6f}*y1*y{n}"
        )
    return VectorField.from_strings(n, comps)


def rand_vv_form(n, p, rng):
    """Random fully skew (1,p) field (vector-valued p-form)."""
    arr = np.empty((n,) * (1 + p), dtype=object)
    for idx in np.ndindex(*arr.shape):
        c = rng.uniform(-1, 1, size=2)
        arr[idx] = const(c[0]) * coord(int(rng.integers(1, n + 1))) + const(c[1])
    t = TensorField(n, 1, p, arr)
    if p >= 2:
        t = alternate(t)
    return t


def max_at(field, pts):
    return float(np.max(np.abs(field.evaluate_many(pts))))


def test_commutator_with_self_vanishes():
    x = vf(2, "y1*y2", "exp(y1)")
    z = vf_commutator(x, x)
    assert np.max(np.abs(z.evaluate_many(sample_points(2, 10)))) == 0.0


def test_commutator_basic():
    # [e1, y1 e2] = e2
    n = 2
    x = vf(n, "1", "0")
    y = vf(n, "0", "y1")
    z = vf_commutator(x, y)
    assert z.evaluate([0.7, -0.3]) == pytest.approx([0.0, 1.0])


def test_jacobi_identity():
    n = 3
    rng = np.random.default_rng(5)
    pts = sample_points(n, 10)
    for _ in range(5):
        x, y, z = (rand_poly_vf(n, rng) for _ in range(3))
        j = vf_commutator(vf_commutator(x, y), z)
        j2 = vf_commutator(vf_commutator(y, z), x)
        j3 = vf_commutator(vf_commutator(z, x), y)
        total = np.stack(
            [
                VectorField(n, [a + b + c for a, b, c in zip(j.comps, j2.comps, j3.comps)])
                .evaluate_many(pts)
            ]
        )
        assert np.max(np.abs(total)) <= 1e-10


def test_lie_derivative_of_scalar_is_directional():
    n = 2
    f = TensorField.scalar(n, parse_expr("y1^2", n))
    lf = lie_derivative(vf(n, "1", "0"), f)
    assert lf.evaluate([3.0, 0.0])[()] == pytest.approx(6.0)


def test_identity_operator_is_invariant():
    n = 3
    rng = np.random.default_rng(6)
    eta = rand_poly_vf(n, rng)
    li = lie_derivative(eta, TensorField.identity(n))
    assert max_at(li, sample_points(n, 10)) <= 1e-14


def test_rotation_kills_euclidean_metric():
    # Killing-field oracle by the direct (0,2) coordinate formula:
    # (L_eta g)_ij = eta^k d_k g_ij + g_kj d_i eta^k + g_ik d_j eta^k = 0
    # for the rotation field on the flat metric.
    n = 2
    eta = vf(n, "-y2", "y1")
    g = TensorField.from_strings(n, 0, 2, [["1", "0"], ["0", "1"]])
    lg = lie_derivative(eta, g)
    assert max_at(lg, sample_points(n, 10)) <= 1e-12


def test_lie_derivative_matches_direct_formula_on_one_form():
    n = 2
    rng = np.random.default_rng(14)
    eta = rand_poly_vf(n, rng)
    w = TensorField.from_strings(n, 0, 1, ["y1*y2", "exp(y2)"])
    lw = lie_derivative(eta, w)
    pts = sample_points(n, 10)
    from affsym.expr import add, diff_expr, mul

    direct = np.empty((n,), dtype=object)
    for j in range(n):
        tot = ZERO
        for k in range(n):
            tot = add(tot, mul(eta.comps[k], diff_expr(w.comps[(j,)], k + 1)))
            tot = add(tot, mul(w.comps[(k,)], diff_expr(eta.comps[k], j + 1)))
        direct[j] = tot
    direct_field = TensorField(n, 0, 1, direct)
    assert np.max(np.abs(lw.evaluate_many(pts) - direct_field.evaluate_many(pts))) <= 1e-12


# ---------------------------------------------------------------------------
# Bracket of vector-valued forms
# ---------------------------------------------------------------------------


def test_bracket_of_vector_fields_is_commutator():
    n = 3
    rng = np.random.default_rng(7)
    pts = sample_points(n, 10)
    for _ in range(3):
        x, y = rand_poly_vf(n, rng), rand_poly_vf(n, rng)
        br = fn_bracket(x, y)
        comm = vf_commutator(x, y).to_tensor()
        assert np.max(np.abs(br.evaluate_many(pts) - comm.evaluate_many(pts))) <= 1e-10


def test_nijenhuis_of_identity_vanishes():
    n = 2
    nij = nijenhuis(TensorField.identity(n))
    assert max_at(nij, sample_points(n, 6)) <= 1e-14


def test_nijenhuis_matches_classical_formula():
    n = 2
    A = TensorField.from_strings(n, 1, 1, [["y2", "0"], ["0", "y1"]])
    got = nijenhuis(A)
    want = nijenhuis_classical(A)
    pts = sample_points(n, 10)
    assert np.max(np.abs(got.evaluate_many(pts) - want.evaluate_many(pts))) <= 1e-9


def test_nijenhuis_matches_classical_formula_random():
    n = 3
    rng = np.random.default_rng(23)
    arr = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        c = rng.uniform(-1, 1, size=2)
        arr[idx] = const(c[0]) * coord(int(rng.integers(1, n + 1))) + const(c[1])
    A = TensorField(n, 1, 1, arr)
    got = nijenhuis(A)
    want = nijenhuis_classical(A)
    pts = sample_points(n, 10)
    assert np.max(np.abs(got.evaluate_many(pts) - want.evaluate_many(pts))) <= 1e-9


def test_bracket_graded_antisymmetry():
    n = 3
    rng = np.random.default_rng(9)
    pts = sample_points(n, 8)
    for p, q in ((1, 1), (1, 2), (2, 1)):
        B = rand_vv_form(n, p, rng)
        C = rand_vv_form(n, q, rng)
        lhs = fn_bracket(B, C).evaluate_many(pts)
        rhs = fn_bracket(C, B).evaluate_many(pts)
        assert np.max(np.abs(lhs + (-1.0) ** (p * q) * rhs)) <= 1e-8


def test_bracket_graded_jacobi():
    n = 3
    rng = np.random.default_rng(10)
    pts = sample_points(n, 6)
    p = q = r = 1
    for _ in range(3):
        B = rand_vv_form(n, p, rng)
        C = rand_vv_form(n, q, rng)
        D = rand_vv_form(n, r, rng)
        t1 = fn_bracket(fn_bracket(B, C, check=False), D, check=False)
        t2 = fn_bracket(fn_bracket(C, D, check=False), B, check=False)
        t3 = fn_bracket(fn_bracket(D, B, check=False), C, check=False)
        total = (
            (-1.0) ** (r * p) * t1.evaluate_many(pts)
            + (-1.0) ** (p * q) * t2.evaluate_many(pts)
            + (-1.0) ** (q * r) * t3.evaluate_many(pts)
        )
        assert np.max(np.abs(total)) <= 1e-8


def test_bracket_leibniz_rule():
    n = 3
    rng = np.random.default_rng(12)
    pts = sample_points(n, 6)
    eta = rand_poly_vf(n, rng)
    B = rand_vv_form(n, 1, rng)
    C = rand_vv_form(n, 1, rng)
    lhs = lie_derivative(eta, fn_bracket(B, C))
    rhs = fn_bracket(lie_derivative(eta, B), C, check=False) + fn_bracket(
        B, lie_derivative(eta, C), check=False
    )
    assert np.max(np.abs(lhs.evaluate_many(pts) - rhs.evaluate_many(pts))) <= 1e-8


def test_lie_interior_commutation():
    # L_eta i_xi - i_xi L_eta = i_[eta,xi] on random forms
    from affsym.tensor import interior_product

    n = 3
    rng = np.random.default_rng(13)
    pts = sample_points(n, 8)
    eta, xi = rand_poly_vf(n, rng), rand_poly_vf(n, rng)
    w_arr = np.empty((n, n), dtype=object)
    for idx in np.ndindex(n, n):
        w_arr[idx] = const(rng.uniform(-1, 1)) * coord(int(rng.integers(1, n + 1)))
    w = alternate(TensorField(n, 0, 2, w_arr))
    lhs = lie_derivative(eta, interior_product(xi.to_tensor(), w)) - interior_product(
        xi.to_tensor(), lie_derivative(eta, w)
    )
    rhs = interior_product(vf_commutator(eta, xi).to_tensor(), w)
    assert np.max(np.abs(lhs.evaluate_many(pts) - rhs.evaluate_many(pts))) <= 1e-10


def test_lie_exterior_commutation():
    from affsym.tensor import exterior_derivative

    n = 3
    rng = np.random.default_rng(15)
    pts = sample_points(n, 8)
    eta = rand_poly_vf(n, rng)
    w_arr = np.empty((n,), dtype=object)
    for i in range(n):
        w_arr[i] = const(rng.uniform(-1, 1)) * coord(int(rng.integers(1, n + 1))) * coord(
            int(rng.integers(1, n + 1))
        )
    w = TensorField(n, 0, 1, w_arr)
    lhs = lie_derivative(eta, exterior_derivative(w))
    rhs = exterior_derivative(lie_derivative(eta, w))
    assert np.max(np.abs(lhs.evaluate_many(pts) - rhs.evaluate_many(pts))) <= 1e-10


def test_operator_powers_invariant_along_symmetry():
    # invariance of integer powers of the operator field and of its
    # Nijenhuis tensor along verified symmetries, on a system whose operator
    # field is non-scalar -- including a transformed copy where A varies
    from affsym.liefn import lie_derivative_operator_power, nijenhuis
    from affsym.pdesim import heisenberg_system
    from affsym.symmetry import check_symmetry
    from affsym.geometry import transform_system

    sysd = heisenberg_system()
    pts = sample_points(2, 10)
    eta = VectorField.from_strings(2, ["(1 + y1^2 - y2^2)/2", "y1*y2"])
    assert check_symmetry(sysd, eta, tol=1e-10)["accepted"]
    for q in (1, 2, -1, -2):
        assert lie_derivative_operator_power(eta, sysd.A, q, pts) <= 1e-8
    nij = nijenhuis(sysd.A)
    assert np.max(np.abs(lie_derivative(eta, nij).evaluate_many(pts))) <= 1e-8

    pm = charts.shear(2, 0, 1, 0.3)
    moved = transform_system(sysd, pm)
    eta_t = charts.pushed(eta, pm)
    assert check_symmetry(moved, eta_t, tol=1e-8)["accepted"]
    for q in (1, 2, -1):
        assert lie_derivative_operator_power(eta_t, moved.A, q, pts * 0.5) <= 1e-8
    nij_t = nijenhuis(moved.A)
    assert np.max(np.abs(lie_derivative(eta_t, nij_t).evaluate_many(pts * 0.5))) <= 1e-8


def _operator_power_einsum(eta, a_field, q, pts):
    """Oracle for lie_derivative_operator_power: max |L_eta(A^q)| from pointwise
    values, inverting numerically and differentiating the power by the
    product rule, d(A^-1) = -A^-1 dA A^-1."""
    from affsym.tensor import partial_differential

    A = a_field.evaluate_many(pts)
    dA = partial_differential(a_field).evaluate_many(pts).transpose(0, 2, 1, 3)  # [:, k] = dA/dy^k
    deta = partial_differential(eta).evaluate_many(pts)  # [:, i, k] = d eta^i / dy^k
    base, dbase = A, dA
    if q < 0:
        base = np.linalg.inv(A)
        dbase = -np.einsum("pij,pkjl,plm->pkim", base, dA, base)
    powv, dpow = base, dbase
    for _ in range(abs(q) - 1):
        dpow = np.einsum("pkij,pjl->pkil", dpow, base) + np.einsum("pij,pkjl->pkil", powv, dbase)
        powv = powv @ base
    lie = (
        np.einsum("pk,pkij->pij", eta.evaluate_many(pts), dpow)
        - np.einsum("pik,pkj->pij", deta, powv)
        + np.einsum("pik,pkj->pij", powv, deta)
    )
    return float(np.max(np.abs(lie)))


def test_operator_power_lie_derivative_matches_the_einsum_route():
    # on a non-symmetry the odd powers give O(1) values, so agreement is a
    # real check; the even powers of this A are scalar and give ~0
    from affsym.geometry import transform_system
    from affsym.liefn import lie_derivative_operator_power
    from affsym.pdesim import heisenberg_system

    moved = transform_system(heisenberg_system(), charts.shear(2, 0, 1, 0.3))
    eta = vf(2, "y1^2", "y2")
    pts = sample_points(2, 10) * 0.5
    for q in (1, 2, 3, -1, -2):
        got = lie_derivative_operator_power(eta, moved.A, q, pts)
        ref = _operator_power_einsum(eta, moved.A, q, pts)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert got > 1.0 if q % 2 else got < 1e-15
    # A^0 = id, whose Lie derivative is 0 along any field; the points are
    # still checked
    assert lie_derivative_operator_power(eta, moved.A, 0, pts) == 0.0
    with pytest.raises(ValueError, match=r"^expected points of shape \(P, 2\) for n = 2, got shape \(10, 3\)$"):
        lie_derivative_operator_power(eta, moved.A, 0, np.zeros((10, 3)))


def test_bracket_rejects_non_skew_input():
    n = 3
    arr = np.empty((n, n, n), dtype=object)
    arr[...] = const(1.0)
    not_skew = TensorField(n, 1, 2, arr)
    with pytest.raises(ValueError, match="skew"):
        fn_bracket(not_skew, not_skew)
