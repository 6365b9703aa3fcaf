"""Determining equations, flows, linearization, flat basis, classification
and pointwise bounds."""

import json
import os
import re

import numpy as np
import pytest

from affsym.canonical import CanonicalSpec, build_system
from affsym.cli import SystemDocument
from affsym import symmetry
from affsym.expr import DomainError, ExprError, const, coord, func, parse_expr, powi
from affsym.geometry import (
    Connection,
    DiffusionSystem,
    _field_tree,
    _ranks,
    covariant_differential,
    curvature,
    ricci_and_s,
    scalar_operator,
    transform_system,
)
from affsym.liefn import VectorField, lie_derivative, lie_terms
from affsym.symmetry import (
    FlowError,
    RankNotConstantError,
    affine_residual,
    classify,
    degeneration_bound,
    determining_residuals,
    flat_symmetry_basis,
    flow,
    invariance_suite,
    is_symmetry,
    linearization,
    pointwise_symmetry_bound,
    pointwise_symmetry_bounds,
    RANK_RTOL,
    _lie_rows,
    _taylor_rows,
)
from affsym.tensor import PointMap, TensorField, eval_arrays, eval_jets, grad, partial_differential
from affsym.util import max_report, sample_points

from exact import exact_bounds
from test_geometry import constcurv_connection, intermediate_connection


def flat_system(n, a=1.0):
    return DiffusionSystem(n, scalar_operator(n, a), Connection.zeros(n))


def intermediate_system(n, m, u_texts=None):
    if u_texts is None:
        conn = intermediate_connection(n, m)
    else:
        us = [parse_expr(t, n) for t in u_texts] + [const(0.0)] * (n - m)
        arr = np.empty((n, n, n), dtype=object)
        for k in range(n):
            for r in range(n):
                for s in range(n):
                    e = const(0.0)
                    if k == s:
                        e = e - us[r]
                    if k == r:
                        e = e - us[s]
                    arr[k, r, s] = e
        conn = Connection(n, arr)
    return DiffusionSystem(n, scalar_operator(n, 1.0), conn)


def constcurv_system(n, a=1.0):
    return DiffusionSystem(n, scalar_operator(n, a), constcurv_connection(n))


# ---------------------------------------------------------------------------
# Determining residuals
# ---------------------------------------------------------------------------


def test_flat_linear_fields_are_exact_symmetries():
    sys = flat_system(2, a=3.0)
    for eta in flat_symmetry_basis(2):
        res = determining_residuals(sys, eta)
        assert res["res_A"].max_abs == 0.0
        assert res["res_Gamma"].max_abs == 0.0


def test_flat_quadratic_field_rejected():
    sys = flat_system(2)
    eta = VectorField.from_strings(2, ["y1^2", "0"])
    res = determining_residuals(sys, eta)
    assert res["res_A"].max_abs <= 1e-14  # scalar constant A
    assert res["res_Gamma"].max_abs > 1e-3


def test_intermediate_constant_u_translation_symmetry():
    # u1 = 1 constant, n=2, m=1: the translation e2 solves both equations
    sys = intermediate_system(2, 1, ["1"])
    eta = VectorField.from_strings(2, ["0", "1"])
    res = determining_residuals(sys, eta)
    assert res["res_A"].max_abs <= 1e-10
    assert res["res_Gamma"].max_abs <= 1e-10


def test_degenerate_a_falls_back_to_full_equation():
    n = 2
    A = TensorField.from_strings(n, 1, 1, [["1", "0"], ["0", "y1"]])  # det = y1
    sys = DiffusionSystem(n, A, Connection.zeros(n))
    pts = np.array([[0.0, 0.2], [0.3, -0.1]])
    eta = VectorField.from_strings(n, ["1", "0"])
    res = determining_residuals(sys, eta, pts=pts)
    assert res["res_Gamma"].details["equation"] == "full"


def test_affine_residual_flat_cases():
    conn = Connection.zeros(2)
    lin = VectorField.from_strings(2, ["y2 + 1", "2*y1"])
    assert affine_residual(conn, lin).max_abs == 0.0
    quad = VectorField.from_strings(2, ["y1^2", "0"])
    assert affine_residual(conn, quad).max_abs > 1e-3


def test_affine_residual_agrees_with_reduced_equation():
    # accept/reject decisions coincide for nondegenerate A
    cases = []
    sys_i = intermediate_system(2, 1, ["1"])
    cases.append((sys_i, VectorField.from_strings(2, ["0", "1"]), True))
    cases.append((sys_i, VectorField.from_strings(2, ["y2", "0"]), False))
    sys_c = constcurv_system(3)
    cases.append((sys_c, VectorField.from_strings(3, ["-y2", "y1", "0"]), True))
    cases.append((sys_c, VectorField.from_strings(3, ["1", "0", "0"]), False))
    for sysd, eta, expect in cases:
        res = determining_residuals(sysd, eta)["res_Gamma"].max_abs <= 1e-8
        aff = affine_residual(sysd.conn, eta).max_abs <= 1e-8
        assert res == aff == expect


# ---------------------------------------------------------------------------
# Flows and linearization
# ---------------------------------------------------------------------------


def test_flow_constant_field():
    eta = VectorField.from_strings(2, ["2", "-1"])
    p = np.array([0.5, 0.5])
    out = flow(eta, p, 0.25)
    assert out == pytest.approx([1.0, 0.25], abs=1e-10)


def _expm_series(F, terms=30):
    out = np.eye(F.shape[0])
    acc = np.eye(F.shape[0])
    for k in range(1, terms):
        acc = acc @ F / k
        out = out + acc
    return out


def test_flow_linear_field_matches_matrix_exponential():
    rng = np.random.default_rng(2)
    n = 3
    F = rng.uniform(-1, 1, size=(n, n))
    comps = [
        " + ".join(f"{float(F[i, j])!r}*y{j + 1}" for j in range(n)) for i in range(n)
    ]
    eta = VectorField.from_strings(n, comps)
    p = rng.uniform(-1, 1, size=n)
    tau = 0.7
    got = flow(eta, p, tau)
    want = _expm_series(F * tau) @ p
    assert np.max(np.abs(got - want)) <= 1e-8


def test_flow_rotation_returns_after_full_turn():
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    p = np.array([0.8, -0.3])
    out = flow(eta, p, 2 * np.pi)
    assert np.max(np.abs(out - p)) <= 1e-6


def test_flow_identity_at_zero_and_group_property():
    eta = VectorField.from_strings(2, ["y2", "-sin(y1)"])
    p = np.array([0.4, 0.1])
    assert np.all(flow(eta, p, 0.0) == p)
    ab = flow(eta, flow(eta, p, 0.3), 0.5)
    direct = flow(eta, p, 0.8)
    assert np.max(np.abs(ab - direct)) <= 1e-7


def test_flow_blowup_reports_reached_time():
    eta = VectorField.from_strings(1, ["y1^2"])
    with pytest.raises(FlowError) as err:
        flow(eta, np.array([2.0]), 1.0)
    assert 0.0 < err.value.t_reached < 1.0


def test_linearization_rotation():
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    lin = linearization(eta, np.zeros(2))
    assert np.allclose(lin.F, [[0.0, -1.0], [1.0, 0.0]])


def test_linearization_requires_stationary_point():
    eta = VectorField.from_strings(2, ["1", "0"])
    with pytest.raises(ValueError):
        linearization(eta, np.zeros(2))


def test_linearization_names_a_derivative_that_is_not_finite():
    # sqrt(y1^2) is 0 at the stationary point, its derivative 2*y1/(2*0):
    # the walk names the node, and the walk of the derivative trees
    # refuses the point too
    y1, y2 = coord(1), coord(2)
    eta = VectorField(2, [func("sqrt", powi(y1, 2)), y2])
    with pytest.raises(DomainError, match=r"^non-finite derivative: sqrt\(y1\^2\)$"):
        linearization(eta, [0.0, 0.0])
    with pytest.raises(DomainError, match=r"^division by zero: 2\*y1/\(2\*sqrt\(y1\^2\)\)$"):
        eval_arrays([grad(eta.comps, 2)], np.zeros((1, 2)), checked=True)


def test_a_point_of_the_wrong_dimension_is_refused():
    # n comes from the field: on n = 2, a point of dimension 3 or 1 is an
    # error naming both, not a 2x3 F or numpy's broadcasting error
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    sysd = flat_system(2, a=2.0)
    for bad in ([0.0, 0.0, 0.0], [0.1, 0.2, 0.3], [0.1]):
        msg = rf"expected a point of shape \(2,\) for n = 2, got shape \({len(bad)},\)"
        with pytest.raises(ValueError, match=msg):
            linearization(eta, bad)
        with pytest.raises(ValueError, match=msg):
            flow(eta, bad, 0.5)
        with pytest.raises(ValueError, match=msg):
            pointwise_symmetry_bound(sysd, bad)
        with pytest.raises(ValueError, match=msg):
            pointwise_symmetry_bounds(sysd, bad, 0)
    with pytest.raises(ValueError, match=r"got shape \(1, 2\)"):
        linearization(eta, [[0.0, 0.0]])


def test_determining_residuals_refuse_points_of_the_wrong_dimension():
    # n comes from the system: sample points of dimension 3 on n = 2 are an
    # error naming both, not reports whose argmax points have 3 coordinates
    sysd = build_system(CanonicalSpec("maximal_7_11", n=2))
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    for bad in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2)):
        msg = re.escape(f"expected points of shape (P, 2) for n = 2, got shape {bad.shape}")
        with pytest.raises(ValueError, match=msg):
            determining_residuals(sysd, eta, bad)


def test_invariance_suite_refuses_points_of_the_wrong_dimension():
    # not numpy's bare broadcasting error
    sysd = build_system(CanonicalSpec("maximal_7_11", n=2))
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    for bad in (np.zeros((4, 3)), np.zeros((4, 1)), np.zeros(2)):
        msg = re.escape(f"expected points of shape (P, 2) for n = 2, got shape {bad.shape}")
        with pytest.raises(ValueError, match=msg):
            invariance_suite(sysd, eta, bad)


def test_linearization_exact_for_linear_field():
    F = np.array([[0.3, -1.2], [0.7, 0.1]])
    eta = VectorField.from_strings(
        2, ["0.3*y1 - 1.2*y2", "0.7*y1 + 0.1*y2"]
    )
    lin = linearization(eta, np.zeros(2))
    assert np.allclose(lin.F, F)


def test_flow_jacobian_matches_exponential():
    rng = np.random.default_rng(8)
    F = rng.uniform(-1, 1, size=(2, 2))
    eta = VectorField.from_strings(
        2,
        [
            f"{float(F[0, 0])!r}*y1 + {float(F[0, 1])!r}*y2",
            f"{float(F[1, 0])!r}*y1 + {float(F[1, 1])!r}*y2",
        ],
    )
    tau, h = 0.01, 1e-5
    jac = np.empty((2, 2))
    for j in range(2):
        ep = np.zeros(2)
        ep[j] = h
        jac[:, j] = (flow(eta, ep, tau) - flow(eta, -ep, tau)) / (2 * h)
    want = _expm_series(tau * F)
    assert np.max(np.abs(jac - want)) <= 1e-6


# ---------------------------------------------------------------------------
# Flat basis, classification, bounds
# ---------------------------------------------------------------------------


def test_flat_basis_n1():
    fields = flat_symmetry_basis(1)
    assert len(fields) == 2
    assert fields[0].evaluate([0.7]) == pytest.approx([1.0])
    assert fields[1].evaluate([0.7]) == pytest.approx([0.7])


def test_flat_basis_count_and_acceptance():
    for n in (1, 2, 3):
        fields = flat_symmetry_basis(n)
        assert len(fields) == n * (n + 1)
    sys3 = flat_system(3, a=3.0)
    for eta in flat_symmetry_basis(3):
        res = determining_residuals(sys3, eta)
        assert res["res_A"].max_abs <= 1e-12
        assert res["res_Gamma"].max_abs <= 1e-12


def test_flat_basis_linearly_independent():
    n = 2
    fields = flat_symmetry_basis(n)
    pts = sample_points(n, 6)
    rows = [f.evaluate_many(pts).reshape(-1) for f in fields]
    assert np.linalg.matrix_rank(np.stack(rows)) == n * (n + 1)


def test_classify_flat():
    rep = classify(Connection.zeros(2))
    assert rep.m == 0 and rep.case_label == "maximal" and rep.bound == 6
    assert rep.rank_constant


def test_classify_intermediate_and_constcurv():
    rep = classify(intermediate_connection(3, 1))
    assert rep.m == 1 and rep.case_label == "intermediate" and rep.bound == 9
    rep2 = classify(constcurv_connection(3))
    assert rep2.m == 3 and rep2.case_label == "general" and rep2.bound == 6


def test_classify_rank_not_constant():
    # rank drops to zero exactly at y1 = 0; force a sample that straddles it
    conn = intermediate_system(2, 1, ["y1^2"]).conn
    sample = np.array([[0.0, 0.0], [0.3, 0.1]])
    with pytest.raises(RankNotConstantError):
        classify(conn, sample)


def test_bound_formula_endpoints():
    for n in range(1, 6):
        assert degeneration_bound(n, 0) == n * (n + 1)
        assert degeneration_bound(n, n) == n * (n + 1) // 2
        for m in range(n + 1):
            assert degeneration_bound(n, m) == n * (n + 1 - m) + m * (m - 1) // 2


def test_pointwise_bound_flat():
    for n in (1, 2, 3):
        sysd = flat_system(n, a=2.0)
        for depth in (0, 1, 2):
            assert pointwise_symmetry_bound(sysd, np.full(n, 0.1), depth) == n * (n + 1)


def test_pointwise_bound_constcurv():
    sysd = constcurv_system(3)
    p0 = np.array([0.1, -0.2, 0.3])
    assert pointwise_symmetry_bound(sysd, p0, 1) == 6
    assert pointwise_symmetry_bound(sysd, p0, 2) == 6


def test_pointwise_bound_intermediate_constant_u():
    sysd = intermediate_system(3, 1, ["1"])
    p0 = np.array([0.1, -0.2, 0.3])
    assert pointwise_symmetry_bound(sysd, p0, 2) == 9


def test_pointwise_bound_monotone_in_depth():
    for sysd in (
        intermediate_system(3, 1),
        intermediate_system(3, 1, ["1"]),
        constcurv_system(3),
    ):
        p0 = np.array([0.1, -0.2, 0.3])
        b = [pointwise_symmetry_bound(sysd, p0, d) for d in (0, 1, 2)]
        assert b[0] >= b[1] >= b[2]


def _chart_maps(n):
    """A cyclic permutation of the coordinates, a linear shear and a
    quadratic shear, each with its explicit inverse.  Only the last has a
    varying Jacobian, which mixes eta(p0) into the transformed F(p0)."""
    ys = [f"y{i + 1}" for i in range(n)]
    cyclic = PointMap.from_strings(n, ys[1:] + ys[:1], ys[-1:] + ys[:-1])
    shear = PointMap.from_strings(n, ["y1 + 0.3*y2"] + ys[1:], ["y1 - 0.3*y2"] + ys[1:])
    bent = PointMap.from_strings(n, ["y1 + 0.2*y2^2"] + ys[1:], ["y1 - 0.2*y2^2"] + ys[1:])
    return cyclic, shear, bent


FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
CHART_SPECS = {
    "constcurv_22_13": CanonicalSpec("constcurv_22_13", n=3, epsilons=(1, -1, 1)),
    "intermediate_17_19": CanonicalSpec("intermediate_17_19", n=3, m=2, u=("y1", "y2^2")),
}


def _chart_cases():
    """Every fixture of dimension n >= 2, then the canonical specs above."""
    names = []
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fp:
            doc = json.load(fp)
        if doc.get("n", doc.get("canonical", {}).get("n")) >= 2:
            names.append(name)
    return names + sorted(CHART_SPECS)


def _chart_system(name):
    if name in CHART_SPECS:
        return build_system(CHART_SPECS[name])
    return SystemDocument.load(os.path.join(FIXTURES, name)).to_system()


@pytest.mark.parametrize("name", _chart_cases())
def test_degeneration_and_pointwise_bound_are_chart_invariant(name):
    sysd = _chart_system(name)
    n = sysd.n
    p0 = np.array([0.1, -0.2, 0.15][:n])
    m = classify(sysd.conn).m
    bounds = [pointwise_symmetry_bound(sysd, p0, d) for d in (0, 1, 2)]
    for pm in _chart_maps(n):
        assert pm.roundtrip_residual() <= 1e-12
        moved = transform_system(sysd, pm)
        q0 = pm.apply(p0)
        assert classify(moved.conn).m == m
        assert [pointwise_symmetry_bound(moved, q0, d) for d in (0, 1, 2)] == bounds


@pytest.mark.parametrize("name", ["heisenberg.json", "intermediate_n3_m1.json", "constcurv_22_13"])
def test_lie_rows_apply_the_lie_derivative_to_the_one_jet(name):
    # row . (eta(p0), d eta(p0)) is (L_eta W)(p0) for any field eta
    sysd = _chart_system(name)
    n = sysd.n
    rng = np.random.default_rng(5)
    c = rng.uniform(-1, 1, size=(n, 3)).tolist()
    eta = VectorField.from_strings(
        n, [f"{a!r} + {b!r}*y{i % n + 1} + {q!r}*y1*y{n}" for i, (a, b, q) in enumerate(c)]
    )
    p0 = np.array([0.1, -0.2, 0.15][:n])
    jet = np.concatenate([eta.evaluate(p0), partial_differential(eta).evaluate_many(p0)[0].ravel()])
    ricci = ricci_and_s(sysd.conn)["ricci"]
    for W in (sysd.A, curvature(sysd.conn), covariant_differential(sysd.conn, ricci)):
        want = lie_derivative(eta, W).evaluate(p0).ravel()
        rows = _lie_rows(*eval_jets([W.comps], p0)[0], W.r)
        assert np.max(np.abs(rows @ jet - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# Invariance consequences
# ---------------------------------------------------------------------------


def test_invariance_suite_constcurv_rotation():
    sysd = constcurv_system(3)
    eta = VectorField.from_strings(3, ["-y2", "y1", "0"])
    assert is_symmetry(sysd, eta, tol=1e-9)
    suite = invariance_suite(sysd, eta)
    for key, rep in suite.items():
        assert rep.max_abs <= 1e-7, (key, rep.max_abs)


def test_invariance_suite_intermediate():
    sysd = intermediate_system(3, 1)  # u = (y1, 0, 0)
    for comps in (["0", "1", "0"], ["0", "-y3", "y2"]):
        eta = VectorField.from_strings(3, comps)
        assert is_symmetry(sysd, eta, tol=1e-9)
        suite = invariance_suite(sysd, eta)
        for key, rep in suite.items():
            assert rep.max_abs <= 1e-7, (key, rep.max_abs)


def test_invariance_suite_flat_scaling():
    sysd = flat_system(2)
    eta = VectorField.from_strings(2, ["y1", "0"])
    assert is_symmetry(sysd, eta, tol=1e-12)
    suite = invariance_suite(sysd, eta)
    for rep in suite.values():
        assert rep.max_abs <= 1e-10


def test_lie_gamma_is_res_gamma_for_nondegenerate_a():
    sysd = _chart_system("constcurv_n3.json")
    rot = VectorField.from_strings(3, ["-y2", "y1", "0"])
    suite = invariance_suite(sysd, rot)
    assert suite["lie_gamma"].max_abs == determining_residuals(sysd, rot)["res_Gamma"].max_abs
    # a field that is no symmetry drags the connection by O(1)
    eta = VectorField.from_strings(3, ["y1^2", "y2*y3", "sin(y1)"])
    assert invariance_suite(sysd, eta)["lie_gamma"].max_abs > 0.1


SUITE_SPECS = {
    f"{kind}_n{n}": CanonicalSpec(kind, n=n, **kw)
    for n in (2, 3)
    for kind, kw in (
        ("maximal_7_11", {}),
        ("intermediate_17_19", {"m": 1, "u": ("y1",)}),
        ("intermediate_potential_17_24", {"m": 1, "psi": "y1^2/2"}),
        ("constcurv_22_13", {}),
        ("constcurv_2d_22_14", {}),
    )
    if kind != "constcurv_2d_22_14" or n == 2
}


def _suite_symmetry(sysd):
    """The first translation, rotation or scaling that sysd admits."""
    n = sysd.n
    candidates = [["1" if k == i else "0" for k in range(n)] for i in range(n)]
    candidates += [["-y2", "y1"] + ["0"] * (n - 2)] if n >= 2 else []
    candidates += [[f"y{k + 1}" for k in range(n)]]
    for comps in candidates:
        eta = VectorField.from_strings(n, comps)
        if is_symmetry(sysd, eta):
            return eta
    raise AssertionError("no candidate symmetry")


def _tree_rows(W, p0):
    """_lie_rows by the derivative trees: lie_terms on the walk of W and
    grad(W) at p0, with (eta, F) running over the basis 1-jets."""
    n = W.n
    w, dw = eval_arrays([W.comps, grad(W.comps, n)], p0, checked=True)
    basis = np.eye(n + n * n)
    lie = lie_terms(w, dw, basis[:, :n], basis[:, n:].reshape(-1, n, n), W.r)
    return lie.reshape(n + n * n, -1).T


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)) + sorted(SUITE_SPECS))
def test_lie_rows_equal_the_rows_of_the_derivative_trees(name):
    # the forward-mode rows against the trees they replace, to the bit
    sysd = build_system(SUITE_SPECS[name]) if name in SUITE_SPECS else _chart_system(name)
    n, conn = sysd.n, sysd.conn
    p0 = np.array([0.1, -0.2, 0.15][:n])
    curv = curvature(conn)
    nabla = covariant_differential(conn, ricci_and_s(conn)["ricci"])
    rows = [_tree_rows(W, p0) for W in (sysd.A, curv, nabla)]
    for W, want in zip((sysd.A, curv, nabla), rows):
        assert _lie_rows(*eval_jets([W.comps], p0)[0], W.r).tobytes() == want.tobytes()
    want = [n * n + n - int(_ranks(np.concatenate(rows[: d + 1]), RANK_RTOL)) for d in range(3)]
    assert pointwise_symmetry_bounds(sysd, p0) == want


BOUND_SPECS = {
    f"{kind}_n{n}": CanonicalSpec(kind, n=n, **kw)
    for n in (2, 3, 4)
    for kind, kw in (
        ("maximal_7_11", {}),
        ("intermediate_17_19", {"m": 1, "u": ("y1",)}),
        ("intermediate_potential_17_24", {"m": 1, "psi": "y1^2/2"}),
        ("constcurv_22_13", {}),
        ("constcurv_2d_22_14", {}),
    )
    if kind != "constcurv_2d_22_14" or n == 2
}


def _random_polynomial_system(n, seed):
    """A scalar A and a Gamma of random quadratic polynomials, symmetric in
    its lower slots."""
    rng = np.random.default_rng(seed)
    monomials = ["1"] + [f"y{i + 1}" for i in range(n)]
    monomials += [f"y{i + 1}*y{j + 1}" for i in range(n) for j in range(i, n)]
    gamma = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for r in range(n):
            for s in range(r, n):
                terms = [f"{c!r}*{m}" for c, m in zip(rng.uniform(-1, 1, len(monomials)).tolist(), monomials)]
                gamma[k, r, s] = gamma[k, s, r] = parse_expr(" + ".join(terms), n)
    return DiffusionSystem(n, scalar_operator(n, 1.5), Connection(n, gamma))


def _bound_case(name):
    """A system and a point: a fixture, a canonical kind, either moved by a
    shear, or a random polynomial Gamma."""
    p0 = [0.1, -0.2, 0.15, 0.05]
    if name.startswith("random_n"):
        n = int(name[len("random_n")])
        return _random_polynomial_system(n, 2600 + n), np.array(p0[:n])
    base = name.removeprefix("sheared_")
    sysd = build_system(BOUND_SPECS[base]) if base in BOUND_SPECS else _chart_system(base)
    p0 = np.array(p0[: sysd.n])
    if base != name:
        shear = _chart_maps(sysd.n)[1]
        return transform_system(sysd, shear), shear.apply(p0)
    return sysd, p0


BOUND_CASES = (
    sorted(os.listdir(FIXTURES))
    + sorted(BOUND_SPECS)
    + [f"sheared_{name}" for name in ("constcurv_n3.json", "heisenberg.json", "constcurv_22_13_n4")]
    + ["random_n2", "random_n3", "random_n4"]
)


@pytest.mark.parametrize("name", BOUND_CASES)
def test_taylor_rows_are_the_rows_of_the_derivative_trees(name):
    # the bound's rows from Taylor coefficients against _lie_rows on the
    # jets of A, R and nabla Ric, to 1e-12, and the same bound at each depth
    sysd, p0 = _bound_case(name)
    n = sysd.n
    rows = _taylor_rows(sysd, p0, 2)
    nabla = covariant_differential(sysd.conn, ricci_and_s(sysd.conn)["ricci"])
    want = [_lie_rows(*eval_jets([W.comps], p0)[0], W.r) for W in (sysd.A, curvature(sysd.conn), nabla)]
    for got, tree in zip(rows, want):
        assert got.shape == tree.shape
        assert np.max(np.abs(got - tree)) <= 1e-12 * (1 + np.max(np.abs(tree)))
    bounds = [n * n + n - int(_ranks(np.concatenate(want[: d + 1]), RANK_RTOL)) for d in range(3)]
    for depth in (0, 1, 2):
        assert pointwise_symmetry_bounds(sysd, p0, depth) == bounds[: depth + 1]


def test_the_bounds_take_depth_0_1_or_2():
    # a depth beyond 2 would repeat depth 2's rows, and a negative one give
    # no bound: both are refused, by the plural function as by the singular
    sysd = build_system(CanonicalSpec("constcurv_22_13", n=2))
    assert pointwise_symmetry_bounds(sysd, [0.1, 0.2], 2) == [6, 3, 3]
    for depth in (-1, 3, 4):
        for bound in (pointwise_symmetry_bound, pointwise_symmetry_bounds):
            with pytest.raises(ValueError, match="depth must be 0, 1 or 2"):
                bound(sysd, [0.1, 0.2], depth)


STEEP = [["exp(1e110*y1)", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]
HUGE_A = [["1.7e308", "0"], ["0", "-1.7e308"]]
CANCELLING = [["0", "0"], ["0", "0"]], [["0", "0"], ["0", "cos(sqrt(1e-80 + y1))"]]
# (A, Gamma, point, depth, error, message): documents where the bound's
# Taylor path faults.  Gamma's third derivative overflows, and only nabla
# Ric needs it; L_eta A's rows hold A^1_1 - A^2_2, which overflows, before
# that fault; R ~ 1.4e308 is finite, and a row adds two of its components;
# with 1.2e155 in place of 1.2e154 the products of Gamma in R overflow; at
# y1 = 1e-100 the chain rule of cos(sqrt(1e-80 + y1)) sums terms of
# 1.25e79 that cancel, so the rank would be the rounding's.
BOUND_FAULTS = {
    "steep_gamma": (
        [["1", "0"], ["0", "1"]], STEEP, [0.0, 0.1], 2, DomainError,
        "Taylor coefficient out of range: exp(1e+110*y1)",
    ),
    "huge_a_depth2": (HUGE_A, STEEP, [0.0, 0.1], 2, ExprError, "the linearized Lie derivative overflows at the point"),
    "huge_a_depth0": (HUGE_A, STEEP, [0.0, 0.1], 0, ExprError, "the linearized Lie derivative overflows at the point"),
    "huge_curvature": (
        [["1", "0"], ["0", "1"]],
        ([["0", "1.2e154 + y2"], ["1.2e154 + y2", "0"]], [["1.2e154 + y1", "0"], ["0", "0"]]),
        [0.3, 0.2], 1, ExprError, "the linearized Lie derivative overflows at the point",
    ),
    "overflowing_curvature": (
        [["1", "0"], ["0", "1"]],
        ([["0", "1.2e155 + y2"], ["1.2e155 + y2", "0"]], [["1.2e155 + y1", "0"], ["0", "0"]]),
        [0.3, 0.2], 1, ExprError, "the curvature's Taylor coefficients overflow at y = [0.3, 0.2]",
    ),
    "cancellation": (
        [["1", "0"], ["0", "1"]], CANCELLING, [1e-100, 0.1], 2, ExprError,
        "Taylor coefficients lost to cancellation: Gamma at y = [1e-100, 0.1]",
    ),
}


def _system(a, gamma):
    return DiffusionSystem(
        2, TensorField.from_strings(2, 1, 1, a), Connection.from_strings(2, list(gamma)), check=False
    )


def test_the_bound_builds_no_curvature_or_nabla_ricci_tree(monkeypatch):
    # the bound takes its numbers from Taylor coefficients: neither tree is
    # built, nor kept on the connection, on a regular system or where the
    # Taylor path faults
    def refuse(*args):
        raise AssertionError("the bound built a tree")

    monkeypatch.setattr(symmetry, "curvature", refuse)
    monkeypatch.setattr(symmetry, "covariant_differential", refuse)
    for name in ("constcurv_n3.json", "heisenberg.json", "intermediate_n3_m1.json"):
        sysd = _chart_system(name)
        p0 = np.array([0.1, -0.2, 0.15][: sysd.n])
        assert len(pointwise_symmetry_bounds(sysd, p0)) == 3
        assert sysd.conn.curv is None
    assert pointwise_symmetry_bounds(constcurv_system(3), [0.1, -0.2, 0.15]) == [12, 6, 6]
    for a, gamma, p0, depth, error, _message in BOUND_FAULTS.values():
        sysd = _system(a, gamma)
        with pytest.raises(error):
            pointwise_symmetry_bounds(sysd, p0, depth)
        assert sysd.conn.curv is None


@pytest.mark.parametrize("a, gamma, p0, depth, error, message", BOUND_FAULTS.values(), ids=BOUND_FAULTS)
def test_the_bound_raises_where_the_taylor_path_faults(a, gamma, p0, depth, error, message):
    with pytest.raises(error) as info:
        pointwise_symmetry_bounds(_system(a, gamma), p0, depth)
    assert str(info.value) == message


def test_the_bound_refuses_where_taylor_coefficients_cancel():
    # the chain rule of cos(sqrt(1e-80 + y1)) sums terms that grow as y1
    # shrinks and cancel: Gamma's coefficients to order 3, which depth 2
    # walks, lose six digits from y1 = 1e-4 down, and those to order 2,
    # which depth 1 walks, from y1 = 1e-7; there the bound refuses.  Depth
    # 0 needs A alone, and where the digits are kept the bounds are those
    # of every y1 from 1e-1 to 1e-3.
    sysd = _system([["1", "0"], ["0", "1"]], CANCELLING)
    for y1 in (1e-1, 1e-2, 1e-3):
        assert pointwise_symmetry_bounds(sysd, [y1, 0.1]) == [6, 3, 1]
    assert pointwise_symmetry_bounds(sysd, [1e-4, 0.1], 1) == [6, 3]
    refused = [(1e-4, 2), (1e-7, 1), (1e-7, 2), (1e-100, 1), (1e-100, 2)]
    for y1, depth in refused:
        assert pointwise_symmetry_bounds(sysd, [y1, 0.1], 0) == [6]
        with pytest.raises(ExprError, match=r"^Taylor coefficients lost to cancellation: Gamma at y = \["):
            pointwise_symmetry_bounds(sysd, [y1, 0.1], depth)


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(FIXTURES) if n != "constcurv_2d.json"))
def test_the_bound_is_the_exact_rank_on_rational_fixtures(name):
    # every coefficient is a rational function, so the rows have an exact
    # rank at the document's first point (constcurv_2d.json has a sqrt)
    doc = SystemDocument.load(os.path.join(FIXTURES, name))
    sysd, p0 = doc.to_system(), doc._points[0]
    assert pointwise_symmetry_bounds(sysd, p0) == exact_bounds(sysd, p0)


def test_the_bound_is_the_exact_rank_at_intermediate_n4_m2():
    sysd = build_system(CanonicalSpec("intermediate_17_19", n=4, m=2, u=("y1", "y2")))
    p0 = sample_points(4, 20)[0]
    assert pointwise_symmetry_bounds(sysd, p0) == exact_bounds(sysd, p0) == [20, 13, 11]


@pytest.mark.parametrize(
    "a, gamma, p0, depth, bounds",
    [
        # the second derivative tree of y1^3/1e80 divides by the folded
        # constant (1e160)^2, which overflows
        ([["1", "0"], ["0", "1"]], ([["0", "0"], ["0", "y1^3/1e80"]], [["0", "0"], ["0", "0"]]), [0.3, 0.2], 2, [6, 4, 2]),
        # the tree of dA/dy2 folds 1.01e304*1e154, which is not finite
        ([["1.0142320547350045e+304/(1e+154*y2)", "0"], ["0", "1"]], STEEP, [0.0, 0.1], 0, [3]),
    ],
    ids=["cubic_over_1e80", "quotient_1e304"],
)
def test_the_bound_is_the_exact_rank_where_the_derivative_trees_fail(a, gamma, p0, depth, bounds):
    sysd = _system(a, gamma)
    assert pointwise_symmetry_bounds(sysd, p0, depth) == exact_bounds(sysd, p0, depth) == bounds


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)) + sorted(SUITE_SPECS))
def test_invariance_suite_equals_the_lie_derivative_trees(name):
    # the suite evaluates liefn.lie_terms on values; the trees of
    # lie_derivative are its oracle, to the bit where it matters: the
    # maximum and where it sits
    sysd = build_system(SUITE_SPECS[name]) if name in SUITE_SPECS else _chart_system(name)
    n, conn = sysd.n, sysd.conn
    pts = sample_points(n, 20)
    curv = curvature(conn)
    parts = ricci_and_s(conn)
    fields = {
        "lie_curvature": curv,
        "lie_ricci": parts["ricci"],
        "lie_s": parts["s"],
        "lie_nabla_ricci": covariant_differential(conn, parts["ricci"]),
    }
    moving = VectorField.from_strings(n, ["y1^2", "sin(y1)", f"y1*y{n}"][:n])
    for eta in (_suite_symmetry(sysd), moving):
        suite = invariance_suite(sysd, eta, pts)
        for key, W in fields.items():
            want = max_report(lie_derivative(eta, W).evaluate_many(pts), pts)
            got = suite[key]
            assert got.max_abs == want.max_abs, (key, got.max_abs, want.max_abs)
            assert got.argmax_point == want.argmax_point, key
            assert got.argmax_component == want.argmax_component, key


@pytest.mark.parametrize(
    "r, s, comps",
    [(1, 0, ["y2*y3", "cos(y1)", "1 + y1^2"]), (0, 1, ["exp(y2)", "y1*y3", "y3 - y2^2"])],
)
def test_lie_nabla_commutator_is_the_lie_derivative_of_gamma(r, s, comps):
    # (L_eta nabla - nabla L_eta) W = (L_eta Gamma) . W for a torsion-free
    # connection, on a field eta that is no symmetry, where both sides are O(1)
    sysd = build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))
    conn = sysd.conn
    eta = VectorField.from_strings(3, ["y1^2", "y2*y3", "sin(y1)"])
    w = TensorField(3, r, s, np.array([parse_expr(t, 3) for t in comps], dtype=object))
    pts = sample_points(3, 20)
    lhs = lie_derivative(eta, covariant_differential(conn, w)).evaluate_many(pts)
    rhs = covariant_differential(conn, lie_derivative(eta, w)).evaluate_many(pts)
    comm = lhs - rhs  # [p, i, k]: upper slot, then the derivative slot k
    # C[p, i, r, s] = (L_eta Gamma)^i_rs
    C = -eval_arrays([_field_tree("conn_eq", conn, eta=eta)], pts, checked=False)[0]
    W = w.evaluate_many(pts)
    if r == 1:
        want = np.einsum("pikj,pj->pik", C, W)
    else:
        want = -np.einsum("pjki,pj->pik", C, W)
    assert np.max(np.abs(comm)) >= 0.1
    assert np.max(np.abs(comm - want)) <= 1e-12 * np.max(np.abs(comm))


def test_full_equation_consistent_with_reduced_for_scalar_a():
    # with A = a * id constant, the A-weighted equation is a times the
    # reduced one; check the residual expressions agree componentwise
    a = 2.0
    sys = flat_system(2, a=a)
    eta = VectorField.from_strings(2, ["y1^2", "y2*y1"])
    pts = sample_points(2, 10)
    trees = [_field_tree("conn_eq", sys.conn, eta=eta), _field_tree("conn_eq_full", sys.conn, A=sys.A, eta=eta)]
    reduced, full = eval_arrays(trees, pts, checked=False)
    assert np.max(np.abs(full - a * reduced)) <= 1e-12
