"""Curvature, Ricci split, covariant differential, metric connections and
structure residuals."""

import numpy as np
import pytest

from affsym import geometry
from affsym.expr import DomainError, const, coord, parse_expr
from affsym.geometry import (
    Connection,
    DiffusionSystem,
    bianchi_padov_residual,
    covariant_differential,
    curvature,
    lower_curvature,
    metric_connection,
    ricci_and_s,
    structure_residual,
)
from affsym.tensor import TensorField, contract, partial_differential, tensor_product
from affsym.util import sample_points


def conformal_metric(n, epsilons=None):
    """g = diag(eps)/f^2 with f = 1/(2(n-1)) + sum eps_i (y^i)^2 / 2."""
    eps = epsilons if epsilons is not None else [1.0] * n
    terms = " + ".join(f"{eps[i]}*y{i + 1}^2" for i in range(n))
    f = parse_expr(f"1/{2 * (n - 1)} + ({terms})/2", n)
    rows = []
    for i in range(n):
        rows.append([const(eps[i]) / (f * f) if i == j else const(0.0) for j in range(n)])
    return TensorField(n, 0, 2, rows), f


def constcurv_connection(n, epsilons=None):
    """Explicit conformally-flat constant-curvature coefficients:
    Gamma^k_rs = (-eps_r y^r d^k_s - eps_s y^s d^k_r + eps_r d_rs y^k)/f."""
    eps = epsilons if epsilons is not None else [1.0] * n
    _, f = conformal_metric(n, eps)
    arr = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for r in range(n):
            for s in range(n):
                e = const(0.0)
                if k == s:
                    e = e - const(eps[r]) * coord(r + 1)
                if k == r:
                    e = e - const(eps[s]) * coord(s + 1)
                if r == s:
                    e = e + const(eps[r]) * coord(k + 1)
                arr[k, r, s] = e / f
    return Connection(n, arr)


def intermediate_connection(n, m):
    """Gamma^k_rs = -(u_r d^k_s + u_s d^k_r) with u = (y1..ym, 0..)."""
    arr = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for r in range(n):
            for s in range(n):
                e = const(0.0)
                if k == s and r < m:
                    e = e - coord(r + 1)
                if k == r and s < m:
                    e = e - coord(s + 1)
                arr[k, r, s] = e
    return Connection(n, arr)


def random_poly_connection(n, seed=0):
    rng = np.random.default_rng(seed)
    arr = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for r in range(n):
            for s in range(r, n):
                c = rng.uniform(-1, 1, size=3)
                e = (
                    const(c[0])
                    + const(c[1]) * coord(int(rng.integers(1, n + 1)))
                    + const(c[2]) * coord(int(rng.integers(1, n + 1))) * coord(int(rng.integers(1, n + 1)))
                )
                arr[k, r, s] = e
                arr[k, s, r] = e
    return Connection(n, arr)


def test_flat_curvature_zero():
    R = curvature(Connection.zeros(3))
    assert np.max(np.abs(R.evaluate_many(sample_points(3, 5)))) == 0.0


def test_one_dimensional_curvature_vanishes_identically():
    conn = Connection.from_strings(1, [[["exp(y1)*y1 + 3"]]])
    R = curvature(conn)
    assert np.max(np.abs(R.evaluate_many(sample_points(1, 10)))) <= 1e-14


def test_curvature_skew_and_first_bianchi():
    conn = random_poly_connection(3, seed=4)
    R = curvature(conn).evaluate_many(sample_points(3, 10))
    # skew in the last index pair
    assert np.max(np.abs(R + R.transpose(0, 1, 2, 4, 3))) <= 1e-10
    # cyclic identity over the three lower slots
    cyc = R + R.transpose(0, 1, 3, 4, 2) + R.transpose(0, 1, 4, 2, 3)
    assert np.max(np.abs(cyc)) <= 1e-10


@pytest.mark.parametrize("c", [2.0**-24, 2.0**1000])
def test_metric_connection_judges_a_singular_metric_relative_to_its_scale(c):
    # |det(c g)| is c^2 |det g|: 2^-48 is below an absolute 1e-12 and
    # 2^2000 beyond the float range, and neither makes g singular.  A power
    # of two keeps every scaled constant exact, so the Christoffel symbols
    # of c g are those of g to the bit, where the symbolic inverse of c g
    # stays in range: at n = 2 for 2^-24, at n = 1 (the inverse is 1/g) for
    # both
    rows = [["1 + y1*y1", "0.5*y2"], ["0.5*y2", "2"]]
    pts = sample_points(2, 20)
    conn = metric_connection(TensorField.from_strings(2, 0, 2, [[f"{c!r}*({t})" for t in r] for r in rows]))
    if c < 1.0:
        want = metric_connection(TensorField.from_strings(2, 0, 2, rows)).evaluate_many(pts)
        assert conn.evaluate_many(pts).tobytes() == want.tobytes()
    one = metric_connection(TensorField.from_strings(1, 0, 2, [[[f"{c!r}*exp(2*y1)"]]]))
    want = metric_connection(TensorField.from_strings(1, 0, 2, [[["exp(2*y1)"]]]))
    pts = sample_points(1, 10)
    assert one.evaluate_many(pts).tobytes() == want.evaluate_many(pts).tobytes()


def test_regular_matrices_are_judged_by_their_singular_values():
    # the smallest singular value over the largest: any nonzero scale
    # passes, a rank-deficient or non-finite matrix does not
    base = np.array([[[1.0, 0.5], [0.5, 2.0]], [[3.0, 0.0], [0.0, 1e-3]]])
    for c in (2.0**-1000, 2.0**-24, 1.0, 2.0**1000, -(2.0**1000)):
        assert geometry._regular(c * base)
    assert not geometry._regular(np.array([[[1.0, 2.0], [2.0, 4.0]]]))
    assert not geometry._regular(np.array([[[1.0, 0.0], [0.0, 1e-13]]]))
    assert not geometry._regular(np.array([[[np.inf, 0.0], [0.0, 1.0]]]))
    assert not geometry._regular(np.array([[[np.nan, 0.0], [0.0, 1.0]]]))


def test_ranks_of_a_stack_are_the_ranks_of_its_matrices():
    # one call on a stack counts what one call per matrix counts, to the
    # same cutoff relative to each matrix's largest singular value
    mats = np.array([[[1.0, 2.0], [2.0, 4.0]], [[1e-300, 0.0], [0.0, 1e-300]], np.zeros((2, 2))])
    assert geometry._ranks(mats, 1e-7).tolist() == [1, 2, 0]
    assert [int(geometry._ranks(m, 1e-7)) for m in mats] == [1, 2, 0]
    assert geometry._ranks(np.diag([1.0, 1e-8]), 1e-7) == 1
    assert geometry._ranks(np.diag([1.0, 1e-6]), 1e-7) == 2


def test_a_connection_not_symmetric_where_it_is_defined_is_refused():
    # Gamma^1_12 - Gamma^1_21 = y2 where y1 >= 0, and both are nan at the
    # sample points with y1 < 0, which must not hide the difference; nan
    # against a number is a difference too
    for g12, g21, res in (("sqrt(y1) + y2", "sqrt(y1)", "[1-9]"), ("sqrt(y1 - 1)", "0", "nan")):
        c = Connection.from_strings(2, [[["0", g12], [g21, "0"]], [["0", "0"], ["0", "0"]]])
        with pytest.raises(ValueError, match=f"connection coefficients not symmetric: residual {res}"):
            DiffusionSystem(2, TensorField.identity(2), c)
    # a coefficient nan at a sample point in both places is symmetric there
    c = Connection.from_strings(2, [[["0", "sqrt(y1)"], ["sqrt(y1)", "0"]], [["0", "0"], ["0", "0"]]])
    assert c.symmetry_residual() == 0.0


def test_constant_metric_gives_flat_connection():
    g = TensorField.from_strings(2, 0, 2, [["2", "0.5"], ["0.5", "3"]])
    conn = metric_connection(g)
    assert np.max(np.abs(conn.evaluate_many(sample_points(2, 5)))) == 0.0


def test_one_dimensional_christoffel_hand_oracle():
    # g = exp(2 y1): Gamma = g^{-1}/2 * dg/dy = 1
    g = TensorField.from_strings(1, 0, 2, [[["exp(2*y1)"]]])
    conn = metric_connection(g)
    vals = conn.evaluate_many(sample_points(1, 10))
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_metric_compatibility_random_diagonal():
    rng = np.random.default_rng(5)
    n = 3
    for _ in range(3):
        diag = [
            f"1 + {rng.uniform(0.1, 0.9):.6f}*y{rng.integers(1, n + 1)}^2",
            f"exp({rng.uniform(-0.5, 0.5):.6f}*y1)",
            f"2 + {rng.uniform(0.1, 0.9):.6f}*y3^2",
        ]
        rows = [[diag[i] if i == j else "0" for j in range(n)] for i in range(n)]
        g = TensorField.from_strings(n, 0, 2, rows)
        conn = metric_connection(g)
        nab_g = covariant_differential(conn, g)
        assert np.max(np.abs(nab_g.evaluate_many(sample_points(n, 10)))) <= 1e-9


def test_metric_connection_matches_constcurv_coefficients():
    n = 3
    g, _ = conformal_metric(n)
    conn = metric_connection(g)
    explicit = constcurv_connection(n)
    pts = sample_points(n, 10)
    assert np.max(np.abs(conn.evaluate_many(pts) - explicit.evaluate_many(pts))) <= 1e-8


def test_metric_connection_rejects_singular():
    g = TensorField.from_strings(2, 0, 2, [["y1", "0"], ["0", "1"]])
    with pytest.raises(ValueError):
        metric_connection(g, pts=np.array([[0.0, 0.1], [0.2, 0.1]]))


def test_covariant_differential_of_scalar_is_gradient():
    conn = random_poly_connection(2, seed=9)
    f = parse_expr("y1^2*y2", 2)
    df = covariant_differential(conn, f)
    pts = sample_points(2, 5)
    grad = partial_differential(TensorField.scalar(2, f))
    assert np.max(np.abs(df.evaluate_many(pts) - grad.evaluate_many(pts))) == 0.0


def test_covariant_differential_flat_is_partial():
    conn = Connection.zeros(2)
    w = TensorField.from_strings(2, 1, 1, [["y1*y2", "exp(y1)"], ["y2^2", "1"]])
    pts = sample_points(2, 5)
    a = covariant_differential(conn, w).evaluate_many(pts)
    # flat case: components are plain partials, slot order [i, k, j]
    b = partial_differential(w).evaluate_many(pts)
    assert np.max(np.abs(a - b)) == 0.0


def test_covariant_differential_leibniz():
    n = 2
    conn = random_poly_connection(n, seed=11)
    u = TensorField.from_strings(n, 1, 0, ["y2", "y1*y1"])
    w = TensorField.from_strings(n, 0, 1, ["sin(y1)", "y2"])
    pts = sample_points(n, 8)
    lhs = covariant_differential(conn, tensor_product(u, w)).evaluate_many(pts)
    du = covariant_differential(conn, u).evaluate_many(pts)  # [i, k]
    dw = covariant_differential(conn, w).evaluate_many(pts)  # [k, j]
    uv = u.evaluate_many(pts)
    wv = w.evaluate_many(pts)
    # (nabla (u (x) w))[i, k, j] = du[i,k] w[j] + u[i] dw[k,j]
    rhs = np.einsum("pik,pj->pikj", du, wv) + np.einsum("pi,pkj->pikj", uv, dw)
    assert np.max(np.abs(lhs - rhs)) <= 1e-11


def test_ricci_split_flat_zero():
    parts = ricci_and_s(Connection.zeros(3))
    pts = sample_points(3, 5)
    for key in ("ricci", "s", "ricci_sym", "ricci_skew"):
        assert np.max(np.abs(parts[key].evaluate_many(pts))) == 0.0


def test_s_equals_twice_skew_ricci():
    conn = random_poly_connection(3, seed=21)
    parts = ricci_and_s(conn)
    pts = sample_points(3, 20)
    s = parts["s"].evaluate_many(pts)
    rt = parts["ricci_skew"].evaluate_many(pts)
    assert np.max(np.abs(s - 2.0 * rt)) <= 1e-10


def test_constcurv_ricci_is_metric():
    n = 3
    g, _ = conformal_metric(n)
    conn = constcurv_connection(n)
    parts = ricci_and_s(conn)
    pts = sample_points(n, 20)
    assert np.max(np.abs(parts["ricci_skew"].evaluate_many(pts))) <= 1e-8
    diff = parts["ricci_sym"].evaluate_many(pts) - g.evaluate_many(pts)
    assert np.max(np.abs(diff)) <= 1e-8


def test_structure_residual_flat_zero():
    conn = Connection.zeros(3)
    for form in ("intermediate_10_15", "beta_14_1", "const_curv_19_14"):
        assert structure_residual(conn, form).max_abs == 0.0
    assert structure_residual(Connection.zeros(2), "two_dim_12_1").max_abs == 0.0


def test_structure_residual_constcurv():
    conn = constcurv_connection(3)
    rep = structure_residual(conn, "const_curv_19_14")
    assert rep.max_abs <= 1e-8


def test_structure_residual_intermediate():
    conn = intermediate_connection(3, 1)
    rep = structure_residual(conn, "intermediate_10_15")
    assert rep.max_abs <= 1e-8
    rep2 = structure_residual(intermediate_connection(2, 1), "two_dim_12_1")
    assert rep2.max_abs <= 1e-8


def test_structure_residual_refuses_a_pole_of_gamma():
    # Gamma^1_11 = 1/y1 is infinite at the probe point y1 = 0: the checked
    # walk of Gamma names the node; away from the pole the residual is finite
    conn = Connection.from_strings(2, [[["1/y1", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]])
    with pytest.raises(DomainError, match=r"^division by zero: 1/y1$"):
        structure_residual(conn, "two_dim_12_1", [[0.0, 0.1], [0.2, 0.3]])
    assert np.isfinite(structure_residual(conn, "two_dim_12_1", [[0.2, 0.3]]).max_abs)


def test_structure_residual_of_an_overflowing_curvature_is_inf():
    # Gamma and its derivatives are finite, R's products overflow: R is
    # unchecked, so the residual reads inf
    conn = Connection.from_strings(2, [[["1e200*y1", "0"], ["0", "0"]], [["0", "1e200*y2"], ["1e200*y2", "0"]]])
    assert structure_residual(conn, "two_dim_12_1").max_abs == float("inf")


def test_structure_residual_dimension_checks():
    with pytest.raises(ValueError):
        structure_residual(Connection.zeros(2), "intermediate_10_15")
    with pytest.raises(ValueError):
        structure_residual(Connection.zeros(3), "two_dim_12_1")
    with pytest.raises(ValueError):
        structure_residual(Connection.zeros(3), "nonsense")


def test_bianchi_padov_identity():
    assert bianchi_padov_residual(Connection.zeros(2)).max_abs == 0.0
    assert bianchi_padov_residual(random_poly_connection(3, seed=31)).max_abs <= 1e-8
    assert bianchi_padov_residual(constcurv_connection(3)).max_abs <= 1e-8


def test_lowered_curvature_symmetries_for_metric_connection():
    n = 2
    g, _ = conformal_metric(n)
    conn = metric_connection(g)
    low = lower_curvature(g, curvature(conn)).evaluate_many(sample_points(n, 10))
    # skew in the first pair and pair-exchange symmetric
    assert np.max(np.abs(low + low.transpose(0, 2, 1, 3, 4))) <= 1e-9
    assert np.max(np.abs(low - low.transpose(0, 3, 4, 1, 2))) <= 1e-9
    ric = ricci_and_s(conn)["ricci"].evaluate_many(sample_points(n, 10))
    assert np.max(np.abs(ric - ric.transpose(0, 2, 1))) <= 1e-9


def test_curvature_is_built_once_per_connection():
    conn = random_poly_connection(2, seed=7)
    curv = curvature(conn)
    assert curvature(conn) is curv
    assert curvature(random_poly_connection(2, seed=7)) is not curv


def test_nabla_ricci_two_ways():
    conn = random_poly_connection(3, seed=41)
    curv = curvature(conn)
    parts = ricci_and_s(conn)
    direct = covariant_differential(conn, parts["ricci"])
    # contraction of nabla R over the upper index and the x-slot:
    # Ricci_jk = R^q_jqk, so nabla_i Ricci_jk = (nabla R)^q_{i j q k}
    nr = covariant_differential(conn, curv)
    contracted = contract(nr, 0, 2)  # upper q with the third lower slot
    pts = sample_points(3, 10)
    assert np.max(np.abs(direct.evaluate_many(pts) - contracted.evaluate_many(pts))) <= 1e-10


def test_constcurv_parallel_ricci():
    conn = constcurv_connection(3)
    q = covariant_differential(conn, ricci_and_s(conn)["ricci"])
    assert np.max(np.abs(q.evaluate_many(sample_points(3, 20)))) <= 1e-8


def test_covariant_derivative_contract_form():
    # contracting a vector into the first slot of the covariant differential
    # reproduces the directional covariant derivative assembled independently
    # from the definition: X^k (d_k W^i_j + G^i_kq W^q_j - G^q_kj W^i_q)
    n = 2
    conn = random_poly_connection(n, seed=51)
    w = TensorField.from_strings(n, 1, 1, [["y1*y2", "exp(y2)"], ["y2^2", "1"]])
    yvec = TensorField.from_strings(n, 1, 0, ["y2", "1 + y1"])
    contracted = contract(tensor_product(yvec, covariant_differential(conn, w)), 0, 0)
    pts = sample_points(n, 10)
    got = contracted.evaluate_many(pts)
    gv = conn.evaluate_many(pts)
    wv = w.evaluate_many(pts)
    xv = yvec.evaluate_many(pts)
    dw = np.empty((len(pts), n, n, n))  # dw[:, k, i, j] = d W^i_j / dy^k
    from affsym.expr import diff_expr, eval_many

    for i in range(n):
        for j in range(n):
            for k in range(n):
                dw[:, k, i, j] = eval_many(diff_expr(w.comps[i, j], k + 1), pts)
    want = np.einsum("pk,pkij->pij", xv, dw)
    want += np.einsum("pk,pikq,pqj->pij", xv, gv, wv)
    want -= np.einsum("pk,pqkj,piq->pij", xv, gv, wv)
    assert np.max(np.abs(got - want)) <= 1e-12
