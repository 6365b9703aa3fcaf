"""Canonical geometry constructors, deformation identity, and the
projective-flattening pipeline."""

import itertools
import os

import numpy as np
import pytest

from affsym.canonical import (
    CanonicalSpec,
    build_system,
    conformal_factor,
    constcurv_metric,
    deformation_from_covector,
    deformed_curvature,
    projective_flatten,
    rotation_field,
)
from affsym.cli import SystemDocument
from affsym.expr import ZERO, const, coord, diff_expr, eval_expr, eval_many_shared
from affsym.geometry import (
    Connection,
    _curvature_comps,
    _quadratic_plan,
    covariant_differential,
    curvature,
    ricci_and_s,
    structure_residual,
)
from affsym.pfaff import TransportError, _coords, _lift, transport_to
from affsym.symmetry import classify
from affsym.tensor import ADD, MUL, SUB, TensorField, bcast, fold, grad
from affsym.util import max_report, sample_points

from test_geometry import conformal_metric as independent_metric
from test_geometry import constcurv_connection as independent_connection
from test_ode import _hex
from test_pfaff import count_diffs
from test_point_values import FIXTURES, SPECS


def test_maximal_build():
    sys = build_system(CanonicalSpec("maximal_7_11", n=2, a=1.0))
    pts = sample_points(2, 5)
    assert np.max(np.abs(sys.conn.evaluate_many(pts))) == 0.0
    av = sys.A.evaluate_many(pts)
    assert np.allclose(av, np.eye(2)[None, :, :])


def test_constcurv_hand_value():
    # Gamma^1_11 at (0.1, 0, 0): f = 1/4 + 0.005, value -y1/f
    sys = build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0, epsilons=(1, 1, 1)))
    got = eval_expr(sys.conn.gamma[0, 0, 0], [0.1, 0.0, 0.0])
    assert got == pytest.approx(-0.1 / 0.255, abs=1e-14)
    f = conformal_factor(3, (1, 1, 1))
    assert eval_expr(f, [0.1, 0.0, 0.0]) == pytest.approx(0.255)


def test_constcurv_matches_independent_construction():
    sys = build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))
    other = independent_connection(3)
    pts = sample_points(3, 10)
    assert np.max(np.abs(sys.conn.evaluate_many(pts) - other.evaluate_many(pts))) <= 1e-12
    g, _ = constcurv_metric(3)
    g2, _ = independent_metric(3)
    assert np.max(np.abs(g.evaluate_many(pts) - g2.evaluate_many(pts))) <= 1e-12


def test_intermediate_potential_matches_gradient_build():
    via_psi = build_system(
        CanonicalSpec("intermediate_potential_17_24", n=3, a=1.0, m=1, psi="y1^2/2")
    )
    via_u = build_system(
        CanonicalSpec("intermediate_17_19", n=3, a=1.0, m=1, u=("y1",))
    )
    pts = sample_points(3, 10)
    assert (
        np.max(np.abs(via_psi.conn.evaluate_many(pts) - via_u.conn.evaluate_many(pts)))
        == 0.0
    )


def test_intermediate_rejects_bad_dependence():
    with pytest.raises(ValueError):
        build_system(CanonicalSpec("intermediate_17_19", n=3, a=1.0, m=1, u=("y2",)))
    with pytest.raises(ValueError):
        build_system(
            CanonicalSpec("intermediate_potential_17_24", n=3, a=1.0, m=1, psi="y2^2")
        )


def test_spec_validation():
    with pytest.raises(ValueError):
        CanonicalSpec("maximal_7_11", n=2, a=0.0)
    with pytest.raises(ValueError):
        CanonicalSpec("intermediate_17_19", n=2, a=1.0, m=3)
    with pytest.raises(ValueError):
        CanonicalSpec("constcurv_22_13", n=3, a=1.0, b=0.5)
    with pytest.raises(ValueError):
        CanonicalSpec("constcurv_2d_22_14", n=3, a=1.0, b=0.5)
    with pytest.raises(ValueError):
        CanonicalSpec("constcurv_22_13", n=3, a=1.0, epsilons=(1, 2, 1))
    with pytest.raises(ValueError, match="epsilons"):  # True == 1, but a bool is no sign
        CanonicalSpec("constcurv_22_13", n=2, a=1.0, epsilons=(True, -1))
    with pytest.raises(ValueError):
        CanonicalSpec("bogus", n=2)
    with pytest.raises(ValueError):
        CanonicalSpec("scalar_23_1", n=2, a=1.0)
    with pytest.raises(ValueError, match="expression strings"):
        CanonicalSpec("intermediate_17_19", n=2, m=1, u=(1.0,))
    with pytest.raises(ValueError, match="expression strings"):
        CanonicalSpec("intermediate_potential_17_24", n=2, m=1, psi=3)


# covector entries and potentials in y_j: a pole at the first sample point
# (c its j-th coordinate), a term that overflows to inf, nan where y_j < 0,
# and inf where y_j > 0.071
U_TERMS = ("1/(y{j} - {c!r})", "1e308*(y{j} + 2)^2", "ln(y{j})", "exp(1e4*y{j})")
PSI_TERMS = ("1/(y{j} - {c!r})", "1e308*y{j}*(y{j} + 1)", "y{j}*ln(y{j})", "exp(1e4*y{j})")


def canonical_specs(n):
    """Every kind at n: u and psi of U_TERMS and PSI_TERMS at each m and
    rotation of the terms, and each sign pattern of epsilons."""
    c = sample_points(n, 20)[0].tolist()
    specs = [CanonicalSpec("maximal_7_11", n=n)]
    if n == 1:
        specs += [CanonicalSpec("scalar_23_1", n=1, u=(t.format(j=1, c=c[0]),)) for t in U_TERMS]
    for m, shift in itertools.product(range(1, n + 1), range(4)):
        terms = [(U_TERMS[(j + shift) % 4], PSI_TERMS[(j + shift) % 4], j + 1) for j in range(m)]
        u = tuple(t.format(j=j, c=c[j - 1]) for t, _p, j in terms)
        psi = " + ".join(p.format(j=j, c=c[j - 1]) for _t, p, j in terms)
        specs.append(CanonicalSpec("intermediate_17_19", n=n, m=m, u=u))
        specs.append(CanonicalSpec("intermediate_potential_17_24", n=n, m=m, psi=psi))
    for eps in itertools.product((1, -1), repeat=n) if n >= 2 else ():
        specs.append(CanonicalSpec("constcurv_22_13", n=n, epsilons=eps))
        if n == 2:
            specs.append(CanonicalSpec("constcurv_2d_22_14", n=2, b=0.5, epsilons=eps))
    return specs


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_gamma_is_symmetric_to_the_bit(n):
    # build_system builds without the symmetry walk: each kind's Gamma^k_rs
    # and Gamma^k_sr are the same operations on commuted operands, so they
    # are equal to the bit, or both nan, at poles and overflows too
    for spec in canonical_specs(n):
        conn = build_system(spec).conn
        assert conn.symmetry_residual() == 0.0, spec
        if spec.u or spec.psi is not None:
            assert not np.isfinite(conn.evaluate_many(sample_points(n, 20))).all(), spec


def test_classification_of_built_systems():
    assert classify(build_system(CanonicalSpec("maximal_7_11", n=3, a=2.0)).conn).m == 0
    rep = classify(
        build_system(CanonicalSpec("intermediate_17_19", n=3, a=1.0, m=2, u=("y1", "y2"))).conn
    )
    assert rep.m == 2
    assert classify(build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0)).conn).m == 3
    assert classify(build_system(CanonicalSpec("scalar_23_1", n=1, a=1.0, u=("y1",))).conn).m == 0


def test_constcurv_invariant_suite():
    n = 3
    sys = build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0))
    g, f = constcurv_metric(n)
    pts = sample_points(n, 20)
    parts = ricci_and_s(sys.conn)
    assert np.max(np.abs(parts["ricci"].evaluate_many(pts) - g.evaluate_many(pts))) <= 1e-8
    assert np.max(np.abs(parts["s"].evaluate_many(pts))) <= 1e-8
    assert (
        np.max(np.abs(covariant_differential(sys.conn, g).evaluate_many(pts))) <= 1e-9
    )
    q = covariant_differential(sys.conn, parts["ricci"])
    assert np.max(np.abs(q.evaluate_many(pts))) <= 1e-8
    assert structure_residual(sys.conn, "const_curv_19_14").max_abs <= 1e-8
    for i in range(n):
        resid = diff_expr(f, i + 1) - coord(i + 1)
        assert abs(eval_expr(resid, [0.21, -0.3, 0.17])) <= 1e-14


def test_intermediate_s_vanishes():
    pts3 = sample_points(3, 15)
    # gradient covectors (the canonical family is eventually potential-driven)
    for n, m, u in ((3, 1, ("y1",)), (3, 2, ("y1 + y2", "y1")), (4, 3, ("y2", "y1", "y3"))):
        sys = build_system(CanonicalSpec("intermediate_17_19", n=n, a=1.0, m=m, u=u))
        pts = pts3 if n == 3 else sample_points(4, 15)
        parts = ricci_and_s(sys.conn)
        assert np.max(np.abs(parts["s"].evaluate_many(pts))) <= 1e-10
        assert np.max(np.abs(parts["ricci_skew"].evaluate_many(pts))) <= 1e-10


def test_2d_general_position_operator():
    a, b = 1.5, 0.7
    sys = build_system(
        CanonicalSpec("constcurv_2d_22_14", n=2, a=a, b=b, epsilons=(1, 1))
    )
    g, _ = constcurv_metric(2, (1, 1))
    P = rotation_field(g)
    pts = sample_points(2, 15)
    Av = sys.A.evaluate_many(pts)
    Pv = P.evaluate_many(pts)
    # commutes with the rotation field
    assert np.max(np.abs(Av @ Pv - Pv @ Av)) <= 1e-10
    assert np.max(np.abs(np.trace(Av, axis1=1, axis2=2) - 2 * a)) <= 1e-10
    assert np.max(np.abs(np.linalg.det(Av) - (a**2 + b**2))) <= 1e-10


def test_deformed_curvature_trivial():
    conn = Connection.from_strings(
        2, [[["y2", "y1"], ["y1", "0"]], [["0", "y2"], ["y2", "y1*y2"]]]
    )
    T = TensorField.zeros(2, 1, 2)
    got = deformed_curvature(conn, T)
    want = curvature(conn)
    pts = sample_points(2, 10)
    assert np.max(np.abs(got.evaluate_many(pts) - want.evaluate_many(pts))) == 0.0


def test_deformed_curvature_flattens_constcurv():
    n = 3
    sys = build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0))
    T = deformation_from_covector(n, (1, 1, 1))
    rbar = deformed_curvature(sys.conn, T)
    assert np.max(np.abs(rbar.evaluate_many(sample_points(n, 15)))) <= 1e-8


def test_deformed_curvature_matches_direct():
    n = 2
    conn = Connection.zeros(n)
    rng = np.random.default_rng(5)
    arr = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for r in range(n):
            for s in range(r, n):
                e = const(rng.uniform(-0.3, 0.3)) * coord(int(rng.integers(1, n + 1)))
                arr[k, r, s] = e
                arr[k, s, r] = e
    T = TensorField(n, 1, 2, arr)
    got = deformed_curvature(conn, T)
    direct = curvature(Connection(n, arr))
    pts = sample_points(n, 10)
    assert np.max(np.abs(got.evaluate_many(pts) - direct.evaluate_many(pts))) <= 1e-9


def test_deformed_curvature_rejects_asymmetric():
    conn = Connection.zeros(2)
    arr = np.empty((2, 2, 2), dtype=object)
    arr[...] = ZERO
    arr[0, 0, 1] = const(1.0)
    with pytest.raises(ValueError):
        deformed_curvature(conn, TensorField(2, 1, 2, arr))


# ---------------------------------------------------------------------------
# Projective flattening
# ---------------------------------------------------------------------------


def test_flatten_trivial_geometry():
    res = projective_flatten(Connection.zeros(2), np.zeros(2), np.zeros(2))
    assert res.report["flat_curvature"].max_abs <= 1e-12
    assert np.max(np.abs(res.u([0.2, 0.3]))) <= 1e-12


def test_flatten_intermediate_geometry():
    sys = build_system(CanonicalSpec("intermediate_17_19", n=2, a=1.0, m=1, u=("y1",)))
    res = projective_flatten(sys.conn, np.zeros(2), np.zeros(2))
    assert res.report["precondition_structure"].max_abs <= 1e-7
    assert res.report["precondition_nabla_beta"].max_abs <= 1e-7
    assert res.report["flat_curvature"].max_abs <= 1e-5


def test_flatten_constcurv_control_is_reported():
    # Constant-curvature spaces are projectively flat, so the pipeline must
    # report truthfully whatever it measures: the preconditions hold and the
    # deformed connection's curvature estimate must match an independent
    # symbolic check of the transported-u deformation (near zero).
    n = 2
    sys = build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0))
    res = projective_flatten(sys.conn, np.zeros(n), np.zeros(n))
    rep = res.report
    assert set(rep) == {
        "precondition_structure",
        "precondition_nabla_beta",
        "flat_curvature",
        "path_gap",
    }
    assert rep["flat_curvature"].max_abs <= 1e-5


def test_flatten_rejects_unstructured_connection():
    # a generic connection fails the curvature-structure precondition
    conn = Connection.from_strings(
        3,
        [
            [["y2", "0", "0"], ["0", "y1", "0"], ["0", "0", "0"]],
            [["y3", "0", "0"], ["0", "0", "0"], ["0", "0", "y1"]],
            [["0", "0", "y1*y2"], ["0", "0", "0"], ["y1*y2", "0", "0"]],
        ],
    )
    with pytest.raises(ValueError):
        projective_flatten(conn, np.zeros(3), np.zeros(3))


def test_flatten_transport_failure_is_typed_and_names_the_probe():
    # u blows up on the way to the n = 4 probe with |y| = 0.63
    conn = build_system(CanonicalSpec("constcurv_22_13", n=4)).conn
    with pytest.raises(TransportError, match=r"on the path to probe y = \[-0.281659, "):
        projective_flatten(conn, np.zeros(4), np.zeros(4))


def _fd_curvature(sampler, y, h):
    """Oracle: R^i_srk = d_r G^i_ks - d_k G^i_rs + G^q_ks G^i_rq - G^q_rs G^i_kq
    from central differences of step h of a connection sampler y -> G[k, r, s]."""
    center = sampler(y)
    dgam = np.empty((len(y),) + center.shape)  # [d, k, r, s] = d G^k_rs / dy^d
    for d, e in enumerate(np.eye(len(y)) * h):
        dgam[d] = (sampler(y + e) - sampler(y - e)) / (2 * h)
    first = np.einsum("riks->isrk", dgam) - np.einsum("kirs->isrk", dgam)
    up = np.einsum("qks,irq->isrk", center, center)
    down = np.einsum("qrs,ikq->isrk", center, center)
    return first + up - down


def _deformed_sampler(conn, u, offset=0.0):
    """y -> Gamma^k_rs + u_r d^k_s + u_s d^k_r at u(y) + offset."""

    def sampler(y):
        gam = conn.evaluate_many(y[None, :])[0]
        uy = u(y) + offset
        diag = np.arange(conn.n)
        gam[diag, :, diag] += uy
        gam[diag, diag, :] += uy
        return gam

    return sampler


def test_flatten_curvature_is_the_limit_of_finite_differences():
    # Richardson's h^2 law: each tenfold refinement of the central
    # difference cuts its error a hundredfold, towards the exact value the
    # pipeline reports (flat: below 1e-13) at constcurv_n3's first probe
    conn = build_system(CanonicalSpec("constcurv_22_13", n=3, epsilons=(1, 1, 1))).conn
    res = projective_flatten(conn, np.zeros(3), np.zeros(3))
    assert res.report["flat_curvature"].max_abs <= 1e-13
    y = sample_points(3, 5, seed=11)[0]
    hs = (1e-2, 1e-3, 1e-4)
    errs = [np.max(np.abs(_fd_curvature(_deformed_sampler(conn, res.u), y, h))) for h in hs]
    for coarse, fine in zip(errs, errs[1:]):
        assert 70 < coarse / fine < 130
    assert errs[-1] < 1e-6
    # mutation: a covector off by a constant is not flattening, at every h
    off = [np.max(np.abs(_fd_curvature(_deformed_sampler(conn, res.u, 0.01), y, h))) for h in hs]
    assert min(off) > 1e-2 and max(off) < 2 * min(off)


def _tree_flat_curvature(conn, prob):
    """The oracle: flat_curvature by the derivative trees of the (u, y)
    block, Gammabar = Gamma + u (x) id + id (x) u over it and D_p Gammabar
    by grad over all 2n coordinates and the chain rule through u built as
    Exprs, walked at the straight transport's u at the 5 probes."""
    n = conn.n
    u, delta = _coords(1, n), TensorField.identity(n).comps
    shift = MUL(bcast(u, "r", "krs"), bcast(delta, "ks", "krs"))
    gbar = ADD(ADD(_lift(conn.gamma, n, n), shift), bcast(shift, "ksr", "krs"))
    dX = grad(gbar, 2 * n)
    dgbar = fold(dX[..., n:], (ADD, MUL(np.expand_dims(dX[..., :n], -2), prob.rhs.T)))
    rbar = _curvature_comps(gbar[None], dgbar[None], ADD, SUB, MUL, _quadratic_plan(gbar)).reshape(-1)
    probe = sample_points(n, 5, seed=11)
    block = np.concatenate([[transport_to(prob, y) for y in probe], probe], axis=1)
    return max_report(eval_many_shared(rbar, block).T, probe)


FLATTEN_CASES = [f for f in sorted(os.listdir(FIXTURES)) if f != "heat_n1.json"]  # n >= 2
FLATTEN_CASES += [name for name, spec in SPECS.items() if spec.n in (2, 3)]


@pytest.mark.parametrize("p0", [0.0, 0.1])
@pytest.mark.parametrize("name", FLATTEN_CASES)
def test_flat_curvature_is_the_trees_report(monkeypatch, name, p0):
    # max_abs, argmax point and component to the bit, from numbers alone:
    # once the Ricci trees that beta is read from exist, no derivative tree
    # is built
    if name.endswith(".json"):
        conn = SystemDocument.load(os.path.join(FIXTURES, name)).to_system().conn
    else:
        conn = build_system(SPECS[name]).conn
    ricci_and_s(conn)
    calls = count_diffs(monkeypatch)
    res = projective_flatten(conn, np.full(conn.n, p0), np.zeros(conn.n))
    assert calls == []
    got, want = res.report["flat_curvature"], _tree_flat_curvature(conn, res.u.args[0])
    assert got.max_abs.hex() == want.max_abs.hex()
    assert _hex(got.argmax_point) == _hex(want.argmax_point)
    assert got.argmax_component == want.argmax_component
