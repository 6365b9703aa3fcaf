"""Acceptance gate: one test per criterion, each pinned to its stated
tolerance, printing a PASS/FAIL line (run with -s or -rP to see them all).
"""

import time

import numpy as np

from affsym.canonical import (
    CanonicalSpec,
    build_system,
    constcurv_metric,
    projective_flatten,
)
from affsym.expr import ZERO, const, coord
from affsym.geometry import (
    Connection,
    DiffusionSystem,
    covariant_differential,
    curvature,
    ricci_and_s,
    scalar_operator,
    structure_residual,
    transform_system,
)
from affsym.liefn import VectorField, fn_bracket, lie_derivative, nijenhuis, nijenhuis_classical
from affsym.pfaff import compatibility_residual, named_system, pfaff_integrate, transport_to
from affsym.pdesim import (
    evolve,
    evolve_snapshots,
    heisenberg_embedding_residual,
    heisenberg_system,
    make_grid,
    pde_residual,
    stereo_to_sphere,
    transport_convergence,
)
from affsym.symmetry import (
    check_symmetry,
    classify,
    degeneration_bound,
    determining_residuals,
    flat_symmetry_basis,
    pointwise_symmetry_bound,
)
from affsym.tensor import (
    PointMap,
    TensorField,
    alternate,
    exterior_derivative,
    interior_product,
    pushforward,
    tensor_product,
)
from affsym.util import sample_points

import charts

L = 2 * np.pi


def report(num, name, ok):
    print(f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def flat_system(n, a):
    return DiffusionSystem(n, scalar_operator(n, a), Connection.zeros(n))


def intermediate_spec(n, m, u):
    return CanonicalSpec("intermediate_17_19", n=n, a=1.0, m=m, u=u)


def test_criterion_1_flat_maximal_case():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        sysd = flat_system(n, a=2.0)
        fields = flat_symmetry_basis(n)
        ok &= len(fields) == n * (n + 1)
        for eta in fields:
            res = determining_residuals(sysd, eta)
            ok &= res["res_A"].max_abs <= 1e-12 and res["res_Gamma"].max_abs <= 1e-12
        p0 = sample_points(n, 1, seed=2)[0]
        ok &= pointwise_symmetry_bound(sysd, p0, depth=2) == n * (n + 1)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(1, f"flat maximal case ({elapsed:.2f}s)", ok)


def test_criterion_2_dimension_bound_formula():
    ok = True
    for n in range(1, 6):
        ok &= degeneration_bound(n, 0) == n * (n + 1)
        ok &= degeneration_bound(n, n) == n * (n + 1) // 2
        for m in range(0, n + 1):
            ok &= degeneration_bound(n, m) == n * (n + 1 - m) + m * (m - 1) // 2
            if n == 1 and m == 1:
                # unrealizable: every one-dimensional connection is flat, so
                # only the formula itself can be checked for this pair
                continue
            if m == 0:
                conn = Connection.zeros(n)
            else:
                conn = build_system(
                    intermediate_spec(n, m, tuple(f"y{i + 1}" for i in range(m)))
                ).conn
            rep = classify(conn)
            ok &= rep.m == m and rep.bound == degeneration_bound(n, m)
    report(2, "dimension-bound formula, 0 <= m <= n <= 5", ok)


def test_criterion_3_constant_curvature_suite():
    t0 = time.monotonic()
    n = 3
    sysd = build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0, epsilons=(1, 1, 1)))
    g, _ = constcurv_metric(n, (1, 1, 1))
    pts = sample_points(n, 20)
    curv = curvature(sysd.conn)
    parts = ricci_and_s(sysd.conn)
    tol = 1e-8
    ok = np.max(np.abs(parts["ricci"].evaluate_many(pts) - g.evaluate_many(pts))) <= tol
    ok &= np.max(np.abs(covariant_differential(sysd.conn, g).evaluate_many(pts))) <= tol
    sv = parts["s"].evaluate_many(pts)
    rt = parts["ricci_skew"].evaluate_many(pts)
    ok &= np.max(np.abs(sv)) <= tol and np.max(np.abs(sv - 2 * rt)) <= tol
    q = covariant_differential(sysd.conn, parts["ricci"])
    ok &= np.max(np.abs(q.evaluate_many(pts))) <= tol
    ok &= structure_residual(sysd.conn, "const_curv_19_14", pts).max_abs <= tol
    ok &= pointwise_symmetry_bound(sysd, pts[0], depth=1) == 6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    report(3, f"constant-curvature suite ({elapsed:.2f}s)", ok)


def test_criterion_4_intermediate_suite():
    n, m = 3, 1
    sysd = build_system(intermediate_spec(n, m, ("y1",)))
    rep = classify(sysd.conn)
    ok = rep.m == 1 and rep.bound == 9
    ok &= structure_residual(sysd.conn, "intermediate_10_15").max_abs <= 1e-8
    ok &= pointwise_symmetry_bound(sysd, sample_points(n, 1, seed=3)[0], depth=1) == 9

    # frame and X-field transports: commutators from transported values
    conn = sysd.conn
    u_exact = [coord(1), ZERO, ZERO]
    frame_b = named_system(
        "frame_17", conn=conn, u0=np.concatenate([np.zeros(n), [0, 1, 0]])
    )
    frame_c = named_system(
        "frame_17", conn=conn, u0=np.concatenate([np.zeros(n), [0, 0, 1]])
    )
    xsys = named_system(
        "xfields_17_11", conn=conn, u_field=u_exact, u0=np.array([1.0, 0.0, 0.0])
    )
    end = np.array([0.25, 0.3, -0.2])
    path = np.array([np.zeros(n), [0.25, 0.0, 0.0], end])
    ub = pfaff_integrate(frame_b, path)[-1]
    uc = pfaff_integrate(frame_c, path)[-1]
    X = pfaff_integrate(xsys, path)[-1]
    u = ub[:n]
    xi_b, xi_c = ub[n:], uc[n:]
    gam = conn.evaluate_many(end[None, :])[0]

    def dxi(i, v):
        return -u[i] * v - gam[:, i, :] @ v

    def dX(i, v):
        out = -u[i] * v - gam[:, i, :] @ v
        out[i] -= u @ v
        return out

    comm_bc = sum(xi_b[i] * dxi(i, xi_c) - xi_c[i] * dxi(i, xi_b) for i in range(n))
    comm_bx = sum(xi_b[i] * dX(i, X) - X[i] * dxi(i, xi_b) for i in range(n))
    ok &= float(np.max(np.abs(comm_bc))) <= 1e-6
    ok &= float(np.max(np.abs(comm_bx))) <= 1e-6

    flat = projective_flatten(sysd.conn, np.zeros(n), np.zeros(n))
    ok &= flat.report["flat_curvature"].max_abs <= 1e-5
    report(4, "intermediate suite (n=3, m=1)", ok)


def _random_decomposable(n, p, rng):
    b = np.empty((n,), dtype=object)
    for i in range(n):
        b[i] = const(rng.uniform(-1, 1)) * coord(int(rng.integers(1, n + 1))) + const(
            rng.uniform(-1, 1)
        )
    beta = np.empty((n,) * p, dtype=object)
    for idx in np.ndindex(*beta.shape):
        beta[idx] = const(rng.uniform(-1, 1)) * coord(int(rng.integers(1, n + 1))) + const(
            rng.uniform(-1, 1)
        )
    form = TensorField(n, 0, p, beta)
    if p >= 2:
        form = alternate(form)
    vec = TensorField(n, 1, 0, b)
    return tensor_product(vec, form)


def test_criterion_5_fn_lie_calculus():
    n = 3
    rng = np.random.default_rng(55)
    pts = sample_points(n, 8)
    ok = True
    # graded antisymmetry and Jacobi on 10 random decomposable triples
    for _ in range(10):
        p, q, r = 1, 1, 1
        B = _random_decomposable(n, p, rng)
        C = _random_decomposable(n, q, rng)
        D = _random_decomposable(n, r, rng)
        anti = fn_bracket(B, C, check=False).evaluate_many(pts) + (
            -1.0
        ) ** (p * q) * fn_bracket(C, B, check=False).evaluate_many(pts)
        ok &= float(np.max(np.abs(anti))) <= 1e-8
        jac = (
            (-1.0) ** (r * p)
            * fn_bracket(fn_bracket(B, C, check=False), D, check=False).evaluate_many(pts)
            + (-1.0) ** (p * q)
            * fn_bracket(fn_bracket(C, D, check=False), B, check=False).evaluate_many(pts)
            + (-1.0) ** (q * r)
            * fn_bracket(fn_bracket(D, B, check=False), C, check=False).evaluate_many(pts)
        )
        ok &= float(np.max(np.abs(jac))) <= 1e-8
    # Leibniz rule
    eta = VectorField.from_strings(n, ["y2*y3", "-y1 + y3", "y1*y2"])
    B = _random_decomposable(n, 1, rng)
    C = _random_decomposable(n, 1, rng)
    lhs = lie_derivative(eta, fn_bracket(B, C, check=False))
    rhs = fn_bracket(lie_derivative(eta, B), C, check=False) + fn_bracket(
        B, lie_derivative(eta, C), check=False
    )
    ok &= float(np.max(np.abs(lhs.evaluate_many(pts) - rhs.evaluate_many(pts)))) <= 1e-8
    # Nijenhuis against the classical component formula
    A2 = TensorField.from_strings(2, 1, 1, [["y2", "0"], ["0", "y1"]])
    pts2 = sample_points(2, 10)
    diff = nijenhuis(A2).evaluate_many(pts2) - nijenhuis_classical(A2).evaluate_many(pts2)
    ok &= float(np.max(np.abs(diff))) <= 1e-9
    # Cartan identity
    c = VectorField.from_strings(n, ["y2", "-y1", "y3^2"])
    w = _random_decomposable(n, 2, rng)
    wform = TensorField(n, 0, 2, w.comps[0])  # a skew 2-form slice
    lhs = interior_product(c.to_tensor(), exterior_derivative(wform)) + exterior_derivative(
        interior_product(c.to_tensor(), wform)
    )
    rhs = lie_derivative(c, wform)
    ok &= float(np.max(np.abs(lhs.evaluate_many(pts) - rhs.evaluate_many(pts)))) <= 1e-10
    report(5, "FN/Lie calculus", ok)


def test_criterion_6_pfaff_correctness():
    ok = True
    # Riccati closed form
    rhs = np.empty((1, 1), dtype=object)
    rhs[0, 0] = coord(1) * coord(1)
    from affsym.pfaff import PfaffProblem

    prob = PfaffProblem(1, 1, rhs, p0=[0.0], u0=[1.0])
    for y in (0.3, 0.6, -0.5):
        ok &= abs(transport_to(prob, [y])[0] - 1.0 / (1.0 - y)) <= 1e-6
    # path independence for a compatible system
    n = 3
    g, _ = constcurv_metric(n)
    ccconn = build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0)).conn
    cc = named_system("constcurv_22", conn=ccconn, g=g)
    end = np.array([0.3, -0.2, 0.25])
    pa = np.array([cc.p0, [0.3, 0.0, 0.0], end])
    pb = np.array([cc.p0, [0.0, -0.2, 0.0], [0.3, -0.2, 0.0], end])
    ok &= (
        float(np.max(np.abs(pfaff_integrate(cc, pa)[-1] - pfaff_integrate(cc, pb)[-1])))
        <= 1e-5
    )
    # Lemma 7.1 dichotomy
    flat_fixtures = [Connection.zeros(2)]
    flat_fixtures.append(transform_system(flat_system_for_transform(), charts.shear(2, 0, 1, 0.2)).conn)
    for conn in flat_fixtures:
        res = compatibility_residual(named_system("symmetry_6", conn=conn))
        ok &= res.max_abs <= 1e-9
    cc2 = build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0)).conn
    res = compatibility_residual(named_system("symmetry_6", conn=cc2))
    ok &= res.max_abs >= 1e-3
    report(6, "Pfaff correctness", ok)


def flat_system_for_transform():
    return flat_system(2, a=1.0)


def test_criterion_7_symmetry_implies_invariance():
    rng = np.random.default_rng(77)
    tol = 1e-7
    ok = True
    count = 0

    fixtures = []
    sys1 = flat_system(2, a=3.0)
    fixtures.append((sys1, flat_symmetry_basis(2)))
    sys3 = build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))
    r2 = "(y1^2 + y2^2 + y3^2)"
    fixtures.append(
        (
            sys3,
            [
                VectorField.from_strings(3, ["-y2", "y1", "0"]),
                VectorField.from_strings(3, ["0", "-y3", "y2"]),
                VectorField.from_strings(3, [f"0.25 - {r2}/2 + y1^2", "y1*y2", "y1*y3"]),
            ],
        )
    )
    sys4 = build_system(intermediate_spec(3, 1, ("y1",)))
    fixtures.append(
        (
            sys4,
            [
                VectorField.from_strings(3, ["0", "1", "0"]),
                VectorField.from_strings(3, ["0", "0", "1"]),
                VectorField.from_strings(3, ["0", "-y3", "y2"]),
            ],
        )
    )

    for sysd, fields in fixtures:
        n = sysd.n
        pts = sample_points(n, 10)
        conn = sysd.conn
        curv = curvature(conn)
        parts = ricci_and_s(conn)
        nabla_ric = covariant_differential(conn, parts["ricci"])
        for eta in fields:
            assert check_symmetry(sysd, eta, tol=1e-9)["accepted"], "fixture field failed verification"
            count += 1
            for fld in (curv, parts["ricci"], parts["s"], nabla_ric):
                ok &= (
                    float(np.max(np.abs(lie_derivative(eta, fld).evaluate_many(pts))))
                    <= tol
                )
            for _ in range(5):
                w = _random_decomposable(n, 1, rng)
                lhs = lie_derivative(eta, covariant_differential(conn, w))
                rhs = covariant_differential(conn, lie_derivative(eta, w))
                gap = float(
                    np.max(np.abs(lhs.evaluate_many(pts) - rhs.evaluate_many(pts)))
                )
                ok &= gap <= tol
    ok &= count >= 12
    report(7, f"symmetry implies invariance ({count} fields)", ok)


def test_criterion_8_simulator():
    t0 = time.monotonic()
    ok = True
    # heat decay
    heat = flat_system(1, a=1.0)
    grid = make_grid([np.sin], 64, L)
    out = evolve(heat, grid, dt=0.002, steps=50)
    expected = np.exp(-0.1) * np.sin(grid.x)
    ok &= float(np.max(np.abs(out.values[:, 0] - expected))) <= 1e-3 * float(
        np.max(np.abs(expected))
    )
    # residual order 2
    res = []
    for N, dt in ((32, 0.004), (64, 0.002)):
        g0 = make_grid([np.sin], N, L)
        snaps = evolve_snapshots(heat, g0, dt, steps=4, every=1)
        res.append(pde_residual(heat, snaps))
    ratio = res[0] / res[1]
    ok &= 3.4 <= ratio <= 4.6
    # transport for the scaling symmetry on the decoupled heat system: the
    # affine flow commutes with the linear stencil exactly, so the mismatch
    # sits at integrator tolerance on every level (stronger than order 2);
    # a genuinely nonlinear symmetry flow exhibits the measured order >= 2.
    eta_scale = VectorField.from_strings(1, ["y1"])
    gaps = transport_convergence(
        heat, eta_scale, 0.1, [np.sin], N0=16, L=L, dt0=0.016, steps0=4, levels=2
    )
    ok &= max(gaps) <= 1e-9
    cc2 = build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0))
    eta_q = VectorField.from_strings(2, ["(1 + y1^2 - y2^2)/2", "y1*y2"])
    profiles = [lambda x: 0.25 * np.sin(x) + 0.05, lambda x: 0.2 * np.cos(x) - 0.03]
    gq = transport_convergence(
        cc2, eta_q, 0.1, profiles, N0=16, L=L, dt0=0.01, steps0=5, levels=3
    )
    order = float(np.log2(gq[-2] / gq[-1]))
    ok &= order >= 1.75
    # Heisenberg: embedding residual order 2 and sphere-norm conservation
    spin = heisenberg_system()
    emb = []
    for N in (64, 128):
        gspin = make_grid(
            [lambda x: 0.3 * np.sin(x) + 0.05, lambda x: 0.2 * np.cos(x) - 0.1], N, L
        )
        emb.append(heisenberg_embedding_residual(gspin, dt=1e-6, sys=spin))
    ok &= 3.3 <= emb[0] / emb[1] <= 4.7
    gspin = make_grid(
        [lambda x: 0.3 * np.sin(x) + 0.05, lambda x: 0.2 * np.cos(x) - 0.1], 64, L
    )
    out = evolve(spin, gspin, dt=0.003, steps=100)
    svals = stereo_to_sphere(out.values)
    ok &= float(np.max(np.abs(np.sum(svals**2, axis=1) - 1.0))) <= 1e-6
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    report(8, f"simulator ({elapsed:.1f}s)", ok)


def test_criterion_9_tensoriality():
    rng = np.random.default_rng(9)
    c1, c2 = rng.uniform(0.1, 0.5, size=2)
    pm = PointMap.from_strings(
        2,
        [f"y1 + {c1:.6f}*y2^3", f"y2 + {c2:.6f}"],
        [f"y1 - {c1:.6f}*(y2 - {c2:.6f})^3", f"y2 - {c2:.6f}"],
    )
    assert pm.roundtrip_residual() <= 1e-10
    ok = True
    fixtures = [
        build_system(intermediate_spec(2, 1, ("y1",))),
        build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0)),
    ]
    pts = sample_points(2, 10, seed=19) * 0.5
    for sysd in fixtures:
        moved = transform_system(sysd, pm)
        direct = curvature(moved.conn).evaluate_many(pts)
        pushed = pushforward(curvature(sysd.conn), pm).evaluate_many(pts)
        ok &= float(np.max(np.abs(direct - pushed))) <= 1e-7
    report(9, "tensoriality under cubic diffeomorphism", ok)
