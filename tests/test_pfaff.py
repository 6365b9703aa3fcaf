"""Pfaff transport, compatibility, and the named systems."""

import warnings

import numpy as np
import pytest

from affsym import canonical, expr, pfaff, tensor
from affsym.expr import ZERO, const, coord, div, eval_many_shared, parse_expr, powi
from affsym.geometry import Connection, metric_connection, ricci_and_s
from affsym.ode import solve_ivp
from affsym.pfaff import (
    PfaffProblem,
    RestrictionDriftError,
    TransportError,
    compatibility_residual,
    named_system,
    pfaff_integrate,
    transport_to,
)
from affsym.tensor import PointMap, TensorField
from affsym.geometry import transform_connection
from affsym.util import max_report, sample_points

from test_geometry import (
    conformal_metric,
    constcurv_connection,
    intermediate_connection,
)
from test_ode import _hex


def riccati_problem(u0=1.0):
    # n=1, k=1: du/dy = u^2, closed form u0/(1 - u0 y)
    rhs = np.empty((1, 1), dtype=object)
    rhs[0, 0] = powi(coord(1), 2)
    return PfaffProblem(1, 1, rhs, p0=[0.0], u0=[u0])


def test_riccati_closed_form():
    prob = riccati_problem(1.0)
    for y in (0.2, 0.5, -0.8):
        got = transport_to(prob, [y])[0]
        want = 1.0 / (1.0 - y)
        assert abs(got - want) <= 1e-6


def test_zero_rhs_keeps_u_constant():
    rhs = np.empty((2, 2), dtype=object)
    rhs[...] = ZERO
    prob = PfaffProblem(2, 2, rhs, p0=[0.0, 0.0], u0=[0.3, -0.7])
    path = np.array([[0.0, 0.0], [0.4, 0.1], [-0.2, 0.3]])
    vals = pfaff_integrate(prob, path)
    assert np.max(np.abs(vals - np.array([0.3, -0.7]))) == 0.0


def test_path_must_start_at_initial_point():
    prob = riccati_problem()
    with pytest.raises(ValueError):
        pfaff_integrate(prob, np.array([[0.5], [1.0]]))


def test_path_must_have_points_and_finite_vertices():
    prob = riccati_problem()
    with pytest.raises(ValueError, match="path has no points"):
        pfaff_integrate(prob, np.empty((0, 1)))
    bad = (
        ([[np.nan]], 0),
        ([[0.0], [np.nan]], 1),
        ([[0.0], [0.5], [np.inf]], 2),
        ([[0.0], [-np.inf], [0.5]], 1),
    )
    for path, vertex in bad:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no RuntimeWarning on the way
            with pytest.raises(ValueError, match=f"path vertex {vertex} is not finite"):
                pfaff_integrate(prob, np.array(path))
    with pytest.raises(ValueError, match="path vertex 1 is not finite"):
        transport_to(prob, [np.inf])


@pytest.mark.parametrize("u0", [[np.nan], [np.inf], [-np.inf]])
def test_initial_data_must_be_finite(u0):
    # refused where the problem is built, naming u0, not by the integrator
    with pytest.raises(ValueError, match=r"^initial data u0 is not finite"):
        PfaffProblem(1, 1, [[ZERO]], [0.0], u0)
    conn = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=2)).conn
    with pytest.raises(ValueError, match=r"^initial data u0 is not finite"):
        canonical.projective_flatten(conn, [0.0, 0.0], [0.0, *u0])


def test_transport_end_point_must_be_one_point_of_dimension_n():
    prob = riccati_problem()  # n = 1
    for end in ([0.1, 0.2], 0.1, [[0.1]]):
        with pytest.raises(ValueError, match="path must be a polyline of points of dimension n"):
            transport_to(prob, end)


def test_pack_gives_python_floats():
    packed = PfaffProblem.pack(np.array([1, 2]), [3, np.float64(0.5)])
    assert packed == [1.0, 2.0, 3.0, 0.5] and {type(v) for v in packed} == {float}
    packed = PfaffProblem.pack(np.array([0.25], dtype=np.float32), np.array([-1.5]))
    assert packed == [0.25, -1.5] and {type(v) for v in packed} == {float}


# ---------------------------------------------------------------------------
# The segment right-hand side, bitwise
# ---------------------------------------------------------------------------

DECK_SYSTEMS = [("constcurv_22", 2), ("constcurv_22", 3), ("covector_14", 2)]


def deck_problem(kind, n):
    """The benchmark's transport systems, on the constant-curvature geometry."""
    sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=n))
    if kind == "constcurv_22":
        return named_system(kind, conn=sysd.conn, g=canonical.constcurv_metric(n)[0])
    return named_system(kind, conn=sysd.conn)


def array_segment_rhs(prob, a, dy):
    """The segment right-hand side on arrays, kept as an oracle: the path
    point is the one numpy expression a + t * dy."""

    def rhs(t, u):
        return prob.rhs_values(u, a + t * dy) @ dy

    return rhs


def recording_solver(monkeypatch):
    """Make pfaff integrate through a solve_ivp that keeps its right-hand
    sides and results."""
    runs = []

    def recording(fun, *args, **kwargs):
        runs.append((fun, solve_ivp(fun, *args, **kwargs)))
        return runs[-1][1]

    monkeypatch.setattr(pfaff, "solve_ivp", recording)
    return runs


@pytest.mark.parametrize("kind, n", DECK_SYSTEMS)
def test_segment_rhs_is_bitwise_the_array_form(monkeypatch, kind, n):
    prob = deck_problem(kind, n)
    rng = np.random.default_rng(40 + n)
    vertex, end = rng.uniform(-0.3, 0.3, size=(2, n))
    runs = recording_solver(monkeypatch)
    path = np.stack([prob.p0, vertex, end])
    got = pfaff_integrate(prob, path)
    transport_to(prob, end)
    assert len(runs) == 3
    # pointwise on the second segment, which starts away from the origin
    fun = runs[1][0]
    oracle = array_segment_rhs(prob, vertex, end - vertex)
    for _ in range(250):
        t, u = float(rng.uniform(0.0, 1.0)), rng.uniform(-0.4, 0.4, size=prob.k)
        assert _hex(fun(t, u)) == _hex(oracle(t, u))
    # whole runs: both segments of the path, then the straight transport
    starts = [prob.u0, got[1], prob.u0]
    segments = [(prob.p0, vertex), (vertex, end), (prob.p0, end)]
    for (fun, sol), u0, (a, b) in zip(runs, starts, segments):
        want = solve_ivp(array_segment_rhs(prob, a, b - a), (0.0, 1.0), u0, 1e-9, 1e-10)
        assert _hex(sol.y[:, -1]) == _hex(want.y[:, -1]) and sol.nfev == want.nfev
        assert _hex(sol.t) == _hex(want.t)
    assert _hex(got[2]) == _hex(runs[1][1].y[:, -1])


@pytest.mark.parametrize("kind, n", DECK_SYSTEMS)
def test_transport_matches_scipy_rk45_bitwise(monkeypatch, kind, n):
    integrate = pytest.importorskip("scipy.integrate")
    prob = deck_problem(kind, n)
    rng = np.random.default_rng(50 + n)
    runs = recording_solver(monkeypatch)
    for end in rng.uniform(-0.35, 0.35, size=(3, n)):
        got = transport_to(prob, end)
        rhs = array_segment_rhs(prob, prob.p0, end - prob.p0)
        want = integrate.solve_ivp(rhs, (0.0, 1.0), prob.u0, method="RK45", rtol=1e-9, atol=1e-10)
        assert _hex(got) == _hex(want.y[:, -1])
        assert runs[-1][1].nfev == want.nfev and _hex(runs[-1][1].t) == _hex(want.t)


def frame_problem():
    """frame_17 on an intermediate geometry: restrictions and dense output."""
    return named_system("frame_17", conn=intermediate_connection(2, 1), u0=[0.0, 0.0, 0.0, 1.0])


def test_each_evaluation_is_one_rhs_values_call(monkeypatch):
    # what the benchmark's pfaff.rhs.calls counts: one call per solver
    # evaluation, through every layer a transport runs
    calls = []
    original = PfaffProblem.rhs_values

    def counted(self, u, y):
        calls.append(1)
        return original(self, u, y)

    monkeypatch.setattr(PfaffProblem, "rhs_values", counted)
    runs = recording_solver(monkeypatch)
    problems = [deck_problem(kind, n) for kind, n in DECK_SYSTEMS] + [frame_problem()]
    for prob in problems:
        rng = np.random.default_rng(60 + prob.k)
        path = np.concatenate([[prob.p0], rng.uniform(-0.3, 0.3, size=(2, prob.n))])
        pfaff_integrate(prob, path)
    assert len(runs) == 2 * len(problems) and runs[-1][1].sol is not None
    assert len(calls) == sum(sol.nfev for _, sol in runs) > 0


def _array_route(roots, u, y):
    """The interpreted walk of ``roots`` at the packed point, on arrays."""
    return np.array(eval_many_shared(list(roots), [PfaffProblem.pack(u, y)]))[:, 0]


def test_rhs_falls_back_to_the_array_route_bitwise():
    # G = [ln(y1) + y2, U/y1].  At y1 = 0 the Python floats raise
    # ZeroDivisionError and the point is redone on arrays, which give inf or
    # nan with the sign of a zero kept; ln of a negative float is nan on the
    # floats' own route, under numpy's errstate
    rhs = [[parse_expr("ln(y2) + y3", 3), div(coord(1), coord(2))]]
    prob = PfaffProblem(2, 1, rhs, p0=[0.0, 0.1], u0=[0.0])
    points = [
        (prob.u0, prob.p0),  # where a transport from p0 starts
        (np.array([1.5]), [-0.0, 0.2]),
        (np.array([1.0]), [-1.0, 0.0]),
        (np.array([0.5]), [0.3, 0.1]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [prob.rhs_values(u, y) for u, y in points]
    for (u, y), values in zip(points, got):
        want = _array_route(prob.rhs.reshape(-1), u, y).reshape(prob.k, prob.n)
        assert values.shape == (prob.k, prob.n) and _hex(values) == _hex(want)
    assert got[0][0, 0] == -np.inf and np.isnan(got[0][0, 1])
    assert got[1][0].tolist() == [-np.inf, -np.inf]
    assert np.isnan(got[2][0, 0]) and got[2][0, 1] == -1.0
    assert np.isfinite(got[3]).all()


def test_restrictions_are_bitwise_the_array_route():
    prob = frame_problem()
    rng = np.random.default_rng(17)
    for _ in range(50):
        u, y = rng.uniform(-0.4, 0.4, size=prob.k), rng.uniform(-0.4, 0.4, size=prob.n)
        want = _array_route(prob.restrictions, u, y)
        assert _hex(prob.restriction_values(u, y)) == _hex(want)


def test_transport_with_a_nan_slope_past_the_start_raises():
    # sqrt(y1) is 0 at the start and nan along the segment: the first step
    # is h1 = inf, as scipy takes it, and the run ends in step underflow
    u = [parse_expr("sqrt(y1)", 2), parse_expr("y2", 2)]
    prob = named_system("potential_17_23", u_field=u, p0=[0.0, 0.1])
    with pytest.raises(TransportError) as err:
        transport_to(prob, [-0.3, 0.1])
    assert err.value.status == -1 and err.value.nfev == 2738


def test_constcurv_transport_matches_closed_form():
    # transported covector from zero initial data: u_j = -eps_j y^j / f(y)
    n = 3
    g, f = conformal_metric(n)
    conn = constcurv_connection(n)
    prob = named_system("constcurv_22", conn=conn, g=g)
    rng = np.random.default_rng(3)
    from affsym.expr import eval_expr

    for _ in range(5):
        y = rng.uniform(-0.35, 0.35, size=n)
        got = transport_to(prob, y)
        fv = eval_expr(f, y)
        want = -y / fv
        assert np.max(np.abs(got - want)) <= 1e-6


def test_symmetry_system_compatibility_dichotomy():
    # flat connection: exactly compatible; constant curvature: not
    flat = named_system("symmetry_6", conn=Connection.zeros(2))
    assert compatibility_residual(flat).max_abs <= 1e-9

    pm = PointMap.from_strings(2, ["y1 + 0.2*y2^2", "y2"], ["y1 - 0.2*y2^2", "y2"])
    curved_flat = transform_connection(Connection.zeros(2), pm)
    prob2 = named_system("symmetry_6", conn=curved_flat)
    assert compatibility_residual(prob2).max_abs <= 1e-9

    cc = named_system("symmetry_6", conn=constcurv_connection(2))
    assert compatibility_residual(cc).max_abs >= 1e-3


def test_compatibility_residual_at_n_1_has_no_mixed_pairs():
    # one base coordinate: no pair p < r, so no residual component at all
    prob = named_system("potential_17_23", u_field=[parse_expr("y1^2", 1)])
    rep = compatibility_residual(prob)
    assert rep.max_abs == 0.0
    assert rep.argmax_point == () and rep.argmax_component == ()


# kind, n, max_abs.hex(), probe row of the argmax, argmax component
COMPATIBILITY_PINS = [
    ("symmetry_6", 2, "0x1.a30a956fa4d52p+1", 10, (1,)),
    ("symmetry_6", 3, "0x1.12b8b187563d2p+3", 4, (9,)),
    ("covector_14", 3, "0x1.2000000000000p-48", 1, (1,)),
    ("constcurv_22", 2, "0x1.0000000000000p-51", 9, (0,)),
]


@pytest.mark.parametrize("kind, n, max_hex, row, comp", COMPATIBILITY_PINS)
def test_compatibility_residual_fixed_probe_is_pinned(monkeypatch, kind, n, max_hex, row, comp):
    # the probe: U by default_rng(101) next to the 20 base sample points
    monkeypatch.delenv("AFFSYM_SEED", raising=False)
    prob = deck_problem(kind, n)
    rep = compatibility_residual(prob)
    assert rep.max_abs.hex() == max_hex
    u = np.random.default_rng(101).uniform(-0.4, 0.4, size=(20, prob.k))
    probe = np.concatenate([u, sample_points(n, 20)], axis=1)
    assert _hex(rep.argmax_point) == _hex(probe[row])
    assert rep.argmax_component == comp


def count_diffs(monkeypatch):
    """The coordinate indices of every ``diff_expr`` call from now on, by
    the names the library calls it through (``grad`` looks it up in
    ``affsym.tensor`` at each call)."""
    calls, diff = [], expr.diff_expr

    def counted(e, i):
        calls.append(i)
        return diff(e, i)

    for module in (expr, tensor, canonical):
        monkeypatch.setattr(module, "diff_expr", counted)
    return calls


def _tree_compatibility(prob):
    """The oracle: compatibility_residual by the derivative trees of the
    (U, y) block, D_p G = grad over all k + n coordinates and the chain rule
    through U built as Exprs, walked at the same probe."""
    n, k = prob.n, prob.k
    y = sample_points(n, 20)
    u = np.random.default_rng(101).uniform(-0.4, 0.4, size=(len(y), k))
    probe = np.concatenate([u, y], axis=1)
    dG = tensor.grad(prob.rhs, k + n)
    total = tensor.fold(dG[..., k:], (tensor.ADD, tensor.MUL(np.expand_dims(dG[..., :k], -2), prob.rhs.T)))
    r, p = np.triu_indices(n, 1)
    residual = tensor.SUB(total[:, r, p], total[:, p, r]).reshape(-1)
    return max_report(eval_many_shared(residual, probe).T, probe)


def _named(kind, geometry, n):
    """A named system on a canonical geometry, with the fields its kind needs."""
    spec = canonical.CanonicalSpec(geometry, n=n, m=1, u=("y1*y1",)) if geometry.startswith("inter") else None
    conn = canonical.build_system(spec or canonical.CanonicalSpec(geometry, n=n)).conn
    u_field = [parse_expr(f"0.3*y{i + 1}*y{(i + 1) % n + 1}", n) for i in range(n)]
    kw = {"g": canonical.constcurv_metric(n)[0]} if kind == "constcurv_22" else {}
    return named_system(kind, conn=conn, u_field=u_field, **kw)


@pytest.mark.parametrize("geometry", ["constcurv_22_13", "intermediate_17_19", "maximal_7_11"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("kind", pfaff.NAMED_KINDS)
def test_compatibility_residual_is_the_trees_report(monkeypatch, kind, n, geometry):
    # max_abs, argmax point and component to the bit, and no derivative tree
    # built: the symmetry_6 right-hand side's dGamma is built with the problem
    prob = _named(kind, geometry, n)
    want = _tree_compatibility(prob)
    calls = count_diffs(monkeypatch)
    got = compatibility_residual(prob)
    assert calls == []
    assert got.max_abs.hex() == want.max_abs.hex()
    assert _hex(got.argmax_point) == _hex(want.argmax_point)
    assert got.argmax_component == want.argmax_component


def test_covector_system_compatible_on_intermediate_geometry():
    conn = intermediate_connection(3, 1)
    prob = named_system("covector_14", conn=conn)
    assert compatibility_residual(prob).max_abs <= 1e-8


def test_covector_trivial_geometry():
    prob = named_system("covector_14", conn=Connection.zeros(2))
    path = np.array([[0.0, 0.0], [0.3, -0.2], [0.1, 0.4]])
    vals = pfaff_integrate(prob, path)
    assert np.max(np.abs(vals)) <= 1e-12


def test_potential_system_gradient_oracle():
    # u = (y1, 0): psi = y1^2 / 2 along any path from the origin
    n = 2
    u = [coord(1), ZERO]
    prob = named_system("potential_17_23", u_field=u, conn=None)
    for path in (
        np.array([[0.0, 0.0], [0.4, 0.0], [0.4, 0.3]]),
        np.array([[0.0, 0.0], [0.0, 0.3], [0.4, 0.3]]),
    ):
        psi = pfaff_integrate(prob, path)[-1][0]
        assert abs(psi - 0.4**2 / 2) <= 1e-8


def test_path_independence_for_compatible_system():
    n = 3
    g, _ = conformal_metric(n)
    conn = constcurv_connection(n)
    prob = named_system("constcurv_22", conn=conn, g=g)
    end = np.array([0.3, -0.25, 0.2])
    p1 = np.array([prob.p0, [0.3, 0.0, 0.0], end])
    p2 = np.array([prob.p0, [0.0, -0.25, 0.15], [0.15, -0.25, 0.2], end])
    u1 = pfaff_integrate(prob, p1)[-1]
    u2 = pfaff_integrate(prob, p2)[-1]
    assert np.max(np.abs(u1 - u2)) <= 1e-5


def test_frame_transport_stays_in_ricci_kernel():
    n = 2
    conn = intermediate_connection(n, 1)
    prob = named_system(
        "frame_17", conn=conn, u0=np.array([0.0, 0.0, 0.0, 1.0])
    )  # u = 0, xi = e2 at the origin
    path = np.array([[0.0, 0.0], [0.3, 0.1], [0.2, -0.2]])
    vals = pfaff_integrate(prob, path)
    rh = ricci_and_s(conn)["ricci_sym"]
    for y, uv in zip(path, vals):
        xi = uv[n:]
        kernel_residual = rh.evaluate(y) @ xi
        assert np.max(np.abs(kernel_residual)) <= 1e-7


def test_frame_restriction_violation_raises_at_init():
    n = 2
    conn = intermediate_connection(n, 1)
    with pytest.raises(ValueError):
        named_system("frame_17", conn=conn, u0=np.array([0.0, 0.0, 1.0, 0.0]))


def test_nan_restrictions_at_the_initial_data_raise():
    # Gamma^1_11 = sqrt(y1 - 1) is nan at the origin, and so is the first
    # restriction there: nan is not within the tolerance
    gamma = [[["sqrt(y1 - 1)", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
    with pytest.raises(ValueError, match="restrictions violated at the initial data: max nan"):
        named_system("frame_17", conn=Connection.from_strings(2, gamma))


def test_frames_and_xfields_commute():
    # Transported frames commute with each other and with the X-fields; the
    # commutators are evaluated from the transported values and the systems'
    # own right-hand sides.
    n = 2
    m = 1
    conn = intermediate_connection(n, m)
    u_exact = [coord(1), ZERO]

    frame = named_system("frame_17", conn=conn, u0=np.array([0.0, 0.0, 0.0, 1.0]))
    xsys = named_system("xfields_17_11", conn=conn, u_field=u_exact, u0=np.array([1.0, 0.0]))

    end = np.array([0.25, -0.3])
    path = np.array([[0.0, 0.0], [0.25, 0.0], end])
    uxi = pfaff_integrate(frame, path)[-1]
    u, xi = uxi[:n], uxi[n:]
    X = pfaff_integrate(xsys, path)[-1]
    gam = conn.evaluate_many(end[None, :])[0]

    def dxi(i, xi_vec):
        # d_i xi^k = -u_i xi^k - Gamma^k_is xi^s along solutions
        return -u[i] * xi_vec - gam[:, i, :] @ xi_vec

    def dX(i, X_vec):
        out = -u[i] * X_vec - gam[:, i, :] @ X_vec
        out[i] -= u @ X_vec
        return out

    # only one xi and one X here (m = 1, n - m = 1): check the cross bracket
    cross = np.zeros(n)
    for i in range(n):
        cross += xi[i] * dX(i, X) - X[i] * dxi(i, xi)
    assert np.max(np.abs(cross)) <= 1e-6

    # u must agree with the exact covector (y1, 0) it transports
    assert np.max(np.abs(u - np.array([end[0], 0.0]))) <= 1e-8


def test_frames_pairwise_commute_n3():
    n, m = 3, 1
    conn = intermediate_connection(n, m)
    u0 = np.zeros(2 * n)
    frame_a = named_system("frame_17", conn=conn, u0=np.concatenate([np.zeros(n), [0, 1, 0]]))
    frame_b = named_system("frame_17", conn=conn, u0=np.concatenate([np.zeros(n), [0, 0, 1]]))
    end = np.array([0.2, 0.3, -0.25])
    path = np.array([np.zeros(n), [0.2, 0.0, 0.0], end])
    ua = pfaff_integrate(frame_a, path)[-1]
    ub = pfaff_integrate(frame_b, path)[-1]
    u = ua[:n]
    xa, xb = ua[n:], ub[n:]
    assert np.max(np.abs(ua[:n] - ub[:n])) <= 1e-9  # same u transported
    gam = conn.evaluate_many(end[None, :])[0]

    def dxi(i, v):
        return -u[i] * v - gam[:, i, :] @ v

    comm = np.zeros(n)
    for i in range(n):
        comm += xa[i] * dxi(i, xb) - xb[i] * dxi(i, xa)
    assert np.max(np.abs(comm)) <= 1e-6


def test_restriction_drift_detected_for_wrong_system():
    # break the frame system by feeding it a wrong beta: drift must be
    # flagged rather than silently projected away
    n = 2
    conn = intermediate_connection(n, 1)
    bad_beta = TensorField.from_strings(n, 0, 2, [["1 + y1^2", "y2"], ["0", "0"]])
    prob = named_system(
        "frame_17", conn=conn, beta=bad_beta, u0=np.array([0.0, 0.0, 0.0, 1.0])
    )
    path = np.array([[0.0, 0.0], [0.35, 0.3]])
    with pytest.raises(RestrictionDriftError):
        pfaff_integrate(prob, path)


def test_named_system_rejects_missing_fields():
    with pytest.raises(ValueError):
        named_system("xfields_17_11", conn=Connection.zeros(2))
    with pytest.raises(ValueError):
        named_system("constcurv_22", conn=Connection.zeros(2))
    with pytest.raises(ValueError):
        named_system("bogus", conn=Connection.zeros(2))


def test_potential_system_without_any_field_names_the_missing_u():
    with pytest.raises(ValueError, match="potential_17_23 needs the covector field u"):
        named_system("potential_17_23")


def test_transport_blowup_raises():
    from affsym.pfaff import TransportError

    prob = riccati_problem(1.0)  # pole of the closed form at y = 1
    with pytest.raises(TransportError):
        transport_to(prob, [1.5])


@pytest.mark.parametrize("n", [4, 5, 6])
def test_flattening_transport_stops_where_the_flat_chart_ends(n):
    # On constant curvature (epsilons 1) the flattening covector from zero
    # data at the origin is u = 4(n-1) y / (1 - s^2), s = (n-1)|y|^2: it
    # blows up on the sphere s = 1, where the flat chart ends, and along the
    # segment t*y it reaches that sphere at t = sqrt(1/s)
    conn = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=n)).conn
    prob = named_system("covector_14", conn=conn, p0=np.zeros(n), u0=np.zeros(n))
    outside = 0
    for y in sample_points(n, 5, seed=11):
        s = (n - 1) * float(y @ y)
        if s > 1.0:
            outside += 1
            with pytest.raises(TransportError) as info:
                transport_to(prob, y)
            assert info.value.status == 1
            assert abs(info.value.t_reached - np.sqrt(1.0 / s)) <= 1e-6
        else:
            want = 4 * (n - 1) * y / (1.0 - s * s)
            assert np.max(np.abs(transport_to(prob, y) - want)) <= 1e-7 * np.max(np.abs(want))
    assert outside == {4: 1, 5: 2, 6: 5}[n]
