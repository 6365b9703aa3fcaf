"""Point-symmetry analysis: determining-equation residuals, flows and
linearization at stationary points, the explicit flat-case symmetry basis,
degeneration classification, and pointwise dimension bounds.

A vector field eta is accepted as a (special) point symmetry of a system
when two residuals vanish on sample points: the vanishing Lie derivative of
the operator field,

    sum_k ( eta^k dA^i_j/dy^k - A^k_j d eta^i/dy^k + A^i_k d eta^k/dy^j ) = 0,

and the connection equation.  For nondegenerate A the latter reduces to

    sum_k d eta^i/dy^k Gamma^k_rs
      = d2 eta^i/dy^r dy^s
        + sum_k ( dGamma^i_rs/dy^k eta^k
                  + Gamma^i_ks d eta^k/dy^r + Gamma^i_rk d eta^k/dy^s );

when det A vanishes somewhere the full A-weighted form is used instead.
Acceptance is residual-based at sample points, not a symbolic proof.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import ZERO, add, compile_exprs, coord, eval_many_shared, mul
from .geometry import covariant_differential, curvature, ricci_and_s
from .liefn import VectorField, lie_derivative
from .ode import IntegrationError, solve_ivp
from .tensor import ADD, MUL, SUB, TensorField, bcast, fold, grad, partial_differential
from .util import ResidualReport, max_report, sample_points

__all__ = [
    "LinearizationMatrix",
    "DegenerationReport",
    "RankNotConstantError",
    "FlowError",
    "determining_residuals",
    "is_symmetry",
    "affine_residual",
    "flow",
    "linearization",
    "flat_symmetry_basis",
    "classify",
    "degeneration_bound",
    "pointwise_symmetry_bound",
    "invariance_suite",
]

RANK_RTOL = 1e-7  # relative singular-value cutoff, scale-invariant


class FlowError(IntegrationError):
    """Flow integration failed (blow-up / step underflow); carries the
    status, the time actually reached, nfev and last_step."""

    def __init__(self, message, result):
        super().__init__(f"{message} (reached t = {result.t[-1]:.6g})", result)


class RankNotConstantError(ValueError):
    """The rank of the symmetric Ricci part varies over the sample set."""


# ---------------------------------------------------------------------------
# Determining equations
# ---------------------------------------------------------------------------


def _lie_a_exprs(sys, eta):
    """L_eta A as a (1,1) field, summed in the order of the module formula."""
    n = sys.n
    A = sys.A.comps
    deta = grad(eta.comps, n)  # [i, k] = d eta^i / dy^k
    transport = MUL(eta.comps, grad(A, n))
    upper = MUL(bcast(A, "kj", "ijk"), bcast(deta, "ik", "ijk"))
    lower = MUL(bcast(A, "ik", "ijk"), bcast(deta, "kj", "ijk"))
    return TensorField(n, 1, 1, fold(ZERO, (ADD, transport), (SUB, upper), (ADD, lower)))


def _conn_eq_exprs(conn, eta):
    """Residual of the reduced connection equation (valid for det A != 0)."""
    n = conn.n
    G = conn.gamma
    d1 = grad(eta.comps, n)  # [i, k] = d eta^i / dy^k
    total = ADD.reduce(MUL(bcast(d1, "ik", "irsk"), bcast(G, "krs", "irsk")), axis=-1)
    total = SUB(total, grad(d1, n))
    return TensorField(n, 1, 2, fold(total, *((SUB, t) for t in _conn_eq_terms(G, eta, d1))))


def _conn_eq_full_exprs(sys, eta):
    """Residual of the full A-weighted connection equation (degenerate A)."""
    n = sys.n
    A = sys.A.comps
    G = sys.conn.gamma
    d1 = grad(eta.comps, n)  # [i, k] = d eta^i / dy^k
    lhs = SUB(MUL(bcast(d1, "ik", "ijk"), bcast(A, "kj", "ijk")), MUL(grad(A, n), eta.comps))
    terms = MUL(bcast(lhs, "ijk", "irsjk"), bcast(G, "jrs", "irsjk"))
    total = ADD.reduce(terms.reshape((n, n, n, n * n)), axis=-1)
    # for each j: - A^i_j d2 eta^j/dy^r dy^s, then - A^i_j rhs^j_rs(k) for each k
    t1, t2, t3 = _conn_eq_terms(G, eta, d1)
    rhs = ADD(ADD(t1, t2), t3)  # [j, r, s, k]
    second = MUL(bcast(A, "ij", "irsj"), bcast(grad(d1, n), "jrs", "irsj"))
    per_k = MUL(bcast(A, "ij", "irsjk"), bcast(rhs, "jrsk", "irsjk"))
    subtracted = np.concatenate([second[..., None], per_k], axis=-1)
    return TensorField(n, 1, 2, fold(total, (SUB, subtracted.reshape((n, n, n, -1)))))


def _conn_eq_terms(G, eta, d1):
    """The summands over k of the connection equation's right-hand side on
    the axes [i, r, s, k]: dGamma^i_rs/dy^k eta^k, Gamma^i_ks d1^k_r and
    Gamma^i_rk d1^k_s, with d1 = d eta / dy."""
    n = len(eta.comps)
    return (
        MUL(grad(G, n), eta.comps),
        MUL(bcast(G, "iks", "irsk"), bcast(d1, "kr", "irsk")),
        MUL(bcast(G, "irk", "irsk"), bcast(d1, "ks", "irsk")),
    )


def determining_residuals(sys, eta, pts=None):
    """Max-norm residuals of the two determining equations over sample
    points.  Returns {"res_A": ..., "res_Gamma": ...}; eta is accepted as a
    symmetry when both stay within tolerance.  With det A = 0 at a probe
    point the A-weighted connection equation replaces the reduced one."""
    n = sys.n
    if pts is None:
        pts = sample_points(n, 20)
    res_a = max_report(_lie_a_exprs(sys, eta).evaluate_many(pts), pts)
    if sys.a_nondegenerate(pts):
        exprs = _conn_eq_exprs(sys.conn, eta)
        which = "reduced"
    else:
        exprs = _conn_eq_full_exprs(sys, eta)
        which = "full"
    res_g = max_report(exprs.evaluate_many(pts), pts, details={"equation": which})
    return {"res_A": res_a, "res_Gamma": res_g}


def is_symmetry(sys, eta, tol=1e-8, pts=None):
    res = determining_residuals(sys, eta, pts)
    return res["res_A"].max_abs <= tol and res["res_Gamma"].max_abs <= tol


def affine_residual(conn, eta, pts=None):
    """Residual of the curvature form of the affine condition:

    nabla_r nabla_s eta^i - sum_k R^i_srk eta^k over sample points.  For a
    nondegenerate operator field this accepts exactly when the reduced
    connection equation does.
    """
    n = conn.n
    if pts is None:
        pts = sample_points(n, 20)
    dd_eta = covariant_differential(conn, covariant_differential(conn, eta))
    # dd_eta comps [i, r, s] = nabla_r nabla_s eta^i
    R = curvature(conn)
    terms = MUL(bcast(R.comps, "isrk", "irsk"), eta.comps)
    residual = TensorField(n, 1, 2, fold(dd_eta.comps, (SUB, terms)))
    return max_report(residual.evaluate_many(pts), pts)


# ---------------------------------------------------------------------------
# Flows and linearization
# ---------------------------------------------------------------------------


def flow(eta, p, tau, rtol=1e-9, atol=1e-10, blowup=1e8):
    """phi_tau(p): transport p along eta with the Dormand-Prince 5(4) pair
    of ``affsym.ode``.

    phi_0 is the identity and the group property holds to integrator
    tolerance.  Leaving |y| <= blowup or a step underflow raises FlowError
    with the time reached.  eta's components are compiled once for all
    solver stages.
    """
    p = np.asarray(p, dtype=float)
    if tau == 0.0:
        return p.copy()
    program = compile_exprs(eta.comps.reshape(-1))

    def rhs(_t, y):
        return eval_many_shared(program, y.tolist()).reshape(-1)

    def too_big(_t, y):
        return float(abs(y).max()) - blowup

    sol = solve_ivp(rhs, (0.0, tau), p, rtol=rtol, atol=atol, events=too_big)
    if sol.status == 1:
        raise FlowError("flow left the working region (blow-up guard)", sol)
    if sol.status != 0:
        raise FlowError(f"integration failed: {sol.message}", sol)
    return sol.y[:, -1]


@dataclass
class LinearizationMatrix:
    """d(eta)/dy at a stationary point; the flow differential there is its
    matrix exponential."""

    point: np.ndarray
    F: np.ndarray


def linearization(eta, p0, tol=1e-10):
    p0 = np.asarray(p0, dtype=float)
    v = eta.evaluate(p0)
    if np.max(np.abs(v)) > tol:
        raise ValueError(
            f"point is not stationary: |eta| = {np.max(np.abs(v)):.3e} exceeds {tol}"
        )
    F = partial_differential(eta).evaluate_many(p0)[0]  # F[i, j] = d eta^i / dy^j
    return LinearizationMatrix(point=p0, F=F)


def flat_symmetry_basis(n):
    """The n(n+1) fields spanning the symmetry algebra of a flat maximally
    degenerate system: n translations e_i followed by the n^2 linear fields
    y^s e_i.  All of them are linear, so both determining residuals vanish
    identically on any system with zero connection and constant scalar A."""
    fields = [VectorField.basis(n, i + 1) for i in range(n)]
    for i in range(n):
        for s in range(n):
            comps = [ZERO] * n
            comps[i] = coord(s + 1)
            fields.append(VectorField(n, comps))
    return fields


# ---------------------------------------------------------------------------
# Degeneration classification and dimension bounds
# ---------------------------------------------------------------------------


@dataclass
class DegenerationReport:
    n: int
    m: int
    case_label: str
    bound: int
    rank_constant: bool

    def to_dict(self):
        return {
            "n": self.n,
            "m": self.m,
            "case": self.case_label,
            "bound": self.bound,
            "rank_constant": self.rank_constant,
        }


def degeneration_bound(n, m):
    """n(n+1-m) + m(m-1)/2: n(n+1) at m=0, n(n+1)/2 at m=n."""
    return n * (n + 1 - m) + (m * (m - 1)) // 2


def _matrix_rank(mat, rtol=RANK_RTOL):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def classify(conn, sample=None):
    """Degeneration case from the rank of the symmetric Ricci part.

    The rank must be constant over the sample (relative singular-value
    threshold 1e-7); a varying rank raises RankNotConstantError rather than
    being resolved silently.
    """
    n = conn.n
    if sample is None:
        sample = sample_points(n, 20)
    sample = np.asarray(sample, dtype=float)
    if sample.ndim == 1:
        sample = sample[None, :]
    if len(sample) == 0:
        raise ValueError("sample set is empty")
    rh = ricci_and_s(conn)["ricci_sym"].evaluate_many(sample)
    ranks = [_matrix_rank(rh[p]) for p in range(len(sample))]
    if len(set(ranks)) != 1:
        raise RankNotConstantError(
            f"rank not constant over the sample: observed {sorted(set(ranks))}"
        )
    m = ranks[0]
    if m == 0:
        label = "maximal"
    elif m == n:
        label = "general"
    else:
        label = "intermediate"
    return DegenerationReport(
        n=n, m=m, case_label=label, bound=degeneration_bound(n, m), rank_constant=True
    )


def _f_pos(n, i, k):
    """Column of F^i_k in the unknown vector (eta block first)."""
    return n + i * n + k


def pointwise_symmetry_bound(sys, p0, depth=2):
    """Upper bound for the symmetry-algebra dimension from pointwise linear
    constraints on (eta(p0), F(p0)).

    depth 0 uses the invariance of A alone; depth 1 adds the invariance of
    the curvature tensor; depth 2 adds the invariance of the covariant
    differential of the Ricci tensor.  Returns (n^2 + n) - rank of the
    assembled constraint matrix; monotone nonincreasing in depth.
    """
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    n = sys.n
    p0 = np.asarray(p0, dtype=float)
    nunk = n * n + n
    rows = []

    # partial_differential puts the derivative slot k right after the upper
    # slot; the rows below read it first
    A = sys.A.evaluate(p0)
    dA = partial_differential(sys.A).evaluate_many(p0)[0].transpose(1, 0, 2)  # [k, i, j]
    for i in range(n):
        for j in range(n):
            row = np.zeros(nunk)
            for k in range(n):
                row[k] += dA[k, i, j]
                row[_f_pos(n, i, k)] -= A[k, j]
                row[_f_pos(n, k, j)] += A[i, k]
            rows.append(row)

    if depth >= 1:
        Rfield = curvature(sys.conn)
        R = Rfield.evaluate(p0)
        dR = partial_differential(Rfield).evaluate_many(p0)[0].transpose(1, 0, 2, 3, 4)
        for i, j, r, s in np.ndindex(n, n, n, n):
            row = np.zeros(nunk)
            for k in range(n):
                row[k] += dR[k, i, j, r, s]
                row[_f_pos(n, i, k)] -= R[k, j, r, s]
                row[_f_pos(n, k, j)] += R[i, k, r, s]
                row[_f_pos(n, k, r)] += R[i, j, k, s]
                row[_f_pos(n, k, s)] += R[i, j, r, k]
            rows.append(row)

    if depth >= 2:
        Qfield = covariant_differential(sys.conn, ricci_and_s(sys.conn)["ricci"])
        Q = Qfield.evaluate(p0)
        dQ = partial_differential(Qfield).evaluate_many(p0)[0]  # [k, a, b, c]
        for a, b, c in np.ndindex(n, n, n):
            row = np.zeros(nunk)
            for k in range(n):
                row[k] += dQ[k, a, b, c]
                row[_f_pos(n, k, a)] += Q[k, b, c]
                row[_f_pos(n, k, b)] += Q[a, k, c]
                row[_f_pos(n, k, c)] += Q[a, b, k]
            rows.append(row)

    mat = np.asarray(rows)
    return nunk - _matrix_rank(mat)


# ---------------------------------------------------------------------------
# Invariance consequences of a verified symmetry
# ---------------------------------------------------------------------------


def _lie_max(eta, field, pts):
    return max_report(lie_derivative(eta, field).evaluate_many(pts), pts)


def invariance_suite(sys, eta, pts=None, rng=None, n_random=5):
    """Residual suite for the geometric consequences of a point symmetry:
    vanishing Lie derivatives of the curvature tensor, the Ricci tensor, the
    S field and nabla(Ricci), plus the commutator of the Lie derivative with
    the covariant differential on random tensor fields."""
    n = sys.n
    if pts is None:
        pts = sample_points(n, 20)
    conn = sys.conn
    curv = curvature(conn)
    parts = ricci_and_s(conn, curv)
    out = {
        "lie_curvature": _lie_max(eta, curv, pts),
        "lie_ricci": _lie_max(eta, parts["ricci"], pts),
        "lie_s": _lie_max(eta, parts["s"], pts),
        "lie_nabla_ricci": _lie_max(
            eta, covariant_differential(conn, parts["ricci"]), pts
        ),
    }
    rng = rng if rng is not None else np.random.default_rng(7)
    worst = 0.0
    for _ in range(n_random):
        w = _random_field(n, rng)
        lhs = lie_derivative(eta, covariant_differential(conn, w)).comps.reshape(-1)
        rhs = covariant_differential(conn, lie_derivative(eta, w)).comps.reshape(-1)
        # one walk for both sides, which share their Gamma and eta subtrees
        vals = eval_many_shared(np.concatenate([lhs, rhs]), pts)
        diff = np.stack(vals[: lhs.size]) - np.stack(vals[lhs.size :])
        worst = max(worst, float(np.max(np.abs(diff))))
    out["commutator_nabla"] = ResidualReport(worst)
    return out


def _random_field(n, rng, valences=((1, 0), (0, 1), (1, 1), (0, 2))):
    from .expr import const

    r, s = valences[rng.integers(len(valences))]
    arr = np.empty((n,) * (r + s), dtype=object)
    for idx in np.ndindex(*arr.shape):
        c0, c1, c2 = rng.uniform(-1, 1, size=3)
        ya = coord(int(rng.integers(1, n + 1)))
        yb = coord(int(rng.integers(1, n + 1)))
        arr[idx] = add(const(c0), add(mul(const(c1), ya), mul(const(c2), mul(ya, yb))))
    return TensorField(n, r, s, arr)
