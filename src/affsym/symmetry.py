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
Acceptance is residual-based at sample points, not a symbolic proof, and
``check_symmetry`` is its one rule, for the CLI and the simulator alike.

The determining residuals, ``classify`` and the invariance suite take
their values from ``geometry._point_values``: the bodies that build the
residual, curvature and Ricci trees, run on the values and derivatives of
Gamma, A and eta, and for the suite of the Ric and R trees, from one
checked forward-mode walk (see ``geometry`` for which walk a request
makes), equal to the trees' values in magnitude to the bit.  The
pointwise bounds take their rows from Taylor coefficients of A and Gamma
at the point (``expr.taylor_coefficients``), with the curvature and nabla
Ric formed as numbers by the same bodies.  ``linearization`` takes eta and
d eta/dy from the forward-mode walk of eta (``tensor.eval_jets``).

Each of these is the one path to its numbers, and its errors are the
error lines: a walk raises DomainError naming the first node whose value
or derivative is not finite ("non-finite derivative: sqrt(y1)"), a body
that overflows raises ExprError naming the field and the point
("curvature is not finite at y = [...]"), and the bounds also refuse,
with ExprError, a point where a Taylor coefficient lost six or more
digits to cancellation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import (
    ZERO,
    ExprError,
    compile_exprs,
    coord,
    taylor_coefficients,
    taylor_tables,
)
from .geometry import (
    SUITE,
    _at,
    _curvature_comps,
    _dual_mul,
    _nabla_terms,
    _point_values,
    _ranks,
    _regular,
    _ricci_contractions,
    _undual,
    covariant_differential,
    curvature,
)
from .liefn import VectorField, lie_terms
from .ode import IntegrationError, solve_ivp
from .tensor import MUL, SUB, TensorField, bcast, eval_jets, fold
from .util import DEFAULT_TOLERANCES, CheckFailed, as_points, max_report, sample_points

__all__ = [
    "LinearizationMatrix",
    "DegenerationReport",
    "RankNotConstantError",
    "FlowError",
    "determining_residuals",
    "check_symmetry",
    "affine_residual",
    "flow",
    "linearization",
    "flat_symmetry_basis",
    "classify",
    "degeneration_bound",
    "pointwise_symmetry_bound",
    "pointwise_symmetry_bounds",
    "invariance_suite",
]

RANK_RTOL = 1e-7  # relative singular-value cutoff, scale-invariant


class FlowError(IntegrationError):
    """Flow integration failed (blow-up / step underflow); carries the
    status, the time actually reached, nfev and last_step."""

    def __init__(self, message, result):
        super().__init__(f"{message} (reached t = {result.t[-1]:.6g})", result)


class RankNotConstantError(ValueError, CheckFailed):
    """The rank of the symmetric Ricci part varies over the sample set."""


# ---------------------------------------------------------------------------
# Determining equations
# ---------------------------------------------------------------------------


def determining_residuals(sys, eta, pts=None):
    """Max-norm residuals of the two determining equations over sample
    points.  Returns {"res_A": ..., "res_Gamma": ...}; eta is accepted as a
    symmetry when both stay within tolerance.  Where A is not regular at a
    probe point (``geometry._regular``: its smallest singular value at most
    1e-12 times its largest) the A-weighted connection equation replaces
    the reduced one.
    Both are the values of their trees, evaluated checked
    (``geometry._point_values``): a residual that is not finite at a probe
    point raises DomainError naming the node.  The points pass
    ``as_points`` (None gives the 20 sample points)."""
    pts = as_points(pts, sys.n)
    values = _point_values(sys.conn, pts, A=sys.A, eta=eta)
    lie_a, a = values(("lie_a", "A"))
    which = "reduced" if _regular(a) else "full"
    (res,) = values(("conn_eq" if which == "reduced" else "conn_eq_full",))
    return {
        "res_A": max_report(lie_a, pts),
        "res_Gamma": max_report(res, pts, details={"equation": which}),
    }


def check_symmetry(sys, eta, pts=None, tol=DEFAULT_TOLERANCES["symmetry"],
                   invariance_tol=DEFAULT_TOLERANCES["invariance"]):
    """``affsym check-symmetry``'s report: ``res_A`` and ``res_Gamma``, the
    maxima of ``determining_residuals``, res_Gamma's ``equation``, ``tolerance``
    (tol) and ``accepted``, and where both are within tol the maxima of the
    ``invariance_suite``, ``invariance``, which must be within invariance_tol
    too.  The tolerances default to a document's; pts pass ``as_points``."""
    pts = as_points(pts, sys.n)
    res = determining_residuals(sys, eta, pts)
    res_a, res_g = res["res_A"].max_abs, res["res_Gamma"].max_abs
    equation = res["res_Gamma"].details["equation"]
    out = {"res_A": res_a, "res_Gamma": res_g, "equation": equation, "tolerance": tol}
    out["accepted"] = res_a <= tol and res_g <= tol
    if out["accepted"]:
        # L_eta Gamma: res_Gamma on the reduced equation, else conn_eq from the suite's walk
        reduced = equation == "reduced"
        lies = _point_values(sys.conn, pts, eta=eta)(SUITE if reduced else ("conn_eq", *SUITE))
        maxima = ([res_g] if reduced else []) + [max_report(v, pts).max_abs for v in lies]
        out["invariance"] = dict(zip(("lie_gamma", *SUITE), maxima))
        out["accepted"] = not any(v > invariance_tol for v in out["invariance"].values())
    return out


def affine_residual(conn, eta):
    """Residual of the curvature form of the affine condition:

    nabla_r nabla_s eta^i - sum_k R^i_srk eta^k at the 20 sample points.
    For a nondegenerate operator field this accepts exactly when the
    reduced connection equation does.
    """
    n = conn.n
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


def flow(eta, p, tau):
    """phi_tau(p): transport p along eta with the Dormand-Prince 5(4) pair
    of ``affsym.ode`` at rtol 1e-9 and atol 1e-10.

    phi_0 is the identity and the group property holds to integrator
    tolerance.  Leaving |y| <= ode.BLOWUP or a step underflow raises
    FlowError with the time reached.  eta's components are compiled once
    for all solver stages, and the state is integrated on Python floats.
    p is one point (``as_points``).
    """
    p = as_points(p, eta.n, one=True)
    if tau == 0.0:
        return p.copy()
    program = compile_exprs(eta.comps.reshape(-1))
    sol = solve_ivp(lambda _t, y: program.at(y), (0.0, tau), p.tolist(), rtol=1e-9, atol=1e-10)
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


def linearization(eta, p0):
    """d(eta)/dy at p0, which must be stationary: |eta(p0)| <= 1e-10.

    eta and its derivatives come from one checked walk (``eval_jets``): one
    that is not finite at p0 raises DomainError naming its node; p0 is one
    point (``as_points``)."""
    p0 = as_points(p0, eta.n, one=True)
    v, F = (a[0] for a in eval_jets([eta.comps], p0)[0])  # F[i, j] = d eta^i / dy^j
    if np.max(np.abs(v)) > 1e-10:
        raise ValueError(
            f"point is not stationary: |eta| = {np.max(np.abs(v)):.3e} exceeds 1e-10"
        )
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


def classify(conn, sample=None):
    """Degeneration case from the rank of the symmetric Ricci part.

    The rank must be constant over the sample (relative singular-value
    threshold 1e-7); a varying rank raises RankNotConstantError rather than
    being resolved silently.  The sample passes ``as_points``.
    """
    sample = as_points(sample, conn.n)
    return _degeneration(_point_values(conn, sample)(("ricci_sym",))[0])


def _degeneration(rh):
    """classify's decision from the symmetric Ricci part's values rh[P, n,
    n] at the sample points."""
    n = rh.shape[-1]
    ranks = _ranks(rh, RANK_RTOL).tolist()
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


def _lie_rows(w, dw, r):
    """The linearized Lie derivative of a tensor field W with r upper slots
    at a point p0, from W and dW/dy there (``eval_jets`` at p0, or
    ``geometry._undual`` on W's first n + 1 Taylor coefficients there:
    arrays with a leading axis of length 1): one row per component of
    W, in row-major order, over the unknowns eta^k (columns 0..n-1) and
    F^i_k = d eta^i/dy^k (column n + i*n + k), so that row . (eta(p0),
    F(p0)) is (L_eta W)(p0).

    Column j is ``liefn.lie_terms``, the body of ``lie_derivative``, on W
    and dW/dy with (eta, F) the j-th basis 1-jet, and a row that overflows
    raises ExprError.
    """
    n = dw.shape[-1]
    basis = np.eye(n + n * n)
    lie = lie_terms(w, dw, basis[:, :n], basis[:, n:].reshape(-1, n, n), r)
    if not np.isfinite(lie).all():  # a rank of inf or nan entries reads 0
        raise ExprError("the linearized Lie derivative overflows at the point")
    return lie.reshape(n + n * n, -1).T


def pointwise_symmetry_bound(sys, p0, depth=2):
    """Upper bound for the symmetry-algebra dimension from pointwise linear
    constraints on (eta(p0), F(p0)): the linearized Lie derivatives of the
    invariant tensors at p0 (``_lie_rows``) must vanish.

    depth 0 uses the invariance of A alone; depth 1 adds the invariance of
    the curvature tensor; depth 2 adds the invariance of the covariant
    differential of the Ricci tensor.  Returns (n^2 + n) - rank of the
    stacked rows; monotone nonincreasing in depth.
    """
    return pointwise_symmetry_bounds(sys, p0, depth)[depth]


def pointwise_symmetry_bounds(sys, p0, depth=2):
    """``pointwise_symmetry_bound`` at every depth 0..depth, as a list, from
    one stack of rows: the rows of a depth are a prefix of those of the
    next.

    The rows come from Taylor coefficients at p0 (``_taylor_rows``): A to
    order 1 and Gamma to order depth + 1 from one checked walk
    (``expr.taylor_coefficients``), and the curvature and nabla Ric as
    numbers by the formulas of ``geometry``, with no curvature or nabla Ric
    tree.  Where a coefficient is not finite, cancellation took six or more
    of its digits, or a row overflows, it raises ExprError.  p0 is one
    point (``as_points``), and depth 0, 1 or 2 (else ValueError)."""
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    n = sys.n
    p0 = as_points(p0, n, one=True)
    rows = _taylor_rows(sys, p0, depth)
    return [n * n + n - int(_ranks(np.concatenate(rows[: d + 1]), RANK_RTOL)) for d in range(depth + 1)]


# Magnitudes beyond this many times the largest coefficient of their array
# mean the coefficients lost six or more of their sixteen digits to
# cancellation, and the rows' rank would be the rounding's.  Fixtures,
# canonical kinds and benchmark decks stay below 20.
_CANCELLATION = 1e6


def _taylor(comps, p0, k, name):
    """The Taylor coefficients at p0 to order k of the Expr array of the
    field ``name``, as c[K, slots].  Raises ExprError where the walk does
    (``taylor_coefficients``), and where cancellation took six or more
    digits (_CANCELLATION)."""
    coefs, mags = taylor_coefficients(comps.reshape(-1), p0, k)
    if mags.max(initial=0.0) / _CANCELLATION > np.abs(coefs).max(initial=0.0):
        raise ExprError(f"Taylor coefficients lost to cancellation: {name} at {_at(p0)}")
    return coefs.T.reshape((-1,) + comps.shape)


def _taylor_rows(sys, p0, depth):
    """The bound's rows of A, R and nabla Ric, as far as depth asks, from
    Taylor coefficients at p0: A to order 1, and Gamma to order depth + 1,
    from which geometry's bodies give R to order depth
    (``_curvature_comps``), then Ric (``_ricci_contractions``) and nabla
    Ric to order 1 (``_nabla_terms``), with numpy's add and subtract and
    the truncated product as mul, at order 1 the dual product
    (``_dual_mul``).  Each field's rows are formed before the next is
    computed.  Raises ExprError where ``_taylor`` does, where a body
    overflows and where a row does."""
    n = sys.n
    rows = [_lie_rows(*_undual(_taylor(sys.A.comps, p0, 1, "A")[: n + 1], n), 1)]
    if depth < 1:
        return rows
    g = _taylor(sys.conn.gamma, p0, depth + 1, "Gamma")
    low = taylor_tables(n, depth)
    ops = (np.add, np.subtract)
    try:
        with np.errstate(over="raise", invalid="raise"):
            dg = taylor_tables(n, depth + 1).grad(g)
            curv = _curvature_comps(g[: low.size], dg, *ops, low.mul, sys.conn.plan)
            rows.append(_lie_rows(*_undual(curv[: n + 1], n), 1))
            if depth == 2:
                ric = _ricci_contractions(curv, np.add)[0]
                nabla = _nabla_terms(g[: n + 1], ric[: n + 1], low.grad(ric), 0, *ops, _dual_mul(n))
                rows.append(_lie_rows(*_undual(nabla[: n + 1], n), 0))
    except FloatingPointError:
        raise ExprError(f"the curvature's Taylor coefficients overflow at {_at(p0)}") from None
    return rows


# ---------------------------------------------------------------------------
# Invariance consequences of a verified symmetry
# ---------------------------------------------------------------------------


def invariance_suite(sys, eta, pts=None):
    """Residual suite for the geometric consequences of a point symmetry:
    vanishing Lie derivatives of the curvature tensor, the Ricci tensor, the
    S field and nabla(Ricci), and of the connection itself.

    The curvature is the one kept on sys.conn (``curvature``).  Every
    number comes from one ``geometry._point_values`` request with eta, of
    "conn_eq" and the suite's names: the four tensor keys are max |L_eta W|
    by ``liefn.lie_terms`` (the formula of ``lie_derivative``) on eta, d
    eta, W and dW/dy from one checked forward-mode walk, which builds no
    derivative tree: for nabla Ric, W and dW/dy are the body of
    ``covariant_differential`` on the walk's Gamma, Ric and their
    derivatives, Ric's second ones included, and S is R's contraction.
    Where the walk faults it raises DomainError naming its node
    ("non-finite derivative: y1^-29"); where a body overflows, ExprError
    names conn_eq, nabla_ricci or s, in that order, and the point.

    For a torsion-free connection the commutator of the Lie derivative with
    the covariant differential is a contraction with L_eta Gamma,

        (L_eta nabla - nabla L_eta) W = (L_eta Gamma) . W,

    one term per slot of W (Yano 1957; Kobayashi-Nomizu I, ch. VI), so
    ``lie_gamma`` reports max |L_eta Gamma| at the points, from the reduced
    connection residual (which is -L_eta Gamma) for every A.  With
    nondegenerate A it equals ``determining_residuals``' res_Gamma; with
    degenerate A that is the A-weighted residual, which does not bound
    |L_eta Gamma|.  The points pass ``as_points``."""
    pts = as_points(pts, sys.n)
    conn_eq, *lies = _point_values(sys.conn, pts, eta=eta)(("conn_eq", *SUITE))
    return {**{k: max_report(v, pts) for k, v in zip(SUITE, lies)}, "lie_gamma": max_report(conn_eq, pts)}
