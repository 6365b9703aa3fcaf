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

The determining residuals and ``classify`` take their values from
``geometry._point_values``: the bodies that build the residual, curvature
and Ricci trees, run on the values and first derivatives of Gamma, A, eta
and grad(eta) from one checked forward-mode walk, equal to the trees'
values in magnitude to the bit; where that walk or a body faults, the
trees are built and walked, and their error is the one raised.  The
pointwise bounds take their rows from Taylor coefficients of A and Gamma
at the point (``expr.taylor_coefficients``), with the curvature and nabla
Ric formed as numbers by the same bodies; where that path faults, the rows
come from the derivative trees.  The invariance suite and
``linearization`` stay on the trees' jets, which their reports pin to the
bit: the suite needs the first derivatives of nabla Ric, which the bodies
would give only on second-order nested duals, and those ran slower than
the trees' jets at n = 4.
"""

from __future__ import annotations

import math
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
    _curvature_comps,
    _field_tree,
    _nabla_terms,
    _nondegenerate,
    _point_values,
    _ricci_contractions,
    covariant_differential,
    curvature,
    ricci_and_s,
)
from .liefn import VectorField, lie_terms
from .ode import IntegrationError, solve_ivp
from .tensor import MUL, SUB, TensorField, bcast, eval_arrays, eval_jets, fold, grad
from .util import as_points, max_report, sample_points

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
    "pointwise_symmetry_bounds",
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
    """L_eta A as a (1,1) field, summed in the order of the module formula
    (``geometry._lie_a_terms``)."""
    return TensorField(sys.n, 1, 1, _field_tree("lie_a", sys.conn, A=sys.A, eta=eta))


def _conn_eq_exprs(conn, eta):
    """Residual of the reduced connection equation (valid for det A != 0)."""
    return TensorField(conn.n, 1, 2, _field_tree("conn_eq", conn, eta=eta))


def _conn_eq_full_exprs(sys, eta):
    """Residual of the full A-weighted connection equation (degenerate A)."""
    return TensorField(sys.n, 1, 2, _field_tree("conn_eq_full", sys.conn, A=sys.A, eta=eta))


def determining_residuals(sys, eta, pts=None):
    """Max-norm residuals of the two determining equations over sample
    points.  Returns {"res_A": ..., "res_Gamma": ...}; eta is accepted as a
    symmetry when both stay within tolerance.  With det A = 0 at a probe
    point the A-weighted connection equation replaces the reduced one.
    Both are the values of their trees, evaluated checked
    (``geometry._point_values``): a residual that is not finite at a probe
    point raises DomainError naming the node.  The points pass
    ``as_points`` (None gives the 20 sample points)."""
    pts = as_points(pts, sys.n)
    values = _point_values(sys.conn, pts, A=sys.A, eta=eta)
    lie_a, a = values(("lie_a",), ("A",))
    which = "reduced" if _nondegenerate(a) else "full"
    (res,) = values(("conn_eq" if which == "reduced" else "conn_eq_full",))
    return {
        "res_A": max_report(lie_a, pts),
        "res_Gamma": max_report(res, pts, details={"equation": which}),
    }


def is_symmetry(sys, eta, tol=1e-8):
    """True when both determining residuals stay within tol at the 20
    sample points."""
    res = determining_residuals(sys, eta)
    return res["res_A"].max_abs <= tol and res["res_Gamma"].max_abs <= tol


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
    for all solver stages.  p is one point (``as_points``).
    """
    p = as_points(p, eta.n, one=True)
    if tau == 0.0:
        return p.copy()
    program = compile_exprs(eta.comps.reshape(-1))

    def rhs(_t, y):
        return program.at(y.tolist())

    sol = solve_ivp(rhs, (0.0, tau), p, rtol=1e-9, atol=1e-10)
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

    eta and its derivatives come from one checked walk (``_jets``): one
    that is not finite at p0 raises DomainError naming its node; p0 is one
    point (``as_points``)."""
    p0 = as_points(p0, eta.n, one=True)
    v, F = (a[0] for a in _jets([eta.comps], p0))  # F[i, j] = d eta^i / dy^j
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


def _matrix_rank(mat):
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


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
    ranks = [_matrix_rank(m) for m in rh]
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


def _jets(arrays, pts):
    """W and dW/dy^1..n of each Expr array W in ``arrays``, at points (P, n)
    or one point (n,): ``tensor.eval_jets``, bitwise the list
    ``eval_arrays([W0, grad(W0, n), W1, grad(W1, n), ...], pts,
    checked=True)`` from one checked forward-mode walk that builds no
    derivative tree.

    If that walk faults (a flag, a DomainError, a constant that does not
    fold), the trees are built and walked: the walk raises its error,
    naming its node, or, where the fault was in a term the trees fold away,
    returns their values."""
    try:
        return eval_jets(arrays, pts)
    except ExprError:
        n = np.shape(pts)[-1]
        return eval_arrays([x for a in arrays for x in (a, grad(a, n))], pts, checked=True)


def _lie_rows(w, dw, r):
    """The linearized Lie derivative of a tensor field W with r upper slots
    at a point p0, from W and dW/dy there (``_jets`` or ``_one_jet`` at
    p0, arrays with a leading axis of length 1): one row per component of
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
    if depth not in (0, 1, 2):
        raise ValueError("depth must be 0, 1 or 2")
    return pointwise_symmetry_bounds(sys, p0, depth)[depth]


def pointwise_symmetry_bounds(sys, p0, depth=2):
    """``pointwise_symmetry_bound`` at every depth 0..depth, as a list, from
    one stack of rows: the rows of a depth are a prefix of those of the
    next.

    The rows come from Taylor coefficients at p0 (``_taylor_rows``): A to
    order 1 and Gamma to order depth + 1 from one checked walk
    (``expr.taylor_coefficients``), and the curvature and nabla Ric as
    numbers by the formulas of ``geometry``, with no curvature or nabla Ric
    tree.  Where that path raises ExprError, the rows come from the trees
    (``_tree_rows``), whose errors are the bound's.  p0 is one point
    (``as_points``)."""
    n = sys.n
    p0 = as_points(p0, n, one=True)
    try:
        rows = _taylor_rows(sys, p0, depth)
    except ExprError:
        rows = _tree_rows(sys, p0, depth)
    return [n * n + n - _matrix_rank(np.concatenate(rows[: d + 1])) for d in range(depth + 1)]


def _one_jet(c, n):
    """W and dW/dy at p0 (arrays with a leading axis of length 1, as
    ``_lie_rows`` takes them) from W's Taylor coefficients c[K, slots]."""
    return c[:1], np.moveaxis(c[1 : n + 1], 0, -1)[None]


# Magnitudes beyond this many times the largest coefficient of their array
# mean the coefficients lost six or more of their sixteen digits to
# cancellation; the trees cancel the same terms in another order, so the
# two differ at that level, and the rows come from the trees.  Fixtures,
# canonical kinds and benchmark decks stay below 20.
_CANCELLATION = 1e6
# R's and nabla Ric's coefficients sum products of at most three of
# Gamma's: with Gamma's derivatives below this, none comes near the float
# limit, in these sums or in the trees' own.
_GAMMA_LIMIT = 1e99


def _taylor(comps, p0, k):
    """An Expr array's Taylor coefficients at p0 to order k, as c[K, slots],
    and the largest magnitude of a derivative there (from the walk's
    magnitudes, ``taylor_coefficients``).  Raises ExprError where the walk
    does, and where cancellation took six or more digits
    (_CANCELLATION)."""
    coefs, mags = taylor_coefficients(comps.reshape(-1), p0, k)
    if mags.max(initial=0.0) / _CANCELLATION > np.abs(coefs).max(initial=0.0):
        raise ExprError("Taylor coefficients lost to cancellation")
    return coefs.T.reshape((-1,) + comps.shape), math.factorial(k) * mags.max(initial=0.0)


def _taylor_rows(sys, p0, depth):
    """The bound's rows of A, R and nabla Ric, as far as depth asks, from
    Taylor coefficients at p0: A to order 1, and Gamma to order depth + 1,
    from which geometry's bodies give R to order depth
    (``_curvature_comps``), then Ric (``_ricci_contractions``) and nabla
    Ric to order 1 (``_nabla_terms``), with numpy's add and subtract and
    the truncated product as mul.  Raises ExprError where ``_taylor``
    does, where a derivative of Gamma exceeds _GAMMA_LIMIT, and where a row
    overflows."""
    n = sys.n
    rows = [_lie_rows(*_one_jet(_taylor(sys.A.comps, p0, 1)[0], n), 1)]
    if depth < 1:
        return rows
    depth = min(depth, 2)
    g, largest = _taylor(sys.conn.gamma, p0, depth + 1)
    if largest > _GAMMA_LIMIT:
        raise ExprError("Gamma's derivatives too large for the curvature's trees")
    low, one = taylor_tables(n, depth), taylor_tables(n, 1)
    ops = (np.add, np.subtract)
    curv = _curvature_comps(g[: low.size], taylor_tables(n, depth + 1).grad(g), *ops, low.mul)
    rows.append(_lie_rows(*_one_jet(curv, n), 1))
    if depth == 2:
        ric = _ricci_contractions(curv, np.add)[0]
        nabla = _nabla_terms(g[: one.size], ric[: one.size], low.grad(ric), 0, *ops, one.mul)
        rows.append(_lie_rows(*_one_jet(nabla, n), 0))
    return rows


def _tree_rows(sys, p0, depth):
    """The bound's rows from the derivative trees' jets: A, the curvature
    kept on sys.conn (``curvature``) and nabla Ric, as far as depth asks,
    each walked on its own (``_jets``, bitwise the walk of its derivative
    trees) and its rows formed before the next is walked, so that the error
    raised is the first in that order: rows of A that overflow come before
    a fault in the curvature's jets."""
    fields = [sys.A]
    if depth >= 1:
        fields.append(curvature(sys.conn))
    if depth >= 2:
        fields.append(covariant_differential(sys.conn, ricci_and_s(sys.conn)["ricci"]))
    return [_lie_rows(*_jets([f.comps], p0), f.r) for f in fields]


# ---------------------------------------------------------------------------
# Invariance consequences of a verified symmetry
# ---------------------------------------------------------------------------


def invariance_suite(sys, eta, pts=None):
    """Residual suite for the geometric consequences of a point symmetry:
    vanishing Lie derivatives of the curvature tensor, the Ricci tensor, the
    S field and nabla(Ricci), and of the connection itself.

    The curvature is the one kept on sys.conn (``curvature``).  The four
    tensor keys are max |L_eta W| by ``liefn.lie_terms`` (the formula of
    ``lie_derivative``) on eta, d eta, W and dW/dy from one checked
    forward-mode walk (``_jets``), which builds no derivative tree unless it
    faults; then the trees' walk raises its error, naming its node.  The
    L_eta Gamma residual is evaluated, checked, before that walk.

    For a torsion-free connection the commutator of the Lie derivative with
    the covariant differential is a contraction with L_eta Gamma,

        (L_eta nabla - nabla L_eta) W = (L_eta Gamma) . W,

    one term per slot of W (Yano 1957; Kobayashi-Nomizu I, ch. VI), so
    ``lie_gamma`` reports max |L_eta Gamma| at the points, from the reduced
    connection residual (which is -L_eta Gamma) for every A.  With
    nondegenerate A it equals ``determining_residuals``' res_Gamma; with
    degenerate A that is the A-weighted residual, which does not bound
    |L_eta Gamma|.  The points pass ``as_points``."""
    return _invariance(sys, eta, as_points(pts, sys.n))


def _invariance(sys, eta, pts, lie_gamma=None):
    """``invariance_suite`` at checked points, with lie_gamma the report of
    the reduced connection residual there when the caller has it already
    (``determining_residuals``' res_Gamma on the reduced equation: the same
    trees, points and checked walk); else it is evaluated here."""
    conn = sys.conn
    parts = ricci_and_s(conn)
    fields = (curvature(conn), parts["ricci"], parts["s"], covariant_differential(conn, parts["ricci"]))
    if lie_gamma is None:
        lie_gamma = max_report(_point_values(conn, pts, eta=eta)(("conn_eq",))[0], pts)
    e, de, *vals = _jets([eta.comps, *(f.comps for f in fields)], pts)
    lies = [lie_terms(w, dw, e, de, f.r) for f, w, dw in zip(fields, vals[::2], vals[1::2])]
    keys = ("lie_curvature", "lie_ricci", "lie_s", "lie_nabla_ricci")
    return {**{key: max_report(v, pts) for key, v in zip(keys, lies)}, "lie_gamma": lie_gamma}
