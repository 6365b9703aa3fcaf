"""Constructors for the canonical maximally-symmetric geometries and the
projective-flattening pipeline.

Covered families (with A = a * id unless stated):

- maximal:       zero connection (decoupled heat equations after transform);
- intermediate:  Gamma^k_rs = -(u_r d^k_s + u_s d^k_r) with a covector u
                 depending on the first m coordinates only, optionally u =
                 grad(psi);
- constant curvature: conformally-euclidean data
                 f = 1/(2(n-1)) + sum eps_i (y^i)^2 / 2,
                 u^j = -f y^j,   g = diag(eps)/f^2,
                 Gamma^k_rs = u_r d^k_s + u_s d^k_r - u^k g_rs,
                 and for n = 2 the operator field gains a rotation part
                 b * P with P the 90-degree rotation of the metric;
- scalar:        the single equation (one-dimensional chart, any
                 coefficient profile; always maximally degenerate).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial

import numpy as np

from .expr import ONE, Expr, ZERO, const, diff_expr, eval_many, func, mul, parse_expr
from .geometry import (
    Connection,
    DiffusionSystem,
    _add_quadratic,
    _at,
    _check_form,
    _curvature_comps,
    _point_values,
    _quadratic_plan,
    _ricci_halves,
    _structure_report,
    covariant_differential,
    curvature,
    scalar_operator,
)
from .pfaff import (
    TransportError,
    _beta_from_connection,
    _coords,
    _initial_data,
    named_system,
    pfaff_integrate,
    transport_to,
)
from .tensor import ADD, MUL, SUB, TensorField, bcast, eval_jets, fold, matrix_determinant
from .util import CheckFailed, as_points, max_report, sample_points

__all__ = [
    "CanonicalSpec",
    "CANONICAL_KINDS",
    "build_system",
    "conformal_factor",
    "constcurv_metric",
    "rotation_field",
    "deformed_curvature",
    "deformation_from_covector",
    "projective_flatten",
    "FlattenResult",
    "PreconditionError",
]

CANONICAL_KINDS = (
    "maximal_7_11",
    "intermediate_17_19",
    "intermediate_potential_17_24",
    "constcurv_22_13",
    "constcurv_2d_22_14",
    "scalar_23_1",
)


@dataclass
class CanonicalSpec:
    """Parameters of a canonical system; u / psi entries may be Exprs or
    source strings (parsed under the chart dimension)."""

    kind: str
    n: int
    a: float = 1.0
    m: int = 0
    b: float = 0.0
    epsilons: tuple = ()
    u: tuple = ()
    psi: object = None

    def __post_init__(self):
        if self.kind not in CANONICAL_KINDS:
            raise ValueError(f"unknown canonical kind {self.kind!r}")
        for name in ("n", "m"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        for name in ("a", "b"):
            v = getattr(self, name)
            if not isinstance(v, numbers.Real) or isinstance(v, bool) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite real number, got {v!r}")
        for e in (*self.u, *(() if self.psi is None else (self.psi,))):
            if not isinstance(e, (str, Expr)):
                raise ValueError(f"u and psi entries must be expression strings, got {e!r}")
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.a == 0.0:
            raise ValueError("leading coefficient a must be nonzero")
        if self.kind in ("intermediate_17_19", "intermediate_potential_17_24"):
            if not (0 <= self.m <= self.n):
                raise ValueError(f"m = {self.m} outside 0..{self.n}")
        if self.kind.startswith("constcurv"):
            if self.n < 2:
                raise ValueError("constant-curvature construction needs n >= 2")
            eps = self.epsilons or tuple([1] * self.n)
            if len(eps) != self.n or any(isinstance(e, bool) or e not in (1, -1) for e in eps):
                raise ValueError("epsilons must be n entries of +/-1")
            self.epsilons = tuple(int(e) for e in eps)
        if self.b != 0.0 and self.kind != "constcurv_2d_22_14":
            raise ValueError("a rotation part b is only meaningful for the n=2 case")
        if self.kind == "constcurv_2d_22_14" and self.n != 2:
            raise ValueError("constcurv_2d_22_14 requires n = 2")
        if self.kind == "scalar_23_1" and self.n != 1:
            raise ValueError("scalar_23_1 requires n = 1")

    def u_exprs(self):
        groups = {}
        return [parse_expr(t, self.n, groups=groups) if isinstance(t, str) else t for t in self.u]

    def psi_expr(self):
        if self.psi is None:
            return None
        return parse_expr(self.psi, self.n) if isinstance(self.psi, str) else self.psi

    def to_dict(self):
        d = {"kind": self.kind, "n": self.n, "a": self.a}
        if self.kind in ("intermediate_17_19", "intermediate_potential_17_24"):
            d["m"] = self.m
        if self.b:
            d["b"] = self.b
        if self.epsilons:
            d["epsilons"] = list(self.epsilons)
        if self.u:
            d["u"] = [str(t) if isinstance(t, Expr) else t for t in self.u]
        if self.psi is not None:
            d["psi"] = str(self.psi)
        return d


def conformal_factor(n, epsilons):
    """f = 1/(2(n-1)) + sum_i eps_i (y^i)^2 / 2; df/dy^i = eps_i y^i."""
    y = _coords(1, n)
    half_eps = TensorField(n, 1, 0, [0.5 * e for e in epsilons]).comps
    return fold(const(1.0 / (2 * (n - 1))), (ADD, MUL(half_eps, MUL(y, y))))


def constcurv_metric(n, epsilons=None):
    """g = diag(eps)/f^2 on the conformally-euclidean chart."""
    eps = tuple(epsilons) if epsilons else tuple([1] * n)
    f = conformal_factor(n, eps)
    arr = TensorField.zeros(n, 0, 2).comps
    np.fill_diagonal(arr, TensorField(n, 1, 0, eps).comps / mul(f, f))
    return TensorField(n, 0, 2, arr), f


def _conformal_terms(n, eps):
    """d^k_s eps_r y^r, d^k_r eps_s y^s and d_rs eps_r y^k on the axes
    [k, r, s]; the constant-curvature connection and its flattening
    deformation are their signed sums over f."""
    delta = TensorField.identity(n).comps
    e, y = TensorField(n, 1, 0, eps).comps, _coords(1, n)
    ey = MUL(e, y)
    return (
        MUL(bcast(delta, "ks", "krs"), bcast(ey, "r", "krs")),
        MUL(bcast(delta, "kr", "krs"), bcast(ey, "s", "krs")),
        MUL(bcast(delta, "rs", "krs"), MUL(bcast(e, "r", "krs"), bcast(y, "k", "krs"))),
    )


def _constcurv_connection(n, eps):
    """Gamma^k_rs = u_r d^k_s + u_s d^k_r - u^k g_rs with u^j = -f y^j."""
    t1, t2, t3 = _conformal_terms(n, eps)
    return Connection(n, ADD(SUB(SUB(ZERO, t1), t2), t3) / conformal_factor(n, eps))


def _intermediate_connection(n, m, u_exprs):
    if len(u_exprs) != m:
        raise ValueError(f"expected {m} covector components, got {len(u_exprs)}")
    for r, e in enumerate(u_exprs):
        if e.max_index > m:
            raise ValueError(
                f"u_{r + 1} references y{e.max_index}; the canonical covector may "
                f"depend on y1..y{m} only"
            )
    us = TensorField(n, 1, 0, list(u_exprs) + [ZERO] * (n - m)).comps
    delta = TensorField.identity(n).comps
    # Gamma^k_rs = - u_r d^k_s - u_s d^k_r
    t1 = MUL(bcast(delta, "ks", "krs"), bcast(us, "r", "krs"))
    t2 = MUL(bcast(delta, "kr", "krs"), bcast(us, "s", "krs"))
    return Connection(n, SUB(SUB(ZERO, t1), t2))


def rotation_field(g, orientation=1.0):
    """The 90-degree rotation operator of a 2d metric:

    P^i_j = sum_s d^{is} g_sj / sqrt(|det g|), with d the skew unit matrix.
    """
    if g.n != 2 or g.valence != (0, 2):
        raise ValueError("rotation field is defined for a 2d metric")
    det = matrix_determinant(g.comps)
    sgn = float(np.sign(eval_many(det, np.array([[0.05, -0.07]]))[0]))
    root = func("sqrt", mul(const(sgn), det))
    d = TensorField(2, 1, 1, [[0.0, orientation], [-orientation, 0.0]]).comps
    terms = MUL(bcast(d, "is", "ijs"), bcast(g.comps, "sj", "ijs"))
    return TensorField(2, 1, 1, ADD.reduce(terms, axis=-1) / root)


def build_system(spec):
    """The DiffusionSystem of a canonical specification, built without
    ``Connection.check_symmetric``'s walk: each kind's Gamma^k_rs and
    Gamma^k_sr are ((-A) - B)[+ C] and ((-B) - A)[+ C], equal to the bit
    (or both nan) as IEEE + and * commute and negation is exact."""
    n, kind = spec.n, spec.kind
    A = scalar_operator(n, spec.a)
    if kind == "maximal_7_11":
        conn = Connection.zeros(n)
    elif kind == "intermediate_17_19":
        conn = _intermediate_connection(n, spec.m, spec.u_exprs())
    elif kind == "intermediate_potential_17_24":
        psi = spec.psi_expr()
        if psi is None:
            raise ValueError("intermediate_potential_17_24 needs a potential psi")
        if psi.max_index > spec.m:
            raise ValueError("psi may depend on y1..ym only")
        conn = _intermediate_connection(n, spec.m, [diff_expr(psi, r + 1) for r in range(spec.m)])
    elif kind.startswith("constcurv"):
        conn = _constcurv_connection(n, spec.epsilons)
        if kind == "constcurv_2d_22_14":
            A = A + rotation_field(constcurv_metric(2, spec.epsilons)[0]).scale(spec.b)
    else:
        # scalar_23_1: the single equation; u (when given) holds the lone
        # connection coefficient
        gamma = np.empty((1, 1, 1), dtype=object)
        gamma[0, 0, 0] = spec.u_exprs()[0] if spec.u else ZERO
        conn = Connection(1, gamma)
    return DiffusionSystem(n, A, conn, check=False)


# ---------------------------------------------------------------------------
# Connection deformations
# ---------------------------------------------------------------------------


def deformed_curvature(conn, T):
    """Curvature of Gamma + T through the deformation identity:

    Rbar^i_srk = R^i_srk + nabla_r T^i_ks - nabla_k T^i_rs
                 + sum_q ( T^q_ks T^i_rq - T^q_rs T^i_kq ),

    which must coincide with curvature(Gamma + T) computed directly.  T must
    be symmetric in its lower slots.
    """
    if T.valence != (1, 2):
        raise ValueError("deformation tensor must be (1,2)")
    if not T.is_symmetric():
        raise ValueError("deformation tensor must be symmetric in its lower slots")
    R = curvature(conn)
    nt = covariant_differential(conn, T).comps  # [i, deriv, k, s]
    first = SUB(ADD(R.comps, bcast(nt, "irks", "isrk")), bcast(nt, "ikrs", "isrk"))
    quadratic = _add_quadratic(first[None], T.comps[None], ADD, SUB, MUL, _quadratic_plan(T.comps))
    return TensorField(conn.n, 1, 3, quadratic[0])


def deformation_from_covector(n, epsilons):
    """The flattening deformation of the constant-curvature connection:
    T^k_rs = -u_r d^k_s - u_s d^k_r + u^k g_rs with u^j = -f y^j."""
    eps = tuple(epsilons) if epsilons else tuple([1] * n)
    t1, t2, t3 = _conformal_terms(n, eps)
    return TensorField(n, 1, 2, SUB(ADD(ADD(ZERO, t1), t2), t3) / conformal_factor(n, eps))


# ---------------------------------------------------------------------------
# Projective flattening
# ---------------------------------------------------------------------------


class PreconditionError(ValueError, CheckFailed):
    """A connection that ``projective_flatten`` finds not projectively euclidean."""


@dataclass
class FlattenResult:
    """The transported covector as a point sampler, u(y) = U(y), plus the
    residual report of the whole pipeline."""

    u: object
    report: dict


def projective_flatten(conn, p0, u0, pts=None):
    """Deform a projectively-euclidean connection to a flat one.

    Checks the curvature structure and the symmetry of nabla(beta) first
    at the points pts (``as_points``: None gives the 20 sample points;
    beta extracted from the Ricci split; each must stay within 1e-7), then
    transports the covector equation from (p0, u0) to the 5 points
    ``sample_points(n, 5, seed=11)`` and reports, as max-norms over them:

    - flat_curvature: the curvature of the deformed connection
      Gamma + u (x) id + id (x) u, by the formula of ``geometry.curvature``
      on numbers at the transported u: Gamma and dGamma/dy from one checked
      forward-mode walk (``eval_jets``), du/dy = G(u, y) from the covector
      equation;
    - path_gap: |U(y) straight - U(y) cornered|, U transported from p0
      along the segment to y and along p0 -> (y^1, p0^2, .., p0^n) -> y.
      Once du/dy = G(u, y) the curvature above vanishes for any u, so this
      is the number that transport itself drives.

    p0 is one point (``as_points``) and u0 its n covector values, which must
    be finite (else ValueError naming u0).  Every stage lands in the report;
    a failed precondition raises PreconditionError, and a failed transport
    a TransportError naming its probe.  The preconditions' fields come from
    ``geometry._point_values``: one that is not finite at a point of pts
    raises ExprError naming the field and the point, as a value of Gamma
    that is not finite at a probe raises the walk's DomainError.
    """
    n = conn.n
    p0 = as_points(p0, n, one=True)
    u0 = _initial_data(u0, n)
    _check_form("beta_14_1", n)
    pts = as_points(pts, n)
    fields = ("curvature", "ricci_sym", "ricci_skew", "nabla_ricci")
    R, rh, rt, nabla_ricci = _point_values(conn, pts)(fields)
    pre_structure = _structure_report("beta_14_1", R, rh, rt, pts)
    beta = TensorField(n, 0, 2, _beta_from_connection(conn))
    with np.errstate(all="ignore"):  # finite values whose combination may overflow
        # nabla beta = sym(nabla Ric)/(n-1) - skew(nabla Ric)/(n+1), the
        # halves taken over Ric's slots, the last two
        sym, skew = _ricci_halves(nabla_ricci, np.add, np.subtract, np.multiply, 0.5)
        nbv = (1.0 / (n - 1)) * sym - (1.0 / (n + 1)) * skew
        pre_symmetry = max_report(nbv - nbv.transpose(0, 2, 1, 3), pts)
    report = {
        "precondition_structure": pre_structure,
        "precondition_nabla_beta": pre_symmetry,
    }
    if pre_structure.max_abs > 1e-7 or pre_symmetry.max_abs > 1e-7:
        raise PreconditionError(
            "connection is not projectively-euclidean within tolerance: "
            f"structure {pre_structure.max_abs:.3e}, "
            f"nabla(beta) symmetry {pre_symmetry.max_abs:.3e}"
        )
    prob = named_system("covector_14", conn=conn, beta=beta, p0=p0, u0=u0)
    probe = sample_points(n, 5, seed=11)
    straight, corner = [], []
    for y in probe:
        try:
            straight.append(transport_to(prob, y))
            corner.append(pfaff_integrate(prob, [p0, [y[0], *p0[1:]], y])[-1])
        except TransportError as exc:
            exc.args = (f"{exc} on the path to probe {_at(y)}",)
            raise
    # Gammabar^k_rs = Gamma^k_rs + u_r d^k_s + u_s d^k_r and its derivatives, du_r/dy^q = G^r_q
    ((g, dg),) = eval_jets([conn.gamma], probe)
    du, delta = np.array([prob.rhs_values(u, y) for u, y in zip(straight, probe)]), np.eye(n)
    with np.errstate(all="ignore"):  # an overflow reads inf
        shift = bcast(np.asarray(straight), "pr", "pkrs") * bcast(delta, "ks", "pkrs")
        dshift = bcast(du, "prq", "pkrsq") * bcast(delta, "ks", "pkrsq")
        gbar, dgbar = (g + shift) + shift.swapaxes(2, 3), dg + (dshift + dshift.swapaxes(2, 3))
        plan = _quadratic_plan(np.where(delta[:, None] + delta[:, :, None] > 0, ONE, conn.gamma))
        rbar = _curvature_comps(gbar, dgbar, np.add, np.subtract, np.multiply, plan)
        report["flat_curvature"] = max_report(rbar.reshape(len(probe), -1), probe)
    report["path_gap"] = max_report(np.subtract(straight, corner), probe)
    return FlattenResult(u=partial(transport_to, prob), report=report)
