"""Affine connections: curvature, Ricci splits, covariant differential,
metric connections, structure-formula residuals, coordinate transforms.

Index conventions are pinned once here and cited everywhere else:

    R^i_srk = d Gamma^i_ks / dy^r - d Gamma^i_rs / dy^k
              + sum_q Gamma^q_ks Gamma^i_rq - sum_q Gamma^q_rs Gamma^i_kq

stored as comps[i, s, r, k]; s is the argument (Z) slot, (r, k) the skew
pair, so [nabla_r, nabla_k] Z^i = sum_s R^i_srk Z^s.  The covariant
differential puts its new covariant slot first, so contracting a vector into
slot one gives the covariant derivative along it.  Ricci contracts the upper
index with the r slot, the S field with the s slot; S = 2 * skew(Ricci) is
forced by the first Bianchi identity and is asserted as a test, not used as
a shortcut.
"""

from __future__ import annotations

import string

import numpy as np

from .expr import Expr, const
from .tensor import (
    ADD,
    MUL,
    SUB,
    TensorField,
    bcast,
    fold,
    grad,
    pushforward,
    sym_matrix_inverse,
)
from .util import max_report, sample_points

__all__ = [
    "Connection",
    "DiffusionSystem",
    "curvature",
    "covariant_differential",
    "ricci_and_s",
    "metric_connection",
    "lower_curvature",
    "structure_residual",
    "bianchi_padov_residual",
    "transform_connection",
    "transform_system",
    "scalar_operator",
]

STRUCTURE_FORMS = ("intermediate_10_15", "two_dim_12_1", "beta_14_1", "const_curv_19_14")


class Connection:
    """Symmetric affine connection: n^3 coefficient fields Gamma^k_rs.

    Not a tensor; transforms with an inhomogeneous term (see
    transform_connection).  The coefficients are stored as one (1,2)
    TensorField, ``field``, for storage and evaluation only; gamma[k, r, s]
    must be symmetric in (r, s).
    """

    def __init__(self, n, gamma):
        self.field = TensorField(n, 1, 2, gamma)

    @property
    def n(self):
        return self.field.n

    @property
    def gamma(self):
        return self.field.comps

    @classmethod
    def zeros(cls, n):
        return cls(n, TensorField.zeros(n, 1, 2).comps)

    @classmethod
    def from_strings(cls, n, entries):
        """entries[k][r][s] are expression strings for Gamma^k_rs."""
        return cls(n, TensorField.from_strings(n, 1, 2, entries).comps)

    def evaluate_many(self, points):
        return self.field.evaluate_many(points)

    def symmetry_residual(self):
        """max |Gamma^k_rs - Gamma^k_sr| at the 20 sample points."""
        g = self.evaluate_many(sample_points(self.n, 20))
        return float(np.max(np.abs(g - g.transpose(0, 1, 3, 2))))

    def check_symmetric(self):
        """Raise ValueError when symmetry_residual exceeds 1e-12."""
        res = self.symmetry_residual()
        if res > 1e-12:
            raise ValueError(f"connection coefficients not symmetric: residual {res:.3e}")


class DiffusionSystem:
    """Geometric data of an evolution system: operator field A of valence
    (1,1) plus a symmetric affine connection on the same chart."""

    def __init__(self, n, a_field, conn, check=True):
        self.n = int(n)
        self.A = a_field
        self.conn = conn
        self.coeff_program = None  # pdesim's compiled right-hand side, built on first use
        if a_field.valence != (1, 1) or a_field.n != n or conn.n != n:
            raise ValueError("operator field must be (1,1) on the same chart as the connection")
        if check:
            conn.check_symmetric()

    def a_nondegenerate(self, pts):
        """True when |det A| exceeds 1e-12 at every probe point."""
        vals = self.A.evaluate_many(pts)
        return bool(np.min(np.abs(np.linalg.det(vals))) > 1e-12)


def scalar_operator(n, a):
    """A = a * identity."""
    return TensorField.identity(n).scale(a)


# ---------------------------------------------------------------------------
# Curvature and contractions
# ---------------------------------------------------------------------------


def curvature(conn):
    """Curvature tensor of the connection, comps[i, s, r, k] = R^i_srk."""
    return TensorField(conn.n, 1, 3, _curvature_comps(conn.gamma, grad(conn.gamma, conn.n)))


def _curvature_comps(G, dG):
    """The curvature formula on coefficients G[i, r, s] = Gamma^i_rs and
    their derivatives dG[i, r, s, k] = d Gamma^i_rs / dy^k, whatever
    derivative produced them; comps[i, s, r, k] = R^i_srk."""
    first = SUB(bcast(dG, "iksr", "isrk"), bcast(dG, "irsk", "isrk"))
    return _add_quadratic(first, G)


def _add_quadratic(total, G):
    """total^i_srk + sum_q (G^q_ks G^i_rq - G^q_rs G^i_kq), folded over q in
    that order: the quadratic part of the curvature formula, shared by
    curvature and the deformation identity."""
    up = MUL(bcast(G, "qks", "isrkq"), bcast(G, "irq", "isrkq"))
    down = MUL(bcast(G, "qrs", "isrkq"), bcast(G, "ikq", "isrkq"))
    return fold(total, (ADD, up), (SUB, down))


def covariant_differential(conn, w):
    """nabla W as a (r, s+1) field with the derivative slot first.

    Contracting a vector Y into the first covariant slot yields nabla_Y W;
    on scalars this is the gradient, and the Leibniz rule over tensor
    products holds componentwise.
    """
    if isinstance(w, Expr):
        w = TensorField.scalar(conn.n, w)
    G = conn.gamma
    slots = string.ascii_uppercase[: w.r + w.s]  # W's slots, then k and q
    out = slots + "kq"
    total = grad(w.comps, conn.n)  # [slots, k]
    for a, c in enumerate(slots):
        # upper slot: + G^{c}_kq W^{..q..}; lower slot: - G^q_k{c} W_{..q..}
        gq = bcast(G, c + "kq", out) if a < w.r else bcast(G, "qk" + c, out)
        terms = MUL(gq, bcast(w.comps, slots.replace(c, "q"), out))
        total = fold(total, (ADD if a < w.r else SUB, terms))
    return TensorField(conn.n, w.r, w.s + 1, np.moveaxis(total, -1, w.r))


def ricci_and_s(conn, curv=None):
    """Ricci tensor, the S field, and the symmetric/skew Ricci split.

    R_ij = sum_k R^k_ikj and S_ij = sum_k R^k_kij; returns a dict with keys
    ricci, s, ricci_sym, ricci_skew.
    """
    n = conn.n
    R = curv.comps if curv is not None else curvature(conn).comps
    ric = ADD.reduce(np.diagonal(R, 0, 0, 2), axis=-1)  # sum_k R^k_ikj
    sfield = ADD.reduce(np.diagonal(R, 0, 0, 1), axis=-1)  # sum_k R^k_kij
    half = const(0.5)
    sym = MUL(half, ADD(ric, ric.T))
    skew = MUL(half, SUB(ric, ric.T))
    return {
        "ricci": TensorField(n, 0, 2, ric),
        "s": TensorField(n, 0, 2, sfield),
        "ricci_sym": TensorField(n, 0, 2, sym),
        "ricci_skew": TensorField(n, 0, 2, skew),
    }


def metric_connection(g, pts=None):
    """Christoffel symbols of a symmetric invertible metric field:

    Gamma^k_ij = sum_s g^{ks}/2 (d g_sj/dy^i + d g_is/dy^j - d g_ij/dy^s),

    the unique symmetric connection with nabla g = 0.  g must pass
    ``is_symmetric`` and be nonsingular at the probe points (default: the
    20 sample points).
    """
    n = g.n
    if g.valence != (0, 2):
        raise ValueError("metric must be a (0,2) field")
    if not g.is_symmetric():
        raise ValueError("metric is not symmetric")
    if pts is None:
        pts = sample_points(n, 20)
    dets = np.linalg.det(g.evaluate_many(pts))
    if np.min(np.abs(dets)) < 1e-12:
        raise ValueError("metric is singular at a probe point")
    ginv = sym_matrix_inverse(g.comps)
    dg = grad(g.comps, n)  # [a, b, c] = d g_ab / dy^c
    inner = SUB(ADD(bcast(dg, "sji", "ijs"), bcast(dg, "isj", "ijs")), dg)
    total = ADD.reduce(MUL(bcast(ginv, "ks", "kijs"), bcast(inner, "ijs", "kijs")), axis=-1)
    return Connection(n, MUL(const(0.5), total))


def lower_curvature(g, curv):
    """R_kqij = sum_s g_ks R^s_qij, a (0,4) field."""
    terms = MUL(bcast(g.comps, "ks", "kqijs"), bcast(curv.comps, "sqij", "kqijs"))
    return TensorField(g.n, 0, 4, ADD.reduce(terms, axis=-1))


# ---------------------------------------------------------------------------
# Structure residuals
# ---------------------------------------------------------------------------


def structure_residual(conn, form, pts=None):
    """Max-norm residual of a curvature structure formula.

    The right-hand side is assembled numerically from the Ricci split:

    - intermediate_10_15 (n >= 3):
        R^k_sij = (2 Rt_ij d^k_s - Rt_js d^k_i + Rt_is d^k_j)/(n+1)
                  + (Rh_js d^k_i - Rh_is d^k_j)/(n-1)
    - two_dim_12_1 (n == 2):  R^k_sij = Rh_sj d^k_i - Rh_si d^k_j
    - beta_14_1:  with beta = Rh/(n-1) - Rt/(n+1),
        R^k_sij = (b_ji - b_ij) d^k_s + b_js d^k_i - b_is d^k_j
    - const_curv_19_14:  R^k_sij = (g_sj d^k_i - g_si d^k_j)/(n-1), g = Rh
      (at n=2 the prefactor is 1, which is the planar special case).
    """
    n = conn.n
    if form not in STRUCTURE_FORMS:
        raise ValueError(f"unknown structure form {form!r}; pick one of {STRUCTURE_FORMS}")
    if form == "intermediate_10_15" and n < 3:
        raise ValueError("intermediate_10_15 requires n >= 3")
    if form == "two_dim_12_1" and n != 2:
        raise ValueError("two_dim_12_1 requires n = 2")
    if form == "beta_14_1" and n < 2:
        raise ValueError("beta_14_1 requires n >= 2")
    if form == "const_curv_19_14" and n < 2:
        raise ValueError("const_curv_19_14 requires n >= 2")
    if pts is None:
        pts = sample_points(n, 20)
    curv = curvature(conn)
    parts = ricci_and_s(conn, curv)
    Rv = curv.evaluate_many(pts)
    rh = parts["ricci_sym"].evaluate_many(pts)
    rt = parts["ricci_skew"].evaluate_many(pts)

    def at(arr, src):  # a (P, n, n) array or the delta on the axes (p, k, s, i, j)
        return bcast(arr, src, "pksij")

    d = np.eye(n)[None]
    d_ks, d_ki, d_kj = at(d, "pks"), at(d, "pki"), at(d, "pkj")
    if form == "intermediate_10_15":
        rhs = (
            2.0 * at(rt, "pij") * d_ks - at(rt, "pjs") * d_ki + at(rt, "pis") * d_kj
        ) / (n + 1.0) + (at(rh, "pjs") * d_ki - at(rh, "pis") * d_kj) / (n - 1.0)
    elif form == "two_dim_12_1":
        rhs = at(rh, "psj") * d_ki - at(rh, "psi") * d_kj
    elif form == "beta_14_1":
        beta = rh / (n - 1.0) - rt / (n + 1.0)
        rhs = (
            (at(beta, "pji") - at(beta, "pij")) * d_ks
            + at(beta, "pjs") * d_ki
            - at(beta, "pis") * d_kj
        )
    else:  # const_curv_19_14
        rhs = (at(rh, "psj") * d_ki - at(rh, "psi") * d_kj) / (n - 1.0)
    return max_report(Rv - rhs, pts, details={"form": form})


def bianchi_padov_residual(conn):
    """Cyclic second-Bianchi residual:

    nabla_i R^k_sjq + nabla_j R^k_sqi + nabla_q R^k_sij at the 20 sample
    points; an identity for every symmetric connection, so this doubles as
    an implementation self-test of the covariant differential.
    """
    pts = sample_points(conn.n, 20)
    nr = covariant_differential(conn, curvature(conn)).evaluate_many(pts)
    # nr[:, k, i, s, j, q] = nabla_i R^k_sjq
    res = (
        nr
        + nr.transpose(0, 1, 4, 3, 5, 2)  # nabla_j R^k_sqi
        + nr.transpose(0, 1, 5, 3, 2, 4)  # nabla_q R^k_sij
    )
    return max_report(res, pts)


# ---------------------------------------------------------------------------
# Coordinate transforms (tensor rule for A, inhomogeneous rule for Gamma)
# ---------------------------------------------------------------------------


def transform_connection(conn, pmap):
    """Connection coefficients in the new chart:

    Gb^a_bc = sum_k Tb^a_k ( sum_ij (Gamma^k_ij o inv) S^i_b S^j_c
                             + d S^k_b / d yt^c ),

    with T the forward Jacobian (composed with the inverse map) and S the
    Jacobian of the inverse; the second term is the inhomogeneous part that
    makes the object a connection rather than a tensor.
    """
    pmap.require_inverse()
    n = conn.n
    Tbar = pmap.substitute_inverse(pmap.jac_forward())
    S = pmap.jac_inverse()
    Gsub = pmap.substitute_inverse(conn.gamma)
    SS = MUL(bcast(S, "ib", "kbcij"), bcast(S, "jc", "kbcij"))
    terms = MUL(bcast(Gsub, "kij", "kbcij"), SS).reshape((n, n, n, n * n))
    inner = fold(grad(S, n), (ADD, terms))  # [k, b, c], summed over (i, j)
    Gbar = ADD.reduce(MUL(bcast(Tbar, "ak", "abck"), bcast(inner, "kbc", "abck")), axis=-1)
    return Connection(n, Gbar)


def transform_system(sys, pmap, check_points=None):
    """Carry a system to new coordinates: A by the (1,1) tensor rule, the
    connection with its inhomogeneous term.  The map must supply its inverse
    and have a nonsingular Jacobian at the probe points."""
    pmap.require_inverse()
    n = sys.n
    pts = check_points if check_points is not None else sample_points(n, 20)
    jac = TensorField(n, 1, 1, pmap.jac_forward()).evaluate_many(pts)
    if np.min(np.abs(np.linalg.det(jac))) < 1e-12:
        raise ValueError("map Jacobian is singular at a probe point")
    a_new = pushforward(sys.A, pmap)
    conn_new = transform_connection(sys.conn, pmap)
    return DiffusionSystem(n, a_new, conn_new, check=False)
