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
    eval_arrays,
    fold,
    grad,
    pushforward,
    sym_matrix_inverse,
)
from .util import as_points, max_report, sample_points

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
    must be symmetric in (r, s), and is not changed once built: the
    curvature and the Ricci split are kept on the connection
    (``curvature``, ``ricci_and_s``).
    """

    def __init__(self, n, gamma):
        self.field = TensorField(n, 1, 2, gamma)
        self.curv = None  # the curvature tensor, built by curvature() on first use
        self.ricci = None  # ricci_and_s's fields, built on first use

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
        """True when |det A| exceeds 1e-12 at every probe point (``as_points``)."""
        vals = self.A.evaluate_many(pts)
        return bool(np.min(np.abs(np.linalg.det(vals))) > 1e-12)


def scalar_operator(n, a):
    """A = a * identity."""
    return TensorField.identity(n).scale(a)


# ---------------------------------------------------------------------------
# Curvature and contractions
# ---------------------------------------------------------------------------


def curvature(conn):
    """Curvature tensor of the connection, comps[i, s, r, k] = R^i_srk.

    Built on the first call and kept on the connection (``conn.curv``);
    every later call returns that same field."""
    if conn.curv is None:
        G = conn.gamma
        comps = _curvature_comps(G[None], grad(G, conn.n)[None], ADD, SUB, MUL)[0]
        conn.curv = TensorField(conn.n, 1, 3, comps)
    return conn.curv


# The bodies below are the formulas of curvature, ricci_and_s and
# covariant_differential.  Like ``liefn.lie_terms`` they take the
# elementwise add, sub and mul as arguments, and their arrays lead with a
# batch axis p: ADD/SUB/MUL on Expr arrays with p of length 1 build the
# trees, and numpy's add and subtract with a truncated product on Taylor
# coefficients (p running over the coefficients) give the numbers of
# ``symmetry.pointwise_symmetry_bounds``.


def _curvature_comps(G, dG, add, sub, mul):
    """The curvature formula on coefficients G[p, i, r, s] = Gamma^i_rs and
    their derivatives dG[p, i, r, s, k] = d Gamma^i_rs / dy^k, whatever
    derivative produced them; comps[p, i, s, r, k] = R^i_srk."""
    first = sub(bcast(dG, "piksr", "pisrk"), bcast(dG, "pirsk", "pisrk"))
    return _add_quadratic(first, G, add, sub, mul)


def _add_quadratic(total, G, add, sub, mul):
    """total^i_srk + sum_q (G^q_ks G^i_rq - G^q_rs G^i_kq), folded over q in
    that order: the quadratic part of the curvature formula, shared by
    curvature and the deformation identity."""
    up = mul(bcast(G, "pqks", "pisrkq"), bcast(G, "pirq", "pisrkq"))
    down = mul(bcast(G, "pqrs", "pisrkq"), bcast(G, "pikq", "pisrkq"))
    return fold(total, (add, up), (sub, down))


def _ricci_contractions(R, add):
    """R_ij = sum_k R^k_ikj and S_ij = sum_k R^k_kij from R[p, i, s, r, k],
    each summed by ``add.reduce`` (add a ufunc) over k."""
    ric = add.reduce(np.diagonal(R, 0, 1, 3), axis=-1)  # sum_k R^k_ikj
    return ric, add.reduce(np.diagonal(R, 0, 1, 2), axis=-1)  # sum_k R^k_kij


def _nabla_terms(G, w, dw, r, add, sub, mul):
    """nabla W of a field W with r upper slots, the derivative slot first,
    from G[p, i, r, s] = Gamma^i_rs, w[p, slots] and dw[p, slots, k] =
    dW/dy^k: dW/dy^k, then slot by slot + G^c_kq W^{..q..} (upper slot c)
    or - G^q_kc W_{..q..} (lower slot c), each folded over q."""
    slots = string.ascii_uppercase[: w.ndim - 1]  # W's slots, then k and q
    out = "p" + slots + "kq"
    total = dw  # [p, slots, k]
    for a, c in enumerate(slots):
        gq = bcast(G, "p" + c + "kq", out) if a < r else bcast(G, "pqk" + c, out)
        terms = mul(gq, bcast(w, "p" + slots.replace(c, "q"), out))
        total = fold(total, (add if a < r else sub, terms))
    return np.moveaxis(total, -1, r + 1)


def covariant_differential(conn, w):
    """nabla W as a (r, s+1) field with the derivative slot first.

    Contracting a vector Y into the first covariant slot yields nabla_Y W;
    on scalars this is the gradient, and the Leibniz rule over tensor
    products holds componentwise.
    """
    if isinstance(w, Expr):
        w = TensorField.scalar(conn.n, w)
    jet = (conn.gamma, w.comps, grad(w.comps, conn.n))
    comps = _nabla_terms(*(a[None] for a in jet), w.r, ADD, SUB, MUL)[0]
    return TensorField(conn.n, w.r, w.s + 1, comps)


def ricci_and_s(conn):
    """Ricci tensor, the S field, and the symmetric/skew Ricci split, from
    the connection's curvature (``curvature``).

    R_ij = sum_k R^k_ikj and S_ij = sum_k R^k_kij; returns a dict with keys
    ricci, s, ricci_sym, ricci_skew.  Built on the first call and kept on
    the connection (``conn.ricci``); every later call returns that same
    dict, which callers do not change.
    """
    if conn.ricci is None:
        n = conn.n
        ric, sfield = (a[0] for a in _ricci_contractions(curvature(conn).comps[None], ADD))
        half = const(0.5)
        sym = MUL(half, ADD(ric, ric.T))
        skew = MUL(half, SUB(ric, ric.T))
        conn.ricci = {
            "ricci": TensorField(n, 0, 2, ric),
            "s": TensorField(n, 0, 2, sfield),
            "ricci_sym": TensorField(n, 0, 2, sym),
            "ricci_skew": TensorField(n, 0, 2, skew),
        }
    return conn.ricci


def metric_connection(g, pts=None):
    """Christoffel symbols of a symmetric invertible metric field:

    Gamma^k_ij = sum_s g^{ks}/2 (d g_sj/dy^i + d g_is/dy^j - d g_ij/dy^s),

    the unique symmetric connection with nabla g = 0.  g must pass
    ``is_symmetric`` and be nonsingular at the probe points (``as_points``:
    None gives the 20 sample points).
    """
    n = g.n
    pts = as_points(pts, n)
    if g.valence != (0, 2):
        raise ValueError("metric must be a (0,2) field")
    if not g.is_symmetric():
        raise ValueError("metric is not symmetric")
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
    """Max-norm residual of a curvature structure formula at the probe
    points (``as_points``: None gives the 20 sample points).  R and the
    Ricci split come from one unchecked walk (``eval_arrays``).

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
    pts = as_points(pts, n)
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
    parts = ricci_and_s(conn)
    fields = (curvature(conn), parts["ricci_sym"], parts["ricci_skew"])
    Rv, rh, rt = eval_arrays([f.comps for f in fields], pts, checked=False)

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
    and have a nonsingular Jacobian at the probe points (``as_points``)."""
    n = sys.n
    pts = as_points(check_points, n)
    pmap.require_inverse()
    jac = TensorField(n, 1, 1, pmap.jac_forward()).evaluate_many(pts)
    if np.min(np.abs(np.linalg.det(jac))) < 1e-12:
        raise ValueError("map Jacobian is singular at a probe point")
    a_new = pushforward(sys.A, pmap)
    conn_new = transform_connection(sys.conn, pmap)
    return DiffusionSystem(n, a_new, conn_new, check=False)
