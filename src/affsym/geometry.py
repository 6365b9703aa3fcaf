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

Each formula is one body over arrays (see the note above ``_tree``): on
Expr arrays it builds the trees that ``curvature``, ``ricci_and_s`` and
``covariant_differential`` keep or return; on numbers it gives their
values.  The curvature's quadratic part forms only the products whose two
Gamma entries are not ZERO nodes (``_quadratic_plan``, read once per
connection from its trees and kept on it): the trees fold the others
away, and their values would add only zeros.  ``_point_values``, the one
engine for numbers at a document's points, runs the bodies on values and
derivatives from one checked forward-mode walk, made at its first
request and following the names asked for there: Gamma, and the metric,
A and eta where given; the second derivatives of Gamma where nabla Ric is
asked for, and of eta where a determining residual is; and for a name of
the suite (L_eta of R, Ric, S and nabla Ric), the Ric and R trees kept on
the connection, Ric with its second derivatives, from which nabla Ric, S
and their derivatives are formed on first-order duals.  (Nested duals on
Gamma's jets give the same numbers but ran slower at n = 4; forward mode
on the trees keeps their sparsity.)  Its numbers equal the trees' walk in
magnitude to the bit, and are the one path of ``structure_residual``,
``symmetry.classify``, the determining residuals, the invariance suite,
the CLI's report, classify and canonical checks, and the signed values
the CLI's ``curvature`` prints: an exact zero of a body could carry the
other sign than the trees', and the tests compare the two, signs
included, on every fixture and on sample points at 0.0 and -0.0.  A fault
of the walk raises its DomainError naming its node ("non-finite
derivative: sqrt(y1)"), and a checked field whose body overflows raises
ExprError naming the field and the point ("curvature is not finite at y =
[...]").
"""

from __future__ import annotations

import string

import numpy as np

from .expr import ZERO, Expr, ExprError, const
from .liefn import lie_terms
from .tensor import (
    ADD,
    MUL,
    SUB,
    TensorField,
    bcast,
    eval_jets,
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
        self._plan = None  # _quadratic_plan(gamma), built on first use

    @property
    def n(self):
        return self.field.n

    @property
    def gamma(self):
        return self.field.comps

    @property
    def plan(self):
        """``_quadratic_plan`` of gamma: the products of the curvature
        formula's quadratic part that no ZERO coefficient folds away."""
        if self._plan is None:
            self._plan = _quadratic_plan(self.gamma)
        return self._plan

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
        """``_asymmetry`` at the 20 sample points."""
        return _asymmetry(self.evaluate_many(sample_points(self.n, 20)))

    def check_symmetric(self):
        """Raise ValueError when symmetry_residual exceeds 1e-12 or is nan."""
        res = self.symmetry_residual()
        if not res <= 1e-12:
            raise ValueError(f"connection coefficients not symmetric: residual {res:.3e}")


class DiffusionSystem:
    """Geometric data of an evolution system: operator field A of valence
    (1,1) plus a symmetric affine connection on the same chart."""

    def __init__(self, n, a_field, conn, check=True):
        self.n = int(n)
        self.A = a_field
        self.conn = conn
        self.coeff_program = None  # pdesim's compiled right-hand side, built on first use
        self.a_radius = None  # pdesim's max|eig A| of a constant A, taken on first use
        if a_field.valence != (1, 1) or a_field.n != n or conn.n != n:
            raise ValueError("operator field must be (1,1) on the same chart as the connection")
        if check:
            conn.check_symmetric()

    def a_nondegenerate(self, pts):
        """True when A is regular at every probe point (``as_points``), as
        ``_regular`` judges it."""
        return _regular(self.A.evaluate_many(pts))


def _asymmetry(g):
    """max |Gamma^k_rs - Gamma^k_sr| over Gamma's values g[P, k, r, s]: two
    equal entries count 0, and so do two nans (a coefficient undefined at a
    point in both places is symmetric there); nan against a number is nan."""
    gt = g.transpose(0, 1, 3, 2)
    same = (g == gt) | (np.isnan(g) & np.isnan(gt))
    with np.errstate(invalid="ignore"):  # inf - inf where both are inf
        return float(np.max(np.where(same, 0.0, np.abs(g - gt))))


def _ranks(mats, rtol):
    """The rank of each matrix of a stack mats[..., rows, cols]: the number
    of its singular values above rtol times its largest.  The count does not
    depend on the matrix's scale (c * M has M's rank for every c != 0),
    where a determinant's size does, and a determinant beyond the float
    range does not arise."""
    sv = np.linalg.svd(mats, compute_uv=False)
    return np.count_nonzero(sv > rtol * sv[..., :1], axis=-1)


def _regular(mats):
    """True when each matrix mats[p] (n, n) is finite and of rank n at
    relative cutoff 1e-12 (``_ranks``)."""
    return bool(np.isfinite(mats).all() and (_ranks(mats, 1e-12) == mats.shape[-1]).all())


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
        comps = _curvature_comps(G[None], grad(G, conn.n)[None], ADD, SUB, MUL, conn.plan)[0]
        conn.curv = TensorField(conn.n, 1, 3, comps)
    return conn.curv


# The bodies below are the formulas of curvature, ricci_and_s,
# covariant_differential and the determining equations.  Like
# ``liefn.lie_terms`` they take the elementwise add, sub and mul as
# arguments, and their arrays lead with a batch axis p.  ADD/SUB/MUL on Expr
# arrays with p of length 1 build the trees (``_tree``).  numpy's add and
# subtract give numbers: with numpy's multiply on values at points (p the
# points), with ``_dual_mul`` on values and first derivatives (p running
# over (value, d/dy^1..n) x points), and with a truncated product on the
# Taylor coefficients of ``symmetry.pointwise_symmetry_bounds``.  The
# derivatives of a dual's derivatives (those of dGamma/dy for R's, of
# dRic/dy for nabla Ric's) are the second derivatives of the forward-mode
# walk (``eval_jets`` with ``second``), never a tree.  Every sum is a left
# fold (``fold``), never numpy's add.reduce, which sums three or more
# floats pairwise.


def _tree(body, *arrays):
    """A body's trees: the body on Expr arrays with a batch axis of length
    1, under ADD, SUB and MUL."""
    return body(*(a[None] for a in arrays), ADD, SUB, MUL)[0]


def _curvature_comps(G, dG, add, sub, mul, plan):
    """The curvature formula on coefficients G[p, i, r, s] = Gamma^i_rs and
    their derivatives dG[p, i, r, s, k] = d Gamma^i_rs / dy^k, whatever
    derivative produced them; comps[p, i, s, r, k] = R^i_srk.  plan is
    ``_quadratic_plan`` of the Expr array whose values or trees G holds."""
    first = sub(bcast(dG, "piksr", "pisrk"), bcast(dG, "pirsk", "pisrk"))
    return _add_quadratic(first, G, add, sub, mul, plan)


def _quadratic_plan(G):
    """The products of the quadratic part of the curvature formula that
    the trees keep, read from the ZERO entries of the Expr array G[i, r, s]
    = Gamma^i_rs, never from its values: for each q in order, the add
    G^q_ks G^i_rq, then the subtract G^q_rs G^i_kq, as (q, minus, kept)
    with kept None where every (i, s, r, k) has two nonzero factors, else
    the flat (i, s, r, k) entries that do and the flat G entries of their
    factors; a product with no such entry is left out."""
    n = G.shape[-1]
    live = np.array([e is not ZERO for e in G.flat])
    if live.all():  # every product on the whole arrays, without the index arithmetic below
        return [(q, minus, None) for q in range(n) for minus in (0, 1)]
    i, s, r, k = np.unravel_index(np.arange(n**4), (n,) * 4)  # the flat (i, s, r, k) entries
    ks, rs, ir, ik = k * n + s, r * n + s, (i * n + r) * n, (i * n + k) * n
    plan = []
    for q in range(n):
        # the flat G entries of G^q_ks and G^i_rq, then of G^q_rs and G^i_kq
        for minus, (a, b) in enumerate(((q * n * n + ks, ir + q), (q * n * n + rs, ik + q))):
            kept = np.flatnonzero(live[a] & live[b])
            if len(kept):
                plan.append((q, minus, None if len(kept) == len(a) else (kept, a[kept], b[kept])))
    return plan


def _add_quadratic(total, G, add, sub, mul, plan):
    """total^i_srk + sum_q (G^q_ks G^i_rq - G^q_rs G^i_kq), folded over q in
    that order: the quadratic part of the curvature formula, shared by
    curvature and the deformation identity.  Only the products that plan
    (``_quadratic_plan`` of G's Expr array) keeps are formed, on the whole
    arrays where it keeps every entry, else gathered.  A left-out product
    has a ZERO factor: the trees fold it away (x + ZERO*y is x), and on
    finite numbers it is a zero, which the sum skips as the trees do."""
    ks, rq = bcast(G, "pqks", "pisrkq"), bcast(G, "pirq", "pisrkq")
    rs, kq = bcast(G, "pqrs", "pisrkq"), bcast(G, "pikq", "pisrkq")
    g, total = G.reshape(len(G), -1), total.copy()
    for q, minus, kept in plan:  # one q at a time: no array over all q
        op, a, b = (sub, rs, kq) if minus else (add, ks, rq)
        if kept is None:
            total = op(total, mul(a[..., q], b[..., q]))
        else:
            out, ia, ib = kept
            flat = total.reshape(len(total), -1)  # a view: total is contiguous
            flat[:, out] = op(flat[:, out], mul(g[:, ia], g[:, ib]))
    return total


def _sum_last(terms, add):
    """The sum over the trailing axis, folded left to right from its first
    term: the trees of ADD.reduce, and on floats the same order."""
    return fold(terms[..., 0], (add, terms[..., 1:]))


def _ricci_contractions(R, add):
    """R_ij = sum_k R^k_ikj and S_ij = sum_k R^k_kij from R[p, i, s, r, k],
    each folded over k (``_sum_last``)."""
    ric = _sum_last(np.diagonal(R, 0, 1, 3), add)  # sum_k R^k_ikj
    return ric, _sum_last(np.diagonal(R, 0, 1, 2), add)  # sum_k R^k_kij


def _ricci_halves(ric, add, sub, mul, half):
    """The symmetric and skew parts half*(Ric + Ric^T), half*(Ric - Ric^T)
    of ric[..., i, j], half being 0.5 as a constant of the arrays' kind."""
    rt = np.swapaxes(ric, -1, -2)
    return mul(half, add(ric, rt)), mul(half, sub(ric, rt))


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


def _lie_a_terms(a, da, eta, deta, add, sub, mul):
    """L_eta A of the operator field from a[p, i, j] = A^i_j, da[p, i, j, k]
    = dA^i_j/dy^k, eta[p, k] and deta[p, i, k] = d eta^i/dy^k: for each k in
    turn + eta^k dA^i_j/dy^k - A^k_j d eta^i/dy^k + A^i_k d eta^k/dy^j."""
    transport = mul(bcast(eta, "pk", "pijk"), da)
    upper = mul(bcast(a, "pkj", "pijk"), bcast(deta, "pik", "pijk"))
    lower = mul(bcast(a, "pik", "pijk"), bcast(deta, "pkj", "pijk"))
    first = add(sub(transport[..., 0], upper[..., 0]), lower[..., 0])
    return fold(first, (add, transport[..., 1:]), (sub, upper[..., 1:]), (add, lower[..., 1:]))


def _conn_eq_rhs(G, dG, eta, d1, mul):
    """The summands over k of the connection equation's right-hand side on
    the axes [p, i, r, s, k]: dGamma^i_rs/dy^k eta^k, Gamma^i_ks d1^k_r and
    Gamma^i_rk d1^k_s, with d1[p, i, k] = d eta^i/dy^k."""
    return (
        mul(dG, bcast(eta, "pk", "pirsk")),
        mul(bcast(G, "piks", "pirsk"), bcast(d1, "pkr", "pirsk")),
        mul(bcast(G, "pirk", "pirsk"), bcast(d1, "pks", "pirsk")),
    )


def _conn_eq_terms(G, dG, eta, d1, d2, add, sub, mul):
    """Residual of the reduced connection equation (valid for det A != 0),
    with d2[p, i, r, s] = d2 eta^i/dy^r dy^s: sum_k d1^i_k Gamma^k_rs - d2^i_rs,
    then each summand of the right-hand side subtracted, k by k."""
    total = _sum_last(mul(bcast(d1, "pik", "pirsk"), bcast(G, "pkrs", "pirsk")), add)
    total = sub(total, d2)
    return fold(total, *((sub, t) for t in _conn_eq_rhs(G, dG, eta, d1, mul)))


def _conn_eq_full_terms(a, da, G, dG, eta, d1, d2, add, sub, mul):
    """Residual of the full A-weighted connection equation (degenerate A):
    sum_jk (d1^i_k A^k_j - dA^i_j/dy^k eta^k) Gamma^j_rs, then for each j
    - A^i_j d2^j_rs and - A^i_j rhs^j_rs(k) for each k."""
    lhs = sub(mul(bcast(d1, "pik", "pijk"), bcast(a, "pkj", "pijk")), mul(da, bcast(eta, "pk", "pijk")))
    terms = mul(bcast(lhs, "pijk", "pirsjk"), bcast(G, "pjrs", "pirsjk"))
    total = _sum_last(terms.reshape(terms.shape[:4] + (-1,)), add)
    t1, t2, t3 = _conn_eq_rhs(G, dG, eta, d1, mul)
    rhs = add(add(t1, t2), t3)  # [p, j, r, s, k]
    second = mul(bcast(a, "pij", "pirsj"), bcast(d2, "pjrs", "pirsj"))
    per_k = mul(bcast(a, "pij", "pirsjk"), bcast(rhs, "pjrsk", "pirsjk"))
    subtracted = np.concatenate([second[..., None], per_k], axis=-1)
    return fold(total, (sub, subtracted.reshape(subtracted.shape[:4] + (-1,))))


def covariant_differential(conn, w):
    """nabla W as a (r, s+1) field with the derivative slot first.

    Contracting a vector Y into the first covariant slot yields nabla_Y W;
    on scalars this is the gradient, and the Leibniz rule over tensor
    products holds componentwise.
    """
    if isinstance(w, Expr):
        w = TensorField.scalar(conn.n, w)
    body = lambda G, c, dc, *ops: _nabla_terms(G, c, dc, w.r, *ops)
    return TensorField(conn.n, w.r, w.s + 1, _tree(body, conn.gamma, w.comps, grad(w.comps, conn.n)))


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
        sym, skew = _ricci_halves(ric, ADD, SUB, MUL, const(0.5))
        conn.ricci = {
            "ricci": TensorField(n, 0, 2, ric),
            "s": TensorField(n, 0, 2, sfield),
            "ricci_sym": TensorField(n, 0, 2, sym),
            "ricci_skew": TensorField(n, 0, 2, skew),
        }
    return conn.ricci


# ---------------------------------------------------------------------------
# The fields' values at points, from the bodies on jets
# ---------------------------------------------------------------------------


def _field_tree(name, conn, metric=None, A=None, eta=None):
    """The Expr array of a field named as in ``_point_values``: the trees
    kept on conn (``curvature``, ``ricci_and_s``), nabla by
    ``covariant_differential``, or a determining residual's trees."""
    n, G = conn.n, conn.gamma
    if name == "curvature":
        return curvature(conn).comps
    if name in ("ricci", "s", "ricci_sym", "ricci_skew"):
        return ricci_and_s(conn)[name].comps
    if name == "nabla_ricci":
        return covariant_differential(conn, ricci_and_s(conn)["ricci"]).comps
    if name == "nabla_metric":
        return covariant_differential(conn, metric).comps
    if name in ("metric", "A"):
        return (metric if name == "metric" else A).comps
    # the derivative trees are built in the order the formulas use them
    # (d2 eta before dGamma in the reduced equation), which decides the
    # error where two of them cannot be built
    d1 = grad(eta.comps, n)
    if name == "lie_a":
        return _tree(_lie_a_terms, A.comps, grad(A.comps, n), eta.comps, d1)
    if name == "conn_eq":
        d2 = grad(d1, n)
        return _tree(_conn_eq_terms, G, grad(G, n), eta.comps, d1, d2)
    jet = (A.comps, grad(A.comps, n), G, grad(G, n), eta.comps, d1, grad(d1, n))
    return _tree(_conn_eq_full_terms, *jet)


def _dual(v, d):
    """Values v[P, ...] and their derivatives d[P, ..., n] as one array
    whose batch axis runs over (value, d/dy^1..n) x points."""
    return np.concatenate([v[None], np.moveaxis(d, -1, 0)]).reshape((-1,) + v.shape[1:])


def _undual(x, n):
    """The values x[P, ...] and derivatives [P, ..., n] of an order-1 jet
    laid out as the value, then d/dy^1..n: a ``_dual`` array, or a Taylor
    polynomial's first n + 1 coefficients (P = 1)."""
    x = x.reshape((n + 1, -1) + x.shape[1:])
    return x[0], np.moveaxis(x[1:], 0, -1)


def _dual_mul(n):
    """The product of ``_dual`` arrays, or of Taylor polynomials of order 1
    (``_undual``), as _diff_node takes the derivative of a product a*b:
    d(a*b) = (da*b) + (a*db)."""

    def mul(x, y):
        x = x.reshape((n + 1, -1) + x.shape[1:])
        y = y.reshape((n + 1, -1) + y.shape[1:])
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
        np.multiply(x[0], y[0], out=out[0])
        np.multiply(x[1:], y[0], out=out[1:])
        out[1:] += x[0] * y[1:]
        return out.reshape((-1,) + out.shape[2:])

    return mul


SUITE = ("lie_curvature", "lie_ricci", "lie_s", "lie_nabla_ricci")
DETERMINING = ("lie_a", "conn_eq", "conn_eq_full")


def _point_values(conn, pts, *, metric=None, A=None, eta=None):
    """The values of fields of a connection at checked points pts (P, n),
    equal to the walk of their trees in magnitude, to the bit, from the
    bodies above on numbers; returns ``values(names, unchecked=())``, the
    list of the named fields' values, (P,) + the field's shape, checked
    names first.

    The names are ``ricci_and_s``' keys and "curvature"; "nabla_ricci" and
    "nabla_metric", by ``covariant_differential``; "metric" and "A"
    themselves; with eta, the determining residuals "lie_a" (L_eta A),
    "conn_eq" (the reduced connection equation, -L_eta Gamma) and
    "conn_eq_full" (A-weighted), and the invariance suite ``SUITE``.

    The first request makes the one checked walk (``eval_jets``) of what
    its names need (see the module docstring; Ric and R walk first and
    last), and later requests read it: a later name that needs jets it did
    not take raises ValueError ("... name it at the first request").  Its
    second derivatives are bitwise those of the grad trees, and it raises
    its ExprError where a value or derivative is not finite.  The bodies
    run on those with numpy's add and subtract, on ``_dual_mul``'s duals
    where a derivative of R, Ric, nabla Ric or S is needed.  Grouped as
    the trees are, each number is the trees' value: the smart constructors
    drop only identity operations (x*0, x*1, x+0, 0-x, -(-x)) and fold
    constants in the same floats, so the two differ at most in the sign of
    an exact zero.  The bodies only add, subtract and multiply finite
    numbers, so a checked name that is not finite overflowed, and raises
    ExprError naming it and its first such point ("curvature is not finite
    at y = [...]"); the first checked suite name checks the jets of
    nabla_ricci, then of s, before itself.  Unchecked names keep their
    IEEE values."""
    n = conn.n
    ops = (np.add, np.subtract, np.multiply)
    jets, memo = {}, {}  # jets: root -> (values, first derivatives[, second derivatives])

    def needs(asked):
        """The roots a walk for the names asked takes (see the module
        docstring), each with whether its second derivatives too."""
        suite = not set(SUITE).isdisjoint(asked)
        roots = {"ricci": suite, "gamma": True, "eta": eta is not None, "curvature": suite}
        roots.update(metric=metric is not None, A=A is not None)
        twice = {"ricci": suite, "gamma": "nabla_ricci" in asked, "eta": bool(set(DETERMINING) & set(asked))}
        return {k: twice.get(k, False) for k, walked in roots.items() if walked}

    def walk(asked):
        need = needs(asked)
        keys = sorted(need, key=lambda k: not need[k])  # those with second derivatives first
        roots = {"gamma": conn.field, "eta": eta, "metric": metric, "A": A}
        if "ricci" in need:
            roots.update(ricci=ricci_and_s(conn)["ricci"], curvature=curvature(conn))
        jets.update(zip(keys, eval_jets([roots[k].comps for k in keys], pts, second=sum(need.values()))))

    def ricci():  # Ric and S, as _dual arrays with their derivatives where Gamma's second ones were walked
        if "ricci" not in memo:
            g, dg, *ddg = jets["gamma"]
            jet = (_dual(g, dg), _dual(dg, *ddg), np.add, np.subtract, _dual_mul(n)) if ddg else (g, dg, *ops)
            R = _curvature_comps(*jet, conn.plan)
            memo["curvature"] = R[: len(pts)]
            memo["ricci"], memo["s"] = _ricci_contractions(R, np.add)
        return memo["ricci"]

    def lies():  # the suite, and the jets of nabla Ric and S that a checked suite name checks
        if "lies" not in memo:
            (ric, dric, ddric), (r, dr) = jets["ricci"], jets["curvature"]
            (g, dg, *_), (e, de, *_) = jets["gamma"], jets["eta"]
            duals = _dual(g, dg), _dual(ric, dric), _dual(dric, ddric)
            nabla = _undual(_nabla_terms(*duals, 0, np.add, np.subtract, _dual_mul(n)), n)
            s = _undual(_ricci_contractions(_dual(r, dr), np.add)[1], n)
            memo["checked"] = ("nabla_ricci", nabla), ("s", s)
            w = ((r, dr, 1), (ric, dric, 0), (*s, 0), (*nabla, 0))  # W, dW/dy, W's upper slots
            memo["lies"] = dict(zip(SUITE, (lie_terms(v, dv, e, de, upper) for v, dv, upper in w)))
        return memo["lies"]

    def number(name):
        g, dg, *_ = jets["gamma"]
        if name in SUITE:
            return lies()[name]
        if name in ("curvature", "ricci", "s"):
            ricci()
            return memo[name][: len(pts)]
        if name in ("ricci_sym", "ricci_skew"):
            return _ricci_halves(ricci()[: len(pts)], *ops, 0.5)[name == "ricci_skew"]
        if name == "nabla_ricci":
            return _nabla_terms(g, *_undual(ricci(), n), 0, *ops)
        if name == "nabla_metric":
            return _nabla_terms(g, *jets["metric"], 0, *ops)
        if name in ("metric", "A"):
            return jets[name][0]
        a, da = jets.get("A", (None, None))
        e, de, dde = jets["eta"]
        if name == "lie_a":
            return _lie_a_terms(a, da, e, de, *ops)
        if name == "conn_eq":
            return _conn_eq_terms(g, dg, e, de, dde, *ops)
        return _conn_eq_full_terms(a, da, g, dg, e, de, dde, *ops)

    def values(names, unchecked=()):
        asked = (*names, *unchecked)
        if not jets:
            walk(asked)
        else:  # a later request reads the first one's walk: each name's jets must be in it
            for name in asked:
                if any(len(jets.get(k, ())) < 2 + t for k, t in needs((name,)).items()):
                    msg = "needs jets the first walk did not take: name it at the first request"
                    raise ValueError(f"{name} {msg}")
        with np.errstate(all="ignore"):
            out = [number(x) for x in asked]
        for name, v in zip(names, out):  # the suite's jets are checked once, before its first checked name
            checks = memo.pop("checked", ()) if name in SUITE else ()
            for field, arrays in (*checks, (name, (v,))):
                _require_finite(field, pts, *arrays)
        return out

    return values


def _at(p):
    """A point as error lines name it: y = [p1, p2, ...]."""
    return "y = [" + ", ".join(f"{v:.6g}" for v in p) + "]"


def _require_finite(name, pts, *arrays):
    """Raise ExprError naming the field ``name`` and the first of the
    points pts (P, n) where an entry of an array (P, ...) is not finite."""
    if all(np.isfinite(a).all() for a in arrays):
        return
    finite = np.logical_and.reduce([np.isfinite(a.reshape(len(pts), -1)).all(axis=1) for a in arrays])
    raise ExprError(f"{name} is not finite at {_at(pts[np.argmin(finite)])}")


def metric_connection(g, pts=None):
    """Christoffel symbols of a symmetric invertible metric field:

    Gamma^k_ij = sum_s g^{ks}/2 (d g_sj/dy^i + d g_is/dy^j - d g_ij/dy^s),

    the unique symmetric connection with nabla g = 0.  g must pass
    ``is_symmetric`` and be regular (``_regular``) at the probe points
    (``as_points``: None gives the 20 sample points).
    """
    n = g.n
    pts = as_points(pts, n)
    if g.valence != (0, 2):
        raise ValueError("metric must be a (0,2) field")
    if not g.is_symmetric():
        raise ValueError("metric is not symmetric")
    if not _regular(g.evaluate_many(pts)):
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
    Ricci split come from the checked walk of Gamma (``_point_values``):
    a probe point where Gamma or its first derivatives are not finite
    raises DomainError naming the node; R and the Ricci split themselves
    are unchecked, so a product that overflows reads inf.

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
    pts = as_points(pts, conn.n)
    _check_form(form, conn.n)
    fields = ("curvature", "ricci_sym", "ricci_skew")
    return _structure_report(form, *_point_values(conn, pts)((), fields), pts)


def _check_form(form, n):
    """Raise ValueError unless ``form`` is a structure form that applies
    at dimension n."""
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


def _structure_report(form, Rv, rh, rt, pts):
    """structure_residual's report from the values of R, Ricci_sym and
    Ricci_skew at the points, for a form that applies at their n
    (``_check_form``)."""
    n = rh.shape[-1]

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
    connection with its inhomogeneous term.  The map must have a
    nonsingular Jacobian at the probe points (``as_points``): at each
    point its smallest singular value must exceed 1e-12 times its largest
    (``_regular``), a test that does not depend on the map's scale (y ->
    c*y passes for every c != 0), where a determinant's size does.  The
    Jacobian is evaluated checked: an entry that is not finite at a probe
    point raises DomainError naming its node."""
    n = sys.n
    pts = as_points(check_points, n)
    jac = TensorField(n, 1, 1, pmap.jac_forward()).evaluate(pts)
    if not _regular(jac):
        raise ValueError("map Jacobian is singular at a probe point")
    a_new = pushforward(sys.A, pmap)
    conn_new = transform_connection(sys.conn, pmap)
    return DiffusionSystem(n, a_new, conn_new, check=False)
