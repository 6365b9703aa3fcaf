"""Complete systems of Pfaff equations: transport along polylines,
compatibility checking, and the named instances used by the structure
theory.

A problem is a first-order total-derivative system dU/dy^i = G_i(U, y) for k
unknown functions on an n-dimensional base, with optional algebraic
restrictions Phi(U, y) = 0.  Transport reduces each polyline segment to an
ODE in the segment parameter.  Restrictions are monitored, not projected:
the theory asserts exact preservation, so drift beyond tolerance flags an
incompatible or mis-specified system rather than being repaired.

Right-hand sides are stored symbolically over the combined variable block
(U^1..U^k, y^1..y^n) so the compatibility residual

    D_p G_r - D_r G_p,    D_p = d/dy^p + sum_b G^b_p d/dU^b

uses exact differentiation in y and an exact chain rule through U; its
vanishing is equivalent to path-independent transport.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .expr import (
    ZERO,
    add,
    compile_exprs,
    const,
    coord,
    diff_expr,
    eval_many_shared,
    mul,
    sub,
    subst,
)
from .tensor import (
    ADD,
    MUL,
    SUB,
    bcast,
    fold,
    partial_differential,
    sym_matrix_inverse,
)
from .util import max_report, sample_points

__all__ = [
    "PfaffProblem",
    "RestrictionDriftError",
    "TransportError",
    "pfaff_integrate",
    "transport_to",
    "compatibility_residual",
    "named_system",
    "NAMED_KINDS",
]

NAMED_KINDS = (
    "symmetry_6",
    "covector_14",
    "frame_17",
    "xfields_17_11",
    "constcurv_22",
    "potential_17_23",
)


class TransportError(RuntimeError):
    """Transport failed (blow-up / step underflow)."""


class RestrictionDriftError(RuntimeError):
    """An algebraic restriction drifted beyond tolerance during transport."""

    def __init__(self, drift, tol):
        super().__init__(
            f"restriction drift {drift:.3e} exceeds {tol:.1e}; "
            "the system is incompatible or mis-specified"
        )
        self.drift = drift


class PfaffProblem:
    """dU^a/dy^i = G^a_i(U, y) with initial data and optional restrictions.

    rhs is a (k, n) object array of Exprs over the combined block: coordinate
    indices 1..k refer to U, k+1..k+n to y.  Restrictions must hold at the
    initial data within 1e-10.  ``rhs_values`` and ``restriction_values``
    compile their roots into a Program on their first call and reuse it, so
    ``rhs`` and ``restrictions`` must not change after that.
    """

    def __init__(self, n, k, rhs, p0, u0, restrictions=(), labels=None):
        self.n = int(n)
        self.k = int(k)
        self.rhs = np.asarray(rhs, dtype=object)
        if self.rhs.shape != (k, n):
            raise ValueError(f"rhs shape {self.rhs.shape} != {(k, n)}")
        self.p0 = np.asarray(p0, dtype=float)
        self.u0 = np.asarray(u0, dtype=float)
        if self.p0.shape != (n,) or self.u0.shape != (k,):
            raise ValueError("initial data shapes do not match (n, k)")
        self.restrictions = list(restrictions)
        self.labels = labels or [f"U{a + 1}" for a in range(k)]
        self._rhs_program = self._restriction_program = None
        init = self.restriction_values(self.u0, self.p0)
        if init.size and np.max(np.abs(init)) > 1e-10:
            raise ValueError(
                f"restrictions violated at the initial data: max {np.max(np.abs(init)):.3e}"
            )

    def pack(self, u, y):
        return np.concatenate([np.asarray(u, float), np.asarray(y, float)])

    def rhs_values(self, u, y):
        if self._rhs_program is None:
            self._rhs_program = compile_exprs(self.rhs.reshape(-1))
        vals = eval_many_shared(self._rhs_program, self.pack(u, y))
        return vals.reshape(self.k, self.n)

    def restriction_values(self, u, y):
        if not self.restrictions:
            return np.zeros(0)
        if self._restriction_program is None:
            self._restriction_program = compile_exprs(self.restrictions)
        return eval_many_shared(self._restriction_program, self.pack(u, y)).reshape(-1)


def pfaff_integrate(
    prob,
    path,
    rtol=1e-9,
    atol=1e-10,
    restriction_tol=1e-7,
    check_nodes=5,
):
    """Transport U along a polyline of points, returning U at every vertex.

    Each segment integrates dU/dt = sum_i G_i(U, y(t)) dy^i/dt with an
    embedded adaptive Runge-Kutta pair.  Restrictions are evaluated at
    check_nodes interior nodes per segment; drift beyond restriction_tol
    raises RestrictionDriftError.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != prob.n:
        raise ValueError("path must be a polyline of points of dimension n")
    if np.max(np.abs(path[0] - prob.p0)) > 1e-12:
        raise ValueError("path must start at the problem's initial point")
    u = prob.u0.copy()
    out = [u.copy()]
    for a, b in zip(path[:-1], path[1:]):
        dy = b - a

        def seg_rhs(t, uvec, a=a, dy=dy):
            g = prob.rhs_values(uvec, a + t * dy)
            return g @ dy

        def too_big(t, uvec):
            return float(np.max(np.abs(uvec)) - 1e8)

        too_big.terminal = True
        sol = solve_ivp(
            seg_rhs,
            (0.0, 1.0),
            u,
            method="RK45",
            rtol=rtol,
            atol=atol,
            dense_output=bool(prob.restrictions),
            events=too_big,
        )
        if sol.status == 1:
            raise TransportError(
                f"transport blew up at segment parameter t = {sol.t[-1]:.4g}"
            )
        if sol.status != 0:
            raise TransportError(f"transport failed: {sol.message}")
        if prob.restrictions:
            for t in np.linspace(0.0, 1.0, check_nodes + 2)[1:]:
                vals = prob.restriction_values(sol.sol(t), a + t * dy)
                drift = float(np.max(np.abs(vals))) if vals.size else 0.0
                if drift > restriction_tol:
                    raise RestrictionDriftError(drift, restriction_tol)
        u = sol.y[:, -1]
        out.append(u.copy())
    return np.asarray(out)


def transport_to(prob, y_end, **kw):
    """Straight-segment transport from the initial point; returns U(y_end)."""
    return pfaff_integrate(prob, np.stack([prob.p0, np.asarray(y_end, float)]), **kw)[-1]


def compatibility_residual(prob, probe=None, seed=None):
    """Max-norm of the mixed-total-derivative residual over probe points.

    Probe points may live in the full (U, y) block (dimension k+n) or in the
    base alone (dimension n), in which case U values are drawn from the
    sample box with a fixed seed.  A vanishing residual means the system is
    completely compatible and transport is path-independent.
    """
    n, k = prob.n, prob.k
    if probe is None:
        probe = sample_points(n, 20, seed=seed)
    probe = np.asarray(probe, dtype=float)
    if probe.ndim == 1:
        probe = probe[None, :]
    if probe.shape[1] == n:
        rng = np.random.default_rng(101 if seed is None else seed)
        uvals = rng.uniform(-0.4, 0.4, size=(len(probe), k))
        probe = np.concatenate([uvals, probe], axis=1)
    elif probe.shape[1] != k + n:
        raise ValueError("probe points must have dimension n or k+n")

    residual_exprs = []
    for a in range(k):
        for r in range(n):
            for p in range(r + 1, n):
                residual_exprs.append(_total_diff(prob, a, r, p))
    if not residual_exprs:  # n = 1: no mixed pairs
        return max_report(np.empty((len(probe), 0)), probe)
    return max_report(np.stack(eval_many_shared(residual_exprs, probe), axis=-1), probe)


def _total_diff(prob, a, r, p):
    """D_p G^a_r - D_r G^a_p with the system's own rhs substituted for dU."""
    k = prob.k

    def total(e, i):
        out = diff_expr(e, k + i + 1)  # plain d/dy^i
        for b in range(k):
            out = add(out, mul(diff_expr(e, b + 1), prob.rhs[b, i]))
        return out

    return sub(total(prob.rhs[a, r], p), total(prob.rhs[a, p], r))


# ---------------------------------------------------------------------------
# Named systems
# ---------------------------------------------------------------------------


def _lift(arr, n, k):
    """Embed an array of Exprs over y (dimension n) into the (U, y) block,
    where y^i is coordinate k + i; one substitution covers the whole array,
    so subtrees shared across its entries stay shared."""
    return subst(np.asarray(arr, dtype=object), {i: coord(k + i) for i in range(1, n + 1)})


def _beta_from_connection(conn):
    """beta = sym(Ricci)/(n-1) - skew(Ricci)/(n+1), the covector-equation
    source extracted from the Ricci split."""
    from .geometry import ricci_and_s

    n = conn.n
    parts = ricci_and_s(conn)
    rh, rt = parts["ricci_sym"].comps, parts["ricci_skew"].comps
    return SUB(MUL(const(1.0 / (n - 1)), rh), MUL(const(1.0 / (n + 1)), rt))


def _coords(first, count):
    """The coordinates y^first .. y^(first+count-1) of the combined block."""
    return np.frompyfunc(coord, 1, 1)(np.arange(first, first + count).astype(object))


def _covector_rows(B, gam, u):
    """G[j, i] = B_ij + u_i u_j + sum_s Gamma^s_ij u_s (the covector equation),
    with u the block's first n coordinates."""
    first = ADD(B.T, MUL(bcast(u, "i", "ji"), bcast(u, "j", "ji")))
    return fold(first, (ADD, MUL(bcast(gam, "sij", "jis"), u)))


def named_system(kind, conn=None, beta=None, g=None, u_field=None, p0=None, u0=None):
    """Assemble one of the named Pfaff problems on a given geometry.

    kind selects the unknown block and right-hand side; the geometry must
    supply every field the rhs references (conn throughout; beta defaults to
    the Ricci extraction; g for the constant-curvature system; u_field, a
    sequence of Exprs over y, for the x-field and potential systems).
    Initial data defaults to the origin with zero U.
    """
    if kind not in NAMED_KINDS:
        raise ValueError(f"unknown Pfaff system kind {kind!r}; pick one of {NAMED_KINDS}")
    if kind != "potential_17_23" and conn is None:
        raise ValueError(f"{kind} needs a connection")
    n = conn.n if conn is not None else len(u_field)
    p0 = np.zeros(n) if p0 is None else np.asarray(p0, float)

    if kind == "symmetry_6":
        return _symmetry_system(conn, p0, u0)

    x = _coords(1, n)  # the unknowns u_j (or X^j) come first in the block
    minus_one = const(-1.0)
    if kind == "covector_14":
        k = n
        B = _lift(beta.comps if beta is not None else _beta_from_connection(conn), n, k)
        G = _covector_rows(B, _lift(conn.gamma, n, k), x)
        u0 = np.zeros(k) if u0 is None else np.asarray(u0, float)
        return PfaffProblem(n, k, G, p0, u0, labels=[f"u{j + 1}" for j in range(n)])

    if kind == "frame_17":
        k = 2 * n
        B = _lift(beta.comps if beta is not None else _beta_from_connection(conn), n, k)
        gam = _lift(conn.gamma, n, k)
        xi = _coords(n + 1, n)
        # xi^k rows: - u_i xi^k - sum_s Gamma^k_is xi^s
        first = MUL(minus_one, MUL(bcast(x, "i", "ki"), bcast(xi, "k", "ki")))
        xi_rows = fold(first, (SUB, MUL(gam, xi)))
        G = np.concatenate([_covector_rows(B, gam, x), xi_rows])
        # sym(beta)_ir xi^r = 0 for each i, then u_r xi^r = 0
        bsym = MUL(const(0.5), ADD(B, B.T))
        restrictions = list(ADD.reduce(MUL(bsym, xi), axis=-1))
        restrictions.append(ADD.reduce(MUL(x, xi)))
        u0 = np.zeros(k) if u0 is None else np.asarray(u0, float)
        labels = [f"u{j + 1}" for j in range(n)] + [f"xi{j + 1}" for j in range(n)]
        return PfaffProblem(n, k, G, p0, u0, restrictions=restrictions, labels=labels)

    if kind == "xfields_17_11":
        if u_field is None:
            raise ValueError("xfields_17_11 needs the covector field u (Exprs over y)")
        k = n
        u = _lift(u_field, n, k)
        gam = _lift(conn.gamma, n, k)
        u_dot_x = ADD.reduce(MUL(u, x))
        # G[k, i] = - u_i X^k (- u.X when i = k) - sum_s Gamma^k_is X^s
        G = MUL(minus_one, MUL(bcast(u, "i", "ki"), bcast(x, "k", "ki")))
        np.fill_diagonal(G, SUB(np.diagonal(G), u_dot_x))
        G = fold(G, (SUB, MUL(gam, x)))
        u0 = np.zeros(k) if u0 is None else np.asarray(u0, float)
        return PfaffProblem(n, k, G, p0, u0, labels=[f"X{j + 1}" for j in range(n)])

    if kind == "constcurv_22":
        if g is None:
            raise ValueError("constcurv_22 needs the metric g")
        k = n
        ginv = _lift(sym_matrix_inverse(g.comps), n, k)
        gl = _lift(g.comps, n, k)
        gam = _lift(conn.gamma, n, k)
        # |u|^2 = sum g^{rs} u_r u_s, lifted
        norm2 = ADD.reduce(MUL(ginv, MUL(bcast(x, "r", "rs"), x)).reshape(-1))
        # G[j, i] = - u_i u_j - g_ij/(2(n-1)) + |u|^2 g_ij / 2 + sum_s Gamma^s_ij u_s
        G = MUL(minus_one, MUL(bcast(x, "i", "ji"), bcast(x, "j", "ji")))
        G = SUB(G, MUL(const(1.0 / (2 * (n - 1))), gl.T))
        G = ADD(G, MUL(mul(const(0.5), norm2), gl.T))
        G = fold(G, (ADD, MUL(bcast(gam, "sij", "jis"), x)))
        u0 = np.zeros(k) if u0 is None else np.asarray(u0, float)
        return PfaffProblem(n, k, G, p0, u0, labels=[f"u{j + 1}" for j in range(n)])

    # potential_17_23
    if u_field is None:
        raise ValueError("potential_17_23 needs the covector field u (Exprs over y)")
    k = 1
    G = _lift(u_field, n, k).reshape(1, n)
    u0 = np.zeros(1) if u0 is None else np.asarray(u0, float)
    return PfaffProblem(n, 1, G, p0, u0, labels=["psi"])


def _symmetry_system(conn, p0, u0):
    """The linear system for (F^i_s, eta^i): the unknown block stores F
    first (F^i_s at i*n+s) and eta after it."""
    n = conn.n
    k = n * n + n
    F = _coords(1, n * n).reshape(n, n)
    eta = _coords(n * n + 1, n)
    gam = _lift(conn.gamma, n, k)
    dgam = _lift(partial_differential(conn.field).comps, n, k)  # [i, kk, r, s]
    # rows (i, s), column r, summed over k
    parts = (
        (ADD, MUL(bcast(gam, "krs", "isrk"), bcast(F, "ik", "isrk"))),
        (SUB, MUL(bcast(dgam, "ikrs", "isrk"), eta)),
        (SUB, MUL(bcast(gam, "iks", "isrk"), bcast(F, "kr", "isrk"))),
        (SUB, MUL(bcast(gam, "irk", "isrk"), bcast(F, "ks", "isrk"))),
    )
    G = np.concatenate([fold(ZERO, *parts).reshape(n * n, n), F])
    u0 = np.zeros(k) if u0 is None else np.asarray(u0, float)
    labels = [f"F{i + 1}_{s + 1}" for i in range(n) for s in range(n)] + [
        f"eta{i + 1}" for i in range(n)
    ]
    return PfaffProblem(n, k, G, p0, u0, labels=labels)
