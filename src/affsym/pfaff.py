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
(U^1..U^k, y^1..y^n), so the compatibility residual

    D_p G_r - D_r G_p,    D_p = d/dy^p + sum_b G^b_p d/dU^b

takes G's derivatives from one forward-mode walk and the chain rule on
numbers; its vanishing is equivalent to path-independent transport.
"""

from __future__ import annotations

import numpy as np

from .expr import ZERO, compile_exprs, const, coord, eval_many_shared, mul, subst
from .geometry import ricci_and_s
from .ode import IntegrationError, solve_ivp
from .tensor import (
    ADD,
    MUL,
    SUB,
    bcast,
    fold,
    partial_differential,
    split_rows,
    sym_matrix_inverse,
)
from .util import as_points, max_report, sample_points

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


class TransportError(IntegrationError):
    """Transport failed (blow-up / step underflow); carries the segment's
    status, t_reached, nfev and last_step."""


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
    initial data within 1e-10 (a nan does not).  ``rhs_values`` and ``restriction_values``
    compile their roots into a Program on their first call and reuse it, so
    ``rhs`` and ``restrictions`` must not change after that.  Each call is
    one run of that Program at one point (``Program.at``).
    """

    def __init__(self, n, k, rhs, p0, u0, restrictions=()):
        self.n = int(n)
        self.k = int(k)
        self.rhs = np.asarray(rhs, dtype=object)
        if self.rhs.shape != (k, n):
            raise ValueError(f"rhs shape {self.rhs.shape} != {(k, n)}")
        self.p0 = as_points(p0, self.n, one=True)
        self.u0 = _initial_data(u0, self.k)
        self.restrictions = list(restrictions)
        self._rhs_program = self._restriction_program = None
        init = self.restriction_values(self.u0, self.p0)
        if init.size and not np.max(np.abs(init)) <= 1e-10:
            raise ValueError(
                f"restrictions violated at the initial data: max {np.max(np.abs(init)):.3e}"
            )

    @staticmethod
    def pack(u, y):
        """The combined-block point (U, y) as one list of Python floats, the
        form a compiled program runs on."""
        return [*map(float, u), *map(float, y)]

    def rhs_values(self, u, y):
        """G(U, y) as a (k, n) array: one run of the compiled right-hand side
        at the point (U, y), bitwise what walking ``rhs`` there gives.  Two
        lists, the form each transport step passes (the integrator's state
        and the path point), are joined as ``u + y``, so both must hold
        Python floats; any other form is converted by ``pack``."""
        if self._rhs_program is None:
            self._rhs_program = compile_exprs(self.rhs.reshape(-1))
        x = u + y if type(u) is list and type(y) is list else self.pack(u, y)
        return self._rhs_program.at(x).reshape(self.k, self.n)

    def restriction_values(self, u, y):
        """Phi(U, y) as an (R,) array, run as ``rhs_values`` runs G."""
        if not self.restrictions:
            return np.zeros(0)
        if self._restriction_program is None:
            self._restriction_program = compile_exprs(self.restrictions)
        return self._restriction_program.at(self.pack(u, y))


def _initial_data(u0, k):
    """u0 as a float array of k finite values; anything else raises
    ValueError naming u0."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (k,):
        raise ValueError("initial data shapes do not match (n, k)")
    if not np.isfinite(u0).all():
        raise ValueError(f"initial data u0 is not finite: {u0.tolist()}")
    return u0


_PATH_DIMENSION = "path must be a polyline of points of dimension n"
_RESTRICTION_TOL = 1e-7  # largest restriction drift transport accepts


def pfaff_integrate(prob, path):
    """Transport U along a polyline of points, returning U at every vertex.

    Each segment integrates dU/dt = sum_i G_i(U, y(t)) dy^i/dt, t in [0, 1],
    with the Dormand-Prince 5(4) pair of ``affsym.ode`` at rtol 1e-9 and
    atol 1e-10.  A segment that leaves |U| <= ode.BLOWUP or whose step
    underflows raises TransportError.  Restrictions are evaluated on the
    segment's dense output at t = 1/6, 2/6, .., 1; drift beyond 1e-7, or
    nan, raises RestrictionDriftError.  A path with no points, or with a
    vertex that is not finite, raises ValueError.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != prob.n:
        raise ValueError(_PATH_DIMENSION)
    if not len(path):
        raise ValueError("path has no points")
    if not np.isfinite(path).all():
        i = int(np.argmin(np.isfinite(path).all(axis=1)))
        raise ValueError(f"path vertex {i} is not finite: {path[i].tolist()}")
    if np.abs(path[0] - prob.p0).max() > 1e-12:
        raise ValueError("path must start at the problem's initial point")
    u = prob.u0
    out = [u.copy()]
    for a, b in zip(path[:-1], path[1:]):
        dy = b - a

        # y(t) = a + t dy entry by entry on Python floats, as numpy rounds it
        def seg_rhs(t, uvec, ady=list(zip(a.tolist(), dy.tolist())), dy=dy):
            return prob.rhs_values(uvec, [ai + t * di for ai, di in ady]).dot(dy)

        sol = solve_ivp(
            seg_rhs,
            (0.0, 1.0),
            u.tolist(),  # integrated on Python floats
            rtol=1e-9,
            atol=1e-10,
            dense_output=bool(prob.restrictions),
        )
        if sol.status == 1:
            raise TransportError(
                f"transport blew up at segment parameter t = {sol.t[-1]:.4g}", sol
            )
        if sol.status != 0:
            raise TransportError(f"transport failed: {sol.message}", sol)
        if prob.restrictions:
            for t in np.linspace(0.0, 1.0, 7)[1:]:
                vals = prob.restriction_values(sol.sol(t), a + t * dy)
                drift = float(np.max(np.abs(vals))) if vals.size else 0.0
                if not drift <= _RESTRICTION_TOL:
                    raise RestrictionDriftError(drift, _RESTRICTION_TOL)
        u = sol.y[:, -1]
        out.append(u.copy())
    return np.asarray(out)


def transport_to(prob, y_end):
    """Straight-segment transport from the initial point; returns U(y_end).
    An end point that is not one point of dimension n raises ValueError."""
    y_end = np.asarray(y_end, float)
    if y_end.shape != (prob.n,):
        raise ValueError(_PATH_DIMENSION)
    return pfaff_integrate(prob, np.array([prob.p0, y_end]))[-1]


def compatibility_residual(prob):
    """Max-norm of the mixed-total-derivative residual at 20 probe points of
    the (U, y) block: y the base sample points ``sample_points(n, 20)``, U
    drawn uniformly from [-0.4, 0.4]^k by ``default_rng(101)``.  The report's
    argmax point is a (U, y) point.  A vanishing residual means the system
    is completely compatible and transport is path-independent.
    """
    n, k = prob.n, prob.k
    y = sample_points(n, 20)
    u = np.random.default_rng(101).uniform(-0.4, 0.4, size=(len(y), k))
    probe = np.concatenate([u, y], axis=1)

    jets = eval_many_shared(prob.rhs.reshape(-1), probe, jets=True)  # unchecked
    g, dg = (split_rows(rows, [prob.rhs])[0] for rows in jets)
    r, p = np.triu_indices(n, 1)
    with np.errstate(all="ignore"):  # unchecked values: an overflow reads inf
        total = _total_derivative(dg, g)  # [P, a, r, p] = D_p G^a_r
        return max_report((total[:, :, r, p] - total[:, :, p, r]).reshape(len(probe), -1), probe)


def _total_derivative(dx, g):
    """D_p X = dX/dy^p + sum_b G^b_p dX/dU^b on numbers, on a new trailing
    axis p, from dx[P, ..., c], X's derivatives by the block's coordinates,
    and g[P, b, p] = G^b_p: the chain terms are added for b = 1..k in turn."""
    k = g.shape[1]
    chain = dx[..., None, :k] * np.swapaxes(g, 1, 2).reshape(len(g), *(1,) * (dx.ndim - 2), -1, k)
    return fold(dx[..., k:], (np.add, chain))


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
    if kind in ("xfields_17_11", "potential_17_23") and u_field is None:
        raise ValueError(f"{kind} needs the covector field u (Exprs over y)")
    n = conn.n if conn is not None else len(u_field)
    p0 = np.zeros(n) if p0 is None else p0
    restrictions = ()

    x = _coords(1, n)  # the unknowns u_j (or X^j) come first in the block
    minus_one = const(-1.0)
    if kind == "symmetry_6":
        k = n * n + n
        G = _symmetry_rhs(conn, k)
    elif kind == "covector_14":
        k = n
        B = _lift(beta.comps if beta is not None else _beta_from_connection(conn), n, k)
        G = _covector_rows(B, _lift(conn.gamma, n, k), x)
    elif kind == "frame_17":
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
    elif kind == "xfields_17_11":
        k = n
        u = _lift(u_field, n, k)
        gam = _lift(conn.gamma, n, k)
        u_dot_x = ADD.reduce(MUL(u, x))
        # G[k, i] = - u_i X^k (- u.X when i = k) - sum_s Gamma^k_is X^s
        G = MUL(minus_one, MUL(bcast(u, "i", "ki"), bcast(x, "k", "ki")))
        np.fill_diagonal(G, SUB(np.diagonal(G), u_dot_x))
        G = fold(G, (SUB, MUL(gam, x)))
    elif kind == "constcurv_22":
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
    else:  # potential_17_23
        k = 1
        G = _lift(u_field, n, k).reshape(1, n)
    u0 = np.zeros(k) if u0 is None else np.asarray(u0, float)
    return PfaffProblem(n, k, G, p0, u0, restrictions)


def _symmetry_rhs(conn, k):
    """The linear system for (F^i_s, eta^i), k = n^2 + n unknowns: the
    block stores F first (F^i_s at i*n+s) and eta after it."""
    n = conn.n
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
    return np.concatenate([fold(ZERO, *parts).reshape(n * n, n), F])
