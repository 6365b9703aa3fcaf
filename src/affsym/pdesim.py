"""Method-of-lines integrator for generalized diffusion systems on a
periodic interval, residual evaluation, symmetry solution-transport checks,
and the spin-chain example on the sphere.

The right-hand side F^i = A^i_j (u_xx^j + Gamma^j_rs u_x^r u_x^s) is one
expression over y1..y3n = (u, u_x, u_xx), compiled once per system and fed
2nd-order central differences; classic fixed-step RK4 in time, periodic
wrap throughout.  The integrator keeps its data in rows, one contiguous
row of N values per component: the RK4 state is an (N, n) view of (n, N)
storage, and each right-hand side call fills one (3n, N + 2) block whose
first n rows hold u between two ghost columns (the periodic wrap), so the
stencils read shifted slices of those rows and write u_x and u_xx into the
rows below; the compiled program reads the block's N interior columns.
Snapshots are stored C-ordered, (N, n), whatever the state's layout.
Correctness anchors are external: the heat kernel for the decoupled case,
Richardson refinement for the residual order, and for the spin chain the
embedding equation S_t = S x S_xx itself (the stereographic coefficients are
never trusted by fiat).
"""

from __future__ import annotations

import warnings

import numpy as np

from .expr import compile_exprs, eval_many_shared
from .geometry import Connection, DiffusionSystem
from .ode import IntegrationError, solve_ivp
from .pfaff import _coords
from .symmetry import is_symmetry
from .tensor import ADD, MUL, TensorField, bcast

__all__ = [
    "SolutionGrid",
    "make_grid",
    "evolve",
    "evolve_snapshots",
    "pde_residual",
    "symmetry_transport_check",
    "transport_convergence",
    "heisenberg_system",
    "stereo_to_sphere",
    "sphere_to_stereo",
    "heisenberg_embedding_residual",
    "stability_limit",
    "dump_csv",
]


class SolutionGrid:
    """Periodic grid snapshot: N points on [0, L), values (N, n) at time t."""

    def __init__(self, N, L, t, values):
        self.N = int(N)
        self.L = float(L)
        self.t = float(t)
        # C-ordered whatever the caller's layout, so reductions over the
        # grid (values.mean(axis=0)) sum in one fixed order
        self.values = np.ascontiguousarray(values, dtype=float)
        if self.N < 8:
            raise ValueError("grid needs at least 8 points")
        if self.values.shape[0] != self.N or self.values.ndim != 2:
            raise ValueError("values must have shape (N, n)")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def n(self):
        return self.values.shape[1]

    @property
    def x(self):
        return np.arange(self.N) * (self.L / self.N)

    @property
    def dx(self):
        return self.L / self.N

    def copy(self, t=None, values=None):
        return SolutionGrid(
            self.N,
            self.L,
            self.t if t is None else t,
            self.values.copy() if values is None else values,
        )


def make_grid(profiles, N, L):
    """Sample callables x -> value (one per component) on the periodic grid
    at t = 0."""
    x = np.arange(N) * (L / N)
    vals = np.stack([np.asarray(p(x), dtype=float) for p in profiles], axis=-1)
    return SolutionGrid(N, L, 0.0, vals)


def _coeff_evaluators(sys):
    """Callable mapping the row block (3n, N) = (u, u_x, u_xx), one grid
    row per coordinate y1..y3n (the interior columns of _rhs's ghost-padded
    block), to the right-hand side F (N, n).  F is compiled into one
    Program on first use and kept on the system, so every evolve and
    residual of one system runs the same code.  The block goes in as the
    (N, 3n) points the Program takes, its transpose, which Program.run
    transposes back: the generated code reads contiguous rows."""
    if sys.coeff_program is None:
        n = sys.n
        d1, d2 = _coords(n + 1, n), _coords(2 * n + 1, n)
        # Gamma^j_rs u_x^r u_x^s summed with r outer and s inner, then
        # A^i_j (u_xx^j + that sum) summed over j
        quad = MUL(MUL(sys.conn.gamma, bcast(d1, "r", "jrs")), d1)
        inner = ADD(d2, ADD.reduce(quad.reshape(n, n * n), axis=-1))
        sys.coeff_program = compile_exprs(ADD.reduce(MUL(sys.A.comps, inner), axis=-1))
    program = sys.coeff_program

    def rhs(rows):
        return eval_many_shared(program, rows.T).T

    return rhs


def _wrap(block, u):
    """Write the rows u (m, N) into block (m, N + 2) between one ghost
    column on each side, each a copy of the opposite end (the periodic
    wrap); returns the shifted views (up, u, dn) of u_{k+1}, u_k, u_{k-1}."""
    block[:, 1:-1] = u
    block[:, 0] = u[:, -1]
    block[:, -1] = u[:, 0]
    return block[:, 2:], block[:, 1:-1], block[:, :-2]


def _rhs(coeffs, values, dx):
    """F (N, n) at the grid values (N, n): central differences of the
    ghost-padded rows of u, written into the rows below them, fed to coeffs."""
    N, n = values.shape
    block = np.empty((3 * n, N + 2))
    up, u, dn = _wrap(block[:n], values.T)
    # (up - dn) / (2 dx) and ((up - 2 u) + dn) / dx^2, operation by operation
    d1 = np.subtract(up, dn, out=block[n : 2 * n, 1:-1])
    np.divide(d1, 2.0 * dx, out=d1)
    d2 = np.multiply(2.0, u, out=block[2 * n :, 1:-1])
    np.subtract(up, d2, out=d2)
    np.add(d2, dn, out=d2)
    np.divide(d2, dx**2, out=d2)
    return coeffs(block[:, 1:-1])


def stability_limit(sys, grid):
    """Explicit-step heuristic 0.4 dx^2 / max|eig A| on the current values.

    An A whose components are all constant nodes is the same matrix at every
    point, with the same eigenvalues from LAPACK at each, so it is evaluated
    at the first point only; any other A at every point."""
    pts = grid.values
    if all(c.op == "const" for c in sys.A.comps.flat):
        pts = pts[:1]
    eigs = np.linalg.eigvals(sys.A.evaluate_many(pts))
    lam = float(np.max(np.abs(eigs)))
    if lam == 0.0:
        return np.inf
    return 0.4 * grid.dx**2 / lam


def evolve(sys, grid, dt, steps):
    """The grid advanced by RK4 with fixed step dt: evolve_snapshots' last
    snapshot."""
    return evolve_snapshots(sys, grid, dt, steps, max(1, steps))[-1]


def evolve_snapshots(sys, grid, dt, steps, every):
    """Advance the grid by RK4 with fixed step dt, keeping the initial grid,
    a snapshot every ``every`` (at least 1) steps and the final state.

    Violating the explicit-stability heuristic warns (not an error);
    non-finite values abort with the step index, counted from the start.
    """
    if sys.n != grid.n:
        raise ValueError("system and grid dimensions differ")
    if every < 1:
        raise ValueError(f"every must be at least 1, got {every!r}")
    coeffs = _coeff_evaluators(sys)
    limit = stability_limit(sys, grid)
    if dt > limit:
        warnings.warn(
            f"time step {dt:.3e} exceeds the stability heuristic {limit:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    # rows layout: y is an (N, n) view of (n, N) storage, and every stage
    # combination below keeps it
    y = np.ascontiguousarray(grid.values.T).T
    dx = grid.dx
    out = [grid.copy()]
    done = 0
    for step in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _rhs(coeffs, y, dx)
            k2 = _rhs(coeffs, y + 0.5 * dt * k1, dx)
            k3 = _rhs(coeffs, y + 0.5 * dt * k2, dx)
            k4 = _rhs(coeffs, y + dt * k3, dx)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"solution blew up at step {step}")
        if step % every == 0 or step == steps:
            # t = previous t + chunk * dt, the spacing pde_residual checks
            out.append(grid.copy(t=out[-1].t + (step - done) * dt, values=y))
            done = step
    return out


def pde_residual(sys, snapshots, exclude_boundary=0):
    """Max-norm defect of the evolution equation over interior snapshots.

    Time derivative by central differences across consecutive snapshots
    (which must be equally spaced), right side by the spatial stencil;
    the result shrinks at 2nd order under joint refinement.  For data that
    is not genuinely periodic, exclude_boundary masks that many points on
    each side of the wrap seam.
    """
    if len(snapshots) < 3:
        raise ValueError("need at least 3 snapshots")
    N, L = snapshots[0].N, snapshots[0].L
    for s in snapshots:
        if s.N != N or s.L != L or s.n != sys.n:
            raise ValueError("snapshots live on different grids")
    dts = np.diff([s.t for s in snapshots])
    if np.max(np.abs(dts - dts[0])) > 1e-12 * max(1.0, abs(dts[0])):
        raise ValueError("snapshots are not equally spaced in time")
    dt = dts[0]
    keep = np.ones(N, dtype=bool)
    if exclude_boundary:
        keep[:exclude_boundary] = False
        keep[-exclude_boundary:] = False
    coeffs = _coeff_evaluators(sys)
    worst = 0.0
    for k in range(1, len(snapshots) - 1):
        ydot = (snapshots[k + 1].values - snapshots[k - 1].values) / (2.0 * dt)
        rhs = _rhs(coeffs, snapshots[k].values, snapshots[k].dx)
        worst = max(worst, float(np.max(np.abs((ydot - rhs)[keep]))))
    return worst


# ---------------------------------------------------------------------------
# Symmetry transport
# ---------------------------------------------------------------------------


def apply_flow_to_grid(eta, grid, tau):
    """Map every grid point by the time-tau flow of eta: one stacked ODE,
    integrated with the Dormand-Prince 5(4) pair of ``affsym.ode`` at rtol
    1e-10 and atol 1e-12, with eta's components compiled once for all
    stages.  Leaving |y| <= ode.BLOWUP
    (the integrator's blow-up guard) or a step underflow raises
    IntegrationError."""
    if tau == 0.0:
        return grid.copy()
    N, n = grid.values.shape
    program = compile_exprs(eta.comps.reshape(-1))

    def rhs(_t, z):
        # the program returns (n, N): transposed back to the grid's layout
        return eval_many_shared(program, z.reshape(N, n)).T.reshape(-1)

    sol = solve_ivp(rhs, (0.0, tau), grid.values.reshape(-1), rtol=1e-10, atol=1e-12)
    if sol.status == 1:
        raise IntegrationError("grid flow left the working region (blow-up guard)", sol)
    if sol.status != 0:
        raise IntegrationError(f"grid flow failed: {sol.message}", sol)
    return grid.copy(values=sol.y[:, -1].reshape(N, n))


def symmetry_transport_check(sys, eta, tau, grid, dt, steps):
    """Mismatch between evolve-then-map and map-then-evolve.

    eta must first pass the determining equations (``is_symmetry`` at tol
    1e-8).  Returns a dict with the two final grids and the max-norm
    discrepancy; refining the grid (and the step with it) shrinks the
    mismatch at the order of the spatial stencil for a genuine symmetry.
    """
    if not is_symmetry(sys, eta, tol=1e-8):
        raise ValueError("eta does not pass the determining equations on this system")
    mapped_first = evolve(sys, apply_flow_to_grid(eta, grid, tau), dt, steps)
    mapped_last = apply_flow_to_grid(eta, evolve(sys, grid, dt, steps), tau)
    gap = float(np.max(np.abs(mapped_first.values - mapped_last.values)))
    return {"evolve_of_mapped": mapped_first, "mapped_evolve": mapped_last, "max_abs": gap}


def transport_convergence(sys, eta, tau, profiles, N0, L, dt0, steps0, levels=3):
    """Transport mismatch across grid refinements (dx halves, dt quarters);
    returns the list of mismatches, whose successive ratios estimate the
    convergence order."""
    gaps = []
    for lev in range(levels):
        N = N0 * 2**lev
        dt = dt0 / 4**lev
        steps = steps0 * 4**lev
        grid = make_grid(profiles, N, L)
        gaps.append(symmetry_transport_check(sys, eta, tau, grid, dt, steps)["max_abs"])
    return gaps


# ---------------------------------------------------------------------------
# Spin chain on the sphere
# ---------------------------------------------------------------------------


def heisenberg_system():
    """The classical spin chain S_t = S x S_xx in stereographic coordinates.

    The chart maps (y1, y2) to the unit vector
    S = (2 y1, 2 y2, 1 - y1^2 - y2^2) / (1 + y1^2 + y2^2); in it the
    evolution takes the generalized-diffusion form with the 90-degree
    rotation as operator field and the round-sphere connection:

        A = [[0, -1], [1, 0]],
        Gamma^1 = [[-2 y1, -2 y2], [-2 y2, 2 y1]] / D,
        Gamma^2 = [[2 y2, -2 y1], [-2 y1, -2 y2]] / D,   D = 1 + y1^2 + y2^2.

    The sign of A is pinned by the embedding-residual oracle
    (heisenberg_embedding_residual), not by the derivation.
    """
    n = 2
    A = TensorField.from_strings(n, 1, 1, [["0", "-1"], ["1", "0"]])
    d = "(1 + y1^2 + y2^2)"
    gamma = [
        [[f"-2*y1/{d}", f"-2*y2/{d}"], [f"-2*y2/{d}", f"2*y1/{d}"]],
        [[f"2*y2/{d}", f"-2*y1/{d}"], [f"-2*y1/{d}", f"-2*y2/{d}"]],
    ]
    return DiffusionSystem(n, A, Connection.from_strings(n, gamma))


def stereo_to_sphere(values):
    """(N, 2) chart values -> (N, 3) unit vectors."""
    y1, y2 = values[:, 0], values[:, 1]
    r2 = y1**2 + y2**2
    d = 1.0 + r2
    return np.stack([2 * y1 / d, 2 * y2 / d, (1.0 - r2) / d], axis=-1)


def sphere_to_stereo(svals):
    """(N, 3) unit vectors -> (N, 2) chart values (away from S3 = -1)."""
    return svals[:, :2] / (1.0 + svals[:, 2])[:, None]


def heisenberg_embedding_residual(grid, dt, sys=None):
    """Defect of S_t = S x S_xx measured entirely in the embedding.

    S_t comes from one central-difference step of the coordinate evolution
    mapped to the sphere; S_xx from the periodic stencil on the embedded
    field.  This is the ground truth for the stereographic coefficients.
    """
    sys = sys if sys is not None else heisenberg_system()
    fw = evolve(sys, grid, dt, 1)
    bw = evolve(sys, grid, -dt, 1)
    s_now = stereo_to_sphere(grid.values)
    s_dot = (stereo_to_sphere(fw.values) - stereo_to_sphere(bw.values)) / (2.0 * dt)
    up, s, dn = _wrap(np.empty((3, grid.N + 2)), s_now.T)
    s_xx = ((up - 2 * s + dn) / grid.dx**2).T
    return float(np.max(np.abs(s_dot - np.cross(s_now, s_xx))))


# ---------------------------------------------------------------------------
# Snapshot export
# ---------------------------------------------------------------------------


def dump_csv(snapshots, fp):
    """Write snapshots as CSV rows "t,x,y1..yn", one row per grid point."""
    n = snapshots[0].n
    header = "t,x," + ",".join(f"y{i + 1}" for i in range(n))
    fp.write(header + "\n")
    for snap in snapshots:
        xs = snap.x
        for k in range(snap.N):
            row = [f"{snap.t:.17g}", f"{xs[k]:.17g}"] + [
                f"{v:.17g}" for v in snap.values[k]
            ]
            fp.write(",".join(row) + "\n")
