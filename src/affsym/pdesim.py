"""Method-of-lines integrator for generalized diffusion systems on a
periodic interval, residual evaluation, symmetry solution-transport checks,
and the spin-chain example on the sphere.

The semi-discrete system uses 2nd-order central differences for both spatial
derivatives and classic fixed-step RK4 in time; periodic wrap throughout.
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
from .tensor import TensorField

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
        self.values = np.asarray(values, dtype=float)
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


def make_grid(profiles, N, L, t=0.0):
    """Sample callables x -> value (one per component) on the periodic grid."""
    x = np.arange(N) * (L / N)
    vals = np.stack([np.asarray(p(x), dtype=float) for p in profiles], axis=-1)
    return SolutionGrid(N, L, t, vals)


def _coeff_evaluators(sys):
    """Callable mapping grid values (N, n) -> A (N, n, n) and Gamma
    (N, n, n, n).  The components of A and Gamma are compiled into one
    Program on first use and kept on the system, so every evolve, stability
    check and residual of one system runs the same code."""
    a_comps, g_comps = sys.A.comps, sys.conn.gamma
    if sys.coeff_program is None:
        sys.coeff_program = compile_exprs(list(a_comps.flat) + list(g_comps.flat))
    program = sys.coeff_program
    na = a_comps.size

    def eval_coeffs(values):
        vals = eval_many_shared(program, values)
        # C-ordered like TensorField.evaluate_many, so the einsums in _rhs
        # sum in the same order
        A = np.ascontiguousarray(vals[:na].T).reshape((-1,) + a_comps.shape)
        G = np.ascontiguousarray(vals[na:].T).reshape((-1,) + g_comps.shape)
        return A, G

    return eval_coeffs


def _rhs(sys, coeffs, values, dx):
    up = np.roll(values, -1, axis=0)
    dn = np.roll(values, 1, axis=0)
    d1 = (up - dn) / (2.0 * dx)
    d2 = (up - 2.0 * values + dn) / dx**2
    A, G = coeffs(values)
    quad = np.einsum("pjrs,pr,ps->pj", G, d1, d1)
    return np.einsum("pij,pj->pi", A, d2 + quad)


def stability_limit(sys, grid):
    """Explicit-step heuristic 0.4 dx^2 / max|eig A| on the current values."""
    A, _ = _coeff_evaluators(sys)(grid.values)
    eigs = np.linalg.eigvals(A)
    lam = float(np.max(np.abs(eigs)))
    if lam == 0.0:
        return np.inf
    return 0.4 * grid.dx**2 / lam


def evolve(sys, grid, dt, steps, record_means=False):
    """Advance the grid by RK4 with fixed step dt.

    Violating the explicit-stability heuristic warns (not an error);
    non-finite values abort with the step index.  When record_means is set
    the returned grid carries a (steps+1, n) array of spatial means in
    ``mean_history``.
    """
    if sys.n != grid.n:
        raise ValueError("system and grid dimensions differ")
    coeffs = _coeff_evaluators(sys)
    limit = stability_limit(sys, grid)
    if dt > limit:
        warnings.warn(
            f"time step {dt:.3e} exceeds the stability heuristic {limit:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )
    y = grid.values.copy()
    dx = grid.dx
    means = [y.mean(axis=0)] if record_means else None
    for step in range(steps):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = _rhs(sys, coeffs, y, dx)
            k2 = _rhs(sys, coeffs, y + 0.5 * dt * k1, dx)
            k3 = _rhs(sys, coeffs, y + 0.5 * dt * k2, dx)
            k4 = _rhs(sys, coeffs, y + dt * k3, dx)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"solution blew up at step {step + 1}")
        if record_means:
            means.append(y.mean(axis=0))
    out = grid.copy(t=grid.t + steps * dt, values=y)
    if record_means:
        out.mean_history = np.asarray(means)
    return out


def evolve_snapshots(sys, grid, dt, steps, every):
    """Evolve while keeping a snapshot every ``every`` steps (including the
    initial state)."""
    out = [grid.copy()]
    current = grid
    done = 0
    while done < steps:
        chunk = min(every, steps - done)
        current = evolve(sys, current, dt, chunk)
        done += chunk
        out.append(current)
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
        rhs = _rhs(sys, coeffs, snapshots[k].values, snapshots[k].dx)
        worst = max(worst, float(np.max(np.abs((ydot - rhs)[keep]))))
    return worst


# ---------------------------------------------------------------------------
# Symmetry transport
# ---------------------------------------------------------------------------


def apply_flow_to_grid(eta, grid, tau, rtol=1e-10, atol=1e-12):
    """Map every grid point by the time-tau flow of eta: one stacked ODE,
    integrated with the Dormand-Prince 5(4) pair of ``affsym.ode``, with
    eta's components compiled once for all stages.  Leaving |y| <= 1e8 (the
    blow-up guard of ``symmetry.flow``) or a step underflow raises
    IntegrationError."""
    if tau == 0.0:
        return grid.copy()
    N, n = grid.values.shape
    program = compile_exprs(eta.comps.reshape(-1))

    def rhs(_t, z):
        # the program returns (n, N): transposed back to the grid's layout
        return eval_many_shared(program, z.reshape(N, n)).T.reshape(-1)

    def too_big(_t, z):
        return float(abs(z).max()) - 1e8

    sol = solve_ivp(
        rhs, (0.0, tau), grid.values.reshape(-1), rtol=rtol, atol=atol, events=too_big
    )
    if sol.status == 1:
        raise IntegrationError("grid flow left the working region (blow-up guard)", sol)
    if sol.status != 0:
        raise IntegrationError(f"grid flow failed: {sol.message}", sol)
    return grid.copy(values=sol.y[:, -1].reshape(N, n))


def symmetry_transport_check(sys, eta, tau, grid, dt, steps, check_symmetry=True):
    """Mismatch between evolve-then-map and map-then-evolve.

    Returns a dict with the two final grids and the max-norm discrepancy;
    refining the grid (and the step with it) shrinks the mismatch at the
    order of the spatial stencil for a genuine symmetry.
    """
    if check_symmetry:
        from .symmetry import is_symmetry

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
    dx = grid.dx
    s_xx = (np.roll(s_now, -1, axis=0) - 2 * s_now + np.roll(s_now, 1, axis=0)) / dx**2
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
