"""Method-of-lines integrator for generalized diffusion systems on a
periodic interval, residual evaluation, symmetry solution-transport checks
(eta judged first, each trajectory evolved once) and the spin chain on S^2.

The right-hand side F^i = A^i_j (u_xx^j + Gamma^j_rs u_x^r u_x^s) is one
expression over y1..y3n = (u, u_x, u_xx), compiled once per system and fed
2nd-order central differences; classic fixed-step RK4 in time, periodic
wrap throughout.  F on one grid is one operator (_Operator: a zeroed
buffer, the stencil, the coefficients and the stability limit), made once
per evolution or residual.  Each call reads the buffer's ghost block of 3n
padded rows whose first n hold u between two ghost columns (the periodic
wrap): the stencil writes u_x and u_xx into the rows below, one ufunc call
per operation over the flat strip of those rows, padding included, and the
compiled program reads the N interior columns.  An evolution's four
contiguous (n, N) strips follow: two states that alternate, the stage
increment and the weighted sum, so every RK4 operation that does not write
the block is one loop.  Each stage input is written straight into the u
rows, and the program keeps its name arrays between stages at the same N
(see Program), so a stage allocates only its result.  Nothing reads the
values left in padding.  Snapshots are C-ordered (N, n) copies.
Correctness anchors are external: the heat kernel for the decoupled case,
Richardson refinement for the residual order, and for the spin chain the
embedding equation S_t = S x S_xx itself (the stereographic coefficients are
never trusted by fiat).
"""

from __future__ import annotations

import inspect
import math
import warnings

import numpy as np

from .expr import _LINE, _aligned_rows, _odd_lines, compile_exprs, eval_many_shared
from .geometry import Connection, DiffusionSystem
from .ode import IntegrationError, solve_ivp
from .pfaff import _coords
from .symmetry import check_symmetry
from .tensor import ADD, MUL, TensorField, bcast
from .util import DEFAULT_TOLERANCES

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
        self.N = int(_count("N", N, 8))
        self.L = _length(L)
        self.t = float(t)
        if not math.isfinite(self.t):
            raise ValueError(f"t must be finite, got {t!r}")
        # C-ordered whatever the caller's layout, so reductions over the
        # grid (values.mean(axis=0)) sum in one fixed order
        self.values = np.ascontiguousarray(values, dtype=float)
        _spacing(self.N, self.L)
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
        values = self.values.copy() if values is None else values
        return SolutionGrid(self.N, self.L, self.t if t is None else t, values)


def _spacing(N, L):
    """Refuse a grid whose (L/N)**2, by which the stencil and stability_limit
    divide, is not a finite normal float."""
    if not np.finfo(float).tiny <= (L / N) * (L / N) < math.inf:
        raise ValueError(f"(L/N)**2 is not a finite normal float for L = {L!r}, N = {N}")


def _length(L):
    """L as a float, refused unless it is finite and > 0."""
    L = float(L)
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"grid length L must be finite and > 0, got {L!r}")
    return L


def make_grid(profiles, N, L):
    """Sample callables x -> value (one per component) on the periodic grid
    at t = 0."""
    x = np.arange(_count("N", N, 8)) * (_length(L) / N)
    vals = np.stack([np.asarray(p(x), dtype=float) for p in profiles], axis=-1)
    return SolutionGrid(N, L, 0.0, vals)


def _coeff_evaluators(sys):
    """Callable mapping the row block (3n, N) = (u, u_x, u_xx), one grid
    row per coordinate y1..y3n (the interior columns of the ghost block, see
    _stencil), to the right-hand side F (N, n).  F is compiled into one
    Program on first use and kept on the system, so every evolve and
    residual of one system runs the same code, and the Program's name
    arrays, kept per point count, serve every stage at one N.  The block
    goes in as the (N, 3n) points the Program takes, its transpose, which
    Program.run transposes back: the generated code reads contiguous rows."""
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


def _buffer(n, N, strips):
    """One new zeroed buffer for n components on N points: the ghost block,
    (3n, S) with S the N + 2 values of a row rounded up by expr._odd_lines
    and each row's column 1 on a cache line (columns 0 and N + 1 are ghost
    columns, those after them padding), then ``strips`` contiguous (n, N)
    strips, each on a cache line an odd number of lines after the row or
    strip before it.  Returns the block and the list of strips."""
    S, T = _odd_lines(N + 2), _odd_lines(n * N)
    head = 3 * n * S + _LINE  # the first strip; row 0's column 1 is at _LINE
    buf = _aligned_rows(1, head + strips * T)[0]
    rows = buf[_LINE - 1 : head - 1].reshape(3 * n, S)
    return rows, [buf[k : k + n * N].reshape(n, N) for k in range(head, head + strips * T, T)]


def _stencil(rows, n, N, dx):
    """The stencil on a ghost block from _buffer, its first n rows holding u
    in columns 1..N.  Returns a function of no arguments that copies each
    end of those rows into the ghost column beyond the other end (the
    periodic wrap), writes u_x and u_xx by central differences into the
    interior of the rows below, and returns the (3n, N) interior.  Each
    operation is one ufunc call over the flat strip of the target rows and
    the u rows' strip shifted by -1, 0 or 1, padding included, which nothing
    reads.  The views are made once, so each call reads the u rows anew."""
    S = rows.shape[1]
    flat, size = rows.reshape(-1), (n - 1) * S + N
    up, u, dn = flat[2 : size + 2], flat[1 : size + 1], flat[:size]
    d1, d2 = flat[n * S + 1 :][:size], flat[2 * n * S + 1 :][:size]
    left, last, right, first = rows[:n, 0], rows[:n, N], rows[:n, N + 1], rows[:n, 1]
    interior = rows[:, 1 : N + 1]
    h1, h2, two = (np.array(c) for c in (2.0 * dx, dx**2, 2.0))  # 0-d, as in evolve

    def fill():
        np.copyto(left, last)
        np.copyto(right, first)
        # (up - dn) / (2 dx) and ((up - 2 u) + dn) / dx^2, operation by operation
        np.subtract(up, dn, d1)
        np.divide(d1, h1, d1)
        np.multiply(two, u, d2)
        np.subtract(up, d2, d2)
        np.add(d2, dn, d2)
        np.divide(d2, h2, d2)
        return interior

    return fill


class _Operator:
    """The semi-discrete operator of ``coeffs``, a callable of the (3n, N)
    rows (u, u_x, u_xx), on N points of spacing dx: one new buffer's ghost
    block and ``strips`` strips (_buffer), the block's u rows ``u``, its
    stencil ``fill`` (_stencil) and an evolution's ``limit`` (_operator)."""

    def __init__(self, coeffs, n, N, dx, strips=0, limit=None):
        rows, self.strips = _buffer(n, N, strips)
        self.u, self.fill = rows[:n, 1 : N + 1], _stencil(rows, n, N, dx)
        self.coeffs, self.limit = coeffs, limit

    def __call__(self, values):
        """coeffs of the stencil at the grid values (N, n), written into the
        u rows, under evolve's error state (the stencil computes in padding)."""
        self.u[...] = values.T
        with np.errstate(over="ignore", invalid="ignore"):
            return self.coeffs(self.fill())


def _operator(sys, grid, limit):
    """sys's _Operator for an evolution of grid: four strips and ``limit``."""
    return _Operator(_coeff_evaluators(sys), sys.n, grid.N, grid.dx, 4, limit)


def stability_limit(sys, grid):
    """Explicit-step heuristic 0.4 dx^2 / max|eig A| on the current values.

    A constant A (all its components constant nodes) is read once per system
    from the nodes' values, its radius kept on it (``sys.a_radius``; A must
    not change after first use).  Any other A is evaluated at every point;
    one that is not finite there raises the checked walk's DomainError."""
    if sys.n != grid.n:
        raise ValueError("system and grid dimensions differ")
    if sys.a_radius is None and all(c.op == "const" for c in sys.A.comps.flat):
        vals = np.array([[c.value for c in row] for row in sys.A.comps])
        sys.a_radius = float(np.max(np.abs(np.linalg.eigvals(vals))))
    lam = sys.a_radius
    if lam is None:
        vals = sys.A.evaluate_many(grid.values)
        if not np.isfinite(vals).all():
            sys.A.evaluate(grid.values)
        lam = float(np.max(np.abs(np.linalg.eigvals(vals))))
    if lam == 0.0:
        return np.inf
    return 0.4 * grid.dx**2 / lam


def evolve(sys, grid, dt, steps):
    """The grid advanced by RK4 with fixed step dt: evolve_snapshots' last
    snapshot."""
    return evolve_snapshots(sys, grid, dt, steps, max(1, _count("steps", steps, 0)))[-1]


def _count(name, value, least):
    """value, refused unless it is an int (not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value!r}")
    return value


def evolve_snapshots(sys, grid, dt, steps, every):
    """Advance the grid by RK4 with fixed step dt, keeping the initial grid,
    a snapshot every ``every`` (at least 1) steps and the final state.

    Violating the explicit-stability heuristic with a step of either sign
    warns (not an error) for the innermost caller outside this module;
    non-finite values abort with the step index, counted from the start.  A
    dt that is not finite or takes t + dt*steps beyond the float range, or a
    steps or every that is not an int (bools included) or is out of range,
    is refused before anything is evolved (a negative finite dt steps
    backwards).
    """
    if sys.n != grid.n:
        raise ValueError("system and grid dimensions differ")
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt!r}")
    _count("steps", steps, 0)
    _count("every", every, 1)
    if not math.isfinite(grid.t + float(dt) * int(steps)):  # Python floats: no numpy warning
        raise ValueError(f"t + dt*steps is beyond the float range: t = {grid.t!r}, dt = {dt!r}, steps = {steps}")
    return _rk4(_operator(sys, grid, stability_limit(sys, grid)), grid, dt, steps, every)


def _rk4(op, grid, dt, steps, every):
    """evolve_snapshots of grid on op (_operator), warning for the innermost
    caller outside this module.  Each stage takes the operations, operands and
    order of ``y + 0.5*dt*k1`` and the other sums, so its values are theirs."""
    if abs(dt) > op.limit:
        frame, level = inspect.currentframe().f_back, 2
        while frame.f_globals["__name__"] == __name__:
            frame, level = frame.f_back, level + 1
        warnings.warn(
            f"time step {dt:.3e} exceeds the stability heuristic {op.limit:.3e}",
            RuntimeWarning,
            stacklevel=level,
        )
    # the state, the spare state, the stage increment and the weighted sum
    (y, spare, stage, total), u, fill, coeffs = op.strips, op.u, op.fill, op.coeffs
    np.copyto(y, grid.values.T)
    # 0-d arrays, where a ufunc converts a Python number on every call
    half, whole, sixth, two = (np.array(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    out = [grid.copy()]
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, steps + 1):
            # y + 0.5*dt*k1 .. y + dt*k3, each written into the u rows, and
            # y + (dt/6)*(k1 + 2*k2 + 2*k3 + k4), operation by operation in
            # that order; each k is F transposed to a contiguous (n, N) strip
            np.copyto(u, y)
            k1 = coeffs(fill()).T
            np.multiply(half, k1, stage)
            np.add(y, stage, u)
            k2 = coeffs(fill()).T
            np.multiply(half, k2, stage)
            np.add(y, stage, u)
            k3 = coeffs(fill()).T
            np.multiply(whole, k3, stage)
            np.add(y, stage, u)
            k4 = coeffs(fill()).T
            np.multiply(two, k2, total)
            np.add(k1, total, total)
            np.add(total, np.multiply(two, k3, stage), total)
            np.add(total, k4, total)
            np.multiply(sixth, total, total)
            y, spare = np.add(y, total, spare), y
            if not np.all(np.isfinite(y)):
                raise RuntimeError(f"solution blew up at step {step}")
            if step % every == 0 or step == steps:
                # t = previous t + chunk * dt, the spacing pde_residual checks
                out.append(grid.copy(t=out[-1].t + (step - done) * dt, values=y.T.copy()))
                done = step
    return out


def pde_residual(sys, snapshots, exclude_boundary=0):
    """Max-norm defect of the evolution equation over interior snapshots.

    Time derivative by central differences across consecutive snapshots
    (which must be equally spaced and advance in time), right side by the
    spatial stencil; a defect that is nan (or inf) at any point makes the
    result nan (or inf).  The result shrinks at 2nd order under joint
    refinement.  For data that is not genuinely periodic, exclude_boundary
    masks that many points on each side of the wrap seam: an int k with
    0 <= 2k < N, so that some point is left.
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
    if dt == 0.0:
        raise ValueError("snapshots do not advance in time")
    edge = exclude_boundary
    if isinstance(edge, bool) or not isinstance(edge, (int, np.integer)) or not 0 <= 2 * edge < N:
        raise ValueError(f"exclude_boundary must be an int k with 0 <= 2k < N = {N}, got {edge!r}")
    keep = np.ones(N, dtype=bool)
    keep[:edge] = keep[N - edge :] = False
    op = _Operator(_coeff_evaluators(sys), sys.n, N, snapshots[0].dx)
    worst = []
    for k in range(1, len(snapshots) - 1):
        ydot = (snapshots[k + 1].values - snapshots[k - 1].values) / (2.0 * dt)
        rhs = op(snapshots[k].values)
        worst.append(np.max(np.abs((ydot - rhs)[keep])))
    # np.max, unlike max(), is nan where any defect is (as inf where any is)
    return float(np.max(worst))


# ---------------------------------------------------------------------------
# Symmetry transport
# ---------------------------------------------------------------------------


def apply_flow_to_grid(eta, grid, tau):
    """Map every grid point by the time-tau flow of eta: one stacked ODE,
    integrated with the Dormand-Prince 5(4) pair of ``affsym.ode`` at rtol
    1e-10 and atol 1e-12, with eta's components compiled once for all
    stages.  Leaving |y| <= ode.BLOWUP (the integrator's blow-up guard) or
    a step underflow raises IntegrationError."""
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


def symmetry_transport_check(sys, eta, tau, grid, dt, steps, pts=None, tol=DEFAULT_TOLERANCES["symmetry"],
                             invariance_tol=DEFAULT_TOLERANCES["invariance"]):
    """Mismatch between evolve-then-map and map-then-evolve once eta passes
    ``symmetry.check_symmetry`` at pts, tol and invariance_tol (else a
    ValueError before any evolution): a dict with the two final grids and the
    max-norm gap, which shrinks at the stencil's order as grid and step refine."""
    _judge(sys, eta, pts, tol, invariance_tol)
    return _transport(sys, eta, tau, grid, evolve(sys, grid, dt, steps), dt, steps)


def _judge(sys, eta, *args):
    """ValueError unless eta passes ``symmetry.check_symmetry(sys, eta, *args)``."""
    rep = check_symmetry(sys, eta, *args)
    if not rep["accepted"]:
        what = "the invariance suite" if "invariance" in rep else "the determining equations"
        raise ValueError(f"eta does not pass {what} on this system")


def _transport(sys, eta, tau, grid, evolved, dt, steps):
    """``symmetry_transport_check``'s report, eta not judged: ``evolved`` is
    grid advanced by dt and steps (mapped_evolve keeps its t)."""
    mapped_first = evolve(sys, apply_flow_to_grid(eta, grid, tau), dt, steps)
    mapped_last = apply_flow_to_grid(eta, evolved, tau)
    gap = float(np.max(np.abs(mapped_first.values - mapped_last.values)))
    return {"evolve_of_mapped": mapped_first, "mapped_evolve": mapped_last, "max_abs": gap}


def transport_convergence(sys, eta, tau, profiles, N0, L, dt0, steps0, levels=3):
    """Transport mismatch across grid refinements (dx halves, dt quarters),
    eta judged once, first; returns the mismatches, whose successive ratios
    estimate the convergence order."""
    _judge(sys, eta)
    gaps = []
    for lev in range(levels):
        grid, dt, steps = make_grid(profiles, N0 * 2**lev, L), dt0 / 4**lev, steps0 * 4**lev
        gaps.append(_transport(sys, eta, tau, grid, evolve(sys, grid, dt, steps), dt, steps)["max_abs"])
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
    # the stencil's u_xx rows of the three components of S
    s_xx = _Operator(lambda rows: rows[6:].T, 3, grid.N, grid.dx)(s_now)
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
            row = [f"{snap.t:.17g}", f"{xs[k]:.17g}"] + [f"{v:.17g}" for v in snap.values[k]]
            fp.write(",".join(row) + "\n")
