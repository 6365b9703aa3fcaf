"""Method-of-lines evolution, residuals, symmetry transport, and the spin
chain on the sphere."""

import os

import numpy as np
import pytest

from affsym.canonical import CanonicalSpec, build_system
from affsym.cli import SystemDocument
from affsym.expr import eval_many_shared
from affsym.geometry import Connection, DiffusionSystem, scalar_operator
from affsym.liefn import VectorField
from affsym.pdesim import (
    SolutionGrid,
    _coeff_evaluators,
    _rhs,
    apply_flow_to_grid,
    dump_csv,
    evolve,
    evolve_snapshots,
    heisenberg_embedding_residual,
    heisenberg_system,
    make_grid,
    pde_residual,
    sphere_to_stereo,
    stability_limit,
    stereo_to_sphere,
    symmetry_transport_check,
    transport_convergence,
)
from affsym.tensor import TensorField

L = 2 * np.pi
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def heat_system(n=1, a=1.0):
    return DiffusionSystem(n, scalar_operator(n, a), Connection.zeros(n))


def test_heat_decay_matches_kernel():
    sys = heat_system()
    grid = make_grid([np.sin], 64, L)
    out = evolve(sys, grid, dt=0.002, steps=50)
    expected = np.exp(-0.1) * np.sin(grid.x)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(out.values[:, 0] - expected)) <= 1e-3 * scale


def test_constant_data_is_fixed_point():
    sys = build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0))
    grid = make_grid([lambda x: 0.2 + 0 * x, lambda x: -0.1 + 0 * x], 16, L)
    out = evolve(sys, grid, dt=1e-4, steps=20)
    assert np.max(np.abs(out.values - grid.values)) == 0.0


def test_stability_warning():
    sys = heat_system()
    grid = make_grid([np.sin], 16, L)
    with pytest.warns(RuntimeWarning):
        evolve(sys, grid, dt=10 * stability_limit(sys, grid), steps=1)


def test_blowup_reports_step():
    # backwards heat equation blows up fast
    sys = heat_system(a=-1.0)
    grid = make_grid([lambda x: np.sin(8 * x)], 64, L)
    with pytest.warns(RuntimeWarning, match="stability heuristic"):
        with pytest.raises(RuntimeError, match="step"):
            evolve(sys, grid, dt=0.004, steps=2000)


def test_blowup_step_is_counted_from_the_start_of_the_run():
    # the snapshot chunks of 25 steps do not restart the count
    sys = heat_system()
    grid = make_grid([np.sin], 32, L)
    with pytest.warns(RuntimeWarning), pytest.raises(RuntimeError) as whole:
        evolve(sys, grid, 0.2, 100)
    with pytest.warns(RuntimeWarning), pytest.raises(RuntimeError) as chunked:
        evolve_snapshots(sys, grid, 0.2, 100, 25)
    assert str(whole.value) == str(chunked.value) == "solution blew up at step 86"


def test_snapshots_advance_by_whole_chunks():
    sys = heat_system()
    grid = make_grid([np.sin], 16, L)
    snaps = evolve_snapshots(sys, grid, 0.01, 10, 4)
    assert [s.t for s in snaps] == [0.0, 0.04, 0.08, 0.1]
    assert np.array_equal(snaps[-1].values, evolve(sys, grid, 0.01, 10).values)


def test_snapshot_spacing_must_be_positive():
    sys = heat_system()
    grid = make_grid([np.sin], 16, L)
    for every in (0, -1):
        with pytest.raises(ValueError, match="every"):
            evolve_snapshots(sys, grid, 0.01, 3, every)
    out = evolve(sys, grid, 0.01, 0)
    assert out.t == 0.0 and np.array_equal(out.values, grid.values)


def einsum_rhs(sys, values, dx):
    """The right-hand side from A and Gamma evaluated as arrays and
    contracted by einsum over C-ordered operands, summing r outer, s inner."""
    up = np.roll(values, -1, axis=0)
    dn = np.roll(values, 1, axis=0)
    d1 = (up - dn) / (2.0 * dx)
    d2 = (up - 2.0 * values + dn) / dx**2
    A = sys.A.evaluate_many(values)
    G = sys.conn.evaluate_many(values)
    quad = np.einsum("pjrs,pr,ps->pj", G, d1, d1)
    return np.einsum("pij,pj->pi", A, d2 + quad)


def oracle_systems():
    for name in sorted(os.listdir(FIXTURES)):
        yield name, SystemDocument.load(os.path.join(FIXTURES, name)).to_system()
    yield "heisenberg_system", heisenberg_system()
    for n in (3, 4):
        yield f"constcurv n={n}", build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0))


def test_compiled_rhs_is_bitwise_the_einsum_contraction():
    rng = np.random.default_rng(7)
    hexes = np.frompyfunc(float.hex, 1, 1)
    for name, sys in oracle_systems():
        coeffs = _coeff_evaluators(sys)
        for N in (64, 1024, 4096):
            values = rng.uniform(-0.4, 0.4, size=(N, sys.n))
            got = _rhs(coeffs, values, L / N)
            want = einsum_rhs(sys, values, L / N)
            assert got.shape == want.shape, name
            assert np.array_equal(hexes(got), hexes(want)), (name, N)


def column_rhs(sys, values, dx):
    """The right-hand side by the column route: rolled stencils on the
    (N, n) values, concatenated into (N, 3n) points for the compiled
    program."""
    up = np.roll(values, -1, axis=0)
    dn = np.roll(values, 1, axis=0)
    d1 = (up - dn) / (2.0 * dx)
    d2 = (up - 2.0 * values + dn) / dx**2
    return eval_many_shared(sys.coeff_program, np.concatenate([values, d1, d2], axis=1)).T


def column_evolve(sys, grid, dt, steps, every):
    """RK4 on C-ordered (N, n) values through column_rhs: the snapshot
    times and values evolve_snapshots keeps."""
    _coeff_evaluators(sys)  # compiles sys.coeff_program
    y, dx = grid.values, grid.dx
    times, values, done = [grid.t], [y], 0
    for step in range(1, steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = column_rhs(sys, y, dx)
            k2 = column_rhs(sys, y + 0.5 * dt * k1, dx)
            k3 = column_rhs(sys, y + 0.5 * dt * k2, dx)
            k4 = column_rhs(sys, y + dt * k3, dx)
            y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if step % every == 0 or step == steps:
            times.append(times[-1] + (step - done) * dt)
            values.append(y)
            done = step
    return times, values


def transcendental_system():
    """A and Gamma through exp, sin, cos, ln, sqrt and integer powers."""
    A = TensorField.from_strings(
        2, 1, 1,
        [["1 + 0.1*sin(y1)", "0.1*exp(-y2^2)"], ["0.05*cos(y1*y2)", "1 + 0.1*ln(1 + y1^2)"]],
    )
    gamma = [
        [["0.1*sqrt(1 + y2^2)", "0.2*y1^3"], ["0.2*y1^3", "exp(y2)/3"]],
        [["sin(y1)*cos(y2)", "ln(2 + y2^2)"], ["ln(2 + y2^2)", "y1^2*y2^4 - 1"]],
    ]
    return DiffusionSystem(2, A, Connection.from_strings(2, gamma))


def test_row_layout_run_is_bitwise_the_column_route():
    hexes = np.frompyfunc(float.hex, 1, 1)
    sys = transcendental_system()
    profiles = [
        lambda x: 0.3 * np.sin(x) + 0.1 * np.cos(3 * x),
        lambda x: 0.2 * np.exp(np.cos(x)) - 0.3,
    ]
    for N in (64, 1024, 4096):
        grid = make_grid(profiles, N, L)
        dt = 0.5 * stability_limit(sys, grid)
        snaps = evolve_snapshots(sys, grid, dt, 8, 2)
        times, values = column_evolve(sys, grid, dt, 8, 2)
        assert [s.t for s in snaps] == times
        for snap, want in zip(snaps, values):
            assert snap.values.flags.c_contiguous, N
            assert np.array_equal(hexes(snap.values), hexes(want)), N
            lam = np.max(np.abs(np.linalg.eigvals(sys.A.evaluate_many(want))))
            assert stability_limit(sys, snap).hex() == (0.4 * grid.dx**2 / lam).hex(), N
        h = times[1] - times[0]
        defects = (
            (values[k + 1] - values[k - 1]) / (2.0 * h) - column_rhs(sys, values[k], grid.dx)
            for k in range(1, len(values) - 1)
        )
        worst = max(float(np.max(np.abs(d))) for d in defects)
        assert pde_residual(sys, snaps).hex() == worst.hex(), N


def test_stability_limit_is_the_max_eigenvalue_over_all_points(monkeypatch):
    # a constant A is evaluated at one point, any other A at every point;
    # either way the limit is bitwise that of A's eigenvalues at all points
    seen = []
    evaluate_many = TensorField.evaluate_many

    def spy(field, points):
        seen.append(len(points))
        return evaluate_many(field, points)

    systems = [
        (heisenberg_system(), 1),
        (build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0)), 1),
        (transcendental_system(), None),
    ]
    for sys, rows in systems:
        profiles = [lambda x, k=k: 0.3 * np.sin(x + k) + 0.1 * np.cos(2 * x) for k in range(sys.n)]
        for N in (64, 4096):
            grid = make_grid(profiles, N, L)
            lam = np.max(np.abs(np.linalg.eigvals(evaluate_many(sys.A, grid.values))))
            monkeypatch.setattr(TensorField, "evaluate_many", spy)
            limit = stability_limit(sys, grid)
            monkeypatch.undo()
            assert limit.hex() == (0.4 * grid.dx**2 / lam).hex(), N
            assert seen.pop() == (rows or N) and not seen


def test_pde_residual_zero_for_linear_profile():
    sys = heat_system()
    grid = make_grid([lambda x: x], 64, L)
    snaps = [grid.copy(t=k * 0.01) for k in range(3)]
    # away from the periodic seam both sides vanish (up to stencil roundoff)
    assert pde_residual(sys, snaps, exclude_boundary=2) <= 1e-10


def test_pde_residual_second_order():
    sys = heat_system()
    res = []
    for N, dt in ((32, 0.004), (64, 0.002)):
        grid = make_grid([np.sin], N, L)
        snaps = evolve_snapshots(sys, grid, dt, steps=4, every=1)
        res.append(pde_residual(sys, snaps))
    ratio = res[0] / res[1]
    assert 3.4 <= ratio <= 4.6


def test_pde_residual_negative_control():
    sys = heat_system()
    grid = make_grid([np.sin], 64, L)
    snaps = evolve_snapshots(sys, grid, 0.002, steps=4, every=1)
    wrong = heat_system(a=3.0)
    assert pde_residual(wrong, snaps) > 0.5


def test_pde_residual_input_checks():
    sys = heat_system()
    grid = make_grid([np.sin], 64, L)
    with pytest.raises(ValueError):
        pde_residual(sys, [grid, grid])
    other = make_grid([np.sin], 32, L)
    with pytest.raises(ValueError):
        pde_residual(sys, [grid, other, grid])
    s1, s2, s3 = grid.copy(t=0.0), grid.copy(t=0.1), grid.copy(t=0.3)
    with pytest.raises(ValueError):
        pde_residual(sys, [s1, s2, s3])


# ---------------------------------------------------------------------------
# Symmetry transport
# ---------------------------------------------------------------------------


def test_transport_tau_zero_is_exact():
    sys = heat_system(2)
    grid = make_grid([np.sin, np.cos], 32, L)
    eta = VectorField.from_strings(2, ["y2", "-y1"])
    rep = symmetry_transport_check(sys, eta, 0.0, grid, 0.004, 10)
    assert rep["max_abs"] == 0.0


def test_transport_translation_exact_equivariance():
    sys = heat_system(2)
    grid = make_grid([np.sin, np.cos], 32, L)
    eta = VectorField.from_strings(2, ["1", "0"])
    rep = symmetry_transport_check(sys, eta, 0.7, grid, 0.004, 25)
    assert rep["max_abs"] <= 1e-12


def test_transport_scaling_flat_is_discretely_equivariant():
    # affine flows commute with the linear stencil exactly; the mismatch sits
    # at integrator-tolerance level at every resolution
    sys = heat_system(1)
    eta = VectorField.from_strings(1, ["y1"])
    gaps = transport_convergence(
        sys, eta, 0.1, [np.sin], N0=16, L=L, dt0=0.016, steps0=4, levels=2
    )
    assert max(gaps) <= 1e-9


def test_transport_rejects_non_symmetry():
    sys = heat_system(1)
    eta = VectorField.from_strings(1, ["y1^2"])
    grid = make_grid([np.sin], 16, L)
    with pytest.raises(ValueError):
        symmetry_transport_check(sys, eta, 0.1, grid, 0.004, 2)


def test_transport_nonlinear_flow_second_order():
    # quadratic sphere symmetry on the n=2 constant-curvature system: the
    # flow is nonlinear, so the discrete mismatch is a genuine O(dx^2)
    sys = build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0))
    eta = VectorField.from_strings(2, ["(1 + y1^2 - y2^2)/2", "y1*y2"])
    profiles = [
        lambda x: 0.25 * np.sin(x) + 0.05,
        lambda x: 0.2 * np.cos(x) - 0.03,
    ]
    gaps = transport_convergence(
        sys, eta, 0.1, profiles, N0=16, L=L, dt0=0.01, steps0=5, levels=3
    )
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert orders[-1] >= 2.0 - 0.25


# ---------------------------------------------------------------------------
# Spin chain
# ---------------------------------------------------------------------------


def spin_profiles():
    return [
        lambda x: 0.3 * np.sin(x) + 0.05,
        lambda x: 0.2 * np.cos(x) - 0.1,
    ]


def test_heisenberg_embedding_residual_second_order():
    res = []
    for N in (64, 128):
        grid = make_grid(spin_profiles(), N, L)
        res.append(heisenberg_embedding_residual(grid, dt=1e-6))
    ratio = res[0] / res[1]
    assert 3.3 <= ratio <= 4.7


def test_heisenberg_constant_state_is_stationary():
    sys = heisenberg_system()
    grid = make_grid([lambda x: 0.3 + 0 * x, lambda x: -0.2 + 0 * x], 16, L)
    out = evolve(sys, grid, dt=1e-4, steps=50)
    assert np.max(np.abs(out.values - grid.values)) == 0.0


def test_heisenberg_sphere_norm_preserved():
    sys = heisenberg_system()
    grid = make_grid(spin_profiles(), 64, L)
    out = evolve(sys, grid, dt=0.003, steps=100)
    svals = stereo_to_sphere(out.values)
    assert np.max(np.abs(np.sum(svals**2, axis=1) - 1.0)) <= 1e-6


def test_stereo_round_trip():
    grid = make_grid(spin_profiles(), 32, L)
    back = sphere_to_stereo(stereo_to_sphere(grid.values))
    assert np.max(np.abs(back - grid.values)) <= 1e-12


def spin_energy(grid):
    s = stereo_to_sphere(grid.values)
    sx = (np.roll(s, -1, axis=0) - np.roll(s, 1, axis=0)) / (2 * grid.dx)
    return float(np.sum(sx**2) * grid.dx)


def test_heisenberg_energy_drift_shrinks_second_order():
    sys = heisenberg_system()
    drifts = []
    for lev in range(2):
        N = 32 * 2**lev
        dt = 2e-3 / 4**lev
        steps = 50 * 4**lev
        grid = make_grid(spin_profiles(), N, L)
        out = evolve(sys, grid, dt, steps)
        drifts.append(abs(spin_energy(out) - spin_energy(grid)))
    assert drifts[0] / drifts[1] >= 3.0


def test_dump_csv_format(tmp_path):
    grid = make_grid([np.sin], 8, 1.0)
    out = evolve(heat_system(), grid, 1e-5, 2)
    path = tmp_path / "snap.csv"
    with open(path, "w") as fp:
        dump_csv([grid, out], fp)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x,y1"
    assert len(lines) == 1 + 2 * 8
    t, x, y1 = lines[1].split(",")
    assert float(t) == 0.0 and float(x) == 0.0


def test_grid_validation():
    with pytest.raises(ValueError):
        SolutionGrid(4, 1.0, 0.0, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        SolutionGrid(8, 1.0, 0.0, np.full((8, 1), np.nan))


def test_transport_entire_flat_basis_equivariant():
    # every field of the flat symmetry basis generates an affine flow, which
    # commutes with the linear stencil exactly; the mismatch stays at the
    # flow-integrator tolerance on every refinement level
    from affsym.symmetry import flat_symmetry_basis

    sys = heat_system(2)
    for eta in flat_symmetry_basis(2):
        gaps = transport_convergence(
            sys, eta, 0.2, [np.sin, np.cos], N0=16, L=L, dt0=0.016, steps0=2, levels=2
        )
        assert max(gaps) <= 1e-9
