"""Method-of-lines evolution, residuals, symmetry transport, and the spin
chain on the sphere."""

import itertools
import os
import re
import warnings

import numpy as np
import pytest

from affsym import pdesim
from affsym.canonical import CanonicalSpec, build_system
from affsym.cli import SystemDocument
from affsym.expr import eval_many_shared
from affsym.geometry import Connection, DiffusionSystem, scalar_operator, transform_system
from affsym.liefn import VectorField
from affsym.ode import solve_ivp
from affsym.pdesim import (
    SolutionGrid,
    _coeff_evaluators,
    _Operator,
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
from affsym.tensor import PointMap, TensorField
from test_compile import assert_cache_rows

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


def test_stability_warning_names_the_caller():
    # the warning points at the line that asked for the evolution, not at a
    # line of pdesim's own
    sysd = heisenberg_system()
    grid = make_grid([lambda x: 0.3 * np.sin(x), lambda x: 0.2 * np.cos(2 * x)], 8, 1.0)
    with pytest.warns(RuntimeWarning, match="exceeds the stability heuristic") as caught:
        evolve(sysd, grid, 0.05, 1)
        evolve_snapshots(sysd, grid, 0.05, 1, 1)
    assert [w.filename for w in caught] == [__file__] * 2


def test_every_evolving_function_warns_for_its_caller():
    # a function that evolves through evolve warns for the line that called
    # it, not for a line of pdesim's own
    heat, eta = heat_system(), VectorField.from_strings(1, ["1"])
    grid = make_grid([np.sin], 16, L)
    dt = 1.25 * stability_limit(heat, grid)  # beyond the heuristic, below RK4's limit
    spin = make_grid([lambda x: 0.3 * np.sin(x), lambda x: 0.2 * np.cos(2 * x)], 8, 1.0)
    with pytest.warns(RuntimeWarning, match="exceeds the stability heuristic") as caught:
        symmetry_transport_check(heat, eta, 0.1, grid, dt, 2)
        transport_convergence(heat, eta, 0.1, [np.sin], 16, L, dt, 1, levels=1)
        heisenberg_embedding_residual(spin, 0.05)
    assert [w.filename for w in caught] == [__file__] * 6


def test_a_time_beyond_the_float_range_is_refused_before_the_evolution():
    # dt*steps overflowed only in the last snapshot's t, after the whole
    # evolution and its stability warning
    sys = heat_system()
    grid = make_grid([np.sin], 16, L)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for call in (lambda: evolve(sys, grid, 1e308, 2), lambda: evolve_snapshots(sys, grid, -1e308, 4, 2)):
            with pytest.raises(ValueError, match="^t \\+ dt\\*steps is beyond the float range"):
                call()
        with pytest.raises(ValueError, match="beyond the float range"):
            evolve(sys, grid.copy(t=1.7e308), 1e307, 2)
    assert caught == []


def test_backward_step_beyond_the_limit_warns():
    sys = heisenberg_system()
    grid = make_grid([lambda x: 0.3 * np.sin(x), lambda x: 0.2 * np.cos(2 * x)], 64, L)
    limit = stability_limit(sys, grid)
    with pytest.warns(RuntimeWarning, match="exceeds the stability heuristic"):
        evolve(sys, grid, -3 * limit, 1)


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


def test_evolve_refuses_a_step_that_is_not_finite_and_a_negative_count():
    # a nan or infinite dt would blow up at step 1, a negative count return
    # the initial grid; a negative finite dt steps backwards
    sys = heat_system()
    grid = make_grid([np.sin], 16, L)
    for dt in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=re.escape(f"dt must be finite, got {dt!r}")):
            evolve_snapshots(sys, grid, dt, 3, 1)
    for call in (evolve, lambda *a: evolve_snapshots(*a, 1)):
        with pytest.raises(ValueError, match="steps must be at least 0, got -1"):
            call(sys, grid, 0.01, -1)
    back = evolve(sys, evolve(sys, grid, 1e-4, 2), -1e-4, 2)
    assert np.max(np.abs(back.values - grid.values)) < 1e-9


def test_evolve_refuses_a_count_that_is_not_an_int():
    # every = 2.5 kept only the first and last grids, and evolve with
    # steps = 2.5 failed in range with a bare TypeError
    sys = heat_system()
    grid = make_grid([np.sin], 16, L)
    for bad in (2.5, 4.0, True, "4", None):
        with pytest.raises(ValueError, match=re.escape(f"every must be an int, got {bad!r}")):
            evolve_snapshots(sys, grid, 0.01, 4, bad)
        with pytest.raises(ValueError, match=re.escape(f"steps must be an int, got {bad!r}")):
            evolve_snapshots(sys, grid, 0.01, bad, 1)
        with pytest.raises(ValueError, match=re.escape(f"steps must be an int, got {bad!r}")):
            evolve(sys, grid, 1e-3, bad)
    snaps = evolve_snapshots(sys, grid, 0.01, np.int64(4), np.int32(2))
    want = evolve_snapshots(sys, grid, 0.01, 4, 2)
    assert [s.t for s in snaps] == [s.t for s in want] == [0.0, 0.02, 0.04]
    assert all(np.array_equal(a.values, b.values) for a, b in zip(snaps, want))


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
            got = _Operator(coeffs, sys.n, N, L / N)(values)
            want = einsum_rhs(sys, values, L / N)
            assert got.shape == want.shape, name
            assert np.array_equal(hexes(got), hexes(want)), (name, N)


def column_rhs(sys, values, dx):
    """The right-hand side by the column route: rolled stencils on the
    (N, n) values, concatenated into (N, 3n) points, and the interpreted
    walk of the compiled program's roots there, stacked into (N, n)."""
    up = np.roll(values, -1, axis=0)
    dn = np.roll(values, 1, axis=0)
    d1 = (up - dn) / (2.0 * dx)
    d2 = (up - 2.0 * values + dn) / dx**2
    points = np.concatenate([values, d1, d2], axis=1)
    return np.stack(eval_many_shared(list(sys.coeff_program), points), axis=1)


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
    # the column route shares neither the compiled array code nor the
    # stage buffers; with n = 1 and a snapshot every step, each snapshot
    # must keep its own values, not the state's storage
    hexes = np.frompyfunc(float.hex, 1, 1)
    smooth = [
        lambda x: 0.3 * np.sin(x) + 0.1 * np.cos(3 * x),
        lambda x: 0.2 * np.exp(np.cos(x)) - 0.3,
    ]
    cases = [(transcendental_system(), smooth, 2), (heat_system(), smooth[:1], 1)]
    for (sys, profiles, every), N in itertools.product(cases, (64, 1024, 4096)):
        grid = make_grid(profiles, N, L)
        dt = 0.5 * stability_limit(sys, grid)
        snaps = evolve_snapshots(sys, grid, dt, 8, every)
        times, values = column_evolve(sys, grid, dt, 8, every)
        assert [s.t for s in snaps] == times
        for a, b in itertools.combinations(snaps, 2):
            assert not np.shares_memory(a.values, b.values), N
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


def test_padded_rows_run_is_bitwise_the_column_route():
    # N = 1001 is not a multiple of the 8 values in a cache line, so every
    # row of the ghost block ends in padding, while each state strip is one
    # contiguous (n, N) run; N = 8 is the smallest grid.  With a snapshot
    # every step the two state strips alternate under them
    hexes = np.frompyfunc(float.hex, 1, 1)
    systems = [heat_system(), build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))]
    for sys, N in itertools.product(systems, (8, 1001)):
        profiles = [
            lambda x, k=k: 0.3 * np.sin(x + k) + 0.1 * np.cos(2 * x) for k in range(sys.n)
        ]
        grid = make_grid(profiles, N, L)
        dt = 0.5 * stability_limit(sys, grid)
        snaps = evolve_snapshots(sys, grid, dt, 5, 1)
        times, values = column_evolve(sys, grid, dt, 5, 1)
        assert [s.t for s in snaps] == times
        for a, b in itertools.combinations(snaps, 2):
            assert not np.shares_memory(a.values, b.values), (sys.n, N)
        for snap, want in zip(snaps, values):
            assert snap.values.flags.c_contiguous, (sys.n, N)
            assert np.array_equal(hexes(snap.values), hexes(want)), (sys.n, N)


def test_two_and_four_components_run_bitwise_the_column_route():
    # n = 2 with A's complex spectrum (the spin chain) and n = 4, on the
    # smallest grid and on one whose rows end in padding, a snapshot every step
    hexes = np.frompyfunc(float.hex, 1, 1)
    systems = [heisenberg_system(), build_system(CanonicalSpec("constcurv_22_13", n=4, a=1.0))]
    for sys, N in itertools.product(systems, (8, 1001)):
        profiles = [
            lambda x, k=k: 0.3 * np.sin(x + k) + 0.1 * np.cos(2 * x) for k in range(sys.n)
        ]
        grid = make_grid(profiles, N, L)
        dt = 0.5 * stability_limit(sys, grid)
        snaps = evolve_snapshots(sys, grid, dt, 5, 1)
        times, values = column_evolve(sys, grid, dt, 5, 1)
        assert [s.t for s in snaps] == times
        for snap, want in zip(snaps, values):
            assert np.array_equal(hexes(snap.values), hexes(want)), (sys.n, N)


def nan_padded(buffer):
    """_buffer with every value outside the block's interior columns and
    the strips set to nan."""

    def padded(n, N, strips):
        rows, arrays = buffer(n, N, strips)
        rows.base[...] = np.nan
        rows[:, 1 : N + 1] = 0.0
        for strip in arrays:
            strip[...] = 0.0
        return rows, arrays

    return padded


def test_padding_and_ghost_columns_are_never_read_before_they_are_written(monkeypatch):
    # the stencil's calls run over padding too; a nan read from there into
    # an interior value would show in the snapshots or blow the run up
    monkeypatch.setattr(pdesim, "_buffer", nan_padded(pdesim._buffer))
    hexes = np.frompyfunc(float.hex, 1, 1)
    systems = [heat_system(), build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))]
    for sys, N in itertools.product(systems, (8, 1001)):
        profiles = [
            lambda x, k=k: 0.3 * np.sin(x + k) + 0.1 * np.cos(2 * x) for k in range(sys.n)
        ]
        grid = make_grid(profiles, N, L)
        dt = 0.5 * stability_limit(sys, grid)
        snaps = evolve_snapshots(sys, grid, dt, 5, 1)
        times, values = column_evolve(sys, grid, dt, 5, 1)
        for snap, want in zip(snaps, values):
            assert np.array_equal(hexes(snap.values), hexes(want)), (sys.n, N)
        defects = (
            (values[k + 1] - values[k - 1]) / (2.0 * (times[1] - times[0]))
            - column_rhs(sys, values[k], grid.dx)
            for k in range(1, len(values) - 1)
        )
        worst = max(float(np.max(np.abs(d))) for d in defects)
        assert pde_residual(sys, snaps).hex() == worst.hex(), (sys.n, N)


@pytest.mark.parametrize("N", [8, 64, 1001, 1024, 4096])
def test_every_stage_reads_one_ghost_block_from_cache_lines(monkeypatch, N):
    # the (3n, N) interior that each stage hands to the coefficients starts
    # every row on a cache line, and all the stages of an evolve share it
    seen = []
    evaluators = pdesim._coeff_evaluators

    def spy(sys):
        rhs = evaluators(sys)

        def recorded(rows):
            seen.append(rows)
            return rhs(rows)

        return recorded

    monkeypatch.setattr(pdesim, "_coeff_evaluators", spy)
    sys = build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))
    grid = make_grid([lambda x, k=k: 0.2 * np.sin(x + k) for k in range(3)], N, L)
    evolve(sys, grid, 0.5 * stability_limit(sys, grid), 2)
    assert len(seen) == 8
    assert len({rows.__array_interface__["data"][0] for rows in seen}) == 1
    assert seen[0].shape == (9, N)
    assert_cache_rows(seen[0])


def test_stability_limit_is_the_max_eigenvalue_over_all_points(monkeypatch):
    # a constant A is read from its nodes, not evaluated, and any other A is
    # evaluated at every point in one checked walk; either way the limit is
    # bitwise that of A's eigenvalues at all points
    seen = []
    evaluate, evaluate_many = TensorField.evaluate, TensorField.evaluate_many

    def spy(field, points):
        seen.append(len(points))
        return evaluate(field, points)

    systems = [
        (heisenberg_system(), True),
        (build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0)), True),
        (transcendental_system(), False),
    ]
    for sys, constant in systems:
        profiles = [lambda x, k=k: 0.3 * np.sin(x + k) + 0.1 * np.cos(2 * x) for k in range(sys.n)]
        for N in (64, 4096):
            grid = make_grid(profiles, N, L)
            lam = np.max(np.abs(np.linalg.eigvals(evaluate_many(sys.A, grid.values))))
            monkeypatch.setattr(TensorField, "evaluate", spy)
            limit = stability_limit(sys, grid)
            monkeypatch.undo()
            assert limit.hex() == (0.4 * grid.dx**2 / lam).hex(), N
            assert seen == ([] if constant else [N]), N
            seen.clear()


def test_constant_a_radius_is_taken_once_per_system(monkeypatch):
    # across evolves and stability_limit calls at two grid sizes, A's
    # eigenvalues are taken once, from its nodes, with the limit's bits
    calls = []
    eigvals = np.linalg.eigvals

    def counted(mats):
        calls.append(mats.shape)
        return eigvals(mats)

    for sys in (heisenberg_system(), build_system(CanonicalSpec("constcurv_22_13", n=3, a=1.0))):
        profiles = [lambda x, k=k: 0.3 * np.sin(x + k) for k in range(sys.n)]
        monkeypatch.setattr(np.linalg, "eigvals", counted)
        for N in (64, 4096, 64):
            grid = make_grid(profiles, N, L)
            limit = stability_limit(sys, grid)
            evolve(sys, grid, 0.5 * limit, 2)
            evolve_snapshots(sys, grid, -0.5 * limit, 2, 1)
            lam = np.max(np.abs(eigvals(sys.A.evaluate_many(grid.values))))
            assert stability_limit(sys, grid).hex() == limit.hex() == (0.4 * grid.dx**2 / lam).hex(), N
        monkeypatch.undo()
        assert calls == [(sys.n, sys.n)]
        calls.clear()


def test_stability_limit_refuses_a_grid_of_another_dimension():
    # a constant A is read from its nodes, not at the grid's values; the
    # grid's dimension is checked all the same
    for sys in (heisenberg_system(), transcendental_system()):
        with pytest.raises(ValueError, match="system and grid dimensions differ"):
            stability_limit(sys, make_grid([np.sin], 16, L))


def chart_covariance_errors(flip):
    """Max errors at T = 0.05, at N = 32, 64 and 128 and dt near 0.2 dx^2, of
    the flat system A = [[1, 0.3], [0, 0.5]], Gamma = 0 moved by
    phi(y) = (y1 + y2^2/2, exp(y2) - 1), from phi(0.3 sin x, 0.2 cos 2x),
    against phi of the flat solution sin x expm(-At)(0.3, 0) +
    cos 2x expm(-4At)(0, 0.2); with Gamma's sign flipped if ``flip``."""
    flat = DiffusionSystem(2, TensorField.from_strings(2, 1, 1, [["1", "0.3"], ["0", "0.5"]]), Connection.zeros(2))
    phi = PointMap.from_strings(2, ["y1 + y2^2/2", "exp(y2) - 1"], ["y1 - ln(1 + y2)^2/2", "ln(1 + y2)"])
    sys = transform_system(flat, phi)
    if flip:
        sys = DiffusionSystem(2, sys.A, Connection(2, sys.conn.field.scale(-1.0).comps), check=False)

    def moved(u):
        return np.stack([u[:, 0] + u[:, 1] ** 2 / 2, np.exp(u[:, 1]) - 1], axis=-1)

    def expm(s):
        # exp(-s A) for the upper triangular A, eigenvalues 1 and 0.5
        return np.array([[np.exp(-s), 0.6 * (np.exp(-s) - np.exp(-s / 2))], [0.0, np.exp(-s / 2)]])

    errors = []
    for N in (32, 64, 128):
        steps = int(np.ceil(0.05 / (0.2 * (L / N) ** 2)))
        grid = make_grid([lambda x: 0.3 * np.sin(x), lambda x: 0.2 * np.cos(2 * x)], N, L)
        out = evolve(sys, grid.copy(values=moved(grid.values)), 0.05 / steps, steps)
        x, t = out.x[:, None], out.t
        exact = np.sin(x) * (expm(t) @ [0.3, 0.0]) + np.cos(2 * x) * (expm(4 * t) @ [0.0, 0.2])
        errors.append(float(np.max(np.abs(out.values - moved(exact)))))
    return errors


def test_curved_chart_solution_converges_to_the_moved_closed_form():
    # the system is covariant under a point map: phi of the flat solution
    # solves the moved system, whose A and Gamma vary with u; the error
    # shrinks at second order (criterion 8's bounds), and a wrong Gamma
    # misses by an amount that does not shrink
    errors = chart_covariance_errors(flip=False)
    assert 1e-4 < errors[1] < 2e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 <= coarse / fine <= 4.6
    wrong = chart_covariance_errors(flip=True)
    assert min(wrong) > 10 * errors[0]
    assert all(coarse / fine < 1.5 for coarse, fine in zip(wrong, wrong[1:]))


def composed_errors(sys, geodesic, flip):
    """Max errors at T = 0.05, at N = 32, 64 and 128 and dt near 0.2 dx^2, of
    a system with A = I from geodesic(sin x), against geodesic(e^-t sin x):
    geodesic maps s (N,) to the points (N, n) of a geodesic of sys's Gamma,
    and e^-t sin x solves the heat equation; with Gamma's sign flipped if
    ``flip``."""
    n = sys.n
    if flip:
        sys = DiffusionSystem(n, sys.A, Connection(n, sys.conn.field.scale(-1.0).comps), check=False)
    errors = []
    for N in (32, 64, 128):
        steps = int(np.ceil(0.05 / (0.2 * (L / N) ** 2)))
        grid = make_grid([np.sin], N, L)
        out = evolve(sys, grid.copy(values=geodesic(np.sin(grid.x))), 0.05 / steps, steps)
        errors.append(float(np.max(np.abs(out.values - geodesic(np.exp(-out.t) * np.sin(out.x))))))
    return errors


def geodesic_errors(n, flip):
    """``composed_errors`` of constcurv_22_13 (a = 1, every epsilon +1),
    whose Gamma is the Levi-Civita connection of delta/f^2, f = 1/(2(n-1))
    + |y|^2/2: gamma(s) = v c tan(c s/2), c = sqrt(1/(n-1)), is its radial
    geodesic through 0 with unit velocity v = (1, ..., 1)/sqrt(n)."""
    c, v = np.sqrt(1.0 / (n - 1)), np.full(n, 1.0 / np.sqrt(n))

    def geodesic(s):
        return v * (c * np.tan(c * s / 2))[:, None]

    return composed_errors(build_system(CanonicalSpec("constcurv_22_13", n=n, a=1.0)), geodesic, flip)


@pytest.mark.parametrize("n", [2, 3])
def test_geodesic_solution_converges_to_the_closed_form(n):
    # a geodesic of Gamma composed with a solution of the heat equation
    # solves the system (A = I); the error shrinks at second order
    # (criterion 8's bounds), and a wrong Gamma misses by an amount that
    # does not shrink
    errors = geodesic_errors(n, flip=False)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 <= coarse / fine <= 4.6
    wrong = geodesic_errors(n, flip=True)
    assert min(wrong) >= 1e-3
    assert all(coarse / fine < 1.1 for coarse, fine in zip(wrong, wrong[1:]))


# (gamma, gamma') of the intermediate geodesic at s = -1
INTERMEDIATE_START = np.array([0.1, -0.2, 0.15, 0.3, 0.3, -0.4])


def intermediate_geodesic_rhs(_s, z):
    """The geodesic equation of intermediate_17_19 (n = 3, m = 1, u = y1)
    on z = (gamma, gamma'): its Gamma^k_rs = -(u_r d^k_s + u_s d^k_r) makes
    it gamma'' = 2 gamma^1 (gamma^1)' gamma'."""
    y1, v = z[0], z[3:]
    return np.concatenate([v, 2.0 * y1 * v[0] * v])


def intermediate_geodesic():
    """The geodesic of intermediate_17_19 (n = 3, m = 1, u = y1) with
    gamma(-1) = (0.1, -0.2, 0.15) and gamma'(-1) = (0.3, 0.3, -0.4), over
    s in [-1, 1], from ode.solve_ivp at rtol 1e-12 with dense output
    (``intermediate_geodesic_rhs``)."""
    sol = solve_ivp(
        intermediate_geodesic_rhs, (-1.0, 1.0), INTERMEDIATE_START, rtol=1e-12, atol=1e-12, dense_output=True
    )
    assert sol.status == 0
    return lambda s: np.array([sol.sol(v)[:3] for v in s])


def test_intermediate_geodesic_solution_converges():
    # as above, with a geodesic that has no closed form at hand: the error
    # shrinks at second order, and a wrong Gamma misses by an amount that
    # does not shrink
    sys = build_system(CanonicalSpec("intermediate_17_19", n=3, a=1.0, m=1, u=("y1",)))
    geodesic = intermediate_geodesic()
    errors = composed_errors(sys, geodesic, flip=False)
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.4 <= coarse / fine <= 4.6
    wrong = composed_errors(sys, geodesic, flip=True)
    assert min(wrong) > 10 * errors[0]
    assert all(coarse / fine < 1.1 for coarse, fine in zip(wrong, wrong[1:]))


@pytest.mark.parametrize("N", [64.5, "64", True, np.float64(64.0)])
def test_grid_size_must_be_an_int(N):
    # an N that is not an int was truncated or met a misleading error
    message = f"N must be an int, got {N!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SolutionGrid(N, L, 0.0, np.zeros((64, 1)))
    with pytest.raises(ValueError, match=re.escape(message)):
        make_grid([np.sin], N, L)
    assert make_grid([np.sin], np.int64(64), L).N == 64


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_grid_time_must_be_finite(t):
    # a nan time passed pde_residual's spacing checks and made its residual nan
    values = make_grid([np.sin, np.cos], 8, 1.0).values
    message = f"t must be finite, got {t!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        SolutionGrid(8, 1.0, t, values)
    with pytest.raises(ValueError, match=re.escape(message)):
        SolutionGrid(8, 1.0, 0.0, values).copy(t=t)


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


@pytest.mark.parametrize("edge", [-1, 8, 9, 100, 2.5, np.float64(2.0), True])
def test_pde_residual_refuses_a_mask_that_is_not_an_int_below_half_the_grid(edge):
    sys = heat_system()
    snaps = [make_grid([np.sin], 16, L).copy(t=k * 0.01) for k in range(3)]
    message = f"exclude_boundary must be an int k with 0 <= 2k < N = 16, got {edge!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        pde_residual(sys, snaps, exclude_boundary=edge)
    for edge in (0, 7, np.int64(7)):  # 7 leaves the two points 7 and 8
        assert np.isfinite(pde_residual(sys, snaps, exclude_boundary=edge))


def test_pde_residual_refuses_snapshots_that_do_not_advance():
    sys = heisenberg_system()
    g = make_grid([lambda x: 0.3 * np.sin(x), lambda x: 0.2 * np.cos(x)], 64, L)
    with pytest.raises(ValueError, match="snapshots do not advance in time"):
        pde_residual(sys, [g, g, g])


def test_pde_residual_is_nan_where_a_defect_is_nan():
    # Gamma^1_11 = sqrt(y1) is nan where u < 0; elsewhere the defect of these
    # stationary snapshots is |u_xx + sqrt(u) u_x^2|, up to 0.30
    sys = DiffusionSystem(1, scalar_operator(1, 1.0), Connection.from_strings(1, [[["sqrt(y1)"]]]))
    g = make_grid([lambda x: 0.3 * np.sin(x)], 64, L)
    snaps = [g.copy(t=k * 0.01) for k in range(3)]
    assert np.isnan(pde_residual(sys, snaps))


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


def test_transport_judges_eta_at_the_given_tolerances():
    # 1e-9*y1 is no symmetry: res_Gamma is 2e-9 and L_eta nabla Ric 2.4e-8,
    # within the default tolerances 1e-8 and 1e-7
    sys = build_system(CanonicalSpec("intermediate_17_19", n=3, a=1.0, m=1, u=("1",)))
    eta = VectorField.from_strings(3, ["1e-9*y1", "0", "0"])
    grid = make_grid([np.sin] * 3, 16, L)
    assert symmetry_transport_check(sys, eta, 0.1, grid, 1e-3, 2)["max_abs"] >= 0.0
    for kwargs, what in (({"tol": 1e-30}, "determining equations"), ({"invariance_tol": 1e-8}, "invariance suite")):
        with pytest.raises(ValueError, match=f"^eta does not pass the {what} on this system$"):
            symmetry_transport_check(sys, eta, 0.1, grid, 1e-3, 2, **kwargs)


def test_transport_report_is_both_trajectories_from_the_public_functions():
    # the quadratic sphere symmetry, whose flow is nonlinear: the two grids
    # differ, and the report holds them and their gap bit for bit
    sys = build_system(CanonicalSpec("constcurv_22_13", n=2, a=1.0))
    eta = VectorField.from_strings(2, ["(1 + y1^2 - y2^2)/2", "y1*y2"])
    grid = make_grid([lambda x: 0.25 * np.sin(x) + 0.05, lambda x: 0.2 * np.cos(x) - 0.03], 16, L)
    rep = symmetry_transport_check(sys, eta, 0.1, grid, 0.01, 5)
    first = evolve(sys, apply_flow_to_grid(eta, grid, 0.1), 0.01, 5)
    last = apply_flow_to_grid(eta, evolve(sys, grid, 0.01, 5), 0.1)
    for got, want in ((rep["evolve_of_mapped"], first), (rep["mapped_evolve"], last)):
        assert got.t == want.t and got.values.tobytes() == want.values.tobytes()
    assert rep["max_abs"] == float(np.max(np.abs(first.values - last.values))) > 0.0


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


@pytest.mark.parametrize("length", [0.0, -1.0, -0.0, np.inf, -np.inf, np.nan])
def test_grid_length_must_be_finite_and_positive(length):
    # refused before the profiles are sampled, so no numpy warning, no
    # stability limit of zero and no evolve on a negative dx
    message = f"grid length L must be finite and > 0, got {float(length)!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_grid([np.sin], 16, length)
    with pytest.raises(ValueError, match=re.escape(message)):
        SolutionGrid(8, length, 0.0, np.zeros((8, 1)))


@pytest.mark.parametrize(
    "length, passes",
    [(16 * 2.0**511, True), (16 * 2.0**512, False), (1e300, False),
     (16 * 2.0**-511, True), (16 * 2.0**-512, False), (1e-300, False)],
)
def test_grid_spacing_squared_must_be_a_finite_normal_float(length, passes):
    # stability_limit's dx**2 raised OverflowError beyond the largest float,
    # and the stencil divided by a dx**2 of 0 below the smallest normal one
    values = np.zeros((16, 1))
    if passes:
        assert stability_limit(heat_system(), SolutionGrid(16, length, 0.0, values)) > 0.0
        return
    message = f"(L/N)**2 is not a finite normal float for L = {length!r}, N = 16"
    with pytest.raises(ValueError, match=re.escape(message)):
        SolutionGrid(16, length, 0.0, values)


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
