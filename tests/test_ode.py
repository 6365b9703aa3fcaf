"""The Dormand-Prince integrator: accuracy against closed forms, dense
output, the terminal event, step underflow, step counts, the rejection of
non-finite intervals, that a list y0 (integrated on Python floats) gives
the bits of an array y0 and of scipy's RK45, the typed errors of transport
and flows, that flows run their compiled fields bitwise as interpreted, and
that the library runs with scipy unimportable."""

import contextlib
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from affsym import pdesim, symmetry
from affsym.expr import parse_expr
from affsym.liefn import VectorField
from affsym.ode import IntegrationError, solve_ivp
from affsym.pfaff import PfaffProblem, TransportError, transport_to
from affsym.symmetry import FlowError, flow

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
UNDERFLOW = "Required step size is less than spacing between numbers."


def rotation_decay(t, y):
    return np.array([-0.1 * y[0] - y[1], y[0] - 0.1 * y[1]])


def rotation_decay_exact(t, y0):
    c, s = np.cos(t), np.sin(t)
    return np.exp(-0.1 * t) * np.array([c * y0[0] - s * y0[1], s * y0[0] + c * y0[1]])


@pytest.mark.parametrize("tf", [3.0, -2.0])
def test_linear_system_matches_closed_form(tf):
    y0 = np.array([1.0, 0.5])
    sol = solve_ivp(rotation_decay, (0.0, tf), y0, rtol=1e-10, atol=1e-12)
    assert sol.status == 0 and sol.t[0] == 0.0 and sol.t[-1] == tf
    assert sol.y.shape == (2, len(sol.t))
    assert np.max(np.abs(sol.y[:, -1] - rotation_decay_exact(tf, y0))) <= 1e-9
    # two calls to start, six per step attempted, rejected attempts included
    assert (sol.nfev - 2) % 6 == 0 and sol.nfev >= 2 + 6 * (len(sol.t) - 1)


def test_dense_output_matches_closed_form():
    # y' = y^2, y(0) = 1: y = 1 / (1 - t)
    sol = solve_ivp(lambda t, y: y * y, (0.0, 0.5), np.array([1.0]), 1e-9, 1e-10, dense_output=True)
    for t in np.linspace(0.0, 0.5, 23):
        assert abs(sol.sol(t)[0] - 1.0 / (1.0 - t)) <= 1e-7
    assert sol.sol(0.0)[0] == 1.0


def test_terminal_event_stops_at_its_crossing():
    # y' = y^2 from 2 blows up at t = 1/2; the guard's |y| = 1e8 is crossed
    # at 1/2 - 1e-8
    sol = solve_ivp(lambda t, y: y * y, (0.0, 1.0), np.array([2.0]), 1e-9, 1e-10)
    assert sol.status == 1 and sol.message == "A termination event occurred."
    assert abs(sol.t[-1] - (0.5 - 1e-8)) <= 1e-9
    assert abs(sol.y[0, -1] / 1e8 - 1.0) <= 1e-6  # the dense output at the crossing


def test_nan_right_hand_side_stops_with_step_underflow():
    def fun(t, y):
        return y * (np.nan if t > 0.5 else 1.0)

    sol = solve_ivp(fun, (0.0, 1.0), np.array([1.0, 2.0]), 1e-9, 1e-10)
    assert sol.status == -1 and sol.message == UNDERFLOW
    assert 0.49 < sol.t[-1] <= 0.5 and np.all(np.isfinite(sol.y))
    assert 0.0 < sol.last_step < 1e-13


def _bounded(fun, limit=1000):
    """fun, failing the test past ``limit`` calls, so a run that never ends
    fails instead of hanging; y is handed to fun as an array."""
    calls = []

    def bounded(t, y):
        calls.append(t)
        assert len(calls) <= limit, f"still integrating after {limit} calls, at t = {t}"
        return fun(t, np.asarray(y))

    return bounded


@pytest.mark.parametrize("state", [np.array, list], ids=["array", "floats"])
@pytest.mark.parametrize(
    "fun, y0, atol",
    [
        # d1 = nan, so the first step is nan
        (lambda t, y: np.array([np.nan]), [1.0], 1e-10),
        # atol = 0 and y0[0] = 0: the error scale is 0 and d0 = 0 / 0 = nan
        (lambda t, y: np.array([0.0, -y[1]]), [0.0, 1.0], 0.0),
        # d1 = inf, so h0 = 0 and d2 divides by it
        (lambda t, y: np.array([np.inf]), [0.5], 1e-10),
    ],
    ids=["nan-slope", "zero-scale", "infinite-slope"],
)
def test_starts_without_a_finite_first_step_underflow(fun, y0, atol, state):
    with np.errstate(all="ignore"):
        sol = solve_ivp(_bounded(fun), (0.0, 1.0), state(y0), 1e-9, atol)
    assert sol.status == -1 and sol.message == UNDERFLOW
    assert list(sol.t) == [0.0]


def test_empty_interval_and_non_finite_start_raise():
    with pytest.raises(ValueError):
        solve_ivp(rotation_decay, (1.0, 1.0), np.ones(2), 1e-9, 1e-10)
    with pytest.raises(ValueError):
        solve_ivp(rotation_decay, (0.0, 1.0), np.array([1.0, np.nan]), 1e-9, 1e-10)


@contextlib.contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError if it runs longer than ``seconds``
    (where SIGALRM exists), so a loop that never ends fails the test."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "t_span", [(0.0, np.inf), (0.0, -np.inf), (0.0, np.nan), (np.nan, 1.0), (-np.inf, 0.0)]
)
def test_non_finite_interval_raises(t_span):
    with deadline(5), pytest.raises(ValueError, match="is not finite"):
        solve_ivp(rotation_decay, t_span, np.ones(2), 1e-9, 1e-10)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_flows_over_a_non_finite_time_raise(tau):
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    with deadline(5), pytest.raises(ValueError, match="is not finite"):
        flow(eta, np.array([1.0, 0.0]), tau)
    grid = pdesim.make_grid([np.sin, np.cos], 8, 2 * np.pi)
    with deadline(5), pytest.raises(ValueError, match="is not finite"):
        pdesim.apply_flow_to_grid(eta, grid, tau)


def vdp(t, y):
    """Van der Pol at mu = 8: its fast transitions make the control reject."""
    return np.array([y[1], 8.0 * (1 - y[0] ** 2) * y[1] - y[0]])


def test_step_counts_account_for_every_call():
    runs = [
        solve_ivp(rotation_decay, (0.0, 3.0), np.array([1.0, 0.5]), 1e-10, 1e-12),
        solve_ivp(vdp, (0.0, 6.0), np.array([2.0, 0.0]), 1e-6, 1e-8),
        solve_ivp(lambda t, y: y * y, (0.0, 1.0), np.array([2.0]), 1e-9, 1e-10),  # blow-up
        solve_ivp(lambda t, y: y * (np.nan if t > 0.5 else 1.0), (0.0, 1.0), np.ones(2), 1e-9, 1e-10),
    ]
    for sol in runs:
        assert type(sol.n_accepted) is int and type(sol.n_rejected) is int
        assert sol.nfev == 2 + 6 * (sol.n_accepted + sol.n_rejected)
        assert sol.n_accepted == len(sol.t) - 1
    assert [sol.status for sol in runs] == [0, 0, 1, -1]
    assert runs[1].n_rejected > 0 and runs[3].n_rejected > 0  # underflow comes by rejection
    beyond = solve_ivp(rotation_decay, (0.0, 1.0), np.array([2e8, 0.0]), 1e-9, 1e-10)
    assert (beyond.status, beyond.nfev, beyond.n_accepted, beyond.n_rejected) == (1, 0, 0, 0)


def test_matches_scipy_rk45_bitwise():
    integrate = pytest.importorskip("scipy.integrate")
    rng = np.random.default_rng(11)
    rejected = 0
    for trial in range(12):
        M = rng.normal(size=(3, 3))

        def fun(t, y, M=M):
            return np.sin(M @ y) + np.cos(t) * y[::-1]

        y0, tf = rng.normal(size=3), (-1.5, 2.0)[trial % 2]
        want = integrate.solve_ivp(fun, (0.0, tf), y0, method="RK45", rtol=1e-9, atol=1e-10, dense_output=True)
        got = solve_ivp(fun, (0.0, tf), y0, 1e-9, 1e-10, dense_output=True)
        assert got.nfev == want.nfev
        assert got.n_accepted == len(want.t) - 1
        rejected += got.n_rejected
        assert [v.hex() for v in got.t] == [float(v).hex() for v in want.t]
        assert [v.hex() for v in got.y.ravel()] == [v.hex() for v in want.y.ravel()]
        for t in np.linspace(0.0, tf, 9):
            assert [v.hex() for v in got.sol(t)] == [v.hex() for v in want.sol(t)]
    assert rejected > 0  # the step factor after a rejection is compared too


def test_matches_scipy_rk45_bitwise_on_python_floats(monkeypatch):
    # the same 12 trials from a list y0, so the state is kept on Python floats;
    # fun gets a list and turns it into the array the trial's function takes
    def on_floats(fun, t_span, y0, *args, integrate=solve_ivp, **kwargs):
        def fun_on_floats(t, y):
            assert type(y) is list
            return fun(t, np.asarray(y))

        return integrate(fun_on_floats, t_span, y0.tolist(), *args, **kwargs)

    monkeypatch.setitem(globals(), "solve_ivp", on_floats)
    test_matches_scipy_rk45_bitwise()


def nan_stage(t, y):
    """Slopes that go nan in one component past y1 = 1.2, so a stage input
    there makes y_new and |y_new| nan in that component only."""
    return np.array([1.0, np.sqrt(1.2 - y[0]) if y[0] <= 1.2 else np.nan])


@pytest.mark.parametrize(
    "fun, y0, atol",
    [
        (nan_stage, [1.0, 0.5], 1e-10),
        # y underflows to 0, and with atol = 0 the error scale is 0: 0 / 0 is nan
        (lambda t, y: -1000.0 * y, [1e-300], 0.0),
    ],
)
def test_nan_error_scale_is_the_same_on_both_paths(fun, y0, atol):
    # a parity test of the two paths: each rejects the nan steps alike
    with np.errstate(all="ignore"):
        runs = [
            solve_ivp(lambda t, y: fun(t, np.asarray(y)), (0.0, 1.0), state, 1e-9, atol)
            for state in (np.array(y0), list(y0))
        ]
    on_arrays, on_floats = runs
    assert on_arrays.status == on_floats.status == -1
    assert on_arrays.nfev == on_floats.nfev and on_arrays.n_rejected > 0
    assert _hex(on_arrays.t) == _hex(on_floats.t) and _hex(on_arrays.y) == _hex(on_floats.y)


def test_initial_step_with_zero_slope_and_nan_beyond_matches_scipy_rk45():
    # f(0) = 0 and f is nan for t > 0, so d1 = 0 and d2 = nan: scipy divides
    # 0.01 by max(d1, d2) = 0 on numpy scalars and starts from h1 = inf
    integrate = pytest.importorskip("scipy.integrate")

    def fun(t, y):
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.array([-0.3 * t])) * -0.3

    with np.errstate(divide="ignore"):
        want = integrate.solve_ivp(fun, (0.0, 1.0), np.zeros(1), method="RK45", rtol=1e-9, atol=1e-10)
    got = solve_ivp(fun, (0.0, 1.0), np.zeros(1), 1e-9, 1e-10)
    assert got.status == want.status == -1
    assert got.nfev == want.nfev
    assert _hex(got.t) == _hex(want.t) and _hex(got.y) == _hex(want.y)


def test_flow_blowup_guard_raises_typed_error():
    eta = VectorField.from_strings(2, ["y1^2", "0.5*y2"])  # y1 = 1 / (1 - t)
    with pytest.raises(FlowError) as err:
        flow(eta, np.array([1.0, 0.1]), 5.0)
    exc = err.value
    assert str(exc) == "flow left the working region (blow-up guard) (reached t = 1)"
    assert isinstance(exc, IntegrationError) and isinstance(exc, RuntimeError)
    assert exc.status == 1 and 0.99 < exc.t_reached < 1.0
    assert exc.nfev > 2 and 0.0 < exc.last_step < 1.0


def test_flow_step_underflow_raises_typed_error():
    # y1' = -1/y1 from 0.1 reaches the pole y1 = 0 at t = 0.005, where the
    # slope is infinite and the step underflows
    eta = VectorField.from_strings(1, ["-1/y1"])
    with pytest.raises(FlowError) as err:
        flow(eta, np.array([0.1]), 1.0)
    exc = err.value
    assert str(exc) == (
        "integration failed: Required step size is less than spacing between numbers. (reached t = 0.005)"
    )
    assert exc.status == -1 and 0.0049 < exc.t_reached < 0.0051


def test_grid_flow_step_underflow_raises_typed_error():
    eta = VectorField.from_strings(1, ["-1/y1"])
    grid = pdesim.make_grid([lambda x: 0.1 + 0.0 * x], 8, 1.0)
    with pytest.raises(IntegrationError) as err:
        pdesim.apply_flow_to_grid(eta, grid, 1.0)
    exc = err.value
    assert str(exc) == "grid flow failed: Required step size is less than spacing between numbers."
    assert exc.status == -1 and 0.0049 < exc.t_reached < 0.0051


@pytest.mark.parametrize("tau", [1.0, 0.5])
def test_flow_started_beyond_the_guard_ends_at_once(tau):
    # y1 = 2e8 exp(-t) is back inside at t = ln 2; the start is already beyond
    with pytest.raises(FlowError) as err:
        flow(VectorField.from_strings(1, ["-y1"]), np.array([2e8]), tau)
    exc = err.value
    assert str(exc) == "flow left the working region (blow-up guard) (reached t = 0)"
    assert exc.status == 1 and exc.t_reached == 0.0 and exc.nfev == 0


def test_transport_blowup_raises_typed_error():
    rhs = np.array([[parse_expr("y1^2", 2)]], dtype=object)  # du/dy = u^2: pole at y = 1
    prob = PfaffProblem(1, 1, rhs, p0=[0.0], u0=[1.0])
    with pytest.raises(TransportError) as err:
        transport_to(prob, [1.5])
    exc = err.value
    assert str(exc) == "transport blew up at segment parameter t = 0.6667"
    assert exc.status == 1 and abs(exc.t_reached - 2.0 / 3.0) <= 1e-6 and exc.nfev > 2


def test_transport_nan_rhs_raises_step_underflow():
    rhs = np.array([[parse_expr("sqrt(0.5 - y2)", 2)]], dtype=object)  # NaN past y = 0.5
    prob = PfaffProblem(1, 1, rhs, p0=[0.0], u0=[1.0])
    with pytest.raises(TransportError) as err:
        transport_to(prob, [1.0])
    exc = err.value
    assert str(exc) == f"transport failed: {UNDERFLOW}"
    assert exc.status == -1 and 0.49 < exc.t_reached <= 0.5
    assert exc.nfev > 2 and 0.0 < exc.last_step < 1e-13


FLOW_FIELDS = (["-y2 + 0.3*y1^2", "y1"], ["sin(y2) + y1^2", "exp(y1)/(1 + y2^2)"])


def _recording_solver(monkeypatch, module):
    """Make ``module`` integrate through a solve_ivp that keeps its results."""
    results = []

    def recording(*args, **kwargs):
        results.append(solve_ivp(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(module, "solve_ivp", recording)
    return results


def _hex(a):
    return [v.hex() for v in np.asarray(a, dtype=float).ravel()]


@pytest.mark.parametrize("comps", FLOW_FIELDS)
def test_flow_runs_compiled_field_bitwise_as_interpreted(monkeypatch, comps):
    eta = VectorField.from_strings(2, comps)
    p = np.array([0.1, -0.2])
    runs = _recording_solver(monkeypatch, symmetry)
    got = flow(eta, p, 0.7)

    def interpreted(_t, y):
        return eta.evaluate_many(y[None, :])[0]

    want = solve_ivp(interpreted, (0.0, 0.7), p, 1e-9, 1e-10)
    assert _hex(got) == _hex(want.y[:, -1])
    assert runs[0].nfev == want.nfev and _hex(runs[0].t) == _hex(want.t)


@pytest.mark.parametrize("comps", FLOW_FIELDS)
def test_grid_flow_runs_compiled_field_bitwise_as_interpreted(monkeypatch, comps):
    eta = VectorField.from_strings(2, comps)
    grid = pdesim.make_grid([lambda x: 0.2 * np.sin(x), lambda x: 0.1 * np.cos(x)], 8, 2 * np.pi)
    runs = _recording_solver(monkeypatch, pdesim)
    got = pdesim.apply_flow_to_grid(eta, grid, 0.4)

    def interpreted(_t, z):
        return eta.evaluate_many(z.reshape(8, 2)).reshape(-1)

    want = solve_ivp(interpreted, (0.0, 0.4), grid.values.reshape(-1), 1e-10, 1e-12)
    assert _hex(got.values) == _hex(want.y[:, -1])
    assert runs[0].nfev == want.nfev and _hex(runs[0].t) == _hex(want.t)


def test_grid_flow_blowup_guard_raises_typed_error():
    eta = VectorField.from_strings(1, ["y1^2"])  # y1 = 1 / (1 - t) from 1
    grid = pdesim.make_grid([lambda x: 1.0 + 0.0 * x], 8, 1.0)
    with pytest.raises(IntegrationError) as err:
        pdesim.apply_flow_to_grid(eta, grid, 5.0)
    exc = err.value
    assert str(exc) == "grid flow left the working region (blow-up guard)"
    assert exc.status == 1 and 0.99 < exc.t_reached < 1.0


def test_library_runs_with_scipy_unimportable():
    script = textwrap.dedent(
        """
        import sys

        class BlockScipy:
            def find_spec(self, name, path=None, target=None):
                if name == "scipy" or name.startswith("scipy."):
                    raise ImportError(name + " is blocked")
                return None

        sys.meta_path.insert(0, BlockScipy())
        import numpy as np
        import affsym, affsym.cli
        from affsym import canonical, pdesim, pfaff
        from affsym.liefn import VectorField
        from affsym.symmetry import flow

        sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=2))
        u = pfaff.transport_to(pfaff.named_system("covector_14", conn=sysd.conn), [0.1, -0.2])
        eta = VectorField.from_strings(2, ["-y2", "y1"])
        p = flow(eta, np.array([1.0, 0.0]), np.pi / 2)
        grid = pdesim.apply_flow_to_grid(eta, pdesim.make_grid([np.sin, np.cos], 8, 2 * np.pi), 0.3)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(grid.values))
        assert abs(p[0]) < 1e-8 and abs(p[1] - 1.0) < 1e-8
        assert "scipy" not in sys.modules
        print("ok")
        """
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
