"""Compiled programs: bitwise agreement with the interpreted evaluator, IEEE
edge cases, memory, and where Pfaff transport and the simulator compile."""

import glob
import importlib.util
import os
from fractions import Fraction

import numpy as np
import pytest

from affsym import canonical, pdesim, pfaff
from affsym.cli import main
from affsym.expr import (
    Program,
    compile_exprs,
    coord,
    div,
    eval_many_shared,
    func,
    parse_expr,
    powi,
)
from affsym.util import sample_points
from test_expr import FIXTURES, _fixture_roots, _handmade_roots

INSTRUMENT = os.path.join(os.path.dirname(__file__), "..", "perfbench", "instrument.py")


def assert_same(roots, points):
    """The program's (R, P) result equals the interpreted arrays bit for bit."""
    got = eval_many_shared(compile_exprs(roots), points)
    want = np.array(eval_many_shared(roots, points), dtype=float).reshape(len(roots), -1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_everywhere(roots, pts):
    assert_same(roots, pts)
    for p in pts:
        assert_same(roots, p)


@pytest.mark.parametrize(
    "case", ["handmade"] + sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
)
def test_program_matches_eval_many_shared(case):
    n, roots = _handmade_roots() if case == "handmade" else _fixture_roots(case)
    assert_same_everywhere(roots, sample_points(n, 15))


def named_problem(kind):
    """A fresh named system on the n = 2 constant-curvature geometry."""
    n = 2
    sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=n))
    g, _ = canonical.constcurv_metric(n)
    u = [parse_expr("0.3*y1 - y2^2", n), parse_expr("sin(y1)*y2", n)]
    return pfaff.named_system(kind, conn=sysd.conn, g=g, u_field=u)


@pytest.mark.parametrize("kind", pfaff.NAMED_KINDS)
def test_program_matches_on_every_named_rhs(kind):
    prob = named_problem(kind)
    roots = list(prob.rhs.flat) + prob.restrictions
    assert_same_everywhere(roots, sample_points(prob.k + prob.n, 10, seed=5))


def test_program_is_the_sequence_of_its_roots():
    _, roots = _handmade_roots()
    prog = compile_exprs(roots)
    assert isinstance(prog, Program) and len(prog) == len(roots)
    assert all(a is b for a, b in zip(prog, roots))
    assert len(eval_many_shared(prog, sample_points(2, 4))) == len(roots)


@pytest.mark.parametrize(
    "expr,at",
    [
        (div(parse_expr("1", 1), coord(1)), 0.0),
        (parse_expr("ln(y1)", 1), -1.0),
        (parse_expr("ln(y1)", 1), 0.0),
        (parse_expr("sqrt(y1)", 1), -1.0),
        (parse_expr("exp(y1)", 1), 1000.0),
        (parse_expr("y1^-2", 1), 0.0),
        (parse_expr("y1^-1", 1), 0.0),
        (parse_expr("y1^2", 1), 1e200),
        (powi(coord(1), Fraction(1, 3)), -8.0),
        (parse_expr("1/y1 - 1/y1", 1), 0.0),
    ],
)
def test_program_keeps_ieee_edge_cases(expr, at):
    roots = [expr, func("sin", expr)]
    assert_same(roots, [at])
    assert_same(roots, np.array([[at], [0.5], [at]]))
    assert not np.all(np.isfinite(eval_many_shared(compile_exprs(roots), [at])))


def test_program_keeps_the_sign_of_zero():
    # numpy takes x**0.5 as sqrt(x), which keeps -0.0; pow(-0.0, 0.5) is +0.0
    roots = [powi(coord(1), Fraction(1, 2)), parse_expr("-y1", 1)]
    assert_same(roots, [-0.0])
    assert_same(roots, [0.0])
    assert np.all(np.signbit(eval_many_shared(compile_exprs(roots[:1]), [-0.0])))


def test_program_of_constant_subtrees():
    # the smart constructors leave 1/0, ln(-1) and 0^-2 unfolded
    one, zero = parse_expr("1", 1), parse_expr("0", 1)
    roots = [div(one, zero), func("ln", parse_expr("-1", 1)), powi(zero, -2)]
    roots.append(div(coord(1), roots[0]))
    assert_same_everywhere(roots, np.array([[0.3], [-0.2]]))


def test_program_compiles_long_chains_without_recursion():
    # the parser builds sums iteratively, left-leaning
    e = parse_expr(" + ".join(["y1"] * 2500 + ["y2"] * 2500), 2)
    prog = compile_exprs([e])
    assert prog.source.count("\n") > 4000
    assert_same_everywhere([e], sample_points(2, 3))


def test_program_drops_arrays_after_last_use():
    import tracemalloc

    e = coord(1)
    for _ in range(300):
        e = func("sin", e)
    prog = compile_exprs([e])
    pts = np.linspace(-1.0, 1.0, 10_000)[:, None]
    tracemalloc.start()
    try:
        eval_many_shared(prog, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * pts.nbytes


def counting_compiles(monkeypatch, module):
    calls = []

    def counted(roots):
        calls.append(len(roots))
        return compile_exprs(roots)

    monkeypatch.setattr(module, "compile_exprs", counted)
    return calls


def test_pfaff_problem_compiles_once(monkeypatch):
    calls = counting_compiles(monkeypatch, pfaff)
    prob = named_problem("frame_17")
    assert calls == [len(prob.restrictions)]  # the initial-data check
    for end in ([0.1, 0.05], [-0.1, 0.2]):
        pfaff.transport_to(prob, end)
    assert calls == [len(prob.restrictions), prob.rhs.size]


def test_evolve_compiles_once_per_call(monkeypatch):
    calls = counting_compiles(monkeypatch, pdesim)
    sysd = pdesim.heisenberg_system()
    grid = pdesim.make_grid([np.sin, np.cos], 16, 2 * np.pi)
    pdesim.evolve(sysd, grid, 1e-4, 3)
    assert calls == [2]  # the right-hand side's n components


def test_simulate_cli_compiles_once(monkeypatch, capsys):
    # the evolution and the residual share the program kept on the system
    calls = counting_compiles(monkeypatch, pdesim)
    argv = ["simulate", os.path.join(FIXTURES, "constcurv_n3.json")]
    assert main(argv + ["--dt", "0.0005", "--steps", "50", "--grid", "32"]) == 0
    capsys.readouterr()
    assert calls == [3]


def test_tracer_collects_program_roots():
    # the evaluator hook reads a compiled Program as the sequence of its
    # roots (the simulator's coefficients); a transport runs its Program at
    # one point directly, one pfaff.rhs span per evaluation, and hands the
    # evaluator nothing
    spec = importlib.util.spec_from_file_location("perfbench_instrument", INSTRUMENT)
    inst = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inst)
    prob = named_problem("covector_14")
    sysd = pdesim.heisenberg_system()
    rows = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3 * sysd.n, 8))  # u, u_x, u_xx
    tracer = inst.Tracer(timing=False, collect_roots=True)
    tracer.install()  # the first rhs call compiles, inside the traced span
    try:
        pfaff.transport_to(prob, [0.05, -0.05])
        assert tracer.calls["pfaff.rhs"] > 0 and tracer.calls["expr.eval"] == 0
        coeffs = pdesim._coeff_evaluators(sysd)
        coeffs(rows)
        coeffs(rows)
    finally:
        tracer.uninstall()
    assert tracer.calls["pdesim.coeff"] == tracer.calls["expr.eval"] == 2
    assert tracer.counts["expr.eval.points"] == 2 * rows.shape[1]
    roots = {id(e) for e in tracer.take_roots()}
    assert roots == {id(e) for e in sysd.coeff_program}
