"""Compiled programs: bitwise agreement with the interpreted evaluator, IEEE
edge cases, memory, and where Pfaff transport and the simulator compile."""

import glob
import importlib.util
import itertools
import io
import os
import re
import tokenize
import warnings
from fractions import Fraction

import numpy as np
import pytest

from affsym import canonical, pdesim, pfaff
from affsym.cli import main
from affsym.expr import (
    ExprError,
    Program,
    _aligned_rows,
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
    """The program's (R, P) result, and its ``at`` at each point, equal the
    interpreted arrays bit for bit."""
    prog = compile_exprs(roots)
    got = eval_many_shared(prog, points)
    want = np.array(eval_many_shared(roots, points), dtype=float).reshape(len(roots), -1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    for p, column in zip(np.reshape(points, (want.shape[1], -1)), want.T):
        assert prog.at([float(v) for v in p]).tobytes() == column.tobytes()


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


def test_program_raises_the_walks_error_for_a_missing_coordinate():
    # y3 at points of dimension 2: run and at raise the walk's ExprError
    roots = [coord(1), parse_expr("y3 + y2", 3), coord(2)]
    prog = compile_exprs(roots)
    with pytest.raises(ExprError) as walk:
        eval_many_shared(roots, [[0.1, 0.2]])
    assert str(walk.value) == "coordinate y3 out of range for a point of dimension 2"
    for call in (lambda: eval_many_shared(prog, [[0.1, 0.2]]), lambda: prog.at([0.1, 0.2])):
        with pytest.raises(ExprError) as got:
            call()
        assert str(got.value) == str(walk.value)


@pytest.mark.parametrize("npts", [1, 64])
def test_program_run_keeps_the_callers_error_state_and_warns_of_nothing(npts):
    # 1/0, an overflow and 0/0 in the last of several parts give inf, inf
    # and nan without a warning, also where the caller raises on every flag
    roots = [parse_expr(" + ".join(["y3"] * 150), 3)] + [
        parse_expr(text, 3) for text in ("1/y1", "exp(y3)", "y1/y2")
    ]
    prog = compile_exprs(roots)
    assert len(prog._array_sources()) > 1
    points = np.tile([0.0, 0.0, 1000.0], (npts, 1))
    for outer in ({}, {"all": "raise"}):
        with np.errstate(**outer):
            state = np.geterr()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = prog.run(points)
            assert np.geterr() == state
        assert np.all(got[0] == 150000.0) and np.all(np.isposinf(got[1:3])) and np.all(np.isnan(got[3]))


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


def test_array_body_writes_each_unshared_root_into_its_row():
    # a root read by no later step is computed straight into out; the
    # scalar body still assigns it and then stores it
    sysd = pdesim.heisenberg_system()
    pdesim._coeff_evaluators(sysd)
    prog = sysd.coeff_program
    array_source = "".join(prog._array_sources())
    assert not re.search(r"^ +out\[\d+\] = ", array_source, flags=re.M)
    assert "_neg(v5, out[0])" in array_source
    assert re.findall(r"^ +out\[\d+\] = ", prog.source, flags=re.M) == ["    out[0] = ", "    out[1] = "]
    # a repeated root and a root read later are computed into a name and
    # copied; a root x**k other than k = 2 and -1 is written into its row
    x = parse_expr("sin(y1) + y2", 2)
    k = powi(x, Fraction(5, 2))
    roots = [x, x * x, k, parse_expr("exp(y2)", 2), x]
    prog = compile_exprs(roots)
    copies = re.findall(r"^ +(out\[\d+\]) = ", "".join(prog._array_sources()), flags=re.M)
    assert copies == ["out[0]", "out[4]"]
    assert_same_everywhere(roots, sample_points(2, 5))


def test_in_place_program_is_stateless_and_leaves_its_points_alone():
    # the array body writes each value into its name's array; a name that
    # held x**(5/2) is written into once its value is used up, and one such
    # value is used after 100 more steps, in a later part
    n = 2
    y2 = coord(2)
    half = powi(parse_expr("1 + y1^2", n), Fraction(5, 2))
    product = half * y2
    quotient = div(func("exp", coord(1)), product + y2)
    chain = coord(1)
    for _ in range(100):
        chain = func("sin", chain)
    far = powi(parse_expr("2 + y2^2", n), Fraction(5, 2)) * chain
    roots = [y2, parse_expr("3", n), product, quotient, product, far]
    prog = compile_exprs(roots)
    power = re.findall(r"^ +(v\d+) = _pw\(", prog.source, flags=re.M)[0]
    assert len(re.findall(rf"^ +{power} = ", prog.source, flags=re.M)) > 1
    for npts in (1, 15, 4096):
        pts = sample_points(n, npts, seed=npts)
        want = np.array(eval_many_shared(roots, pts)).tobytes()
        for points in (pts, np.ascontiguousarray(pts.T).T):  # columns, then rows
            before = points.tobytes()
            first = eval_many_shared(prog, points)
            second = eval_many_shared(prog, points)
            assert points.tobytes() == before, npts
            assert first.tobytes() == second.tobytes() == want, npts


def float_literals(source):
    return [
        t.string
        for t in tokenize.generate_tokens(io.StringIO(source).readline)
        if t.type == tokenize.NUMBER and not t.string.isdigit()
    ]


def test_program_keeps_its_names_per_point_count():
    # the array body's names are kept between runs at one point count, the
    # one x**(5/2) is written into too, and made anew when it changes;
    # every run returns a new out, which shares no memory with another
    # result or with a kept name
    n = 2
    power = powi(parse_expr("1 + y1^2", n), Fraction(5, 2))
    with_names = [
        power * coord(2) + parse_expr("2.5*y1 - 0.75", n),
        div(func("exp", coord(1)), power),
        parse_expr("y2^-1 + 1/3", n),
        power,
    ]
    without_names = [coord(2), parse_expr("3", n), coord(1)]
    for roots in (with_names, without_names):
        prog = compile_exprs(roots)
        results, kept = [], []
        for npts in (1, 15, 4096, 15, 1):
            pts = sample_points(n, npts, seed=npts)
            want = np.array(eval_many_shared(roots, pts)).tobytes()
            for points in (pts, np.ascontiguousarray(pts.T).T):  # columns, then rows
                names = list(prog._names)
                got = eval_many_shared(prog, points)
                assert got.tobytes() == want, npts
                assert [a.shape for a in prog._names] == [(npts,)] * prog._nvars
                if points is not pts:  # the second run at this count
                    same = sum(a is b for a, b in zip(names, prog._names))
                    assert same == prog._nvars, npts
                results.append(got)
                kept.extend(prog._names)
        for i, a in enumerate(results):
            assert not any(np.shares_memory(a, b) for b in results[i + 1 :] + kept)
        # constants are operands bound as 0-d arrays; an exponent is part of
        # its power's operation and stays a Python number, for np.power
        operands = re.sub(r"_pw\(\w+, [^)]+\)", "_pw()", "".join(prog._array_sources()))
        assert float_literals(operands) == []
    assert prog._nvars == 0 and "_k0" in operands
    assert compile_exprs(with_names)._nvars > 0


def assert_cache_rows(rows):
    """Each row starts on a 64-byte cache line, and no two rows are a
    multiple of 4 KiB apart (4K aliasing between their loads and stores)."""
    starts = [row.__array_interface__["data"][0] for row in rows]
    assert all(a % 64 == 0 for a in starts), starts
    assert all((b - a) % 4096 for a, b in itertools.combinations(starts, 2)), starts


@pytest.mark.parametrize("N", [8, 64, 1001, 1024, 4096])
def test_aligned_rows_start_on_cache_lines(N):
    for m in (1, 7):
        block = _aligned_rows(m, N)
        assert block.shape == (m, N) and block.dtype == np.float64
        assert_cache_rows(block)
        assert block.strides[0] % 64 == 0 and block.strides[0] % 4096
        block[...] = np.arange(m)[:, None]  # the rows do not overlap
        assert np.array_equal(block, np.broadcast_to(np.arange(m)[:, None], (m, N)))


@pytest.mark.parametrize("N", [8, 64, 1001, 1024, 4096])
def test_program_names_start_on_cache_lines(N):
    sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=3))
    rows = sample_points(9, N, seed=N).T
    want = pdesim._coeff_evaluators(sysd)(rows)
    prog = sysd.coeff_program
    assert prog._nvars > 1
    assert_cache_rows(prog._names)
    got = eval_many_shared(prog, np.ascontiguousarray(rows.T))
    assert got.T.tobytes() == want.tobytes()
    assert_cache_rows(prog._names)
    # a power other than 2 and -1 is written into its name's row, which
    # stays on its cache line
    roots = [powi(parse_expr("1 + y1^2", 2), Fraction(5, 2)) * coord(2) + coord(1)]
    prog = compile_exprs(roots)
    pts = sample_points(2, N, seed=N)
    for _ in range(2):
        assert eval_many_shared(prog, pts).tobytes() == np.array(eval_many_shared(roots, pts)).tobytes()
        assert_cache_rows(prog._names)


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
