"""Parser, differentiation and evaluation of the scalar expression core."""

import copy
import gc
import math
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest

import glob
import os

from affsym import canonical, expr, pfaff
from affsym.cli import SystemDocument
from affsym.expr import (
    DomainError,
    Expr,
    ExprError,
    ONE,
    ParseError,
    add,
    compile_exprs,
    const,
    coord,
    diff_expr,
    div,
    eval_expr,
    eval_many,
    eval_many_shared,
    func,
    mul,
    neg,
    parse_expr,
    powi,
    sub,
    subst,
    to_string,
)
from affsym.geometry import covariant_differential, curvature, ricci_and_s
from affsym.tensor import TensorField
from affsym.util import sample_points

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def test_parse_constant_zero():
    e = parse_expr("0", 1)
    assert e.op == "const" and e.value == 0.0


def test_parse_basic_ast_shape():
    e = parse_expr("y1*y2 + exp(y1)", 2)
    assert e.op == "add"
    prod, ex = e.args
    assert prod.op == "mul" and prod.args[0].index == 1 and prod.args[1].index == 2
    assert ex.op == "exp" and ex.args[0].index == 1


def test_parse_out_of_range_coordinate():
    with pytest.raises(ParseError) as err:
        parse_expr("y3", 2)
    assert err.value.offset == 0


def test_parse_rejects_n_zero():
    with pytest.raises(ParseError):
        parse_expr("1", 0)


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("y1 + @", 2)
    assert err.value.offset == 5


@pytest.mark.parametrize(
    "text, offset", [("1e999", 0), ("1e308*10", 5), ("10^999", 2)]
)
def test_parse_rejects_unrepresentable_constants(text, offset):
    with pytest.raises(ParseError) as err:
        parse_expr(text, 1)
    assert err.value.offset == offset


def test_parse_rejects_exponents_too_long_for_int():
    # more digits than int() converts: a parse error at the exponent
    with pytest.raises(ParseError) as err:
        parse_expr("y1 ^ " + "9" * 5000, 1)
    assert err.value.offset == 5


def test_exponent_without_a_float_value_is_an_expression_error():
    # evaluation takes the exponent as a float, so one beyond the float
    # range cannot make a pow node; a parse error at the '^'
    big = 10**400
    for k in (big, -big, Fraction(big, 3)):
        with pytest.raises(ExprError, match="exponent out of floating-point range"):
            powi(coord(1), k)
    with pytest.raises(ExprError, match="exponent out of floating-point range"):
        powi(const(0.0), -big)  # 0 ** -k is deferred to evaluation
    for text in (f"y1^{big}", f"y1 ^ -{big}", f"(y1 + 1)^{big}", f"0^-{big}"):
        with pytest.raises(ParseError, match="exponent out of floating-point range") as err:
            parse_expr(text, 1)
        assert err.value.offset == text.index("^")
    # a constant base folds (see the next test); a finite float exponent
    # still evaluates
    e = parse_expr("y1^" + "1" + "0" * 308, 1)
    values = eval_many_shared([e], np.array([[0.5], [1.0], [2.0]]))[0]
    assert values.tolist() == [0.0, 1.0, math.inf]


def test_constant_powers_fold_for_every_integer_exponent():
    # |c| = 1 folds by the parity of k, which Python's c**k loses once k is
    # odd and beyond 2**53; a k without a float value folds to 0 where
    # |c**k| shrinks as |k| grows
    big, odd = 10**400, 2**53 + 1
    folds = {
        (1.0, big): 1.0, (1.0, -big - 1): 1.0, (-1.0, big): 1.0, (-1.0, big + 1): -1.0,
        (-1.0, -big - 1): -1.0, (-1.0, odd): -1.0, (-1.0, -odd): -1.0, (-1.0, odd + 1): 1.0,
        (0.5, big): 0.0, (-0.5, big + 1): 0.0, (0.0, big): 0.0, (2.0, -big): 0.0,
        (-3.0, -big - 1): 0.0, (-1.0, 3): -1.0, (0.5, -2): 4.0, (2.0, 3): 8.0,
    }
    for (c, k), want in folds.items():
        assert powi(const(c), k) is const(want), (c, k)
    parsed = {
        f"1^{big}": 1.0, f"(-1)^{big + 1}": -1.0, f"(-1)^{odd}": -1.0,
        f"0.5^{big}": 0.0, f"2^-{big}": 0.0, f"0^{big}": 0.0,
    }
    for text, want in parsed.items():
        assert parse_expr(text, 1) is const(want), text
    # where the value itself is out of range the power is still refused
    for c, k in ((2.0, big), (-2.0, big + 1), (0.5, -big), (2.0, 1100)):
        with pytest.raises(ExprError, match="constant power out of floating-point range"):
            powi(const(c), k)
    for text in (f"2^{big}", f"0.5^-{big}"):
        with pytest.raises(ParseError, match="constant power out of floating-point range"):
            parse_expr(text, 1)


def test_const_rejects_non_finite_values():
    for v in (float("inf"), float("-inf"), float("nan"), 10**400):
        with pytest.raises(ExprError):
            const(v)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        parse_expr("tan(y1)", 1)


def test_pow_binds_tighter_than_unary_minus():
    e = parse_expr("-y1^2", 1)
    assert eval_expr(e, [3.0]) == -9.0


def test_precedence_and_whitespace():
    e = parse_expr("  1 + 2*y1 ^ 2 ", 1)
    assert eval_expr(e, [3.0]) == 19.0


def test_scientific_numbers():
    e = parse_expr("1.5e-3 + 2.0E2", 1)
    assert eval_expr(e, [0.0]) == pytest.approx(200.0015)


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "y1*y2 + exp(y1)",
        "-y1^2",
        "(y1 + y2)^3 / (1 - y2)",
        "sqrt(1 + y1^2) - sin(cos(y2))",
        "2.5e-3*y1 - ln(2 + y2)",
        "-(y1*y2)",
        "1/y1^2",
    ],
)
def test_print_parse_roundtrip(text):
    e = parse_expr(text, 2)
    again = parse_expr(to_string(e), 2)
    assert again == e


def test_roundtrip_random_trees():
    rng = np.random.default_rng(0)
    n = 3
    atoms = [coord(1), coord(2), coord(3), const(2.0), const(-0.5)]

    def rand_tree(depth):
        if depth == 0:
            return atoms[rng.integers(len(atoms))]
        k = rng.integers(7)
        a = rand_tree(depth - 1)
        b = rand_tree(depth - 1)
        from affsym import expr as E

        return [
            lambda: E.add(a, b),
            lambda: E.sub(a, b),
            lambda: E.mul(a, b),
            lambda: E.div(a, b),
            lambda: E.neg(a),
            lambda: E.powi(a, int(rng.integers(2, 4))),
            lambda: E.func("sin", a),
        ][k]()

    for _ in range(200):
        e = rand_tree(3)
        assert parse_expr(to_string(e), n) == e


def test_diff_power_rule():
    e = parse_expr("y1^2", 1)
    d = diff_expr(e, 1)
    assert to_string(d) == "2*y1"


def test_diff_product_rule():
    e = parse_expr("exp(y1)*y2", 2)
    d = diff_expr(e, 2)
    assert d == parse_expr("exp(y1)", 2)


def test_diff_matches_central_differences():
    # d(sin(y1*y2)) at 20 random points vs central differences, step 1e-5
    e = parse_expr("sin(y1*y2)", 2)
    d1 = diff_expr(e, 1)
    d2 = diff_expr(e, 2)
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(20):
        p = rng.uniform(-1.0, 1.0, size=2)
        for d, i in ((d1, 0), (d2, 1)):
            pp, pm = p.copy(), p.copy()
            pp[i] += h
            pm[i] -= h
            fd = (eval_expr(e, pp) - eval_expr(e, pm)) / (2 * h)
            exact = eval_expr(d, p)
            assert abs(exact - fd) <= 1e-7 * max(1.0, abs(exact))


def test_diff_third_order():
    e = parse_expr("y1^3*cos(y2)", 2)
    d3 = diff_expr(diff_expr(diff_expr(e, 1), 1), 1)
    assert eval_expr(d3, [0.3, 0.7]) == pytest.approx(6.0 * math.cos(0.7))


def test_mixed_partials_commute():
    rng = np.random.default_rng(3)
    e = parse_expr("exp(y1*y2) + sin(y2)*ln(2 + y1)", 2)
    d12 = diff_expr(diff_expr(e, 1), 2)
    d21 = diff_expr(diff_expr(e, 2), 1)
    for _ in range(10):
        p = rng.uniform(-0.9, 0.9, size=2)
        a, b = eval_expr(d12, p), eval_expr(d21, p)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_diff_linearity():
    rng = np.random.default_rng(4)
    e1 = parse_expr("sin(y1)*y2", 2)
    e2 = parse_expr("y1^2 - y2^3", 2)
    a = 2.75
    combo = diff_expr(const(a) * e1 + e2, 1)
    split = const(a) * diff_expr(e1, 1) + diff_expr(e2, 1)
    for _ in range(10):
        p = rng.uniform(-1, 1, size=2)
        assert eval_expr(combo, p) == pytest.approx(eval_expr(split, p), abs=1e-13)


def test_eval_simple_and_pure():
    e = parse_expr("y1+y2", 2)
    assert eval_expr(e, [1.0, 2.0]) == 3.0
    e2 = parse_expr("exp(y1)*sin(y2) - y1/(1+y2^2)", 2)
    v1 = eval_expr(e2, [0.3, -0.2])
    v2 = eval_expr(e2, [0.3, -0.2])
    assert v1 == v2  # bit-identical


def test_eval_division_by_zero():
    e = parse_expr("1/y1", 2)
    with pytest.raises(DomainError) as err:
        eval_expr(e, [0.0, 1.0])
    assert "y1" in str(err.value)


def test_eval_ln_sqrt_domain():
    with pytest.raises(DomainError, match=r"^ln of nonpositive argument: ln\(y1\)$"):
        eval_expr(parse_expr("ln(y1)", 1), [-1.0])
    with pytest.raises(DomainError, match=r"^sqrt of negative argument: sqrt\(y1\)$"):
        eval_expr(parse_expr("sqrt(y1)", 1), [-1.0])
    with pytest.raises(DomainError, match=r"^zero raised to a negative power: y1\^-2$"):
        eval_expr(powi(coord(1), -2), [0.0])
    with pytest.raises(DomainError, match=r"^overflow: y1\^999$"):
        eval_expr(parse_expr("1 + y1^999", 1), [10.0])
    with pytest.raises(DomainError, match=r"^non-finite value: exp\(y1\)$"):
        eval_expr(parse_expr("exp(y1)", 1), [1000.0])


@pytest.mark.parametrize(
    "text, point, message, culprit",
    [
        ("1 + 1/y1", [0.0], "division by zero", "1/y1"),
        ("y1/y1", [0.0], "division by zero", "y1/y1"),
        ("2 + ln(y1)", [0.0], "ln of nonpositive argument", "ln(y1)"),
        ("1 + y1^-999", [0.1], "overflow", "y1^-999"),
        ("1 + y1*y1", [1e200], "non-finite value", "y1*y1"),
        ("1 + (y1 + y1)", [1.7e308], "non-finite value", "y1 + y1"),
        ("1 + y1/0.5", [1.7e308], "non-finite value", "y1/0.5"),
        # every node is checked, not only the root: the inner division faults
        ("1/(1/y1)", [0.0], "division by zero", "1/y1"),
        ("exp(-1/y1^2)", [0.0], "division by zero", "(-1)/y1^2"),
    ],
)
def test_checked_evaluation_names_the_faulting_node(text, point, message, culprit):
    e = parse_expr(text, 1)
    with pytest.raises(DomainError) as err:
        eval_expr(e, point)
    assert str(err.value) == f"{message}: {culprit}"
    assert err.value.subexpr is parse_expr(culprit, 1)


def test_checked_evaluation_of_fractional_powers():
    y = coord(1)
    assert eval_expr(add(ONE, powi(y, Fraction(1, 2))), [4.0]) == 3.0
    with pytest.raises(DomainError) as err:
        eval_expr(add(ONE, powi(y, Fraction(1, 2))), [-4.0])
    assert str(err.value) == "negative base with fractional exponent: y1^(1/2)"
    # a fractional power prints as ^(p/q), which the grammar rejects
    assert repr(powi(y, Fraction(-1, 2))) == "Expr('y1^(-1/2)')"
    with pytest.raises(ParseError):
        parse_expr("y1^(1/2)", 1)
    half, minus_half = powi(y, Fraction(1, 2)), powi(y, Fraction(-1, 2))
    assert expr._fault(half, [np.array([-4.0])]) == "negative base with fractional exponent"
    assert expr._fault(minus_half, [np.array([0.0])]) == "zero raised to a negative power"
    assert expr._fault(powi(y, Fraction(3, 2)), [np.array([1e300])]) == "overflow"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_checked_evaluation_rejects_non_finite_coordinates(bad):
    e = parse_expr("y1 + y2", 2)
    with pytest.raises(DomainError) as err:
        eval_expr(e, [0.5, bad])
    assert str(err.value) == "non-finite value: y2" and err.value.subexpr is coord(2)
    assert eval_expr(e, [0.5, 1.0]) == 1.5  # an unused bad coordinate is fine
    assert eval_expr(parse_expr("2*y1", 2), [0.5, bad]) == 1.0


def test_checked_evaluation_rejects_coordinates_beyond_the_point():
    e = parse_expr("y1 + y3", 3)
    with pytest.raises(ExprError) as err:
        eval_expr(e, [1.0, 2.0])
    assert str(err.value) == "coordinate y3 out of range for a point of dimension 2"
    assert not isinstance(err.value, DomainError)


def test_checked_evaluation_reports_the_first_fault_in_reading_order():
    # components in row-major order, a node's first argument before its second
    e = parse_expr("ln(y1) + 1/y1", 1)
    with pytest.raises(DomainError, match=r"^ln of nonpositive argument: ln\(y1\)$"):
        eval_expr(e, [0.0])
    field = TensorField(2, 1, 0, [parse_expr("y1 + 1/y2", 2), parse_expr("sqrt(y1)", 2)])
    with pytest.raises(DomainError, match=r"^sqrt of negative argument: "):
        field.evaluate([-1.0, 1.0])
    with pytest.raises(DomainError, match=r"^division by zero: 1/y2$"):
        field.evaluate([-1.0, 0.0])


def test_exp_matches_taylor_series():
    # independent oracle: truncated Taylor series at y = 1
    e = parse_expr("exp(y1)", 1)
    val = eval_expr(e, [1.0])
    series = sum(1.0 / math.factorial(k) for k in range(25))
    assert abs(val - series) <= 1e-12


def test_checked_evaluation_of_a_program_walks_its_roots():
    prog = compile_exprs([parse_expr("2 + 1/y1", 1)])
    assert np.isinf(eval_many_shared(prog, [0.0])[0, 0])  # the generated code is unchecked
    with pytest.raises(DomainError, match=r"^division by zero: 1/y1$"):
        eval_many_shared(prog, [0.0], checked=True)


_MATH = {"exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos}


def _reference(e, point, memo=None):
    """Independent scalar oracle: Python floats and the math module."""
    memo = {} if memo is None else memo
    if e in memo:
        return memo[e]
    if e.op == "const":
        return e.value
    if e.op == "coord":
        return float(point[e.index - 1])
    x = [_reference(a, point, memo) for a in e.args]
    op = e.op
    if op == "add":
        v = x[0] + x[1]
    elif op == "sub":
        v = x[0] - x[1]
    elif op == "mul":
        v = x[0] * x[1]
    elif op == "div":
        v = x[0] / x[1]
    elif op == "neg":
        v = -x[0]
    elif op == "pow":
        v = x[0] ** float(e.value)
    else:
        v = _MATH[op](x[0])
    memo[e] = v
    return v


def test_eval_many_matches_pointwise():
    e = parse_expr("exp(y1)*y2 - y1^3/(2 + sin(y2))", 2)
    pts = np.random.default_rng(9).uniform(-1, 1, size=(50, 2))
    vals = eval_many(e, pts)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(_reference(e, p), rel=1e-14)
        assert eval_expr(e, p) == v  # the checked walk at one point, bitwise


def test_eval_expr_evaluates_shared_subtrees_once(monkeypatch):
    calls = []
    sin = np.sin
    monkeypatch.setitem(expr._VEC_FUNCS, "sin", lambda x: calls.append(x.shape) or sin(x))
    e = func("sin", coord(1))
    for _ in range(16):
        e = add(e, e)  # 2^16 paths down to the one sin node
    assert eval_expr(e, [0.3]) == 2**16 * float(np.sin(0.3))
    assert calls == [(1,)]


def _handmade_roots():
    """Roots sharing subtrees by identity: one root is a subtree of others,
    one appears twice, and some are bare const or coord nodes."""
    y1, y2 = coord(1), coord(2)
    s = func("sin", add(mul(y1, y2), const(0.5)))
    r1 = mul(s, s)
    r2 = div(s, add(const(2.0), y1))
    return 2, [r1, r2, s, y2, const(1.5), r1, powi(add(r2, r1), 3), func("exp", r2)]


def _fixture_roots(path):
    sysd = SystemDocument.load(path).to_system()
    return sysd.n, list(sysd.A.comps.flat) + list(sysd.conn.gamma.flat)


@pytest.mark.parametrize(
    "case", ["handmade"] + sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
)
def test_eval_many_shared_matches_single_roots(case):
    n, roots = _handmade_roots() if case == "handmade" else _fixture_roots(case)
    pts = sample_points(n, 15)
    vals = eval_many_shared(roots, pts)
    assert len(vals) == len(roots)
    for root, v in zip(roots, vals):
        alone = eval_many_shared([root], pts)[0]
        assert v.shape == (len(pts),) and v.tobytes() == alone.tobytes()
        for p, x in zip(pts, v):
            ref = _reference(root, p)
            assert abs(x - ref) <= 1e-14 * abs(ref), (str(root), p)


def _squares_apart(rng, count):
    """Constants c whose Python square c**2 is not c*c in the last bit."""
    found = []
    while len(found) < count:
        c = float(rng.uniform(0.5, 3.0))
        if c**2 != c * c:
            found.append(c)
    return found


def _random_tree(rng, n, depth, odd):
    """A tree of every operation, kept inside the real domain: ln and sqrt
    of 2 + t*t and 1 + t*t, non-constant denominators and negative or
    fractional powers of bases in [0.5, 3]; ``odd`` holds the constant
    denominators."""
    if depth == 0:
        if rng.random() < 0.75:
            return coord(int(rng.integers(1, n + 1)))
        return const(round(float(rng.uniform(-2.0, 2.0)), 3))
    t = _random_tree(rng, n, depth - 1, odd)
    kind = rng.choice(
        ["add", "sub", "mul", "div", "cdiv", "neg", "pow", "npow", "fpow",
         "exp", "ln", "sqrt", "sin", "cos"]
    )
    if kind in ("add", "sub", "mul"):
        return {"add": add, "sub": sub, "mul": mul}[kind](t, _random_tree(rng, n, depth - 1, odd))
    if kind == "div":
        u = _random_tree(rng, n, depth - 1, odd)
        return div(t, add(const(2.0), func("sin", u)))
    if kind == "cdiv":
        return div(t, const(odd[int(rng.integers(len(odd)))]))
    if kind == "neg":
        return neg(t)
    if kind == "pow":
        return powi(t, int(rng.choice([2, 3, 5])))
    if kind == "npow":
        return powi(add(const(2.0), func("cos", t)), int(rng.choice([-1, -2, -3])))
    if kind == "fpow":
        k = Fraction(int(rng.choice([1, 3, -1, -5])), int(rng.choice([2, 3])))
        return powi(add(const(1.5), func("sin", t)), k)
    if kind == "exp":
        return func("exp", func("sin", t))
    if kind == "ln":
        return func("ln", add(const(2.0), mul(t, t)))
    if kind == "sqrt":
        return func("sqrt", add(const(1.0), mul(t, t)))
    return func(kind, t)


def _invariant_roots(sysd):
    """The components of A, R, Ric, S and nabla Ric of a system."""
    curv = curvature(sysd.conn)
    parts = ricci_and_s(sysd.conn)
    nabla = covariant_differential(sysd.conn, parts["ricci"])
    fields = (sysd.A, curv, parts["ricci"], parts["s"], nabla)
    return [e for f in fields for e in f.comps.flat]


JET_SPECS = {
    f"{kind}_n{n}": canonical.CanonicalSpec(kind, n=n, **kw)
    for n in (2, 3, 4)
    for kind, kw in (
        ("maximal_7_11", {}),
        ("intermediate_17_19", {"m": 1, "u": ("y1",)}),
        ("intermediate_potential_17_24", {"m": 1, "psi": "y1^2/2"}),
        ("constcurv_22_13", {}),
        ("constcurv_2d_22_14", {}),
    )
    if kind != "constcurv_2d_22_14" or n == 2
}


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize(
    "case",
    ["random_n1", "random_n2", "random_n3"]
    + sorted(os.path.basename(p) for p in glob.glob(os.path.join(FIXTURES, "*.json")))
    + sorted(JET_SPECS),
)
def test_jets_are_bitwise_the_derivative_trees(case):
    # the forward-mode walk against walking [e, d e/dy^1, ..., d e/dy^n]:
    # values and derivatives agree to the last bit, signed zeros included
    if case.startswith("random"):
        n = int(case[-1])
        rng = np.random.default_rng(1800 + n)
        odd = _squares_apart(rng, 4)
        roots = [_random_tree(rng, n, int(rng.integers(1, 5)), odd) for _ in range(60)]
        roots += [div(coord(1), const(c)) for c in odd] + [coord(n), const(0.5), neg(coord(1))]
        # the points where y is 0 and -0 reach the signs of zero terms
        pts = np.vstack([sample_points(n, 4), [[0.0, -0.0, 0.0][k % 3] for k in range(n)]])
    else:
        path = os.path.join(FIXTURES, case)
        sysd = canonical.build_system(JET_SPECS[case]) if case in JET_SPECS else (
            SystemDocument.load(path).to_system()
        )
        n, roots = sysd.n, _invariant_roots(sysd)
        pts = sample_points(n, 4)
    vals, grads = eval_many_shared(roots, pts, checked=True, jets=True)
    assert len(vals) == len(grads) == len(roots)
    for e, v, g in zip(roots, vals, grads):
        want = eval_many_shared([e, *(diff_expr(e, i) for i in range(1, n + 1))], pts, checked=True)
        assert g.shape == (len(pts), n)
        assert _hex(v) == _hex(want[0]), str(e)
        for i in range(n):
            assert _hex(g[:, i]) == _hex(want[i + 1]), (str(e), i + 1)


def test_jets_fold_constant_denominators_as_powi_does():
    # d(y1^2/c)/dy1 is (y1 + y1)*c / c**2 with powi's folded c**2: take a c
    # where dividing by c*c instead changes the last bit
    x = 0.7
    odd = _squares_apart(np.random.default_rng(7), 200)
    c = next(c for c in odd if (x + x) * c / c**2 != (x + x) * c / (c * c))
    _, grads = eval_many_shared([div(mul(coord(1), coord(1)), const(c))], [x], checked=True, jets=True)
    assert grads[0][0, 0] == (x + x) * c / c**2
    # a c**2 beyond the float range is powi's error, as building the tree is
    big = div(powi(coord(1), 3), const(1e200))
    for walk in (lambda: diff_expr(big, 1), lambda: eval_many_shared([big], [0.3], checked=True, jets=True)):
        with pytest.raises(ExprError, match="constant power out of floating-point range"):
            walk()


def test_jets_name_the_node_whose_derivative_is_not_finite():
    # sqrt(y1^2) is 0 at y1 = 0, its derivative divides by 2*sqrt(y1^2) = 0
    e = func("sqrt", powi(coord(1), 2))
    with pytest.raises(DomainError, match="non-finite derivative") as info:
        eval_many_shared([e], [0.0], checked=True, jets=True)
    assert info.value.subexpr is e
    with pytest.raises(DomainError, match="division by zero"):
        eval_many_shared([e, diff_expr(e, 1)], [0.0], checked=True)


def test_eval_many_shared_drops_arrays_after_last_use():
    # a chain of 300 nodes over 10^4 points: keeping every intermediate would
    # hold 300 arrays of 80 kB, freeing after the last use holds a few
    import tracemalloc

    e = coord(1)
    for _ in range(300):
        e = func("sin", e)
    pts = np.linspace(-1.0, 1.0, 10_000)[:, None]
    tracemalloc.start()
    try:
        eval_many_shared([e], pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * pts.nbytes


def test_subst_composition():
    e = parse_expr("y1^2 + y2", 2)
    s = subst(e, {1: parse_expr("y2", 2), 2: parse_expr("y1*y1", 2)})
    assert eval_expr(s, [2.0, 5.0]) == 25.0 + 4.0


def test_simplification_is_light_but_effective():
    e = mul(const(0.0), parse_expr("exp(y1)", 1))
    assert e.op == "const" and e.value == 0.0
    e2 = parse_expr("y1", 1) + const(0.0)
    assert e2 == coord(1)


def _old_neg(a):
    if a.op == "const":
        return const(-a.value)
    if a.op == "neg":
        return a.args[0]
    return expr._intern("neg", (a,))


def _old_add(a, b):
    if a.op == b.op == "const":
        return const(a.value + b.value)
    if a is expr.ZERO:
        return b
    if b is expr.ZERO:
        return a
    return expr._intern("add", (a, b))


def _old_sub(a, b):
    if a.op == b.op == "const":
        return const(a.value - b.value)
    if b is expr.ZERO:
        return a
    if a is expr.ZERO:
        return _old_neg(b)
    return expr._intern("sub", (a, b))


def _old_mul(a, b):
    if a.op == b.op == "const":
        return const(a.value * b.value)
    if a is expr.ZERO or b is expr.ZERO:
        return expr.ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if a is expr._MINUS_ONE:
        return _old_neg(b)
    if b is expr._MINUS_ONE:
        return _old_neg(a)
    return expr._intern("mul", (a, b))


def _old_div(a, b):
    if b.op == "const" and b is not expr.ZERO:
        if a.op == "const":
            return const(a.value / b.value)
        if b is ONE:
            return a
    if a is expr.ZERO and b is not expr.ZERO:
        return expr.ZERO
    return expr._intern("div", (a, b))


def test_constructors_return_the_node_of_folding_first():
    # the oracles above fold two constants before testing for ZERO, ONE and
    # -1; the constructors test first, and must return the very same node
    y1, y2 = coord(1), coord(2)
    pool = [expr.ZERO, ONE, const(-1.0), const(2.5), y1, mul(y1, y2), div(ONE, expr.ZERO)]
    pairs = [(add, _old_add), (sub, _old_sub), (mul, _old_mul), (div, _old_div)]
    for a in pool:
        assert neg(a) is _old_neg(a), a
        for b in pool:
            for build, oracle in pairs:
                assert build(a, b) is oracle(a, b), (build.__name__, a, b)


def test_identity_operands_build_no_constant(monkeypatch):
    zero, three = expr.ZERO, const(3.0)
    calls = []
    real = expr.const
    monkeypatch.setattr(expr, "const", lambda v: calls.append(v) or real(v))
    assert mul(zero, zero) is zero and add(zero, zero) is zero and sub(zero, zero) is zero
    assert mul(three, zero) is zero and neg(zero) is zero
    assert calls == []


# ---------------------------------------------------------------------------
# Interning: structurally equal nodes are one object
# ---------------------------------------------------------------------------


def test_equal_constructions_are_one_node():
    assert add(coord(1), coord(2)) is add(coord(1), coord(2))
    text = "exp(y1*y2) - y2^3/(1 + sin(y1))"
    assert parse_expr(text, 2) is parse_expr(text, 2)
    assert const(-0.0) is const(0.0)
    assert add(coord(1), coord(2)) is not add(coord(2), coord(1))


def test_exponents_intern_by_value():
    x = coord(1)
    assert powi(x, Fraction(2, 1)) is powi(x, 2)
    half = powi(x, Fraction(1, 2))
    assert half is powi(x, Fraction(1, 2)) and half is not powi(x, 2)


def test_intern_table_forgets_dead_nodes():
    gc.collect()
    before = len(expr._TABLE)
    e = parse_expr("exp(1234.5*y1*y2) + sin(y2)^3/(y1 - 6789.25)", 2)
    d = diff_expr(diff_expr(e, 1), 2)  # exp's derivative refers back to exp
    assert len(expr._TABLE) > before
    del e, d
    gc.collect()
    assert len(expr._TABLE) == before


def test_nodes_hash_and_compare_by_identity():
    # the walks and memos key dicts by the node itself
    assert Expr.__hash__ is object.__hash__
    assert Expr.__eq__ is object.__eq__


def test_generic_constructor_builds_the_smart_constructors_node():
    y, z = coord(37), coord(38)  # fresh, so the first call below creates
    cases = [
        (("const", (), 4321.125, None), lambda: const(4321.125)),
        (("coord", (), None, 39), lambda: coord(39)),
        (("neg", (y,), None, None), lambda: neg(y)),
        (("pow", (y,), 3, None), lambda: powi(y, 3)),
        (("pow", (y,), Fraction(1, 3), None), lambda: powi(y, Fraction(1, 3))),
    ]
    for op, build in zip(expr._BINOPS, (add, sub, mul, div)):
        cases.append(((op, (y, z), None, None), lambda build=build: build(y, z)))
    for name in expr.FUNCS:
        cases.append(((name, (y,), None, None), lambda name=name: func(name, y)))
    for (op, args, value, index), build in cases:
        node = Expr(op, args, value, index)
        assert build() is node and node.op == op and node.args == args
        assert Expr(op, list(args), value, index) is node


def test_postorder_emits_children_first_and_counts_every_use():
    rng = np.random.default_rng(23)
    pool = [coord(1), coord(2), const(0.5)]
    for _ in range(300):
        a, b = (pool[i] for i in rng.integers(len(pool), size=2))
        kind = int(rng.integers(5))
        pool.append(
            (add, sub, mul)[kind](a, b) if kind < 3 else neg(a) if kind == 3 else func("sin", a)
        )
    roots = [pool[i] for i in rng.integers(len(pool), size=60)]
    assert len(set(roots)) < len(roots)  # repeated roots

    reachable, stack = set(), list(roots)
    while stack:
        node = stack.pop()
        if node not in reachable:
            reachable.add(node)
            stack.extend(node.args)
    want = dict.fromkeys(reachable, 0)
    for node in reachable:
        for a in node.args:
            want[a] += 1
    for r in roots:
        want[r] += 1

    order, uses = expr._postorder(roots)
    position = {node: i for i, node in enumerate(order)}
    assert len(position) == len(order) and set(order) == reachable
    assert all(position[a] < position[node] for node in order for a in node.args)
    assert any(want[node] > 1 for node in order if node.args)  # shared subtrees
    assert uses == want


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(FIXTURES, "*.json"))))
def test_copies_and_pickles_keep_identity(path):
    _, roots = _fixture_roots(path)
    for e in roots:
        assert copy.copy(e) is e and copy.deepcopy(e) is e
    back = pickle.loads(pickle.dumps(roots))
    assert all(b is e for b, e in zip(back, roots))


def test_long_sums_print_and_pickle_without_recursion():
    # a 20,000-term left-nested sum is 20,000 levels deep
    e = parse_expr(" + ".join(["y1^2"] * 20000), 1)
    assert parse_expr(to_string(e), 1) is e
    assert pickle.loads(pickle.dumps(e)) is e


def test_long_sums_differentiate_evaluate_and_substitute_without_recursion():
    # 5,000 levels deep, five times Python's default recursion limit
    e = parse_expr(" + ".join(["y1*y2"] * 5000), 2)
    assert e.max_index == 2 and parse_expr("2.5", 2).max_index == 0
    assert eval_expr(e, [0.5, 2.0]) == 5000.0
    d = diff_expr(e, 1)
    assert d is parse_expr(" + ".join(["y2"] * 5000), 2)
    assert eval_expr(d, [0.5, 2.0]) == 10000.0
    s = subst(e, {2: coord(1)})
    assert s.max_index == 1 and eval_expr(s, [3.0]) == 45000.0


def test_program_has_one_statement_per_distinct_node():
    n = 2
    sysd = canonical.build_system(canonical.CanonicalSpec("constcurv_22_13", n=n))
    g, _ = canonical.constcurv_metric(n)
    u = [parse_expr("0.3*y1 - y2^2", n), parse_expr("sin(y1)*y2", n)]
    prob = pfaff.named_system("covector_14", conn=sysd.conn, g=g, u_field=u)
    roots = list(prob.rhs.flat)

    # number the structurally distinct nodes without relying on identity, and
    # note which depend on a coordinate (the rest are folded at compile time)
    uid, table, varying, computed = {}, {}, {}, set()
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in uid:
            stack.pop()
            continue
        todo = [a for a in node.args if id(a) not in uid]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        key = (node.op, node.value, node.index, tuple(uid[id(a)] for a in node.args))
        uid[id(node)] = table.setdefault(key, len(table))
        varying[id(node)] = node.op == "coord" or any(varying[id(a)] for a in node.args)
        if node.args and varying[id(node)]:
            computed.add(uid[id(node)])

    source = compile_exprs(roots).source
    statements = re.findall(r"^ +v\d+ = ", source, flags=re.M)
    assert len(statements) == len(computed)
