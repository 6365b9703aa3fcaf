"""Parser, differentiation and evaluation of the scalar expression core."""

import copy
import gc
import hashlib
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
from affsym.tensor import TensorField, eval_jets
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


@pytest.mark.parametrize(
    "text, message, offset",
    [
        ("1 + 2\u00b2", "unexpected trailing input", 5),
        ("\u00b2", "unexpected character '\u00b2'", 0),
        ("y1 * y2\u00b2", "unknown identifier 'y2\u00b2'", 5),
        ("y1^\u00b2", "expected integer exponent", 3),
        ("1 + y" + "1" * 5000, "coordinate index has too many digits", 4),
    ],
    ids=["number", "atom", "coordinate", "exponent", "long-coordinate-index"],
)
def test_parse_rejects_digits_int_cannot_read(text, message, offset):
    # digits are decimal: a superscript two is no digit, and int() reads at
    # most 4,300 digits
    with pytest.raises(ParseError) as err:
        parse_expr(text, 2)
    assert str(err.value) == f"{message} (at offset {offset})" and err.value.offset == offset


def test_parse_depth_is_not_limited_by_recursion():
    deep = 100_000
    assert parse_expr("(" * deep + "y1" + ")" * deep, 1) is coord(1)
    assert parse_expr("-" * deep + "y1", 1) is coord(1)
    assert parse_expr("-" * (deep + 1) + "y1", 1) is neg(coord(1))
    e = parse_expr("sin(" * 2000 + "y1" + ")" * 2000, 1)
    for _ in range(2000):
        assert e.op == "sin"
        e = e.args[0]
    assert e is coord(1)


def test_prefix_minus_makes_an_atom_that_takes_an_exponent():
    # atom := '-' factor, so each minus sign admits one more exponent
    y = coord(1)
    assert parse_expr("-y1^2^3", 1) is powi(neg(powi(y, 2)), 3)
    assert parse_expr("2*--y1^2^3^4", 1) is mul(const(2.0), powi(neg(powi(neg(powi(y, 2)), 3)), 4))
    with pytest.raises(ParseError, match=r"unexpected trailing input \(at offset 4\)"):
        parse_expr("y1^2^3", 1)


def test_parse_accepts_any_integer_dimension():
    assert parse_expr("y2", np.int64(2)) is coord(2)
    field = TensorField.from_strings(np.int64(2), 1, 0, ["y1", "y2"])
    assert list(field.comps) == [coord(1), coord(2)]
    for n in (2.0, "2", None, 0, np.int64(0)):
        with pytest.raises(ParseError) as err:
            parse_expr("y1", n)
        assert str(err.value) == f"chart dimension must be >= 1, got {n!r} (at offset 0)"


_CONSTANTS = (0.0, 1.0, -1.0, 2.0, 0.5, -3.25, 1e-3, 12345.0, 2.5e-7, 6.02e23)
# pieces inserted by the mutations: no digit that is not decimal
_PIECES = tuple("y0123456789.+-*/^() eE\t") + (
    "sin(", "cos(", "exp(", "ln(", "sqrt(", "y9", "^-", "--", "x", "_", "é", "1e999",
    "9" * 401,
)
# A function of a constant folds through numpy's loops, whose last bits
# depend on the SIMD target, and mutations make such calls: the outcomes
# round numbers to 12 digits.
_NUMBER = re.compile(r"\d+\.?\d*(?:e[-+]?\d+)?")
# sha256 of the corpus's outcomes, recorded with the recursive-descent parser
PARSE_CORPUS_DIGEST = "26828c1ff915e88910df0416d7087f88494c0f652be32c855c82ba8188c7c4f8"


def _parse_tree(rng, n, depth):
    """A random tree of the operations the grammar spells; a constant that
    does not fold is replaced by y1, and no function takes a constant."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return coord(int(rng.integers(1, n + 1)))
        return const(_CONSTANTS[rng.integers(len(_CONSTANTS))])
    a = _parse_tree(rng, n, depth - 1)
    kind = int(rng.integers(8))
    try:
        if kind < 4:
            return (add, sub, mul, div)[kind](a, _parse_tree(rng, n, depth - 1))
        if kind == 4:
            return neg(a)
        if kind == 5:
            return powi(a, int(rng.choice([-3, -1, 2, 3, 5])))
        return a if a.op == "const" else func(expr.FUNCS[rng.integers(len(expr.FUNCS))], a)
    except ExprError:
        return coord(1)


def _mutate(rng, text):
    """Truncate, insert a piece, delete up to three characters or
    parenthesize a slice."""
    i = int(rng.integers(len(text) + 1))
    kind = rng.integers(4)
    if kind == 0:
        return text[:i]
    if kind == 1:
        return text[:i] + _PIECES[rng.integers(len(_PIECES))] + text[i:]
    if kind == 2:
        return text[:i] + text[i + int(rng.integers(1, 4)) :]
    j = int(rng.integers(i, len(text) + 1))
    return text[:i] + "(" + text[i:j] + ")" + text[j:]


def _parse_corpus():
    """3,000 random trees and 20,000 strings mutated from their text."""
    rng = np.random.default_rng(2029)
    trees = []
    for _ in range(3000):
        n = int(rng.integers(1, 5))
        trees.append((_parse_tree(rng, n, int(rng.integers(7))), n))
    sources = [(to_string(e), n) for e, n in trees]
    mutants = []
    for _ in range(20_000):
        text, n = sources[rng.integers(len(sources))]
        for _ in range(int(rng.integers(1, 4))):
            text = _mutate(rng, text)
        mutants.append((text, n))
    return trees, sources + mutants


def test_parse_outcomes_on_a_seeded_corpus_are_pinned():
    trees, texts = _parse_corpus()
    for e, n in trees:
        assert parse_expr(to_string(e), n) is e
    digest = hashlib.sha256()
    for text, n in texts:
        try:
            e = parse_expr(text, n)
            outcome = _NUMBER.sub(lambda m: f"{float(m[0]):.12g}", to_string(e))
        except ParseError as exc:
            outcome = str(exc)
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == PARSE_CORPUS_DIGEST


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
    assert len(calls) == 1


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
    # values and derivatives agree to the last bit, signed zeros included;
    # a fixture or system also runs _second_corpus's A, Gamma, R, Ric and S,
    # whose points (0, -0, ...) and (-0, 0, ...) give first derivatives of
    # either sign of zero
    corpora = [_jet_corpus(case)] + ([] if case.startswith("random") else [_second_corpus(case)])
    for roots, pts in corpora:
        n = pts.shape[1]
        vals, grads = eval_many_shared(roots, pts, checked=True, jets=True)
        assert len(vals) == len(grads) == len(roots)
        for e, v, g in zip(roots, vals, grads):
            want = eval_many_shared([e, *(diff_expr(e, i) for i in range(1, n + 1))], pts, checked=True)
            assert g.shape == (len(pts), n)
            assert _hex(v) == _hex(want[0]), str(e)
            for i in range(n):
                assert _hex(g[:, i]) == _hex(want[i + 1]), (str(e), i + 1)


def _jet_corpus(case):
    """The roots and points of test_jets_are_bitwise_the_derivative_trees."""
    if case.startswith("random"):
        n = int(case[-1])
        rng = np.random.default_rng(1800 + n)
        odd = _squares_apart(rng, 4)
        roots = [_random_tree(rng, n, int(rng.integers(1, 5)), odd) for _ in range(60)]
        roots += [div(coord(1), const(c)) for c in odd] + [coord(n), const(0.5), neg(coord(1))]
        # a constant's Fraction power, a node and not a constant, times y1;
        # and pow and the functions of a node whose derivatives all fold to
        # ZERO, alone and times y^n
        flat = add(const(0.75), sub(coord(1), coord(1)))
        ofs = [powi(flat, 3), powi(flat, -2)] + [func(name, flat) for name in expr.FUNCS]
        roots += [mul(powi(const(2.0), Fraction(1, 3)), coord(1))] + ofs + [mul(f, coord(n)) for f in ofs]
        pts = np.vstack([sample_points(n, 4), [[0.0, -0.0, 0.0][k % 3] for k in range(n)]])
        return roots, pts
    path = os.path.join(FIXTURES, case)
    sysd = canonical.build_system(JET_SPECS[case]) if case in JET_SPECS else (
        SystemDocument.load(path).to_system()
    )
    return _invariant_roots(sysd), sample_points(sysd.n, 4)


WALK_MODES = ({}, {"checked": True}, {"jets": True}, {"checked": True, "jets": True})


def _first_row(roots, pts, **mode):
    """The walk's values (and gradients) in its first row as float.hex
    strings, or the text and node of the DomainError it raises."""
    npts = np.atleast_2d(pts).shape[0]
    try:
        out = eval_many_shared(roots, pts, **mode)
    except DomainError as err:
        return str(err), err.subexpr
    vals, grads = out if mode.get("jets") else (out, [])
    assert all(v.shape == (npts,) for v in vals)
    assert all(g.shape == (npts, np.shape(pts)[-1]) for g in grads)
    return [_hex(v[:1]) for v in vals] + [_hex(g[0]) for g in grads]


@pytest.mark.parametrize(
    "case",
    ["random_n1", "random_n2", "random_n3"]
    + sorted(os.path.basename(p) for p in glob.glob(os.path.join(FIXTURES, "*.json")))
    + sorted(JET_SPECS),
)
def test_one_point_walk_is_the_first_row_of_two(case):
    # the walk at one point is the first row of the walk at two: the same
    # bits in every mode, signed zeros included
    roots, pts = _jet_corpus(case)
    for p in pts:
        for mode in WALK_MODES:
            assert _first_row(roots, p, **mode) == _first_row(roots, np.stack([p, p]), **mode), mode


@pytest.mark.parametrize("text, at", [("1/(1/y1)", 0.0), ("exp(-1/y1^2)", 0.0), ("1 + y1*y1", 1e200)])
def test_one_point_walk_faults_as_the_first_row_of_two(text, at):
    # checked, the same node raises with the same message; unchecked, the
    # same inf and nan come back
    e = parse_expr(text, 1)
    p = np.array([at])
    for mode in WALK_MODES:
        one = _first_row([e], p, **mode)
        assert one == _first_row([e], np.stack([p, p]), **mode), mode
        assert isinstance(one[0], str) == bool(mode.get("checked")), mode


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


@pytest.mark.parametrize("pts", [[[-0.0, 0.0]], [[0.3, -0.7], [0.0, -0.0], [-0.0, 0.0]]], ids=["P1", "P3"])
def test_jets_of_a_quotient_by_minus_one_are_the_trees(pts):
    # div folds only ONE, so a/(-1) is a node whose squared denominator
    # powi folds to ONE: each derivative is its numerator, unscaled, and the
    # first and second derivatives are the walks of their trees to the bit,
    # signed zeros included
    y1, y2 = coord(1), coord(2)
    tops = [y1, mul(y1, y2), func("exp", y1), sub(powi(y1, 3), func("sin", y2))]
    roots = [div(top, const(-1.0)) for top in tops]
    assert all(e.op == "div" for e in roots)
    pts = np.array(pts)
    for second in (0, len(roots)):
        vals, grads, *hess = eval_many_shared(roots, pts, checked=True, jets=True, second=second)
        assert vals.tobytes() == eval_many_shared(roots, pts, checked=True).tobytes()
        for r, e in enumerate(roots):
            for k in (1, 2):
                d = diff_expr(e, k)
                assert _hex(grads[r, :, k - 1]) == _hex(eval_many_shared([d], pts, checked=True)[0]), (str(e), k)
                for l in (1, 2) if hess else ():
                    want = eval_many_shared([diff_expr(d, l)], pts, checked=True)[0]
                    assert _hex(hess[0][r, :, k - 1, l - 1]) == _hex(want), (str(e), k, l)


def test_jets_at_points_of_dimension_0():
    # 1/0 is left unfolded, and its gradient has no entries at any count;
    # a product, exp, a power and a quotient of it take second derivatives
    # without entries too
    inf = div(ONE, expr.ZERO)
    roots = [mul(inf, inf), func("exp", inf), powi(inf, 3), div(inf, inf)]
    for npts in (1, 3):
        pts = np.zeros((npts, 0))
        vals, grads = eval_many_shared([inf], pts, jets=True)
        assert vals[0].shape == (npts,) and grads[0].shape == (npts, 0)
        for s in (1, 4):
            vals, grads, hess = eval_many_shared(roots, pts, second=s)
            assert vals.tobytes() == eval_many_shared(roots, pts).tobytes()
            assert grads.shape == (4, npts, 0) and hess.shape == (s, npts, 0, 0)
        # eval_jets (a checked walk, so of finite arrays), with an empty
        # array first, last or alone among those that take second derivatives
        arrays = [np.array([const(2.0), ONE], dtype=object), np.empty((0, 0), dtype=object)]
        for some in (arrays, arrays[::-1], arrays[1:]):
            out = eval_jets(some, pts, second=len(some))
            assert [[x.shape for x in jet] for jet in out] == [
                [(npts,) + a.shape + (0,) * k for k in range(3)] for a in some
            ]
        out = eval_jets(arrays, pts)
        assert [[x.shape for x in jet] for jet in out] == [[(npts, 2), (npts, 2, 0)], [(npts, 0, 0), (npts, 0, 0, 0)]]


def test_a_quotient_whose_numerators_fold_to_zero_takes_no_square():
    # every d/dy^k of 1/(1e200 + (y1 - y1)) folds to ZERO in the trees,
    # which never evaluate the denominator's square (it overflows): the
    # walk gives their ZERO too, first and second derivatives, at one point
    # and at two
    e = div(ONE, add(const(1e200), sub(coord(1), coord(1))))
    for pts in ([[0.3]], [[0.3], [-0.0]]):
        want = eval_many_shared([diff_expr(e, 1)], pts, checked=True, jets=True)
        vals, grads = eval_many_shared([e], pts, checked=True, jets=True)
        assert vals.tobytes() == eval_many_shared([e], pts, checked=True).tobytes()
        assert grads[0, :, 0].tobytes() == want[0][0].tobytes()
        hess = eval_many_shared([e], pts, checked=True, jets=True, second=1)[2]
        assert hess[0, :, 0, 0].tobytes() == want[1][0, :, 0].tobytes()
    # a constant denominator is still squared first, as its tree folds powi
    # before the numerator overflows
    big = div(powi(coord(1), Fraction(-1, 3)), const(-1e200))
    for walk in (lambda: diff_expr(big, 1), lambda: eval_many_shared([big], [1e-160], checked=True, jets=True)):
        with pytest.raises(ExprError, match="constant power out of floating-point range"):
            walk()


def test_the_walk_returns_one_array_row_r_holding_root_r():
    # the layout of a compiled Program: a float64 (R, P) array at one point
    # (P = 1), at many points and for no roots, a repeated root twice
    y1, y2 = coord(1), coord(2)
    roots = [mul(y1, y2), func("sin", y1), mul(y1, y2), const(2.5)]
    for pts, npts in (([0.3, -0.7], 1), (sample_points(2, 5), 5)):
        vals = eval_many_shared(roots, pts)
        assert type(vals) is np.ndarray and vals.dtype == np.float64
        assert vals.shape == (4, npts)
        assert vals.tobytes() == eval_many_shared(compile_exprs(roots), pts).tobytes()
        assert vals[0].tobytes() == vals[2].tobytes()
        empty = eval_many_shared([], pts)
        assert type(empty) is np.ndarray and empty.dtype == np.float64
        assert empty.shape == (0, npts)


def test_jets_come_back_as_one_array_of_shape_r_p_n():
    # y1*y2's derivatives are a block, 3*y1's the constant nodes 3 and ZERO,
    # and 2.5's only ZERO: each column is the walk of its derivative tree
    y1, y2 = coord(1), coord(2)
    roots = [mul(y1, y2), mul(const(3.0), y1), const(2.5), mul(y1, y2)]
    for pts, npts in (([0.3, -0.7], 1), (sample_points(2, 5), 5)):
        vals, grads = eval_many_shared(roots, pts, jets=True)
        assert type(grads) is np.ndarray and grads.dtype == np.float64
        assert grads.shape == (4, npts, 2)
        assert vals.tobytes() == eval_many_shared(roots, pts).tobytes()
        for r, root in enumerate(roots):
            for i in (1, 2):
                want = eval_many_shared([diff_expr(root, i)], pts)[0]
                assert grads[r, :, i - 1].tobytes() == want.tobytes()
        vals, grads = eval_many_shared([], pts, jets=True)
        assert vals.shape == (0, npts) and grads.shape == (0, npts, 2)
    # points of dimension 0: 1/0 is left unfolded, and has no columns
    for npts in (1, 3):
        vals, grads = eval_many_shared([div(ONE, expr.ZERO)], np.zeros((npts, 0)), jets=True)
        assert vals.shape == (1, npts) and grads.shape == (1, npts, 0)
        assert np.isinf(vals).all()


def test_jets_name_the_node_whose_derivative_is_not_finite():
    # sqrt(y1^2) is 0 at y1 = 0, its derivative divides by 2*sqrt(y1^2) = 0
    e = func("sqrt", powi(coord(1), 2))
    with pytest.raises(DomainError, match="non-finite derivative") as info:
        eval_many_shared([e], [0.0], checked=True, jets=True)
    assert info.value.subexpr is e
    with pytest.raises(DomainError, match="division by zero"):
        eval_many_shared([e, diff_expr(e, 1)], [0.0], checked=True)


def _second_corpus(case):
    """_jet_corpus's random DAGs and points, or the components of A, Gamma,
    R, Ric and S of a fixture or of a JET_SPECS system at 5 sample points
    and the points (0, -0, 0, ...) and (-0, 0, -0, ...), where the terms
    that the trees fold away would carry the other sign of zero."""
    if case.startswith("random"):
        return _jet_corpus(case)
    path = os.path.join(FIXTURES, case)
    sysd = canonical.build_system(JET_SPECS[case]) if case in JET_SPECS else (
        SystemDocument.load(path).to_system()
    )
    parts = ricci_and_s(sysd.conn)
    fields = (sysd.A, sysd.conn.field, curvature(sysd.conn), parts["ricci"], parts["s"])
    n = sysd.n
    signed = [[(0.0, -0.0)[(k + s) % 2] for k in range(n)] for s in (0, 1)]
    return [e for f in fields for e in f.comps.flat], np.vstack([sample_points(n, 5), signed])


@pytest.mark.parametrize(
    "case",
    ["random_n1", "random_n2", "random_n3"]
    + sorted(os.path.basename(p) for p in glob.glob(os.path.join(FIXTURES, "*.json")))
    + sorted(JET_SPECS),
)
def test_second_derivatives_are_bitwise_the_jets_of_the_derivative_trees(case):
    # entry [k, l] of a root is derivative l of the jets walk of its tree
    # d root/dy^k (all those trees in one walk), signed zeros included; the
    # values and first derivatives are the first-order walk's
    roots, pts = _second_corpus(case)
    n = pts.shape[1]
    vals, grads, hess = eval_many_shared(roots, pts, checked=True, jets=True, second=len(roots))
    assert hess.shape == (len(roots), len(pts), n, n)
    first = eval_many_shared(roots, pts, checked=True, jets=True)
    assert vals.tobytes() == first[0].tobytes() and grads.tobytes() == first[1].tobytes()
    trees = [diff_expr(e, k) for e in roots for k in range(1, n + 1)]
    want = eval_many_shared(trees, pts, checked=True, jets=True)[1].reshape(len(roots), n, len(pts), n)
    for r, e in enumerate(roots):
        for k in range(n):
            assert _hex(hess[r, :, k].ravel()) == _hex(want[r, k].ravel()), (str(e), k + 1)
    # the first roots alone carry the same second derivatives
    some = eval_many_shared(roots, pts, checked=True, jets=True, second=len(roots) // 3)[2]
    assert some.tobytes() == hess[: len(roots) // 3].tobytes()
    # at one point (the random corpus' signed zeros), the first row of a
    # two-point walk
    one = eval_many_shared(roots, pts[-1], checked=True, jets=True, second=len(roots))
    two = eval_many_shared(roots, pts[[-1, 0]], checked=True, jets=True, second=len(roots))
    for a, b in zip(one, two):
        assert _hex(a.ravel()) == _hex(b[:, :1].ravel())


def test_second_derivatives_fault_where_the_trees_do():
    # the second derivative of 1/y1 overflows where its first does not
    e = parse_expr("1/y1", 1)
    x = 1e-103
    eval_many_shared([e], [x], checked=True, jets=True)
    with pytest.raises(DomainError, match="non-finite derivative"):
        eval_many_shared([e], [x], checked=True, jets=True, second=1)
    with pytest.raises(DomainError):
        eval_many_shared([e, diff_expr(e, 1)], [x], checked=True, jets=True)


def test_second_derivatives_do_not_fault_where_the_trees_do_not():
    # 0^(1/2) is a node whose derivatives are ZERO: the trees never raise
    # it to the power -1/2, which is not finite
    e = mul(powi(expr.ZERO, Fraction(1, 2)), coord(1))
    hess = eval_many_shared([e], [0.3], checked=True, jets=True, second=1)[2]
    assert hess.tobytes() == eval_many_shared([diff_expr(e, 1)], [0.3], checked=True, jets=True)[1].tobytes()


@pytest.mark.parametrize("kind, n", [("constcurv_22_13", 3), ("constcurv_22_13", 4), ("constcurv_2d_22_14", 2)])
def test_sums_products_and_quotients_take_their_second_derivatives_as_blocks(kind, n, monkeypatch):
    # the invariance suite's walk (Ric with its second derivatives, Gamma,
    # a rotation eta, R and S): every node forms its derivatives by block
    # operations, also where its arguments' entries hold constant nodes
    # (ZERO, ONE, 0.5), and builds no constant node for an entry.  const is
    # called for a power's exponent, once per pow node, and for the squares
    # c**2 and c**4 of a constant denominator c, and for nothing else; the
    # walk reaches every op of its roots: add, sub, mul, div, neg and pow
    sysd = canonical.build_system(canonical.CanonicalSpec(kind, n=n))
    parts = ricci_and_s(sysd.conn)
    eta = [neg(coord(2)), coord(1)] + [expr.ZERO] * (n - 2)
    ric = list(parts["ricci"].comps.flat)
    roots = ric + list(sysd.conn.gamma.flat) + eta
    roots += list(curvature(sysd.conn).comps.flat) + list(parts["s"].comps.flat)
    inside, walked, built = [], set(), {}
    forward, build = expr._forward, expr.const

    def watched_forward(node, *args):
        inside.append(node)
        walked.add(node.op)
        try:
            return forward(node, *args)
        finally:
            inside.pop()

    def watched_const(v):
        node = inside[-1] if inside else None
        built[node] = built.get(node, 0) + 1
        return build(v)

    monkeypatch.setattr(expr, "_forward", watched_forward)
    monkeypatch.setattr(expr, "const", watched_const)
    eval_many_shared(roots, _second_corpus(f"{kind}_n{n}")[1], checked=True, jets=True, second=len(ric))
    assert {"add", "sub", "mul", "div", "neg"} <= walked
    assert walked == {node.op for node in expr._postorder(roots)[0] if node.args} >= {"pow"}
    for node, count in built.items():
        assert node is not None, count
        if node.op == "pow":
            assert count == 1, str(node)
        else:
            assert node.op in ("div", "ln") and node.args[-1].op == "const" and count <= 2, (str(node), count)


TAYLOR_SPECS = {
    f"{kind}_n{n}": canonical.CanonicalSpec(kind, n=n, **kw)
    for n in (1, 2, 3, 4)
    for kind, kw in (
        ("maximal_7_11", {}),
        ("intermediate_17_19", {"m": 1, "u": ("y1",)}),
        ("intermediate_potential_17_24", {"m": 1, "psi": "y1^2/2"}),
        ("constcurv_22_13", {}),
        ("constcurv_2d_22_14", {}),
    )
    if (kind != "constcurv_2d_22_14" or n == 2) and (n > 1 or not kind.startswith("constcurv"))
}


def _taylor_corpus(case):
    """Roots over n coordinates and points: a seeded random corpus of every
    operation (constant and coordinate denominators, int and Fraction
    powers, exp, ln, sqrt, sin, cos), or a system's A and Gamma."""
    if case.startswith("random"):
        n = int(case[-1])
        rng = np.random.default_rng(2600 + n)
        odd = _squares_apart(rng, 4)
        roots = [_random_tree(rng, n, int(rng.integers(1, 4)), odd) for _ in range(25)]
        roots += [div(coord(1), const(c)) for c in odd] + [coord(n), const(0.5), neg(coord(1))]
        return n, roots, sample_points(n, 2)
    sysd = canonical.build_system(TAYLOR_SPECS[case]) if case in TAYLOR_SPECS else (
        SystemDocument.load(os.path.join(FIXTURES, case)).to_system()
    )
    return sysd.n, list(sysd.A.comps.flat) + list(sysd.conn.gamma.flat), sample_points(sysd.n, 2)


@pytest.mark.parametrize(
    "case",
    ["random_n1", "random_n2", "random_n3"]
    + sorted(os.path.basename(p) for p in glob.glob(os.path.join(FIXTURES, "*.json")))
    + sorted(TAYLOR_SPECS),
)
def test_taylor_coefficients_are_the_derivative_trees(case):
    # coefficient alpha times alpha! is d^alpha e at the point: the checked
    # walk of e's diff_expr tree, to 1e-12 relative to the largest of e's
    # derivatives there (absolute where they are all 0), since a derivative
    # that vanishes is a sum that cancels to rounding in either walk
    n, roots, pts = _taylor_corpus(case)
    if case.startswith("random"):
        nodes = expr._postorder(roots)[0]
        assert {e.op for e in nodes} >= {"add", "sub", "mul", "div", "neg", "pow", *expr.FUNCS}
        assert {type(e.value) for e in nodes if e.op == "pow"} == {int, Fraction}
        assert {e.args[1].op == "const" for e in nodes if e.op == "div"} == {True, False}
    for p in pts:
        for k in range(4):
            tables = expr.taylor_tables(n, k)
            coefs, mags = expr.taylor_coefficients(roots, p, k)
            assert coefs.shape == mags.shape == (len(roots), tables.size)
            assert np.all(mags >= np.abs(coefs))
            want = np.empty_like(coefs)
            for j, alpha in enumerate(tables.monomials):
                trees = []
                for e in roots:
                    for i, times in enumerate(alpha):
                        for _ in range(times):
                            e = diff_expr(e, i + 1)
                    trees.append(e)
                want[:, j] = eval_many_shared(trees, p, checked=True)[:, 0]
            got = coefs * [math.prod(math.factorial(a) for a in alpha) for alpha in tables.monomials]
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - want) <= 1e-12 * np.where(scale == 0.0, 1.0, scale)), k


def test_taylor_tables_are_graded_and_nested():
    # 1, then y^1..y^n, then degree 2, ...: order k - 1 is a prefix of order k
    t = expr.taylor_tables(3, 3)
    assert t.size == math.comb(6, 3) and expr.taylor_tables(3, 3) is t
    assert t.monomials[: 4].tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert list(t.monomials.sum(axis=1)) == sorted(t.monomials.sum(axis=1))
    for k in range(3):
        low = expr.taylor_tables(3, k).monomials
        assert (t.monomials[: len(low)] == low).all()


def test_taylor_coefficients_raise_where_a_coefficient_is_out_of_range():
    y1 = coord(1)
    steep = func("exp", mul(const(1e110), y1))  # d^3/dy^3 at 0 is 1e330
    assert np.isfinite(expr.taylor_coefficients([steep], [0.0], 2)[0]).all()
    with pytest.raises(DomainError, match="Taylor coefficient out of range") as info:
        expr.taylor_coefficients([steep], [0.0], 3)
    assert info.value.subexpr is steep
    # finite coefficients at every order, although the second derivative
    # tree multiplies 1e308 by 0 and 1
    big = mul(const(1e308), y1)
    coefs, _ = expr.taylor_coefficients([big], [0.5], 3)
    assert coefs.tolist() == [[5e307, 1e308, 0.0, 0.0]]
    with pytest.raises(DomainError, match="non-finite Taylor coefficient"):
        expr.taylor_coefficients([func("ln", y1)], [0.0], 1)
    # ln's second coefficient -1/(2 y1^2) at 1e-170 is beyond the float range
    expr.taylor_coefficients([func("ln", y1)], [1e-170], 1)
    with pytest.raises(DomainError, match="non-finite Taylor coefficient: ln\\(y1\\)"):
        expr.taylor_coefficients([func("ln", y1)], [1e-170], 2)


def test_taylor_coefficients_fold_constant_denominators_as_the_trees_do():
    # a quotient by a constant: the coefficients are the trees' values / j!
    e = parse_expr("y1^3/8", 1)
    coefs, _ = expr.taylor_coefficients([e], [0.3], 3)
    trees = [e]
    for _ in range(3):
        trees.append(diff_expr(trees[-1], 1))
    want = [eval_expr(t, [0.3]) / math.factorial(j) for j, t in enumerate(trees)]
    assert np.allclose(coefs[0], want, rtol=1e-15, atol=0.0)
    # the second derivative tree of y1^3/1e80 divides by powi(1e160, 2),
    # which is out of range; the first is in range and the coefficients
    # are its values, and they stay finite beyond it: 0.027e-80, 0.27e-80,
    # 0.9e-80 and 1e-80
    e = parse_expr("y1^3/1e80", 1)
    with pytest.raises(ExprError, match="constant power out of floating-point range"):
        diff_expr(diff_expr(e, 1), 1)
    coefs, _ = expr.taylor_coefficients([e], [0.3], 1)
    assert np.allclose(coefs[0], [eval_expr(e, [0.3]), eval_expr(diff_expr(e, 1), [0.3])], rtol=1e-15, atol=0.0)
    coefs, _ = expr.taylor_coefficients([e], [0.3], 3)
    assert np.allclose(coefs[0], [0.027e-80, 0.27e-80, 0.9e-80, 1e-80], rtol=1e-15, atol=0.0)
    # a square that underflows to ZERO: the trees of d(y1/1e-200) divide
    # by 0, the coefficients do not
    tiny = div(coord(1), const(1e-200))
    with pytest.raises(DomainError, match="division by zero"):
        eval_expr(diff_expr(tiny, 1), [0.3])
    coefs, _ = expr.taylor_coefficients([tiny], [0.3], 1)
    assert np.allclose(coefs[0], [0.3e200, 1e200], rtol=1e-15, atol=0.0)


def test_taylor_coefficients_raise_where_a_quotients_derivative_trees_overflow():
    # d(1e300/y1)/dy1 at 1e-5 is -1e310: the trees' value and the
    # coefficient are both out of range, and the walk names the quotient
    e = parse_expr("1e300/y1", 1)
    with pytest.raises(DomainError, match="non-finite value"):
        eval_expr(diff_expr(e, 1), [1e-5])
    assert expr.taylor_coefficients([e], [1e-5], 0)[0].tolist() == [[1e305]]
    with pytest.raises(DomainError, match="Taylor coefficient out of range") as info:
        expr.taylor_coefficients([e], [1e-5], 1)
    assert info.value.subexpr is e
    # the second derivative tree of ln(y1) divides by y1^2, which
    # underflows at 1e-170; its coefficient -1/(2 y1^2) is out of range
    ln = func("ln", coord(1))
    with pytest.raises(DomainError, match="division by zero"):
        eval_expr(diff_expr(diff_expr(ln, 1), 1), [1e-170])
    expr.taylor_coefficients([ln], [1e-170], 1)
    with pytest.raises(DomainError):
        expr.taylor_coefficients([ln], [1e-170], 2)
    # only where the derivative itself leaves the range: d(c/b)/dy2 is
    # (0*b - c*1e154)/b^2, and c*1e154 folds beyond the float range,
    # although the derivative itself is about -2.07e150
    c = 1.0142320547350045e304
    e = parse_expr(f"{c!r}/(1e+154*y2)", 2)
    with pytest.raises(ExprError, match="non-finite constant"):
        diff_expr(e, 2)
    coefs, _ = expr.taylor_coefficients([e], [0.1, -0.7], 1)
    want = [c / -0.7e154, 0.0, -c / (0.49e154)]
    assert np.allclose(coefs[0], want, rtol=1e-15, atol=0.0)


def test_taylor_coefficients_take_any_order():
    # orders beyond 3: exp(y1)'s coefficients are e^0.3 / j!
    coefs, _ = expr.taylor_coefficients([func("exp", coord(1))], [0.3], 6)
    want = [math.exp(0.3) / math.factorial(j) for j in range(7)]
    assert np.allclose(coefs[0], want, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError, match="order must be at least 0"):
        expr.taylor_coefficients([coord(1)], [0.3], -1)


def test_taylor_magnitudes_bound_the_terms_that_cancel():
    # cos(sqrt(u)) = 1 - u/2 + u^2/24 - ..., but its chain rule at u = 1e-80
    # sums terms of 1.25e79 that cancel: the magnitude shows it
    e = parse_expr("cos(sqrt(1e-80 + y1))", 1)
    coefs, mags = expr.taylor_coefficients([e], [0.0], 2)
    assert abs(coefs[0, 2]) < 1.0 and mags[0, 2] > 1e79
    # without cancellation the magnitude is the coefficient's absolute value
    coefs, mags = expr.taylor_coefficients([parse_expr("exp(y1)*(2 + y1^2)", 1)], [0.3], 3)
    assert np.allclose(mags, np.abs(coefs), rtol=1e-15, atol=0.0)


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
    # reference: a recursive left-to-right walk, roots in order, a node
    # emitted after its arguments, first argument first
    want_order, visited = [], set()

    def visit(node):
        if node not in visited:
            visited.add(node)
            for a in node.args:
                visit(a)
            want_order.append(node)

    for r in roots:
        visit(r)
    assert order == want_order
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
