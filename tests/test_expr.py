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
    with pytest.raises(DomainError):
        eval_expr(parse_expr("ln(y1)", 1), [-1.0])
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(y1)", 1), [-1.0])
    with pytest.raises(DomainError):
        eval_expr(powi(coord(1), -2), [0.0])
    with pytest.raises(DomainError):
        eval_expr(parse_expr("1 + y1^999", 1), [10.0])
    with pytest.raises(DomainError):
        eval_expr(parse_expr("exp(y1)", 1), [1000.0])


def test_exp_matches_taylor_series():
    # independent oracle: truncated Taylor series at y = 1
    e = parse_expr("exp(y1)", 1)
    val = eval_expr(e, [1.0])
    series = sum(1.0 / math.factorial(k) for k in range(25))
    assert abs(val - series) <= 1e-12


def test_eval_many_matches_pointwise():
    e = parse_expr("exp(y1)*y2 - y1^3/(2 + sin(y2))", 2)
    pts = np.random.default_rng(9).uniform(-1, 1, size=(50, 2))
    vals = eval_many(e, pts)
    for p, v in zip(pts, vals):
        assert v == pytest.approx(eval_expr(e, p), rel=1e-14)


def test_eval_expr_evaluates_shared_subtrees_once(monkeypatch):
    calls = []
    apply = expr._apply_func
    monkeypatch.setattr(expr, "_apply_func", lambda name, x: calls.append(name) or apply(name, x))
    e = func("sin", coord(1))
    for _ in range(16):
        e = add(e, e)  # 2^16 paths down to the one sin node
    assert eval_expr(e, [0.3]) == 2**16 * apply("sin", 0.3)
    assert calls == ["sin"]


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
            ref = eval_expr(root, p)
            assert abs(x - ref) <= 1e-14 * abs(ref), (str(root), p)


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
