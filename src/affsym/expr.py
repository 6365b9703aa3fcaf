"""Scalar expression trees over chart coordinates y1..yn.

Expressions are immutable ASTs supporting exact symbolic partial
differentiation (closed under d/dy^i to any order) and one evaluator,
``eval_many_shared``: one walk of the roots' shared DAG at an array of
points, returning one (R, P) array, row r holding root r at the P points.
Unchecked, it returns IEEE 754's inf or nan outside the real domain; with
``checked=True`` numpy's IEEE exception flags (IEEE 754-2019, section 7)
are raised as errors, and the first node to leave the finite reals raises
DomainError naming it.  ``eval_expr`` is that checked walk at one point.
Every node's value is a (P,) array, one point being P = 1.  With
``jets=True`` the same walk also carries each node's first derivatives in
forward mode and returns them as one (R, P, n) array, bitwise what walking
the roots' diff_expr trees returns, without building those trees; with
``second=s`` the first s roots also carry their second derivatives, on
their own sub-DAGs only, entry [k, l] bitwise the l-th derivative the
jets walk of diff_expr(root, k) returns.  A derivative that leaves the
finite reals raises DomainError ("non-finite derivative") naming its
node, which may be a term the trees fold away; that is the error its
callers report.  No walk recurses: all run over the iterative
``_postorder`` or, for derivatives, an explicit stack, so depth is
limited by memory alone.  Parsing does not recurse
either: ``parse_expr`` is one loop over regular-expression tokens with an
explicit operand and operator stack.  Text printed by ``to_string`` spells
each shared subtree out at every use; given a ``groups`` dict shared by the
texts of one document, ``parse_expr`` parses each repeated parenthesised
group once and pushes the same node at its later uses, so loading follows
the DAG rather than its printed tree, in time linear in the text.

Derivatives of higher order at one point come from a third walk,
``taylor_coefficients``: it carries each node's Taylor polynomial in
(y - p0) to order k, with K = C(n+k, k) coefficients laid out by
``taylor_tables`` (built once per (n, k)).  Sums and negation act
elementwise, products by the truncated Cauchy product, a quotient is
solved degree by degree, and exp, ln, sqrt, sin, cos and int or Fraction
powers compose the node's univariate series at its value with (u - u0).
Each coefficient comes with its magnitude, the same sums taken over the
absolute values of the terms, which bounds its rounding error.  The walk
builds no derivative tree and is checked but not bitwise: its numbers
match the trees' walk to rounding, and it raises DomainError naming the
first node whose magnitude is not finite.

Nodes are interned (hash-consed, after Filliatre and Conchon, "Type-Safe
Modular Hash-Consing", 2006): every node is built by ``_intern``, the one
builder of the interning table's keys, which returns the live node equal to
the one asked for when there is one.  Only the smart constructors call it.
``Expr(...)`` (unpickling, copying) and ``subst`` build through them, by
``_build``, which refuses every other kind of node, so the walks meet only
the kinds the constructors make.  Structurally equal trees are therefore
the same object, and ``Expr`` keeps ``object``'s identity hash and
equality, so a node is its own dictionary key: the postorder walk's use
counts, the evaluator's values, the compiler's tables and the memos are all
dicts keyed by node, and share every equal subtree.
The smart constructors test for the identity operands (ZERO, ONE, -1)
before they fold two constants, so 0*c, 0+c, c-0 and the like return an
existing node, the one the fold would build, without calling ``const``.

A root set evaluated many times (a Pfaff right-hand side at every solver
step, the simulator's right-hand side at every Runge-Kutta stage) is compiled
once by ``compile_exprs`` into a ``Program``: straight-line Python with one
statement per node, run on Python floats for one point and on numpy columns
for many, where each statement writes into an array the program keeps.
``eval_many_shared(program, points)`` runs it and returns bitwise what the
interpreted walk returns, in the same (R, P) layout.  Roots evaluated once
stay interpreted, since generating the code costs a few interpreted calls.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import weakref
from collections.abc import Sequence
from fractions import Fraction
from functools import cache, lru_cache, partial

import numpy as np

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "DomainError",
    "const",
    "coord",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "powi",
    "func",
    "parse_expr",
    "diff_expr",
    "eval_expr",
    "eval_many_shared",
    "compile_exprs",
    "Program",
    "TaylorTables",
    "taylor_tables",
    "taylor_coefficients",
    "subst",
    "ZERO",
    "ONE",
]

FUNCS = ("exp", "ln", "sqrt", "sin", "cos")
_BINOPS = ("add", "sub", "mul", "div")

# Every live node, keyed by op, value, index and its children's ids (see
# _intern), held through a weak reference whose callback drops the entry when
# the node dies.  A WeakValueDictionary does the same, but builds a
# Python-level KeyedRef per new node, which cost about a tenth of the
# benchmark's symbolic (analyze) throughput.
_TABLE = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref):
    if _TABLE.get(ref.key) is ref:
        del _TABLE[ref.key]


class ExprError(ValueError):
    """Base error for expression construction, parsing and evaluation."""


class ParseError(ExprError):
    """Syntax or bounds error while parsing; carries the character offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class DomainError(ExprError):
    """Evaluation outside the real domain; carries the offending subtree."""

    def __init__(self, message, subexpr):
        super().__init__(f"{message}: {subexpr}")
        self.subexpr = subexpr


class Expr:
    """Immutable, interned expression node.

    ``op`` is one of: "const" (value: float), "coord" (index: int, 1-based),
    "neg", "add", "sub", "mul", "div", "pow" (value: int or Fraction
    exponent), or a function name from FUNCS.  The module-level smart
    constructors build every node, and apply light simplification (constant
    folding, x*0, x*1, x+0) so derivative trees stay small.
    ``Expr(op, args, value, index)`` builds through them (see _build): it
    returns the node the constructor of ``op`` returns for those arguments,
    and refuses with an ExprError any op, arity, argument, value or index
    that no constructor takes.  The identity operands ZERO, ONE and -1 are
    tested before two constants are folded: the node returned is the one
    the fold would build (``const`` maps -0.0 to 0.0 and constants are
    interned), and no constant is built for it.

    Nodes are hash-consed: constructing a node equal to a live one, by op,
    value, index and (already interned) children, returns that node.  So
    structurally equal trees are the same object, ``==`` and ``hash`` are
    object identity's, and everything keyed on the node (the derivative
    memo, the evaluators' sharing, compiled programs) shares every equal
    subtree.
    """

    __slots__ = ("op", "args", "value", "index", "_dmemo", "__weakref__")

    def __new__(cls, op, args=(), value=None, index=None):
        return _build(op, args, value, index)

    def __setattr__(self, name, val):
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        # One flat table of (op, value, index, child positions) in postorder,
        # so pickling does not recurse once per level; rebuilding through
        # the smart constructors returns the interned nodes.
        order, _ = _postorder([self])
        pos = {node: i for i, node in enumerate(order)}
        table = [
            (node.op, node.value, node.index, tuple(pos[a] for a in node.args))
            for node in order
        ]
        return _rebuild, (table,)

    def __deepcopy__(self, memo):
        return self  # immutable and interned: the copy is the node itself

    def __repr__(self):
        return f"Expr({to_string(self)!r})"

    def __str__(self):
        return to_string(self)

    # Convenience arithmetic so tensor code reads naturally.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __truediv__(self, other):
        return div(self, _coerce(other))

    @property
    def max_index(self):
        """Largest coordinate index referenced (0 for constant trees)."""
        order, _ = _postorder([self])
        return max((node.index for node in order if node.op == "coord"), default=0)


_new_node = object.__new__
_set_op = Expr.op.__set__
_set_args = Expr.args.__set__
_set_value = Expr.value.__set__
_set_index = Expr.index.__set__
_set_dmemo = Expr._dmemo.__set__


def _intern(op, args, value=None, index=None):
    """The live node with this op, tuple of (interned) children, value and
    index, created if there is none.  The one builder of table keys, called
    by the smart constructors alone.

    Children are interned, so their identities stand for their structure.
    Keying on ids rather than the children themselves keeps the table from
    holding nodes alive: a node whose derivative memo refers back to it (exp,
    sqrt) would otherwise never be freed.  The key is spelled out for each
    arity, 0, 1 or 2, and a new node's slots are set through their
    descriptors, since this runs once per node the smart constructors build.
    """
    n = len(args)
    if n == 2:
        key = (op, value, index, id(args[0]), id(args[1]))
    elif n == 1:
        key = (op, value, index, id(args[0]))
    else:
        key = (op, value, index)
    ref = _TABLE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = _new_node(Expr)
    _set_op(node, op)
    _set_args(node, args)
    _set_value(node, value)
    _set_index(node, index)
    _set_dmemo(node, None)
    ref = _TABLE[key] = _Ref(node, _forget)
    ref.key = key
    return node


def _rebuild(table):
    """The root of a postorder table written by Expr.__reduce__."""
    nodes = []
    for op, value, index, args in table:
        nodes.append(_build(op, [nodes[i] for i in args], value, index))
    return nodes[-1]


def _coerce(v):
    if isinstance(v, Expr):
        return v
    return const(v)


def const(v):
    """Constant node; non-finite or out-of-range values raise ExprError."""
    try:
        v = float(v)
    except OverflowError:
        raise ExprError("constant out of floating-point range") from None
    if not math.isfinite(v):
        raise ExprError(f"non-finite constant {v!r}")
    if v == 0.0:
        v = 0.0  # normalize -0.0
    return _intern("const", (), v)


# Interned, so a constant equal to one of these is that node: the smart
# constructors test ``x is ZERO`` rather than comparing values.
ZERO = const(0.0)
ONE = const(1.0)
_MINUS_ONE = const(-1.0)
_TWO = const(2.0)


def coord(i):
    if isinstance(i, bool) or not isinstance(i, int) or i < 1:
        raise ExprError(f"coordinate index must be a positive integer, got {i!r}")
    return _intern("coord", (), None, i)


def add(a, b):
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    if a.op == b.op == "const":
        return const(a.value + b.value)
    return _intern("add", (a, b))


def sub(a, b):
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if a.op == b.op == "const":
        return const(a.value - b.value)
    return _intern("sub", (a, b))


def mul(a, b):
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    if a is _MINUS_ONE:
        return neg(b)
    if b is _MINUS_ONE:
        return neg(a)
    if a.op == b.op == "const":
        return const(a.value * b.value)
    return _intern("mul", (a, b))


def div(a, b):
    if b is not ZERO:
        if a is ZERO or b is ONE:
            return a
        if a.op == b.op == "const":
            return const(a.value / b.value)
    return _intern("div", (a, b))


def neg(a):
    if a is ZERO:
        return a
    if a.op == "const":
        return const(-a.value)
    if a.op == "neg":
        return a.args[0]
    return _intern("neg", (a,))


def powi(a, k):
    """a ** k with a constant integer (or Fraction) exponent; a bool is
    neither."""
    if isinstance(k, bool) or not isinstance(k, (int, Fraction)):
        raise ExprError(f"exponent must be an integer or Fraction, got {k!r}")
    if isinstance(k, Fraction) and k.denominator == 1:
        k = int(k)
    if k == 0:
        return ONE
    if k == 1:
        return a
    if a.op == "const" and isinstance(k, int) and (a.value != 0.0 or k > 0):
        c = a.value
        if abs(c) == 1.0:  # by parity: Python's c**k would round an odd k to float
            return const(c if k % 2 else 1.0)
        try:
            return const(c**k)
        except OverflowError:
            # a k without a float value gives 0 where |c**k| shrinks with |k|
            if (abs(c) < 1.0) == (k > 0):
                return ZERO
            raise ExprError("constant power out of floating-point range") from None
    # a pow node is evaluated with k as a float (0 ** -k too, whose domain
    # error evaluation reports)
    try:
        float(k)
    except OverflowError:
        raise ExprError("exponent out of floating-point range") from None
    return _intern("pow", (a,), k)


def func(name, a):
    if name not in FUNCS:
        raise ExprError(f"unknown function {name!r}")
    if a.op == "const":
        with np.errstate(all="ignore"):
            v = float(_VEC_FUNCS[name](a.value))
        # exp's overflow is an error here; ln and sqrt outside their domain
        # are left for evaluation to report
        if name == "exp" or math.isfinite(v):
            return const(v)
    return _intern(name, (a,))


# Each op's arity, and whether it takes a value and an index.
_KINDS = {
    "const": (0, True, False), "coord": (0, False, True), "pow": (1, True, False),
    **dict.fromkeys(("neg", *FUNCS), (1, False, False)), **dict.fromkeys(_BINOPS, (2, False, False)),
}
_SMART = {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg, **{f: partial(func, f) for f in FUNCS}}


def _build(op, args, value=None, index=None):
    """The node of ``op`` on the Exprs ``args`` from its smart constructor:
    const(value), coord(index), powi(a, value), add, sub, mul or div on two
    Exprs, neg or func(op, a).  A node built by one of them rebuilds to
    itself.  Any other op, a wrong arity, an argument that is not an Expr,
    or a value or index the op does not take raises ExprError: a const's
    value is an int or a float, not a bool or a string."""
    args = tuple(args)
    if not isinstance(op, str) or _KINDS.get(op) != (len(args), value is not None, index is not None):
        raise ExprError(f"no node {op!r} of arity {len(args)} with value {value!r} and index {index!r}")
    if not all(isinstance(a, Expr) for a in args):
        raise ExprError(f"arguments of a node {op!r} must be Exprs, got {args!r}")
    if op == "const":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ExprError(f"a const's value must be an int or a float, got {value!r}")
        return const(value)
    if op == "coord":
        return coord(index)
    if op == "pow":
        return powi(args[0], value)
    return _SMART[op](*args)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------


def diff_expr(e, i):
    """Exact partial derivative d(e)/dy^i as a new Expr.

    Derivatives are memoized per node, so repeated differentiation of fields
    with heavily shared subtrees (bracket and curvature assemblies) stays
    linear in the number of distinct nodes.  The walk keeps its own stack
    and descends only into children whose memo lacks ``i``.
    """
    if isinstance(i, bool) or not isinstance(i, int) or i < 1:
        raise ExprError(f"differentiation index must be >= 1, got {i!r}")
    memo = e._dmemo
    if memo is not None and i in memo:
        return memo[i]
    stack = [e]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        if node is None:  # the marker above a node whose arguments are done
            node = pop()
            args = node.args
            d = (args[0]._dmemo[i],) if len(args) == 1 else (args[0]._dmemo[i], args[1]._dmemo[i])
            node._dmemo[i] = _diff_node(node, i, d)
            continue
        memo = node._dmemo
        if memo is None:
            memo = {}
            _set_dmemo(node, memo)
        elif i in memo:
            continue
        if not node.args:
            memo[i] = _diff_node(node, i, ())
            continue
        push(node)
        push(None)
        for a in node.args:
            if a._dmemo is None or i not in a._dmemo:
                push(a)
    return e._dmemo[i]


def _diff_node(e, i, d):
    """d(e)/dy^i from the derivatives ``d`` of e's arguments, in order.  The
    commonest ops come first."""
    op = e.op
    if op == "mul":
        a, b = e.args
        return add(mul(d[0], b), mul(a, d[1]))
    if op == "add":
        return add(d[0], d[1])
    if op == "sub":
        return sub(d[0], d[1])
    if op == "neg":
        return neg(d[0])
    if op == "div":
        a, b = e.args
        num = sub(mul(d[0], b), mul(a, d[1]))
        return div(num, powi(b, 2))
    if op == "pow":
        a = e.args[0]
        k = e.value
        kc = const(float(k))
        return mul(mul(kc, powi(a, k - 1)), d[0])
    if op == "exp":
        return mul(e, d[0])
    if op == "ln":
        return div(d[0], e.args[0])
    if op == "sqrt":
        return div(d[0], mul(const(2.0), e))
    if op == "sin":
        return mul(func("cos", e.args[0]), d[0])
    if op == "cos":
        return neg(mul(func("sin", e.args[0]), d[0]))
    if op == "const":
        return ZERO
    return ONE if e.index == i else ZERO  # a coordinate


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_expr(e, point):
    """Checked value of ``e`` at one point (a sequence of floats): the walk of
    eval_many_shared with ``checked=True``, returned as a float."""
    return float(eval_many_shared([e], point, checked=True)[0][0])


_VEC_FUNCS = {"exp": np.exp, "ln": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos}


def _postorder(roots):
    """Distinct nodes reachable from ``roots``, children before parents, and
    each node's use count: the argument slots of its parents plus its
    occurrences among the roots.  Both are keyed by the node itself, which
    hashes and compares by identity; for interned nodes that is structural
    equality.  The order is that of a left-to-right depth-first walk: roots
    in order, and a node's first argument before its second.

    A node whose arguments are all seen is emitted at once; any other goes
    back on the stack under a marker, above its unseen arguments.  A child
    already seen is finished: a node seen but unfinished is an ancestor of
    the one being expanded, and a DAG has no path back to it."""
    order, uses, seen = [], {}, set()
    get = uses.get
    for root in roots:
        uses[root] = get(root, 0) + 1
    stack = list(roots)
    stack.reverse()
    pop, push, emit, mark = stack.pop, stack.append, order.append, seen.add
    while stack:
        node = pop()
        if node is None:  # the marker above a node whose arguments are done
            emit(pop())
        elif node not in seen:
            mark(node)
            args = node.args
            if not args:
                emit(node)
            elif len(args) == 2:
                a, b = args
                uses[b] = get(b, 0) + 1
                uses[a] = get(a, 0) + 1
                if b not in seen:
                    push(node)
                    push(None)
                    push(b)
                    if a not in seen:
                        push(a)
                elif a not in seen:
                    push(node)
                    push(None)
                    push(a)
                else:
                    emit(node)
            else:
                a = args[0]
                uses[a] = get(a, 0) + 1
                if a in seen:
                    emit(node)
                else:
                    push(node)
                    push(None)
                    push(a)
    return order, uses


def eval_many(e, points):
    """Vectorized evaluation of one expression; see eval_many_shared."""
    return eval_many_shared([e], points)[0]


def eval_many_shared(exprs, points, *, checked=False, jets=False, second=0):
    """Evaluate a flat sequence of R expressions at points of shape (P, n)
    (or one point of shape (n,), P = 1); returns one float array of shape
    (R, P), row r holding root r.  With ``jets=True`` it returns the pair
    (values, gradients): the same array and the roots' first derivatives
    d/dy^1..d/dy^n as one (R, P, n) array, carried through the one walk in
    forward mode, each to the bit the walk of ``diff_expr(root r, i)``
    (see the note above _entry).  With ``second=s`` (which implies jets)
    the first s roots also carry their second derivatives, and it returns
    the triple (values, gradients, second derivatives), the last of shape
    (s, P, n, n): entry [r, p, k, l] is the l-th derivative the jets walk
    of ``diff_expr(root r, k)`` gives, to the bit.  At points of dimension
    0 no derivatives are taken: the arrays have no entries.

    Each distinct node, within one root or across roots, is evaluated once
    (nodes are interned, so identity is structural equality), and its array
    is dropped as soon as its last parent has used it.  Unchecked,
    out-of-domain inputs yield inf/nan per IEEE semantics (callers probing
    residuals assert finiteness instead).  Checked, the
    walk raises DomainError on the first node, in left-to-right postorder,
    whose value is not finite at some point (see _walk); with jets, on the
    first node whose value or whose derivatives (of either order) are not
    (the latter as "non-finite derivative").
    A compiled ``Program`` (see compile_exprs) is accepted in place of the
    sequence and runs its generated code, unchecked (see Program.run).
    """
    if isinstance(exprs, Program) and not checked and not jets and not second:
        return exprs.run(points)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _walk(exprs, pts, checked, jets or second > 0, second)


def _walk(exprs, pts, checked, jets=False, second=0):
    """The interpreted walk behind eval_many_shared, over points (P, n).

    Checked, it runs with numpy's floating-point flags raised as errors
    (underflow excepted): on finite arguments a node's value is inf or nan
    exactly when its operation raises a flag, so the node being computed
    when FloatingPointError arrives is the first out of the domain.
    Coordinates are checked to be finite, and constants are finite already.
    With jets, each node's first derivatives follow its value as a masked
    block (see _forward and the note above _entry) and are dropped with
    it; so are the second derivatives of the nodes below the first
    ``second`` roots, and of no other node.  The rows of derivatives are
    assembled once per distinct root and indexed out to the roots (see
    _rows).  Every value is a (P,) array, at one point too, and every
    block has a trailing axis of P.
    """
    order, uses = _postorder(exprs)
    npts, dim = pts.shape
    vals = {}
    grads = {}
    hess = {}
    columns, full = pts.T, partial(np.full, npts)
    kit = _Kit(dim, npts, full) if jets else None
    twice = _below(exprs[:second], order) if second else ()
    try:
        with np.errstate(all="raise", under="ignore") if checked else np.errstate(all="ignore"):
            for node in order:
                op = node.op
                args = node.args
                if not args:
                    if op == "const":
                        vals[node] = full(node.value)
                        if kit:
                            grads[node] = kit.vec.zero
                    else:
                        if node.index > dim:
                            raise ExprError(
                                f"coordinate y{node.index} out of range for a point of dimension {dim}"
                            )
                        x = vals[node] = columns[node.index - 1]
                        if checked and not np.isfinite(x).all():
                            raise DomainError("non-finite value", node)
                        if kit:
                            i = node.index - 1  # ONE at i, ZERO elsewhere
                            grads[node] = None, kit.vec.every, kit.vec.every ^ 1 << i, {i: 1.0}
                    if node in twice:
                        hess[node] = kit.mat.zero
                    continue
                x = vals[args[0]]
                if op == "mul":
                    out = x * vals[args[1]]
                elif op == "add":
                    out = x + vals[args[1]]
                elif op == "sub":
                    out = x - vals[args[1]]
                elif op == "div":
                    out = x / vals[args[1]]
                elif op == "neg":
                    out = -x
                elif op == "pow":
                    out = _pow(x, node.value)
                else:
                    out = _VEC_FUNCS[op](x)
                vals[node] = out
                if kit:
                    try:
                        if node in twice:
                            grads[node], hess[node] = _forward(node, vals, grads, hess, kit)
                        else:
                            grads[node] = _forward(node, vals, grads, None, kit)[0]
                    except FloatingPointError:
                        raise DomainError("non-finite derivative", node) from None
                for a in args:
                    left = uses[a] - 1
                    if left:
                        uses[a] = left
                    else:
                        del vals[a]
                        if kit:
                            del grads[a]
                            if twice:
                                hess.pop(a, None)
    except FloatingPointError:
        raise DomainError(_fault(node, [vals[a] for a in node.args]), node) from None
    values = np.array([vals[e] for e in exprs]).reshape(len(exprs), npts)
    if not jets:
        return values
    jac = _rows(exprs, grads, kit.vec, kit)
    if not second:
        return values, jac
    return values, jac, _rows(exprs[:second], hess, kit.mat, kit)


def _below(roots, order):
    """The nodes reachable from ``roots``, given the postorder ``order`` of
    a root set that holds them: one pass from the parents down."""
    found = set(roots)
    for node in reversed(order):
        if node in found:
            found.update(node.args)
    return found


def _rows(roots, table, lay, kit):
    """The roots' derivatives from ``table`` (node -> masked block of layout
    lay, see the note above _entry) as one float array of shape (R, P) +
    lay.entries: (R, P, n) for first derivatives, (R, P, n, n) for second,
    a ZERO entry being +0.  Each distinct root's block is written once into
    one stack (R', entries..., P), whose point axis is moved once, as the
    stack is indexed out to every root."""
    rows = {}
    index = [rows.setdefault(e, len(rows)) for e in roots]
    out = np.empty((len(rows),) + lay.entries + (kit.npts,))
    for e, r in rows.items():
        x = table[e]
        out[r] = _values(x, lay)
        if x[2] and x[0] is not None:
            np.copyto(out[r], 0.0, where=_where(x[2], lay.shape))
    return np.moveaxis(out, -1, 1)[index]


def _pow(x, k):
    """x ** k as the walk and both bodies of a Program compute it, for x an
    array or a scalar and an exponent k (an int or a Fraction, taken as a
    float).  The walk's values are arrays; a scalar (a Program on Python
    floats, a Taylor walk's series) is raised as a (1,) array: numpy's
    array power takes fast paths (x**2 is x*x, x**0.5 is sqrt, which keeps
    -0.0) that differ from its scalar pow in the last bit."""
    k = float(k) if isinstance(k, Fraction) else k
    if type(x) is np.ndarray:
        return x**k
    return (np.full(1, x) ** k)[0]


# Forward mode: each node's derivatives d/dy^1..d/dy^n ride along with its
# value (Griewank and Walther, "Evaluating Derivatives", 2nd ed., 2008,
# ch. 3 and 13).  Each derivative is an entry that stands for the tree
# diff_expr would build: the constant node where that tree is one (ZERO,
# ONE, a folded constant), a value otherwise.  A node keeps its n first
# derivatives as one masked block (v, m, z, c): v holds the entries'
# values, an (n, P) array, m has bit i set where entry i is a constant
# node, z where that node is ZERO, and c maps every other constant entry
# to its value.  v holds those constants too, so that an operation with a
# value is the walk of the tree; at a ZERO entry it holds a zero of either
# sign (a nan, unchecked), which no operation reads.
# Where every entry is a constant v may be None, made from c when a value
# needs it.  A node below the roots that ask for second derivatives also
# keeps them as a masked (n, n) block (values (n, n, P), bit k*n + l for
# entry [k, l]): row k is the derivatives of the tree diff_expr builds for
# y^k.
#
# The _m* helpers are the smart constructors on every entry of a block at
# once: _madd is add on two blocks, or sub given ``sub``; _mscale is mul by
# one entry, or div given ``full``; _mmul is mul on two blocks and _mneg is
# neg.  The constants fold in Python floats, as those constructors fold them
# (ExprError on a non-finite result, ZERO for a zero), before the values are
# one numpy operation on the block; where a fold returns an argument (x +
# ZERO is x, also for x = -0; ZERO - x is -x) that argument is copied in.
# _forward follows _diff_node's rule for the node, term for term, on blocks:
# an add, sub, mul, div or neg combines its arguments' blocks, and each
# derivative of a pow or a function is a product or a quotient of its
# argument's by one per-point factor, whose derivatives give the second by
# the product or the quotient rule (_quotient2).  A constant denominator is
# squared by powi, a value only where some numerator is not ZERO.  So each
# derivative is bitwise the walk of its tree, signed zeros included.  A flag
# comes from a node the trees have or, rarely, from a term they fold away,
# and the walk raises it as a DomainError naming the node whose derivative
# it computes.
# Where no block an add, sub, mul or div reads holds a constant entry (m ==
# 0, at points of dimension n > 0), _plain applies the rule to the arrays:
# the same ufuncs in the same order, without the masks' bookkeeping.  The
# quotient rule's terms over a denominator node b that depend on b alone,
# b**2, its square and the derivatives (2 * b) * d b of b**2, are made once
# per walk and kept for every quotient over b (_held).


def _entry(node, vals):
    """A node as a derivative entry: itself if constant, else its values."""
    return node if node.op == "const" else vals[node]


def _jpowi(x, k):
    """powi on an entry.  The only constant entry it gets is a quotient's
    denominator, squared, which powi always folds (or rejects with its
    ExprError); a value is raised to k as the walk raises it."""
    if isinstance(x, Expr):
        return powi(x, k)
    if k == 1:
        return x
    return _pow(x, k)


_NONE = {}  # the constants of a block that has none other than ZERO; never written to


class _Layout:
    """Masked blocks of one shape of ``entries``, (n,) for first derivatives
    or (n, n) for second: ``size`` entries, ``every`` the bits of them all,
    ``shape`` that of an array of constants (with a trailing axis of 1 for
    the points), and ``zero`` the block whose entries are all ZERO."""

    __slots__ = ("entries", "size", "every", "shape", "zero")

    def __init__(self, entries):
        self.entries = entries
        self.size = math.prod(entries)
        self.every = (1 << self.size) - 1
        self.shape = entries + (1,)
        self.zero = (None, self.every, self.every, _NONE)


class _Kit:
    """What one walk's masked blocks share: the dimension n, the number of
    points, ``full`` (see _walk), the layouts of first (``vec``) and second
    derivatives (``mat``), and ``held``, the quotient rule's terms over each
    denominator node (see _held)."""

    __slots__ = ("n", "npts", "full", "vec", "mat", "held")

    def __init__(self, n, npts, full):
        self.n, self.npts, self.full = n, npts, full
        self.vec = _Layout((n,))
        self.mat = _Layout((n, n))
        self.held = {}


def _held(kit, key, make, *args):
    """make(*args), made the first time a walk asks for ``key`` and kept
    for the rest of it.  The keys are (b, k) for a div's denominator node
    b: k = 2 for b**2, 4 for (b**2)**2 and 1 for the derivatives of b**2,
    (2 * b) * d b, which depend on b alone and so are the same at every
    quotient over b."""
    out = kit.held.get(key)
    if out is None:
        out = kit.held[key] = make(*args)
    return out


# _bits, _where and _moved are memoized across walks: a walk meets a few
# dozen patterns of constant entries, the same in every walk of a system.
@lru_cache(maxsize=1 << 16)
def _bits(b):
    """The set bits of ``b``, lowest first."""
    return tuple(i for i in range(b.bit_length()) if b >> i & 1)


@lru_cache(maxsize=1 << 16)
def _where(bits, shape):
    """A read-only bool array of a layout's ``shape``, true at the entries
    whose bits are set."""
    out = np.zeros(math.prod(shape), dtype=bool)
    out[list(_bits(bits))] = True
    out.flags.writeable = False
    return out.reshape(shape)


@lru_cache(maxsize=1 << 16)
def _moved(b, how, n):
    """The bits of the (n, n) block made from a block with the bits b:
    ``how`` 0 or 1 spreads n entries along that axis (see _spread), 2
    transposes an (n, n) block."""
    if how == 0:
        return sum(((1 << n) - 1) << i * n for i in _bits(b))
    if how == 1:
        return sum(1 << k * n + i for i in _bits(b) for k in range(n))
    return sum(1 << (i % n) * n + i // n for i in _bits(b))


def _values(x, lay):
    """The values of a masked block x: its array, or an array of its
    constants where every entry is one."""
    v = x[0]
    if v is None:
        v = np.zeros(lay.size)
        for i, u in x[3].items():
            v[i] = u
        v = v.reshape(lay.shape)
    return v


def _folded(i, r, z, c):
    """Record r, the Python float of a folded constant at entry i, in the
    ZERO bits z and the constants c of a block; returns z.  As ``const``
    has it, a zero is ZERO and a result that is not finite an ExprError."""
    if r == 0.0:
        return z | 1 << i
    if not math.isfinite(r):
        raise ExprError(f"non-finite constant {r!r}")
    c[i] = r
    return z


def _madd(x, y, lay, sub=False):
    """add on each entry of the masked blocks x and y, or sub given ``sub``."""
    vx, mx, zx, cx = x
    vy, my, zy, cy = y
    if zy == lay.every:
        return x
    if zx == lay.every:
        return _mneg(y) if sub else y
    op = operator.sub if sub else operator.add
    if not (mx | my):
        return op(vx, vy), 0, 0, _NONE
    m, z, c = mx & my, zx & zy, {}
    for i in _bits(m & ~z):  # a ZERO entry folds as 0.0
        z = _folded(i, op(cx.get(i, 0.0), cy.get(i, 0.0)), z, c)
    if m == lay.every:
        return None, m, z, c
    vx, vy = _values(x, lay), _values(y, lay)
    v = op(vx, vy)
    if zy & ~zx:
        np.copyto(v, vx, where=_where(zy & ~zx, lay.shape))
    if zx & ~zy:  # ZERO + u is u, ZERO - u is -u
        if sub:
            np.negative(vy, out=v, where=_where(zx & ~zy, lay.shape))
        else:
            np.copyto(v, vy, where=_where(zx & ~zy, lay.shape))
    return v, m, z, c


def _mneg(x):
    """neg on each entry of a masked block."""
    v, m, z, c = x
    return (None if v is None else -v), m, z, {i: -u for i, u in c.items()}


def _mmul(x, y, lay):
    """mul on each entry of the masked blocks x and y."""
    vx, mx, zx, cx = x
    vy, my, zy, cy = y
    z = zx | zy
    if z == lay.every:
        return lay.zero
    if not (mx | my):
        return vx * vy, 0, 0, _NONE
    m, c = mx & my | z, {}
    for i in _bits(m & ~z):
        z = _folded(i, cx[i] * cy[i], z, c)
    if m == lay.every:
        return None, m, z, c
    return _values(x, lay) * _values(y, lay), m, z, c


def _mscale(x, s, lay, full=None):
    """mul(u, s) on each entry u of the masked block x, for one entry s (a
    node as a derivative entry, see _entry; the same at every index), or
    div(u, s) given ``full``, which makes a value of a constant (the walk's
    constant at every point)."""
    _, mx, zx, cx = x
    op = operator.mul if full is None else operator.truediv
    if isinstance(s, Expr):
        if s is ONE:
            return x
        if s is ZERO:
            if full is None:
                return lay.zero
            return _values(x, lay) / full(0.0), 0, 0, _NONE  # div(c, ZERO) is a node
        if s is _MINUS_ONE and full is None:
            return _mneg(x)
        k, z, c = s.value, zx, {}
        for i, u in cx.items():
            z = _folded(i, op(u, k), z, c)
        return (None if mx == lay.every else op(_values(x, lay), k)), mx, z, c
    if zx == lay.every:
        return x
    return op(_values(x, lay), s), zx, zx, _NONE  # a constant times a value is a value


def _spread(f, axis, kit):
    """Masked first derivatives f as a masked (n, n) block whose entry
    [k, l] is f's entry k (``axis`` 0) or l (``axis`` 1)."""
    v, m, z, c = f
    if v is not None:
        v = v[:, None] if axis == 0 else v[None]
    if not m:
        return v, 0, 0, _NONE
    n = kit.n
    if axis == 0:
        c = {k * n + l: u for k, u in c.items() for l in range(n)}
    else:
        c = {k * n + l: u for l, u in c.items() for k in range(n)}
    return v, _moved(m, axis, n), _moved(z, axis, n), c


def _transpose(x, kit):
    """A masked (n, n) block transposed."""
    v, m, z, c = x
    if v is not None:
        v = v.swapaxes(0, 1)
    if not m:
        return v, 0, 0, _NONE
    n = kit.n
    c = {(i % n) * n + i // n: u for i, u in c.items()}
    return v, _moved(m, 2, n), _moved(z, 2, n), c


def _filled(x, lay):
    """A masked block whose constants, where every entry is one and some
    is not ZERO, are made an array (see _values)."""
    if x[0] is None and x[2] != lay.every:
        return (_values(x, lay),) + x[1:]
    return x


def _forward(node, vals, grads, hess, kit):
    """A node's masked first derivatives from its value and its arguments'
    entries, values and first derivatives (``grads``), and, given the table
    ``hess`` of its arguments' second derivatives, its own (else None): row
    k of the second holds the derivatives of d node/dy^k.  Both are block
    operations in the order of the terms of the trees _diff_node builds
    (see the note above _entry)."""
    op = node.op
    a = node.args[0]
    fa = grads[a]
    ha = None if hess is None else hess[a]
    vec, mat = kit.vec, kit.mat
    if op == "add" or op == "sub" or op == "mul" or op == "div":
        b = node.args[1]
        fb = grads[b]
        hb = None if ha is None else hess[b]
        # blocks without a constant entry (m == 0) hold arrays, except at
        # points of dimension 0, where every block has m == 0 and most none
        if kit.n and not (fa[1] or fb[1] or ha is not None and (ha[1] or hb[1])):
            return _plain(op, b, vals[a], vals[b], fa, fb, ha, hb, kit)
        if op == "add" or op == "sub":
            sub = op == "sub"
            return _madd(fa, fb, vec, sub), None if ha is None else _madd(ha, hb, mat, sub)
        # the arguments' constants that meet values are made arrays once
        x, y = _entry(a, vals), _entry(b, vals)
        if not isinstance(x, Expr):
            grads[b] = fb = _filled(fb, vec)
        if not isinstance(y, Expr):
            grads[a] = fa = _filled(fa, vec)
        if op == "mul":
            f = _madd(_mscale(fa, y, vec), _mscale(fb, x, vec), vec)
        else:
            # a constant denominator is squared first, as building the tree
            # folds powi; a value only where some numerator is not ZERO, as
            # the trees' div(ZERO, b**2) folds to ZERO unevaluated
            den = _held(kit, (b, 2), _jpowi, y, 2) if isinstance(y, Expr) else None
            num = _madd(_mscale(fa, y, vec), _mscale(fb, x, vec), vec, True)
            if den is None:
                if num[2] == vec.every:
                    return vec.zero, None if ha is None else mat.zero
                den = _held(kit, (b, 2), _jpowi, y, 2)
            f = _mscale(num, den, vec, kit.full)
        if ha is None:
            return f, None
        if not isinstance(x, Expr):
            hess[b] = hb = _filled(hb, mat)
        if not isinstance(y, Expr):
            hess[a] = ha = _filled(ha, mat)
        # d/dy^k of a product is (d_k a * b) + (a * d_k b), and its
        # derivative by y^l is p + q, p = (d_kl a * b) + (d_k a * d_l b) and
        # q = (d_l a * d_k b) + (a * d_kl b), whose middle terms are each
        # other's transpose; a quotient's is (d_k a * b - a * d_k b) over
        # b**2, whose numerator has the derivatives p - q, and b**2 the
        # derivatives (2 * b) * d_l b
        outer = _mmul(_spread(fa, 0, kit), _spread(fb, 1, kit), mat)
        p = _madd(_mscale(ha, y, mat), outer, mat)
        q = _madd(_transpose(outer, kit), _mscale(hb, x, mat), mat)
        if op == "mul":
            return f, _madd(p, q, mat)
        dden = vec.zero if isinstance(y, Expr) else _held(kit, (b, 1), _dsquare, fb, y, vec)
        return f, _quotient2(num, _madd(p, q, mat, True), den, dden, kit, b)
    if op == "neg":
        return _mneg(fa), None if ha is None else _mneg(ha)
    if op == "pow":
        kc = const(float(node.value))  # built, and checked, in every tree
    if fa[2] == vec.every and op != "ln":
        # each rule below is a product with d a/dy^k, or a quotient of it,
        # which folds to ZERO; so is ln's but of ZERO, div(ZERO, ZERO)
        # being a node, so ln takes its rule
        return fa, ha
    x, out = _entry(a, vals), vals[node]
    if op == "ln" or op == "sqrt":
        # d/dy^k is d a/dy^k over a, or over 2 * node, whose derivatives
        # are a's, or 2 times the node's
        den = x if op == "ln" else 2.0 * out
        f = _mscale(fa, den, vec, kit.full)
        if ha is None:
            return f, None
        return f, _quotient2(fa, ha, den, fa if op == "ln" else _mscale(f, _TWO, vec), kit)
    # d/dy^k is factor * d a/dy^k, negated for cos
    if op == "pow":
        k = node.value
        p = _jpowi(x, k - 1)
        factor = -p if kc is _MINUS_ONE else kc.value * p  # kc * a**(k - 1)
    elif op == "exp":
        factor = out
    else:  # sin or cos
        factor = np.cos(x) if op == "sin" else np.sin(x)
    f = _mscale(fa, factor, vec)
    if ha is None:
        return (_mneg(f) if op == "cos" else f), None
    # the factor's derivatives: for a power kc times those of a**(k - 1),
    # which are a's for k = 2, else ((k - 1) * a**(k - 2)) times a's; for
    # exp the node's; for sin and cos those of cos a and sin a, which are
    # -(sin a * d a) and cos a * d a, the node being sin a or cos a
    if op == "pow":
        dp = fa if k == 2 else _mscale(fa, float(k - 1) * _jpowi(x, k - 2), vec)
        dfactor = _mscale(dp, kc, vec)
    elif op == "exp":
        dfactor = f
    else:
        dfactor = _mscale(fa, out, vec)
        if op == "sin":
            dfactor = _mneg(dfactor)
    # row k is the derivatives of factor * d a/dy^k:
    # (d factor * d a/dy^k) + (factor * d(d a/dy^k))
    terms = _mmul(_spread(dfactor, 1, kit), _spread(fa, 0, kit), mat)
    h = _madd(terms, _mscale(ha, factor, mat), mat)
    return (_mneg(f), _mneg(h)) if op == "cos" else (f, h)


def _plain(op, b, x, y, fa, fb, ha, hb, kit):
    """_forward's rule for an add, sub, mul or div whose arguments' blocks
    (fa, fb and, given the second derivatives, ha, hb) hold no constant
    entry: the ufuncs of the masked path, in its order, on their arrays,
    with x and y the arguments' values and b the second argument.  The
    results hold no constant entry either."""
    ga, gb = fa[0], fb[0]
    if op == "add" or op == "sub":
        sum_ = operator.add if op == "add" else operator.sub
        return (sum_(ga, gb), 0, 0, _NONE), None if ha is None else (sum_(ha[0], hb[0]), 0, 0, _NONE)
    if op == "mul":
        f = ga * y + gb * x
    else:
        num = ga * y - gb * x
        den = _held(kit, (b, 2), _jpowi, y, 2)
        f = num / den
    if ha is None:
        return (f, 0, 0, _NONE), None
    outer = ga[:, None] * gb[None]
    p = ha[0] * y + outer
    q = outer.swapaxes(0, 1) + hb[0] * x
    if op == "mul":
        return (f, 0, 0, _NONE), (p + q, 0, 0, _NONE)
    dnum = p - q
    dden = _held(kit, (b, 1), _dsquare, fb, y, kit.vec)[0]
    den2 = _held(kit, (b, 4), _jpowi, den, 2)
    return (f, 0, 0, _NONE), ((dnum * den - num[:, None] * dden[None]) / den2, 0, 0, _NONE)


def _dsquare(fb, y, vec):
    """The derivatives of b**2, (2 * b) * d b, from b's values y and first
    derivatives fb."""
    return _mscale(fb, 2.0 * y, vec)


def _quotient2(num, dnum, den, dden, kit, key=None):
    """The second derivatives of a node whose first derivatives are num_k
    over den (an entry), from the derivatives dnum of the numerators num
    and dden of the denominator: row k is the derivatives of num_k / den,
    (dnum_k * den - num_k * dden) / den**2.  Where num_k / den folds, as
    div folds it, row k is the derivatives of the node it folds to: num_k
    itself by a denominator ONE, else a constant, whose row is ZERO.
    den**2 is built, as in the trees, where some row does not fold; for a
    div, whose denominator node is ``key``, it is kept for the walk with
    den and dden (see _held), as every quotient over that node has them."""
    mat = kit.mat
    if den is ONE:
        return dnum
    # the rows that fold: ZERO over a value, a constant over a constant
    # other than ZERO
    folded = num[2] if not isinstance(den, Expr) else 0 if den is ZERO else num[1]
    if folded == kit.vec.every:
        return mat.zero
    den2 = _jpowi(den, 2) if key is None else _held(kit, (key, 4), _jpowi, den, 2)
    top = _madd(_mscale(dnum, den, mat), _mmul(_spread(num, 0, kit), _spread(dden, 1, kit), mat), mat, True)
    v, m, z, c = _mscale(top, den2, mat, kit.full)
    if not folded:
        return v, m, z, c
    rows = _moved(folded, 0, kit.n)  # which a division by a ZERO den2 leaves values
    return v, m | rows, z | rows, {i: u for i, u in c.items() if not rows >> i & 1}


# ---------------------------------------------------------------------------
# Taylor coefficients at one point
# ---------------------------------------------------------------------------

_FLIP = np.array([-1.0, 1.0])  # on a (coefficient, magnitude) pair: negates the coefficient


class TaylorTables:
    """Truncated polynomials in (y - p0) of order k on n coordinates.

    A polynomial is the array of its K = C(n+k, k) coefficients along axis
    0, coefficient j standing for the monomial (y - p0)^monomials[j], so
    that coefficient j is d^alpha f(p0) / alpha! for alpha = monomials[j].
    The monomials are graded: 1, then y^1..y^n, then the products of two,
    and so on, and the order within a degree does not depend on k, so the
    polynomials of order k - 1 are the first entries of those of order k.
    Built once per (n, k) by ``taylor_tables``.
    """

    def __init__(self, n, k):
        monos = [(0,) * n]
        for d in range(1, k + 1):
            for picks in itertools.combinations_with_replacement(range(n), d):
                monos.append(tuple(picks.count(i) for i in range(n)))
        index = {m: j for j, m in enumerate(monos)}
        degree = [sum(m) for m in monos]
        bounds = np.searchsorted(degree, np.arange(k + 2))  # degree d is bounds[d]:bounds[d + 1]
        self.size = len(monos)
        self.monomials = np.array(monos, dtype=int).reshape(len(monos), n)
        # the product's pairs (gamma, alpha, beta), alpha + beta = gamma,
        # sorted by gamma: every gamma has (gamma, 0, gamma) among them
        pairs = sorted(
            (index[tuple(x + y for x, y in zip(a, b))], i, j)
            for i, a in enumerate(monos)
            for j, b in enumerate(monos)
            if degree[i] + degree[j] <= k
        )
        gamma, self._left, self._right = (np.array(v, dtype=int) for v in zip(*pairs))
        self._starts = np.searchsorted(gamma, np.arange(self.size))
        # a quotient degree by degree: the pairs with beta != 0 of each degree
        self._degrees = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            keep = (gamma >= lo) & (gamma < hi) & (self._right != 0)
            starts = np.searchsorted(gamma[keep], np.arange(lo, hi))
            self._degrees.append((slice(lo, hi), self._left[keep], self._right[keep], starts))
        # d/dy^i: coefficient j of order k - 1 is (alpha_i + 1) c[alpha + e_i]
        low = self.monomials[: bounds[k]]
        unit = np.eye(n, dtype=int)
        src = [[index[tuple(m + unit[i])] for m in low] for i in range(n)]
        self._dsrc = np.array(src, dtype=int).reshape(n, len(low))
        self._dfac = (low.T + 1.0).reshape(n, len(low))

    def mul(self, x, y):
        """The truncated product of polynomials x and y, their coefficients
        along axis 0 and any further axes broadcast elementwise."""
        return np.add.reduceat(x[self._left] * y[self._right], self._starts, axis=0)

    def div(self, x, y):
        """x / y for polynomials x and y of the same shape, solved degree by
        degree: y[0] c_gamma = x_gamma - sum_{beta != 0} c_alpha y_beta."""
        c = np.empty(x.shape)
        for part, left, right, starts in self._degrees:
            if len(left):
                c[part] = (x[part] - np.add.reduceat(c[left] * y[right], starts)) / y[0]
            else:
                c[part] = x[part] / y[0]
        return c

    def compose(self, g, u):
        """sum_j g[j] (u - u[0])^j for a univariate series g of length
        k + 1 at u[0], by Horner's rule."""
        h = u.copy()
        h[0] = 0.0
        c = np.zeros(u.shape)
        c[0] = g[-1]
        for gj in g[-2::-1]:
            c = self.mul(c, h)
            c[0] += gj
        return c

    def grad(self, x):
        """dx/dy^1..n of polynomials x of order k as polynomials of order
        k - 1, on a new trailing axis."""
        d = x[self._dsrc] * self._dfac.reshape(self._dfac.shape + (1,) * (x.ndim - 1))
        return np.moveaxis(d, 0, -1)


@cache
def taylor_tables(n, k):
    """The TaylorTables of order k on n coordinates, built on first use."""
    return TaylorTables(n, k)


def taylor_coefficients(exprs, point, k):
    """Taylor coefficients of a flat sequence of R roots at one point of
    shape (n,), to order k, and their magnitudes: a pair of (R, K)
    arrays, row r holding root r as a polynomial of ``taylor_tables(n, k)``.

    One forward walk over the roots' shared DAG carries each node's
    truncated polynomial (Griewank and Walther, "Evaluating Derivatives",
    2nd ed., 2008, ch. 13): sums and negation elementwise, products by the
    truncated Cauchy product, a quotient solved degree by degree, and exp,
    ln, sqrt, sin, cos and powers by composing the node's univariate series
    at its value with (u - u0).  It builds no derivative tree, and its
    values are not bitwise those of the trees' walk.  Alongside each
    coefficient it carries its magnitude, the same sums over the absolute
    values of their terms, so a coefficient's rounding error is a small
    multiple of the unit roundoff times its magnitude (running error
    analysis: Higham, "Accuracy and Stability of Numerical Algorithms",
    2nd ed., 2002, sec. 3.3).

    It raises DomainError naming the node where a magnitude, and so a
    coefficient, is not finite, or where a power's series leaves the float
    range; and ExprError where a coordinate is out of range for the
    point."""
    if k < 0:
        raise ValueError(f"order must be at least 0, got {k!r}")
    point = np.asarray(point, dtype=float)
    if point.ndim != 1:
        raise ValueError(f"expected one point of shape (n,), got shape {point.shape}")
    dim = len(point)
    tables = taylor_tables(dim, k)
    order, uses = _postorder(exprs)
    # each node's polynomial is a (K, 2) array: coefficients, magnitudes
    coefs = {}
    with np.errstate(all="ignore"):
        for node in order:
            op = node.op
            args = node.args
            if not args:
                c = np.zeros((tables.size, 2))
                if op == "const":
                    c[0] = node.value, abs(node.value)
                elif node.index > dim:
                    raise ExprError(
                        f"coordinate y{node.index} out of range for a point of dimension {dim}"
                    )
                else:
                    x0 = point[node.index - 1]
                    c[0] = x0, abs(x0)
                    if k:
                        c[node.index] = 1.0
            else:
                x = coefs[args[0]]
                if len(args) == 2:
                    y = coefs[args[1]]
                if op == "add":
                    c = x + y
                elif op == "sub":
                    c = x + y * _FLIP
                elif op == "mul":
                    c = tables.mul(x, y)
                elif op == "neg":
                    c = x * _FLIP
                elif op == "div":
                    den = y * -_FLIP  # the magnitudes' quotient adds what the values' subtracts
                    den[0] = y[0, 0], abs(y[0, 0])
                    c = tables.div(x, den)
                else:
                    g = _series(node, x[0, 0], k)
                    c = tables.compose(np.stack([g, np.abs(g)], axis=1), x)
                for a in args:
                    left = uses[a] - 1
                    if left:
                        uses[a] = left
                    else:
                        del coefs[a]
            if not c[:, 1].max() < np.inf:  # nan fails too
                raise DomainError("Taylor coefficient out of range", node)
            coefs[node] = c
    both = np.array([coefs[e] for e in exprs]).reshape(len(exprs), tables.size, 2)
    return both[..., 0], both[..., 1]


def _series(node, u0, k):
    """The univariate Taylor series g_j = g^(j)(u0) / j!, j = 0..k, of the
    node's function or power at its argument's value u0."""
    op = node.op
    fact = [float(math.factorial(j)) for j in range(k + 1)]
    if op == "exp":
        e = np.exp(u0)
        g = [e / f for f in fact]
    elif op == "sin" or op == "cos":
        s, c = np.sin(u0), np.cos(u0)
        cycle = (s, c, -s, -c) if op == "sin" else (c, -s, -c, s)
        g = [cycle[j % 4] / fact[j] for j in range(k + 1)]
    elif op == "ln":
        g = [np.log(u0)] + [(-1.0) ** (j - 1) / (j * u0**j) for j in range(1, k + 1)]
    elif op == "sqrt":
        s = np.sqrt(u0)
        g = [s] + [float(_binomial(Fraction(1, 2), j)) * s / u0**j for j in range(1, k + 1)]
    else:  # a power
        p = node.value
        g = []
        try:
            for j in range(k + 1):
                beyond = isinstance(p, int) and 0 <= p < j  # u^p has degree p
                g.append(0.0 if beyond else float(_binomial(p, j)) * _pow(u0, p - j))
        except (OverflowError, ValueError):
            raise DomainError("power out of floating-point range", node) from None
    g = np.array(g, dtype=float)
    if not np.isfinite(g).all():
        raise DomainError("non-finite Taylor coefficient", node)
    return g


def _binomial(p, j):
    """p (p - 1) .. (p - j + 1) / j! for an int or Fraction p."""
    out = Fraction(1)
    for i in range(j):
        out = out * (p - i) / (i + 1)
    return out


def _fault(node, args):
    """Why ``node`` raised a floating-point flag, from its op and the values
    of its (finite) arguments."""
    op = node.op
    if op == "div" and not args[1].all():
        return "division by zero"
    if op == "ln":
        return "ln of nonpositive argument"
    if op == "sqrt":
        return "sqrt of negative argument"
    if op == "pow":
        k = node.value
        if k < 0 and not args[0].all():
            return "zero raised to a negative power"
        if isinstance(k, Fraction) and (args[0] < 0.0).any():
            return "negative base with fractional exponent"
        return "overflow"
    return "non-finite value"


# ---------------------------------------------------------------------------
# Compilation to straight-line code
# ---------------------------------------------------------------------------

_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}

def _on_float(f):
    return lambda x: float(f(x))


# A program has two bodies.  The scalar one runs on Python floats for one
# point; the array one on numpy columns for an array of points.  The helpers
# apply numpy's own operation in both, so a float result equals its entry in
# a (1,) array.  Powers go through an array because ``array ** k`` takes
# fast paths (x**0.5 is sqrt, keeping -0.0) that np.power on a float does
# not, and numpy's pow differs from Python's in the last bit.  The array
# body writes each value into its name's array with the ufunc's ``out``
# argument: _add .. _pw are the ufuncs of + - * / unary - and **.  Its
# constant operands are 0-d float64 arrays, which a ufunc takes as they are
# where it converts a Python float on every call, with the same bits: _one
# is the 1.0 of 1.0/x.
_SCALAR_NS = {f"_{name}": _on_float(f) for name, f in _VEC_FUNCS.items()}
_SCALAR_NS["_pw"] = lambda x, k: float(_pow(x, k))
_ARRAY_NS = {f"_{name}": f for name, f in _VEC_FUNCS.items()}
_ARRAY_NS.update(
    _add=np.add, _sub=np.subtract, _mul=np.multiply, _div=np.divide, _neg=np.negative, _pw=np.power,
    _one=np.array(1.0),
)


def _statement(node, a):
    """Source of one node's value from its arguments' names: the operation
    eval_many_shared performs, with numpy's fast paths for x**2 (x*x) and
    x**-1 (1.0/x) written out so Python floats can take them too."""
    op = node.op
    if op in _INFIX:
        return f"{a[0]} {_INFIX[op]} {a[1]}"
    if op == "neg":
        return f"-{a[0]}"
    if op == "pow":
        k = node.value
        if k == 2:
            return f"{a[0]} * {a[0]}"
        if k == -1:
            return f"1.0 / {a[0]}"
        return f"_pw({a[0]}, {float(k) if isinstance(k, Fraction) else k!r})"
    return f"_{op}({a[0]})"


def _array_statement(v, node, a):
    """Source that puts one node's value in the array named ``v``: the ufunc
    of _statement, called with ``v`` as its out argument (``v`` may also be
    an argument, an exact overlap that elementwise ufuncs allow).  A power
    of 1/2 is sqrt, which numpy's x**0.5 takes (keeping -0.0) and np.power
    does not in every supported numpy."""
    op = node.op
    if op == "pow":
        k = node.value
        if k == 2:
            return f"_mul({a[0]}, {a[0]}, {v})"
        if k == -1:
            return f"_div(_one, {a[0]}, {v})"
        if k == Fraction(1, 2):
            return f"_sqrt({a[0]}, {v})"
        return f"_pw({a[0]}, {float(k) if isinstance(k, Fraction) else k!r}, {v})"
    return f"_{op}({', '.join(a)}, {v})"


def _function(params, lines):
    return f"def program({params}):\n" + "".join(f"    {line}\n" for line in lines or ["pass"])


# Steps per function of a program's array body.  Compiling takes about
# 3.6 KB a statement while it runs, and the array body is compiled on a first
# run, so its parts keep that to about 0.25 MB beside the run's arrays.
_PART = 64

_LINE = 8  # float64 values in a 64-byte cache line
_FLOAT = np.dtype(float)


def _odd_lines(n):
    """n values rounded up to an odd number of whole 64-byte cache lines, in
    values: rows that many values apart and fewer than 64 apart are never a
    multiple of 4 KiB apart, where a load from one row would wait on a store
    to another with the same low address bits (4K aliasing)."""
    return (-(-n // _LINE) | 1) * _LINE


def _aligned_rows(m, n):
    """A new zeroed (m, n) float64 array, a view of one buffer, each row on a
    64-byte boundary, so a ufunc over the rows loads no value split across
    two cache lines; the row stride is n rounded up by _odd_lines."""
    stride = _odd_lines(n)
    buf = np.zeros(m * stride + _LINE - 1)
    start = -buf.__array_interface__["data"][0] // 8 % _LINE
    return buf[start : start + m * stride].reshape(m, stride)[:, :n]


class Program(Sequence):
    """Straight-line code for a fixed sequence of roots, from compile_exprs.

    It is a sequence of its roots, and ``eval_many_shared(program, points)``
    returns bitwise what evaluating those roots returns, inf and nan
    included, as one (R, P) array, from numpy columns (``run``).  ``at``
    runs one point on Python floats; a call that raises there (division by
    zero, a missing coordinate) is redone on arrays.

    The code is one list of steps, written out as two bodies.  The scalar
    body (``source``, run by ``at``) assigns each value to its name, with
    constants as Python floats.  The array body (run by ``run``) gives each
    name its own (P,) array, and each step writes into that array through
    the ufunc's ``out`` argument: the same ufunc on the same operands in the
    same order as the walk, so the same bits, without a new array per step.
    Its constants are 0-d float64 arrays.  The name arrays are the rows of
    one block from _aligned_rows, each starting on a cache line; they are
    kept between runs at the same point count P and made anew when P
    changes, so a Program is not thread-safe; each run returns a new
    ``out``.  A root that is stored once and read by no later step is
    written by its last step straight into its row of ``out``, where the
    scalar body assigns it and then stores it.  The array body is generated
    and compiled on the first ``run``, in functions of at most _PART steps
    that share the list of names, bound into one function that runs them
    under ``np.errstate(all="ignore")``: a program run only through ``at``,
    as every Pfaff right-hand side is, never pays for it.  Each run hands
    them the points' coordinate rows as one list, made once.
    """

    def __init__(self, roots, coords, nvars, steps, constants, numpy_calls):
        self.roots = tuple(roots)
        self._coords = coords  # in the walk's order, which names the first one missing
        self._top = max(coords, default=0)
        self._head = [f"y{i} = x[{i - 1}]" for i in sorted(coords)]
        self._nvars = nvars
        self._steps = steps
        self._constants = constants  # the values of _k0, _k1, ...
        # the scalar body writes a finite constant as its literal, which
        # Python loads faster than a global name; inf and nan stay names
        inline = {
            f"_k{j}": repr(c) if c >= 0.0 else f"({c!r})"
            for j, c in enumerate(constants)
            if math.isfinite(c)
        }
        body = []
        for v, node, a, row in steps:
            if node is None:
                body.append(f"{v} = {inline.get(a, a)}")
            else:
                body.append(f"{v} = {_statement(node, [inline.get(t, t) for t in a])}")
            if row is not None:
                body.append(f"{row} = {v}")
        self.source = _function("x, out", self._head + body)
        self._scalar = self._bind(self.source, _SCALAR_NS, float)
        self._array = None
        self._names, self._npts = [], None  # the array body's names, at npts points
        self._numpy_calls = numpy_calls

    def _bind(self, source, helpers, kind):
        namespace = dict(helpers)
        namespace.update((f"_k{j}", kind(c)) for j, c in enumerate(self._constants))
        exec(compile(source, "<affsym program>", "exec"), namespace)
        return namespace["program"]

    def _array_sources(self):
        """The array body's source as functions of (x, out, names), in order,
        x a list of coordinate rows.  A root's store (node None) copies its
        value into its row of ``out``; a step with a row writes its value there."""
        head = list(self._head)
        if self._nvars:
            head.append(", ".join(f"v{k}" for k in range(self._nvars)) + ", = names")
        sources = []
        for i in range(0, len(self._steps), _PART):
            body = [
                f"{v} = {a}" if node is None else _array_statement(row or v, node, a)
                for v, node, a, row in self._steps[i : i + _PART]
            ]
            sources.append(_function("x, out, names", head + body))
        return sources

    def __len__(self):
        return len(self.roots)

    def __getitem__(self, i):
        return self.roots[i]

    def run(self, points):
        """The roots' values as a new (R, P) array at points of shape (P, n),
        or at one point of shape (n,) (P = 1), computed on numpy columns.  A
        2-D float64 ndarray is read as it is; anything else is converted
        first.  A coordinate missing from the points raises the walk's
        ExprError."""
        if type(points) is not np.ndarray or points.ndim != 2 or points.dtype is not _FLOAT:
            points = np.atleast_2d(np.asarray(points, dtype=float))
        columns = points.T
        dim, npts = columns.shape
        if self._top > dim:
            first = next(i for i in self._coords if i > dim)
            raise ExprError(f"coordinate y{first} out of range for a point of dimension {dim}")
        out = np.empty((len(self.roots), npts))
        if self._array is None:
            parts = [self._bind(source, _ARRAY_NS, np.array) for source in self._array_sources()]
            # one list of the rows the parts read, at half the cost of list(columns)
            used = ", ".join(f"x[{i}]" if i + 1 in self._coords else "None" for i in range(self._top))
            rows = eval(f"lambda x: [{used}]")

            @np.errstate(all="ignore")  # at about half the cost of a with block per call
            def array(columns, out, names):
                x = rows(columns)
                for part in parts:
                    part(x, out, names)

            self._array = array
        if npts != self._npts:
            self._names, self._npts = list(_aligned_rows(self._nvars, npts)), npts
        self._array(columns, out, self._names)
        return out

    def at(self, x):
        """The roots' values at one point as an (R,) array.  ``x`` is the
        point as a list of Python floats, which the generated code runs on
        as it is; where the floats raise (division by zero, a coordinate
        missing from x), the point is redone on arrays by ``run``."""
        out = [0.0] * len(self.roots)
        try:
            if self._numpy_calls:
                with np.errstate(all="ignore"):
                    self._scalar(x, out)
            else:
                self._scalar(x, out)
        except (ZeroDivisionError, OverflowError, ValueError, IndexError):
            return self.run(x).reshape(-1)
        return np.array(out)


def compile_exprs(roots):
    """Compile a sequence of roots into a Program: one step per distinct
    node, as eval_many_shared walks them (nodes are interned, so identity is
    structural equality and every equal subtree is computed once), bound to
    a scalar and an array body (see Program).

    A name is reused once its value has had its last use, so no more names
    are live than arrays in the interpreted walk, and each root is stored as
    soon as it is computed.  The array body writes into each name's own
    array and never into the points.  Constants and subtrees without
    coordinates (constants the smart constructors left unfolded, such as
    1/0) are evaluated here, once, and bound by name: as Python floats for
    the scalar body, as 0-d arrays for the array body.  Generating the code
    costs a few interpreted calls, so compile only roots that are evaluated
    many times.
    """
    roots = list(roots)
    order, uses = _postorder(roots)
    slots = {}
    for r, root in enumerate(roots):
        slots.setdefault(root, []).append(r)
    ref = {}  # node -> source text of its value
    temps = set()  # nodes held in a reusable name
    constant = {}  # constants and coordinate-free subtrees -> _k0, _k1, ...
    coords = []  # coordinate indices, in the walk's order
    # (target, node, argument texts, row): a root's store has node None; a
    # root's only use is its store when row is its row of out
    steps = []
    free, nvars = [], 0
    numpy_calls = False

    def release(node):
        left = uses[node] - 1
        uses[node] = left
        if not left and node in temps:
            free.append(ref[node])

    for node in order:
        op = node.op
        if op == "coord":
            coords.append(node.index)
            text = f"y{node.index}"
        elif all(a in constant for a in node.args):  # a const node has none
            text = constant[node] = f"_k{len(constant)}"
        else:
            args = [ref[a] for a in node.args]
            for a in node.args:
                release(a)
            if free:
                text = free.pop()
            else:
                text, nvars = f"v{nvars}", nvars + 1
            numpy_calls = numpy_calls or op in _VEC_FUNCS or op == "pow" and node.value not in (2, -1)
            rows = slots.get(node, ())
            if uses[node] == 1 and rows:
                # the root's one use is its store, which its step makes
                steps.append((text, node, args, f"out[{rows[0]}]"))
                free.append(text)
                continue
            steps.append((text, node, args, None))
            temps.add(node)
        ref[node] = text
        for r in slots.get(node, ()):
            steps.append((f"out[{r}]", None, text, None))
            release(node)

    folded = [c for c in constant if c.op != "const"]
    values = dict(zip(folded, eval_many_shared(folded, np.zeros((1, 0)))[:, 0])) if folded else {}
    constants = [float(values[c]) if c in values else c.value for c in constant]
    return Program(roots, coords, nvars, steps, constants, numpy_calls)


# ---------------------------------------------------------------------------
# Substitution (coordinate change support)
# ---------------------------------------------------------------------------


def subst(e, mapping):
    """Replace coordinate y^i by mapping[i] (an Expr) throughout.

    ``e`` is an Expr or an object array of them; an array comes back with
    the same shape.  Indices missing from the mapping are left untouched.
    Every node reachable from ``e`` is rebuilt once, bottom up over the
    postorder, so subtrees shared in the input stay shared in the result.
    """
    is_array = isinstance(e, np.ndarray)
    roots = e.reshape(-1) if is_array else [e]
    order, _ = _postorder(roots)
    new = {}
    for node in order:
        if node.op == "coord":
            new[node] = mapping.get(node.index, node)
        else:
            new[node] = _build(node.op, [new[a] for a in node.args], node.value, node.index)
    if not is_array:
        return new[e]
    # out= keeps a 0-d array an array
    return np.frompyfunc(new.__getitem__, 1, 1)(e, out=np.empty(e.shape, dtype=object))


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"add": 1, "sub": 1, "mul": 2, "div": 2, "neg": 3, "pow": 4}
_ATOM_PREC = 5


def _prec(e):
    if e.op in _PREC:
        return _PREC[e.op]
    return _ATOM_PREC  # const, coord, function calls


def _fmt_const(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_string(e):
    """Render source text that parses back to the same (interned) tree.

    The one exception is a Fraction exponent, which only the Python API
    builds: it prints as ``^(p/q)``, e.g. ``y1^(1/2)``, which the grammar
    (integer exponents) rejects.

    Fragments are built bottom up over the postorder, so depth is not limited
    by recursion: each node's fragment is a string or a tuple of its pieces
    (strings and its children's fragments), flattened once at the end.
    """
    order, _ = _postorder([e])
    frags = {}
    for node in order:
        frags[node] = _fragment(node, [frags[a] for a in node.args])
    out, stack = [], [frags[e]]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
        else:
            stack.extend(reversed(piece))
    return "".join(out)


def _wrap(piece, paren):
    return ("(", piece, ")") if paren else piece


def _fragment(node, parts):
    """One node's text from its children's fragments, parenthesizing a child
    that binds more loosely than its position allows."""
    op = node.op
    if op == "const":
        if node.value < 0.0:
            return "-" + _fmt_const(-node.value)
        return _fmt_const(node.value)
    if op == "coord":
        return f"y{node.index}"
    if op == "neg":
        return ("-", _wrap(parts[0], _prec(node.args[0]) < _PREC["pow"]))
    if op == "pow":
        base, k = node.args[0], node.value
        paren = _prec(base) < _ATOM_PREC or (base.op == "const" and base.value < 0)
        return (_wrap(parts[0], paren), f"^({k})" if isinstance(k, Fraction) else f"^{k}")
    if op in _BINOPS:
        p = _PREC[op]
        a, b = node.args
        left = _prec(a) < p or (a.op == "const" and a.value < 0 and p == 2)
        right = (
            _prec(b) < p
            or (_prec(b) == p and b.op in _BINOPS)
            or (b.op == "const" and b.value < 0)
        )
        sym = f" {_INFIX[op]} " if p == 1 else _INFIX[op]
        return (_wrap(parts[0], left), sym, _wrap(parts[1], right))
    return (f"{op}(", parts[0], ")")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# Grammar:
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := atom ('^' int)?
#   atom   := number | 'y' int | func '(' expr ')' | '(' expr ')' | '-' factor
#   func   := exp | ln | sqrt | sin | cos
#
# '-' in an atom applies to a whole factor so that '^' binds tighter than
# unary minus (-y1^2 parses as -(y1^2)).  Whitespace is insignificant and
# digits are decimal (str.isdecimal).
#
# _TOKEN matches one (whitespace, token) pair at a character position.  A
# token is a number, a name (str.isalnum characters, the first no decimal
# digit), '^' with its integer, any other character, or the empty end.
# parse_expr scans them in one loop by precedence climbing over an operand
# and an operator stack (Dijkstra's shunting-yard), so nesting is limited by
# memory alone.  An operator is applied once its right operand is complete,
# so constants fold, and fail, in the order the grammar's recursive descent
# would fold them.  Every error offset is the scanner's position of the
# offending token.
#
# Text printed by to_string spells a shared subtree out at each use, so the
# same parenthesised group recurs many times across the coefficients of one
# document.  parse_expr keeps each group it closes, '(...)' or 'f(...)', in a
# dict from its text to its node, and where a kept text recurs at an operand
# it pushes the kept node and scans on past the group; the caller may share
# the dict across the texts of one document.  One pass over the text's
# parentheses first finds where each '(' closes, so the group that starts at
# an operand is one slice and one lookup away.  A group's node depends on its
# text and n alone (its first '(' closes at its last ')' wherever the text
# stands), so the dict is keyed on n first, and only groups that parsed are
# kept, so a hit never hides an error.  Only groups of at most _GROUP_LIMIT
# characters are sliced, looked up or kept: each '(' costs at most two
# slices of that length, so parsing stays linear in the text however deep
# it nests.

_TOKEN = re.compile(
    r"(\s*)((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[^\W\d_][^\W_]*|\^\s*-?\d*|\Z|.)", re.DOTALL
)
_PAREN = re.compile(r"[()]")
_GROUP_LIMIT = 1024
_BINARY = {"+": (1, add), "-": (1, sub), "*": (2, mul), "/": (2, div)}


def _fold(at, build, *args):
    """Apply a smart constructor; a constant it cannot represent (a
    non-finite literal, or overflow while folding) is a parse error at
    offset ``at``."""
    try:
        return build(*args)
    except ExprError as exc:
        raise ParseError(str(exc), at) from None


def _closers(text):
    """The offset past the ')' that closes each '(' of text, by the '('s
    offset."""
    close, opens = {}, []
    for m in _PAREN.finditer(text):
        if m[0] == "(":
            opens.append(m.start())
        elif opens:
            close[opens.pop()] = m.end()
    return close


def parse_expr(text, n, *, groups=None):
    """Parse ``text`` into an Expr over an n-dimensional chart.

    Coordinate references outside 1..n and syntax errors raise ParseError
    with the offset of the offending token.  n must be an integer >= 1.
    Each distinct parenthesised group is parsed once; ``groups``, a dict
    the caller shares across the texts of one document, keeps the groups
    parsed so far for the next text.  The result is the same node with or
    without it.
    """
    try:
        dim = operator.index(n)
    except TypeError:
        dim = 0
    if dim < 1:
        raise ParseError(f"chart dimension must be >= 1, got {n!r}", 0)
    memo = ({} if groups is None else groups).setdefault(dim, {})
    close = _closers(text)
    # values: operands; ops: (precedence, constructor, offset of its token),
    # where a group has precedence 0 and a function's name or None in place
    # of the constructor.  operand: an operand comes next; powered: the last
    # factor has taken its exponent
    values, ops = [], []
    pos, operand, powered = 0, True, False
    while True:
        m = _TOKEN.match(text, pos)
        tok, pos = m[2], m.end()
        if operand:
            if tok == "-":  # prefix minus as 0 - x, which sub builds as neg(x)
                values.append(ZERO)
                ops.append((3, sub, m.start(2)))
            elif tok == "(" or tok in FUNCS:
                start = m.start(2)
                if tok != "(":
                    m = _TOKEN.match(text, pos)
                    if m[2] != "(":
                        raise ParseError("expected '('", m.start(2))
                    pos = m.end()
                end = close.get(m.start(2), start)  # no ')' closes it: no group
                node = memo.get(text[start:end]) if end - start <= _GROUP_LIMIT else None
                if node is not None:
                    values.append(node)
                    pos = end
                    operand = powered = False
                else:
                    ops.append((0, None if tok == "(" else tok, start))
            elif tok[:1].isdecimal() or tok[:1] == ".":
                if tok == ".":
                    raise ParseError("malformed number", m.start(2))
                values.append(_fold(m.start(2), const, float(tok)))
                operand = powered = False
            elif tok[:1].isalpha():
                if tok[0] != "y" or not tok[1:].isdecimal():
                    raise ParseError(f"unknown identifier {tok!r}", m.start(2))
                try:
                    idx = int(tok[1:])
                except ValueError:  # beyond Python's limit on int() digits
                    raise ParseError("coordinate index has too many digits", m.start(2)) from None
                if not 1 <= idx <= dim:
                    raise ParseError(
                        f"coordinate y{idx} out of range for dimension {dim}", m.start(2)
                    )
                values.append(coord(idx))
                operand = powered = False
            else:
                message = f"unexpected character {tok[0]!r}" if tok else "unexpected end of input"
                raise ParseError(message, m.start(2))
        elif tok[:1] == "^" and (not powered or ops and ops[-1][0] == 3):
            if powered:  # '-' factor is an atom, so -y1^2^3 is (-(y1^2))^3
                ops.pop()
                values[-2:] = [neg(values[-1])]
            body = tok[1:].lstrip()
            try:
                exponent = int(body)
            except ValueError:  # no digits, or beyond Python's limit on int() digits
                digits = body[-1:].isdecimal()
                message = "exponent has too many digits" if digits else "expected integer exponent"
                raise ParseError(message, pos - len(body)) from None
            values[-1] = _fold(m.start(2), powi, values[-1], exponent)
            powered = True
        else:
            prec, build = _BINARY.get(tok, (1, None))
            while ops and ops[-1][0] >= prec:
                _, op, at = ops.pop()
                b = values.pop()
                values[-1] = _fold(at, op, values[-1], b)
            if build:
                ops.append((prec, build, m.start(2)))
                operand = True
            elif tok == ")" and ops:
                _, name, at = ops.pop()
                if name:
                    values[-1] = _fold(at, func, name, values[-1])
                if pos - at <= _GROUP_LIMIT:
                    memo[text[at:pos]] = values[-1]
                powered = False
            elif tok or ops:
                message = "expected ')'" if ops else "unexpected trailing input"
                raise ParseError(message, m.start(2))
            else:
                return values[0]
