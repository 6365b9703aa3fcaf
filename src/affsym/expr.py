"""Scalar expression trees over chart coordinates y1..yn.

Expressions are immutable ASTs supporting exact symbolic partial
differentiation (closed under d/dy^i to any order) and one evaluator,
``eval_many_shared``: one walk of the roots' shared DAG at an array of
points.  Unchecked, it returns IEEE 754's inf or nan outside the real
domain; with ``checked=True`` numpy's IEEE exception flags (IEEE 754-2019,
section 7) are raised as errors, and the first node to leave the finite
reals raises DomainError naming it.  ``eval_expr`` is that checked walk at
one point.  With ``jets=True`` the same walk also carries each node's first
derivatives in forward mode and returns each root's gradient, bitwise what
walking the roots' diff_expr trees returns, without building those trees;
a derivative that leaves the finite reals raises DomainError ("non-finite
derivative") naming its node, and a caller that must report the trees'
own error walks the trees after that.  No walk recurses: all run over the
iterative ``_postorder`` or, for derivatives, an explicit stack, so depth is
limited by memory alone.

Nodes are interned (hash-consed, after Filliatre and Conchon, "Type-Safe
Modular Hash-Consing", 2006): every node is built by ``_intern``, the one
builder of the interning table's keys, which returns the live node equal to
the one asked for when there is one.  The smart constructors call it
directly, and ``Expr(...)`` (unpickling) goes through it.  Structurally
equal trees are therefore the same object, and ``Expr`` keeps ``object``'s
identity hash and equality, so a node is its own dictionary key: the
postorder walk's use counts, the evaluator's values, the compiler's tables
and the memos are all dicts keyed by node, and share every equal subtree.
The smart constructors test for the identity operands (ZERO, ONE, -1)
before they fold two constants, so 0*c, 0+c, c-0 and the like return an
existing node, the one the fold would build, without calling ``const``.

A root set evaluated many times (a Pfaff right-hand side at every solver
step, the simulator's right-hand side at every Runge-Kutta stage) is compiled
once by ``compile_exprs`` into a ``Program``: straight-line Python with one
statement per node, run on Python floats for one point and on numpy columns
for many.  ``eval_many_shared(program, points)`` runs it and returns bitwise
what the interpreted walk returns.  Roots evaluated once stay interpreted,
since generating the code costs a few interpreted calls.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Sequence
from fractions import Fraction

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
    """Syntax or bounds error while parsing; carries the byte offset."""

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
    exponent), or a function name from FUNCS.  Use the module-level smart
    constructors rather than instantiating directly; they apply light
    simplification (constant folding, x*0, x*1, x+0) so derivative trees
    stay small.  The identity operands ZERO, ONE and -1 are tested before
    two constants are folded: the node returned is the one the fold would
    build (``const`` maps -0.0 to 0.0 and constants are interned), and no
    constant is built for it.

    Nodes are hash-consed: constructing a node equal to a live one, by op,
    value, index and (already interned) children, returns that node.  So
    structurally equal trees are the same object, ``==`` and ``hash`` are
    object identity's, and everything keyed on the node (the derivative
    memo, the evaluators' sharing, compiled programs) shares every equal
    subtree.
    """

    __slots__ = ("op", "args", "value", "index", "_dmemo", "__weakref__")

    def __new__(cls, op, args=(), value=None, index=None):
        return _intern(op, tuple(args), value, index)

    def __setattr__(self, name, val):  # pragma: no cover - guard
        raise AttributeError("Expr is immutable")

    def __reduce__(self):
        # One flat table of (op, value, index, child positions) in postorder,
        # so pickling does not recurse once per level; rebuilding through
        # Expr returns the interned nodes.
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

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def diff(self, i):
        return diff_expr(self, i)

    def __call__(self, point):
        return eval_expr(self, point)

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
    index, created if there is none.  The one builder of table keys.

    Children are interned, so their identities stand for their structure.
    Keying on ids rather than the children themselves keeps the table from
    holding nodes alive: a node whose derivative memo refers back to it (exp,
    sqrt) would otherwise never be freed.  The key is spelled out for the
    arities that occur, and a new node's slots are set through their
    descriptors, since this runs once per node the smart constructors build.
    """
    n = len(args)
    if n == 2:
        key = (op, value, index, id(args[0]), id(args[1]))
    elif n == 1:
        key = (op, value, index, id(args[0]))
    elif n == 0:
        key = (op, value, index)
    else:
        key = (op, value, index, *map(id, args))
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
        nodes.append(Expr(op, [nodes[i] for i in args], value, index))
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
    if not isinstance(i, int) or i < 1:
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
    """a ** k with a constant integer (or Fraction) exponent."""
    if isinstance(k, float) and k.is_integer():
        k = int(k)
    if not isinstance(k, (int, Fraction)):
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
    if not isinstance(i, int) or i < 1:
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
    if op == "coord":
        return ONE if e.index == i else ZERO
    raise ExprError(f"cannot differentiate node {op!r}")


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
    in order, and a node's first argument before its second."""
    order, uses, seen = [], {}, set()
    for root in roots:
        uses[root] = uses.get(root, 0) + 1
    stack = list(roots)
    stack.reverse()
    pop, push, emit = stack.pop, stack.append, order.append
    while stack:
        node = pop()
        if node is None:  # the marker above a node whose arguments are done
            emit(pop())
        elif node not in seen:
            seen.add(node)
            args = node.args
            if not args:
                emit(node)
                continue
            push(node)
            push(None)
            # a child already seen is finished: a node seen but unfinished is
            # an ancestor of this one, and a DAG has no path back to it
            for a in reversed(args):
                uses[a] = uses.get(a, 0) + 1
                if a not in seen:
                    push(a)
    return order, uses


def eval_many(e, points):
    """Vectorized evaluation of one expression; see eval_many_shared."""
    return eval_many_shared([e], points)[0]


def eval_many_shared(exprs, points, *, checked=False, jets=False):
    """Evaluate a flat sequence of expressions at points of shape (P, n) (or
    one point of shape (n,)); returns a list of (P,) arrays in input order.
    With ``jets=True`` it returns the pair (values, gradients): the same list
    and, per root, its first derivatives d/dy^1..d/dy^n as a (P, n) array,
    carried through the one walk in forward mode (see _jet).

    Each distinct node, within one root or across roots, is evaluated once
    (nodes are interned, so identity is structural equality), and its array
    is dropped as soon as its last parent has used it.  Unchecked,
    out-of-domain inputs yield inf/nan per IEEE semantics (callers probing
    residuals assert finiteness instead).  Checked, the walk raises
    DomainError on the first node, in left-to-right postorder, whose value is
    not finite at some point (see _walk); with jets, on the first node whose
    value or whose derivatives are not (the latter as "non-finite
    derivative").
    A compiled ``Program`` (see compile_exprs) is accepted in place of the
    sequence and runs its generated code, unchecked; it returns one (R, P)
    array (see Program.run).
    """
    if isinstance(exprs, Program) and not checked and not jets:
        return exprs.run(points)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    return _walk(exprs, pts, checked, jets)


def _walk(exprs, pts, checked, jets=False):
    """The interpreted walk behind eval_many_shared, over points (P, n).

    Checked, it runs with numpy's floating-point flags raised as errors
    (underflow excepted): on finite arguments a node's value is inf or nan
    exactly when its operation raises a flag, so the node being computed
    when FloatingPointError arrives is the first out of the domain.
    Coordinates are checked to be finite, and constants are finite already.
    With jets, each node's derivatives follow its value (see _jet) and are
    dropped with it.
    """
    order, uses = _postorder(exprs)
    vals = {}
    grads = {}
    dim = pts.shape[1]
    npts = pts.shape[0]
    try:
        with np.errstate(all="raise", under="ignore") if checked else np.errstate(all="ignore"):
            for node in order:
                op = node.op
                args = node.args
                if not args:
                    if op == "const":
                        vals[node] = np.full(npts, node.value)
                        if jets:
                            grads[node] = (ZERO,) * dim
                        continue
                    if node.index > dim:
                        raise ExprError(
                            f"coordinate y{node.index} out of range for a point of dimension {dim}"
                        )
                    x = vals[node] = pts[:, node.index - 1]
                    if checked and not np.isfinite(x).all():
                        raise DomainError("non-finite value", node)
                    if jets:
                        grads[node] = tuple(ONE if k == node.index else ZERO for k in range(1, dim + 1))
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
                    k = node.value
                    out = x ** (float(k) if isinstance(k, Fraction) else k)
                else:
                    out = _VEC_FUNCS[op](x)
                vals[node] = out
                if jets:
                    try:
                        grads[node] = _jet(node, vals, grads, npts)
                    except FloatingPointError:
                        raise DomainError("non-finite derivative", node) from None
                for a in args:
                    left = uses[a] - 1
                    if left:
                        uses[a] = left
                    else:
                        del vals[a]
                        if jets:
                            del grads[a]
    except FloatingPointError:
        raise DomainError(_fault(node, [vals[a] for a in node.args]), node) from None
    values = [vals[e] for e in exprs]
    if not jets:
        return values
    return values, [_gradient(grads[e], npts) for e in exprs]


# Forward mode: each node's derivatives d/dy^1..d/dy^n ride along with its
# value (Griewank and Walther, "Evaluating Derivatives", 2nd ed., 2008, ch. 3).
# Each derivative is an entry that stands for the tree diff_expr would build:
# the constant node where that tree is one (ZERO, ONE, a folded constant), an
# array of its values otherwise.  The _j* helpers are the smart constructors
# on entries: they fold and simplify exactly where add, sub, mul, div, neg
# and powi do (a constant denominator is squared by powi), and otherwise
# apply the node's operation to arrays, as the walk of the tree does.  A
# constant argument's derivatives are all ZERO, so the rules of the unary
# nodes see only arrays.  So _jet repeats _diff_node term for term, and each
# derivative is bitwise the walk of its tree, signed zeros included.  A node
# whose n entries are all arrays keeps them as one (n, P) block, and each
# rule runs once on the block: elementwise, that is the same operations.
# A flag comes from a node the trees have or, rarely, from a term they fold
# away; callers that need the trees' exact error then walk the trees.


def _entry(node, vals):
    """A node as a derivative entry: itself if constant, else its values."""
    return node if node.op == "const" else vals[node]


def _gradient(d, npts):
    """A root's derivatives as a (P, n) array: the transpose of its (n, P)
    block, or its entries written column by column into one C-ordered array,
    a constant node's value filling its column."""
    if type(d) is np.ndarray:
        return d.T
    out = np.empty((npts, len(d)))
    for i, u in enumerate(d):
        out[:, i] = u.value if isinstance(u, Expr) else u
    return out


def _jadd(x, y):
    if isinstance(x, Expr):
        if isinstance(y, Expr):
            return add(x, y)
        return y if x is ZERO else x.value + y
    if isinstance(y, Expr):
        return x if y is ZERO else x + y.value
    return x + y


def _jsub(x, y):
    if isinstance(y, Expr):
        if isinstance(x, Expr):
            return sub(x, y)
        return x if y is ZERO else x - y.value
    if isinstance(x, Expr):
        return -y if x is ZERO else x.value - y
    return x - y


def _jmul(x, y):
    if isinstance(x, Expr):
        if isinstance(y, Expr):
            return mul(x, y)
        if x is ZERO:
            return ZERO
        if x is ONE:
            return y
        return -y if x is _MINUS_ONE else x.value * y
    if isinstance(y, Expr):
        if y is ZERO:
            return ZERO
        if y is ONE:
            return x
        return -x if y is _MINUS_ONE else x * y.value
    return x * y


def _jneg(x):
    return neg(x) if isinstance(x, Expr) else -x


def _jdiv(x, y, npts):
    if isinstance(y, Expr):
        if isinstance(x, Expr):
            out = div(x, y)
            return out if out.op == "const" else np.full(npts, x.value) / y.value
        return x if y is ONE else x / y.value
    if isinstance(x, Expr):
        return ZERO if x is ZERO else x.value / y
    return x / y


def _jpowi(x, k):
    """powi on an entry.  The only constant entry it gets is a division's
    denominator, squared, which powi always folds (or rejects with its
    ExprError); an array is raised to k as the walk raises it."""
    if isinstance(x, Expr):
        return powi(x, k)
    if k == 1:
        return x
    return x ** (float(k) if isinstance(k, Fraction) else k)


def _each(rule, d, e=None):
    """``rule`` over a node's derivatives ``d`` (and ``e``, its second
    argument's): once on the (n, P) blocks when both are blocks, the rule
    then being elementwise numpy operations, else entry by entry, the
    result packed into a block when no entry is a constant node."""
    if e is None:
        if type(d) is np.ndarray:
            return rule(d)
        out = [rule(u) for u in d]
    elif type(d) is np.ndarray and type(e) is np.ndarray:
        return rule(d, e)
    else:
        out = [rule(u, v) for u, v in zip(d, e)]
    for u in out:
        if isinstance(u, Expr):
            return out
    return np.array(out)


def _jet(node, vals, grads, npts):
    """The derivatives of a node with arguments, from its value, its
    arguments' values and their derivatives: _diff_node's rule for each
    y^i, on the entries of _jadd and the others above."""
    op = node.op
    args = node.args
    d = grads[args[0]]
    if op == "add":
        return _each(_jadd, d, grads[args[1]])
    if op == "sub":
        return _each(_jsub, d, grads[args[1]])
    if op == "neg":
        return _each(_jneg, d)
    a = _entry(args[0], vals)
    if op == "mul":
        b = _entry(args[1], vals)
        return _each(lambda u, v: _jadd(_jmul(u, b), _jmul(a, v)), d, grads[args[1]])
    if op == "div":
        b = _entry(args[1], vals)
        den = _jpowi(b, 2)
        rule = lambda u, v: _jdiv(_jsub(_jmul(u, b), _jmul(a, v)), den, npts)
        return _each(rule, d, grads[args[1]])
    if op == "ln":
        return _each(lambda u: _jdiv(u, a, npts), d)
    if op == "exp":
        e = vals[node]
        return _each(lambda u: _jmul(e, u), d)
    kc = const(float(node.value)) if op == "pow" else None  # built, and checked, in every tree
    if type(d) is not np.ndarray and all(u is ZERO for u in d):
        return d  # each rule below is a product with d/dy^i, which folds to ZERO
    if op == "pow":
        factor = _jmul(kc, _jpowi(a, node.value - 1))
        return _each(lambda u: _jmul(factor, u), d)
    if op == "sqrt":
        den = _jmul(_TWO, vals[node])
        return _each(lambda u: _jdiv(u, den, npts), d)
    if op == "sin":
        c = np.cos(a)
        return _each(lambda u: _jmul(c, u), d)
    if op == "cos":
        s = np.sin(a)
        return _each(lambda u: _jneg(_jmul(s, u)), d)
    raise ExprError(f"cannot differentiate node {op!r}")


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


# A program's code is bound twice: to Python floats for one point and to
# numpy columns for an array of points.  The helpers apply numpy's own
# operation in both, so a float result equals its entry in a (1,) array.
# Powers go through an array because ``array ** k`` takes fast paths
# (x**0.5 is sqrt, keeping -0.0) that np.power on a float does not, and
# numpy's pow differs from Python's in the last bit.
_SCALAR_NS = {f"_{name}": _on_float(f) for name, f in _VEC_FUNCS.items()}
_SCALAR_NS["_pw"] = lambda x, k: float((np.full(1, x) ** k)[0])
_ARRAY_NS = {f"_{name}": f for name, f in _VEC_FUNCS.items()}
_ARRAY_NS["_pw"] = lambda x, k: x**k


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


class Program(Sequence):
    """Straight-line code for a fixed sequence of roots, from compile_exprs.

    It is a sequence of its roots, and ``eval_many_shared(program, points)``
    returns bitwise what evaluating those roots returns, inf and nan
    included, as one (R, P) array, from numpy columns (``run``).  ``at``
    runs one point on Python floats; a call that raises there (division by
    zero) is redone on arrays.
    """

    def __init__(self, roots, source, constants, numpy_calls):
        self.roots = tuple(roots)
        self.source = source
        code = compile(source, "<affsym program>", "exec")
        self._scalar = self._bind(code, _SCALAR_NS, constants)
        self._array = self._bind(code, _ARRAY_NS, constants)
        self._numpy_calls = numpy_calls

    @staticmethod
    def _bind(code, helpers, constants):
        namespace = dict(helpers, **constants)
        exec(code, namespace)
        return namespace["program"]

    def __len__(self):
        return len(self.roots)

    def __getitem__(self, i):
        return self.roots[i]

    def run(self, points):
        """The roots' values as an (R, P) array at points of shape (P, n), or
        at one point of shape (n,) (P = 1), computed on numpy columns."""
        columns = np.atleast_2d(np.asarray(points, dtype=float)).T
        out = np.empty((len(self.roots), columns.shape[1]))
        with np.errstate(all="ignore"):
            self._array(columns, out)
        return out

    def at(self, x):
        """The roots' values at one point as an (R,) array.  ``x`` is the
        point as a list of Python floats, which the generated code runs on
        as it is; where the floats raise (division by zero), the point is
        redone on arrays, which give inf or nan."""
        out = [0.0] * len(self.roots)
        try:
            if self._numpy_calls:
                with np.errstate(all="ignore"):
                    self._scalar(x, out)
            else:
                self._scalar(x, out)
        except (ZeroDivisionError, OverflowError, ValueError):
            return self.run(x).reshape(-1)
        return np.array(out)


def compile_exprs(roots):
    """Compile a sequence of roots into a Program: one generated function
    with one statement per distinct node, as eval_many_shared walks them
    (nodes are interned, so identity is structural equality and every equal
    subtree is computed once).

    A name is reused once its value has had its last use, so no more arrays
    are live than in the interpreted walk, and each root is stored as soon
    as it is computed.  Subtrees without coordinates (constants the smart
    constructors left unfolded, such as 1/0) are evaluated here, once.
    Generating the code costs a few interpreted calls, so compile only roots
    that are evaluated many times.
    """
    roots = list(roots)
    order, uses = _postorder(roots)
    slots = {}
    for r, root in enumerate(roots):
        slots.setdefault(root, []).append(r)
    ref = {}  # node -> source text of its value
    temps = set()  # nodes held in a reusable name
    constant = set()
    folded = []  # coordinate-free subtrees, bound as _k0, _k1, ...
    coords = set()
    body = []
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
            coords.add(node.index)
            text = f"y{node.index}"
        elif op == "const":
            constant.add(node)
            text = repr(node.value) if node.value >= 0.0 else f"({node.value!r})"
        elif all(a in constant for a in node.args):
            constant.add(node)
            text = f"_k{len(folded)}"
            folded.append(node)
        else:
            args = [ref[a] for a in node.args]
            for a in node.args:
                release(a)
            if free:
                text = free.pop()
            else:
                text, nvars = f"v{nvars}", nvars + 1
            body.append(f"{text} = {_statement(node, args)}")
            temps.add(node)
            numpy_calls = numpy_calls or op in _VEC_FUNCS or (
                op == "pow" and node.value not in (2, -1)
            )
        ref[node] = text
        for r in slots.get(node, ()):
            body.append(f"out[{r}] = {text}")
            release(node)

    head = [f"y{i} = x[{i - 1}]" for i in sorted(coords)]
    source = "def program(x, out):\n" + "".join(
        f"    {line}\n" for line in head + body or ["pass"]
    )
    constants = {}
    if folded:
        values = eval_many_shared(folded, np.zeros((1, 0)))
        constants = {f"_k{j}": float(v[0]) for j, v in enumerate(values)}
    return Program(roots, source, constants, numpy_calls)


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
        op = node.op
        args = node.args
        if not args:
            out = mapping.get(node.index, node) if op == "coord" else node
        elif op == "add":
            out = add(new[args[0]], new[args[1]])
        elif op == "mul":
            out = mul(new[args[0]], new[args[1]])
        elif op == "sub":
            out = sub(new[args[0]], new[args[1]])
        elif op == "div":
            out = div(new[args[0]], new[args[1]])
        elif op == "neg":
            out = neg(new[args[0]])
        elif op == "pow":
            out = powi(new[args[0]], node.value)
        else:
            out = func(op, new[args[0]])
        new[node] = out
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
# unary minus (-y1^2 parses as -(y1^2)).  Whitespace is insignificant.


class _Parser:
    def __init__(self, text, n):
        self.text = text
        self.n = n
        self.pos = 0

    def error(self, message, offset=None):
        raise ParseError(message, self.pos if offset is None else offset)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def fold(self, offset, build, *args):
        """Apply a smart constructor; a constant it cannot represent (a
        non-finite literal, or overflow while folding) is a parse error."""
        try:
            return build(*args)
        except ExprError as exc:
            self.error(str(exc), offset)

    def expect(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self):
        e = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return e

    def expr(self):
        e = self.term()
        while True:
            c, at = self.peek(), self.pos
            if c == "+":
                self.pos += 1
                e = self.fold(at, add, e, self.term())
            elif c == "-":
                self.pos += 1
                e = self.fold(at, sub, e, self.term())
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            c, at = self.peek(), self.pos
            if c == "*":
                self.pos += 1
                e = self.fold(at, mul, e, self.factor())
            elif c == "/":
                self.pos += 1
                e = self.fold(at, div, e, self.factor())
            else:
                return e

    def factor(self):
        e = self.atom()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            e = self.fold(at, powi, e, self.integer())
        return e

    def atom(self):
        c = self.peek()
        if c == "":
            self.error("unexpected end of input")
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c == "-":
            self.pos += 1
            return neg(self.factor())
        if c.isdigit() or c == ".":
            return self.number()
        if c.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalnum():
                self.pos += 1
            name = self.text[start : self.pos]
            if name[0] == "y" and name[1:].isdigit():
                idx = int(name[1:])
                if idx < 1 or idx > self.n:
                    self.error(
                        f"coordinate y{idx} out of range for dimension {self.n}", start
                    )
                return coord(idx)
            if name in FUNCS:
                self.expect("(")
                e = self.expr()
                self.expect(")")
                return self.fold(start, func, name, e)
            self.error(f"unknown identifier {name!r}", start)
        self.error(f"unexpected character {c!r}")

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            self.error("expected integer exponent", start)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # beyond Python's limit on int() digits
            self.error("exponent has too many digits", start)

    def number(self):
        start = self.pos
        t = self.text
        while self.pos < len(t) and t[self.pos].isdigit():
            self.pos += 1
        if self.pos < len(t) and t[self.pos] == ".":
            self.pos += 1
            while self.pos < len(t) and t[self.pos].isdigit():
                self.pos += 1
        if self.pos == start or t[start : self.pos] == ".":
            self.error("malformed number", start)
        if self.pos < len(t) and t[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < len(t) and t[self.pos] in "+-":
                self.pos += 1
            if self.pos < len(t) and t[self.pos].isdigit():
                while self.pos < len(t) and t[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # 'e' belonged to something else; reject later
        return self.fold(start, const, float(t[start : self.pos]))


def parse_expr(text, n):
    """Parse ``text`` into an Expr over an n-dimensional chart.

    Coordinate references outside 1..n and syntax errors raise ParseError
    with the byte offset of the offending token.  n must be >= 1.
    """
    if not isinstance(n, int) or n < 1:
        raise ParseError(f"chart dimension must be >= 1, got {n!r}", 0)
    return _Parser(text, n).parse()
