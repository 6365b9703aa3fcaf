"""An exact oracle for the pointwise symmetry bounds, over the rationals.

Every float is a rational number, so a system whose coefficients are
rational functions of y (no exp, ln, sqrt, sin or cos) has exact Taylor
coefficients at a float point.  ``exact_bounds`` walks the coefficient
trees of A and Gamma once in exact arithmetic, carrying each node's Taylor
polynomial in (y - p0), truncated (``Poly``), forms the
curvature, Ric and nabla Ric from those polynomials by the formulas of
``geometry`` (numpy's ufuncs call Poly's operators on object arrays), and
ranks the linearized Lie derivatives' rows by Gaussian elimination over
``fractions.Fraction``.  Nothing is rounded, so the rank is the rank of
the represented system, and the float bound must equal it wherever its
rank decision is right.

The truncation keeps what the bound needs: Gamma to degree 3 gives R and
Ric to degree 2 and nabla Ric to degree 1.
"""

import operator
from fractions import Fraction

import numpy as np

from affsym import expr
from affsym.geometry import _curvature_comps, _nabla_terms, _ricci_contractions
from affsym.liefn import lie_terms

class NotRational(ValueError):
    """The coefficient trees hold a function with no rational value."""


class Poly:
    """A polynomial in (y - p0) truncated at total degree ``order``: a dict
    from exponent tuples to nonzero Fractions.  A sum or product is
    truncated at the lower order of its operands."""

    __slots__ = ("terms", "order")

    def __init__(self, terms, order):
        self.terms, self.order = terms, order

    @staticmethod
    def constant(c, n, order):
        return Poly({(0,) * n: Fraction(c)} if c else {}, order)

    def truncate(self, order):
        return Poly({m: c for m, c in self.terms.items() if sum(m) <= order}, order)

    def __add__(self, other):
        order = min(self.order, other.order)
        out = {}
        for m, c in (*self.terms.items(), *other.terms.items()):
            if sum(m) <= order:
                out[m] = out.get(m, 0) + c
        return Poly({m: c for m, c in out.items() if c}, order)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        order = min(self.order, other.order)
        out = {}
        for a, ca in self.terms.items():
            da = sum(a)
            for b, cb in other.terms.items():
                if da + sum(b) <= order:
                    m = tuple(map(operator.add, a, b))
                    out[m] = out.get(m, 0) + ca * cb
        return Poly({m: c for m, c in out.items() if c}, order)

    def __pow__(self, k):
        """self^k for an int k >= 1, by repeated squaring."""
        base, out = self, None
        while k:
            if k & 1:
                out = base if out is None else out * base
            base, k = base * base, k >> 1
        return out

    def inverse(self, n):
        """1/self: with self = c (1 + h), h of degree >= 1, the sum of
        (-h)^j / c for j = 0..order."""
        c = self.terms.get((0,) * n, 0)
        if not c:
            raise ZeroDivisionError("division by a polynomial that vanishes at the point")
        h = Poly({m: v / c for m, v in self.terms.items() if any(m)}, self.order)
        out = term = Poly.constant(1 / c, n, self.order)
        for _ in range(self.order):
            term = term * -h
            out = out + term
        return out

    def value(self, n):
        return self.terms.get((0,) * n, Fraction(0))

    def diff(self, i):
        """d/dy^(i+1), of one order less."""
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                out[m[:i] + (m[i] - 1,) + m[i + 1 :]] = m[i] * c
        return Poly(out, self.order - 1)


def taylor(exprs, point, order):
    """The Poly of each Expr in exprs at point to the given order, from one
    walk of their shared DAG in exact arithmetic."""
    n, exprs = len(point), list(exprs)
    polys = {}
    for node in expr._postorder(exprs)[0]:
        op, args = node.op, [polys[a] for a in node.args]
        if op == "const":
            p = Poly.constant(Fraction(node.value), n, order)
        elif op == "coord":
            i = node.index - 1
            unit = tuple(int(j == i) for j in range(n))
            p = Poly.constant(Fraction(float(point[i])), n, order) + Poly({unit: Fraction(1)}, order)
        elif op in ("add", "sub", "mul"):
            p = getattr(operator, op)(args[0], args[1])
        elif op == "neg":
            p = -args[0]
        elif op == "div":
            p = args[0] * args[1].inverse(n)
        elif op == "pow" and Fraction(node.value).denominator == 1:
            k = int(node.value)
            if k == 0:
                p = Poly.constant(1, n, order)
            else:
                p = (args[0] if k > 0 else args[0].inverse(n)) ** abs(k)
        else:
            raise NotRational(f"{op} has no exact rational value")
        polys[node] = p
    return [polys[e] for e in exprs]


def _jet(polys, n):
    """The value and first derivatives of an object array of Poly, as
    Fraction object arrays w[1, slots] and dw[1, slots, k]."""
    w = np.frompyfunc(lambda p: p.value(n), 1, 1)(polys)
    dw = np.stack([np.frompyfunc(lambda p, i=i: p.diff(i).value(n), 1, 1)(polys) for i in range(n)], -1)
    return w[None], dw[None]


def _rows(w, dw, r, n):
    """The linearized Lie derivative's rows over (eta(p0), F(p0)), exact."""
    basis = np.array([[Fraction(int(i == j)) for j in range(n + n * n)] for i in range(n + n * n)], dtype=object)
    lie = lie_terms(w, dw, basis[:, :n], basis[:, n:].reshape(-1, n, n), r)
    return lie.reshape(n + n * n, -1).T


def rank(rows):
    """The rank of a list of Fraction rows, by Gaussian elimination."""
    rows = [list(r) for r in {tuple(r) for r in rows} if any(r)]
    done = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(done, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[done], rows[pivot] = rows[pivot], rows[done]
        top = rows[done]
        for i in range(done + 1, len(rows)):
            if rows[i][col]:
                f = rows[i][col] / top[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], top)]
        done += 1
    return done


def _array(polys, shape):
    return np.array(polys, dtype=object).reshape(shape)


def _grad(polys, n):
    """d/dy^1..n of an object array of Poly, on a new trailing axis."""
    return np.stack([np.frompyfunc(lambda p, i=i: p.diff(i), 1, 1)(polys) for i in range(n)], -1)


def exact_bounds(sysd, p0, depth=2):
    """n^2 + n minus the exact rank of the bound's rows at depths 0..depth:
    the rows of A, then of R, then of nabla Ric, as
    ``symmetry.pointwise_symmetry_bounds`` stacks them.  Gamma is walked to
    order depth + 1, and each product is truncated where the next step
    needs no more: R to order depth, nabla Ric to order 1.  Raises
    NotRational where a coefficient the depth needs is not a rational
    function."""
    n = sysd.n
    a = _array(taylor(sysd.A.comps.flat, p0, 1), sysd.A.comps.shape)
    blocks = [_rows(*_jet(a, n), 1, n)]
    if depth >= 1:
        g = _array(taylor(sysd.conn.gamma.flat, p0, depth + 1), sysd.conn.gamma.shape)
        low = np.frompyfunc(lambda p: p.truncate(depth), 1, 1)(g)
        ops = np.add, np.subtract, np.multiply
        curv = _curvature_comps(low[None], _grad(g, n)[None], *ops, sysd.conn.plan)
        blocks.append(_rows(*_jet(curv[0], n), 1, n))
    if depth >= 2:
        ric = _ricci_contractions(curv, np.add)[0]
        one = np.frompyfunc(lambda p: p.truncate(1), 1, 1)
        nabla = _nabla_terms(one(g)[None], one(ric), _grad(ric, n), 0, np.add, np.subtract, np.multiply)
        blocks.append(_rows(*_jet(nabla[0], n), 0, n))
    rows, out = [], []
    for block in blocks:
        rows += block.tolist()
        out.append(n * n + n - rank(rows))
    return out
