"""Valence-(r,s) tensor fields with symbolic components.

Components are stored densely in numpy object arrays of Expr, upper indices
first.  Index operations are whole-array operations over the smart
constructors: ADD, SUB, MUL and DIFF apply add, sub, mul and diff_expr
elementwise to broadcast views (``bcast``), and a sum over an index folds
left to right along a trailing axis (``ADD.reduce``, or ``fold`` when the
summand has parts of either sign).  An assembled tree therefore keeps the
term order, operand order and subtractions of the formula it implements.
Numeric work hands the whole component array to :mod:`expr`'s one
interpreted walk in one call, at points of shape (P, n) or at one point of
shape (n,), checked against the field's n by ``util.as_points``:
``evaluate`` runs it checked (a value that is not finite raises
DomainError naming the node), ``evaluate_many`` unchecked (IEEE).  The
walk's rows, one per component, go back into tensors by ``split_rows``;
``eval_arrays`` evaluates several arrays in one walk and cuts it so, and
``eval_jets`` does the same with each array's first derivatives, and the
second derivatives of the arrays that ask for them, one tuple per array.

Differential forms are fully skew (0,r) fields.  The exterior derivative,
interior product and wedge carry explicit normalizations:

    (d w)(X_0..X_r)      has the 1/(r+1) prefactor,
    (i_c w)(X_1..X_{r-1}) = r * w(c, X_1, ...),
    (b ^ g)               = signed average of b (x) g over all permutations,

a convention under which the Cartan identity i_c d + d i_c = L_c holds
exactly and the vector-valued-form bracket in liefn closes.
"""

from __future__ import annotations

import itertools
import math
import string

import numpy as np

from .expr import (
    Expr,
    ZERO,
    ONE,
    add,
    const,
    coord,
    diff_expr,
    div,
    eval_many_shared,
    mul,
    parse_expr,
    sub,
    subst,
)
from .util import as_points, sample_points

__all__ = [
    "ADD",
    "SUB",
    "MUL",
    "DIFF",
    "bcast",
    "fold",
    "grad",
    "split_rows",
    "eval_arrays",
    "eval_jets",
    "TensorField",
    "PointMap",
    "tensor_product",
    "contract",
    "permute_indices",
    "symmetrize",
    "alternate",
    "wedge",
    "exterior_derivative",
    "interior_product",
    "partial_differential",
    "pushforward",
    "sym_matrix_inverse",
    "matrix_determinant",
]


def _as_expr(v):
    return v if isinstance(v, Expr) else const(v)


ADD = np.frompyfunc(add, 2, 1)
SUB = np.frompyfunc(sub, 2, 1)
MUL = np.frompyfunc(mul, 2, 1)
# looks diff_expr up when called, so a wrapper installed on this module's
# name (perfbench's tracer) sees every derivative taken through DIFF
DIFF = np.frompyfunc(lambda e, i: diff_expr(e, i), 2, 1)


def grad(comps, n):
    """Partial derivatives d comps / dy^k, k = 1..n, on a new trailing axis."""
    return DIFF(np.expand_dims(comps, -1), np.arange(1, n + 1).astype(object))


def bcast(arr, src, dst):
    """View of ``arr`` for an index formula over the letters of ``dst``.

    Axis j of ``arr`` carries the index letter src[j]; the view orders the
    axes as in ``dst`` and gives letters missing from ``src`` length 1, so
    ADD/SUB/MUL broadcast over them.  bcast(G, "qks", "isrkq") is G^q_ks
    spread over (i, s, r, k, q).
    """
    order = sorted(range(len(src)), key=lambda j: dst.index(src[j]))
    shape = [arr.shape[src.index(c)] if c in src else 1 for c in dst]
    return arr.transpose(order).reshape(shape)


def fold(total, *parts):
    """A sum over the trailing axis q written as a loop over q: for each q
    in turn, total = op(total, terms[..., q]) for every (op, terms) part, op
    being ADD or SUB.  Keeps the term order and the subtractions of a
    summand with several signed parts."""
    for q in range(parts[0][1].shape[-1]):
        for op, terms in parts:
            total = op(total, terms[..., q])
    return total


def split_rows(rows, arrays):
    """The (R, P) values or (R, P, n) gradients of one walk over the
    components of several Expr arrays, in order and each row-major, cut
    into one float array per Expr array a, of shape (P,) + a.shape (+ (n,))."""
    cuts = np.cumsum([a.size for a in arrays])[:-1]
    return [
        np.moveaxis(v, 0, 1).reshape((rows.shape[1],) + a.shape + rows.shape[2:])
        for a, v in zip(arrays, np.split(rows, cuts))
    ]


def eval_arrays(arrays, pts, *, checked):
    """Values of several Expr arrays at points (P, n), or one point (n,)
    (P = 1), from one walk over all their components in order
    (``eval_many_shared``, checked or not), cut by ``split_rows``: a node
    shared within or across the arrays is evaluated once.  Checked, the
    first node to fault is the one separate checked walks of the arrays, in
    the same order, would raise on, as the nodes an array shares with
    earlier ones have passed by then."""
    return split_rows(eval_many_shared([e for a in arrays for e in a.flat], pts, checked=checked), arrays)


def eval_jets(arrays, pts, second=0):
    """W and dW/dy^1..n of each Expr array W in ``arrays``, at points (P,
    n) or one point (n,) (P = 1), n being the points' last dimension, as
    one tuple (W, dW) per array, of shapes (P,) + W.shape and (P,) +
    W.shape + (n,): bitwise ``eval_arrays([W, grad(W, n)], pts,
    checked=True)``, from one checked forward-mode walk of all the arrays
    (``eval_many_shared(..., jets=True)``) that builds no derivative tree.
    The tuples of the first ``second`` arrays also carry the second
    derivatives, (W, dW, ddW) with ddW of shape (P,) + W.shape + (n, n):
    bitwise the derivatives of grad(W, n) in the same walk, ddW[..., k, l]
    being d(dW/dy^k)/dy^l.  Where that walk faults it raises its ExprError
    (a DomainError naming its node, "non-finite derivative: sqrt(y1)", or
    the error of a constant that does not fold), which may come from a
    term the trees fold away; no caller walks the trees after it."""
    flat = [e for a in arrays for e in a.flat]
    twice = sum(a.size for a in arrays[:second])
    vals, grads, *hess = eval_many_shared(flat, pts, checked=True, jets=True, second=twice)
    if second:  # the walk returns none where the first ``second`` arrays are empty
        rows = hess[0] if twice else np.empty((0,) + grads.shape[1:] + grads.shape[2:])
        hess = split_rows(rows, arrays[:second])
    pairs = zip(split_rows(vals, arrays), split_rows(grads, arrays))
    return [(v, g, hess[k]) if k < second else (v, g) for k, (v, g) in enumerate(pairs)]


class TensorField:
    """Dense valence-(r,s) tensor field on an n-dimensional chart.

    comps is an object ndarray of Expr with shape (n,)*(r+s); upper (contra-
    variant) axes come first.  Immutable by convention: operations return new
    fields.  Any other nested sequence or array of n**(r+s) Exprs and numbers
    is coerced into that form, reading its entries in row-major order.
    """

    def __init__(self, n, r, s, comps):
        self.n = int(n)
        self.r = int(r)
        self.s = int(s)
        shape = (self.n,) * (self.r + self.s)
        if isinstance(comps, np.ndarray) and comps.dtype == object and comps.shape == shape:
            self.comps = comps
            return
        flat = np.asarray(comps, dtype=object).reshape(-1)
        if len(flat) != self.n ** (self.r + self.s):
            raise ValueError(
                f"expected {self.n ** (self.r + self.s)} components for valence "
                f"({self.r},{self.s}), got {len(flat)}"
            )
        self.comps = np.empty(shape, dtype=object)
        self.comps.reshape(-1)[:] = [_as_expr(v) for v in flat]

    @property
    def valence(self):
        return (self.r, self.s)

    @classmethod
    def zeros(cls, n, r, s):
        return cls(n, r, s, np.full((n,) * (r + s), ZERO, dtype=object))

    @classmethod
    def identity(cls, n):
        """Kronecker delta as a (1,1) field."""
        arr = np.full((n, n), ZERO, dtype=object)
        np.fill_diagonal(arr, ONE)
        return cls(n, 1, 1, arr)

    @classmethod
    def scalar(cls, n, e):
        arr = np.empty((), dtype=object)
        arr[()] = _as_expr(e)
        return cls(n, 0, 0, arr)

    @classmethod
    def from_strings(cls, n, r, s, entries):
        """Field from nested expression strings (numbers and Exprs pass),
        each repeated parenthesised group parsed once."""
        flat = np.asarray(entries, dtype=object).reshape(-1)
        groups = {}
        return cls(n, r, s, [parse_expr(t, n, groups=groups) if isinstance(t, str) else t for t in flat])

    def map(self, f):
        return TensorField(self.n, self.r, self.s, np.frompyfunc(f, 1, 1)(self.comps))

    def __add__(self, other):
        self._check_like(other)
        return TensorField(self.n, self.r, self.s, ADD(self.comps, other.comps))

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        ce = _as_expr(c)
        return self.map(lambda e: mul(ce, e))

    def _check_like(self, other):
        if (self.n, self.r, self.s) != (other.n, other.r, other.s):
            raise ValueError(
                f"valence/dimension mismatch: ({self.r},{self.s}) on n={self.n} vs "
                f"({other.r},{other.s}) on n={other.n}"
            )

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, points):
        """Checked evaluation at points of shape (P, n) -> float ndarray of
        shape (P,) + (n,)*(r+s), or at one point of shape (n,) -> (n,)*(r+s):
        one checked walk over all components, taken in row-major order."""
        pts = as_points(points, self.n, one=None)
        out = eval_arrays([self.comps], pts, checked=True)[0]
        return out[0] if pts.ndim == 1 else out

    def evaluate_many(self, points):
        """Vectorized, unchecked evaluation at points of shape (P, n) (or one
        point of shape (n,)) -> float ndarray of shape (P,) + (n,)*(r+s).

        The whole component array goes to eval_many_shared in one call, so
        subtrees shared across components are evaluated once.
        """
        pts = as_points(points, self.n, one=None)
        return eval_arrays([self.comps], pts, checked=False)[0]

    # -- symmetry checks ----------------------------------------------------

    def is_skew(self):
        """Numeric check of full antisymmetry over the covariant axes at 8
        sample points, to 1e-10 of the largest |component| (at least 1)."""
        return self._permutation_invariant(signed=True)

    def is_symmetric(self):
        """Numeric check of full symmetry over the covariant axes, as is_skew."""
        return self._permutation_invariant(signed=False)

    def _permutation_invariant(self, signed):
        axes = tuple(range(self.r, self.r + self.s))
        if len(axes) < 2:
            return True
        vals = self.evaluate_many(sample_points(self.n, 8))
        scale = max(1.0, float(np.max(np.abs(vals))))
        for perm in itertools.permutations(range(len(axes))):
            sign = _perm_sign(perm) if signed else 1
            moved = _permute_axes_array(vals, axes, perm)
            if not np.allclose(vals, sign * moved, atol=1e-10 * scale, rtol=0.0):
                return False
        return True

    def __repr__(self):
        return f"TensorField(n={self.n}, valence=({self.r},{self.s}))"


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _permute_axes_array(vals, axes, perm):
    """Reorder the listed axes of ``vals`` by ``perm`` (leading axes offset by 1
    for the sample-point axis)."""
    order = list(range(vals.ndim))
    src = [a + 1 for a in axes]
    for k, p in enumerate(perm):
        order[src[k]] = src[p]
    return vals.transpose(order)


# ---------------------------------------------------------------------------
# Algebraic operations
# ---------------------------------------------------------------------------


def tensor_product(a, b):
    """Tensor product; upper axes of both factors precede all lower axes."""
    if a.n != b.n:
        raise ValueError("tensor product across different chart dimensions")
    ka = a.r + a.s
    # outer product axes: a's upper, a's lower, b's upper, b's lower
    order = [*range(a.r), *range(ka, ka + b.r), *range(a.r, ka), *range(ka + b.r, ka + b.r + b.s)]
    out = np.asarray(MUL.outer(a.comps, b.comps), dtype=object).transpose(order)
    return TensorField(a.n, a.r + b.r, a.s + b.s, out)


def contract(a, i_up, j_down):
    """Contract upper slot i_up (0-based in 0..r-1) with lower slot j_down."""
    if not (0 <= i_up < a.r and 0 <= j_down < a.s):
        raise ValueError(f"contraction slots ({i_up},{j_down}) out of range for valence {a.valence}")
    out = ADD.reduce(np.diagonal(a.comps, 0, i_up, a.r + j_down), axis=-1)
    return TensorField(a.n, a.r - 1, a.s - 1, out)


def permute_indices(a, upper_perm=None, lower_perm=None):
    """Reorder index slots; perms are given per block (upper, lower)."""
    up = list(upper_perm) if upper_perm is not None else list(range(a.r))
    lo = list(lower_perm) if lower_perm is not None else list(range(a.s))
    if sorted(up) != list(range(a.r)) or sorted(lo) != list(range(a.s)):
        raise ValueError("invalid permutation")
    # new slot k carries the old slot up[k] / lo[k]
    order = list(up) + [a.r + j for j in lo]
    return TensorField(a.n, a.r, a.s, a.comps.transpose(order))


def _sym_alt(a, signed):
    axes = tuple(range(a.r, a.r + a.s))
    total = ZERO
    for perm in itertools.permutations(range(len(axes))):
        # term[idx] = a[src] with src[axes[pos]] = idx[axes[perm[pos]]]
        order = list(range(a.comps.ndim))
        for pos, p in enumerate(perm):
            order[axes[p]] = axes[pos]
        op = SUB if signed and _perm_sign(perm) < 0 else ADD
        total = op(total, a.comps.transpose(order))
    return TensorField(a.n, a.r, a.s, MUL(const(1.0 / math.factorial(len(axes))), total))


def symmetrize(a):
    """Average over permutations of the lower axes."""
    return _sym_alt(a, signed=False)


def alternate(a):
    """Signed average over permutations of the lower axes."""
    return _sym_alt(a, signed=True)


# ---------------------------------------------------------------------------
# Exterior calculus
# ---------------------------------------------------------------------------


def _require_form(omega, name, check):
    if omega.r != 0:
        raise ValueError(f"{name} expects a (0,r) field, got valence {omega.valence}")
    if check and not omega.is_skew():
        raise ValueError(f"{name}: input is not fully skew")


def wedge(beta, gamma, check=True):
    """Exterior product of a p-form and a q-form: alternation of beta (x) gamma."""
    _require_form(beta, "wedge", check)
    _require_form(gamma, "wedge", check)
    return alternate(tensor_product(beta, gamma))


def partial_differential(w):
    """Plain coordinate derivative: new first covariant slot k holds d/dy^k."""
    return TensorField(w.n, w.r, w.s + 1, np.moveaxis(grad(w.comps, w.n), -1, w.r))


def exterior_derivative(omega, check=True):
    """Exterior derivative with the 1/(r+1) normalization.

    (d w)_{j0..jr} = 1/(r+1) * sum_a (-1)^a  d w_{j0..^ja..jr} / dy^{ja};
    on scalars this is the gradient 1-form, and d(d(w)) = 0.
    """
    _require_form(omega, "exterior_derivative", check)
    n, p = omega.n, omega.s
    dw = grad(omega.comps, n)  # [j_0..j_{p-1}, k]
    total = ZERO
    for a in range(p + 1):
        # term a: d w_{j0..^ja..jp} / dy^{ja}, the derivative index moved to slot a
        total = (SUB if a % 2 else ADD)(total, np.moveaxis(dw, -1, a))
    return TensorField(n, 0, p + 1, MUL(const(1.0 / (p + 1)), total))


def interior_product(c, omega, check=True):
    """Substitution of the vector field c into the first slot, scaled by r:
    (i_c w)(X_1..X_{r-1}) = r * w(c, X_1, ..).  Requires r >= 1."""
    if omega.s == 0:
        raise ValueError("interior product of a 0-form is undefined")
    _require_form(omega, "interior_product", check)
    if c.valence != (1, 0):
        raise ValueError("interior product expects a (1,0) vector argument")
    p = omega.s
    total = ADD.reduce(MUL(c.comps, np.moveaxis(omega.comps, 0, -1)), axis=-1)
    return TensorField(omega.n, 0, p - 1, MUL(const(float(p)), total))


# ---------------------------------------------------------------------------
# Symbolic linear algebra helpers (small n)
# ---------------------------------------------------------------------------


def matrix_determinant(m):
    """Determinant of a square object array of Expr by cofactor expansion."""
    k = m.shape[0]
    if k == 1:
        return m[0, 0]
    total = ZERO
    for j in range(k):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        term = mul(m[0, j], matrix_determinant(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


def sym_matrix_inverse(m):
    """Symbolic inverse via the adjugate; entries are Expr ratios."""
    k = m.shape[0]
    det = matrix_determinant(m)
    out = np.empty((k, k), dtype=object)
    if k == 1:
        out[0, 0] = div(ONE, m[0, 0])
        return out
    for i in range(k):
        for j in range(k):
            minor = np.delete(np.delete(m, j, axis=0), i, axis=1)
            cof = matrix_determinant(minor)
            if (i + j) % 2 == 1:
                cof = sub(ZERO, cof)
            out[i, j] = div(cof, det)
    return out


# ---------------------------------------------------------------------------
# Point maps and transformation rules
# ---------------------------------------------------------------------------


class PointMap:
    """Coordinate change y -> ytilde on one chart, with its inverse.

    forward holds n Exprs ytilde^i(y), inverse n Exprs y^i(ytilde); the
    transformation rules need both (symbolic inversion is not attempted).
    """

    def __init__(self, n, forward, inverse):
        self.n = int(n)
        self.forward = [_as_expr(e) for e in forward]
        self.inverse = [_as_expr(e) for e in inverse]
        if len(self.forward) != n or len(self.inverse) != n:
            raise ValueError("component count does not match dimension")

    @classmethod
    def from_strings(cls, n, forward, inverse):
        groups = {}  # shared by forward and inverse
        forward = [parse_expr(t, n, groups=groups) for t in forward]
        return cls(n, forward, [parse_expr(t, n, groups=groups) for t in inverse])

    @classmethod
    def identity(cls, n):
        ids = [coord(i + 1) for i in range(n)]
        return cls(n, ids, list(ids))

    def jac_forward(self):
        """T^i_j = d ytilde^i / dy^j, Exprs in y."""
        return partial_differential(TensorField(self.n, 1, 0, self.forward)).comps

    def jac_inverse(self):
        """S^i_j = d y^i / d ytilde^j, Exprs in ytilde."""
        return partial_differential(TensorField(self.n, 1, 0, self.inverse)).comps

    def apply(self, points):
        return _map_points(self.n, self.forward, points)

    def apply_inverse(self, points):
        return _map_points(self.n, self.inverse, points)

    def roundtrip_residual(self):
        """max |forward(inverse(yt)) - yt| at the 20 sample points."""
        pts = sample_points(self.n, 20)
        back = self.apply(self.apply_inverse(pts))
        return float(np.max(np.abs(back - pts)))

    def substitute_inverse(self, e):
        """Compose an Expr (or an object array of them) in y with
        y = inverse(ytilde)."""
        return subst(e, {i + 1: self.inverse[i] for i in range(self.n)})


def _map_points(n, exprs, points):
    """Images of points (P, n) or of one point (n,) under the n Exprs."""
    out = TensorField(n, 1, 0, exprs).evaluate_many(points)
    return out[0] if np.ndim(points) == 1 else out


def pushforward(w, pmap):
    """Transform a tensor field by the (r,s) tensor rule, expressed in the
    new coordinates.  Upper slots contract with T = d(ytilde)/dy, lower slots
    with S = dy/d(ytilde)."""
    m = w.r + w.s
    Tbar = pmap.substitute_inverse(pmap.jac_forward())
    S = pmap.jac_inverse()
    # new slots carry upper-case letters, the summed source slots lower-case
    new, old = string.ascii_uppercase[:m], string.ascii_lowercase[:m]
    factor = bcast(pmap.substitute_inverse(w.comps), old, new + old)
    for a in range(w.r):
        factor = MUL(factor, bcast(Tbar, new[a] + old[a], new + old))
    for b in range(w.r, m):
        factor = MUL(factor, bcast(S, old[b] + new[b], new + old))
    # sum over the source multi-index in row-major order
    out = ADD.reduce(factor.reshape(factor.shape[:m] + (-1,)), axis=-1)
    return TensorField(w.n, w.r, w.s, out)
