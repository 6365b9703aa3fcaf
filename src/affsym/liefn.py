"""Lie derivatives, vector-field commutators, and the bracket of
vector-valued differential forms.

The bracket of a (1,p) and a (1,q) fully skew field is computed by expanding
both over the coordinate basis, B = sum_i e_i (x) beta_i, and applying the
decomposable-case formula termwise:

    {b (x) beta, c (x) gamma} = [b,c] (x) beta^gamma
                              - b (x) (L_c beta)^gamma
                              + c (x) beta^(L_b gamma)
                              + (-1)^p b (x) (i_c beta)^(d gamma)
                              + (-1)^p c (x) (d beta)^(i_b gamma).

With basis fields the commutator term drops and L_{e_i} is a plain partial
derivative, so the expansion reuses the exterior calculus of :mod:`tensor`
directly.  On a pair of vector fields the bracket degenerates to the ordinary
commutator, and {A,A}/2 of an operator field is its Nijenhuis tensor.
"""

from __future__ import annotations

import string

import numpy as np

from .expr import ZERO, add, const, diff_expr, mul, sub
from .tensor import (
    ADD,
    MUL,
    SUB,
    TensorField,
    bcast,
    exterior_derivative,
    fold,
    grad,
    sym_matrix_inverse,
    wedge,
)
from .util import as_points

__all__ = [
    "VectorField",
    "vf_commutator",
    "lie_derivative",
    "lie_terms",
    "fn_bracket",
    "nijenhuis",
    "nijenhuis_classical",
]


class VectorField(TensorField):
    """Vector field on the chart: a (1,0) TensorField of n Expr components."""

    def __init__(self, n, comps):
        super().__init__(n, 1, 0, comps)

    @classmethod
    def from_strings(cls, n, texts):
        return cls(n, TensorField.from_strings(n, 1, 0, texts).comps)

    @classmethod
    def basis(cls, n, i):
        """Coordinate field e_i (1-based)."""
        return cls(n, [1.0 if k == i - 1 else 0.0 for k in range(n)])

    def to_tensor(self):
        return TensorField(self.n, 1, 0, self.comps)


def vf_commutator(x, y):
    """[X,Y]^i = sum_k X^k d_k Y^i - Y^k d_k X^i."""
    if x.n != y.n:
        raise ValueError("commutator across different chart dimensions")
    n = x.n
    xdy = MUL(x.comps, grad(y.comps, n))  # [i, k] = X^k d_k Y^i
    ydx = MUL(y.comps, grad(x.comps, n))
    return VectorField(n, fold(ZERO, (ADD, xdy), (SUB, ydx)))


def lie_terms(w, dw, eta, deta, r, add=np.add, sub=np.subtract, mul=np.multiply):
    """L_eta W of a (r,s) field from W, dW, eta and d eta under elementwise
    add, sub and mul: numpy's ufuncs on floats give its values (an overflow
    gives inf, silently), ADD/SUB/MUL on Expr arrays ``lie_derivative``'s
    trees.  Arrays lead with a batch axis p: w[p, slots], dw[p, slots, k]
    = dW/dy^k, eta[p, k], deta[p, i, k] = d eta^i/dy^k.  eta^k dW/dy^k is
    folded over k from its first term, then slot by slot -W^{..k..} d_k eta^c
    (upper slot c) or +W_{..k..} d_c eta^k (lower slot c)."""
    slots = string.ascii_uppercase[: w.ndim - 1]
    out = "p" + slots + "k"
    with np.errstate(all="ignore"):
        transport = mul(bcast(eta, "pk", out), dw)
        total = fold(transport[..., 0], (add, transport[..., 1:]))
        for a, c in enumerate(slots):
            dc = bcast(deta, "p" + c + "k", out) if a < r else bcast(deta, "pk" + c, out)
            terms = mul(bcast(w, "p" + slots.replace(c, "k"), out), dc)
            total = fold(total, (sub if a < r else add, terms))
    return total


def lie_derivative(eta, w):
    """Coordinate Lie derivative of a (r,s) tensor field along eta, any
    (1,0) field: the trees of ``lie_terms`` over the components.

    Transport term plus -d(eta) contractions on upper slots and +d(eta)
    contractions on lower slots; on scalars it is the directional derivative.
    """
    if eta.valence != (1, 0):
        raise ValueError("expected a (1,0) field")
    jet = (w.comps, grad(w.comps, w.n), eta.comps, grad(eta.comps, w.n))
    return TensorField(w.n, w.r, w.s, lie_terms(*(a[None] for a in jet), w.r, ADD, SUB, MUL)[0])


# ---------------------------------------------------------------------------
# Bracket of vector-valued forms
# ---------------------------------------------------------------------------


def _form_slice(field, i):
    """beta_i of the basis expansion: the (0,p) form with comps field[i, ...]."""
    return TensorField(field.n, 0, field.s, field.comps[i])


def _partial_form(form, j):
    """L_{e_j} of a form: componentwise d/dy^j."""
    return form.map(lambda e: diff_expr(e, j + 1))


def _basis_interior(form, j):
    """i_{e_j} of a (0,p) form, p >= 1: comps p * form[j, ...]."""
    p = form.s
    return TensorField(form.n, 0, p - 1, MUL(const(float(p)), form.comps[j]))


def fn_bracket(b_field, c_field, check=True):
    """Bracket {B,C} of fully skew (1,p) and (1,q) fields -> (1,p+q).

    Vector fields (p=0 or q=0) are accepted; two vector fields reproduce
    their commutator.
    """
    B, C = b_field, c_field
    if B.n != C.n:
        raise ValueError("bracket across different chart dimensions")
    if B.r != 1 or C.r != 1:
        raise ValueError("bracket expects (1,p) and (1,q) fields")
    n, p, q = B.n, B.s, C.s
    if check:
        if not B.is_skew():
            raise ValueError("first argument is not fully skew in covariant slots")
        if not C.is_skew():
            raise ValueError("second argument is not fully skew in covariant slots")
    sign = -1.0 if p % 2 else 1.0
    out = np.empty((n,) * (1 + p + q), dtype=object)
    out[...] = ZERO
    betas = [_form_slice(B, i) for i in range(n)]
    gammas = [_form_slice(C, j) for j in range(n)]
    dgammas = [exterior_derivative(g, check=False) for g in gammas]
    dbetas = [exterior_derivative(b, check=False) for b in betas]
    for i in range(n):
        beta = betas[i]
        for j in range(n):
            gamma = gammas[j]
            # [e_i, e_j] = 0: first term of the decomposable formula drops.
            t2 = wedge(_partial_form(beta, j), gamma, check=False)
            out[i] = ADD(out[i], t2.scale(-1.0).comps)
            t3 = wedge(beta, _partial_form(gamma, i), check=False)
            out[j] = ADD(out[j], t3.comps)
            if p >= 1:
                t4 = wedge(_basis_interior(beta, j), dgammas[j], check=False).scale(sign)
                out[i] = ADD(out[i], t4.comps)
            if q >= 1:
                t5 = wedge(dbetas[i], _basis_interior(gamma, i), check=False).scale(sign)
                out[j] = ADD(out[j], t5.comps)
    return TensorField(n, 1, p + q, out)


def nijenhuis(a_field, check=True):
    """Nijenhuis tensor of a (1,1) operator field.

    With the normalizations used here (1/(r+1) in d, factor r in the
    interior product, signed average for the wedge) the self-bracket {A,A}
    already equals the classical component formula N^k_ij; under the
    determinant wedge convention the same formula would carry the usual 1/2.
    The identity is pinned by nijenhuis_classical, an independent oracle.
    """
    return fn_bracket(a_field, a_field, check=check)


def lie_derivative_operator_power(eta, a_field, q, pts):
    """Lie-derivative residual of an integer power of an operator field:
    max |L_eta(A^q)| over the points.

    A^q is the symbolic product A A .. A (left to right), of the adjugate
    inverse ``sym_matrix_inverse(A)`` when q < 0, and L_eta is
    ``lie_derivative``; A^0 = id gives 0.  The points pass ``as_points``.
    """
    pts = as_points(pts, a_field.n)
    if q == 0:
        return 0.0
    base = a_field.comps if q > 0 else sym_matrix_inverse(a_field.comps)
    power = base
    for _ in range(abs(q) - 1):
        power = ADD.reduce(MUL(bcast(power, "is", "ijs"), bcast(base, "sj", "ijs")), axis=-1)
    lie = lie_derivative(eta, TensorField(a_field.n, 1, 1, power))
    return float(np.max(np.abs(lie.evaluate_many(pts))))


def nijenhuis_classical(a_field):
    """Independent component formula for the Nijenhuis tensor:

    N^k_ij = sum_s ( A^s_i d_s A^k_j - A^s_j d_s A^k_i
                     - A^k_s d_i A^s_j + A^k_s d_j A^s_i ).
    """
    A = a_field.comps
    n = a_field.n
    out = np.empty((n, n, n), dtype=object)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                total = ZERO
                for s in range(n):
                    total = add(total, mul(A[s, i], diff_expr(A[k, j], s + 1)))
                    total = sub(total, mul(A[s, j], diff_expr(A[k, i], s + 1)))
                    total = sub(total, mul(A[k, s], diff_expr(A[s, j], i + 1)))
                    total = add(total, mul(A[k, s], diff_expr(A[s, i], j + 1)))
                out[k, i, j] = total
    return TensorField(n, 1, 2, out)
