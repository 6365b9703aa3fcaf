"""Pin the expression trees the index formulas assemble.

Each case hashes the exact tree of every component: operator, constant value,
coordinate index and children, in order.  A change to how a formula is
assembled (the order of a sum's terms, the operand order of a product, a
subtraction turned into an added negation) changes the digest even when the
values agree, so a refactor of the assembly has to keep the trees themselves.
The digests below were recorded on the loop-based assembly.
"""

import hashlib
import os

import numpy as np
import pytest

from affsym import canonical, geometry, liefn, pfaff, tensor
from affsym.canonical import CanonicalSpec, build_system
from affsym.cli import SystemDocument, from_diffusional
from affsym.expr import Expr, ONE, ZERO, add, coord, mul, parse_expr, sub
from affsym.liefn import VectorField
from affsym.tensor import TensorField

import charts

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def tree_digest(roots):
    """sha256 over the shape and the component trees of an array of Exprs
    (or strings), walking each DAG iteratively and hashing every node once."""
    arr = np.asarray(roots, dtype=object)
    memo = {}
    h = hashlib.sha256(repr(arr.shape).encode())
    for root in arr.reshape(-1):
        if isinstance(root, str):
            h.update(root.encode())
            continue
        stack = [root]
        while stack:
            node = stack[-1]
            if id(node) in memo:
                stack.pop()
                continue
            pending = [a for a in node.args if id(a) not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            part = hashlib.sha256()
            part.update(f"{node.op}|{node.value!r}|{node.index!r}|".encode())
            for a in node.args:
                part.update(memo[id(a)])
            memo[id(node)] = part.digest()
        h.update(memo[id(root)])
    return h.hexdigest()[:16]


def _system(kind, n, **kw):
    return build_system(CanonicalSpec(kind, n=n, **kw))


def _field(n, r, s, seed):
    """A fixed (r, s) field whose components mix coordinates and constants."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(n ** (r + s)):
        a, b = (int(v) for v in rng.integers(1, n + 1, size=2))
        c = float(np.round(rng.uniform(-1, 1), 3))
        comps.append(add(mul(coord(a), coord(b)), mul(parse_expr(f"{c}", n), coord(a))))
    return TensorField(n, r, s, comps)


def _eta(n):
    texts = ["y2 - y1^2", "y1*y3 + 1", "y3 - y2*y1"][:n]
    if n == 2:
        texts = ["y2 - y1^2", "y1*y2 + 1"]
    return VectorField.from_strings(n, texts)


def _heisenberg():
    return SystemDocument.load(os.path.join(FIXTURES, "heisenberg.json")).to_system()


def case_geometry(n):
    conn = _system("constcurv_22_13", n).conn
    curv = geometry.curvature(conn)
    parts = geometry.ricci_and_s(conn)
    out = {"curvature": curv.comps}
    out.update({f"ricci_and_s.{k}": v.comps for k, v in parts.items()})
    out["nabla_ricci"] = geometry.covariant_differential(conn, parts["ricci"]).comps
    out["nabla_curvature"] = geometry.covariant_differential(conn, curv).comps
    out["nabla_scalar"] = geometry.covariant_differential(conn, parse_expr("y1*y2", n)).comps
    out["nabla_vector"] = geometry.covariant_differential(conn, _eta(n)).comps
    g, _ = canonical.constcurv_metric(n)
    out["metric_connection"] = geometry.metric_connection(g).gamma
    out["lower_curvature"] = geometry.lower_curvature(g, curv).comps
    T = canonical.deformation_from_covector(n, None)
    out["deformation"] = T.comps
    out["deformed_curvature"] = canonical.deformed_curvature(conn, T).comps
    return out


def case_heisenberg():
    sysd = _heisenberg()
    curv = geometry.curvature(sysd.conn)
    return {
        "gamma": sysd.conn.gamma,
        "curvature": curv.comps,
        "ricci": geometry.ricci_and_s(sysd.conn)["ricci"].comps,
    }


def case_lie(n):
    eta = _eta(n)
    conn = _system("constcurv_22_13", n).conn
    curv = geometry.curvature(conn)
    return {
        "lie_11": liefn.lie_derivative(eta, _field(n, 1, 1, 1)).comps,
        "lie_02": liefn.lie_derivative(eta, _field(n, 0, 2, 2)).comps,
        "lie_13": liefn.lie_derivative(eta, curv).comps,
        "lie_scalar": liefn.lie_derivative(eta, TensorField.scalar(n, coord(1))).comps,
        "commutator": liefn.vf_commutator(eta, VectorField(n, _field(n, 1, 0, 3).comps)).comps,
        "nijenhuis": liefn.nijenhuis(_field(n, 1, 1, 4), check=False).comps,
        "bracket_12": liefn.fn_bracket(
            tensor.alternate(_field(n, 1, 2, 5)), _field(n, 1, 1, 6), check=False
        ).comps,
    }


def case_transform(n):
    pmap = charts.shear(n, 0, 1, 0.3)
    sysd = _system("constcurv_22_13", n)
    return {
        "pushforward_11": tensor.pushforward(_field(n, 1, 1, 7), pmap).comps,
        "pushforward_02": tensor.pushforward(_field(n, 0, 2, 8), pmap).comps,
        "pushforward_10": tensor.pushforward(_field(n, 1, 0, 9), pmap).comps,
        "transform_connection": geometry.transform_connection(sysd.conn, pmap).gamma,
    }


def case_tensor(n):
    a, b = _field(n, 1, 1, 10), _field(n, 0, 1, 11)
    form2 = tensor.alternate(_field(n, 0, 2, 12))
    return {
        "tensor_product": tensor.tensor_product(a, b).comps,
        "contract": tensor.contract(_field(n, 1, 2, 13), 0, 1).comps,
        "symmetrize": tensor.symmetrize(_field(n, 0, 3, 14)).comps,
        "alternate": tensor.alternate(_field(n, 0, 3, 14)).comps,
        "wedge": tensor.wedge(b, b, check=False).comps,
        "d_scalar": tensor.exterior_derivative(TensorField.scalar(n, coord(1) * coord(2))).comps,
        "d_form2": tensor.exterior_derivative(form2, check=False).comps,
        "interior": tensor.interior_product(_eta(n), form2, check=False).comps,
        "partial": tensor.partial_differential(_field(n, 1, 1, 15)).comps,
        "identity": TensorField.identity(n).comps,
        "sum": (a + _field(n, 1, 1, 16)).comps,
        "difference": (a - _field(n, 1, 1, 16)).comps,
        "scale": a.scale(2.5).comps,
    }


def case_determining(n):
    eta = _eta(n)
    sysd = _system("constcurv_22_13", n)
    degenerate = geometry.DiffusionSystem(
        n, _field(n, 1, 1, 17), sysd.conn, check=False
    )
    return {
        "lie_a": geometry._field_tree("lie_a", sysd.conn, A=sysd.A, eta=eta),
        "lie_a_general": geometry._field_tree("lie_a", degenerate.conn, A=degenerate.A, eta=eta),
        "conn_eq": geometry._field_tree("conn_eq", sysd.conn, eta=eta),
        "conn_eq_full": geometry._field_tree("conn_eq_full", degenerate.conn, A=degenerate.A, eta=eta),
    }


def case_pfaff(n):
    conn = _system("constcurv_22_13", n).conn
    g, _ = canonical.constcurv_metric(n)
    u = [parse_expr(t, n) for t in ["y1*y2", "y2^2 - y1", "y3 + y1"][:n]]
    out = {}
    for kind in pfaff.NAMED_KINDS:
        prob = pfaff.named_system(kind, conn=conn, g=g, u_field=u)
        out[kind] = prob.rhs
        if prob.restrictions:
            out[kind + ".restrictions"] = prob.restrictions
    out["beta"] = pfaff._beta_from_connection(conn)
    return out


def case_canonical():
    out = {}
    specs = {
        "maximal.n3": ("maximal_7_11", 3, {}),
        "intermediate.n3": ("intermediate_17_19", 3, {"m": 2, "u": ("y1*y2", "y2^2")}),
        "potential.n3": ("intermediate_potential_17_24", 3, {"m": 1, "psi": "y1^3"}),
        "constcurv.n3.mixed": ("constcurv_22_13", 3, {"epsilons": (1, -1, 1)}),
        "constcurv.n4": ("constcurv_22_13", 4, {}),
        "constcurv_2d": ("constcurv_2d_22_14", 2, {"b": 0.5}),
        "constcurv_2d.mixed": ("constcurv_2d_22_14", 2, {"b": 0.5, "epsilons": (1, -1)}),
        "scalar": ("scalar_23_1", 1, {"u": ("y1^2",)}),
    }
    for label, (kind, n, kw) in specs.items():
        sysd = _system(kind, n, **kw)
        out[label + ".A"] = sysd.A.comps
        out[label + ".gamma"] = sysd.conn.gamma
    g, _ = canonical.constcurv_metric(2, (1, -1))
    out["rotation_field"] = canonical.rotation_field(g, orientation=-1.0).comps
    out["deformation_eps"] = canonical.deformation_from_covector(3, (1, -1, 1)).comps
    return out


def case_documents():
    doc = from_diffusional([["2 + y1^2", "y1*y2"], ["y1*y2", "3 + y2^2"]])
    return {
        "from_diffusional.gamma_strings": [
            doc.gamma_rows[k] for k in sorted(doc.gamma_rows)
        ],
        "from_diffusional.gamma": doc.to_system().conn.gamma,
        "heisenberg.to_system": _heisenberg().conn.gamma,
    }


CASES = {
    "geometry.n2": lambda: case_geometry(2),
    "geometry.n3": lambda: case_geometry(3),
    "heisenberg": case_heisenberg,
    "lie.n2": lambda: case_lie(2),
    "lie.n3": lambda: case_lie(3),
    "transform.n2": lambda: case_transform(2),
    "transform.n3": lambda: case_transform(3),
    "tensor.n2": lambda: case_tensor(2),
    "tensor.n3": lambda: case_tensor(3),
    "determining.n2": lambda: case_determining(2),
    "determining.n3": lambda: case_determining(3),
    "pfaff.n2": lambda: case_pfaff(2),
    "pfaff.n3": lambda: case_pfaff(3),
    "canonical": case_canonical,
    "documents": case_documents,
}

DIGESTS = {'canonical': {'constcurv.n3.mixed.A': '8f143d74dd7ad8c0',
               'constcurv.n3.mixed.gamma': '5a88fe2ae4829f31',
               'constcurv.n4.A': '9830f6e545e429d4',
               'constcurv.n4.gamma': '39b95d42c4e5f322',
               'constcurv_2d.A': 'aeee51a64555ba43',
               'constcurv_2d.gamma': '3da53ddaf58d66cf',
               'constcurv_2d.mixed.A': '28918df0752e1029',
               'constcurv_2d.mixed.gamma': 'afbf7c951ac8b1b4',
               'deformation_eps': 'a3738b3fd5a82a07',
               'intermediate.n3.A': '8f143d74dd7ad8c0',
               'intermediate.n3.gamma': '6cc1beed7caa4d39',
               'maximal.n3.A': '8f143d74dd7ad8c0',
               'maximal.n3.gamma': '673dc8ff1aacd783',
               'potential.n3.A': '8f143d74dd7ad8c0',
               'potential.n3.gamma': '64877b94d6c7aa0d',
               'rotation_field': 'b2134313b4db4d90',
               'scalar.A': '60510984ac0efd95',
               'scalar.gamma': 'f830b671ecbfc783'},
 'determining.n2': {'conn_eq': '968bbaaf746073cb',
                    'conn_eq_full': '0a8aa2debf64f3dc',
                    'lie_a': 'ed3c7a70711c6324',
                    'lie_a_general': 'fe90eb5f84219589'},
 'determining.n3': {'conn_eq': 'c71c4746872d5259',
                    'conn_eq_full': 'd0ba6f9f0e99523b',
                    'lie_a': 'dbceb3061cd98ea7',
                    'lie_a_general': '9685613e7c5771fe'},
 'documents': {'from_diffusional.gamma': '7e2ce9765a44ba05',
               'from_diffusional.gamma_strings': 'aa2d337defc7721b',
               'heisenberg.to_system': '3500da70a7b5c058'},
 'geometry.n2': {'curvature': '06abffd30beec48b',
                 'deformation': '5b9cfc567b365355',
                 'deformed_curvature': 'a49d94a2f364bb18',
                 'lower_curvature': 'c64ab021dbd5eae8',
                 'metric_connection': '5fe3f199dc6b5d89',
                 'nabla_curvature': '673025f9197d5012',
                 'nabla_ricci': '3b7b6c177172666d',
                 'nabla_scalar': '8d381d9df67fb6a8',
                 'nabla_vector': 'cfd51993090487b7',
                 'ricci_and_s.ricci': '31c3527845f69186',
                 'ricci_and_s.ricci_skew': '34709fa9ddd0d7ee',
                 'ricci_and_s.ricci_sym': '560d87281b9443cd',
                 'ricci_and_s.s': 'aee4c34bb84329af'},
 'geometry.n3': {'curvature': 'a6f083025a937880',
                 'deformation': '04ba60f8063240c7',
                 'deformed_curvature': 'e1e2ed3a65119b0a',
                 'lower_curvature': '9cc29ac108f24d9d',
                 'metric_connection': '68cca377975de65d',
                 'nabla_curvature': '542c6d150cc7b3ff',
                 'nabla_ricci': 'f2f3493a31188d76',
                 'nabla_scalar': '28d7664f157ccc7b',
                 'nabla_vector': '74e0860bdd7f6129',
                 'ricci_and_s.ricci': 'f1c161be0805a015',
                 'ricci_and_s.ricci_skew': 'a38c77bc963899b8',
                 'ricci_and_s.ricci_sym': 'bc5ed56a732df9aa',
                 'ricci_and_s.s': 'de6d9a49fa2e5cbb'},
 'heisenberg': {'curvature': '9636c0127c202162',
                'gamma': '3500da70a7b5c058',
                'ricci': 'cb1723a3a7523039'},
 'lie.n2': {'bracket_12': '008307c4e2da6c78',
            'commutator': 'f70b9b155a36f817',
            'lie_02': '2b1add90808232e1',
            'lie_11': '494627446ca2b5c8',
            'lie_13': '5f71d83905543715',
            'lie_scalar': '0f92f78f9fb1f139',
            'nijenhuis': 'b8a4a9e17e07cc7b'},
 'lie.n3': {'bracket_12': 'b532b99ba496b02b',
            'commutator': 'eac3d063edb300c1',
            'lie_02': '5f0186b5af068e1e',
            'lie_11': 'd212a61f82fe3976',
            'lie_13': '265422f4b36bd51b',
            'lie_scalar': '0f92f78f9fb1f139',
            'nijenhuis': '28a3e9c0de95b108'},
 'pfaff.n2': {'beta': 'f108756e7b3cf3e7',
              'constcurv_22': 'd11f9c526a65194b',
              'covector_14': '7a857e0c66fa05f9',
              'frame_17': '760210480b53be85',
              'frame_17.restrictions': '3d7a397fabc6d36e',
              'potential_17_23': '9e5e25d41b930dd3',
              'symmetry_6': '2ed7ae462b70dff2',
              'xfields_17_11': 'edd6abbcf90ca4c4'},
 'pfaff.n3': {'beta': '7ac5ceefb168956a',
              'constcurv_22': '10b647facffafb19',
              'covector_14': 'a140adab406b69c1',
              'frame_17': '3dcfe1691308308f',
              'frame_17.restrictions': 'fc64826e4e1d05e5',
              'potential_17_23': '54fe4df6e10ed41a',
              'symmetry_6': '32661572f013de24',
              'xfields_17_11': '65273d3455ef117c'},
 'tensor.n2': {'alternate': 'f5c5d0febfa28596',
               'contract': '42a565e02052f739',
               'd_form2': '6a827993741c342b',
               'd_scalar': '8d381d9df67fb6a8',
               'difference': 'e3e336761ba8034d',
               'identity': 'c82c4479eeef65b9',
               'interior': '413cb09a111d37b2',
               'partial': 'e11119c8dbd72d75',
               'scale': 'adfaa412a24846cc',
               'sum': 'cb4a4101f0009537',
               'symmetrize': 'b37629b1ab231aad',
               'tensor_product': '7cf49c001474e15a',
               'wedge': '4941da6e3c7411ae'},
 'tensor.n3': {'alternate': '50bdfc49711925cf',
               'contract': 'dd2b7d670daeebfd',
               'd_form2': '1a76b214b9e99ef4',
               'd_scalar': '28d7664f157ccc7b',
               'difference': 'f106d989fb05fac6',
               'identity': '8f143d74dd7ad8c0',
               'interior': '99671bd0b4f20e67',
               'partial': 'ac0febbeb313d06e',
               'scale': '54109d25fe67dd04',
               'sum': 'b3244dd921f40b1f',
               'symmetrize': '4a2706dfc45dc387',
               'tensor_product': 'd566bd84cd97faae',
               'wedge': '3c9f54d4697ebd11'},
 'transform.n2': {'pushforward_02': '6d19770b18653eb0',
                  'pushforward_10': '39d1a5508989aaba',
                  'pushforward_11': 'd331b3d25264a147',
                  'transform_connection': '72a8dc814757124b'},
 'transform.n3': {'pushforward_02': 'abbdb2e18cd6c5fb',
                  'pushforward_10': 'd5ee33cc2a78d88a',
                  'pushforward_11': '689a65df26dad164',
                  'transform_connection': '59781af6cff97138'}}


def compute_digests(name):
    return {k: tree_digest(v) for k, v in CASES[name]().items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_assembled_trees_are_pinned(name):
    assert compute_digests(name) == DIGESTS[name]


def test_digest_sees_term_order_and_sub():
    x, y, z = coord(1), coord(2), coord(3)
    base = tree_digest([add(add(x, y), z)])
    assert tree_digest([add(add(x, y), z)]) == base
    assert tree_digest([add(x, add(y, z))]) != base
    assert tree_digest([add(add(y, x), z)]) != base
    assert tree_digest([sub(x, y)]) != tree_digest([add(x, mul(parse_expr("-1", 3), y))])
    assert tree_digest([mul(x, y)]) != tree_digest([mul(y, x)])
    assert tree_digest([ZERO, ONE]) != tree_digest([ONE, ZERO])
    assert isinstance(ONE, Expr)


# ---------------------------------------------------------------------------
# The whole-array kernel of tensor.py on hand-built roots
# ---------------------------------------------------------------------------


def _vec(*exprs):
    out = np.empty(len(exprs), dtype=object)
    out[:] = exprs
    return out


def test_add_reduce_is_an_unseeded_left_fold():
    from affsym.tensor import ADD

    x = [coord(i) for i in range(1, 5)]
    want = add(add(add(x[0], x[1]), x[2]), x[3])
    assert tree_digest([ADD.reduce(_vec(*x))]) == tree_digest([want])
    # no seed: a lone term comes back as itself, not as 0 + term
    assert ADD.reduce(_vec(x[0])) is x[0]
    # the fold runs along the reduced axis of a transposed or reversed view
    m = np.empty((2, 2), dtype=object)
    m[:] = [[x[0], x[1]], [x[2], x[3]]]
    got = ADD.reduce(m.T, axis=-1)
    assert tree_digest(got) == tree_digest([add(x[0], x[2]), add(x[1], x[3])])
    rev = ADD.reduce(_vec(*x)[::-1])
    assert tree_digest([rev]) == tree_digest([add(add(add(x[3], x[2]), x[1]), x[0])])


def test_mixed_sign_fold_keeps_sub_nodes():
    from affsym.tensor import ADD, SUB, fold

    p, q = _vec(coord(1), coord(2)), _vec(coord(3), coord(4))
    got = fold(ZERO, (ADD, p), (SUB, q))
    want = sub(add(sub(coord(1), coord(3)), coord(2)), coord(4))
    assert got.op == "sub" and tree_digest([got]) == tree_digest([want])
    # a leading subtraction from the zero seed is a negation, as in a loop
    assert tree_digest([fold(ZERO, (SUB, q))]) == tree_digest([sub(sub(ZERO, coord(3)), coord(4))])


def test_mul_keeps_operand_order_under_broadcasting():
    from affsym.tensor import MUL, bcast

    a, b = _vec(coord(1), coord(2)), _vec(coord(3), coord(4))
    outer = MUL(bcast(a, "i", "ij"), bcast(b, "j", "ij"))
    assert outer.shape == (2, 2)
    want = [[mul(coord(i), coord(j)) for j in (3, 4)] for i in (1, 2)]
    assert tree_digest(outer) == tree_digest(want)
    assert tree_digest([outer[0, 0]]) != tree_digest([mul(coord(3), coord(1))])


def test_bcast_orders_axes_by_the_target_letters():
    from affsym.tensor import bcast

    arr = np.arange(24).reshape(2, 3, 4)
    view = bcast(arr, "abc", "cxab")
    assert view.shape == (4, 1, 2, 3)
    assert view[3, 0, 1, 2] == arr[1, 2, 3]


def test_diff_ufunc_calls_the_module_name(monkeypatch):
    from affsym.expr import diff_expr

    calls = []

    def counting(e, i):
        calls.append(i)
        return diff_expr(e, i)

    monkeypatch.setattr(tensor, "diff_expr", counting)
    field = _field(3, 1, 1, 18)
    tensor.partial_differential(field)
    assert sorted(set(calls)) == [1, 2, 3] and len(calls) == 27
