"""The fields' values at points from geometry's bodies on jets
(``geometry._point_values``) against the walk of their trees: equal in
magnitude to the bit on fixtures, canonical kinds and point-mapped systems,
with no derivative tree built; and where the walk or a body faults, the
CLI prints the walk's error or names the field and the point, on documents
whose trees' checked walk refuses them too."""

import functools
import gc
import importlib.util
import json
import os

import numpy as np
import pytest

from affsym import geometry
from affsym.canonical import CanonicalSpec, build_system, constcurv_metric
from affsym.cli import SystemDocument, main, render_json
from affsym.expr import DomainError, ExprError
from affsym.geometry import _field_tree, _point_values, curvature, ricci_and_s, transform_system
from affsym.liefn import VectorField
from affsym.symmetry import _taylor_rows, check_symmetry, invariance_suite
from affsym.tensor import TensorField, bcast, eval_arrays, grad
from affsym.util import sample_points

import charts

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")

SPECS = {
    f"{kind}_n{n}": CanonicalSpec(kind, n=n, **kw)
    for n in (2, 3, 4)
    for kind, kw in (
        ("maximal_7_11", {"a": 1.5}),
        ("intermediate_17_19", {"m": 2, "u": ("y1*y2", "y2^2 - y1")}),
        ("intermediate_potential_17_24", {"m": 1, "psi": "y1^3/3"}),
        ("constcurv_22_13", {"epsilons": (1, -1) + (1,) * (n - 2)}),
        ("constcurv_2d_22_14", {"b": 0.5}),
    )
    if kind != "constcurv_2d_22_14" or n == 2
}
SPECS["scalar_23_1_n1"] = CanonicalSpec("scalar_23_1", n=1, u=("sin(y1)",))


def _system(name):
    """A fixture's system, a canonical kind's, or one of two canonical
    systems carried through a quadratic shear (``transform_system``)."""
    if name.endswith(".json"):
        return SystemDocument.load(os.path.join(FIXTURES, name)).to_system()
    if name.startswith("mapped_"):
        sysd = build_system(SPECS[name.removeprefix("mapped_")])
        return transform_system(sysd, charts.shear(sysd.n, 0, 1, 0.2))
    return build_system(SPECS[name])


CASES = sorted(os.listdir(FIXTURES)) + sorted(SPECS)
CASES += ["mapped_constcurv_22_13_n2", "mapped_intermediate_17_19_n3"]


def _metric(n):
    """A metric that varies on every chart: the constant-curvature one at n
    >= 2, 1 + y1^2 at n = 1."""
    if n == 1:
        return TensorField.from_strings(1, 0, 2, [["1 + y1^2"]])
    return constcurv_metric(n)[0]


def _eta(n):
    """A field that is no symmetry of these systems, so every residual of
    the determining equations is O(1)."""
    if n == 1:
        return VectorField.from_strings(1, ["y1^2"])
    return VectorField.from_strings(n, ["y1^2 + y2", "sin(y1)", f"y1*y{n}", "y3 - y4"][:n])


NAMES = (
    "curvature", "ricci", "s", "ricci_sym", "ricci_skew", "nabla_ricci", "nabla_metric",
    "metric", "A", "lie_a", "conn_eq", "conn_eq_full",
)


@pytest.mark.parametrize("name", CASES)
def test_point_values_are_the_trees_values(monkeypatch, name):
    sysd = _system(name)
    n = sysd.n
    pts = sample_points(n, 20)
    kw = dict(metric=_metric(n), A=sysd.A, eta=_eta(n))

    def refuse(*args, **kwargs):
        raise AssertionError("a derivative tree was built")

    # the numbers, with no derivative tree built
    with monkeypatch.context() as m:
        m.setattr(geometry, "grad", refuse)
        got = _point_values(sysd.conn, pts, **kw)(NAMES)
    trees = [_field_tree(x, sysd.conn, kw["metric"], sysd.A, kw["eta"]) for x in NAMES]
    want = eval_arrays(trees, pts, checked=True)
    for key, a, b in zip(NAMES, got, want):
        assert a.shape == b.shape, key
        assert np.abs(a).tobytes() == np.abs(b).tobytes(), key
        # the values differ at most in the sign of an exact zero
        assert (a == b).all(), key


@pytest.mark.parametrize("name", ["constcurv_n3.json", "heisenberg.json", "maximal_7_11_n2"])
def test_structure_fields_are_the_trees_values(name):
    # without nabla, the metric or eta the walk takes Gamma only
    sysd = _system(name)
    pts = sample_points(sysd.n, 7)
    names = ("curvature", "ricci_sym", "ricci_skew")
    got = _point_values(sysd.conn, pts)(names)
    want = eval_arrays([_field_tree(x, sysd.conn) for x in names], pts, checked=False)
    for a, b in zip(got, want):
        assert np.abs(a).tobytes() == np.abs(b).tobytes()


def test_an_overflowing_body_names_the_field_and_the_point():
    # R's products overflow at the points: the error names the field and
    # the first point, where the trees' walk names the node
    conn = geometry.Connection.from_strings(
        2, [[["1e200*y1", "0"], ["0", "0"]], [["0", "1e200*y2"], ["1e200*y2", "0"]]]
    )
    pts = sample_points(2, 5)
    values = _point_values(conn, pts)
    with pytest.raises(ExprError) as info:
        values(("curvature",))
    assert str(info.value) == "curvature is not finite at y = [-0.375406, -0.265234]"
    tree = _field_tree("curvature", conn)
    with pytest.raises(DomainError, match=r"^non-finite value: 1e\+200\*y1\*\(1e\+200\*y1\)$"):
        eval_arrays([tree], pts, checked=True)


BIG = {"1": [["1e200*y1", "0"], ["0", "0"]], "2": [["0", "1e200*y2"], ["1e200*y2", "0"]]}
SQRT = {"1": [["sqrt(y1)", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]}
SAMPLE = [[0.0, 0.1], [0.2, 0.3]]  # d sqrt(y1)/dy1 divides by zero at the first
ONE = [["1", "0"], ["0", "1"]]
AT = "at y = [-0.375406, -0.265234]"  # the first of the 20 sample points
AT_N3 = "at y = [-0.375406, -0.265234, -0.16484]"
# every subcommand that reads the fields at the points refuses this spec's
# overflowing curvature as malformed input, flatten's preconditions too
BIG_N3 = {"canonical": {"kind": "intermediate_17_19", "n": 3, "m": 1, "u": ["1e200*y1"]}}

# (document, argv, exit code, error line): a fault of the walk names its
# node, a body that overflows names the field and the first point
FAULTS = {
    "report_big": ({"n": 2, "A": ONE, "Gamma": BIG}, ["report"], 1, f"curvature is not finite {AT}"),
    "report_sqrt": (
        {"n": 2, "A": ONE, "Gamma": SQRT, "sample": SAMPLE}, ["report"], 1, "non-finite derivative: sqrt(y1)",
    ),
    "curvature_big": ({"n": 2, "A": ONE, "Gamma": BIG}, ["curvature"], 1, f"curvature is not finite {AT}"),
    "classify_big": ({"n": 2, "A": ONE, "Gamma": BIG}, ["classify"], 1, f"ricci_sym is not finite {AT}"),
    "canonical_big": (
        {"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 1, "u": ["1e200*y1"]}},
        ["canonical"], 1, f"ricci_sym is not finite {AT}",
    ),
    **{
        f"{argv[0]}_big_n3": (BIG_N3, argv, 1, f"{field} is not finite {AT_N3}")
        for argv, field in (
            (["curvature"], "curvature"), (["classify"], "ricci_sym"), (["report"], "curvature"),
            (["canonical"], "ricci_sym"), (["flatten"], "curvature"),
        )
    },
    "canonical_sqrt": (
        {"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 1, "u": ["sqrt(y1)"]}, "sample": SAMPLE},
        ["canonical"], 1, "non-finite derivative: sqrt(y1)",
    ),
    "check_symmetry_big_walk": (
        {"n": 2, "A": ONE, "Gamma": BIG}, ["check-symmetry", "--eta=1e200*y1,0"], 1, f"conn_eq is not finite {AT}",
    ),
    "check_symmetry_big_constant": (
        {"n": 2, "A": ONE, "Gamma": BIG}, ["check-symmetry", "--eta=1e200,0"], 1, f"conn_eq is not finite {AT}",
    ),
    "check_symmetry_big_second": (
        {"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 1, "u": ["1e200*y1"]}},
        ["check-symmetry", "--eta=1e150*y1^2,0"], 1, f"conn_eq is not finite {AT}",
    ),
    "check_symmetry_sqrt": (
        {"n": 2, "A": ONE, "Gamma": SQRT, "sample": SAMPLE}, ["check-symmetry", "--eta=-y2,y1"], 1,
        "non-finite derivative: sqrt(y1)",
    ),
}

# the checked fields each command takes from _point_values
CHECKED = {
    "curvature": ("curvature", "ricci", "s", "ricci_sym", "ricci_skew"),
    "report": ("curvature", "ricci", "s", "ricci_sym"),
    "classify": ("ricci_sym",),
    "canonical": ("ricci_sym", "ricci"),  # the intermediate kinds'
    "check-symmetry": ("lie_a", "conn_eq"),
    "flatten": ("curvature", "ricci_sym", "ricci_skew", "nabla_ricci"),
}


def assert_trees_refuse(path, argv, jets=()):
    """The trees' checked walk refuses the document at path as well: the
    trees (``_field_tree``) of the checked fields argv's command takes
    (CHECKED), then the derivative trees of the fields named in jets."""
    doc = SystemDocument.load(str(path))
    sysd, n = doc.to_system(), doc.n
    eta = None
    if argv[0] == "check-symmetry":
        eta = VectorField.from_strings(n, argv[1].removeprefix("--eta=").split(","))
    with pytest.raises(ExprError):
        trees = [_field_tree(x, sysd.conn, A=sysd.A, eta=eta) for x in CHECKED[argv[0]]]
        trees += [grad(_field_tree(x, sysd.conn), n) for x in jets]
        eval_arrays(trees, doc._points, checked=True)


@pytest.mark.parametrize("case", sorted(FAULTS))
def test_faults_print_the_walks_error(tmp_path, capsys, case):
    doc, argv, code, error = FAULTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == code
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert_trees_refuse(path, argv)


@functools.cache
def compare_cli():
    """tools/compare_cli.py as a module, for its documents, its corpus and
    its runner; loaded once."""
    path = os.path.join(FIXTURES, "..", "tools", "compare_cli.py")
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# compare_cli's documents sampled at coordinates 0.0 and -0.0, where an
# exact zero of a body and of a tree could carry different signs
SIGNED = {name: doc for name, (doc, _argvs) in compare_cli().SIGNED.items()}


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)) + sorted(SIGNED))
def test_curvature_prints_the_trees_values_signs_included(tmp_path, capsys, name):
    path = os.path.join(FIXTURES, name)
    if name in SIGNED:
        path = tmp_path / "signed.json"
        path.write_text(json.dumps(SIGNED[name]))
    doc = SystemDocument.load(str(path))
    conn, keys = doc.to_system().conn, ("ricci", "s", "ricci_sym", "ricci_skew")
    trees = [curvature(conn).comps] + [ricci_and_s(conn)[k].comps for k in keys]
    want = dict(zip(("curvature",) + keys, eval_arrays(trees, doc._points, checked=True)))
    assert main(["curvature", str(path)]) == 0
    assert capsys.readouterr() == (render_json({"points": doc._points, **want}) + "\n", "")


def _raise(*args, **kwargs):
    raise AssertionError("a curvature or Ricci tree was built")


@pytest.mark.parametrize("name", ["constcurv_n3.json", "heisenberg.json", "maximal_7_11_n2", "constcurv_22_13_n3"])
def test_no_curvature_or_ricci_tree_outside_the_suite(monkeypatch, name):
    # the names that curvature, classify, canonical and the determining
    # residuals ask for walk Gamma, the metric, A and eta only
    sysd = _system(name)
    n, conn = sysd.n, sysd.conn
    pts = sample_points(n, 5)
    monkeypatch.setattr(geometry, "curvature", _raise)
    monkeypatch.setattr(geometry, "ricci_and_s", _raise)
    _point_values(conn, pts)(("curvature", "ricci", "s", "ricci_sym", "ricci_skew"))
    _point_values(conn, pts)(("ricci_sym",))
    canonical = ("ricci_sym", "ricci", "curvature", "s", "nabla_metric", "nabla_ricci")
    _point_values(conn, pts, metric=_metric(n))((*canonical, "metric", "ricci_skew"))
    values = _point_values(conn, pts, A=sysd.A, eta=_eta(n))
    values(("lie_a", "A"))
    values(("conn_eq", "conn_eq_full"))


@pytest.mark.parametrize(
    "first, later",
    [(("curvature",), "nabla_ricci"), (("ricci_sym", "lie_a"), "lie_ricci"), (geometry.SUITE, "conn_eq")],
)
def test_a_name_outside_the_first_walk_is_refused_by_name(first, later):
    # nabla_ricci needs Gamma's second derivatives, a suite name the Ric and
    # R jets, conn_eq eta's second derivatives: each only from a first request
    sysd = _system("constcurv_n3.json")
    pts = sample_points(3, 5)
    values = _point_values(sysd.conn, pts, A=sysd.A, eta=_eta(3))
    values(first)
    msg = f"{later} needs jets the first walk did not take: name it at the first request"
    with pytest.raises(ValueError, match=f"^{msg}$"):
        values((later,))
    # a name the first walk covers reads it, as a first request of its own gives it
    (got,), (want,) = values(("ricci_sym",)), _point_values(sysd.conn, pts)(("ricci_sym",))
    assert got.tobytes() == want.tobytes()


def test_point_values_leave_nothing_to_the_cyclic_gc():
    # the closures hold no reference cycle: the walk's jets are freed when
    # the last reference to the closure goes, not by the cyclic GC
    sysd = _system("constcurv_n3.json")
    pts, eta = sample_points(3, 5), VectorField.from_strings(3, ["-y2", "y1", "0"])
    names = ("nabla_ricci", *geometry.SUITE)
    _point_values(sysd.conn, pts, eta=eta)(names)  # builds the trees kept on the connection
    gc.collect()
    gc.disable()
    try:
        values = _point_values(sysd.conn, pts, eta=eta)
        values(names)
        values(("ricci_sym",))
        del values
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_check_symmetry_on_the_weighted_equation_reads_the_suite():
    # on the A-weighted equation the suite's walk also gives L_eta Gamma, as
    # max |conn_eq|; every number is invariance_suite's, to the bit
    (doc, _argvs), = compare_cli().DEGENERATE.values()
    doc = SystemDocument.from_dict(doc)
    sysd, pts = doc.to_system(), doc._points
    eta = VectorField.from_strings(2, ["-y2", "y1"])
    out = check_symmetry(sysd, eta, pts)
    assert out["equation"] == "full" and out["accepted"]
    suite = {k: v.max_abs for k, v in invariance_suite(sysd, eta, pts).items()}
    assert {k: float(v).hex() for k, v in out["invariance"].items()} == {k: v.hex() for k, v in suite.items()}
    (conn_eq,) = _point_values(sysd.conn, pts, eta=eta)(("conn_eq",))
    assert out["invariance"]["lie_gamma"] == float(np.max(np.abs(conn_eq)))


# The quadratic part of the curvature formula over the products that
# Gamma's ZERO entries leave (geometry._quadratic_plan), against every pair
# as the formula reads: the same trees, and the same bits at the points.
PLAN_SPECS = {
    f"{kind}_n{n}{tag}": CanonicalSpec(kind, n=n, **kw)
    for n in (1, 2, 3, 4)
    for kind, tag, kw in (
        ("maximal_7_11", "", {}),
        ("intermediate_17_19", "_m1", {"m": 1, "u": ("1.2 + y1",)}),
        ("intermediate_17_19", "_m2", {"m": 2, "u": ("y1*y2", "y2^2 - y1")}),
        ("constcurv_22_13", "", {}),
        ("constcurv_22_13", "_split", {"epsilons": (1, -1) * (n // 2)}),
        ("constcurv_2d_22_14", "", {"b": 0.5}),
        ("scalar_23_1", "", {"u": ("sin(y1)",)}),
    )
    if (kind in ("maximal_7_11", "scalar_23_1") or n >= 2)
    and (kind != "constcurv_2d_22_14" or n == 2)
    and (kind != "scalar_23_1" or n == 1)
    and not (tag == "_split" and n % 2)
}
# Gamma^1_11 = y1 - y1 is zero at every point but no ZERO node: its
# products stay, so every pair is formed
ZERO_VALUED = {"1": [["y1 - y1", "y2"], ["y2", "y1*y2"]], "2": [["y1", "1 + y2"], ["1 + y2", "y1^2"]]}


def _plan_case(name):
    """A system and points: a fixture's, a canonical kind's or the
    zero-valued Gamma's at the 20 sample points; compare_cli's n = 4
    point-mapped intermediate document's, or a SIGNED document's at its
    own points."""
    if name in SIGNED or name == "mapped_intermediate_n4.json":
        doc = SIGNED.get(name)
        doc = SystemDocument.from_dict(doc) if doc else SystemDocument.load(compare_cli().MAPPED_N4)
        return doc.to_system(), doc._points
    if name == "zero_valued":
        sysd = SystemDocument.from_dict({"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": ZERO_VALUED}).to_system()
    else:
        sysd = _system(name) if name.endswith(".json") else build_system(PLAN_SPECS[name])
    return sysd, sample_points(sysd.n, 20)


def _dense_quadratic(total, G, add, sub, mul, plan):
    ks, rq = bcast(G, "pqks", "pisrkq"), bcast(G, "pirq", "pisrkq")
    rs, kq = bcast(G, "pqrs", "pisrkq"), bcast(G, "pikq", "pisrkq")
    for q in range(G.shape[-1]):
        total = sub(add(total, mul(ks[..., q], rq[..., q])), mul(rs[..., q], kq[..., q]))
    return total


def _curvature_outputs(name):
    """R's trees, the values of R, the Ricci split and nabla Ric at the
    points, and the bound's Taylor rows at the first point (or the error
    that refuses them), from a new system."""
    sysd, pts = _plan_case(name)
    names = ("curvature", "ricci", "s", "ricci_sym", "ricci_skew", "nabla_ricci")
    values = _point_values(sysd.conn, pts)(names)
    try:
        rows = _taylor_rows(sysd, pts[0], 2)
    except ExprError as exc:
        rows = str(exc)
    return curvature(sysd.conn).comps, values, rows


PLAN_CASES = sorted(os.listdir(FIXTURES)) + sorted(PLAN_SPECS) + sorted(SIGNED)
PLAN_CASES += ["mapped_intermediate_n4.json", "zero_valued"]


@pytest.mark.parametrize("name", PLAN_CASES)
def test_curvature_over_the_plan_is_the_dense_formula(monkeypatch, name):
    tree, values, rows = _curvature_outputs(name)
    with monkeypatch.context() as m:
        m.setattr(geometry, "_add_quadratic", _dense_quadratic)
        want_tree, want_values, want_rows = _curvature_outputs(name)
    assert all(a is b for a, b in zip(tree.flat, want_tree.flat))
    for a, b in zip(values, want_values):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(want_rows, str):
        assert rows == want_rows
    else:
        assert [a.tobytes() for a in rows] == [b.tobytes() for b in want_rows]


@pytest.mark.parametrize(
    "name, count",
    [
        ("maximal_7_11_n4", 0),  # Gamma is ZERO throughout
        ("constcurv_22_13_n4", 800),
        ("constcurv_22_13_n4_split", 800),
        ("mapped_intermediate_n4.json", 36),
        ("constcurv_22_13_n2", 64),  # in 2-D every pair, on the whole arrays
        ("constcurv_2d_22_14_n2", 64),
        ("zero_valued", 64),
    ],
)
def test_the_quadratic_part_multiplies_the_pairs_with_no_zero_factor(name, count):
    # of the 2 n^5 products, those with no ZERO factor
    conn = _plan_case(name)[0].conn
    n, made = conn.n, []

    def mul(a, b):
        out = np.multiply(a, b)
        made.append(out.size)
        return out

    total, G = np.zeros((1,) + (n,) * 4), np.ones((1,) + (n,) * 3)
    geometry._add_quadratic(total, G, np.add, np.subtract, mul, conn.plan)
    assert sum(made) == count
    assert (count == 2 * n**5) == ([kept for *_, kept in conn.plan] == [None] * 2 * n)
