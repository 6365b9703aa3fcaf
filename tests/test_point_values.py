"""The fields' values at points from geometry's bodies on jets
(``geometry._point_values``) against the walk of their trees: equal in
magnitude to the bit on fixtures, canonical kinds and point-mapped systems,
with no derivative tree built; and where the walk or a body faults, the
CLI prints the walk's error or names the field and the point, on documents
whose trees' checked walk refuses them too."""

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
from affsym.tensor import PointMap, TensorField, eval_arrays, grad
from affsym.util import sample_points

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
        ys = [f"y{i + 1}" for i in range(sysd.n)]
        shear = PointMap.from_strings(sysd.n, ["y1 + 0.2*y2^2"] + ys[1:], ["y1 - 0.2*y2^2"] + ys[1:])
        return transform_system(sysd, shear)
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
    kw = dict(nabla=True, metric=_metric(n), A=sysd.A, eta=_eta(n))

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
def test_unchecked_values_are_the_trees_values(name):
    # without nabla, the metric or eta the walk takes Gamma only
    sysd = _system(name)
    pts = sample_points(sysd.n, 7)
    names = ("curvature", "ricci_sym", "ricci_skew")
    got = _point_values(sysd.conn, pts)((), names)
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
    # unchecked, the IEEE values, the trees' in magnitude
    (R,) = values((), ("curvature",))
    assert not np.isfinite(R).all()
    (want,) = eval_arrays([tree], pts, checked=False)
    assert np.array_equal(np.abs(R), np.abs(want), equal_nan=True)


BIG = {"1": [["1e200*y1", "0"], ["0", "0"]], "2": [["0", "1e200*y2"], ["1e200*y2", "0"]]}
SQRT = {"1": [["sqrt(y1)", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]}
SAMPLE = [[0.0, 0.1], [0.2, 0.3]]  # d sqrt(y1)/dy1 divides by zero at the first
ONE = [["1", "0"], ["0", "1"]]
AT = "at y = [-0.375406, -0.265234]"  # the first of the 20 sample points

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
    "canonical_big_n3": (
        {"canonical": {"kind": "intermediate_17_19", "n": 3, "m": 1, "u": ["1e200*y1"]}},
        ["canonical"], 1, "ricci_sym is not finite at y = [-0.375406, -0.265234, -0.16484]",
    ),
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


def _compare_cli():
    """tools/compare_cli.py as a module, for its documents."""
    path = os.path.join(FIXTURES, "..", "tools", "compare_cli.py")
    spec = importlib.util.spec_from_file_location("compare_cli", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# compare_cli's documents sampled at coordinates 0.0 and -0.0, where an
# exact zero of a body and of a tree could carry different signs
SIGNED = {name: doc for name, (doc, _argvs) in _compare_cli().SIGNED.items()}


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
