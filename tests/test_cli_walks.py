"""The CLI's shared walks: every document, canonical specs included, is
walked once at its points to load; inspect reports from that load alone,
and report, canonical, check-symmetry, curvature and classify evaluate what
they report in one more interpreted walk there.  Every number they print
is, to the bit, the one the library's separate calls give."""

import json
import os

import numpy as np
import pytest

from affsym import expr, geometry, symmetry, tensor
from affsym.canonical import build_system, constcurv_metric
from affsym.cli import SystemDocument, main
from affsym.geometry import covariant_differential, curvature, ricci_and_s, structure_residual
from affsym.liefn import VectorField
from affsym.symmetry import RankNotConstantError, classify, determining_residuals, invariance_suite

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
FIXTURE_PATHS = {name: os.path.join(FIXTURES, name) for name in sorted(os.listdir(FIXTURES))}

# the canonical kinds at n = 2..4, and those defined at one n only there
DOCUMENTS = {
    f"{kind}_n{n}": {"canonical": {"kind": kind, "n": n, **kw}}
    for n in (2, 3, 4)
    for kind, kw in (
        ("maximal_7_11", {}),
        ("intermediate_17_19", {"m": 1, "u": ["y1"]}),
        ("intermediate_potential_17_24", {"m": 1, "psi": "y1^2/2"}),
        ("constcurv_22_13", {}),
    )
}
DOCUMENTS["constcurv_2d_22_14_n2"] = {"canonical": {"kind": "constcurv_2d_22_14", "n": 2, "b": 0.5}}
DOCUMENTS["scalar_23_1_n1"] = {"canonical": {"kind": "scalar_23_1", "n": 1, "u": ["y1"]}}
# det A = y1 vanishes at the first sample point: check-symmetry takes the
# A-weighted connection equation, and d/dy2 passes it
DOCUMENTS["degenerate_a"] = {
    "n": 2,
    "A": [["y1", "0"], ["0", "1"]],
    "sample": [[0.0, 0.1], [0.2, -0.1], [-0.3, 0.25]],
}


@pytest.fixture
def document(request, tmp_path):
    """The path of a fixture, or of one of DOCUMENTS written to tmp_path."""
    name = request.param
    if name in FIXTURE_PATHS:
        return FIXTURE_PATHS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(DOCUMENTS[name]))
    return str(path)


def _etas(n):
    """The rotation in (y1, y2) and d/dy^n, or d/dy1 at n = 1."""
    if n == 1:
        return ["1"]
    return [",".join(["-y2", "y1"] + ["0"] * (n - 2)), ",".join(["0"] * (n - 1) + ["1"])]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _walks(monkeypatch, capsys, argv, pts):
    """The exit code, report and number of interpreted walks at pts."""
    walks = []
    walk = expr._walk

    def counted(exprs, at, *options):
        if at.shape == pts.shape and np.array_equal(at, pts):
            walks.append(exprs)
        return walk(exprs, at, *options)

    monkeypatch.setattr(expr, "_walk", counted)
    return (*_run(capsys, argv), len(walks))


@pytest.mark.parametrize("document", sorted(FIXTURE_PATHS) + ["degenerate_a"], indirect=True)
def test_walks_at_the_document_points(monkeypatch, capsys, document):
    doc = SystemDocument.load(document)
    pts = doc._points
    # the document's own checked load of A and Gamma; build_system walks
    # nothing, as a canonical Gamma is symmetric by construction
    base = 1
    # inspect's det A comes from the load's values of A
    assert _walks(monkeypatch, capsys, ["inspect", document], pts)[2] == base
    for command in ("report", "curvature", "classify"):
        # report: R, Ric, S and Ricci_sym; curvature: R and the Ricci split
        assert _walks(monkeypatch, capsys, [command, document], pts)[2] == base + 1, command
    code, _out, walks = _walks(monkeypatch, capsys, ["canonical", document], pts)
    spec = doc.canonical
    if spec is None:
        assert code == 1 and walks == base
    else:
        # one checked jets walk: the metric, the structure residual and
        # nabla Ric come from the same numbers
        assert walks == base + 1
    for eta in _etas(doc.n):
        argv = ["check-symmetry", document, "--eta=" + eta]
        _code, out, walks = _walks(monkeypatch, capsys, argv, pts)
        # res_A, det A and res_Gamma from one jets walk; an accepted field's
        # jets, and its L_eta Gamma only where res_Gamma was the A-weighted
        # equation
        accepted = "invariance" in out
        assert walks == base + 1 + accepted + (accepted and out["equation"] == "full"), eta


def _hex(obj):
    """Numbers as float.hex, in dicts too: a report prints a float to 17
    digits, which reads back as the same float (as an int where it is
    integral)."""
    if isinstance(obj, dict):
        return {k: _hex(v) for k, v in obj.items()}
    return float(obj).hex()


def _max_abs(values):
    return float(np.max(np.abs(values)))


def _classified(conn, pts):
    try:
        return classify(conn, pts).to_dict()
    except RankNotConstantError as exc:
        return {"error": str(exc)}


@pytest.mark.parametrize("document", sorted(FIXTURE_PATHS) + sorted(DOCUMENTS), indirect=True)
def test_cli_numbers_are_the_library_calls(capsys, document):
    doc = SystemDocument.load(document)
    sysd, pts = doc.to_system(), doc._points
    conn = sysd.conn
    parts = ricci_and_s(conn)

    _code, out = _run(capsys, ["report", document])
    norms = {
        "curvature": _max_abs(curvature(conn).evaluate(pts)),
        "ricci": _max_abs(parts["ricci"].evaluate(pts)),
        "s": _max_abs(parts["s"].evaluate(pts)),
    }
    assert _hex(out["norms"]) == _hex(norms)
    assert out["classify"] == _classified(conn, pts)

    spec = doc.canonical
    if spec is not None:
        _code, out = _run(capsys, ["canonical", document])
        csys = build_system(spec)
        cconn = csys.conn
        cparts = ricci_and_s(cconn)
        checks = {}
        if spec.kind in ("maximal_7_11", "scalar_23_1"):
            checks["curvature"] = _max_abs(curvature(cconn).evaluate(pts))
        if spec.kind.startswith("constcurv"):
            g, _f = constcurv_metric(spec.n, spec.epsilons)
            ric = cparts["ricci"]
            checks["ricci_minus_metric"] = _max_abs(ric.evaluate_many(pts) - g.evaluate_many(pts))
            checks["s_field"] = _max_abs(cparts["s"].evaluate(pts))
            checks["nabla_metric"] = _max_abs(covariant_differential(cconn, g).evaluate(pts))
            checks["nabla_ricci"] = _max_abs(covariant_differential(cconn, ric).evaluate(pts))
            checks["structure_19_14"] = structure_residual(cconn, "const_curv_19_14", pts).max_abs
        if spec.kind.startswith("intermediate"):
            form = "intermediate_10_15" if spec.n >= 3 else "two_dim_12_1"
            checks[f"structure_{form}"] = structure_residual(cconn, form, pts).max_abs
        assert _hex(out["checks"]) == _hex(checks)
        assert out["classify"] == _classified(cconn, pts)

    for text in _etas(doc.n):
        _code, out = _run(capsys, ["check-symmetry", document, "--eta=" + text])
        eta = VectorField.from_strings(doc.n, text.split(","))
        res = determining_residuals(sysd, eta, pts)
        assert _hex(out["res_A"]) == _hex(res["res_A"].max_abs)
        assert _hex(out["res_Gamma"]) == _hex(res["res_Gamma"].max_abs)
        if "invariance" in out:
            suite = {k: v.max_abs for k, v in invariance_suite(sysd, eta, pts).items()}
            assert _hex(out["invariance"]) == _hex(suite)


@pytest.mark.parametrize("document", sorted(FIXTURE_PATHS) + sorted(DOCUMENTS), indirect=True)
def test_no_derivative_trees_of_ricci_gamma_or_eta(monkeypatch, capsys, document):
    # check-symmetry's invariance suite takes nabla Ric and its derivatives
    # from Ric's second derivatives in the walk, canonical's nabla Ric from
    # Gamma's, and the determining residuals d2 eta from eta's: no
    # covariant_differential, and no component of Ric, Gamma or eta
    # differentiated through grad (curvature's own grad(Gamma) aside)
    doc = SystemDocument.load(document)
    sysd, pts = doc.to_system(), doc._points
    ricci = ricci_and_s(sysd.conn)["ricci"].comps

    def variable(comps):
        return {e for e in comps.flat if e.op != "const"}

    called, differentiated = [], []
    real_diff = tensor.diff_expr
    monkeypatch.setattr(tensor, "diff_expr", lambda e, i: differentiated.append(e) or real_diff(e, i))
    for module in (geometry, symmetry):
        real = module.covariant_differential
        wrapped = lambda *a, real=real: called.append(a) or real(*a)
        monkeypatch.setattr(module, "covariant_differential", wrapped)

    accepted = 0
    for text in _etas(doc.n):
        _code, out = _run(capsys, ["check-symmetry", document, "--eta=" + text])
        accepted += "invariance" in out
        assert not called and not variable(ricci) & set(differentiated), text
        eta = VectorField.from_strings(doc.n, text.split(","))
        del differentiated[:]
        determining_residuals(sysd, eta, pts)
        assert not (variable(sysd.conn.gamma) | variable(eta.comps)) & set(differentiated), text
    assert accepted or doc.n == 1  # d/dy1 is no symmetry of scalar_23_1 with u = y1
    if doc.canonical is not None:
        del differentiated[:]
        _run(capsys, ["canonical", document])
        assert not called and not variable(sysd.conn.gamma) & set(differentiated)
