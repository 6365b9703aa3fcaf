"""CLI behavior: documents, subcommands, exit codes, determinism, and the
divergence-form expansion."""

import glob
import json
import os
import re
import warnings

import numpy as np
import pytest

from affsym import cli, expr, geometry, pdesim
from affsym.canonical import CANONICAL_KINDS
from affsym.cli import InputError, SystemDocument, from_diffusional, main, render_json
from affsym.expr import ZERO, DomainError, ExprError, parse_expr
from affsym.liefn import VectorField
from affsym.pfaff import PfaffProblem, transport_to
from affsym.symmetry import flow, invariance_suite, pointwise_symmetry_bound
from affsym.tensor import TensorField
from affsym.pdesim import evolve, make_grid, stability_limit, symmetry_transport_check
from affsym.util import sample_points

from test_expr import mapped_texts
from test_point_values import assert_trees_refuse, compare_cli

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_every_fixture_passes_inspect(capsys):
    files = sorted(glob.glob(os.path.join(FIXTURES, "*.json")))
    assert files, "no fixtures found"
    for f in files:
        code, data = run(capsys, "inspect", f)
        assert code == 0, f
        assert data["valid"] is True


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_report_builds_one_curvature(monkeypatch, capsys, name):
    # the norms and classify share one run of the curvature body, on the
    # numbers of one jets walk (or building the trees kept on the
    # connection)
    built = []
    comps = geometry._curvature_comps
    monkeypatch.setattr(geometry, "_curvature_comps", lambda *a: built.append(1) or comps(*a))
    assert main(["report", fixture(name)]) in (0, 2)
    assert capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
@pytest.mark.parametrize("command", ["report", "canonical"])
def test_one_ricci_split_per_connection(monkeypatch, capsys, command, name):
    # the norms, the rank decision and the structure residual share one
    # run of the Ricci contractions, on numbers or building the split kept
    # on the connection
    built = []
    contract = geometry._ricci_contractions
    monkeypatch.setattr(geometry, "_ricci_contractions", lambda *a: built.append(1) or contract(*a))
    code = main([command, fixture(name)])
    capsys.readouterr()
    assert len(built) == (0 if code == 1 else 1)


def test_classify_maximal_fixture(capsys):
    code, data = run(capsys, "classify", fixture("flat_n2.json"))
    assert code == 0
    assert data["m"] == 0 and data["bound"] == 6


def test_classify_canonical_fixtures(capsys):
    code, data = run(capsys, "classify", fixture("intermediate_n3_m1.json"))
    assert code == 0 and data["m"] == 1 and data["bound"] == 9
    code, data = run(capsys, "classify", fixture("constcurv_n3.json"))
    assert code == 0 and data["m"] == 3 and data["bound"] == 6


def test_check_symmetry_accepts_rotation(capsys):
    code, data = run(capsys, "check-symmetry", fixture("flat_n2.json"), "--eta", "y2,-y1")
    assert code == 0
    assert data["accepted"] is True
    assert data["res_A"] <= 1e-10 and data["res_Gamma"] <= 1e-10
    assert all(v <= 1e-7 for v in data["invariance"].values())


def test_check_symmetry_rejects_quadratic(capsys):
    code, data = run(capsys, "check-symmetry", fixture("flat_n2.json"), "--eta", "y1^2,0")
    assert code == 2
    assert data["accepted"] is False


def test_bound_constcurv_depth1(capsys):
    code, data = run(
        capsys, "bound", fixture("constcurv_n3.json"), "--depth", "1", "--at", "0.1,-0.2,0.3"
    )
    assert code == 0
    assert data["bound"] == 6


def test_bound_intermediate_depth2(capsys):
    code, data = run(
        capsys,
        "bound",
        fixture("intermediate_const_u.json"),
        "--depth",
        "2",
        "--at",
        "0.1,-0.2,0.3",
    )
    assert code == 0 and data["bound"] == 9


def test_canonical_self_verification(capsys):
    for name in ("constcurv_n3.json", "intermediate_n3_m1.json", "maximal_n2.json"):
        code, data = run(capsys, "canonical", fixture(name))
        assert code == 0, name
        assert data["passed"] is True


def test_canonical_without_a_structure_check_exits_1(tmp_path, capsys):
    # the intermediate structure formulas need n >= 2: at n = 1 there is no
    # check to run, which is an input error, not a failed check
    path = tmp_path / "intermediate_n1.json"
    path.write_text(json.dumps({"canonical": {"kind": "intermediate_17_19", "n": 1, "m": 1, "u": ["y1"]}}))
    assert main(["canonical", str(path)]) == 1
    expected = "error: canonical has no structure check for intermediate_17_19 at n = 1\n"
    assert capsys.readouterr() == ("", expected)


def test_check_symmetry_with_an_overflowing_det_a_does_not_warn(tmp_path, capsys):
    # det A is beyond the float range at the sample points: infinite, so
    # nondegenerate, and numpy's overflow warning (an error in this suite)
    # is not raised
    spec = {"kind": "constcurv_2d_22_14", "n": 2, "a": 1e300, "epsilons": [-1, -1], "b": 1e300}
    path = tmp_path / "huge_det.json"
    path.write_text(json.dumps({"canonical": spec}))
    assert main(["check-symmetry", str(path), "--eta=-y2,y1"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["equation"] == "reduced"


def test_inspect_reports_an_overflowing_det_a_as_null(tmp_path, capsys):
    # the same document: its determinant's minimum has no float value, so
    # inspect prints null, without numpy's warning, and exits 0
    spec = {"kind": "constcurv_2d_22_14", "n": 2, "a": 1e300, "epsilons": [-1, -1], "b": 1e300}
    path = tmp_path / "huge_det.json"
    path.write_text(json.dumps({"canonical": spec}))
    assert main(["inspect", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["det_A_min_abs"] is None


def test_inspect_with_a_subnormal_pivot_in_det_a_does_not_warn(tmp_path, capsys):
    # A^2_1 = 1e-320*y1 is subnormal at every sample point: det's LU divides
    # by it, and numpy's divide warning (an error in this suite) is not raised
    path = tmp_path / "tiny_det.json"
    path.write_text(json.dumps({"n": 2, "A": [["0", "-1"], ["1e-320*y1", "0"]]}))
    assert main(["inspect", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["det_A_min_abs"] == 0


def test_flatten_intermediate(capsys):
    code, data = run(capsys, "flatten", fixture("intermediate_n3_m1.json"))
    assert code == 0
    assert data["flat_curvature"] <= 1e-5


def test_flatten_passes_on_constant_curvature(capsys):
    # projectively flat (Eisenhart 1927): exact curvature, path independence
    code, data = run(capsys, "flatten", fixture("constcurv_n3.json"))
    assert code == 0
    assert data["flat_curvature"] <= 1e-13 and data["path_gap"] <= 1e-8


def test_flatten_transport_failure_names_the_probe(tmp_path, capsys):
    # the Riccati-type covector equation blows up on the way to the second
    # n = 4 probe, the one with |y| = 0.63; the error line says which it is
    path = tmp_path / "cc4.json"
    path.write_text(json.dumps({"canonical": {"kind": "constcurv_22_13", "n": 4}}))
    code = main(["flatten", str(path)])
    probe = ", ".join(f"{v:.6g}" for v in sample_points(4, 5, seed=11)[1])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (
        "error: transport blew up at segment parameter t = 0.91"
        f" on the path to probe y = [{probe}]\n"
    )


def test_flatten_with_an_infinite_start_slope_exits_2(tmp_path, capsys):
    # the transports start at --at, where y1 = 0: Gamma^2_11 = 1/y1 and so the
    # first slope are infinite, and the integrator ends with a step underflow
    # on the path to the first probe, with no numpy warning on the way
    doc = {"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": {"2": [["1/y1", "0"], ["0", "0"]]}}
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    code = main(["flatten", str(path), "--at", "0,0.1", "--u0", "0.5,0.5"])
    probe = ", ".join(f"{v:.6g}" for v in sample_points(2, 5, seed=11)[0])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == (
        "error: transport failed: Required step size is less than spacing between numbers."
        f" on the path to probe y = [{probe}]\n"
    )


def test_flatten_precondition_overflow_warns_of_nothing(tmp_path, capsys):
    # heisenberg's A and Gamma but Gamma^2_11 = 1e200*y1*y1: nabla(beta)'s
    # unchecked walk is inf, and its asymmetry inf - inf; the check reports
    # it and exits 2, with no numpy warning (an error in tier-1) on the way
    with open(fixture("heisenberg.json"), encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["Gamma"]["2"][0][0] = "1e200*y1*y1"
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    code = main(["flatten", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out)["error"].endswith("nabla(beta) symmetry inf")


def test_flatten_names_a_gamma_whose_second_derivatives_are_not_finite(tmp_path, capsys):
    # Gamma^2_11 = 1e308*y1*y1*0.5 is finite with its first derivatives at
    # the sample points; its second derivative folds 1e308 + 1e308, which
    # the checked walk of Gamma that flatten's preconditions read refuses,
    # which is malformed input (exit 1), as in every other subcommand
    with open(fixture("heisenberg.json"), encoding="utf-8") as fp:
        doc = json.load(fp)
    doc["Gamma"]["2"][0][0] = "1e308*y1*y1*0.5"
    path = tmp_path / "second.json"
    path.write_text(json.dumps(doc))
    code = main(["flatten", str(path)])
    assert (code, capsys.readouterr()) == (1, ("", "error: non-finite constant inf\n"))


def test_flatten_judges_its_preconditions_at_the_documents_points(tmp_path, capsys):
    # Gamma^1_11 = sqrt(y1 + 0.36) is flat and defined where y1 >= -0.36:
    # at the document's sample, not at the 20 sample points (the first has
    # y1 = -0.375), and on every transport path from y = 0 to the probes
    # (y1 >= -0.344)
    doc = {
        "n": 2,
        "A": [["1", "0"], ["0", "1"]],
        "Gamma": {"1": [["sqrt(y1 + 0.36)", "0"], ["0", "0"]]},
        "sample": [[0.1, 0.2], [-0.2, 0.3]],
    }
    assert sample_points(2, 20)[:, 0].min() < -0.36 < sample_points(2, 5, seed=11)[:, 0].min()
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(doc))
    code, data = run(capsys, "flatten", str(path))
    assert code == 0
    assert data["precondition_structure"] == data["precondition_nabla_beta"] == 0


def test_flatten_rejects_generic(tmp_path, capsys):
    doc = {
        "n": 2,
        "A": [["1", "0"], ["0", "1"]],
        "Gamma": {
            "1": [["y2", "0"], ["0", "y1*y2"]],
            "2": [["y1", "y2"], ["y2", "0"]],
        },
    }
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    code, data = run(capsys, "flatten", str(path))
    assert code == 2
    assert "error" in data


def test_flatten_rejects_one_dimensional_chart(capsys):
    # n = 1 is outside the pipeline's domain: an input error, not a failed check
    code, data = run(capsys, "flatten", fixture("heat_n1.json"))
    assert code == 1 and data is None


def test_simulate_heat_with_csv(tmp_path, capsys):
    csv = tmp_path / "snaps.csv"
    code, data = run(
        capsys,
        "simulate",
        fixture("heat_n1.json"),
        "--grid",
        "32",
        "--dt",
        "0.005",
        "--steps",
        "8",
        "--initial",
        "sin(x)",
        "--csv",
        str(csv),
    )
    assert code == 0
    assert data["pde_residual"] is not None and data["pde_residual"] < 1e-2
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "t,x,y1"


def test_simulate_transport_translation(capsys):
    code, data = run(
        capsys,
        "simulate",
        fixture("flat_n2.json"),
        "--grid",
        "16",
        "--dt",
        "0.01",
        "--steps",
        "4",
        "--transport",
        "1,0",
        "--tau",
        "0.3",
    )
    assert code == 0
    assert data["transport_gap"] <= 1e-10


REFUSED = "error: eta does not pass the "


def test_simulate_transport_judges_eta_at_the_document_tolerance(tmp_path, capsys):
    # res_Gamma of 1e-9*y1 is 2e-9: within the default 1e-8, not the document's
    with open(fixture("intermediate_const_u.json"), encoding="utf-8") as fp:
        doc = {**json.load(fp), "tolerances": {"symmetry": 1e-30}}
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", str(path), "--grid", "32", "--dt", "1e-3", "--steps", "2"]
    assert main(argv + ["--transport=1e-9*y1,0,0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == REFUSED + "determining equations on this system\n"


def counting_evolutions(monkeypatch):
    # every evolution runs pdesim's RK4 stepper, through evolve_snapshots or
    # straight from cmd_simulate
    calls = []
    stepper = pdesim._rk4

    def counted(*args):
        calls.append(args[2:])
        return stepper(*args)

    monkeypatch.setattr(pdesim, "_rk4", counted)
    monkeypatch.setattr(cli, "_rk4", counted)
    return calls


def test_simulate_transport_evolves_each_trajectory_once(monkeypatch, capsys):
    # the document's evolution gives the gap its evolved grid; only the
    # flowed grid is evolved again
    path = fixture("intermediate_const_u.json")
    calls = counting_evolutions(monkeypatch)
    code, data = run(capsys, "simulate", path, "--grid", "16", "--dt", "1e-3", "--steps", "8", "--transport=1,0,0")
    assert code == 0 and len(calls) == 2
    monkeypatch.undo()
    doc = SystemDocument.load(path)
    profiles = [lambda x, k=k: 0.2 * np.sin(2 * np.pi * x / (2 * np.pi) + k) for k in range(3)]
    grid = make_grid(profiles, 16, 2 * np.pi)
    eta = VectorField.from_strings(3, ["1", "0", "0"])
    rep = symmetry_transport_check(doc.to_system(), eta, 0.1, grid, 1e-3, 8, doc._points)
    assert data["transport_gap"] == rep["max_abs"]


def test_simulate_takes_a_varying_a_spectrum_once_per_evolution(monkeypatch, capsys):
    # A is not constant on constcurv_2d.json: its eigenvalues are taken once
    # at the initial grid, for the report and the evolution's operator, and
    # with --transport once more, for the flowed grid's evolution
    calls = []
    eigvals = np.linalg.eigvals

    def counted(mats):
        calls.append(mats.shape)
        return eigvals(mats)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    argv = ["simulate", fixture("constcurv_2d.json"), "--grid", "64", "--dt", "1e-4", "--steps", "4"]
    code, data = run(capsys, *argv)
    assert code == 0 and calls == [(64, 2, 2)]
    monkeypatch.undo()
    profiles = [lambda x, k=k: 0.2 * np.sin(2 * np.pi * x / (2 * np.pi) + k) for k in range(2)]
    limit = stability_limit(SystemDocument.load(argv[1]).to_system(), make_grid(profiles, 64, 2 * np.pi))
    assert data["stability_limit"] == limit
    monkeypatch.setattr(np.linalg, "eigvals", counted)
    calls.clear()
    assert run(capsys, *argv, "--transport=-y2,y1")[0] == 0 and calls == [(64, 2, 2)] * 2


@pytest.mark.parametrize(
    "eta, code, line",
    [
        ("1e-9*y1,0,0", 2, REFUSED + "determining equations on this system"),
        ("1,0", 1, "error: --transport needs 3 comma-separated components"),
    ],
    ids=["refused", "malformed"],
)
def test_simulate_transport_evolves_nothing_for_a_bad_field(tmp_path, monkeypatch, capsys, eta, code, line):
    with open(fixture("intermediate_const_u.json"), encoding="utf-8") as fp:
        doc = {**json.load(fp), "tolerances": {"symmetry": 1e-30}}
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(doc))
    calls = counting_evolutions(monkeypatch)
    argv = ["simulate", str(path), "--grid", "32", "--dt", "1e-3", "--steps", "2", "--transport=" + eta]
    assert main(argv) == code and calls == []
    assert capsys.readouterr().err == line + "\n"


def test_simulate_judges_eta_before_an_evolution_that_blows_up(capsys):
    # dt = 0.2 exceeds the stability heuristic and the evolution blows up;
    # the translation is refused first, with no warning
    argv = ["simulate", fixture("constcurv_n3.json"), "--grid", "32", "--dt", "0.2", "--steps", "100"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["--transport=1,0,0"]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == REFUSED + "determining equations on this system\n"


def test_simulate_transport_warns_for_cli_from_both_evolutions(capsys):
    # the flowed grid's evolution warned for pdesim's own line
    argv = ["simulate", fixture("intermediate_const_u.json"), "--grid", "32", "--dt", "0.02", "--steps", "2"]
    with pytest.warns(RuntimeWarning, match="exceeds the stability heuristic") as caught:
        assert main(argv + ["--transport=1,0,0"]) == 0
    capsys.readouterr()
    assert [w.filename for w in caught] == [cli.__file__] * 2


def test_simulate_refuses_a_dt_whose_product_with_steps_overflows(capsys):
    # the whole evolution ran and warned, and the last snapshot's t = inf
    # was refused with exit 2
    argv = ["simulate", fixture("heat_n1.json"), "--grid", "16", "--initial", "1", "--steps", "2", "--dt"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv + ["1e308"]) == 1
    assert caught == []
    assert capsys.readouterr() == ("", "error: --dt 1e+308 times --steps 2 is beyond the float range\n")
    huge = 10**400  # beyond the float range itself, which a product would raise on
    assert main(argv[:-3] + ["--steps", str(huge), "--dt", "1e-3"]) == 1
    assert capsys.readouterr().err == f"error: --dt 0.001 times --steps {huge} is beyond the float range\n"


@pytest.mark.parametrize("target", ["missing/out.csv", "."], ids=["missing_directory", "directory"])
def test_simulate_csv_that_cannot_be_written_exits_1(tmp_path, capsys, target):
    path = str(tmp_path / target)
    argv = ["simulate", fixture("heat_n1.json"), "--grid", "16", "--dt", "1e-3", "--steps", "2"]
    assert main(argv + ["--csv", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {path}: [Errno ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_simulate_transport_accepts_what_check_symmetry_accepts(capsys, name):
    with open(fixture(name), encoding="utf-8") as fp:
        doc = json.load(fp)
    n = doc["n"] if "n" in doc else doc["canonical"]["n"]
    translation = ",".join(["1"] + ["0"] * (n - 1))
    rotation = ",".join(["-y2", "y1"] + ["0"] * (n - 2)) if n >= 2 else "y1"
    for eta in (translation, rotation):
        code, report = run(capsys, "check-symmetry", fixture(name), "--eta=" + eta)
        assert code in (0, 2)
        main(["simulate", fixture(name), "--grid", "16", "--dt", "1e-4", "--steps", "1", "--transport=" + eta])
        refused = capsys.readouterr().err.startswith(REFUSED)
        assert refused != report["accepted"], (name, eta)


def test_simulate_initial_profiles_are_expressions_in_x(tmp_path, capsys):
    # only the identifier x is the grid coordinate: exp keeps its letter x
    csv = tmp_path / "snaps.csv"
    argv = ["--grid", "16", "--dt", "0.001", "--steps", "4", "--csv", str(csv)]
    initial = "0.1*exp(-x^2);0.05*cos(x)"
    code, data = run(capsys, "simulate", fixture("flat_n2.json"), *argv, "--initial", initial)
    assert code == 0 and data["final_t"] == 0.004
    rows = np.array([line.split(",") for line in csv.read_text().split()[1:17]], dtype=float)
    x = rows[:, 1]
    assert np.array_equal(rows[:, 2:], np.stack([0.1 * np.exp(-x**2), 0.05 * np.cos(x)], axis=1))


@pytest.mark.parametrize("profile", ["1/x", "ln(x)"])
def test_simulate_profile_not_finite_on_the_grid_exits_1(capsys, profile):
    # the grid starts at x = 0
    argv = ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "4"]
    assert main(argv + ["--initial", profile]) == 1
    assert capsys.readouterr().err == "error: bad profile: grid values must be finite\n"


@pytest.mark.parametrize(
    "doc, line",
    [
        ({"n": 2, "A": [["1", "1/y1"], ["0", "1"]]}, "division by zero: 1/y1"),
        ({"n": 1, "A": [["y1^-3"]]}, "zero raised to a negative power: y1^-3"),
    ],
)
def test_simulate_coefficient_not_finite_at_a_grid_value_exits_1(tmp_path, capsys, doc, line):
    # the default profile puts y1 = 0 on the grid, where A is not finite:
    # input at fault, named by the stability limit's checked walk
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["inspect", str(path)]) == 0
    capsys.readouterr()
    argv = ["simulate", str(path), "--grid", "16", "--dt", "0.001", "--steps", "4"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {line}\n"


def test_grid_flow_blow_up_exits_2(capsys):
    # a rotation of the sphere carries the constant profile (1, 0) through the
    # stereographic chart's pole at tau = pi/2; the grid flow's blow-up guard
    # stops it before the points reach inf
    code = main(
        [
            "simulate",
            fixture("heisenberg.json"),
            "--initial",
            "1;0",
            "--transport=0.5+0.5*y1^2-0.5*y2^2,y1*y2",
            "--tau",
            "2",
            "--grid",
            "16",
            "--dt",
            "0.001",
            "--steps",
            "4",
        ]
    )
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: grid flow left the working region (blow-up guard)\n"


def _blow_up_flow(*_args):
    flow(VectorField.from_strings(1, ["y1^2"]), np.array([2.0]), 1.0)


def _blow_up_transport(*_args):
    rhs = np.array([[parse_expr("y1^2", 2)]], dtype=object)
    transport_to(PfaffProblem(1, 1, rhs, p0=[0.0], u0=[1.0]), [1.5])


@pytest.mark.parametrize(
    "fail, message",
    [
        (_blow_up_flow, "flow left the working region (blow-up guard) (reached t = 0.5)"),
        (_blow_up_transport, "transport blew up at segment parameter t = 0.6667"),
    ],
    ids=["flow", "transport"],
)
def test_integration_blow_up_exits_2(monkeypatch, capsys, fail, message):
    # no fixture drives a flow or transport to the blow-up guard, so the
    # transport gap of `simulate` is replaced by one that does
    monkeypatch.setattr(cli, "_transport", fail)
    argv = ["simulate", fixture("flat_n2.json"), "--grid", "16", "--dt", "0.01", "--steps", "2"]
    assert main(argv + ["--transport=1,0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_runs_and_is_deterministic(capsys):
    code1, _ = run(capsys, "report", fixture("intermediate_n3_m1.json"))
    out1 = None
    code1 = main(["report", fixture("intermediate_n3_m1.json")])
    out1 = capsys.readouterr().out
    code2 = main(["report", fixture("intermediate_n3_m1.json")])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2


def test_exit_code_1_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 1
    capsys.readouterr()

    asym = tmp_path / "asym.json"
    asym.write_text(
        json.dumps(
            {"n": 2, "A": [["1", "0"], ["0", "1"]], "Gamma": {"1": [["0", "y1"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]}}
        )
    )
    assert main(["classify", str(asym)]) == 1
    capsys.readouterr()

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"n": 2}))
    assert main(["inspect", str(missing)]) == 1
    capsys.readouterr()

    badexpr = tmp_path / "badexpr.json"
    badexpr.write_text(json.dumps({"n": 1, "A": [["y7"]]}))
    assert main(["inspect", str(badexpr)]) == 1
    capsys.readouterr()


def _mapped_document(spec, seed):
    """A point-mapped document of the canonical ``spec``, as a dict."""
    n = spec["n"]
    texts = mapped_texts(spec, (0, n - 1), np.random.default_rng(seed))
    rows = [texts[i : i + n] for i in range(0, len(texts), n)]
    return {"n": n, "A": rows[:n], "Gamma": {str(k + 1): rows[n * (k + 1) : n * (k + 2)] for k in range(n)}}


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "constcurv_2d_22_14", "n": 2, "b": 0.5},
        {"kind": "constcurv_22_13", "n": 3},
        {"kind": "intermediate_17_19", "n": 4, "m": 2, "u": ["y1", "y2"]},
    ],
    ids=["constcurv_2d", "constcurv_n3", "intermediate_n4"],
)
def test_document_parses_each_string_once_into_fresh_nodes(monkeypatch, spec):
    # A and Gamma share one dict of parsed groups; every string still goes
    # through parse_expr, and every node is the one a fresh parse gives
    doc = _mapped_document(spec, 7)
    n = doc["n"]
    calls = []
    monkeypatch.setattr(cli, "parse_expr", lambda *a, **kw: calls.append(kw) or parse_expr(*a, **kw))
    sysd = SystemDocument.from_dict(doc).to_system()
    texts = [t for m in [doc["A"], *doc["Gamma"].values()] for row in m for t in row]
    assert len(calls) == len(texts) == n * n * (n + 1)
    assert len({id(kw["groups"]) for kw in calls}) == 1
    nodes = list(sysd.A.comps.flat) + [sysd.conn.gamma[k][i][j] for k in range(n) for i in range(n) for j in range(n)]
    assert all(node is parse_expr(t, n) for node, t in zip(nodes, texts))


def test_bad_entry_of_a_mapped_document_names_its_offset(tmp_path, capsys):
    # the entry's groups were parsed in the entries before it; the error
    # is the one a fresh parse of the entry gives
    doc = _mapped_document({"kind": "constcurv_2d_22_14", "n": 2, "b": 0.5}, 7)
    entry = doc["Gamma"]["2"][1][1]
    at = entry.rindex("y1")
    bad = entry[:at] + "y3" + entry[at + 2 :]
    doc["Gamma"]["2"][1][1] = bad
    path = tmp_path / "mapped.json"
    path.write_text(json.dumps(doc))
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: bad expression {bad!r}: coordinate y3 out of range for dimension 2 (at offset {at})\n"


def test_check_symmetry_accepts_a_pushed_forward_rotation_on_a_mapped_document(tmp_path, capsys):
    # the --eta components repeat groups too, and share one dict
    spec = {"kind": "constcurv_2d_22_14", "n": 2, "b": 0.5}
    doc = _mapped_document(spec, 7)
    path = tmp_path / "mapped.json"
    path.write_text(json.dumps(doc))
    rng = np.random.default_rng(7)
    c = float(rng.uniform(0.1, 0.3) * rng.choice((-1.0, 1.0)))
    e = float(rng.uniform(-0.2, 0.2))
    # the shear y1 -> y1 + c*y2^2 + e*y2 moves the rotation (-y2, y1) to
    # (-y2 + (2c*y2 + e)*(y1 - c*y2^2 - e*y2), y1 - c*y2^2 - e*y2)
    y1 = f"(y1 - ({c!r}*y2^2 + {e!r}*y2))"
    eta = f"--eta=-y2 + (2*{c!r}*y2 + {e!r})*{y1},{y1}"
    code, data = run(capsys, "check-symmetry", str(path), eta)
    assert code == 0 and data["accepted"] is True
    code, data = run(capsys, "check-symmetry", str(path), "--eta=1,0")
    assert code == 2 and data["accepted"] is False


@pytest.mark.parametrize("command", ["inspect", "curvature", "classify", "report", "bound"])
def test_coefficient_not_finite_at_a_sample_point_exits_1(tmp_path, capsys, command):
    # 1/y1 is infinite at the document's own point y1 = 0
    doc = _flat_doc(Gamma={"1": [["1/y1", "0"], ["0", "0"]]}, sample=[[0.0, 0.1]])
    path = tmp_path / "pole.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == 1
    assert capsys.readouterr() == ("", "error: division by zero: 1/y1\n")


@pytest.mark.parametrize("command", ["curvature", "classify", "report", "check-symmetry"])
def test_derivative_not_finite_at_a_sample_point_exits_1(tmp_path, capsys, command):
    # sqrt(y1) is finite at y1 = 0, its derivative is not
    doc = _flat_doc(Gamma={"1": [["sqrt(y1)", "0"], ["0", "0"]]}, sample=[[0.0, 0.1]])
    path = tmp_path / "branch.json"
    path.write_text(json.dumps(doc))
    extra = {"check-symmetry": ["--eta=1,0"]}.get(command, [])
    assert main([command, str(path), *extra]) == 1
    assert capsys.readouterr() == ("", "error: non-finite derivative: sqrt(y1)\n")
    assert_trees_refuse(path, [command, *extra])


@pytest.mark.parametrize(
    "argv", [["bound", "--depth", "1"], ["bound", "--depth", "2"], ["check-symmetry", "--eta=0,1"]]
)
def test_invariant_derivative_not_finite_exits_1(tmp_path, capsys, argv):
    # Gamma^1_22 is finite at y1 = 1 and so are R and its first derivatives
    # but one: d2 Gamma^1_22/dy1^2 = 0.1*exp(700)*700*700 overflows.  The
    # invariance suite walks dW checked, so eta^1 = 0 (a ZERO factor in the
    # tree of L_eta W) does not hide it, and the walk names the node whose
    # derivative is not finite, as the trees' walk refuses it too; the
    # bound's Taylor walk names exp(700*y1), whose second coefficient
    # exp(700)*700^2/2 is not finite.
    doc = _flat_doc(
        Gamma={"1": [["0", "0"], ["0", "0.1*exp(700*y1)"]], "2": [["0", "0"], ["0", "0"]]},
        sample=[[1.0, 0.0]],
    )
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([argv[0], str(path), *argv[1:]]) == 1
    error = "non-finite derivative" if argv[0] == "check-symmetry" else "Taylor coefficient out of range"
    assert capsys.readouterr() == ("", f"error: {error}: exp(700*y1)\n")
    if argv[0] == "check-symmetry":
        assert_trees_refuse(path, argv[:2], jets=("nabla_ricci",))
    with pytest.raises(DomainError):
        pointwise_symmetry_bound(SystemDocument.load(str(path)).to_system(), [1.0, 0.0], 1)


STEEP_GAMMA = {"1": [["exp(1e110*y1)", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]}
STEEP_ERROR = "error: Taylor coefficient out of range: exp(1e+110*y1)\n"


@pytest.mark.parametrize(
    "argv, code",
    [(["bound", "--depth", "0"], 0), (["bound", "--depth", "1"], 0), (["bound", "--depth", "2"], 1), (["report"], 1)],
)
def test_fault_only_in_the_jets_of_nabla_ricci(tmp_path, capsys, argv, code):
    # Gamma^1_11 = exp(1e110*y1) and its first two derivatives are finite
    # at y1 = 0, so A, R, dR/dy and nabla Ric are; the third derivative,
    # which only d(nabla Ric)/dy holds, overflows.  Depths 0 and 1 walk
    # Gamma to order 2 at most and must not see the fault; depth 2 and
    # report walk it to order 3 and name the node.
    doc = _flat_doc(Gamma=STEEP_GAMMA, sample=[[0.0, 0.1]])
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([argv[0], str(path), *argv[1:]]) == code
    out, err = capsys.readouterr()
    if code:
        assert (out, err) == ("", STEEP_ERROR)
    else:
        assert json.loads(out)["bound"] == 6 and err == ""


def test_fault_only_in_the_second_derivatives_of_ricci(tmp_path, capsys):
    # Gamma^1_22 = y1^-28 and its first two derivatives are finite at y1 =
    # 1e-10, so the document, the determining residuals, R, Ric and nabla Ric
    # are; the third derivative, which only d(nabla Ric)/dy holds, overflows.
    # d/dy2 is accepted, and the invariance suite's second-order walk names
    # the node, as the walk of the trees of d(nabla Ric)/dy refuses it too
    doc = _flat_doc(Gamma={"1": [["0", "0"], ["0", "y1^-28"]]}, sample=[[1e-10, 0.1], [0.2, 0.3]])
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check-symmetry", str(path), "--eta=0,1"]) == 1
    assert capsys.readouterr() == ("", "error: non-finite derivative: y1^-29\n")
    assert_trees_refuse(path, ["check-symmetry", "--eta=0,1"], jets=("nabla_ricci",))


def test_overflowing_derivative_of_s_is_named(tmp_path, capsys):
    # at y = 0, Gamma, dGamma, R, Ric and nabla Ric are 0 and their
    # derivatives finite, but dS_12/dy2 = dR^1_112/dy2 + dR^2_212/dy2 =
    # 0.9e308 + 0.9e308 overflows: the invariance suite contracts R's jets
    # to S's and refuses it naming s and the point
    gamma = {"1": [["-0.45e308*y2^2", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "0.9e308*y1*y2"]]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(_flat_doc(Gamma=gamma, sample=[[0.0, 0.0]])))
    assert main(["check-symmetry", str(path), "--eta=0,0"]) == 1
    assert capsys.readouterr() == ("", "error: s is not finite at y = [0, 0]\n")
    sysd = SystemDocument.load(str(path)).to_system()
    with pytest.raises(ExprError, match=re.escape("s is not finite at y = [0, 0]")):
        invariance_suite(sysd, VectorField.from_strings(2, ["0", "0"]), [[0.0, 0.0]])


def test_folded_derivative_constant_that_overflows_exits_1(monkeypatch, tmp_path, capsys):
    # Gamma^1_11 = 1e200*(1e200*y1) is 1e100 at y1 = 1e-300, and its
    # derivative, the constant 1e200*1e200, overflows where the jets walk
    # folds it (expr._folded), which refuses it as a non-finite constant
    path = tmp_path / "folded.json"
    doc = {"n": 1, "A": [["1"]], "Gamma": {"1": [["1e200*(1e200*y1)"]]}, "sample": [[1e-300]]}
    path.write_text(json.dumps(doc))
    raised = []
    folded = expr._folded

    def spy(*args):
        try:
            return folded(*args)
        except ExprError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(expr, "_folded", spy)
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: non-finite constant inf\n")
    assert raised == ["non-finite constant inf"]


@pytest.mark.parametrize("depth", ["0", "1", "2"])
def test_overflowing_rows_of_a_are_reported_before_a_later_fault(tmp_path, capsys, depth):
    # L_eta A's rows at y = (0, 0.1) hold A^1_1 - A^2_2, which overflows,
    # and nabla Ric's jets fault there too: the rows of A, formed before
    # the curvature's, are the error at every depth
    doc = _flat_doc(A=[["1.7e308", "0"], ["0", "-1.7e308"]], Gamma=STEEP_GAMMA, sample=[[0.0, 0.1]])
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["bound", str(path), "--depth", depth]) == 1
    assert capsys.readouterr() == ("", "error: the linearized Lie derivative overflows at the point\n")


def _tiny_denominator_document(tmp_path):
    doc = _flat_doc(
        Gamma={"1": [["0", "0"], ["0", "y1^3/1e80"]], "2": [["0", "0"], ["0", "0"]]},
        sample=[[0.3, 0.2]],
    )
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-symmetry", "--eta=1,0"],
        ["check-symmetry", "--eta=y2,0"],
        ["check-symmetry", "--eta=0,1"],
        ["check-symmetry", "--eta=y1,y2"],
    ],
)
def test_constant_denominator_out_of_range_in_a_derivative_exits_1(tmp_path, capsys, argv):
    # the second derivative tree of y1^3/1e80 divides by the folded
    # constant (1e160)^2, which overflows; the invariance suite walks the
    # derivative trees of nabla Ric and raises that error, whatever eta is
    assert main([argv[0], _tiny_denominator_document(tmp_path), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", "error: constant power out of floating-point range\n")


@pytest.mark.parametrize("depth, bound", [("1", 4), ("2", 2)])
def test_constant_denominator_out_of_range_in_a_derivative_tree_leaves_the_bound(tmp_path, capsys, depth, bound):
    # the bound's Taylor coefficients of y1^3/1e80 are finite: the bound is
    # the rows' exact rank (test_symmetry), and report prints it too
    path = _tiny_denominator_document(tmp_path)
    code, data = run(capsys, "bound", path, "--depth", depth)
    assert code == 0 and data["bound"] == bound
    code, data = run(capsys, "report", path)
    assert code == 0 and data["pointwise_bound"][f"depth_{depth}"] == bound


def test_bound_refuses_where_taylor_coefficients_cancel(tmp_path, capsys):
    # at y1 = 1e-100 the chain rule of cos(sqrt(1e-80 + y1)) sums terms of
    # 1.25e79 that cancel; the rank of the rounding is no bound
    doc = {
        "n": 2,
        "A": [["1", "0"], ["0", "1"]],
        "Gamma": {"2": [["0", "0"], ["0", "cos(sqrt(1e-80 + y1))"]]},
        "sample": [[1e-100, 0.1]],
    }
    path = tmp_path / "cancellation.json"
    path.write_text(json.dumps(doc))
    error = "error: Taylor coefficients lost to cancellation: Gamma at y = [1e-100, 0.1]\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["bound", str(path), "--depth", "2", "--at", "1e-100,0.1"]) == 1
        assert capsys.readouterr() == ("", error)
        assert main(["report", str(path)]) == 1
        assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize(
    "argv",
    [["inspect"], ["curvature"], ["classify"], ["bound"], ["check-symmetry", "--eta=0,1"], ["report"]],
)
def test_exponent_beyond_the_float_range_exits_1(tmp_path, capsys, argv):
    # a 401-digit exponent has no float value, so the document's expression
    # is a parse error at the '^'
    power = "y1^1" + "0" * 400
    doc = _flat_doc(
        Gamma={"1": [["0", "0"], ["0", power]], "2": [["0", "0"], ["0", "0"]]},
        sample=[[0.3, 0.2]],
    )
    path = tmp_path / "huge_exponent.json"
    path.write_text(json.dumps(doc))
    assert main([argv[0], str(path), *argv[1:]]) == 1
    expected = f"error: bad expression {power!r}: exponent out of floating-point range (at offset 2)\n"
    assert capsys.readouterr() == ("", expected)


@pytest.mark.parametrize(
    "argv",
    [["inspect"], ["curvature"], ["classify"], ["bound"], ["check-symmetry", "--eta=0,1"], ["report"]],
)
def test_a_power_of_one_beyond_the_float_range_folds(tmp_path, capsys, argv):
    # 1^k is 1 for every integer k, also one without a float value
    outputs = []
    for entry in ("y1", "y1*1^1" + "0" * 400):
        doc = _flat_doc(
            Gamma={"1": [["0", "0"], ["0", entry]], "2": [["0", "0"], ["0", "0"]]},
            sample=[[0.3, 0.2]],
        )
        path = tmp_path / "gamma.json"
        path.write_text(json.dumps(doc))
        assert main([argv[0], str(path), *argv[1:]]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out and not outputs[0].err


def test_overflow_in_the_bound_rows_exits_1(tmp_path, capsys):
    # R ~ 1.4e308 and dR ~ 1e154 are finite at the point, but a row of the
    # linearized L_eta R adds two curvature components
    big = "1.2e154 + y2"
    doc = _flat_doc(
        Gamma={"1": [["0", big], [big, "0"]], "2": [["1.2e154 + y1", "0"], ["0", "0"]]},
        sample=[[0.1, 0.2]],
    )
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", str(path), "--depth", "1"]) == 1
    expected = "error: the linearized Lie derivative overflows at the point\n"
    assert capsys.readouterr() == ("", expected)


def test_overflow_in_the_invariance_suite_exits_1(tmp_path, capsys):
    # dGamma^1_22/dy1 = 2*y1*exp(y2) vanishes at y1 = 0, so the translation
    # eta = (1e308, 0) passes both determining equations; dR/dy1 does not
    # vanish, and eta^1 dR/dy1 overflows in L_eta R: the suite's field is
    # checked, and the error names it and the point
    doc = _flat_doc(
        Gamma={"1": [["0", "0"], ["0", "y1^2*exp(y2)"]], "2": [["0", "0"], ["0", "0"]]},
        sample=[[0.0, 0.1]],
    )
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check-symmetry", str(path), "--eta=1e308,0"]) == 1
    assert capsys.readouterr() == ("", "error: lie_curvature is not finite at y = [0, 0.1]\n")


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_report_bounds_are_the_pointwise_bounds(capsys, name):
    code, data = run(capsys, "report", fixture(name))
    assert code in (0, 2)
    doc = SystemDocument.load(fixture(name))
    sysd, p0 = doc.to_system(), doc._points[0]
    for d in (1, 2):
        assert data["pointwise_bound"][f"depth_{d}"] == pointwise_symmetry_bound(sysd, p0, d)


def test_exit_code_1_on_unrepresentable_numbers(tmp_path, capsys):
    # a literal beyond the float range is malformed input, not inf
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 1, "A": [["1e999"]]}))
    assert main(["inspect", str(huge)]) == 1
    assert "error:" in capsys.readouterr().err

    # overflow during checked evaluation is a DomainError, reported cleanly
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({"n": 1, "A": [["1 + y1^999"]]}))
    assert main(["bound", str(steep), "--at", "10"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "text, error",
    [
        ("y1^" + "9" * 5000, "exponent has too many digits (at offset 3)"),
        ("y²", "unknown identifier 'y²' (at offset 0)"),
    ],
    ids=["long-exponent", "non-decimal-digit"],
)
def test_exit_code_1_on_hostile_expressions(tmp_path, capsys, text, error):
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps({"n": 1, "A": [[text]]}))
    assert main(["inspect", str(path)]) == 1
    assert capsys.readouterr().err == f"error: bad expression {text!r}: {error}\n"


@pytest.mark.parametrize(
    "command, coefficient",
    [("inspect", "y1"), ("report", "1")],
)
def test_deep_parentheses_parse(tmp_path, capsys, command, coefficient):
    # the expression parser keeps its own stacks, so depth is not limited by recursion
    text = "(" * 100_000 + coefficient + ")" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"n": 1, "A": [[text]], "Gamma": {"1": [["0"]]}}))
    code, data = run(capsys, command, str(path))
    assert code == 0 and data


@pytest.fixture(scope="module")
def deep_sum_document(tmp_path_factory):
    # a 20,000-term left-nested sum is 20,000 levels deep
    text = " + ".join(["1"] + ["y1"] * 19999)
    path = tmp_path_factory.mktemp("deep") / "deep_sum.json"
    path.write_text(json.dumps({"n": 1, "A": [[text]], "Gamma": {"1": [["0"]]}}))
    return str(path)


@pytest.mark.parametrize("command", ["inspect", "classify", "curvature", "report", "bound"])
def test_deep_sums_go_through_every_analysis(deep_sum_document, capsys, command):
    code, data = run(capsys, command, deep_sum_document)
    assert code == 0 and data


def test_deep_canonical_covector_builds(tmp_path, capsys):
    u = " + ".join(["y1"] * 3000)
    path = tmp_path / "deep_u.json"
    path.write_text(
        json.dumps({"canonical": {"kind": "intermediate_17_19", "n": 3, "m": 1, "u": [u]}})
    )
    code, data = run(capsys, "canonical", str(path))
    assert code == 0 and data["passed"] is True


def test_nesting_beyond_the_json_decoder_exits_1(tmp_path, capsys):
    # the JSON decoder recurses per nested array
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["report", str(path)]) == 1
    assert capsys.readouterr().err == "error: input nested too deeply to process\n"


def test_dash_leading_components_need_the_equals_form(capsys):
    code, data = run(capsys, "check-symmetry", fixture("flat_n2.json"), "--eta=-y2,y1")
    assert code == 0 and data["accepted"] is True


def test_exit_code_1_on_unknown_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["classify", "--bogus"])
    assert err.value.code == 1
    capsys.readouterr()


def test_rank_not_constant_exit_2(tmp_path, capsys):
    doc = {
        "canonical": {"kind": "intermediate_17_19", "n": 2, "a": 1.0, "m": 1, "u": ["y1^2"]},
        "sample": [[0.0, 0.0], [0.3, 0.1]],
    }
    path = tmp_path / "varies.json"
    path.write_text(json.dumps(doc))
    code, data = run(capsys, "classify", str(path))
    assert code == 2
    assert data["rank_constant"] is False


def test_render_json_is_sorted_and_17g():
    s = render_json({"b": 1 / 3, "a": [1.0, 2.5e-17]})
    assert s.index('"a"') < s.index('"b"')
    assert "0.33333333333333331" in s
    assert "2.4999999999999999e-17" in s
    assert render_json({}) == "{}"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -np.inf])
def test_render_json_refuses_non_finite_floats(value):
    with pytest.raises(InputError, match="not finite"):
        render_json({"x": [1.0, value]})


def test_non_finite_report_value_exits_1_without_stdout(monkeypatch, capsys):
    monkeypatch.setattr(cli, "pde_residual", lambda *_args: float("nan"))
    argv = ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "8", "--grid", "16"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: report value nan is not finite\n"


def test_simulate_without_stability_limit_prints_null(tmp_path, capsys):
    # A is nilpotent, so its spectral radius and the step heuristic's
    # denominator are zero
    doc = {
        "n": 2,
        "A": [["0", "0"], ["1", "0"]],
        "Gamma": {"1": [["0", "0"], ["0", "0"]], "2": [["0", "0"], ["0", "0"]]},
    }
    path = tmp_path / "nilpotent.json"
    path.write_text(json.dumps(doc))
    argv = ["simulate", str(path), "--dt", "0.001", "--steps", "5", "--grid", "16"]
    assert main(argv) == 0
    data = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert data["stability_limit"] is None


def test_simulate_grid_ceiling_is_checked_before_allocating(monkeypatch, capsys):
    def no_grid(_profiles, N, _length):
        raise ValueError(f"make_grid reached with N = {N}")

    monkeypatch.setattr(cli, "make_grid", no_grid)
    argv = ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "1", "--grid"]
    assert main(argv + [str(cli.GRID_MAX + 1)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --grid must be between 8 and {cli.GRID_MAX} points, got {cli.GRID_MAX + 1}\n"
    # the ceiling itself passes the check and reaches the grid
    assert main(argv + [str(cli.GRID_MAX)]) == 1
    assert capsys.readouterr().err == f"error: bad profile: make_grid reached with N = {cli.GRID_MAX}\n"


@pytest.mark.parametrize(
    "doc",
    [{"n": 100000}, {"canonical": {"kind": "maximal_7_11", "n": 10000000}}],
    ids=["explicit", "canonical"],
)
def test_dimension_ceiling_is_checked_before_building(tmp_path, monkeypatch, capsys, doc):
    # a dimension beyond the ceiling is input (exit 1), refused before
    # anything of size n is built: not numpy's memory error or array size
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["inspect", str(path)]) == 1
    n = doc.get("n") or doc["canonical"]["n"]
    assert capsys.readouterr().err == f"error: dimension n = {n} exceeds the largest supported, {cli.N_MAX}\n"

    # the ceiling itself passes the check and reaches the build
    def no_build(self):
        raise InputError(f"build reached with n = {self.n}")

    monkeypatch.setattr(SystemDocument, "_build", no_build)
    with pytest.raises(InputError, match=f"build reached with n = {cli.N_MAX}"):
        SystemDocument(cli.N_MAX)


def test_seed_env_var_changes_samples(monkeypatch):
    base = sample_points(2, 5)
    monkeypatch.setenv("AFFSYM_SEED", "99")
    changed = sample_points(2, 5)
    monkeypatch.delenv("AFFSYM_SEED")
    assert not np.allclose(base, changed)


@pytest.mark.parametrize("value", ["abc", "-1", "", "1.5"])
def test_malformed_seed_env_var_is_an_input_error(monkeypatch, capsys, value):
    # refused before the subcommand runs, as input (exit 1), not as a
    # failed check; the library raises ValueError naming the value
    monkeypatch.setenv("AFFSYM_SEED", value)
    assert main(["report", fixture("flat_n2.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: AFFSYM_SEED must be a non-negative integer, got {value!r}\n"
    with pytest.raises(ValueError, match="AFFSYM_SEED must be a non-negative integer"):
        sample_points(2, 5)


# ---------------------------------------------------------------------------
# Divergence-form expansion
# ---------------------------------------------------------------------------


def test_from_diffusional_constant_matrix():
    doc = from_diffusional([["2", "1"], ["0", "3"]])
    sysd = doc.to_system()
    pts = sample_points(2, 10)
    assert np.max(np.abs(sysd.conn.evaluate_many(pts))) == 0.0


def test_from_diffusional_exponential_1d():
    doc = from_diffusional([["exp(y1)"]])
    sysd = doc.to_system()
    pts = sample_points(1, 10)
    vals = sysd.conn.evaluate_many(pts)
    assert np.max(np.abs(vals - 1.0)) <= 1e-12


def test_from_diffusional_n3_symbolic():
    rows = [
        ["2 + y1^2", "0", "0"],
        ["0", "3", "y2"],
        ["0", "y2", "2"],
    ]
    doc = from_diffusional(rows)
    sysd = doc.to_system()
    pts = sample_points(3, 8)
    g_vals = sysd.conn.evaluate_many(pts)
    # oracle: solve A Gamma = sym(dA) pointwise with numpy
    from affsym.expr import diff_expr, parse_expr, eval_many

    n = 3
    exprs = [[parse_expr(t, n) for t in row] for row in rows]
    for pi, p in enumerate(pts):
        A = np.array([[eval_many(exprs[i][j], p[None, :])[0] for j in range(n)] for i in range(n)])
        dA = np.empty((n, n, n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    dA[k, i, j] = eval_many(diff_expr(exprs[i][j], k + 1), p[None, :])[0]
        for r in range(n):
            for s in range(n):
                rhs = 0.5 * (dA[s, :, r] + dA[r, :, s])
                want = np.linalg.solve(A, rhs)
                assert np.max(np.abs(g_vals[pi, :, r, s] - want)) <= 1e-10
    # the expansion is an ordinary expression document and round-trips
    again = SystemDocument.from_dict(doc.to_dict()).to_system()
    assert np.array_equal(again.conn.evaluate_many(pts), g_vals)


def test_from_diffusional_rejects_singular():
    with pytest.raises(InputError):
        from_diffusional([["y1"]], sample=[[0.0], [0.2]])


@pytest.mark.parametrize("rows, c", [
    ([["1 + y1*y1", "0"], ["0", "1"]], 2.0**-24),
    ([["1 + y1*y1"]], 2.0**1000),
])
def test_from_diffusional_judges_a_singular_a_relative_to_its_scale(rows, c):
    # Gamma = A^-1 (dA + dA^T)/2 does not change under A -> c*A; a power of
    # two keeps the scaled constants exact, so the expansion's Gamma is the
    # unscaled one to the bit, and A stays nondegenerate
    n = len(rows)
    pts = sample_points(n, 20)
    scaled = from_diffusional([[f"{c!r}*({t})" for t in row] for row in rows]).to_system()
    want = from_diffusional(rows).to_system().conn.evaluate_many(pts)
    assert scaled.conn.evaluate_many(pts).tobytes() == want.tobytes()
    assert scaled.a_nondegenerate(pts)


def test_a_scaled_beyond_the_range_of_its_determinant_is_nondegenerate():
    # |det A| is c^2 (1 + y1^2) here, beyond the float range; the judgement
    # reads singular values and warns of nothing
    c = 2.0**1000
    a = TensorField.from_strings(2, 1, 1, [[f"{c!r}*(1 + y1*y1)", "0"], ["0", f"{c!r}"]])
    sysd = geometry.DiffusionSystem(2, a, geometry.Connection(2, np.full((2, 2, 2), ZERO)))
    assert sysd.a_nondegenerate(sample_points(2, 20))


def test_from_diffusional_rejects_a_non_square_matrix():
    for rows in ([["1", "0"]], [["1", "0"], ["0"]], ["1"]):
        with pytest.raises(InputError) as err:
            from_diffusional(rows)
        assert str(err.value) == "A must be a square matrix of expression strings"


def test_divergence_form_mean_conservation_refines():
    # the expansion of d/dx(A dy/dx) conserves the spatial mean up to scheme
    # order; the drift shrinks ~4x per (dx, dt) refinement level
    doc = from_diffusional([["exp(y1)"]])
    sysd = doc.to_system()
    L = 2 * np.pi
    drifts = []
    for lev in range(2):
        N = 32 * 2**lev
        dt = 1.6e-3 / 4**lev
        steps = 60 * 4**lev
        grid = make_grid([lambda x: 0.4 * np.sin(x)], N, L)
        out = evolve(sysd, grid, dt, steps)
        drifts.append(abs(out.values.mean() - grid.values.mean()))
    assert drifts[0] / drifts[1] >= 3.0


def test_simulate_handles_ragged_snapshot_cadence(capsys):
    # 50 steps with a cadence of 12 leaves a short trailing chunk; the
    # residual must be computed on the equally spaced prefix
    code, data = run(
        capsys,
        "simulate",
        fixture("heat_n1.json"),
        "--grid",
        "32",
        "--dt",
        "0.004",
        "--steps",
        "50",
        "--initial",
        "sin(x)",
    )
    assert code == 0
    assert data["pde_residual"] is not None and data["pde_residual"] < 1e-2


# ---------------------------------------------------------------------------
# Document and flag validation
# ---------------------------------------------------------------------------


def _flat_doc(**extra):
    doc = {"n": 2, "A": [["1", "0"], ["0", "1"]]}
    doc.update(extra)
    return doc


SAMPLE_ERROR = "sample must be a list of points of dimension n, given as numbers"


def assert_input_error(capsys, argv, error):
    """main exits 1 with the one line ``error: <error>`` on stderr."""
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize(
    "doc, argv, error",
    [
        (
            _flat_doc(tolerances={"symmetry": "abc"}),
            ["check-symmetry", "--eta=1,0"],
            "tolerance 'symmetry' must be a finite number >= 0, got 'abc'",
        ),
        (
            _flat_doc(tolerances={"gamma_symmetry": None}),
            ["inspect"],
            "tolerance 'gamma_symmetry' must be a finite number >= 0, got None",
        ),
        (
            _flat_doc(tolerances={"symmetry": -1e-8}),
            ["inspect"],
            "tolerance 'symmetry' must be a finite number >= 0, got -1e-08",
        ),
        (
            _flat_doc(tolerances={"symmetry": float("inf")}),
            ["inspect"],
            "tolerance 'symmetry' must be a finite number >= 0, got inf",
        ),
        (
            _flat_doc(tolerances={"symmetry": True}),
            ["inspect"],
            "tolerance 'symmetry' must be a finite number >= 0, got True",
        ),
        (
            _flat_doc(tolerances={"symetry": 1e-8}),
            ["inspect"],
            "unknown tolerance 'symetry'; pick from ['flatten', 'gamma_symmetry', 'invariance',"
            " 'structure', 'symmetry', 'transport']",
        ),
        (_flat_doc(tolerances=[1e-8]), ["inspect"], "tolerances must map check names to numbers"),
        (_flat_doc(sample=[["a", 1]]), ["inspect"], SAMPLE_ERROR),
        (_flat_doc(sample=[["0.1", 0.2]]), ["inspect"], SAMPLE_ERROR),
        (
            _flat_doc(sample=[[float("nan"), 0.1], [0.2, 0.3]]),
            ["inspect"],
            "sample coordinates must be finite",
        ),
        (
            _flat_doc(sample=[[float("nan"), 0.1], [0.2, 0.3]]),
            ["classify"],
            "sample coordinates must be finite",
        ),
        (_flat_doc(sample=[[0.1, 0.2], [0.3]]), ["inspect"], SAMPLE_ERROR),
        (
            _flat_doc(Gamma={"1": [["0", "0"], ["0", "0"]], "01": [["y1", "0"], ["0", "0"]]}),
            ["inspect"],
            "Gamma upper index 1 is given twice",
        ),
        (
            {"canonical": {"kind": "maximal_7_11", "n": 2.5}},
            ["inspect"],
            "invalid canonical spec: n must be an integer, got 2.5",
        ),
        (
            {"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 1.5}},
            ["inspect"],
            "invalid canonical spec: m must be an integer, got 1.5",
        ),
        (
            {"canonical": {"kind": "constcurv_2d_22_14", "n": 2, "b": "abc"}},
            ["inspect"],
            "invalid canonical spec: b must be a finite real number, got 'abc'",
        ),
        (
            {"canonical": {"kind": "maximal_7_11", "n": 2, "a": "2"}},
            ["inspect"],
            "invalid canonical spec: a must be a finite real number, got '2'",
        ),
        (
            {"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 1, "u": [1.0]}},
            ["inspect"],
            "invalid canonical spec: u and psi entries must be expression strings, got 1.0",
        ),
        (
            {"canonical": {"kind": "intermediate_potential_17_24", "n": 2, "m": 1, "psi": 3}},
            ["inspect"],
            "invalid canonical spec: u and psi entries must be expression strings, got 3",
        ),
        (
            {"canonical": {"kind": "constcurv_22_13", "n": 2, "epsilons": [True, True]}},
            ["inspect"],
            "invalid canonical spec: epsilons must be n entries of +/-1",
        ),
        ({"canonical": "x"}, ["inspect"], "invalid canonical spec: it must be a JSON object"),
        (
            {"canonical": {"kind": "intermediate_17_19", "n": 3, "m": 1, "u": ["y2"]}},
            ["inspect"],
            "invalid canonical spec: u_1 references y2; the canonical covector may depend on"
            " y1..y1 only",
        ),
        (
            {"canonical": {"kind": "intermediate_potential_17_24", "n": 2, "m": 1}},
            ["inspect"],
            "invalid canonical spec: intermediate_potential_17_24 needs a potential psi",
        ),
        (
            {"canonical": {"kind": "intermediate_17_19", "n": 2, "m": 2, "u": ["y1"]}},
            ["inspect"],
            "invalid canonical spec: expected 2 covector components, got 1",
        ),
        (
            {"canonical": {"kind": "maximal_7_11", "n": 0}},
            ["inspect"],
            "invalid canonical spec: dimension must be >= 1",
        ),
        (
            {"canonical": {"kind": "constcurv_22_13", "n": 1}},
            ["inspect"],
            "invalid canonical spec: constant-curvature construction needs n >= 2",
        ),
        ({"n": [1], "A": [["1"]]}, ["inspect"], "dimension n must be an integer >= 1, got [1]"),
        ({"n": "abc", "A": [["1"]]}, ["inspect"], "dimension n must be an integer >= 1, got 'abc'"),
        (
            {"n": 2.5, "A": [["1", "0"], ["0", "1"]]},
            ["inspect"],
            "dimension n must be an integer >= 1, got 2.5",
        ),
        ({"n": True, "A": [["1"]]}, ["inspect"], "dimension n must be an integer >= 1, got True"),
        ([1, 2], ["inspect"], "document root must be a JSON object"),
        (
            {"canonical": {"kind": "nope", "n": 2}},
            ["inspect"],
            f"canonical.kind must be one of {CANONICAL_KINDS}",
        ),
        (
            {"canonical": {"kind": "maximal_7_11", "n": 2, "q": 1, "c": 2}},
            ["inspect"],
            "unknown canonical fields: ['c', 'q']",
        ),
        ({"A": [["1"]]}, ["inspect"], "document needs 'n' (or a canonical spec)"),
        (
            {"n": 3, "canonical": {"kind": "maximal_7_11", "n": 2}},
            ["inspect"],
            "document n conflicts with the canonical spec",
        ),
        (
            None,  # no file is written
            ["inspect"],
            "cannot read {path}: [Errno 2] No such file or directory: '{path}'",
        ),
        (_flat_doc(A=[["1", "0"]]), ["inspect"], "A must be 2x2 expression strings"),
        (_flat_doc(Gamma=[["0"]]), ["inspect"], "Gamma must map upper indices to lower matrices"),
        (
            _flat_doc(Gamma={"x": [["0", "0"], ["0", "0"]]}),
            ["inspect"],
            "Gamma key 'x' is not an index",
        ),
        (
            _flat_doc(Gamma={"3": [["0", "0"], ["0", "0"]]}),
            ["inspect"],
            "Gamma upper index 3 outside 1..2",
        ),
        (_flat_doc(Gamma={"1": [["0", "0"]]}), ["inspect"], "Gamma[1] must be 2x2"),
        (
            _flat_doc(A=[[1, "0"], ["0", "1"]]),
            ["inspect"],
            "coefficient entries must be strings, got 1",
        ),
        (
            _flat_doc(),
            ["canonical"],
            "canonical subcommand needs a document with a canonical spec",
        ),
    ],
    ids=[
        "tolerance-string",
        "tolerance-null",
        "tolerance-negative",
        "tolerance-inf",
        "tolerance-bool",
        "tolerance-unknown-key",
        "tolerances-not-object",
        "sample-string",
        "sample-numeric-string",
        "sample-nan-inspect",
        "sample-nan-classify",
        "sample-ragged",
        "gamma-index-twice",
        "canonical-n-float",
        "canonical-m-float",
        "canonical-b-string",
        "canonical-a-string",
        "canonical-u-number",
        "canonical-psi-number",
        "canonical-epsilons-bool",
        "canonical-not-object",
        "canonical-u-beyond-m",
        "canonical-psi-missing",
        "canonical-u-short",
        "canonical-n-zero",
        "canonical-constcurv-n1",
        "n-list",
        "n-string",
        "n-float",
        "n-bool",
        "root-not-object",
        "canonical-kind-unknown",
        "canonical-fields-unknown",
        "n-missing",
        "n-conflicts-with-spec",
        "file-unreadable",
        "a-not-square",
        "gamma-not-object",
        "gamma-key-not-index",
        "gamma-index-outside",
        "gamma-matrix-not-square",
        "coefficient-not-string",
        "canonical-without-spec",
    ],
)
def test_malformed_document_fields_exit_1(tmp_path, capsys, doc, argv, error):
    path = tmp_path / "doc.json"
    if doc is not None:
        path.write_text(json.dumps(doc))  # json writes nan/inf as NaN/Infinity
    assert_input_error(capsys, [argv[0], str(path)] + argv[1:], error.format(path=path))


def test_valid_tolerance_override_is_used(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_flat_doc(tolerances={"symmetry": 0, "invariance": 1})))
    code, data = run(capsys, "check-symmetry", str(path), "--eta=1,0")
    assert code == 0 and data["tolerance"] == 0


def test_to_dict_round_trip_keeps_tolerances_spec_and_sample(tmp_path, capsys):
    # compare_cli's TIGHT document: its symmetry tolerance of 1e-30 refuses
    # the field 1e-9*y1, which the default tolerance accepts
    (doc, _argvs), = compare_cli().TIGHT.values()
    tight = SystemDocument.from_dict(doc)
    again = tight.to_dict()
    assert again["tolerances"] == {"symmetry": 1e-30}
    assert SystemDocument.from_dict(again).tolerances == tight.tolerances
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(again))
    assert run(capsys, "check-symmetry", str(path), "--eta=1e-9*y1,0,0")[0] == 2
    # a canonical spec with psi, and a sample; no overrides, no "tolerances"
    spec = {"kind": "intermediate_potential_17_24", "n": 2, "a": 1.5, "m": 1, "psi": "y1^3/3"}
    doc = SystemDocument.from_dict({"canonical": spec, "sample": [[0.1, -0.2], [0.3, 0.25]]})
    again = SystemDocument.from_dict(doc.to_dict())
    assert doc.to_dict() == {"n": 2, "canonical": spec, "sample": [[0.1, -0.2], [0.3, 0.25]]}
    assert again.to_dict() == doc.to_dict() and again.tolerances == doc.tolerances
    assert np.array_equal(again._a_values, doc._a_values)


SIM = ["--dt", "0.001", "--steps", "4"]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["bound", fixture("flat_n2.json"), "--at", "nan,0"], "--at components must be finite"),
        (["bound", fixture("flat_n2.json"), "--at", "0,inf"], "--at components must be finite"),
        (["flatten", fixture("flat_n2.json"), "--u0", "0,-inf"], "--u0 components must be finite"),
        (
            ["simulate", fixture("heat_n1.json"), "--dt", "nan", "--steps", "4"],
            "--dt must be a finite number > 0, got nan",
        ),
        (
            ["simulate", fixture("heat_n1.json"), "--dt", "0", "--steps", "4"],
            "--dt must be a finite number > 0, got 0.0",
        ),
        (
            ["simulate", fixture("heat_n1.json"), "--dt", "-0.001", "--steps", "4"],
            "--dt must be a finite number > 0, got -0.001",
        ),
        (
            ["simulate", fixture("heat_n1.json"), "--dt", "inf", "--steps", "4"],
            "--dt must be a finite number > 0, got inf",
        ),
        (
            ["simulate", fixture("heat_n1.json"), *SIM, "--length", "0"],
            "--length must be a finite number > 0, got 0.0",
        ),
        (
            ["simulate", fixture("heat_n1.json"), *SIM, "--length", "nan"],
            "--length must be a finite number > 0, got nan",
        ),
        (
            ["simulate", fixture("heat_n1.json"), *SIM, "--grid", "4"],
            "--grid must be between 8 and 1048576 points, got 4",
        ),
        (
            ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "-3"],
            "--steps must be at least 1, got -3",
        ),
        (
            ["simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "0"],
            "--steps must be at least 1, got 0",
        ),
        (
            ["simulate", fixture("flat_n2.json"), *SIM, "--tau", "nan"],
            "--tau must be finite, got nan",
        ),
        (
            ["simulate", fixture("flat_n2.json"), *SIM, "--tau", "inf"],
            "--tau must be finite, got inf",
        ),
        # the transport's work grows with |tau|: refused before any is done
        (
            ["simulate", fixture("flat_n2.json"), *SIM, "--transport=1,0", "--tau", "1e308"],
            "--tau must be at most 1000 in magnitude, got 1e+308",
        ),
        (
            ["simulate", fixture("flat_n2.json"), *SIM, "--transport=1,0", "--tau=-1000.5"],
            "--tau must be at most 1000 in magnitude, got -1000.5",
        ),
        (
            ["check-symmetry", fixture("flat_n2.json"), "--eta=1"],
            "--eta needs 2 comma-separated components",
        ),
        (
            ["check-symmetry", fixture("flat_n2.json"), "--eta=1,tan(y1)"],
            "bad component in --eta: unknown identifier 'tan' (at offset 0)",
        ),
        (
            ["simulate", fixture("flat_n2.json"), *SIM, "--transport=1"],
            "--transport needs 2 comma-separated components",
        ),
        (
            ["bound", fixture("flat_n2.json"), "--at", "a,b"],
            "--at must be comma-separated numbers",
        ),
        (["bound", fixture("flat_n2.json"), "--at", "0.1"], "--at needs 2 components"),
        (
            ["simulate", fixture("flat_n2.json"), *SIM, "--initial", "sin(x)"],
            "--initial needs 2 semicolon-separated profiles in x",
        ),
        (
            ["simulate", fixture("heat_n1.json"), *SIM, "--initial", "tan(x)"],
            "bad profile: unknown identifier 'tan' (at offset 0)",
        ),
    ],
    ids=[
        "at-nan",
        "at-inf",
        "u0-inf",
        "dt-nan",
        "dt-zero",
        "dt-negative",
        "dt-inf",
        "length-zero",
        "length-nan",
        "grid-4",
        "steps-negative",
        "steps-zero",
        "tau-nan",
        "tau-inf",
        "tau-beyond",
        "tau-beyond-negative",
        "eta-count",
        "eta-component",
        "transport-count",
        "at-not-numbers",
        "at-count",
        "initial-count",
        "initial-profile",
    ],
)
def test_bad_numeric_flags_exit_1(capsys, argv, error):
    assert_input_error(capsys, argv, error)


@pytest.mark.parametrize("length", ["1e300", "1e-300"])
def test_simulate_refuses_a_length_whose_grid_spacing_squared_is_not_normal(capsys, length):
    # a traceback from dx**2's OverflowError, and "solution blew up at step
    # 1" after the stencil divided by a dx**2 of 0
    argv = ["simulate", fixture("heat_n1.json"), *SIM, "--grid", "16", "--length", length]
    L = float(length)
    error = (
        f"--length {L!r} does not fit --grid 16: "
        f"(L/N)**2 is not a finite normal float for L = {L!r}, N = 16"
    )
    assert_input_error(capsys, argv, error)


def test_smallest_valid_simulation_flags(capsys):
    code, data = run(
        capsys, "simulate", fixture("heat_n1.json"), "--dt", "0.001", "--steps", "1", "--grid", "8"
    )
    assert code == 0 and data["final_t"] == 0.001
